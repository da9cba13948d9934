"""Result documents and their deterministic emission.

Every CLI command produces a ``Document`` (scalar metadata plus named
tables) which renders to a fixed-width table, CSV, or versioned JSON.
Identical documents always render to identical bytes: no timestamps, no
floats, and rationals are formatted canonically.  The CSV and JSON
writers live in ``writers``, which loads only for those formats.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd
from typing import NamedTuple

SCHEMA = "ponfabric/1"


class OutputFormat(Enum):
    JSON = "json"
    CSV = "csv"
    TABLE = "table"


def format_rational(value: Fraction) -> str:
    """Exact decimal when the value terminates, ``p/q`` otherwise."""
    return format_ratio(value.numerator, value.denominator)


def format_ratio(num: int, den: int) -> str:
    """``format_rational`` of ``num / den`` (``den`` positive), with no ``Fraction`` made."""
    if (common := gcd(num, den)) > 1:
        num, den = num // common, den // common
    digits = _places(den)
    if digits is None:
        return f"{num}/{den}"
    sign = "-" if num < 0 else ""
    whole, frac = divmod(abs(num) * 10**digits // den, 10**digits)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(digits).rstrip('0')}"


@lru_cache(maxsize=1024)  # a table's values share a few denominators
def _places(den: int) -> int | None:
    """The decimal places of 1/``den``, None if it does not terminate."""
    twos = (den & -den).bit_length() - 1
    rest, fives = den >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    return max(twos, fives) if rest == 1 else None


class Table(NamedTuple):
    """A named table; each row holds one cell per column."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


class Document(NamedTuple):
    title: str
    meta: tuple[tuple[str, object], ...] = ()
    tables: tuple[Table, ...] = ()


def render(doc: Document, fmt: OutputFormat) -> str:
    if fmt is OutputFormat.JSON:
        from .writers import _render_json  # each writer loads for its format only

        return _render_json(doc)
    if fmt is OutputFormat.CSV:
        from .writers import _render_csv

        return _render_csv(doc)
    return _render_table(doc)


def _render_table(doc: Document) -> str:
    lines = [doc.title, "=" * len(doc.title)]
    if doc.meta:
        width = max(len(key) for key, _ in doc.meta)
        for key, value in doc.meta:
            text = str(value)
            if "\n" in text:
                lines.append(f"{key}:")
                lines.extend(f"    {part}" for part in text.splitlines())
            else:
                lines.append(f"{key.ljust(width)}  {text}")
    for table in doc.tables:
        lines.append("")
        lines.append(f"-- {table.name} --")
        cells = table.rows  # a row is copied only if a cell in it is not a str
        if not set(map(type, chain.from_iterable(cells))) <= {str}:
            cells = [row if set(map(type, row)) <= {str} else tuple(map(str, row)) for row in cells]
        widths = [
            max([len(col)] + [len(row[i]) for row in cells])
            for i, col in enumerate(table.columns)
        ]
        lines.append("  ".join(map(str.ljust, table.columns, widths)))
        lines.append("  ".join("-" * width for width in widths))
        lines.extend("  ".join(map(str.ljust, row, widths)) for row in cells)
    return "\n".join(lines) + "\n"
