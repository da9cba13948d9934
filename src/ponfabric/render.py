"""Deterministic emission of result documents.

Every CLI command produces a ``Document`` (scalar metadata plus named
tables) which renders to a fixed-width table, CSV, or versioned JSON.
Identical documents always render to identical bytes: no timestamps, no
floats, and rationals are formatted canonically.
"""

from __future__ import annotations

import io
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

SCHEMA = "ponfabric/1"


class OutputFormat(Enum):
    JSON = "json"
    CSV = "csv"
    TABLE = "table"


def format_rational(value: Fraction) -> str:
    """Exact decimal when the value terminates, ``p/q`` otherwise."""
    num, den = value.numerator, value.denominator
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
        return _render_json(doc)
    if fmt is OutputFormat.CSV:
        return _render_csv(doc)
    return _render_table(doc)


def _render_json(doc: Document) -> str:
    """The document in ``json``'s ``indent=2`` layout, without its encoder.

    The object written is ``{"schema", "title", "meta": dict(doc.meta),
    "tables": {name: [dict(zip(columns, row)), ...]}}``, so a repeated meta
    key, table name or column keeps its first position and takes its last
    value.  CPython serves any ``indent`` with its pure-Python encoder; here
    each table fills one row template, built once from its column names.
    The text is one list of pieces, joined once: each member of an object
    or a list is written with a trailing comma, and ``_close`` drops the
    last one's.
    """
    global _quote
    from json.encoder import encode_basestring_ascii as _quote  # json loads on first use

    out = ['{\n  "schema": ', _json_value(SCHEMA, "  "), ',\n  "title": ', _json_value(doc.title, "  ")]
    out.append(',\n  "meta": {')
    out += [f"\n    {_quote(key)}: {_json_value(value, '    ')}," for key, value in dict(doc.meta).items()]
    _close(out, "\n  }")
    out.append(',\n  "tables": {')
    for table in {table.name: table for table in doc.tables}.values():
        out.append(f"\n    {_quote(table.name)}: [")
        out += _json_rows(table)
        _close(out, "\n    ]")
        out.append(",")
    _close(out, "\n  }")
    out.append("\n}\n")
    return "".join(out)


def _close(out: list[str], bracket: str) -> None:
    """End the object or list whose members end ``out``: the last member
    loses its comma, or, with no members, ``bracket`` closes the opening
    line."""
    if out[-1].endswith(","):
        out[-1] = out[-1][:-1] + bracket
    else:
        out[-1] += bracket[-1]


def _json_rows(table: Table) -> Iterable[str]:
    """The members of the list of ``dict(zip(columns, row))``, encoded a
    column at a time.  A column of plain text (``_plain``) has its quotes
    in the row template."""
    last = {column: i for i, column in enumerate(table.columns)}
    transposed = list(zip(*table.rows)) or [()] * len(table.columns)
    columns = [transposed[i] for i in last.values()]
    plain = list(map(_plain, columns))
    template = ["\n      {"]
    template += [
        "\n        " + _quote(column.replace("%", "%%")) + (': "%s",' if p else ": %s,")
        for column, p in zip(last, plain)
    ]
    _close(template, "\n      }")
    cells = [c if p else [_json_value(v, "        ") for v in c] for c, p in zip(columns, plain)]
    # zip() of no columns would drop the rows; each still writes an empty object.
    rows = zip(*cells) if cells else [()] * len(table.rows)
    return map(("".join(template) + ",").__mod__, rows)


def _plain(column: tuple) -> bool:
    """Whether ``json`` writes each cell as itself between quotes: each is
    a ``str`` of printable ASCII without ``"`` or ``\\``."""
    if not set(map(type, column)) <= {str}:
        return False
    text = "".join(column)
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _json_value(value: object, indent: str) -> str:
    """``value`` as ``indent=2`` writes it at a line indented by ``indent``."""
    if type(value) is str:
        return _quote(value)
    if type(value) is int:
        return int.__repr__(value)
    import json

    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _render_csv(doc: Document) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    out.write(f"#title:{doc.title}\n")
    if doc.meta:
        out.write("#table:meta\n")
        writer.writerow(["key", "value"])
        writer.writerows(doc.meta)
        out.write("\n")
    for table in doc.tables:
        out.write(f"#table:{table.name}\n")
        writer.writerow(table.columns)
        writer.writerows(table.rows)
        out.write("\n")
    return out.getvalue()


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
        cells = [tuple(map(str, row)) for row in table.rows]
        widths = [
            max([len(col)] + [len(row[i]) for row in cells])
            for i, col in enumerate(table.columns)
        ]
        lines.append("  ".join(map(str.ljust, table.columns, widths)))
        lines.append("  ".join("-" * width for width in widths))
        lines.extend("  ".join(map(str.ljust, row, widths)) for row in cells)
    return "\n".join(lines) + "\n"
