"""Deterministic emission of result documents.

Every CLI command produces a ``Document`` (scalar metadata plus named
tables) which renders to a fixed-width table, CSV, or versioned JSON.
Identical documents always render to identical bytes: no timestamps, no
floats, and rationals are formatted canonically.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

SCHEMA = "ponfabric/1"


class OutputFormat(Enum):
    JSON = "json"
    CSV = "csv"
    TABLE = "table"


def format_rational(value: Fraction) -> str:
    """Exact decimal when the value terminates, ``p/q`` otherwise."""
    num, den = value.numerator, value.denominator
    rest, twos, fives = den, 0, 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    sign = "-" if num < 0 else ""
    whole, frac = divmod(abs(num) * 10**digits // den, 10**digits)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac).zfill(digits).rstrip('0')}"


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class Document:
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
    payload = {
        "schema": SCHEMA,
        "title": doc.title,
        "meta": {key: value for key, value in doc.meta},
        "tables": {
            table.name: [dict(zip(table.columns, row)) for row in table.rows]
            for table in doc.tables
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _render_csv(doc: Document) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    out.write(f"#title:{doc.title}\n")
    if doc.meta:
        out.write("#table:meta\n")
        writer.writerow(["key", "value"])
        for key, value in doc.meta:
            writer.writerow([key, value])
        out.write("\n")
    for table in doc.tables:
        out.write(f"#table:{table.name}\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow(list(row))
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
        cells = [tuple(str(cell) for cell in row) for row in table.rows]
        widths = [
            max([len(col)] + [len(row[i]) for row in cells])
            for i, col in enumerate(table.columns)
        ]
        lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(table.columns)))
        lines.append("  ".join("-" * width for width in widths))
        for row in cells:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"
