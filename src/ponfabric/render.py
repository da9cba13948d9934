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
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

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
    """
    meta = dict(doc.meta)
    tables = {table.name: table for table in doc.tables}
    payload = {
        "schema": _json_value(SCHEMA, "  "),
        "title": _json_value(doc.title, "  "),
        "meta": _json_object({k: _json_value(v, "    ") for k, v in meta.items()}, "  "),
        "tables": _json_object({name: _json_rows(table) for name, table in tables.items()}, "  "),
    }
    return _json_object(payload, "") + "\n"


def _json_rows(table: Table) -> str:
    """The list of ``dict(zip(columns, row))``, encoded a column at a time."""
    last = {column: i for i, column in enumerate(table.columns)}
    template = _json_object({column.replace("%", "%%"): "%s" for column in last}, "      ")
    cells = [[_json_value(row[i], "        ") for row in table.rows] for i in last.values()]
    # zip() of no columns would drop the rows; each still writes an empty object.
    rows = zip(*cells) if cells else [()] * len(table.rows)
    return _json_list([template % row for row in rows], "    ")


def _json_value(value: object, indent: str) -> str:
    """``value`` as ``indent=2`` writes it at a line indented by ``indent``."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _json_object(texts: dict[str, str], indent: str) -> str:
    items = [f"{encode_basestring_ascii(key)}: {text}" for key, text in texts.items()]
    return _json_list(items, indent, "{}")


def _json_list(texts: list[str], indent: str, brackets: str = "[]") -> str:
    """Encoded items in ``brackets``, opened on a line indented by ``indent``."""
    if not texts:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(texts) + "\n" + indent + brackets[1]


def _render_csv(doc: Document) -> str:
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
