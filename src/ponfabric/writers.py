"""The JSON and CSV writers of ``render``, which loads this module only
when one of those formats is asked for; a table needs neither.  Each
writer also imports what it needs of the standard library on first use:
the JSON writer only ``json``'s C string encoder (``_json``), unless a
value other than a ``str`` or an ``int`` needs ``json.dumps``, and the
CSV writer ``csv``.  So a CSV document loads no ``json``.
"""

from __future__ import annotations

import io
from typing import Iterable

from .document import SCHEMA, Document, Table


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
    try:  # the C function that ``json.encoder`` re-exports, without loading ``json``
        from _json import encode_basestring_ascii as _quote
    except ImportError:
        from json.encoder import encode_basestring_ascii as _quote

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
