"""The JSON and CSV writers of ``render``, which loads this module only
when one of those formats is asked for; a table needs neither.  Each
writer also imports what it needs of the standard library on first use:
the JSON writer only ``json``'s C string encoder (``_json``), unless a
value other than a ``str`` or an ``int`` needs ``json.dumps``, and the
CSV writer ``csv``.  So a CSV document loads no ``json``.

The JSON writer works a column and a run of rows at a time, not a cell
at a time: each column is encoded once (printable text not at all, other
``str`` and ``int`` cells once per distinct value), a column that keeps
its cell over long runs of rows is written into each run's row template,
and the other columns' cells are interleaved with the template's pieces.
The document's pieces are joined once.
"""

from __future__ import annotations

import io
from itertools import accumulate, chain, groupby, islice, repeat
from typing import Iterable, Sequence

from .document import SCHEMA, Document, Table


def _render_json(doc: Document) -> str:
    """The document in ``json``'s ``indent=2`` layout, without its encoder.

    The object written is ``{"schema", "title", "meta": dict(doc.meta),
    "tables": {name: [dict(zip(columns, row)), ...]}}``, so a repeated meta
    key, table name or column keeps its first position and takes its last
    value.  CPython serves any ``indent`` with its pure-Python encoder; here
    each run of a table's rows fills one row template (``_json_rows``).
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
    """The members of the list of ``dict(zip(columns, row))``, as pieces of
    text, a run of rows at a time (``_json_run``).  A column whose cells
    have a mean run of at least ``_RUN`` equal rows is written into the row
    template of each of its runs, so runs of rows end where such a column
    changes its cell, and at the end of the table."""
    last = {column: i for i, column in enumerate(table.columns)}
    count = len(table.rows)
    if not (last and count):  # zip() of no columns would drop the rows: each is {}
        return repeat("\n      {},", count)
    transposed = list(zip(*table.rows))
    columns = [_texts(transposed[i]) for i in last.values()]
    limit, ends, fixed = count // _RUN + 1, {count}, []
    for texts, _ in columns:
        runs = len(list(islice(groupby(texts), limit)))  # counted in C, up to the limit
        if 1 < runs < limit:
            ends.update(accumulate(len(list(run)) for _, run in groupby(texts)))
        fixed.append(runs < limit)
    names = [f"\n        {_quote(column)}: " for column in last]
    starts = [0, *sorted(ends)]
    return chain.from_iterable(
        _json_run(columns, names, fixed, lo, hi) for lo, hi in zip(starts, starts[1:])
    )


# The mean run of equal cells from which a column is written once per run:
# each run of rows costs a template, each varying cell two pieces per row.
_RUN = 256


def _json_run(columns: list, names: list[str], fixed: list[bool], lo: int, hi: int) -> Iterable[str]:
    """The pieces of rows ``lo`` to ``hi``.  Each ``fixed`` column's cell
    is the same over them, and is written into their row template; the
    other columns' cells come between the template's pieces, so no row is
    formatted on its own, and the pieces are joined once, with the whole
    document."""
    parts, cells = ["\n      {"], []
    for (texts, quote), name, same in zip(columns, names, fixed):
        if same:
            parts[-1] += f"{name}{quote}{texts[lo]}{quote},"
        else:
            parts[-1] += name + quote
            parts.append(quote + ",")
            cells.append(texts[lo:hi])
    parts[-1] = parts[-1][:-1] + "\n      },"
    row = [repeat(parts[0], hi - lo)]
    for run, part in zip(cells, parts[1:]):
        row += run, repeat(part)
    return chain.from_iterable(zip(*row))


def _texts(column: tuple) -> tuple[Sequence[str], str]:
    """``column``'s cells as the texts ``json`` writes, between the quotes
    it returns: the cells themselves between ``"`` if each is a ``str`` of
    printable ASCII without ``"`` or ``\\``, else their encodings.  A
    column of ``str`` and ``int`` cells is encoded once per distinct cell:
    a ``str`` never equals an ``int``, where ``1``, ``True`` and ``1.0``
    are equal keys of one dict."""
    types = set(map(type, column))
    if types == {str}:
        text = "".join(column)
        if text.isascii() and not text.encode("ascii").translate(None, _PRINTABLE):
            return column, '"'
    if types <= {str, int}:
        encoded = {cell: _json_value(cell, "        ") for cell in set(column)}
        return list(map(encoded.__getitem__, column)), ""
    return [_json_value(cell, "        ") for cell in column], ""


# The characters that ``json`` writes as themselves: printable ASCII but ``"`` and ``\\``.
_PRINTABLE = bytes(range(32, 127)).translate(None, b'"\\')


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
