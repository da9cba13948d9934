"""Rendering against the writers it replaced.

``render`` writes JSON from per-run row templates, and the fixed-width
table from rows copied only where a cell is not a ``str``; the
differential tests hold them to ``oracles.reference_render_json``, the
``json.dumps`` call, and to ``oracles.reference_render_table``, on
generated documents: empty parts, repeated keys, awkward text, every cell
type the encoder takes, and columns that keep one cell over runs of rows.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import ponfabric.writers as writers
from ponfabric import Document, OutputFormat, Table, render
from ponfabric.cli import main
from ponfabric.scenario import MAX_DIGITS

# Characters that need escaping, that a %-template or a format string would
# misread, and text outside ASCII, mixed into arbitrary text.
awkward = st.sampled_from('"\\%{}\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600/')
text = st.text(st.one_of(awkward, st.characters()), max_size=6)
# A few short names, so repeated columns, table names and meta keys are common.
names = st.one_of(st.sampled_from(["", "a", "b", "%s", "%", "%%", "{}", "{0}", '"']), text)
scalars = st.one_of(
    text,
    st.integers(-(10**MAX_DIGITS) + 1, 10**MAX_DIGITS - 1),
    st.booleans(),
    st.none(),
    st.floats(),
)
# Every printable ASCII character that JSON writes as itself.
PRINTABLE = "".join(c for c in map(chr, range(32, 127)) if c not in '"\\')
values = st.one_of(
    scalars, st.lists(scalars, max_size=3), st.dictionaries(names, scalars, max_size=2)
)
# Cells that compare and hash equal across types, and text that a
# %-template would misread, among all the others.
cells = st.one_of(
    st.sampled_from([1, True, 1.0, 0, False, 0.0, -0.0, "", "%", "%s", "%%"]), values
)


@st.composite
def columns(draw, count):
    """``count`` cells of one column: one cell throughout, runs of one cell
    each, or a cell per row."""
    shape = draw(st.sampled_from(["constant", "runs", "rows"]))
    if shape == "constant":
        return [draw(cells)] * count
    if shape == "rows":
        return draw(st.lists(cells, min_size=count, max_size=count))
    drawn = []
    while len(drawn) < count:
        drawn += [draw(cells)] * draw(st.integers(1, 12))
    return drawn[:count]


@st.composite
def tables(draw):
    heads = tuple(draw(st.lists(names, max_size=4)))
    count = draw(st.integers(0, 50))
    drawn = [draw(columns(count)) for _ in heads]
    rows = tuple(zip(*drawn)) if heads else ((),) * count
    return Table(draw(names), heads, rows)


documents = st.builds(
    Document,
    text,
    st.lists(st.tuples(names, values), max_size=4).map(tuple),
    st.lists(tables(), max_size=4).map(tuple),
)


def fabric_scale_slice() -> Document:
    """The JSON ``build`` document of ``perfbench/scenarios/fabric_scale.scenario``,
    read back, with each table cut to its first 2,600 rows: both nodes
    tables and the owcpon links, in four runs of one link kind, whole, and
    the traditional links' first rows, all of one kind."""
    scenario = Path(__file__).resolve().parent.parent / "perfbench" / "scenarios" / "fabric_scale.scenario"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["-s", str(scenario), "-f", "json", "build"]) == 0
    data = json.loads(out.getvalue())
    return Document(
        data["title"],
        tuple(data["meta"].items()),
        tuple(
            Table(name, tuple(rows[0]), tuple(tuple(row.values()) for row in rows[:2600]))
            for name, rows in data["tables"].items()
        ),
    )


EXAMPLES = [
    Document(""),
    Document("t", tables=(Table("empty", ("a", "b"), ()), Table("bare", (), ((), ())))),
    Document(
        "dup",
        (("k", 1), ("j", None), ("k", "last")),
        (
            Table("t", ("a", "b", "a"), ((1, True, "x"), (-2, False, "y"))),
            Table("u", ("%s", "%%", "{}"), (("%d", "{0}", '"\\'),)),
            Table("t", ("c",), ((3,),)),
        ),
    ),
    # Both sides of the plain-column check: columns of long printable ASCII
    # text, quoted in the row template, and columns where one cell needs the
    # encoder, or is not a str, among plain ones.
    Document(
        "plain",
        tables=(
            Table(
                "links",
                ("id", "kind", "capacity_gbps", "printable"),
                tuple(
                    (f"rack{r}/server{i}--rack{r}/leaf" * 8, "wired", "12.5", PRINTABLE)
                    for r in range(3)
                    for i in range(4)
                ),
            ),
        ),
    ),
    Document(
        "mixed",
        tables=(
            Table(
                "t",
                ("quote", "backslash", "delete", "accent", "percent", "int", "empty"),
                tuple(
                    ("a", "b", "c", "d", "e", "f", "")
                    if i != 2
                    else ('say "hi"', "C:\\x", "\x7f", "caf\u00e9", "100%", 7, "")
                    for i in range(5)
                ),
            ),
        ),
    ),
    # Every column constant, one row with no columns, and cells of one
    # column that compare equal across types.
    Document("constant", tables=(Table("", ("",), (("",), ("",))), Table("one", (), ((),)))),
    Document(
        "equal",
        tables=(
            Table(
                "t",
                ("a", "%s", "%%"),
                tuple((cell, "%s", "%") for cell in [1, True, 1.0, 1, 0, False, "", 0.0, -0.0, 0]),
            ),
        ),
    ),
    fabric_scale_slice(),
]


def with_examples(test):
    for doc in EXAMPLES:
        test = example(doc=doc)(test)
    return test


# The writer's own threshold, and runs of as few as one and four rows, so
# that small tables are cut into runs of rows too.
RUNS = pytest.mark.parametrize("run", [writers._RUN, 1, 4])


@RUNS
@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=documents)
@with_examples
def test_json_matches_reference(run, doc):
    with mock.patch.object(writers, "_RUN", run):
        assert render(doc, OutputFormat.JSON) == oracles.reference_render_json(doc)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=documents)
@with_examples
def test_table_matches_reference(doc):
    assert render(doc, OutputFormat.TABLE) == oracles.reference_render_table(doc)


@pytest.mark.parametrize(
    "doc",
    [
        Document("meta", (("k", Fraction(1, 3)),)),
        Document("cell", tables=(Table("t", ("a", "b"), ((1, Fraction(1, 3)),)),)),
    ],
    ids=["meta", "cell"],
)
def test_fraction_fails_as_in_reference(doc):
    with pytest.raises(TypeError, match="Fraction"):
        render(doc, OutputFormat.JSON)
    with pytest.raises(TypeError, match="Fraction"):
        oracles.reference_render_json(doc)


def test_overwritten_fraction_is_never_encoded():
    """A repeated key keeps only its last value, so an earlier ``Fraction``
    under that key is dropped before encoding, as the reference's dict drops it."""
    doc = Document(
        "dropped",
        (("k", Fraction(1, 3)), ("k", 1)),
        (
            Table("t", ("a", "a"), ((Fraction(1, 3), 2),)),
            Table("u", ("b",), ((Fraction(1, 3),),)),
            Table("u", ("b",), ((4,),)),
        ),
    )
    assert render(doc, OutputFormat.JSON) == oracles.reference_render_json(doc)
