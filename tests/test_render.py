"""JSON rendering against the ``json.dumps`` call it replaced.

``render`` writes JSON from per-table row templates; the differential tests
hold it to ``oracles.reference_render_json`` on generated documents: empty
parts, repeated keys, awkward text and every cell type the encoder takes.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ponfabric import Document, OutputFormat, Table, render
from ponfabric.scenario import MAX_DIGITS

# Characters that need escaping, that a %-template or a format string would
# misread, and text outside ASCII, mixed into arbitrary text.
awkward = st.sampled_from('"\\%{}\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600/')
text = st.text(st.one_of(awkward, st.characters()), max_size=6)
# A few short names, so repeated columns, table names and meta keys are common.
names = st.one_of(st.sampled_from(["", "a", "b", "%s", "%", "{}", "{0}", '"']), text)
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


@st.composite
def tables(draw):
    columns = tuple(draw(st.lists(names, max_size=4)))
    row = st.tuples(*[values] * len(columns))
    return Table(draw(names), columns, tuple(draw(st.lists(row, max_size=3))))


documents = st.builds(
    Document,
    text,
    st.lists(st.tuples(names, values), max_size=4).map(tuple),
    st.lists(tables(), max_size=4).map(tuple),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(doc=documents)
@example(doc=Document(""))
@example(doc=Document("t", tables=(Table("empty", ("a", "b"), ()), Table("bare", (), ((), ())))))
@example(
    doc=Document(
        "dup",
        (("k", 1), ("j", None), ("k", "last")),
        (
            Table("t", ("a", "b", "a"), ((1, True, "x"), (-2, False, "y"))),
            Table("u", ("%s", "%%", "{}"), (("%d", "{0}", '"\\'),)),
            Table("t", ("c",), ((3,),)),
        ),
    )
)
# Both sides of the plain-column check: columns of long printable ASCII
# text, quoted in the row template, and columns where one cell needs the
# encoder, or is not a str, among plain ones.
@example(
    doc=Document(
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
    )
)
@example(
    doc=Document(
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
    )
)
def test_json_matches_reference(doc):
    assert render(doc, OutputFormat.JSON) == oracles.reference_render_json(doc)


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
