"""Typed constructors: every count a public constructor takes is an int that
is not a bool, and every rate an int that is not a bool or a ``Fraction``.
Anything else raises a one-line ``TypeError`` naming the field."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ponfabric import (
    DeviceKind,
    ExplicitPairs,
    HotspotRackPattern,
    IntraRackHeavyPattern,
    LinkCapacities,
    OwcPonSpec,
    PowerCatalog,
    TraditionalSpec,
    UniformPattern,
    device_census,
    owc_pon_power,
    traditional_power,
)


def pairs_with(value, position):
    """The pair list ``((0, 0), (1, 0))`` with index ``position`` of its four
    replaced by ``value``."""
    indices = [0, 0, 1, 0]
    indices[position] = value
    return ExplicitPairs((((indices[0], indices[1]), (indices[2], indices[3])),))


#: (a maker of a value with one field set to its argument, the name the
#: error gives that field), for counts and for rates
COUNTS = [
    *((lambda v, f=f: TraditionalSpec(**{f: v}), f) for f in TraditionalSpec._fields),
    *((lambda v, f=f: OwcPonSpec(**{f: v}), f) for f in OwcPonSpec._fields if f != "adjacency"),
    *((lambda v, i=i: pairs_with(v, i), "pairs") for i in range(4)),
    (lambda v: HotspotRackPattern(v, Fraction(1)), "rack"),
    (lambda v: PowerCatalog({DeviceKind.OLT: v}), "olt"),
]

RATES = [
    *((lambda v, f=f: LinkCapacities(**{f: v}), f) for f in LinkCapacities._fields),
    (lambda v: UniformPattern(v), "gbps"),
    (lambda v: HotspotRackPattern(0, v), "gbps"),
    (lambda v: IntraRackHeavyPattern(v, Fraction(1)), "intra_fraction"),
    (lambda v: IntraRackHeavyPattern(Fraction(1, 2), v), "gbps"),
]

NOT_A_RATE = st.booleans() | st.floats() | st.text(max_size=3) | st.none()
NOT_A_COUNT = NOT_A_RATE | st.fractions().filter(lambda f: f.denominator != 1)


def check_refused(make, name, value):
    with pytest.raises(TypeError) as caught:
        make(value)
    message = str(caught.value)
    assert type(caught.value) is TypeError
    assert name in message and "\n" not in message, message


@settings(max_examples=300, derandomize=True)
@given(case=st.sampled_from(COUNTS), value=NOT_A_COUNT)
def test_counts_refuse_other_types(case, value):
    check_refused(*case, value)


@settings(max_examples=200, derandomize=True)
@given(case=st.sampled_from(RATES), value=NOT_A_RATE)
def test_rates_refuse_other_types(case, value):
    check_refused(*case, value)


@pytest.mark.parametrize("make, name", COUNTS + RATES)
def test_every_field_takes_an_int(make, name):
    make(1)


@pytest.mark.parametrize("make, name", RATES)
def test_every_rate_takes_a_fraction(make, name):
    make(Fraction(1, 2))


@settings(max_examples=60, derandomize=True)
@given(
    racks=st.integers(1, 40),
    servers=st.integers(0, 40),
    spines=st.integers(0, 40),
    groups=st.sampled_from([1, 2, 4]),
)
def test_power_reports_are_ints(racks, servers, spines, groups):
    """Typed specs keep the power model in integer milliwatts."""
    owcpon = OwcPonSpec(racks * groups, servers, groups, racks)
    reports = (
        traditional_power(device_census(TraditionalSpec(spines, racks, servers))),
        owc_pon_power(device_census(owcpon)),
    )
    for report in reports:
        assert type(report.total_mw) is int
        for row in report.rows:
            assert all(type(v) is int for v in (row.quantity, row.unit_mw, row.subtotal_mw))
