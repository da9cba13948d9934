"""The value contract of the package's public records: the ``repr`` of each
one, recorded while they were frozen dataclasses, stays as it was; equal
values hash equal, fields cannot be assigned, and ``_replace`` runs the
constructor's checks."""

import copy
import pickle
from fractions import Fraction

import pytest

from ponfabric import (
    DeviceKind,
    Document,
    ExplicitPairs,
    HotspotRackPattern,
    IndexMatched,
    IntraRackHeavyPattern,
    LinkCapacities,
    LinkKind,
    LinkLoad,
    LinkLoadReport,
    NoDirectLinks,
    OwcPonSpec,
    PathClass,
    PowerCatalog,
    PowerOptions,
    PowerReport,
    PowerRow,
    Route,
    RoutingPolicy,
    Scenario,
    SweepPoint,
    SweepResult,
    Table,
    TraditionalSpec,
    TrafficMatrix,
    TrafficSection,
    UniformPattern,
    Violation,
    parse_scenario,
)

ROW = PowerRow(DeviceKind.NIC, 8, 45_000, 360_000, True)
TABLE = Table("t", ("a", "b"), ((1, "x"),))
PAIRS = ExplicitPairs((((0, 0), (1, 1)),))
LOAD = LinkLoad("a--b", LinkKind.FIBER, Fraction(40), Fraction(10))

#: name -> (a maker of one value, the text ``repr`` gave for it)
RECORDS = {
    "PowerCatalog": (
        lambda: PowerCatalog({DeviceKind.OLT: 480_000}),
        "PowerCatalog(entries={<DeviceKind.OLT: 'olt'>: 480000})",
    ),
    "PowerOptions": (
        lambda: PowerOptions(),
        "PowerOptions(include_owc_transceivers=False, include_server_transceivers=False, "
        "nic_count_mode=<NicCountMode.PER_AP: 'per_ap'>)",
    ),
    "PowerRow": (
        lambda: ROW,
        "PowerRow(kind=<DeviceKind.NIC: 'nic'>, quantity=8, unit_mw=45000, subtotal_mw=360000, "
        "included=True)",
    ),
    "PowerReport": (
        lambda: PowerReport((ROW,), 360_000),
        "PowerReport(rows=(PowerRow(kind=<DeviceKind.NIC: 'nic'>, quantity=8, unit_mw=45000, "
        "subtotal_mw=360000, included=True),), total_mw=360000)",
    ),
    "SweepPoint": (
        lambda: SweepPoint(8, 8, 2, 8),
        "SweepPoint(racks=8, servers_per_rack=8, num_groups=2, num_spine=8)",
    ),
    "SweepResult": (
        lambda: SweepResult(SweepPoint(4, 8, 0, 4), None, None, None, "no groups"),
        "SweepResult(point=SweepPoint(racks=4, servers_per_rack=8, num_groups=0, num_spine=4), "
        "traditional=None, proposed=None, reduction=None, error='no groups')",
    ),
    "Table": (lambda: TABLE, "Table(name='t', columns=('a', 'b'), rows=((1, 'x'),))"),
    "Document": (
        lambda: Document("title", (("k", 1),), (TABLE,)),
        "Document(title='title', meta=(('k', 1),), "
        "tables=(Table(name='t', columns=('a', 'b'), rows=((1, 'x'),)),))",
    ),
    "RoutingPolicy": (
        lambda: RoutingPolicy(allow_relay_fallback=False),
        "RoutingPolicy(prefer_direct_inter_group=True, allow_relay_fallback=False)",
    ),
    "Route": (
        lambda: Route(("a", "b"), ("a--b",), PathClass.INTRA_RACK),
        "Route(nodes=('a', 'b'), links=('a--b',), path_class=<PathClass.INTRA_RACK: 'intra_rack'>)",
    ),
    "TrafficSection": (
        lambda: TrafficSection(flows=(("a", "b", Fraction(1, 2)),)),
        "TrafficSection(pattern=None, flows=(('a', 'b', Fraction(1, 2)),))",
    ),
    "Scenario": (
        lambda: Scenario(),
        "Scenario(architectures=(<Architecture.TRADITIONAL: 'traditional'>, "
        "<Architecture.OWC_PON: 'owcpon'>), "
        "traditional=TraditionalSpec(num_spine=8, num_racks=8, servers_per_rack=8), "
        "owcpon=OwcPonSpec(num_racks=8, servers_per_rack=8, num_groups=2, aps_per_group=4, "
        "adjacency=IndexMatched(), gateway_ap_index=0, transceiver_multiplier=1), "
        "capacities=LinkCapacities(wired=Fraction(10, 1), owc=Fraction(10, 1), "
        "fiber=Fraction(40, 1)), "
        "options=PowerOptions(include_owc_transceivers=False, include_server_transceivers=False, "
        "nic_count_mode=<NicCountMode.PER_AP: 'per_ap'>), "
        "policy=RoutingPolicy(prefer_direct_inter_group=True, allow_relay_fallback=True), "
        "catalog_overrides=(), traffic=None, out_format=<OutputFormat.TABLE: 'table'>)",
    ),
    "Violation": (
        lambda: Violation("disconnected", "rack1/leaf", "9 nodes unreachable"),
        "Violation(code='disconnected', subject='rack1/leaf', message='9 nodes unreachable')",
    ),
    "LinkCapacities": (
        lambda: LinkCapacities(wired=5),
        "LinkCapacities(wired=Fraction(5, 1), owc=Fraction(10, 1), fiber=Fraction(40, 1))",
    ),
    "TraditionalSpec": (
        lambda: TraditionalSpec(num_spine=2),
        "TraditionalSpec(num_spine=2, num_racks=8, servers_per_rack=8)",
    ),
    "IndexMatched": (lambda: IndexMatched(), "IndexMatched()"),
    "NoDirectLinks": (lambda: NoDirectLinks(), "NoDirectLinks()"),
    "ExplicitPairs": (lambda: PAIRS, "ExplicitPairs(pairs=(((0, 0), (1, 1)),))"),
    "OwcPonSpec": (
        lambda: OwcPonSpec(adjacency=PAIRS),
        "OwcPonSpec(num_racks=8, servers_per_rack=8, num_groups=2, aps_per_group=4, "
        "adjacency=ExplicitPairs(pairs=(((0, 0), (1, 1)),)), gateway_ap_index=0, "
        "transceiver_multiplier=1)",
    ),
    "TrafficMatrix": (
        lambda: TrafficMatrix({("rack0/server0", "rack1/server0"): 2}),
        "TrafficMatrix(demands={('rack0/server0', 'rack1/server0'): Fraction(2, 1)})",
    ),
    "UniformPattern": (
        lambda: UniformPattern(Fraction(1, 2)),
        "UniformPattern(gbps=Fraction(1, 2))",
    ),
    "HotspotRackPattern": (
        lambda: HotspotRackPattern(3, Fraction(1)),
        "HotspotRackPattern(rack=3, gbps=Fraction(1, 1))",
    ),
    "IntraRackHeavyPattern": (
        lambda: IntraRackHeavyPattern(Fraction(1, 4), Fraction(2)),
        "IntraRackHeavyPattern(intra_fraction=Fraction(1, 4), gbps=Fraction(2, 1))",
    ),
    "LinkLoad": (
        lambda: LOAD,
        "LinkLoad(link_id='a--b', kind=<LinkKind.FIBER: 'fiber'>, capacity=Fraction(40, 1), "
        "load=Fraction(10, 1), utilization=Fraction(1, 4))",
    ),
    "LinkLoadReport": (
        lambda: LinkLoadReport((LOAD,), Fraction(1, 4), ()),
        "LinkLoadReport(rows=(LinkLoad(link_id='a--b', kind=<LinkKind.FIBER: 'fiber'>, "
        "capacity=Fraction(40, 1), load=Fraction(10, 1), utilization=Fraction(1, 4)),), "
        "max_utilization=Fraction(1, 4), saturated=())",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_is_unchanged(name):
    make, text = RECORDS[name]
    assert type(make()).__name__ == name
    assert repr(make()) == text


# --- the contract that holds now that they are named tuples and slotted classes ---

UNHASHABLE = {"PowerCatalog", "TrafficMatrix"}  # they hold a dict, as they did before


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_hash_equal_and_copy_equal(name):
    make, _ = RECORDS[name]
    assert make() == make() and copy.deepcopy(make()) == make()
    assert pickle.loads(pickle.dumps(make())) == make()
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make())
    else:
        assert hash(make()) == hash(copy.deepcopy(make()))


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    value = RECORDS[name][0]()
    for field in getattr(value, "_fields", ("anything",)):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None


#: (a value, the change ``_replace`` makes, the error, its message)
BROKEN_REPLACEMENTS = [
    (LinkCapacities(), {"owc": 0}, ValueError, "owc capacity must be positive"),
    (LinkCapacities(), {"fiber": 0.5}, TypeError, "fiber must be an int or a Fraction, not float"),
    (TraditionalSpec(), {"num_racks": -1}, ValueError, "num_racks must be >= 0"),
    (OwcPonSpec(), {"transceiver_multiplier": 0}, ValueError, "transceiver_multiplier must be >= 1"),
    (OwcPonSpec(), {"num_groups": 2.0}, TypeError, "num_groups must be an int, not float"),
    (PAIRS, {"pairs": (((0, 0), (1, True)),)}, TypeError,
     "each index in pairs must be an int, not bool"),
    (PowerCatalog({}), {"entries": {DeviceKind.OLT: -1}}, ValueError,
     "olt: power must be a non-negative int (mW)"),
    (PowerReport((ROW,), 360_000), {"total_mw": 1}, ValueError,
     "report total does not match its subtotals"),
    (TrafficMatrix({}), {"demands": {("a", "b"): -1}}, ValueError, "negative demand for a -> b"),
    (UniformPattern(1), {"gbps": None}, TypeError, "gbps must be an int or a Fraction, not NoneType"),
    (HotspotRackPattern(0, 1), {"rack": True}, TypeError, "rack must be an int, not bool"),
    (IntraRackHeavyPattern(0, 1), {"intra_fraction": Fraction(3, 2)}, ValueError,
     "intra_fraction must be within [0, 1]"),
]


@pytest.mark.parametrize("value, change, error, message", BROKEN_REPLACEMENTS)
def test_replace_keeps_the_constructor_checks(value, change, error, message):
    with pytest.raises(error) as caught:
        value._replace(**change)
    assert type(caught.value) is error and str(caught.value) == message
    with pytest.raises(error):
        type(value)(**{**value._asdict(), **change})


def test_replace_keeps_normalising_and_deriving():
    wired = LinkCapacities()._replace(wired=5).wired
    assert type(wired) is Fraction and wired == 5
    assert PowerCatalog({})._replace(entries={DeviceKind.OLT: 1}).get(DeviceKind.OLT) == 1
    assert LOAD._replace(load=Fraction(20)).utilization == Fraction(1, 2)
    with pytest.raises(TypeError):
        LOAD._replace(utilization=Fraction(1))
    with pytest.raises(TypeError):
        LinkLoad("a--b", LinkKind.FIBER, Fraction(40), Fraction(10), Fraction(1))
    assert Scenario()._replace(traffic=None) == Scenario()


def test_parameterless_adjacencies_compare_by_type():
    assert IndexMatched() == IndexMatched() and hash(IndexMatched()) == hash(IndexMatched())
    assert NoDirectLinks() == NoDirectLinks()
    assert IndexMatched() != NoDirectLinks() and NoDirectLinks() != IndexMatched()
    for marker in (IndexMatched(), NoDirectLinks()):
        assert marker and marker != () and () != marker
        assert len({marker, type(marker)()}) == 1
    assert len({IndexMatched(), NoDirectLinks()}) == 2


def test_patterns_compare_by_type():
    """Two pattern kinds with equal values, and the scenarios holding them,
    neither compare nor hash equal; nor does a pattern equal a plain tuple."""
    hotspot, heavy = HotspotRackPattern(1, Fraction(1)), IntraRackHeavyPattern(1, Fraction(1))
    assert hotspot != heavy and not hotspot == heavy and len({hotspot, heavy}) == 2
    assert hotspot == HotspotRackPattern(1, Fraction(1)) and hash(hotspot) == hash(copy.copy(hotspot))
    assert UniformPattern(Fraction(1)) != (Fraction(1),) and (Fraction(1),) != UniformPattern(Fraction(1))
    hot, warm = (Scenario(traffic=TrafficSection(pattern=p)) for p in (hotspot, heavy))
    assert hot != warm and len({hot, warm}) == 2
    text = "[architecture]\nselect = both\n[traffic]\npattern = {} 1 1\n"
    assert parse_scenario(text.format("hotspot_rack")) != parse_scenario(text.format("intra_rack_heavy"))


def test_records_are_tuples_equal_to_their_values():
    """The API change: a record equals a plain tuple of its values, and
    unpacks and indexes like one."""
    assert TraditionalSpec() == (8, 8, 8) and LinkCapacities(1, 2, 3) == (1, 2, 3)
    assert tuple(TraditionalSpec()) == (8, 8, 8)
    racks, _, groups, aps, *_ = OwcPonSpec()
    assert (racks, groups, aps) == (8, 2, 4)
