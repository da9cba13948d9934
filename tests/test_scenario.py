from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import format_decimal, reference_parse_scenario, reference_serialize_scenario
from ponfabric import (
    PROFILES,
    Architecture,
    ExplicitPairs,
    IndexMatched,
    LinkCapacities,
    NicCountMode,
    NoDirectLinks,
    OutputFormat,
    OwcPonSpec,
    PowerOptions,
    RoutingPolicy,
    Scenario,
    TraditionalSpec,
    TrafficSection,
    UniformPattern,
    default_scenario,
    parse_scenario,
    serialize_scenario,
)
from ponfabric.errors import InvalidValue, ParseError, ScenarioError, UnknownKey
from ponfabric.scenario import CATALOG_KEYS, KEY_TABLE
from ponfabric.traffic import HotspotRackPattern, IntraRackHeavyPattern


class TestParse:
    def test_minimal_reproduction_profile(self):
        scenario = parse_scenario("[options]\nprofile = reproduction\n")
        assert scenario == default_scenario()
        assert scenario.traditional == TraditionalSpec(8, 8, 8)
        assert scenario.owcpon == OwcPonSpec(8, 8, 2, 4)

    def test_as_written_profile(self):
        scenario = parse_scenario("[options]\nprofile = as-written\n")
        assert scenario.options.include_server_transceivers
        assert not scenario.options.include_owc_transceivers

    def test_empty_file_needs_selector(self):
        with pytest.raises(ParseError, match="architecture selector"):
            parse_scenario("")

    def test_explicit_flags_override_profile(self):
        text = "[options]\nprofile = reproduction\ninclude_server_transceivers = true\n"
        scenario = parse_scenario(text)
        assert scenario.options.include_server_transceivers

    def test_single_architecture_selection(self):
        scenario = parse_scenario("[architecture]\nselect = owcpon\n")
        assert scenario.architectures == (Architecture.OWC_PON,)

    def test_catalog_override(self):
        text = "[options]\nprofile = reproduction\n\n[catalog]\nolt = 500\n"
        scenario = parse_scenario(text)
        assert scenario.catalog_overrides == (("olt", 500_000),)

    def test_owc_transceiver_shorthand(self):
        text = "[options]\nprofile = reproduction\n\n[catalog]\nowc_transceiver = 0.5\n"
        scenario = parse_scenario(text)
        assert scenario.catalog_overrides == (
            ("ap_transceiver", 500),
            ("rack_transceiver", 500),
        )

    def test_owc_transceiver_shorthand_conflict(self):
        text = (
            "[options]\nprofile = reproduction\n\n"
            "[catalog]\nrack_transceiver = 0.4\nowc_transceiver = 0.5\n"
        )
        with pytest.raises(InvalidValue, match="collides"):
            parse_scenario(text)

    def test_capacity_overrides(self):
        text = (
            "[architecture]\nselect = both\ncapacity.owc = 12.5\ncapacity.fiber = 100\n"
        )
        scenario = parse_scenario(text)
        assert scenario.capacities == LinkCapacities(
            Fraction(10), Fraction(25, 2), Fraction(100)
        )

    def test_explicit_pairs(self):
        text = (
            "[architecture]\nselect = owcpon\n"
            "owcpon.adjacency = explicit\n"
            "owcpon.pairs = 0.0-1.2, 0.1-1.3\n"
        )
        scenario = parse_scenario(text)
        assert scenario.owcpon.adjacency == ExplicitPairs(
            (((0, 0), (1, 2)), ((0, 1), (1, 3)))
        )

    def test_pairs_require_explicit_adjacency(self):
        text = "[architecture]\nselect = owcpon\nowcpon.pairs = 0.0-1.0\n"
        with pytest.raises(InvalidValue, match="adjacency"):
            parse_scenario(text)

    def test_traffic_pattern(self):
        text = "[options]\nprofile = reproduction\n\n[traffic]\npattern = uniform 0.5\n"
        scenario = parse_scenario(text)
        assert scenario.traffic == TrafficSection(pattern=UniformPattern(Fraction(1, 2)))

    def test_traffic_flows_accumulate(self):
        text = (
            "[options]\nprofile = reproduction\n\n[traffic]\n"
            "flow = rack0/server0 rack1/server1 1.5\n"
            "flow = rack0/server0 rack1/server1 0.5\n"
            "flow = rack2/server0 rack3/server0 2\n"
        )
        scenario = parse_scenario(text)
        assert scenario.traffic.flows == (
            ("rack0/server0", "rack1/server1", Fraction(2)),
            ("rack2/server0", "rack3/server0", Fraction(2)),
        )

    def test_pattern_and_flows_conflict(self):
        text = (
            "[options]\nprofile = reproduction\n\n[traffic]\n"
            "pattern = uniform 1\nflow = a b 1\n"
        )
        with pytest.raises(InvalidValue, match="not both"):
            parse_scenario(text)

    def test_routing_and_format_keys(self):
        text = (
            "[options]\nprofile = reproduction\n"
            "prefer_direct_inter_group = false\nformat = csv\n"
        )
        scenario = parse_scenario(text)
        assert scenario.policy == RoutingPolicy(prefer_direct_inter_group=False)
        assert scenario.out_format is OutputFormat.CSV

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n\n[options]\n# another\nprofile = reproduction\n"
        assert parse_scenario(text) == default_scenario()


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, error, line",
        [
            ("[nonsense]\n", UnknownKey, 1),
            ("[options]\nbogus_key = 1\n", UnknownKey, 2),
            ("profile = reproduction\n", ParseError, 1),
            ("[options\n", ParseError, 1),
            ("[options]\nprofile reproduction\n", ParseError, 2),
            ("[options]\nprofile =\n", ParseError, 2),
            ("[options]\nprofile = reproduction\nprofile = as-written\n", ParseError, 3),
            ("[options]\nprofile = nope\n", InvalidValue, 2),
            ("[architecture]\nselect = both\ntraditional.racks = -1\n", InvalidValue, 3),
            ("[architecture]\nselect = both\ncapacity.owc = 0\n", InvalidValue, 3),
            ("[architecture]\nselect = both\ncapacity.owc = 1.2345\n", InvalidValue, 3),
            ("[options]\nprofile = reproduction\n\n[catalog]\nolt = -5\n", InvalidValue, 5),
            (
                "[architecture]\nselect = owcpon\nowcpon.adjacency = explicit\n"
                "owcpon.pairs = 0:0-1:1\n",
                InvalidValue,
                4,
            ),
            (
                "[options]\nprofile = reproduction\n\n[traffic]\npattern = bursty 1\n",
                InvalidValue,
                5,
            ),
            ("[options]\nprofile = reproduction\n\n[traffic]\nflow = a b\n", InvalidValue, 5),
            # digits are ASCII only: Arabic-Indic eight, twelve point five
            ("[architecture]\nselect = owcpon\nowcpon.racks = \u0668\n", InvalidValue, 3),
            ("[architecture]\nselect = both\ncapacity.owc = \u0661\u0662.\u0665\n", InvalidValue, 3),
            (
                "[architecture]\nselect = owcpon\nowcpon.adjacency = explicit\n"
                "owcpon.pairs = 0.0-1.\u0660\n",
                InvalidValue,
                4,
            ),
            ("[options]\nprofile = reproduction\n\n[catalog]\nolt = \u0664\n", InvalidValue, 5),
        ],
    )
    def test_error_with_line(self, text, error, line):
        with pytest.raises(error) as info:
            parse_scenario(text)
        assert info.value.line == line

    def test_key_outside_section_message(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_scenario("x = 1\n")


class TestSerialize:
    def test_default_scenario_golden(self):
        expected = (
            "[architecture]\n"
            "select = both\n"
            "traditional.spines = 8\n"
            "traditional.racks = 8\n"
            "traditional.servers_per_rack = 8\n"
            "owcpon.racks = 8\n"
            "owcpon.servers_per_rack = 8\n"
            "owcpon.groups = 2\n"
            "owcpon.aps_per_group = 4\n"
            "owcpon.adjacency = index_matched\n"
            "owcpon.gateway_ap = 0\n"
            "owcpon.transceiver_multiplier = 1\n"
            "capacity.wired = 10\n"
            "capacity.owc = 10\n"
            "capacity.fiber = 40\n"
            "\n"
            "[options]\n"
            "include_owc_transceivers = false\n"
            "include_server_transceivers = false\n"
            "nic_count_mode = per_ap\n"
            "prefer_direct_inter_group = true\n"
            "relay_fallback = true\n"
            "format = table\n"
        )
        assert serialize_scenario(default_scenario()) == expected

    def test_round_trip_of_default(self):
        assert parse_scenario(serialize_scenario(default_scenario())) == default_scenario()


node_ids = st.from_regex(r"[a-z][a-z0-9/]{0,8}", fullmatch=True)
milli = st.integers(0, 2_000_000).map(lambda k: Fraction(k, 1000))
positive_milli = st.integers(1, 2_000_000).map(lambda k: Fraction(k, 1000))

adjacency_strategy = st.one_of(
    st.just(IndexMatched()),
    st.just(NoDirectLinks()),
    st.lists(
        st.tuples(
            st.tuples(st.just(0), st.integers(0, 4)),
            st.tuples(st.just(1), st.integers(0, 4)),
        ),
        min_size=1,
        max_size=3,
    ).map(lambda pairs: ExplicitPairs(tuple(pairs))),
)

pattern_strategy = st.one_of(
    st.builds(UniformPattern, milli),
    st.builds(HotspotRackPattern, st.integers(0, 9), milli),
    st.builds(
        IntraRackHeavyPattern,
        st.integers(0, 1000).map(lambda k: Fraction(k, 1000)),
        milli,
    ),
)

flow_strategy = st.dictionaries(
    st.tuples(node_ids, node_ids), positive_milli, min_size=1, max_size=4
).map(
    lambda flows: TrafficSection(
        flows=tuple((src, dst, rate) for (src, dst), rate in sorted(flows.items()))
    )
)

traffic_strategy = st.one_of(
    st.none(),
    pattern_strategy.map(lambda p: TrafficSection(pattern=p)),
    flow_strategy,
)

scenario_strategy = st.builds(
    Scenario,
    architectures=st.sampled_from(
        [
            (Architecture.TRADITIONAL,),
            (Architecture.OWC_PON,),
            (Architecture.TRADITIONAL, Architecture.OWC_PON),
        ]
    ),
    traditional=st.builds(
        TraditionalSpec,
        num_spine=st.integers(0, 30),
        num_racks=st.integers(0, 30),
        servers_per_rack=st.integers(0, 30),
    ),
    owcpon=st.builds(
        OwcPonSpec,
        num_racks=st.integers(0, 30),
        servers_per_rack=st.integers(0, 30),
        num_groups=st.integers(0, 6),
        aps_per_group=st.integers(0, 6),
        adjacency=adjacency_strategy,
        gateway_ap_index=st.integers(0, 5),
        transceiver_multiplier=st.integers(1, 4),
    ),
    capacities=st.builds(LinkCapacities, positive_milli, positive_milli, positive_milli),
    options=st.builds(
        PowerOptions,
        include_owc_transceivers=st.booleans(),
        include_server_transceivers=st.booleans(),
        nic_count_mode=st.sampled_from(list(NicCountMode)),
    ),
    policy=st.builds(RoutingPolicy, st.booleans(), st.booleans()),
    catalog_overrides=st.dictionaries(
        st.sampled_from(
            ["olt", "nic", "leaf_switch", "spine_switch", "optical_switch"]
        ),
        st.integers(0, 2_000_000),
        max_size=3,
    ).map(lambda d: tuple(sorted(d.items()))),
    traffic=traffic_strategy,
    out_format=st.sampled_from(list(OutputFormat)),
)


class TestRoundTrip:
    @settings(max_examples=150, derandomize=True)
    @given(scenario=scenario_strategy)
    def test_parse_serialize_identity(self, scenario):
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    @settings(max_examples=50, derandomize=True)
    @given(scenario=scenario_strategy)
    def test_serialization_is_canonical(self, scenario):
        text = serialize_scenario(scenario)
        assert serialize_scenario(parse_scenario(text)) == text


# --- decimal text against the reference --------------------------------------


def flow_rate_text(rate: Fraction) -> str:
    """The rate of a flow line as ``serialize_scenario`` writes it."""
    scenario = Scenario(traffic=TrafficSection(flows=(("a", "b", rate),)))
    return serialize_scenario(scenario).splitlines()[-1].removeprefix("flow = a b ")


@settings(max_examples=150, derandomize=True)
@given(rate=st.integers(-(10**40), 10**40).map(lambda k: Fraction(k, 1000)))
@example(rate=Fraction(0))
@example(rate=Fraction(-1, 1000))
@example(rate=Fraction(-10**60 - 5, 1000))
def test_decimal_text_matches_the_reference(rate):
    assert flow_rate_text(rate) == format_decimal(rate)


@settings(max_examples=100, derandomize=True)
@given(rate=st.fractions().filter(lambda rate: (rate * 1000).denominator != 1))
@example(rate=Fraction(1, 2000))
@example(rate=Fraction(-1, 3))
def test_decimal_text_refuses_finer_fractions(rate):
    with pytest.raises(ValueError, match="3 fractional digits"):
        format_decimal(rate)
    with pytest.raises(ValueError, match="3 fractional digits"):
        flow_rate_text(rate)


# --- the key table against the hand-written reference -----------------------


def outcome(parse, text):
    """A parse result, or the raised exception's type, message and line."""
    try:
        return parse(text)
    except ScenarioError as exc:
        return type(exc), str(exc), exc.line


FAULTY_VALUES = [
    "-1", "0", "1", "31", "x", "1.5", "1.2345", "true", "false", "yes", "both",
    "owcpon", "none", "explicit", "index_matched", "per_server", "csv",
    "0.0-1.2", "0:0-1:1", "0.0-1.2, 9.9-9.9", "uniform 1", "uniform",
    "hotspot_rack 42 1", "intra_rack_heavy 2 1", "intra_rack_heavy 0.5 1 1",
    "bursty 1", "a b", "a b 1", "reproduction", "as-written", "nope", "١٢",
]
FAULTY_KEYS = [
    "select", "profile", "bogus", "owcpon.pairs", "owcpon.adjacency", "capacity.owc",
    "relay_fallback", "format", "olt", "owc_transceiver", "rack_transceiver",
    "server", "pattern", "flow", "",
]
EXTRA_LINES = FAULTY_KEYS + [
    "[bogus]", "[options", "[traffic]", "[catalog]", "# comment", "", "x =", "= 1",
    "profile = as-written", "profile = nope", "owcpon.pairs = 0.0-1.1",
    "owcpon.adjacency = explicit", "flow = a b 1", "pattern = uniform 1",
    "owc_transceiver = 0.5", "select = owcpon", "include_owc_transceivers = true",
]


@st.composite
def one_fault_texts(draw):
    """Valid scenario text in a drawn layout, with at most one line changed.

    The base is a serialized scenario with optional keys dropped, lines
    shuffled within their sections and perhaps a profile added, so it
    parses.  One edit then changes a value or a key, inserts, deletes or
    duplicates a line, or leaves the text alone.  Renaming the key of an
    explicit adjacency or of its pairs would fault both lines, so the key
    edit leaves those two alone.
    """
    lines = reference_serialize_scenario(draw(scenario_strategy)).splitlines()
    kept, section = [], []
    for line in lines + ["[end]"]:
        if line.startswith("["):
            kept += draw(st.permutations(section)) if section else []
            kept.append(line)
            section = []
        elif line:
            key = line.partition(" = ")[0]
            required = key in ("select", "owcpon.adjacency", "owcpon.pairs")
            if required or draw(st.booleans()):
                section.append(line)
    lines = kept[:-1]
    if draw(st.booleans()):
        options = lines.index("[options]")
        lines.insert(options + 1, f"profile = {draw(st.sampled_from(sorted(PROFILES)))}")
    edit = draw(st.sampled_from(["none", "value", "key", "insert", "delete", "duplicate"]))
    at = draw(st.integers(0, len(lines) - 1))
    key, _, value = lines[at].partition(" = ")
    linked = "owcpon.pairs" in key or "owcpon.adjacency = explicit" == lines[at]
    if value and (edit == "value" or edit == "key" and not linked):
        if edit == "value":
            value = draw(st.sampled_from(FAULTY_VALUES))
        else:
            key = draw(st.sampled_from(FAULTY_KEYS))
        lines[at] = f"{key} = {value}"
    elif edit == "insert":
        lines.insert(at, draw(st.sampled_from(EXTRA_LINES)))
    elif edit == "delete":
        del lines[at]
    elif edit == "duplicate":
        lines.insert(at, lines[at])
    return "\n".join(lines) + "\n"


FRAGMENTS = [
    "[architecture]\n", "[options]\n", "[catalog]\n", "[traffic]\n", "[bogus]\n",
    "select = both\n", "select = owcpon\n", "profile = reproduction\n",
    "owcpon.racks = 4\n", "owcpon.groups = 1\n", "owcpon.aps_per_group = 4\n",
    "owcpon.adjacency = explicit\n", "owcpon.pairs = 0.0-1.1\n",
    "owcpon.transceiver_multiplier = 2\n", "capacity.owc = 2.5\n",
    "include_owc_transceivers = true\n", "format = json\n", "olt = 500\n",
    "owc_transceiver = 0.4\n", "pattern = uniform 1\n", "flow = a b 1\n",
    "# comment\n", "\n", "=\n", " = 1\n",
]
BASE_TEXTS = [
    b"[options]\nprofile = reproduction\n\n[traffic]\npattern = hotspot_rack 3 1.5\n",
    b"[architecture]\nselect = owcpon\nowcpon.adjacency = explicit\n"
    b"owcpon.pairs = 0.0-1.2, 0.1-1.3\ncapacity.owc = 12.5\n\n"
    b"[options]\nprofile = as-written\nformat = csv\n\n"
    b"[catalog]\nowc_transceiver = 0.5\nolt = 500\n\n"
    b"[traffic]\nflow = rack0/server0 rack1/server1 2.5\n",
]


def splice(base: bytes, edits) -> bytes:
    for at, cut, insert in edits:
        at %= len(base) + 1
        base = base[:at] + insert + base[at + cut :]
    return base


fragment = st.sampled_from(FRAGMENTS).map(str.encode)
# Whitespace and line breaks that str.strip, str.split and str.splitlines
# treat specially, besides arbitrary bytes.
inserted = st.one_of(
    st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x1c", b"\xc2\xa0", b"\xc2\x85", b"#"]),
    st.binary(max_size=4),
)
# Scenario-file bytes: a soup of fragments (three times as likely as a
# random chunk), or a valid file with up to two spliced edits.
raw_bytes = st.one_of(
    st.lists(st.one_of(fragment, fragment, fragment, st.binary(max_size=8)), max_size=10).map(
        b"".join
    ),
    st.builds(
        splice,
        st.sampled_from(BASE_TEXTS),
        st.lists(st.tuples(st.integers(0, 300), st.integers(0, 3), inserted), max_size=2),
    ),
)
raw_texts = raw_bytes.map(lambda data: data.decode("utf-8", errors="replace"))


class TestTableAgainstReference:
    @settings(max_examples=80, derandomize=True)
    @given(scenario=scenario_strategy)
    def test_serialization_is_byte_equal(self, scenario):
        assert serialize_scenario(scenario) == reference_serialize_scenario(scenario)

    @settings(max_examples=100, derandomize=True)
    @given(text=one_fault_texts())
    def test_one_fault_parses_alike(self, text):
        assert outcome(parse_scenario, text) == outcome(reference_parse_scenario, text)

    @settings(max_examples=150, derandomize=True)
    @given(
        lines=st.lists(
            st.tuples(
                st.sampled_from(["rack0/server0", "rack1/server1"]),
                st.sampled_from(["rack0/server0", "rack2/server0"]),
                st.from_regex(r"[0-9]{1,4}(\.[0-9]{0,4})?", fullmatch=True)
                | st.sampled_from(["-1", ".5", "1e3", "0x1", "00.010", "1.5 2"]),
            ),
            max_size=6,
        )
    )
    def test_flow_lines_parse_alike(self, lines):
        """Flow rates summed per pair in thousandths, as the reference sums
        ``Fraction``s; malformed rates fail alike, on the same line."""
        flows = "".join(f"flow = {src} {dst} {rate}\n" for src, dst, rate in lines)
        text = "[options]\nprofile = reproduction\n[traffic]\n" + flows
        assert outcome(parse_scenario, text) == outcome(reference_parse_scenario, text)

    @settings(max_examples=200, derandomize=True)
    @given(text=raw_texts)
    def test_raw_text_raises_only_scenario_errors_and_round_trips(self, text):
        try:
            scenario = parse_scenario(text)
        except ScenarioError:
            with pytest.raises(ScenarioError):
                reference_parse_scenario(text)
            return
        assert reference_parse_scenario(text) == scenario
        assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_readme_documents_exactly_the_table_keys():
    # The README's ini block lists every key, some as commented-out
    # examples, with trailing comments; the fixed keys in table order.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    documented, section = [], None
    for line in block.splitlines():
        line = line.strip().removeprefix("# ").split(" #", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif " = " in line:
            documented.append((section, line.partition(" = ")[0]))
    extra = {("options", "profile"), ("traffic", "pattern"), ("traffic", "flow")}
    fixed = [entry for entry in documented if entry[0] != "catalog" and entry not in extra]
    assert fixed == [(section, key) for section, key, _, _ in KEY_TABLE]
    assert extra <= set(documented)
    catalog = {key for section, key in documented if section == "catalog"}
    assert catalog and catalog <= set(CATALOG_KEYS)
