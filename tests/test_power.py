from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ponfabric import (
    OWC_PON_CATALOG,
    PROFILES,
    TRADITIONAL_CATALOG,
    DeviceKind,
    NicCountMode,
    OwcPonSpec,
    PowerCatalog,
    PowerOptions,
    TraditionalSpec,
    build_owc_pon,
    build_traditional,
    device_census,
    format_percent,
    owc_pon_power,
    power_reduction,
    scaling_sweep,
    traditional_power,
)
from ponfabric.errors import MissingCatalogEntry, MissingOlt, ZeroBaseline

from oracles import per_node_power, reference_census
from test_topology import admissible_owcpon, admissible_traditional

BENCH_TRADITIONAL = {
    DeviceKind.SPINE_SWITCH: 8,
    DeviceKind.LEAF_SWITCH: 8,
    DeviceKind.SERVER: 64,
    DeviceKind.SERVER_TRANSCEIVER: 64,
}
BENCH_OWCPON = {
    DeviceKind.LEAF_SWITCH: 8,
    DeviceKind.SERVER: 64,
    DeviceKind.SERVER_TRANSCEIVER: 64,
    DeviceKind.RACK_TRANSCEIVER: 8,
    DeviceKind.AP_TRANSCEIVER: 8,
    DeviceKind.NIC: 8,
    DeviceKind.OPTICAL_SWITCH: 2,
    DeviceKind.OLT: 1,
}


class TestTraditionalPower:
    def test_with_server_transceivers(self):
        report = traditional_power(
            BENCH_TRADITIONAL,
            TRADITIONAL_CATALOG,
            PowerOptions(include_server_transceivers=True),
        )
        # 8*660 + 8*508 + 64*3 watts, computed by hand
        assert report.total_mw == 9_536_000

    def test_without_server_transceivers(self):
        report = traditional_power(BENCH_TRADITIONAL, TRADITIONAL_CATALOG, PowerOptions())
        assert report.total_mw == 9_344_000  # 8*660 + 8*508 watts
        assert report.row(DeviceKind.SERVER_TRANSCEIVER).subtotal_mw == 0
        assert not report.row(DeviceKind.SERVER_TRANSCEIVER).included

    def test_all_zero(self):
        assert traditional_power({}, TRADITIONAL_CATALOG, PowerOptions()).total_mw == 0

    def test_missing_catalog_entry(self):
        catalog = PowerCatalog({DeviceKind.LEAF_SWITCH: 508_000})
        with pytest.raises(MissingCatalogEntry):
            traditional_power(BENCH_TRADITIONAL, catalog, PowerOptions())

    def test_zero_count_needs_no_entry(self):
        catalog = PowerCatalog({DeviceKind.LEAF_SWITCH: 508_000})
        report = traditional_power(
            {DeviceKind.LEAF_SWITCH: 2}, catalog, PowerOptions()
        )
        assert report.total_mw == 1_016_000


class TestOwcPonPower:
    def test_reproduction_profile(self):
        report = owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, PROFILES["reproduction"])
        # 480 + 2*75 + 8*45 + 8*508 watts, computed by hand
        assert report.total_mw == 5_054_000

    def test_as_written_profile(self):
        report = owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, PROFILES["as-written"])
        assert report.total_mw == 5_246_000  # 5054 + 64*3 watts

    def test_per_server_nic_mode(self):
        options = PowerOptions(
            include_server_transceivers=True, nic_count_mode=NicCountMode.PER_SERVER
        )
        report = owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, options)
        # 480 + 150 + 64*45 + 4064 + 192 watts: the per-server NIC reading
        assert report.total_mw == 7_766_000
        assert report.row(DeviceKind.NIC).quantity == 64

    def test_owc_transceivers_included(self):
        options = PowerOptions(include_owc_transceivers=True)
        report = owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, options)
        assert report.total_mw == 5_054_000 + 16 * 400  # 16 transceivers at 0.4 W

    def test_missing_olt(self):
        census = dict(BENCH_OWCPON)
        census[DeviceKind.OLT] = 0
        with pytest.raises(MissingOlt):
            owc_pon_power(census, OWC_PON_CATALOG, PowerOptions())

    def test_olt_charged_once(self):
        report = owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, PowerOptions())
        assert report.row(DeviceKind.OLT).quantity == 1
        assert report.row(DeviceKind.OLT).subtotal_mw == 480_000


class TestPerNodePower:
    def test_matches_traditional_closed_form(self, default_traditional):
        for options in (PowerOptions(), PROFILES["as-written"]):
            node_sum = per_node_power(default_traditional, TRADITIONAL_CATALOG, options)
            closed = traditional_power(
                device_census(default_traditional.spec), TRADITIONAL_CATALOG, options
            )
            assert node_sum.total_mw == closed.total_mw

    def test_matches_owcpon_closed_form(self, default_owcpon):
        for options in (
            PowerOptions(),
            PROFILES["as-written"],
            PowerOptions(include_owc_transceivers=True, include_server_transceivers=True),
        ):
            node_sum = per_node_power(default_owcpon, OWC_PON_CATALOG, options)
            closed = owc_pon_power(device_census(default_owcpon.spec), OWC_PON_CATALOG, options)
            assert node_sum.total_mw == closed.total_mw

    def test_empty_graph(self):
        graph = build_traditional(TraditionalSpec(0, 0, 0))
        assert per_node_power(graph, TRADITIONAL_CATALOG, PowerOptions()).total_mw == 0

    def test_missing_entry_for_present_kind(self, default_owcpon):
        catalog = PowerCatalog({DeviceKind.LEAF_SWITCH: 508_000})
        with pytest.raises(MissingCatalogEntry):
            per_node_power(default_owcpon, catalog, PowerOptions())

    def test_excluded_kind_needs_no_entry(self, default_traditional):
        entries = dict(TRADITIONAL_CATALOG.entries)
        del entries[DeviceKind.SERVER_TRANSCEIVER]
        report = per_node_power(default_traditional, PowerCatalog(entries), PowerOptions())
        assert report.total_mw == 9_344_000


class TestReduction:
    def test_benchmark_reduction(self):
        reduction = power_reduction(
            traditional_power(BENCH_TRADITIONAL, TRADITIONAL_CATALOG, PowerOptions()),
            owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, PowerOptions()),
        )
        assert reduction == Fraction(9_344_000 - 5_054_000, 9_344_000)
        assert format_percent(reduction) == "45.9%"

    def test_as_written_reduction(self):
        options = PROFILES["as-written"]
        reduction = power_reduction(
            traditional_power(BENCH_TRADITIONAL, TRADITIONAL_CATALOG, options),
            owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, options),
        )
        assert format_percent(reduction) == "45.0%"

    def test_identical_reports_reduce_zero(self):
        report = traditional_power(BENCH_TRADITIONAL, TRADITIONAL_CATALOG, PowerOptions())
        reduction = power_reduction(report, report)
        assert reduction == 0
        assert format_percent(reduction) == "0.0%"

    def test_zero_baseline(self):
        zero = traditional_power({}, TRADITIONAL_CATALOG, PowerOptions())
        other = traditional_power(BENCH_TRADITIONAL, TRADITIONAL_CATALOG, PowerOptions())
        with pytest.raises(ZeroBaseline):
            power_reduction(zero, other)

    def test_scale_invariance(self):
        options = PowerOptions()
        base = power_reduction(
            traditional_power(BENCH_TRADITIONAL, TRADITIONAL_CATALOG, options),
            owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, options),
        )
        scale = 7
        scaled_trad = PowerCatalog(
            {k: v * scale for k, v in TRADITIONAL_CATALOG.entries.items()}
        )
        scaled_owc = PowerCatalog(
            {k: v * scale for k, v in OWC_PON_CATALOG.entries.items()}
        )
        scaled = power_reduction(
            traditional_power(BENCH_TRADITIONAL, scaled_trad, options),
            owc_pon_power(BENCH_OWCPON, scaled_owc, options),
        )
        assert base == scaled

    def test_percent_rendering(self):
        assert format_percent(Fraction(4290, 9344)) == "45.9%"
        assert format_percent(Fraction(4290, 9536)) == "45.0%"
        assert format_percent(Fraction(1770, 9536)) == "18.6%"
        assert format_percent(Fraction(-1, 8)) == "-12.5%"


random_catalog = st.builds(
    lambda values: PowerCatalog(dict(zip(DeviceKind, values))),
    st.lists(
        st.integers(0, 1_000_000), min_size=len(DeviceKind), max_size=len(DeviceKind)
    ),
)

random_options = st.builds(
    PowerOptions,
    include_owc_transceivers=st.booleans(),
    include_server_transceivers=st.booleans(),
    nic_count_mode=st.just(NicCountMode.PER_AP),
)


class TestOracleEquivalence:
    @settings(max_examples=80, derandomize=True)
    @given(spec=admissible_owcpon, catalog=random_catalog, options=random_options)
    def test_owcpon(self, spec, catalog, options):
        graph = build_owc_pon(spec)
        closed = owc_pon_power(device_census(spec), catalog, options)
        node_sum = per_node_power(graph, catalog, options)
        assert node_sum.total_mw == closed.total_mw

    @settings(max_examples=80, derandomize=True)
    @given(spec=admissible_traditional, catalog=random_catalog, options=random_options)
    def test_traditional(self, spec, catalog, options):
        graph = build_traditional(spec)
        closed = traditional_power(device_census(spec), catalog, options)
        node_sum = per_node_power(graph, catalog, options)
        assert node_sum.total_mw == closed.total_mw


class TestAlgebraicProperties:
    def test_monotonicity_in_counted_kinds(self):
        options = PROFILES["as-written"]
        base = owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, options).total_mw
        for kind in (
            DeviceKind.LEAF_SWITCH,
            DeviceKind.NIC,
            DeviceKind.OPTICAL_SWITCH,
            DeviceKind.SERVER_TRANSCEIVER,
        ):
            bumped = dict(BENCH_OWCPON)
            bumped[kind] = bumped[kind] + 1
            assert owc_pon_power(bumped, OWC_PON_CATALOG, options).total_mw > base

    def test_excluded_kind_does_not_move_total(self):
        base = owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, PowerOptions()).total_mw
        bumped = dict(BENCH_OWCPON)
        bumped[DeviceKind.SERVER_TRANSCEIVER] += 10
        assert owc_pon_power(bumped, OWC_PON_CATALOG, PowerOptions()).total_mw == base

    @settings(max_examples=40, derandomize=True)
    @given(spec=admissible_traditional, factor=st.integers(1, 9))
    def test_linearity(self, spec, factor):
        census = device_census(spec)
        options = PROFILES["as-written"]
        base = traditional_power(census, TRADITIONAL_CATALOG, options).total_mw
        scaled_catalog = PowerCatalog(
            {k: v * factor for k, v in TRADITIONAL_CATALOG.entries.items()}
        )
        assert traditional_power(census, scaled_catalog, options).total_mw == base * factor

    def test_exclusion_flag_delta_is_exact(self):
        excluded = owc_pon_power(BENCH_OWCPON, OWC_PON_CATALOG, PowerOptions()).total_mw
        included = owc_pon_power(
            BENCH_OWCPON, OWC_PON_CATALOG, PowerOptions(include_server_transceivers=True)
        ).total_mw
        assert included - excluded == 64 * 3_000

        with_owc = owc_pon_power(
            BENCH_OWCPON, OWC_PON_CATALOG, PowerOptions(include_owc_transceivers=True)
        ).total_mw
        assert with_owc - excluded == (8 + 8) * 400


class TestScalingSweep:
    def test_single_benchmark_point(self):
        (result,) = scaling_sweep([8])
        assert result.error is None
        assert result.traditional.total_mw == 9_344_000
        assert result.proposed.total_mw == 5_054_000
        assert format_percent(result.reduction) == "45.9%"

    def test_empty_family(self):
        assert scaling_sweep([]) == ()

    def test_points_match_standalone_evaluation(self):
        results = scaling_sweep([4, 8, 16], num_groups=2)
        assert len(results) == 3
        for result in results:
            racks = result.point.racks
            trad = traditional_power(
                reference_census(build_traditional(TraditionalSpec(racks, racks, 8))),
                TRADITIONAL_CATALOG,
                PowerOptions(),
            )
            owc = owc_pon_power(
                reference_census(build_owc_pon(OwcPonSpec(racks, 8, 2, racks // 2))),
                OWC_PON_CATALOG,
                PowerOptions(),
            )
            assert result.traditional.total_mw == trad.total_mw
            assert result.proposed.total_mw == owc.total_mw
            assert result.reduction == power_reduction(trad, owc)

    def test_bad_point_marked_failed_without_aborting(self):
        results = scaling_sweep([4, 7, 8], num_groups=2)
        assert [r.error is None for r in results] == [True, False, True]
        assert "num_groups" in results[1].error

    def test_negative_group_count_is_rejected_as_negative(self):
        errors = [result.error for result in scaling_sweep([8, 0], num_groups=-1)]
        assert errors == ["num_groups must be >= 0"] * 2
        (result,) = scaling_sweep([8], num_groups=0)
        assert result.error == "8 racks cannot be split into zero groups"

    def test_negative_rack_count_is_named_before_the_spines(self):
        # Spine counts default to the rack count, so a negative rack count
        # is also a negative spine count; the error names the flag given.
        (result,) = scaling_sweep([-1], num_groups=0)
        assert result.error == "num_racks must be >= 0"
        (result,) = scaling_sweep([8], servers_per_rack=-1, spine_counts=[-1])
        assert result.error == "servers_per_rack must be >= 0"

    def test_explicit_spine_counts(self):
        (result,) = scaling_sweep([8], spine_counts=[2])
        assert result.traditional.row(DeviceKind.SPINE_SWITCH).quantity == 2

    def test_deterministic(self):
        assert scaling_sweep([4, 8]) == scaling_sweep([4, 8])
