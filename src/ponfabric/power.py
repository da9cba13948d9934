"""Exact power accounting for both fabric architectures.

All device powers are integer milliwatts, so every subtotal and total is
exact (0.4 W is exactly 400 mW).  Reduction percentages are kept as
rationals and only rendered to one decimal at the edge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from . import _read_through
from .errors import MissingCatalogEntry, MissingOlt, PonFabricError, SpecMismatch, ZeroBaseline
# The option records are defined with the scenario that holds them.
from .scenario import NicCountMode, PowerOptions
from .topology import DeviceKind, OwcPonSpec, TraditionalSpec, check_count, checked, device_census

# perfbench/traced.py wraps these names in this module; nothing here calls
# them, so ``graph`` loads only when they are read.
__getattr__ = _read_through(globals(), {".graph": "build_owc_pon build_traditional"})


@checked
class PowerCatalog(NamedTuple):
    """Per-device-kind wattage table, stored as non-negative int milliwatts."""

    entries: Mapping[DeviceKind, int]

    def _checked(self) -> PowerCatalog:
        frozen = dict(self.entries)
        for kind, value in frozen.items():
            if check_count(value, f"{kind.value}: power") < 0:
                raise ValueError(f"{kind.value}: power must be a non-negative int (mW)")
        return self._make((frozen,))

    def get(self, kind: DeviceKind) -> int | None:
        return self.entries.get(kind)

    def with_overrides(self, overrides: Mapping[DeviceKind, int]) -> "PowerCatalog":
        merged = dict(self.entries)
        merged.update(overrides)
        return PowerCatalog(merged)


# One price per device kind, whichever fabric charges it: the leaf switch
# and the server transceiver are priced alike in both.
CATALOG = PowerCatalog(
    {
        DeviceKind.SPINE_SWITCH: 660_000,
        DeviceKind.LEAF_SWITCH: 508_000,
        DeviceKind.SERVER_TRANSCEIVER: 3_000,
        DeviceKind.RACK_TRANSCEIVER: 400,
        DeviceKind.AP_TRANSCEIVER: 400,
        DeviceKind.NIC: 45_000,
        DeviceKind.OPTICAL_SWITCH: 75_000,
        DeviceKind.OLT: 480_000,
    }
)


class PowerRow(NamedTuple):
    kind: DeviceKind
    quantity: int
    unit_mw: int
    subtotal_mw: int
    included: bool


@checked
class PowerReport(NamedTuple):
    """Per-kind subtotals plus their exact total."""

    rows: tuple[PowerRow, ...]
    total_mw: int

    def _checked(self) -> None:
        if self.total_mw != sum(row.subtotal_mw for row in self.rows):
            raise ValueError("report total does not match its subtotals")

    def row(self, kind: DeviceKind) -> PowerRow | None:
        for row in self.rows:
            if row.kind is kind:
                return row
        return None


def _row(
    kind: DeviceKind, quantity: int, catalog: PowerCatalog, included: bool
) -> PowerRow:
    unit = catalog.get(kind)
    if unit is None:
        if included and quantity > 0:
            raise MissingCatalogEntry(kind)
        unit = 0
    subtotal = quantity * unit if included else 0
    return PowerRow(kind, quantity, unit, subtotal, included)


def _report(
    census: Mapping[DeviceKind, int],
    terms: Sequence[tuple[DeviceKind, bool]],
    catalog: PowerCatalog,
) -> PowerReport:
    """One row per (kind, included) term, priced at its census quantity."""
    rows = tuple(_row(kind, census.get(kind, 0), catalog, included) for kind, included in terms)
    return PowerReport(rows, sum(row.subtotal_mw for row in rows))


def traditional_power(
    census: Mapping[DeviceKind, int],
    catalog: PowerCatalog = CATALOG,
    options: PowerOptions = PowerOptions(),
) -> PowerReport:
    """Closed-form power of the spine-and-leaf fabric.

    Total = spines + leaves, plus the server transceivers when included.
    """
    terms = (
        (DeviceKind.SPINE_SWITCH, True),
        (DeviceKind.LEAF_SWITCH, True),
        (DeviceKind.SERVER_TRANSCEIVER, options.include_server_transceivers),
    )
    return _report(census, terms, catalog)


def owc_pon_power(
    census: Mapping[DeviceKind, int],
    catalog: PowerCatalog = CATALOG,
    options: PowerOptions = PowerOptions(),
) -> PowerReport:
    """Closed-form power of the optical-wireless fabric with PON backhaul.

    Total = one OLT (a constant, not multiplied by the census) + optical
    switches + NICs + leaves, plus the free-space and server transceiver
    terms when included.  The NIC quantity follows ``options.nic_count_mode``:
    the NIC census (one per AP) or the server census.
    """
    if census.get(DeviceKind.OLT, 0) == 0:
        raise MissingOlt("census has no OLT; the backhaul constant is undefined")
    quantities = {**census, DeviceKind.OLT: 1}
    if options.nic_count_mode is NicCountMode.PER_SERVER:
        quantities[DeviceKind.NIC] = census.get(DeviceKind.SERVER, 0)
    terms = (
        (DeviceKind.LEAF_SWITCH, True),
        (DeviceKind.SERVER_TRANSCEIVER, options.include_server_transceivers),
        (DeviceKind.RACK_TRANSCEIVER, options.include_owc_transceivers),
        (DeviceKind.AP_TRANSCEIVER, options.include_owc_transceivers),
        (DeviceKind.NIC, True),
        (DeviceKind.OPTICAL_SWITCH, True),
        (DeviceKind.OLT, True),
    )
    return _report(quantities, terms, catalog)


def _half_up_permille(fraction: Fraction) -> int:
    """Round ``fraction`` to tenths of a percent, halves away from zero."""
    scaled = fraction * 1000
    n, d = scaled.numerator, scaled.denominator
    magnitude = (2 * abs(n) + d) // (2 * d)
    return magnitude if n >= 0 else -magnitude


def format_percent(fraction: Fraction) -> str:
    permille = _half_up_permille(fraction)
    sign = "-" if permille < 0 else ""
    whole, tenth = divmod(abs(permille), 10)
    return f"{sign}{whole}.{tenth}%"


def power_reduction(baseline: PowerReport, proposed: PowerReport) -> Fraction:
    """Relative power saving of ``proposed`` against ``baseline``,
    (baseline - proposed) / baseline, as an exact rational; render it with
    ``format_percent``."""
    if baseline.total_mw == 0:
        raise ZeroBaseline("baseline consumes no power")
    return Fraction(baseline.total_mw - proposed.total_mw, baseline.total_mw)


class SweepPoint(NamedTuple):
    racks: int
    servers_per_rack: int
    num_groups: int
    num_spine: int


class SweepResult(NamedTuple):
    point: SweepPoint
    traditional: PowerReport | None
    proposed: PowerReport | None
    reduction: Fraction | None
    error: str | None


def scaling_sweep(
    rack_counts: Sequence[int],
    *,
    servers_per_rack: int = 8,
    num_groups: int = 2,
    spine_counts: Sequence[int] | None = None,
    catalog: PowerCatalog = CATALOG,
    options: PowerOptions = PowerOptions(),
) -> tuple[SweepResult, ...]:
    """Evaluate both architectures across a family of rack counts.

    Spine counts default to the rack count (one spine per leaf, the
    benchmark pairing).  Each point is priced from its specs' censuses;
    no graph is built.  A point whose parameters are inadmissible is
    marked failed without aborting the rest of the sweep.
    """
    if spine_counts is not None and len(spine_counts) != len(rack_counts):
        raise ValueError("spine_counts must match rack_counts in length")

    results = []
    for index, racks in enumerate(rack_counts):
        spines = spine_counts[index] if spine_counts is not None else racks
        point = SweepPoint(racks, servers_per_rack, num_groups, spines)
        try:
            if num_groups == 0 and racks > 0:
                raise SpecMismatch(f"{racks} racks cannot be split into zero groups")
            aps = racks // num_groups if num_groups > 0 else 0
            trad_census = device_census(TraditionalSpec(spines, racks, servers_per_rack))
            owc_census = device_census(OwcPonSpec(racks, servers_per_rack, num_groups, aps))
            trad = traditional_power(trad_census, catalog, options)
            owc = owc_pon_power(owc_census, catalog, options)
            reduction = power_reduction(trad, owc)
        except (PonFabricError, ValueError) as exc:
            results.append(SweepResult(point, None, None, None, str(exc)))
            continue
        results.append(SweepResult(point, trad, owc, reduction, None))
    return tuple(results)
