"""Scenario-driven evaluation: ``closed_form_power`` counts, judges and
prices each selected fabric once, for ``power``, ``compare`` and ``benchmark``.

``run_benchmark`` returns the benchmark document itself: census tables,
per-kind power subtotals, the exact reduction fraction and its one-decimal
rendering, and the scenario's canonical lines, so the same scenario always
renders to the same bytes.  Only ``build`` builds graphs; it and
``simulate``, which lists a fabric's links, stay under ``GRAPH_BUDGET``
(``check_size``).
"""

from __future__ import annotations

from .errors import ScenarioError, ValidationFailed
from .power import (
    OWC_PON_CATALOG,
    TRADITIONAL_CATALOG,
    NicCountMode,
    PowerCatalog,
    PowerReport,
    format_percent,
    owc_pon_power,
    power_reduction,
    traditional_power,
)
from .render import Document, Table, format_rational
from .scenario import Scenario, serialize_scenario
from .topology import (
    Architecture,
    DeviceKind,
    FabricSpec,
    NetworkGraph,
    build_owc_pon,
    build_traditional,
    device_census,
    fabric_size,
    validate,
)
from .version import __version__

#: Most nodes plus links a command may build a graph of.
GRAPH_BUDGET = 1_000_000


def resolved_catalogs(scenario: Scenario) -> tuple[PowerCatalog, PowerCatalog]:
    """Built-in catalogs with the scenario's overrides applied to both."""
    overrides = {
        DeviceKind(key): milliwatts for key, milliwatts in scenario.catalog_overrides
    }
    return (
        TRADITIONAL_CATALOG.with_overrides(overrides),
        OWC_PON_CATALOG.with_overrides(overrides),
    )


def selected_specs(scenario: Scenario) -> dict[Architecture, FabricSpec]:
    """The spec of every architecture the scenario selects, traditional first."""
    specs: dict[Architecture, FabricSpec] = {}
    if scenario.selects(Architecture.TRADITIONAL):
        specs[Architecture.TRADITIONAL] = scenario.traditional
    if scenario.selects(Architecture.OWC_PON):
        specs[Architecture.OWC_PON] = scenario.owcpon
    return specs


def check_size(architecture: Architecture, spec: FabricSpec) -> None:
    """Raise the builder's errors for an inadmissible ``spec``, then a
    ``ScenarioError`` if its fabric has more than ``GRAPH_BUDGET`` nodes
    plus links; both by arithmetic, before anything is allocated."""
    nodes, links = fabric_size(spec)
    if nodes + links > GRAPH_BUDGET:
        raise ScenarioError(
            f"{architecture.value} fabric would have {nodes} nodes and "
            f"{links} links, over the {GRAPH_BUDGET} budget"
        )


def build_graphs(scenario: Scenario) -> dict[Architecture, NetworkGraph]:
    """Build every architecture the scenario selects, once every spec has
    been checked and then sized (``check_size``)."""
    specs = selected_specs(scenario)
    for spec in specs.values():
        fabric_size(spec)  # every spec's errors come before any size error
    for architecture, spec in specs.items():
        check_size(architecture, spec)
    graphs: dict[Architecture, NetworkGraph] = {}
    for architecture, spec in specs.items():
        build = build_traditional if architecture is Architecture.TRADITIONAL else build_owc_pon
        graphs[architecture] = build(spec, scenario.capacities)
    return graphs


def closed_form_power(
    scenario: Scenario,
) -> dict[Architecture, tuple[dict[DeviceKind, int], PowerReport]]:
    """The census and price of each selected fabric, traditional first.  All
    specs are counted before any is judged, and all are judged before pricing."""
    specs = selected_specs(scenario)
    censuses = {architecture: device_census(spec) for architecture, spec in specs.items()}
    for architecture, spec in specs.items():
        violations = validate(spec)
        if violations:
            raise ValidationFailed(architecture, violations)
    traditional_catalog, owc_catalog = resolved_catalogs(scenario)
    priced = {}
    for architecture, census in censuses.items():
        # Named here, not in a module-level table: perfbench/traced.py wraps these names.
        if architecture is Architecture.TRADITIONAL:
            report = traditional_power(census, traditional_catalog, scenario.options)
        else:
            report = owc_pon_power(census, owc_catalog, scenario.options)
        priced[architecture] = (census, report)
    return priced


def census_table(name: str, census: dict[DeviceKind, int]) -> Table:
    return Table(
        name,
        ("device", "count"),
        tuple((kind.value, census[kind]) for kind in DeviceKind),
    )


def power_table(name: str, report: PowerReport) -> Table:
    rows = [
        (
            row.kind.value,
            row.quantity,
            row.unit_mw,
            row.subtotal_mw,
            "yes" if row.included else "no",
        )
        for row in report.rows
    ]
    rows.append(("TOTAL", "", "", report.total_mw, ""))
    return Table(name, ("device", "quantity", "unit_mw", "subtotal_mw", "included"), tuple(rows))


def run_benchmark(scenario: Scenario) -> Document:
    """Both architectures under one scenario: their censuses, their power
    tables, the reduction, and the scenario that produced them."""
    if len(scenario.architectures) != 2:
        raise ScenarioError("the benchmark needs both architectures selected")
    (trad_census, trad_report), (owc_census, owc_report) = closed_form_power(scenario).values()
    reduction = power_reduction(trad_report, owc_report)
    meta = (
        ("version", __version__),
        ("traditional_total_mw", trad_report.total_mw),
        ("proposed_total_mw", owc_report.total_mw),
        ("reduction_percent", format_percent(reduction)),
        ("reduction_fraction", format_rational(reduction)),
    )
    tables = [
        census_table("census_traditional", trad_census),
        census_table("census_owcpon", owc_census),
        power_table("power_traditional", trad_report),
        power_table("power_owcpon", owc_report),
    ]
    if scenario.options.nic_count_mode is NicCountMode.PER_SERVER:
        note = (
            "non-reproducing: per-server NIC counting inflates the NIC term; "
            "the headline reduction assumes one NIC per AP"
        )
        tables.append(Table("notes", ("note",), ((note,),)))
    lines = serialize_scenario(scenario).splitlines()
    tables.append(Table("scenario", ("line",), tuple((line,) for line in lines)))
    return Document("power consumption benchmark", meta, tuple(tables))
