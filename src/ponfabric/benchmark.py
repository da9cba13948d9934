"""Scenario-driven evaluation: ``closed_form_power`` counts, judges and
prices each selected fabric once, for ``power``, ``compare`` and ``benchmark``.

``run_benchmark`` returns the benchmark document itself: census tables,
per-kind power subtotals, the exact reduction fraction and its one-decimal
rendering, and the scenario's canonical lines, so the same scenario always
renders to the same bytes.  No command builds a graph; ``build`` and
``simulate``, which list a fabric's rows, stay under ``GRAPH_BUDGET``
(``check_size``), which live next to ``fabric_size`` in ``topology`` so
that commands which price nothing need not load this module.
"""

from __future__ import annotations

from . import _read_through
from .document import Document, Table, format_rational
from .errors import ScenarioError, ValidationFailed
from .power import (
    CATALOG,
    NicCountMode,
    PowerCatalog,
    PowerReport,
    format_percent,
    owc_pon_power,
    power_reduction,
    traditional_power,
)
from .scenario import Scenario, selected_specs, serialize_scenario
from .topology import Architecture, DeviceKind, census_table, device_census, validate
from .version import __version__

# perfbench/traced.py wraps these names in this module; nothing here calls
# them, so ``graph`` loads only when they are read.
__getattr__ = _read_through(globals(), {".graph": "build_owc_pon build_traditional"})


def resolved_catalog(scenario: Scenario) -> PowerCatalog:
    """The built-in catalog with the scenario's overrides applied."""
    return CATALOG.with_overrides(
        {DeviceKind(key): milliwatts for key, milliwatts in scenario.catalog_overrides}
    )


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
    catalog = resolved_catalog(scenario)
    priced = {}
    for architecture, census in censuses.items():
        # Named here, not in a module-level table: perfbench/traced.py wraps these names.
        if architecture is Architecture.TRADITIONAL:
            report = traditional_power(census, catalog, scenario.options)
        else:
            report = owc_pon_power(census, catalog, scenario.options)
        priced[architecture] = (census, report)
    return priced


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
