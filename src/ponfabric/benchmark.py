"""Scenario-driven evaluation: ``closed_form_power`` counts, judges and
prices each selected fabric once, for ``power``, ``compare`` and ``benchmark``.

``comparison`` writes the paper's comparison for ``compare`` and
``benchmark``.  ``run_benchmark`` returns the benchmark document itself:
census tables, that comparison and the scenario's canonical lines, so the
same scenario always renders to the same bytes.  No command builds a
graph; ``build`` and ``simulate``, which list a fabric's rows, stay under
``GRAPH_BUDGET`` (``check_size``), which live next to ``fabric_size`` in
``topology`` so that commands which price nothing need not load this module.
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


def comparison(
    priced: dict[Architecture, tuple[dict[DeviceKind, int], PowerReport]], total_key: str
) -> tuple[tuple, tuple[Table, Table]]:
    """The meta rows from the traditional total (under ``total_key``) to the exact
    reduction, and both power tables, of ``closed_form_power``'s two fabrics."""
    (_, traditional), (_, proposed) = priced.values()
    reduction = power_reduction(traditional, proposed)
    meta = (
        (total_key, traditional.total_mw),
        ("proposed_total_mw", proposed.total_mw),
        ("reduction_percent", format_percent(reduction)),
        ("reduction_fraction", format_rational(reduction)),
    )
    return meta, (power_table("power_traditional", traditional), power_table("power_owcpon", proposed))


def run_benchmark(scenario: Scenario) -> Document:
    """Both architectures under one scenario: their censuses, their power
    tables, the reduction, and the scenario that produced them."""
    if len(scenario.architectures) != 2:
        raise ScenarioError("the benchmark needs both architectures selected")
    priced = closed_form_power(scenario)
    meta, power_tables = comparison(priced, "traditional_total_mw")
    tables = [census_table(f"census_{arch.value}", census) for arch, (census, _) in priced.items()]
    tables += power_tables
    if scenario.options.nic_count_mode is NicCountMode.PER_SERVER:
        note = (
            "non-reproducing: per-server NIC counting inflates the NIC term; "
            "the headline reduction assumes one NIC per AP"
        )
        tables.append(Table("notes", ("note",), ((note,),)))
    lines = serialize_scenario(scenario).splitlines()
    tables.append(Table("scenario", ("line",), tuple((line,) for line in lines)))
    return Document("power consumption benchmark", (("version", __version__), *meta), tuple(tables))
