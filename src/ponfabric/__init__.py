"""Modeling toolkit for spine-and-leaf fabrics and their optical-wireless,
PON-backhauled variant: graph construction, exact power accounting,
rule-chain routing, flow-level traffic assignment, and a scenario-driven
benchmark CLI."""

from .benchmark import (
    build_graphs,
    closed_form_power,
    resolved_catalogs,
    run_benchmark,
)
from .power import (
    OWC_PON_CATALOG,
    PROFILES,
    TRADITIONAL_CATALOG,
    NicCountMode,
    PowerCatalog,
    PowerOptions,
    PowerReport,
    PowerRow,
    SweepPoint,
    SweepResult,
    format_percent,
    owc_pon_power,
    power_reduction,
    scaling_sweep,
    traditional_power,
)
from .render import Document, OutputFormat, Table, format_rational, render
from .routing import (
    PathClass,
    Route,
    RouteTable,
    RoutingPolicy,
    all_pairs_summary,
    resolve_route,
    route_to_external,
)
from .scenario import (
    Scenario,
    TrafficSection,
    default_scenario,
    parse_scenario,
    serialize_scenario,
)
from .topology import (
    Architecture,
    DeviceKind,
    ExplicitPairs,
    IndexMatched,
    Link,
    LinkCapacities,
    LinkKind,
    NetworkGraph,
    NoDirectLinks,
    Node,
    OwcPonSpec,
    TraditionalSpec,
    Violation,
    build_owc_pon,
    build_traditional,
    device_census,
    fabric_links,
    fabric_size,
    validate,
)
from .traffic import (
    HotspotRackPattern,
    IntraRackHeavyPattern,
    LinkLoad,
    LinkLoadReport,
    RackBlocks,
    TrafficMatrix,
    UniformPattern,
    assign,
    bottlenecks,
    generate_traffic,
)
from .version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
