"""Modeling toolkit for spine-and-leaf fabrics and their optical-wireless,
PON-backhauled variant: graph construction, exact power accounting,
rule-chain routing, flow-level traffic assignment, and a scenario-driven
benchmark CLI.

The public names resolve on first access (PEP 562): ``import ponfabric``
loads only ``ponfabric.version``, and each submodule loads when one of its
names is first read."""

import sys

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "benchmark": ("closed_form_power", "resolved_catalog", "run_benchmark"),
    "power": (
        "CATALOG",
        "PowerCatalog",
        "PowerReport",
        "PowerRow",
        "SweepPoint",
        "SweepResult",
        "format_percent",
        "owc_pon_power",
        "power_reduction",
        "scaling_sweep",
        "traditional_power",
    ),
    "render": ("Document", "OutputFormat", "Table", "format_rational", "render"),
    "graph": ("Link", "NetworkGraph", "Node", "build_owc_pon", "build_traditional", "fabric_links"),
    "route_table": ("Route", "RouteTable", "resolve_route", "route_to_external"),
    "routing": ("PathClass", "all_pairs_summary"),
    "scenario": (
        "HotspotRackPattern",
        "IntraRackHeavyPattern",
        "NicCountMode",
        "PROFILES",
        "PowerOptions",
        "RoutingPolicy",
        "Scenario",
        "TrafficSection",
        "UniformPattern",
        "default_scenario",
        "parse_scenario",
        "serialize_scenario",
    ),
    "topology": (
        "Architecture",
        "DeviceKind",
        "ExplicitPairs",
        "IndexMatched",
        "LinkCapacities",
        "LinkKind",
        "NoDirectLinks",
        "OwcPonSpec",
        "TraditionalSpec",
        "Violation",
        "device_census",
        "fabric_size",
        "validate",
    ),
    "traffic": (
        "LinkLoad",
        "LinkLoadReport",
        "RackBlocks",
        "TrafficMatrix",
        "assign",
        "bottlenecks",
        "generate_traffic",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules that are public names themselves (``cli`` is not).
_SUBMODULES = ("benchmark", "errors", "power", "routing", "scenario", "topology", "traffic", "version")

__all__ = sorted([*_SOURCE, *_SUBMODULES])


# Modules are loaded by ``__import__``, which an ``import`` statement calls
# and ``-X importtime`` logs, not by ``importlib.import_module``, which it
# does not.
def __getattr__(name: str):
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(_SOURCE[name], globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def _moved(namespace: dict, module: str, names: str):
    """The ``__getattr__`` (PEP 562) of the package module whose globals
    are ``namespace``: each of ``names``, moved to the sibling ``module``
    that fewer commands load, is read from it on each access.  It is not
    kept, so a name patched in ``module`` reads patched here too, and
    unpatched once restored; one set here (as the tracer sets its
    wrappers) is a global, which shadows the hook."""
    moved = frozenset(names.split())

    def __getattr__(name: str):
        if name not in moved:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        return getattr(__import__(module, namespace, None, (name,), 1), name)

    return __getattr__


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(type(sys)):
    """Importing a submodule binds it as an attribute of the package, which
    would make ``ponfabric.render`` the module ``render``, not the function
    of that name, once ``ponfabric.render`` is imported."""

    def __setattr__(self, name: str, value) -> None:
        if name == "render" and isinstance(value, type(sys)):
            value = value.render
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

from .version import __version__  # noqa: E402  (every process reads it)
