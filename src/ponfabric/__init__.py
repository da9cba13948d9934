"""Modeling toolkit for spine-and-leaf fabrics and their optical-wireless,
PON-backhauled variant: graph construction, exact power accounting,
rule-chain routing, flow-level traffic assignment, and a scenario-driven
benchmark CLI.

The public names resolve on access (PEP 562): ``import ponfabric`` loads
only ``ponfabric.version``, and each submodule loads when one of its
names is first read."""

from .version import __version__  # every process reads it


def _read_through(namespace: dict, homes: dict[str, str]):
    """The ``__getattr__`` (PEP 562) of the module whose globals are
    ``namespace``: each name that ``homes`` lists under a module (dots
    first for a relative one, as in ``from .graph import``) is read from
    that module on each access, which loads it.  The names listed under
    ``.`` are the package's submodules themselves.  No value is kept, so a
    name patched in its module reads patched here too, and unpatched once
    restored; one bound here (as the tracer binds its wrappers) is a
    global, which shadows the hook.  Modules load by ``__import__``, as an
    ``import`` statement loads them, which ``-X importtime`` logs and
    ``importlib.import_module`` does not."""
    home = {name: module for module, names in homes.items() for name in names.split()}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = home[name]
        path = module.lstrip(".")
        source = __import__(path or name, namespace, None, (), len(module) - len(path))
        return getattr(source, name) if path else source

    return __getattr__


# Each public name, by the module that defines it; ``.`` lists the
# submodules that are public names themselves (``cli`` is not).
_EXPORTS = {
    ".": "benchmark errors power routing scenario topology traffic version",
    ".benchmark": "closed_form_power resolved_catalog run_benchmark",
    ".power": "CATALOG PowerCatalog PowerReport PowerRow SweepPoint SweepResult format_percent owc_pon_power "
    "power_reduction scaling_sweep traditional_power",
    ".document": "Document OutputFormat Table format_rational render",
    ".graph": "Link NetworkGraph Node build_owc_pon build_traditional",
    ".route_table": "Route RouteTable resolve_route",
    ".routing": "PathClass all_pairs_summary",
    ".scenario": "HotspotRackPattern IntraRackHeavyPattern NicCountMode PROFILES PowerOptions RoutingPolicy "
    "Scenario TrafficSection UniformPattern default_scenario parse_scenario serialize_scenario",
    ".topology": "Architecture DeviceKind ExplicitPairs IndexMatched LinkCapacities LinkKind NoDirectLinks "
    "OwcPonSpec TraditionalSpec Violation device_census fabric_size validate",
    ".traffic": "LinkLoad LinkLoadReport RackBlocks TrafficMatrix assign bottlenecks generate_traffic",
}

__all__ = sorted(" ".join(_EXPORTS.values()).split())
__getattr__ = _read_through(globals(), _EXPORTS)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
