"""Exception types shared across the toolkit."""

from __future__ import annotations


class PonFabricError(Exception):
    """Base class for all toolkit errors."""


class ScenarioError(PonFabricError):
    """Scenario file cannot be parsed or resolved.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ParseError(ScenarioError):
    """Malformed scenario syntax or missing required selection."""


class UnknownKey(ScenarioError):
    """Section or key that is not part of the scenario schema."""


class InvalidValue(ScenarioError):
    """Well-formed key whose value is outside its domain."""


class SpecMismatch(PonFabricError):
    """Architecture parameters are mutually inconsistent."""


class BadAdjacency(PonFabricError):
    """Explicit inter-group pair list references missing, duplicate, or
    same-group APs."""


class ValidationFailed(PonFabricError):
    """A fabric spec failed structural validation."""

    def __init__(self, architecture, violations):
        self.architecture = architecture
        self.violations = tuple(violations)
        summary = "; ".join(f"{v.code}({v.subject})" for v in self.violations)
        super().__init__(f"{architecture.value}: {summary}")


class PowerModelError(PonFabricError):
    """Base class for power evaluation failures."""


class MissingCatalogEntry(PowerModelError):
    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"no catalog entry for {kind.value}")


class MissingOlt(PowerModelError):
    """The backhaul power formula charges a single OLT; the census has none."""


class ZeroBaseline(PowerModelError):
    """Reduction is undefined when the baseline consumes zero power."""


class RoutingError(PonFabricError):
    """Base class for route resolution failures."""


class NoRoute(RoutingError):
    """The pair has no modeled route: racks of the traditional fabric, whose
    inter-rack and external paths are not modeled."""


class PolicyExcluded(RoutingError):
    """The routing policy forbids every mechanism available for the pair."""


class UnknownServer(RoutingError):
    def __init__(self, node_id: str, context: str = ""):
        self.node_id = node_id
        super().__init__(f"{context}not a server node: {node_id!r}")


def in_pair(error: RoutingError, src: str, dst: str) -> RoutingError:
    """A copy of ``error`` whose message names the ``src -> dst`` pair."""
    context = f"{src} -> {dst}: "
    if isinstance(error, UnknownServer):
        return UnknownServer(error.node_id, context)
    return type(error)(f"{context}{error}")


class TrafficError(PonFabricError):
    """Base class for traffic generation failures."""


class UnknownRack(TrafficError):
    def __init__(self, rack: int):
        self.rack = rack
        super().__init__(f"rack {rack} does not exist in the graph")
