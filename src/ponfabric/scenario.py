"""Scenario files: parsing, resolution, and canonical serialization.

The format is line oriented.  ``[section]`` headers open one of four
sections (architecture, options, catalog, traffic); ``key = value`` lines
fill them; blank lines and lines starting with ``#`` are ignored.  Unknown
sections, unknown keys, and duplicate keys are hard errors so that stale
configuration never passes silently.  ``flow`` in ``[traffic]`` is the one
repeatable key.

Every fixed key is one row of ``KEY_TABLE``: its section, its name, the
``Scenario`` field it sets (a dotted attribute path), and its codec, a
pair of functions that parse the value text (with its line number for
errors) and format the field back (``None`` omits the line).  The
allowed-key check, ``parse_scenario`` and ``serialize_scenario`` all read
that table, so each key is declared once and the round trip follows from
the structure.  Only what is not a single key has its own code: the
``profile`` that seeds the options, the rule that ``owcpon.pairs`` goes
with ``owcpon.adjacency = explicit``, catalog overrides, and the traffic
section.

Numbers are exact: counts are integers, and every decimal (watts, Gb/s,
fractions) allows at most three fractional digits so it converts to
integer milli-units without rounding.  ``serialize_scenario`` emits a
fully resolved canonical form; parsing it back yields an equal Scenario.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .errors import InvalidValue, ParseError, UnknownKey
from .power import PROFILES, STRUCTURAL_KINDS, NicCountMode, PowerOptions
from .render import OutputFormat, format_rational
from .routing import RoutingPolicy
from .topology import (
    Architecture,
    DeviceKind,
    ExplicitPairs,
    IndexMatched,
    LinkCapacities,
    NoDirectLinks,
    OwcPonSpec,
    TraditionalSpec,
)
from .traffic import (
    HotspotRackPattern,
    IntraRackHeavyPattern,
    TrafficPattern,
    UniformPattern,
)

_SECTIONS = ("architecture", "options", "catalog", "traffic")

#: Catalog keys map to the device kinds they override; ``owc_transceiver``
#: is shorthand for both free-space transceiver kinds.  Structural kinds
#: (servers, the external gateway) are never priced, so they are not
#: overridable.
CATALOG_KEYS: dict[str, tuple[DeviceKind, ...]] = {
    **{kind.value: (kind,) for kind in DeviceKind if kind not in STRUCTURAL_KINDS},
    "owc_transceiver": (DeviceKind.RACK_TRANSCEIVER, DeviceKind.AP_TRANSCEIVER),
}

#: Most digits a number in a scenario or a command-line count may have.
#: CPython converts ints of at most 4,300 digits to and from text.  The
#: longest number printed is a reduction fraction's exact decimal, with
#: as many places as its denominator has factors of two: up to about
#: 3,990 for a power total of 3·400+3 digits.
MAX_DIGITS = 400

_DECIMAL_RE = re.compile(r"^[0-9]+(\.[0-9]{1,3})?$")
_PAIR_RE = re.compile(r"^([0-9]+)\.([0-9]+)-([0-9]+)\.([0-9]+)$")


class TrafficSection(NamedTuple):
    pattern: TrafficPattern | None = None
    flows: tuple[tuple[str, str, Fraction], ...] = ()


class Scenario(NamedTuple):
    """A fully resolved run description; the input to every command."""

    architectures: tuple[Architecture, ...] = (
        Architecture.TRADITIONAL,
        Architecture.OWC_PON,
    )
    traditional: TraditionalSpec = TraditionalSpec()
    owcpon: OwcPonSpec = OwcPonSpec()
    capacities: LinkCapacities = LinkCapacities()
    options: PowerOptions = PowerOptions()
    policy: RoutingPolicy = RoutingPolicy()
    catalog_overrides: tuple[tuple[str, int], ...] = ()
    traffic: TrafficSection | None = None
    out_format: OutputFormat = OutputFormat.TABLE

    def selects(self, architecture: Architecture) -> bool:
        return architecture in self.architectures


def default_scenario() -> Scenario:
    """The built-in benchmark scenario (both architectures, all defaults)."""
    return Scenario()


def check_digits(digits: str, lineno: int | None = None) -> str:
    """``digits`` if there are at most ``MAX_DIGITS`` of them."""
    if len(digits) > MAX_DIGITS:
        raise InvalidValue(f"numbers are limited to {MAX_DIGITS} digits, got {len(digits)}", lineno)
    return digits


def _parse_int(value: str, lineno: int, minimum: int = 0) -> int:
    if not re.fullmatch(r"-?[0-9]+", value):
        raise InvalidValue(f"expected an integer, got {value!r}", lineno)
    check_digits(value.lstrip("-"), lineno)
    number = int(value)
    if number < minimum:
        raise InvalidValue(f"value must be >= {minimum}, got {number}", lineno)
    return number


def _parse_bool(value: str, lineno: int) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise InvalidValue(f"expected 'true' or 'false', got {value!r}", lineno)


def _parse_milli(value: str, lineno: int) -> int:
    """The decimal ``value`` in integer thousandths."""
    if not _DECIMAL_RE.fullmatch(value):
        raise InvalidValue(
            f"expected a non-negative decimal with at most 3 fractional digits, got {value!r}",
            lineno,
        )
    whole, _, frac = value.partition(".")
    check_digits(whole + frac, lineno)
    return int(whole + frac.ljust(3, "0"))


def _parse_decimal(value: str, lineno: int) -> Fraction:
    return Fraction(_parse_milli(value, lineno), 1000)


def _parse_pairs(value: str, lineno: int) -> ExplicitPairs:
    pairs = []
    for item in (part.strip() for part in value.split(",")):
        match = _PAIR_RE.fullmatch(item)
        if match is None:
            raise InvalidValue(
                f"expected pairs like '0.0-1.2' (group.ap-group.ap), got {item!r}",
                lineno,
            )
        g1, a1, g2, a2 = (int(check_digits(part, lineno)) for part in match.groups())
        pairs.append(((g1, a1), (g2, a2)))
    return ExplicitPairs(tuple(pairs))


def _with_pairs(adjacency, found: tuple[str, int] | None):
    """``owcpon.pairs`` is required by ``adjacency = explicit`` and valid only with it."""
    if isinstance(adjacency, ExplicitPairs):
        if found is None:
            raise InvalidValue("owcpon.pairs is required when adjacency = explicit")
        return _parse_pairs(*found)
    if found is not None:
        raise InvalidValue("owcpon.pairs is only valid with adjacency = explicit", found[1])
    return adjacency


def _pairs_text(adjacency) -> str | None:
    if not isinstance(adjacency, ExplicitPairs):
        return None
    return ", ".join(f"{g1}.{a1}-{g2}.{a2}" for (g1, a1), (g2, a2) in adjacency.pairs)


def _decimal_text(value: Fraction) -> str:
    if 1000 % value.denominator:
        raise ValueError(f"{value} is not representable with 3 fractional digits")
    return format_rational(value)


# Codecs: (parse(value, lineno) -> field value, format(field value) -> text).


def _choice(choices: dict, to_text):
    def parse(value: str, lineno: int):
        if value not in choices:
            raise InvalidValue(f"expected one of {sorted(choices)}, got {value!r}", lineno)
        return choices[value]

    return parse, to_text


def _enum(kind):
    return _choice({member.value: member for member in kind}, attrgetter("value"))


def _positive_decimal(key: str):
    def parse(value: str, lineno: int) -> Fraction:
        number = _parse_decimal(value, lineno)
        if number <= 0:
            raise InvalidValue(f"{key} must be positive", lineno)
        return number

    return parse, _decimal_text


def _parse_fraction(value: str, lineno: int) -> Fraction:
    fraction = _parse_decimal(value, lineno)
    if fraction > 1:
        raise InvalidValue("intra fraction must be within [0, 1]", lineno)
    return fraction


_COUNT = (_parse_int, str)
_MULTIPLIER = (lambda value, lineno: _parse_int(value, lineno, minimum=1), str)
_DECIMAL = (_parse_decimal, _decimal_text)
_FRACTION = (_parse_fraction, _decimal_text)
_FLAG = (_parse_bool, lambda flag: "true" if flag else "false")
_SELECT = _choice(
    {
        "traditional": (Architecture.TRADITIONAL,),
        "owcpon": (Architecture.OWC_PON,),
        "both": (Architecture.TRADITIONAL, Architecture.OWC_PON),
    },
    lambda selection: "both" if len(selection) == 2 else selection[0].value,
)
# ``explicit`` parses to an empty placeholder that the ``owcpon.pairs`` row
# (no parser of its own: ``_with_pairs`` applies it) fills.
_ADJACENCIES = {
    "index_matched": IndexMatched(),
    "none": NoDirectLinks(),
    "explicit": ExplicitPairs(()),
}
_ADJACENCY_NAMES = {type(kind): name for name, kind in _ADJACENCIES.items()}
_ADJACENCY = _choice(_ADJACENCIES, lambda adjacency: _ADJACENCY_NAMES[type(adjacency)])
_PAIRS = (None, _pairs_text)

#: Every fixed key as (section, key, Scenario field, codec), in the order
#: ``serialize_scenario`` emits them and ``parse_scenario`` checks them.
KEY_TABLE = (
    ("architecture", "select", "architectures", _SELECT),
    ("architecture", "traditional.spines", "traditional.num_spine", _COUNT),
    ("architecture", "traditional.racks", "traditional.num_racks", _COUNT),
    ("architecture", "traditional.servers_per_rack", "traditional.servers_per_rack", _COUNT),
    ("architecture", "owcpon.racks", "owcpon.num_racks", _COUNT),
    ("architecture", "owcpon.servers_per_rack", "owcpon.servers_per_rack", _COUNT),
    ("architecture", "owcpon.groups", "owcpon.num_groups", _COUNT),
    ("architecture", "owcpon.aps_per_group", "owcpon.aps_per_group", _COUNT),
    ("architecture", "owcpon.adjacency", "owcpon.adjacency", _ADJACENCY),
    ("architecture", "owcpon.pairs", "owcpon.adjacency", _PAIRS),
    ("architecture", "owcpon.gateway_ap", "owcpon.gateway_ap_index", _COUNT),
    ("architecture", "owcpon.transceiver_multiplier", "owcpon.transceiver_multiplier", _MULTIPLIER),
    ("architecture", "capacity.wired", "capacities.wired", _positive_decimal("capacity.wired")),
    ("architecture", "capacity.owc", "capacities.owc", _positive_decimal("capacity.owc")),
    ("architecture", "capacity.fiber", "capacities.fiber", _positive_decimal("capacity.fiber")),
    ("options", "include_owc_transceivers", "options.include_owc_transceivers", _FLAG),
    ("options", "include_server_transceivers", "options.include_server_transceivers", _FLAG),
    ("options", "nic_count_mode", "options.nic_count_mode", _enum(NicCountMode)),
    ("options", "prefer_direct_inter_group", "policy.prefer_direct_inter_group", _FLAG),
    ("options", "relay_fallback", "policy.allow_relay_fallback", _FLAG),
    ("options", "format", "out_format", _enum(OutputFormat)),
)

_ALLOWED = (
    {(section, key) for section, key, _, _ in KEY_TABLE}
    | {("catalog", key) for key in CATALOG_KEYS}
    | {("options", "profile"), ("traffic", "pattern"), ("traffic", "flow")}
)


#: Traffic patterns by name: the pattern class and a codec per field.
_PATTERNS = {
    "uniform": (UniformPattern, (_DECIMAL,)),
    "hotspot_rack": (HotspotRackPattern, (_COUNT, _DECIMAL)),
    "intra_rack_heavy": (IntraRackHeavyPattern, (_FRACTION, _DECIMAL)),
}


def _parse_pattern(value: str, lineno: int) -> TrafficPattern:
    name, *args = value.split()
    kind, codecs = _PATTERNS.get(name, (None, ()))
    if kind is None or len(args) != len(codecs):
        raise InvalidValue(
            "expected 'uniform <gbps>', 'hotspot_rack <rack> <gbps>', or "
            "'intra_rack_heavy <fraction> <gbps>'",
            lineno,
        )
    return kind(*(parse(arg, lineno) for (parse, _), arg in zip(codecs, args)))


def _scan(text: str):
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    flows: list[tuple[str, int]] = []
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise UnknownKey(f"unknown section [{name}]", lineno)
            section = name
            continue
        if section is None:
            raise ParseError("key outside any section", lineno)
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ParseError("expected 'key = value'", lineno)
        if not value:
            raise ParseError(f"empty value for '{key}'", lineno)
        if (section, key) not in _ALLOWED:
            raise UnknownKey(f"unknown key '{key}' in [{section}]", lineno)
        if section == "traffic" and key == "flow":
            flows.append((value, lineno))
            continue
        if (section, key) in entries:
            raise ParseError(f"duplicate key '{key}'", lineno)
        entries[(section, key)] = (value, lineno)
    return entries, flows


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text into a fully resolved Scenario.

    A file holding only ``profile = reproduction`` under ``[options]``
    resolves to the complete benchmark scenario; an empty file is an
    error because nothing selects an architecture.

    The first fault found is raised, in this order: line syntax, unknown
    sections or keys and duplicate keys, in line order; an unknown
    ``profile``, or neither a profile nor ``select``; each ``KEY_TABLE``
    row in table order (the ``owcpon.pairs`` row checks that pairs come
    with, and only with, ``adjacency = explicit``); catalog overrides in
    ``CATALOG_KEYS`` order; the traffic section.
    """
    entries, raw_flows = _scan(text)

    base = Scenario()
    profile_entry = entries.get(("options", "profile"))
    if profile_entry is not None:
        value, lineno = profile_entry
        if value not in PROFILES:
            raise InvalidValue(
                f"unknown profile {value!r}; named profiles: {sorted(PROFILES)}", lineno
            )
        base = Scenario(options=PROFILES[value])
    elif ("architecture", "select") not in entries:
        raise ParseError(
            "architecture selector required: set [architecture] select "
            "or pick an [options] profile"
        )

    # Parsed values by owner ("" for Scenario itself) and attribute name.
    fields: dict[str, dict[str, object]] = {}
    for section, key, field, (parse, _) in KEY_TABLE:
        found = entries.get((section, key))
        owner, _, name = field.rpartition(".")
        values = fields.setdefault(owner, {})
        if parse is None:  # owcpon.pairs refines the adjacency parsed before it
            values[name] = _with_pairs(values.get(name, attrgetter(field)(base)), found)
        elif found is not None:
            values[name] = parse(*found)

    overrides: dict[str, int] = {}
    for key, kinds in CATALOG_KEYS.items():
        found = entries.get(("catalog", key))
        if found is None:
            continue
        milliwatts = _parse_milli(*found)
        for kind in kinds:
            if kind.value in overrides:
                raise InvalidValue(
                    f"'{key}' collides with an earlier override of {kind.value}",
                    found[1],
                )
            overrides[kind.value] = milliwatts

    pattern_entry = entries.get(("traffic", "pattern"))
    flows: dict[tuple[str, str], int] = {}  # Gb/s in thousandths
    for value, lineno in raw_flows:
        tokens = value.split()
        if len(tokens) != 3:
            raise InvalidValue("expected 'flow = <src> <dst> <gbps>'", lineno)
        src, dst, rate = tokens[0], tokens[1], _parse_milli(tokens[2], lineno)
        flows[(src, dst)] = flows.get((src, dst), 0) + rate
    if pattern_entry is not None and flows:
        raise InvalidValue(
            "a traffic section takes either a pattern or flow lines, not both",
            pattern_entry[1],
        )
    traffic: TrafficSection | None = None
    if pattern_entry is not None:
        traffic = TrafficSection(pattern=_parse_pattern(*pattern_entry))
    elif flows:
        traffic = TrafficSection(
            flows=tuple((src, dst, Fraction(flows[(src, dst)], 1000)) for src, dst in sorted(flows))
        )

    return base._replace(
        **fields.pop("", {}),
        **{owner: getattr(base, owner)._replace(**values) for owner, values in fields.items()},
        catalog_overrides=tuple(sorted(overrides.items())),
        traffic=traffic,
    )


def serialize_scenario(scenario: Scenario) -> str:
    """Emit the canonical, fully resolved form of a scenario."""
    lines: list[str] = []
    section = None
    for row_section, key, field, (_, to_text) in KEY_TABLE:
        if row_section != section:
            section = row_section
            lines += ["", f"[{section}]"]
        text = to_text(attrgetter(field)(scenario))
        if text is not None:
            lines.append(f"{key} = {text}")

    if scenario.catalog_overrides:
        lines += ["", "[catalog]"]
        for key, milliwatts in scenario.catalog_overrides:
            lines.append(f"{key} = {_decimal_text(Fraction(milliwatts, 1000))}")

    if scenario.traffic is not None:
        lines += ["", "[traffic]"]
        pattern = scenario.traffic.pattern
        for name, (kind, codecs) in _PATTERNS.items():
            if isinstance(pattern, kind):
                args = (to_text(arg) for (_, to_text), arg in zip(codecs, pattern))
                lines.append(f"pattern = {name} {' '.join(args)}")
        for src, dst, rate in scenario.traffic.flows:
            lines.append(f"flow = {src} {dst} {_decimal_text(rate)}")

    return "\n".join(lines[1:]) + "\n"
