"""The whole ``simulate`` document against the per-row reference: ``main``'s
stdout, exit code and error line on drawn scenario files, against
``oracles.reference_cmd_simulate`` on what the reference parser reads from
the same text.  The reference routes every server pair of a pattern on the
built graph, makes one ``Fraction`` row per link, formats each row's texts
from its ``Fraction``s and ranks the bottlenecks with ``nlargest``; the
package keeps integer units per link, formats each distinct load once and
ranks integers."""

import contextlib
import io
import os
import tempfile
from argparse import Namespace
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from ponfabric import (
    Architecture,
    HotspotRackPattern,
    IntraRackHeavyPattern,
    LinkCapacities,
    OutputFormat,
    RoutingPolicy,
    Scenario,
    TrafficSection,
    UniformPattern,
    render,
    serialize_scenario,
)
from ponfabric.cli import main
from ponfabric.errors import BadAdjacency, PonFabricError, ScenarioError, SpecMismatch
from ponfabric.topology import server_id
from test_census import owcpon_specs

milli = st.integers(0, 12_000).map(lambda m: Fraction(m, 1000))  # 0 to 12 Gb/s, 3 decimals
capacity = st.sampled_from([Fraction(1, 1000), Fraction(5, 2), Fraction(10)]) | milli.filter(bool)


@st.composite
def patterns(draw, racks):
    """Any pattern, with zero rates, intra fractions 0 and 1, and hotspot
    racks one past either end of the fabric."""
    kind = draw(st.sampled_from(["uniform", "hotspot", "intra"]))
    rate = draw(st.just(Fraction(0)) | milli)
    if kind == "uniform":
        return UniformPattern(rate)
    if kind == "hotspot":
        return HotspotRackPattern(draw(st.integers(0, racks)), rate)
    fraction = st.sampled_from([Fraction(0), Fraction(1)]) | milli.filter(lambda f: f <= 1)
    return IntraRackHeavyPattern(draw(fraction), rate)


@st.composite
def flow_lines(draw, spec):
    """Flow lines in any order: rates with 0 to 3 fractional digits, and
    ``0`` and ``0.000``, over a few pairs, so that lines repeat and sum;
    self pairs; and now and then an id that names no server."""
    servers = [server_id(r, i) for r in range(spec.num_racks) for i in range(spec.servers_per_rack)]
    others = ["external", "nosuch", f"rack{spec.num_racks}/server0", "group0/switch"]
    ids = st.sampled_from(servers) if servers else st.sampled_from(others)
    if draw(st.integers(0, 9)) == 0:
        ids = ids | st.sampled_from(others)
    ends = st.tuples(ids, ids) | ids.map(lambda server: (server, server))
    pairs = draw(st.lists(ends, min_size=1, max_size=8))
    rates = st.sampled_from(["0", "0.000"]) | st.from_regex(r"[0-9]{1,2}(\.[0-9]{1,3})?", fullmatch=True)
    lines = draw(st.lists(st.tuples(st.sampled_from(pairs), rates), min_size=1, max_size=24))
    return "".join(f"flow = {src} {dst} {rate}\n" for (src, dst), rate in lines)


@st.composite
def simulate_files(draw):
    """A scenario text for ``simulate``: an owcpon spec of at most 16 racks,
    admissible or not, fractional capacities, any policy, and a pattern or
    flow lines."""
    spec = draw(st.one_of(owcpon_specs(admissible=True), owcpon_specs(admissible=True), owcpon_specs()))
    scenario = Scenario(
        architectures=(Architecture.OWC_PON,),
        owcpon=spec,
        capacities=LinkCapacities(draw(capacity), draw(capacity), draw(capacity)),
        policy=draw(st.just(RoutingPolicy()) | st.builds(RoutingPolicy, st.booleans(), st.booleans())),
    )
    if draw(st.booleans()):
        pattern = draw(patterns(spec.num_racks))
        return serialize_scenario(scenario._replace(traffic=TrafficSection(pattern=pattern)))
    return serialize_scenario(scenario) + "\n[traffic]\n" + draw(flow_lines(spec))


def reference(text: str, top: int, fmt: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr that ``simulate`` gives by the
    reference parser and ``reference_cmd_simulate``."""
    try:
        scenario = oracles.reference_parse_scenario(text)
        document, code = oracles.reference_cmd_simulate(scenario, Namespace(top=top))
    except ScenarioError as exc:
        return 1, "", f"ponfabric: scenario error: {exc}\n"
    except (SpecMismatch, BadAdjacency) as exc:
        return 2, "", f"ponfabric: validation error: {exc}\n"
    except PonFabricError as exc:
        return 3, "", f"ponfabric: evaluation error: {exc}\n"
    if fmt == "json":
        return code, oracles.reference_render_json(document), ""
    return code, render(document, OutputFormat(fmt)), ""


def simulated(text: str, top: int, fmt: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``main`` on ``text`` as a file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "simulate.scenario")
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["-s", path, "-f", fmt, "simulate", "--top", str(top)])
    return code, out.getvalue(), err.getvalue()


# A link at exactly its capacity is not saturated; one over it is.
AT_CAPACITY = (
    "[options]\nprofile = reproduction\n\n[architecture]\ncapacity.wired = 1.5\n\n[traffic]\n"
    "flow = rack0/server0 rack0/server1 1.5\nflow = rack2/server0 rack3/server0 1.501\n"
)


@settings(max_examples=400, derandomize=True, deadline=None)
@example(text=AT_CAPACITY, top=3, fmt="table")
@given(
    text=simulate_files(),
    top=st.sampled_from([0, 1, 3, 100_000]),
    fmt=st.sampled_from(["table", "csv", "json"]),
)
def test_simulate_matches_the_reference_document(text, top, fmt):
    assert simulated(text, top, fmt) == reference(text, top, fmt)
