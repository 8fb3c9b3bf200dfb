"""The four benchmark workloads, their seeded inputs and their output checks.

Every workload drives the program only through its public Scenario /
Campaign API and returns an :class:`Outcome`: the timed window (scenario
construction to collected results), the set-up share of it, the checks
that decide whether the outputs are correct, and a digest of the
collected results.  The reference values the checks compare against are
computed here, outside the timed window, by code that shares nothing
with the program's collapse: a plain Dijkstra over link latencies.

Each workload's inputs come from :func:`generate_inputs`, which draws
only from ``random.Random(f"{workload}:{seed}")``, so the same seed gives
the same inputs in every process.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Sizes per profile: "full" is what the benchmark measures, "tiny" is what
# the benchmark's own tests run.
PROFILES: Dict[str, Dict[str, Dict[str, object]]] = {
    "dumbbell-loop": {
        "full": dict(pairs=40, late=16, early=10, duration=4.0,
                     machines=4, setup_repeats=5),
        "tiny": dict(pairs=10, late=3, early=2, duration=5.0, machines=2,
                     setup_repeats=2),
    },
    "memtier-packet": {
        "full": dict(connections=10, duration=2.0, machines=4,
                     reference_ops=35700.0, setup_repeats=15),
        "tiny": dict(connections=2, duration=0.3, machines=2,
                     setup_repeats=3),
    },
    "scalefree-setup": {
        "full": dict(elements=400, pairs=100, pings=100, machines=4),
        "tiny": dict(elements=40, pairs=6, pings=5, machines=2),
    },
    "campaign-sweep": {
        "full": dict(elements=200, backbone=(1e9, 5e8, 2e8),
                     hosts=(2, 4), seeds=2, pairs=5, pings=10),
        "tiny": dict(elements=30, backbone=(1e9, 5e8), hosts=(2,),
                     seeds=1, pairs=2, pings=4),
    },
}

NAMES: Tuple[str, ...] = tuple(PROFILES)

# dumbbell-loop: aggregate goodput in every steady phase must stay within
# this band around the shared capacity in force.
CAPACITY_BAND = (0.98, 1.02)
# Seconds after a phase boundary before the aggregate counts as steady.
SETTLE_S = 0.4
# Ping checks: a pair's median RTT may exceed the reference shortest-path
# RTT by the emulated infrastructure delays (container networking and the
# physical hop, both ways) but must stay within this distance of it.
RTT_TOLERANCE_S = 0.5e-3
# Table 4's bound on the RTT mean squared error.
RTT_MSE_LIMIT_MS2 = 0.5
# memtier-packet: the share by which aggregate ops/s may deviate from the
# profile's reference_ops, measured when the benchmark was added.  The
# clients run closed loops over fixed emulated latencies, so the rate does
# not depend on the seed.
MEMTIER_TOLERANCE = 0.03


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one iteration measured and produced."""

    window: "Window"
    emulated_s: float      # emulated seconds covered
    attempted: int
    checks: List[Check]
    payload: object
    engines: List[object]
    metadata_bytes: float = 0.0
    rtt_err_ms2: float = float("nan")
    campaign: Dict[str, float] = field(default_factory=dict)
    failed_units: Optional[int] = None

    @property
    def wall_s(self) -> float:
        return self.window.wall_s

    @property
    def setup_s(self) -> float:
        return self.window.setup_s

    @property
    def run_s(self) -> float:
        """Seconds the emulation itself took: after set-up, or the whole
        window for a sweep, whose points each set up and run."""
        return self.window.wall_s if self.campaign else self.window.run_s

    @property
    def failed(self) -> int:
        """Failed units: points for a sweep, the iteration otherwise."""
        if self.failed_units is not None:
            return self.failed_units
        return int(not all(check.passed for check in self.checks))

    @property
    def digest(self) -> str:
        return digest_of(self.payload)


def elapsed(start: float, end: float) -> float:
    return end - start


class Window:
    """The timed window of one iteration: start, set-up mark, stop.

    A traced iteration substitutes a window that also opens and closes
    the root of its layer attribution.  ``extra_setups`` holds the
    (start, end) of set-ups repeated before the window opens; ``setup_s``
    is the median of them and the window's own set-up.  ``clock`` turns
    an interval of ``time.perf_counter`` readings into the seconds
    reported: plain elapsed time, or :meth:`SpeedProbe.seconds`.
    """

    # Whether a workload may repeat its set-up before the window opens.
    repeat_setup = True

    def __init__(self, clock: Callable[[float, float], float] = elapsed
                 ) -> None:
        self.started = self.setup_done = self.stopped = 0.0
        self.extra_setups: List[Tuple[float, float]] = []
        self.clock = clock

    def start(self) -> None:
        self.started = time.perf_counter()

    def mark_setup(self) -> None:
        self.setup_done = time.perf_counter()

    def stop(self) -> None:
        self.stopped = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return self.clock(self.started, self.stopped)

    @property
    def run_s(self) -> float:
        return self.clock(self.setup_done, self.stopped)

    @property
    def setup_s(self) -> float:
        return statistics.median(
            self.clock(start, end) for start, end
            in self.extra_setups + [(self.started, self.setup_done)])


def digest_of(payload: object) -> str:
    """blake2b over a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Reference shortest paths, independent of repro.core.collapse.
# ---------------------------------------------------------------------------
def reference_rtts(topology, pairs: Sequence[Tuple[str, str]]
                   ) -> Dict[Tuple[str, str], float]:
    """Round-trip propagation latency per pair over the topology's links.

    Services are never transit nodes: a path may only pass through
    bridges, as in the emulated network.
    """
    graph: Dict[str, List[Tuple[str, float]]] = {}
    for link in topology.links():
        graph.setdefault(link.source, []).append(
            (link.destination, link.properties.latency))
    services = set(topology.services)
    distances: Dict[str, Dict[str, float]] = {}

    def from_origin(origin: str) -> Dict[str, float]:
        if origin not in distances:
            best = {origin: 0.0}
            queue = [(0.0, origin)]
            while queue:
                cost, node = heapq.heappop(queue)
                if cost > best[node]:
                    continue
                if node != origin and node in services:
                    continue
                for neighbour, latency in graph.get(node, ()):
                    candidate = cost + latency
                    if candidate < best.get(neighbour, float("inf")):
                        best[neighbour] = candidate
                        heapq.heappush(queue, (candidate, neighbour))
            distances[origin] = best
        return distances[origin]

    return {(a, b): from_origin(a)[b] + from_origin(b)[a] for a, b in pairs}


def ping_checks(label: str, stats_by_pair, reference) -> Tuple[
        List[Check], List[float]]:
    """Per-pair median RTT against the reference; squared errors in ms²."""
    checks = []
    squared = []
    for pair, expected in reference.items():
        stats = stats_by_pair[pair]
        median = stats.median_rtt
        error = median - expected
        squared.append((error * 1e3) ** 2)
        checks.append(Check(
            f"{label} {pair[0]}->{pair[1]} median RTT within "
            f"{RTT_TOLERANCE_S * 1e3:.1f} ms of shortest path",
            stats.received > 0 and abs(error) <= RTT_TOLERANCE_S,
            f"median {median * 1e3:.4f} ms, reference "
            f"{expected * 1e3:.4f} ms"))
    return checks, squared


def _pick_pairs(rng: random.Random, names: Sequence[str], count: int):
    """``count`` distinct ordered (source, destination) pairs."""
    pairs: List[Tuple[str, str]] = []
    while len(pairs) < count:
        pair = tuple(rng.sample(list(names), 2))
        if pair not in pairs:
            pairs.append(pair)
    return pairs


def _set_up(builder_fn: Callable):
    """Construct, compile, prepare and install one scenario through the
    public backend lifecycle."""
    from repro.scenario import resolve_backend
    compiled = builder_fn().compile()
    backend = resolve_backend("kollaps")
    system = backend.prepare(compiled)
    backend.start_workloads()
    return compiled, backend, system


def _lifecycle(builder_fn: Callable, window: Window, setup_repeats: int = 1):
    """Set up, run and collect one scenario.  Set-up ends before the
    clock first advances.

    With ``setup_repeats`` above 1 (and a window that allows it), the
    set-up first runs ``setup_repeats - 1`` more times, each torn down
    unrun, so that ``setup_s`` is a median even where one set-up takes
    only milliseconds.  The collapse memo is cleared and garbage is
    collected before every set-up, so each one collapses cold, as the
    first in a fresh interpreter does, and none pays for collecting the
    systems torn down before it.
    A traced window does not repeat: the extra set-ups would add to the
    telemetry counters its table reads.
    """
    from repro.core.collapse import clear_collapse_cache
    if window.repeat_setup:
        for _ in range(setup_repeats - 1):
            clear_collapse_cache()
            gc.collect()
            started = time.perf_counter()
            _compiled, backend, _system = _set_up(builder_fn)
            window.extra_setups.append((started, time.perf_counter()))
            backend.teardown()
        clear_collapse_cache()
        gc.collect()
    window.start()
    compiled, backend, system = _set_up(builder_fn)
    window.mark_setup()
    horizon = compiled.default_duration()
    backend.advance(horizon)
    results, metrics = backend.collect(horizon)
    backend.teardown()
    window.stop()
    return compiled, system, horizon, results, metrics


def _single(window: Window, horizon: float, system, checks, payload,
            **extra) -> Outcome:
    return Outcome(window=window, emulated_s=horizon, attempted=1,
                   checks=checks, payload=payload, engines=[system],
                   metadata_bytes=system.total_metadata_wire_bytes(),
                   **extra)


# ---------------------------------------------------------------------------
# dumbbell-loop: the Emulation Manager loop over many mostly idle chains.
# ---------------------------------------------------------------------------
SHARED_BANDWIDTH = (50e6, 20e6)


def dumbbell_inputs(rng: random.Random, size: Dict) -> Dict:
    pairs = size["pairs"]
    order = list(range(pairs))
    rng.shuffle(order)
    return {"late": sorted(order[:size["late"]]),
            "early": sorted(order[size["late"]:size["late"]
                                  + size["early"]]),
            "engine_seed": rng.randrange(2 ** 31)}


def dumbbell_loop(inputs: Dict, size: Dict, window: Window) -> Outcome:
    from repro.scenario import flow, set_link
    from repro.scenario.topologies import dumbbell

    pairs = size["pairs"]
    late, early = set(inputs["late"]), set(inputs["early"])
    # Five equal phases: late flows join, capacity drops, capacity
    # returns, early flows leave.
    t_join, t_drop, t_back, t_leave = (size["duration"] * index / 5.0
                                       for index in range(1, 5))
    full, reduced = SHARED_BANDWIDTH

    def build():
        builder = dumbbell(pairs, shared_bandwidth=full)
        for index in range(pairs):
            builder.workload(flow(
                f"client{index}", f"server{index}", key=f"f{index}",
                start=t_join if index in late else 0.0,
                stop=t_leave if index in early else None))
        builder.at(t_drop, set_link("left", "right", up=reduced))
        builder.at(t_back, set_link("left", "right", up=full))
        return builder.deploy(machines=size["machines"],
                              seed=inputs["engine_seed"],
                              duration=size["duration"])

    _compiled, system, horizon, results, metrics = _lifecycle(
        build, window, size["setup_repeats"])

    aggregate: Dict[float, float] = {}
    for index in range(pairs):
        for moment, rate in metrics[f"f{index}"].throughput:
            aggregate[moment] = aggregate.get(moment, 0.0) + rate
    phases = [(0.0, t_join, full), (t_join, t_drop, full),
              (t_drop, t_back, reduced), (t_back, t_leave, full),
              (t_leave, horizon, full)]
    checks = []
    ratios = []
    low, high = CAPACITY_BAND
    for number, (begin, end, capacity) in enumerate(phases, 1):
        samples = [rate for moment, rate in aggregate.items()
                   if begin + SETTLE_S <= moment < end]
        ratio = (statistics.fmean(samples) / capacity) if samples else 0.0
        ratios.append(ratio)
        checks.append(Check(
            f"phase {number} aggregate within {low}-{high} of "
            f"{capacity / 1e6:g} Mb/s", low <= ratio <= high,
            f"{ratio:.4f} of capacity over {len(samples)} steps"))
    payload = {"flows": [results[f"f{index}"] for index in range(pairs)],
               "phase_ratios": ratios}
    return _single(window, horizon, system, checks, payload)


# ---------------------------------------------------------------------------
# memtier-packet: per-packet work (event heap, data path, apps).
# ---------------------------------------------------------------------------
REGIONS = ("virginia", "oregon", "ireland", "saopaulo")


def memtier_inputs(rng: random.Random, size: Dict) -> Dict:
    return {"client_seeds": [rng.randrange(2 ** 31) for _ in range(12)],
            "engine_seed": rng.randrange(2 ** 31)}


def memtier_packet(inputs: Dict, size: Dict, window: Window) -> Outcome:
    from repro.scenario import custom
    from repro.scenario.topologies import aws_mesh

    def install(system):
        from repro.apps import KvServer, MemtierClient
        clients = []
        for index, region in enumerate(REGIONS):
            server = KvServer(system.sim, system.dataplane,
                              f"node-{region}-0")
            # Two local clients and one from the next region over (Fig. 4).
            sources = [f"node-{region}-1", f"node-{region}-2",
                       f"node-{REGIONS[(index + 1) % len(REGIONS)]}-3"]
            for source in sources:
                seed = inputs["client_seeds"][len(clients)]
                clients.append(MemtierClient(
                    system.sim, system.dataplane, source, server,
                    connections=size["connections"],
                    rng=random.Random(seed)))
        return clients

    def build():
        return (aws_mesh(list(REGIONS), services_per_region=4,
                         service_prefix="node")
                .workload(custom("memtier", install))
                .deploy(machines=size["machines"],
                        seed=inputs["engine_seed"],
                        duration=size["duration"]))

    _compiled, system, horizon, results, _metrics = _lifecycle(
        build, window, size["setup_repeats"])
    clients = results["memtier"]
    completed = [client.stats.completed for client in clients]
    ops = sum(completed) / horizon
    checks = [Check("all 12 clients complete requests",
                    len(clients) == 12 and min(completed) > 0,
                    f"completed per client {completed}")]
    reference = size.get("reference_ops")
    if reference:
        deviation = ops / reference - 1.0
        checks.append(Check(
            f"aggregate ops/s within {MEMTIER_TOLERANCE:.0%} of "
            f"{reference:g}", abs(deviation) <= MEMTIER_TOLERANCE,
            f"{ops:.1f} ops/s ({deviation:+.2%})"))
    payload = {"completed": completed,
               "latency_sum": [sum(client.stats.latencies)
                               for client in clients]}
    return _single(window, horizon, system, checks, payload)


# ---------------------------------------------------------------------------
# scalefree-setup: cold collapse and chain install on a large topology.
# ---------------------------------------------------------------------------
PING_INTERVAL_S = 0.05


def _end_nodes(elements: int) -> List[str]:
    """The end-node names scale_free(elements) declares (n0, n1, ...)."""
    switches = max(2, round(elements / 3.0))
    return [f"n{index}" for index in range(elements - switches)]


def scalefree_inputs(rng: random.Random, size: Dict) -> Dict:
    return {"topology_seed": rng.randrange(2 ** 31),
            "engine_seed": rng.randrange(2 ** 31),
            "pairs": _pick_pairs(rng, _end_nodes(size["elements"]),
                                 size["pairs"])}


def scalefree_setup(inputs: Dict, size: Dict, window: Window) -> Outcome:
    from repro.scenario import ping
    from repro.scenario.topologies import scale_free

    pairs, pings = inputs["pairs"], size["pings"]

    def build():
        builder = scale_free(size["elements"], seed=inputs["topology_seed"])
        for index, (a, b) in enumerate(pairs):
            builder.workload(ping(a, b, count=pings,
                                  interval=PING_INTERVAL_S,
                                  start=index * 0.001, key=(a, b)))
        return builder.deploy(machines=size["machines"],
                              seed=inputs["engine_seed"],
                              enforce_bandwidth_sharing=False,
                              duration=pings * PING_INTERVAL_S + 1.0)

    compiled, system, horizon, results, _metrics = _lifecycle(build, window)
    reference = reference_rtts(compiled.topology, pairs)
    checks, squared = ping_checks("pair", results, reference)
    mse = statistics.fmean(squared)
    checks.append(Check(f"RTT MSE below {RTT_MSE_LIMIT_MS2} ms^2",
                        mse < RTT_MSE_LIMIT_MS2, f"{mse:.5f} ms^2"))
    payload = [[a, b, results[(a, b)].median_rtt, results[(a, b)].received]
               for a, b in pairs]
    return _single(window, horizon, system, checks, payload,
                   rtt_err_ms2=mse)


# ---------------------------------------------------------------------------
# campaign-sweep: the same layers warm, through the collapse memo.
# ---------------------------------------------------------------------------
def campaign_inputs(rng: random.Random, size: Dict) -> Dict:
    return {"topology_seed": rng.randrange(2 ** 31),
            "pairs": _pick_pairs(rng, _end_nodes(size["elements"]),
                                 size["pairs"]),
            "first_seed": rng.randrange(2 ** 20)}


def campaign_sweep(inputs: Dict, size: Dict, window: Window) -> Outcome:
    from repro.campaign import Campaign
    from repro.scenario import ping
    from repro.scenario.topologies import scale_free

    pairs, pings = inputs["pairs"], size["pings"]

    def point(*, backbone: float, hosts: int, seed: int):
        builder = scale_free(size["elements"], seed=inputs["topology_seed"],
                             backbone_bandwidth=backbone)
        for a, b in pairs:
            builder.workload(ping(a, b, count=pings,
                                  interval=PING_INTERVAL_S, key=(a, b)))
        return builder.deploy(machines=hosts, seed=seed,
                              enforce_bandwidth_sharing=False,
                              duration=pings * PING_INTERVAL_S + 1.0)

    first_done: List[float] = []

    def progress(event) -> None:
        if event.kind != "start" and not first_done:
            first_done.append(time.perf_counter())

    seeds = [inputs["first_seed"] + index for index in range(size["seeds"])]
    window.start()
    sweep = (Campaign("perfbench-sweep")
             .scenario(point)
             .grid(backbone=list(size["backbone"]), hosts=list(size["hosts"]))
             .seeds(seeds)
             .run(jobs=1, progress=progress))
    window.stop()
    # Set-up of a sweep: everything until its first point is done, i.e.
    # expansion plus the cold first point.
    window.setup_done = first_done[0] if first_done else window.stopped

    reference = reference_rtts(
        point(backbone=size["backbone"][0], hosts=size["hosts"][0],
              seed=0).compile().topology, pairs)
    checks: List[Check] = []
    squared: List[float] = []
    payload = []
    engines = []
    emulated = 0.0
    failed_points = 0
    for result in sweep:
        if result.status != "ok":
            failed_points += 1
            checks.append(Check(f"point {result.point.describe()} status ok",
                                False, f"{result.status}: {result.error}"))
            continue
        point_checks, point_squared = ping_checks(
            f"point {result.point.index}", result.run.results, reference)
        checks.extend(point_checks)
        squared.extend(point_squared)
        failed_points += not all(check.passed for check in point_checks)
        engines.append(result.run.engine)
        emulated += result.run.until
        payload.append([result.point.params_dict(), result.point.seed,
                        [result.run[pair].median_rtt for pair in pairs]])
    return Outcome(
        window=window, emulated_s=emulated,
        attempted=max(1, len(sweep)), checks=checks,
        payload=payload, engines=engines,
        metadata_bytes=sum(engine.total_metadata_wire_bytes()
                           for engine in engines),
        rtt_err_ms2=statistics.fmean(squared) if squared else float("nan"),
        campaign={"points": float(len(sweep)),
                  "point_seconds": sum(result.elapsed for result in sweep)},
        failed_units=failed_points)


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "dumbbell-loop": (dumbbell_inputs, dumbbell_loop),
    "memtier-packet": (memtier_inputs, memtier_packet),
    "scalefree-setup": (scalefree_inputs, scalefree_setup),
    "campaign-sweep": (campaign_inputs, campaign_sweep),
}


def generate_inputs(name: str, seed: int, profile: str = "full") -> Dict:
    """The workload's inputs for ``seed``: a plain, comparable dict."""
    make_inputs, _run = WORKLOADS[name]
    return make_inputs(random.Random(f"{name}:{seed}"),
                       PROFILES[name][profile])


def run_workload(name: str, seed: int, profile: str = "full",
                 window: Optional[Window] = None) -> Outcome:
    _inputs, run = WORKLOADS[name]
    return run(generate_inputs(name, seed, profile), PROFILES[name][profile],
               window or Window())
