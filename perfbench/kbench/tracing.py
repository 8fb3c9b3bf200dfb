"""Per-layer attribution from outside the program.

A traced iteration wraps the public entry points of each layer (plus the
few private callbacks the fluid plane and the apps offer as their only
entry points) with timing wrappers that keep a stack of open calls.  A
layer's *self* time is the time inside its wrappers minus the time inside
wrappers nested in them, so the self times of all layers plus the
unattributed remainder of the timed window add up to its wall time
exactly.  Calls on the per-chain hot path (``EmulationCore.restore`` /
``enforce`` / ``sample_usage``) are only counted, never timed, so their
cost stays inside the manager loop that calls them.

:meth:`Attribution.install` patches classes and every ``repro`` module
that bound a wrapped function by name; :meth:`Attribution.restore` puts
every original back.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from kbench.workloads import Window

LAYERS: Tuple[str, ...] = ("scenario", "collapse", "engine", "sim",
                           "manager", "sharing", "fluid", "dataplane",
                           "apps", "campaign")

# (module, owner class or None for a module function, attribute, layer).
TIMED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.scenario.builder", "Scenario", "compile", "scenario"),
    ("repro.core.collapse", None, "collapse", "collapse"),
    ("repro.core.engine", "EmulationEngine", "__init__", "engine"),
    ("repro.tc.tcal", "Tcal", "install_destination", "engine"),
    ("repro.sim.simulator", "Simulator", "run", "sim"),
    ("repro.core.manager", "EmulationManager", "run_loop_iteration",
     "manager"),
    ("repro.core.sharing", None, "rtt_aware_max_min", "sharing"),
    ("repro.netstack.fluid.engine", "FluidEngine", "_step", "fluid"),
    ("repro.netstack.kollapsnet", "KollapsDataPlane", "send", "dataplane"),
    ("repro.tc.tcal", "Tcal", "egress", "dataplane"),
    ("repro.apps.kvstore", "KvServer", "handle", "apps"),
    ("repro.apps.kvstore", "MemtierClient", "_issue", "apps"),
    ("repro.apps.kvstore", "MemtierClient", "_on_response", "apps"),
    ("repro.apps.kvstore", "MemtierClient", "_on_drop", "apps"),
    ("repro.apps.ping", "Pinger", "_send_next", "apps"),
    ("repro.apps.ping", "Pinger", "_on_request_delivered", "apps"),
    ("repro.apps.ping", "Pinger", "_on_reply", "apps"),
    ("repro.apps.ping", "Pinger", "_on_lost", "apps"),
    ("repro.campaign.builder", "Campaign", "run", "campaign"),
)


def _restore_is_noop(core, destination: str, bandwidth: float,
                     loss: float) -> bool:
    """Whether a restore would leave the chain as it already is."""
    try:
        shaping = core.tcal.shaping_for(destination)
    except KeyError:
        return True
    return shaping.htb.rate == bandwidth and shaping.netem.loss == loss


# (module, class, method, no-op predicate or None): counted, not timed.
COUNTED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.emucore", "EmulationCore", "restore", _restore_is_noop),
    ("repro.core.emucore", "EmulationCore", "enforce", None),
    ("repro.core.emucore", "EmulationCore", "sample_usage", None),
)


class Attribution:
    """Timing wrappers, their stack, and what they measured."""

    def __init__(self) -> None:
        self.active = False
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers
    def timed(self, layer: str, key: str, function: Callable) -> Callable:
        stack, self_s = self.stack, self.self_s
        inclusive, calls = self.inclusive, self.calls
        clock = time.perf_counter
        state = self

        def wrapper(*args, **kwargs):
            if not state.active:
                return function(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                inclusive[key] += elapsed
                calls[key] += 1
                stack[-1][0] += elapsed

        return _mark(wrapper, function)

    def counted(self, key: str, function: Callable,
                is_noop: Optional[Callable] = None) -> Callable:
        """Count calls; with ``is_noop``, also count the calls it judges
        to change nothing (checked before the call runs)."""
        counts = self.counts
        state = self
        noop_key = f"{key}_noop"

        def wrapper(*args, **kwargs):
            if state.active:
                counts[key] += 1
                if is_noop is not None and is_noop(*args, **kwargs):
                    counts[noop_key] += 1
            return function(*args, **kwargs)

        return _mark(wrapper, function)

    # ------------------------------------------------------------ patching
    def _set(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every listed entry point (idempotent per instance)."""
        if self._patches:
            return
        for module_name, owner_name, name, layer in TIMED:
            module = importlib.import_module(module_name)
            key = f"{layer}.{name.strip('_')}"
            if owner_name is None:
                original = getattr(module, name)
                wrapper = self.timed(layer, key, original)
                # Every repro module that imported the function by name.
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") \
                            and getattr(loaded, name, None) is original:
                        self._set(loaded, name, wrapper)
            else:
                owner = getattr(module, owner_name)
                self._set(owner, name,
                          self.timed(layer, key, owner.__dict__[name]))
        for module_name, owner_name, name, is_noop in COUNTED:
            owner = getattr(importlib.import_module(module_name), owner_name)
            self._set(owner, name, self.counted(name, owner.__dict__[name],
                                                is_noop))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -------------------------------------------------------------- window
    def window(self) -> "TracedWindow":
        return TracedWindow(self)


def _mark(wrapper: Callable, function: Callable) -> Callable:
    wrapper.__wrapped__ = function
    wrapper.__name__ = getattr(function, "__name__", "wrapper")
    wrapper.kbench_wrapper = True
    return wrapper


def leaked_wrappers() -> List[str]:
    """Every attribute of a loaded repro module or class that is still one
    of this module's wrappers (empty after :meth:`Attribution.restore`)."""
    leaks = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if getattr(value, "kbench_wrapper", False):
                leaks.append(f"{name}.{attribute}")
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    if getattr(inner, "kbench_wrapper", False):
                        leaks.append(f"{name}.{attribute}.{member}")
    return leaks


class TracedWindow(Window):
    """A timed window that is also the root of the attribution."""

    repeat_setup = False

    def __init__(self, attribution: Attribution) -> None:
        super().__init__()
        self.attribution = attribution

    def start(self) -> None:
        attribution = self.attribution
        attribution.stack.append([0.0])
        attribution.active = True
        super().start()

    def stop(self) -> None:
        super().stop()
        attribution = self.attribution
        attribution.active = False
        root = attribution.stack.pop()
        attribution.self_s["unattributed"] += self.wall_s - root[0]


def layer_metrics(attribution: Attribution, outcome, counters: Dict
                  ) -> Dict[str, float]:
    """The per-layer table of one traced iteration."""
    engines = outcome.engines
    calls, inclusive, counts = (attribution.calls, attribution.inclusive,
                                attribution.counts)

    def counter(name: str) -> float:
        return float(counters.get(name, {}).get("value", 0.0))

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    tcals = [tcal for engine in engines for tcal in engine.tcals.values()]
    drivers = [driver for engine in engines
               for driver in engine.drivers.values()]
    planes = [engine.dataplane for engine in engines]
    events = sum(engine.sim.events_dispatched for engine in engines)
    packets = calls["dataplane.send"]
    wire_bytes = sum(driver.stats.wire_bytes_sent() for driver in drivers)
    reuses = counter("sharing.matrix_reuses")
    builds = counter("sharing.matrix_builds")
    metrics = {
        "scenario.compile_s": inclusive["scenario.compile"],
        "collapse.s": inclusive["collapse.collapse"],
        "collapse.calls": float(calls["collapse.collapse"]),
        "collapse.pairs": counter("collapse.pairs"),
        "collapse.memo_hit_share": share(
            counter("collapse.memo_hits")
            + counter("collapse.incremental_recomputes"),
            calls["collapse.collapse"]),
        "engine.install_s": inclusive["engine.install_destination"],
        "engine.chains_installed": float(
            calls["engine.install_destination"]),
        "engine.state_swaps": counter("engine.state_swaps"),
        "sim.events": float(events),
        "sim.events_per_s": share(events, inclusive["sim.run"]),
        "manager.loops": float(sum(manager.loops for engine in engines
                                   for manager in engine.managers.values())),
        "manager.loop_s": inclusive["manager.run_loop_iteration"],
        "emucore.restores": float(counts["restore"]),
        "emucore.restore_noop_share": share(counts["restore_noop"],
                                            counts["restore"]),
        "emucore.enforces": float(counts["enforce"]),
        "emucore.samples": float(counts["sample_usage"]),
        "tc.netlink_calls": float(sum(tcal.netlink_calls for tcal in tcals)),
        "sharing.solver_calls": float(calls["sharing.rtt_aware_max_min"]),
        "sharing.solver_s": inclusive["sharing.rtt_aware_max_min"],
        "sharing.matrix_reuse_share": share(reuses, reuses + builds),
        "fluid.steps": float(calls["fluid.step"]),
        "fluid.step_s": inclusive["fluid.step"],
        "metadata.messages": float(sum(
            driver.stats.datagrams_sent + driver.stats.shared_memory_messages
            for driver in drivers)),
        "metadata.wire_bytes": float(wire_bytes),
        "metadata.wire_Bps": share(wire_bytes, outcome.emulated_s),
        "dataplane.packets": float(packets),
        "dataplane.send_s": inclusive["dataplane.send"],
        "dataplane.egress_s": inclusive["dataplane.egress"],
        "dataplane.backpressure_share": share(
            sum(plane.backpressure_events for plane in planes), packets),
        "dataplane.drop_share": share(
            sum(plane.packets_dropped for plane in planes), packets),
        "apps.requests": float(calls["apps.issue"] + calls["apps.send_next"]),
        "campaign.points": outcome.campaign.get("points", 0.0),
        "campaign.overhead_s": (
            inclusive["campaign.run"]
            - outcome.campaign.get("point_seconds", 0.0)
            if calls["campaign.run"] else 0.0),
        "trace.unattributed_s": attribution.self_s["unattributed"],
        "trace.wall_s": outcome.wall_s,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = attribution.self_s[layer]
    return metrics
