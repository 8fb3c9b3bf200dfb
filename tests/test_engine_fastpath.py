"""The vectorized engine core: backend equivalence and collapse memoization.

Two families of guarantees from docs/performance.md are pinned here:

* the numpy and python solver backends are interchangeable — identical
  allocations within 1e-9 relative on hand-built problems, hypothesis-
  generated problems and whole fuzz-corpus scenarios, and identical paper
  Figure-8 stage values;
* the collapse memo's three tiers (hit / incremental re-property / full
  recompute) trigger exactly when the structural topology signature says
  they should, observed through the telemetry counters the production
  code maintains.
"""

import importlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core import (FlowDemand, clear_collapse_cache, collapse,
                        collapse_cache_stats, rtt_aware_max_min,
                        solver_backend, topology_signature)
from repro.core import sharing
from repro.core.sharing import clear_matrix_cache
from repro.scenario.dsl.fuzz import fuzz_corpus
from repro.scenario.topologies import scale_free

# The package re-exports the collapse() function under the module's name.
collapse_module = importlib.import_module("repro.core.collapse")

MBPS = 1e6

HAVE_NUMPY = True
try:
    import numpy  # noqa: F401  (presence probe only)
except ImportError:
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy not installed")


@pytest.fixture(autouse=True)
def _clean_backend_state():
    """Every test starts and ends with empty caches."""
    clear_collapse_cache()
    clear_matrix_cache()
    yield
    clear_collapse_cache()
    clear_matrix_cache()
    telemetry.disable()
    telemetry.metrics.clear()


def solve_with(backend, flows, capacities):
    """Run one backend directly, bypassing the size-based selection."""
    solve = {"python": sharing._python_max_min,
             "numpy": sharing._numpy_max_min}[backend]
    allocation, _rounds = solve(flows, capacities)
    return allocation


def assert_allocations_agree(first, second, *, rel=1e-9):
    assert set(first) == set(second)
    for key, value in first.items():
        scale = max(abs(value), 1.0)
        assert abs(second[key] - value) <= rel * scale, (
            key, value, second[key])


# ---------------------------------------------------------------------------
# Backend selection.
# ---------------------------------------------------------------------------

class TestBackendSelection:
    @needs_numpy
    def test_auto_prefers_numpy(self):
        assert solver_backend() == "numpy"

    def test_falls_back_to_python_without_numpy(self, monkeypatch):
        """The no-numpy platform path: selection degrades, solves still
        run, and no membership matrix is ever built."""
        monkeypatch.setattr(sharing, "_numpy", lambda: None)
        assert solver_backend() == "python"
        telemetry.metrics.clear()
        telemetry.enable()
        flows = [FlowDemand(f"f{i}", 0.01, (0,), path_bandwidth=MBPS)
                 for i in range(2 * sharing._VECTORIZE_MIN_FLOWS)]
        allocation = rtt_aware_max_min(flows, {0: MBPS})
        assert sum(allocation.values()) == pytest.approx(MBPS)
        assert telemetry.metrics.counter("sharing.matrix_builds").value == 0

    @needs_numpy
    def test_tiny_problems_stay_scalar_in_auto_mode(self):
        """Under the vectorization threshold, selection must not pay numpy
        array-setup costs: no membership matrix is built."""
        telemetry.metrics.clear()
        telemetry.enable()
        flows = [FlowDemand("f", 0.01, (0,), path_bandwidth=MBPS)]
        rtt_aware_max_min(flows, {0: MBPS})
        assert telemetry.metrics.counter("sharing.matrix_builds").value == 0
        solve_with("numpy", flows, {0: MBPS})   # the numpy path builds one
        assert telemetry.metrics.counter("sharing.matrix_builds").value == 1


# ---------------------------------------------------------------------------
# numpy/python equivalence.
# ---------------------------------------------------------------------------

@st.composite
def allocation_problem(draw):
    """Like the strategy in test_core_sharing, plus finite demands and
    enough flows to exercise the vectorized path proper."""
    link_count = draw(st.integers(min_value=1, max_value=8))
    capacities = {i: draw(st.floats(min_value=0.5 * MBPS,
                                    max_value=200 * MBPS))
                  for i in range(link_count)}
    flow_count = draw(st.integers(min_value=1, max_value=16))
    flows = []
    for index in range(flow_count):
        path_length = draw(st.integers(min_value=1, max_value=link_count))
        path = tuple(draw(st.permutations(range(link_count)))[:path_length])
        rtt = draw(st.floats(min_value=0.001, max_value=0.5))
        demand = draw(st.one_of(
            st.just(float("inf")),
            st.floats(min_value=0.1 * MBPS, max_value=100 * MBPS)))
        flows.append(FlowDemand(
            f"f{index}", rtt, path, demand=demand,
            path_bandwidth=min(capacities[i] for i in path)))
    return flows, capacities


@needs_numpy
class TestBackendEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(allocation_problem())
    def test_backends_agree_on_random_problems(self, problem):
        flows, capacities = problem
        assert_allocations_agree(solve_with("python", flows, capacities),
                                 solve_with("numpy", flows, capacities))

    def test_backends_agree_on_fuzz_corpus(self):
        """Whole generated scenarios: collapse each fuzz topology, build
        one saturating FlowDemand per container pair, solve both ways."""
        compared = 0
        for builder in fuzz_corpus(seed=7, count=6):
            topology = builder.compile().topology
            collapsed = collapse(topology, memo=False)
            capacities = {
                link.link_id: link.properties.bandwidth
                for link in topology.links()
                if link.properties.bandwidth != float("inf")}
            flows = []
            for path in collapsed.paths():
                flows.append(FlowDemand(
                    (path.source, path.destination),
                    collapsed.rtt(path.source, path.destination),
                    path.link_ids,
                    path_bandwidth=path.properties.bandwidth))
            if not flows:
                continue
            assert_allocations_agree(
                solve_with("python", flows, capacities),
                solve_with("numpy", flows, capacities))
            compared += len(flows)
        assert compared > 0

    def test_figure8_stages_identical_across_backends(self):
        """The §5.4 schedule — the repo's golden allocation — must not
        depend on which backend solved it."""
        from test_core_sharing import (SECTION54_CAPACITIES, section54_flows)
        stages = [["c1"], ["c1", "c2"], ["c1", "c2", "c3"],
                  ["c1", "c2", "c3", "c4"],
                  ["c1", "c2", "c3", "c4", "c5"],
                  ["c1", "c2", "c3", "c4", "c5", "c6"]]
        for active in stages:
            flows = section54_flows(active)
            assert_allocations_agree(
                solve_with("python", flows, SECTION54_CAPACITIES),
                solve_with("numpy", flows, SECTION54_CAPACITIES))

    def test_duplicate_link_traversal_counted_twice(self):
        """A path crossing the same link twice consumes double capacity on
        it — both backends must account the repeat occurrence."""
        flows = [FlowDemand("loop", 0.02, (0, 1, 0),
                            path_bandwidth=float("inf"))] * 1
        flows = flows + [FlowDemand(f"pad{i}", 0.02, (1,),
                                    path_bandwidth=float("inf"))
                         for i in range(9)]       # clear the threshold
        capacities = {0: 10 * MBPS, 1: 100 * MBPS}
        python = solve_with("python", flows, capacities)
        vectorized = solve_with("numpy", flows, capacities)
        assert_allocations_agree(python, vectorized)
        assert python["loop"] == pytest.approx(5 * MBPS, rel=1e-6)


# ---------------------------------------------------------------------------
# Collapse memoization.
# ---------------------------------------------------------------------------

def counter(name):
    return telemetry.metrics.counter(name).value


@pytest.fixture
def traced():
    telemetry.metrics.clear()
    telemetry.enable()
    yield
    telemetry.disable()
    telemetry.metrics.clear()


def small_topology(seed=3):
    return scale_free(40, seed=seed).compile().topology


class TestCollapseMemo:
    def test_structural_copy_is_a_hit(self, traced):
        topology = small_topology()
        collapse(topology)
        recomputes = counter("collapse.recomputes")
        twin = topology.copy()
        assert topology_signature(twin) == topology_signature(topology)
        collapse(twin)
        assert counter("collapse.memo_hits") == 1
        assert counter("collapse.recomputes") == recomputes

    def test_hit_shares_the_path_table(self, traced):
        topology = small_topology()
        first = collapse(topology)
        second = collapse(topology.copy())
        assert second.path is not None
        for path in first.paths():
            assert second.path(path.source, path.destination) is path

    def test_bandwidth_only_change_recomposes_incrementally(self, traced):
        topology = small_topology()
        baseline = collapse(topology)
        recomputes = counter("collapse.recomputes")
        # Halve a link that is some path's bottleneck, so the change is
        # observable in the collapsed table.
        by_id = {link.link_id: link for link in topology.links()}
        target = next(
            by_id[link_id]
            for path in baseline.paths() for link_id in path.link_ids
            if by_id[link_id].properties.bandwidth
            == path.properties.bandwidth)
        mutated = topology.copy()
        mutated.update_link(target.source, target.destination,
                            bandwidth=target.properties.bandwidth / 2)
        fresh = collapse(mutated)
        assert counter("collapse.incremental_recomputes") == 1
        assert counter("collapse.recomputes") == recomputes   # no Dijkstra
        # The incremental result must equal a genuine cold collapse.
        cold = collapse(mutated, memo=False)
        for path in cold.paths():
            twin = fresh.path(path.source, path.destination)
            assert twin.properties == path.properties
            assert twin.link_ids == path.link_ids

    def test_latency_change_recomputes_fully(self, traced):
        topology = small_topology()
        collapse(topology)
        recomputes = counter("collapse.recomputes")
        mutated = topology.copy()
        link = next(iter(mutated.links()))
        mutated.update_link(link.source, link.destination,
                            latency=link.properties.latency * 3)
        collapse(mutated)
        assert counter("collapse.recomputes") == recomputes + 1
        assert counter("collapse.incremental_recomputes") == 0

    def test_cache_is_bounded_lru(self, traced, monkeypatch):
        monkeypatch.setattr(collapse_module, "_CACHE_CAPACITY", 2)
        assert collapse_cache_stats()["capacity"] == 2
        topologies = [small_topology(seed=index) for index in range(3)]
        for topology in topologies:
            collapse(topology)
        assert collapse_cache_stats()["entries"] == 2
        assert counter("collapse.memo_invalidations") == 1
        # The oldest entry was evicted: collapsing it again is a miss.
        hits = counter("collapse.memo_hits")
        collapse(topologies[0])
        assert counter("collapse.memo_hits") == hits

    def test_zero_capacity_disables_memoization(self, traced, monkeypatch):
        monkeypatch.setattr(collapse_module, "_CACHE_CAPACITY", 0)
        topology = small_topology()
        collapse(topology)
        collapse(topology)
        assert counter("collapse.memo_hits") == 0
        assert counter("collapse.recomputes") == 2
        assert collapse_cache_stats()["entries"] == 0

    def test_clear_turns_hits_back_into_misses(self, traced):
        topology = small_topology()
        collapse(topology)
        clear_collapse_cache()
        assert collapse_cache_stats()["entries"] == 0
        recomputes = counter("collapse.recomputes")
        collapse(topology)
        assert counter("collapse.recomputes") == recomputes + 1

    def test_memo_false_neither_reads_nor_populates(self, traced):
        topology = small_topology()
        collapse(topology, memo=False)
        assert collapse_cache_stats()["entries"] == 0
        collapse(topology, memo=False)
        assert counter("collapse.memo_hits") == 0
        assert counter("collapse.recomputes") == 2

    def test_sources_restriction_keyed_separately(self, traced):
        """A restricted collapse must not satisfy an unrestricted one."""
        topology = small_topology()
        source = topology.container_names()[0]
        partial = collapse(topology, sources=[source])
        full = collapse(topology)
        assert full.pair_count() > partial.pair_count()
