"""Property tests for the multipath extension on random topologies."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collapse import collapse
from repro.core.multipath import k_shortest_paths, multipath_collapse
from repro.scenario import topologies


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50),
       k=st.integers(min_value=1, max_value=4))
def test_paths_sorted_by_latency(seed, k):
    topology = topologies.scale_free(40, seed=seed).compile().topology
    containers = topology.container_names()
    source, destination = containers[0], containers[-1]
    paths = k_shortest_paths(topology, source, destination, k)
    latencies = [sum(link.properties.latency for link in path)
                 for path in paths]
    assert latencies == sorted(latencies)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50))
def test_first_path_matches_plain_collapse(seed):
    topology = topologies.scale_free(40, seed=seed).compile().topology
    containers = topology.container_names()
    source, destination = containers[0], containers[-1]
    paths = k_shortest_paths(topology, source, destination, 1)
    collapsed = collapse(topology)
    single = collapsed.require_path(source, destination)
    assert tuple(link.link_id for link in paths[0]) == single.link_ids


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50),
       k=st.integers(min_value=2, max_value=4))
def test_multipath_bandwidth_at_least_single_path(seed, k):
    topology = topologies.scale_free(40, seed=seed).compile().topology
    containers = topology.container_names()
    source, destination = containers[0], containers[-1]
    single = multipath_collapse(topology, source, destination, k=1)
    multi = multipath_collapse(topology, source, destination, k=k)
    assert multi.bandwidth >= single.bandwidth - 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50))
def test_paths_distinct(seed):
    topology = topologies.scale_free(40, seed=seed).compile().topology
    containers = topology.container_names()
    source, destination = containers[0], containers[-1]
    paths = k_shortest_paths(topology, source, destination, 4)
    signatures = [tuple(link.link_id for link in path) for path in paths]
    assert len(signatures) == len(set(signatures))
