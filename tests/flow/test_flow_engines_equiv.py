"""The production max-flow against its golden reference.

Property tests over deterministic random networks plus the Figure-3
rounding networks: the flat-array iterative Dinic (`repro.flow.arrays`)
and the recursive edge-object golden path (`repro.flow.dinic`), each
constructed directly, must compute exactly the same max-flow value, each
conserving flow and certifying optimality with its own min cut — and
both must enforce the same validation contract (negative capacities,
self-loops, out-of-range endpoints) with identical messages.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.flow import ArrayFlowNetwork, FlowNetwork, build_rounding_network

#: The production network class and the golden reference, by label.
NETWORKS = {"array": ArrayFlowNetwork, "scalar": FlowNetwork}


def _random_network(trial: int):
    """A deterministic random digraph; returns ``(num_nodes, s, t, edges)``."""
    digest = hashlib.sha256(f"flow#{trial}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:4], "little"))
    num_nodes = int(rng.integers(4, 14))
    edges = []
    for _ in range(int(rng.integers(num_nodes, 5 * num_nodes))):
        u, v = (int(z) for z in rng.integers(0, num_nodes, size=2))
        if u != v:
            edges.append((u, v, int(rng.integers(0, 9))))
    return num_nodes, 0, num_nodes - 1, edges


def _solve(network_cls, num_nodes: int, s: int, t: int, edges):
    net = network_cls(num_nodes)
    for u, v, c in edges:
        net.add_edge(u, v, c)
    return net, net.max_flow(s, t)


@pytest.mark.parametrize("trial", range(40))
def test_engines_agree_on_random_networks(trial):
    num_nodes, s, t, edges = _random_network(trial)
    values = {}
    for engine, network_cls in NETWORKS.items():
        net, value = _solve(network_cls, num_nodes, s, t, edges)
        values[engine] = value
        assert net.check_flow_conservation(s, t), f"{engine}: conservation"
        cut = net.min_cut_side(s)
        assert t not in cut
        cut_cap = sum(
            e.capacity for e in net.edges if e.src in cut and e.dst not in cut
        )
        assert cut_cap == value, f"{engine}: cut {cut_cap} != flow {value}"
    assert values["array"] == values["scalar"], f"trial {trial}: {values}"


@pytest.mark.parametrize("trial", range(10))
def test_engines_agree_on_rounding_networks(trial):
    """Figure-3-shaped bipartite networks through the real builder.

    The builder's network is replayed edge for edge onto the golden
    :class:`FlowNetwork`, which must find the same max-flow value.
    """
    digest = hashlib.sha256(f"round#{trial}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:4], "little"))
    n, m = int(rng.integers(2, 8)), int(rng.integers(1, 5))
    jobs = list(range(n))
    demands = {j: int(rng.integers(0, 6)) for j in jobs}
    pair_caps = {
        (j, i): int(rng.integers(1, 6))
        for j in jobs
        for i in range(m)
        if rng.random() < 0.6
    }
    machine_cap = int(rng.integers(1, 12))
    net = build_rounding_network(
        jobs=jobs,
        demands=demands,
        pair_caps=pair_caps,
        machine_cap=machine_cap,
        num_machines=m,
    )
    value = net.solve()
    x = net.extract_x(m, n)
    assert int(x.sum()) == value
    for (j, i), cap in pair_caps.items():
        assert 0 <= x[i, j] <= cap
    assert np.all(x.sum(axis=1) <= machine_cap)
    golden = FlowNetwork(net.network.num_nodes)
    for e in net.network.edges:
        golden.add_edge(e.src, e.dst, e.capacity)
    golden_value = golden.max_flow(net.source, net.sink)
    assert value == golden_value, f"trial {trial}: array {value} vs {golden_value}"


class TestFacadeContract:
    """The constructor and validation contract both network classes share."""

    @pytest.mark.parametrize(
        "bad_edge, message",
        [
            ((0, 1, -3), "capacity must be >= 0"),
            ((2, 2, 1), "self-loops are not allowed"),
            ((0, 9, 1), r"edge \(0, 9\) out of range"),
        ],
    )
    def test_validation_messages_identical_across_engines(self, bad_edge, message):
        """Both engines reject bad edges with byte-identical messages."""
        errors = {}
        for engine, network_cls in NETWORKS.items():
            net = network_cls(4)
            with pytest.raises(ValidationError, match=message) as exc_info:
                net.add_edge(*bad_edge)
            errors[engine] = str(exc_info.value)
        assert errors["array"] == errors["scalar"]

    def test_same_source_sink_rejected_identically(self):
        errors = {}
        for engine, network_cls in NETWORKS.items():
            net = network_cls(3)
            with pytest.raises(ValidationError, match="source and sink") as exc_info:
                net.max_flow(1, 1)
            errors[engine] = str(exc_info.value)
        assert errors["array"] == errors["scalar"]

    def test_negative_node_count_rejected_identically(self):
        for network_cls in NETWORKS.values():
            with pytest.raises(ValidationError, match="num_nodes must be >= 0"):
                network_cls(-1)
