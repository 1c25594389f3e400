import math
import statistics

import numpy as np
import pytest

import twinopt as t
from twinopt import generators

import helpers


def test_gen_er_degenerate_probabilities():
    assert len(t.gen_er(5, 0.0, 1).edges) == 0
    assert len(t.gen_er(5, 1.0, 1).edges) == 10


def test_gen_er_edge_count_within_four_sigma():
    graph = t.gen_er(200, 0.5, seed=3)
    pairs = 200 * 199 // 2
    mean, sigma = pairs * 0.5, math.sqrt(pairs * 0.25)
    assert abs(len(graph.edges) - mean) <= 4 * sigma


@pytest.mark.parametrize("n, p", [(1448, 0.01), (1449, 0.01), (2100, 0.002)])
def test_gen_er_equals_whole_triangle_reference(n, p):
    # 1448 nodes are one block of 2**20 pairs, 1449 two and 2100 three
    for seed in (0, 5):
        assert t.gen_er(n, p, seed).edges == helpers.whole_triangle_er_edges(n, p, seed)


@pytest.mark.parametrize("block", [1, 2, 3, 7, 64])
def test_gen_er_equals_whole_triangle_reference_at_tiny_blocks(block, monkeypatch):
    # blocks end inside rows, at row ends and past several rows
    monkeypatch.setattr(generators, "_ER_PAIRS", block)
    for n in (0, 1, 2, 3, 8, 15, 40):
        for p in (0.0, 0.3, 1.0):
            assert t.gen_er(n, p, n).edges == helpers.whole_triangle_er_edges(n, p, n)


def test_gen_er_rejects_bad_probability():
    with pytest.raises(t.ContractViolation):
        t.gen_er(5, 1.5, 1)


def test_gen_ba_seed_clique_only():
    graph = t.gen_ba(4, 4, 2, seed=1)
    assert len(graph.edges) == 6


def test_gen_ba_edge_count_formula():
    graph = t.gen_ba(100, 2, 2, seed=5)
    assert len(graph.edges) == 1 + 98 * 2
    # attachment targets are distinct per newcomer
    seen = set()
    for u, v, _ in graph.edges:
        assert (u, v) not in seen
        seen.add((u, v))


def test_gen_ba_heavy_tail():
    hits = 0
    for seed in range(10):
        graph = t.gen_ba(2000, 3, 3, seed=seed)
        deg = [0] * 2000
        for u, v, _ in graph.edges:
            deg[u] += 1
            deg[v] += 1
        if max(deg) >= 3 * statistics.median(deg):
            hits += 1
    assert hits == 10


def test_gen_ba_rejects_bad_shape():
    with pytest.raises(t.ContractViolation):
        t.gen_ba(5, 6, 2, seed=0)
    with pytest.raises(t.ContractViolation, match="m0 >= 2"):
        t.gen_ba(5, 1, 1, seed=0)  # a one-node seed clique has no edge to attach to
    assert t.gen_ba(1, 1, 1, seed=0).edges == []


def test_assign_weights_constant_when_lo_equals_hi():
    graph = t.assign_weights_uniform(t.gen_er(6, 1.0, 1), 0.7, 0.7, 2)
    assert all(w == 0.7 for _, _, w in graph.edges)


def test_assign_weights_mean_within_four_sigma():
    graph = t.assign_weights_uniform(t.gen_er(150, 1.0, 1), 0.0, 1.0, 9)
    n = len(graph.edges)
    mean = sum(w for _, _, w in graph.edges) / n
    sigma = math.sqrt(1.0 / 12.0 / n)
    assert abs(mean - 0.5) <= 4 * sigma


def test_assign_weights_deterministic():
    base = t.gen_er(30, 0.5, 4)
    a = t.assign_weights_uniform(base, 0.0, 1.0, 11)
    b = t.assign_weights_uniform(base, 0.0, 1.0, 11)
    assert a.edges == b.edges


def test_assign_groups_single_part_and_determinism():
    assert t.assign_groups(10, 1, 0) == [0] * 10
    assert t.assign_groups(50, 4, 3) == t.assign_groups(50, 4, 3)


def test_assign_groups_sizes_within_four_sigma():
    parts = t.assign_groups(5000, 5, seed=8)
    sigma = math.sqrt(5000 * 0.2 * 0.8)
    for part in range(5):
        assert abs(parts.count(part) - 1000) <= 4 * sigma


def test_set_indegree_probabilities():
    graph = t.WeightedGraph(4, [(0, 3, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
                            directed=True)
    probed = t.set_indegree_probabilities(graph)
    into = {}
    for u, v, p in probed.edges:
        into.setdefault(v, []).append(p)
    assert into[3] == [1.0 / 3.0] * 3
    assert into[0] == [1.0]
    assert all(abs(sum(ps) - 1.0) < 1e-12 for ps in into.values())


def test_gen_rr_sets_edgeless_singletons():
    graph = t.WeightedGraph(6, [], directed=True)
    z = t.gen_rr_sets(graph, 40, seed=2)
    assert all(m.bit_count() == 1 for m in z.sets)


def test_gen_rr_sets_full_reverse_reachability():
    graph = t.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    z = t.gen_rr_sets(graph, 200, seed=3)
    for m in z.sets:
        if (m >> 2) & 1:  # root c: everything reaches it
            assert m == 0b111


def test_gen_rr_sets_two_node_closed_form():
    # root b w.p. 1/2 times live edge w.p. 1/2 puts both nodes in R
    graph = t.WeightedGraph(2, [(0, 1, 0.5)], directed=True)
    z = t.gen_rr_sets(graph, 100_000, seed=4)
    frac = sum(1 for m in z.sets if m == 0b11) / len(z.sets)
    assert abs(frac - 0.25) <= 0.01


def test_gen_rr_sets_deterministic():
    graph = t.WeightedGraph(4, [(0, 1, 0.4), (2, 3, 0.7), (1, 2, 0.6)], directed=True)
    assert t.gen_rr_sets(graph, 300, seed=5).sets == t.gen_rr_sets(graph, 300, seed=5).sets


def test_gen_rr_sets_marginals_match_enumeration():
    # P(x in R) equals exact_spread({x}) / n; compare per node at 3 sigma
    graph = t.WeightedGraph(5, [(0, 1, 0.5), (1, 2, 0.4), (2, 0, 0.7), (3, 2, 0.6),
                                (2, 4, 0.5), (4, 3, 0.3), (0, 3, 0.2), (1, 4, 0.8)],
                            directed=True)
    n_samples = 100_000
    z = t.gen_rr_sets(graph, n_samples, seed=6)
    for x in range(5):
        exact = t.ic_exact_spread(graph, 1 << x) / 5
        got = sum(1 for m in z.sets if (m >> x) & 1) / n_samples
        sigma = math.sqrt(exact * (1 - exact) / n_samples)
        assert abs(got - exact) <= 3 * sigma


def _bidirected(graph):
    edges = graph.edges + [(v, u, w) for u, v, w in graph.edges]
    return t.WeightedGraph(graph.n_nodes, edges, directed=True)


def _complete_digraph(n, p):
    return t.WeightedGraph(n, [(u, v, p) for u in range(n) for v in range(n) if u != v],
                           directed=True)


# graphs on which the block-drawn sampler must match the scalar reference
RR_GRID = {
    # node 0 has no in-edges; every coin is certain except one
    "p-zero-or-one": t.WeightedGraph(5, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0), (3, 1, 0.5),
                                         (4, 3, 0.0), (2, 4, 1.0)], directed=True),
    "self-loop-and-duplicate": t.WeightedGraph(4, [(0, 1, 0.3), (0, 1, 0.3), (2, 2, 0.7),
                                                   (2, 1, 0.6), (1, 3, 0.9), (3, 2, 0.4)],
                                               directed=True),
    "single-node": t.WeightedGraph(1, [(0, 0, 0.5)], directed=True),
    "ba-indegree": t.set_indegree_probabilities(_bidirected(t.gen_ba(60, 4, 2, 3))),
    "dense": _complete_digraph(40, 0.02),
}


@pytest.mark.parametrize("count", [1, 150])
@pytest.mark.parametrize("name", RR_GRID)
def test_gen_rr_sets_equals_scalar_reference(name, count):
    graph = RR_GRID[name]
    for seed in (0, 1, 7, 100, 2**40 + 3):
        want, _ = helpers.scalar_rr_sets(graph, count, seed)
        assert t.gen_rr_sets(graph, count, seed).sets == want


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("name", RR_GRID)
def test_gen_rr_sets_equals_scalar_reference_at_tiny_blocks(name, block, monkeypatch):
    # refills fall inside walks, and between a root's two 32-bit halves
    monkeypatch.setattr(generators, "_BLOCK", block)
    graph = RR_GRID[name]
    for seed in (0, 7, 2**40 + 3):
        want, _ = helpers.scalar_rr_sets(graph, 40, seed)
        assert t.gen_rr_sets(graph, 40, seed).sets == want


@pytest.mark.parametrize("edge", [(0, 5, 0.5), (-1, 2, 0.5), (1, 3, 0.5)])
def test_gen_rr_sets_rejects_edge_ids_outside_the_graph(edge):
    graph = t.WeightedGraph(3, [(0, 1, 0.5), edge], directed=True)
    with pytest.raises(t.ContractViolation, match=rf"edge \({edge[0]},{edge[1]}\) has an id"):
        t.gen_rr_sets(graph, 5, 0)


def _graph(*extra, directed=True):
    return t.WeightedGraph(3, [(0, 1, 0.5), *extra], directed=directed)


def _spread(graph):
    return t.ic_exact_spread(graph, 0b1)


def _rr_sets(graph, count=5):
    return t.gen_rr_sets(graph, count, 0)


# each call, a graph it must reject, and the text its error must hold
REJECTED = {
    "indegree-id-past-n": (t.set_indegree_probabilities, _graph((0, 5, 0.5)),
                           r"edge \(0,5\) has an id"),
    "indegree-negative-id": (t.set_indegree_probabilities, _graph((-1, 2, 0.5)),
                             r"edge \(-1,2\) has an id"),
    "spread-id-past-n": (_spread, _graph((0, 5, 0.5)), r"edge \(0,5\) has an id"),
    "spread-negative-id": (_spread, _graph((-1, 2, 0.5)), r"edge \(-1,2\) has an id"),
    "spread-probability-above-one": (_spread, _graph((0, 2, 2.0)),
                                     r"edge \(0,2\) has probability 2.0"),
    "rr-probability-above-one": (_rr_sets, _graph((0, 2, 1.5)),
                                 r"edge \(0,2\) has probability 1.5"),
    "rr-no-samples": (lambda g: _rr_sets(g, 0), _graph(), "at least one sample"),
    "rr-undirected": (_rr_sets, _graph(directed=False), "directed graph"),
    "indegree-undirected": (t.set_indegree_probabilities, _graph(directed=False),
                            "directed graph"),
}


@pytest.mark.parametrize("call, graph, error", REJECTED.values(), ids=REJECTED.keys())
def test_generators_reject_bad_graphs(call, graph, error):
    with pytest.raises(t.ContractViolation, match=error):
        call(graph)


# 2**31 + 1 rejects about half its 32-bit draws in Lemire's method
STREAM_KS = [1, 2, 3, 7, 1000, 2**31, 2**31 + 1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("block", [1, 2, 3, generators._BLOCK])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_stream_draws_what_the_generator_draws(seed, block, monkeypatch):
    monkeypatch.setattr(generators, "_BLOCK", block)
    rng, stream = np.random.default_rng(seed), generators._Stream(seed)
    for i in range(2000):
        k = STREAM_KS[i % len(STREAM_KS)]
        if i % 4 == 0:  # a double between integers leaves the buffered half in place
            assert stream.random() == rng.random()
        else:
            assert stream.integers(k) == int(rng.integers(k))
    assert stream.integers(2**32) == int(rng.integers(2**32))
    assert stream.random() == rng.random()


def test_stream_rejects_k_outside_one_to_two_to_the_32():
    stream = generators._Stream(0)
    for k in (0, -1, 2**32 + 1, 2**40):
        with pytest.raises(t.ContractViolation):
            stream.integers(k)


@pytest.mark.parametrize("shape", [(2, 2, 1), (5, 2, 1), (30, 4, 2), (200, 5, 3), (120, 8, 8)])
def test_gen_ba_equals_scalar_reference(shape):
    for seed in (0, 1, 7, 2**40 + 3):
        assert t.gen_ba(*shape, seed).edges == helpers.scalar_ba_edges(*shape, seed)


def test_ic_exact_spread_trivia():
    graph = t.WeightedGraph(2, [(0, 1, 0.3)], directed=True)
    assert t.ic_exact_spread(graph, 0) == 0.0
    assert t.ic_exact_spread(graph, 0b01) == pytest.approx(1.3)
    all_live = t.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    assert t.ic_exact_spread(all_live, 0b001) == pytest.approx(3.0)


def test_ic_exact_spread_rejects_big_graphs():
    graph = t.WeightedGraph(30, [(i, i + 1, 0.5) for i in range(21)], directed=True)
    with pytest.raises(t.ContractViolation):
        t.ic_exact_spread(graph, 1)


def test_generators_deterministic_under_seed():
    assert t.gen_er(40, 0.3, 7).edges == t.gen_er(40, 0.3, 7).edges
    assert t.gen_ba(40, 3, 2, 7).edges == t.gen_ba(40, 3, 2, 7).edges


def test_generators_reject_negative_sizes_and_weights():
    with pytest.raises(t.ContractViolation):
        t.gen_er(-5, 0.5, 1)
    graph = t.gen_er(4, 1.0, 1)
    for lo, hi in ((-1.0, 1.0), (1.0, 0.5), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(t.ContractViolation):
            t.assign_weights_uniform(graph, lo, hi, 2)
