import copy
import math
import os
import random
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import twinopt as t
import twinopt.core as core
import twinopt.objectives as objmod
from twinopt import cli
from twinopt.constraints import load_partition, save_partition
from twinopt.objectives import (
    load_costs,
    load_edge_list,
    load_rr_sets,
    pack_seed_id,
    save_costs,
    save_edge_list,
    save_rr_sets,
)

import helpers


def test_cut_value_path_center_node():
    graph = t.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    f = t.CutMonitorObjective(graph)
    assert f.evaluate(0b010) == 2.0


def test_cut_value_empty_and_full_are_zero():
    graph, ground, oracle, _ = helpers.cut_instance(7, seed=11)
    f = oracle()
    assert f.evaluate(0) == 0.0
    assert f.evaluate(ground.full_mask) == pytest.approx(0.0)


def test_cut_value_matches_edge_scan():
    graph = t.assign_weights_uniform(t.gen_er(8, 0.5, 1), 0.0, 1.0, 2)
    f = t.CutMonitorObjective(graph)
    rng = random.Random(0)
    for _ in range(100):
        mask = rng.getrandbits(8)
        assert f.evaluate(mask) == pytest.approx(helpers.naive_cut(graph, mask), abs=1e-9)


@given(st.integers(1, objmod._SPARSE_MIN_NODES - 1), st.data())
def test_list_path_cut_equals_the_nested_loop(n, data):
    # parallel edges in both orientations, self-loops and zero weights; a
    # dense corner and sevenths, so that the order of the additions shows
    ids = st.one_of(st.integers(0, min(n - 1, 7)), st.integers(0, n - 1))
    weights = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.integers(1, 99).map(lambda k: k / 7))
    edges = data.draw(st.lists(st.tuples(ids, ids, weights), max_size=80))
    graph = t.WeightedGraph(n, edges)
    f = t.CutMonitorObjective(graph)
    for mask in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6)):
        assert f.evaluate(mask) == helpers.list_cut(graph, mask)


def test_cut_sparse_path_matches_edge_scan():
    # large enough to take the sparse-matrix evaluation path
    n = objmod._SPARSE_MIN_NODES + 8
    graph = t.assign_weights_uniform(t.gen_er(n, 0.05, 3), 0.0, 1.0, 4)
    f = t.CutMonitorObjective(graph)
    assert f._sparse
    rng = random.Random(1)
    for _ in range(20):
        mask = rng.getrandbits(n)
        assert f.evaluate(mask) == pytest.approx(helpers.naive_cut(graph, mask), abs=1e-6)


@st.composite
def sparse_edge_lists(draw):
    """Node count on the sparse cut path and an edge list with parallel
    edges in both orientations, self-loops and zero weights; maybe none."""
    n = draw(st.integers(objmod._SPARSE_MIN_NODES, objmod._SPARSE_MIN_NODES + 40))
    ids = st.integers(0, n - 1)
    weights = st.one_of(st.just(0.0), st.floats(0.0, 10.0))
    edges = draw(st.lists(st.tuples(ids, ids, weights), max_size=60))
    if edges:
        u, v, _ = edges[draw(st.integers(0, len(edges) - 1))]
        edges += [(u, v, draw(weights)), (v, u, draw(weights)), (u, u, draw(weights))]
    return n, edges


def _edge_loop_adjacency(n, edges):
    """The symmetric CSR adjacency built one edge at a time: the reference
    for the column-wise construction."""
    rows, cols, vals = [], [], []
    for u, v, w in edges:
        rows += [u, v]
        cols += [v, u]
        vals += [w, w]
    return sp.csr_matrix((np.asarray(vals), (np.asarray(rows), np.asarray(cols))), shape=(n, n))


@given(sparse_edge_lists())
def test_sparse_cut_adjacency_equals_the_edge_loop(case):
    n, edges = case
    adj = t.CutMonitorObjective(t.WeightedGraph(n, edges))._adj
    ref = _edge_loop_adjacency(n, edges)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(adj, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _bad_edges(n):
    """Edges that break the rule on n nodes: an id out of range on either
    end or both, a weight negative, NaN or infinite, both at once, and an
    id or a weight that is an int past float64's range."""
    return [(0, n, 1.0), (-1, 0, 1.0), (n + 7, -3, 0.0), (0, 1, -0.5), (1, 0, float("nan")),
            (2, 2, float("inf")), (n, 0, -1.0), (0, 10**400, 0.5), (0, 1, 10**400)]


def _with_bad_edges(data, n, edges, min_size):
    """`edges` with between min_size and three bad edges put in at random places."""
    for edge in data.draw(st.lists(st.sampled_from(_bad_edges(n)), min_size=min_size, max_size=3)):
        edges.insert(data.draw(st.integers(0, len(edges))), edge)
    return t.WeightedGraph(n, edges)


@given(sparse_edge_lists(), st.data())
def test_validate_equals_the_edge_loop(case, data):
    n, edges = case
    graph = _with_bad_edges(data, n, edges, 0)
    try:
        helpers.edge_loop_validate(graph)
    except t.ContractViolation as want:
        with pytest.raises(t.ContractViolation) as got:
            graph.validate()
        assert str(got.value) == str(want)
    else:
        cells = graph.validate()
        assert cells.dtype == np.float64 and cells.shape == (len(edges), 3)
        assert cells.tolist() == [[float(x) for x in edge] for edge in edges]


@given(sparse_edge_lists(), st.data())
def test_sparse_cut_rejects_the_first_bad_edge_as_validate_does(case, data):
    n, edges = case
    graph = _with_bad_edges(data, n, edges, 1)
    with pytest.raises(t.ContractViolation) as want:
        graph.validate()
    with pytest.raises(t.ContractViolation) as got:
        t.CutMonitorObjective(graph)
    assert str(got.value) == str(want.value)


@st.composite
def cut_cases(draw, sparse=True):
    """A sparse-path cut oracle (list-path if not `sparse`) with a
    self-loop, a duplicated edge, zero weights and an isolated node (the
    last one), a node e and a set S without e: empty, everything else, no
    neighbour of e, or random."""
    low = objmod._SPARSE_MIN_NODES if sparse else 3
    n = draw(st.integers(low, low + 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = [(u, v, rng.choice([0.0, rng.random()]))
             for u in range(n - 1) for v in range(u + 1, n - 1) if rng.random() < 0.04]
    loop = rng.randrange(n - 1)
    u, v, _ = edges[0] if edges else (0, 1, 0.0)
    edges += [(loop, loop, rng.random()), (u, v, rng.random())]
    f = t.CutMonitorObjective(t.WeightedGraph(n, edges))
    assert f._sparse == sparse
    e = draw(st.sampled_from([loop, u, n - 1, rng.randrange(n)]))
    kind = draw(st.sampled_from(["empty", "all-but-e", "no-neighbour", "random"]))
    others = ((1 << n) - 1) & ~(1 << e)
    if kind == "empty":
        s = 0
    elif kind == "all-but-e":
        s = others
    else:
        s = rng.getrandbits(n) & others
        if kind == "no-neighbour":
            s &= ~t.bitmask(v for v, _ in f.graph.in_adjacency()[e])
    return f, s, e


def _base_arrays(base):
    """A copy of every field of a cut base."""
    return tuple(v.copy() if isinstance(v, np.ndarray) else v for v in base)


def _same_base(a, b):
    """The same fields, arrays of the same dtype and bits."""
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes() if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b))


@given(cut_cases())
def test_based_cut_query_is_bit_identical_to_full_evaluation(case):
    f, s, e = case
    base = f.base(s)
    before = _base_arrays(base)
    q0 = f.query_count
    full = f.evaluate(s | 1 << e)
    assert f.query_count == q0 + 1
    assert f.evaluate(s | 1 << e, base) == full  # exact, not approx
    assert f.query_count == q0 + 2
    assert _same_base(_base_arrays(base), before)
    assert full == pytest.approx(helpers.naive_cut(f.graph, s | 1 << e), abs=1e-9)


@given(cut_cases(), st.integers(1, 8))
def test_grown_cut_base_equals_a_fresh_one(case, k):
    f, s, _ = case
    base = f.base(s)
    rng = random.Random(k)
    outside = [u for u in range(f.n) if not (s >> u) & 1]
    for u in rng.sample(outside, min(k, len(outside))):
        assert f.evaluate(s | 1 << u, base) == f.evaluate(s | 1 << u)
        s |= 1 << u
        base = f.base(s, base)
    assert _same_base(_base_arrays(base), _base_arrays(f.base(s)))


@given(cut_cases(), st.lists(st.tuples(st.integers(0, 2**16), st.booleans()), max_size=8))
def test_a_cut_base_shared_by_two_sides_is_left_unchanged(case, steps):
    """As the twin solvers start: two sides share one base and query it in
    turn, first both with e, a side that inserts grows its own base from
    its old one, and a rejected query (an id past n) follows every query.
    Every answer is the full evaluation's, exactly, and the shared base
    keeps its bits throughout."""
    f, s, e = case
    shared = f.base(s)
    before = _base_arrays(shared)
    sides, bases = [s, s], [shared, shared]
    for k, (pick, insert) in enumerate([(0, False), (0, False)] + steps):
        free = [u for u in range(f.n) if not ((sides[0] | sides[1]) >> u) & 1]
        if not free:
            break
        i, u = k % 2, e if k < 2 else free[pick % len(free)]
        grown = sides[i] | 1 << u
        assert f.evaluate(grown, bases[i]) == f.evaluate(grown)
        with pytest.raises(t.ContractViolation):
            f.evaluate(sides[i] | 1 << f.n, bases[i])
        if insert:
            sides[i], bases[i] = grown, f.base(grown, bases[i])
        assert _same_base(_base_arrays(shared), before)
    for side, base in zip(sides, bases):
        assert _same_base(_base_arrays(base), _base_arrays(f.base(side)))


def test_a_failed_based_cut_query_leaves_the_base_unchanged():
    n = objmod._SPARSE_MIN_NODES
    f = t.CutMonitorObjective(t.WeightedGraph(n, [(0, 1, 0.5), (1, 2, 0.25), (1, 1, 2.0)]))
    base = f.base(0b1)
    before = _base_arrays(base)
    with mock.patch.object(f, "_redo_rows", side_effect=MemoryError):
        with pytest.raises(MemoryError):
            f.evaluate(0b11, base)
    assert _same_base(_base_arrays(base), before)
    assert f.evaluate(0b11, base) == f.evaluate(0b11) == 0.25


def test_csr_matvec_adds_into_out_and_skips_a_descending_span():
    """The kernel contract the sparse cut relies on, checked on SciPy's
    private `csr_matvec` itself: it adds A @ x into `out`, and a row whose
    index-pointer start lies past its end adds nothing."""
    adj = sp.csr_matrix(np.array([[0.0, 0.5, 0.25], [2.0, 0.0, 1.0], [0.0, 4.0, 0.0]]))
    x = np.array([1.0, 2.0, 4.0])
    out = np.array([8.0, 16.0, 32.0])
    objmod.csr_matvec(3, 3, adj.indptr, adj.indices, adj.data, x, out)
    assert out.tolist() == [8.0 + 2.0, 16.0 + 6.0, 32.0 + 8.0]
    ip = adj.indptr  # rows 2 and 0, descending; the row between spans [ip[3], ip[0]]
    ptr = np.array([ip[2], ip[3], ip[0], ip[1]], dtype=ip.dtype)
    out = np.full(3, 0.125)
    objmod.csr_matvec(3, 3, ptr, adj.indices, adj.data, x, out)
    assert out.tolist() == [0.125 + 8.0, 0.125, 0.125 + 2.0]


def _off_extensions(f, s, e):
    """Sets near s + e, none of them s + e plus one id: s + e itself, s,
    nothing, e swapped for an id outside s + e, and two such ids added."""
    grown = s | 1 << e
    free = [u for u in range(f.n) if not (grown >> u) & 1]
    masks = [grown, s, 0]
    if free:
        masks.append(s | 1 << free[0])
    if len(free) > 1:
        masks.append(grown | 1 << free[0] | 1 << free[-1])
    assert all(core._added(grown, mask, f.n) < 0 for mask in masks)
    return masks


@given(cut_cases())
def test_based_cut_query_off_an_extension_falls_back(case):
    f, s, e = case
    base = f.base(s | 1 << e)
    for mask in _off_extensions(f, s, e):
        q0 = f.query_count
        assert f.evaluate(mask, base) == f.evaluate(mask)
        assert f.query_count == q0 + 2


@given(cut_cases())
def test_based_cut_query_rejects_ids_past_the_nodes(case):
    f, s, e = case
    base = f.base(s)
    for mask in (s | 1 << f.n, s | 1 << e | 1 << (f.n + 5)):
        with pytest.raises(t.ContractViolation):
            f.evaluate(mask, base)
        with pytest.raises(t.ContractViolation):
            f.evaluate(mask)
    with pytest.raises(t.ContractViolation):
        f.base(s | 1 << f.n)
    with pytest.raises(t.ContractViolation):
        f.base(s | 1 << f.n, base)


def test_only_the_sparse_cut_and_marketing_offer_a_base():
    small = t.CutMonitorObjective(t.WeightedGraph(5, [(0, 1, 1.0)]))
    oracles = [small, t.ModularObjective([1.0, 2.0]),
               helpers.CoverageObjective([1.0], [0b1, 0b0])]
    for f in oracles:
        assert f.base(0) is None and f.base(0b1, f.base(0)) is None
        assert f.evaluate(0b1, None) == f.evaluate(0b1)
    sparse = t.CutMonitorObjective(t.WeightedGraph(objmod._SPARSE_MIN_NODES, [(0, 1, 1.0)]))
    marketing = t.MarketingObjective([t.RRSetCollection(2, [0b01])], [0.5, 1.0])
    assert sparse.base(0) is not None and marketing.base(0) is not None


def test_cut_rejects_directed_graph():
    with pytest.raises(t.ContractViolation):
        t.CutMonitorObjective(t.WeightedGraph(2, [(0, 1, 1.0)], directed=True))


def test_cut_is_non_monotone_constructively():
    graph, ground, oracle, _ = helpers.cut_instance(8, seed=2, p_edge=0.8)
    f = oracle()
    v = graph.edges[0][0]
    assert f.evaluate(1 << v) > f.evaluate(ground.full_mask)


def test_rr_estimate_single_covering_set():
    z = t.RRSetCollection(10, [1 << 4])
    assert t.rr_estimate(z, 1 << 4) == 10.0
    assert t.rr_estimate(z, 0) == 0.0


def test_rr_estimate_needs_samples():
    with pytest.raises(t.ContractViolation):
        t.rr_estimate(t.RRSetCollection(4, []), 1)


def test_rr_estimate_monotone_exhaustive():
    graph = t.WeightedGraph(5, [(0, 1, 0.6), (1, 2, 0.5), (3, 2, 0.7), (4, 0, 0.4),
                                (2, 4, 0.5)], directed=True)
    z = t.gen_rr_sets(graph, 400, seed=9)
    for a in range(1 << 5):
        for e in range(5):
            if not (a >> e) & 1:
                assert t.rr_estimate(z, a | (1 << e)) >= t.rr_estimate(z, a)


def test_rr_estimate_tracks_exact_spread_small():
    graph = t.WeightedGraph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (0, 3, 0.3)],
                            directed=True)
    exact = t.ic_exact_spread(graph, 0b0001)
    means = []
    for seed in range(10):
        z = t.gen_rr_sets(graph, 4000, seed=seed)
        means.append(t.rr_estimate(z, 0b0001))
    avg = sum(means) / len(means)
    assert avg == pytest.approx(exact, rel=0.05)


def test_marketing_empty_set_is_zero():
    z = [t.RRSetCollection(4, [0b0001]), t.RRSetCollection(4, [0b0010])]
    f = t.MarketingObjective(z, [0.5, 0.5, 0.5, 0.5])
    assert f.evaluate(0) == 0.0


def test_marketing_single_seed_formula():
    # seed (u=0, product 0), collection Z0 = {{0}}, |V|=4, all costs 0.5, m=2
    z = [t.RRSetCollection(4, [0b0001]), t.RRSetCollection(4, [0b0010])]
    costs = [0.5, 0.5, 0.5, 0.5]
    f = t.MarketingObjective(z, costs)  # default B = m * sum(costs) = 4.0
    e = pack_seed_id(0, 0, m=2)
    assert f.evaluate(1 << e) == pytest.approx(4.0 + (4.0 - 0.5))


def test_marketing_matches_straight_line_recomputation():
    rng = random.Random(4)
    n_nodes, m = 5, 2
    graph = t.WeightedGraph(n_nodes, [(0, 1, 0.5), (1, 2, 0.4), (3, 4, 0.8), (2, 0, 0.3)],
                            directed=True)
    collections = [t.gen_rr_sets(graph, 50, seed=s) for s in (1, 2)]
    costs = [rng.uniform(0, 1) for _ in range(n_nodes)]
    f = t.MarketingObjective(collections, costs)
    for _ in range(60):
        mask = rng.getrandbits(n_nodes * m)
        if mask == 0:
            expected = 0.0
        else:
            expected = f.budget
            for i in range(m):
                seeds = {u for u in range(n_nodes) if (mask >> (u * m + i)) & 1}
                hits = sum(1 for r in collections[i].sets
                           if any((r >> u) & 1 for u in seeds))
                expected += n_nodes * hits / len(collections[i].sets)
                expected -= sum(costs[u] for u in seeds)
        assert f.evaluate(mask) == pytest.approx(expected, abs=1e-9)


def _marketing_reference(f, mask):
    """The marketing value as computed before the cover index: one
    rr_estimate per seeded product, summed in product order."""
    if mask == 0:
        return 0.0
    per_product = [0] * f.m
    cost = 0.0
    for e in t.members(mask):
        u, i = divmod(e, f.m)
        per_product[i] |= 1 << u
        cost += f.costs[u]
    spread = 0  # added left to right, as sum() did before Python 3.12
    for i in range(f.m):
        if per_product[i]:
            spread += t.rr_estimate(f.collections[i], per_product[i])
    return spread + (f.budget - cost)


@st.composite
def marketing_instances(draw):
    """A marketing oracle on random RR sets and the masks to query.  No set
    of product 0 holds node `cold`, so seeding it gives a product with zero
    hits; the masks always include the empty set and each product seeded at
    node n - 1."""
    n, m = draw(st.integers(1, 70)), draw(st.sampled_from([1, 2, 3]))
    cold = draw(st.integers(0, n - 1))
    collections = []
    for i in range(m):
        sets = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
        collections.append(t.RRSetCollection(n, [s & ~(1 << cold) if i == 0 else s for s in sets]))
    costs = draw(st.lists(st.floats(0, 2), min_size=n, max_size=n))
    budget = draw(st.one_of(st.none(), st.floats(0, 10).map(lambda x: m * core.left_sum(costs) + x)))
    f = t.MarketingObjective(collections, costs, budget)
    masks = draw(st.lists(st.integers(0, (1 << (n * m)) - 1), min_size=1, max_size=20))
    masks += [0, 1 << pack_seed_id(cold, 0, m), (1 << pack_seed_id(cold, 0, m)) | masks[-1]]
    masks += [1 << pack_seed_id(n - 1, i, m) for i in range(m)]
    return f, masks


@given(marketing_instances())
def test_marketing_value_is_bit_identical_to_rr_estimate(case):
    f, masks = case
    for mask in masks:
        assert f.evaluate(mask) == _marketing_reference(f, mask)


def _outside(f, s, rng):
    """The lowest, the highest and a random id < f.n not in s (none if s is
    everything): below and above the members, where the cost prefix ends."""
    outside = [e for e in range(f.n) if not (s >> e) & 1]
    return [outside[0], outside[-1], rng.choice(outside)] if outside else []


@given(marketing_instances(), st.integers(0, 2**32 - 1))
def test_based_marketing_query_is_bit_identical_to_full_evaluation(case, seed):
    f, masks = case
    rng = random.Random(seed)
    for s in masks:  # the empty set among them
        base = f.base(s)
        before = copy.deepcopy(base)
        for e in _outside(f, s, rng):
            q0 = f.query_count
            full = f.evaluate(s | 1 << e)
            assert f.evaluate(s | 1 << e, base) == full == _marketing_reference(f, s | 1 << e)
            assert f.query_count == q0 + 2
        assert base == before


@given(marketing_instances(), st.integers(1, 8))
def test_grown_marketing_base_equals_a_fresh_one(case, k):
    f, masks = case
    rng = random.Random(k)
    for s in (0, masks[0]):
        base = f.base(s)
        for _ in range(k):
            outside = _outside(f, s, rng)
            if not outside:
                break
            u = outside[-1]
            assert f.evaluate(s | 1 << u, base) == f.evaluate(s | 1 << u)
            s |= 1 << u
            base = f.base(s, base)
        assert base == f.base(s)


@given(marketing_instances(), st.integers(0, 2**32 - 1))
def test_based_marketing_query_off_an_extension_falls_back(case, seed):
    f, masks = case
    rng = random.Random(seed)
    s = masks[0]
    for e in _outside(f, s, rng):
        base = f.base(s | 1 << e)
        for mask in _off_extensions(f, s, e):
            q0 = f.query_count
            assert f.evaluate(mask, base) == f.evaluate(mask)
            assert f.query_count == q0 + 2


@given(marketing_instances())
def test_based_marketing_query_rejects_ids_past_the_range(case):
    f, masks = case
    s = masks[0]
    base = f.base(s)
    for mask in (s | 1 << f.n, 1 << f.n, s | 1 << (f.n - 1) | 1 << (f.n + 5)):
        with pytest.raises(t.ContractViolation):
            f.evaluate(mask, base)
        with pytest.raises(t.ContractViolation):
            f.evaluate(mask)
    with pytest.raises(t.ContractViolation):
        f.base(s | 1 << f.n)
    with pytest.raises(t.ContractViolation):
        f.base(s | 1 << f.n, base)


@st.composite
def contract_cases(draw, kind):
    """An oracle of one kind that states its ground size n, a set s and an
    id e < n outside s: a cut on either path (`cut_cases`), marketing
    (`marketing_instances`), modular or coverage."""
    if kind in ("list cut", "sparse cut"):
        return draw(cut_cases(sparse=kind == "sparse cut"))
    if kind == "marketing":
        f = draw(marketing_instances())[0]
    elif kind == "modular":
        f = t.ModularObjective(draw(st.lists(st.floats(0, 10), min_size=1, max_size=70)))
    else:
        items = draw(st.integers(1, 12))
        covers = draw(st.lists(st.integers(0, (1 << items) - 1), min_size=1, max_size=70))
        weights = draw(st.lists(st.floats(0, 5), min_size=items, max_size=items))
        f = helpers.CoverageObjective(weights, covers)
    e = draw(st.integers(0, f.n - 1))
    return f, draw(st.integers(0, (1 << f.n) - 1)) & ~(1 << e), e


def _snapshot(base):
    """A deep copy of a base's fields, none for no base, for `_same_base`."""
    return () if base is None else copy.deepcopy(tuple(base))


@pytest.mark.parametrize("kind", ["list cut", "sparse cut", "marketing", "modular", "coverage"])
@given(st.data())
def test_every_oracle_keeps_the_query_contract(kind, data):
    """The `ValueOracle` contract on every oracle that states n: a based
    query of a one-element extension and of any other set equals the plain
    query, exactly; every query counts one, also a rejected one, and
    building a base counts none; ids at or past n are rejected by
    `evaluate` and `base`, with or without a base; and a based query leaves
    its base bit for bit as it was."""
    f, s, e = data.draw(contract_cases(kind))
    base = f.base(s)
    before = _snapshot(base)
    grown = s | 1 << e
    for mask in [grown] + _off_extensions(f, s, e):
        q0 = f.query_count
        assert f.evaluate(mask, base) == f.evaluate(mask)
        assert f.query_count == q0 + 2
    for mask in (s | 1 << f.n, grown | 1 << (f.n + 3), 1 << f.n):
        for based in (None, base):
            q0 = f.query_count
            with pytest.raises(t.ContractViolation, match="at or past the ground size"):
                f.evaluate(mask, based)
            assert f.query_count == q0 + 1
            with pytest.raises(t.ContractViolation, match="at or past the ground size"):
                f.base(mask, based)
    q0 = f.query_count
    assert _same_base(_snapshot(f.base(grown, base)), _snapshot(f.base(grown)))
    assert f.query_count == q0
    assert _same_base(_snapshot(base), before)


@given(st.integers(0, 2**80), st.integers(0, 80))
def test_callable_oracle_accepts_any_id_and_offers_no_base(s, e):
    f = t.CallableOracle(lambda mask: mask.bit_count() / 3)
    assert f.n is None and f.base(s) is None and f.base(s | 1 << e, f.base(s)) is None
    assert f.evaluate(s | 1 << e, None) == f.evaluate(s | 1 << e) == (s | 1 << e).bit_count() / 3
    assert f.query_count == 2


def test_marketing_rejects_a_product_without_rr_sets(monkeypatch):
    z = [t.RRSetCollection(2, [0b01]), t.RRSetCollection(2, [])]
    with pytest.raises(t.ContractViolation, match="product 1 has no sampled RR sets"):
        t.MarketingObjective(z, [0.5, 1.0])
    built = []
    monkeypatch.setattr(objmod, "_cover_index", lambda *args: built.append(args) or [])
    for costs, budget in (([0.5], None), ([0.5, 1.0], 1.0), ([0.5, float("nan")], None)):
        with pytest.raises(t.ContractViolation):
            t.MarketingObjective(z[:1] * 2, costs, budget)
    for collections, error in (([], "one RR collection per product"),
                               ([z[0], t.RRSetCollection(3, [0b100])], "share one node set")):
        with pytest.raises(t.ContractViolation, match=error):
            t.MarketingObjective(collections, [0.5, 1.0])
    assert built == []  # validation comes before the index is built
    t.MarketingObjective(z[:1] * 2, [0.5, 1.0])
    assert len(built) == 2


def test_marketing_nonnegative_on_feasible_sets():
    # default budget keeps the value non-negative with <= 1 product per node
    graph = t.WeightedGraph(4, [(0, 1, 0.5), (2, 3, 0.5)], directed=True)
    collections = [t.gen_rr_sets(graph, 30, seed=s) for s in (3, 4)]
    costs = [0.9, 0.2, 0.7, 0.4]
    f = t.MarketingObjective(collections, costs)
    one_per_node = t.SeedMatroid(4, 2, 4)  # only the per-node rule binds
    for mask in range(1 << 8):
        if one_per_node.is_independent(mask):
            assert f.evaluate(mask) >= 0.0


def test_marketing_submodular_including_empty_seam():
    graph = t.WeightedGraph(5, [(0, 1, 0.5), (1, 2, 0.4), (3, 4, 0.6)], directed=True)
    collections = [t.gen_rr_sets(graph, 40, seed=s) for s in (5, 6)]
    f = t.MarketingObjective(collections, [0.3, 0.8, 0.5, 0.2, 0.6])
    ground = t.GroundSet(10)
    ok, witness = t.submodularity_check(f, ground, trials=300, seed=8)
    assert ok, witness


def test_modular_objective_sums_weights():
    f = t.ModularObjective([1.0, 2.0, 4.0])
    assert f.evaluate(0b101) == 5.0
    assert f.evaluate(0b111) == 7.0


def test_modular_sum_is_left_to_right():
    # a left fold rounds 1e16 + 1.0 to 1e16 twice; sum() compensates from
    # Python 3.12 on and would give 1.0000000000000002e16 here
    assert t.ModularObjective([1e16, 1.0, 1.0]).evaluate(0b111) == 1e16
    assert helpers.CoverageObjective([1e16, 1.0, 1.0], [0b1, 0b10, 0b100]).evaluate(0b111) == 1e16


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_modular_objective_rejects_non_finite_weights(bad):
    with pytest.raises(t.ContractViolation, match="finite and >= 0"):
        t.ModularObjective([1.0, bad, 2.0])


def test_coverage_objective_counts_union_once():
    f = helpers.CoverageObjective([1.0, 2.0, 4.0], covers=[0b011, 0b110])
    assert f.evaluate(0b01) == 3.0
    assert f.evaluate(0b11) == 7.0


def test_edge_list_round_trip(tmp_path):
    graph = t.assign_weights_uniform(t.gen_er(9, 0.4, 5), 0.0, 1.0, 6)
    path = tmp_path / "g.txt"
    save_edge_list(path, graph)
    loaded = load_edge_list(path)
    assert loaded.n_nodes == graph.n_nodes
    assert loaded.edges == graph.edges
    assert loaded.directed == graph.directed


# loader, a well-formed row, the expected row shape (None: a range error)
LOADERS = {
    "edges": (load_edge_list, "0 2 1.0", "u v w"),
    "rrsets": (load_rr_sets, "0 2", "node ids"),
    "costs": (load_costs, "0 1.5", "node cost"),
    "partition": (load_partition, "0 0", "element_id part_id"),
    "weights": (cli._load_modular_weights, "1.5", "weight"),
}


@pytest.mark.parametrize("kind, line, shape", [
    ("edges", "0 1", "u v w"),
    ("edges", "0 1 x", "u v w"),
    ("edges", "0 1 0.5 7", "u v w"),
    ("edges", "0 1 -0.5", None),
    ("edges", "0 3 0.5", None),
    ("rrsets", "1 x", "node ids"),
    ("rrsets", "1 3", None),
    ("rrsets", "-1", None),
    ("costs", "1", "node cost"),
    ("costs", "1 abc", "node cost"),
    ("partition", "1 0 2", "element_id part_id"),
    ("weights", "abc", "weight"),
    ("weights", "1.0 2.0", "weight"),
    ("weights", "-1.5", None),
], ids=["0 1", "0 1 x", "0 1 0.5 7", "edge-negative-weight", "edge-id-past-header",
        "rrsets-token", "rrsets-id-past-header", "rrsets-negative-id", "costs-one-field",
        "costs-token", "partition-three-fields", "weights-token", "weights-two-fields",
        "weights-negative"])
def test_edge_list_malformed_line_names_path_and_line(tmp_path, kind, line, shape):
    loader, good, _ = LOADERS[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_text(f"# nodes 3 directed 0\n{good}\n{line}\n")
    expected = f"{path}:3: " + (f"expected {shape!r}, got {line!r}" if shape else "")
    with pytest.raises(t.ContractViolation, match=re.escape(expected)):
        loader(path)


@pytest.mark.parametrize("kind", ["edges", "rrsets"])
@pytest.mark.parametrize("header", ["# nodes abc", "# nodes", "# nodes -2"])
def test_malformed_header_names_path_and_line(tmp_path, kind, header):
    loader, good, _ = LOADERS[kind]
    path = tmp_path / "h.txt"
    path.write_text(f"# a comment naming nodes\n{header}\n{good}\n")
    with pytest.raises(t.ContractViolation, match=re.escape(f"{path}:2: expected '# nodes N")):
        loader(path)


@pytest.mark.parametrize("kind", LOADERS)
def test_loaders_skip_blank_and_comment_lines(tmp_path, kind):
    loader, good, _ = LOADERS[kind]
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    plain.write_text(f"{good}\n")
    commented.write_text(f"\n# a comment\n   \n  {good}  \n#\n\n")
    assert loader(commented) == loader(plain)


def test_header_must_come_before_rows(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1 1.0\n# nodes 5\n")
    with pytest.raises(t.ContractViolation, match=re.escape(f"{path}:2: the header")):
        load_edge_list(path)


def test_headerless_files_take_n_from_the_largest_id(tmp_path):
    graph_path, rr_path = tmp_path / "g.txt", tmp_path / "rr.txt"
    graph_path.write_text("0 4 1.0\n2 1 0.5\n")
    rr_path.write_text("3\n0 6\n")
    assert load_edge_list(graph_path).n_nodes == 5
    assert load_rr_sets(rr_path).n_nodes == 7
    graph_path.write_text("# nodes 9\n0 4 1.0\n")
    assert load_edge_list(graph_path).n_nodes == 9
    rr_path.write_text("# nodes 9\n3\n")
    assert load_rr_sets(rr_path).n_nodes == 9
    graph_path.write_text("")
    rr_path.write_text("")
    assert load_edge_list(graph_path).n_nodes == load_rr_sets(rr_path).n_nodes == 0


def test_writers_keep_the_text_format(tmp_path):
    path = tmp_path / "out.txt"
    save_edge_list(path, t.WeightedGraph(4, [(0, 1, 0.1), (2, 3, 1.0)], directed=True))
    assert path.read_text() == "# nodes 4 directed 1\n0 1 0.1\n2 3 1.0\n"
    save_rr_sets(path, t.RRSetCollection(6, [0b101, 0b100000]))
    assert path.read_text() == "# nodes 6\n0 2\n5\n"
    save_costs(path, [0.25, 1 / 3])
    assert path.read_text() == f"0 0.25\n1 {1 / 3!r}\n"
    save_partition(path, [2, 0, 1])
    assert path.read_text() == "0 2\n1 0\n2 1\n"


def test_rr_sets_round_trip(tmp_path):
    graph = t.WeightedGraph(5, [(0, 1, 0.5), (2, 3, 0.9)], directed=True)
    z = t.gen_rr_sets(graph, 25, seed=7)
    path = tmp_path / "rr.txt"
    save_rr_sets(path, z)
    loaded = load_rr_sets(path)
    assert loaded.n_nodes == z.n_nodes
    assert loaded.sets == z.sets


def test_costs_round_trip(tmp_path):
    path = tmp_path / "c.txt"
    save_costs(path, [0.25, 1.5, 0.0])
    assert load_costs(path) == [0.25, 1.5, 0.0]


@pytest.mark.parametrize("text", ["0 1.0\n2 1.0\n", "0 1.0\n1 1.0\n1 2.0\n", "1 1.0\n"],
                         ids=["missing", "repeated", "shifted"])
def test_costs_must_cover_nodes_exactly_once(tmp_path, text):
    path = tmp_path / "c.txt"
    path.write_text(text)
    with pytest.raises(t.ContractViolation, match="exactly once"):
        load_costs(path)


def test_marketing_rejects_budget_below_total_cost():
    z = [t.RRSetCollection(2, [0b01]), t.RRSetCollection(2, [0b10])]
    assert t.MarketingObjective(z, [0.5, 1.0], budget=3.0).budget == 3.0
    for budget in (2.999, -1.0, float("nan")):
        with pytest.raises(t.ContractViolation, match="budget"):
            t.MarketingObjective(z, [0.5, 1.0], budget=budget)
    with pytest.raises(t.ContractViolation, match="costs"):
        t.MarketingObjective(z, [0.5, float("nan")])


def test_graph_validate_rejects_bad_edges():
    with pytest.raises(t.ContractViolation):
        t.WeightedGraph(2, [(0, 5, 1.0)]).validate()
    with pytest.raises(t.ContractViolation):
        t.WeightedGraph(2, [(0, 1, -1.0)]).validate()
    with pytest.raises(t.ContractViolation, match="has an id outside 0..2"):
        t.WeightedGraph(3, [(0, 1, 0.5), (0, 10**400, 0.5)]).validate()
    with pytest.raises(t.ContractViolation, match="has bad weight 1000"):
        t.WeightedGraph(3, [(0, 1, 0.5), (0, 1, 10**400)]).validate()


# ---------------------------------------------------------------------------
# the bulk reader (core.read_fixed_rows) against the per-line reference

BULK_LOADERS = {
    "edges": load_edge_list,
    "costs": load_costs,
    "partition": load_partition,
    "weights": cli._load_modular_weights,
}
# tokens int() or float() and loadtxt may read differently, or not at all
NUMBERS = ["+3", "-0", "-1", "007", "9", str(2 ** 24), "3.0", "1_0", ".5", "5.", "1e400", "1e-400",
           "nan", "inf", "-inf", "0x10", "\u0663", "x", str(2 ** 63), str(2 ** 64)]
GAPS = ["\t", "\xa0", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "  "]
ODD_LINES = ["", "   ", "\xa0", "# c", "#", "# nodes 3", "# nodes 9 directed 1", "# directed 1",
             "# nodes x", "# nodes -1", "# nodes 99999999"]


@st.composite
def column_file(draw, kind):
    """A valid file of `kind`, then up to three edits: a field replaced by
    an odd token, a gap by odd whitespace, a trailing comment, an odd line
    added, a line deleted or a row repeated; one line ending throughout.
    Returns (text, edited)."""
    n = draw(st.integers(1, 8))
    value = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    if kind == "edges":
        ids = st.integers(0, n - 1)
        lines = draw(st.sampled_from([[], [f"# nodes {n} directed 0"],
                                      ["# a graph", f"# nodes {n}"]]))
        lines += [f"{draw(ids)} {draw(ids)} {draw(st.floats(0, 1e300).map(repr))}"
                  for _ in range(draw(st.integers(1, 8)))]
    elif kind == "weights":
        lines = [draw(st.floats(0, allow_infinity=False).map(repr)) for _ in range(n)]
    else:
        labels = value if kind == "costs" else st.integers(-10 ** 6, 10 ** 6).map(str)
        lines = [f"{e} {draw(labels)}" for e in draw(st.permutations(range(n)))]
    edits = draw(st.integers(0, 3))
    for _ in range(edits):
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        fields = lines[i].split(" ") if lines else [""]
        j = draw(st.integers(0, len(fields) - 1))
        edit = draw(st.sampled_from(["field", "field", "field", "gap", "comment", "line", "delete",
                                     "repeat"]))
        if edit == "field":
            fields[j] = draw(st.sampled_from(NUMBERS))
            lines[i:i + 1] = [" ".join(fields)]
        elif edit == "gap":
            lines[i:i + 1] = [draw(st.sampled_from(GAPS)).join(fields)]
        elif edit == "comment":
            lines[i:i + 1] = [" ".join(fields) + " # c"]
        elif edit == "line":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(ODD_LINES)))
        else:
            lines[i:i + 1] = [] if edit == "delete" else lines[i:i + 1] * 2
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), edits > 0


def _load(loader, path, min_bytes):
    """What `loader` returns, as its repr (NaN equals NaN, -0.0 is not
    0.0), or the ContractViolation it raises; files from `min_bytes` on
    are read in bulk."""
    with mock.patch.object(core, "_BULK_MIN_BYTES", min_bytes):
        try:
            return repr(loader(path))
        except t.ContractViolation as exc:
            return f"ContractViolation: {exc}"


@pytest.mark.parametrize("kind", BULK_LOADERS)
@settings(max_examples=100, derandomize=True)
@given(data=st.data())
def test_bulk_reader_matches_the_per_line_reader(kind, data):
    text, edited = data.draw(column_file(kind))
    loader = BULK_LOADERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{kind}.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode())
        with mock.patch.object(core, "read_rows", wraps=core.read_rows) as per_line:
            bulk = _load(loader, path, 0)
        assert bulk == _load(loader, path, math.inf)
    if not edited:  # a valid file never needs the per-line reader
        assert not per_line.called


# a valid file of each kind, as lines
VALID_LINES = {
    "edges": ["# nodes 4 directed 0", "0 1 0.5", "1 2 1e-3", "2 3 7"],
    "costs": ["1 0.25", "0 1.5", "2 -3"],
    "partition": ["2 0", "0 1", "1 -4"],
    "weights": ["1.5", "2", "0.1"],
}


def _one_edit_variants(lines):
    """`lines` with each field of each row replaced by each odd token, each
    row's gaps by each odd whitespace, a trailing comment on each row, and
    each odd line put at each place."""
    out = []
    for i, line in enumerate(lines):
        fields = line.split()
        if fields[0][0] == "#":
            continue
        for j in range(len(fields)):
            out += [lines[:i] + [" ".join(fields[:j] + [tok] + fields[j + 1:])] + lines[i + 1:]
                    for tok in NUMBERS]
        out += [lines[:i] + [gap.join(fields)] + lines[i + 1:] for gap in GAPS]
        out.append(lines[:i] + [line + " # c"] + lines[i + 1:])
    for i in range(len(lines) + 1):
        out += [lines[:i] + [odd] + lines[i:] for odd in ODD_LINES]
    return out


@pytest.mark.parametrize("kind", BULK_LOADERS)
def test_bulk_reader_matches_the_per_line_reader_edit_by_edit(tmp_path, kind):
    loader, path = BULK_LOADERS[kind], tmp_path / f"{kind}.txt"
    path.write_text("\n".join(VALID_LINES[kind]) + "\n")
    with mock.patch.object(core, "read_rows", wraps=core.read_rows) as per_line:
        assert _load(loader, path, 0) == _load(loader, path, math.inf)
        assert per_line.call_count == 1  # the reference's own read only
    for lines in _one_edit_variants(VALID_LINES[kind]):
        for end in ("\n", "\r\n", "\r"):
            path.write_bytes((end.join(lines) + end).encode())
            assert _load(loader, path, 0) == _load(loader, path, math.inf), (lines, end)


def test_bulk_reader_falls_back_on_interior_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# nodes 4 directed 0\n0 1 0.5\n# a comment\n\n1 2 1e-3\n#\n2 3 7\n")
    with mock.patch.object(core, "_BULK_MIN_BYTES", 0), \
            mock.patch.object(core, "read_rows", wraps=core.read_rows) as per_line:
        graph = load_edge_list(path)
    assert per_line.call_count == 1
    assert graph == t.WeightedGraph(4, [(0, 1, 0.5), (1, 2, 1e-3), (2, 3, 7.0)])
    assert all(type(u) is int and type(v) is int and type(w) is float for u, v, w in graph.edges)


def test_small_files_are_read_line_by_line(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1.5\n" * (core._BULK_MIN_BYTES // 4 - 1))
    with mock.patch.object(core, "read_rows", wraps=core.read_rows) as per_line:
        assert cli._load_modular_weights(path) == [1.5] * (core._BULK_MIN_BYTES // 4 - 1)
        assert per_line.call_count == 1
        path.write_text("1.5\n" * (core._BULK_MIN_BYTES // 4))
        assert cli._load_modular_weights(path) == [1.5] * (core._BULK_MIN_BYTES // 4)
        assert per_line.call_count == 1
