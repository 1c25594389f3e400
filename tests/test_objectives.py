import ast
import copy
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
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
    assert f.evaluate((1 << ground.n) - 1) == pytest.approx(0.0)


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


def _within_value_error(f, exact, masks):
    """Each float value of f is within f.value_error of `exact`'s."""
    for mask in masks:
        assert abs(Fraction(f.evaluate(mask)) - exact(mask)) <= Fraction(f.value_error)


@given(st.integers(1, 30), st.data())
def test_list_path_cut_and_modular_values_are_within_the_error_bound(n, data):
    weights = st.one_of(st.just(0.0), st.floats(0.0, 1e6), st.integers(1, 99).map(lambda k: k / 7))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    ids = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(ids, ids, weights), max_size=80))
    _within_value_error(t.CutMonitorObjective(t.WeightedGraph(n, edges)), lambda mask: sum(
        (Fraction(w) for u, v, w in edges if (mask >> u & 1) != (mask >> v & 1)), Fraction(0)), masks)
    values = data.draw(st.lists(weights, min_size=n, max_size=n))
    _within_value_error(t.ModularObjective(values), lambda mask: sum(
        (Fraction(values[e]) for e in t.members(mask)), Fraction(0)), masks)


@given(sparse_edge_lists(), st.lists(st.integers(0, 2**64), min_size=1, max_size=4))
def test_sparse_cut_values_are_within_the_error_bound(case, draws):
    n, edges = case
    f = t.CutMonitorObjective(t.WeightedGraph(n, edges))
    masks = [random.Random(d).getrandbits(n) for d in draws]
    _within_value_error(f, lambda mask: sum(
        (Fraction(w) for u, v, w in edges if (mask >> u & 1) != (mask >> v & 1)), Fraction(0)), masks)


def test_marketing_and_callable_oracles_state_no_error_bound():
    marketing = t.MarketingObjective([t.RRSetCollection(2, [0b01])], [0.5, 1.0])
    assert marketing.value_error is None
    assert t.CallableOracle(lambda mask: 1.0, 2).value_error is None


def _edge_loop_adjacency(n, edges):
    """The symmetric CSR adjacency built one edge at a time: the reference
    for the column-wise construction."""
    rows, cols, vals = [], [], []
    for u, v, w in edges:
        rows += [u, v]
        cols += [v, u]
        vals += [w, w]
    return sp.csr_matrix((np.asarray(vals), (np.asarray(rows), np.asarray(cols))), shape=(n, n))


def _assert_adjacency_equals_the_edge_loop(n, edges):
    f = t.CutMonitorObjective(t.WeightedGraph(n, edges))
    ref = _edge_loop_adjacency(n, edges)
    for got, name in ((f._indptr, "indptr"), (f._indices, "indices"), (f._data, "data")):
        want = getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(sparse_edge_lists())
def test_sparse_cut_adjacency_equals_the_edge_loop(case):
    _assert_adjacency_equals_the_edge_loop(*case)


class _KernelCalls:
    """SciPy's CSR module, recording the name of each kernel called."""

    def __init__(self):
        self.module, self.called = objmod._sparsetools(), []

    def __getattr__(self, name):
        kernel = getattr(self.module, name)

        def call(*args):
            self.called.append(name)
            return kernel(*args)
        return call


N = objmod._SPARSE_MIN_NODES
# rows whose entries coo_tocsr leaves out of order, so the build sorts them
# and then sums: a path given from its far end (rows of two), and a hub
# whose 40 spokes come in shuffled order, with six more edges to spoke 7 in
# both orientations, weighted so that the order of their sum shows (2**53
# absorbs a 1.0 added after it, not 1.0 + 1.0 added before).  Past 16
# entries a row is where std::sort stops sorting by insertion and may
# reorder equal ids.
_DESCENDING_PATH = [(u + 1, u, 0.25 + u / 7) for u in range(N - 2, -1, -1)]
_SPOKES = random.Random(5).sample(range(1, 41), 40)
_PARALLEL_IN_A_LONG_ROW = ([(0, v, v / 3) for v in _SPOKES[:20]]
                           + [(0, 7, 2.0**53), (7, 0, 1.0), (0, 7, 1.0), (7, 0, 3.0)]
                           + [(v, 0, v / 5) for v in _SPOKES[20:]]
                           + [(7, 0, 1.0), (0, 7, 0.5)])


@pytest.mark.parametrize("edges, merged", [(_DESCENDING_PATH, 0), (_PARALLEL_IN_A_LONG_ROW, 12)],
                         ids=["descending", "parallel-in-a-long-row"])
def test_unsorted_sparse_adjacency_is_sorted_and_summed_as_scipy_does(edges, merged):
    """Edges in an order that makes the build sort its rows and sum them:
    the CSR arrays equal SciPy's, byte for byte, and parallel entries are
    merged (seven edges join hub and spoke 7: 12 entries fewer)."""
    kernels = _KernelCalls()
    with mock.patch.object(objmod, "_sparsetools", lambda: kernels):
        _assert_adjacency_equals_the_edge_loop(N, edges)
        f = t.CutMonitorObjective(t.WeightedGraph(N, edges))
    assert kernels.called[:5] * 2 == kernels.called == [
        "coo_tocsr", "csr_has_canonical_format", "csr_has_sorted_indices", "csr_sort_indices",
        "csr_sum_duplicates"] * 2
    assert len(f._indices) == len(f._data) == 2 * len(edges) - merged == f._indptr[-1]


def test_a_sorted_sparse_adjacency_is_not_sorted_again():
    """The edges of a generated ER graph come in the order their rows are
    sorted by, and none is parallel: the build is coo_tocsr alone."""
    kernels = _KernelCalls()
    with mock.patch.object(objmod, "_sparsetools", lambda: kernels):
        t.CutMonitorObjective(t.gen_er(N, 0.1, 1))
    assert kernels.called == ["coo_tocsr", "csr_has_canonical_format"]


def _bad_edges(n):
    """Edges that break the rule on n nodes: an id out of range on either
    end or both, a weight negative, NaN or infinite, both at once, an id
    or a weight that is an int past float64's range, and an id that is
    not an integer."""
    return [(0, n, 1.0), (-1, 0, 1.0), (n + 7, -3, 0.0), (0, 1, -0.5), (1, 0, float("nan")),
            (2, 2, float("inf")), (n, 0, -1.0), (0, 10**400, 0.5), (0, 1, 10**400), (0, 1.5, 1.0),
            (np.float64(2.0), 0, 1.0)]


def _with_bad_edges(data, n, edges, min_size):
    """`edges` with between min_size and three bad edges put in at random places."""
    for edge in data.draw(st.lists(st.sampled_from(_bad_edges(n)), min_size=min_size, max_size=3)):
        edges.insert(data.draw(st.integers(0, len(edges))), edge)
    return edges


@given(sparse_edge_lists(), st.data())
def test_validate_equals_the_edge_loop(case, data):
    n, edges = case
    edges = _with_bad_edges(data, n, edges, 0)
    try:
        helpers.edge_loop_validate(n, edges)
    except t.ContractViolation as want:
        # an edge the columns cannot hold is rejected as the graph is built
        with pytest.raises(t.ContractViolation) as got:
            t.WeightedGraph(n, edges).validate()
        assert str(got.value) == str(want)
    else:
        graph = t.WeightedGraph(n, edges)
        graph.validate()
        assert graph.edges == [(int(u), int(v), float(w)) for u, v, w in edges]


@pytest.mark.parametrize("n", [3, objmod._SPARSE_MIN_NODES + 8])
@given(sparse_edge_lists(), st.data())
def test_cut_rejects_the_first_bad_edge_as_validate_does(n, case, data):
    edges = _with_bad_edges(data, n, [e for e in case[1] if max(e[:2]) < n], 1)
    with pytest.raises(t.ContractViolation) as want:
        helpers.edge_loop_validate(n, edges)
    with pytest.raises(t.ContractViolation) as got:
        t.CutMonitorObjective(t.WeightedGraph(n, edges))
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
    assert f.evaluate(base, e) == f.evaluate(s, e) == full  # exact, not approx
    assert f.query_count == q0 + 3
    assert _same_base(_base_arrays(base), before)
    assert full == pytest.approx(helpers.naive_cut(f.graph, s | 1 << e), abs=1e-9)


@given(cut_cases(), st.integers(1, 8))
def test_grown_cut_base_equals_a_fresh_one(case, k):
    f, s, _ = case
    base = f.base(s)
    rng = random.Random(k)
    outside = [u for u in range(f.n) if not (s >> u) & 1]
    for u in rng.sample(outside, min(k, len(outside))):
        assert f.evaluate(base, u) == f.evaluate(s | 1 << u)
        s |= 1 << u
        before = _base_arrays(base)
        grown = f.grow(base, u)
        assert _same_base(_base_arrays(base), before)
        base = grown
    assert _same_base(_base_arrays(base), _base_arrays(f.base(s)))


@given(cut_cases(), st.lists(st.tuples(st.integers(0, 2**16), st.booleans()), max_size=8))
def test_a_cut_base_shared_by_two_sides_is_left_unchanged(case, steps):
    """As the twin solvers start: two sides share one base and query it in
    turn, first both with e, a side that inserts grows its own base from
    its old one, and a rejected query (the id n) follows every query.
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
        assert f.evaluate(bases[i], u) == f.evaluate(grown)
        with pytest.raises(t.ContractViolation):
            f.evaluate(bases[i], f.n)
        if insert:
            sides[i], bases[i] = grown, f.grow(bases[i], u)
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
            f.evaluate(base, 1)
    assert _same_base(_base_arrays(base), before)
    assert f.evaluate(base, 1) == f.evaluate(0b11) == 0.25


def test_csr_matvec_adds_into_out_and_skips_a_descending_span():
    """The kernel contract the sparse cut relies on, checked on the kernel
    a sparse cut calls, SciPy's private `csr_matvec`: it adds A @ x into
    `out`, and a row whose index-pointer start lies past its end adds
    nothing."""
    matvec = objmod._sparsetools().csr_matvec
    adj = sp.csr_matrix(np.array([[0.0, 0.5, 0.25], [2.0, 0.0, 1.0], [0.0, 4.0, 0.0]]))
    x = np.array([1.0, 2.0, 4.0])
    out = np.array([8.0, 16.0, 32.0])
    matvec(3, 3, adj.indptr, adj.indices, adj.data, x, out)
    assert out.tolist() == [8.0 + 2.0, 16.0 + 6.0, 32.0 + 8.0]
    ip = adj.indptr  # rows 2 and 0, descending; the row between spans [ip[3], ip[0]]
    ptr = np.array([ip[2], ip[3], ip[0], ip[1]], dtype=ip.dtype)
    out = np.full(3, 0.125)
    matvec(3, 3, ptr, adj.indices, adj.data, x, out)
    assert out.tolist() == [0.125 + 8.0, 0.125, 0.125 + 2.0]


# run in a fresh interpreter, one line per step: its name, whether the
# scipy.sparse package is loaded after it, and whether SciPy's CSR kernels are
SCIPY_STEP = """
import sys

def step(name):
    print(name, "scipy.sparse" in sys.modules, "scipy.sparse._sparsetools" in sys.modules)
"""
SCIPY_STEPS = SCIPY_STEP + """
import twinopt as t

def solve(f, c):
    t.solve("twinfast", f, c, t.GroundSet(f.n), epsilon=0.1)

step("import")
solve(t.CutMonitorObjective(t.gen_er(191, 0.1, 1)), t.UniformMatroid(191, 5))
step("cut-191")
g = t.gen_ba(40, 3, 2, 2)
g = t.set_indegree_probabilities(t.WeightedGraph(40, g.edges + [(v, u, w) for u, v, w in g.edges],
                                                 directed=True))
solve(t.MarketingObjective([t.gen_rr_sets(g, 30, s) for s in (3, 4)], [1.0] * 40),
      t.SeedMatroid(40, 2, 3))
step("marketing")
solve(t.ModularObjective([1.0, 2.0, 3.0]), t.UniformMatroid(3, 2))
step("modular")
solve(t.CutMonitorObjective(t.gen_er(192, 0.1, 1)), t.UniformMatroid(192, 5))
step("cut-192")
"""
# the CLI's `main`, as `python -m twinopt ARGS` runs it, with ARGS from argv
SCIPY_CLI = SCIPY_STEP + """
import contextlib, io, runpy
name, sys.argv = sys.argv[1], ["twinopt"] + sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    runpy.run_module("twinopt", run_name="__main__")
step(name)
"""


def _scipy_steps(code, *args):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code, *args], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True)
    return [line.split() for line in run.stdout.splitlines()]


def test_scipy_sparse_is_never_loaded_and_its_kernels_only_by_a_sparse_cut(tmp_path):
    """No twinopt process loads the scipy.sparse package.  Importing
    twinopt, `python -m twinopt --help`, and building and solving a
    list-path cut, a marketing and a modular objective load none of
    SciPy; the first cut on the sparse path, built in Python or by the
    CLI's `run` from a saved 1000-node graph, loads its CSR kernels
    alone."""
    assert _scipy_steps(SCIPY_STEPS) == [
        ["import", "False", "False"], ["cut-191", "False", "False"],
        ["marketing", "False", "False"], ["modular", "False", "False"],
        ["cut-192", "False", "True"]]
    assert _scipy_steps(SCIPY_CLI, "help", "--help") == [["help", "False", "False"]]
    graph = tmp_path / "g.txt"
    save_edge_list(graph, t.gen_er(1000, 0.01, 3))
    run = ["run", "--algo", "twinfast", "--epsilon", "0.1", "--objective", "cut",
           "--graph", str(graph), "--constraint", "uniform:k=5", "--out", str(tmp_path / "r.json")]
    assert _scipy_steps(SCIPY_CLI, "run", *run) == [["run", "False", "True"]]
    assert json.loads((tmp_path / "r.json").read_text())["n"] == 1000


@given(cut_cases())
def test_based_cut_query_rejects_ids_past_the_nodes(case):
    f, s, e = case
    base = f.base(s)
    for bad in (f.n, f.n + 5):
        with pytest.raises(t.ContractViolation):
            f.evaluate(base, bad)
        with pytest.raises(t.ContractViolation):
            f.evaluate(s | 1 << e, bad)
        with pytest.raises(t.ContractViolation):
            f.grow(base, bad)
    with pytest.raises(t.ContractViolation):
        f.evaluate(s | 1 << f.n)
    with pytest.raises(t.ContractViolation):
        f.base(s | 1 << f.n)


def test_the_base_is_the_mask_but_for_the_sparse_cut_and_marketing():
    small = t.CutMonitorObjective(t.WeightedGraph(5, [(0, 1, 1.0)]))
    oracles = [small, t.ModularObjective([1.0, 2.0]),
               helpers.CoverageObjective([1.0], [0b1, 0b0])]
    for f in oracles:
        assert f.base(0) == 0 and f.grow(f.base(0), 1) == 0b10
        assert f.evaluate(f.base(0), 0) == f.evaluate(0b1)
    sparse = t.CutMonitorObjective(t.WeightedGraph(objmod._SPARSE_MIN_NODES, [(0, 1, 1.0)]))
    marketing = t.MarketingObjective([t.RRSetCollection(2, [0b01])], [0.5, 1.0])
    assert sparse.base(0).mask == 0 and marketing.base(0).mask == 0


def test_cut_rejects_directed_graph():
    with pytest.raises(t.ContractViolation):
        t.CutMonitorObjective(t.WeightedGraph(2, [(0, 1, 1.0)], directed=True))


def test_cut_is_non_monotone_constructively():
    graph, ground, oracle, _ = helpers.cut_instance(8, seed=2, p_edge=0.8)
    f = oracle()
    v = graph.edges[0][0]
    assert f.evaluate(1 << v) > f.evaluate((1 << ground.n) - 1)


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
    u, i, m = 0, 0, 2
    e = u * m + i  # seed node 0 for product 0
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
    masks += [0, 1 << cold * m, (1 << cold * m) | masks[-1]]  # node cold, product 0
    masks += [1 << (n - 1) * m + i for i in range(m)]
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
            assert f.evaluate(base, e) == f.evaluate(s, e) == full == _marketing_reference(f, s | 1 << e)
            assert f.query_count == q0 + 3
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
            assert f.evaluate(base, u) == f.evaluate(s | 1 << u)
            s |= 1 << u
            before = copy.deepcopy(base)
            grown = f.grow(base, u)
            assert base == before
            base = grown
        assert base == f.base(s)


@given(marketing_instances())
def test_based_marketing_query_rejects_ids_past_the_range(case):
    f, masks = case
    s = masks[0]
    base = f.base(s)
    for bad in (f.n, f.n + 5):
        with pytest.raises(t.ContractViolation):
            f.evaluate(base, bad)
        with pytest.raises(t.ContractViolation):
            f.grow(base, bad)
    for mask in (s | 1 << f.n, 1 << f.n, s | 1 << (f.n - 1) | 1 << (f.n + 5)):
        with pytest.raises(t.ContractViolation):
            f.evaluate(mask)
        with pytest.raises(t.ContractViolation):
            f.base(mask)


@st.composite
def contract_cases(draw, kind):
    """An oracle of one kind, a set s and an id e outside s: a cut on
    either path (`cut_cases`), marketing (`marketing_instances`), modular,
    coverage, or a `CallableOracle`."""
    if kind in ("list cut", "sparse cut"):
        return draw(cut_cases(sparse=kind == "sparse cut"))
    if kind == "marketing":
        f = draw(marketing_instances())[0]
    elif kind == "modular":
        f = t.ModularObjective(draw(st.lists(st.floats(0, 10), min_size=1, max_size=70)))
    elif kind == "coverage":
        items = draw(st.integers(1, 12))
        covers = draw(st.lists(st.integers(0, (1 << items) - 1), min_size=1, max_size=70))
        weights = draw(st.lists(st.floats(0, 5), min_size=items, max_size=items))
        f = helpers.CoverageObjective(weights, covers)
    else:
        f = t.CallableOracle(lambda mask: mask.bit_count() / 3, draw(st.integers(1, 80)))
    e = draw(st.integers(0, f.n - 1))
    return f, draw(st.integers(0, (1 << f.n) - 1)) & ~(1 << e), e


def _snapshot(base):
    """A deep copy of a base's fields (a mask: itself), for `_same_base`."""
    return (base,) if isinstance(base, int) else copy.deepcopy(tuple(base))


ORACLE_KINDS = ["list cut", "sparse cut", "marketing", "modular", "coverage", "callable"]


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@given(st.data())
def test_every_oracle_keeps_the_query_contract(kind, data):
    """The `ValueOracle` contract on every oracle: `evaluate(base, e)`
    equals `evaluate(s, e)` and `evaluate(s | 1 << e)` exactly, and leaves
    its base bit for bit as it was; `evaluate(base)` is f(s); `grow(base,
    e)` equals `base(s | 1 << e)` and leaves its argument as it was.
    Every query counts one, a rejected one too; building or growing a
    base counts none."""
    f, s, e = data.draw(contract_cases(kind))
    base = f.base(s)
    before = _snapshot(base)
    q0 = f.query_count
    assert f.evaluate(base, e) == f.evaluate(s, e) == f.evaluate(s | 1 << e)
    assert f.evaluate(base) == f.evaluate(s)
    assert f.query_count == q0 + 5
    assert _same_base(_snapshot(base), before)
    grown = f.grow(base, e)
    assert _same_base(_snapshot(grown), _snapshot(f.base(s | 1 << e)))
    assert _same_base(_snapshot(base), before)
    assert f.query_count == q0 + 5


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@given(st.data())
def test_every_oracle_rejects_bad_ids_and_sets(kind, data):
    """`evaluate` on a base or a mask and `grow` reject an e already in
    the set, -1 and n; `evaluate` and
    `base` reject a negative set and a set with an id at or past n.  A
    rejected query counts one; a rejected base or growth counts none.
    Each rejection leaves the base as it was."""
    f, s, e = data.draw(contract_cases(kind))
    base, bigger = f.base(s), f.base(s | 1 << e)
    before = _snapshot(base), _snapshot(bigger)
    outside = f"element {{}} outside the ground set of size {f.n}"
    bad_ids = [(bigger, e, "already in the set"), (s | 1 << e, e, "already in the set")]
    bad_ids += [(at, bad, re.escape(outside.format(bad))) for at in (base, s) for bad in (-1, f.n)]
    bad_sets = [-1, -(1 << 90) | s, s | 1 << f.n, s | 1 << e | 1 << (f.n + 3), 1 << f.n]
    for at, bad, error in bad_ids:
        q0 = f.query_count
        with pytest.raises(t.ContractViolation, match=error):
            f.evaluate(at, bad)
        with pytest.raises(t.ContractViolation, match=error):
            f.grow(at, bad)
        assert f.query_count == q0 + 1
    for mask in bad_sets:
        error = "must be >= 0" if mask < 0 else "at or past the ground size"
        q0 = f.query_count
        with pytest.raises(t.ContractViolation, match=error):
            f.evaluate(mask)
        with pytest.raises(t.ContractViolation, match=error):
            f.base(mask)
        assert f.query_count == q0 + 1
    assert _same_base(_snapshot(base), before[0]) and _same_base(_snapshot(bigger), before[1])


@given(st.integers(1, 80).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2**n - 1),
                                                      st.integers(0, n - 1))))
def test_callable_oracle_states_its_size_and_its_base_is_the_mask(case):
    """A CallableOracle takes ids 0..n-1 only: its function is never
    called on id n, 1 << 100 or a set holding them."""
    n, s, e = case
    asked = []
    f = t.CallableOracle(lambda mask: asked.append(mask) or mask.bit_count() / 3, n)
    s &= ~(1 << e)
    assert f.n == n and f.base(s) == s and f.grow(s, e) == s | 1 << e
    assert f.evaluate(s, e) == f.evaluate(s | 1 << e) == (s | 1 << e).bit_count() / 3
    for bad in (n, 1 << 100):
        with pytest.raises(t.ContractViolation, match=f"element {bad} outside the ground set of "
                                                      f"size {n}"):
            f.evaluate(s, bad)
    with pytest.raises(t.ContractViolation, match=f"at or past the ground size {n}"):
        f.evaluate(s | 1 << n)
    assert f.query_count == 5 and asked == [s | 1 << e] * 2


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


def test_modular_objective_rejects_weights_whose_sum_overflows():
    with pytest.raises(t.ContractViolation, match="finite sum"):
        t.ModularObjective([1e308, 1e308, 1.0])
    assert t.ModularObjective([1e308, 7e307, 1.0]).evaluate(0b111) == 1e308 + 7e307


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


def test_cut_rejects_ids_that_are_not_integers_on_both_paths():
    # a float id used to raise TypeError on the list path and be truncated,
    # here to the edge (0, 1), on the sparse path
    for n in (3, objmod._SPARSE_MIN_NODES + 8):
        for edge, shown in (((0, 1.5, 1.0), "(0,1.5)"), ((1.0, 0, 1.0), "(1.0,0)"),
                            ((0, np.float64(2.0), 1.0), "(0,2.0)")):
            with pytest.raises(t.ContractViolation, match=re.escape(f"edge {shown} has an id that "
                                                                    "is not an integer")):
                t.CutMonitorObjective(t.WeightedGraph(n, [(0, 2, 0.5), edge]))


def test_graph_columns_refuse_a_cast_that_changes_values():
    with pytest.raises(t.ContractViolation, match="int64"):
        t.WeightedGraph.from_columns(3, np.array([0.0, 1.5]), np.array([1, 2]), np.ones(2))
    with pytest.raises(t.ContractViolation, match="one entry per edge"):
        t.WeightedGraph.from_columns(3, [0, 1], [1], [1.0, 1.0])
    for edges in ([(0, 1)], [(0, 1, 1.0, 9)], [(0, 1, 1.0), (1, 2, 1.0, 9)], [(0, 1, 1.0), (1, 2)]):
        with pytest.raises(t.ContractViolation, match=r"\(u, v, w\) triples"):
            t.WeightedGraph(3, edges)


@pytest.mark.parametrize("n", [3, objmod._SPARSE_MIN_NODES + 8])
def test_cut_rejects_weights_whose_sum_could_overflow(n):
    # a total at the bound is accepted; one ulp past it, or an overflowing one, is not
    top = sys.float_info.max / 4
    assert t.CutMonitorObjective(t.WeightedGraph(n, [(0, 1, top / 2), (0, 2, top / 2)])).n == n
    for edges in ([(0, 1, 1e308), (0, 2, 1e308)], [(0, 1, top), (1, 2, math.ulp(top))],
                  [(1, 1, 1e308)]):
        with pytest.raises(t.ContractViolation, match="a cut value could overflow"):
            t.CutMonitorObjective(t.WeightedGraph(n, edges))


@st.composite
def graph_triples(draw, valid=False):
    """A node count and (u, v, w) triples the columns hold: int ids, in
    range or not, and weights that are floats or ints below 2**53, finite
    or not, negative or not; all valid edges if `valid`."""
    n = draw(st.integers(1 if valid else 0, 300))
    if valid:
        ids = st.integers(0, n - 1)
        weights = st.one_of(st.floats(0.0, allow_infinity=False), st.integers(0, 2**53))
    else:
        ids = st.integers(-3, n + 3)
        weights = st.one_of(st.floats(allow_nan=False), st.integers(-2**53, 2**53))
    return n, draw(st.lists(st.tuples(ids, ids, weights), max_size=draw(st.sampled_from([8, 400]))))


@given(graph_triples(), st.booleans())
def test_graph_columns_give_the_triples_back(case, directed):
    n, edges = case
    graph = t.WeightedGraph(n, edges, directed)
    assert graph.edges == [(u, v, float(w)) for u, v, w in edges]
    assert all(type(u) is int and type(v) is int and type(w) is float for u, v, w in graph.edges)
    assert [c.dtype for c in (graph.u, graph.v, graph.w)] == [np.int64, np.int64, np.float64]
    same = t.WeightedGraph.from_columns(n, graph.u, graph.v, graph.w, directed)
    assert same == graph and not same != graph
    assert t.WeightedGraph(n + 1, edges, directed) != graph
    assert t.WeightedGraph(n, edges, not directed) != graph
    assert t.WeightedGraph(n, edges + [(0, 0, 0.0)], directed) != graph
    if edges:
        moved = edges[:-1] + [(edges[-1][0], edges[-1][1], float(edges[-1][2]) + 1.0)]
        assert (t.WeightedGraph(n, moved, directed) == graph) == (moved[-1][2] == edges[-1][2])
        with pytest.raises(ValueError):
            graph.w[0] = 1.0  # the columns are read-only, so graphs may share them


@given(graph_triples(valid=True), st.booleans())
def test_save_then_load_gives_the_graph_back(case, directed):
    n, edges = case
    graph = t.WeightedGraph(n, edges, directed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        save_edge_list(path, graph)
        bulk = os.path.getsize(path) >= core._BULK_MIN_BYTES and len(edges) > 0
        with mock.patch.object(core, "read_rows", wraps=core.read_rows) as per_line:
            assert load_edge_list(path) == graph
        assert per_line.called != bulk
        with mock.patch.object(core, "_BULK_MIN_BYTES", math.inf):
            assert load_edge_list(path) == graph


def test_save_writes_rows_in_blocks_with_the_same_bytes(tmp_path):
    rows = 2 * objmod._SAVE_ROWS + 3
    graph = t.WeightedGraph(5, [(i % 5, (i * 3) % 5, i / 7) for i in range(rows)])
    save_edge_list(tmp_path / "g.txt", graph)
    want = "# nodes 5 directed 0\n" + "".join(f"{u} {v} {w}\n" for u, v, w in graph.edges)
    assert (tmp_path / "g.txt").read_text() == want


def test_criterion_8_cut_from_its_file_keeps_the_edges_as_columns(tmp_path):
    # with a Python tuple per edge, 8.0 MB stayed live after this
    path = tmp_path / "c8.txt"
    save_edge_list(path, t.assign_weights_uniform(t.gen_er(1000, 0.1, 42), 0.0, 1.0, 43))
    t.CutMonitorObjective(t.WeightedGraph(objmod._SPARSE_MIN_NODES, []))  # SciPy loaded untraced
    tracemalloc.start()
    try:
        f = t.CutMonitorObjective(load_edge_list(path, directed=False))
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.graph.n_nodes == 1000 and len(f.graph.w) == 49929
    assert live < 4.0 * 2**20, live


def _loop_bodies(tree):
    """Each loop's parts that run once per pass: a for loop's body and
    else, a while loop's test too, and all of a comprehension but its
    first iterable."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from node.body + node.orelse
        elif isinstance(node, ast.While):
            yield from [node.test] + node.body + node.orelse
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            yield from [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            for k, gen in enumerate(node.generators):
                yield from [gen.target, *gen.ifs] + ([gen.iter] if k else [])


def test_no_package_function_reads_edges_in_a_loop():
    # WeightedGraph.edges builds a list from the columns on every read
    found = []
    for path in sorted(Path(objmod.__file__).parent.glob("*.py")):
        for part in _loop_bodies(ast.parse(path.read_text())):
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(part)
                      if isinstance(node, ast.Attribute) and node.attr == "edges"]
    assert found == []


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
