"""Shared instance builders for the test suite."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from collections import deque

import numpy as np

import twinopt as t
from twinopt.core import left_sum


def digest_and_checks(payload):
    """(sha256 of a run payload as sorted JSON without its
    `independence_checks`, that count).  A pin of both moves only the
    count when a change spares checks whose answer is already known."""
    payload = dict(payload)
    checks = payload.pop("independence_checks")
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest(), checks


def cut_instance(n, seed, p_edge=0.5, h=2, cap=2):
    """Random weighted-cut instance with a random partition matroid."""
    graph = t.assign_weights_uniform(t.gen_er(n, p_edge, seed), 0.0, 1.0, seed + 7)
    parts = t.assign_groups(n, h, seed + 13)
    ground = t.GroundSet(n)

    def oracle():
        return t.CutMonitorObjective(graph)

    def constraint():
        return t.PartitionMatroid(parts, cap)

    return graph, ground, oracle, constraint


@functools.cache
def criterion_8():
    """The criterion-8 instance (ER n=1000, p=0.1, uniform weights, five
    parts of cap 50) and its runs by CLI name: twinfast (epsilon 0.1),
    sample greedy (q 0.5, seed 7), twin and classic greedy.  Returns the
    graph, the ground set, a constraint factory and the runs; the runs
    take seconds, so they are made once per test run."""
    graph = t.assign_weights_uniform(t.gen_er(1000, 0.1, 42), 0.0, 1.0, 43)
    ground = t.GroundSet(1000)
    parts = t.assign_groups(1000, 5, 44)

    def constraint():
        return t.PartitionMatroid(parts, 50)

    runs = {
        "twinfast": t.twin_greedy_fast(t.CutMonitorObjective(graph), constraint(), ground, 0.1),
        "samplegreedy": t.sample_greedy(t.CutMonitorObjective(graph), constraint(), ground,
                                        q=0.5, seed=7),
        "twin": t.twin_greedy(t.CutMonitorObjective(graph), constraint(), ground),
        "greedy": t.classic_greedy(t.CutMonitorObjective(graph), constraint(), ground),
    }
    return graph, ground, constraint, runs


def cut_instance_dyadic(n, seed, p_edge=0.5, h=2, cap=2, p=1):
    """Cut instance with weights in {0/8..63/8}: all sums are exact in
    binary floating point, so algorithm runs are free of rounding noise.
    With p > 1 the constraint is an intersection of p partition matroids,
    grouped as in psystem_instance."""
    base = t.gen_er(n, p_edge, seed)
    rng = np.random.default_rng(seed + 7)
    edges = [(u, v, float(rng.integers(0, 64)) / 8.0) for u, v, _ in base.edges]
    graph = t.WeightedGraph(n, edges)
    if p == 1:
        groups = [t.assign_groups(n, h, seed + 13)]
    else:
        groups = [t.assign_groups(n, h, seed + 17 + i) for i in range(p)]
    ground = t.GroundSet(n)

    def oracle():
        return t.CutMonitorObjective(graph)

    def constraint():
        if p == 1:
            return t.PartitionMatroid(groups[0], cap)
        return t.IntersectionSystem([t.PartitionMatroid(g, cap) for g in groups])

    return graph, ground, oracle, constraint


def psystem_instance(n, seed, p=2, p_edge=0.5, h=2, cap=2):
    """Random weighted-cut instance under an intersection of p partition matroids."""
    graph = t.assign_weights_uniform(t.gen_er(n, p_edge, seed), 0.0, 1.0, seed + 7)
    ground = t.GroundSet(n)
    groups = [t.assign_groups(n, h, seed + 17 + i) for i in range(p)]

    def oracle():
        return t.CutMonitorObjective(graph)

    def constraint():
        return t.IntersectionSystem([t.PartitionMatroid(g, cap) for g in groups])

    return graph, ground, oracle, constraint


class CoverageObjective(t.ValueOracle):
    """Weighted coverage: f(S) is the total weight of items covered by S.

    Monotone and submodular; the monotone fixture of the tests.
    """

    def __init__(self, item_weights, covers):
        super().__init__()
        self.item_weights = [float(w) for w in item_weights]
        self.covers = list(covers)
        self.n = len(self.covers)

    def _value(self, mask: int) -> float:
        covered = 0
        for e in t.members(mask):
            covered |= self.covers[e]
        return left_sum(self.item_weights[i] for i in t.members(covered))


def coverage_instance(n, seed, universe=14):
    """Random monotone coverage objective with a uniform matroid."""
    rng = random.Random(seed)
    weights = [rng.uniform(0.1, 1.0) for _ in range(universe)]
    covers = [t.bitmask(rng.sample(range(universe), rng.randint(1, 4))) for _ in range(n)]
    ground = t.GroundSet(n)
    k = rng.randint(2, 4)

    def oracle():
        return CoverageObjective(weights, covers)

    def constraint():
        return t.UniformMatroid(n, k)

    return ground, oracle, constraint


def independent_by_definition(constraint, mask):
    """Whether `mask` is independent under `constraint`, by the textbook
    definition of its type applied to the whole set: the reference the
    incremental states are checked against."""
    ids = t.members(mask)
    if isinstance(constraint, t.UniformMatroid):
        return len(ids) <= constraint.k
    if isinstance(constraint, t.PartitionMatroid):
        counts = [0] * constraint.h
        for e in ids:
            counts[constraint.part_of[e]] += 1
        return max(counts, default=0) <= constraint.cap
    if isinstance(constraint, t.SeedMatroid):
        nodes = [e // constraint.m for e in ids]
        return len(ids) <= constraint.k and len(set(nodes)) == len(nodes)
    if isinstance(constraint, t.IntersectionSystem):
        return all(independent_by_definition(c, mask) for c in constraint.constituents)
    raise TypeError(f"no reference for {type(constraint).__name__}")


def log_report(n, entries):
    """A twin_greedy RunReport for a hand-written insertion log of
    (element, side, gain) triples; each side's value is its gain sum."""
    log = t.InsertionLog()
    for element, side, gain in entries:
        log.append(element=element, side=side, gain=gain)
    s1, s2 = log.replay()
    f1, f2 = (sum(g for _, side, g in entries if side == s) for s in (1, 2))
    return t.RunReport("twin_greedy", n, {}, s1, s2, s1 if f1 >= f2 else s2, f1, f2,
                       max(f1, f2), log, 0, 0, 0.0)


def twin_budget(n, s1_size, s2_size):
    return 2 * n * (s1_size + s2_size + 1) + n


def fast_budget(n, r, eps):
    passes = math.ceil(math.log((1.0 + eps) * r / eps) / math.log(1.0 + eps))
    return n + 2 * n * (passes + 1)


def edge_loop_validate(n, edges):
    """`WeightedGraph(n, edges).validate()` as a loop over the (u, v, w)
    triples as given, the reference for the columns and their NumPy pass:
    the first edge with an id that is not an int, an id outside 0..n-1 or
    a weight that is not a finite float64 >= 0 raises, its ids checked
    first."""
    for u, v, w in edges:
        if not all(isinstance(x, (int, np.integer)) for x in (u, v)):
            raise t.ContractViolation(f"edge ({u},{v}) has an id that is not an integer")
        if not (0 <= u < n and 0 <= v < n):
            raise t.ContractViolation(f"edge ({u},{v}) has an id outside 0..{n - 1}")
        try:
            weight_ok = math.isfinite(w) and w >= 0
        except OverflowError:  # an int past float64's range
            weight_ok = False
        if not weight_ok:
            raise t.ContractViolation(f"edge ({u},{v}) has bad weight {w}")


def naive_cut(graph, mask):
    """Independent double-loop edge scan used as a value oracle of record."""
    total = 0.0
    for u, v, w in graph.edges:
        if ((mask >> u) & 1) != ((mask >> v) & 1):
            total += w
    return total


def list_cut(graph, mask):
    """The cut value as the list path first summed it: a nested loop over
    the members, ascending, and each one's neighbour list."""
    adj = graph.in_adjacency()
    total = 0.0
    for u in t.members(mask):
        for v, w in adj[u]:
            if not (mask >> v) & 1:
                total += w
    return total


def scalar_rr_sets(graph, count, seed):
    """Reverse-reachable sets drawn with one scalar `rng.random()` per
    liveness coin, the sampler `gen_rr_sets` must reproduce bit for bit.
    Returns the sets and the number of coins each walk drew."""
    rng = np.random.default_rng(seed)
    in_adj = graph.in_adjacency()
    sets, coins = [], []
    for _ in range(count):
        root = int(rng.integers(graph.n_nodes))
        mask = 1 << root
        queue = deque([root])
        drawn = 0
        while queue:
            w = queue.popleft()
            for u, p in in_adj[w]:
                if not (mask >> u) & 1:
                    drawn += 1
                    if rng.random() < p:
                        mask |= 1 << u
                        queue.append(u)
        sets.append(mask)
        coins.append(drawn)
    return sets, coins


def scalar_ba_edges(n, m0, m, seed):
    """Barabasi-Albert edges drawn with one scalar `rng.integers` per
    attachment draw, the generator `gen_ba` must reproduce bit for bit."""
    rng = np.random.default_rng(seed)
    edges, repeated = [], []
    for u in range(m0):
        for v in range(u + 1, m0):
            edges.append((u, v, 1.0))
            repeated += [u, v]
    for v in range(m0, n):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for u in sorted(targets):
            edges.append((u, v, 1.0))
            repeated += [u, v]
    return edges


def whole_triangle_er_edges(n, p, seed):
    """Erdos-Renyi edges drawn with one `rng.random` call over every pair
    of `np.triu_indices(n, k=1)`, the graph `gen_er` must reproduce bit
    for bit."""
    rng = np.random.default_rng(seed)
    if n < 2 or p <= 0.0:
        return []
    rows, cols = np.triu_indices(n, k=1)
    keep = rng.random(rows.shape[0]) < p
    return [(u, v, 1.0) for u, v in zip(rows[keep].tolist(), cols[keep].tolist())]


def exact_max_unpruned(f, constraint, ground):
    """`exact_max` as a walk over every independent set, depth first in
    ascending id order, keeping the first strict maximum: the reference
    the branch-and-bound search must match in solution and value while
    making no more queries."""
    n = ground.n
    best = [0, f.evaluate(0), 1]

    def walk(mask, state, start):
        for e in range(start, n):
            if not constraint.can_add(state, e):
                continue
            grown = mask | (1 << e)
            val = f.evaluate(grown)
            best[2] += 1
            if val > best[1]:
                best[0], best[1] = grown, val
            walk(grown, constraint.add(state, e), e + 1)

    walk(0, constraint.empty_state(), 0)
    return t.ExactResult(solution=best[0], value=best[1], sets_visited=best[2])
