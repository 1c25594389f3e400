"""Concrete independence oracles and brute-force structure validators.

Covers uniform and partition matroids, the one-seed-per-node selection
matroid used by the marketing application, and p-set systems formed by
intersecting matroids.  Each type states its family once, through the
incremental empty_state/can_add/add interface, so solvers can test
feasibility in O(1); `is_independent` folds a set through the same
states.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from .core import ContractViolation, GroundSet, IndependenceOracle, members, read_dense, write_rows


class UniformMatroid(IndependenceOracle):
    """Independent iff |S| <= k."""

    def __init__(self, n: int, k: int):
        super().__init__(n)
        if k < 0:
            raise ContractViolation(f"uniform matroid needs k >= 0, got {k}")
        self.k = k

    @property
    def base_size(self) -> int:
        return min(self.k, self.n)

    def empty_state(self):
        return 0

    def _can_add(self, state, e):
        return state < self.k

    def add(self, state, e):
        return state + 1


class PartitionMatroid(IndependenceOracle):
    """Independent iff every part holds at most `cap` selected elements."""

    def __init__(self, part_of, cap: int):
        super().__init__(len(part_of))
        if cap < 0:
            raise ContractViolation(f"partition matroid needs cap >= 0, got {cap}")
        index = {p: i for i, p in enumerate(sorted(set(part_of)))}  # any labels -> 0..h-1
        self.part_of = [index[p] for p in part_of]
        self.cap = cap
        self.h = len(index)

    @property
    def base_size(self) -> int:
        return sum(min(self.cap, size) for size in Counter(self.part_of).values())

    def empty_state(self):
        return [0] * self.h

    def _can_add(self, state, e):
        return state[self.part_of[e]] < self.cap

    def add(self, state, e):
        nxt = state.copy()
        nxt[self.part_of[e]] += 1
        return nxt


class SeedMatroid(IndependenceOracle):
    """Seed-selection matroid over node-product pairs.

    Ground ids pack (node u, product i) as u*m + i.  A set is independent
    iff it has at most k elements overall and at most one element per node.
    """

    def __init__(self, n_nodes: int, m: int, k: int):
        if n_nodes < 0 or m < 1 or k < 0:
            raise ContractViolation(f"seed matroid needs |V|, k >= 0 and m >= 1, got {n_nodes, m, k}")
        super().__init__(n_nodes * m)
        self.n_nodes = n_nodes
        self.m = m
        self.k = k

    @property
    def base_size(self) -> int:
        return min(self.k, self.n_nodes)

    def empty_state(self):
        return (0, 0)  # (size, used-node mask)

    def _can_add(self, state, e):
        size, used = state
        return size < self.k and not (used >> e // self.m) & 1

    def add(self, state, e):
        size, used = state
        return (size + 1, used | (1 << e // self.m))


class IntersectionSystem(IndependenceOracle):
    """Intersection of p matroids over a common ground set (a p-set system).

    With one constituent it is that matroid and states its base size;
    with more its bases may differ in size, so it states none.
    """

    def __init__(self, constituents):
        if not constituents:
            raise ContractViolation("need at least one constituent")
        ns = {c.n for c in constituents}
        if len(ns) != 1:
            raise ContractViolation("constituents must share one ground set")
        super().__init__(constituents[0].n)
        self.constituents = list(constituents)
        self.p = len(self.constituents)

    @property
    def base_size(self) -> int | None:
        return self.constituents[0].base_size if self.p == 1 else None

    def empty_state(self):
        return tuple(c.empty_state() for c in self.constituents)

    def _can_add(self, state, e):
        for c, st in zip(self.constituents, state):
            if not c._can_add(st, e):
                return False
        return True

    def add(self, state, e):
        return tuple([c.add(st, e) for c, st in zip(self.constituents, state)])


# ---------------------------------------------------------------------------
# operations


def rank(constraint: IndependenceOracle, ground: GroundSet) -> int:
    """The constraint's stated `base_size`, else the size of the greedy
    base built in element-id order.

    Every matroid here states its rank, so for them this costs no
    independence check.  For a general p-set system the greedy base is
    one particular base, within a factor p of any other base; that is the
    quantity the thresholded solver needs.
    """
    size = constraint.base_size
    return greedy_base_size(constraint, ground.elements()) if size is None else size


def greedy_base_size(constraint: IndependenceOracle, order) -> int:
    """Greedy base size for an explicit insertion order."""
    state = constraint.empty_state()
    size = 0
    for e in order:
        if constraint.can_add(state, e):
            state = constraint.add(state, e)
            size += 1
    return size


def hereditary_check(constraint: IndependenceOracle, ground: GroundSet,
                     samples: int = 1000, seed: int = 0):
    """Sample independent sets and verify all single-element removals stay
    independent.  Returns (True, None) or (False, (set, removed_element))."""
    rng = random.Random(seed)
    n = ground.n
    for _ in range(samples):
        mask = rng.getrandbits(n) if n else 0
        if not constraint.is_independent(mask):
            continue
        for e in members(mask):
            if not constraint.is_independent(mask & ~(1 << e)):
                return False, (members(mask), e)
    return True, None


def verify_matroid(constraint: IndependenceOracle, ground: GroundSet,
                   exhaustive: bool = True, samples: int = 2000, seed: int = 0):
    """Check the hereditary and exchange properties.

    Exhaustive mode enumerates all 2^n subsets (n <= 16) and checks every
    pair A, B of independent sets with |A| < |B|.  Sampled mode draws
    random pairs instead.  Returns (True, None) or (False, witness) where
    the witness is ("hereditary", S, e) or ("exchange", A, B).
    """
    n = ground.n
    if exhaustive:
        if n > 16:
            raise ContractViolation("exhaustive verification needs n <= 16")
        family = [m for m in range(1 << n) if constraint.is_independent(m)]
        fam_set = set(family)
        if 0 not in fam_set:
            return False, ("hereditary", [], None)
        for s in family:
            for e in members(s):
                if s & ~(1 << e) not in fam_set:
                    return False, ("hereditary", members(s), e)
        by_size: dict[int, list[int]] = {}
        for s in family:
            by_size.setdefault(s.bit_count(), []).append(s)
        sizes = sorted(by_size)
        for ka, kb in itertools.combinations(sizes, 2):
            for a in by_size[ka]:
                for b in by_size[kb]:
                    if not any(a | (1 << x) in fam_set for x in members(b & ~a)):
                        return False, ("exchange", members(a), members(b))
        return True, None

    rng = random.Random(seed)
    ok, witness = hereditary_check(constraint, ground, samples=samples, seed=seed)
    if not ok:
        return False, ("hereditary", witness[0], witness[1])
    for _ in range(samples):
        a = _random_independent(constraint, n, rng)
        b = _random_independent(constraint, n, rng)
        if a.bit_count() > b.bit_count():
            a, b = b, a
        if a.bit_count() == b.bit_count():
            continue
        if not any(constraint.is_independent(a | (1 << x)) for x in members(b & ~a)):
            return False, ("exchange", members(a), members(b))
    return True, None


def _random_independent(constraint, n, rng):
    order = list(range(n))
    rng.shuffle(order)
    stop = rng.randint(0, n)
    state = constraint.empty_state()
    mask = 0
    for e in order[:stop]:
        if constraint.can_add(state, e):
            state = constraint.add(state, e)
            mask |= 1 << e
    return mask


# ---------------------------------------------------------------------------
# file formats


def load_partition(path) -> list[int]:
    """Read `element_id part_id` lines covering the ids 0..n-1 exactly once."""
    return read_dense(path, "element_id part_id", int)


def save_partition(path, part_of) -> None:
    write_rows(path, enumerate(part_of))


def parse_seed_config(text: str) -> tuple[int, int, int]:
    """Parse a `|V| m k` seed-matroid config line."""
    fields = text.split()
    if len(fields) != 3:
        raise ContractViolation("seed-matroid config must be three integers: |V| m k")
    v, m, k = (int(x) for x in fields)
    return v, m, k
