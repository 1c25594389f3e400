"""Reproducible synthetic-instance generation.

Everything here is a deterministic function of (parameters, seed); the
generator algorithm is recorded as RNG_ID so artifacts can state exactly
which bit stream produced them.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import repeat

import numpy as np

from .core import ContractViolation, bitmask, members
from .objectives import RRSetCollection, WeightedGraph

RNG_ID = "numpy-pcg64"

# 64-bit words _Stream reads from the bit generator at a time
_BLOCK = 4096


class _Stream:
    """The scalar draws of `np.random.default_rng(seed)`, read in raw blocks.

    `random()` and `integers(k)` return what the Generator's own scalar
    calls, made in the same order, return; the stream reads ahead of them
    `_BLOCK` 64-bit words at a time with `random_raw`.  A double is a
    word's top 53 bits times 2**-53 (PCG64's `next_double`); `doubles`
    holds them for the whole block, and `pos` indexes both it and the
    words.  An integer is Lemire's bounded draw on 32-bit halves, the low
    half of a word first, with the upper half kept for the next integer
    draw as PCG64's `has_uint32` keeps it.  A double leaves that half in
    place.
    """

    def __init__(self, seed):
        self._bit_generator = np.random.default_rng(seed).bit_generator
        self._words = np.empty(0, np.uint64)
        self.doubles: list[float] = []
        self.pos = 0
        self._half = None

    def reserve(self, count: int) -> None:
        """Make at least `count` unread words follow `pos`."""
        if self.pos + count > len(self.doubles):
            raw = self._bit_generator.random_raw(max(_BLOCK, count))
            self._words = np.concatenate((self._words[self.pos:], raw))
            self.doubles = self.doubles[self.pos:] + ((raw >> np.uint64(11)) * 2.0**-53).tolist()
            self.pos = 0

    def random(self) -> float:
        self.reserve(1)
        self.pos += 1
        return self.doubles[self.pos - 1]

    def integers(self, k: int) -> int:
        """Uniform on 0..k-1 for 1 <= k <= 2**32, as `Generator.integers(k)`."""
        if not 1 <= k <= 1 << 32:
            raise ContractViolation(f"need 1 <= k <= 2**32, got {k}")
        if k == 1:
            return 0
        threshold = ((1 << 32) - k) % k
        while True:
            m = self._uint32() * k
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        self.reserve(1)
        word = self._words.item(self.pos)
        self.pos += 1
        self._half = word >> 32
        return word & 0xFFFFFFFF


def gen_er(n: int, p: float, seed: int) -> WeightedGraph:
    """Erdos-Renyi G(n, p): each unordered pair kept independently w.p. p."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ContractViolation(f"need n >= 0 and edge probability p in [0,1], got {n}, {p}")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int, float]] = []
    if n >= 2 and p > 0.0:
        rows, cols = np.triu_indices(n, k=1)
        keep = rng.random(rows.shape[0]) < p
        edges = list(zip(rows[keep].tolist(), cols[keep].tolist(), repeat(1.0)))
    return WeightedGraph(n, edges, directed=False)


def gen_ba(n: int, m0: int, m: int, seed: int) -> WeightedGraph:
    """Barabasi-Albert preferential attachment from an m0-node seed clique.

    Each newcomer attaches m edges to distinct existing nodes with
    probability proportional to degree; collisions are resampled, so the
    edge count is exactly m0*(m0-1)/2 + (n-m0)*m.
    """
    if not (1 <= m <= m0 <= n):
        raise ContractViolation("need 1 <= m <= m0 <= n")
    if m0 < 2 and n > m0:
        raise ContractViolation("need m0 >= 2 when n > m0: newcomers attach to seed-clique edges")
    stream = _Stream(seed)
    edges: list[tuple[int, int, float]] = []
    # degree-weighted sampling via a repeated-endpoint list
    repeated: list[int] = []
    for u in range(m0):
        for v in range(u + 1, m0):
            edges.append((u, v, 1.0))
            repeated += [u, v]
    for v in range(m0, n):
        targets: set[int] = set()
        while len(targets) < m:
            t = repeated[stream.integers(len(repeated))]
            targets.add(t)
        for t in sorted(targets):
            edges.append((t, v, 1.0))
            repeated += [t, v]
    return WeightedGraph(n, edges, directed=False)


def assign_weights_uniform(g: WeightedGraph, lo: float, hi: float, seed: int) -> WeightedGraph:
    """Replace edge weights with i.i.d. uniforms from [lo, hi)."""
    if not 0.0 <= lo <= hi < math.inf:
        raise ContractViolation(f"need finite weights 0 <= lo <= hi, got {lo}, {hi}")
    rng = np.random.default_rng(seed)
    draws = rng.uniform(lo, hi, len(g.edges)) if g.edges else np.empty(0)
    edges = [(u, v, w) for (u, v, _), w in zip(g.edges, draws.tolist())]
    return WeightedGraph(g.n_nodes, edges, directed=g.directed)


def assign_groups(n: int, h: int, seed: int) -> list[int]:
    """Assign each of n nodes uniformly to one of h parts."""
    if h < 1:
        raise ContractViolation("need at least one group")
    rng = np.random.default_rng(seed)
    return rng.integers(0, h, n).tolist()


def set_indegree_probabilities(g: WeightedGraph) -> WeightedGraph:
    """Set each edge's activation probability to 1/indegree of its head."""
    if not g.directed:
        raise ContractViolation("in-degree probabilities need a directed graph")
    g.validate()
    deg = g.in_degrees()
    edges = [(u, v, 1.0 / deg[v]) for u, v, _ in g.edges]
    return WeightedGraph(g.n_nodes, edges, directed=True)


def _check_probabilities(g: WeightedGraph) -> None:
    """Raise as `g.validate()` does, or for the first edge whose weight, its
    activation probability, is above 1."""
    above = np.flatnonzero(g.validate()[:, 2] > 1.0)
    if len(above):
        u, v, p = g.edges[above[0]]
        raise ContractViolation(f"edge ({u},{v}) has probability {p} outside [0,1]")


def gen_rr_sets(g: WeightedGraph, count: int, seed: int) -> RRSetCollection:
    """Sample `count` reverse-reachable sets under independent edge liveness.

    Per sample: pick a root uniformly, then walk the in-edges backwards,
    flipping each edge's liveness coin the first time it is examined.
    Each edge is examined at most once per sample, so the lazy walk draws
    from the same distribution as materializing a full live-edge graph.

    Roots and coins come from one `_Stream`, so every set is the one a
    scalar `rng.integers(n)` per root and `rng.random()` per coin give.
    Before a node's in-edges are walked the stream holds a coin for each
    of them, and the walk reads them straight from its `doubles`.
    """
    if count < 1:
        raise ContractViolation("need at least one sample")
    if not g.directed:
        raise ContractViolation("reverse-reachable sampling needs a directed graph")
    n = g.n_nodes
    if n < 1:
        raise ContractViolation("reverse-reachable sampling needs at least one node")
    _check_probabilities(g)
    stream = _Stream(seed)
    in_adj = g.in_adjacency()
    sets = []
    for _ in range(count):
        root = stream.integers(n)
        seen = {root}
        queue = [root]
        coins, used = stream.doubles, stream.pos
        for w in queue:  # breadth first: the queue grows while it is read
            edges = in_adj[w]
            if used + len(edges) > len(coins):
                stream.pos = used
                stream.reserve(len(edges))
                coins, used = stream.doubles, stream.pos
            for u, p in edges:
                if u not in seen:
                    if coins[used] < p:
                        seen.add(u)
                        queue.append(u)
                    used += 1
        stream.pos = used
        sets.append(bitmask(queue))
    return RRSetCollection(g.n_nodes, sets)


def ic_exact_spread(g: WeightedGraph, seeds_mask: int) -> float:
    """Exact expected independent-cascade spread by live-edge enumeration.

    Sums reachable-set sizes over all 2^|E| liveness patterns weighted by
    their probability, so it is only usable for |E| <= 20.
    """
    n_edges = len(g.edges)
    if n_edges > 20:
        raise ContractViolation("exact spread enumerates 2^|E| patterns; need |E| <= 20")
    _check_probabilities(g)
    if seeds_mask == 0:
        return 0.0
    seeds = members(seeds_mask)
    probs = [p for _, _, p in g.edges]
    total = 0.0
    for pattern in range(1 << n_edges):
        weight = 1.0
        adj: list[list[int]] = [[] for _ in range(g.n_nodes)]
        for idx, (u, v, _) in enumerate(g.edges):
            if (pattern >> idx) & 1:
                weight *= probs[idx]
                adj[u].append(v)
                if not g.directed:
                    adj[v].append(u)
            else:
                weight *= 1.0 - probs[idx]
        if weight == 0.0:
            continue
        reached = seeds_mask
        queue = deque(seeds)
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if not (reached >> v) & 1:
                    reached |= 1 << v
                    queue.append(v)
        total += weight * reached.bit_count()
    return total
