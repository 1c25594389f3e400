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

# liveness coins gen_rr_sets draws per block
_COIN_BLOCK = 128


def _rng(seed):
    return np.random.default_rng(seed)


def gen_er(n: int, p: float, seed: int) -> WeightedGraph:
    """Erdos-Renyi G(n, p): each unordered pair kept independently w.p. p."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ContractViolation(f"need n >= 0 and edge probability p in [0,1], got {n}, {p}")
    rng = _rng(seed)
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
    rng = _rng(seed)
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
            t = repeated[int(rng.integers(len(repeated)))]
            targets.add(t)
        for t in sorted(targets):
            edges.append((t, v, 1.0))
            repeated += [t, v]
    return WeightedGraph(n, edges, directed=False)


def assign_weights_uniform(g: WeightedGraph, lo: float, hi: float, seed: int) -> WeightedGraph:
    """Replace edge weights with i.i.d. uniforms from [lo, hi)."""
    if not 0.0 <= lo <= hi < math.inf:
        raise ContractViolation(f"need finite weights 0 <= lo <= hi, got {lo}, {hi}")
    rng = _rng(seed)
    draws = rng.uniform(lo, hi, len(g.edges)) if g.edges else np.empty(0)
    edges = [(u, v, w) for (u, v, _), w in zip(g.edges, draws.tolist())]
    return WeightedGraph(g.n_nodes, edges, directed=g.directed)


def assign_groups(n: int, h: int, seed: int) -> list[int]:
    """Assign each of n nodes uniformly to one of h parts."""
    if h < 1:
        raise ContractViolation("need at least one group")
    rng = _rng(seed)
    return rng.integers(0, h, n).tolist()


def set_indegree_probabilities(g: WeightedGraph) -> WeightedGraph:
    """Set each edge's activation probability to 1/indegree of its head."""
    if not g.directed:
        raise ContractViolation("in-degree probabilities need a directed graph")
    deg = g.in_degrees()
    edges = [(u, v, 1.0 / deg[v]) for u, v, _ in g.edges]
    return WeightedGraph(g.n_nodes, edges, directed=True)


def gen_rr_sets(g: WeightedGraph, count: int, seed: int) -> RRSetCollection:
    """Sample `count` reverse-reachable sets under independent edge liveness.

    Per sample: pick a root uniformly, then walk the in-edges backwards,
    flipping each edge's liveness coin the first time it is examined.
    Each edge is examined at most once per sample, so the lazy walk draws
    from the same distribution as materializing a full live-edge graph.

    Coins are drawn `_COIN_BLOCK` at a time, which reads the same doubles
    as one scalar `rng.random()` per coin.  After each walk the generator
    is rewound to just past the last coin used, so every root, and every
    set, is the one a scalar draw per coin gives.
    """
    if count < 1:
        raise ContractViolation("need at least one sample")
    if not g.directed:
        raise ContractViolation("reverse-reachable sampling needs a directed graph")
    if g.n_nodes < 1:
        raise ContractViolation("reverse-reachable sampling needs at least one node")
    for u, v, p in g.edges:
        if not 0.0 <= p <= 1.0:
            raise ContractViolation(f"edge ({u},{v}) has probability {p} outside [0,1]")
    rng = _rng(seed)
    in_adj = g.in_adjacency()
    sets = []
    for _ in range(count):
        root = int(rng.integers(g.n_nodes))
        coins: list[float] = []
        used = 0
        seen = {root}
        queue = [root]
        for w in queue:  # breadth first: the queue grows while it is read
            for u, p in in_adj[w]:
                if u not in seen:
                    if used == len(coins):
                        if not coins:
                            start = rng.bit_generator.state
                        coins += rng.random(_COIN_BLOCK).tolist()
                    if coins[used] < p:
                        seen.add(u)
                        queue.append(u)
                    used += 1
        if coins:
            _rewind(rng.bit_generator, start, used)
        sets.append(bitmask(queue))
    return RRSetCollection(g.n_nodes, sets, source_seed=seed)


def _rewind(bit_generator, start: dict, draws: int) -> None:
    """Set `bit_generator` to where `draws` doubles drawn from `start` leave it.

    `advance` also clears PCG64's buffered 32-bit half; a double draw
    never touches it, and the next `integers` root may read it, so it is
    put back from `start`.
    """
    bit_generator.state = start
    bit_generator.advance(draws)
    if start["has_uint32"]:
        bit_generator.state = {**bit_generator.state, "has_uint32": 1,
                               "uinteger": start["uinteger"]}


def ic_exact_spread(g: WeightedGraph, seeds_mask: int) -> float:
    """Exact expected independent-cascade spread by live-edge enumeration.

    Sums reachable-set sizes over all 2^|E| liveness patterns weighted by
    their probability, so it is only usable for |E| <= 20.
    """
    n_edges = len(g.edges)
    if n_edges > 20:
        raise ContractViolation("exact spread enumerates 2^|E| patterns; need |E| <= 20")
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
