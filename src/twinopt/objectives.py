"""Application objectives behind the ValueOracle contract.

The monitoring objective is a weighted cut, the marketing objective is
reverse-reachable-set influence estimation plus budget savings, and the
modular/coverage objectives are synthetic fixtures for tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .core import ContractViolation, ValueOracle, members

# below this many nodes a Python adjacency scan beats the sparse matvec
_SPARSE_MIN_NODES = 192


@dataclass
class WeightedGraph:
    """Edge list with one real weight per edge.

    For undirected monitoring graphs the third component is the edge
    weight; for directed influence graphs it is the activation
    probability p_uv.
    """

    n_nodes: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    directed: bool = False

    def validate(self):
        for u, v, w in self.edges:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ContractViolation(f"edge ({u},{v}) outside node range")
            if not (math.isfinite(w) and w >= 0):
                raise ContractViolation(f"edge ({u},{v}) has bad weight {w}")

    def in_adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_nodes)]
        for u, v, w in self.edges:
            adj[v].append((u, w))
            if not self.directed:
                adj[u].append((v, w))
        return adj

    def out_adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_nodes)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            if not self.directed:
                adj[v].append((u, w))
        return adj

    def in_degrees(self) -> list[int]:
        deg = [0] * self.n_nodes
        for _, v, _ in self.edges:
            deg[v] += 1
        return deg


def save_edge_list(path, graph: WeightedGraph) -> None:
    """Write `u v w` lines (the header comment records n and direction)."""
    with open(path, "w") as fh:
        fh.write(f"# nodes {graph.n_nodes} directed {int(graph.directed)}\n")
        for u, v, w in graph.edges:
            fh.write(f"{u} {v} {w!r}\n")


def load_edge_list(path, directed: bool | None = None) -> WeightedGraph:
    n_nodes = 0
    header_directed = False
    edges = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                fields = line[1:].split()
                if "nodes" in fields:
                    n_nodes = int(fields[fields.index("nodes") + 1])
                if "directed" in fields:
                    header_directed = bool(int(fields[fields.index("directed") + 1]))
                continue
            try:
                u, v, w = line.split()
                edges.append((int(u), int(v), float(w)))
            except ValueError:
                raise ContractViolation(
                    f"{path}:{lineno}: expected 'u v w', got {line!r}") from None
    if edges:
        n_nodes = max(n_nodes, 1 + max(max(u, v) for u, v, _ in edges))
    g = WeightedGraph(n_nodes, edges, directed=header_directed if directed is None else directed)
    g.validate()
    return g


class CutMonitorObjective(ValueOracle):
    """Total weight monitored by S: sum of w(u,v) over edges with exactly
    the orientation u in S, v not in S (undirected, so each crossing edge
    counts once).  Non-negative, non-monotone, submodular; f(empty)=0 and
    f(V)=0.
    """

    def __init__(self, graph: WeightedGraph):
        super().__init__()
        if graph.directed:
            raise ContractViolation("monitoring graphs are undirected")
        graph.validate()
        self.graph = graph
        self.n = graph.n_nodes
        self._sparse = self.n >= _SPARSE_MIN_NODES
        if self._sparse:
            rows, cols, vals = [], [], []
            for u, v, w in graph.edges:
                rows += [u, v]
                cols += [v, u]
                vals += [w, w]
            self._adj = sp.csr_matrix(
                (np.asarray(vals), (np.asarray(rows), np.asarray(cols))),
                shape=(self.n, self.n),
            )
            self._nbytes = (self.n + 7) // 8
        else:
            self._lists = graph.out_adjacency()

    def _value(self, mask: int) -> float:
        if mask >> self.n:
            raise ContractViolation("set contains non-node ids")
        if self._sparse:
            raw = np.frombuffer(mask.to_bytes(self._nbytes, "little"), dtype=np.uint8)
            ind = np.unpackbits(raw, count=self.n, bitorder="little").astype(np.float64)
            return float(ind @ self._adj.dot(1.0 - ind))
        total = 0.0
        for u in members(mask):
            for v, w in self._lists[u]:
                if not (mask >> v) & 1:
                    total += w
        return total


@dataclass
class RRSetCollection:
    """Sampled reverse-reachable sets over the nodes of one graph."""

    n_nodes: int
    sets: list[int]  # node bitmasks
    source_seed: int | None = None

    def __len__(self):
        return len(self.sets)


def rr_estimate(collection: RRSetCollection, seeds_mask: int) -> float:
    """Influence estimate |V| * (fraction of RR sets hit by the seed set).

    Monotone and submodular in the seed set by construction; unbiased for
    the expected live-edge spread when the sets were sampled fairly.
    """
    if not collection.sets:
        raise ContractViolation("estimation needs at least one sampled set")
    hits = 0
    for m in collection.sets:
        if m & seeds_mask:
            hits += 1
    return collection.n_nodes * hits / len(collection.sets)


def save_rr_sets(path, collection: RRSetCollection) -> None:
    with open(path, "w") as fh:
        fh.write(f"# nodes {collection.n_nodes}\n")
        for m in collection.sets:
            fh.write(" ".join(str(e) for e in members(m)) + "\n")


def load_rr_sets(path) -> RRSetCollection:
    n_nodes = 0
    sets = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                fields = line[1:].split()
                if "nodes" in fields:
                    n_nodes = int(fields[fields.index("nodes") + 1])
                continue
            if not line:
                continue
            mask = 0
            for tok in line.split():
                mask |= 1 << int(tok)
            sets.append(mask)
    if sets:
        n_nodes = max(n_nodes, 1 + max(m.bit_length() - 1 for m in sets))
    return RRSetCollection(n_nodes, sets)


def pack_seed_id(node: int, product: int, m: int) -> int:
    return node * m + product


def unpack_seed_id(e: int, m: int) -> tuple[int, int]:
    return divmod(e, m)


class MarketingObjective(ValueOracle):
    """Estimated multi-product revenue with budget savings.

    Ground ids pack (node u, product i) as u*m + i.  For non-empty S the
    value is sum_i estimate_i(S_i) + (B - total seeding cost); the empty
    set is pinned to 0 rather than B, which keeps the function submodular
    while modelling "no seeds, no campaign, no leftover budget".
    """

    def __init__(self, collections: list[RRSetCollection], costs, budget: float | None = None):
        super().__init__()
        if not collections:
            raise ContractViolation("need one RR collection per product")
        n_nodes = collections[0].n_nodes
        if any(c.n_nodes != n_nodes for c in collections):
            raise ContractViolation("collections must share one node set")
        if len(costs) != n_nodes:
            raise ContractViolation("need one cost per node")
        if any(c < 0 for c in costs):
            raise ContractViolation("costs must be non-negative")
        self.collections = collections
        self.m = len(collections)
        self.n_nodes = n_nodes
        self.costs = list(costs)
        self.budget = self.m * sum(self.costs) if budget is None else budget
        self.n = n_nodes * self.m

    def _value(self, mask: int) -> float:
        if mask >> self.n:
            raise ContractViolation("set contains ids outside node x product range")
        if mask == 0:
            return 0.0
        per_product = [0] * self.m
        cost = 0.0
        for e in members(mask):
            u, i = unpack_seed_id(e, self.m)
            per_product[i] |= 1 << u
            cost += self.costs[u]
        spread = sum(
            rr_estimate(self.collections[i], per_product[i])
            for i in range(self.m)
            if per_product[i]
        )
        return spread + (self.budget - cost)


class ModularObjective(ValueOracle):
    """f(S) = sum of per-element weights; weights may be negative."""

    def __init__(self, weights):
        super().__init__()
        self.weights = [float(w) for w in weights]
        self.n = len(self.weights)

    def _value(self, mask: int) -> float:
        if mask >> self.n:
            raise ContractViolation("set contains out-of-range ids")
        return sum(self.weights[e] for e in members(mask))


class CoverageObjective(ValueOracle):
    """Weighted coverage: f(S) is the total weight of items covered by S.

    Monotone and submodular; used as the monotone fixture in tests.
    """

    def __init__(self, item_weights, covers):
        super().__init__()
        self.item_weights = [float(w) for w in item_weights]
        self.covers = list(covers)
        self.n = len(self.covers)

    def _value(self, mask: int) -> float:
        if mask >> self.n:
            raise ContractViolation("set contains out-of-range ids")
        covered = 0
        for e in members(mask):
            covered |= self.covers[e]
        return sum(self.item_weights[i] for i in members(covered))


def load_costs(path) -> list[float]:
    """Read `node cost` lines into a dense list."""
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, c = line.split()
            pairs.append((int(u), float(c)))
    n = max(u for u, _ in pairs) + 1 if pairs else 0
    costs = [0.0] * n
    for u, c in pairs:
        costs[u] = c
    return costs


def save_costs(path, costs) -> None:
    with open(path, "w") as fh:
        for u, c in enumerate(costs):
            fh.write(f"{u} {c!r}\n")
