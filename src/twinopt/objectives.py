"""Application objectives behind the ValueOracle contract.

The monitoring objective is a weighted cut, the marketing objective is
reverse-reachable-set influence estimation plus budget savings, and the
modular objective is a synthetic fixture (the monotone coverage fixture
is in tests/helpers.py).
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec  # the row kernel behind csr_matrix.dot

from .core import (MAX_HEADER_COUNT, ContractViolation, ValueOracle, bitmask, left_sum, members,
                   read_dense, read_fixed_rows, read_rows, write_rows)

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

    def validate(self) -> np.ndarray:
        """Check every edge against `_edges_ok` in one NumPy pass and return
        the m x 3 float64 array of rows (u, v, w) it checked.  A bad edge
        raises ContractViolation naming the first one: `has an id outside
        0..n-1` when an id is out of range, else `has bad weight w`.  An
        int past float64's range is bad too, as an id or a weight."""
        m = len(self.edges)
        try:
            cells = np.fromiter(chain.from_iterable(self.edges), np.float64, 3 * m)
        except OverflowError:  # read such an int as NaN, which the rule rejects
            cells = np.fromiter(map(_float_or_nan, chain.from_iterable(self.edges)), np.float64)
        cells = cells.reshape(m, 3)
        bad = np.flatnonzero(~_edges_ok(*cells.T, self.n_nodes))
        if len(bad):
            u, v, w = self.edges[bad[0]]
            if not _edges_ok(u, v, 0.0, self.n_nodes):
                raise ContractViolation(f"edge ({u},{v}) has an id outside 0..{self.n_nodes - 1}")
            raise ContractViolation(f"edge ({u},{v}) has bad weight {w}")
        return cells

    def in_adjacency(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_nodes)]
        for u, v, w in self.edges:
            adj[v].append((u, w))
            if not self.directed:
                adj[u].append((v, w))
        return adj

    def in_degrees(self) -> list[int]:
        deg = [0] * self.n_nodes
        for _, v, _ in self.edges:
            deg[v] += 1
        return deg


def save_edge_list(path, graph: WeightedGraph) -> None:
    """Write `u v w` lines (the header comment records n and direction)."""
    write_rows(path, graph.edges, {"nodes": graph.n_nodes, "directed": int(graph.directed)})


def _float_or_nan(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.nan


def _edges_ok(u, v, w, n):
    """The rule for an edge of an n-node graph: ids in 0..n-1 and a finite
    weight >= 0.  Written with `&`, so u, v and w may be Python scalars
    (a bool back) or NumPy columns (a bool array back)."""
    return (0 <= u) & (u < n) & (0 <= v) & (v < n) & (0 <= w) & (w < math.inf)


def _edge_row(fields, header):
    u, v, w = fields
    u, v, w, n = int(u), int(v), float(w), header.get("nodes", MAX_HEADER_COUNT)
    if not _edges_ok(u, v, w, n):
        raise ContractViolation(f"edge {u} {v} {w} needs ids in 0..{n - 1} and a weight >= 0")
    return u, v, w


def _edges_valid(header, u, v, w) -> bool:
    """`_edge_row`'s rule over the columns of an edge list."""
    return bool(_edges_ok(u, v, w, header.get("nodes", MAX_HEADER_COUNT)).all())


def load_edge_list(path, directed: bool | None = None) -> WeightedGraph:
    """Read a graph; without a `# nodes N` header, n is 1 + the largest id."""
    header, edges = read_fixed_rows(path, "u v w", _edge_row, (int, int, float), _edges_valid,
                                    keys=("nodes", "directed"))
    if "nodes" in header:
        n_nodes = header["nodes"]
    else:
        n_nodes = 1 + max((max(u, v) for u, v, _ in edges), default=-1)
    return WeightedGraph(n_nodes, edges, bool(header.get("directed")) if directed is None else directed)


class _CutBase(NamedTuple):
    """Work behind the sparse cut value of one set: its indicator, the
    complement indicator x = 1 - ind, y = A @ x, every row summed by the
    same kernel as a full evaluation, and the membership flags
    inside = (ind == 1)."""

    mask: int
    ind: np.ndarray
    x: np.ndarray
    y: np.ndarray
    inside: np.ndarray


class CutMonitorObjective(ValueOracle):
    """Total weight monitored by S: sum of w(u,v) over edges with exactly
    the orientation u in S, v not in S (undirected, so each crossing edge
    counts once).  Non-negative, non-monotone, submodular; f(empty)=0 and
    f(V)=0.

    From _SPARSE_MIN_NODES nodes on, f(S) = ind' (A (1 - ind)) over the
    symmetric CSR adjacency A, and a `_CutBase` of S makes f(S + e) cost
    only the rows of A @ x that read x[e] and reach the dot: the rows in
    S + e adjacent to e.  They are recomputed by the same kernel, each
    row's products added in the same order, and the full-length dot is
    taken as before, so the value is the full evaluation's bit for bit.
    A based query writes e into the base's vectors and restores them
    before it returns, so the base is left as it was found.
    """

    def __init__(self, graph: WeightedGraph):
        super().__init__()
        if graph.directed:
            raise ContractViolation("monitoring graphs are undirected")
        cells = graph.validate()
        self.graph = graph
        self.n = n = graph.n_nodes
        self._sparse = n >= _SPARSE_MIN_NODES
        if self._sparse:
            ids = cells[:, :2].astype(np.int64)
            # both orientations of each edge in turn: u v, v u, as COO entries
            self._adj = sp.csr_matrix(
                (cells[:, 2].repeat(2), (ids.ravel(), ids[:, ::-1].ravel())),
                shape=(n, n),
            )
            # row u's [start, end) in the CSR arrays, for the row kernel, and
            # as a list, whose items slice `indices` without NumPy scalars
            self._spans = np.stack([self._adj.indptr[:-1], self._adj.indptr[1:]], axis=1)
            self._indptr = self._adj.indptr.tolist()
            self._nbytes = (self.n + 7) // 8
        else:
            # undirected: each node's neighbours as (1 << v, w), in adjacency order
            self._nbrs = [[(1 << v, w) for v, w in nbrs] for nbrs in graph.in_adjacency()]

    def _value(self, mask: int) -> float:
        if self._sparse:
            full = self._new_base(mask)
            return float(full.ind.dot(full.y))
        total = 0.0  # members ascending, each one's edges in adjacency order
        rest = mask
        while rest:
            low = rest & -rest
            for bit, w in self._nbrs[low.bit_length() - 1]:
                if not mask & bit:
                    total += w
            rest ^= low
        return total

    def _new_base(self, mask: int) -> _CutBase | None:
        if not self._sparse:
            return None
        raw = np.frombuffer(mask.to_bytes(self._nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, count=self.n, bitorder="little")
        ind = bits.astype(np.float64)
        x = 1.0 - ind
        y = np.zeros(self.n)
        adj = self._adj
        csr_matvec(self.n, self.n, adj.indptr, adj.indices, adj.data, x, y)  # as adj.dot(x)
        return _CutBase(mask, ind, x, y, bits.view(bool))

    def _grow(self, prev: _CutBase, e: int) -> _CutBase:
        ind, x, y, inside = prev.ind.copy(), prev.x.copy(), prev.y.copy(), prev.inside.copy()
        ind[e], x[e], inside[e] = 1.0, 0.0, True
        self._redo_rows(self._neighbours(e), x, y)  # every row that reads x[e]
        return _CutBase(prev.mask | 1 << e, ind, x, y, inside)

    def _value_plus(self, base: _CutBase, e: int) -> float:
        ind, x, y, inside = base.ind, base.x, base.y, base.inside
        # e is outside the base's set, so its three entries read 0.0, 1.0, False
        ind[e], x[e], inside[e] = 1.0, 0.0, True
        try:
            nbrs = self._neighbours(e)
            # rows outside S + e meet a 0 in the dot whatever their sums are
            rows = nbrs[inside.take(nbrs)]
            if len(rows):
                y = y.copy()
                self._redo_rows(rows, x, y)
            return float(ind.dot(y))  # the ddot `_value` takes
        finally:
            ind[e], x[e], inside[e] = 0.0, 1.0, False

    def _neighbours(self, e: int) -> np.ndarray:
        """Column ids of row e, ascending: the rows whose sums read x[e]."""
        return self._adj.indices[self._indptr[e]:self._indptr[e + 1]]

    def _redo_rows(self, rows: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """Set y[u] = (A @ x)[u] for the ascending rows u, each summed as
        `_new_base` sums it.  The kernel runs over an index pointer holding
        [indptr[u], indptr[u + 1]] for u in descending order, so the rows
        between two of them start past their end and add nothing.  (Out of
        order, those rows would run over real entries: slower, and their
        outputs are dropped anyway.)"""
        if not len(rows):
            return
        down = rows[::-1]
        ptr = self._spans.take(down, axis=0).ravel()
        out = np.zeros(len(ptr) - 1)
        csr_matvec(len(out), self.n, ptr, self._adj.indices, self._adj.data, x, out)
        y.put(down, out[0::2])


@dataclass
class RRSetCollection:
    """Sampled reverse-reachable sets over the nodes of one graph."""

    n_nodes: int
    sets: list[int]  # node bitmasks

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
    write_rows(path, map(members, collection.sets), {"nodes": collection.n_nodes})


def load_rr_sets(path) -> RRSetCollection:
    """One set of node ids per line; n is the header's, else 1 + the largest id."""
    header, sets = read_rows(path, "node ids", _rr_row, keys=("nodes",))
    n_nodes = header["nodes"] if "nodes" in header else max(sets, default=0).bit_length()
    return RRSetCollection(n_nodes, sets)


def _rr_row(fields, header):
    ids = list(map(int, fields))
    n = header.get("nodes", MAX_HEADER_COUNT)
    if ids and max(ids) >= n:  # checked before a shift allocates a 2**id-bit mask
        raise ContractViolation(f"node id {max(ids)} is past the {n} nodes")
    return bitmask(ids)  # a negative id fails the shift


def pack_seed_id(node: int, product: int, m: int) -> int:
    return node * m + product


def unpack_seed_id(e: int, m: int) -> tuple[int, int]:
    return divmod(e, m)


class _MarketingBase(NamedTuple):
    """Work behind the marketing value of one set: per product the RR sets
    its seeds hit and its spread term n * hits / |R_i|, the members in
    ascending id, and the prefix sums of their costs in that order
    (pre[k] is the cost of the first k members, pre[0] = 0.0)."""

    mask: int
    hit: list[int]
    terms: list[float]
    ids: list[int]
    pre: list[float]


class MarketingObjective(ValueOracle):
    """Estimated multi-product revenue with budget savings.

    Ground ids pack (node u, product i) as u*m + i.  For non-empty S the
    value is sum_i estimate_i(S_i) + (B - total seeding cost); the empty
    set is pinned to 0 rather than B, which keeps the function submodular
    while modelling "no seeds, no campaign, no leftover budget".  B is at
    least the largest seeding cost m * sum(costs), its default, so f >= 0.

    Each product keeps a node -> RR-set cover index (the node-selection
    layout of TIM/IMM): covers[i][u] is the bitmask of product i's RR sets
    that contain u.  The sets S_i hits are the OR of its seeds' covers and
    their count one bit_count, so a query never scans the RR sets and its
    value equals the `rr_estimate` sum bit for bit.

    A `_MarketingBase` of S makes f(S + e), e = (u, i), cost one OR, one
    term and the costs of the members after e: the value is summed from
    the same terms in product order and the costs in ascending id order,
    the prefix before e taken from the base, so it is the full
    evaluation's bit for bit.
    """

    def __init__(self, collections: list[RRSetCollection], costs, budget: float | None = None):
        super().__init__()
        if not collections:
            raise ContractViolation("need one RR collection per product")
        n_nodes = collections[0].n_nodes
        if any(c.n_nodes != n_nodes for c in collections):
            raise ContractViolation("collections must share one node set")
        for i, c in enumerate(collections):
            if not c.sets:
                raise ContractViolation(f"product {i} has no sampled RR sets")
        if len(costs) != n_nodes:
            raise ContractViolation("need one cost per node")
        if not all(math.isfinite(c) and c >= 0 for c in costs):
            raise ContractViolation("costs must be finite and non-negative")
        self.collections = collections
        self.m = len(collections)
        self.n_nodes = n_nodes
        self.costs = list(costs)
        max_cost = self.m * left_sum(self.costs)
        self.budget = max_cost if budget is None else budget
        if not (math.isfinite(self.budget) and self.budget >= max_cost):
            raise ContractViolation(f"budget {self.budget} is below m * sum(costs) = {max_cost}")
        self.n = n_nodes * self.m
        self._covers = [_cover_index(c.sets, n_nodes) for c in collections]
        self._sampled = [len(c.sets) for c in collections]

    def _value(self, mask: int) -> float:
        full = self._new_base(mask)
        return self._total(full.terms, full.pre[-1]) if mask else 0.0

    def _new_base(self, mask: int) -> _MarketingBase:
        """The base of `mask`, built afresh: one pass over the members, about
        what growing a base by one element would cost, so growth is this."""
        hit = [0] * self.m  # per product, the RR sets its seeds cover
        ids = members(mask)
        pre = [0.0]
        for e in ids:
            u, i = unpack_seed_id(e, self.m)
            hit[i] |= self._covers[i][u]
            pre.append(pre[-1] + self.costs[u])
        terms = [self._term(i, h) for i, h in enumerate(hit)]
        return _MarketingBase(mask, hit, terms, ids, pre)

    def _value_plus(self, base: _MarketingBase, e: int) -> float:
        u, i = divmod(e, self.m)  # unpack_seed_id, without the call on the query path
        terms = base.terms.copy()
        terms[i] = self._term(i, base.hit[i] | self._covers[i][u])
        k = bisect(base.ids, e)
        cost = base.pre[k] + self.costs[u]
        for v in base.ids[k:]:  # the members after e, in the order `base` adds them
            cost += self.costs[v // self.m]
        return self._total(terms, cost)

    def _term(self, i: int, hit: int) -> float:
        return self.n_nodes * hit.bit_count() / self._sampled[i]

    def _total(self, terms: list[float], cost: float) -> float:
        """f of a non-empty set from its per-product terms and its cost.  A
        product that covers no set adds exactly 0.0, so summing every
        product gives rr_estimate's value bit for bit."""
        return left_sum(terms) + (self.budget - cost)


def _cover_index(sets: list[int], n_nodes: int) -> list[int]:
    """For each node u < n_nodes, the bitmask of the indices of `sets` that
    contain u (ids at or past n_nodes are ignored).

    Transposes the set x node bit matrix with NumPy: byte j of every set
    becomes one row, and bit plane b of that row, packed, is the cover of
    node 8j + b.  Nothing larger than the packed sets is allocated."""
    nbytes = (n_nodes + 7) // 8
    inside = (1 << n_nodes) - 1
    raw = np.frombuffer(b"".join((s & inside).to_bytes(nbytes, "little") for s in sets),
                        dtype=np.uint8).reshape(len(sets), nbytes)
    cols = np.ascontiguousarray(raw.T)
    planes = np.stack([np.packbits(cols & (1 << b), axis=1, bitorder="little")
                       for b in range(8)], axis=1)  # [j, b] = cover of node 8j + b
    data, width = planes.tobytes(), planes.shape[2]
    return [int.from_bytes(data[k:k + width], "little") for k in range(0, n_nodes * width, width)]


class ModularObjective(ValueOracle):
    """f(S) = sum of per-element weights, each finite and >= 0."""

    def __init__(self, weights):
        super().__init__()
        self.weights = [float(w) for w in weights]
        if not all(0.0 <= w < math.inf for w in self.weights):
            raise ContractViolation("modular weights must be finite and >= 0")
        self.n = len(self.weights)

    def _value(self, mask: int) -> float:
        return left_sum(self.weights[e] for e in members(mask))


def load_costs(path) -> list[float]:
    """Read `node cost` lines covering the nodes 0..n-1 exactly once."""
    return read_dense(path, "node cost", float)


def save_costs(path, costs) -> None:
    write_rows(path, enumerate(costs))
