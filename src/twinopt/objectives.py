"""Application objectives behind the ValueOracle contract.

The monitoring objective is a weighted cut, the marketing objective is
reverse-reachable-set influence estimation plus budget savings, and the
modular objective is a synthetic fixture (the monotone coverage fixture
is in tests/helpers.py).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .core import (MAX_HEADER_COUNT, ContractViolation, ValueOracle, bitmask, left_sum, members,
                   read_dense, read_fixed_columns, read_rows, sum_error, write_rows)

# below this many nodes a Python adjacency scan beats the sparse matvec;
# the first cut built at or above it loads SciPy's CSR kernels
# (`_sparsetools`), and no other part of SciPy
_SPARSE_MIN_NODES = 192

# edge rows save_edge_list turns into Python objects at a time
_SAVE_ROWS = 4096

# Every float a cut sums is a sum of edge weights, each at most twice (a
# row of the symmetric adjacency holds a self-loop twice), in some order.
# Rounding a sum of k non-negative terms adds at most a factor
# (1 + 2**-53)**k, under 2 for any k that fits in memory, so with the
# weights' total at most this bound no order of any such sum overflows.
_CUT_WEIGHT_MAX = sys.float_info.max / 4


class WeightedGraph:
    """Edge list with one real weight per edge, held as three NumPy columns.

    `u` and `v` (int64) are the edges' end ids and `w` (float64) their
    weights: for undirected monitoring graphs the edge weight, for
    directed influence graphs the activation probability p_uv.  The
    columns are read-only, so graphs may share them, and they are all the
    graph stores: `WeightedGraph(n, edges, directed)` builds them once
    from (u, v, w) triples, `from_columns` takes them as they are, and
    `edges` builds the (int, int, float) triples from them on each read,
    so a weight given as a Python int reads back as a float.  Two graphs
    are equal when their node counts, directions and columns are.

    A graph may hold ids outside 0..n-1 and weights that are negative or
    not finite; `validate` rejects those.  An edge the columns cannot hold
    (an id that is not an integer or is past int64, a weight past
    float64) is rejected when the triples are read, by raising the error
    `validate` raises for the first bad edge, and so is an edge that is
    not a triple.
    """

    def __init__(self, n_nodes: int, edges=(), directed: bool = False):
        self._hold(n_nodes, directed, *_triple_columns(edges, n_nodes))

    @classmethod
    def from_columns(cls, n_nodes: int, u, v, w, directed: bool = False) -> WeightedGraph:
        """The graph of the edges (u[k], v[k], w[k]); the ids must be of an
        integer dtype.  Arrays already int64 or float64 and contiguous are
        kept, not copied."""
        graph = cls.__new__(cls)
        graph._hold(n_nodes, directed, u, v, w)
        return graph

    def _hold(self, n_nodes, directed, u, v, w) -> None:
        self.n_nodes, self.directed = n_nodes, directed
        self.u, self.v, self.w = _column(u, np.int64), _column(v, np.int64), _column(w, np.float64)
        if not len(self.u) == len(self.v) == len(self.w):
            raise ContractViolation("the edge columns must have one entry per edge")

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """The (u, v, w) triples, built from the columns."""
        return list(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (self.n_nodes == other.n_nodes and self.directed == other.directed
                and np.array_equal(self.u, other.u) and np.array_equal(self.v, other.v)
                and np.array_equal(self.w, other.w))

    __hash__ = None

    def __repr__(self):
        return (f"WeightedGraph(n_nodes={self.n_nodes!r}, edges={self.edges!r}, "
                f"directed={self.directed!r})")

    def validate(self) -> None:
        """Check every edge against `_edges_ok` in one NumPy pass.  A bad
        edge raises ContractViolation naming the first one: `has an id
        outside 0..n-1` when an id is out of range, else `has bad weight
        w`."""
        bad = np.flatnonzero(~_edges_ok(self.u, self.v, self.w, self.n_nodes))
        if len(bad):
            k = bad[0]
            raise _edge_error(self.u.item(k), self.v.item(k), self.w.item(k), self.n_nodes)

    def in_adjacency(self) -> list[list[tuple[int, float]]]:
        """Per node v, the (u, w) of its in-edges in edge order; an
        undirected edge is an in-edge of both ends.  The ids must be valid."""
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n_nodes)]
        for u, v, w in zip(self.u.tolist(), self.v.tolist(), self.w.tolist()):
            adj[v].append((u, w))
            if not self.directed:
                adj[u].append((v, w))
        return adj


def _column(values, dtype) -> np.ndarray:
    """`values` as a read-only one-dimensional `dtype` array, copied only
    to cast it or make it contiguous; a cast that could change a value,
    such as floats to int64, is refused."""
    col = np.asarray(values)
    if col.ndim != 1 or col.dtype != dtype and not np.can_cast(col.dtype, dtype):
        raise ContractViolation(f"an edge column must be 1-d and castable to {np.dtype(dtype)}, "
                                f"not {col.dtype} of shape {col.shape}")
    col = np.ascontiguousarray(col, dtype).view()
    col.flags.writeable = False
    return col


def _triple_columns(edges, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The u, v and w columns of (u, v, w) triples.  Ids that NumPy reads
    as signed ints and weights it reads as float64 go through in one pass
    per column; anything else, such as a float, an int past int64 or a
    value of another type, is checked edge by edge against the rule of an
    n-node graph, and the first bad edge is raised as `validate` names it,
    with its values as given."""
    try:
        u, v, w = tuple(zip(*edges, strict=True)) or ((), (), ())
    except ValueError:
        raise ContractViolation("edges must be (u, v, w) triples") from None
    try:
        ids = np.array(u + v)
        weights = np.array(w, np.float64)
    except (OverflowError, TypeError, ValueError):
        ids = None
    if ids is None or ids.dtype.kind != "i" and len(ids):
        for edge in zip(u, v, w):
            error = _edge_error(*edge, n)
            if error:
                raise error
        ids = np.array([operator.index(x) for x in u + v], np.int64)
        weights = np.array(w, np.float64)
    ids = ids.astype(np.int64, copy=False)
    return ids[:len(u)], ids[len(u):], weights


def save_edge_list(path, graph: WeightedGraph) -> None:
    """Write `u v w` lines (the header comment records n and direction),
    taking the rows from the columns _SAVE_ROWS at a time."""
    cols = (graph.u, graph.v, graph.w)
    rows = chain.from_iterable(zip(*(c[lo:lo + _SAVE_ROWS].tolist() for c in cols))
                               for lo in range(0, len(graph.w), _SAVE_ROWS))
    write_rows(path, rows, {"nodes": graph.n_nodes, "directed": int(graph.directed)})


def _edge_error(u, v, w, n: int) -> ContractViolation | None:
    """The error naming the edge (u, v, w) of an n-node graph if it breaks
    `_edges_ok`, or is not read as that rule reads it (an id that is not
    an integer, a weight `float` refuses), else None.  Ids are checked
    first."""
    try:
        ids = operator.index(u), operator.index(v)
    except TypeError:
        return ContractViolation(f"edge ({u},{v}) has an id that is not an integer")
    if not _edges_ok(*ids, 0.0, n):
        return ContractViolation(f"edge ({u},{v}) has an id outside 0..{n - 1}")
    try:
        weight_ok = 0.0 <= float(w) < math.inf
    except (OverflowError, TypeError, ValueError):
        weight_ok = False
    return None if weight_ok else ContractViolation(f"edge ({u},{v}) has bad weight {w}")


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
    header, (u, v, w) = read_fixed_columns(path, "u v w", _edge_row, (int, int, float),
                                           _edges_valid, keys=("nodes", "directed"))
    if "nodes" in header:
        n_nodes = header["nodes"]
    else:
        n_nodes = 1 + int(max(u.max(initial=-1), v.max(initial=-1)))
    if directed is None:
        directed = bool(header.get("directed"))
    return WeightedGraph.from_columns(n_nodes, u, v, w, directed)


@functools.cache
def _sparsetools():
    """SciPy's compiled CSR module, `scipy/sparse/_sparsetools`, loaded on
    its own, once per process: `import scipy.sparse` would load some 325
    modules to reach it (~21 MB and ~150 ms on a 2-core Xeon VM).
    `find_spec` locates the scipy package without running any of its
    code.  The module registers under its own name, so a later
    `import scipy.sparse` takes this copy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError(f"a cut of {_SPARSE_MIN_NODES} nodes or more needs SciPy's CSR kernels, "
                          "and SciPy is not installed")
    stem = os.path.join(spec.submodule_search_locations[0], "sparse", "_sparsetools")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            name = "scipy.sparse._sparsetools"
            loader = importlib.machinery.ExtensionFileLoader(name, stem + suffix)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"SciPy's CSR kernels are missing: no {stem}"
                      f"{{{','.join(importlib.machinery.EXTENSION_SUFFIXES)}}}")


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray):
    """indptr, indices and data of the symmetric adjacency, as
    `scipy.sparse.csr_matrix((w2, (rows, cols)), shape=(n, n))` builds
    them from both orientations of each edge in turn (u v, then v u),
    through the same kernel calls: `coo_tocsr`, and unless the result
    is canonical, a sort of the rows if they are unsorted, then
    `csr_sum_duplicates` and a trim to indptr[-1].  The entry order fixes
    the order in which parallel edges are summed, and ids are int32
    where they fit, as there.  The kernels do not check the ids: they
    must lie in 0..n-1, as a validated graph's do."""
    kernels = _sparsetools()
    nnz = 2 * len(w)
    idx = np.int32 if max(nnz, n) <= np.iinfo(np.int32).max else np.int64
    rows, cols = np.empty(nnz, idx), np.empty(nnz, idx)
    rows[0::2], rows[1::2], cols[0::2], cols[1::2] = u, v, v, u
    indptr, indices, data = np.empty(n + 1, idx), np.empty(nnz, idx), np.empty(nnz)
    kernels.coo_tocsr(n, n, nnz, rows, cols, w.repeat(2), indptr, indices, data)
    if not kernels.csr_has_canonical_format(n, indptr, indices):
        if not kernels.csr_has_sorted_indices(n, indptr, indices):
            kernels.csr_sort_indices(n, indptr, indices, data)
        kernels.csr_sum_duplicates(n, n, indptr, indices, data)
        nnz = indptr[-1]
        indices, data = indices[:nnz].copy(), data[:nnz].copy()
    return indptr, indices, data


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
    symmetric CSR adjacency A.  A is three plain arrays (indptr, indices,
    data), built by `_symmetric_csr` and multiplied by `csr_matvec`, the
    kernels `csr_matrix` calls, loaded without the rest of scipy.sparse
    (`_sparsetools`).  A `_CutBase` of S makes f(S + e) cost
    only the rows of A @ x that read x[e] and reach the dot: the rows in
    S + e adjacent to e.  They are recomputed by the same kernel, each
    row's products added in the same order, and the full-length dot is
    taken as before, so the value is the full evaluation's bit for bit.
    A based query writes e into the base's vectors and restores them
    before it returns, so the base is left as it was found.

    Its error bound (`ValueOracle.value_error`) is γ_{n+2m}·2W for m
    edges of weight total W.  Every value is a sum of edge weights, each
    at most twice, with no rounding but that of the additions: a product
    by 0 or 1 is exact.  The list path adds at most 2m adjacency entries
    in turn; the sparse path sums each row's entries, each a weight or a
    sum of parallel ones, and then the n products of the dot in any
    order, so no weight meets more than n + 2m roundings on its way.
    """

    def __init__(self, graph: WeightedGraph):
        super().__init__(graph.n_nodes)
        if graph.directed:
            raise ContractViolation("monitoring graphs are undirected")
        graph.validate()
        with np.errstate(over="ignore"):  # an overflowing sum reads inf, which is rejected
            total = graph.w.sum()
        if not total <= _CUT_WEIGHT_MAX:
            raise ContractViolation(f"the edge weights sum to {total}, above {_CUT_WEIGHT_MAX}: "
                                    "a cut value could overflow")
        self.graph = graph
        self.value_error = sum_error(self.n + 2 * len(graph.w), 2.0 * float(total))
        self._sparse = self.n >= _SPARSE_MIN_NODES
        if self._sparse:
            self._indptr, self._indices, self._data = _symmetric_csr(self.n, graph.u, graph.v,
                                                                     graph.w)
            # row u's [start, end) in the CSR arrays, for the row kernel, and
            # as a list, whose items slice `indices` without NumPy scalars
            self._spans = np.stack([self._indptr[:-1], self._indptr[1:]], axis=1)
            self._starts = self._indptr.tolist()
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

    def _new_base(self, mask: int) -> _CutBase | int:
        if not self._sparse:
            return mask  # the list path answers every query in full
        raw = np.frombuffer(mask.to_bytes(self._nbytes, "little"), dtype=np.uint8)
        bits = np.unpackbits(raw, count=self.n, bitorder="little")
        ind = bits.astype(np.float64)
        x = 1.0 - ind
        y = np.zeros(self.n)
        # y = A @ x, by the row kernel behind csr_matrix.dot
        _sparsetools().csr_matvec(self.n, self.n, self._indptr, self._indices, self._data, x, y)
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
        return self._indices[self._starts[e]:self._starts[e + 1]]

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
        _sparsetools().csr_matvec(len(out), self.n, ptr, self._indices, self._data, x, out)
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


class _MarketingBase(NamedTuple):
    """Work behind the marketing value of one set: per product the RR sets
    its seeds hit and its spread term n * hits / |R_i|, the members in
    ascending id, their costs in that order, and the prefix sums of those
    (pre[k] is the cost of the first k members, pre[0] = 0.0)."""

    mask: int
    hit: list[int]
    terms: list[float]
    ids: list[int]
    cs: list[float]
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
        if not collections:
            raise ContractViolation("need one RR collection per product")
        n_nodes = collections[0].n_nodes
        super().__init__(n_nodes * len(collections))
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
        self._covers = [_cover_index(c.sets, n_nodes) for c in collections]
        self._sampled = [len(c.sets) for c in collections]

    def _value(self, mask: int) -> float:
        # a product that covers no set adds exactly 0.0, so summing every
        # product's term gives rr_estimate's value bit for bit
        full = self._new_base(mask)
        return left_sum(full.terms) + (self.budget - full.pre[-1]) if mask else 0.0

    def _new_base(self, mask: int) -> _MarketingBase:
        """The base of `mask`, built afresh from its members: about what
        growing a base by one element would cost, so growth is this."""
        hit = [0] * self.m  # per product, the RR sets its seeds cover
        ids = members(mask)
        for e in ids:
            u, i = divmod(e, self.m)
            hit[i] |= self._covers[i][u]
        cs = [self.costs[e // self.m] for e in ids]
        pre = list(accumulate(cs, initial=0.0))  # added left to right
        terms = [self.n_nodes * h.bit_count() / sampled for h, sampled in zip(hit, self._sampled)]
        return _MarketingBase(mask, hit, terms, ids, cs, pre)

    def _value_plus(self, base: _MarketingBase, e: int) -> float:
        # the term is `_new_base`'s, written out: a query takes a few microseconds
        u, i = divmod(e, self.m)
        terms = base.terms.copy()
        terms[i] = self.n_nodes * (base.hit[i] | self._covers[i][u]).bit_count() / self._sampled[i]
        k = bisect(base.ids, e)
        cost = base.pre[k] + self.costs[u]
        for c in base.cs[k:]:  # the members after e, in the order `base` adds them
            cost += c
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
    """f(S) = sum of per-element weights, each finite and >= 0.

    Rounding is monotone, so no set's left-to-right sum exceeds f(V), the
    sum of all the weights: a finite f(V) keeps every value finite.  A
    value rounds at most n times on each weight's way, so its error bound
    (`ValueOracle.value_error`) is γ_n·Σw."""

    def __init__(self, weights):
        self.weights = [float(w) for w in weights]
        super().__init__(len(self.weights))
        if not all(0.0 <= w < math.inf for w in self.weights):
            raise ContractViolation("modular weights must be finite and >= 0")
        total = left_sum(self.weights)
        if total == math.inf:
            raise ContractViolation("modular weights must have a finite sum")
        self.value_error = sum_error(self.n, total)

    def _value(self, mask: int) -> float:
        return left_sum(self.weights[e] for e in members(mask))


def load_costs(path) -> list[float]:
    """Read `node cost` lines covering the nodes 0..n-1 exactly once."""
    return read_dense(path, "node cost", float)


def save_costs(path, costs) -> None:
    write_rows(path, enumerate(costs))
