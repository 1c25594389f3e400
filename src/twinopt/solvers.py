"""Twin-set greedy solvers, the thresholded variant, and baselines.

All solvers follow the same reporting contract: they own their value
caches (the oracle caches nothing), report the oracle's and the
constraint's counter deltas over the run, and emit a RunReport whose
insertion log suffices to replay the run.

The two twin-set solvers use lazy marginal evaluation: cached gains are
upper bounds because a side only grows and gains only shrink under
submodularity, and a side that became infeasible for an element stays
infeasible by the hereditary property.  Skipping an element whose bound
is already below the acceptance bar therefore never changes which
element is picked, only how many queries confirming it costs.  One
caveat: two float evaluations of mathematically equal marginals can
differ by a few ulps, so a mathematical tie may resolve differently
than a literal rescan would resolve it; that stays within the "ties
broken arbitrarily" contract and is orders of magnitude below every
stated 1e-9 tolerance.  In exact arithmetic (e.g. dyadic weights) the
runs coincide bit for bit.  The sampled baseline is deliberately the
textbook scan-everything greedy.

The greedy solvers keep one oracle base per side (`ValueOracle.base`),
ask for f(S + {e}) as `evaluate(base, e)`, positionally, and after
inserting e move that side on to `grow(base, e)`.  By the `ValueOracle`
contract such a query counts once, returns what `evaluate(S, e)`
returns and leaves its base as it found it, so logs, values and query
counts do not depend on what an oracle's bases hold (the mask itself,
for most), and the two sides may start from one shared base of the
empty set.

Every solver and `exact_max` first check that the ground set, the
constraint and the oracle state one size (`core.check_sizes`).  They
read values only through `ValueOracle.evaluate`, whose value rule
(0 <= value < inf) rejects a NaN, infinite or negative value with one
ContractViolation wherever it appears, so every gain and cached bound
here is finite or, for an infeasible pair, -inf, and compares totally.
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, count, takewhile

import numpy as np

from .core import (
    ContractViolation,
    GroundSet,
    IndependenceOracle,
    InsertionLog,
    ParameterError,
    RunReport,
    ValueOracle,
    check_sizes,
)
from .constraints import rank as constraint_rank
from .generators import RNG_ID

TIE_BREAK = "side1-lowest-id"


def _start(f: ValueOracle, constraint: IndependenceOracle) -> tuple[float, int, int]:
    """The clock and both oracle counters at solver entry."""
    return time.perf_counter(), f.query_count, constraint.check_count


def _empty_value(f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet) -> float:
    """f(empty), one query, once the ground set, the constraint and the
    oracle are seen to state one size."""
    check_sizes(ground.n, constraint, f)
    return f.evaluate(0)


def _report(algorithm, ground, parameters, s, fval, log, f, constraint, start) -> RunReport:
    t0, queries0, checks0 = start
    star = 0 if fval[0] >= fval[1] else 1
    return RunReport(
        algorithm=algorithm,
        n=ground.n,
        parameters=parameters,
        s1=s[0],
        s2=s[1],
        s_star=s[star],
        f_s1=fval[0],
        f_s2=fval[1],
        f_star=fval[star],
        log=log,
        value_queries=f.query_count - queries0,
        independence_checks=constraint.check_count - checks0,
        wall_time_s=time.perf_counter() - t0,
    )


def twin_greedy(f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet) -> RunReport:
    """Grow two disjoint sides greedily and return the better one.

    Each round inserts the feasible (element, side) pair of maximum
    marginal gain, stopping when the best gain is non-positive or nothing
    fits.  Ties prefer side 1, then the lower element id, which makes the
    run bit-reproducible.  Implemented with a lazy max-heap of stale
    gains; stale entries are re-evaluated on pop and pushed back, so the
    confirmed maximum is the one a full rescan would select (exactly so
    in exact arithmetic; see the module note on float tie noise).

    A constraint that states its `base_size` spares checks whose answer
    is known: a side of that size is a base, so its heap entries are
    dropped unchecked and the run ends once both sides are bases.  An
    entry popped fresh is not re-checked either, as its side has not
    changed since its check.  The log, values and queries are those of a
    run that checks every pop.

    The constraint must be hereditary; a non-hereditary family can make
    the run stop early, which is not detected.
    """
    start = _start(f, constraint)
    f_empty = _empty_value(f, constraint, ground)
    fval = [f_empty, f_empty]
    states = [constraint.empty_state(), constraint.empty_state()]
    bases = [f.base(0)] * 2  # a query leaves a base as it found it, so both sides may share one
    versions = [0, 0]
    log = InsertionLog()

    # both sides are empty, so singleton gains are shared between them
    heap = []
    for e in range(ground.n):
        if constraint.can_add(states[0], e):
            val = f.evaluate(bases[0], e)
            gain = val - f_empty
            heap.append((-gain, 0, e, 0, val))
            heap.append((-gain, 1, e, 0, val))
    heapq.heapify(heap)

    selected = 0
    full = constraint.base_size  # a side of this size is a base: no element fits it
    while heap:
        neg_gain, i, e, ver, val = heapq.heappop(heap)
        if (selected >> e) & 1 or versions[i] == full:  # a side's version is its size
            continue
        if ver != versions[i]:
            if not constraint.can_add(states[i], e):
                continue  # a grown side never becomes feasible again
            val = f.evaluate(bases[i], e)
            heapq.heappush(heap, (fval[i] - val, i, e, versions[i], val))
            continue
        # a fresh entry passed can_add on this very state when it was pushed
        gain = -neg_gain
        if gain <= 0:
            break
        log.append(element=e, side=i + 1, gain=gain)
        fval[i] = val  # val is the oracle's own output for the grown side
        states[i] = constraint.add(states[i], e)
        bases[i] = f.grow(bases[i], e)
        versions[i] += 1
        selected |= 1 << e
        if versions[0] == versions[1] == full:
            break  # both sides are bases

    return _report("twin_greedy", ground, {"tie_break": TIE_BREAK}, log.replay(), fval, log,
                   f, constraint, start)


def twin_greedy_fast(f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet,
                     epsilon: float) -> RunReport:
    """Thresholded twin-set greedy with geometrically decaying bar.

    Starting from the best feasible singleton value, each pass scans the
    unselected elements in ascending id order and inserts an element into
    the feasible side of larger marginal gain whenever that gain clears
    the current bar tau; the bar then decays by (1+epsilon) until it
    drops to epsilon*tau_max/(r*(1+epsilon)).  r is `constraints.rank`,
    which a matroid states, so it costs no check.  Cached per-side gain
    bounds skip evaluations that cannot clear the bar (see module note);
    the insertion sequence is identical to the unskipped scan.  A side
    that reaches the constraint's stated `base_size` is a base: all its
    bounds drop to -inf unchecked, as a check on it would drop them.

    Only its own scan changes an element's bounds, so it waits in the list
    of the first pass whose bar tau_max/(1+epsilon)**j its larger bound
    reaches; pass j scans that list in id order, just the elements a
    pass-by-pass loop would find clearing the bar.  Passes, tau_min, the
    log and the query and check counts are that loop's; empty passes cost
    nothing.  tau_max is finite by the `ValueOracle` value rule, so a
    positive one leaves at least one pass; with no positive singleton the
    run inserts nothing and reports no pass.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    start = _start(f, constraint)
    n = ground.n
    f_empty = _empty_value(f, constraint, ground)
    log = InsertionLog()
    fval = [f_empty, f_empty]
    params: dict = {"epsilon": epsilon, "tie_break": TIE_BREAK}

    bases = [f.base(0)] * 2  # a query leaves a base as it found it, so both sides may share one
    states = [constraint.empty_state(), constraint.empty_state()]
    singleton = [-math.inf] * n
    for e in range(n):
        if constraint.can_add(states[0], e):
            singleton[e] = f.evaluate(bases[0], e)
    tau_max = float(max(singleton, default=-math.inf))  # -inf: no feasible singleton
    params["tau_max"] = None if tau_max < 0.0 else tau_max
    if tau_max <= 0.0:
        params.update(passes=0, tau_min=None, rank=None)
        return _report("twin_greedy_fast", ground, params, (0, 0), fval, log, f, constraint, start)

    # r is the rank for a matroid, stated without checks as the size of
    # every base, and otherwise the size of the greedy base in id order,
    # within a factor p of every base of a p-set system, so an optimal set
    # has at most p*r elements (certify_run checks that bound); a base's
    # size is read once, as a matroid may compute it on each read
    full, sizes = constraint.base_size, [0, 0]  # a side of size `full` is a base
    r = constraint_rank(constraint, ground) if full is None else full
    tau_floor = epsilon * tau_max / (r * (1.0 + epsilon))
    bars = (tau_max / (1.0 + epsilon) ** j for j in count())
    neg = [-tau for tau in takewhile(tau_floor.__lt__, bars)]  # ascending for bisect_left
    tau_min = tau_max / (1.0 + epsilon) ** (len(neg) - 1)
    params.update(rank=r, passes=len(neg), tau_min=tau_min)

    # upper bounds on the marginal gain of each (side, element) pair
    bounds = [[v - f_empty for v in singleton] for _ in (0, 1)]
    due = [[] for _ in neg]  # due[j]: the elements pass j scans
    for e, top in enumerate(bounds[0]):
        if top >= tau_min:
            due[bisect_left(neg, -top)].append(e)

    for j, waiting in enumerate(due):
        tau = -neg[j]
        for e in sorted(waiting):
            best_gain, best_side, best_val = -math.inf, 0, 0.0
            for i in (0, 1):
                if bounds[i][e] < tau:
                    continue
                if not constraint.can_add(states[i], e):
                    bounds[i][e] = -math.inf
                    continue
                val = f.evaluate(bases[i], e)
                gain = val - fval[i]
                bounds[i][e] = gain
                if gain > best_gain:  # strict keeps side 1 on ties
                    best_gain, best_side, best_val = gain, i, val
            if best_gain >= tau:
                log.append(element=e, side=best_side + 1, gain=best_gain, threshold=tau)
                fval[best_side] = best_val
                states[best_side] = constraint.add(states[best_side], e)
                bases[best_side] = f.grow(bases[best_side], e)
                sizes[best_side] += 1
                if sizes[best_side] == full:  # no element fits a base: drop its bounds unchecked
                    bounds[best_side] = [-math.inf] * n
                continue
            # both bounds are below tau: wait for the next bar the larger reaches
            top = max(bounds[0][e], bounds[1][e])
            if top >= tau_min:
                due[bisect_left(neg, -top, j + 1)].append(e)

    return _report("twin_greedy_fast", ground, params, log.replay(), fval, log, f, constraint,
                   start)


def _single_greedy(algorithm, f, constraint, ground, candidates, parameters,
                   start) -> RunReport:
    """Textbook single-set greedy: full rescans, positive-gain stopping,
    and a stop at a base of the constraint's stated `base_size`."""
    f_empty = _empty_value(f, constraint, ground)
    fcur = f_empty
    state = constraint.empty_state()
    base = f.base(0)
    log = InsertionLog()
    remaining = list(candidates)
    full = constraint.base_size  # a set of this size is a base: no element fits it
    while remaining and len(log) != full:
        alive = []
        best_e = -1
        best_gain = -math.inf
        best_val = 0.0
        for e in remaining:
            if not constraint.can_add(state, e):
                continue  # infeasible for good; drop from future rounds
            alive.append(e)
            val = f.evaluate(base, e)
            gain = val - fcur
            if gain > best_gain:  # ascending scan keeps the lowest id on ties
                best_e, best_gain, best_val = e, gain, val
        if best_e < 0 or best_gain <= 0:
            break
        log.append(element=best_e, side=1, gain=best_gain)
        fcur = best_val
        state = constraint.add(state, best_e)
        base = f.grow(base, best_e)
        alive.remove(best_e)
        remaining = alive

    return _report(algorithm, ground, parameters, log.replay(), [fcur, f_empty], log,
                   f, constraint, start)


def classic_greedy(f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet) -> RunReport:
    """Single-set greedy baseline (the monotone workhorse)."""
    return _single_greedy("classic_greedy", f, constraint, ground, range(ground.n),
                          {"tie_break": TIE_BREAK}, _start(f, constraint))


def sample_greedy(f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet,
                  q: float = 0.5, seed: int = 0) -> RunReport:
    """Greedy on a q-subsampled ground set (randomized matroid baseline)."""
    if not 0.0 < q <= 1.0:
        raise ParameterError(f"q must lie in (0,1], got {q}")
    start = _start(f, constraint)
    rng = np.random.default_rng(seed)
    keep = rng.random(ground.n) < q
    candidates = [e for e in range(ground.n) if keep[e]]
    params = {"q": q, "seed": seed, "rng": RNG_ID, "tie_break": TIE_BREAK,
              "sample_size": len(candidates)}
    return _single_greedy("sample_greedy", f, constraint, ground, candidates, params, start)


@dataclass
class ExactResult:
    """An optimal independent set, the first maximum of `exact_max`'s
    depth-first order, found by a search that skips only subtrees the
    submodular bound shows cannot beat it.  `sets_visited` counts the
    sets it evaluated, f(empty) included: its value queries.
    `empty_value` is f(empty), the first of them."""

    solution: int
    value: float
    sets_visited: int
    empty_value: float


def exact_max(f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet) -> ExactResult:
    """Globally optimal independent set by branch and bound.

    The search walks the independent sets depth first, extending each by
    ids in ascending order, and keeps the first maximum it meets, as a
    walk over every independent set keeps it: the lexicographically
    smallest optimal set by float value.  At a node S it evaluates all
    its feasible children S + e first.  Then, child by child, it compares
    F(C) with the best, strictly, and descends into C = S + e only if

        (F(C) + Σ_t max(0, F(S + t) − F(S))) · ρ_k + (2k + 3)·δ + τ > best,

    over the k feasible children S + t after C.  δ is the oracle's
    `value_error`; an oracle that states none is never pruned.  By
    heredity, a set below C adds to it only later siblings that are
    feasible from S, so a child with none (k = 0) has an empty subtree
    and is not walked, and a child's children are looked for among those
    siblings only.  A set of the constraint's stated `base_size` is a
    base, so the walk returns there without checking any sibling.

    Why a pruned subtree cannot change the result.  Its sets are C ∪ T
    with T among the k later siblings t.  With f submodular and
    |F − f| <= δ (`ValueOracle`), f(C ∪ T) <= f(C) + Σ_T f(t | C) <= f(C)
    + Σ_T f(t | S) (Nemhauser, Wolsey and Fisher, Math. Prog. 1978), so
    every F(C ∪ T) is at most R = F(C) + Σ_t max(0, F(S + t) − F(S)) +
    (2k + 2)·δ.  In floats, each operation rounding to nearest with
    relative error at most u = 2^-53 (and absolute error at most 2^-1075
    where a product underflows), every term of the float sum s = F(C) +
    Σ_t max(...) meets at most k + 2 roundings of non-negative values,
    so R − (2k + 2)·δ <= s·(1 + γ_{k+2}) with γ_j = j·u/(1 − j·u).  The
    test rounds twice more on s's way, and ρ_k = 1 + (k + 4)·2^-52 >=
    1 + γ_{k+4} >= (1 + γ_{k+2})·(1 + γ_2), while the extra δ and τ, the
    least normal float, cover the rounding and underflow of the slack's
    own terms, so the left side is at least R.  So a pruned subtree
    holds no set whose float value beats the best at that point, the
    comparisons come in the full enumeration's order and keep its first
    maximum, set and value alike, and the queries are a subset of its
    queries.
    """
    n = ground.n
    if n > 20:
        raise ContractViolation("exact search needs n <= 20")
    f_empty = _empty_value(f, constraint, ground)
    best = [0, f_empty, 1]
    delta = f.value_error
    full = constraint.base_size
    rho = [1.0 + (k + 4) * 2.0**-52 for k in range(n)]
    slack = [math.inf if delta is None else (2 * k + 3) * delta + sys.float_info.min
             for k in range(n)]

    def walk(mask, state, value, later):
        if mask.bit_count() == full:
            return  # a base: none of its later siblings fits it
        kids = [e for e in later if constraint.can_add(state, e)]
        vals = [f.evaluate(mask, e) for e in kids]
        best[2] += len(kids)
        # tail[i]: the positive gains over `value` of the children after i, summed from the last
        tail = list(accumulate([max(v - value, 0.0) for v in vals[:0:-1]], initial=0.0))[::-1]
        for i, e in enumerate(kids):
            grown = mask | 1 << e
            if vals[i] > best[1]:
                best[0], best[1] = grown, vals[i]
            k = len(kids) - 1 - i
            if k and (vals[i] + tail[i]) * rho[k] + slack[k] > best[1]:
                walk(grown, constraint.add(state, e), vals[i], kids[i + 1:])

    walk(0, constraint.empty_state(), f_empty, range(n))
    return ExactResult(solution=best[0], value=best[1], sets_visited=best[2], empty_value=f_empty)


def solve(name: str, f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet, *,
          epsilon: float | None = None, q: float = 0.5, seed: int | None = None) -> RunReport:
    """The one front door over the implemented algorithms.

    Names: `twin` (twin_greedy), `twinfast` (twin_greedy_fast, needs
    `epsilon`, the threshold decay), `samplegreedy` (sample_greedy with
    the inclusion probability `q` and the rng `seed`, None read as 0),
    `greedy` (classic_greedy) and `exact` (exact_max).
    The `exact` report carries the optimum as side 1, an empty side 2 and
    an empty log; its value queries are the search's, `sets_visited`.
    """
    if name == "twin":
        return twin_greedy(f, constraint, ground)
    if name == "twinfast":
        if epsilon is None:
            raise ParameterError("the thresholded solver needs epsilon")
        return twin_greedy_fast(f, constraint, ground, epsilon)
    if name == "samplegreedy":
        return sample_greedy(f, constraint, ground, q=q, seed=seed or 0)
    if name == "greedy":
        return classic_greedy(f, constraint, ground)
    if name == "exact":
        start = _start(f, constraint)
        res = exact_max(f, constraint, ground)
        return _report("exact", ground, {}, [res.solution, 0], [res.value, res.empty_value],
                       InsertionLog(), f, constraint, start)
    raise ParameterError(f"unknown algorithm {name!r}")
