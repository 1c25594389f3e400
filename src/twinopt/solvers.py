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

The greedy solvers keep one oracle base per side (`ValueOracle.base`)
and pass it positionally to every `evaluate` of a one-element extension
of that side, refreshing it after each insertion.  By the `ValueOracle`
contract such a query counts once, returns what a plain `evaluate`
returns and leaves its base as it found it, so logs, values and query
counts do not depend on whether an oracle offers bases, and the two
sides may start from one shared base of the empty set.

Every solver and `exact_max` first check that the ground set, the
constraint and the oracle state one size.
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import count, takewhile

import numpy as np

from .core import (
    ContractViolation,
    GroundSet,
    IndependenceOracle,
    InsertionLog,
    ParameterError,
    RunReport,
    ValueOracle,
)
from .constraints import rank as constraint_rank
from .generators import RNG_ID

TIE_BREAK = "side1-lowest-id"


@dataclass
class SolverParams:
    """Knobs shared by the solve() front door."""

    epsilon: float | None = None  # threshold decay (thresholded solver)
    q: float = 0.5  # inclusion probability (sampled baseline)
    seed: int | None = None  # rng seed for randomized baselines


def _start(f: ValueOracle, constraint: IndependenceOracle) -> tuple[float, int, int]:
    """The clock and both oracle counters at solver entry."""
    return time.perf_counter(), f.query_count, constraint.check_count


def _empty_value(f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet) -> float:
    """f(empty), one query, once the ground set, the constraint and the
    oracle are seen to state one size (`CallableOracle` states none).
    Every solver starts from it, and a NaN there would leave no gain or
    side value to compare, so it is rejected."""
    if not ground.n == constraint.n == (ground.n if f.n is None else f.n):
        raise ContractViolation(f"ground set, constraint and oracle sizes differ: "
                                f"{ground.n}, {constraint.n} and {f.n}")
    value = f.evaluate(0)
    if math.isnan(value):
        raise ContractViolation("f(empty) is NaN")
    return value


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

    The constraint must be hereditary; a non-hereditary family can make
    the run stop early, which is not detected.
    """
    start = _start(f, constraint)
    n = ground.n
    f_empty = _empty_value(f, constraint, ground)
    s = [0, 0]
    fval = [f_empty, f_empty]
    states = [constraint.empty_state(), constraint.empty_state()]
    bases = [f.base(0)] * 2  # a query leaves a base as it found it, so both sides may share one
    versions = [0, 0]
    log = InsertionLog()

    # both sides are empty, so singleton gains are shared between them
    heap = []
    empty_state = constraint.empty_state()
    for e in range(n):
        if constraint.can_add(empty_state, e):
            val = f.evaluate(1 << e, bases[0])
            gain = val - f_empty
            heap.append((-gain, 0, e, 0, val))
            heap.append((-gain, 1, e, 0, val))
    heapq.heapify(heap)

    selected = 0
    while heap:
        neg_gain, i, e, ver, val = heapq.heappop(heap)
        if (selected >> e) & 1:
            continue
        if not constraint.can_add(states[i], e):
            continue  # a grown side never becomes feasible again
        if ver != versions[i]:
            val = f.evaluate(s[i] | (1 << e), bases[i])
            heapq.heappush(heap, (fval[i] - val, i, e, versions[i], val))
            continue
        gain = -neg_gain
        if gain <= 0:
            break
        log.append(element=e, side=i + 1, gain=gain)
        s[i] |= 1 << e
        fval[i] = val  # val is the oracle's own output for the grown side
        states[i] = constraint.add(states[i], e)
        bases[i] = f.base(s[i], bases[i])
        versions[i] += 1
        selected |= 1 << e

    return _report("twin_greedy", ground, {"tie_break": TIE_BREAK}, s, fval, log,
                   f, constraint, start)


def twin_greedy_fast(f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet,
                     epsilon: float) -> RunReport:
    """Thresholded twin-set greedy with geometrically decaying bar.

    Starting from the best feasible singleton value, each pass scans the
    unselected elements in ascending id order and inserts an element into
    the feasible side of larger marginal gain whenever that gain clears
    the current bar tau; the bar then decays by (1+epsilon) until it
    drops to epsilon*tau_max/(r*(1+epsilon)).  Cached per-side gain
    bounds skip evaluations that cannot clear the bar (see module note);
    the insertion sequence is identical to the unskipped scan.

    Only its own scan changes an element's bounds, so it waits in the list
    of the first pass whose bar tau_max/(1+epsilon)**j its larger non-NaN
    bound reaches; pass j scans that list in id order, just the elements a
    pass-by-pass loop would find clearing the bar.  Passes, tau_min, the
    log and the query and check counts are that loop's; empty passes cost
    nothing.
    """
    if not 0.0 < epsilon < 1.0:
        raise ParameterError(f"epsilon must lie in (0,1), got {epsilon}")
    start = _start(f, constraint)
    n = ground.n
    f_empty = _empty_value(f, constraint, ground)
    log = InsertionLog()
    s = [0, 0]
    fval = [f_empty, f_empty]
    params: dict = {"epsilon": epsilon, "tie_break": TIE_BREAK}

    bases = [f.base(0)] * 2  # a query leaves a base as it found it, so both sides may share one
    states = [constraint.empty_state(), constraint.empty_state()]
    singleton = [-math.inf] * n
    for e in range(n):
        if constraint.can_add(states[0], e):
            singleton[e] = f.evaluate(1 << e, bases[0])
    # any NaN singleton makes tau_max NaN, wherever it stands
    tau_max = math.nan if any(map(math.isnan, singleton)) else float(max(singleton, default=-math.inf))
    params["tau_max"] = None if math.isinf(tau_max) else tau_max
    if not tau_max > 0.0:
        params.update(passes=0, tau_min=None, rank=None)
        return _report("twin_greedy_fast", ground, params, s, fval, log, f, constraint, start)

    # r is the size of the greedy base in id order: the rank for a matroid,
    # and within a factor p of every base of a p-set system, so an optimal
    # set has at most p*r elements (certify_run checks that bound)
    r = constraint_rank(constraint, ground)
    tau_floor = epsilon * tau_max / (r * (1.0 + epsilon))
    bars = (tau_max / (1.0 + epsilon) ** j for j in count())
    neg = [-tau for tau in takewhile(tau_floor.__lt__, bars)]  # ascending for bisect_left
    tau_min = tau_max / (1.0 + epsilon) ** (len(neg) - 1)
    params.update(rank=r, passes=len(neg), tau_min=tau_min)

    # upper bounds on the marginal gain of each (side, element) pair
    bounds = [[v - f_empty for v in singleton] for _ in (0, 1)]
    due = [[] for _ in neg]  # due[j]: the elements pass j scans
    for e, top in enumerate(bounds[0]):
        if neg and top >= tau_min:  # an infinite tau_max leaves no pass
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
                val = f.evaluate(s[i] | (1 << e), bases[i])
                gain = val - fval[i]
                bounds[i][e] = gain
                if gain > best_gain:  # strict keeps side 1 on ties
                    best_gain, best_side, best_val = gain, i, val
            if best_gain >= tau:
                log.append(element=e, side=best_side + 1, gain=best_gain, threshold=tau)
                s[best_side] |= 1 << e
                fval[best_side] = best_val
                states[best_side] = constraint.add(states[best_side], e)
                bases[best_side] = f.base(s[best_side], bases[best_side])
                continue
            # both bounds are below tau: wait for the next bar the larger reaches
            b0, b1 = bounds[0][e], bounds[1][e]
            top = b0 if b0 >= b1 or b1 != b1 else b1
            if top >= tau_min:
                due[bisect_left(neg, -top, j + 1)].append(e)

    return _report("twin_greedy_fast", ground, params, s, fval, log, f, constraint, start)


def _single_greedy(algorithm, f, constraint, ground, candidates, parameters,
                   start) -> RunReport:
    """Textbook single-set greedy: full rescans, positive-gain stopping."""
    f_empty = _empty_value(f, constraint, ground)
    sol = 0
    fcur = f_empty
    state = constraint.empty_state()
    base = f.base(0)
    log = InsertionLog()
    remaining = list(candidates)
    while remaining:
        alive = []
        best_e = -1
        best_gain = -math.inf
        best_val = 0.0
        for e in remaining:
            if not constraint.can_add(state, e):
                continue  # infeasible for good; drop from future rounds
            alive.append(e)
            val = f.evaluate(sol | (1 << e), base)
            gain = val - fcur
            if gain > best_gain:  # ascending scan keeps the lowest id on ties
                best_e, best_gain, best_val = e, gain, val
        if best_e < 0 or best_gain <= 0:
            break
        log.append(element=best_e, side=1, gain=best_gain)
        sol |= 1 << best_e
        fcur = best_val
        state = constraint.add(state, best_e)
        base = f.base(sol, base)
        alive.remove(best_e)
        remaining = alive

    return _report(algorithm, ground, parameters, [sol, 0], [fcur, f_empty], log,
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
    """Optimal independent set found by exhaustive search."""

    solution: int
    value: float
    sets_visited: int


def exact_max(f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet) -> ExactResult:
    """Globally optimal independent set by pruned depth-first enumeration.

    Explores supersets in ascending-id order and prunes any branch whose
    first extension is infeasible, which is only sound for hereditary
    families.  Keeps the first maximum encountered, i.e. the
    lexicographically smallest optimal set.
    """
    n = ground.n
    if n > 20:
        raise ContractViolation("exhaustive search needs n <= 20")
    best = [0, _empty_value(f, constraint, ground), 1]

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
    return ExactResult(solution=best[0], value=best[1], sets_visited=best[2])


def solve(name: str, f: ValueOracle, constraint: IndependenceOracle, ground: GroundSet,
          params: SolverParams | None = None) -> RunReport:
    """The one front door over the implemented algorithms.

    Names: `twin` (twin_greedy), `twinfast` (twin_greedy_fast, needs
    `params.epsilon`), `samplegreedy` (sample_greedy with `params.q` and
    `params.seed`), `greedy` (classic_greedy) and `exact` (exact_max).
    The `exact` report carries the optimum as side 1, an empty side 2 and
    an empty log; its query count includes one f(empty) evaluation made
    before the search.
    """
    params = params or SolverParams()
    if name == "twin":
        return twin_greedy(f, constraint, ground)
    if name == "twinfast":
        if params.epsilon is None:
            raise ParameterError("the thresholded solver needs epsilon")
        return twin_greedy_fast(f, constraint, ground, params.epsilon)
    if name == "samplegreedy":
        return sample_greedy(f, constraint, ground, q=params.q, seed=params.seed or 0)
    if name == "greedy":
        return classic_greedy(f, constraint, ground)
    if name == "exact":
        start = _start(f, constraint)
        f_empty = _empty_value(f, constraint, ground)
        res = exact_max(f, constraint, ground)
        return _report("exact", ground, {}, [res.solution, 0], [res.value, f_empty],
                       InsertionLog(), f, constraint, start)
    raise ParameterError(f"unknown algorithm {name!r}")
