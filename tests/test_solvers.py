import copy
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import twinopt as t

import helpers


def _mini_instances(count, base_seed, n_lo=5, n_hi=10):
    for idx in range(count):
        n = n_lo + idx % (n_hi - n_lo + 1)
        yield idx, helpers.cut_instance(n, seed=base_seed + idx)


def test_twin_greedy_modular_rank_one():
    ground = t.GroundSet(3)
    report = t.twin_greedy(t.ModularObjective([3.0, 2.0, 1.0]),
                           t.UniformMatroid(3, 1), ground)
    assert t.members(report.s1) == [0]
    assert t.members(report.s2) == [1]
    assert report.s_star == report.s1 and report.f_star == 3.0


def test_twin_greedy_breaks_immediately_on_nonpositive_gains():
    ground = t.GroundSet(4)
    report = t.twin_greedy(t.ModularObjective([0.0] * 4), t.UniformMatroid(4, 2), ground)
    assert report.s_star == 0 and report.f_star == 0.0
    assert len(report.log) == 0


def test_twin_greedy_quarter_of_optimum():
    worst = math.inf
    for idx, (graph, ground, oracle, constraint) in _mini_instances(120, 500):
        opt = t.exact_max(oracle(), constraint(), ground)
        report = t.twin_greedy(oracle(), constraint(), ground)
        assert report.f_star >= 0.25 * opt.value - 1e-9
        if opt.value > 1e-12:
            worst = min(worst, report.f_star / opt.value)
    assert worst >= 0.25


def test_twin_greedy_fast_modular_rank_one():
    ground = t.GroundSet(3)
    report = t.twin_greedy_fast(t.ModularObjective([3.0, 2.0, 1.0]),
                                t.UniformMatroid(3, 1), ground, 0.1)
    assert report.s_star == 0b001 and report.f_star == 3.0


def test_twin_greedy_fast_tau_guard_returns_empty():
    ground = t.GroundSet(3)
    report = t.twin_greedy_fast(t.ModularObjective([0.0] * 3), t.UniformMatroid(3, 2), ground, 0.2)
    assert report.s_star == 0
    assert report.parameters["passes"] == 0


def test_twin_greedy_fast_rejects_bad_epsilon():
    ground = t.GroundSet(2)
    f = t.ModularObjective([1.0, 1.0])
    for eps in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(t.ParameterError):
            t.twin_greedy_fast(f, t.UniformMatroid(2, 1), ground, eps)


def test_twin_greedy_fast_ratio_matroid():
    for idx, (graph, ground, oracle, constraint) in _mini_instances(120, 900):
        opt = t.exact_max(oracle(), constraint(), ground)
        report = t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)
        assert report.f_star >= 0.15 * opt.value - 1e-9


def test_twin_greedy_fast_ratio_two_matroid_intersection():
    for idx in range(120):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.psystem_instance(n, seed=1300 + idx)
        opt = t.exact_max(oracle(), constraint(), ground)
        report = t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)
        assert report.f_star >= (1.0 / 6.0 - 0.1) * opt.value - 1e-9


def test_sample_greedy_full_sample_equals_classic_greedy():
    ground = t.GroundSet(6)
    weights = [5.0, 4.0, 3.0, 2.0, 1.0, 0.5]
    a = t.sample_greedy(t.ModularObjective(weights), t.UniformMatroid(6, 3), ground,
                        q=1.0, seed=3)
    b = t.classic_greedy(t.ModularObjective(weights), t.UniformMatroid(6, 3), ground)
    assert a.s_star == b.s_star and a.f_star == b.f_star


def test_sample_greedy_empty_sample():
    ground = t.GroundSet(8)
    report = t.sample_greedy(t.ModularObjective([1.0] * 8), t.UniformMatroid(8, 3),
                             ground, q=1e-12, seed=0)
    assert report.s_star == 0
    assert report.parameters["sample_size"] == 0


def test_sample_greedy_mean_above_quarter_of_optimum():
    graph, ground, oracle, constraint = helpers.cut_instance(10, seed=77)
    opt = t.exact_max(oracle(), constraint(), ground)
    values = [t.sample_greedy(oracle(), constraint(), ground, q=0.5, seed=s).f_star
              for s in range(200)]
    assert sum(values) / len(values) >= 0.25 * opt.value


def test_classic_greedy_modular_exact_under_uniform():
    ground = t.GroundSet(5)
    report = t.classic_greedy(t.ModularObjective([2.0, 8.0, 4.0, 1.0, 0.5]),
                              t.UniformMatroid(5, 2), ground)
    assert t.members(report.s_star) == [1, 2] and report.f_star == 12.0


def _shrinking(n):
    """f(S) = n**2 - |S|**2 over 0..n-1: non-negative and submodular, and
    every marginal gain is negative."""
    return t.CallableOracle(lambda mask: float(n * n - mask.bit_count() ** 2), n)


def test_classic_greedy_stops_on_all_negative():
    ground = t.GroundSet(3)
    report = t.classic_greedy(_shrinking(3), t.UniformMatroid(3, 2), ground)
    assert report.s_star == 0


def test_classic_greedy_half_of_optimum_monotone():
    for idx in range(200):
        ground, oracle, constraint = helpers.coverage_instance(8, seed=2200 + idx)
        opt = t.exact_max(oracle(), constraint(), ground)
        report = t.classic_greedy(oracle(), constraint(), ground)
        assert report.f_star >= 0.5 * opt.value - 1e-9


def test_twin_greedy_half_of_optimum_monotone():
    for idx in range(200):
        ground, oracle, constraint = helpers.coverage_instance(8, seed=3300 + idx)
        opt = t.exact_max(oracle(), constraint(), ground)
        report = t.twin_greedy(oracle(), constraint(), ground)
        assert report.f_star >= 0.5 * opt.value - 1e-9


def test_exact_max_modular():
    ground = t.GroundSet(3)
    res = t.exact_max(t.ModularObjective([3.0, 2.0, 1.0]), t.UniformMatroid(3, 2), ground)
    assert t.members(res.solution) == [0, 1] and res.value == 5.0


def test_exact_max_empty_when_all_negative():
    ground = t.GroundSet(4)
    res = t.exact_max(_shrinking(4), t.UniformMatroid(4, 2), ground)
    assert res.solution == 0 and res.value == 16.0


def test_exact_max_matches_full_enumeration():
    for seed in (0, 1, 2):
        graph, ground, oracle, constraint = helpers.cut_instance(10, seed=4000 + seed)
        res = t.exact_max(oracle(), constraint(), ground)
        f, c = oracle(), constraint()
        brute = max(
            (f.evaluate(mask), mask)
            for mask in range(1 << 10) if c.is_independent(mask)
        )
        assert res.value == pytest.approx(brute[0], abs=1e-12)


def test_exact_max_prefers_lexicographically_smallest():
    ground = t.GroundSet(3)
    res = t.exact_max(t.ModularObjective([1.0, 1.0, 1.0]), t.UniformMatroid(3, 1), ground)
    assert t.members(res.solution) == [0]


@st.composite
def exact_cases(draw):
    """A cut on up to 12 nodes, with self-loops, parallel edges and zero
    weights, or modular weights; under a uniform, partition or seed
    matroid, an intersection of one partition matroid, or of two.
    Returns an oracle factory, a constraint factory and the ground set."""
    n = draw(st.integers(1, 12))
    ids = st.integers(0, n - 1)
    weights = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.integers(1, 99).map(lambda k: k / 7))
    if draw(st.booleans()):
        edges = draw(st.lists(st.tuples(ids, ids, weights), max_size=40))
        if edges:
            u, v, _ = edges[0]
            edges += [(u, v, draw(weights)), (v, u, draw(weights)), (u, u, draw(weights))]
        graph = t.WeightedGraph(n, edges)

        def oracle():
            return t.CutMonitorObjective(graph)
    else:
        values = draw(st.lists(weights, min_size=n, max_size=n))

        def oracle():
            return t.ModularObjective(values)
    kind = draw(st.sampled_from(["uniform", "partition", "seed", "single", "intersection"]))
    parts = [draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)) for _ in range(2)]
    k, cap = draw(st.integers(0, n)), draw(st.integers(0, 4))
    m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))

    def constraint():
        if kind == "uniform":
            return t.UniformMatroid(n, k)
        if kind == "partition":
            return t.PartitionMatroid(parts[0], cap)
        if kind == "seed":
            return t.SeedMatroid(n // m, m, k)
        if kind == "single":
            return t.IntersectionSystem([t.PartitionMatroid(parts[0], cap)])
        return t.IntersectionSystem([t.PartitionMatroid(part, cap) for part in parts])

    return oracle, constraint, t.GroundSet(n)


@given(exact_cases())
def test_exact_max_equals_the_unpruned_walk(case):
    """The pruned search returns the unpruned walk's first maximum, set and
    value bit for bit, with no more queries or checks, and counts each of
    its queries as a visited set."""
    oracle, constraint, ground = case
    f, c, g, d = oracle(), constraint(), oracle(), constraint()
    res = t.exact_max(f, c, ground)
    ref = helpers.exact_max_unpruned(g, d, ground)
    assert (res.solution, res.value) == (ref.solution, ref.value)
    assert res.sets_visited == f.query_count <= g.query_count == ref.sets_visited
    assert c.check_count <= d.check_count


def _unstated(constraint):
    """`constraint` as a subclass that states no base size, as a user's does."""
    class Unstated(type(constraint)):
        base_size = None

    hidden = copy.copy(constraint)
    hidden.__class__ = Unstated
    return hidden


@given(exact_cases(), st.sampled_from(["twin", "twinfast", "greedy", "samplegreedy", "exact"]))
def test_a_stated_base_size_spares_only_checks(case, name):
    """A run under a matroid and under the same matroid with its base size
    hidden: the same log, values, optimum and queries, and no more checks."""
    oracle, constraint, ground = case
    runs = [t.solve(name, oracle(), c, ground, epsilon=0.1, seed=1).to_dict(include_timing=False)
            for c in (constraint(), _unstated(constraint()))]
    stated, hidden = (run.pop("independence_checks") for run in runs)
    assert runs[0] == runs[1]
    assert stated <= hidden


class _SizeRecordingSeedMatroid(t.SeedMatroid):
    """Records the size of the set behind each state it is asked about."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def _can_add(self, state, e):
        self.asked.append(state[0])
        return super()._can_add(state, e)


def test_twin_greedy_checks_no_side_that_is_a_base():
    """Both sides fill to k = 3: no check is made on a full side, so none
    after both are full, and an intersection of one is no different."""
    f, ground = t.ModularObjective([float(e % 5 + 1) for e in range(12)]), t.GroundSet(12)
    c = _SizeRecordingSeedMatroid(6, 2, 3)
    report = t.twin_greedy(f, c, ground)
    assert report.s1.bit_count() == report.s2.bit_count() == 3
    assert c.asked and max(c.asked) < 3 and report.independence_checks == len(c.asked)
    hidden = _unstated(_SizeRecordingSeedMatroid(6, 2, 3))
    t.twin_greedy(f, hidden, ground)
    assert max(hidden.asked) == 3  # a run that is not told the size does ask
    single = t.IntersectionSystem([t.SeedMatroid(6, 2, 3)])
    assert (t.twin_greedy(f, single, ground).to_dict(include_timing=False)
            == report.to_dict(include_timing=False))


def test_twin_greedy_fast_checks_no_side_that_is_a_base():
    """As twin_greedy: the elements still due on a side that is full are
    dropped from it unchecked, with the same run as when every one is
    checked."""
    f, ground = t.ModularObjective([float(e % 5 + 1) for e in range(12)]), t.GroundSet(12)
    c = _SizeRecordingSeedMatroid(6, 2, 3)
    report = t.twin_greedy_fast(f, c, ground, 0.1)
    assert report.s1.bit_count() == report.s2.bit_count() == 3
    assert c.asked and max(c.asked) < 3 and report.independence_checks == len(c.asked)
    hidden = _unstated(_SizeRecordingSeedMatroid(6, 2, 3))
    checked = t.twin_greedy_fast(f, hidden, ground, 0.1).to_dict(include_timing=False)
    assert max(hidden.asked) == 3  # a run that is not told the size does ask
    assert checked.pop("independence_checks") > report.independence_checks
    assert checked == {k: v for k, v in report.to_dict(include_timing=False).items()
                       if k != "independence_checks"}


def test_exact_max_prunes_by_the_bound():
    """On certify-sized cuts the bound skips most of the walk."""
    for seed in (0, 1):
        graph, ground, oracle, constraint = helpers.psystem_instance(12, seed=4100 + seed, cap=3)
        res = t.exact_max(oracle(), constraint(), ground)
        ref = helpers.exact_max_unpruned(oracle(), constraint(), ground)
        assert (res.solution, res.value) == (ref.solution, ref.value)
        assert res.sets_visited < 0.75 * ref.sets_visited


def test_exact_max_of_a_non_submodular_callable_is_the_true_optimum():
    """A CallableOracle states no error bound, so nothing is pruned: with
    f(S) = 1 iff |S| = 3 the search finds {0, 1, 2}, with the unpruned
    walk's queries."""
    def three(mask):
        return float(mask.bit_count() == 3)

    f, ground = t.CallableOracle(three, 6), t.GroundSet(6)
    assert f.value_error is None
    res = t.exact_max(f, t.UniformMatroid(6, 4), ground)
    ref = helpers.exact_max_unpruned(t.CallableOracle(three, 6), t.UniformMatroid(6, 4), ground)
    assert (res.solution, res.value) == (0b111, 1.0)
    assert res.sets_visited == ref.sets_visited == f.query_count


def test_exact_max_bound_allows_for_rounding():
    """{0, 1, 2} and {1, 2, 3} weigh 1.4 in reals, but their float sums are
    1.4 and the next float up.  At the root the child {1} has the float
    bound 0.6 + (0.3 + 0.5) = 1.4, the best so far: a bound that made no
    allowance for rounding would skip {1}'s subtree and keep {0, 1, 2}."""
    f, ground = t.ModularObjective([0.3, 0.6, 0.5, 0.3]), t.GroundSet(4)
    assert f.evaluate(0b0111) == 1.4 < f.evaluate(0b1110) == math.nextafter(1.4, 2.0)
    res = t.exact_max(f, t.UniformMatroid(4, 3), ground)
    ref = helpers.exact_max_unpruned(t.ModularObjective(f.weights), t.UniformMatroid(4, 3), ground)
    assert (res.solution, res.value) == (ref.solution, ref.value) == (0b1110, f.evaluate(0b1110))


@pytest.mark.parametrize("constraint", [t.UniformMatroid(4, 3), t.PartitionMatroid([0, 0, 1, 1], 2)],
                         ids=["uniform", "partition"])
def test_exact_max_keeps_the_depth_first_first_of_tied_optima(constraint):
    """A star with dyadic weights has two optimal sets, the centre {1} and
    the leaves {0, 2, 3}, with exactly equal cuts.  The walk meets {0, 2, 3}
    first, below the child {0}, before the root's child {1}, so it is kept,
    although the pruned search evaluates {1} before it descends into {0}."""
    graph = t.WeightedGraph(4, [(1, 0, 0.5), (1, 2, 0.25), (1, 3, 0.125)])
    f = t.CutMonitorObjective(graph)
    assert f.evaluate(0b0010) == f.evaluate(0b1101) == 0.875
    res = t.exact_max(f, constraint, t.GroundSet(4))
    ref = helpers.exact_max_unpruned(t.CutMonitorObjective(graph), constraint, t.GroundSet(4))
    assert (res.solution, res.value) == (ref.solution, ref.value) == (0b1101, 0.875)


def test_the_exact_report_counts_each_visited_set_once():
    """`solve("exact")` makes exactly the search's queries: f(empty) is
    the search's first, not one more before it (162 on this instance
    when it was asked twice)."""
    f = t.CutMonitorObjective(t.gen_er(10, 0.5, 1))
    report = t.solve("exact", f, t.UniformMatroid(10, 3), t.GroundSet(10))
    res = t.exact_max(t.CutMonitorObjective(t.gen_er(10, 0.5, 1)), t.UniformMatroid(10, 3),
                      t.GroundSet(10))
    assert report.value_queries == f.query_count == res.sets_visited == 161
    assert (report.s_star, report.f_star, report.f_s2) == (res.solution, res.value, 0.0)


def test_exact_max_rejects_large_ground():
    with pytest.raises(t.ContractViolation):
        t.exact_max(t.ModularObjective([1.0] * 21), t.UniformMatroid(21, 2), t.GroundSet(21))


def test_sides_disjoint_and_independent_post_hoc():
    for idx, (graph, ground, oracle, constraint) in _mini_instances(60, 5100):
        for run in (t.twin_greedy(oracle(), constraint(), ground),
                    t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)):
            assert run.s1 & run.s2 == 0
            fresh = constraint()
            assert fresh.is_independent(run.s1)
            assert fresh.is_independent(run.s2)


def test_twin_greedy_log_gains_positive_and_replayable():
    for idx, (graph, ground, oracle, constraint) in _mini_instances(40, 5500):
        report = t.twin_greedy(oracle(), constraint(), ground)
        ref = oracle()
        pre = report.log.pre_masks()
        for ent in report.log.entries:
            assert ent.gain > 0
            base = pre[ent.element][ent.side - 1]
            recomputed = ref.evaluate(base | (1 << ent.element)) - ref.evaluate(base)
            assert abs(recomputed - ent.gain) <= 1e-9


def test_twin_greedy_fast_gains_clear_recorded_bar():
    for idx, (graph, ground, oracle, constraint) in _mini_instances(40, 6000):
        report = t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)
        tau_max = report.parameters["tau_max"]
        if tau_max is None or tau_max <= 0:
            continue
        ladder = {tau_max / 1.1 ** j for j in range(report.parameters["passes"])}
        for ent in report.log.entries:
            assert ent.gain >= ent.threshold
            assert ent.threshold in ladder


def test_twin_greedy_query_budget():
    for idx, (graph, ground, oracle, constraint) in _mini_instances(60, 6500):
        f = oracle()
        report = t.twin_greedy(f, constraint(), ground)
        k = report.s1.bit_count() + report.s2.bit_count()
        assert report.value_queries <= helpers.twin_budget(ground.n, report.s1.bit_count(),
                                                           report.s2.bit_count())
        assert report.value_queries == f.query_count


def test_twin_greedy_fast_query_budget():
    for idx, (graph, ground, oracle, constraint) in _mini_instances(60, 7000):
        f = oracle()
        report = t.twin_greedy_fast(f, constraint(), ground, 0.1)
        r = report.parameters.get("rank")
        if r:
            assert report.value_queries <= helpers.fast_budget(ground.n, r, 0.1)
        assert report.value_queries == f.query_count


def test_degenerate_single_side_is_optimal():
    # rank-1 single-element ground: side 2 never fills, side 1 is the optimum
    ground = t.GroundSet(1)
    report = t.twin_greedy(t.ModularObjective([5.0]), t.UniformMatroid(1, 1), ground)
    assert report.s2 == 0 and report.f_s1 == 5.0
    for idx, (graph, ground, oracle, constraint) in _mini_instances(150, 7700):
        report = t.twin_greedy(oracle(), constraint(), ground)
        if report.s2 == 0:
            opt = t.exact_max(oracle(), constraint(), ground)
            assert abs(report.f_s1 - opt.value) <= 1e-9


def _rescan_twin_greedy(f, constraint, ground):
    """Literal rescan-per-round reference for pinning the lazy solver."""
    n = ground.n
    f_empty = f.evaluate(0)
    s = [0, 0]
    fval = [f_empty, f_empty]
    entries = []
    while True:
        best = None
        for i in (0, 1):
            for e in range(n):
                if ((s[0] | s[1]) >> e) & 1:
                    continue
                if not constraint.is_independent(s[i] | (1 << e)):
                    continue
                val = f.evaluate(s[i] | (1 << e))
                gain = val - fval[i]
                if best is None or gain > best[0]:
                    best = (gain, i, e, val)
        if best is None or best[0] <= 0:
            break
        gain, i, e, val = best
        entries.append((e, i + 1, gain))
        s[i] |= 1 << e
        fval[i] = val
    return s, entries


def _rescan_twin_greedy_fast(f, constraint, ground, epsilon):
    """Literal per-pass full scan reference for the thresholded solver;
    returns the sides, the log as tuples and the number of passes."""
    n = ground.n
    f_empty = f.evaluate(0)
    singles = {e: f.evaluate(1 << e) for e in range(n)
               if constraint.is_independent(1 << e)}
    s = [0, 0]
    fval = [f_empty, f_empty]
    entries = []
    if not singles or max(singles.values()) <= 0:
        return s, entries, 0
    tau_max = max(singles.values())
    r = t.rank(constraint, ground)
    floor = epsilon * tau_max / (r * (1.0 + epsilon))
    j = 0
    while True:
        tau = tau_max / (1.0 + epsilon) ** j
        if not tau > floor:
            break
        for e in range(n):
            if ((s[0] | s[1]) >> e) & 1:
                continue
            deltas = [-math.inf, -math.inf]
            vals = [0.0, 0.0]
            for i in (0, 1):
                if constraint.is_independent(s[i] | (1 << e)):
                    vals[i] = f.evaluate(s[i] | (1 << e))
                    deltas[i] = vals[i] - fval[i]
            i = 0 if deltas[0] >= deltas[1] else 1
            if deltas[i] >= tau:
                entries.append((e, i + 1, deltas[i], tau))
                s[i] |= 1 << e
                fval[i] = vals[i]
        j += 1
    return s, entries, j


def test_twin_greedy_matches_rescan_reference_bit_exactly():
    # dyadic weights make every sum exact, removing float tie noise, so the
    # lazy run must reproduce the literal rescan bit for bit
    for idx in range(60):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.cut_instance_dyadic(n, seed=8600 + idx)
        lazy = t.twin_greedy(oracle(), constraint(), ground)
        sides, entries = _rescan_twin_greedy(oracle(), constraint(), ground)
        assert [sides[0], sides[1]] == [lazy.s1, lazy.s2]
        assert entries == [(ent.element, ent.side, ent.gain) for ent in lazy.log.entries]


def _assert_matches_rescan(lazy, rescan):
    sides, entries, passes = rescan
    assert [sides[0], sides[1]] == [lazy.s1, lazy.s2]
    assert entries == [(ent.element, ent.side, ent.gain, ent.threshold)
                       for ent in lazy.log.entries]
    params = lazy.parameters
    assert params["passes"] == passes
    tau_min = params["tau_max"] / (1.0 + params["epsilon"]) ** (passes - 1) if passes else None
    assert params["tau_min"] == tau_min


def test_twin_greedy_fast_matches_rescan_reference_bit_exactly():
    for idx in range(60):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.cut_instance_dyadic(n, seed=8900 + idx)
        lazy = t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)
        _assert_matches_rescan(lazy, _rescan_twin_greedy_fast(oracle(), constraint(), ground, 0.1))
    graph, ground, oracle, constraint = helpers.cut_instance(9, seed=8100)
    for solver in (lambda: t.twin_greedy(oracle(), constraint(), ground),
                   lambda: t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)):
        a = json.dumps(solver().to_dict(include_timing=False), sort_keys=True)
        b = json.dumps(solver().to_dict(include_timing=False), sort_keys=True)
        assert a == b


def _gap_instance():
    """One weight of 1000 and fifteen of 1 under a rank-12 uniform matroid
    with epsilon 0.01: 714 passes, of which only the first (the 1000) and
    the one whose bar first drops to 1 insert anything."""
    return (t.ModularObjective([1000.0] + [1.0] * 15), t.UniformMatroid(16, 12),
            t.GroundSet(16), 0.01)


def test_twin_greedy_fast_walks_a_ladder_of_empty_passes():
    f, constraint, ground, epsilon = _gap_instance()
    report = t.twin_greedy_fast(f, constraint, ground, epsilon)
    assert report.parameters["passes"] == 714
    assert len({ent.threshold for ent in report.log.entries}) == 2
    _assert_matches_rescan(report, _rescan_twin_greedy_fast(*_gap_instance()))
    # a bound exactly on a later bar: that pass runs and inserts at that bar
    bar = 1000.0 / 1.01 ** 5
    report = t.twin_greedy_fast(t.ModularObjective([1000.0, bar]), t.UniformMatroid(2, 2),
                                t.GroundSet(2), 0.01)
    assert [ent.threshold for ent in report.log.entries] == [1000.0, bar]


# `helpers.digest_and_checks` of `twin_greedy_fast(...).to_dict(include_timing=False)`,
# the digests recorded before passes whose bar lies above every cached
# bound were skipped: the certify-small sizes (n 8..15, partition matroid
# or an intersection of two, cap 3) and the gap instance.  Values, logs,
# pass counts, tau_min and query counts are in the digest; the check
# count is pinned beside it.
TWINFAST_PINS = {
    0: ("521e5a717d303dc289a6d823f77504972e2159a90fe024ed4d62fedaa55d0953", 23),
    1: ("449babad0d96f02c0269cc6a230d851bcee69793badf654f07aacc61a66023aa", 30),
    2: ("5d4d3ff23392a9b9e8f011f4ba68b3593140dbc8b22c2e6d1586e8ae7a263760", 36),
    3: ("9152d5d2efff99ab15a467a9bed00b4f94320c2c4149128deab44cba5f8cae3e", 49),
    4: ("6d299ff01aea9b4a87e5a77386271ae6f5a6a584ed59c9505d07a29d68a89fb4", 46),
    5: ("e8a8763bc37699369ab82310c56be34c05ba5e19e588552dcf645d25c5f6bae0", 48),
    6: ("63373d3c3a89114dc6596d53d0b1e5017d24971973ffc9e0cede154762d6aa3a", 50),
    7: ("6e64139d11d5662abd7d49744d31aa7504df50ee43c663ad73c50e5a8e9fdf8a", 57),
    8: ("f8008ac4bd5f9f5274130803ad750641c295a8154adbd7ba8ed7f47d5cefbb8f", 31),
    9: ("8f1db87c896d439631123fe103def8ad014f3572ca39e865b2833d5214a8b11d", 40),
    10: ("d89ea2247aac4d216c98f2107a281a313a57008c984a6c51397cbc56fc293b37", 49),
    11: ("5e9800495d2307a2148f6db6c33dd712d841a69fa0ff07733c5d373a4ef99a6e", 56),
    12: ("aeda3a370205a8cf112cf7c305ff788f7284add6eca5025ff7e893154b839165", 55),
    13: ("a57c7a133853ce0dca83ee1c9c24540027d1166737603529fc99080125829b6f", 61),
    14: ("8f655e86c7fbfdd80de85536b9578b3b6a9f878cad662568e5b56682c9eb83e5", 68),
    15: ("2906c8ad88e7b023cd16b8b9e2c053baf7246a7228a9015b72f79a23c900e410", 73),
    16: ("195b33b25f116a128d29dc7c6daecec4207537193e11d8f48aaf5e2c15cb9ec8", 26),
    17: ("efd10edff95da1ada066494d8634f08014df5b2ccf82aaad718dee176c027d51", 34),
    18: ("1efe0716872cedc65541f39d594d6fde69b90b81822f17d1a2ab6a9258e2f281", 44),
    19: ("51ce11d753a4f31f10f1c7bc8c3931756096f198d348a3edc9a7b6e57c86bd63", 38),
    "gap": ("29cdec63ca5f9e03353f5ffeb59f8f34c91cd6e86f9e2acd09cc62ff02acee96", 44),
}


@pytest.mark.parametrize("key, pinned", TWINFAST_PINS.items(),
                         ids=[str(key) for key in TWINFAST_PINS])
def test_twin_greedy_fast_report_is_pinned(key, pinned):
    if key == "gap":
        report = t.twin_greedy_fast(*_gap_instance())
    else:
        n = 8 + key % 8
        build = helpers.cut_instance if key // 8 % 2 == 0 else helpers.psystem_instance
        graph, ground, oracle, constraint = build(n, seed=9400 + key, cap=3)
        report = t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)
    assert helpers.digest_and_checks(report.to_dict(include_timing=False)) == pinned


def test_twin_greedy_fast_reevaluated_gain_on_a_later_bar():
    # the bars are 486, 324, 216, 144 and 96; element 2 is first scanned at
    # 324, where its gain against side 1 re-evaluates to 144, exactly the
    # bar of pass 3: that pass must run and insert it at that bar
    table = {0: 0.0, 0b001: 486.0, 0b010: 486.0, 0b100: 400.0,
             0b011: 486.0, 0b101: 630.0, 0b110: 586.0}
    args = (t.UniformMatroid(3, 2), t.GroundSet(3), 0.5)
    report = t.twin_greedy_fast(t.CallableOracle(table.__getitem__, 3), *args)
    assert [(ent.element, ent.side, ent.gain, ent.threshold) for ent in report.log.entries] == [
        (0, 1, 486.0, 486.0), (1, 2, 486.0, 486.0), (2, 1, 144.0, 144.0)]
    assert report.parameters["passes"] == 5
    _assert_matches_rescan(report,
                           _rescan_twin_greedy_fast(t.CallableOracle(table.__getitem__, 3), *args))


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("epsilon, count", [(0.5, 30), (0.01, 15), (0.001, 5)])
def test_twin_greedy_fast_matches_rescan_across_epsilon(epsilon, count, p):
    for idx in range(count):
        n = 6 + idx % 5
        graph, ground, oracle, constraint = helpers.cut_instance_dyadic(n, seed=9800 + idx,
                                                                        cap=3, p=p)
        lazy = t.twin_greedy_fast(oracle(), constraint(), ground, epsilon)
        _assert_matches_rescan(lazy, _rescan_twin_greedy_fast(oracle(), constraint(), ground,
                                                              epsilon))


SOLVE_NAMES = {"twin": "twin_greedy", "twinfast": "twin_greedy_fast",
               "samplegreedy": "sample_greedy", "greedy": "classic_greedy",
               "exact": "exact"}


def _certify_against_modular(f, constraint, ground):
    """certify_run, with the oracle f, of a twin_greedy run and the optimum
    found with the modular weights 6, 5, ..., 1 (what `_bad_oracle` answers
    off its bad sets)."""
    good = t.ModularObjective([6.0 - e for e in range(ground.n)])
    report = t.twin_greedy(good, constraint, ground)
    opt = t.exact_max(good, constraint, ground)
    return t.certify_run(f, constraint, report, opt.solution, opt.value)


VALUE_RULE_ENTRIES = {
    **{f"solve-{name}": lambda f, c, g, name=name: t.solve(name, f, c, g, epsilon=0.1, q=0.5,
                                                          seed=1)
       for name in SOLVE_NAMES},
    "exact_max": t.exact_max,
    "certify_run": _certify_against_modular,
    "submodularity_check": lambda f, c, g: t.submodularity_check(f, g),
}
# where a bad value stands: at f(empty), at every singleton, or at every
# pair, which a run first asks after its first insertion
BAD_AT = {"empty": 0, "singleton": 1, "after-first-insertion": 2}


def _bad_oracle(size, bad):
    """A CallableOracle over 0..5 that answers `bad` for every set of
    `size` elements and the modular sum of the weights 6, 5, ..., 1 for
    any other set, and the list of the masks it was asked, in order."""
    asked = []

    def value(mask):
        asked.append(mask)
        return bad if mask.bit_count() == size else float(sum(6 - e for e in t.members(mask)))

    return t.CallableOracle(value, 6), asked


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0], ids=repr)
@pytest.mark.parametrize("where", BAD_AT)
@pytest.mark.parametrize("entry", VALUE_RULE_ENTRIES.values(), ids=VALUE_RULE_ENTRIES.keys())
def test_every_entry_point_rejects_a_value_outside_the_rule(entry, where, bad):
    """A NaN, infinite or negative value raises the one ContractViolation of
    `ValueOracle.evaluate`, naming the set and the value, at the query that
    returns it, and that query counts."""
    f, asked = _bad_oracle(BAD_AT[where], bad)
    with pytest.raises(t.ContractViolation) as raised:
        entry(f, t.UniformMatroid(6, 2), t.GroundSet(6))
    assert str(raised.value) == (f"f({t.members(asked[-1])}) is {bad}: "
                                 f"a value must be finite and >= 0")
    assert asked[-1].bit_count() == BAD_AT[where]
    assert f.query_count == len(asked)


ENTRY_POINTS = {
    "twin_greedy": t.twin_greedy,
    "twin_greedy_fast": lambda f, c, g: t.twin_greedy_fast(f, c, g, 0.1),
    "classic_greedy": t.classic_greedy,
    "sample_greedy": t.sample_greedy,
    "exact_max": t.exact_max,
    **{f"solve-{name}": lambda f, c, g, name=name: t.solve(name, f, c, g, epsilon=0.1)
       for name in SOLVE_NAMES},
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_every_entry_point_rejects_sizes_that_differ(entry):
    """Each of the three sizes differing from the other two, as a cut or a
    CallableOracle on 10 nodes under a 10-element matroid over
    GroundSet(6), is rejected before any query or check, not solved as a
    smaller sub-problem."""
    for n_f, n_c, n_g in [(10, 10, 6), (10, 6, 10), (6, 10, 10)]:
        for f in (t.CutMonitorObjective(t.WeightedGraph(n_f, [(0, 1, 1.0), (1, 5, 0.5),
                                                              (5, 2, 2.0)])),
                  t.CallableOracle(float, n_f)):
            c = t.UniformMatroid(n_c, 3)
            with pytest.raises(t.ContractViolation, match=f"ground set, constraint and oracle "
                                                          f"sizes differ: {n_g}, {n_c} and {n_f}"):
                entry(f, c, t.GroundSet(n_g))
            assert f.query_count == c.check_count == 0


def test_solve_dispatcher():
    graph, ground, oracle, constraint = helpers.cut_instance(7, seed=8200)
    params = {"epsilon": 0.1, "q": 0.5, "seed": 1}
    for name, algorithm in SOLVE_NAMES.items():
        assert t.solve(name, oracle(), constraint(), ground, **params).algorithm == algorithm
    report = t.solve("exact", oracle(), constraint(), ground)
    g = oracle()
    res = t.exact_max(g, constraint(), ground)
    assert len(report.log) == 0 and report.s2 == 0
    assert report.s1 == report.s_star == res.solution
    assert report.f_star == res.value
    assert report.value_queries == g.query_count == res.sets_visited
    assert report.f_s2 == res.empty_value == g.evaluate(0)
    with pytest.raises(t.ParameterError):
        t.solve("twinfast", oracle(), constraint(), ground)
    for name in ("nope", "twin_greedy", "twin_greedy_fast", "sample_greedy",
                 "classic_greedy"):
        with pytest.raises(t.ParameterError):
            t.solve(name, oracle(), constraint(), ground, **params)


@pytest.mark.parametrize("name", sorted(SOLVE_NAMES))
def test_report_counts_equal_oracle_counter_deltas(name):
    # pre-used oracles: the report must count this run only
    graph, ground, oracle, constraint = helpers.cut_instance(9, seed=8250)
    f, c = oracle(), constraint()
    f.evaluate(0b101)
    c.is_independent(0b11)
    q0, k0 = f.query_count, c.check_count
    report = t.solve(name, f, c, ground, epsilon=0.1, seed=2)
    assert report.value_queries == f.query_count - q0 > 0
    assert report.independence_checks == c.check_count - k0 > 0


def test_sample_greedy_rejects_bad_q():
    graph, ground, oracle, constraint = helpers.cut_instance(5, seed=8300)
    with pytest.raises(t.ParameterError):
        t.sample_greedy(oracle(), constraint(), ground, q=0.0)
    with pytest.raises(t.ParameterError):
        t.sample_greedy(oracle(), constraint(), ground, q=1.5)


def test_solvers_handle_empty_and_singleton_grounds():
    empty = t.GroundSet(0)
    for report in (t.twin_greedy(t.ModularObjective([]), t.UniformMatroid(0, 1), empty),
                   t.twin_greedy_fast(t.ModularObjective([]), t.UniformMatroid(0, 1),
                                      empty, 0.1),
                   t.classic_greedy(t.ModularObjective([]), t.UniformMatroid(0, 1), empty)):
        assert report.s_star == 0 and report.f_star == 0.0
    one = t.GroundSet(1)
    report = t.twin_greedy_fast(t.ModularObjective([2.5]), t.UniformMatroid(1, 1), one, 0.5)
    assert report.s_star == 0b1 and report.f_star == 2.5


def test_rng_identifier_recorded_for_randomized_baseline():
    graph, ground, oracle, constraint = helpers.cut_instance(6, seed=8400)
    report = t.sample_greedy(oracle(), constraint(), ground, q=0.5, seed=11)
    assert report.parameters["rng"] == t.RNG_ID
    assert report.parameters["seed"] == 11


def _tracer_cases():
    """(oracle, constraint, ground) factories: a list-path cut, a sparse-path
    cut, marketing, modular and a `CallableOracle`."""
    def cut(n, **kwargs):
        graph, ground, oracle, constraint = helpers.cut_instance(n, **kwargs)
        return oracle(), constraint(), ground

    def marketing():
        g = t.gen_ba(8, 3, 2, 2)
        g = t.set_indegree_probabilities(
            t.WeightedGraph(8, g.edges + [(v, u, w) for u, v, w in g.edges], directed=True))
        f = t.MarketingObjective([t.gen_rr_sets(g, 30, s) for s in (3, 4)], [1.0] * 8)
        return f, t.SeedMatroid(8, 2, 3), t.GroundSet(16)

    return {
        "list cut": lambda: cut(12, seed=4),
        "sparse cut": lambda: cut(t.objectives._SPARSE_MIN_NODES + 8, seed=8500, p_edge=0.05,
                                  h=3, cap=4),
        "marketing": marketing,
        "modular": lambda: (t.ModularObjective([(7 * e) % 5 + 0.5 for e in range(12)]),
                            t.UniformMatroid(12, 4), t.GroundSet(12)),
        "callable": lambda: (t.CallableOracle(lambda mask: math.sqrt(mask.bit_count() + mask % 7), 10),
                             t.UniformMatroid(10, 3), t.GroundSet(10)),
    }


# exhaustive search takes n <= 20, and a sparse-path cut has 192 nodes or more
@pytest.mark.parametrize("kind, name", [
    (kind, name) for kind in _tracer_cases()
    for name in ("twin", "twinfast", "samplegreedy", "greedy", "exact")
    if (kind, name) != ("sparse cut", "exact")])
def test_positional_evaluate_wrapper_sees_every_query(kind, name):
    """perfbench's tracer wraps `evaluate` on the oracle instance as
    `wrapped(*args)` (`perfbench/spans.py`) and marks a traced run
    incorrect when those calls differ from its value queries.  So every
    solver asks through `evaluate`, positionally (an element passed by
    keyword would raise here), and one call is one counted query (a value
    reached around `evaluate` would make the counts differ)."""
    f, constraint, ground = _tracer_cases()[kind]()
    method, arities = f.evaluate, []

    def wrapped(*args):
        arities.append(len(args))
        return method(*args)

    f.evaluate = wrapped
    report = t.solve(name, f, constraint, ground, epsilon=0.1, seed=3)
    assert len(arities) == report.value_queries == f.query_count > 1
    if name != "exact":  # the exhaustive search evaluates whole sets
        assert arities.count(2) > arities.count(1)  # most queries named an element
        assert report.log.entries
