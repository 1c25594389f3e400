import json
import math

import pytest

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
    report = t.twin_greedy(t.ModularObjective([-1.0, -2.0, -0.5, -3.0]),
                           t.UniformMatroid(4, 2), ground)
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
    report = t.twin_greedy_fast(t.ModularObjective([-1.0, -0.1, -5.0]),
                                t.UniformMatroid(3, 2), ground, 0.2)
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


def test_classic_greedy_stops_on_all_negative():
    ground = t.GroundSet(3)
    report = t.classic_greedy(t.ModularObjective([-1.0, -2.0, -3.0]),
                              t.UniformMatroid(3, 2), ground)
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
    res = t.exact_max(t.ModularObjective([-1.0] * 4), t.UniformMatroid(4, 2), ground)
    assert res.solution == 0 and res.value == 0.0


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
    """Literal per-pass full scan reference for the thresholded solver."""
    n = ground.n
    f_empty = f.evaluate(0)
    singles = {e: f.evaluate(1 << e) for e in range(n)
               if constraint.is_independent(1 << e)}
    s = [0, 0]
    fval = [f_empty, f_empty]
    entries = []
    if not singles or max(singles.values()) <= 0:
        return s, entries
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
    return s, entries


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


def test_twin_greedy_fast_matches_rescan_reference_bit_exactly():
    for idx in range(60):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.cut_instance_dyadic(n, seed=8900 + idx)
        lazy = t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)
        sides, entries = _rescan_twin_greedy_fast(oracle(), constraint(), ground, 0.1)
        assert [sides[0], sides[1]] == [lazy.s1, lazy.s2]
        assert entries == [(ent.element, ent.side, ent.gain, ent.threshold)
                           for ent in lazy.log.entries]
    graph, ground, oracle, constraint = helpers.cut_instance(9, seed=8100)
    for solver in (lambda: t.twin_greedy(oracle(), constraint(), ground),
                   lambda: t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)):
        a = json.dumps(solver().to_dict(include_timing=False), sort_keys=True)
        b = json.dumps(solver().to_dict(include_timing=False), sort_keys=True)
        assert a == b


SOLVE_NAMES = {"twin": "twin_greedy", "twinfast": "twin_greedy_fast",
               "samplegreedy": "sample_greedy", "greedy": "classic_greedy",
               "exact": "exact"}


def test_solve_dispatcher():
    graph, ground, oracle, constraint = helpers.cut_instance(7, seed=8200)
    params = t.SolverParams(epsilon=0.1, q=0.5, seed=1)
    for name, algorithm in SOLVE_NAMES.items():
        assert t.solve(name, oracle(), constraint(), ground, params).algorithm == algorithm
    report = t.solve("exact", oracle(), constraint(), ground)
    g = oracle()
    res = t.exact_max(g, constraint(), ground)
    assert len(report.log) == 0 and report.s2 == 0
    assert report.s1 == report.s_star == res.solution
    assert report.f_star == res.value
    assert report.value_queries == 1 + g.query_count
    with pytest.raises(t.ParameterError):
        t.solve("twinfast", oracle(), constraint(), ground)
    for name in ("nope", "twin_greedy", "twin_greedy_fast", "sample_greedy",
                 "classic_greedy"):
        with pytest.raises(t.ParameterError):
            t.solve(name, oracle(), constraint(), ground, params)


@pytest.mark.parametrize("name", sorted(SOLVE_NAMES))
def test_report_counts_equal_oracle_counter_deltas(name):
    # pre-used oracles: the report must count this run only
    graph, ground, oracle, constraint = helpers.cut_instance(9, seed=8250)
    f, c = oracle(), constraint()
    f.evaluate(0b101)
    c.is_independent(0b11)
    q0, k0 = f.query_count, c.check_count
    report = t.solve(name, f, c, ground, t.SolverParams(epsilon=0.1, seed=2))
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


@pytest.mark.parametrize("name", ["twin", "twinfast", "samplegreedy", "greedy"])
def test_positional_evaluate_wrapper_sees_every_query(name):
    # a tracer that wraps evaluate on the instance as `wrapped(*args)` must
    # see each query once: a base passed by keyword would raise here, and a
    # value reached around evaluate would make the counts differ
    n = t.objectives._SPARSE_MIN_NODES + 8
    graph, ground, oracle, constraint = helpers.cut_instance(n, seed=8500, p_edge=0.05,
                                                             h=3, cap=4)
    f = oracle()
    method, arities = f.evaluate, []

    def wrapped(*args):
        arities.append(len(args))
        return method(*args)

    f.evaluate = wrapped
    report = t.solve(name, f, constraint(), ground, t.SolverParams(epsilon=0.1, seed=3))
    assert len(arities) == report.value_queries == f.query_count
    assert arities.count(2) > arities.count(1)  # most queries came with a base
    assert report.log.entries
