import hashlib
import json
from collections import Counter

import pytest

import twinopt as t
from twinopt.certify import (
    check_log_gains,
    check_pi_properties,
    check_residuals,
)

import helpers


def test_classify_optimal_equals_side_one():
    report = helpers.log_report(4, [(0, 1, 2.0), (2, 1, 1.0)])
    constraint = t.UniformMatroid(4, 2)
    classes = t.classify(report, optimal=0b0101, constraint=constraint)
    assert classes.o1_plus | classes.o1_minus == 0b0101
    assert (classes.o2_plus | classes.o2_minus | classes.o3 | classes.o4
            | classes.o5 | classes.o6) == 0


def test_classify_disjoint_optimal_addable_everywhere():
    report = helpers.log_report(6, [(0, 1, 1.0), (1, 2, 1.0)])
    constraint = t.UniformMatroid(6, 3)
    classes = t.classify(report, optimal=0b110000, constraint=constraint)
    assert classes.o3 == 0 and classes.o4 == 0
    assert classes.o5 == 0b110000 and classes.o6 == 0b110000


def test_classify_matches_independent_recomputation():
    # second implementation: explicit prefix rescan over the replayed order
    for idx in range(40):
        n = 6 + idx % 4
        graph, ground, oracle, constraint = helpers.cut_instance(n, seed=9900 + idx)
        report = t.twin_greedy(oracle(), constraint(), ground)
        opt = t.exact_max(oracle(), constraint(), ground)
        classes = t.classify(report, opt.solution, constraint())

        check = constraint()
        order = [(ent.element, ent.side) for ent in report.log.entries]
        s1, s2 = report.s1, report.s2
        expect = {k: 0 for k in ("o1p", "o1m", "o2p", "o2m", "o3", "o4")}
        for e in t.members(opt.solution):
            if (s1 >> e) & 1 or (s2 >> e) & 1:
                own_side = 1 if (s1 >> e) & 1 else 2
                other = 2 if own_side == 1 else 1
                pre_other = 0
                for elem, side in order:
                    if elem == e:
                        break
                    if side == other:
                        pre_other |= 1 << elem
                fits = check.is_independent(pre_other | (1 << e))
                key = f"o{own_side}{'p' if fits else 'm'}"
                expect[key] |= 1 << e
            else:
                if not check.is_independent(s1 | (1 << e)):
                    expect["o3"] |= 1 << e
                if not check.is_independent(s2 | (1 << e)):
                    expect["o4"] |= 1 << e
        assert (classes.o1_plus, classes.o1_minus) == (expect["o1p"], expect["o1m"])
        assert (classes.o2_plus, classes.o2_minus) == (expect["o2p"], expect["o2m"])
        assert (classes.o3, classes.o4) == (expect["o3"], expect["o4"])


def test_build_pi_identity_when_optimal_is_side_one():
    report = helpers.log_report(5, [(1, 1, 3.0), (3, 1, 2.0)])
    constraint = t.UniformMatroid(5, 2)
    classes = t.classify(report, optimal=0b01010, constraint=constraint)
    pi = t.build_pi(report, classes, constraint, p=1)
    assert pi.pi1 == {1: 1, 3: 3}
    assert pi.pi2 == {}


def test_build_pi_empty_optimal():
    report = helpers.log_report(3, [(0, 1, 1.0)])
    classes = t.classify(report, optimal=0, constraint=t.UniformMatroid(3, 1))
    pi = t.build_pi(report, classes, t.UniformMatroid(3, 1), p=1)
    assert pi.pi1 == {} and pi.pi2 == {}


def test_build_pi_completes_and_respects_preimage_caps():
    for idx in range(100):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.cut_instance(n, seed=11000 + idx)
        report = t.twin_greedy(oracle(), constraint(), ground)
        opt = t.exact_max(oracle(), constraint(), ground)
        classes = t.classify(report, opt.solution, constraint())
        pi = t.build_pi(report, classes, constraint(), p=1)
        for mapping in (pi.pi1, pi.pi2):
            counts = Counter(mapping.values())
            assert all(c == 1 for c in counts.values())  # injective at p=1
    for idx in range(100):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.psystem_instance(n, seed=12000 + idx)
        report = t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)
        opt = t.exact_max(oracle(), constraint(), ground)
        classes = t.classify(report, opt.solution, constraint())
        pi = t.build_pi(report, classes, constraint(), p=2)
        for mapping in (pi.pi1, pi.pi2):
            assert max(Counter(mapping.values()).values(), default=0) <= 2


def test_charging_maps_and_certificates_at_p3():
    # an intersection of three partition matroids: the sweep may charge up
    # to three optimal elements to one side element
    for idx in range(40):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.psystem_instance(n, seed=12500 + idx, p=3)
        f, c = oracle(), constraint()
        opt = t.exact_max(f, c, ground)
        for report in (t.twin_greedy(f, c, ground), t.twin_greedy_fast(f, c, ground, 0.1)):
            classes = t.classify(report, opt.solution, c)
            pi = t.build_pi(report, classes, c, p=3)
            for mapping in (pi.pi1, pi.pi2):
                assert max(Counter(mapping.values()).values(), default=0) <= 3
            cert = t.certify_run(f, c, report, opt.solution, opt.value, p=3)
            assert cert.ok, cert.to_dict()


def test_pi_structural_properties_hold():
    for idx in range(60):
        n = 6 + idx % 5
        graph, ground, oracle, constraint = helpers.cut_instance(n, seed=13000 + idx)
        report = t.twin_greedy(oracle(), constraint(), ground)
        opt = t.exact_max(oracle(), constraint(), ground)
        classes = t.classify(report, opt.solution, constraint())
        pi = t.build_pi(report, classes, constraint(), p=1)
        results = check_pi_properties(report, classes, pi, constraint(), p=1)
        assert all(ok for _, ok in results), results


def test_pi_feasibility_holds_for_an_element_already_in_the_prefix():
    # e = 0 lies in the prefix {0} of its target 1; that prefix is
    # independent, so e is feasible there although the state of {0} cannot
    # take 0 again (part 0 is full)
    report = helpers.log_report(3, [(0, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0)])
    pi = t.PiMapping(pi1={0: 1}, pi2={})
    results = dict(check_pi_properties(report, t.ClassifiedOptimal(o1_plus=0b1), pi,
                                       t.PartitionMatroid([0, 1, 0], cap=1)))
    assert results["pi1_feasible_at_target"] and results["pi2_feasible_at_target"]


def test_pi_target_outside_its_side_is_reported_not_raised():
    # target 1 is on neither side: it has no insertion moment to be feasible at
    report = helpers.log_report(4, [(0, 1, 1.0), (2, 2, 1.0)])
    results = dict(check_pi_properties(report, t.ClassifiedOptimal(o3=0b1000),
                                       t.PiMapping(pi1={3: 1}), t.UniformMatroid(4, 2)))
    assert not results["pi1_targets"] and not results["pi1_feasible_at_target"]
    assert results["pi1_domain"] and results["pi2_targets"]


def test_gain_bounds_trivial_when_optimal_empty():
    constraint = t.UniformMatroid(2, 1)
    f = t.ModularObjective([1.0, 1.0])
    report = t.twin_greedy(f, constraint, t.GroundSet(2))
    classes = t.classify(report, optimal=0, constraint=constraint)
    pi = t.build_pi(report, classes, constraint, p=1)
    records = t.check_gain_bounds(f, report, classes, pi)
    assert all(r.holds and r.lhs == 0.0 and r.rhs == 0.0 for r in records)


def test_gain_bounds_hold_for_twin_greedy_runs():
    for idx in range(60):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.cut_instance(n, seed=14000 + idx)
        f = oracle()
        report = t.twin_greedy(f, constraint(), ground)
        opt = t.exact_max(oracle(), constraint(), ground)
        classes = t.classify(report, opt.solution, constraint())
        pi = t.build_pi(report, classes, constraint(), p=1)
        records = t.check_gain_bounds(f, report, classes, pi)
        assert all(r.holds for r in records), [r.to_dict() for r in records]


def test_gain_bounds_hold_for_thresholded_runs():
    for idx in range(60):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.cut_instance(n, seed=15000 + idx)
        f = oracle()
        report = t.twin_greedy_fast(f, constraint(), ground, 0.1)
        opt = t.exact_max(oracle(), constraint(), ground)
        classes = t.classify(report, opt.solution, constraint())
        pi = t.build_pi(report, classes, constraint(), p=1)
        records = t.check_gain_bounds(f, report, classes, pi)
        assert all(r.holds for r in records), [r.to_dict() for r in records]


def test_residuals_and_global_bounds():
    for idx in range(60):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.cut_instance(n, seed=16000 + idx)
        f = oracle()
        report = t.twin_greedy(f, constraint(), ground)
        opt = t.exact_max(oracle(), constraint(), ground)
        classes = t.classify(report, opt.solution, constraint())
        residuals = check_residuals(f, report, classes)
        assert all(r.holds for r in residuals)
        combined, ratio, _ = t.check_global_bound(report, opt.value)
        assert combined.holds and ratio.holds


def test_global_bound_trivial_when_solver_found_optimum():
    ground = t.GroundSet(3)
    f = t.ModularObjective([3.0, 2.0, 1.0])
    constraint = t.UniformMatroid(3, 1)
    report = t.twin_greedy(f, constraint, ground)
    opt = t.exact_max(t.ModularObjective([3.0, 2.0, 1.0]), t.UniformMatroid(3, 1), ground)
    assert report.f_star == opt.value
    combined, ratio, _ = t.check_global_bound(report, opt.value)
    assert combined.holds and ratio.holds


def test_degenerate_lone_side_check():
    ground = t.GroundSet(1)
    f = t.ModularObjective([5.0])
    report = t.twin_greedy(f, t.UniformMatroid(1, 1), ground)
    _, _, degenerate = t.check_global_bound(report, 5.0)
    assert degenerate is not None and degenerate.holds


def test_degenerate_lone_side_thresholded_run():
    # side 2 stays empty, so the lone side must reach (1 - eps) of optimal
    ground = t.GroundSet(1)
    f = t.ModularObjective([5.0])
    c = t.UniformMatroid(1, 1)
    report = t.twin_greedy_fast(f, c, ground, 0.1)
    assert report.s2 == 0 and report.s1 == 0b1
    cert = t.certify_run(f, c, report, 0b1, 5.0, p=1)
    assert cert.degenerate_check is not None and cert.degenerate_check.holds
    assert cert.ok


def test_certify_run_end_to_end_and_query_budget():
    for idx in range(80):
        n = 5 + idx % 6
        graph, ground, oracle, constraint = helpers.cut_instance(n, seed=17000 + idx)
        for algo in ("twin", "fast"):
            f = oracle()
            c = constraint()
            if algo == "twin":
                report = t.twin_greedy(f, c, ground)
            else:
                report = t.twin_greedy_fast(f, c, ground, 0.1)
            opt = t.exact_max(oracle(), constraint(), ground)
            cert = t.certify_run(f, c, report, opt.solution, opt.value, p=1)
            assert cert.ok, cert.to_dict()
            budget = 4 * (opt.solution.bit_count() + report.s1.bit_count()
                          + report.s2.bit_count()) + 6
            assert cert.value_queries_used <= budget


def test_certify_detects_violations_from_wrong_p():
    # a two-matroid intersection certified as a matroid must eventually fail
    raised_or_failed = 0
    for idx in range(40):
        n = 6 + idx % 4
        graph, ground, oracle, constraint = helpers.psystem_instance(n, seed=18000 + idx)
        f = oracle()
        c = constraint()
        report = t.twin_greedy_fast(f, c, ground, 0.1)
        opt = t.exact_max(oracle(), constraint(), ground)
        try:
            cert = t.certify_run(f, c, report, opt.solution, opt.value, p=1)
            if not cert.ok:
                raised_or_failed += 1
        except t.CertificationError:
            raised_or_failed += 1
    assert raised_or_failed > 0


def test_certify_run_rejects_an_optimal_set_larger_than_p_times_rank():
    # two partition matroids on {0, 1, 2}: the id-order greedy base is {0},
    # a base of size 1, while {1, 2} is independent too, so p must be >= 2
    ground = t.GroundSet(3)
    c = t.IntersectionSystem([t.PartitionMatroid([0, 0, 1], 1),
                              t.PartitionMatroid([0, 1, 0], 1)])
    assert t.rank(c, ground) == 1 and c.is_independent(0b110)
    f = t.ModularObjective([1.0, 1.0, 1.0])
    report = t.twin_greedy(f, c, ground)
    with pytest.raises(t.CertificationError, match="p \\* rank = 1 \\* 1"):
        t.certify_run(f, c, report, 0b110, 2.0, p=1)
    assert t.certify_run(f, c, report, 0b110, 2.0, p=2).ok


def test_certify_run_rejects_a_side_that_is_not_independent():
    # side 1 = {0, 1} puts two elements into part 0 of cap 1; the values
    # alone would certify this report
    c = t.PartitionMatroid([0, 0, 1, 1], cap=1)
    report = helpers.log_report(4, [(0, 1, 1.0), (2, 2, 1.0), (1, 1, 1.0)])
    f = t.ModularObjective([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(t.CertificationError, match="side 1 is not independent"):
        t.certify_run(f, c, report, 0b0101, 2.0)


# sha256 of each certificate's `to_dict()` as sorted JSON, as the set-wise
# certifier gave them: the criterion-8 twin and twinfast runs against the
# classic and sample greedy solutions as witness sets O
CRITERION_8_CERTIFICATE_SHA256 = {
    ("twin", "greedy"): "181d5b6f14aec6140817f4155c5450784bd53b71aef4340b7b696d3c45b0060d",
    ("twin", "samplegreedy"): "d58dccbad49e3094cbdb276d5b5fefbbb4ed53280544ed3f7f29d2a17cdee9db",
    ("twinfast", "greedy"): "71bbcc918714ed613a745d66e095b1ae2645f268f230c61e4295ab8c7f8a4ec8",
    ("twinfast", "samplegreedy"):
        "8fe35411aebb523c7e93d44b5016c94c6e7ff214def4c85aa6e6947687a91c44",
}


@pytest.mark.parametrize("solver,witness", CRITERION_8_CERTIFICATE_SHA256)
def test_certify_criterion_8_against_greedy_witnesses(solver, witness):
    graph, _, constraint, runs = helpers.criterion_8()
    o = runs[witness]
    cert = t.certify_run(t.CutMonitorObjective(graph), constraint(), runs[solver], o.s_star,
                         o.f_star)
    assert cert.ok
    digest = hashlib.sha256(json.dumps(cert.to_dict(), sort_keys=True).encode()).hexdigest()
    assert digest == CRITERION_8_CERTIFICATE_SHA256[solver, witness]


def _drop_first(log):
    del log.entries[0]


def _drop_last(log):
    del log.entries[-1]


def _insert_twice(log):
    first = log.entries[0]
    log.append(first.element, 3 - first.side, first.gain)  # now on both sides


def _id_below_zero(log):
    log.entries[-1].element = -1


def _gain_nan(log):
    log.entries[-1].gain = float("nan")


@pytest.mark.parametrize("corrupt", [_drop_first, _drop_last, _insert_twice, _id_below_zero,
                                     _gain_nan],
                         ids=["entry-dropped-first", "entry-dropped-last", "inserted-twice",
                              "id-below-zero", "gain-nan"])
def test_certify_run_rejects_a_log_that_does_not_replay(corrupt):
    graph, ground, oracle, constraint = helpers.cut_instance(8, seed=19200)
    f, c = oracle(), constraint()
    opt = t.exact_max(f, c, ground)
    for report in (t.twin_greedy(f, c, ground), t.twin_greedy_fast(f, c, ground, 0.1)):
        assert t.certify_run(f, c, report, opt.solution, opt.value).ok
        corrupt(report.log)
        with pytest.raises(t.CertificationError):
            t.certify_run(f, c, report, opt.solution, opt.value)


def test_certify_run_rejects_a_log_id_past_n():
    # the sides replay from the log, so only the id check stands before is_independent
    report = helpers.log_report(8, [(0, 1, 1.0), (50, 2, 1.0)])
    with pytest.raises(t.CertificationError,
                       match="malformed insertion log: element 50 outside the ground set of size 8"):
        t.certify_run(t.ModularObjective([1.0] * 8), t.UniformMatroid(8, 2), report, 0b1, 1.0)


def test_log_gain_replay_check():
    graph, ground, oracle, constraint = helpers.cut_instance(8, seed=19000)
    f = oracle()
    report = t.twin_greedy(f, constraint(), ground)
    record = check_log_gains(f, report.log)
    assert record.holds
    assert report.log.entries
    first = report.log.entries[0]
    first.gain += 1.0
    assert not check_log_gains(f, report.log).holds
    first.gain = float("nan")  # a NaN difference is the worst, not one that max() skips
    record = check_log_gains(f, report.log)
    assert record.lhs != record.lhs and not record.holds


def test_certification_report_serializes():
    graph, ground, oracle, constraint = helpers.cut_instance(7, seed=19500)
    f = oracle()
    c = constraint()
    report = t.twin_greedy_fast(f, c, ground, 0.1)
    opt = t.exact_max(oracle(), constraint(), ground)
    cert = t.certify_run(f, c, report, opt.solution, opt.value, p=1)
    payload = cert.to_dict()
    assert payload["ok"] is True
    assert (payload["variant"], payload["epsilon"]) == ("threshold", 0.1)
    assert "pi_preimage_histogram" in payload
    assert len(payload["inequalities"]) == 6
