"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time

import twinopt as t
from twinopt import cli

import helpers

TOL = 1e-9

# criteria 1-3 stash their reports here; criterion 5 audits every one of them
_REPORTS: list[tuple[int, "t.RunReport"]] = []


def _criterion(num, description, ok):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def _ratio_instances():
    for seed in range(50):
        for n in (6, 7, 8, 9, 10):
            for rep in (0, 1):
                yield n, seed * 1000 + n * 10 + rep


def test_criterion_01_ratio_guarantee_matroid():
    t0 = time.perf_counter()
    count = 0
    ok = True
    for n, seed in _ratio_instances():
        graph, ground, oracle, constraint = helpers.cut_instance(n, seed=seed)
        opt = t.exact_max(oracle(), constraint(), ground)
        twin = t.twin_greedy(oracle(), constraint(), ground)
        fast = t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)
        _REPORTS.append((n, twin))
        _REPORTS.append((n, fast))
        ok &= twin.f_star >= 0.25 * opt.value - TOL
        ok &= fast.f_star >= 0.15 * opt.value - TOL
        count += 1
    elapsed = time.perf_counter() - t0
    ok &= count >= 500 and elapsed < 120
    _criterion(1, f"matroid ratios over {count} instances in {elapsed:.1f}s", ok)


def test_criterion_02_ratio_guarantee_two_matroid_intersection():
    ok = True
    count = 0
    for n, seed in _ratio_instances():
        graph, ground, oracle, constraint = helpers.psystem_instance(n, seed=seed, p=2)
        opt = t.exact_max(oracle(), constraint(), ground)
        fast = t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)
        _REPORTS.append((n, fast))
        ok &= fast.f_star >= (1.0 / 6.0 - 0.1) * opt.value - TOL
        count += 1
    ok &= count >= 500
    _criterion(2, f"p=2 intersection ratio over {count} instances", ok)


def test_criterion_03_monotone_rediscovery():
    ok = True
    count = 0
    for idx in range(120):
        ground, oracle, constraint = helpers.coverage_instance(8, seed=40000 + idx)
        opt = t.exact_max(oracle(), constraint(), ground)
        twin = t.twin_greedy(oracle(), constraint(), ground)
        _REPORTS.append((ground.n, twin))
        ok &= twin.f_star >= 0.5 * opt.value - TOL
        count += 1
    rng = random.Random(41)
    for idx in range(120):
        n = 8
        weights = [rng.uniform(0.0, 1.0) for _ in range(n)]
        ground = t.GroundSet(n)
        parts = t.assign_groups(n, 2, 41000 + idx)
        opt = t.exact_max(t.ModularObjective(weights), t.PartitionMatroid(parts, 2), ground)
        twin = t.twin_greedy(t.ModularObjective(weights), t.PartitionMatroid(parts, 2), ground)
        _REPORTS.append((n, twin))
        ok &= twin.f_star >= 0.5 * opt.value - TOL
        count += 1
    ok &= count >= 200
    _criterion(3, f"monotone 1/2 ratio over {count} instances", ok)


def test_criterion_04_certification_suite(tmp_path, capsys):
    out = tmp_path / "cert_matroid.json"
    code_matroid = cli.main(["certify", "--instances", "200", "--n-max", "10",
                             "--constraint", "matroid", "--epsilon", "0.1",
                             "--algo", "both", "--seed", "17", "--out", str(out)])
    payload = json.loads(out.read_text())
    out_p = tmp_path / "cert_psystem.json"
    code_psystem = cli.main(["certify", "--instances", "60", "--n-max", "10",
                             "--constraint", "psystem", "--p", "2", "--epsilon", "0.1",
                             "--algo", "twinfast", "--seed", "19", "--out", str(out_p)])
    payload_p = json.loads(out_p.read_text())
    capsys.readouterr()
    ok = (code_matroid == 0 and code_psystem == 0
          and payload["violations"] == 0 and payload["runs"] == 400
          and payload_p["violations"] == 0)
    _criterion(4, "certification pipeline, 200 runs per solver plus p=2 batch, exit 0", ok)


def test_criterion_05_query_budget_exactness():
    reports = list(_REPORTS)
    if not reports:  # standalone execution: build a fresh batch
        for n, seed in list(_ratio_instances())[:200]:
            graph, ground, oracle, constraint = helpers.cut_instance(n, seed=seed)
            reports.append((n, t.twin_greedy(oracle(), constraint(), ground)))
            reports.append((n, t.twin_greedy_fast(oracle(), constraint(), ground, 0.1)))
    ok = True
    audited = 0
    for n, report in reports:
        if report.algorithm == "twin_greedy":
            budget = helpers.twin_budget(n, report.s1.bit_count(), report.s2.bit_count())
            ok &= report.value_queries <= budget
            audited += 1
        elif report.algorithm == "twin_greedy_fast":
            r = report.parameters.get("rank")
            if r:
                eps = report.parameters["epsilon"]
                ok &= report.value_queries <= helpers.fast_budget(n, r, eps)
            audited += 1
    _criterion(5, f"query budgets on all {audited} collected runs", ok)


def test_criterion_06_rr_estimator_unbiasedness():
    t0 = time.perf_counter()
    graph = t.WeightedGraph(6, [
        (0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.4), (3, 4, 0.7), (4, 5, 0.3),
        (5, 0, 0.5), (0, 2, 0.35), (2, 4, 0.45), (1, 4, 0.25), (3, 0, 0.55),
        (5, 2, 0.4), (1, 5, 0.3),
    ], directed=True)
    rng = random.Random(23)
    seed_sets = [t.bitmask(rng.sample(range(6), rng.randint(1, 3))) for _ in range(10)]
    collections = [t.gen_rr_sets(graph, 5000, seed=900 + s) for s in range(20)]
    ok = True
    for seeds in seed_sets:
        exact = t.ic_exact_spread(graph, seeds)
        mean = sum(t.rr_estimate(z, seeds) for z in collections) / len(collections)
        ok &= abs(mean - exact) <= 0.02 * exact
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30
    _criterion(6, f"estimator within 2% of exact spread on 10 seed sets ({elapsed:.1f}s)", ok)


def test_criterion_07_structure_validators():
    ok = True
    for v in (2, 3, 4):
        for m in (2, 3):
            for k in (2, 3):
                good, witness = t.verify_matroid(t.SeedMatroid(v, m, k),
                                                 t.GroundSet(v * m), exhaustive=True)
                ok &= good
    graph = t.WeightedGraph(5, [(0, 1, 0.5), (1, 2, 0.4), (3, 4, 0.6), (2, 3, 0.5)],
                            directed=True)
    collections = [t.gen_rr_sets(graph, 60, seed=s) for s in (31, 32)]
    f = t.MarketingObjective(collections, [0.4, 0.7, 0.2, 0.9, 0.5])
    ground = t.GroundSet(10)
    good, witness = t.submodularity_check(f, ground, trials=300, seed=7)
    ok &= good
    # the empty-set seam: partition inequality anchored at X = empty
    rng = random.Random(9)
    for _ in range(100):
        y = rng.getrandbits(10)
        rest = t.members(y)
        rng.shuffle(rest)
        parts = [0, 0]
        for i, e in enumerate(rest):
            parts[i % 2] |= 1 << e
        lhs = f.evaluate(y) - f.evaluate(0)
        rhs = sum(f.evaluate(z) - f.evaluate(0) for z in parts if z)
        ok &= lhs <= rhs + TOL
    _criterion(7, "seed matroid exchange property and marketing submodularity", ok)


def test_criterion_08_efficiency_trend():
    t0 = time.perf_counter()
    _, ground, constraint, runs = helpers.criterion_8()
    assert t.rank(constraint(), ground) >= 250
    fast, sample, twin, greedy = (runs[name] for name in
                                  ("twinfast", "samplegreedy", "twin", "greedy"))
    _REPORTS.append((1000, fast))
    _REPORTS.append((1000, twin))
    elapsed = time.perf_counter() - t0
    query_ratio = fast.value_queries / sample.value_queries
    best = max(r.f_star for r in (fast, sample, twin, greedy))
    ok = (query_ratio < 0.10 and fast.f_star >= 0.95 * best and elapsed < 300)
    _criterion(8, f"queries ratio {query_ratio:.3f} < 0.1, utility within 5% "
                  f"of best ({elapsed:.0f}s)", ok)


def test_criterion_09_epsilon_sensitivity_trend():
    graph = t.assign_weights_uniform(t.gen_ba(2000, 20, 20, 11), 0.0, 1.0, 12)
    ground = t.GroundSet(2000)
    parts = t.assign_groups(2000, 5, 13)
    eps_grid = [0.2, 0.1, 0.05, 0.02, 0.01, 0.005]
    utilities = []
    for eps in eps_grid:
        report = t.twin_greedy_fast(t.CutMonitorObjective(graph),
                                    t.PartitionMatroid(parts, 100), ground, eps)
        _REPORTS.append((2000, report))
        utilities.append(report.f_star)
    spread = (max(utilities) - min(utilities)) / max(utilities)
    monotone = all(utilities[i + 1] >= 0.99 * utilities[i]
                   for i in range(len(utilities) - 1))
    ok = spread < 0.10 and monotone
    _criterion(9, f"utility spread {spread:.4f} < 0.1 and non-increasing in epsilon "
                  f"(1% noise)", ok)


def test_criterion_10_determinism_byte_identical(tmp_path, capsys):
    ok = True
    # generation pipelines
    g1, g2 = tmp_path / "g1.txt", tmp_path / "g2.txt"
    for out in (g1, g2):
        cli.main(["gen-graph", "--model", "er", "--n", "40", "--p", "0.3",
                  "--weights", "0,1", "--groups", "2", "--seed", "5", "--out", str(out)])
    ok &= g1.read_bytes() == g2.read_bytes()
    ok &= (tmp_path / "g1.txt.parts").read_bytes() == (tmp_path / "g2.txt.parts").read_bytes()

    dg = tmp_path / "d.txt"
    dg.write_text("# nodes 3 directed 1\n0 1 0.5\n1 2 0.5\n")
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    for out in (r1, r2):
        cli.main(["gen-rrsets", "--graph", str(dg), "--count", "500", "--seed", "3",
                  "--out", str(out)])
    ok &= r1.read_bytes() == r2.read_bytes()

    # solver and sweep pipelines with timing suppressed
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (j1, j2):
        cli.main(["run", "--algo", "twinfast", "--objective", "cut", "--graph", str(g1),
                  "--constraint", "partition:cap=2,parts=" + str(tmp_path / "g1.txt.parts"),
                  "--epsilon", "0.1", "--out", str(out), "--no-timing"])
    ok &= j1.read_bytes() == j2.read_bytes()

    c1, c2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (c1, c2):
        cli.main(["sweep", "--axis", "k", "--values", "1,2", "--algos",
                  "twin,twinfast,samplegreedy", "--graph", str(g1),
                  "--constraint", "partition:cap={k},h=2,seed=4", "--epsilon", "0.1",
                  "--reps", "2", "--seed", "9", "--out", str(out), "--no-timing"])
    ok &= c1.read_bytes() == c2.read_bytes()
    capsys.readouterr()
    _criterion(10, "byte-identical artifacts across repeated invocations", ok)
