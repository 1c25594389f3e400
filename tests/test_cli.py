import json
import xml.etree.ElementTree as ET

import pytest

import twinopt as t
from twinopt import cli
from twinopt.objectives import load_edge_list, load_rr_sets

import helpers


def run_cli(args):
    return cli.main(args)


def test_gen_graph_er_zero_probability(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run_cli(["gen-graph", "--model", "er", "--n", "10", "--p", "0",
                    "--seed", "1", "--out", str(out)]) == 0
    graph = load_edge_list(out)
    assert graph.n_nodes == 10 and len(graph.edges) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["seed"] == 1 and str(out) in manifest["files"]


def test_gen_graph_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        run_cli(["gen-graph", "--model", "er", "--n", "30", "--p", "0.4",
                 "--weights", "0,1", "--groups", "3", "--seed", "7", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.parts").read_bytes() == (tmp_path / "b.txt.parts").read_bytes()


def test_gen_graph_ba_edge_count(tmp_path):
    out = tmp_path / "ba.txt"
    assert run_cli(["gen-graph", "--model", "ba", "--n", "100", "--m0", "2", "--m", "2",
                    "--seed", "3", "--out", str(out)]) == 0
    assert len(load_edge_list(out).edges) == 1 + 98 * 2


def test_gen_rrsets_edgeless_singletons(tmp_path):
    graph_path = tmp_path / "d.txt"
    graph_path.write_text("# nodes 5 directed 1\n")
    out = tmp_path / "rr.txt"
    assert run_cli(["gen-rrsets", "--graph", str(graph_path), "--count", "50",
                    "--seed", "2", "--out", str(out)]) == 0
    z = load_rr_sets(out)
    assert len(z.sets) == 50 and all(m.bit_count() == 1 for m in z.sets)


def test_gen_rrsets_deterministic_and_closed_form(tmp_path):
    graph_path = tmp_path / "d2.txt"
    graph_path.write_text("# nodes 2 directed 1\n0 1 0.5\n")
    a, b = tmp_path / "ra.txt", tmp_path / "rb.txt"
    for out in (a, b):
        run_cli(["gen-rrsets", "--graph", str(graph_path), "--count", "100000",
                 "--seed", "5", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()
    z = load_rr_sets(a)
    frac = sum(1 for m in z.sets if m == 0b11) / len(z.sets)
    assert abs(frac - 0.25) <= 0.01


def _write_modular_fixture(tmp_path):
    weights = tmp_path / "w.txt"
    weights.write_text("3.0\n2.0\n1.0\n")
    return weights


def test_run_modular_fixture_and_exact_agree(tmp_path, capsys):
    weights = _write_modular_fixture(tmp_path)
    out = tmp_path / "run.json"
    assert run_cli(["run", "--algo", "twin", "--objective", "modular",
                    "--weights-file", str(weights), "--constraint", "uniform:k=1",
                    "--out", str(out), "--no-timing"]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["f_star"] == 3.0 and payload["s_star"] == [0]

    out2 = tmp_path / "exact.json"
    assert run_cli(["run", "--algo", "exact", "--objective", "modular",
                    "--weights-file", str(weights), "--constraint", "uniform:k=1",
                    "--out", str(out2), "--no-timing"]) == 0
    capsys.readouterr()
    exact = json.loads(out2.read_text())
    assert exact["f_star"] == 3.0 and exact["s_star"] == payload["s_star"]


def test_run_twinfast_reports_within_query_budget(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    run_cli(["gen-graph", "--model", "er", "--n", "40", "--p", "0.3",
             "--weights", "0,1", "--seed", "9", "--out", str(graph_path)])
    out = tmp_path / "fast.json"
    assert run_cli(["run", "--algo", "twinfast", "--objective", "cut",
                    "--graph", str(graph_path), "--constraint", "partition:cap=3,h=2,seed=4",
                    "--epsilon", "0.1", "--out", str(out), "--no-timing"]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    r = payload["parameters"]["rank"]
    assert payload["value_queries"] <= helpers.fast_budget(40, r, 0.1)


def test_run_csv_row_schema(tmp_path, capsys):
    weights = _write_modular_fixture(tmp_path)
    csv_path = tmp_path / "rows.csv"
    run_cli(["run", "--algo", "greedy", "--objective", "modular",
             "--weights-file", str(weights), "--constraint", "uniform:k=2",
             "--csv", str(csv_path), "--no-timing"])
    capsys.readouterr()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "algo,axis,rep,utility,value_queries,independence_checks,wall_time_s,solution_size"
    fields = lines[1].split(",")
    assert fields[0] == "greedy" and float(fields[3]) == 5.0


def test_sweep_single_point_matches_run(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    run_cli(["gen-graph", "--model", "er", "--n", "25", "--p", "0.4",
             "--weights", "0,1", "--seed", "12", "--out", str(graph_path)])
    sweep_csv = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--axis", "k", "--values", "2", "--algos", "twin",
                    "--graph", str(graph_path), "--constraint", "partition:cap={k},h=2,seed=5",
                    "--out", str(sweep_csv), "--no-timing", "--seed", "1"]) == 0
    capsys.readouterr()
    run_json = tmp_path / "run.json"
    run_cli(["run", "--algo", "twin", "--objective", "cut", "--graph", str(graph_path),
             "--constraint", "partition:cap=2,h=2,seed=5", "--out", str(run_json),
             "--no-timing"])
    capsys.readouterr()
    payload = json.loads(run_json.read_text())
    row = sweep_csv.read_text().strip().splitlines()[1].split(",")
    assert float(row[3]) == payload["f_star"]
    assert int(row[4]) == payload["value_queries"]


def test_sweep_charts_are_valid_svg(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    run_cli(["gen-graph", "--model", "er", "--n", "25", "--p", "0.4",
             "--weights", "0,1", "--seed", "12", "--out", str(graph_path)])
    sweep_csv = tmp_path / "sweep.csv"
    prefix = str(tmp_path / "chart")
    run_cli(["sweep", "--axis", "k", "--values", "1,2,3", "--algos", "twin,twinfast",
             "--graph", str(graph_path), "--constraint", "partition:cap={k},h=2,seed=5",
             "--epsilon", "0.1", "--out", str(sweep_csv), "--svg", prefix,
             "--no-timing", "--seed", "1"])
    capsys.readouterr()
    for panel in ("queries", "time", "utility"):
        root = ET.parse(f"{prefix}_{panel}.svg").getroot()
        assert root.tag.endswith("svg")


def test_sweep_deterministic_byte_identical(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    run_cli(["gen-graph", "--model", "er", "--n", "20", "--p", "0.5",
             "--weights", "0,1", "--seed", "8", "--out", str(graph_path)])
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        run_cli(["sweep", "--axis", "k", "--values", "1,2", "--algos",
                 "twin,samplegreedy", "--graph", str(graph_path),
                 "--constraint", "partition:cap={k},h=2,seed=3", "--reps", "3",
                 "--out", str(out), "--no-timing", "--seed", "6"])
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_sweep_parallel_jobs_match_serial(tmp_path, capsys):
    graph_path = tmp_path / "g.txt"
    run_cli(["gen-graph", "--model", "er", "--n", "20", "--p", "0.5",
             "--weights", "0,1", "--seed", "2", "--out", str(graph_path)])
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    for out, jobs in ((serial, "1"), (parallel, "2")):
        run_cli(["sweep", "--axis", "k", "--values", "1,2", "--algos",
                 "twin,samplegreedy", "--graph", str(graph_path),
                 "--constraint", "partition:cap={k},h=2,seed=3", "--reps", "2",
                 "--jobs", jobs, "--out", str(out), "--no-timing", "--seed", "6"])
    capsys.readouterr()
    assert serial.read_bytes() == parallel.read_bytes()


def test_gen_rrsets_indegree_probs(tmp_path, capsys):
    graph_path = tmp_path / "d.txt"
    # node 2 has two in-edges, so each activates with probability 1/2
    graph_path.write_text("# nodes 3 directed 1\n0 2 1.0\n1 2 1.0\n")
    out = tmp_path / "rr.txt"
    assert run_cli(["gen-rrsets", "--graph", str(graph_path), "--count", "30000",
                    "--indegree-probs", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    z = load_rr_sets(out)
    # roots 0 and 1 have no in-edges; root 2 pulls in each tail w.p. 1/2
    with_zero = sum(1 for m in z.sets if (m >> 2) & 1 and (m >> 0) & 1)
    roots_two = sum(1 for m in z.sets if (m >> 2) & 1)
    assert abs(with_zero / roots_two - 0.5) < 0.02


def test_certify_command_exit_zero(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run_cli(["certify", "--instances", "10", "--n-max", "8", "--seed", "4",
                    "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["violations"] == 0 and payload["runs"] == 20


def test_certify_violation_exit_code(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise t.CertificationError("synthetic failure")

    monkeypatch.setattr(cli.certify_mod, "certify_run", broken)
    code = run_cli(["certify", "--instances", "2", "--n-max", "6", "--seed", "1"])
    capsys.readouterr()
    assert code == cli.EXIT_CERT == 3


def test_missing_file_exit_code(capsys):
    code = run_cli(["run", "--algo", "twin", "--objective", "cut",
                    "--graph", "no-such-file.txt", "--constraint", "uniform:k=2"])
    capsys.readouterr()
    assert code == cli.EXIT_IO == 4


def test_bad_constraint_spec_exit_code(tmp_path, capsys):
    weights = _write_modular_fixture(tmp_path)
    code = run_cli(["run", "--algo", "twin", "--objective", "modular",
                    "--weights-file", str(weights), "--constraint", "mystery:z=1"])
    capsys.readouterr()
    assert code == cli.EXIT_USAGE == 2


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--algo", "twin"])
    assert exc.value.code == 2


def test_master_seed_env_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TWINOPT_SEED", "123")
    out = tmp_path / "g.txt"
    run_cli(["gen-graph", "--model", "er", "--n", "8", "--p", "0.5", "--out", str(out)])
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["seed"] == 123


def test_constraint_spec_parsing(tmp_path):
    assert isinstance(cli.parse_constraint_spec("uniform:k=2", 5), t.UniformMatroid)
    seed_oracle = cli.parse_constraint_spec("seedmatroid:v=3,m=2,k=2", 6)
    assert isinstance(seed_oracle, t.SeedMatroid)
    psys = cli.parse_constraint_spec("psystem:p=2,cap=1,h=2,seed=3", 6)
    assert isinstance(psys, t.IntersectionSystem) and psys.p == 2
    with pytest.raises(cli.UsageError):
        cli.parse_constraint_spec("seedmatroid:v=3,m=2,k=2", 5)
    with pytest.raises(cli.UsageError):
        cli.parse_constraint_spec("uniform", 5)


def test_marketing_run_via_cli(tmp_path, capsys):
    graph_path = tmp_path / "dg.txt"
    graph_path.write_text("# nodes 4 directed 1\n0 1 0.6\n1 2 0.5\n2 3 0.4\n")
    rr1, rr2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    for out, seed in ((rr1, 1), (rr2, 2)):
        run_cli(["gen-rrsets", "--graph", str(graph_path), "--count", "200",
                 "--seed", str(seed), "--out", str(out)])
    costs = tmp_path / "c.txt"
    costs.write_text("0 0.5\n1 0.5\n2 0.5\n3 0.5\n")
    out = tmp_path / "mk.json"
    assert run_cli(["run", "--algo", "twinfast", "--objective", "marketing",
                    "--rrsets", f"{rr1},{rr2}", "--costs", str(costs),
                    "--constraint", "seedmatroid:v=4,m=2,k=2", "--epsilon", "0.1",
                    "--out", str(out), "--no-timing"]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["f_star"] > 0
    assert payload["solution_size"] <= 2


GRAPH_60 = "# nodes 60 directed 0\n0 1 0.5\n2 3 0.25\n"


@pytest.mark.parametrize("graph_text, argv", [
    (GRAPH_60, ["run", "--algo", "twinfast", "--epsilon", "2"]),
    (GRAPH_60, ["run", "--algo", "samplegreedy", "--q", "0"]),
    ("0 1\n", ["run", "--algo", "twin"]),
    ("0 1 -1.0\n", ["run", "--algo", "twin"]),
    (GRAPH_60, ["run", "--algo", "exact"]),
    (GRAPH_60, ["sweep", "--axis", "k", "--values", "2", "--algos", "twinfast",
                "--epsilon", "5"]),
    (None, ["certify", "--instances", "2", "--n-max", "6", "--epsilon", "5"]),
], ids=["run-epsilon", "run-q", "edge-missing-weight", "edge-negative-weight",
        "exact-too-large", "sweep-epsilon", "certify-epsilon"])
def test_bad_input_exits_two_without_traceback(tmp_path, capsys, graph_text, argv):
    if graph_text is not None:
        graph_path = tmp_path / "g.txt"
        graph_path.write_text(graph_text)
        argv = argv + ["--graph", str(graph_path), "--constraint", "uniform:k=2"]
        argv += ["--objective", "cut"] if argv[0] == "run" else ["--out", str(tmp_path / "s.csv")]
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
