import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinopt as t
import twinopt.core as core
from twinopt import cli
from twinopt.constraints import load_partition
from twinopt.core import MAX_HEADER_COUNT
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


def test_python_dash_m_twinopt_runs_end_to_end(tmp_path):
    """The documented entry point in a fresh interpreter: `python -m
    twinopt gen-graph`, then `run` on the file it wrote."""
    src = os.path.dirname(os.path.dirname(t.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def twinopt(*argv):
        done = subprocess.run([sys.executable, "-m", "twinopt", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    manifest = twinopt("gen-graph", "--model", "er", "--n", "20", "--p", "0.3", "--seed", "1",
                       "--out", "g.txt")
    report = twinopt("run", "--algo", "twin", "--objective", "cut", "--graph", "g.txt",
                     "--constraint", "uniform:k=4", "--no-timing")
    assert report["input_hashes"]["g.txt"] == manifest["files"]["g.txt"]["sha256"]
    assert report["algorithm"] == "twin_greedy" and report["n"] == 20
    assert report["wall_time_s"] == 0.0 and 0 < report["solution_size"] <= 4
    f = t.CutMonitorObjective(load_edge_list(tmp_path / "g.txt"))
    assert report["f_star"] == f.evaluate(t.bitmask(report["s_star"])) > 0


# sha256 of the graph and parts files of `gen-graph --model er --n 30
# --p 0.4 --weights 0,1 --groups 3 --seed 7`, recorded when the generators
# still built their edges and groups one NumPy scalar at a time.
GEN_GRAPH_SHA256 = ("589e94391a451e4fed271419897815e4f7b9400a05870210f0e2dbee8a314231",
                    "fffa35cd9b4f2c498f9a0dad6660a5fd52a152d17e277aa32f64799ab35e475c")


def test_gen_graph_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        run_cli(["gen-graph", "--model", "er", "--n", "30", "--p", "0.4",
                 "--weights", "0,1", "--groups", "3", "--seed", "7", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.txt.parts").read_bytes() == (tmp_path / "b.txt.parts").read_bytes()
    assert (hashlib.sha256(a.read_bytes()).hexdigest(),
            hashlib.sha256((tmp_path / "a.txt.parts").read_bytes()).hexdigest()) == GEN_GRAPH_SHA256


# sha256 of the graph file of `gen-graph --model ba --n 300 --m0 5 --m 3
# --seed 4`, recorded when `gen_ba` drew each attachment with one scalar
# `rng.integers` call.
GEN_BA_SHA256 = "6a0fafd83ab24ea33cb8019bc170e5eefe36fa180ffa7fcf4048367561444041"


def test_gen_graph_ba_output_is_pinned(tmp_path, capsys):
    out = tmp_path / "ba.txt"
    assert run_cli(["gen-graph", "--model", "ba", "--n", "300", "--m0", "5", "--m", "3",
                    "--seed", "4", "--out", str(out)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GEN_BA_SHA256
    assert manifest["files"] == {str(out): {"sha256": GEN_BA_SHA256, "bytes": 9414}}


# sha256 of the graph and parts files of the criterion-8 instance, `gen-graph
# --model er --n 1000 --p 0.1 --weights 0,1 --groups 5 --seed 42`, recorded
# when every input file was read line by line.
CRITERION_8_SHA256 = ("ef2f3af1d04492f5ccfcc8679d29baaa151677db2cda3b88831b9b0878fe8d5b",
                      "06919a194725952e79d1cd8c6da4e71d6d9ba5529f220bf831e091664196c8c4")


def test_criterion_8_graph_loads_alike_through_both_readers(tmp_path):
    out = tmp_path / "er1000.txt"
    assert run_cli(["gen-graph", "--model", "er", "--n", "1000", "--p", "0.1", "--weights", "0,1",
                    "--groups", "5", "--seed", "42", "--out", str(out)]) == 0
    parts = tmp_path / "er1000.txt.parts"
    assert (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(parts.read_bytes()).hexdigest()) == CRITERION_8_SHA256
    with mock.patch.object(core, "read_rows", wraps=core.read_rows) as per_line:
        graph, part_of = load_edge_list(out), load_partition(parts)
    assert not per_line.called  # both read in bulk
    with mock.patch.object(core, "_BULK_MIN_BYTES", math.inf):
        assert load_edge_list(out) == graph and load_partition(parts) == part_of
    assert (graph.n_nodes, len(graph.edges), len(part_of)) == (1000, 49929, 1000)


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


@pytest.mark.parametrize("cpus, workers", [(8, 3), (2, 2), (None, None)])
def test_sweep_jobs_start_no_more_workers_than_cells_or_cpus(tmp_path, monkeypatch, capsys,
                                                              cpus, workers):
    # the pool is replaced by one that runs the cells in this process, so
    # --jobs 1000000 starts no process; the request must still shrink to
    # the 3 cells and the CPU count before it reaches the pool
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    graph_path = tmp_path / "g.txt"
    run_cli(["gen-graph", "--model", "er", "--n", "20", "--p", "0.5",
             "--weights", "0,1", "--seed", "2", "--out", str(graph_path)])
    serial, wide = tmp_path / "serial.csv", tmp_path / "wide.csv"
    for out, jobs in ((serial, "1"), (wide, "1000000")):
        capsys.readouterr()
        assert run_cli(["sweep", "--axis", "k", "--values", "1,2,3", "--algos", "twin",
                        "--graph", str(graph_path), "--constraint", "partition:cap={k},h=2,seed=3",
                        "--jobs", jobs, "--out", str(out), "--no-timing", "--seed", "6"]) == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["cells"] == 3 and echo["parameters"]["jobs"] == 1000000
    assert started == ([] if workers is None else [workers])
    assert serial.read_bytes() == wide.read_bytes()


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


# sha256 of the `certify --full --seed 3` output.  The digests pin every
# certificate field, value query counts included, so a refactor of the
# certifier or the solvers cannot change what certify reports unnoticed.
CERTIFY_FULL_SHA256 = {
    "matroid": ([], "ed518f444b9b504d3690b8e85f40b66cc52a13a6233a6cd6e4950ee6cdf99dbd"),
    "psystem-p2": (["--constraint", "psystem", "--p", "2"],
                   "25043b925117f80eeb558637995495772743fffbac4d1795c567a3572ba7b9ee"),
}


@pytest.mark.parametrize("flags, digest", CERTIFY_FULL_SHA256.values(),
                         ids=CERTIFY_FULL_SHA256.keys())
def test_certify_full_output_is_pinned(tmp_path, capsys, flags, digest):
    out = tmp_path / "cert.json"
    assert run_cli(["certify", "--full", "--seed", "3", "--out", str(out)] + flags) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_seedmatroid_spec_reads_a_config_file(tmp_path):
    path = tmp_path / "seed.txt"
    path.write_text("# |V| m k\n3 2 2\n")
    oracle = cli.parse_constraint_spec(f"seedmatroid:file={path}", 6)
    assert (oracle.n_nodes, oracle.m, oracle.k) == (3, 2, 2)
    for text, where in (("3 2\n", f"{path}:1:"), ("3 x 2\n", f"{path}:1:"),
                        ("3 2 2\n1 1 1\n", f"{path}: expected one")):
        path.write_text(text)
        with pytest.raises(cli.UsageError, match=re.escape(where)):
            cli.parse_constraint_spec(f"seedmatroid:file={path}", 6)


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


# `helpers.digest_and_checks` of `run --objective marketing --no-timing` on a
# fixed 40-node, 2-product instance, the digests recorded before the
# marketing value moved to a per-node RR-set cover index (samplegreedy:
# before marketing queries were answered from a per-side base): values,
# logs and query counts are in the digest, the check count beside it.
MARKETING_RUN_PINS = {
    "twin": ("63f49d21112785bfa3fde8a2fc071cb968b9e4dcfb2f6e2364c42ebcc9453b7a", 276),
    "twinfast": ("c658c76a6b9560f13705f2fd74dd18cb04f3b9f6a851faa35c82cb1b2cee423f", 263),
    "greedy": ("d9b800cae331b451b93eac6213b8a0f03d9640d507f3c33048ba70213f6a1fce", 384),
    "samplegreedy": ("6fd92b0a7660f0438eb52b436b11b9ca09ac10f8786754c53546cc1c896da549", 182),
}


@pytest.mark.parametrize("algo, pinned", MARKETING_RUN_PINS.items(),
                         ids=MARKETING_RUN_PINS.keys())
def test_marketing_run_is_pinned(tmp_path, monkeypatch, capsys, algo, pinned):
    monkeypatch.chdir(tmp_path)  # relative paths: the input hashes are keyed by path
    assert run_cli(["gen-graph", "--model", "ba", "--n", "40", "--m0", "3", "--m", "2",
                    "--seed", "5", "--out", "g.txt"]) == 0
    for i in (1, 2):
        assert run_cli(["gen-rrsets", "--graph", "g.txt", "--count", "300", "--indegree-probs",
                        "--seed", str(i), "--out", f"r{i}.txt"]) == 0
    (tmp_path / "c.txt").write_text("".join(f"{u} {0.5 + (u % 7) / 10}\n" for u in range(40)))
    assert run_cli(["run", "--algo", algo, "--objective", "marketing", "--rrsets", "r1.txt,r2.txt",
                    "--costs", "c.txt", "--constraint", "seedmatroid:v=40,m=2,k=5",
                    "--epsilon", "0.1", "--no-timing", "--out", "out.json"]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "out.json").read_text())
    assert helpers.digest_and_checks(payload) == pinned


# `helpers.digest_and_checks` of `run --objective cut --no-timing` on a fixed
# 300-node ER graph, which takes the sparse-matrix cut path, the digests
# recorded before cut queries were answered from a per-side base: values,
# logs and query counts are in the digest, the check count beside it.
CUT_SPARSE_RUN_PINS = {
    "twin": ("d6068387049c2ff8414a35f7125cc34dbabccb5ca454df8ed10c5e66f4a72daf", 478),
    "twinfast": ("9dc2c271c5175bf951245699fe3c285be21a895dcb9854979403074c1fbb9de5", 960),
    "samplegreedy": ("dac9466627b77c6960b95b66f3a14a6390ff5cafdd5a89e5f793cd9ff77d9ef9", 3324),
    "greedy": ("7ff928c95407fdd374190428e21b1d46df4113fa2fcd87cb31520f4e3880a40a", 6730),
}


@pytest.mark.parametrize("algo, pinned", CUT_SPARSE_RUN_PINS.items(),
                         ids=CUT_SPARSE_RUN_PINS.keys())
def test_sparse_cut_run_is_pinned(tmp_path, monkeypatch, capsys, algo, pinned):
    monkeypatch.chdir(tmp_path)  # relative paths: the input hashes are keyed by path
    assert run_cli(["gen-graph", "--model", "er", "--n", "300", "--p", "0.05",
                    "--weights", "0,1", "--seed", "21", "--out", "g.txt"]) == 0
    assert run_cli(["run", "--algo", algo, "--objective", "cut", "--graph", "g.txt",
                    "--constraint", "partition:cap=8,h=3,seed=4", "--epsilon", "0.1",
                    "--seed", "5", "--no-timing", "--out", "out.json"]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["n"] >= t.objectives._SPARSE_MIN_NODES
    assert helpers.digest_and_checks(payload) == pinned


# sha256 of a `gen-rrsets` file recorded with the scalar sampler, one
# `rng.random()` per coin; the block-drawn sampler must write the same
# bytes.  Some of its walks use several coin blocks.
RRSETS_SHA256 = "c3ec98906a8f3c44944501652aa9ee1eba1ced1109cd64b23e42766017f0f3ba"


def test_gen_rrsets_output_is_pinned(tmp_path, capsys):
    graph, out = tmp_path / "e.txt", tmp_path / "rr.txt"
    assert run_cli(["gen-graph", "--model", "er", "--n", "200", "--p", "0.3", "--seed", "11",
                    "--out", str(graph)]) == 0
    capsys.readouterr()
    assert run_cli(["gen-rrsets", "--graph", str(graph), "--count", "300", "--indegree-probs",
                    "--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RRSETS_SHA256
    assert manifest["files"][str(out)]["sha256"] == RRSETS_SHA256
    assert manifest["rng"] == "numpy-pcg64"


GRAPH_60 = "# nodes 60 directed 0\n0 1 0.5\n2 3 0.25\n"
RR_3 = "# nodes 3\n0 1\n2\n"
COSTS_3 = "0 0.5\n1 0.5\n2 0.5\n"
CUT = ["run", "--algo", "twin", "--objective", "cut", "--graph", "@g.txt",
       "--constraint", "uniform:k=2"]
MARKETING = ["run", "--algo", "twin", "--objective", "marketing", "--rrsets", "@rr.txt",
             "--costs", "@c.txt", "--constraint", "seedmatroid:v=3,m=1,k=1"]
SWEEP = ["sweep", "--axis", "k", "--algos", "twinfast", "--graph", "@g.txt",
         "--constraint", "uniform:k={k}", "--out", "@s.csv"]


def _swap(argv, flag, value):
    return [value if prev == flag else a for prev, a in zip([None] + argv, argv)]


RRSETS = ["gen-rrsets", "--graph", "@g.txt", "--count", "5", "--out", "@o.txt"]
TOO_MANY = MAX_HEADER_COUNT + 1

# (input files, argv with @NAME for a file in tmp_path, text the error line must hold)
BAD_INPUTS = {
    "run-epsilon": ({"g.txt": GRAPH_60}, _swap(CUT, "--algo", "twinfast") + ["--epsilon", "2"],
                    "epsilon"),
    "run-q": ({"g.txt": GRAPH_60}, _swap(CUT, "--algo", "samplegreedy") + ["--q", "0"], "q "),
    "edge-missing-weight": ({"g.txt": "0 1\n"}, CUT, "g.txt:1: expected 'u v w'"),
    "edge-negative-weight": ({"g.txt": "0 1 -1.0\n"}, CUT, "g.txt:1: edge 0 1 -1.0"),
    "exact-too-large": ({"g.txt": GRAPH_60}, _swap(CUT, "--algo", "exact"), "n <= 20"),
    "sweep-epsilon": ({"g.txt": GRAPH_60}, SWEEP + ["--values", "2", "--epsilon", "5"],
                      "epsilon"),
    "certify-epsilon": ({}, ["certify", "--instances", "2", "--n-max", "6", "--epsilon", "5"],
                        "epsilon"),
    "certify-instances-negative": ({}, ["certify", "--instances", "-5", "--out", "@o.txt"],
                                   "--instances"),
    "certify-instances-zero": ({}, ["certify", "--instances", "0", "--out", "@o.txt"],
                               "--instances"),
    "certify-n-max-below-4": ({}, ["certify", "--instances", "2", "--n-max", "2",
                                   "--out", "@o.txt"], "--n-max"),
    "certify-n-max-above-20": ({}, ["certify", "--instances", "2", "--n-max", "21",
                                    "--out", "@o.txt"], "--n-max"),
    "certify-p-zero": ({}, ["certify", "--instances", "2", "--constraint", "psystem", "--p", "0",
                            "--out", "@o.txt"], "--p must be >= 1"),
    "graph-header-not-a-number": ({"g.txt": "# nodes abc\n0 1 1.0\n"}, CUT,
                                  "g.txt:1: expected '# nodes N directed N'"),
    "graph-id-past-header": ({"g.txt": "# nodes 2\n0 1 1.0\n1 2 1.0\n"}, CUT, "g.txt:3:"),
    **{f"modular-weight-{bad}": (
        {"w.txt": f"1.0\n{bad}\n"},
        ["run", "--algo", "twin", "--objective", "modular", "--weights-file", "@w.txt",
         "--constraint", "uniform:k=2"], f"w.txt:2: weight {float(bad)} must be finite and >= 0")
       for bad in ("nan", "inf", "-inf", "-1.0")},
    "modular-weights-sum-overflows": (
        {"w.txt": "1e308\n1e308\n1.0\n"},
        ["run", "--algo", "twin", "--objective", "modular", "--weights-file", "@w.txt",
         "--constraint", "uniform:k=2"], "w.txt: modular weights must have a finite sum"),
    **{f"cut-weights-sum-overflows-{n}-nodes": (
        {"g.txt": f"# nodes {n} directed 0\n0 1 1e308\n0 2 1e308\n"},
        ["run", "--algo", "twin", "--objective", "cut", "--graph", "@g.txt",
         "--constraint", "uniform:k=2"], "g.txt: the edge weights sum to inf")
       for n in (3, 200)},
    "modular-weight-not-a-number": (
        {"w.txt": "1.0\nabc\n"},
        ["run", "--algo", "twin", "--objective", "modular", "--weights-file", "@w.txt",
         "--constraint", "uniform:k=2"], "w.txt:2: expected 'weight'"),
    "rrset-token-not-a-number": ({"rr.txt": "# nodes 3\n0 x\n", "c.txt": COSTS_3}, MARKETING,
                                 "rr.txt:2: expected 'node ids'"),
    "cost-not-a-number": ({"rr.txt": RR_3, "c.txt": "0 0.5\n1 abc\n2 0.5\n"}, MARKETING,
                          "c.txt:2: expected 'node cost'"),
    "cost-line-one-field": ({"rr.txt": RR_3, "c.txt": "0 0.5\n1\n2 0.5\n"}, MARKETING,
                            "c.txt:2: expected 'node cost'"),
    "cost-missing-node": ({"rr.txt": RR_3, "c.txt": "0 0.5\n2 0.5\n"}, MARKETING,
                          "c.txt: ids must cover"),
    "budget-below-total-cost": ({"rr.txt": RR_3, "c.txt": COSTS_3}, MARKETING + ["--budget", "1"],
                                "budget"),
    "gen-graph-weights-one-value": (
        {}, ["gen-graph", "--model", "er", "--n", "5", "--p", "0.5", "--weights", "1",
             "--out", "@o.txt"], "--weights"),
    "gen-graph-weights-not-numbers": (
        {}, ["gen-graph", "--model", "er", "--n", "5", "--p", "0.5", "--weights", "a,b",
             "--out", "@o.txt"], "--weights"),
    "gen-graph-negative-n": (
        {}, ["gen-graph", "--model", "er", "--n", "-5", "--p", "0.5", "--out", "@o.txt"],
        "n >= 0"),
    "gen-graph-negative-groups": (
        {}, ["gen-graph", "--model", "er", "--n", "5", "--p", "0.5", "--groups", "-1",
             "--out", "@o.txt"], "group"),
    "gen-graph-zero-groups": (
        {}, ["gen-graph", "--model", "er", "--n", "5", "--p", "0.5", "--groups", "0",
             "--out", "@o.txt"], "group"),
    "sweep-values-not-numbers": ({"g.txt": GRAPH_60}, SWEEP + ["--values", "x"], "--values"),
    "uniform-negative-k": ({"g.txt": GRAPH_60}, _swap(CUT, "--constraint", "uniform:k=-1"),
                           "k >= 0"),
    "partition-negative-cap": ({"g.txt": GRAPH_60},
                               _swap(CUT, "--constraint", "partition:cap=-1,h=2"), "cap >= 0"),
    "seedmatroid-negative-k": ({"rr.txt": RR_3, "c.txt": COSTS_3},
                               _swap(MARKETING, "--constraint", "seedmatroid:v=3,m=1,k=-1"),
                               "k >= 0"),
    "seedmatroid-zero-products": ({"rr.txt": RR_3, "c.txt": COSTS_3},
                                  _swap(MARKETING, "--constraint", "seedmatroid:v=3,m=0,k=1"),
                                  "m >= 1"),
    "rrsets-empty": ({"rr.txt": "# nodes 3\n", "c.txt": COSTS_3}, MARKETING,
                     "product 0 has no sampled RR sets"),
    "run-seed-negative": ({"g.txt": GRAPH_60}, _swap(CUT, "--algo", "samplegreedy")
                          + ["--seed", "-1", "--out", "@o.txt"], "--seed must be >= 0"),
    "gen-graph-seed-negative": (
        {}, ["gen-graph", "--model", "er", "--n", "5", "--p", "0.5", "--seed", "-1",
             "--out", "@o.txt"], "--seed must be >= 0"),
    "gen-rrsets-seed-negative": (
        {"g.txt": GRAPH_60}, ["gen-rrsets", "--graph", "@g.txt", "--count", "5", "--seed", "-1",
                              "--out", "@o.txt"], "--seed must be >= 0"),
    "certify-seed-negative": ({}, ["certify", "--instances", "2", "--seed", "-1",
                                   "--out", "@o.txt"], "--seed must be >= 0"),
    "seed-environment-negative": ({}, ["TWINOPT_SEED=-1", "gen-graph", "--model", "er", "--n", "5",
                                       "--p", "0.5", "--out", "@o.txt"],
                                  "TWINOPT_SEED must be >= 0"),
    "sweep-reps-negative": ({"g.txt": GRAPH_60}, _swap(_swap(SWEEP, "--algos", "samplegreedy"),
                                                       "--out", "@o.txt")
                            + ["--values", "2", "--reps", "-2"], "--reps must be >= 1"),
    "sweep-reps-zero": ({"g.txt": GRAPH_60}, _swap(SWEEP, "--out", "@o.txt")
                        + ["--values", "2", "--reps", "0"], "--reps must be >= 1"),
    "sweep-jobs-negative": ({"g.txt": GRAPH_60}, _swap(SWEEP, "--out", "@o.txt")
                            + ["--values", "2", "--jobs", "-3"], "--jobs must be >= 1"),
    "sweep-jobs-zero": ({"g.txt": GRAPH_60}, _swap(SWEEP, "--out", "@o.txt")
                        + ["--values", "2", "--jobs", "0"], "--jobs must be >= 1"),
    "sweep-k-without-placeholder": ({"g.txt": GRAPH_60},
                                    _swap(_swap(SWEEP, "--constraint", "uniform:k=2"),
                                          "--out", "@o.txt") + ["--values", "1,2,3"],
                                    "--constraint must hold {k}"),
    "gen-rrsets-no-nodes": ({"g.txt": "# nodes 0 directed 1\n"}, RRSETS, "at least one node"),
    "gen-rrsets-empty-graph-file": ({"g.txt": ""}, RRSETS, "at least one node"),
    "gen-graph-ba-one-node-clique": (
        {}, ["gen-graph", "--model", "ba", "--n", "5", "--m0", "1", "--m", "1", "--out", "@o.txt"],
        "m0 >= 2"),
    # one past the bound only: a header or id this large must fail before any allocation
    "graph-header-above-max": ({"g.txt": f"# nodes {TOO_MANY} directed 0\n0 1 1.0\n"}, CUT,
                               f"g.txt:1: header count {TOO_MANY}"),
    "graph-id-above-max": ({"g.txt": f"0 {TOO_MANY - 1} 1.0\n"}, CUT, "g.txt:1: edge 0"),
    "rrsets-header-above-max": ({"rr.txt": f"# nodes {TOO_MANY}\n0\n", "c.txt": COSTS_3},
                                MARKETING, f"rr.txt:1: header count {TOO_MANY}"),
    "rrsets-id-above-max": ({"rr.txt": f"0 {TOO_MANY - 1}\n", "c.txt": COSTS_3}, MARKETING,
                            f"rr.txt:1: node id {TOO_MANY - 1}"),
    # an objective or a model without the flag it reads
    "run-cut-without-graph": ({}, CUT[:5] + CUT[7:], "cut objective needs --graph"),
    "run-modular-without-weights": (
        {}, ["run", "--algo", "twin", "--objective", "modular", "--constraint", "uniform:k=2"],
        "modular objective needs --weights-file"),
    "run-marketing-without-rrsets": ({"c.txt": COSTS_3}, MARKETING[:5] + MARKETING[7:],
                                     "marketing objective needs --rrsets"),
    "gen-graph-er-without-p": ({}, ["gen-graph", "--model", "er", "--n", "5", "--out", "@o.txt"],
                               "er model needs --p"),
    "gen-graph-ba-without-m0": (
        {}, ["gen-graph", "--model", "ba", "--n", "5", "--m", "1", "--out", "@o.txt"],
        "ba model needs --m0"),
}


@pytest.mark.parametrize("files, argv, needle", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_two_without_traceback(tmp_path, monkeypatch, capsys, files, argv, needle):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    while re.fullmatch(r"[A-Z_]+=.*", argv[0]):  # leading NAME=VALUE: an environment variable
        monkeypatch.setenv(*argv[0].split("=", 1))
        argv = argv[1:]
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert needle in err
    assert not (tmp_path / "o.txt").exists()


# fuzz: each input file kind, valid or with a few lines replaced, deleted or
# added, and constraint specs that are valid or random
G_4 = "# nodes 4 directed 0\n0 1 0.5\n1 2 1.0\n2 3 0.25\n"
FUZZ_FILES = {  # kind: (valid file text, run arguments; @fuzz.txt is the fuzzed file)
    "graph": (G_4, ["--objective", "cut", "--graph", "@fuzz.txt"]),
    "weights": ("1.0\n2.0\n3.0\n", ["--objective", "modular", "--weights-file", "@fuzz.txt"]),
    "rrsets": (RR_3, ["--objective", "marketing", "--rrsets", "@fuzz.txt", "--costs", "@c.txt"]),
    "costs": (COSTS_3, ["--objective", "marketing", "--rrsets", "@rr.txt", "--costs",
                        "@fuzz.txt"]),
    "partition": ("0 0\n1 1\n2 0\n3 1\n", ["--objective", "cut", "--graph", "@g.txt"]),
}
TOKENS = ["0", "1", "2", "3", "7", "-1", "0.5", "-0.5", "1e3", "nan", "inf", "x", "#",
          "nodes", "directed", "\u0663", "\ufffd"]
FUZZ_LINE = st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join)
SPEC_ITEM = st.builds("{}={}".format,
                      st.sampled_from(["k", "cap", "h", "seed", "p", "v", "m", "parts", "file"]),
                      st.sampled_from(["-1", "0", "1", "2", "3", "x", "", "@fuzz.txt"]))
FUZZ_SPEC = st.one_of(
    st.sampled_from(["uniform:k=2", "partition:cap=1,h=2", "psystem:p=2,cap=1,h=2,seed=1",
                     "seedmatroid:v=3,m=1,k=2"]),
    st.builds("{}:{}".format,
              st.sampled_from(["uniform", "partition", "seedmatroid", "psystem", "ring"]),
              st.lists(SPEC_ITEM, max_size=4).map(",".join)))


@st.composite
def fuzzed_file(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        lines[i:i + draw(st.integers(0, 1))] = draw(st.lists(FUZZ_LINE, max_size=1))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(sorted(FUZZ_FILES)), spec=FUZZ_SPEC)
def test_cli_fuzzed_files_and_specs_exit_cleanly(data, kind, spec):
    text, args = FUZZ_FILES[kind]
    if kind == "partition":
        spec = "partition:cap=1,parts=@fuzz.txt"
    files = {"fuzz.txt": data.draw(fuzzed_file(text)), "g.txt": G_4, "rr.txt": RR_3,
             "c.txt": COSTS_3}
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(content)
        argv = ["run", "--algo", "twin", "--constraint", spec, "--no-timing"] + args
        argv = [a.replace("@", tmp + os.sep) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().count("\n") == 1


def test_bad_seed_environment_exits_two(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("TWINOPT_SEED", "abc")
    code = run_cli(["gen-graph", "--model", "er", "--n", "5", "--p", "0.5",
                    "--out", str(tmp_path / "o.txt")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE and err.startswith("error: TWINOPT_SEED")
