"""Tests of the benchmark itself, at tiny instance sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import speed
from common import (CERTIFY, MONITOR, WORKLOADS, benchmark_spec, catalogue, gated, summarize,
                    timing)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(tmp_path, workload, *extra, seed=1, trace=0, cwd=ROOT):
    out = tmp_path / f"{workload}-{seed}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
         "--out", str(out), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc, out


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {k: spec[k] for k in ("end_to_end", "per_layer")} == benchmark_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_unit(tmp_path, workload, trace):
    proc, out = bench(tmp_path, workload, trace=trace)
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m.name: m.unit for m in gated(bool(trace))}
    lines = proc.stdout.splitlines()
    for m in catalogue(bool(trace)):
        if workload in m.where:
            assert any(re.match(rf"{re.escape(m.name)}\s+\S+ {re.escape(m.unit)}(\s|$)", line)
                       for line in lines), m.name
    record = json.loads(out.read_text())
    assert record["parameters"]["n" if workload != CERTIFY else "instances"]
    assert {"python", "numpy", "scipy", "cpu", "nproc", "git_sha"} <= set(record["environment"])
    if not trace:
        assert record["metrics"]["twin_s"]["samples"] >= 1


def test_default_seed_matches_reference(tmp_path):
    for workload in WORKLOADS:
        assert result_line(bench(tmp_path, workload, seed=0)[0])["correct"], workload


def _perturbed_reference(tmp_path, edit) -> Path:
    ref = json.loads((HERE / "reference.json").read_text())
    edit(ref)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    return path


def test_perturbed_insertion_sequence_counts_as_failure(tmp_path):
    def flip_first_side(ref):
        entry = ref[f"{MONITOR}/tiny"]["twin/0"]["twin"]["log"][0]
        entry[1] = 3 - entry[1]

    path = _perturbed_reference(tmp_path, flip_first_side)
    proc, out = bench(tmp_path, MONITOR, "--reference", str(path), seed=0)
    result = result_line(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert json.loads(out.read_text())["metrics"]["fail_ratio"]["value"] > 0
    assert "insertion sequence differs" in proc.stdout


def test_perturbed_exact_value_counts_as_failure(tmp_path):
    def nudge_optimum(ref):
        ref[f"{CERTIFY}/tiny"]["batch/0"]["exact"]["value"] *= 1 + 1e-6

    path = _perturbed_reference(tmp_path, nudge_optimum)
    result = result_line(bench(tmp_path, CERTIFY, "--reference", str(path), seed=0)[0])
    assert not result["correct"] and result["failed"] >= 1


def test_fails_without_the_program_source(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results",
                                                                            "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, _ = bench(tmp_path, MONITOR, cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_summary_tail_needs_ten_samples_beyond_it():
    assert "tail" not in summarize(range(19))
    assert summarize(range(20))["tail"]["pct"] == 50
    assert summarize(range(240))["tail"]["pct"] == 95
    assert summarize([3.0])["value"] == 3.0


def test_timing_is_median_over_ops_of_median_scaled_repeat():
    # (wall, scaled) samples: the value ignores wall time and the fastest repeat
    samples = {"a": [(2.0, 1.0), (9.0, 3.0), (4.0, 2.0)], "b": [(1.0, 5.0)],
               "c": [(1.0, 4.0), (1.0, 6.0)]}
    out = timing(samples)
    assert out["value"] == 5.0 and out["operations"] == 3
    assert out["wall"] == 1.0 and out["fastest"] == 4.0 and out["samples"] == 6


def test_scaling_uses_the_probes_around_the_interval():
    timeline = speed.Timeline()
    timeline.times = [0.0, 1.0, 10.0, 11.0]
    timeline.slowdowns = [1.0, 4.0, 9.0, 16.0]
    # probes within 2 s of [1.5, 2.0], plus the first one after it
    assert timeline.slowdown(1.5, 2.0) == 4.0
    assert timeline.scale(1.5, 2.0) == pytest.approx(0.5 / 4.0 ** speed.EXPONENT)
    assert timeline.scale(1.5, 2.0, writing=0.25) == pytest.approx(
        0.25 + 0.25 / 4.0 ** speed.EXPONENT)


def test_compare_flags_count_drift(tmp_path, capsys):
    record = {"workload": MONITOR, "scale": "tiny", "trace": 0, "seed": 1,
              "metrics": {"value_queries": {"value": 10, "unit": "count"},
                          "twin_s": {"value": 1.0, "q1": 0.9, "q3": 1.1, "unit": "s"}}}
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(record))
    new.write_text(json.dumps(record))
    assert compare.main([str(old), str(new)]) == 0
    record["metrics"]["value_queries"]["value"] = 11
    new.write_text(json.dumps(record))
    assert compare.main([str(old), str(new)]) == 1
    assert "DRIFT" in capsys.readouterr().out
