#!/usr/bin/env python3
"""twinopt benchmark runner.

    python3 perfbench/run.py --workload monitor-er1000 --seed 0 --seconds 30 --trace 0

Builds the workload's instances from the seed (several times, to time
set-up), then repeats its operations until --seconds have passed,
checks every output, prints each metric with its unit and sample count,
and ends with one JSON result line.  Timings are scaled to a reference
machine speed measured by probes around them (speed.py).  With --trace 1 each repeat runs
once untraced and once traced, and the per-layer metrics are reported
instead, with the tracing overhead.  The full run record (environment,
instance parameters, quartiles) is written to --out.

The program is imported from src/ next to this directory and nowhere
else, so the run fails without printing a result when the source is
missing.  One process, one thread.
"""

from __future__ import annotations

import os

# one thread: keep BLAS and OpenMP from starting pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from common import WORKLOADS, catalogue, gated, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
MAX_FAILURES_KEPT = 20


def import_program():
    """Import twinopt from this checkout's src/ only."""
    pkg = SRC / "twinopt"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import twinopt

    if Path(twinopt.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported twinopt from {twinopt.__file__}, not {pkg}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed; 0 gives the reference instances")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="instance size; tiny is for the benchmark's own tests")
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="recorded outputs checked on the default seed")
    ap.add_argument("--out", type=Path, help="run record path (default under results/)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# run record


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _git_sha():
    """HEAD of the checkout, read from .git without starting git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _format(metric, entry) -> str:
    value = entry["value"]
    text = f"{metric.name:<38} {value!r:>22} {metric.unit}"
    if "raw" in entry:
        text += (f"  (scaled; median repeat, median over {entry['operations']} operations; "
                 f"wall {entry['wall']:.6g}, fastest {entry['fastest']:.6g}; "
                 f"all {entry['samples']} samples: median {entry['raw']:.6g}, "
                 f"q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}")
        if "tail" in entry:
            text += f", p{entry['tail']['pct']} {entry['tail']['value']:.6g}"
        text += ")"
    elif "q1" in entry:
        text += f"  (median of {entry['samples']}, q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}"
        if "wall" in entry:
            text += f", wall {entry['wall']:.6g}"
        if "tail" in entry:
            text += f", p{entry['tail']['pct']} {entry['tail']['value']:.6g}"
        text += ")"
    elif "samples" in entry:
        text += f"  ({entry['samples']} samples)"
    return text


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import speed
    import workloads
    from runner import Runner

    started = perf_counter()
    workload = args.workload
    par = workloads.params(workload, args.seed, args.scale)
    RESULTS.mkdir(exist_ok=True)
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(args.reference.read_text()).get(f"{workload}/{args.scale}", {})
    timeline = speed.Timeline()
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:

        def setup():
            gc.collect()
            timeline.probe()
            t0 = perf_counter()
            instances, phases = workloads.setup(workload, par, workdir)
            t1 = perf_counter()
            timeline.probe()
            phases["scaled"] = timeline.scale(t0, t1, phases[workloads.SAVE])
            return instances, phases

        instances, phases = setup()
        runner = Runner(instances, workloads.groups(workload, par, instances), reference,
                        bool(args.trace), phases, timeline)
        runner.measure(args.seconds, lambda: setup()[1], workloads.SETUPS[workload])

    e2e = runner.end_to_end(workload)
    metrics = runner.per_layer(e2e["value_queries"]["value"]) if args.trace else e2e
    for m in catalogue(bool(args.trace)):
        if m.name in metrics:
            metrics[m.name]["unit"] = m.unit
    correct = runner.failed == 0 and not runner.run_failures

    record = {
        "workload": workload, "seed": args.seed, "trace": args.trace, "scale": args.scale,
        "seconds": args.seconds, "wall_s": perf_counter() - started,
        "environment": environment(), "parameters": par,
        "attempted": runner.attempted, "failed": runner.failed, "correct": correct,
        "failures": (runner.run_failures + runner.failures)[:MAX_FAILURES_KEPT],
        "metrics": metrics,
        "slowdown": summarize(timeline.slowdowns),
    }
    out = args.out or RESULTS / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        runner.rec.write(RESULTS / f"trace-{workload}-seed{args.seed}.jsonl")

    print(f"# {workload} seed {args.seed} trace {args.trace} ({args.scale}): "
          f"{runner.attempted} operations, {runner.failed} failed")
    for msg in record["failures"]:
        print("# FAIL " + msg.replace("\n", "\n#   "))
    for m in catalogue(bool(args.trace)):
        if m.name in metrics:
            print(_format(m, metrics[m.name]))
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m.name: {"value": metrics[m.name]["value"], "unit": m.unit}
                    for m in gated(bool(args.trace))},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
