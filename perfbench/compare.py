#!/usr/bin/env python3
"""Compare two sets of benchmark run records.

    python3 perfbench/compare.py OLD NEW

OLD and NEW are run records written by run.py: one file, or a directory
of them.  For every workload and metric it prints both medians, both
quartile ranges and the ratio NEW/OLD.  When a side holds several runs of
a workload (say ten seeds), median and quartiles are taken over the runs'
values; with a single run, that run's own sample quartiles are shown.

The count metrics (value_queries, independence_checks,
objectives.evaluate_calls) must repeat exactly for every workload and
seed present on both sides: any drift is flagged and the exit code is 1.
Timings are not gated here.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import COUNT_METRICS, END_TO_END, PER_LAYER, load_records

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


def _by_workload(records):
    out = defaultdict(list)
    for rec in records:
        out[rec["workload"], rec["scale"], rec["trace"]].append(rec)
    return out


def _stats(runs, name):
    """(median, q1, q3, runs) of one metric over the runs that report it."""
    entries = [r["metrics"][name] for r in runs if name in r["metrics"]]
    if not entries:
        return None
    if len(entries) == 1:
        e = entries[0]
        return e["value"], e.get("q1", e["value"]), e.get("q3", e["value"]), 1
    values = [e["value"] for e in entries]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3, len(values)


def _fmt(st):
    if st is None:
        return f"{'-':>34}"
    med, q1, q3, n = st
    return f"{med:>12.6g} [{q1:.4g}, {q3:.4g}] n={n}".rjust(34)


def drift(old_runs, new_runs) -> list[str]:
    """Count metrics that differ between runs of the same workload and seed."""
    def key(r):
        return r["workload"], r["scale"], r["trace"], r["seed"]

    old = {key(r): r for r in old_runs}
    found = []
    for r in new_runs:
        base = old.get(key(r))
        if base is None:
            continue
        for name in COUNT_METRICS:
            a, b = base["metrics"].get(name), r["metrics"].get(name)
            if a is not None and b is not None and a["value"] != b["value"]:
                found.append(f"{r['workload']} seed {r['seed']}: {name} "
                             f"{a['value']} -> {b['value']}")
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    old_runs, new_runs = load_records(args.old), load_records(args.new)
    old, new = _by_workload(old_runs), _by_workload(new_runs)
    for key in sorted(set(old) | set(new)):
        workload, scale, trace = key
        print(f"\n== {workload}, {scale} scale, {'per-layer' if trace else 'end-to-end'}")
        print(f"{'metric (unit)':<44} {'old median [q1, q3]':>34} {'new median [q1, q3]':>34}"
              "  new/old")
        names = {n for r in old.get(key, []) + new.get(key, []) for n in r["metrics"]}
        for name in sorted(names):
            a, b = _stats(old.get(key, []), name), _stats(new.get(key, []), name)
            ratio = f"{b[0] / a[0]:.4f}" if a and b and a[0] else "-"
            label = f"{name} ({UNITS.get(name, '?')})"
            print(f"{label:<44} {_fmt(a)} {_fmt(b)}  {ratio}")
    found = drift(old_runs, new_runs)
    for line in found:
        print("DRIFT " + line)
    if not found:
        print("\nno count drift")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
