"""Repeats a workload's operation groups until a deadline, checks every
output, and turns the recorded timings, counts and spans into metrics."""

from __future__ import annotations

import gc
import resource
import statistics
import traceback
from collections import defaultdict
from time import perf_counter

import checks
import speed
import workloads
from common import CERTIFY, percentile, scaled_summary, timing
from spans import Recorder


class Runner:
    """Repeats a workload's operation groups until the deadline, checking
    each output and counting failures."""

    def __init__(self, instances, groups, reference, trace, first_setup, timeline):
        self.setups = [first_setup]  # phase timings of each set-up
        self.timeline = timeline  # speed probes, for scaling every timing
        self.instances = instances
        self.groups = groups
        self.reference = reference
        self.trace = trace
        self.rec = Recorder()
        self.first: dict[str, tuple] = {}
        self.executions: dict[str, int] = defaultdict(int)
        self.group_seconds = defaultdict(lambda: {False: [], True: []})
        # group -> op key -> (start, end) of each untraced execution
        self.op_seconds = defaultdict(lambda: defaultdict(list))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.run_failures: list[str] = []

    def measure(self, seconds, setup, setups):
        """Run every group once, then keep running whichever group has had
        the least time so far among those whose typical execution still
        fits before the deadline.  Cheap groups thus collect many samples
        while an expensive one is not starved.  The set-ups after the first
        (`setups` in all) are spread evenly over the window, so that set-up
        time sees the same mix of machine load as the operations."""
        start = perf_counter()
        deadline = start + seconds
        due = [start + seconds * k / setups for k in range(1, setups)]
        for label, ops in self.groups:
            self.execute(label, ops)
        while True:
            now = perf_counter()
            if due and now >= due[0]:
                due.pop(0)
                self.setups.append(setup())
                continue
            fits = []
            for label, ops in self.groups:
                times = self.group_seconds[label]
                typical = sum(statistics.median(t) for t in times.values() if t)
                if typical <= deadline - now:
                    fits.append((sum(map(sum, times.values())), label, ops))
            if not fits:
                break
            _, label, ops = min(fits, key=lambda fit: fit[0])
            self.execute(label, ops)
        for _ in due:
            self.setups.append(setup())

    def execute(self, label, ops):
        self.run_group(label, ops, traced=False)
        if self.trace:
            self.run_group(label, ops, traced=True)

    def run_group(self, label, ops, traced):
        rec = self.rec
        rec.tracing = traced
        rec.group, rec.execution = label, self.executions[label]
        if traced:
            for inst in self.instances:
                rec.instrument(inst.f, inst.c)
        gc.collect()
        total = 0.0
        self.timeline.probe()
        since_probe = 0.0
        for key, inst, fn in ops:
            rec.op_id += 1
            rec.op_key = key
            self.attempted += 1
            try:
                t0 = perf_counter()
                with rec.span("op"):
                    result = fn(rec)
                t1 = perf_counter()
                total += t1 - t0
                since_probe += t1 - t0
                if not traced:
                    self.op_seconds[label][key].append((t0, t1))
                fails = self.check(key, inst, result)
            except Exception:  # a crashing operation is a failed one; keep measuring
                fails = [traceback.format_exc()]
            if fails:
                self.failed += 1
                self.failures.extend(f"{key}: {msg}" for msg in fails)
            if since_probe >= speed.PROBE_EVERY_S:
                self.timeline.probe()
                since_probe = 0.0
        if since_probe:
            self.timeline.probe()
        if traced:
            for inst in self.instances:
                rec.uninstrument(inst.f, inst.c)
        self.group_seconds[label][traced].append(total)
        self.executions[label] += 1

    def check(self, key, inst, result) -> list[str]:
        with self.rec.span("check"):
            fails = checks.side_check(inst, result)
        sig = checks.signature(result)
        if key in self.first:
            if sig != self.first[key]:
                fails.append("output or counts differ from the first execution")
            return fails
        self.first[key] = sig
        fails += checks.deep_check(inst, result)
        if self.reference is not None:
            want = self.reference.get(key)
            if want is None:
                fails.append("no reference recorded")
            else:
                fails += checks.reference_check(want, result)
        return fails

    # -- end-to-end metrics ------------------------------------------------

    def end_to_end(self, workload) -> dict:
        calls = [c for c in self.rec.calls if not c.traced]
        first = [c for c in calls if c.execution == 0 and c.name in workloads.SOLVER_CALLS]
        out = {
            "setup_s": scaled_summary([(ph["total"], ph["scaled"]) for ph in self.setups]),
            "value_queries": {"value": sum(c.queries for c in first)},
            "independence_checks": {"value": sum(c.checks for c in first)},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
            "fail_ratio": {"value": self.failed / self.attempted},
        }
        for metric, name in (("twin_s", "twin"), ("twinfast_s", "twinfast"),
                             ("samplegreedy_s", "samplegreedy")):
            samples = defaultdict(list)
            for c in calls:
                if c.name == name:
                    samples[c.op].append(
                        (c.seconds, self.timeline.scale(c.start, c.start + c.seconds)))
            if samples:
                out[metric] = timing(samples)
        if workload == CERTIFY:
            scale = self.timeline.scale
            ms = {key: [((t1 - t0) * 1e3, scale(t0, t1) * 1e3) for t0, t1 in xs]
                  for key, xs in self.op_seconds["batch"].items()}
            out["certify_p50_ms"] = timing(ms)
            typical = [statistics.median(s for _, s in xs) for xs in ms.values()]
            out["certify_p95_ms"] = {"value": percentile(typical, 95), "samples": len(typical)}
            done = sum(len(xs) for xs in ms.values())
            out["certify_instances_per_s"] = {
                "value": done / (sum(s for xs in ms.values() for _, s in xs) / 1e3),
                "samples": done}
        return out

    # -- per-layer metrics -------------------------------------------------

    def per_layer(self, value_queries) -> dict:
        setups = self.setups
        rec = self.rec
        traced_runs = {label: len(t[True]) for label, t in self.group_seconds.items()}
        raw = defaultdict(lambda: [0, 0.0])  # (group, scope, layer) -> [calls, s], all passes
        durations = defaultdict(list)  # span name -> durations
        self_times = defaultdict(list)
        for span in rec.spans:
            group = span.group
            scope = ("solver" if span.name in workloads.SOLVER_CALLS
                     else "certify" if span.name == "certify" else "other")
            for name, (count, seconds) in span.layers.items():
                raw[group, scope, name][0] += count
                raw[group, scope, name][1] += seconds
            durations[span.name].append(span.duration)
            self_times[span.name].append(span.duration - span.layer_time())

        def per_pass(scope, name, i):
            """Calls (i=0) or seconds (i=1) of one layer in one pass over all groups."""
            return sum(_count(v[i], traced_runs[g]) if i == 0 else v[i] / traced_runs[g]
                       for (g, sc, n), v in raw.items()
                       if n == name and scope in (None, sc))

        calls = [c for c in rec.calls if c.traced]
        out = {}
        evals, eval_s = per_pass("solver", "evaluate", 0), per_pass("solver", "evaluate", 1)
        out["objectives.evaluate_calls"] = evals
        out["objectives.evaluate_s"] = eval_s
        out["objectives.evaluate_us"] = eval_s / evals * 1e6 if evals else 0.0
        for name in ("can_add", "add", "is_independent"):
            out[f"constraints.{name}_calls"] = per_pass(None, name, 0)
            out[f"constraints.{name}_s"] = per_pass(None, name, 1)
        out["constraints.rank_s"] = workloads.rank_seconds(self.instances)
        for solver in ("twin", "twinfast", "samplegreedy", "exact"):
            if self_times[solver]:
                out[f"solvers.{solver}.self_s"] = statistics.fmean(self_times[solver])
            mine = [c for c in calls if c.name == solver]
            queries = sum(c.queries for c in mine)
            if mine and "inserts" in mine[0].info:
                out[f"solvers.{solver}.inserts_per_query"] = (
                    sum(c.info["inserts"] for c in mine) / queries)
        fast = [c.info["passes"] for c in calls if c.name == "twinfast"]
        out["solvers.twinfast.passes"] = statistics.fmean(fast)
        exact = [c for c in calls if c.name == "exact"]
        if exact:
            out["solvers.exact.sets_visited"] = _count(
                sum(c.info["sets_visited"] for c in exact), traced_runs["batch"])
            out["certify.certify_run_ms"] = statistics.fmean(durations["certify"]) * 1e3
            out["certify.value_queries"] = per_pass("certify", "evaluate", 0)
            out["certify.is_independent_calls"] = per_pass("certify", "is_independent", 0)
        for metric, phase in (("objectives.load_graph_s", "objectives.load_graph"),
                              ("objectives.load_rrsets_s", "objectives.load_rrsets"),
                              ("objectives.construct_s", "objectives.construct"),
                              ("generators.graph_s", "generators.graph")):
            if phase in setups[0]:
                out[metric] = statistics.median(ph[phase] for ph in setups)
        if "generators.rr" in setups[0]:
            out["generators.rr_sets_per_s"] = statistics.median(
                ph["generators.rr_count"] / ph["generators.rr"] for ph in setups)
            out["generators.rr_set_mean_size"] = (
                setups[0]["generators.rr_nodes"] / setups[0]["generators.rr_count"])
        traced = sum(statistics.median(t[True]) for t in self.group_seconds.values())
        plain = sum(statistics.median(t[False]) for t in self.group_seconds.values())
        out["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0
        if out["objectives.evaluate_calls"] != value_queries:
            self.run_failures.append(
                f"traced evaluate calls {out['objectives.evaluate_calls']} differ from "
                f"value_queries {value_queries}")
        return {name: {"value": value} for name, value in out.items()}


def _count(total: int, passes: int):
    """Per-pass count; a whole number when every traced pass did the same work."""
    return total // passes if total % passes == 0 else total / passes
