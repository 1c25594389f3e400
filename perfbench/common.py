"""Metric catalogue, summary statistics and run-record I/O.

The catalogue is the single place a metric is defined: its unit, which
direction is better, the regression bound for gated end-to-end metrics,
the workloads it exists on, and (for per-layer metrics) which end-to-end
metric it should move.  `BENCHMARK.json` lists exactly the metrics that
exist on every workload, because each run must report every listed
metric; the rest are printed and recorded by the runs where they exist.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

MONITOR = "monitor-er1000"
MARKETING = "marketing-rr"
CERTIFY = "certify-small"
WORKLOADS = (MONITOR, MARKETING, CERTIFY)

# metric names whose values are exact counts; compare mode flags any drift
COUNT_METRICS = ("value_queries", "independence_checks", "objectives.evaluate_calls")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    where: tuple[str, ...]
    what: str
    bound: float | None = None  # regression bound; set only for gated metrics

    @property
    def everywhere(self) -> bool:
        return self.where == WORKLOADS


ALL = WORKLOADS

END_TO_END = (
    Metric("setup_s", "s", "lower", ALL,
           "instance generation, file save/load round trip and oracle/constraint "
           "construction (RR sampling on marketing-rr); median of several scaled set-ups",
           bound=0.25),
    Metric("twin_s", "s", "lower", ALL,
           "one twin_greedy call, scaled (certify-small: one per instance)", bound=0.25),
    Metric("twinfast_s", "s", "lower", ALL,
           "one twin_greedy_fast call, epsilon 0.1, scaled (certify-small: one per instance)",
           bound=0.25),
    Metric("value_queries", "count", "lower", ALL,
           "value-oracle queries summed over one pass of the workload's solver calls",
           bound=0.2),
    Metric("independence_checks", "count", "lower", ALL,
           "independence checks summed over one pass of the workload's solver calls",
           bound=0.2),
    Metric("peak_rss_mb", "MB", "lower", ALL, "peak resident memory of the run",
           bound=0.1),
    Metric("samplegreedy_s", "s", "lower", (MONITOR,),
           "one sample_greedy call, q 0.5"),
    Metric("certify_p50_ms", "ms", "lower", (CERTIFY,),
           "median time of one instance: exact_max, both solvers and certify_run"),
    Metric("certify_p95_ms", "ms", "lower", (CERTIFY,),
           "95th percentile time of one certify-small instance"),
    Metric("certify_instances_per_s", "1/s", "higher", (CERTIFY,),
           "certify-small instances completed per second"),
    Metric("fail_ratio", "ratio", "lower", ALL,
           "failed operations over attempted ones (one solver call or one "
           "certified instance); the result line carries it as failed/attempted"),
)

_EVAL_MOVES = ("twin_s, twinfast_s and samplegreedy_s on monitor-er1000 (sparse cut "
               "path); twin_s and twinfast_s on marketing-rr (RR loop); certify_p50_ms "
               "on certify-small (list path)")
_CONS_MOVES = ("certify_p50_ms and certify_p95_ms on certify-small; under 1% of "
               "monitor-er1000, so no change predicted there")
_SELF_MOVES = ("twin_s and twinfast_s on monitor-er1000, where it is about 7-10% "
               "today and dominant once evaluate is cheap")

PER_LAYER = (
    Metric("objectives.evaluate_calls", "count", "lower", ALL,
           "evaluate calls inside solver calls; equals value_queries. Moves " + _EVAL_MOVES),
    Metric("objectives.evaluate_s", "s", "lower", ALL,
           "time in evaluate inside solver calls, per pass. Moves " + _EVAL_MOVES),
    Metric("objectives.evaluate_us", "us", "lower", ALL,
           "mean time of one evaluate inside solver calls. Moves " + _EVAL_MOVES),
    Metric("objectives.load_graph_s", "s", "lower", ALL,
           "load_edge_list time in set-up. Moves setup_s (monitor-er1000 mostly)"),
    Metric("objectives.load_rrsets_s", "s", "lower", (MARKETING,),
           "load_rr_sets time in set-up. Moves setup_s on marketing-rr"),
    Metric("objectives.construct_s", "s", "lower", ALL,
           "objective and constraint construction in set-up. Moves setup_s"),
    Metric("constraints.can_add_calls", "count", "lower", ALL,
           "can_add calls per pass. Moves " + _CONS_MOVES),
    Metric("constraints.can_add_s", "s", "lower", ALL,
           "time in can_add per pass. Moves " + _CONS_MOVES),
    Metric("constraints.add_calls", "count", "lower", ALL,
           "add calls per pass. Moves " + _CONS_MOVES),
    Metric("constraints.add_s", "s", "lower", ALL,
           "time in add per pass. Moves " + _CONS_MOVES),
    Metric("constraints.is_independent_calls", "count", "lower", ALL,
           "is_independent calls per pass (certify and the output checks). Moves "
           + _CONS_MOVES),
    Metric("constraints.is_independent_s", "s", "lower", ALL,
           "time in is_independent per pass. Moves " + _CONS_MOVES),
    Metric("constraints.rank_s", "s", "lower", ALL,
           "one rank() call per instance, summed. Moves twinfast_s"),
    Metric("solvers.twin.self_s", "s", "lower", ALL,
           "twin_greedy call time minus evaluate/can_add/add time inside it, per call. "
           "Moves " + _SELF_MOVES),
    Metric("solvers.twinfast.self_s", "s", "lower", ALL,
           "twin_greedy_fast self time per call. Moves " + _SELF_MOVES),
    Metric("solvers.samplegreedy.self_s", "s", "lower", (MONITOR,),
           "sample_greedy self time per call. Moves samplegreedy_s"),
    Metric("solvers.exact.self_s", "s", "lower", (CERTIFY,),
           "exact_max self time per call. Moves certify_p95_ms"),
    Metric("solvers.twin.inserts_per_query", "ratio", "higher", ALL,
           "insertions over value queries of twin_greedy. Moves twin_s"),
    Metric("solvers.twinfast.inserts_per_query", "ratio", "higher", ALL,
           "insertions over value queries of twin_greedy_fast. Moves twinfast_s"),
    Metric("solvers.samplegreedy.inserts_per_query", "ratio", "higher", (MONITOR,),
           "insertions over value queries of sample_greedy. Moves samplegreedy_s"),
    Metric("solvers.twinfast.passes", "count", "lower", ALL,
           "threshold passes per twin_greedy_fast call. Moves twinfast_s"),
    Metric("solvers.exact.sets_visited", "count", "lower", (CERTIFY,),
           "sets exact_max visits per pass. Moves certify_p95_ms"),
    Metric("generators.graph_s", "s", "lower", ALL,
           "graph, weight and part generation in set-up. Moves setup_s on marketing-rr"),
    Metric("generators.rr_sets_per_s", "1/s", "higher", (MARKETING,),
           "RR-set sampling throughput. Moves setup_s on marketing-rr"),
    Metric("generators.rr_set_mean_size", "count", "lower", (MARKETING,),
           "mean nodes per RR set. Moves setup_s and twin_s on marketing-rr"),
    Metric("certify.certify_run_ms", "ms", "lower", (CERTIFY,),
           "one certify_run call. Moves certify_p50_ms"),
    Metric("certify.value_queries", "count", "lower", (CERTIFY,),
           "evaluate calls made by certify_run per pass. Moves certify_p50_ms"),
    Metric("certify.is_independent_calls", "count", "lower", (CERTIFY,),
           "is_independent calls made by certify_run per pass. Moves certify_p50_ms"),
    Metric("trace.overhead_pct", "%", "lower", ALL,
           "traced over untraced pass time, minus one, in percent"),
)


def catalogue(trace: bool) -> tuple[Metric, ...]:
    return PER_LAYER if trace else END_TO_END


def gated(trace: bool) -> list[Metric]:
    """Metrics the result line carries: those defined on every workload.
    fail_ratio is 0 on a correct run and a listed metric must never be 0;
    the result line carries it as failed/attempted instead."""
    return [m for m in catalogue(trace) if m.everywhere and m.name != "fail_ratio"]


def benchmark_spec() -> dict:
    """The metric lists of BENCHMARK.json, derived from the catalogue."""
    return {
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in gated(False)],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in gated(True)],
    }


# ---------------------------------------------------------------------------
# statistics

TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def percentile(samples, pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def summarize(samples) -> dict:
    """Median (as "value"), quartiles, the highest percentile with at least
    ten samples beyond it, and the sample count."""
    samples = list(samples)
    out = {"value": statistics.median(samples), "samples": len(samples)}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        out.update(q1=q1, q3=q3)
    else:
        out.update(q1=samples[0], q3=samples[0])
    for pct in TAIL_PERCENTILES:
        if len(samples) * (100 - pct) / 100 >= 10:
            out["tail"] = {"pct": pct, "value": percentile(samples, pct)}
            break
    return out


def scaled_summary(samples) -> dict:
    """`summarize` of [(wall s, scaled s), ...] over the scaled seconds,
    with the median wall-clock seconds beside it as `wall`."""
    out = summarize(s for _, s in samples)
    out["wall"] = statistics.median(w for w, _ in samples)
    return out


def timing(samples_by_op: dict) -> dict:
    """A timing metric from {op: [(wall s, scaled s), ...]}: the median,
    over the workload's operations, of each operation's median scaled
    repeat in the run.

    On a shared machine the load of other tenants slows stretches of a
    run by 10-40%.  Scaling by the speed probe (speed.py) removes most of
    that slowdown, and the medians the rest.  Kept beside the value: the
    same statistic on wall-clock time (`wall`), the same over each
    operation's fastest scaled repeat (`fastest`), and the summary of all
    scaled samples (`raw` median, quartiles, tail, sample count)."""
    out = summarize(s for xs in samples_by_op.values() for _, s in xs)
    out["raw"] = out["value"]
    out["value"] = statistics.median(statistics.median(s for _, s in xs)
                                     for xs in samples_by_op.values())
    out["wall"] = statistics.median(statistics.median(w for w, _ in xs)
                                    for xs in samples_by_op.values())
    out["fastest"] = statistics.median(min(s for _, s in xs)
                                       for xs in samples_by_op.values())
    out["operations"] = len(samples_by_op)
    return out


# ---------------------------------------------------------------------------
# run records


def load_records(path: Path) -> list[dict]:
    """Run records from one result file, or from every *.json in a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        data = json.loads(f.read_text())
        records.extend(data if isinstance(data, list) else [data])
    return records
