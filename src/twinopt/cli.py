"""Batch front-end: instance generation, solver runs, sweeps, certification.

Exit codes: 0 success, 2 usage error, 3 certification violation, 4 I/O
error.  Every emitted artifact embeds the parameters and seeds needed to
reproduce it; pass --no-timing to zero the wall-time fields so reruns
with identical flags are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import certify as certify_mod
from . import constraints as cons
from . import generators as gen
from . import objectives as obj
from .core import ContractViolation, GroundSet, ParameterError, read_fixed_rows, read_rows
from .solvers import exact_max, solve

CSV_HEADER = ["algo", "axis", "rep", "utility", "value_queries",
              "independence_checks", "wall_time_s", "solution_size"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CERT = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


def _master_seed(value):
    """The --seed flag, else TWINOPT_SEED, else 0; a negative seed is a usage error."""
    source = "--seed"
    if value is None:
        source = "TWINOPT_SEED"
        value = _parse_list(source, os.environ.get(source, "0"), int, count=1)[0]
    if value < 0:
        raise UsageError(f"{source} must be >= 0, got {value}")
    return value


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _echo(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# constraint specs


def parse_constraint_spec(spec: str, n: int):
    """Build an independence oracle from a `kind:key=value,...` spec string.

    Kinds: uniform:k=K | partition:cap=K,(parts=FILE | h=H,seed=S)
    | seedmatroid:v=V,m=M,k=K | psystem:p=P,cap=K,h=H,seed=S
    """
    try:
        kind, _, rest = spec.partition(":")
        kv = {k.strip(): v.strip() for k, _, v in (item.partition("=") for item in rest.split(","))}
        if kind == "uniform":
            return cons.UniformMatroid(n, int(kv["k"]))
        if kind == "partition":
            cap = int(kv["cap"])
            if "parts" in kv:
                part_of = cons.load_partition(kv["parts"])
                if len(part_of) != n:
                    raise UsageError("partition file does not cover the ground set")
            else:
                part_of = gen.assign_groups(n, int(kv["h"]), int(kv.get("seed", "0")))
            return cons.PartitionMatroid(part_of, cap)
        if kind == "seedmatroid":
            if "file" in kv:
                rows = read_rows(kv["file"], "V m k", lambda f, _: cons.parse_seed_config(" ".join(f)))[1]
                if len(rows) != 1:
                    raise UsageError(f"{kv['file']}: expected one 'V m k' line, got {len(rows)}")
                v, m, k = rows[0]
            else:
                v, m, k = int(kv["v"]), int(kv["m"]), int(kv["k"])
            oracle = cons.SeedMatroid(v, m, k)
            if oracle.n != n:
                raise UsageError(f"seed matroid ground {oracle.n} != objective ground {n}")
            return oracle
        if kind == "psystem":
            cap, h, seed = int(kv["cap"]), int(kv["h"]), int(kv.get("seed", "0"))
            return cons.IntersectionSystem([
                cons.PartitionMatroid(gen.assign_groups(n, h, seed + i), cap)
                for i in range(int(kv["p"]))])
    except (UsageError, OSError):
        raise
    except Exception as exc:
        raise UsageError(f"bad constraint spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown constraint kind in {spec!r}")


# ---------------------------------------------------------------------------
# objective assembly


def _weight_row(fields, header):
    w = float(*fields)
    if not 0.0 <= w < math.inf:
        raise ContractViolation(f"weight {w} must be finite and >= 0")
    return (w,)


def _load_modular_weights(path):
    """One finite weight >= 0 per line."""
    rows = read_fixed_rows(path, "weight", _weight_row, (float,),
                           lambda header, w: bool(((0.0 <= w) & (w < math.inf)).all()))[1]
    return [w for w, in rows]


def build_objective(args):
    """Returns (oracle, input file hashes); the ground set is 0..oracle.n-1."""
    if args.objective == "cut":
        if not args.graph:
            raise UsageError("cut objective needs --graph")
        inputs = [args.graph]
        f = obj.CutMonitorObjective(obj.load_edge_list(args.graph, directed=False))
    elif args.objective == "modular":
        if not args.weights_file:
            raise UsageError("modular objective needs --weights-file")
        inputs = [args.weights_file]
        f = obj.ModularObjective(_load_modular_weights(args.weights_file))
    elif args.objective == "marketing":
        if not (args.rrsets and args.costs):
            raise UsageError("marketing objective needs --rrsets and --costs")
        inputs = args.rrsets.split(",") + [args.costs]
        f = obj.MarketingObjective([obj.load_rr_sets(p) for p in inputs[:-1]],
                                   obj.load_costs(args.costs), args.budget)
    else:
        raise UsageError(f"unknown objective {args.objective!r}")
    return f, {p: _sha256(p) for p in inputs}


def _parse_list(flag, text, kind, count=None):
    """Parse a comma-separated flag value; a bad value is a usage error."""
    try:
        values = [kind(v) for v in text.split(",")]
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    raise UsageError(f"{flag} expects {count or 'comma-separated'} {kind.__name__} values: {text!r}")


def _csv_row(algo, axis, rep, report_dict):
    return [algo, axis, rep, repr(report_dict["f_star"]), report_dict["value_queries"],
            report_dict["independence_checks"], repr(report_dict["wall_time_s"]),
            report_dict["solution_size"]]


def _append_csv(path, rows, write_header):
    mode = "w" if write_header else "a"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if write_header:
            writer.writerow(CSV_HEADER)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_graph(args) -> int:
    seed = _master_seed(args.seed)
    if args.model == "er":
        if args.p is None:
            raise UsageError("er model needs --p")
        graph = gen.gen_er(args.n, args.p, seed)
    elif args.model == "ba":
        if args.m0 is None or args.m is None:
            raise UsageError("ba model needs --m0 and --m")
        graph = gen.gen_ba(args.n, args.m0, args.m, seed)
    else:
        raise UsageError(f"unknown model {args.model!r}")
    if args.weights:
        lo, hi = _parse_list("--weights", args.weights, float, count=2)
        graph = gen.assign_weights_uniform(graph, lo, hi, seed + 1)
    parts = gen.assign_groups(args.n, args.groups, seed + 2) if args.groups is not None else None
    obj.save_edge_list(args.out, graph)
    files = {args.out: {"sha256": _sha256(args.out), "bytes": os.path.getsize(args.out)}}
    if parts is not None:
        parts_path = args.out + ".parts"
        cons.save_partition(parts_path, parts)
        files[parts_path] = {"sha256": _sha256(parts_path),
                             "bytes": os.path.getsize(parts_path)}
    _echo({
        "command": "gen-graph",
        "parameters": {"model": args.model, "n": args.n, "p": args.p, "m0": args.m0,
                       "m": args.m, "weights": args.weights, "groups": args.groups},
        "seed": seed,
        "rng": gen.RNG_ID,
        "files": files,
    })
    return EXIT_OK


def cmd_gen_rrsets(args) -> int:
    seed = _master_seed(args.seed)
    graph = obj.load_edge_list(args.graph, directed=True)
    if args.indegree_probs:
        graph = gen.set_indegree_probabilities(graph)
    collection = gen.gen_rr_sets(graph, args.count, seed)
    obj.save_rr_sets(args.out, collection)
    _echo({
        "command": "gen-rrsets",
        "parameters": {"graph": args.graph, "count": args.count,
                       "indegree_probs": bool(args.indegree_probs)},
        "seed": seed,
        "rng": gen.RNG_ID,
        "input_hashes": {args.graph: _sha256(args.graph)},
        "files": {args.out: {"sha256": _sha256(args.out),
                             "bytes": os.path.getsize(args.out)}},
    })
    return EXIT_OK


def cmd_run(args) -> int:
    seed = _master_seed(args.seed)
    f, hashes = build_objective(args)
    constraint = parse_constraint_spec(args.constraint, f.n)
    report = solve(args.algo, f, constraint, GroundSet(f.n),
                   epsilon=args.epsilon, q=args.q, seed=seed)
    payload = report.to_dict(include_timing=not args.no_timing)
    payload["invocation"] = {
        "algo": args.algo, "objective": args.objective, "constraint": args.constraint,
        "epsilon": args.epsilon, "q": args.q, "seed": seed,
    }
    payload["input_hashes"] = hashes
    if args.out:
        _write_json(args.out, payload)
    _echo(payload)
    if args.csv:
        exists = os.path.exists(args.csv)
        _append_csv(args.csv, [_csv_row(args.algo, "", 0, payload)], write_header=not exists)
    return EXIT_OK


def _sweep_cell(task):
    """One (algorithm, axis value, rep) sweep cell; runs in a worker."""
    f = task["f"]
    constraint = parse_constraint_spec(task["constraint"], f.n)
    report = solve(task["algo"], f, constraint, GroundSet(f.n),
                   epsilon=task["epsilon"], q=task["q"], seed=task["seed"])
    payload = report.to_dict(include_timing=task["timing"])
    return _csv_row(task["algo"], task["axis"], task["rep"], payload)


def cmd_sweep(args) -> int:
    seed = _master_seed(args.seed)
    for flag, value in (("--reps", args.reps), ("--jobs", args.jobs)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    if args.axis == "k" and "{k}" not in args.constraint:
        raise UsageError(f"--constraint must hold {{k}} for --axis k, got {args.constraint!r}")
    axis_values = _parse_list("--values", args.values, float if args.axis == "epsilon" else int)
    algos = args.algos.split(",")
    f, hashes = build_objective(args)
    tasks = []
    for ai, axis_value in enumerate(axis_values):
        if args.axis == "k":
            spec = args.constraint.replace("{k}", str(axis_value))
        else:
            spec = args.constraint
        for algo in algos:
            reps = args.reps if algo == "samplegreedy" else 1
            for rep in range(reps):
                epsilon = axis_value if (args.axis == "epsilon" and algo == "twinfast") \
                    else args.epsilon
                tasks.append({
                    "f": f, "constraint": spec, "algo": algo,
                    "axis": axis_value, "rep": rep, "epsilon": epsilon, "q": args.q,
                    "seed": seed * 100000 + ai * 1000 + rep,
                    "timing": not args.no_timing,
                })
    # a fork pool starts every worker at the first submit, so never ask
    # for more than there are cells or CPUs
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, tasks))
    else:
        rows = [_sweep_cell(t) for t in tasks]
    rows.sort(key=lambda r: (r[0], float(r[1]), int(r[2])))
    _append_csv(args.out, rows, write_header=True)
    if args.svg:
        _write_sweep_charts(args.svg, rows)
    _echo({
        "command": "sweep",
        "parameters": {"axis": args.axis, "values": args.values, "algos": args.algos,
                       "graph": args.graph, "constraint": args.constraint,
                       "epsilon": args.epsilon, "q": args.q, "reps": args.reps,
                       "jobs": args.jobs},
        "seed": seed,
        "rng": gen.RNG_ID,
        "input_hashes": hashes,
        "cells": len(rows),
        "out": args.out,
    })
    return EXIT_OK


def _write_sweep_charts(prefix, rows):
    panels = [("queries", 4, "value queries"), ("time", 6, "wall time (s)"),
              ("utility", 3, "utility")]
    for name, col, ylabel in panels:
        series: dict[str, dict[float, list[float]]] = {}
        for row in rows:
            series.setdefault(row[0], {}).setdefault(float(row[1]), []).append(float(row[col]))
        lines = {
            algo: sorted((x, sum(ys) / len(ys)) for x, ys in pts.items())
            for algo, pts in series.items()
        }
        _write_svg(f"{prefix}_{name}.svg", ylabel, lines)


def _write_svg(path, ylabel, lines):
    """Tiny self-contained polyline chart; no plotting dependency."""
    width, height, pad = 640, 400, 50
    xs = [x for pts in lines.values() for x, _ in pts]
    ys = [y for pts in lines.values() for _, y in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def px(x):
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / y_span * (height - 2 * pad)

    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle" font-size="12">axis</text>',
        f'<text x="15" y="{height // 2}" font-size="12" transform="rotate(-90 15 {height // 2})" text-anchor="middle">{ylabel}</text>',
        f'<text x="{pad}" y="{height - pad + 15}" font-size="10">{x_lo:g}</text>',
        f'<text x="{width - pad}" y="{height - pad + 15}" font-size="10" text-anchor="end">{x_hi:g}</text>',
        f'<text x="{pad - 5}" y="{height - pad}" font-size="10" text-anchor="end">{y_lo:g}</text>',
        f'<text x="{pad - 5}" y="{pad + 4}" font-size="10" text-anchor="end">{y_hi:g}</text>',
    ]
    for idx, (algo, pts) in enumerate(sorted(lines.items())):
        color = palette[idx % len(palette)]
        coords = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - pad + 2}" y="{pad + 14 * idx + 10}" font-size="10" fill="{color}">{algo}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_certify(args) -> int:
    seed = _master_seed(args.seed)
    if args.instances < 1:
        raise UsageError(f"--instances must be >= 1, got {args.instances}")
    if not 4 <= args.n_max <= 20:
        raise UsageError(f"--n-max must be in 4..20, got {args.n_max}")
    if args.p < 1:
        raise UsageError(f"--p must be >= 1, got {args.p}")
    p = args.p if args.constraint == "psystem" else 1
    kind = f"psystem:p={p}," if args.constraint == "psystem" else "partition:"
    algos = ["twin", "twinfast"] if args.algo == "both" else [args.algo]
    records = []
    violations = 0
    for idx in range(args.instances):
        inst_seed = seed * 1_000_003 + idx
        n = 4 + idx % (args.n_max - 3)
        graph = gen.assign_weights_uniform(gen.gen_er(n, 0.5, inst_seed), 0.0, 1.0,
                                           inst_seed + 1)
        ground = GroundSet(n)
        oracle = obj.CutMonitorObjective(graph)
        constraint = parse_constraint_spec(f"{kind}cap=2,h=2,seed={inst_seed + 2}", n)
        optimum = exact_max(oracle, constraint, ground)
        for algo in algos:
            report = solve(algo, oracle, constraint, ground, epsilon=args.epsilon)
            try:
                cert = certify_mod.certify_run(oracle, constraint, report,
                                               optimum.solution, optimum.value, p=p)
                ok = cert.ok
                summary = cert.to_dict()
            except certify_mod.CertificationError as exc:
                ok = False
                summary = {"error": str(exc)}
            if not ok:
                violations += 1
            records.append({"instance": idx, "n": n, "algo": algo, "ok": ok,
                            "detail": summary})
    payload = {
        "command": "certify",
        "parameters": {"instances": args.instances, "n_max": args.n_max,
                       "constraint": args.constraint, "p": p,
                       "epsilon": args.epsilon, "algo": args.algo},
        "seed": seed,
        "violations": violations,
        "runs": len(records),
        "records": records if args.full else [
            {k: r[k] for k in ("instance", "n", "algo", "ok")} for r in records
        ],
    }
    if args.out:
        _write_json(args.out, payload)
    else:
        _echo(payload)
    return EXIT_CERT if violations else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twinopt",
                                     description="submodular maximization benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-graph", help="generate a synthetic graph")
    g.add_argument("--model", choices=["er", "ba"], required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float)
    g.add_argument("--m0", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--weights", help="lo,hi uniform edge weights")
    g.add_argument("--groups", type=int, help="also write a random h-way partition")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_graph)

    r = sub.add_parser("gen-rrsets", help="sample reverse-reachable sets")
    r.add_argument("--graph", required=True)
    r.add_argument("--count", type=int, required=True)
    r.add_argument("--indegree-probs", action="store_true",
                   help="set p(u,v) = 1/indegree(v) before sampling")
    r.add_argument("--seed", type=int)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_gen_rrsets)

    u = sub.add_parser("run", help="run one algorithm on one instance")
    u.add_argument("--algo", choices=["twin", "twinfast", "samplegreedy", "greedy", "exact"],
                   required=True)
    u.add_argument("--objective", choices=["cut", "marketing", "modular"], required=True)
    u.add_argument("--graph")
    u.add_argument("--weights-file")
    u.add_argument("--rrsets", help="comma-separated RR-set files, one per product")
    u.add_argument("--costs")
    u.add_argument("--budget", type=float)
    u.add_argument("--constraint", required=True)
    u.add_argument("--epsilon", type=float)
    u.add_argument("--q", type=float, default=0.5)
    u.add_argument("--seed", type=int)
    u.add_argument("--out")
    u.add_argument("--csv")
    u.add_argument("--no-timing", action="store_true")
    u.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="sweep an axis over algorithms")
    s.add_argument("--axis", choices=["k", "epsilon"], required=True)
    s.add_argument("--values", required=True)
    s.add_argument("--algos", required=True)
    s.add_argument("--graph", required=True)
    s.add_argument("--constraint", required=True,
                   help="spec; use {k} as the cap placeholder when axis=k")
    s.add_argument("--epsilon", type=float, default=0.1)
    s.add_argument("--q", type=float, default=0.5)
    s.add_argument("--reps", type=int, default=10)
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--seed", type=int)
    s.add_argument("--out", required=True)
    s.add_argument("--svg", help="prefix for queries/time/utility charts")
    s.add_argument("--no-timing", action="store_true")
    s.set_defaults(func=cmd_sweep, objective="cut")

    c = sub.add_parser("certify", help="certify solver runs on random instances")
    c.add_argument("--instances", type=int, default=100)
    c.add_argument("--n-max", type=int, default=10)
    c.add_argument("--constraint", choices=["matroid", "psystem"], default="matroid")
    c.add_argument("--p", type=int, default=2)
    c.add_argument("--epsilon", type=float, default=0.1)
    c.add_argument("--algo", choices=["twin", "twinfast", "both"], default="both")
    c.add_argument("--seed", type=int)
    c.add_argument("--out")
    c.add_argument("--full", action="store_true", help="embed full per-run detail")
    c.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ParameterError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
