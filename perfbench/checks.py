"""Output checks.  Each returns a list of failure messages; an operation
with any message counts as failed, and the run goes on.

- `side_check` runs on every execution: the two sides are disjoint and
  both pass `is_independent` on the instance's own constraint.
- `deep_check` runs on the first execution of each operation, outside the
  timed region: the log replays on a fresh oracle (`check_log_gains`),
  `f_star` equals a fresh `evaluate(s_star)`, and on certify-small every
  certificate holds and `exact_max` equals a brute-force optimum.
- `reference_check` compares the first execution with the insertion
  sequences and values recorded in reference.json (default seed only).
- Later executions must reproduce the first one exactly (`signature`).
"""

from __future__ import annotations

import math

import numpy as np

from twinopt import ExactResult, RunReport
from twinopt.certify import check_log_gains

REL_TOL = 1e-9


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _reports(result):
    return [(name, r) for name, r in result.items() if isinstance(r, RunReport)]


def side_check(inst, result) -> list[str]:
    fails = []
    for name, r in _reports(result):
        if r.s1 & r.s2:
            fails.append(f"{name}: the two sides overlap")
        for side, mask in ((1, r.s1), (2, r.s2)):
            if not inst.c.is_independent(mask):
                fails.append(f"{name}: side {side} is not independent")
    return fails


def brute_force_optimum(inst) -> float:
    """Best feasible cut value over all 2^n subsets, computed with NumPy
    independently of exact_max."""
    n = inst.ground.n
    x = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    w = np.zeros((n, n))
    for u, v, wt in inst.graph.edges:
        w[u, v] += wt
        w[v, u] += wt
    values = ((x @ w) * (1.0 - x)).sum(axis=1)
    feasible = np.ones(len(x), dtype=bool)
    for part_of in inst.partitions:
        onehot = np.eye(max(part_of) + 1)[part_of]
        feasible &= ((x @ onehot) <= inst.cap).all(axis=1)
    return float(values[feasible].max())


def deep_check(inst, result) -> list[str]:
    fails = []
    for name, r in _reports(result):
        fresh = inst.fresh()
        replay = check_log_gains(fresh, r.log)
        if not replay.holds:
            fails.append(f"{name}: logged gains differ from a replay by {replay.lhs:g}")
        value = fresh.evaluate(r.s_star)
        if not _close(r.f_star, value):
            fails.append(f"{name}: f_star {r.f_star!r} but evaluate(s_star) is {value!r}")
    for i, cert in enumerate(result.get("certify", ())):
        if not cert.ok:
            fails.append(f"certify[{i}]: certificate does not hold")
    if "exact" in result:
        want = brute_force_optimum(inst)
        if not _close(result["exact"].value, want):
            fails.append(f"exact: {result['exact'].value!r} but brute force gives {want!r}")
    return fails


def outcome(result) -> dict:
    """The part of a result that reference.json records."""
    out = {}
    for name, r in result.items():
        if isinstance(r, RunReport):
            out[name] = {"log": [[e.element, e.side] for e in r.log.entries],
                         "f_star": r.f_star}
        elif isinstance(r, ExactResult):
            out[name] = {"value": r.value}
    return out


def reference_check(want: dict, result) -> list[str]:
    got = outcome(result)
    fails = []
    for name, ref in want.items():
        have = got.get(name)
        if have is None:
            fails.append(f"{name}: missing from the result")
            continue
        if "log" in ref and have["log"] != ref["log"]:
            at = next((i for i, (a, b) in enumerate(zip(have["log"], ref["log"])) if a != b),
                      min(len(have["log"]), len(ref["log"])))
            fails.append(f"{name}: insertion sequence differs from the reference at {at}")
        for key in ("f_star", "value"):
            if key in ref and not _close(have[key], ref[key]):
                fails.append(f"{name}: {key} {have[key]!r}, reference {ref[key]!r}")
    return fails


def signature(result) -> tuple:
    """Everything a repeat of the same operation must reproduce exactly."""
    sig = []
    for name, r in sorted(result.items()):
        if isinstance(r, RunReport):
            sig.append((name, tuple((e.element, e.side, e.gain) for e in r.log.entries),
                        r.f_star, r.value_queries, r.independence_checks))
        elif isinstance(r, ExactResult):
            sig.append((name, r.solution, r.value, r.sets_visited))
        else:
            sig.append((name, tuple(c.ok for c in r)))
    return tuple(sig)

