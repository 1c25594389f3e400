"""Mechanized checks of the charging argument behind the twin-set solvers.

Given a finished run's report and an exactly-optimal set, this module
classifies the optimal elements against the report's insertion log,
rebuilds the backward-sweep charging maps into each side, and verifies
every inequality the approximation guarantee rests on.  Which guarantee
applies (exact or thresholded, with its epsilon and smallest bar) is read
from the report.  A report whose log does not replay to its sides, or
whose sides are not both independent, is rejected before any check.
Feasibility against a side's prefix is asked of the constraint's own
states, replayed from the log, as the solvers ask it.  A failure here
means a bug in a solver, a constraint, or an objective, not a tight
instance.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

from .constraints import rank
from .core import (TOL, CallableOracle, ContractViolation, GroundSet, InsertionLog, RunReport,
                   ValueOracle, bitmask, left_sum, members)


class CertificationError(RuntimeError):
    """The charging-map construction could not be completed."""


@dataclass
class ClassifiedOptimal:
    """Partition of an optimal set O against the final sides S1, S2.

    Elements of O inside a side split by whether they were still addable
    to the *other* side at their own insertion moment: the plus classes
    were, the minus classes were not.  Elements outside both sides land
    in o3/o4 when they no longer fit the respective final side, and the
    leftovers form o5/o6.
    """

    o1_plus: int = 0
    o1_minus: int = 0
    o2_plus: int = 0
    o2_minus: int = 0
    o3: int = 0
    o4: int = 0
    o5: int = 0
    o6: int = 0

    @property
    def pools(self) -> tuple[int, int]:
        """Per side, the optimal elements its charging map must cover."""
        return (self.o1_plus | self.o1_minus | self.o2_minus | self.o3,
                self.o1_minus | self.o2_plus | self.o2_minus | self.o4)

    @property
    def identities(self) -> tuple[int, int]:
        """Per side, the optimal elements its charging map sends to themselves."""
        return self.o1_plus | self.o1_minus, self.o2_plus | self.o2_minus

    def to_dict(self) -> dict:
        return {name: members(getattr(self, name)) for name in
                ("o1_plus", "o1_minus", "o2_plus", "o2_minus", "o3", "o4", "o5", "o6")}


@dataclass
class PiMapping:
    """Charging maps into each side; injective when p=1, preimages <= p otherwise."""

    pi1: dict[int, int] = field(default_factory=dict)
    pi2: dict[int, int] = field(default_factory=dict)

    def preimage_histogram(self) -> dict:
        out = {}
        for name, mapping in (("pi1", self.pi1), ("pi2", self.pi2)):
            sizes = Counter(Counter(mapping.values()).values())
            out[name] = {str(k): v for k, v in sorted(sizes.items())}
        return out


@dataclass
class InequalityRecord:
    name: str
    lhs: float
    rhs: float
    holds: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "holds": self.holds}


def _variant(report: RunReport) -> tuple[str, float, float | None]:
    """The guarantee a run is certified against: ("threshold", epsilon,
    smallest bar tested) for twin_greedy_fast, ("exact", 0.0, None) else."""
    if report.algorithm != "twin_greedy_fast":
        return "exact", 0.0, None
    params = report.parameters
    return "threshold", float(params.get("epsilon", 0.0)), params.get("tau_min")


def _replay(report: RunReport, constraint):
    """Fold the log through `constraint.add` (uncounted).

    Returns per side the list of its prefix states, entry k being the
    state after its first k insertions, and per logged element the two
    side lengths just before it was inserted.  A state stands for its
    prefix when the side is independent, which certify_run checks."""
    states = ([constraint.empty_state()], [constraint.empty_state()])
    before = {}
    for ent in report.log.entries:
        before[ent.element] = (len(states[0]) - 1, len(states[1]) - 1)
        side = states[ent.side - 1]
        side.append(constraint.add(side[-1], ent.element))
    return states, before


def classify(report: RunReport, optimal: int, constraint) -> ClassifiedOptimal:
    """Assign each optimal element to its class given a finished run."""
    s1, s2 = report.s1, report.s2
    states, before = _replay(report, constraint)
    cls = ClassifiedOptimal()
    for e in members(optimal & s1):
        if constraint.can_add(states[1][before[e][1]], e):
            cls.o1_plus |= 1 << e
        else:
            cls.o1_minus |= 1 << e
    for e in members(optimal & s2):
        if constraint.can_add(states[0][before[e][0]], e):
            cls.o2_plus |= 1 << e
        else:
            cls.o2_minus |= 1 << e
    outside = optimal & ~(s1 | s2)
    for e in members(outside):
        if not constraint.can_add(states[0][-1], e):
            cls.o3 |= 1 << e
        if not constraint.can_add(states[1][-1], e):
            cls.o4 |= 1 << e
    cls.o5 = outside & ~cls.o3
    cls.o6 = outside & ~cls.o4
    return cls


def _sweep(side_elements: list[int], states: list, pool: int, identity: int, constraint,
           p: int) -> dict[int, int]:
    """Backward sweep assigning pool elements to side elements.

    Walks the side from its last insertion to its first.  At step j the
    addable pool elements against the side's length-(j-1) prefix, whose
    state is `states[j - 1]`, form A_j.  An identity-reserved side element
    u_j takes itself plus the first p-1 others of A_j; any other step
    takes the first p of A_j.  The pool must be exhausted when the sweep
    ends.
    """
    mapping: dict[int, int] = {}
    remaining = pool
    prefix = bitmask(side_elements)
    for j in range(len(side_elements), 0, -1):
        u_j = side_elements[j - 1]
        prefix &= ~(1 << u_j)
        a_j = [x for x in members(remaining & ~prefix) if constraint.can_add(states[j - 1], x)]
        if (identity >> u_j) & 1:
            if u_j not in a_j:
                raise CertificationError(
                    f"identity element {u_j} unavailable at its own step")
            chosen = [u_j] + [x for x in a_j if x != u_j][: p - 1]
        else:
            chosen = a_j[:p]
        for x in chosen:
            mapping[x] = u_j
            remaining &= ~(1 << x)
    if remaining:
        raise CertificationError(
            f"charging sweep left elements unassigned: {members(remaining)}")
    return mapping


def build_pi(report: RunReport, classes: ClassifiedOptimal, constraint, p: int = 1) -> PiMapping:
    """Construct both charging maps; raises CertificationError on failure."""
    if p < 1:
        raise ContractViolation("p must be >= 1")
    states, _ = _replay(report, constraint)
    pi1, pi2 = (_sweep(report.log.side_elements(side), states[side - 1], classes.pools[side - 1],
                       classes.identities[side - 1], constraint, p) for side in (1, 2))
    return PiMapping(pi1=pi1, pi2=pi2)


def check_pi_properties(report: RunReport, classes: ClassifiedOptimal, pi: PiMapping,
                        constraint, p: int = 1) -> list[tuple[str, bool]]:
    """Verify domain coverage, feasibility at the target's moment, identity
    on the prescribed subsets, and the preimage cap.  An e already in the
    target's prefix is feasible there, as that prefix is independent; a
    target outside the side has no moment, so e is not feasible there."""
    pre = report.log.pre_masks()
    states, before = _replay(report, constraint)
    results = []
    for side, mapping, side_mask in ((1, pi.pi1, report.s1), (2, pi.pi2, report.s2)):
        results.append((f"pi{side}_domain", bitmask(mapping.keys()) == classes.pools[side - 1]))
        results.append((f"pi{side}_targets", all((side_mask >> t) & 1 for t in mapping.values())))
        results.append((f"pi{side}_identity", all(
            mapping.get(e) == e for e in members(classes.identities[side - 1]))))
        prefixes = states[side - 1]
        feasible = all(
            (side_mask >> t) & 1
            and ((pre[t][side - 1] >> e) & 1 or constraint.can_add(prefixes[before[t][side - 1]], e))
            for e, t in mapping.items()
        )
        results.append((f"pi{side}_feasible_at_target", feasible))
        worst = max(Counter(mapping.values()).values(), default=0)
        results.append((f"pi{side}_preimage_le_p", worst <= p))
    return results


def check_gain_bounds(f: ValueOracle, report: RunReport, classes: ClassifiedOptimal,
                      pi: PiMapping) -> list[InequalityRecord]:
    """The six class-wise gain inequalities.

    Each bounds the marginal value of one optimal class against a side by
    the logged gains of its charged targets; in the threshold variant the
    minus/outside classes pick up a (1+epsilon) factor.
    """
    _, epsilon, _ = _variant(report)
    s1, s2 = report.s1, report.s2
    gains = report.log.gains()
    kappa = 1.0 + epsilon
    rows = [
        ("o1_plus_vs_s2", classes.o1_plus, s2, pi.pi1, 1.0),
        ("o2_plus_vs_s1", classes.o2_plus, s1, pi.pi2, 1.0),
        ("o1_minus_vs_s2", classes.o1_minus, s2, pi.pi2, kappa),
        ("o2_minus_vs_s1", classes.o2_minus, s1, pi.pi1, kappa),
        ("o3_vs_s1", classes.o3, s1, pi.pi1, kappa),
        ("o4_vs_s2", classes.o4, s2, pi.pi2, kappa),
    ]
    records = []
    for name, cls_mask, base, mapping, factor in rows:
        if cls_mask == 0:
            records.append(InequalityRecord(name, 0.0, 0.0, True))
            continue
        lhs = f.evaluate(base | cls_mask) - f.evaluate(base)
        rhs = factor * left_sum(gains[mapping[e]] for e in members(cls_mask))
        records.append(InequalityRecord(name, lhs, rhs, lhs <= rhs + TOL))
    return records


def check_residuals(f: ValueOracle, report: RunReport,
                    classes: ClassifiedOptimal) -> list[InequalityRecord]:
    """Leftover optimal elements must have been rejected for cause.

    Exact variant: their gain on the side they fit is non-positive.
    Threshold variant: that gain is below the smallest bar tested.
    """
    _, _, tau_min = _variant(report)
    bound = 0.0 if tau_min is None else tau_min
    records = []
    for name, cls_mask, base in (("o5_vs_s1", classes.o5, report.s1),
                                 ("o6_vs_s2", classes.o6, report.s2)):
        if cls_mask == 0:
            records.append(InequalityRecord(name, 0.0, bound, True))
            continue
        fbase = f.evaluate(base)
        worst = max(f.evaluate(base | (1 << e)) - fbase for e in members(cls_mask))
        records.append(InequalityRecord(name, worst, bound, worst <= bound + TOL))
    return records


def check_log_gains(f: ValueOracle, log: InsertionLog):
    """Replay every insertion and compare the recorded gain; a NaN
    difference is the worst and fails."""
    pre = log.pre_masks()
    worst = 0.0
    for ent in log.entries:
        base = pre[ent.element][ent.side - 1]
        recomputed = f.evaluate(base | (1 << ent.element)) - f.evaluate(base)
        diff = abs(recomputed - ent.gain)
        worst = max(worst, diff) if diff == diff else diff  # max keeps a NaN worst
    return InequalityRecord("log_gain_replay", worst, 0.0, worst <= TOL)


def check_global_bound(report: RunReport, optimal_value: float, p: int = 1):
    """The end-to-end value inequality and the approximation ratio it implies."""
    variant, epsilon, _ = _variant(report)
    fs = report.f_s1 + report.f_s2
    if variant == "exact":
        combined = InequalityRecord("optimal_le_2f1_plus_2f2", optimal_value, 2.0 * fs,
                                    optimal_value <= 2.0 * fs + TOL)
        ratio_bound = 0.25
    else:
        rhs = (1.0 + (1.0 + epsilon) * p) * fs + 2.0 * epsilon * optimal_value
        combined = InequalityRecord("optimal_le_threshold_combination", optimal_value, rhs,
                                    optimal_value <= rhs + TOL)
        ratio_bound = (1.0 - 2.0 * epsilon) / (2.0 * p + 2.0 + 2.0 * p * epsilon)
    ratio = InequalityRecord("implied_ratio", ratio_bound * optimal_value, report.f_star,
                             report.f_star >= ratio_bound * optimal_value - TOL)
    degenerate = None
    if report.s2 == 0 or report.s1 == 0:
        lone = report.f_s1 if report.s2 == 0 else report.f_s2
        if variant == "exact":
            degenerate = InequalityRecord("lone_side_is_optimal", optimal_value, lone,
                                          abs(lone - optimal_value) <= TOL)
        else:
            want = (1.0 - epsilon) * optimal_value
            degenerate = InequalityRecord("lone_side_within_1_minus_eps", want, lone,
                                          lone >= want - TOL)
    return combined, ratio, degenerate


@dataclass
class CertificationReport:
    """Full result of certifying one run against one optimal set."""

    algorithm: str
    variant: str
    p: int
    epsilon: float
    optimal: int
    optimal_value: float
    classes: ClassifiedOptimal
    pi: PiMapping
    structural: list[tuple[str, bool]]
    inequalities: list[InequalityRecord]
    residuals: list[InequalityRecord]
    log_gain_check: InequalityRecord
    global_check: InequalityRecord
    ratio_check: InequalityRecord
    degenerate_check: InequalityRecord | None
    value_queries_used: int

    @property
    def ok(self) -> bool:
        records = self.inequalities + self.residuals + [self.log_gain_check,
                                                        self.global_check, self.ratio_check]
        if self.degenerate_check is not None:
            records.append(self.degenerate_check)
        return all(r.holds for r in records) and all(ok for _, ok in self.structural)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "variant": self.variant,
            "p": self.p,
            "epsilon": self.epsilon,
            "optimal": members(self.optimal),
            "optimal_value": self.optimal_value,
            "classes": self.classes.to_dict(),
            "pi_preimage_histogram": self.pi.preimage_histogram(),
            "structural": [{"name": n, "holds": ok} for n, ok in self.structural],
            "inequalities": [r.to_dict() for r in self.inequalities],
            "residuals": [r.to_dict() for r in self.residuals],
            "log_gain_replay": self.log_gain_check.to_dict(),
            "global_bound": self.global_check.to_dict(),
            "implied_ratio": self.ratio_check.to_dict(),
            "degenerate": None if self.degenerate_check is None else self.degenerate_check.to_dict(),
            "ok": self.ok,
            "value_queries_used": self.value_queries_used,
        }


def certify_run(f: ValueOracle, constraint, report: RunReport, optimal: int,
                optimal_value: float, p: int = 1) -> CertificationReport:
    """Run the whole certification pipeline for one finished run.

    The checks trust the report's sides, so a log that `InsertionLog.validate`
    rejects (an id outside 0..n-1 and a non-finite gain included) or that
    does not replay to them raises CertificationError, and so does a side
    that is not independent: the checks replay each side's prefixes
    through the constraint's states, which stand for those prefixes only
    because the family is hereditary.  So does an optimal set larger than
    p times `rank(constraint)`: that greedy base is within a factor p of
    every base of a p-set system, so the stated p is wrong.
    """
    try:
        report.log.validate(report.n)
    except ContractViolation as exc:
        raise CertificationError(f"malformed insertion log: {exc}") from None
    if report.log.replay() != (report.s1, report.s2):
        raise CertificationError("the insertion log does not replay to the reported sides")
    for side, mask in ((1, report.s1), (2, report.s2)):
        if not constraint.is_independent(mask):
            raise CertificationError(f"side {side} is not independent")
    base = rank(constraint, GroundSet(report.n))
    if optimal.bit_count() > p * base:
        raise CertificationError(f"the optimal set has {optimal.bit_count()} elements, more than "
                                 f"p * rank = {p} * {base}: the constraint is not a {p}-set system")
    variant, epsilon, _ = _variant(report)
    q0 = f.query_count
    cached = CallableOracle(functools.cache(f.evaluate))
    classes = classify(report, optimal, constraint)
    pi = build_pi(report, classes, constraint, p=p)
    global_check, ratio_check, degenerate = check_global_bound(report, optimal_value, p=p)
    return CertificationReport(
        algorithm=report.algorithm,
        variant=variant,
        p=p,
        epsilon=epsilon,
        optimal=optimal,
        optimal_value=optimal_value,
        classes=classes,
        pi=pi,
        structural=check_pi_properties(report, classes, pi, constraint, p=p),
        inequalities=check_gain_bounds(cached, report, classes, pi),
        residuals=check_residuals(cached, report, classes),
        log_gain_check=check_log_gains(cached, report.log),
        global_check=global_check,
        ratio_check=ratio_check,
        degenerate_check=degenerate,
        value_queries_used=f.query_count - q0,
    )
