import os
import re
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinopt as t
from twinopt.core import (MAX_HEADER_COUNT, CallableOracle, LogEntry, read_dense, read_rows,
                          write_rows)

import helpers


@pytest.mark.parametrize("n", [-1, 2.5, "3", None], ids=repr)
def test_ground_set_rejects_an_n_that_is_not_an_int_at_least_zero(n):
    with pytest.raises(t.ContractViolation, match=f"an int size n >= 0, got {n!r}"):
        t.GroundSet(n)


@pytest.mark.parametrize("n", [-1, 2.5, 2.0, "3", None], ids=repr)
@pytest.mark.parametrize("build", [lambda n: CallableOracle(float, n),
                                   lambda n: t.IndependenceOracle(n)], ids=["value", "independence"])
def test_oracles_reject_a_ground_size_that_is_not_an_int_at_least_zero(build, n):
    """The size is checked where it is given, so no query fails later in a
    shift (a negative n) or a comparison (a float n)."""
    with pytest.raises(t.ContractViolation, match=f"an int ground size n >= 0, got {n!r}"):
        build(n)


def test_callable_oracles_of_bad_sizes_no_longer_fail_inside_a_query():
    """`CallableOracle(float, -1).evaluate(0)` ended in `ValueError:
    negative shift count`, and `CallableOracle(float, 2.5).evaluate(1)` in
    a TypeError; both oracles are now refused as they are built."""
    for n in (-1, 2.5):
        with pytest.raises(t.ContractViolation):
            CallableOracle(float, n)
    assert CallableOracle(float, 0).evaluate(0) == 0.0


@given(st.sets(st.integers(0, 63)), st.sets(st.integers(0, 63)))
def test_mask_algebra_inclusion_exclusion(a_ids, b_ids):
    a, b = t.bitmask(a_ids), t.bitmask(b_ids)
    assert (a | b).bit_count() + (a & b).bit_count() == a.bit_count() + b.bit_count()
    assert set(t.members(a)) == a_ids


def test_query_counter_increments_once_per_evaluate():
    f = CallableOracle(lambda mask: float(mask.bit_count()), 4)
    for expected in range(1, 6):
        f.evaluate(0b1011)
        assert f.query_count == expected


class _BasedCount(t.ValueOracle):
    """|S| over 0..3, with base objects; a based query answers `plus`."""

    def __init__(self, plus):
        super().__init__(4)
        self.plus = plus

    def _value(self, mask):
        return float(mask.bit_count())

    def _new_base(self, mask):
        return types.SimpleNamespace(mask=mask)

    def _value_plus(self, base, e):
        return self.plus


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1.0], ids=repr)
def test_based_query_follows_the_value_rule(bad):
    f = _BasedCount(bad)
    base = f.base(0b001)
    assert f.evaluate(0b011) == 2.0 and f.evaluate(base) == 1.0 and f.evaluate(0b001, 1) == 2.0
    with pytest.raises(t.ContractViolation, match=re.escape(f"f([0, 1]) is {bad}: a value must")):
        f.evaluate(base, 1)
    assert f.query_count == 4
    assert _BasedCount(0.0).evaluate(base, 1) == 0.0


# a negative mask used to send members()'s `mask & -mask` loop round for
# ever, also from the value rule's message; run in a child with a timeout,
# so a hang fails the test instead of stalling the suite
NEGATIVE_MASK = """
import twinopt as t
for query in (lambda: t.CallableOracle(lambda mask: -1.0, 4).evaluate(-3), lambda: t.members(-3)):
    try:
        query()
    except t.ContractViolation as exc:
        print(exc)
"""


def test_a_negative_mask_is_rejected_not_looped_over():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", NEGATIVE_MASK], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=60, check=True)
    assert run.stdout == "a set mask must be >= 0, not -3\n" * 2


@pytest.mark.parametrize("mask", [-1, -3, -(1 << 70)])
def test_negative_masks_are_no_sets(mask):
    error = re.escape(f"a set mask must be >= 0, not {mask}")
    oracles = [CallableOracle(float, 2), t.ModularObjective([1.0, 2.0]), _BasedCount(0.0)]
    for f in oracles:
        with pytest.raises(t.ContractViolation, match=error):
            f.evaluate(mask)
        with pytest.raises(t.ContractViolation, match=error):
            f.evaluate(mask, 1)
        with pytest.raises(t.ContractViolation, match=error):
            f.base(mask)
        assert f.query_count == 2
    with pytest.raises(t.ContractViolation, match=error):
        t.UniformMatroid(4, 2).is_independent(mask)


def test_submodularity_check_accepts_weighted_cut():
    graph, ground, oracle, _ = helpers.cut_instance(8, seed=3)
    ok, witness = t.submodularity_check(oracle(), ground, trials=1000, seed=1)
    assert ok and witness is None


def test_submodularity_check_rejects_supermodular_square():
    ground = t.GroundSet(4)
    f = CallableOracle(lambda mask: float(mask.bit_count() ** 2), 4)
    ok, witness = t.submodularity_check(f, ground, trials=200, seed=1)
    assert not ok
    assert witness["lhs"] > witness["rhs"]


def test_insertion_log_replay_and_pre():
    log = t.InsertionLog()
    log.append(element=3, side=1, gain=2.0)
    log.append(element=1, side=2, gain=1.5)
    log.append(element=0, side=1, gain=0.5)
    s1, s2 = log.replay()
    assert t.members(s1) == [0, 3] and t.members(s2) == [1]
    pre = log.pre_masks()
    assert list(pre) == [3, 1, 0]
    assert pre[3] == (0, 0) and pre[1] == (0b1000, 0) and pre[0] == (0b1000, 0b0010)
    assert log.side_elements(1) == [3, 0]
    log.validate(4)


def test_insertion_log_validate_rejects_duplicates():
    log = t.InsertionLog()
    log.append(element=2, side=1, gain=1.0)
    log.append(element=2, side=2, gain=1.0)
    with pytest.raises(t.ContractViolation):
        log.validate(3)


def test_insertion_log_validate_rejects_position_gap():
    log = t.InsertionLog(entries=[LogEntry(element=0, side=1, position=1, gain=1.0)])
    with pytest.raises(t.ContractViolation):
        log.validate(1)


@pytest.mark.parametrize("element, gain, error", [
    (-1, 1.0, "element -1 outside the ground set of size 4"),
    (4, 1.0, "element 4 outside the ground set of size 4"),
    (2, float("nan"), "element 2 has gain nan"),
    (2, float("inf"), "element 2 has gain inf"),
    (2, float("-inf"), "element 2 has gain -inf"),
])
def test_insertion_log_validate_rejects_ids_outside_n_and_non_finite_gains(element, gain, error):
    log = t.InsertionLog()
    log.append(element=0, side=1, gain=1.0)
    log.append(element=element, side=2, gain=gain)
    with pytest.raises(t.ContractViolation, match=re.escape(error)):
        log.validate(4)


def test_run_report_invariants_enforced():
    log = t.InsertionLog()
    with pytest.raises(t.ContractViolation):
        t.RunReport(algorithm="x", n=2, parameters={}, s1=0b01, s2=0b01, s_star=0b01,
                    f_s1=1.0, f_s2=1.0, f_star=1.0, log=log, value_queries=0,
                    independence_checks=0, wall_time_s=0.0)
    with pytest.raises(t.ContractViolation):
        t.RunReport(algorithm="x", n=2, parameters={}, s1=0b01, s2=0b10, s_star=0b01,
                    f_s1=1.0, f_s2=2.0, f_star=1.0, log=log, value_queries=0,
                    independence_checks=0, wall_time_s=0.0)


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_solver_query_accounting_cross_check(seed):
    # the oracle's counter and the solver's own count must agree exactly
    graph, ground, oracle, constraint = helpers.cut_instance(7, seed=seed % 1000)
    f = oracle()
    report = t.twin_greedy(f, constraint(), ground)
    assert report.value_queries == f.query_count


def test_log_replay_matches_report_sides():
    graph, ground, oracle, constraint = helpers.cut_instance(9, seed=21)
    report = t.twin_greedy(oracle(), constraint(), ground)
    assert report.log.replay() == (report.s1, report.s2)


def test_read_rows_header_comments_and_blank_lines(tmp_path):
    path = tmp_path / "rows.txt"
    path.write_text("# a comment\n\n# nodes 4 directed 1\n  1 2  \n# the nodes are cities\n3\n")
    header, rows = read_rows(path, "ids", lambda fields, header: [int(x) for x in fields],
                             keys=("nodes", "directed"))
    assert header == {"nodes": 4, "directed": 1}
    assert rows == [[1, 2], [3]]


@pytest.mark.parametrize("text, lineno, message", [
    ("1\n2 x\n", 2, "expected 'ids', got '2 x'"),
    ("# nodes -1\n", 1, "expected '# nodes N'"),
    ("1\n# nodes 3\n", 2, "the header must come before the first row"),
    ("1\nbad\xff\n", 2, "expected 'ids'"),
    (f"# nodes {MAX_HEADER_COUNT + 1}\n", 1, f"header count {MAX_HEADER_COUNT + 1} is above"),
], ids=["token", "negative-count", "late-header", "undecodable-byte", "count-above-max"])
def test_read_rows_errors_name_path_and_line(tmp_path, text, lineno, message):
    path = tmp_path / "rows.txt"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(t.ContractViolation, match=re.escape(f"{path}:{lineno}: {message}")):
        read_rows(path, "ids", lambda fields, header: [int(x) for x in fields], keys=("nodes",))


def test_read_dense_rejects_gaps_and_repeats(tmp_path):
    path = tmp_path / "dense.txt"
    path.write_text("1 b\n0 a\n")
    assert read_dense(path, "id name", str) == ["a", "b"]
    for text in ("0 a\n0 b\n", "0 a\n2 b\n", "-1 a\n"):
        path.write_text(text)
        with pytest.raises(t.ContractViolation, match="exactly once"):
            read_dense(path, "id name", str)


def test_write_rows_round_trips_through_read_rows(tmp_path):
    path = tmp_path / "rows.txt"
    rows = [(0, 1, 0.1), (2, 3, 1e-300)]
    write_rows(path, rows, {"nodes": 4})
    assert path.read_text() == "# nodes 4\n0 1 0.1\n2 3 1e-300\n"
    header, back = read_rows(path, "u v w", lambda f, h: (int(f[0]), int(f[1]), float(f[2])),
                             keys=("nodes",))
    assert header == {"nodes": 4} and back == rows
