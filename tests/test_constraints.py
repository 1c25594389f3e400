import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twinopt as t
from twinopt.constraints import (
    greedy_base_size,
    hereditary_check,
    load_partition,
    parse_seed_config,
    save_partition,
)

import helpers


def test_uniform_matroid_cardinality_rule():
    m = t.UniformMatroid(5, 2)
    assert m.is_independent(0b011)
    assert not m.is_independent(0b111)


def test_seed_matroid_one_product_per_node():
    # elements (u, i) pack as u*m + i; two products of node 0 collide
    m = t.SeedMatroid(n_nodes=4, m=3, k=2)
    assert not m.is_independent(t.bitmask([0, 1]))
    assert m.is_independent(t.bitmask([0, 3]))  # (0,0) and (1,0)
    assert not m.is_independent(t.bitmask([0, 3, 6]))  # k=2 cap


def test_partition_matroid_per_part_cap():
    m = t.PartitionMatroid([0, 0, 1, 1], cap=1)
    assert not m.is_independent(0b0011)
    assert m.is_independent(0b0101)


def test_is_independent_rejects_out_of_range():
    m = t.UniformMatroid(3, 2)
    with pytest.raises(t.ContractViolation):
        m.is_independent(1 << 3)
    with pytest.raises(t.ContractViolation):
        m.can_add(m.empty_state(), 3)


def test_check_count_increments():
    m = t.UniformMatroid(3, 2)
    m.is_independent(0b01)
    m.can_add(m.empty_state(), 1)
    assert m.check_count == 2


def test_rank_uniform():
    assert t.rank(t.UniformMatroid(10, 3), t.GroundSet(10)) == 3


def test_rank_seed_matroid_cap_binds_first():
    assert t.rank(t.SeedMatroid(5, 2, 4), t.GroundSet(10)) == 4


def _exhaustive_max_independent(constraint, n):
    return max(m.bit_count() for m in range(1 << n) if constraint.is_independent(m))


def test_rank_intersection_vs_exhaustive():
    for seed in range(6):
        groups = [t.assign_groups(8, 2, seed + 31 + i) for i in range(2)]
        inter = t.IntersectionSystem([t.PartitionMatroid(g, 2) for g in groups])
        greedy = t.rank(inter, t.GroundSet(8))
        true_max = _exhaustive_max_independent(
            t.IntersectionSystem([t.PartitionMatroid(g, 2) for g in groups]), 8)
        assert greedy <= true_max
        assert greedy >= true_max / inter.p
    # single matroid: the greedy base is the true rank
    parts = t.assign_groups(8, 3, 5)
    m = t.PartitionMatroid(parts, 1)
    assert t.rank(m, t.GroundSet(8)) == _exhaustive_max_independent(
        t.PartitionMatroid(parts, 1), 8)


def test_verify_matroid_seed_matroid_exhaustive():
    ok, witness = t.verify_matroid(t.SeedMatroid(4, 2, 3), t.GroundSet(8), exhaustive=True)
    assert ok and witness is None


def test_verify_matroid_uniform_exhaustive():
    ok, _ = t.verify_matroid(t.UniformMatroid(6, 2), t.GroundSet(6), exhaustive=True)
    assert ok


def test_verify_matroid_finds_exchange_failure():
    # {1} and {0,2} are both independent but neither extension of {1} is
    m1 = t.PartitionMatroid([0, 0, 1], cap=1)
    m2 = t.PartitionMatroid([0, 1, 1], cap=1)
    inter = t.IntersectionSystem([m1, m2])
    ok, witness = t.verify_matroid(inter, t.GroundSet(3), exhaustive=True)
    assert not ok
    kind, a, b = witness
    assert kind == "exchange" and len(a) < len(b)


def test_verify_matroid_sampled_mode():
    ok, _ = t.verify_matroid(t.SeedMatroid(5, 3, 4), t.GroundSet(15),
                             exhaustive=False, samples=300, seed=2)
    assert ok


def test_hereditary_property_all_shipped_types():
    cases = [
        (t.UniformMatroid(10, 3), 10),
        (t.PartitionMatroid(t.assign_groups(10, 3, 1), 2), 10),
        (t.SeedMatroid(4, 3, 3), 12),
        (t.IntersectionSystem([
            t.PartitionMatroid(t.assign_groups(10, 2, 2), 2),
            t.PartitionMatroid(t.assign_groups(10, 2, 3), 2),
        ]), 10),
    ]
    for constraint, n in cases:
        ok, witness = hereditary_check(constraint, t.GroundSet(n), samples=1000, seed=0)
        assert ok, witness


@pytest.mark.parametrize("constraint,n", [
    (t.UniformMatroid(6, 3), 6),
    (t.PartitionMatroid([0, 0, 1, 1, 2, 2], cap=1), 6),
    (t.SeedMatroid(3, 2, 2), 6),
])
def test_greedy_base_size_order_invariant_for_matroids(constraint, n):
    sizes = {greedy_base_size(constraint, order)
             for order in itertools.permutations(range(n))}
    assert len(sizes) == 1


def test_intersection_p1_matches_constituent():
    parts = t.assign_groups(12, 3, 9)
    single = t.PartitionMatroid(parts, 2)
    inter = t.IntersectionSystem([t.PartitionMatroid(parts, 2)])
    for mask in range(1 << 12):
        assert single.is_independent(mask) == inter.is_independent(mask)
    assert inter.base_size == single.base_size == 6
    assert t.IntersectionSystem([single, single]).base_size is None


def _assert_states_its_rank(constraint, order):
    """`base_size` is the greedy base size in id order and in `order`, and
    it and `rank` cost no check, also through an intersection of one."""
    ground = t.GroundSet(constraint.n)
    checks = constraint.check_count
    size = constraint.base_size
    assert t.rank(constraint, ground) == t.IntersectionSystem([constraint]).base_size == size
    assert constraint.check_count == checks
    assert greedy_base_size(constraint, ground.elements()) == greedy_base_size(constraint, order) == size


STATED_EDGE_CASES = {
    "uniform-k0": t.UniformMatroid(7, 0),
    "uniform-k-is-n": t.UniformMatroid(5, 5),
    "uniform-k-above-n": t.UniformMatroid(5, 9),
    "uniform-empty": t.UniformMatroid(0, 2),
    "partition-cap0": t.PartitionMatroid([0, 1, 1, 0, 2], 0),
    "partition-parts-below-cap": t.PartitionMatroid([0, 1, 1, 1, 2, 3, 3], 2),
    "seed-no-nodes": t.SeedMatroid(0, 3, 2),
    "seed-k0": t.SeedMatroid(4, 2, 0),
    "seed-k-is-nodes": t.SeedMatroid(3, 2, 3),
    "seed-k-above-nodes": t.SeedMatroid(3, 2, 5),
}


@pytest.mark.parametrize("name", STATED_EDGE_CASES)
def test_stated_base_size_at_the_edges(name):
    constraint = STATED_EDGE_CASES[name]
    _assert_states_its_rank(constraint, reversed(range(constraint.n)))


@settings(max_examples=300)
@given(st.data())
def test_stated_base_size_is_the_greedy_base_size(data):
    n = data.draw(st.integers(0, 12))
    constraint = data.draw(constraints_on(n, intersect=False))
    _assert_states_its_rank(constraint, data.draw(st.permutations(range(n))))


# one of each type, and intersections of mixed types, on at most 12 ids
REFERENCE_CASES = {
    "uniform": t.UniformMatroid(12, 5),
    "uniform-k0": t.UniformMatroid(7, 0),
    "partition": t.PartitionMatroid(t.assign_groups(12, 3, 4), 2),
    "partition-cap0": t.PartitionMatroid([0, 1, 1, 0, 2, 1, 0, 2], 0),
    "seed": t.SeedMatroid(4, 3, 3),
    "seed-one-product": t.SeedMatroid(12, 1, 4),
    "intersection": t.IntersectionSystem([t.PartitionMatroid(t.assign_groups(12, 3, 5), 2),
                                          t.PartitionMatroid(t.assign_groups(12, 2, 6), 3)]),
    "intersection-mixed": t.IntersectionSystem([t.SeedMatroid(6, 2, 5), t.UniformMatroid(12, 3),
                                                t.PartitionMatroid(t.assign_groups(12, 4, 7), 1)]),
}


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_is_independent_matches_the_definition_on_every_mask(name):
    constraint = REFERENCE_CASES[name]
    checks = constraint.check_count
    for mask in range(1 << constraint.n):
        assert constraint.is_independent(mask) == helpers.independent_by_definition(constraint, mask)
    assert constraint.check_count == checks + (1 << constraint.n)  # one counted check each


@st.composite
def constraints_on(draw, n, intersect=True):
    """A constraint of any type over the ids 0..n-1."""
    kind = draw(st.sampled_from(["uniform", "partition", "seed"] + ["intersection"] * intersect))
    if kind == "uniform":
        return t.UniformMatroid(n, draw(st.integers(0, n + 1)))
    if kind == "partition":
        parts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return t.PartitionMatroid(parts, draw(st.integers(0, 3)))
    if kind == "seed":
        m = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0] or [1]))
        return t.SeedMatroid(n // m, m, draw(st.integers(0, n + 1)))
    return t.IntersectionSystem(draw(st.lists(constraints_on(n, False), min_size=1, max_size=3)))


@settings(max_examples=300)
@given(st.data())
def test_can_add_matches_the_definition_along_insertion_orders(data):
    n = data.draw(st.integers(0, 12))
    constraint = data.draw(constraints_on(n))
    state, built = constraint.empty_state(), 0
    for e in data.draw(st.permutations(range(n))):
        fits = helpers.independent_by_definition(constraint, built | 1 << e)
        assert constraint.can_add(state, e) == fits
        if fits:
            state = constraint.add(state, e)
            built |= 1 << e
    assert constraint.is_independent(built)


def test_partition_file_round_trip(tmp_path):
    path = tmp_path / "parts.txt"
    save_partition(path, [0, 1, 1, 0])
    assert load_partition(path) == [0, 1, 1, 0]


def test_partition_file_must_cover_ids(tmp_path):
    path = tmp_path / "parts.txt"
    path.write_text("0 0\n2 1\n")
    with pytest.raises(t.ContractViolation):
        load_partition(path)


def test_parse_seed_config():
    assert parse_seed_config("5 3 2\n") == (5, 3, 2)
    with pytest.raises(t.ContractViolation):
        parse_seed_config("5 3")


@pytest.mark.parametrize("build", [
    lambda: t.UniformMatroid(3, -1),
    lambda: t.PartitionMatroid([0, 1], cap=-1),
    lambda: t.SeedMatroid(3, 1, -1),
    lambda: t.SeedMatroid(3, 0, 1),
    lambda: t.SeedMatroid(-1, 1, 1),
    lambda: t.IntersectionSystem([]),
    lambda: t.IntersectionSystem([t.UniformMatroid(3, 1), t.UniformMatroid(4, 1)]),
], ids=["uniform-k", "partition-cap", "seed-k", "seed-m", "seed-nodes", "intersection-empty",
        "intersection-two-sizes"])
def test_constructors_reject_negative_sizes(build):
    with pytest.raises(t.ContractViolation):
        build()


def test_partition_labels_need_not_be_dense():
    sparse = t.PartitionMatroid([10**12, -3, 10**12, 7], cap=1)
    dense = t.PartitionMatroid([2, 0, 2, 1], cap=1)
    assert sparse.h == 3
    for mask in range(1 << 4):
        assert sparse.is_independent(mask) == dense.is_independent(mask)

