"""Pattern enumeration against independent brute-force oracles."""

import itertools

import pytest

from vermalab.field import VermalabError
from vermalab.patterns import (
    GlobalFixedPoint,
    Pattern,
    degree_vectors_upto,
    enumerate_global_fixed_points,
    enumerate_patterns,
    gt_value,
    separation,
)
from vermalab.ring import classical_ring
from vermalab.field import FieldElem


def naive_patterns(n, d):
    """Filter the full integer box; independent of the fast enumerator."""
    shape = [(i, j) for i in range(1, n) for j in range(1, i + 1)]
    cap = max(d) if d else 0
    found = []
    for values in itertools.product(range(cap + 1), repeat=len(shape)):
        entry = dict(zip(shape, values))
        if any(sum(entry[(i, j)] for j in range(1, i + 1)) != d[i - 1] for i in range(1, n)):
            continue
        ok = True
        for i in range(2, n):
            for j in range(1, i):
                if entry[(i, j)] > entry[(i - 1, j)]:
                    ok = False
        if ok:
            rows = tuple(tuple(entry[(i, j)] for j in range(1, i + 1)) for i in range(1, n))
            found.append(rows)
    return sorted(found)


def test_spec_examples():
    assert [p.rows for p in enumerate_patterns(2, (3,))] == [((3,),)]
    two = enumerate_patterns(3, (1, 1))
    assert [p.rows for p in two] == [((1,), (0, 1)), ((1,), (1, 0))]
    one = enumerate_patterns(3, (0, 1))
    assert [p.rows for p in one] == [((0,), (0, 1))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumeration_matches_naive_filter(n):
    for d in degree_vectors_upto(n, 4):
        fast = [p.rows for p in enumerate_patterns(n, d)]
        assert fast == naive_patterns(n, d)
        assert len(set(fast)) == len(fast)


def test_degree_map_consistency():
    for n in (2, 3, 4):
        for d in degree_vectors_upto(n, 3):
            for p in enumerate_patterns(n, d):
                assert p.degree() == d


def test_count_symmetry_under_degree_reversal_n3():
    for d1 in range(4):
        for d2 in range(4):
            a = len(enumerate_patterns(3, (d1, d2)))
            b = len(enumerate_patterns(3, (d2, d1)))
            assert a == b


def test_pattern_validation():
    with pytest.raises(VermalabError):
        Pattern(3, ((0,), (1, 0)))  # column must weakly decrease downward
    with pytest.raises(VermalabError):
        Pattern(3, ((1,),))
    with pytest.raises(VermalabError):
        Pattern(2, ((-1,),))


def test_gt_pattern_values():
    ring = classical_ring(2)
    x1 = FieldElem.var(ring, "x1")
    x2 = FieldElem.var(ring, "x2")
    h = FieldElem.var(ring, "h")
    p0 = Pattern(2, ((0,),))
    assert gt_value(p0, 2, 1) == x1 / h
    assert gt_value(p0, 2, 2) == x2 / h + 1
    assert gt_value(p0, 1, 1) == x1 / h
    pm = Pattern(2, ((4,),))
    assert gt_value(pm, 1, 1) == x1 / h - 4


def test_gt_pattern_row3_example():
    ring = classical_ring(3)
    p = Pattern(3, ((1,), (0, 1)))
    x2 = FieldElem.var(ring, "x2")
    h = FieldElem.var(ring, "h")
    assert gt_value(p, 2, 2) == x2 / h  # x2/h + 1 - 1


def naive_global_count(n, d):
    import math

    total = 0
    splits = itertools.product(*[range(c + 1) for c in d])
    for lower in splits:
        upper = tuple(c - l for c, l in zip(d, lower))
        total += len(enumerate_patterns(n, lower)) * len(enumerate_patterns(n, upper))
    return total * math.factorial(n)


def test_global_fixed_points_examples():
    pts = enumerate_global_fixed_points(2, (1,))
    assert len(pts) == 4
    assert len(enumerate_global_fixed_points(2, (0,))) == 2
    sig = {fp.sigma for fp in pts}
    assert sig == {(1, 2), (2, 1)}
    for fp in pts:
        assert fp.degree() == (1,)


@pytest.mark.parametrize("n,dmax", [(2, 3), (3, 2)])
def test_global_counts_match_recursive_oracle(n, dmax):
    for d in degree_vectors_upto(n, dmax):
        assert len(enumerate_global_fixed_points(n, d)) == naive_global_count(n, d)


def test_global_ordering_is_canonical():
    pts = enumerate_global_fixed_points(3, (1, 1))
    keys = [fp.sort_key() for fp in pts]
    assert keys == sorted(keys)


def test_serialization_round_shapes():
    p = Pattern(3, ((1,), (1, 0)))
    assert p.to_json() == [[1], [1, 0]]
    fp = enumerate_global_fixed_points(2, (1,))[0]
    blob = fp.to_json()
    assert set(blob) == {"sigma", "p0", "pinf"}


def test_first_collision_order_and_exact_equality():
    ring = classical_ring(3)
    x1 = FieldElem.var(ring, "x1")
    h = FieldElem.var(ring, "h")
    p1, p2, p3, p4 = enumerate_patterns(4, (1, 1, 1))[:4]
    # the same value built two ways compares equal in canonical form
    table = {p4: (x1 / h + 1,), p3: (h,), p2: (h * 1,), p1: ((x1 + h) / h,)}
    # combinations order over the sorted points: (p1, p4) precedes (p2, p3)
    assert separation(table) == (False, False, (p1, p4))
    del table[p4]
    assert separation(table) == (False, False, (p2, p3))
    del table[p3]
    assert separation(table) == (False, True, None)
    del table[p2]
    assert separation(table) == (True, True, None)
    assert separation({p1: (), p2: ()}) == (True, True, None)
    fps = enumerate_global_fixed_points(2, (1,))
    gtable = {fp: (fp.sigma == (2, 1),) for fp in fps}
    first = sorted(fps, key=GlobalFixedPoint.sort_key)
    assert separation(gtable, key=GlobalFixedPoint.sort_key) == (False, False, (first[0], first[1]))
