"""Exact linear solving over the function field."""

import random
from fractions import Fraction

from vermalab.field import FieldElem
from vermalab.linalg import SparseMatrix, solve_linear, solve_rows, vstack
from vermalab.ring import classical_ring

R = classical_ring(2)
X1 = FieldElem.var(R, "x1")
H = FieldElem.var(R, "h")
ONE = FieldElem.one(R)
ZERO = FieldElem.zero(R)


def test_unique_1x1():
    a = SparseMatrix(1, 1, R, {(0, 0): ONE})
    res = solve_linear(a, [H.inverse()])
    assert res.status == "unique"
    assert res.solution[0] == H.inverse()


def test_inconsistent():
    a = SparseMatrix(1, 1, R)
    res = solve_linear(a, [ONE])
    assert res.status == "inconsistent"


def test_underdetermined_kernel_basis():
    a = SparseMatrix(1, 2, R, {(0, 0): X1, (0, 1): X1})
    res = solve_linear(a, [X1])
    assert res.status == "underdetermined"
    # the particular solution sets the free coordinate to zero and solves
    assert res.solution == [ONE, ZERO]
    got = a.apply(res.solution)
    assert (got[0] - X1).is_zero()


def test_solutions_verify_by_substitution():
    rng = random.Random(7)
    pool = [ONE, X1, H, X1 + H, X1 - 2 * H, (X1 + 1) * H]
    for _trial in range(8):
        size = rng.randint(1, 3)
        entries = {}
        for r in range(size):
            for c in range(size):
                if rng.random() < 0.8:
                    entries[(r, c)] = pool[rng.randrange(len(pool))] + rng.randint(-2, 2)
        a = SparseMatrix(size, size, R, entries)
        rhs = [pool[rng.randrange(len(pool))] for _ in range(size)]
        res = solve_linear(a, rhs)
        if res.status == "unique":
            got = a.apply(res.solution)
            assert all((g - w).is_zero() for g, w in zip(got, rhs))
        elif res.status == "underdetermined":
            got = a.apply(res.solution)
            assert all((g - w).is_zero() for g, w in zip(got, rhs))


def test_matmul_and_vstack_shapes():
    a = SparseMatrix(2, 2, R, {(0, 0): ONE, (1, 1): H})
    b = SparseMatrix(2, 1, R, {(0, 0): X1, (1, 0): ONE})
    prod = a @ b
    assert prod.rows == 2 and prod.cols == 1
    assert prod.get(1, 0) == H
    stacked = vstack([a, a])
    assert stacked.rows == 4 and stacked.cols == 2


def test_matrix_equality_is_exact():
    a = SparseMatrix(1, 1, R, {(0, 0): (X1 * X1 - H * H) / (X1 - H)})
    b = SparseMatrix(1, 1, R, {(0, 0): X1 + H})
    assert a == b


def test_solve_rows_over_fractions():
    # the same elimination runs on rational scalars: [A | b] rows
    f = Fraction
    zero = f(0)
    res = solve_rows([[f(2), f(1), f(3)], [f(1), f(-1), f(0)]], 2, zero)
    assert res.status == "unique" and res.solution == [f(1), f(1)]
    res = solve_rows([[f(1), f(2), f(1)], [f(2), f(4), f(3)]], 2, zero)
    assert res.status == "inconsistent"
    res = solve_rows([[f(0), f(2), f(4), f(2)]], 3, zero)
    assert res.status == "underdetermined"
    assert res.solution == [f(0), f(1), f(0)]


def test_first_entry_is_row_major_first():
    assert SparseMatrix(2, 2, R).first_entry() is None
    a = SparseMatrix(2, 2, R, {(1, 0): X1, (0, 1): H, (1, 1): ONE})
    assert a.first_entry() == f"entry (0,1): {H.text()}"
