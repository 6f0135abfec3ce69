"""Exact linear solving over the function field, and the unbuilt zero
test of signed sums of block products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vermalab.field import FieldElem, VermalabError, signed_sum_is_zero
from vermalab.linalg import BlockSum, SparseMatrix, solve_linear, solve_rows, vstack
from vermalab.patterns import degree_vectors_upto
from vermalab.ring import MultiPoly, classical_ring
from vermalab.verma import VermaContext, gl_relation_defect

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


def test_block_sum_folds_like_the_matrix_operations():
    a = SparseMatrix(2, 2, R, {(0, 0): X1, (0, 1): H, (1, 1): ONE})
    b = SparseMatrix(2, 2, R, {(0, 0): H, (1, 0): ONE, (1, 1): X1})
    expr = BlockSum([(1, a, b), (-1, b, a), (-1, a, None)]) + BlockSum.of(b)
    assert expr.materialise() == a @ b - b @ a - a + b
    assert not (BlockSum.of(a) - BlockSum.of(a)).materialise().entries
    for bad in ([(1, a, SparseMatrix(2, 3, R)), (1, a, None)], [(1, a, SparseMatrix(3, 2, R))], []):
        with pytest.raises(VermalabError, match="shape"):
            BlockSum(bad)


@pytest.mark.parametrize("n,dmax", [(3, 3), (4, 2)])
def test_first_nonzero_agrees_with_the_built_block(n, dmax):
    # every ordered pair of matrix units, as the relation's defect and as
    # the bare commutator, on every block: the unbuilt decision must name
    # exactly the row-major first stored entry of the built block
    ctx = VermaContext.get(n)
    units = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    decided = nonzero = 0
    for d in degree_vectors_upto(n, dmax):
        for ab in units:
            for cd in units:
                for expr in (gl_relation_defect(ctx, ab, cd, d), ctx.commutator_terms(ab, cd, d)):
                    block = expr.materialise()
                    want = min(block.entries) if block.entries else None
                    assert expr.first_nonzero() == want, (ab, cd, d)
                    decided += 1
                    nonzero += want is not None
    assert nonzero and nonzero < decided


# -- signed_sum_is_zero against sympy ------------------------------------------

R3 = classical_ring(3)


@st.composite
def linear_forms(draw):
    """x_j - x_k + c h, or c h when j = k."""
    j, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    c = draw(st.integers(-2, 2).filter(lambda c: c or j != k))
    out = MultiPoly.var(R3, "h").scale(c)
    if j != k:
        out = out + MultiPoly.var(R3, f"x{j}") - MultiPoly.var(R3, f"x{k}")
    return out


@st.composite
def field_elems(draw):
    """A hinted element of ``from_factors``, the same value built on the
    generic path, or zero."""
    kind = draw(st.sampled_from(["hinted", "hinted", "generic", "zero"]))
    if kind == "zero":
        return FieldElem.zero(R3)
    coeff = draw(st.sampled_from([1, -1, 2, Fraction(3, 2), Fraction(-1, 6)]))
    nums = draw(st.lists(linear_forms(), max_size=2))
    dens = draw(st.lists(linear_forms(), max_size=3))
    fe = FieldElem.from_factors(R3, coeff, nums, dens)
    return fe if kind == "hinted" else FieldElem(fe.num, fe.den)


def _regrouped(factors: list, draw) -> list:
    """The same product in another shape: reversed, its first two factors
    multiplied into one, or every factor rebuilt on the generic path."""
    how = draw(st.sampled_from(["reverse", "merge", "generic"]))
    if how == "merge" and len(factors) > 1:
        return [factors[0] * factors[1]] + factors[2:]
    if how == "generic":
        return [FieldElem(f.num, f.den) for f in factors]
    return factors[::-1]


def _den_built(fe: FieldElem) -> bool:
    try:
        FieldElem.den.__get__(fe, FieldElem)
    except AttributeError:
        return False
    return True


def _sympy_is_zero(sympy, terms) -> bool:
    """Sum the terms as one fraction of sympy polynomials: zero iff its
    numerator is."""
    gens = sympy.symbols(R3.names)

    def sym(p):
        return sympy.Poly.from_dict({e: int(c) for e, c in p.terms.items()} or {(0,) * R3.nvars: 0}, gens, domain="ZZ")

    num, den = sym(MultiPoly.zero(R3)), sym(MultiPoly.const(R3, 1))
    for sign, factors in terms:
        tn, td = sym(MultiPoly.const(R3, sign)), sym(MultiPoly.const(R3, 1))
        for f in factors:
            tn, td = tn * sym(f.num), td * sym(f.den)
        num, den = num * td + tn * den, den * td
    return num.is_zero


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_signed_sum_is_zero_matches_sympy(data):
    sympy = pytest.importorskip("sympy")
    draw = data.draw
    terms = [
        (draw(st.sampled_from([1, -1])), draw(st.lists(field_elems(), min_size=1, max_size=3)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        # cancel by construction: each term again, regrouped, with the other sign
        terms += [(-sign, _regrouped(factors, draw)) for sign, factors in terms]
        terms = draw(st.permutations(terms))
    unread = [f for _, factors in terms for f in factors if f.dfac is not None and not _den_built(f)]
    got = signed_sum_is_zero(terms)
    assert not any(_den_built(f) for f in unread), "the zero test built a hinted den"
    assert got == _sympy_is_zero(sympy, terms)
