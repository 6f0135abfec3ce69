"""Differential tests of the ring and field layers against sympy.

The operands look like the suites' own: products of linear forms
x_j - x_k + c h (the tangent weights of the fixed-point basis) with small
sparse polynomials, in the classical ring of rank 3 and the quantum ring
of rank 4.  Dividend and divisor are drawn from one factor pool, so
about 70% of the divisions fail, as on the gl-relations workload.  sympy
is a test-only oracle.
"""

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from vermalab.field import FieldElem  # noqa: E402
from vermalab.ring import MultiPoly, classical_ring, exact_div, poly_gcd, poly_lcm, quantum_ring  # noqa: E402

RINGS = (classical_ring(3), quantum_ring(4))
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

# poly_gcd can return a proper divisor of the gcd: _heu_gcd strips the
# integer content of the gcd of the images one level down, which is part
# of the polynomial gcd (gcd(h*(x1 - x2), h^2*(x1 - x2)) comes out as h).
# Rational functions built on the generic path are then not reduced.  The
# two tests marked with it are strict xfails until that is mended, each
# next to a passing test of the half of its contract that holds today.
# Shrinking is off for them, so the known failure costs no time.
GCD_DEFECT = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="_heu_gcd drops the content of the image gcd, so poly_gcd can miss a factor"
)
KNOWN_FAILURE = settings(SETTINGS, phases=[Phase.explicit, Phase.generate])


@st.composite
def linear_forms(draw, ring):
    """x_j - x_k + c h, or c h when j = k."""
    xs = [name for name in ring.names if name.startswith("x")]
    j, k = draw(st.sampled_from(xs)), draw(st.sampled_from(xs))
    c = draw(st.integers(-3, 3).filter(lambda c: c or j != k))
    out = MultiPoly.var(ring, "h").scale(c)
    if j != k:
        out = out + MultiPoly.var(ring, j) - MultiPoly.var(ring, k)
    return out


@st.composite
def sparse_polys(draw, ring):
    """A nonzero polynomial of at most three terms and total degree <= 2."""
    exps = st.lists(st.integers(0, 1), min_size=ring.nvars, max_size=ring.nvars).map(tuple)
    terms = draw(
        st.dictionaries(exps.filter(lambda e: sum(e) <= 2), st.integers(-4, 4).filter(bool), min_size=1, max_size=3)
    )
    return MultiPoly(ring, terms)


@st.composite
def factor_pools(draw):
    """A ring and a pool of factors: linear forms, small polynomials, and
    an integer that makes coefficient divisibility matter."""
    ring = draw(st.sampled_from(RINGS))
    pool = draw(st.lists(linear_forms(ring), min_size=1, max_size=3))
    pool += draw(st.lists(sparse_polys(ring), min_size=1, max_size=2))
    pool.append(MultiPoly.const(ring, draw(st.sampled_from([2, 3, -1]))))
    return ring, pool


def _product(ring, factors):
    out = MultiPoly.const(ring, 1)
    for f in factors:
        out = out * f
    return out


@st.composite
def operand_pairs(draw):
    """Two products of factors drawn from one pool, each nonzero."""
    ring, pool = draw(factor_pools())
    pick = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    return ring, _product(ring, draw(pick)), _product(ring, draw(pick))


def _sym(p: MultiPoly) -> "sympy.Poly":
    gens = sympy.symbols(p.ring.names)
    return sympy.Poly.from_dict({e: int(c) for e, c in p.terms.items()} or {(0,) * p.ring.nvars: 0}, gens, domain="ZZ")


def _terms(sp: "sympy.Poly") -> dict:
    return {e: int(c) for e, c in sp.as_dict().items() if c}


def _positive_grlex(sp: "sympy.Poly") -> "sympy.Poly":
    """The sign normalization of MultiPoly: positive graded-lex leading
    coefficient, with x1 the strongest tie break as in sympy's grlex."""
    return -sp if not sp.is_zero and sp.LC(order="grlex") < 0 else sp


@SETTINGS
@given(operand_pairs())
def test_mul_matches_sympy(case):
    _, a, b = case
    assert (a * b).terms == _terms(_sym(a) * _sym(b))


@SETTINGS
@given(operand_pairs())
def test_exact_div_matches_sympy(case):
    _, a, b = case
    q, r = _sym(a).div(_sym(b))  # over QQ
    divides = r.is_zero and all(c.is_integer for c in q.coeffs())
    got = exact_div(a, b)
    if divides:
        assert got is not None and got.terms == _terms(q)
    else:
        assert got is None
    # the product of the two always divides back
    assert exact_div(a * b, b).terms == a.terms


@st.composite
def gcd_pairs(draw):
    """Two operands with a common factor, so the gcd is nontrivial in most
    examples."""
    ring, a, b = draw(operand_pairs())
    common = draw(st.one_of(linear_forms(ring), sparse_polys(ring)))
    return a * common, b * common


def _smallest_known_case():
    ring = classical_ring(3)
    h, x1, x2 = (MultiPoly.var(ring, name) for name in ("h", "x1", "x2"))
    return h * (x1 - x2), h * h * (x1 - x2)


@SETTINGS
@given(gcd_pairs())
def test_gcd_divides_and_lcm_is_divided_by_sympys(pair):
    # the half of the gcd contract that holds today: poly_gcd is a common
    # divisor that divides the true gcd, poly_lcm a common multiple that
    # the true lcm divides, both with positive leading coefficient
    a, b = pair
    sa, sb = _sym(a), _sym(b)
    g, m = poly_gcd(a, b), poly_lcm(a, b)
    assert exact_div(a, g) is not None and exact_div(b, g) is not None
    assert exact_div(m, a) is not None and exact_div(m, b) is not None
    assert sympy.gcd(sa, sb).rem(_sym(g)).is_zero
    assert _sym(m).rem(sympy.lcm(sa, sb)).is_zero
    assert g.leading()[1] > 0 and m.leading()[1] > 0


@GCD_DEFECT
@KNOWN_FAILURE
@given(gcd_pairs())
@example(_smallest_known_case())
def test_gcd_and_lcm_match_sympy(pair):
    a, b = pair
    sa, sb = _sym(a), _sym(b)
    assert poly_gcd(a, b).terms == _terms(_positive_grlex(sympy.gcd(sa, sb)))
    assert poly_lcm(a, b).terms == _terms(_positive_grlex(sympy.lcm(sa, sb)))


def _cancelled(num: "sympy.Poly", den: "sympy.Poly") -> tuple[dict, dict]:
    """sympy's reduced num/den in the field's canonical form: no common
    integer content and a positive graded-lex leading denominator coefficient."""
    num, den = num.cancel(den, include=True)
    g = sympy.gcd(num.content(), den.content())
    num, den = num.exquo_ground(g), den.exquo_ground(g)
    if den.LC(order="grlex") < 0:
        num, den = -num, -den
    return _terms(num), _terms(den)


def _sums_and_products(elems):
    """(x * y, sympy numerator, sympy denominator) and the same for x + y,
    for every pair of the elements."""
    for i, x in enumerate(elems):
        for y in elems[i:]:
            xn, xd, yn, yd = (_sym(p) for p in (x.num, x.den, y.num, y.den))
            yield x * y, xn * yn, xd * yd
            yield x + y, xn * yd + yn * xd, xd * yd


@st.composite
def generic_elems(draw):
    """Three quotients of factor products, reduced by the generic constructor."""
    ring, pool = draw(factor_pools())
    pick = st.lists(st.sampled_from(pool), min_size=1, max_size=3)
    return [FieldElem(_product(ring, draw(pick)), _product(ring, draw(pick))) for _ in range(3)]


@settings(SETTINGS, max_examples=20)
@given(factor_pools(), st.data())
def test_hinted_field_form_matches_sympy_cancel(case, data):
    # irreducible linear-form denominators kept as the reduction hint, over
    # numerators of irreducible (degree <= 1) factors
    ring, pool = case
    linear = st.lists(st.sampled_from([f for f in pool if f.total_degree() <= 1]), max_size=3)
    elems = []
    for _ in range(3):
        dens = data.draw(st.lists(linear_forms(ring), min_size=1, max_size=2))
        elems.append(FieldElem.from_factors(ring, data.draw(st.integers(-3, 3).filter(bool)), data.draw(linear), dens))
    for got, num, den in _sums_and_products(elems):
        assert (got.num.terms, got.den.terms) == _cancelled(num, den)


@settings(SETTINGS, max_examples=30)
@given(generic_elems())
def test_generic_field_values_match_sympy(elems):
    # the half of the canonical-form contract that holds today: the right
    # value, no common integer content, a positive leading denominator
    for got, num, den in _sums_and_products(elems):
        assert _sym(got.num) * den == num * _sym(got.den)
        assert got.den.leading()[1] > 0
        assert sympy.gcd(_sym(got.num).content(), _sym(got.den).content()) == 1


@GCD_DEFECT
@settings(KNOWN_FAILURE, max_examples=30)
@given(generic_elems())
def test_generic_field_form_matches_sympy_cancel(elems):
    for got, num, den in _sums_and_products(elems):
        assert (got.num.terms, got.den.terms) == _cancelled(num, den)
