"""Differential tests of the ring and field layers against sympy.

The operands look like the suites' own: products of linear forms
x_j - x_k + c h (the tangent weights of the fixed-point basis) with small
sparse polynomials, in the classical ring of rank 3 and the quantum ring
of rank 4.  Dividend and divisor are drawn from one factor pool, so
about 70% of the divisions fail, as on the gl-relations workload.  Exact
division is also checked on hand-picked edge cases of its packed-key
layout and on a fixed snapshot of real operands from the whittaker-solve
and qc-deformed workloads (``data/exact_div_corpus.json``, first captured
by ``microbench/capture_exact_div_corpus.py``).  Chains of hinted field
operations are checked against the generic constructor and sympy.  sympy
is a test-only oracle.
"""

import json
import operator
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from vermalab.field import FieldElem  # noqa: E402
from vermalab.ring import (  # noqa: E402
    MultiPoly,
    PolyRing,
    classical_ring,
    exact_div,
    poly_gcd,
    poly_lcm,
    products_sum_is_zero,
    quantum_ring,
)

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


def _check_div(a: MultiPoly, b: MultiPoly) -> bool:
    """Assert that exact_div(a, b) is sympy's quotient when that is an
    integer polynomial and the division leaves no remainder, and None
    otherwise; return whether b divides a."""
    q, r = _sym(a).div(_sym(b))  # over QQ
    divides = r.is_zero and all(c.is_integer for c in q.coeffs())
    got = exact_div(a, b)
    assert (None if got is None else got.terms) == (_terms(q) if divides else None)
    return divides


@SETTINGS
@given(operand_pairs())
def test_exact_div_matches_sympy(case):
    _, a, b = case
    _check_div(a, b)
    # the product of the two always divides back
    assert exact_div(a * b, b).terms == a.terms


# exact_div packs each exponent vector into one int whose fields are as
# wide as the dividend's total degree; these cases sit at the edges of
# that layout, in the 9-variable ring x1..x5, h, q2..q4
EDGE_CASES = {
    # squarefree dividends of total degree >= 4: every variable has degree
    # <= 1, but the quotient's total degree is 4 or more
    "squarefree-quotient-deg4": ("(x1 - x2 + h)*x3*x4*x5*q2", "x1 - x2 + h"),
    "squarefree-quotient-deg4-sum": ("(x1 + x2)*(x3 - q2)*(x4 + h)*(x5 - q3)*q4", "x1 + x2"),
    "squarefree-two-factor-divisor": ("(x1 + x2)*(x3 - q2)*(x4 + h)*(x5 - q3)", "(x1 + x2)*(x5 - q3)"),
    "squarefree-fails": ("x1*x2*x3*x4*q2 - x5*h*q3*q4", "x1 - q2"),
    # the divisor's tail pushes remainder monomials past the dividend's
    # per-variable degrees (x2 reaches degree 3, 4 and 8 below)
    "tail-past-degrees-x1^3": ("x1^3", "x1 + x2"),
    "tail-past-degrees-x1^3*x2": ("x1^3*x2", "x1 + x2"),
    "tail-power-past-degrees": ("x1^3*x3^3*x2^2", "x1*x3 + x2^2"),
    "tail-past-degrees-divides": ("x1^3*x3^3 + x2^6", "x1*x3 + x2^2"),
    # the leading terms divide, a later term does not: by its monomial,
    # then by its coefficient
    "fails-later-monomial": ("x1^2 + 2*x1*x2 + x2^2 + h", "x1 + x2"),
    "fails-later-coefficient": ("2*x1^2 + 2*x1*x2 + x1 + x2", "2*x1 + 2*x2"),
    # a variable of degree 16 or more: the fields grow from 4 to 5 bits,
    # and a quotient of degree 16 needs all 5
    "deg15-fields-4-bits": ("x1^15 - h^15", "x1 - h"),
    "deg16-fields-5-bits": ("x1^16 - h^16", "x1 - h"),
    "deg16-fails": ("x1^16 + h^16", "x1 - h"),
    "deg16-monomial": ("x1^16*q4", "x1^9*q4"),
    "deg17-quotient-deg16": ("x1^17 - h^17", "x1 - h"),
    "deg17-two-variables": ("x1^16*x2 - x2^17", "x1 - x2"),
}


@pytest.mark.parametrize("a, b", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_exact_div_edge_cases_match_sympy(a, b):
    ring = quantum_ring(5)
    gens = sympy.symbols(ring.names)
    a, b = (MultiPoly(ring, _terms(sympy.Poly(text, *gens))) for text in (a, b))
    _check_div(a, b)


CORPUS = json.loads((Path(__file__).parent / "data" / "exact_div_corpus.json").read_text())["cases"]


@pytest.mark.parametrize("case", CORPUS, ids=[f"{c['workload']}-{i}" for i, c in enumerate(CORPUS)])
def test_exact_div_corpus_matches_sympy(case):
    ring = PolyRing(case["ring"])
    a, b = (MultiPoly(ring, {tuple(e): c for e, c in case[key]}) for key in ("a", "b"))
    assert _check_div(a, b) is case["divides"]


# -- products_sum_is_zero: sum_t k_t * prod_j p_tj on packed keys ----------

# the 5-variable classical ring x1..x4, h and the quantum ring of rank 6
# (x1..x6, h, q2..q5); the kernel's fields are as wide as the bit length of
# the largest total degree of a product, so products are padded to the
# degrees where that bit length changes
KERNEL_RINGS = (classical_ring(4), quantum_ring(6))
EDGE_DEGREES = (1, 2, 3, 4, 7, 8, 16)  # 2^w - 1, 2^w and 2^(w+1) for w <= 3


def _power(ring, var: int, k: int) -> MultiPoly:
    e = [0] * ring.nvars
    e[var] = k
    return MultiPoly(ring, {tuple(e): 1})


def _dealt(ring, exp: list, owner) -> list:
    """The monomial with exponent vector exp as a product of factors: the
    n-th unit of its degree goes to factor owner(n)."""
    parts: dict[int, list] = {}
    units = [i for i, k in enumerate(exp) for _ in range(k)]
    for n, i in enumerate(units):
        parts.setdefault(owner(n), [0] * ring.nvars)[i] += 1
    return [MultiPoly(ring, {tuple(e): 1}) for _, e in sorted(parts.items())]


def _collision_pair(ring, a: int, u: int, cofactor: list) -> tuple[list, list]:
    """The exponent vectors of m * v_a * v_c^u and m * v_b^(u+1), for the
    consecutive variables a < b < c and the cofactor m.  The monomials
    differ, but with fields of log2(u) - 1 bits and a guard bit their packed
    keys are equal: v_c^u carries one unit into v_b's field, and v_b^(u+1)
    one into v_a's."""
    left, right = list(cofactor), list(cofactor)
    left[a] += 1
    left[a + 2] += u
    right[a + 1] += u + 1
    return left, right


@st.composite
def edge_products(draw, ring):
    """1-3 small factors, padded with powers of one variable to a product of
    total degree in EDGE_DEGREES."""
    factors = draw(st.lists(st.one_of(linear_forms(ring), sparse_polys(ring)), min_size=1, max_size=3))
    target = draw(st.sampled_from(EDGE_DEGREES))
    while len(factors) > 1 and sum(f.total_degree() for f in factors) > target:
        factors.pop()
    pad = target - sum(f.total_degree() for f in factors)
    if pad > 0:
        var = draw(st.integers(0, ring.nvars - 1))
        cut = draw(st.integers(0, pad))
        factors += [_power(ring, var, k) for k in (cut, pad - cut) if k]
    return draw(st.permutations(factors))


def _regroup(factors: list, draw) -> list:
    """The same product in another shape: reversed, or its first two
    factors multiplied into one."""
    if len(factors) > 1 and draw(st.booleans()):
        return [factors[0] * factors[1]] + factors[2:]
    return factors[::-1]


@st.composite
def collision_pairs(draw, ring):
    """k * (m * v_a * v_c^u - m * v_b^(u+1)) (``_collision_pair``) for
    u = 2^j and m = 1 or a power of one variable, each monomial dealt to
    1-5 factors at random or in turn.  A layout too narrow for the
    product's degree would call this nonzero sum zero."""
    u = 2 ** draw(st.integers(1, 3))
    cofactor = [0] * ring.nvars
    if draw(st.booleans()):
        cofactor[draw(st.integers(0, ring.nvars - 1))] = draw(st.integers(1, 2))
    left, right = _collision_pair(ring, draw(st.integers(0, ring.nvars - 3)), u, cofactor)
    k = draw(st.integers(-3, 3).filter(bool))
    split = []
    for exp in (left, right):
        parts = draw(st.integers(1, 5))
        in_turn = draw(st.booleans())
        split.append(_dealt(ring, exp, lambda n: n % parts if in_turn else draw(st.integers(0, parts - 1))))
    return [(k, split[0]), (-k, split[1])]


@st.composite
def product_sums(draw):
    """A ring and a sum [(k, factors)]: the empty sum, a single term, random
    terms, terms that cancel by construction, or a collision pair, each
    possibly with more terms and their cancelling copies mixed in."""
    ring = draw(st.sampled_from(KERNEL_RINGS))
    kind = draw(st.sampled_from(["empty", "single", "random", "cancel", "cancel", "collision"]))
    if kind == "empty":
        return ring, []
    ks = st.integers(-3, 3)
    if kind == "single":
        return ring, [(draw(ks), draw(edge_products(ring)))]
    terms = draw(collision_pairs(ring)) if kind == "collision" else []
    terms += [(draw(ks), draw(edge_products(ring))) for _ in range(draw(st.integers(kind != "collision", 3)))]
    if kind == "cancel" or draw(st.booleans()):
        # each term again with its k split in two parts of the other sign
        copies = []
        for k, factors in terms[2 if kind == "collision" else 0 :]:
            k1 = draw(st.integers(-3, 3))
            copies += [(-k - k1, _regroup(factors, draw)), (k1, _regroup(factors, draw))]
        terms = draw(st.permutations(terms + copies))
    return ring, terms


def _multipoly_sum(ring, terms) -> MultiPoly:
    total = MultiPoly.zero(ring)
    for k, factors in terms:
        total = total + _product(ring, factors).scale(k)
    return total


@settings(SETTINGS, max_examples=150)
@given(product_sums())
def test_products_sum_is_zero_matches_multipoly_and_sympy(case):
    ring, terms = case
    expr = sum((k * sympy.Mul(*(_sym(p).as_expr() for p in factors)) for k, factors in terms), sympy.Integer(0))
    want = sympy.expand(expr) == 0
    assert _multipoly_sum(ring, terms).is_zero() is want
    assert products_sum_is_zero(terms) is want
    assert products_sum_is_zero(iter(terms)) is want


@pytest.mark.parametrize("parts", [1, 2, 3, 5])
@pytest.mark.parametrize("u", [2, 4, 8, 16])
@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=["classical4", "quantum6"])
def test_products_sum_is_zero_keeps_colliding_keys_apart(ring, u, parts):
    # a collision pair of degree u + 1 as products of ``parts`` factors of
    # near-equal degree: a bound taken from one factor instead of the whole
    # product would give fields of log2(u) - 1 bits for some of these
    for a in (0, ring.nvars - 3):
        left, right = (_dealt(ring, exp, lambda n: n % parts) for exp in _collision_pair(ring, a, u, [0] * ring.nvars))
        assert not products_sum_is_zero([(1, left), (-1, right)])
        assert products_sum_is_zero([(2, left), (-1, right), (-2, left[::-1]), (1, right[::-1])])


def test_products_sum_is_zero_degenerate_sums():
    ring = KERNEL_RINGS[0]
    x1, h = MultiPoly.var(ring, "x1"), MultiPoly.var(ring, "h")
    zero, one = MultiPoly.zero(ring), MultiPoly.const(ring, 1)
    assert products_sum_is_zero([])
    assert products_sum_is_zero([(0, [x1])])
    assert products_sum_is_zero([(3, [x1, zero])])
    assert not products_sum_is_zero([(2, [])])
    assert products_sum_is_zero([(2, []), (-2, [one])])
    assert not products_sum_is_zero([(1, [x1, h]), (-1, [x1, x1])])
    # the same operand objects in several terms
    assert products_sum_is_zero([(1, [x1, x1, h]), (-1, [h, x1, x1])])


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


def _hint_is_exact(fe: FieldElem) -> bool:
    """den = integer * prod(dfac), every factor primitive, nonconstant and
    with a positive leading coefficient."""
    factors = list(fe.dfac.elements())
    canonical = all(not f.is_const() and f.content() == 1 and f.leading()[1] > 0 for f in factors)
    rest = exact_div(fe.den, _product(fe.ring, factors))
    return canonical and rest is not None and rest.is_const()


def _subs(p: "sympy.Poly", mapping: dict) -> "sympy.Poly":
    return sympy.Poly(p.as_expr().subs(mapping, simultaneous=True), *p.gens, domain="ZZ")


@settings(SETTINGS, max_examples=30)
@given(st.sampled_from(RINGS), st.data())
def test_hint_survives_chained_operations(ring, data):
    # hinted elements built from linear forms over a small shared pool of
    # denominators, which numerators draw from too, so sums and products
    # meet factors to cancel, and one generic element;
    # every step is checked against sympy on (num, den) pairs, and every
    # hinted result must keep den = integer * prod(dfac) and be fully reduced
    dens = data.draw(st.lists(linear_forms(ring), min_size=1, max_size=3, unique_by=lambda f: f.text()))
    elems = [
        FieldElem.from_factors(
            ring,
            data.draw(st.integers(-3, 3).filter(bool)),
            data.draw(st.lists(st.one_of(st.sampled_from(dens), linear_forms(ring)), max_size=2)),
            data.draw(st.lists(st.sampled_from(dens), min_size=1, max_size=2)),
        )
        for _ in range(3)
    ]
    elems.append(FieldElem(data.draw(linear_forms(ring)), data.draw(linear_forms(ring))))
    assert elems[-1].dfac is None
    want = [(_sym(e.num), _sym(e.den)) for e in elems]
    gens = want[0][0].gens
    sym = dict(zip(ring.names, gens))
    xs = [name for name in ring.names if name.startswith("x")]
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(st.sampled_from(["+", "-", "*", "/", "d", "bar", "permute"]))
        i = data.draw(st.integers(0, len(elems) - 1))
        a, (an, ad) = elems[i], want[i]
        if op in "+-*/":
            j = data.draw(st.integers(0, len(elems) - 1))
            b, (bn, bd) = elems[j], want[j]
            if op == "/" and b.is_zero():
                continue
            got = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op](a, b)
            num, den = {
                "+": (an * bd + bn * ad, ad * bd),
                "-": (an * bd - bn * ad, ad * bd),
                "*": (an * bn, ad * bd),
                "/": (an * bd, ad * bn),
            }[op]
        elif op == "d":
            v = data.draw(st.sampled_from(ring.names))
            got = a.derivative(v)
            num, den = an.diff(sym[v]) * ad - an * ad.diff(sym[v]), ad * ad
        elif op == "bar":
            got = a.bar()
            num, den = (_subs(p, {sym["h"]: -sym["h"]}) for p in (an, ad))
        else:
            sigma = tuple(data.draw(st.permutations(range(1, len(xs) + 1))))
            got = a.permute_x(sigma)
            mapping = {sym[f"x{k}"]: sym[f"x{sigma[k - 1]}"] for k in range(1, len(xs) + 1)}
            num, den = (_subs(p, mapping) for p in (an, ad))
        assert _sym(got.num) * den == num * _sym(got.den)
        if got.dfac is not None:
            assert _hint_is_exact(got), (op, got, got.dfac)
            assert (got.num.terms, got.den.terms) == _cancelled(num, den)
        elems.append(got)
        want.append((num, den))


def _unreduced(op: str, a: FieldElem, b: FieldElem, v: str) -> tuple[MultiPoly, MultiPoly]:
    """num and den of one operation on reduced operands, before any cancelling."""
    if op == "d":
        i = a.ring.index[v]
        return a.num.derivative(i) * a.den - a.num * a.den.derivative(i), a.den * a.den
    return {
        "+": lambda: (a.num * b.den + b.num * a.den, a.den * b.den),
        "-": lambda: (a.num * b.den - b.num * a.den, a.den * b.den),
        "*": lambda: (a.num * b.num, a.den * b.den),
        "/": lambda: (a.num * b.den, a.den * b.num),
    }[op]()


@settings(SETTINGS, max_examples=40)
@given(st.sampled_from(RINGS), st.data())
def test_hinted_chain_equals_generic_form(ring, data):
    # hinted elements with rational coefficients over a small shared pool of
    # linear-form denominators, which numerators draw from too, and one
    # generic element, in chains of + - * / and derivatives; each step must
    # have the value of the generic constructor on its unreduced num/den,
    # and a hinted step must also be sympy's reduced form, with den its
    # positive content dc times prod(dfac).  Only value is compared with the
    # generic form: under GCD_DEFECT it can stay unreduced, e.g.
    # (x1*h - x2*h + x1 - x2)/(x1 - x2)^2.  A hinted step also equals, and
    # hashes as, the generic element of its own num and dc * prod(dfac),
    # both before its den is first read and after.
    dens = data.draw(st.lists(linear_forms(ring), min_size=1, max_size=3, unique_by=lambda f: f.text()))
    coeffs = st.fractions(-6, 6, max_denominator=6).filter(bool)
    nums = st.one_of(st.sampled_from(dens), linear_forms(ring), sparse_polys(ring))
    elems = [
        FieldElem.from_factors(
            ring,
            data.draw(coeffs),
            data.draw(st.lists(nums, max_size=2)),
            data.draw(st.lists(st.sampled_from(dens), min_size=1, max_size=3)),
        )
        for _ in range(3)
    ]
    elems.append(FieldElem(data.draw(sparse_polys(ring)), data.draw(linear_forms(ring))))
    binary = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    for _ in range(data.draw(st.integers(1, 6))):
        op = data.draw(st.sampled_from(["+", "-", "*", "/", "d"]))
        a, b = (elems[data.draw(st.integers(0, len(elems) - 1))] for _ in range(2))
        if op == "/" and b.is_zero():
            continue
        v = data.draw(st.sampled_from(ring.names))
        got = a.derivative(v) if op == "d" else binary[op](a, b)
        if got.dfac is not None:
            hinted_den = _product(ring, got.dfac.elements()).scale(got.dc)
            generic = FieldElem(got.num, hinted_den)
            for _ in range(2):
                assert hash(got) == hash(generic) and got == generic and generic == got, (op, got, got.dfac)
                assert got.den == hinted_den, (op, got, got.dfac)
        num, den = _unreduced(op, a, b, v)
        want = FieldElem(num, den)
        assert got.num * want.den == want.num * got.den, (op, a, b, v)
        if got.dfac is not None:
            assert (got.num.terms, got.den.terms) == _cancelled(_sym(num), _sym(den)), (op, a, b, v)
            assert got.dc > 0 and got.dc == got.den.content(), (op, got, got.dfac)
        elems.append(got)
