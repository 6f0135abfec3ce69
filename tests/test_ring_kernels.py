"""The heuristic gcd's integer kernels and the cached degree queries,
pinned to their definitions.

``_subst_int`` is checked against the sum of c * xi^k over the terms,
``_interpolate`` against the bottom-up balanced-digit loop it replaced
(kept here as the reference, term order included).  xi runs from 10007,
the smallest value ``_heu_gcd`` uses, to about 30k bits, odd and even,
with coefficients of either sign and digits at both ends of the balanced
range [-half, xi - 1 - half].
"""

from hypothesis import example, given, settings, strategies as st

from vermalab.ring import MultiPoly, PolyRing, _interpolate, _subst_int, classical_ring, quantum_ring

RING = classical_ring(2)  # x1, x2, h
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
XI = st.integers(10007, 1 << 30000)
SMALL_XI = (10007, 10008)


def _substitute_by_powers(p: MultiPoly, var: int, xi: int) -> MultiPoly:
    """sum over the terms of c * xi^k, with x_var^k dropped from the monomial."""
    out: dict[tuple[int, ...], int] = {}
    for e, c in p.terms.items():
        key = e[:var] + (0,) + e[var + 1 :]
        out[key] = out.get(key, 0) + c * xi ** e[var]
    return MultiPoly(p.ring, out)


def _interpolate_two_divisions(h: MultiPoly, xi: int, var: int) -> MultiPoly:
    """The balanced-digit loop as it was: one ``%`` for the digit and one
    ``//`` for the carry, all coefficients one digit per round."""
    out: dict[tuple[int, ...], int] = {}
    half = xi // 2
    i = 0
    cur = dict(h.terms)
    while cur:
        nxt: dict[tuple[int, ...], int] = {}
        for e, c in cur.items():
            digit = (c + half) % xi - half
            if digit:
                e2 = list(e)
                e2[var] = i
                out[tuple(e2)] = digit
            rest = (c - digit) // xi
            if rest:
                nxt[e] = rest
        cur = nxt
        i += 1
    return MultiPoly(h.ring, out)


EXPONENTS = st.tuples(*[st.integers(0, 6)] * RING.nvars)
COEFFS = st.one_of(st.integers(-9, 9), st.integers(-(1 << 2000), 1 << 2000)).filter(bool)
POLYS = st.dictionaries(EXPONENTS, COEFFS, max_size=12).map(lambda t: MultiPoly(RING, t))


@st.composite
def digit_images(draw):
    """(xi, var, h): h free of x_var, each coefficient the balanced xi-adic
    number of a drawn digit list, edge digits included."""
    xi = draw(st.one_of(st.sampled_from(SMALL_XI), XI))
    var = draw(st.integers(0, RING.nvars - 1))
    half = xi // 2
    lo, hi = -half, xi - 1 - half
    digit = st.one_of(st.sampled_from([lo, hi, lo + 1, hi - 1, 0, 1, -1]), st.integers(lo, hi))
    keys = st.tuples(*[st.just(0) if i == var else st.integers(0, 3) for i in range(RING.nvars)])
    terms = {}
    for key, digits in draw(st.dictionaries(keys, st.lists(digit, min_size=1, max_size=9), max_size=6)).items():
        terms[key] = sum(d * xi**k for k, d in enumerate(digits))
    return xi, var, MultiPoly(RING, terms)


@SETTINGS
@given(POLYS, st.integers(0, RING.nvars - 1), st.one_of(st.sampled_from(SMALL_XI), XI))
@example(MultiPoly(RING, {(3, 0, 1): 5, (0, 0, 1): -7, (2, 1, 0): 1}), 0, (1 << 29999) + 1)
@example(MultiPoly(RING, {(3, 0, 1): 5, (0, 0, 1): -7, (2, 1, 0): 1}), 0, 1 << 29999)
def test_subst_int_is_the_sum_of_c_xi_to_the_k(p, var, xi):
    assert _subst_int(p, var, xi) == _substitute_by_powers(p, var, xi)


def test_subst_int_drops_cancelled_columns():
    # x1 - 10007 at x1 = 10007 vanishes; h keeps its column
    p = MultiPoly(RING, {(1, 0, 0): 1, (0, 0, 0): -10007, (0, 0, 1): 3})
    got = _subst_int(p, 0, 10007)
    assert got.terms == {(0, 0, 1): 3}


@SETTINGS
@given(digit_images())
@example((10007, 1, MultiPoly(RING, {(2, 0, 1): -5003 + 5003 * 10007, (0, 0, 0): 5003 - 5003 * 10007})))
@example((10008, 2, MultiPoly(RING, {(1, 0, 0): -5004 + 5003 * 10008**3, (0, 3, 0): 5003 - 5004 * 10008})))
def test_interpolate_matches_the_two_division_loop(case):
    xi, var, h = case
    got = _interpolate(h, xi, var)
    want = _interpolate_two_divisions(h, xi, var)
    assert list(got.terms.items()) == list(want.terms.items())
    assert _subst_int(got, var, xi) == h


@SETTINGS
@given(POLYS, st.integers(0, RING.nvars - 1), st.one_of(st.sampled_from(SMALL_XI), XI))
def test_interpolate_inverts_subst_int_on_balanced_coefficients(p, var, xi):
    half = xi // 2
    if all(-half <= c <= xi - 1 - half for c in p.terms.values()):
        assert _interpolate(_subst_int(p, var, xi), xi, var) == p


@SETTINGS
@given(POLYS, POLYS)
def test_total_degree_is_the_largest_exponent_sum(p, q):
    for poly in (p, q, p * q, p + q):
        want = max((sum(e) for e in poly.terms), default=-1)
        assert poly.total_degree() == want
        assert poly.total_degree() == want  # the cached value


@SETTINGS
@given(POLYS)
def test_variables_are_the_nonzero_exponent_columns(p):
    assert p.variables() == {i for e in p.terms for i, k in enumerate(e) if k}


def test_variables_and_degree_of_zero_and_constants():
    for ring in (RING, quantum_ring(4), PolyRing(["t"])):
        zero = MultiPoly.zero(ring)
        assert zero.variables() == set() and zero.total_degree() == -1
        for c in (1, -3, 10**40):
            const = MultiPoly.const(ring, c)
            assert const.variables() == set() and const.total_degree() == 0
        h = MultiPoly.var(ring, ring.names[-1])
        assert h.variables() == {ring.nvars - 1} and h.total_degree() == 1
