"""Exact rational-function arithmetic: canonical forms, field laws, eval."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vermalab.field import DivisionByZeroError, FieldElem, PoleError, VermalabError
from vermalab.ring import MultiPoly, classical_ring, exact_div, poly_gcd

R = classical_ring(3)
X1 = FieldElem.var(R, "x1")
X2 = FieldElem.var(R, "x2")
X3 = FieldElem.var(R, "x3")
H = FieldElem.var(R, "h")
ONE = FieldElem.one(R)


def test_common_denominator():
    assert X1 / H + X2 / H == (X1 + X2) / H


def test_gcd_cancellation():
    assert (X1 * X1 - X2 * X2) / (X1 - X2) == X1 + X2


def test_inverse_cancels():
    q = ONE / (1 + H)
    assert q * (1 + H) == ONE


def test_division_by_zero():
    with pytest.raises(DivisionByZeroError):
        X1 / FieldElem.zero(R)


def test_eval_examples():
    assert (X2 - X1 + H).evaluate({"x1": 1, "x2": 3, "h": 2}) == 4
    with pytest.raises(PoleError):
        (ONE / H).evaluate({"h": 0})
    q2 = H  # reuse a variable as a stand-in: q/(1+q) at q=1 is 1/2
    assert (q2 / (1 + q2)).evaluate({"h": 1}) == Fraction(1, 2)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_float_operand_is_a_type_error_in_both_orders(op):
    for a, b in ((ONE, 1.5), (1.5, ONE)):
        with pytest.raises(TypeError, match="float"):
            op(a, b)


def test_eval_requires_all_used_variables():
    with pytest.raises(VermalabError, match="assignment misses variables: x2"):
        (X1 + X2).evaluate({"x1": 1})


def test_eval_rejects_unknown_variable_names():
    with pytest.raises(VermalabError, match="unknown variable"):
        X1.evaluate({"x9": 1})
    with pytest.raises(VermalabError, match="unknown variable"):
        X1.substitute({"bogus": 2})


def test_canonical_sign_convention():
    fe = (X1 - X2) / (X2 - X1)
    assert fe == -1
    assert fe.den.leading()[1] > 0
    inv = (X2 - X1).inverse()
    assert inv.den.leading()[1] > 0


def test_serialization_shapes():
    assert (X1 + X2).text() == "x1 + x2"
    assert ((X1 + X2) / H).text() == "(x1 + x2)/(h)"
    assert FieldElem.from_rational(R, Fraction(-3, 2)).text() == "(-3)/(2)"


def test_text_is_stable_across_recomputation():
    a = (X1 + 2 * H) / (X2 - X3 + H) + X1 / H
    b = X1 / H + (X1 + 2 * H) / (X2 - X3 + H)
    assert a.text() == b.text()


# randomized structural generators, small enough to stay quick

_POOL = [X1, X2, X3, H, ONE + X1, X2 - 3 * H, (X1 + X2) / H, ONE / (X3 + 2 * H)]


@st.composite
def field_elems(draw):
    idx = draw(st.integers(min_value=0, max_value=len(_POOL) - 1))
    c = draw(st.integers(min_value=-4, max_value=4))
    return _POOL[idx] + c


@given(a=field_elems(), b=field_elems(), c=field_elems())
@settings(max_examples=60, deadline=None)
def test_field_laws(a, b, c):
    assert ((a + b) + c) == (a + (b + c))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == ONE


@given(a=field_elems(), b=field_elems())
@settings(max_examples=60, deadline=None)
def test_canonicality_is_mathematical_equality(a, b):
    # equal as functions iff cross products match iff representations match
    cross_equal = (a.num * b.den - b.num * a.den).is_zero()
    assert cross_equal == (a == b)


@given(a=field_elems())
@settings(max_examples=60, deadline=None)
def test_reduced_invariant(a):
    g = poly_gcd(a.num, a.den)
    assert g.is_const() and abs(g.const_value()) == 1
    assert a.den.leading()[1] > 0


def test_substitute_partial():
    f = (X1 + X2) / (H + 1)
    g = f.substitute({"x1": Fraction(1, 2)})
    assert g == (FieldElem.from_rational(R, Fraction(1, 2)) + X2) / (H + 1)


def test_bar_and_permute():
    f = (X1 - X2 + H) / H
    assert f.bar() == (X1 - X2 - H) / (-H)
    assert f.permute_x((2, 1, 3)) == (X2 - X1 + H) / H
    # involution and group law
    assert f.bar().bar() == f
    assert f.permute_x((2, 3, 1)).permute_x((2, 3, 1)).permute_x((2, 3, 1)) == f


def test_derivative_quotient_rule():
    f = (X1 * X1) / (X1 + H)
    expected = (X1 * X1 + 2 * X1 * H) / ((X1 + H) * (X1 + H))
    assert f.derivative("x1") == expected


def test_from_factors_matches_generic_arithmetic():
    h = MultiPoly.var(R, "h")
    lin = MultiPoly.var(R, "x1") - MultiPoly.var(R, "x2") + h
    fe = FieldElem.from_factors(R, Fraction(-1, 2), [lin], [h, h])
    generic = FieldElem.from_rational(R, Fraction(-1, 2)) * (X1 - X2 + H) / (H * H)
    assert fe == generic
    assert exact_div(fe.den, h) is not None


def test_constant_hash_agrees_with_equal_numbers():
    generic = FieldElem(MultiPoly.const(R, 6), MultiPoly.const(R, -4))
    for fe, value in [
        (ONE, 1),
        (FieldElem.zero(R), 0),
        (FieldElem.from_rational(R, Fraction(-3, 4)), Fraction(-3, 4)),
        (generic, Fraction(-3, 2)),
        ((X1 + H) / (2 * X1 + 2 * H), Fraction(1, 2)),
    ]:
        assert fe == value and hash(fe) == hash(value), fe
        assert len({fe, value}) == 1, fe


def test_hinted_product_without_cancellation_makes_one_polynomial_product(monkeypatch):
    x1, x2, x3, h = (MultiPoly.var(R, v) for v in ("x1", "x2", "x3", "h"))
    a = FieldElem.from_factors(R, Fraction(2, 3), [x1 + h], [x1 - x2, x2 - x3 + h])
    b = FieldElem.from_factors(R, Fraction(-5, 7), [x3 - h], [x1 - x3, h])
    calls = []
    mul = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    prod = a * b
    assert len(calls) == 1
    monkeypatch.undo()
    assert prod.dfac == a.dfac + b.dfac
    assert prod == Fraction(-10, 21) * (X1 + H) * (X3 - H) / ((X1 - X2) * (X2 - X3 + H) * (X1 - X3) * H)
