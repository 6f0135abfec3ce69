"""Multiplicative eigenvalue calculus: exponent bookkeeping and identities.

The determinant class is the inverse square root of the corrected
multiplicative Casimir (det^2 * corrected = 1, on exponents
2 det + corrected = 0), verified by exhaustive exact exponent arithmetic; the determinant class is also checked to be
the image of the cohomological determinant bundle, so the two layers
cannot drift apart.
"""

import pytest

from vermalab.field import VermalabError
from vermalab.gtalg import eig_det_bundle
from vermalab.ktheory import (
    affine_parts,
    corrected_quantum_casimir_exponent,
    det_class_generators,
    eig_det_class_K,
    eig_quantum_cartan,
    eig_quantum_casimir,
    exponent,
    exponent_text,
    lowering_prefactor,
    normalization_constant,
    raising_prefactor,
)
from vermalab.patterns import Pattern, degree_vectors_upto, enumerate_patterns, joint_spectrum, separation
from vermalab.verma import VermaContext


def _cohomological_image(e, ctx: VermaContext):
    """t_j -> x_j / h and v^e -> e, the dictionary under which
    eig_quantum_cartan matches VermaContext.cartan_scalar."""
    texp, vexp = affine_parts(e)
    total = ctx.one * vexp
    for j, a in enumerate(texp, start=1):
        total = total + ctx.hinv * ctx.x[j] * a
    return total


def _k_separation(n, d):
    return separation(joint_spectrum(enumerate_patterns(n, d), det_class_generators(d)))


def test_quantum_cartan_examples():
    p = Pattern(2, ((1,),))
    assert eig_quantum_cartan(p, 1) == exponent(2, -1, {1: 1})
    assert eig_quantum_cartan(p, 2) == exponent(2, 2, {2: 1})
    z = Pattern(3, ((0,), (0, 0)))
    for i in (1, 2, 3):
        assert eig_quantum_cartan(z, i) == exponent(3, i - 1, {i: 1})


def test_raw_casimir_exponent_is_quadratic():
    p = Pattern(2, ((1,),))
    raw = eig_quantum_casimir(p, 1)
    # -(tau1 - 1)^2 = -tau1^2 + 2 tau1 - 1
    tau1 = exponent(2, 0, {1: 1})
    assert raw == exponent(2, -1, {1: 2}) - tau1 * tau1
    assert raw.text() == "-tau1^2 + 2*tau1 - 1"


def test_corrected_is_monomial_and_inverts_det_class():
    p = Pattern(3, ((1,), (1, 0)))
    det = eig_det_class_K(p, 2)
    corr = corrected_quantum_casimir_exponent(p, 2)
    assert det == exponent(3, 0, {2: 1})
    assert corr == exponent(3, 0, {2: -2})
    assert (det.scale(2) + corr).is_zero()


def test_corrected_on_vacuum():
    z = Pattern(3, ((0,), (0, 0)))
    assert corrected_quantum_casimir_exponent(z, 2) == exponent(3, 0, {1: -2, 2: -2})
    assert eig_det_class_K(z, 2) == exponent(3, 0, {1: 1, 2: 1})


def test_det_class_examples():
    z = Pattern(3, ((0,), (0, 0)))
    assert eig_det_class_K(z, 1) == exponent(3, 0, {1: 1})
    p = Pattern(3, ((1,), (1, 0)))
    assert exponent_text(eig_det_class_K(p, 2)) == "t2^1"
    assert exponent_text(exponent(3)) == "1"


def test_exhaustive_identities_small_ranks():
    for n in (2, 3, 4):
        ctx = VermaContext.get(n)
        for d in degree_vectors_upto(n, 4):
            for p in enumerate_patterns(n, d):
                for k in range(1, n + 1):
                    corr = corrected_quantum_casimir_exponent(p, k)
                    assert corr.total_degree() <= 1, (n, d, p.text(), k)
                    # the dictionary itself: Cartan eigenvalues correspond
                    cartan = _cohomological_image(eig_quantum_cartan(p, k), ctx)
                    assert cartan == ctx.cartan_scalar(k, p.degree()), (p.text(), k)
                    if k <= n - 1:
                        det = eig_det_class_K(p, k)
                        assert (det.scale(2) + corr).is_zero(), (p.text(), k)
                        image = _cohomological_image(det, ctx)
                        assert image == eig_det_bundle(p, k) * ctx.hinv, (p.text(), k)


def test_normalization_constant_goldens():
    z = Pattern(2, ((0,),))
    assert normalization_constant(z) == (0, exponent(2))
    p = Pattern(2, ((1,),))
    vsq_minus_one, mono = normalization_constant(p)
    assert vsq_minus_one == -1
    assert mono == exponent(2, -1, {1: 2})
    assert exponent_text(mono) == "t1^2 v^-1"


def test_normalization_integrality_everywhere():
    for n in (2, 3, 4):
        for d in degree_vectors_upto(n, 4):
            for p in enumerate_patterns(n, d):
                normalization_constant(p)  # raises on a half-integer exponent


def test_separation_examples():
    vac, sep, _ = _k_separation(3, (1, 1))
    assert not vac and sep
    vac, sep, _ = _k_separation(2, (3,))
    assert vac and sep
    vac, sep, _ = _k_separation(4, (1, 1, 1))
    assert not vac and sep


def test_separation_values_n3():
    pats = enumerate_patterns(3, (1, 1))
    values = {p.text(): exponent_text(eig_det_class_K(p, 2)) for p in pats}
    assert values == {"[1;0,1]": "t1^1", "[1;1,0]": "t2^1"}


def test_prefactor_monomials():
    p = Pattern(2, ((1,),))
    low = lowering_prefactor(p, 1)
    high = raising_prefactor(p, 1)
    # exponents follow the displayed powers at i = 1, d = (1):
    # lowering v-power 3*1 - 2*0 - 1*0 - 2 + 1 = 2, raising 0 + 0 - 3 - 1 = -4
    assert low == exponent(2, 2, {1: -2, 2: 1})
    assert high == exponent(2, -4, {1: 1, 2: -2})


def test_index_range_errors():
    p = Pattern(2, ((1,),))
    with pytest.raises(VermalabError):
        eig_det_class_K(p, 2)
    with pytest.raises(VermalabError):
        eig_quantum_cartan(p, 3)


def test_quadratic_part_is_named_when_rendered_or_collapsed():
    raw = eig_quantum_casimir(Pattern(3, ((1,), (1, 0))), 2)
    assert raw.total_degree() == 2
    with pytest.raises(VermalabError, match=r"did not cancel: -tau1\^2 - tau2\^2$"):
        exponent_text(raw)
    with pytest.raises(VermalabError, match=r"did not cancel: -tau1\^2 - tau2\^2$"):
        affine_parts(raw)
