"""Deformed commuting family, flatness data, and numerical transport.

The commutator checks freeze what the exact runs actually produced: the
family with the printed coefficients commutes on every block with
|d| <= 2 but not on the (1,1,1) block, where the variant with doubled
deformation coefficients does commute.  Those facts are findings about
the source formulas and are asserted here as computed.
"""

import cmath
import math
import random
import re
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from vermalab.field import FieldElem, VermalabError
from vermalab.gtalg import lazy_casimir, lazy_tilde_casimir
from vermalab.patterns import degree_vectors_upto
from vermalab.shiftarg import (
    ConnectionSpec,
    RegularityError,
    Segment,
    circle_loop,
    flatness_c2_block,
    lazy_qc,
    monodromy_transport,
    paper_h_weights,
    paper_mu_weights,
    q_coefficient,
    qc_at_q_zero_defect,
    qc_commutator_block,
    qc_vs_quadratic_space,
    quadratic_space_element,
    quantum_context,
)
from vermalab import shiftarg
from vermalab.suites import _doubled_commutator_block, suite_gt_spectrum, suite_qc
from vermalab.verma import GradedOperator, VermaContext, lazy_quadratic


def test_deformation_coefficients_golden():
    assert q_coefficient(3, 1, 2, 3).text() == "(q2)/(q2 + 1)"
    assert q_coefficient(4, 1, 2, 4).text() == "(q2*q3)/(q2*q3 + q3 + 1)"
    assert q_coefficient(4, 1, 3, 4).text() == "(q2*q3 + q3)/(q2*q3 + q3 + 1)"
    assert q_coefficient(4, 2, 3, 4).text() == "(q3)/(q3 + 1)"


def test_qc_rejects_rank_two():
    with pytest.raises(Exception, match="Picard rank"):
        lazy_qc(quantum_context(2), 2)


def test_suite_qc_builds_each_qc_block_once(monkeypatch):
    # every cache hangs off a context, so an empty registry starts cold
    monkeypatch.setattr(VermaContext, "_instances", {})
    original = shiftarg.lazy_qc
    counted, builds = [], []

    def counting_lazy_qc(ctx, k):
        op = original(ctx, k)
        if not any(op is seen for seen in counted):
            counted.append(op)
            build = op.builder
            op.builder = lambda d: builds.append((k, d)) or build(d)
        return op

    monkeypatch.setattr(shiftarg, "lazy_qc", counting_lazy_qc)
    suite_qc(4, "1,1,0")
    assert sorted(builds) == [(2, (1, 1, 0)), (3, (1, 1, 0))]


def test_each_quadratic_term_is_built_once_and_never_relabelled(monkeypatch):
    monkeypatch.setattr(VermaContext, "_instances", {})
    original = GradedOperator.compose
    builds = Counter()

    def counting_compose(self, other):
        op = original(self, other)
        if re.fullmatch(r"\(E(\d)(\d)\*E\2\1\)", op.label):
            build = op.builder
            op.builder = lambda d: builds.update([(op.space, op.label, d)]) or build(d)
        return op

    monkeypatch.setattr(GradedOperator, "compose", counting_compose)
    suite_qc(4, "1,1,0")
    suite_gt_spectrum(4, "1,1,1")
    assert builds and set(builds.values()) == {1}
    # Cas_k, tildeCas_k, QC_k and Q_mu all sum the shared terms; none relabels one
    ctx = quantum_context(4)
    for k in range(1, 5):
        lazy_casimir(ctx, k)
        lazy_tilde_casimir(ctx, k)
    for k in (2, 3):
        lazy_qc(ctx, k)
        quadratic_space_element(4, paper_mu_weights(4), paper_h_weights(4, k))
    assert lazy_casimir(ctx, 1).label == "Cas1"
    for i in range(1, 5):
        for j in range(1, 5):
            assert lazy_quadratic(ctx, i, j).label == f"(E{i}{j}*E{j}{i})"


def test_qc_degenerates_at_q_zero():
    for n in (3, 4):
        for k in range(2, n):
            for d in degree_vectors_upto(n, 2):
                assert qc_at_q_zero_defect(n, k, d) is None


def test_qc_commutators_vanish_up_to_degree_two():
    for d in degree_vectors_upto(4, 2):
        assert qc_commutator_block(4, 2, 3, d).is_zero()


def test_qc_commutator_nonzero_at_111_and_doubled_variant_vanishes():
    # exact outcome of the probe beyond the small window: the printed
    # coefficients fail on V_(1,1,1) while doubling them restores
    # commutativity there
    blk = qc_commutator_block(4, 2, 3, (1, 1, 1))
    assert not blk.is_zero()
    doubled = _doubled_commutator_block(4, 2, 3, (1, 1, 1))
    assert doubled.is_zero()


def test_module_level_checkers():
    from vermalab.shiftarg import check_flatness, check_qc_commutativity

    assert check_qc_commutativity(3, (1, 1)) == []  # single element, vacuous
    results = check_qc_commutativity(4, (1, 0, 1))
    assert results == [(2, 3, None)]
    flat = check_flatness(4, (1, 0, 0))
    assert all(witness is None for _, witness in flat)
    with pytest.raises(Exception, match="Picard rank"):
        check_qc_commutativity(2, (1,))


def test_quadratic_space_regularity_error():
    with pytest.raises(RegularityError):
        quadratic_space_element(3, [1, 1, 2], [1, 0, 0])


def test_quadratic_space_single_root_n2():
    op = quadratic_space_element(2, [3, 1], [1, 0])
    blk = op.block((1,))
    ctx = quantum_context(2)
    want = (ctx.eij_block(1, 2, (2,)) @ ctx.eij_block(2, 1, (1,))).scale(
        FieldElem.from_rational(ctx.ring, Fraction(1, 2))
    )
    assert blk == want


def test_quadratic_space_commutativity_and_scale_invariance():
    mu = [7, 3, -2]
    h1 = [1, 1, 0]
    h2 = [4, -1, 5]
    a = quadratic_space_element(3, mu, h1)
    b = quadratic_space_element(3, mu, h2)
    for d in degree_vectors_upto(3, 2):
        assert a.commutator(b).block(d).is_zero()
    # dilation invariance of the commuting space: scaling mu rescales the
    # element by 1/c, so it stays in the same span (and scaling h along
    # with mu fixes it entirely)
    scaled = quadratic_space_element(3, [3 * m for m in mu], h1)
    matched = quadratic_space_element(3, [3 * m for m in mu], [3 * v for v in h1])
    third = FieldElem.from_rational(quantum_context(3).ring, Fraction(1, 3))
    for d in degree_vectors_upto(3, 2):
        assert (scaled.block(d) - a.block(d).scale(third)).is_zero()
        assert (matched.block(d) - a.block(d)).is_zero()


def test_h_equals_mu_gives_unit_coefficients():
    ctx = quantum_context(3)
    mu = [5, 2, -1]
    op = quadratic_space_element(3, mu, mu)
    direct = None
    from vermalab.verma import lazy_eij, operator_sum

    terms = []
    for i in range(1, 4):
        for j in range(i + 1, 4):
            terms.append(lazy_eij(ctx, i, j).compose(lazy_eij(ctx, j, i)))
    direct = operator_sum(terms)
    for d in degree_vectors_upto(3, 2):
        assert (op.block(d) - direct.block(d)).is_zero()


def test_qc_vs_quadratic_space_probe_differs():
    # the stated weights do not reproduce the deformed Casimir entrywise;
    # the difference is the normalization finding, recorded not patched
    diff = qc_vs_quadratic_space(3, 2, (1, 1))
    assert not diff.is_zero()


def test_paper_weights_are_regular():
    mu = paper_mu_weights(4)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not (mu[i] - mu[j]).is_zero()
    h2 = paper_h_weights(4, 2)
    assert h2[2].is_zero() and h2[3].is_zero()


def test_flatness_c2_vanishes():
    for d in degree_vectors_upto(4, 2):
        assert flatness_c2_block(4, 2, 3, d).is_zero()


# -- numerics ------------------------------------------------------------------


SPEC = {"x1": 0, "x2": 1, "x3": 2, "h": 1}


def _connection():
    return ConnectionSpec(3, (1, 1), Fraction(1, 2), SPEC)


def test_contractible_loop_is_identity():
    spec = _connection()
    pts = [[0.5 + 0.1 * cmath.exp(1j * 2 * math.pi * s / 6)] for s in range(7)]
    segs = [Segment(pts[s], pts[s + 1]) for s in range(6)]
    mat, est = monodromy_transport(spec, segs)
    assert float(np.max(np.abs(mat - np.eye(spec.dim)))) < 1e-8
    assert est < 1e-6


def test_loop_then_reverse_is_identity():
    spec = _connection()
    loop = circle_loop([0.3 + 0j], 0, 0.3)
    back = [Segment(s.end, s.start) for s in reversed(loop)]
    mat, _ = monodromy_transport(spec, loop + back)
    assert float(np.max(np.abs(mat - np.eye(spec.dim)))) < 1e-8


def test_homotopic_loops_agree():
    spec = _connection()
    m1, _ = monodromy_transport(spec, circle_loop([0.3 + 0j], 0, 0.3))
    m2, _ = monodromy_transport(spec, circle_loop([0.3 + 0j], 0, 0.6, start_point=[0.3 + 0j]))
    assert float(np.max(np.abs(m1 - m2))) < 1e-6
    # and the loop is genuinely nontrivial
    assert float(np.max(np.abs(m1 - np.eye(spec.dim)))) > 1e-3


def test_path_endpoints_must_avoid_origin():
    with pytest.raises(Exception):
        Segment([0.0 + 0j], [1.0 + 0j])


SPEC4 = {"x1": 0, "x2": Fraction(1, 3), "x3": Fraction(5, 7), "x4": Fraction(3, 2), "h": 1}


@pytest.mark.parametrize(
    "n, d, spec",
    [(3, (1, 1), SPEC), (4, (1, 1, 1), SPEC4), (4, (1, 1, 0), SPEC4)],
    ids=["n3-d11", "n4-d111", "n4-d110-absent-entries"],
)
def test_compiled_blocks_match_exact_evaluation(n, d, spec):
    conn = ConnectionSpec(n, d, Fraction(1, 2), spec)
    if d == (1, 1, 0):
        # QC_3 has entries that are identically zero on this block
        assert len(conn.blocks[3]) < conn.dim**2
    rng = random.Random(20081)
    for _ in range(20):
        q = [cmath.rect(rng.uniform(0.2, 2.0), rng.uniform(-math.pi, math.pi)) for _ in conn.qnames]
        qmap = dict(zip(conn.qnames, q))
        compiled = conn.blocks_at(q)
        for idx, k in enumerate(range(2, n)):
            exact = conn.matrix_at(qmap, k)
            assert np.allclose(compiled[idx], exact, rtol=1e-10, atol=1e-12), (k, q)
        deltas = [complex(1, k) for k in range(2, n)]
        generator = sum(-0.5 * delta * conn.matrix_at(qmap, k) for delta, k in zip(deltas, range(2, n)))
        assert np.allclose(conn.generator(q, deltas), generator, rtol=1e-10, atol=1e-12)


def test_compiled_pole_is_an_error_not_a_warning():
    conn = _connection()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(VermalabError, match="not finite"):
            conn.blocks_at([-1.0 + 0j])


def test_endpoint_certificate_rejects_a_wrong_compilation():
    conn = _connection()
    conn.numerators = conn.numerators * (1 + 1e-6)
    with pytest.raises(VermalabError, match="compiled QC2 is off"):
        monodromy_transport(conn, circle_loop([0.3 + 0j], 0, 0.3))
