"""Acceptance criteria, one test per criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdicts.  Every symbolic check is exact (zero tolerance); only the
parallel-transport criterion has numerical tolerances, stated inline.

Criterion 8a asserts the determinant-class identity exactly as stated:
the determinant class is the inverse square root of the corrected
multiplicative Casimir, det^2 * corrected = 1 on every pattern checked.
"""

import cmath
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from vermalab.field import FieldElem
from vermalab.gtalg import casimir_diagonality_defects, eig_det_bundle, eig_tilde_casimir
from vermalab.globalverma import (
    GlobalContext,
    check_double_relations,
    compose_perm,
    invariants_defect,
    lazy_global,
    lazy_global_delta,
    sn_action,
)
from vermalab.ktheory import (
    corrected_quantum_casimir_exponent,
    det_class_generators,
    eig_det_class_K,
    normalization_constant,
)
from vermalab.patterns import (
    degree_vectors_upto,
    enumerate_global_fixed_points,
    enumerate_patterns,
    joint_spectrum,
    separation,
)
from vermalab.shiftarg import (
    ConnectionSpec,
    Segment,
    circle_loop,
    monodromy_transport,
    qc_at_q_zero_defect,
    qc_commutator_block,
)
from vermalab.suites import (
    suite_gt_spectrum,
    suite_ktheory,
    suite_qc,
    suite_verify_gl,
    suite_whittaker,
)
from vermalab.verma import VermaContext, check_gl_relations, lazy_eij
from vermalab.whittaker import check_cyclicity, whittaker_component


@pytest.fixture(autouse=True)
def _verdict_printer(capsys):
    # route the verdict lines past pytest capture so a plain `pytest -v`
    # still shows one line per criterion
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


_CAPSYS = None


def _line(num: str, ok: bool, desc: str):
    message = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(message)
    else:
        print(message)


def test_criterion_01_gl_relations():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        results = check_gl_relations(n, 3)
        ok = ok and all(r[2] is None for r in results)
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _line("1", ok, f"structure constants exact for ranks 2..4, |d|<=3 in {elapsed:.1f}s")
    assert ok


def test_criterion_02_hand_checked_bracket():
    ctx = VermaContext.get(2)
    e1 = lazy_eij(ctx, 2, 1)
    f1 = lazy_eij(ctx, 1, 2)
    ok = True
    for m in range(6):
        got = e1.commutator(f1).block((m,)).get(0, 0)
        want = ctx.hinv * (ctx.x[2] - ctx.x[1]) + (2 * m + 1)
        ok = ok and (got - want).is_zero()
    _line("2", ok, "[raise, lower] eigenvalue (x2-x1)/h + 2m + 1 for m <= 5")
    assert ok


def test_criterion_03_casimir_diagonality_and_eigenvalues():
    ok = True
    for n in (2, 3, 4):
        ctx = VermaContext.get(n)
        for d in degree_vectors_upto(n, 3):
            for k in range(1, n + 1):
                ok = ok and casimir_diagonality_defects(n, k, d) == (None, None)
                ok = ok and casimir_diagonality_defects(n, k, d, corrected=True) == (None, None)
            for p in ctx.basis(d):
                for k in range(1, n):
                    lhs = eig_det_bundle(p, k)
                    rhs = eig_tilde_casimir(p, k) * ctx.h * Fraction(1, 2)
                    ok = ok and (lhs - rhs).is_zero()
    _line("3", ok, "assembled Casimirs diagonal with stated eigenvalues; det class = (h/2) corrected")
    assert ok


def test_criterion_04_whittaker():
    ok = True
    for n in (2, 3, 4):
        for d in degree_vectors_upto(n, 4):
            whittaker_component(n, d)
            ok = ok and check_cyclicity(n, d) == (None, None)
    ctx = VermaContext.get(2)
    comp = whittaker_component(2, (1,))
    golden = ctx.one / (ctx.h * (ctx.x[2] - ctx.x[1] + ctx.h))
    ok = ok and list(comp.coefficients.values())[0] == golden
    _line("4", ok, "unique components, nonzero coefficients, separated spectra, rank-2 golden")
    assert ok


def test_criterion_05_deformed_family():
    t0 = time.time()
    ok = True
    for d in degree_vectors_upto(4, 2):
        ok = ok and qc_commutator_block(4, 2, 3, d).is_zero()
    for n in (3, 4):
        for k in range(2, n):
            for d in degree_vectors_upto(n, 2):
                ok = ok and qc_at_q_zero_defect(n, k, d) is None
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _line("5", ok, f"[QC2,QC3]=0 on |d|<=2 and q->0 degeneration, {elapsed:.1f}s")
    assert ok


def test_criterion_06_monodromy():
    spec = ConnectionSpec(3, (1, 1), Fraction(1, 2), {"x1": 0, "x2": 1, "x3": 2, "h": 1})
    pts = [[0.5 + 0.1 * cmath.exp(1j * 2 * math.pi * s / 6)] for s in range(7)]
    contractible = [Segment(pts[s], pts[s + 1]) for s in range(6)]
    mat, _ = monodromy_transport(spec, contractible)
    dev = float(np.max(np.abs(mat - np.eye(spec.dim))))
    m1, _ = monodromy_transport(spec, circle_loop([0.3 + 0j], 0, 0.3))
    m2, _ = monodromy_transport(spec, circle_loop([0.3 + 0j], 0, 0.6, start_point=[0.3 + 0j]))
    gap = float(np.max(np.abs(m1 - m2)))
    ok = dev < 1e-8 and gap < 1e-6
    _line("6", ok, f"contractible deviation {dev:.2e} < 1e-8, homotopic gap {gap:.2e} < 1e-6")
    assert ok


def test_criterion_07_double_action():
    ok = True
    for n in (2, 3):
        ok = ok and all(r[2] is None for r in check_double_relations(n, 2))
        gctx = GlobalContext.get(n)
        for kind, i in itertools.product("ef", range(1, n)):
            delta = lazy_global_delta(gctx, kind, i)
            one, two = lazy_global(gctx, kind, 1, i), lazy_global(gctx, kind, 2, i)
            for d in degree_vectors_upto(n, 2):
                ok = ok and (delta.block(d) - (one.block(d) + two.block(d))).is_zero()
        for d in degree_vectors_upto(n, 2):
            ok = ok and invariants_defect(n, d) is None
        basis = gctx.basis((1,) + (0,) * (n - 2))
        vec = {basis[0]: FieldElem.var(gctx.ring, "x1")}
        perms = list(itertools.permutations(range(1, n + 1)))
        d0 = (1,) + (0,) * (n - 2)
        for sa in perms:
            for sb in perms:
                lhs = sn_action(sa, d0, sn_action(sb, d0, vec))
                rhs = sn_action(compose_perm(sa, sb), d0, vec)
                ok = ok and set(lhs) == set(rhs)
                ok = ok and all((lhs[k] - rhs[k]).is_zero() for k in lhs)
    _line("7", ok, "both families exact, cross-commuting, sums and symmetric action verified")
    assert ok


def test_criterion_08a_det_class_squared_inverts_corrected_casimir():
    ok = True
    witness = ""
    for n in (2, 3, 4):
        for d in degree_vectors_upto(n, 4):
            for p in enumerate_patterns(n, d):
                for k in range(1, n):
                    # on v-exponents det^2 * corrected = 1 reads 2 det + corrected = 0
                    det = eig_det_class_K(p, k)
                    corr = corrected_quantum_casimir_exponent(p, k)
                    if not (det.scale(2) + corr).is_zero():
                        if ok:
                            witness = (
                                f"first failure {p.text()} k={k}: exponent of det^2*corrected = "
                                f"{(det.scale(2) + corr).text()}; of det*corrected = "
                                f"{(det + corr).text()}"
                            )
                        ok = False
    _line("8a", ok, witness or "det^2 * corrected = 1 everywhere")
    assert ok, "the squared determinant class does not invert the corrected Casimir: " + witness


def test_criterion_08b_tau_cancellation():
    ok = True
    for n in (2, 3, 4):
        for d in degree_vectors_upto(n, 4):
            for p in enumerate_patterns(n, d):
                for k in range(1, n + 1):
                    ok = ok and corrected_quantum_casimir_exponent(p, k).total_degree() <= 1
    _line("8b", ok, "tau-quadratic part of the corrected exponent cancels, ranks 2..4, |d|<=4")
    assert ok


def test_criterion_08c_normalization_integrality():
    ok = True
    for n in (2, 3, 4):
        for d in degree_vectors_upto(n, 4):
            for p in enumerate_patterns(n, d):
                try:
                    normalization_constant(p)
                except Exception:
                    ok = False
    _line("8c", ok, "basis-change v-exponent integral, ranks 2..4, |d|<=4")
    assert ok


def test_criterion_08d_k_separation():
    ok = True
    nonvacuous = 0
    for n in (2, 3, 4):
        for d in degree_vectors_upto(n, 4):
            vac, sep, _ = separation(joint_spectrum(enumerate_patterns(n, d), det_class_generators(d)))
            if not vac:
                nonvacuous += 1
                ok = ok and sep
    ok = ok and nonvacuous > 0
    _line("8d", ok, f"determinant-class spectra separate on {nonvacuous} nonvacuous degrees")
    assert ok


def test_criterion_09_dimension_counts():
    def naive_count(n, d):
        shape = [(i, j) for i in range(1, n) for j in range(1, i + 1)]
        cap = max(d) if d else 0
        count = 0
        for values in itertools.product(range(cap + 1), repeat=len(shape)):
            entry = dict(zip(shape, values))
            if any(
                sum(entry[(i, j)] for j in range(1, i + 1)) != d[i - 1]
                for i in range(1, n)
            ):
                continue
            if all(
                entry[(i, j)] <= entry[(i - 1, j)]
                for i in range(2, n)
                for j in range(1, i)
            ):
                count += 1
        return count

    dim = len(enumerate_patterns(3, (1, 1)))
    ok = dim == 2 and naive_count(3, (1, 1)) == 2
    splits = 0
    for a in range(2):
        b = 1 - a
        splits += naive_count(2, (a,)) * naive_count(2, (b,))
    global_count = len(enumerate_global_fixed_points(2, (1,)))
    ok = ok and global_count == 4 and 2 * splits == 4
    _line("9", ok, f"dim V_(1,1) = {dim} and global count {global_count}, both oracle-checked")
    assert ok


def test_criterion_10_determinism():
    def full_run() -> str:
        chunks = [
            suite_verify_gl(2, 2).to_json(),
            suite_verify_gl(3, 1).to_json(),
            suite_gt_spectrum(3, "1,1")[0].to_json(),
            suite_whittaker(3, "1,1")[0].to_json(),
            suite_qc(3, "1,1").to_json(),
            suite_qc(4, "1,1,0").to_json(),
            suite_ktheory(3, 3)[0].to_json(),
        ]
        return "".join(chunks)

    first = full_run()
    second = full_run()
    ok = first == second
    _line("10", ok, "two consecutive full-suite runs are byte-identical")
    assert ok
