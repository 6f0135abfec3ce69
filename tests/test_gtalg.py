"""Casimir assembly vs closed forms, determinant classes, Chern weights."""

from fractions import Fraction

from vermalab.gtalg import (
    casimir_diagonality_defects,
    chern_h_divisible,
    det_bundle_indices,
    eig_casimir,
    eig_chern,
    eig_det_bundle,
    eig_tilde_casimir,
    generator_set,
    lazy_casimir,
    lazy_tilde_casimir,
)
from vermalab.patterns import Pattern, degree_vectors_upto, enumerate_patterns, joint_spectrum, separation
from vermalab.verma import VermaContext


def test_cas1_is_cartan_squared():
    c = VermaContext.get(2)
    for m in range(4):
        blk = lazy_casimir(c, 1).block((m,))
        want = (c.hinv * c.x[1] - m) * (c.hinv * c.x[1] - m)
        assert blk.get(0, 0) == want


def test_cas2_matches_row_formula_on_vacuum():
    assert casimir_diagonality_defects(2, 2, (0,)) == (None, None)


def test_assembled_casimirs_diagonal_small():
    for n, dmax in ((2, 3), (3, 3)):
        for d in degree_vectors_upto(n, dmax):
            for k in range(1, n + 1):
                witnesses = casimir_diagonality_defects(n, k, d)
                assert witnesses == (None, None), (n, k, d, witnesses)
                witnesses = casimir_diagonality_defects(n, k, d, corrected=True)
                assert witnesses == (None, None), (n, k, d, witnesses)


def test_tilde_eigenvalue_zero_pattern():
    c = VermaContext.get(3)
    p = enumerate_patterns(3, (0, 0))[0]
    for k in (1, 2, 3):
        want = c.zero
        for j in range(1, k + 1):
            want = want + c.hinv * c.x[j] * 2
        assert eig_tilde_casimir(p, k) == want


def test_tilde_eigenvalue_placement_example():
    # row 2 holding a single unit in column 1 vs column 2
    c = VermaContext.get(3)
    p10 = Pattern(3, ((1,), (1, 0)))
    p01 = Pattern(3, ((1,), (0, 1)))
    assert eig_tilde_casimir(p10, 2) == c.hinv * c.x[2] * 2
    assert eig_tilde_casimir(p01, 2) == c.hinv * c.x[1] * 2


def test_det_bundle_values():
    c = VermaContext.get(3)
    z = enumerate_patterns(3, (0, 0))[0]
    assert eig_det_bundle(z, 2) == c.x[1] + c.x[2]
    p = Pattern(3, ((1,), (1, 0)))
    assert eig_det_bundle(p, 2) == c.x[2]


def test_det_bundle_is_half_h_tilde():
    for n in (2, 3, 4):
        c = VermaContext.get(n)
        for d in degree_vectors_upto(n, 3):
            for p in enumerate_patterns(n, d):
                for k in range(1, n):
                    lhs = eig_det_bundle(p, k)
                    rhs = eig_tilde_casimir(p, k) * c.h * Fraction(1, 2)
                    assert (lhs - rhs).is_zero()


def test_chern_values_n2():
    c = VermaContext.get(2)
    for m in range(3):
        p = Pattern(2, ((m,),))
        diag = eig_chern(p, 1, 1, "diag")
        kun = eig_chern(p, 1, 1, "kunneth")
        assert diag == -c.x[1] + c.h * Fraction(m, 2)
        assert kun == FieldElem_from(c, Fraction(-m, 2))


def FieldElem_from(ctx, q):
    from vermalab.field import FieldElem

    return FieldElem.from_rational(ctx.ring, q)


def test_chern_kunneth_vanishes_on_vacuum():
    z = enumerate_patterns(3, (0, 0))[0]
    for i in (1, 2):
        for j in range(1, i + 1):
            assert eig_chern(z, i, j, "kunneth").is_zero()


def test_chern_h_divisibility():
    for n in (2, 3, 4):
        for d in degree_vectors_upto(n, 3):
            for p in enumerate_patterns(n, d):
                for i in range(1, n):
                    for j in range(1, i + 1):
                        assert chern_h_divisible(p, i, j)


def test_separation_examples():
    for n, d, vacuous in ((3, (1, 1), False), (2, (2,), True), (3, (2, 1), False)):
        spectrum = joint_spectrum(enumerate_patterns(n, d), generator_set(n, d, "tildeCas"))
        assert separation(spectrum) == (vacuous, True, None)


def test_det_bundle_generator_sets():
    def labels(d, name):
        return [label for label, _ in generator_set(3, d, name)]

    assert labels((1, 1), "detBundles") == ["c1(D2)"]
    assert labels((0, 1), "detBundles") == []
    assert labels((0, 1), "detBundlesAll") == ["c1(D1)", "c1(D2)"]
    assert det_bundle_indices((1, 1, 0, 2, 3)) == [2, 5]


def test_casimirs_commute():
    c = VermaContext.get(3)
    for d in degree_vectors_upto(3, 2):
        for k in (1, 2, 3):
            for l in range(k + 1, 4):
                blk = lazy_casimir(c, k).commutator(lazy_casimir(c, l)).block(d)
                assert blk.is_zero()


def test_windowed_surface():
    # the named Casimir operators are diagonal and build each block read
    c = VermaContext.get(3)
    window = degree_vectors_upto(3, 1)
    op = lazy_casimir(c, 2)
    assert op.shift == (0, 0) and op.label == "Cas2"
    op2 = lazy_tilde_casimir(c, 2)
    assert op2.shift == (0, 0) and op2.label == "tildeCas2"
    for d in window:
        op2.block(d)
    assert set(window) <= set(op2.blocks)
