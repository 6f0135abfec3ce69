"""Matrix coefficients, commutator-built operators, and the structure
constants of the rank-n action, all exact."""

import pytest

from vermalab.globalverma import GlobalContext, lazy_global
from vermalab.gtalg import lazy_casimir, lazy_tilde_casimir
from vermalab.patterns import Pattern, degree_vectors_upto
from vermalab.shiftarg import lazy_qc, quantum_context
from vermalab.verma import (
    VermaContext,
    check_gl_relations,
    first_defect,
    gl_relation_defect,
    lazy_cartan,
    lazy_eij,
    root_shift,
)
from vermalab.whittaker import whittaker_component


def ctx2():
    return VermaContext.get(2)


def test_cartan_scalars_n2():
    c = ctx2()
    for m in range(4):
        assert c.cartan_scalar(1, (m,)) == c.hinv * c.x[1] - m
        assert c.cartan_scalar(2, (m,)) == c.hinv * c.x[2] + m + 1


def test_cartan_scalar_n3_example():
    c = VermaContext.get(3)
    # degree (1,1), i = 2: x2/h + d1 - d2 + 1 = x2/h + 1
    assert c.cartan_scalar(2, (1, 1)) == c.hinv * c.x[2] + 1


def test_raise_coefficient_constant_n2():
    c = ctx2()
    for m in range(4):
        p = Pattern(2, ((m,),))
        assert c.e_coefficient(p, 1, 1) == -c.hinv


def test_lower_coefficient_n2():
    c = ctx2()
    for m in range(1, 5):
        p = Pattern(2, ((m,),))
        want = (c.x[2] - c.x[1] + c.h * m) * m
        assert c.f_coefficient(p, 1, 1) == want


def test_blocked_transitions_are_absent():
    # raising the second-row entry above the first-row cap carries no entry
    c = VermaContext.get(3)
    block = c.e_block(2, (0, 0))
    src = c.basis((0, 0))
    tgt = c.basis((0, 1))
    assert len(src) == 1 and len(tgt) == 1
    # the only target has the bump in column 2; column 1 is capped by 0
    assert (0, 0) in block.entries
    p = src[0]
    assert p.bump(2, 1, +1) is None


def test_e13_equals_commutator_of_blocks():
    # build [E12, E23] on V_(1,1) by hand from the primitive blocks and
    # compare with the ladder construction
    c = VermaContext.get(3)
    d = (1, 1)
    # E23 lowers d2 first, then E12 lowers d1 (and the other order)
    first = c.eij_block(1, 2, (1, 0)) @ c.eij_block(2, 3, d)
    second = c.eij_block(2, 3, (0, 1)) @ c.eij_block(1, 2, d)
    by_hand = first - second
    assert by_hand == c.eij_block(1, 3, d)
    assert by_hand.rows == 1 and by_hand.cols == 2 and not by_hand.is_zero()


def test_e13_on_empty_target_is_zero_block():
    c = VermaContext.get(3)
    block = c.eij_block(1, 3, (0, 1))
    assert block.rows == 0 and block.is_zero()


def test_h1_eigenvalue_formula():
    # [e1, f1] acts on V_(m) by (x2 - x1)/h + 2m + 1
    c = ctx2()
    e1 = lazy_eij(c, 2, 1)
    f1 = lazy_eij(c, 1, 2)
    for m in range(6):
        blk = e1.commutator(f1).block((m,))
        want = c.hinv * (c.x[2] - c.x[1]) + (2 * m + 1)
        assert blk.get(0, 0) == want
        # and matches the difference of diagonal scalars
        assert want == c.cartan_scalar(2, (m,)) - c.cartan_scalar(1, (m,))


@pytest.mark.parametrize("n,dmax", [(2, 3), (3, 2)])
def test_gl_relations_small(n, dmax):
    results = check_gl_relations(n, dmax)
    bad = [r for r in results if r[2] is not None]
    assert not bad, bad


def test_first_defect_names_the_first_nonzero_degree():
    c = VermaContext.get(2)
    degrees = degree_vectors_upto(2, 3)
    assert first_defect(degrees, lambda d: gl_relation_defect(c, (1, 2), (2, 1), d)) is None
    # E12 alone is zero on V_0 (nothing to lower) and nonzero from V_1 on
    witness = first_defect(degrees, lazy_eij(c, 1, 2).block)
    assert witness == f"degree [1] entry (0,0): {c.f_block(1, (1,)).get(0, 0).text()}"


def test_diagonal_commute_identity():
    c = VermaContext.get(3)
    for d in degree_vectors_upto(3, 2):
        defect = gl_relation_defect(c, (1, 1), (2, 2), d)
        assert defect.is_zero()


def test_window_semantics():
    # a lazy operator has no window: every degree builds on first read
    op = lazy_eij(ctx2(), 2, 1)
    assert op.block((0,)).rows == 1
    assert op.block((5,)).rows == 1
    assert (5,) in op.blocks


def test_op_eij_shift():
    c = VermaContext.get(3)
    op = lazy_eij(c, 1, 3)
    assert op.shift == (-1, -1)
    op = lazy_eij(c, 3, 1)
    assert op.shift == (1, 1)
    assert root_shift(3, 3, 1) == (1, 1)


def test_fixed_point_scale_is_documented_constant():
    from vermalab.verma import fixed_point_to_eigenbasis_scale

    c = ctx2()
    assert fixed_point_to_eigenbasis_scale(2, (0,)) == c.one
    assert fixed_point_to_eigenbasis_scale(2, (3,)) == (-c.hinv) * (-c.hinv) * (-c.hinv)
    # never applied implicitly: raw coefficients carry no such factor
    assert c.e_coefficient(Pattern(2, ((0,),)), 1, 1) == -c.hinv


def test_e_support_changes_one_entry():
    c = VermaContext.get(3)
    for d in degree_vectors_upto(3, 2):
        for i in (1, 2):
            block = c.e_block(i, d)
            src = c.basis(d)
            tgt = c.basis(tuple(a + b for a, b in zip(d, root_shift(3, i + 1, i))))
            for (r, cc), _ in block.entries.items():
                diffs = [
                    (ii, jj)
                    for ii in range(1, 3)
                    for jj in range(1, ii + 1)
                    if src[cc].entry(ii, jj) != tgt[r].entry(ii, jj)
                ]
                assert len(diffs) == 1 and diffs[0][0] == i


def test_context_memoises_named_operators_and_solvers():
    ctx = VermaContext.get(3)
    qctx = quantum_context(3)
    assert lazy_eij(ctx, 1, 3) is lazy_eij(ctx, 1, 3)
    assert lazy_cartan(ctx, 2) is lazy_cartan(ctx, 2)
    assert lazy_casimir(ctx, 2) is lazy_casimir(ctx, 2)
    assert lazy_qc(qctx, 2) is lazy_qc(qctx, 2)
    assert lazy_tilde_casimir(qctx, 2) is lazy_tilde_casimir(qctx, 2)
    # building QC_2 on a block must not relabel the shared operators it sums
    lazy_qc(qctx, 2).block((1, 1))
    assert lazy_qc(qctx, 2).label == "QC2"
    assert lazy_tilde_casimir(qctx, 2).label == "tildeCas2"
    assert lazy_casimir(qctx, 2).label == "Cas2"
    gctx = GlobalContext.get(2)
    assert gctx is GlobalContext.get(2) and gctx.local is VermaContext.get(2)
    assert lazy_global(gctx, "e", 1, 1) is lazy_global(gctx, "e", 1, 1)
    # the one solver on the context memoises each component
    assert whittaker_component(2, (2,)) is whittaker_component(2, (2,))
