"""Double action, symmetric-group twist, global Whittaker and Chern data."""

import itertools

import pytest

from vermalab.field import FieldElem, VermalabError
from vermalab.globalverma import (
    GlobalContext,
    apply_to_vec,
    c1_closed_form,
    cartan_from_chern,
    check_double_relations,
    check_global_whittaker,
    compose_perm,
    eig_global_chern,
    global_whittaker_vector,
    invariants_defect,
    lazy_global,
    lazy_global_delta,
    sn_action,
    symmetrize,
    vec_difference,
    vec_is_invariant,
)
from vermalab.gtalg import _esym, chern_generators, chern_weights
from vermalab.patterns import GlobalFixedPoint, Pattern, degree_vectors_upto, joint_spectrum, separation, shift_degree


def test_family_blocks_match_bar_rule_n2():
    gctx = GlobalContext.get(2)
    e1 = lazy_global(gctx, "e", 1, 1).block((0,))
    e2 = lazy_global(gctx, "e", 2, 1).block((0,))
    hinv = gctx.local.hinv
    for v in e1.entries.values():
        assert v == -hinv
    for v in e2.entries.values():
        assert v == hinv


def test_transitions_keep_sigma_and_other_pattern():
    gctx = GlobalContext.get(2)
    blk = lazy_global(gctx, "e", 1, 1).block((1,))
    src = gctx.basis((1,))
    tgt = gctx.basis((2,))
    for (r, c), _ in blk.entries.items():
        assert src[c].sigma == tgt[r].sigma
        assert src[c].pinf == tgt[r].pinf
        assert src[c].p0 != tgt[r].p0


@pytest.mark.parametrize("n,dmax", [(2, 2), (3, 2)])
def test_double_relations(n, dmax):
    results = check_double_relations(n, dmax)
    bad = [r for r in results if r[2] is not None]
    assert not bad, bad[:4]


def test_delta_operators_are_family_sums():
    # entry by entry, so the check does not share the blockwise sum it tests
    for n, dmax in ((2, 2), (3, 1)):
        gctx = GlobalContext.get(n)
        for kind, i, d in itertools.product("ef", range(1, n), degree_vectors_upto(n, dmax)):
            want = dict(lazy_global(gctx, kind, 1, i).block(d).entries)
            for k, v in lazy_global(gctx, kind, 2, i).block(d).entries.items():
                want[k] = want[k] + v if k in want else v
            want = {k: v for k, v in want.items() if not v.is_zero()}
            assert lazy_global_delta(gctx, kind, i).block(d).entries == want, (n, kind, i, d)


def test_global_h_blocks_are_twisted_cartan_scalars():
    # family 1 reads the scalar off p0, family 2 off pinf and bars it;
    # both then substitute sigma
    gctx = GlobalContext.get(3)
    local = gctx.local
    for fam, i, d in itertools.product((1, 2), range(1, 4), degree_vectors_upto(3, 2)):
        want = {}
        for col, fp in enumerate(gctx.basis(d)):
            scalar = local.cartan_scalar(i, (fp.p0 if fam == 1 else fp.pinf).degree())
            want[(col, col)] = (scalar if fam == 1 else scalar.bar()).permute_x(fp.sigma)
        assert lazy_global(gctx, "h", fam, i).block(d).entries == want, (fam, i, d)


def test_family_two_is_family_one_barred_with_patterns_swapped():
    gctx = GlobalContext.get(3)

    def swap(fp):
        return GlobalFixedPoint(fp.sigma, fp.pinf, fp.p0)

    seen = 0
    for kind, i, d in itertools.product("ef", (1, 2), degree_vectors_upto(3, 2)):
        one, two = (lazy_global(gctx, kind, fam, i) for fam in (1, 2))
        src, tgt = gctx.basis(d), gctx.basis(shift_degree(d, one.shift))
        want = {(tgt[r], src[c]): v for (r, c), v in one.block(d).entries.items()}
        got = {(swap(tgt[r]), swap(src[c])): v.bar() for (r, c), v in two.block(d).entries.items()}
        assert got == want, (kind, i, d)
        seen += len(want)
    assert seen > 0


def test_e1f1_commutator_is_sigma_twisted_h():
    gctx = GlobalContext.get(2)
    e = lazy_global(gctx, "e", 1, 1)
    f = lazy_global(gctx, "f", 1, 1)
    blk = e.commutator(f).block((1,))
    local = gctx.local
    for idx, fp in enumerate(gctx.basis((1,))):
        d0 = fp.p0.degree()
        want = (local.cartan_scalar(2, d0) - local.cartan_scalar(1, d0)).permute_x(fp.sigma)
        assert blk.get(idx, idx) == want


def test_sn_action_substitution_rule():
    gctx = GlobalContext.get(2)
    basis = gctx.basis((1,))
    fp = next(f for f in basis if f.sigma == (1, 2))
    x1 = FieldElem.var(gctx.ring, "x1")
    moved = sn_action((2, 1), (1,), {fp: x1})
    (tfp, coeff), = moved.items()
    assert tfp.sigma == (2, 1)
    assert coeff == FieldElem.var(gctx.ring, "x2")
    assert tfp.p0 == fp.p0 and tfp.pinf == fp.pinf


def test_sn_action_group_law_random_vectors():
    import itertools

    gctx = GlobalContext.get(3)
    d = (1, 0)
    basis = gctx.basis(d)
    vec = {
        basis[0]: FieldElem.var(gctx.ring, "x1"),
        basis[-1]: FieldElem.var(gctx.ring, "x3") + 2,
    }
    perms = list(itertools.permutations((1, 2, 3)))
    for sa in perms:
        for sb in perms:
            lhs = sn_action(sa, d, sn_action(sb, d, vec))
            rhs = sn_action(compose_perm(sa, sb), d, vec)
            assert set(lhs) == set(rhs)
            for key in lhs:
                assert (lhs[key] - rhs[key]).is_zero()


def test_identity_permutation_acts_trivially():
    gctx = GlobalContext.get(2)
    basis = gctx.basis((1,))
    vec = {basis[0]: FieldElem.var(gctx.ring, "x1")}
    assert sn_action((1, 2), (1,), vec) == vec


def test_symmetrize_dimensions():
    invs = symmetrize(2, (0,))
    assert len(invs) == 1 and len(invs[0]) == 2
    invs = symmetrize(2, (1,))
    assert len(invs) == 2
    for vec in invs:
        assert vec_is_invariant(2, (1,), vec)


def test_invariants_preserved():
    assert invariants_defect(2, (1,)) is None
    assert invariants_defect(3, (1, 1)) is None


def test_delta_lower_keeps_invariance_explicitly():
    gctx = GlobalContext.get(2)
    inv = symmetrize(2, (1,))[0]
    fdelta = lazy_global_delta(gctx, "f", 1)
    out_deg, out = apply_to_vec(gctx, fdelta, (1,), inv)
    assert out_deg == (0,)
    if out:
        assert vec_is_invariant(2, (0,), out)


def test_global_whittaker_conditions():
    for n, d in ((2, (1,)), (2, (2,)), (3, (1, 1))):
        results = check_global_whittaker(n, d)
        assert results and all(r[2] is None for r in results), results


def test_global_whittaker_identity_sigma_coeff():
    # at degree zero the vector has coefficient 1 at every sigma
    vec = global_whittaker_vector(2, (0,))
    assert all(v == 1 for v in vec.values())


def test_global_chern_example():
    from fractions import Fraction

    fp = GlobalFixedPoint((1, 2), Pattern(2, ((1,),)), Pattern(2, ((0,),)))
    ctx = GlobalContext.get(2).local
    val = eig_global_chern(fp, 1, 1, "diag")
    assert val == -ctx.x[1] + ctx.h * Fraction(1, 2)


def test_global_chern_matches_permuted_weights_for_every_sigma():
    # e_j of the sigma-permuted weights, permuted before the symmetric
    # functions are taken and never read through the memo
    gctx = GlobalContext.get(3)
    ctx = gctx.local
    for d in degree_vectors_upto(3, 2):
        for fp in gctx.basis(d):
            for i in (1, 2):
                zero = [w.permute_x(fp.sigma) for w in chern_weights(fp.p0, i)]
                inf = [w.permute_x(fp.sigma) for w in chern_weights(fp.pinf, i)]
                for j in range(1, i + 1):
                    e_zero, e_inf = _esym(zero, j, ctx.ring), _esym(inf, j, ctx.ring)
                    want = {"diag": (e_inf + e_zero) / 2, "kunneth": ctx.hinv * (e_inf - e_zero) / 2}
                    for part in ("diag", "kunneth"):
                        assert eig_global_chern(fp, i, j, part) == want[part], (fp, i, j, part)


def test_vec_difference_reads_missing_points_as_zero():
    gctx = GlobalContext.get(2)
    ctx = gctx.local
    a, b = gctx.basis((1,))[:2]
    x1 = ctx.x[1]
    assert vec_difference({}, {}) is None
    assert vec_difference({a: x1}, {a: x1}) is None
    assert vec_difference({a: x1}, {a: x1, b: ctx.zero}) is None
    assert vec_difference({b: x1}, {}) == f"{b.text()}: {x1.text()} vs 0"
    # the first differing point in sort_key order, not insertion order
    assert vec_difference({b: x1, a: ctx.h}, {}) == f"{a.text()}: {ctx.h.text()} vs 0"


def test_c1_closed_form_vacuum():
    fp = GlobalFixedPoint((2, 1), Pattern(2, ((0,),)), Pattern(2, ((0,),)))
    ctx = GlobalContext.get(2).local
    assert c1_closed_form(fp, 1) == -ctx.x[2]


def test_cartan_from_chern_flags_offset():
    # the first-Chern combination comes out x_{sigma(i)} + 2(d_{i-1}-d_i)h;
    # both values are exposed and the mismatch is a reported finding
    ctx = GlobalContext.get(2).local
    fp = GlobalFixedPoint((1, 2), Pattern(2, ((1,),)), Pattern(2, ((0,),)))
    computed, expected = cartan_from_chern(fp, 1)
    assert expected == ctx.x[1]
    assert computed == ctx.x[1] - 2 * ctx.h
    balanced = GlobalFixedPoint((1, 2), Pattern(2, ((0,),)), Pattern(2, ((0,),)))
    computed, expected = cartan_from_chern(balanced, 1)
    assert (computed - expected).is_zero()


def test_global_separation():
    for n, d in ((2, (0,)), (2, (1,)), (3, (1, 0)), (3, (1, 1))):
        spectrum = joint_spectrum(GlobalContext.get(n).basis(d), chern_generators(n, eig_global_chern))
        vac, sep, wit = separation(spectrum, key=GlobalFixedPoint.sort_key)
        assert sep, (n, d, wit)


def test_op_global_surface():
    gctx = GlobalContext.get(2)
    op = lazy_global_delta(gctx, "f", 1)
    assert op.shift == (-1,) and op.label == "f1(Delta)"
    assert lazy_global_delta(gctx, "f", 1) is op
    with pytest.raises(VermalabError, match="unknown operator kind"):
        lazy_global_delta(gctx, "bogus", 1)
