"""The global module: two commuting copies of the rank-n action.

Fixed points are triples (sigma, p0, pinf).  Family (1) acts through the
p0 pattern with sigma-substituted local coefficients; family (2) acts
through pinf with the local coefficient barred (h -> -h) first and then
sigma-substituted.  The diagonal operators are the sums of the two
families.  The symmetric group acts by sigma'(f [sigma, p0, pinf]) =
f^{sigma'} [sigma' sigma, p0, pinf], and the invariants are preserved by
all the operators; everything here is verified exactly on windows.
"""

from __future__ import annotations

import itertools

from .field import FieldElem, VermalabError
from .gtalg import _chern_part, chern_weights
from .linalg import SparseMatrix
from .patterns import (
    DegreeVector,
    GlobalFixedPoint,
    degree_valid,
    degree_vectors_upto,
    enumerate_global_fixed_points,
    shift_degree,
)
from .verma import GradedOperator, VermaContext, _GradedSpace, _named_operator, first_defect, operator_sum, root_shift
from .whittaker import whittaker_component


class GlobalContext(_GradedSpace):
    """Global fixed points of one rank; memoised on the local context."""

    def __init__(self, n: int):
        super().__init__(n, enumerate_global_fixed_points)
        self.local = VermaContext.get(n)
        self.ring = self.local.ring

    @classmethod
    def get(cls, n: int) -> "GlobalContext":
        return VermaContext.get(n)._cached(("GlobalContext",), lambda: cls(n))


def _twist(coeff: FieldElem, sigma: tuple[int, ...], family: int) -> FieldElem:
    if family == 2:
        coeff = coeff.bar()
    return coeff.permute_x(sigma)


def global_block(gctx: GlobalContext, family: int, a: int, b: int, d: DegreeVector) -> SparseMatrix:
    """Block of E[a][b] of one family: the column of each global point is
    the local E[a][b] column of the family's pattern, with sigma and the
    other pattern kept and every entry twisted by ``_twist``."""
    d = tuple(d)
    shift = root_shift(gctx.n, a, b)
    target = shift_degree(d, shift)
    src = gctx.basis(d)
    tgt_index = gctx.index(target)
    local = gctx.local
    entries: dict[tuple[int, int], FieldElem] = {}
    for col, fp in enumerate(src):
        pat = fp.p0 if family == 1 else fp.pinf
        ldeg = pat.degree()
        lcol = local.index(ldeg)[pat]
        lbasis = local.basis(shift_degree(ldeg, shift))
        for (r, c), v in local.eij_block(a, b, ldeg).entries.items():
            if c != lcol:
                continue
            q = lbasis[r]
            tfp = (
                GlobalFixedPoint(fp.sigma, q, fp.pinf)
                if family == 1
                else GlobalFixedPoint(fp.sigma, fp.p0, q)
            )
            row = tgt_index.get(tfp)
            if row is not None:
                entries[(row, col)] = _twist(v, fp.sigma, family)
    return SparseMatrix(gctx.dim(target), len(src), gctx.ring, entries)


@_named_operator
def lazy_global(gctx: GlobalContext, which: str, family: int, i: int) -> GradedOperator:
    """which in e, f, h: E[i+1][i], E[i][i+1] or E[i][i] of the family
    (1 or 2); label like e1(2)."""
    pairs = {"e": (i + 1, i), "f": (i, i + 1), "h": (i, i)}
    if which not in pairs:
        raise VermalabError(f"unknown operator kind {which}")
    a, b = pairs[which]
    return GradedOperator(
        gctx, root_shift(gctx.n, a, b), lambda d: global_block(gctx, family, a, b, d), f"{which}{i}({family})"
    )


@_named_operator
def lazy_global_delta(gctx: GlobalContext, kind: str, i: int) -> GradedOperator:
    """The diagonal operator eDelta or fDelta: the sum of the two families."""
    op = operator_sum([lazy_global(gctx, kind, 1, i), lazy_global(gctx, kind, 2, i)])
    op.label = f"{kind}{i}(Delta)"
    return op


def check_double_relations(n: int, dmax: int):
    """Chevalley-Serre relations inside each family, plus exact cross
    commutation between the families, on all blocks |d| <= dmax.

    Returns (label, anchor, witness) tuples; the witness is None where the
    relation holds.
    """
    gctx = GlobalContext.get(n)
    degrees = degree_vectors_upto(n, dmax)
    ops = {}
    for fam in (1, 2):
        for i in range(1, n):
            ops[("e", fam, i)] = lazy_global(gctx, "e", fam, i)
            ops[("f", fam, i)] = lazy_global(gctx, "f", fam, i)
        for i in range(1, n + 1):
            ops[("h", fam, i)] = lazy_global(gctx, "h", fam, i)
    results = []

    def check(label, anchor, op):
        results.append((label, anchor, first_defect(degrees, op.terms)))

    for fam in (1, 2):
        t = f"({fam})"
        for i in range(1, n):
            for j in range(1, n):
                com = ops[("e", fam, i)].commutator(ops[("f", fam, j)])
                if i == j:
                    rhs = ops[("h", fam, i + 1)].sub(ops[("h", fam, i)])
                    check(f"[e{i}{t},f{j}{t}]=h{i}{t}", "family bracket of raise and lower", com.sub(rhs))
                else:
                    check(f"[e{i}{t},f{j}{t}]=0", "family bracket of raise and lower", com)
        for i in range(1, n + 1):
            for j in range(1, n):
                com = ops[("h", fam, i)].commutator(ops[("e", fam, j)])
                coeff = (1 if i == j + 1 else 0) - (1 if i == j else 0)
                rhs = ops[("e", fam, j)].scale(FieldElem.from_rational(gctx.ring, coeff))
                check(f"[E{i}{i}{t},e{j}{t}]", "diagonal action on raising", com.sub(rhs))
                com = ops[("h", fam, i)].commutator(ops[("f", fam, j)])
                rhs = ops[("f", fam, j)].scale(FieldElem.from_rational(gctx.ring, -coeff))
                check(f"[E{i}{i}{t},f{j}{t}]", "diagonal action on lowering", com.sub(rhs))
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    continue
                if abs(i - j) >= 2:
                    check(f"[e{i}{t},e{j}{t}]=0", "distant raises commute", ops[("e", fam, i)].commutator(ops[("e", fam, j)]))
                    check(f"[f{i}{t},f{j}{t}]=0", "distant lowers commute", ops[("f", fam, i)].commutator(ops[("f", fam, j)]))
                else:
                    inner = ops[("e", fam, i)].commutator(ops[("e", fam, j)])
                    check(f"serre e{i}{t},e{j}{t}", "adjacent Serre relation", ops[("e", fam, i)].commutator(inner))
                    inner = ops[("f", fam, i)].commutator(ops[("f", fam, j)])
                    check(f"serre f{i}{t},f{j}{t}", "adjacent Serre relation", ops[("f", fam, i)].commutator(inner))
    for k1, op1 in ops.items():
        if k1[1] != 1:
            continue
        for k2, op2 in ops.items():
            if k2[1] != 2:
                continue
            check(
                f"[{k1[0]}{k1[2]}(1),{k2[0]}{k2[2]}(2)]=0",
                "the two families commute",
                op1.commutator(op2),
            )
    return results


# -- symmetric group action ---------------------------------------------------


def sn_action(
    sigma_prime: tuple[int, ...], degree: DegreeVector, vec: dict[GlobalFixedPoint, FieldElem]
) -> dict[GlobalFixedPoint, FieldElem]:
    """sigma'(f [sigma, p0, pinf]) = f^{sigma'} [sigma' sigma, p0, pinf]."""
    out: dict[GlobalFixedPoint, FieldElem] = {}
    for fp, coeff in vec.items():
        composed = tuple(sigma_prime[s - 1] for s in fp.sigma)
        tfp = GlobalFixedPoint(composed, fp.p0, fp.pinf)
        add = coeff.permute_x(sigma_prime)
        cur = out.get(tfp)
        out[tfp] = add if cur is None else cur + add
    return {fp: v for fp, v in out.items() if not v.is_zero()}


def compose_perm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """(a b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(b)))


def symmetrize(n: int, d: DegreeVector):
    """Basis of the invariant subspace: one orbit sum per (p0, pinf)."""
    gctx = GlobalContext.get(n)
    basis = gctx.basis(tuple(d))
    pairs = sorted({(fp.p0, fp.pinf) for fp in basis}, key=lambda t: (t[0].flat, t[1].flat))
    sigmas = list(itertools.permutations(range(1, n + 1)))
    one = FieldElem.one(gctx.ring)
    out = []
    for p0, pinf in pairs:
        vec = {GlobalFixedPoint(s, p0, pinf): one for s in sigmas}
        out.append(vec)
    return out


def vec_difference(a: dict[GlobalFixedPoint, FieldElem], b: dict[GlobalFixedPoint, FieldElem]) -> str | None:
    """``point: a-value vs b-value`` at the first point, in ``sort_key``
    order, where two sparse vectors differ (a missing point reads 0), or
    None when they are equal."""
    for fp in sorted(set(a) | set(b), key=GlobalFixedPoint.sort_key):
        zero = VermaContext.get(fp.n).zero
        x, y = a.get(fp, zero), b.get(fp, zero)
        if not (x - y).is_zero():
            return f"{fp.text()}: {x.text()} vs {y.text()}"
    return None


def vec_is_invariant(n: int, degree: DegreeVector, vec: dict[GlobalFixedPoint, FieldElem]) -> bool:
    for t in range(1, n):
        tau = list(range(1, n + 1))
        tau[t - 1], tau[t] = tau[t], tau[t - 1]
        if vec_difference(sn_action(tuple(tau), degree, vec), vec) is not None:
            return False
    return True


def apply_to_vec(gctx: GlobalContext, op: GradedOperator, degree: DegreeVector, vec: dict[GlobalFixedPoint, FieldElem]):
    basis = gctx.basis(tuple(degree))
    col = [vec.get(fp, FieldElem.zero(gctx.ring)) for fp in basis]
    out_deg = shift_degree(tuple(degree), op.shift)
    out_basis = gctx.basis(out_deg)
    out_col = op.block(tuple(degree)).apply(col)
    return out_deg, {fp: v for fp, v in zip(out_basis, out_col) if not v.is_zero()}


def invariants_defect(n: int, d: DegreeVector) -> str | None:
    """All e/f operators of both families (and the sums) map the invariant
    basis vectors to invariant vectors; exact check.  Returns the first
    vector that breaks this, or None."""
    gctx = GlobalContext.get(n)
    ops = []
    for fam in (1, 2):
        for i in range(1, n):
            ops.append(lazy_global(gctx, "e", fam, i))
            ops.append(lazy_global(gctx, "f", fam, i))
    for i in range(1, n):
        ops.append(lazy_global_delta(gctx, "e", i))
        ops.append(lazy_global_delta(gctx, "f", i))
    for vec in symmetrize(n, d):
        if not vec_is_invariant(n, d, vec):
            return "orbit sum itself is not invariant"
        for op in ops:
            out_deg, out = apply_to_vec(gctx, op, d, vec)
            if out and not vec_is_invariant(n, out_deg, out):
                return f"image under {op.label} not invariant"
    return None


# -- global Whittaker ---------------------------------------------------------


def global_whittaker_vector(n: int, d: DegreeVector) -> dict[GlobalFixedPoint, FieldElem]:
    """Component assembled from the two local Whittaker solutions: the
    coefficient at (sigma, p0, pinf) is (v[p0] bar(v[pinf]))^sigma."""
    gctx = GlobalContext.get(n)
    out = {}
    for fp in gctx.basis(tuple(d)):
        a = whittaker_component(n, fp.p0.degree()).coefficients[fp.p0]
        b = whittaker_component(n, fp.pinf.degree()).coefficients[fp.pinf]
        out[fp] = (a * b.bar()).permute_x(fp.sigma)
    return out


def check_global_whittaker(n: int, d: DegreeVector):
    """f_i(1) b_d = h^-1 b_{d-i} and f_i(2) b_d = -h^-1 b_{d-i}, exactly;
    (label, anchor, witness) tuples, the witness None where one holds."""
    gctx = GlobalContext.get(n)
    d = tuple(d)
    b_d = global_whittaker_vector(n, d)
    results = []
    hinv = gctx.local.hinv
    for i in range(1, n):
        lower = shift_degree(d, root_shift(n, i, i + 1))
        if not degree_valid(lower):
            continue
        b_lower = global_whittaker_vector(n, lower)
        for fam, sign in ((1, 1), (2, -1)):
            _, got = apply_to_vec(gctx, lazy_global(gctx, "f", fam, i), d, b_d)
            want = {fp: v * (hinv * sign) for fp, v in b_lower.items()}
            results.append(
                (
                    f"f{i}({fam}) b_{list(d)} = {'+' if sign > 0 else '-'}h^-1 b",
                    "product of local Whittaker data solves the global conditions",
                    vec_difference(got, want),
                )
            )
    return results


# -- global Chern eigenvalues --------------------------------------------------


def eig_global_chern(fp: GlobalFixedPoint, i: int, j: int, part: str) -> FieldElem:
    """Lemma-style closed form: both deviation sets enter with plus signs
    and the whole thing is sigma-substituted.  The value before the
    substitution depends on (p0, pinf) only and is memoised on the context."""
    if not 1 <= j <= i <= fp.n - 1:
        raise VermalabError("chern indices out of range")
    ctx = VermaContext.get(fp.n)
    val = ctx._cached(
        ("eig_global_chern", fp.p0, fp.pinf, i, j, part),
        lambda: _chern_part(ctx, chern_weights(fp.p0, i), chern_weights(fp.pinf, i), j, part),
    )
    return val.permute_x(fp.sigma)


def c1_closed_form(fp: GlobalFixedPoint, i: int) -> FieldElem:
    """The stated first-Chern eigenvalue -(x_1+...+x_i)^sigma + d_i h."""
    ctx = VermaContext.get(fp.n)
    if i == 0:
        return ctx.zero
    total = ctx.zero
    for j in range(1, i + 1):
        total = total - ctx.x[j]
    total = total.permute_x(fp.sigma)
    d = fp.degree()
    return total + ctx.h * d[i - 1]


def cartan_from_chern(fp: GlobalFixedPoint, i: int) -> tuple[FieldElem, FieldElem]:
    """(computed, expected) for the x_i action written through first Chern
    eigenvalues: c1(W_{i-1}) - c1(W_i) - (d_i - d_{i-1}) h against the
    naive x_{sigma(i)}.  A mismatch is reported, never patched."""
    ctx = VermaContext.get(fp.n)
    if not 1 <= i <= fp.n - 1:
        raise VermalabError("cartan_from_chern index out of range")
    d = fp.degree()
    di = d[i - 1]
    dprev = d[i - 2] if i >= 2 else 0
    computed = c1_closed_form(fp, i - 1) - c1_closed_form(fp, i) - ctx.h * (di - dprev)
    expected = ctx.x[fp.sigma[i - 1]]
    return computed, expected
