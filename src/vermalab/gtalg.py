"""Diagonal operator calculus on the fixed-point basis.

Quadratic Casimirs are assembled from matrix-unit products and must come
out diagonal; their closed-form eigenvalues, the determinant-bundle
weights and the tautological Chern weights are pure functions of the
pattern.  Everything here is checked, not assumed: assembly vs closed
form, diagonality, h-divisibility and joint-spectrum separation are all
exact computations.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .field import FieldElem, VermalabError
from .linalg import SparseMatrix
from .patterns import DegreeVector, Pattern, gt_value
from .verma import (
    GradedOperator,
    VermaContext,
    _named_operator,
    lazy_cartan,
    lazy_quadratic,
    lazy_scalar,
    operator_sum,
)


# -- assembled operators ----------------------------------------------------


@_named_operator
def lazy_casimir(ctx: VermaContext, k: int) -> GradedOperator:
    """Sum of E_ij E_ji over ordered pairs (i, j) in [k]^2, lex order."""
    op = operator_sum([lazy_quadratic(ctx, i, j) for i in range(1, k + 1) for j in range(1, k + 1)])
    op.label = f"Cas{k}"
    return op


@_named_operator
def lazy_tilde_casimir(ctx: VermaContext, k: int) -> GradedOperator:
    """Cas_k + (2-k) sum E_jj - sum (x_j/h)(x_j/h - 1) + k(k-1)(k-2)/3."""
    cartans = operator_sum([lazy_cartan(ctx, j) for j in range(1, k + 1)]).scale(FieldElem.from_rational(ctx.ring, 2 - k))
    shift_val = FieldElem.zero(ctx.ring)
    for j in range(1, k + 1):
        u = ctx.hinv * ctx.x[j]
        shift_val = shift_val + u * (u - 1)
    const = FieldElem.from_rational(ctx.ring, Fraction(k * (k - 1) * (k - 2), 3))
    op = operator_sum([lazy_casimir(ctx, k), cartans, lazy_scalar(ctx, const - shift_val)])
    op.label = f"tildeCas{k}"
    return op


# -- closed-form eigenvalues ----------------------------------------------


def eig_casimir(p: Pattern, k: int) -> FieldElem:
    """sum_j lam_kj (lam_kj + k - 2j + 1) over the pattern's row k."""
    total = None
    for j in range(1, k + 1):
        lam = gt_value(p, k, j)
        term = lam * (lam + (k - 2 * j + 1))
        total = term if total is None else total + term
    return total


def eig_tilde_casimir(p: Pattern, k: int) -> FieldElem:
    """sum_j 2 (1 - d_kj) x_j / h + d_kj (d_kj - 1)."""
    ctx = VermaContext.get(p.n)
    total = ctx.zero
    for j in range(1, k + 1):
        dkj = p.entry(k, j)
        total = total + ctx.hinv * ctx.x[j] * (2 * (1 - dkj)) + dkj * (dkj - 1)
    return total


def eig_det_bundle(p: Pattern, k: int) -> FieldElem:
    """sum_j (1 - d_kj) x_j + d_kj (d_kj - 1) h / 2."""
    if not 1 <= k <= p.n - 1:
        raise VermalabError(f"determinant bundle index {k} out of range")
    ctx = VermaContext.get(p.n)
    total = ctx.zero
    for j in range(1, k + 1):
        dkj = p.entry(k, j)
        total = total + ctx.x[j] * (1 - dkj) + ctx.h * Fraction(dkj * (dkj - 1), 2)
    return total


def _esym(values: list[FieldElem], j: int, ring) -> FieldElem:
    total = FieldElem.zero(ring)
    for combo in itertools.combinations(values, j):
        prod = FieldElem.one(ring)
        for v in combo:
            prod = prod * v
        total = total + prod
    return total


def chern_weights(p: Pattern, i: int, at_zero: bool = True) -> list[FieldElem]:
    """Equivariant weights of the rank-i tautological fiber over the point
    0 (deviations included) or infinity (bare -x weights)."""
    ctx = VermaContext.get(p.n)
    out = []
    for j in range(1, i + 1):
        w = -ctx.x[j]
        if at_zero:
            w = w + ctx.h * p.entry(i, j)
        out.append(w)
    return out


def _chern_part(ctx: VermaContext, zero_weights, inf_weights, j: int, part: str) -> FieldElem:
    """Diagonal (e0 + einf)/2 or Kunneth (einf - e0)/(2h) combination of
    the j-th elementary symmetric functions of the weights at 0 and infinity."""
    e_inf = _esym(inf_weights, j, ctx.ring)
    e_zero = _esym(zero_weights, j, ctx.ring)
    if part == "diag":
        return (e_inf + e_zero) / 2
    if part == "kunneth":
        return ctx.hinv * (e_inf - e_zero) / 2
    raise VermalabError(f"unknown chern part: {part}")


def eig_chern(p: Pattern, i: int, j: int, part: str) -> FieldElem:
    """Diagonal or Kunneth component of the j-th Chern class of the rank-i
    tautological bundle: (e0 + einf)/2 resp. (einf - e0) / (2h)."""
    if not 1 <= j <= i <= p.n - 1:
        raise VermalabError("chern indices out of range")
    ctx = VermaContext.get(p.n)
    return _chern_part(ctx, chern_weights(p, i), chern_weights(p, i, at_zero=False), j, part)


def chern_h_divisible(p: Pattern, i: int, j: int) -> bool:
    """einf - e0 must vanish at h = 0, i.e. be divisible by h."""
    ctx = VermaContext.get(p.n)
    e_inf = _esym(chern_weights(p, i, at_zero=False), j, ctx.ring)
    e_zero = _esym(chern_weights(p, i), j, ctx.ring)
    diff = e_inf - e_zero
    return diff.substitute({"h": 0}).is_zero()


# -- verification helpers -----------------------------------------------------


def casimir_diagonality_defects(n: int, k: int, d: DegreeVector, corrected: bool = False):
    """Compare the assembled (corrected) Casimir block on V_d with the
    closed-form diagonal; returns (offdiag_witness, eigen_witness), each
    None where that part agrees."""
    ctx = VermaContext.get(n)
    op = lazy_tilde_casimir(ctx, k) if corrected else lazy_casimir(ctx, k)
    block = op.block(tuple(d))
    offdiag = SparseMatrix(
        block.rows, block.cols, block.ring, {(r, c): v for (r, c), v in block.entries.items() if r != c}
    ).first_entry()
    eig = eig_tilde_casimir if corrected else eig_casimir
    eigen = None
    for idx, p in enumerate(ctx.basis(tuple(d))):
        got = block.get(idx, idx)
        want = eig(p, k)
        if not (got - want).is_zero():
            eigen = f"pattern {p.text()}: {got.text()} != {want.text()}"
            break
    return offdiag and f"offdiag {offdiag}", eigen


def det_bundle_indices(d: DegreeVector) -> list[int]:
    """The k >= 2 with d_k != 0 != d_{k-1}: the determinant classes that
    generate the degree-d ring."""
    return [k for k in range(2, len(d) + 1) if d[k - 1] != 0 and d[k - 2] != 0]


def chern_generators(n: int, eig) -> list:
    """(label, eigenvalue) pairs of all diagonal and Kunneth Chern
    components, for ``eig(point, i, j, part)``."""
    return [
        (f"c{j}(W{i})[{part}]", lambda p, i=i, j=j, part=part: eig(p, i, j, part))
        for i in range(1, n)
        for j in range(1, i + 1)
        for part in ("diag", "kunneth")
    ]


def generator_set(n: int, d: DegreeVector, name: str) -> list:
    """(label, eigenvalue) pairs of one named generator set.

    ``tildeCas``: corrected Casimirs, k = 2..n-1.
    ``detBundles``: determinant classes over ``det_bundle_indices(d)``.
    ``detBundlesAll``: determinant classes, k = 1..n-1.
    ``chern``: all Kunneth and diagonal Chern components.
    """
    if name == "tildeCas":
        label, eig, ks = "tildeCas{}", eig_tilde_casimir, range(2, n)
    elif name == "detBundles":
        label, eig, ks = "c1(D{})", eig_det_bundle, det_bundle_indices(d)
    elif name == "detBundlesAll":
        label, eig, ks = "c1(D{})", eig_det_bundle, range(1, n)
    elif name == "chern":
        return chern_generators(n, eig_chern)
    else:
        raise VermalabError(f"unknown generator set: {name}")
    return [(label.format(k), lambda p, k=k: eig(p, k)) for k in ks]
