"""Deformed commuting family, its flatness data, and numerical transport.

Over the field extended by q2..q(n-1), the corrected Casimirs deform to

    QC_k = tildeCas_k + sum_{i < k < j} c_ikj E_ij E_ji,

    c_ikj = (sum_{l=i+1}^{k} q_l...q_{j-1}) / (1 + sum_{l=i+1}^{j-1} q_l...q_{j-1})

with empty products equal to 1.  At q = 0 every correction vanishes, so
QC_k degenerates to the corrected Casimir exactly.  Commutativity of the
family and both flatness components of the connection

    d + kappa sum_k QC_k dlog q_k

are computed exactly; parallel transport along loops in the q-torus is
the one numerical piece of the package.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .field import FieldElem, VermalabError
from .gtalg import lazy_tilde_casimir
from .linalg import SparseMatrix
from .patterns import DegreeVector
from .ring import MultiPoly, quantum_ring
from .verma import GradedOperator, VermaContext, _named_operator, lazy_quadratic, lazy_scalar, operator_sum


class RegularityError(VermalabError):
    def __init__(self, i: int, j: int):
        super().__init__(f"weight vector is not regular: pairing with root ({i},{j}) vanishes")
        self.root = (i, j)


def quantum_context(n: int) -> VermaContext:
    return VermaContext.get(n, quantum_ring(n))


def q_coefficient(n: int, i: int, k: int, j: int) -> FieldElem:
    """The deformation coefficient c_ikj for i < k < j <= n."""
    if not (1 <= i < k < j <= n):
        raise VermalabError(f"need i < k < j <= n, got ({i},{k},{j})")
    ring = quantum_context(n).ring

    def qprod(l: int) -> MultiPoly:
        # q_l q_{l+1} ... q_{j-1}; empty product is 1; q_n reads as 1
        acc = MultiPoly.const(ring, 1)
        for m in range(l, j):
            if 2 <= m <= n - 1:
                acc = acc * MultiPoly.var(ring, f"q{m}")
        return acc

    num = MultiPoly.zero(ring)
    for l in range(i + 1, k + 1):
        num = num + qprod(l)
    den = MultiPoly.const(ring, 1)
    for l in range(i + 1, j):
        den = den + qprod(l)
    # den = 1 + sum of squarefree q-monomials is irreducible: it is linear
    # in q_{i+1} with coprime coefficient and remainder (both contain 1 or
    # a monomial free of q_{i+1}); keep it as a reduction hint
    return FieldElem.from_factors(ring, 1, [num], [den])


@_named_operator
def lazy_qc(ctx: VermaContext, k: int) -> GradedOperator:
    """QC_k as a lazy operator over the q-extended field."""
    n = ctx.n
    if n < 3:
        raise VermalabError("no quantum parameters (Picard rank n-2 = 0)")
    if not 2 <= k <= n - 1:
        raise VermalabError(f"QC index must satisfy 2 <= k <= n-1, got {k}")
    terms = [lazy_tilde_casimir(ctx, k)]
    for i in range(1, k):
        for j in range(k + 1, n + 1):
            coeff = q_coefficient(n, i, k, j)
            terms.append(lazy_quadratic(ctx, i, j).scale(coeff))
    op = operator_sum(terms)
    op.label = f"QC{k}"
    return op


def quadratic_space_element(
    n: int,
    mu: list[FieldElem | int | Fraction],
    h: list[FieldElem | int | Fraction],
) -> GradedOperator:
    """sum over positive roots (i < j) of (h_i - h_j)/(mu_i - mu_j) E_ij E_ji.

    mu must be regular: the pairing with every positive root is nonzero.
    The family with fixed mu commutes and is invariant under scaling mu.
    """
    ctx = quantum_context(n)

    def coerce(v):
        return v if isinstance(v, FieldElem) else FieldElem.from_rational(ctx.ring, v)

    mu = [coerce(v) for v in mu]
    h = [coerce(v) for v in h]
    if len(mu) != n or len(h) != n:
        raise VermalabError("weight vectors must have length n")
    terms = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            dmu = mu[i - 1] - mu[j - 1]
            if dmu.is_zero():
                raise RegularityError(i, j)
            ratio = (h[i - 1] - h[j - 1]) / dmu
            if ratio.is_zero():
                continue
            terms.append(lazy_quadratic(ctx, i, j).scale(ratio))
    op = operator_sum(terms) if terms else lazy_scalar(ctx, ctx.zero)
    op.label = "Qmu"
    return op


def paper_mu_weights(n: int) -> list[FieldElem]:
    """mu(q) with coordinates mu_m = sum_{i=m}^{n-1} q_{i+1}...q_{n-1}
    (the q_n = 1 normalization folded in)."""
    ring = quantum_context(n).ring
    out = []
    for m in range(1, n + 1):
        acc = FieldElem.zero(ring)
        for i in range(m, n):
            prod = FieldElem.one(ring)
            for l in range(i + 1, n):
                prod = prod * FieldElem.var(ring, f"q{l}")
            acc = acc + prod
        out.append(acc)
    return out


def paper_h_weights(n: int, k: int) -> list[FieldElem]:
    """h_k truncates mu at the k-th fundamental coweight: coordinates
    mu_m - mu_k for m <= k and 0 beyond."""
    ring = quantum_context(n).ring
    mu = paper_mu_weights(n)
    out = []
    for m in range(1, n + 1):
        if m <= k:
            out.append(mu[m - 1] - mu[k - 1])
        else:
            out.append(FieldElem.zero(ring))
    return out


def qc_vs_quadratic_space(n: int, k: int, d: DegreeVector):
    """Difference block (QC_k - Q_mu(h_k)) on V_d; a nonzero result is the
    normalization finding tracked by the open-question probe."""
    ctx = quantum_context(n)
    mu = paper_mu_weights(n)
    h = paper_h_weights(n, k)
    qc = lazy_qc(ctx, k)
    qmu = quadratic_space_element(n, mu, h)
    return qc.sub(qmu).block(tuple(d))


def qc_commutator_block(n: int, k: int, l: int, d: DegreeVector):
    ctx = quantum_context(n)
    return lazy_qc(ctx, k).commutator(lazy_qc(ctx, l)).block(tuple(d))


def qc_at_q_zero_defect(n: int, k: int, d: DegreeVector) -> str | None:
    """Exact q -> 0 degeneration of QC_k to the corrected Casimir: the first
    entry of QC_k - tildeCas_k on V_d that survives q = 0, or None."""
    ctx = quantum_context(n)
    qzero = {f"q{l}": 0 for l in range(2, n)}
    qc_block = lazy_qc(ctx, k).block(tuple(d))
    target = lazy_tilde_casimir(ctx, k).block(tuple(d))
    for (r, c), v in sorted((qc_block - target).entries.items()):
        at_zero = v.substitute(qzero)
        if not at_zero.is_zero():
            return f"entry ({r},{c}) at q=0: {at_zero.text()}"
    return None


def check_qc_commutativity(n: int, d: DegreeVector):
    """[QC_k, QC_l] on V_d for every pair, computed exactly.

    Returns (k, l, witness) per pair, the witness None where the
    commutator vanishes; the list is empty for n = 3, where a single
    element leaves nothing to commute.
    """
    if n < 3:
        raise VermalabError("no quantum parameters (Picard rank n-2 = 0)")
    return [
        (k, l, qc_commutator_block(n, k, l, d).first_entry())
        for k in range(2, n)
        for l in range(k + 1, n)
    ]


def check_flatness(n: int, d: DegreeVector):
    """Both curvature components per pair: the commutator C1 and the
    derivative-symmetry part C2 = q_k d_qk QC_l - q_l d_ql QC_k, as
    (label, witness) with the witness None where the component vanishes."""
    if n < 3:
        raise VermalabError("no quantum parameters (Picard rank n-2 = 0)")
    out = []
    for k in range(2, n):
        for l in range(k + 1, n):
            out.append((f"C1[QC{k},QC{l}]", qc_commutator_block(n, k, l, d).first_entry()))
            out.append((f"C2[QC{k},QC{l}]", flatness_c2_block(n, k, l, d).first_entry()))
    return out


def flatness_c2_block(n: int, k: int, l: int, d: DegreeVector):
    """q_k d/dq_k QC_l - q_l d/dq_l QC_k on V_d, entrywise exact."""
    ctx = quantum_context(n)
    bk = lazy_qc(ctx, k).block(tuple(d))
    bl = lazy_qc(ctx, l).block(tuple(d))
    qk = FieldElem.var(ctx.ring, f"q{k}")
    ql = FieldElem.var(ctx.ring, f"q{l}")
    dim = ctx.dim(tuple(d))
    entries = {}
    for (r, c) in set(bk.entries) | set(bl.entries):
        term = bl.get(r, c).derivative(f"q{k}") * qk - bk.get(r, c).derivative(f"q{l}") * ql
        if not term.is_zero():
            entries[(r, c)] = term
    return SparseMatrix(dim, dim, ctx.ring, entries)


# -- numerical parallel transport ------------------------------------------------


class ConnectionSpec:
    """Numerical restriction of the deformed connection to one weight space.

    x and h are specialized to rationals; kappa is the connection scale.
    The exact entries (``blocks``) are compiled once into float matrices:
    ``exponents`` holds every q-monomial of any numerator or denominator,
    one row each in sorted order, and row ``(k, r, c)`` of ``numerators``
    and ``denominators`` holds the coefficients of block entry (r, c) of
    QC_k on those monomials (an absent entry is 0 / 1).  The integrator
    evaluates the compiled form; ``matrix_at`` is the exact evaluation
    that certifies it.
    """

    def __init__(self, n: int, d: DegreeVector, kappa: Fraction, specialization: dict[str, Fraction]):
        if n < 3:
            raise VermalabError("no quantum parameters (Picard rank n-2 = 0)")
        self.n = n
        self.d = tuple(d)
        self.kappa = Fraction(kappa)
        self.specialization = {k: Fraction(v) for k, v in specialization.items()}
        ctx = quantum_context(n)
        self.dim = ctx.dim(self.d)
        self.qnames = [f"q{k}" for k in range(2, n)]
        self.blocks = {}
        for k in range(2, n):
            block = lazy_qc(ctx, k).block(self.d)
            entries = {}
            for (r, c), v in block.entries.items():
                entries[(r, c)] = v.substitute(self.specialization)
            self.blocks[k] = entries
        # the integrator evaluates at q points only, so x and h must all be set
        left = set()
        for entries in self.blocks.values():
            for v in entries.values():
                left |= v.num.variables() | v.den.variables()
        missing = sorted(ctx.ring.names[i] for i in left if ctx.ring.names[i] not in self.qnames)
        if missing:
            raise VermalabError(f"assignment misses variables: {', '.join(missing)}")
        self._compile(ctx.ring)

    def _compile(self, ring) -> None:
        qidx = [ring.index[name] for name in self.qnames]
        absent = (MultiPoly.zero(ring), MultiPoly.const(ring, 1))
        pairs = []
        for k in range(2, self.n):
            for r in range(self.dim):
                for c in range(self.dim):
                    v = self.blocks[k].get((r, c))
                    pairs.append(absent if v is None else (v.num, v.den))

        def q_exponent(e):
            return tuple(e[i] for i in qidx)

        # sorted rows fix the float summation order across runs and hash seeds
        monomials = sorted({q_exponent(e) for pair in pairs for p in pair for e in p.terms})
        rows = {e: m for m, e in enumerate(monomials)}
        self.exponents = np.array(monomials, dtype=int)
        self.numerators = np.zeros((len(pairs), len(monomials)))
        self.denominators = np.zeros((len(pairs), len(monomials)))
        for row, pair in enumerate(pairs):
            for out, p in zip((self.numerators, self.denominators), pair):
                for e, coeff in p.terms.items():
                    try:
                        out[row, rows[q_exponent(e)]] = float(coeff)
                    except OverflowError:
                        k, entry = divmod(row, self.dim * self.dim)
                        raise VermalabError(
                            f"QC{k + 2} entry {divmod(entry, self.dim)} has a coefficient outside the float range"
                        ) from None
        self._neg_kappa = -float(self.kappa)

    def blocks_at(self, q: list[complex]) -> np.ndarray:
        """Every QC_k block at the point q (coordinates in ``qnames``
        order) from the compiled matrices; shape (n-2, dim, dim)."""
        m = np.prod(np.asarray(q) ** self.exponents, axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = (self.numerators @ m) / (self.denominators @ m)
        if not np.isfinite(vals).all():
            raise VermalabError(f"the connection is not finite at q = {list(q)}")
        return vals.reshape(self.n - 2, self.dim, self.dim)

    def generator(self, q: list[complex], deltas: list[complex]) -> np.ndarray:
        """sum_k -kappa * deltas[k] * QC_k(q): the transport generator of a
        segment with log increments ``deltas``."""
        return np.tensordot(self._neg_kappa * np.asarray(deltas), self.blocks_at(q), axes=1)

    def matrix_at(self, q: dict[str, complex], k: int) -> np.ndarray:
        """The QC_k block at q, each exact entry evaluated on its own."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (r, c), v in self.blocks[k].items():
            out[r, c] = v.evaluate_complex(q)
        return out

    def certify(self, q: list[complex]) -> None:
        """Check the compiled blocks against the exact ones at q.

        A vanishing denominator raises the exact ``PoleError``; an exact
        entry that overflows the complex range, or a block whose compiled
        values differ from the exact ones by more than 1e-10 times max(1,
        its largest exact entry), raises ``VermalabError``.
        """
        qmap = dict(zip(self.qnames, q))
        try:
            exact = [self.matrix_at(qmap, k) for k in range(2, self.n)]
        except OverflowError:
            raise VermalabError(f"the connection overflows at q = {list(q)}") from None
        for k, got, want in zip(range(2, self.n), self.blocks_at(q), exact):
            gap = float(np.max(np.abs(got - want)))
            if gap > _CERTIFY_RTOL * max(1.0, float(np.max(np.abs(want)))):
                raise VermalabError(f"compiled QC{k} is off by {gap:.3e} at q = {list(q)}")


class Segment:
    """Log-linear path piece; the angular increment per coordinate is the
    wrapped principal difference, so full loops need at least 3 pieces."""

    def __init__(self, start: list[complex], end: list[complex]):
        self.start = [complex(z) for z in start]
        self.end = [complex(z) for z in end]
        if any(z == 0 for z in self.start) or any(z == 0 for z in self.end):
            raise VermalabError("path endpoints must avoid q = 0")
        self.log_start = [cmath.log(z) for z in self.start]
        deltas = []
        for a, b in zip(self.start, self.end):
            dmod = math.log(abs(b)) - math.log(abs(a))
            darg = cmath.phase(b) - cmath.phase(a)
            while darg > math.pi:
                darg -= 2 * math.pi
            while darg <= -math.pi:
                darg += 2 * math.pi
            deltas.append(complex(dmod, darg))
        self.deltas = deltas

    def point(self, t: float) -> list[complex]:
        return [cmath.exp(l0 + t * dl) for l0, dl in zip(self.log_start, self.deltas)]


def _rhs(spec: ConnectionSpec, seg: Segment, t: float, y: np.ndarray) -> np.ndarray:
    return spec.generator(seg.point(t), seg.deltas) @ y


_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)

_LOCAL_TOL = 1e-10  # local error tolerance of the main run; the control run uses 1/100 of it
_MAX_STEPS = 200_000  # step budget per segment
_CIRCLE_PIECES = 6  # segments of a circle_loop; a full turn needs at least 3
_CERTIFY_RTOL = 1e-10  # compiled vs exact blocks at the path's segment endpoints


def _transport_segment(spec: ConnectionSpec, seg: Segment, y: np.ndarray, tol: float) -> np.ndarray:
    t = 0.0
    hstep = 0.05
    steps = 0
    while t < 1.0:
        if steps > _MAX_STEPS:
            raise VermalabError("step budget exhausted before tolerance was met")
        hstep = min(hstep, 1.0 - t)
        ks = []
        for i in range(7):
            yi = y.copy()
            for j, a in enumerate(_DP_A[i]):
                if a:
                    yi = yi + hstep * a * ks[j]
            ks.append(_rhs(spec, seg, t + _DP_C[i] * hstep, yi))
        y5 = y.copy()
        y4 = y.copy()
        for i in range(7):
            if _DP_B5[i]:
                y5 = y5 + hstep * _DP_B5[i] * ks[i]
            if _DP_B4[i]:
                y4 = y4 + hstep * _DP_B4[i] * ks[i]
        err = float(np.max(np.abs(y5 - y4)))
        scale = max(1.0, float(np.max(np.abs(y5))))
        if err <= tol * scale:
            t += hstep
            y = y5
            steps += 1
            if err > 0:
                hstep = min(0.5, hstep * min(5.0, 0.9 * (tol * scale / err) ** 0.2))
            else:
                hstep = min(0.5, hstep * 5.0)
        else:
            hstep = max(1e-8, hstep * max(0.1, 0.9 * (tol * scale / err) ** 0.2))
            steps += 1
    return y


def monodromy_transport(spec: ConnectionSpec, path: list[Segment]) -> tuple[np.ndarray, float]:
    """Parallel transport of the identity along the path.

    Returns (matrix, error_estimate); the estimate is the max-norm gap to
    a control run at local tolerance /100, a step-refinement bound.
    The compiled connection is first certified against the exact one at
    every segment's endpoints.
    """
    for seg in path:
        spec.certify(seg.start)
        spec.certify(seg.end)
    runs = []
    for tol in (_LOCAL_TOL, _LOCAL_TOL / 100.0):
        y = np.eye(spec.dim, dtype=complex)
        for seg in path:
            y = _transport_segment(spec, seg, y, tol)
        runs.append(y)
    est = float(np.max(np.abs(runs[0] - runs[1])))
    return runs[1], est


def circle_loop(center_abs: list[complex], which: int, radius: float, start_point=None) -> list[Segment]:
    """A positively oriented circle of the chosen coordinate around 0 in
    ``_CIRCLE_PIECES`` segments, other coordinates held fixed; optionally
    joined to a base point."""
    pts = []
    for s in range(_CIRCLE_PIECES + 1):
        angle = 2 * math.pi * s / _CIRCLE_PIECES
        q = list(center_abs)
        q[which] = radius * cmath.exp(1j * angle)
        pts.append(q)
    segs = [Segment(pts[s], pts[s + 1]) for s in range(_CIRCLE_PIECES)]
    if start_point is not None:
        lead = Segment(start_point, pts[0])
        tail = Segment(pts[-1], start_point)
        return [lead] + segs + [tail]
    return segs
