"""Multiplicative (K-theoretic) eigenvalue calculus on patterns.

Every eigenvalue is a power v^E of v, with t_j = v^tau_j, and is stored
by its exponent E, an integer polynomial in tau_1..tau_n held as a
``MultiPoly``.  The monomial t^a v^b has the affine exponent
b + sum_j a_j tau_j, and a product of eigenvalues is the sum of their
exponents.  Only the raw multiplicative Casimir has a quadratic
exponent.  The corrected Casimir adds the diagonal and scalar factors;
its quadratic tau-part must cancel exactly, and the package asserts that
cancellation instead of assuming it.

The raising and lowering operators themselves live outside this package;
only their geometric prefactor monomials are exposed as documented
constants (see ``lowering_prefactor`` and ``raising_prefactor``).
"""

from __future__ import annotations

from fractions import Fraction

from .field import VermalabError
from .gtalg import det_bundle_indices
from .patterns import DegreeVector, Pattern
from .ring import MultiPoly, PolyRing


def exponent(n: int, vexp: int = 0, texp: dict[int, int] | None = None) -> MultiPoly:
    """The exponent of t^texp v^vexp: vexp + sum_j texp[j] tau_j (1-based j),
    in Z[tau_1..tau_n]."""
    ring = PolyRing([f"tau{j}" for j in range(1, n + 1)])
    terms = {ring.unit_exp(j - 1): a for j, a in (texp or {}).items()}
    terms[ring.zero_exp()] = vexp
    return MultiPoly(ring, terms)


def affine_parts(e: MultiPoly) -> tuple[tuple[int, ...], int]:
    """(t-exponents, v-exponent) of an exponent whose tau-quadratic part
    cancelled; raises, naming the surviving part, otherwise."""
    quad = {m: c for m, c in e.terms.items() if sum(m) > 1}
    if quad:
        raise VermalabError(f"quadratic tau-part did not cancel: {MultiPoly(e.ring, quad).text()}")
    texp = tuple(e.terms.get(e.ring.unit_exp(j), 0) for j in range(e.ring.nvars))
    return texp, e.terms.get(e.ring.zero_exp(), 0)


def exponent_text(e: MultiPoly) -> str:
    """v^e as a monomial, e.g. ``t1^2 t2^-1 v^3``, or ``1``."""
    texp, vexp = affine_parts(e)
    parts = [f"t{j}^{a}" for j, a in enumerate(texp, start=1) if a]
    if vexp:
        parts.append(f"v^{vexp}")
    return " ".join(parts) if parts else "1"


def _deg(p: Pattern, i: int) -> int:
    """d_i, with d_0 = d_n = 0."""
    return p.degree()[i - 1] if 1 <= i < p.n else 0


def eig_quantum_cartan(p: Pattern, i: int) -> MultiPoly:
    """t_i v^(d_{i-1} - d_i + i - 1); the barred operator is its inverse."""
    if not 1 <= i <= p.n:
        raise VermalabError(f"index {i} out of range")
    return exponent(p.n, _deg(p, i - 1) - _deg(p, i) + i - 1, {i: 1})


def eig_quantum_casimir(p: Pattern, k: int) -> MultiPoly:
    """Exponent of the raw multiplicative Casimir eigenvalue
    v^(-sum_j lam_kj (lam_kj + k - 2j + 1)), lam_kj = tau_j + j - 1 - d_kj."""
    n = p.n
    if not 1 <= k <= n:
        raise VermalabError(f"index {k} out of range")
    total = exponent(n)
    for j in range(1, k + 1):
        lam = exponent(n, j - 1 - p.entry(k, j), {j: 1})
        total = total - lam * (lam + exponent(n, k - 2 * j + 1))
    return total


def corrected_quantum_casimir_exponent(p: Pattern, k: int) -> MultiPoly:
    """Exponent after multiplying by prod t_jj^(k-2) and the scalar
    v^(sum (lam_nj - j)(lam_nj - j + 1) - k(k-1)(k-2)/3)."""
    n = p.n
    total = eig_quantum_casimir(p, k)
    for j in range(1, k + 1):
        tau = exponent(n, 0, {j: 1})
        total = total + eig_quantum_cartan(p, j).scale(k - 2) + (tau - exponent(n, 1)) * tau
    return total + exponent(n, -(k * (k - 1) * (k - 2)) // 3)


def eig_det_class_K(p: Pattern, k: int) -> MultiPoly:
    """prod_{j<=k} t_j^(1 - d_kj) v^(d_kj (d_kj - 1) / 2).

    This is the image of ``gtalg.eig_det_bundle`` under the dictionary
    t_j <-> x_j / h, v-exponent <-> constant term that also matches
    ``eig_quantum_cartan`` with ``VermaContext.cartan_scalar``; its square
    inverts the corrected multiplicative Casimir.  The v-exponent is an
    integer since d_kj (d_kj - 1) is even.
    """
    if not 1 <= k <= p.n - 1:
        raise VermalabError(f"index {k} out of range")
    dk = [p.entry(k, j) for j in range(1, k + 1)]
    return exponent(p.n, sum(a * (a - 1) // 2 for a in dk), {j: 1 - a for j, a in enumerate(dk, start=1)})


def det_class_generators(d: DegreeVector) -> list:
    """(label, eigenvalue) pairs of the determinant classes over
    ``gtalg.det_bundle_indices(d)``."""
    return [(f"detD{k}", lambda p, k=k: eig_det_class_K(p, k)) for k in det_bundle_indices(d)]


class ExponentIntegralityError(VermalabError):
    def __init__(self, p: Pattern, value: Fraction):
        super().__init__(
            f"basis-change v-exponent is not an integer on {p.text()}: {value}"
        )
        self.pattern = p
        self.value = value


def normalization_constant(p: Pattern) -> tuple[int, MultiPoly]:
    """Basis-change constant between structure-sheaf classes and the
    eigenbasis: (v^2 - 1)^(-|d|) times an explicit monomial, returned as
    (-|d|, the monomial's exponent).

    The v-exponent mixes two half-integer sums; their difference is always
    integral, and a failure here is reported as a finding about the
    transcription rather than silently rounded.
    """
    n = p.n
    size = sum(p.degree())
    vexp = Fraction(size)
    for i in range(1, n):
        vexp += i * _deg(p, i - 1) * _deg(p, i) - Fraction(2 * i + 1, 2) * _deg(p, i) ** 2
        vexp -= sum(Fraction(p.entry(i, j) ** 2, 2) for j in range(1, i + 1))
    if vexp.denominator != 1:
        raise ExponentIntegralityError(p, vexp)
    texp = {
        j: j * (_deg(p, j) - _deg(p, j - 1)) + sum(p.entry(k, j) for k in range(j, n))
        for j in range(1, n)
    }
    return -size, exponent(n, int(vexp), texp)


def lowering_prefactor(p: Pattern, i: int) -> MultiPoly:
    """Monomial part of the geometric lowering operator normalization,
    t_{i+1}^i t_i^(-i-1) v^((2i+1)d_i - (i+1)d_{i-1} - i d_{i+1} - 2i + 1);
    the remaining scalar factor is (v^-1 - v)."""
    vexp = (2 * i + 1) * _deg(p, i) - (i + 1) * _deg(p, i - 1) - i * _deg(p, i + 1) - 2 * i + 1
    return exponent(p.n, vexp, {i + 1: i, i: -i - 1})


def raising_prefactor(p: Pattern, i: int) -> MultiPoly:
    """Monomial part of the geometric raising operator normalization,
    t_{i+1}^(-i-1) t_i^i v^(i d_{i-1} + (i+1) d_{i+1} - (2i+1) d_i - 1);
    the remaining scalar factor is (v^-1 - v)."""
    vexp = i * _deg(p, i - 1) + (i + 1) * _deg(p, i + 1) - (2 * i + 1) * _deg(p, i) - 1
    return exponent(p.n, vexp, {i + 1: -i - 1, i: i})
