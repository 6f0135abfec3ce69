"""Multiplicative (K-theoretic) eigenvalue calculus on patterns.

All eigenvalues are Laurent monomials in t1..tn, v except the raw
multiplicative Casimir, whose v-exponent is quadratic in the formal
symbols tau_j (t_j = v^tau_j).  The corrected Casimir multiplies in the
diagonal and scalar factors; its quadratic tau-part must cancel exactly,
and the package asserts that cancellation instead of assuming it.

The raising and lowering operators themselves live outside this package;
only their geometric prefactor monomials are exposed as documented
constants (see ``lowering_prefactor`` and ``raising_prefactor``).
"""

from __future__ import annotations

from fractions import Fraction

from .field import VermalabError
from .laurent import ExponentQuadratic, LaurentMonomial, VPowerProduct
from .patterns import DegreeVector, Pattern, _first_collision, enumerate_patterns


def eig_quantum_cartan(p: Pattern, i: int) -> LaurentMonomial:
    """t_i v^(d_{i-1} - d_i + i - 1); the barred operator is its inverse."""
    n = p.n
    if not 1 <= i <= n:
        raise VermalabError(f"index {i} out of range")
    d = p.degree()
    dprev = d[i - 2] if i >= 2 else 0
    dcur = d[i - 1] if i <= n - 1 else 0
    return LaurentMonomial.t(n, i) * LaurentMonomial.v(n, dprev - dcur + i - 1)


def _lam(p: Pattern, k: int, j: int) -> ExponentQuadratic:
    """lam_kj = tau_j + j - 1 - d_kj as an affine exponent."""
    return ExponentQuadratic.tau(p.n, j) + ExponentQuadratic.constant(p.n, j - 1 - p.entry(k, j))


def eig_quantum_casimir(p: Pattern, k: int) -> ExponentQuadratic:
    """Exponent of the raw multiplicative Casimir eigenvalue
    v^(-sum_j lam_kj (lam_kj + k - 2j + 1))."""
    n = p.n
    if not 1 <= k <= n:
        raise VermalabError(f"index {k} out of range")
    total = ExponentQuadratic(n)
    for j in range(1, k + 1):
        lam = _lam(p, k, j)
        shifted = lam + ExponentQuadratic.constant(n, k - 2 * j + 1)
        total = total + lam.mul_linear(shifted)
    return -total


def corrected_quantum_casimir_exponent(p: Pattern, k: int) -> ExponentQuadratic:
    """Exponent after multiplying by prod t_jj^(k-2) and the scalar
    v^(sum (lam_nj - j)(lam_nj - j + 1) - k(k-1)(k-2)/3)."""
    n = p.n
    total = eig_quantum_casimir(p, k)
    for j in range(1, k + 1):
        tjj = eig_quantum_cartan(p, j)
        lin = [0] * n
        lin[j - 1] = k - 2
        total = total + ExponentQuadratic(n, const=(k - 2) * tjj.vexp, lin=lin)
    for j in range(1, k + 1):
        a = ExponentQuadratic.tau(n, j) + ExponentQuadratic.constant(n, -1)
        b = ExponentQuadratic.tau(n, j)
        total = total + a.mul_linear(b)
    total = total + ExponentQuadratic.constant(n, -(k * (k - 1) * (k - 2)) // 3)
    return total


def eig_corrected_quantum_casimir(p: Pattern, k: int) -> LaurentMonomial:
    """The corrected eigenvalue; raises if the quadratic part survives,
    which would falsify the correction bookkeeping."""
    return corrected_quantum_casimir_exponent(p, k).to_monomial()


def eig_det_class_K(p: Pattern, k: int) -> LaurentMonomial:
    """prod_{j<=k} t_j^(1 - d_kj) v^(d_kj (d_kj - 1) / 2).

    This is the image of ``gtalg.eig_det_bundle`` under the dictionary
    t_j <-> x_j / h, v-exponent <-> constant term that also matches
    ``eig_quantum_cartan`` with ``VermaContext.cartan_scalar``; its square
    inverts the corrected multiplicative Casimir.  The v-exponent is an
    integer since d_kj (d_kj - 1) is even.
    """
    n = p.n
    if not 1 <= k <= n - 1:
        raise VermalabError(f"index {k} out of range")
    out = LaurentMonomial.one(n)
    for j in range(1, k + 1):
        dkj = p.entry(k, j)
        out = out * LaurentMonomial.t(n, j, 1 - dkj) * LaurentMonomial.v(n, dkj * (dkj - 1) // 2)
    return out


class ExponentIntegralityError(VermalabError):
    def __init__(self, p: Pattern, value: Fraction):
        super().__init__(
            f"basis-change v-exponent is not an integer on {p.text()}: {value}"
        )
        self.pattern = p
        self.value = value


def normalization_constant(p: Pattern) -> VPowerProduct:
    """Basis-change constant between structure-sheaf classes and the
    eigenbasis: (v^2 - 1)^(-|d|) times an explicit monomial.

    The v-exponent mixes two half-integer sums; their difference is always
    integral, and a failure here is reported as a finding about the
    transcription rather than silently rounded.
    """
    n = p.n
    d = p.degree()
    size = sum(d)
    vexp = Fraction(size)
    for i in range(1, n):
        dprev = d[i - 2] if i >= 2 else 0
        vexp += i * dprev * d[i - 1]
        vexp -= Fraction(2 * i + 1, 2) * d[i - 1] ** 2
    for i in range(1, n):
        for j in range(1, i + 1):
            vexp -= Fraction(p.entry(i, j) ** 2, 2)
    if vexp.denominator != 1:
        raise ExponentIntegralityError(p, vexp)
    texp = [0] * n
    for i in range(1, n):
        dprev = d[i - 2] if i >= 2 else 0
        texp[i - 1] += i * (d[i - 1] - dprev)
    for j in range(1, n):
        texp[j - 1] += sum(p.entry(k, j) for k in range(j, n))
    return VPowerProduct(-size, LaurentMonomial(tuple(texp), int(vexp)))


def lowering_prefactor(p: Pattern, i: int) -> LaurentMonomial:
    """Monomial part of the geometric lowering operator normalization,
    t_{i+1}^i t_i^(-i-1) v^((2i+1)d_i - (i+1)d_{i-1} - i d_{i+1} - 2i + 1);
    the remaining scalar factor is (v^-1 - v)."""
    n = p.n
    d = p.degree()
    di = d[i - 1]
    dprev = d[i - 2] if i >= 2 else 0
    dnext = d[i] if i <= n - 2 else 0
    return (
        LaurentMonomial.t(n, i + 1, i)
        * LaurentMonomial.t(n, i, -i - 1)
        * LaurentMonomial.v(n, (2 * i + 1) * di - (i + 1) * dprev - i * dnext - 2 * i + 1)
    )


def raising_prefactor(p: Pattern, i: int) -> LaurentMonomial:
    """Monomial part of the geometric raising operator normalization,
    t_{i+1}^(-i-1) t_i^i v^(i d_{i-1} + (i+1) d_{i+1} - (2i+1) d_i - 1);
    the remaining scalar factor is (v^-1 - v)."""
    n = p.n
    d = p.degree()
    di = d[i - 1]
    dprev = d[i - 2] if i >= 2 else 0
    dnext = d[i] if i <= n - 2 else 0
    return (
        LaurentMonomial.t(n, i + 1, -i - 1)
        * LaurentMonomial.t(n, i, i)
        * LaurentMonomial.v(n, i * dprev + (i + 1) * dnext - (2 * i + 1) * di - 1)
    )


def check_K_separation(n: int, d: DegreeVector):
    """(vacuous, separated, witness) for the determinant-class monomial
    tuples over k >= 2 with d_k != 0 != d_{k-1}."""
    d = tuple(d)
    basis = enumerate_patterns(n, d)
    ks = [k for k in range(2, n) if d[k - 1] != 0 and d[k - 2] != 0]
    if len(basis) <= 1 or not ks:
        return True, True, None
    pair = _first_collision({p: tuple(eig_det_class_K(p, k) for k in ks) for p in basis})
    return False, pair is None, pair
