"""Canonical rational functions over Q(x1..xn, h [, q2..q(n-1)]).

A FieldElem is a reduced fraction num/den of integer-coefficient
polynomials with gcd(num, den) = 1 (polynomial gcd and shared integer
content removed) and the graded-lex leading coefficient of den positive.
That makes the representation unique, so ``==`` is mathematical equality.

Most denominators in this package are products of known irreducible
factors (linear forms in x and h, and the deformation denominators).
Elements built through ``from_factors`` carry that factorization along as
a private hint ``dfac``: a multiset (``Counter``) of canonical factors
with den = integer * prod(dfac), or None for no hint.  Each operation has
one body; only the way it finds the factor to cancel differs.  When both
operands carry the hint it intersects their factor multisets and cancels
by exact trial division; otherwise it takes a generic polynomial gcd.
Either way the stored pair is fully reduced, and zero tests are plain
numerator tests.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd as int_gcd
from operator import mul
from typing import Callable, Mapping

from .ring import MultiPoly, PolyRing, exact_div, poly_gcd


class VermalabError(Exception):
    """Base class for all package errors."""


class DivisionByZeroError(VermalabError):
    pass


class PoleError(VermalabError):
    """Evaluation hit a vanishing denominator; carries its serialization."""

    def __init__(self, den_text: str):
        super().__init__(f"denominator vanishes at the point: {den_text}")
        self.den_text = den_text


def _canon_factor(f: MultiPoly) -> tuple[MultiPoly, Fraction]:
    """Split off content and sign: f = scalar * canonical, canonical
    primitive with positive leading coefficient."""
    if f.is_zero():
        raise DivisionByZeroError("zero factor")
    c = f.content()
    if c > 1:
        f = f.exact_div_int(c)
    if f.leading()[1] < 0:
        f = -f
        c = -c
    return f, Fraction(c)


def _positive_den(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    if den.leading()[1] < 0:
        return -num, -den
    return num, den


def _content_sign_fix(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    g0 = int_gcd(num.content(), den.content())
    if g0 > 1:
        num = num.exact_div_int(g0)
        den = den.exact_div_int(g0)
    return _positive_den(num, den)


def _is_one(p: MultiPoly) -> bool:
    return p.is_const() and p.const_value() == 1


def _cancel(num: MultiPoly, den: MultiPoly, within):
    """Cancel from num/den the common factor of num and ``within``.

    ``within`` divides den and is either a polynomial, whose gcd with num
    is cancelled, or a multiset of known irreducible factors, each tried
    by exact division of num as often as it occurs.  Returns the reduced
    pair and the factors of ``within`` left uncancelled (None for a
    polynomial).
    """
    if isinstance(within, MultiPoly):
        g = poly_gcd(num, within)
        if _is_one(g):
            return num, den, None
        return exact_div(num, g), exact_div(den, g), None
    cancelled: Counter = Counter()
    for f, m in within.items():
        while cancelled[f] < m:
            q = exact_div(num, f)
            if q is None:
                break
            num = q
            den = exact_div(den, f)
            cancelled[f] += 1
    return num, den, within - cancelled


class FieldElem:
    __slots__ = ("num", "den", "dfac")

    def __init__(self, num: MultiPoly, den: MultiPoly, *, _canonical: bool = False, dfac=None):
        if _canonical:
            self.num = num
            self.den = den
            self.dfac = dfac
            return
        if den.is_zero():
            raise DivisionByZeroError("rational function with zero denominator")
        num, nl = num.clear_denominators()
        den, dl = den.clear_denominators()
        if nl != 1:
            den = den.scale(nl)
        if dl != 1:
            num = num.scale(dl)
        if num.is_zero():
            den = MultiPoly.const(den.ring, 1)
        else:
            num, den, _ = _cancel(num, den, den)
            num, den = _content_sign_fix(num, den)
        self.num = num
        self.den = den
        self.dfac = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, ring: PolyRing, c: int | Fraction) -> "FieldElem":
        c = Fraction(c)
        return cls(
            MultiPoly.const(ring, c.numerator),
            MultiPoly.const(ring, c.denominator),
            _canonical=True,
            dfac=Counter(),
        )

    @classmethod
    def var(cls, ring: PolyRing, name: str) -> "FieldElem":
        return cls(
            MultiPoly.var(ring, name), MultiPoly.const(ring, 1), _canonical=True, dfac=Counter()
        )

    @classmethod
    def zero(cls, ring: PolyRing) -> "FieldElem":
        return cls.from_rational(ring, 0)

    @classmethod
    def one(cls, ring: PolyRing) -> "FieldElem":
        return cls.from_rational(ring, 1)

    @classmethod
    def from_factors(
        cls,
        ring: PolyRing,
        coeff: int | Fraction,
        num_factors: list[MultiPoly],
        den_factors: list[MultiPoly],
    ) -> "FieldElem":
        """Build scalar * prod(num_factors) / prod(den_factors).

        Denominator factors must be irreducible over Q; they are kept as a
        reduction hint.  Identical factors cancel syntactically, and by
        irreducibility plus unique factorization nothing else can cancel,
        so the result is canonical by construction.
        """
        coeff = Fraction(coeff)
        nf: Counter = Counter()
        df: Counter = Counter()
        for f in num_factors:
            if f.is_zero():
                return cls.zero(ring)
            cf, s = _canon_factor(f)
            coeff *= s
            nf[cf] += 1
        for f in den_factors:
            cf, s = _canon_factor(f)
            coeff /= s
            df[cf] += 1
        if coeff == 0:
            return cls.zero(ring)
        common = nf & df
        nf, df = nf - common, df - common
        num = reduce(mul, nf.elements(), MultiPoly.const(ring, coeff.numerator))
        den = reduce(mul, df.elements(), MultiPoly.const(ring, coeff.denominator))
        return cls(num, den, _canonical=True, dfac=df)

    # -- queries ----------------------------------------------------------

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FieldElem.from_rational(self.ring, other)
        return (
            isinstance(other, FieldElem)
            and self.num == other.num
            and self.den == other.den
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "FieldElem") -> "FieldElem":
        other = self._coerce(other)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        # reduced addition: any new common factor of num and den divides the
        # common part g of the two denominators, so no full gcd is needed
        hinted = self.dfac is not None and other.dfac is not None
        if hinted:
            common = self.dfac & other.dfac
            g = reduce(mul, common.elements()) if common else None
        else:
            g = poly_gcd(self.den, other.den)
            g = common = None if _is_one(g) else g
        if g is None:
            num = self.num * other.den + other.num * self.den
            den_self = self.den
        else:
            den_self = exact_div(self.den, g)
            den_other = exact_div(other.den, g)
            num = self.num * den_other + other.num * den_self
        if num.is_zero():
            return FieldElem.zero(self.ring)
        den = den_self * other.den
        left = common
        if g is not None:
            num, den, left = _cancel(num, den, common)
        num, den = _content_sign_fix(num, den)
        # den lost one copy of the common factors, then the cancelled ones
        dfac = self.dfac + other.dfac - common - (common - left) if hinted else None
        return FieldElem(num, den, _canonical=True, dfac=dfac)

    def __neg__(self) -> "FieldElem":
        return FieldElem(-self.num, self.den, _canonical=True, dfac=self.dfac)

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return self + (-self._coerce(other))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        other = self._coerce(other)
        if self.num.is_zero() or other.num.is_zero():
            return FieldElem.zero(self.ring)
        # cross-cancel so the remaining product is already reduced
        hinted = self.dfac is not None and other.dfac is not None
        n1, d2, left2 = _cancel(self.num, other.den, other.dfac if hinted else other.den)
        n2, d1, left1 = _cancel(other.num, self.den, self.dfac if hinted else self.den)
        num, den = _content_sign_fix(n1 * n2, d1 * d2)
        return FieldElem(num, den, _canonical=True, dfac=left1 + left2 if hinted else None)

    def __truediv__(self, other: "FieldElem") -> "FieldElem":
        other = self._coerce(other)
        if other.num.is_zero():
            raise DivisionByZeroError("division by zero rational function")
        return self * _flipped(other)

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElem.from_rational(self.ring, other)
        return NotImplemented

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other) - self

    def inverse(self) -> "FieldElem":
        if self.num.is_zero():
            raise DivisionByZeroError("inverse of zero")
        return _flipped(self)

    # -- substitutions --------------------------------------------------------

    def _var_indices(self, assignment) -> dict[int, object]:
        idx = self.ring.index
        out = {}
        for name, v in assignment.items():
            if name not in idx:
                raise VermalabError(f"unknown variable {name!r}; ring has {', '.join(self.ring.names)}")
            out[idx[name]] = v
        return out

    def evaluate(self, assignment: Mapping[str, int | Fraction]) -> Fraction:
        """Exact evaluation at a rational point covering all used variables."""
        point = {i: Fraction(v) for i, v in self._var_indices(assignment).items()}
        used = self.num.variables() | self.den.variables()
        missing = used - set(point)
        if missing:
            names = ", ".join(sorted(self.ring.names[i] for i in missing))
            raise VermalabError(f"assignment misses variables: {names}")
        dv = self.den.evaluate(point)
        if dv == 0:
            raise PoleError(self.den.text())
        return Fraction(self.num.evaluate(point)) / dv

    def evaluate_complex(self, assignment: Mapping[str, complex]) -> complex:
        point = self._var_indices(assignment)
        dv = complex(self.den.evaluate(point))
        if dv == 0:
            raise PoleError(self.den.text())
        return complex(self.num.evaluate(point)) / dv

    def substitute(self, assignment: Mapping[str, int | Fraction]) -> "FieldElem":
        """Exact partial substitution of some variables by rationals."""
        point = {i: Fraction(v) for i, v in self._var_indices(assignment).items()}
        den = self.den.substitute(point)
        if den.is_zero():
            raise PoleError(self.den.text())
        return FieldElem(self.num.substitute(point), den)

    def _map(self, f: Callable[[MultiPoly], MultiPoly]) -> "FieldElem":
        """Apply a variable map f that sends each canonical factor to a
        canonical factor up to sign, so the reduced form only needs its
        sign fixed."""
        num, den = _positive_den(f(self.num), f(self.den))
        dfac = None
        if self.dfac is not None:
            dfac = Counter(_canon_factor(f(p))[0] for p in self.dfac.elements())
        return FieldElem(num, den, _canonical=True, dfac=dfac)

    def permute_x(self, sigma: tuple[int, ...]) -> "FieldElem":
        """Apply x_j -> x_{sigma(j)} (sigma in one-line notation, 1-based)."""
        idx = self.ring.index
        mapping = {idx[f"x{j}"]: idx[f"x{sigma[j - 1]}"] for j in range(1, len(sigma) + 1)}
        return self._map(lambda p: p.permute_vars(mapping))

    def bar(self) -> "FieldElem":
        """Apply h -> -h."""
        hv = self.ring.index["h"]
        return self._map(lambda p: p.flip_var_sign(hv))

    def derivative(self, name: str) -> "FieldElem":
        v = self.ring.index[name]
        num = self.num.derivative(v) * self.den - self.num * self.den.derivative(v)
        if num.is_zero():
            return FieldElem.zero(self.ring)
        den = self.den * self.den
        num, den, left = _cancel(num, den, den if self.dfac is None else self.dfac + self.dfac)
        num, den = _content_sign_fix(num, den)
        return FieldElem(num, den, _canonical=True, dfac=left)

    # -- serialization -----------------------------------------------------------

    def text(self) -> str:
        if self.den.is_const() and self.den.const_value() == 1:
            return self.num.text()
        return f"({self.num.text()})/({self.den.text()})"

    def __repr__(self):
        return f"FieldElem({self.text()})"


def _flipped(fe: FieldElem) -> FieldElem:
    """Reciprocal of an already-reduced element; only the sign needs fixing.
    The factored-denominator hint does not survive (the old numerator's
    factorization is unknown)."""
    num, den = _positive_den(fe.den, fe.num)
    return FieldElem(num, den, _canonical=True)
