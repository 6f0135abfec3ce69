"""Canonical rational functions over Q(x1..xn, h [, q2..q(n-1)]).

A FieldElem is a reduced fraction num/den of integer-coefficient
polynomials with gcd(num, den) = 1 (polynomial gcd and shared integer
content removed) and the graded-lex leading coefficient of den positive.
That makes the representation unique, so ``==`` is mathematical equality.

Most denominators in this package are products of known irreducible
factors (linear forms in x and h, and the deformation denominators).
Elements built through ``from_factors`` carry that factorization along as
a private hint, and sums and products of hinted elements reduce by exact
trial division instead of a generic polynomial gcd.  Elements without a
hint fall back to the generic gcd; either way the stored pair is fully
reduced, and zero tests are plain numerator tests.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd as int_gcd
from typing import Mapping

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


def _factor_key(f: MultiPoly):
    return (f.total_degree(), tuple(f.sorted_terms()))


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


def _content_sign_fix(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    g0 = int_gcd(num.content(), den.content())
    if g0 > 1:
        num = num.exact_div_int(g0)
        den = den.exact_div_int(g0)
    if den.leading()[1] < 0:
        num, den = -num, -den
    return num, den


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
        num, den = _reduce(num, den)
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
            dfac=(),
        )

    @classmethod
    def var(cls, ring: PolyRing, name: str) -> "FieldElem":
        return cls(
            MultiPoly.var(ring, name), MultiPoly.const(ring, 1), _canonical=True, dfac=()
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
        nf -= common
        df -= common
        num = MultiPoly.const(ring, coeff.numerator)
        for f, m in nf.items():
            for _ in range(m):
                num = num * f
        den = MultiPoly.const(ring, coeff.denominator)
        dlist = sorted(df.elements(), key=_factor_key)
        for f in dlist:
            den = den * f
        return cls(num, den, _canonical=True, dfac=tuple(dlist))

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
        if self.dfac is not None and other.dfac is not None:
            return _add_hinted(self, other)
        # reduced addition: any new common factor of num and den divides
        # g = gcd(d1, d2), so the expensive full gcd is never needed
        g = poly_gcd(self.den, other.den)
        if _is_one(g):
            num = self.num * other.den + other.num * self.den
            if num.is_zero():
                return FieldElem.zero(self.ring)
            num, den = _content_sign_fix(num, self.den * other.den)
            return FieldElem(num, den, _canonical=True)
        db = exact_div(self.den, g)
        dd = exact_div(other.den, g)
        num = self.num * dd + other.num * db
        if num.is_zero():
            return FieldElem.zero(self.ring)
        den = db * other.den
        h2 = poly_gcd(num, g)
        if not _is_one(h2):
            num = exact_div(num, h2)
            den = exact_div(den, h2)
        num, den = _content_sign_fix(num, den)
        return FieldElem(num, den, _canonical=True)

    def __neg__(self) -> "FieldElem":
        return FieldElem(-self.num, self.den, _canonical=True, dfac=self.dfac)

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return self + (-self._coerce(other))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        other = self._coerce(other)
        if self.num.is_zero() or other.num.is_zero():
            return FieldElem.zero(self.ring)
        if self.dfac is not None and other.dfac is not None:
            return _mul_hinted(self, other)
        # cross-cancel so the remaining product is already reduced
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if _is_one(g1) else exact_div(self.num, g1)
        d2 = other.den if _is_one(g1) else exact_div(other.den, g1)
        n2 = other.num if _is_one(g2) else exact_div(other.num, g2)
        d1 = self.den if _is_one(g2) else exact_div(self.den, g2)
        num, den = _content_sign_fix(n1 * n2, d1 * d2)
        return FieldElem(num, den, _canonical=True)

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
        num = self.num.substitute(point)
        den = self.den.substitute(point)
        if den.is_zero():
            raise PoleError(self.den.text())
        ni, nl = num.clear_denominators()
        di, dl = den.clear_denominators()
        return FieldElem(ni.scale(dl), di.scale(nl))

    def permute_x(self, sigma: tuple[int, ...]) -> "FieldElem":
        """Apply x_j -> x_{sigma(j)} (sigma in one-line notation, 1-based)."""
        idx = self.ring.index
        mapping = {idx[f"x{j}"]: idx[f"x{sigma[j - 1]}"] for j in range(1, len(sigma) + 1)}
        num = self.num.permute_vars(mapping)
        den = self.den.permute_vars(mapping)
        dfac = None
        if self.dfac is not None:
            parts = [_canon_factor(f.permute_vars(mapping)) for f in self.dfac]
            dfac = tuple(sorted((f for f, _ in parts), key=_factor_key))
        if den.leading()[1] < 0:
            num, den = -num, -den
        return FieldElem(num, den, _canonical=True, dfac=dfac)

    def bar(self) -> "FieldElem":
        """Apply h -> -h."""
        hv = self.ring.index["h"]
        num = self.num.flip_var_sign(hv)
        den = self.den.flip_var_sign(hv)
        dfac = None
        if self.dfac is not None:
            parts = [_canon_factor(f.flip_var_sign(hv)) for f in self.dfac]
            dfac = tuple(sorted((f for f, _ in parts), key=_factor_key))
        if den.leading()[1] < 0:
            num, den = -num, -den
        return FieldElem(num, den, _canonical=True, dfac=dfac)

    def derivative(self, name: str) -> "FieldElem":
        v = self.ring.index[name]
        num = self.num.derivative(v) * self.den - self.num * self.den.derivative(v)
        if num.is_zero():
            return FieldElem.zero(self.ring)
        if self.dfac is not None:
            den_ms = Counter(self.dfac)
            den_ms.update(self.dfac)
            den = self.den * self.den
            num, den, dfac = _cancel_known(num, den, den_ms)
            num, den = _content_sign_fix(num, den)
            return FieldElem(num, den, _canonical=True, dfac=dfac)
        return FieldElem(num, self.den * self.den)

    # -- serialization -----------------------------------------------------------

    def text(self) -> str:
        if self.den.is_const() and self.den.const_value() == 1:
            return self.num.text()
        return f"({self.num.text()})/({self.den.text()})"

    def __repr__(self):
        return f"FieldElem({self.text()})"


def _is_one(p: MultiPoly) -> bool:
    return p.is_const() and p.const_value() == 1


def _flipped(fe: FieldElem) -> FieldElem:
    """Reciprocal of an already-reduced element; only the sign needs fixing.
    The factored-denominator hint does not survive (the old numerator's
    factorization is unknown)."""
    num, den = fe.den, fe.num
    if den.leading()[1] < 0:
        num, den = -num, -den
    return FieldElem(num, den, _canonical=True)


def _cancel_known(num: MultiPoly, den: MultiPoly, den_ms: Counter):
    """Cancel known irreducible denominator factors out of num by trial
    division; returns reduced (num, den, sorted factor tuple)."""
    for f in sorted(den_ms, key=_factor_key):
        budget = den_ms[f]
        while budget > 0:
            q = exact_div(num, f)
            if q is None:
                break
            num = q
            den = exact_div(den, f)
            budget -= 1
            den_ms[f] -= 1
        if den_ms[f] == 0:
            del den_ms[f]
    dfac = tuple(sorted(den_ms.elements(), key=_factor_key))
    return num, den, dfac


def _add_hinted(a: FieldElem, b: FieldElem) -> FieldElem:
    ma, mb = Counter(a.dfac), Counter(b.dfac)
    common = ma & mb
    if common:
        gprod = None
        for f, m in common.items():
            for _ in range(m):
                gprod = f if gprod is None else gprod * f
        da = exact_div(a.den, gprod)
        db = exact_div(b.den, gprod)
        num = a.num * db + b.num * da
        if num.is_zero():
            return FieldElem.zero(a.ring)
        den = da * b.den
        den_ms = ma + mb
        den_ms.subtract(common)
        den_ms = +den_ms
        # only the old common part can reappear in num
        reducible = Counter(dict(common.items()))
        num2, den2, _ = _cancel_known(num, den, reducible)
        cancelled = common - reducible
        den_ms.subtract(cancelled)
        den_ms = +den_ms
        num, den = num2, den2
        dfac = tuple(sorted(den_ms.elements(), key=_factor_key))
    else:
        num = a.num * b.den + b.num * a.den
        if num.is_zero():
            return FieldElem.zero(a.ring)
        den = a.den * b.den
        dfac = tuple(sorted((ma + mb).elements(), key=_factor_key))
    num, den = _content_sign_fix(num, den)
    return FieldElem(num, den, _canonical=True, dfac=dfac)


def _mul_hinted(a: FieldElem, b: FieldElem) -> FieldElem:
    ma, mb = Counter(a.dfac), Counter(b.dfac)
    n1, d2 = a.num, b.den
    if mb:
        n1, d2, _ = _cancel_known(n1, d2, mb)
    n2, d1 = b.num, a.den
    if ma:
        n2, d1, _ = _cancel_known(n2, d1, ma)
    num = n1 * n2
    den = d1 * d2
    den_ms = ma + mb
    num, den = _content_sign_fix(num, den)
    return FieldElem(
        num, den, _canonical=True, dfac=tuple(sorted(den_ms.elements(), key=_factor_key))
    )


def _reduce(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    num, nl = num.clear_denominators()
    den, dl = den.clear_denominators()
    if nl != 1:
        den = den.scale(nl)
    if dl != 1:
        num = num.scale(dl)
    if num.is_zero():
        return num, MultiPoly.const(den.ring, 1)
    g = poly_gcd(num, den)
    if not _is_one(g):
        num = exact_div(num, g)
        den = exact_div(den, g)
    return _content_sign_fix(num, den)

