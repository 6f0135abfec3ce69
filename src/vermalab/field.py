"""Canonical rational functions over Q(x1..xn, h [, q2..q(n-1)]).

A FieldElem is a reduced fraction num/den of integer-coefficient
polynomials with gcd(num, den) = 1 (polynomial gcd and shared integer
content removed) and the graded-lex leading coefficient of den positive.
That makes the representation unique, so ``==`` is mathematical equality,
and a constant element hashes as its ``Fraction`` value.

Most denominators in this package are products of known irreducible
factors (linear forms in x and h, and the deformation denominators).
Elements built through ``from_factors`` carry that factorization along as
a private hint: ``dfac``, a multiset (``Counter``) of canonical factors,
each primitive with a positive leading coefficient, and the integer
``dc`` = den.content() > 0, so den = dc * prod(dfac) (Gauss's lemma).
A hinted element stores dc and dfac and multiplies den out on its first
read, then keeps it; most hinted dens are never read.  A generic element
has ``dfac`` None and stores den.  When both operands carry the hint, an
operation cancels factors of the intersected multisets by exact trial
division of the numerator and its integer content against dc, and keeps
what is left as the hint: it never divides a denominator.  Otherwise it
cancels a generic polynomial gcd from both.  Either way the stored pair
is fully reduced, and zero tests are plain numerator tests.

``signed_sum_is_zero`` decides whether a signed sum of products of
elements vanishes without forming it: the terms go over one common
denominator built from the hints in plain dicts, and one numerator, a
sum of products of polynomials, is tested by
``ring.products_sum_is_zero`` on packed monomial keys, with no gcd, no
trial division and no polynomial product.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd as int_gcd, lcm
from operator import mul
from typing import Callable, Iterable, Mapping, Sequence

from .ring import MultiPoly, PolyRing, exact_div, poly_gcd, products_sum_is_zero


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


def _scaled_product(ring: PolyRing, c: int, factors: Counter) -> MultiPoly:
    """c * prod(factors), the first factor scaled rather than multiplied."""
    if not factors:
        return MultiPoly.const(ring, c)
    first, *rest = factors.elements()
    return reduce(mul, rest, first if c == 1 else first.scale(c))


def _is_one(p: MultiPoly) -> bool:
    return p.is_const() and p.const_value() == 1


def _cancel_gcd(num: MultiPoly, den: MultiPoly, within: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Cancel from num/den the gcd of num and ``within``, a divisor of den."""
    g = poly_gcd(num, within)
    if _is_one(g):
        return num, den
    return exact_div(num, g), exact_div(den, g)


def _cancel_factors(num: MultiPoly, factors: Counter) -> tuple[MultiPoly, Counter]:
    """Divide num by each of ``factors`` as often as it divides num, at most
    as often as it occurs; return the quotient and the factors left."""
    left: Counter = Counter()
    for f, m in factors.items():
        while m:
            q = exact_div(num, f)
            if q is None:
                left[f] = m
                break
            num, m = q, m - 1
    return num, left


def _hinted(num: MultiPoly, c: int, dfac: Counter) -> "FieldElem":
    """The canonical num / (c * prod(dfac)), its den not yet built."""
    fe = FieldElem.__new__(FieldElem)
    fe.num, fe.dc, fe.dfac = num, c, dfac
    return fe


def _from_hint(num: MultiPoly, c: int, dfac: Counter) -> "FieldElem":
    """The canonical num / (c * prod(dfac)) for c > 0 and num prime to each
    factor: only integer content can cancel, and den is positive."""
    g0 = int_gcd(num.content(), c)
    if g0 > 1:
        num, c = num.exact_div_int(g0), c // g0
    return _hinted(num, c, dfac)


class FieldElem:
    __slots__ = ("num", "den", "dfac", "dc")

    def __init__(self, num: MultiPoly, den: MultiPoly, *, _canonical: bool = False):
        self.dfac = None
        if _canonical:
            self.num = num
            self.den = den
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
            num, den = _cancel_gcd(num, den, den)
            num, den = _content_sign_fix(num, den)
        self.num = num
        self.den = den

    def __getattr__(self, name):
        # only a hinted element leaves den unset: build it once, on first read
        if name != "den":
            raise AttributeError(f"'FieldElem' object has no attribute {name!r}")
        self.den = den = _scaled_product(self.num.ring, self.dc, self.dfac)
        return den

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, ring: PolyRing, c: int | Fraction) -> "FieldElem":
        c = Fraction(c)
        return _hinted(MultiPoly.const(ring, c.numerator), c.denominator, Counter())

    @classmethod
    def var(cls, ring: PolyRing, name: str) -> "FieldElem":
        return _hinted(MultiPoly.var(ring, name), 1, Counter())

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
        return _hinted(_scaled_product(ring, coeff.numerator, nf), coeff.denominator, df)

    # -- queries ----------------------------------------------------------

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __hash__(self):
        if self.num.is_const() and self.den.is_const():
            return hash(Fraction(self.num.const_value(), self.den.const_value()))
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
            # the cofactors of the common factors are rebuilt from the
            # hints, and any new common factor of num and den is one of them
            common = self.dfac & other.dfac
            cs, co = self.dc, other.dc
            fs, fo = self.dfac - common, other.dfac - common
            den_self = _scaled_product(self.ring, cs, fs) if common else self.den
            den_other = _scaled_product(self.ring, co, fo) if common else other.den
            num = self.num * den_other + other.num * den_self
            if num.is_zero():
                return FieldElem.zero(self.ring)
            num, left = _cancel_factors(num, common)
            # den keeps one copy of the common factors, less the cancelled ones
            return _from_hint(num, cs * co, fs + fo + left)
        # reduced addition: any new common factor of num and den divides the
        # common part g of the two denominators, so no full gcd is needed
        g = poly_gcd(self.den, other.den)
        g = None if _is_one(g) else g
        den_self = self.den if g is None else exact_div(self.den, g)
        den_other = other.den if g is None else exact_div(other.den, g)
        num = self.num * den_other + other.num * den_self
        if num.is_zero():
            return FieldElem.zero(self.ring)
        den = den_self * other.den
        if g is not None:
            num, den = _cancel_gcd(num, den, g)
        num, den = _content_sign_fix(num, den)
        return FieldElem(num, den, _canonical=True)

    def __neg__(self) -> "FieldElem":
        if self.dfac is not None:
            return _hinted(-self.num, self.dc, self.dfac)
        return FieldElem(-self.num, self.den, _canonical=True)

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        return self + (-self._coerce(other))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        other = self._coerce(other)
        if self.num.is_zero() or other.num.is_zero():
            return FieldElem.zero(self.ring)
        # cross-cancel so the remaining product is already reduced
        if self.dfac is not None and other.dfac is not None:
            n1, left2 = _cancel_factors(self.num, other.dfac)
            n2, left1 = _cancel_factors(other.num, self.dfac)
            return _from_hint(n1 * n2, self.dc * other.dc, left1 + left2)
        n1, d2 = _cancel_gcd(self.num, other.den, other.den)
        n2, d1 = _cancel_gcd(other.num, self.den, self.den)
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
        raise TypeError(f"unsupported operand type for FieldElem arithmetic: {type(other).__name__!r}")

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
        sign fixed: for a hint, the product of the factors' signs."""
        if self.dfac is None:
            return FieldElem(*_positive_den(f(self.num), f(self.den)), _canonical=True)
        sign, dfac = 1, Counter()
        for p in self.dfac.elements():
            q, s = _canon_factor(f(p))
            dfac[q] += 1
            sign *= s
        num = f(self.num)
        return _hinted(num if sign > 0 else -num, self.dc, dfac)

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
        if self.dfac is not None:
            num, left = _cancel_factors(num, self.dfac + self.dfac)
            return _from_hint(num, self.dc**2, left)
        den = self.den * self.den
        num, den = _cancel_gcd(num, den, den)
        num, den = _content_sign_fix(num, den)
        return FieldElem(num, den, _canonical=True)

    # -- serialization -----------------------------------------------------------

    def text(self) -> str:
        if self.den.is_const() and self.den.const_value() == 1:
            return self.num.text()
        return f"({self.num.text()})/({self.den.text()})"

    def __repr__(self):
        return f"FieldElem({self.text()})"


def signed_sum_is_zero(terms: Iterable[tuple[int, Sequence[FieldElem]]]) -> bool:
    """Whether sum_t s_t * prod_j a_tj is zero, for signs s_t = +-1.

    Term t has the denominator c_t * prod(D_t): a hinted factor gives its
    ``dc`` and ``dfac``, a generic one 1 and its den as one opaque factor,
    so an unread hinted den is never built.  With L the union-max of the
    multisets D_t and C the lcm of the c_t, the sum is zero exactly when
    sum_t s_t * (C / c_t) * prod_j num_tj * prod(L - D_t) is; the
    multisets are plain dicts, and ``ring.products_sum_is_zero`` decides
    that sum without forming a polynomial.
    """
    parts = []
    big_l: dict[MultiPoly, int] = {}
    for sign, factors in terms:
        if any(a.num.is_zero() for a in factors):
            continue
        c, dfac = 1, {}
        for a in factors:
            if a.dfac is None:
                dfac[a.den] = dfac.get(a.den, 0) + 1
                continue
            c *= a.dc
            for f, m in a.dfac.items():
                dfac[f] = dfac.get(f, 0) + m
        for f, m in dfac.items():
            if m > big_l.get(f, 0):
                big_l[f] = m
        parts.append((sign, factors, c, dfac))
    if len(parts) < 2:
        # a product of nonzero elements is nonzero
        return not parts
    big_c = lcm(*(c for _, _, c, _ in parts))
    return products_sum_is_zero(
        (
            sign * (big_c // c),
            [a.num for a in factors] + [f for f, m in big_l.items() for _ in range(m - dfac.get(f, 0))],
        )
        for sign, factors, c, dfac in parts
    )


def _flipped(fe: FieldElem) -> FieldElem:
    """Reciprocal of an already-reduced element; only the sign needs fixing.
    The factored-denominator hint does not survive (the old numerator's
    factorization is unknown)."""
    num, den = _positive_den(fe.den, fe.num)
    return FieldElem(num, den, _canonical=True)
