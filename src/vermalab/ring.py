"""Sparse multivariate polynomials over the rationals.

The rings used everywhere else in the package are fixed once per rank n:

* classical  x1, ..., xn, h
* quantum    x1, ..., xn, h, q2, ..., q(n-1)

Polynomials are stored as dicts mapping exponent tuples to nonzero
coefficients.  Coefficients may be ints or Fractions; the canonical form
kept inside FieldElem clears all denominators, so the hot paths (gcd,
exact division) run on plain Python ints.

The monomial order is graded lexicographic: compare total degree first,
then the exponent tuple itself, with the variable list x1 < ... < xn <
h < q2 < ... giving x1 the strongest tie break.  All iteration that can
reach output is done in this order, descending, so serialized forms are
byte stable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt
from typing import Iterable, Mapping


class PolyRing:
    """An ordered list of variable names; rings are interned by name tuple."""

    __slots__ = ("names", "index", "nvars", "_zero_exp")

    _instances: dict[tuple[str, ...], "PolyRing"] = {}

    def __new__(cls, names: Iterable[str]):
        names = tuple(names)
        inst = cls._instances.get(names)
        if inst is None:
            inst = object.__new__(cls)
            inst.names = names
            inst.index = {name: i for i, name in enumerate(names)}
            inst.nvars = len(names)
            inst._zero_exp = (0,) * len(names)
            cls._instances[names] = inst
        return inst

    def __repr__(self):
        return f"PolyRing({', '.join(self.names)})"

    def zero_exp(self) -> tuple[int, ...]:
        return self._zero_exp

    def unit_exp(self, var: int) -> tuple[int, ...]:
        e = [0] * self.nvars
        e[var] = 1
        return tuple(e)


def classical_ring(n: int) -> PolyRing:
    """Q[x1..xn, h], the coefficient ring of the rank-n module."""
    return PolyRing([f"x{i}" for i in range(1, n + 1)] + ["h"])


def quantum_ring(n: int) -> PolyRing:
    """Q[x1..xn, h, q2..q(n-1)], used by the deformed commuting family."""
    names = [f"x{i}" for i in range(1, n + 1)] + ["h"]
    names += [f"q{i}" for i in range(2, n)]
    return PolyRing(names)


def grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


def _add_exp(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


class MultiPoly:
    """Immutable sparse polynomial over a PolyRing.

    Invariants: no zero coefficients are stored, and every exponent tuple
    has length ring.nvars.  Term iteration (``sorted_terms``) is graded
    lexicographic descending and deterministic.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], int | Fraction]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: PolyRing) -> "MultiPoly":
        return cls(ring, {})

    @classmethod
    def const(cls, ring: PolyRing, c: int | Fraction) -> "MultiPoly":
        if not c:
            return cls(ring, {})
        return cls(ring, {ring.zero_exp(): c})

    @classmethod
    def var(cls, ring: PolyRing, name: str) -> "MultiPoly":
        return cls(ring, {ring.unit_exp(ring.index[name]): 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.ring.zero_exp() in self.terms)

    def const_value(self) -> int | Fraction:
        if not self.terms:
            return 0
        return self.terms[self.ring.zero_exp()]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def variables(self) -> set[int]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
        return used

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int | Fraction]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

    def leading(self) -> tuple[tuple[int, ...], int | Fraction]:
        if not self.terms:
            raise ValueError("leading term of zero polynomial")
        e = max(self.terms, key=grlex_key)
        return e, self.terms[e]

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, tuple(self.sorted_terms())))
        return self._hash

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.ring is other.ring and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.ring, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.ring, out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        if not self.terms or not other.terms:
            return MultiPoly(self.ring, {})
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, ...], int | Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = _add_exp(ea, eb)
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.ring, out)

    def scale(self, c: int | Fraction) -> "MultiPoly":
        if not c:
            return MultiPoly(self.ring, {})
        return MultiPoly(self.ring, {e: k * c for e, k in self.terms.items()})

    def derivative(self, var: int) -> "MultiPoly":
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e, c in self.terms.items():
            k = e[var]
            if k:
                e2 = list(e)
                e2[var] = k - 1
                out[tuple(e2)] = c * k
        return MultiPoly(self.ring, out)

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, point: Mapping[int, Fraction | complex]):
        """Full evaluation; point maps every used variable index to a value."""
        total = 0
        for e, c in self.terms.items():
            val = c
            for i, k in enumerate(e):
                if k:
                    val = val * point[i] ** k
            total = total + val
        return total

    def substitute(self, assignment: Mapping[int, Fraction]) -> "MultiPoly":
        """Partial substitution of variables by rationals (exact)."""
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e, c in self.terms.items():
            val = c
            e2 = list(e)
            for i, v in assignment.items():
                k = e[i]
                if k:
                    val = val * v**k
                    e2[i] = 0
            if not val:
                continue
            key = tuple(e2)
            s = out.get(key, 0) + val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return MultiPoly(self.ring, out)

    def permute_vars(self, mapping: Mapping[int, int]) -> "MultiPoly":
        """Relabel variables; mapping sends old slot to new slot."""
        out: dict[tuple[int, ...], int | Fraction] = {}
        for e, c in self.terms.items():
            e2 = [0] * self.ring.nvars
            for i, k in enumerate(e):
                e2[mapping.get(i, i)] = k
            out[tuple(e2)] = c
        return MultiPoly(self.ring, out)

    def flip_var_sign(self, var: int) -> "MultiPoly":
        """Substitute v -> -v for one variable."""
        out = {}
        for e, c in self.terms.items():
            out[e] = -c if e[var] & 1 else c
        return MultiPoly(self.ring, out)

    # -- integer normalization ------------------------------------------

    def clear_denominators(self) -> tuple["MultiPoly", int]:
        """Return (integer polynomial, lcm) with self = poly / lcm."""
        lcm = 1
        for c in self.terms.values():
            if isinstance(c, Fraction):
                d = c.denominator
                lcm = lcm * d // int_gcd(lcm, d)
        if lcm == 1:
            return MultiPoly(self.ring, {e: int(c) for e, c in self.terms.items()}), 1
        return MultiPoly(self.ring, {e: int(c * lcm) for e, c in self.terms.items()}), lcm

    def content(self) -> int:
        """Gcd of the (integer) coefficients, nonnegative."""
        g = 0
        for c in self.terms.values():
            g = int_gcd(g, int(c))
            if g == 1:
                return 1
        return g

    def exact_div_int(self, k: int) -> "MultiPoly":
        return MultiPoly(self.ring, {e: c // k for e, c in self.terms.items()})

    # -- serialization ---------------------------------------------------

    def text(self) -> str:
        """Canonical sorted-term string, e.g. ``2*x1*h - x2 + 1``."""
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{self.ring.names[i]}^{k}" if k > 1 else self.ring.names[i]
                for i, k in enumerate(e)
                if k
            )
            a = abs(c)
            if mono:
                body = mono if a == 1 else f"{a}*{mono}"
            else:
                body = str(a)
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"MultiPoly({self.text()})"


# -- exact division and gcd over Z[vars] ---------------------------------


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Exact polynomial division a / b, or None when b does not divide a.

    Both operands must have integer coefficients.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return a
    if b.is_const():
        cb = b.const_value()
        out = {}
        for e, c in a.terms.items():
            q, r = divmod(c, cb)
            if r:
                return None
            out[e] = q
        return MultiPoly(a.ring, out)
    if a.total_degree() < b.total_degree():
        return None
    for v in b.variables():
        if b.degree_in(v) > a.degree_in(v):
            return None
    eb, cb = b.leading()
    rem = dict(a.terms)
    quo: dict[tuple[int, ...], int] = {}
    get_key = grlex_key
    while rem:
        ea = max(rem, key=get_key)
        ca = rem[ea]
        de = tuple(x - y for x, y in zip(ea, eb))
        if any(k < 0 for k in de):
            return None
        q, r = divmod(ca, cb)
        if r:
            return None
        quo[de] = q
        for e2, c2 in b.terms.items():
            e = _add_exp(de, e2)
            s = rem.get(e, 0) - q * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return MultiPoly(a.ring, quo)


def _to_univariate(p: MultiPoly, var: int) -> dict[int, MultiPoly]:
    """View p as a polynomial in one variable with MultiPoly coefficients."""
    coeffs: dict[int, dict] = {}
    for e, c in p.terms.items():
        k = e[var]
        e2 = list(e)
        e2[var] = 0
        coeffs.setdefault(k, {})[tuple(e2)] = c
    return {k: MultiPoly(p.ring, t) for k, t in coeffs.items()}


def _from_univariate(ring: PolyRing, var: int, coeffs: dict[int, MultiPoly]) -> MultiPoly:
    out: dict[tuple[int, ...], int] = {}
    for k, p in coeffs.items():
        for e, c in p.terms.items():
            e2 = list(e)
            e2[var] = k
            out[tuple(e2)] = c
    return MultiPoly(ring, out)


def _uni_content(coeffs: dict[int, MultiPoly]) -> MultiPoly:
    it = iter(sorted(coeffs))
    g = coeffs[next(it)]
    for k in it:
        g = poly_gcd(g, coeffs[k])
        if g.is_const() and abs(g.const_value()) == 1:
            break
    return g


def _uni_divide(coeffs: dict[int, MultiPoly], g: MultiPoly) -> dict[int, MultiPoly]:
    out = {}
    for k, p in coeffs.items():
        q = exact_div(p, g)
        assert q is not None
        out[k] = q
    return out


def _pseudo_rem(f: dict[int, MultiPoly], g: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    """Pseudo-remainder of f by g in the main variable."""
    df, dg = max(f), max(g)
    lg = g[dg]
    rem = dict(f)
    while rem and max(rem) >= dg:
        dr = max(rem)
        lr = rem.pop(dr)
        shift = dr - dg
        new: dict[int, MultiPoly] = {k: p * lg for k, p in rem.items()}
        for k, p in g.items():
            if k == dg:
                continue
            kk = k + shift
            term = p * lr
            if kk in new:
                s = new[kk] - term
            else:
                s = -term
            if s.is_zero():
                new.pop(kk, None)
            else:
                new[kk] = s
        rem = new
    return rem


def _subst_int(p: MultiPoly, var: int, xi: int) -> MultiPoly:
    """Substitute one variable by an integer."""
    powers = {0: 1}
    out: dict[tuple[int, ...], int] = {}
    for e, c in p.terms.items():
        k = e[var]
        if k not in powers:
            powers[k] = xi**k
        val = c * powers[k]
        e2 = list(e)
        e2[var] = 0
        key = tuple(e2)
        s = out.get(key, 0) + val
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return MultiPoly(p.ring, out)


def _interpolate(h: MultiPoly, xi: int, var: int) -> MultiPoly:
    """Recover a polynomial in ``var`` from its value at xi, digit by digit
    in the balanced xi-adic expansion of the coefficients."""
    out: dict[tuple[int, ...], int] = {}
    half = xi // 2
    i = 0
    cur = dict(h.terms)
    while cur:
        nxt: dict[tuple[int, ...], int] = {}
        for e, c in cur.items():
            digit = (c + half) % xi - half
            if digit:
                e2 = list(e)
                e2[var] = i
                out[tuple(e2)] = digit
            rest = (c - digit) // xi
            if rest:
                nxt[e] = rest
        cur = nxt
        i += 1
    return MultiPoly(h.ring, out)


def _heu_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Heuristic gcd of integer-primitive polynomials; the candidate is
    verified by exact division, so a non-None answer is a true common
    divisor and, for practical inputs, the gcd.  The xi sequence is fixed,
    which keeps results deterministic."""
    variables = sorted(a.variables() | b.variables())
    if not variables:
        return MultiPoly.const(a.ring, int_gcd(int(a.const_value()), int(b.const_value())))
    var = variables[0]
    norm = min(
        max(abs(int(c)) for c in a.terms.values()),
        max(abs(int(c)) for c in b.terms.values()),
    )
    xi = max(2 * norm + 29, 10007)
    for _trial in range(6):
        ae = _subst_int(a, var, xi)
        be = _subst_int(b, var, xi)
        if not ae.is_zero() and not be.is_zero():
            h = _heu_gcd(ae, be)
            if h is not None:
                cand = _interpolate(h, xi, var)
                cc = cand.content()
                if cc > 1:
                    cand = cand.exact_div_int(cc)
                cand = _positive_lead(cand)
                if not cand.is_zero() and exact_div(a, cand) is not None and exact_div(b, cand) is not None:
                    return cand
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _prs_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Primitive PRS gcd; exact but slow on dense many-variable inputs."""
    common = sorted(a.variables() & b.variables())
    if not common:
        return MultiPoly.const(a.ring, int_gcd(a.content(), b.content()))
    var = min(common, key=lambda v: min(a.degree_in(v), b.degree_in(v)))
    ua, ub = _to_univariate(a, var), _to_univariate(b, var)
    ca, cb = _uni_content(ua), _uni_content(ub)
    gc = poly_gcd(ca, cb)
    ua, ub = _uni_divide(ua, ca), _uni_divide(ub, cb)
    if max(ua) < max(ub):
        ua, ub = ub, ua
    while True:
        rem = _pseudo_rem(ua, ub)
        if not rem:
            g = _from_univariate(a.ring, var, ub)
            break
        if max(rem) == 0:
            g = MultiPoly.const(a.ring, 1)
            break
        cont = _uni_content(rem)
        ua, ub = ub, _uni_divide(rem, cont)
    ug = _to_univariate(g, var)
    cont = _uni_content(ug)
    g = _from_univariate(a.ring, var, _uni_divide(ug, cont))
    return _positive_lead(g * gc)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Gcd in Z[vars], normalized with positive leading coefficient.

    Inputs must have integer coefficients.  Strategy: trivial and linear
    fast paths, then the division-verified heuristic gcd, then a primitive
    PRS fallback.
    """
    if a.is_zero():
        return _positive_lead(b)
    if b.is_zero():
        return _positive_lead(a)
    if a.terms == b.terms:
        return _positive_lead(a)
    ca, cb = a.content(), b.content()
    cg = int_gcd(ca, cb)
    if a.is_const() or b.is_const():
        return MultiPoly.const(a.ring, cg)
    pa = a.exact_div_int(ca) if ca > 1 else a
    pb = b.exact_div_int(cb) if cb > 1 else b
    unit = MultiPoly.const(a.ring, cg)
    if not (pa.variables() & pb.variables()):
        return unit
    # a primitive polynomial of total degree 1 is irreducible
    for small, big in ((pa, pb), (pb, pa)):
        if small.total_degree() == 1:
            if exact_div(big, small) is not None:
                return _positive_lead(small).scale(cg)
            return unit
    if pa.terms == pb.terms:
        return _positive_lead(pa).scale(cg)
    g = _heu_gcd(pa, pb)
    if g is None:
        g = _prs_gcd(pa, pb)
    return _positive_lead(g.scale(cg) if cg != 1 else g)


def _positive_lead(p: MultiPoly) -> MultiPoly:
    if p.is_zero():
        return p
    _, c = p.leading()
    return -p if c < 0 else p


def poly_lcm(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    g = poly_gcd(a, b)
    q = exact_div(a, g)
    assert q is not None
    return _positive_lead(q * b)
