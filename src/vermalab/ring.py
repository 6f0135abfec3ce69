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

Exact division and the zero test of sums of products work on packed
monomial keys, one layout (``_key_layout``) and one packer (``_pack``).
An exponent tuple becomes one int: the total degree in the top field,
then x1, ..., the last variable, each field ``w`` bits wide with a zero
guard bit above it, where ``w`` is the bit length of a bound on every
total degree the operation can reach: the dividend's total degree for
``exact_div`` (grlex is degree compatible, so it bounds every remainder
and quotient exponent), the largest total degree of a product for
``products_sum_is_zero``.  No field then overflows.  Int order is grlex
order, a monomial product is an int add, and the divisor's leading
monomial divides a term exactly when the key difference is nonnegative
and has no guard bit set.  Keys live for one call: ``MultiPoly.terms``
itself stays keyed by tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from math import gcd as int_gcd, isqrt
from operator import mul
from typing import Iterable, Mapping, Sequence


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

    __slots__ = ("ring", "terms", "_hash", "_degree")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], int | Fraction]):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c}
        self._hash = None
        self._degree = None

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
        if self._degree is None:
            self._degree = max(map(sum, self.terms), default=-1)
        return self._degree

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e in self.terms)

    def variables(self) -> set[int]:
        return {i for i, column in enumerate(zip(*self.terms)) if any(column)}

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


@lru_cache(maxsize=None)
def _key_layout(nvars: int, width: int) -> tuple[tuple[int, ...], tuple[int, ...], int, int]:
    """Packed keys for nvars variables with width-bit fields (see the
    module docstring): the weights that pack an exponent tuple (its dot
    product with them), each variable's shift, the guard bits and the
    field mask."""
    step = width + 1
    shifts = tuple(step * (nvars - 1 - i) for i in range(nvars))
    top = 1 << (step * nvars)
    weights = tuple(top + (1 << s) for s in shifts)
    guard = sum(1 << (step * i + width) for i in range(nvars + 1))
    return weights, shifts, guard, (1 << width) - 1


def _pack(p: MultiPoly, weights: tuple[int, ...]) -> dict[int, int | Fraction]:
    """p's terms keyed by their packed monomials (see ``_key_layout``)."""
    return {sum(map(mul, e, weights)): c for e, c in p.terms.items()}


def products_sum_is_zero(terms: Iterable[tuple[int, Sequence[MultiPoly]]]) -> bool:
    """Whether sum_t k_t * prod_j p_tj is zero, for int k_t and polynomials
    of one ring.

    The sum is formed on packed keys (see the module docstring) with fields
    as wide as the bit length of the largest total degree of a product,
    which bounds every exponent of every partial product.  Each distinct
    operand is packed once per call (by identity, for this call only), and
    a monomial product is an int add.  Each product starts from k_t, its
    factors but the last are multiplied in as dicts, and the last factor's
    term products go straight into one dict of the sum.  Nothing is
    unpacked: the sum is zero when that dict holds no nonzero coefficient.
    An empty product is 1; a term with k_t = 0 or a zero factor is skipped.
    """
    terms = [(k, ps) for k, ps in terms if k and all(ps)]
    if not terms:
        return True
    bound = max(sum(p.total_degree() for p in ps) for _, ps in terms)
    nvars = next((p.ring.nvars for _, ps in terms for p in ps), 0)
    weights = _key_layout(nvars, bound.bit_length())[0]
    packed: dict[int, dict[int, int | Fraction]] = {}

    def items(p: MultiPoly):
        got = packed.get(id(p))
        if got is None:
            got = packed[id(p)] = _pack(p, weights)
        return got.items()

    total: dict[int, int | Fraction] = {}
    for k, ps in terms:
        prod = {0: k}
        for p in ps[:-1]:
            out: dict[int, int | Fraction] = {}
            for kb, cb in items(p):
                for ka, ca in prod.items():
                    key = ka + kb
                    out[key] = out.get(key, 0) + ca * cb
            prod = out
        for kb, cb in items(ps[-1]) if ps else ((0, 1),):
            for ka, ca in prod.items():
                key = ka + kb
                total[key] = total.get(key, 0) + ca * cb
    return not any(total.values())


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Exact polynomial division a / b, or None when b does not divide a.

    Both operands must have integer coefficients.  The division runs on
    packed keys (see the module docstring) whose fields are as wide as
    the bit length of a's total degree.  The remainder is a dict from key
    to coefficient with a max-heap of its keys; the heap pops the leading
    remainder term, an entry that has cancelled to zero is skipped, and
    the division fails at the first leading term whose key difference
    from b's leading key is negative or sets a guard bit, or whose
    coefficient b's leading coefficient does not divide.  Only the
    quotient is unpacked.  A constant b divides coefficient by
    coefficient, and a of lower total degree than b fails at once.
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
    deg = a.total_degree()
    if deg < b.total_degree():
        return None
    # Every remainder and quotient exponent is at most deg (grlex is
    # degree compatible), so fields of deg.bit_length() bits hold it.
    weights, shifts, guard, mask = _key_layout(a.ring.nvars, deg.bit_length())
    divisor = _pack(b, weights)
    kb = max(divisor)
    cb = divisor.pop(kb)
    tail = list(divisor.items())
    rem = _pack(a, weights)
    heap = [-k for k in rem]
    heapify(heap)
    quo = []
    while heap:
        k = -heappop(heap)
        c = rem.pop(k)
        if not c:
            continue
        d = k - kb
        if d < 0 or d & guard:
            return None
        q, r = divmod(c, cb)
        if r:
            return None
        quo.append((d, q))
        for kt, ct in tail:
            e = d + kt
            if e in rem:
                rem[e] -= q * ct
            else:
                rem[e] = -q * ct
                heappush(heap, -e)
    return MultiPoly(a.ring, {tuple((d >> s) & mask for s in shifts): q for d, q in quo})


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
    """Substitute one variable by an integer, evaluating each column (the
    terms that share their exponents outside ``var``) by Horner in xi."""
    columns: dict[tuple[int, ...], dict[int, int]] = {}
    for e, c in p.terms.items():
        columns.setdefault(e[:var] + (0,) + e[var + 1 :], {})[e[var]] = c
    out: dict[tuple[int, ...], int] = {}
    for key, column in columns.items():
        val = 0
        for k in range(max(column), -1, -1):
            val = val * xi + column.get(k, 0)
        out[key] = val
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
            rest, digit = divmod(c + half, xi)
            digit -= half
            if digit:
                e2 = list(e)
                e2[var] = i
                out[tuple(e2)] = digit
            if rest:
                nxt[e] = rest
        cur = nxt
        i += 1
    return MultiPoly(h.ring, out)


def _heu_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly | None:
    """Heuristic gcd (GCDHEU: Char, Geddes and Gonnet, J. Symb. Comp.
    1989) of integer-primitive polynomials.

    The first variable present is replaced by an integer xi: each column
    of terms that share their exponents outside it becomes one integer by
    Horner in xi (``_subst_int``).  The gcd of the two images is taken by
    recursion, and a candidate is read back from its balanced xi-adic
    digits, one ``divmod`` per digit giving the digit and the carry
    (``_interpolate``), then made primitive.  It is returned only if it
    divides both inputs exactly, so a non-None answer is a true common
    divisor; None sends ``poly_gcd`` to the PRS fallback.

    xi starts at max(2 * norm + 29, 10007), norm the smaller of the two
    largest coefficients, and grows by a fixed rule over six trials.  The
    answer then depends on the inputs alone, across runs and hash seeds,
    and gcds reach report bytes, goldens and benchmark references that
    are pinned, so the sequence is part of the output.

    The precondition holds at the top level, where ``poly_gcd`` divides
    out the contents, but not below it: the images are not primitive, and
    the content taken off the candidate can be part of the polynomial gcd
    (``poly_gcd(h*(x1 - x2), h^2*(x1 - x2))`` is ``h``).  The
    ``GCD_DEFECT`` tests of ``tests/test_ring_sympy.py`` pin this."""
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
