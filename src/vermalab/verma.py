"""The local module V = (+)_d V_d in its fixed-point basis.

Diagonal operators act by the scalar x_i/h + d_{i-1} - d_i + i - 1 on
V_d.  The raising operator for row i moves one entry of pattern row i up
by 1 with coefficient

    -h^-1 prod_{k<=i, k!=j} (x_j - x_k + (d_ik - d_ij) h)^-1
          prod_{k<=i-1}     (x_j - x_k + (d_{i-1,k} - d_ij) h)

and the lowering operator moves it down by 1 with coefficient

    h^-1 prod_{k<=i, k!=j} (x_k - x_j + (d_ij - d_ik) h)^-1
         prod_{k<=i+1}     (x_k - x_j + (d_ij - d_{i+1,k}) h)

(all values taken in the source pattern, empty products equal 1, row n
reads as zero).  Every other matrix coefficient vanishes; transitions
whose target violates the pattern constraints carry no entry.

General off-diagonal operators are seeded from these by the commutator
ladder E[a][b] = [E[a][b+1-step], ...]; see ``eij_block``.
"""

from __future__ import annotations

import functools

from .field import FieldElem, VermalabError
from .linalg import SparseMatrix
from .patterns import (
    DegreeVector,
    Pattern,
    degree_valid,
    degree_vectors_upto,
    enumerate_patterns,
    shift_degree,
)
from .ring import MultiPoly, PolyRing, classical_ring


def root_shift(n: int, a: int, b: int) -> tuple[int, ...]:
    """Degree shift of E[a][b]: lowering for a < b, raising for a > b."""
    shift = [0] * (n - 1)
    if a < b:
        for i in range(a, b):
            shift[i - 1] -= 1
    elif a > b:
        for i in range(b, a):
            shift[i - 1] += 1
    return tuple(shift)


class _GradedSpace:
    """The bases of the graded pieces of one rank, in the order of their
    enumerator, their indices, and the objects memoised on the space."""

    def __init__(self, n: int, enumerate_points):
        self.n = n
        self._enumerate = enumerate_points
        self._memo: dict[tuple, object] = {}

    def basis(self, d: DegreeVector) -> tuple:
        d = tuple(d)
        return self._cached(("basis", d), lambda: tuple(self._enumerate(self.n, d)) if degree_valid(d) else ())

    def dim(self, d: DegreeVector) -> int:
        return len(self.basis(d))

    def index(self, d: DegreeVector) -> dict:
        d = tuple(d)
        return self._cached(("index", d), lambda: {p: i for i, p in enumerate(self.basis(d))})

    def _cached(self, key: tuple, make):
        """The object memoised under ``key``; ``make()`` builds it on first use."""
        got = self._memo.get(key)
        if got is None:
            got = make()
            self._memo[key] = got
        return got


class VermaContext(_GradedSpace):
    """Owns every cache of one rank and coefficient ring: bases, operator
    blocks, named operators, the global context and the Whittaker solver."""

    _instances: dict[tuple[int, PolyRing], "VermaContext"] = {}

    def __init__(self, n: int, ring: PolyRing | None = None):
        super().__init__(n, enumerate_patterns)
        self.ring = ring or classical_ring(n)
        self._blocks: dict[tuple, SparseMatrix] = {}
        self.hpoly = MultiPoly.var(self.ring, "h")
        self.h = FieldElem.var(self.ring, "h")
        self.hinv = FieldElem.from_factors(self.ring, 1, [], [self.hpoly])
        self.x = {j: FieldElem.var(self.ring, f"x{j}") for j in range(1, n + 1)}
        self.one = FieldElem.one(self.ring)
        self.zero = FieldElem.zero(self.ring)

    @classmethod
    def get(cls, n: int, ring: PolyRing | None = None) -> "VermaContext":
        ring = ring or classical_ring(n)
        key = (n, ring)
        inst = cls._instances.get(key)
        if inst is None:
            inst = cls(n, ring)
            cls._instances[key] = inst
        return inst

    # -- coefficient building blocks -------------------------------------

    def linform_poly(self, j: int, k: int, c: int) -> "MultiPoly":
        """x_j - x_k + c h as a raw polynomial, cached (j = k gives c h)."""

        def make():
            if j == k:
                return self.hpoly.scale(c)
            return MultiPoly.var(self.ring, f"x{j}") - MultiPoly.var(self.ring, f"x{k}") + self.hpoly.scale(c)

        return self._cached(("linform", j, k, c), make)

    def cartan_scalar(self, i: int, d: DegreeVector) -> FieldElem:
        dprev = d[i - 2] if i >= 2 else 0
        dcur = d[i - 1] if i <= self.n - 1 else 0
        num = MultiPoly.var(self.ring, f"x{i}") + self.hpoly.scale(dprev - dcur + i - 1)
        return FieldElem.from_factors(self.ring, 1, [num], [self.hpoly])

    def e_coefficient(self, p: Pattern, i: int, j: int) -> FieldElem:
        """Coefficient of the row-i raise at column j, from source p."""
        dij = p.entry(i, j)
        den = [self.hpoly]
        num = []
        for k in range(1, i + 1):
            if k != j:
                den.append(self.linform_poly(j, k, p.entry(i, k) - dij))
        for k in range(1, i):
            num.append(self.linform_poly(j, k, p.entry(i - 1, k) - dij))
        return FieldElem.from_factors(self.ring, -1, num, den)

    def f_coefficient(self, p: Pattern, i: int, j: int) -> FieldElem:
        """Coefficient of the row-i lower at column j, from source p."""
        dij = p.entry(i, j)
        den = [self.hpoly]
        num = []
        for k in range(1, i + 1):
            if k != j:
                den.append(self.linform_poly(k, j, dij - p.entry(i, k)))
        for k in range(1, i + 2):
            num.append(self.linform_poly(k, j, dij - p.entry(i + 1, k)))
        return FieldElem.from_factors(self.ring, 1, num, den)

    # -- blocks --------------------------------------------------------------

    def e_block(self, i: int, d: DegreeVector) -> SparseMatrix:
        return self.eij_block(i + 1, i, d)

    def f_block(self, i: int, d: DegreeVector) -> SparseMatrix:
        return self.eij_block(i, i + 1, d)

    def diagonal_block(self, d: DegreeVector, scalar: FieldElem) -> SparseMatrix:
        dim = self.dim(d)
        if scalar.is_zero():
            return SparseMatrix(dim, dim, self.ring)
        return SparseMatrix(dim, dim, self.ring, {(i, i): scalar for i in range(dim)})

    def eij_block(self, a: int, b: int, d: DegreeVector) -> SparseMatrix:
        """Block of E[a][b] on V_d, cached under ("E", a, b, d): the
        diagonal from ``cartan_scalar``, the raise E[i+1][i] and lower
        E[i][i+1] from their coefficients, every other block by the
        commutator ladder."""
        d = tuple(d)
        key = ("E", a, b, d)
        got = self._blocks.get(key)
        if got is None:
            if a == b:
                got = self.diagonal_block(d, self.cartan_scalar(a, d))
            elif abs(a - b) == 1:
                got = self._raise_lower_block(a, b, d)
            elif a < b:
                got = self._commutator_block((a, b - 1), (b - 1, b), d)
            else:
                got = self._commutator_block((a, a - 1), (a - 1, b), d)
            self._blocks[key] = got
        return got

    def _raise_lower_block(self, a: int, b: int, d: DegreeVector) -> SparseMatrix:
        """The row-i raise E[i+1][i] or lower E[i][i+1] on V_d, entry by
        entry from ``e_coefficient`` or ``f_coefficient``."""
        i = min(a, b)
        step, coefficient = (+1, self.e_coefficient) if a > b else (-1, self.f_coefficient)
        target_d = shift_degree(d, root_shift(self.n, a, b))
        src = self.basis(d)
        tgt_index = self.index(target_d)
        entries = {}
        for col, p in enumerate(src):
            for j in range(1, i + 1):
                q = p.bump(i, j, step)
                if q is None:
                    continue
                row = tgt_index.get(q)
                if row is None:
                    continue
                coeff = coefficient(p, i, j)
                if not coeff.is_zero():
                    entries[(row, col)] = coeff
        return SparseMatrix(self.dim(target_d), len(src), self.ring, entries)

    def _commutator_block(self, ab: tuple[int, int], cd: tuple[int, int], d: DegreeVector) -> SparseMatrix:
        n = self.n
        s_ab = root_shift(n, *ab)
        s_cd = root_shift(n, *cd)
        first = self.eij_block(*ab, shift_degree(d, s_cd)) @ self.eij_block(*cd, d)
        second = self.eij_block(*cd, shift_degree(d, s_ab)) @ self.eij_block(*ab, d)
        return first - second


class GradedOperator:
    """A degree-indexed family of blocks V_d -> V_{d+shift}.

    ``builder(d)`` makes the block on V_d the first time it is read;
    ``blocks`` caches what has been built.  Blocks toward invalid degrees
    exist with zero rows, so compositions through an empty space are well
    defined.
    """

    __slots__ = ("space", "shift", "blocks", "builder", "label")

    def __init__(self, space, shift, builder, label=""):
        self.space = space
        self.shift = tuple(shift)
        self.blocks: dict[DegreeVector, SparseMatrix] = {}
        self.builder = builder
        self.label = label

    def block(self, d: DegreeVector) -> SparseMatrix:
        d = tuple(d)
        got = self.blocks.get(d)
        if got is None:
            got = self.builder(d)
            self.blocks[d] = got
        return got

    # -- operator algebra -----------------------------------------------

    def compose(self, other: "GradedOperator") -> "GradedOperator":
        """self after other."""
        if self.space is not other.space:
            raise VermalabError("operators live on different spaces")
        shift = tuple(a + b for a, b in zip(self.shift, other.shift))

        def build(d):
            mid = shift_degree(d, other.shift)
            return self.block(mid) @ other.block(d)

        return GradedOperator(self.space, shift, build, f"({self.label}*{other.label})")

    def sub(self, other: "GradedOperator") -> "GradedOperator":
        if self.shift != other.shift:
            raise VermalabError("subtracting operators of different shifts")

        def build(d):
            return self.block(d) - other.block(d)

        return GradedOperator(self.space, self.shift, build, f"({self.label}-{other.label})")

    def scale(self, c: FieldElem) -> "GradedOperator":
        def build(d):
            return self.block(d).scale(c)

        return GradedOperator(self.space, self.shift, build, self.label)

    def commutator(self, other: "GradedOperator") -> "GradedOperator":
        return self.compose(other).sub(other.compose(self))


def fixed_point_to_eigenbasis_scale(n: int, d: DegreeVector) -> FieldElem:
    """The documented conversion scalar (-h)^(-|d|) between fixed-point
    classes and the normalized eigenbasis vectors of degree d.

    It is exposed as a constant and never applied implicitly anywhere in
    the package: no silent basis change happens behind the matrices.
    """
    ctx = VermaContext.get(n)
    size = sum(d)
    scale = ctx.one
    for _ in range(size):
        scale = scale * (-ctx.hinv)
    return scale


def _named_operator(make):
    """Memoise a lazy-operator factory on its context under (name, indices).

    Every caller shares the one operator and its block cache, so each block
    is built once; no caller may change its label, builder or blocks.
    """
    name = make.__name__

    @functools.wraps(make)
    def lazy(ctx, *indices):
        return ctx._cached((name, *indices), lambda: make(ctx, *indices))

    return lazy


@_named_operator
def lazy_eij(ctx: VermaContext, a: int, b: int) -> GradedOperator:
    def build(d):
        return ctx.eij_block(a, b, d)

    return GradedOperator(ctx, root_shift(ctx.n, a, b), build, f"E{a}{b}")


def lazy_cartan(ctx: VermaContext, i: int) -> GradedOperator:
    """The diagonal operator E_ii: the one ``lazy_eij`` operator of (i, i)."""
    return lazy_eij(ctx, i, i)


@_named_operator
def lazy_quadratic(ctx: VermaContext, i: int, j: int) -> GradedOperator:
    """E_ij E_ji, the one copy of each quadratic term that Cas_k, QC_k and
    the quadratic-space elements sum."""
    return lazy_eij(ctx, i, j).compose(lazy_eij(ctx, j, i))


def lazy_scalar(ctx: VermaContext, value: FieldElem) -> GradedOperator:
    def build(d):
        return ctx.diagonal_block(d, value)

    return GradedOperator(ctx, (0,) * (ctx.n - 1), build, "scalar")


def operator_sum(ops: list[GradedOperator]) -> GradedOperator:
    """The one way to add operators: a new operator whose blocks are the
    left-to-right sums of the ops' blocks; it never returns one of the
    ops, so callers may relabel it."""
    first = ops[0]
    if any(op.shift != first.shift for op in ops):
        raise VermalabError("adding operators of different shifts")

    def build(d):
        acc = first.block(d)
        for op in ops[1:]:
            acc = acc + op.block(d)
        return acc

    return GradedOperator(first.space, first.shift, build, "+".join(op.label for op in ops))


# -- relation verification -----------------------------------------------------


def gl_relation_defect(
    ctx: VermaContext, ab: tuple[int, int], cd: tuple[int, int], d: DegreeVector
) -> SparseMatrix:
    """[E_ab, E_cd] - delta_bc E_ad + delta_da E_cb on V_d (zero iff the
    relation holds there)."""
    a, b = ab
    c, dd = cd
    out = ctx._commutator_block(ab, cd, d)
    if b == c:
        out = out - ctx.eij_block(a, dd, d)
    if dd == a:
        out = out + ctx.eij_block(c, b, d)
    return out


def first_defect(degrees, block) -> str | None:
    """``degree [..] entry (r,c): value`` at the first of ``degrees`` where
    ``block(d)`` is nonzero, or None when every block vanishes."""
    for d in degrees:
        witness = block(d).first_entry()
        if witness is not None:
            return f"degree {list(d)} {witness}"
    return None


def check_gl_relations(n: int, dmax: int):
    """Exact check of [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb for all
    ordered index pairs, on every block of total degree <= dmax.

    Returns a list of (label, anchor, witness) tuples; the witness is None
    where the relation holds.
    """
    ctx = VermaContext.get(n)
    degrees = degree_vectors_upto(n, dmax)
    units = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1)]
    return [
        (
            f"[E{ab[0]}{ab[1]},E{cd[0]}{cd[1]}]",
            "gl(n) structure constants on every weight block",
            first_defect(degrees, lambda d: gl_relation_defect(ctx, ab, cd, d)),
        )
        for ab in units
        for cd in units
        if cd >= ab
    ]
