"""Sparse matrices over the rational-function field, signed sums of
block products, and exact solving."""

from __future__ import annotations

from typing import Iterable

from .field import FieldElem, VermalabError, signed_sum_is_zero
from .ring import MultiPoly, PolyRing, poly_lcm


class SparseMatrix:
    """Immutable-by-convention sparse matrix; no explicit zeros stored."""

    __slots__ = ("rows", "cols", "entries", "ring")

    def __init__(self, rows: int, cols: int, ring: PolyRing, entries=None):
        self.rows = rows
        self.cols = cols
        self.ring = ring
        self.entries: dict[tuple[int, int], FieldElem] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise VermalabError(f"entry ({r},{c}) out of range {rows}x{cols}")
                if not v.is_zero():
                    self.entries[(r, c)] = v

    def get(self, r: int, c: int) -> FieldElem:
        v = self.entries.get((r, c))
        return v if v is not None else FieldElem.zero(self.ring)

    def is_zero(self) -> bool:
        return not self.entries

    def first_entry(self) -> str | None:
        """``entry (r,c): value`` for the first stored entry in row-major
        order, or None for the zero matrix."""
        if not self.entries:
            return None
        r, c = min(self.entries)
        return f"entry ({r},{c}): {self.entries[(r, c)].text()}"

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_shape(other)
        out = dict(self.entries)
        for k, v in other.entries.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return SparseMatrix(self.rows, self.cols, self.ring, out)

    def __neg__(self) -> "SparseMatrix":
        return SparseMatrix(self.rows, self.cols, self.ring, {k: -v for k, v in self.entries.items()})

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + -other

    def scale(self, c: FieldElem) -> "SparseMatrix":
        if c.is_zero():
            return SparseMatrix(self.rows, self.cols, self.ring)
        return SparseMatrix(
            self.rows, self.cols, self.ring, {k: v * c for k, v in self.entries.items()}
        )

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_product(other)
        by_row = other._by_row()
        out: dict[tuple[int, int], FieldElem] = {}
        for (r, k), a in self.entries.items():
            hits = by_row.get(k)
            if not hits:
                continue
            for c, b in hits:
                key = (r, c)
                prod = a * b
                s = out.get(key)
                s = prod if s is None else s + prod
                if s.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = s
        return SparseMatrix(self.rows, other.cols, self.ring, out)

    def apply(self, vec: list[FieldElem]) -> list[FieldElem]:
        if len(vec) != self.cols:
            raise VermalabError("vector length mismatch")
        out = [FieldElem.zero(self.ring) for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            if not vec[c].is_zero():
                out[r] = out[r] + v * vec[c]
        return out

    def _by_row(self) -> dict[int, list[tuple[int, FieldElem]]]:
        by_row: dict[int, list[tuple[int, FieldElem]]] = {}
        for (r, c), v in self.entries.items():
            by_row.setdefault(r, []).append((c, v))
        return by_row

    def _check_product(self, other: "SparseMatrix"):
        if self.cols != other.rows:
            raise VermalabError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")

    def _check_shape(self, other: "SparseMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise VermalabError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and (self - other).is_zero()
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


class BlockSum:
    """A signed sum of block products, sum_t s_t * left_t [@ right_t], kept
    as its terms ``(sign, left, right | None)`` with sign +-1.

    ``first_nonzero`` decides it entry by entry without building it;
    ``materialise`` builds it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, SparseMatrix, SparseMatrix | None]]):
        self.terms = list(terms)
        shapes = set()
        for _, left, right in self.terms:
            if right is not None:
                left._check_product(right)
            shapes.add((left.rows, (left if right is None else right).cols))
        if len(shapes) != 1:
            raise VermalabError(f"a block sum needs terms of one shape, not {sorted(shapes)}")

    @classmethod
    def of(cls, block: SparseMatrix) -> "BlockSum":
        return cls([(1, block, None)])

    def __add__(self, other: "BlockSum") -> "BlockSum":
        return BlockSum(self.terms + other.terms)

    def __sub__(self, other: "BlockSum") -> "BlockSum":
        return BlockSum(self.terms + [(-s, left, right) for s, left, right in other.terms])

    def materialise(self) -> SparseMatrix:
        """The sum as one matrix: the terms folded left to right with the
        matrix ``@``, ``+`` and ``-``."""
        acc = None
        for sign, left, right in self.terms:
            block = left if right is None else left @ right
            if acc is None:
                acc = block if sign > 0 else -block
            else:
                acc = acc + block if sign > 0 else acc - block
        return acc

    def first_nonzero(self) -> tuple[int, int] | None:
        """The row-major first (r, c) where the sum is nonzero, or None.

        Each entry is a signed sum of entry products, decided in row-major
        order by ``signed_sum_is_zero``; no entry is formed or reduced.
        """
        by_entry: dict[tuple[int, int], list] = {}
        for sign, left, right in self.terms:
            if right is None:
                for key, v in left.entries.items():
                    by_entry.setdefault(key, []).append((sign, (v,)))
                continue
            by_row = right._by_row()
            for (r, k), a in left.entries.items():
                for c, b in by_row.get(k, ()):
                    by_entry.setdefault((r, c), []).append((sign, (a, b)))
        for key in sorted(by_entry):
            if not signed_sum_is_zero(by_entry[key]):
                return key
        return None

    def is_zero(self) -> bool:
        return self.first_nonzero() is None


class LinearSolveResult:
    """Tagged outcome of solve_linear.

    status is one of ``unique``, ``inconsistent``, ``underdetermined``.
    ``solution`` is a particular solution when one exists; for an
    underdetermined system its free coordinates are zero.
    """

    __slots__ = ("status", "solution")

    def __init__(self, status, solution=None):
        self.status = status
        self.solution = solution


def solve_linear(a: SparseMatrix, rhs: list[FieldElem]) -> LinearSolveResult:
    """Exact Gaussian elimination over the function field.

    Rows are cleared of denominators before the forward pass, which keeps
    entry growth in check; the elimination itself is ``solve_rows``.
    """
    if len(rhs) != a.rows:
        raise VermalabError("rhs length mismatch")
    ring = a.ring
    m = [[a.get(r, c) for c in range(a.cols)] + [rhs[r]] for r in range(a.rows)]
    for row in m:
        den = MultiPoly.const(ring, 1)
        for v in row:
            if not v.is_zero():
                den = poly_lcm(den, v.den)
        if not (den.is_const() and den.const_value() == 1):
            scale = FieldElem(den, MultiPoly.const(ring, 1))
            for i, v in enumerate(row):
                row[i] = v * scale
    return solve_rows(m, a.cols, FieldElem.zero(ring))


def solve_rows(m: list[list], ncols: int, zero) -> LinearSolveResult:
    """Gaussian elimination of the augmented rows ``[A | b]`` in ``m``, in place.

    This is the package's one elimination.  Scalars may be of any exact
    type with ``+ - * /`` whose zero is falsy (``FieldElem``, ``Fraction``),
    and ``zero`` is that type's zero.  Every division is exact, so a
    ``unique`` result satisfies A sol = b identically.
    """
    pivots: list[int] = []
    for pc in range(ncols):
        prow = len(pivots)
        pr = next((r for r in range(prow, len(m)) if m[r][pc]), None)
        if pr is None:
            continue
        m[prow], m[pr] = m[pr], m[prow]
        piv = m[prow]
        for row in m[prow + 1:]:
            if not row[pc]:
                continue
            factor = row[pc] / piv[pc]
            for c in range(pc, ncols + 1):
                if piv[c]:
                    row[c] = row[c] - factor * piv[c]
        pivots.append(pc)
    if any(row[ncols] for row in m[len(pivots):]):
        return LinearSolveResult("inconsistent")
    # particular solution with free coordinates set to zero
    sol = [zero] * ncols
    for i in range(len(pivots) - 1, -1, -1):
        pc = pivots[i]
        s = m[i][ncols]
        for c in range(pc + 1, ncols):
            if m[i][c] and sol[c]:
                s = s - m[i][c] * sol[c]
        sol[pc] = s / m[i][pc]
    return LinearSolveResult("unique" if len(pivots) == ncols else "underdetermined", solution=sol)


def vstack(blocks: Iterable[SparseMatrix]) -> SparseMatrix:
    blocks = list(blocks)
    if not blocks:
        raise VermalabError("vstack of nothing")
    cols = blocks[0].cols
    ring = blocks[0].ring
    entries = {}
    off = 0
    for b in blocks:
        if b.cols != cols:
            raise VermalabError("vstack column mismatch")
        for (r, c), v in b.entries.items():
            entries[(off + r, c)] = v
        off += b.rows
    return SparseMatrix(off, cols, ring, entries)
