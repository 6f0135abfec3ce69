"""Combinatorial index sets: fixed-point patterns and their variants.

A Pattern is the triangular array d_ij (rows i = 1..n-1, columns
j = 1..i) of nonnegative integers with columns weakly decreasing as the
row index grows: d_kj >= d_ij for j <= k <= i.  Row sums give the degree
vector.  Patterns index both the torus fixed points and the eigenbasis
vectors, and their flattened row-major tuples fix the canonical basis
order used by every matrix in the package.
"""

from __future__ import annotations

import itertools

from .field import FieldElem, VermalabError
from .ring import MultiPoly, classical_ring

DegreeVector = tuple[int, ...]


class Pattern:
    __slots__ = ("n", "rows", "_flat")

    def __init__(self, n: int, rows: tuple[tuple[int, ...], ...]):
        if n < 2 or len(rows) != n - 1:
            raise VermalabError(f"pattern needs {n - 1} rows, got {len(rows)}")
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise VermalabError(f"row {i} must have {i} entries")
            if any(x < 0 for x in row):
                raise VermalabError("pattern entries must be nonnegative")
        for i in range(1, n - 1):
            for j in range(i):
                if rows[i][j] > rows[i - 1][j]:
                    raise VermalabError(
                        f"column {j + 1} must weakly decrease downward at row {i + 1}"
                    )
        self.n = n
        self.rows = rows
        self._flat = tuple(x for row in rows for x in row)

    @property
    def flat(self) -> tuple[int, ...]:
        return self._flat

    def entry(self, i: int, j: int) -> int:
        """d_ij with the boundary conventions d_0. = d_n. = 0."""
        if i == 0 or i == self.n:
            return 0
        return self.rows[i - 1][j - 1]

    def degree(self) -> DegreeVector:
        return tuple(sum(row) for row in self.rows)

    def bump(self, i: int, j: int, delta: int) -> "Pattern | None":
        """Pattern with d_ij changed by delta, or None if invalid."""
        rows = [list(r) for r in self.rows]
        rows[i - 1][j - 1] += delta
        try:
            return Pattern(self.n, tuple(tuple(r) for r in rows))
        except VermalabError:
            return None

    def __eq__(self, other):
        return isinstance(other, Pattern) and self.n == other.n and self.rows == other.rows

    def __hash__(self):
        return hash((self.n, self.rows))

    def __lt__(self, other: "Pattern"):
        return self._flat < other._flat

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def text(self) -> str:
        return "[" + ";".join(",".join(str(x) for x in r) for r in self.rows) + "]"

    def __repr__(self):
        return f"Pattern({self.text()})"


def joint_spectrum(points, generators) -> dict:
    """The value tuple of every point under (label, value function) generators."""
    return {p: tuple(f(p) for _, f in generators) for p in points}


def separation(table: dict, key=None) -> tuple[bool, bool, tuple | None]:
    """(vacuous, separated, pair) for a joint spectrum table.

    Vacuous when there are fewer than two points or no generators.  The
    pair is the first two points with equal value tuples, in combinations
    order over the points sorted by ``key``, or None when all differ.
    Tuples of canonical field elements or exponents compare exactly.
    """
    if len(table) <= 1 or not next(iter(table.values())):
        return True, True, None
    for a, b in itertools.combinations(sorted(table, key=key), 2):
        if table[a] == table[b]:
            return False, False, (a, b)
    return False, True, None


def degree_vectors_upto(n: int, bound: int) -> list[DegreeVector]:
    """All degree vectors of length n-1 with |d| <= bound, graded lexicographic."""
    out = []
    for total in range(bound + 1):
        for c in itertools.combinations_with_replacement(range(n - 1), total):
            d = [0] * (n - 1)
            for i in c:
                d[i] += 1
            out.append(tuple(d))
    return sorted(out, key=lambda t: (sum(t), t))


def shift_degree(d: DegreeVector, shift: tuple[int, ...]) -> DegreeVector:
    return tuple(a + b for a, b in zip(d, shift))


def degree_valid(d: DegreeVector) -> bool:
    return all(c >= 0 for c in d)


def enumerate_patterns(n: int, d: DegreeVector) -> list[Pattern]:
    """All patterns of degree d, ordered by the flattened entry tuple."""
    if n < 2:
        raise VermalabError("n must be at least 2")
    d = tuple(int(x) for x in d)
    if len(d) != n - 1:
        raise VermalabError(f"degree vector must have length {n - 1}")
    if not degree_valid(d):
        return []

    def compositions(total: int, caps: list[int | None]) -> list[tuple[int, ...]]:
        # lexicographically increasing tuples with given sum and per-slot caps
        if not caps:
            return [()] if total == 0 else []
        cap = caps[0] if caps[0] is not None else total
        out = []
        for first in range(0, min(cap, total) + 1):
            for rest in compositions(total - first, caps[1:]):
                out.append((first,) + rest)
        return out

    rows_acc: list[tuple[tuple[int, ...], ...]] = [()]
    for i in range(1, n):
        new_acc = []
        for partial in rows_acc:
            prev = partial[-1] if partial else ()
            caps: list[int | None] = [prev[j] if j < len(prev) else None for j in range(i)]
            for row in compositions(d[i - 1], caps):
                new_acc.append(partial + (row,))
        rows_acc = new_acc
    patterns = [Pattern(n, rows) for rows in rows_acc]
    patterns.sort(key=lambda p: p.flat)
    return patterns


def gt_value(p: Pattern, i: int, j: int) -> FieldElem:
    """lam_ij = x_j/h + j - 1 - d_ij, with d_nj = 0."""
    ring = classical_ring(p.n)
    hpoly = MultiPoly.var(ring, "h")
    num = MultiPoly.var(ring, f"x{j}") + hpoly.scale(j - 1 - p.entry(i, j))
    return FieldElem.from_factors(ring, 1, [num], [hpoly])


class GlobalFixedPoint:
    """(sigma, pattern at 0, pattern at infinity); degree is the sum."""

    __slots__ = ("sigma", "p0", "pinf")

    def __init__(self, sigma: tuple[int, ...], p0: Pattern, pinf: Pattern):
        n = len(sigma)
        if sorted(sigma) != list(range(1, n + 1)):
            raise VermalabError("sigma must be a permutation in one-line notation")
        if p0.n != n or pinf.n != n:
            raise VermalabError("pattern rank mismatch")
        self.sigma = tuple(sigma)
        self.p0 = p0
        self.pinf = pinf

    @property
    def n(self) -> int:
        return len(self.sigma)

    def degree(self) -> DegreeVector:
        return tuple(a + b for a, b in zip(self.p0.degree(), self.pinf.degree()))

    def __eq__(self, other):
        return (
            isinstance(other, GlobalFixedPoint)
            and self.sigma == other.sigma
            and self.p0 == other.p0
            and self.pinf == other.pinf
        )

    def __hash__(self):
        return hash((self.sigma, self.p0, self.pinf))

    def sort_key(self):
        return (self.sigma, self.p0.flat, self.pinf.flat)

    def to_json(self) -> dict:
        return {
            "sigma": list(self.sigma),
            "p0": self.p0.to_json(),
            "pinf": self.pinf.to_json(),
        }

    def text(self) -> str:
        return f"({''.join(str(s) for s in self.sigma)},{self.p0.text()},{self.pinf.text()})"

    def __repr__(self):
        return f"GlobalFixedPoint({self.text()})"


def componentwise_splits(d: DegreeVector) -> list[tuple[DegreeVector, DegreeVector]]:
    ranges = [range(c + 1) for c in d]
    out = []
    for lower in itertools.product(*ranges):
        upper = tuple(c - l for c, l in zip(d, lower))
        out.append((tuple(lower), upper))
    return out


def enumerate_global_fixed_points(n: int, d: DegreeVector) -> list[GlobalFixedPoint]:
    """All (sigma, p0, pinf) with degree(p0) + degree(pinf) = d.

    Order: sigma lexicographic in one-line notation, then the pair of
    flattened pattern tuples.
    """
    d = tuple(int(x) for x in d)
    if not degree_valid(d):
        return []
    pairs = []
    for d0, dinf in componentwise_splits(d):
        for p0 in enumerate_patterns(n, d0):
            for pinf in enumerate_patterns(n, dinf):
                pairs.append((p0, pinf))
    out = []
    for sigma in itertools.permutations(range(1, n + 1)):
        for p0, pinf in pairs:
            out.append(GlobalFixedPoint(sigma, p0, pinf))
    out.sort(key=GlobalFixedPoint.sort_key)
    return out
