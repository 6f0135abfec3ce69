"""Degree-by-degree Whittaker components and the cohomology-ring table.

The Whittaker vector has component 1 in degree zero and satisfies, for
every i with d_i >= 1, the exact condition

    (lowering_i) v_d = h^-1 v_{d - e_i}.

Each component is the unique solution of the stacked linear system over
the function field; uniqueness is certified by the solver (zero kernel)
and every solution is re-verified by substitution.
"""

from __future__ import annotations

from fractions import Fraction

from .field import FieldElem, VermalabError
from .gtalg import eig_det_bundle, joint_spectrum
from .linalg import solve_linear, solve_rows, vstack
from .patterns import DegreeVector, Pattern, _first_collision, degree_valid
from .verma import VermaContext


class SolveError(VermalabError):
    """The stacked system came out inconsistent or underdetermined; the
    diagnosis is preserved because it would falsify uniqueness."""

    def __init__(self, degree, status):
        super().__init__(f"stacked system at degree {list(degree)} is {status}")
        self.degree = tuple(degree)
        self.status = status


class WhittakerComponent:
    __slots__ = ("degree", "coefficients")

    def __init__(self, degree: DegreeVector, coefficients: dict[Pattern, FieldElem]):
        self.degree = tuple(degree)
        self.coefficients = coefficients

    def vector(self, ctx: VermaContext) -> list[FieldElem]:
        return [self.coefficients[p] for p in ctx.basis(self.degree)]

    def to_json_dict(self) -> dict:
        items = sorted(self.coefficients.items(), key=lambda kv: kv[0].flat)
        return {
            "degree": list(self.degree),
            "coefficients": [
                {"pattern": p.to_json(), "value": v.text()} for p, v in items
            ],
        }


class WhittakerSolver:
    """Memoized recursion over degrees; single writer per memo key."""

    def __init__(self, n: int):
        self.ctx = VermaContext.get(n)
        self._memo: dict[DegreeVector, WhittakerComponent] = {}

    def component(self, d: DegreeVector) -> WhittakerComponent:
        d = tuple(int(x) for x in d)
        if not degree_valid(d):
            raise VermalabError(f"invalid degree {d}")
        got = self._memo.get(d)
        if got is not None:
            return got
        ctx = self.ctx
        if sum(d) == 0:
            basis = ctx.basis(d)
            comp = WhittakerComponent(d, {basis[0]: ctx.one})
        else:
            blocks = []
            rhs: list[FieldElem] = []
            for i in range(1, ctx.n):
                if d[i - 1] < 1:
                    continue
                lower = tuple(c - (1 if j == i - 1 else 0) for j, c in enumerate(d))
                prev = self.component(lower)
                blocks.append(ctx.f_block(i, d))
                rhs.extend(v * ctx.hinv for v in prev.vector(ctx))
            stacked = vstack(blocks)
            res = solve_linear(stacked, rhs)
            if res.status != "unique":
                raise SolveError(d, res.status)
            residual = stacked.apply(res.solution)
            for got_v, want_v in zip(residual, rhs):
                if not (got_v - want_v).is_zero():
                    raise VermalabError(f"solution verification failed at degree {d}")
            basis = ctx.basis(d)
            comp = WhittakerComponent(d, dict(zip(basis, res.solution)))
        self._memo[d] = comp
        return comp


def whittaker_component(n: int, d: DegreeVector) -> WhittakerComponent:
    """Component of degree d from the one solver memoised on the context."""
    return VermaContext.get(n)._cached(("WhittakerSolver",), lambda: WhittakerSolver(n)).component(d)


def check_cyclicity(n: int, d: DegreeVector):
    """(all_nonzero, separated, details) certifying that the diagonal
    subalgebra applied to the Whittaker component spans the weight space.

    Nonvanishing of every fixed-point coefficient plus pairwise-distinct
    joint eigenvalue tuples let Lagrange interpolation reach every basis
    projector, which is the spanning statement.
    """
    comp = whittaker_component(n, d)
    zero_pats = [p for p, v in comp.coefficients.items() if v.is_zero()]
    spectrum = joint_spectrum(n, d, "tildeCas")
    separated = _first_collision(spectrum.table) is None
    details = {
        "dimension": len(spectrum.table),
        "zero_coefficients": [p.text() for p in sorted(zero_pats, key=lambda p: p.flat)],
        "separated": separated,
    }
    return (not zero_pats), separated, details


class SpectrumCollapseError(VermalabError):
    def __init__(self, a: Pattern, b: Pattern):
        super().__init__(
            f"specialization collapses the joint spectrum on {a.text()} and {b.text()};"
            " pick a different point"
        )


def ring_structure(n: int, d: DegreeVector, specialization: dict[str, Fraction] | None = None) -> dict:
    """Multiplication table of the degree-d cohomology ring realized as
    diagonal operators generated by the determinant classes acting on the
    Whittaker component.

    Without a specialization only the symbolic eigenvalue tables are
    emitted.  With one, the generators are evaluated exactly, a monomial
    basis is selected by rank growth, and each pairwise product is
    expanded over that basis with exact rational coefficients.
    """
    ctx = VermaContext.get(n)
    d = tuple(d)
    basis = ctx.basis(d)
    dim = len(basis)
    gens = [k for k in range(2, n) if d[k - 1] != 0 and d[k - 2] != 0]
    labels = [f"c1(D{k})" for k in gens]
    eig_tables = {
        label: {p: eig_det_bundle(p, k) for p in basis}
        for label, k in zip(labels, gens)
    }
    out: dict = {
        "degree": list(d),
        "dimension": dim,
        "generators": labels,
        "eigenvalues": {
            label: [
                {"pattern": p.to_json(), "value": eig_tables[label][p].text()}
                for p in basis
            ]
            for label in labels
        },
    }
    comp = whittaker_component(n, d)
    out["whittaker_nonzero"] = all(not v.is_zero() for v in comp.coefficients.values())
    if specialization is None:
        return out
    # exact rational eigenvalue tuples per basis point
    values: dict[str, list[Fraction]] = {}
    for label in labels:
        values[label] = [eig_tables[label][p].evaluate(specialization) for p in basis]
    tuples = {p: tuple(values[label][idx] for label in labels) for idx, p in enumerate(basis)}
    collision = _first_collision(tuples)
    if collision is not None:
        raise SpectrumCollapseError(*collision)
    # greedy monomial basis: exponent vectors over the generators, graded-lex
    def monomial_values(expv):
        vals = []
        for idx in range(dim):
            acc = Fraction(1)
            for g, e in zip(labels, expv):
                acc *= values[g][idx] ** e
            vals.append(acc)
        return vals

    chosen: list[tuple[int, ...]] = []
    chosen_vals: list[list[Fraction]] = []

    def expand(vals):
        """Solve sum_i c_i chosen_vals[i] = vals, one equation per point."""
        m = [[row[idx] for row in chosen_vals] + [vals[idx]] for idx in range(dim)]
        return solve_rows(m, len(chosen_vals), Fraction(0), Fraction(1))

    bound = 0
    while len(chosen) < dim:
        bound += 1
        candidates = _graded_exponents(len(labels), bound)
        for expv in candidates:
            if expv in chosen:
                continue
            vals = monomial_values(expv)
            # a monomial outside the span of the chosen ones raises the rank
            if expand(vals).status == "inconsistent":
                chosen.append(expv)
                chosen_vals.append(vals)
                if len(chosen) == dim:
                    break
        if bound > dim + 1:
            raise VermalabError("monomial basis search failed to reach full rank")
    products = {}
    for ia, la in enumerate(labels):
        for ib, lb in enumerate(labels[ia:], start=ia):
            target = [values[la][idx] * values[lb][idx] for idx in range(dim)]
            res = expand(target)
            if res.status != "unique":
                raise VermalabError("product does not lie in the chosen span")
            products[f"{la}*{labels[ib]}"] = {
                _exp_label(labels, expv): str(c)
                for expv, c in zip(chosen, res.solution)
                if c != 0
            }
    out["specialization"] = {k: str(v) for k, v in sorted(specialization.items())}
    out["basis"] = [_exp_label(labels, expv) for expv in chosen]
    out["products"] = products
    return out


def _graded_exponents(nvars: int, bound: int) -> list[tuple[int, ...]]:
    if nvars == 0:
        return [()]
    out = []
    for total in range(bound + 1):
        out.extend(_sum_tuples(nvars, total))
    return out


def _sum_tuples(nvars: int, total: int) -> list[tuple[int, ...]]:
    if nvars == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _sum_tuples(nvars - 1, total - first):
            out.append((first,) + rest)
    return out


def _exp_label(labels: list[str], expv: tuple[int, ...]) -> str:
    parts = [
        f"{lab}^{e}" if e > 1 else lab for lab, e in zip(labels, expv) if e
    ]
    return "*".join(parts) if parts else "1"
