"""Verification suites behind the CLI subcommands.

Status policy: a ``fail`` marks an artifact-level defect (these gate the
exit code); a ``finding`` records the outcome of a formula-level probe
whose failure falsifies a source claim rather than the implementation.
Probes that ask whether a stated identity holds (the deformed-family
commutators beyond the windows where they vanish, the Kunneth-to-diagonal
transcription of the multiplicative Casimir, the cartan-from-chern rule)
report findings with explicit witnesses, never silent patches.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from . import gtalg, ktheory, shiftarg, verma, whittaker as whit
from .field import FieldElem
from .globalverma import (
    GlobalContext,
    cartan_from_chern,
    check_double_relations,
    check_global_whittaker,
    compose_perm,
    eig_global_chern,
    invariants_defect,
    sn_action,
    vec_difference,
)
from .patterns import (
    GlobalFixedPoint,
    degree_vectors_upto,
    enumerate_global_fixed_points,
    enumerate_patterns,
    joint_spectrum,
    separation,
    shift_degree,
)
from .report import FINDING, PASS, VACUOUS, VerificationReport
from .verma import VermaContext
from .whittaker import whittaker_component


def _tuple_degree(text_or_tuple) -> tuple[int, ...]:
    if isinstance(text_or_tuple, tuple):
        return text_or_tuple
    return tuple(int(x) for x in str(text_or_tuple).split(","))


# -- patterns ---------------------------------------------------------------


def patterns_listing(n: int, degree, include_global: bool = False) -> dict:
    d = _tuple_degree(degree)
    pats = enumerate_patterns(n, d)
    out = {
        "count": len(pats),
        "degree": list(d),
        "n": n,
        "patterns": [p.to_json() for p in pats],
    }
    if include_global:
        points = enumerate_global_fixed_points(n, d)
        out["global_count"] = len(points)
        out["global_points"] = [fp.to_json() for fp in points]
    return out


# -- gl(n) relations -----------------------------------------------------------


def suite_verify_gl(n: int, max_degree: int) -> VerificationReport:
    rep = VerificationReport("verify-gl", {"n": n, "max_degree": max_degree})
    for label, anchor, witness in verma.check_gl_relations(n, max_degree):
        rep.add_check(label, anchor, witness)
    ctx = VermaContext.get(n)
    support_witness = None
    transpose_witness = None
    for d in degree_vectors_upto(n, max_degree):
        for i in range(1, n):
            eb = ctx.e_block(i, d)
            src = ctx.basis(d)
            up = shift_degree(d, verma.root_shift(n, i + 1, i))
            tgt = ctx.basis(up)
            for (r, c), _v in eb.entries.items():
                diffs = [
                    (ii, jj, tgt[r].entry(ii, jj) - src[c].entry(ii, jj))
                    for ii in range(1, n)
                    for jj in range(1, ii + 1)
                    if src[c].entry(ii, jj) != tgt[r].entry(ii, jj)
                ]
                if [(row, step) for row, _, step in diffs] != [(i, 1)]:
                    support_witness = f"raise {i} at degree {list(d)} moved {diffs}"
            fpairs = {(c, r) for (r, c) in ctx.f_block(i, up).entries}
            if set(eb.entries) != fpairs:
                transpose_witness = f"transition sets differ for row {i} at degree {list(d)}"
    rep.add_check(
        "raise/lower support rule",
        "nonzero entries change a single entry of the acting row by one",
        support_witness,
    )
    rep.add_check(
        "raise transitions reverse lower transitions",
        "index pairs of the two blocks are mutual transposes",
        transpose_witness,
    )
    return rep


# -- gt spectrum -----------------------------------------------------------------


def suite_gt_spectrum(n: int, degree, generators: str = "tildeCas") -> tuple[VerificationReport, dict]:
    d = _tuple_degree(degree)
    rep = VerificationReport("gt-spectrum", {"degree": list(d), "generators": generators, "n": n})
    ctx = VermaContext.get(n)
    for k in range(1, n + 1):
        off, eig = gtalg.casimir_diagonality_defects(n, k, d)
        rep.add_check(f"Cas{k} diagonal on V_{list(d)}", "assembled quadratic operator is diagonal", off)
        rep.add_check(f"Cas{k} eigenvalues match row formula", "closed form agrees with assembly", eig)
        off, eig = gtalg.casimir_diagonality_defects(n, k, d, corrected=True)
        rep.add_check(f"tildeCas{k} diagonal with closed form", "corrected operator matches its stated eigenvalue", off or eig)
    basis = ctx.basis(d)
    det_witness = None
    for p in basis:
        for k in range(1, n):
            lhs = gtalg.eig_det_bundle(p, k)
            rhs = gtalg.eig_tilde_casimir(p, k) * ctx.h * Fraction(1, 2)
            if det_witness is None and not (lhs - rhs).is_zero():
                det_witness = f"pattern {p.text()} k={k}"
    rep.add_check(
        "determinant class = (h/2) corrected Casimir",
        "the two diagonal families are proportional by h/2",
        det_witness,
    )
    div_witness = next(
        (
            f"pattern {p.text()} i={i} j={j}"
            for p in basis
            for i in range(1, n)
            for j in range(1, i + 1)
            if not gtalg.chern_h_divisible(p, i, j)
        ),
        None,
    )
    rep.add_check(
        "einf - e0 divisible by h",
        "Kunneth numerators vanish at h = 0",
        div_witness,
    )
    gens = gtalg.generator_set(n, d, generators)
    spectrum = joint_spectrum(basis, gens)
    vac, _, pair = separation(spectrum)
    if vac:
        rep.add("joint spectrum separation", "eigenvalue tuples pairwise distinct", VACUOUS)
    else:
        rep.add_check(
            "joint spectrum separation",
            "eigenvalue tuples pairwise distinct",
            pair and f"equal tuples on {pair[0].text()} and {pair[1].text()}",
        )
    table = {
        "degree": list(d),
        "generators": [label for label, _ in gens],
        "rows": [{"pattern": p.to_json(), "values": [v.text() for v in spectrum[p]]} for p in basis],
    }
    return rep, table


def spectrum_csv(table: dict) -> str:
    head = ",".join(["pattern"] + table["generators"])
    lines = [head]
    for row in table["rows"]:
        pat = json.dumps(row["pattern"]).replace('"', "")
        lines.append(",".join([f'"{pat}"'] + [f'"{v}"' for v in row["values"]]))
    return "\n".join(lines) + "\n"


# -- whittaker -------------------------------------------------------------------


def suite_whittaker(n: int, degree) -> tuple[VerificationReport, dict]:
    d = _tuple_degree(degree)
    rep = VerificationReport("whittaker", {"degree": list(d), "n": n})
    try:
        comp = whittaker_component(n, d)
        rep.add("stacked lowering system unique", "zero kernel and exact solution", PASS)
    except whit.SolveError as err:
        rep.add_check("stacked lowering system unique", "zero kernel and exact solution", str(err))
        return rep, {}
    zero, collision = whit.check_cyclicity(n, d)
    rep.add_check(
        "all fixed-point coefficients nonzero",
        "orbit through the diagonal subalgebra has full support",
        zero,
    )
    rep.add_check(
        "corrected-Casimir spectrum separates",
        "distinct joint eigenvalues certify the cyclic span",
        collision,
    )
    return rep, comp.to_json_dict()


def suite_ring(n: int, degree, specialization: dict | None) -> tuple[VerificationReport, dict]:
    d = _tuple_degree(degree)
    rep = VerificationReport(
        "ring",
        {
            "degree": list(d),
            "n": n,
            "specialization": {k: str(v) for k, v in sorted((specialization or {}).items())},
        },
    )
    table = whit.ring_structure(n, d, specialization)
    rep.add_check(
        "whittaker support", "nonzero coefficients back the ring realization", whit.support_defect(n, d)
    )
    return rep, table


# -- deformed family ----------------------------------------------------------------


def suite_qc(n: int, degree) -> VerificationReport:
    d = _tuple_degree(degree)
    rep = VerificationReport("qc-check", {"degree": list(d), "n": n})
    if n < 3:
        rep.add("deformed family", "no quantum parameters (Picard rank n-2 = 0)", VACUOUS)
        return rep
    for k in range(2, n):
        rep.add_check(
            f"QC{k} at q=0 equals tildeCas{k}",
            "the deformation degenerates to the corrected Casimir",
            shiftarg.qc_at_q_zero_defect(n, k, d),
        )
    results = shiftarg.check_qc_commutativity(n, d)
    if not results:
        rep.add("family commutativity", "single deformed element; nothing to commute", VACUOUS)
    for k, l, witness in results:
        rep.add_probe(
            f"[QC{k},QC{l}] on V_{list(d)}",
            "deformed family commutes",
            witness and f"nonzero {witness}",
        )
    for k, l in [(k, l) for k, l, witness in results if witness]:
        blk = _doubled_commutator_block(n, k, l, d)
        status = "vanishes" if blk.is_zero() else "does not vanish"
        rep.add(
            f"doubled-correction probe [QC{k}',QC{l}'] on V_{list(d)}",
            "variant with doubled deformation coefficients",
            FINDING,
            f"commutator with coefficients 2c {status} on this block",
        )
    # open-question probe: quadratic-space element with the stated weights
    for k in range(2, n):
        diff = shiftarg.qc_vs_quadratic_space(n, k, d).first_entry()
        rep.add_probe(
            f"QC{k} matches quadratic-space element", "pairing normalization probe", diff and f"difference {diff}"
        )
    return rep


def _doubled_commutator_block(n: int, k: int, l: int, d):
    """[QC_k', QC_l'] on V_d for QC' = 2 QC - tildeCas, the variant whose
    deformation coefficients are 2c."""
    ctx = shiftarg.quantum_context(n)
    two = FieldElem.from_rational(ctx.ring, 2)

    def doubled(kk):
        return shiftarg.lazy_qc(ctx, kk).scale(two).sub(gtalg.lazy_tilde_casimir(ctx, kk))

    return doubled(k).commutator(doubled(l)).block(tuple(d))


def suite_flatness(n: int, degree) -> VerificationReport:
    d = _tuple_degree(degree)
    rep = VerificationReport("flatness", {"degree": list(d), "n": n})
    if n < 4:
        rep.add("curvature components", "fewer than two deformed elements; flat trivially", VACUOUS)
        return rep
    for label, witness in shiftarg.check_flatness(n, d):
        anchor = (
            "commutator part of the curvature"
            if label.startswith("C1")
            else "derivative symmetry of the connection"
        )
        rep.add_probe(label, anchor, witness and f"nonzero {witness}")
    return rep


# -- monodromy -----------------------------------------------------------------------


def _points(zs: list[complex]) -> str:
    """q coordinates as [re, im] pairs, the form of a path file."""
    return str([[z.real, z.imag] for z in zs])


def suite_monodromy(
    n: int,
    degree,
    specialization: dict,
    kappa: Fraction,
    path_segments: list,
    tolerance: float = 1e-6,
) -> tuple[VerificationReport, dict]:
    d = _tuple_degree(degree)
    rep = VerificationReport(
        "monodromy",
        {
            "degree": list(d),
            "kappa": str(kappa),
            "n": n,
            "specialization": {k: str(v) for k, v in sorted(specialization.items())},
            "tolerance": tolerance,
        },
    )
    spec = shiftarg.ConnectionSpec(n, d, kappa, specialization)
    segs = [shiftarg.Segment(s["from"], s["to"]) for s in path_segments]
    mat, est = shiftarg.monodromy_transport(spec, segs)
    start, end = segs[0].start, segs[-1].end
    closed = all(abs(a - b) < 1e-12 for a, b in zip(start, end))
    rep.add_check(
        "path is a loop",
        "start and end coincide",
        None if closed else f"starts at {_points(start)}, ends at {_points(end)}",
    )
    rep.add_check(
        "error estimate within tolerance",
        "step-refinement agreement of the integrator",
        None if est <= tolerance else f"estimate {est:.3e}",
    )
    out = {
        "degree": list(d),
        "dimension": spec.dim,
        "error_estimate": est,
        "matrix_im": [[float(z.imag) for z in row] for row in mat],
        "matrix_re": [[float(z.real) for z in row] for row in mat],
    }
    return rep, out


# -- global -----------------------------------------------------------------------


def suite_global(n: int, max_degree: int) -> VerificationReport:
    rep = VerificationReport("global-verify", {"max_degree": max_degree, "n": n})
    for label, anchor, witness in check_double_relations(n, max_degree):
        rep.add_check(label, anchor, witness)
    gctx = GlobalContext.get(n)
    degrees = degree_vectors_upto(n, max_degree)
    perms = list(itertools.permutations(range(1, n + 1)))
    law_witness = None
    for d in degrees[:3]:
        basis = gctx.basis(d)
        if not basis or law_witness:
            continue
        vec = {basis[0]: FieldElem.var(gctx.ring, "x1") + FieldElem.var(gctx.ring, "h")}
        for sa, sb in itertools.product(perms, repeat=2):
            diff = vec_difference(sn_action(sa, d, sn_action(sb, d, vec)), sn_action(compose_perm(sa, sb), d, vec))
            if diff is not None:
                law_witness = f"sigma_a={sa} sigma_b={sb} on degree {list(d)} at {diff}"
                break
    rep.add_check("symmetric group action law", "composition of twists matches composed permutation", law_witness)
    for d in degrees:
        rep.add_check(
            f"invariants preserved on degree {list(d)}",
            "operators keep the symmetric part",
            invariants_defect(n, d),
        )
    for d in degrees:
        if sum(d) == 0:
            continue
        for label, anchor, witness in check_global_whittaker(n, d):
            rep.add_check(label, anchor, witness)
    for d in degrees:
        spectrum = joint_spectrum(gctx.basis(d), gtalg.chern_generators(n, eig_global_chern))
        vac, _, pair = separation(spectrum, key=GlobalFixedPoint.sort_key)
        if vac:
            rep.add(f"global spectrum separation on {list(d)}", "tautological weights distinguish fixed points", VACUOUS)
        else:
            rep.add_check(
                f"global spectrum separation on {list(d)}",
                "tautological weights distinguish fixed points",
                pair and f"{pair[0].text()} vs {pair[1].text()}",
            )
    finding_count = 0
    for d in degrees:
        for fp in gctx.basis(d):
            for i in range(1, n):
                computed, expected = cartan_from_chern(fp, i)
                if not (computed - expected).is_zero():
                    finding_count += 1
                    if finding_count <= 3:
                        rep.add(
                            f"cartan-from-chern at {fp.text()} i={i}",
                            "first-Chern combination vs the bare variable",
                            FINDING,
                            f"computed {computed.text()} vs expected {expected.text()}",
                        )
    if finding_count == 0:
        rep.add("cartan-from-chern consistency", "first-Chern combination vs the bare variable", PASS)
    elif finding_count > 3:
        rep.add(
            "cartan-from-chern consistency (more)",
            "first-Chern combination vs the bare variable",
            FINDING,
            f"{finding_count} fixed points show the 2(d_i-1 - d_i)h offset in total",
        )
    return rep


# -- ktheory -----------------------------------------------------------------------


def suite_ktheory(n: int, max_degree: int) -> tuple[VerificationReport, dict]:
    rep = VerificationReport("ktheory", {"max_degree": max_degree, "n": n})
    tau_witness = None
    square_witness = None
    integrality_witness = None
    rows = []
    for d in degree_vectors_upto(n, max_degree):
        for p in enumerate_patterns(n, d):
            for k in range(1, n + 1):
                corr = ktheory.corrected_quantum_casimir_exponent(p, k)
                if corr.total_degree() > 1:
                    tau_witness = tau_witness or f"{p.text()} k={k}: quadratic part survived"
                    continue
                if k <= n - 1:
                    # det^2 * corrected = 1 is 2 det + corrected = 0 on exponents
                    residue = ktheory.eig_det_class_K(p, k).scale(2) + corr
                    if square_witness is None and not residue.is_zero():
                        square_witness = f"{p.text()} k={k}: det^2 * corrected = " + ktheory.exponent_text(residue)
            try:
                vsq_minus_one, mono = ktheory.normalization_constant(p)
            except ktheory.ExponentIntegralityError as err:
                integrality_witness = str(err)
                continue
            normalization = ktheory.exponent_text(mono)
            if vsq_minus_one:
                normalization = f"(v^2-1)^{vsq_minus_one} {normalization}"
            dets = [ktheory.exponent_text(ktheory.eig_det_class_K(p, k)) for k in range(1, n)]
            rows.append({"pattern": p.to_json(), "normalization": normalization, "det_classes": dets})
    # a surviving quadratic part would falsify the correction bookkeeping;
    # that is a formula-level outcome, reported rather than failed
    rep.add_probe(
        "tau-quadratic part cancels in the corrected Casimir",
        "multiplicative correction collapses to a monomial",
        tau_witness,
    )
    rep.add_check(
        "squared determinant class inverts the corrected Casimir",
        "det^2 * corrected = 1 on every pattern",
        square_witness,
    )
    rep.add_probe("basis-change v-exponent integrality", "half-integer sums cancel", integrality_witness)
    sep_witness = None
    any_nonvacuous = False
    for d in degree_vectors_upto(n, max_degree):
        vac, _, pair = separation(joint_spectrum(enumerate_patterns(n, d), ktheory.det_class_generators(d)))
        any_nonvacuous = any_nonvacuous or not vac
        if pair and sep_witness is None:
            sep_witness = f"degree {list(d)}: equal tuples on {pair[0].text()} and {pair[1].text()}"
    if any_nonvacuous:
        rep.add_check(
            "determinant-class tuples separate patterns",
            "distinct monomial spectra on every nonvacuous degree",
            sep_witness,
        )
    else:
        rep.add("determinant-class tuples separate patterns", "no nonvacuous degree in range", VACUOUS)
    table = {"eigenvalues": rows, "max_degree": max_degree, "n": n}
    return rep, table


def ktheory_csv(table: dict) -> str:
    n = table["n"]
    head = ",".join(["pattern", "normalization"] + [f"detD{k}" for k in range(1, n)])
    lines = [head]
    for row in table["eigenvalues"]:
        pat = json.dumps(row["pattern"]).replace('"', "")
        cells = [f'"{pat}"', f'"{row["normalization"]}"'] + [f'"{v}"' for v in row["det_classes"]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
