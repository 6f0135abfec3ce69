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
    check_invariants_preserved,
    compose_perm,
    eig_global_chern,
    sn_action,
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
    results = verma.check_gl_relations(n, max_degree)
    for label, anchor, ok, witness in results:
        rep.add_check(label, anchor, ok, witness)
    ctx = VermaContext.get(n)
    support_ok = True
    transpose_ok = True
    support_witness = None
    for d in degree_vectors_upto(n, max_degree):
        for i in range(1, n):
            eb = ctx.e_block(i, d)
            src = ctx.basis(d)
            up = shift_degree(d, verma.ef_shift(n, "e", i))
            tgt = ctx.basis(up)
            for (r, c), _v in eb.entries.items():
                diffs = [
                    (ii, jj, tgt[r].entry(ii, jj) - src[c].entry(ii, jj))
                    for ii in range(1, n)
                    for jj in range(1, ii + 1)
                    if src[c].entry(ii, jj) != tgt[r].entry(ii, jj)
                ]
                if len(diffs) != 1 or diffs[0][0] != i or diffs[0][2] != 1:
                    support_ok = False
                    support_witness = f"raise {i} at degree {list(d)} moved {diffs}"
            fb_back = ctx.f_block(i, up)
            epairs = set(eb.entries)
            fpairs = {(c, r) for (r, c) in fb_back.entries}
            if epairs != fpairs:
                transpose_ok = False
    rep.add_check(
        "raise/lower support rule",
        "nonzero entries change a single entry of the acting row by one",
        support_ok,
        support_witness,
    )
    rep.add_check(
        "raise transitions reverse lower transitions",
        "index pairs of the two blocks are mutual transposes",
        transpose_ok,
        None if transpose_ok else "transition sets differ",
    )
    return rep


# -- gt spectrum -----------------------------------------------------------------


def suite_gt_spectrum(n: int, degree, generators: str = "tildeCas") -> tuple[VerificationReport, dict]:
    d = _tuple_degree(degree)
    rep = VerificationReport("gt-spectrum", {"degree": list(d), "generators": generators, "n": n})
    ctx = VermaContext.get(n)
    for k in range(1, n + 1):
        off_ok, eig_ok, witness = gtalg.casimir_diagonality_defects(n, k, d)
        rep.add_check(f"Cas{k} diagonal on V_{list(d)}", "assembled quadratic operator is diagonal", off_ok, witness)
        rep.add_check(f"Cas{k} eigenvalues match row formula", "closed form agrees with assembly", eig_ok, witness)
        off_ok, eig_ok, witness = gtalg.casimir_diagonality_defects(n, k, d, corrected=True)
        rep.add_check(f"tildeCas{k} diagonal with closed form", "corrected operator matches its stated eigenvalue", off_ok and eig_ok, witness)
    basis = ctx.basis(d)
    det_ok = True
    for p in basis:
        for k in range(1, n):
            lhs = gtalg.eig_det_bundle(p, k)
            rhs = gtalg.eig_tilde_casimir(p, k) * ctx.h * Fraction(1, 2)
            if not (lhs - rhs).is_zero():
                det_ok = False
    rep.add_check(
        "determinant class = (h/2) corrected Casimir",
        "the two diagonal families are proportional by h/2",
        det_ok,
    )
    div_ok = all(
        gtalg.chern_h_divisible(p, i, j)
        for p in basis
        for i in range(1, n)
        for j in range(1, i + 1)
    )
    rep.add_check(
        "einf - e0 divisible by h",
        "Kunneth numerators vanish at h = 0",
        div_ok,
    )
    gens = gtalg.generator_set(n, d, generators)
    spectrum = joint_spectrum(basis, gens)
    vac, sep, wit = separation(spectrum)
    if vac:
        rep.add("joint spectrum separation", "eigenvalue tuples pairwise distinct", VACUOUS)
    else:
        rep.add_check(
            "joint spectrum separation",
            "eigenvalue tuples pairwise distinct",
            sep,
            None if sep else f"equal tuples on {wit[0].text()} and {wit[1].text()}",
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
        rep.add_check("stacked lowering system unique", "zero kernel and exact solution", False, str(err))
        return rep, {}
    nonzero, separated, details = whit.check_cyclicity(n, d)
    rep.add_check(
        "all fixed-point coefficients nonzero",
        "orbit through the diagonal subalgebra has full support",
        nonzero,
        None if nonzero else ", ".join(details["zero_coefficients"]),
    )
    rep.add_check(
        "corrected-Casimir spectrum separates",
        "distinct joint eigenvalues certify the cyclic span",
        separated,
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
        "whittaker support", "nonzero coefficients back the ring realization", table["whittaker_nonzero"]
    )
    if specialization is not None:
        products = table["products"]
        sym_ok = True
        for key in products:
            a, b = key.split("*")
            if f"{b}*{a}" in products and products[f"{b}*{a}"] != products[key]:
                sym_ok = False
        rep.add_check("product table symmetric", "diagonal algebra is commutative", sym_ok)
    return rep, table


# -- deformed family ----------------------------------------------------------------


def suite_qc(n: int, degree) -> VerificationReport:
    d = _tuple_degree(degree)
    rep = VerificationReport("qc-check", {"degree": list(d), "n": n})
    if n < 3:
        rep.add("deformed family", "no quantum parameters (Picard rank n-2 = 0)", VACUOUS)
        return rep
    for k in range(2, n):
        ok = shiftarg.qc_at_q_zero_matches(n, k, d)
        rep.add_check(
            f"QC{k} at q=0 equals tildeCas{k}",
            "the deformation degenerates to the corrected Casimir",
            ok,
        )
    results = shiftarg.check_qc_commutativity(n, d)
    if not results:
        rep.add("family commutativity", "single deformed element; nothing to commute", VACUOUS)
    nonzero_pairs = [(k, l) for k, l, is_zero, _ in results if not is_zero]
    for k, l, is_zero, witness in results:
        rep.add_probe(
            f"[QC{k},QC{l}] on V_{list(d)}",
            "deformed family commutes",
            None if is_zero else f"nonzero {witness}",
        )
    for k, l in nonzero_pairs:
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
        diff = shiftarg.qc_vs_quadratic_space(n, k, d)
        witness = None
        if not diff.is_zero():
            r, c, v = diff.sorted_entries()[0]
            witness = f"difference entry ({r},{c}): {v.text()}"
        rep.add_probe(f"QC{k} matches quadratic-space element", "pairing normalization probe", witness)
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
    for label, is_zero, witness in shiftarg.check_flatness(n, d):
        anchor = (
            "commutator part of the curvature"
            if label.startswith("C1")
            else "derivative symmetry of the connection"
        )
        rep.add_probe(label, anchor, None if is_zero else f"nonzero {witness}")
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
    rep.add_check(
        "path is a loop",
        "start and end coincide",
        all(abs(a - b) < 1e-12 for a, b in zip(start, end)),
        f"starts at {_points(start)}, ends at {_points(end)}",
    )
    rep.add_check(
        "error estimate within tolerance",
        "step-refinement agreement of the integrator",
        est <= tolerance,
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
    for label, anchor, ok, witness in check_double_relations(n, max_degree):
        rep.add_check(label, anchor, ok, witness)
    gctx = GlobalContext.get(n)
    law_ok = True
    degrees = degree_vectors_upto(n, max_degree)
    for d in degrees[: min(3, len(degrees))]:
        basis = gctx.basis(d)
        if not basis:
            continue
        vec = {basis[0]: FieldElem.var(gctx.ring, "x1") + FieldElem.var(gctx.ring, "h")}
        for sa in itertools.permutations(range(1, n + 1)):
            for sb in itertools.permutations(range(1, n + 1)):
                lhs = sn_action(sa, d, sn_action(sb, d, vec))
                rhs = sn_action(compose_perm(sa, sb), d, vec)
                keys = set(lhs) | set(rhs)
                for key in keys:
                    a = lhs.get(key, gctx.local.zero)
                    b = rhs.get(key, gctx.local.zero)
                    if not (a - b).is_zero():
                        law_ok = False
    rep.add_check("symmetric group action law", "composition of twists matches composed permutation", law_ok)
    for d in degrees:
        ok = check_invariants_preserved(n, d)[0][2]
        rep.add_check(
            f"invariants preserved on degree {list(d)}",
            "operators keep the symmetric part",
            ok,
        )
    for d in degrees:
        if sum(d) == 0:
            continue
        for label, anchor, ok, witness in check_global_whittaker(n, d):
            rep.add_check(label, anchor, ok, witness)
    for d in degrees:
        spectrum = joint_spectrum(gctx.basis(d), gtalg.chern_generators(n, eig_global_chern))
        vac, sep, wit = separation(spectrum, key=GlobalFixedPoint.sort_key)
        if vac:
            rep.add(f"global spectrum separation on {list(d)}", "tautological weights distinguish fixed points", VACUOUS)
        else:
            rep.add_check(
                f"global spectrum separation on {list(d)}",
                "tautological weights distinguish fixed points",
                sep,
                None if sep else f"{wit[0].text()} vs {wit[1].text()}",
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
    tau_ok = True
    square_witness = None
    integrality_witness = None
    rows = []
    for d in degree_vectors_upto(n, max_degree):
        for p in enumerate_patterns(n, d):
            for k in range(1, n + 1):
                corr = ktheory.corrected_quantum_casimir_exponent(p, k)
                if corr.total_degree() > 1:
                    tau_ok = False
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
        None if tau_ok else "quadratic part survived",
    )
    rep.add_check(
        "squared determinant class inverts the corrected Casimir",
        "det^2 * corrected = 1 on every pattern",
        square_witness is None,
        square_witness,
    )
    rep.add_probe("basis-change v-exponent integrality", "half-integer sums cancel", integrality_witness)
    sep_all = True
    any_nonvacuous = False
    for d in degree_vectors_upto(n, max_degree):
        vac, sep, _ = separation(joint_spectrum(enumerate_patterns(n, d), ktheory.det_class_generators(d)))
        if not vac:
            any_nonvacuous = True
            if not sep:
                sep_all = False
    if any_nonvacuous:
        rep.add_check(
            "determinant-class tuples separate patterns",
            "distinct monomial spectra on every nonvacuous degree",
            sep_all,
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
