"""A failing check is reported, never raised.

Each case breaks the predicate behind one report item and asserts that
the suite still returns its report with that item ``fail`` and a
witness, and that the CLI prints the report, writes ``--out`` and exits
1 without an ``error:`` line.  Every case runs on fresh contexts, so an
operator or solution built under the broken predicate never reaches the
shared caches.  The relation checks decide their blocks without building
them and build only a failing one, for its witness; for those cases the
witness must equal the first nonzero entry of the block built directly
with the matrix operations.
"""

import pytest

from vermalab import cli, globalverma, gtalg, ktheory, shiftarg, suites
from vermalab import whittaker as whit
from vermalab.field import FieldElem
from vermalab.patterns import degree_vectors_upto
from vermalab.verma import VermaContext, lazy_eij


def _det_bundle_off_by_one(mp):
    original = gtalg.eig_det_bundle
    mp.setattr(gtalg, "eig_det_bundle", lambda p, k: original(p, k) + VermaContext.get(p.n).one)


def _never_h_divisible(mp):
    mp.setattr(gtalg, "chern_h_divisible", lambda p, i, j: False)


def _constant_generators(mp, module, name):
    mp.setattr(module, name, lambda *args: [("const", lambda p: 0)])


def _zero_whittaker_coefficients(mp):
    original = whit.whittaker_component

    def zeroed(n, d):
        comp = original(n, d)
        zero = VermaContext.get(n).zero
        return whit.WhittakerComponent(comp.degree, {p: zero for p in comp.coefficients})

    mp.setattr(whit, "whittaker_component", zeroed)


def _correction_survives_q_zero(mp):
    original = shiftarg.q_coefficient

    def shifted(n, i, k, j):
        return original(n, i, k, j) + FieldElem.one(shiftarg.quantum_context(n).ring)

    mp.setattr(shiftarg, "q_coefficient", shifted)


def _composition_drops_right_factor(mp):
    mp.setattr(suites, "compose_perm", lambda a, b: a)


def _orbit_sums_keep_one_point(mp):
    original = globalverma.symmetrize
    mp.setattr(globalverma, "symmetrize", lambda n, d: [dict([next(iter(v.items()))]) for v in original(n, d)])


def _cartan_doubled(i):
    """E_ii acts by twice its diagonal scalar off degree 0: the relations
    with E_ii on their right-hand side break there, in the local and the
    global module."""

    def breaks(mp):
        original = VermaContext.cartan_scalar
        mp.setattr(VermaContext, "cartan_scalar", lambda self, j, d: original(self, j, d) * (2 if j == i and any(d) else 1))

    return breaks


def _first_nonzero_block(n, dmax, block):
    for d in degree_vectors_upto(n, dmax):
        witness = block(d).first_entry()
        if witness is not None:
            return f"degree {list(d)} {witness}"
    return None


def _gl_e12_e21_witness():
    # [E12, E21] - E11 + E22, each block built by the matrix operations
    ctx = VermaContext.get(3)
    com = lazy_eij(ctx, 1, 2).commutator(lazy_eij(ctx, 2, 1))
    return _first_nonzero_block(3, 1, lambda d: com.block(d) - ctx.eij_block(1, 1, d) + ctx.eij_block(2, 2, d))


def _global_e1_f1_witness():
    gctx = globalverma.GlobalContext.get(2)
    e, f, h1, h2 = (globalverma.lazy_global(gctx, k, 1, i) for k, i in (("e", 1), ("f", 1), ("h", 1), ("h", 2)))
    return _first_nonzero_block(2, 1, lambda d: e.commutator(f).block(d) - (h2.block(d) - h1.block(d)))


CASES = {
    "gl-relation": (
        _cartan_doubled(1),
        lambda: suites.suite_verify_gl(3, 1),
        "[E12,E21]",
        ["verify-gl", "--n", "3", "--max-degree", "1"],
        _gl_e12_e21_witness,
    ),
    "global-relation": (
        _cartan_doubled(2),
        lambda: suites.suite_global(2, 1),
        "[e1(1),f1(1)]=h1(1)",
        ["global-verify", "--n", "2", "--max-degree", "1"],
        _global_e1_f1_witness,
    ),
    "det-class": (
        _det_bundle_off_by_one,
        lambda: suites.suite_gt_spectrum(3, "1,1")[0],
        "determinant class = (h/2) corrected Casimir",
        ["gt-spectrum", "--n", "3", "--degree", "1,1"],
    ),
    "h-divisible": (
        _never_h_divisible,
        lambda: suites.suite_gt_spectrum(3, "1,1")[0],
        "einf - e0 divisible by h",
        ["gt-spectrum", "--n", "3", "--degree", "1,1"],
    ),
    "tildeCas-separates": (
        lambda mp: _constant_generators(mp, whit, "generator_set"),
        lambda: suites.suite_whittaker(3, "1,1")[0],
        "corrected-Casimir spectrum separates",
        ["whittaker", "--n", "3", "--degree", "1,1"],
    ),
    "whittaker-support": (
        _zero_whittaker_coefficients,
        lambda: suites.suite_ring(3, "1,1", None)[0],
        "whittaker support",
        ["ring", "--n", "3", "--degree", "1,1"],
    ),
    "qc-at-q-zero": (
        _correction_survives_q_zero,
        lambda: suites.suite_qc(3, "1,1"),
        "QC2 at q=0 equals tildeCas2",
        ["qc-check", "--n", "3", "--degree", "1,1"],
    ),
    "action-law": (
        _composition_drops_right_factor,
        lambda: suites.suite_global(2, 1),
        "symmetric group action law",
        ["global-verify", "--n", "2", "--max-degree", "1"],
    ),
    "invariants": (
        _orbit_sums_keep_one_point,
        lambda: suites.suite_global(2, 1),
        "invariants preserved on degree [1]",
        ["global-verify", "--n", "2", "--max-degree", "1"],
    ),
    "ktheory-separation": (
        lambda mp: _constant_generators(mp, ktheory, "det_class_generators"),
        lambda: suites.suite_ktheory(3, 2)[0],
        "determinant-class tuples separate patterns",
        ["ktheory", "--n", "3", "--max-degree", "2"],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_failing_check_is_reported(case, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(VermaContext, "_instances", {})
    breaks, run_suite, label, argv, *want = CASES[case]
    breaks(monkeypatch)
    items = {item.label: item for item in run_suite().items}
    assert items[label].status == "fail" and items[label].witness, items[label]
    if want:
        assert items[label].witness == want[0]()
    capsys.readouterr()
    out = tmp_path / "report.out"
    assert cli.run(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert out.is_file()
    assert f"[FAIL    ] {label}" in captured.out
    assert "error:" not in captured.err
