"""A failing check is reported, never raised.

Each case breaks the predicate behind one report item and asserts that
the suite still returns its report with that item ``fail`` and a
witness, and that the CLI prints the report, writes ``--out`` and exits
1 without an ``error:`` line.  Every case runs on fresh contexts, so an
operator or solution built under the broken predicate never reaches the
shared caches.
"""

import pytest

from vermalab import cli, globalverma, gtalg, ktheory, shiftarg, suites
from vermalab import whittaker as whit
from vermalab.field import FieldElem
from vermalab.verma import VermaContext


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


CASES = {
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
    breaks, run_suite, label, argv = CASES[case]
    breaks(monkeypatch)
    items = {item.label: item for item in run_suite().items}
    assert items[label].status == "fail" and items[label].witness, items[label]
    capsys.readouterr()
    out = tmp_path / "report.out"
    assert cli.run(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert out.is_file()
    assert f"[FAIL    ] {label}" in captured.out
    assert "error:" not in captured.err
