"""Report determinism, golden machinery, and the command-line contract."""

import argparse
import cmath
import json
import math
import os
import subprocess
import sys

import pytest

from vermalab import cli
from vermalab.report import GoldenMismatch, VerificationReport, golden_diff
from vermalab.suites import (
    patterns_listing,
    suite_gt_spectrum,
    suite_ktheory,
    suite_qc,
    suite_verify_gl,
    suite_whittaker,
)


def test_report_requires_witness_on_fail():
    rep = VerificationReport("demo", {})
    with pytest.raises(Exception):
        rep.add("x", "y", "fail")


def test_reports_are_byte_identical_across_runs():
    a = suite_verify_gl(2, 2).to_json()
    b = suite_verify_gl(2, 2).to_json()
    assert a == b
    c = suite_qc(3, "1,1").to_json()
    d = suite_qc(3, "1,1").to_json()
    assert c == d


def test_golden_roundtrip(tmp_path):
    text = suite_verify_gl(2, 1).to_json()
    with pytest.raises(GoldenMismatch):
        golden_diff(text, str(tmp_path), "r.json", bless=False)
    assert golden_diff(text, str(tmp_path), "r.json", bless=True)["status"] == "blessed"
    assert golden_diff(text, str(tmp_path), "r.json")["status"] == "match"
    mutated = text.replace('"pass"', '"fail"', 1)
    res = golden_diff(mutated, str(tmp_path), "r.json")
    assert res["status"] == "mismatch" and res["mismatches"]


def test_patterns_listing_counts():
    blob = patterns_listing(3, "1,1")
    assert blob["count"] == 2
    blob = patterns_listing(2, "1", include_global=True)
    assert blob["global_count"] == 4


def test_suite_statuses():
    rep, table = suite_gt_spectrum(3, "1,1")
    assert rep.ok()
    assert table["generators"] == ["tildeCas2"]
    rep, comp = suite_whittaker(2, "1")
    assert rep.ok() and comp["degree"] == [1]
    rep, table = suite_ktheory(3, 2)
    assert rep.ok()
    statuses = {i.label: i.status for i in rep.items}
    assert statuses["squared determinant class inverts the corrected Casimir"] == "pass"


def test_qc_suite_findings_do_not_fail():
    # rank 3 has a single deformed element: commutativity is vacuous and
    # the quadratic-space probe lands as a finding, which never gates
    rep = suite_qc(3, "1,1")
    assert rep.ok()
    statuses = {i.label: i.status for i in rep.items}
    assert statuses["family commutativity"] == "vacuous"
    assert statuses["QC2 matches quadratic-space element"] == "finding"
    assert statuses["QC2 at q=0 equals tildeCas2"] == "pass"


def _run_cli(*argv, **env_overrides):
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return subprocess.run(
        [sys.executable, "-m", "vermalab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_cli_patterns_and_exit_codes(tmp_path):
    out = tmp_path / "patterns.json"
    res = _run_cli("patterns", "--n", "3", "--degree", "1,1", "--out", str(out))
    assert res.returncode == 0
    blob = json.loads(out.read_text())
    assert blob["count"] == 2
    assert out.read_text().endswith("\n")


def test_cli_verify_gl_green():
    res = _run_cli("verify-gl", "--n", "2", "--max-degree", "2")
    assert res.returncode == 0
    assert "fail" in res.stdout or "pass" in res.stdout


def test_cli_usage_error():
    res = _run_cli("verify-gl", "--n", "2")
    _assert_one_line_error(res, 2, "usage error: ")


def test_cli_bad_flag():
    res = _run_cli("verify-gl", "--n", "2", "--max-degree", "1", "--format", "xml")
    _assert_one_line_error(res, 2, "usage error: ")


# the flags each subcommand registers besides --n, --out, --golden and
# --bless, which all of them read; a starred flag is required
_SUBCOMMAND_FLAGS = {
    "patterns": {"--degree*", "--global"},
    "verify-gl": {"--max-degree*", "--format"},
    "gt-spectrum": {"--degree*", "--format", "--generators"},
    "whittaker": {"--degree*", "--format"},
    "ring": {"--degree*", "--spec"},
    "qc-check": {"--degree*", "--format"},
    "flatness": {"--degree*", "--format"},
    "monodromy": {"--degree*", "--spec*", "--path*", "--kappa", "--tolerance"},
    "global-verify": {"--max-degree*", "--format"},
    "ktheory": {"--max-degree", "--format"},
}


def test_each_subcommand_registers_only_the_flags_it_reads(capsys):
    ap = cli.build_parser()
    (subparsers,) = [a for a in ap._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(subparsers.choices) == set(_SUBCOMMAND_FLAGS)
    settable = 0
    for name, sp in subparsers.choices.items():
        flags = {
            a.option_strings[-1] + ("*" if a.required else "")
            for a in sp._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert flags == {"--n*", "--out", "--golden", "--bless"} | _SUBCOMMAND_FLAGS[name], name
        settable += len(flags)
    assert settable == 64
    assert cli.run(["verify-gl", "--help"]) == 0
    assert "--max-degree" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-gl", "--n", "2", "--max-degree", "1", "--degree", "1"),
        ("patterns", "--n", "2", "--degree", "1", "--format", "csv"),
        ("monodromy", "--n", "3", "--degree", "1,1", "--path", "loop.json"),
        ("ktheory", "--n", "2", "--max-degree", "x"),
    ],
    ids=["verify-gl-degree", "patterns-format", "monodromy-no-spec", "max-degree-letter"],
)
def test_cli_argparse_error_is_one_line(argv):
    _assert_one_line_error(_run_cli(*argv), 2, "usage error: ")


def test_cli_qc_spec_example():
    res = _run_cli("qc-check", "--n", "3", "--degree", "1,1")
    assert res.returncode == 0


def test_cli_deterministic_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        res = _run_cli(
            "whittaker", "--n", "2", "--degree", "2", "--format", "json", "--out", str(target)
        )
        assert res.returncode == 0
    assert a.read_text() == b.read_text()


def test_cli_golden_flow(tmp_path):
    golden = tmp_path / "goldens" / "verify_gl_n2_max1.json"
    res = _run_cli(
        "verify-gl", "--n", "2", "--max-degree", "1", "--out", str(tmp_path / "r.json"),
        "--golden", str(golden), "--bless",
    )
    assert res.returncode == 0
    res = _run_cli(
        "verify-gl", "--n", "2", "--max-degree", "1", "--out", str(tmp_path / "r.json"),
        "--golden", str(golden),
    )
    assert res.returncode == 0
    assert "golden: match" in res.stderr
    assert golden.read_text() == (tmp_path / "r.json").read_text()


def test_cli_golden_names_the_committed_file():
    golden = os.path.join(os.path.dirname(__file__), "..", "goldens", "qc_n3_d1_1.json")
    res = _run_cli("qc-check", "--n", "3", "--degree", "1,1", "--golden", golden)
    assert res.returncode == 0
    assert "golden: match" in res.stderr


def _assert_one_line_error(res, code, prefix):
    assert res.returncode == code
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), res.stderr
    assert "Traceback" not in res.stderr


def test_cli_missing_golden_is_one_line_error(tmp_path):
    res = _run_cli("patterns", "--n", "2", "--degree", "1", "--golden", str(tmp_path / "p.json"))
    _assert_one_line_error(res, 1, "error: golden file missing: ")
    # --golden names the file itself, so a directory is a usage error
    res = _run_cli("patterns", "--n", "2", "--degree", "1", "--golden", str(tmp_path))
    _assert_one_line_error(res, 2, "usage error: --golden ")


def test_cli_out_must_name_a_writable_file(tmp_path):
    # --out names the file itself: a directory is a usage error, found
    # before the suite runs, so nothing reaches stdout
    res = _run_cli("verify-gl", "--n", "2", "--max-degree", "1", "--out", str(tmp_path))
    _assert_one_line_error(res, 2, "usage error: --out ")
    assert res.stdout == ""
    # any other failed write is one error line: here a parent is a plain file
    plain = tmp_path / "plain"
    plain.write_text("")
    target = plain / "p.json"
    res = _run_cli("patterns", "--n", "2", "--degree", "1", "--out", str(target))
    _assert_one_line_error(res, 1, f"error: cannot write {target}: ")


@pytest.mark.parametrize(
    "content",
    [
        None,
        "not json",
        '{"paths": []}',
        '{"segments": [{"from": [[0.3, 0.0]]}]}',
        '{"segments": []}',
        '{"segments": [{"from": [], "to": []}]}',
        '{"segments": [{"from": [[0.3, 0.0], [0.5, 0.0]], "to": [[0.0, 0.3], [0.0, 0.5]]}]}',
        '{"segments": [{"from": [[Infinity, 0.0]], "to": [[0.0, 0.3]]}]}',
        '{"segments": [{"from": [[0.3, 0.0]], "to": [[0.0, -Infinity]]}]}',
        '{"segments": [{"from": [1e400], "to": [0.3]}]}',
        '{"segments": [{"from": [[NaN, 0.0]], "to": [[0.0, 0.3]]}]}',
    ],
    ids=["missing", "malformed", "no-segments-key", "no-to-key", "empty", "too-few-q", "too-many-q",
         "infinite-q", "infinite-imaginary-q", "overflowing-q", "nan-q"],
)
def test_cli_bad_monodromy_path_is_usage_error(tmp_path, content):
    path = tmp_path / "loop.json"
    if content is not None:
        path.write_text(content)
    res = _run_cli(
        "monodromy", "--n", "3", "--degree", "1,1", "--spec", "x1=0,x2=1,x3=2,h=1", "--path", str(path)
    )
    _assert_one_line_error(res, 2, "usage error: ")


_SPEC = "x1=0,x2=1,x3=2,h=1"


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--degree", ("patterns", "--n", "2", "--degree", "1,x")),
        ("--degree", ("patterns", "--n", "2", "--degree", "1,")),
        ("--degree", ("patterns", "--n", "3", "--degree", "1")),
        ("--degree", ("whittaker", "--n", "3", "--degree", "1,2,3")),
        ("--degree", ("qc-check", "--n", "3", "--degree", "1,-1")),
        ("--spec", ("ring", "--n", "3", "--degree", "1,1", "--spec", "x1=abc,x2=1,x3=2,h=1")),
        ("--spec", ("ring", "--n", "3", "--degree", "1,1", "--spec", "x1=1/0,x2=1,x3=2,h=1")),
        ("--spec", ("ring", "--n", "3", "--degree", "1,1", "--spec", "x1")),
        ("--spec", ("ring", "--n", "3", "--degree", "1,1", "--spec", "")),
        ("--spec", ("ring", "--n", "3", "--degree", "1,1", "--spec", "x1=0,x2=1,x3=2,h=1,y=3")),
        ("--spec", ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC + ",q2=1")),
        ("--kappa", ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--kappa", "abc")),
        ("--kappa", ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--kappa", "1/0")),
        ("--kappa", ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--kappa", "1e400")),
        ("--kappa", ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--kappa=-1e400")),
        ("--n", ("verify-gl", "--n", "1", "--max-degree", "1")),
        ("--n", ("patterns", "--n", "0", "--degree", "1")),
        ("--max-degree", ("verify-gl", "--n", "2", "--max-degree", "-1")),
        ("--tolerance", ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--tolerance", "nan")),
        ("--tolerance", ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--tolerance", "inf")),
        ("--tolerance", ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--tolerance", "-1")),
        ("--tolerance", ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--tolerance", "0")),
    ],
    ids=["degree-letter", "degree-empty", "degree-short", "degree-long", "degree-negative", "spec-letters",
         "spec-zero-den", "spec-no-value", "spec-empty", "spec-unknown-name", "spec-q-variable", "kappa-letters", "kappa-zero-den",
         "kappa-overflow", "kappa-negative-overflow", "n-one", "n-zero",
         "max-degree-negative", "tolerance-nan", "tolerance-inf", "tolerance-negative", "tolerance-zero"],
)
def test_cli_malformed_value_is_usage_error(tmp_path, flag, argv):
    if argv[0] == "monodromy":
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({"segments": [{"from": [[0.3, 0.0]], "to": [[0.0, 0.3]]}]}))
        argv += ("--path", str(path))
    res = _run_cli(*argv)
    _assert_one_line_error(res, 2, "usage error: ")
    assert flag in res.stderr


def test_cli_sampling_flags_belong_to_qc_check():
    # no subcommand samples: qc-check decides every zero test exactly, and
    # ring and monodromy write a data file, so neither takes --format
    for argv in [
        ("verify-gl", "--n", "2", "--max-degree", "1", "--mode", "random-eval"),
        ("qc-check", "--n", "3", "--degree", "1,0", "--mode", "random-eval"),
        ("qc-check", "--n", "3", "--degree", "1,0", "--trials", "4"),
        ("qc-check", "--n", "3", "--degree", "1,0", "--seed", "3"),
        ("ring", "--n", "3", "--degree", "1,1", "--format", "csv"),
        ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--path", "loop.json", "--format", "csv"),
    ]:
        _assert_one_line_error(_run_cli(*argv), 2, "usage error: ")


def test_cli_monodromy_spec_missing_variable_is_one_line_error(tmp_path):
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"segments": [{"from": [[0.3, 0.0]], "to": [[0.0, 0.3]]}]}))
    res = _run_cli("monodromy", "--n", "3", "--degree", "1,1", "--spec", "x1=0,h=1", "--path", str(path))
    _assert_one_line_error(res, 1, "error: assignment misses variables: x2, x3")


def test_cli_monodromy_open_path_fails_with_endpoints(tmp_path):
    # an open path is a verdict, not an error: the loop check fails with
    # the two endpoints as its witness and the transport is still written
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"segments": [{"from": [[0.3, 0.0]], "to": [[0.0, 0.3]]}]}))
    out = tmp_path / "transport.json"
    res = _run_cli("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--path", str(path), "--out", str(out))
    assert res.returncode == 1, res.stderr
    assert "error" not in res.stderr
    lines = res.stdout.splitlines()
    at = lines.index("  [FAIL    ] path is a loop")
    assert lines[at + 1].strip() == "witness: starts at [[0.3, 0.0]], ends at [[0.0, 0.3]]"
    assert "1 pass, 1 fail, 0 finding, 0 vacuous" in res.stdout
    assert json.loads(out.read_text())["dimension"] == 2


def test_cli_negative_kappa_may_be_a_separate_word(tmp_path):
    # argparse takes "-1/2" for a flag unless the parser knows it is a number
    path = tmp_path / "open.json"
    path.write_text(json.dumps({"segments": [{"from": [[0.3, 0.0]], "to": [[0.0, 0.3]]}]}))
    base = ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--path", str(path))
    outputs = {}
    for name, kappa in {"word": ("--kappa", "-1/2"), "joined": ("--kappa=-1/2",), "default": ()}.items():
        out = tmp_path / f"{name}.json"
        res = _run_cli(*base, *kappa, "--out", str(out))
        assert res.returncode == 1 and "error" not in res.stderr, res.stderr
        outputs[name] = (res.stdout, out.read_bytes())
    assert outputs["word"] == outputs["joined"]
    assert outputs["word"][1] != outputs["default"][1]


def test_cli_monodromy_pole_at_an_endpoint_is_one_line_error(tmp_path):
    # q2 = -1 is a pole of the connection (its denominator is q2 + 1); the
    # endpoint certificate stops the run before any step is taken
    path = tmp_path / "pole.json"
    path.write_text(json.dumps({"segments": [
        {"from": [[-1, 0]], "to": [[0, 1]]},
        {"from": [[0, 1]], "to": [[-1, 0]]},
    ]}))
    res = _run_cli("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--path", str(path))
    assert res.returncode == 1
    assert res.stderr == "error: denominator vanishes at the point: q2 + 1\n"


@pytest.mark.parametrize("spec", ["x1=0,x2=1e400,x3=2,h=1", "x1=0,x2=1,x3=2,h=1e-400"], ids=["huge-x2", "tiny-h"])
def test_cli_monodromy_coefficient_overflow_is_one_line_error(tmp_path, spec):
    # the spec is exact, but the compiled connection holds floats
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"segments": [{"from": [[0.3, 0.0]], "to": [[0.0, 0.3]]}]}))
    res = _run_cli("monodromy", "--n", "3", "--degree", "1,1", "--spec", spec, "--path", str(path))
    _assert_one_line_error(res, 1, "error: QC2 entry (0, 0) has a coefficient outside the float range")


def test_cli_monodromy_overflow_at_a_finite_point_is_one_line_error(tmp_path):
    # q2 = 1e160 is finite, but an exact entry's q2^2 is not
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"segments": [{"from": [1e160, 0.5], "to": [0.3, 0.5]}]}))
    res = _run_cli(
        "monodromy", "--n", "4", "--degree", "1,1,1", "--spec", "x1=0,x2=1/3,x3=5/7,x4=3/2,h=1", "--path", str(path)
    )
    _assert_one_line_error(res, 1, "error: the connection overflows at q = [(1e+160+0j), (0.5+0j)]")


def test_cli_monodromy_transport_overflow_is_one_line_error(tmp_path):
    # every coefficient is finite, but kappa = 1e300 overflows the integrator
    pts = [0.3 * cmath.exp(2j * math.pi * k / 3) for k in range(4)]
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"segments": [
        {"from": [[a.real, a.imag]], "to": [[b.real, b.imag]]} for a, b in zip(pts, pts[1:])
    ]}))
    res = _run_cli("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--kappa", "1e300", "--path", str(loop))
    _assert_one_line_error(res, 1, "error: the transport overflows the float range on segment 1")


def test_cli_monodromy_path_through_a_pole_is_one_line_error(tmp_path):
    # both endpoints are regular, but q2 runs from -1/2 through the pole
    # q2 = -1 of the connection on its way to -2
    path = tmp_path / "through.json"
    path.write_text(json.dumps({"segments": [
        {"from": [[-0.5, 0]], "to": [[-2, 0]]},
        {"from": [[-2, 0]], "to": [[-0.5, 0]]},
    ]}))
    res = _run_cli("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--path", str(path))
    _assert_one_line_error(
        res, 1, "error: the path passes through a pole of the connection on segment 1: q2 + 1 vanishes near q = [(-0.99999"
    )


def test_cli_outputs_identical_across_hash_seeds(tmp_path):
    # a three-segment loop of q2 around 0, the fewest segments a loop takes
    pts = [0.3 * cmath.exp(2j * math.pi * k / 3) for k in range(4)]
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"segments": [
        {"from": [[a.real, a.imag]], "to": [[b.real, b.imag]]} for a, b in zip(pts, pts[1:])
    ]}))
    runs = [
        ("qc-check", "--n", "3", "--degree", "1,1"),
        ("global-verify", "--n", "2", "--max-degree", "2"),
        ("ktheory", "--n", "3", "--max-degree", "2"),
        # the generic field path: heuristic gcd and exact division
        ("whittaker", "--n", "3", "--degree", "1,1"),
        # the compiled connection: float sums in a fixed order
        ("monodromy", "--n", "3", "--degree", "1,1", "--spec", _SPEC, "--path", str(loop)),
        # the hinted field path: dens rebuilt from their factor multisets
        ("verify-gl", "--n", "3", "--max-degree", "2"),
    ]
    outputs = {}
    for seed in ("0", "12345"):
        out_dir = tmp_path / seed
        out_dir.mkdir()
        for idx, argv in enumerate(runs):
            res = _run_cli(*argv, "--out", str(out_dir / f"r{idx}.json"), PYTHONHASHSEED=seed)
            assert res.returncode == 0, res.stderr
            outputs[(seed, idx, "stdout")] = res.stdout
        for path in sorted(out_dir.iterdir()):
            outputs[(seed, path.name)] = path.read_bytes()
    files = sorted(key[1] for key in outputs if key[0] == "0" and len(key) == 2)
    assert files == ["r0.json", "r1.json", "r2.json", "r2.json.table", "r3.json", "r3.json.component", "r4.json", "r5.json"]
    for key in [k for k in outputs if k[0] == "0"]:
        assert outputs[key] == outputs[("12345",) + key[1:]], key
