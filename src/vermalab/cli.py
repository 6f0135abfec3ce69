"""Command-line front end: verma-lab <subcommand> [flags].

Exit codes: 0 when no report item failed (findings never fail a run),
1 when a check failed or an internal error occurred, 2 for usage errors.
File outputs are deterministic: UTF-8, sorted keys, newline terminated,
no timestamps.  Timings are printed to stderr only.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import suites
from .field import VermalabError
from .report import VerificationReport, golden_diff, report_text, write_text

SUBCOMMANDS = (
    "patterns",
    "verify-gl",
    "gt-spectrum",
    "whittaker",
    "ring",
    "qc-check",
    "flatness",
    "monodromy",
    "global-verify",
    "ktheory",
)

# subcommands whose file is data rather than the report; they take no --format
DATA_COMMANDS = ("patterns", "ring", "monodromy")


class UsageError(VermalabError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises every argparse error as a UsageError, reported on one line.

    A word that is a negative rational or float (``-1/2``, ``-.5``,
    ``-1e-3``) is an option value, as ``-2`` is by default, so
    ``--kappa -1/2`` means ``--kappa=-1/2``.  No flag looks like one.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)$")

    def error(self, message):
        raise UsageError(message)


def _fraction(flag: str, text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag} needs a rational number, got {text!r}") from None


def _parse_spec(text: str, n: int) -> dict[str, Fraction]:
    """The rational point of a --spec value; it may only name x1..xn and h."""
    names = [f"x{i}" for i in range(1, n + 1)] + ["h"]
    out = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise UsageError(f"bad --spec entry {chunk!r}: needs name=value")
        name, value = (s.strip() for s in chunk.split("=", 1))
        if name not in names:
            raise UsageError(f"--spec names {name!r}, which is not one of {', '.join(names)}")
        out[name] = _fraction(f"--spec {name}", value)
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="verma-lab",
        description="exact operator calculus on the graded module and its verification suites",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--n", type=int, required=True, help="rank")
        if name in ("verify-gl", "global-verify"):
            sp.add_argument("--max-degree", type=int, required=True, help="bound on |d|")
        elif name == "ktheory":
            sp.add_argument("--max-degree", type=int, default=3, help="bound on |d|")
        else:
            sp.add_argument("--degree", type=str, required=True, help="comma separated degree vector")
        if name not in DATA_COMMANDS:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", type=str, default=None, help="output file path")
        if name in ("ring", "monodromy"):
            sp.add_argument(
                "--spec", type=str, required=name == "monodromy", help="x1=0,x2=1,... rational specialization"
            )
        sp.add_argument("--golden", type=str, default=None, help="golden file to compare the produced file with")
        sp.add_argument("--bless", action="store_true", help="write the produced file to the --golden file")
        if name == "patterns":
            sp.add_argument("--global", dest="global_points", action="store_true")
        if name == "gt-spectrum":
            sp.add_argument(
                "--generators",
                choices=("tildeCas", "detBundles", "detBundlesAll", "chern"),
                default="tildeCas",
            )
        if name == "monodromy":
            sp.add_argument("--path", type=str, required=True, help="JSON file with loop segments")
            sp.add_argument("--kappa", type=str, default="1/2")
            sp.add_argument("--tolerance", type=float, default=1e-6)
    return ap


def _require_degree(args) -> tuple[int, ...]:
    try:
        d = suites._tuple_degree(args.degree)
    except ValueError:
        raise UsageError(f"--degree needs comma separated integers, got {args.degree!r}") from None
    if len(d) != args.n - 1 or any(c < 0 for c in d):
        raise UsageError(
            f"--degree needs {args.n - 1} nonnegative entries for --n {args.n}, got {args.degree!r}"
        )
    return d


def run(argv: list[str]) -> int:
    t0 = time.time()
    try:
        args = build_parser().parse_args(argv)
        exit_code = _emit(args, _dispatch(args))
    except SystemExit as err:  # --help, after printing the help text
        return err.code
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except VermalabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(f"elapsed: {time.time() - t0:.2f}s", file=sys.stderr)
    return exit_code


def _emit(args, result: tuple) -> int:
    """Print and write one run's result, compare with the golden; the exit code.

    The result is (report or None, file text).  The file is the report in
    --format, or for DATA_COMMANDS a data file, which goes to stdout when
    there is no --out.
    """
    report, text = result
    exit_code = 0
    if report is not None:
        print(report.render_text())
        if not report.ok():
            exit_code = 1
    if args.out:
        write_text(args.out, text)
    elif args.command in DATA_COMMANDS:
        sys.stdout.write(text)
    if args.golden:
        golden_dir, name = os.path.split(args.golden)
        diff = golden_diff(text, golden_dir, name, bless=args.bless)
        print(f"golden: {diff['status']}", file=sys.stderr)
        if diff["status"] == "mismatch":
            for mm in diff["mismatches"]:
                print(f"  line {mm['line']}: produced {mm['produced']!r} vs golden {mm['golden']!r}", file=sys.stderr)
            exit_code = 1
    return exit_code


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _report(args, rep: VerificationReport) -> tuple:
    return rep, report_text(rep, args.format)


def _dispatch(args) -> tuple:
    cmd = args.command
    if args.n < 2:
        raise UsageError(f"--n must be at least 2, got {args.n}")
    if getattr(args, "max_degree", 0) < 0:
        raise UsageError(f"--max-degree must be nonnegative, got {args.max_degree}")
    for flag, path in (("--out", args.out), ("--golden", args.golden)):
        if path and (os.path.isdir(path) or not os.path.basename(path)):
            raise UsageError(f"{flag} names a file, got the directory {path!r}")
    if not 0 < getattr(args, "tolerance", 1) < math.inf:
        raise UsageError(f"--tolerance must be finite and positive, got {args.tolerance}")
    if cmd == "patterns":
        listing = suites.patterns_listing(
            args.n, _require_degree(args), include_global=args.global_points
        )
        return None, _json_text(listing)
    if cmd == "verify-gl":
        return _report(args, suites.suite_verify_gl(args.n, args.max_degree))
    if cmd == "gt-spectrum":
        rep, table = suites.suite_gt_spectrum(args.n, _require_degree(args), args.generators)
        if args.out:
            extra = suites.spectrum_csv(table) if args.format == "csv" else _json_text(table)
            write_text(args.out + ".table", extra)
        return _report(args, rep)
    if cmd == "whittaker":
        rep, comp = suites.suite_whittaker(args.n, _require_degree(args))
        if args.out:
            write_text(args.out + ".component", _json_text(comp))
        return _report(args, rep)
    if cmd == "ring":
        spec = _parse_spec(args.spec, args.n) if args.spec is not None else None
        rep, table = suites.suite_ring(args.n, _require_degree(args), spec)
        return rep, _json_text(table)
    if cmd == "qc-check":
        return _report(args, suites.suite_qc(args.n, _require_degree(args)))
    if cmd == "flatness":
        return _report(args, suites.suite_flatness(args.n, _require_degree(args)))
    if cmd == "monodromy":
        spec = _parse_spec(args.spec, args.n)
        segments = _load_segments(args.path)
        points = [seg[end] for seg in segments for end in ("from", "to")]
        if any(len(point) != args.n - 2 for point in points):
            raise UsageError(f"path file {args.path}: every point needs n-2 = {args.n - 2} q coordinates")
        if not all(cmath.isfinite(z) for point in points for z in point):
            raise UsageError(f"path file {args.path}: every q coordinate must be finite")
        degree = _require_degree(args)
        kappa = _fraction("--kappa", args.kappa)
        try:
            float(kappa)
        except OverflowError:
            raise UsageError(f"--kappa is outside the float range, got {args.kappa!r}") from None
        rep, out = suites.suite_monodromy(
            args.n,
            degree,
            spec,
            kappa,
            segments,
            tolerance=args.tolerance,
        )
        return rep, _json_text(out)
    if cmd == "global-verify":
        return _report(args, suites.suite_global(args.n, args.max_degree))
    if cmd == "ktheory":
        rep, table = suites.suite_ktheory(args.n, args.max_degree)
        if args.out:
            extra = suites.ktheory_csv(table) if args.format == "csv" else _json_text(table)
            write_text(args.out + ".table", extra)
        return _report(args, rep)
    raise UsageError(f"unknown subcommand {cmd}")


def _load_segments(path: str) -> list[dict]:
    """The segments of a monodromy path file; a missing or malformed file
    is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        segments = payload["segments"] if isinstance(payload, dict) else payload
        segments = [_coerce_segment(s) for s in segments]
    except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
        raise UsageError(f"cannot read path file {path}: {type(err).__name__}: {err}") from None
    if not segments:
        raise UsageError(f"path file {path} has no segments")
    return segments


def _coerce_segment(seg: dict) -> dict:
    def pt(values):
        out = []
        for v in values:
            if isinstance(v, (list, tuple)):
                out.append(complex(v[0], v[1]))
            else:
                out.append(complex(v))
        return out

    return {"from": pt(seg["from"]), "to": pt(seg["to"])}


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
