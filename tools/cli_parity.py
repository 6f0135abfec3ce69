"""Compare the command line of two checkouts of verma-lab, byte for byte.

    python tools/cli_parity.py PARENT CHANGE

Each checkout runs a fixed matrix of ``python -m vermalab.cli`` calls in
a fresh temporary directory, with ``PYTHONPATH=<checkout>/src``.  The
matrix covers every subcommand, json and csv reports, every side file
(``.table``, ``.component``), monodromy on a generated loop, and the
documented one-line error cases.  For every call the exit code, stdout
and stderr (without its ``elapsed:`` line) are compared, and so is every
file the matrix leaves in the directory.  Prints one line per
difference and exits 1 if there is any, 0 otherwise.  The two checkouts
run side by side, one process each.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

SPEC = "x1=0,x2=1,x3=2,h=1"
SPEC4 = "x1=0,x2=1/3,x3=5/7,x4=3/2,h=1"


def _loop(center, which, radius=0.3, pieces=3):
    """A loop of coordinate ``which`` around 0, the others held at ``center``."""
    pts = []
    for k in range(pieces + 1):
        q = list(center)
        q[which] = radius * cmath.exp(2j * math.pi * k / pieces)
        pts.append([[z.real, z.imag] for z in q])
    return {"segments": [{"from": a, "to": b} for a, b in zip(pts, pts[1:])]}


INPUTS = {
    "loop3.json": _loop([0.3], 0),
    "loop4.json": _loop([0.3, 0.5], 0),
    "pole_endpoint.json": {"segments": [{"from": [[-1, 0]], "to": [[0, 1]]}, {"from": [[0, 1]], "to": [[-1, 0]]}]},
    "pole_between.json": {"segments": [{"from": [[-0.5, 0]], "to": [[-2, 0]]}, {"from": [[-2, 0]], "to": [[-0.5, 0]]}]},
    "far.json": {"segments": [{"from": [1e160, 0.5], "to": [0.3, 0.5]}]},
    "open.json": {"segments": [{"from": [[0.3, 0.0]], "to": [[0.0, 0.3]]}]},
    "empty.json": {"segments": []},
}

MONO3 = ["monodromy", "--n", "3", "--degree", "1,1", "--spec", SPEC]

# name -> argv; "{root}" is the checkout
MATRIX = {
    "patterns": ["patterns", "--n", "3", "--degree", "1,1"],
    "patterns-global": ["patterns", "--n", "3", "--degree", "1,1", "--global", "--out", "patterns_global.json"],
    "verify-gl": ["verify-gl", "--n", "3", "--max-degree", "2", "--out", "gl.json"],
    "verify-gl-csv": ["verify-gl", "--n", "2", "--max-degree", "3", "--format", "csv", "--out", "gl.csv"],
    "verify-gl-n4": ["verify-gl", "--n", "4", "--max-degree", "3", "--out", "gl4.json"],
    **{
        f"gt-spectrum-{gens}": ["gt-spectrum", "--n", "3", "--degree", "2,1", "--generators", gens, "--out", f"gt_{gens}.json"]
        for gens in ("tildeCas", "detBundles", "detBundlesAll", "chern")
    },
    "gt-spectrum-csv": ["gt-spectrum", "--n", "3", "--degree", "1,1", "--format", "csv", "--out", "gt.csv"],
    "whittaker": ["whittaker", "--n", "3", "--degree", "2,1", "--out", "wh.json"],
    "whittaker-csv": ["whittaker", "--n", "4", "--degree", "1,1,1", "--format", "csv", "--out", "wh.csv"],
    "ring": ["ring", "--n", "3", "--degree", "1,1", "--spec", SPEC, "--out", "ring.json"],
    "ring-generic": ["ring", "--n", "3", "--degree", "1,1"],
    "qc-check-n3-golden": ["qc-check", "--n", "3", "--degree", "1,1", "--golden", "{root}/goldens/qc_n3_d1_1.json"],
    "qc-check-n4": ["qc-check", "--n", "4", "--degree", "1,1,1", "--out", "qc4.json"],
    "qc-check-n5-csv": ["qc-check", "--n", "5", "--degree", "1,1,0,0", "--format", "csv", "--out", "qc5.csv"],
    "flatness": ["flatness", "--n", "4", "--degree", "1,1,0", "--out", "flat.json"],
    "monodromy-n3": [*MONO3, "--path", "loop3.json", "--out", "mono3.json"],
    "monodromy-n4": ["monodromy", "--n", "4", "--degree", "1,1,0", "--spec", SPEC4, "--kappa", "-1/3",
                     "--path", "loop4.json", "--out", "mono4.json"],
    "monodromy-open": [*MONO3, "--path", "open.json"],
    "global-verify-n2": ["global-verify", "--n", "2", "--max-degree", "2", "--out", "global2.json"],
    "global-verify-n3-csv": ["global-verify", "--n", "3", "--max-degree", "1", "--format", "csv", "--out", "global3.csv"],
    "global-verify-n3": ["global-verify", "--n", "3", "--max-degree", "2", "--out", "global3.json"],
    "global-verify-n3-d3": ["global-verify", "--n", "3", "--max-degree", "3", "--out", "global3_d3.json"],
    "ktheory": ["ktheory", "--n", "3", "--max-degree", "2", "--out", "kt.json"],
    "ktheory-csv": ["ktheory", "--n", "2", "--format", "csv", "--out", "kt.csv"],
    # documented one-line errors
    "usage-n": ["verify-gl", "--n", "1", "--max-degree", "1"],
    "usage-degree": ["whittaker", "--n", "3", "--degree", "1,x"],
    "usage-flag": ["verify-gl", "--n", "2", "--max-degree", "1", "--spec", SPEC],
    "usage-out-dir": ["verify-gl", "--n", "2", "--max-degree", "1", "--out", "."],
    "usage-spec-name": ["ring", "--n", "3", "--degree", "1,1", "--spec", "q2=1"],
    "usage-kappa": [*MONO3, "--path", "loop3.json", "--kappa", "1e400"],
    "usage-tolerance": [*MONO3, "--path", "loop3.json", "--tolerance", "nan"],
    "usage-path-missing": [*MONO3, "--path", "missing.json"],
    "usage-path-empty": [*MONO3, "--path", "empty.json"],
    "error-golden-missing": ["patterns", "--n", "2", "--degree", "1", "--golden", "missing_golden.json"],
    "error-spec-missing": ["monodromy", "--n", "3", "--degree", "1,1", "--spec", "x1=0,h=1", "--path", "loop3.json"],
    "error-coefficient-overflow": ["monodromy", "--n", "3", "--degree", "1,1", "--spec", "x1=0,x2=1e400,x3=2,h=1",
                                   "--path", "loop3.json"],
    "error-pole-endpoint": [*MONO3, "--path", "pole_endpoint.json"],
    "error-overflow-point": ["monodromy", "--n", "4", "--degree", "1,1,1", "--spec", SPEC4, "--path", "far.json"],
    "error-pole-between": [*MONO3, "--path", "pole_between.json"],
    "error-transport-overflow": [*MONO3, "--path", "loop3.json", "--kappa", "1e300"],
}


def run_matrix(root: str) -> tuple[dict, dict]:
    """(per-call results, files left in the directory) for one checkout."""
    root = os.path.abspath(root)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    results = {}
    with tempfile.TemporaryDirectory(prefix="cli_parity_") as work:
        for name, payload in INPUTS.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        for name, argv in MATRIX.items():
            argv = [a.replace("{root}", root) for a in argv]
            res = subprocess.run(
                [sys.executable, "-m", "vermalab.cli", *argv], cwd=work, env=env, capture_output=True
            )
            stderr = b"".join(line for line in res.stderr.splitlines(True) if not line.startswith(b"elapsed:"))
            results[name] = {"exit": res.returncode, "stdout": res.stdout, "stderr": stderr}
        files = {}
        for name in sorted(os.listdir(work)):
            with open(os.path.join(work, name), "rb") as fh:
                files[name] = fh.read()
    return results, files


def _show(data: bytes) -> str:
    text = data.decode("utf-8", "replace")
    return repr(text if len(text) <= 200 else text[:200] + "...")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/cli_parity.py PARENT CHANGE", file=sys.stderr)
        return 2
    with ThreadPoolExecutor(max_workers=2) as pool:
        (res_a, files_a), (res_b, files_b) = pool.map(run_matrix, argv)
    diffs = []
    for name in MATRIX:
        for field in ("exit", "stdout", "stderr"):
            a, b = res_a[name][field], res_b[name][field]
            if a != b:
                shown = (a, b) if field == "exit" else (_show(a), _show(b))
                diffs.append(f"{name}: {field} differs: {shown[0]} vs {shown[1]}")
    for name in sorted(set(files_a) | set(files_b)):
        if files_a.get(name) != files_b.get(name):
            diffs.append(f"file {name}: differs" if name in files_a and name in files_b else f"file {name}: only in one")
    for line in diffs:
        print(line)
    print(f"{len(MATRIX)} calls, {len(set(files_a) | set(files_b))} files: {len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
