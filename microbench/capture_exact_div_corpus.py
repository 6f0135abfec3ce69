"""Capture real ``exact_div`` and ``poly_gcd`` operands from two CLI workloads.

Run from the root of a checkout:

    PYTHONPATH=src python3 microbench/capture_exact_div_corpus.py DIV_OUT.json GCD_OUT.json

It runs ``whittaker --n 4 --degree 3,2,1`` (the generic gcd and division
path) and ``qc-check --n 5 --degree 1,1,0,0`` (the hinted path in the
quantum ring) in this process, records every distinct (dividend, divisor)
pair that reaches ``ring.exact_div``, and keeps a deterministic sample of
them: for each workload and each outcome, the ``LARGEST`` pairs with the
most dividend terms (distinct dividends), and ``SPREAD`` more taken evenly,
in first-call order, from the pairs that hold at most ``SPREAD_SIZE``
exponents and coefficient digits (the gcd's integer images can have
coefficients of thousands of digits), which keeps the file under 200 KB.

The same whittaker run also times every distinct top-level ``poly_gcd``
pair (one not made by ``poly_gcd`` itself) and keeps the ``GCD_HEAVIEST``
slowest, in first-call order, for the second file.  Their time is well
separated from the rest (0.24 s and up against 0.15 s and down on a
2-vCPU x86 host), so repeated runs pick the same four.

Both outputs name the ring and store each polynomial as
``[exponents, coefficient]`` terms in graded-lex descending order.

The committed ``tests/data/exact_div_corpus.json`` is a fixed snapshot of
an earlier capture, not something this script reproduces: later changes
to the field layer (cross-cancelled products, hinted denominators rebuilt
from their factors) moved which pairs reach ``exact_div``, so a new run
writes different qc-deformed cases.  The snapshot is kept byte for byte,
so that ``BENCH_ring_exact_div.json`` and the sympy corpus test stay
comparable; write a new capture to another path.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from vermalab import cli, field, ring

WORKLOADS = {
    "whittaker-solve": ["whittaker", "--n", "4", "--degree", "3,2,1"],
    "qc-deformed": ["qc-check", "--n", "5", "--degree", "1,1,0,0"],
}
LARGEST = 1
SPREAD = 24
SPREAD_SIZE = 1500
GCD_WORKLOAD = "whittaker-solve"
GCD_HEAVIEST = 4


def _capture(argv: list[str]) -> tuple[dict, dict]:
    """While the CLI runs argv: every distinct pair divided, in first-call
    order, mapped to whether the division succeeded, and every distinct
    top-level gcd pair mapped to the seconds of its first call."""
    divided: dict = {}
    gcds: dict = {}
    inner_div, inner_gcd = ring.exact_div, ring.poly_gcd
    depth = 0

    def recording_div(a, b):
        q = inner_div(a, b)
        divided.setdefault((a, b), q is not None)
        return q

    def recording_gcd(a, b):
        nonlocal depth
        depth += 1
        start = time.perf_counter()
        try:
            return inner_gcd(a, b)
        finally:
            depth -= 1
            if not depth:
                gcds.setdefault((a, b), time.perf_counter() - start)

    ring.exact_div = field.exact_div = recording_div
    ring.poly_gcd = field.poly_gcd = recording_gcd
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(argv)
    finally:
        ring.exact_div = field.exact_div = inner_div
        ring.poly_gcd = field.poly_gcd = inner_gcd
    return divided, gcds


def _sample(pairs: list) -> list:
    first = {}  # each dividend's first pair, so the largest are distinct
    for i, (a, _) in enumerate(pairs):
        first.setdefault(a, i)
    largest = sorted(first.values(), key=lambda i: (-len(pairs[i][0].terms), i))[:LARGEST]
    rest = [i for i in range(len(pairs)) if i not in largest and _size(pairs[i]) <= SPREAD_SIZE]
    stride = max(1, len(rest) // SPREAD)
    return [pairs[i] for i in sorted(largest + rest[::stride][:SPREAD])]


def _terms(p) -> list:
    return [[list(e), int(c)] for e, c in p.sorted_terms()]


def _size(pair) -> int:
    """Exponents plus (about) the decimal digits of the coefficients."""
    return sum(p.ring.nvars + abs(c).bit_length() * 3 // 10 + 1 for p in pair for c in p.terms.values())


def _write(path: str, argv: dict, cases: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"argv": argv, "cases": cases}, fh, separators=(",", ":"))
        fh.write("\n")


def main(div_path: str, gcd_path: str) -> int:
    div_cases, gcd_cases = [], []
    for name, argv in WORKLOADS.items():
        seen, gcds = _capture(argv)
        for divides in (True, False):
            pairs = [pair for pair, ok in seen.items() if ok is divides]
            for a, b in _sample(pairs):
                div_cases.append(
                    {"workload": name, "ring": list(a.ring.names), "divides": divides, "a": _terms(a), "b": _terms(b)}
                )
            print(f"{name}: {len(pairs)} distinct pairs with divides={divides}", file=sys.stderr)
        if name == GCD_WORKLOAD:
            order = list(gcds)
            heaviest = sorted(order, key=gcds.get, reverse=True)[:GCD_HEAVIEST]
            for a, b in sorted(heaviest, key=order.index):
                gcd_cases.append({"workload": name, "ring": list(a.ring.names), "a": _terms(a), "b": _terms(b)})
                print(f"{name}: gcd of {len(a.terms)} x {len(b.terms)} terms took {gcds[a, b]:.3f} s", file=sys.stderr)
    _write(div_path, WORKLOADS, div_cases)
    _write(gcd_path, {GCD_WORKLOAD: WORKLOADS[GCD_WORKLOAD]}, gcd_cases)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
