"""Capture real ``exact_div`` operands from two CLI workloads.

Run from the root of a checkout:

    PYTHONPATH=src python3 microbench/capture_exact_div_corpus.py tests/data/exact_div_corpus.json

It runs ``whittaker --n 4 --degree 3,2,1`` (the generic gcd and division
path) and ``qc-check --n 5 --degree 1,1,0,0`` (the hinted path in the
quantum ring) in this process, records every distinct (dividend, divisor)
pair that reaches ``ring.exact_div``, and keeps a deterministic sample of
them: for each workload and each outcome, the ``LARGEST`` pairs with the
most dividend terms (distinct dividends), and ``SPREAD`` more taken evenly,
in first-call order, from the pairs that hold at most ``SPREAD_SIZE``
exponents and coefficient digits (the gcd's integer images can have
coefficients of thousands of digits), which keeps the file under 200 KB.  The output names the ring and stores each polynomial
as ``[exponents, coefficient]`` terms in graded-lex descending order.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from vermalab import cli, field, ring

WORKLOADS = {
    "whittaker-solve": ["whittaker", "--n", "4", "--degree", "3,2,1"],
    "qc-deformed": ["qc-check", "--n", "5", "--degree", "1,1,0,0"],
}
LARGEST = 1
SPREAD = 24
SPREAD_SIZE = 1500


def _capture(argv: list[str]) -> dict:
    """Every distinct pair divided while the CLI runs argv, in first-call
    order, mapped to whether the division succeeded."""
    seen: dict = {}
    inner = ring.exact_div

    def recording(a, b):
        q = inner(a, b)
        seen.setdefault((a, b), q is not None)
        return q

    ring.exact_div = field.exact_div = recording
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(argv)
    finally:
        ring.exact_div = field.exact_div = inner
    return seen


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


def main(out_path: str) -> int:
    cases = []
    for name, argv in WORKLOADS.items():
        seen = _capture(argv)
        for divides in (True, False):
            pairs = [pair for pair, ok in seen.items() if ok is divides]
            for a, b in _sample(pairs):
                cases.append(
                    {"workload": name, "ring": list(a.ring.names), "divides": divides, "a": _terms(a), "b": _terms(b)}
                )
            print(f"{name}: {len(pairs)} distinct pairs with divides={divides}", file=sys.stderr)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"argv": WORKLOADS, "cases": cases}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
