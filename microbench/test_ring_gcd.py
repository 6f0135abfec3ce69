"""Microbenchmark of ``ring.poly_gcd`` on real operands.

Run from the root of a checkout (it is outside the test suite's
``testpaths``, so the default ``pytest`` run does not collect it):

    PYTHONPATH=src python -m pytest microbench/test_ring_gcd.py --benchmark-json=OUT.json

Each round takes the gcd of every pair in ``tests/data/gcd_corpus.json``:
the slowest top-level ``poly_gcd`` pairs of the whittaker-solve workload,
written by ``microbench/capture_exact_div_corpus.py``.  The polynomials
are built before timing starts.  Each result must divide both operands;
its value is not pinned, since ``poly_gcd`` can miss a content factor
(see the ``GCD_DEFECT`` tests in ``tests/test_ring_sympy.py``).  Point
``PYTHONPATH`` at another checkout's ``src`` to time its ``poly_gcd`` on
the same corpus.
"""

import json
from pathlib import Path

from vermalab.ring import MultiPoly, PolyRing, exact_div, poly_gcd

CORPUS = json.loads((Path(__file__).parents[1] / "tests" / "data" / "gcd_corpus.json").read_text())["cases"]


def _pairs() -> list:
    out = []
    for case in CORPUS:
        ring = PolyRing(case["ring"])
        out.append(tuple(MultiPoly(ring, {tuple(e): c for e, c in case[key]}) for key in ("a", "b")))
    return out


def test_gcd_corpus(benchmark):
    pairs = _pairs()
    gcds = benchmark(lambda: [poly_gcd(a, b) for a, b in pairs])
    for (a, b), g in zip(pairs, gcds):
        assert exact_div(a, g) is not None and exact_div(b, g) is not None
