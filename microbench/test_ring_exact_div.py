"""Microbenchmark of ``ring.exact_div`` on real operands.

Run from the root of a checkout (it is outside the test suite's
``testpaths``, so the default ``pytest`` run does not collect it):

    PYTHONPATH=src python -m pytest microbench/test_ring_exact_div.py --benchmark-json=OUT.json

Each benchmark divides every (dividend, divisor) pair that the corpus
``tests/data/exact_div_corpus.json`` holds for one workload, both the
pairs that divide and the ones that do not; the polynomials are built
before timing starts.  Point ``PYTHONPATH`` at another checkout's ``src``
to time its ``exact_div`` on the same corpus.
"""

import json
from pathlib import Path

import pytest

from vermalab.ring import MultiPoly, PolyRing, exact_div

CORPUS = json.loads((Path(__file__).parents[1] / "tests" / "data" / "exact_div_corpus.json").read_text())["cases"]
WORKLOADS = sorted({case["workload"] for case in CORPUS})


def _pairs(workload: str) -> list:
    out = []
    for case in CORPUS:
        if case["workload"] == workload:
            ring = PolyRing(case["ring"])
            out.append(tuple(MultiPoly(ring, {tuple(e): c for e, c in case[key]}) for key in ("a", "b")))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_div_corpus(benchmark, workload):
    pairs = _pairs(workload)

    def divide_all():
        return [exact_div(a, b) is not None for a, b in pairs]

    outcomes = benchmark(divide_all)
    assert outcomes == [case["divides"] for case in CORPUS if case["workload"] == workload]
