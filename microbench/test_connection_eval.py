"""Microbenchmark of one evaluation of the monodromy connection's generator.

Run from the root of a checkout (it is outside the test suite's
``testpaths``, so the default ``pytest`` run does not collect it):

    PYTHONPATH=src python -m pytest microbench/test_connection_eval.py --benchmark-json=OUT.json

The connection is the one of the monodromy-transport benchmark workload
(``monodromy --n 4 --degree 1,1,1 --spec x1=0,x2=1/3,x3=5/7,x4=3/2,h=1
--kappa 1/2``), built before timing starts.  Each round evaluates the
generator sum_k -kappa * Delta_k * QC_k(q) at eight fixed points of the
first quarter turn of that workload's loop (phase 0):

* ``test_exact_generator`` sums the exact entrywise ``matrix_at`` blocks;
* ``test_rhs_generator`` calls the integrator's right-hand side ``_rhs``
  on the identity, which is the generator in whatever form the checkout
  evaluates it.

Point ``PYTHONPATH`` at another checkout's ``src`` to time its ``_rhs``
on the same points.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from vermalab.shiftarg import ConnectionSpec, Segment, _rhs

KAPPA = Fraction(1, 2)
SPEC = {"x1": 0, "x2": Fraction(1, 3), "x3": Fraction(5, 7), "x4": Fraction(3, 2), "h": 1}
PHASE = 0.7 + 18 * math.pi / 16  # base phase 0 of the workload's loop
TIMES = [i / 8 for i in range(8)]


@pytest.fixture(scope="module")
def connection():
    conn = ConnectionSpec(4, (1, 1, 1), KAPPA, SPEC)
    start = [0.3 * cmath.exp(1j * PHASE), 0.5 * cmath.exp(1j * PHASE)]
    end = [0.3 * cmath.exp(1j * (PHASE + math.pi / 2)), 0.5 * cmath.exp(1j * (PHASE + math.pi / 2))]
    return conn, Segment(start, end)


def _exact(conn, seg, t):
    qmap = dict(zip(conn.qnames, seg.point(t)))
    return sum(-float(KAPPA) * delta * conn.matrix_at(qmap, k) for delta, k in zip(seg.deltas, range(2, conn.n)))


def test_exact_generator(benchmark, connection):
    conn, seg = connection
    benchmark(lambda: [_exact(conn, seg, t) for t in TIMES])


def test_rhs_generator(benchmark, connection):
    conn, seg = connection
    eye = np.eye(conn.dim, dtype=complex)
    got = benchmark(lambda: [_rhs(conn, seg, t, eye) for t in TIMES])
    for t, a in zip(TIMES, got):
        assert np.allclose(a, _exact(conn, seg, t), rtol=1e-10, atol=1e-12)
