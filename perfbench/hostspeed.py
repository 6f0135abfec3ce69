"""Measure how fast the host runs Python while a run is being timed.

The benchmark shares a few cores of a host with other tenants.  The speed
at which a core runs Python drifts by up to half within seconds, so the
same cold run of ``qc-check`` takes anywhere from 2.7 s to 4.8 s.  A fixed
probe kernel, timed while the program runs, tracks that drift:

* ``Sampler`` runs the probe from a ``SIGALRM`` handler every
  ``INTERVAL_S`` while the CLI runs, in the same process and thread, and
  keeps the time the probes took;
* ``seconds()`` times ``n`` probes back to back, for a process that has no
  CLI run to sample (set-up only).

``run.py`` reports a run's time as ``(wall - probe time) * REFERENCE_S /
mean probe time``: the run's own seconds at the reference speed.  A change
that makes the program faster or slower moves that figure in proportion;
a change in the host's speed mostly does not.

The probe multiplies two sparse polynomials stored as dicts keyed by
exponent tuples with ``int`` coefficients, which is what the program does
most, but it does not import the program: a change to ``src/`` cannot
change it.  It takes about 1 ms and allocates a few KiB.
"""

import gc
import signal
import time

REFERENCE_S = 0.001  # about one probe's time on the 2-vCPU x86 host the benchmark was written on
INTERVAL_S = 0.05  # between probes while a run is sampled: about 2% of its time goes to probes


def _poly(nterms: int, nvars: int, seed: int) -> dict:
    out = {}
    x = seed
    for _ in range(nterms):
        x = (x * 1103515245 + 12345) % 2147483648
        e = tuple((x >> (3 * i)) % 4 for i in range(nvars))
        out[e] = out.get(e, 0) + (x % 97) - 48
    return out


def _mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


_A = _poly(12, 8, 1)
_B = _poly(12, 8, 2)


def probe() -> float:
    """Wall time of one fixed piece of work.

    The collector is off while it runs: a collection started by the
    probe's allocations would scan the program's heap and charge that to
    the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(4):
            _mul(_A, _B)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def seconds(n: int) -> float:
    """Mean time of ``n`` probes run back to back."""
    probe()  # warm the code path
    return sum(probe() for _ in range(n)) / n


class Sampler:
    """Run ``probe()`` every ``INTERVAL_S`` of wall time inside the block."""

    def __init__(self):
        self.count = 0
        self.total_s = 0.0

    def _tick(self, signum, frame):
        self.total_s += probe()
        self.count += 1

    def __enter__(self):
        probe()  # warm the code path
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
