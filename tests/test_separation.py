"""Every joint-spectrum separation verdict against a brute-force oracle.

For n <= 4 and |d| <= 3 the oracle lists each spectrum's generators by
its own rules, evaluates the closed-form eigenvalues at every point and
compares every pair of points.  The package's verdict (vacuous,
separated) and its first equal pair must be the oracle's.
"""

import itertools

import pytest

from vermalab.globalverma import eig_global_chern
from vermalab.gtalg import chern_generators, eig_chern, eig_det_bundle, eig_tilde_casimir, generator_set
from vermalab.ktheory import det_class_generators, eig_det_class_K
from vermalab.patterns import (
    GlobalFixedPoint,
    degree_vectors_upto,
    enumerate_global_fixed_points,
    enumerate_patterns,
    joint_spectrum,
    separation,
)

LOCAL = ("tildeCas", "detBundles", "detBundlesAll", "chern")
WINDOW = [(n, d) for n in (2, 3, 4) for d in degree_vectors_upto(n, 3)]


def _package_verdict(kind, n, d):
    if kind == "global":
        spectrum = joint_spectrum(enumerate_global_fixed_points(n, d), chern_generators(n, eig_global_chern))
        return separation(spectrum, key=GlobalFixedPoint.sort_key)
    gens = det_class_generators(d) if kind == "K" else generator_set(n, d, kind)
    return separation(joint_spectrum(enumerate_patterns(n, d), gens))


def _oracle_funcs(kind, n, d):
    """Eigenvalue functions of one spectrum, listed without the package's
    generator sets."""
    det_ks = [k for k in range(2, n) if d[k - 1] != 0 and d[k - 2] != 0]
    if kind == "tildeCas":
        return [lambda p, k=k: eig_tilde_casimir(p, k) for k in range(2, n)]
    if kind == "detBundles":
        return [lambda p, k=k: eig_det_bundle(p, k) for k in det_ks]
    if kind == "detBundlesAll":
        return [lambda p, k=k: eig_det_bundle(p, k) for k in range(1, n)]
    if kind == "K":
        return [lambda p, k=k: eig_det_class_K(p, k) for k in det_ks]
    chern = eig_global_chern if kind == "global" else eig_chern
    return [
        lambda p, i=i, j=j, part=part: chern(p, i, j, part)
        for i in range(1, n)
        for j in range(1, i + 1)
        for part in ("diag", "kunneth")
    ]


def _oracle_values(kind, n, d):
    """Sorted points and their value tuples.  A global value is the
    sigma-substitution of its value at sigma = identity, so each (p0, pinf)
    pair is evaluated once."""
    funcs = _oracle_funcs(kind, n, d)
    if kind != "global":
        points = sorted(enumerate_patterns(n, d), key=lambda p: p.flat)
        return points, funcs, [tuple(f(p) for f in funcs) for p in points]
    identity = tuple(range(1, n + 1))
    base = {}
    points = sorted(enumerate_global_fixed_points(n, d), key=GlobalFixedPoint.sort_key)
    values = []
    for fp in points:
        pair = (fp.p0, fp.pinf)
        if pair not in base:
            base[pair] = tuple(f(GlobalFixedPoint(identity, *pair)) for f in funcs)
        values.append(tuple(v.permute_x(fp.sigma) for v in base[pair]))
    return points, funcs, values


def _oracle_verdict(kind, n, d):
    points, funcs, values = _oracle_values(kind, n, d)
    if len(points) <= 1 or not funcs:
        return True, True, None
    for a, b in itertools.combinations(range(len(points)), 2):
        if values[a] == values[b]:
            return False, False, (points[a], points[b])
    return False, True, None


@pytest.mark.parametrize("kind", LOCAL + ("K", "global"))
def test_separation_verdicts_match_pairwise_oracle(kind):
    seen = set()
    for n, d in WINDOW:
        want = _oracle_verdict(kind, n, d)
        assert _package_verdict(kind, n, d) == want, (kind, n, d)
        seen.add(want[:2])
    # the window reaches a nonvacuous verdict for every spectrum
    assert (False, True) in seen, kind
