"""Microbenchmark of the unbuilt zero test of relation blocks.

Run from the root of a checkout (it is outside the test suite's
``testpaths``, so the default ``pytest`` run does not collect it):

    PYTHONPATH=src python -m pytest microbench/test_block_zero.py --benchmark-json=OUT.json

The operands are the defect terms that the gl-relations workload
(``verify-gl --n 4``) decides: ``gl_relation_defect`` of every relation
[E_ab, E_cd], (c, d) >= (a, b), on every degree of |d| = 3, 1360 block
sums, all zero.  One benchmark decides each with ``first_nonzero``, the
other builds each with ``materialise`` and tests ``is_zero``, as the
relation checks did before they decided blocks unbuilt.

Building a sum may read a hinted entry's den and keep it, so a block timed
twice could cost less the second time.  Each round therefore gets fresh
copies, ``x * 1``, of every entry of the blocks the sums share (set-up
that is not timed), with each block copied once per round, as the
workload shares its cached blocks.  On a checkout without ``BlockSum``
the materialising benchmark builds the same sums with the matrix
operations, in the same order, and the deciding one is skipped.
"""

import pytest

from vermalab import linalg
from vermalab.linalg import SparseMatrix
from vermalab.patterns import degree_vectors_upto, shift_degree
from vermalab.verma import VermaContext, gl_relation_defect, root_shift

N = 4
SIZE = 3
ROUNDS = 10
HAS_BLOCK_SUM = hasattr(linalg, "BlockSum")


def _defect_terms(ctx, ab, cd, d) -> list:
    """The (sign, left, right | None) terms of the defect, in the order the
    checks fold them."""
    if HAS_BLOCK_SUM:
        return gl_relation_defect(ctx, ab, cd, d).terms
    s_ab, s_cd = root_shift(N, *ab), root_shift(N, *cd)
    terms = [
        (1, ctx.eij_block(*ab, shift_degree(d, s_cd)), ctx.eij_block(*cd, d)),
        (-1, ctx.eij_block(*cd, shift_degree(d, s_ab)), ctx.eij_block(*ab, d)),
    ]
    if ab[1] == cd[0]:
        terms.append((-1, ctx.eij_block(ab[0], cd[1], d), None))
    if cd[1] == ab[0]:
        terms.append((1, ctx.eij_block(cd[0], ab[1], d), None))
    return terms


@pytest.fixture(scope="module")
def sums() -> list:
    ctx = VermaContext.get(N)
    units = [(a, b) for a in range(1, N + 1) for b in range(1, N + 1)]
    degrees = [d for d in degree_vectors_upto(N, SIZE) if sum(d) == SIZE]
    return [_defect_terms(ctx, ab, cd, d) for ab in units for cd in units if cd >= ab for d in degrees]


def _fresh(sums: list) -> tuple:
    """pedantic set-up: the sums over equal copies of their blocks."""
    copies: dict[int, SparseMatrix] = {}

    def copy(block):
        if block is None:
            return None
        got = copies.get(id(block))
        if got is None:
            got = SparseMatrix(block.rows, block.cols, block.ring, {k: v * 1 for k, v in block.entries.items()})
            copies[id(block)] = got
        return got

    return ([[(s, copy(left), copy(right)) for s, left, right in terms] for terms in sums],), {}


def _materialise(terms):
    acc = None
    for sign, left, right in terms:
        block = left if right is None else left @ right
        acc = (block if sign > 0 else -block) if acc is None else (acc + block if sign > 0 else acc - block)
    return acc


def test_operands_are_zero_defects(sums):
    assert len(sums) == 1360
    assert all(_materialise(terms).is_zero() for terms in sums)
    if HAS_BLOCK_SUM:
        assert all(linalg.BlockSum(terms).first_nonzero() is None for terms in sums)


def test_decide_unbuilt(benchmark, sums):
    if not HAS_BLOCK_SUM:
        pytest.skip("no BlockSum in this checkout")
    block_sum = linalg.BlockSum
    got = benchmark.pedantic(
        lambda fresh: [block_sum(terms).first_nonzero() for terms in fresh], setup=lambda: _fresh(sums), rounds=ROUNDS
    )
    assert not any(got)


def test_materialise_then_is_zero(benchmark, sums):
    got = benchmark.pedantic(
        lambda fresh: [_materialise(terms).is_zero() for terms in fresh], setup=lambda: _fresh(sums), rounds=ROUNDS
    )
    assert all(got)
