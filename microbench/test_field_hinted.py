"""Microbenchmark of the hinted ``FieldElem`` path on real operands.

Run from the root of a checkout (it is outside the test suite's
``testpaths``, so the default ``pytest`` run does not collect it):

    PYTHONPATH=src python -m pytest microbench/test_field_hinted.py --benchmark-json=OUT.json

The operands are the blocks that the gl-relations workload
(``verify-gl --n 4``) composes into E_ij E_ji, i < j, at the degree
(1, 1, 1) of |d| = 3: E_ji on V_d and E_ij on the degree it lands in,
all hinted.  They are built before timing starts.  One benchmark times
every entry product ``a * b`` of the six products ``E_ij @ E_ji``, one
every running sum ``s + a * b`` they form, in the order ``SparseMatrix``
forms them, and one the largest of the six block products.  Point
``PYTHONPATH`` at another checkout's ``src`` to time its field layer on
the same operands.

A hinted element may build its den on first read and keep it, so an
operand timed twice would cost less the second time.  The entry products
and sums therefore get fresh copies, ``x * 1``, before each round (set-up
that is not timed); the block product makes fresh entries on its own.
"""

from itertools import combinations

import pytest

from vermalab.patterns import shift_degree
from vermalab.verma import VermaContext, root_shift

N = 4
DEGREE = (1, 1, 1)
ROUNDS = 100


def _block_pairs() -> list:
    """(E_ij on the degree E_ji lands in, E_ji on V_d) for i < j."""
    ctx = VermaContext.get(N)
    out = []
    for i, j in combinations(range(1, N + 1), 2):
        mid = shift_degree(DEGREE, root_shift(N, j, i))
        out.append((ctx.eij_block(i, j, mid), ctx.eij_block(j, i, DEGREE)))
    return out


def _entry_operands(blocks: list) -> tuple[list, list]:
    """The (a, b) of every entry product and the (s, a * b) of every
    running sum of ``left @ right``, in ``SparseMatrix.__matmul__``'s order."""
    products, sums = [], []
    for left, right in blocks:
        by_row: dict = {}
        for (r, c), v in right.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict = {}
        for (r, k), a in left.entries.items():
            for c, b in by_row.get(k, ()):
                products.append((a, b))
                prod = a * b
                s = acc.get((r, c))
                if s is not None:
                    sums.append((s, prod))
                    prod = s + prod
                acc[(r, c)] = prod
        assert {key: v for key, v in acc.items() if v} == (left @ right).entries
    return products, sums


@pytest.fixture(scope="module")
def operands():
    blocks = _block_pairs()
    return (blocks, *_entry_operands(blocks))


def test_operands_are_hinted(operands):
    _, products, sums = operands
    assert len(products) == 102 and sums
    assert all(x.dfac is not None for pair in products + sums for x in pair)


def _fresh(pairs: list) -> tuple:
    """pedantic set-up: equal copies of the operand pairs, nothing cached."""
    return ([(a * 1, b * 1) for a, b in pairs],), {}


def test_field_mul_hinted(benchmark, operands):
    products = operands[1]
    benchmark.pedantic(lambda pairs: [a * b for a, b in pairs], setup=lambda: _fresh(products), rounds=ROUNDS)


def test_field_add_hinted(benchmark, operands):
    sums = operands[2]
    benchmark.pedantic(lambda pairs: [s + p for s, p in pairs], setup=lambda: _fresh(sums), rounds=ROUNDS)


def test_matmul_hinted(benchmark, operands):
    left, right = max(operands[0], key=lambda pair: len(pair[0].entries) * len(pair[1].entries))
    want = left @ right
    assert benchmark(lambda: left @ right) == want
