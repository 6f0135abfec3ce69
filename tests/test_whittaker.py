"""Whittaker components: golden values, recursion, uniqueness, the ring."""

import pytest

from vermalab.patterns import Pattern, degree_vectors_upto, degree_valid
from vermalab.verma import VermaContext
from vermalab.whittaker import (
    SpectrumCollapseError,
    check_cyclicity,
    ring_structure,
    whittaker_component,
)


def test_degree_zero_is_one():
    comp = whittaker_component(3, (0, 0))
    assert list(comp.coefficients.values()) == [VermaContext.get(3).one]


def test_golden_n2_degree_one():
    c = VermaContext.get(2)
    comp = whittaker_component(2, (1,))
    coeff = comp.coefficients[Pattern(2, ((1,),))]
    want = c.one / (c.h * (c.x[2] - c.x[1] + c.h))
    assert coeff == want


def test_golden_n2_degree_two():
    c = VermaContext.get(2)
    comp = whittaker_component(2, (2,))
    coeff = comp.coefficients[Pattern(2, ((2,),))]
    want = c.one / (
        (c.h * (c.x[2] - c.x[1] + c.h)) * (c.h * (c.x[2] - c.x[1] + 2 * c.h)) * 2
    )
    assert coeff == want


def test_golden_n3_degree_10():
    c = VermaContext.get(3)
    comp = whittaker_component(3, (1, 0))
    coeff = list(comp.coefficients.values())[0]
    assert coeff == c.one / (c.h * (c.x[2] - c.x[1] + c.h))


def test_recursion_holds_after_solving():
    # f_i v_d = h^-1 v_{d-i} re-verified on fresh blocks
    for n, dmax in ((2, 4), (3, 3), (4, 2)):
        ctx = VermaContext.get(n)
        for d in degree_vectors_upto(n, dmax):
            if sum(d) == 0:
                continue
            comp = whittaker_component(n, d)
            vec = comp.vector(ctx)
            for i in range(1, n):
                lower = tuple(c - (1 if j == i - 1 else 0) for j, c in enumerate(d))
                if not degree_valid(lower):
                    continue
                image = ctx.f_block(i, d).apply(vec)
                want = [v * ctx.hinv for v in whittaker_component(n, lower).vector(ctx)]
                assert all((a - b).is_zero() for a, b in zip(image, want))


def test_all_coefficients_nonzero_small():
    for n, dmax in ((2, 4), (3, 4), (4, 3)):
        for d in degree_vectors_upto(n, dmax):
            comp = whittaker_component(n, d)
            assert all(not v.is_zero() for v in comp.coefficients.values())


def test_cyclicity_reports():
    assert check_cyclicity(2, (2,)) == (None, None)
    assert VermaContext.get(2).dim((2,)) == 1
    assert check_cyclicity(3, (1, 1)) == (None, None)
    assert VermaContext.get(3).dim((1, 1)) == 2
    assert check_cyclicity(3, (2, 1)) == (None, None)


def test_component_serialization():
    blob = whittaker_component(2, (1,)).to_json_dict()
    assert blob["degree"] == [1]
    assert blob["coefficients"][0]["pattern"] == [[1]]
    assert "/" in blob["coefficients"][0]["value"]


def test_ring_structure_unspecialized():
    table = ring_structure(3, (1, 1))
    assert table["generators"] == ["c1(D2)"]
    assert "products" not in table
    assert table["whittaker_nonzero"] is True


def test_ring_structure_specialized_golden():
    table = ring_structure(3, (1, 1), {"x1": 0, "x2": 1, "x3": 2, "h": 1})
    assert table["basis"] == ["1", "c1(D2)"]
    # the two eigenvalues specialize to 1 and 0, so the square reproduces
    # the class itself with unit coefficient
    assert table["products"] == {"c1(D2)*c1(D2)": {"c1(D2)": "1"}}


def test_ring_structure_n2_trivial():
    table = ring_structure(2, (2,), {"x1": 0, "x2": 1, "h": 1})
    assert table["generators"] == []
    assert table["dimension"] == 1
    assert table["basis"] == ["1"]


def test_ring_structure_collapse_error():
    with pytest.raises(SpectrumCollapseError):
        ring_structure(3, (1, 1), {"x1": 0, "x2": 0, "x3": 2, "h": 1})


def test_uniqueness_certificate_dense_degrees():
    # representative rank-4 degrees of size up to 4, all unique solutions
    for d in ((1, 1, 1), (2, 1, 0), (1, 0, 2), (1, 1, 2)):
        comp = whittaker_component(4, d)
        assert comp.degree == d
