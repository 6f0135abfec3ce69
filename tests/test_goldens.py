"""Regression against the committed golden files.

The first exact computation of each value was frozen under goldens/;
these tests recompute and compare byte for byte, so any drift in the
canonical forms or in the formulas shows up as a named mismatch.
"""

import json
import os
from fractions import Fraction

import pytest

from vermalab.report import golden_diff
from vermalab.suites import (
    suite_flatness,
    suite_global,
    suite_gt_spectrum,
    suite_ktheory,
    suite_qc,
    suite_verify_gl,
    suite_whittaker,
)
from vermalab.whittaker import ring_structure

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "goldens")


def _jt(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("n,d", [(2, "1"), (2, "2"), (3, "1,0"), (3, "1,1"), (4, "1,1,0")])
def test_whittaker_components_match_goldens(n, d):
    _, comp = suite_whittaker(n, d)
    name = f"whittaker_n{n}_d{d.replace(',', '_')}.json"
    assert golden_diff(_jt(comp), GOLDEN_DIR, name)["status"] == "match"


def test_qc_report_matches_golden():
    rep = suite_qc(3, "1,1")
    assert golden_diff(rep.to_json(), GOLDEN_DIR, "qc_n3_d1_1.json")["status"] == "match"


def test_verify_gl_report_matches_golden():
    rep = suite_verify_gl(2, 3)
    assert golden_diff(rep.to_json(), GOLDEN_DIR, "verify_gl_n2.json")["status"] == "match"


def test_global_report_matches_golden():
    rep = suite_global(2, 2)
    assert golden_diff(rep.to_json(), GOLDEN_DIR, "global_n2_d2.json")["status"] == "match"


def test_flatness_report_matches_golden():
    rep = suite_flatness(4, "1,1,0")
    assert golden_diff(rep.to_json(), GOLDEN_DIR, "flatness_n4_d1_1_0.json")["status"] == "match"


def test_gt_spectrum_table_matches_golden():
    _, table = suite_gt_spectrum(3, "1,1")
    assert golden_diff(_jt(table), GOLDEN_DIR, "gt_spectrum_n3_d1_1.json")["status"] == "match"


def test_ktheory_table_matches_golden():
    _, table = suite_ktheory(3, 2)
    assert golden_diff(_jt(table), GOLDEN_DIR, "ktheory_n3.json")["status"] == "match"


def test_ring_table_matches_golden():
    spec = {name: Fraction(v) for name, v in (("x1", 0), ("x2", 1), ("x3", 3), ("x4", 7), ("h", 1))}
    table = ring_structure(4, (1, 1, 1), spec)
    assert golden_diff(_jt(table), GOLDEN_DIR, "ring_n4_d1_1_1.json")["status"] == "match"
