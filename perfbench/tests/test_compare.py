"""Verdicts of the parent-versus-change comparison."""

import compare


def verdict(parent, change, better="lower", bound=0.25, p_failed=0, c_failed=0):
    return compare.verdict(parent, change, list(zip(parent, change)), better, bound, p_failed, c_failed)[0]


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_improved_needs_nine_tenths_of_ten_pairs_and_a_gap_beyond_the_spread():
    assert verdict(PARENT, [v * 0.8 for v in PARENT]) == "improved"
    assert verdict(PARENT[:9], [v * 0.8 for v in PARENT[:9]]) == "unchanged"  # fewer than ten pairs
    assert verdict(PARENT, [v * 0.8 for v in PARENT], c_failed=1) == "unchanged"  # more failures


def test_worse_beyond_the_bound_and_direction():
    assert verdict(PARENT, [v * 1.3 for v in PARENT]) == "worse"
    assert verdict(PARENT, [v * 1.1 for v in PARENT]) == "unchanged"
    assert verdict(PARENT, [v * 0.7 for v in PARENT], better="higher") == "worse"


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [1.0, 1.6, 0.7, 1.3, 0.8, 1.5, 0.9, 1.2, 0.75, 1.4]
    assert verdict(wide, [v * 1.05 for v in wide]) == "unresolved"
