"""Tests of the benchmark's reference formulas; run with
`python3 -m pytest bench/test_reference.py`."""

from collections import Counter

import reference as ref


def test_worked_example_e1():
    ref.self_check()
    assert ref.corners(ref.E1_LAM) == [(0, 7), (3, 5), (4, 3), (5, 2), (6, 0)]
    assert ref.e1_removed() == [(3, 6), (3, 6), (5, 6), (4, 4), (5, 2)]


def test_single_point():
    assert ref.betti((1,), []) == (Counter({(0, 1): 1, (1, 0): 1}), Counter({(1, 1): 1}), Counter())
    assert ref.hilbert_matrix((1,), [], (2, 2)) == [[1, 1, 1]] * 3
    assert ref.interior_points((1,)) == []


def test_removal_from_two_rows():
    # rows of lengths (3,2) minus the interior point (0,0): 4 points left
    lam = (3, 2)
    assert ref.interior_points(lam) == [(0, 0), (0, 1)]
    assert ref.interior_points((3, 3)) == []
    removed = [ref.separating_degrees(lam)[(0, 0)]]
    assert removed == [(1, 2)]
    assert ref.hilbert(lam, removed, 5, 5) == 4
    b0, b1, b2 = ref.betti(lam, removed)
    assert sum(b0.values()) - sum(b1.values()) + sum(b2.values()) == 1
