"""Hilbert matrices, first differences, puncturing."""

import re
from collections import Counter

import numpy as np
import pytest

from biproj.cli import random_staircase
from biproj.errors import InvalidMatrix, NonPositiveEntry, NotACM
from biproj.grid import PointGrid, corners_and_vertices, staircase
from biproj.hilbert import (
    DeltaMatrix,
    HilbertMatrix,
    accumulate,
    check_T0,
    delta,
    delta_corners_vertices,
    hilbert_acm,
    puncture_hilbert,
)
from biproj.resolution import betti_from_delta

from conftest import BIG_PLAN, TWO_ROW_DELTA, BIG_Z_DELTA


def test_hilbert_acm_two_row(two_row):
    M = hilbert_acm(two_row)
    assert M.degree == 6
    assert M.m(0, 0) == 1
    # row 0 counts columns hit, column 0 counts rows hit
    assert [M.m(0, j) for j in range(5)] == [1, 2, 3, 4, 4]
    assert [M.m(i, 0) for i in range(3)] == [1, 2, 2]
    assert M.m(10, 10) == 6  # stabilizes at the degree


def test_hilbert_acm_requires_acm():
    with pytest.raises(NotACM):
        hilbert_acm(PointGrid.from_points(2, 2, [(0, 0), (1, 1)]))


def test_hilbert_matrix_rejects_non_monotone():
    with pytest.raises(InvalidMatrix, match="not monotone"):
        HilbertMatrix(np.array([[1, 2, 2], [1, 1, 1], [1, 1, 1]]), degree=1)


def test_delta_accumulate_roundtrip(big_staircase):
    M = hilbert_acm(big_staircase)
    D = delta(M)
    back = accumulate(D)
    wi = min(M.window[0], back.window[0])
    wj = min(M.window[1], back.window[1])
    assert (back.entries[: wi + 1, : wj + 1] == M.entries[: wi + 1, : wj + 1]).all()


def test_delta_of_staircase_is_indicator(two_row):
    D = delta(hilbert_acm(two_row))
    assert (D.entries[:2, :4] == TWO_ROW_DELTA).all()
    assert D.degree == 6
    assert D.c(5, 5) == 0 and D.c(-1, 0) == 0


def test_delta_views_are_consistent(big_staircase):
    D = delta(hilbert_acm(big_staircase))
    a, b = D.delta_row, D.delta_col
    # both views accumulate back to the same matrix
    assert (np.cumsum(b, axis=0) == np.cumsum(a, axis=1)).all()


def test_check_T0_accepts_scheme_deltas(big_staircase, two_row):
    for g in (big_staircase, two_row, staircase((1,))):
        assert check_T0(delta(hilbert_acm(g))).ok


def test_check_T0_small_verdicts():
    assert check_T0(DeltaMatrix(np.array([[1, 1], [1, 0]]))).ok
    # an entry above 1 breaks the first condition
    rep = check_T0(DeltaMatrix(np.array([[1, 1], [1, 2]])))
    assert not rep.ok and any(v.startswith("(1)") for v in rep.violations)
    # a negative entry northwest of a positive one breaks the second
    rep = check_T0(DeltaMatrix(np.array([[1, -1], [1, 1]])))
    assert not rep.ok and any(v.startswith("(2)") for v in rep.violations)


def test_check_T0_third_condition():
    # column sums b must be nonnegative and, below row 0, weakly decreasing
    rep = check_T0(DeltaMatrix(np.array([[1, 0], [-1, 0]])))
    assert not rep.ok
    assert any(v.startswith("(3)") for v in rep.violations)


def test_puncture_hilbert_drops_up_set(two_row):
    M = hilbert_acm(two_row)
    P = puncture_hilbert(M, 1, 3)
    assert P.degree == 5
    assert P.m(1, 3) == M.m(1, 3) - 1
    assert P.m(0, 3) == M.m(0, 3)
    assert P.m(2, 4) == M.m(2, 4) - 1


def test_puncture_hilbert_frontier_always_fails():
    # stabilization makes the last two rows equal, so a puncture confined to
    # the outermost one cannot come from removing a point
    M = hilbert_acm(staircase((1,)))
    with pytest.raises(NonPositiveEntry):
        puncture_hilbert(M, M.window[0], M.window[1])


def test_puncture_hilbert_rejects_impossible_degree(two_row):
    M = hilbert_acm(two_row)
    # removing in a degree below the counts breaks monotonicity or positivity
    with pytest.raises(NonPositiveEntry):
        puncture_hilbert(puncture_hilbert(M, 0, 0), 0, 0)
    with pytest.raises(ValueError):
        puncture_hilbert(M, -1, 0)


def test_delta_corners_vertices_match_grid(big_staircase, two_row):
    for g in (big_staircase, two_row, staircase((3, 3, 3)), staircase((1,))):
        D = delta(hilbert_acm(g))
        got_c, got_v = delta_corners_vertices(D)
        want_c, want_v = corners_and_vertices(g)
        assert got_c == want_c
        assert got_v == want_v


def test_delta_corners_vertices_after_removal(big_staircase):
    M = hilbert_acm(big_staircase)
    classes = {(0, 4): (3, 6), (1, 3): (3, 6), (2, 1): (5, 6),
               (3, 2): (4, 4), (4, 0): (5, 2)}
    for pos in BIG_PLAN:
        M = puncture_hilbert(M, *classes[pos])
    D = delta(M)
    assert (D.entries[:7, :8] == BIG_Z_DELTA).all()
    got_c, got_v = delta_corners_vertices(D)
    assert set(got_c) == {(6, 0), (5, 2), (4, 3), (3, 5), (0, 7)}


def test_delta_corners_vertices_all_zero():
    assert delta_corners_vertices(DeltaMatrix(np.zeros((3, 3), dtype=np.int64))) == ([], [])


def _reference_from_delta(D):
    """Per-cell sentinel rule, kept as an independent reference:
    (corners, vertices, beta0, beta1, beta2) with c_{-1,.} = c_{.,-1} = 1."""
    if not D.entries.any():
        return [], [], {}, {}, {}
    wi, wj = D.window

    def c(i, j):
        return 1 if i < 0 or j < 0 else D.c(i, j)

    def neg(x):
        return max(0, -x)

    corners, vertices, b0, b1, b2 = [], [], {}, {}, {}
    for i in range(wi + 1):
        for j in range(wj + 1):
            here, left, up, diag = c(i, j), c(i, j - 1), c(i - 1, j), c(i - 1, j - 1)
            corner = here <= 0 and left == 1 and up == 1
            vertex = up <= 0 and left <= 0 and diag == 1
            if corner:
                corners.append((i, j))
            if vertex:
                vertices.append((i, j))
            for level, m in ((b0, int(corner) + neg(here)),
                             (b1, int(vertex) + neg(left) + neg(up)),
                             (b2, neg(diag))):
                if m:
                    level[(i, j)] = m
    return sorted(corners), sorted(vertices), b0, b1, b2


def test_corner_vertex_rule_matches_reference():
    # arbitrary integer matrices: negative entries, entries above 1, and a
    # nonzero last row or column, none of which a scheme's Delta M has
    rng = np.random.default_rng(404)
    cases = [np.zeros((1, 1), dtype=np.int64), np.zeros((3, 4), dtype=np.int64)]
    for _ in range(400):
        shape = tuple(int(x) for x in rng.integers(1, 7, size=2))
        cases.append(rng.integers(-2, 3, size=shape))
    assert sum(bool(m[-1].any() or m[:, -1].any()) for m in cases) >= 300
    assert sum(bool((m < 0).any()) for m in cases) >= 300
    for entries in cases:
        D = DeltaMatrix(entries)
        corners, vertices, b0, b1, b2 = _reference_from_delta(D)
        assert delta_corners_vertices(D) == (corners, vertices)
        assert betti_from_delta(D).counters() == (Counter(b0), Counter(b1), Counter(b2))


def _ndarray_verdict(entries, degree=None):
    """The checks HilbertMatrix (degree given) and DeltaMatrix (degree None)
    made when the window was an int64 ndarray, kept as the reference for
    the tuple-backed types: None to accept, else the InvalidMatrix message."""
    arr = np.array(entries, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        return "expected a nonempty 2-d matrix, got shape %s" % (arr.shape,)
    if degree is None:
        return None
    if arr.shape[0] < 2 or arr.shape[1] < 2 or not 0 <= arr[0, 0] <= 1:
        return "Hilbert matrix needs a 2x2 window and 0 <= m_00 <= 1"
    if (np.diff(arr, axis=0) < 0).any() or (np.diff(arr, axis=1) < 0).any():
        return "Hilbert matrix is not monotone"
    if (arr[-1] != arr[-2]).any() or (arr[:, -1] != arr[:, -2]).any() or arr[-1, -1] != degree:
        return "Hilbert matrix window does not reach the stable value %d" % degree
    return None


def _matrix_corpus(rng):
    """(int64 ndarray, degree) pairs: Hilbert matrices of random staircases,
    the same with one cell, the degree or the window disturbed, and random
    small integer matrices of every shape up to 5x5 with its last entry or
    a random degree; plus the shapes that are not nonempty 2-d."""
    cases = [(np.zeros(shape, dtype=np.int64), 0)
             for shape in ((0,), (3,), (0, 3), (2, 0), (1, 1), (1, 4), (4, 1))]
    for _ in range(150):
        m = hilbert_acm(random_staircase(rng, 5, 5)).entries
        cases.append((m, int(m[-1, -1])))
        i, j = (int(rng.integers(0, n)) for n in m.shape)
        bumped = m.copy()
        bumped[i, j] += int(rng.choice([-1, 1]))
        cases.append((bumped, int(m[-1, -1])))
        cases.append((m, int(m[-1, -1]) + int(rng.choice([-1, 1]))))
        cases.append((m[:-1], int(m[-1, -1])))
        cases.append((m[:, :-2], int(m[-1, -1])))
    for _ in range(200):
        shape = tuple(int(n) for n in rng.integers(1, 6, size=2))
        m = rng.integers(-2, 4, size=shape)
        cases.append((m, int(m[-1, -1]) if rng.random() < 0.8 else int(rng.integers(0, 5))))
    return cases


def test_matrix_types_match_the_ndarray_rules():
    rng = np.random.default_rng(1313)
    verdicts = Counter()
    for arr, degree in _matrix_corpus(rng):
        nested = arr.tolist()
        as_tuples = tuple(map(tuple, nested)) if arr.ndim == 2 else tuple(nested)
        for build, hilbert in ((lambda e: HilbertMatrix(e, degree), True), (DeltaMatrix, False)):
            built = []
            for entries in (arr, nested, as_tuples):
                want = _ndarray_verdict(entries, degree if hilbert else None)
                try:
                    built.append(build(entries))
                except InvalidMatrix as err:
                    assert str(err) == want, (entries, degree)
                else:
                    assert want is None, (entries, degree)
                verdicts[want is None] += 1
            if not built:
                continue
            first = built[0]
            assert all(b == first and hash(b) == hash(first) for b in built)
            assert all(type(x) is int for row in first.rows for x in row)
            before = hash(first)
            view = first.entries
            assert view.dtype == np.int64 and not view.flags.writeable
            assert view.tolist() == arr.tolist()
            with pytest.raises(ValueError):
                view[0, 0] = 7
            assert hash(first) == before and first == built[-1]
            if isinstance(first, HilbertMatrix):
                assert accumulate(delta(first)) == first
    assert verdicts[True] >= 900 and verdicts[False] >= 900


@pytest.mark.parametrize("entries, message", [
    ([[0, 1], [1]], "ragged matrix: row 1 has 1 entries, row 0 has 2"),
    ([[1, 1], [], [1, 1]], "ragged matrix"),
    ([[0.9, -0.5]], "entry 0.9 is not an integer"),
    ([[1, 1.0]], "entry 1.0 is not an integer"),
    ([[1, "1"]], "entry '1' is not an integer"),
    ([[True, 1]], "entry True is not an integer"),
    (np.array([[True, False]]), "is not an integer"),
    (np.array([[0.0, 1.0]]), "is not an integer"),
    ([[[1, 1]], [[1, 1]]], r"entry \[1, 1\] is not an integer"),
    (5, r"got shape \(\)"),
    ([1, 2], r"got shape \(2,\)"),
], ids=["ragged", "empty-row", "float", "integral-float", "str", "bool", "numpy-bool",
        "numpy-float", "3-d", "scalar", "1-d"])
def test_matrix_types_raise_typed_errors(entries, message):
    for build in (DeltaMatrix, lambda e: HilbertMatrix(e, 1)):
        with pytest.raises(InvalidMatrix, match=message):
            build(entries)


def test_matrix_types_take_numpy_integer_scalars():
    D = DeltaMatrix([[np.int64(1), np.int32(1)], [np.uint8(1), 0]])
    assert D.rows == ((1, 1), (1, 0)) and D.degree == 3
    M = HilbertMatrix([[np.int64(1), 1], [1, np.int64(1)]], np.int64(1))
    assert M.m(5, 5) == 1 and type(M.degree) is int


@pytest.mark.parametrize("degree", [1.0, True, "1", None], ids=["float", "bool", "str", "none"])
def test_hilbert_matrix_rejects_non_integer_degree(degree):
    with pytest.raises(InvalidMatrix, match="degree %s is not an integer" % re.escape(repr(degree))):
        HilbertMatrix([[1, 1], [1, 1]], degree)
