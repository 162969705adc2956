"""Grids of points: validation, staircase order, classification."""

import tracemalloc
from fractions import Fraction

import pytest

import biproj.grid
from biproj import formats
from biproj.errors import InvalidGrid, NotACM, PointNotInScheme
from biproj.grid import (
    MAX_GRID_CELLS,
    PointGrid,
    PointKind,
    classify_points,
    corners_and_vertices,
    is_acm,
    is_staircase,
    normalize,
    staircase,
    validate,
)
from biproj.hilbert import hilbert_acm
from biproj.resolution import remove_points

from conftest import BIG_CORNERS, BIG_VERTICES


def test_from_points_basic():
    g = PointGrid.from_points(2, 3, [(0, 0), (1, 2)])
    assert g.shape == (2, 3)
    assert g.npoints == 2
    assert g.has_point(1, 2) and not g.has_point(0, 1)
    assert g.points() == ((0, 0), (1, 2))


def test_from_points_rejects_bad_input():
    with pytest.raises(InvalidGrid):
        PointGrid.from_points(2, 2, [(0, 0), (2, 0)])  # row out of range
    with pytest.raises(InvalidGrid):
        PointGrid.from_points(2, 2, [(0, 0), (0, 0)])  # duplicate
    with pytest.raises(InvalidGrid):
        PointGrid.from_points(2, 2, [(0, 0)], row_params=(0,))  # wrong length
    with pytest.raises(InvalidGrid):
        PointGrid.from_points(1, 2, [(0, 0)], col_params=(3, 3))  # repeated line


def test_from_points_size_cap_checked_before_allocation():
    tracemalloc.start()
    try:
        for nrows, ncols in ((1, MAX_GRID_CELLS + 1), (2**11, 2**10), (10**12, 3)):
            with pytest.raises(InvalidGrid, match="exceeds the cap"):
                PointGrid.from_points(nrows, ncols, [(0, 0)])
        with pytest.raises(InvalidGrid, match="exceeds the cap"):
            formats.parse_configuration({"rows": 10**9, "cols": 10**9, "points": []})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert PointGrid.from_points(14, 13, [(13, 12)]).shape == (14, 13)


@pytest.mark.parametrize("incidence, row_params, col_params, message", [
    ((), (), (0,), "at least one row and one column"),
    (((True, True), (True,)), (0, 1), (0, 1), "ragged incidence matrix"),
    (((True, True),), (0,), (0,), "col_params has 1 entries for 2 lines"),
    (((True, True),), (0,), (1, "1"), "duplicate col line parameters"),
    (((True, True),), (0,), ("a", 1), "bad line parameter 'a'"),
    (((True, True),), (True,), (0, 1), "line parameter True is not a number"),
    (((True,),), 5, (0,), "row_params 5 is not a sequence"),
    (((True,),), (0,), None, "col_params None is not a sequence"),
    ((5,), (0,), (0,), "incidence row 5 is not a sequence"),
    (7, (0,), (0,), "incidence 7 is not a sequence"),
], ids=["no-rows", "ragged", "too-few-params", "duplicate-params", "not-a-number", "bool",
        "scalar-row-params", "none-col-params", "scalar-row", "scalar-incidence"])
def test_point_grid_is_valid_by_construction(incidence, row_params, col_params, message):
    with pytest.raises(InvalidGrid, match=message):
        PointGrid(incidence, row_params, col_params)


def test_point_grid_converts_params_and_validate_reports_the_scheme():
    g = PointGrid([[True, False]], ["1/2"], [0, 1.5])
    assert g == PointGrid(((True, False),), (Fraction(1, 2),), (0, Fraction(3, 2)))
    assert hash(g) == hash(PointGrid(g.incidence, g.row_params, g.col_params))
    assert validate(g).violations == ("empty line C_1",)
    assert validate(PointGrid(((False,),), (0,), (0,))).violations == (
        "empty line R_0", "empty line C_0", "scheme is empty")


def test_validate_flags_empty_lines():
    g = PointGrid.from_points(2, 2, [(0, 0), (0, 1)])
    rep = validate(g)
    assert not rep.ok
    assert any("R_1" in v for v in rep.violations)
    assert validate(g, allow_empty_lines=True).ok


def test_without():
    g = staircase((2, 1))
    z = g.without((0, 1))
    assert z.npoints == 2 and z.shape == g.shape
    with pytest.raises(PointNotInScheme):
        g.without((1, 1))


def test_staircase_builder_and_predicate():
    g = staircase((3, 1))
    assert g.row_counts() == (3, 1)
    assert is_staircase(g)
    assert not is_staircase(PointGrid.from_points(2, 3, [(0, 0), (1, 0), (1, 1), (1, 2)]))
    with pytest.raises(InvalidGrid):
        staircase((1, 3))  # not weakly decreasing
    with pytest.raises(InvalidGrid):
        staircase(())


def test_normalize_sorts_rows_and_cols():
    # scrambled rows/cols of the staircase (3,1)
    g = PointGrid.from_points(2, 3, [(1, 2), (1, 0), (1, 1), (0, 2)])
    norm = normalize(g)
    assert is_staircase(norm.grid)
    assert norm.grid.row_counts() == (3, 1)
    # permutations map normalized indices back to the original labels
    assert norm.row_perm == (1, 0)
    assert [norm.col_perm.index(j) for j in range(3)] is not None


def test_is_acm():
    assert is_acm(staircase((4, 2)))
    scrambled = PointGrid.from_points(2, 3, [(1, 2), (1, 0), (1, 1), (0, 2)])
    assert is_acm(scrambled)  # staircase after permuting lines
    assert not is_acm(PointGrid.from_points(2, 2, [(0, 0), (1, 1)]))  # diagonal


def test_corners_and_vertices_two_row(two_row):
    corners, vertices = corners_and_vertices(two_row)
    assert set(corners) == {(2, 0), (1, 2), (0, 4)}
    assert set(vertices) == {(2, 2), (1, 4)}


def test_corners_and_vertices_big(big_staircase):
    corners, vertices = corners_and_vertices(big_staircase)
    assert set(corners) == BIG_CORNERS
    assert set(vertices) == BIG_VERTICES
    assert len(vertices) == len(corners) - 1


def test_corners_single_point():
    corners, vertices = corners_and_vertices(staircase((1,)))
    assert set(corners) == {(1, 0), (0, 1)}
    assert set(vertices) == {(1, 1)}


def test_corners_requires_acm():
    with pytest.raises(NotACM):
        corners_and_vertices(PointGrid.from_points(2, 2, [(0, 0), (1, 1)]))


def test_classify_interior_vs_boundary(big_staircase):
    classes = {pc.position: pc for pc in classify_points(big_staircase)}
    assert len(classes) == big_staircase.npoints
    for pos in [(0, 4), (1, 3), (2, 1), (3, 2), (4, 0)]:
        assert classes[pos].kind is PointKind.INTERIOR
    for pos in [(0, 5), (0, 6), (5, 0), (5, 1), (3, 4), (4, 2)]:
        assert classes[pos].kind is PointKind.BOUNDARY


def test_classify_separating_degrees(big_staircase, two_row):
    classes = {pc.position: pc for pc in classify_points(big_staircase)}
    assert classes[(0, 4)].separating_degree == (3, 6)
    assert classes[(2, 1)].separating_degree == (5, 6)
    assert classes[(4, 0)].separating_degree == (5, 2)
    two = {pc.position: pc for pc in classify_points(two_row)}
    assert two[(0, 1)].separating_degree == (1, 3)
    assert two[(1, 1)].separating_degree == (1, 1)


def test_classify_complete_grid_has_no_interior():
    g = staircase((3, 3, 3))
    assert all(pc.kind is PointKind.BOUNDARY for pc in classify_points(g))


def test_classify_respects_line_labels():
    # same scheme with scrambled labels: classes follow the original labels
    g = PointGrid.from_points(2, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3)])
    classes = {pc.position: pc for pc in classify_points(g)}
    assert classes[(1, 0)].kind is PointKind.INTERIOR
    assert classes[(0, 0)].kind is PointKind.BOUNDARY
    assert classes[(1, 0)].separating_degree == (1, 3)


def test_grid_is_normalized_once_through_the_pipeline(monkeypatch):
    calls = []
    build = biproj.grid._normalize
    monkeypatch.setattr(biproj.grid, "_normalize", lambda g: calls.append(g) or build(g))
    # the staircase (5,5,3,2,1) with scrambled lines and rational parameters
    rows, cols = (3, 0, 4, 1, 2), (2, 4, 0, 1, 3)
    X = PointGrid.from_points(
        5, 5, [(rows[i], cols[j]) for i, l in enumerate((5, 5, 3, 2, 1)) for j in range(l)],
        row_params=[Fraction(k, 3) for k in range(5)], col_params=[Fraction(-k, 7) for k in range(5)])
    assert validate(X).ok and is_acm(X)
    interior = [pc.position for pc in classify_points(X) if pc.kind is PointKind.INTERIOR]
    assert hilbert_acm(X) is hilbert_acm(X)
    res = remove_points(X, [(rows[1], cols[2]), (rows[2], cols[1])])
    assert set(res.plan.points) <= set(interior)
    assert len(calls) == 1 and calls[0] is X


def test_derived_lists_are_fresh_per_call():
    g = staircase((4, 2, 2))
    classes = classify_points(g)
    corners, vertices = corners_and_vertices(g)
    expected = (list(classes), list(corners), list(vertices))
    classes.reverse()
    classes.pop()
    corners.append((9, 9))
    vertices.clear()
    assert (classify_points(g), *corners_and_vertices(g)) == expected


def test_memo_is_invisible_to_eq_hash_repr():
    a, b = staircase((3, 1)), staircase((3, 1))
    classify_points(a)
    hilbert_acm(a)
    validate(a, allow_empty_lines=True)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


@pytest.mark.parametrize("fn", [normalize, is_acm, classify_points, corners_and_vertices,
                                hilbert_acm])
def test_invalid_or_non_acm_grid_raises_on_every_call(fn):
    empty_row = PointGrid.from_points(2, 2, [(0, 0), (0, 1)])
    diagonal = PointGrid.from_points(2, 2, [(0, 0), (1, 1)])
    cases = [(empty_row, InvalidGrid)]
    if fn not in (normalize, is_acm):
        cases.append((diagonal, NotACM))
    for g, error in cases:
        messages = []
        for _ in range(3):
            with pytest.raises(error) as info:
                fn(g)
            messages.append(str(info.value))
        assert messages == [messages[0]] * 3
