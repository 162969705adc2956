"""Combinatorial resolutions, separators, and point removal."""

from collections import Counter

import numpy as np
import pytest

from biproj import formats
from biproj.cli import random_plan, random_staircase
from biproj.errors import (
    CollinearRemoval,
    InvalidGrid,
    NotACM,
    NotInterior,
    PointNotInScheme,
)
from biproj.grid import PointGrid, staircase
from biproj.hilbert import DeltaMatrix, delta, hilbert_acm
from biproj.resolution import (
    BettiTable,
    acm_resolution,
    betti_diff,
    betti_from_delta,
    check_mapping_cone_conditions,
    removal_plan,
    remove_points,
    separator_for,
)

from conftest import (
    BIG_CORNERS,
    BIG_PLAN,
    BIG_VERTICES,
    BIG_Z_BETA0,
    BIG_Z_BETA1,
    BIG_Z_BETA2,
    BIG_Z_DELTA,
    TWO_ROW_Z_DELTA,
)


def test_betti_table_canonical_order():
    t = BettiTable.make({(0, 7): 1, (6, 0): 1, (5, 2): 2})
    assert t.beta0 == (((6, 0), 1), ((5, 2), 2), ((0, 7), 1))
    assert t.ranks == (4, 0, 0)


def test_betti_table_hilbert_defects(two_row):
    M = hilbert_acm(two_row)
    good = acm_resolution(two_row)
    assert good.hilbert_defects(M) == []
    bad = BettiTable.make({(1, 0): 1})
    assert bad.hilbert_defects(M)


def _euler_reference(table, M):
    """hilbert_defects by the per-cell formula: dim S_(i,j) minus the
    alternating sum of mult * dim S_(i-p,j-q), cell by cell."""
    def dim(u, v):
        return (u + 1) * (v + 1) if u >= 0 and v >= 0 else 0

    wi, wj = M.window
    bad = []
    for i in range(wi + 1):
        for j in range(wj + 1):
            val = dim(i, j)
            for level, sign in zip(table.levels, (-1, 1, -1)):
                for (p, q), mult in level:
                    val += sign * mult * dim(i - p, j - q)
            if val != M.m(i, j):
                bad.append(((i, j), M.m(i, j), val))
    return bad


def test_hilbert_defects_match_per_cell_formula():
    rng = np.random.default_rng(902)
    wrong_with_defects = 0
    for _ in range(60):
        g = random_staircase(rng, max_rows=6, max_cols=6)
        pts = random_plan(g, rng, max_points=3)
        if pts:
            res = remove_points(g, pts)
            table, M = res.betti, res.hilbert
        else:
            table, M = acm_resolution(g), hilbert_acm(g)
        assert table.hilbert_defects(M) == _euler_reference(table, M) == []
        wi, wj = M.window
        b0, b1, b2 = table.counters()
        # summands past the window add nothing inside it
        past = BettiTable.make(b0 + Counter({(wi + 1, 0): 2}), b1 + Counter({(0, wj + 3): 1}), b2)
        assert past.hilbert_defects(M) == _euler_reference(past, M) == []
        # wrong tables: extra summands anywhere from degree -3 to 3 past the window
        levels = [Counter(b0), Counter(b1), Counter(b2)]
        for _ in range(int(rng.integers(1, 4))):
            d = (int(rng.integers(-3, wi + 4)), int(rng.integers(-3, wj + 4)))
            levels[int(rng.integers(3))][d] += int(rng.integers(1, 4))
        wrong = BettiTable.make(*levels)
        defects = wrong.hilbert_defects(M)
        assert defects == _euler_reference(wrong, M)
        wrong_with_defects += bool(defects)
    assert wrong_with_defects > 30
    M = hilbert_acm(staircase((3, 2)))
    negative = formats.parse_betti_text("beta0: R(1,0) (+) R(0,5)^2\nbeta1: R(4,-2)\nbeta2: R(0,-9)")
    assert negative.counters()[0] == Counter({(-1, 0): 1, (0, -5): 2})
    assert negative.hilbert_defects(M) == _euler_reference(negative, M) != []


def test_acm_resolution_two_row(two_row):
    t = acm_resolution(two_row)
    assert t.counters()[0] == Counter({(2, 0): 1, (1, 2): 1, (0, 4): 1})
    assert t.counters()[1] == Counter({(2, 2): 1, (1, 4): 1})
    assert t.beta2 == ()
    assert t.rank_alternation() == 1


def test_acm_resolution_big(big_staircase):
    t = acm_resolution(big_staircase)
    assert t.counters()[0] == Counter({c: 1 for c in BIG_CORNERS})
    assert t.counters()[1] == Counter({v: 1 for v in BIG_VERTICES})
    assert t.beta2 == ()


def test_acm_resolution_single_point():
    t = acm_resolution(staircase((1,)))
    assert t.counters()[0] == Counter({(1, 0): 1, (0, 1): 1})
    assert t.counters()[1] == Counter({(1, 1): 1})


def test_separator_for_examples(two_row):
    sep = separator_for(two_row, (0, 1))
    assert sep.degree == (1, 3)
    assert set(sep.lines) == {("R", 1), ("C", 0), ("C", 2), ("C", 3)}
    y = two_row.without((0, 1))
    sep2 = separator_for(y, (0, 0))
    assert sep2.degree == (1, 2)
    assert set(sep2.lines) == {("R", 1), ("C", 2), ("C", 3)}


def test_separator_for_rejects_uncovered():
    # diagonal pair: the rule leaves the other point uncovered
    g = PointGrid.from_points(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(NotACM):
        separator_for(g, (0, 0))
    with pytest.raises(PointNotInScheme):
        separator_for(g, (0, 1))


def test_removal_plan_orders_by_degree(big_staircase):
    plan = removal_plan(big_staircase, BIG_PLAN)
    assert sorted(plan.degrees) == list(plan.degrees)
    assert dict(zip(plan.points, plan.degrees)) == {
        (0, 4): (3, 6), (1, 3): (3, 6), (2, 1): (5, 6),
        (3, 2): (4, 4), (4, 0): (5, 2)}
    assert dict(plan.multiplicity) == {(3, 6): 2, (4, 4): 1, (5, 2): 1, (5, 6): 1}


def test_removal_plan_rejections(big_staircase, two_row):
    with pytest.raises(CollinearRemoval) as exc:
        removal_plan(two_row, [(0, 0), (0, 1)])
    assert "R_0" in str(exc.value)
    with pytest.raises(CollinearRemoval):
        removal_plan(big_staircase, [(0, 4), (1, 4)])  # shared column
    with pytest.raises(NotInterior):
        removal_plan(two_row, [(1, 1)])
    with pytest.raises(PointNotInScheme):
        removal_plan(two_row, [(1, 3)])
    with pytest.raises(NotACM):
        removal_plan(PointGrid.from_points(2, 2, [(0, 0), (1, 1)]), [(0, 0)])


def test_remove_points_big_example(big_staircase):
    plan = removal_plan(big_staircase, BIG_PLAN)
    res = remove_points(big_staircase, plan)
    assert res.betti.counters() == (BIG_Z_BETA0, BIG_Z_BETA1, BIG_Z_BETA2)
    assert res.betti.ranks == (10, 14, 5)
    assert res.betti.rank_alternation() == 1
    assert (delta(res.hilbert).entries[:7, :8] == BIG_Z_DELTA).all()
    assert res.grid_z.npoints == 26
    # every step satisfied both mapping-cone conditions
    assert all(rep.ok for rep in res.conditions)
    assert [sep.degree for sep in res.separators] == list(plan.degrees)


def test_remove_points_empty_plan_is_acm_resolution():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = random_staircase(rng)
        nr, nc = g.shape
        rows, cols = rng.permutation(nr), rng.permutation(nc)
        g = PointGrid.from_points(nr, nc, [(int(rows[i]), int(cols[j])) for i, j in g.points()])
        res = remove_points(g, [])
        assert res.betti == acm_resolution(g)
        assert (res.hilbert.entries == hilbert_acm(g).entries).all()
        assert res.hilbert.degree == g.npoints
        assert res.grid_z is g
        assert res.separators == res.conditions == res.plan.points == ()
    non_acm = PointGrid.from_points(2, 2, [(0, 0), (1, 1)])
    empty_line = PointGrid.from_points(2, 2, [(0, 0), (0, 1)])
    for bad in (non_acm, empty_line):
        for f in (acm_resolution, hilbert_acm, lambda g: remove_points(g, [])):
            with pytest.raises(Exception) as info:
                f(bad)
            assert (type(info.value), str(info.value)) == (
                (NotACM, "configuration is not ACM") if bad is non_acm
                else (InvalidGrid, "empty line R_1"))


def test_remove_points_single_interior(two_row):
    plan = removal_plan(two_row, [(0, 1)])
    res = remove_points(two_row, plan)
    assert res.betti.counters() == betti_from_delta(delta(res.hilbert)).counters()
    assert res.betti.hilbert_defects(res.hilbert) == []


def test_mapping_cone_conditions_boundary_case():
    # removal degree equal to an existing generator degree is still fine;
    # only strict domination by (r,s) violates the hypotheses
    g = staircase((3, 2, 1))
    plan = removal_plan(g, [(1, 0)])
    assert plan.degrees == ((2, 1),)
    rep = check_mapping_cone_conditions(acm_resolution(g), 2, 1)
    assert rep.ok
    rep2 = check_mapping_cone_conditions(acm_resolution(g), 0, 0)
    assert not rep2.ok and rep2.cond2_violations


def test_betti_from_delta_acm_equals_combinatorial(big_staircase, two_row):
    for g in (big_staircase, two_row, staircase((5, 5, 1)), staircase((1,))):
        t1 = betti_from_delta(delta(hilbert_acm(g)))
        t2 = acm_resolution(g)
        assert t1.counters() == t2.counters()


def test_betti_from_delta_two_row_z():
    # the collinear "removal" done by hand: formulas apply but the scheme is
    # outside their hypotheses, so this table is NOT the true resolution
    D = DeltaMatrix(np.pad(TWO_ROW_Z_DELTA, ((0, 1), (0, 1))))
    t = betti_from_delta(D)
    assert t.counters()[0] == Counter({(2, 0): 1, (1, 2): 2, (1, 3): 1, (0, 4): 1})
    assert t.counters()[1] == Counter({(2, 2): 2, (1, 4): 2, (1, 3): 1, (2, 3): 1})
    assert t.counters()[2] == Counter({(2, 3): 1, (2, 4): 1})
    assert t.rank_alternation() == 1  # the K-polynomial cannot see the ghosts


def test_betti_from_delta_all_zero():
    t = betti_from_delta(DeltaMatrix(np.zeros((2, 2), dtype=np.int64)))
    assert t.is_empty()


def test_betti_diff():
    t1 = BettiTable.make({(1, 0): 1, (0, 1): 1}, {(1, 1): 1})
    t2 = BettiTable.make({(1, 0): 1}, {(1, 1): 2})
    d = betti_diff(t1, t2)
    assert (0, (0, 1), 1, 0) in d
    assert (1, (1, 1), 1, 2) in d
    assert betti_diff(t1, t1) == []
