"""Randomized structural properties of the whole pipeline."""

from hypothesis import given, settings, strategies as st

from biproj import formats
from biproj.fields import GFP
from biproj.grid import PointGrid, PointKind, classify_points, is_acm, normalize, staircase
from biproj.hilbert import accumulate, check_T0, delta, hilbert_acm
from biproj.oracle import betti_oracle, drop_sets, hilbert_oracle, _upset_root
from biproj.resolution import acm_resolution, betti_from_delta, removal_plan, remove_points

lengths_st = st.lists(st.integers(1, 5), min_size=1, max_size=5).map(
    lambda l: tuple(sorted(l, reverse=True)))

SET = settings(deadline=None, max_examples=60)


@given(lengths_st)
@SET
def test_delta_accumulate_identity(lengths):
    M = hilbert_acm(staircase(lengths))
    back = accumulate(delta(M))
    assert (back.entries == M.entries).all()
    assert back.degree == sum(lengths)


@given(lengths_st)
@SET
def test_staircase_delta_satisfies_T0(lengths):
    assert check_T0(delta(hilbert_acm(staircase(lengths)))).ok


@given(lengths_st, st.randoms(use_true_random=False))
@SET
def test_normalize_inverts_scrambling(lengths, rnd):
    g = staircase(lengths)
    nr, nc = g.shape
    rperm = list(range(nr)); rnd.shuffle(rperm)
    cperm = list(range(nc)); rnd.shuffle(cperm)
    pts = [(rperm.index(i), cperm.index(j)) for (i, j) in g.points()]
    scrambled = PointGrid.from_points(nr, nc, pts)
    norm = normalize(scrambled)
    assert norm.grid.incidence == g.incidence
    again = normalize(norm.grid)
    assert again.grid == norm.grid


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_boundary_points_are_the_acm_removals(lengths, rnd):
    # on a scrambled staircase a point is boundary iff removing it keeps the
    # scheme ACM; a point alone on its row or column (its removal would leave
    # an empty line) is always boundary
    g = staircase(sorted(lengths, reverse=True))
    nr, nc = g.shape
    rperm, cperm = rnd.sample(range(nr), nr), rnd.sample(range(nc), nc)
    x = PointGrid.from_points(nr, nc, [(rperm[i], cperm[j]) for (i, j) in g.points()])
    for pc in classify_points(x):
        boundary = pc.kind is PointKind.BOUNDARY
        if pc.row_count < 2 or pc.col_count < 2:
            assert boundary, pc
        else:
            assert is_acm(x.without(pc.position)) == boundary, pc


@settings(deadline=None, max_examples=25)
@given(lengths_st)
def test_acm_resolution_matches_oracle(lengths):
    g = staircase(lengths)
    assert acm_resolution(g).counters() == betti_oracle(g, GFP).counters()


@settings(deadline=None, max_examples=25)
@given(lengths_st)
def test_hilbert_oracle_matches_acm(lengths):
    g = staircase(lengths)
    ma = hilbert_acm(g)
    mo = hilbert_oracle(g, GFP)
    wi, wj = ma.window
    assert (mo.entries[: wi + 1, : wj + 1] == ma.entries[: wi + 1, : wj + 1]).all()


@settings(deadline=None, max_examples=30)
@given(lengths_st, st.data())
def test_single_removal_consistency(lengths, data):
    g = staircase(lengths)
    interior = [pc for pc in classify_points(g) if pc.kind is PointKind.INTERIOR]
    if not interior:
        return
    pc = data.draw(st.sampled_from(interior))
    plan = removal_plan(g, [pc.position])
    res = remove_points(g, plan)
    # the puncture lives at exactly the separating degree in the difference
    D0, D1 = delta(hilbert_acm(g)), delta(res.hilbert)
    q, p = pc.separating_degree
    diff = D0.entries - D1.entries
    assert diff[q, p] == 1 and abs(diff).sum() == 1
    # all three routes agree, and the difference matrix stays realizable
    assert res.betti.counters() == betti_from_delta(D1).counters()
    assert res.betti.counters() == betti_oracle(res.grid_z, GFP).counters()
    assert check_T0(D1).ok


@settings(deadline=None, max_examples=20)
@given(lengths_st)
def test_drop_sets_are_up_sets_of_counts(lengths):
    g = staircase(lengths)
    M = hilbert_oracle(g, GFP)
    expected = {pc.position: pc.separating_degree for pc in classify_points(g)}
    for pos, cells in drop_sets(g, GFP).items():
        assert _upset_root(cells, M.window) == expected[pos]


small_param = st.integers(-20, 20) | st.fractions(
    min_value=-5, max_value=5, max_denominator=7)


@settings(deadline=None, max_examples=40)
@given(lengths_st, st.data())
def test_configuration_roundtrip_random(lengths, data):
    g0 = staircase(lengths)
    nr, nc = g0.shape
    rp = data.draw(st.lists(small_param, min_size=nr, max_size=nr, unique=True))
    cp = data.draw(st.lists(small_param, min_size=nc, max_size=nc, unique=True))
    g = staircase(lengths, row_params=rp, col_params=cp)
    assert formats.parse_configuration(formats.emit_configuration(g)) == g


@settings(deadline=None, max_examples=40)
@given(lengths_st)
def test_betti_text_roundtrip_random(lengths):
    t = acm_resolution(staircase(lengths))
    assert formats.parse_betti_text(formats.render_betti(t)).counters() == t.counters()
