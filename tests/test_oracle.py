"""Rank/Koszul-homology verification engine."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import biproj
from biproj import oracle
from biproj.cli import random_plan, random_staircase
from biproj.errors import BadField, NotACM
from biproj.fields import GFP, QQ, PrimeField
from biproj.grid import PointGrid, is_acm, staircase, validate
from biproj.oracle import (
    _KoszulModule,
    _Spaces,
    _upset_root,
    betti_oracle,
    drop_sets,
    hilbert_oracle,
    separating_degree_oracle,
    verify_separator,
)
from biproj.resolution import acm_resolution, removal_plan, remove_points, separator_for
from test_fields import LARGEST_P, _canonical, field_matrix


@pytest.mark.parametrize("field", [QQ, GFP])
def test_hilbert_oracle_matches_combinatorial(field, two_row, big_staircase):
    from biproj.hilbert import hilbert_acm

    for g in (two_row, big_staircase, staircase((3, 3, 3))):
        ma = hilbert_acm(g)
        mo = hilbert_oracle(g, field)
        wi, wj = ma.window
        assert (mo.entries[: wi + 1, : wj + 1] == ma.entries[: wi + 1, : wj + 1]).all()


def test_hilbert_oracle_non_acm():
    # diagonal pair: 2 generic points impose independent conditions
    g = PointGrid.from_points(2, 2, [(0, 0), (1, 1)])
    M = hilbert_oracle(g)
    assert M.m(0, 0) == 1 and M.m(1, 0) == 2 and M.m(0, 1) == 2 and M.m(1, 1) == 2


def test_hilbert_oracle_respects_parameters():
    # same incidence, fractional line parameters: dimensions cannot change
    g1 = staircase((2, 1))
    g2 = staircase((2, 1), row_params=(Fraction(1, 2), 3), col_params=(0, Fraction(7, 3)))
    assert (hilbert_oracle(g1, QQ).entries == hilbert_oracle(g2, QQ).entries).all()


@pytest.mark.parametrize("engine", ["reduced", "direct"])
def test_betti_oracle_single_point(engine):
    t = betti_oracle(staircase((1,)), engine=engine)
    assert t.counters()[0] == Counter({(1, 0): 1, (0, 1): 1})
    assert t.counters()[1] == Counter({(1, 1): 1})
    assert t.counters()[2] == Counter()


@pytest.mark.parametrize("engine", ["reduced", "direct"])
@pytest.mark.parametrize("field", [QQ, GFP])
def test_betti_oracle_acm_cases(engine, field, two_row):
    for g in (two_row, staircase((3, 1, 1)), staircase((2, 2))):
        assert betti_oracle(g, field, engine=engine).counters() == \
            acm_resolution(g).counters()


def test_betti_oracle_engines_agree_on_non_acm(two_row):
    z = two_row.without((0, 0)).without((0, 1))
    r = betti_oracle(z, engine="reduced")
    d = betti_oracle(z, engine="direct")
    assert r.counters() == d.counters()
    assert r.counters()[0] == Counter({(2, 0): 1, (1, 2): 2, (0, 4): 1})


def test_betti_oracle_removal_case(big_staircase):
    plan = removal_plan(big_staircase, [(0, 4), (1, 3), (2, 1), (3, 2), (4, 0)])
    res = remove_points(big_staircase, plan)
    assert betti_oracle(res.grid_z, GFP).counters() == res.betti.counters()


def _scrambled_removal():
    """Staircase (5,4,3,2) minus two interior points, lines shuffled and
    given parameters m + 1/(2 + m mod 3): (removal result, scrambled Z)."""
    x = staircase((5, 4, 3, 2))
    res = remove_points(x, removal_plan(x, [(0, 2), (1, 1)]))
    row_perm, col_perm = [2, 0, 3, 1], [3, 0, 4, 1, 2]
    params = lambda n: [m + Fraction(1, 2 + m % 3) for m in (3, -1, 4, 0, 7)[:n]]
    return res, PointGrid.from_points(
        4, 5, [(row_perm[i], col_perm[j]) for (i, j) in res.grid_z.points()],
        row_params=params(4), col_params=params(5)[::-1])


def test_betti_oracle_fields_agree_scrambled_rational_params():
    # QQ, GF(p) and the removal theorem agree
    res, scrambled = _scrambled_removal()
    qq = betti_oracle(scrambled, QQ)
    assert qq.counters() == betti_oracle(scrambled, GFP).counters()
    assert qq.counters() == res.betti.counters()


def _rational_corpus():
    """Fifty seeded small schemes with lines in scrambled order and distinct
    non-integer parameters of mixed denominators: random point sets (mostly
    non-ACM), staircases and staircases minus a removal plan."""
    rng = np.random.default_rng(20261019)

    def params(n):
        # distinct integer parts and fractional parts in (0, 1): distinct values
        return [int(m) - 6 + Fraction(int(rng.integers(1, d)), int(d))
                for m, d in zip(rng.permutation(13)[:n], rng.choice([2, 3, 5, 7], n))]

    out = []
    for idx in range(50):
        if idx % 3 == 0:
            nr, nc = (int(n) for n in rng.integers(2, 5, size=2))
            pts = [(int(i), int(j)) for i, j in zip(*np.nonzero(rng.random((nr, nc)) < 0.5))]
            g = PointGrid.from_points(nr, nc, pts or [(0, 0)])
        elif idx % 3 == 1:
            g = random_staircase(rng, 4, 4)
        else:
            x = random_staircase(rng, 4, 5)
            g = remove_points(x, random_plan(x, rng, 2)).grid_z
        nr, nc = g.shape
        rp, cp = rng.permutation(nr), rng.permutation(nc)
        out.append(PointGrid.from_points(
            nr, nc, [(int(rp[i]), int(cp[j])) for i, j in g.points()],
            row_params=params(nr), col_params=params(nc)))
    return out


def test_rationals_match_prime_field_on_rational_corpus():
    # the rationals' integer echelons and scaled reductions against GF(p)
    corpus = _rational_corpus()
    assert sum(validate(g).ok and not is_acm(g) for g in corpus) >= 15
    for g in corpus:
        assert hilbert_oracle(g, QQ) == hilbert_oracle(g, GFP)
        assert drop_sets(g, QQ) == drop_sets(g, GFP)
        table = betti_oracle(g, GFP).counters()
        assert betti_oracle(g, QQ).counters() == table
        if g.npoints <= 8:
            assert betti_oracle(g, QQ, engine="direct").counters() == table


def test_betti_oracle_rejects_unknown_engine(two_row, monkeypatch):
    # the name is checked before any value space is built
    def no_spaces(*args):
        raise AssertionError("value spaces built for an unknown engine")

    monkeypatch.setattr(oracle, "_Spaces", no_spaces)
    with pytest.raises(ValueError):
        betti_oracle(two_row, engine="floating")
    with pytest.raises(ValueError, match="unknown engine"):
        betti_oracle(staircase(range(18, 0, -1)), GFP, engine="floating")


def test_oracle_checks_survive_python_O():
    # a rank that is always 0, over GF(p) and over QQ, breaks Tor_0 and the
    # Hilbert function, a mapping-cone report that always fails breaks a
    # removal step, and a non-monotone matrix is no Hilbert matrix; each
    # must be reported even with asserts compiled away
    code = "\n".join([
        "import sys",
        "from biproj import OracleInconsistency, PrimeField, Rationals, betti_oracle, staircase",
        "from biproj import ConditionReport, ResolutionInconsistency, remove_points, resolution",
        "for field in (PrimeField, Rationals):",
        "    field.rank = lambda self, A: 0",
        "    try:",
        "        betti_oracle(staircase((2, 1)), field())",
        "    except OracleInconsistency:",
        "        print(sys.flags.optimize, 'raised')",
        "resolution.check_mapping_cone_conditions = (",
        "    lambda table, r, s: ConditionReport((r, s), ((r + 1, s + 1),), ()))",
        "try:",
        "    remove_points(staircase((3, 2, 1)), [(0, 0)])",
        "except ResolutionInconsistency:",
        "    print(sys.flags.optimize, 'raised')",
        "from biproj import HilbertMatrix, InvalidMatrix",
        "try:",
        "    HilbertMatrix([[1, 2, 2], [1, 1, 1], [1, 1, 1]], degree=1)",
        "except InvalidMatrix:",
        "    print(sys.flags.optimize, 'raised')",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(biproj.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "1 raised\n" * 4, proc.stderr


def test_koszul_checks_survive_python_O():
    # value spaces corrupted after they are built: V_(1,1) without one of
    # the pivots it adds to V_(0,1) lets the images of the variables escape
    # it, and V_(1,1) without a pivot of V_(0,1) breaks the pivot subsets
    # of its quotient; both must be reported with asserts compiled away
    code = "\n".join([
        "import sys",
        "from biproj import OracleInconsistency, PrimeField, Rationals, staircase",
        "from biproj import oracle",
        "from biproj.fields import Echelon",
        "for field in (PrimeField(), Rationals()):",
        "    for new_pivot in (True, False):",
        "        spaces = oracle._Spaces(staircase((3, 3, 2)), field)",
        "        ech, sub = spaces.ech[(1, 1)], spaces.ech[(0, 1)]",
        "        drop = max(l for l, c in enumerate(ech.pivots) if (c in sub.pivots) != new_pivot)",
        "        keep = [l for l in range(len(ech.pivots)) if l != drop]",
        "        spaces.ech[(1, 1)] = Echelon(ech.rows[keep], tuple(ech.pivots[l] for l in keep))",
        "        module = oracle._KoszulModule(spaces)",
        "        try:",
        "            for i in range(4):",
        "                for j in range(4):",
        "                    oracle._homology_at(module, i, j)",
        "        except OracleInconsistency as e:",
        "            print(sys.flags.optimize, e)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(biproj.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    expected = ("1 image escapes the target component\n"
                "1 pivots of V_(0,1) are not among those of V_(1,1)\n")
    assert proc.stdout == expected * 2, proc.stderr


def test_value_space_checks_survive_python_O():
    # a Vandermonde rref whose canonical form loses its first row, and a
    # hole reduction that wipes the kept rows it touches, must be reported
    # with asserts compiled away, over GF(p) and over QQ
    code = "\n".join([
        "import sys",
        "from biproj import OracleInconsistency, PointGrid, PrimeField, Rationals",
        "from biproj import oracle",
        "from biproj.fields import Echelon",
        "grid = PointGrid.from_points(3, 3, [(0, 0), (0, 1), (1, 0), (2, 2)])",
        "for cls in (PrimeField, Rationals):",
        "    echelon, reduce_rows = cls.echelon, cls.reduce_rows",
        "    cls.echelon = lambda self, rows, pivots: Echelon(*(r[1:] for r in echelon(self, rows, pivots)))",
        "    try:",
        "        oracle._Spaces(grid, cls())",
        "    except OracleInconsistency as e:",
        "        print(sys.flags.optimize, e)",
        "    cls.echelon = echelon",
        "    cls.reduce_rows = lambda self, W, ech: W * 0",
        "    try:",
        "        oracle._Spaces(grid, cls())",
        "    except OracleInconsistency as e:",
        "        print(sys.flags.optimize, e)",
        "    cls.reduce_rows = reduce_rows",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(biproj.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    expected = ("1 the row Vandermonde rref of degree 0 is not a nonzero diagonal on columns 0..0\n"
                "1 a kept row of V_(1,1) lost its pivot\n")
    assert proc.stdout == expected * 2, proc.stderr


def _chain_schemes():
    """Seeded schemes: ACM, punctured and non-ACM, each also with its lines
    shuffled and given non-integer parameters."""
    rng = np.random.default_rng(20260818)
    x = staircase((4, 4, 3, 2))
    mask = rng.random((4, 4)) < 0.6
    plain = [
        staircase((4, 3, 3, 1)),
        random_staircase(rng, 4, 4),
        remove_points(x, random_plan(x, rng, 2)).grid_z,
        PointGrid.from_points(4, 4, [(int(i), int(j)) for i, j in zip(*np.nonzero(mask))]),
    ]
    out = []
    for g in plain:
        nr, nc = g.shape
        rp, cp = rng.permutation(nr), rng.permutation(nc)
        params = lambda n: [int(m) - 4 + Fraction(1, 2 + int(m) % 3) for m in rng.permutation(9)[:n]]
        out += [g, PointGrid.from_points(
            nr, nc, [(int(rp[i]), int(cp[j])) for i, j in g.points()],
            row_params=params(nr), col_params=params(nc))]
    return out


@pytest.mark.parametrize("field", [QQ, GFP], ids=lambda f: f.name)
def test_proven_window_matches_wider_window(field):
    # every Tor_k lies in (nr, nc): Koszul homology of the clamped value
    # spaces on every bidegree up to (nr+2, nc+2) is zero outside it, and
    # the rest is what betti_oracle reports, with Tor_0 = k in degree (0,0)
    # and no Tor_4.  The last scheme has an empty row and an empty column.
    # The direct engine over QQ, the slowest pair, runs on the schemes of at
    # most 8 points.
    empty_lines = PointGrid.from_points(
        4, 4, [(0, 0), (0, 1), (0, 3), (1, 1), (1, 3), (3, 0), (3, 3)],
        row_params=(Fraction(-1, 3), 2, 5, 0), col_params=(1, 0, 9, Fraction(7, 2)))
    for g in _chain_schemes() + [empty_lines]:
        for engine in ("reduced", "direct"):
            if engine == "direct" and field is QQ and g.npoints > 8:
                continue
            module = _KoszulModule(_Spaces(g, field), reduced=(engine == "reduced"))
            wide = {k: Counter() for k in range(len(module.vars) + 1)}
            nr, nc = g.shape
            for i in range(nr + 3):
                for j in range(nc + 3):
                    for k, d in enumerate(oracle._homology_at(module, i, j)):
                        if d:
                            assert i <= nr and j <= nc, (k, i, j)
                            wide[k][(i, j)] = d
            assert betti_oracle(g, field, engine).counters() == (wide[1], wide[2], wide[3])
            assert wide[0] == Counter({(0, 0): 1})
            assert not wide.get(4)


_EMPTY_LINES = PointGrid.from_points(
    5, 4, [(0, 0), (0, 1), (0, 3), (1, 1), (1, 3), (3, 0), (3, 3), (4, 1)],
    row_params=(3, Fraction(-1, 3), 2, 5, 0), col_params=(1, 0, 9, Fraction(7, 2)))


def _full_sweep(grid, field):
    """(Tor_1, Tor_2, Tor_3) of the reduced engine from _homology_at on
    every bidegree up to (nr, nc): every rank taken, Tor_0 checked."""
    module = _KoszulModule(_Spaces(grid, field))
    tors = [Counter() for _ in range(len(module.vars) + 1)]
    nr, nc = grid.shape
    for i in range(nr + 1):
        for j in range(nc + 1):
            for k, d in enumerate(oracle._homology_at(module, i, j)):
                if d:
                    tors[k][(i, j)] = d
    assert tors[0] == Counter({(0, 0): 1})
    return tuple(tors[1:])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the same exception type and message on both sides
        return type(e).__name__, str(e)


@pytest.mark.parametrize("field", [QQ, GFP, PrimeField(101)], ids=lambda f: f.name)
def test_reduced_engine_matches_full_sweep(field):
    # rows i >= 1 read off ker x1 give the same Betti numbers as every rank
    # of the reduced Koszul complex; GF(101) meets parameter collisions,
    # where both sides raise the same BadField
    from test_formats_cli import non_acm_corpus

    from biproj.formats import parse_configuration

    grids = [parse_configuration(c) for c in non_acm_corpus(24)]
    grids += _rational_corpus() + _chain_schemes() + [_EMPTY_LINES]
    raised = 0
    for g in grids:
        want = _outcome(_full_sweep, g, field)
        got = _outcome(lambda: betti_oracle(g, field).counters())
        assert got == want, g
        raised += isinstance(want[0], str)
    assert raised == (2 if field.p == 101 else 0)


def test_x1_onto_check_survives_python_O():
    # one x1 block made rank-deficient must be reported with asserts
    # compiled away, over GF(p) and over QQ
    code = "\n".join([
        "import sys",
        "from biproj import OracleInconsistency, PrimeField, Rationals, betti_oracle, staircase",
        "from biproj import oracle",
        "mult = oracle._KoszulModule.mult",
        "def deficient(self, z, u, v):",
        "    block = mult(self, z, u, v)",
        "    if (z, u, v) == (0, 1, 1):",
        "        block = block.copy()",
        "        block[-1] = 0",
        "    return block",
        "oracle._KoszulModule.mult = deficient",
        "for field in (PrimeField(), Rationals()):",
        "    try:",
        "        betti_oracle(staircase((3, 3, 2)), field)",
        "    except OracleInconsistency as e:",
        "        print(sys.flags.optimize, e)",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(biproj.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout == "1 x1 does not map N'_(1,1) onto N'_(2,1)\n" * 2, proc.stderr


@pytest.mark.parametrize("field", [QQ, GFP], ids=lambda f: f.name)
def test_escape_checks_cover_every_component(field, monkeypatch):
    # betti_oracle builds the maps into every nonzero component (u,v) other
    # than (0,0) with u <= nr and v <= nc, each once: the ranks it skips
    # drop no escape check of _maps_into
    targets = []
    maps_into = _KoszulModule._maps_into

    def recording(self, u, v):
        targets.append((u, v))
        return maps_into(self, u, v)

    monkeypatch.setattr(_KoszulModule, "_maps_into", recording)
    for g in _chain_schemes() + _rational_corpus()[:12] + [_EMPTY_LINES]:
        targets.clear()
        betti_oracle(g, field)
        module = _KoszulModule(_Spaces(g, field))
        nr, nc = g.shape
        nonzero = [(u, v) for u in range(nr + 1) for v in range(nc + 1)
                   if (u, v) != (0, 0) and module.dim(u, v)]
        assert sorted(targets) == nonzero


def _assert_same_echelon(ech, ref):
    assert ech.pivots == ref.pivots
    assert ech.rows.dtype == ref.rows.dtype and ech.rows.shape == ref.rows.shape
    assert (ech.rows == ref.rows).all()


@pytest.mark.parametrize("field", [QQ, GFP, PrimeField(101)], ids=lambda f: f.name)
def test_vandermonde_rrefs_match_rref_of_the_power_rows(field):
    # the closed form, the rows of R_(u-1) times one more line and the
    # product of the first u lines, is the rref of the power rows t**a,
    # a <= u, in the field's canonical form: the same rows, pivots 0..u and
    # dtype, on integer, scrambled negative and non-integer nodes
    rng = np.random.default_rng(41)
    mod = (lambda x: x % field.p) if field.p else (lambda x: x)
    for n in range(1, 16):
        for params in (list(range(n)),
                       [-3 * int(m) - 1 for m in rng.permutation(30)[:n]],
                       [int(m) - 7 + Fraction(1, 2 + int(m) % 3) for m in rng.permutation(15)[:n]]):
            ts = field.convert_params(params)
            got = oracle._vandermonde_rrefs(field, ts, "row")
            assert len(got) == n
            for u, rows in enumerate(got):
                ref = field.rref(field_matrix(field, [[mod(x**a) for x in ts] for a in range(u + 1)]))
                assert ref.pivots == tuple(range(u + 1))
                assert rows.dtype == ref.rows.dtype and rows.shape == ref.rows.shape
                assert (rows == ref.rows).all(), (params, u)


@pytest.mark.parametrize("field", [QQ, GFP, PrimeField(101)], ids=lambda f: f.name)
def test_value_space_chain_matches_full_elimination(field):
    # references: each V_(u,v) up to (nr+1, nc+1) eliminated from all its
    # monomial rows, valued with Fractions at the points in the spaces'
    # column order and each scaled to integers, so the clamp past the grid's
    # index range meets an unclamped elimination; each quotient basis
    # rebuilt by reduce_rows + rref
    for g in _chain_schemes():
        spaces = _Spaces(g, field)
        module = _KoszulModule(spaces, reduced=True)
        pts, (nr, nc) = spaces.points, g.shape
        assert sorted(pts) == sorted(g.points())
        assert set(spaces.ech) == {(u, v) for u in range(nr) for v in range(nc)}
        for u in range(nr + 2):
            for v in range(nc + 2):
                rows = [[Fraction(g.row_params[i]) ** a * Fraction(g.col_params[j]) ** b
                         for (i, j) in pts] for a in range(u + 1) for b in range(v + 1)]
                ech = spaces.at(u, v)
                _assert_same_echelon(ech, field.rref(field_matrix(field, [_canonical(row) for row in rows])))
                _assert_same_echelon(module._component(u, v)[1],
                                     field.rref(field.reduce_rows(ech.rows, spaces.at(u - 1, v))))


def _drop_sets_per_cell(grid, field):
    """drop_sets as one scan of the unit rows of spaces.at(u, v) per cell of
    the window (nr+2) x (nc+2)."""
    spaces = _Spaces(grid, field)
    drops = {pos: set() for pos in spaces.points}
    wi, wj = spaces.window
    for u in range(wi + 1):
        for v in range(wj + 1):
            ech = spaces.at(u, v)
            for l in np.nonzero((ech.rows != 0).sum(axis=1) == 1)[0]:
                drops[spaces.points[ech.pivots[int(l)]]].add((u, v))
    return drops


@pytest.mark.parametrize("field", [QQ, GFP], ids=lambda f: f.name)
def test_drop_sets_match_per_cell_scan(field):
    for g in _chain_schemes() + _rational_corpus():
        assert drop_sets(g, field) == _drop_sets_per_cell(g, field)


def _permuted(grid, rperm, cperm):
    """The same scheme with line i listed as rperm[i] and column j as
    cperm[j], each line keeping its parameter."""
    nr, nc = grid.shape
    rows, cols = [None] * nr, [None] * nc
    for i, t in enumerate(grid.row_params):
        rows[rperm[i]] = t
    for j, u in enumerate(grid.col_params):
        cols[cperm[j]] = u
    return PointGrid.from_points(nr, nc, [(rperm[i], cperm[j]) for i, j in grid.points()],
                                 row_params=rows, col_params=cols)


@pytest.mark.parametrize("field", [QQ, GFP], ids=lambda f: f.name)
def test_answers_do_not_depend_on_line_order(field):
    # _Spaces relabels the lines by point count: listing them in another
    # order changes no Hilbert matrix, drop set (up to the relabelling) or
    # Betti table of either engine.  The direct engine over QQ runs on the
    # schemes of at most 8 points.
    rng = np.random.default_rng(20261020)
    for g in _chain_schemes() + _rational_corpus()[:12]:
        nr, nc = g.shape
        rperm, cperm = rng.permutation(nr).tolist(), rng.permutation(nc).tolist()
        h = _permuted(g, rperm, cperm)
        assert hilbert_oracle(h, field) == hilbert_oracle(g, field)
        assert drop_sets(h, field) == {(rperm[i], cperm[j]): cells
                                       for (i, j), cells in drop_sets(g, field).items()}
        for engine in ("reduced", "direct"):
            if engine == "direct" and field is QQ and g.npoints > 8:
                continue
            assert betti_oracle(h, field, engine).counters() == \
                betti_oracle(g, field, engine).counters()


def _old_mult(module, z, u, v):
    """Multiplication by z from component (u,v) as whole rows: the scaled
    source basis reduced against the target's submodule, read at the target
    basis's pivots."""
    field = module.field
    (du, dv), scale = module.vars[z]
    src = module._component(u, v)[1]
    sub, basis = module._component(u + du, v + dv)
    w = src.rows if scale is None else field.multiply(src.rows, scale)
    return field.reduce_rows(w, sub)[:, list(basis.pivots)]


@pytest.mark.parametrize("field", [QQ, GFP, PrimeField(101), PrimeField(LARGEST_P)],
                         ids=lambda f: f.name)
def test_maps_per_target_match_whole_row_reduction(field):
    # every matrix built per target component by quotient_coords equals the
    # whole-row reduction entry for entry (over QQ the factor L of the
    # target's submodule is the same in both)
    for g in _chain_schemes():
        for reduced in (True, False):
            module = _KoszulModule(_Spaces(g, field), reduced)
            nr, nc = g.shape
            for u in range(nr + 1):
                for v in range(nc + 1):
                    for z in range(len(module.vars)):
                        got, ref = module.mult(z, u, v), _old_mult(module, z, u, v)
                        assert got.dtype == ref.dtype and got.shape == ref.shape
                        assert (got == ref).all(), (z, u, v)


def test_separating_degree_oracle(two_row):
    assert separating_degree_oracle(two_row, (0, 1)) == (1, 3)
    y = two_row.without((0, 1))
    assert separating_degree_oracle(y, (0, 0)) == (1, 2)
    # non-ACM pair: drop set has two minimal elements, no unique degree
    g = PointGrid.from_points(2, 2, [(0, 0), (1, 1)])
    assert separating_degree_oracle(g, (0, 0)) is None


def test_drop_sets_match_counts(two_row):
    from biproj.grid import classify_points

    M = hilbert_oracle(two_row)
    drops = drop_sets(two_row)
    expected = {pc.position: pc.separating_degree for pc in classify_points(two_row)}
    for pos, cells in drops.items():
        assert _upset_root(cells, M.window) == expected[pos]


def test_upset_root():
    window = (2, 2)
    full = {(i, j) for i in range(3) for j in range(3)}
    assert _upset_root(full, window) == (0, 0)
    assert _upset_root({(1, 1), (1, 2), (2, 1), (2, 2)}, window) == (1, 1)
    assert _upset_root({(0, 1), (1, 0), (1, 1)}, window) is None  # two minima
    assert _upset_root({(1, 1), (2, 2)}, window) is None  # not an up-set
    assert _upset_root(set(), window) is None


def test_verify_separator(two_row):
    sep = separator_for(two_row, (0, 1))
    z = two_row.without((0, 1))
    assert verify_separator(sep, z, (0, 1))
    assert verify_separator(sep, z, (0, 1), field=PrimeField(10007))
    # swap in a line through the removed point: no longer a separator
    import dataclasses

    bad = dataclasses.replace(sep, lines=(("R", 1), ("C", 0), ("C", 1), ("C", 3)))
    assert not verify_separator(bad, z, (0, 1))
    # wrong degree bookkeeping is rejected before any evaluation
    bad2 = dataclasses.replace(sep, degree=(2, 2))
    assert not verify_separator(bad2, z, (0, 1))


@pytest.mark.parametrize("field", [QQ, GFP, PrimeField(10007)], ids=lambda f: f.name)
def test_verify_separator_rational_params(field):
    # every point the split-curve rule separates on the scrambled grid with
    # Fraction parameters; the lines are evaluated in the field, on the
    # parameters convert_params gives.  Swapping the first line for the one
    # through the point must fail.
    import dataclasses

    _, g = _scrambled_removal()
    checked = 0
    for pos in g.points():
        try:
            sep = separator_for(g, pos)
        except NotACM:
            continue
        rest = g.without(pos)
        assert verify_separator(sep, rest, pos, field), pos
        kind = sep.lines[0][0]
        through = (kind, pos[0] if kind == "R" else pos[1])
        bad = dataclasses.replace(sep, lines=(through,) + sep.lines[1:])
        assert not verify_separator(bad, rest, pos, field), pos
        checked += 1
    assert checked  # four of the twelve points


def test_prime_field_parameter_collision():
    g = staircase((2, 1), row_params=(0, 5), col_params=(0, 1))
    with pytest.raises(BadField):
        hilbert_oracle(g, PrimeField(5))
    # the default big prime keeps small integer parameters distinct
    assert hilbert_oracle(g, GFP).degree == 3


def test_verify_separator_refuses_lines_that_collide_mod_p():
    # over GF(5) rows 0 and 5 are one line, so are columns 3 and 8, and 1/5
    # has no residue: each grid is refused, not given a verdict
    for rows, cols in (((0, 5), (0, 1)), ((0, 1), (3, 8)), ((0, Fraction(1, 5)), (0, 1))):
        g = staircase((2, 1), row_params=rows, col_params=cols)
        for pos in ((1, 0), (0, 1)):
            sep, z = separator_for(g, pos), g.without(pos)
            assert verify_separator(sep, z, pos, GFP)
            with pytest.raises(BadField):
                verify_separator(sep, z, pos, PrimeField(5))


@pytest.mark.parametrize("field", [GFP, PrimeField(101)], ids=lambda f: f.name)
def test_prime_elimination_gets_residues_only(field, monkeypatch):
    # PrimeField.rref, reduce_rows and quotient_coords take residues in
    # [0, p), and the float64 bound of PrimeField._product rests on it: no
    # oracle entry point passes them anything else
    from biproj.formats import parse_configuration
    from test_formats_cli import non_acm_corpus

    calls = Counter()
    rref, reduce_rows, quotient_coords = (PrimeField.rref, PrimeField.reduce_rows,
                                          PrimeField.quotient_coords)

    def residues(name, p, *matrices):
        for M in matrices:
            assert M.dtype == np.int64 and ((M >= 0) & (M < p)).all(), name
        calls[name] += 1

    def checked_rref(self, A):
        residues("rref", self.p, A)
        return rref(self, A)

    def checked_reduce_rows(self, W, ech):
        residues("reduce_rows", self.p, W, ech.rows)
        return reduce_rows(self, W, ech)

    def checked_quotient_coords(self, W, ech, sub, cols):
        residues("quotient_coords", self.p, W, ech.rows, sub.rows)
        return quotient_coords(self, W, ech, sub, cols)

    monkeypatch.setattr(PrimeField, "rref", checked_rref)
    monkeypatch.setattr(PrimeField, "quotient_coords", checked_quotient_coords)
    monkeypatch.setattr(PrimeField, "reduce_rows", checked_reduce_rows)
    grids = _chain_schemes() + _rational_corpus() + [parse_configuration(c) for c in non_acm_corpus(24)]
    refused = 0
    for g in grids:
        try:
            hilbert_oracle(g, field)
        except BadField:
            refused += 1  # two rational-corpus grids have lines that meet mod 101
            continue
        drop_sets(g, field)
        for engine in ("reduced", "direct"):
            betti_oracle(g, field, engine)
        for pos in g.points() if g.npoints > 1 else ():
            try:
                sep = separator_for(g, pos)
            except NotACM:
                continue
            assert verify_separator(sep, g.without(pos), pos, field)
    assert refused == (2 if field.p == 101 else 0)
    assert calls["rref"] and calls["reduce_rows"] and calls["quotient_coords"]
