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
from biproj.grid import PointGrid, staircase
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
    # a rank that is always 0 breaks Tor_0 and the Hilbert function, a
    # mapping-cone report that always fails breaks a removal step, and a
    # non-monotone matrix is no Hilbert matrix; each must be reported even
    # with asserts compiled away
    code = "\n".join([
        "import sys",
        "from biproj import OracleInconsistency, PrimeField, betti_oracle, staircase",
        "from biproj import ConditionReport, ResolutionInconsistency, remove_points, resolution",
        "PrimeField.rank = lambda self, A: 0",
        "try:",
        "    betti_oracle(staircase((2, 1)), PrimeField())",
        "except OracleInconsistency:",
        "    print(sys.flags.optimize, 'raised')",
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
    assert proc.stdout == "1 raised\n1 raised\n1 raised\n", proc.stderr


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


def _assert_same_echelon(ech, ref):
    assert ech.pivots == ref.pivots
    assert ech.rows.dtype == ref.rows.dtype and ech.rows.shape == ref.rows.shape
    assert (ech.rows == ref.rows).all()


@pytest.mark.parametrize("field", [QQ, GFP, PrimeField(101)], ids=lambda f: f.name)
def test_value_space_chain_matches_full_elimination(field):
    # references: each V_(u,v) up to (nr+1, nc+1) eliminated from all its
    # monomial rows, valued with Fractions, so the clamp past the grid's
    # index range meets an unclamped elimination; each quotient basis
    # rebuilt by reduce_rows + rref
    for g in _chain_schemes():
        spaces = _Spaces(g, field)
        module = _KoszulModule(spaces, reduced=True)
        pts, (nr, nc) = g.points(), g.shape
        assert set(spaces.ech) == {(u, v) for u in range(nr) for v in range(nc)}
        for u in range(nr + 2):
            for v in range(nc + 2):
                rows = [[Fraction(g.row_params[i]) ** a * Fraction(g.col_params[j]) ** b
                         for (i, j) in pts] for a in range(u + 1) for b in range(v + 1)]
                ech = spaces.at(u, v)
                _assert_same_echelon(ech, field.rref(field.array(rows)))
                _assert_same_echelon(module._component(u, v)[1],
                                     field.rref(field.reduce_rows(ech.rows, spaces.at(u - 1, v))))


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
    # Fraction parameters; each product is taken exactly, then in the field.
    # Swapping the first line for the one through the point must fail.
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
