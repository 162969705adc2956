"""Acceptance gate: one test per published criterion, exact tolerances.

Every test prints one PASS line on success; a failure reads as the criterion
number plus the first offending case.  Criteria 5-8 share the seeded corpora
from conftest (200 ACM staircases, 100 removal pairs, sizes up to 7x7).
"""

import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from biproj.errors import CollinearRemoval, OracleInconsistency
from biproj.fields import GFP, QQ
from biproj.grid import PointGrid, classify_points, staircase
from biproj.hilbert import check_T0, delta, hilbert_acm, puncture_hilbert
from biproj.oracle import (
    betti_oracle,
    drop_sets,
    hilbert_oracle,
    separating_degree_oracle,
)
from biproj.resolution import (
    acm_resolution,
    betti_diff,
    betti_from_delta,
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
    SEED,
    TWO_ROW_Z_DELTA,
)


def test_criterion_1_acm_resolution_exact(big_staircase):
    t0 = time.monotonic()
    table = acm_resolution(big_staircase)
    elapsed = time.monotonic() - t0
    assert table.counters()[0] == Counter({c: 1 for c in BIG_CORNERS})
    assert table.counters()[1] == Counter({v: 1 for v in BIG_VERTICES})
    assert table.counters()[2] == Counter()
    assert elapsed < 1.0, "took %.2fs" % elapsed
    print("CRITERION 1 PASS: generator/syzygy degrees exact in %.3fs" % elapsed)


def test_criterion_2_removal_table_three_routes(big_staircase):
    expected = (BIG_Z_BETA0, BIG_Z_BETA1, BIG_Z_BETA2)
    plan = removal_plan(big_staircase, BIG_PLAN)
    res = remove_points(big_staircase, plan)
    assert res.betti.counters() == expected
    assert res.betti.ranks == (10, 14, 5)
    assert betti_from_delta(delta(res.hilbert)).counters() == expected
    t0 = time.monotonic()
    oracle_table = betti_oracle(res.grid_z, QQ)
    elapsed = time.monotonic() - t0
    assert oracle_table.counters() == expected
    assert elapsed < 30.0, "oracle took %.1fs" % elapsed
    print("CRITERION 2 PASS: 10/14/5 table on all three routes, oracle %.1fs" % elapsed)


def test_criterion_3_difference_matrix_figure(big_staircase):
    degrees = {(0, 4): (3, 6), (1, 3): (3, 6), (2, 1): (5, 6),
               (3, 2): (4, 4), (4, 0): (5, 2)}
    M = hilbert_acm(big_staircase)
    for point in BIG_PLAN:
        M = puncture_hilbert(M, *degrees[point])
    D = delta(M)
    assert (D.entries[:7, :8] == BIG_Z_DELTA).all()
    assert D.c(3, 6) == -2
    assert D.c(4, 4) == D.c(5, 2) == D.c(5, 6) == -1
    print("CRITERION 3 PASS: punctured difference matrix matches entrywise")


def test_criterion_4_collinear_pair(two_row):
    with pytest.raises(CollinearRemoval):
        removal_plan(two_row, [(0, 0), (0, 1)])
    assert separating_degree_oracle(two_row, (0, 1)) == (1, 3)
    y = two_row.without((0, 1))
    assert separating_degree_oracle(y, (0, 0)) == (1, 2)
    assert set(separator_for(two_row, (0, 1)).lines) == \
        {("R", 1), ("C", 0), ("C", 2), ("C", 3)}
    assert set(separator_for(y, (0, 0)).lines) == {("R", 1), ("C", 2), ("C", 3)}
    z = y.without((0, 0))
    Dz = delta(hilbert_oracle(z))
    assert (Dz.entries[:2, :4] == TWO_ROW_Z_DELTA).all()
    diff = betti_diff(betti_from_delta(Dz), betti_oracle(z))
    assert diff, "formulas must disagree with the true table here"
    assert {(lvl, d) for lvl, d, _, _ in diff} == \
        {(0, (1, 3)), (1, (1, 3)), (1, (2, 3)), (2, (2, 3))}
    print("CRITERION 4 PASS: hypothesis failure detected and diff reported")


def test_criterion_5_acm_equivalence_corpus(corpus):
    cases = corpus["acm"]
    assert len(cases) >= 200
    mismatches = []
    for k, case in enumerate(cases):
        g = case["grid"]
        from biproj.grid import corners_and_vertices

        corners, vertices = corners_and_vertices(g)
        want = (Counter({c: 1 for c in corners}), Counter({v: 1 for v in vertices}),
                Counter())
        if case["table_oracle"].counters() != want:
            mismatches.append((k, "betti"))
        wa, wo = case["m_acm"].window, case["m_oracle"].window
        wi, wj = min(wa[0], wo[0]), min(wa[1], wo[1])
        if not (case["m_acm"].entries[: wi + 1, : wj + 1]
                == case["m_oracle"].entries[: wi + 1, : wj + 1]).all():
            mismatches.append((k, "hilbert"))
    # a small always-run rationals subsample guards against prime-field flukes
    for k in range(0, len(cases), 40):
        case = cases[k]
        if betti_oracle(case["grid"], QQ).counters() != case["table_acm"].counters():
            mismatches.append((k, "rationals"))
    assert not mismatches, mismatches[:5]
    assert corpus["acm_seconds"] < 600, "corpus took %.0fs" % corpus["acm_seconds"]
    print("CRITERION 5 PASS: %d staircases, 0 mismatches, %.0fs"
          % (len(cases), corpus["acm_seconds"]))


def test_criterion_6_removal_equivalence_corpus(corpus):
    from biproj.oracle import verify_separator

    cases = corpus["removal"]
    assert len(cases) >= 100
    mismatches = []
    for k, case in enumerate(cases):
        res = case["result"]
        assert 1 <= len(res.plan.points) <= 4
        if not (res.betti.counters() == case["from_delta"].counters()
                == case["from_oracle"].counters()):
            mismatches.append((k, "betti"))
            continue
        cur = case["grid"]
        for sep in res.separators:
            if not verify_separator(sep, cur.without(sep.point), sep.point, GFP):
                mismatches.append((k, "separator", sep.point))
            cur = cur.without(sep.point)
    assert not mismatches, mismatches[:5]
    print("CRITERION 6 PASS: %d removal pairs, 0 mismatches" % len(cases))


def test_criterion_6_scrambled_removal_corpus(corpus):
    # criterion 6 on every 4th removal case with its lines relabelled by a
    # seeded permutation, its plan mapped along, and non-integer parameters
    # drawn as in test_oracle._chain_schemes; the table must be the
    # unscrambled one, and QQ joins GF(p) up to 30 points
    from biproj.oracle import verify_separator

    rng = np.random.default_rng(SEED + 6)

    def params(n):
        return [int(m) - 4 + Fraction(1, 2 + int(m) % 3) for m in rng.permutation(9)[:n]]

    cases = corpus["removal"][::4]
    mismatches = []
    for k, case in enumerate(cases):
        g = case["grid"]
        nr, nc = g.shape
        rp, cp = rng.permutation(nr), rng.permutation(nc)
        x = PointGrid.from_points(nr, nc, [(int(rp[i]), int(cp[j])) for i, j in g.points()],
                                  row_params=params(nr), col_params=params(nc))
        res = remove_points(x, [(int(rp[i]), int(cp[j])) for i, j in case["plan"].points])
        tables = [res.betti, betti_from_delta(delta(res.hilbert)), betti_oracle(res.grid_z, GFP)]
        if res.grid_z.npoints <= 30:
            tables.append(betti_oracle(res.grid_z, QQ))
        want = case["result"].betti.counters()
        if any(t.counters() != want for t in tables):
            mismatches.append((k, "betti"))
            continue
        cur = x
        for sep in res.separators:
            cur = cur.without(sep.point)
            if not all(verify_separator(sep, cur, sep.point, f) for f in (QQ, GFP)):
                mismatches.append((k, "separator", sep.point))
    assert len(cases) >= 25
    assert not mismatches, mismatches[:5]
    print("CRITERION 6 PASS: %d scrambled removal pairs, 0 mismatches" % len(cases))


def test_criterion_7_structural_invariants(corpus, big_staircase, two_row):
    violations = []

    def audit(tag, table, M):
        if table.rank_alternation() != 1:
            violations.append((tag, "alternation"))
        if table.hilbert_defects(M):
            violations.append((tag, "hilbert"))
        if not check_T0(delta(M)).ok:
            violations.append((tag, "T0"))

    # every corpus table, against its own Hilbert matrix
    for k, case in enumerate(corpus["acm"]):
        audit(("acm", k), case["table_acm"], case["m_acm"])
        audit(("acm-oracle", k), case["table_oracle"], case["m_oracle"])
    for k, case in enumerate(corpus["removal"]):
        audit(("removal", k), case["result"].betti, case["result"].hilbert)

    # desk examples, including the non-ACM leftover scheme
    z2 = two_row.without((0, 0)).without((0, 1))
    plan = removal_plan(big_staircase, BIG_PLAN)
    res = remove_points(big_staircase, plan)
    desk = [
        ("single", staircase((1,))),
        ("two_row", two_row),
        ("two_row_z", z2),
        ("big", big_staircase),
        ("big_z", res.grid_z),
    ]

    def direct(tag, g):
        """The four-variable engine's table, or None with a violation.  Its
        fourth Koszul homology must vanish: betti_oracle raises
        OracleInconsistency on a nonzero Tor_4 (or a wrong Tor_0)."""
        try:
            return betti_oracle(g, GFP, engine="direct")
        except OracleInconsistency as err:
            violations.append((tag, "tor4", str(err)))

    for tag, g in desk:
        M = hilbert_oracle(g)
        audit((tag, "oracle"), betti_oracle(g), M)
        direct(tag, g)
    for k in range(0, len(corpus["acm"]), 25):
        t = direct(("acm", k), corpus["acm"][k]["grid"])
        if t is not None and t.counters() != corpus["acm"][k]["table_oracle"].counters():
            violations.append((("acm", k), "engines"))
    for k in range(0, len(corpus["removal"]), 25):
        t = direct(("removal", k), corpus["removal"][k]["result"].grid_z)
        if t is not None and t.counters() != corpus["removal"][k]["from_oracle"].counters():
            violations.append((("removal", k), "engines"))

    assert not violations, violations[:5]
    print("CRITERION 7 PASS: alternation, Hilbert consistency, T0, Tor_4 = 0")


def test_criterion_8_drop_sets_are_up_sets(corpus):
    violations = []
    for k, case in enumerate(corpus["acm"]):
        g = case["grid"]
        M = case["m_oracle"]
        wi, wj = M.window
        expected = {pc.position: pc.separating_degree for pc in classify_points(g)}
        for pos, cells in drop_sets(g, GFP).items():
            q, p = expected[pos]
            want = {(u, v) for u in range(q, wi + 1) for v in range(p, wj + 1)}
            if cells != want:
                violations.append((k, pos))
        if k % 25 == 0:  # the one-point operation agrees with the batch scan
            pos = g.points()[0]
            if separating_degree_oracle(g, pos, GFP) != expected[pos]:
                violations.append((k, pos, "single"))
    assert not violations, violations[:5]
    print("CRITERION 8 PASS: every drop set is the up-set of its line counts")
