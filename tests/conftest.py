"""Shared fixtures: the worked examples, frozen expected tables, and the
seeded random corpora the acceptance criteria run over."""

import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from biproj.cli import random_plan, random_staircase
from biproj.fields import GFP
from biproj.grid import staircase
from biproj.hilbert import delta, hilbert_acm
from biproj.oracle import betti_oracle, hilbert_oracle
from biproj.resolution import (
    acm_resolution,
    betti_from_delta,
    removal_plan,
    remove_points,
)

SEED = 20260814
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def big_staircase():
    """31 points, six rows of lengths (7,7,7,5,3,2)."""
    return staircase((7, 7, 7, 5, 3, 2))


BIG_PLAN = [(0, 4), (1, 3), (2, 1), (3, 2), (4, 0)]

BIG_CORNERS = {(6, 0), (5, 2), (4, 3), (3, 5), (0, 7)}
BIG_VERTICES = {(6, 2), (5, 3), (4, 5), (3, 7)}

# Betti table of the big staircase minus the five named interior points.
BIG_Z_BETA0 = Counter({(6, 0): 1, (5, 2): 2, (4, 3): 1, (3, 5): 1, (0, 7): 1,
                       (5, 6): 1, (4, 4): 1, (3, 6): 2})
BIG_Z_BETA1 = Counter({(6, 2): 2, (5, 3): 2, (4, 5): 2, (3, 7): 3, (5, 4): 1,
                       (4, 6): 2, (6, 6): 1, (5, 7): 1})
BIG_Z_BETA2 = Counter({(6, 3): 1, (5, 5): 1, (4, 7): 2, (6, 7): 1})

BIG_Z_DELTA = np.array([
    [1, 1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 0, -2, 0],
    [1, 1, 1, 0, -1, 0, 0, 0],
    [1, 1, -1, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
])


@pytest.fixture(scope="session")
def two_row():
    """Six points, rows of lengths (4,2)."""
    return staircase((4, 2))


TWO_ROW_DELTA = np.array([[1, 1, 1, 1], [1, 1, 0, 0]])
TWO_ROW_Z_DELTA = np.array([[1, 1, 1, 1], [1, 1, -1, -1]])


def build_acm_corpus(n, rng):
    """Random staircases plus everything the equivalence criteria compare."""
    out = []
    for _ in range(n):
        g = random_staircase(rng, max_rows=7, max_cols=7)
        m_acm = hilbert_acm(g)
        m_orc = hilbert_oracle(g, GFP)
        out.append({
            "grid": g,
            "m_acm": m_acm,
            "m_oracle": m_orc,
            "table_acm": acm_resolution(g),
            "table_oracle": betti_oracle(g, GFP),
        })
    return out


def build_removal_corpus(n, rng):
    out = []
    while len(out) < n:
        g = random_staircase(rng, max_rows=7, max_cols=7)
        pts = random_plan(g, rng, max_points=4)
        if not pts:
            continue
        plan = removal_plan(g, pts)
        res = remove_points(g, plan)
        out.append({
            "grid": g,
            "plan": plan,
            "result": res,
            "from_delta": betti_from_delta(delta(res.hilbert)),
            "from_oracle": betti_oracle(res.grid_z, GFP),
        })
    return out


@pytest.fixture(scope="session")
def corpus():
    """The seeded corpora for the property criteria, built once per session."""
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    acm = build_acm_corpus(200, rng)
    t1 = time.monotonic()
    removal = build_removal_corpus(100, rng)
    t2 = time.monotonic()
    return {"acm": acm, "removal": removal,
            "acm_seconds": t1 - t0, "removal_seconds": t2 - t1}
