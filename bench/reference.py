"""Independent reference for a staircase minus interior points.

Everything here is computed from the row lengths lam of the staircase X
(weakly decreasing, lam[0] = number of columns) and the separating degrees
(q, p) of the removed points, without importing biproj, so the benchmark
checks the program's answers against formulas and not against a saved copy
of its own output:

- corners are (i, lam_i) where i = 0 or lam_{i-1} > lam_i, with lam = 0
  below the last row;
- vertices are (i, lam_{i-1}) where lam_i < lam_{i-1};
- a removed point with (q, p) = (column count - 1, row count - 1) adds
  beta0 (q, p), beta1 (q+1, p) and (q, p+1), and beta2 (q+1, p+1);
- M(u, v) = sum_{h <= u} min(lam_h, v+1) - #{l : (u, v) >= (q_l, p_l)}.

The formulas hold when the removed points are interior and lie on pairwise
distinct rows and columns, which is how the benchmark picks them.
"""

from collections import Counter


def _extended(lam):
    return list(lam) + [0]


def corners(lam):
    ext = _extended(lam)
    return [(i, ext[i]) for i in range(len(ext)) if i == 0 or ext[i - 1] > ext[i]]


def vertices(lam):
    ext = _extended(lam)
    return [(i, ext[i - 1]) for i in range(1, len(ext)) if ext[i] < ext[i - 1]]


def column_lengths(lam):
    return [sum(1 for length in lam if length > j) for j in range(lam[0])]


def separating_degrees(lam):
    """(q, p) of every point (i, j) of the staircase."""
    cols = column_lengths(lam)
    return {(i, j): (cols[j] - 1, lam[i] - 1) for i in range(len(lam)) for j in range(lam[i])}


def interior_points(lam):
    """Points strictly below some corner in both coordinates."""
    cs = corners(lam)
    return [(i, j) for i in range(len(lam)) for j in range(lam[i])
            if any(i < a and j < b for a, b in cs)]


def betti(lam, removed):
    """(beta0, beta1, beta2) as Counters of bidegrees."""
    b0, b1, b2 = Counter(corners(lam)), Counter(vertices(lam)), Counter()
    for q, p in removed:
        b0[(q, p)] += 1
        b1[(q + 1, p)] += 1
        b1[(q, p + 1)] += 1
        b2[(q + 1, p + 1)] += 1
    return b0, b1, b2


def hilbert(lam, removed, u, v):
    if u < 0 or v < 0:
        return 0
    full = sum(min(length, v + 1) for length in lam[: u + 1])
    return full - sum(1 for q, p in removed if u >= q and v >= p)


def hilbert_matrix(lam, removed, window):
    """hilbert() on every cell of the window."""
    wi, wj = window
    return [[hilbert(lam, removed, u, v) for v in range(wj + 1)] for u in range(wi + 1)]


def delta_matrix(lam, removed, window):
    """First difference c(u,v) of M on the window."""
    wi, wj = window
    m = [[0] * (wj + 2)] + [[0] + row for row in hilbert_matrix(lam, removed, window)]
    return [
        [m[u + 1][v + 1] - m[u][v + 1] - m[u + 1][v] + m[u][v] for v in range(wj + 1)]
        for u in range(wi + 1)
    ]


# The paper's worked example e1 (fixtures/e1_*.json): the staircase of row
# lengths (7,7,7,5,3,2) minus five interior points.
E1_LAM = (7, 7, 7, 5, 3, 2)
E1_REMOVED_POINTS = ((0, 4), (1, 3), (2, 1), (3, 2), (4, 0))
E1_CORNERS = {(6, 0), (5, 2), (4, 3), (3, 5), (0, 7)}
E1_VERTICES = {(6, 2), (5, 3), (4, 5), (3, 7)}
E1_Z_BETTI = (
    Counter({(6, 0): 1, (5, 2): 2, (4, 3): 1, (3, 5): 1, (0, 7): 1,
             (5, 6): 1, (4, 4): 1, (3, 6): 2}),
    Counter({(6, 2): 2, (5, 3): 2, (4, 5): 2, (3, 7): 3, (5, 4): 1,
             (4, 6): 2, (6, 6): 1, (5, 7): 1}),
    Counter({(6, 3): 1, (5, 5): 1, (4, 7): 2, (6, 7): 1}),
)
E1_Z_DELTA = [
    [1, 1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 1, 0, -2, 0],
    [1, 1, 1, 0, -1, 0, 0, 0],
    [1, 1, -1, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
]


def e1_removed():
    degrees = separating_degrees(E1_LAM)
    return [degrees[point] for point in E1_REMOVED_POINTS]


def self_check():
    """Raises AssertionError unless the formulas reproduce the worked example."""
    removed = e1_removed()
    if set(corners(E1_LAM)) != E1_CORNERS or set(vertices(E1_LAM)) != E1_VERTICES:
        raise AssertionError("reference corners/vertices disagree with e1")
    if not set(E1_REMOVED_POINTS) <= set(interior_points(E1_LAM)):
        raise AssertionError("reference calls an e1 removal point a boundary point")
    table = betti(E1_LAM, removed)
    if tuple(sum(level.values()) for level in table) != (10, 14, 5):
        raise AssertionError("reference ranks on e1 are not 10/14/5")
    if table != E1_Z_BETTI:
        raise AssertionError("reference Betti table of e1_Z disagrees with the paper")
    if delta_matrix(E1_LAM, removed, (6, 7)) != E1_Z_DELTA:
        raise AssertionError("reference difference matrix of e1_Z disagrees with the paper")
    if hilbert(E1_LAM, removed, 8, 9) != 26:
        raise AssertionError("reference M of e1_Z does not stabilise at 26 points")
