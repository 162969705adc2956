"""Bigraded Hilbert matrices M_X and first differences Delta M_X = (c_ij).

Matrices are materialized on the window (0..a+2) x (0..b+2) so that the
stable region (value deg X for M, zeros for Delta) is visible inside the
window and boundary conditions can be checked rather than assumed.
Accessors clamp/zero-extend beyond the window.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, NonPositiveEntry
from .grid import ValidationReport, _staircase_form, corner_vertex_cells, derived


def _freeze(entries):
    arr = np.array(entries, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InvalidMatrix("expected a nonempty 2-d matrix, got shape %s" % (arr.shape,))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HilbertMatrix:
    entries: np.ndarray     # m_ij on the window
    degree: int             # deg X, the stable value

    def __post_init__(self):
        arr = _freeze(self.entries)
        object.__setattr__(self, "entries", arr)
        # with monotonicity, 0 <= m_00 makes every entry nonnegative
        if arr.shape[0] < 2 or arr.shape[1] < 2 or not 0 <= arr[0, 0] <= 1:
            raise InvalidMatrix("Hilbert matrix needs a 2x2 window and 0 <= m_00 <= 1")
        if (np.diff(arr, axis=0) < 0).any() or (np.diff(arr, axis=1) < 0).any():
            raise InvalidMatrix("Hilbert matrix is not monotone")
        # the window must reach the stable region, whose value is the degree
        if (arr[-1] != arr[-2]).any() or (arr[:, -1] != arr[:, -2]).any() \
                or arr[-1, -1] != self.degree:
            raise InvalidMatrix("Hilbert matrix window does not reach the stable value %d"
                                % self.degree)

    @property
    def window(self):
        return (self.entries.shape[0] - 1, self.entries.shape[1] - 1)

    def m(self, i, j):
        if i < 0 or j < 0:
            return 0
        wi, wj = self.window
        return int(self.entries[min(i, wi), min(j, wj)])


@dataclass(frozen=True)
class DeltaMatrix:
    entries: np.ndarray     # c_ij on the window; zero outside

    def __post_init__(self):
        # permissive by design: check_T0 must accept arbitrary matrices
        object.__setattr__(self, "entries", _freeze(self.entries))

    @property
    def window(self):
        return (self.entries.shape[0] - 1, self.entries.shape[1] - 1)

    @property
    def degree(self):
        return int(self.entries.sum())

    def c(self, i, j):
        wi, wj = self.window
        if 0 <= i <= wi and 0 <= j <= wj:
            return int(self.entries[i, j])
        return 0

    @property
    def delta_row(self):
        """a_ij = m_ij - m_{i,j-1} = sum_{s<=i} c_sj on the window."""
        return np.cumsum(self.entries, axis=0)

    @property
    def delta_col(self):
        """b_ij = m_ij - m_{i-1,j} = sum_{t<=j} c_it on the window."""
        return np.cumsum(self.entries, axis=1)


def accumulate(D):
    """m_ij = sum_{h<=i, k<=j} c_hk."""
    m = np.cumsum(np.cumsum(D.entries, axis=0), axis=1)
    return HilbertMatrix(m, degree=int(m[-1, -1]))


def delta(M):
    """c_ij = m_ij - m_{i-1,j} - m_{i,j-1} + m_{i-1,j-1}."""
    p = np.pad(M.entries, ((1, 0), (1, 0)))
    # HilbertMatrix checks that M is stable on its window, so the support
    # sits strictly inside
    return DeltaMatrix(p[1:, 1:] - p[:-1, 1:] - p[1:, :-1] + p[:-1, :-1])


def hilbert_acm(grid):
    """M_X of an ACM configuration: Delta M_X is the staircase indicator."""
    return derived(grid, "hilbert_acm", _hilbert_acm)


def _hilbert_acm(grid):
    norm = _staircase_form(grid)
    nr, nc = norm.shape
    d = np.zeros((nr + 2, nc + 2), dtype=np.int64)
    for i, row in enumerate(norm.incidence):
        for j, on in enumerate(row):
            if on:
                d[i, j] = 1
    return accumulate(DeltaMatrix(d))


def check_T0(D):
    """Checks the three realizability conditions on a first difference.

    (1) c_ij <= 1; (2) nonpositive entries propagate to all dominating
    positions; (3) the single differences b_ij = sum_{t<=j} c_it satisfy
    0 <= b_ij and b_ij <= b_{i-1,j} (and transposed for a_ij).  The upper
    bound in (3) only applies from the second row/column on.  Reports
    every violated cell.
    """
    c = D.entries
    bad = []
    for (i, j) in zip(*np.nonzero(c > 1)):
        bad.append("(1) c[%d,%d] = %d > 1" % (i, j, c[i, j]))
    # suffix maxima over the dominating quadrant of each cell
    suf = np.flip(np.maximum.accumulate(np.maximum.accumulate(np.flip(c), axis=0), axis=1))
    for (i, j) in zip(*np.nonzero((c <= 0) & (suf > 0))):
        bad.append("(2) c[%d,%d] <= 0 but a positive entry dominates it" % (i, j))
    for name, single in (("b", D.delta_col), ("a", D.delta_row.T)):
        axis = "rows" if name == "b" else "columns"
        for (i, j) in zip(*np.nonzero(single < 0)):
            cell = (i, j) if name == "b" else (j, i)
            bad.append("(3) %s[%d,%d] = %d < 0" % (name, cell[0], cell[1], single[i, j]))
        for (i, j) in zip(*np.nonzero(single[1:] > single[:-1])):
            cell = (i + 1, j) if name == "b" else (j, i + 1)
            bad.append("(3) %s increases between consecutive %s at (%d,%d)" % (name, axis, cell[0], cell[1]))
    return ValidationReport(tuple(bad))


def boundary_functions(M):
    """The stabilization indices i(j) = min{t : m_tj = m_{t+1,j}} and j(i)."""
    wi, wj = M.window

    def i_of(j):
        for t in range(wi):
            if M.m(t, j) == M.m(t + 1, j):
                return t
        return wi

    def j_of(i):
        for t in range(wj):
            if M.m(i, t) == M.m(i, t + 1):
                return t
        return wj

    return i_of, j_of


def puncture_hilbert(M, r, s):
    """Removes a point with unique minimal separating degree (r,s):
    subtracts 1 from every m_ij with (i,j) >= (r,s).

    Raises NonPositiveEntry when the subtraction would break the shape of
    a Hilbert function (a negative entry, or a difference going negative),
    which signals that (r,s) is not a valid separating degree for M.
    """
    wi, wj = M.window
    if not (0 <= r <= wi and 0 <= s <= wj):
        raise ValueError("puncture degree (%d,%d) outside the window (%d,%d)" % (r, s, wi, wj))
    # no special frontier handling: stabilization forces the last two rows and
    # columns equal, so a puncture there always fails the monotonicity check
    e = np.array(M.entries)
    e[r:, s:] -= 1
    if (e < 0).any():
        raise NonPositiveEntry("puncture at (%d,%d) drives an entry negative" % (r, s))
    if (np.diff(e, axis=0) < 0).any() or (np.diff(e, axis=1) < 0).any():
        raise NonPositiveEntry("puncture at (%d,%d) breaks monotonicity" % (r, s))
    return HilbertMatrix(e, degree=M.degree - 1)


def delta_corners_vertices(D):
    """Corner and vertex positions of a first-difference matrix (sorted lex).

    Corner: c_ij <= 0 with c_{i,j-1} = c_{i-1,j} = 1.  Vertex: c_{i-1,j} <= 0,
    c_{i,j-1} <= 0 with c_{i-1,j-1} = 1.  Sentinel entries at index -1 count
    as 1.  The all-zero matrix (empty scheme) has no corners or vertices.
    The rule is grid.corner_vertex_cells, the one the staircase test uses,
    applied to the window.
    """
    return corner_vertex_cells(D.entries.tolist())
