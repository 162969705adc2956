"""Bigraded Hilbert matrices M_X and first differences Delta M_X = (c_ij).

Matrices are materialized on the window (0..a+2) x (0..b+2) so that the
stable region (value deg X for M, zeros for Delta) is visible inside the
window and boundary conditions can be checked rather than assumed.
Accessors clamp/zero-extend beyond the window.

The window is stored as `rows`, a tuple of equal-length tuples of Python
ints; the constructors take any 2-d integer sequence, an ndarray included.
`entries` is the same window as a read-only int64 ndarray, built from the
tuples on each access for callers that want array arithmetic.  Everything
else here computes on the tuples, so numpy is imported only by `entries`,
check_T0 and the delta_row/delta_col views.
"""

from dataclasses import dataclass
from itertools import accumulate as _prefix_sums
from itertools import chain
from operator import add, index, le, sub

from .errors import InvalidMatrix, NonPositiveEntry
from .grid import ValidationReport, _staircase_form, corner_vertex_cells, derived


def _integer(x):
    """A matrix entry as an int: numpy integers pass; bool, float and str do not."""
    if not isinstance(x, bool):
        try:
            return index(x)
        except TypeError:
            pass
    raise InvalidMatrix("matrix entry %r is not an integer" % (x,))


def _not_2d(shape):
    return InvalidMatrix("expected a nonempty 2-d matrix, got shape %s" % (shape,))


def _freeze(entries):
    """Any 2-d integer sequence (an ndarray included) -> tuple of int tuples."""
    shape = getattr(entries, "shape", None)
    if shape is not None:  # an ndarray: its own shape, and Python scalars from tolist
        if len(shape) != 2 or 0 in shape:
            raise _not_2d(shape)
        entries = entries.tolist()
    try:
        rows = [tuple(row) for row in entries]
    except TypeError:  # a scalar, or a sequence of scalars
        raise _not_2d((len(entries),) if hasattr(entries, "__len__") else ()) from None
    if not rows:
        raise _not_2d((0,))
    nc = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != nc:
            raise InvalidMatrix("ragged matrix: row %d has %d entries, row 0 has %d"
                                % (i, len(row), nc))
    if not nc:
        raise _not_2d((len(rows), 0))
    if set(map(type, chain.from_iterable(rows))) != {int}:
        rows = [tuple(map(_integer, row)) for row in rows]
    return tuple(rows)


def _ndarray(rows):
    import numpy as np

    arr = np.array(rows, dtype=np.int64)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class HilbertMatrix:
    rows: tuple             # m_ij on the window, one tuple of ints per row
    degree: int             # deg X, the stable value

    def __post_init__(self):
        rows = _freeze(self.rows)
        object.__setattr__(self, "rows", rows)
        # with monotonicity, 0 <= m_00 makes every entry nonnegative
        if len(rows) < 2 or len(rows[0]) < 2 or not 0 <= rows[0][0] <= 1:
            raise InvalidMatrix("Hilbert matrix needs a 2x2 window and 0 <= m_00 <= 1")
        if not (all(all(map(le, row, row[1:])) for row in rows)
                and all(all(map(le, up, down)) for up, down in zip(rows, rows[1:]))):
            raise InvalidMatrix("Hilbert matrix is not monotone")
        # the window must reach the stable region, whose value is the degree
        if rows[-1] != rows[-2] or any(row[-1] != row[-2] for row in rows) \
                or rows[-1][-1] != self.degree:
            raise InvalidMatrix("Hilbert matrix window does not reach the stable value %d"
                                % self.degree)

    @property
    def entries(self):
        """m_ij on the window as a read-only int64 ndarray."""
        return _ndarray(self.rows)

    @property
    def window(self):
        return (len(self.rows) - 1, len(self.rows[0]) - 1)

    def m(self, i, j):
        if i < 0 or j < 0:
            return 0
        wi, wj = self.window
        return self.rows[min(i, wi)][min(j, wj)]


@dataclass(frozen=True)
class DeltaMatrix:
    rows: tuple             # c_ij on the window; zero outside

    def __post_init__(self):
        # permissive by design: check_T0 must accept arbitrary matrices
        object.__setattr__(self, "rows", _freeze(self.rows))

    @property
    def entries(self):
        """c_ij on the window as a read-only int64 ndarray."""
        return _ndarray(self.rows)

    @property
    def window(self):
        return (len(self.rows) - 1, len(self.rows[0]) - 1)

    @property
    def degree(self):
        return sum(map(sum, self.rows))

    def c(self, i, j):
        wi, wj = self.window
        if 0 <= i <= wi and 0 <= j <= wj:
            return self.rows[i][j]
        return 0

    @property
    def delta_row(self):
        """a_ij = m_ij - m_{i,j-1} = sum_{s<=i} c_sj on the window."""
        import numpy as np

        return np.cumsum(self.entries, axis=0)

    @property
    def delta_col(self):
        """b_ij = m_ij - m_{i-1,j} = sum_{t<=j} c_it on the window."""
        import numpy as np

        return np.cumsum(self.entries, axis=1)


def accumulate(D):
    """m_ij = sum_{h<=i, k<=j} c_hk."""
    m, up = [], (0,) * len(D.rows[0])
    for row in D.rows:
        up = tuple(map(add, up, _prefix_sums(row)))
        m.append(up)
    return HilbertMatrix(m, degree=up[-1])


def delta(M):
    """c_ij = m_ij - m_{i-1,j} - m_{i,j-1} + m_{i-1,j-1}."""
    # HilbertMatrix checks that M is stable on its window, so the support
    # sits strictly inside
    up = (0,) * len(M.rows[0])
    out = []
    for row in M.rows:
        down = tuple(map(sub, row, up))  # b_ij = m_ij - m_{i-1,j}
        out.append(tuple(map(sub, down, (0,) + down[:-1])))
        up = row
    return DeltaMatrix(out)


def hilbert_acm(grid):
    """M_X of an ACM configuration: Delta M_X is the staircase indicator."""
    return derived(grid, "hilbert_acm", _hilbert_acm)


def _hilbert_acm(grid):
    norm = _staircase_form(grid)
    nc = norm.shape[1]
    d = [[int(on) for on in row] + [0, 0] for row in norm.incidence]
    d += [[0] * (nc + 2)] * 2
    return accumulate(DeltaMatrix(d))


def check_T0(D):
    """Checks the three realizability conditions on a first difference.

    (1) c_ij <= 1; (2) nonpositive entries propagate to all dominating
    positions; (3) the single differences b_ij = sum_{t<=j} c_it satisfy
    0 <= b_ij and b_ij <= b_{i-1,j} (and transposed for a_ij).  The upper
    bound in (3) only applies from the second row/column on.  Reports
    every violated cell.
    """
    import numpy as np

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


def puncture_hilbert(M, r, s):
    """Removes a point with unique minimal separating degree (r,s):
    subtracts 1 from every m_ij with (i,j) >= (r,s).

    Raises NonPositiveEntry when HilbertMatrix rejects the result (a
    negative entry, or a difference going negative), which signals that
    (r,s) is not a valid separating degree for M.
    """
    wi, wj = M.window
    if not (0 <= r <= wi and 0 <= s <= wj):
        raise ValueError("puncture degree (%d,%d) outside the window (%d,%d)" % (r, s, wi, wj))
    # no special frontier handling: stabilization forces the last two rows and
    # columns equal, so a puncture there always breaks monotonicity
    e = M.rows[:r] + tuple(row[:s] + tuple(x - 1 for x in row[s:]) for row in M.rows[r:])
    try:
        return HilbertMatrix(e, degree=M.degree - 1)
    except InvalidMatrix as err:
        raise NonPositiveEntry("puncture at (%d,%d) leaves no Hilbert matrix: %s"
                               % (r, s, err)) from None


def delta_corners_vertices(D):
    """Corner and vertex positions of a first-difference matrix (sorted lex).

    Corner: c_ij <= 0 with c_{i,j-1} = c_{i-1,j} = 1.  Vertex: c_{i-1,j} <= 0,
    c_{i,j-1} <= 0 with c_{i-1,j-1} = 1.  Sentinel entries at index -1 count
    as 1.  The all-zero matrix (empty scheme) has no corners or vertices.
    The rule is grid.corner_vertex_cells, the one the staircase test uses,
    applied to the window.
    """
    return corner_vertex_cells(D.rows)
