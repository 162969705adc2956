"""Reduced point configurations on a grid of lines in P1 x P1.

A configuration lives on rows R_0..R_a and columns C_0..C_b; the point
P_ij = R_i cap C_j is in the scheme iff incidence[i][j].  Everything here
is combinatorial; exact line parameters ride along for the oracle.

Bidegrees are plain (i, j) tuples ordered componentwise; "strictly below"
always means strict in BOTH components.
"""

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from numbers import Integral

from .errors import InvalidGrid, NotACM, PointNotInScheme


# Largest number of grid positions (rows x cols) a PointGrid may have.  The
# incidence table is a Python list of that many flags, and the combinatorial
# scans walk all of it; the exact oracle stops being practical far below.
MAX_GRID_CELLS = 2**20


def derived(grid, key, build):
    """build(grid), computed once per PointGrid instance.

    A PointGrid is a namedtuple of tuples, so everything derived from it
    stays valid for the instance's life.  The value sits in the instance
    __dict__, which PointGrid alone among the records keeps (it declares
    no __slots__); ==, hash and repr are the tuple's and never see it.  A
    build that raises stores nothing: the same error is raised again on
    the next call.  Callers copy what they hand out when it is mutable.
    """
    memo = grid.__dict__.setdefault("_derived", {})
    if key not in memo:
        memo[key] = build(grid)
    return memo[key]


def strictly_below(d1, d2):
    """(i1,j1) < (i2,j2) strictly in both components."""
    return d1[0] < d2[0] and d1[1] < d2[1]


class PointGrid(namedtuple("PointGrid", "incidence row_params col_params")):
    """Valid by construction: at least one row and one column, rectangular
    incidence, one exact (see _exact), pairwise distinct parameter per line.
    Empty lines and an empty scheme are allowed; validate reports them.

    incidence: (a+1) rows of (b+1) bools
    row_params: affine parameter t_i of line R_i, pairwise distinct
    col_params: affine parameter u_j of line C_j

    No __slots__: derived keeps its memo in the instance __dict__.
    """

    def __new__(cls, incidence, row_params, col_params):
        inc = tuple(_sequence(row, "incidence row")
                    for row in _sequence(incidence, "incidence"))
        if not inc or not inc[0]:
            raise InvalidGrid("grid must have at least one row and one column")
        nc = len(inc[0])
        if any(len(row) != nc for row in inc):
            raise InvalidGrid("ragged incidence matrix")
        rows = tuple(map(_exact, _sequence(row_params, "row_params")))
        cols = tuple(map(_exact, _sequence(col_params, "col_params")))
        for name, params, n in (("row", rows, len(inc)), ("col", cols, nc)):
            if len(params) != n:
                raise InvalidGrid("%s_params has %d entries for %d lines"
                                  % (name, len(params), n))
            if len(set(params)) != n:
                raise InvalidGrid("duplicate %s line parameters" % name)
        return super().__new__(cls, inc, rows, cols)

    @classmethod
    def _make(cls, iterable):
        """Validates, so _replace does too."""
        return cls(*iterable)

    @staticmethod
    def from_points(nrows, ncols, points, row_params=None, col_params=None):
        """The grid of nrows x ncols lines carrying `points`; at most
        MAX_GRID_CELLS positions, checked before anything is allocated."""
        if nrows < 1 or ncols < 1:
            raise InvalidGrid("grid must have at least one row and one column")
        if nrows * ncols > MAX_GRID_CELLS:
            raise InvalidGrid("a %dx%d grid exceeds the cap of %d positions"
                              % (nrows, ncols, MAX_GRID_CELLS))
        inc = [[False] * ncols for _ in range(nrows)]
        for (i, j) in points:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise InvalidGrid("point (%d,%d) outside the %dx%d grid" % (i, j, nrows, ncols))
            if inc[i][j]:
                raise InvalidGrid("duplicate point (%d,%d)" % (i, j))
            inc[i][j] = True
        return PointGrid(inc, range(nrows) if row_params is None else row_params,
                         range(ncols) if col_params is None else col_params)

    @property
    def shape(self):
        return (len(self.incidence), len(self.incidence[0]))

    @property
    def npoints(self):
        return sum(sum(row) for row in self.incidence)

    def has_point(self, i, j):
        nr, nc = self.shape
        return 0 <= i < nr and 0 <= j < nc and self.incidence[i][j]

    def points(self):
        """All grid positions carrying a point, in row-major order."""
        return tuple(
            (i, j)
            for i, row in enumerate(self.incidence)
            for j, on in enumerate(row)
            if on
        )

    def row_counts(self):
        return tuple(sum(row) for row in self.incidence)

    def col_counts(self):
        nr, nc = self.shape
        return tuple(sum(self.incidence[i][j] for i in range(nr)) for j in range(nc))

    def without(self, point):
        """The same grid minus one point (shape and line parameters kept)."""
        i, j = point
        if not self.has_point(i, j):
            raise PointNotInScheme("no point at (%d,%d)" % (i, j))
        inc = [list(row) for row in self.incidence]
        inc[i][j] = False
        return PointGrid(inc, self.row_params, self.col_params)


def _sequence(value, what):
    try:
        return tuple(value)
    except TypeError:
        raise InvalidGrid("%s %r is not a sequence" % (what, value)) from None


def _exact(x):
    """Line parameters are kept exact: integers become ints, everything else
    a Fraction of Python ints.  A numpy integer, or a Fraction built from
    them, would otherwise fail in Fraction.__hash__."""
    if isinstance(x, bool):
        raise InvalidGrid("line parameter %r is not a number" % (x,))
    if isinstance(x, int) or (isinstance(x, Fraction) and type(x.numerator) is int
                              and type(x.denominator) is int):
        return x
    if isinstance(x, Integral):
        return int(x)
    try:
        y = Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InvalidGrid("bad line parameter %r" % (x,)) from None
    if type(y.numerator) is int and type(y.denominator) is int:
        return y
    return Fraction(int(y.numerator), int(y.denominator))


def staircase(lengths, ncols=None, **kw):
    """The staircase with row i occupying columns 0..lengths[i]-1."""
    lengths = tuple(lengths)
    if not lengths:
        raise InvalidGrid("a staircase needs at least one row")
    if any(l < 1 for l in lengths) or any(
        lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)
    ):
        raise InvalidGrid("row lengths must be positive and weakly decreasing")
    if ncols is None:
        ncols = max(lengths)
    pts = [(i, j) for i, l in enumerate(lengths) for j in range(l)]
    return PointGrid.from_points(len(lengths), ncols, pts, **kw)


class ValidationReport(namedtuple("ValidationReport", "violations")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.violations


def _violations(grid, allow_empty_lines=False):
    if not allow_empty_lines:
        for i, c in enumerate(grid.row_counts()):
            if c == 0:
                yield "empty line R_%d" % i
        for j, c in enumerate(grid.col_counts()):
            if c == 0:
                yield "empty line C_%d" % j
    if grid.npoints == 0:
        yield "scheme is empty"


def _violation_tuple(grid, allow_empty_lines):
    allow = bool(allow_empty_lines)
    return derived(grid, ("violations", allow),
                   lambda g: tuple(_violations(g, allow)))


def validate(grid, allow_empty_lines=False):
    """Reports empty lines and an empty scheme; PointGrid enforces the rest.

    Multiplicities are structurally 1 (the incidence matrix is boolean),
    so reducedness needs no check.
    """
    return ValidationReport(_violation_tuple(grid, allow_empty_lines))


def require_valid(grid, allow_empty_lines=False):
    bad = _violation_tuple(grid, allow_empty_lines)
    if bad:
        raise InvalidGrid("; ".join(bad))


def is_staircase(grid):
    """True iff rows are left-justified prefixes of non-increasing length >= 1."""
    require_valid(grid, allow_empty_lines=True)
    lengths = grid.row_counts()
    if any(l == 0 for l in lengths):
        return False
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return False
    for row, l in zip(grid.incidence, lengths):
        if not all(row[:l]):
            return False
    return True


class NormalizedGrid(namedtuple("NormalizedGrid", "grid row_perm col_perm")):
    """grid: the PointGrid with its lines sorted
    row_perm: row_perm[k] = original index of the row now at k
    col_perm: the same for columns"""

    __slots__ = ()


def normalize(grid):
    """Sorts rows and columns by decreasing point count (stable)."""
    return derived(grid, "normalize", _normalize)


def line_order(grid):
    """(row order, column order): each line's indices by decreasing point
    count, ties by index.  No validation, so empty lines come last."""
    def order(counts):
        return tuple(sorted(range(len(counts)), key=lambda k: (-counts[k], k)))

    return order(grid.row_counts()), order(grid.col_counts())


def _normalize(grid):
    require_valid(grid)
    row_perm, col_perm = line_order(grid)
    inc = tuple(
        tuple(grid.incidence[i][j] for j in col_perm)
        for i in row_perm
    )
    g = PointGrid(
        incidence=inc,
        row_params=tuple(grid.row_params[i] for i in row_perm),
        col_params=tuple(grid.col_params[j] for j in col_perm),
    )
    return NormalizedGrid(g, row_perm, col_perm)


def is_acm(grid):
    """ACM iff some row/column permutation makes the configuration a staircase."""
    return is_staircase(normalize(grid).grid)


def _staircase_form(grid):
    """The normalized grid, which is a staircase; NotACM if it is not."""
    norm = normalize(grid).grid
    if not is_staircase(norm):
        raise NotACM("configuration is not ACM")
    return norm


def corner_vertex_cells(c):
    """Corner and vertex positions of a 2-D integer array (sorted lex).

    Corner: c_ij <= 0 with c_{i,j-1} = c_{i-1,j} = 1.  Vertex: c_{i-1,j} <= 0,
    c_{i,j-1} <= 0 with c_{i-1,j-1} = 1.  Entries at index -1 count as 1.
    The all-zero array has no corners or vertices.  A staircase's incidence
    matrix padded with one empty row and one empty column is its Delta M,
    so this one rule serves both.
    """
    if not any(any(row) for row in c):
        return [], []
    corners, vertices = [], []
    # row i-1 with the column -1 sentinel in front; row -1 is all sentinels
    up_row = [1] * (len(c[0]) + 1)
    for i, row in enumerate(c):
        row = [1] + list(row)
        for j in range(len(row) - 1):
            here, left, up, diag = row[j + 1], row[j], up_row[j + 1], up_row[j]
            if here <= 0 and left == 1 and up == 1:
                corners.append((i, j))
            if up <= 0 and left <= 0 and diag == 1:
                vertices.append((i, j))
        up_row = row
    return corners, vertices


def _padded_incidence(g):
    return [list(row) + [False] for row in g.incidence] + [[False] * (g.shape[1] + 1)]


def corners_and_vertices(grid):
    """Corner and vertex bidegrees of an ACM configuration (sorted lex).

    Corners: P_{i-1,j} and P_{i,j-1} present, P_ij absent.  Vertices:
    P_{i-1,j} and P_{i,j-1} absent, P_{i-1,j-1} present.  Both are
    computed on the normalized staircase; the bidegrees are intrinsic.
    """
    corners, vertices = derived(grid, "corners_and_vertices", _corners_and_vertices)
    return list(corners), list(vertices)


def _corners_and_vertices(grid):
    norm = _staircase_form(grid)
    return tuple(tuple(cells) for cells in corner_vertex_cells(_padded_incidence(norm)))


class PointKind(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"


class PointClass(namedtuple("PointClass", "position kind row_count col_count")):
    """position: (i, j) in the grid's own coordinates
    kind: a PointKind
    row_count: p+1 = #(X cap R_i)
    col_count: q+1 = #(X cap C_j)"""

    __slots__ = ()

    @property
    def separating_degree(self):
        """(q, p); the unique minimal separating degree when the grid is ACM."""
        return (self.col_count - 1, self.row_count - 1)


def classify_points(grid):
    """Interior/boundary classification of every point of an ACM scheme.

    A point is interior iff some corner dominates it strictly in both
    coordinates (in normalized position); removal of a boundary point
    keeps the scheme ACM, removal of an interior point breaks it.
    """
    return list(derived(grid, "classify_points", _classify_points))


def _classify_points(grid):
    norm = normalize(grid)
    corners, _ = corners_and_vertices(grid)
    rcount = grid.row_counts()
    ccount = grid.col_counts()
    # reach[i]: the largest column of a corner in row i or below (corners
    # lie on the padded staircase, rows 0..nr), a suffix maximum
    nr = grid.shape[0]
    reach = [0] * (nr + 2)
    for ci, cj in corners:
        reach[ci] = max(reach[ci], cj)
    for i in range(nr, -1, -1):
        reach[i] = max(reach[i], reach[i + 1])
    out = {}
    for ni, row in enumerate(norm.grid.incidence):
        for nj, on in enumerate(row):
            if not on:
                continue
            interior = nj < reach[ni + 1]
            oi, oj = norm.row_perm[ni], norm.col_perm[nj]
            out[(oi, oj)] = PointClass(
                position=(oi, oj),
                kind=PointKind.INTERIOR if interior else PointKind.BOUNDARY,
                row_count=rcount[oi],
                col_count=ccount[oj],
            )
    return tuple(out[pos] for pos in sorted(out))
