"""Brute-force verification over an exact field.

Everything here is evaluation-based: a form of bidegree (u,v) is identified
with its vector of values at the scheme's points (row R_i is [1 : t_i],
column C_j is [1 : u_j], so x0 and y0 evaluate to 1, x1 to t and y1 to u).
The value space V_(u,v) inside k^N is the column space of the evaluation
matrix; its dimension is the Hilbert function.  A separator, a product of
lines, is checked the same way, on the values of its lines at the points
(verify_separator).

Value spaces (proof in _Spaces).  On the full grid the reduced echelon rows
of V_(u,v) are the products R_u[a] (x) S_v[b] of the rrefs of the row and
column Vandermonde matrices, each written down as products of lines, the
split curves of the paper (proof in _vandermonde_rrefs).  On the points
only the products whose pivot is a hole are eliminated: they vanish on the
points of their box, so each cell costs one small hole elimination whose
pivots lie outside it.  _Spaces builds the grid's own index range u < nr,
v < nc once and reads every wider cell through the clamp
V_(u,v) = V_(min(u,nr-1), min(v,nc-1)) (proof in betti_oracle).  Hilbert
matrices and drop sets are reported on (nr+1, nc+1), the window of
hilbert_acm.  The echelons are taken with the lines relabelled by
descending point count, so the columns are the points in an order of
_Spaces' choosing.  No answer depends on that order: a permutation of the
coordinates maps every V_(u,v) onto the value space of the same points in
the other order and commutes with multiplying by t and u, so it keeps every
dimension, every unit vector e_P in a space (the drop sets) and every rank
of the Koszul complex.

Betti numbers (proof in betti_oracle) come from Koszul homology on the
bidegrees up to (nr, nc), which hold them all.  x0 is a nonzerodivisor on
the coordinate ring, so Tor can be computed either from the full
four-variable complex on the V's ("direct" engine) or from the
three-variable complex on the quotients N'_(u,v) = V_(u,v)/V_(u-1,v)
("reduced" engine, the default: much smaller blocks), whose bases are the
rows of V_(u,v)'s echelon with the pivots it adds to V_(u-1,v)'s (a
subspace's pivots are among the space's).  The reduced engine reads its
rows i >= 1 off the kernel of x1 and takes ranks only where the dimensions
do not give the answer.  The matrices of the variables are built per target
component (_KoszulModule._maps_into), and _KoszulModule fixes the layout of
the complex (subsets, degree shifts, faces and signs) once, so each
bidegree only reads it.

Over the rationals the field computes on integers (see fields.py), and
each value here is an exact one times a nonzero factor that leaves every
answer as it is:
- convert_params multiplies the row parameters by one integer D and the
  column parameters by one integer E.  The monomial row t^a u^b is then
  scaled by D^a E^b, so every V_(u,v) is the same space, and Koszul
  homology on (D x1, y0, E y1) is isomorphic to that on (x1, y0, y1).  A
  separator's values are scaled by D^r E^s, with r and s its numbers of
  row and column lines, so the same values vanish.
- Echelon row l of a space is c_l > 0 times its reduced row.  Pivots,
  dimensions and unit rows (drop_sets) do not see the c_l.  A component's
  basis is fixed once, so each basis vector carries its own factor c_l in
  every block it is the source of.
- reduce_rows(W, ech) returns L times the exact reduction, with L the lcm
  of ech's pivot entries.  The coordinates of every map into component
  (u',v') come from one quotient_coords: the images reduced modulo its
  submodule V_(u'-1,v') and read at the pivots of its basis, which is L
  times the exact reduction with L that of V_(u'-1,v').  So the
  coordinates are the exact ones times a factor fixed by the target
  component and shared by every source that maps into it.
Every Koszul differential is therefore the exact one with each source row
scaled by its c_l and each target component's columns by its L, and every
rank is unchanged.  A factor chosen per row of W would break this: one
source vector would carry a different factor in each block it meets.
"""

from collections import Counter
from itertools import accumulate, combinations

import numpy as np

from .errors import InvalidGrid, OracleInconsistency
from .fields import Echelon, default_field
from .grid import line_order, require_valid
from .hilbert import HilbertMatrix
from .resolution import BettiTable


def _vandermonde_rrefs(field, params, kind):
    """[R_0, R_1, ...]: R_u is the rref of the Vandermonde rows t**a, a <= u,
    on the distinct nodes t_0, t_1, ... = params, in closed form.

    The rref is unique, and its row a is the one vector in the row space
    that is 1 at column a and 0 at the other columns b <= u: the Lagrange
    polynomial prod_(b <= u, b != a) (t - t_b) / (t_a - t_b), a product of
    lines.  Up to a nonzero factor per row, R_u[:u] is R_(u-1) times the
    line t - t_u, and R_u[u] is R_(u-1)[u-1] times t - t_(u-1), the running
    product of t - t_b over b < u; field.echelon puts each row in the
    field's canonical form.  Columns 0..u of R_u must be diagonal with a
    nonzero diagonal.
    """
    t = field.vector(params)
    rows = field.vector([1] * len(t))[None]
    out = []
    for u in range(len(t)):
        if u:
            # over GF(p) a line's values lie in (-p, p), so each product
            # with a residue is at most (p-1)**2 < 2**63 in size
            rows = np.concatenate((field.multiply(out[-1], t - t[u]),
                                   field.multiply(out[-1][-1:], t - t[u - 1])))
        rows = field.echelon(rows, range(u + 1)).rows
        box = rows[:, : u + 1]
        if not np.count_nonzero(box.diagonal()) == np.count_nonzero(box) == u + 1:
            raise OracleInconsistency("the %s Vandermonde rref of degree %d is not a nonzero "
                                      "diagonal on columns 0..%d" % (kind, u, u))
        out.append(rows)
    return out


class _Spaces:
    """Echelon bases of the value spaces V_(u,v) on the grid's index range
    u < nr, v < nc, built from the grid's tensor structure; every other
    cell is read through at().  field=None picks default_field for the
    grid's number of points.

    Rows and columns are relabelled by descending point count, ties broken
    by index (grid.line_order), and the points are ordered row-major in the
    relabelled grid: that is the column order of every echelon, and
    points[n] is the original position of column n.  R_u is the rref of the
    row Vandermonde t^a, a <= u, on all nr row parameters; they are
    distinct, so its pivots are 0..u (_vandermonde_rrefs writes it down).
    S_v is the same for the columns.
    On the full grid the rows R_u[a] (x) S_v[b] are the rref of V_(u,v):
    row (a,b) is nonzero at cell (a,b), 0 at every other cell of the box
    a' <= u, b' <= v, and 0 at every cell before (a,b) in row-major order.
    On the points:
    - a kept row, whose pivot (a,b) is a point, keeps that pivot and is 0 on
      the box's other points;
    - a hole row, whose pivot is a hole, is 0 on all the box's points.
    So only the hole rows are eliminated.  Their columns at the box's points
    are zero, and an elimination takes no pivot in a zero column, so their
    rref's pivots lie outside the box, and one reduce_rows clears them from
    the kept rows.  That leaves each kept row's box entries as they were,
    and its entries before its pivot 0: a hole pivot before it has
    coefficient 0 there.  Merged by pivot, the kept and hole rows are
    reduced, in echelon form and span V_(u,v): they are its rref, which is
    unique, so it equals the elimination of all its monomial rows in this
    column order (field.echelon puts each row in the field's canonical
    form).  An ACM scheme relabelled this way is a staircase, and its hole
    rows vanish on every point.  Both facts the construction rests on are
    checked: a Vandermonde rref that is not a nonzero diagonal on columns
    0..u, or a kept row without its pivot, raises OracleInconsistency.
    """

    def __init__(self, grid, field=None):
        require_valid(grid, allow_empty_lines=True)
        self.field = field = field or default_field(grid.npoints)
        self.shape = nr, nc = grid.shape
        self.window = (nr + 1, nc + 1)
        rows, cols = line_order(grid)
        occupied = np.array([[grid.incidence[i][j] for j in cols] for i in rows])
        pa, pb = occupied.nonzero()
        self.points = tuple((rows[a], cols[b]) for a, b in zip(pa.tolist(), pb.tolist()))
        npts = len(self.points)
        index = np.full((nr, nc), -1)
        index[pa, pb] = np.arange(npts)
        ts = field.convert_params(grid.row_params)
        us = field.convert_params(grid.col_params)
        self.tvals = field.vector([ts[i] for (i, _) in self.points])
        self.uvals = field.vector([us[j] for (_, j) in self.points])
        self.empty = Echelon(field.zeros(0, npts), ())
        # R_u and S_v valued at the points: column n holds R_u[:, pa[n]]
        rvals = [r[:, pa] for r in _vandermonde_rrefs(field, [ts[i] for i in rows], "row")]
        svals = [s[:, pb] for s in _vandermonde_rrefs(field, [us[j] for j in cols], "column")]
        self.ech = {}
        for u in range(nr):
            for v in range(nc):
                box = index[: u + 1, : v + 1]
                kept = box[box >= 0]
                pivots = kept.tolist()
                ech = field.multiply(rvals[u][pa[kept]], svals[v][pb[kept]])
                ha, hb = (box < 0).nonzero()
                hole = self.empty
                if ha.size:
                    hole = field.rref(field.multiply(rvals[u][ha], svals[v][hb]))
                    # only the kept rows with an entry at a hole pivot change
                    hit = (ech[:, list(hole.pivots)] != 0).any(axis=1).nonzero()[0]
                    if hit.size:
                        ech[hit] = field.reduce_rows(ech[hit], hole)
                if not ech[np.arange(len(kept)), kept].all():
                    raise OracleInconsistency("a kept row of V_(%d,%d) lost its pivot" % (u, v))
                if hole.pivots:
                    merged = pivots + list(hole.pivots)
                    order = sorted(range(len(merged)), key=merged.__getitem__)
                    ech = np.concatenate((ech, hole.rows))[order]
                    pivots = [merged[l] for l in order]
                self.ech[(u, v)] = field.echelon(ech, pivots)

    def cell(self, u, v):
        """The cell of the grid's index range that V_(u,v) is read from, for
        u, v >= 0: the clamp."""
        nr, nc = self.shape
        return (min(u, nr - 1), min(v, nc - 1))

    def at(self, u, v):
        """Echelon basis of V_(u,v): empty below 0, clamped into the grid's
        index range above it."""
        if u < 0 or v < 0:
            return self.empty
        return self.ech[self.cell(u, v)]

    def dim(self, u, v):
        return len(self.at(u, v).pivots)

    def hilbert(self):
        """M on the window (nr+1, nc+1) of hilbert_acm."""
        wi, wj = self.window
        m = [[self.dim(i, j) for j in range(wj + 1)] for i in range(wi + 1)]
        return HilbertMatrix(m, degree=len(self.points))


def hilbert_oracle(grid, field=None):
    """M(i,j) = rank of the evaluation matrix, on the window (nr+1, nc+1)."""
    return _Spaces(grid, field).hilbert()


def _upset_root(cells, window):
    """The unique minimal element if cells is exactly its up-set, else None."""
    if not cells:
        return None
    mins = [
        c
        for c in cells
        if not any(d != c and d[0] <= c[0] and d[1] <= c[1] for d in cells)
    ]
    if len(mins) != 1:
        return None
    r, s = mins[0]
    wi, wj = window
    expected = {(i, j) for i in range(r, wi + 1) for j in range(s, wj + 1)}
    return (r, s) if cells == expected else None


def separating_degree_oracle(grid_Y, point, field=None):
    """Unique minimal separating degree of a point of Y, or None.

    Computes H_Y and H_{Y minus P} on the window literally; the drop set
    must be exactly the up-set of a single bidegree.
    """
    field = field or default_field(grid_Y.npoints)
    m_y = hilbert_oracle(grid_Y, field)
    m_z = hilbert_oracle(grid_Y.without(point), field)
    diff = m_y.entries - m_z.entries
    if not ((diff == 0) | (diff == 1)).all():
        raise OracleInconsistency("removing one point changed a dimension by more than 1")
    cells = {(int(i), int(j)) for i, j in zip(*np.nonzero(diff))}
    return _upset_root(cells, m_y.window)


def drop_sets(grid, field=None):
    """All separating drop sets at once: point -> {(i,j) : rank drops}.

    Deleting point P's coordinate loses a dimension exactly when the unit
    vector e_P lies in V_(i,j); in a fully reduced echelon basis that means
    P is a pivot column whose basis row is e_P itself.  Each echelon of the
    grid's index range is scanned once, and every cell of the window reads
    the one the clamp maps it to.
    """
    spaces = _Spaces(grid, field)
    units = {}
    for key, ech in spaces.ech.items():
        unit = ((ech.rows != 0).sum(axis=1) == 1).nonzero()[0]
        units[key] = [spaces.points[ech.pivots[l]] for l in unit.tolist()]
    drops = {pos: set() for pos in spaces.points}
    wi, wj = spaces.window
    for u in range(wi + 1):
        for v in range(wj + 1):
            for pos in units[spaces.cell(u, v)]:
                drops[pos].add((u, v))
    return drops


class _KoszulModule:
    """Graded components, variable action and Koszul layout for one engine.

    reduced: components N'_(u,v) = V_(u,v)/V_(u-1,v), variables x1, y0, y1.
    direct:  components V_(u,v), variables x0, x1, y0, y1.

    mult(z, u, v) reads the matrix of variable z from component (u,v).  The
    matrices are built per target component: the first request for a map
    into (u',v') builds every variable's map into it (_maps_into).

    The layout of the Koszul complex is fixed here once: levels[k] lists,
    for each k-subset T of the variables in combinations order, its degree
    shift (the sum of its variables' degrees) and its faces, one
    (variable T[l], index of T minus T[l] among the (k-1)-subsets, l odd)
    per l; an odd l is the sign -1.
    """

    def __init__(self, spaces, reduced=True):
        self.spaces = spaces
        self.field = spaces.field
        self.reduced = reduced
        # x0 and y0 evaluate to 1 at every point: their scale is None, and
        # multiplying by them keeps the values as they are
        x1, y0, y1 = ((1, 0), spaces.tvals), ((0, 1), None), ((0, 1), spaces.uvals)
        self.vars = (x1, y0, y1) if reduced else (((1, 0), None), x1, y0, y1)
        degs = [d for d, _ in self.vars]
        subsets = [list(combinations(range(len(degs)), k)) for k in range(len(degs) + 1)]
        index = [{T: n for n, T in enumerate(level)} for level in subsets]

        def shift(T):
            return (sum(degs[t][0] for t in T), sum(degs[t][1] for t in T))

        def faces(T):
            k = len(T)
            return [(T[l], index[k - 1][T[:l] + T[l + 1 :]], l % 2) for l in range(k)]

        self.levels = [[(shift(T), faces(T)) for T in level] for level in subsets]
        self._comp = {}
        self._mult = {}

    def _component(self, u, v):
        """(submodule echelon to quotient by, basis echelon of the component)."""
        key = (u, v)
        if key in self._comp:
            return self._comp[key]
        ech = self.spaces.at(u, v)
        if not self.reduced:
            out = (self.spaces.empty, ech)
        else:
            sub = self.spaces.at(u - 1, v)
            old = set(sub.pivots)
            keep = [l for l, c in enumerate(ech.pivots) if c not in old]
            if len(keep) != len(ech.pivots) - len(old):
                raise OracleInconsistency(
                    "pivots of V_(%d,%d) are not among those of V_(%d,%d)" % (u - 1, v, u, v))
            out = (sub, Echelon(ech.rows[keep], tuple(ech.pivots[l] for l in keep)))
        self._comp[key] = out
        return out

    def dim(self, u, v):
        return len(self._component(u, v)[1].pivots)

    def mult(self, z, u, v):
        """Matrix of multiplication by variable z from component (u,v)."""
        key = (z, u, v)
        if key not in self._mult:
            (du, dv), _ = self.vars[z]
            self._maps_into(u + du, v + dv)
        return self._mult[key]

    def _maps_into(self, u, v):
        """Builds the matrix of every variable into component (u,v) at once.

        The images of all source bases are stacked and passed to
        field.quotient_coords once: None means an image outside V_(u,v),
        and otherwise it gives the images modulo the submodule, read at the
        basis's pivots.
        """
        field = self.field
        sub, basis = self._component(u, v)
        keys, images = [], []
        for z, ((du, dv), scale) in enumerate(self.vars):
            src = self._component(u - du, v - dv)[1]
            keys.append(((z, u - du, v - dv), len(src.pivots)))
            images.append(src.rows if scale is None else field.multiply(src.rows, scale))
        coords = field.quotient_coords(np.concatenate(images), self.spaces.at(u, v), sub,
                                       basis.pivots)
        if coords is None:
            raise OracleInconsistency("image escapes the target component")
        start = 0
        for key, n in keys:
            self._mult[key] = coords[start : start + n]
            start += n


def _rank_of_d(module, i, j, k, dims):
    """Rank of d_k: C_k -> C_(k-1) of the Koszul complex in bidegree (i,j),
    with dims[k][t] the dimension of the t-th block of C_k."""
    field = module.field
    levels = module.levels
    if not sum(dims[k]) or not sum(dims[k - 1]):
        return 0
    # where each block starts in C_k (rows of d_k) and C_(k-1) (columns)
    rofs = list(accumulate(dims[k], initial=0))
    cofs = list(accumulate(dims[k - 1], initial=0))
    mat = field.zeros(rofs[-1], cofs[-1])
    for t, ((a, b), faces) in enumerate(levels[k]):
        if dims[k][t] == 0:
            continue
        r0, r1 = rofs[t], rofs[t + 1]
        for z, f, odd in faces:
            if dims[k - 1][f] == 0:
                continue
            block = module.mult(z, i - a, j - b)
            # field.rank reduces any representative of -block
            mat[r0:r1, cofs[f] : cofs[f + 1]] = -block if odd else block
    return field.rank(mat)


def _block_dims(module, i, j):
    """dims[k][t]: the dimension of the t-th block of C_k in bidegree (i,j)."""
    return [[module.dim(i - a, j - b) for (a, b), _ in level] for level in module.levels]


def _homology_at(module, i, j):
    """Dimensions (H_0, ..., H_n) of the Koszul complex in bidegree (i,j)."""
    levels = module.levels
    dims = _block_dims(module, i, j)
    kdim = [sum(d) for d in dims]
    ranks = [0] + [_rank_of_d(module, i, j, k, dims) for k in range(1, len(levels))] + [0]
    h = [kdim[k] - ranks[k] - ranks[k + 1] for k in range(len(levels))]
    # Tor_0(S/I, k) is k in degree (0,0): a strong internal consistency check
    if h[0] != (1 if (i, j) == (0, 0) else 0):
        raise OracleInconsistency("Tor_0 is %d in degree (%d,%d)" % (h[0], i, j))
    return h


def _cone_homology_row(module, i, jmax):
    """Dimensions (H_0, ..., H_3) of the reduced engine's Koszul complex in
    the bidegrees (i, 0..jmax) of a row i >= 1, one list per j.

    Checks at each (i,j) that x1 maps N'_(i-1,j) onto N'_(i,j), which
    gives H_0 = 0.  Homology lives on W_i = ker x1 (see betti_oracle):
    H_k = H_(k-1) of W_i(j-2) -> W_i(j-1)^2 -> W_i(j), with
    dim W_i(b) = dim N'_(i-1,b) - dim N'_(i,b).  Where W_i(j-1) = 0 both
    maps vanish and no rank is taken; elsewhere d2 and d3 are ranked, and
    rank d1 = dim N'_(i,j).
    """
    w = []
    for j in range(jmax + 1):
        d = module.dim(i, j)
        if d and module.field.rank(module.mult(0, i - 1, j)) != d:
            raise OracleInconsistency("x1 does not map N'_(%d,%d) onto N'_(%d,%d)"
                                      % (i - 1, j, i, j))
        w.append(module.dim(i - 1, j) - d)
        if j == 0 or not w[j - 1]:
            yield [0, w[j], 0, w[j - 2] if j >= 2 else 0]
            continue
        dims = _block_dims(module, i, j)
        kdim = [sum(dk) for dk in dims]
        r2, r3 = _rank_of_d(module, i, j, 2, dims), _rank_of_d(module, i, j, 3, dims)
        yield [0, kdim[1] - d - r2, kdim[2] - r2 - r3, kdim[3] - r3]


def betti_oracle(grid, field=None, engine="reduced"):
    """True bigraded Betti numbers by Koszul homology.

    beta0 = Tor_1(S/I_X), beta1 = Tor_2, beta2 = Tor_3, all inside the
    window (nr, nc).  Proof: the points take at most nr distinct row values
    (fewer with empty rows), so by interpolation V_(u,v) = V_(nr-1,v) for
    u >= nr-1 and N'_(u,v) = V_(u,v)/V_(u-1,v) is 0 for u >= nr.  The
    Koszul complex of N' on x1, y0, y1 uses x1 at most once, so in degree
    (i,j) its terms lie in N'_(i,.) and N'_(i-1,.), and every Tor_k
    vanishes for i > nr.  Reducing by y0 gives j > nc the same way, and
    V_(u,v) = V_(u,nc-1) for v >= nc-1: the clamp _Spaces.at reads through.

    The reduced engine reads rows i >= 1 off ker x1.  V_(i,j) is
    V_(i-1,j) + t V_(i-1,j), so multiplication by x1 maps N'_(i-1,.) onto
    N'_(i,.), a surjection of k[y0,y1]-modules; its kernel W_i has
    dim W_i(j) = dim N'_(i-1,j) - dim N'_(i,j).  In row i the Koszul
    complex on x1, y0, y1 is the cone of x1 from the Koszul complex on
    y0, y1 of N'_(i-1,.) to that of N'_(i,.), and the cone of a surjective
    chain map is quasi-isomorphic to its kernel shifted by one: the Koszul
    complex K of W_i on y0, y1, W_i(j-2) -> W_i(j-1)^2 -> W_i(j), has
    Tor_k(i,j) = H_(k-1)(K) and Tor_0(i,j) = 0.  Where W_i(j-1) = 0 both
    maps of K vanish: Tor_1 = dim W_i(j), Tor_2 = 0, Tor_3 = dim W_i(j-2).
    _cone_homology_row checks that x1 is onto at each (i,j) (a rank per
    component, in place of the rank of d1) and ranks d2 and d3 elsewhere.
    Row 0 and the direct engine take every rank (_homology_at).  Either
    way every map is built, so every escape check of _maps_into runs.
    """
    if engine not in ("reduced", "direct"):
        raise ValueError("unknown engine %r" % engine)
    spaces = _Spaces(grid, field)
    module = _KoszulModule(spaces, reduced=(engine == "reduced"))
    # counters[k]: dim Tor_k by bidegree; _homology_at checks Tor_0, and
    # _cone_homology_row the surjection of x1 that makes it 0
    counters = [Counter() for _ in range(len(module.vars) + 1)]
    nr, nc = spaces.shape
    for i in range(nr + 1):
        if i and module.reduced:
            row = _cone_homology_row(module, i, nc)
        else:
            row = (_homology_at(module, i, j) for j in range(nc + 1))
        for j, hs in enumerate(row):
            for k, h in enumerate(hs):
                if h:
                    counters[k][(i, j)] = h
    table = BettiTable.make(counters[1], counters[2], counters[3])
    defects = table.hilbert_defects(spaces.hilbert())
    if defects:
        raise OracleInconsistency("Betti table misses the Hilbert function: %s" % defects)
    if engine == "direct" and counters[4]:
        raise OracleInconsistency("nonzero Tor_4: %s" % counters[4])
    return table


def verify_separator(sep, grid_Z, removed, field=None):
    """Checks a separator against a scheme: its product of linear forms must
    vanish on every point of Z, be nonzero at the removed point, and have
    bidegree (#row lines, #col lines) matching the declared degree.

    A product of lines vanishes at a point exactly when one of its lines
    passes through it.  convert_params keeps distinct lines distinct, or
    raises BadField, so the verdict is the same over every field.
    """
    field = field or default_field(grid_Z.npoints + 1)
    require_valid(grid_Z, allow_empty_lines=True)
    nr, nc = grid_Z.shape
    h, k = removed
    if not (0 <= h < nr and 0 <= k < nc):
        raise InvalidGrid("removed point (%d,%d) outside the grid" % (h, k))
    # BadField if the lines collide over the field
    t = field.vector(field.convert_params(grid_Z.row_params))
    u = field.vector(field.convert_params(grid_Z.col_params))
    nrows = sum(1 for kind, _ in sep.lines if kind == "R")
    ncols = len(sep.lines) - nrows
    if (nrows, ncols) != tuple(sep.degree):
        return False
    for kind, idx in sep.lines:
        if (kind == "R" and not 0 <= idx < nr) or (kind == "C" and not 0 <= idx < nc):
            raise InvalidGrid("separator line %s_%d outside the grid" % (kind, idx))

    # the curve's value at (i,j) is a row factor times a column factor, each
    # a running product of lines, which fits in int64 as in _vandermonde_rrefs
    rowf, colf = field.vector([1] * nr), field.vector([1] * nc)
    for kind, idx in sep.lines:
        if kind == "R":
            rowf = field.multiply(rowf, t - t[idx])
        else:
            colf = field.multiply(colf, u - u[idx])
    i, j = np.array(list(grid_Z.points()) + [(h, k)]).T
    values = field.multiply(rowf[i], colf[j])
    return bool(values[-1]) and not values[:-1].any()
