"""Brute-force verification over an exact field.

Everything here is evaluation-based: a form of bidegree (u,v) is identified
with its vector of values at the scheme's points (row R_i is [1 : t_i],
column C_j is [1 : u_j], so x0 and y0 evaluate to 1, x1 to t and y1 to u).
The value space V_(u,v) inside k^N is the column space of the evaluation
matrix; its dimension is the Hilbert function.  Betti numbers come from
Koszul homology: since x0 is a nonzerodivisor on the coordinate ring, Tor
can be computed either from the full four-variable complex on the V's
("direct" engine) or from the three-variable complex on the quotients
V_(u,v)/V_(u-1,v) ("reduced" engine, the default — much smaller blocks),
whose bases are the rows with the pivots V_(u,v) adds to V_(u-1,v) in the
chain of echelon bases that _Spaces grows along u.
Everything depends on the grid alone.  _Spaces eliminates the grid's own
index range u < nr, v < nc once and reads every wider cell through the
clamp V_(u,v) = V_(min(u,nr-1), min(v,nc-1)) (proof in betti_oracle).
Betti numbers come from the bidegrees up to (nr, nc), which hold them all;
Hilbert matrices and drop sets are reported on (nr+1, nc+1), the window of
hilbert_acm.

Over the rationals the field computes on integers (see fields.py), and
each value here is an exact one times a nonzero factor that leaves every
answer as it is:
- convert_params multiplies the row parameters by one integer D and the
  column parameters by one integer E.  The monomial row t^a u^b is then
  scaled by D^a E^b, so every V_(u,v) is the same space, and Koszul
  homology on (D x1, y0, E y1) is isomorphic to that on (x1, y0, y1).
- Echelon row l of a space is c_l > 0 times its reduced row.  Pivots,
  dimensions and unit rows (drop_sets) do not see the c_l.  A component's
  basis is fixed once, so each basis vector carries its own factor c_l in
  every block it is the source of.
- reduce_rows(W, ech) returns L times the exact reduction, with L fixed by
  ech alone.  The coordinates mult reads in component (u',v') are the exact
  ones times the L of its submodule V_(u'-1,v'), a factor fixed by the
  target component.
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
from .grid import require_valid
from .hilbert import HilbertMatrix
from .resolution import BettiTable


def _powers(field, vals, kmax):
    """Array (kmax+1, N) whose row k holds vals**k."""
    rows = [field.vector([1] * vals.shape[0])]
    for _ in range(kmax):
        rows.append(field.scale_columns(rows[-1][None, :], vals)[0])
    return np.vstack(rows)


class _Spaces:
    """Echelon bases of the value spaces V_(u,v) on the grid's index range
    u < nr, v < nc.  ech[(u,v)] is ech[(u-1,v)] extended by the rows
    t^u u^b, b <= v, which is the echelon of all its monomial rows (the
    field's echelon form is unique).  Every other cell is read through at().
    field=None picks default_field for the grid's number of points."""

    def __init__(self, grid, field=None):
        require_valid(grid, allow_empty_lines=True)
        self.field = field = field or default_field(grid.npoints)
        self.shape = nr, nc = grid.shape
        self.window = (nr + 1, nc + 1)
        self.points = grid.points()
        ts = field.convert_params(grid.row_params)
        us = field.convert_params(grid.col_params)
        self.tvals = field.vector([ts[i] for (i, _) in self.points])
        self.uvals = field.vector([us[j] for (_, j) in self.points])
        self.empty = Echelon(field.zeros(0, len(self.points)), ())
        tpow = _powers(field, self.tvals, nr - 1)
        upow = _powers(field, self.uvals, nc - 1)
        self.ech = {}
        for u in range(nr):
            new = field.scale_columns(upow, tpow[u])  # row b holds t^u u^b
            for v in range(nc):
                self.ech[(u, v)] = (field.extend(self.ech[(u - 1, v)], new[: v + 1])
                                    if u else field.rref(new[: v + 1]))

    def at(self, u, v):
        """Echelon basis of V_(u,v): empty below 0, clamped into the grid's
        index range above it."""
        if u < 0 or v < 0:
            return self.empty
        nr, nc = self.shape
        return self.ech[(min(u, nr - 1), min(v, nc - 1))]

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
    P is a pivot column whose basis row is e_P itself.
    """
    spaces = _Spaces(grid, field)
    drops = {pos: set() for pos in spaces.points}
    wi, wj = spaces.window
    for u in range(wi + 1):
        for v in range(wj + 1):
            ech = spaces.at(u, v)
            unit = np.nonzero((ech.rows != 0).sum(axis=1) == 1)[0]
            for l in unit:
                drops[spaces.points[ech.pivots[int(l)]]].add((u, v))
    return drops


class _KoszulModule:
    """Graded components and variable action for one engine.

    reduced: components N'_(u,v) = V_(u,v)/V_(u-1,v), variables x1, y0, y1.
    direct:  components V_(u,v), variables x0, x1, y0, y1.
    """

    def __init__(self, spaces, reduced=True):
        self.spaces = spaces
        self.field = spaces.field
        self.reduced = reduced
        # x0 and y0 evaluate to 1 at every point: their scale is None, and
        # multiplying by them keeps the values as they are
        x1, y0, y1 = ((1, 0), spaces.tvals), ((0, 1), None), ((0, 1), spaces.uvals)
        self.vars = (x1, y0, y1) if reduced else (((1, 0), None), x1, y0, y1)
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
        if key in self._mult:
            return self._mult[key]
        field = self.field
        (du, dv), scale = self.vars[z]
        _, src = self._component(u, v)
        tsub, tbas = self._component(u + du, v + dv)
        w = src.rows if scale is None else field.scale_columns(src.rows, scale)
        if tsub.pivots:
            w = field.reduce_rows(w, tsub)
        coords = w[:, list(tbas.pivots)]
        resid = field.reduce_rows(w, tbas)
        if (resid != 0).any():
            raise OracleInconsistency("image escapes the target component")
        self._mult[key] = coords
        return coords


def _homology_at(module, i, j):
    """Dimensions (H_0, ..., H_n) of the Koszul complex in bidegree (i,j)."""
    field = module.field
    nvars = len(module.vars)
    degs = [d for d, _ in module.vars]

    def cdeg(T):
        return (i - sum(degs[t][0] for t in T), j - sum(degs[t][1] for t in T))

    subsets = [list(combinations(range(nvars), k)) for k in range(nvars + 1)]
    dims = [{T: module.dim(*cdeg(T)) for T in subsets[k]} for k in range(nvars + 1)]
    # ofs[k][T]: where T's block starts in C_k (rows of d_k, columns of d_(k+1))
    ofs = [dict(zip(d, accumulate(d.values(), initial=0))) for d in dims]
    kdim = [sum(d.values()) for d in dims]
    ranks = [0] * (nvars + 2)
    for k in range(1, nvars + 1):
        if kdim[k] == 0 or kdim[k - 1] == 0:
            continue
        mat = field.zeros(kdim[k], kdim[k - 1])
        for T in subsets[k]:
            if dims[k][T] == 0:
                continue
            for l in range(k):
                T2 = T[:l] + T[l + 1 :]
                if dims[k - 1][T2] == 0:
                    continue
                block = module.mult(T[l], *cdeg(T))
                if l % 2:
                    block = -block  # field.rank reduces any representative
                r0, c0 = ofs[k][T], ofs[k - 1][T2]
                mat[r0 : r0 + dims[k][T], c0 : c0 + dims[k - 1][T2]] = block
        ranks[k] = field.rank(mat)
    h = [kdim[k] - ranks[k] - ranks[k + 1] for k in range(nvars + 1)]
    # Tor_0(S/I, k) is k in degree (0,0): a strong internal consistency check
    if h[0] != (1 if (i, j) == (0, 0) else 0):
        raise OracleInconsistency("Tor_0 is %d in degree (%d,%d)" % (h[0], i, j))
    return h


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
    """
    if engine not in ("reduced", "direct"):
        raise ValueError("unknown engine %r" % engine)
    spaces = _Spaces(grid, field)
    module = _KoszulModule(spaces, reduced=(engine == "reduced"))
    # counters[k]: dim Tor_k by bidegree; _homology_at checks Tor_0
    counters = [Counter() for _ in range(len(module.vars) + 1)]
    nr, nc = spaces.shape
    for i in range(nr + 1):
        for j in range(nc + 1):
            for k, h in enumerate(_homology_at(module, i, j)):
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
    bidegree (#row lines, #col lines) matching the declared degree."""
    field = field or default_field(grid_Z.npoints + 1)
    require_valid(grid_Z, allow_empty_lines=True)
    nr, nc = grid_Z.shape
    h, k = removed
    if not (0 <= h < nr and 0 <= k < nc):
        raise InvalidGrid("removed point (%d,%d) outside the grid" % (h, k))
    ts, us = grid_Z.row_params, grid_Z.col_params
    # BadField if the lines collide over the field.  Past this check every
    # parameter denominator is a unit mod p, so mapping each exact product
    # into the field once is a ring homomorphism and keeps the verdict.
    field.convert_params(ts)
    field.convert_params(us)
    nrows = sum(1 for kind, _ in sep.lines if kind == "R")
    ncols = len(sep.lines) - nrows
    if (nrows, ncols) != tuple(sep.degree):
        return False
    for kind, idx in sep.lines:
        if (kind == "R" and not 0 <= idx < nr) or (kind == "C" and not 0 <= idx < nc):
            raise InvalidGrid("separator line %s_%d outside the grid" % (kind, idx))

    def value(i, j):
        acc = 1
        for kind, idx in sep.lines:
            acc *= ts[i] - ts[idx] if kind == "R" else us[j] - us[idx]
        return field.scalar(acc)

    return value(h, k) != 0 and all(value(i, j) == 0 for (i, j) in grid_Z.points())
