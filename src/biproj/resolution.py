"""Bigraded minimal free resolutions of grid point schemes.

ACM schemes resolve by corners (generators) and vertices (first syzygies).
Removing interior points on pairwise-distinct rows and columns extends the
resolution by one mapping-cone step per point; the step conditions are
re-checked and recorded instead of trusted.  betti_from_delta enumerates
the same table directly from the first difference of Z when Z is in that
class (and deliberately still answers outside it, where the oracle is the
only way to notice the answer is wrong).
"""

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    CollinearRemoval,
    NotACM,
    NotInterior,
    PointNotInScheme,
    ResolutionInconsistency,
)
from .grid import (
    PointKind,
    classify_points,
    corners_and_vertices,
    require_valid,
    strictly_below,
)
from .hilbert import delta_corners_vertices, hilbert_acm, puncture_hilbert


def _fold(p, w):
    """(index, weight) pairs on 0..w whose double prefix sum agrees on 0..w
    with that of a unit mass at p, which is max(0, i - p + 1) at i.

    A mass past w adds nothing there.  A mass at p < 0 gives
    i + 1 - p = (1 - p)(i + 1) + p * i: 1 - p masses at 0 plus p masses
    at 1, so no cell lies outside 0..w however negative p is.
    """
    if p > w:
        return ()
    if p >= 0:
        return ((p, 1),)
    return ((0, 1 - p), (1, p)) if w >= 1 else ((0, 1 - p),)


def _canon(entries):
    """Multiset of bidegrees -> tuple of ((p,q), mult) sorted by (-p, q)."""
    if isinstance(entries, (dict, Counter)):
        c = Counter()
        for d, m in dict(entries).items():
            if m < 0:
                raise ResolutionInconsistency("negative multiplicity %r at %s" % (m, d))
            if m:
                c[(int(d[0]), int(d[1]))] = int(m)
    else:
        c = Counter((int(d[0]), int(d[1])) for d in entries)
    return tuple(sorted(c.items(), key=lambda kv: (-kv[0][0], kv[0][1])))


@dataclass(frozen=True)
class BettiTable:
    """Shifts (p,q) of the summands O_Q(-p,-q) in each homological spot."""

    beta0: tuple
    beta1: tuple
    beta2: tuple

    @staticmethod
    def make(b0, b1=(), b2=()):
        return BettiTable(_canon(b0), _canon(b1), _canon(b2))

    @property
    def levels(self):
        return (self.beta0, self.beta1, self.beta2)

    def counters(self):
        return tuple(Counter(dict(level)) for level in self.levels)

    @property
    def ranks(self):
        return tuple(sum(m for _, m in level) for level in self.levels)

    def rank_alternation(self):
        r0, r1, r2 = self.ranks
        return r0 - r1 + r2

    def hilbert_defects(self, M):
        """Cells where the Euler characteristic of the table misses M.

        The characteristic at (i,j) is dim S_(i,j) minus the alternating
        sum of mult * dim S_(i-p,j-q), with dim S_(u,v) = (u+1)(v+1) for
        u,v >= 0 and 0 otherwise.  That is the double prefix sum, along
        each axis, of the masses c = [(0,0)] - beta0 + beta1 - beta2, so
        the window costs a few passes whatever the table's size.
        """
        wi, wj = M.window
        c = [[0] * (wj + 1) for _ in range(wi + 1)]
        masses = [((0, 0), 1)] + [
            (d, sign * mult)
            for level, sign in zip(self.levels, (-1, 1, -1))
            for d, mult in level
        ]
        for (p, q), mult in masses:
            for i, a in _fold(p, wi):
                for j, b in _fold(q, wj):
                    c[i][j] += mult * a * b
        rows = [accumulate(accumulate(row)) for row in c]
        cols = [list(accumulate(accumulate(col))) for col in zip(*rows)]
        m = M.entries.tolist()
        return [
            ((i, j), m[i][j], val)
            for i, row in enumerate(zip(*cols))
            for j, val in enumerate(row)
            if val != m[i][j]
        ]

    def is_empty(self):
        return not (self.beta0 or self.beta1 or self.beta2)


def betti_diff(t1, t2):
    """Multiset differences per level: (level, degree, mult_in_t1, mult_in_t2)."""
    out = []
    for level, (c1, c2) in enumerate(zip(t1.counters(), t2.counters())):
        for d in sorted(set(c1) | set(c2), key=lambda d: (-d[0], d[1])):
            if c1[d] != c2[d]:
                out.append((level, d, c1[d], c2[d]))
    return out


def _check_euler(table, M):
    """A resolution of S/I_X has rank alternation 1 and Euler characteristic M."""
    if table.rank_alternation() != 1:
        raise ResolutionInconsistency("rank alternation %d, not 1" % table.rank_alternation())
    defects = table.hilbert_defects(M)
    if defects:
        raise ResolutionInconsistency("Betti table misses the Hilbert function: %s" % defects)


def acm_resolution(grid):
    """beta0 = corners, beta1 = vertices, beta2 empty (ACM schemes only)."""
    corners, vertices = corners_and_vertices(grid)
    table = BettiTable.make(corners, vertices)
    _check_euler(table, hilbert_acm(grid))
    return table


@dataclass(frozen=True)
class Separator:
    point: tuple        # (h, k), the separated point
    degree: tuple       # (r, s) = (#row lines, #col lines)
    lines: tuple        # ("R", i) / ("C", j) entries, rows first


def separator_for(grid, point):
    """The split curve separating `point`: rows through the other points of
    its column plus columns through the other points of its row.

    Works on any configuration where that rule covers the rest of the
    scheme (always true for ACM ones); raises NotACM when it does not.
    """
    require_valid(grid, allow_empty_lines=True)
    h, k = point
    if not grid.has_point(h, k):
        raise PointNotInScheme("no point at (%d,%d)" % (h, k))
    nr, nc = grid.shape
    rows = [i for i in range(nr) if i != h and grid.incidence[i][k]]
    cols = [j for j in range(nc) if j != k and grid.incidence[h][j]]
    for (i, j) in grid.points():
        if (i, j) != (h, k) and i not in rows and j not in cols:
            raise NotACM(
                "separator rule fails for (%d,%d): point (%d,%d) is uncovered"
                % (h, k, i, j)
            )
    lines = tuple(("R", i) for i in rows) + tuple(("C", j) for j in cols)
    return Separator(point=(h, k), degree=(len(rows), len(cols)), lines=lines)


@dataclass(frozen=True)
class ConditionReport:
    """Mapping-cone step conditions for a removal in degree (r,s):
    (2) no generator shift strictly dominates (r,s);
    (3) no first-syzygy shift equals (r+1,s+1)."""

    degree: tuple
    cond2_violations: tuple
    cond3_violations: tuple

    @property
    def ok(self):
        return not self.cond2_violations and not self.cond3_violations


def check_mapping_cone_conditions(current, r, s):
    c2 = tuple(d for d, _ in current.beta0 if strictly_below((r, s), d))
    c3 = tuple(d for d, _ in current.beta1 if d == (r + 1, s + 1))
    return ConditionReport(degree=(r, s), cond2_violations=c2, cond3_violations=c3)


@dataclass(frozen=True)
class RemovalPlan:
    points: tuple       # normalized order
    degrees: tuple      # (q_l, p_l) per point, ascending lexicographically
    multiplicity: tuple # ((i,j), r_ij) pairs


def removal_plan(grid, points):
    """Validates and normalizes a removal plan against its grid.

    Points must be pairwise non-collinear (distinct rows AND columns) and
    interior; order is normalized to ascending (q, p).
    """
    points = [tuple(p) for p in points]
    classes = {pc.position: pc for pc in classify_points(grid)}
    seen_rows, seen_cols = {}, {}
    for (i, j) in points:
        if (i, j) not in classes:
            raise PointNotInScheme("no point at (%d,%d)" % (i, j))
        if i in seen_rows:
            raise CollinearRemoval(
                "points (%d,%d) and (%d,%d) share row R_%d" % (*seen_rows[i], i, j, i)
            )
        if j in seen_cols:
            raise CollinearRemoval(
                "points (%d,%d) and (%d,%d) share column C_%d" % (*seen_cols[j], i, j, j)
            )
        seen_rows[i] = (i, j)
        seen_cols[j] = (i, j)
    for p in points:
        if classes[p].kind is not PointKind.INTERIOR:
            raise NotInterior("point (%d,%d) is a boundary point" % p)
    tagged = sorted(
        ((classes[p].separating_degree, p) for p in points),
        key=lambda t: (t[0][0], t[0][1]),
    )
    degrees = tuple(d for d, _ in tagged)
    return RemovalPlan(
        points=tuple(p for _, p in tagged),
        degrees=degrees,
        multiplicity=tuple(sorted(Counter(degrees).items())),
    )


@dataclass(frozen=True)
class RemovalResult:
    grid_z: object
    betti: BettiTable
    separators: tuple
    plan: RemovalPlan
    conditions: tuple   # one ConditionReport per removal step
    hilbert: object     # M_Z


def remove_points(grid, plan):
    """Resolution of Z = X minus interior points on distinct rows/columns.

    Each step adds (q,p) to beta0, (q+1,p) and (q,p+1) to beta1 and
    (q+1,p+1) to beta2, re-checks the mapping-cone conditions against the
    table built so far, and constructs the step's split separator against
    the current intermediate scheme.
    """
    plan = removal_plan(grid, plan.points if isinstance(plan, RemovalPlan) else plan)
    table = acm_resolution(grid)
    b0, b1, b2 = table.counters()
    M = hilbert_acm(grid)
    current = grid
    seps, conds = [], []
    for point, (q, p) in zip(plan.points, plan.degrees):
        # distinct rows/cols keep this point's line counts untouched
        h, k = point
        if current.col_counts()[k] != q + 1 or current.row_counts()[h] != p + 1:
            raise ResolutionInconsistency(
                "line counts through (%d,%d) do not give degree (%d,%d)" % (h, k, q, p))
        report = check_mapping_cone_conditions(table, q, p)
        conds.append(report)
        if not report.ok:
            raise ResolutionInconsistency("mapping-cone conditions failed at %s" % (report,))
        sep = separator_for(current, point)
        if sep.degree != (q, p):
            raise ResolutionInconsistency(
                "separator of (%d,%d) has degree %s, not (%d,%d)" % (h, k, sep.degree, q, p))
        seps.append(sep)
        b0[(q, p)] += 1
        b1[(q + 1, p)] += 1
        b1[(q, p + 1)] += 1
        b2[(q + 1, p + 1)] += 1
        table = BettiTable.make(b0, b1, b2)
        M = puncture_hilbert(M, q, p)
        current = current.without(point)
    _check_euler(table, M)
    return RemovalResult(
        grid_z=current,
        betti=table,
        separators=tuple(seps),
        plan=plan,
        conditions=tuple(conds),
        hilbert=M,
    )


def betti_from_delta(D):
    """Betti table read off a first difference, with neg(x) = max(0, -x):

      beta0(i,j) = [corner at (i,j)] + neg(c_ij)
      beta1(i,j) = [vertex at (i,j)] + neg(c_{i,j-1}) + neg(c_{i-1,j})
      beta2(i,j) = neg(c_{i-1,j-1})

    Corners and vertices come from delta_corners_vertices (sentinel
    c_{-1,.} = c_{.,-1} = 1, so sentinels add no neg terms); each negative
    entry adds its terms at (i,j), (i,j+1), (i+1,j), (i+1,j+1) inside the
    window.  Valid for schemes obtained from a staircase by removing
    interior points on pairwise-distinct rows and columns; outside that
    class the result can be wrong and only an oracle comparison will
    notice.  The all-zero matrix yields an empty table.
    """
    corners, vertices = delta_corners_vertices(D)
    b0, b1, b2 = Counter(corners), Counter(vertices), Counter()
    wi, wj = D.window
    for i, row in enumerate(D.entries.tolist()):
        for j, c in enumerate(row):
            if c >= 0:
                continue
            b0[(i, j)] -= c
            if j < wj:
                b1[(i, j + 1)] -= c
            if i < wi:
                b1[(i + 1, j)] -= c
            if i < wi and j < wj:
                b2[(i + 1, j + 1)] -= c
    return BettiTable.make(b0, b1, b2)
