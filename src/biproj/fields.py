"""Exact scalar fields and the row-echelon linear algebra the oracle runs on.

Every value enters a field through convert_params, and every matrix holds
field elements: numpy arrays of dtype=object holding Python ints over the
rationals, of dtype=int64 holding residues in [0, p) over a prime field.
Both field classes expose the same nine methods, so the oracle code is
field-agnostic:

- convert_params(params): line parameters as field elements, BadField if
  two meet (over the rationals, all times one integer);
- vector(vals), zeros(m, n): an array of the field elements vals, taken as
  they are, and an m x n array of zeros;
- multiply(A, B): the entrywise product, with numpy's broadcasting;
- rref(A), rank(A): the reduced echelon basis (an Echelon) and the rank;
- reduce_rows(W, ech): W with ech's pivot coordinates eliminated, up to a
  nonzero factor common to every row of W;
- quotient_coords(W, ech, sub, cols): None if a row of W leaves the span of
  ech, else reduce_rows(W, sub) read at the columns cols, for a subspace
  sub whose pivots are among ech's (the oracle's Koszul maps);
- echelon(rows, pivots): rows that are already reduced and ordered by their
  pivots, in the field's canonical form.

An echelon is defined up to a nonzero factor per row.  Over a prime field
every pivot is 1.  Over the rationals each row is its reduced row times the
lcm of that row's denominators: a primitive integer row with a positive
pivot.  That form is as unique as the reduced one, so an echelon assembled
from parts and one elimination of all its rows give the same echelon once
echelon() has made each row primitive; over a prime field echelon() scales
each row to pivot 1.  Scaled rows are enough because the oracle reads an
echelon only through its pivots, the zero pattern of its rows, the space
they span and coordinates it passes to rank; oracle.py's docstring shows
that the factors leave every rank as it was.

Over a prime field rref, reduce_rows and quotient_coords take residues in
[0, p), and PrimeField._product's float64 bound rests on it.  rank alone
reads any int64 representative of each residue: it reduces its input mod p
on entry, so a caller may pass -A for a matrix A of residues.  No method
changes its input.

Over the rationals the elimination runs on Python ints and builds no
Fraction; only convert_params reads one.  rref and rank run a fraction-free
Gauss-Jordan pass (Bareiss, Math. Comp. 22, 1968),
row_i = (a*row_i - b*row_r) // prev, with a the new pivot and prev the one
before it; every division is exact.  rref divides each resulting row by the
gcd of its entries, signed by its pivot.  reduce_rows returns
L*W - sum_l W[:, p_l] * (L / c_l) * R_l, with c_l the pivot of basis row R_l
and L the lcm of the c_l: L times the exact reduction.  The factor must be
the same for every row of W.  Making each row primitive on its own would
scale one source vector differently in each coordinate matrix it appears
in, and the Koszul ranks built from those matrices would change.

Over a prime field with (p-1)**2 < 2**63 (p = 2**31 - 1 by default) the
elimination runs on int64 residues.  A row operation multiplies by one
scalar, so a single product of residues is reduced at once.  reduce_rows
and quotient_coords clear many pivots in one matrix product instead,
PrimeField._product, which runs on float64 BLAS and is exact:
- p - 1 < 2**31.5, so every residue is an integer that float64 holds
  exactly.  The left factor A is split into three limbs of 11 bits,
  A = a0 + a1*2**11 + a2*2**22, stacked into one matrix of three times
  A's rows and multiplied by B in one float64 product.  The left factor is
  the one split because in the oracle it is the smaller: the pivot columns
  of W against a whole echelon.
- A limb times a residue is below 2**11 * 2**31.5 = 2**42.5, so a sum of
  at most 2**10 of them is below 2**52.5 < 2**53: every partial sum, in
  whatever order BLAS adds, is an integer held exactly.  Longer inner
  dimensions are cut into chunks of 2**10 and reduced chunk by chunk.  A
  chunk of 2**11 is not safe: its sums reach 2**53.5, and at p = 3037000493
  some of them round.
- Each sum s < 2**21 * p is reduced in float64 to s - q*p with
  q = floor(s*c) and c the float64 nearest (1 - 2**-40)/p.  Then
  s/p - 1 < s*c < s/p, so q is floor(s/p) or one less; q*p <= s < 2**53 and
  the difference are exact, and the result lies in [0, 2p).
- The three reduced sums, each below 2**32.5, are combined in int64 as
  (r2*2**11 + r1)*2**11 + r0 < 2**55.
The product is left unreduced below 2**55, and reduce_rows and
quotient_coords reduce once, after their subtraction.  rref jumps from a
pivot to the next column with a nonzero entry at or below the next row and
stops when none is left, so zero rows and zero columns cost no scan; it
clears each pivot column with one update of the whole matrix.  rank
eliminates forward only: one nonzero scan of the pivot column finds the
pivot and the rows below it that hold a nonzero there, and only those rows
are updated, with no inverse.  The matrices are small, so these kernels are
bound by the number of numpy calls, not by arithmetic; they call ndarray
methods and ufuncs directly rather than numpy's Python-level wrappers such
as np.flatnonzero, np.vstack and np.argsort.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

import numpy as np

from .errors import BadField

DEFAULT_PRIME = 2**31 - 1

# Grids with at most this many points are verified over the rationals by
# default; larger ones fall back to the prime field (with a rationals
# recheck on any disagreement, handled by the callers that compare results).
RATIONALS_POINT_LIMIT = 30

# PrimeField._product splits its left factor into three limbs of _LIMB_BITS
# bits and sums at most _INNER_MAX products in one float64 matmul.
_LIMB_BITS = 11
_LIMB_MASK = 2**_LIMB_BITS - 1
_LIMB_SHIFTS = np.array([0, _LIMB_BITS, 2 * _LIMB_BITS])[:, None, None]
_INNER_MAX = 2**10


class Echelon(NamedTuple):
    """A reduced row-echelon basis up to a nonzero factor per row: zeros
    above and below every pivot.

    Over a prime field every pivot is 1.  Over the rationals each row is its
    reduced row times the lcm of that row's denominators, a primitive
    integer row with a positive pivot.  Either form is unique, so two
    echelons of one space are equal.  The factors leave the pivots, the zero
    pattern and the span as they were, which is all the oracle reads.
    """

    rows: np.ndarray
    pivots: tuple


def _object_array(rows, ncols):
    out = np.empty((len(rows), ncols), dtype=object)
    for i, row in enumerate(rows):
        out[i, :] = row
    return out


def _fraction_free(rows, ncols, jordan):
    """Fraction-free elimination of a list of int rows, in place.

    Returns (pivots, d).  With jordan, each pivot column is cleared above
    the pivot as well, and rows[:len(pivots)] end as d times the reduced
    row-echelon form; without, only below it, which is enough for the rank.
    Every // is exact: each entry is, up to sign, a minor of the input
    (Sylvester's identity below the pivots, Cramer's rule above), and prev
    is the pivot minor one step smaller.
    """
    r, prev, pivots = 0, 1, []
    for c in range(ncols):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        a = top[c]
        for i in range(0 if jordan else r + 1, len(rows)):
            if i == r:
                continue
            row = rows[i]
            b = row[c]
            if b:
                rows[i] = [(a * x - b * y) // prev for x, y in zip(row, top)]
            elif a != prev:
                rows[i] = [a * x // prev for x in row]
        prev = a
        pivots.append(c)
        r += 1
    return pivots, prev


def _primitive(row, pivot):
    """row divided by the gcd of its entries, signed so row[pivot] > 0."""
    g = gcd(*row)
    if row[pivot] < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def _primitive_echelon(rows, pivots, ncols):
    """The Echelon of the first len(pivots) rows, each made primitive."""
    return Echelon(_object_array([_primitive(row, c) for row, c in zip(rows, pivots)], ncols),
                   tuple(pivots))


class Rationals:
    """Exact arithmetic over Q on Python ints.

    convert_params turns parameters into ints; rref, rank and reduce_rows
    eliminate on ints and return ints: echelons in their canonical integer
    form, reductions times one common factor.
    """

    name = "rationals"
    kind = "rationals"
    p = None

    def convert_params(self, params):
        """Returns the line parameters times the lcm of their denominators:
        distinct integers, a common multiple of the exact values."""
        vals = [Fraction(x) for x in params]
        den = lcm(*[x.denominator for x in vals])
        ints = [x.numerator * (den // x.denominator) for x in vals]
        if len(set(ints)) != len(ints):
            raise BadField("line parameters collide over the rationals")
        return ints

    def zeros(self, m, n):
        out = np.empty((m, n), dtype=object)
        out[:, :] = 0
        return out

    def vector(self, vals):
        out = np.empty(len(vals), dtype=object)
        out[:] = vals
        return out

    def multiply(self, A, B):
        return A * B

    def rref(self, A):
        """The canonical integer form of the reduced row echelon basis: its
        nonzero rows, each primitive with a positive pivot, and the pivot
        columns."""
        rows = A.tolist()
        pivots, _ = _fraction_free(rows, A.shape[1], jordan=True)
        return _primitive_echelon(rows, pivots, A.shape[1])

    def rank(self, A):
        return len(_fraction_free(A.tolist(), A.shape[1], jordan=False)[0])

    def reduce_rows(self, W, ech):
        """Eliminates ech's pivot coordinates from every row of W.

        With c_l the pivot of basis row R_l and L the lcm of the c_l,
        returns L*W - sum_l W[:, p_l] * (L / c_l) * R_l: L times the exact
        reduction, one factor for every row of W.  ech is fully reduced, so
        subtracting one basis row leaves W's entries in the other pivot
        columns as they were.
        """
        if not ech.pivots:
            return W.copy()
        basis = ech.rows.tolist()
        heads = [row[c] for row, c in zip(basis, ech.pivots)]
        L = lcm(*heads)
        basis = [(c, row if h == L else [x * (L // h) for x in row])
                 for c, h, row in zip(ech.pivots, heads, basis)]
        out = []
        for w in W.tolist():
            acc = w if L == 1 else [L * x for x in w]
            for c, brow in basis:
                f = w[c]
                if f:
                    acc = [x - f * y for x, y in zip(acc, brow)]
            out.append(acc)
        return _object_array(out, W.shape[1])

    def quotient_coords(self, W, ech, sub, cols):
        """L times W reduced modulo sub, read at the columns cols, with L the
        lcm of sub's pivot entries; None if a row of W leaves the span of
        ech.  sub's pivots must be among ech's.
        """
        if self.reduce_rows(W, ech).any():
            return None
        return self.reduce_rows(W, sub)[:, list(cols)]

    def echelon(self, rows, pivots):
        """The canonical integer form of reduced rows with the given pivots:
        each row divided by the gcd of its entries, signed by its pivot."""
        return _primitive_echelon(rows.tolist(), pivots, rows.shape[1])


# Miller-Rabin with the first twelve primes as bases decides primality
# exactly for every n < 3.3e24, far beyond the int64 bound on p.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) with vectorized int64 elimination, for primes with (p-1)**2 < 2**63."""

    kind = "prime"

    def __init__(self, p=DEFAULT_PRIME):
        if p < 2 or (p - 1) ** 2 >= 2**63:
            raise BadField("modulus %d is outside 2 <= p, (p-1)**2 < 2**63" % p)
        if not _is_prime(p):
            raise BadField("modulus %d is not prime" % p)
        self.p = p
        self.name = "gf(%d)" % p

    def _residue(self, x):
        """The residue of an int or Fraction x; BadField if its denominator
        vanishes mod p."""
        x = Fraction(x)
        den = x.denominator % self.p
        if den == 0:
            raise BadField("denominator %d vanishes mod %d" % (x.denominator, self.p))
        return x.numerator * pow(den, -1, self.p) % self.p

    def convert_params(self, params):
        """Returns the line parameters as distinct residues."""
        vals = [self._residue(x) for x in params]
        if len(set(vals)) != len(vals):
            raise BadField("line parameters collide mod %d" % self.p)
        return vals

    def zeros(self, m, n):
        return np.zeros((m, n), dtype=np.int64)

    def vector(self, vals):
        return np.array(vals, dtype=np.int64)

    def multiply(self, A, B):
        return A * B % self.p

    def _product(self, A, B):
        """An int64 matrix congruent to A . B mod p with every entry in
        [0, 2**55), for A and B with entries in [0, p): reduced only as far
        as int64 needs, so a caller can fold the last % p into its own.
        One float64 matmul of A's three limbs against B; the module
        docstring shows that every step is exact."""
        p = self.p
        (m, k), n = A.shape, B.shape[1]
        if k > _INNER_MAX:
            out = np.zeros((m, n), dtype=np.int64)
            for s in range(0, k, _INNER_MAX):
                out = (out + self._product(A[:, s : s + _INNER_MAX], B[s : s + _INNER_MAX])) % p
            return out
        # rows l*m .. l*m + m - 1 of limbs are limb l of A
        limbs = (A >> _LIMB_SHIFTS & _LIMB_MASK).reshape(3 * m, k)
        sums = limbs.astype(np.float64) @ B.astype(np.float64)
        # sums - floor(sums * c) * p lies in [0, 2p)
        q = sums * ((1 - 2.0**-40) / p)
        np.floor(q, out=q)
        q *= p
        sums -= q
        sums = sums.astype(np.int64).reshape(3, m, n)
        out = sums[2] << _LIMB_BITS
        out += sums[1]
        out <<= _LIMB_BITS
        out += sums[0]
        return out

    def rref(self, A):
        """Gauss-Jordan that jumps to the next column with a nonzero entry
        at or below row r, and stops when no such column is left."""
        p = self.p
        A = A.copy()
        m = A.shape[0]
        r = c = 0
        pivots = []
        while r < m:
            # residues are >= 0, so a column's maximum is nonzero exactly
            # when one of its entries is
            live = np.maximum.reduce(A[r:, c:], axis=0).nonzero()[0]
            if not live.size:
                break
            c += int(live[0])
            pivot = r + int(A[r:, c].nonzero()[0][0])
            if pivot != r:
                A[[r, pivot]] = A[[pivot, r]]
            row = A[r]
            row *= pow(int(row[c]), -1, p)
            row %= p
            # one update of the whole matrix clears column c; row r and the
            # rows with a zero there subtract nothing
            f = A[:, c].copy()
            f[r] = 0
            A -= f[:, None] * row
            A %= p
            pivots.append(c)
            r += 1
            c += 1
        return Echelon(A[:r], tuple(pivots))

    def rank(self, A):
        """Forward elimination only.  The one nonzero scan of column c below
        row r finds the pivot and the rows that must subtract it; only those
        rows are updated, by row_i = a*row_i - b*row_r with a the pivot and
        b = row_i[c].  That scales row_i by a unit, which keeps the rank and
        needs no inverse; each product is at most (p-1)**2 < 2**63, so their
        difference fits in int64."""
        p = self.p
        A = A % p
        m, n = A.shape
        r = 0
        for c in range(n):
            if r == m:
                break
            below = A[r:]
            hits = below[:, c].nonzero()[0]
            if not hits.size:
                continue
            if hits[0]:
                below[[0, hits[0]], c:] = below[[hits[0], 0], c:]
            if hits.size > 1:
                rows = hits[1:]
                B = below[rows, c:]
                below[rows, c:] = (B * below[0, c] - B[:, :1] * below[0, c:]) % p
            r += 1
        return r

    def reduce_rows(self, W, ech):
        """Eliminates ech's pivot coordinates from every row of W.

        Returns W - W[:, pivots] . ech.rows (mod p) from one unreduced
        product, reduced once after the subtraction (W's residues are >= 0
        and the product is below 2**55, so the difference fits in int64).
        ech is fully reduced, so subtracting one basis row leaves W's
        entries in the other pivot columns as they were.
        """
        if not ech.pivots:
            return W.copy()
        p = self.p
        return (W - self._product(W[:, list(ech.pivots)], ech.rows)) % p

    def quotient_coords(self, W, ech, sub, cols):
        """W reduced modulo sub, read at the columns cols; None if a row of
        W leaves the span of ech.  sub's pivots must be among ech's.

        One product of W[:, P], P = ech's pivots, against [ech.rows | T]:
        row l of T is sub's row with pivot P[l] read at cols, or zero where
        P[l] is not a pivot of sub.  The left block gives W's residual
        modulo ech on every column; the right block gives
        W[:, Q] . sub.rows[:, cols], with Q = sub's pivots, which is what
        reduce_rows(W, sub) subtracts at cols.
        """
        p = self.p
        cols, pivots, n = list(cols), list(ech.pivots), W.shape[1]
        B = np.zeros((len(pivots), n + len(cols)), dtype=np.int64)
        B[:, :n] = ech.rows
        in_sub = set(sub.pivots)
        B[[l for l, c in enumerate(pivots) if c in in_sub], n:] = sub.rows[:, cols]
        out = np.concatenate((W, W[:, cols]), axis=1)
        out -= self._product(W[:, pivots], B)
        out %= p
        if out[:, :n].any():
            return None
        return out[:, n:]

    def echelon(self, rows, pivots):
        """The canonical form of reduced rows with the given pivots: each
        row whose pivot is not 1 scaled to pivot 1."""
        pivots = tuple(pivots)
        heads = rows[np.arange(len(pivots)), pivots]
        if (heads != 1).any():
            p = self.p
            rows = rows * np.array([pow(h, -1, p) for h in heads.tolist()])[:, None] % p
        return Echelon(rows, pivots)


QQ = Rationals()
GFP = PrimeField()


def field_by_name(name):
    """Resolves 'rationals', 'prime', 'prime:65537', 'auto' (returns None)."""
    name = name.strip().lower()
    if name in ("auto", ""):
        return None
    if name in ("rationals", "qq", "q"):
        return QQ
    if name in ("prime", "gfp"):
        return GFP
    kind, colon, modulus = name.partition(":")
    if colon and kind in ("prime", "gfp"):
        try:
            p = int(modulus)
        except ValueError:
            pass
        else:
            return PrimeField(p)
    raise ValueError("unknown field %r" % name)


def default_field(npoints):
    """Rationals for small schemes, the default prime field beyond."""
    return QQ if npoints <= RATIONALS_POINT_LIMIT else GFP
