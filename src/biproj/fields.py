"""Exact scalar fields and the row-echelon linear algebra the oracle runs on.

Matrices are numpy arrays throughout: dtype=object holding Fraction for the
rationals, dtype=int64 for a prime field.  Both field classes expose the
same small API (scalar conversion, rref, extend, rank, reduce_rows), so the
oracle code is field-agnostic.  extend(ech, new) is the rref of ech's rows
stacked on new, which is how the oracle grows its chains of value spaces.

Over the rationals the elimination itself runs on Python ints.  Each row is
multiplied by the lcm of its denominators, then a fraction-free Gauss-Jordan
pass (Bareiss, Math. Comp. 22, 1968) updates row_i = (a*row_i - b*row_r) //
prev, with a the new pivot and prev the one before it; every division is
exact.  At the end every pivot equals the last one, d, so the reduced
echelon form is rows / d, and Fractions are built only for the rows that
are returned.  Fraction arithmetic would instead run a gcd on every
operation.

Over a prime field with (p-1)**2 < 2**63 (p = 2**31 - 1 by default) the
elimination runs on int64 residues.  A row operation multiplies by one
scalar, so a single product of residues is reduced at once.  reduce_rows and
extend clear many pivots in one matrix product instead: the right factor is
split into 16-bit halves, which keeps every partial sum of up to 2**15
products below 2**63, and longer inner dimensions are cut into chunks of
that size (PrimeField._mul).  extend reduces the new rows against the
echelon in one such product, eliminates only the residual, clears the
residual's pivots from the old rows in another and merges the rows by pivot
column; rank eliminates forward only.  Over the rationals, extend eliminates
the whole stack again: reducing against rows that carry the denominators of
every earlier step costs more than it saves.
"""

from fractions import Fraction
from math import lcm
from typing import NamedTuple

import numpy as np

from .errors import BadField

DEFAULT_PRIME = 2**31 - 1

# Grids with at most this many points are verified over the rationals by
# default; larger ones fall back to the prime field (with a rationals
# recheck on any disagreement, handled by the callers that compare results).
RATIONALS_POINT_LIMIT = 30

# Longest inner dimension PrimeField._mul sums in one int64 product.
_INNER_MAX = 2**15

_ZERO = Fraction(0)


class Echelon(NamedTuple):
    """A reduced row-echelon basis: unit pivots, zeros above and below."""

    rows: np.ndarray
    pivots: tuple


def _int_row(row):
    """(ints, den) with row == ints / den, den the lcm of the denominators."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // x.denominator) for x in row], den


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


class Rationals:
    """Exact arithmetic over Q.

    Matrices are object arrays of Fraction; rref, rank and reduce_rows
    convert them to Python ints, eliminate without fractions and build
    Fractions only for the rows they return.
    """

    name = "rationals"
    kind = "rationals"
    p = None

    def scalar(self, x):
        """Converts int / Fraction / '7/3' strings to Fraction."""
        return Fraction(x)

    def mul(self, x, y):
        return x * y

    def sub(self, x, y):
        return x - y

    def convert_params(self, params):
        """Returns line parameters as field scalars; they must stay distinct."""
        vals = [self.scalar(x) for x in params]
        if len(set(vals)) != len(vals):
            raise BadField("line parameters collide over the rationals")
        return vals

    def array(self, rows):
        rows = [[Fraction(x) for x in row] for row in rows]
        if not rows:
            return np.empty((0, 0), dtype=object)
        out = np.empty((len(rows), len(rows[0])), dtype=object)
        for i, row in enumerate(rows):
            out[i, :] = row
        return out

    def zeros(self, m, n):
        out = np.empty((m, n), dtype=object)
        out[:, :] = Fraction(0)
        return out

    def ones(self, n):
        out = np.empty(n, dtype=object)
        out[:] = Fraction(1)
        return out

    def vector(self, vals):
        out = np.empty(len(vals), dtype=object)
        out[:] = [self.scalar(x) for x in vals]
        return out

    def neg_matrix(self, A):
        return -A

    def scale_columns(self, A, scale):
        return A * scale[None, :]

    def rref(self, A):
        """Reduced row echelon form; returns the nonzero rows and pivot columns."""
        rows = [_int_row(row)[0] for row in A.tolist()]
        pivots, d = _fraction_free(rows, A.shape[1], jordan=True)
        out = np.empty((len(pivots), A.shape[1]), dtype=object)
        for i in range(len(pivots)):
            out[i, :] = [Fraction(x, d) if x else _ZERO for x in rows[i]]
        return Echelon(out, tuple(pivots))

    def extend(self, ech, new):
        """The rref of ech.rows stacked on new.  Eliminating the whole stack
        again is faster here than reducing new against ech, whose rows carry
        the denominators of every earlier step."""
        return self.rref(np.vstack([ech.rows, new]))

    def rank(self, A):
        rows = [_int_row(row)[0] for row in A.tolist()]
        return len(_fraction_free(rows, A.shape[1], jordan=False)[0])

    def reduce_rows(self, W, ech):
        """Eliminates ech's pivot coordinates from every row of W.

        Returns W - W[:, pivots] . ech.rows, in one pass: ech is fully
        reduced, so subtracting one basis row leaves W's entries in the
        other pivot columns as they were.
        """
        out = W.copy()
        if not ech.pivots:
            return out
        den = lcm(*[x.denominator for x in ech.rows.flat])
        basis = [[x.numerator * (den // x.denominator) for x in row]
                 for row in ech.rows.tolist()]
        for i, row in enumerate(W.tolist()):
            ints, wden = _int_row(row)
            hits = [(ints[c], brow) for c, brow in zip(ech.pivots, basis) if ints[c]]
            if not hits:
                continue
            acc = [x * den for x in ints]
            for f, brow in hits:
                acc = [x - f * y for x, y in zip(acc, brow)]
            q = wden * den
            out[i, :] = [Fraction(x, q) if x else _ZERO for x in acc]
        return out


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

    def scalar(self, x):
        x = Fraction(x)
        num = x.numerator % self.p
        den = x.denominator % self.p
        if den == 0:
            raise BadField("denominator %d vanishes mod %d" % (x.denominator, self.p))
        return num * pow(den, -1, self.p) % self.p

    def mul(self, x, y):
        return int(x) * int(y) % self.p

    def sub(self, x, y):
        return (int(x) - int(y)) % self.p

    def convert_params(self, params):
        vals = [self.scalar(x) for x in params]
        if len(set(vals)) != len(vals):
            raise BadField("line parameters collide mod %d" % self.p)
        return vals

    def array(self, rows):
        rows = [[self.scalar(x) if isinstance(x, (Fraction, str)) else int(x) for x in row] for row in rows]
        if not rows:
            return np.empty((0, 0), dtype=np.int64)
        return np.array(rows, dtype=np.int64) % self.p

    def zeros(self, m, n):
        return np.zeros((m, n), dtype=np.int64)

    def ones(self, n):
        return np.ones(n, dtype=np.int64)

    def vector(self, vals):
        return np.array([self.scalar(x) for x in vals], dtype=np.int64)

    def neg_matrix(self, A):
        return (-A) % self.p

    def scale_columns(self, A, scale):
        return A * scale[None, :] % self.p

    def _mul(self, A, B):
        """A . B mod p, exact in int64, for A and B with entries in [0, p)."""
        # B = hi * 2**16 + lo.  (p-1)**2 < 2**63 puts every entry below
        # 2**31.5, so a product with lo (< 2**16) or hi (< 2**15.5) is below
        # 2**47.5 and a sum of _INNER_MAX = 2**15 of them below 2**62.5;
        # (hi-sum mod p) * 2**16 adds less than 2**47.5, still below 2**63.
        # Longer inner dimensions are cut into chunks of _INNER_MAX.
        p = self.p
        out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        for k in range(0, A.shape[1], _INNER_MAX):
            a, b = A[:, k : k + _INNER_MAX], B[k : k + _INNER_MAX]
            hi = a @ (b >> 16) % p
            out = (out + ((hi << 16) + a @ (b & 0xFFFF)) % p) % p
        return out

    def rref(self, A):
        p = self.p
        A = A % p
        m, n = A.shape
        r = 0
        pivots = []
        for c in range(n):
            hits = np.nonzero(A[r:, c])[0]
            if hits.size == 0:
                continue
            pivot = r + int(hits[0])
            if pivot != r:
                A[[r, pivot], :] = A[[pivot, r], :]
            A[r, :] = A[r, :] * pow(int(A[r, c]), -1, p) % p
            others = np.nonzero(A[:, c])[0]
            others = others[others != r]
            if others.size:
                A[others, :] = (A[others, :] - A[others, c, None] * A[r, None, :]) % p
            pivots.append(c)
            r += 1
            if r == m:
                break
        return Echelon(A[:r], tuple(pivots))

    def extend(self, ech, new):
        """The rref of ech.rows stacked on new, for ech already reduced.

        new is reduced against ech in one product and only the residual is
        eliminated; its pivots are then cleared from ech's rows and the two
        sets of rows are merged by pivot column.
        """
        res = self.rref(self.reduce_rows(new, ech))
        if not res.pivots:
            return ech
        old = self.reduce_rows(ech.rows, res)
        pivots = ech.pivots + res.pivots
        order = np.argsort(pivots, kind="stable")
        return Echelon(np.vstack([old, res.rows])[order],
                       tuple(pivots[i] for i in order))

    def rank(self, A):
        """Forward elimination only: each pivot clears the column below it."""
        p = self.p
        A = A % p
        m, n = A.shape
        r = 0
        for c in range(n):
            if r == m:
                break
            hits = np.nonzero(A[r:, c])[0]
            if hits.size == 0:
                continue
            pivot = r + int(hits[0])
            if pivot != r:
                A[[r, pivot], c:] = A[[pivot, r], c:]
            below = r + 1 + np.nonzero(A[r + 1 :, c])[0]
            if below.size:
                f = A[below, c] * pow(int(A[r, c]), -1, p) % p
                A[below, c:] = (A[below, c:] - f[:, None] * A[r, None, c:]) % p
            r += 1
        return r

    def reduce_rows(self, W, ech):
        """Eliminates ech's pivot coordinates from every row of W.

        Returns W - W[:, pivots] . ech.rows (mod p) in one product: ech is
        fully reduced, so subtracting one basis row leaves W's entries in
        the other pivot columns as they were.
        """
        W = W % self.p
        if not ech.pivots:
            return W
        return (W - self._mul(W[:, list(ech.pivots)], ech.rows)) % self.p


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
    if name.startswith("prime:") or name.startswith("gfp:"):
        return PrimeField(int(name.split(":", 1)[1]))
    raise ValueError("unknown field %r" % name)


def default_field(npoints):
    """Rationals for small schemes, the default prime field beyond."""
    return QQ if npoints <= RATIONALS_POINT_LIMIT else GFP
