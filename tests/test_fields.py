"""Exact linear algebra over the rationals and a big prime field."""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from biproj.errors import BadField
from biproj.fields import GFP, QQ, Echelon, PrimeField, _is_prime, default_field, field_by_name


FIELDS = [QQ, GFP, PrimeField(101)]


def field_matrix(field, rows):
    """Integer rows as a matrix of field elements: Python ints in an object
    array over the rationals, int64 residues over a prime field."""
    if field.p is None:
        return np.array(rows, dtype=object)
    return np.array([[x % field.p for x in row] for row in rows], dtype=np.int64)


@pytest.mark.parametrize("field", FIELDS)
def test_rref_rank_known_matrix(field):
    A = field_matrix(field, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    ech = field.rref(A)
    assert field.rank(A) == 2
    assert len(ech.pivots) == 2
    # pivots are unit columns
    for r, c in enumerate(ech.pivots):
        col = ech.rows[:, c]
        assert col[r] == 1
        assert all(col[k] == 0 for k in range(len(ech.pivots)) if k != r)


@pytest.mark.parametrize("field", FIELDS)
def test_reduce_rows_clears_span(field):
    A = field_matrix(field, [[1, 1, 0], [0, 1, 1]])
    ech = field.rref(A)
    W = field_matrix(field, [[2, 3, 1], [1, 2, 1]])  # both in the row span
    red = field.reduce_rows(W, ech)
    assert not (red != 0).any()


def test_rationals_exactness():
    # entries past 2**53 stay exact: a float rank would see rounded entries
    big = 10**20 + 1
    A = field_matrix(QQ, [[big, 3 * big], [3, 9]])
    assert QQ.rank(A) == 1


def test_prime_field_fraction_conversion():
    f = PrimeField(7)
    x, = f.convert_params([Fraction(1, 3)])
    assert (x * 3) % 7 == 1
    with pytest.raises(BadField):
        f.convert_params([Fraction(1, 7)])  # denominator vanishes mod p


def test_prime_field_param_collision():
    f = PrimeField(5)
    with pytest.raises(BadField):
        f.convert_params((0, 1, 5))  # 5 == 0 mod 5


def test_field_by_name():
    assert field_by_name("rationals") is QQ
    assert field_by_name("qq") is QQ
    assert field_by_name("prime") is GFP
    assert field_by_name("prime:101").p == 101
    assert field_by_name("auto") is None
    with pytest.raises(ValueError):
        field_by_name("float64")


def test_default_field_policy():
    assert default_field(30) is QQ
    assert default_field(31) is GFP


@pytest.mark.parametrize("field", FIELDS)
def test_random_rank_agreement(field):
    # ranks over any exact field agree for small generic integer matrices
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = rng.integers(-4, 5, size=(5, 7))
        expected = np.linalg.matrix_rank(A.astype(float))
        assert field.rank(field_matrix(field, A.tolist())) == expected


def test_fields_expose_the_same_nine_methods():
    def methods(field):
        return {n for n in dir(field) if not n.startswith("_") and callable(getattr(field, n))}

    assert methods(QQ) == methods(GFP) == {
        "vector", "zeros", "convert_params",
        "multiply", "rref", "rank", "reduce_rows", "quotient_coords", "echelon"}


@pytest.mark.parametrize("field", [QQ, GFP, PrimeField(101)], ids=lambda f: f.name)
def test_multiply_is_entrywise_with_broadcasting(field):
    rng = np.random.default_rng(31)
    A = rng.integers(0, 100, (3, 4))
    B = rng.integers(0, 100, (3, 4))
    mod = (lambda x: x % field.p) if field.p else (lambda x: x)
    rows = field_matrix(field, A.tolist())
    for other, ref in ((field_matrix(field, B.tolist()), A * B), (field.vector(B[0].tolist()), A * B[0])):
        out = field.multiply(rows, other)
        assert out.dtype == rows.dtype and out.tolist() == mod(ref).tolist()


@pytest.mark.parametrize("field", [GFP, PrimeField(101)], ids=lambda f: f.name)
def test_prime_elimination_takes_any_representative(field):
    # the Koszul differentials carry negated blocks -A, A in [0, p): rank
    # reads any integer matrix as its residues, including entries +-p that
    # stand for 0.  rref and reduce_rows take residues.  No call changes
    # its input.
    p = field.p
    rng = np.random.default_rng(29)
    for m, n in [(3, 4), (5, 5), (6, 3), (4, 8)]:
        A = rng.integers(0, p, (m, n))
        A[0] = 2 * A[1] % p  # a dependent row, so the rank is below m
        A[:, 0] = 0
        before = A.copy()
        ref = field.rref(A)
        assert not field.reduce_rows(A, ref).any()  # A's rows span ref's space
        assert (A == before).all()
        for rep in (-A, A + p * rng.integers(-2, 3, (m, n))):
            before = rep.copy()
            assert field.rank(rep) == field.rank(rep % p) == len(ref.pivots) < m
            assert (rep == before).all()  # inputs are left as they were
        assert ((rep % p == 0) & (rep != 0)).any()  # some +-p stands for 0


def test_prime_field_rejects_bad_moduli():
    for p in (-7, 0, 1, 4, 9, 91, 2**31 - 3, 2**32 + 15):
        with pytest.raises(BadField):
            PrimeField(p)
    assert PrimeField(2).p == 2
    assert PrimeField(65537).p == 65537


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to the first bases, and large known primes
    for n in (2047, 1373653, 25326001, 3215031751):
        assert not _is_prime(n)
    assert _is_prime(2**31 - 1) and _is_prime(2**61 - 1)


# --------------------------------------- rationals against plain Fractions


def _reference_rref(rows, ncols):
    """Textbook Gauss-Jordan over Fraction lists: (nonzero rows, pivots)."""
    A = [list(row) for row in rows]
    r, pivots = 0, []
    for c in range(ncols):
        pivot = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A[:r], pivots


def _random_rows(rng, m, n):
    """Entries p/q with zeros, a zero column and rank-deficient rows."""
    def entry():
        if rng.random() < 0.35:
            return Fraction(0)
        return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 7, 10)))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if n and rng.random() < 0.5:
        zc = rng.randrange(n)
        for row in rows:
            row[zc] = Fraction(0)
    if m >= 3 and rng.random() < 0.5:
        a, b = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(1, 4), 3)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    if m >= 2 and rng.random() < 0.2:
        rows[rng.randrange(m)] = [Fraction(0)] * n
    return rows


def _qq(rows, n):
    A = QQ.zeros(len(rows), n)
    for i, row in enumerate(rows):
        A[i, :] = row
    return A


def _cells(A):
    return [list(row) for row in A.tolist()]


def _canonical(row):
    """A Fraction row times the lcm of its denominators: the integer form
    Rationals.rref returns for a row of the reduced echelon form."""
    den = lcm(*[x.denominator for x in row])
    return [int(x * den) for x in row]


def test_rationals_kernel_matches_reference():
    rng = random.Random(20)
    shapes = [(0, 0), (0, 4), (3, 0), (1, 1), (6, 6), (9, 4), (4, 9)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(150)]
    for m, n in shapes:
        rows = _random_rows(rng, m, n)
        A = _qq([_canonical(row) for row in rows], n)
        ref_rows, ref_pivots = _reference_rref(rows, n)

        ech = QQ.rref(A)
        assert ech.pivots == tuple(ref_pivots)
        assert ech.rows.shape == (len(ref_rows), n)
        assert _cells(ech.rows) == [_canonical(row) for row in ref_rows]
        assert all(type(x) is int for x in ech.rows.flat)
        assert QQ.rank(A) == len(ref_pivots)

        # reduce_rows against subtracting one basis row at a time, times
        # the lcm of ech's pivots, one factor for every row; each row of W
        # is its Fraction row times the lcm d of its denominators
        wrows = _random_rows(rng, rng.randint(0, 5), n) + rows[:2]
        W = _qq([_canonical(w) for w in wrows], n)
        expected = [list(w) for w in wrows]
        for w in expected:
            for l, c in enumerate(ref_pivots):
                f = w[c]
                w[:] = [x - f * y for x, y in zip(w, ref_rows[l])]
        L = lcm(*[ech.rows[l, c] for l, c in enumerate(ech.pivots)])
        dens = [lcm(*[x.denominator for x in w]) for w in wrows]
        red = QQ.reduce_rows(W, ech)
        assert red.shape == W.shape
        assert _cells(red) == [[L * d * x for x in w] for d, w in zip(dens, expected)]

        # echelon makes reduced integer rows, scaled by any nonzero
        # factors (here -2, 3, -4, ...), primitive with a positive pivot again
        scaled = [[(-1) ** (l + 1) * (l + 2) * x for x in _canonical(row)]
                  for l, row in enumerate(ref_rows)]
        canon = QQ.echelon(_qq(scaled, n), ref_pivots)
        assert canon.pivots == ech.pivots and _cells(canon.rows) == _cells(ech.rows)
        assert all(type(x) is int for x in canon.rows.flat)


def test_rationals_reduce_rows_scales_all_rows_alike():
    # the exact reductions (0, 0, -1/2) and (0, 0, -1/3) have different
    # denominators; making each row primitive on its own would return
    # (0, 0, -1) twice, which is no common multiple of the two
    ech = QQ.rref(field_matrix(QQ, [[2, 0, 1], [0, 3, 1]]))
    assert _cells(ech.rows) == [[2, 0, 1], [0, 3, 1]]
    red = QQ.reduce_rows(field_matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 5]]), ech)
    assert _cells(red) == [[0, 0, -3], [0, 0, -2], [0, 0, 30]]


def test_rationals_canonical_rows_and_params():
    # rref rows (1, -1/2, 0) and (0, 0, 1) become (2, -1, 0) and (0, 0, 1)
    rows = [[-4, 2, 6], [0, 0, Fraction(-1, 3)]]
    ech = QQ.rref(_qq([_canonical(row) for row in rows], 3))
    assert ech.pivots == (0, 2) and _cells(ech.rows) == [[2, -1, 0], [0, 0, 1]]
    assert QQ.convert_params([Fraction(1, 2), 3, Fraction(-2, 3)]) == [3, 18, -4]
    with pytest.raises(BadField):
        QQ.convert_params([Fraction(1, 2), Fraction(2, 4)])


def test_rationals_rref_input_untouched():
    rows = [[Fraction(1, 2), 3, 0], [1, 6, Fraction(5, 3)]]
    A = _qq([_canonical(row) for row in rows], 3)
    before = _cells(A)
    QQ.rref(A)
    QQ.rank(A)
    QQ.reduce_rows(A, QQ.rref(A[:1]))
    assert _cells(A) == before


# --------------------------------------- prime fields against plain ints

# the largest prime p with (p-1)**2 < 2**63, the bound PrimeField accepts
LARGEST_P = 3037000493


def _reference_rref_mod(rows, ncols, p):
    """Textbook Gauss-Jordan over Python ints mod p: (nonzero rows, pivots)."""
    A = [[x % p for x in row] for row in rows]
    r, pivots = 0, []
    for c in range(ncols):
        pivot = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [x * inv % p for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A[:r], pivots


def _random_rows_mod(rng, m, n, p):
    """Residues with zeros, p - 1, a zero column and rank-deficient rows."""
    def entry():
        x = rng.random()
        if x < 0.3:
            return 0
        if x < 0.45:
            return p - 1
        return rng.randrange(p)

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if n and rng.random() < 0.4:
        zc = rng.randrange(n)
        for row in rows:
            row[zc] = 0
    if m >= 3 and rng.random() < 0.5:
        a, b = rng.randrange(p), rng.randrange(p)
        rows[-1] = [(a * x + b * y) % p for x, y in zip(rows[0], rows[1])]
    if m >= 2 and rng.random() < 0.2:
        rows[rng.randrange(m)] = [0] * n
    return rows


def _gf(rows, n):
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


@pytest.mark.parametrize("field", [PrimeField(101), GFP], ids=lambda f: f.name)
def test_prime_kernel_matches_reference(field):
    p = field.p
    rng = random.Random(22)
    shapes = [(0, 0), (0, 5), (4, 0), (1, 1), (6, 6), (9, 4), (4, 9), (12, 3)]
    shapes += [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(150)]
    for idx, (m, n) in enumerate(shapes):
        if idx == 4:
            rows = [[p - 1] * n for _ in range(m)]
        else:
            rows = _random_rows_mod(rng, m, n, p)
        A = _gf(rows, n)
        ref_rows, ref_pivots = _reference_rref_mod(rows, n, p)

        ech = field.rref(A)
        assert ech.pivots == tuple(ref_pivots)
        assert ech.rows.dtype == np.int64 and ech.rows.shape == (len(ref_rows), n)
        assert ech.rows.tolist() == ref_rows
        assert field.rank(A) == len(ref_pivots)
        assert A.tolist() == rows  # inputs are left as they were

        # reduce_rows against subtracting one basis row at a time
        wrows = _random_rows_mod(rng, rng.randint(0, 5), n, p) + rows[:2]
        expected = [list(w) for w in wrows]
        for w in expected:
            for l, c in enumerate(ref_pivots):
                f = w[c]
                w[:] = [(x - f * y) % p for x, y in zip(w, ref_rows[l])]
        red = field.reduce_rows(_gf(wrows, n), ech)
        assert red.dtype == np.int64 and red.tolist() == expected

        # rows with pivot 1 are already in the canonical form, and rows
        # scaled by units (here 2, p - 3, 4, ...) come back with pivot 1
        canon = field.echelon(ech.rows, list(ech.pivots))
        assert canon.pivots == ech.pivots and canon.rows.tolist() == ref_rows
        units = [(l + 2) * (-1) ** l % p for l in range(len(ref_rows))]
        scaled = [[u * x % p for x in row] for u, row in zip(units, ref_rows)]
        canon = field.echelon(_gf(scaled, n), ref_pivots)
        assert canon.pivots == ech.pivots
        assert canon.rows.dtype == np.int64 and canon.rows.tolist() == ref_rows


@pytest.mark.parametrize("p", [101, 2**31 - 1, LARGEST_P])
def test_prime_product_exact_past_one_chunk(p):
    # inner dimensions past 2**15 are cut into many chunks of 2**10, each
    # summed in one float64 product and reduced before the next is added
    field = PrimeField(p)
    rng = np.random.default_rng(23)
    full = lambda shape: np.full(shape, p - 1, dtype=np.int64)
    for A, B in (
        (full((1, 2**15 + 1)), full((2**15 + 1, 2))),
        (full((1, 2**16)), full((2**16, 2))),
        (rng.integers(0, p, (1, 2**15 + 1)), rng.integers(0, p, (2**15 + 1, 2))),
    ):
        a, cols = A[0].tolist(), B.T.tolist()
        expected = [[sum(x * y for x, y in zip(a, col)) % p for col in cols]]
        assert (field._product(A, B) % p).tolist() == expected
    assert (field._product(np.zeros((1, 0), dtype=np.int64),
                           np.zeros((0, 2), dtype=np.int64)) % p).tolist() == [[0, 0]]


def test_prime_product_exact_in_one_chunk():
    # an inner dimension of 2**15 is 32 chunks of 2**10 with every entry
    # p - 1, the largest sum each chunk can take
    for p in (101, 2**31 - 1, LARGEST_P):
        field = PrimeField(p)
        A = np.full((2, 2**15), p - 1, dtype=np.int64)
        assert (field._product(A, A.T.copy()) % p).tolist() == [[2**15 * (p - 1) ** 2 % p] * 2] * 2


@pytest.mark.parametrize("p", [2**31 - 1, LARGEST_P])
def test_prime_product_exact_at_the_float_bound(p):
    # each chunk of at most 2**10 terms sums limbs below 2**11 times residues
    # below 2**31.5, so every partial sum stays below 2**53 and float64 holds
    # it exactly.  Odd residues near p - 1 against entries whose two low
    # limbs are 2**11 - 1, as either factor, are the largest odd sums: a
    # chunk of 2**11 rounds some of them
    field = PrimeField(p)
    rng = np.random.default_rng(29)
    for k in (2**10, 2**10 + 1, 2**11, 3 * 2**10 + 7):
        odd = p - 2 - 2 * rng.integers(0, 50, (2, k))
        full_limbs = 2**22 - 1 + 2**22 * rng.integers(0, (p - 2**22) // 2**22, (k, 3))
        for A, B in ((odd, full_limbs), (full_limbs.T.copy(), odd.T.copy())):
            expected = [[sum(x * y for x, y in zip(row, col)) % p for col in B.T.tolist()]
                        for row in A.tolist()]
            assert (field._product(A, B) % p).tolist() == expected, k


@pytest.mark.parametrize("field", [PrimeField(101), GFP], ids=lambda f: f.name)
def test_prime_kernel_edge_shapes(field):
    # rref skips to the next column with a nonzero entry at or below the
    # current row and stops when none is left: empty shapes, all-zero
    # matrices, zero rows above, between and below the pivots and a single
    # entry in the last column all match the reference
    p = field.p
    rng = random.Random(25)
    cases = [([], 0), ([], 6), ([[]] * 5, 0), ([[]], 0), ([[0] * 5], 5),
             ([[0] * 4] * 3, 4), ([[0, 0, 0, p - 1]], 4), ([[0, 0, 0], [0, 0, 0], [0, 0, 7]], 3),
             ([[0, 3, 1, 0], [0, 0, 0, 0], [0, 6, 2, 0], [0, 0, 0, 5], [0, 0, 0, 0]], 4)]
    for _ in range(60):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_rows_mod(rng, m, n, p)
        for _ in range(rng.randint(1, 3)):
            rows.insert(rng.randint(0, len(rows)), [0] * n)
        cases.append((rows, n))
    for rows, n in cases:
        A = _gf(rows, n)
        ref_rows, ref_pivots = _reference_rref_mod(rows, n, p)
        ech = field.rref(A)
        assert ech.pivots == tuple(ref_pivots), rows
        assert ech.rows.dtype == np.int64 and ech.rows.shape == (len(ref_rows), n)
        assert ech.rows.tolist() == ref_rows
        assert field.rank(A) == len(ref_pivots)
        assert A.tolist() == rows


@pytest.mark.parametrize("field", [QQ, PrimeField(101), GFP, PrimeField(LARGEST_P)],
                         ids=lambda f: f.name)
def test_quotient_coords_matches_two_reductions(field):
    # quotient_coords(W, ech, sub, cols) against the two reduce_rows it
    # replaces in the Koszul maps: None when a row of W leaves span(ech),
    # else reduce_rows(W, sub) read at cols (over QQ with the same factor L).
    # sub is spanned by combinations of ech's rows, so its pivots are among
    # ech's but its rows need not be ech's rows
    rng = random.Random(37)
    p = field.p or 0
    big = p - 1 if p else 10**12

    def combos(rows, k, n):
        """k random combinations of the integer rows, as field elements."""
        out = [[0] * n for _ in range(k)]
        for row in out:
            for basis_row in rows:
                c = rng.choice((0, 1, -1, big, rng.randint(-big, big)))
                row[:] = [x + c * y for x, y in zip(row, basis_row)]
        return field_matrix(field, out) if k else field.zeros(0, n)

    cases = 0
    for _ in range(120):
        n = rng.randint(1, 12)
        gen = [[rng.choice((0, 0, 1, -1, big, rng.randint(-big, big))) for _ in range(n)]
               for _ in range(rng.randint(0, n))]
        ech = field.rref(field_matrix(field, gen) if gen else field.zeros(0, n))
        ech_rows = [[int(x) for x in row] for row in ech.rows.tolist()]
        sub = field.rref(combos(ech_rows, rng.randint(0, len(ech_rows)), n))
        assert set(sub.pivots) <= set(ech.pivots)
        free = [c for c in range(n) if c not in sub.pivots]
        basis_cols = [c for c in ech.pivots if c not in sub.pivots]
        for cols in (basis_cols, sorted(rng.sample(free, rng.randint(0, len(free))))):
            m = rng.randint(0, 6)
            W = combos(ech_rows, m, n)
            before = W.copy()
            got = field.quotient_coords(W, ech, sub, cols)
            ref = field.reduce_rows(W, sub)[:, cols]
            assert not field.reduce_rows(W, ech).any()
            assert got is not None and got.dtype == ref.dtype and got.shape == ref.shape
            assert (got == ref).all()
            assert (W == before).all()
            cases += 1
            # one row outside span(ech) among rows inside it gives None
            if len(ech.pivots) < n:
                out = field_matrix(field, [[rng.randint(1, 9) for _ in range(n)]])
                if field.reduce_rows(out, ech).any():
                    at = rng.randint(0, m)
                    Wout = np.concatenate((W[:at], out, W[at:]))
                    assert field.quotient_coords(Wout, ech, sub, cols) is None
                    cases += 1
    assert cases > 250


def test_field_by_name_rejects_bad_modulus():
    # a modulus that is not an integer is an unknown field, with the message
    # the CLI prints for any other unknown name
    for name in ("prime:abc", "prime:", "gfp:101x", "gfp:1.5"):
        with pytest.raises(ValueError) as info:
            field_by_name(name)
        assert str(info.value) == "unknown field %r" % name
    assert field_by_name("gfp:65537").p == 65537
    with pytest.raises(BadField):
        field_by_name("prime:4")  # an integer modulus is still checked


def _reduce_rows_reference(wrows, ref_rows, ref_pivots, p):
    """W with one basis row subtracted at a time, over Python ints."""
    out = [[x % p for x in w] for w in wrows]
    for w in out:
        for l, c in enumerate(ref_pivots):
            f = w[c]
            w[:] = [(x - f * y) % p for x, y in zip(w, ref_rows[l])]
    return out


def _echelon_rows(rng, pivots, n, p):
    """A reduced echelon basis with the given pivot columns: 1 at its pivot,
    0 left of it and at every other pivot, residues with zeros and p - 1
    elsewhere."""
    free = set(range(n)).difference(pivots)
    rows = []
    for c in pivots:
        row = [0] * n
        row[c] = 1
        for j in range(c + 1, n):
            if j in free:
                row[j] = rng.choice((0, p - 1, rng.randrange(p)))
        rows.append(row)
    return rows


def test_prime_unreduced_product_at_its_bound():
    # reduce_rows subtracts a product that is reduced only as far as int64
    # needs; at an inner dimension of 2**15 (chunked) with every entry p - 1
    # for the largest p it still lies in [0, 2**63) and is congruent to the
    # exact one
    p = LARGEST_P
    field = PrimeField(p)
    A = np.full((2, 2**15), p - 1, dtype=np.int64)
    B = np.full((2**15, 3), p - 1, dtype=np.int64)
    prod = field._product(A, B)
    exact = 2**15 * (p - 1) ** 2
    assert prod.dtype == np.int64 and (prod >= 0).all()
    assert (prod % p == exact % p).all()
    for w in (0, p - 1):
        assert ((w - prod) % p == (w - exact) % p).all()

    # reduce_rows itself with every entry p - 1, against a wide echelon and
    # a narrow one (a 2**15-pivot echelon would take 8 GiB)
    rng = random.Random(31)
    for k, n in ((2**9, 2**9 + 3), (2**7, 4 * 2**7 + 5)):
        pivots = sorted(rng.sample(range(n), k))
        free = set(range(n)).difference(pivots)
        ref_rows = [[0] * c + [1] + [p - 1 if j in free else 0 for j in range(c + 1, n)]
                    for c in pivots]
        ech = Echelon(_gf(ref_rows, n), tuple(pivots))
        wrows = [[p - 1] * n, [p - 1 - (j % 2) for j in range(n)]]
        expected = _reduce_rows_reference(wrows, ref_rows, pivots, p)
        assert field.reduce_rows(_gf(wrows, n), ech).tolist() == expected


@pytest.mark.parametrize("field", [PrimeField(101), GFP], ids=lambda f: f.name)
def test_prime_reduce_rows_every_pivot_share(field):
    # against echelons whose pivots cover none, one short of a quarter, a
    # quarter, a half and all of the columns, reduce_rows matches the
    # row-by-row reference and leaves W as it was; rank reads -W and W + p
    # as W and leaves them as they were
    p = field.p
    rng = random.Random(33)
    for n in (1, 4, 8, 13, 16, 40):
        shares = {0, max(n // 4 - 1, 0), -(-n // 4), n // 2, n}
        for k in sorted(shares):
            pivots = sorted(rng.sample(range(n), k))
            ref_rows = _echelon_rows(rng, pivots, n, p)
            ech = field.rref(_gf(ref_rows, n)) if k else field.rref(_gf([], n))
            assert ech.pivots == tuple(pivots) and ech.rows.tolist() == ref_rows
            wrows = _random_rows_mod(rng, rng.randint(1, 6), n, p) + ref_rows[:1]
            W = _gf(wrows, n)
            expected = _reduce_rows_reference(wrows, ref_rows, pivots, p)
            red = field.reduce_rows(W, ech)
            assert red.dtype == np.int64 and red.tolist() == expected, (n, k)
            assert W.tolist() == wrows
            rank = len(_reference_rref_mod(wrows, n, p)[1])
            for rep in (-W, W + p):
                before = rep.copy()
                assert field.rank(rep) == rank, (n, k)
                assert (rep == before).all()


def _block_sparse(rng, p):
    """A Koszul-like matrix: blocks on a grid of row and column bands, most
    of them absent, some negated, with zero rows between the nonzero ones;
    returned as the residues and as the int64 matrix the oracle would pass."""
    rbands = [rng.randint(0, 8) for _ in range(rng.randint(1, 7))]
    cbands = [rng.randint(0, 8) for _ in range(rng.randint(1, 7))]
    m, n = sum(rbands), sum(cbands)
    res = [[0] * n for _ in range(m)]
    rep = [[0] * n for _ in range(m)]
    r0 = 0
    for h in rbands:
        c0 = 0
        for w in cbands:
            if rng.random() < 0.45:
                sign = rng.choice((1, -1))
                for i in range(r0, r0 + h):
                    if rng.random() < 0.25:
                        continue  # a zero row inside the block
                    for j in range(c0, c0 + w):
                        x = rng.choice((0, 0, 1, p - 1, rng.randrange(p)))
                        res[i][j], rep[i][j] = sign * x % p, sign * x
            c0 += w
        r0 += h
    if m >= 3 and rng.random() < 0.5:
        # a combination of two rows further down: a rank deficiency whose
        # hits in a column are not contiguous
        a, b, t = rng.randrange(1, p), rng.randrange(p), rng.randrange(2, m)
        res[t] = [(a * x + b * y) % p for x, y in zip(res[0], res[1])]
        rep[t] = list(res[t])
    return res, _gf(rep, n)


@pytest.mark.parametrize("field", [PrimeField(101), GFP], ids=lambda f: f.name)
def test_prime_rank_on_block_sparse_matrices(field):
    # rank updates only the rows its nonzero scan hit; on matrices shaped
    # like the direct engine's Koszul differentials it matches the reference
    p = field.p
    rng = random.Random(35)
    fixed = [
        [[0, 1], [0, 0], [0, 0], [0, 5], [0, 0], [3, 2]],  # hits 0, 3 and 5
        [[0, 0, 0], [2, 0, 1], [0, 0, 0], [4, 0, 2], [0, 0, 0], [6, 1, 3]],
    ]
    # each fixed matrix as its negated representative
    cases = [([[-x % p for x in row] for row in rows], -_gf(rows, len(rows[0]))) for rows in fixed]
    cases += [_block_sparse(rng, p) for _ in range(80)]
    for res, A in cases:
        before = A.copy()
        assert field.rank(A) == len(_reference_rref_mod(res, A.shape[1], p)[1])
        assert (A == before).all()
