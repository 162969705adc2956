"""Exact linear algebra over the rationals and a big prime field."""

import random
from fractions import Fraction

import numpy as np
import pytest

from biproj.errors import BadField
from biproj.fields import GFP, QQ, PrimeField, _is_prime, default_field, field_by_name


FIELDS = [QQ, GFP, PrimeField(101)]


@pytest.mark.parametrize("field", FIELDS)
def test_rref_rank_known_matrix(field):
    A = field.array([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    ech = field.rref(A)
    assert field.rank(A) == 2
    assert len(ech.pivots) == 2
    # pivots are unit columns
    for r, c in enumerate(ech.pivots):
        col = ech.rows[:, c]
        assert col[r] == field.scalar(1)
        assert all(col[k] == field.scalar(0) for k in range(len(ech.pivots)) if k != r)


@pytest.mark.parametrize("field", FIELDS)
def test_reduce_rows_clears_span(field):
    A = field.array([[1, 1, 0], [0, 1, 1]])
    ech = field.rref(A)
    W = field.array([[2, 3, 1], [1, 2, 1]])  # both in the row span
    red = field.reduce_rows(W, ech)
    assert not (red != 0).any()


def test_rationals_scalar_parses_fraction_strings():
    assert QQ.scalar("7/3") == Fraction(7, 3)
    assert QQ.scalar(5) == Fraction(5)


def test_rationals_exactness():
    # 1/3 * 3 == 1 exactly; floats would not survive rref pivoting
    A = QQ.array([[Fraction(1, 3), 1], [1, 3]])
    assert QQ.rank(A) == 1


def test_prime_field_fraction_conversion():
    f = PrimeField(7)
    x = f.scalar(Fraction(1, 3))
    assert (x * 3) % 7 == 1
    with pytest.raises(BadField):
        f.scalar(Fraction(1, 7))  # denominator vanishes mod p


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
        assert field.rank(field.array(A.tolist())) == expected


def test_fields_expose_the_same_ten_methods():
    def methods(field):
        return {n for n in dir(field) if not n.startswith("_") and callable(getattr(field, n))}

    assert methods(QQ) == methods(GFP) == {
        "scalar", "vector", "array", "zeros", "convert_params",
        "scale_columns", "rref", "rank", "reduce_rows", "extend"}


@pytest.mark.parametrize("field", [GFP, PrimeField(101)], ids=lambda f: f.name)
def test_prime_elimination_takes_any_representative(field):
    # the Koszul differentials carry negated blocks -A, A in [0, p): rref,
    # rank, reduce_rows and extend read any integer matrix as its residues,
    # including entries +-p that stand for 0
    p = field.p
    rng = np.random.default_rng(29)
    for m, n in [(3, 4), (5, 5), (6, 3), (4, 8)]:
        A = rng.integers(0, p, (m, n))
        A[0] = 2 * A[1] % p  # a dependent row, so the rank is below m
        A[:, 0] = 0
        ref = field.rref(A)
        for rep in (-A, A + p * rng.integers(-2, 3, (m, n))):
            before = rep.copy()
            ech = field.rref(rep)
            assert ech.pivots == ref.pivots and (ech.rows == ref.rows).all()
            assert field.rank(rep) == field.rank(rep % p) == len(ref.pivots) < m
            assert (field.reduce_rows(rep, ref) == field.reduce_rows(rep % p, ref)).all()
            ext = field.extend(field.rref(A[:1]), rep)
            assert ext.pivots == field.rref(np.vstack([A[:1], rep % p])).pivots
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


def test_rationals_kernel_matches_reference():
    rng = random.Random(20)
    shapes = [(0, 0), (0, 4), (3, 0), (1, 1), (6, 6), (9, 4), (4, 9)]
    shapes += [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(150)]
    for m, n in shapes:
        rows = _random_rows(rng, m, n)
        A = _qq(rows, n)
        ref_rows, ref_pivots = _reference_rref(rows, n)

        ech = QQ.rref(A)
        assert ech.pivots == tuple(ref_pivots)
        assert ech.rows.shape == (len(ref_rows), n)
        assert _cells(ech.rows) == ref_rows
        assert all(type(x) is Fraction for x in ech.rows.flat)
        assert QQ.rank(A) == len(ref_pivots)

        # reduce_rows against subtracting one basis row at a time
        wrows = _random_rows(rng, rng.randint(0, 5), n) + rows[:2]
        W = _qq(wrows, n)
        expected = [list(w) for w in wrows]
        for w in expected:
            for l, c in enumerate(ref_pivots):
                f = w[c]
                w[:] = [x - f * y for x, y in zip(w, ref_rows[l])]
        red = QQ.reduce_rows(W, ech)
        assert red.shape == W.shape
        assert _cells(red) == expected
        assert all(type(x) is Fraction for x in red.flat)

        ext_rows, ext_pivots = _reference_rref(rows + wrows, n)
        ext = QQ.extend(ech, W)
        assert ext.pivots == tuple(ext_pivots)
        assert ext.rows.shape == (len(ext_rows), n)
        assert _cells(ext.rows) == ext_rows


def test_rationals_rref_input_untouched():
    A = QQ.array([[Fraction(1, 2), 3, 0], [1, 6, Fraction(5, 3)]])
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

        # extend by a few rows, some of them already in the span
        new = _random_rows_mod(rng, rng.randint(0, 4), n, p) + rows[1:2]
        ext_rows, ext_pivots = _reference_rref_mod(rows + new, n, p)
        ext = field.extend(ech, _gf(new, n))
        assert ext.pivots == tuple(ext_pivots)
        assert ext.rows.dtype == np.int64 and ext.rows.shape == (len(ext_rows), n)
        assert ext.rows.tolist() == ext_rows


@pytest.mark.parametrize("p", [101, 2**31 - 1, LARGEST_P])
def test_prime_product_exact_past_one_chunk(p):
    # inner dimensions past 2**15 take the chunked path: without the split a
    # sum of (p-1)**2 products overflows int64 (for the two large p), and
    # without the chunks one of 2**16 products with the low halves does
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
        assert field._mul(A, B).tolist() == expected
    assert field._mul(np.zeros((1, 0), dtype=np.int64),
                      np.zeros((0, 2), dtype=np.int64)).tolist() == [[0, 0]]
