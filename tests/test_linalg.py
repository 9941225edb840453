import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crystal_grid import linalg
from crystal_grid.linalg import QQ, Mat, PrimeField


F7 = PrimeField(7)


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_arithmetic():
    assert F7.reduce(5 + 4) == 2
    assert F7.reduce(3 * 5) == 1
    assert F7.reduce(-3) == 4
    assert F7.inv(3) == 5
    assert F7.reduce(3 * F7.inv(3)) == F7.one
    assert QQ.reduce(Fraction(-3, 2)) == Fraction(-3, 2)
    assert QQ.inv(Fraction(-3, 2)) == Fraction(-2, 3)
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


def test_default_prime_is_prime():
    assert linalg.is_prime(32003)


def test_mat_shape_validation():
    with pytest.raises(ValueError):
        Mat(2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        Mat(1, 2, ((1, 2, 3),))


def test_mul_and_identity():
    a = linalg.from_int_rows(F7, [[1, 2], [3, 4]])
    assert linalg.mul(F7, a, linalg.identity(F7, 2)) == a
    b = linalg.from_int_rows(F7, [[0, 1], [1, 0]])
    assert linalg.mul(F7, a, b).rows == ((2, 1), (4, 3))


def test_zero_dimensional_shapes():
    a = linalg.zeros(F7, 0, 3)
    b = linalg.zeros(F7, 3, 0)
    assert linalg.rank(F7, a) == 0
    assert linalg.rank(F7, b) == 0
    prod = linalg.mul(F7, b, a)
    assert (prod.nrows, prod.ncols) == (3, 3)
    assert linalg.is_zero(prod)
    assert linalg.nullspace(F7, a) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_rank_and_nullspace_rational():
    a = linalg.from_int_rows(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert linalg.rank(QQ, a) == 2
    for v in linalg.nullspace(QQ, a):
        image = linalg.mul(QQ, a, Mat(3, 1, tuple((x,) for x in v)))
        assert linalg.is_zero(image)


def test_solve_consistent_and_inconsistent():
    a = linalg.from_int_rows(QQ, [[1, 1], [1, -1]])
    x = linalg.solve(QQ, a, (Fraction(3), Fraction(1)))
    assert x == (Fraction(2), Fraction(1))
    b = linalg.from_int_rows(QQ, [[1, 1], [2, 2]])
    assert linalg.solve(QQ, b, (Fraction(0), Fraction(1))) is None


def test_inverse_round_trip():
    a = linalg.from_int_rows(F7, [[2, 1], [5, 3]])
    inv = linalg.inverse(F7, a)
    assert linalg.mul(F7, a, inv) == linalg.identity(F7, 2)
    with pytest.raises(ValueError):
        linalg.inverse(F7, linalg.from_int_rows(F7, [[1, 1], [1, 1]]))


def test_random_full_rank_has_full_rank():
    rng = random.Random(5)
    # Over GF(2) most square draws are singular, so the rejection loop runs.
    for field in (F7, linalg.PrimeField(2)):
        for shape in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (5, 5)):
            for _ in range(10):
                g = linalg.random_full_rank(field, *shape, rng)
                assert (g.nrows, g.ncols) == shape
                assert linalg.rank(field, g) == min(shape)


FIELDS = st.sampled_from([F7, QQ])


def int_matrices(min_rows=1, max_rows=4, min_cols=1, max_cols=4):
    return st.integers(min_cols, max_cols).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=min_rows, max_size=max_rows))


@settings(max_examples=60, deadline=None)
@given(FIELDS, int_matrices(min_rows=2, min_cols=3, max_cols=3))
def test_rank_equals_rank_of_transpose(field, rows):
    a = linalg.from_int_rows(field, rows)
    assert linalg.rank(field, a) == linalg.rank(field, linalg.transpose(a))


@settings(max_examples=60, deadline=None)
@given(FIELDS, int_matrices(min_rows=2, max_rows=2, min_cols=2, max_cols=2),
       st.lists(st.integers(-4, 4), min_size=2, max_size=2))
def test_solve_returns_actual_solutions(field, rows, rhs):
    a = linalg.from_int_rows(field, rows)
    b = tuple(field.from_int(x) for x in rhs)
    x = linalg.solve(field, a, b)
    if x is not None:
        image = linalg.mul(field, a, Mat(2, 1, tuple((v,) for v in x)))
        assert tuple(r[0] for r in image.rows) == b


@settings(max_examples=120, deadline=None)
@given(FIELDS, int_matrices())
def test_rank_rref_nullspace_inverse_agree(field, rows):
    a = linalg.from_int_rows(field, rows)
    r = linalg.rank(field, a)
    assert r == len(linalg.rref(field, a)[1])
    kernel = linalg.nullspace(field, a)
    assert len(kernel) == a.ncols - r
    for v in kernel:
        assert linalg.is_zero(linalg.mul(field, a, Mat(a.ncols, 1, tuple((x,) for x in v))))
    if a.nrows == a.ncols == r:
        inv = linalg.inverse(field, a)
        assert linalg.mul(field, a, inv) == linalg.identity(field, r)
        assert linalg.mul(field, inv, a) == linalg.identity(field, r)
    elif a.nrows == a.ncols:
        with pytest.raises(ValueError):
            linalg.inverse(field, a)
