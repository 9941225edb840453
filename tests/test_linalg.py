import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crystal_grid import linalg
from crystal_grid.linalg import QQ, Mat, PrimeField


F7 = PrimeField(7)
F32003 = PrimeField(32003)


# The oracle: elimination and product one reduced entry at a time, as
# linalg computed them before the fields grew row kernels.

def _oracle_eliminate(field, a: Mat, reduced: bool):
    red = field.reduce
    rows = [list(r) for r in a.rows]
    m = a.nrows
    pivots = []
    for c in range(a.ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r]
        inv = field.inv(lead[c])
        for i in range(0 if reduced else r + 1, m):
            f = rows[i][c]
            if f and i != r:
                f = red(f * inv)
                rows[i] = [red(x - f * y) for x, y in zip(rows[i], lead)]
        if reduced:
            rows[r] = [red(inv * x) for x in lead]
        pivots.append(c)
    return rows, tuple(pivots)


def _oracle_mul(field, a: Mat, b: Mat) -> Mat:
    red, zero = field.reduce, field.zero
    bt = list(zip(*b.rows)) if b.rows else [()] * b.ncols
    return Mat(a.nrows, b.ncols, tuple(
        tuple(red(sum((x * y for x, y in zip(ra, col)), zero)) for col in bt)
        for ra in a.rows))


def _oracle_rank(field, a):
    return len(_oracle_eliminate(field, a, reduced=False)[1])


def _oracle_rref(field, a):
    rows, pivots = _oracle_eliminate(field, a, reduced=True)
    return Mat(a.nrows, a.ncols, tuple(tuple(row) for row in rows)), pivots


def _oracle_nullspace(field, a):
    echelon, pivots = _oracle_rref(field, a)
    basis = []
    for f in (j for j in range(a.ncols) if j not in pivots):
        v = [field.zero] * a.ncols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.reduce(-echelon.rows[r][f])
        basis.append(tuple(v))
    return tuple(basis)


def _oracle_solve(field, a, b):
    column = Mat(a.nrows, 1, tuple((x,) for x in b))
    echelon, pivots = _oracle_rref(field, linalg.hstack([a, column]))
    if a.ncols in pivots:
        return None
    x = [field.zero] * a.ncols
    for r, c in enumerate(pivots):
        x[c] = echelon.rows[r][a.ncols]
    return tuple(x)


def _oracle_inverse(field, a):
    n = a.nrows
    echelon, pivots = _oracle_rref(field, linalg.hstack([a, linalg.identity(field, n)]))
    if pivots != tuple(range(n)):
        return None
    return Mat(n, n, tuple(r[n:] for r in echelon.rows))


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
    assert F32003.inv(2) == 16002
    assert F7.reduce(3 * F7.inv(3)) == F7.one
    assert QQ.reduce(Fraction(-3, 2)) == Fraction(-3, 2)
    assert QQ.inv(Fraction(-3, 2)) == Fraction(-2, 3)
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


def test_row_kernels():
    assert F7.dots([1, 2], [(3, 4), (5, 6), (0, 0)]) == [4, 3, 0]
    assert QQ.dots([Fraction(1, 2), Fraction(1)], [(Fraction(2), Fraction(-1))]) == [Fraction(0)]
    assert repr(QQ.dots([], [(), ()])) == repr([Fraction(0), Fraction(0)])
    # The echelon form leaves the pivot row unscaled; the reduced form scales it.
    rows = [(2, 4, 1), (1, 2, 0), (3, 6, 5)]
    assert F7.eliminate(rows, 3, False) == (0, 2)
    assert rows == [(2, 4, 1), [0, 0, 3], [0, 0, 0]]
    rows = [(2, 4, 1), (1, 2, 0), (3, 6, 5)]
    assert F7.eliminate(rows, 3, True) == (0, 2)
    assert rows == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]
    rows = [(Fraction(2), Fraction(4)), (Fraction(1), Fraction(3))]
    assert QQ.eliminate(rows, 2, False) == (0, 1)
    assert rows == [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]


@pytest.mark.parametrize("p", [7, 101, 32003])
@given(seed=st.integers(0, 2**32), n=st.integers(0, 12))
@settings(max_examples=20, deadline=None)
def test_rand_row_draws_randrange_in_order(p, seed, n):
    rng = random.Random(seed)
    expected = [rng.randrange(p) for _ in range(n)]
    assert PrimeField(p).rand_row(random.Random(seed), n) == expected


@pytest.mark.parametrize("p", [101, 257, 32003, 131071])
def test_rand_row_leaves_the_stream_as_randrange_does(p):
    # 257 rejects about half of its 9-bit draws, 131071 = 2**17 - 1 almost none.
    field = PrimeField(p)
    for seed in range(10):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in (0, 1, 6, 40):
            assert field.rand_row(ours, n) == [theirs.randrange(p) for _ in range(n)]
            assert ours.getstate() == theirs.getstate()


def test_default_prime_is_prime():
    assert linalg.is_prime(32003)


def test_mat_shape_validation():
    with pytest.raises(ValueError):
        Mat(2, 2, ((1, 2),))
    with pytest.raises(ValueError):
        Mat(1, 2, ((1, 2, 3),))


def test_mat_shape_errors_name_the_mismatch():
    with pytest.raises(ValueError, match="^row count mismatch$"):
        Mat(2, 2, ((1, 2),))
    with pytest.raises(ValueError, match="^row count mismatch$"):
        Mat(0, 3, ((1, 2, 3),))
    with pytest.raises(ValueError, match="^column count mismatch$"):
        Mat(2, 2, ((1, 2), (3,)))
    with pytest.raises(ValueError, match="^column count mismatch$"):
        Mat(1, 0, ((1,),))
    assert Mat(nrows=3, ncols=0, rows=((), (), ())).ncols == 0


def test_mat_is_an_immutable_value():
    a = Mat(2, 2, ((1, 2), (3, 4)))
    b = linalg.from_int_rows(F7, [[1, 2], [3, 4]])
    assert (a.nrows, a.ncols, a.rows) == (2, 2, ((1, 2), (3, 4)))
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash((2, 2, ((1, 2), (3, 4))))
    assert {a: "x"}[b] == "x"
    assert a != Mat(2, 2, ((1, 2), (3, 5))) and Mat(0, 2, ()) != Mat(0, 3, ())
    # Equal by value to another Mat only, never to its fields as a tuple.
    assert a != (2, 2, ((1, 2), (3, 4))) and not a == (2, 2, ((1, 2), (3, 4)))
    assert repr(a) == "Mat(nrows=2, ncols=2, rows=((1, 2), (3, 4)))"
    assert repr(Mat(0, 3, ())) == "Mat(nrows=0, ncols=3, rows=())"
    for name in ("nrows", "ncols", "rows", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    assert a.rows == ((1, 2), (3, 4))
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a


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
        for nrows, ncols in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (5, 5)):
            for _ in range(10):
                g = linalg.random_full_rank_rows(field, nrows, ncols, rng)
                assert len(g) == nrows and all(len(row) == ncols for row in g)
                assert linalg.rank(field, linalg.mat(g, ncols=ncols)) == min(nrows, ncols)


@pytest.mark.parametrize("nrows, ncols", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2)])
@pytest.mark.parametrize("prime", [101, 32003])
def test_random_rows_are_drawn_in_one_call_in_row_major_order(prime, nrows, ncols):
    # randrange(101) rejects about one k-bit draw in five, so the stream's
    # own rejections are compared too.
    rng, ref = random.Random(f"{nrows}x{ncols}"), random.Random(f"{nrows}x{ncols}")
    rows = linalg.random_rows(PrimeField(prime), nrows, ncols, rng)
    assert len(rows) == nrows and all(len(row) == ncols for row in rows)
    assert [x for row in rows for x in row] == [ref.randrange(prime)
                                               for _ in range(nrows * ncols)]
    assert rng.getstate() == ref.getstate()


FIELDS = st.sampled_from([F7, QQ])


def int_matrices(min_rows=1, max_rows=4, min_cols=1, max_cols=4):
    return st.integers(min_cols, max_cols).flatmap(lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=min_rows, max_size=max_rows))


@settings(max_examples=60, deadline=None)
@given(FIELDS, int_matrices(min_rows=2, min_cols=3, max_cols=3))
def test_rank_equals_rank_of_transpose(field, rows):
    # rank eliminates whichever orientation has fewer rows; rref never
    # transposes, so the right side eliminates the transpose itself.
    a = linalg.from_int_rows(field, rows)
    assert linalg.rank(field, a) == len(linalg.rref(field, linalg.transpose(a))[1])


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


def _entries(field):
    if field == QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=3)
    # Small integers give rank-deficient matrices, large ones generic entries.
    return st.one_of(st.integers(-4, 4), st.integers(0, 10**6)).map(field.from_int)


@st.composite
def field_problems(draw):
    """A field, a matrix of shape 0..6 x 0..6, a right-hand side and a
    second factor for a product."""
    field = draw(st.sampled_from([F7, F32003, QQ]))
    entries = _entries(field)
    nrows, ncols, other = (draw(st.integers(0, 6)) for _ in range(3))
    if draw(st.booleans()):
        ncols = nrows     # square, for the inverse
    a = linalg.mat(draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                                 min_size=nrows, max_size=nrows)), ncols)
    b = linalg.mat(draw(st.lists(st.lists(entries, min_size=other, max_size=other),
                                 min_size=ncols, max_size=ncols)), other)
    rhs = tuple(draw(st.lists(entries, min_size=nrows, max_size=nrows)))
    return field, a, b, rhs


def _same(got, want):
    assert got == want
    assert repr(got) == repr(want)    # also the type of every entry


@settings(max_examples=150, deadline=None)
@given(field_problems())
def test_row_kernels_match_the_per_entry_oracle(problem):
    field, a, b, rhs = problem
    _same(linalg.rank(field, a), _oracle_rank(field, a))
    _same(linalg.rref(field, a), _oracle_rref(field, a))
    _same(linalg.nullspace(field, a), _oracle_nullspace(field, a))
    _same(linalg.solve(field, a, rhs), _oracle_solve(field, a, rhs))
    _same(linalg.mul(field, a, b), _oracle_mul(field, a, b))
    if a.nrows == a.ncols:
        want = _oracle_inverse(field, a)
        if want is None:
            with pytest.raises(ValueError):
                linalg.inverse(field, a)
        else:
            _same(linalg.inverse(field, a), want)
