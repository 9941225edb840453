import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crystal_grid import linalg
from crystal_grid.linalg import QQ, PrimeField
from reference_draws import random_full_rank, random_rows


F7 = PrimeField(7)
F32003 = PrimeField(32003)


# The oracle: elimination and product one reduced entry at a time, as
# linalg computed them before the fields grew row kernels.  Matrices are
# rows; every routine that needs a width takes it.

def _inv(field, x):
    """The inverse of a nonzero entry, computed here and not by the field."""
    return pow(x, -1, field.p) if isinstance(field, PrimeField) else 1 / Fraction(x)


def _of_int(field, n):
    """The image of an integer in the field."""
    return n % field.p if isinstance(field, PrimeField) else Fraction(n)


def _oracle_eliminate(field, a, ncols, reduced: bool):
    red = field.reduce
    rows = [list(r) for r in a]
    m = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r]
        inv = _inv(field, lead[c])
        for i in range(0 if reduced else r + 1, m):
            f = rows[i][c]
            if f and i != r:
                f = red(f * inv)
                rows[i] = [red(x - f * y) for x, y in zip(rows[i], lead)]
        if reduced:
            rows[r] = [red(inv * x) for x in lead]
        pivots.append(c)
    return rows, tuple(pivots)


def _oracle_mul(field, a, b, ncols):
    red, zero = field.reduce, field.zero
    bt = list(zip(*b)) if b else [()] * ncols
    return [[red(sum((x * y for x, y in zip(ra, col)), zero)) for col in bt] for ra in a]


def _oracle_rank(field, a, ncols):
    return len(_oracle_eliminate(field, a, ncols, reduced=False)[1])


def _oracle_rref(field, a, ncols):
    return _oracle_eliminate(field, a, ncols, reduced=True)


def _oracle_nullspace(field, a, ncols):
    echelon, pivots = _oracle_rref(field, a, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [field.zero] * ncols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.reduce(-echelon[r][f])
        basis.append(v)
    return basis


def _identity(field, n):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def _oracle_inverse(field, a):
    n = len(a)
    augmented = [list(row) + unit for row, unit in zip(a, _identity(field, n))]
    echelon, pivots = _oracle_rref(field, augmented, 2 * n)
    if pivots != tuple(range(n)):
        return None
    return [r[n:] for r in echelon]


def _is_zero(rows):
    return not any(x for row in rows for x in row)


def _column(v):
    return [[x] for x in v]


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(9)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_prime_field_arithmetic():
    assert F7.reduce(5 + 4) == 2
    assert F7.reduce(3 * 5) == 1
    assert F7.reduce(-3) == 4
    assert (F7.zero, F7.one) == (0, 1)
    assert QQ.reduce(Fraction(-3, 2)) == Fraction(-3, 2)
    assert QQ.inv(Fraction(-3, 2)) == Fraction(-2, 3)
    assert QQ.inv(3) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


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


def test_mul_and_identity():
    a = [[1, 2], [3, 4]]
    assert linalg.mul(F7, a, _identity(F7, 2), 2) == a
    assert linalg.mul(F7, a, ((0, 1), (1, 0)), 2) == [[2, 1], [4, 3]]
    # Rows may be lists or tuples; the product's rows are lists.
    assert linalg.mul(F7, ((1, 2),), [(3,), (4,)], 1) == [[4]]


def test_zero_dimensional_shapes():
    a = ()                 # 0 x 3
    b = ((),) * 3          # 3 x 0
    assert linalg.rank(F7, a, 3) == 0
    assert linalg.rank(F7, b, 0) == 0
    assert linalg.mul(F7, b, a, 3) == [[0, 0, 0]] * 3
    assert linalg.mul(F7, a, b, 0) == []
    assert linalg.mul(F7, ((),), ((),) * 0, 2) == [[0, 0]]
    assert linalg.rref(F7, a, 3) == ([], ())
    assert linalg.nullspace(F7, [], (), 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.inverse(F7, ()) == []
    assert random_full_rank(F7, 0, 3, random.Random(0)) == []


def test_rank_and_nullspace_rational():
    a = [[Fraction(x) for x in row] for row in ((1, 2, 3), (2, 4, 6), (1, 0, 1))]
    assert linalg.rank(QQ, a, 3) == 2
    kernel = linalg.nullspace(QQ, *linalg.rref(QQ, a, 3), 3)
    assert kernel == [[Fraction(-1), Fraction(-1), Fraction(1)]]
    for v in kernel:
        assert _is_zero(linalg.mul(QQ, a, _column(v), 1))


def test_inverse_round_trip():
    a = [[2, 1], [5, 3]]
    inv = linalg.inverse(F7, a)
    assert linalg.mul(F7, a, inv, 2) == _identity(F7, 2)
    assert linalg.inverse(QQ, ((1, 1), (1, -1))) == [[Fraction(1, 2), Fraction(1, 2)],
                                                     [Fraction(1, 2), Fraction(-1, 2)]]


@pytest.mark.parametrize("rows, message", [
    (((1, 1), (1, 1)), "matrix is singular"),
    (((0,),), "matrix is singular"),
    (((1, 2),), "inverse of a non-square matrix"),
    (((1,), (2,)), "inverse of a non-square matrix"),
    (((1, 0), (0,)), "inverse of a non-square matrix"),
])
def test_inverse_refuses_singular_and_non_square_input(rows, message):
    for field in (F7, QQ):
        with pytest.raises(ValueError) as caught:
            linalg.inverse(field, rows)
        assert str(caught.value) == message


def test_random_full_rank_has_full_rank():
    rng = random.Random(5)
    # Over GF(2) most square draws are singular, so the rejection loop runs.
    for field in (F7, linalg.PrimeField(2)):
        for nrows, ncols in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (5, 5)):
            for _ in range(10):
                g = random_full_rank(field, nrows, ncols, rng)
                assert len(g) == nrows and all(len(row) == ncols for row in g)
                assert _oracle_rank(field, g, ncols) == min(nrows, ncols)


@pytest.mark.parametrize("nrows, ncols", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2)])
@pytest.mark.parametrize("prime", [101, 32003])
def test_random_rows_are_drawn_in_one_call_in_row_major_order(prime, nrows, ncols):
    # randrange(101) rejects about one k-bit draw in five, so the stream's
    # own rejections are compared too.
    rng, ref = random.Random(f"{nrows}x{ncols}"), random.Random(f"{nrows}x{ncols}")
    rows = random_rows(PrimeField(prime), nrows, ncols, rng)
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
    a = [[_of_int(field, x) for x in row] for row in rows]
    assert linalg.rank(field, a, 3) == len(linalg.rref(field, zip(*a), len(a))[1])


@settings(max_examples=120, deadline=None)
@given(FIELDS, int_matrices())
def test_rank_rref_nullspace_inverse_agree(field, rows):
    a = [[_of_int(field, x) for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0])
    r = linalg.rank(field, a, ncols)
    echelon, pivots = linalg.rref(field, a, ncols)
    assert r == len(pivots)
    kernel = linalg.nullspace(field, echelon, pivots, ncols)
    assert len(kernel) == ncols - r
    for v in kernel:
        assert _is_zero(linalg.mul(field, a, _column(v), 1))
    if nrows == ncols == r:
        inv = linalg.inverse(field, a)
        assert linalg.mul(field, a, inv, r) == _identity(field, r)
        assert linalg.mul(field, inv, a, r) == _identity(field, r)
    elif nrows == ncols:
        with pytest.raises(ValueError):
            linalg.inverse(field, a)


def _entries(field):
    if field == QQ:
        return st.fractions(min_value=-4, max_value=4, max_denominator=3)
    # Small integers give rank-deficient matrices, large ones generic entries.
    return st.one_of(st.integers(-4, 4), st.integers(0, 10**6)).map(
        lambda n: _of_int(field, n))


@st.composite
def field_problems(draw):
    """A field, a matrix of shape 0..6 x 0..6 with its width, and a second
    factor for a product with its width."""
    field = draw(st.sampled_from([F7, F32003, QQ]))
    entries = _entries(field)
    nrows, ncols, other = (draw(st.integers(0, 6)) for _ in range(3))
    if draw(st.booleans()):
        ncols = nrows     # square, for the inverse
    a = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                      min_size=nrows, max_size=nrows))
    b = draw(st.lists(st.lists(entries, min_size=other, max_size=other),
                      min_size=ncols, max_size=ncols))
    return field, a, ncols, b, other


def _same(got, want):
    assert got == want
    assert repr(got) == repr(want)    # also the type of every row and entry


@settings(max_examples=150, deadline=None)
@given(field_problems())
def test_row_kernels_match_the_per_entry_oracle(problem):
    field, a, ncols, b, other = problem
    _same(linalg.rank(field, a, ncols), _oracle_rank(field, a, ncols))
    _same(linalg.rref(field, a, ncols), _oracle_rref(field, a, ncols))
    _same(linalg.nullspace(field, *linalg.rref(field, a, ncols), ncols),
          _oracle_nullspace(field, a, ncols))
    _same(linalg.mul(field, a, b, other), _oracle_mul(field, a, b, other))
    if len(a) == ncols:
        want = _oracle_inverse(field, a)
        if want is None:
            with pytest.raises(ValueError):
                linalg.inverse(field, a)
        else:
            _same(linalg.inverse(field, a), want)
