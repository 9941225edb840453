"""Exact dense linear algebra over prime fields and the rationals.

Everything here is plain Gaussian elimination on tiny matrices.  Entries
are Python numbers combined with the native ``+ - *``: GF(p) elements are
ints reduced into [0, p), rational entries are Fraction.  A field supplies
its constants and a few operations on single entries:

- ``zero`` and ``one``;
- ``from_int(n)``, the image of an integer;
- ``reduce(x)``, the canonical form of a native sum or product
  (``x % p`` on GF(p), the identity on QQ);
- ``inv(x)`` for nonzero x;

and its hot loops whole:

- ``dots(row, cols)``, the products of ``row`` with each of ``cols``,
  one output row of a matrix product;
- ``eliminate(rows, ncols, reduced)``, Gaussian elimination in place,
  returning the pivot columns;
- ``rand_row(rng, n)``, n uniform elements, the values and the stream
  of ``n`` successive ``rng.randrange(p)`` calls (GF(p) only).

Each field has one elimination routine.  The GF(p) kernel inlines the
pivot search, the pivot's inverse (one ``pow``) and the row update
``row - f * lead``, one list comprehension reducing mod p, so it calls no
field method per row or pivot.  When only an echelon form is asked for
it leaves the pivot row unscaled and multiplies each row's factor by the
pivot's inverse instead.
The QQ routine scales each pivot row to a leading one through ``inv``.
``rank`` stops at an echelon form of A or of its transpose, whichever has
fewer rows; ``rref`` (and with it ``nullspace``, ``solve`` and
``inverse``) also clears above the pivots.
Matrices carry explicit shapes so that 0xn and nx0 cases stay
unambiguous.  ``Mat(...)`` checks every row's length; ``mul``, whose
shape holds by construction, skips that loop.  The product, the rank
and the full-rank draw are also given on plain int rows (``mul_rows``,
``rank_rows``, ``random_full_rank_rows``), which ``mul`` and ``rank``
are built on, for a caller that makes no Mat.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul as _mul

from .values import Record


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % q for q in range(2, math.isqrt(n) + 1))


class PrimeField:
    """GF(p): elements are ints reduced into [0, p)."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def reduce(self, x: int) -> int:
        return x % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def dots(self, row, cols):
        p = self.p
        return [sum(map(_mul, row, col)) % p for col in cols]

    def eliminate(self, rows, ncols, reduced):
        """Gaussian elimination on ``rows`` in place; returns the pivot columns.

        Each pivot row clears its column from the rows below it, and with
        ``reduced`` also from the rows above, after being scaled to a
        leading one: the reduced row echelon form.  Without ``reduced`` the
        pivot row stays unscaled and each factor is multiplied by the
        pivot's inverse instead, giving an echelon form, which is all a
        rank count needs.  Updated rows become lists; rows never updated
        keep their type.
        """
        p = self.p
        m = len(rows)
        pivots = []
        r = 0
        for c in range(ncols):
            if r == m:
                break
            piv = r
            while piv < m and not rows[piv][c]:
                piv += 1
            if piv == m:
                continue
            lead = rows[piv]
            if reduced:
                inv = pow(lead[c], -1, p)
                lead = [inv * x % p for x in lead]
                inv = 1
            elif r + 1 < m:    # below the last row there is nothing to clear
                inv = pow(lead[c], -1, p)
            rows[piv] = rows[r]
            rows[r] = lead
            for i in range(0 if reduced else r + 1, m):
                f = rows[i][c]
                if f and i != r:
                    f = f * inv % p
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], lead)]
            pivots.append(c)
            r += 1
        return tuple(pivots)

    def rand_row(self, rng, n):
        # randrange(p)'s own rejection loop: k-bit draws until one is below p.
        getrandbits, p = rng.getrandbits, self.p
        k = p.bit_length()
        row = []
        for _ in range(n):
            x = getrandbits(k)
            while x >= p:
                x = getrandbits(k)
            row.append(x)
        return row

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


class RationalField:
    """The rationals, with Fraction entries."""

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def reduce(self, x):
        return x

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def dots(self, row, cols):
        zero = self.zero
        return [sum(map(_mul, row, col), zero) for col in cols]

    def eliminate(self, rows, ncols, reduced):
        """Gaussian elimination on ``rows`` in place, as ``PrimeField.eliminate``,
        except that every pivot row is scaled to a leading one."""
        m = len(rows)
        pivots = []
        r = 0
        for c in range(ncols):
            if r == m:
                break
            piv = r
            while piv < m and not rows[piv][c]:
                piv += 1
            if piv == m:
                continue
            inv = self.inv(rows[piv][c])
            lead = [inv * x for x in rows[piv]]
            rows[piv] = rows[r]
            rows[r] = lead
            for i in range(0 if reduced else r + 1, m):
                f = rows[i][c]
                if f and i != r:
                    rows[i] = [x - f * y for x, y in zip(rows[i], lead)]
            pivots.append(c)
            r += 1
        return tuple(pivots)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class Mat(Record):
    """Immutable matrix with explicit shape; rows is a tuple of row tuples.

    Stored as the tuple (nrows, ncols, rows), so building one costs a
    shape check and no attribute writes; it equals and hashes as that
    tuple, but never equals anything that is not a Mat.
    """

    __slots__ = ()

    def __new__(cls, nrows: int, ncols: int, rows: tuple):
        if len(rows) != nrows:
            raise ValueError("row count mismatch")
        for r in rows:
            if len(r) != ncols:
                raise ValueError("column count mismatch")
        return tuple.__new__(cls, (nrows, ncols, rows))


def mat(rows, ncols=None) -> Mat:
    """Build a Mat from an iterable of rows; ncols is required when empty."""
    rows = tuple(tuple(r) for r in rows)
    if rows:
        ncols = len(rows[0]) if ncols is None else ncols
    elif ncols is None:
        ncols = 0
    return Mat(len(rows), ncols, rows)


def zeros(field, nrows, ncols) -> Mat:
    z = field.zero
    return Mat(nrows, ncols, tuple((z,) * ncols for _ in range(nrows)))


def identity(field, n) -> Mat:
    z, o = field.zero, field.one
    return Mat(n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))


def from_int_rows(field, rows, ncols=None) -> Mat:
    return mat([[field.from_int(x) for x in r] for r in rows], ncols)


def transpose(a: Mat) -> Mat:
    return Mat(a.ncols, a.nrows, tuple(zip(*a.rows)) if a.rows else ((),) * a.ncols)


def hstack(mats) -> Mat:
    mats = list(mats)
    nrows = mats[0].nrows
    if any(m.nrows != nrows for m in mats):
        raise ValueError("hstack: row count mismatch")
    rows = tuple(sum((m.rows[i] for m in mats), ()) for i in range(nrows))
    return Mat(nrows, sum(m.ncols for m in mats), rows)


def vstack(mats) -> Mat:
    mats = list(mats)
    ncols = mats[0].ncols
    if any(m.ncols != ncols for m in mats):
        raise ValueError("vstack: column count mismatch")
    return Mat(sum(m.nrows for m in mats), ncols, sum((m.rows for m in mats), ()))


def neg(field, a: Mat) -> Mat:
    red = field.reduce
    return Mat(a.nrows, a.ncols, tuple(tuple(red(-x) for x in r) for r in a.rows))


def mul_rows(field, a, b, ncols) -> list:
    """A·B for matrices given as int rows, as a list of rows, one
    ``field.dots`` call per row of A; ncols, the width of B, is the
    product's width when B has no rows."""
    dots = field.dots
    cols = tuple(zip(*b)) if b else ((),) * ncols
    return [dots(row, cols) for row in a]


def mul(field, a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ValueError(f"mul: {a.nrows}x{a.ncols} times {b.nrows}x{b.ncols}")
    rows = mul_rows(field, a.rows, b.rows, b.ncols)
    # a.nrows rows of width b.ncols by construction: no shape check.
    return tuple.__new__(Mat, (a.nrows, b.ncols, tuple([tuple(row) for row in rows])))


def is_zero(a: Mat) -> bool:
    return all(all(x == 0 for x in r) for r in a.rows)


def rref(field, a: Mat):
    """Reduced row echelon form; returns (Mat, pivot column indices)."""
    rows = list(a.rows)
    pivots = field.eliminate(rows, a.ncols, True)
    return Mat(a.nrows, a.ncols, tuple([tuple(row) for row in rows])), pivots


def rank_rows(field, rows, ncols) -> int:
    """Rank of a matrix given as int rows of width ncols, by eliminating
    whichever of it and its transpose has fewer rows."""
    if len(rows) <= ncols:
        return len(field.eliminate(list(rows), ncols, False))
    return len(field.eliminate(list(zip(*rows)), len(rows), False))


def rank(field, a: Mat) -> int:
    return rank_rows(field, a.rows, a.ncols)


def nullspace(field, a: Mat):
    """Basis of the right kernel, as a tuple of length-ncols vectors."""
    echelon, pivots = rref(field, a)
    pivot_set = set(pivots)
    free = [j for j in range(a.ncols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [field.zero] * a.ncols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.reduce(-echelon.rows[r][f])
        basis.append(tuple(v))
    return tuple(basis)


def solve(field, a: Mat, b):
    """One solution of A x = b, or None when inconsistent; b is a length-nrows vector."""
    if len(b) != a.nrows:
        raise ValueError("solve: right-hand side length mismatch")
    aug = hstack([a, Mat(a.nrows, 1, tuple((x,) for x in b))])
    red, pivots = rref(field, aug)
    if a.ncols in pivots:
        return None
    x = [field.zero] * a.ncols
    for r, c in enumerate(pivots):
        x[c] = red.rows[r][a.ncols]
    return tuple(x)


def inverse(field, a: Mat) -> Mat:
    if a.nrows != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    red, pivots = rref(field, hstack([a, identity(field, n)]))
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Mat(n, n, tuple(r[n:] for r in red.rows))


def random_matrix(field, nrows, ncols, rng) -> Mat:
    rand_row = field.rand_row
    return Mat(nrows, ncols, tuple([tuple(rand_row(rng, ncols)) for _ in range(nrows)]))


def random_rows(field, nrows, ncols, rng) -> list:
    """A uniform nrows x ncols matrix as int rows, from one ``rand_row``
    call read in row-major order: the values and the stream of
    nrows * ncols successive ``rng.randrange(p)`` calls, so the same
    matrix as ``random_matrix``."""
    flat = field.rand_row(rng, nrows * ncols)
    return [flat[k * ncols:(k + 1) * ncols] for k in range(nrows)]


def random_full_rank_rows(field, nrows, ncols, rng) -> list:
    """A uniform matrix among those of rank min(nrows, ncols), as int rows,
    by rejection: ``random_rows`` until the draw has that rank."""
    full = min(nrows, ncols)
    while True:
        rows = random_rows(field, nrows, ncols, rng)
        if rank_rows(field, rows, ncols) == full:
            return rows
