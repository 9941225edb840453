"""Exact dense linear algebra over prime fields and the rationals.

Everything here is plain Gaussian elimination on tiny matrices.  A matrix
is its rows: a sequence of equal-length sequences of entries, so a 0 x n
matrix is ``()`` whatever n is, and every routine that needs the width of
a matrix takes it as ``ncols``.  Routines return their rows as lists.
Entries are Python numbers combined with the native ``+ - *``: GF(p)
elements are ints reduced into [0, p), rational entries are Fraction (or
int).  The routines call exactly these members of a field:

- ``zero`` and ``one`` (``nullspace``, ``inverse``);
- ``reduce(x)``, the canonical form of a native negation (``x % p`` on
  GF(p), the identity on QQ; ``nullspace``);
- ``dots(row, cols)``, the products of ``row`` with each of ``cols``,
  one output row of a matrix product (``mul``);
- ``eliminate(rows, ncols, reduced)``, Gaussian elimination in place,
  returning the pivot columns (``rank``, ``rref``);
- ``rand_row(rng, n)``, n uniform elements, the values and the stream
  of ``n`` successive ``rng.randrange(p)`` calls (``oracle.StreamMemo``,
  which extends a sample's draws with it; GF(p) only).

Each field has one elimination routine.  The GF(p) kernel inlines the
pivot search, the pivot's inverse (one ``pow``) and the row update
``row - f * lead``, one list comprehension reducing mod p, so it calls no
field method per row or pivot.  When only an echelon form is asked for
it leaves the pivot row unscaled and multiplies each row's factor by the
pivot's inverse instead.
The QQ routine scales each pivot row to a leading one through ``inv``.
``rank`` stops at an echelon form of A or of its transpose, whichever has
fewer rows; ``rref`` (and with it ``inverse``) also clears above the
pivots, and ``nullspace`` reads a kernel basis off its result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul as _mul


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

    def reduce(self, x: int) -> int:
        return x % self.p

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


def mul(field, a, b, ncols) -> list:
    """A·B as a list of rows, one ``field.dots`` call per row of A; ncols,
    the width of B, is the product's width when B has no rows."""
    dots = field.dots
    cols = tuple(zip(*b)) if b else ((),) * ncols
    return [dots(row, cols) for row in a]


def rank(field, rows, ncols) -> int:
    """Rank of a matrix of width ncols, by eliminating whichever of it and
    its transpose has fewer rows."""
    if len(rows) <= ncols:
        return len(field.eliminate(list(rows), ncols, False))
    return len(field.eliminate(list(zip(*rows)), len(rows), False))


def rref(field, rows, ncols):
    """Reduced row echelon form of a matrix of width ncols; returns (rows,
    pivot columns), the rows as lists."""
    rows = list(rows)
    pivots = field.eliminate(rows, ncols, True)
    return [list(row) for row in rows], pivots


def nullspace(field, echelon, pivots, ncols) -> list:
    """Basis of the right kernel of a matrix of width ncols, read off its
    reduced echelon form and pivot columns as ``rref`` returns them: one
    vector per free column, a list with one there and the negated entries
    of that column at the pivots."""
    zero, one, reduce = field.zero, field.one, field.reduce
    basis = []
    for free in range(ncols):
        if free not in pivots:
            v = [zero] * ncols
            v[free] = one
            for row, col in zip(echelon, pivots):
                v[col] = reduce(-row[free])
            basis.append(v)
    return basis


def inverse(field, rows) -> list:
    """The inverse of a square matrix, from the reduced echelon form of [A | I]."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse of a non-square matrix")
    zero, one = field.zero, field.one
    echelon, pivots = rref(field, [[*row, *(one if j == i else zero for j in range(n))]
                                   for i, row in enumerate(rows)], 2 * n)
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in echelon]
