"""Closed-form crystal operators on the equioriented chain.

For a chain with n vertices every representation variety is a single
vector space, so each dimension vector names exactly one component and
elements are plain tuples of naturals.  Each family has one local map,
dims, i -> (epsilon_i, e_i dims, f_i dims), read off one ``_neighbors``
call: raising decrements d_i and lowering increments it, each defined by a
one-sided comparison of d_i with the left neighbor (``local``, the plain
family) or the right one (``local_star``), and epsilon_i is the generic
cokernel dimension of the incoming map at vertex i (the kernel dimension of
the outgoing one for the star family).  Out-of-range neighbors count as 0.
``STEPS`` reads the operators of a word off the same two maps.
"""

from __future__ import annotations

from .cartan import CartanMatrix, CrystalFragment, cartan_from_quiver
from .grid import build_grid, dimension_vectors


def chain_cartan(n: int) -> CartanMatrix:
    q = build_grid((n,))
    return cartan_from_quiver(q, labels=tuple(range(1, n + 1)))


def _neighbors(dims, i):
    """(d_{i-1}, d_i, d_{i+1}) for a valid color i; out-of-range neighbors
    count as 0."""
    if not 1 <= i <= len(dims):
        raise ValueError(f"color {i} out of range for a chain of length {len(dims)}")
    left = dims[i - 2] if i >= 2 else 0
    right = dims[i] if i < len(dims) else 0
    return left, dims[i - 1], right


def local(dims, i):
    """(max(0, d - left), e_i when left < d, f_i when left <= d), None where
    an operator vanishes."""
    left, d, _ = _neighbors(dims, i)
    if left > d:
        return 0, None, None
    head, tail = dims[:i - 1], dims[i:]
    return d - left, head + (d - 1,) + tail if left < d else None, head + (d + 1,) + tail


def local_star(dims, i):
    """(max(0, d - right), e*_i when d > right, f*_i when d >= right).  The
    lowering guard reads "current >= next": symmetry with the plain family
    under the coordinate flip fixes the right-hand side."""
    _, d, right = _neighbors(dims, i)
    if right > d:
        return 0, None, None
    head, tail = dims[:i - 1], dims[i:]
    return d - right, head + (d - 1,) + tail if right < d else None, head + (d + 1,) + tail


STEPS = {
    "e": lambda dims, i: local(dims, i)[1],
    "f": lambda dims, i: local(dims, i)[2],
    "e*": lambda dims, i: local_star(dims, i)[1],
    "f*": lambda dims, i: local_star(dims, i)[2],
}


def dual(dims):
    """Relabel by the coordinate flip; conjugates the two operator families."""
    return tuple(reversed(dims))


def weight(dims):
    return tuple(-d for d in dims)


def fragment(n: int, bound: int, star: bool = False) -> CrystalFragment:
    return CrystalFragment(
        cartan=chain_cartan(n),
        elements=tuple(sorted(dimension_vectors(n, bound))),
        wt=weight,
        local=local_star if star else local,
    )
