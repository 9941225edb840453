"""Closed-form crystal operators on the equioriented chain.

For a chain with n vertices every representation variety is a single
vector space, so each dimension vector names exactly one component and
elements are plain tuples of naturals.  Raising decrements a coordinate,
lowering increments it, with a one-sided comparison against the left
(plain family) or right (star family) neighbor; out-of-range neighbors
count as 0.
"""

from __future__ import annotations

import itertools

from .cartan import CartanMatrix, CrystalFragment, cartan_from_quiver
from .grid import build_grid


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


def apply_e(dims, i):
    left, d, _ = _neighbors(dims, i)
    if left < d:
        return dims[:i - 1] + (d - 1,) + dims[i:]
    return None


def apply_f(dims, i):
    left, d, _ = _neighbors(dims, i)
    if left <= d:
        return dims[:i - 1] + (d + 1,) + dims[i:]
    return None


def apply_e_star(dims, i):
    _, d, right = _neighbors(dims, i)
    if d > right:
        return dims[:i - 1] + (d - 1,) + dims[i:]
    return None


def apply_f_star(dims, i):
    # The defined branch reads "current >= next"; symmetry with the plain
    # family under the coordinate flip fixes the right-hand side.
    _, d, right = _neighbors(dims, i)
    if d >= right:
        return dims[:i - 1] + (d + 1,) + dims[i:]
    return None


STEPS = {"e": apply_e, "f": apply_f, "e*": apply_e_star, "f*": apply_f_star}


def epsilon(dims, i) -> int:
    """Generic cokernel dimension of the incoming map at vertex i."""
    left, d, _ = _neighbors(dims, i)
    return max(0, d - left)


def epsilon_star(dims, i) -> int:
    """Generic kernel dimension of the outgoing map at vertex i."""
    _, d, right = _neighbors(dims, i)
    return max(0, d - right)


def dual(dims):
    """Relabel by the coordinate flip; conjugates the two operator families."""
    return tuple(reversed(dims))


def weight(dims):
    return tuple(-d for d in dims)


def iter_dims(n: int, bound: int):
    """All dimension vectors of length n with total at most bound."""
    if bound < 0:
        raise ValueError(f"negative bound {bound}")
    for total in range(bound + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            prev = -1
            parts = []
            for c in cuts:
                parts.append(c - prev - 1)
                prev = c
            parts.append(total + n - 2 - prev)
            yield tuple(parts)


def fragment(n: int, bound: int, star: bool = False) -> CrystalFragment:
    eps = epsilon_star if star else epsilon
    up, down = (apply_e_star, apply_f_star) if star else (apply_e, apply_f)
    return CrystalFragment(
        cartan=chain_cartan(n),
        elements=tuple(sorted(iter_dims(n, bound))),
        wt=weight,
        local=lambda d, i: (eps(d, i), up(d, i), down(d, i)),
    )
