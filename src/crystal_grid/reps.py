"""Points of the 2x2 commutative grid over an exact field.

Corners are numbered 1 (source), 2, 3 and 4 (sink), with the arrows
``ARROWS``: 1->2, 1->3, 2->4 and 3->4.  A point is the four dimensions and
the four maps f12, f13, f24, f34 under the one relation f24·f12 = f34·f13.
Each map is a tuple of row tuples, as ``linalg`` reads a matrix, over a
field that supplies what ``linalg.mul`` calls (``dots``) and what
``modules22.rank_profile`` calls (``eliminate``).  The map f_st has
d_t rows of length d_s, so a map out of a zero corner is d_t empty rows
and a map into one is ``()``.  The constructor checks the shapes and the
square exactly, so an invalid point can never be carried around, and keeps
the composite it checked as ``f14`` = f24·f12, the map 1 -> 4, so no
reader multiplies it again.
"""

from __future__ import annotations

from . import linalg
from .values import Frozen

ARROWS = ((1, 2), (1, 3), (2, 4), (3, 4))


class CommutativityError(ValueError):
    """The square of the 2x2 grid fails to commute."""


class Representation(Frozen):
    __slots__ = ("field", "dims", "f12", "f13", "f24", "f34", "f14")

    def __init__(self, field, dims: tuple, f12, f13, f24, f34):
        if len(dims) != 4 or any(d < 0 for d in dims):
            raise ValueError(f"expected four nonnegative dimensions, got {dims}")
        maps = tuple(tuple(map(tuple, m)) for m in (f12, f13, f24, f34))
        for (s, t), m in zip(ARROWS, maps):
            nrows, ncols = dims[t - 1], dims[s - 1]
            if len(m) != nrows or any(len(row) != ncols for row in m):
                widths = "/".join(map(str, sorted({len(row) for row in m}))) or ncols
                raise ValueError(f"f{s}{t} has shape {len(m)}x{widths}, "
                                 f"expected {nrows}x{ncols}")
        f12, f13, f24, f34 = maps
        f14 = linalg.mul(field, f24, f12, dims[0])
        if f14 != linalg.mul(field, f34, f13, dims[0]):
            raise CommutativityError("the square f24·f12 = f34·f13 does not commute")
        setattr_ = object.__setattr__
        for name, value in zip(self.__slots__, (field, dims, *maps, tuple(map(tuple, f14)))):
            setattr_(self, name, value)

    @property
    def maps(self) -> tuple:
        """(f12, f13, f24, f34), aligned with ``ARROWS``."""
        return (self.f12, self.f13, self.f24, self.f34)


def direct_sum(a: Representation, b: Representation) -> Representation:
    """The block-diagonal point: each map is [[f_a, 0], [0, f_b]]."""
    if a.field != b.field:
        raise ValueError("direct sum over different fields")
    zero = a.field.zero
    blocks = []
    for (s, _), ma, mb in zip(ARROWS, a.maps, b.maps):
        pad_a, pad_b = (zero,) * b.dims[s - 1], (zero,) * a.dims[s - 1]
        blocks.append([row + pad_a for row in ma] + [pad_b + row for row in mb])
    return Representation(a.field, tuple(x + y for x, y in zip(a.dims, b.dims)), *blocks)
