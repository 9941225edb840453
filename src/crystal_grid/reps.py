"""Points of the 2x2 commutative grid over an exact field.

Corners are numbered 1 (source), 2, 3 and 4 (sink), with the arrows
``ARROWS``: 1->2, 1->3, 2->4 and 3->4.  A point is the four dimensions and
the four maps f12, f13, f24, f34 under the one relation f24·f12 = f34·f13.
The constructor checks the shapes and the square exactly, so an invalid
point can never be carried around, and keeps the composite it checked as
``f14`` = f24·f12, the map 1 -> 4, so no reader multiplies it again.
"""

from __future__ import annotations

from . import linalg
from .linalg import Mat
from .values import Frozen

ARROWS = ((1, 2), (1, 3), (2, 4), (3, 4))


class CommutativityError(ValueError):
    """The square of the 2x2 grid fails to commute."""


class Representation(Frozen):
    __slots__ = ("field", "dims", "f12", "f13", "f24", "f34", "f14")

    def __init__(self, field, dims: tuple, f12: Mat, f13: Mat, f24: Mat, f34: Mat):
        setattr_ = object.__setattr__
        setattr_(self, "field", field)
        setattr_(self, "dims", dims)   # (d1, d2, d3, d4)
        setattr_(self, "f12", f12)
        setattr_(self, "f13", f13)
        setattr_(self, "f24", f24)
        setattr_(self, "f34", f34)
        if len(self.dims) != 4 or any(d < 0 for d in self.dims):
            raise ValueError(f"expected four nonnegative dimensions, got {self.dims}")
        for (s, t), m in zip(ARROWS, self.maps):
            if (m.nrows, m.ncols) != (self.dims[t - 1], self.dims[s - 1]):
                raise ValueError(f"f{s}{t} has shape {m.nrows}x{m.ncols}, "
                                 f"expected {self.dims[t - 1]}x{self.dims[s - 1]}")
        f14 = linalg.mul(self.field, self.f24, self.f12)
        if f14.rows != linalg.mul(self.field, self.f34, self.f13).rows:
            raise CommutativityError("the square f24·f12 = f34·f13 does not commute")
        setattr_(self, "f14", f14)

    @property
    def maps(self) -> tuple:
        """(f12, f13, f24, f34), aligned with ``ARROWS``."""
        return (self.f12, self.f13, self.f24, self.f34)


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.field != b.field:
        raise ValueError("direct sum over different fields")
    field = a.field
    blocks = [linalg.vstack([linalg.hstack([ma, linalg.zeros(field, ma.nrows, mb.ncols)]),
                             linalg.hstack([linalg.zeros(field, mb.nrows, ma.ncols), mb])])
              for ma, mb in zip(a.maps, b.maps)]
    return Representation(field, tuple(x + y for x, y in zip(a.dims, b.dims)), *blocks)
