"""Explicit grid-quiver representations over an exact field.

A representation stores one matrix per arrow; the constructor checks
every commutativity generator exactly, so invalid data can never be
carried around.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .grid import GridQuiver, involution
from .linalg import Mat
from .g22 import QUIVER as G22_QUIVER, VERTEX_OF as G22_VERTEX_OF


class CommutativityError(ValueError):
    """A square of the grid fails to commute."""


@dataclass(frozen=True)
class Representation:
    quiver: GridQuiver
    field: object
    dims: tuple            # aligned with quiver.vertices
    mats: tuple            # aligned with quiver.arrows

    def dim_at(self, v) -> int:
        return self.dims[self.quiver.vertices.index(v)]

    def mat_on(self, src, dst) -> Mat:
        return self.mats[self.quiver.arrows.index((src, dst))]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def make_representation(quiver: GridQuiver, field, dims_by_vertex, mats_by_arrow) -> Representation:
    """Assemble and validate a representation from per-vertex / per-arrow data."""
    dims = tuple(dims_by_vertex[v] for v in quiver.vertices)
    if any(d < 0 for d in dims):
        raise ValueError("negative dimension")
    mats = []
    for (s, t) in quiver.arrows:
        m = mats_by_arrow.get((s, t))
        if m is None:
            m = linalg.zeros(field, dims_by_vertex[t], dims_by_vertex[s])
        if (m.nrows, m.ncols) != (dims_by_vertex[t], dims_by_vertex[s]):
            raise ValueError(f"matrix on {s}->{t} has shape {m.nrows}x{m.ncols}, "
                             f"expected {dims_by_vertex[t]}x{dims_by_vertex[s]}")
        mats.append(m)
    rep = Representation(quiver, field, dims, tuple(mats))
    _check_relations(rep)
    return rep


def _check_relations(rep: Representation):
    for (path_a, path_b) in rep.quiver.relations:
        ma = _path_matrix(rep, path_a)
        mb = _path_matrix(rep, path_b)
        if ma.rows != mb.rows:
            raise CommutativityError(f"square at {path_a[0][0]} does not commute")


def _path_matrix(rep: Representation, path) -> Mat:
    first, second = path
    return linalg.mul(rep.field, rep.mat_on(*second), rep.mat_on(*first))


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.quiver is not b.quiver and a.quiver != b.quiver:
        raise ValueError("direct sum of representations on different quivers")
    if a.field != b.field:
        raise ValueError("direct sum over different fields")
    q, field = a.quiver, a.field
    dims = {v: a.dims[k] + b.dims[k] for k, v in enumerate(q.vertices)}
    mats = {}
    for k, (s, t) in enumerate(q.arrows):
        ma, mb = a.mats[k], b.mats[k]
        top = linalg.hstack([ma, linalg.zeros(field, ma.nrows, mb.ncols)])
        bot = linalg.hstack([linalg.zeros(field, mb.nrows, ma.ncols), mb])
        mats[(s, t)] = linalg.vstack([top, bot])
    return make_representation(q, field, dims, mats)


def dual_representation(rep: Representation) -> Representation:
    """Transpose every matrix and relabel vertices by the coordinate flip."""
    q = rep.quiver
    dims = {v: rep.dim_at(involution(q, v)) for v in q.vertices}
    mats = {}
    for (s, t) in q.arrows:
        mats[(s, t)] = linalg.transpose(rep.mat_on(involution(q, t), involution(q, s)))
    return make_representation(q, rep.field, dims, mats)


# ---------------------------------------------------------------------------
# Conveniences for the 2x2 grid in corner numbering


def g22_representation(field, dims, f12, f13, f24, f34) -> Representation:
    """Representation of the 2x2 grid from corner-numbered dimension/matrix data."""
    d = {G22_VERTEX_OF[k]: dims[k - 1] for k in (1, 2, 3, 4)}
    mats = {
        (G22_VERTEX_OF[1], G22_VERTEX_OF[2]): f12,
        (G22_VERTEX_OF[1], G22_VERTEX_OF[3]): f13,
        (G22_VERTEX_OF[2], G22_VERTEX_OF[4]): f24,
        (G22_VERTEX_OF[3], G22_VERTEX_OF[4]): f34,
    }
    return make_representation(G22_QUIVER, field, d, mats)


def g22_blocks(rep: Representation):
    """The four arrow matrices (f12, f13, f24, f34) of a 2x2-grid representation."""
    if rep.quiver.shape != (2, 2):
        raise ValueError("not a representation of the 2x2 grid")
    v = G22_VERTEX_OF
    return (rep.mat_on(v[1], v[2]), rep.mat_on(v[1], v[3]),
            rep.mat_on(v[2], v[4]), rep.mat_on(v[3], v[4]))


def g22_dims(rep: Representation):
    v = G22_VERTEX_OF
    return tuple(rep.dim_at(v[k]) for k in (1, 2, 3, 4))
