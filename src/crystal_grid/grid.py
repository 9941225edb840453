"""Equioriented commutative grid quivers.

Vertices are 1-based coordinate tuples in a box [1,m_1] x ... x [1,m_d];
arrows increase exactly one coordinate by 1; every unit square commutes.
Representations of these bound quivers are multiparameter persistence
modules.  A grid gives ``grid-info`` its counts and the chain and 2x2
crystals their Cartan matrices; a point of the 2x2 grid is a
``reps.Representation``, which needs no grid.
"""

from __future__ import annotations

import itertools

from .values import Record


class GridQuiver(Record):
    """The box's extents; its vertices, coordinate tuples in lexicographic
    order; its arrows, sorted (source, target) pairs; and its relations,
    pairs of parallel length-2 paths, a path being (arrow, arrow)."""

    __slots__ = ()

    def __new__(cls, shape: tuple, vertices: tuple, arrows: tuple, relations: tuple):
        return tuple.__new__(cls, (shape, vertices, arrows, relations))


def build_grid(shape) -> GridQuiver:
    """Build the commutative grid on the box with the given extents."""
    shape = tuple(shape)
    if not shape or any(m < 1 for m in shape):
        raise ValueError(f"grid extents must be positive, got {shape}")
    ranges = [range(1, m + 1) for m in shape]
    vertices = tuple(sorted(itertools.product(*ranges)))
    arrows = []
    for v in vertices:
        for axis, m in enumerate(shape):
            if v[axis] < m:
                arrows.append((v, _step(v, axis)))
    relations = []
    for v in vertices:
        for ax1, ax2 in itertools.combinations(range(len(shape)), 2):
            if v[ax1] < shape[ax1] and v[ax2] < shape[ax2]:
                u1 = _step(v, ax1)
                u2 = _step(v, ax2)
                w = _step(u1, ax2)
                relations.append((((v, u1), (u1, w)), ((v, u2), (u2, w))))
    return GridQuiver(shape, vertices, tuple(sorted(arrows)), tuple(relations))


def _step(v, axis):
    return v[:axis] + (v[axis] + 1,) + v[axis + 1:]
