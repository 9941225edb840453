"""Equioriented commutative grid quivers.

Vertices are 1-based coordinate tuples in a box [1,m_1] x ... x [1,m_d];
arrows increase exactly one coordinate by 1; every unit square commutes.
Representations of these bound quivers are multiparameter persistence
modules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class GridQuiver:
    shape: tuple
    vertices: tuple        # coordinate tuples, lexicographically sorted
    arrows: tuple          # (source, target) pairs, sorted
    relations: tuple       # pairs of parallel length-2 paths; a path is (arrow, arrow)

    @property
    def arrow_set(self):
        return frozenset(self.arrows)


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
                w = v[:axis] + (v[axis] + 1,) + v[axis + 1:]
                arrows.append((v, w))
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


@dataclass(frozen=True)
class NeighborhoodData:
    """Arrow neighborhoods of a vertex, with the shared corner of each pair.

    ``head[(j1, j2)]`` is the common target closing the square on the
    out-neighbors j1 < j2; ``tail`` is the analogue for in-neighbors.
    """

    out1: tuple
    out2: tuple
    in1: tuple
    in2: tuple
    head: dict
    tail: dict


def out_one(q: GridQuiver, v) -> tuple:
    return tuple(sorted(w for (u, w) in q.arrows if u == v))


def in_one(q: GridQuiver, v) -> tuple:
    return tuple(sorted(u for (u, w) in q.arrows if w == v))


def neighborhoods(q: GridQuiver, v) -> NeighborhoodData:
    if v not in q.vertices:
        raise ValueError(f"vertex {v} not in grid {q.shape}")
    o1 = out_one(q, v)
    i1 = in_one(q, v)
    arrow_set = q.arrow_set
    head = {}
    for j1, j2 in itertools.combinations(o1, 2):
        k = tuple(max(a, b) for a, b in zip(j1, j2))
        if (j1, k) in arrow_set and (j2, k) in arrow_set:
            head[(j1, j2)] = k
    tail = {}
    for j1, j2 in itertools.combinations(i1, 2):
        k = tuple(min(a, b) for a, b in zip(j1, j2))
        if (k, j1) in arrow_set and (k, j2) in arrow_set:
            tail[(j1, j2)] = k
    return NeighborhoodData(
        out1=o1,
        out2=tuple(sorted(set(head.values()))),
        in1=i1,
        in2=tuple(sorted(set(tail.values()))),
        head=head,
        tail=tail,
    )


def involution(q: GridQuiver, v) -> tuple:
    """The coordinate flip v |-> m - v + 1, an isomorphism onto the opposite quiver."""
    return tuple(m - x + 1 for m, x in zip(q.shape, v))
