"""Exact sampling oracle for components of grid representation varieties.

A point of a named 2x2-grid component is a two-step complex (a pair of
composable maps with zero composite) built from full-rank factors: the
outward map is A·B and the inward map is C·R·K, where K spans the left
kernel of A.  Its two stacked ranks equal the component's rank data
exactly, not just generically, and its law is that of the block normal
form conjugated by independent uniform invertible matrices at the three
slots.  Chain representations are sampled with unconstrained uniform
matrices.  Everything runs over an exact prime field, so minima over
samples are honest lower bounds for generic values; ``sampled_minima`` is
the one routine that takes them.

The corner statistics are the cokernel of the stacked map into a corner
(eps) and the kernel of the stacked map out of it (eps_star).  Each is a
dimension minus one rank of the point's ``modules22.rank_profile``:

    eps_1 = d1                 eps_star_1 = d1 - source_rank
    eps_2 = d2 - r12           eps_star_2 = d2 - r24
    eps_3 = d3 - r13           eps_star_3 = d3 - r34
    eps_4 = d4 - sink_rank     eps_star_4 = d4

so one profile per point (seven ranks and one product) reads all eight.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg, modules22
from .g22 import Component
from .grid import build_grid, neighborhoods
from .linalg import Mat, PrimeField
from .reps import Representation, g22_representation, make_representation

DEFAULT_PRIME = 32003


@dataclass(frozen=True)
class SampleConfig:
    prime: int = DEFAULT_PRIME
    count: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.prime < 101:
            raise ValueError("prime must be a prime >= 101")
        if self.count < 1:
            raise ValueError("sample count must be positive")
        # Built once: PrimeField rejects a composite by trial division.
        object.__setattr__(self, "_field", PrimeField(self.prime))

    def field(self) -> PrimeField:
        return self._field

    def rng(self, index: int) -> random.Random:
        # Split the base seed into an independent stream per sample.
        return random.Random(f"{self.seed}/{index}")


def sample_component_point(c: Component, cfg: SampleConfig, index: int = 0) -> Representation:
    """A point of the component; its rank pair is (r1, r2) by construction.

    With mid = d2 + d3, the outward map (f12 over f13) is A·B and the inward
    map (f24 beside -f34) is C·(R·K): A (mid x r1), B (r1 x d1), R (r2 x
    (mid - r1)) and C (d4 x r2) are independent uniform full-rank matrices,
    and K is a basis of the left kernel of A, so the composite is zero.
    This is the law of g2·α1·g1⁻¹ and g3·α2·g2⁻¹ for the block normal forms
    α1, α2 and independent uniform invertible g1, g2, g3: the first r1
    columns of g2 are uniform full rank, and given them, rows r1.. of g2⁻¹
    are a uniform basis of their left annihilator.
    """
    field = cfg.field()
    rng = cfg.rng(index)
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    mid = d2 + d3
    a = linalg.random_full_rank(field, mid, r1, rng)
    b = linalg.random_full_rank(field, r1, d1, rng)
    r = linalg.random_full_rank(field, r2, mid - r1, rng)
    cm = linalg.random_full_rank(field, d4, r2, rng)
    out_map, in_map = _factor_maps(field, a, b, r, cm)
    f12 = Mat(d2, d1, out_map.rows[:d2])
    f13 = Mat(d3, d1, out_map.rows[d2:])
    f24 = Mat(d4, d2, tuple(row[:d2] for row in in_map.rows))
    f34 = linalg.neg(field, Mat(d4, d3, tuple(row[d2:] for row in in_map.rows)))
    return g22_representation(field, c.dims, f12, f13, f24, f34)


def _factor_maps(field, a: Mat, b: Mat, r: Mat, cm: Mat):
    """The outward map A·B and the inward map C·(R·K), K a basis of the left kernel of A."""
    k = linalg.mat(linalg.nullspace(field, linalg.transpose(a)), ncols=a.nrows)
    return linalg.mul(field, a, b), linalg.mul(field, cm, linalg.mul(field, r, k))


def sample_an_point(dims, cfg: SampleConfig, index: int = 0) -> Representation:
    """Uniform random chain representation; there are no relations to respect."""
    field = cfg.field()
    rng = cfg.rng(index)
    n = len(dims)
    quiver = build_grid((n,))
    dims_by_vertex = {(k + 1,): dims[k] for k in range(n)}
    mats = {}
    for (s, t) in quiver.arrows:
        mats[(s, t)] = linalg.random_matrix(field, dims_by_vertex[t], dims_by_vertex[s], rng)
    return make_representation(quiver, field, dims_by_vertex, mats)


def incoming_matrix(rep: Representation, v) -> Mat:
    """Horizontal stack of the arrow matrices ending at a vertex."""
    blocks = [rep.mat_on(u, v) for (u, w) in rep.quiver.arrows if w == v]
    if not blocks:
        return linalg.zeros(rep.field, rep.dim_at(v), 0)
    return linalg.hstack(blocks)


def _square_closing_map(rep: Representation, v, starred: bool):
    """The signed square-closing matrix at a vertex and its source list.

    Assembled over the out-neighborhood (in-neighborhood and transposes
    for the starred version), with the earlier neighbor of each square
    carrying + and the later one -.  Returns (matrix, sources); the
    matrix is None when there are at most one source (the map is zero).
    """
    field = rep.field
    nb = neighborhoods(rep.quiver, v)
    sources = nb.in1 if starred else nb.out1
    corners = nb.in2 if starred else nb.out2
    pairing = nb.tail if starred else nb.head
    if len(sources) <= 1:
        return None, sources
    blocks = {}
    for (j1, j2), k in pairing.items():
        if starred:
            blocks[(j1, k)] = linalg.transpose(rep.mat_on(k, j1))
            blocks[(j2, k)] = linalg.neg(field, linalg.transpose(rep.mat_on(k, j2)))
        else:
            blocks[(j1, k)] = rep.mat_on(j1, k)
            blocks[(j2, k)] = linalg.neg(field, rep.mat_on(j2, k))
    rows = []
    for k in corners:
        row = []
        for j in sources:
            blk = blocks.get((j, k))
            if blk is None:
                blk = linalg.zeros(field, rep.dim_at(k), rep.dim_at(j))
            row.append(blk)
        rows.append(linalg.hstack(row))
    return linalg.vstack(rows), sources


def extension_fiber_dim(rep: Representation, v, starred: bool = False) -> int:
    """Kernel dimension of the signed square-closing map at a vertex."""
    matrix, sources = _square_closing_map(rep, v, starred)
    if not sources:
        return 0
    if matrix is None:
        return rep.dim_at(sources[0])
    return matrix.ncols - linalg.rank(rep.field, matrix)


def extension_point(rep: Representation, v, rng) -> Representation:
    """A generic extension of the simple at a vertex by the representation.

    The vertex gains one dimension; inward arrows are zero-padded (the
    quotient simple receives nothing), and outward arrows gain a column
    drawn from the kernel of the square-closing map, which is exactly the
    commutativity constraint on the new basis vector.
    """
    field = rep.field
    q = rep.quiver
    matrix, sources = _square_closing_map(rep, v, starred=False)
    if matrix is None:
        kernel_vec = field.rand_row(rng, sum(rep.dim_at(j) for j in sources))
    else:
        basis = linalg.mat(linalg.nullspace(field, matrix), ncols=matrix.ncols)
        kernel_vec = field.dots(field.rand_row(rng, basis.nrows), linalg.transpose(basis).rows)
    chunks = {}
    offset = 0
    for j in sources:
        chunks[j] = kernel_vec[offset:offset + rep.dim_at(j)]
        offset += rep.dim_at(j)
    dims = {u: rep.dim_at(u) for u in q.vertices}
    dims[v] += 1
    mats = {}
    for (s, t) in q.arrows:
        m = rep.mat_on(s, t)
        if t == v:
            mats[(s, t)] = linalg.vstack([m, linalg.zeros(field, 1, m.ncols)])
        elif s == v:
            col = Mat(m.nrows, 1, tuple((x,) for x in chunks[t]))
            mats[(s, t)] = linalg.hstack([m, col])
        else:
            mats[(s, t)] = m
    return make_representation(q, field, dims, mats)


def restriction_point(rep: Representation, v, rng):
    """A generic corank-1 subrepresentation cutting the vertex down by one.

    The hyperplane at the vertex must contain the images of all inward
    arrows, so this exists exactly when the cokernel there is nonzero;
    returns None otherwise.
    """
    field = rep.field
    q = rep.quiver
    d = rep.dim_at(v)
    inc = incoming_matrix(rep, v)
    span = []
    span_rank = 0
    for j in range(inc.ncols):
        candidate = span + [tuple(inc.rows[k][j] for k in range(d))]
        if linalg.rank(field, linalg.mat(candidate, ncols=d)) > span_rank:
            span = candidate
            span_rank += 1
    if d - span_rank == 0:
        return None
    while True:
        extra = [tuple(field.rand_row(rng, d)) for _ in range(d - 1 - span_rank)]
        basis = linalg.transpose(linalg.mat(span + extra, ncols=d))
        if linalg.rank(field, basis) == d - 1:
            break
    dims = {u: rep.dim_at(u) for u in q.vertices}
    dims[v] = d - 1
    mats = {}
    for (s, t) in q.arrows:
        m = rep.mat_on(s, t)
        if t == v:
            cols = []
            for j in range(m.ncols):
                col = tuple(m.rows[k][j] for k in range(m.nrows))
                x = linalg.solve(field, basis, col)
                if x is None:
                    raise AssertionError("inward image escaped the chosen hyperplane")
                cols.append(x)
            mats[(s, t)] = linalg.transpose(linalg.mat(cols, ncols=d - 1))
        elif s == v:
            mats[(s, t)] = linalg.mul(field, m, basis)
        else:
            mats[(s, t)] = m
    return make_representation(q, field, dims, mats)


# The profile rank that each (kind, corner) statistic subtracts from the
# corner's dimension; None where the stacked map is empty.
_STACKED_RANK = {
    ("eps", 1): None, ("eps", 2): "r12", ("eps", 3): "r13", ("eps", 4): "sink_rank",
    ("eps_star", 1): "source_rank", ("eps_star", 2): "r24", ("eps_star", 3): "r34",
    ("eps_star", 4): None,
}


def _corner_statistic(profile: modules22.RankProfile, key) -> int:
    rank = _STACKED_RANK[key]
    return profile.dims[key[1] - 1] - (0 if rank is None else getattr(profile, rank))


def sampled_minima(c: Component, cfg: SampleConfig, floors: dict):
    """Minima of the corner statistics over independent samples of a component.

    ``floors`` maps each (kind, corner) key, kind "eps" or "eps_star" and
    corner 1..4, to the value that settles it; sampling stops once every
    minimum is at its floor, or after cfg.count samples.  Each point's rank
    pair is asserted to be the component's.  Returns (minima, samples drawn).
    """
    for key in floors:
        if key not in _STACKED_RANK:
            raise ValueError(f"no corner statistic {key!r}")
    minima = {}
    for index in range(cfg.count):
        profile = modules22.rank_profile(sample_component_point(c, cfg, index))
        if (profile.source_rank, profile.sink_rank) != c.ranks:
            raise AssertionError("sampled point lost its rank pair")
        for key in floors:
            value = _corner_statistic(profile, key)
            if key not in minima or value < minima[key]:
                minima[key] = value
        if minima == floors:
            break
    return minima, index + 1
