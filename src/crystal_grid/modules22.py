"""Module algebra for the 2x2 grid: the interval catalog, Hom/Ext via
projective resolutions, direct-sum certificates, and generic
decompositions of components.

The eleven indecomposables are the interval modules M1..M11, each with
0/1 dimension vector and identity maps wherever both endpoints are
nonzero.  Four of them (M4, M7, M8, M11) are projective.  Every module's
projective resolution is a list of stages P_0, P_1, ... (direct sums of
the projectives) and a list of differentials d_n: P_n -> P_{n-1}, with
d_0 the augmentation onto M_k; the differentials are overlap inclusions
scaled by one scalar each, with one sign forced by exactness.  Ext is
the cohomology of Hom(P_n, N) along that list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul

from . import linalg
from .g22 import Component, NUMBER_OF, QUIVER as G22_QUIVER
from .linalg import QQ, Mat
from .reps import Representation, direct_sum, g22_blocks, g22_dims, g22_representation

INTERVAL_DIMS = {
    1: (1, 0, 0, 0),
    2: (0, 1, 0, 0),
    3: (0, 0, 1, 0),
    4: (0, 0, 0, 1),
    5: (1, 1, 0, 0),
    6: (1, 0, 1, 0),
    7: (0, 1, 0, 1),
    8: (0, 0, 1, 1),
    9: (1, 1, 1, 0),
    10: (0, 1, 1, 1),
    11: (1, 1, 1, 1),
}

PROJECTIVES = (4, 7, 8, 11)

# Irreducible-map arrows of the translation quiver on the catalog.
AR_QUIVER_ARROWS = (
    (4, 7), (4, 8), (7, 10), (8, 10), (10, 2), (10, 3), (10, 11),
    (11, 9), (2, 9), (3, 9), (9, 5), (9, 6), (5, 1), (6, 1),
)

_ARROWS = ((1, 2), (1, 3), (2, 4), (3, 4))

# Corner number sitting at each lexicographic vertex slot of the quiver.
_CORNERS_LEX = tuple(NUMBER_OF[v] for v in G22_QUIVER.vertices)


def _lex_dims(k: int):
    """Dimension vector of M_k in the quiver's lexicographic vertex order."""
    return tuple(INTERVAL_DIMS[k][c - 1] for c in _CORNERS_LEX)


class InconsistentProfileError(ValueError):
    """A rank profile admitting no nonnegative integral decomposition."""


def indecomposable(k: int, field=QQ) -> Representation:
    """The interval module M_k with identity maps wherever possible."""
    dims = INTERVAL_DIMS[k]
    mats = []
    for (s, t) in _ARROWS:
        if dims[s - 1] == 1 and dims[t - 1] == 1:
            mats.append(linalg.identity(field, 1))
        else:
            mats.append(linalg.zeros(field, dims[t - 1], dims[s - 1]))
    return g22_representation(field, dims, *mats)


def normalize_multiset(ms: dict) -> dict:
    out = {}
    for k, m in sorted(ms.items()):
        if m < 0:
            raise ValueError(f"negative multiplicity for M{k}")
        if m:
            out[k] = m
    return out


def multiset_dims(ms: dict):
    dims = [0, 0, 0, 0]
    for k, m in ms.items():
        for pos in range(4):
            dims[pos] += m * INTERVAL_DIMS[k][pos]
    return tuple(dims)


def multiset_rep(ms: dict, field=QQ) -> Representation:
    """Direct sum of the catalog modules with the given multiplicities."""
    return _direct_sum_of([k for k, m in normalize_multiset(ms).items() for _ in range(m)], field)


def _direct_sum_of(kinds, field) -> Representation:
    """Direct sum of the catalog modules listed in kinds, in that order."""
    pieces = [indecomposable(k, field) for k in kinds]
    if not pieces:
        return g22_representation(field, (0, 0, 0, 0),
                                  *(linalg.zeros(field, 0, 0) for _ in range(4)))
    return reduce(direct_sum, pieces)


# ---------------------------------------------------------------------------
# Hom spaces


def _as_rep(x, field=QQ) -> Representation:
    if isinstance(x, Representation):
        return x
    if isinstance(x, int):
        return indecomposable(x, field)
    if isinstance(x, dict):
        return multiset_rep(x, field)
    raise TypeError(f"cannot interpret {x!r} as a representation")


def _hom_layout(n_dims, x_dims):
    """Flat-coordinate layout of a module map x -> n: per-vertex blocks, row major."""
    offsets = []
    pos = 0
    for v in range(len(x_dims)):
        offsets.append(pos)
        pos += n_dims[v] * x_dims[v]
    return offsets, pos


def _hom_basis(x_rep: Representation, n_rep: Representation):
    """Basis of Hom(x, n) as flat vectors; also returns the layout size."""
    if x_rep.quiver != n_rep.quiver:
        raise ValueError("representations live on different quivers")
    if x_rep.field != n_rep.field:
        raise ValueError("representations live over different fields")
    field = x_rep.field
    q = x_rep.quiver
    xd, nd = x_rep.dims, n_rep.dims
    offsets, size = _hom_layout(nd, xd)
    rows = []
    for a_idx, (s, t) in enumerate(q.arrows):
        si, ti = q.vertices.index(s), q.vertices.index(t)
        fx = x_rep.mats[a_idx]
        fn = n_rep.mats[a_idx]
        for x in range(nd[ti]):
            for y in range(xd[si]):
                row = [field.zero] * size
                for b in range(xd[ti]):
                    row[offsets[ti] + x * xd[ti] + b] += fx.entry(b, y)
                for a in range(nd[si]):
                    row[offsets[si] + a * xd[si] + y] -= fn.entry(x, a)
                rows.append([field.reduce(v) for v in row])
    system = linalg.mat(rows, ncols=size)
    return linalg.nullspace(field, system), size


def hom_dim(m, n) -> int:
    """Dimension of the space of module maps m -> n."""
    if not isinstance(m, Representation) and not isinstance(n, Representation):
        mm = {m: 1} if isinstance(m, int) else normalize_multiset(m)
        nn = {n: 1} if isinstance(n, int) else normalize_multiset(n)
        return sum(mi * nj * _hom_pair(i, j)
                   for i, mi in mm.items() for j, nj in nn.items())
    field = m.field if isinstance(m, Representation) else n.field
    basis, _ = _hom_basis(_as_rep(m, field), _as_rep(n, field))
    return len(basis)


@lru_cache(maxsize=None)
def _hom_pair(i: int, j: int) -> int:
    basis, _ = _hom_basis(indecomposable(i), indecomposable(j))
    return len(basis)


# ---------------------------------------------------------------------------
# Projective resolutions and Ext


@dataclass(frozen=True)
class Resolution:
    """A projective resolution ... -> P_1 -> P_0 -> M_k -> 0 of a catalog module.

    ``stages[n]`` lists the interval summands of P_n.  ``diffs[n]`` holds the
    scalars of the map d_n: P_n -> P_{n-1}, rows over the summands of P_{n-1}
    and columns over those of P_n, where P_{-1} = M_k; so ``diffs[0]`` is the
    augmentation.
    """

    stages: tuple
    diffs: tuple


_RESOLUTIONS = {
    1: Resolution(((11,), (7, 8), (4,)), (((1,),), ((1, 1),), ((1,), (-1,)))),
    2: Resolution(((7,), (4,)), (((1,),), ((1,),))),
    3: Resolution(((8,), (4,)), (((1,),), ((1,),))),
    4: Resolution(((4,),), (((1,),),)),
    5: Resolution(((11,), (8,)), (((1,),), ((1,),))),
    6: Resolution(((11,), (7,)), (((1,),), ((1,),))),
    7: Resolution(((7,),), (((1,),),)),
    8: Resolution(((8,),), (((1,),),)),
    9: Resolution(((11,), (4,)), (((1,),), ((1,),))),
    10: Resolution(((7, 8), (4,)), (((1, 1),), ((1,), (-1,)))),
    11: Resolution(((11,),), (((1,),),)),
}


def resolution(k: int) -> Resolution:
    return _RESOLUTIONS[k]


def _overlap_hom_mats(field, src: int, dst: int, scalar: int):
    """Matrices of the overlap map M_src -> M_dst, scaled, one per vertex in
    the quiver's lexicographic order; module-map validity is asserted by the
    caller."""
    sd, dd = _lex_dims(src), _lex_dims(dst)
    mats = []
    for v in range(4):
        if sd[v] == 1 and dd[v] == 1:
            mats.append(Mat(1, 1, ((field.from_int(scalar),),)))
        else:
            mats.append(linalg.zeros(field, dd[v], sd[v]))
    return tuple(mats)


def _block_map(field, stage_from, stage_to, blocks):
    """Vertexwise matrices of a block map between nonempty direct sums of
    intervals: ``blocks[r][c]`` scales the overlap map from summand c of
    stage_from to summand r of stage_to."""
    grid = [[_overlap_hom_mats(field, src, dst, blocks[r][c]) for c, src in enumerate(stage_from)]
            for r, dst in enumerate(stage_to)]
    return tuple(linalg.vstack([linalg.hstack([m[v] for m in row]) for row in grid])
                 for v in range(4))


def _is_module_map(x_rep, n_rep, mats) -> bool:
    field = x_rep.field
    q = x_rep.quiver
    for a_idx, (s, t) in enumerate(q.arrows):
        si, ti = q.vertices.index(s), q.vertices.index(t)
        left = linalg.mul(field, mats[ti], x_rep.mats[a_idx])
        right = linalg.mul(field, n_rep.mats[a_idx], mats[si])
        if left.rows != right.rows:
            return False
    return True


def resolution_maps(k: int, field=QQ):
    """Materialize the resolution of M_k as ``(reps, maps)``.

    ``reps[0]`` is M_k and ``reps[n + 1]`` is P_n, whose repeated summands
    keep the tuple order; ``maps[n]`` holds the vertexwise matrices of d_n:
    P_n -> P_{n-1}.  Every map is verified to be a module map; exactness is
    the caller's check.
    """
    res = _RESOLUTIONS[k]
    reps, maps = [indecomposable(k, field)], []
    below = (k,)
    for n, (stage, blocks) in enumerate(zip(res.stages, res.diffs, strict=True)):
        rep = _direct_sum_of(stage, field)
        d = _block_map(field, stage, below, blocks)
        if not _is_module_map(rep, reps[-1], d):
            raise AssertionError(f"d_{n} in the resolution of M{k} is not a module map")
        reps.append(rep)
        maps.append(d)
        below = stage
    return reps, maps


def verify_resolution_exact(k: int, field=QQ) -> bool:
    """Exactness of 0 -> P_N -> ... -> P_0 -> M_k -> 0, vertex by vertex:
    d_0 is onto M_k, d_{n-1} d_n = 0, and dim P_n = rank d_n + rank d_{n+1}
    (with d_{N+1} = 0)."""
    reps, maps = resolution_maps(k, field)
    for v in range(4):
        ranks = [linalg.rank(field, d[v]) for d in maps] + [0]
        if ranks[0] != reps[0].dims[v]:
            return False
        if any(not linalg.is_zero(linalg.mul(field, maps[n - 1][v], maps[n][v]))
               for n in range(1, len(maps))):
            return False
        if any(reps[n + 1].dims[v] != ranks[n] + ranks[n + 1] for n in range(len(maps))):
            return False
    return True


def _compose_flat(field, phi_flat, n_dims, y_dims, x_dims, d_mats):
    """Map Hom(Y, N) -> Hom(X, N): postcompose coordinates with d: X -> Y."""
    y_off, _ = _hom_layout(n_dims, y_dims)
    x_off, x_size = _hom_layout(n_dims, x_dims)
    out = [field.zero] * x_size
    for v in range(len(x_dims)):
        dv = d_mats[v]
        for a in range(n_dims[v]):
            for b in range(x_dims[v]):
                out[x_off[v] + a * x_dims[v] + b] = field.reduce(sum(
                    (phi_flat[y_off[v] + a * y_dims[v] + m] * dv.entry(m, b)
                     for m in range(y_dims[v])), field.zero))
    return tuple(out)


def _ext_dims_against(reps, maps, n_rep: Representation):
    """(dim Ext^0, ..., dim Ext^N) of M_k against n_rep, from M_k's resolution
    (reps, maps): the cohomology of 0 -> Hom(P_0, N) -> ... -> Hom(P_N, N) -> 0."""
    field = n_rep.field
    stages = reps[1:]
    homs = [_hom_basis(p, n_rep) for p in stages]     # (basis, layout size) per P_n
    ranks = [0]     # rank of Hom(d_n, N): Hom(P_{n-1}, N) -> Hom(P_n, N)
    for n in range(1, len(stages)):
        images = [_compose_flat(field, phi, n_rep.dims, stages[n - 1].dims, stages[n].dims,
                                maps[n])
                  for phi in homs[n - 1][0]]
        ranks.append(linalg.rank(field, linalg.mat(images, ncols=homs[n][1])))
    ranks.append(0)
    return tuple(len(basis) - ranks[n] - ranks[n + 1] for n, (basis, _) in enumerate(homs))


@lru_cache(maxsize=None)
def _ext_row(i: int) -> tuple:
    """Ext dimensions of M_i against M_1, ..., M_11, from one build of M_i's resolution."""
    reps, maps = resolution_maps(i)
    return tuple(_ext_dims_against(reps, maps, indecomposable(j)) for j in sorted(INTERVAL_DIMS))


def _ext_dim(degree: int, m, n) -> int:
    """dim Ext^degree(m, n), additive over catalog indices and multisets."""
    m_ms = {m: 1} if isinstance(m, int) else normalize_multiset(m)
    n_ms = {n: 1} if isinstance(n, int) else normalize_multiset(n)
    # Ext vanishes above the length of the resolution, where the slice is empty.
    return sum(mi * nj * sum(_ext_row(i)[j - 1][degree:degree + 1])
               for i, mi in m_ms.items() for j, nj in n_ms.items())


def ext1_dim(m, n) -> int:
    """dim Ext^1(m, n) for catalog indices or multisets."""
    return _ext_dim(1, m, n)


def ext2_dim(m, n) -> int:
    """dim Ext^2(m, n) for catalog indices or multisets."""
    return _ext_dim(2, m, n)


def ext1_table() -> dict:
    """dim Ext^1(M_i, M_j) for all 121 ordered pairs."""
    return {(i, j): ext1_dim(i, j) for i in INTERVAL_DIMS for j in INTERVAL_DIMS}


def cbs_check(ms: dict) -> bool:
    """Pairwise Ext-vanishing: the direct-sum closure of the listed summand
    types is a component exactly when every ordered pair of distinct types
    has no first extensions."""
    kinds = sorted(normalize_multiset(ms))
    return all(ext1_dim(i, j) == 0 for i in kinds for j in kinds if i != j)


# ---------------------------------------------------------------------------
# Generic decompositions


def generic_decomposition(c: Component) -> dict:
    """Multiplicities of the interval summands of the general representation
    in a component, read off its generic rank profile by the certificate.

    Generically each arrow out of vertex 1 has rank min(d_i, r1) and each
    arrow into vertex 4 rank min(d_i, r2).  The image U of the source map
    in V2 + V3 meets V2 in max(0, r1 - d3) dimensions; commutativity sends
    those to zero in V4, so the composite 1 -> 4 has rank min(r1, d2) minus
    that, capped by the sink rank.
    """
    _, d2, d3, _ = c.dims
    r1, r2 = c.ranks
    profile = RankProfile(
        dims=c.dims,
        r12=min(d2, r1),
        r13=min(d3, r1),
        r24=min(d2, r2),
        r34=min(d3, r2),
        source_rank=r1,
        sink_rank=r2,
        diag_rank=min(min(r1, d2) - max(0, r1 - d3), r2),
    )
    return multiplicities_from_profile(profile)


# ---------------------------------------------------------------------------
# Rank profiles and the decomposition certificate


@dataclass(frozen=True)
class RankProfile:
    """Rank data separating the direct-sum classes of 2x2-grid representations."""

    dims: tuple
    r12: int
    r13: int
    r24: int
    r34: int
    source_rank: int    # rank of the stacked map out of vertex 1
    sink_rank: int      # rank of the stacked map into vertex 4
    diag_rank: int      # rank of the composite vertex 1 -> 4

    def as_vector(self):
        return self.dims + (self.r12, self.r13, self.r24, self.r34,
                            self.source_rank, self.sink_rank, self.diag_rank)


def rank_profile(rep: Representation) -> RankProfile:
    """Every rank of a 2x2-grid point: the four arrows, the two stacked maps
    and the composite 1 -> 4.  The sink map's sign (f24 beside -f34) only
    scales columns, so the plain stack has its rank."""
    field = rep.field
    f12, f13, f24, f34 = g22_blocks(rep)
    return RankProfile(
        dims=g22_dims(rep),
        r12=linalg.rank(field, f12),
        r13=linalg.rank(field, f13),
        r24=linalg.rank(field, f24),
        r34=linalg.rank(field, f34),
        source_rank=linalg.rank(field, linalg.vstack([f12, f13])),
        sink_rank=linalg.rank(field, linalg.hstack([f24, f34])),
        diag_rank=linalg.rank(field, linalg.mul(field, f24, f12)),
    )


@lru_cache(maxsize=None)
def _profile_columns():
    return tuple(rank_profile(indecomposable(k)).as_vector() for k in sorted(INTERVAL_DIMS))


def profile_of_multiset(ms: dict) -> RankProfile:
    """Profile of a direct sum, by additivity of every rank in the profile."""
    vec = [0] * 11
    for k, m in normalize_multiset(ms).items():
        col = _profile_columns()[k - 1]
        vec = [x + m * y for x, y in zip(vec, col)]
    return RankProfile(tuple(vec[:4]), *vec[4:])


@lru_cache(maxsize=None)
def _profile_solver():
    """Inverse of the catalog's profile matrix, as int rows; the inverse is
    derived over QQ and must be integral."""
    cols = _profile_columns()
    matrix = linalg.from_int_rows(QQ, [[cols[j][i] for j in range(11)] for i in range(11)])
    inv = linalg.inverse(QQ, matrix)
    if any(x.denominator != 1 for row in inv.rows for x in row):
        raise AssertionError("the profile matrix of the catalog has a non-integral inverse")
    return tuple(tuple(int(x) for x in row) for row in inv.rows)


def multiplicities_from_profile(profile: RankProfile) -> dict:
    """Invert the profile into interval multiplicities; rejects profiles that
    are not a nonnegative integral combination of the catalog columns."""
    vec = profile.as_vector()
    sol = [sum(map(mul, row, vec)) for row in _profile_solver()]
    ms = {}
    for k, x in enumerate(sol, start=1):
        if x < 0:
            raise InconsistentProfileError(f"profile {vec} is not a direct-sum certificate")
        if x:
            ms[k] = x
    if profile_of_multiset(ms).as_vector() != tuple(vec):
        raise InconsistentProfileError(f"profile {vec} is not additive over the catalog")
    return ms
