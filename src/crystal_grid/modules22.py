"""Module algebra for the 2x2 grid: the interval catalog, Hom/Ext via
projective resolutions, direct-sum certificates, and generic
decompositions of components.

The eleven indecomposables are the interval modules M1..M11, each with
0/1 dimension vector and identity maps wherever both endpoints are
nonzero.  Four of them are projective: P_v, the cover of the simple at
corner v, is M11, M7, M8, M4 for v = 1, 2, 3, 4.  Every module's
projective resolution is a list of stages P_0, P_1, ... (direct sums of
the projectives) and a list of integer tables B_0, B_1, ..., one scalar
per pair of summands, with B_0 the augmentation onto M_k.  A map between
two intervals is its scalar at every corner where both live, so d_n at
corner v is mask(v) · B_n · mask(v), the 0/1 diagonal mask(v) keeping the
summands that live at v.  Since Hom(P_v, N) = N(v), the same tables give
the cochain complex 0 -> Hom(P_0, N) -> Hom(P_1, N) -> ..., masked at the
corners that generate the summands; Ext is its cohomology and Hom its Ext^0.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul

from . import linalg
from .g22 import Component
from .linalg import QQ
from .reps import ARROWS, Representation, direct_sum
from .values import Record

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

# The corner generating each projective: Hom(P, N) = N(corner).
_GENERATOR = {11: 1, 7: 2, 8: 3, 4: 4}


class InconsistentProfileError(ValueError):
    """A rank profile admitting no nonnegative integral decomposition."""


def indecomposable(k: int) -> Representation:
    """The interval module M_k over QQ: every map between two corners where
    it lives is the 1x1 identity, and every other map is empty."""
    dims = INTERVAL_DIMS[k]
    return Representation(QQ, dims, *(
        ((QQ.one,) * dims[s - 1],) * dims[t - 1] for s, t in ARROWS))


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


def multiset_rep(ms: dict) -> Representation:
    """Direct sum over QQ of the catalog modules with the given multiplicities."""
    pieces = [indecomposable(k) for k, m in normalize_multiset(ms).items() for _ in range(m)]
    if not pieces:
        return Representation(QQ, (0, 0, 0, 0), (), (), (), ())
    return reduce(direct_sum, pieces)


# ---------------------------------------------------------------------------
# Projective resolutions, Hom and Ext


class Resolution(Record):
    """A projective resolution ... -> P_1 -> P_0 -> M_k -> 0 of a catalog module.

    ``stages[n]`` lists the interval summands of P_n.  ``diffs[n]`` is the
    table B_n of the map d_n: P_n -> P_{n-1}, rows over the summands of
    P_{n-1} and columns over those of P_n, where P_{-1} = M_k; so
    ``diffs[0]`` is the augmentation.
    """

    __slots__ = ()

    def __new__(cls, stages: tuple, diffs: tuple):
        return tuple.__new__(cls, (stages, diffs))


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


def _lives(stage, *corners) -> list:
    """The diagonal of mask(corners): 1 for a summand living at every corner."""
    return [int(all(INTERVAL_DIMS[s][v - 1] for v in corners)) for s in stage]


def _mask(rows, table, cols) -> list:
    """diag(rows) · table · diag(cols) as integer rows."""
    return [[r * b * c for b, c in zip(line, cols, strict=True)]
            for r, line in zip(rows, table, strict=True)]


def verify_resolution_exact(k: int) -> bool:
    """Exactness of 0 -> P_N -> ... -> P_0 -> M_k -> 0, corner by corner:
    d_0 is onto M_k, d_{n-1} d_n = 0, and dim P_n = rank d_n + rank d_{n+1}
    (with d_{N+1} = 0).  Each d_n must first be a module map, which raises
    AssertionError otherwise: d_n(t) · mask(s, t) = mask(s, t) · d_n(s) on
    every arrow s -> t."""
    res = _RESOLUTIONS[k]
    below = ((k,),) + res.stages[:-1]
    for n, (lower, stage, table) in enumerate(zip(below, res.stages, res.diffs, strict=True)):
        for s, t in ARROWS:
            if (_mask(_lives(lower, t), table, _lives(stage, s, t))
                    != _mask(_lives(lower, s, t), table, _lives(stage, s))):
                raise AssertionError(f"d_{n} in the resolution of M{k} is not a module map")
    widths = [len(stage) for stage in res.stages]
    for v in (1, 2, 3, 4):
        maps = [_mask(_lives(lower, v), table, _lives(stage, v))
                for lower, stage, table in zip(below, res.stages, res.diffs)]
        ranks = [linalg.rank(QQ, d, n) for d, n in zip(maps, widths)] + [0]
        if ranks[0] != INTERVAL_DIMS[k][v - 1]:
            return False
        if any(any(map(any, linalg.mul(QQ, maps[n - 1], maps[n], widths[n])))
               for n in range(1, len(maps))):    # some d_{n-1} d_n is nonzero
            return False
        if any(sum(_lives(stage, v)) != ranks[n] + ranks[n + 1]
               for n, stage in enumerate(res.stages)):
            return False
    return True


@lru_cache(maxsize=None)
def _ext_row(i: int) -> tuple:
    """(dim Ext^0, ..., dim Ext^N) of M_i against M_1, ..., M_11: the
    cohomology of 0 -> Hom(P_0, M_j) -> ... -> Hom(P_N, M_j) -> 0.  A
    summand P of P_n contributes M_j at P's generating corner, so the mask
    keeps the summands whose generator M_j lives at, and Hom(d_n, M_j) is
    B_n between the masks of P_{n-1} and P_n (up to a transpose)."""
    stages, diffs = _RESOLUTIONS[i].stages, _RESOLUTIONS[i].diffs
    row = []
    for j in sorted(INTERVAL_DIMS):
        masks = [[INTERVAL_DIMS[j][_GENERATOR[p] - 1] for p in stage] for stage in stages]
        ranks = [0] + [linalg.rank(QQ, _mask(masks[n - 1], diffs[n], masks[n]), len(masks[n]))
                       for n in range(1, len(stages))] + [0]
        row.append(tuple(sum(mask) - ranks[n] - ranks[n + 1] for n, mask in enumerate(masks)))
    return tuple(row)


def _ext_dim(degree: int, m, n) -> int:
    """dim Ext^degree(m, n), additive over catalog indices and multisets."""
    m_ms = {m: 1} if isinstance(m, int) else normalize_multiset(m)
    n_ms = {n: 1} if isinstance(n, int) else normalize_multiset(n)
    # Ext vanishes above the length of the resolution, where the slice is empty.
    return sum(mi * nj * sum(_ext_row(i)[j - 1][degree:degree + 1])
               for i, mi in m_ms.items() for j, nj in n_ms.items())


def hom_dim(m, n) -> int:
    """Dimension of the space of module maps m -> n, as dim Ext^0(m, n)."""
    return _ext_dim(0, m, n)


def ext1_dim(m, n) -> int:
    """dim Ext^1(m, n) for catalog indices or multisets."""
    return _ext_dim(1, m, n)


def ext2_dim(m, n) -> int:
    """dim Ext^2(m, n) for catalog indices or multisets."""
    return _ext_dim(2, m, n)


def ext1_table() -> dict:
    """dim Ext^1(M_i, M_j) for all 121 ordered pairs."""
    return {(i, j): ext1_dim(i, j) for i in INTERVAL_DIMS for j in INTERVAL_DIMS}


@lru_cache(maxsize=None)
def _ext1_nonzero() -> frozenset:
    """The ordered pairs (i, j) with Ext^1(M_i, M_j) nonzero, built once."""
    return frozenset(pair for pair, dim in ext1_table().items() if dim)


def cbs_check(ms: dict) -> bool:
    """Pairwise Ext-vanishing: the direct-sum closure of the listed summand
    types is a component exactly when every ordered pair of distinct types
    has no first extensions."""
    kinds = sorted(normalize_multiset(ms))
    nonzero = _ext1_nonzero()
    return not any((i, j) in nonzero for i in kinds for j in kinds if i != j)


# ---------------------------------------------------------------------------
# Generic decompositions


def generic_profile(c: Component) -> RankProfile:
    """The rank profile of the general representation in a component.

    Generically each arrow out of vertex 1 has rank min(d_i, r1) and each
    arrow into vertex 4 rank min(d_i, r2).  The image U of the source map
    in V2 + V3 meets V2 in max(0, r1 - d3) dimensions; commutativity sends
    those to zero in V4, so the composite 1 -> 4 has rank min(r1, d2) minus
    that, capped by the sink rank.
    """
    _, d2, d3, _ = c.dims
    r1, r2 = c.ranks
    return RankProfile(
        dims=c.dims,
        r12=min(d2, r1),
        r13=min(d3, r1),
        r24=min(d2, r2),
        r34=min(d3, r2),
        source_rank=r1,
        sink_rank=r2,
        diag_rank=min(min(r1, d2) - max(0, r1 - d3), r2),
    )


def generic_decomposition(c: Component) -> dict:
    """Multiplicities of the interval summands of the general representation
    in a component, read off its generic rank profile by the certificate."""
    return multiplicities_from_profile(generic_profile(c))


# ---------------------------------------------------------------------------
# Rank profiles and the decomposition certificate


class RankProfile(Record):
    """Rank data separating the direct-sum classes of 2x2-grid representations:
    the four arrows' ranks, then those of the stacked map out of vertex 1, of
    the stacked map into vertex 4 and of the composite 1 -> 4."""

    __slots__ = ()

    def __new__(cls, dims: tuple, r12: int, r13: int, r24: int, r34: int,
                source_rank: int, sink_rank: int, diag_rank: int):
        return tuple.__new__(cls, (dims, r12, r13, r24, r34, source_rank, sink_rank, diag_rank))

    def as_vector(self):
        return self[0] + self[1:]


def rank_profile(rep: Representation) -> RankProfile:
    """Every rank of a 2x2-grid point: the four arrows, the two stacked maps
    and the composite 1 -> 4, from five eliminations of the point's maps.

    The pivot columns of one echelon form of [f12ᵀ | f13ᵀ] count the source
    rank, and those among its first d2 columns the rank of f12ᵀ, so of f12;
    one echelon form of [f24 | f34] gives the sink rank and the rank of f24
    the same way.  The sink map's sign (f24 beside -f34) only scales
    columns, so the plain stack has its rank.  Both stacks are cut from
    the maps' rows; f13, f34 and the composite take one rank each.  The
    field is called through ``eliminate`` alone.
    """
    field = rep.field
    f12, f13, f24, f34 = rep.maps
    d1, d2, d3, _ = rep.dims
    source = field.eliminate(list(zip(*(f12 + f13))), d2 + d3, False)
    sink = field.eliminate([x + y for x, y in zip(f24, f34)], d2 + d3, False)
    r12, r24 = (sum(c < d2 for c in pivots) for pivots in (source, sink))
    return RankProfile(
        dims=rep.dims,
        r12=r12,
        r13=linalg.rank(field, f13, d1),
        r24=r24,
        r34=linalg.rank(field, f34, d3),
        source_rank=len(source),
        sink_rank=len(sink),
        diag_rank=linalg.rank(field, rep.f14, d1),
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
def _profile_matrix():
    """The catalog's profile matrix as int rows: column k - 1 is the profile of M_k."""
    return tuple(zip(*_profile_columns()))


@lru_cache(maxsize=None)
def _profile_solver():
    """Inverse of the catalog's profile matrix, as int rows; the inverse is
    derived over QQ and must be integral."""
    inv = linalg.inverse(QQ, _profile_matrix())
    if any(x.denominator != 1 for row in inv for x in row):
        raise AssertionError("the profile matrix of the catalog has a non-integral inverse")
    return tuple(tuple(int(x) for x in row) for row in inv)


def multiplicities_from_profile(profile: RankProfile) -> dict:
    """Invert the profile into interval multiplicities; rejects profiles that
    are not a nonnegative integral combination of the catalog columns.  The
    certificate is checked as M·sol = profile, with M the catalog's profile
    matrix: by additivity, M·sol is the profile of the multiset sol."""
    vec = profile.as_vector()
    sol = [sum(map(mul, row, vec)) for row in _profile_solver()]
    ms = {}
    for k, x in enumerate(sol, start=1):
        if x < 0:
            raise InconsistentProfileError(f"profile {vec} is not a direct-sum certificate")
        if x:
            ms[k] = x
    if tuple([sum(map(mul, row, sol)) for row in _profile_matrix()]) != vec:
        raise InconsistentProfileError(f"profile {vec} is not additive over the catalog")
    return ms
