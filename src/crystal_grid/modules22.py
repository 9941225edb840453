"""Module algebra for the 2x2 grid: the interval catalog, Hom/Ext via
projective resolutions, direct-sum certificates, and generic
decompositions of components.

The eleven indecomposables are the interval modules M1..M11, each with
0/1 dimension vector and identity maps wherever both endpoints are
nonzero.  Four of them (M4, M7, M8, M11) are projective; the remaining
seven have the short projective resolutions materialized below, with
differentials fixed by overlap inclusions and one sign forced by
exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
            out[int(k)] = int(m)
    return out


def multiset_dims(ms: dict):
    dims = [0, 0, 0, 0]
    for k, m in ms.items():
        for pos in range(4):
            dims[pos] += m * INTERVAL_DIMS[k][pos]
    return tuple(dims)


def multiset_rep(ms: dict, field=QQ) -> Representation:
    """Direct sum of the catalog modules with the given multiplicities."""
    ms = normalize_multiset(ms)
    total = None
    for k, m in ms.items():
        for _ in range(m):
            piece = indecomposable(k, field)
            total = piece if total is None else direct_sum(total, piece)
    if total is None:
        return g22_representation(field, (0, 0, 0, 0),
                                  *(linalg.zeros(field, 0, 0) for _ in range(4)))
    return total


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
    module: int
    p0: tuple
    p1: tuple
    p2: tuple
    aug: tuple      # scalar per p0 summand
    d1: tuple       # rows over p0 summands, cols over p1 summands
    d2: tuple       # rows over p1 summands, cols over p2 summands


_RESOLUTIONS = {
    1: Resolution(1, (11,), (7, 8), (4,), (1,), ((1, 1),), ((1,), (-1,))),
    2: Resolution(2, (7,), (4,), (), (1,), ((1,),), ()),
    3: Resolution(3, (8,), (4,), (), (1,), ((1,),), ()),
    4: Resolution(4, (4,), (), (), (1,), (), ()),
    5: Resolution(5, (11,), (8,), (), (1,), ((1,),), ()),
    6: Resolution(6, (11,), (7,), (), (1,), ((1,),), ()),
    7: Resolution(7, (7,), (), (), (1,), (), ()),
    8: Resolution(8, (8,), (), (), (1,), (), ()),
    9: Resolution(9, (11,), (4,), (), (1,), ((1,),), ()),
    10: Resolution(10, (7, 8), (4,), (), (1, 1), ((1,), (-1,)), ()),
    11: Resolution(11, (11,), (), (), (1,), (), ()),
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
    """Vertexwise matrices of a block map between direct sums of intervals."""
    mats = []
    for v in range(4):
        row_mats = []
        for r, dst in enumerate(stage_to):
            col_mats = []
            for c, src in enumerate(stage_from):
                scalar = blocks[r][c] if blocks else 0
                col_mats.append(_overlap_hom_mats(field, src, dst, scalar)[v])
            row_mats.append(linalg.hstack(col_mats) if col_mats else
                            linalg.zeros(field, _lex_dims(dst)[v], 0))
        if row_mats:
            mats.append(linalg.vstack(row_mats))
        else:
            ncols = sum(_lex_dims(s)[v] for s in stage_from)
            mats.append(linalg.zeros(field, 0, ncols))
    return tuple(mats)


def _stage_rep(stage, field) -> Representation:
    total = None
    for k in stage:
        piece = indecomposable(k, field)
        total = piece if total is None else direct_sum(total, piece)
    if total is None:
        return multiset_rep({}, field)
    return total


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
    """Materialize the resolution of M_k: stage representations and maps.

    Stages with repeated summands keep the tuple order.  Every map is
    verified to be a module map; exactness is the caller's check.
    """
    res = _RESOLUTIONS[k]
    target = indecomposable(k, field)
    p0 = _stage_rep(res.p0, field)
    aug = _block_map(field, res.p0, (k,), (res.aug,))
    if not _is_module_map(p0, target, aug):
        raise AssertionError(f"augmentation of M{k} is not a module map")
    out = {"target": target, "p0": p0, "aug": aug, "p1": None, "d1": None,
           "p2": None, "d2": None}
    if res.p1:
        p1 = _stage_rep(res.p1, field)
        d1 = _block_map(field, res.p1, res.p0, res.d1)
        if not _is_module_map(p1, p0, d1):
            raise AssertionError(f"first differential of M{k} is not a module map")
        out["p1"], out["d1"] = p1, d1
    if res.p2:
        p2 = _stage_rep(res.p2, field)
        d2 = _block_map(field, res.p2, res.p1, res.d2)
        if not _is_module_map(p2, p1, d2):
            raise AssertionError(f"second differential of M{k} is not a module map")
        out["p2"], out["d2"] = p2, d2
    return out


def verify_resolution_exact(k: int, field=QQ) -> bool:
    """Exactness of 0 -> P2 -> P1 -> P0 -> M_k -> 0, vertex by vertex."""
    maps = resolution_maps(k, field)
    target, p0, aug = maps["target"], maps["p0"], maps["aug"]
    p1, d1, p2, d2 = maps["p1"], maps["d1"], maps["p2"], maps["d2"]
    for v in range(4):
        a0 = aug[v]
        if linalg.rank(field, a0) != target.dims[v]:
            return False
        ker0 = p0.dims[v] - linalg.rank(field, a0)
        if p1 is None:
            if ker0 != 0:
                return False
            continue
        a1 = d1[v]
        if not linalg.is_zero(linalg.mul(field, a0, a1)):
            return False
        r1 = linalg.rank(field, a1)
        if r1 != ker0:
            return False
        ker1 = p1.dims[v] - r1
        if p2 is None:
            if ker1 != 0:
                return False
            continue
        a2 = d2[v]
        if not linalg.is_zero(linalg.mul(field, a1, a2)):
            return False
        r2 = linalg.rank(field, a2)
        if r2 != ker1 or r2 != p2.dims[v]:
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


def _ext_dims_against(k: int, n_rep: Representation):
    """(ext1, ext2) of M_k against an explicit representation."""
    field = n_rep.field
    maps = resolution_maps(k, field)
    p0, p1, p2 = maps["p0"], maps["p1"], maps["p2"]
    if p1 is None:
        return 0, 0
    h0, _ = _hom_basis(p0, n_rep)
    h1, _ = _hom_basis(p1, n_rep)
    d1_images = [_compose_flat(field, v, n_rep.dims, p0.dims, p1.dims, maps["d1"])
                 for v in h0]
    rank_d1 = linalg.rank(field, linalg.mat(d1_images, ncols=_hom_layout(n_rep.dims, p1.dims)[1])) \
        if d1_images else 0
    if p2 is None:
        ker = len(h1)
        return ker - rank_d1, 0
    h2_size = _hom_layout(n_rep.dims, p2.dims)[1]
    d2_images = [_compose_flat(field, v, n_rep.dims, p1.dims, p2.dims, maps["d2"])
                 for v in h1]
    rank_d2 = linalg.rank(field, linalg.mat(d2_images, ncols=h2_size)) if d2_images else 0
    ker = len(h1) - rank_d2
    h2, _ = _hom_basis(p2, n_rep)
    return ker - rank_d1, len(h2) - rank_d2


@lru_cache(maxsize=None)
def _ext_pair(i: int, j: int):
    return _ext_dims_against(i, indecomposable(j))


def ext1_dim(m, n) -> int:
    """dim Ext^1(m, n); m is a catalog index or multiset, n may also be a
    Representation."""
    if isinstance(n, Representation):
        if isinstance(m, int):
            return _ext_dims_against(m, n)[0]
        return sum(mult * _ext_dims_against(i, n)[0]
                   for i, mult in normalize_multiset(m).items())
    n_ms = {n: 1} if isinstance(n, int) else normalize_multiset(n)
    m_ms = {m: 1} if isinstance(m, int) else normalize_multiset(m)
    return sum(mi * nj * _ext_pair(i, j)[0]
               for i, mi in m_ms.items() for j, nj in n_ms.items())


def ext2_dim(m, n) -> int:
    if isinstance(n, Representation):
        return _ext_dims_against(m, n)[1]
    n_ms = {n: 1} if isinstance(n, int) else normalize_multiset(n)
    return sum(nj * _ext_pair(m, j)[1] for j, nj in n_ms.items())


def ext1_table() -> dict:
    """dim Ext^1(M_i, M_j) for all 121 ordered pairs."""
    return {(i, j): _ext_pair(i, j)[0] for i in INTERVAL_DIMS for j in INTERVAL_DIMS}


def cbs_check(ms: dict) -> bool:
    """Pairwise Ext-vanishing: the direct-sum closure of the listed summand
    types is a component exactly when every ordered pair of distinct types
    has no first extensions."""
    kinds = sorted(normalize_multiset(ms))
    return all(_ext_pair(i, j)[0] == 0
               for i in kinds for j in kinds if i != j)


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
    field = rep.field
    f12, f13, f24, f34 = g22_blocks(rep)
    source = linalg.vstack([f12, f13])
    sink = linalg.hstack([f24, linalg.neg(field, f34)])
    diag = linalg.mul(field, f24, f12)
    return RankProfile(
        dims=g22_dims(rep),
        r12=linalg.rank(field, f12),
        r13=linalg.rank(field, f13),
        r24=linalg.rank(field, f24),
        r34=linalg.rank(field, f34),
        source_rank=linalg.rank(field, source),
        sink_rank=linalg.rank(field, sink),
        diag_rank=linalg.rank(field, diag),
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
    sol = [sum(a * b for a, b in zip(row, vec)) for row in _profile_solver()]
    ms = {}
    for k, x in enumerate(sol, start=1):
        if x < 0:
            raise InconsistentProfileError(f"profile {vec} is not a direct-sum certificate")
        if x:
            ms[k] = x
    if profile_of_multiset(ms).as_vector() != tuple(vec):
        raise InconsistentProfileError(f"profile {vec} is not additive over the catalog")
    return ms
