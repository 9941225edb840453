import itertools
from functools import lru_cache

import pytest

from crystal_grid import g22, linalg, modules22 as ma, oracle
from crystal_grid.linalg import QQ, PrimeField
from crystal_grid.reps import ARROWS, Representation, direct_sum


def _intertwiner_hom_dim(x_rep: Representation, n_rep: Representation) -> int:
    """dim Hom(x, n) as the kernel of the intertwiner system: one unknown per
    entry of the per-vertex blocks phi_v: x(v) -> n(v), one equation per
    entry of phi_t x(a) - n(a) phi_s on each arrow a: s -> t.  Independent of
    the library's resolutions; the reference for every Hom and Ext^0."""
    xd, nd = x_rep.dims, n_rep.dims
    offsets = [sum(nd[u] * xd[u] for u in range(v)) for v in range(len(xd))]
    size = sum(nd[v] * xd[v] for v in range(len(xd)))
    rows = []
    for fx, fn, (s, t) in zip(x_rep.maps, n_rep.maps, ARROWS):
        si, ti = s - 1, t - 1
        for x in range(nd[ti]):
            for y in range(xd[si]):
                row = [QQ.zero] * size
                for b in range(xd[ti]):
                    row[offsets[ti] + x * xd[ti] + b] += fx[b][y]
                for a in range(nd[si]):
                    row[offsets[si] + a * xd[si] + y] -= fn[x][a]
                rows.append(row)
    return size - linalg.rank(QQ, rows, size)


@lru_cache(maxsize=None)
def _catalog_hom(i: int, j: int) -> int:
    return _intertwiner_hom_dim(ma.indecomposable(i), ma.indecomposable(j))


def test_catalog_has_eleven_interval_classes():
    assert sorted(ma.INTERVAL_DIMS) == list(range(1, 12))
    assert ma.PROJECTIVES == (4, 7, 8, 11)


# Irreducible-map arrows of the translation quiver on the catalog.
AR_QUIVER_ARROWS = (
    (4, 7), (4, 8), (7, 10), (8, 10), (10, 2), (10, 3), (10, 11),
    (11, 9), (2, 9), (3, 9), (9, 5), (9, 6), (5, 1), (6, 1),
)


def test_translation_quiver_arrows_carry_maps():
    assert len(AR_QUIVER_ARROWS) == 14
    for src, dst in AR_QUIVER_ARROWS:
        assert ma.hom_dim(src, dst) >= 1, (src, dst)


def test_full_interval_is_all_identities():
    rep = ma.indecomposable(11)
    assert rep.dims == (1, 1, 1, 1)
    for block in rep.maps:
        assert block == ((QQ.one,),)


def test_simple_at_source_corner():
    rep = ma.indecomposable(1)
    assert rep.dims == (1, 0, 0, 0)
    assert rep.maps == ((), (), (), ())


def test_hook_through_sink():
    rep = ma.indecomposable(7)
    assert rep.dims == (0, 1, 0, 1)
    # f12 and f34 leave a zero corner: one empty row each.
    assert rep.maps == (((),), (), ((QQ.one,),), ((),))


def test_hom_dims():
    assert ma.hom_dim(11, 11) == 1
    assert ma.hom_dim(11, 4) == 0
    assert ma.hom_dim(4, 11) == 1


def test_hom_accepts_multisets_and_reps():
    ms = {4: 1, 11: 1}
    rep = ma.multiset_rep(ms)
    assert ma.hom_dim(ms, ms) == _intertwiner_hom_dim(rep, rep) == 3


def test_hom_is_biadditive():
    for i, j in itertools.product((1, 4, 5, 10), repeat=2):
        ms = {i: 1}
        ms[j] = ms.get(j, 0) + 1
        split = ma.hom_dim(ms, {i: 1})
        merged = _intertwiner_hom_dim(direct_sum(ma.indecomposable(i), ma.indecomposable(j)),
                                      ma.indecomposable(i))
        assert split == merged


def test_all_resolutions_are_exact():
    for k in range(1, 12):
        assert ma.verify_resolution_exact(k)


def test_ext_examples():
    assert ma.ext1_dim(1, 4) == 0
    assert ma.ext1_dim(5, 8) == 1
    assert ma.ext1_dim(2, 3) == 0
    assert all(ma.ext1_dim(7, j) == 0 for j in range(1, 12))


def test_ext_first_argument_projective_vanishes():
    for k in ma.PROJECTIVES:
        for j in range(1, 12):
            assert ma.ext1_dim(k, j) == 0


def test_ext_second_degree_only_from_longest_resolution():
    for i in range(1, 12):
        for j in range(1, 12):
            e2 = ma.ext2_dim(i, j)
            if i != 1:
                assert e2 == 0
    assert ma.ext2_dim(1, 4) == 1


# Broken resolutions, each failing one clause of exactness: M1's last
# differential with its sign flipped (so d_1 d_2 != 0), M1 without P_2, M10
# without P_1, and M5 given the resolution of M2, whose augmentation misses
# M5 at the source corner.
_BROKEN_RESOLUTIONS = (
    (1, ma.Resolution(((11,), (7, 8), (4,)), (((1,),), ((1, 1),), ((1,), (1,))))),
    (1, ma.Resolution(((11,), (7, 8)), (((1,),), ((1, 1),)))),
    (10, ma.Resolution(((7, 8),), (((1, 1),),))),
    (5, ma._RESOLUTIONS[2]),
)


@pytest.mark.parametrize("k, broken", _BROKEN_RESOLUTIONS)
def test_broken_resolutions_are_not_exact(monkeypatch, k, broken):
    monkeypatch.setitem(ma._RESOLUTIONS, k, broken)
    assert not ma.verify_resolution_exact(k)


def test_augmentation_that_is_no_module_map_is_rejected(monkeypatch):
    # The overlap map M11 -> M2 is nonzero only at corner 2, so on the arrow
    # 1 -> 2 it does not commute with M11's identity.
    monkeypatch.setitem(ma._RESOLUTIONS, 2, ma.Resolution(((11,),), (((1,),),)))
    with pytest.raises(AssertionError, match="d_0 in the resolution of M2 is not a module map"):
        ma.verify_resolution_exact(2)


# Ext^1(M_i, M_j) = 1 exactly at these pairs; Ext^2 only at (1, 4).
_EXT1_PAIRS = {
    (1, 2), (1, 3), (1, 9), (1, 10), (2, 4), (2, 8), (3, 4), (3, 7), (5, 3), (5, 8),
    (5, 10), (6, 2), (6, 7), (6, 10), (9, 4), (9, 7), (9, 8), (9, 10), (10, 4),
}


def test_ext_tables_are_pinned():
    pairs = list(itertools.product(range(1, 12), repeat=2))
    assert ma.ext1_table() == {p: int(p in _EXT1_PAIRS) for p in pairs}
    assert {p: ma.ext2_dim(*p) for p in pairs} == {p: int(p == (1, 4)) for p in pairs}
    # Ext^0, the kernel at Hom(P_0, N), is Hom(M, N).
    assert all(ma._ext_row(i)[j - 1][0] == _catalog_hom(i, j) for i, j in pairs)


# The corner v whose simple each projective covers.
_COVERED_CORNER = {11: 1, 7: 2, 8: 3, 4: 4}


def test_euler_characteristic_of_resolutions():
    for p, v in _COVERED_CORNER.items():
        assert all(_catalog_hom(p, j) == ma.INTERVAL_DIMS[j][v - 1] for j in range(1, 12))
    for k in range(1, 12):
        res = ma._RESOLUTIONS[k]
        for j in range(1, 12):
            alternating = sum((-1) ** n * sum(_catalog_hom(p, j) for p in stage)
                              for n, stage in enumerate(res.stages))
            assert alternating == _catalog_hom(k, j) - ma.ext1_dim(k, j) + ma.ext2_dim(k, j)


def test_ext_is_additive_in_second_argument():
    assert ma.ext1_dim(5, {8: 2, 11: 1}) == 2 * ma.ext1_dim(5, 8) + ma.ext1_dim(5, 11)


def test_cbs_examples():
    assert ma.cbs_check({4: 1, 11: 1})
    assert not ma.cbs_check({5: 1, 8: 1})
    assert ma.cbs_check({11: 3})


def test_cbs_check_reads_every_ordered_pair_of_the_ext1_table():
    # Both orders count: Ext^1(M10, M4) is nonzero and Ext^1(M4, M10) is not.
    assert ma.ext1_dim(10, 4) and not ma.ext1_dim(4, 10)
    for i, j in itertools.combinations(sorted(ma.INTERVAL_DIMS), 2):
        vanishes = ma.ext1_dim(i, j) == 0 and ma.ext1_dim(j, i) == 0
        assert ma.cbs_check({i: 1, j: 2}) == vanishes, (i, j)


def _table_decomposition(c: g22.Component) -> dict:
    """Generic decomposition by the case table the library used before the
    closed-form rank profile; kept as an independent reference.

    Every matching branch of the case analysis is evaluated; branches whose
    conditions overlap must agree, and at least one branch always fires.
    """
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    results = []
    if d1 + d4 >= d2 + d3:
        def low(extra):
            results.append({1: d1 - r1, 4: d4 - r2, **extra})

        if d1 <= d2 <= d3:
            low({7: d2 - r1, 8: d3 - r1, 11: r1})
        if d2 <= d1 <= d3 and r1 <= d2:
            low({7: d2 - r1, 8: d3 - r1, 11: r1})
        if d2 <= d1 <= d3 and d2 <= r1:
            low({6: r1 - d2, 8: d3 - r1, 11: d2})
        if d2 <= d3 <= d1 and r1 <= d2:
            low({7: d2 - r1, 8: d3 - r1, 11: r1})
        if d2 <= d3 <= d1 and d2 <= r1 <= d3:
            low({6: r1 - d2, 8: d3 - r1, 11: d2})
        if d2 <= d3 <= d1 and d3 <= r1:
            low({6: r1 - d2, 5: r1 - d3, 11: r2})
        if d1 <= d3 <= d2:
            low({7: d2 - r1, 8: d3 - r1, 11: r1})
        if d3 <= d1 <= d2 and r1 <= d3:
            low({7: d2 - r1, 8: d3 - r1, 11: r1})
        if d3 <= d1 <= d2 and d3 <= r1:
            low({5: r1 - d3, 7: d2 - r1, 11: d3})
        if d3 <= d2 <= d1 and r1 <= d3:
            low({7: d2 - r1, 8: d3 - r1, 11: r1})
        if d3 <= d2 <= d1 and d3 <= r1 <= d2:
            low({5: r1 - d3, 7: d2 - r1, 11: d3})
        if d3 <= d2 <= d1 and d2 <= r1:
            low({5: r1 - d3, 6: r1 - d2, 11: r2})
    else:
        if d2 <= d3:
            if d4 <= d1 <= d2 <= d3:
                results.append({2: d2 - d1, 3: d3 - d1, 9: d1 - d4, 11: d4})
            if d4 <= d2 <= d1 <= d3:
                results.append({3: d3 - d1, 6: d1 - d2, 9: d2 - d4, 11: d4})
            if d4 <= d2 <= d3 <= d1:
                results.append({5: d1 - d3, 6: d1 - d2, 9: d2 + d3 - d1 - d4, 11: d4})
            if d2 <= d4 <= d1 <= d3:
                results.append({3: d2 + d3 - d1 - d4, 6: d1 - d2, 8: d4 - d2, 11: d2})
            if d1 <= d4 <= d2 <= d3:
                results.append({2: d2 - d4, 3: d3 - d4, 10: d4 - d1, 11: d1})
            if d1 <= d2 <= d4 <= d3:
                results.append({3: d3 - d4, 8: d4 - d2, 10: d2 - d1, 11: d1})
            if d1 <= d2 <= d3 <= d4:
                results.append({7: d4 - d3, 8: d4 - d2, 10: d2 + d3 - d1 - d4, 11: d1})
            if d2 <= d1 <= d4 <= d3:
                results.append({3: d2 + d3 - d1 - d4, 6: d1 - d2, 8: d4 - d2, 11: d2})
        if d3 <= d2:
            if d4 <= d1 <= d3 <= d2:
                results.append({2: d2 - d1, 3: d3 - d1, 9: d1 - d4, 11: d4})
            if d4 <= d3 <= d1 <= d2:
                results.append({2: d2 - d1, 5: d1 - d3, 9: d3 - d4, 11: d4})
            if d4 <= d3 <= d2 <= d1:
                results.append({5: d1 - d3, 6: d1 - d2, 9: d2 + d3 - d1 - d4, 11: d4})
            if d3 <= d4 <= d1 <= d2:
                results.append({2: d2 + d3 - d1 - d4, 5: d1 - d3, 7: d4 - d3, 11: d3})
            if d1 <= d4 <= d3 <= d2:
                results.append({2: d2 - d4, 3: d3 - d4, 10: d4 - d1, 11: d1})
            if d1 <= d3 <= d4 <= d2:
                results.append({2: d2 - d4, 7: d4 - d3, 10: d3 - d1, 11: d1})
            if d1 <= d3 <= d2 <= d4:
                results.append({7: d4 - d3, 8: d4 - d2, 10: d2 + d3 - d1 - d4, 11: d1})
            if d3 <= d1 <= d4 <= d2:
                results.append({2: d2 + d3 - d1 - d4, 5: d1 - d3, 7: d4 - d3, 11: d3})
    if not results:
        raise AssertionError(f"no decomposition branch matched {c}")
    normalized = [ma.normalize_multiset(ms) for ms in results]
    first = normalized[0]
    if any(ms != first for ms in normalized[1:]):
        raise AssertionError(f"overlapping decomposition branches disagree at {c}")
    return first


def test_generic_decomposition_matches_case_table():
    checked = 0
    for dims in itertools.product(range(8), repeat=4):
        for c in g22.enumerate_components(dims):
            assert ma.generic_decomposition(c) == _table_decomposition(c), c
            checked += 1
    assert checked == 8296


def test_profile_inverse_is_integral():
    inv = ma._profile_solver()
    assert len(inv) == 11 and all(len(row) == 11 for row in inv)
    assert all(type(x) is int and x in (-1, 0, 1) for row in inv for x in row)


def test_generic_decomposition_examples():
    assert ma.generic_decomposition(g22.Component((1, 1, 1, 2), (1, 1))) == {4: 1, 11: 1}
    assert ma.generic_decomposition(g22.Component((2, 1, 1, 2), (1, 1))) == {1: 1, 4: 1, 11: 1}
    assert ma.generic_decomposition(g22.Component((1, 2, 2, 1), (1, 1))) == {2: 1, 3: 1, 11: 1}
    assert ma.generic_decomposition(g22.ZERO_COMPONENT) == {}


def test_generic_decomposition_consistency_small_box():
    for dims in itertools.product(range(4), repeat=4):
        for c in g22.enumerate_components(dims):
            ms = ma.generic_decomposition(c)
            assert ma.multiset_dims(ms) == c.dims
            profile = ma.profile_of_multiset(ms)
            assert (profile.source_rank, profile.sink_rank) == c.ranks
            assert ma.cbs_check(ms)


def test_profile_matrix_is_invertible():
    cols = [ma.rank_profile(ma.indecomposable(k)).as_vector() for k in range(1, 12)]
    assert linalg.rank(QQ, list(zip(*cols)), 11) == 11


def test_multiplicities_of_catalog_modules():
    for k in range(1, 12):
        profile = ma.rank_profile(ma.indecomposable(k))
        assert ma.multiplicities_from_profile(profile) == {k: 1}


def test_multiplicities_of_direct_sum():
    rep = ma.multiset_rep({4: 1, 11: 1})
    assert ma.multiplicities_from_profile(ma.rank_profile(rep)) == {4: 1, 11: 1}


def test_multiplicities_of_zero_representation():
    rep = ma.multiset_rep({1: 1, 2: 1, 3: 1, 4: 1})
    profile = ma.rank_profile(rep)
    assert profile.source_rank == profile.sink_rank == 0
    assert ma.multiplicities_from_profile(profile) == {1: 1, 2: 1, 3: 1, 4: 1}


def test_multiset_round_trip():
    kinds = (1, 2, 5, 7, 9, 10, 11)
    for ms in ({2: 1, 5: 2}, {9: 1, 10: 1}, {7: 2, 11: 1}, {k: 1 for k in kinds}):
        assert ma.multiplicities_from_profile(ma.profile_of_multiset(ms)) == ms
        built = ma.rank_profile(ma.multiset_rep(ms))
        assert built == ma.profile_of_multiset(ms)


def test_inconsistent_profile_rejected():
    profile = ma.RankProfile((1, 0, 0, 0), 1, 0, 0, 0, 1, 0, 0)
    with pytest.raises(ma.InconsistentProfileError):
        ma.multiplicities_from_profile(profile)


def test_distinguishing_profile_needs_diagonal_rank():
    # these two sums differ only in the rank of the composite map
    a = ma.profile_of_multiset({9: 1, 10: 1})
    b = ma.profile_of_multiset({11: 1, 2: 1, 3: 1})
    assert a.as_vector()[:10] == b.as_vector()[:10]
    assert a.diag_rank != b.diag_rank


# The profile as first defined: seven independent ranks of the point's maps.
# rank_profile reads three of them off the pivots of two shared eliminations.

def _seven_rank_profile(rep: Representation) -> ma.RankProfile:
    field = rep.field
    f12, f13, f24, f34 = rep.maps
    d1, d2, d3, _ = rep.dims
    return ma.RankProfile(
        dims=rep.dims,
        r12=linalg.rank(field, f12, d1),
        r13=linalg.rank(field, f13, d1),
        r24=linalg.rank(field, f24, d2),
        r34=linalg.rank(field, f34, d3),
        source_rank=linalg.rank(field, f12 + f13, d1),
        sink_rank=linalg.rank(field, [x + y for x, y in zip(f24, f34)], d2 + d3),
        diag_rank=linalg.rank(field, rep.f14, d1),
    )


def _zero_point(field, dims):
    return Representation(field, dims, *(((0,) * dims[s - 1],) * dims[t - 1]
                                         for s, t in ARROWS))


@pytest.mark.parametrize("prime", [101, 32003])
def test_rank_profile_matches_seven_ranks_on_sampled_points(prime):
    cfg = oracle.SampleConfig(prime=prime, seed=7)
    for dims in itertools.product(range(6), repeat=4):
        for c in g22.enumerate_components(dims):
            rep = oracle.sample_component_point(c, cfg, 0)
            assert ma.rank_profile(rep) == _seven_rank_profile(rep), c


def test_rank_profile_matches_seven_ranks_on_rank_deficient_points():
    # Direct sums, zero maps and zero-dimensional corners: points whose ranks
    # sit below the generic ones, so the pivots of the shared eliminations
    # split unevenly between the two blocks.
    field = PrimeField(101)
    cfg = oracle.SampleConfig(prime=101, seed=3)
    small = [c for dims in itertools.product(range(3), repeat=4)
             for c in g22.enumerate_components(dims)]
    points = [_zero_point(field, dims) for dims in itertools.product(range(3), repeat=4)]
    samples = [oracle.sample_component_point(c, cfg, 0) for c in small[::7]]
    points += [direct_sum(x, y) for x in samples[::3] for y in samples]
    points += [direct_sum(x, _zero_point(field, (2, 0, 1, 2))) for x in samples]
    for ms in ({i: 1, j: 1} for i in range(1, 12) for j in range(i, 12)):
        points.append(ma.multiset_rep(ms))
    for rep in points:
        assert ma.rank_profile(rep) == _seven_rank_profile(rep), rep.dims


def test_rank_profile_matches_seven_ranks_on_the_catalog():
    for k in sorted(ma.INTERVAL_DIMS):
        rep = ma.indecomposable(k)
        assert ma.rank_profile(rep) == _seven_rank_profile(rep), k
