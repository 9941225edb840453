import collections
import functools
import hashlib
import itertools
import re
from fractions import Fraction

import pytest

from crystal_grid import an, g22, linalg, modules22 as ma, oracle
from crystal_grid.g22 import Component, ZERO_COMPONENT
from crystal_grid.oracle import SampleConfig
from crystal_grid.reps import (CommutativityError, dual_representation, g22_representation,
                               make_representation)
from crystal_grid.linalg import PrimeField


CFG = SampleConfig(prime=32003, count=50, seed=7)
KEYS = tuple((kind, i) for kind in ("eps", "eps_star") for i in g22.COLORS)


def _stacked_statistic(rep, kind, v):
    """Reference statistic at a vertex, straight from rep.mats: the cokernel of
    the stacked map into it (eps) or the kernel of the stacked map out of it
    (eps_star); an empty stack is the zero map."""
    pairs = tuple(zip(rep.quiver.arrows, rep.mats))
    if kind == "eps":
        blocks = [m for (_, t), m in pairs if t == v]
        stacked = linalg.hstack(blocks) if blocks else None
    else:
        blocks = [m for (s, _), m in pairs if s == v]
        stacked = linalg.vstack(blocks) if blocks else None
    return rep.dim_at(v) - (0 if stacked is None else linalg.rank(rep.field, stacked))


def _statistic(rep, kind, i):
    """The corner statistic read off the point's rank profile, checked
    against the reference."""
    value = oracle._corner_statistic(ma.rank_profile(rep), (kind, i))
    assert value == _stacked_statistic(rep, kind, g22.VERTEX_OF[i])
    return value


def _rank_pair(rep):
    profile = ma.rank_profile(rep)
    return profile.source_rank, profile.sink_rank


def _certified(rep):
    return ma.multiplicities_from_profile(ma.rank_profile(rep))


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(prime=97)       # too small
    with pytest.raises(ValueError):
        SampleConfig(prime=1000)     # composite
    with pytest.raises(ValueError):
        SampleConfig(count=0)


def test_representation_constructor_checks_commutativity():
    field = PrimeField(101)
    good = g22_representation(field, (1, 1, 1, 1),
                              linalg.identity(field, 1), linalg.identity(field, 1),
                              linalg.identity(field, 1), linalg.identity(field, 1))
    assert good.total_dim == 4
    with pytest.raises(CommutativityError):
        g22_representation(field, (1, 1, 1, 1),
                           linalg.identity(field, 1), linalg.identity(field, 1),
                           linalg.identity(field, 1),
                           linalg.from_int_rows(field, [[2]]))


def test_sampled_points_have_exact_rank_pair():
    for dims in itertools.product(range(3), repeat=4):
        for c in g22.enumerate_components(dims):
            rep = oracle.sample_component_point(c, CFG, 0)
            assert _rank_pair(rep) == c.ranks


# sha256 of the sampled matrices and rank profiles below, recorded when the
# GF(p) arithmetic still reduced one entry at a time; any change to the
# sampler's draws or to the linear algebra's results moves it.
PINNED_SAMPLE_DIGEST = "1169485701382e189822ecf4252ba1dc84f83e1e3782a055aee8bce12f551e94"


def test_sampled_points_are_byte_reproducible():
    digest = hashlib.sha256()
    for dims in ((2, 3, 1, 2), (3, 2, 2, 3), (5, 4, 3, 5), (1, 5, 5, 1), (4, 0, 3, 2)):
        for c in g22.enumerate_components(dims):
            for index in range(3):
                rep = oracle.sample_component_point(c, CFG, index)
                digest.update(repr((tuple(m.rows for m in rep.mats),
                                    ma.rank_profile(rep).as_vector())).encode())
    assert digest.hexdigest() == PINNED_SAMPLE_DIGEST


def test_sample_of_base_point_is_empty():
    rep = oracle.sample_component_point(ZERO_COMPONENT, CFG, 0)
    assert rep.total_dim == 0


def test_sample_with_zero_sink_rank_kills_inward_maps():
    c = Component((2, 1, 1, 2), (2, 0))
    rep = oracle.sample_component_point(c, CFG, 3)
    from crystal_grid.reps import g22_blocks

    f12, f13, f24, f34 = g22_blocks(rep)
    assert linalg.is_zero(f24) and linalg.is_zero(f34)
    assert linalg.rank(rep.field, linalg.vstack([f12, f13])) == 2


def test_epsilon_of_zero_representation():
    field = PrimeField(101)
    rep = make_representation(g22.QUIVER, field, {v: 2 for v in g22.QUIVER.vertices}, {})
    for kind, i in KEYS:
        assert _statistic(rep, kind, i) == 2


def test_epsilon_on_sampled_points():
    rep = oracle.sample_component_point(Component((1, 1, 1, 2), (1, 1)), CFG, 0)
    assert _statistic(rep, "eps", 4) == 1
    rep = oracle.sample_component_point(Component((2, 1, 1, 2), (1, 1)), CFG, 0)
    assert _statistic(rep, "eps", 2) == 0


def test_epsilon_star_on_sampled_points():
    rep = oracle.sample_component_point(Component((3, 1, 1, 2), (1, 1)), CFG, 0)
    assert _statistic(rep, "eps_star", 1) == 2
    assert _statistic(rep, "eps_star", 4) == 2


@pytest.mark.parametrize("prime", [101, 32003])
def test_profile_statistics_match_the_stacked_maps(prime):
    # Two draws of every component with all dimensions at most 3.
    cfg = SampleConfig(prime=prime, seed=2)
    points = 0
    for dims in itertools.product(range(4), repeat=4):
        for c in g22.enumerate_components(dims):
            for index in range(2):
                rep = oracle.sample_component_point(c, cfg, index)
                profile = ma.rank_profile(rep)
                for kind, i in KEYS:
                    assert oracle._corner_statistic(profile, (kind, i)) == \
                        _stacked_statistic(rep, kind, g22.VERTEX_OF[i]), (c, index, kind, i)
                points += 1
    assert points == 728


def test_extension_fiber_dimension():
    rep = oracle.sample_component_point(Component((1, 1, 1, 2), (1, 1)), CFG, 0)
    assert oracle.extension_fiber_dim(rep, g22.VERTEX_OF[1]) == 1
    # single outgoing arrow: the fiber is the whole target space
    assert oracle.extension_fiber_dim(rep, g22.VERTEX_OF[2]) == 2
    # no outgoing arrows at the sink
    assert oracle.extension_fiber_dim(rep, g22.VERTEX_OF[4]) == 0
    # starred version at the sink pairs the two inward arrows
    assert oracle.extension_fiber_dim(rep, g22.VERTEX_OF[4], starred=True) == 1


def test_estimates_match_closed_forms():
    def estimate(c, i):
        minima, _ = oracle.sampled_minima(c, CFG, {("eps", i): 0})
        return minima[("eps", i)]

    assert estimate(Component((1, 1, 1, 2), (1, 1)), 1) == 1
    assert estimate(Component((2, 1, 1, 2), (1, 1)), 3) == 0
    assert estimate(ZERO_COMPONENT, 2) == 0


def test_sampled_minima_take_the_minimum_over_every_draw():
    # Over p = 101 a few of these points are degenerate, so the per-sample
    # values vary; floors of -1 are never reached, so every draw is made.
    c = Component((2, 1, 2, 1), (2, 1))
    cfg = SampleConfig(prime=101, count=20, seed=4)
    floors = {(kind, i): -1 for kind in ("eps", "eps_star") for i in g22.COLORS}
    minima, drawn = oracle.sampled_minima(c, cfg, floors)
    assert drawn == cfg.count
    tally = {key: [] for key in floors}
    for index in range(cfg.count):
        rep = oracle.sample_component_point(c, cfg, index)
        for kind, i in floors:
            tally[(kind, i)].append(_stacked_statistic(rep, kind, g22.VERTEX_OF[i]))
    assert minima == {key: min(values) for key, values in tally.items()}
    assert any(min(values) != max(values) for values in tally.values())


@pytest.mark.parametrize("key", [("eps", 5), ("eps_star", 0), ("epsilon", 1), "eps"])
def test_sampled_minima_reject_an_unknown_statistic_before_drawing(monkeypatch, key):
    def no_draw(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(oracle, "sample_component_point", no_draw)
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        oracle.sampled_minima(ZERO_COMPONENT, CFG, {("eps", 1): 0, key: 0})


F3 = PrimeField(3)


@functools.lru_cache(maxsize=None)
def _full_rank(nrows, ncols):
    """Every nrows x ncols matrix of rank min(nrows, ncols) over GF(3)."""
    found = []
    for entries in itertools.product(range(3), repeat=nrows * ncols):
        m = linalg.Mat(nrows, ncols, tuple(entries[k * ncols:(k + 1) * ncols]
                                           for k in range(nrows)))
        if linalg.rank(F3, m) == min(nrows, ncols):
            found.append(m)
    return tuple(found)


def _unit_block(nrows, ncols, ones):
    return linalg.Mat(nrows, ncols, tuple(tuple(int((i, j) in ones) for j in range(ncols))
                                          for i in range(nrows)))


def _conjugation_law(d1, mid, d4, r1, r2):
    """Multiset of (out, in) over every (g1, g2, g3) under the retired sampler
    out = g2·α1·g1⁻¹, in = g3·α2·g2⁻¹, with α1, α2 the block normal forms."""
    alpha1 = _unit_block(mid, d1, {(t, t) for t in range(r1)})
    alpha2 = _unit_block(d4, mid, {(t, r1 + t) for t in range(r2)})
    g1_inverses = [linalg.inverse(F3, g1) for g1 in _full_rank(d1, d1)]
    law = collections.Counter()
    for g2 in _full_rank(mid, mid):
        g2_alpha1 = linalg.mul(F3, g2, alpha1)
        alpha2_g2inv = linalg.mul(F3, alpha2, linalg.inverse(F3, g2))
        outs = [linalg.mul(F3, g2_alpha1, g1_inv).rows for g1_inv in g1_inverses]
        ins = [linalg.mul(F3, g3, alpha2_g2inv).rows for g3 in _full_rank(d4, d4)]
        law.update(itertools.product(outs, ins))
    return law


def _factor_law(d1, mid, d4, r1, r2):
    """Multiset of (out, in) over every factor tuple (A, B, R, C) of the sampler."""
    law = collections.Counter()
    for a, b, r, cm in itertools.product(_full_rank(mid, r1), _full_rank(r1, d1),
                                         _full_rank(r2, mid - r1), _full_rank(d4, r2)):
        out_map, in_map = oracle._factor_maps(F3, a, b, r, cm)
        law[(out_map.rows, in_map.rows)] += 1
    return law


def _normalized(law):
    total = sum(law.values())
    return {point: Fraction(count, total) for point, count in law.items()}


@pytest.mark.parametrize("d1, mid, d4, r1, r2", [
    (1, 3, 1, 1, 1),
    (2, 2, 2, 1, 1),    # r1 + r2 = mid
    (2, 2, 1, 0, 1),    # r1 = 0
    (1, 2, 2, 1, 0),    # r2 = 0
    (0, 2, 2, 0, 2),    # r1 = 0 and r1 + r2 = mid, empty source
    (2, 2, 0, 2, 0),    # r1 = mid and r2 = 0, empty sink
])
def test_factor_sampler_has_the_conjugation_law(d1, mid, d4, r1, r2):
    # Exact over GF(3): every (g1, g2, g3) against every factor tuple.
    shape = (d1, mid, d4, r1, r2)
    assert _normalized(_factor_law(*shape)) == _normalized(_conjugation_law(*shape))


def test_transpose_duality_of_samples():
    for dims in itertools.product(range(3), repeat=4):
        for c in g22.enumerate_components(dims):
            rep = oracle.sample_component_point(c, CFG, 1)
            assert _rank_pair(dual_representation(rep)) == g22.dual(c).ranks


def test_certify_sampled_decomposition():
    rep = oracle.sample_component_point(Component((1, 1, 1, 2), (1, 1)), CFG, 0)
    assert _certified(rep) == {4: 1, 11: 1}


def test_certify_explicit_direct_sum():
    rep = ma.multiset_rep({2: 1, 3: 1, 11: 1})
    assert _certified(rep) == {2: 1, 3: 1, 11: 1}


def test_certify_zero_representation():
    field = PrimeField(32003)
    rep = make_representation(g22.QUIVER, field, {v: 1 for v in g22.QUIVER.vertices}, {})
    assert _certified(rep) == {1: 1, 2: 1, 3: 1, 4: 1}


def test_an_sampler_reaches_full_rank():
    cfg = SampleConfig(prime=101, count=50, seed=3)
    ranks = []
    for k in range(cfg.count):
        rep = oracle.sample_an_point((2, 2), cfg, k)
        ranks.append(linalg.rank(rep.field, rep.mat_on((1,), (2,))))
    assert max(ranks) == 2
    assert min(_stacked_statistic(oracle.sample_an_point((2, 2), cfg, k), "eps", (2,))
               for k in range(cfg.count)) == 0


def test_an_sampler_degenerate_shapes():
    rep = oracle.sample_an_point((0, 3), CFG, 0)
    assert rep.dims == (0, 3)
    assert _stacked_statistic(rep, "eps", (2,)) == 3
    rep = oracle.sample_an_point((1, 1, 1), CFG, 0)
    assert all(m.nrows == 1 and m.ncols == 1 for m in rep.mats)


def test_an_oracle_concordance_small():
    cfg = SampleConfig(prime=32003, count=50, seed=5)
    for dims in itertools.product(range(3), repeat=3):
        for i in (1, 2, 3):
            sampled = min(
                _stacked_statistic(oracle.sample_an_point(dims, cfg, k), "eps", (i,))
                for k in range(cfg.count))
            assert sampled == an.epsilon(dims, i)


def _probe_lowering(c, i, seed=0):
    """Certified class of a generic simple-quotient extension at corner i."""
    cfg = SampleConfig(seed=seed)
    rep = oracle.sample_component_point(c, cfg, 0)
    ext = oracle.extension_point(rep, g22.VERTEX_OF[i], cfg.rng(1))
    return _certified(ext)


def _probe_raising(c, i, seed=0):
    cfg = SampleConfig(seed=seed)
    rep = oracle.sample_component_point(c, cfg, 0)
    sub = oracle.restriction_point(rep, g22.VERTEX_OF[i], cfg.rng(1))
    return None if sub is None else _certified(sub)


def _check_lowering_against_geometry(c, i):
    got = _probe_lowering(c, i)
    target = g22.apply_f(c, i)
    bumped = tuple(d + (1 if k == i - 1 else 0) for k, d in enumerate(c.dims))
    generic = [ma.generic_decomposition(x) for x in g22.enumerate_components(bumped)]
    if target is not None:
        if got != ma.generic_decomposition(target):
            got = _probe_lowering(c, i, seed=1)
        assert got == ma.generic_decomposition(target), (c, i, got)
    else:
        if got in generic:
            got = _probe_lowering(c, i, seed=1)
        # a vanishing operator means the extension closure is nowhere dense
        assert got not in generic, (c, i, got)


def _check_raising_against_geometry(c, i):
    got = _probe_raising(c, i)
    target = g22.apply_e(c, i)
    if got is None:
        # no corank-1 subrepresentation exists at all
        assert g22.epsilon(c, i) == 0 and target is None
        return
    cut = tuple(d - (1 if k == i - 1 else 0) for k, d in enumerate(c.dims))
    generic = [ma.generic_decomposition(x) for x in g22.enumerate_components(cut)]
    if target is not None:
        if got != ma.generic_decomposition(target):
            got = _probe_raising(c, i, seed=1)
        assert got == ma.generic_decomposition(target), (c, i, got)
    else:
        if got in generic:
            got = _probe_raising(c, i, seed=1)
        assert got not in generic, (c, i, got)


def test_lowering_table_matches_extension_geometry():
    for dims in itertools.product(range(3), repeat=4):
        for c in g22.enumerate_components(dims):
            for i in g22.COLORS:
                _check_lowering_against_geometry(c, i)


def test_raising_table_matches_restriction_geometry():
    for dims in itertools.product(range(3), repeat=4):
        for c in g22.enumerate_components(dims):
            for i in g22.COLORS:
                _check_raising_against_geometry(c, i)


def test_geometry_probes_on_boundary_cases():
    # lowering candidate exceeds the sink dimension: the closure is a
    # proper determinantal locus, so the operator vanishes
    _check_lowering_against_geometry(Component((2, 1, 0, 1), (0, 1)), 2)
    # explicit vanishing with a deceptive rank pair: the extension keeps
    # maximal stacked ranks but is iso to a non-generic class
    c = Component((1, 1, 0, 0), (1, 0))
    assert _probe_lowering(c, 3) == {3: 1, 5: 1}
    _check_lowering_against_geometry(c, 3)
    # raising against the rank wall: the subrepresentation drops to a
    # non-generic class as well
    c = Component((1, 1, 1, 2), (1, 1))
    assert _probe_raising(c, 1) == {4: 1, 10: 1}
    _check_raising_against_geometry(c, 1)


def test_seed_reproducibility():
    c = Component((2, 1, 1, 2), (1, 1))
    a = oracle.sample_component_point(c, CFG, 4)
    b = oracle.sample_component_point(c, CFG, 4)
    assert a.mats == b.mats
    other = oracle.sample_component_point(c, SampleConfig(seed=8), 4)
    assert a.mats != other.mats
