import collections
import copy
import functools
import hashlib
import itertools
import pickle
import re
from fractions import Fraction

import pytest

from crystal_grid import an, g22, linalg, modules22 as ma, oracle, suites
from crystal_grid.g22 import Component, ZERO_COMPONENT
from crystal_grid.oracle import SampleConfig
from crystal_grid.reps import ARROWS, CommutativityError, Representation, direct_sum
from crystal_grid.linalg import PrimeField
from reference_draws import random_full_rank, random_rows


CFG = SampleConfig(prime=32003, count=50, seed=7)
KEYS = tuple((kind, i) for kind in ("eps", "eps_star") for i in g22.COLORS)


# Matrices are tuples of row tuples, as a point stores its maps; stacking
# one above another is tuple concatenation.

def _transpose(rows, ncols):
    """The transpose of a matrix of width ncols."""
    return tuple(zip(*rows)) if rows else ((),) * ncols


def _beside(*blocks):
    """Blocks with equal row counts, side by side."""
    return tuple(sum(map(tuple, parts), ()) for parts in zip(*blocks))


def _neg(field, rows):
    return tuple(tuple(-x % field.p for x in row) for row in rows)


def _zeros(nrows, ncols):
    return ((0,) * ncols,) * nrows


def _is_zero(rows):
    return not any(x for row in rows for x in row)


def _stacked_statistic(rep, kind, i):
    """Reference statistic at corner i, straight from the four maps: the
    cokernel of the stacked map into it (eps) or the kernel of the stacked
    map out of it (eps_star); an empty stack is the zero map."""
    pairs = tuple(zip(ARROWS, rep.maps))
    if kind == "eps":
        sources = [s for (s, t), _ in pairs if t == i]
        stacked = _beside(*(m for (_, t), m in pairs if t == i))
        width = sum(rep.dims[s - 1] for s in sources)
    else:
        stacked = sum((m for (s, _), m in pairs if s == i), ())
        width = rep.dims[i - 1]
    return rep.dims[i - 1] - linalg.rank(rep.field, stacked, width)


def _statistic(rep, kind, i):
    """The corner statistic read off the point's rank profile, checked
    against the reference."""
    value = oracle._corner_statistic(ma.rank_profile(rep), (kind, i))
    assert value == _stacked_statistic(rep, kind, i)
    return value


def _zero_point(field, d):
    """The point with every dimension d and every map zero."""
    return Representation(field, (d,) * 4, *(_zeros(d, d) for _ in ARROWS))


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


def _memo(memo):
    return memo.streams, memo.factors, memo.products


def test_stream_memo_stays_out_of_the_config():
    # A config is the value (prime, count, seed) and holds no memo.  A memo
    # of it, a memo of an equal config or of a copy, or none at all, gives
    # the same points; two memos share nothing, and a memo samples only
    # under the config it was built for.
    components = [c for dims in ((2, 3, 1, 2), (3, 2, 2, 3))
                  for c in g22.enumerate_components(dims)]
    cfg, fresh = (SampleConfig(prime=101, count=5, seed=3) for _ in range(2))
    assert SampleConfig.__slots__ == ("prime", "count", "seed", "_field")

    def points(config, memo):
        return [(rep.maps, rep.f14) for c in components for index in range(3)
                for rep in (oracle.sample_component_point(c, config, index, memo),)]

    memo = oracle.StreamMemo(cfg)
    drawn = points(cfg, memo)
    assert all(_memo(memo))
    sizes = tuple(map(len, _memo(memo)))
    assert cfg == fresh and hash(cfg) == hash(fresh)
    assert repr(cfg) == "SampleConfig(prime=101, count=5, seed=3)"
    assert pickle.dumps(cfg) == pickle.dumps(fresh)
    assert points(cfg, None) == drawn
    for other in (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg), fresh):
        other_memo = oracle.StreamMemo(other)
        assert points(other, other_memo) == drawn
        assert all(mine is not theirs for mine, theirs in zip(_memo(memo), _memo(other_memo)))
        with pytest.raises(ValueError, match="only under the config it was built for"):
            oracle.sample_component_point(components[0], cfg, 0, other_memo)
    assert tuple(map(len, _memo(memo))) == sizes


def test_sampled_minima_keep_no_memo_without_one(monkeypatch):
    # Without a memo each point builds its own, so sampling one component at
    # many indices keeps nothing from one point to the next.
    memos = []
    memo_type = oracle.StreamMemo

    def recording(cfg):
        memos.append(memo_type(cfg))
        return memos[-1]

    monkeypatch.setattr(oracle, "StreamMemo", recording)
    c = Component((2, 1, 2, 1), (2, 1))
    cfg = SampleConfig(prime=101, count=20, seed=4)
    floors = {(kind, i): -1 for kind in ("eps", "eps_star") for i in g22.COLORS}
    minima, drawn = oracle.sampled_minima(c, cfg, floors)
    assert drawn == len(memos) == 20
    assert all(list(m.streams) == [index] for index, m in enumerate(memos))
    shared = memo_type(cfg)
    assert oracle.sampled_minima(c, cfg, floors, shared) == (minima, drawn)
    assert list(shared.streams) == list(range(20)) and len(memos) == 20


def test_suite_oracle_draws_each_factor_once_per_stream(monkeypatch):
    # One config and no retry: the 364 points share sample index 0, whose
    # stream is seeded once in the suite's memo.  Each point pays the five eliminations of its
    # profile and the two products of its square; the factors' rejection
    # tests and products are paid once per key.
    counts = collections.Counter()

    def count(owner, name):
        method = getattr(owner, name)

        def counted(*args):
            counts[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, counted)

    count(SampleConfig, "rng")
    count(PrimeField, "eliminate")
    count(linalg, "mul")
    report = suites.suite_oracle(max_dim=3, seed=1)
    assert (report["ok"], report["components"], report["retries"]) == (True, 364, 0)
    assert counts == {"rng": 1, "eliminate": 5 * 364 + 191, "mul": 2 * 364 + 282}


def test_representation_constructor_checks_commutativity():
    field = PrimeField(101)
    one = ((1,),)
    good = Representation(field, (1, 1, 1, 1), one, one, one, one)
    assert good.maps == (one,) * 4
    with pytest.raises(CommutativityError):
        Representation(field, (1, 1, 1, 1), one, one, one, ((2,),))
    # Each arrow's shape is checked before the square, so a wrongly shaped map
    # is reported as such, not as a failed product.
    for k, (s, t) in enumerate(ARROWS):
        maps = [one] * 4
        maps[k] = _zeros(1, 2)
        with pytest.raises(ValueError, match=f"f{s}{t} has shape 1x2"):
            Representation(field, (1, 1, 1, 1), *maps)
    with pytest.raises(ValueError, match="four nonnegative"):
        Representation(field, (1, 1, 1), one, one, one, one)
    with pytest.raises(ValueError, match="four nonnegative"):
        Representation(field, (1, 1, -1, 1), one, one, one, one)
    with pytest.raises(ValueError, match="different fields"):
        direct_sum(good, _zero_point(PrimeField(103), 1))


def test_representation_checks_every_row_length():
    # The right row count with one row of the wrong length: refused, naming
    # the map, before any product of the square is taken.
    field = PrimeField(101)
    dims = (2, 2, 2, 2)
    good = [((1, 0), (0, 1))] * 4
    Representation(field, dims, *good)
    for k, (s, t) in enumerate(ARROWS):
        for ragged in (((1, 0), (0,)), ((1,), (0, 1)), ((1, 0), (0, 1, 0))):
            maps = list(good)
            maps[k] = ragged
            with pytest.raises(ValueError, match=f"^f{s}{t} has shape 2x"):
                Representation(field, dims, *maps)
    with pytest.raises(ValueError) as caught:
        Representation(field, dims, good[0], ((1, 0), (0,)), *good[2:])
    assert str(caught.value) == "f13 has shape 2x1/2, expected 2x2"


def test_representation_accepts_empty_maps_of_the_right_shape():
    field = PrimeField(101)
    # Corner 2 empty: f12 is 0 x d1, written (); f24 is d4 x 0, d4 empty rows.
    maps = ((), ((0, 0),), ((),) * 3, _zeros(3, 1))
    rep = Representation(field, (2, 0, 1, 3), *maps)
    assert rep.maps == maps and rep.f14 == _zeros(3, 2)
    # Every map empty: all four corners of dimension 0, or only the source
    # and the sink of dimension 0.
    assert Representation(field, (0, 0, 0, 0), (), (), (), ()).f14 == ()
    assert Representation(field, (0, 1, 1, 0), ((),), ((),), (), ()).f14 == ()
    # The same maps under dimensions they do not fit.  A map with no rows
    # reports the expected width, which every 0-row matrix has.
    for dims, message in (((2, 1, 1, 3), "f12 has shape 0x2, expected 1x2"),
                          ((2, 0, 1, 2), "f24 has shape 3x0, expected 2x0")):
        with pytest.raises(ValueError) as caught:
            Representation(field, dims, *maps)
        assert str(caught.value) == message
    with pytest.raises(ValueError, match="^f34 has shape 0x1, expected 1x1$"):
        Representation(field, (1, 1, 1, 1), ((1,),), ((1,),), ((1,),), ())
    with pytest.raises(ValueError, match="^f12 has shape 1x0, expected 1x1$"):
        Representation(field, (1, 1, 1, 1), ((),), ((1,),), ((1,),), ((1,),))


def test_sampled_points_have_exact_rank_pair():
    for dims in itertools.product(range(3), repeat=4):
        for c in g22.enumerate_components(dims):
            rep = oracle.sample_component_point(c, CFG, 0)
            assert _rank_pair(rep) == c.ranks


# sha256 of the sampled matrices and rank profiles below, recorded when the
# GF(p) arithmetic still reduced one entry at a time and a point stored its
# maps in grid-coordinate arrow order, (f13, f12, f34, f24); any change to
# the sampler's draws or to the linear algebra's results moves it.
PINNED_SAMPLE_DIGEST = "1169485701382e189822ecf4252ba1dc84f83e1e3782a055aee8bce12f551e94"


def test_sampled_points_are_byte_reproducible():
    digest = hashlib.sha256()
    for dims in ((2, 3, 1, 2), (3, 2, 2, 3), (5, 4, 3, 5), (1, 5, 5, 1), (4, 0, 3, 2)):
        for c in g22.enumerate_components(dims):
            for index in range(3):
                rep = oracle.sample_component_point(c, CFG, index)
                digest.update(repr(((rep.f13, rep.f12, rep.f34, rep.f24),
                                    ma.rank_profile(rep).as_vector())).encode())
    assert digest.hexdigest() == PINNED_SAMPLE_DIGEST


# ---------------------------------------------------------------------------
# The sampler and rank profile as first written, when every factor, product
# and stack was a checked matrix of its own: each full-rank factor drawn and
# tested on its own, A kept once its kernel has the right size, and both
# stacks built whole.  The reference for the sampler's shared elimination.


def _reference_sample_component_point(c, cfg, index):
    """(point, rejected draws) by the reference sampler, which draws every
    factor afresh from its own ``cfg.rng(index)``."""
    field = cfg.field()
    rng = cfg.rng(index)
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    mid = d2 + d3
    rejected = [0]
    while True:
        a = random_rows(field, mid, r1, rng)
        kernel = linalg.nullspace(field, *linalg.rref(field, _transpose(a, r1), mid), mid)
        if len(kernel) == mid - r1:
            break
        rejected[0] += 1
    b = random_full_rank(field, r1, d1, rng, rejected)
    r = random_full_rank(field, r2, mid - r1, rng, rejected)
    cm = random_full_rank(field, d4, r2, rng, rejected)
    out_map = linalg.mul(field, a, b, d1)
    in_map = linalg.mul(field, cm, linalg.mul(field, r, kernel, mid), mid)
    f12, f13 = out_map[:d2], out_map[d2:]
    f24 = [row[:d2] for row in in_map]
    f34 = _neg(field, [row[d2:] for row in in_map])
    return Representation(field, c.dims, f12, f13, f24, f34), rejected[0]


def _reference_rank_profile(rep):
    """The rank profile from echelon forms of the two whole stacks."""
    field = rep.field
    f12, f13, f24, f34 = rep.maps
    d1, d2, d3, _ = rep.dims
    stacks = (_transpose(f12 + f13, d1), _beside(f24, f34))
    source, sink = (field.eliminate(list(m), d2 + d3, False) for m in stacks)
    r12, r24 = (sum(c < d2 for c in pivots) for pivots in (source, sink))
    return ma.RankProfile(rep.dims, r12, linalg.rank(field, f13, d1), r24,
                          linalg.rank(field, f34, d3), len(source), len(sink),
                          linalg.rank(field, rep.f14, d1))


# Rejected draws of the reference sampler over the points below, per prime.
_REJECTED = {32003: 0, 101: 31}


@pytest.mark.parametrize("prime", sorted(_REJECTED))
def test_row_sampler_matches_the_mat_path(prime):
    # Every component with all dimensions at most 4, three seeds, three
    # draws each; over GF(101) some factors are rejected and redrawn, so the
    # two rejection loops are compared and not only first draws.  Each
    # config's points share one memo, as in the sampling suites, so factors
    # of one shape from different streams or offsets meet in it.
    components = [c for dims in itertools.product(range(5), repeat=4)
                  for c in g22.enumerate_components(dims)]
    assert len(components) == 983
    rejected = 0
    for seed in (0, 1, 7):
        cfg = SampleConfig(prime=prime, seed=seed)
        memo = oracle.StreamMemo(cfg)
        for c in components:
            for index in range(3):
                rep = oracle.sample_component_point(c, cfg, index, memo)
                ref, dropped = _reference_sample_component_point(c, cfg, index)
                rejected += dropped
                assert (rep.maps, rep.f14) == (ref.maps, ref.f14), (c, seed, index)
                assert ma.rank_profile(rep) == _reference_rank_profile(ref), (c, seed, index)
    assert rejected == _REJECTED[prime]


def test_sample_of_base_point_is_empty():
    rep = oracle.sample_component_point(ZERO_COMPONENT, CFG, 0)
    assert rep.dims == (0, 0, 0, 0)


def test_sample_with_zero_sink_rank_kills_inward_maps():
    c = Component((2, 1, 1, 2), (2, 0))
    rep = oracle.sample_component_point(c, CFG, 3)
    f12, f13, f24, f34 = rep.maps
    assert _is_zero(f24) and _is_zero(f34)
    assert linalg.rank(rep.field, f12 + f13, 2) == 2


def test_epsilon_of_zero_representation():
    rep = _zero_point(PrimeField(101), 2)
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
                        _stacked_statistic(rep, kind, i), (c, index, kind, i)
                points += 1
    assert points == 728


def test_extension_fiber_dimension():
    rep = oracle.sample_component_point(Component((1, 1, 1, 2), (1, 1)), CFG, 0)
    assert extension_fiber_dim(rep, 1) == 1
    # single outgoing arrow: the fiber is the whole target space
    assert extension_fiber_dim(rep, 2) == 2
    # no outgoing arrows at the sink
    assert extension_fiber_dim(rep, 4) == 0
    # starred version at the sink pairs the two inward arrows
    assert extension_fiber_dim(rep, 4, starred=True) == 1


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
            tally[(kind, i)].append(_stacked_statistic(rep, kind, i))
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
        m = tuple(entries[k * ncols:(k + 1) * ncols] for k in range(nrows))
        if linalg.rank(F3, m, ncols) == min(nrows, ncols):
            found.append(m)
    return tuple(found)


def _unit_block(nrows, ncols, ones):
    return tuple(tuple(int((i, j) in ones) for j in range(ncols)) for i in range(nrows))


def _conjugation_law(d1, mid, d4, r1, r2):
    """Multiset of (out, in) over every (g1, g2, g3) under the retired sampler
    out = g2·α1·g1⁻¹, in = g3·α2·g2⁻¹, with α1, α2 the block normal forms."""
    alpha1 = _unit_block(mid, d1, {(t, t) for t in range(r1)})
    alpha2 = _unit_block(d4, mid, {(t, r1 + t) for t in range(r2)})
    g1_inverses = [linalg.inverse(F3, g1) for g1 in _full_rank(d1, d1)]
    law = collections.Counter()
    for g2 in _full_rank(mid, mid):
        g2_alpha1 = linalg.mul(F3, g2, alpha1, d1)
        alpha2_g2inv = linalg.mul(F3, alpha2, linalg.inverse(F3, g2), mid)
        outs = [tuple(map(tuple, linalg.mul(F3, g2_alpha1, g1_inv, d1)))
                for g1_inv in g1_inverses]
        ins = [tuple(map(tuple, linalg.mul(F3, g3, alpha2_g2inv, mid)))
               for g3 in _full_rank(d4, d4)]
        law.update(itertools.product(outs, ins))
    return law


def _factor_law(d1, mid, d4, r1, r2):
    """Multiset of (out, in) over every factor tuple (A, B, R, C) of the sampler,
    read back off the point: out is f12 over f13, in is f24 beside -f34."""
    dims = (d1, mid // 2, mid - mid // 2, d4)
    law = collections.Counter()
    for a, b, r, cm in itertools.product(_full_rank(mid, r1), _full_rank(r1, d1),
                                         _full_rank(r2, mid - r1), _full_rank(d4, r2)):
        k = linalg.nullspace(F3, *linalg.rref(F3, _transpose(a, r1), mid), mid)
        rep = oracle._point(F3, dims, oracle._outward(F3, a, b, d1),
                            oracle._inward(F3, r, k, cm, mid))
        law[(rep.f12 + rep.f13, _beside(rep.f24, _neg(F3, rep.f34)))] += 1
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


def _transpose_point(rep):
    """The transpose point on the opposite grid: corners 1..4 become 4..1."""
    d1, d2, d3, _ = rep.dims
    return Representation(rep.field, rep.dims[::-1], _transpose(rep.f34, d3),
                          _transpose(rep.f24, d2), _transpose(rep.f13, d1),
                          _transpose(rep.f12, d1))


def test_transpose_duality_of_samples():
    # The transpose swaps r12 with r34, r13 with r24 and source with sink,
    # keeps the composite, and turns eps_star at corner 5 - i into eps at i.
    for dims in itertools.product(range(3), repeat=4):
        for c in g22.enumerate_components(dims):
            rep = oracle.sample_component_point(c, CFG, 1)
            p, q = ma.rank_profile(rep), ma.rank_profile(_transpose_point(rep))
            assert (q.source_rank, q.sink_rank) == g22.dual(c).ranks
            assert q == ma.RankProfile(p.dims[::-1], r12=p.r34, r13=p.r24, r24=p.r13,
                                       r34=p.r12, source_rank=p.sink_rank,
                                       sink_rank=p.source_rank, diag_rank=p.diag_rank)
            for i in g22.COLORS:
                assert (oracle._corner_statistic(q, ("eps", i))
                        == oracle._corner_statistic(p, ("eps_star", 5 - i))), (c, i)


def test_certify_sampled_decomposition():
    rep = oracle.sample_component_point(Component((1, 1, 1, 2), (1, 1)), CFG, 0)
    assert _certified(rep) == {4: 1, 11: 1}


def test_certify_explicit_direct_sum():
    rep = ma.multiset_rep({2: 1, 3: 1, 11: 1})
    assert _certified(rep) == {2: 1, 3: 1, 11: 1}


def test_certify_zero_representation():
    rep = _zero_point(PrimeField(32003), 1)
    assert _certified(rep) == {1: 1, 2: 1, 3: 1, 4: 1}


# ---------------------------------------------------------------------------
# The chain: a point is the tuple of its maps V_1 -> V_2 -> ... -> V_n.


def sample_an_point(dims, cfg: SampleConfig, index: int = 0) -> tuple:
    """Uniform random chain maps; there are no relations to respect."""
    field, rng = cfg.field(), cfg.rng(index)
    return tuple(random_rows(field, dims[k + 1], dims[k], rng)
                 for k in range(len(dims) - 1))


def _chain_statistics(field, dims, maps, i):
    """(dim coker(V_{i-1} -> V_i), dim ker(V_i -> V_{i+1})) of a chain point;
    a map past either end is zero."""
    into = linalg.rank(field, maps[i - 2], dims[i - 2]) if i > 1 else 0
    out = linalg.rank(field, maps[i - 1], dims[i - 1]) if i < len(dims) else 0
    return dims[i - 1] - into, dims[i - 1] - out


def test_an_sampler_reaches_full_rank():
    cfg = SampleConfig(prime=101, count=50, seed=3)
    points = [sample_an_point((2, 2), cfg, k) for k in range(cfg.count)]
    assert max(linalg.rank(cfg.field(), maps[0], 2) for maps in points) == 2
    assert min(_chain_statistics(cfg.field(), (2, 2), maps, 2)[0] for maps in points) == 0


def test_an_sampler_degenerate_shapes():
    maps = sample_an_point((0, 3), CFG, 0)
    assert maps[0] == [[], [], []]
    assert _chain_statistics(CFG.field(), (0, 3), maps, 2) == (3, 3)
    maps = sample_an_point((1, 1, 1), CFG, 0)
    assert len(maps) == 2 and all(len(m) == len(m[0]) == 1 for m in maps)


def test_an_oracle_concordance_small():
    cfg = SampleConfig(prime=32003, count=50, seed=5)
    for dims in itertools.product(range(3), repeat=3):
        points = [sample_an_point(dims, cfg, k) for k in range(cfg.count)]
        for i in (1, 2, 3):
            eps, eps_star = (min(values) for values in zip(
                *(_chain_statistics(cfg.field(), dims, maps, i) for maps in points)))
            assert eps == an.local(dims, i)[0], (dims, i)
            assert eps_star == an.local_star(dims, i)[0], (dims, i)


# ---------------------------------------------------------------------------
# Geometry probes: generic points of the correspondences that define the
# operators, certified by the rank profile, against the case tables.


def _solve(field, a, b, ncols):
    """One solution of A x = b for A of width ncols, or None when inconsistent."""
    echelon, pivots = linalg.rref(field, [tuple(row) + (x,) for row, x in zip(a, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = echelon[r][ncols]
    return tuple(x)


def incoming_matrix(rep, i):
    """The maps into corner i side by side, and the width of that matrix;
    into the sink, [f34 | f24]."""
    sources = {1: (), 2: (1,), 3: (1,), 4: (3, 2)}[i]
    blocks = {1: [((),) * rep.dims[0]], 2: [rep.f12], 3: [rep.f13], 4: [rep.f34, rep.f24]}[i]
    return _beside(*blocks), sum(rep.dims[s - 1] for s in sources)


def _square_closing_map(rep, i, starred: bool):
    """The signed square-closing map at corner i and its source corners.

    Out of the source it is [f34 | -f24] over V3 then V2; the starred map
    into the sink is [f13ᵀ | -f12ᵀ], again over V3 then V2.  Elsewhere there
    is at most one source and the map is None (it is zero).
    """
    field, d1 = rep.field, rep.dims[0]
    if (i, starred) == (1, False):
        return _beside(rep.f34, _neg(field, rep.f24)), (3, 2)
    if (i, starred) == (4, True):
        return _beside(_transpose(rep.f13, d1), _neg(field, _transpose(rep.f12, d1))), (3, 2)
    if starred:
        return None, tuple(s for s, t in ARROWS if t == i)
    return None, tuple(t for s, t in ARROWS if s == i)


def extension_fiber_dim(rep, i, starred: bool = False) -> int:
    """Kernel dimension of the signed square-closing map at corner i."""
    matrix, sources = _square_closing_map(rep, i, starred)
    if not sources:
        return 0
    if matrix is None:
        return rep.dims[sources[0] - 1]
    width = sum(rep.dims[j - 1] for j in sources)
    return width - linalg.rank(rep.field, matrix, width)


def extension_point(rep, i, rng):
    """A generic extension of the simple at corner i by the point.

    Corner i gains one dimension; inward maps are zero-padded (the quotient
    simple receives nothing), and outward maps gain a column drawn from the
    kernel of the square-closing map, which is exactly the commutativity
    constraint on the new basis vector.
    """
    field = rep.field
    matrix, sources = _square_closing_map(rep, i, starred=False)
    width = sum(rep.dims[j - 1] for j in sources)
    if matrix is None:
        vec = field.rand_row(rng, width)
    else:
        basis = linalg.nullspace(field, *linalg.rref(field, matrix, width), width)
        vec = field.dots(field.rand_row(rng, len(basis)), _transpose(basis, width))
    chunks, offset = {}, 0
    for j in sources:
        chunks[j] = vec[offset:offset + rep.dims[j - 1]]
        offset += rep.dims[j - 1]
    maps = []
    for (s, t), m in zip(ARROWS, rep.maps):
        if t == i:
            m = m + _zeros(1, rep.dims[s - 1])
        elif s == i:
            m = _beside(m, tuple((x,) for x in chunks[t]))
        maps.append(m)
    dims = tuple(d + (k == i) for k, d in enumerate(rep.dims, start=1))
    return Representation(field, dims, *maps)


def restriction_point(rep, i, rng):
    """A generic corank-1 subpoint cutting corner i down by one.

    The hyperplane at corner i must contain the images of all inward maps,
    so this exists exactly when the cokernel there is nonzero; returns None
    otherwise.
    """
    field = rep.field
    d = rep.dims[i - 1]
    inc, width = incoming_matrix(rep, i)
    span = []
    for col in _transpose(inc, width):
        if linalg.rank(field, span + [col], d) > len(span):
            span.append(col)
    if d == len(span):
        return None
    while True:
        extra = [tuple(field.rand_row(rng, d)) for _ in range(d - 1 - len(span))]
        basis = _transpose(span + extra, d)
        if linalg.rank(field, basis, d - 1) == d - 1:
            break
    maps = []
    for (s, t), m in zip(ARROWS, rep.maps):
        if t == i:
            cols = [_solve(field, basis, col, d - 1) for col in _transpose(m, rep.dims[s - 1])]
            if None in cols:
                raise AssertionError("inward image escaped the chosen hyperplane")
            m = _transpose(cols, d - 1)
        elif s == i:
            m = linalg.mul(field, m, basis, d - 1)
        maps.append(m)
    dims = tuple(x - (k == i) for k, x in enumerate(rep.dims, start=1))
    return Representation(field, dims, *maps)


def _probe_lowering(c, i, seed=0):
    """Certified class of a generic simple-quotient extension at corner i."""
    cfg = SampleConfig(seed=seed)
    rep = oracle.sample_component_point(c, cfg, 0)
    ext = extension_point(rep, i, cfg.rng(1))
    return _certified(ext)


def _probe_raising(c, i, seed=0):
    cfg = SampleConfig(seed=seed)
    rep = oracle.sample_component_point(c, cfg, 0)
    sub = restriction_point(rep, i, cfg.rng(1))
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
    assert a.maps == b.maps
    other = oracle.sample_component_point(c, SampleConfig(seed=8), 4)
    assert a.maps != other.maps
