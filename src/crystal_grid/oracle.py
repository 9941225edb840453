"""Exact sampling oracle for components of the 2x2-grid representation varieties.

A point of a named component is a ``reps.Representation`` whose two
stacked maps form a two-step complex (a pair of composable maps with zero
composite) built from full-rank factors: the outward map is A·B and the
inward map is C·R·K, where K spans the left kernel of A.  Its two stacked
ranks equal the component's rank data exactly, not just generically, and
its law is that of the block normal form conjugated by independent uniform
invertible matrices at the three slots.  Everything runs over an exact
prime field, so minima over samples are honest lower bounds for generic
values; ``sampled_minima`` is the one routine that takes them.

The corner statistics are the cokernel of the stacked map into a corner
(eps) and the kernel of the stacked map out of it (eps_star).  Each is a
dimension minus one rank of the point's ``modules22.rank_profile``:

    eps_1 = d1                 eps_star_1 = d1 - source_rank
    eps_2 = d2 - r12           eps_star_2 = d2 - r24
    eps_3 = d3 - r13           eps_star_3 = d3 - r34
    eps_4 = d4 - sink_rank     eps_star_4 = d4

so one profile per point (five eliminations, and the product f24·f12 the
point keeps as f14) reads all eight.

Sample ``index`` reads one stream, ``SampleConfig.rng(index)``, which
depends on the seed and the index only.  Every component sampled under one
config reads the same streams, so a factor is fixed by its index, the
offset where its draws start and its shape.  A ``StreamMemo`` keeps what
the sampler derives from one config's streams alone; a caller that samples
many components under one config (the sampling suites) passes one in, and
a call without one builds its own and drops it, so sampling one component
at many indices keeps nothing.  Within a memo, per stream the sampler pays
one seeding and one ``rand_row`` call each time a sample reads past the
draws made so far; per new factor one elimination per draw (the reduced
one of Aᵀ, which also gives K, or the rank of B, R or C); per new pair A·B
one product and per new triple C·(R·K) two.  Per point it pays the two
products of its square, checked by the constructor, and the five
eliminations of its profile.  A point sampled without a shared memo pays
for its own stream, factors and products.
Every factor is int rows over GF(p), read through the field members that
``linalg`` lists: ``rand_row`` for the draws, ``eliminate`` for the ranks
and the echelon form, ``zero``, ``one`` and ``reduce`` for the kernel and
``dots`` for the products.
"""

from __future__ import annotations

import random

from . import linalg, modules22
from .g22 import Component
from .linalg import PrimeField
from .reps import Representation
from .values import Frozen

DEFAULT_PRIME = 32003


class SampleConfig(Frozen):
    """The prime, the sample count and the seed of a sampling run."""

    __slots__ = ("prime", "count", "seed", "_field")

    def __init__(self, prime: int = DEFAULT_PRIME, count: int = 50, seed: int = 0):
        setattr_ = object.__setattr__
        setattr_(self, "prime", prime)
        setattr_(self, "count", count)
        setattr_(self, "seed", seed)
        if self.prime < 101:
            raise ValueError("prime must be a prime >= 101")
        if self.count < 1:
            raise ValueError("sample count must be positive")
        # Built once: PrimeField rejects a composite by trial division.
        setattr_(self, "_field", PrimeField(self.prime))

    def field(self) -> PrimeField:
        return self._field

    def rng(self, index: int) -> random.Random:
        # Split the base seed into an independent stream per sample.
        return random.Random(f"{self.seed}/{index}")


class StreamMemo:
    """What the sampler derives from one config's streams alone.

    ``streams`` maps a sample index to its draws so far and the stream that
    extends them, ``factors`` maps a factor's key to the factor, and
    ``products`` maps the keys of two or three factors to their product.
    A stream's draws only grow, and each factor and product is built once
    and never changed; a memo lives as long as its owner keeps it and
    shares nothing with another memo.
    """

    __slots__ = ("cfg", "streams", "factors", "products")

    def __init__(self, cfg: SampleConfig):
        self.cfg = cfg
        self.streams, self.factors, self.products = {}, {}, {}

    def draws(self, index: int, stop: int) -> list:
        """At least the first ``stop`` draws of sample index's stream: the
        values of its successive ``randrange(p)`` calls, extended by one
        ``rand_row`` call when ``stop`` passes the end of those drawn so far."""
        stream = self.streams.get(index)
        if stream is None:
            stream = self.streams[index] = ([], self.cfg.rng(index))
        draws, rng = stream
        if len(draws) < stop:
            draws += self.cfg.field().rand_row(rng, stop - len(draws))
        return draws

    def factor(self, index: int, start: int, nrows: int, ncols: int, kernel: bool) -> tuple:
        """(key, rows, K, end) for the first nrows x ncols block of sample
        index's draws, from offset ``start`` on and read in row-major order,
        whose rank is min(nrows, ncols): a uniform full-rank matrix by
        rejection.  ``end`` is the offset after it and ``key`` its memo key,
        which also keys its products.  With ``kernel`` one reduced
        elimination of the block's transpose both tests the rank and gives
        K, a basis of its left kernel read off by ``linalg.nullspace``;
        otherwise K is None.  Rows are tuples of row tuples."""
        key = (index, start, nrows, ncols, kernel)
        found = self.factors.get(key)
        if found is None:
            field, size, full, end = self.cfg.field(), nrows * ncols, min(nrows, ncols), start
            while True:
                draws = self.draws(index, end + size)
                rows = tuple(tuple(draws[end + k * ncols:end + (k + 1) * ncols])
                             for k in range(nrows))
                end += size
                if kernel:
                    echelon, pivots = linalg.rref(field, zip(*rows), nrows)
                    if len(pivots) == full:
                        basis = tuple(map(tuple, linalg.nullspace(field, echelon, pivots,
                                                                  nrows)))
                        break
                elif linalg.rank(field, rows, ncols) == full:
                    basis = None
                    break
            found = self.factors[key] = key, rows, basis, end
        return found


def sample_component_point(c: Component, cfg: SampleConfig, index: int = 0,
                           memo: StreamMemo | None = None) -> Representation:
    """A point of the component; its rank pair is (r1, r2) by construction.

    With mid = d2 + d3, the outward map (f12 over f13) is A·B and the inward
    map (f24 beside -f34) is C·(R·K): A (mid x r1), B (r1 x d1), R (r2 x
    (mid - r1)) and C (d4 x r2) are independent uniform full-rank matrices,
    and K is a basis of the left kernel of A, so the composite is zero.
    This is the law of g2·α1·g1⁻¹ and g3·α2·g2⁻¹ for the block normal forms
    α1, α2 and independent uniform invertible g1, g2, g3: the first r1
    columns of g2 are uniform full rank, and given them, rows r1.. of g2⁻¹
    are a uniform basis of their left annihilator.

    A, B, R and C are drawn in that order from sample index's stream, each
    where the one before it ends.  The factors and the two products come
    from ``memo``, a ``StreamMemo`` built for cfg itself, which computes
    each once per key; without one the call builds its own.
    """
    if memo is None:
        memo = StreamMemo(cfg)
    elif memo.cfg is not cfg:
        raise ValueError("a StreamMemo samples only under the config it was built for")
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    mid = d2 + d3
    field, factor, products = cfg.field(), memo.factor, memo.products
    a_key, a, kernel, end = factor(index, 0, mid, r1, True)
    b_key, b, _, end = factor(index, end, r1, d1, False)
    r_key, r, _, end = factor(index, end, r2, mid - r1, False)
    c_key, cm, _, _ = factor(index, end, d4, r2, False)
    out_key, in_key = (a_key, b_key), (a_key, r_key, c_key)
    if out_key not in products:
        products[out_key] = _outward(field, a, b, d1)
    if in_key not in products:
        products[in_key] = _inward(field, r, kernel, cm, mid)
    return _point(field, c.dims, products[out_key], products[in_key])


def _outward(field, a, b, d1) -> tuple:
    """A·B, the outward map f12 over f13, as a tuple of row tuples."""
    return tuple(map(tuple, linalg.mul(field, a, b, d1)))


def _inward(field, r, k, cm, mid) -> tuple:
    """C·(R·K), the inward map f24 beside -f34, as a tuple of row tuples; K
    spans the left kernel of A, so the composite with A·B is zero."""
    mul = linalg.mul
    return tuple(map(tuple, mul(field, cm, mul(field, r, k, mid), mid)))


def _point(field, dims, out_rows, in_rows) -> Representation:
    """The point whose outward map (f12 over f13) is out_rows and whose
    inward map (f24 beside -f34) is in_rows, both int rows over GF(p)."""
    d2 = dims[1]
    p = field.p
    return Representation(
        field, dims, out_rows[:d2], out_rows[d2:], [row[:d2] for row in in_rows],
        [[-x % p for x in row[d2:]] for row in in_rows])


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


def sampled_minima(c: Component, cfg: SampleConfig, floors: dict,
                   memo: StreamMemo | None = None):
    """Minima of the corner statistics over independent samples of a component.

    ``floors`` maps each (kind, corner) key, kind "eps" or "eps_star" and
    corner 1..4, to the value that settles it; sampling stops once every
    minimum is at its floor, or after cfg.count samples.  Each point's rank
    pair is asserted to be the component's.  ``memo`` is handed to every
    ``sample_component_point`` call; without one each point builds its own,
    so memory stays constant in cfg.count.  Returns (minima, samples drawn).
    """
    for key in floors:
        if key not in _STACKED_RANK:
            raise ValueError(f"no corner statistic {key!r}")
    minima = {}
    for index in range(cfg.count):
        profile = modules22.rank_profile(sample_component_point(c, cfg, index, memo))
        if (profile.source_rank, profile.sink_rank) != c.ranks:
            raise AssertionError("sampled point lost its rank pair")
        for key in floors:
            value = _corner_statistic(profile, key)
            if key not in minima or value < minima[key]:
                minima[key] = value
        if minima == floors:
            break
    return minima, index + 1
