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

A sampled point and its profile cost nine eliminations (the reduced one
of Aᵀ, three full-rank tests and the profile's five) and five products
(A·B, R·K, C·(R·K) and the two sides of the point's square).  Every
factor is int rows over GF(p), read through the field members that
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

    The factors are drawn as int rows (``linalg.random_rows`` and
    ``linalg.random_full_rank``).  One reduced elimination of Aᵀ serves
    both A's rejection test and K: A has rank r1 exactly when Aᵀ has r1
    pivots, and K is ``linalg.nullspace`` read off that echelon form.
    """
    field = cfg.field()
    rng = cfg.rng(index)
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    mid = d2 + d3
    while True:
        a = linalg.random_rows(field, mid, r1, rng)
        echelon, pivots = linalg.rref(field, zip(*a), mid)
        if len(pivots) == r1:
            break
    kernel = linalg.nullspace(field, echelon, pivots, mid)
    full_rank = linalg.random_full_rank
    b = full_rank(field, r1, d1, rng)
    r = full_rank(field, r2, mid - r1, rng)
    cm = full_rank(field, d4, r2, rng)
    return _factor_point(field, c.dims, a, b, r, kernel, cm)


def _factor_point(field, dims, a, b, r, k, cm) -> Representation:
    """The point whose outward map (f12 over f13) is A·B and whose inward map
    (f24 beside -f34) is C·(R·K); K spans the left kernel of A.  The factors
    are int rows over GF(p)."""
    d1, d2, d3, d4 = dims
    mid = d2 + d3
    mul = linalg.mul
    out_rows = mul(field, a, b, d1)
    in_rows = mul(field, cm, mul(field, r, k, mid), mid)
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
