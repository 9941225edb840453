"""Truncated polyhedral model of the free crystal on integer sequences.

Elements are finitely supported sequences of naturals over a periodic
color pattern.  The running statistic sigma_k weights the tail of the
sequence by Cartan pairings; lowering increments the earliest position
of the given color achieving the maximal sigma, raising decrements the
latest one when the maximum is positive.  Lowering words from the zero
sequence stay inside the strictly embedded highest-weight crystal, so
equality of their endpoints decides equality of the corresponding
elements there; that single judgment is this module's purpose.

Every statistic reads only the support of the sequence, which each
``ZSequence`` computes once: between two support points the tail is
constant, so a run of zeros is one candidate for the maximal sigma, and
the pattern's per-color slot offsets locate its first and last position
of the color.  The Cartan pairings along the pattern are tabled once per
pattern (``CartanMatrix.pattern_rows``), so a statistic costs
O(support + period), not O(L), with no per-call set-up.  phi_i is not
computed here: the crystal checkers derive it as epsilon_i + <h_i, wt(x)>.

One walk, ``extremes``, gives epsilon_i and the positions that raising and
lowering at color i move.  Inside a fragment it runs once per (element,
color): the maps of ``fragment`` keep the latest walk in one slot keyed by
the element's identity, which catches the axiom checker's back-to-back
epsilon, e and f calls without hashing the L entries, and hand it to
``apply_op``.

An operator result is built by the private factory ``_bump`` without the
public constructor's pass over the L entries: one entry moves by one, the
values are sliced around it, and the stored support gains or loses that
position after one bisect, so no rescan of the sequence takes place.  The
constructor's checks hold there by construction (length L, entries
nonnegative, nothing in the guard band); the public ``ZSequence(...)``
stays the boundary for outside data: it rejects a list field, which
would fail later when hashed, and an entry in the guard band, where the
truncation would make the statistics depend on L.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress

from .cartan import NEG_INFINITY, CartanMatrix, CrystalFragment, TruncationError
from .g22 import CARTAN as G22_CARTAN

DEFAULT_PATTERN = (1, 2, 3, 4)
DEFAULT_LENGTH = 40


@dataclass(frozen=True)
class IotaPattern:
    """Periodic color word with a truncation length and a one-period guard band."""

    colors: tuple
    length: int

    def __post_init__(self):
        if not isinstance(self.colors, tuple):
            raise ValueError(f"color pattern must be a tuple, got a {type(self.colors).__name__}")
        if not self.colors:
            raise ValueError("empty color pattern")
        if len(self.colors) > 1 and any(
                a == b for a, b in zip(self.colors, self.colors[1:] + self.colors[:1])):
            raise ValueError("pattern must not repeat a color consecutively")
        if self.length < 2 * len(self.colors):
            raise ValueError("truncation shorter than two periods")
        # Built once per color: from slot r, the distance forward (ahead) and
        # backward (behind) to the nearest slot of that color, wrapping around.
        n = len(self.colors)
        offsets = {}
        for c in set(self.colors):
            ahead = tuple(next(d for d in range(n) if self.colors[(r + d) % n] == c)
                          for r in range(n))
            behind = tuple(next(d for d in range(n) if self.colors[(r - d) % n] == c)
                           for r in range(n))
            offsets[c] = (ahead, behind)
        object.__setattr__(self, "_offsets", offsets)

    def color_at(self, k: int):
        return self.colors[(k - 1) % len(self.colors)]

    def offsets(self, i):
        """(ahead, behind) slot offsets of color i; ValueError if the pattern lacks it."""
        try:
            return self._offsets[i]
        except KeyError:
            raise ValueError(f"color {i!r} is not carried by the pattern {self.colors}") from None

    @property
    def guard_start(self) -> int:
        return self.length - len(self.colors) + 1


@dataclass(frozen=True)
class ZSequence:
    pattern: IotaPattern
    values: tuple

    def __post_init__(self):
        if not isinstance(self.values, tuple):
            raise ValueError(f"values must be a tuple, got a {type(self.values).__name__}")
        if len(self.values) != self.pattern.length:
            raise ValueError("value vector does not match the truncation length")
        if min(self.values) < 0:
            raise ValueError("negative entries are not allowed")
        # The positions 1..L of the nonzero entries, in increasing order.
        support = tuple(compress(range(1, len(self.values) + 1), self.values))
        guard = self.pattern.guard_start
        if support and support[-1] >= guard:
            k = support[bisect_left(support, guard)]
            raise ValueError(f"nonzero entry at position {k} inside the guard band "
                             f"(positions {guard}..{self.pattern.length})")
        object.__setattr__(self, "support", support)

    def support_end(self) -> int:
        return self.support[-1] if self.support else 0


def zero_sequence(pattern: IotaPattern = None) -> ZSequence:
    pattern = pattern or IotaPattern(DEFAULT_PATTERN, DEFAULT_LENGTH)
    return ZSequence(pattern, (0,) * pattern.length)


def extremes(cartan: CartanMatrix, x: ZSequence, i):
    """(top, first, last): the largest sigma_k over positions k of color i
    and the smallest and largest k reaching it.  epsilon_i is top; lowering
    moves entry first and raising entry last.

    One right-to-left walk over the support keeps the running tail, the sum
    of a_{i, color(j)} * x_j over the positions j passed so far.  A support
    point k of color i has sigma_k = x_k + tail; every zero position in the
    run below the previous support point has sigma = tail, so the run counts
    once, at its first and last position of color i.
    """
    pattern = x.pattern
    pos = cartan.position(i)
    ahead, behind = pattern.offsets(i)
    colors = pattern.colors
    n = len(colors)
    coeff = cartan.pattern_rows(colors)[1][pos]
    values = x.values
    top, first, last = NEG_INFINITY, 0, 0
    tail = 0
    hi = pattern.length     # the top of the zero run below the last point passed
    for k in chain(reversed(x.support), (0,)):
        if k < hi:
            f = k + 1 + ahead[k % n]
            if f <= hi:
                if tail > top:
                    top, first, last = tail, f, hi - behind[(hi - 1) % n]
                elif tail == top:
                    first = f
        if not k:
            break
        slot = (k - 1) % n
        xk = values[k - 1]
        if colors[slot] == i:
            s = xk + tail
            if s > top:
                top, first, last = s, k, k
            elif s == top:
                first = k
        tail += coeff[slot] * xk
        hi = k - 1
    return top, first, last


def epsilon(cartan: CartanMatrix, x: ZSequence, i) -> int:
    return extremes(cartan, x, i)[0]


def weight(cartan: CartanMatrix, x: ZSequence):
    positions = cartan.pattern_rows(x.pattern.colors)[0]
    n = len(positions)
    values = x.values
    coeffs = [0] * len(cartan.index_set)
    for k in x.support:
        coeffs[positions[(k - 1) % n]] -= values[k - 1]
    return tuple(coeffs)


def apply_op(cartan: CartanMatrix, x: ZSequence, kind: str, i, walk=None):
    """Raising ("e") or lowering ("f") at color i; None encodes vanishing.

    Ties in the maximal sigma are broken toward the smallest position for
    lowering and the largest for raising.  ``walk``, when given, must be
    ``extremes(cartan, x, i)``: a caller that has made that walk already
    (the maps of ``fragment``) passes it instead of walking again.
    """
    top, first, last = extremes(cartan, x, i) if walk is None else walk
    if kind == "f":
        k = first
        if k >= x.pattern.guard_start:
            raise TruncationError(
                f"lowering reaches position {k} inside the guard band; enlarge the truncation")
        return _bump(x, k, +1)
    if kind == "e":
        if top <= 0:
            return None
        k = last
        if not x.values[k - 1]:
            raise ValueError(
                f"raising at color {i} picks the zero entry at position {k}: "
                "the sequence lies outside the image of B(infinity)")
        return _bump(x, k, -1)
    raise ValueError(f"operator kind {kind!r} must be 'e' or 'f'")


def _bump(x: ZSequence, k: int, delta: int) -> ZSequence:
    """x with entry k moved by delta = +1 or -1, for operator results only.

    apply_op has kept k below the guard band when lowering and checked that
    entry k is nonzero when raising, so the result passes the constructor's
    checks by construction; only the support changes, at position k.
    """
    values = x.values
    old = values[k - 1]
    support = x.support
    if not old:
        j = bisect_left(support, k)
        support = support[:j] + (k,) + support[j:]
    elif old + delta == 0:
        j = bisect_left(support, k)
        support = support[:j] + support[j + 1:]
    y = object.__new__(ZSequence)
    object.__setattr__(y, "pattern", x.pattern)
    object.__setattr__(y, "values", values[:k - 1] + (old + delta,) + values[k:])
    object.__setattr__(y, "support", support)
    return y


def apply_word(cartan: CartanMatrix, x: ZSequence, word):
    """Apply an operator word right-to-left; None is absorbing."""
    current = x
    for kind, color in reversed(word):
        if current is None:
            return None
        current = apply_op(cartan, current, kind, color)
    return current


def words_distinct(word_a, word_b, pattern: IotaPattern = None):
    """Compare two lowering words out of the zero sequence.

    Returns (distinct, endpoint_a, endpoint_b).  Both words must consist of
    lowering steps only; anything else leaves the embedded image and the
    comparison would be meaningless.
    """
    cartan = G22_CARTAN
    for word in (word_a, word_b):
        if any(kind != "f" for kind, _ in word):
            raise ValueError("only lowering words can be compared")
    x0 = zero_sequence(pattern)
    for color in x0.pattern.colors:
        if color not in cartan.index_set:
            raise ValueError(f"pattern color {color!r} is not a vertex of the Cartan matrix")
    xa = apply_word(cartan, x0, word_a)
    xb = apply_word(cartan, x0, word_b)
    return xa.values != xb.values, xa, xb


def reachable_elements(cartan: CartanMatrix, depth: int, pattern: IotaPattern = None):
    """All sequences reachable from zero by lowering words of bounded length."""
    x0 = zero_sequence(pattern)
    for i in cartan.index_set:
        x0.pattern.offsets(i)   # a color the pattern lacks fails here, before any step
    frontier = {x0}
    seen = set(frontier)
    for _ in range(depth):
        new = set()
        for x in frontier:
            for i in cartan.index_set:
                y = apply_op(cartan, x, "f", i)
                if y not in seen:
                    new.add(y)
        seen |= new
        frontier = new
    return tuple(sorted(seen, key=lambda s: (sum(s.values), s.values)))


def fragment(depth: int, pattern: IotaPattern = None) -> CrystalFragment:
    """The sequences reachable by lowering words of length at most depth,
    with maps that make one support walk per (element, color).

    The axiom checker calls epsilon, apply_e and apply_f of one element and
    color back to back, and all three read the same walk ``extremes``.  The
    maps keep the latest walk in one slot, keyed by the identity of the
    element and by the color.  Identity, because equality or a hash would
    read all L entries of a ``ZSequence`` in Python; the slot holds the
    element itself, so its id cannot pass to another object meanwhile.  One
    slot catches the repeats of the checker's call order, never grows, and
    lives no longer than the fragment.
    """
    cartan = G22_CARTAN
    slot = [None, None, None]   # element, color and the walk made for them

    def walk(x, i):
        if slot[0] is not x or slot[1] != i:
            slot[:] = x, i, extremes(cartan, x, i)
        return slot[2]

    return CrystalFragment(
        cartan=cartan,
        elements=reachable_elements(cartan, depth, pattern),
        wt=lambda x: weight(cartan, x),
        epsilon=lambda x, i: walk(x, i)[0],
        apply_e=lambda x, i: apply_op(cartan, x, "e", i, walk(x, i)),
        apply_f=lambda x, i: apply_op(cartan, x, "f", i, walk(x, i)),
    )
