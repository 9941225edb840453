"""Polyhedral model of the free crystal on finitely supported sequences.

Elements are finitely supported sequences of naturals over a periodic
color pattern (Nakashima and Zelevinsky, Adv. Math. 131, 1997).  The
running statistic sigma_k weights the tail of the sequence by Cartan
pairings; lowering increments the earliest position of the given color
achieving the maximal sigma, raising decrements the latest one when the
maximum is positive.  Lowering words from the zero sequence stay inside
the strictly embedded highest-weight crystal, so equality of their
endpoints decides equality of the corresponding elements there; that
single judgment is this module's purpose.

A ``ZSequence`` is its support, the (position, value) pairs of its nonzero
entries.  Past the support every sigma_k is 0, so the support alone
decides every statistic and step: the model is exact and stores no length.

One walk, ``extremes``, gives epsilon_i and the positions that raising and
lowering at color i move in O(support + period) steps, with the Cartan
pairings along the pattern tabled once per pattern; ``local`` makes it
once and reads epsilon_i, e_i x and f_i x from it, so ``fragment`` walks
once per (element, color).  phi_i is not computed here: the crystal
checkers derive it as epsilon_i + <h_i, wt(x)>.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from operator import itemgetter

from . import cartan
from .cartan import CartanMatrix, CrystalFragment
from .g22 import CARTAN as G22_CARTAN
from .values import Frozen

DEFAULT_PATTERN = (1, 2, 3, 4)
DEFAULT_LENGTH = 40


class IotaPattern(Frozen):
    """Periodic color word.

    ``length`` must be at least two periods, but it is inert: it takes no
    part in equality or hashing, and it changes no element, statistic or
    step, because the model stores only supports.  The hash is computed
    once, since every ``ZSequence`` hash takes it.
    """

    __slots__ = ("colors", "length", "_offsets", "_hash")

    def __init__(self, colors: tuple, length: int):
        setattr_ = object.__setattr__
        setattr_(self, "colors", colors)
        setattr_(self, "length", length)
        if not isinstance(self.colors, tuple):
            raise ValueError(f"color pattern must be a tuple, got a {type(self.colors).__name__}")
        if not self.colors:
            raise ValueError("empty color pattern")
        if len(self.colors) > 1 and any(
                a == b for a, b in zip(self.colors, self.colors[1:] + self.colors[:1])):
            raise ValueError("pattern must not repeat a color consecutively")
        if self.length < 2 * len(self.colors):
            raise ValueError("length shorter than two periods")
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
        setattr_(self, "_offsets", offsets)
        setattr_(self, "_hash", hash(colors))

    def __eq__(self, other):
        return self.colors == other.colors if type(other) is IotaPattern else NotImplemented

    def __hash__(self):
        return self._hash

    def offsets(self, i):
        """(ahead, behind) slot offsets of color i; ValueError if the pattern lacks it."""
        try:
            return self._offsets[i]
        except KeyError:
            raise ValueError(f"color {i!r} is not carried by the pattern {self.colors}") from None


class ZSequence(tuple):
    """A finitely supported sequence of naturals, stored as the tuple
    (pattern, support).  support holds the (position, value) pairs of the
    nonzero entries, positions from 1 in increasing order.  It hashes,
    compares and orders as that tuple.
    """

    __slots__ = ()

    def __new__(cls, pattern: IotaPattern, support: tuple):
        if not isinstance(support, tuple):
            raise ValueError(f"support must be a tuple, got a {type(support).__name__}")
        last = 0
        for pair in support:
            if not (isinstance(pair, tuple) and len(pair) == 2 and pair[0] > last and pair[1] > 0):
                raise ValueError(f"support pair {pair!r} is not a (position, value) tuple with "
                                 f"the position past {last} and the value positive")
            last = pair[0]
        return tuple.__new__(cls, (pattern, support))

    pattern = property(itemgetter(0))
    support = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    def entries(self) -> tuple:
        """The entries at positions 1 up to the last support point."""
        support = self[1]
        values = [0] * (support[-1][0] if support else 0)
        for k, v in support:
            values[k - 1] = v
        return tuple(values)


def zero_sequence(pattern: IotaPattern = None) -> ZSequence:
    return ZSequence(pattern or IotaPattern(DEFAULT_PATTERN, DEFAULT_LENGTH), ())


def extremes(cartan: CartanMatrix, x: ZSequence, i):
    """(top, first, last): the largest sigma_k over positions k of color i
    and the smallest and largest k reaching it.  epsilon_i is top; lowering
    moves entry first and raising entry last.

    One right-to-left walk over the support keeps the running tail, the sum
    of a_{i, color(j)} * x_j over the positions j passed so far.  A support
    point k of color i has sigma_k = x_k + tail; every zero position in the
    run below the previous support point has sigma = tail, so the run counts
    once, at its first and last position of color i.  The run above the
    support has sigma 0 and no end: it counts at its first position of color
    i, and its last is never read, since raising needs top > 0.
    """
    pattern, support = x
    pos = cartan.position(i)
    ahead, behind = pattern.offsets(i)
    colors = pattern.colors
    n = len(colors)
    coeff = cartan.pattern_rows(colors)[1][pos]
    hi = support[-1][0] if support else 0   # the top of the zero run below the last point passed
    top, first, last = 0, hi + 1 + ahead[hi % n], 0     # the run above the support
    tail = 0
    for k, xk in chain(reversed(support), ((0, 0),)):
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
        if colors[slot] == i:
            s = xk + tail
            if s > top:
                top, first, last = s, k, k
            elif s == top:
                first = k
        tail += coeff[slot] * xk
        hi = k - 1
    return top, first, last


def weight(cartan: CartanMatrix, x: ZSequence):
    pattern, support = x
    positions = cartan.pattern_rows(pattern.colors)[0]
    n = len(positions)
    coeffs = [0] * len(cartan.index_set)
    for k, v in support:
        coeffs[positions[(k - 1) % n]] -= v
    return tuple(coeffs)


def apply_op(cartan: CartanMatrix, x: ZSequence, kind: str, i):
    """Raising ("e") or lowering ("f") at color i; None encodes vanishing.

    Ties in the maximal sigma are broken toward the smallest position for
    lowering and the largest for raising.
    """
    return _step(x, extremes(cartan, x, i), kind)


def local(cartan: CartanMatrix, x: ZSequence, i):
    """(epsilon_i(x), e_i x, f_i x) from one walk ``extremes``."""
    walk = extremes(cartan, x, i)
    return walk[0], _step(x, walk, "e"), _step(x, walk, "f")


def _step(x: ZSequence, walk, kind: str):
    top, first, last = walk
    if kind == "f":
        return _bump(x, first, +1)
    if kind == "e":
        return _bump(x, last, -1) if top > 0 else None
    raise ValueError(f"operator kind {kind!r} must be 'e' or 'f'")


def _bump(x: ZSequence, k: int, delta: int):
    """x with entry k moved by delta = +1 or -1, for operator results only.

    One bisect finds the support pair of position k, which is then inserted,
    changed or removed, so the result passes the constructor's checks by
    construction.  Raising a zero entry, which only a sequence outside the
    image of B(infinity) asks for, is a ValueError.
    """
    pattern, support = x
    j = bisect_left(support, (k,))
    if j < len(support) and support[j][0] == k:
        v = support[j][1] + delta
        support = support[:j] + (((k, v),) if v else ()) + support[j + 1:]
    elif delta < 0:
        raise ValueError(f"raising picks the zero entry at position {k}: "
                         "the sequence lies outside the image of B(infinity)")
    else:
        support = support[:j] + ((k, 1),) + support[j:]
    return tuple.__new__(ZSequence, (pattern, support))


def words_distinct(word_a, word_b, pattern: IotaPattern = None):
    """Compare two lowering words out of the zero sequence.

    Returns (distinct, endpoint_a, endpoint_b).  Both words must consist of
    lowering steps only; anything else leaves the embedded image and the
    comparison would be meaningless.
    """
    for word in (word_a, word_b):
        if any(kind != "f" for kind, _ in word):
            raise ValueError("only lowering words can be compared")
    x0 = zero_sequence(pattern)
    for color in x0.pattern.colors:
        if color not in G22_CARTAN.index_set:
            raise ValueError(f"pattern color {color!r} is not a vertex of the Cartan matrix")
    xa, xb = (cartan.apply_word({"f": _lower}, word, x0)[0] for word in (word_a, word_b))
    return xa != xb, xa, xb


def _lower(x: ZSequence, i):
    """f_i x over the 2x2 grid's Cartan matrix, with apply_op looked up at call time."""
    return apply_op(G22_CARTAN, x, "f", i)


def fragment(depth: int, pattern: IotaPattern = None) -> CrystalFragment:
    """The sequences reachable from zero by lowering words of length at most
    depth, which is their sum, with one support walk per (element, color)
    through ``local``."""
    x0 = zero_sequence(pattern)
    for i in G22_CARTAN.index_set:
        x0.pattern.offsets(i)   # a color the pattern lacks fails here, before any step
    return CrystalFragment(
        cartan=G22_CARTAN,
        elements=tuple(cartan.lowering_closure(x0, 0, _lower, G22_CARTAN.index_set, depth)),
        wt=lambda x: weight(G22_CARTAN, x),
        local=lambda x, i: local(G22_CARTAN, x, i),
    )
