"""Truncated polyhedral model of the free crystal on integer sequences.

Elements are finitely supported sequences of naturals over a periodic
color pattern.  The running statistic sigma_k weights the tail of the
sequence by Cartan pairings; lowering increments the earliest position
of the given color achieving the maximal sigma, raising decrements the
latest one when the maximum is positive.  Lowering words from the zero
sequence stay inside the strictly embedded highest-weight crystal, so
equality of their endpoints decides equality of the corresponding
elements there; that single judgment is this module's purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cartan import CartanMatrix, CrystalFragment, TruncationError, pairing
from .g22 import CARTAN as G22_CARTAN

DEFAULT_PATTERN = (1, 2, 3, 4)
DEFAULT_LENGTH = 40


@dataclass(frozen=True)
class IotaPattern:
    """Periodic color word with a truncation length and a one-period guard band."""

    colors: tuple
    length: int

    def __post_init__(self):
        if not self.colors:
            raise ValueError("empty color pattern")
        if len(self.colors) > 1 and any(
                a == b for a, b in zip(self.colors, self.colors[1:] + self.colors[:1])):
            raise ValueError("pattern must not repeat a color consecutively")
        if self.length < 2 * len(self.colors):
            raise ValueError("truncation shorter than two periods")

    def color_at(self, k: int):
        return self.colors[(k - 1) % len(self.colors)]

    @property
    def guard_start(self) -> int:
        return self.length - len(self.colors) + 1


@dataclass(frozen=True)
class ZSequence:
    pattern: IotaPattern
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.pattern.length:
            raise ValueError("value vector does not match the truncation length")
        if any(x < 0 for x in self.values):
            raise ValueError("negative entries are not allowed")

    def support_end(self) -> int:
        for k in range(self.pattern.length, 0, -1):
            if self.values[k - 1]:
                return k
        return 0


def zero_sequence(pattern: IotaPattern = None) -> ZSequence:
    pattern = pattern or IotaPattern(DEFAULT_PATTERN, DEFAULT_LENGTH)
    return ZSequence(pattern, (0,) * pattern.length)


def _sigmas(cartan: CartanMatrix, x: ZSequence, i) -> list:
    """(k, sigma_k) for every position k of color i, largest k first.

    One right-to-left pass: sigma_k is x_k plus the running tail, the sum of
    a_{i, color(j)} * x_j over the positions j above k, so each call costs
    O(L) however many positions carry color i.
    """
    colors = x.pattern.colors
    row = cartan.entries[cartan.position(i)]
    coeff = [row[cartan.position(c)] for c in colors]
    n = len(colors)
    out = []
    tail = 0
    k = len(x.values)
    slot = (k - 1) % n
    for xk in reversed(x.values):
        if colors[slot] == i:
            out.append((k, xk + tail))
        if xk:
            tail += coeff[slot] * xk
        k -= 1
        slot = (slot or n) - 1
    return out


def sigma(cartan: CartanMatrix, x: ZSequence, k: int) -> int:
    """x_k plus the pairing-weighted tail above position k."""
    return dict(_sigmas(cartan, x, x.pattern.color_at(k)))[k]


def epsilon(cartan: CartanMatrix, x: ZSequence, i) -> int:
    return max(s for _, s in _sigmas(cartan, x, i))


def weight(cartan: CartanMatrix, x: ZSequence):
    coeffs = [0] * len(cartan.index_set)
    colors = x.pattern.colors
    for slot, c in enumerate(colors):
        coeffs[cartan.position(c)] -= sum(x.values[slot::len(colors)])
    return tuple(coeffs)


def phi(cartan: CartanMatrix, x: ZSequence, i) -> int:
    return epsilon(cartan, x, i) + pairing(cartan, i, weight(cartan, x))


def apply_op(cartan: CartanMatrix, x: ZSequence, kind: str, i, tie: str = "min"):
    """Raising ("e") or lowering ("f") at color i; None encodes vanishing.

    Ties in the maximal sigma are broken toward the smallest position for
    lowering and the largest for raising; the opposite convention is
    exposed only so tests can show it fails the crystal probes.
    """
    sigmas = _sigmas(cartan, x, i)
    top = max(s for _, s in sigmas)
    argmax = [k for k, s in sigmas if s == top]
    if kind == "f":
        k = min(argmax) if tie == "min" else max(argmax)
        if k >= x.pattern.guard_start:
            raise TruncationError(
                f"lowering reaches position {k} inside the guard band; enlarge the truncation")
        return _bump(x, k, +1)
    if kind == "e":
        if top <= 0:
            return None
        k = max(argmax) if tie == "min" else min(argmax)
        return _bump(x, k, -1)
    raise ValueError(f"operator kind {kind!r} must be 'e' or 'f'")


def _bump(x: ZSequence, k: int, delta: int) -> ZSequence:
    vals = list(x.values)
    vals[k - 1] += delta
    return ZSequence(x.pattern, tuple(vals))


def apply_word(cartan: CartanMatrix, x: ZSequence, word, tie: str = "min"):
    """Apply an operator word right-to-left; None is absorbing."""
    current = x
    for kind, color in reversed(word):
        if current is None:
            return None
        current = apply_op(cartan, current, kind, color, tie=tie)
    return current


def support_dict(x: ZSequence) -> dict:
    return {k: v for k, v in enumerate(x.values, start=1) if v}


def words_distinct(word_a, word_b, cartan: CartanMatrix = None,
                   pattern: IotaPattern = None):
    """Compare two lowering words out of the zero sequence.

    Returns (distinct, endpoint_a, endpoint_b).  Both words must consist of
    lowering steps only; anything else leaves the embedded image and the
    comparison would be meaningless.
    """
    cartan = cartan or G22_CARTAN
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
    frontier = {zero_sequence(pattern)}
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


def fragment(depth: int, cartan: CartanMatrix = None, pattern: IotaPattern = None) -> CrystalFragment:
    cartan = cartan or G22_CARTAN
    return CrystalFragment(
        cartan=cartan,
        elements=reachable_elements(cartan, depth, pattern),
        wt=lambda x: weight(cartan, x),
        epsilon=lambda x, i: epsilon(cartan, x, i),
        phi=lambda x, i: phi(cartan, x, i),
        apply_e=lambda x, i: apply_op(cartan, x, "e", i),
        apply_f=lambda x, i: apply_op(cartan, x, "f", i),
    )
