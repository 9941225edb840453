"""Cartan data and the abstract crystal contract.

A crystal here is a set with a weight map into the root lattice, integer
statistics epsilon_i, and partial raising / lowering operators, subject to
the usual five axioms.  phi_i is not a map of its own: the first axiom is
its definition, phi_i = epsilon_i + <h_i, wt>, and since the weight and
epsilon clauses imply the phi ones, no clause reads a pairing.  Checks run
on finite enumerated fragments, each of which gives its statistic and
operators at one color through one local map, b, i -> (epsilon_i(b), e_i b,
f_i b); an image that lies outside the fragment is checked too, through its
own triple.

Every model shares ``lowering_closure`` and ``apply_word``.  In each, a
lowering step adds one to the size (a component's total dimension, a
sequence's sum), so the closure never lowers an element at the bound.
"""

from __future__ import annotations

from operator import itemgetter

from .values import Frozen, Record


class CartanMatrix(Frozen):
    """Generalized Cartan matrix over an ordered index set."""

    __slots__ = ("index_set", "entries", "_position", "_pattern_rows")

    def __init__(self, index_set: tuple, entries: tuple):
        setattr_ = object.__setattr__
        setattr_(self, "index_set", index_set)
        setattr_(self, "entries", entries)
        n = len(self.index_set)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("entries must be square over the index set")
        for i in range(n):
            if self.entries[i][i] != 2:
                raise ValueError("diagonal entries must equal 2")
            for j in range(n):
                if i != j:
                    if self.entries[i][j] > 0:
                        raise ValueError("off-diagonal entries must be nonpositive")
                    if (self.entries[i][j] != 0) != (self.entries[j][i] != 0):
                        raise ValueError("zero pattern must be symmetric")
        # Built once: the axiom checker reads a position per element and color.
        setattr_(self, "_position", {v: k for k, v in enumerate(self.index_set)})
        # Filled once per color pattern by pattern_rows.
        setattr_(self, "_pattern_rows", {})

    def position(self, i) -> int:
        try:
            return self._position[i]
        except (KeyError, TypeError):
            raise KeyError(f"unknown vertex {i!r}") from None

    def pattern_rows(self, colors: tuple):
        """(positions, rows) along a periodic color pattern, built once per pattern.

        positions[s] is the index-set position of the color in slot s, and
        rows[p][s] = a_{i, colors[s]} for the vertex i at position p.  A color
        outside the index set raises the KeyError of ``position``.
        """
        tables = self._pattern_rows.get(colors)
        if tables is None:
            positions = tuple(self.position(c) for c in colors)
            rows = tuple(tuple(row[p] for p in positions) for row in self.entries)
            tables = self._pattern_rows[colors] = (positions, rows)
        return tables


def cartan_from_quiver(quiver, vertex_order=None, labels=None) -> CartanMatrix:
    """Symmetric Cartan matrix of a quiver: 2 on the diagonal, minus the
    number of arrows between two distinct vertices off it."""
    if any(s == t for (s, t) in quiver.arrows):
        raise ValueError("quiver has an edge loop; no Cartan matrix is defined")
    order = tuple(vertex_order) if vertex_order is not None else tuple(quiver.vertices)
    if sorted(order) != sorted(quiver.vertices):
        raise ValueError("vertex_order must enumerate the quiver vertices")
    n = len(order)
    counts = {}
    for (s, t) in quiver.arrows:
        counts[(s, t)] = counts.get((s, t), 0) + 1
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(2)
            else:
                u, v = order[i], order[j]
                row.append(-(counts.get((u, v), 0) + counts.get((v, u), 0)))
        entries.append(tuple(row))
    index_set = tuple(labels) if labels is not None else order
    return CartanMatrix(index_set, tuple(entries))


def lowering_closure(seed, size: int, down, colors, bound: int) -> list:
    """The elements seed reaches by lowering steps within the bound, sorted
    by (size, element).

    size is the seed's size, and down(x, i) is f_i x, or None when the step
    vanishes.  A step adds one to the size, so the closure lowers one level
    at a time and not the level at the bound, and level k holds the elements
    of size + k.  A seed above the bound is a ValueError.
    """
    if size > bound:
        raise ValueError(f"bound {bound} is below a seed of total dimension {size}")
    level = [seed]
    nodes = [seed]
    for _ in range(bound - size):
        level = sorted({y for x in level for i in colors if (y := down(x, i)) is not None})
        nodes += level
    return nodes


def apply_word(steps, word, x):
    """Apply a word of (kind, color) steps right to left, steps[kind](x, color)
    for each; returns (result, trace), the trace holding x and every state
    after it.  None is absorbing: the walk stops at the first step that
    vanishes, with None as the result and the trace's last state."""
    trace = [x]
    for kind, color in reversed(word):
        x = steps[kind](x, color)
        trace.append(x)
        if x is None:
            break
    return x, trace


NEG_INFINITY = float("-inf")


class CrystalFragment(Record):
    """A finite enumerated piece of a crystal together with its maps.

    The elements are distinct and hashable.  ``wt(b)`` is the weight and
    ``local(b, i)`` the triple (epsilon_i(b), e_i b, f_i b), None for an
    operator that vanishes.  Both are functions (the same arguments give the
    same value), total on the fragment and on the images of its operators;
    any exception they raise propagates out of the checker.
    """

    __slots__ = ()

    def __new__(cls, cartan: CartanMatrix, elements: tuple, wt, local):
        return tuple.__new__(cls, (cartan, elements, wt, local))

    @property
    def colors(self):
        return self.cartan.index_set


class CheckReport(Record):
    __slots__ = ()

    def __new__(cls, violations: tuple):
        return tuple.__new__(cls, (violations,))

    @property
    def ok(self) -> bool:
        return not self.violations


def _alpha_step(coeffs, pos, sign):
    return coeffs[:pos] + (coeffs[pos] + sign,) + coeffs[pos + 1:]


# Row entries that are not positions: the operator vanished, or its image
# lies outside the fragment (kept in the color's dict of such images).
_NONE, _OUTSIDE = -1, -2


def crystal_rows(frag: CrystalFragment):
    """Yield (p, i, (eps, up, down, up_away, down_away)) per color, refilled
    in place so that one color's rows are held at a time, from one local
    call per element: eps[n] is epsilon_i of elements[n], up[n] and down[n]
    the positions of e_i and f_i of it (or a sentinel), and up_away[n] or
    down_away[n] that image when it lies outside the fragment."""
    elements = frag.elements
    if not elements:
        raise ValueError("fragment has no elements")
    index = {b: n for n, b in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("fragment elements must be distinct")
    local = frag.local
    rows = eps_row, up_row, down_row, up_away, down_away = [], [], [], {}, {}
    for p, i in enumerate(frag.colors):
        for part in rows:
            part.clear()
        for n, b in enumerate(elements):
            eps, up, down = local(b, i)
            eps_row.append(eps)
            m = _NONE if up is None else index.get(up, _OUTSIDE)
            if m == _OUTSIDE:
                up_away[n] = up
            up_row.append(m)
            m = _NONE if down is None else index.get(down, _OUTSIDE)
            if m == _OUTSIDE:
                down_away[n] = down
            down_row.append(m)
        yield p, i, rows


# Per direction: the sign of alpha_i, the inverse's slot in a local triple,
# the first clause slot, the axiom of the weight and epsilon clauses, and
# the three messages.
_DIRECTIONS = (
    (+1, 2, 0, 2, "weight of raised element is not wt+alpha_i", "- 1 after raising",
     "lowering does not invert raising"),
    (-1, 1, 3, 3, "weight of lowered element is not wt-alpha_i", "+ 1 after lowering",
     "raising does not invert lowering"),
)


def check_color(frag: CrystalFragment, weights, p: int, i, rows, bad: list) -> None:
    """Append to bad, keyed by (element position, p, clause slot), the
    violations at color i in the rows of ``crystal_rows``, with weights[n] =
    wt(elements[n]).  An image inside the fragment is read from the rows
    (f_i e_i b = b is down[up[n]] == n), one outside from its own wt and local."""
    elements, wt, local = frag.elements, frag.wt, frag.local
    eps_row, up_row, down_row, up_away, down_away = rows
    for row, away, back_row, (sign, back, slot, axiom, moved, shift, unmoved) in (
            (up_row, up_away, down_row, _DIRECTIONS[0]),
            (down_row, down_away, up_row, _DIRECTIONS[1])):
        for n, m in enumerate(row):
            if m == _NONE:
                continue
            if m >= 0:
                weight, seen, strayed = weights[m], eps_row[m], back_row[m] != n
            else:
                image = away[n]
                weight, triple = wt(image), local(image, i)
                seen, strayed = triple[0], triple[back] != elements[n]
            if weight != _alpha_step(weights[n], p, sign):
                bad.append(((n, p, slot), (axiom, elements[n], i, moved)))
            if seen != eps_row[n] - sign:
                bad.append(((n, p, slot + 1), (axiom, elements[n], i,
                                               f"epsilon {seen} != {eps_row[n]} {shift}")))
            if strayed:
                bad.append(((n, p, slot + 2), (4, elements[n], i, unmoved)))
    for n, eps in enumerate(eps_row):
        if eps == NEG_INFINITY and (up_row[n] != _NONE or down_row[n] != _NONE):
            bad.append(((n, p, 6),
                        (5, elements[n], i, "operators defined although epsilon is -infinity")))


def check_crystal_axioms(frag: CrystalFragment) -> CheckReport:
    """Exhaustively test the crystal axioms on a fragment.

    Axiom 1 defines phi_i = epsilon_i + <h_i, wt>, so no phi clause is
    tested: with wt(e_i b) = wt(b) + alpha_i and a_ii = 2, phi_i rises by one
    exactly when epsilon_i drops by one, and lowering is the mirror case.
    Axiom 5 reads epsilon_i = -infinity, which is phi_i = -infinity.
    Violations are reported as (axiom number, element, color, message), in
    the order of the elements, then the colors, then the clauses.  A
    fragment with no elements, or with repeated ones, is a ValueError.

    wt is applied once per element and local once per element and color,
    and both once more per image outside the fragment: the rows of
    ``crystal_rows`` go through ``check_color`` one color at a time.
    """
    weights = [frag.wt(b) for b in frag.elements]
    bad = []    # ((element position, color position, clause slot), violation)
    for p, i, rows in crystal_rows(frag):
        check_color(frag, weights, p, i, rows, bad)
    bad.sort(key=itemgetter(0))
    return CheckReport(tuple(v for _, v in bad))
