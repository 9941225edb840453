"""Cartan data and the abstract crystal contract.

A crystal here is a set with a weight map into the root lattice, integer
statistics epsilon_i, and partial raising / lowering operators, subject to
the usual five axioms.  phi_i is not a map of its own: the first axiom is
its definition, phi_i = epsilon_i + <h_i, wt> with the pairing read off the
Cartan matrix by ``pairing``.  Checks run on finite enumerated fragments,
each of which gives its statistic and operators at one color through one
local map, b, i -> (epsilon_i(b), e_i b, f_i b); an image that lies outside
the fragment is checked too, through its own triple.
"""

from __future__ import annotations

from operator import itemgetter, mul

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


def pairing(cartan: CartanMatrix, i, coeffs) -> int:
    """Evaluate <h_i, w> for w = sum_j coeffs_j alpha_j."""
    row = cartan.entries[cartan.position(i)]
    if len(coeffs) != len(row):
        raise ValueError("coefficient vector length mismatch")
    return sum(map(mul, row, coeffs))


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
# lies outside the fragment (checked at once, with direct calls).
_NONE, _OUTSIDE = -1, -2


def check_crystal_axioms(frag: CrystalFragment) -> CheckReport:
    """Exhaustively test the crystal axioms on a fragment.

    Axiom 1 defines phi_i = epsilon_i + <h_i, wt>, so no phi clause is
    tested: with wt(e_i b) = wt(b) + alpha_i and a_ii = 2, phi_i rises by one
    exactly when epsilon_i drops by one, and lowering is the mirror case.
    Axiom 5 reads epsilon_i = -infinity, which is phi_i = -infinity.
    Violations are reported as (axiom number, element, color, message), in
    the order of the elements, then the colors, then the clauses.

    wt is applied once per element and local once per element and color,
    and both once more per image outside the fragment.  Per color, a first
    sweep records epsilon and the positions of e_i b and f_i b in rows of
    ints; an image outside the fragment is checked there against its own
    triple.  A second sweep checks the images inside the fragment from the
    rows, so f_i e_i b = b reads down[up[n]] == n.
    """
    elements = frag.elements
    index = {b: n for n, b in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("fragment elements must be distinct")
    wt, local = frag.wt, frag.local
    weights = [wt(b) for b in elements]
    bad = []    # ((element position, color position, clause slot), violation)
    for p, i in enumerate(frag.colors):
        eps_row, up_row, down_row = [], [], []
        for n, b in enumerate(elements):
            eps, up, down = local(b, i)
            if up is None:
                m = _NONE
            else:
                m = index.get(up, _OUTSIDE)
                if m == _OUTSIDE:
                    if wt(up) != _alpha_step(weights[n], p, +1):
                        bad.append(((n, p, 0),
                                    (2, b, i, "weight of raised element is not wt+alpha_i")))
                    seen, _, lowered = local(up, i)
                    if seen != eps - 1:
                        bad.append(((n, p, 1),
                                    (2, b, i, f"epsilon {seen} != {eps} - 1 after raising")))
                    if lowered != b:
                        bad.append(((n, p, 2), (4, b, i, "lowering does not invert raising")))
            up_row.append(m)
            if down is None:
                m = _NONE
            else:
                m = index.get(down, _OUTSIDE)
                if m == _OUTSIDE:
                    if wt(down) != _alpha_step(weights[n], p, -1):
                        bad.append(((n, p, 3),
                                    (3, b, i, "weight of lowered element is not wt-alpha_i")))
                    seen, raised, _ = local(down, i)
                    if seen != eps + 1:
                        bad.append(((n, p, 4),
                                    (3, b, i, f"epsilon {seen} != {eps} + 1 after lowering")))
                    if raised != b:
                        bad.append(((n, p, 5), (4, b, i, "raising does not invert lowering")))
            down_row.append(m)
            eps_row.append(eps)
            if eps == NEG_INFINITY and (up is not None or down is not None):
                bad.append(((n, p, 6),
                            (5, b, i, "operators defined although epsilon is -infinity")))
        for n, eps in enumerate(eps_row):
            m = up_row[n]
            if m >= 0:
                if weights[m] != _alpha_step(weights[n], p, +1):
                    bad.append(((n, p, 0),
                                (2, elements[n], i, "weight of raised element is not wt+alpha_i")))
                if eps_row[m] != eps - 1:
                    bad.append(((n, p, 1), (2, elements[n], i,
                                            f"epsilon {eps_row[m]} != {eps} - 1 after raising")))
                if down_row[m] != n:
                    bad.append(((n, p, 2), (4, elements[n], i, "lowering does not invert raising")))
            m = down_row[n]
            if m >= 0:
                if weights[m] != _alpha_step(weights[n], p, -1):
                    bad.append(((n, p, 3),
                                (3, elements[n], i, "weight of lowered element is not wt-alpha_i")))
                if eps_row[m] != eps + 1:
                    bad.append(((n, p, 4), (3, elements[n], i,
                                            f"epsilon {eps_row[m]} != {eps} + 1 after lowering")))
                if up_row[m] != n:
                    bad.append(((n, p, 5), (4, elements[n], i, "raising does not invert lowering")))
    bad.sort(key=itemgetter(0))
    return CheckReport(tuple(v for _, v in bad))
