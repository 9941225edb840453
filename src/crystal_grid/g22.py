"""Crystal structure on components of the 2x2 commutative grid.

Vertices of the 2x2 grid are numbered 1..4 with arrows 1->2, 1->3, 2->4,
3->4 (so 1 is the source corner, 4 the sink corner).  An irreducible
component of the representation variety for dimension vector d is named
by d together with the generic ranks (r1, r2) of the stacked map out of
vertex 1 and of the stacked map into vertex 4.  Raising operators
decrement a coordinate of d, lowering operators increment it; each case
formula below names candidate rank data, and the candidate is the answer
exactly when it satisfies the component parametrization, otherwise the
operator vanishes.

One gate decides that: ranks_valid.  A Component is the tuple (dims,
ranks).  Operator results are built by the private factory _moved, which
moves one dimension, runs ranks_valid and nothing else (a moved
component's fields are int tuples of length 4 and 2 by construction) and
wraps the pair with tuple.__new__, or returns None when the data names no
component.  The public Component constructor is the boundary for outside
data, parsed or caller-supplied: it also checks the field types and
lengths and raises InvalidComponentError.  dual raises
InvalidComponentError too and never returns None, which ``verify
duality`` would read as a vanished operator.

Colors 2 and 3 share one branch in every case function: the reflection of
the square that swaps vertices 2 and 3 fixes d1, d4, r1 and r2, so the two
cases differ only in which of d2, d3 they read as d_i.  The exact raising
counts differ from epsilon and epsilon* on one wall each:

    epsilon'_i  = epsilon_i,   except epsilon'_1  = d1 - r1 when d4 != r2;
    epsilon*'_i = epsilon*_i,  except epsilon*'_4 = d4 - r2 when d1 != r1.
"""

from __future__ import annotations

import itertools
from math import inf as INFINITY

from .cartan import CrystalFragment, cartan_from_quiver
from .grid import build_grid
from .values import Record

QUIVER = build_grid((2, 2))

# Corner numbering: 1 = (1,1) source, 2 = (2,1), 3 = (1,2), 4 = (2,2) sink.
VERTEX_OF = {1: (1, 1), 2: (2, 1), 3: (1, 2), 4: (2, 2)}
VERTEX_INVOLUTION = {1: 4, 2: 3, 3: 2, 4: 1}

CARTAN = cartan_from_quiver(
    QUIVER,
    vertex_order=tuple(VERTEX_OF[k] for k in (1, 2, 3, 4)),
    labels=(1, 2, 3, 4),
)

COLORS = (1, 2, 3, 4)


class InvalidComponentError(ValueError):
    """Rank data that does not name an irreducible component."""


def ranks_valid(dims, ranks) -> bool:
    d1, d2, d3, d4 = dims
    r1, r2 = ranks
    if d1 < 0 or d2 < 0 or d3 < 0 or d4 < 0 or r1 < 0 or r2 < 0:
        return False
    if d1 + d4 >= d2 + d3:
        return r1 + r2 == d2 + d3 and r1 <= d1 and r2 <= d4
    return r1 == d1 and r2 == d4


class Component(Record):
    """An irreducible component (dims; r1, r2), with dims and ranks int tuples.

    Stored as the tuple (dims, ranks), so an operator result costs one tuple
    and no attribute writes.  It hashes as that tuple and orders as tuples
    do (lexicographically by dims, then ranks), but never equals anything
    that is not a Component, a plain ((d1, ..., d4), (r1, r2)) included.
    Construction checks the fields as given and converts nothing: text
    becomes ints only in the parsers (parse_component and the CLI types).
    """

    __slots__ = ()

    def __new__(cls, dims, ranks):
        if not (isinstance(dims, tuple) and len(dims) == 4
                and isinstance(ranks, tuple) and len(ranks) == 2):
            raise InvalidComponentError(
                f"need tuples of 4 dims and 2 ranks, got {dims}:{ranks}")
        if not ranks_valid(dims, ranks):
            raise InvalidComponentError(f"{format_component_data(dims, ranks)} is not a component")
        return tuple.__new__(cls, (dims, ranks))


ZERO_COMPONENT = Component((0, 0, 0, 0), (0, 0))


def format_component_data(dims, ranks) -> str:
    return ",".join(map(str, dims)) + ":" + ",".join(map(str, ranks))


def format_component(c: Component) -> str:
    return format_component_data(c.dims, c.ranks)


def parse_component(text: str) -> Component:
    try:
        dims_part, ranks_part = text.split(":")
        dims = tuple(int(x) for x in dims_part.split(","))
        ranks = tuple(int(x) for x in ranks_part.split(","))
    except ValueError:
        raise ValueError(f"expected 'd1,d2,d3,d4:r1,r2', got {text!r}") from None
    return Component(dims, ranks)


def enumerate_components(dims):
    """All components on a dimension vector, ordered by increasing r1."""
    dims = tuple(dims)
    if len(dims) != 4:
        raise ValueError(f"expected 4 dimensions d1,d2,d3,d4, got {len(dims)}")
    d1, d2, d3, d4 = dims
    if min(dims) < 0:
        raise ValueError(f"negative dimension vector {dims}")
    s = d2 + d3
    if d1 + d4 < s:
        return [Component(dims, (d1, d4))]
    return [Component(dims, (r1, s - r1))
            for r1 in range(max(0, s - d4), min(d1, s) + 1)]


def iter_components(bound: int):
    """All components with total dimension at most bound, in graph order."""
    if bound < 0:
        raise ValueError(f"negative bound {bound}")
    for total in range(bound + 1):
        for d1, d2, d3 in itertools.product(range(total + 1), repeat=3):
            d4 = total - d1 - d2 - d3
            if d4 >= 0:
                yield from enumerate_components((d1, d2, d3, d4))


def weight(c: Component):
    d1, d2, d3, d4 = c.dims
    return (-d1, -d2, -d3, -d4)


def _moved(dims, i, delta, ranks):
    """The component with d_i moved by delta and rank data ranks, or None
    when that data names no component.

    For operator results only: the moved fields are int tuples of length 4
    and 2 by construction, so ranks_valid is the one check that can fail.
    """
    dims = dims[:i - 1] + (dims[i - 1] + delta,) + dims[i:]
    if not ranks_valid(dims, ranks):
        return None
    return tuple.__new__(Component, (dims, ranks))


def _middle_dim(dims, i: int) -> int:
    """d_i for the middle colors 2 and 3, which every case function reaches
    only after handling colors 1 and 4; any other color is out of range."""
    if i == 2 or i == 3:
        return dims[i - 1]
    raise ValueError(f"color {i} out of range")


def apply_e(c: Component, i: int):
    """Raising operator: decrement d_i, with rank data per the case table."""
    dims, ranks = c
    d1, d2, d3, d4 = dims
    r1, r2 = ranks
    lhs, rhs = d1 + d4, d2 + d3
    if i == 1:
        if lhs <= rhs:
            return _moved(dims, 1, -1, (r1 - 1, r2))
        return _moved(dims, 1, -1, (r1, r2))
    if i == 4:
        return _moved(dims, 4, -1, (r1, r2))
    if _middle_dim(dims, i) <= r1:
        return None
    if lhs < rhs:
        return _moved(dims, i, -1, (r1, r2))
    return _moved(dims, i, -1, (r1, r2 - 1))


def apply_f(c: Component, i: int):
    """Lowering operator: increment d_i, with rank data per the case table."""
    dims, ranks = c
    d1, d2, d3, d4 = dims
    r1, r2 = ranks
    lhs, rhs = d1 + d4, d2 + d3
    if i == 1:
        if lhs < rhs:
            return _moved(dims, 1, +1, (r1 + 1, r2))
        return _moved(dims, 1, +1, (r1, r2))
    if i == 4:
        if lhs >= rhs:
            return _moved(dims, 4, +1, (r1, r2))
        return None
    if _middle_dim(dims, i) < r1:
        return None
    if lhs <= rhs:
        return _moved(dims, i, +1, (r1, r2))
    return _moved(dims, i, +1, (r1, r2 + 1))


def apply_e_star(c: Component, i: int):
    """Star raising operator (quotient-side structure)."""
    dims, ranks = c
    d1, d2, d3, d4 = dims
    r1, r2 = ranks
    lhs, rhs = d1 + d4, d2 + d3
    if i == 1:
        return _moved(dims, 1, -1, (r1, r2))
    if i == 4:
        if lhs <= rhs:
            return _moved(dims, 4, -1, (r1, r2 - 1))
        return _moved(dims, 4, -1, (r1, r2))
    if _middle_dim(dims, i) <= r2:
        return None
    if lhs < rhs:
        return _moved(dims, i, -1, (r1, r2))
    return _moved(dims, i, -1, (r1 - 1, r2))


def apply_f_star(c: Component, i: int):
    """Star lowering operator (quotient-side structure)."""
    dims, ranks = c
    d1, d2, d3, d4 = dims
    r1, r2 = ranks
    lhs, rhs = d1 + d4, d2 + d3
    if i == 1:
        if lhs >= rhs:
            return _moved(dims, 1, +1, (r1, r2))
        return None
    if i == 4:
        if lhs < rhs:
            return _moved(dims, 4, +1, (r1, r2 + 1))
        return _moved(dims, 4, +1, (r1, r2))
    if _middle_dim(dims, i) < r2:
        return None
    if lhs <= rhs:
        return _moved(dims, i, +1, (r1, r2))
    return _moved(dims, i, +1, (r1 + 1, r2))


def epsilon(c: Component, i: int) -> int:
    dims, ranks = c
    d1, _, _, d4 = dims
    r1, r2 = ranks
    if i == 1:
        return d1
    if i == 4:
        return d4 - r2
    return max(0, _middle_dim(dims, i) - r1)


def epsilon_star(c: Component, i: int) -> int:
    dims, ranks = c
    d1, _, _, d4 = dims
    r1, r2 = ranks
    if i == 1:
        return d1 - r1
    if i == 4:
        return d4
    return max(0, _middle_dim(dims, i) - r2)


def epsilon_prime(c: Component, i: int) -> int:
    """Exact number of times the raising operator applies."""
    dims, ranks = c
    d1, _, _, d4 = dims
    r1, r2 = ranks
    if i == 1 and d4 != r2:
        return d1 - r1
    return epsilon(c, i)


def phi_prime(c: Component, i: int):
    """Exact number of times the lowering operator applies (may be infinite).

    For colors 2 and 3 the count is unbounded only when r1 = d1; otherwise
    the lowering chain absorbs into the sink rank and stops after d4 - r2
    steps.
    """
    dims, ranks = c
    d1, d2, d3, d4 = dims
    r1, r2 = ranks
    if i == 1:
        return INFINITY
    if i == 4:
        return INFINITY if d1 + d4 >= d2 + d3 else 0
    if _middle_dim(dims, i) < r1:
        return 0
    return INFINITY if r1 == d1 else d4 - r2


def epsilon_star_prime(c: Component, i: int) -> int:
    """Exact number of times the star raising operator applies."""
    dims, ranks = c
    d1, _, _, d4 = dims
    r1, r2 = ranks
    if i == 4 and d1 != r1:
        return d4 - r2
    return epsilon_star(c, i)


def phi_star_prime(c: Component, i: int):
    """Exact number of times the star lowering operator applies (may be infinite)."""
    dims, ranks = c
    d1, d2, d3, d4 = dims
    r1, r2 = ranks
    if i == 1:
        return INFINITY if d1 + d4 >= d2 + d3 else 0
    if i == 4:
        return INFINITY
    if _middle_dim(dims, i) < r2:
        return 0
    return INFINITY if r2 == d4 else d1 - r1


def dual(c: Component) -> Component:
    """Transpose duality on components: flip dims and swap the two ranks.

    Raises InvalidComponentError, never returns None, when the image is no
    component: ``verify duality`` reads None as a vanished operator, so a
    None image would match a star operator that vanishes.
    """
    (d1, d2, d3, d4), (r1, r2) = c
    dims, ranks = (d4, d3, d2, d1), (r2, r1)
    if not ranks_valid(dims, ranks):
        raise InvalidComponentError(f"{format_component_data(dims, ranks)} is not a component")
    return tuple.__new__(Component, (dims, ranks))


# ---------------------------------------------------------------------------
# Operator words


STEPS = {"e": apply_e, "f": apply_f, "e*": apply_e_star, "f*": apply_f_star}
# The benchmark's tracer and its self-test read the table under this name.
_STEP_FUNCTIONS = STEPS


def parse_word(text: str):
    """Parse a word like "f3 f1 f1 f3 f4 f4"; rightmost step applies first.

    Color range is not checked here; the operators of the target crystal
    reject colors they do not carry.
    """
    steps = []
    for token in text.split():
        kind = token.rstrip("0123456789")
        digits = token[len(kind):]
        if kind not in STEPS or not digits:
            raise ValueError(f"bad operator token {token!r}")
        color = int(digits)
        if color < 1:
            raise ValueError(f"color {color} out of range in {token!r}")
        steps.append((kind, color))
    return tuple(steps)


def format_word(word) -> str:
    return " ".join(f"{kind}{color}" for kind, color in word)


def connectivity_word(c: Component):
    """A raising word taking the component to the base point without vanishing."""
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    return (("e", 4),) * r2 + (("e", 3),) * d3 + (("e", 2),) * d2 \
        + (("e", 1),) * d1 + (("e", 4),) * (d4 - r2)


def counterexample_words():
    """Two lowering words that collide on components but not in the ambient
    free-crystal model."""
    word_a = parse_word("f3 f1 f1 f3 f4 f4")
    word_b = parse_word("f1 f1 f3 f3 f4 f4")
    return word_a, word_b


# ---------------------------------------------------------------------------
# Fragments for exhaustive checks


def fragment(bound: int, star: bool = False) -> CrystalFragment:
    eps = epsilon_star if star else epsilon
    up, down = (apply_e_star, apply_f_star) if star else (apply_e, apply_f)
    return CrystalFragment(
        cartan=CARTAN,
        elements=tuple(iter_components(bound)),
        wt=weight,
        local=lambda c, i: (eps(c, i), up(c, i), down(c, i)),
    )
