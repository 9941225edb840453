"""Crystal structure on components of the 2x2 commutative grid.

Vertices of the 2x2 grid are numbered 1..4 with arrows 1->2, 1->3, 2->4,
3->4 (so 1 is the source corner, 4 the sink corner).  An irreducible
component of the representation variety for dimension vector d is named
by d together with the generic ranks (r1, r2) of the stacked map out of
vertex 1 and of the stacked map into vertex 4.  Raising operators
decrement a coordinate of d, lowering operators increment it.

Each family (plain and star) has one case function, dims, ranks, i ->
(epsilon_i, the e_i candidate's rank data, the f_i candidate's), with None
for a candidate whose case vanishes.  Everything else is read off it: the
local maps ``local`` and ``local_star`` (c, i -> (epsilon_i, e_i c, f_i c))
make one case call, build the moved dims only for a live candidate and pass
each one through ranks_valid, the one gate, which decides whether the
candidate names a component.  The four operators read one slot of the same
call, and the two statistics ask it for epsilon_i alone, which builds no
candidate.

A Component is the tuple (dims, ranks).  A gated candidate's fields are int
tuples of length 4 and 2 by construction, so ranks_valid is the one check
that can fail, and the pair is wrapped with tuple.__new__.  The public
Component constructor is the boundary for outside data, parsed or
caller-supplied: it also checks the field types and lengths and raises
InvalidComponentError.  dual raises InvalidComponentError too and never
returns None, which ``verify duality`` would read as a vanished operator.

Colors 2 and 3 share one branch in every case function: the reflection of
the square that swaps vertices 2 and 3 fixes d1, d4, r1 and r2, so the two
cases differ only in which of d2, d3 they read as d_i.  The exact raising
count differs from epsilon on one wall:

    epsilon'_i = epsilon_i,  except epsilon'_1 = d1 - r1 when d4 != r2.

The star counts have no table of their own: epsilon*'_i(c) and phi*'_i(c)
are epsilon' and phi' of dual(c) at sigma(i), the vertex involution, by the
transpose duality that ``verify duality`` checks on the operators and
epsilon.  So epsilon*'_4 = d4 - r2 when d1 != r1, the mirror wall.
"""

from __future__ import annotations

from math import inf as INFINITY

from .cartan import CrystalFragment, cartan_from_quiver
from .grid import build_grid, dimension_vectors
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
    for dims in dimension_vectors(4, bound):
        yield from enumerate_components(dims)


def weight(c: Component):
    d1, d2, d3, d4 = c.dims
    return (-d1, -d2, -d3, -d4)


def _plain(dims, ranks, i: int, candidates: bool = True):
    """The plain family's case function: (epsilon_i, the e_i candidate's rank
    data, the f_i candidate's), a candidate None where its case vanishes.
    With candidates false it returns epsilon_i alone and builds none."""
    d1, d2, d3, d4 = dims
    r1, r2 = ranks
    if i == 1:
        if not candidates:
            return d1
        lhs, rhs = d1 + d4, d2 + d3
        return d1, (r1 - 1, r2) if lhs <= rhs else ranks, (r1 + 1, r2) if lhs < rhs else ranks
    if i == 4:
        if not candidates:
            return d4 - r2
        return d4 - r2, ranks, ranks if d1 + d4 >= d2 + d3 else None
    if i != 2 and i != 3:
        raise ValueError(f"color {i} out of range")
    d = dims[i - 1]
    eps = d - r1 if d > r1 else 0
    if not candidates:
        return eps
    lhs, rhs = d1 + d4, d2 + d3
    return (eps, None if d <= r1 else ranks if lhs < rhs else (r1, r2 - 1),
            None if d < r1 else ranks if lhs <= rhs else (r1, r2 + 1))


def _star(dims, ranks, i: int, candidates: bool = True):
    """The star family's case function, laid out as _plain."""
    d1, d2, d3, d4 = dims
    r1, r2 = ranks
    if i == 1:
        if not candidates:
            return d1 - r1
        return d1 - r1, ranks, ranks if d1 + d4 >= d2 + d3 else None
    if i == 4:
        if not candidates:
            return d4
        lhs, rhs = d1 + d4, d2 + d3
        return d4, (r1, r2 - 1) if lhs <= rhs else ranks, (r1, r2 + 1) if lhs < rhs else ranks
    if i != 2 and i != 3:
        raise ValueError(f"color {i} out of range")
    d = dims[i - 1]
    eps = d - r2 if d > r2 else 0
    if not candidates:
        return eps
    lhs, rhs = d1 + d4, d2 + d3
    return (eps, None if d <= r2 else ranks if lhs < rhs else (r1 - 1, r2),
            None if d < r2 else ranks if lhs <= rhs else (r1 + 1, r2))


def _local_map(case):
    """The local map c, i -> (epsilon_i(c), e_i c, f_i c) of the family whose
    case function is case.  One case call; then each live candidate moves d_i
    by -1 (e_i) or +1 (f_i) and passes through ranks_valid, the one gate."""
    def local(c, i):
        dims, ranks = c
        eps, up, down = case(dims, ranks, i)
        head, d, tail = dims[:i - 1], dims[i - 1], dims[i:]
        if up is not None:
            moved = head + (d - 1,) + tail
            up = tuple.__new__(Component, (moved, up)) if ranks_valid(moved, up) else None
        if down is not None:
            moved = head + (d + 1,) + tail
            down = tuple.__new__(Component, (moved, down)) if ranks_valid(moved, down) else None
        return eps, up, down
    return local


local = _local_map(_plain)
local_star = _local_map(_star)


def _operator(case, slot: int, delta: int):
    """The operator that reads one candidate off case, slot 1 with delta -1
    (e_i) or slot 2 with delta +1 (f_i), and moves d_i by delta; the
    candidate passes the gate of the local maps."""
    def step(c, i):
        dims, ranks = c
        moved_ranks = case(dims, ranks, i)[slot]
        if moved_ranks is None:
            return None
        moved = dims[:i - 1] + (dims[i - 1] + delta,) + dims[i:]
        return (tuple.__new__(Component, (moved, moved_ranks))
                if ranks_valid(moved, moved_ranks) else None)
    return step


# Raising and lowering, then the star (quotient-side) raising and lowering.
apply_e = _operator(_plain, 1, -1)
apply_f = _operator(_plain, 2, +1)
apply_e_star = _operator(_star, 1, -1)
apply_f_star = _operator(_star, 2, +1)


def epsilon(c: Component, i: int) -> int:
    dims, ranks = c
    return _plain(dims, ranks, i, False)


def epsilon_star(c: Component, i: int) -> int:
    dims, ranks = c
    return _star(dims, ranks, i, False)


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
    if i != 2 and i != 3:
        raise ValueError(f"color {i} out of range")
    if dims[i - 1] < r1:
        return 0
    return INFINITY if r1 == d1 else d4 - r2


# The star counts are the plain counts conjugated by dual, read at sigma(i).
# A color off the square maps to itself, so the plain count rejects it.

def epsilon_star_prime(c: Component, i: int) -> int:
    """Exact number of times the star raising operator applies."""
    return epsilon_prime(dual(c), VERTEX_INVOLUTION.get(i, i))


def phi_star_prime(c: Component, i: int):
    """Exact number of times the star lowering operator applies (may be infinite)."""
    return phi_prime(dual(c), VERTEX_INVOLUTION.get(i, i))


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
    return CrystalFragment(
        cartan=CARTAN,
        elements=tuple(iter_components(bound)),
        wt=weight,
        local=local_star if star else local,
    )
