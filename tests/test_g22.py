import contextlib
import copy
import io
import itertools
import json
import pickle
from math import inf

import pytest

from crystal_grid import cartan, cli, g22, suites
from crystal_grid.cartan import CrystalFragment
from crystal_grid.g22 import Component, ZERO_COMPONENT, InvalidComponentError


def C(dims, ranks):
    return Component(tuple(dims), tuple(ranks))


def apply_word(word, c):
    return cartan.apply_word(g22.STEPS, word, c)


def lowering_graph(seed, bound):
    """(nodes, edges) of ``graph --seed seed --bound bound``, read back from
    its JSON, with (source, color, target) edges."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["graph", "--seed", g22.format_component(seed),
                         "--bound", str(bound)]) == 0
    payload = json.loads(out.getvalue())
    nodes = [g22.parse_component(n["id"]) for n in payload["nodes"]]
    edges = [(g22.parse_component(e["src"]), e["color"], g22.parse_component(e["dst"]))
             for e in payload["edges"]]
    return nodes, edges


# --- component parametrization ---------------------------------------------


def test_constructor_rejects_bad_rank_data():
    with pytest.raises(InvalidComponentError):
        C((2, 2, 0, 1), (0, 2))
    with pytest.raises(InvalidComponentError):
        C((1, 1, 1, 1), (2, 0))
    with pytest.raises(InvalidComponentError):
        C((1, 2, 2, 1), (0, 1))


def test_constructor_checks_the_fields_as_given():
    for dims, ranks in [([2, 1, 1, 2], (1, 1)), ((2, 1, 1, 2), [1, 1]),
                        ((1, 1, 2), (1, 1)), ((2, 1, 1, 2), (1, 1, 0))]:
        with pytest.raises(InvalidComponentError):
            Component(dims, ranks)


def test_constructor_errors_name_the_data():
    with pytest.raises(InvalidComponentError,
                       match=r"^need tuples of 4 dims and 2 ranks, got \[2, 1, 1, 2\]:\(1, 1\)$"):
        Component([2, 1, 1, 2], (1, 1))
    with pytest.raises(InvalidComponentError,
                       match=r"^need tuples of 4 dims and 2 ranks, got \(1, 1, 2\):\(1, 1\)$"):
        Component((1, 1, 2), (1, 1))
    with pytest.raises(InvalidComponentError, match="^2,2,0,1:0,2 is not a component$"):
        Component((2, 2, 0, 1), (0, 2))
    # dual raises, never returns None, on data that passed no gate.
    with pytest.raises(InvalidComponentError, match="^1,1,1,1:0,2 is not a component$"):
        g22.dual(tuple.__new__(Component, ((1, 1, 1, 1), (2, 0))))


def test_component_is_an_immutable_value():
    a = C((2, 1, 1, 2), (1, 1))
    b = g22.apply_f(C((1, 1, 1, 2), (1, 1)), 1)
    assert (a.dims, a.ranks) == ((2, 1, 1, 2), (1, 1))
    assert a == b and not a != b and a is not b
    assert hash(a) == hash(b) == hash(((2, 1, 1, 2), (1, 1)))
    assert {a: "x"}[b] == "x"
    assert a != C((2, 1, 1, 2), (0, 2)) and a != C((2, 1, 1, 2), (2, 0))
    # Equal by value to another Component only, never to its fields as a tuple.
    plain = ((2, 1, 1, 2), (1, 1))
    assert a != plain and not a == plain and plain != a and not plain == a
    assert a != None and not a == None  # noqa: E711
    assert repr(a) == "Component(dims=(2, 1, 1, 2), ranks=(1, 1))"
    assert repr(ZERO_COMPONENT) == "Component(dims=(0, 0, 0, 0), ranks=(0, 0))"
    for name in ("dims", "ranks", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, (0, 0))
    assert a.dims == (2, 1, 1, 2) and a.ranks == (1, 1)
    assert pickle.loads(pickle.dumps(a)) == a and copy.deepcopy(a) == a
    assert type(pickle.loads(pickle.dumps(a))) is Component


def test_components_order_as_tuples():
    # Lexicographic by dims, then by ranks, as the tuple (dims, ranks).
    comps = list(g22.iter_components(4))
    assert sorted(comps) == sorted(comps, key=lambda c: (c.dims, c.ranks))
    assert C((2, 1, 1, 2), (0, 2)) < C((2, 1, 1, 2), (1, 1)) < C((2, 1, 1, 3), (0, 2))


def test_enumerate_takes_any_sequence_of_four_dims():
    comps = g22.enumerate_components([2, 1, 1, 2])
    assert comps == g22.enumerate_components((2, 1, 1, 2))
    assert len(set(comps)) == 3
    for dims in ([1, 2, 3], (1, 2, 3, 4, 5)):
        with pytest.raises(ValueError, match="expected 4 dimensions"):
            g22.enumerate_components(dims)


def test_factory_agrees_with_the_public_constructor():
    # Negative and invalid data included: the one gate of the local maps and
    # of the operators, fed any candidate rank data through a stand-in case
    # function, accepts exactly what the constructor accepts on int tuples
    # of the right length, and wraps it as a Component.
    box = range(-1, 4)
    for ranks in itertools.product(box, repeat=2):
        def case(dims, _, i, ranks=ranks):
            return None, ranks, ranks
        local = g22._local_map(case)
        steps = {-1: g22._operator(case, 1, -1), +1: g22._operator(case, 2, +1)}
        for dims in itertools.product(box, repeat=4):
            c = tuple.__new__(Component, (dims, (0, 0)))
            for i in g22.COLORS:
                _, up, down = local(c, i)
                for delta, made in ((-1, up), (+1, down)):
                    stepped = steps[delta](c, i)
                    moved = tuple(d + delta * (k == i) for k, d in enumerate(dims, 1))
                    try:
                        expected = Component(moved, ranks)
                    except InvalidComponentError:
                        assert made is None and stepped is None, (dims, i, delta, ranks)
                    else:
                        assert type(made) is type(stepped) is Component, (dims, i, ranks)
                        assert made == stepped == expected, (dims, i, ranks)
    # A vanished case builds no candidate at all.
    c = C((1, 1, 1, 1), (1, 1))
    assert g22._local_map(lambda dims, ranks, i: (0, None, None))(c, 1) == (0, None, None)
    assert g22._operator(lambda dims, ranks, i: (0, None, None), 1, -1)(c, 1) is None


def test_operator_results_have_plain_int_fields():
    for c in g22.iter_components(6):
        for i in g22.COLORS:
            images = [step(c, i) for step in (g22.apply_e, g22.apply_f, g22.apply_e_star,
                                              g22.apply_f_star)]
            images += g22.local(c, i)[1:] + g22.local_star(c, i)[1:]
            for moved in images:
                if moved is not None:
                    assert type(moved) is Component, (c, i)
                    assert type(moved.dims) is tuple and len(moved.dims) == 4, (c, i)
                    assert type(moved.ranks) is tuple and len(moved.ranks) == 2, (c, i)
                    assert all(type(x) is int for x in moved.dims + moved.ranks), (c, i)
                    assert Component(moved.dims, moved.ranks) == moved, (c, i)


def test_enumerate_balanced_case():
    comps = g22.enumerate_components((2, 1, 1, 2))
    assert [c.ranks for c in comps] == [(0, 2), (1, 1), (2, 0)]


def test_enumerate_zero_vector():
    assert g22.enumerate_components((0, 0, 0, 0)) == [ZERO_COMPONENT]


def test_enumerate_deficient_case_is_unique():
    assert g22.enumerate_components((1, 2, 2, 1)) == [C((1, 2, 2, 1), (1, 1))]


def test_enumerate_respects_sink_cap():
    assert g22.enumerate_components((3, 1, 1, 0)) == [C((3, 1, 1, 0), (2, 0))]


def test_count_formula_against_rank_scan():
    # independent route: count all pairs satisfying the membership predicate
    for dims in itertools.product(range(5), repeat=4):
        direct = sum(
            g22.ranks_valid(dims, (r1, r2))
            for r1 in range(6) for r2 in range(6))
        assert direct == len(g22.enumerate_components(dims))


# --- raising operators -------------------------------------------------------


def test_raise_1_unbalanced():
    assert g22.apply_e(C((2, 1, 1, 2), (1, 1)), 1) == C((1, 1, 1, 2), (1, 1))


def test_raise_1_vanishes_at_rank_wall():
    assert g22.apply_e(C((1, 1, 1, 2), (1, 1)), 1) is None


def test_raise_2_balanced():
    assert g22.apply_e(C((1, 2, 1, 2), (1, 2)), 2) == C((1, 1, 1, 2), (1, 1))


def test_raise_4_chain():
    assert g22.apply_e(C((0, 0, 0, 2), (0, 0)), 4) == C((0, 0, 0, 1), (0, 0))


def test_raise_1_vanishes_at_zero():
    assert g22.apply_e(ZERO_COMPONENT, 1) is None


# --- lowering operators ------------------------------------------------------


def test_lower_4_from_base():
    assert g22.apply_f(ZERO_COMPONENT, 4) == C((0, 0, 0, 1), (0, 0))


def test_lower_4_vanishes_in_deficient_regime():
    assert g22.apply_f(C((0, 1, 0, 0), (0, 0)), 4) is None


def test_lower_1_total():
    assert g22.apply_f(C((1, 1, 1, 2), (1, 1)), 1) == C((2, 1, 1, 2), (1, 1))


def test_lower_3_vanishes_below_rank():
    assert g22.apply_f(C((1, 1, 0, 0), (1, 0)), 3) is None


def test_lower_2_vanishes_at_sink_saturation():
    # the case formula names rank data exceeding the sink dimension, so the
    # operator vanishes even though the slot condition holds
    assert g22.apply_f(C((2, 1, 0, 1), (0, 1)), 2) is None
    assert g22.apply_e(C((2, 0, 0, 1), (0, 0)), 2) is None


# --- star operators ----------------------------------------------------------


def test_star_lower_1_balanced():
    assert g22.apply_f_star(C((1, 1, 1, 1), (1, 1)), 1) == C((2, 1, 1, 1), (1, 1))


def test_star_lower_1_vanishes_deficient():
    assert g22.apply_f_star(C((0, 1, 1, 0), (0, 0)), 1) is None


def test_star_raise_4_to_base():
    assert g22.apply_e_star(C((0, 0, 0, 1), (0, 0)), 4) == ZERO_COMPONENT


def test_star_lower_2_vanishes_at_source_saturation():
    assert g22.apply_f_star(C((1, 0, 1, 2), (1, 0)), 2) is None


# --- invariants ---------------------------------------------------------------


def test_epsilon_values():
    c = C((1, 1, 1, 2), (1, 1))
    assert g22.epsilon(c, 1) == 1
    assert g22.epsilon(c, 2) == 0
    assert g22.epsilon(c, 4) == 1


def test_epsilon_prime_witness():
    c = C((1, 1, 1, 2), (1, 1))
    assert g22.epsilon_prime(c, 1) == 0


def test_phi_prime_deficient_regime():
    assert g22.phi_prime(C((0, 1, 1, 0), (0, 0)), 4) == 0


def test_phi_prime_infinite_branches():
    c = C((1, 1, 1, 2), (1, 1))
    assert g22.phi_prime(c, 1) == inf
    assert g22.phi_prime(c, 2) == inf  # r1 saturates the source dimension


def test_phi_prime_finite_branch():
    # lowering at color 2 absorbs into the sink and stops
    assert g22.phi_prime(C((2, 1, 0, 2), (0, 1)), 2) == 1


def test_epsilon_star_values():
    assert g22.epsilon_star(C((3, 1, 1, 2), (1, 1)), 4) == 2
    assert g22.epsilon_star(C((3, 1, 1, 2), (1, 1)), 1) == 2
    assert g22.epsilon_star(C((2, 1, 1, 2), (1, 1)), 2) == 0


# --- the retired case tables ----------------------------------------------------
# The operators and statistics as one case per color, before colors 2 and 3
# were folded into one branch and the prime counts into their closed forms.


def _moved(dims, i, delta, ranks):
    try:
        return C(dims[:i - 1] + (dims[i - 1] + delta,) + dims[i:], ranks)
    except InvalidComponentError:
        return None


def _table_apply_e(c: Component, i: int):
    """Raising operator: decrement d_i, with rank data per the case table."""
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    lhs, rhs = d1 + d4, d2 + d3
    if i == 1:
        if lhs <= rhs:
            return _moved(c.dims, 1, -1, (r1 - 1, r2))
        if d1 > r1:
            return _moved(c.dims, 1, -1, (r1, r2))
        return None
    if i == 2:
        if d2 <= r1:
            return None
        if lhs < rhs:
            return _moved(c.dims, 2, -1, (r1, r2))
        return _moved(c.dims, 2, -1, (r1, r2 - 1))
    if i == 3:
        if d3 <= r1:
            return None
        if lhs < rhs:
            return _moved(c.dims, 3, -1, (r1, r2))
        return _moved(c.dims, 3, -1, (r1, r2 - 1))
    if i == 4:
        if d4 > r2:
            return _moved(c.dims, 4, -1, (r1, r2))
        return None
    raise ValueError(f"color {i} out of range")


def _table_apply_f(c: Component, i: int):
    """Lowering operator: increment d_i, with rank data per the case table."""
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    lhs, rhs = d1 + d4, d2 + d3
    if i == 1:
        if lhs < rhs:
            return _moved(c.dims, 1, +1, (r1 + 1, r2))
        return _moved(c.dims, 1, +1, (r1, r2))
    if i == 2:
        if d2 < r1:
            return None
        if lhs <= rhs:
            return _moved(c.dims, 2, +1, (r1, r2))
        return _moved(c.dims, 2, +1, (r1, r2 + 1))
    if i == 3:
        if d3 < r1:
            return None
        if lhs <= rhs:
            return _moved(c.dims, 3, +1, (r1, r2))
        return _moved(c.dims, 3, +1, (r1, r2 + 1))
    if i == 4:
        if lhs >= rhs:
            return _moved(c.dims, 4, +1, (r1, r2))
        return None
    raise ValueError(f"color {i} out of range")


def _table_apply_e_star(c: Component, i: int):
    """Star raising operator (quotient-side structure)."""
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    lhs, rhs = d1 + d4, d2 + d3
    if i == 1:
        if d1 > r1:
            return _moved(c.dims, 1, -1, (r1, r2))
        return None
    if i == 2:
        if d2 <= r2:
            return None
        if lhs < rhs:
            return _moved(c.dims, 2, -1, (r1, r2))
        return _moved(c.dims, 2, -1, (r1 - 1, r2))
    if i == 3:
        if d3 <= r2:
            return None
        if lhs < rhs:
            return _moved(c.dims, 3, -1, (r1, r2))
        return _moved(c.dims, 3, -1, (r1 - 1, r2))
    if i == 4:
        if lhs <= rhs:
            return _moved(c.dims, 4, -1, (r1, r2 - 1))
        if d4 > r2:
            return _moved(c.dims, 4, -1, (r1, r2))
        return None
    raise ValueError(f"color {i} out of range")


def _table_apply_f_star(c: Component, i: int):
    """Star lowering operator (quotient-side structure)."""
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    lhs, rhs = d1 + d4, d2 + d3
    if i == 1:
        if lhs >= rhs:
            return _moved(c.dims, 1, +1, (r1, r2))
        return None
    if i == 2:
        if d2 < r2:
            return None
        if lhs <= rhs:
            return _moved(c.dims, 2, +1, (r1, r2))
        return _moved(c.dims, 2, +1, (r1 + 1, r2))
    if i == 3:
        if d3 < r2:
            return None
        if lhs <= rhs:
            return _moved(c.dims, 3, +1, (r1, r2))
        return _moved(c.dims, 3, +1, (r1 + 1, r2))
    if i == 4:
        if lhs < rhs:
            return _moved(c.dims, 4, +1, (r1, r2 + 1))
        return _moved(c.dims, 4, +1, (r1, r2))
    raise ValueError(f"color {i} out of range")


def _table_epsilon(c: Component, i: int) -> int:
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    if i == 1:
        return d1
    if i == 2:
        return max(0, d2 - r1)
    if i == 3:
        return max(0, d3 - r1)
    if i == 4:
        return d4 - r2
    raise ValueError(f"color {i} out of range")


def _table_epsilon_star(c: Component, i: int) -> int:
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    if i == 1:
        return d1 - r1
    if i == 2:
        return max(0, d2 - r2)
    if i == 3:
        return max(0, d3 - r2)
    if i == 4:
        return d4
    raise ValueError(f"color {i} out of range")


def _table_epsilon_prime(c: Component, i: int) -> int:
    """Exact number of times the raising operator applies."""
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    if i == 1:
        return d1 if d4 == r2 else d1 - r1
    if i == 2:
        return max(0, d2 - r1)
    if i == 3:
        return max(0, d3 - r1)
    if i == 4:
        return d4 - r2
    raise ValueError(f"color {i} out of range")


def _table_phi_prime(c: Component, i: int):
    """Exact number of times the lowering operator applies (may be infinite).

    For colors 2 and 3 the count is unbounded only when r1 = d1; otherwise
    the lowering chain absorbs into the sink rank and stops after d4 - r2
    steps.
    """
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    if i == 1:
        return inf
    if i == 2:
        if d2 < r1:
            return 0
        return inf if r1 == d1 else d4 - r2
    if i == 3:
        if d3 < r1:
            return 0
        return inf if r1 == d1 else d4 - r2
    if i == 4:
        return inf if d1 + d4 >= d2 + d3 else 0
    raise ValueError(f"color {i} out of range")


def _table_epsilon_star_prime(c: Component, i: int) -> int:
    """Exact number of times the star raising operator applies."""
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    if i == 1:
        return d1 - r1
    if i == 2:
        return max(0, d2 - r2)
    if i == 3:
        return max(0, d3 - r2)
    if i == 4:
        return d4 if d1 == r1 else d4 - r2
    raise ValueError(f"color {i} out of range")


def _table_phi_star_prime(c: Component, i: int):
    """Exact number of times the star lowering operator applies (may be infinite)."""
    d1, d2, d3, d4 = c.dims
    r1, r2 = c.ranks
    if i == 1:
        return inf if d1 + d4 >= d2 + d3 else 0
    if i == 2:
        if d2 < r2:
            return 0
        return inf if r2 == d4 else d1 - r1
    if i == 3:
        if d3 < r2:
            return 0
        return inf if r2 == d4 else d1 - r1
    if i == 4:
        return inf
    raise ValueError(f"color {i} out of range")


_TABLES = {
    g22.apply_e: _table_apply_e,
    g22.apply_f: _table_apply_f,
    g22.apply_e_star: _table_apply_e_star,
    g22.apply_f_star: _table_apply_f_star,
    g22.epsilon: _table_epsilon,
    g22.epsilon_star: _table_epsilon_star,
    g22.epsilon_prime: _table_epsilon_prime,
    g22.phi_prime: _table_phi_prime,
    g22.epsilon_star_prime: _table_epsilon_star_prime,
    g22.phi_star_prime: _table_phi_star_prime,
}


def test_operators_and_statistics_match_the_case_tables():
    comps = list(g22.iter_components(10))
    assert len(comps) == 1379
    for fn, table in _TABLES.items():
        for c in comps:
            for i in g22.COLORS:
                assert fn(c, i) == table(c, i), (fn.__name__, c, i)


def test_local_maps_match_the_case_tables():
    comps = list(g22.iter_components(12))
    assert len(comps) == 2688
    for c in comps:
        for i in g22.COLORS:
            plain = _table_epsilon(c, i), _table_apply_e(c, i), _table_apply_f(c, i)
            star = _table_epsilon_star(c, i), _table_apply_e_star(c, i), _table_apply_f_star(c, i)
            assert g22.local(c, i) == plain, (c, i)
            assert g22.local_star(c, i) == star, (c, i)


def test_fragments_pass_the_local_maps():
    assert g22.fragment(2).local is g22.local
    assert g22.fragment(2, star=True).local is g22.local_star


def test_out_of_range_color_raises():
    c = C((1, 1, 1, 2), (1, 1))
    for fn in (*_TABLES, g22.local, g22.local_star):
        for color in (0, 5):
            with pytest.raises(ValueError, match=f"color {color} "):
                fn(c, color)


# --- iteration agreement -------------------------------------------------------


def _count_applications(c, i, step, cap):
    n = 0
    while n < cap:
        c = step(c, i)
        if c is None:
            return n
        n += 1
    return n


def _walked_star_mismatches(bound, cap=None):
    """verify star's mismatch list, from one capped walk per component and color.

    The cap defaults to the suite's 2*bound + 4; a larger cap checks that an
    infinite count keeps going further than the suite asks.
    """
    cap = 2 * bound + 4 if cap is None else cap
    mismatches = []
    for c in g22.iter_components(bound):
        name = g22.format_component(c)
        for i in g22.COLORS:
            if _count_applications(c, i, g22.apply_e, cap) != g22.epsilon_prime(c, i):
                mismatches.append(["eps_prime", name, i])
            if _count_applications(c, i, g22.apply_e_star, cap) != g22.epsilon_star_prime(c, i):
                mismatches.append(["eps_star_prime", name, i])
            for step, inv in ((g22.apply_f, g22.phi_prime), (g22.apply_f_star, g22.phi_star_prime)):
                counted = _count_applications(c, i, step, cap)
                expected = inv(c, i)
                if expected == inf:
                    if counted < cap:
                        mismatches.append(["unbounded", name, i])
                elif counted != expected:
                    mismatches.append(["finite", name, i])
    return mismatches


def test_prime_invariants_count_iterations():
    assert _walked_star_mismatches(6, cap=24) == []


_STEPS = {"e": g22.apply_e, "e*": g22.apply_e_star, "f": g22.apply_f, "f*": g22.apply_f_star}


def test_iteration_counts_match_per_element_walks():
    bound = 8
    cap = 2 * bound + 4
    elements = tuple(g22.iter_components(bound))
    # Reversed, no step target is counted before its source: every count walks.
    for order in (elements, elements[::-1]):
        for star, up, down in ((False, "e", "f"), (True, "e*", "f*")):
            frag = g22.fragment(bound, star=star)
            rows = cartan.crystal_rows(CrystalFragment(frag.cartan, order, frag.wt, frag.local))
            for _, i, color_rows in rows:
                tables = suites._color_counts(order, color_rows, i, _STEPS[up], _STEPS[down], cap)
                for kind, counts in zip((up, down), tables):
                    walked = [_count_applications(c, i, _STEPS[kind], cap) for c in order]
                    assert counts == walked, (kind, i)


def test_verify_star_reports_a_chain_broken_in_the_middle(monkeypatch, capsys):
    broken = C((1, 0, 0, 1), (0, 0))
    above = [c for c in g22.iter_components(6) for i in g22.COLORS if g22.apply_e(c, i) == broken]
    assert above and any(g22.apply_e(broken, i) is not None for i in g22.COLORS)
    # e vanishes at broken, in the plain rows (g22.local) and in the walks (g22.apply_e).
    apply_e, local = g22.apply_e, g22.local
    monkeypatch.setattr(g22, "apply_e", lambda c, i: None if c == broken else apply_e(c, i))
    monkeypatch.setattr(g22, "local", lambda c, i: (
        (local(c, i)[0], None, local(c, i)[2]) if c == broken else local(c, i)))
    expected = _walked_star_mismatches(6)
    assert len(expected) == 10
    code = cli.main(["verify", "star", "--bound", "6"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["ok"] is False
    assert payload["iteration_mismatch_count"] == len(expected)
    assert payload["iteration_mismatches"] == expected[:20]


def test_verify_star_applies_each_star_operator_once_per_fragment_pair(monkeypatch):
    # Both star operators at a fragment pair come from its one g22.local_star
    # call; no walk with apply_e_star or apply_f_star starts in the fragment.
    members = set(g22.iter_components(6))
    calls = {}
    for name in ("local_star", "apply_e_star", "apply_f_star"):
        def counted(c, i, name=name, step=getattr(g22, name)):
            if c in members:
                calls[name, c, i] = calls.get((name, c, i), 0) + 1
            return step(c, i)
        monkeypatch.setattr(g22, name, counted)
    assert suites.suite_star(6)["ok"]
    assert {name for name, _, _ in calls} == {"local_star"}
    assert len(calls) == len(members) * len(g22.COLORS)
    assert max(calls.values()) == 1


def _count_calls(monkeypatch, names):
    """Count the calls of the named g22 functions, keyed by (name, *args)."""
    calls = {}
    for name in names:
        def counted(*args, name=name, fn=getattr(g22, name)):
            calls[(name, *args)] = calls.get((name, *args), 0) + 1
            return fn(*args)
        monkeypatch.setattr(g22, name, counted)
    return calls


def test_axioms2x2_gates_as_often_as_the_operators_did(monkeypatch, capsys):
    # One local call per element and color, and one more per image outside
    # the fragment, in each family; the candidates pass ranks_valid as often
    # as when each operator gated its own result (4,748 calls at bound 6,
    # with the constructor's calls for the enumeration).
    members = set(g22.iter_components(6))
    maps = {"local": g22.local, "local_star": g22.local_star}
    outside = {name: {(f, i) for c in members for i in g22.COLORS
                      if (f := local(c, i)[2]) is not None and f not in members}
               for name, local in maps.items()}
    calls = _count_calls(monkeypatch, ("ranks_valid", *maps))
    assert cli.main(["verify", "axioms2x2", "--bound", "6"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    rank_checks = sum(n for (name, *_), n in calls.items() if name == "ranks_valid")
    assert rank_checks == 4748
    for name in maps:
        seen = {tuple(args): n for (called, *args), n in calls.items() if called == name}
        expected = {(c, i) for c in members for i in g22.COLORS} | outside[name]
        assert outside[name] and set(seen) == expected and set(seen.values()) == {1}, name


def test_duality_reads_two_local_calls_per_component_and_color(monkeypatch):
    calls = _count_calls(monkeypatch, ("local", "local_star"))
    assert suites.suite_duality(10)["ok"]
    assert sum(calls.values()) == 2 * 1379 * 4 == 11032
    a = g22.VERTEX_INVOLUTION
    assert {key for key in calls if key[0] == "local_star"} == {
        ("local_star", c, i) for c in g22.iter_components(10) for i in g22.COLORS}
    assert {key for key in calls if key[0] == "local"} == {
        ("local", g22.dual(c), a[i]) for c in g22.iter_components(10) for i in g22.COLORS}


def test_verify_star_reads_epsilon_only_through_the_prime_closed_forms(monkeypatch):
    # The plain rows come from g22.local, whose one case call per element and
    # color gives epsilon without calling g22.epsilon: at bound 10 that is
    # 5,516 calls fewer (one per element and color) than the 10,409 made when
    # the local map called g22.epsilon.  The calls left are epsilon_prime's own.
    calls = [0]
    epsilon = g22.epsilon

    def counted(c, i):
        calls[0] += 1
        return epsilon(c, i)

    monkeypatch.setattr(g22, "epsilon", counted)
    assert suites.suite_star(10)["ok"]
    assert calls[0] == 10409 - 5516
    calls[0] = 0
    elements = tuple(g22.iter_components(10))
    for c in elements:
        for i in g22.COLORS:
            g22.epsilon_prime(c, i)
    assert calls[0] == 10409 - 5516
    assert len(elements) * len(g22.COLORS) == 5516


def test_epsilon_prime_never_exceeds_epsilon():
    strict = False
    for c in g22.iter_components(6):
        for i in g22.COLORS:
            assert g22.epsilon_prime(c, i) <= g22.epsilon(c, i)
            if g22.epsilon_prime(c, i) < g22.epsilon(c, i):
                strict = True
    assert strict


# --- duality --------------------------------------------------------------------


def test_dual_examples():
    assert g22.dual(C((2, 1, 1, 2), (1, 1))) == C((2, 1, 1, 2), (1, 1))
    assert g22.dual(C((3, 1, 1, 0), (2, 0))) == C((0, 1, 1, 3), (0, 2))
    c = C((1, 2, 0, 4), (1, 1))
    assert g22.dual(g22.dual(c)) == c


def test_star_family_is_dual_conjugate():
    """The exact counts, which verify duality does not check."""
    a = g22.VERTEX_INVOLUTION
    for c in g22.iter_components(6):
        for i in g22.COLORS:
            assert g22.epsilon_star_prime(c, i) == g22.epsilon_prime(g22.dual(c), a[i])
            assert g22.phi_star_prime(c, i) == g22.phi_prime(g22.dual(c), a[i])


# --- words ------------------------------------------------------------------------


def test_parse_and_format_word():
    word = g22.parse_word("f3 f1 e*2 f*4")
    assert word == (("f", 3), ("f", 1), ("e*", 2), ("f*", 4))
    assert g22.format_word(word) == "f3 f1 e*2 f*4"
    with pytest.raises(ValueError):
        g22.parse_word("g5")
    with pytest.raises(ValueError):
        g22.parse_word("f0")
    with pytest.raises(ValueError):
        apply_word(g22.parse_word("f9"), ZERO_COMPONENT)


def test_apply_word_absorbs_vanishing():
    word = g22.parse_word("f1 f4")
    result, trace = apply_word(word, C((0, 1, 0, 0), (0, 0)))
    assert result is None
    assert trace[-1] is None


def test_connectivity_word_replay():
    c = C((1, 1, 1, 2), (1, 1))
    word = g22.connectivity_word(c)
    assert len(word) == sum(c.dims)
    result, trace = apply_word(word, c)
    assert result == ZERO_COMPONENT
    assert all(step is not None for step in trace)


def test_connectivity_word_empty_for_base():
    assert g22.connectivity_word(ZERO_COMPONENT) == ()


def test_connectivity_word_order():
    word = g22.connectivity_word(C((2, 1, 1, 2), (2, 0)))
    assert word == (("e", 3), ("e", 2), ("e", 1), ("e", 1), ("e", 4), ("e", 4))
    result, _ = apply_word(word, C((2, 1, 1, 2), (2, 0)))
    assert result == ZERO_COMPONENT


# --- lowering graph -----------------------------------------------------------------


def test_graph_contains_sink_chain():
    nodes, edges = lowering_graph(ZERO_COMPONENT, 2)
    chain = [C((0, 0, 0, k), (0, 0)) for k in range(3)]
    assert set(chain) <= set(nodes)
    assert (chain[0], 4, chain[1]) in edges
    assert (chain[1], 4, chain[2]) in edges


def test_graph_bound_zero_is_single_node():
    assert lowering_graph(ZERO_COMPONENT, 0) == ([ZERO_COMPONENT], [])


def test_graph_from_nonzero_seed():
    seed = C((1, 1, 1, 1), (1, 1))
    nodes, edges = lowering_graph(seed, 5)
    assert nodes[0] == seed
    assert (seed, 1, C((2, 1, 1, 1), (1, 1))) in edges


def test_graph_rejects_bound_below_seed():
    with pytest.raises(ValueError, match="bound 2 is below a seed of total dimension 4"):
        cartan.lowering_closure(C((1, 1, 1, 1), (1, 1)), 4, g22.apply_f, g22.COLORS, 2)


def test_graph_weight_drops_along_edges():
    _, edges = lowering_graph(ZERO_COMPONENT, 4)
    assert edges
    for src, color, dst in edges:
        diff = [a - b for a, b in zip(g22.weight(src), g22.weight(dst))]
        assert diff == [1 if k == color - 1 else 0 for k in range(4)]


def test_connectivity_with_universe():
    # The closure of the base point is every component below the bound, in
    # the enumeration's order.
    nodes, edges = lowering_graph(ZERO_COMPONENT, 6)
    assert nodes == list(g22.iter_components(6))
    order = {c: k for k, c in enumerate(nodes)}
    keys = [(order[s], i, order[t]) for s, i, t in edges]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_counterexample_words_collide():
    word_a, word_b = g22.counterexample_words()
    end_a, trace_a = apply_word(word_a, ZERO_COMPONENT)
    end_b, _ = apply_word(word_b, ZERO_COMPONENT)
    assert end_a == end_b == C((2, 0, 2, 2), (0, 2))
    assert [g22.format_component(c) for c in trace_a] == [
        "0,0,0,0:0,0", "0,0,0,1:0,0", "0,0,0,2:0,0", "0,0,1,2:0,1",
        "1,0,1,2:0,1", "2,0,1,2:0,1", "2,0,2,2:0,2"]


# --- text format --------------------------------------------------------------------


def test_component_text_round_trip():
    c = C((2, 1, 1, 2), (0, 2))
    assert g22.parse_component(g22.format_component(c)) == c
    with pytest.raises(ValueError):
        g22.parse_component("1,2,3")
    with pytest.raises(InvalidComponentError):
        g22.parse_component("1,1,1,1:9,9")
