import pytest
from hypothesis import given, settings, strategies as st

from crystal_grid import an, cartan

# The operators of a word, read off an.local and an.local_star.
apply_e, apply_f, apply_e_star, apply_f_star = (an.STEPS[k] for k in ("e", "f", "e*", "f*"))


def epsilon(dims, i):
    return an.local(dims, i)[0]


def epsilon_star(dims, i):
    return an.local_star(dims, i)[0]


# --- the per-function forms ------------------------------------------------------
# The chain's operators and statistics as one function each, as they were
# before each family became one local map; the oracle for an.local and
# an.local_star.


def _neighbors(dims, i):
    if not 1 <= i <= len(dims):
        raise ValueError(f"color {i} out of range for a chain of length {len(dims)}")
    left = dims[i - 2] if i >= 2 else 0
    right = dims[i] if i < len(dims) else 0
    return left, dims[i - 1], right


def _apply_e(dims, i):
    left, d, _ = _neighbors(dims, i)
    if left < d:
        return dims[:i - 1] + (d - 1,) + dims[i:]
    return None


def _apply_f(dims, i):
    left, d, _ = _neighbors(dims, i)
    if left <= d:
        return dims[:i - 1] + (d + 1,) + dims[i:]
    return None


def _apply_e_star(dims, i):
    _, d, right = _neighbors(dims, i)
    if d > right:
        return dims[:i - 1] + (d - 1,) + dims[i:]
    return None


def _apply_f_star(dims, i):
    _, d, right = _neighbors(dims, i)
    if d >= right:
        return dims[:i - 1] + (d + 1,) + dims[i:]
    return None


def _epsilon(dims, i) -> int:
    """Generic cokernel dimension of the incoming map at vertex i."""
    left, d, _ = _neighbors(dims, i)
    return max(0, d - left)


def _epsilon_star(dims, i) -> int:
    """Generic kernel dimension of the outgoing map at vertex i."""
    _, d, right = _neighbors(dims, i)
    return max(0, d - right)


def test_local_maps_match_the_per_function_forms():
    checked = 0
    for n in range(1, 6):
        for dims in an.iter_dims(n, 7):
            for i in range(1, n + 1):
                assert an.local(dims, i) == (_epsilon(dims, i), _apply_e(dims, i),
                                             _apply_f(dims, i)), (dims, i)
                assert an.local_star(dims, i) == (_epsilon_star(dims, i), _apply_e_star(dims, i),
                                                  _apply_f_star(dims, i)), (dims, i)
                checked += 1
    assert checked == 8 + 72 + 360 + 1320 + 3960


def test_fragments_pass_the_local_maps():
    assert an.fragment(3, 4).local is an.local
    assert an.fragment(3, 4, star=True).local is an.local_star


def test_raising_at_left_edge():
    assert apply_e((1, 0), 1) == (0, 0)


def test_raising_blocked_by_left_neighbor():
    assert apply_e((2, 2), 2) is None


def test_raising_interior():
    assert apply_e((1, 3, 1), 2) == (1, 2, 1)


def test_lowering_at_left_edge_always_defined():
    assert apply_f((0, 0, 0), 1) == (1, 0, 0)


def test_lowering_blocked():
    assert apply_f((3, 1, 0), 2) is None


def test_lowering_interior():
    assert apply_f((1, 1, 1), 3) == (1, 1, 2)


def test_star_raising_at_right_edge():
    assert apply_e_star((0, 0, 0, 1), 4) == (0, 0, 0, 0)


def test_star_lowering_blocked():
    assert apply_f_star((1, 2), 1) is None


def test_star_lowering_defined_on_tie():
    # the defined branch compares against the right neighbor; duality
    # route: flip, lower at the mirrored color, flip back
    c = (2, 1, 1)
    direct = apply_f_star(c, 2)
    routed = an.dual(apply_f((1, 1, 2), 2))
    assert direct == (2, 2, 1) == routed


def test_epsilon_examples():
    assert epsilon((3, 1), 1) == 3
    assert epsilon((2, 2), 2) == 0
    assert epsilon((0, 5), 2) == 5


def test_dual_reverses():
    assert an.dual((1, 2, 3)) == (3, 2, 1)
    assert an.dual(an.dual((4, 0, 7))) == (4, 0, 7)


def test_duality_identity_both_vanish():
    assert apply_e_star((2, 1, 1), 2) is None
    assert apply_e(an.dual((2, 1, 1)), 2) is None


def _routed(op, dims, i):
    n = len(dims)
    image = op(an.dual(dims), n - i + 1)
    return an.dual(image) if image is not None else None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=5), st.data())
def test_star_operators_are_dual_conjugates(dims, data):
    dims = tuple(dims)
    i = data.draw(st.integers(1, len(dims)))
    assert apply_e_star(dims, i) == _routed(apply_e, dims, i)
    assert apply_f_star(dims, i) == _routed(apply_f, dims, i)


def test_star_statistics_are_dual_conjugates():
    for dims in an.iter_dims(4, 6):
        for i in (1, 2, 3, 4):
            assert epsilon_star(dims, i) == epsilon(an.dual(dims), 4 - i + 1)


def test_axioms_hold_exhaustively():
    for n in (1, 2, 3, 4):
        assert cartan.check_crystal_axioms(an.fragment(n, 6)).ok
        assert cartan.check_crystal_axioms(an.fragment(n, 6, star=True)).ok


def test_iter_dims_counts():
    assert len(list(an.iter_dims(2, 3))) == 10
    assert set(an.iter_dims(1, 2)) == {(0,), (1,), (2,)}
    assert all(sum(d) <= 4 for d in an.iter_dims(3, 4))


def test_mutual_inversion_exhaustive():
    for dims in an.iter_dims(4, 6):
        for i in (1, 2, 3, 4):
            down = apply_f(dims, i)
            if down is not None and sum(down) <= 6:
                assert apply_e(down, i) == dims
            up = apply_e(dims, i)
            if up is not None:
                assert apply_f(up, i) == dims


# Every public entry point: the four steps of an.STEPS, under the names of
# their operators, and the two local maps, under the names of the statistics
# they carry.
@pytest.mark.parametrize("fn", [
    pytest.param(fn, id=name) for name, fn in (
        ("apply_e", apply_e), ("apply_f", apply_f), ("apply_e_star", apply_e_star),
        ("apply_f_star", apply_f_star), ("epsilon", an.local), ("epsilon_star", an.local_star))])
def test_out_of_range_color_raises(fn):
    for color in (0, 4):
        with pytest.raises(ValueError, match=f"color {color} out of range"):
            fn((1, 0, 2), color)


def test_connectivity_chain_crystal():
    # Breadth-first over the lowering operators: every length-4 vector with
    # total at most 6 is reached from zero.
    seen = {(0, 0, 0, 0)}
    queue = [(0, 0, 0, 0)]
    for x in queue:
        for i in range(1, 5):
            y = apply_f(x, i)
            if y is not None and sum(y) <= 6 and y not in seen:
                seen.add(y)
                queue.append(y)
    assert seen == set(an.iter_dims(4, 6))
