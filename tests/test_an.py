import pytest
from hypothesis import given, settings, strategies as st

from crystal_grid import an, cartan


def test_raising_at_left_edge():
    assert an.apply_e((1, 0), 1) == (0, 0)


def test_raising_blocked_by_left_neighbor():
    assert an.apply_e((2, 2), 2) is None


def test_raising_interior():
    assert an.apply_e((1, 3, 1), 2) == (1, 2, 1)


def test_lowering_at_left_edge_always_defined():
    assert an.apply_f((0, 0, 0), 1) == (1, 0, 0)


def test_lowering_blocked():
    assert an.apply_f((3, 1, 0), 2) is None


def test_lowering_interior():
    assert an.apply_f((1, 1, 1), 3) == (1, 1, 2)


def test_star_raising_at_right_edge():
    assert an.apply_e_star((0, 0, 0, 1), 4) == (0, 0, 0, 0)


def test_star_lowering_blocked():
    assert an.apply_f_star((1, 2), 1) is None


def test_star_lowering_defined_on_tie():
    # the defined branch compares against the right neighbor; duality
    # route: flip, lower at the mirrored color, flip back
    c = (2, 1, 1)
    direct = an.apply_f_star(c, 2)
    routed = an.dual(an.apply_f((1, 1, 2), 2))
    assert direct == (2, 2, 1) == routed


def test_epsilon_examples():
    assert an.epsilon((3, 1), 1) == 3
    assert an.epsilon((2, 2), 2) == 0
    assert an.epsilon((0, 5), 2) == 5


def test_dual_reverses():
    assert an.dual((1, 2, 3)) == (3, 2, 1)
    assert an.dual(an.dual((4, 0, 7))) == (4, 0, 7)


def test_duality_identity_both_vanish():
    assert an.apply_e_star((2, 1, 1), 2) is None
    assert an.apply_e(an.dual((2, 1, 1)), 2) is None


def _routed(op, dims, i):
    n = len(dims)
    image = op(an.dual(dims), n - i + 1)
    return an.dual(image) if image is not None else None


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=5), st.data())
def test_star_operators_are_dual_conjugates(dims, data):
    dims = tuple(dims)
    i = data.draw(st.integers(1, len(dims)))
    assert an.apply_e_star(dims, i) == _routed(an.apply_e, dims, i)
    assert an.apply_f_star(dims, i) == _routed(an.apply_f, dims, i)


def test_star_statistics_are_dual_conjugates():
    for dims in an.iter_dims(4, 6):
        for i in (1, 2, 3, 4):
            assert an.epsilon_star(dims, i) == an.epsilon(an.dual(dims), 4 - i + 1)


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
            down = an.apply_f(dims, i)
            if down is not None and sum(down) <= 6:
                assert an.apply_e(down, i) == dims
            up = an.apply_e(dims, i)
            if up is not None:
                assert an.apply_f(up, i) == dims


@pytest.mark.parametrize("fn", [an.apply_e, an.apply_f, an.apply_e_star, an.apply_f_star,
                                an.epsilon, an.epsilon_star],
                         ids=lambda fn: fn.__name__)
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
            y = an.apply_f(x, i)
            if y is not None and sum(y) <= 6 and y not in seen:
                seen.add(y)
                queue.append(y)
    assert seen == set(an.iter_dims(4, 6))
