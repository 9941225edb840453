import itertools

import pytest

from crystal_grid import cartan, g22, grid


def test_two_by_two_grid_counts():
    q = grid.build_grid((2, 2))
    assert len(q.vertices) == 4
    assert len(q.arrows) == 4
    assert len(q.relations) == 1


def test_chain_has_no_relations():
    q = grid.build_grid((5,))
    assert len(q.vertices) == 5
    assert len(q.arrows) == 4
    assert q.relations == ()


def test_three_by_two_counts():
    q = grid.build_grid((3, 2))
    assert len(q.vertices) == 6
    assert len(q.arrows) == 7
    assert len(q.relations) == 2


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 3, 2), (4,)])
def test_arrow_count_formula(shape):
    q = grid.build_grid(shape)
    expected = 0
    for axis, m in enumerate(shape):
        block = m - 1
        for k, other in enumerate(shape):
            if k != axis:
                block *= other
        expected += block
    assert len(q.arrows) == expected


def test_rejects_empty_extent():
    with pytest.raises(ValueError):
        grid.build_grid((2, 0))
    with pytest.raises(ValueError):
        grid.build_grid(())


def test_relations_are_unit_squares():
    q = grid.build_grid((3, 3))
    for (path_a, path_b) in q.relations:
        start = path_a[0][0]
        end = path_a[1][1]
        assert path_b[0][0] == start and path_b[1][1] == end
        assert sum(e - s for s, e in zip(start, end)) == 2


def _flip(q, v):
    """The coordinate flip v |-> m - v + 1, an isomorphism onto the opposite quiver."""
    return tuple(m - x + 1 for m, x in zip(q.shape, v))


def _out(q, v):
    return {w for u, w in q.arrows if u == v}


def _in(q, v):
    return {u for u, w in q.arrows if w == v}


def test_neighborhoods_source_corner():
    q = grid.build_grid((2, 2))
    assert _out(q, (1, 1)) == {(2, 1), (1, 2)}
    assert _in(q, (1, 1)) == set()
    # the one square closes the two out-neighbors at the sink
    assert q.relations == (((((1, 1), (2, 1)), ((2, 1), (2, 2))),
                            (((1, 1), (1, 2)), ((1, 2), (2, 2)))),)


def test_neighborhoods_sink_corner():
    q = grid.build_grid((2, 2))
    assert _in(q, (2, 2)) == {(1, 2), (2, 1)}
    assert _out(q, (2, 2)) == set()


def test_neighborhoods_chain_interior():
    q = grid.build_grid((3,))
    assert _out(q, (2,)) == {(3,)}
    assert _in(q, (2,)) == {(1,)}


def test_neighborhoods_swap_under_involution():
    # The flip sends each square v -> u -> w onto the square flip(w) -> flip(u) -> flip(v).
    q = grid.build_grid((3, 2))
    squares = {(a[0][0], a[0][1], b[0][1], a[1][1]) for a, b in q.relations}
    assert {(_flip(q, w), _flip(q, u2), _flip(q, u1), _flip(q, v))
            for v, u1, u2, w in squares} == squares


def test_involution_corner_numbering():
    # g22's corner involution is the coordinate flip of the 2x2 grid.
    for k, v in g22.VERTEX_OF.items():
        assert g22.VERTEX_OF[g22.VERTEX_INVOLUTION[k]] == _flip(g22.QUIVER, v)


def test_involution_reverses_arrows():
    q = grid.build_grid((3, 2))
    arrows = set(q.arrows)
    for u, w in itertools.product(q.vertices, repeat=2):
        flipped = (_flip(q, w), _flip(q, u))
        assert ((u, w) in arrows) == (flipped in arrows)


def test_cartan_invariant_under_involution():
    q = grid.build_grid((3, 2))
    a = cartan.cartan_from_quiver(q)
    assert a.entries == tuple(zip(*a.entries))
    for i, u in enumerate(q.vertices):
        for j, w in enumerate(q.vertices):
            iu = a.position(_flip(q, u))
            iw = a.position(_flip(q, w))
            assert a.entries[i][j] == a.entries[iu][iw]


def test_dimension_vectors_counts():
    assert len(list(grid.dimension_vectors(2, 3))) == 10
    assert list(grid.dimension_vectors(1, 2)) == [(0,), (1,), (2,)]
    assert all(sum(d) <= 4 for d in grid.dimension_vectors(3, 4))
    with pytest.raises(ValueError, match="negative bound -1"):
        next(grid.dimension_vectors(4, -1))


def test_dimension_vectors_run_by_total_then_lexicographically():
    for n in (1, 2, 3, 4):
        expected = [d for total in range(7)
                    for d in itertools.product(range(total + 1), repeat=n) if sum(d) == total]
        assert list(grid.dimension_vectors(n, 6)) == expected
