import json
from math import inf

import pytest

from crystal_grid import an, cartan, g22, grid
from crystal_grid.cartan import CartanMatrix, CrystalFragment


def test_cartan_of_two_vertex_chain():
    a = cartan.cartan_from_quiver(grid.build_grid((2,)))
    assert a.entries == ((2, -1), (-1, 2))


def test_cartan_of_two_by_two_grid():
    assert g22.CARTAN.entries == (
        (2, -1, -1, 0),
        (-1, 2, 0, -1),
        (-1, 0, 2, -1),
        (0, -1, -1, 2),
    )
    assert g22.CARTAN.is_symmetric()


def test_cartan_of_single_vertex():
    a = cartan.cartan_from_quiver(grid.build_grid((1,)))
    assert a.entries == ((2,),)


def test_cartan_matrix_validation():
    with pytest.raises(ValueError):
        CartanMatrix((1, 2), ((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        CartanMatrix((1, 2), ((2, 1), (1, 2)))
    with pytest.raises(ValueError):
        CartanMatrix((1, 2), ((2, -1), (0, 2)))


def test_pairing_diagonal():
    w = (-1, 0, 0, 0)
    assert cartan.pairing(g22.CARTAN, 1, w) == -2


def test_pairing_mixed_weight():
    w = (-1, -1, -1, -2)
    assert cartan.pairing(g22.CARTAN, 1, w) == 0


def test_pairing_off_diagonal_chain():
    a = an.chain_cartan(2)
    assert cartan.pairing(a, 1, (0, -1)) == 1


def test_pairing_unknown_vertex():
    with pytest.raises(KeyError):
        cartan.pairing(g22.CARTAN, 9, (0, 0, 0, 0))


@pytest.mark.parametrize("a", [
    g22.CARTAN,
    an.chain_cartan(4),
    CartanMatrix(("x", "y", "z"), ((2, -1, 0), (-3, 2, -2), (0, -1, 2))),   # not symmetric
], ids=["g22", "A4", "nonsymmetric"])
def test_position_map_agrees_with_the_index_set(a):
    n = len(a.index_set)
    coeffs = tuple(range(1, n + 1))
    for k, v in enumerate(a.index_set):
        assert a.position(v) == a.index_set.index(v) == k
        assert cartan.pairing(a, v, coeffs) == sum(
            a.entries[k][j] * coeffs[j] for j in range(n))
    for unknown in (0, "w", (1, 1), n + 1, [1]):
        with pytest.raises(KeyError, match="unknown vertex"):
            a.position(unknown)
        with pytest.raises(KeyError, match="unknown vertex"):
            cartan.pairing(a, unknown, (0,) * n)
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError, match="length mismatch"):
            cartan.pairing(a, a.index_set[0], (0,) * length)


def test_axiom_check_clean_fragments():
    assert cartan.check_crystal_axioms(g22.fragment(6)).ok
    assert cartan.check_crystal_axioms(an.fragment(3, 6)).ok


def test_axiom_check_flags_corrupted_epsilon():
    base = an.fragment(2, 4)
    corrupted = CrystalFragment(
        cartan=base.cartan,
        elements=base.elements,
        wt=base.wt,
        epsilon=lambda b, i: base.epsilon(b, i) + 1,
        phi=base.phi,
        apply_e=base.apply_e,
        apply_f=base.apply_f,
    )
    report = cartan.check_crystal_axioms(corrupted)
    assert not report.ok
    assert 1 in report.by_rule() or 2 in report.by_rule()
    assert all(rule in (1, 2, 3) for rule in report.by_rule())


def _g22_graph(bound, seeds=None):
    seeds = seeds if seeds is not None else [g22.ZERO_COMPONENT]
    return cartan.build_crystal_graph(seeds, g22.COLORS, g22.apply_f, g22.describe, bound)


def test_graph_contains_sink_chain():
    graph = _g22_graph(2)
    ids = {n.node_id for n in graph.nodes}
    assert {"0,0,0,0:0,0", "0,0,0,1:0,0", "0,0,0,2:0,0"} <= ids
    assert ("0,0,0,0:0,0", 4, "0,0,0,1:0,0") in graph.edges
    assert ("0,0,0,1:0,0", 4, "0,0,0,2:0,0") in graph.edges


def test_graph_bound_zero_is_single_node():
    graph = _g22_graph(0)
    assert len(graph.nodes) == 1
    assert graph.edges == ()


def test_graph_from_nonzero_seed():
    seed = g22.Component((1, 1, 1, 1), (1, 1))
    graph = _g22_graph(5, [seed])
    assert ("1,1,1,1:1,1", 1, "2,1,1,1:1,1") in graph.edges


def test_graph_rejects_bound_below_seed():
    with pytest.raises(ValueError):
        _g22_graph(2, [g22.Component((1, 1, 1, 1), (1, 1))])


def test_graph_weight_drops_along_edges():
    graph = _g22_graph(4)
    nodes = {n.node_id: n for n in graph.nodes}
    for (src, color, dst) in graph.edges:
        w_src, w_dst = nodes[src].weight, nodes[dst].weight
        diff = [a - b for a, b in zip(w_src, w_dst)]
        assert diff == [1 if k == color - 1 else 0 for k in range(4)]


def test_graph_exports_are_deterministic():
    first = _g22_graph(4)
    second = _g22_graph(4)
    assert cartan.export_json(first) == cartan.export_json(second)
    assert cartan.export_dot(first) == cartan.export_dot(second)


def test_dot_format():
    empty = cartan.CrystalGraph((), ())
    assert cartan.export_dot(empty) == "digraph crystal_graph {\n}\n"
    graph = _g22_graph(1)
    dot = cartan.export_dot(graph)
    assert '"0,0,0,0:0,0" -> "0,0,0,1:0,0" [label="4"];' in dot
    assert dot.endswith("}\n")


def test_json_round_trip():
    graph = _g22_graph(3)
    text = cartan.export_json(graph)
    payload = json.loads(text)
    assert [(n["id"], tuple(n["dims"]), tuple(n["ranks"]), tuple(n["wt"]))
            for n in payload["nodes"]] == [(n.node_id, n.dims, n.ranks, n.weight)
                                            for n in graph.nodes]
    assert [(e["src"], e["color"], e["dst"]) for e in payload["edges"]] == list(graph.edges)
    assert text.endswith("\n")
    assert '"ranks":' in text and '"wt":' in text


def test_connectivity_single_node():
    report = cartan.is_connected_within(_g22_graph(0))
    assert report.connected
    assert report.witnesses == {"0,0,0,0:0,0": ()}


def test_connectivity_with_universe():
    bound = 6
    graph = _g22_graph(bound)
    ids = [g22.format_component(c) for c in g22.iter_components(bound)]
    report = cartan.is_connected_within(graph, expected_ids=ids)
    assert report.connected
    # every witness word really walks back to the base point
    comps = {g22.format_component(c): c for c in g22.iter_components(bound)}
    for nid, word in report.witnesses.items():
        state = comps[nid]
        for color in word:
            state = g22.apply_e(state, color)
            assert state is not None
        assert state == g22.ZERO_COMPONENT


def test_connectivity_reports_missing():
    graph = _g22_graph(2)
    report = cartan.is_connected_within(graph, expected_ids=["9,9,9,9:0,0"])
    assert not report.connected
    assert report.missing == ("9,9,9,9:0,0",)


def test_connectivity_chain_crystal():
    graph = cartan.build_crystal_graph(
        [(0, 0, 0, 0)], an.chain_cartan(4).index_set, an.apply_f, an.describe, 6)
    ids = [",".join(map(str, d)) for d in an.iter_dims(4, 6)]
    assert cartan.is_connected_within(graph, expected_ids=ids).connected


def test_morphism_identity_passes():
    frag = g22.fragment(5)
    report = cartan.check_strict_morphism(frag, frag, lambda b: b)
    assert report.ok


def test_morphism_duality_passes():
    report = cartan.check_strict_morphism(
        g22.fragment(6, star=True), g22.relabeled_fragment(6), g22.dual)
    assert report.ok


def test_morphism_collapse_fails_weight_clause():
    frag = g22.fragment(4)
    report = cartan.check_strict_morphism(frag, frag, lambda b: g22.ZERO_COMPONENT)
    assert not report.ok
    assert any(rule == 1 for rule, *_ in report.violations)


# --- one fragment per checker clause -----------------------------------------
# B(infinity) of sl2 on the naturals: wt(n) = -n alpha, epsilon(n) = n,
# phi(n) = -n, e(n) = n - 1 (none at 0), f(n) = n + 1.  The fragment holds the
# single element 1, whose neighbors 0 and 2 are reached only through the
# operators, so a map changed at one point breaks exactly one clause.

RANK1 = CartanMatrix((1,), ((2,),))
_CLEAN = dict(
    wt=lambda n: (-n,),
    epsilon=lambda n, i: n,
    phi=lambda n, i: -n,
    apply_e=lambda n, i: n - 1 if n > 0 else None,
    apply_f=lambda n, i: n + 1,
)


def _b_infinity(**maps):
    return CrystalFragment(cartan=RANK1, elements=(1,), **{**_CLEAN, **maps})


def _at(name, point, value):
    """The clean map `name`, changed to return value at one point."""
    base = _CLEAN[name]
    return lambda n, *i: value if n == point else base(n, *i)


def test_clause_fragments_clean_control():
    frag = _b_infinity()
    assert cartan.check_crystal_axioms(frag).ok
    assert cartan.check_strict_morphism(frag, frag, lambda b: b).ok


@pytest.mark.parametrize("maps, rule, message", [
    ({"phi": lambda n, i: 1 - n}, 1, "phi=0 but eps+pairing=-1"),
    ({"wt": _at("wt", 0, (-5,))}, 2, "weight of raised element is not wt+alpha_i"),
    ({"epsilon": _at("epsilon", 0, 5)}, 2, "epsilon 5 != 1 - 1 after raising"),
    ({"phi": _at("phi", 0, 5)}, 2, "phi 5 != -1 + 1 after raising"),
    ({"wt": _at("wt", 2, (-5,))}, 3, "weight of lowered element is not wt-alpha_i"),
    ({"epsilon": _at("epsilon", 2, 5)}, 3, "epsilon 5 != 1 + 1 after lowering"),
    ({"phi": _at("phi", 2, 5)}, 3, "phi 5 != -1 - 1 after lowering"),
    ({"apply_f": _at("apply_f", 0, 7)}, 4, "lowering does not invert raising"),
    ({"apply_e": _at("apply_e", 2, 7)}, 4, "raising does not invert lowering"),
    ({"phi": lambda n, i: -inf}, 5, "operators defined although phi is -infinity"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_axiom_check_flags_exactly_the_broken_clause(maps, rule, message):
    report = cartan.check_crystal_axioms(_b_infinity(**maps))
    assert report.violations == ((rule, 1, 1, message),)


@pytest.mark.parametrize("maps, violation", [
    ({"wt": _at("wt", 1, (-5,))}, (1, 1, None, "weight not preserved")),
    ({"epsilon": _at("epsilon", 1, 5)}, (1, 1, 1, "epsilon not preserved")),
    ({"phi": _at("phi", 1, 5)}, (1, 1, 1, "phi not preserved")),
    ({"apply_e": _at("apply_e", 1, 7)}, (2, 1, 1, "raising does not commute with the map")),
    ({"apply_f": _at("apply_f", 1, 7)}, (3, 1, 1, "lowering does not commute with the map")),
], ids=lambda v: v[-1] if isinstance(v, tuple) else None)
def test_morphism_check_flags_exactly_the_broken_clause(maps, violation):
    report = cartan.check_strict_morphism(_b_infinity(), _b_infinity(**maps), lambda b: b)
    assert report.violations == (violation,)
