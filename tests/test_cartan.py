import json
from math import inf
from operator import mul
from types import SimpleNamespace

import pytest

from crystal_grid import an, binfty, cartan, cli, g22, grid, suites
from crystal_grid.cartan import NEG_INFINITY, CartanMatrix, CheckReport, CrystalFragment


def pairing(a: CartanMatrix, i, coeffs) -> int:
    """Evaluate <h_i, w> for w = sum_j coeffs_j alpha_j: the phi of the
    retired checkers below, which the package's checker derives from axiom 1
    without reading a pairing."""
    row = a.entries[a.position(i)]
    if len(coeffs) != len(row):
        raise ValueError("coefficient vector length mismatch")
    return sum(map(mul, row, coeffs))


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
    assert g22.CARTAN.entries == tuple(zip(*g22.CARTAN.entries))


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
    assert pairing(g22.CARTAN, 1, w) == -2


def test_pairing_mixed_weight():
    w = (-1, -1, -1, -2)
    assert pairing(g22.CARTAN, 1, w) == 0


def test_pairing_off_diagonal_chain():
    a = an.chain_cartan(2)
    assert pairing(a, 1, (0, -1)) == 1


def test_pairing_unknown_vertex():
    with pytest.raises(KeyError):
        pairing(g22.CARTAN, 9, (0, 0, 0, 0))


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
        assert pairing(a, v, coeffs) == sum(
            a.entries[k][j] * coeffs[j] for j in range(n))
    for unknown in (0, "w", (1, 1), n + 1, [1]):
        with pytest.raises(KeyError, match="unknown vertex"):
            a.position(unknown)
        with pytest.raises(KeyError, match="unknown vertex"):
            pairing(a, unknown, (0,) * n)
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError, match="length mismatch"):
            pairing(a, a.index_set[0], (0,) * length)


def test_axiom_check_clean_fragments():
    assert cartan.check_crystal_axioms(g22.fragment(6)).ok
    assert cartan.check_crystal_axioms(an.fragment(3, 6)).ok


def _fragment(cartan, elements, wt, epsilon, apply_e, apply_f):
    """A fragment whose local map joins the three named maps."""
    return CrystalFragment(cartan, elements, wt,
                           lambda b, i: (epsilon(b, i), apply_e(b, i), apply_f(b, i)))


def _maps(frag):
    """The fields _fragment takes, with epsilon, apply_e and apply_f read from local."""
    local = frag.local
    return dict(cartan=frag.cartan, elements=frag.elements, wt=frag.wt,
                epsilon=lambda b, i: local(b, i)[0], apply_e=lambda b, i: local(b, i)[1],
                apply_f=lambda b, i: local(b, i)[2])


def _corrupted_epsilon_fragment(point=(1, 1)):
    base = _maps(an.fragment(2, 4))
    return _fragment(**{**base, "epsilon": lambda b, i: base["epsilon"](b, i) + (b == point)})


def test_axiom_check_flags_corrupted_epsilon():
    """epsilon shifted at one element breaks the epsilon clauses of rules 2
    and 3 around it.  A uniform shift of epsilon satisfies every axiom once
    phi is derived from epsilon; ``verify oracle`` and
    ``test_an_oracle_concordance_small`` pin it against sampled points."""
    report = cartan.check_crystal_axioms(_corrupted_epsilon_fragment())
    assert not report.ok
    assert {rule for rule, *_ in report.violations} == {2, 3}
    assert all("epsilon" in message for *_, message in report.violations)
    assert (1, 1) in {b for _, b, _, _ in report.violations}


def _verify_duality(capsys, bound=4):
    code = cli.main(["verify", "duality", "--bound", str(bound)])
    return code, json.loads(capsys.readouterr().out)


def test_morphism_duality_passes():
    report = suites.suite_duality(6)
    assert report["ok"] is True
    assert report["morphism_violations"] == report["conjugation_failure_count"] == 0


def test_morphism_collapse_fails_weight_clause(capsys, monkeypatch):
    """A dual that collapses every component onto the base point.  Only the
    base point keeps its weight clause, and the statistic clause holds where
    epsilon* vanishes, so the morphism count is the sum of both clauses'
    failures.  No corruption of dual alone breaks the weight clause alone: an
    involution that passes the statistic clause fixes the base point, and the
    conjugation clause then makes it agree with dual below the bound."""
    components = list(g22.iter_components(4))
    weight_failures = len(components) - 1
    statistic_failures = sum(1 for c in components for i in g22.COLORS
                             if g22.epsilon_star(c, i) != 0)
    monkeypatch.setattr(g22, "dual", lambda c: g22.ZERO_COMPONENT)
    code, report = _verify_duality(capsys)
    assert code == 1
    assert weight_failures > 0 and statistic_failures > 0
    assert report["morphism_violations"] == weight_failures + statistic_failures


# --- one fragment per checker clause -----------------------------------------
# B(infinity) of sl2 on the naturals: wt(n) = -n alpha, epsilon(n) = n (so
# phi(n) = -n), e(n) = n - 1 (none at 0), f(n) = n + 1.  The fragment holds
# the single element 1, whose neighbors 0 and 2 are reached only through the
# operators, so a map changed at one point breaks exactly one clause.

RANK1 = CartanMatrix((1,), ((2,),))
_CLEAN = dict(
    wt=lambda n: (-n,),
    epsilon=lambda n, i: n,
    apply_e=lambda n, i: n - 1 if n > 0 else None,
    apply_f=lambda n, i: n + 1,
)


def _b_infinity(**maps):
    return _fragment(cartan=RANK1, elements=(1,), **{**_CLEAN, **maps})


def _at(name, point, value):
    """The clean map `name`, changed to return value at one point."""
    base = _CLEAN[name]
    return lambda n, *i: value if n == point else base(n, *i)


def test_clause_fragments_clean_control():
    assert cartan.check_crystal_axioms(_b_infinity()).ok


# Each row keeps its number for good, and the test ids carry it, so dropping
# a row renames no other test.
AXIOM_CLAUSES = {
    1: ({"wt": _at("wt", 0, (-5,))}, 2, "weight of raised element is not wt+alpha_i"),
    2: ({"epsilon": _at("epsilon", 0, 5)}, 2, "epsilon 5 != 1 - 1 after raising"),
    4: ({"wt": _at("wt", 2, (-5,))}, 3, "weight of lowered element is not wt-alpha_i"),
    5: ({"epsilon": _at("epsilon", 2, 5)}, 3, "epsilon 5 != 1 + 1 after lowering"),
    7: ({"apply_f": _at("apply_f", 0, 7)}, 4, "lowering does not invert raising"),
    8: ({"apply_e": _at("apply_e", 2, 7)}, 4, "raising does not invert lowering"),
    9: ({"epsilon": lambda n, i: -inf}, 5, "operators defined although epsilon is -infinity"),
}

# Each map changed at the fragment's element 1, as more inputs of the axiom
# verdict equivalence; the test ids carry the row numbers, kept for good.
MORPHISM_CLAUSES = {
    0: {"wt": _at("wt", 1, (-5,))},
    1: {"epsilon": _at("epsilon", 1, 5)},
    3: {"apply_e": _at("apply_e", 1, 7)},
    4: {"apply_f": _at("apply_f", 1, 7)},
}


@pytest.mark.parametrize("maps, rule, message", [
    pytest.param(maps, rule, message, id=f"maps{n}-{rule}-{message}")
    for n, (maps, rule, message) in AXIOM_CLAUSES.items()])
def test_axiom_check_flags_exactly_the_broken_clause(maps, rule, message):
    report = cartan.check_crystal_axioms(_b_infinity(**maps))
    assert report.violations == ((rule, 1, 1, message),)


def _slot(k, value):
    """A local triple with slot k (0 epsilon, 1 raising, 2 lowering) set to value."""
    return lambda triple: triple[:k] + (value,) + triple[k + 1:]


# One point changed per clause of ``verify duality``: (map, point, change of
# its value there, the count that flags it).  The suite reads the statistic
# and the star operators off g22.local_star, so those clauses change one slot
# of its triple.  The component 1,0,0,1:0,0 is its own dual, so the suite
# meets the changed weight at one component only.
_SELF_DUAL = g22.Component((1, 0, 0, 1), (0, 0))
DUALITY_CLAUSES = {
    0: ("weight", (_SELF_DUAL,), lambda wt: (-1, 0, 0, -2), "morphism_violations",
        "weight not preserved"),
    1: ("local_star", (_SELF_DUAL, 1), _slot(0, 5), "morphism_violations",
        "epsilon not preserved"),
    3: ("local_star", (_SELF_DUAL, 1), _slot(1, None), "conjugation_failure_count",
        "raising does not commute with the map"),
    4: ("local_star", (_SELF_DUAL, 1), _slot(2, None), "conjugation_failure_count",
        "lowering does not commute with the map"),
}


@pytest.mark.parametrize("name, point, change, count", [
    pytest.param(name, point, change, count, id=f"maps{n}-{message}")
    for n, (name, point, change, count, message) in DUALITY_CLAUSES.items()])
def test_morphism_check_flags_exactly_the_broken_clause(capsys, monkeypatch, name, point, change,
                                                        count):
    clean = getattr(g22, name)
    value = change(clean(*point))
    assert clean(*point) != value
    monkeypatch.setattr(g22, name, lambda *args: value if args == point else clean(*args))
    code, report = _verify_duality(capsys)
    assert code == 1
    counts = {key: report[key] for key in ("morphism_violations", "conjugation_failure_count")}
    assert counts == {key: int(key == count) for key in counts}


# --- the retired checkers, with phi as a map of the fragment ---------------------
# Both checkers as they were while fragments declared phi and three separate
# maps, kept verbatim as the reference for the checker that derives phi and
# reads one local map.  They read the split maps of _split, and frag.phi,
# which _split supplies as epsilon + <h_i, wt>; no clause the retired
# checkers held can then tell the two apart.


def _split(frag):
    maps = _maps(frag)

    def phi(b, i):
        return maps["epsilon"](b, i) + pairing(frag.cartan, i, frag.wt(b))
    return SimpleNamespace(**maps, colors=frag.colors, phi=phi)


def _alpha_step(cartan, i, coeffs, sign):
    pos = cartan.position(i)
    return coeffs[:pos] + (coeffs[pos] + sign,) + coeffs[pos + 1:]


def _retired_check_crystal_axioms(frag) -> CheckReport:
    """Exhaustively test the five crystal axioms on a fragment.

    Violations are reported as (axiom number, element, color, message).
    """
    bad = []
    for b in frag.elements:
        w = frag.wt(b)
        for i in frag.colors:
            eps = frag.epsilon(b, i)
            phi = frag.phi(b, i)
            if phi != NEG_INFINITY and phi != eps + pairing(frag.cartan, i, w):
                bad.append((1, b, i, f"phi={phi} but eps+pairing={eps + pairing(frag.cartan, i, w)}"))
            up = frag.apply_e(b, i)
            if up is not None:
                if frag.wt(up) != _alpha_step(frag.cartan, i, w, +1):
                    bad.append((2, b, i, "weight of raised element is not wt+alpha_i"))
                if frag.epsilon(up, i) != eps - 1:
                    bad.append((2, b, i, f"epsilon {frag.epsilon(up, i)} != {eps} - 1 after raising"))
                if frag.phi(up, i) != phi + 1:
                    bad.append((2, b, i, f"phi {frag.phi(up, i)} != {phi} + 1 after raising"))
                if frag.apply_f(up, i) != b:
                    bad.append((4, b, i, "lowering does not invert raising"))
            down = frag.apply_f(b, i)
            if down is not None:
                if frag.wt(down) != _alpha_step(frag.cartan, i, w, -1):
                    bad.append((3, b, i, "weight of lowered element is not wt-alpha_i"))
                if frag.epsilon(down, i) != eps + 1:
                    bad.append((3, b, i, f"epsilon {frag.epsilon(down, i)} != {eps} + 1 after lowering"))
                if frag.phi(down, i) != phi - 1:
                    bad.append((3, b, i, f"phi {frag.phi(down, i)} != {phi} - 1 after lowering"))
                if frag.apply_e(down, i) != b:
                    bad.append((4, b, i, "raising does not invert lowering"))
            if phi == NEG_INFINITY and (up is not None or down is not None):
                bad.append((5, b, i, "operators defined although phi is -infinity"))
    return CheckReport(tuple(bad))


def _same_axiom_verdict(frag):
    new = cartan.check_crystal_axioms(frag)
    split = _split(frag)
    old = _retired_check_crystal_axioms(split)
    assert new.violations == _per_element_check_crystal_axioms(split).violations
    assert new.ok == old.ok
    if old.ok:
        assert new.violations == old.violations == ()
    return new.ok


def test_clean_fragments_have_the_retired_verdict():
    assert _same_axiom_verdict(g22.fragment(8))
    assert _same_axiom_verdict(g22.fragment(8, star=True))
    for n in range(1, 5):
        assert _same_axiom_verdict(an.fragment(n, 6))
        assert _same_axiom_verdict(an.fragment(n, 6, star=True))
    ambient = binfty.fragment(4, binfty.IotaPattern(binfty.DEFAULT_PATTERN, 40))
    assert len(ambient.elements) == 163
    assert _same_axiom_verdict(ambient)


@pytest.mark.parametrize("maps", [
    *(pytest.param(row[0], id=f"axiom{n}") for n, row in AXIOM_CLAUSES.items()),
    *(pytest.param(maps, id=f"morphism{n}") for n, maps in MORPHISM_CLAUSES.items())])
def test_corrupted_fragments_have_the_retired_verdict(maps):
    # The check asserts that both checkers agree; AXIOM_CLAUSES says which
    # rows fail.
    _same_axiom_verdict(_b_infinity(**maps))


def test_corrupted_epsilon_has_the_retired_verdict():
    assert not _same_axiom_verdict(_corrupted_epsilon_fragment())


# --- the per-element checker, as the oracle of the table path ---------------------
# The checker as it was before it read images inside the fragment back from
# its rows, kept verbatim: it calls wt, epsilon and the inverse operator
# again on every image, reading the split maps of _split.  Both must report
# the same violations, in the same order, also where an image lies inside
# the fragment; _same_axiom_verdict asserts that on every fragment it meets
# as well.


def _per_element_check_crystal_axioms(frag) -> CheckReport:
    """Exhaustively test the crystal axioms on a fragment.

    Axiom 1 defines phi_i = epsilon_i + <h_i, wt>, so no phi clause is
    tested: with wt(e_i b) = wt(b) + alpha_i and a_ii = 2, phi_i rises by one
    exactly when epsilon_i drops by one, and lowering is the mirror case.
    Axiom 5 reads epsilon_i = -infinity, which is phi_i = -infinity.
    Violations are reported as (axiom number, element, color, message).
    """
    bad = []
    for b in frag.elements:
        w = frag.wt(b)
        for i in frag.colors:
            eps = frag.epsilon(b, i)
            up = frag.apply_e(b, i)
            if up is not None:
                if frag.wt(up) != _alpha_step(frag.cartan, i, w, +1):
                    bad.append((2, b, i, "weight of raised element is not wt+alpha_i"))
                if frag.epsilon(up, i) != eps - 1:
                    bad.append((2, b, i, f"epsilon {frag.epsilon(up, i)} != {eps} - 1 after raising"))
                if frag.apply_f(up, i) != b:
                    bad.append((4, b, i, "lowering does not invert raising"))
            down = frag.apply_f(b, i)
            if down is not None:
                if frag.wt(down) != _alpha_step(frag.cartan, i, w, -1):
                    bad.append((3, b, i, "weight of lowered element is not wt-alpha_i"))
                if frag.epsilon(down, i) != eps + 1:
                    bad.append((3, b, i, f"epsilon {frag.epsilon(down, i)} != {eps} + 1 after lowering"))
                if frag.apply_e(down, i) != b:
                    bad.append((4, b, i, "raising does not invert lowering"))
            if eps == NEG_INFINITY and (up is not None or down is not None):
                bad.append((5, b, i, "operators defined although epsilon is -infinity"))
    return CheckReport(tuple(bad))


def _same_violations(frag):
    new = cartan.check_crystal_axioms(frag)
    assert new.violations == _per_element_check_crystal_axioms(_split(frag)).violations
    return new.violations


def _chain(**maps):
    """The sl2 fragment on 0, 1, 2: every image of 1 lies inside it."""
    return _fragment(cartan=RANK1, elements=(0, 1, 2), **{**_CLEAN, **maps})


# One point changed per map, with any changed image inside the fragment.
CHAIN_CORRUPTIONS = {
    "wt-0": {"wt": _at("wt", 0, (-5,))},
    "wt-1": {"wt": _at("wt", 1, (-5,))},
    "wt-2": {"wt": _at("wt", 2, (-5,))},
    "epsilon-0": {"epsilon": _at("epsilon", 0, 5)},
    "epsilon-1": {"epsilon": _at("epsilon", 1, 5)},
    "epsilon-2": {"epsilon": _at("epsilon", 2, -inf)},
    "apply_e-1-to-2": {"apply_e": _at("apply_e", 1, 2)},
    "apply_e-2-to-0": {"apply_e": _at("apply_e", 2, 0)},
    "apply_e-2-vanishes": {"apply_e": _at("apply_e", 2, None)},
    "apply_e-0-to-1": {"apply_e": _at("apply_e", 0, 1)},
    "apply_f-0-to-2": {"apply_f": _at("apply_f", 0, 2)},
    "apply_f-1-to-0": {"apply_f": _at("apply_f", 1, 0)},
    "apply_f-1-vanishes": {"apply_f": _at("apply_f", 1, None)},
    "apply_f-2-to-1": {"apply_f": _at("apply_f", 2, 1)},
}


@pytest.mark.parametrize("maps", [pytest.param(maps, id=name)
                                  for name, maps in CHAIN_CORRUPTIONS.items()])
def test_chain_corruptions_have_the_per_element_violations(maps):
    assert _same_violations(_chain(**maps))


# A component of g22.fragment(4) all of whose raised and lowered images lie
# inside the fragment; each corruption changes one map at it.
_G22 = _maps(g22.fragment(4))
_INTERIOR = g22.Component((1, 1, 0, 1), (1, 0))
_ELSEWHERE = g22.Component((0, 1, 0, 1), (0, 1))


def _g22_at(name, value):
    clean = _G22[name]
    return {name: lambda c, *i: value(c, *i) if c == _INTERIOR else clean(c, *i)}


G22_CORRUPTIONS = {
    "wt": _g22_at("wt", lambda c: (-1, -1, 0, -2)),
    "epsilon": _g22_at("epsilon", lambda c, i: g22.epsilon(c, i) + 1),
    "apply_e": _g22_at("apply_e", lambda c, i: _ELSEWHERE),
    "apply_f": _g22_at("apply_f", lambda c, i: g22.apply_f(_ELSEWHERE, i)),
}


@pytest.mark.parametrize("maps", [pytest.param(maps, id=name)
                                  for name, maps in G22_CORRUPTIONS.items()])
def test_g22_corruptions_have_the_per_element_violations(maps):
    assert _INTERIOR in _G22["elements"] and _ELSEWHERE in _G22["elements"]
    for i in g22.COLORS:
        for step in (g22.apply_e, g22.apply_f):
            assert step(_INTERIOR, i) is None or step(_INTERIOR, i) in _G22["elements"]
    violations = _same_violations(_fragment(**{**_G22, **maps}))
    assert {b for _, b, _, _ in violations} >= {_INTERIOR}


def test_an_exception_in_a_map_propagates():
    def apply_f(n, i):
        if n == 1:
            raise RuntimeError("lowering 1 fails")
        return n + 1

    frag = _chain(apply_f=apply_f)
    for check, arg in ((cartan.check_crystal_axioms, frag),
                       (_per_element_check_crystal_axioms, _split(frag))):
        with pytest.raises(RuntimeError, match="lowering 1 fails"):
            check(arg)


@pytest.mark.parametrize("build", [
    lambda: g22.fragment(6), lambda: an.fragment(3, 6), lambda: binfty.fragment(6),
], ids=["g22", "A3", "binfty"])
def test_checker_calls_each_map_once_per_element_color_and_outside_image(build):
    frag = build()
    members = set(frag.elements)
    outside = sum(y is not None and y not in members
                  for b in frag.elements for i in frag.colors for y in frag.local(b, i)[1:])
    assert outside > 0
    calls = {"wt": 0, "local": 0}

    def counted(name):
        fn = getattr(frag, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    assert cartan.check_crystal_axioms(
        CrystalFragment(frag.cartan, frag.elements, counted("wt"), counted("local"))).ok
    assert calls == {"wt": len(frag.elements) + outside,
                     "local": len(frag.elements) * len(frag.colors) + outside}


def test_repeated_elements_are_refused():
    chain = _chain()
    with pytest.raises(ValueError, match="fragment elements must be distinct"):
        cartan.check_crystal_axioms(CrystalFragment(chain.cartan, (0, 1, 1), chain.wt, chain.local))


def test_an_empty_fragment_is_refused():
    chain = _chain()
    with pytest.raises(ValueError, match="fragment has no elements"):
        cartan.check_crystal_axioms(CrystalFragment(chain.cartan, (), chain.wt, chain.local))


# --- the shared lowering closure and word walk --------------------------------------


def test_lowering_closure_is_the_sorted_chain_box_without_lowering_the_bound():
    # On the chain a lowering step adds one to the total, as in every model.
    lowered = []

    def down(x, i):
        lowered.append(x)
        return an.STEPS["f"](x, i)

    nodes = cartan.lowering_closure((0, 0, 0), 0, down, (1, 2, 3), 4)
    assert nodes == sorted(grid.dimension_vectors(3, 4), key=lambda d: (sum(d), d))
    assert max(map(sum, lowered)) == 3
    assert len(lowered) == 3 * sum(sum(d) < 4 for d in nodes)


def test_lowering_closure_from_a_seed_at_the_bound_is_the_seed():
    def down(x, i):
        raise AssertionError("an element at the bound was lowered")

    assert cartan.lowering_closure((1, 2), 3, down, (1, 2), 3) == [(1, 2)]
    with pytest.raises(ValueError, match="bound 2 is below a seed of total dimension 3"):
        cartan.lowering_closure((1, 2), 3, down, (1, 2), 2)


def test_apply_word_walks_right_to_left_and_stops_at_none():
    # f2 first, then f1; f1 first would leave f2 blocked by its left neighbor.
    assert cartan.apply_word(an.STEPS, (("f", 1), ("f", 2)), (0, 0)) == (
        (1, 1), [(0, 0), (0, 1), (1, 1)])
    # e1 vanishes on (0, 1), so f2 never runs: None absorbs the rest of the word.
    assert cartan.apply_word(an.STEPS, (("f", 2), ("e", 1)), (0, 1)) == (None, [(0, 1), None])
    assert cartan.apply_word(an.STEPS, (), (2, 0)) == ((2, 0), [(2, 0)])


def test_one_closure_and_one_word_walker():
    # No model keeps a closure or a walker of its own, under any name a
    # caller could mistake for the shared one.
    for module in (an, binfty, cli, g22, suites):
        for name in ("apply_word", "lowering_closure", "lowering_graph", "reachable_elements"):
            assert getattr(module, name, None) in (None, getattr(cartan, name, None)), (
                module.__name__, name)
    assert an.STEPS.keys() == g22.STEPS.keys() == {"e", "f", "e*", "f*"}
