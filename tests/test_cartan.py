from dataclasses import fields
from math import inf
from types import SimpleNamespace

import pytest

from crystal_grid import an, binfty, cartan, g22, grid
from crystal_grid.cartan import (NEG_INFINITY, CartanMatrix, CheckReport, CrystalFragment,
                                 TruncationError, pairing)


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


def _corrupted_epsilon_fragment(point=(1, 1)):
    base = an.fragment(2, 4)
    return CrystalFragment(
        cartan=base.cartan,
        elements=base.elements,
        wt=base.wt,
        epsilon=lambda b, i: base.epsilon(b, i) + (b == point),
        apply_e=base.apply_e,
        apply_f=base.apply_f,
    )


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
    return CrystalFragment(cartan=RANK1, elements=(1,), **{**_CLEAN, **maps})


def _at(name, point, value):
    """The clean map `name`, changed to return value at one point."""
    base = _CLEAN[name]
    return lambda n, *i: value if n == point else base(n, *i)


def _fields(frag):
    return {f.name: getattr(frag, f.name) for f in fields(frag)}


def test_clause_fragments_clean_control():
    frag = _b_infinity()
    assert cartan.check_crystal_axioms(frag).ok
    assert cartan.check_strict_morphism(frag, frag, lambda b: b).ok


def test_morphism_across_cartan_matrices_is_rejected():
    rank1 = _b_infinity()
    with pytest.raises(ValueError, match="different Cartan matrices"):
        cartan.check_strict_morphism(rank1, g22.fragment(1), lambda b: b)
    with pytest.raises(ValueError, match="different Cartan matrices"):
        cartan.check_strict_morphism(g22.fragment(1), rank1, lambda b: b)
    # Equal entries over the same index set are one Cartan matrix.
    twin = CrystalFragment(**{**_fields(rank1), "cartan": CartanMatrix((1,), ((2,),))})
    assert cartan.check_strict_morphism(rank1, twin, lambda b: b).ok


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

MORPHISM_CLAUSES = {
    0: ({"wt": _at("wt", 1, (-5,))}, (1, 1, None, "weight not preserved")),
    1: ({"epsilon": _at("epsilon", 1, 5)}, (1, 1, 1, "epsilon not preserved")),
    3: ({"apply_e": _at("apply_e", 1, 7)}, (2, 1, 1, "raising does not commute with the map")),
    4: ({"apply_f": _at("apply_f", 1, 7)}, (3, 1, 1, "lowering does not commute with the map")),
}


@pytest.mark.parametrize("maps, rule, message", [
    pytest.param(maps, rule, message, id=f"maps{n}-{rule}-{message}")
    for n, (maps, rule, message) in AXIOM_CLAUSES.items()])
def test_axiom_check_flags_exactly_the_broken_clause(maps, rule, message):
    report = cartan.check_crystal_axioms(_b_infinity(**maps))
    assert report.violations == ((rule, 1, 1, message),)


@pytest.mark.parametrize("maps, violation", [
    pytest.param(maps, violation, id=f"maps{n}-{violation[-1]}")
    for n, (maps, violation) in MORPHISM_CLAUSES.items()])
def test_morphism_check_flags_exactly_the_broken_clause(maps, violation):
    report = cartan.check_strict_morphism(_b_infinity(), _b_infinity(**maps), lambda b: b)
    assert report.violations == (violation,)


# --- the retired checkers, with phi as a map of the fragment ---------------------
# Both checkers as they were while fragments declared phi, kept verbatim as the
# reference for the checkers that derive it.  They read frag.phi, which
# _with_phi supplies as epsilon + <h_i, wt>; no clause the retired checkers
# held can then tell the two apart.


def _with_phi(frag):
    def phi(b, i):
        return frag.epsilon(b, i) + pairing(frag.cartan, i, frag.wt(b))
    return SimpleNamespace(**_fields(frag), colors=frag.colors, phi=phi)


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
            try:
                down = frag.apply_f(b, i)
            except TruncationError:
                down = None
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


def _retired_check_strict_morphism(dom, cod, rho) -> CheckReport:
    """Test the three morphism clauses for rho: dom -> cod + {0} (rho returns None for 0)."""
    bad = []
    for b in dom.elements:
        image = rho(b)
        if image is None:
            continue
        if dom.wt(b) != cod.wt(image):
            bad.append((1, b, None, "weight not preserved"))
        for i in dom.colors:
            if dom.epsilon(b, i) != cod.epsilon(image, i):
                bad.append((1, b, i, "epsilon not preserved"))
            if dom.phi(b, i) != cod.phi(image, i):
                bad.append((1, b, i, "phi not preserved"))
            up = dom.apply_e(b, i)
            if up is not None and rho(up) is not None:
                if cod.apply_e(image, i) != rho(up):
                    bad.append((2, b, i, "raising does not commute with the map"))
            try:
                down = dom.apply_f(b, i)
            except TruncationError:
                down = None
            if down is not None and rho(down) is not None:
                if cod.apply_f(image, i) != rho(down):
                    bad.append((3, b, i, "lowering does not commute with the map"))
    return CheckReport(tuple(bad))


def _same_axiom_verdict(frag):
    new = cartan.check_crystal_axioms(frag)
    old = _retired_check_crystal_axioms(_with_phi(frag))
    assert new.ok == old.ok
    if old.ok:
        assert new.violations == old.violations == ()
    return new.ok


def _same_morphism_verdict(dom, cod, rho):
    new = cartan.check_strict_morphism(dom, cod, rho)
    old = _retired_check_strict_morphism(_with_phi(dom), _with_phi(cod), rho)
    assert new.ok == old.ok
    if old.ok:
        assert new.violations == old.violations == ()
    return new.ok


def test_clean_fragments_have_the_retired_verdict():
    assert _same_axiom_verdict(g22.fragment(8))
    assert _same_axiom_verdict(g22.fragment(8, star=True))
    assert _same_morphism_verdict(g22.fragment(8, star=True), g22.relabeled_fragment(8),
                                  g22.dual)
    for n in range(1, 5):
        assert _same_axiom_verdict(an.fragment(n, 6))
        assert _same_axiom_verdict(an.fragment(n, 6, star=True))
    ambient = binfty.fragment(4, binfty.IotaPattern(binfty.DEFAULT_PATTERN, 40))
    assert len(ambient.elements) == 163
    assert _same_axiom_verdict(ambient)


@pytest.mark.parametrize("maps", [
    pytest.param(row[0], id=f"{table}{n}")
    for table, clauses in (("axiom", AXIOM_CLAUSES), ("morphism", MORPHISM_CLAUSES))
    for n, row in clauses.items()])
def test_corrupted_fragments_have_the_retired_verdict(maps):
    # Each check asserts that both checkers agree; the clause tables above
    # say which of them fail.
    clean, corrupted = _b_infinity(), _b_infinity(**maps)
    _same_axiom_verdict(corrupted)
    _same_morphism_verdict(clean, corrupted, lambda b: b)
    _same_morphism_verdict(corrupted, clean, lambda b: b)


def test_corrupted_epsilon_has_the_retired_verdict():
    assert not _same_axiom_verdict(_corrupted_epsilon_fragment())
