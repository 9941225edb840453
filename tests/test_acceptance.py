"""Acceptance gate: one test per criterion, exact assertions throughout.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one status line
per criterion.
"""

import itertools
from math import inf

from crystal_grid import an, binfty, cartan, g22, modules22 as ma, suites
from crystal_grid.g22 import Component, ZERO_COMPONENT
from crystal_grid.grid import dimension_vectors

SEED = 20240


def _report(number, label):
    print(f"acceptance {number:>2} {label}: PASS")


def test_criterion_01_component_counts():
    # closed form against a direct scan of the membership predicate
    checked = 0
    for dims in itertools.product(range(11), repeat=4):
        if sum(dims) > 10:
            continue
        scan = sum(g22.ranks_valid(dims, (r1, r2))
                   for r1 in range(11) for r2 in range(11))
        d1, d2, d3, d4 = dims
        s = d2 + d3
        formula = 1 if d1 + d4 < s else min(d1, s) - max(0, s - d4) + 1
        assert scan == formula == len(g22.enumerate_components(dims))
        checked += 1
    assert checked == 1001
    _report(1, f"component counts on {checked} dimension vectors")


def test_criterion_02_axioms_2x2_both_families():
    plain = cartan.check_crystal_axioms(g22.fragment(8))
    star = cartan.check_crystal_axioms(g22.fragment(8, star=True))
    assert plain.ok, plain.violations[:5]
    assert star.ok, star.violations[:5]
    _report(2, f"2x2 crystal axioms, both families, {len(g22.fragment(8).elements)} components")


def test_criterion_03_axioms_chain_both_families():
    for n in range(1, 6):
        plain = cartan.check_crystal_axioms(an.fragment(n, 8))
        star = cartan.check_crystal_axioms(an.fragment(n, 8, star=True))
        assert plain.ok and star.ok, (n, plain.violations[:3], star.violations[:3])
    _report(3, "chain crystal axioms for n <= 5, both families")


def test_criterion_04_mutual_inverses():
    for c in g22.iter_components(8):
        for i in g22.COLORS:
            for up_op, down_op in ((g22.apply_e, g22.apply_f),
                                   (g22.apply_e_star, g22.apply_f_star)):
                up = up_op(c, i)
                if up is not None:
                    assert down_op(up, i) == c
                down = down_op(c, i)
                if down is not None:
                    assert up_op(down, i) == c
    for n in range(1, 6):
        for dims in dimension_vectors(n, 8):
            for i in range(1, n + 1):
                for up_op, down_op in ((an.STEPS["e"], an.STEPS["f"]),
                                       (an.STEPS["e*"], an.STEPS["f*"])):
                    up = up_op(dims, i)
                    if up is not None:
                        assert down_op(up, i) == dims
                    down = down_op(dims, i)
                    if down is not None:
                        assert up_op(down, i) == dims
    _report(4, "mutual inversion of raising/lowering, both models, both families")


def test_criterion_05_counterexample_words():
    word_a, word_b = g22.counterexample_words()
    end_a, trace_a = cartan.apply_word(g22.STEPS, word_a, ZERO_COMPONENT)
    end_b, trace_b = cartan.apply_word(g22.STEPS, word_b, ZERO_COMPONENT)
    assert end_a == end_b == Component((2, 0, 2, 2), (0, 2))
    assert all(s is not None for s in trace_a + trace_b)
    for pattern in (binfty.IotaPattern((1, 2, 3, 4), 40),
                    binfty.IotaPattern((1, 2, 3, 4), 80),
                    binfty.IotaPattern((4, 3, 2, 1), 40),
                    binfty.IotaPattern((4, 3, 2, 1), 80)):
        distinct, _, _ = binfty.words_distinct(word_a, word_b, pattern=pattern)
        assert distinct, pattern
    _report(5, "colliding component words separate in the ambient model")


def test_criterion_06_seminormality_failure():
    witness = Component((1, 1, 1, 2), (1, 1))
    assert g22.epsilon(witness, 1) == 1
    assert g22.epsilon_prime(witness, 1) == 0
    for c in g22.iter_components(8):
        for i in g22.COLORS:
            assert g22.epsilon_prime(c, i) <= g22.epsilon(c, i)
    _report(6, "raising statistic undercounts epsilon; witness 1,1,1,2:1,1")


def test_criterion_07_connectivity():
    ids = []
    for c in g22.iter_components(8):
        ids.append(g22.format_component(c))
        word = g22.connectivity_word(c)
        result, trace = cartan.apply_word(g22.STEPS, word, c)
        assert result == ZERO_COMPONENT
        assert all(step is not None for step in trace)
    nodes = cartan.lowering_closure(ZERO_COMPONENT, 0, g22.apply_f, g22.COLORS, 8)
    missing = sorted(set(ids) - {g22.format_component(c) for c in nodes})
    assert not missing, missing[:5]
    _report(7, f"connectivity words and graph reachability over {len(ids)} components")


def test_criterion_08_invariants_count_iterations():
    cap = 24
    a = g22.VERTEX_INVOLUTION

    def count(c, i, step):
        n = 0
        while n < cap:
            c = step(c, i)
            if c is None:
                return n
            n += 1
        return n

    for c in g22.iter_components(8):
        for i in g22.COLORS:
            assert count(c, i, g22.apply_e) == g22.epsilon_prime(c, i)
            assert count(c, i, g22.apply_e_star) == g22.epsilon_star_prime(c, i)
            for step, inv in ((g22.apply_f, g22.phi_prime),
                              (g22.apply_f_star, g22.phi_star_prime)):
                counted = count(c, i, step)
                expected = inv(c, i)
                if expected == inf:
                    assert counted == cap
                else:
                    assert counted == expected
            for star_op, plain_op in ((g22.apply_e_star, g22.apply_e),
                                      (g22.apply_f_star, g22.apply_f)):
                routed = plain_op(g22.dual(c), a[i])
                routed = g22.dual(routed) if routed is not None else None
                assert star_op(c, i) == routed
    _report(8, "applicability counts match closed forms; star family is the dual conjugate")


def test_criterion_09_oracle_concordance():
    report = suites.suite_oracle(max_dim=4, samples=50, prime=32003, seed=SEED)
    assert report["ok"], report["failures"]
    assert report["components"] == 983
    _report(9, f"sampled minima match closed forms on {report['components']} components")


def test_criterion_10_generic_decomposition():
    report = suites.suite_decomp(max_dim=4, prime=32003, seed=SEED)
    assert report["ok"], report["failures"]
    _report(10, f"certified decompositions match the generic ones on {report['components']} components")


def test_criterion_11_resolutions_and_ext():
    for k in ma.INTERVAL_DIMS:
        assert ma.verify_resolution_exact(k), k
    table = ma.ext1_table()
    assert len(table) == 121
    cooccur = set()
    for dims in itertools.product(range(6), repeat=4):
        for c in g22.enumerate_components(dims):
            kinds = sorted(ma.generic_decomposition(c))
            cooccur.update((i, j) for i in kinds for j in kinds if i != j)
    offenders = [(i, j) for (i, j) in sorted(cooccur) if table[(i, j)] != 0]
    assert not offenders, offenders
    _report(11, f"resolutions exact; Ext vanishes on all {len(cooccur)} co-occurring pairs")
