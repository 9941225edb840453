"""Named verification suites shared by the command line and the test suite.

Every suite returns a JSON-ready dict with an "ok" flag; the command line
maps that flag onto its exit code.
"""

from __future__ import annotations

import itertools
from math import inf

from . import an, binfty, cartan, g22, modules22, oracle
from .oracle import SampleConfig


def suite_axioms2x2(bound: int = 8) -> dict:
    plain = g22.fragment(bound)
    report = cartan.check_crystal_axioms(plain)
    star = cartan.check_crystal_axioms(g22.fragment(bound, star=True))
    return {
        "suite": "axioms2x2",
        "bound": bound,
        "elements": len(plain.elements),
        "plain_violations": len(report.violations),
        "star_violations": len(star.violations),
        "ok": report.ok and star.ok,
    }


def suite_axioms_an(max_n: int = 5, bound: int = 8) -> dict:
    if max_n < 1:
        raise ValueError(f"max_n {max_n} is below 1")
    detail = {}
    ok = True
    for n in range(1, max_n + 1):
        plain = cartan.check_crystal_axioms(an.fragment(n, bound))
        star = cartan.check_crystal_axioms(an.fragment(n, bound, star=True))
        detail[str(n)] = {"plain": len(plain.violations), "star": len(star.violations)}
        ok = ok and plain.ok and star.ok
    return {"suite": "axiomsAn", "max_n": max_n, "bound": bound, "violations": detail, "ok": ok}


def suite_star(bound: int = 8) -> dict:
    """Star-family axioms plus agreement of the applicability counts with
    operator iteration, capped at 2 * bound + 4, which an infinite phi' or
    phi*' must reach.  One color at a time, the star fragment's rows go
    through the axiom checker and give the counts of e* and f*.  Rows of
    ``g22.local`` on the same elements give those of e and f."""
    star = g22.fragment(bound, star=True)
    elements = star.elements
    plain = cartan.CrystalFragment(star.cartan, elements, star.wt, g22.local)
    weights = [g22.weight(c) for c in elements]
    cap = 2 * bound + 4
    violations, mismatches = [], []
    for (p, i, rows), (_, _, plain_rows) in zip(cartan.crystal_rows(star),
                                                cartan.crystal_rows(plain)):
        cartan.check_color(star, weights, p, i, rows, violations)
        e, f = _color_counts(elements, plain_rows, i, g22.apply_e, g22.apply_f, cap)
        e_star, f_star = _color_counts(elements, rows, i, g22.apply_e_star, g22.apply_f_star, cap)
        for slot, label, counts, closed_form in (
                (0, "eps_prime", e, g22.epsilon_prime),
                (1, "eps_star_prime", e_star, g22.epsilon_star_prime),
                (2, "finite", f, g22.phi_prime), (3, "finite", f_star, g22.phi_star_prime)):
            for n, c in enumerate(elements):
                expected = closed_form(c, i)
                if counts[n] < cap if expected == inf else counts[n] != expected:
                    kind = "unbounded" if expected == inf else label
                    mismatches.append(((n, p, slot), (kind, g22.format_component(c), i)))
    mismatches = [m for _, m in sorted(mismatches)]
    return {
        "suite": "star",
        "bound": bound,
        "axiom_violations": len(violations),
        "iteration_mismatches": mismatches[:20],
        "iteration_mismatch_count": len(mismatches),
        "ok": not violations and not mismatches,
    }


def _color_counts(elements, rows, i, up, down, cap: int) -> list:
    """[raising, lowering] counts at color i from ``cartan.crystal_rows``:
    counts[n] is how often up, or down, applies in a row from elements[n],
    capped at cap.  In graph order (reversed for lowering) the element one
    step on is usually counted already, and count = min(cap, 1 + its
    count).  A step out of the fragment, or onto an element not counted
    yet, falls back to the capped walk, so no count depends on the order."""
    _, up_row, down_row, up_away, down_away = rows
    size = len(elements)
    tables = []
    for row, away, step, order in ((up_row, up_away, up, range(size)),
                                   (down_row, down_away, down, range(size - 1, -1, -1))):
        counts = [-1] * size
        for n in order:
            m = row[n]
            if m >= 0 and counts[m] >= 0:
                counts[n] = min(cap, 1 + counts[m])
            else:
                target = elements[m] if m >= 0 else away.get(n)
                counts[n] = 0 if target is None else 1 + _iterate_count(target, i, step, cap - 1)
        tables.append(counts)
    return tables


def _iterate_count(c, i, step, cap: int) -> int:
    count = 0
    while count < cap and (c := step(c, i)) is not None:
        count += 1
    return count


def suite_duality(bound: int = 8) -> dict:
    """Transpose duality as a strict morphism from the star crystal onto the
    plain crystal with its colors relabeled by the vertex involution sigma.

    For each component c, with d = dual(c), one pass checks four clauses:
    the involution, dual(d) = c; the weight, wt(c)_i = wt(d)_sigma(i); the
    statistic, epsilon*_i(c) = epsilon_sigma(i)(d); and the conjugation,
    e*_i(c) = dual(e_sigma(i)(d)) and likewise for f*, where a vanished
    operator (None) must vanish on both sides.  Each color reads the last two
    off one ``g22.local_star`` call at c and one ``g22.local`` call at d.
    phi needs no clause: axiom 1 derives it from wt and epsilon.  Weight and
    statistic mismatches are the morphism violations; the other two clauses
    are conjugation failures.
    """
    a = g22.VERTEX_INVOLUTION
    bad = []
    morphism = 0
    for c in g22.iter_components(bound):
        d = g22.dual(c)
        if g22.dual(d) != c:
            bad.append(("involution", g22.format_component(c)))
        wt_c, wt_d = g22.weight(c), g22.weight(d)
        if any(wt_c[i - 1] != wt_d[a[i] - 1] for i in g22.COLORS):
            morphism += 1
        for i in g22.COLORS:
            eps_star, up_star, down_star = g22.local_star(c, i)
            eps, up, down = g22.local(d, a[i])
            if eps_star != eps:
                morphism += 1
            for image, routed in ((up_star, up), (down_star, down)):
                if image != (g22.dual(routed) if routed is not None else None):
                    bad.append(("conjugation", g22.format_component(c), i))
    return {
        "suite": "duality",
        "bound": bound,
        "conjugation_failures": bad[:20],
        "conjugation_failure_count": len(bad),
        "morphism_violations": morphism,
        "ok": not bad and not morphism,
    }


def _sampling_suite(suite: str, max_dim: int, prime: int, seed: int, count: int, prepare,
                    **header) -> dict:
    """The loop shared by the sampling suites, over every component with all
    coordinates at most max_dim.

    ``prepare(c)`` returns ``(holds, matches)``: the verdict of the
    sample-free clauses, and the sampled check as a function of a
    SampleConfig and its ``oracle.StreamMemo``.  A sampled check that
    misses is rerun once under ``seed + 1`` and counted in ``retries``.
    Every component reads the same streams, so each config's memo lives
    for the whole call and no longer.
    """
    first, retry = ((cfg, oracle.StreamMemo(cfg))
                    for cfg in (SampleConfig(prime=prime, count=count, seed=seed),
                                SampleConfig(prime=prime, count=count, seed=seed + 1)))
    failures = []
    checked = 0
    retries = 0
    for c in _box_components(max_dim):
        holds, matches = prepare(c)
        sampled = matches(*first)
        if not sampled:
            retries += 1
            sampled = matches(*retry)
        if not (holds and sampled):
            failures.append(g22.format_component(c))
        checked += 1
    return {
        "suite": suite,
        "max_dim": max_dim,
        **header,
        "prime": prime,
        "seed": seed,
        "components": checked,
        "failures": failures[:20],
        "failure_count": len(failures),
        "retries": retries,
        "ok": not failures,
    }


def _box_components(max_dim: int):
    if max_dim < 0:
        raise ValueError(f"negative max_dim {max_dim}")
    for dims in itertools.product(range(max_dim + 1), repeat=4):
        yield from g22.enumerate_components(dims)


def suite_oracle(max_dim: int = 4, samples: int = 50, prime: int = oracle.DEFAULT_PRIME,
                 seed: int = 0) -> dict:
    """Sampled minima of the two statistics against their closed forms, which
    are also the floors that stop the sampling early."""
    def prepare(c):
        floors = {(kind, i): closed_form(c, i)
                  for kind, closed_form in (("eps", g22.epsilon), ("eps_star", g22.epsilon_star))
                  for i in g22.COLORS}
        return True, lambda cfg, memo: (
            oracle.sampled_minima(c, cfg, floors, memo)[0] == floors)

    return _sampling_suite("oracle", max_dim, prime, seed, samples, prepare, samples=samples)


def suite_decomp(max_dim: int = 4, prime: int = oracle.DEFAULT_PRIME, seed: int = 0) -> dict:
    """Certified decomposition of a sampled point against the generic one; the
    sampled profile's source and sink ranks are the point's rank-pair check.
    ``multiplicities_from_profile`` checks that the generic decomposition's
    profile is the generic profile, so the rank clause reads the latter."""
    def prepare(c):
        profile = modules22.generic_profile(c)
        expected = modules22.multiplicities_from_profile(profile)
        holds = (modules22.multiset_dims(expected) == c.dims
                 and (profile.source_rank, profile.sink_rank) == c.ranks
                 and modules22.cbs_check(expected))

        def matches(cfg, memo):
            sampled = modules22.rank_profile(oracle.sample_component_point(c, cfg, 0, memo))
            if (sampled.source_rank, sampled.sink_rank) != c.ranks:
                raise AssertionError("sampled point lost its rank pair")
            try:
                return modules22.multiplicities_from_profile(sampled) == expected
            except modules22.InconsistentProfileError:
                return False
        return holds, matches

    return _sampling_suite("decomp", max_dim, prime, seed, 1, prepare)


def suite_cbs() -> dict:
    """Resolution exactness, the full Ext table, and Ext-vanishing on every
    pair of summand types that ever co-occur in a generic decomposition."""
    exact = {k: modules22.verify_resolution_exact(k) for k in modules22.INTERVAL_DIMS}
    table = modules22.ext1_table()
    cooccur = set()
    for c in _box_components(3):
        kinds = sorted(modules22.generic_decomposition(c))
        cooccur.update((i, j) for i in kinds for j in kinds if i != j)
    nonzero_cooccur = sorted((i, j) for (i, j) in cooccur if table[(i, j)] != 0)
    projective_rows_zero = all(table[(k, j)] == 0
                               for k in modules22.PROJECTIVES for j in modules22.INTERVAL_DIMS)
    ok = all(exact.values()) and not nonzero_cooccur and projective_rows_zero
    return {
        "suite": "cbs",
        "resolutions_exact": exact,
        "ext_nonzero_pairs": sorted(f"{i},{j}" for (i, j), v in table.items() if v),
        "cooccurring_nonzero": [f"{i},{j}" for (i, j) in nonzero_cooccur],
        "ok": ok,
    }


def suite_counterexample() -> dict:
    """The two lowering words collide on components but separate in the
    ambient sequence model under two color patterns.  The report keeps one
    verdict per (pattern, length) pair; the length changes no verdict."""
    word_a, word_b = g22.counterexample_words()
    end_a, _ = cartan.apply_word(g22.STEPS, word_a, g22.ZERO_COMPONENT)
    end_b, _ = cartan.apply_word(g22.STEPS, word_b, g22.ZERO_COMPONENT)
    target = g22.Component((2, 0, 2, 2), (0, 2))
    bc_equal = end_a == end_b == target
    verdicts = [binfty.words_distinct(word_a, word_b, binfty.IotaPattern(colors, length))[0]
                for colors in ((1, 2, 3, 4), (4, 3, 2, 1)) for length in (40, 80)]
    return {
        "suite": "counterexample",
        "bc_equal": bc_equal,
        "binfty_distinct": all(verdicts),
        "verdicts": verdicts,
        "ok": bc_equal and all(verdicts),
    }


def suite_connectivity(bound: int = 8) -> dict:
    """Every component reaches the base point along its raising word, and the
    lowering closure of the base point covers everything below the bound."""
    components = list(g22.iter_components(bound))
    word_failures = []
    for c in components:
        result, trace = cartan.apply_word(g22.STEPS, g22.connectivity_word(c), c)
        if result != g22.ZERO_COMPONENT or any(step is None for step in trace):
            word_failures.append(g22.format_component(c))
    reached = set(cartan.lowering_closure(g22.ZERO_COMPONENT, 0, g22.apply_f, g22.COLORS, bound))
    missing = sorted(g22.format_component(c) for c in components if c not in reached)
    return {
        "suite": "connectivity",
        "bound": bound,
        "components": len(components),
        "word_failures": word_failures[:20],
        "word_failure_count": len(word_failures),
        "graph_connected": not missing,
        "missing": missing[:20],
        "missing_count": len(missing),
        "ok": not word_failures and not missing,
    }


def suite_seminormal(bound: int = 8) -> dict:
    """The raising statistic can undercount epsilon; the canonical witness is
    pinned and the inequality is exhaustively one-sided."""
    witness = g22.Component((1, 1, 1, 2), (1, 1))
    eps = g22.epsilon(witness, 1)
    eps_prime = g22.epsilon_prime(witness, 1)
    bad = [
        (g22.format_component(c), i)
        for c in g22.iter_components(bound)
        for i in g22.COLORS
        if g22.epsilon_prime(c, i) > g22.epsilon(c, i)
    ]
    ok = eps == 1 and eps_prime == 0 and not bad
    return {
        "suite": "seminormal",
        "witness": g22.format_component(witness),
        "i": 1,
        "eps": eps,
        "eps_prime": eps_prime,
        "bound": bound,
        "monotonicity_failures": bad[:20],
        "monotonicity_failure_count": len(bad),
        "ok": ok,
    }


SUITES = {
    "axioms2x2": suite_axioms2x2,
    "axiomsAn": suite_axioms_an,
    "star": suite_star,
    "duality": suite_duality,
    "oracle": suite_oracle,
    "decomp": suite_decomp,
    "cbs": suite_cbs,
    "counterexample": suite_counterexample,
    "connectivity": suite_connectivity,
    "seminormal": suite_seminormal,
}
