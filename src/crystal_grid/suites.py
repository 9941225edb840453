"""Named verification suites shared by the command line and the test suite.

Every suite returns a JSON-ready dict with an "ok" flag; the command line
maps that flag onto its exit code.
"""

from __future__ import annotations

from math import inf

from . import an, binfty, cartan, g22, modules22, oracle
from .oracle import SampleConfig


def suite_axioms2x2(bound: int = 8) -> dict:
    report = cartan.check_crystal_axioms(g22.fragment(bound))
    star = cartan.check_crystal_axioms(g22.fragment(bound, star=True))
    return {
        "suite": "axioms2x2",
        "bound": bound,
        "elements": len(g22.fragment(bound).elements),
        "plain_violations": len(report.violations),
        "star_violations": len(star.violations),
        "ok": report.ok and star.ok,
    }


def suite_axioms_an(max_n: int = 5, bound: int = 8) -> dict:
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
    operator iteration (capped where the count is infinite)."""
    report = cartan.check_crystal_axioms(g22.fragment(bound, star=True))
    cap = 2 * bound + 4
    mismatches = []
    for c in g22.iter_components(bound):
        for i in g22.COLORS:
            if _iterate_count(c, i, g22.apply_e, cap) != g22.epsilon_prime(c, i):
                mismatches.append(("eps_prime", g22.format_component(c), i))
            if _iterate_count(c, i, g22.apply_e_star, cap) != g22.epsilon_star_prime(c, i):
                mismatches.append(("eps_star_prime", g22.format_component(c), i))
            for fn, inv in ((g22.apply_f, g22.phi_prime), (g22.apply_f_star, g22.phi_star_prime)):
                seen = _iterate_count(c, i, fn, cap)
                expected = inv(c, i)
                if expected == inf:
                    if seen < cap:
                        mismatches.append(("unbounded", g22.format_component(c), i))
                elif seen != expected:
                    mismatches.append(("finite", g22.format_component(c), i))
    return {
        "suite": "star",
        "bound": bound,
        "axiom_violations": len(report.violations),
        "iteration_mismatches": mismatches[:20],
        "iteration_mismatch_count": len(mismatches),
        "ok": report.ok and not mismatches,
    }


def _iterate_count(c, i, step, cap: int) -> int:
    count = 0
    current = c
    while count < cap:
        current = step(current, i)
        if current is None:
            break
        count += 1
    return count


def suite_duality(bound: int = 8) -> dict:
    a = g22.VERTEX_INVOLUTION
    bad = []
    for c in g22.iter_components(bound):
        if g22.dual(g22.dual(c)) != c:
            bad.append(("involution", g22.format_component(c)))
        for i in g22.COLORS:
            for star_op, plain_op in ((g22.apply_e_star, g22.apply_e),
                                      (g22.apply_f_star, g22.apply_f)):
                direct = star_op(c, i)
                routed = plain_op(g22.dual(c), a[i])
                routed = g22.dual(routed) if routed is not None else None
                if direct != routed:
                    bad.append(("conjugation", g22.format_component(c), i))
    morphism = cartan.check_strict_morphism(
        g22.fragment(bound, star=True), g22.relabeled_fragment(bound), g22.dual)
    return {
        "suite": "duality",
        "bound": bound,
        "conjugation_failures": bad[:20],
        "conjugation_failure_count": len(bad),
        "morphism_violations": len(morphism.violations),
        "ok": not bad and morphism.ok,
    }


_CLOSED_FORMS = {"eps": g22.epsilon, "eps_star": g22.epsilon_star}


def _sampled_minima(c, cfg: SampleConfig):
    """Minima of both per-point statistics at every corner over cfg.count
    samples; stops early once every minimum reaches its closed form."""
    targets = {(kind, i): _CLOSED_FORMS[kind](c, i)
               for kind in ("eps", "eps_star") for i in g22.COLORS}
    minima = {}
    for index in range(cfg.count):
        rep = oracle.sample_component_point(c, cfg, index)
        for i in g22.COLORS:
            v = oracle.corner_vertex(i)
            for kind, fn in (("eps", oracle.epsilon_of_rep),
                             ("eps_star", oracle.epsilon_star_of_rep)):
                value = fn(rep, v)
                key = (kind, i)
                if key not in minima or value < minima[key]:
                    minima[key] = value
        if minima == targets:
            break
    return minima, targets


def suite_oracle(max_dim: int = 4, samples: int = 50, prime: int = oracle.DEFAULT_PRIME,
                 seed: int = 0) -> dict:
    """Sampled minima of the two statistics against their closed forms, for
    every component with all coordinates at most max_dim."""
    failures = []
    checked = 0
    retries = 0
    for c in _box_components(max_dim):
        cfg = SampleConfig(prime=prime, count=samples, seed=seed)
        minima, targets = _sampled_minima(c, cfg)
        if minima != targets:
            retries += 1
            retry = SampleConfig(prime=prime, count=samples, seed=seed + 1)
            minima, targets = _sampled_minima(c, retry)
        if minima != targets:
            failures.append(g22.format_component(c))
        checked += 1
    return {
        "suite": "oracle",
        "max_dim": max_dim,
        "samples": samples,
        "prime": prime,
        "seed": seed,
        "components": checked,
        "failures": failures[:20],
        "failure_count": len(failures),
        "retries": retries,
        "ok": not failures,
    }


def _box_components(max_dim: int):
    import itertools

    for dims in itertools.product(range(max_dim + 1), repeat=4):
        yield from g22.enumerate_components(dims)


def suite_decomp(max_dim: int = 4, prime: int = oracle.DEFAULT_PRIME, seed: int = 0) -> dict:
    """Certified decomposition of a sampled point against the generic one."""
    failures = []
    checked = 0
    retries = 0
    for c in _box_components(max_dim):
        expected = modules22.generic_decomposition(c)
        profile = modules22.profile_of_multiset(expected)
        induced_ok = (modules22.multiset_dims(expected) == c.dims
                      and (profile.source_rank, profile.sink_rank) == c.ranks)
        got = None
        for attempt in range(2):
            if attempt:
                retries += 1
            cfg = SampleConfig(prime=prime, count=1, seed=seed + attempt)
            rep = oracle.sample_component_point(c, cfg, 0)
            try:
                got = oracle.certify_decomposition(rep)
            except modules22.InconsistentProfileError:
                got = None
            if got == expected:
                break
        if got != expected or not induced_ok or not modules22.cbs_check(expected):
            failures.append(g22.format_component(c))
        checked += 1
    return {
        "suite": "decomp",
        "max_dim": max_dim,
        "prime": prime,
        "seed": seed,
        "components": checked,
        "failures": failures[:20],
        "failure_count": len(failures),
        "retries": retries,
        "ok": not failures,
    }


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
    ambient sequence model, robustly under truncation and pattern changes."""
    word_a, word_b = g22.counterexample_words()
    end_a, _ = g22.apply_word(word_a, g22.ZERO_COMPONENT)
    end_b, _ = g22.apply_word(word_b, g22.ZERO_COMPONENT)
    target = g22.Component((2, 0, 2, 2), (0, 2))
    bc_equal = end_a == end_b == target
    verdicts = []
    for pattern in (binfty.IotaPattern((1, 2, 3, 4), 40),
                    binfty.IotaPattern((1, 2, 3, 4), 80),
                    binfty.IotaPattern((4, 3, 2, 1), 40),
                    binfty.IotaPattern((4, 3, 2, 1), 80)):
        distinct, _, _ = binfty.words_distinct(word_a, word_b, pattern=pattern)
        verdicts.append(distinct)
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
    word_failures = []
    ids = []
    for c in g22.iter_components(bound):
        ids.append(g22.format_component(c))
        result, trace = g22.apply_word(g22.connectivity_word(c), c)
        if result != g22.ZERO_COMPONENT or any(step is None for step in trace):
            word_failures.append(g22.format_component(c))
    graph = cartan.build_crystal_graph(
        [g22.ZERO_COMPONENT], g22.COLORS, g22.apply_f, g22.describe, bound)
    report = cartan.is_connected_within(graph, expected_ids=ids)
    return {
        "suite": "connectivity",
        "bound": bound,
        "components": len(ids),
        "word_failures": word_failures[:20],
        "word_failure_count": len(word_failures),
        "graph_connected": report.connected,
        "missing": list(report.missing[:20]),
        "missing_count": len(report.missing),
        "ok": not word_failures and report.connected,
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
