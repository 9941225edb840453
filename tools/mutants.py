"""Mutation smoke: each curated mutant must make its named tests fail.

A mutant replaces one exact text, which must occur exactly once, in one file
of a temporary copy of the repository (``src/``, ``tests/`` and
``pyproject.toml``); then only the named test file, or the one test named by
a pytest node id (``file::test``), runs in that copy.  The mutant is killed
when those tests fail.  Before any mutant runs, every named test file or
test must pass on the unmutated copy.

Run from anywhere (two to three minutes on two CPUs):

    python3 tools/mutants.py

It prints one line per mutant and exits 0 when every mutant is killed, 1 when
any survives and 2 when a test file fails on the unmutated copy.  Its
self-test is ``python3 -m pytest -q tools/test_mutants.py``.

The list holds no equivalent mutants: every component has r1 <= d1 and
r2 <= d4, so for instance ``d4 != r2`` -> ``d4 > r2`` changes nothing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    test: str


CARTAN = "src/crystal_grid/cartan.py"
CLI = "src/crystal_grid/cli.py"
LINALG = "src/crystal_grid/linalg.py"
G22 = "src/crystal_grid/g22.py"
AN = "src/crystal_grid/an.py"
BINFTY = "src/crystal_grid/binfty.py"
ORACLE = "src/crystal_grid/oracle.py"
SUITES = "src/crystal_grid/suites.py"
MODULES22 = "src/crystal_grid/modules22.py"
REPS = "src/crystal_grid/reps.py"

MUTANTS = (
    Mutant("weight step: alpha_i with the wrong sign", CARTAN,
           "(coeffs[pos] + sign,)", "(coeffs[pos] - sign,)", "tests/test_cartan.py"),
    Mutant("axiom 4, inside and outside the fragment: the inverse clause off", CARTAN,
           "if strayed:", "if False:", "tests/test_cartan.py"),
    Mutant("axiom 4 in the fragment: the inverse's position compared with its own", CARTAN,
           "back_row[m] != n", "back_row[m] != m", "tests/test_cartan.py"),
    Mutant("axioms 2 and 3, inside and outside the fragment: epsilon one step on", CARTAN,
           "if seen != eps_row[n] - sign:", "if False:", "tests/test_cartan.py"),
    Mutant("axioms 2 and 4 outside the fragment: epsilon and the inverse read from swapped slots",
           CARTAN, "seen, strayed = triple[0], triple[back] != elements[n]",
           "seen, strayed = triple[back], triple[0] != elements[n]",
           "tests/test_cartan.py::test_clause_fragments_clean_control"),
    Mutant("checker: the lowering direction skipped", CARTAN,
           "(up_row, up_away, down_row, _DIRECTIONS[0]),\n"
           "            (down_row, down_away, up_row, _DIRECTIONS[1]))",
           "(up_row, up_away, down_row, _DIRECTIONS[0]),)", "tests/test_cartan.py"),
    Mutant("checker: an empty fragment accepted", CARTAN,
           "if not elements:", "if False:",
           "tests/test_cartan.py::test_an_empty_fragment_is_refused"),
    Mutant("axiom 5: no operator where epsilon = -inf", CARTAN,
           "if eps == NEG_INFINITY and (up_row[n] != _NONE or down_row[n] != _NONE):", "if False:",
           "tests/test_cartan.py"),
    Mutant("duality: statistic clause off", SUITES,
           "if eps_star != eps:", "if False:",
           "tests/test_cartan.py::test_morphism_check_flags_exactly_the_broken_clause"),
    Mutant("duality: weight clause off", SUITES,
           "if any(wt_c[i - 1] != wt_d[a[i] - 1] for i in g22.COLORS):", "if False:",
           "tests/test_cartan.py::test_morphism_collapse_fails_weight_clause"),
    Mutant("star counts: a step onto a counted component adds nothing", SUITES,
           "min(cap, 1 + counts[m])", "min(cap, counts[m])",
           "tests/test_g22.py::test_iteration_counts_match_per_element_walks"),
    Mutant("star counts: a walk from an uncounted component drops its first step", SUITES,
           "1 + _iterate_count(target, i, step, cap - 1)",
           "_iterate_count(target, i, step, cap - 1)",
           "tests/test_g22.py::test_iteration_counts_match_per_element_walks"),
    Mutant("star counts: a step onto a component not counted yet reads its -1", SUITES,
           "if m >= 0 and counts[m] >= 0:", "if m >= 0:",
           "tests/test_g22.py::test_iteration_counts_match_per_element_walks"),
    Mutant("g22 e at colors 2/3: vanishing guard", G22,
           "None if d <= r1 else", "None if d < r1 else", "tests/test_g22.py"),
    Mutant("g22 f* at colors 2/3: source rank grows", G22,
           "ranks if lhs <= rhs else (r1 + 1, r2)",
           "ranks if lhs <= rhs else (r1, r2 + 1)", "tests/test_g22.py"),
    Mutant("g22 epsilon' at color 1: sink wall", G22,
           "if i == 1 and d4 != r2:", "if i == 1:", "tests/test_g22.py"),
    Mutant("g22 epsilon*': the plain count read at c, not at dual(c)", G22,
           "epsilon_prime(dual(c), ", "epsilon_prime(c, ", "tests/test_g22.py"),
    Mutant("g22 phi*': the plain count read at color i, not at sigma(i)", G22,
           "phi_prime(dual(c), VERTEX_INVOLUTION.get(i, i))", "phi_prime(dual(c), i)",
           "tests/test_g22.py::test_operators_and_statistics_match_the_case_tables"),
    Mutant("g22 Component: list fields accepted", G22,
           "isinstance(dims, tuple) and len(dims) == 4",
           "len(dims) == 4",
           "tests/test_g22.py::test_constructor_checks_the_fields_as_given"),
    Mutant("g22 operator results: the factory's gate removed", G22,
           "if ranks_valid(moved, moved_ranks) else None", "if True else None",
           "tests/test_g22.py"),
    Mutant("g22 local maps: the raising candidate not gated", G22,
           "up = tuple.__new__(Component, (moved, up)) if ranks_valid(moved, up) else None",
           "up = tuple.__new__(Component, (moved, up))",
           "tests/test_g22.py::test_factory_agrees_with_the_public_constructor"),
    Mutant("chain f at a tie with the left neighbor: vanishes", AN,
           "if left > d:", "if left >= d:",
           "tests/test_an.py::test_local_maps_match_the_per_function_forms"),
    Mutant("g22 dual: ranks not swapped", G22,
           "dims, ranks = (d4, d3, d2, d1), (r2, r1)",
           "dims, ranks = (d4, d3, d2, d1), (r1, r2)", "tests/test_g22.py"),
    Mutant("lowering closure: a step onto the bound is cut", CARTAN,
           "for _ in range(bound - size):", "for _ in range(bound - size - 1):",
           "tests/test_g22.py::test_graph_contains_sink_chain"),
    Mutant("graph edge pass: edges listed color by color", CLI,
           "for s in nodes for i in g22.COLORS", "for i in g22.COLORS for s in nodes",
           "tests/test_g22.py::test_connectivity_with_universe"),
    Mutant("word walk: word applied left to right", CARTAN,
           "for kind, color in reversed(word):", "for kind, color in word:",
           "tests/test_cartan.py::test_apply_word_walks_right_to_left_and_stops_at_none"),
    Mutant("binfty raising: tie toward the smallest position", BINFTY,
           "_bump(x, last, -1)", "_bump(x, first, -1)", "tests/test_binfty.py"),
    Mutant("binfty lowering: tie toward the largest position", BINFTY,
           "_bump(x, first, +1)", "_bump(x, last, +1)",
           "tests/test_binfty.py::test_local_gives_epsilon_e_and_f_of_one_walk"),
    Mutant("binfty zero run: first position of the color one slot late", BINFTY,
           "f = k + 1 + ahead[k % n]", "f = k + 1 + ahead[(k + 1) % n]", "tests/test_binfty.py"),
    Mutant("binfty zero run above the support: counted one period late", BINFTY,
           "hi + 1 + ahead[hi % n]", "hi + 1 + n + ahead[hi % n]", "tests/test_binfty.py"),
    Mutant("binfty operator results: a support pair whose entry became 0 is kept", BINFTY,
           "(((k, v),) if v else ())", "((k, v),)", "tests/test_binfty.py"),
    Mutant("oracle corner statistics: eps at corner 3 reads r12", ORACLE,
           '("eps", 3): "r13"', '("eps", 3): "r12"', "tests/test_oracle.py"),
    Mutant("oracle sampled minima: maximum instead", ORACLE,
           "value < minima[key]", "value > minima[key]", "tests/test_oracle.py"),
    # Same ranks, same commutativity and generic points: only the law moves.
    Mutant("oracle sampler: R's columns sorted", ORACLE,
           "mul(field, r, k, mid)",
           "mul(field, list(zip(*sorted(zip(*r)))), k, mid)",
           "tests/test_oracle.py::test_factor_sampler_has_the_conjugation_law"),
    # Factors of one shape from two streams, or from two offsets of one
    # stream, share a memo entry.
    Mutant("oracle memo: a factor's key drops the sample index", ORACLE,
           "key = (index, start, nrows, ncols, kernel)", "key = (start, nrows, ncols, kernel)",
           "tests/test_oracle.py::test_row_sampler_matches_the_mat_path"),
    Mutant("oracle memo: a factor's key drops the start offset", ORACLE,
           "key = (index, start, nrows, ncols, kernel)", "key = (index, nrows, ncols, kernel)",
           "tests/test_oracle.py::test_row_sampler_matches_the_mat_path"),
    Mutant("linalg kernel, the sampler's K: pivot entries not negated", LINALG,
           "v[col] = reduce(-row[free])", "v[col] = row[free]",
           "tests/test_oracle.py::test_row_sampler_matches_the_mat_path"),
    Mutant("linalg GF(p) row update: adds the multiple of the pivot row", LINALG,
           "[(x - f * y) % p for x, y in zip(rows[i], lead)]",
           "[(x + f * y) % p for x, y in zip(rows[i], lead)]", "tests/test_linalg.py"),
    Mutant("linalg GF(p) echelon form: factor not divided by the unscaled pivot", LINALG,
           "f = f * inv % p", "f = f % p", "tests/test_linalg.py::test_row_kernels"),
    Mutant("modules22 rank profile: the pivot at column d2 counted for f12 and f24", MODULES22,
           "sum(c < d2 for c in pivots)", "sum(c <= d2 for c in pivots)",
           "tests/test_modules22.py::test_rank_profile_matches_seven_ranks_on_the_catalog"),
    Mutant("modules22 Ext cochains: P_2 read at corner 3", MODULES22,
           "_GENERATOR = {11: 1, 7: 2, 8: 3, 4: 4}", "_GENERATOR = {11: 1, 7: 3, 8: 3, 4: 4}",
           "tests/test_modules22.py"),
    Mutant("modules22 cbs_check: a nonzero Ext1 pair read as zero", MODULES22,
           "for pair, dim in ext1_table().items() if dim)",
           "for pair, dim in ext1_table().items() if dim and pair != (10, 4))",
           "tests/test_modules22.py::test_cbs_check_reads_every_ordered_pair_of_the_ext1_table"),
    Mutant("modules22 resolution of M1: last differential's sign flipped", MODULES22,
           "1: Resolution(((11,), (7, 8), (4,)), (((1,),), ((1, 1),), ((1,), (-1,)))),",
           "1: Resolution(((11,), (7, 8), (4,)), (((1,),), ((1, 1),), ((1,), (1,)))),",
           "tests/test_modules22.py"),
    Mutant("reps square check: a product compared with itself", REPS,
           "!= linalg.mul(field, f34, f13, dims[0])",
           "!= linalg.mul(field, f24, f12, dims[0])",
           "tests/test_oracle.py::test_representation_constructor_checks_commutativity"),
    Mutant("reps shape check: f12 skipped", REPS,
           "zip(ARROWS, maps)", "zip(ARROWS[1:], maps[1:])",
           "tests/test_oracle.py::test_representation_constructor_checks_commutativity"),
    Mutant("reps shape check: row lengths not checked", REPS,
           " or any(len(row) != ncols for row in m)", "",
           "tests/test_oracle.py::test_representation_checks_every_row_length"),
    Mutant("sampling suites: no rerun under seed + 1", SUITES,
           "sampled = matches(*retry)", "sampled = False",
           "tests/test_cli.py::test_sampling_retries_are_reported"),
)


def apply_mutant(mutant: Mutant, root: Path) -> None:
    target = root / mutant.path
    text = target.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {count} times in {mutant.path}")
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def tests_pass(root: Path, test: str) -> bool:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def _copy(source: Path, dest: Path) -> None:
    dest.mkdir()
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in COPIED:
        path = source / name
        if path.is_dir():
            shutil.copytree(path, dest / name, ignore=ignore)
        elif path.exists():
            shutil.copy2(path, dest / name)


def run(mutants=MUTANTS, root: Path = ROOT, out=sys.stdout) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        _copy(root, base)
        for test in sorted({m.test for m in mutants}):
            if not tests_pass(base, test):
                print(f"error: {test} fails without any mutant", file=out)
                return 2
        survived = 0
        for n, mutant in enumerate(mutants):
            work = Path(tmp) / f"mutant{n}"
            _copy(base, work)
            apply_mutant(mutant, work)
            killed = not tests_pass(work, mutant.test)
            survived += not killed
            print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name} ({mutant.test})", file=out)
            shutil.rmtree(work)
        print(f"{len(mutants) - survived} of {len(mutants)} mutants killed", file=out)
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(run())
