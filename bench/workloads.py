"""Workloads of the crystal-grid benchmark and the verdict gate they pass through.

A workload is a fixed list of calls made the way a user makes them: through
``crystal_grid.cli.main(["verify", <suite>, ...])`` in-process, with stdout
captured and the JSON report parsed.  The one exception is the axiom check of
the ambient sequence model, which has no CLI suite and is called directly.

Every call is checked against pinned answers (never against output bytes, so
that new report fields do not break the gate).  ``checks`` is the number of
verdicts a call delivers: one element x color, or one component.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from typing import Callable

from crystal_grid import binfty, cartan, cli, modules22


@dataclass(frozen=True)
class Call:
    label: str
    run: Callable[[int], dict]
    expect: dict
    checks: int


@dataclass(frozen=True)
class Outcome:
    label: str
    report: dict | None
    error: str | None


def _verify(suite: str, *options: str) -> Callable[[int], dict]:
    def run(seed: int) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", suite, *options, "--seed", str(seed)])
        report = json.loads(out.getvalue().splitlines()[-1])
        report["exit_code"] = code
        return report
    return run


def _binfty_axioms(depth: int, length: int) -> Callable[[int], dict]:
    def run(seed: int) -> dict:
        frag = binfty.fragment(depth, pattern=binfty.IotaPattern((1, 2, 3, 4), length))
        report = cartan.check_crystal_axioms(frag)
        return {"ok": report.ok, "elements": len(frag.elements),
                "violations": len(report.violations)}
    return run


_OK = {"ok": True, "exit_code": 0}

WORKLOADS = {
    # g22 operators and statistics under the cartan checker: many cheap
    # elements, no linear algebra; the results do not depend on the seed.
    "exhaustive": (
        Call("axioms2x2 --bound 14", _verify("axioms2x2", "--bound", "14"),
             {**_OK, "elements": 4824}, 2 * 4 * 4824),
        Call("star --bound 10", _verify("star", "--bound", "10"), _OK, 8 * 1379),
        Call("duality --bound 10", _verify("duality", "--bound", "10"), _OK, 8 * 1379),
        Call("connectivity --bound 12", _verify("connectivity", "--bound", "12"),
             {**_OK, "components": 2688}, 2688),
        Call("seminormal --bound 12", _verify("seminormal", "--bound", "12"), _OK, 4 * 2688),
        Call("axiomsAn --max-n 5 --bound 8",
             _verify("axiomsAn", "--max-n", "5", "--bound", "8"), _OK, 18018),
    ),
    # oracle -> reps -> linalg and the modules22 certificate; the seed moves
    # the sampled points.
    "sampling": (
        Call("oracle --max-dim 5 --samples 50",
             _verify("oracle", "--max-dim", "5", "--samples", "50"),
             {**_OK, "components": 2234}, 2234),
        Call("decomp --max-dim 5", _verify("decomp", "--max-dim", "5"),
             {**_OK, "components": 2234}, 2234),
        Call("cbs", _verify("cbs"), _OK, 364),
    ),
    # The same cartan checker on few, expensive binfty elements; two
    # truncation lengths show how a change scales with the length.
    "ambient": (
        Call("binfty axioms depth 6 length 40", _binfty_axioms(6, 40),
             {"ok": True, "elements": 971}, 4 * 971),
        Call("binfty axioms depth 6 length 80", _binfty_axioms(6, 80),
             {"ok": True, "elements": 971}, 4 * 971),
        Call("counterexample", _verify("counterexample"),
             {**_OK, "bc_equal": True, "binfty_distinct": True}, 1),
    ),
}


def checks_per_pass(workload: str) -> int:
    return sum(call.checks for call in WORKLOADS[workload])


def mismatch(report: dict, expect: dict) -> str | None:
    """A description of the first pinned answer the report gets wrong, or None."""
    for key, want in expect.items():
        if report.get(key) != want:
            return f"{key}={report.get(key)!r}, expected {want!r}"
    return None


def run_pass(workload: str, seed: int):
    """Make every call of the workload once, in order; returns (seconds, outcomes)."""
    outcomes = []
    start = time.perf_counter()
    for call in WORKLOADS[workload]:
        try:
            report = call.run(seed)
        except (Exception, SystemExit) as exc:  # a raising call is a failed verdict
            outcomes.append(Outcome(call.label, None, f"raised {exc!r}"))
            continue
        outcomes.append(Outcome(call.label, report, mismatch(report, call.expect)))
    return time.perf_counter() - start, outcomes


def fill_caches() -> None:
    """Fill the one-time caches of modules22, as the first use in a process does."""
    kinds = sorted(modules22.INTERVAL_DIMS)
    modules22.ext1_table()
    modules22.multiplicities_from_profile(modules22.profile_of_multiset({k: 1 for k in kinds}))
    for i in kinds:
        for j in kinds:
            modules22.hom_dim(i, j)
