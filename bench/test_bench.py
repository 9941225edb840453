"""Self-test of the benchmark: the verdict gate, the tracer's determinism and
installation, and that each workload loads the layers it was chosen for.

Run from the root of the repository (about a minute):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from crystal_grid import g22, suites  # noqa: E402

SEED = 1
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def runs():
    """Per workload: one untraced pass and two traced passes, same seed."""
    workloads.fill_caches()
    out = {}
    for name in NAMES:
        _, plain = workloads.run_pass(name, SEED)
        out[name] = {"untraced": plain, "traced": [_traced_pass(name) for _ in range(2)]}
    return out


def _traced_pass(workload):
    t = tracer.Tracer(SEED)
    t.install()
    try:
        wall, outcomes = workloads.run_pass(workload, SEED)
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(tracer.Tracer(SEED).take(), t.take(), [(wall, 1.0)],
                                   [(wall, 1.0)])
    return outcomes, {k: v["value"] for k, v in metrics.items()}


def _counts(metrics):
    return {k: v for k, v in metrics.items() if k.endswith(("_calls", "_checks", "_nodes"))
            or k in ("oracle.samples", "oracle.retries", "binfty.truncations")}


def test_verdict_gate_flags_wrong_answers():
    assert workloads.mismatch({"ok": True, "exit_code": 0, "elements": 4824},
                              {"ok": True, "exit_code": 0, "elements": 4824}) is None
    assert workloads.mismatch({"ok": True, "exit_code": 0, "elements": 4823},
                              {"ok": True, "exit_code": 0, "elements": 4824})
    assert workloads.mismatch({"ok": False, "exit_code": 1}, {"ok": True, "exit_code": 0})


def test_raising_call_is_a_failed_verdict(monkeypatch):
    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(workloads.cli, "main", broken)
    _, outcomes = workloads.run_pass("sampling", SEED)
    assert [o.error is not None for o in outcomes] == [True, True, True]


def test_uninstall_restores_every_reference():
    originals = (g22.apply_e, g22._STEP_FUNCTIONS["e"], suites.SUITES["star"], g22.iter_components)
    t = tracer.Tracer(SEED)
    t.install()
    try:
        assert g22.apply_e is not originals[0]
        assert g22._STEP_FUNCTIONS["e"] is g22.apply_e
        assert suites.SUITES["star"] is suites.suite_star
    finally:
        t.uninstall()
    assert (g22.apply_e, g22._STEP_FUNCTIONS["e"], suites.SUITES["star"],
            g22.iter_components) == originals


@pytest.mark.parametrize("name", NAMES)
def test_every_verdict_is_right(runs, name):
    assert all(o.error is None for o in runs[name]["untraced"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat(runs, name):
    (_, first), (_, second) = runs[name]["traced"]
    assert _counts(first) == _counts(second)


@pytest.mark.parametrize("name", NAMES)
def test_traced_verdicts_match_untraced(runs, name):
    for outcomes, _ in runs[name]["traced"]:
        assert [(o.label, o.report, o.error) for o in outcomes] == \
            [(o.label, o.report, o.error) for o in runs[name]["untraced"]]


def test_off_layer_counts(runs):
    m = {name: runs[name]["traced"][0][1] for name in NAMES}
    assert m["sampling"]["g22.op_calls"] <= 20
    assert m["ambient"]["g22.op_calls"] <= 20
    assert m["exhaustive"]["binfty.op_calls"] == m["sampling"]["binfty.op_calls"] == 0
    assert m["exhaustive"]["linalg.rank_calls"] == m["ambient"]["linalg.rank_calls"] == 0
    assert m["sampling"]["oracle.retries"] == 0
    assert m["sampling"]["oracle.samples_per_component"] == 1


def test_intended_layers_dominate(runs):
    def share(name, *layers):
        return sum(runs[name]["traced"][0][1][f"{layer}.self_share"] for layer in layers)

    assert share("exhaustive", "g22", "cartan") >= 0.5
    assert share("sampling", "linalg", "oracle", "reps", "modules22") >= 0.5
    assert share("ambient", "binfty") >= 0.5


def test_benchmark_json_names_the_metrics(runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    traced = runs["exhaustive"]["traced"][0][1]
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    trajectory = json.loads((BENCH_DIR / "trajectory.json").read_text())
    assert set(trajectory["predictions"]) == set(traced)
    assert trajectory["verdicts_per_pass"] == {n: workloads.checks_per_pass(n) for n in NAMES}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "exhaustive",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
