"""Benchmark of crystal-grid's verification suites.

Run from the root of a checkout:

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 35 --trace 0

The workloads (exhaustive, sampling, ambient) are defined in workloads.py.
Each is a single-process closed loop: one caller, each call starting after
the previous one returns.  A run repeats whole passes of the workload until
--seconds have gone by and checks every verdict of every pass.  The fixed
load of reference.py is timed before and after every pass; a pass's cost in
reference units is its wall time over the mean of the two, which cancels the
drift of the host's speed that raw wall times on a shared host show.

--trace 0 prints the end-to-end metrics:
  setup_s         median, over fresh interpreters started before every pass,
                  of the time to import crystal_grid and fill its caches
  wall_ref        median cost of one pass after set-up, in reference units
  checks_per_ref  verdicts per pass (element x color or component) / wall_ref
  peak_rss_mb     peak resident memory of the run's process
A run makes fewer than eleven passes, so no percentile above the median has
ten samples beyond it; every pass's [seconds, reference units] go to stderr.

--trace 1 times untraced passes, then installs the tracer of tracer.py,
traces the cache fill and further passes, and prints the per-layer metrics,
raw seconds among them.  The span aggregates are written to .bench_out/.

The last line on stdout is one JSON object with the keys correct, attempted,
failed and metrics; attempted and failed count suite calls, so
failed / attempted is the failed share.  Exit code 2 means the benchmark
could not start, 1 that no pass returned correct verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PER_PASS = 2
UNTRACED_SHARE = 0.25  # of --seconds, for the untraced passes of a traced run

# Times the import of every layer (cli imports them all) and the cache fill,
# not the import of the benchmark's own module in between.
_SETUP_CHILD = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import crystal_grid.cli
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.fill_caches()
print(t1 - t0 + time.perf_counter() - t2)
"""


def measure_setup() -> float:
    """Set-up seconds of one fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH_DIR)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_passes(workloads, workload: str, seed: int, seconds: float, tally: dict,
               between=None) -> list:
    """Repeat whole passes until `seconds` have gone by, at least one, timing
    the reference load right before and after each.  `between`, if given,
    runs before each pass, outside the timing.  Returns (seconds, reference
    units) of each pass whose verdicts were all right."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        if between is not None:
            between()
        before = reference.seconds()
        wall, outcomes = workloads.run_pass(workload, seed)
        after = reference.seconds()
        bad = [o for o in outcomes if o.error]
        tally["attempted"] += len(outcomes)
        tally["failed"] += len(bad)
        for o in bad:
            print(f"wrong verdict: {o.label}: {o.error}", file=sys.stderr)
        if not bad:
            passes.append((wall, wall / ((before + after) / 2)))
        if time.perf_counter() >= deadline:
            return passes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "commit": _git_commit()}


def end_to_end(workloads, args, tally: dict) -> dict:
    workloads.fill_caches()
    # Set-up samples are spread over the run, so that they meet the same
    # drift of the host's speed as the passes do.
    setup = []
    passes = run_passes(workloads, args.workload, args.seed, args.seconds, tally,
                        between=lambda: setup.extend(measure_setup()
                                                     for _ in range(SETUP_PER_PASS)))
    print(json.dumps({"setup_s": setup, "passes_s_ref": passes}), file=sys.stderr)
    if not passes:
        return None
    wall_ref = statistics.median(ref for _, ref in passes)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "wall_ref": {"value": wall_ref, "unit": "ref"},
        "checks_per_ref": {"value": workloads.checks_per_pass(args.workload) / wall_ref,
                           "unit": "1/ref"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def per_layer(workloads, args, tally: dict, env: dict) -> dict:
    from tracer import Tracer, layer_metrics

    tracer = Tracer(args.seed)
    tracer.install()
    try:
        workloads.fill_caches()
    finally:
        tracer.uninstall()
    setup = tracer.take()
    untraced = run_passes(workloads, args.workload, args.seed,
                          args.seconds * UNTRACED_SHARE, tally)
    tracer.install()
    try:
        traced = run_passes(workloads, args.workload, args.seed,
                            args.seconds * (1 - UNTRACED_SHARE), tally)
    finally:
        tracer.uninstall()
    passes = tracer.take()
    print(json.dumps({"untraced_passes_s_ref": untraced, "traced_passes_s_ref": traced}),
          file=sys.stderr)
    if not untraced or not traced:
        return None
    metrics = layer_metrics(setup, passes, traced, untraced)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "environment": env,
        "untraced_passes_s_ref": untraced, "traced_passes_s_ref": traced,
        "setup_spans": _rows(setup), "pass_spans": _rows(passes),
        "metrics": metrics,
    }, indent=1) + "\n", encoding="utf-8")
    return metrics


def _rows(data: dict) -> list:
    return [{"span": span, "parent": parent, "calls": rec[0], "total_s": rec[1],
             "self_s": rec[2], "none": rec[3], "raised": rec[4]}
            for (span, parent), rec in sorted(data["agg"].items())]


def main(argv=None) -> int:
    if not (SRC / "crystal_grid" / "__init__.py").is_file():
        print(f"error: no crystal_grid package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import crystal_grid
    import workloads

    if Path(crystal_grid.__file__).resolve().parent != (SRC / "crystal_grid").resolve():
        print(f"error: crystal_grid imported from {crystal_grid.__file__}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description="crystal-grid benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = environment()
    print(json.dumps({"environment": env, "workload": args.workload, "seed": args.seed}),
          file=sys.stderr)
    tally = {"attempted": 0, "failed": 0}
    run = per_layer(workloads, args, tally, env) if args.trace else \
        end_to_end(workloads, args, tally)
    if run is None:
        print("error: no pass returned correct verdicts", file=sys.stderr)
        return 1
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": run}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
