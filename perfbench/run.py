"""boxchain benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc-occupancy --seed 1 --seconds 15 --trace 0

The workloads, metrics and the layer each metric belongs to are described
in perfbench/README.md.  Every workload runs in fresh single-threaded
worker processes (``worker.py``): ``SETUP_REPEATS - 1`` that only set up,
then one that sets up and measures, so ``setup_s`` is a median over
``SETUP_REPEATS`` set-ups.  This script imports nothing from the package.

Output: a detail line (JSON with the samples behind every metric, the
machine facts and the output-check failures), then, as the last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  The exit code is 0 whenever a result is printed; it is 1
when a worker fails and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Workloads, metric names and units are declared once, in BENCHMARK.json.
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in DECLARED["workloads"]}
SETUP_REPEATS = 3
# Time allowed for each worker's set-up.  The run's deadline is this for
# every worker plus twice the measured time, which leaves room for the
# last op to run past ``--seconds``.
SETUP_LIMIT_S = 40


def tail(times: list[float]) -> tuple[float, str]:
    """p90 when a run holds >= 100 ops, else the highest percentile with at
    least 10 samples beyond it, but never below the median."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 100:
        return statistics.quantiles(ordered, n=10)[8], "p90"
    rank = n - 11
    if rank >= 0 and rank / (n - 1) > 0.5:
        return ordered[rank], f"p{100 * rank / (n - 1):.0f}"
    return statistics.median(ordered), "p50"


def machine_facts() -> dict:
    def version(dist: str):
        try:
            return metadata.version(dist)  # reads metadata, imports nothing
        except metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
    }


def package_env() -> dict | None:
    """Environment for processes that run the checkout's package, or None
    when the working directory holds no package."""
    src = Path("src").resolve()
    if not (src / "boxchain" / "__init__.py").is_file():
        print(f"error: no boxchain package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return None
    return {**os.environ, "PYTHONPATH": str(src), "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker(args, env: dict, deadline: float, *extra: str) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    if args.tiny:
        argv.append("--tiny")
    spawned_at = time.monotonic()
    done = subprocess.run([*argv, "--spawned-at", repr(spawned_at)], env=env,
                          stdout=subprocess.PIPE, timeout=deadline - spawned_at, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(argv[2:])} exited {done.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args()

    env = package_env()
    if env is None:
        return 2

    deadline = time.monotonic() + SETUP_REPEATS * SETUP_LIMIT_S + 2 * args.seconds
    try:
        setups = [worker(args, env, deadline, "--setup-only") for _ in range(SETUP_REPEATS - 1)]
        run = worker(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup_samples = [s["setup_s"] for s in (*setups, run)]
    setup_failures = [f for s in (*setups, run) for f in s.get("setup_failures", [])]
    attempted, failed = run["attempted"], run["failed"]
    detail = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine_facts(),
        "setup_s_samples": setup_samples,
        "setup_wall_s_samples": [s["setup_wall_s"] for s in (*setups, run)],
        "import_s_in_worker": run["import_s"],
        "failed_op_share": {"value": failed / max(attempted, 1), "unit": "ratio",
                            "failed": failed, "attempted": attempted},
        "failures": run["failures"] + setup_failures,
        "foreign_modules_loaded": run["foreign_modules"],
        "scipy_loaded_by_package": run["scipy_loaded"],
    }
    if "max_bracket_width" in run:
        detail["max_bracket_width"] = {"value": run["max_bracket_width"], "unit": "prob"}

    if args.trace:
        metrics = run["per_layer"]
    else:
        times = run["op_s"]
        p90, which = tail(times)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "op_s_p50": statistics.median(times),
            "op_s_p90": p90,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        wall = run["op_wall_s"]
        detail["op_samples"] = len(times)
        detail["op_s_p90_is"] = f"{which} of {len(times)} ops"
        detail["op_wall_s_p50"] = statistics.median(wall)
        if run["trials_per_op"]:
            detail["trials_per_s"] = {"value": run["trials_per_op"] * len(wall) / sum(wall),
                                      "unit": "1/s", "trials_per_op": run["trials_per_op"]}
        detail["call_s_p50"] = {k: statistics.median(v) for k, v in run["call_times"].items()}
    declared = DECLARED["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0 and not setup_failures and not run["foreign_modules"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
