"""One workload process: set up, warm up, then run timed ops in a closed loop.

Started by ``run.py`` as a fresh single-threaded process per set-up or
measurement.  ``--spawned-at`` is the parent's ``time.monotonic()`` just
before the process was started (CLOCK_MONOTONIC, shared by all processes
on Linux), so set-up time runs from process start to the first timed op.
The last line of stdout is one JSON object with the samples; the parent
computes the reported metrics from them.

Times that carry a bound are in reference seconds (``reference.py``):
set-up is the work from process start to the first timed op, without the
reference loops and the warm-up's output check.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

from reference import ScaledClock

IMPORT_PROBE = "import time; t = time.perf_counter(); import boxchain; print(time.perf_counter() - t)"


def run_ops(workload, op, first: int, seconds: float, result: dict, times: list,
            ref_times: list | None = None) -> int:
    """Closed loop with one caller: ops back to back until ``seconds`` pass.

    Wall times go to ``times``; with ``ref_times``, each op's time in
    reference seconds goes there too.  With the workload's clock set, both
    come from the clock, so they count the calls and not the reference
    loops timed between them.
    """
    clock = workload.clock
    started = time.perf_counter()
    i = first
    while True:
        wall_before, scaled_before = (clock.wall, clock.scaled) if clock else (0.0, 0.0)
        t0 = time.perf_counter()
        try:
            outputs = op(i)
        except Exception:  # a raising op is a failed op; keep measuring
            traceback.print_exc(file=sys.stderr)
            errors = ["op raised"]
        else:
            times.append(clock.wall - wall_before if clock else time.perf_counter() - t0)
            if ref_times is not None:
                ref_times.append(clock.scaled - scaled_before)
            errors = workload.check(i, outputs)
            width = workload.max_bracket_width(outputs)
            if width is not None:
                result["max_bracket_width"] = max(result.get("max_bracket_width", 0.0), width)
            del outputs
        result["attempted"] += 1
        if errors:
            result["failed"] += 1
            result["failures"].extend(errors[: max(0, 5 - len(result["failures"]))])
        i += 1
        if time.perf_counter() - started >= seconds:
            return i


def subprocess_seconds(argv: list[str], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def import_seconds(repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                              capture_output=True, text=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args()
    # One CPU for this process and the CLI processes it starts, so the
    # reference loop runs where the ops ran.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    entered = time.monotonic()
    clock = ScaledClock()
    started = time.monotonic()
    import boxchain  # noqa: F401  (timed: the package's own import cost)
    import_s = time.monotonic() - started
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    result = {"import_s": import_s, "attempted": 0, "failed": 0, "failures": []}
    try:
        workload.setup()
        clock.add(entered - args.spawned_at + time.monotonic() - started)
        workload.clock = clock
        if args.workload != "cli-fresh":
            # Warm-up: one checked op, counted in set-up.  For cli-fresh
            # the in-process reference runs of set-up are the warm-up.
            warm = workload.op(-1)
            result["setup_failures"] = workload.check(-1, warm)[:5]
            del warm
            workload.call_times.clear()
        result["setup_wall_s"], result["setup_s"] = clock.wall, clock.scaled
        if args.setup_only:
            print(json.dumps(result))
            return 0

        times: list[float] = []
        if not args.trace:
            ref_times: list[float] = []
            run_ops(workload, workload.op, 0, args.seconds, result, times, ref_times)
            result["op_wall_s"] = times
            result["op_s"] = ref_times
            result["call_times"] = workload.call_times
            result["trials_per_op"] = workload.trials_per_op
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-fresh" else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        else:
            workload.clock = None  # traced times are wall times
            result["per_layer"] = traced_run(workload, args, result)
    finally:
        workload.close()
    result["foreign_modules"] = sorted(m for m in ("pytest", "hypothesis") if m in sys.modules)
    result["scipy_loaded"] = "scipy" in sys.modules
    print(json.dumps(result))
    return 0


def traced_run(workload, args, result: dict) -> dict:
    """Untraced ops, then the same ops under the tracer; per-layer metrics per op."""
    import tracing

    repeats = 1 if args.tiny else 3
    layer = {
        "cli.python_start_s": subprocess_seconds([sys.executable, "-c", "pass"], repeats),
        "cli.import_s": import_seconds(repeats),
        "cli.main_s": 0.0,
        "cli.process_s": 0.0,
    }
    in_process = hasattr(workload, "trace_op")
    trace_op = workload.trace_op if in_process else workload.op
    share = args.seconds / (3 if in_process else 2)
    plain: list[float] = []
    nxt = run_ops(workload, workload.op, 0, share, result, plain)
    if in_process:
        # cli-fresh: its ops are subprocesses; the tracer sees in-process
        # runs of the same commands, whose untraced time is cli.main_s.
        layer["cli.process_s"] = statistics.median(plain)
        plain = []
        nxt = run_ops(workload, trace_op, nxt, share, result, plain)
        layer["cli.main_s"] = statistics.median(plain)
    traced: list[float] = []
    with tracing.Tracer() as tracer:
        run_ops(workload, trace_op, nxt, share, result, traced)
    layer.update(tracer.per_op(len(traced)))
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return layer


if __name__ == "__main__":
    sys.exit(main())
