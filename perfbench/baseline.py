"""Reproduce the ROADMAP baseline table: every row at its stated size.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

Each row is the median wall time of ``REPEATS`` runs.  CLI rows run as
fresh ``python -m boxchain`` processes; library rows run in one fresh
worker process after the package is imported.  Prints one JSON object
with the machine facts and the rows.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import machine_facts, package_env
from worker import IMPORT_PROBE

REPEATS = 3

CLI_ROWS = {
    "cli simulate --t 3": ["simulate", "--t", "3"],
    "cli mc --t 3 --trials 1e6": ["mc", "--t", "3", "--trials", "1000000"],
    "cli mc --dimension 2 --t 3 --radius 4 --trials 1e6": [
        "mc", "--dimension", "2", "--t", "3", "--radius", "4", "--trials", "1000000"],
    "cli exact --p 0.8 --n-max 120 --t 4": ["exact", "--p", "0.8", "--n-max", "120", "--t", "4"],
    "cli verify coupling-invariants,reflection --trials 20000": [
        "verify", "--suites", "coupling-invariants,reflection", "--trials", "20000"],
    "cli verify coupling-marginals --trials 100000": [
        "verify", "--suites", "coupling-marginals", "--trials", "100000"],
}

# Library rows, run in a worker process; each expression is timed alone.
LIBRARY_ROWS = {
    "estimate_occupancy 1e6 t=3 21 sites": "mc.estimate_occupancy(Span(0, 0), 3, range(-10, 11), 10**6)",
    "estimate_occupancy 1e6 t=3 201 sites": "mc.estimate_occupancy(Span(0, 0), 3, range(-100, 101), 10**6)",
    "estimate_occupancy 1e6 t=20 21 sites": "mc.estimate_occupancy(Span(0, 0), 20, range(-10, 11), 10**6)",
    "estimate_occupancy_2d 1e6 t=3 41 points": "mc.estimate_occupancy_2d(unit_box(2), 3, BALL, 10**6)",
    "coupling_invariant_check 2e4 x 50": "mc.coupling_invariant_check(50, 0.5, 20_000)",
    "reflection_identity_check 2e4 x 50": "mc.reflection_identity_check(50, 0.5, 20_000)",
    "coupling_marginal_test t=2 2e5": "mc.coupling_marginal_test(2, 0.5, 200_000)",
    "evolve p=0.8 n_max=120 t=4": "oracle.evolve(Span(0, 0), 4, p=0.8, policy=oracle.TruncationPolicy(120))",
}

LIBRARY_WORKER = """
import json, statistics, sys, time
from boxchain import Span, unit_box, montecarlo as mc, oracle
BALL = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if abs(x) + abs(y) <= 4]
rows, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
out = {}
for label, expr in rows.items():
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        eval(expr)
        samples.append(time.perf_counter() - t0)
    out[label] = statistics.median(samples)
print(json.dumps(out))
"""


def timed(argv: list[str], env: dict) -> tuple[float, int]:
    t0 = time.perf_counter()
    code = subprocess.run(argv, env=env, capture_output=True, timeout=600).returncode
    return time.perf_counter() - t0, code


def main() -> int:
    env = package_env()
    if env is None:
        return 2
    rows: dict[str, dict] = {}

    samples = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                                    capture_output=True, text=True).stdout)
               for _ in range(REPEATS)]
    rows["import boxchain"] = {"s": statistics.median(samples)}

    work = Path(".perfbench_work")
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=work))
    try:
        for label, argv in CLI_ROWS.items():
            runs = [timed([sys.executable, "-m", "boxchain", *argv, "--out", str(tmp / "out.csv")], env)
                    for _ in range(REPEATS)]
            rows[label] = {"s": statistics.median(s for s, _ in runs),
                           "exit_codes": sorted({c for _, c in runs})}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass  # another run still uses it

    done = subprocess.run([sys.executable, "-c", LIBRARY_WORKER, json.dumps(LIBRARY_ROWS),
                           str(REPEATS)], env=env, check=True, capture_output=True,
                          text=True, timeout=1200)
    rows.update({k: {"s": v} for k, v in json.loads(done.stdout.strip().splitlines()[-1]).items()})
    print(json.dumps({"machine": machine_facts(), "repeats": REPEATS, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
