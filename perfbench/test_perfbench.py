"""Fast self-test of the benchmark.  From the repository root:

    python3 -m pytest perfbench -q

Runs every workload once at tiny sizes, traced and untraced, and checks
that each reports every declared metric with its unit.  Then corrupts one
output per check and asserts that the check fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WHY = {w["name"]: w["why"] for w in DECLARED["workloads"]}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_the_harness():
    assert list(WHY) == list(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in DECLARED["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WHY))
def test_tiny_run_reports_every_metric(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(m["name"], m["unit"]) for m in declared]
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert detail["why"] == WHY[workload]
    assert {"nproc", "python", "numpy", "scipy", "git_sha"} <= set(detail["machine"])
    assert detail["failed_op_share"]["attempted"] == result["attempted"]
    assert not (ROOT / ".perfbench_work").exists()


def test_without_the_package_the_run_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "mc-occupancy", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_harness_imports_neither_package_nor_test_tools():
    probe = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
             "print(sorted(m for m in ('boxchain', 'numpy', 'scipy', 'pytest', 'hypothesis') "
             "if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# every output check fails on a corrupted result


def corrupt_hits(estimates, site, hits):
    return [dataclasses.replace(e, hits=hits, estimate=hits / e.trials) if e.site == site else e
            for e in estimates]


def test_mc_occupancy_checks_catch_corruption():
    w = workloads.McOccupancy(5, tiny=True)
    w.setup()
    out = w.op(0)
    assert w.check(0, out) == []
    n = w.trials
    for label, site, hits in (
        ("t3_p0.5_201sites", 0, 0),          # outside the exact bracket
        ("t3_p0.8_21sites", 0, 0),
        ("t20_p0.5_21sites", 1, n),          # breaks evenness
        ("2d_t3_p0.5_l1ball4", (0, 1), n),   # breaks the square's symmetry
    ):
        bad = {**out, label: corrupt_hits(out[label], site, hits)}
        assert w.check(2, bad), label
    again = w.op(2)                          # same seed as op 0
    assert w.check(2, again) == []
    first = again["t20_p0.5_21sites"][0]
    bad = {**again, "t20_p0.5_21sites": corrupt_hits(again["t20_p0.5_21sites"], first.site, first.hits + 1)}
    assert any("repeated" in e for e in w.check(4, bad))


def test_coupling_pathwise_checks_catch_corruption():
    w = workloads.CouplingPathwise(5, tiny=True)
    out = w.op(0)
    assert w.check(0, out) == []
    flip = lambda r: dataclasses.replace(r, passed=not r.passed)  # noqa: E731
    for label in ("invariants_p0.5", "reflection", "marginals_t2",
                  "mutant_marginals_skip_map", "mutant_reflection_unmirrored"):
        assert w.check(0, {**out, label: flip(out[label])}), label
    mutant = out["mutant_invariants_skip_map"]
    no_coalescence = dataclasses.replace(mutant, params={**mutant.params, "coalesced_runs": 0})
    assert w.check(0, {**out, "mutant_invariants_skip_map": no_coalescence})
    coal = out["coalescence"]
    assert w.check(0, {**out, "coalescence": dataclasses.replace(coal, censored=coal.censored + 1)})
    late = {t + 1: c for t, c in coal.first_event_times.items()}
    assert w.check(0, {**out, "coalescence": dataclasses.replace(coal, first_event_times=late)})


def test_exact_law_checks_catch_corruption():
    w = workloads.ExactLaw(5, tiny=True)
    w.setup()
    out = w.op(0)
    assert w.check(0, out) == []

    def with_table(label, edit):
        law, table = out[label]
        return {**out, label: (law, [edit(b) for b in table])}

    label = "uniform_p0.5_n40_t6"
    swapped = with_table(label, lambda b: dataclasses.replace(b, lo=b.hi, hi=b.lo) if b.site == 0 else b)
    uneven = with_table(label, lambda b: dataclasses.replace(b, lo=b.lo + 1e-6, hi=b.hi + 1e-6)
                        if b.site == 3 else b)
    rising = with_table(label, lambda b: dataclasses.replace(b, lo=b.lo + 0.5, hi=b.hi + 0.5)
                        if abs(b.site) == 5 else b)
    law, table = out[label]
    leaky = {**out, label: (dataclasses.replace(law, lost=law.lost * 2 + 1e-3), table)}
    nudge = Fraction(1, 10**9)
    rational = with_table(w.laws[-1][0], lambda b: dataclasses.replace(b, lo=b.lo + nudge, hi=b.hi + nudge)
                          if b.site == 0 else b)
    for bad in (swapped, uneven, rising, leaky, rational):
        assert w.check(0, bad)
    w.laws = tuple((*law[:6], 0.0) for law in w.laws)   # certified width 0: any lost is wider
    assert any("wider" in e for e in w.check(0, out))


def test_cli_fresh_checks_catch_corruption():
    w = workloads.CliFresh(5, tiny=True)
    try:
        w.setup()
        out = w.trace_op(0)
        assert w.check(0, out) == []
        code, data = out["mc_t3"]
        assert w.check(0, {**out, "mc_t3": (1, data)})
        assert w.check(0, {**out, "mc_t3": (code, data.replace(b"0", b"1", 1))})
    finally:
        w.close()
