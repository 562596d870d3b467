import csv
import json
import subprocess
import sys

import pytest

from boxchain import Span, estimate_occupancy
from boxchain.cli import main


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def read_meta(path):
    with open(str(path) + ".meta.json") as handle:
        return json.load(handle)


def test_simulate_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["simulate", "--p", "0.5", "--t", "10", "--seed", "7", "--trials", "3"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = read_csv(out_a)
    assert rows[0] == ["trial", "t", "left", "right"]
    assert len(rows) == 1 + 3 * 11
    meta = read_meta(out_a)
    assert meta["command"] == "simulate"
    assert meta["config"]["seed"] == 7


def test_simulate_absorption_in_rows(tmp_path):
    out = tmp_path / "path.csv"
    assert main(["simulate", "--t", "25", "--seed", "3", "--trials", "5", "--out", str(out)]) == 0
    for trial_rows in range(5):
        rows = [r for r in read_csv(out)[1:] if r[0] == str(trial_rows)]
        seen_empty = False
        for row in rows:
            if seen_empty:
                assert row[2] == "EMPTY" and row[3] == "EMPTY"
            if row[2] == "EMPTY":
                seen_empty = True


def test_simulate_endpoint_resample_never_empty(tmp_path):
    out = tmp_path / "er.csv"
    assert main([
        "simulate", "--variant", "endpoint-resample", "--t", "30", "--seed", "1",
        "--trials", "4", "--out", str(out),
    ]) == 0
    for row in read_csv(out)[1:]:
        assert row[2] != "EMPTY" and row[3] != "EMPTY"


def test_simulate_kill_uniform_variants(tmp_path):
    always = tmp_path / "always.csv"
    assert main([
        "simulate", "--variant", "kill-uniform", "--p-empty", "1.0", "--t", "3",
        "--trials", "3", "--out", str(always),
    ]) == 0
    for row in read_csv(always)[1:]:
        if int(row[1]) >= 1:
            assert row[2] == "EMPTY"
    never = tmp_path / "never.csv"
    assert main([
        "simulate", "--variant", "kill-uniform", "--p-empty", "0.0", "--t", "20",
        "--trials", "3", "--out", str(never),
    ]) == 0
    assert all(row[2] != "EMPTY" for row in read_csv(never)[1:])
    assert main([
        "simulate", "--variant", "kill-uniform", "--p-empty", "1.5",
        "--out", str(tmp_path / "bad.csv"),
    ]) == 2


def test_simulate_negative_initial(tmp_path):
    out = tmp_path / "neg.csv"
    assert main(["simulate", "--initial=-3:5", "--t", "0", "--out", str(out)]) == 0
    assert read_csv(out)[1] == ["0", "0", "-3", "5"]
    assert main(["simulate", "--initial", "5:3", "--out", str(tmp_path / "b.csv")]) == 2
    assert main(["simulate", "--initial", "junk", "--out", str(tmp_path / "c.csv")]) == 2


def test_simulate_2d_schema(tmp_path):
    out = tmp_path / "d2.csv"
    assert main(["simulate", "--dimension", "2", "--t", "5", "--seed", "2", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["trial", "t", "left0", "right0", "left1", "right1"]
    assert rows[1] == ["0", "0", "0", "0", "0", "0"]


def test_exact_brackets_closed_form(tmp_path):
    out = tmp_path / "exact.csv"
    assert main([
        "exact", "--p", "0.5", "--t", "1", "--n-max", "40",
        "--x-min", "-6", "--x-max", "6", "--out", str(out),
    ]) == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "lo", "hi"]
    for row in rows[1:]:
        x, lo, hi = int(row[0]), float(row[1]), float(row[2])
        truth = 0.5 * 0.5 ** abs(x)
        assert lo <= truth + 1e-15 <= hi + 1e-15
    meta = read_meta(out)
    assert float(meta["lost"]) < 1e-12


def test_exact_rational_mode_and_dist_out(tmp_path):
    out = tmp_path / "exact.csv"
    dist_out = tmp_path / "dist.csv"
    assert main([
        "exact", "--p", "0.5", "--t", "1", "--n-max", "20", "--arithmetic", "rational",
        "--x-min", "-2", "--x-max", "2", "--dist-out", str(dist_out), "--out", str(out),
    ]) == 0
    meta = read_meta(out)
    lost = float(meta["lost"])
    for row in read_csv(out)[1:]:
        lo, hi = float(row[1]), float(row[2])
        assert hi - lo == pytest.approx(lost, abs=1e-15)
    dist_rows = read_csv(dist_out)
    assert dist_rows[0] == ["left", "right", "mass"]
    assert dist_rows[1][0] == "EMPTY"
    assert float(dist_rows[1][2]) == pytest.approx(0.5)
    total = sum(float(r[2]) for r in dist_rows[1:]) + lost
    assert total == pytest.approx(1.0, abs=1e-12)


def test_exact_rejects_dimension_two(tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["exact", "--dimension", "2", "--out", str(out)]) == 2


def test_mc_matches_library(tmp_path):
    out = tmp_path / "mc.csv"
    assert main([
        "mc", "--p", "0.5", "--t", "2", "--trials", "20000", "--seed", "5",
        "--sites=-1,0,1", "--out", str(out),
    ]) == 0
    rows = read_csv(out)
    expected = estimate_occupancy(Span(0, 0), 2, [-1, 0, 1], 20000, p=0.5, seed=5)
    assert rows[0] == ["x", "estimate", "ci_lo", "ci_hi"]
    for row, est in zip(rows[1:], expected):
        assert int(row[0]) == est.site
        assert row[1] == repr(est.estimate)
        assert row[2] == repr(est.ci_lo)
        assert row[3] == repr(est.ci_hi)


def test_mc_jobs_invariant(tmp_path):
    out_serial = tmp_path / "s.csv"
    out_threaded = tmp_path / "t.csv"
    base = ["mc", "--t", "2", "--trials", "30000", "--seed", "9", "--x-min", "-3", "--x-max", "3"]
    assert main(base + ["--out", str(out_serial)]) == 0
    assert main(base + ["--jobs", "4", "--out", str(out_threaded)]) == 0
    assert out_serial.read_bytes() == out_threaded.read_bytes()


def test_mc_2d_schema(tmp_path):
    out = tmp_path / "mc2.csv"
    assert main([
        "mc", "--dimension", "2", "--t", "1", "--trials", "5000", "--radius", "2",
        "--seed", "4", "--out", str(out),
    ]) == 0
    rows = read_csv(out)
    assert rows[0] == ["x", "y", "estimate", "ci_lo", "ci_hi"]
    assert len(rows) == 1 + 13  # |x|+|y| <= 2


def test_mc_empty_sites_usage_error(tmp_path):
    out = tmp_path / "mc.csv"
    assert main(["mc", "--sites", "", "--out", str(out)]) == 2


def test_variants_are_one_dimensional(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--dimension", "2", "--variant", "endpoint-resample",
                 "--out", str(out)]) == 2
    assert main(["mc", "--dimension", "2", "--variant", "kill-uniform", "--trials",
                 "100", "--out", str(out)]) == 2


def test_mc_hoeffding_intervals_wider(tmp_path):
    wilson_out = tmp_path / "w.csv"
    hoeffding_out = tmp_path / "h.csv"
    base = ["mc", "--t", "1", "--trials", "20000", "--seed", "2", "--sites", "0"]
    assert main(base + ["--ci", "wilson", "--out", str(wilson_out)]) == 0
    assert main(base + ["--ci", "hoeffding", "--out", str(hoeffding_out)]) == 0
    w = read_csv(wilson_out)[1]
    h = read_csv(hoeffding_out)[1]
    assert w[1] == h[1]  # same estimate, same paths
    assert float(h[3]) - float(h[2]) > float(w[3]) - float(w[2])


def test_usage_errors():
    assert main(["simulate"]) == 2  # missing --out
    assert main(["simulate", "--p", "1.5", "--out", "x.csv"]) == 2
    assert main(["simulate", "--t", "-1", "--out", "x.csv"]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2


def test_verify_fast_suites_pass(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main([
        "verify", "--suites", "reflection,coupling-invariants", "--trials", "2000",
        "--horizon", "30", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["claim", "params", "margin", "pass"]
    assert {row[0] for row in rows[1:]} == {"reflection-identity", "coupling-invariants"}
    assert all(row[3] == "pass" for row in rows[1:])
    meta = read_meta(out)
    assert meta["passed"] is True
    assert "wall_time_s" in meta


def test_verify_mutant_fails(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "verify", "--suites", "reflection", "--mutant", "unmirrored-reflection",
        "--trials", "2000", "--horizon", "30", "--out", str(out),
    ])
    assert code == 1
    rows = read_csv(out)
    assert rows[1][3] == "fail"


def test_verify_unknown_suite(tmp_path):
    assert main(["verify", "--suites", "bogus", "--out", str(tmp_path / "r.csv")]) == 2


def test_verify_copied_contraction_mutant_fails(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "verify", "--suites", "coupling-marginals", "--mutant", "skip-antithetic-map",
        "--trials", "60000", "--t", "2", "--out", str(out),
    ])
    assert code == 1


def test_verify_full_default_suite_documents_tied_norm_failure(tmp_path):
    # The faithful build passes every suite except the planar tied-norm
    # comparison, which the dynamics genuinely violates for t >= 2, so the
    # full default run exits 1 with exactly that suite failing.
    out = tmp_path / "report.csv"
    code = main(["verify", "--trials", "60000", "--seed", "1", "--out", str(out)])
    assert code == 1
    outcomes = {row[0]: row[3] for row in read_csv(out)[1:]}
    assert outcomes.pop("occupancy-monotone-l1-2d") == "fail"
    assert set(outcomes.values()) == {"pass"}


def test_verify_report_bytes_stable(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["verify", "--suites", "even", "--trials", "20000", "--t", "2", "--seed", "6"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_file_defaults_and_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t": 4, "seed": 11, "trials": 2}))
    out = tmp_path / "sim.csv"
    assert main(["--config", str(config), "simulate", "--trials", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    # t comes from the file, trials overridden on the command line
    assert len(rows) == 1 + 5
    meta = read_meta(out)
    assert meta["config"]["seed"] == 11


def test_console_entry_point_runs(tmp_path):
    out = tmp_path / "sim.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "boxchain", "simulate", "--t", "2", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_verify_runs_and_records_every_requested_trial(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "verify", "--suites", "coupling-invariants,reflection", "--trials", "30000",
        "--horizon", "20", "--seed", "4", "--out", str(out),
    ])
    assert code == 0
    for row in read_csv(out)[1:]:
        assert "trials=30000" in row[1].split(";")
    assert read_meta(out)["config"]["trials"] == 30000
    # --confidence was never applied by any suite, so verify does not take it.
    assert main(["verify", "--suites", "reflection", "--confidence", "0.9",
                 "--out", str(tmp_path / "c.csv")]) == 2
