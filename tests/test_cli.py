import csv
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from boxchain import UNIFORM, Span, TruncationPolicy, estimate_occupancy, evolve
from boxchain.cli import _dist_rows, main


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
    assert (meta["support_spans"], meta["grid_extent"]) == (41 * 41, 81)
    assert "denominator_bits" not in meta


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
    # One contraction (the common denominator gains 2) and one expansion
    # (it gains 2**42): the law is held over 2**43.
    assert (meta["support_spans"], meta["grid_extent"]) == (len(dist_rows) - 2, 41)
    assert meta["denominator_bits"] == 44


def test_exact_rational_kill_rule_is_exact(tmp_path):
    common = [
        "exact", "--t", "2", "--n-max", "6", "--arithmetic", "rational", "--x-min", "-3", "--x-max", "3",
    ]
    uniform, kill = tmp_path / "uniform.csv", tmp_path / "kill.csv"
    assert main(common + ["--out", str(uniform)]) == 0
    assert main(common + ["--variant", "kill-uniform", "--out", str(kill)]) == 0
    assert kill.read_bytes() == uniform.read_bytes()
    assert read_meta(kill)["lost_exact"] == read_meta(uniform)["lost_exact"]
    # A constant death probability 3/10: lost = (7/10)(1 - (7/8)**2) = 21/128.
    const = tmp_path / "const.csv"
    assert main([
        "exact", "--t", "1", "--n-max", "2", "--arithmetic", "rational", "--variant", "kill-uniform",
        "--p-empty", "0.3", "--out", str(const),
    ]) == 0
    assert read_meta(const)["lost_exact"] == "21/128"


@pytest.mark.parametrize("argv", [
    ["--p", "6e-10", "--t", "1", "--n-max", "6", "--x-min", "0", "--x-max", "1"],
    ["--variant", "kill-uniform", "--p-empty", "1e-10", "--t", "1", "--n-max", "40", "--x-min", "0",
     "--x-max", "0"],
])
def test_rational_exact_computes_at_the_flag(tmp_path, argv):
    # A flag whose fraction of denominator at most 10**9 does not round back
    # to it is read at its exact float value, as the float run reads it.
    floats, rational = tmp_path / "float.csv", tmp_path / "rational.csv"
    assert main(["exact", *argv, "--out", str(floats)]) == 0
    assert main(["exact", *argv, "--arithmetic", "rational", "--out", str(rational)]) == 0
    for want, got in zip(read_csv(floats)[1:], read_csv(rational)[1:], strict=True):
        assert want[0] == got[0]
        assert float(got[1]) == pytest.approx(float(want[1]), abs=1e-12)
        assert float(got[2]) == pytest.approx(float(want[2]), abs=1e-12)


def test_exact_rejects_empty_site_range(tmp_path, capsys):
    out = tmp_path / "exact.csv"
    assert main(["exact", "--x-min", "5", "--x-max", "-5", "--out", str(out)]) == 2
    assert "no sites requested: --x-min 5 is above --x-max -5" in capsys.readouterr().err
    assert not out.exists()


def test_exact_rational_grid_limit_exits_2(tmp_path, capsys):
    out = tmp_path / "exact.csv"
    assert main([
        "exact", "--arithmetic", "rational", "--t", "1", "--n-max", "10000", "--out", str(out),
    ]) == 2
    assert "rational law of extent 20001" in capsys.readouterr().err


# `exact --p 0.5 --t 1 --n-max 2 --initial 0:1 --dist-out`, as written before
# the float law moved onto its grid.  Every mass is dyadic, so the float and
# rational runs must both write these bytes (csv rows end in CRLF).
PINNED_DIST = """left,right,mass
EMPTY,EMPTY,0.25
-2,0,0.015625
-2,1,0.0234375
-2,2,0.01171875
-2,3,0.00390625
-1,0,0.03125
-1,1,0.0625
-1,2,0.03125
-1,3,0.01171875
0,0,0.0625
0,1,0.125
0,2,0.0625
0,3,0.0234375
1,1,0.0625
1,2,0.03125
1,3,0.015625
"""


def test_exact_dist_out_pinned(tmp_path):
    for arithmetic in ("float", "rational"):
        out = tmp_path / f"exact-{arithmetic}.csv"
        dist_out = tmp_path / f"dist-{arithmetic}.csv"
        assert main([
            "exact", "--p", "0.5", "--t", "1", "--n-max", "2", "--initial", "0:1",
            "--arithmetic", arithmetic, "--x-min", "-1", "--x-max", "1",
            "--dist-out", str(dist_out), "--out", str(out),
        ]) == 0
        assert dist_out.read_bytes() == PINNED_DIST.replace("\n", "\r\n").encode()


def test_dist_out_streams_its_rows_off_the_grid():
    # The rows are EMPTY's and then the grid's nonzero cells in row-major
    # order, which is sorted by (left, right), read a grid row at a time.
    law = evolve(Span(0, 0), 2, UNIFORM, 0.8, TruncationPolicy(40))
    assert law.grid.shape == (161, 161)
    rows = list(_dist_rows(law))
    assert rows[0] == ("EMPTY", "EMPTY", repr(float(law.mass_of(None))))
    assert rows[1:] == [
        (law.origin + r, law.origin + c, repr(float(law.grid[r, c]))) for r, c in zip(*np.nonzero(law.grid))
    ]


def test_dist_out_holds_a_row_of_objects():
    # The rows of this law's 448k spans, listed before they were written,
    # took the command from 47 to 169 MiB; listed a block of 64 grid rows
    # at a time, they peaked at 5.9 MiB.
    law = evolve(Span(0, 0), 4, UNIFORM, 0.8, TruncationPolicy(120))
    tracemalloc.start()
    try:
        rows = sum(1 for _ in _dist_rows(law))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows == 1 + law.support()[0]
    assert peak < 2**20


def test_exact_near_the_top_of_int64_is_the_translated_law(tmp_path):
    # Its span rows used to wrap to negative right ends.
    def run(initial, x_min, name):
        out, dist_out = tmp_path / f"{name}.csv", tmp_path / f"{name}-dist.csv"
        assert main([
            "exact", f"--initial={initial}:{initial + 1}", "--t", "1", "--n-max", "5",
            f"--x-min={x_min}", f"--x-max={x_min + 7}", "--dist-out", str(dist_out), "--out", str(out),
        ]) == 0
        return read_csv(out)[1:], read_csv(dist_out)[2:]

    top, top_dist = run(2**63 - 5, 2**63 - 8, "top")
    origin, origin_dist = run(0, -3, "origin")
    assert [row[1:] for row in top] == [row[1:] for row in origin]
    shifted = [[str(int(left) - 2**63 + 5), str(int(right) - 2**63 + 5), mass] for left, right, mass in top_dist]
    assert shifted == origin_dist and len(shifted) == 48


def test_exact_t0_pinned(tmp_path):
    # The point mass as given, read without a push: values of the law as
    # written before dict laws were packed onto their grid.
    want_rows = [[str(x), "1.0" if -2 <= x <= 3 else "0.0", "1.0" if -2 <= x <= 3 else "0.0"]
                 for x in range(-10, 11)]
    for arithmetic, lost_exact in (("float", "0.0"), ("rational", "0")):
        out = tmp_path / f"exact-{arithmetic}.csv"
        dist_out = tmp_path / f"dist-{arithmetic}.csv"
        assert main([
            "exact", "--t", "0", "--initial=-2:3", "--arithmetic", arithmetic,
            "--dist-out", str(dist_out), "--out", str(out),
        ]) == 0
        assert read_csv(out) == [["x", "lo", "hi"], *want_rows]
        assert dist_out.read_bytes() == b"left,right,mass\r\nEMPTY,EMPTY,0.0\r\n-2,3,1.0\r\n"
        meta = read_meta(out)
        assert (meta["support_spans"], meta["grid_extent"]) == (1, 6)
        assert (meta["lost"], meta["lost_exact"]) == ("0.0", lost_exact)
        assert meta.get("denominator_bits") == (1 if arithmetic == "rational" else None)


@pytest.mark.parametrize("command, flag", [
    ("verify", "--variant=kill-uniform"),
    ("verify", "--p-empty=0.9"),
    ("verify", "--initial=0:0"),
    ("verify", "--dimension=1"),
    ("exact", "--seed=1"),
    ("exact", "--trials=5"),
    ("exact", "--jobs=2"),
    ("simulate", "--jobs=2"),
    ("mc", "--jobs=2"),
    ("verify", "--jobs=2"),
])
def test_subcommands_refuse_flags_they_do_not_read(tmp_path, command, flag):
    out = tmp_path / "r.csv"
    assert main([command, flag, "--t", "1", "--trials", "100", "--out", str(out)]
                if command == "verify" else [command, flag, "--t", "1", "--out", str(out)]) == 2
    assert not out.exists()


def test_exact_meta_records_only_the_flags_it_reads(tmp_path):
    out = tmp_path / "exact.csv"
    assert main(["exact", "--t", "1", "--out", str(out)]) == 0
    recorded = read_meta(out)["config"]
    assert not {"seed", "trials", "jobs"} & set(recorded)
    assert {"p", "t", "n_max", "variant", "initial"} <= set(recorded)


@pytest.mark.parametrize("command", ["mc", "simulate", "exact"])
def test_p_empty_without_the_kill_rule_is_a_usage_error(tmp_path, command, capsys):
    out = tmp_path / "r.csv"
    assert main([command, "--t", "1", "--p-empty", "0.9", "--out", str(out)]
                + (["--trials", "2000"] if command == "mc" else [])) == 2
    err = capsys.readouterr().err
    assert "--p-empty" in err and "--variant kill-uniform" in err
    assert not out.exists()


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


def test_usage_errors(tmp_path):
    assert main(["simulate"]) == 2  # missing --out
    assert main(["simulate", "--p", "1.5", "--out", "x.csv"]) == 2
    assert main(["simulate", "--t", "-1", "--out", "x.csv"]) == 2
    assert main(["nonsense"]) == 2
    assert main([]) == 2
    out = str(tmp_path / "x.csv")
    assert main(["mc", "--sites=1,x", "--out", out]) == 2
    # Past the ends of int64: these used to raise OverflowError and exit 1.
    assert main(["mc", "--sites=99999999999999999999", "--out", out]) == 2
    assert main(["mc", "--initial=-99999999999999999999:0", "--out", out]) == 2
    assert main(["exact", "--initial=0:99999999999999999999", "--out", out]) == 2
    config = tmp_path / "config.json"
    assert main(["--config", str(config), "simulate", "--out", out]) == 2  # no such file
    config.write_text("[1, 2]")
    assert main(["--config", str(config), "simulate", "--out", out]) == 2
    assert not (tmp_path / "x.csv").exists()


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


@pytest.mark.parametrize("flags", [
    ["--suites", "reflection", "--mutant", "unmirrored-reflection", "--horizon", "0"],
    ["--suites", "reflection", "--horizon", "-4"],
    ["--suites", "coupling-invariants", "--horizon", "0"],
    ["--suites", "monotone-l1", "--radius", "0"],
])
def test_verify_empty_check_is_a_usage_error(tmp_path, flags, capsys):
    # These used to exit 0: a mutant passed over no steps, and the L1 check
    # passed over no comparisons with margin -inf.
    out = tmp_path / "report.csv"
    assert main(["verify", *flags, "--trials", "100", "--out", str(out)]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_verify_mutant_no_selected_suite_injects_is_a_usage_error(tmp_path, capsys):
    # This used to run the faithful checks and exit 0 with both rows "pass".
    out = tmp_path / "r.csv"
    assert main(["verify", "--suites", "even,monotone-1d", "--mutant", "skip-antithetic-map",
                 "--trials", "2000", "--out", str(out)]) == 2
    assert "no selected suite injects --mutant skip-antithetic-map" in capsys.readouterr().err
    assert not out.exists()


def test_every_suite_but_monotone_l1_fails_under_its_mutant(tmp_path):
    # coupling-invariants used to inject skip-antithetic-map and pass under
    # it: a copied contraction coalesces every pair it keeps, and an
    # identical pair meets every invariant.  Each suite's own mutant must
    # now make it fail, where the faithful run passes.  monotone-l1 is the
    # refutation instrument and has none.
    from boxchain.cli import _SUITES

    mutants = {name: mutant for name, (_, _, mutant) in _SUITES.items()}
    assert [name for name, mutant in mutants.items() if mutant is None] == ["monotone-l1"]
    for name, mutant in mutants.items():
        if mutant is None:
            continue
        flags = ["verify", "--suites", name, "--trials", "20000", "--seed", "3"]
        assert main([*flags, "--out", str(tmp_path / "faithful.csv")]) == 0, name
        out = tmp_path / f"{name}.csv"
        assert main([*flags, "--mutant", mutant, "--out", str(out)]) == 1, (name, mutant)
        assert read_csv(out)[1][3] == "fail"


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


@pytest.mark.parametrize("flags, refused", [
    (["--suites", "coupling-marginals,even", "--t", "7"], "'coupling-marginals' runs at --t 1..3"),
    (["--suites", "even", "--t", "0"], "'even' runs at --t >= 1"),
])
def test_verify_refuses_a_horizon_a_suite_cannot_run(tmp_path, flags, refused, capsys):
    # These used to run at a clamped t (3 and 1) while .meta.json recorded
    # the t given.
    out = tmp_path / "report.csv"
    assert main(["verify", *flags, "--trials", "2000", "--out", str(out)]) == 2
    assert refused in capsys.readouterr().err
    assert not out.exists()


def test_verify_runs_at_the_horizon_given(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["verify", "--suites", "even", "--t", "7", "--trials", "2000",
                 "--out", str(out)]) == 0
    params = read_csv(out)[1][1].split(";")
    assert "t=7" in params
    assert read_meta(out)["config"]["t"] == 7
    # The pathwise suites run to --horizon and do not refuse --t.
    assert main(["verify", "--suites", "reflection", "--t", "0", "--trials", "200",
                 "--out", str(out)]) == 0


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


def test_config_plants_only_the_flags_each_subcommand_defines(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"confidence": 0.5, "n_max": 3}))
    out = tmp_path / "verify.csv"
    assert main(["--config", str(config), "verify", "--suites", "reflection",
                 "--trials", "1000", "--out", str(out)]) == 0
    recorded = read_meta(out)["config"]
    assert "confidence" not in recorded and "n_max" not in recorded
    out = tmp_path / "mc.csv"
    assert main(["--config", str(config), "mc", "--trials", "1000", "--out", str(out)]) == 0
    recorded = read_meta(out)["config"]
    assert recorded["confidence"] == 0.5 and "n_max" not in recorded


def test_config_key_of_no_flag_is_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t": 2, "n-maximum": 3}))
    out = tmp_path / "sim.csv"
    assert main(["--config", str(config), "simulate", "--out", str(out)]) == 2
    assert "n_maximum" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config, command, flag", [
    ({"t": 2.5}, ["simulate"], "--t"),
    ({"mutant": "bogus"}, ["verify", "--suites", "reflection"], "--mutant"),
    ({"arithmetic": "decimal"}, ["exact"], "--arithmetic"),
    ({"trials": True}, ["simulate"], "--trials"),
    ({"dimension": 3}, ["mc"], "--dimension"),
])
def test_config_values_are_checked_like_flags(tmp_path, config, command, flag, capsys):
    # These used to die with a TypeError, run the faithful suite, compute
    # the float law, and run one trial.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), *command, "--out", str(out)]) == 2
    assert f"for {flag} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, header", [
    (["simulate", "--t", "2"], ["trial", "t", "left0", "right0", "left1", "right1"]),
    (["mc", "--t", "1", "--trials", "1000", "--radius", "1"], ["x", "y", "estimate", "ci_lo", "ci_hi"]),
])
def test_config_dimension_two_runs_in_two_dimensions(tmp_path, command, header):
    # Each config default is checked on every subcommand that defines its
    # flag, exact's --dimension among them; that must not refuse 2 here.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dimension": 2}))
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), *command, "--out", str(out)]) == 0
    assert read_csv(out)[0] == header
    assert read_meta(out)["config"]["dimension"] == 2


def test_config_dimension_two_is_refused_by_exact(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dimension": 2}))
    out = tmp_path / "out.csv"
    assert main(["--config", str(path), "exact", "--t", "1", "--out", str(out)]) == 2
    assert "only propagated in one dimension" in capsys.readouterr().err
    assert not out.exists()


def test_mc_beyond_the_int64_rank_limit_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(["mc", "--initial=-3500000000:3500000000", "--trials", "10",
                 "--out", str(out)]) == 2
    assert "int64 rank limit" in capsys.readouterr().err


@pytest.mark.parametrize("flags, config, flag", [
    (["--dimension", "2", "--sites", "1,2,3"], None, "--sites"),
    (["--dimension", "2", "--x-min", "-3"], None, "--x-min"),
    (["--dimension", "2", "--x-max", "3"], None, "--x-max"),
    (["--radius", "2"], None, "--radius"),
    (["--dimension", "2"], {"x_max": 3}, "--x-max"),
    ([], {"radius": 3}, "--radius"),
])
def test_mc_site_flags_of_the_other_dimension_are_usage_errors(tmp_path, flags, config, flag, capsys):
    # These used to exit 0 and write the other dimension's default sites.
    argv = ["mc", "--t", "2", "--trials", "1000", *flags, "--out", str(tmp_path / "m.csv")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path), *argv]
    assert main(argv) == 2
    assert f"{flag} applies only with --dimension" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()
    assert not (tmp_path / "m.csv.meta.json").exists()


@pytest.mark.parametrize("flags, config, flag", [
    (["--sites", "0,1", "--x-min", "-3", "--x-max", "3"], None, "--x-min"),
    (["--sites", "0,1", "--x-max", "3"], None, "--x-max"),
    (["--x-min", "-3"], {"sites": "0,1"}, "--x-min"),
    (["--sites", "0,1"], {"x_max": 3}, "--x-max"),
])
def test_mc_sites_with_an_x_range_is_a_usage_error(tmp_path, flags, config, flag, capsys):
    # This used to exit 0, write the listed sites only and record the
    # ignored range in the sidecar as if it had run.
    argv = ["mc", "--t", "2", "--trials", "1000", *flags, "--out", str(tmp_path / "m.csv")]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path), *argv]
    assert main(argv) == 2
    assert f"{flag} cannot be combined with --sites" in capsys.readouterr().err
    assert not (tmp_path / "m.csv").exists()
    assert not (tmp_path / "m.csv.meta.json").exists()


@pytest.mark.parametrize("dimension, explicit, recorded", [
    ("1", ["--x-min", "-10", "--x-max", "10"], {"x_min": -10, "x_max": 10, "radius": None}),
    ("2", ["--radius", "4"], {"x_min": None, "x_max": None, "radius": 4}),
])
def test_mc_default_sites_are_resolved_and_recorded(tmp_path, dimension, explicit, recorded):
    base = ["mc", "--dimension", dimension, "--t", "2", "--trials", "3000", "--seed", "5"]
    assert main([*base, "--out", str(tmp_path / "default.csv")]) == 0
    assert main([*base, *explicit, "--out", str(tmp_path / "explicit.csv")]) == 0
    assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()
    config = read_meta(tmp_path / "default.csv")["config"]
    assert {key: config[key] for key in recorded} == recorded


def test_sidecar_records_versions(tmp_path):
    import numpy

    import boxchain

    out = tmp_path / "sim.csv"
    assert main(["simulate", "--t", "1", "--out", str(out)]) == 0
    assert read_meta(out)["versions"] == {
        "boxchain": boxchain.__version__,
        "python": "{}.{}.{}".format(*sys.version_info),
        "numpy": numpy.__version__,
    }


# CSVs as simulate and mc wrote them while each subcommand still had one
# branch per dimension; one path for every dimension must keep them.  The mc
# rows were re-recorded when the vector draws moved to raw words, and the
# simulate-2d rows when scalar draws of every kind came to read one block.
PINNED_CSVS = {
    "simulate-1d": (
        ["simulate", "--t", "3", "--seed", "4", "--trials", "3"],
        b"trial,t,left,right\r\n0,0,0,0\r\n0,1,EMPTY,EMPTY\r\n0,2,EMPTY,EMPTY\r\n0,3,EMPTY,EMPTY\r\n"
        b"1,0,0,0\r\n1,1,EMPTY,EMPTY\r\n1,2,EMPTY,EMPTY\r\n1,3,EMPTY,EMPTY\r\n"
        b"2,0,0,0\r\n2,1,EMPTY,EMPTY\r\n2,2,EMPTY,EMPTY\r\n2,3,EMPTY,EMPTY\r\n",
    ),
    "simulate-2d": (
        ["simulate", "--dimension", "2", "--initial=-1:2,0:3", "--t", "2", "--trials", "3"],
        b"trial,t,left0,right0,left1,right1\r\n0,0,-1,2,0,3\r\n0,1,0,1,-1,2\r\n0,2,0,0,-4,0\r\n"
        b"1,0,-1,2,0,3\r\n1,1,-2,2,-1,2\r\n1,2,-3,0,-1,2\r\n"
        b"2,0,-1,2,0,3\r\n2,1,0,1,-2,3\r\n2,2,0,0,-2,-2\r\n",
    ),
    "mc-1d": (
        ["mc", "--sites", "3,1,-2", "--variant", "endpoint-resample", "--trials", "1000"],
        b"x,estimate,ci_lo,ci_hi\r\n3,0.295,0.2593022585645919,0.3334001190458049\r\n"
        b"1,0.602,0.561582654546338,0.6410727478133669\r\n"
        b"-2,0.427,0.38732024844643864,0.46764206162945876\r\n",
    ),
    "mc-2d": (
        ["mc", "--dimension", "2", "--radius", "2", "--t", "1", "--trials", "5000"],
        b"x,y,estimate,ci_lo,ci_hi\r\n-2,0,0.1246,0.11306437778000783,0.13713059798134208\r\n"
        b"-1,-1,0.1252,0.11363885477588356,0.13775453072053082\r\n"
        b"-1,0,0.2516,0.2361290569023044,0.26772931278101825\r\n"
        b"-1,1,0.1294,0.1176626845397051,0.1421195691021603\r\n"
        b"0,-2,0.1206,0.10923687394585882,0.1329687035817282\r\n"
        b"0,-1,0.2466,0.23124111533541403,0.262630506555705\r\n"
        b"0,0,0.4942,0.47600711833442133,0.5124082542266224\r\n"
        b"0,1,0.2466,0.23124111533541403,0.262630506555705\r\n"
        b"0,2,0.1298,0.11804612983338203,0.1425350636318597\r\n"
        b"1,-1,0.1244,0.11287290555297476,0.136922600296687\r\n"
        b"1,0,0.248,0.23260945561624702,0.26405845565668906\r\n"
        b"1,1,0.1246,0.11306437778000783,0.13713059798134208\r\n"
        b"2,0,0.127,0.1153628238134962,0.1396257908881115\r\n",
    ),
    "mc-kill": (
        ["mc", "--variant", "kill-uniform", "--p-empty", "0.2", "--sites", "0,1,3", "--t", "3",
         "--trials", "2000", "--seed", "5"],
        b"x,estimate,ci_lo,ci_hi\r\n0,0.3415,0.3147508617901301,0.3692972921247084\r\n"
        b"1,0.2815,0.2563519611643051,0.3080929702577277\r\n"
        b"3,0.1355,0.11698789225645108,0.15642253109975465\r\n",
    ),
    "simulate-kill": (
        ["simulate", "--variant", "kill-uniform", "--t", "4", "--trials", "3", "--seed", "2"],
        b"trial,t,left,right\r\n0,0,0,0\r\n0,1,0,0\r\n0,2,EMPTY,EMPTY\r\n0,3,EMPTY,EMPTY\r\n0,4,EMPTY,EMPTY\r\n"
        b"1,0,0,0\r\n1,1,0,0\r\n1,2,0,0\r\n1,3,EMPTY,EMPTY\r\n1,4,EMPTY,EMPTY\r\n"
        b"2,0,0,0\r\n2,1,0,0\r\n2,2,EMPTY,EMPTY\r\n2,3,EMPTY,EMPTY\r\n2,4,EMPTY,EMPTY\r\n",
    ),
    "exact-kill": (
        ["exact", "--variant", "kill-uniform", "--t", "3", "--n-max", "20", "--x-min", "0", "--x-max", "2"],
        b"x,lo,hi\r\n0,0.19967582819351132,0.1996769710495053\r\n"
        b"1,0.17556532838565211,0.1755664712416461\r\n"
        b"2,0.1318179496614529,0.1318190925174469\r\n",
    ),
    "exact-kill-rational": (
        ["exact", "--variant", "kill-uniform", "--arithmetic", "rational", "--p-empty", "0.3", "--t", "2",
         "--n-max", "6", "--x-min", "0", "--x-max", "2"],
        b"x,lo,hi\r\n0,0.38241261225764545,0.40081503429089577\r\n"
        b"1,0.2773296970181405,0.2957321190513908\r\n"
        b"2,0.1716465443173118,0.19004896635056215\r\n",
    ),
}


@pytest.mark.parametrize("name", PINNED_CSVS)
def test_simulate_and_mc_csvs_pinned(tmp_path, name):
    argv, expected = PINNED_CSVS[name]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == expected


@pytest.mark.parametrize("command", ["simulate", "mc", "exact"])
def test_unsupported_dimension_is_a_usage_error(tmp_path, command):
    out = tmp_path / "r.csv"
    assert main([command, "--dimension", "3", "--t", "1", "--out", str(out)]
                + (["--trials", "100"] if command == "mc" else [])) == 2
    assert not out.exists()
    assert not (tmp_path / "r.csv.meta.json").exists()


@pytest.mark.parametrize("command", ["simulate", "mc"])
@pytest.mark.parametrize("dimension, initial", [
    ("1", "0:0,0:0"),
    ("2", "0:0"),
    ("2", "0:0,0:0,0:0"),
])
def test_initial_with_the_wrong_number_of_axes_is_a_usage_error(tmp_path, command, dimension, initial):
    out = tmp_path / "r.csv"
    assert main([command, "--dimension", dimension, f"--initial={initial}", "--t", "1", "--out", str(out)]
                + (["--trials", "100"] if command == "mc" else [])) == 2
    assert not out.exists()
    assert not (tmp_path / "r.csv.meta.json").exists()
