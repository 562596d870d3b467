"""The four benchmark workloads: inputs from a seed, one op, and its output checks.

A workload object is built from the workload seed, then ``setup()`` makes
the references its checks need.  ``op(i)`` runs op ``i``: one round
through the workload's fixed call mix, returning the program's outputs
keyed by call label and recording each call's wall time in
``call_times``.  ``check(i, outputs)`` returns the failed checks as
messages, empty when every output is correct.  ``cli-fresh`` also has
``trace_op``, the round the tracer runs in place of ``op``, because the
tracer cannot see into its subprocesses.

Every reference is independent of the code a workload measures: closed
forms, symmetry of the law, stdlib normal quantiles, the oracle for the
sampler, the rational oracle for the float one, and in-process CLI runs
for the subprocess ones.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

from boxchain import Span, cli, montecarlo, oracle, unit_box
from boxchain.intervals import UNIFORM, EndpointResampleContraction
from reference import ScaledClock

# Family-wise false-alarm rate of the statistical checks of one call.  Runs
# hold thousands of ops, so a faithful program must essentially never trip.
ALPHA = 1e-7


def bonferroni_z(comparisons: int) -> float:
    """Two-sided normal quantile for ``comparisons`` tests at total level ALPHA."""
    return NormalDist().inv_cdf(1.0 - ALPHA / (2.0 * max(comparisons, 1)))


def outside_bracket(hits: int, trials: int, lo: float, hi: float, comparisons: int) -> bool:
    """Is ``hits`` of ``trials`` too far from every probability in [lo, hi]?

    Uses the Chernoff bound P(count at least this far from trials*q) <=
    exp(-trials * KL(hits/trials || q)), at Bonferroni level ALPHA over
    ``comparisons`` sites.  Unlike a normal interval it holds at every
    count: a single hit at a site whose bracket is ~1e-7 is no failure.
    """
    phat = hits / trials
    q = min(max(phat, lo), hi)
    if phat == q:
        return False
    if q <= 0.0 or q >= 1.0:
        return True

    def term(a: float, b: float) -> float:
        return a * math.log(a / b) if a > 0 else 0.0

    divergence = trials * (term(phat, q) + term(1.0 - phat, 1.0 - q))
    return divergence > math.log(2.0 * comparisons / ALPHA)


def count_gap_ok(a: int, b: int, z: float) -> bool:
    """Are two hit counts of equally likely sites within z standard deviations?

    The counts come from the same trials, so Var(a - b) is at most the
    expected number of trials covering exactly one of the two sites,
    which is at most a + b in expectation.
    """
    return abs(a - b) <= z * math.sqrt(max(a + b, 1))


def binomial_ok(count: int, n: int, prob: float, z: float) -> bool:
    return abs(count - n * prob) <= z * math.sqrt(n * prob * (1.0 - prob)) + 1.0


class Workload:
    name = ""
    trials_per_op = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.call_times: dict[str, list[float]] = {}
        self.clock: ScaledClock | None = None  # counts each call, when set

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def _timed(self, out: dict, label: str, fn):
        started = time.perf_counter()
        out[label] = fn()
        wall = time.perf_counter() - started
        self.call_times.setdefault(label, []).append(wall)
        if self.clock is not None:
            self.clock.add(wall)

    def op(self, i: int) -> dict:
        raise NotImplementedError

    def check(self, i: int, outputs: dict) -> list[str]:
        raise NotImplementedError

    def max_bracket_width(self, outputs: dict):
        """Widest certified bracket among the outputs, or None without brackets."""
        return None


# ---------------------------------------------------------------------------
# mc-occupancy


L1_BALL_4 = [(x, y) for x in range(-4, 5) for y in range(-4, 5) if abs(x) + abs(y) <= 4]


class McOccupancy(Workload):
    name = "mc-occupancy"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.trials = 2_000 if tiny else 100_000
        # Two estimator seeds alternate between ops, so every repeat of a
        # seed must reproduce the hits first seen for it.
        rng = random.Random(seed)
        self.seeds = [rng.randrange(2**31) for _ in range(2)]
        self.trials_per_op = 4 * self.trials
        self.seen: dict[tuple[str, int], list[int]] = {}

    def setup(self) -> None:
        # Certified brackets for the two t=3 calls; their width (lost) is far
        # below the sampling error at these trial counts.
        law = oracle.evolve(Span(0, 0), 3, UNIFORM, 0.5, oracle.TruncationPolicy(40))
        self.ref_p5 = {b.site: b for b in oracle.occupancy_table(law, range(-100, 101))}
        law = oracle.evolve(Span(0, 0), 3, UNIFORM, 0.8, oracle.TruncationPolicy(80))
        self.ref_p8 = {b.site: b for b in oracle.occupancy_table(law, range(-10, 11))}

    def op(self, i: int) -> dict:
        seed = self.seeds[i % 2]
        n = self.trials
        est = montecarlo.estimate_occupancy
        out: dict = {}
        self._timed(out, "t3_p0.5_201sites", lambda: est(
            Span(0, 0), 3, range(-100, 101), n, p=0.5, seed=seed, jobs=1))
        self._timed(out, "t20_p0.5_21sites", lambda: est(
            Span(0, 0), 20, range(-10, 11), n, p=0.5, seed=seed, jobs=1))
        self._timed(out, "t3_p0.8_21sites", lambda: est(
            Span(0, 0), 3, range(-10, 11), n, p=0.8, seed=seed, jobs=1))
        self._timed(out, "2d_t3_p0.5_l1ball4", lambda: montecarlo.estimate_occupancy_2d(
            unit_box(2), 3, L1_BALL_4, n, p=0.5, seed=seed, jobs=1))
        return out

    def check(self, i: int, outputs: dict) -> list[str]:
        seed = self.seeds[i % 2]
        n = self.trials
        errors: list[str] = []
        expected_sites = {
            "t3_p0.5_201sites": list(range(-100, 101)),
            "t20_p0.5_21sites": list(range(-10, 11)),
            "t3_p0.8_21sites": list(range(-10, 11)),
            "2d_t3_p0.5_l1ball4": L1_BALL_4,
        }
        hits: dict[str, dict] = {}
        for label, sites in expected_sites.items():
            estimates = outputs[label]
            got = [e.site for e in estimates]
            if got != list(sites):
                errors.append(f"{label}: sites {got[:3]}... differ from the request")
                continue
            for e in estimates:
                if e.trials != n or not 0 <= e.hits <= n or e.estimate != e.hits / n:
                    errors.append(f"{label}: malformed estimate {e}")
                    break
            hits[label] = {e.site: e.hits for e in estimates}
            key = (label, seed)
            counts = [e.hits for e in estimates]
            if key in self.seen and self.seen[key] != counts:
                errors.append(f"{label}: seed {seed} repeated but hits changed")
            self.seen.setdefault(key, counts)
        if errors:
            return errors

        for label, ref in (("t3_p0.5_201sites", self.ref_p5), ("t3_p0.8_21sites", self.ref_p8)):
            for site, h in hits[label].items():
                lo, hi = float(ref[site].lo), float(ref[site].hi)
                if outside_bracket(h, n, lo, hi, len(ref)):
                    errors.append(f"{label}: site {site} hits {h} of {n} inconsistent "
                                  f"with the exact bracket [{lo!r}, {hi!r}]")
        h20 = hits["t20_p0.5_21sites"]
        z = bonferroni_z(10)
        for x in range(1, 11):
            if not count_gap_ok(h20[x], h20[-x], z):
                errors.append(f"t20: hits at {x} and {-x} differ: {h20[x]} vs {h20[-x]}")
        h2 = hits["2d_t3_p0.5_l1ball4"]
        pairs = [(pt, canonical(pt)) for pt in L1_BALL_4 if canonical(pt) != pt]
        z = bonferroni_z(len(pairs))
        for pt, rep in pairs:
            if not count_gap_ok(h2[pt], h2[rep], z):
                errors.append(f"2d: hits at {pt} and {rep} differ: {h2[pt]} vs {h2[rep]}")
        return errors


def canonical(point: tuple[int, int]) -> tuple[int, int]:
    """Representative of a point's orbit under the symmetries of the square."""
    a, b = sorted((abs(point[0]), abs(point[1])), reverse=True)
    return a, b


# ---------------------------------------------------------------------------
# coupling-pathwise


class CouplingPathwise(Workload):
    name = "coupling-pathwise"
    horizon = 50
    # Per-call significance of the marginal test: the faithful test must not
    # trip across thousands of ops, and the mutant still fails by far.
    significance = 1e-7

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.runs = 100 if tiny else 500
        # At 500 trials the marginal mutant's smallest p-value came within
        # four decades of the threshold over 60 seeds; at 2000 it is far off.
        self.marginal_trials = 2000
        self.trials_per_op = 6 * self.runs + 2 * self.marginal_trials

    def op_seed(self, i: int) -> int:
        return random.Random(f"{self.seed}/{i}").randrange(2**31)

    def op(self, i: int) -> dict:
        s = self.op_seed(i)
        r, h = self.runs, self.horizon
        mc = montecarlo
        out: dict = {}
        self._timed(out, "invariants_p0.5", lambda: mc.coupling_invariant_check(h, 0.5, r, s))
        self._timed(out, "invariants_p0.8", lambda: mc.coupling_invariant_check(h, 0.8, r, s))
        self._timed(out, "reflection", lambda: mc.reflection_identity_check(h, 0.5, r, s))
        self._timed(out, "coalescence", lambda: mc.coalescence_stats(0.5, h, r, s))
        self._timed(out, "marginals_t2", lambda: mc.coupling_marginal_test(
            2, 0.5, self.marginal_trials, s, significance=self.significance))
        self._timed(out, "mutant_invariants_skip_map", lambda: mc.coupling_invariant_check(
            h, 0.5, r, s, skip_antithetic_map=True))
        self._timed(out, "mutant_marginals_skip_map", lambda: mc.coupling_marginal_test(
            2, 0.5, self.marginal_trials, s, significance=self.significance,
            skip_antithetic_map=True))
        self._timed(out, "mutant_reflection_unmirrored", lambda: mc.reflection_identity_check(
            h, 0.5, r, s, swap_expansion_draws=False))
        return out

    def check(self, i: int, outputs: dict) -> list[str]:
        r = self.runs
        errors: list[str] = []
        for label in ("invariants_p0.5", "invariants_p0.8", "reflection", "marginals_t2"):
            if outputs[label].passed is not True:
                errors.append(f"{label}: faithful check failed (margin {outputs[label].worst_margin})")
        for label in ("mutant_marginals_skip_map", "mutant_reflection_unmirrored"):
            if outputs[label].passed is not False:
                errors.append(f"{label}: mutant was not detected")
        # The invariant suite cannot see this mutant: the copied contraction
        # makes the pair identical and coalesced, which satisfies every
        # pathwise invariant.  What it must show is the mutant at work: each
        # run whose first contraction survives (probability 1/2) coalesces.
        mutant = outputs["mutant_invariants_skip_map"]
        coalesced = mutant.params.get("coalesced_runs", -1)
        if mutant.passed is not True or not binomial_ok(coalesced, r, 0.5, bonferroni_z(1)):
            errors.append(f"mutant_invariants_skip_map: {coalesced} of {r} runs coalesced, want ~{r // 2}")
        coal = outputs["coalescence"]
        resolved = coal.coalesced + coal.absorbed
        if coal.trials != r or resolved + coal.censored != r:
            errors.append(f"coalescence: counts {coal} do not add up to {r} runs")
        elif sum(coal.first_event_times.values()) != resolved or not all(
            1 <= t <= self.horizon for t in coal.first_event_times
        ):
            errors.append(f"coalescence: event times {coal.first_event_times} inconsistent")
        else:
            # Step 1 from ({-1}, {0}): the minus copy dies with probability
            # 1/2; otherwise the pair coalesces when the right run is >= 1.
            first = coal.first_event_times.get(1, 0)
            if not binomial_ok(first, r, 0.5 + 0.5 * 0.5, bonferroni_z(1)):
                errors.append(f"coalescence: {first} of {r} runs resolved at step 1, want ~{0.75 * r:.0f}")
        return errors


# ---------------------------------------------------------------------------
# exact-law


SITES_41 = range(-20, 21)

# (label, horizon, rule, p, n_max, exact, width the seed code certifies)
LAWS = (
    ("uniform_p0.8_n120_t4", 4, UNIFORM, 0.8, 120, False, 6.912692957495046e-12),
    ("uniform_p0.5_n40_t6", 6, UNIFORM, 0.5, 40, False, 1.7037490691141347e-12),
    ("endpoint_p0.5_n20_t2", 2, EndpointResampleContraction(), 0.5, 20, False, 1.907347268570881e-06),
    ("rational_p1/2_n10_t2", 2, UNIFORM, Fraction(1, 2), 10, True, 0.000861436205273165),
)
TINY_LAWS = (
    ("uniform_p0.8_n120_t4", 2, UNIFORM, 0.8, 30, False, 1.0),
    ("uniform_p0.5_n40_t6", 3, UNIFORM, 0.5, 10, False, 1.0),
    ("endpoint_p0.5_n20_t2", 1, EndpointResampleContraction(), 0.5, 8, False, 1.0),
    ("rational_p1/2_n10_t2", 1, UNIFORM, Fraction(1, 2), 4, True, 1.0),
)


class ExactLaw(Workload):
    name = "exact-law"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        # The exact law has no randomness: the seed changes no input.
        super().__init__(seed)
        self.laws = TINY_LAWS if tiny else LAWS

    def setup(self) -> None:
        # The float law at the rational case's parameters, which the
        # rational brackets must match.
        label, t, rule, p, n_max, _, _ = self.laws[-1]
        law = oracle.evolve(Span(0, 0), t, rule, float(p), oracle.TruncationPolicy(n_max))
        self.float_of_rational = oracle.occupancy_table(law, SITES_41)

    def op(self, i: int) -> dict:
        out: dict = {}
        for label, t, rule, p, n_max, exact, _ in self.laws:
            def compute():
                law = oracle.evolve(Span(0, 0), t, rule, p, oracle.TruncationPolicy(n_max), exact=exact)
                return law, oracle.occupancy_table(law, SITES_41)
            self._timed(out, label, compute)
        return out

    def check(self, i: int, outputs: dict) -> list[str]:
        errors: list[str] = []
        for label, t, _, p, n_max, exact, seed_width in self.laws:
            law, table = outputs[label]
            tol = 0 if exact else 1e-12
            if [b.site for b in table] != list(SITES_41):
                errors.append(f"{label}: table sites differ from the request")
                continue
            lost = law.lost
            if abs(sum(law.weights.values()) + lost - 1) > 1e-9:
                errors.append(f"{label}: mass {float(sum(law.weights.values()) + lost)!r} != 1")
            per_step = 1 - (1 - float(p) ** (n_max + 1)) ** 2
            if not 0 <= float(lost) <= t * per_step * (1 + 1e-9):
                errors.append(f"{label}: lost {float(lost)!r} exceeds the truncation bound")
            if float(lost) > seed_width * (1 + 1e-6):
                errors.append(f"{label}: bracket width {float(lost)!r} wider than {seed_width!r}")
            by_site = {b.site: b for b in table}
            for b in table:
                if not b.lo <= b.hi or abs((b.hi - b.lo) - lost) > tol:
                    errors.append(f"{label}: bracket {b} is not [lo, lo + lost]")
                    break
            for x in range(1, 21):
                if abs(by_site[x].lo - by_site[-x].lo) > tol:
                    errors.append(f"{label}: brackets at {x} and {-x} differ")
                    break
            # Certified brackets of a law decreasing away from 0 must satisfy
            # lo(x+1) <= f(x+1) <= f(x) <= hi(x).
            for x in range(0, 20):
                if by_site[x + 1].lo > by_site[x].hi + tol:
                    errors.append(f"{label}: brackets rise from {x} to {x + 1}")
                    break
        rational = outputs[self.laws[-1][0]][1]
        for b, f in zip(rational, self.float_of_rational):
            if abs(float(b.lo) - f.lo) > 1e-12 or abs(float(b.hi) - f.hi) > 1e-12:
                errors.append(f"rational and float brackets differ at {b.site}")
                break
        return errors

    def max_bracket_width(self, outputs: dict) -> float:
        return max(float(b.hi - b.lo) for _, table in outputs.values() for b in table)


# ---------------------------------------------------------------------------
# cli-fresh


class CliFresh(Workload):
    name = "cli-fresh"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        s = str(random.Random(seed).randrange(2**31))
        mc_trials, verify_trials = (2_000, 20) if tiny else (100_000, 200)
        self.commands = {
            "simulate_t3": ["simulate", "--t", "3", "--seed", s],
            "simulate_2d_t3": ["simulate", "--dimension", "2", "--t", "3", "--seed", s],
            "mc_t3": ["mc", "--t", "3", "--trials", str(mc_trials), "--seed", s],
            "exact_t3": ["exact", "--t", "3"],
            "verify_reflection_invariants": [
                "verify", "--suites", "reflection,coupling-invariants",
                "--trials", str(verify_trials), "--seed", s,
            ],
        }
        self.trials_per_op = 1 + 1 + mc_trials + 2 * verify_trials
        src = Path("src").resolve()
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        work = Path(".perfbench_work")
        work.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=work))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def setup(self) -> None:
        # References come from in-process runs; the timed ops must
        # reproduce them byte for byte from fresh processes.
        self.reference = {}
        for label, argv in self.commands.items():
            path = self.dir / f"ref-{label}.csv"
            code = quiet_main([*argv, "--out", str(path)])
            if code != 0:
                raise RuntimeError(f"reference run of {label} exited {code}")
            self.reference[label] = path.read_bytes()

    def op(self, i: int) -> dict:
        out: dict = {}
        for label, argv in self.commands.items():
            path = self.dir / f"op-{label}.csv"
            path.unlink(missing_ok=True)
            self._timed(out, label, lambda: subprocess.run(
                [sys.executable, "-m", "boxchain", *argv, "--out", str(path)],
                env=self.env, capture_output=True, timeout=120,
            ).returncode)
            out[label] = (out[label], path.read_bytes() if path.exists() else b"")
        return out

    def trace_op(self, i: int) -> dict:
        out: dict = {}
        for label, argv in self.commands.items():
            path = self.dir / f"traced-{label}.csv"
            code = quiet_main([*argv, "--out", str(path)])
            out[label] = (code, path.read_bytes())
        return out

    def check(self, i: int, outputs: dict) -> list[str]:
        errors = []
        for label, (code, data) in outputs.items():
            if code != 0:
                errors.append(f"{label}: exit code {code}")
            elif data != self.reference[label]:
                errors.append(f"{label}: CSV differs from the set-up reference")
        return errors

    def max_bracket_width(self, outputs: dict) -> float:
        rows = outputs["exact_t3"][1].decode().splitlines()[1:]
        return max(float(hi) - float(lo) for _, lo, hi in (r.split(",") for r in rows))


def quiet_main(argv: list[str]) -> int:
    """``boxchain.cli.main`` in this process, its report to stderr discarded."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


WORKLOADS = {w.name: w for w in (McOccupancy, CouplingPathwise, ExactLaw, CliFresh)}
