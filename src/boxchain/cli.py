"""Command-line entry point for reproducible experiments and verification.

Subcommands
-----------
simulate   write sampled trajectories as CSV rows
exact      certified occupancy brackets from the truncated exact law (1-D)
mc         Monte Carlo occupancy estimates with confidence intervals
verify     run the statistical/structural verification suites

Every output CSV is deterministic given the seed and parameters; a sidecar
``<output>.meta.json`` records the full configuration, the seed, and the
wall time for reproduction.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import montecarlo, oracle
from .boxes import Box, simulate_path_rect
from .intervals import (
    EndpointResampleContraction,
    KillThenUniformContraction,
    Span,
    UNIFORM,
    simulate_path,
)
from .stream import Stream

USAGE_ERROR = 2
VERIFY_FAILURE = 1

_SUITES = (
    "even",
    "monotone-1d",
    "monotone-l1",
    "coupling-marginals",
    "coupling-invariants",
    "reflection",
)


class UsageError(Exception):
    pass


def _build_rule(args, p: float):
    if args.variant == "uniform":
        return UNIFORM
    if args.variant == "kill-uniform":
        if args.p_empty is not None:
            const = float(args.p_empty)
            if not 0 <= const <= 1:
                raise UsageError(f"--p-empty must lie in [0, 1], got {const}")
            return KillThenUniformContraction(lambda _p, _n: const, p)
        return KillThenUniformContraction(expansion_p=p)
    if args.variant == "endpoint-resample":
        return EndpointResampleContraction()
    raise UsageError(f"unknown variant {args.variant!r}")


def _parse_initial_1d(text: str) -> Span:
    try:
        left, right = (int(part) for part in text.split(":"))
        return Span(left, right)
    except Exception as exc:
        raise UsageError(f"bad 1-D initial state {text!r}, expected LEFT:RIGHT") from exc


def _parse_initial_2d(text: str) -> Box:
    try:
        axes = text.split(",")
        spans = []
        for axis in axes:
            left, right = (int(part) for part in axis.split(":"))
            spans.append(Span(left, right))
        box = Box(tuple(spans))
    except Exception as exc:
        raise UsageError(f"bad 2-D initial state {text!r}, expected L0:R0,L1:R1") from exc
    if box.dim != 2:
        raise UsageError(f"expected two axes in {text!r}")
    return box


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_meta(path: str, command: str, args, extra: Optional[dict] = None, wall_time: float = 0.0) -> None:
    payload = {
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("func",)},
        "wall_time_s": wall_time,
    }
    if extra:
        payload.update(extra)
    with open(str(path) + ".meta.json", "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")


def _bound_cells(interval) -> tuple:
    if interval is None:
        return "EMPTY", "EMPTY"
    return interval.left, interval.right


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    rule = _build_rule(args, args.p)
    rows = []
    if args.dimension == 1:
        initial = _parse_initial_1d(args.initial or "0:0")
        header = ["trial", "t", "left", "right"]
        for trial in range(args.trials):
            stream = Stream(args.seed).substream("simulate", trial)
            path = simulate_path(initial, args.t, rule, args.p, stream)
            for when, state in enumerate(path):
                rows.append((trial, when, *_bound_cells(state)))
    elif args.dimension == 2:
        if args.variant != "uniform":
            raise UsageError("contraction variants are one-dimensional; use --variant uniform with --dimension 2")
        initial = _parse_initial_2d(args.initial or "0:0,0:0")
        header = ["trial", "t", "left0", "right0", "left1", "right1"]
        for trial in range(args.trials):
            stream = Stream(args.seed).substream("simulate", trial)
            path = simulate_path_rect(initial, args.t, args.p, stream)
            for when, state in enumerate(path):
                if state is None:
                    rows.append((trial, when, "EMPTY", "EMPTY", "EMPTY", "EMPTY"))
                else:
                    rows.append((trial, when, *_bound_cells(state.spans[0]), *_bound_cells(state.spans[1])))
    else:
        raise UsageError(f"--dimension must be 1 or 2, got {args.dimension}")
    _write_csv(args.out, header, rows)
    _write_meta(args.out, "simulate", args, wall_time=time.perf_counter() - started)
    return 0


def cmd_exact(args) -> int:
    started = time.perf_counter()
    if args.dimension != 1:
        raise UsageError("the exact law is only propagated in one dimension")
    initial = _parse_initial_1d(args.initial or "0:0")
    rule = _build_rule(args, args.p)
    exact = args.arithmetic == "rational"
    p = Fraction(args.p).limit_denominator(10**9) if exact else args.p
    dist = oracle.evolve(
        initial, args.t, rule, p, oracle.TruncationPolicy(args.n_max), exact=exact
    )
    sites = range(args.x_min, args.x_max + 1)
    table = oracle.occupancy_table(dist, sites)
    rows = [(b.site, repr(float(b.lo)), repr(float(b.hi))) for b in table]
    _write_csv(args.out, ["x", "lo", "hi"], rows)
    if args.dist_out:
        span_rows = sorted(
            (iv.left, iv.right, repr(float(w)))
            for iv, w in dist.weights.items()
            if iv is not None
        )
        empty_mass = dist.weights.get(None, 0)
        dist_rows = [("EMPTY", "EMPTY", repr(float(empty_mass)))] + span_rows
        _write_csv(args.dist_out, ["left", "right", "mass"], dist_rows)
    _write_meta(
        args.out,
        "exact",
        args,
        extra={"lost": repr(float(dist.lost)), "lost_exact": str(dist.lost)},
        wall_time=time.perf_counter() - started,
    )
    return 0


def cmd_mc(args) -> int:
    started = time.perf_counter()
    rule = _build_rule(args, args.p)
    if args.dimension == 1:
        if args.sites is not None:
            try:
                sites = [int(s) for s in args.sites.split(",") if s.strip() != ""]
            except ValueError as exc:
                raise UsageError(f"bad --sites list {args.sites!r}") from exc
        else:
            sites = list(range(args.x_min, args.x_max + 1))
        if not sites:
            raise UsageError("no sites requested")
        initial = _parse_initial_1d(args.initial or "0:0")
        estimates = montecarlo.estimate_occupancy(
            initial,
            args.t,
            sites,
            args.trials,
            rule=rule,
            p=args.p,
            seed=args.seed,
            confidence=args.confidence,
            method=args.ci,
            jobs=args.jobs,
        )
        rows = [
            (e.site, repr(e.estimate), repr(e.ci_lo), repr(e.ci_hi)) for e in estimates
        ]
        _write_csv(args.out, ["x", "estimate", "ci_lo", "ci_hi"], rows)
    elif args.dimension == 2:
        if args.variant != "uniform":
            raise UsageError("contraction variants are one-dimensional; use --variant uniform with --dimension 2")
        points = [
            (x, y)
            for x in range(-args.radius, args.radius + 1)
            for y in range(-args.radius, args.radius + 1)
            if abs(x) + abs(y) <= args.radius
        ]
        if not points:
            raise UsageError("no sites requested")
        initial = _parse_initial_2d(args.initial or "0:0,0:0")
        estimates = montecarlo.estimate_occupancy_2d(
            initial,
            args.t,
            points,
            args.trials,
            p=args.p,
            seed=args.seed,
            confidence=args.confidence,
            method=args.ci,
            jobs=args.jobs,
        )
        rows = [
            (e.site[0], e.site[1], repr(e.estimate), repr(e.ci_lo), repr(e.ci_hi))
            for e in estimates
        ]
        _write_csv(args.out, ["x", "y", "estimate", "ci_lo", "ci_hi"], rows)
    else:
        raise UsageError(f"--dimension must be 1 or 2, got {args.dimension}")
    _write_meta(args.out, "mc", args, wall_time=time.perf_counter() - started)
    return 0


def _run_suite(name: str, args) -> montecarlo.CheckReport:
    mutant = args.mutant
    p, t, trials, seed, jobs = args.p, args.t, args.trials, args.seed, args.jobs
    if name == "even":
        return montecarlo.check_even(
            max(t, 1), p, 10, trials, seed, jobs=jobs,
            one_sided_expansion=(mutant == "one-sided-expansion"),
        )
    if name == "monotone-1d":
        return montecarlo.check_monotone_1d(
            max(t, 1), p, 10, trials, seed, jobs=jobs,
            one_sided_expansion=(mutant == "one-sided-expansion"),
        )
    if name == "monotone-l1":
        return montecarlo.check_monotone_l1(
            2, min(max(t, 1), 3), p, args.radius, trials, seed, jobs=jobs
        )
    if name == "coupling-marginals":
        return montecarlo.coupling_marginal_test(
            min(max(t, 1), 3), p, trials, seed, jobs=jobs,
            skip_antithetic_map=(mutant == "skip-antithetic-map"),
        )
    if name == "coupling-invariants":
        return montecarlo.coupling_invariant_check(
            args.horizon, p, trials, seed,
            skip_antithetic_map=(mutant == "skip-antithetic-map"),
        )
    if name == "reflection":
        return montecarlo.reflection_identity_check(
            args.horizon, p, trials, seed,
            swap_expansion_draws=(mutant != "unmirrored-reflection"),
        )
    raise UsageError(f"unknown suite {name!r}")


def cmd_verify(args) -> int:
    started = time.perf_counter()
    if args.suites:
        names = []
        for chunk in args.suites.split(","):
            chunk = chunk.strip()
            if chunk not in _SUITES:
                raise UsageError(f"unknown suite {chunk!r}; choose from {', '.join(_SUITES)}")
            names.append(chunk)
    else:
        names = list(_SUITES)
    reports = [_run_suite(name, args) for name in names]
    rows = [report.as_row() for report in reports]
    _write_csv(args.out, ["claim", "params", "margin", "pass"], rows)
    _write_meta(
        args.out,
        "verify",
        args,
        extra={"passed": all(r.passed for r in reports)},
        wall_time=time.perf_counter() - started,
    )
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(f"{report.claim}: {status} (margin {report.worst_margin:.6g})", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else VERIFY_FAILURE


# ---------------------------------------------------------------------------
# parser


def _add_common(sub) -> None:
    sub.add_argument("--p", type=float, default=0.5, help="expansion parameter in (0,1)")
    sub.add_argument("--t", type=int, default=3, help="horizon (number of steps)")
    sub.add_argument("--seed", type=int, default=0, help="base seed")
    sub.add_argument("--trials", type=int, default=100_000, help="number of Monte Carlo trials")
    sub.add_argument("--dimension", type=int, default=1, help="spatial dimension (1 or 2)")
    sub.add_argument(
        "--variant",
        choices=("uniform", "kill-uniform", "endpoint-resample"),
        default="uniform",
        help="contraction rule (size-distribution rules are library-only)",
    )
    sub.add_argument("--p-empty", type=float, default=None,
                     help="constant death probability for --variant kill-uniform")
    sub.add_argument("--initial", type=str, default=None,
                     help="initial state, LEFT:RIGHT or L0:R0,L1:R1")
    sub.add_argument("--jobs", type=int, default=1, help="worker threads for chunked trials")
    sub.add_argument("--out", type=str, default=None, help="output CSV path (required)")


def build_parser(defaults: Optional[dict] = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxchain",
        description="Simulate and verify randomly contracting, geometrically expanding lattice intervals and boxes.",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of flag defaults (explicit flags override)")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="sample trajectories to CSV")
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate, trials=1)

    exact = commands.add_parser("exact", help="certified occupancy brackets (1-D)")
    _add_common(exact)
    exact.add_argument("--n-max", type=int, default=40, help="geometric truncation per side per step")
    exact.add_argument("--arithmetic", choices=("float", "rational"), default="float")
    exact.add_argument("--x-min", type=int, default=-10)
    exact.add_argument("--x-max", type=int, default=10)
    exact.add_argument("--dist-out", type=str, default=None,
                       help="also write the full state distribution CSV here")
    exact.set_defaults(func=cmd_exact)

    mc = commands.add_parser("mc", help="Monte Carlo occupancy estimates")
    _add_common(mc)
    mc.add_argument("--sites", type=str, default=None, help="comma-separated 1-D sites")
    mc.add_argument("--x-min", type=int, default=-10)
    mc.add_argument("--x-max", type=int, default=10)
    mc.add_argument("--radius", type=int, default=4, help="L1 radius of the 2-D site grid")
    mc.add_argument("--confidence", type=float, default=0.99)
    mc.add_argument("--ci", choices=("wilson", "hoeffding"), default="wilson")
    mc.set_defaults(func=cmd_mc)

    verify = commands.add_parser(
        "verify",
        help="run verification suites",
        description="Run verification suites. Exit 0 only if every selected suite passes.",
    )
    _add_common(verify)
    verify.add_argument("--suites", type=str, default=None,
                        help=f"comma-separated subset of: {', '.join(_SUITES)} (default all)")
    verify.add_argument("--radius", type=int, default=4)
    verify.add_argument("--horizon", type=int, default=50,
                        help="horizon for the pathwise coupling suites")
    verify.add_argument("--mutant", choices=montecarlo.MUTANTS, default=None,
                        help="run against a deliberately corrupted variant")
    verify.set_defaults(func=cmd_verify)

    if defaults:
        # Subparsers parse into fresh namespaces, so file-supplied defaults
        # must be planted on every subcommand; explicit flags still win.
        parser.set_defaults(**defaults)
        for sub in commands.choices.values():
            sub.set_defaults(**defaults)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config_probe = argparse.ArgumentParser(add_help=False)
    config_probe.add_argument("--config", type=str, default=None)
    probe, _ = config_probe.parse_known_args(argv)
    defaults = None
    if probe.config:
        try:
            loaded = json.loads(Path(probe.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {probe.config}: {exc}", file=sys.stderr)
            return USAGE_ERROR
        if not isinstance(loaded, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return USAGE_ERROR
        defaults = {k.replace("-", "_"): v for k, v in loaded.items()}
    parser = build_parser(defaults)
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return USAGE_ERROR
    try:
        if args.out is None:
            raise UsageError("--out is required")
        if args.p is not None and not 0 < args.p < 1:
            raise UsageError(f"--p must lie in (0, 1), got {args.p}")
        if args.t < 0:
            raise UsageError(f"--t must be >= 0, got {args.t}")
        if args.trials < 1:
            raise UsageError(f"--trials must be >= 1, got {args.trials}")
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
