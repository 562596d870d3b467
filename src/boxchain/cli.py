"""Command-line entry point for reproducible experiments and verification.

Subcommands
-----------
simulate   write sampled trajectories as CSV rows
exact      certified occupancy brackets from the truncated exact law (1-D)
mc         Monte Carlo occupancy estimates with confidence intervals
verify     run the statistical/structural verification suites

``simulate`` and ``mc`` run dimensions 1 and 2 by one path, ``--initial``
giving one span per axis; ``exact`` and the contraction variants other than
``uniform`` are one-dimensional.

Every output CSV is deterministic given the seed and parameters; a sidecar
``<output>.meta.json`` records the full configuration, the seed, the wall
time and the versions for reproduction.

Each subcommand imports the modules it runs inside its own function, so a
fresh process pays only for those: ``simulate`` loads ``intervals`` and
``stream`` (and ``boxes`` in 2-D), ``exact`` adds ``oracle``, and ``mc``
and ``verify`` add ``montecarlo``, ``boxes`` and ``coupling``.  Those
three load numpy too.  ``simulate`` loads it only for a trial whose draws
read more than 512 words, one per float, bounded integer or geometric run
(more for a rejected word).  Otherwise every draw comes from the stream's
port of numpy's generator, and the sidecar records numpy's version as null.

Exit codes: 0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

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

# Each suite: its run, given the montecarlo module, the args and whether
# to inject its mutant; the (least, most) --t it runs at, most None for no
# upper limit, or None for the pathwise suites, which run to --horizon; and
# the mutant it injects.
_SUITES = {
    "even": (
        lambda mc, a, m: mc.check_even(a.t, a.p, 10, a.trials, a.seed, one_sided_expansion=m),
        (1, None), "one-sided-expansion",
    ),
    "monotone-1d": (
        lambda mc, a, m: mc.check_monotone_1d(a.t, a.p, 10, a.trials, a.seed, one_sided_expansion=m),
        (1, None), "one-sided-expansion",
    ),
    "monotone-l1": (
        lambda mc, a, _: mc.check_monotone_l1(2, a.t, a.p, a.radius, a.trials, a.seed),
        (1, 3), None,
    ),
    "coupling-marginals": (
        lambda mc, a, m: mc.coupling_marginal_test(a.t, a.p, a.trials, a.seed, skip_antithetic_map=m),
        (1, 3), "skip-antithetic-map",
    ),
    "coupling-invariants": (
        lambda mc, a, m: mc.coupling_invariant_check(a.horizon, a.p, a.trials, a.seed, unswapped_plus_runs=m),
        None, "unswapped-plus-runs",
    ),
    "reflection": (
        lambda mc, a, m: mc.reflection_identity_check(a.horizon, a.p, a.trials, a.seed, swap_expansion_draws=not m),
        None, "unmirrored-reflection",
    ),
}

# --mutant's choices, in suite order: the deliberate fault injections that
# confirm the checks have teeth.
_MUTANTS = tuple(
    dict.fromkeys(mutant for *_, mutant in _SUITES.values() if mutant is not None)
)

# mc's sites when no site flag is given: x in -10..10 in 1-D, the L1 ball
# of radius 4 in 2-D.
_MC_X_RANGE = (-10, 10)
_MC_RADIUS = 4


class UsageError(Exception):
    pass


def _rational(value: float) -> Fraction:
    """A float flag as the rational the exact oracle computes with: the
    simplest fraction of denominator at most 10**9 when it rounds to
    ``value`` (3/10 for 0.3), and otherwise the float's exact value, so
    that a rational run computes at the flag a float run reads."""
    simple = Fraction(value).limit_denominator(10**9)
    return simple if float(simple) == value else Fraction(value)


def _build_rule(args):
    """The contraction rule of ``--variant``."""
    if args.p_empty is not None and args.variant != "kill-uniform":
        raise UsageError(f"--p-empty applies only with --variant kill-uniform, not --variant {args.variant}")
    if args.variant != "uniform" and args.dimension != 1:
        raise UsageError(
            f"contraction variants are one-dimensional; use --variant uniform with --dimension {args.dimension}"
        )
    if args.variant == "uniform":
        return UNIFORM
    if args.variant == "kill-uniform":
        if args.p_empty is not None:
            const = float(args.p_empty)
            if not 0 <= const <= 1:
                raise UsageError(f"--p-empty must lie in [0, 1], got {const}")
            # Its float value is the flag, and its exact one what the
            # rational oracle reads.
            death = _rational(const)
            return KillThenUniformContraction(lambda _n: death)
        return KillThenUniformContraction()
    if args.variant == "endpoint-resample":
        return EndpointResampleContraction()
    raise UsageError(f"unknown variant {args.variant!r}")


def _parse_initial(text: Optional[str], dimension: int) -> tuple[Span, ...]:
    """``--initial`` as one span per axis; the origin's unit box if not given."""
    if text is None:
        return (Span(0, 0),) * dimension
    form = ",".join(f"L{axis}:R{axis}" for axis in range(dimension))
    try:
        spans = []
        for axis in text.split(","):
            left, right = (int(end) for end in axis.split(":"))
            spans.append(Span(left, right))
    except ValueError as exc:
        raise UsageError(f"bad initial state {text!r}, expected {form}") from exc
    if len(spans) != dimension:
        raise UsageError(f"initial state {text!r} has the wrong axis count, expected {form}")
    return tuple(spans)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_meta(path: str, command: str, args, extra: Optional[dict] = None, wall_time: float = 0.0) -> None:
    from . import __version__

    # numpy's version only if the run loaded it: importing it here would
    # cost a run that never needs it most of its start-up.
    numpy = sys.modules.get("numpy")
    payload = {
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("func",)},
        "wall_time_s": wall_time,
        "versions": {
            "boxchain": __version__,
            "python": "{}.{}.{}".format(*sys.version_info),
            "numpy": None if numpy is None else numpy.__version__,
        },
    }
    if extra:
        payload.update(extra)
    with open(str(path) + ".meta.json", "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    rule = _build_rule(args)
    initial = _parse_initial(args.initial, args.dimension)
    if args.dimension == 1:
        simulate = partial(simulate_path, initial[0], args.t, rule, args.p)
        spans_of = lambda span: (span,)
        columns = ["left", "right"]
    else:
        from .boxes import Box, simulate_path_rect

        simulate = partial(simulate_path_rect, Box(initial), args.t, args.p)
        spans_of = lambda box: box.spans
        columns = ["left0", "right0", "left1", "right1"]
    rows = []
    root = Stream(args.seed)
    for trial in range(args.trials):
        for when, state in enumerate(simulate(root.substream("simulate", trial))):
            if state is None:
                cells = ["EMPTY"] * len(columns)
            else:
                cells = [end for span in spans_of(state) for end in (span.left, span.right)]
            rows.append((trial, when, *cells))
    _write_csv(args.out, ["trial", "t", *columns], rows)
    _write_meta(args.out, "simulate", args, wall_time=time.perf_counter() - started)
    return 0


def _dist_rows(dist):
    """``--dist-out``'s rows, ``EMPTY``'s first, streamed off the law's grid
    a row at a time."""
    yield "EMPTY", "EMPTY", repr(float(dist.mass_of(None)))
    for lefts, rights, masses in dist._cells():
        yield from zip(lefts, rights, map(repr, map(float, masses)))


def cmd_exact(args) -> int:
    from . import oracle

    started = time.perf_counter()
    if args.dimension != 1:
        raise UsageError("the exact law is only propagated in one dimension")
    (initial,) = _parse_initial(args.initial, 1)
    if args.x_min > args.x_max:
        raise UsageError(f"no sites requested: --x-min {args.x_min} is above --x-max {args.x_max}")
    exact = args.arithmetic == "rational"
    p = _rational(args.p) if exact else args.p
    rule = _build_rule(args)
    dist = oracle.evolve(
        initial, args.t, rule, p, oracle.TruncationPolicy(args.n_max), exact=exact
    )
    table = oracle.occupancy_table(dist, range(args.x_min, args.x_max + 1))
    rows = [(b.site, repr(float(b.lo)), repr(float(b.hi))) for b in table]
    _write_csv(args.out, ["x", "lo", "hi"], rows)
    if args.dist_out:
        _write_csv(args.dist_out, ["left", "right", "mass"], _dist_rows(dist))
    spans, extent = dist.support()
    law = {
        "lost": repr(float(dist.lost)),
        "lost_exact": str(dist.lost),
        "support_spans": spans,
        "grid_extent": extent,
    }
    if exact:
        law["denominator_bits"] = dist.common_denominator().bit_length()
    _write_meta(args.out, "exact", args, extra=law, wall_time=time.perf_counter() - started)
    return 0


def _refuse_flags(args, flags: Sequence[str], why: str) -> None:
    """A usage error naming the first of ``flags`` that was given, on the
    command line or by --config, followed by ``why`` it cannot be."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise UsageError(f"{flag} {why}")


def cmd_mc(args) -> int:
    from . import montecarlo

    started = time.perf_counter()
    rule = _build_rule(args)
    initial = _parse_initial(args.initial, args.dimension)
    if args.dimension == 1:
        _refuse_flags(args, ("--radius",), "applies only with --dimension 2, not --dimension 1")
        if args.sites is not None:
            _refuse_flags(args, ("--x-min", "--x-max"), "cannot be combined with --sites")
            try:
                sites = [int(s) for s in args.sites.split(",") if s.strip() != ""]
            except ValueError as exc:
                raise UsageError(f"bad --sites list {args.sites!r}") from exc
        else:
            # Resolved in args, so that .meta.json records the sites run.
            args.x_min = _MC_X_RANGE[0] if args.x_min is None else args.x_min
            args.x_max = _MC_X_RANGE[1] if args.x_max is None else args.x_max
            sites = list(range(args.x_min, args.x_max + 1))
        estimate = partial(montecarlo.estimate_occupancy, initial[0], rule=rule)
        cells_of = lambda site: (site,)
        columns = ["x"]
    else:
        from .boxes import Box, l1_ball

        _refuse_flags(
            args, ("--sites", "--x-min", "--x-max"), "applies only with --dimension 1, not --dimension 2"
        )
        if args.radius is None:
            args.radius = _MC_RADIUS
        sites = l1_ball(args.radius, 2)
        estimate = partial(montecarlo.estimate_occupancy_2d, Box(initial))
        cells_of = lambda site: site
        columns = ["x", "y"]
    if not sites:
        raise UsageError("no sites requested")
    estimates = estimate(
        args.t,
        sites,
        args.trials,
        p=args.p,
        seed=args.seed,
        confidence=args.confidence,
        method=args.ci,
    )
    rows = [
        (*cells_of(e.site), repr(e.estimate), repr(e.ci_lo), repr(e.ci_hi))
        for e in estimates
    ]
    _write_csv(args.out, [*columns, "estimate", "ci_lo", "ci_hi"], rows)
    _write_meta(args.out, "mc", args, wall_time=time.perf_counter() - started)
    return 0


def cmd_verify(args) -> int:
    from . import montecarlo

    started = time.perf_counter()
    if args.suites is not None:
        if not args.suites.strip():
            raise UsageError(f"no suites requested: --suites is empty; choose from {', '.join(_SUITES)}")
        names = []
        for chunk in args.suites.split(","):
            chunk = chunk.strip()
            if chunk not in _SUITES:
                raise UsageError(f"unknown suite {chunk!r}; choose from {', '.join(_SUITES)}")
            names.append(chunk)
    else:
        names = list(_SUITES)
    for name in names:
        _, t_range, _ = _SUITES[name]
        if t_range is None:
            continue
        least, most = t_range
        if args.t < least or (most is not None and args.t > most):
            allowed = f">= {least}" if most is None else f"{least}..{most}"
            raise UsageError(f"suite {name!r} runs at --t {allowed}, got --t {args.t}")
    mutated = {name: args.mutant is not None and _SUITES[name][2] == args.mutant for name in names}
    if args.mutant is not None and not any(mutated.values()):
        hosts = ", ".join(name for name, (_, _, mutant) in _SUITES.items() if mutant == args.mutant)
        raise UsageError(f"no selected suite injects --mutant {args.mutant}; it is injected by {hosts}")
    reports = [_SUITES[name][0](montecarlo, args, mutated[name]) for name in names]
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
    sub.add_argument("--out", type=str, default=None, help="output CSV path (required)")


def _add_sampling(sub) -> None:
    sub.add_argument("--seed", type=int, default=0, help="base seed")
    sub.add_argument("--trials", type=int, default=100_000, help="number of Monte Carlo trials")


def _add_process(sub) -> None:
    sub.add_argument("--dimension", type=int, choices=(1, 2), default=1, help="spatial dimension")
    sub.add_argument(
        "--variant",
        choices=("uniform", "kill-uniform", "endpoint-resample"),
        default="uniform",
        help="contraction rule (size-distribution rules are library-only)",
    )
    sub.add_argument("--p-empty", type=float, default=None,
                     help="constant death probability for --variant kill-uniform")
    sub.add_argument("--initial", type=str, default=None,
                     help="initial state, one LEFT:RIGHT span per axis, comma-separated")


def _config_value(action: argparse.Action, value):
    """A config file's value for ``action``'s flag, checked as the command
    line checks it: its string form goes through the flag's type, then its
    choices.  Anything else is a usage error that names the flag."""
    flag = action.option_strings[0]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config value {json.dumps(value)} for {flag} is not a string or a number")
    try:
        parsed = str(value) if action.type is None else action.type(str(value))
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"config value {json.dumps(value)} for {flag} is not a valid {action.type.__name__}") from None
    if action.choices is not None and parsed not in action.choices:
        raise UsageError(
            f"config value {json.dumps(value)} for {flag} is not one of: {', '.join(map(str, action.choices))}"
        )
    return parsed


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
    _add_sampling(sim)
    _add_process(sim)
    sim.set_defaults(func=cmd_simulate, trials=1)

    exact = commands.add_parser("exact", help="certified occupancy brackets (1-D)")
    _add_common(exact)
    _add_process(exact)
    exact.add_argument("--n-max", type=int, default=40, help="geometric truncation per side per step")
    exact.add_argument("--arithmetic", choices=("float", "rational"), default="float")
    exact.add_argument("--x-min", type=int, default=-10)
    exact.add_argument("--x-max", type=int, default=10)
    exact.add_argument("--dist-out", type=str, default=None,
                       help="also write the full state distribution CSV here")
    exact.set_defaults(func=cmd_exact)

    mc = commands.add_parser("mc", help="Monte Carlo occupancy estimates")
    _add_common(mc)
    _add_sampling(mc)
    _add_process(mc)
    # The site flags default to None, so that a flag given for the other
    # dimension is refused; cmd_mc resolves the defaults.
    mc.add_argument("--sites", type=str, default=None, help="comma-separated 1-D sites")
    mc.add_argument("--x-min", type=int, default=None, help=f"first 1-D site (default {_MC_X_RANGE[0]})")
    mc.add_argument("--x-max", type=int, default=None, help=f"last 1-D site (default {_MC_X_RANGE[1]})")
    mc.add_argument("--radius", type=int, default=None, help=f"L1 radius of the 2-D site grid (default {_MC_RADIUS})")
    mc.add_argument("--confidence", type=float, default=0.99)
    mc.add_argument("--ci", choices=("wilson", "hoeffding"), default="wilson")
    mc.set_defaults(func=cmd_mc)

    verify = commands.add_parser(
        "verify",
        help="run verification suites",
        description="Run verification suites. Exit 0 only if every selected suite passes.",
    )
    _add_common(verify)
    _add_sampling(verify)
    verify.add_argument("--suites", type=str, default=None,
                        help=f"comma-separated subset of: {', '.join(_SUITES)} (default all)")
    verify.add_argument("--radius", type=int, default=4)
    verify.add_argument("--horizon", type=int, default=50,
                        help="horizon for the pathwise coupling suites")
    verify.add_argument("--mutant", choices=_MUTANTS, default=None,
                        help="run against a deliberately corrupted variant")
    verify.set_defaults(func=cmd_verify)

    if defaults:
        # Subparsers parse into fresh namespaces, so each file-supplied
        # default is planted on the parsers that define its flag, and only
        # there; explicit flags still win.
        parsers = [parser, *commands.choices.values()]
        flags = [
            {a.dest: a for a in each._actions if a.default is not argparse.SUPPRESS}
            for each in parsers
        ]
        unknown = sorted(set(defaults).difference(*flags))
        if unknown:
            raise UsageError(f"config keys name no flag: {', '.join(unknown)}")
        for each, actions in zip(parsers, flags):
            each.set_defaults(**{k: _config_value(actions[k], v) for k, v in defaults.items() if k in actions})
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
    try:
        args = build_parser(defaults).parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit:
        return USAGE_ERROR
    try:
        if args.out is None:
            raise UsageError("--out is required")
        if args.p is not None and not 0 < args.p < 1:
            raise UsageError(f"--p must lie in (0, 1), got {args.p}")
        if args.t < 0:
            raise UsageError(f"--t must be >= 0, got {args.t}")
        for flag, least in (("trials", 1), ("seed", 0)):
            value = vars(args).get(flag)  # None where the subcommand has no such flag
            if value is not None and value < least:
                raise UsageError(f"--{flag} must be >= {least}, got {value}")
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
