"""Sampling-based occupancy estimation and statistical verification.

Estimators simulate trials in fixed-size vectorized chunks, each chunk on
its own labeled substream, so results are reproducible and independent of
how chunks are scheduled across workers.  All sites of one check are
counted from the same trial paths (common random numbers), which shrinks
the variance of the differences the checks look at; the confidence
intervals used as margins are therefore conservative.

Each check can also run against a deliberately corrupted variant of the
dynamics (fault injection), which the faithful checks must detect.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from statistics import NormalDist
from typing import Callable, Iterator, Sequence

import numpy as np

from .boxes import Box, unit_box

# The scalar coupled steps and pair predicates are the reference the
# batched engine below is tested against.  They stay bound here by name
# because perfbench/tracing.py wraps them in this namespace.
from .coupling import (  # noqa: F401
    classify_pair,
    coupled_step,
    dominates_nonnegative,
    reflect_origin,
    reflection_coupled_step,
)
from .intervals import (
    EMPTY,
    ContractionRule,
    EndpointResampleContraction,
    Interval,
    KillThenUniformContraction,
    SizeWeightedContraction,
    Span,
    UNIFORM,
    UniformContraction,
    size_pmf_weights,
    validate_expansion_param,
)
from .stream import Stream

__all__ = [
    "OccupancyEstimate",
    "CheckReport",
    "CoalescenceSummary",
    "MUTANTS",
    "wilson_interval",
    "hoeffding_interval",
    "estimate_occupancy",
    "estimate_occupancy_2d",
    "check_even",
    "check_monotone_1d",
    "check_monotone_l1",
    "coupling_marginal_test",
    "coupling_invariant_check",
    "reflection_identity_check",
    "coalescence_stats",
]

_CHUNK = 8192

# Deliberate fault injections used to confirm the checks have teeth.
MUTANTS = ("skip-antithetic-map", "unmirrored-reflection", "one-sided-expansion")


# ---------------------------------------------------------------------------
# confidence intervals


def _validate_confidence(confidence: float) -> None:
    """Confidence levels must lie strictly between 0 and 1 (NaN is refused)."""
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")


def _worst_margin(gaps) -> float:
    """Largest gap, or NaN if any gap is NaN, so that an undefined comparison fails."""
    worst = -math.inf
    for gap in gaps:
        if math.isnan(gap):
            return math.nan
        worst = max(worst, gap)
    return worst


def wilson_interval(hits: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval; well behaved for extreme proportions."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _validate_confidence(confidence)
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = hits / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (phat + z2n / 2.0) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / denom
    # With no hits (misses) the lower (upper) bound is exactly 0 (1); do not
    # let rounding move it.
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == trials else min(1.0, center + half)
    return lo, hi


def hoeffding_interval(hits: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Distribution-free interval from Hoeffding's inequality (conservative)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _validate_confidence(confidence)
    alpha = 1.0 - confidence
    half = math.sqrt(math.log(2.0 / alpha) / (2.0 * trials))
    phat = hits / trials
    return max(0.0, phat - half), min(1.0, phat + half)


_CI_METHODS: dict[str, Callable[[int, int, float], tuple[float, float]]] = {
    "wilson": wilson_interval,
    "hoeffding": hoeffding_interval,
}


@dataclass(frozen=True)
class OccupancyEstimate:
    """Per-site estimate with a confidence interval at the stated level."""

    site: object
    trials: int
    hits: int
    estimate: float
    ci_lo: float
    ci_hi: float

    @property
    def half_width(self) -> float:
        return (self.ci_hi - self.ci_lo) / 2.0


@dataclass
class CheckReport:
    """Outcome of one statistical check; deterministic given seed and params."""

    claim: str
    passed: bool
    worst_margin: float
    params: dict = field(default_factory=dict)

    def as_row(self) -> tuple[str, str, str, str]:
        params = ";".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return self.claim, params, repr(self.worst_margin), "pass" if self.passed else "fail"


# ---------------------------------------------------------------------------
# vectorized chunk simulation, one dimension


def _unrank_offsets_vec(n: np.ndarray, i0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decode of ranks into (left, right) offsets within hosts."""
    a_top = 2 * n + 1
    disc = a_top * a_top - 8 * i0
    s = np.floor(np.sqrt(disc.astype(np.float64))).astype(np.int64)
    s = np.where((s + 1) * (s + 1) <= disc, s + 1, s)
    s = np.where(s * s > disc, s - 1, s)
    a = np.clip((a_top - s) // 2, 0, n - 1)
    cum = a * n - a * (a - 1) // 2
    over = cum > i0
    a = np.where(over, a - 1, a)
    cum = a * n - a * (a - 1) // 2
    nxt = (a + 1) * n - (a + 1) * a // 2
    under = (nxt <= i0) & (a + 1 <= n - 1)
    a = np.where(under, a + 1, a)
    cum = a * n - a * (a - 1) // 2
    return a, a + (i0 - cum)


def _contract_chunk(
    left: np.ndarray,
    right: np.ndarray,
    alive: np.ndarray,
    rule: ContractionRule,
    stream: Stream,
) -> None:
    live = np.nonzero(alive)[0]
    if live.size == 0:
        return
    base = left[live]
    n = right[live] - base + 1
    if isinstance(rule, UniformContraction):
        total = n * (n + 1) // 2
        draw = stream.integers_upto(total)
        dead = draw == 0
        alive[live[dead]] = False
        keep = ~dead
        if keep.any():
            a, b = _unrank_offsets_vec(n[keep], draw[keep] - 1)
            kept = live[keep]
            left[kept] = base[keep] + a
            right[kept] = base[keep] + b
    elif isinstance(rule, KillThenUniformContraction):
        death = np.empty(live.size)
        for nv in np.unique(n):
            prob = rule.death_probability(rule.expansion_p, int(nv))
            if not 0 <= prob <= 1:
                raise ValueError(f"death probability {prob} outside [0, 1]")
            death[n == nv] = prob
        dead = stream.random_array(live.size) < death
        alive[live[dead]] = False
        keep = ~dead
        if keep.any():
            total = n[keep] * (n[keep] + 1) // 2
            draw = stream.integers_upto(total - 1) + 1
            a, b = _unrank_offsets_vec(n[keep], draw - 1)
            kept = live[keep]
            left[kept] = base[keep] + a
            right[kept] = base[keep] + b
    elif isinstance(rule, SizeWeightedContraction):
        u = stream.random_array(live.size)
        size = np.empty(live.size, np.int64)
        for nv in np.unique(n):
            mask = n == nv
            cum = np.cumsum(size_pmf_weights(rule.size_pmf, int(nv)))
            size[mask] = np.searchsorted(cum, u[mask], side="right")
        size = np.minimum(size, n)
        dead = size == 0
        alive[live[dead]] = False
        keep = ~dead
        if keep.any():
            pos = stream.integers_upto(n[keep] - size[keep])
            kept = live[keep]
            left[kept] = base[keep] + pos
            right[kept] = base[keep] + pos + size[keep] - 1
    elif isinstance(rule, EndpointResampleContraction):
        u = stream.integers_upto(n - 1)
        v = stream.integers_upto(n - 1)
        left[live] = base + np.minimum(u, v)
        right[live] = base + np.maximum(u, v)
    else:
        raise TypeError(f"unknown contraction rule {rule!r}")


def _expand_chunk(
    left: np.ndarray,
    right: np.ndarray,
    alive: np.ndarray,
    p: float,
    stream: Stream,
    one_sided: bool,
) -> None:
    live = np.nonzero(alive)[0]
    if live.size == 0:
        return
    if not one_sided:
        left[live] -= stream.geometric_array(p, live.size)
    right[live] += stream.geometric_array(p, live.size)


class _SiteIndex:
    """Requested sites, sorted once, for counting interval coverage.

    Sites may come in any order and repeat; counts come back in the order
    the sites were given.
    """

    def __init__(self, sites: Sequence[int]) -> None:
        self.sorted, self.order = np.unique(np.asarray(sites, np.int64), return_inverse=True)

    def cover_counts(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """How many intervals [left, right] contain each site.

        A difference array over the sorted sites: +1 at the first site each
        interval covers, -1 just past the last, then a running sum.
        """
        first = np.searchsorted(self.sorted, left, side="left")
        stop = np.searchsorted(self.sorted, right, side="right")
        width = self.sorted.size + 1
        diff = np.bincount(first, minlength=width) - np.bincount(stop, minlength=width)
        return np.cumsum(diff[:-1])[self.order]


def _interval_chunk_counts(
    stream: Stream,
    count: int,
    initial: Span,
    t: int,
    rule: ContractionRule,
    p: float,
    sites: Sequence[int],
    one_sided: bool,
    by_time: bool,
) -> np.ndarray:
    """Hit counts per site, at the final time or at every time 1..t."""
    left = np.full(count, initial.left, np.int64)
    right = np.full(count, initial.right, np.int64)
    alive = np.ones(count, bool)
    rows = t if by_time else 1
    counts = np.zeros((max(rows, 1), len(sites)), np.int64)
    index = _SiteIndex(sites)

    def record(row: int) -> None:
        counts[row] = index.cover_counts(left[alive], right[alive])

    if t == 0:
        record(0)
        return counts
    for step_index in range(t):
        _contract_chunk(left, right, alive, rule, stream)
        _expand_chunk(left, right, alive, p, stream, one_sided)
        if by_time:
            record(step_index)
    if not by_time:
        record(0)
    return counts


def _chunk_layout(trials: int) -> list[tuple[int, int]]:
    """(chunk index, rows) for trials split into chunks of at most _CHUNK rows."""
    return [
        (i, min(_CHUNK, trials - i * _CHUNK)) for i in range((trials + _CHUNK - 1) // _CHUNK)
    ]


def _run_chunks(trials: int, worker: Callable[[int, int], np.ndarray], jobs: int) -> np.ndarray:
    layout = _chunk_layout(trials)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda ic: worker(*ic), layout))
    else:
        parts = [worker(i, c) for i, c in layout]
    out = parts[0]
    for part in parts[1:]:
        out = out + part
    return out


def estimate_occupancy(
    initial: Span,
    t: int,
    sites: Sequence[int],
    trials: int,
    *,
    rule: ContractionRule = UNIFORM,
    p: float = 0.5,
    seed: int = 0,
    confidence: float = 0.99,
    method: str = "wilson",
    jobs: int = 1,
    one_sided_expansion: bool = False,
) -> list[OccupancyEstimate]:
    """Estimate the occupancy probability of each site at time ``t``.

    All sites are counted from the same simulated paths.  Identical seeds
    give identical estimates regardless of ``jobs``.
    """
    validate_expansion_param(p)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    ci = _CI_METHODS[method]
    sites = [int(x) for x in sites]
    root = Stream(seed)

    def worker(index: int, count: int) -> np.ndarray:
        return _interval_chunk_counts(
            root.substream("mc-interval", index),
            count,
            initial,
            t,
            rule,
            p,
            sites,
            one_sided_expansion,
            False,
        )

    counts = _run_chunks(trials, worker, jobs)[0]
    out = []
    for x, hits in zip(sites, counts.tolist()):
        lo, hi = ci(hits, trials, confidence)
        out.append(OccupancyEstimate(x, trials, hits, hits / trials, lo, hi))
    return out


# ---------------------------------------------------------------------------
# vectorized chunk simulation, two dimensions


def _box_chunk_counts(
    stream: Stream,
    count: int,
    initial: Box,
    t: int,
    p: float,
    points: Sequence[tuple[int, int]],
) -> np.ndarray:
    (span0, span1) = initial.spans
    l0 = np.full(count, span0.left, np.int64)
    r0 = np.full(count, span0.right, np.int64)
    l1 = np.full(count, span1.left, np.int64)
    r1 = np.full(count, span1.right, np.int64)
    alive = np.ones(count, bool)
    for _ in range(t):
        live = np.nonzero(alive)[0]
        if live.size == 0:
            break
        n0 = r0[live] - l0[live] + 1
        n1 = r1[live] - l1[live] + 1
        k0 = n0 * (n0 + 1) // 2
        k1 = n1 * (n1 + 1) // 2
        draw = stream.integers_upto(k0 * k1)
        dead = draw == 0
        alive[live[dead]] = False
        keep = ~dead
        if keep.any():
            kept = live[keep]
            digit0, digit1 = np.divmod(draw[keep] - 1, k1[keep])
            a0, b0 = _unrank_offsets_vec(n0[keep], digit0)
            a1, b1 = _unrank_offsets_vec(n1[keep], digit1)
            base0 = l0[kept]
            base1 = l1[kept]
            l0[kept] = base0 + a0
            r0[kept] = base0 + b0
            l1[kept] = base1 + a1
            r1[kept] = base1 + b1
        live = np.nonzero(alive)[0]
        if live.size == 0:
            break
        l0[live] -= stream.geometric_array(p, live.size)
        r0[live] += stream.geometric_array(p, live.size)
        l1[live] -= stream.geometric_array(p, live.size)
        r1[live] += stream.geometric_array(p, live.size)
    counts = np.zeros(len(points), np.int64)
    for j, (x, y) in enumerate(points):
        counts[j] = np.count_nonzero(alive & (l0 <= x) & (x <= r0) & (l1 <= y) & (y <= r1))
    return counts


def estimate_occupancy_2d(
    initial: Box,
    t: int,
    points: Sequence[tuple[int, int]],
    trials: int,
    *,
    p: float = 0.5,
    seed: int = 0,
    confidence: float = 0.99,
    method: str = "wilson",
    jobs: int = 1,
) -> list[OccupancyEstimate]:
    """Occupancy estimates over a set of lattice points of the planar process."""
    validate_expansion_param(p)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if initial.dim != 2:
        raise ValueError("estimate_occupancy_2d needs a two-dimensional box")
    ci = _CI_METHODS[method]
    points = [(int(x), int(y)) for x, y in points]
    root = Stream(seed)

    def worker(index: int, count: int) -> np.ndarray:
        return _box_chunk_counts(root.substream("mc-box", index), count, initial, t, p, points)

    counts = _run_chunks(trials, worker, jobs)
    out = []
    for point, hits in zip(points, counts.tolist()):
        lo, hi = ci(hits, trials, confidence)
        out.append(OccupancyEstimate(point, trials, hits, hits / trials, lo, hi))
    return out


# ---------------------------------------------------------------------------
# statistical checks of the occupancy function


def _pair_gap(a: OccupancyEstimate, b: OccupancyEstimate) -> float:
    """How far the two estimates are beyond their combined CI half-widths."""
    return abs(a.estimate - b.estimate) - (a.half_width + b.half_width)


def _order_gap(near: OccupancyEstimate, far: OccupancyEstimate) -> float:
    """How far the far estimate exceeds the near one beyond their CI half-widths."""
    return far.estimate - near.estimate - (near.half_width + far.half_width)


def check_even(
    t: int,
    p: float,
    x_range: int,
    trials: int,
    seed: int = 0,
    *,
    confidence: float = 0.99,
    jobs: int = 1,
    one_sided_expansion: bool = False,
) -> CheckReport:
    """Occupancy symmetry: estimates at x and -x must agree within CIs."""
    _validate_confidence(confidence)
    sites = list(range(-x_range, x_range + 1))
    comparisons = max(x_range, 1)
    per_site = 1.0 - (1.0 - confidence) / (2.0 * comparisons)
    estimates = {
        e.site: e
        for e in estimate_occupancy(
            Span(0, 0),
            t,
            sites,
            trials,
            p=p,
            seed=seed,
            confidence=per_site,
            jobs=jobs,
            one_sided_expansion=one_sided_expansion,
        )
    }
    worst = _worst_margin(_pair_gap(estimates[x], estimates[-x]) for x in range(1, x_range + 1))
    return CheckReport(
        claim="occupancy-even-1d",
        passed=worst <= 0,
        worst_margin=worst,
        params={"t": t, "p": p, "x_range": x_range, "trials": trials, "seed": seed},
    )


def check_monotone_1d(
    t: int,
    p: float,
    x_max: int,
    trials: int,
    seed: int = 0,
    *,
    confidence: float = 0.99,
    jobs: int = 1,
    one_sided_expansion: bool = False,
) -> CheckReport:
    """Occupancy decrease away from the origin on the right half line."""
    _validate_confidence(confidence)
    sites = list(range(0, x_max + 1))
    comparisons = max(x_max, 1)
    per_site = 1.0 - (1.0 - confidence) / (2.0 * comparisons)
    estimates = {
        e.site: e
        for e in estimate_occupancy(
            Span(0, 0),
            t,
            sites,
            trials,
            p=p,
            seed=seed,
            confidence=per_site,
            jobs=jobs,
            one_sided_expansion=one_sided_expansion,
        )
    }
    worst = _worst_margin(
        _order_gap(estimates[x], estimates[x + 1]) for x in range(x_max)
    )
    return CheckReport(
        claim="occupancy-monotone-1d",
        passed=worst <= 0,
        worst_margin=worst,
        params={"t": t, "p": p, "x_max": x_max, "trials": trials, "seed": seed},
    )


def check_monotone_l1(
    d: int,
    t: int,
    p: float,
    radius: int,
    trials: int,
    seed: int = 0,
    *,
    confidence: float = 0.99,
    jobs: int = 1,
) -> CheckReport:
    """Test the planar L1 ordering with ties: f_t(x) >= f_t(y) if ||x||_1 <= ||y||_1.

    The planar chain violates this ordering for t >= 2: sites of equal L1
    norm are not equally occupied (at p = 1/2, f_2(1,1) - f_2(2,0) =
    0.022194).  So for t >= 2 and radius >= 2, given enough trials, the check
    fails on the faithful dynamics; it is the instrument that refutes the L1
    reading.  The ordering that holds is the coordinatewise one,
    |x_i| <= |y_i| on every axis.
    """
    if d != 2:
        raise ValueError(f"only d=2 is implemented, got d={d}")
    _validate_confidence(confidence)
    points = [
        (x, y)
        for x in range(-radius, radius + 1)
        for y in range(-radius, radius + 1)
        if abs(x) + abs(y) <= radius
    ]
    ordered = [
        (a, b)
        for a in points
        for b in points
        if a != b and abs(a[0]) + abs(a[1]) <= abs(b[0]) + abs(b[1])
    ]
    per_site = 1.0 - (1.0 - confidence) / (2.0 * max(len(ordered), 1))
    estimates = {
        e.site: e
        for e in estimate_occupancy_2d(
            unit_box(2), t, points, trials, p=p, seed=seed, confidence=per_site, jobs=jobs
        )
    }
    worst = _worst_margin(
        _order_gap(estimates[near_pt], estimates[far_pt]) for near_pt, far_pt in ordered
    )
    return CheckReport(
        claim="occupancy-monotone-l1-2d",
        passed=worst <= 0,
        worst_margin=worst,
        params={"d": d, "t": t, "p": p, "radius": radius, "trials": trials, "seed": seed},
    )


# ---------------------------------------------------------------------------
# batched coupled pairs


class _PairBatch:
    """A chunk of coupled pairs as int64 endpoint arrays.

    Row i holds a first state [ml, mr] and a second state [pl, pr]: the
    minus and plus sides of the antithetic coupling, or zeta and its mirror
    eta in the reflection coupling.  Both sides of a pair die together, so
    one ``dead`` mask marks the empty pair, whose endpoints are then stale.
    ``coalesced`` marks pairs that run on shared draws; a coalesced pair
    that dies stays coalesced, as in :func:`coupled_step`.

    The steps take their draws as arguments, so tests can feed them fixed
    ranks and run lengths; :meth:`draws` makes them from a stream.
    """

    def __init__(self, size: int, first: Span, second: Span) -> None:
        self.ml = np.full(size, first.left, np.int64)
        self.mr = np.full(size, first.right, np.int64)
        self.pl = np.full(size, second.left, np.int64)
        self.pr = np.full(size, second.right, np.int64)
        self.dead = np.zeros(size, bool)
        self.coalesced = np.zeros(size, bool)

    def draws(self, rows: np.ndarray, p: float, stream: Stream):
        """One step's draws for ``rows``: a uniform contraction rank of each
        first host (0 is death, as in :func:`unrank_subinterval`), then the
        right and the left geometric run lengths."""
        n = self.mr[rows] - self.ml[rows] + 1
        return (
            stream.integers_upto(n * (n + 1) // 2),
            stream.geometric_array(p, rows.size),
            stream.geometric_array(p, rows.size),
        )

    def _contract(self, rows: np.ndarray, rank: np.ndarray):
        """Kill the rows that drew rank 0; contract the first host of the rest.

        Returns the surviving rows, their mask within ``rows`` and the
        contracted first sides [a, b].  Endpoints are not written yet.
        """
        keep = rank > 0
        self.dead[rows[~keep]] = True
        rows = rows[keep]
        base = self.ml[rows]
        a, b = _unrank_offsets_vec(self.mr[rows] - base + 1, rank[keep] - 1)
        return rows, keep, base + a, base + b

    def antithetic_step(
        self,
        rows: np.ndarray,
        rank: np.ndarray,
        right_run: np.ndarray,
        left_run: np.ndarray,
        *,
        skip_antithetic_map: bool = False,
    ) -> None:
        """:func:`coupled_step` on live antithetic or coalesced ``rows``.

        The minus side contracts to [a, b] and expands to
        [a - left_run, b + right_run].  The plus contraction is
        :func:`antithetic_image`: [a, b] itself inside the hosts' overlap
        [-1 - mr, mr], its mirror [-1 - b, -1 - a] elsewhere.  Then the rule
        of :func:`coupled_expansion_amounts` applies: the pair coalesces
        when the right run reaches the right-endpoint offset (0 for a
        shared contraction), and otherwise the plus side expands with the
        two runs swapped.  Coalesced rows take the minus step as their
        shared step.  ``skip_antithetic_map`` copies the contraction, the
        fault injection of :func:`coupled_step`.
        """
        rows, keep, a, b = self._contract(rows, rank)
        right_run, left_run = right_run[keep], left_run[keep]
        if skip_antithetic_map:
            tl, tr = a, b
        else:
            inside = a >= -1 - self.mr[rows]
            tl = np.where(inside, a, -1 - b)
            tr = np.where(inside, b, -1 - a)
        shared = self.coalesced[rows] | (right_run >= tr - b)
        ml = a - left_run
        mr = b + right_run
        self.ml[rows] = ml
        self.mr[rows] = mr
        self.pl[rows] = np.where(shared, ml, tl - right_run)
        self.pr[rows] = np.where(shared, mr, tr + left_run)
        self.coalesced[rows] = shared

    def reflection_step(
        self,
        rows: np.ndarray,
        rank: np.ndarray,
        right_run: np.ndarray,
        left_run: np.ndarray,
        *,
        swap_expansion_draws: bool = True,
    ) -> None:
        """:func:`reflection_coupled_step` on live ``rows``.

        zeta contracts to [a, b] and expands to [a - left_run, b + right_run];
        eta contracts to the reflection [-b, -a] and expands with the two
        runs swapped, or reused unswapped as fault injection.
        """
        rows, keep, a, b = self._contract(rows, rank)
        right_run, left_run = right_run[keep], left_run[keep]
        self.ml[rows] = a - left_run
        self.mr[rows] = b + right_run
        if swap_expansion_draws:
            right_run, left_run = left_run, right_run
        self.pl[rows] = -b - left_run
        self.pr[rows] = -a + right_run

    def classes(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Identical and antithetic masks of ``rows``, as :func:`classify_pair`
        decides them; dead rows are both-empty, and rows in neither mask
        nor dead are unrelated."""
        live = ~self.dead[rows]
        ml, mr, pl, pr = self.ml[rows], self.mr[rows], self.pl[rows], self.pr[rows]
        identical = live & (ml == pl) & (mr == pr)
        antithetic = (
            live
            & ~identical
            & (pl == -1 - mr)
            & (pr == -1 - ml)
            & (ml <= -1)
            & (mr + 1 <= -ml)
        )
        return identical, antithetic

    def dominates(self, rows: np.ndarray) -> np.ndarray:
        """:func:`dominates_nonnegative` of each of ``rows``."""
        ml, mr = self.ml[rows], self.mr[rows]
        holds = (self.pl[rows] <= np.maximum(ml, 0)) & (self.pr[rows] >= mr)
        return self.dead[rows] | (mr < 0) | holds

    def invariants_hold(self, rows: np.ndarray) -> np.ndarray:
        """The antithetic coupling's pathwise invariants, per row: the pair is
        empty, antithetic or coalesced-identical; a coalesced pair is
        identical; plus holds the nonnegative sites of minus."""
        identical, antithetic = self.classes(rows)
        dead, coalesced = self.dead[rows], self.coalesced[rows]
        return (
            (dead | antithetic | (identical & coalesced))
            & (dead | identical | ~coalesced)
            & self.dominates(rows)
        )

    def mirrored(self, rows: np.ndarray) -> np.ndarray:
        """Is the second side the reflection about the origin of the first?"""
        reflected = (self.pl[rows] == -self.mr[rows]) & (self.pr[rows] == -self.ml[rows])
        return self.dead[rows] | reflected

    def states(self, row: int) -> tuple[Interval, Interval]:
        """The two states of one row."""
        if self.dead[row]:
            return EMPTY, EMPTY
        return (
            Span(int(self.ml[row]), int(self.mr[row])),
            Span(int(self.pl[row]), int(self.pr[row])),
        )


def _pair_chunks(
    label: str, trials: int, seed: int, first: Span, second: Span
) -> Iterator[tuple[int, Stream, _PairBatch]]:
    """(first run index, substream, fresh pairs) for each chunk of trials."""
    root = Stream(seed)
    for index, size in _chunk_layout(trials):
        yield index * _CHUNK, root.substream(label, index), _PairBatch(size, first, second)


def _pathwise_run(
    label: str,
    horizon: int,
    p: float,
    trials: int,
    seed: int,
    initial: tuple[Span, Span],
    step: Callable[..., None],
    holds: Callable[[_PairBatch, np.ndarray], np.ndarray],
) -> tuple[int, tuple | None, int]:
    """Step every run up to ``horizon`` times; a run stops when it dies or
    ``holds`` fails on it.

    Returns the number of violating runs, the first violation
    ``(run, step, first, second)`` of the lowest violating run (or None),
    and the number of runs that ended coalesced.
    """
    violations = 0
    coalesced_runs = 0
    first_violation = None
    for start, stream, pairs in _pair_chunks(label, trials, seed, *initial):
        running = np.ones(pairs.dead.size, bool)
        for time in range(1, horizon + 1):
            rows = np.flatnonzero(running & ~pairs.dead)
            if rows.size == 0:
                break
            step(pairs, rows, *pairs.draws(rows, p, stream))
            bad = rows[~holds(pairs, rows)]
            if bad.size:
                violations += bad.size
                running[bad] = False
                if first_violation is None or start + bad[0] < first_violation[0]:
                    first_violation = (start + int(bad[0]), time, *pairs.states(bad[0]))
        coalesced_runs += int(np.count_nonzero(pairs.coalesced))
    return violations, first_violation, coalesced_runs


# ---------------------------------------------------------------------------
# coupling checks


def _coupled_occupancy_counts(
    t: int,
    p: float,
    trials: int,
    seed: int,
    sites: Sequence[int],
    skip_antithetic_map: bool,
    jobs: int = 1,
) -> np.ndarray:
    """Occupancy counts of the minus and plus marginals at times 1..t.

    Shape (2, t, len(sites)): index 0 is the minus side, 1 the plus side.
    """
    root = Stream(seed)
    index = _SiteIndex(sites)

    def worker(chunk: int, count: int) -> np.ndarray:
        stream = root.substream("coupled-marginal", chunk)
        pairs = _PairBatch(count, Span(-1, -1), Span(0, 0))
        counts = np.zeros((2, t, len(sites)), np.int64)
        for time in range(t):
            rows = np.flatnonzero(~pairs.dead)
            if rows.size == 0:
                break
            pairs.antithetic_step(
                rows, *pairs.draws(rows, p, stream), skip_antithetic_map=skip_antithetic_map
            )
            live = ~pairs.dead
            counts[0, time] = index.cover_counts(pairs.ml[live], pairs.mr[live])
            counts[1, time] = index.cover_counts(pairs.pl[live], pairs.pr[live])
        return counts

    return _run_chunks(trials, worker, jobs)


def _two_sample_pvalue(hits_a: int, n_a: int, hits_b: int, n_b: int) -> float:
    """Pearson chi-square on the 2x2 hit/miss table; 1.0 when degenerate."""
    a, b = hits_a, n_a - hits_a
    c, d = hits_b, n_b - hits_b
    if (a + c) == 0 or (b + d) == 0:
        return 1.0
    n = a + b + c + d
    num = n * (a * d - b * c) ** 2
    den = (a + b) * (c + d) * (a + c) * (b + d)
    # Upper tail of the chi-square law with one degree of freedom.
    return math.erfc(math.sqrt(num / den / 2.0))


def coupling_marginal_test(
    t: int,
    p: float,
    trials: int,
    seed: int = 0,
    *,
    significance: float = 1e-3,
    x_window: int = 8,
    jobs: int = 1,
    skip_antithetic_map: bool = False,
) -> CheckReport:
    """Both coupled marginals must match standalone simulations in law.

    Occupancy profiles at times 1..t over a site window are compared by
    per-site two-sample chi-square tests at a union-bounded significance.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    validate_expansion_param(p)
    sites = list(range(-x_window, x_window + 1))
    counts_minus, counts_plus = _coupled_occupancy_counts(
        t, p, trials, seed, sites, skip_antithetic_map, jobs
    )
    root = Stream(seed)

    def standalone(label: str, initial: Span) -> np.ndarray:
        def worker(index: int, count: int) -> np.ndarray:
            return _interval_chunk_counts(
                root.substream(label, index), count, initial, t, UNIFORM, p, sites, False, True
            )

        return _run_chunks(trials, worker, jobs)

    alone_minus = standalone("standalone-minus", Span(-1, -1))
    alone_plus = standalone("standalone-plus", Span(0, 0))
    tests = 2 * t * len(sites)
    alpha_each = significance / tests
    min_pvalue = 1.0
    for coupled, alone in ((counts_minus, alone_minus), (counts_plus, alone_plus)):
        for time in range(t):
            for j in range(len(sites)):
                pv = _two_sample_pvalue(
                    int(coupled[time, j]), trials, int(alone[time, j]), trials
                )
                min_pvalue = min(min_pvalue, pv)
    return CheckReport(
        claim="coupling-marginals",
        passed=min_pvalue >= alpha_each,
        worst_margin=alpha_each - min_pvalue,
        params={
            "t": t,
            "p": p,
            "trials": trials,
            "seed": seed,
            "significance": significance,
            "x_window": x_window,
        },
    )


def coupling_invariant_check(
    horizon: int,
    p: float,
    trials: int,
    seed: int = 0,
    *,
    skip_antithetic_map: bool = False,
) -> CheckReport:
    """Pathwise invariants of the antithetic coupling.

    Every visited pair must be empty, coalesced-identical, or antithetic;
    the plus side must contain the nonnegative sites of the minus side at
    every step; coalescence must be absorbing.  A run stops at its first
    violation; a failing report names the lowest-numbered violating run as
    ``params["first_violation"] = (run, step, minus, plus)``, steps counted
    from 1.
    """
    validate_expansion_param(p)
    violations, first_violation, coalesced_runs = _pathwise_run(
        "coupled-invariants",
        horizon,
        p,
        trials,
        seed,
        (Span(-1, -1), Span(0, 0)),
        partial(_PairBatch.antithetic_step, skip_antithetic_map=skip_antithetic_map),
        _PairBatch.invariants_hold,
    )
    params = {
        "horizon": horizon,
        "p": p,
        "trials": trials,
        "seed": seed,
        "coalesced_runs": coalesced_runs,
    }
    if first_violation is not None:
        params["first_violation"] = first_violation
    return CheckReport(
        claim="coupling-invariants",
        passed=violations == 0,
        worst_margin=float(violations),
        params=params,
    )


def reflection_identity_check(
    horizon: int,
    p: float,
    trials: int,
    seed: int = 0,
    *,
    swap_expansion_draws: bool = True,
) -> CheckReport:
    """The mirrored copy must equal the reflection of the first at all times.

    A run stops at its first violation, so a broken step never feeds an
    inconsistent pair back into the coupling.  A failing report names the
    lowest-numbered violating run as ``params["first_violation"] =
    (run, step, zeta, eta)``, steps counted from 1.
    """
    validate_expansion_param(p)
    violations, first_violation, _ = _pathwise_run(
        "reflection",
        horizon,
        p,
        trials,
        seed,
        (Span(0, 0), Span(0, 0)),
        partial(_PairBatch.reflection_step, swap_expansion_draws=swap_expansion_draws),
        _PairBatch.mirrored,
    )
    params = {"horizon": horizon, "p": p, "trials": trials, "seed": seed}
    if first_violation is not None:
        params["first_violation"] = first_violation
    return CheckReport(
        claim="reflection-identity",
        passed=violations == 0,
        worst_margin=float(violations),
        params=params,
    )


@dataclass(frozen=True)
class CoalescenceSummary:
    """Censored first coalescence-or-absorption time distribution."""

    p: float
    horizon: int
    trials: int
    seed: int
    first_event_times: dict[int, int]
    coalesced: int
    absorbed: int
    censored: int

    @property
    def resolved_fraction(self) -> float:
        return (self.coalesced + self.absorbed) / self.trials


def coalescence_stats(
    p: float,
    horizon: int,
    trials: int,
    seed: int = 0,
) -> CoalescenceSummary:
    """Empirical distribution of the first coalescence-or-absorption time.

    Runs still coupled and alive at the horizon are censored; no claim is
    made about finiteness of the coupling time.
    """
    validate_expansion_param(p)
    first_times = np.zeros(max(horizon, 0) + 1, np.int64)
    coalesced = 0
    absorbed = 0
    for _, stream, pairs in _pair_chunks("coalescence", trials, seed, Span(-1, -1), Span(0, 0)):
        for time in range(1, horizon + 1):
            rows = np.flatnonzero(~pairs.dead & ~pairs.coalesced)
            if rows.size == 0:
                break
            pairs.antithetic_step(rows, *pairs.draws(rows, p, stream))
            first_times[time] += np.count_nonzero(pairs.dead[rows] | pairs.coalesced[rows])
        coalesced += int(np.count_nonzero(pairs.coalesced))
        absorbed += int(np.count_nonzero(pairs.dead & ~pairs.coalesced))
    return CoalescenceSummary(
        p=p,
        horizon=horizon,
        trials=trials,
        seed=seed,
        first_event_times={time: int(n) for time, n in enumerate(first_times) if n},
        coalesced=coalesced,
        absorbed=absorbed,
        censored=trials - coalesced - absorbed,
    )
