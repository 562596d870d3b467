"""Sampling-based occupancy estimation and statistical verification.

Every estimator and check simulates its trials in vectorized chunks of
at most ``_CHUNK`` runs through one driver, :func:`_run_chunks`, which
runs chunk ``i`` in order on the labeled substream ``(label, i)``; so
results depend only on the seed and the inputs.  A chunk is one batch of
live rows, chains of boxes or coupled pairs, and every step of either
draws through one protocol, :meth:`_Batch.contract`.  The estimators and
the marginal test count coverage through one loop, :func:`_coverage`;
the pathwise checks and :func:`coalescence_stats` step their pairs
through another, :func:`_pathwise_run`.  All sites of one check are counted from the same
trial paths (common random numbers), which shrinks the variance of the
differences the checks look at; the confidence intervals used as
margins are therefore conservative.

Each check can also run against a deliberately corrupted variant of the
dynamics (fault injection), which the faithful checks must detect.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from statistics import NormalDist
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _EXPORTS
from .boxes import Box, l1_ball, l1_norm, unit_box

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
    ContractionRule,
    EndpointResampleContraction,
    KillThenUniformContraction,
    SizeWeightedContraction,
    Span,
    UNIFORM,
    UniformContraction,
    _at_least,
    _integral,
    validate_expansion_param,
)
from .stream import Stream, _in_open_unit

__all__ = _EXPORTS["montecarlo"]

_CHUNK = 8192
# Cells in one block of the coverage sweep (8 bytes each, 2 MiB).
_SWEEP_CELLS = 2**18


# ---------------------------------------------------------------------------
# confidence intervals


def _proportion(hits: int, trials: int, confidence: float) -> tuple[int, int]:
    """``hits`` and ``trials`` as ints with trials >= 1 and 0 <= hits <=
    trials, and ``confidence`` in (0, 1); anything else raises ValueError."""
    trials = _at_least("trials", trials, 1)
    hits = _integral(hits, "hits")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits must lie in [0, {trials}], got {hits!r}")
    _in_open_unit("confidence", confidence)
    return hits, trials


def _worst_margin(gaps) -> float:
    """Largest gap, or NaN if any gap is NaN, so that an undefined comparison fails."""
    worst = -math.inf
    for gap in gaps:
        if math.isnan(gap):
            return math.nan
        worst = max(worst, gap)
    return worst


@lru_cache(maxsize=64)
def _normal_quantile(confidence: float) -> float:
    """The two-sided standard normal quantile of ``confidence``, computed
    once per level: an estimate asks for it at every site."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_interval(hits: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Wilson score interval; well behaved for extreme proportions."""
    hits, trials = _proportion(hits, trials, confidence)
    z = _normal_quantile(confidence)
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
    hits, trials = _proportion(hits, trials, confidence)
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
# vectorized chunk simulation
#
# A batch holds the live rows of one chunk as int64 endpoint arrays ``lo, hi``
# of shape (sides, rows): one row of endpoints per axis of a box, or per side
# of a coupled pair; an interval is the box with one axis.  Every step draws
# through :meth:`_Batch.contract`, so no mask of dead rows is carried.


def _by_root(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_from_right`'s decode in closed form, for any rank.

    8r + 1 lies in [(2k+1)^2, (2k+3)^2).  Rounding it to float64 and the
    correctly rounded square root move the root of a square by less than
    half an ulp, so the float root lies in [2k+1, 2k+3]: the estimate of k
    is k or k + 1.  It can be k + 1 only past 2**53, where 8r + 1 is not
    exact: below, the block's largest 8r + 1, (2k+3)^2 - 8, has its root
    about 4/(2k+3) below 2k+3, more than half an ulp.  So the integer
    correction runs only for ranks that large.  Every operand is
    nonnegative, so halving is a shift (numpy's floor division costs more).
    """
    root = r * 8
    root += 1
    k = np.sqrt(root).astype(np.int64)
    k -= 1
    k >>= 1
    t = k + 1
    t *= k
    t >>= 1
    over = t > r
    if over.any():
        k -= over
        t = k * (k + 1) >> 1
    return k, np.subtract(r, t, out=t)


def _decode_table(sides: int) -> np.ndarray:
    """Row r holds the (k, j) of rank r, for every rank of a host of at
    most ``sides`` sites: the T(sides) ranks, block k holding k + 1."""
    k = np.repeat(np.arange(sides, dtype=np.int64), np.arange(1, sides + 1))
    table = np.empty((k.size, 2), np.int64)
    table[:, 0] = k
    np.subtract(np.arange(k.size), k * (k + 1) >> 1, out=table[:, 1])
    return table


# Hosts of up to this many sites decode by lookup (129 KiB); the benchmark's
# Monte Carlo calls met none past 65 sites.
_DECODE_SIDES = 128
_DECODE = _decode_table(_DECODE_SIDES)


def _from_right(r: np.ndarray, sides: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized decode of sub-interval ranks counted from the last one.

    Ranked by left end, then right end, as :func:`unrank_subinterval` does,
    the sub-intervals of a host end with its right end; counted from that
    last one, the block whose left end lies k sites left of the host's right
    end holds the ranks ``r`` in [T(k), T(k+1)), T(m) = m(m+1)/2, and ``r``
    picks the right end j = r - T(k) sites left of it.  Returns (k, j), two
    views of one array of shape ``r.shape + (2,)``.

    One ``take`` from :data:`_DECODE` decodes every rank in it, ranks past
    its end go through :func:`_by_root`.  The table's rows pair k with j,
    so the lookup gathers one 16-byte row per rank (two 1-D tables cost
    nearly twice as much).  ``sides``, when given, is the most sites of any
    host of ``r``: a host of at most ``_DECODE_SIDES`` has every rank in the
    table, so no rank is looked for past its end.
    """
    kj = _DECODE.take(r, axis=0, mode="clip")
    if (sides is None or sides > _DECODE_SIDES) and r.max(initial=0) >= len(_DECODE):
        far = r >= len(_DECODE)
        kj[far] = np.stack(_by_root(r[far]), axis=-1)
    return kj[..., 0], kj[..., 1]


# The int64 rank limit.  An axis's rank counted from its last sub-interval
# is below n(n+1)/2 and the decode forms 8r + 1 from it, so an axis may have
# fewer than 2**60 nonempty sub-intervals.  One draw ranks all sub-boxes plus
# the empty outcome, and its complement is the product of the counts less
# the draw, so that product must stay below 2**63.  Below these limits no
# intermediate of a step wraps.


def _ranks_fit(sizes: Sequence[int]) -> bool:
    ranks = [n * (n + 1) // 2 for n in sizes]
    return max(ranks) < 1 << 60 and math.prod(ranks) < 1 << 63


def _rank_counts(sizes: np.ndarray, largest: list[int] | None = None) -> np.ndarray:
    """Nonempty sub-intervals n(n+1)/2 of each side length in the (axes,
    rows) array ``sizes``; raises ``ValueError`` before a count or the
    product of a row's counts could wrap in int64.

    The largest size on each axis, ``largest`` if the caller has taken it,
    settles the common case; only when those do not fit are the rows
    checked one by one.
    """
    if largest is None:
        largest = sizes.max(axis=1, initial=0).tolist()
    if not _ranks_fit(largest):
        for row in sizes.T.tolist():
            if not _ranks_fit(row):
                raise ValueError(
                    f"a state of side lengths {tuple(row)} exceeds the int64 rank limit of the "
                    "sampler: n(n+1)/2 must stay below 2**60 per axis and its product below 2**63"
                )
    return sizes * (sizes + 1) >> 1


def _contract_chunk(
    lo: np.ndarray, hi: np.ndarray, rule: ContractionRule, stream: Stream,
    size_cdfs: dict[int, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contract every box ``[lo, hi]``; returns the indices ``keep`` of the
    boxes that stay nonempty, in their old order, and their contracted
    ends, each of shape (axes, survivors).  ``size_cdfs`` keeps the
    cumulative pmfs of ``rule``, if size-weighted, by source size between
    calls; it is read and filled for that rule alone.

    The uniform rule draws one rank per box over its nonempty sub-boxes
    plus the empty outcome (rank 0) and splits the rest mixed-radix, last
    axis fastest, as :func:`contract_uniform` does.  The complement of a
    draw, its rank counted from the last sub-box, splits into the
    complements of the digits, so each axis's rank counted from its last
    sub-interval, which :func:`_from_right` decodes from the host's right
    end.  The other rules contract intervals only.
    """
    sizes = hi - lo + 1
    n = sizes[0]
    if isinstance(rule, UniformContraction):
        largest = sizes.max(axis=1, initial=0).tolist()
        ranks = _rank_counts(sizes, largest)
        # An interval's total is its rank counts, not a copy.
        total = ranks[0]
        for axis in range(1, len(ranks)):
            total = total * ranks[axis]
        draw = stream.integers_upto(total)
        # A boolean mask's nonzero is twice as fast as an integer array's on
        # full chunks, and np.flatnonzero's ravel costs more on small ones.
        keep = (draw != 0).nonzero()[0]
        rest = (total - draw).take(keep)
        if len(lo) == 1:
            r = rest[None]
        else:
            r = np.empty((len(lo), rest.size), np.int64)
            for axis in range(len(lo) - 1, 0, -1):
                rest, r[axis] = np.divmod(rest, ranks[axis, keep])
            r[0] = rest
    elif len(lo) > 1:
        raise ValueError(f"{type(rule).__name__} contracts intervals only; boxes contract uniformly")
    elif isinstance(rule, KillThenUniformContraction):
        values, which = np.unique(n, return_inverse=True)
        death = np.array([rule.death_at(nv) for nv in values.tolist()])
        keep = np.flatnonzero(stream.random_array(n.size) >= death[which])
        # The draw ranks from the first sub-interval; r counts from the last.
        sizes = sizes.take(keep, axis=1)
        largest = sizes.max(axis=1, initial=0).tolist()
        last = _rank_counts(sizes, largest)
        last -= 1
        r = last - stream.integers_upto(last[0])
    elif isinstance(rule, SizeWeightedContraction):
        u = stream.random_array(n.size)
        # The rows grouped by size, each group a slice of ``order``; any
        # grouping serves, since each row draws from its own u.
        values, which = np.unique(n, return_inverse=True)
        order = np.argsort(which)
        u = u.take(order)
        grouped = np.empty(n.size, np.int64)
        start = 0
        for nv, stop in zip(values.tolist(), np.cumsum(np.bincount(which)).tolist()):
            if nv not in size_cdfs:
                size_cdfs[nv] = np.cumsum(rule.pmf_at(nv))
            grouped[start:stop] = np.searchsorted(size_cdfs[nv], u[start:stop], side="right")
            start = stop
        size = np.empty(n.size, np.int64)
        size[order] = grouped
        np.minimum(size, n, out=size)
        keep = np.flatnonzero(size)
        size = size[keep]
        left = lo[:, keep] + stream.integers_upto(n[keep] - size)
        return keep, left, left + (size - 1)
    elif isinstance(rule, EndpointResampleContraction):
        u = stream.integers_upto(n - 1)
        v = stream.integers_upto(n - 1)
        return np.arange(n.size), lo + np.minimum(u, v), lo + np.maximum(u, v)  # never empty
    else:
        raise TypeError(f"unknown contraction rule {rule!r}")
    k, j = _from_right(r, max(largest))
    top = hi.take(keep, axis=1)
    return keep, top - k, np.subtract(top, j, out=top)


class _Batch:
    """The live rows of one chunk: endpoint arrays ``lo, hi`` of shape
    (sides, rows), every row started at ``initial``.

    A chain of boxes holds one side per axis and steps with :meth:`step`;
    ``sides`` selects the rows that make up each counted state, here the
    whole box.  :class:`_Pairs` holds the two sides of a coupled pair.
    """

    sides: tuple = (slice(None),)

    def __init__(self, size: int, initial: Sequence[Span]) -> None:
        self.lo = np.repeat(np.array([[span.left] for span in initial], np.int64), size, axis=1)
        self.hi = np.repeat(np.array([[span.right] for span in initial], np.int64), size, axis=1)
        # The cumulative pmfs of ``cdf_rule``, if size-weighted, by source
        # size, each read once per chunk: n + 1 floats for each size n the
        # chunk meets, one per ``size_pmf`` call that reading it costs.
        self.cdf_rule: ContractionRule | None = None
        self.size_cdfs: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.lo.shape[1]

    def contract(
        self, axes: int, rule: ContractionRule, p: float, stream: Stream, faces: int = 2
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The one draw protocol of every step: contract the first ``axes``
        sides of each row as one box under ``rule``, find the rows that
        survive, and draw their geometric(p) runs as one array of faces *
        axes * survivors values, axis by axis, low face first (``faces=1``
        draws the high faces only).  Returns the surviving rows ``keep``,
        in their order, the contracted boxes, shape (axes, survivors), and
        the runs, shape (axes, faces, survivors).  The batch is unchanged:
        a step replaces its arrays, and a pair step takes from the hosts
        only what it reads.  A batch with no rows draws nothing."""
        if not len(self):
            return np.empty(0, np.intp), self.lo[:axes], self.hi[:axes], np.empty((axes, faces, 0), np.int64)
        if rule is not self.cdf_rule:
            self.cdf_rule, self.size_cdfs = rule, {}
        keep, lo, hi = _contract_chunk(self.lo[:axes], self.hi[:axes], rule, stream, self.size_cdfs)
        runs = stream.geometric_array(p, faces * axes * keep.size).reshape(axes, faces, keep.size)
        return keep, lo, hi, runs

    def step(
        self, p: float, stream: Stream, *, rule: ContractionRule = UNIFORM, one_sided: bool = False
    ) -> None:
        """One chain step of every box: contract under ``rule``, then push
        each face out by its run (``one_sided`` keeps the low faces)."""
        _, lo, hi, runs = self.contract(len(self.lo), rule, p, stream, 1 if one_sided else 2)
        if not one_sided:
            lo -= runs[:, 0]
        hi += runs[:, -1]
        self.lo, self.hi = lo, hi


def _count_table(coords: np.ndarray) -> tuple[int, int, np.ndarray] | None:
    """``(first, last, below)`` with ``below[v - first]`` the number of
    ``coords`` below v, for every v from one site before the sorted
    coordinates to two past them; None if they span more than
    ``_SWEEP_CELLS`` sites (or reach the ends of int64), which leaves them
    to binary search."""
    if not coords.size or int(coords[-1]) - int(coords[0]) >= _SWEEP_CELLS:
        return None
    first, last = int(coords[0]) - 1, int(coords[-1]) + 1
    if first < -(2**63) or last + 1 >= 2**63:
        return None
    return first, last, np.searchsorted(coords, np.arange(first, last + 2))


class _SiteIndex:
    """Requested sites, or d-dimensional points, for counting box coverage.

    The distinct coordinates of each axis are sorted once.  Sites may come
    in any order and repeat; counts come back in the order the sites were
    given.
    """

    def __init__(self, sites: Sequence, dim: int = 1) -> None:
        points = np.asarray(sites, np.int64).reshape(-1, dim)
        self.size = len(points)
        unique = [np.unique(column, return_inverse=True) for column in points.T]
        self.coords = [coords for coords, _ in unique]
        order = [order for _, order in unique]
        self.shape = tuple(coords.size + 1 for coords in self.coords)
        self.tables = [_count_table(coords) for coords in self.coords]
        # Each corner picks the start (0) or the stop (1) end on every axis;
        # corners with an odd number of stops subtract.
        self.corners = [(ends, sum(ends) % 2) for ends in itertools.product((0, 1), repeat=dim)]
        # The sweep along axis 0 visits blocks of rows, each with its slice
        # of the axis-0 coordinates and the points whose first coordinate
        # falls there; the last row, past every coordinate, holds no point.
        step = max(1, _SWEEP_CELLS // math.prod(self.shape[1:]))
        self.blocks = []
        for first in range(0, self.shape[0] - 1, step):
            rows = self.coords[0][first : first + step]
            mine = np.flatnonzero((order[0] >= first) & (order[0] < first + rows.size))
            self.blocks.append((rows, mine, (order[0][mine] - first, *(o[mine] for o in order[1:]))))

    def _cover_ends(self, axis: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per box, how many coordinates of ``axis`` lie below its start and
        how many up to its end: the indices of the first coordinate the box
        covers and of the one just past the last."""
        coords, table = self.coords[axis], self.tables[axis]
        if table is None:
            return np.searchsorted(coords, lo, side="left"), np.searchsorted(coords, hi, side="right")
        first, last, below = table
        ends = []
        # Clipping to [first, last] keeps every count; ``below[1:]`` counts
        # the coordinates up to v.
        for values, counts in ((lo, below), (hi, below[1:])):
            index = np.clip(values, first, last)
            index -= first
            ends.append(counts.take(index, out=index, mode="clip"))
        return ends[0], ends[1]

    def cover_counts(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """How many boxes [lo, hi] contain each site.

        ``lo`` and ``hi`` hold one row of endpoints per axis, or are flat
        for one axis.  A difference array over the grid of distinct per-axis
        coordinates: each box adds +-1 at the 2^d corners spanned by the
        first coordinate it covers and the one just past the last, and a
        running sum along every axis leaves each grid cell's coverage.

        The grid is swept along axis 0 one block of rows at a time, so at
        most about ``_SWEEP_CELLS`` cells are held however many points are
        scattered.  A block offsets the axis-0 ends to its own rows and
        clips them there: an end before the block lands on its first row,
        which makes that row the running (d-1)-dimensional slab of the
        sweep, and an end after it lands on an extra last row that is never
        read.
        """
        if lo.ndim == 1:
            lo, hi = lo[None], hi[None]
        ends = [self._cover_ends(axis, lo[axis], hi[axis]) for axis in range(len(self.coords))]
        counts = np.empty(self.size, np.int64)
        first = 0
        for rows, mine, cells in self.blocks:
            shape = (rows.size + 1, *self.shape[1:])
            size = math.prod(shape)
            block = ends
            if len(self.blocks) > 1:
                block = [tuple(np.clip(end - first, 0, rows.size) for end in ends[0]), *ends[1:]]
            first += rows.size
            diff = np.zeros(size, np.int64)
            for corner, odd in self.corners:
                flat = block[0][corner[0]]
                for axis in range(1, len(block)):
                    flat = flat * shape[axis] + block[axis][corner[axis]]
                if odd:
                    diff -= np.bincount(flat, minlength=size)
                else:
                    diff += np.bincount(flat, minlength=size)
            grid = diff.reshape(shape)
            for axis in range(grid.ndim):
                grid = np.cumsum(grid, axis=axis)
            counts[mine] = grid[cells]
        return counts


def _coverage(
    batch: _Batch, t: int, step: Callable[[_Batch], None], index: _SiteIndex, by_time: bool
) -> np.ndarray:
    """Hit counts per site of each side of ``batch`` as ``step`` advances
    it t times: shape (times, sides, sites), at time t only or at each of
    the times 1..t."""
    counts = []
    for _ in range(t):
        step(batch)
        if by_time:
            counts.append([index.cover_counts(batch.lo[side], batch.hi[side]) for side in batch.sides])
    if not by_time:
        counts.append([index.cover_counts(batch.lo[side], batch.hi[side]) for side in batch.sides])
    return np.array(counts)


def _run_chunks(label: str, trials: int, seed: int, work: Callable[[int, Stream, int], object]) -> list:
    """``work(start, stream, count)`` of each chunk of ``trials`` runs, run
    in chunk order on the calling thread.

    Chunk ``i`` holds the ``count`` runs from ``start = i * _CHUNK``, at
    most ``_CHUNK`` of them, and draws from the substream ``(label, i)``
    of ``seed``.
    """
    root = Stream(seed)
    return [
        work(start, root.substream(label, i), min(_CHUNK, trials - start))
        for i, start in enumerate(range(0, trials, _CHUNK))
    ]


# ---------------------------------------------------------------------------
# occupancy estimators


def _int64(value, what: str) -> int:
    """``value`` read by :func:`_integral`, refused unless it fits int64."""
    value = _integral(value, what)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{what} {value} lies outside int64")
    return value


def _estimate(
    label: str, initial: Sequence[Span], t: int, sites: list, trials: int,
    rule: ContractionRule, p: float, seed: int, confidence: float, method: str, one_sided: bool,
) -> list[OccupancyEstimate]:
    """Occupancy estimates of the chain started at the box with spans
    ``initial``, chunk ``i`` drawn from the substream ``(label, i)``."""
    validate_expansion_param(p)
    trials = _at_least("trials", trials, 1)
    t = _at_least("t", t, 0)
    # Ends are int64.  A run is below 2**60 (Stream.geometric_array), and a
    # side of 2**31 sites fails the next contraction's rank guard, so every
    # run but the last is below 2**31: from +-2**62 no end wraps before t = 2**30.
    for span in initial:
        if span.left < -(2**62) or span.right > 2**62:
            raise ValueError(f"initial state {span} has an end outside the sampler's range [-2**62, 2**62]")
    _in_open_unit("confidence", confidence)
    if method not in _CI_METHODS:
        raise ValueError(f"unknown method {method!r}; valid methods: {', '.join(_CI_METHODS)}")
    ci = _CI_METHODS[method]
    index = _SiteIndex(sites, len(initial))
    counts = sum(_run_chunks(
        label, trials, seed,
        lambda _, stream, count: _coverage(
            _Batch(count, initial), t, lambda chains: chains.step(p, stream, rule=rule, one_sided=one_sided),
            index, False,
        ),
    ))[0, 0]
    out = []
    for site, hits in zip(sites, counts.tolist()):
        lo, hi = ci(hits, trials, confidence)
        out.append(OccupancyEstimate(site, trials, hits, hits / trials, lo, hi))
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

    All sites are counted from the same simulated paths.  ``jobs`` is
    read only to refuse a value below 1.
    """
    _at_least("jobs", jobs, 1)
    return _estimate(
        "mc-interval", (initial,), t, [_int64(x, "site") for x in sites], trials,
        rule, p, seed, confidence, method, one_sided_expansion,
    )


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
    """Occupancy estimates over a set of lattice points of the planar
    process.  ``jobs`` is read only to refuse a value below 1."""
    _at_least("jobs", jobs, 1)
    if initial.dim != 2:
        raise ValueError("estimate_occupancy_2d needs a two-dimensional box")
    return _estimate(
        "mc-box", initial.spans, t,
        [(_int64(x, "point coordinate"), _int64(y, "point coordinate")) for x, y in points],
        trials,
        UNIFORM, p, seed, confidence, method, False,
    )


# ---------------------------------------------------------------------------
# statistical checks of the occupancy function


def _pair_gap(a: OccupancyEstimate, b: OccupancyEstimate) -> float:
    """How far the two estimates are beyond their combined CI half-widths."""
    return abs(a.estimate - b.estimate) - (a.half_width + b.half_width)


def _order_gap(near: OccupancyEstimate, far: OccupancyEstimate) -> float:
    """How far the far estimate exceeds the near one beyond their CI half-widths."""
    return far.estimate - near.estimate - (near.half_width + far.half_width)


def _occupancy_check(
    claim: str, params: dict, confidence: float, comparisons: int,
    estimate: Callable[[float], list[OccupancyEstimate]],
    gaps: Callable[[dict], Iterable[float]],
) -> CheckReport:
    """Run ``estimate`` at the Bonferroni per-site level for ``comparisons``
    two-sided comparisons; the check passes when every gap over the
    estimates, keyed by site, is <= 0 (a NaN gap fails)."""
    _in_open_unit("confidence", confidence)
    per_site = 1.0 - (1.0 - confidence) / (2.0 * comparisons)
    estimates = {e.site: e for e in estimate(per_site)}
    worst = _worst_margin(gaps(estimates))
    return CheckReport(claim=claim, passed=worst <= 0, worst_margin=worst, params=params)


def check_even(
    t: int,
    p: float,
    x_range: int,
    trials: int,
    seed: int = 0,
    *,
    confidence: float = 0.99,
    one_sided_expansion: bool = False,
) -> CheckReport:
    """Occupancy symmetry: estimates at x and -x must agree within CIs."""
    t, trials = _at_least("t", t, 0), _at_least("trials", trials, 1)
    x_range = _at_least("x_range", x_range, 1)
    return _occupancy_check(
        "occupancy-even-1d",
        {"t": t, "p": p, "x_range": x_range, "trials": trials, "seed": seed},
        confidence,
        x_range,
        lambda level: estimate_occupancy(
            Span(0, 0), t, range(-x_range, x_range + 1), trials, p=p, seed=seed,
            confidence=level, one_sided_expansion=one_sided_expansion,
        ),
        lambda est: (_pair_gap(est[x], est[-x]) for x in range(1, x_range + 1)),
    )


def check_monotone_1d(
    t: int,
    p: float,
    x_max: int,
    trials: int,
    seed: int = 0,
    *,
    confidence: float = 0.99,
    one_sided_expansion: bool = False,
) -> CheckReport:
    """Occupancy decrease away from the origin on the right half line."""
    t, trials = _at_least("t", t, 0), _at_least("trials", trials, 1)
    x_max = _at_least("x_max", x_max, 1)
    return _occupancy_check(
        "occupancy-monotone-1d",
        {"t": t, "p": p, "x_max": x_max, "trials": trials, "seed": seed},
        confidence,
        x_max,
        lambda level: estimate_occupancy(
            Span(0, 0), t, range(0, x_max + 1), trials, p=p, seed=seed,
            confidence=level, one_sided_expansion=one_sided_expansion,
        ),
        lambda est: (_order_gap(est[x], est[x + 1]) for x in range(x_max)),
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
) -> CheckReport:
    """Test the planar L1 ordering with ties: f_t(x) >= f_t(y) if ||x||_1 <= ||y||_1.

    The planar chain violates this ordering for t >= 2: sites of equal L1
    norm are not equally occupied (at p = 1/2, f_2(1,1) - f_2(2,0) =
    0.022194).  So for t >= 2 and radius >= 2, given enough trials, the check
    fails on the faithful dynamics; it is the instrument that refutes the L1
    reading.  The ordering that holds is the coordinatewise one,
    |x_i| <= |y_i| on every axis.
    """
    d = _integral(d, "d")
    if d != 2:
        raise ValueError(f"only d=2 is implemented, got d={d}")
    t, trials = _at_least("t", t, 0), _at_least("trials", trials, 1)
    radius = _at_least("radius", radius, 1)
    points = l1_ball(radius, d)
    norms = {point: l1_norm(point) for point in points}
    ordered = [(a, b) for a in points for b in points if a != b and norms[a] <= norms[b]]
    return _occupancy_check(
        "occupancy-monotone-l1-2d",
        {"d": d, "t": t, "p": p, "radius": radius, "trials": trials, "seed": seed},
        confidence,
        len(ordered),
        lambda level: estimate_occupancy_2d(
            unit_box(2), t, points, trials, p=p, seed=seed, confidence=level
        ),
        lambda est: (_order_gap(est[near], est[far]) for near, far in ordered),
    )


# ---------------------------------------------------------------------------
# batched coupled pairs


class _Pairs(_Batch):
    """A batch of live coupled pairs, shape (2, rows): side 0 holds the
    first state, side 1 the second; the minus and plus sides of the
    antithetic coupling, or zeta and its mirror eta in the reflection
    coupling.  Both sides of a pair die together.  A step contracts the
    first side as a one-axis box and builds the second from that box and
    its runs.

    ``run`` is each row's run index within its chunk, ``coalesced`` marks
    the pairs that run on shared draws, and ``coalescences`` counts the
    rows that have coalesced.  Coalescence is absorbing, so that is the
    number of runs that end coalesced, whether they die, leave the batch
    or stay.
    """

    sides = (0, 1)

    def __init__(self, size: int, initial: Sequence[Span]) -> None:
        super().__init__(size, initial)
        self.coalesced = np.zeros(size, bool)
        self.run = np.arange(size)
        self.coalescences = 0

    def keep(self, rows: np.ndarray) -> None:
        """Keep only ``rows``, in their order."""
        # ``take`` of row indices is several times faster here than a mask.
        self.lo = self.lo.take(rows, axis=1)
        self.hi = self.hi.take(rows, axis=1)
        self.coalesced = self.coalesced.take(rows)
        self.run = self.run.take(rows)

    def _survivors(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Keep the flags and run indices of ``rows``, the survivors of a
        step, and give them new endpoint arrays, unfilled, for the step to
        write."""
        self.coalesced = self.coalesced.take(rows)
        self.run = self.run.take(rows)
        self.lo = np.empty((2, rows.size), np.int64)
        self.hi = np.empty((2, rows.size), np.int64)
        return self.lo, self.hi

    def antithetic_step(
        self, p: float, stream: Stream, *, skip_antithetic_map: bool = False, unswapped_plus_runs: bool = False
    ) -> None:
        """:func:`coupled_step` on every antithetic or coalesced pair.

        The minus side contracts to [a, b] and expands to
        [a - left_run, b + right_run].  The plus contraction is
        :func:`antithetic_image`: [a, b] itself inside the hosts' overlap
        [-1 - mr, mr], its mirror [-1 - b, -1 - a] elsewhere.  Then the rule
        of :func:`coupled_expansion_amounts` applies: the pair coalesces
        when the right run reaches the right-endpoint offset (0 for a
        shared contraction), and otherwise the plus side expands with the
        two runs swapped.  Coalesced pairs take the minus step as their
        shared step.  Two fault injections: ``skip_antithetic_map`` copies
        the contraction, as :func:`coupled_step`'s does, and
        ``unswapped_plus_runs`` expands the plus side with the runs unswapped.

        Inside the overlap, or with the copied contraction, the offset is 0
        and the pair coalesces whatever its runs; elsewhere it is
        -1 - a - b, ``~(a + b)`` on int64, and a pair that stays apart
        expands the mirror.
        """
        keep, box_lo, box_hi, runs = self.contract(1, UNIFORM, p, stream)
        # Indexed, not unpacked: unpacking an array iterates it, ~2 µs here.
        a, b, left_run, right_run = box_lo[0], box_hi[0], runs[0, 0], runs[0, 1]
        inside = True if skip_antithetic_map else a + self.hi[0].take(keep) >= -1
        lo, hi = self._survivors(keep)
        shared = right_run >= ~(a + b)
        shared |= inside
        shared |= self.coalesced
        self.coalescences += int(np.count_nonzero(shared)) - int(np.count_nonzero(self.coalesced))
        np.subtract(a, left_run, out=lo[0])
        np.add(b, right_run, out=hi[0])
        if unswapped_plus_runs:
            left_run, right_run = right_run, left_run
        # [-1 - b - right_run, -1 - a + left_run], then the shared step.
        np.invert(np.add(b, right_run, out=lo[1]), out=lo[1])
        np.invert(np.subtract(a, left_run, out=hi[1]), out=hi[1])
        np.copyto(lo[1], lo[0], where=shared)
        np.copyto(hi[1], hi[0], where=shared)
        self.coalesced = shared

    def reflection_step(self, p: float, stream: Stream, *, swap_expansion_draws: bool = True) -> None:
        """:func:`reflection_coupled_step` on every pair.

        zeta contracts to [a, b] and expands to [a - left_run, b + right_run];
        eta contracts to the reflection [-b, -a] and expands with the two
        runs swapped, or reused unswapped as fault injection.
        """
        keep, box_lo, box_hi, runs = self.contract(1, UNIFORM, p, stream)
        a, b, left_run, right_run = box_lo[0], box_hi[0], runs[0, 0], runs[0, 1]
        lo, hi = self._survivors(keep)
        np.subtract(a, left_run, out=lo[0])
        np.add(b, right_run, out=hi[0])
        if swap_expansion_draws:
            right_run, left_run = left_run, right_run
        np.subtract(-b, left_run, out=lo[1])
        np.subtract(right_run, a, out=hi[1])

    def invariants_hold(self) -> np.ndarray:
        """The antithetic coupling's pathwise invariants, per pair: a
        coalesced pair is identical and any other antithetic; plus holds
        the nonnegative sites of minus.

        The plus side must be the one its class asks for: the minus side
        when coalesced, else its mirror [-1 - mr, -1 - ml], [~mr, ~ml] on
        int64, with ml + mr <= -2, that is ml < pl.  These are the classes
        of :func:`classify_pair`, since a mirror with ml + mr = -1 is the
        minus side itself.  Either class has plus hold the nonnegative
        sites of minus, so :func:`dominates_nonnegative` would add nothing:
        an identical pair holds them, and an antithetic one with mr >= 0
        has ml <= -2 - mr < 0, so pl = -1 - mr < 0 and pr = -1 - ml > mr.
        """
        ml, pl, mr, pr = self.lo[0], self.lo[1], self.hi[0], self.hi[1]
        coalesced = self.coalesced
        ok = pl == np.where(coalesced, ml, ~mr)
        ok &= pr == np.where(coalesced, mr, ~ml)
        ok &= coalesced | (ml < pl)
        return ok

    def mirrored(self) -> np.ndarray:
        """Is the second side the reflection about the origin of the first?"""
        return (self.lo[1] == -self.hi[0]) & (self.hi[1] == -self.lo[0])

    def states(self, row: int) -> tuple[Span, Span]:
        """The two states of one row."""
        lo, hi = self.lo[:, row].tolist(), self.hi[:, row].tolist()
        return Span(lo[0], hi[0]), Span(lo[1], hi[1])


def _pathwise_run(
    label: str,
    horizon: int,
    p: float,
    trials: int,
    seed: int,
    initial: tuple[Span, Span],
    step: Callable[[_Pairs, float, Stream], None],
    holds: Callable[[_Pairs], np.ndarray],
) -> tuple[np.ndarray, tuple | None, int]:
    """Step every run up to ``horizon`` times; a run stops when it dies or
    ``holds`` fails on it.

    Returns the stops, shape (2, steps run): at column ``step - 1``, the
    runs that died at that step and the runs that failed ``holds`` there.
    Then the first violation ``(run, step, first, second)`` of the lowest
    violating run (or None), and the number of runs that ended coalesced:
    a run keeps the flag it had when it died or stopped.
    """

    def work(start: int, stream: Stream, count: int):
        pairs = _Pairs(count, initial)
        steps = []  # (died, failed) of each step run, however far the horizon
        first_violation = None
        for time in range(1, horizon + 1):
            if not len(pairs):
                break
            before = len(pairs)
            step(pairs, p, stream)
            ok = holds(pairs)
            failed = len(ok) - int(np.count_nonzero(ok))
            steps.append((before - len(pairs), failed))
            if not failed:
                continue
            bad = (~ok).nonzero()[0]
            run = start + int(pairs.run[bad[0]])
            if first_violation is None or run < first_violation[0]:
                first_violation = (run, time, *pairs.states(bad[0]))
            pairs.keep(ok.nonzero()[0])
        return np.array(steps, np.int64).reshape(-1, 2).T, first_violation, pairs.coalescences

    parts = _run_chunks(label, trials, seed, work)
    stops = np.zeros((2, max(part.shape[1] for part, _, _ in parts)), np.int64)
    for part, _, _ in parts:
        stops[:, : part.shape[1]] += part
    # Chunks come in run order, so the first chunk with a violation holds
    # the lowest violating run.
    first_violation = next((first for _, first, _ in parts if first is not None), None)
    return stops, first_violation, sum(runs for _, _, runs in parts)


def _pathwise_report(
    claim: str, params: dict, stops: np.ndarray, first_violation: tuple | None
) -> CheckReport:
    """A pathwise check's report: it passes when no run failed, its margin
    is the number of runs that did, and ``params`` gain the first
    violation when there is one."""
    violations = int(stops[1].sum())
    if first_violation is not None:
        params["first_violation"] = first_violation
    return CheckReport(claim=claim, passed=violations == 0, worst_margin=float(violations), params=params)


# ---------------------------------------------------------------------------
# coupling checks


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
    skip_antithetic_map: bool = False,
) -> CheckReport:
    """Both coupled marginals must match standalone simulations in law.

    Occupancy profiles at times 1..t over a site window are compared by
    per-site two-sample chi-square tests at a union-bounded significance.
    """
    t = _at_least("t", t, 1)
    validate_expansion_param(p)
    trials = _at_least("trials", trials, 1)
    x_window = _at_least("x_window", x_window, 0)
    _in_open_unit("significance", significance)
    sites = list(range(-x_window, x_window + 1))
    index = _SiteIndex(sites)

    def counts(label: str, batch: type[_Batch], initial: Sequence[Span], step: Callable) -> np.ndarray:
        """Counts of each side at times 1..t, shape (t, sides, sites)."""
        return sum(_run_chunks(
            label, trials, seed,
            lambda _, stream, count: _coverage(
                batch(count, initial), t, lambda rows: step(rows, p, stream), index, True
            ),
        ))

    # Side 0 is the minus side and side 1 the plus side, coupled and alone.
    coupled = counts(
        "coupled-marginal", _Pairs, (Span(-1, -1), Span(0, 0)),
        partial(_Pairs.antithetic_step, skip_antithetic_map=skip_antithetic_map),
    )
    alone = np.concatenate([
        counts(f"standalone-{side}", _Batch, (initial,), _Batch.step)
        for side, initial in (("minus", Span(-1, -1)), ("plus", Span(0, 0)))
    ], axis=1)
    alpha_each = significance / (2 * t * len(sites))
    min_pvalue = min(
        _two_sample_pvalue(hits, trials, alone_hits, trials)
        for hits, alone_hits in zip(coupled.ravel().tolist(), alone.ravel().tolist())
    )
    return CheckReport(
        claim="coupling-marginals",
        passed=min_pvalue >= alpha_each,
        worst_margin=alpha_each - min_pvalue,
        params={
            "t": t, "p": p, "trials": trials, "seed": seed, "significance": significance, "x_window": x_window
        },
    )


def coupling_invariant_check(
    horizon: int,
    p: float,
    trials: int,
    seed: int = 0,
    *,
    skip_antithetic_map: bool = False,
    unswapped_plus_runs: bool = False,
) -> CheckReport:
    """Pathwise invariants of the antithetic coupling.

    Every visited pair must be empty, coalesced-identical, or antithetic;
    the plus side must contain the nonnegative sites of the minus side at
    every step; coalescence must be absorbing.  A run stops at its first
    violation; a failing report names the lowest-numbered violating run as
    ``params["first_violation"] = (run, step, minus, plus)``, steps counted
    from 1.  ``skip_antithetic_map`` and ``unswapped_plus_runs`` inject the
    faults of :meth:`_Pairs.antithetic_step`; only the second breaks an
    invariant, since a copied contraction coalesces every pair it keeps.
    """
    validate_expansion_param(p)
    horizon = _at_least("horizon", horizon, 1)
    trials = _at_least("trials", trials, 1)
    stops, first_violation, coalesced_runs = _pathwise_run(
        "coupled-invariants",
        horizon,
        p,
        trials,
        seed,
        (Span(-1, -1), Span(0, 0)),
        partial(
            _Pairs.antithetic_step,
            skip_antithetic_map=skip_antithetic_map,
            unswapped_plus_runs=unswapped_plus_runs,
        ),
        _Pairs.invariants_hold,
    )
    params = {"horizon": horizon, "p": p, "trials": trials, "seed": seed, "coalesced_runs": coalesced_runs}
    return _pathwise_report("coupling-invariants", params, stops, first_violation)


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
    horizon = _at_least("horizon", horizon, 1)
    trials = _at_least("trials", trials, 1)
    stops, first_violation, _ = _pathwise_run(
        "reflection",
        horizon,
        p,
        trials,
        seed,
        (Span(0, 0), Span(0, 0)),
        partial(_Pairs.reflection_step, swap_expansion_draws=swap_expansion_draws),
        _Pairs.mirrored,
    )
    params = {"horizon": horizon, "p": p, "trials": trials, "seed": seed}
    return _pathwise_report("reflection-identity", params, stops, first_violation)


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
    horizon = _at_least("horizon", horizon, 0)
    trials = _at_least("trials", trials, 1)
    # A run stops at absorption (it dies) or at coalescence (it fails the
    # predicate); the runs still coupled and alive at the horizon are censored.
    (absorbed, coalesced), _, _ = _pathwise_run(
        "coalescence", horizon, p, trials, seed, (Span(-1, -1), Span(0, 0)),
        _Pairs.antithetic_step, lambda pairs: ~pairs.coalesced,
    )
    return CoalescenceSummary(
        p=p,
        horizon=horizon,
        trials=trials,
        seed=seed,
        first_event_times={time: int(n) for time, n in enumerate((absorbed + coalesced).tolist(), 1) if n},
        coalesced=int(coalesced.sum()),
        absorbed=int(absorbed.sum()),
        censored=trials - int(absorbed.sum() + coalesced.sum()),
    )
