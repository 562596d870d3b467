"""Exact propagation of the interval process law with certified truncation.

The full state distribution (a finitely supported map from intervals to
mass) is pushed through the contraction and expansion kernels.  The
contraction kernel is finite, so it is exact; the expansion kernel has
unbounded geometric tails, so shifts beyond ``n_max`` per side are dropped
and their probability is accumulated in ``lost``.  Every reported
occupancy value then becomes a certified bracket [lo, lo + lost].

Two arithmetic modes are supported: 64-bit floats for large sweeps, where
the law lives on an upper-triangular grid of (left, right) endpoints, and
exact rationals for small horizons, where mass conservation holds
identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coupling import (
    PairClass,
    antithetic_image,
    antithetic_mirror,
    classify_pair,
    coupled_expansion_amounts,
    right_offset,
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
    contains,
    count_nonempty_subintervals,
    size_pmf_weights,
    unrank_subinterval,
    validate_expansion_param,
)

__all__ = [
    "Mass",
    "TruncationPolicy",
    "StateDist",
    "OccupancyBounds",
    "contraction_outcome_pmf",
    "contraction_pushforward",
    "expansion_pushforward",
    "evolve",
    "occupancy_bounds",
    "occupancy_table",
    "CouplingTransitionReport",
    "coupling_transition_check",
]

Mass = Union[float, Fraction]

# A float grid of more cells than this (8 bytes each, 512 MiB) is refused
# rather than allocated.  An expansion holds about three grids of its output
# size at once (the output, its left-endpoint pass and one product
# temporary), beside its input, so one at the limit peaks near 2 GiB.
_GRID_CELL_LIMIT = 2**26


@dataclass(frozen=True)
class TruncationPolicy:
    """Retain geometric shifts 0..n_max per side per expansion step."""

    n_max: int

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    def per_step_loss_bound(self, p: float) -> float:
        """Mass discarded per expansion step is at most this."""
        return 1.0 - (1.0 - float(p) ** (self.n_max + 1)) ** 2


class _WeightsView:
    """The ``weights`` field of ``StateDist``.

    A law given a dict keeps it.  A grid law builds the dict from its grid
    on first access: the nonzero cells, and ``EMPTY`` only if its mass is
    positive.  Edits to that dict do not reach the grid.
    """

    def __get__(self, dist: Optional["StateDist"], owner: type) -> dict[Interval, Mass]:
        if dist is None:
            raise AttributeError("weights")  # the field has no default
        if dist._weights is None:
            lefts, rights, masses = dist._cells()
            weights: dict[Interval, Mass] = {EMPTY: dist.empty_mass} if dist.empty_mass > 0.0 else {}
            weights.update(zip(map(Span, lefts, rights), masses))
            dist._weights = weights
        return dist._weights

    def __set__(self, dist: "StateDist", weights: Optional[dict[Interval, Mass]]) -> None:
        dist._weights = weights


@dataclass
class StateDist:
    """Finitely supported distribution over intervals plus tracked lost mass.

    A rational law, or a float law given as a dict, holds its ``weights``.
    A float law computed by the oracle lives on an upper-triangular grid
    instead (``on_grid``): ``grid[i, j]`` is the mass of
    ``Span(origin + i, origin + j)`` and ``empty_mass`` that of the empty
    state, and ``weights`` is a view built on first access.
    """

    weights: dict[Interval, Mass] = _WeightsView()
    lost: Mass
    exact: bool = False

    # Set only on a grid law.
    grid = None
    origin = None
    empty_mass = None
    _cover = None

    @classmethod
    def on_grid(cls, grid: np.ndarray, origin: int, empty_mass: float, lost: float) -> "StateDist":
        """A float law held as its endpoint grid."""
        dist = cls(None, lost)
        dist.grid, dist.origin, dist.empty_mass = grid, origin, empty_mass
        return dist

    @classmethod
    def point_mass(cls, interval: Interval, exact: bool = False) -> "StateDist":
        one: Mass = Fraction(1) if exact else 1.0
        zero: Mass = Fraction(0) if exact else 0.0
        return cls({interval: one}, zero, exact)

    def _cells(self) -> tuple[list[int], list[int], list[float]]:
        """Left ends, right ends and masses of a grid law's nonzero cells,
        in row-major order, which is sorted by (left, right)."""
        rows, cols = np.nonzero(self.grid)
        return (rows + self.origin).tolist(), (cols + self.origin).tolist(), self.grid[rows, cols].tolist()

    def span_rows(self) -> list[tuple[int, int, Mass]]:
        """``(left, right, mass)`` for every span of the support, sorted.

        A grid law reads them off the grid without building ``weights``.
        """
        if self.grid is None:
            return sorted((iv.left, iv.right, w) for iv, w in self.weights.items() if iv is not None)
        return list(zip(*self._cells()))

    def total(self) -> Mass:
        if self.grid is not None:
            return float(self.grid.sum()) + self.empty_mass + self.lost
        return sum(self.weights.values()) + self.lost

    def mass_of(self, interval: Interval) -> Mass:
        if self.grid is None:
            zero: Mass = Fraction(0) if self.exact else 0.0
            return self.weights.get(interval, zero)
        if interval is None:
            return self.empty_mass
        left, right = interval.left - self.origin, interval.right - self.origin
        return float(self.grid[left, right]) if 0 <= left and right < len(self.grid) else 0.0

    def _coverage(self, site: int) -> float:
        """Mass of the spans of a grid law that contain ``site``."""
        if self._cover is None:
            # The diagonal of the dominance sums: acc[k, k] sums the cells
            # with left <= k <= right.
            self._cover = np.diagonal(_dominance(self.grid)).copy()
        k = site - self.origin
        return float(self._cover[k]) if 0 <= k < len(self._cover) else 0.0


@dataclass(frozen=True)
class OccupancyBounds:
    """Certified bracket on the probability that ``site`` is occupied."""

    site: int
    lo: Mass
    hi: Mass


# ---------------------------------------------------------------------------
# contraction


def contraction_outcome_pmf(span: Span, rule: ContractionRule, exact: bool = False) -> dict[Interval, Mass]:
    """Exact one-state contraction law under ``rule``, by direct enumeration.

    Serves as the independent reference distribution for the samplers.
    """
    n = span.size
    out: dict[Interval, Mass] = {}
    if isinstance(rule, UniformContraction):
        total = count_nonempty_subintervals(n)
        unit: Mass = Fraction(1, total + 1) if exact else 1.0 / (total + 1)
        out[EMPTY] = unit
        for left in range(span.left, span.right + 1):
            for right in range(left, span.right + 1):
                out[Span(left, right)] = unit
        return out
    if isinstance(rule, SizeWeightedContraction):
        weights = size_pmf_weights(rule.size_pmf, n)
        probs = [Fraction(w) if exact else w for w in weights]
        out[EMPTY] = probs[0]
        for k in range(1, n + 1):
            slots = n - k + 1
            share = probs[k] / slots
            for left in range(span.left, span.left + slots):
                out[Span(left, left + k - 1)] = share
        return out
    if isinstance(rule, KillThenUniformContraction):
        death = rule.death_probability(rule.expansion_p, n)
        if not 0 <= death <= 1:
            raise ValueError(f"death probability {death} outside [0, 1]")
        death_mass: Mass = Fraction(death) if exact else float(death)
        total = count_nonempty_subintervals(n)
        survive = (1 - death_mass) / total
        out[EMPTY] = death_mass
        for left in range(span.left, span.right + 1):
            for right in range(left, span.right + 1):
                out[Span(left, right)] = survive
        return out
    if isinstance(rule, EndpointResampleContraction):
        denom = n * n
        for left in range(span.left, span.right + 1):
            for right in range(left, span.right + 1):
                count = 1 if left == right else 2
                out[Span(left, right)] = Fraction(count, denom) if exact else count / denom
        return out
    raise TypeError(f"unknown contraction rule {rule!r}")


def _contract_generic(dist: StateDist, rule: ContractionRule) -> StateDist:
    zero: Mass = Fraction(0) if dist.exact else 0.0
    out: dict[Interval, Mass] = {}
    for interval, weight in dist.weights.items():
        if interval is None:
            out[EMPTY] = out.get(EMPTY, zero) + weight
            continue
        for outcome, prob in contraction_outcome_pmf(interval, rule, dist.exact).items():
            out[outcome] = out.get(outcome, zero) + weight * prob
    return StateDist(out, dist.lost, dist.exact)


# ---------------------------------------------------------------------------
# the float grid


def _zeros(extent: int) -> np.ndarray:
    """An ``extent`` x ``extent`` grid of zeros; refused past the cell limit."""
    if extent * extent > _GRID_CELL_LIMIT:
        raise ValueError(
            f"a float law of extent {extent} needs a {extent}x{extent} grid, "
            f"over the limit of {_GRID_CELL_LIMIT} cells"
        )
    return np.zeros((extent, extent))


def _grid_of(dist: StateDist) -> Optional[tuple[np.ndarray, int, float]]:
    """(grid, origin, empty mass) of a float law; None if it holds no span."""
    if dist.grid is not None:
        return dist.grid, dist.origin, dist.empty_mass
    spans = [(iv.left, iv.right, float(w)) for iv, w in dist.weights.items() if iv is not None]
    if not spans:
        return None
    lefts, rights, masses = (np.array(column) for column in zip(*spans))
    origin = int(lefts.min())
    grid = _zeros(int(rights.max()) - origin + 1)
    grid[lefts - origin, rights - origin] = masses
    return grid, origin, float(dist.weights.get(EMPTY, 0.0))


def _by_size(factor: np.ndarray) -> np.ndarray:
    """A read-only grid view whose cell (i, j) is ``factor[j - i]``, the
    factor of spans of size j - i + 1, and 0 below the diagonal."""
    extent = len(factor)
    line = np.concatenate([np.zeros(extent - 1), factor])
    return sliding_window_view(line, extent)[::-1]


def _dominance(share: np.ndarray) -> np.ndarray:
    """acc[a, b] = sum of share[i, j] over i <= a and j >= b, the cells
    whose span contains [a, b]."""
    acc = np.cumsum(share, axis=0)
    return np.flip(np.cumsum(np.flip(acc, axis=1), axis=1), axis=1)


def _grid_factors(rule: ContractionRule, sizes: np.ndarray) -> Optional[tuple]:
    """Per-size factors of a contraction on the grid; None for a rule that
    has none.

    For each size n in ``sizes``: the share of a source's mass that each of
    its nonempty sub-intervals receives, the share that dies (None when none
    does), and a factor on every outcome of size n.
    """
    if isinstance(rule, UniformContraction):
        unit = 1.0 / (sizes * (sizes + 1) // 2 + 1)
        return unit, unit, np.ones(len(sizes))
    if isinstance(rule, KillThenUniformContraction):
        death = np.array([float(rule.death_probability(rule.expansion_p, n)) for n in sizes.tolist()])
        bad = np.flatnonzero(~((death >= 0) & (death <= 1)))
        if bad.size:
            raise ValueError(f"death probability {death[bad[0]]} outside [0, 1]")
        return (1.0 - death) / (sizes * (sizes + 1) // 2), death, np.ones(len(sizes))
    if isinstance(rule, EndpointResampleContraction):
        # Both endpoints are drawn from n sites; an outcome [a, b] with a < b
        # comes from two ordered pairs of draws.
        return 1.0 / (sizes * sizes), None, np.where(sizes == 1, 1.0, 2.0)
    return None


def _contract_grid(grid: np.ndarray, empty_mass: float, factors: tuple) -> tuple[np.ndarray, float]:
    share, death, outcome = factors
    out = _dominance(grid * _by_size(share)) * _by_size(outcome)
    if death is not None:
        empty_mass += float(np.einsum("ij,ij->", grid, _by_size(death)))
    return out, empty_mass


def _geometric_sum(s: np.ndarray, x: np.ndarray, p: float, terms: int, axis: int) -> None:
    """Fill ``s`` with the sum over a < terms of p**a times ``x`` moved a
    cells toward higher indices along ``axis``.

    The sum is built by doubling: S_2c = S_c + p**c S_c moved c cells, and
    S_c+1 = S_c + p**c x moved c cells.  That is about 2 log2(terms) passes,
    all adding positive terms, so a cell no term reaches stays exactly 0.
    ``s`` is all zero and has room for x.shape[axis] + terms - 1 cells
    along ``axis``.
    """

    def cut(start: int, stop: int) -> tuple[slice, ...]:
        return (slice(None),) * axis + (slice(start, stop),)

    n = x.shape[axis]
    s[cut(0, n)] = x
    c = 1
    for bit in bin(terms)[3:]:
        s[cut(c, n + 2 * c - 1)] += p**c * s[cut(0, n + c - 1)]
        c *= 2
        if bit == "1":
            s[cut(c, n + c)] += p**c * x
            c += 1


def _expand_grid(grid: np.ndarray, p: float, n_max: int) -> tuple[np.ndarray, int, float]:
    """Returns (expanded grid, origin shift, lost increment).

    Each endpoint moves out by a geometric amount truncated at ``n_max``,
    the left one first, then the right one.
    """
    kernel = (1.0 - p) * p ** np.arange(n_max + 1)
    retained = float(kernel.sum())
    size = len(grid)
    out = _zeros(size + 2 * n_max)
    # Rows hold left endpoints, which move to lower rows: up the reversed rows.
    left = out[: size + n_max, n_max : n_max + size]
    _geometric_sum(left[::-1], (1.0 - p) ** 2 * grid[::-1], p, n_max + 1, axis=0)
    # Columns hold right endpoints, which move to higher columns.
    _geometric_sum(out[: size + n_max, n_max:], left.copy(), p, n_max + 1, axis=1)
    live = float(grid.sum())
    return out, n_max, live * (1.0 - retained * retained)


def contraction_pushforward(dist: StateDist, rule: ContractionRule) -> StateDist:
    """Exact mixture over all contraction outcomes of every source state."""
    # A rational law, or a rule without grid factors, stays on the dict.
    if dist.exact or _grid_factors(rule, np.arange(1, 1)) is None:
        return _contract_generic(dist, rule)
    packed = _grid_of(dist)
    if packed is None:
        return StateDist(dict(dist.weights), dist.lost, dist.exact)
    grid, origin, empty_mass = packed
    grid, empty_mass = _contract_grid(grid, empty_mass, _grid_factors(rule, np.arange(1, len(grid) + 1)))
    return StateDist.on_grid(grid, origin, empty_mass, float(dist.lost))


def expansion_pushforward(dist: StateDist, p, policy: TruncationPolicy) -> StateDist:
    """Convolve every span with two truncated geometrics; track the tails."""
    validate_expansion_param(p)
    n_max = policy.n_max
    if not dist.exact:
        packed = _grid_of(dist)
        if packed is None:
            return StateDist(dict(dist.weights), dist.lost, dist.exact)
        grid, origin, empty_mass = packed
        grid, shift, lost_inc = _expand_grid(grid, float(p), n_max)
        return StateDist.on_grid(grid, origin - shift, empty_mass, float(dist.lost) + lost_inc)
    p = Fraction(p)
    kernel = [(1 - p) * p**a for a in range(n_max + 1)]
    retained_sq = (1 - p ** (n_max + 1)) ** 2
    zero = Fraction(0)
    out: dict[Interval, Mass] = {}
    lost = dist.lost
    # One side at a time: the left endpoint moves into (left, right) pairs,
    # then the right endpoint of each pair moves.
    moved: dict[tuple[int, int], Mass] = {}
    for interval, weight in dist.weights.items():
        if interval is None:
            out[EMPTY] = out.get(EMPTY, zero) + weight
            continue
        lost += weight * (1 - retained_sq)
        for a, qa in enumerate(kernel):
            key = (interval.left - a, interval.right)
            moved[key] = moved.get(key, zero) + weight * qa
    for (left, right), weight in moved.items():
        for b, qb in enumerate(kernel):
            span = Span(left, right + b)
            out[span] = out.get(span, zero) + weight * qb
    return StateDist(out, lost, exact=True)


def evolve(
    initial: Interval,
    horizon: int,
    rule: ContractionRule = UNIFORM,
    p=0.5,
    policy: TruncationPolicy = TruncationPolicy(40),
    exact: bool = False,
) -> StateDist:
    """Law of the process after ``horizon`` steps from a point mass.

    ``lost`` is nondecreasing in the horizon and bounds the bracket width
    of every occupancy value.  A float law under a rule with a grid kernel
    moves onto the grid at the first step and stays there.
    """
    validate_expansion_param(p)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if exact:
        p = Fraction(p)
    dist = StateDist.point_mass(initial, exact=exact)
    for _ in range(horizon):
        dist = contraction_pushforward(dist, rule)
        dist = expansion_pushforward(dist, p, policy)
    return dist


# ---------------------------------------------------------------------------
# occupancy


def occupancy_bounds(dist: StateDist, site: int) -> OccupancyBounds:
    """lo = mass of spans containing ``site``; hi = lo + lost."""
    if dist.grid is not None:
        lo = dist._coverage(site)
        return OccupancyBounds(site, lo, lo + dist.lost)
    zero: Mass = Fraction(0) if dist.exact else 0.0
    lo = zero
    for interval, weight in dist.weights.items():
        if contains(interval, site):
            lo += weight
    return OccupancyBounds(site, lo, lo + dist.lost)


def occupancy_table(dist: StateDist, sites: Iterable[int]) -> list[OccupancyBounds]:
    """Occupancy brackets for many sites in one pass."""
    sites = list(sites)
    if dist.grid is not None or dist.exact or len(dist.weights) < 512:
        return [occupancy_bounds(dist, x) for x in sites]
    lefts = np.array([iv.left for iv in dist.weights if iv is not None])
    rights = np.array([iv.right for iv in dist.weights if iv is not None])
    masses = np.array([w for iv, w in dist.weights.items() if iv is not None])
    out = []
    for x in sites:
        lo = float(masses[(lefts <= x) & (x <= rights)].sum())
        out.append(OccupancyBounds(x, lo, lo + float(dist.lost)))
    return out


# ---------------------------------------------------------------------------
# exhaustive check of the coupled one-step transition


@dataclass(frozen=True)
class CouplingTransitionReport:
    """Worst-case gaps between the coupled one-step laws and the standard ones."""

    host: Span
    p: Fraction
    surface_len: int
    max_minus_discrepancy: Fraction
    max_plus_discrepancy: Fraction
    tail_bound: Fraction


def _max_gap(law: dict[Interval, Fraction], reference: dict[Interval, Fraction]) -> Fraction:
    keys = set(law) | set(reference)
    zero = Fraction(0)
    return max((abs(law.get(k, zero) - reference.get(k, zero)) for k in keys), default=zero)


def coupling_transition_check(host: Span, p, surface_len: int) -> CouplingTransitionReport:
    """Enumerate every coupled one-step transition from an antithetic pair.

    All contraction indices are crossed with all surface run lengths below
    ``surface_len``; the induced marginal laws are compared against the
    standard one-step law with the same truncation.  The minus marginal
    matches identically; the plus marginal can differ only by redistributed
    tail mass.
    """
    plus_host = antithetic_mirror(host)
    if classify_pair(host, plus_host) is not PairClass.ANTITHETIC:
        raise ValueError(f"host {host} does not sit in the antithetic class")
    if surface_len < 1:
        raise ValueError("surface_len must be >= 1")
    p = Fraction(p)
    validate_expansion_param(p)
    runs = surface_len  # run lengths 0..surface_len-1 are fully resolved
    kernel = [(1 - p) * p**a for a in range(runs)]
    policy = TruncationPolicy(runs - 1)
    oracle_minus = evolve(host, 1, UNIFORM, p, policy, exact=True)
    oracle_plus = evolve(plus_host, 1, UNIFORM, p, policy, exact=True)

    total = count_nonempty_subintervals(host.size)
    unit = Fraction(1, total + 1)
    zero = Fraction(0)
    minus_law: dict[Interval, Fraction] = {}
    plus_law: dict[Interval, Fraction] = {}

    def put(law: dict[Interval, Fraction], key: Interval, mass: Fraction) -> None:
        law[key] = law.get(key, zero) + mass

    for index in range(total + 1):
        tilde_minus = unrank_subinterval(host, index)
        tilde_plus = antithetic_image(host, tilde_minus)
        if tilde_minus is None:
            put(minus_law, EMPTY, unit)
            put(plus_law, EMPTY, unit)
            continue
        if tilde_plus == tilde_minus:
            # Shared expansion: one pair of draws applied to the common core.
            for a, qa in enumerate(kernel):
                for b, qb in enumerate(kernel):
                    outcome = Span(tilde_minus.left - a, tilde_minus.right + b)
                    put(minus_law, outcome, unit * qa * qb)
                    put(plus_law, outcome, unit * qa * qb)
            continue
        offset = right_offset(tilde_minus, tilde_plus)
        for n_right, q_right in enumerate(kernel):
            for n_left, q_left in enumerate(kernel):
                mass = unit * q_right * q_left
                _, m_left, m_right, p_left, p_right = coupled_expansion_amounts(
                    n_right, n_left, offset
                )
                put(minus_law, Span(tilde_minus.left - m_left, tilde_minus.right + m_right), mass)
                put(plus_law, Span(tilde_plus.left - p_left, tilde_plus.right + p_right), mass)

    enum_lost = 1 - sum(minus_law.values())
    tail_bound = enum_lost + oracle_minus.lost + oracle_plus.lost
    return CouplingTransitionReport(
        host=host,
        p=p,
        surface_len=surface_len,
        max_minus_discrepancy=_max_gap(minus_law, oracle_minus.weights),
        max_plus_discrepancy=_max_gap(plus_law, oracle_plus.weights),
        tail_bound=tail_bound,
    )
