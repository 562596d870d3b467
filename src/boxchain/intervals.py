"""Integer-interval states and their contract/expand Markov dynamics.

One step of the process replaces the current interval by a random
sub-interval (possibly the empty set, which is absorbing) and then pushes
the surviving endpoints outward by independent geometric amounts.  Several
contraction rules are supported; the expansion is always geometric.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from numbers import Rational
from typing import Callable, Optional, Union

from . import _EXPORTS
from .stream import Stream, _in_open_unit

__all__ = _EXPORTS["intervals"]


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """A nonempty integer interval {left, ..., right}.

    An end equal to an integer is stored as that int, and any other value
    raises ``ValueError``, as a site does.
    """

    left: int
    right: int

    def __post_init__(self) -> None:
        # Two ints skip the conversion: the oracle builds a Span per cell.
        if type(self.left) is not int or type(self.right) is not int:
            object.__setattr__(self, "left", _integral(self.left, "span left end"))
            object.__setattr__(self, "right", _integral(self.right, "span right end"))
        if self.left > self.right:
            raise ValueError(f"span requires left <= right, got [{self.left}, {self.right}]")

    @property
    def size(self) -> int:
        return self.right - self.left + 1

    def __contains__(self, site: int) -> bool:
        return self.left <= site <= self.right

    def __repr__(self) -> str:
        return f"Span({self.left}, {self.right})"


# The absorbed empty state is encoded structurally as None, never as a
# numeric sentinel.
Interval = Optional[Span]
EMPTY: Interval = None


def size_of(interval: Interval) -> int:
    return 0 if interval is None else interval.size


def validate_expansion_param(p) -> None:
    """Expansion parameters must lie strictly between 0 and 1."""
    _in_open_unit("expansion parameter", p)


def _integral(value, what: str) -> int:
    """``value`` as an int; a value that is not an integer raises ValueError."""
    try:
        number = int(value)
        if number == value:
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _at_least(what: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``: a count of steps, runs or
    sites, read once where a public routine takes it.  A value that is not
    an integer, or one below ``least``, raises ValueError naming ``what``."""
    number = _integral(value, what)
    if number < least:
        raise ValueError(f"{what} must be >= {least}, got {value!r}")
    return number


# ---------------------------------------------------------------------------
# contraction rules


def uniform_death_probability(n: int) -> Fraction:
    """Death weight that reproduces the uniform rule: one slot out of K+1,
    the exact ``Fraction(1, K + 1)``."""
    return Fraction(1, n * (n + 1) // 2 + 1)


def _exact(value) -> Fraction:
    """A rule's callable value in exact arithmetic: the ``Fraction`` a
    ``Rational`` value is, and for any other value its float value's, for
    which the result is then certified."""
    return Fraction(value) if isinstance(value, Rational) else Fraction(float(value))


@dataclass(frozen=True)
class UniformContraction:
    """Equal mass on every sub-interval of the current state, empty included."""


@dataclass(frozen=True)
class SizeWeightedContraction:
    """Draw the new size k from ``size_pmf(k, n)``, then place it uniformly.

    ``size_pmf`` must be a pmf over k = 0..n for every n >= 1; k = 0 maps to
    the empty set.  Its share depends on both the source and the outcome
    size, so the oracle contracts it on the grid as a sum of one term per
    outcome size k, each with the share ``pmf(k, n) / (n - k + 1)`` per
    source size n; the oracle evaluates the pmf at every size up to its
    grid's extent.  Every reader takes the pmf through ``pmf_at``.
    """

    size_pmf: Callable[[int, int], float]

    def pmf_at(self, n: int, exact: bool = False) -> list:
        """``size_pmf(k, n)`` over k = 0..n, each value read once: floats,
        or when ``exact`` the ``Fraction``s of ``_exact``, so a float pmf is
        certified for its float values, and a pmf of ``Rational``s is
        certified as given and must sum to exactly 1, so that it conserves
        mass exactly.  A negative or NaN weight, or a sum more than 1e-9
        from 1, raises ``ValueError``, as does an inexact ``Rational`` sum
        when ``exact``."""
        values = [self.size_pmf(k, n) for k in range(n + 1)]
        weights = [float(v) for v in values]
        # ``not w >= 0`` also catches NaN, which fails every comparison.
        if any(not w >= 0 for w in weights):
            raise ValueError(f"size pmf has negative or NaN weights for n={n}")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"size pmf sums to {total} over k=0..{n}, expected 1")
        if not exact:
            return weights
        fractions = [_exact(v) for v in values]
        if all(isinstance(v, Rational) for v in values) and sum(fractions) != 1:
            raise ValueError(f"size pmf sums to {sum(fractions)} over k=0..{n}, expected exactly 1")
        return fractions


@dataclass(frozen=True)
class KillThenUniformContraction:
    """Die with probability ``death_probability(n)``, else uniform over the
    nonempty sub-intervals.

    Every reader takes the death probability through ``death_at``; the
    default callable's ``Fraction`` makes the rational kill law exactly the
    uniform one.
    """

    death_probability: Callable[[int], float] = uniform_death_probability

    def death_at(self, n: int, exact: bool = False):
        """``death_probability(n)`` as a float, or when ``exact`` as the
        ``Fraction`` of ``_exact``; a value outside [0, 1] (NaN included)
        raises ``ValueError``.  The float read converts first, so the
        sampler's per-step check compares floats."""
        death = self.death_probability(n)
        if not exact:
            death = float(death)
        if not 0 <= death <= 1:
            raise ValueError(f"death probability {death} outside [0, 1]")
        return _exact(death) if exact else death


@dataclass(frozen=True)
class EndpointResampleContraction:
    """Resample both endpoints i.i.d. uniformly (with replacement) from the
    current sites; the result spans the two draws and is never empty."""


ContractionRule = Union[
    UniformContraction,
    SizeWeightedContraction,
    KillThenUniformContraction,
    EndpointResampleContraction,
]

UNIFORM = UniformContraction()


# ---------------------------------------------------------------------------
# elementary operations


def geometric_pmf(p, n: int):
    """P(N = n) = (1 - p) * p**n for n >= 0.

    Exact when ``p`` is a Fraction.
    """
    validate_expansion_param(p)
    return (1 - p) * p ** _at_least("n", n, 0)


def geometric_sample(p: float, stream: Stream) -> int:
    """One draw with pmf (1 - p) * p**n; consumes a single uniform."""
    validate_expansion_param(p)
    return stream.geometric(p)


def count_nonempty_subintervals(n: int) -> int:
    """Number of nonempty integer sub-intervals of an interval of size n."""
    return _subinterval_count(_at_least("n", n, 1))


def _subinterval_count(n: int) -> int:
    """:func:`count_nonempty_subintervals` of a size already read, such as
    a span's: the draws count on every step and skip the reader."""
    return n * (n + 1) // 2


def _offsets_from_rank(n: int, i0: int) -> tuple[int, int]:
    """Decode rank i0 in [0, n(n+1)/2) to (left, right) offsets, ordered by
    (left, right).

    Counted from the last one, r = T(n) - 1 - i0 with T(m) = m(m+1)/2, and
    the block with left end n-1-k holds r in [T(k), T(k+1)), where 8r + 1
    lies in [(2k+1)^2, (2k+3)^2).  So k = (isqrt(8r + 1) - 1) // 2, exact
    in integers of any size.
    """
    r = n * (n + 1) // 2 - 1 - i0
    k = (isqrt(8 * r + 1) - 1) // 2
    return n - 1 - k, n - 1 - (r - k * (k + 1) // 2)


def _sub_spans(spans: tuple[Span, ...], rank: int) -> tuple[Span, ...]:
    """The nonempty sub-box of rank ``rank`` in [0, T(n_1)...T(n_d)) of the
    box of ``spans``: mixed radix, last axis fastest, each axis's digit
    decoded by :func:`_offsets_from_rank`.  Unchecked: every caller has
    drawn the rank in range or checked it."""
    out = []
    for span in spans[::-1]:
        n = span.size
        rank, digit = divmod(rank, _subinterval_count(n))
        a, b = _offsets_from_rank(n, digit)
        out.append(Span(span.left + a, span.left + b))
    out.reverse()
    return tuple(out)


def unrank_subinterval(host: Span, index: int) -> Interval:
    """Index 0 is the empty set; indices 1..n(n+1)/2 enumerate the nonempty
    sub-intervals of ``host`` sorted by (left, right), decoded by
    :func:`_sub_spans` once the index is checked."""
    if host is None:
        raise ValueError("unrank_subinterval requires a nonempty host")
    total = _subinterval_count(host.size)
    index = _integral(index, "index")
    if not 0 <= index <= total:
        raise ValueError(f"index {index} out of range 0..{total} for host {host}")
    return EMPTY if index == 0 else _sub_spans((host,), index - 1)[0]


def rank_subinterval(host: Span, interval: Interval) -> int:
    """Inverse of :func:`unrank_subinterval`."""
    if host is None:
        raise ValueError("rank_subinterval requires a nonempty host")
    if interval is None:
        return 0
    n = host.size
    a = interval.left - host.left
    b = interval.right - host.left
    if not 0 <= a <= b <= n - 1:
        raise ValueError(f"{interval} is not a sub-interval of {host}")
    cum = a * n - a * (a - 1) // 2
    return cum + (b - a) + 1


def _draw_size(rule: SizeWeightedContraction, n: int, stream: Stream) -> int:
    weights = rule.pmf_at(n)
    u = stream.random()
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w
        if u < acc:
            return k
    return n


def contract(state: Interval, rule: ContractionRule, stream: Stream) -> Interval:
    """One contraction phase under ``rule``; the empty state is absorbing."""
    if state is None:
        return EMPTY
    n = state.size
    if isinstance(rule, UniformContraction):
        rank = stream.randbelow(_subinterval_count(n) + 1)
        return EMPTY if rank == 0 else _sub_spans((state,), rank - 1)[0]
    if isinstance(rule, SizeWeightedContraction):
        k = _draw_size(rule, n, stream)
        if k == 0:
            return EMPTY
        left = state.left + stream.randbelow(n - k + 1)
        return Span(left, left + k - 1)
    if isinstance(rule, KillThenUniformContraction):
        death = rule.death_at(n)
        if stream.random() < death:
            return EMPTY
        return _sub_spans((state,), stream.randbelow(_subinterval_count(n)))[0]
    if isinstance(rule, EndpointResampleContraction):
        u = state.left + stream.randbelow(n)
        v = state.left + stream.randbelow(n)
        return Span(min(u, v), max(u, v))
    raise TypeError(f"unknown contraction rule {rule!r}")


def expand(core: Interval, p: float, stream: Stream) -> Interval:
    """Push both endpoints outward by independent geometric(p) amounts.

    Draw order is left then right.
    """
    validate_expansion_param(p)
    if core is None:
        return EMPTY
    grow_left = stream.geometric(p)
    grow_right = stream.geometric(p)
    return Span(core.left - grow_left, core.right + grow_right)


def step(state: Interval, rule: ContractionRule, p: float, stream: Stream) -> Interval:
    """One full transition: contraction followed by expansion."""
    return expand(contract(state, rule, stream), p, stream)


def simulate_path(
    initial: Interval,
    horizon: int,
    rule: ContractionRule,
    p: float,
    stream: Stream,
) -> list[Interval]:
    """States at times 0..horizon, starting from ``initial``."""
    return _path(initial, _at_least("horizon", horizon, 0), lambda state: step(state, rule, p, stream))


def _path(initial, horizon: int, step: Callable):
    """States at times 0..horizon, ``step`` taking each to the next: the
    loop of the interval, box and coupled paths."""
    path = [initial]
    for _ in range(horizon):
        path.append(step(path[-1]))
    return path
