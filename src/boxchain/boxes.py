"""Axis-aligned lattice boxes and their contract/expand dynamics in d >= 1.

The contraction draws one global index uniformly over all nonempty
sub-boxes plus a single empty slot.  Drawing per-axis sub-intervals
conditioned on joint non-emptiness would distort that measure, so the
decode goes through a mixed-radix split of a single draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _EXPORTS
from .intervals import (
    Span,
    _at_least,
    _integral,
    _subinterval_count,
    count_nonempty_subintervals,
    expand,
    unrank_subinterval,
    validate_expansion_param,
)
from .stream import Stream

__all__ = _EXPORTS["boxes"]


@dataclass(frozen=True, order=True, slots=True)
class Box:
    """A nonempty product of integer spans, one per axis."""

    spans: tuple[Span, ...]

    def __post_init__(self) -> None:
        if len(self.spans) < 1:
            raise ValueError("a box needs at least one axis")

    @property
    def dim(self) -> int:
        return len(self.spans)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(s.size for s in self.spans)

    def __contains__(self, point: Sequence[int]) -> bool:
        if len(point) != len(self.spans):
            raise ValueError(f"point {point} has wrong dimension for {self}")
        return all(x in span for x, span in zip(point, self.spans))


HyperRect = Optional[Box]
EMPTY_BOX: HyperRect = None


def unit_box(dim: int) -> Box:
    """The box {0}^dim."""
    return Box(tuple(Span(0, 0) for _ in range(_integral(dim, "dim"))))


def count_nonempty_subrects(sizes: Sequence[int]) -> int:
    """Product over axes of n_i (n_i + 1) / 2."""
    return math.prod(count_nonempty_subintervals(n) for n in sizes)


def contract_uniform(state: HyperRect, stream: Stream) -> HyperRect:
    """Uniform draw over all nonempty sub-boxes plus one empty outcome."""
    if state is None:
        return EMPTY_BOX
    axis_counts = [_subinterval_count(n) for n in state.sizes]
    index = stream.randbelow(math.prod(axis_counts) + 1)
    if index == 0:
        return EMPTY_BOX
    # Mixed-radix decode, last axis fastest.
    digits = []
    rem = index - 1
    for c in reversed(axis_counts):
        rem, digit = divmod(rem, c)
        digits.append(digit)
    digits.reverse()
    spans = tuple(
        unrank_subinterval(span, digit + 1) for span, digit in zip(state.spans, digits)
    )
    return Box(spans)


def expand_faces(core: HyperRect, p: float, stream: Stream) -> HyperRect:
    """Shift each of the 2d faces outward by an independent geometric(p):
    ``expand`` on each axis's span, so the draw order is axis by axis, low
    face then high face."""
    validate_expansion_param(p)
    if core is None:
        return EMPTY_BOX
    return Box(tuple(expand(span, p, stream) for span in core.spans))


def step_rect(state: HyperRect, p: float, stream: Stream) -> HyperRect:
    """One full transition: uniform contraction then face expansion."""
    return expand_faces(contract_uniform(state, stream), p, stream)


def simulate_path_rect(initial: HyperRect, horizon: int, p: float, stream: Stream) -> list[HyperRect]:
    """States at times 0..horizon, starting from ``initial``."""
    horizon = _at_least("horizon", horizon, 0)
    path = [initial]
    state = initial
    for _ in range(horizon):
        state = step_rect(state, p, stream)
        path.append(state)
    return path


def l1_norm(point: Sequence[int]) -> int:
    return sum(abs(int(x)) for x in point)


def l1_ball(radius: int, dim: int) -> list[tuple[int, ...]]:
    """The lattice points of L1 norm at most ``radius`` in ``dim``
    dimensions, in lexicographic order."""
    radius, dim = _integral(radius, "radius"), _at_least("dim", dim, 0)
    axis = range(-radius, radius + 1)
    return [point for point in itertools.product(axis, repeat=dim) if l1_norm(point) <= radius]
