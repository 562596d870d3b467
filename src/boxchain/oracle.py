"""Exact propagation of the interval process law with certified truncation.

The full state distribution (a finitely supported map from intervals to
mass) is pushed through the contraction and expansion kernels.  The
contraction kernel is finite, so it is exact; the expansion kernel has
unbounded geometric tails, so shifts beyond ``n_max`` per side are dropped
and their probability is accumulated in ``lost``.  Every reported
occupancy value then becomes a certified bracket [lo, lo + lost].

Two arithmetic modes are supported, and both hold the law on an
upper-triangular grid of (left, right) endpoints: 64-bit floats for large
sweeps, and exact rationals, as integer numerators over one common
denominator, where mass conservation holds identically.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import repeat
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _EXPORTS
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
    _at_least,
    _integral,
    count_nonempty_subintervals,
    validate_expansion_param,
)

__all__ = _EXPORTS["oracle"]

Mass = Union[float, Fraction]

# A grid is refused past this many bytes: 8 a cell for a float grid, and a
# pointer and a Python int of bits(D)/8 bytes plus its header a cell for a
# rational one, D being the common denominator that bounds every numerator.
# An expansion holds one float grid of its output size and temporaries of a
# block of rows or columns, beside its input: tracemalloc reads its peak at
# 1.08-1.18 times its output (extents 241-961), and a contraction's at 1.1-1.5
# times its grid, so one at the limit peaks near 1 GiB with its input.  A
# rational grid's count takes every cell as nonzero: a law's upper-triangular
# grid holds about half of it, and an expansion peaks at 0.7-1.7 times it
# (tracemalloc, extents 61-481), so one at the limit peaks near 1 GiB.  No
# read of a law holds more than a slab of rows beside its grid.
_GRID_BYTES = 2**29
_INT_HEADER_BYTES = 28
# The passes over a grid sweep its upper triangle, where every law's mass
# lies, in blocks of this many rows or columns (the expansion's of half as
# many); the coverage holds one slab of this many rows and their run of
# column sums, 0.5 MiB at extent 961.
_BLOCK = 64


@dataclass(frozen=True)
class TruncationPolicy:
    """Retain geometric shifts 0..n_max per side per expansion step."""

    n_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_max", _at_least("n_max", self.n_max, 0))

    def per_step_loss_bound(self, p: float) -> float:
        """Mass discarded per expansion step is at most this."""
        return 1.0 - (1.0 - float(p) ** (self.n_max + 1)) ** 2


@dataclass(init=False, repr=False, eq=False)
class StateDist:
    """Finitely supported distribution over intervals plus tracked lost mass.

    A law holds one state, its upper-triangular grid: ``grid[i, j]`` is the
    mass of ``Span(origin + i, origin + j)`` and ``empty_mass`` that of the
    empty state.  A law given as a dict is packed onto its grid when it is
    built; a caller with a grid builds its law by ``on_grid``, which checks
    the grid, and the oracle's own steps, whose grids hold no mass below
    the diagonal, skip that check.  A law with no span packs to a 0x0
    grid, and one whose grid would pass the size limit raises
    ``ValueError`` there.  On a rational law (``denom``
    set) the grid is an object array of Python ints and ``empty_mass`` an
    int, all numerators over the common denominator ``denom``; ``lost`` and
    every mass read through the API, ``weights`` included, are
    ``Fraction``s.  ``weights`` is a read-only view of the grid, never
    built: ``dict(law.weights.items())`` makes a mutable copy, reading
    each cell once.

    The constructor's arguments are declared as dataclass fields, with no
    generated method, only so that ``dataclasses.replace`` makes a copy of
    a law with one of them changed.
    """

    weights: Mapping[Interval, Mass]
    lost: Mass
    exact: bool

    def __init__(self, weights: Mapping[Interval, Mass], lost: Mass, exact: bool = False) -> None:
        """Pack ``weights`` onto the grid: masses for a float law, numerators
        over the lcm of every mass's denominator for a rational one."""
        spans = [(iv.left, iv.right, w) for iv, w in weights.items() if iv is not None]
        lefts, rights, masses = zip(*spans) if spans else ((), (), ())
        # Python ints, and int64 only relative to the origin: so a law past
        # int64 packs, and one too wide for a grid reaches its size check.
        origin = min(lefts, default=0)
        extent = max(rights) - origin + 1 if spans else 0
        empty = weights.get(EMPTY, 0)
        if exact:
            values = [Fraction(m) for m in (*masses, empty, lost)]
            denom = lcm(*(v.denominator for v in values))
            grid = _zeros(extent, denom.bit_length())
            *masses, empty, lost = (v.numerator * (denom // v.denominator) for v in values)
        else:
            grid, denom = _zeros(extent), None
            masses, empty, lost = [float(m) for m in masses], float(empty), float(lost)
        grid[[left - origin for left in lefts], [right - origin for right in rights]] = masses
        self._hold(grid, origin, empty, lost, denom)

    @classmethod
    def on_grid(
        cls, grid: np.ndarray, origin: int, empty_mass: Mass, lost: Mass, denom: Optional[int] = None
    ) -> "StateDist":
        """A law held as its endpoint grid: float masses, or with ``denom``
        integer numerators (grid, empty mass and lost) over it.  The grid
        must be square with no mass below its diagonal, where a span's
        right end would lie left of its left end (every pass over a grid
        sweeps only its upper triangle); otherwise ``ValueError``."""
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError(f"a law's grid must be square, got shape {grid.shape}")
        for r0 in range(0, len(grid), _BLOCK):
            # Row r0 + i of the block holds mass below the diagonal in its
            # columns j <= i + r0 - 1.
            if np.tril(grid[r0 : r0 + _BLOCK, : r0 + _BLOCK], r0 - 1).any():
                raise ValueError("a law's grid holds mass below its diagonal, where no span lies")
        return cls._held(grid, origin, empty_mass, lost, denom)

    @classmethod
    def _held(cls, grid: np.ndarray, origin: int, empty_units, lost_units, denom: Optional[int]) -> "StateDist":
        dist = cls.__new__(cls)  # no dict to pack, so ``__init__`` is skipped
        dist._hold(grid, origin, empty_units, lost_units, denom)
        return dist

    def _hold(self, grid: np.ndarray, origin: int, empty_units, lost_units, denom: Optional[int]) -> None:
        self.grid, self.origin, self.denom = grid, origin, denom
        self.empty_mass, self._lost_units = empty_units, lost_units
        self.exact = denom is not None
        self.lost = self._mass(lost_units)

    @property
    def weights(self) -> Mapping[Interval, Mass]:
        """The law as a read-only ``{Span: mass}`` view of the grid: ``EMPTY``
        first if its mass is positive, then every nonzero cell in row-major
        order, read a row at a time and never built.  An edit
        raises ``TypeError``."""
        return _Weights(self)

    @classmethod
    def point_mass(cls, interval: Interval, exact: bool = False) -> "StateDist":
        one: Mass = Fraction(1) if exact else 1.0
        zero: Mass = Fraction(0) if exact else 0.0
        return cls({interval: one}, zero, exact)

    def _step(self, grid: np.ndarray, origin: int, scale: int, empty_units, lost_units) -> "StateDist":
        """The law a step makes of this one, its units over this law's
        denominator times ``scale``; a float law's units are Python floats."""
        if self.denom is None:
            return StateDist._held(grid, origin, float(empty_units), float(lost_units), None)
        return StateDist._held(grid, origin, empty_units, lost_units, self.denom * scale)

    def _mass(self, units) -> Mass:
        """The mass of ``units`` grid units."""
        return float(units) if self.denom is None else Fraction(units, self.denom)

    def _cells(self) -> Iterator[tuple[Iterator[int], Iterator[int], Iterator[Mass]]]:
        """Left ends, right ends and masses of the nonzero cells, in
        row-major order, which is sorted by (left, right): one row at a
        time, its one left end repeated, its right ends and masses each
        listed only when first read.  So a reader holds Python objects for
        one row, and only those it reads, never for the whole support."""
        to_mass = None if self.denom is None else self._mass
        for r in range(len(self.grid)):
            row = self.grid[r, r:]
            cols = np.flatnonzero(row)
            if len(cols):
                left = self.origin + r
                yield repeat(left, len(cols)), _read(cols, left.__add__), _read(row[cols], to_mass)

    def span_rows(self) -> list[tuple[int, int, Mass]]:
        """``(left, right, mass)`` for every span with mass, sorted, read
        off the grid without building ``weights``."""
        return [row for cells in self._cells() for row in zip(*cells)]

    def total(self) -> Mass:
        return self._mass(self.grid.sum() + self.empty_mass + self._lost_units)

    def mass_of(self, interval: Interval) -> Mass:
        if interval is None:
            return self._mass(self.empty_mass)
        left, right = interval.left - self.origin, interval.right - self.origin
        return self._mass(self.grid[left, right] if 0 <= left and right < len(self.grid) else 0)

    def support(self) -> tuple[int, int]:
        """(number of spans with mass, sites from the leftmost left end to
        the rightmost right end), read off the grid."""
        rows = np.flatnonzero(self.grid.any(axis=1))
        if not len(rows):
            return 0, 0
        cols = np.flatnonzero(self.grid.any(axis=0))
        return int(np.count_nonzero(self.grid)), int(cols[-1] - rows[0]) + 1

    def common_denominator(self) -> Optional[int]:
        """The denominator a rational law's masses and ``lost`` share; None
        for a float law."""
        return self.denom

    @cached_property
    def _cover(self) -> np.ndarray:
        """cover[k]: the sum of the cells with left <= k <= right.

        The grid is swept in slabs of ``_BLOCK`` rows.  Row 0 of ``slab``
        holds the run, the column sums of every row above the slab; the
        cumsum down the slab continues them through its rows, and each row
        is then summed from the right end leftward to its diagonal cell.
        These are the additions of a cumsum down the whole grid followed by
        a reversed cumsum along each row, in the same order, so every float
        cell is the same to the bit.  Scratch holds ``_BLOCK`` + 1 rows.
        """
        grid, size = self.grid, len(self.grid)
        cover = np.zeros(size, dtype=grid.dtype)
        slab = np.zeros((_BLOCK + 1, size), dtype=grid.dtype)
        for r0 in range(0, size, _BLOCK):
            r1 = min(r0 + _BLOCK, size)
            rows = slab[: r1 - r0 + 1, r0:]  # a right end left of r0 covers no site from r0 on
            rows[1:] = grid[r0:r1, r0:]
            # A cumsum down the slab, a row add at a time: numpy's strided
            # accumulate down axis 0 takes about twice as long.
            for i in range(1, len(rows)):
                np.add(rows[i - 1], rows[i], out=rows[i])
            slab[0, r1:] = rows[-1, r1 - r0 :]  # the run past this slab's rows
            sums = rows[1:, ::-1]
            np.cumsum(sums, axis=1, out=sums)
            cover[r0:r1] = np.diagonal(rows[1:])
        return cover

    def _coverage(self, site: int) -> Mass:
        """Mass of the spans that contain ``site``."""
        k = site - self.origin
        return self._mass(self._cover[k] if 0 <= k < len(self._cover) else 0)


def _read(values: np.ndarray, convert: Optional[Callable]) -> Iterator:
    """``values`` as Python objects, passed through ``convert`` if given,
    listed on the first read."""
    listed = values.tolist()
    yield from listed if convert is None else map(convert, listed)


class _Weights(Mapping):
    """``StateDist.weights``: the mapping a dict of the law would be, with
    its keys in the same order, read off the grid and never built."""

    __slots__ = ("_law",)

    def __init__(self, law: StateDist) -> None:
        self._law = law

    def __getitem__(self, key) -> Mass:
        law = self._law
        if key is EMPTY:
            if law.empty_mass > 0:
                return law.mass_of(EMPTY)
        elif isinstance(key, Span):
            mass = law.mass_of(key)
            if mass:
                return mass
        raise KeyError(key)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._law.grid)) + (self._law.empty_mass > 0)

    def _rows(self) -> Iterator[tuple[Iterable[Interval], Iterable[Mass]]]:
        """Keys and masses a row at a time; a key is built only when it
        is read."""
        law = self._law
        if law.empty_mass > 0:
            yield [EMPTY], [law.mass_of(EMPTY)]
        for lefts, rights, masses in law._cells():
            yield map(Span, lefts, rights), masses

    def __iter__(self) -> Iterator[Interval]:
        for keys, _ in self._rows():
            yield from keys

    # The inherited views look every key up again; these read each row once.
    def values(self) -> ValuesView:
        return _Masses(self)

    def items(self) -> ItemsView:
        return _Items(self)


class _Masses(ValuesView):
    def __iter__(self) -> Iterator[Mass]:
        for _, masses in self._mapping._rows():
            yield from masses


class _Items(ItemsView):
    def __iter__(self) -> Iterator[tuple[Interval, Mass]]:
        for keys, masses in self._mapping._rows():
            yield from zip(keys, masses)


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

    Serves as the independent reference distribution for the samplers and
    the grid: each rule states its empty mass (None for the endpoint rule,
    which never empties) and the mass of each outcome by its size, from its
    own formulas, and one loop lists the sub-intervals in (left, right)
    order.
    """
    n = span.size
    one: Mass = Fraction(1) if exact else 1.0
    if isinstance(rule, UniformContraction):
        empty = one / (count_nonempty_subintervals(n) + 1)
        shares = [empty] * (n + 1)
    elif isinstance(rule, SizeWeightedContraction):
        probs = rule.pmf_at(n, exact)
        empty, shares = probs[0], [w / (n - k + 1) for k, w in enumerate(probs)]
    elif isinstance(rule, KillThenUniformContraction):
        empty = rule.death_at(n, exact)
        shares = [(1 - empty) / count_nonempty_subintervals(n)] * (n + 1)
    elif isinstance(rule, EndpointResampleContraction):
        # Both endpoints are drawn from n sites; an outcome [a, b] with a < b
        # comes from two ordered pairs of draws.
        empty, shares = None, [one * min(k, 2) / (n * n) for k in range(n + 1)]
    else:
        raise TypeError(f"unknown contraction rule {rule!r}")
    out: dict[Interval, Mass] = {} if empty is None else {EMPTY: empty}
    for left in range(span.left, span.right + 1):
        for right in range(left, span.right + 1):
            out[Span(left, right)] = shares[right - left + 1]
    return out


# ---------------------------------------------------------------------------
# the grid


def _check_grid(extent: int, bits: Optional[int] = None) -> None:
    """Refuse an ``extent`` x ``extent`` grid past ``_GRID_BYTES`` before
    anything of its size is allocated: a float grid, or with ``bits`` a
    rational one whose numerators may reach ``bits`` bits."""
    cell_bytes = 8 if bits is None else 8 + _INT_HEADER_BYTES + bits // 8
    if extent * extent * cell_bytes > _GRID_BYTES:
        kind = "float" if bits is None else "rational"
        raise ValueError(
            f"a {kind} law of extent {extent} needs a {extent}x{extent} grid of {cell_bytes}-byte "
            f"cells, over the limit of {_GRID_BYTES} bytes"
        )


def _zeros(extent: int, bits: Optional[int] = None) -> np.ndarray:
    """An ``extent`` x ``extent`` grid of zeros: floats, or with ``bits`` the
    Python int 0 in an object array; refused by ``_check_grid``."""
    _check_grid(extent, bits)
    return np.zeros((extent, extent), dtype=float if bits is None else object)


def _by_size(factor: np.ndarray) -> np.ndarray:
    """A read-only grid view whose cell (i, j) is ``factor[j - i]``, the
    factor of spans of size j - i + 1, and 0 below the diagonal."""
    extent = len(factor)
    line = np.concatenate([np.zeros(extent, dtype=factor.dtype), factor])
    return sliding_window_view(line, extent)[:0:-1]


def _dominance(grid: np.ndarray, share: np.ndarray, outcome: np.ndarray) -> np.ndarray:
    """acc[a, b] for a <= b: the sum of grid[i, j] share[j - i] over i <= a
    and j >= b, the cells whose span contains [a, b], times outcome[b - a];
    0 below the diagonal.

    Only the upper triangle is swept, in blocks of ``_BLOCK``: each block
    of columns is summed down to its last column's diagonal cell, then each
    block of rows leftward to its first row's.  Each kept cell takes the
    same sums in the same order as over the whole rectangle, so its value
    is the same.
    """
    size = len(grid)
    share, outcome = _by_size(share), _by_size(outcome)
    acc = np.zeros((size, size), dtype=grid.dtype)  # untouched pages are never faulted in
    for j0 in range(0, size, _BLOCK):
        cells = (slice(None, j0 + _BLOCK), slice(j0, j0 + _BLOCK))
        np.cumsum(grid[cells] * share[cells], axis=0, out=acc[cells])
    for a0 in range(0, size, _BLOCK):
        cells = (slice(a0, a0 + _BLOCK), slice(a0, None))
        rows = acc[cells]
        np.cumsum(rows[:, ::-1], axis=1, out=rows[:, ::-1])
        rows *= outcome[cells]
    return acc


def _death_mass(grid: np.ndarray, death: np.ndarray):
    """The sum of grid[i, j] death[j - i] over the upper triangle.

    Each row's sum starts at a multiple of ``_BLOCK`` columns, so the lanes
    of numpy's vectorised sum, and its rounding, are those of the whole
    row; the rows are then added in order, as ``np.einsum`` adds a whole
    grid's rows.  So a float sum is the same as over the whole rectangle.
    """
    death, total = _by_size(death), 0
    for r0 in range(0, len(grid), _BLOCK):
        cells = (slice(r0, r0 + _BLOCK), slice(r0, None))
        for row in np.einsum("ij,ij->i", grid[cells], death[cells]):
            total += row
    return total


def _grid_factors(rule: ContractionRule, sizes: np.ndarray, exact: bool = False) -> list[tuple]:
    """The terms whose sum is a contraction on the grid: one for every rule
    but the size-weighted one, which has one per outcome size.

    Each term holds, for each size n in ``sizes``: the share of a source's
    mass that each of its nonempty sub-intervals receives, the share that
    dies (None when none does), and an integer factor on every outcome of
    size n.  Floats, or ``Fraction``s in object arrays when ``exact``.
    """
    dtype, one = float, 1.0
    if exact:
        sizes = sizes.astype(object)
        dtype, one = object, Fraction(1)
    if isinstance(rule, UniformContraction):
        unit = one / (sizes * (sizes + 1) // 2 + 1)
        return [(unit, unit, np.ones(len(sizes), dtype))]
    if isinstance(rule, SizeWeightedContraction):
        # An outcome of size k takes pmf(k, n) / (n - k + 1) of a source of
        # size n >= k: one term per k, whose outcome factor keeps size k
        # only.  The deaths, pmf(0, n), ride on the first term.
        ns = sizes.tolist()
        probs = [rule.pmf_at(n, exact) for n in ns]
        terms = []
        for k in ns:
            share = np.array([w[k] / (n - k + 1) if n >= k else 0 for n, w in zip(ns, probs)], dtype)
            death = None if terms else np.array([w[0] for w in probs], dtype)
            terms.append((share, death, np.where(sizes == k, 1, 0).astype(dtype)))
        return terms
    if isinstance(rule, KillThenUniformContraction):
        death = np.array([rule.death_at(n, exact) for n in sizes.tolist()], dtype)
        return [((one - death) / (sizes * (sizes + 1) // 2), death, np.ones(len(sizes), dtype))]
    if isinstance(rule, EndpointResampleContraction):
        # Both endpoints are drawn from n sites; an outcome [a, b] with a < b
        # comes from two ordered pairs of draws.
        return [(one / (sizes * sizes), None, np.where(sizes == 1, 1, 2).astype(dtype))]
    raise TypeError(f"unknown contraction rule {rule!r}")


def _contract_grid(grid: np.ndarray, empty: Mass, terms: list[tuple]) -> tuple[np.ndarray, Mass]:
    out = None  # the first term's grid itself, so that one term costs no sum
    for share, death, outcome in terms:
        part = _dominance(grid, share, outcome)
        if out is None:
            out = part
        else:
            out += part  # in place, and dropped before the next term's grid
            del part
        if death is not None:
            empty += _death_mass(grid, death)
    return (np.zeros_like(grid) if out is None else out), empty


def _geometric_sum(x: np.ndarray, p, terms: int, den: Optional[int] = None) -> np.ndarray:
    """The sum over a < terms of p**a times ``x`` moved a rows down, in a
    new C-contiguous array of len(x) + terms - 1 rows.

    The sum is built by doubling: S_2c = S_c + p**c S_c moved c rows, and
    S_c+1 = S_c + p**c x moved c rows.  That is about 2 log2(terms) passes,
    all adding positive terms, so a cell no term reaches stays exactly 0.

    With ``den``, the integer ``p`` is the numerator of p/den and the sum
    is taken in homogeneous form, p**a den**(terms - 1 - a) times ``x``
    moved a rows: S_c is scaled by den**c before the doubling add and by
    den before the single one.
    """
    n = len(x)
    s = np.zeros((n + terms - 1, *x.shape[1:]), dtype=x.dtype)
    s[:n] = x
    c = 1
    for bit in bin(terms)[3:]:
        shifted = p**c * s[: n + c - 1]
        if den is not None:
            s[: n + c - 1] *= den**c
        s[c : n + 2 * c - 1] += shifted
        del shifted  # before the next, twice larger, temporary
        c *= 2
        if bit == "1":
            if den is not None:
                s[: n + c - 1] *= den
            s[c : n + c] += p**c * x
            c += 1
    return s


def _expand(grid: np.ndarray, p, n_max: int, denom: Optional[int]) -> tuple:
    """Returns (expanded grid, denominator factor, lost increment).

    Each endpoint moves out by a geometric amount truncated at ``n_max``,
    the left one first, then the right one; the origin moves down by
    ``n_max``.  A float law (``denom`` None) takes the kernel (1 - p) p**a
    and keeps the factor 1.  A rational law, for p = num/den, takes the
    kernel (den - num) num**a den**(n_max - a) over den**(n_max + 1),
    summed by ``_geometric_sum`` in homogeneous form, and its numerators
    are over its denominator times the factor den**(2 (n_max + 1)).

    Each block is summed in a compact buffer, its moving axis first, then
    stored into the grid: a sum in place on the grid's strided views would
    touch a page per row.  Each cell takes the same sums in the same order.
    """
    terms = n_max + 1
    size = len(grid)
    if denom is None:
        num, den, homogeneous = float(p), 1.0, None
        out = _zeros(size + 2 * n_max)
        scale, retained = 1, float(((1.0 - num) * num ** np.arange(terms)).sum())
    else:
        p = Fraction(p)
        num, den, homogeneous = p.numerator, p.denominator, p.denominator
        out = _zeros(size + 2 * n_max, denom.bit_length() + 2 * terms * den.bit_length())
        scale, retained = den ** (2 * terms), den**terms - num**terms
    # Blocks half as wide as the other passes': at 64 the buffers take the
    # peak to 1.16 times the output at extent 961, for no clear gain.
    block = _BLOCK // 2
    # Rows hold left endpoints, which move to lower rows: up the reversed
    # rows.  Column j holds mass in rows <= j only, so a block of columns
    # takes the rows down to its last column, and their n_max more images.
    left = out[: size + n_max, n_max : n_max + size]
    stay = (den - num) ** 2  # the kernel's factor 1 - p, once for each side
    for j0 in range(0, size, block):
        j1, cols = j0 + block, slice(j0, j0 + block)
        # The block is unnamed, so that the right pass holds none of it.
        left[: j1 + n_max, cols][::-1] = _geometric_sum(stay * grid[:j1, cols][::-1], num, terms, homogeneous)
    # Columns hold right endpoints, which move to higher columns: the buffer
    # holds a block of rows transposed.  Row r of the left pass holds mass
    # in columns >= r - n_max only.
    right = out[: size + n_max, n_max:]
    for r0 in range(0, size + n_max, block):
        cells = (slice(r0, r0 + block), slice(max(r0 - n_max, 0), None))
        right[cells] = _geometric_sum(left[cells].T.copy(), num, terms, homogeneous).T
    # A float kernel can sum past 1 by rounding; no step loses negative mass.
    return out, scale, max(grid.sum() * (scale - retained * retained), 0)


def contraction_pushforward(dist: StateDist, rule: ContractionRule) -> StateDist:
    """Exact mixture over all contraction outcomes of every source state.

    On a rational law the rational factors of every term are scaled to
    integers by the lcm L of their denominators, and every numerator and
    the common denominator gain the factor L.
    """
    terms = _grid_factors(rule, np.arange(1, len(dist.grid) + 1), dist.exact)
    scale = 1
    if dist.denom is not None:
        scale = lcm(*(f.denominator for term in terms for factor in term[:2] if factor is not None for f in factor))
        _check_grid(len(dist.grid), (dist.denom * scale).bit_length())

        def integers(factor):
            return None if factor is None else np.array([int(f * scale) for f in factor], dtype=object)

        terms = [(integers(share), integers(death), outcome) for share, death, outcome in terms]
    grid, empty = _contract_grid(dist.grid, dist.empty_mass * scale, terms)
    return dist._step(grid, dist.origin, scale, empty, dist._lost_units * scale)


def expansion_pushforward(dist: StateDist, p, policy: TruncationPolicy) -> StateDist:
    """Convolve every span with two truncated geometrics; track the tails."""
    validate_expansion_param(p)
    if not dist.grid.any():
        # No span has mass: nothing moves and nothing is lost, so the law
        # keeps its denominator and no zero grid is grown.
        return dist._step(dist.grid[:0, :0], dist.origin, 1, dist.empty_mass, dist._lost_units)
    grid, scale, lost_inc = _expand(dist.grid, p, policy.n_max, dist.denom)
    origin = dist.origin - policy.n_max
    return dist._step(grid, origin, scale, dist.empty_mass * scale, dist._lost_units * scale + lost_inc)


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
    of every occupancy value.
    """
    validate_expansion_param(p)
    horizon = _at_least("horizon", horizon, 0)
    if exact:
        p = Fraction(p)
    if isinstance(rule, SizeWeightedContraction):
        # Every step reads the pmf at every size up to its grid's extent, and
        # its values do not change: read each one once.
        rule = replace(rule, size_pmf=cache(rule.size_pmf))
    dist = StateDist.point_mass(initial, exact=exact)
    for _ in range(horizon):
        dist = contraction_pushforward(dist, rule)
        dist = expansion_pushforward(dist, p, policy)
    return dist


# ---------------------------------------------------------------------------
# occupancy


def occupancy_bounds(dist: StateDist, site: int) -> OccupancyBounds:
    """lo = mass of spans containing ``site``; hi = lo + lost.  A site equal
    to an integer is that integer, and any other value raises ValueError."""
    site = _integral(site, "site")
    lo = dist._coverage(site)
    return OccupancyBounds(site, lo, lo + dist.lost)


def occupancy_table(dist: StateDist, sites: Iterable[int]) -> list[OccupancyBounds]:
    """Occupancy brackets for many sites; the law's coverage of every site
    is one slab sweep over its grid, taken at the first read."""
    return [occupancy_bounds(dist, x) for x in sites]


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


class _ScriptedDraws:
    """One coupled step's draws, given in advance: ``randbelow`` returns the
    contraction rank, refusing one at or past its bound, then ``geometric``
    the left run and the right run.  A read out of that order, or a
    ``done`` with a draw unread, raises ``ValueError``."""

    def __init__(self, rank: int, left_run: int, right_run: int) -> None:
        self._draws = [right_run, left_run, rank]

    def randbelow(self, bound: int) -> int:
        if len(self._draws) != 3 or self._draws[-1] >= bound:
            raise ValueError(f"the scripted rank is not the step's first draw below {bound}")
        return self._draws.pop()

    def geometric(self, p) -> int:
        if not 0 < len(self._draws) < 3:
            raise ValueError("a run was read out of the scripted order")
        return self._draws.pop()

    def done(self) -> None:
        if self._draws:
            raise ValueError("the coupled step left a scripted draw unread")


def coupling_transition_check(host: Span, p, surface_len: int) -> CouplingTransitionReport:
    """Enumerate every coupled one-step transition from an antithetic pair.

    Every nonempty contraction rank is crossed with every pair of run
    lengths 0..surface_len-1, the runs the audit resolves, and each is
    stepped through :func:`coupled_step` itself, the step that
    :func:`run_coupled` runs; a step that reads its draws out of order, or
    leaves one unread, raises ``ValueError``.  The empty contraction puts
    its mass 1/(T+1) on the empty pair.  The induced marginal laws are
    compared against the standard one-step law with the same truncation.
    The minus marginal matches identically; the plus marginal can differ
    only by redistributed tail mass.
    """
    from .coupling import CoupledState, PairClass, antithetic_mirror, classify_pair, coupled_step

    plus_host = antithetic_mirror(host)
    if classify_pair(host, plus_host) is not PairClass.ANTITHETIC:
        raise ValueError(f"host {host} does not sit in the antithetic class")
    surface_len = _at_least("surface_len", surface_len, 1)
    p = Fraction(p)
    validate_expansion_param(p)
    kernel = [(1 - p) * p**a for a in range(surface_len)]
    policy = TruncationPolicy(surface_len - 1)
    oracle_minus = evolve(host, 1, UNIFORM, p, policy, exact=True)
    oracle_plus = evolve(plus_host, 1, UNIFORM, p, policy, exact=True)

    total = count_nonempty_subintervals(host.size)
    unit = Fraction(1, total + 1)
    state = CoupledState(host, plus_host, False)
    minus_law: dict[Interval, Fraction] = defaultdict(Fraction, {EMPTY: unit})
    plus_law: dict[Interval, Fraction] = defaultdict(Fraction, {EMPTY: unit})
    for rank in range(1, total + 1):
        for left_run, q_left in enumerate(kernel):
            for right_run, q_right in enumerate(kernel):
                draws = _ScriptedDraws(rank, left_run, right_run)
                after = coupled_step(state, p, draws)
                draws.done()
                minus_law[after.minus] += unit * q_left * q_right
                plus_law[after.plus] += unit * q_left * q_right

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
