"""numpy's side of :class:`~boxchain.stream.Stream`: its PCG64 bit generator
and the vector draws made on its raw words.

Each vector draw is the scalar draw's own definition applied to one raw
64-bit word per value, so it gives the values the scalar draws would give
on the same words.  numpy serves only ``SeedSequence``, PCG64's raw words
and array arithmetic: NEP 19 keeps a bit generator's raw words fixed across
numpy versions, which it does not promise for numpy's sampling methods.

``stream`` imports this module when a stream first needs numpy's bit
generator, for a vector draw or a second block of scalar draws, so a process
that makes only a block's worth of scalar draws never loads numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .stream import _count

_MAX64 = np.uint64(2**64 - 1)
_ONE = np.uint64(1)

# The largest bound of a bounded draw: a bound past it has more values than
# int64 holds.
_MAX_HIGH = 2**63 - 1

# A geometric run's quotient within this relative distance of an integer is
# recomputed with ``math.log``.  np.log differs from math.log in the last bit
# on about 0.35% of doubles with numpy 2.4.6 on AVX-512, which moves the
# quotient by a few ulps, far inside this margin.
_MARGIN = 2.0**-32


class Draws:
    """The vector draws on one PCG64 bit generator's raw words, each value
    read from the words that follow the last draw's."""

    __slots__ = ("bit_generator",)

    def __init__(self, bit_generator) -> None:
        self.bit_generator = bit_generator

    @classmethod
    def seeded(cls, seed: int, spawn_key: tuple[int, ...], skip: int) -> "Draws":
        """Draws on numpy's ``PCG64(SeedSequence(seed, spawn_key))``, ``skip``
        raw words on."""
        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key))
        if skip:
            bits.advance(skip)
        return cls(bits)

    def random(self, size: int) -> np.ndarray:
        """:meth:`Stream.random`'s float ``(w >> 11) * 2**-53`` of each of
        the next ``size`` words."""
        words = self.bit_generator.random_raw(size)
        words >>= 11
        # From int64, as numpy converts uint64 to float at half the speed.
        return words.view(np.int64) * 2.0**-53

    def integers_upto(self, highs, size: int | None) -> np.ndarray:
        """:meth:`Stream.randbelow`'s rule for n = high + 1 on one word w per
        value, for each of ``highs`` broadcast to a checked ``size``: w % n,
        unless w is at or past ``(2**64 // n) * n``.  The slots that reject
        their word draw again, in slot order, from the words that follow.

        ``highs`` is an integer array as it is, or a scalar read by
        ``operator.index``; anything else, or a bound outside
        [0, 2**63 - 1], raises ``ValueError``.
        """
        if isinstance(highs, np.ndarray):
            if highs.dtype.kind not in "iu":
                raise ValueError(f"highs must be integers, got an array of {highs.dtype}")
        else:
            highs = _count("highs", highs)
            if not 0 <= highs <= _MAX_HIGH:
                raise ValueError(f"highs must lie in [0, 2**63 - 1], got {highs}")
        if size is not None:
            highs = np.broadcast_to(highs, size)
        n = np.array(highs, np.uint64)
        shape = n.shape
        n = n.reshape(-1)
        high = int(n.max()) if n.size else 0
        # A negative bound casts past 2**63 - 1 too.
        if high > _MAX_HIGH:
            bad = np.asarray(highs).reshape(-1)[n > np.uint64(_MAX_HIGH)][0]
            raise ValueError(f"highs must lie in [0, 2**63 - 1], got {bad}")
        n += _ONE
        # Every rejected word lies past 2**64 - 1 - n for its n, so past
        # this one cut for the largest n.
        cut = np.uint64(2**64 - 2 - high)
        words = self.bit_generator.random_raw(n.size)
        redo = _rejected(words, n, cut)
        while redo.size:
            more = self.bit_generator.random_raw(redo.size)
            words[redo] = more
            redo = redo[_rejected(more, n.take(redo), cut)]
        words %= n
        # ``[()]`` gives a scalar bound with no size its one value as a numpy
        # scalar, and leaves an array as it is.
        return words.view(np.int64).reshape(shape)[()]

    def geometric_runs(self, p: float, size: int) -> np.ndarray:
        """:meth:`Stream.geometric`'s run ``int(log(1 - u) / log(p))`` from the
        float u of each of the next ``size`` words, 0 when u = 0, for a
        checked ``p`` in (0, 1); as int64."""
        words = self.bit_generator.random_raw(size)
        if p == 0.5:
            # 1 - u is (k + 1) * 2**-53 for k = (~w) >> 11, so the run is
            # 53 - bit_length(k).  k's double is exact, and its exponent field
            # is bit_length(k) + 1022, or 0 when k = 0 (run 53).
            np.invert(words, out=words)
            words >>= 11
            runs = words.view(np.int64).astype(np.float64).view(np.int64)
            runs >>= 52
            np.subtract(1075, runs, out=runs)
            return np.minimum(runs, 53, out=runs)
        log_p = math.log(p)
        words >>= 11
        quotients = words.view(np.int64) * -2.0**-53
        quotients += 1.0  # 1 - u, exactly
        np.log(quotients, out=quotients)
        quotients /= log_p
        runs = (quotients * (1.0 + _MARGIN)).astype(np.int64)
        # np.log may round the other way from math.log, so a quotient within
        # the margin of an integer, the one whose truncation the margin
        # moves, could truncate either way: redo it as the scalar draw does.
        quotients *= 1.0 - _MARGIN
        for i in (runs > quotients).nonzero()[0].tolist():
            runs[i] = int(math.log(1.0 - int(words[i]) * 2.0**-53) / log_p)
        return runs


def _rejected(words, n, cut):
    """The positions of the ``words`` at or past randbelow's threshold
    ``(2**64 // n) * n`` for their bounds ``n``, uint64 arrays alike.

    The threshold is 2**64 - 2**64 % n, and 2**64 % n = (2**64 - n) % n is
    below n, so only a word past 2**64 - 1 - n can reach it.  ``cut`` is
    at most the least of those, 2**64 - 1 - max n; only the words past it
    are divided.
    """
    near = (words > cut).nonzero()[0]
    if near.size:
        bounds = n.take(near)
        near = near[words.take(near) > _MAX64 - (_MAX64 - bounds + _ONE) % bounds]
    return near
