"""numpy's side of :class:`~boxchain.stream.Stream`: its generator and the
checks and decodes of its vector draws.

``stream`` imports this module when a stream first needs numpy's
generator, so a process that only makes scalar draws never loads numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .stream import _MASK32, _count


def generator(seed: int, spawn_key: tuple[int, ...], skip: int) -> np.random.Generator:
    """numpy's generator for ``(seed, spawn_key)``, ``skip`` raw words on."""
    bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key))
    if skip:
        bits.advance(skip)
    return np.random.Generator(bits)


def integers_upto(gen: np.random.Generator, highs, size: int | None) -> np.ndarray:
    """numpy's ``integers(0, highs, size, endpoint=True)`` from ``gen``, for
    a checked ``size``: see :meth:`Stream.integers_upto`.

    ``highs`` is an integer array as it is, or a scalar read by
    ``operator.index``; anything else raises ``ValueError``.
    """
    if not isinstance(highs, np.ndarray):
        return gen.integers(0, _count("highs", highs), size=size, endpoint=True)
    if highs.dtype.kind not in "iu":
        raise ValueError(f"highs must be integers, got an array of {highs.dtype}")
    if (
        size is None and highs.dtype == np.int64 and highs.ndim == 1 and highs.size >= _REPLAY_FROM
        and highs.min() >= 1 and int(highs.max()) * highs.size < _REPLAY_TOTAL
    ):
        return _replay_bounded(gen, highs)
    return gen.integers(0, highs, size=size, endpoint=True)


# numpy's per-value call costs less than the replay below this many bounds:
# on a 2-vCPU x86-64 host with numpy 2.4, 7 µs against 11 µs at 10 bounds,
# 16 µs against 15 µs at 1,000 and 87-91 µs against 48 µs at 8,192.
_REPLAY_FROM = 1024
# The replay also needs the largest bound times the count below this: each
# rejected word costs it a pass over the rest of the array, and a word
# rejects with probability below (high + 1) / 2**32, so this keeps the
# expected rejections of one call below two.
_REPLAY_TOTAL = 1 << 33


def _replay_bounded(gen: np.random.Generator, highs: np.ndarray) -> np.ndarray:
    """numpy's ``integers(0, highs, endpoint=True)`` for a 1-D int64 array of
    bounds in [1, 2**32 - 2], in whole-array passes; the values and the
    generator's state after the call are numpy's.

    For such a bound numpy draws Lemire's way (Lemire 2019, "Fast Random
    Integer Generation in an Interval", ACM TOMACS 29(1)), one value at a
    time: it multiplies a 32-bit word by high + 1 in 64 bits and keeps the
    high word, unless the low word is below (2**32 - high - 1) % (high + 1),
    when it tries the next word.  Its words are the generator's
    ``next_uint32``, the one a uint32 fill reads, so one fill of a word per
    bound holds every word numpy reads up to its first rejection.  From a
    rejected bound on, each bound reads the word after the one it read, so
    the tail is redone with its words shifted by one and one more word
    drawn, until no word rejects.
    """
    excl = highs + 1
    excl32 = excl.astype(np.uint32)
    words = gen.integers(0, _MASK32, highs.size, dtype=np.uint32, endpoint=True)
    drawn = np.multiply(words, excl.view(np.uint64))
    start = 0
    while True:
        low = drawn[start:].astype(np.uint32)
        # numpy's threshold is below high + 1, so only these can reject.
        near = (low < excl32[start:]).nonzero()[0]
        if near.size:
            threshold = (_MASK32 - highs[start:].take(near)) % excl[start:].take(near)
            near = near[low.take(near) < threshold]
        if not near.size:
            break
        first = int(near[0])
        start += first
        more = gen.integers(0, _MASK32, 1, dtype=np.uint32, endpoint=True)
        words = np.concatenate((words[first + 1:], more))
        np.multiply(words, excl[start:].view(np.uint64), out=drawn[start:])
    drawn >>= 32
    return drawn.view(np.int64)


def _runs_at_half(u: np.ndarray) -> np.ndarray:
    """Geometric(1/2) failure counts from uniforms ``u`` in [0, 1), exactly as
    numpy draws them; ``u`` is overwritten and its buffer returned as int64.

    At success probability 1/2 numpy's ``random_geometric_search`` takes
    one ``next_double`` U, the same double ``Generator.random`` returns
    for the same generator state, and returns X = 1 + #{k >= 1 : U > S_k},
    where S_k = 1/2 + 1/4 + ... + 2**-k is accumulated in binary64.  Each
    S_k = 1 - 2**-k is exact for k <= 53, and S_54 rounds to 1.0, which no
    U reaches.  U is a multiple of 2**-53, so 1 - U is exact too, and
    U > S_k reads 1 - U < 2**-k.  Write 1 - U = f * 2**e with f in
    [1/2, 1), the binary exponent that ``np.frexp`` returns.  Then
    2**(e-1) <= 1 - U < 2**e, so 1 - U < 2**-k holds exactly for
    k <= -e, and the run X - 1 is -e when 1 - U < 1.  When U = 0, 1 - U
    is 1 = (1/2) * 2**1 and the run is 0, not -1.

    The exponent is read from the bit pattern: a double in (0, 1] with
    biased exponent field E has e = E - 1022, so the run is
    max(1022 - E, 0), which :data:`_RUN_BY_EXPONENT` tabulates.
    """
    np.subtract(1.0, u, out=u)
    runs = u.view(np.int64)
    runs >>= 52
    # In place, as a fresh array per pass costs twice the time on large
    # draws: ``take`` reads each exponent before it writes that slot, and
    # mode "clip" (every exponent is in range) skips the copy "raise" makes.
    return _RUN_BY_EXPONENT.take(runs, out=runs, mode="clip")


# The geometric(1/2) run of a uniform U, by the biased exponent field E of
# 1 - U; E = 1023 is U = 0, whose run is 0.
_RUN_BY_EXPONENT = np.maximum(1022 - np.arange(1024, dtype=np.int64), 0)

# numpy's ``random_geometric`` searches at a success probability of at least
# this double, the C literal 0.333333333333333333333333, and inverts below it.
_SEARCH_FROM = 0.333333333333333333333333


def geometric_runs(gen: np.random.Generator, p: float, size: int) -> np.ndarray:
    """numpy's ``geometric(1 - p, size) - 1`` from ``gen``, for a checked
    ``p`` in (0, 1): see :meth:`Stream.geometric_array`."""
    if p == 0.5:
        return _runs_at_half(gen.random(size))
    if 1.0 - p < _SEARCH_FROM:
        counts = gen.standard_exponential(size)
        counts /= -math.log1p(p - 1.0)
        runs = np.ceil(counts, out=counts).astype(np.int64)
    else:
        runs = gen.geometric(1.0 - p, size=size)  # already int64
    runs -= 1
    return runs
