"""numpy's side of :class:`~boxchain.stream.Stream`: its generator and the
checks and decodes of its vector draws.

``stream`` imports this module when a stream first needs numpy's
generator, so a process that only makes scalar draws never loads numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .stream import _count


def generator(seed: int, spawn_key: tuple[int, ...], skip: int) -> np.random.Generator:
    """numpy's generator for ``(seed, spawn_key)``, ``skip`` raw words on."""
    bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key))
    if skip:
        bits.advance(skip)
    return np.random.Generator(bits)


def bounds(highs):
    """Inclusive upper bounds as integers: an integer array as it is, a
    scalar read by ``operator.index``; anything else raises ``ValueError``."""
    if isinstance(highs, np.ndarray):
        if highs.dtype.kind not in "iu":
            raise ValueError(f"highs must be integers, got an array of {highs.dtype}")
        return highs
    return _count("highs", highs)


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
