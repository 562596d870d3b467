"""Deterministic pseudorandom streams with labeled substream derivation."""

from __future__ import annotations

import hashlib
import math
import operator

import numpy as np

from . import _EXPORTS

__all__ = _EXPORTS["stream"]

_BLOCK = 512
_WORD_MAX = (1 << 64) - 1


def _label_entropy(label: object) -> int:
    """Stable 64-bit key for a substream label (platform independent)."""
    data = f"{type(label).__name__}:{label!r}".encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


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


def _in_open_unit(what: str, value) -> None:
    """Refuse ``value`` unless 0 < value < 1, NaN included, with a
    ValueError naming ``what``: an expansion parameter, a confidence level
    or a significance."""
    if not 0 < value < 1:
        raise ValueError(f"{what} must lie in (0, 1), got {value!r}")


def _count(what: str, value) -> int:
    """A draw's size read as an integer, else ``ValueError`` naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _bounds(highs):
    """Inclusive upper bounds as integers: an integer array as it is, a
    scalar read by ``operator.index``; anything else raises ``ValueError``."""
    if isinstance(highs, np.ndarray):
        if highs.dtype.kind not in "iu":
            raise ValueError(f"highs must be integers, got an array of {highs.dtype}")
        return highs
    return _count("highs", highs)


class Stream:
    """A seeded PCG64 stream with reproducible labeled substreams.

    Substreams from :meth:`substream` depend only on ``(seed, label path)``,
    so any fixed assignment of work to substreams is reproducible no matter
    how it is scheduled.  A stream is single-consumer: identical seed plus
    identical draw sequence yields identical outputs, and the order of draws
    is part of every caller's contract.
    """

    __slots__ = ("seed", "_spawn_key", "_gen", "_floats", "_fpos", "_words", "_wpos")

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()) -> None:
        try:
            self.seed = operator.index(seed)
        except TypeError:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}") from None
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        self._spawn_key = tuple(_spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self._spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))
        self._floats = np.empty(0)
        self._fpos = 0
        self._words = np.empty(0, dtype=np.uint64)
        self._wpos = 0

    def substream(self, *labels: object) -> "Stream":
        """Derive the independent stream addressed by ``labels`` under this seed."""
        key = self._spawn_key + tuple(_label_entropy(lab) for lab in labels)
        return Stream(self.seed, key)

    # ------------------------------------------------------------------
    # scalar draws (buffered; ~10x faster than one generator call each)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        if self._fpos >= self._floats.size:
            self._floats = self._gen.random(_BLOCK)
            self._fpos = 0
        value = self._floats[self._fpos]
        self._fpos += 1
        return float(value)

    def bernoulli(self, p: float) -> int:
        """One {0, 1} draw with success probability ``p``."""
        return 1 if self.random() < p else 0

    def _next_word(self) -> int:
        if self._wpos >= self._words.size:
            self._words = self._gen.integers(
                0, _WORD_MAX, size=_BLOCK, dtype=np.uint64, endpoint=True
            )
            self._wpos = 0
        word = self._words[self._wpos]
        self._wpos += 1
        return int(word)

    def randbelow(self, n: int) -> int:
        """Exact uniform integer in [0, n), unbiased via rejection sampling.

        ``n`` is read as the seed is, by ``operator.index``: an int or a
        numpy integer of at least 1, else ``ValueError``."""
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"randbelow requires an integer n, got {n!r}") from None
        if n <= 0:
            raise ValueError(f"randbelow requires n >= 1, got {n}")
        if n == 1:
            return 0
        if n <= 1 << 64:
            # Lemire-style threshold rejection on one 64-bit word.
            threshold = ((1 << 64) // n) * n
            while True:
                word = self._next_word()
                if word < threshold:
                    return word % n
        bits = (n - 1).bit_length()
        nwords = (bits + 63) // 64
        excess = nwords * 64 - bits
        while True:
            value = 0
            for _ in range(nwords):
                value = (value << 64) | self._next_word()
            value >>= excess
            if value < n:
                return value

    def geometric(self, p: float) -> int:
        """Number of failures before the first success, pmf (1-p) * p**n,
        for ``p`` in (0, 1).

        Uses inversion, so exactly one uniform draw is consumed.
        """
        _in_open_unit("expansion parameter", p)
        v = 1.0 - self.random()
        if v >= 1.0:
            return 0
        return int(math.log(v) / math.log(p))

    # ------------------------------------------------------------------
    # vector draws: a size is read by ``operator.index``, and a bound must be
    # an integer or an integer array

    def random_array(self, size: int) -> np.ndarray:
        return self._gen.random(_count("size", size))

    def integers_upto(self, highs, size=None) -> np.ndarray:
        """Uniform integers in [0, high] inclusive; ``highs`` may be an array."""
        if size is not None:
            size = _count("size", size)
        return self._gen.integers(0, _bounds(highs), size=size, endpoint=True)

    def geometric_array(self, p: float, size: int) -> np.ndarray:
        """Vector of failure counts before first success, pmf (1-p) * p**n,
        for ``p`` in (0, 1).

        The values, and the generator's state after the call, are exactly
        those of numpy's ``geometric(1 - p, size) - 1``, a few whole-array
        passes in place of numpy's loop per value where its draw allows:

        - At p = 1/2 they come in closed form from the uniforms numpy's
          search loop would consume (:func:`_runs_at_half`).
        - Past p = 2/3 numpy's success probability q = 1 - p is below 1/3,
          and numpy inverts one standard exponential E per value: the count
          is ``ceil(-E / log1p(-q))``.  Here one ``standard_exponential``
          fill draws the same E, since numpy's fill and its per-value draw
          are the same ziggurat, and -q is p - 1 exactly (Sterbenz).  numpy
          caps a count of 2**63 or more at INT64_MAX before its cast, but no
          count reaches 2**60: the ziggurat's E is below 45 and
          ``-log1p(-q)`` is at least q >= 2**-53.
        - Every other p is numpy's own draw, a search over one uniform each.
        """
        _in_open_unit("expansion parameter", p)
        size = _count("size", size)
        if p == 0.5:
            return _runs_at_half(self._gen.random(size))
        if 1.0 - p < _SEARCH_FROM:
            counts = self._gen.standard_exponential(size)
            counts /= -math.log1p(p - 1.0)
            runs = np.ceil(counts, out=counts).astype(np.int64)
        else:
            runs = self._gen.geometric(1.0 - p, size=size)  # already int64
        runs -= 1
        return runs

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream(seed={self.seed}, path={self._spawn_key})"
