"""Deterministic pseudorandom streams with labeled substream derivation.

A stream is numpy's ``PCG64(SeedSequence(seed, spawn_key=key))``, read as
one sequence of raw 64-bit words, and every draw is defined on those words:
a float is ``(w >> 11) * 2**-53``, a bounded integer is ``w % n`` unless w
is at or past ``(2**64 // n) * n``, and a geometric run inverts one float.
Scalar draws of every kind read the words in call order, from blocks of
512.  A stream's first block, unless a vector draw came first, comes from a
pure-Python port of numpy's ``SeedSequence`` and PCG64, a word at a time;
every later block is numpy's raw words.  Vector draws (``_vector``) apply
the scalar draws' definitions to one word per value, read past every block
the scalar draws have claimed.  numpy builds the bit generator only when a
stream needs it, for a vector draw or for a second block, so a process that
makes only a few scalar draws never loads numpy.  ``tests/test_stream.py``
pins the port against numpy's raw words, and the vector draws against the
scalar ones.
"""

from __future__ import annotations

import hashlib
import math
import operator
import sys
from functools import lru_cache

from . import _EXPORTS

__all__ = _EXPORTS["stream"]

_BLOCK = 512


def _label_entropy(label: object) -> int:
    """Stable 64-bit key for a substream label (platform independent).

    A numpy scalar keys as the Python value its ``.item()`` gives, as its
    repr changed in numpy 2 (NEP 51): ``np.float64(0.5)`` keys as ``0.5``
    on every numpy.  A process that has not loaded numpy holds no numpy
    scalar.
    """
    numpy = sys.modules.get("numpy")
    if numpy is not None and isinstance(label, numpy.generic):
        label = label.item()
    data = f"{type(label).__name__}:{label!r}".encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


# ---------------------------------------------------------------------------
# numpy's SeedSequence and PCG64 in Python ints

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's pool size in 32-bit words, and its hash constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words32(value: int) -> list[int]:
    """A nonnegative int as SeedSequence splits it: its 32-bit words, least
    significant first, one word for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _mix_word(pool: list[int], dst: int, word: int, hash_const: int) -> int:
    """SeedSequence's hash of ``word`` mixed into ``pool[dst]``, in place;
    returns the hash constant after it."""
    hashed = word ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    hashed = hashed * hash_const & _MASK32
    hashed ^= hashed >> 16
    mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed) & _MASK32
    pool[dst] = mixed ^ mixed >> 16
    return hash_const


def _mix_in(pool: list[int], hash_const: int, words: list[int]) -> int:
    """SeedSequence's mix of entropy ``words`` past the pool's first fill:
    each word, hashed afresh per pool word, mixed into every pool word.
    ``pool`` is updated in place; returns the hash constant after it."""
    for word in words:
        for dst in range(_POOL):
            hash_const = _mix_word(pool, dst, word, hash_const)
    return hash_const


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool once ``seed``'s words are mixed in, and its hash
    constant then: all a substream of ``seed`` mixes its key words into.

    numpy pads the seed's words with zeros to the pool size when a spawn
    key follows them; without one, the pool's first fill hashes a 0 for
    each missing word all the same, so one pool serves both.
    """
    entropy = _words32(seed)
    entropy += [0] * (_POOL - len(entropy))
    pool = []
    hash_const = _INIT_A
    for word in entropy[:_POOL]:
        word ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        word = word * hash_const & _MASK32
        pool.append(word ^ word >> 16)
    # Every pool word into every other, so late words reach early ones.
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hash_const = _mix_word(pool, dst, pool[src], hash_const)
    hash_const = _mix_in(pool, hash_const, entropy[_POOL:])
    return tuple(pool), hash_const


def _pcg64_seed(seed: int, spawn_key: tuple[int, ...]) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` as numpy seeds it from
    ``SeedSequence(seed, spawn_key=spawn_key)``."""
    cached, hash_const = _seed_pool(seed)
    pool = list(cached)
    _mix_in(pool, hash_const, [word for entry in spawn_key for word in _words32(entry)])
    # generate_state(4, uint64): eight hashed 32-bit words, cycling over the
    # pool, paired little end first.
    state = []
    hash_const = _INIT_B
    for i in range(2 * _POOL):
        word = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * hash_const & _MASK32
        state.append(word ^ word >> 16)
    seed_hi, seed_lo, inc_hi, inc_lo = (state[i] | state[i + 1] << 32 for i in range(0, 8, 2))
    # pcg64_set_seed: the first word of each pair of 64-bit words is the
    # high half of a 128-bit value; the state starts at 0, steps, adds the
    # seed and steps again.
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
    return state, inc


def _pcg64_words(state: int, inc: int):
    """The next block of raw words from ``state``: each an LCG step, then
    the XSL-RR output of the new state."""
    for _ in range(_BLOCK):
        state = (state * _PCG_MULT + inc) & _MASK128
        rot = state >> 122
        word = (state >> 64 ^ state) & _MASK64
        yield (word >> rot | word << 64 - rot) & _MASK64


# ---------------------------------------------------------------------------
# argument checks


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


class Stream:
    """A seeded PCG64 stream with reproducible labeled substreams.

    Substreams from :meth:`substream` depend only on ``(seed, label path)``,
    so any fixed assignment of work to substreams is reproducible no matter
    how it is scheduled.  A stream is single-consumer: identical seed plus
    identical draw sequence yields identical outputs, and the order of draws
    is part of every caller's contract.  Scalar draws of every kind read the
    next raw words of the block the stream last claimed, and vector draws
    read the words past it.
    """

    __slots__ = ("seed", "_spawn_key", "_gen", "_claimed", "_words")

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()) -> None:
        try:
            self.seed = operator.index(seed)
        except TypeError:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}") from None
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        self._spawn_key = tuple(_spawn_key)
        self._gen = None  # the vector draws on numpy's bit generator, once built
        self._claimed = False  # whether the port served the first block
        self._words = iter(())  # the scalar draws' unread words

    def substream(self, *labels: object) -> "Stream":
        """Derive the independent stream addressed by ``labels`` under this seed."""
        key = self._spawn_key + tuple(_label_entropy(lab) for lab in labels)
        return Stream(self.seed, key)

    def _generator(self):
        """The vector draws on numpy's bit generator, built on first need from
        numpy's own seeding and moved past the block the port served."""
        from ._vector import Draws

        self._gen = Draws.seeded(self.seed, self._spawn_key, _BLOCK if self._claimed else 0)
        return self._gen

    def _claim(self):
        """An iterator over the stream's next block of raw words.

        The first block, when claimed before numpy's bit generator is built,
        comes from the port, a word at a time.  Every other block is numpy's
        raw words at the same position.
        """
        if not self._claimed and self._gen is None:
            self._claimed = True
            return _pcg64_words(*_pcg64_seed(self.seed, self._spawn_key))
        gen = self._gen or self._generator()
        return iter(gen.bit_generator.random_raw(_BLOCK).tolist())

    # ------------------------------------------------------------------
    # scalar draws, every kind reading the next words of one buffered block
    # (~10x faster than one generator call each)

    def _next_word(self) -> int:
        word = next(self._words, None)
        if word is None:
            self._words = self._claim()
            word = next(self._words)
        return word

    def random(self) -> float:
        """Uniform float in [0, 1): the next word's top 53 bits over 2**53."""
        # _next_word's read, inline: most floats need no block claimed.
        word = next(self._words, None)
        if word is None:
            word = self._next_word()
        return (word >> 11) * 2.0**-53

    def bernoulli(self, p: float) -> int:
        """One {0, 1} draw with success probability ``p``."""
        return 1 if self.random() < p else 0

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

        Uses inversion, so exactly one uniform draw is consumed; u = 0 gives
        log(1) = 0, a run of 0.
        """
        _in_open_unit("expansion parameter", p)
        return int(math.log(1.0 - self.random()) / math.log(p))

    # ------------------------------------------------------------------
    # vector draws, the scalar draws' definitions on one raw word per value
    # (``_vector.Draws``): a size is read by ``operator.index``, and a bound
    # must be an integer or an integer array

    def random_array(self, size: int):
        """Vector of :meth:`random`'s floats in [0, 1)."""
        gen = self._gen or self._generator()
        return gen.random(_count("size", size))

    def integers_upto(self, highs, size=None):
        """Uniform integers in [0, high] inclusive; ``highs`` may be an array
        of bounds, each at most 2**63 - 1.

        Each value is ``randbelow(high + 1)``'s on one word: ``w % n`` for n
        = high + 1, unless w is at or past ``(2**64 // n) * n``.  The values
        that reject their word draw again, in order, from the words that
        follow.  A high of 0 reads a word all the same.
        """
        gen = self._gen or self._generator()
        if size is not None:
            size = _count("size", size)
        return gen.integers_upto(highs, size)

    def geometric_array(self, p: float, size: int):
        """Vector of :meth:`geometric`'s failure counts, pmf (1-p) * p**n, for
        ``p`` in (0, 1), one word each.

        Each is ``int(log(1 - u) / log(p))`` for the word's float u, 0 when
        u = 0, as the scalar draw computes it.  At p = 1/2 that is exactly
        ``53 - bit_length((~w) >> 11)``, read from a float's exponent field.
        Elsewhere the logs are numpy's, and a quotient near enough an integer
        to truncate either way is recomputed with ``math.log``.  A count is
        below 2**60: 1 - u is at least 2**-53, and -log(p) at least 2**-53.
        """
        _in_open_unit("expansion parameter", p)
        size = _count("size", size)
        gen = self._gen or self._generator()
        return gen.geometric_runs(p, size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream(seed={self.seed}, path={self._spawn_key})"
