import math
import re

import numpy as np
import pytest

from boxchain import Stream

from conftest import chi_square_pvalue


def test_same_seed_same_sequence():
    a = Stream(7)
    b = Stream(7)
    assert [a.random() for _ in range(2000)] == [b.random() for _ in range(2000)]
    assert [a.randbelow(97) for _ in range(500)] == [b.randbelow(97) for _ in range(500)]
    assert [a.geometric(0.5) for _ in range(500)] == [b.geometric(0.5) for _ in range(500)]


def test_substream_depends_only_on_labels():
    direct = Stream(3).substream("alpha", 5)
    other = Stream(3)
    other.random()  # consuming the parent must not perturb the child
    indirect = other.substream("alpha", 5)
    assert [direct.random() for _ in range(100)] == [indirect.random() for _ in range(100)]


def test_substreams_differ_by_label():
    a = Stream(3).substream("alpha")
    b = Stream(3).substream("beta")
    assert [a.random() for _ in range(50)] != [b.random() for _ in range(50)]


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        Stream(-1)


def test_non_integer_seed_rejected():
    # A float or a string seed used to be truncated: Stream(1.5) drew as
    # Stream(1), and Stream("7") as Stream(7).
    for seed in (1.5, 2.0, "7", None):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed!r}"):
            Stream(seed)
    a = Stream(np.int64(7))
    b = Stream(7)
    assert type(a.seed) is int
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]


def test_randbelow_bounds_and_uniformity():
    stream = Stream(123)
    n = 7
    counts = [0] * n
    draws = 70_000
    for _ in range(draws):
        counts[stream.randbelow(n)] += 1
    assert chi_square_pvalue(counts, [1 / n] * n, draws) > 1e-4


def test_randbelow_edge_cases():
    stream = Stream(5)
    assert stream.randbelow(1) == 0
    with pytest.raises(ValueError):
        stream.randbelow(0)
    big = 1 << 70
    values = [stream.randbelow(big) for _ in range(50)]
    assert all(0 <= v < big for v in values)


def test_randbelow_reads_n_as_an_integer():
    # randbelow(2.5) used to return the float 1.0.
    import re

    for bad in (2.5, 2.0, "3", None):
        with pytest.raises(ValueError, match=f"randbelow requires an integer n, got {re.escape(repr(bad))}"):
            Stream(5).randbelow(bad)
    a = Stream(5)
    b = Stream(5)
    draws = [a.randbelow(np.int64(97)) for _ in range(50)]
    assert all(type(value) is int for value in draws)
    assert draws == [b.randbelow(97) for _ in range(50)]


def test_geometric_law_matches_pmf():
    stream = Stream(11)
    p = 0.3
    draws = 200_000
    counts = {}
    for _ in range(draws):
        value = stream.geometric(p)
        counts[value] = counts.get(value, 0) + 1
    upper = max(counts)
    observed = [counts.get(k, 0) for k in range(upper + 1)]
    probs = [(1 - p) * p**k for k in range(upper + 1)]
    assert chi_square_pvalue(observed, probs, draws) > 1e-4


def test_vector_draws_shapes_and_ranges():
    stream = Stream(9)
    highs = np.array([0, 3, 10], dtype=np.int64)
    draws = stream.integers_upto(highs)
    assert draws.shape == (3,)
    assert (draws >= 0).all() and (draws <= highs).all()
    geo = stream.geometric_array(0.5, 1000)
    assert (geo >= 0).all()
    assert abs(geo.mean() - 1.0) < 0.2  # mean p/(1-p) = 1


def _numpy_bits(seed, spawn_key=()):
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key))


def _float(word):
    """Stream.random's float of a raw word."""
    return (word >> 11) * 2.0**-53


def _run(word, p):
    """Stream.geometric's run from a raw word, in Python floats: 0 when its
    float is 0, as log(1) = 0."""
    return int(math.log(1.0 - _float(word)) / math.log(p))


def _floats(words):
    return [_float(word) for word in words.tolist()]


def _runs(words, p):
    return [_run(word, p) for word in words.tolist()]


def _slot_order(bits, highs):
    """randbelow(high + 1)'s rule on one of ``bits``' raw words per bound:
    the bounds that reject their word draw again, in order, from the words
    that follow."""
    values = [None] * len(highs)
    pending = list(range(len(highs)))
    while pending:
        rejected = []
        for slot, word in zip(pending, bits.random_raw(len(pending)).tolist()):
            n = highs[slot] + 1
            if word < (2**64 // n) * n:
                values[slot] = word % n
            else:
                rejected.append(slot)
        pending = rejected
    return values


# Seeds of one, two, three and five 32-bit words, with each path: the root,
# a spawn key of one word (below 2**32), and nested substreams.
PORT_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 1]
PORT_PATHS = {
    "root": lambda seed: Stream(seed),
    "one-word-key": lambda seed: Stream(seed, (5,)),
    "nested": lambda seed: Stream(seed).substream("chunk", 3).substream(7),
}


@pytest.mark.parametrize("path", PORT_PATHS)
@pytest.mark.parametrize("seed", PORT_SEEDS)
def test_scalar_draws_are_numpys_words(seed, path):
    # Every kind of scalar draw reads the next of numpy's raw words, one
    # word per value, in call order: the port serves the first block, numpy
    # the second, and a vector draw then reads from the third.
    stream = PORT_PATHS[path](seed)
    bits = _numpy_bits(seed, stream._spawn_key)
    words = iter(bits.random_raw(1024).tolist())
    n = 3 * 2**62  # rejects a word of n or more, a quarter of them
    rejected = 0
    for _ in range(130):
        assert stream.random() == _float(next(words))
        accepted = next(words)
        while accepted >= n:
            rejected += 1
            accepted = next(words)
        assert stream.randbelow(n) == accepted % n
        assert stream.geometric(0.5) == _run(next(words), 0.5)
        assert stream.geometric(0.8) == _run(next(words), 0.8)
        assert stream.bernoulli(0.3) == (_float(next(words)) < 0.3)
    rest = [_float(word) for word in words]  # numpy's block, partly read
    assert rejected and 0 < len(rest) < 512
    assert stream.random_array(5).tolist() == _floats(bits.random_raw(5))
    # The scalar draws finish the block they claimed, then read past the
    # vector draw's words.
    rest += _floats(bits.random_raw(512))[:10]
    assert [stream.random() for _ in rest] == rest
    assert stream._gen.bit_generator.state == bits.state


@pytest.mark.parametrize("path", PORT_PATHS)
@pytest.mark.parametrize("seed", PORT_SEEDS)
def test_mixed_draws_match_numpy_alone(seed, path):
    # A stream whose first draw is a vector one: numpy serves every block,
    # and the vector draws read past the one the scalar draws are reading.
    # Values and the bit generator's final state are those of numpy's raw
    # words, read in the same order.
    stream = PORT_PATHS[path](seed)
    bits = _numpy_bits(seed, stream._spawn_key)
    assert stream.random_array(5).tolist() == _floats(bits.random_raw(5))
    words = bits.random_raw(1024)  # the two blocks the scalar draws claim
    assert [stream.random() for _ in range(600)] == _floats(words[:600])
    highs = [0, 5, 2**40, 3 * 2**61, 2**63 - 1]
    assert stream.integers_upto(np.array(highs)).tolist() == _slot_order(bits, highs)
    assert stream.geometric_array(0.5, 1000).tolist() == _runs(bits.random_raw(1000), 0.5)
    assert [stream.geometric(0.8) for _ in range(424)] == _runs(words[600:], 0.8)
    assert stream.random() == _floats(bits.random_raw(512))[0]
    assert stream._gen.bit_generator.state == bits.state


def test_vector_only_stream_runs_no_port(monkeypatch):
    # A Monte Carlo chunk's stream: numpy seeds it, and the port derives
    # nothing.
    import boxchain.stream

    def refuse(*args):
        raise AssertionError("the port derived a state")

    monkeypatch.setattr(boxchain.stream, "_pcg64_seed", refuse)
    stream = Stream(3).substream("chunk", 0)
    bits = _numpy_bits(3, stream._spawn_key)
    assert stream.geometric_array(0.8, 10).tolist() == _runs(bits.random_raw(10), 0.8)
    assert stream.random() == _floats(bits.random_raw(512))[0]
    assert stream._gen.bit_generator.state == bits.state


def test_no_numpy_generator_at_run_time(monkeypatch):
    # Every draw reads PCG64's raw words, so the estimators and the checks
    # run with numpy's Generator made unusable.
    from boxchain import (
        Span, coupling_invariant_check, coupling_marginal_test, estimate_occupancy, estimate_occupancy_2d,
        reflection_identity_check, unit_box,
    )
    from boxchain.intervals import (
        UNIFORM, EndpointResampleContraction, KillThenUniformContraction, SizeWeightedContraction,
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy Generator was built")

    monkeypatch.setattr(np.random, "Generator", refuse)
    weighted = SizeWeightedContraction(lambda k, n: (k + 1) / ((n + 1) * (n + 2) / 2))
    for rule in (UNIFORM, KillThenUniformContraction(), EndpointResampleContraction(), weighted):
        for p in (0.5, 0.8):
            assert estimate_occupancy(Span(0, 1), 3, [0, 1], 2000, seed=1, p=p, rule=rule)[0].trials == 2000
    assert estimate_occupancy_2d(unit_box(2), 2, [(0, 0)], 2000, seed=1, p=0.8)[0].trials == 2000
    assert coupling_invariant_check(10, 0.8, 300, 1).passed
    assert reflection_identity_check(10, 0.5, 300, 1).passed
    assert coupling_marginal_test(2, 0.5, 500, seed=1).passed


def test_numpy_integer_labels_key_as_ints():
    # The label's repr went into its key, and numpy 2 changed it (NEP 51):
    # np.int64(3) keyed as "int64:np.int64(3)" here and "int64:3" on numpy 1.
    for label in (np.int64(3), np.uint8(3), np.int32(3)):
        a = Stream(1).substream("x", label)
        b = Stream(1).substream("x", 3)
        assert a._spawn_key == b._spawn_key
        assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]
    assert Stream(1).substream("3")._spawn_key != Stream(1).substream(3)._spawn_key


def test_numpy_scalar_labels_key_as_their_python_values():
    # A numpy float, bool or str label keyed by its repr, which numpy 2
    # changed (NEP 51): substream(np.float64(0.5)) drew one stream on numpy
    # 1.24 and another on numpy 2.  Each now keys as its .item().
    import hashlib

    for label, value in ((np.float64(0.5), 0.5), (np.float32(0.25), 0.25), (np.bool_(True), True),
                         (np.str_("a"), "a")):
        assert Stream(1).substream(label)._spawn_key == Stream(1).substream(value)._spawn_key
    # The key of 0.5 on any numpy: the first 8 bytes of sha256("float:0.5").
    key = int.from_bytes(hashlib.sha256(b"float:0.5").digest()[:8], "big")
    assert Stream(1).substream(np.float64(0.5))._spawn_key == (key,)
    a, b = Stream(2).substream("x", np.float64(0.5)), Stream(2).substream("x", 0.5)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


# p = 2/3 and its float neighbours straddle where numpy's own geometric
# draw switches algorithms; here every p has one definition.
_TWO_THIRDS = 2 / 3


@pytest.mark.parametrize(
    "p",
    [0.5, 0.3, 0.8, _TWO_THIRDS, float(np.nextafter(_TWO_THIRDS, 0.0)),
     float(np.nextafter(_TWO_THIRDS, 1.0)), 0.7, 0.95, 0.999],
)
@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_geometric_array_is_numpys_draw(seed, p):
    # Every value is Stream.geometric's on numpy's raw words, one word each,
    # and the next draw reads the words that follow.
    for size in (0, 1, 7, 8192):
        stream, bits = Stream(seed), _numpy_bits(seed)
        runs = stream.geometric_array(p, size)
        assert runs.dtype == np.int64 and runs.shape == (size,)
        assert runs.tolist() == _runs(bits.random_raw(size), p)
        assert stream.random_array(3).tolist() == _floats(bits.random_raw(3))


class _ScriptedBits:
    """A bit generator stand-in whose raw words are scripted, then zeros."""

    def __init__(self, words):
        self.words = list(words)
        self.read = 0

    def random_raw(self, size):
        chunk = self.words[self.read:self.read + size]
        self.read += size
        return np.array(chunk + [0] * (size - len(chunk)), np.uint64)


def _scripted_stream(words):
    """A stream whose every draw, scalar or vector, reads ``words``."""
    from boxchain._vector import Draws

    stream = Stream(0)
    stream._gen = Draws(_ScriptedBits(words))
    return stream


# Bounds n whose threshold (2**64 // n) * n rejects no word (a power of
# two), a handful of the 2**64, or up to a third of them.
_SCRIPTED_BOUNDS = [2, 3, 6, 7, 1000, 2**32 - 1, 2**32 + 1, 3 * 2**61, 2**62 + 1, 2**63 - 1, 2**63]


def test_bounded_scalar_and_vector_draws_agree_on_scripted_words():
    # Words at, just below and just past each bound's threshold, the largest
    # word, and small ones: the scalar and the vector draws split them into
    # the same draws, with the same values.
    draws, words = [], []
    for n in _SCRIPTED_BOUNDS:
        threshold = (2**64 // n) * n
        script = [w for w in (threshold - 2, threshold - 1, threshold, threshold + 1, 2**64 - 1, 0, n - 1, n)
                  if w < 2**64]
        draws += [n] * sum(w < threshold for w in script)
        words += script
    assert len(draws) < len(words)  # some words are rejected
    scalar = _scripted_stream(words)
    expected = [scalar.randbelow(n) for n in draws]
    vector = _scripted_stream(words)
    assert [int(vector.integers_upto(n - 1)) for n in draws] == expected
    assert vector._gen.bit_generator.read == len(words)
    # One call over every bound reads a word per bound, then redraws the
    # rejected bounds in order from the words that follow.
    bits = _ScriptedBits(words)
    highs = [n - 1 for n in draws]
    want = _slot_order(bits, highs)
    vector = _scripted_stream(words)
    assert vector.integers_upto(np.array(highs, np.uint64)).tolist() == want
    assert vector._gen.bit_generator.read == bits.read
    # A bound near 2**63 among small ones: the words of the small bounds lie
    # just past 2**64 - 1 - max n, the one cut every word is screened by,
    # yet below their own thresholds, so they are kept.  1000 rejects its
    # word (2**64 % 1000 = 616), and the large bound rejects 2**64 - 2.
    highs = [2, 2**63 - 2, 6, 999, 2**63 - 2]
    words = [2**63 + 1, 2**64 - 2, 2**63 + 2, 2**64 - 3, 2**63 + 5, 2**63 + 7, 2**63 + 9]
    bits = _ScriptedBits(words)
    want = _slot_order(bits, highs)
    assert want == [(2**63 + 1) % 3, (2**63 + 7) % (2**63 - 1), (2**63 + 2) % 7, (2**63 + 9) % 1000, 6]
    vector = _scripted_stream(words)
    assert vector.integers_upto(np.array(highs)).tolist() == want
    assert vector._gen.bit_generator.read == bits.read == len(words)
    # A high of 0 reads a word, where randbelow(1) reads none.
    vector = _scripted_stream([2**64 - 1])
    assert vector.integers_upto(np.zeros(3, np.int64)).tolist() == [0, 0, 0]
    assert vector._gen.bit_generator.read == 3


def _words_of(m):
    """Raw words whose float is m * 2**-53: no low bits and all of them."""
    return [m << 11, m << 11 | 0x7FF]


def _near_integer_words(p):
    """Raw words whose run's quotient log(1 - u) / log(p), by math.log, is
    within four ulps of an integer, for runs up to 200."""
    log_p, words = math.log(p), []
    for k in range(1, 200):
        closest = round((1.0 - p**k) * 2.0**53)
        for m in range(max(closest - 2, 0), min(closest + 3, 2**53)):
            quotient = math.log(1.0 - m * 2.0**-53) / log_p
            if abs(quotient - round(quotient)) <= 4 * math.ulp(quotient):
                words += _words_of(m)
    return words


# Floats 1 - m * 2**-53 at which np.log rounds below math.log in magnitude
# with numpy 2.4.6 on AVX-512, so that at p equal to one of them the float
# quotient reads 1 - 2**-53 where the scalar draw's is 1.
_LOG_SPLITS = [1864865736887517, 2476970791572332]


@pytest.mark.parametrize(
    "p",
    [0.5, 0.3, 0.8, _TWO_THIRDS, float(np.nextafter(_TWO_THIRDS, 0.0)),
     float(np.nextafter(_TWO_THIRDS, 1.0)), 0.999]
    + [1.0 - m * 2.0**-53 for m in _LOG_SPLITS],
)
def test_geometric_scalar_and_vector_draws_agree_on_scripted_words(p):
    # At p = 1/2, words at and beside each power of two of 1 - u; elsewhere
    # words whose log quotient is within a few ulps of an integer.
    words = _words_of(0) + [2**64 - 1]
    if p == 0.5:
        for j in range(54):
            for m in (2**53 - 2**j - 1, 2**53 - 2**j, 2**53 - 2**j + 1):
                words += _words_of(m) if 0 <= m < 2**53 else []
    else:
        near = _near_integer_words(p)
        assert len(near) >= 4
        words += near
        for m in _LOG_SPLITS:
            words += _words_of(m)
    scalar = _scripted_stream(words)
    expected = [scalar.geometric(p) for _ in words]
    assert _scripted_stream(words).geometric_array(p, len(words)).tolist() == expected


@pytest.mark.parametrize("p", [0.3, 0.8, _TWO_THIRDS, 0.999])
def test_geometric_array_recomputes_what_a_low_np_log_truncates(monkeypatch, p):
    # np.log made to read one ulp below math.log, as some host's np.log may:
    # on the near-integer words that moves some quotients to the integer
    # above, yet every run is still the scalar draw's.
    def low_log(x, out=None):
        return np.nextafter([math.log(v) for v in x.tolist()], -np.inf, out=out)

    words = _near_integer_words(p)
    scalar = _scripted_stream(words)
    expected = [scalar.geometric(p) for _ in words]
    floats = np.array([_float(word) for word in words])
    assert (low_log(1.0 - floats) / math.log(p)).astype(np.int64).tolist() != expected
    monkeypatch.setattr(np, "log", low_log)
    assert _scripted_stream(words).geometric_array(p, len(words)).tolist() == expected


def test_geometric_draws_refuse_p_outside_the_open_unit_interval():
    # Stream(0).geometric(1.5) used to return -2, 0, 0, 0, -4.
    import re

    for bad in (1.5, 1.0, 0.0, -0.2, float("nan")):
        message = re.escape(f"expansion parameter must lie in (0, 1), got {bad!r}")
        with pytest.raises(ValueError, match=message):
            Stream(0).geometric(bad)
        with pytest.raises(ValueError, match=message):
            Stream(0).geometric_array(bad, 3)


def test_vector_draws_read_sizes_and_bounds_as_integers():
    # integers_upto(2.5, 3) used to draw in [0, 2], and a float size raised
    # numpy's bare TypeError.
    stream = Stream(0)
    # (draws, values they refuse) by the argument named in the message
    bad_draws = {
        "size": (
            [
                lambda size: stream.random_array(size),
                lambda size: stream.geometric_array(0.5, size),
                lambda size: stream.geometric_array(0.8, size),
                lambda size: stream.integers_upto(3, size),
            ],
            (2.5, 2.0, "3", [3]),
        ),
        "highs": (
            [lambda highs: stream.integers_upto(highs, 3), lambda highs: stream.integers_upto(highs)],
            (2.5, 2.0, "3", None, [3, 4]),
        ),
    }
    for what, (draws, values) in bad_draws.items():
        for draw in draws:
            for bad in values:
                with pytest.raises(ValueError, match=f"{what} must be an integer, got {re.escape(repr(bad))}"):
                    draw(bad)
    for highs in (np.array([2.5, 3.0]), np.array([True, False])):
        with pytest.raises(ValueError, match=f"highs must be integers, got an array of {highs.dtype}"):
            stream.integers_upto(highs)
    # Integers of any kind draw as ints do.
    a, b = Stream(4), Stream(4)
    assert a.random_array(np.int64(5)).tolist() == b.random_array(5).tolist()
    assert a.integers_upto(np.uint8(9), np.int32(6)).tolist() == b.integers_upto(9, 6).tolist()
    highs = [0, 7, 2**40, 2**63 - 1]
    assert a.integers_upto(np.array(highs, np.uint64)).tolist() == b.integers_upto(np.array(highs)).tolist()
    assert a.geometric_array(0.8, np.int16(4)).tolist() == b.geometric_array(0.8, 4).tolist()
    # A bound below 0 or past 2**63 - 1 fails closed, as a scalar or in an
    # array, and reads no word.
    state = a._gen.bit_generator.state
    for bad in (-1, 2**63, np.int64(-3), np.uint64(2**63), np.uint64(2**64 - 1)):
        message = re.escape(f"highs must lie in [0, 2**63 - 1], got {int(bad)}")
        array = np.array([5, bad], np.uint64 if int(bad) > 0 else np.int64)
        for draw in (lambda: a.integers_upto(bad), lambda: a.integers_upto(bad, 3),
                     lambda: a.integers_upto(array), lambda: a.integers_upto(array[::-1])):
            with pytest.raises(ValueError, match=message):
                draw()
    assert a._gen.bit_generator.state == state


def _bounds(kind, size, rng):
    """``size`` bounds of one kind: 1 and 2, bounds where randbelow's
    threshold rejects up to a third of the words, small bounds mixed with 0,
    any bounds mixed with 0 and 2**63 - 1, or the contraction's small rank
    counts."""
    if kind == "one-two":
        return rng.integers(1, 3, size)
    if kind == "high":
        return rng.integers(2**62, 2**63 - 1, size)
    if kind == "zeros":
        highs = rng.integers(1, 5000, size)
        highs[::3] = 0
        return highs
    if kind == "mixed":
        highs = rng.integers(0, 2**63 - 1, size)
        highs[::3] = 0
        highs[1::5] = 2**63 - 1
        highs[2::7] = 2**32 - 2
        return highs
    return rng.integers(1, 5000, size)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("size", [1, 7, 1023, 1024, 1025, 5000])
@pytest.mark.parametrize("kind", ["one-two", "high", "zeros", "mixed", "ranks"])
def test_bounded_draws_replay_numpys(kind, size, buffered):
    # Every value is randbelow(high + 1)'s on numpy's raw words, the
    # rejected bounds redrawing in order from the words that follow, and
    # the bit generator's state after the call is the reference's.  A
    # buffered stream first claims a block of scalar words, so its vector
    # draw starts a block on.
    rng = np.random.default_rng([size, len(kind), buffered])
    for seed in (0, 3, 2**40 + 1):
        highs = _bounds(kind, size, rng)
        stream, bits = Stream(seed), _numpy_bits(seed)
        if buffered:
            assert stream._next_word() == bits.random_raw(512).tolist()[0]
        drawn = stream.integers_upto(highs)
        assert drawn.dtype == np.int64 and drawn.tolist() == _slot_order(bits, highs.tolist())
        assert stream._gen.bit_generator.state == bits.state
