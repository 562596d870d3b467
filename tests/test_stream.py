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


def _numpy_generator(seed, spawn_key=()):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=spawn_key)))


def _numpy_words(gen, size):
    return gen.integers(0, 2**64 - 1, size, dtype=np.uint64, endpoint=True).tolist()


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
    # A stream's first block of each kind comes from the port of numpy's
    # seeding and PCG64, its later ones from numpy: 1,100 words cross from
    # the one to the other, and the floats' port block, claimed first,
    # sits before them.
    stream = PORT_PATHS[path](seed)
    gen = _numpy_generator(seed, stream._spawn_key)
    first = stream.random()
    words = [stream._next_word() for _ in range(1100)]
    floats = gen.random(512).tolist()
    assert first == floats[0]
    assert words == _numpy_words(gen, 1536)[:1100]
    rest = [stream.random() for _ in range(600)]
    assert rest == floats[1:] + gen.random(512).tolist()[:89]
    assert stream._gen.bit_generator.state == gen.bit_generator.state


@pytest.mark.parametrize("path", PORT_PATHS)
@pytest.mark.parametrize("seed", PORT_SEEDS)
def test_mixed_draws_match_numpy_alone(seed, path):
    # Values and the generator's final state are those of numpy drawing
    # each block and each vector in the same order.
    stream = PORT_PATHS[path](seed)
    gen = _numpy_generator(seed, stream._spawn_key)
    floats = gen.random(1024).tolist()
    assert [stream.random() for _ in range(600)] == floats[:600]
    assert stream.random_array(5).tolist() == gen.random(5).tolist()
    n = 3 * 2**62  # rejects a word of 3 * 2**62 or more, a quarter of them
    accepted = []
    while len(accepted) < 600:
        accepted += [word % n for word in _numpy_words(gen, 512) if word < n]
    assert [stream.randbelow(n) for _ in range(600)] == accepted[:600]
    highs = np.array([0, 5, 2**40])
    assert stream.integers_upto(highs).tolist() == gen.integers(0, highs, endpoint=True).tolist()
    assert stream.geometric_array(0.5, 1000).tolist() == (gen.geometric(0.5, 1000) - 1).tolist()
    assert stream.random() == floats[600]
    assert stream._gen.bit_generator.state == gen.bit_generator.state


def test_vector_only_stream_runs_no_port():
    # A Monte Carlo chunk's stream: numpy seeds it, and the port derives
    # nothing.
    stream = Stream(3).substream("chunk", 0)
    gen = _numpy_generator(3, stream._spawn_key)
    assert stream.geometric_array(0.8, 10).tolist() == (gen.geometric(0.2, 10) - 1).tolist()
    assert stream._origin is None
    assert stream._gen.bit_generator.state == gen.bit_generator.state


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


# numpy searches a success probability 1 - p of at least 1/3 and inverts
# below it, so p = 2/3 and its float neighbours straddle the switch.
_TWO_THIRDS = 2 / 3


@pytest.mark.parametrize(
    "p",
    [0.5, 0.3, 0.8, _TWO_THIRDS, float(np.nextafter(_TWO_THIRDS, 0.0)),
     float(np.nextafter(_TWO_THIRDS, 1.0)), 0.7, 0.95, 0.999],
)
@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_geometric_array_is_numpys_draw(seed, p):
    # Every value, and the state the call leaves behind, is numpy's.
    stream = Stream(seed)
    gen = _numpy_generator(seed)
    for size in (0, 1, 7, 8192, 100003):
        runs = stream.geometric_array(p, size)
        assert runs.dtype == np.int64 and runs.shape == (size,)
        assert np.array_equal(runs, gen.geometric(1.0 - p, size) - 1)
        assert np.array_equal(stream.random_array(3), gen.random(3))


def _numpy_search_at_half(u):
    # numpy's random_geometric_search at success probability 1/2, which
    # returns the trial count; the run is one less.
    x, total, prod = 1, 0.5, 0.5
    while u > total:
        prod *= 0.5
        total += prod
        x += 1
    return x - 1


def test_runs_at_half_follow_numpys_search_loop():
    from boxchain._vector import _runs_at_half

    ulp = 2.0**-53  # the spacing of Generator.random's doubles
    crafted = [0.0, ulp, 0.5, np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0)]
    for k in range(1, 54):
        edge = 1.0 - 2.0**-k
        crafted += [edge - ulp, edge, edge + ulp]
    crafted += list(_numpy_generator(11).random(2000))
    u = np.array([v for v in crafted if 0.0 <= v < 1.0])
    expected = [_numpy_search_at_half(float(v)) for v in u]
    assert _runs_at_half(u.copy()).tolist() == expected
    assert expected[:5] == [0, 0, 0, 1, 52]


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
    import re

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
    # Integers of any kind draw as numpy does.
    a, b = Stream(4), _numpy_generator(4)
    assert a.random_array(np.int64(5)).tolist() == b.random(5).tolist()
    assert a.integers_upto(np.uint8(9), np.int32(6)).tolist() == b.integers(0, 9, 6, endpoint=True).tolist()
    highs = np.array([0, 7, 2**40], np.uint64)
    assert a.integers_upto(highs).tolist() == b.integers(0, highs, endpoint=True).tolist()
    assert a.geometric_array(0.8, np.int16(4)).tolist() == (b.geometric(1.0 - 0.8, 4) - 1).tolist()


def _uint32_words(gen, size):
    return gen.integers(0, 2**32 - 1, size, dtype=np.uint32, endpoint=True).tolist()


def _bounds(kind, size, rng):
    """``size`` bounds of one kind: 1 and 2, bounds where numpy's threshold
    rejects up to half the words, small bounds mixed with 0, any bounds
    mixed with 0 and past 2**32 - 2, or the contraction's small rank
    counts."""
    if kind == "one-two":
        return rng.integers(1, 3, size)
    if kind == "high":
        return rng.integers(2**31, 2**32 - 1, size)
    if kind == "zeros":
        highs = rng.integers(1, 5000, size)
        highs[::3] = 0
        return highs
    if kind == "mixed":
        highs = rng.integers(0, 2**33, size)
        highs[::3] = 0
        highs[1::5] = 2**32 - 1
        highs[2::7] = 2**32 - 2
        return highs
    return rng.integers(1, 5000, size)


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("size", [1, 7, 1023, 1024, 1025, 5000])
@pytest.mark.parametrize("kind", ["one-two", "high", "zeros", "mixed", "ranks"])
def test_bounded_draws_replay_numpys(kind, size, buffered):
    # Every value, the generator's state after the call and the draw after
    # it are numpy's, through the stream's dispatch and, for bounds in
    # [1, 2**32 - 2], through the replay itself at any size.
    from boxchain._vector import _replay_bounded

    rng = np.random.default_rng([size, len(kind), buffered])
    for seed in (0, 3, 2**40 + 1):
        highs = _bounds(kind, size, rng)
        stream, gen = Stream(seed), _numpy_generator(seed)
        if buffered:
            # One bounded draw reads one 32-bit half of a 64-bit word and
            # buffers the other, which the next bounded draw reads first.
            assert stream.integers_upto(np.array([6])).tolist() == gen.integers(0, [6], endpoint=True).tolist()
            assert gen.bit_generator.state["has_uint32"] == 1
        drawn = stream.integers_upto(highs)
        want = gen.integers(0, highs, endpoint=True)
        assert drawn.dtype == want.dtype and np.array_equal(drawn, want)
        assert stream._gen.bit_generator.state == gen.bit_generator.state
        assert _uint32_words(stream._gen, 3) == _uint32_words(gen, 3)
        if highs.min() >= 1 and highs.max() <= 2**32 - 2:
            replayed = _numpy_generator(seed)
            gen = _numpy_generator(seed)
            if buffered:
                replayed.integers(0, [6], endpoint=True)
                gen.integers(0, [6], endpoint=True)
            assert np.array_equal(_replay_bounded(replayed, highs), gen.integers(0, highs, endpoint=True))
            assert replayed.bit_generator.state == gen.bit_generator.state
            assert replayed.random() == gen.random()


def _lemire_reference(words, highs):
    """numpy's draw of each bound in [1, 2**32 - 2], in Python ints: read
    words until (word * (high + 1)) mod 2**32 reaches the threshold, keep
    the high word.  Returns the values and the number of words read."""
    words = iter(words)
    values = []
    read = 0
    for high in highs:
        threshold = (2**32 - 1 - high) % (high + 1)
        while True:
            product = next(words) * (high + 1)
            read += 1
            if product % 2**32 >= threshold:
                break
        values.append(product >> 32)
    return values, read


def test_replay_redraws_rejected_words():
    # Near 2**31 about half of the words reject, so one call redraws from
    # about a thousand bounds on; the replay reads the words numpy's
    # per-value loop would read, no more.
    from boxchain._vector import _replay_bounded

    highs = np.full(2000, 2**31 + 1, np.int64)  # threshold 2**31 - 2
    highs[::3] = np.random.default_rng(4).integers(1, 2**32 - 1, highs[::3].size)
    values, read = _lemire_reference(_uint32_words(_numpy_generator(9), 8000), highs.tolist())
    assert read > 3000
    replayed, gen = _numpy_generator(9), _numpy_generator(9)
    assert _replay_bounded(replayed, highs).tolist() == values
    _uint32_words(gen, read)
    assert replayed.bit_generator.state == gen.bit_generator.state


class _ScriptedWords:
    """A generator stand-in whose uint32 fills return scripted words."""

    def __init__(self, words):
        self.words = list(words)
        self.read = 0

    def integers(self, low, high, size, dtype, endpoint):
        assert (low, high, dtype, endpoint) == (0, 2**32 - 1, np.uint32, True)
        self.read += size
        return np.array(self.words[self.read - size:self.read], np.uint32)


def test_replay_rejects_exactly_below_numpys_threshold():
    # Random words land on a bound's threshold once in 2**32 draws, so the
    # words here are chosen to: for each bound with odd high + 1, a word
    # whose low product is one below the threshold (rejected), then one at
    # it (kept); for an odd high, the word ceil(2**32 / (high + 1)), whose
    # low product is below high + 1, so numpy checks it against the
    # threshold (the low product is 0 where high + 1 is a power of two).
    from boxchain._vector import _replay_bounded

    highs = [1, 2, 4, 3, 2**31, 2**32 - 2, 2**32 - 3, 6, 1000, 2**31 - 1, 123456] * 100
    words = []
    for high in highs:
        threshold = (2**32 - 1 - high) % (high + 1)
        if high % 2:
            words.append(-(-(2**32) // (high + 1)))
        else:
            inverse = pow(high + 1, -1, 2**32)
            words += [(low * inverse) % 2**32 for low in (threshold - 1, threshold) if low >= 0]
    values, read = _lemire_reference(words, highs)
    assert read == len(words) > len(highs)
    scripted = _ScriptedWords(words)
    assert _replay_bounded(scripted, np.array(highs, np.int64)).tolist() == values
    assert scripted.read == read
