import math
from collections import defaultdict
from fractions import Fraction

import numpy as np


class StubStream:
    """Scripted stand-in for Stream: replays queued draws for hand traces."""

    def __init__(self, randbelow=(), geometric=()):
        self._randbelow = list(randbelow)
        self._geometric = list(geometric)

    def randbelow(self, n):
        value = self._randbelow.pop(0)
        assert 0 <= value < n, f"scripted randbelow {value} out of range {n}"
        return value

    def geometric(self, p):
        return self._geometric.pop(0)

    def exhausted(self):
        return not self._randbelow and not self._geometric


class _Unscripted(Exception):
    """A draw past the end of the script; its one argument is the number
    of the draw's choices."""


class ScriptedDraws:
    """Scalar draws chosen by a script, each weighted by its probability:
    ``randbelow(n)`` picks one of its n values, each of weight 1/n, and
    ``random()`` one of the ``randoms`` (value, weight) pairs.  A draw past
    the script raises ``_Unscripted``, which :func:`draw_law` extends the
    script by."""

    def __init__(self, script, randoms):
        self._script, self._randoms = script, randoms
        self.read, self.weight = 0, Fraction(1)

    def _choose(self, choices):
        if self.read == len(self._script):
            raise _Unscripted(len(choices))
        value, weight = choices[self._script[self.read]]
        self.read += 1
        self.weight *= weight
        return value

    def randbelow(self, n):
        return self._choose([(value, Fraction(1, n)) for value in range(n)])

    def random(self):
        return self._choose(self._randoms)


def draw_law(run, randoms=()):
    """The exact law of ``run(draws)`` over every script of its draws, as
    a dict of the outcomes of nonzero mass: ``run`` reads its draws from a
    :class:`ScriptedDraws`, and each script that runs to an outcome adds
    its weight there."""
    law = defaultdict(Fraction)
    scripts = [()]
    while scripts:
        script = scripts.pop()
        draws = ScriptedDraws(script, randoms)
        try:
            outcome = run(draws)
        except _Unscripted as branch:
            scripts += [(*script, choice) for choice in range(branch.args[0])]
            continue
        assert draws.read == len(script), f"script {script} left draws unread"
        law[outcome] += draws.weight
    return {outcome: mass for outcome, mass in law.items() if mass}


def rational_sizes(k, n):
    """Size pmf proportional to k + 1, as exact Fractions."""
    return Fraction(2 * (k + 1), (n + 1) * (n + 2))


class VectorStubStream:
    """Scripted stand-in for Stream's vector draws: replays queued arrays
    for the batched engine, each checked against the draw it answers."""

    def __init__(self, integers=(), geometric=(), random=()):
        self._integers = [np.asarray(value, np.int64) for value in integers]
        self._geometric = [np.asarray(value, np.int64) for value in geometric]
        self._random = [np.asarray(value, float) for value in random]

    def integers_upto(self, highs, size=None):
        value = self._integers.pop(0)
        assert value.shape == np.shape(highs), f"scripted {value.shape} integers, drawn {np.shape(highs)}"
        assert np.all((0 <= value) & (value <= highs)), f"scripted integers {value} out of range {highs}"
        return value

    def geometric_array(self, p, size):
        value = self._geometric.pop(0)
        assert value.size == size, f"scripted {value.size} runs, drawn {size}"
        return value

    def random_array(self, size):
        value = self._random.pop(0)
        assert value.shape == (size,), f"scripted {value.shape} floats, drawn {size}"
        return value

    def exhausted(self):
        return not self._integers and not self._geometric and not self._random


def chi_square_pvalue(counts, probabilities, total):
    """Goodness-of-fit p-value; bins with tiny expectation are pooled."""
    observed = []
    expected = []
    spill_obs = 0
    spill_exp = 0.0
    for count, prob in zip(counts, probabilities):
        exp = prob * total
        if exp < 5.0:
            spill_obs += count
            spill_exp += exp
        else:
            observed.append(count)
            expected.append(exp)
    if spill_exp > 0:
        observed.append(spill_obs)
        expected.append(spill_exp)
    scale = sum(observed) / sum(expected)
    expected = [e * scale for e in expected]
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = len(observed) - 1
    if dof <= 0:
        return 1.0
    return chi2_sf(statistic, dof)


def chi2_sf(x, k):
    """Upper tail P(X > x) of a chi-square law with integer ``k`` degrees of
    freedom, from the closed form of Q(k/2, x/2) at integer and half-integer
    shape.  With y = x/2, an even k sums exp(-y) y**i / i! over i < k/2, and
    an odd k adds exp(-y) y**(i+1/2) / Gamma(i+3/2) over i < (k-1)/2 to
    erfc(sqrt(y)).  Each term is formed in log space, so a large x gives a
    small tail rather than an exp(-y) that underflows to 0."""
    if x <= 0:
        return 1.0
    y = x / 2
    log_y = math.log(y)
    if k % 2 == 0:
        return math.fsum(math.exp(i * log_y - y - math.lgamma(i + 1)) for i in range(k // 2))
    terms = (math.exp((i + 0.5) * log_y - y - math.lgamma(i + 1.5)) for i in range(k // 2))
    return math.erfc(math.sqrt(y)) + math.fsum(terms)


def assert_close(a, b, tol=1e-12):
    assert math.isclose(a, b, rel_tol=0, abs_tol=tol), f"{a} != {b} within {tol}"
