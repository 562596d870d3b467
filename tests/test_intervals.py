import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from boxchain import (
    EMPTY,
    EndpointResampleContraction,
    KillThenUniformContraction,
    SizeWeightedContraction,
    Span,
    Stream,
    UNIFORM,
    contract,
    contraction_outcome_pmf,
    count_nonempty_subintervals,
    expand,
    geometric_pmf,
    geometric_sample,
    rank_subinterval,
    simulate_path,
    size_of,
    step,
    unrank_subinterval,
)

from conftest import chi_square_pvalue, draw_law, rational_sizes

def brute_force_subintervals(host):
    out = [EMPTY]
    for left in range(host.left, host.right + 1):
        for right in range(left, host.right + 1):
            out.append(Span(left, right))
    return out


# ---------------------------------------------------------------------------
# types


def test_span_invariant():
    with pytest.raises(ValueError):
        Span(2, 1)
    assert Span(3, 3).size == 1
    assert size_of(EMPTY) == 0
    assert size_of(Span(-2, 4)) == 7
    assert 0 in Span(-1, 1)
    assert 5 not in Span(-1, 1)


def test_span_ends_must_be_integers():
    # Span(0.5, 2) used to construct with size 2.5: the oracle and the
    # estimators returned numbers for it, and simulate_path died in range.
    for left, right in ((2.0, 3), (np.int64(-1), np.int64(4)), (True, 2.0)):
        span = Span(left, right)
        assert span == Span(int(left), int(right))
        assert type(span.left) is int and type(span.right) is int
    for bad in (0.5, "2", float("nan"), None):
        with pytest.raises(ValueError, match=f"span left end must be an integer, got {bad!r}"):
            Span(bad, 2)
        with pytest.raises(ValueError, match=f"span right end must be an integer, got {bad!r}"):
            Span(-3, bad)


def test_expansion_param_validated():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            geometric_pmf(bad, 0)


# ---------------------------------------------------------------------------
# geometric law


def test_geometric_pmf_values():
    assert geometric_pmf(0.5, 0) == 0.5
    assert geometric_pmf(0.5, 2) == 0.125
    assert geometric_pmf(Fraction(1, 2), 3) == Fraction(1, 16)
    total = sum(geometric_pmf(Fraction(1, 2), n) for n in range(200))
    assert 1 - total < Fraction(1, 2) ** 199


def test_geometric_sample_matches_pmf():
    for p in (0.2, 0.5, 0.8):
        stream = Stream(17)
        draws = 1_000_000
        counts = {}
        for _ in range(draws):
            value = geometric_sample(p, stream)
            counts[value] = counts.get(value, 0) + 1
        upper = max(counts)
        observed = [counts.get(k, 0) for k in range(upper + 1)]
        probs = [(1 - p) * p**k for k in range(upper + 1)]
        assert chi_square_pvalue(observed, probs, draws) > 1e-3


def test_geometric_sample_mean():
    stream = Stream(2)
    draws = 200_000
    mean = sum(geometric_sample(0.5, stream) for _ in range(draws)) / draws
    assert abs(mean - 1.0) < 0.01
    stream = Stream(3)
    zero = sum(geometric_sample(0.3, stream) == 0 for _ in range(draws)) / draws
    assert abs(zero - 0.7) < 0.01


# ---------------------------------------------------------------------------
# counting and unranking


def test_count_against_brute_force():
    assert count_nonempty_subintervals(1) == 1
    for n in range(1, 12):
        host = Span(0, n - 1)
        assert count_nonempty_subintervals(n) == len(brute_force_subintervals(host)) - 1
    assert count_nonempty_subintervals(3) == 6
    assert count_nonempty_subintervals(10) == 55
    with pytest.raises(ValueError):
        count_nonempty_subintervals(0)


def test_unrank_order_and_convention():
    host = Span(0, 1)
    assert unrank_subinterval(host, 0) is EMPTY
    assert [unrank_subinterval(host, i) for i in (1, 2, 3)] == [
        Span(0, 0),
        Span(0, 1),
        Span(1, 1),
    ]
    with pytest.raises(ValueError):
        unrank_subinterval(host, 4)
    with pytest.raises(ValueError):
        unrank_subinterval(host, -1)


def test_unrank_is_sorted_enumeration():
    host = Span(-2, 2)
    total = count_nonempty_subintervals(host.size)
    listed = [unrank_subinterval(host, i) for i in range(1, total + 1)]
    assert listed == sorted(listed, key=lambda s: (s.left, s.right))
    assert set(listed) == set(brute_force_subintervals(host)) - {EMPTY}


def test_rank_unrank_roundtrip_exhaustive():
    for n in range(1, 31):
        host = Span(-5, -5 + n - 1)
        total = count_nonempty_subintervals(n)
        for index in range(total + 1):
            assert rank_subinterval(host, unrank_subinterval(host, index)) == index


def test_rank_unrank_roundtrip_random():
    # Every index of every host of size 1..31 at four left ends, then hosts
    # and indices drawn over left ends -50..50.
    cases = [
        (left, size, index)
        for left in (-50, -1, 0, 50)
        for size in range(1, 32)
        for index in range(count_nonempty_subintervals(size) + 1)
    ]
    rng = random.Random(31)
    for _ in range(2_000):
        size = rng.randint(1, 31)
        cases.append((rng.randint(-50, 50), size, rng.randint(0, count_nonempty_subintervals(size))))
    for left, size, index in cases:
        host = Span(left, left + size - 1)
        assert rank_subinterval(host, unrank_subinterval(host, index)) == index


def test_unrank_huge_host():
    # The second host's ranks are past 2**53, where a float square root
    # cannot tell neighbouring ranks apart.
    for host in (Span(-5_000_000, 4_999_999), Span(0, 10**20 - 1)):
        n = host.size
        total = count_nonempty_subintervals(n)
        for index in (1, 2, total // 3, total // 2, total - 1, total):
            sub = unrank_subinterval(host, index)
            assert host.left <= sub.left <= sub.right <= host.right
            assert rank_subinterval(host, sub) == index
        # The block of left offset a follows the T(n) - T(n - a) sub-intervals
        # that start left of it, and runs from [a, a] to [a, n - 1].
        for a in (0, 1, 2, n // 3, n // 2, n - 2, n - 1):
            first = total - count_nonempty_subintervals(n - a) + 1
            assert unrank_subinterval(host, first) == Span(host.left + a, host.left + a)
            assert unrank_subinterval(host, first + n - a - 1) == Span(host.left + a, host.right)


# ---------------------------------------------------------------------------
# contraction


def test_contract_empty_absorbing():
    stream = Stream(0)
    for rule in (
        UNIFORM,
        EndpointResampleContraction(),
        KillThenUniformContraction(),
        SizeWeightedContraction(lambda k, n: 1.0 if k == n else 0.0),
    ):
        assert contract(EMPTY, rule, stream) is EMPTY


def test_uniform_contract_point_state():
    stream = Stream(1)
    draws = 100_000
    empty = sum(contract(Span(0, 0), UNIFORM, stream) is EMPTY for _ in range(draws))
    assert abs(empty / draws - 0.5) < 0.01


def test_uniform_contract_size_two_state():
    stream = Stream(4)
    draws = 200_000
    counts = {}
    for _ in range(draws):
        result = contract(Span(0, 1), UNIFORM, stream)
        counts[result] = counts.get(result, 0) + 1
    expected = contraction_outcome_pmf(Span(0, 1), UNIFORM)
    assert set(expected) == {EMPTY, Span(0, 0), Span(0, 1), Span(1, 1)}
    assert all(abs(w - 0.25) < 1e-12 for w in expected.values())
    for outcome, prob in expected.items():
        assert abs(counts.get(outcome, 0) / draws - prob) < 0.01


def test_uniform_contract_matches_enumeration_chi_square():
    host = Span(-1, 1)
    expected = contraction_outcome_pmf(host, UNIFORM)
    outcomes = list(expected)
    stream = Stream(6)
    draws = 100_000
    counts = {o: 0 for o in outcomes}
    for _ in range(draws):
        counts[contract(host, UNIFORM, stream)] += 1
    pvalue = chi_square_pvalue(
        [counts[o] for o in outcomes], [expected[o] for o in outcomes], draws
    )
    assert pvalue > 1e-3


def test_endpoint_resample_never_empty_and_law():
    host = Span(0, 2)
    expected = contraction_outcome_pmf(host, EndpointResampleContraction())
    assert EMPTY not in expected
    assert expected[Span(0, 0)] == pytest.approx(1 / 9)
    assert expected[Span(0, 2)] == pytest.approx(2 / 9)
    stream = Stream(8)
    draws = 90_000
    counts = {o: 0 for o in expected}
    for _ in range(draws):
        result = contract(host, EndpointResampleContraction(), stream)
        assert result is not EMPTY
        counts[result] += 1
    outcomes = list(expected)
    pvalue = chi_square_pvalue(
        [counts[o] for o in outcomes], [expected[o] for o in outcomes], draws
    )
    assert pvalue > 1e-3


def test_size_weighted_reproducing_uniform():
    # Weighting sizes by their slot counts (plus the empty slot at k=0)
    # collapses to the uniform rule, exactly.
    def uniform_by_size(k, n):
        total = n * (n + 1) // 2 + 1
        return (1 if k == 0 else n - k + 1) / total

    rule = SizeWeightedContraction(uniform_by_size)
    for n in range(1, 7):
        host = Span(0, n - 1)
        got = contraction_outcome_pmf(host, rule)
        want = contraction_outcome_pmf(host, UNIFORM)
        assert set(got) == set(want)
        for outcome in want:
            assert got[outcome] == pytest.approx(want[outcome], abs=1e-12)


def test_size_weighted_contract_matches_enumeration_chi_square():
    # The scalar sampler's size draw and uniform placement, against the
    # exact law; a pmf with all its mass at k = 0 always empties.
    host = Span(-1, 2)
    rule = SizeWeightedContraction(lambda k, n: (k + 1) / ((n + 1) * (n + 2) / 2))
    expected = contraction_outcome_pmf(host, rule)
    outcomes = list(expected)
    stream = Stream(9)
    draws = 60_000
    counts = {o: 0 for o in outcomes}
    for _ in range(draws):
        counts[contract(host, rule, stream)] += 1
    pvalue = chi_square_pvalue(
        [counts[o] for o in outcomes], [expected[o] for o in outcomes], draws
    )
    assert pvalue > 1e-3
    doomed = SizeWeightedContraction(lambda k, n: float(k == 0))
    assert all(contract(host, doomed, stream) is EMPTY for _ in range(100))


def test_size_weighted_bad_pmf_rejected():
    rule = SizeWeightedContraction(lambda k, n: 0.4)
    with pytest.raises(ValueError):
        contract(Span(0, 3), rule, Stream(0))


def test_size_weighted_nan_pmf_rejected():
    # NaN fails both the sign and the sum comparison, so it must be caught
    # as a weight that is not >= 0.
    from boxchain import estimate_occupancy, evolve

    rule = SizeWeightedContraction(lambda k, n: math.nan if k == 1 else float(k == 0))
    with pytest.raises(ValueError, match="NaN"):
        contract(Span(0, 3), rule, Stream(0))
    with pytest.raises(ValueError, match="NaN"):
        estimate_occupancy(Span(0, 3), 1, [0], 100, rule=rule)
    with pytest.raises(ValueError, match="NaN"):
        evolve(Span(0, 3), 1, rule)


def test_kill_then_uniform_default_matches_uniform():
    for n in (1, 2, 5):
        host = Span(0, n - 1)
        got = contraction_outcome_pmf(host, KillThenUniformContraction())
        want = contraction_outcome_pmf(host, UNIFORM)
        for outcome in want:
            assert got[outcome] == pytest.approx(want[outcome], abs=1e-12)


def test_kill_then_uniform_custom_death():
    rule = KillThenUniformContraction(lambda n: 0.25)
    pmf = contraction_outcome_pmf(Span(0, 1), rule)
    assert pmf[EMPTY] == pytest.approx(0.25)
    assert pmf[Span(0, 0)] == pytest.approx(0.75 / 3)
    stream = Stream(12)
    draws = 40_000
    empty = sum(contract(Span(0, 1), rule, stream) is EMPTY for _ in range(draws))
    assert abs(empty / draws - 0.25) < 0.01


def _random_choices(rule, n):
    """``random()``'s values for ``rule`` on n sites, one per branch of the
    sampler, each with its exact probability."""
    if isinstance(rule, KillThenUniformContraction):
        death = rule.death_at(n, exact=True)
        return [(0.0, death), (rule.death_at(n), 1 - death)]
    if isinstance(rule, SizeWeightedContraction):
        # The float partial sum that _draw_size adds up before size k draws k.
        below = itertools.accumulate(rule.pmf_at(n), initial=0.0)
        return list(zip(below, rule.pmf_at(n, exact=True)))
    return []


@pytest.mark.parametrize("rule", [
    UNIFORM,
    KillThenUniformContraction(),
    KillThenUniformContraction(lambda n: Fraction(1, 4)),
    EndpointResampleContraction(),
    SizeWeightedContraction(rational_sizes),
], ids=["uniform", "kill", "kill-quarter", "endpoint", "size-weighted"])
def test_contract_enumerated_is_the_reference_law(rule):
    # Every draw of the scalar sampler, weighted by its probability, in
    # Fractions: the law must be the enumerated one exactly.
    for n in range(1, 7):
        host = Span(-2, n - 3)
        law = draw_law(lambda draws: contract(host, rule, draws), _random_choices(rule, n))
        want = contraction_outcome_pmf(host, rule, exact=True)
        assert law == {outcome: mass for outcome, mass in want.items() if mass}, n


# ---------------------------------------------------------------------------
# expansion and steps


def test_expand_empty_and_shift():
    assert expand(EMPTY, 0.5, Stream(0)) is EMPTY
    stream = Stream(3)
    draws = 60_000
    unchanged = sum(expand(Span(0, 0), 0.5, stream) == Span(0, 0) for _ in range(draws))
    assert abs(unchanged / draws - 0.25) < 0.01  # (1-p)^2


def test_expand_scripted_draws():
    from conftest import StubStream

    assert expand(Span(0, 0), 0.5, StubStream(geometric=[2, 0])) == Span(-2, 0)
    assert expand(Span(-1, 3), 0.5, StubStream(geometric=[0, 4])) == Span(-1, 7)


def test_expand_only_grows():
    stream = Stream(5)
    for _ in range(3000):
        result = expand(Span(-1, 2), 0.7, stream)
        assert result.left <= -1 and result.right >= 2


def test_step_from_point():
    stream = Stream(9)
    draws = 100_000
    died = 0
    holds_origin = 0
    for _ in range(draws):
        result = step(Span(0, 0), UNIFORM, 0.5, stream)
        if result is EMPTY:
            died += 1
        elif 0 in result:
            holds_origin += 1
    assert abs(died / draws - 0.5) < 0.01
    assert abs(holds_origin / draws - 0.5) < 0.01  # survival keeps the origin


def test_simulate_path_shape_and_absorption():
    stream = Stream(21)
    for seed in range(50):
        path = simulate_path(Span(0, 0), 40, UNIFORM, 0.5, Stream(seed))
        assert len(path) == 41
        assert path[0] == Span(0, 0)
        seen_empty = False
        for state in path:
            if seen_empty:
                assert state is EMPTY
            if state is EMPTY:
                seen_empty = True
    assert simulate_path(Span(0, 0), 0, UNIFORM, 0.5, stream) == [Span(0, 0)]


def test_fixed_seed_reproducible():
    one = simulate_path(Span(0, 0), 30, UNIFORM, 0.4, Stream(77))
    two = simulate_path(Span(0, 0), 30, UNIFORM, 0.4, Stream(77))
    assert one == two
