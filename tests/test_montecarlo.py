import numpy as np
import pytest

from boxchain import (
    CoupledState,
    PairClass,
    Span,
    Stream,
    antithetic_image,
    antithetic_mirror,
    classify_pair,
    coalescence_stats,
    coupled_expansion_amounts,
    coupled_step,
    dominates_nonnegative,
    check_even,
    check_monotone_1d,
    check_monotone_l1,
    coupling_invariant_check,
    coupling_marginal_test,
    estimate_occupancy,
    estimate_occupancy_2d,
    hoeffding_interval,
    reflect_origin,
    reflection_coupled_step,
    reflection_identity_check,
    unit_box,
    unrank_subinterval,
    wilson_interval,
)


def test_wilson_basproperties():
    lo, hi = wilson_interval(50, 100, 0.99)
    assert 0 <= lo < 0.5 < hi <= 1
    lo0, hi0 = wilson_interval(0, 100, 0.99)
    assert lo0 == 0.0 and hi0 > 0
    lo1, hi1 = wilson_interval(100, 100, 0.99)
    assert hi1 == 1.0 and lo1 < 1
    narrow = wilson_interval(500, 1000, 0.9)
    wide = wilson_interval(500, 1000, 0.999)
    assert narrow[1] - narrow[0] < wide[1] - wide[0]


def test_hoeffding_wider_than_wilson_midrange():
    w = wilson_interval(5000, 10000, 0.99)
    h = hoeffding_interval(5000, 10000, 0.99)
    assert h[0] <= w[0] and h[1] >= w[1]


def test_estimate_time_zero_is_exact():
    estimates = estimate_occupancy(Span(0, 0), 0, [-1, 0, 1], 5000, p=0.5, seed=1)
    by = {e.site: e for e in estimates}
    assert by[0].estimate == 1.0 and by[0].hits == 5000
    assert by[-1].estimate == 0.0
    assert by[1].estimate == 0.0


def test_estimate_t1_matches_closed_form():
    sites = list(range(-4, 5))
    estimates = estimate_occupancy(Span(0, 0), 1, sites, 400_000, p=0.5, seed=2)
    for e in estimates:
        truth = 0.5 * 0.5 ** abs(e.site)
        assert e.ci_lo <= truth <= e.ci_hi
        assert 0 <= e.ci_lo <= e.estimate <= e.ci_hi <= 1


def test_estimates_reproducible_and_schedule_independent():
    one = estimate_occupancy(Span(0, 0), 2, [0, 1, 2], 50_000, p=0.5, seed=7)
    two = estimate_occupancy(Span(0, 0), 2, [0, 1, 2], 50_000, p=0.5, seed=7)
    threaded = estimate_occupancy(Span(0, 0), 2, [0, 1, 2], 50_000, p=0.5, seed=7, jobs=4)
    assert one == two == threaded
    other_seed = estimate_occupancy(Span(0, 0), 2, [0, 1, 2], 50_000, p=0.5, seed=8)
    assert other_seed != one


def test_estimate_2d_t1_closed_form():
    points = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
    estimates = estimate_occupancy_2d(unit_box(2), 1, points, 400_000, p=0.5, seed=3)
    for e in estimates:
        x, y = e.site
        truth = 0.5 * 0.5 ** (abs(x) + abs(y))
        assert e.ci_lo <= truth <= e.ci_hi


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_occupancy(Span(0, 0), 1, [0], 0)
    with pytest.raises(ValueError):
        estimate_occupancy(Span(0, 0), -1, [0], 10)
    with pytest.raises(ValueError):
        estimate_occupancy(Span(0, 0), 1, [0], 10, p=1.0)
    from boxchain import Box
    with pytest.raises(ValueError):
        estimate_occupancy_2d(Box((Span(0, 0),)), 1, [(0, 0)], 10)
    with pytest.raises(KeyError):
        estimate_occupancy(Span(0, 0), 1, [0], 10, method="bogus")


def test_check_even_passes_and_detects_bias():
    honest = check_even(2, 0.5, 6, 150_000, seed=4)
    assert honest.passed, honest
    assert honest.worst_margin <= 0
    biased = check_even(2, 0.5, 6, 150_000, seed=4, one_sided_expansion=True)
    assert not biased.passed


def test_check_even_t0_trivial():
    assert check_even(0, 0.5, 3, 1000, seed=0).passed


def test_check_monotone_1d_passes():
    report = check_monotone_1d(2, 0.5, 8, 150_000, seed=5)
    assert report.passed, report
    for p in (0.2, 0.8):
        assert check_monotone_1d(2, p, 6, 100_000, seed=6).passed


def test_monotone_ratio_detectable_at_t1():
    estimates = {e.site: e for e in estimate_occupancy(Span(0, 0), 1, [1, 2, 3], 400_000, p=0.5, seed=7)}
    for x in (1, 2):
        ratio = estimates[x + 1].estimate / estimates[x].estimate
        assert abs(ratio - 0.5) < 0.05


def test_check_monotone_1d_vacuous_beyond_reach():
    # At t=1 nothing lives past the truncation of a short run; estimates of
    # 0 vs 0 compare within any margin.
    report = check_monotone_1d(1, 0.5, 30, 20_000, seed=16)
    assert report.passed


def test_check_monotone_l1_t0_trivial():
    assert check_monotone_l1(2, 0, 0.5, 2, 2_000, seed=17).passed


def test_check_monotone_l1_t1_passes():
    report = check_monotone_l1(2, 1, 0.5, 3, 200_000, seed=8)
    assert report.passed, report


def test_check_monotone_l1_ties_fail_at_t2():
    # Genuine property of the dynamics: sites of equal L1 norm are not
    # equally occupied once t >= 2 (the diagonal beats the axis), so the
    # tied-norm comparison fails decisively.
    report = check_monotone_l1(2, 2, 0.5, 2, 200_000, seed=9)
    assert not report.passed
    assert report.worst_margin > 0.01


def test_check_monotone_l1_rejects_other_dims():
    with pytest.raises(ValueError):
        check_monotone_l1(3, 1, 0.5, 2, 100)


def test_coupling_marginal_test_passes():
    report = coupling_marginal_test(2, 0.5, 120_000, seed=10)
    assert report.passed, report


def test_coupling_marginal_test_detects_copied_contraction():
    report = coupling_marginal_test(2, 0.5, 120_000, seed=10, skip_antithetic_map=True)
    assert not report.passed


def test_coupling_invariant_check_passes():
    report = coupling_invariant_check(30, 0.5, 3_000, seed=11)
    assert report.passed
    assert report.worst_margin == 0.0
    assert report.params["coalesced_runs"] > 0


def test_reflection_identity_check_passes_and_mutant_fails():
    honest = reflection_identity_check(30, 0.5, 3_000, seed=12)
    assert honest.passed
    broken = reflection_identity_check(30, 0.5, 3_000, seed=12, swap_expansion_draws=False)
    assert not broken.passed


def test_coalescence_stats_first_step_probability():
    # From the canonical pair, one step resolves with probability
    # 1/2 (both die) + 1/2 * p (survive and coalesce).
    p = 0.5
    summary = coalescence_stats(p, 1, 40_000, seed=13)
    want = 0.5 + 0.5 * p
    assert summary.first_event_times.get(1, 0) == summary.coalesced + summary.absorbed
    assert abs(summary.resolved_fraction - want) < 0.01
    assert summary.censored == summary.trials - summary.coalesced - summary.absorbed


def test_coalescence_fraction_nondecreasing_in_horizon():
    previous = -1.0
    for horizon in (1, 3, 10, 30):
        summary = coalescence_stats(0.5, horizon, 4_000, seed=14)
        assert 0.0 <= summary.resolved_fraction <= 1.0
        assert summary.resolved_fraction >= previous
        previous = summary.resolved_fraction


def test_report_rows_are_stable():
    report = check_even(1, 0.5, 2, 10_000, seed=15)
    row_a = report.as_row()
    row_b = check_even(1, 0.5, 2, 10_000, seed=15).as_row()
    assert row_a == row_b


def test_vector_unrank_matches_scalar():
    from boxchain import unrank_subinterval
    from boxchain.montecarlo import _unrank_offsets_vec

    for n in range(1, 61):
        total = n * (n + 1) // 2
        a, b = _unrank_offsets_vec(
            np.full(total, n, np.int64), np.arange(total, dtype=np.int64)
        )
        for i0 in range(total):
            span = unrank_subinterval(Span(0, n - 1), i0 + 1)
            assert (a[i0], b[i0]) == (span.left, span.right)
    rng = np.random.default_rng(0)
    for n in (500, 5000, 100_000):
        total = n * (n + 1) // 2
        ranks = rng.integers(0, total, 200)
        a, b = _unrank_offsets_vec(np.full(200, n, np.int64), ranks)
        for j in range(200):
            span = unrank_subinterval(Span(0, n - 1), int(ranks[j]) + 1)
            assert (int(a[j]), int(b[j])) == (span.left, span.right)


def test_uniform_contraction_marginal_four_sigma():
    # Every one of the n(n+1)/2 + 1 outcomes lands within four standard
    # deviations of the uniform share, one million draws per host size.
    draws = 1_000_000
    for n in range(1, 9):
        total = n * (n + 1) // 2
        stream = Stream(100 + n)
        index = stream.integers_upto(np.full(draws, total, dtype=np.int64))
        counts = np.bincount(index, minlength=total + 1)
        share = 1.0 / (total + 1)
        sigma = (draws * share * (1 - share)) ** 0.5
        assert np.abs(counts - draws * share).max() < 4 * sigma


# ---------------------------------------------------------------------------
# the batched coupled-pair engine against the scalar reference


def _fixed_draw_cases(hosts):
    """Every (host, rank, right run, left run) with runs 0..6."""
    from boxchain import count_nonempty_subintervals

    return [
        (host, rank, right, left)
        for host in hosts
        for rank in range(count_nonempty_subintervals(host.size) + 1)
        for right in range(7)
        for left in range(7)
    ]


def _batch_of(cases, second_of, coalesced=False):
    from boxchain.montecarlo import _PairBatch

    pairs = _PairBatch(len(cases), Span(0, 0), Span(0, 0))
    for i, (host, _, _, _) in enumerate(cases):
        second = second_of(host)
        pairs.ml[i], pairs.mr[i] = host.left, host.right
        pairs.pl[i], pairs.pr[i] = second.left, second.right
    pairs.coalesced[:] = coalesced
    columns = [np.array([case[k] for case in cases], np.int64) for k in (1, 2, 3)]
    return pairs, np.arange(len(cases)), columns


def _surface_stream(rank, right, left):
    """Stub draws for the scalar coupled step: the contraction rank, the
    minus right and left Bernoulli surfaces (runs of 1s ended by a 0), and
    geometric amounts (left, right) for a shared expansion."""
    from conftest import StubStream

    bits = [0.0] * right + [0.99] + [0.0] * left + [0.99]
    return StubStream(randbelow=[rank], geometric=[left, right], random=bits)


def test_batched_antithetic_step_matches_scalar_on_fixed_draws():
    # Hosts further left than -7 never meet their mirror, like those at -7.
    spans = [Span(left, left + size - 1) for left in range(-7, 0) for size in range(1, 7)]
    hosts = [h for h in spans if classify_pair(h, antithetic_mirror(h)) is PairClass.ANTITHETIC]
    cases = _fixed_draw_cases(hosts)
    for skip in (False, True):
        pairs, rows, draws = _batch_of(cases, antithetic_mirror)
        pairs.antithetic_step(rows, *draws, skip_antithetic_map=skip)
        for i, (host, rank, right, left) in enumerate(cases):
            want = coupled_step(
                CoupledState(host, antithetic_mirror(host), False),
                0.5,
                _surface_stream(rank, right, left),
                skip_antithetic_map=skip,
            )
            assert (*pairs.states(i), bool(pairs.coalesced[i])) == (
                want.minus, want.plus, want.coalesced
            ), (host, rank, right, left, skip)
            # The same states from the documented pieces.
            sub = unrank_subinterval(host, rank)
            if sub is not None and not skip:
                image = antithetic_image(host, sub)
                if image != sub:
                    offset = image.right - sub.right
                    _, ml, mr, pl, pr = coupled_expansion_amounts(right, left, offset)
                    assert pairs.states(i) == (
                        Span(sub.left - ml, sub.right + mr),
                        Span(image.left - pl, image.right + pr),
                    )


def test_batched_coalesced_step_matches_scalar_on_fixed_draws():
    hosts = [Span(left, left + size - 1) for left in range(-4, 3) for size in range(1, 7)]
    cases = _fixed_draw_cases(hosts)
    pairs, rows, draws = _batch_of(cases, lambda host: host, coalesced=True)
    pairs.antithetic_step(rows, *draws)
    for i, (host, rank, right, left) in enumerate(cases):
        want = coupled_step(CoupledState(host, host, True), 0.5, _surface_stream(rank, right, left))
        assert (*pairs.states(i), bool(pairs.coalesced[i])) == (want.minus, want.plus, True)
        assert bool(pairs.dead[i]) == (rank == 0)


def test_batched_reflection_step_matches_scalar_on_fixed_draws():
    from conftest import StubStream

    hosts = [Span(left, left + size - 1) for left in range(-4, 3) for size in range(1, 7)]
    cases = _fixed_draw_cases(hosts)
    for swap in (True, False):
        pairs, rows, draws = _batch_of(cases, reflect_origin)
        pairs.reflection_step(rows, *draws, swap_expansion_draws=swap)
        for i, (host, rank, right, left) in enumerate(cases):
            stream = StubStream(randbelow=[rank], geometric=[left, right])
            want = reflection_coupled_step(
                host, reflect_origin(host), 0.5, stream, swap_expansion_draws=swap
            )
            assert pairs.states(i) == want, (host, rank, right, left, swap)
            assert bool(pairs.mirrored(np.array([i]))[0]) == (want[1] == reflect_origin(want[0]))


def test_batched_pair_predicates_match_scalar():
    from boxchain.montecarlo import _PairBatch

    rng = np.random.default_rng(3)
    size = 4000
    pairs = _PairBatch(size, Span(0, 0), Span(0, 0))
    pairs.ml[:] = rng.integers(-6, 4, size)
    pairs.mr[:] = pairs.ml + rng.integers(0, 6, size)
    kind = rng.integers(0, 4, size)
    mirror = kind == 0
    pairs.pl[:] = np.where(mirror, -1 - pairs.mr, pairs.ml)
    pairs.pr[:] = np.where(mirror, -1 - pairs.ml, pairs.mr)
    other = kind == 1
    pairs.pl[other] = rng.integers(-6, 4, other.sum())
    pairs.pr[other] = pairs.pl[other] + rng.integers(0, 6, other.sum())
    reflected = kind == 2
    pairs.pl[reflected] = -pairs.mr[reflected]
    pairs.pr[reflected] = -pairs.ml[reflected]
    pairs.dead[:] = rng.random(size) < 0.1
    pairs.coalesced[:] = rng.random(size) < 0.5
    rows = np.arange(size)
    identical, antithetic = pairs.classes(rows)
    dominates = pairs.dominates(rows)
    mirrored = pairs.mirrored(rows)
    invariants = pairs.invariants_hold(rows)
    seen = set()
    for i in rows:
        minus, plus = pairs.states(i)
        want = classify_pair(minus, plus)
        seen.add(want)
        got = {
            (False, False): PairClass.BOTH_EMPTY if pairs.dead[i] else PairClass.UNRELATED,
            (True, False): PairClass.IDENTICAL,
            (False, True): PairClass.ANTITHETIC,
        }[bool(identical[i]), bool(antithetic[i])]
        assert got is want, (minus, plus)
        assert bool(dominates[i]) == dominates_nonnegative(minus, plus), (minus, plus)
        assert bool(mirrored[i]) == (plus == reflect_origin(minus)), (minus, plus)
        # A dead coalesced pair is (EMPTY, EMPTY): still coalesced, no identity break.
        assert bool(identical[i] | pairs.dead[i]) == (minus == plus)
        coalesced = bool(pairs.coalesced[i])
        ok = want in (PairClass.BOTH_EMPTY, PairClass.ANTITHETIC) or (
            want is PairClass.IDENTICAL and coalesced
        )
        ok = ok and not (coalesced and minus != plus) and dominates_nonnegative(minus, plus)
        assert bool(invariants[i]) == ok, (minus, plus, coalesced)
    assert seen == set(PairClass)


def test_cover_counts_match_per_site_counting():
    from boxchain.montecarlo import _SiteIndex

    rng = np.random.default_rng(5)
    for _ in range(20):
        left = rng.integers(-30, 30, 3000)
        right = left + rng.geometric(0.2, 3000) - 1
        sites = rng.integers(-40, 40, rng.integers(0, 60)).tolist()
        sites += sites[: len(sites) // 3]  # duplicates
        rng.shuffle(sites)
        got = _SiteIndex(sites).cover_counts(left, right)
        want = [np.count_nonzero((left <= x) & (x <= right)) for x in sites]
        assert got.tolist() == want


def test_first_violation_names_a_broken_mirror_state():
    report = reflection_identity_check(30, 0.5, 3_000, seed=12, swap_expansion_draws=False)
    assert not report.passed
    run, step, zeta, eta = report.params["first_violation"]
    assert 0 <= run < 3_000 and 1 <= step <= 30
    assert eta != reflect_origin(zeta)
    honest = reflection_identity_check(30, 0.5, 3_000, seed=12)
    assert "first_violation" not in honest.params
    assert "first_violation" not in coupling_invariant_check(30, 0.5, 3_000, seed=11).params


def test_invalid_confidence_fails_closed():
    import math

    # An out-of-range level must neither widen an interval to [0, 1] nor let
    # the biased one-sided expansion pass.
    with pytest.raises(ValueError):
        wilson_interval(50, 100, 1.5)
    with pytest.raises(ValueError):
        check_even(2, 0.5, 6, 200_000, seed=7, one_sided_expansion=True, confidence=1.5)
    for bad in (0.0, 1.0, 1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            hoeffding_interval(50, 100, bad)
        with pytest.raises(ValueError):
            check_even(2, 0.5, 6, 1_000, seed=7, one_sided_expansion=True, confidence=bad)
        with pytest.raises(ValueError):
            check_monotone_1d(2, 0.5, 6, 1_000, seed=7, confidence=bad)
        with pytest.raises(ValueError):
            check_monotone_l1(2, 1, 0.5, 2, 1_000, seed=7, confidence=bad)


def test_nan_margin_counts_as_failure():
    import math

    from boxchain.montecarlo import _worst_margin

    assert math.isnan(_worst_margin([-0.5, math.nan, -0.1]))
    assert not _worst_margin([-0.5, math.nan]) <= 0
    assert _worst_margin([-0.5, -0.1]) == -0.1
    assert _worst_margin([]) == -math.inf


def test_import_does_not_load_scipy():
    import subprocess
    import sys

    probe = "import sys, boxchain; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_shorter_horizon_replays_a_prefix():
    # Draws at step k depend only on the states at step k, so a shorter
    # horizon sees exactly the first events of a longer one.
    full = coalescence_stats(0.5, 30, 4_000, seed=14).first_event_times
    for horizon in (1, 3, 10):
        short = coalescence_stats(0.5, horizon, 4_000, seed=14).first_event_times
        assert short == {t: n for t, n in full.items() if t <= horizon}
