import numpy as np
import pytest

from boxchain import (
    CoupledState,
    EMPTY,
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
    with pytest.raises(ValueError):
        estimate_occupancy_2d(unit_box(2), -1, [(0, 0)], 10)
    with pytest.raises(ValueError):
        estimate_occupancy(Span(0, 0), 1, [0], 10, method="bogus")


def test_estimator_arguments_fail_closed():
    # A fractional site used to be truncated to an integer and reported
    # under the wrong label; an unknown method used to raise a bare KeyError.
    with pytest.raises(ValueError, match="0.7"):
        estimate_occupancy(Span(0, 0), 2, [0.7], 100)
    with pytest.raises(ValueError, match="1.5"):
        estimate_occupancy_2d(unit_box(2), 2, [(0, 0), (0, 1.5)], 100)
    with pytest.raises(ValueError, match="nan"):
        estimate_occupancy(Span(0, 0), 2, [float("nan")], 100)
    with pytest.raises(ValueError, match="'normal'.*hoeffding"):
        estimate_occupancy(Span(0, 0), 2, [0], 100, method="normal")
    with pytest.raises(ValueError, match="'normal'.*wilson"):
        estimate_occupancy_2d(unit_box(2), 2, [(0, 0)], 100, method="normal")
    # Integral values of other types still name the same site.
    assert [e.site for e in estimate_occupancy(Span(0, 0), 1, [2.0, np.int64(-1)], 100)] == [2, -1]


def test_empty_check_inputs_fail_closed():
    import math

    # Each of these used to pass over no runs, no steps or no comparisons
    # (a margin of -inf), or died with an IndexError or ZeroDivisionError.
    refused = {
        "horizon must be >= 1, got 0": [
            lambda: coupling_invariant_check(0, 0.5, 10),
            lambda: reflection_identity_check(0, 0.5, 10, swap_expansion_draws=False),
        ],
        "horizon must be >= 1, got -4": [lambda: reflection_identity_check(-4, 0.5, 10)],
        "horizon must be >= 0, got -2": [lambda: coalescence_stats(0.5, -2, 100)],
        "trials must be >= 1, got 0": [
            lambda: coupling_invariant_check(10, 0.5, 0),
            lambda: reflection_identity_check(10, 0.5, 0),
            lambda: coalescence_stats(0.5, 10, 0),
            lambda: coupling_marginal_test(2, 0.5, 0),
        ],
        "x_window must be >= 0, got -1": [lambda: coupling_marginal_test(2, 0.5, 100, x_window=-1)],
        "x_range must be >= 1, got 0": [
            lambda: check_even(2, 0.5, 0, 100),
            lambda: check_even(2, 0.5, 0, 100, one_sided_expansion=True),
        ],
        "x_max must be >= 1, got 0": [
            lambda: check_monotone_1d(2, 0.5, 0, 100),
            lambda: check_monotone_1d(2, 0.5, 0, 100, one_sided_expansion=True),
        ],
        "radius must be >= 1, got 0": [lambda: check_monotone_l1(2, 1, 0.5, 0, 100)],
    }
    for message, calls in refused.items():
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
    for significance in (0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="significance must lie in"):
            coupling_marginal_test(2, 0.5, 100, significance=significance)
    # The least inputs that still compare something run.
    assert coalescence_stats(0.5, 0, 10).censored == 10
    assert coupling_marginal_test(1, 0.5, 100, x_window=0).params["x_window"] == 0
    assert check_monotone_1d(1, 0.5, 1, 100).worst_margin > -math.inf


def test_horizons_and_trial_counts_must_be_integers():
    # A float count used to die deep inside with a bare TypeError from range,
    # or ran: wilson_interval(0.5, 100.5) gave (0.00033, 0.0709),
    # geometric_pmf(0.5, 1.5) 0.177 and count_nonempty_subintervals(2.5) 4.0.
    import re
    from fractions import Fraction

    from boxchain import (
        UNIFORM,
        TruncationPolicy,
        count_nonempty_subintervals,
        coupling_transition_check,
        evolve,
        geometric_pmf,
        l1_ball,
        run_coupled,
        run_reflection,
        simulate_path,
        simulate_path_rect,
    )

    entries = {
        "horizon": [
            lambda v: evolve(Span(0, 0), v).weights,
            lambda v: simulate_path(Span(0, 0), v, UNIFORM, 0.5, Stream(0)),
            lambda v: simulate_path_rect(unit_box(2), v, 0.5, Stream(0)),
            lambda v: run_coupled(v, 0.5),
            lambda v: run_reflection(v, 0.5),
            lambda v: coupling_invariant_check(v, 0.5, 10),
            lambda v: reflection_identity_check(v, 0.5, 10),
            lambda v: coalescence_stats(0.5, v, 10),
        ],
        "t": [
            lambda v: estimate_occupancy(Span(0, 0), v, [0], 100),
            lambda v: estimate_occupancy_2d(unit_box(2), v, [(0, 0)], 100),
            lambda v: coupling_marginal_test(v, 0.5, 100),
        ],
        "trials": [
            lambda v: estimate_occupancy(Span(0, 0), 2, [0], v),
            lambda v: estimate_occupancy_2d(unit_box(2), 2, [(0, 0)], v),
            lambda v: coupling_marginal_test(2, 0.5, v),
            lambda v: coupling_invariant_check(2, 0.5, v),
            lambda v: reflection_identity_check(2, 0.5, v),
            lambda v: coalescence_stats(0.5, 2, v),
            lambda v: wilson_interval(1, v),
            lambda v: hoeffding_interval(1, v),
        ],
        "surface_len": [lambda v: coupling_transition_check(Span(-1, -1), Fraction(1, 2), v)],
        "hits": [lambda v: wilson_interval(v, 100), lambda v: hoeffding_interval(v, 100)],
        "n": [lambda v: geometric_pmf(0.5, v), lambda v: count_nonempty_subintervals(v)],
        "index": [lambda v: unrank_subinterval(Span(0, 3), v)],
        "jobs": [lambda v: estimate_occupancy(Span(0, 0), 1, [0], 100, jobs=v)],
        "n_max": [lambda v: TruncationPolicy(v).n_max],
        "dim": [lambda v: unit_box(v), lambda v: l1_ball(1, v)],
        "radius": [lambda v: l1_ball(v, 2)],
    }
    for what, calls in entries.items():
        for call in calls:
            for bad in (2.5, "2", None):
                with pytest.raises(ValueError, match=f"{what} must be an integer, got {re.escape(repr(bad))}"):
                    call(bad)
            # An integral value of another type runs as its int, a bool too,
            # as for a site, n_max or a seed.
            assert call(2.0) == call(np.int64(2)) == call(2)
            assert call(True) == call(1)


def test_open_unit_parameters_keep_their_messages():
    import math

    calls = {
        "expansion parameter": lambda v: estimate_occupancy(Span(0, 0), 1, [0], 100, p=v),
        "confidence": lambda v: wilson_interval(50, 100, v),
        "significance": lambda v: coupling_marginal_test(1, 0.5, 100, significance=v),
    }
    for what, call in calls.items():
        for bad in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValueError, match=rf"{what} must lie in \(0, 1\), got {bad!r}"):
                call(bad)


def test_checks_record_the_counts_they_ran():
    # check_even(2.0, 0.5, 1, 100.0).params used to record t=2.0, trials=100.0,
    # and check_monotone_l1(2.0, ...) died with a TypeError inside l1_ball.
    reports = [
        check_even(2.0, 0.5, 1, 100.0),
        check_monotone_1d(np.int64(2), 0.5, 1, 100.0),
        check_monotone_l1(2.0, 2.0, 0.5, 1, np.int64(100)),
    ]
    for report in reports:
        assert type(report.params["t"]) is int and report.params["t"] == 2
        assert type(report.params["trials"]) is int and report.params["trials"] == 100
    assert type(reports[2].params["d"]) is int
    assert check_even(2.0, 0.5, 1, 100.0) == check_even(2, 0.5, 1, 100)
    with pytest.raises(ValueError, match="d must be an integer, got 2.5"):
        check_monotone_l1(2.5, 1, 0.5, 1, 100)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_fail_closed(jobs):
    calls = [
        lambda: estimate_occupancy(Span(0, 0), 1, [0], 100, jobs=jobs),
        lambda: estimate_occupancy_2d(unit_box(2), 1, [(0, 0)], 100, jobs=jobs),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            call()


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


def _decoded_offsets(n, ranks):
    """Offsets within [0, n-1] of the sub-intervals of ``ranks`` (counted
    from the first, as :func:`unrank_subinterval` does, less one), decoded
    from their complements as the sampler does."""
    from boxchain.montecarlo import _from_right

    ranks = np.asarray(ranks, np.int64)
    k, j = _from_right(n * (n + 1) // 2 - 1 - ranks)
    return n - 1 - k, n - 1 - j


def test_vector_unrank_matches_scalar():
    from boxchain import unrank_subinterval

    for n in range(1, 61):
        total = n * (n + 1) // 2
        a, b = _decoded_offsets(n, np.arange(total))
        for i0 in range(total):
            span = unrank_subinterval(Span(0, n - 1), i0 + 1)
            assert (a[i0], b[i0]) == (span.left, span.right)
    rng = np.random.default_rng(0)
    for n in (500, 5000, 100_000):
        total = n * (n + 1) // 2
        ranks = rng.integers(0, total, 200)
        a, b = _decoded_offsets(n, ranks)
        for j in range(200):
            span = unrank_subinterval(Span(0, n - 1), int(ranks[j]) + 1)
            assert (int(a[j]), int(b[j])) == (span.left, span.right)


def test_rank_decode_table_matches_isqrt():
    # Every rank in the lookup table, and ranks past its end, which take the
    # closed form, in one array and alone: k = (isqrt(8r + 1) - 1) // 2.
    import math

    from boxchain.montecarlo import _DECODE, _from_right

    end = len(_DECODE)
    past = [end, end + 1, 10**6, 2**53 + 3, 2**60 - 1]
    cases = [(ranks, None) for ranks in (np.arange(end + 3000), np.arange(end + 1),
                                         np.array([5, *past, 0, end - 1]).reshape(2, 4), np.array(past))]
    # Every rank of a host of 128 sites, the table's largest, and of 129,
    # whose last ranks lie past it, with and without the largest side given.
    assert end == 128 * 129 // 2
    cases += [(np.arange(n * (n + 1) // 2), sides) for n in (128, 129) for sides in (None, n)]
    for ranks, sides in cases:
        k, j = _from_right(ranks, sides)
        assert k.shape == j.shape == ranks.shape
        for r, kr, jr in zip(ranks.ravel().tolist(), k.ravel().tolist(), j.ravel().tolist()):
            want = (math.isqrt(8 * r + 1) - 1) // 2
            assert (kr, jr) == (want, r - want * (want + 1) // 2), r
    assert _from_right(np.zeros((2, 0), np.int64))[0].shape == (2, 0)


def test_vector_unrank_at_the_int64_limit():
    # Near the rank limit 8r + 1 is not exact in float64, and the float root
    # overshoots at the first rank of a block, where r = T(k+1) - 1 counted
    # from the last; the last rank, where r = T(k), is where an undershoot
    # would show.
    rng = np.random.default_rng(11)
    for n in (1_518_500_249, 2**30):
        total = n * (n + 1) // 2
        ranks = []
        lefts = [0, 1, n // 2, n - 2, n - 1, *rng.integers(0, n, 50).tolist()]
        for left in lefts:
            first = left * n - left * (left - 1) // 2
            ranks += [first, first + (n - left) - 1]
        ranks += rng.integers(0, total, 200).tolist()
        a, b = _decoded_offsets(n, ranks)
        for j, rank in enumerate(ranks):
            span = unrank_subinterval(Span(0, n - 1), rank + 1)
            assert (int(a[j]), int(b[j])) == (span.left, span.right), (n, rank)


def test_box_contraction_decodes_every_axis_of_recorded_draws():
    # The complement of a draw splits into the complements of its
    # mixed-radix digits: three axes, each decoded from its host's right end,
    # must give the sub-intervals of the draw's own digits.
    import math

    from conftest import VectorStubStream

    from boxchain import UNIFORM, count_nonempty_subintervals
    from boxchain.montecarlo import _contract_chunk

    rng = np.random.default_rng(23)
    sizes = np.concatenate([rng.integers(1, 5, (3, 300)), rng.integers(1, 2000, (3, 300))], axis=1)
    lo = rng.integers(-50, 50, sizes.shape)
    hi = lo + sizes - 1
    counts = [[count_nonempty_subintervals(int(n)) for n in axis] for axis in sizes]
    totals = [math.prod(row) for row in zip(*counts)]
    draws = []
    for i, total in enumerate(totals):
        draws.append([0, 1, total, total - 1, int(rng.integers(0, total + 1))][i % 5])
    keep, left, right = _contract_chunk(lo, hi, UNIFORM, VectorStubStream(integers=[draws]), {})
    assert keep.tolist() == [i for i, draw in enumerate(draws) if draw]
    for column, i in enumerate(keep.tolist()):
        rest = draws[i] - 1
        for axis in reversed(range(3)):
            rest, digit = divmod(rest, counts[axis][i])
            want = unrank_subinterval(Span(int(lo[axis, i]), int(hi[axis, i])), digit + 1)
            assert (left[axis, column], right[axis, column]) == (want.left, want.right), (i, axis)


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
    """A pair batch of the cases' hosts, and a stream scripted with their
    draws as the engine takes them: every rank, then the survivors' left
    runs and their right runs (low face first)."""
    from conftest import VectorStubStream

    from boxchain.montecarlo import _Pairs

    pairs = _Pairs(len(cases), (Span(0, 0), Span(0, 0)))
    for i, (host, _, _, _) in enumerate(cases):
        second = second_of(host)
        pairs.lo[:, i] = host.left, second.left
        pairs.hi[:, i] = host.right, second.right
    pairs.coalesced[:] = coalesced
    rank, right, left = (np.array([case[k] for case in cases], np.int64) for k in (1, 2, 3))
    live = rank != 0
    return pairs, VectorStubStream(integers=[rank], geometric=[np.concatenate([left[live], right[live]])])


def _rows_by_case(pairs):
    """The row of each pair still in the batch, keyed by its case index."""
    return {int(run): row for row, run in enumerate(pairs.run)}


def _scalar_stream(rank, right, left):
    """Stub draws for one scalar step of a coupled pair: the contraction
    rank, then the left and right runs when the contraction survives."""
    from conftest import StubStream

    return StubStream(randbelow=[rank], geometric=[left, right] if rank else [])


def test_batched_antithetic_step_matches_scalar_on_fixed_draws():
    # Hosts further left than -7 never meet their mirror, like those at -7.
    spans = [Span(left, left + size - 1) for left in range(-7, 0) for size in range(1, 7)]
    hosts = [h for h in spans if classify_pair(h, antithetic_mirror(h)) is PairClass.ANTITHETIC]
    cases = _fixed_draw_cases(hosts)
    for skip in (False, True):
        pairs, stream = _batch_of(cases, antithetic_mirror)
        pairs.antithetic_step(0.5, stream, skip_antithetic_map=skip)
        assert stream.exhausted()
        rows = _rows_by_case(pairs)
        for i, (host, rank, right, left) in enumerate(cases):
            scalar = _scalar_stream(rank, right, left)
            want = coupled_step(
                CoupledState(host, antithetic_mirror(host), False), 0.5, scalar, skip_antithetic_map=skip
            )
            assert scalar.exhausted()
            if rank == 0:
                assert i not in rows and (want.minus, want.plus) == (EMPTY, EMPTY)
                continue
            i = rows[i]
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
    pairs, stream = _batch_of(cases, lambda host: host, coalesced=True)
    pairs.antithetic_step(0.5, stream)
    assert stream.exhausted()
    rows = _rows_by_case(pairs)
    for i, (host, rank, right, left) in enumerate(cases):
        scalar = _scalar_stream(rank, right, left)
        want = coupled_step(CoupledState(host, host, True), 0.5, scalar)
        assert scalar.exhausted()
        assert (i in rows) == (rank != 0)
        if rank == 0:
            assert (want.minus, want.plus) == (EMPTY, EMPTY)
            continue
        i = rows[i]
        assert (*pairs.states(i), bool(pairs.coalesced[i])) == (want.minus, want.plus, True)


def test_batched_reflection_step_matches_scalar_on_fixed_draws():
    hosts = [Span(left, left + size - 1) for left in range(-4, 3) for size in range(1, 7)]
    cases = _fixed_draw_cases(hosts)
    for swap in (True, False):
        pairs, batch_stream = _batch_of(cases, reflect_origin)
        pairs.reflection_step(0.5, batch_stream, swap_expansion_draws=swap)
        assert batch_stream.exhausted()
        rows = _rows_by_case(pairs)
        mirrored = pairs.mirrored()
        for i, (host, rank, right, left) in enumerate(cases):
            scalar = _scalar_stream(rank, right, left)
            want = reflection_coupled_step(
                host, reflect_origin(host), 0.5, scalar, swap_expansion_draws=swap
            )
            assert scalar.exhausted()
            if rank == 0:
                assert i not in rows and want == (EMPTY, EMPTY)
                continue
            i = rows[i]
            assert pairs.states(i) == want, (host, rank, right, left, swap)
            assert bool(mirrored[i]) == (want[1] == reflect_origin(want[0]))


def test_batched_pair_predicates_match_scalar():
    from boxchain.montecarlo import _Pairs

    rng = np.random.default_rng(3)
    size = 4000
    pairs = _Pairs(size, (Span(0, 0), Span(0, 0)))
    (ml, pl), (mr, pr) = pairs.lo, pairs.hi
    ml[:] = rng.integers(-6, 4, size)
    mr[:] = ml + rng.integers(0, 6, size)
    kind = rng.integers(0, 4, size)
    mirror = kind == 0
    pl[:] = np.where(mirror, -1 - mr, ml)
    pr[:] = np.where(mirror, -1 - ml, mr)
    other = kind == 1
    pl[other] = rng.integers(-6, 4, other.sum())
    pr[other] = pl[other] + rng.integers(0, 6, other.sum())
    reflected = kind == 2
    pl[reflected] = -mr[reflected]
    pr[reflected] = -ml[reflected]
    pairs.coalesced[:] = rng.random(size) < 0.5
    identical, antithetic = pairs.classes()
    dominates = pairs.dominates()
    mirrored = pairs.mirrored()
    invariants = pairs.invariants_hold()
    seen = set()
    for i in range(size):
        minus, plus = pairs.states(i)
        want = classify_pair(minus, plus)
        seen.add(want)
        got = {
            (False, False): PairClass.UNRELATED,
            (True, False): PairClass.IDENTICAL,
            (False, True): PairClass.ANTITHETIC,
        }[bool(identical[i]), bool(antithetic[i])]
        assert got is want, (minus, plus)
        assert bool(dominates[i]) == dominates_nonnegative(minus, plus), (minus, plus)
        assert bool(mirrored[i]) == (plus == reflect_origin(minus)), (minus, plus)
        assert bool(identical[i]) == (minus == plus)
        coalesced = bool(pairs.coalesced[i])
        ok = want is PairClass.ANTITHETIC or (want is PairClass.IDENTICAL and coalesced)
        ok = ok and not (coalesced and minus != plus) and dominates_nonnegative(minus, plus)
        assert bool(invariants[i]) == ok, (minus, plus, coalesced)
    assert seen == set(PairClass) - {PairClass.BOTH_EMPTY}


class _CountingStream:
    """A Stream that records each vector draw's method and size."""

    def __init__(self, seed):
        self.stream = Stream(seed)
        self.draws = []

    def _record(self, name, values):
        self.draws.append((name, values.size))
        return values

    def integers_upto(self, highs, size=None):
        return self._record("integers_upto", self.stream.integers_upto(highs, size))

    def geometric_array(self, p, size):
        return self._record("geometric_array", self.stream.geometric_array(p, size))

    def random_array(self, size):
        return self._record("random_array", self.stream.random_array(size))


def test_every_batched_step_draws_one_contraction_then_the_survivors_runs():
    from boxchain.montecarlo import _Batch, _Pairs

    host, pair = (Span(0, 1),), (Span(-1, -1), Span(0, 0))
    # (batch of n rows, step, faces, axes)
    steps = {
        "chain 1-D": (lambda n: _Batch(n, host), lambda b, s: b.step(0.5, s), 2, 1),
        "chain 2-D": (lambda n: _Batch(n, (Span(0, 1), Span(-1, 0))), lambda b, s: b.step(0.5, s), 2, 2),
        "one-sided": (lambda n: _Batch(n, host), lambda b, s: b.step(0.8, s, one_sided=True), 1, 1),
        "antithetic": (lambda n: _Pairs(n, pair), lambda b, s: b.antithetic_step(0.5, s), 2, 1),
        "reflection": (lambda n: _Pairs(n, (Span(0, 0),) * 2), lambda b, s: b.reflection_step(0.5, s), 2, 1),
    }
    for name, (make, step, faces, axes) in steps.items():
        stream = _CountingStream(7)
        batch = make(500)
        for _ in range(3):
            live = len(batch)
            stream.draws.clear()
            step(batch, stream)
            # Rows die at every step, and the dead get no runs.
            assert 0 < len(batch) < live, name
            assert stream.draws == [
                ("integers_upto", live), ("geometric_array", faces * axes * len(batch))
            ], name
        stream.draws.clear()
        step(make(0), stream)
        assert stream.draws == [], name


def test_a_batch_reads_each_size_weighted_rules_own_pmfs():
    # A batch keeps the cumulative pmfs of the rule it last contracted under;
    # a new rule must read its own, even at a size the old rule has read.
    from boxchain.intervals import SizeWeightedContraction
    from boxchain.montecarlo import _Batch

    keep_size = SizeWeightedContraction(lambda k, n: float(k == n))
    empty = SizeWeightedContraction(lambda k, n: float(k == 0))
    batch = _Batch(50, (Span(0, 3),))
    for rule, survivors in ((keep_size, 50), (empty, 0), (keep_size, 50)):
        keep, lo, hi, _ = batch.contract(1, rule, 0.5, Stream(3))
        assert keep.size == survivors
        assert (lo == 0).all() and (hi == 3).all()


def test_cover_counts_match_per_site_counting():
    from boxchain.montecarlo import _SiteIndex

    rng = np.random.default_rng(5)
    for _ in range(20):
        left = rng.integers(-30, 30, 3000)
        right = left + rng.geometric(0.2, 3000) - 1
        left[0], right[1] = -(2**40), 2**40  # ends far past the sites
        sites = rng.integers(-40, 40, rng.integers(0, 60)).tolist()
        sites += sites[: len(sites) // 3]  # duplicates
        rng.shuffle(sites)
        got = _SiteIndex(sites).cover_counts(left, right)
        want = [np.count_nonzero((left <= x) & (x <= right)) for x in sites]
        assert got.tolist() == want
    # Boxes in two and three dimensions, endpoints one row per axis.
    for dim in (2, 3, 2, 3):
        lo = rng.integers(-6, 6, (dim, 2000))
        hi = lo + rng.geometric(0.3, (dim, 2000)) - 1
        points = [tuple(p) for p in rng.integers(-8, 8, (rng.integers(1, 40), dim)).tolist()]
        points += points[:5]  # duplicates
        got = _SiteIndex(points, dim).cover_counts(lo, hi)
        want = []
        for point in points:
            column = np.array(point)[:, None]
            want.append(np.count_nonzero(np.all((lo <= column) & (column <= hi), axis=0)))
        assert got.tolist() == want
    # Sites spanning more than the dense bound are searched, and planar
    # points scattered wider than one block sweep in several; the other
    # axes and the narrow cases above count by table lookup.
    from boxchain import montecarlo

    wide = [-montecarlo._SWEEP_CELLS, -7, 0, 3, 3, 50, montecarlo._SWEEP_CELLS]
    left = rng.integers(-60, 60, 3000)
    right = left + rng.geometric(0.02, 3000) - 1
    left[:4], right[:4] = -montecarlo._SWEEP_CELLS - 1, [-2, montecarlo._SWEEP_CELLS, 2**40, 0]
    index = _SiteIndex(wide)
    assert index.tables == [None]
    want = [np.count_nonzero((left <= x) & (x <= right)) for x in wide]
    assert index.cover_counts(left, right).tolist() == want
    # A table one site past a coordinate at an end of int64 would not fit.
    for edge in (-(2**63), 2**63 - 1):
        sites = [edge, edge - 3 if edge > 0 else edge + 3]
        left = np.array([edge, sites[1], 0, -(2**62)], np.int64)
        right = np.array([edge, sites[1], 2**62, 2**62], np.int64)
        index = _SiteIndex(sites)
        assert index.tables == [None]
        want = [np.count_nonzero((left <= x) & (x <= right)) for x in sites]
        assert index.cover_counts(left, right).tolist() == want
    points = [tuple(p) for p in rng.integers(-10**4, 10**4, (2000, 2)).tolist()]
    lo = rng.integers(-10**4, 10**4, (2, 300))
    hi = lo + rng.integers(0, 6000, (2, 300))
    index = _SiteIndex(points, 2)
    assert len(index.blocks) > 1 and None not in index.tables
    assert index.cover_counts(lo, hi).tolist() == brute_force_cover(points, lo, hi)
    # No points, and no boxes.
    for dim in (1, 2, 3):
        lo = rng.integers(-6, 6, (dim, 50))
        assert _SiteIndex([], dim).cover_counts(lo, lo).tolist() == []
        points = [(0,) * dim, (1,) * dim]
        empty = np.zeros((dim, 0), np.int64)
        assert _SiteIndex(points, dim).cover_counts(empty, empty).tolist() == [0, 0]


def brute_force_cover(points, lo, hi):
    want = []
    for point in points:
        column = np.array(point)[:, None]
        want.append(np.count_nonzero(np.all((lo <= column) & (column <= hi), axis=0)))
    return want


def test_cover_counts_scattered_points_sweep_in_blocks(monkeypatch):
    from boxchain import montecarlo
    from boxchain.montecarlo import _SiteIndex

    rng = np.random.default_rng(8)
    # 2000 scattered planar points: 2001 x 2001 grid cells, swept in blocks.
    points = [tuple(p) for p in rng.integers(-10**4, 10**4, (2000, 2)).tolist()]
    lo = rng.integers(-10**4, 10**4, (2, 300))
    hi = lo + rng.integers(0, 6000, (2, 300))
    index = _SiteIndex(points, 2)
    assert len(index.blocks) > 1
    assert max(rows.size + 1 for rows, _, _ in index.blocks) * 2001 <= 2 * montecarlo._SWEEP_CELLS
    assert index.cover_counts(lo, hi).tolist() == brute_force_cover(points, lo, hi)
    # Tiny blocks, down to one row each, in one to three dimensions.
    for cells in (1, 7, 64):
        monkeypatch.setattr(montecarlo, "_SWEEP_CELLS", cells)
        for dim in (1, 2, 3):
            lo = rng.integers(-6, 6, (dim, 500))
            hi = lo + rng.geometric(0.3, (dim, 500)) - 1
            points = [tuple(p) for p in rng.integers(-8, 8, (40, dim)).tolist()]
            points += points[:5]  # duplicates
            got = _SiteIndex(points, dim).cover_counts(lo, hi)
            assert got.tolist() == brute_force_cover(points, lo, hi)


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


@pytest.mark.parametrize("confidence", [1.5, 0.0, float("nan")])
def test_estimators_refuse_a_bad_confidence_before_sampling(monkeypatch, confidence):
    from boxchain import montecarlo

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the confidence")

    monkeypatch.setattr(montecarlo, "_run_chunks", no_sampling)
    with pytest.raises(ValueError, match="confidence"):
        estimate_occupancy(Span(0, 0), 3, range(-10, 11), 2_000_000, confidence=confidence)
    with pytest.raises(ValueError, match="confidence"):
        estimate_occupancy_2d(unit_box(2), 3, [(0, 0)], 2_000_000, confidence=confidence)


def test_hits_outside_trials_fail_closed():
    import math

    for hits in (150, 101, -1, math.nan):
        with pytest.raises(ValueError):
            wilson_interval(hits, 100)
        with pytest.raises(ValueError):
            hoeffding_interval(hits, 100)
    assert hoeffding_interval(100, 100)[1] == 1.0


def test_fixed_seed_hits_are_pinned():
    # Recorded before the 1-D and planar samplers shared one chunk core, and
    # re-recorded when the vector draws became the scalar draws' rules on
    # raw words; any change to the order or the number of draws moves these
    # counts.
    from boxchain import Box
    from boxchain.intervals import EndpointResampleContraction, KillThenUniformContraction

    def hits(estimates):
        return [e.hits for e in estimates]

    assert hits(estimate_occupancy(Span(0, 0), 3, [3, -2, 0, 1, 0, -1], 20_000, seed=1)) == [
        1811, 2641, 3908, 3416, 3908, 3459
    ]
    assert hits(
        estimate_occupancy(Span(-1, 2), 20, [-3, 0, 4], 20_000, seed=2, p=0.7, jobs=2)
    ) == [1149, 1209, 1153]
    kill = KillThenUniformContraction()
    assert hits(estimate_occupancy(Span(0, 0), 2, [-1, 0, 2], 20_000, seed=3, rule=kill)) == [
        4582, 5938, 3039
    ]
    endpoint = EndpointResampleContraction()
    assert hits(
        estimate_occupancy(Span(0, 0), 2, [-1, 0, 2], 20_000, seed=3, rule=endpoint)
    ) == [12221, 16609, 7684]
    assert hits(
        estimate_occupancy(Span(0, 0), 2, [-1, 0, 2], 20_000, seed=3, one_sided_expansion=True)
    ) == [0, 4642, 3014]
    points = [(1, 1), (2, 0), (0, 0), (-1, 0), (1, 1)]
    assert hits(estimate_occupancy_2d(unit_box(2), 3, points, 20_000, seed=1)) == [
        2567, 2236, 3529, 3066, 2567
    ]
    wide = Box((Span(-1, 2), Span(0, 0)))
    assert hits(
        estimate_occupancy_2d(wide, 2, [(0, 0), (3, -1), (-2, 1)], 20_000, seed=4, jobs=2)
    ) == [8737, 3476, 3574]
    # Recorded before each step's runs became one draw: planar and
    # one-sided runs at p != 1/2, whose logs are numpy's.
    assert hits(estimate_occupancy_2d(unit_box(2), 3, points, 20_000, seed=1, p=0.8)) == [
        4051, 3952, 4179, 4092, 4051
    ]
    assert hits(
        estimate_occupancy_2d(wide, 2, [(0, 0), (3, -1), (-2, 1)], 20_000, seed=4, p=0.3, jobs=2)
    ) == [7324, 1161, 1100]
    assert hits(
        estimate_occupancy(Span(0, 0), 2, [-1, 0, 2, 4], 20_000, seed=3, p=0.8,
                           one_sided_expansion=True)
    ) == [0, 3672, 5589, 4998]


def test_sampler_paths_are_pinned():
    # Recorded before the chunk sampler dropped dead rows instead of masking
    # them: the size-weighted rule, chunks in which every row dies before t
    # (all of them by t = 40), and the per-time counts of the coupling check.
    from boxchain.intervals import KillThenUniformContraction, SizeWeightedContraction

    def hits(estimates):
        return [e.hits for e in estimates]

    weighted = SizeWeightedContraction(lambda k, n: (k + 1) / ((n + 1) * (n + 2) / 2))
    assert hits(
        estimate_occupancy(Span(0, 2), 3, [-2, 0, 1, 3, 5], 20_000, seed=5, rule=weighted)
    ) == [6188, 10879, 11757, 8711, 4156]
    kill = KillThenUniformContraction()
    sites = [-1, 0, 1, 2]
    expected = {
        (None, 14): [4, 6, 1, 1],
        (None, 16): [1, 2, 1, 2],
        (None, 40): [0, 0, 0, 0],
        (kill, 18): [1, 1, 0, 0],
        (kill, 40): [0, 0, 0, 0],
    }
    for (rule, t), pinned in expected.items():
        rules = {} if rule is None else {"rule": rule}
        assert hits(estimate_occupancy(Span(0, 0), t, sites, 40_000, seed=6, p=0.1, **rules)) == pinned
    # Re-recorded when coupled pairs took the chunk sampler's draw protocol,
    # and when the vector draws moved to raw words.
    assert coupling_marginal_test(2, 0.5, 4000, seed=9).as_row() == (
        "coupling-marginals",
        "p=0.5;seed=9;significance=0.001;t=2;trials=4000;x_window=8",
        "-0.002366335016901547",
        "pass",
    )


def test_pair_engine_draws_are_pinned():
    # Recorded when coupled pairs took the chunk sampler's draw protocol:
    # runs drawn after the kill, for survivors only, low face first, and
    # re-recorded when the vector draws moved to raw words.  9000
    # trials make a second, partial chunk.  By the horizon every chunk at
    # p = 0.5 has died out, and so has every chunk of the reflection
    # mutant, which stops each run at its violation.
    horizon, trials = 200, 9000
    pinned = {
        # (p, seed): coalesced runs of the invariants check and of its
        # skip-map mutant, the reflection mutant's margin and first
        # violation, and coalescence_stats' (coalesced, absorbed,
        # censored, sum of t n, sum of t^2 n) over its first event times.
        (0.5, 1): (3078, 4468, 3833, (0, 1, Span(0, 2), Span(0, 2)), (3156, 5844, 0, 14613, 52497)),
        (0.5, 2): (3092, 4471, 3771, (2, 1, Span(0, 1), Span(0, 1)), (3073, 5927, 0, 14492, 50882)),
        (0.8, 1): (4173, 4468, 4503, (0, 1, Span(-1, 9), Span(-1, 9)), (4224, 4776, 0, 13750, 190548)),
        (0.8, 2): (4185, 4471, 4385, (2, 1, Span(0, 3), Span(0, 3)), (4169, 4831, 0, 13515, 157071)),
    }
    for (p, seed), (runs, mutant_runs, broken, first, summary) in pinned.items():
        common = f"horizon={horizon};p={p};seed={seed};trials={trials}"
        for skip, coalesced in ((False, runs), (True, mutant_runs)):
            report = coupling_invariant_check(horizon, p, trials, seed, skip_antithetic_map=skip)
            assert report.as_row() == (
                "coupling-invariants", f"coalesced_runs={coalesced};{common}", "0.0", "pass"
            )
        assert reflection_identity_check(horizon, p, trials, seed).as_row() == (
            "reflection-identity", common, "0.0", "pass"
        )
        mutant = reflection_identity_check(horizon, p, trials, seed, swap_expansion_draws=False)
        assert mutant.as_row() == (
            "reflection-identity", f"first_violation={first};{common}", f"{broken}.0", "fail"
        )
        stats = coalescence_stats(p, horizon, trials, seed)
        times = stats.first_event_times
        assert (
            stats.coalesced, stats.absorbed, stats.censored,
            sum(t * n for t, n in times.items()), sum(t * t * n for t, n in times.items()),
        ) == summary
        assert sum(times.values()) == trials
    assert coalescence_stats(0.5, horizon, trials, 1).first_event_times == {
        1: 6721, 2: 1230, 3: 439, 4: 198, 5: 110, 6: 95, 7: 41, 8: 44, 9: 26, 10: 21,
        11: 16, 12: 18, 13: 6, 14: 7, 15: 6, 16: 1, 17: 4, 18: 2, 19: 4, 20: 4, 23: 3,
        24: 1, 26: 1, 27: 1, 40: 1,
    }
    # Runs 0 to 2 die at the first step, and run 3 breaks there.
    assert reflection_identity_check(3, 0.3, 100, 0, swap_expansion_draws=False).as_row() == (
        "reflection-identity",
        "first_violation=(3, 1, Span(0, 1), Span(0, 1));horizon=3;p=0.3;seed=0;trials=100",
        "32.0",
        "fail",
    )


def test_first_violation_names_the_run_not_its_row():
    from boxchain.montecarlo import _Pairs

    # Replay the first step of the reflection mutant's first chunk until
    # runs die before the first violating one, so that its row in the
    # batch is not its run index; the report must name the run.
    for seed in range(20):
        pairs = _Pairs(100, (Span(0, 0), Span(0, 0)))
        pairs.reflection_step(0.3, Stream(seed).substream("reflection", 0), swap_expansion_draws=False)
        bad = np.flatnonzero(~pairs.mirrored())
        if bad.size and pairs.run[bad[0]] != bad[0]:
            break
    else:
        pytest.fail("no seed puts a dead run before the first violation")
    report = reflection_identity_check(1, 0.3, 100, seed, swap_expansion_draws=False)
    assert report.params["first_violation"] == (int(pairs.run[bad[0]]), 1, *pairs.states(bad[0]))


def test_runs_stopped_coalesced_are_counted_coalesced():
    from boxchain.montecarlo import _Pairs, _pathwise_run

    # Stopping every run as it coalesces leaves no coalesced pair in the
    # batch, yet each stopped run ended coalesced.
    stops, _, coalesced_runs = _pathwise_run(
        "coupled-invariants", 30, 0.5, 3_000, 11, (Span(-1, -1), Span(0, 0)),
        _Pairs.antithetic_step, lambda pairs: ~pairs.coalesced,
    )
    assert coalesced_runs == stops[1].sum() > 0


def test_int64_rank_limit_raises_before_wrapping():
    from boxchain import Box

    with pytest.raises(ValueError, match="int64 rank limit"):
        estimate_occupancy(Span(-3_500_000_000, 3_500_000_000), 1, [0], 10)
    with pytest.raises(ValueError, match="int64 rank limit"):
        estimate_occupancy_2d(Box((Span(0, 80_000), Span(0, 80_000))), 1, [(0, 0)], 10)
    # The largest interval whose rank decode stays in int64, and a box whose
    # rank count stays below 2**63, still sample; one more site does not.
    n = 1_518_500_249
    assert n * (n + 1) // 2 < 2**60 <= (n + 1) * (n + 2) // 2
    estimate_occupancy(Span(0, n - 1), 1, [0], 10)
    with pytest.raises(ValueError, match="int64 rank limit"):
        estimate_occupancy(Span(0, n), 1, [0], 10)
    estimate_occupancy_2d(Box((Span(0, 69_999), Span(0, 69_999))), 1, [(0, 0)], 10)


def test_chains_near_the_ends_of_int64_refuse_or_run_unwrapped():
    from boxchain import Box

    # These starts and sites used to wrap past the ends of int64, or raise
    # OverflowError, instead of being refused.
    with pytest.raises(ValueError, match=rf"Span\({2**63 - 4}, {2**63 - 3}\) has an end outside"):
        estimate_occupancy(Span(2**63 - 4, 2**63 - 3), 3, [2**63 - 3, 2**63 - 2, 2**63 - 1], 1000, seed=1)
    with pytest.raises(ValueError, match=rf"Span\({-(2**63)}, {-(2**63) + 1}\) has an end outside"):
        estimate_occupancy(Span(-(2**63), -(2**63) + 1), 3, [-(2**63), -(2**63) + 1], 1000, seed=1)
    with pytest.raises(ValueError, match=f"site {2**63} lies outside int64"):
        estimate_occupancy(Span(0, 1), 3, [0, 2**63], 1000, seed=1)
    with pytest.raises(ValueError, match=f"point coordinate {-(2**63) - 1} lies outside int64"):
        estimate_occupancy_2d(unit_box(2), 3, [(0, -(2**63) - 1)], 1000, seed=1)
    with pytest.raises(ValueError, match=rf"Span\(0, {2**62 + 1}\) has an end outside"):
        estimate_occupancy_2d(Box((Span(0, 0), Span(0, 2**62 + 1))), 3, [(0, 0)], 1000, seed=1)

    # From +-2**62 a chain still runs, on the draws of its translate.
    def hits(initial, sites):
        return [e.hits for e in estimate_occupancy(initial, 3, sites, 20_000, seed=1)]

    for shift in (2**62 - 1, -(2**62)):
        assert hits(Span(shift, shift + 1), [shift + 1, shift + 2, shift + 3]) == hits(Span(0, 1), [1, 2, 3])


def test_rank_limit_checks_each_row():
    from boxchain.montecarlo import _rank_counts

    # Each row fits though the per-axis maxima together would not.
    big = 1_000_000_000
    sizes = [np.array([big, 1]), np.array([1, big])]
    assert _rank_counts(np.array(sizes)).tolist() == [[big * (big + 1) // 2, 1], [1, big * (big + 1) // 2]]
    with pytest.raises(ValueError, match="int64 rank limit"):
        _rank_counts(np.array([[big, 1], [10, big]]))


def test_pair_engine_rank_count_is_guarded():
    from boxchain.montecarlo import _Pairs

    # A host of 2**32 sites has 2**63 + 2**31 nonempty sub-intervals, past
    # int64: the count must raise, not wrap to a small rank range.
    for step in (_Pairs.antithetic_step, _Pairs.reflection_step):
        pairs = _Pairs(4, (Span(-(2**32), -1), Span(0, 2**32 - 1)))
        with pytest.raises(ValueError, match="int64 rank limit"):
            step(pairs, 0.5, Stream(3))


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


def test_pathwise_runs_stop_when_every_run_ends():
    # At p = 1/2 every run ends within a few dozen steps, so a horizon of
    # 10**12 costs what those steps cost.
    assert reflection_identity_check(10**12, 0.5, 200, seed=1).passed
    far = coalescence_stats(0.5, 10**12, 200, seed=1)
    assert far.censored == 0
    assert far.first_event_times == coalescence_stats(0.5, 1000, 200, seed=1).first_event_times


def test_shorter_horizon_replays_a_prefix():
    # Draws at step k depend only on the states at step k, so a shorter
    # horizon sees exactly the first events of a longer one.
    full = coalescence_stats(0.5, 30, 4_000, seed=14).first_event_times
    for horizon in (1, 3, 10):
        short = coalescence_stats(0.5, horizon, 4_000, seed=14).first_event_times
        assert short == {t: n for t, n in full.items() if t <= horizon}
