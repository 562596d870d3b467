import itertools
from fractions import Fraction

import pytest

from boxchain import (
    Box,
    EMPTY_BOX,
    Span,
    Stream,
    TruncationPolicy,
    UNIFORM,
    contract_uniform,
    count_nonempty_subintervals,
    count_nonempty_subrects,
    evolve,
    expand_faces,
    l1_norm,
    simulate_path_rect,
    step_rect,
    unit_box,
)

from conftest import StubStream, chi_square_pvalue, draw_law


def brute_force_subboxes(box):
    axes = []
    for span in box.spans:
        subs = []
        for left in range(span.left, span.right + 1):
            for right in range(left, span.right + 1):
                subs.append(Span(left, right))
        axes.append(subs)
    out = []

    def rec(i, acc):
        if i == len(axes):
            out.append(Box(tuple(acc)))
            return
        for sub in axes[i]:
            rec(i + 1, acc + [sub])

    rec(0, [])
    return out


def test_box_invariants():
    with pytest.raises(ValueError):
        Box(())
    box = Box((Span(0, 1), Span(-2, 0)))
    assert box.dim == 2
    assert box.sizes == (2, 3)
    assert (1, -1) in box
    assert (2, 0) not in box
    with pytest.raises(ValueError, match="wrong dimension"):
        box.__contains__((1, -1, 0))
    assert l1_norm((0, 0)) == 0
    assert l1_norm((1, -2)) == 3
    assert l1_norm((-1, 0)) == 1


def test_count_against_brute_force():
    assert count_nonempty_subrects([1, 1]) == 1
    assert count_nonempty_subrects([2, 2]) == 9
    assert count_nonempty_subrects([3]) == count_nonempty_subintervals(3) == 6
    for sizes in ([2, 3], [1, 4], [2, 2, 2]):
        box = Box(tuple(Span(0, n - 1) for n in sizes))
        assert count_nonempty_subrects(sizes) == len(brute_force_subboxes(box))


def test_contract_uniform_unit_box():
    stream = Stream(31)
    draws = 60_000
    empty = sum(contract_uniform(unit_box(2), stream) is EMPTY_BOX for _ in range(draws))
    assert abs(empty / draws - 0.5) < 0.01
    assert contract_uniform(EMPTY_BOX, stream) is EMPTY_BOX


def test_contract_uniform_decodes_each_rank_once():
    # Rank 0 is the empty box and the other ranks give each nonempty
    # sub-box once: exactly, over every draw, on boxes up to 3 x 3.
    for sizes in [(1,), (2,), (3,), *itertools.product((1, 2, 3), repeat=2)]:
        box = Box(tuple(Span(-axis, n - 1 - axis) for axis, n in enumerate(sizes)))
        assert contract_uniform(box, StubStream(randbelow=[0])) is EMPTY_BOX
        outcomes = [EMPTY_BOX] + brute_force_subboxes(box)
        law = draw_law(lambda draws: contract_uniform(box, draws))
        assert law == dict.fromkeys(outcomes, Fraction(1, len(outcomes))), sizes


def test_contract_uniform_marginal_two_by_two():
    box = Box((Span(0, 1), Span(0, 1)))
    outcomes = [EMPTY_BOX] + brute_force_subboxes(box)
    assert len(outcomes) == 10
    stream = Stream(32)
    draws = 200_000
    counts = {o: 0 for o in outcomes}
    for _ in range(draws):
        counts[contract_uniform(box, stream)] += 1
    pvalue = chi_square_pvalue(
        [counts[o] for o in outcomes], [0.1] * 10, draws
    )
    assert pvalue > 1e-3


def test_contract_uniform_marginal_three_by_three():
    box = Box((Span(-1, 1), Span(0, 2)))
    outcomes = [EMPTY_BOX] + brute_force_subboxes(box)
    total = count_nonempty_subrects(box.sizes)
    assert len(outcomes) == total + 1 == 37
    stream = Stream(33)
    draws = 1_000_000
    counts = {o: 0 for o in outcomes}
    for _ in range(draws):
        counts[contract_uniform(box, stream)] += 1
    # every outcome within 4 sigma of the uniform share
    share = 1 / (total + 1)
    sigma = (draws * share * (1 - share)) ** 0.5
    for outcome in outcomes:
        assert abs(counts[outcome] - draws * share) < 4 * sigma


def test_expand_faces_unit_and_probabilities():
    assert expand_faces(EMPTY_BOX, 0.5, Stream(0)) is EMPTY_BOX
    stream = Stream(34)
    draws = 80_000
    box = unit_box(2)
    unchanged = sum(expand_faces(box, 0.5, stream) == box for _ in range(draws))
    assert abs(unchanged / draws - 0.5**4) < 0.005  # (1-p)^(2d)


def test_one_step_law_equals_interval_process_in_d1():
    # Exact one-step outcome distribution of the 1-D box process matches the
    # interval process, with both expansions truncated at 6 and the dropped
    # tail mass accounted.
    p = Fraction(1, 2)
    cutoff = 6
    kernel = [(1 - p) * p**n for n in range(cutoff + 1)]
    for size in range(1, 5):
        host = Span(0, size - 1)
        want = evolve(host, 1, UNIFORM, p, TruncationPolicy(cutoff), exact=True)
        total = count_nonempty_subintervals(size)
        unit = Fraction(1, total + 1)
        got = {}
        got[None] = unit
        box = Box((host,))
        for sub in brute_force_subboxes(box):
            inner = sub.spans[0]
            for low, q_low in enumerate(kernel):
                for high, q_high in enumerate(kernel):
                    key = Span(inner.left - low, inner.right + high)
                    got[key] = got.get(key, Fraction(0)) + unit * q_low * q_high
        assert got[None] == want.weights[None]
        span_keys = {k for k in want.weights if k is not None}
        assert span_keys == {k for k in got if k is not None}
        for key in span_keys:
            assert got[key] == want.weights[key]
        assert sum(got.values()) + want.lost == 1


def test_d1_trajectory_law_matches_interval_process():
    # Distribution of the interval at t=2 from both simulators, same seed
    # space size, compared by chi-square on the coarse outcome (state size).
    from boxchain import simulate_path

    draws = 30_000
    sizes_box = {}
    sizes_int = {}
    for seed in range(draws):
        end_box = simulate_path_rect(Box((Span(0, 0),)), 2, 0.5, Stream(seed).substream("a"))[-1]
        end_int = simulate_path(Span(0, 0), 2, UNIFORM, 0.5, Stream(seed).substream("b"))[-1]
        key_box = 0 if end_box is None else end_box.spans[0].size
        key_int = 0 if end_int is None else end_int.size
        sizes_box[key_box] = sizes_box.get(key_box, 0) + 1
        sizes_int[key_int] = sizes_int.get(key_int, 0) + 1
    support = sorted(set(sizes_box) | set(sizes_int))
    probs = [sizes_int.get(k, 0) / draws for k in support]
    counts = [sizes_box.get(k, 0) for k in support]
    # two-sample comparison via chi-square against the empirical reference
    assert chi_square_pvalue(counts, probs, draws) > 1e-4


def test_step_rect_unit_origin_survival():
    stream = Stream(35)
    draws = 80_000
    hit = 0
    for _ in range(draws):
        result = step_rect(unit_box(2), 0.5, stream)
        if result is not None and (0, 0) in result:
            hit += 1
    assert abs(hit / draws - 0.5) < 0.01


def test_simulate_path_rect_absorbing():
    for seed in range(40):
        path = simulate_path_rect(unit_box(2), 25, 0.5, Stream(seed))
        assert len(path) == 26
        seen_empty = False
        for state in path:
            if seen_empty:
                assert state is EMPTY_BOX
            if state is EMPTY_BOX:
                seen_empty = True


def test_rotational_symmetry_statistical():
    from boxchain import estimate_occupancy_2d

    estimates = {
        e.site: e
        for e in estimate_occupancy_2d(
            unit_box(2), 2, [(2, 1), (1, 2), (3, 0), (0, 3)], 400_000, p=0.5, seed=5
        )
    }
    for a, b in (((2, 1), (1, 2)), ((3, 0), (0, 3))):
        gap = abs(estimates[a].estimate - estimates[b].estimate)
        margin = estimates[a].half_width + estimates[b].half_width
        assert gap <= margin
