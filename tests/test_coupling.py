import random
from fractions import Fraction

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
    coupled_contraction,
    coupled_expansion,
    coupled_expansion_amounts,
    coupled_step,
    dominates_nonnegative,
    endpoint_gap,
    initial_coupled_state,
    reflect_origin,
    reflection_coupled_step,
    relabel_site,
    right_offset,
    run_coupled,
    run_reflection,
    unrelabel_site,
)

from conftest import StubStream

# The empty state and every span with left end in -20..20 and extent
# 0..20: 862 states, checked one by one by the map properties below.
INTERVALS = [EMPTY] + [Span(left, left + e) for left in range(-20, 21) for e in range(21)]


def antithetic_hosts(max_size):
    """All minus-hosts whose mirrored pair sits strictly in the antithetic class."""
    out = []
    for size in range(1, max_size + 1):
        for left in range(-max_size - size, 1):
            right = left + size - 1
            host = Span(left, right)
            if classify_pair(host, antithetic_mirror(host)) is PairClass.ANTITHETIC:
                out.append(host)
    return out


def subintervals_of(host):
    out = [EMPTY]
    for left in range(host.left, host.right + 1):
        for right in range(left, host.right + 1):
            out.append(Span(left, right))
    return out


# ---------------------------------------------------------------------------
# elementary maps


def test_reflect_examples():
    assert reflect_origin(Span(1, 3)) == Span(-3, -1)
    assert reflect_origin(EMPTY) is EMPTY


def test_reflect_involution():
    for interval in INTERVALS:
        assert reflect_origin(reflect_origin(interval)) == interval


def test_mirror_examples():
    assert antithetic_mirror(Span(-1, -1)) == Span(0, 0)
    assert antithetic_mirror(Span(-3, 0)) == Span(-1, 2)
    assert antithetic_mirror(EMPTY) is EMPTY


def test_mirror_involution():
    for interval in INTERVALS:
        assert antithetic_mirror(antithetic_mirror(interval)) == interval


def test_relabel_roundtrip_and_skip():
    assert [relabel_site(x) for x in (-2, -1, 0, 1)] == [-2, -1, 1, 2]
    for x in range(-30, 30):
        assert unrelabel_site(relabel_site(x)) == x
    with pytest.raises(ValueError):
        unrelabel_site(0)


def test_mirror_is_antithetic_in_labels():
    # The mirror about -1/2 realizes label negation of both endpoints.
    for host in antithetic_hosts(6):
        mirrored = antithetic_mirror(host)
        assert relabel_site(mirrored.left) == -relabel_site(host.right)
        assert relabel_site(mirrored.right) == -relabel_site(host.left)


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify_pair(EMPTY, EMPTY) is PairClass.BOTH_EMPTY
    assert classify_pair(Span(-1, -1), Span(0, 0)) is PairClass.ANTITHETIC
    assert classify_pair(Span(2, 5), Span(2, 5)) is PairClass.IDENTICAL
    assert classify_pair(Span(-1, 0), Span(-1, 0)) is PairClass.IDENTICAL
    assert classify_pair(Span(0, 0), Span(-1, -1)) is PairClass.UNRELATED
    assert classify_pair(EMPTY, Span(0, 0)) is PairClass.UNRELATED
    assert classify_pair(Span(-2, 0), Span(-1, 1)) is PairClass.ANTITHETIC
    # balanced mirror pair is its own image, hence identical, never antithetic
    assert classify_pair(Span(-2, 1), Span(-2, 1)) is PairClass.IDENTICAL


def test_classify_total():
    # Every pair of states that sit in -6..5, a window symmetric about the
    # mirror point -1/2, so every class occurs; then pairs drawn from all
    # 862 states.
    near = [EMPTY] + [Span(left, left + e) for left in range(-6, 6) for e in range(6 - left)]
    pairs = [(minus, plus) for minus in near for plus in near]
    draw = random.Random(20).choice
    pairs += [(draw(INTERVALS), draw(INTERVALS)) for _ in range(20_000)]
    seen = set()
    for minus, plus in pairs:
        got = classify_pair(minus, plus)
        assert got in PairClass
        seen.add(got)
    assert seen == set(PairClass)


# ---------------------------------------------------------------------------
# the contraction bijection


def test_antithetic_image_examples():
    host = Span(-3, 0)
    assert antithetic_image(host, Span(-3, -2)) == Span(1, 2)
    assert antithetic_image(host, Span(-1, 0)) == Span(-1, 0)
    assert antithetic_image(host, EMPTY) is EMPTY


def test_antithetic_image_preconditions():
    with pytest.raises(ValueError):
        antithetic_image(Span(0, 1), Span(0, 0))  # host not in the class
    with pytest.raises(ValueError):
        antithetic_image(Span(-3, 0), Span(1, 1))  # not a sub-interval


def test_antithetic_image_bijective_exhaustive():
    for host in antithetic_hosts(8):
        family = subintervals_of(host)
        images = [antithetic_image(host, j) for j in family]
        assert len(set(images)) == len(images)
        assert set(images) == set(subintervals_of(antithetic_mirror(host)))


def test_antithetic_image_class_closure():
    for host in antithetic_hosts(8):
        for j in subintervals_of(host):
            image = antithetic_image(host, j)
            kind = classify_pair(j, image)
            assert kind in (PairClass.BOTH_EMPTY, PairClass.IDENTICAL, PairClass.ANTITHETIC)


def test_uniform_pushforward_through_image_is_uniform():
    # Bijectivity makes the pushforward of the uniform contraction measure
    # exactly uniform on the mirrored host's family: total variation zero.
    for host in antithetic_hosts(6):
        family = subintervals_of(host)
        unit = Fraction(1, len(family))
        image_mass = {}
        for j in family:
            image = antithetic_image(host, j)
            image_mass[image] = image_mass.get(image, Fraction(0)) + unit
        target_family = subintervals_of(antithetic_mirror(host))
        tv = sum(abs(image_mass.get(j, Fraction(0)) - unit) for j in target_family)
        assert tv == 0


# ---------------------------------------------------------------------------
# the gap and the coalescing offset


def brute_force_label_gap(tilde_minus, tilde_plus):
    return relabel_site(tilde_plus.right) - relabel_site(tilde_minus.right)


def test_endpoint_gap_examples():
    assert endpoint_gap(Span(-1, -1), Span(0, 0)) == 2
    assert endpoint_gap(Span(-2, 0), Span(-1, 1)) == 1
    assert endpoint_gap(Span(-3, -2), Span(1, 2)) == 5


def test_endpoint_gap_matches_relabel_map():
    for host in antithetic_hosts(8):
        plus = antithetic_mirror(host)
        gap = endpoint_gap(host, plus)
        assert gap == brute_force_label_gap(host, plus)
        assert gap >= 1
        straddle = 1 if host.right < 0 <= plus.right else 0
        assert gap == plus.right - host.right + straddle


def test_right_offset_is_step_distance():
    for host in antithetic_hosts(8):
        plus = antithetic_mirror(host)
        offset = right_offset(host, plus)
        assert offset == plus.right - host.right == plus.left - host.left
        assert offset >= 1
    with pytest.raises(ValueError):
        right_offset(Span(0, 0), Span(1, 1))


# ---------------------------------------------------------------------------
# coupled contraction


def test_coupled_contraction_identity_exactly_on_overlap():
    host = Span(-3, 0)
    shared = []
    for j in subintervals_of(host):
        if j is not EMPTY and antithetic_image(host, j) == j:
            shared.append(j)
    assert set(shared) == {Span(-1, -1), Span(-1, 0), Span(0, 0)}


def test_coupled_contraction_marginal():
    state = initial_coupled_state()
    stream = Stream(40)
    draws = 50_000
    outcomes = {}
    for _ in range(draws):
        tilde_minus, tilde_plus = coupled_contraction(state, stream)
        outcomes[(tilde_minus, tilde_plus)] = outcomes.get((tilde_minus, tilde_plus), 0) + 1
    # from {-1}: either both die or the pair ({-1}, {0}) survives, equally
    assert set(outcomes) == {(EMPTY, EMPTY), (Span(-1, -1), Span(0, 0))}
    assert abs(outcomes[(EMPTY, EMPTY)] / draws - 0.5) < 0.01


# ---------------------------------------------------------------------------
# coupled expansion


def test_coupled_expansion_amounts_branches():
    # offset 1, run >= offset: coalesce with shifted surfaces
    assert coupled_expansion_amounts(2, 0, 1) == (True, 0, 2, 1, 1)
    # offset 1, run 0: antithetic swap
    assert coupled_expansion_amounts(0, 1, 1) == (False, 1, 0, 0, 1)
    assert coupled_expansion_amounts(5, 3, 2) == (True, 3, 5, 5, 3)
    assert coupled_expansion_amounts(1, 7, 2) == (False, 7, 1, 1, 7)


def test_coupled_expansion_coalescing_trace():
    # Right run 2, left run 0: minus grows to [-1, 1] and the plus side
    # lands on exactly the same interval.
    result = coupled_expansion(Span(-1, -1), Span(0, 0), 2, 0)
    assert result == CoupledState(Span(-1, 1), Span(-1, 1), True)


def test_coupled_expansion_antithetic_trace():
    # Right run 0, left run 1: the pair stays antithetic.
    result = coupled_expansion(Span(-1, -1), Span(0, 0), 0, 1)
    assert result == CoupledState(Span(-2, -1), Span(0, 1), False)
    assert result.plus == antithetic_mirror(result.minus)


def test_coalescing_branch_probability():
    # The coalescing branch fires exactly when the right run reaches the
    # offset, so its probability is p**offset.
    p = 0.6
    stream = Stream(50)
    draws = 60_000
    for tilde_minus, tilde_plus in ((Span(-1, -1), Span(0, 0)), (Span(-3, -2), Span(1, 2))):
        offset = right_offset(tilde_minus, tilde_plus)
        hits = 0
        for _ in range(draws):
            left_run = stream.geometric(p)
            right_run = stream.geometric(p)
            hits += coupled_expansion(tilde_minus, tilde_plus, right_run, left_run).coalesced
        assert abs(hits / draws - p**offset) < 0.01


def test_coupled_expansion_requires_antithetic():
    with pytest.raises(ValueError):
        coupled_expansion(Span(0, 0), Span(0, 0), 0, 0)


@pytest.mark.parametrize("amounts", [(True, 0, 0, 1, 0), (False, 0, 0, 1, 0)])
def test_coupled_expansion_fails_closed_on_inconsistent_amounts(amounts, monkeypatch):
    # The invariant holds as a raise, not an assert, so it is kept under -O.
    # Plus moves one site left and minus stays put: the pair neither
    # coalesces nor stays antithetic.
    from boxchain import coupling

    monkeypatch.setattr(coupling, "coupled_expansion_amounts", lambda *_: amounts)
    with pytest.raises(ValueError, match="coupled expansion gave"):
        coupled_expansion(Span(-1, -1), Span(0, 0), 0, 0)


# ---------------------------------------------------------------------------
# full coupled steps


def test_initial_state_is_antithetic():
    state = initial_coupled_state()
    assert classify_pair(state.minus, state.plus) is PairClass.ANTITHETIC
    assert not state.coalesced


def test_run_coupled_horizon_zero():
    assert run_coupled(0, 0.5, seed=1) == [initial_coupled_state()]


def test_both_empty_absorbing():
    state = CoupledState(EMPTY, EMPTY, False)
    stream = Stream(1)
    for _ in range(5):
        state = coupled_step(state, 0.5, stream)
    assert state == CoupledState(EMPTY, EMPTY, False)


def test_class_closure_domination_and_absorption():
    for seed in range(400):
        coalesced_at = None
        for when, state in enumerate(run_coupled(40, 0.5, seed=seed)):
            kind = classify_pair(state.minus, state.plus)
            assert kind in (
                PairClass.BOTH_EMPTY,
                PairClass.ANTITHETIC,
                PairClass.IDENTICAL,
            )
            if kind is PairClass.IDENTICAL:
                assert state.coalesced
            assert dominates_nonnegative(state.minus, state.plus)
            if state.coalesced:
                assert state.minus == state.plus
                if coalesced_at is None:
                    coalesced_at = when
            if coalesced_at is not None and when >= coalesced_at:
                assert state.coalesced


def test_coupled_runs_reproducible():
    assert run_coupled(30, 0.4, seed=9) == run_coupled(30, 0.4, seed=9)


def test_class_closure_exhaustive_over_contractions_and_branches():
    # Every contraction outcome of every small host, pushed through both
    # expansion branches with surface runs up to 12, lands in an allowed
    # class with the nonnegative sites dominated.
    max_run = 12
    for host in antithetic_hosts(8):
        for j in subintervals_of(host):
            if j is EMPTY:
                continue
            image = antithetic_image(host, j)
            if image == j:
                continue  # shared expansion keeps the pair identical
            offset = right_offset(j, image)
            for n_right in range(max_run):
                for n_left in range(max_run):
                    coalesced, m_left, m_right, p_left, p_right = (
                        coupled_expansion_amounts(n_right, n_left, offset)
                    )
                    new_minus = Span(j.left - m_left, j.right + m_right)
                    new_plus = Span(image.left - p_left, image.right + p_right)
                    kind = classify_pair(new_minus, new_plus)
                    if coalesced:
                        assert new_minus == new_plus
                        assert kind is PairClass.IDENTICAL
                    else:
                        assert kind is PairClass.ANTITHETIC
                    assert dominates_nonnegative(new_minus, new_plus)


# ---------------------------------------------------------------------------
# reflection coupling


def test_reflection_step_trace():
    # Contraction keeps the point, left draw 1 and right draw 2: the first
    # copy becomes [-1, 2] and the mirrored copy [-2, 1].
    stream = StubStream(randbelow=[1], geometric=[1, 2])
    zeta, eta = reflection_coupled_step(Span(0, 0), Span(0, 0), 0.5, stream)
    assert zeta == Span(-1, 2)
    assert eta == Span(-2, 1)
    assert eta == reflect_origin(zeta)


def test_reflection_step_absorbing_and_precondition():
    assert reflection_coupled_step(EMPTY, EMPTY, 0.5, Stream(0)) == (EMPTY, EMPTY)
    with pytest.raises(ValueError):
        reflection_coupled_step(Span(0, 1), Span(0, 1), 0.5, Stream(0))


def test_reflection_identity_over_runs():
    for seed in range(300):
        for zeta, eta in run_reflection(40, 0.5, seed=seed):
            assert eta == reflect_origin(zeta)


def test_unmirrored_variant_breaks_identity():
    broken = 0
    for seed in range(200):
        for zeta, eta in run_reflection(30, 0.5, seed=seed, swap_expansion_draws=False):
            if eta != reflect_origin(zeta):
                broken += 1
                break
    assert broken > 50


def test_reflection_marginal_sizes_match():
    # The mirrored copy is itself a standard process; its end-state size
    # distribution must match the first copy's across seeds.
    sizes_zeta = {}
    sizes_eta = {}
    draws = 20_000
    for seed in range(draws):
        path = run_reflection(3, 0.5, seed=seed)
        zeta, eta = path[-1]
        key_z = 0 if zeta is None else zeta.size
        key_e = 0 if eta is None else eta.size
        sizes_zeta[key_z] = sizes_zeta.get(key_z, 0) + 1
        sizes_eta[key_e] = sizes_eta.get(key_e, 0) + 1
    assert sizes_zeta == sizes_eta  # sizes are mirror invariant, exactly
