import dataclasses
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from boxchain import (
    EMPTY,
    EndpointResampleContraction,
    KillThenUniformContraction,
    SizeWeightedContraction,
    Span,
    StateDist,
    Stream,
    TruncationPolicy,
    UNIFORM,
    contract,
    contraction_outcome_pmf,
    contraction_pushforward,
    coupling_transition_check,
    estimate_occupancy,
    evolve,
    expansion_pushforward,
    occupancy_bounds,
    occupancy_table,
)

from conftest import rational_sizes


def closed_form_t1(p, x):
    """One step from the point at the origin: survive the contraction with
    probability 1/2, then reach x by a one-sided geometric tail."""
    return 0.5 * p ** abs(x)


def test_contraction_point_mass():
    dist = StateDist.point_mass(Span(0, 0))
    out = contraction_pushforward(dist, UNIFORM)
    assert out.weights[EMPTY] == pytest.approx(0.5)
    assert out.weights[Span(0, 0)] == pytest.approx(0.5)
    assert out.lost == 0


def test_contraction_empty_absorbing_and_mass_preserved():
    dist = StateDist({EMPTY: 0.25, Span(0, 1): 0.75}, 0.0)
    out = contraction_pushforward(dist, UNIFORM)
    assert out.weights[EMPTY] == pytest.approx(0.25 + 0.75 / 4)
    assert out.total() == pytest.approx(1.0, abs=1e-12)


def test_contraction_rational_exact():
    dist = StateDist.point_mass(Span(0, 2), exact=True)
    out = contraction_pushforward(dist, UNIFORM)
    assert out.weights[EMPTY] == Fraction(1, 7)
    assert out.weights[Span(0, 2)] == Fraction(1, 7)
    assert out.total() == 1


def test_contraction_grid_matches_generic():
    weights = {Span(-2, 1): 0.3, Span(0, 0): 0.5, Span(1, 3): 0.2}
    float_out = contraction_pushforward(StateDist(dict(weights), 0.0), UNIFORM)
    exact_in = StateDist({k: Fraction(v).limit_denominator() for k, v in weights.items()}, Fraction(0), exact=True)
    exact_out = contraction_pushforward(exact_in, UNIFORM)
    assert set(float_out.weights) == set(exact_out.weights)
    for key, value in exact_out.weights.items():
        assert float_out.weights[key] == pytest.approx(float(value), abs=1e-12)


def test_expansion_zero_truncation():
    p = 0.5
    dist = StateDist.point_mass(Span(0, 0))
    out = expansion_pushforward(dist, p, TruncationPolicy(0))
    assert set(out.weights) == {Span(0, 0)}
    assert out.weights[Span(0, 0)] == pytest.approx((1 - p) ** 2)
    assert out.lost == pytest.approx(1 - (1 - p) ** 2)


def test_expansion_weight_formula():
    p = 0.3
    n_max = 12
    out = expansion_pushforward(StateDist.point_mass(Span(0, 0)), p, TruncationPolicy(n_max))
    for a in (0, 1, 5):
        for b in (0, 2, 12):
            want = (1 - p) ** 2 * p ** (a + b)
            assert out.weights[Span(-a, b)] == pytest.approx(want, rel=1e-12)
    assert out.total() == pytest.approx(1.0, abs=1e-12)


def test_expansion_keeps_empty():
    dist = StateDist({EMPTY: 1.0}, 0.0)
    out = expansion_pushforward(dist, 0.5, TruncationPolicy(10))
    assert out.weights == {EMPTY: 1.0}
    assert out.lost == 0.0
    # A law with no span packs to a 0x0 grid, which contracts to itself.
    out = contraction_pushforward(StateDist({EMPTY: 1.0}, 0.0), UNIFORM)
    assert out.weights == {EMPTY: 1.0}
    assert out.lost == 0.0


@pytest.mark.parametrize("exact", [False, True])
def test_dead_law_grid_does_not_grow(exact):
    # A law with no live span used to grow its zero grid by 2 n_max a step:
    # 600x600 zeros after three steps at n_max = 100, and in rational mode
    # a denominator gaining 2 (n_max + 1) bits a step.
    one, zero, p = (Fraction(1), Fraction(0), Fraction(1, 2)) if exact else (1.0, 0.0, 0.5)
    policy = TruncationPolicy(100)
    dist = StateDist({EMPTY: one}, zero, exact)
    for _ in range(3):
        dist = expansion_pushforward(contraction_pushforward(dist, UNIFORM), p, policy)
        assert dist.grid.shape == (0, 0)
        assert dist.support() == (0, 0)
        assert dist.total() == one and dist.lost == zero
        assert dist.mass_of(EMPTY) == one
    if exact:
        assert dist.common_denominator() == 1
    # A law the kill rule empties at the first step stops growing there.
    kill = KillThenUniformContraction(lambda n: 1)
    dist = evolve(Span(0, 2), 3, kill, p, policy, exact=exact)
    assert dist.grid.shape == (0, 0)
    assert dist.support() == (0, 0)
    assert dist.total() == one and dist.mass_of(EMPTY) == one and dist.lost == zero
    assert occupancy_bounds(dist, 0).hi == zero
    if exact:
        assert dist.common_denominator() == 1


def test_evolve_horizon_zero():
    dist = evolve(Span(0, 0), 0)
    assert dist.weights == {Span(0, 0): 1.0}
    assert dist.lost == 0.0


def test_evolve_t1_death_mass_and_brackets():
    dist = evolve(Span(0, 0), 1, p=0.5, policy=TruncationPolicy(40))
    assert dist.weights[EMPTY] == pytest.approx(0.5, abs=1e-12)
    for x in range(-10, 11):
        b = occupancy_bounds(dist, x)
        truth = closed_form_t1(0.5, x)
        assert b.lo <= truth + 1e-15 <= b.hi + 1e-15
        assert b.hi - b.lo <= 1e-12
    assert occupancy_bounds(dist, 10**6).lo == 0.0


def test_evolve_rational_t1_width_is_lost():
    dist = evolve(Span(0, 0), 1, p=Fraction(1, 2), policy=TruncationPolicy(40), exact=True)
    assert dist.total() == 1
    for x in range(-5, 6):
        b = occupancy_bounds(dist, x)
        assert b.hi - b.lo == dist.lost
        truth = Fraction(1, 2) * Fraction(1, 2) ** abs(x)
        assert b.lo <= truth <= b.hi


def test_evolve_lost_bounded_by_per_step_bound():
    p = 0.6
    policy = TruncationPolicy(12)
    for t in range(5):
        dist = evolve(Span(0, 0), t, p=p, policy=policy)
        assert dist.lost <= t * policy.per_step_loss_bound(p) + 1e-12


def test_evolve_mass_conserved_float():
    dist = evolve(Span(0, 0), 4, p=0.7, policy=TruncationPolicy(25))
    assert dist.total() == pytest.approx(1.0, abs=1e-12)


def test_evolve_lost_nondecreasing():
    previous = -1.0
    for t in range(4):
        dist = evolve(Span(0, 0), t, p=0.5, policy=TruncationPolicy(10))
        assert dist.lost >= previous
        previous = dist.lost


def test_evolve_float_matches_rational_small():
    policy = TruncationPolicy(6)
    float_dist = evolve(Span(0, 1), 2, p=0.5, policy=policy)
    exact_dist = evolve(Span(0, 1), 2, p=Fraction(1, 2), policy=policy, exact=True)
    assert set(float_dist.weights) == set(exact_dist.weights)
    for key, value in exact_dist.weights.items():
        assert float_dist.weights[key] == pytest.approx(float(value), abs=1e-12)
    assert float_dist.lost == pytest.approx(float(exact_dist.lost), abs=1e-12)


def test_grid_path_matches_rational_authority_deeper():
    # Three full steps, ~1100 reachable states: the array fast path must
    # reproduce the exact-rational law to float precision everywhere.
    policy = TruncationPolicy(8)
    exact_dist = evolve(Span(0, 0), 3, p=Fraction(1, 2), policy=policy, exact=True)
    grid_dist = evolve(Span(0, 0), 3, p=0.5, policy=policy)
    assert set(grid_dist.weights) == set(exact_dist.weights)
    assert len(exact_dist.weights) > 1000
    for key, value in exact_dist.weights.items():
        assert grid_dist.weights[key] == pytest.approx(float(value), abs=1e-13)
    assert grid_dist.lost == pytest.approx(float(exact_dist.lost), abs=1e-13)


def test_expansion_mixed_empty_and_span():
    p = 0.5
    dist = StateDist({EMPTY: 0.5, Span(0, 0): 0.5}, 0.0)
    out = expansion_pushforward(dist, p, TruncationPolicy(0))
    assert out.weights[EMPTY] == pytest.approx(0.5)
    assert out.weights[Span(0, 0)] == pytest.approx(0.5 * (1 - p) ** 2)
    assert out.lost == pytest.approx(0.5 * (1 - (1 - p) ** 2))


def test_evolve_supports_other_rules():
    dist = evolve(Span(0, 0), 2, rule=EndpointResampleContraction(), p=0.5,
                  policy=TruncationPolicy(8))
    assert EMPTY not in dist.weights  # this rule never kills
    assert dist.total() == pytest.approx(1.0, abs=1e-12)


def binomial_sizes(k, n):
    """Size pmf Binomial(n, 1/2): every size has mass, and every mass is
    dyadic, so the rational law reads it exactly."""
    return comb(n, k) / 2**n


@pytest.mark.parametrize(
    "rule",
    [EndpointResampleContraction(), SizeWeightedContraction(binomial_sizes)],
    ids=["endpoint-resample", "size-weighted"],
)
def test_generic_float_path_matches_rational(rule):
    # Non-uniform rules contract on the grid in both modes, by the same
    # terms: floats in one, integer numerators in the other.
    policy = TruncationPolicy(5)
    float_dist = evolve(Span(0, 1), 2, rule=rule, p=0.5, policy=policy)
    exact_dist = evolve(Span(0, 1), 2, rule=rule, p=Fraction(1, 2), policy=policy, exact=True)
    assert set(float_dist.weights) == set(exact_dist.weights)
    for key, value in exact_dist.weights.items():
        assert float_dist.weights[key] == pytest.approx(float(value), abs=1e-12)


def test_occupancy_symmetry_exact_even_in_float():
    dist = evolve(Span(0, 0), 3, p=0.5, policy=TruncationPolicy(20))
    for x in range(0, 25):
        lo_pos = occupancy_bounds(dist, x).lo
        lo_neg = occupancy_bounds(dist, -x).lo
        assert lo_pos == pytest.approx(lo_neg, abs=2 * dist.lost + 1e-13)


def test_occupancy_table_matches_pointwise():
    dist = evolve(Span(0, 0), 2, p=0.5, policy=TruncationPolicy(30))
    sites = list(range(-12, 13))
    table = occupancy_table(dist, sites)
    for entry in table:
        direct = occupancy_bounds(dist, entry.site)
        assert entry.lo == pytest.approx(direct.lo, abs=1e-12)
        assert entry.hi == pytest.approx(direct.hi, abs=1e-12)


def test_occupancy_sites_must_be_integers():
    # A float site used to index the coverage row: 2.0 and 1.5 raised
    # numpy's IndexError, and -100.0 gave a bracket labelled -100.0.
    dist = evolve(Span(0, 0), 2, p=0.5, policy=TruncationPolicy(10))
    for site in (2.0, np.int64(2), -100.0):
        bounds = occupancy_bounds(dist, site)
        assert bounds == occupancy_bounds(dist, int(site))
        assert type(bounds.site) is int
    assert occupancy_table(dist, [np.int64(-1), 3.0]) == occupancy_table(dist, [-1, 3])
    for site in (1.5, "2", float("nan"), None):
        with pytest.raises(ValueError, match=f"site must be an integer, got {site!r}"):
            occupancy_bounds(dist, site)
        with pytest.raises(ValueError, match=f"site must be an integer, got {site!r}"):
            occupancy_table(dist, [0, site])


# ---------------------------------------------------------------------------
# the float law on its grid


def geometric_kernel(p, n_max):
    return (1.0 - p) * p ** np.arange(n_max + 1)


def shifted_add_expansion(grid, kernel):
    """Reference expansion: one shifted add per retained shift and side."""
    n_max = len(kernel) - 1
    size = grid.shape[0]
    tall = np.zeros((size + 2 * n_max, size), grid.dtype)
    for a in range(n_max + 1):
        tall[n_max - a : n_max - a + size, :] += kernel[a] * grid
    out = np.zeros((size + 2 * n_max, size + 2 * n_max), grid.dtype)
    for b in range(n_max + 1):
        out[:, n_max + b : n_max + b + size] += kernel[b] * tall
    return out


def dict_from_grid(grid, origin, empty_mass):
    """Reference conversion: nonzero cells, and EMPTY only if it has mass."""
    weights = {EMPTY: empty_mass} if empty_mass > 0.0 else {}
    for i, j in zip(*np.nonzero(grid)):
        weights[Span(int(i) + origin, int(j) + origin)] = float(grid[i, j])
    return weights


def reference_uniform_evolve(p, n_max, t):
    """The uniform law from Span(0, 0): the dominance-sum contraction with
    a division per cell, then shifted adds."""
    grid, origin, empty_mass = np.ones((1, 1)), 0, 0.0
    for _ in range(t):
        idx = np.arange(grid.shape[0])
        lengths = idx[None, :] - idx[:, None] + 1
        valid = lengths >= 1
        shares = np.where(valid, grid / (np.where(valid, lengths * (lengths + 1) // 2, 0) + 1), 0.0)
        empty_mass += float(shares.sum())
        acc = np.cumsum(shares, axis=0)
        acc = np.flip(np.cumsum(np.flip(acc, axis=1), axis=1), axis=1)
        grid = shifted_add_expansion(np.where(valid, acc, 0.0), geometric_kernel(p, n_max))
        origin -= n_max
    return grid, origin, empty_mass


def test_doubling_expansion_matches_shifted_add():
    from boxchain.oracle import _expand

    rng = np.random.default_rng(3)
    for n_max in (0, 1, 2, 3, 7, 8, 120):
        for p in (0.3, 0.8):
            grid = np.triu(rng.random((9, 9)) * (rng.random((9, 9)) < 0.5))
            grid[0, 8] = 0.25  # the widest span
            got, scale, lost_inc = _expand(grid, p, n_max, None)
            want = shifted_add_expansion(grid, geometric_kernel(p, n_max))
            assert scale == 1
            assert got.shape == want.shape
            assert np.array_equal(got != 0, want != 0)
            assert (got >= 0).all()
            live = want != 0
            assert np.max(np.abs(got[live] - want[live]) / want[live]) <= 1e-14
            retained = ((1 - p) * p ** np.arange(n_max + 1)).sum()
            assert lost_inc == pytest.approx(grid.sum() * (1 - retained**2), rel=1e-15)


def test_exact_doubling_expansion_matches_shifted_add():
    from boxchain.oracle import _expand

    rng = np.random.default_rng(5)
    for n_max in (0, 1, 2, 3, 7, 8, 20):
        for p in (Fraction(1, 2), Fraction(2, 7)):
            num, den, terms = p.numerator, p.denominator, n_max + 1
            grid = np.triu(rng.integers(1, 50, (9, 9)) * (rng.random((9, 9)) < 0.5)).astype(object)
            grid[0, 8] = 7  # the widest span
            got, scale, lost_inc = _expand(grid, p, n_max, 1000)
            kernel = [(den - num) * num**a * den ** (n_max - a) for a in range(terms)]
            assert scale == den ** (2 * terms)
            assert np.array_equal(got, shifted_add_expansion(grid, kernel))
            assert lost_inc == grid.sum() * (scale - (den**terms - num**terms) ** 2)


def axis_doubling_sum(s, x, p, terms, axis, den=None):
    """The doubling sum along ``axis``, in place on the zero array ``s``
    and in the order of the oracle's: S_2c = S_c + p**c S_c moved c cells,
    S_c+1 = S_c + p**c x moved c cells, homogeneous in ``den`` if given."""

    def cut(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    n = x.shape[axis]
    s[cut(0, n)] = x
    c = 1
    for bit in bin(terms)[3:]:
        shifted = p**c * s[cut(0, n + c - 1)]
        if den is not None:
            s[cut(0, n + c - 1)] *= den**c
        s[cut(c, n + 2 * c - 1)] += shifted
        c *= 2
        if bit == "1":
            if den is not None:
                s[cut(0, n + c - 1)] *= den
            s[cut(c, n + c)] += p**c * x
            c += 1


def whole_rectangle_expand(grid, p, n_max, den=None):
    """The expansion's two doubling passes over the whole rectangle, on
    strided views of the grid: the reference that the triangle's blocks
    must match cell for cell."""
    terms, size = n_max + 1, len(grid)
    num, denominator = (float(p), 1.0) if den is None else (p.numerator, p.denominator)
    out = np.zeros((size + 2 * n_max,) * 2, dtype=grid.dtype)
    left = out[: size + n_max, n_max : n_max + size]
    axis_doubling_sum(left[::-1], (denominator - num) ** 2 * grid[::-1], num, terms, axis=0, den=den)
    axis_doubling_sum(out[: size + n_max, n_max:], left.copy(), num, terms, axis=1, den=den)
    return out


def whole_rectangle_dominance(share):
    acc = np.cumsum(share, axis=0)
    return np.flip(np.cumsum(np.flip(acc, axis=1), axis=1), axis=1)


def block_boundary_grids(rng, dtype):
    """Upper-triangular grids, half their cells zero, at extents that the
    sweeps' blocks split at and around their edges."""
    from boxchain.oracle import _BLOCK

    for extent in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
        if dtype is object:
            cells = rng.integers(1, 50, (extent, extent)).astype(object)
        else:
            cells = rng.random((extent, extent))
        grid = np.triu(cells * (rng.random((extent, extent)) < 0.5))
        grid[0, -1] = cells[0, -1]  # the widest span
        yield grid


def test_triangle_expansion_is_bit_identical_at_block_boundaries():
    from boxchain.oracle import _expand

    rng = np.random.default_rng(19)
    for grid in block_boundary_grids(rng, float):
        for n_max in (0, 1, 7, 120):
            got = _expand(grid, 0.8, n_max, None)[0]
            assert got.tobytes() == whole_rectangle_expand(grid, 0.8, n_max).tobytes()
    p = Fraction(2, 7)
    for grid in block_boundary_grids(rng, object):
        for n_max in (0, 1, 7, 120):
            got = _expand(grid, p, n_max, 1000)[0]
            assert np.array_equal(got, whole_rectangle_expand(grid, p, n_max, p.denominator))
    # The benchmark's widest expansion: the law contracted at step 4 of
    # (0.8, n_max 120), extent 721 in and 961 out.
    grid = benchmark_widest_expansion_input()
    got = _expand(grid, 0.8, 120, None)[0]
    assert got.shape == (961, 961)
    assert got.tobytes() == whole_rectangle_expand(grid, 0.8, 120).tobytes()


def benchmark_widest_expansion_input():
    law = contraction_pushforward(evolve(Span(0, 0), 3, UNIFORM, 0.8, TruncationPolicy(120)), UNIFORM)
    assert law.grid.shape == (721, 721)
    return law.grid


def test_expansion_peaks_within_a_tenth_of_its_output():
    # Its passes, summed in place on the grid's strided views in blocks of
    # 64, peaked at 1.135 times the output; each block's compact buffer,
    # 32 wide, is its only scratch.
    from boxchain.oracle import _expand

    grid = benchmark_widest_expansion_input()
    tracemalloc.start()
    try:
        out = _expand(grid, 0.8, 120, None)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (961, 961)
    assert peak < 1.1 * out.nbytes


def test_triangle_dominance_is_bit_identical_at_block_boundaries():
    from boxchain.oracle import _by_size, _death_mass, _dominance

    rng = np.random.default_rng(23)
    for dtype in (float, object):
        for grid in block_boundary_grids(rng, dtype):
            share, death, outcome = (
                rng.random(len(grid)) if dtype is float else rng.integers(0, 9, len(grid)).astype(object)
                for _ in range(3)
            )
            got = _dominance(grid, share, outcome)
            want = whole_rectangle_dominance(grid * _by_size(share)) * _by_size(outcome)
            cover = StateDist.on_grid(grid, 0, 0, 0, None if dtype is float else 1)._cover
            want_cover = np.diagonal(whole_rectangle_dominance(grid))
            dead = np.einsum("ij,ij->", grid, _by_size(death))
            if dtype is float:
                assert got.tobytes() == want.tobytes()
                assert cover.tobytes() == want_cover.tobytes()
            else:
                assert np.array_equal(got, want) and np.array_equal(cover, want_cover)
            assert _death_mass(grid, death) == dead


@pytest.mark.parametrize("exact", [False, True])
def test_cover_is_the_diagonal_of_two_whole_grid_cumsums(exact):
    # The slab sweep takes the additions of a cumsum down the whole grid and
    # a reversed cumsum along each row, in their order: a sum taken in any
    # other order, numpy's pairwise one included, changes a float's bits.
    tri = SizeWeightedContraction(lambda k, n: Fraction(2 * (k + 1), (n + 1) * (n + 2)))
    p = Fraction(2, 3) if exact else 0.8
    for rule in (UNIFORM, EndpointResampleContraction(), KillThenUniformContraction(), tri):
        for extent in (1, 63, 64, 65, 131):
            # One step from a span of one or two sites grows it by n_max a side.
            law = evolve(Span(0, 1 - extent % 2), 1, rule, p, TruncationPolicy((extent - 1) // 2), exact)
            assert len(law.grid) == extent
            want = np.diagonal(whole_rectangle_dominance(law.grid))
            if exact:
                assert law._cover.tolist() == want.tolist()
            else:
                assert law._cover.tobytes() == want.tobytes()


def test_every_rule_keeps_the_lower_triangle_empty():
    tri = SizeWeightedContraction(lambda k, n: Fraction(2 * (k + 1), (n + 1) * (n + 2)))
    for rule in (UNIFORM, EndpointResampleContraction(), KillThenUniformContraction(), tri):
        # Extents 3, 63 and 123, and 70 and 74: past one block of the sweeps.
        for law in (
            evolve(Span(0, 2), 2, rule, 0.5, TruncationPolicy(30)),
            evolve(Span(0, 69), 1, rule, Fraction(1, 2), TruncationPolicy(2), exact=True),
        ):
            assert law.grid.any()
            assert not np.tril(law.grid, -1).any()


def test_on_grid_refuses_a_grid_off_the_triangle(monkeypatch):
    below = np.array([[0.5, 0.0], [0.5, 0.0]])
    for grid, denom, match in (
        (np.zeros((2, 3)), None, "square"),
        (np.zeros(4), None, "square"),
        (below, None, "below its diagonal"),
        (np.array([[1, 0], [1, 0]], dtype=object), 2, "below its diagonal"),
        (np.array([[0.0, 0.0], [float("nan"), 1.0]]), None, "below its diagonal"),
    ):
        with pytest.raises(ValueError, match=match):
            StateDist.on_grid(grid, 0, 0, 0, denom)
    law = StateDist.on_grid(below.T.copy(), 3, 0.0, 0.0)
    assert law.span_rows() == [(3, 3, 0.5), (3, 4, 0.5)]
    # A step builds its law from a grid that the oracle itself made, so it
    # pays for no check.
    monkeypatch.setattr(StateDist, "on_grid", None)
    assert evolve(Span(0, 0), 2, p=0.5, policy=TruncationPolicy(4)).total() == pytest.approx(1)


def test_on_grid_finds_mass_below_the_diagonal_in_every_block():
    # The check reads a block of rows at a time: a cell just below the
    # diagonal, or in the first column, of any row is off the triangle.
    for extent in (64, 65, 131):
        StateDist.on_grid(np.triu(np.ones((extent, extent))), 0, 0.0, 0.0)
        for row in range(1, extent):
            for col in (0, row - 1):
                grid = np.zeros((extent, extent))
                grid[row, col] = 1.0
                with pytest.raises(ValueError, match="below its diagonal"):
                    StateDist.on_grid(grid, 0, 0.0, 0.0)


def test_grid_law_weights_match_reference_dict():
    law = evolve(Span(0, 0), 3, p=0.5, policy=TruncationPolicy(20))
    assert law.grid is not None
    grid, origin, empty_mass = reference_uniform_evolve(0.5, 20, 3)
    assert law.origin == origin
    want = dict_from_grid(grid, origin, empty_mass)
    assert set(law.weights) == set(want)
    assert max(abs(law.weights[k] - w) for k, w in want.items()) <= 1e-15
    # The view of the law's own grid is that grid, cell for cell.
    assert law.weights == dict_from_grid(law.grid, law.origin, law.empty_mass)
    # No death under the endpoint rule, so no EMPTY key.
    assert EMPTY not in StateDist.on_grid(np.eye(2), 0, 0.0, 0.0).weights
    # A law given as a dict reads as its grid: zero masses are dropped, and
    # ``lost`` is a float like every mass of a float law.
    given = StateDist({EMPTY: 0.0, Span(0, 0): 1.0, Span(1, 1): 0.0}, 0)
    assert given.weights == {Span(0, 0): 1.0}
    assert given.lost == 0.0 and type(given.lost) is float


def test_law_repr_is_short():
    # A law's repr does not spell out its support, which for this one holds
    # tens of thousands of spans.
    assert len(repr(evolve(Span(0, 0), 3, p=0.5, policy=TruncationPolicy(40)))) < 200


def test_grid_law_reads_match_dict_route():
    sites = range(-70, 71)
    for rule, t in ((UNIFORM, 3), (EndpointResampleContraction(), 2)):
        law = evolve(Span(-1, 1), t, rule=rule, p=0.7, policy=TruncationPolicy(25))
        as_dict = StateDist(dict(law.weights.items()), law.lost)
        assert len(as_dict.weights) >= 512
        assert law.total() == pytest.approx(as_dict.total(), abs=1e-14)
        for got, want in zip(occupancy_table(law, sites), occupancy_table(as_dict, sites)):
            assert got.site == want.site
            assert got.lo == pytest.approx(want.lo, abs=1e-14)
            assert got.hi == got.lo + law.lost
        for x in (-200, -3, 0, 2, 200):
            assert occupancy_bounds(law, x).lo == pytest.approx(occupancy_bounds(as_dict, x).lo, abs=1e-14)
        first = Span(*law.span_rows()[0][:2])  # a cell in the grid's first row
        for key in (EMPTY, first, Span(-1, 1), Span(-30, 40), Span(500, 501), Span(-500, 500)):
            assert law.mass_of(key) == as_dict.mass_of(key)
        assert law.mass_of(first) > 0


def test_span_rows_are_the_sorted_weights():
    law = evolve(Span(0, 2), 2, p=0.4, policy=TruncationPolicy(6))
    rows = law.span_rows()
    assert rows == sorted((iv.left, iv.right, w) for iv, w in law.weights.items() if iv is not None)
    assert StateDist(dict(law.weights.items()), law.lost).span_rows() == rows


@pytest.mark.parametrize("exact", [False, True])
def test_weights_view_reads_like_the_dict_it_replaced(exact):
    law = evolve(Span(0, 2), 2, p=0.5, policy=TruncationPolicy(6), exact=exact)
    weights, rows, empty = law.weights, law.span_rows(), law.mass_of(EMPTY)
    assert empty > 0
    # EMPTY first, then the grid's cells in row-major order, and the masses
    # in the same order.
    assert list(weights) == [EMPTY, *(Span(left, right) for left, right, _ in rows)]
    assert list(weights.values()) == [empty, *(mass for *_, mass in rows)]
    assert list(weights.items()) == list(zip(weights, weights.values()))
    assert len(weights) == len(weights.values()) == len(weights.items()) == len(rows) + 1
    assert {type(mass) for mass in weights.values()} == {Fraction if exact else float}
    # The sum takes the dict's order, so it keeps its bits.
    total = empty
    for *_, mass in rows:
        total += mass
    assert sum(weights.values()) == total
    # Lookups: a cell with mass, EMPTY, and no key for a span off the grid or
    # a key that is not an interval.
    left, right, mass = rows[len(rows) // 2]
    assert weights[Span(left, right)] == weights.get(Span(left, right)) == mass
    assert weights[EMPTY] == empty and (Span(left, right), mass) in weights.items()
    for key in (Span(law.origin - 3, law.origin - 1), Span(10**30, 10**30), (left, right), "EMPTY", 0):
        assert key not in weights and weights.get(key, "absent") == "absent"
        with pytest.raises(KeyError):
            weights[key]
    # Equality with a dict from either side, and a round trip through one.
    as_dict = dict(weights)
    assert list(as_dict) == list(weights)
    assert weights == as_dict and as_dict == weights
    changed = {**as_dict, EMPTY: empty * 2}
    assert weights != changed and changed != weights
    again = StateDist(dict(law.weights.items()), law.lost, exact)
    assert again.weights == weights and again.span_rows() == rows and again.lost == law.lost
    # ``dataclasses.replace`` repacks the law with one argument changed.
    leaky = dataclasses.replace(law, lost=law.lost * 2)
    assert leaky.weights == weights and leaky.lost == law.lost * 2 and leaky.exact == exact
    # The view is read-only.
    with pytest.raises(TypeError):
        weights[EMPTY] = empty
    with pytest.raises(TypeError):
        del weights[Span(left, right)]
    assert law.span_rows() == rows and law.mass_of(EMPTY) == empty


@pytest.mark.parametrize("exact", [False, True])
def test_weights_view_has_no_key_for_a_zero_cell_or_mass(exact):
    half, zero = (Fraction(1, 2), Fraction(0)) if exact else (0.5, 0.0)
    law = StateDist({EMPTY: zero, Span(0, 0): half, Span(0, 3): half}, zero, exact)
    assert law.grid.shape == (4, 4)
    assert list(law.weights) == [Span(0, 0), Span(0, 3)] and len(law.weights) == 2
    for key in (EMPTY, Span(1, 2), Span(0, 1), Span(3, 3)):
        assert key not in law.weights
        with pytest.raises(KeyError):
            law.weights[key]
    assert law.weights == {Span(0, 0): half, Span(0, 3): half}


def traced_peak(read):
    """The peak of ``read()``'s allocations under tracemalloc, in bytes."""
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_laws_weights_holds_one_block_of_objects():
    # A dict of this law's 448k spans peaked at 86 MiB under tracemalloc,
    # and reads that listed a block of 64 rows at 2.9-4.3 MiB: now a read
    # holds the objects of one row.
    law = evolve(Span(0, 0), 4, UNIFORM, 0.8, TruncationPolicy(120))
    assert traced_peak(lambda: sum(law.weights.values())) < 2**20
    assert traced_peak(lambda: sum(1 for _ in law.weights)) < 2**20


def test_reads_of_a_law_hold_a_row():
    # Coverage built the grid's whole dominance array to keep its diagonal
    # (7.1 MiB under tracemalloc): now it holds a slab of rows and a row.
    law = evolve(Span(0, 0), 4, UNIFORM, 0.8, TruncationPolicy(120))
    assert traced_peak(lambda: occupancy_table(law, range(-200, 201))) < 2 * 2**20


@pytest.mark.parametrize("exact", [False, True])
def test_laws_at_and_past_the_ends_of_int64_are_translates(exact):
    # Span ends were packed and read back as int64, which wrapped near the
    # ends of int64 and raised OverflowError past them.
    base = evolve(Span(0, 1), 1, policy=TruncationPolicy(5), exact=exact)
    for start in (2**63 - 5, 2**63, -(2**63) - 2):
        law = evolve(Span(start, start + 1), 1, policy=TruncationPolicy(5), exact=exact)
        assert [(left - start, right - start, w) for left, right, w in law.span_rows()] == base.span_rows()
        assert occupancy_bounds(law, start + 4).lo == occupancy_bounds(base, 4).lo
    with pytest.raises(ValueError, match="extent 100000000000000000000 "):
        StateDist({Span(0, 10**20 - 1): 1.0}, 0.0, exact)


def test_kill_rule_grid_matches_rational():
    policy = TruncationPolicy(5)
    rule = KillThenUniformContraction(lambda n: 0.1 + 0.8 / n)
    float_dist = evolve(Span(0, 1), 3, rule=rule, p=0.5, policy=policy)
    exact_dist = evolve(Span(0, 1), 3, rule=rule, p=Fraction(1, 2), policy=policy, exact=True)
    assert float_dist.grid is not None
    assert set(float_dist.weights) == set(exact_dist.weights)
    for key, value in exact_dist.weights.items():
        assert float_dist.weights[key] == pytest.approx(float(value), abs=1e-12)
    assert float_dist.lost == pytest.approx(float(exact_dist.lost), abs=1e-12)


def test_kill_rule_rejects_bad_death_probability():
    for death in (1.5, -0.1, float("nan")):
        rule = KillThenUniformContraction(lambda n, d=death: d)
        for refused in (
            lambda: evolve(Span(0, 0), 1, rule=rule),
            lambda: evolve(Span(0, 0), 1, rule=rule, exact=True),
            lambda: contraction_pushforward(StateDist({Span(0, 1): 1.0}, 0.0), rule),
            lambda: contraction_outcome_pmf(Span(0, 1), rule, exact=True),
            lambda: contract(Span(0, 1), rule, Stream(0)),
            lambda: estimate_occupancy(Span(0, 1), 1, [0], 10, rule=rule),
        ):
            with pytest.raises(ValueError, match="outside"):
                refused()


def test_huge_grid_fails_closed_without_allocating():
    tracemalloc.start()
    try:
        for push in (
            # A law given as a dict is packed onto its grid when it is built,
            # so one whose grid is too large is refused there.
            lambda: StateDist({Span(0, 0): 0.5, Span(10**5, 10**5): 0.5}, 0.0),
            lambda: evolve(Span(0, 10**5), 1),
            lambda: evolve(Span(0, 0), 1, policy=TruncationPolicy(10**4)),
        ):
            with pytest.raises(ValueError, match="extent 100001|extent 20001"):
                push()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_huge_rational_grid_fails_closed_without_allocating():
    half = Fraction(1, 2)
    # A grid of extent 1000 over the denominator 1 is small, but the uniform
    # rule's factors at sizes 1..1000 have an lcm of 9152 bits, which every
    # numerator of its contraction may reach.
    wide = np.zeros((1000, 1000), dtype=object)
    wide[0, -1] = 1
    wide = StateDist.on_grid(wide, 0, 0, 0, 1)
    tracemalloc.start()
    try:
        for push, extent in (
            (lambda: StateDist({Span(0, 0): half, Span(10**5, 10**5): half}, Fraction(0), exact=True), 100001),
            (lambda: contraction_pushforward(wide, UNIFORM), 1000),
            (lambda: evolve(Span(0, 0), 1, policy=TruncationPolicy(10**4), exact=True), 20001),
            # A float grid of extent 201 is small, but this one's numerators
            # need 2 * 101 * 3170 bits each.
            (lambda: evolve(Span(0, 0), 1, p=Fraction(1, 3**2000), policy=TruncationPolicy(100),
                            exact=True), 201),
        ):
            with pytest.raises(ValueError, match=f"rational law of extent {extent} "):
                push()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_rational_kill_rule_reproduces_uniform_exactly():
    rule = KillThenUniformContraction()
    law = evolve(Span(0, 2), 1, rule, Fraction(1, 2), TruncationPolicy(4), exact=True)
    assert law.mass_of(EMPTY) == Fraction(1, 7)
    kill = evolve(Span(0, 0), 2, rule, Fraction(1, 2), TruncationPolicy(6), exact=True)
    uniform = evolve(Span(0, 0), 2, UNIFORM, Fraction(1, 2), TruncationPolicy(6), exact=True)
    assert kill.weights == uniform.weights
    assert kill.lost == uniform.lost
    # The float path and the samplers still get a float, the correctly
    # rounded value of the exact death.
    assert rule.death_at(2) == 0.25 and isinstance(rule.death_at(2), float)
    for n in range(1, 2001):
        slots = n * (n + 1) // 2 + 1
        assert rule.death_at(n) == 1.0 / slots
        assert rule.death_at(n, True) == Fraction(1, slots)


@pytest.mark.parametrize("t", [4, 5, 6])
def test_float_grid_holds_to_rational_grid_cell_by_cell(t):
    policy = TruncationPolicy(12)
    exact = evolve(Span(0, 0), t, p=Fraction(1, 2), policy=policy, exact=True)
    law = evolve(Span(0, 0), t, p=0.5, policy=policy)
    total = exact.total()
    assert type(total) is Fraction and total == 1
    assert (law.origin, law.grid.shape) == (exact.origin, exact.grid.shape)
    live = law.grid != 0
    assert np.array_equal(live, exact.grid != 0)
    want = np.array([float(Fraction(m, exact.denom)) for m in exact.grid[live]])
    assert np.max(np.abs(law.grid[live] - want) / want) <= 1e-12
    sites = range(-(3 * 12), 3 * 12 + 1)
    for got, bracket in zip(occupancy_table(law, sites), occupancy_table(exact, sites)):
        assert type(bracket.lo) is Fraction and bracket.hi - bracket.lo == exact.lost
        assert float(bracket.lo) - 1e-12 <= got.lo <= got.hi <= float(bracket.hi) + 1e-12


def test_float_lost_is_never_negative():
    # At this p the float expansion kernel sums past 1 by rounding, which
    # once gave a negative lost increment and brackets with hi below lo.
    policy = TruncationPolicy(20)
    law = evolve(Span(0, 0), 3, p=0.0115, policy=policy)
    exact = evolve(Span(0, 0), 3, p=Fraction(115, 10_000), policy=policy, exact=True)
    assert law.lost >= 0
    for got, bracket in zip(occupancy_table(law, [0, 1]), occupancy_table(exact, [0, 1])):
        assert got.lo <= got.hi and got.hi >= bracket.lo


def uniform_by_size(k, n):
    """The size pmf under which the size-weighted rule is the uniform one
    (as in test_intervals)."""
    total = n * (n + 1) // 2 + 1
    return (1 if k == 0 else n - k + 1) / total


@pytest.mark.parametrize("exact", [False, True])
def test_size_weighted_rule_matches_uniform_through_the_oracle(exact):
    # The size-weighted rule contracts on the grid as one term per outcome
    # size; their sum is the uniform rule's single term.
    p = Fraction(1, 2) if exact else 0.5
    policy = TruncationPolicy(8)
    law = evolve(Span(0, 0), 3, SizeWeightedContraction(uniform_by_size), p, policy, exact=exact)
    want = evolve(Span(0, 0), 3, UNIFORM, p, policy, exact=exact)
    assert law.grid is not None and law.exact is exact
    assert law.support() == want.support()
    assert [row[:2] for row in law.span_rows()] == [row[:2] for row in want.span_rows()]
    assert float(law.lost) == pytest.approx(float(want.lost), abs=1e-12)
    sites = range(-30, 31)
    for got, bracket in zip(occupancy_table(law, sites), occupancy_table(want, sites)):
        assert float(got.lo) == pytest.approx(float(bracket.lo), abs=1e-12)
        assert float(got.hi) == pytest.approx(float(bracket.hi), abs=1e-12)


def triangular_sizes(k, n):
    """Size pmf proportional to k + 1; most of its masses are not dyadic."""
    return (k + 1) / ((n + 1) * (n + 2) / 2)


def contract_by_enumeration(dist, rule):
    """The contraction law as a dict: every span's outcome pmf, weighted by
    its mass and summed, the empty mass carried over."""
    zero = Fraction(0) if dist.exact else 0.0
    out = {EMPTY: dist.mass_of(EMPTY)}
    for left, right, mass in dist.span_rows():
        for outcome, prob in contraction_outcome_pmf(Span(left, right), rule, dist.exact).items():
            out[outcome] = out.get(outcome, zero) + mass * prob
    return StateDist(out, dist.lost, dist.exact)


def assert_same_law(got, want):
    """Cell by cell: equal on rational laws, within 1e-12 relative on float
    ones; the empty mass and ``lost`` too."""
    got_rows, want_rows = got.span_rows(), want.span_rows()
    assert [row[:2] for row in got_rows] == [row[:2] for row in want_rows]
    pairs = [(g[2], w[2]) for g, w in zip(got_rows, want_rows)]
    pairs += [(got.mass_of(EMPTY), want.mass_of(EMPTY)), (got.lost, want.lost)]
    for a, b in pairs:
        if want.exact:
            assert a == b
        else:
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("start", [Span(0, 0), Span(-2, 3)])
@pytest.mark.parametrize("size_pmf", [binomial_sizes, triangular_sizes])
def test_size_weighted_grid_law_matches_enumeration(size_pmf, start, exact):
    rule = SizeWeightedContraction(size_pmf)
    p = Fraction(1, 2) if exact else 0.5
    policy = TruncationPolicy(5)
    want = StateDist.point_mass(start, exact)
    for t in (1, 2, 3):
        want = expansion_pushforward(contract_by_enumeration(want, rule), p, policy)
        got = evolve(start, t, rule, p, policy, exact=exact)
        assert got.exact is exact
        assert_same_law(got, want)
    # One contraction of a law given as a dict, with mass on the empty state.
    one = Fraction(1) if exact else 1.0
    masses = {EMPTY: one / 4, Span(0, 2): one / 2, Span(1, 1): one / 8, Span(-3, 1): one / 8}
    dist = StateDist(masses, one * 0, exact)
    assert_same_law(contraction_pushforward(dist, rule), contract_by_enumeration(dist, rule))


@pytest.mark.parametrize("rule", [
    UNIFORM,
    KillThenUniformContraction(),
    KillThenUniformContraction(lambda n: Fraction(1, 3)),
    EndpointResampleContraction(),
    SizeWeightedContraction(rational_sizes),
], ids=["uniform", "kill", "kill-third", "endpoint", "size-weighted"])
def test_grid_factors_are_the_reference_law(rule):
    # A source of n sites sends its death terms to the empty state and
    # sum(share[n - 1] * outcome[k - 1]) to each outcome of size k: exactly
    # the enumerated law's masses.
    from boxchain.oracle import _grid_factors

    terms = _grid_factors(rule, np.arange(1, 9), exact=True)
    for n in range(1, 9):
        want = contraction_outcome_pmf(Span(0, n - 1), rule, exact=True)
        assert sum(death[n - 1] for _, death, _ in terms if death is not None) == want.get(EMPTY, 0), n
        for k in range(1, n + 1):
            share = sum(share[n - 1] * outcome[k - 1] for share, _, outcome in terms)
            assert all(want[Span(a, a + k - 1)] == share for a in range(n - k + 1)), (n, k)


def test_rational_size_pmf_conserves_mass_exactly():
    # The triangular pmf as Fractions: read through float(), its
    # non-dyadic values lost about 1e-16 of mass per step.
    def tri(k, n):
        return Fraction(k + 1) / Fraction((n + 1) * (n + 2), 2)

    rule = SizeWeightedContraction(tri)
    for t in (1, 2, 3):
        assert evolve(Span(0, 0), t, rule, Fraction(1, 2), TruncationPolicy(5), exact=True).total() == 1
    assert sum(contraction_outcome_pmf(Span(0, 4), rule, exact=True).values()) == 1
    # A pmf of Fractions that sums to 1 only within the float tolerance is
    # refused in exact arithmetic, where it would gain mass, and read as
    # floats otherwise.
    def heavy(k, n):
        return Fraction(1, n + 1) * (1 + Fraction(1, 2 * 10**9) * (k == 0))

    rule = SizeWeightedContraction(heavy)
    with pytest.raises(ValueError, match="expected exactly 1"):
        evolve(Span(0, 0), 2, rule, Fraction(1, 2), TruncationPolicy(4), exact=True)
    assert evolve(Span(0, 0), 2, rule, 0.5, TruncationPolicy(4)).total() == pytest.approx(1)


def test_rational_size_pmf_is_read_once_per_value():
    calls = []

    def pmf(k, n):
        calls.append((k, n))
        return Fraction(1, n + 1)

    evolve(Span(0, 1), 1, SizeWeightedContraction(pmf), Fraction(1, 2), TruncationPolicy(2), exact=True)
    assert calls and len(calls) == len(set(calls))


def test_size_pmf_is_read_once_per_evolve():
    calls = []

    def tri(k, n):
        calls.append((k, n))
        return Fraction(2 * (k + 1), (n + 1) * (n + 2))

    rule, policy, half = SizeWeightedContraction(tri), TruncationPolicy(8), Fraction(1, 2)
    # Its three contractions read sizes up to 1, 17 and 33: 2 + 170 + 594
    # values, of which the last step's 594 are all distinct.
    evolve(Span(0, 0), 3, rule, 0.5, policy)
    assert len(calls) == len(set(calls)) == 594
    calls.clear()
    law = evolve(Span(0, 0), 3, rule, half, policy, exact=True)
    assert len(calls) == len(set(calls)) == 594
    # The law is the one its steps make when each reads the pmf afresh.
    stepped = StateDist.point_mass(Span(0, 0), exact=True)
    for _ in range(3):
        stepped = expansion_pushforward(contraction_pushforward(stepped, rule), half, policy)
    assert len(calls) == 594 + 766
    assert law.common_denominator() == stepped.common_denominator()
    assert np.array_equal(law.grid, stepped.grid)
    assert (law.origin, law.empty_mass, law.lost) == (stepped.origin, stepped.empty_mass, stepped.lost)


def test_truncation_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(-1)
    # A fractional n_max used to construct and then fail inside the expansion.
    with pytest.raises(ValueError, match="n_max must be an integer, got 2.5"):
        TruncationPolicy(2.5)
    for n_max in (3.0, np.int64(3)):
        assert type(TruncationPolicy(n_max).n_max) is int
        assert TruncationPolicy(n_max) == TruncationPolicy(3)
    assert TruncationPolicy(3).per_step_loss_bound(0.5) == pytest.approx(1 - (1 - 0.5**4) ** 2)


# ---------------------------------------------------------------------------
# exhaustive coupled-transition audit


def test_coupling_transition_check_point_host():
    report = coupling_transition_check(Span(-1, -1), Fraction(1, 2), 14)
    assert report.max_minus_discrepancy == 0
    assert report.max_plus_discrepancy <= 2 * Fraction(1, 2) ** 14


def test_coupling_transition_check_wider_hosts():
    for host in (Span(-2, -1), Span(-3, 0)):
        report = coupling_transition_check(host, Fraction(1, 2), 14)
        assert report.max_minus_discrepancy == 0
        assert report.max_plus_discrepancy <= 2 * Fraction(1, 2) ** 14
        assert report.max_plus_discrepancy <= report.tail_bound


def test_coupling_transition_check_rejects_bad_host():
    with pytest.raises(ValueError):
        coupling_transition_check(Span(0, 0), Fraction(1, 2), 8)


def test_coupling_transition_check_audits_the_coupled_step(monkeypatch):
    # The audit steps every draw through coupled_step, so a fault in the
    # shared expansion of a core inside the hosts' overlap shows in its
    # report.  Span(-3, 0) straddles -1/2, so its cores inside [-1, 0] are
    # shared; no sub-interval of Span(-2, -1) would be.
    from boxchain import coupling

    def right_only(core, p, stream):
        stream.geometric(p)
        return Span(core.left, core.right + stream.geometric(p))

    monkeypatch.setattr(coupling, "expand", right_only)
    report = coupling_transition_check(Span(-3, 0), Fraction(1, 2), 8)
    assert report.max_minus_discrepancy > 0

    def one_run(core, p, stream):
        return Span(core.left - stream.geometric(p), core.right)

    monkeypatch.setattr(coupling, "expand", one_run)
    with pytest.raises(ValueError, match="unread"):
        coupling_transition_check(Span(-3, 0), Fraction(1, 2), 8)
