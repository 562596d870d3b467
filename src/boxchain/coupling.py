"""Executable couplings for the interval process.

Two constructions live here:

* a reflection coupling that runs a second copy as the exact mirror image
  of the first about the origin, proving the occupancy function is even;
* an antithetic coupling of the processes started at {-1} and {0} that
  keeps the pair either identical or mirror images of each other about the
  half-integer point -1/2, and therefore pathwise-dominates the right half
  line, proving the occupancy function decreases away from the origin.

All arithmetic is done in original integer coordinates, where the
antithetic mirror is the map x -> -1 - x.  A zero-skipping relabeling
(0 -> 1, 1 -> 2, ..., negatives unchanged) makes the pair symmetric about
zero; it is provided as a documented conversion for the endpoint gap and
for tests, but no interval arithmetic is performed in label space.

The expansion phase is pictured on surfaces: a geometric amount is the
run of 1s before the first 0 in an i.i.d. Bernoulli(p) sequence.  Coupling
the two processes' surfaces index-by-index either coalesces the pair
exactly (when the minus right run reaches the right-endpoint offset, so
its first ``offset`` entries are all 1) or swaps the surfaces so the
mirror relation is preserved.  Only the runs enter the step, so they are
drawn directly as geometric amounts, left then right, as every other
step draws them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import _EXPORTS
from .intervals import EMPTY, Interval, Span, UNIFORM, _at_least, contract, expand, validate_expansion_param
from .stream import Stream

__all__ = _EXPORTS["coupling"]


def reflect_origin(interval: Interval) -> Interval:
    """Reflection about the origin: [a, b] -> [-b, -a]; empty maps to empty."""
    if interval is None:
        return EMPTY
    return Span(-interval.right, -interval.left)


def antithetic_mirror(interval: Interval) -> Interval:
    """Mirror about -1/2: [a, b] -> [-1-b, -1-a]; an involution fixing empty."""
    if interval is None:
        return EMPTY
    return Span(-1 - interval.right, -1 - interval.left)


def relabel_site(x: int) -> int:
    """Zero-skipping label of an original site: 0 -> 1, 1 -> 2, negatives kept."""
    return x + 1 if x >= 0 else x


def unrelabel_site(label: int) -> int:
    """Inverse of :func:`relabel_site`; label 0 does not exist."""
    if label == 0:
        raise ValueError("label 0 does not exist in the zero-skipping labeling")
    return label - 1 if label >= 1 else label


class PairClass(Enum):
    """Classification of an ordered state pair of the antithetic coupling."""

    BOTH_EMPTY = "both-empty"
    IDENTICAL = "identical"
    ANTITHETIC = "antithetic"
    UNRELATED = "unrelated"


def classify_pair(minus: Interval, plus: Interval) -> PairClass:
    """Total, mutually exclusive classification of (minus, plus).

    ANTITHETIC means: plus is the antithetic mirror of minus, minus holds at
    least one negative site, strictly more sites of minus carry negative
    labels than positive ones (minus.right + 1 <= -minus.left), and the pair
    is neither identical nor empty.
    """
    if minus is None and plus is None:
        return PairClass.BOTH_EMPTY
    if minus is None or plus is None:
        return PairClass.UNRELATED
    if minus == plus:
        return PairClass.IDENTICAL
    if (
        plus == antithetic_mirror(minus)
        and minus.left <= -1
        and minus.right + 1 <= -minus.left
    ):
        return PairClass.ANTITHETIC
    return PairClass.UNRELATED


def overlap(a: Interval, b: Interval) -> Interval:
    """Intersection of two intervals."""
    if a is None or b is None:
        return EMPTY
    left = max(a.left, b.left)
    right = min(a.right, b.right)
    return Span(left, right) if left <= right else EMPTY


def antithetic_image(host_minus: Span, sub: Interval) -> Interval:
    """Match a contraction of the minus host to one of the mirrored host.

    Sub-intervals inside the overlap of the two hosts are fixed; every
    other sub-interval is sent to its antithetic mirror.  This is a
    bijection between the two hosts' sub-interval families.
    """
    host_plus = antithetic_mirror(host_minus)
    if classify_pair(host_minus, host_plus) is not PairClass.ANTITHETIC:
        raise ValueError(f"host {host_minus} does not sit in the antithetic class")
    if sub is None:
        return EMPTY
    if not (host_minus.left <= sub.left and sub.right <= host_minus.right):
        raise ValueError(f"{sub} is not a sub-interval of {host_minus}")
    shared = overlap(host_minus, host_plus)
    if shared is not None and shared.left <= sub.left and sub.right <= shared.right:
        return sub
    return antithetic_mirror(sub)


def _require_antithetic(tilde_minus: Interval, tilde_plus: Interval) -> None:
    if classify_pair(tilde_minus, tilde_plus) is not PairClass.ANTITHETIC:
        raise ValueError(f"pair ({tilde_minus}, {tilde_plus}) is not antithetic-proper")


def endpoint_gap(tilde_minus: Span, tilde_plus: Span) -> int:
    """Right-endpoint separation of an antithetic pair in zero-skipping labels.

    Equals ``tilde_plus.right - tilde_minus.right`` plus one when the pair's
    right endpoints straddle zero; always >= 1 on the antithetic class.
    """
    _require_antithetic(tilde_minus, tilde_plus)
    return relabel_site(tilde_plus.right) - relabel_site(tilde_minus.right)


def right_offset(tilde_minus: Span, tilde_plus: Span) -> int:
    """Lattice-step separation of the right endpoints (equals the left one).

    This is the length of the all-1s prefix of the minus right surface that
    triggers exact coalescence: shifting the minus interval by this many
    sites yields the plus interval.
    """
    _require_antithetic(tilde_minus, tilde_plus)
    return tilde_plus.right - tilde_minus.right


@dataclass(frozen=True, slots=True)
class CoupledState:
    """Ordered pair of coupled states plus the coalescence flag.

    Invariants: once coalesced the two components are identical and driven
    by shared draws; otherwise the pair classifies as antithetic or as the
    absorbed empty pair.  In all cases the plus component contains at least
    the nonnegative sites of the minus component.
    """

    minus: Interval
    plus: Interval
    coalesced: bool


def initial_coupled_state() -> CoupledState:
    """The canonical starting pair: minus at {-1}, plus at {0}."""
    return CoupledState(Span(-1, -1), Span(0, 0), False)


def coupled_contraction(state: CoupledState, stream: Stream) -> tuple[Interval, Interval]:
    """Draw the minus contraction uniformly; map it through the bijection.

    Both marginals are exact uniform contractions because the map is a
    bijection between equally sized sub-interval families.
    """
    if state.coalesced:
        raise ValueError("coalesced states contract with shared draws, not here")
    _require_antithetic(state.minus, state.plus)
    tilde_minus = contract(state.minus, UNIFORM, stream)
    return tilde_minus, antithetic_image(state.minus, tilde_minus)


def coupled_expansion_amounts(
    minus_right_run: int, minus_left_run: int, offset: int
) -> tuple[bool, int, int, int, int]:
    """Map the minus-side surface run lengths to both sides' expansion amounts.

    Returns (coalesced, minus_left, minus_right, plus_left, plus_right).

    Coalescing branch (the first ``offset`` entries of the minus right
    surface are all 1, i.e. its run is >= offset): the plus left surface is
    that all-1s prefix followed by the minus left surface, and the plus
    right surface is the minus right surface shifted past the prefix.
    Antithetic branch: the plus surfaces are the minus surfaces with left
    and right roles swapped.  Either way both sides' amounts are a pair of
    independent geometrics.
    """
    if minus_right_run >= offset:
        return (
            True,
            minus_left_run,
            minus_right_run,
            offset + minus_left_run,
            minus_right_run - offset,
        )
    return False, minus_left_run, minus_right_run, minus_right_run, minus_left_run


def coupled_expansion(
    tilde_minus: Span, tilde_plus: Span, right_run: int, left_run: int
) -> CoupledState:
    """One coupled expansion of an antithetic contracted pair.

    Applies :func:`coupled_expansion_amounts` to the minus process's right
    and left runs.  The result is either an exactly coalesced identical
    pair or a pair that is again antithetic; any other result raises
    ``ValueError``.
    """
    coalesced, m_left, m_right, p_left, p_right = coupled_expansion_amounts(
        right_run, left_run, right_offset(tilde_minus, tilde_plus)
    )
    new_minus = Span(tilde_minus.left - m_left, tilde_minus.right + m_right)
    new_plus = Span(tilde_plus.left - p_left, tilde_plus.right + p_right)
    if new_plus != (new_minus if coalesced else antithetic_mirror(new_minus)):
        raise ValueError(f"coupled expansion gave {new_minus}, {new_plus} with coalesced={coalesced}")
    return CoupledState(new_minus, new_plus, coalesced)


def coupled_step(
    state: CoupledState,
    p: float,
    stream: Stream,
    *,
    skip_antithetic_map: bool = False,
) -> CoupledState:
    """One full coupled transition.

    Identical pairs (and anything after coalescence) take one shared
    standard step; the empty pair is absorbing; antithetic pairs contract
    through the bijection and then expand through the coupled surfaces.
    Every branch draws one contraction rank, then the left run, then the
    right run.

    ``skip_antithetic_map`` is deliberate fault injection for verification:
    it copies the minus contraction verbatim instead of mirroring it, which
    corrupts the plus marginal while keeping every state well formed.
    """
    validate_expansion_param(p)
    kind = classify_pair(state.minus, state.plus)
    if kind is PairClass.BOTH_EMPTY:
        return state
    if state.coalesced or kind is PairClass.IDENTICAL:
        shared = expand(contract(state.minus, UNIFORM, stream), p, stream)
        return CoupledState(shared, shared, True)
    if kind is not PairClass.ANTITHETIC:
        raise ValueError(f"state {state} violates the coupling invariant")
    tilde_minus, tilde_plus = coupled_contraction(state, stream)
    if skip_antithetic_map:
        tilde_plus = tilde_minus
    if tilde_minus is None:
        return CoupledState(EMPTY, EMPTY, False)
    if tilde_plus == tilde_minus:
        shared = expand(tilde_minus, p, stream)
        return CoupledState(shared, shared, True)
    left_run = stream.geometric(p)
    right_run = stream.geometric(p)
    return coupled_expansion(tilde_minus, tilde_plus, right_run, left_run)


def run_coupled(
    horizon: int,
    p: float,
    stream: Optional[Stream] = None,
    seed: int = 0,
    *,
    skip_antithetic_map: bool = False,
) -> list[CoupledState]:
    """Coupled trajectory from the canonical pair, times 0..horizon."""
    horizon = _at_least("horizon", horizon, 0)
    if stream is None:
        stream = Stream(seed)
    state = initial_coupled_state()
    path = [state]
    for _ in range(horizon):
        state = coupled_step(state, p, stream, skip_antithetic_map=skip_antithetic_map)
        path.append(state)
    return path


def dominates_nonnegative(minus: Interval, plus: Interval) -> bool:
    """Does plus contain every nonnegative site of minus?"""
    if minus is None or minus.right < 0:
        return True
    if plus is None:
        return False
    return plus.left <= max(minus.left, 0) and plus.right >= minus.right


# ---------------------------------------------------------------------------
# reflection coupling


def reflection_coupled_step(
    zeta: Interval,
    eta: Interval,
    p: float,
    stream: Stream,
    *,
    swap_expansion_draws: bool = True,
) -> tuple[Interval, Interval]:
    """One coupled transition of a mirror pair (eta the reflection of zeta).

    The second process contracts to the reflection of the first's
    contraction and expands with the first's geometric draws in swapped
    roles, so the mirror identity propagates while both marginals remain
    standard transitions.

    ``swap_expansion_draws=False`` is deliberate fault injection: reusing
    the draws without swapping breaks the mirror identity as soon as the
    two amounts differ.
    """
    if eta != reflect_origin(zeta):
        raise ValueError(f"eta {eta} is not the reflection of zeta {zeta}")
    validate_expansion_param(p)
    tilde_zeta = contract(zeta, UNIFORM, stream)
    tilde_eta = reflect_origin(tilde_zeta)
    if tilde_zeta is None:
        return EMPTY, EMPTY
    grow_left = stream.geometric(p)
    grow_right = stream.geometric(p)
    new_zeta = Span(tilde_zeta.left - grow_left, tilde_zeta.right + grow_right)
    if swap_expansion_draws:
        new_eta = Span(tilde_eta.left - grow_right, tilde_eta.right + grow_left)
    else:
        new_eta = Span(tilde_eta.left - grow_left, tilde_eta.right + grow_right)
    return new_zeta, new_eta


def run_reflection(
    horizon: int,
    p: float,
    stream: Optional[Stream] = None,
    seed: int = 0,
    *,
    initial: Interval = Span(0, 0),
    swap_expansion_draws: bool = True,
) -> list[tuple[Interval, Interval]]:
    """Mirror-pair trajectory from (initial, reflect(initial))."""
    horizon = _at_least("horizon", horizon, 0)
    if stream is None:
        stream = Stream(seed)
    pair = (initial, reflect_origin(initial))
    path = [pair]
    for _ in range(horizon):
        pair = reflection_coupled_step(
            pair[0], pair[1], p, stream, swap_expansion_draws=swap_expansion_draws
        )
        path.append(pair)
        if pair[1] != reflect_origin(pair[0]):
            # Only reachable under fault injection; the coupling is undefined
            # past a broken mirror pair, so the trajectory ends here.
            break
    return path
