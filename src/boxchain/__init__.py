"""Markov dynamics of randomly contracting, geometrically expanding lattice regions.

The one-dimensional process lives on integer intervals: each step picks a
uniform random sub-interval (possibly the absorbing empty set) and pushes
the surviving endpoints outward by independent geometric amounts.  The
d-dimensional variant does the same with axis-aligned boxes and their
faces.  The package simulates these dynamics, propagates their law exactly
with certified truncation error, and verifies the symmetry and
monotonicity of the occupancy function both statistically and through two
executable couplings.

The package loads lazily: ``import boxchain`` imports none of its
modules, and the first read of a public name imports the module that
defines it (PEP 562), so a command pays only for the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# The public names, by the module that defines them: the one list, which
# each module reads as its ``__all__``.
_EXPORTS = {
    "boxes": (
        "Box",
        "EMPTY_BOX",
        "HyperRect",
        "contract_uniform",
        "count_nonempty_subrects",
        "expand_faces",
        "l1_ball",
        "l1_norm",
        "simulate_path_rect",
        "step_rect",
        "unit_box",
    ),
    "coupling": (
        "CoupledState",
        "PairClass",
        "antithetic_image",
        "antithetic_mirror",
        "classify_pair",
        "coupled_contraction",
        "coupled_expansion",
        "coupled_expansion_amounts",
        "coupled_step",
        "dominates_nonnegative",
        "endpoint_gap",
        "initial_coupled_state",
        "reflect_origin",
        "reflection_coupled_step",
        "relabel_site",
        "right_offset",
        "run_coupled",
        "run_reflection",
        "unrelabel_site",
    ),
    "intervals": (
        "EMPTY",
        "ContractionRule",
        "EndpointResampleContraction",
        "Interval",
        "KillThenUniformContraction",
        "SizeWeightedContraction",
        "Span",
        "UNIFORM",
        "UniformContraction",
        "contract",
        "count_nonempty_subintervals",
        "expand",
        "geometric_pmf",
        "geometric_sample",
        "rank_subinterval",
        "simulate_path",
        "size_of",
        "step",
        "uniform_death_probability",
        "unrank_subinterval",
    ),
    "montecarlo": (
        "CheckReport",
        "CoalescenceSummary",
        "OccupancyEstimate",
        "check_even",
        "check_monotone_1d",
        "check_monotone_l1",
        "coalescence_stats",
        "coupling_invariant_check",
        "coupling_marginal_test",
        "estimate_occupancy",
        "estimate_occupancy_2d",
        "hoeffding_interval",
        "reflection_identity_check",
        "wilson_interval",
    ),
    "oracle": (
        "CouplingTransitionReport",
        "Mass",
        "OccupancyBounds",
        "StateDist",
        "TruncationPolicy",
        "contraction_outcome_pmf",
        "contraction_pushforward",
        "coupling_transition_check",
        "evolve",
        "expansion_pushforward",
        "occupancy_bounds",
        "occupancy_table",
    ),
    "stream": ("Stream",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the module behind ``name`` on its first read.

    A public name is cached in the package with the rest of its module's
    names, so ``boxchain.X is boxchain.<module>.X`` and later reads skip
    this function; a submodule name returns the submodule.
    """
    if name in _HOME:
        module = _import_module(f".{_HOME[name]}", __name__)
        globals().update({each: getattr(module, each) for each in _EXPORTS[_HOME[name]]})
        return globals()[name]
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
