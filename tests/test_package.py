"""The package's public surface, and which modules each entry point loads."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import boxchain
from boxchain import boxes, coupling, intervals, montecarlo, oracle, stream

# Every name the package re-exported when it imported its modules eagerly,
# by the module that defines it.
PUBLIC = {
    boxes: (
        "Box", "EMPTY_BOX", "HyperRect", "contract_uniform", "count_nonempty_subrects",
        "expand_faces", "l1_ball", "l1_norm", "simulate_path_rect", "step_rect", "unit_box",
    ),
    coupling: (
        "CoupledState", "PairClass", "antithetic_image", "antithetic_mirror",
        "classify_pair", "coupled_contraction", "coupled_expansion", "coupled_expansion_amounts",
        "coupled_step", "dominates_nonnegative", "endpoint_gap", "initial_coupled_state",
        "reflect_origin", "reflection_coupled_step", "relabel_site", "right_offset",
        "run_coupled", "run_reflection", "unrelabel_site",
    ),
    intervals: (
        "EMPTY", "ContractionRule", "EndpointResampleContraction", "Interval",
        "KillThenUniformContraction", "SizeWeightedContraction", "Span", "UNIFORM",
        "UniformContraction", "contract", "count_nonempty_subintervals", "expand",
        "geometric_pmf", "geometric_sample", "rank_subinterval", "simulate_path", "size_of",
        "step", "uniform_death_probability", "unrank_subinterval",
    ),
    montecarlo: (
        "CheckReport", "CoalescenceSummary", "OccupancyEstimate", "check_even",
        "check_monotone_1d", "check_monotone_l1", "coalescence_stats",
        "coupling_invariant_check", "coupling_marginal_test", "estimate_occupancy",
        "estimate_occupancy_2d", "hoeffding_interval", "reflection_identity_check",
        "wilson_interval",
    ),
    oracle: (
        "CouplingTransitionReport", "Mass", "OccupancyBounds", "StateDist", "TruncationPolicy",
        "contraction_outcome_pmf", "contraction_pushforward", "coupling_transition_check",
        "evolve", "expansion_pushforward", "occupancy_bounds", "occupancy_table",
    ),
    stream: ("Stream",),
}
NAMES = [name for names in PUBLIC.values() for name in names]


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_name_is_its_modules_object(module, name):
    assert getattr(boxchain, name) is getattr(module, name)


def test_star_import_and_dir_cover_the_public_names():
    namespace = {}
    exec("from boxchain import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(boxchain, name) for name in NAMES)
    assert set(NAMES) <= set(dir(boxchain))
    assert sorted(boxchain.__all__) == sorted(NAMES)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        boxchain.no_such_name
    assert not hasattr(boxchain, "_private")
    with pytest.raises(ImportError):
        exec("from boxchain import no_such_name", {})


def test_every_export_is_in_its_modules_all():
    # ``from boxchain.<module> import *`` gives exactly the names the
    # package exports from that module: none missing, none extra.
    for module, names in boxchain._EXPORTS.items():
        assert sorted(getattr(boxchain, module).__all__) == sorted(names), module


def test_readme_python_blocks_run():
    # The blocks run in order in one namespace, as a reader would paste
    # them, so a changed signature cannot leave the quickstart stale.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(block, namespace)


def test_mutant_choices_are_montecarlo_mutants():
    from boxchain.cli import _MUTANTS, _SUITES, build_parser

    assert set(_MUTANTS) == {mutant for *_, mutant in _SUITES.values()} - {None}
    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    (mutant,) = (a for a in verify._actions if a.dest == "mutant")
    assert tuple(mutant.choices) == _MUTANTS


# What a fresh process loads: run ``main(argv)`` (or nothing, for a bare
# ``import boxchain``) and print the loaded boxchain modules, with
# "numpy" among them when the run loaded numpy.
PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
import boxchain
if argv is not None:
    from boxchain.cli import main
    assert main(argv) in (0, 1)
print(json.dumps({
    "modules": sorted(m.split(".")[1] for m in sys.modules if m.startswith("boxchain."))
    + ["numpy"] * ("numpy" in sys.modules),
    "futures": "concurrent.futures" in sys.modules,
}))
"""


def fresh_python(code, *args):
    """The stdout of ``code`` run with ``args`` in a fresh interpreter."""
    src = str(Path(boxchain.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def loaded(argv, tmp_path):
    if argv is not None:
        argv = [*argv, "--out", str(tmp_path / "out.csv")]
    return json.loads(fresh_python(PROBE, json.dumps(argv)))


@pytest.mark.parametrize("argv, absent", [
    (None, {"boxes", "cli", "coupling", "intervals", "montecarlo", "oracle", "stream", "numpy"}),
    (["simulate", "--t", "2"], {"boxes", "coupling", "montecarlo", "oracle", "numpy"}),
    (["simulate", "--dimension", "2", "--t", "2"], {"coupling", "montecarlo", "oracle", "numpy"}),
    (["exact", "--t", "2", "--n-max", "8"], {"boxes", "coupling", "montecarlo"}),
    (["mc", "--t", "2", "--trials", "2000"], {"oracle"}),
    (["mc", "--dimension", "2", "--t", "1", "--trials", "2000"], {"oracle"}),
    (["verify", "--suites", "reflection,coupling-invariants", "--trials", "200"], {"oracle"}),
])
def test_each_entry_point_loads_only_what_it_runs(argv, absent, tmp_path):
    probe = loaded(argv, tmp_path)
    assert not absent & set(probe["modules"]), probe["modules"]
    assert not probe["futures"]


def test_scalar_draws_load_no_numpy():
    # Twenty steps draw from the port's one block of 512 words, which every
    # kind of scalar draw shares; once a stream's scalar draws pass those
    # 512 words, of any kind, the next block is numpy's, which loads numpy.
    code = """
import sys
from boxchain import Stream, Span, step, UNIFORM
stream = Stream(5).substream("path", 0)
state = Span(0, 3)
for _ in range(20):
    state = step(state, UNIFORM, 0.5, stream) or Span(0, 3)
before = "numpy" in sys.modules
[stream.random() for _ in range(1024)]
print(before, "numpy" in sys.modules)
"""
    assert fresh_python(code).split() == ["False", "True"]


def test_fresh_simulate_sidecar_records_numpy_as_null(tmp_path):
    # A fresh `simulate --t 3` loads no numpy, so its sidecar has no numpy
    # version to record; the in-process sidecar test has numpy loaded.
    out = tmp_path / "sim.csv"
    main = "import sys; from boxchain.cli import main; sys.exit(main())"
    fresh_python(main, "simulate", "--t", "3", "--out", str(out))
    meta = json.loads((tmp_path / "sim.csv.meta.json").read_text())
    assert meta["versions"] == {
        "boxchain": boxchain.__version__,
        "python": "{}.{}.{}".format(*sys.version_info),
        "numpy": None,
    }


def test_every_perfbench_trace_target_exists():
    # The tracer wraps each target by name, in its owner's own namespace;
    # a refactor that deletes or moves one of those names breaks the
    # traced benchmark run, which tier-1 would not otherwise run.
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (owner.__name__, attr) for owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__
    ]
    assert tracing.TARGETS and not missing
