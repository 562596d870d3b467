"""Checks of the test layer itself: the chi-square tail that every
goodness-of-fit test reads, and the rule that the tests need nothing past
the standard library, numpy, pytest and boxchain."""

import ast
import math
import sys
from pathlib import Path

import pytest

from conftest import chi2_sf

# (statistic, degrees of freedom, scipy.stats.chi2.sf from scipy 1.17.1).
# The first nine are the points the goodness-of-fit tests reach.
CHI2_SF = [
    (9.4099, 9, 0.4003286343938231),
    (36.04064803428804, 17, 0.004529556949125624),
    (8.945826106692934, 8, 0.34688661827305367),
    (12.22656265440799, 17, 0.7862279941797363),
    (36.03238247602874, 48, 0.8981791395600177),
    (5.23988, 6, 0.5134353417772219),
    (3.8312999999999997, 5, 0.5739513853986814),
    (11.017, 6, 0.08785244564459635),
    (6.143121896123735, 9, 0.7255129899847266),
    (0.0, 1, 1.0),
    (0.0, 2, 1.0),
    (1.0, 1, 0.31731050786291115),
    (3.841458820694124, 1, 0.04999999999999989),
    (1.0, 2, 0.6065306597126334),
    (9.210340371976184, 2, 0.009999999999999993),
    # exp(-800) underflows to 0; the tail itself is a normal double.
    (1600.0, 48, 8.622678961624489e-304),
    (1500.5, 400, 7.48644437565373e-127),
]

ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "pytest", "boxchain", "conftest"}


@pytest.mark.parametrize("x, k, want", CHI2_SF)
def test_chi2_sf_matches_reference(x, k, want):
    assert math.isclose(chi2_sf(x, k), want, rel_tol=1e-12, abs_tol=0)


def test_tests_import_only_stdlib_numpy_pytest_and_boxchain():
    foreign = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in ALLOWED_IMPORTS]
    assert not foreign, f"imports outside the stdlib, numpy, pytest and boxchain: {foreign}"
