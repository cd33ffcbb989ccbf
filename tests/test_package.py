"""The package's public names, which it resolves on first use."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import teamsched

#: every public name of the package, by defining module
EXPORTS = {
    "closed_form": ["LinearRegime", "baseline_cost", "classify_regime", "constrained_team_cost",
                    "optimal_cost_linear", "optimal_profile_linear", "penetration_threshold",
                    "selfish_profile_linear", "team_cost_linear"],
    "game": ["DelayFunction", "DisaggregatedProfile", "GameInstance", "LoadProfile",
             "SchedulerPopulation", "ValidationError", "system_cost", "validate"],
    "oracle": ["CapacityError", "MonotonicityReport", "SecurityVerdict", "grid_search_optimum",
               "monotonicity_sweep", "verify_security", "verify_strong_security",
               "verify_weak_security"],
    "solvers": ["InfeasibleError", "SolveReport", "SolveSettings", "equilibrium_residuals",
                "solve_fully_selfish", "solve_social_optimum", "solve_team_equilibrium",
                "solve_wardrop"],
    "stackelberg": ["StackelbergSolution", "follower_best_response", "influence_threshold",
                    "kkt_multipliers", "kkt_residuals", "kkt_stationary_profile",
                    "optimal_leader_policy", "optimal_stackelberg_solution",
                    "solve_stackelberg_numeric", "stackelberg_cost"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_export_count():
    assert len(NAMES) == 43


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_is_its_module_object(module, name):
    defining = importlib.import_module(f"teamsched.{module}")
    assert getattr(teamsched, name) is getattr(defining, name)
    assert name in dir(teamsched)


def test_from_import_in_a_fresh_package():
    # each name is imported from a package with no module loaded yet
    code = (
        "import sys\n"
        f"for module, name in {NAMES!r}:\n"
        "    for key in [k for k in sys.modules if k.split('.')[0] == 'teamsched']:\n"
        "        del sys.modules[key]\n"
        "    scope = {}\n"
        "    exec(f'from teamsched import {name}', scope)\n"
        "    assert scope[name] is getattr(sys.modules[f'teamsched.{module}'], name), name\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        teamsched.no_such_name


def test_submodules_import():
    from teamsched import game, solvers
    assert game is sys.modules["teamsched.game"]
    assert solvers is sys.modules["teamsched.solvers"]


def test_sources_parse_as_python_3_10():
    # the package requires Python 3.10: no file may use newer syntax
    root = Path(__file__).resolve().parent.parent
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (root / d).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
