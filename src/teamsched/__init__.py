"""Solvers and experiments for adversarially attacked parallel-server
scheduling with mixed machine and selfish schedulers.

The public names below are resolved on first use (PEP 562), so importing
the package loads none of its layers and each command loads only the ones
it runs.
"""

from importlib import import_module as _import_module

#: defining module of each public name
_EXPORTS = {
    "closed_form": (
        "LinearRegime",
        "baseline_cost",
        "classify_regime",
        "constrained_team_cost",
        "optimal_cost_linear",
        "optimal_profile_linear",
        "penetration_threshold",
        "selfish_profile_linear",
        "team_cost_linear",
    ),
    "game": (
        "DelayFunction",
        "DisaggregatedProfile",
        "GameInstance",
        "LoadProfile",
        "SchedulerPopulation",
        "ValidationError",
        "system_cost",
        "validate",
    ),
    "oracle": (
        "CapacityError",
        "MonotonicityReport",
        "SecurityVerdict",
        "grid_search_optimum",
        "monotonicity_sweep",
        "verify_security",
        "verify_strong_security",
        "verify_weak_security",
    ),
    "solvers": (
        "InfeasibleError",
        "SolveReport",
        "SolveSettings",
        "equilibrium_residuals",
        "solve_fully_selfish",
        "solve_social_optimum",
        "solve_team_equilibrium",
        "solve_wardrop",
    ),
    "stackelberg": (
        "StackelbergSolution",
        "follower_best_response",
        "influence_threshold",
        "kkt_multipliers",
        "kkt_residuals",
        "kkt_stationary_profile",
        "optimal_leader_policy",
        "optimal_stackelberg_solution",
        "solve_stackelberg_numeric",
        "stackelberg_cost",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:  # the layer itself, as ``teamsched.oracle``
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _EXPORTS.keys())
