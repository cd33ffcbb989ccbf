"""Solvers and experiments for adversarially attacked parallel-server
scheduling with mixed machine and selfish schedulers."""

from .closed_form import (
    LinearRegime,
    baseline_cost,
    classify_regime,
    constrained_team_cost,
    optimal_cost_linear,
    optimal_profile_linear,
    penetration_threshold,
    selfish_profile_linear,
    team_cost_linear,
)
from .game import (
    DelayFunction,
    DisaggregatedProfile,
    GameInstance,
    LoadProfile,
    SchedulerPopulation,
    ValidationError,
    system_cost,
    validate,
)
from .oracle import (
    CapacityError,
    MonotonicityReport,
    SecurityVerdict,
    grid_search_optimum,
    monotonicity_sweep,
    verify_security,
    verify_strong_security,
    verify_weak_security,
)
from .solvers import (
    InfeasibleError,
    SolveReport,
    SolveSettings,
    equilibrium_residuals,
    solve_fully_selfish,
    solve_social_optimum,
    solve_team_equilibrium,
    solve_wardrop,
)
from .stackelberg import (
    StackelbergSolution,
    follower_best_response,
    influence_threshold,
    kkt_multipliers,
    kkt_residuals,
    kkt_stationary_profile,
    optimal_leader_policy,
    optimal_stackelberg_solution,
    solve_stackelberg_numeric,
    stackelberg_cost,
)

__version__ = "0.1.0"
