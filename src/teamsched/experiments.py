"""Scenario files, sweep execution, and figure-data CSV emitters.

A scenario is one JSON document::

    {
      "name": "two-servers",
      "servers": {"count": 2, "delays": [[0, 1], [0, 1]]},
      "attack": {"target": 1, "strength": 1.0},
      "machines": [{"mass": 1.0, "access": [1, 2]}],
      "selfish": {"access": [1, 2]},
      "sweep": {"alpha": {"start": 0, "stop": 2, "points": 9},
                "r": {"start": 0, "stop": 2, "points": 9}},
      "solver": {"tolerance": 1e-10, "max_outer_iterations": 10000, "damping": 0.5},
      "stackelberg": false
    }

``delays`` lists polynomial coefficients (constant first) per server; access
lists use 1-based server indices and default to every server. The optional
sweep block defines attack-strength and machine-mass grids; sweeping ``r``
scales the machine masses proportionally, so it needs at least one machine.

CSV output is pinned: comma separator, header row, 12 significant digits,
``\\n`` row terminator. Emitted files are byte-stable across reruns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from . import closed_form, stackelberg
from .game import (GameInstance, LoadProfile, SchedulerPopulation,
                   ValidationError, system_cost, validate)
from .solvers import SolveSettings, solve_fully_selfish, \
    solve_social_optimum, solve_team_equilibrium

#: attack-strength curves drawn by the penetration figure (configurable)
FIG2_DEFAULT_ALPHAS = (0.5, 1.0, 2.0, 4.0)
FIGURE_IDS = ("fig2", "fig4", "fig5")


class ScenarioError(ValueError):
    """Scenario file missing, unparsable, or structurally wrong."""


@dataclass(frozen=True)
class Scenario:
    name: str
    instance: GameInstance
    population: SchedulerPopulation
    alpha_grid: tuple[float, ...] | None
    r_grid: tuple[float, ...] | None
    settings: SolveSettings
    stackelberg: bool = False


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: the four benchmark costs plus the solved profiles."""

    alpha: float
    r: float
    team_cost: float
    optimal_cost: float
    baseline_cost: float
    selfish_cost: float
    converged: bool
    team_loads: tuple[float, ...]
    optimal_loads: tuple[float, ...]
    baseline_loads: tuple[float, ...]
    selfish_loads: tuple[float, ...]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"scenario {context} block is missing '{key}'")
    return mapping[key]


def _parse_grid(block: dict, axis: str) -> tuple[float, ...]:
    start = float(_require(block, "start", f"sweep.{axis}"))
    stop = float(_require(block, "stop", f"sweep.{axis}"))
    points = _require(block, "points", f"sweep.{axis}")
    if int(points) != points or points < 2:
        raise ScenarioError(f"sweep.{axis}.points must be an integer >= 2, got {points}")
    if start < 0.0 or stop < start:
        raise ScenarioError(f"sweep.{axis} range [{start}, {stop}] must be nonnegative and ascending")
    points = int(points)
    return tuple(start + (stop - start) * i / (points - 1) for i in range(points))


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    Parse failures raise :class:`ScenarioError` with line/column context;
    model-invariant violations raise :class:`ValidationError` naming every
    broken field.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")

    servers = _require(doc, "servers", "top-level")
    n = int(_require(servers, "count", "servers"))
    delays = _require(servers, "delays", "servers")
    if not isinstance(delays, list) or len(delays) != n:
        raise ScenarioError(f"servers.delays must list {n} coefficient arrays")
    attack = doc.get("attack", {})
    target = attack.get("target", 1)
    if isinstance(target, float) and not target.is_integer():
        raise ScenarioError(f"attack.target must be an integer server index, got {target}")
    try:
        instance = GameInstance(n, tuple(tuple(map(float, d)) for d in delays),
                                int(target),
                                float(attack.get("strength", 0.0)))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ScenarioError(f"{path}: bad instance description: {exc}") from exc

    machines = doc.get("machines", [])
    pairs = []
    for idx, m in enumerate(machines, start=1):
        mass = float(_require(m, "mass", f"machines[{idx}]"))
        pairs.append((mass, m.get("access")))
    selfish_access = doc.get("selfish", {}).get("access")
    population = SchedulerPopulation.for_instance(n, pairs, selfish_access)

    issues = validate(instance, population)
    if issues:
        raise ValidationError("; ".join(issues))

    sweep = doc.get("sweep", {}) or {}
    alpha_grid = _parse_grid(sweep["alpha"], "alpha") if "alpha" in sweep else None
    r_grid = _parse_grid(sweep["r"], "r") if "r" in sweep else None
    if r_grid is not None:
        if not machines:
            raise ScenarioError("sweep.r needs at least one machine to scale")
        if r_grid[-1] > n:
            raise ScenarioError(f"sweep.r exceeds the total job mass {n}")

    solver = doc.get("solver", {}) or {}
    settings = SolveSettings(
        tolerance=float(solver.get("tolerance", SolveSettings.tolerance)),
        max_outer_iterations=int(solver.get("max_outer_iterations",
                                            SolveSettings.max_outer_iterations)),
        damping=float(solver.get("damping", SolveSettings.damping)),
    )
    return Scenario(str(doc.get("name", path.stem)), instance, population,
                    alpha_grid, r_grid, settings, bool(doc.get("stackelberg", False)))


def _population_at_mass(population: SchedulerPopulation, n: int, r: float) -> SchedulerPopulation:
    """Rescale machine masses proportionally to total ``r`` (dropping them at zero)."""
    if r <= 0.0:
        return SchedulerPopulation.for_instance(n, (), population.selfish_access)
    base = population.machine_mass_total
    scale = r / base
    pairs = tuple((m * scale, a) for m, a in
                  zip(population.machine_masses, population.machine_access))
    return SchedulerPopulation.for_instance(n, pairs, population.selfish_access)


def run_sweep(scenario: Scenario) -> list[SweepRow]:
    """Solve every (alpha, r) sweep point of the scenario.

    Each row records the team equilibrium, the exact optimum (marginal-cost
    fill over all servers), the attack-oblivious baseline, and the fully
    selfish equilibrium. Per-point non-convergence is recorded in the row,
    never fatal. Rows are ordered by (alpha, r).
    """
    instance, population = scenario.instance, scenario.population
    n = instance.n
    alphas = scenario.alpha_grid or (instance.attack_strength,)
    rs = scenario.r_grid or (population.machine_mass_total,)
    full = frozenset(range(1, n + 1))

    calm = replace(instance, attack_strength=0.0)
    baseline = LoadProfile.from_raw(solve_social_optimum(calm, full, float(n)))

    def solve_point(alpha: float, r: float) -> SweepRow:
        attacked = replace(instance, attack_strength=alpha)
        pop = _population_at_mass(population, n, r)
        team = solve_team_equilibrium(attacked, pop, scenario.settings)
        optimal = LoadProfile.from_raw(solve_social_optimum(attacked, full, float(n)))
        selfish = solve_fully_selfish(attacked, pop, scenario.settings)
        return SweepRow(
            alpha=alpha, r=r,
            team_cost=team.cost,
            optimal_cost=system_cost(attacked, optimal),
            baseline_cost=system_cost(attacked, baseline),
            selfish_cost=selfish.cost,
            converged=team.converged and selfish.converged,
            team_loads=team.aggregate.loads,
            optimal_loads=optimal.loads,
            baseline_loads=baseline.loads,
            selfish_loads=selfish.aggregate.loads,
        )

    return [solve_point(alpha, r) for alpha in alphas for r in rs]


def sweep_csv(scenario: Scenario, rows: Iterable[SweepRow]) -> str:
    """Render sweep rows in the pinned CSV dialect."""
    n = scenario.instance.n
    header = ["alpha", "r", "team_cost", "optimal_cost", "baseline_cost",
              "selfish_cost", "converged"] + [f"x_{i}" for i in range(1, n + 1)]
    lines = [",".join(header)]
    for row in rows:
        cells = [_fmt(row.alpha), _fmt(row.r), _fmt(row.team_cost),
                 _fmt(row.optimal_cost), _fmt(row.baseline_cost),
                 _fmt(row.selfish_cost), "true" if row.converged else "false"]
        cells += [_fmt(x) for x in row.team_loads]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _grid(lo: float, hi: float, points: int) -> list[float]:
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def _fig2_numeric_cost(r: float, alpha: float) -> float:
    instance = GameInstance.linear(2, alpha)
    population = SchedulerPopulation.full_access(2, r)
    return solve_team_equilibrium(instance, population).cost


def _fig2(numeric: bool, alphas: Sequence[float] | None) -> str:
    curve_alphas = tuple(alphas) if alphas else FIG2_DEFAULT_ALPHAS
    rs = _grid(0.0, 2.0, 201)
    header = ["r"] + [f"cost_alpha_{_fmt(a)}" for a in curve_alphas]

    def row(r: float) -> str:
        if numeric:
            costs = [_fig2_numeric_cost(r, a) for a in curve_alphas]
        else:
            costs = [closed_form.team_cost_linear(2, r, a) for a in curve_alphas]
        return ",".join([_fmt(r)] + [_fmt(c) for c in costs])

    return "\n".join([",".join(header)] + [row(r) for r in rs]) + "\n"


def _constrained_population(n: int) -> SchedulerPopulation:
    """Machines on servers 2..n with mass n-1, selfish unit on servers {1, 2}."""
    return SchedulerPopulation.for_instance(
        n, ((float(n - 1), range(2, n + 1)),), (1, 2))


def _fig4_row(alpha: float, n: int, numeric: bool) -> tuple[float, float, float, float]:
    if numeric:
        attacked = GameInstance.linear(n, alpha)
        uninfluenced = solve_team_equilibrium(attacked, _constrained_population(n)).cost
        stack = stackelberg.solve_stackelberg_numeric(n, alpha).cost
        full = frozenset(range(1, n + 1))
        optimal = system_cost(
            attacked, LoadProfile.from_raw(solve_social_optimum(attacked, full, float(n))))
    else:
        uninfluenced = closed_form.constrained_team_cost(n, alpha)
        stack = stackelberg.stackelberg_cost(n, alpha)
        optimal = closed_form.optimal_cost_linear(n, alpha)
    return alpha, uninfluenced, stack, optimal


def _fig4(numeric: bool, alphas: Sequence[float] | None) -> str:
    grid = list(alphas) if alphas else _grid(0.0, 3.0, 61)
    header = ["alpha", "uninfluenced_cost", "stackelberg_cost", "optimal_cost"]
    rows = [_fig4_row(a, 3, numeric) for a in grid]
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _fig5_row(alpha: float, n: int, numeric: bool) -> list[float]:
    if numeric:
        attacked = GameInstance.linear(n, alpha)
        uninfluenced = solve_team_equilibrium(attacked, _constrained_population(n)).aggregate
        stack = stackelberg.solve_stackelberg_numeric(n, alpha).aggregate
        full = frozenset(range(1, n + 1))
        optimal = LoadProfile.from_raw(solve_social_optimum(attacked, full, float(n)))
    else:
        uninfluenced = closed_form.selfish_profile_linear(n, alpha)
        stack = stackelberg.optimal_stackelberg_solution(n, alpha).aggregate
        optimal = closed_form.optimal_profile_linear(n, alpha)
    return [alpha, *uninfluenced.loads, *stack.loads, *optimal.loads]


def _fig5(numeric: bool, alphas: Sequence[float] | None) -> str:
    n = 3
    grid = list(alphas) if alphas else _grid(0.0, 3.0, 61)
    header = ["alpha"]
    for profile in ("uninfluenced", "stackelberg", "optimal"):
        header += [f"{profile}_x_{i}" for i in range(1, n + 1)]
    rows = [_fig5_row(a, n, numeric) for a in grid]
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def figure_data(figure_id: str, *, numeric: bool = False,
                alphas: Sequence[float] | None = None) -> str:
    """CSV text for one of the shipped figures.

    ``fig2``: team cost vs machine mass (two servers), one curve per attack
    strength. ``fig4``: the three benchmark costs vs attack strength in the
    constrained three-server setting. ``fig5``: per-server loads vs attack
    strength for the same three profiles. ``numeric`` forces the iterative /
    search solvers instead of the closed forms, for cross-validation.
    """
    if figure_id == "fig2":
        return _fig2(numeric, alphas)
    if figure_id == "fig4":
        return _fig4(numeric, alphas)
    if figure_id == "fig5":
        return _fig5(numeric, alphas)
    raise ValueError(f"unknown figure id {figure_id!r}, expected one of {FIGURE_IDS}")
