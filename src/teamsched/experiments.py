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
      "solver": {"tolerance": 1e-10, "max_outer_iterations": 10000},
      "stackelberg": false
    }

``delays`` lists polynomial coefficients (constant first) per server, each
with the same constant term; access lists use 1-based server indices and
default to every server. The optional sweep block defines attack-strength and
machine-mass grids; sweeping ``r`` scales the machine masses to total ``r``
by :meth:`SchedulerPopulation.at_mass`, so it needs at least one machine.
``stackelberg`` adds the leader-follower solution, whose model needs three or
more servers with delay ``[0, 1]``, the attack on server 1, every machine on
servers 2..n and a selfish mass of 1 on servers 1 and 2.
Every field is type-checked on load: a missing required or an unknown field,
a value of the wrong JSON type (a non-integral count, index or iteration cap
included), a server count below 1 or a sweep axis of more than
:data:`MAX_GRID_POINTS` points or with a non-finite point raises
:class:`ScenarioError` naming the dotted field.

CSV output is pinned: comma separator, header row, 12 significant digits,
``\\n`` row terminator. Emitted files are byte-stable across reruns.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from .game import (MASS_TOL, DelayFunction, GameInstance, LoadProfile, SchedulerPopulation,
                   ValidationError, system_cost)
from .solvers import SolveReport, SolveSettings, solve_fully_selfish, \
    solve_social_optimum, solve_team_equilibrium

#: attack-strength curves drawn by the penetration figure (configurable)
FIG2_DEFAULT_ALPHAS = (0.5, 1.0, 2.0, 4.0)
FIGURE_IDS = ("fig2", "fig4", "fig5")


class ScenarioError(ValueError):
    """Scenario file missing, unparsable, or structurally wrong."""


class NonConvergenceError(RuntimeError):
    """A numeric figure's team solve ended above its tolerance."""


@dataclass(frozen=True)
class Scenario:
    name: str
    instance: GameInstance
    population: SchedulerPopulation
    alpha_grid: tuple[float, ...] | None
    r_grid: tuple[float, ...] | None
    settings: SolveSettings
    stackelberg: bool = False

    @property
    def alphas(self) -> tuple[float, ...]:
        """The attack strengths to run: the sweep grid, else the attack's own."""
        return self.alpha_grid or (self.instance.attack_strength,)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: the four benchmark costs plus the team's loads."""

    alpha: float
    r: float
    team_cost: float
    optimal_cost: float
    baseline_cost: float
    selfish_cost: float
    converged: bool
    team_loads: tuple[float, ...]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _csv(header: Sequence[str], rows: Iterable[Sequence[float | str]]) -> str:
    """The pinned CSV text: numbers through :func:`_fmt`, strings as they are."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else _fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


#: JSON kinds that :func:`_typed` checks, as named in its messages
_KINDS = {dict: "an object", list: "a list", int: "an integer", float: "a number",
          str: "a string", bool: "true or false"}
_MISSING = object()

#: most points a sweep axis may have; bounds the work one scenario can ask for
MAX_GRID_POINTS = 1_000


def _typed(value, name: str, kind: type, items: type | None = None):
    """``value`` checked to be of ``kind``, with list elements of ``items``.

    ``int`` takes integral numbers and ``float`` any number; JSON booleans
    are neither. ``name`` is the dotted field path for the error message;
    list elements are numbered from 1.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float and number:
        try:
            return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    if kind not in (int, float) and isinstance(value, kind):
        if items is None:
            return value
        return [_typed(v, f"{name}[{k}]", items) for k, v in enumerate(value, start=1)]
    raise ScenarioError(f"scenario field '{name}' must be {_KINDS[kind]}, "
                        f"got {json.dumps(value)[:40]}")


def _field(block: dict, key: str, where: str, kind: type, default=_MISSING,
           items: type | None = None):
    """Field ``key`` of the object at dotted path ``where``, typed by :func:`_typed`.

    A missing or null field takes ``default``, or is an error without one.
    """
    name = f"{where}.{key}" if where else key
    value = block.get(key)
    if value is None:
        if default is _MISSING:
            raise ScenarioError(f"scenario is missing field '{name}'")
        return default
    return _typed(value, name, kind, items)


def _only(block: dict, where: str, *keys: str) -> dict:
    """``block``, the object at ``where``, once no field outside ``keys`` is in it."""
    for key in block:
        if key not in keys:
            name = f"{where}.{key}" if where else key
            raise ScenarioError(f"scenario has unknown field '{name}'")
    return block


def _parse_grid(sweep: dict, axis: str) -> tuple[float, ...] | None:
    block = _field(sweep, axis, "sweep", dict, None)
    if block is None:
        return None
    where = f"sweep.{axis}"
    _only(block, where, "start", "stop", "points")
    start = _field(block, "start", where, float)
    stop = _field(block, "stop", where, float)
    points = _field(block, "points", where, int)
    if not 2 <= points <= MAX_GRID_POINTS:
        raise ScenarioError(f"scenario field '{where}.points' must be an integer in "
                            f"[2, {MAX_GRID_POINTS}], got {points}")
    if not 0.0 <= start <= stop < math.inf:
        raise ScenarioError(f"scenario field '{where}' range [{start}, {stop}] must be "
                            "finite, nonnegative and ascending")
    grid = tuple(_grid(start, stop, points))
    if not all(math.isfinite(x) for x in grid):
        # (stop - start) * i overflows before the division, as at stop 1e308
        raise ScenarioError(f"scenario field '{where}' range [{start}, {stop}] overflows "
                            f"to grid point {grid[-1]}")
    return grid


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file.

    The first broken field raises :class:`ScenarioError` naming it (a bad
    attack, intercept or ``sweep.alpha`` point keeps its code); a population
    that breaks a mass or access rule raises :class:`ValidationError` with
    every violation as it is built.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    _only(doc, "", "name", "servers", "attack", "machines", "selfish", "sweep", "solver",
          "stackelberg")

    servers = _only(_field(doc, "servers", "", dict), "servers", "count", "delays")
    n = _field(servers, "count", "servers", int)
    if n < 1:
        raise ScenarioError(f"scenario field 'servers.count' must be at least 1, got {n}")
    delays = _field(servers, "delays", "servers", list)
    if len(delays) != n:
        raise ScenarioError(f"scenario field 'servers.delays' must list {n} coefficient arrays")
    delay_fns = []
    for i, d in enumerate(delays, start=1):
        where = f"servers.delays[{i}]"
        coeffs = tuple(_typed(d, where, list, float))
        try:
            delay_fns.append(DelayFunction(coeffs))
        except ValueError as exc:
            raise ScenarioError(f"scenario field '{where}': {exc}") from exc
    attack = _only(_field(doc, "attack", "", dict, {}), "attack", "target", "strength")
    target = _field(attack, "target", "attack", int, 1)
    strength = _field(attack, "strength", "attack", float, 0.0)
    try:
        instance = GameInstance(n, delay_fns, target, strength)
    except ValidationError as exc:
        raise ScenarioError(f"scenario field 'attack': {exc}") from exc

    machines = _field(doc, "machines", "", list, [], items=dict)
    pairs = []
    for k, m in enumerate(machines, start=1):
        where = f"machines[{k}]"
        _only(m, where, "mass", "access")
        pairs.append((_field(m, "mass", where, float),
                      _field(m, "access", where, list, None, items=int)))
    selfish = _only(_field(doc, "selfish", "", dict, {}), "selfish", "access")
    selfish_access = _field(selfish, "access", "selfish", list, None, items=int)
    population = SchedulerPopulation.for_instance(n, pairs, selfish_access)

    sweep = _only(_field(doc, "sweep", "", dict, {}), "sweep", "alpha", "r")
    alpha_grid = _parse_grid(sweep, "alpha")
    if alpha_grid is not None:
        # the grid ascends and an overflow grows with the strength
        try:
            replace(instance, attack_strength=alpha_grid[-1])
        except ValidationError as exc:
            raise ScenarioError(f"scenario field 'sweep.alpha': {exc}") from exc
    r_grid = _parse_grid(sweep, "r")
    if r_grid is not None:
        if not machines:
            raise ScenarioError("scenario field 'sweep.r' needs at least one machine to scale")
        if r_grid[-1] > n:
            raise ScenarioError(f"scenario field 'sweep.r' exceeds the total job mass {n}")

    solver = _only(_field(doc, "solver", "", dict, {}), "solver",
                   "tolerance", "max_outer_iterations")
    tolerance = _field(solver, "tolerance", "solver", float, SolveSettings.tolerance)
    max_iterations = _field(solver, "max_outer_iterations", "solver", int,
                            SolveSettings.max_outer_iterations)
    try:
        settings = SolveSettings(tolerance, max_iterations)
    except ValueError as exc:
        raise ScenarioError(f"scenario field 'solver': {exc}") from exc
    # the paper's servers share one intercept
    for i, d in enumerate(delay_fns[1:], start=2):
        if d.intercept != delay_fns[0].intercept:
            raise ScenarioError(f"scenario field 'servers.delays[{i}]': intercept-mismatch: "
                                f"tau(0)={d.intercept}, server 1 has {delay_fns[0].intercept}")
    leader = _field(doc, "stackelberg", "", bool, False)
    # the servers, attack and population of the Stackelberg model (stackelberg.py)
    if leader and not (n >= 3 and target == 1
                       and all(d.coefficients == (0.0, 1.0) for d in delay_fns)
                       and all(a == set(range(2, n + 1)) for a in population.machine_access)
                       and population.selfish_access == {1, 2}
                       and abs(population.selfish_mass - 1.0) <= MASS_TOL):
        raise ScenarioError("scenario field 'stackelberg': needs servers.count >= 3, every "
                            "delay [0, 1], attack.target 1, every machine's access 2..n and "
                            "selfish mass 1 with access [1, 2]")
    return Scenario(_field(doc, "name", "", str, path.stem), instance, population,
                    alpha_grid, r_grid, settings, leader)


def run_sweep(scenario: Scenario) -> list[SweepRow]:
    """Solve every (alpha, r) sweep point of the scenario.

    Each row records the team equilibrium, the exact optimum (marginal-cost
    fill over all servers), the attack-oblivious baseline, and the fully
    selfish equilibrium. Per-point non-convergence is recorded in the row,
    never fatal. Rows are ordered by (alpha, r).
    """
    instance, population = scenario.instance, scenario.population
    n = instance.n
    rs = scenario.r_grid or (population.machine_mass_total,)
    full = frozenset(range(1, n + 1))

    calm = replace(instance, attack_strength=0.0)
    baseline = LoadProfile.from_raw(solve_social_optimum(calm, full, float(n)))

    def solve_point(alpha: float, r: float) -> SweepRow:
        attacked = replace(instance, attack_strength=alpha)
        pop = population.at_mass(r)
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
        )

    return [solve_point(alpha, r) for alpha in scenario.alphas for r in rs]


def sweep_csv(scenario: Scenario, rows: Iterable[SweepRow]) -> str:
    """Render sweep rows in the pinned CSV dialect."""
    n = scenario.instance.n
    header = ["alpha", "r", "team_cost", "optimal_cost", "baseline_cost",
              "selfish_cost", "converged"] + [f"x_{i}" for i in range(1, n + 1)]
    return _csv(header, ([row.alpha, row.r, row.team_cost, row.optimal_cost,
                          row.baseline_cost, row.selfish_cost,
                          "true" if row.converged else "false", *row.team_loads]
                         for row in rows))


def _grid(lo: float, hi: float, points: int) -> list[float]:
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


def _converged_team(instance: GameInstance, population: SchedulerPopulation) -> SolveReport:
    """The team equilibrium, or :class:`NonConvergenceError` naming r and alpha."""
    report = solve_team_equilibrium(instance, population)
    if not report.converged:
        raise NonConvergenceError(
            f"team solve did not converge at r={population.machine_mass_total:g} "
            f"alpha={instance.attack_strength:g}")
    return report


def _fig2_cost(r: float, alpha: float, numeric: bool) -> float:
    if not numeric:
        from . import closed_form
        return closed_form.team_cost_linear(2, r, alpha)
    return _converged_team(GameInstance.linear(2, alpha),
                           SchedulerPopulation.full_access(2, r)).cost


def _constrained_point(alpha: float, numeric: bool) -> tuple[tuple[float, LoadProfile], ...]:
    """``(cost, profile)`` of the uninfluenced team, the Stackelberg commitment
    and the optimum on three linear servers, with machines of mass 2 on
    servers {2, 3} and the selfish unit on {1, 2}.
    """
    from . import closed_form, stackelberg  # the figures' layers, loaded on first use
    if not numeric:
        return ((closed_form.constrained_team_cost(3, alpha),
                 closed_form.selfish_profile_linear(3, alpha)),
                (stackelberg.stackelberg_cost(3, alpha),
                 stackelberg.optimal_stackelberg_solution(3, alpha).aggregate),
                (closed_form.optimal_cost_linear(3, alpha),
                 closed_form.optimal_profile_linear(3, alpha)))
    attacked = GameInstance.linear(3, alpha)
    team = _converged_team(attacked, SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2)))
    stack = stackelberg.solve_stackelberg_numeric(3, alpha)
    optimal = LoadProfile.from_raw(solve_social_optimum(attacked, (1, 2, 3), 3.0))
    return ((team.cost, team.aggregate), (stack.cost, stack.aggregate),
            (system_cost(attacked, optimal), optimal))


def figure_data(figure_id: str, *, numeric: bool = False,
                alphas: Sequence[float] | None = None) -> str:
    """CSV text for one of the shipped figures.

    ``fig2``: team cost vs machine mass (two servers), one curve per attack
    strength. ``fig4``: the three benchmark costs vs attack strength in the
    constrained three-server setting. ``fig5``: per-server loads vs attack
    strength for the same three profiles. ``numeric`` forces the iterative /
    search solvers instead of the closed forms, for cross-validation; a team
    solve that does not converge raises :class:`NonConvergenceError`.
    ``alphas`` replaces the figure's default attack strengths; an empty one
    raises ``ValueError``.
    """
    if alphas is not None and len(alphas) == 0:
        raise ValueError("alphas must hold at least one attack strength")
    if figure_id == "fig2":
        curves = FIG2_DEFAULT_ALPHAS if alphas is None else tuple(alphas)
        return _csv(["r"] + [f"cost_alpha_{_fmt(a)}" for a in curves],
                    ([r] + [_fig2_cost(r, a, numeric) for a in curves]
                     for r in _grid(0.0, 2.0, 201)))
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}, expected one of {FIGURE_IDS}")
    points = ((a, _constrained_point(a, numeric))
              for a in (_grid(0.0, 3.0, 61) if alphas is None else alphas))
    if figure_id == "fig4":
        return _csv(["alpha", "uninfluenced_cost", "stackelberg_cost", "optimal_cost"],
                    ([a] + [cost for cost, _ in point] for a, point in points))
    profiles = ("uninfluenced", "stackelberg", "optimal")
    return _csv(["alpha"] + [f"{p}_x_{i}" for p in profiles for i in (1, 2, 3)],
                ([a] + [x for _, profile in point for x in profile.loads]
                 for a, point in points))
