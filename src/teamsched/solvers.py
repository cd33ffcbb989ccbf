"""Equilibrium solvers for mixed machine/selfish scheduler populations.

* :func:`solve_wardrop` — allocate a block of jobs so every used server has
  minimal (attacked) delay among the block's accessible servers.
* :func:`solve_social_optimum` — allocate a block to minimize the mean system
  delay given a fixed background, by equalizing marginal costs.
* :func:`solve_team_equilibrium` and :func:`solve_fully_selfish` — one
  alternating best response over access groups, each moving halfway to its
  answer: the social optimum for machines (team) or a Wardrop fill like the
  selfish jobs' (fully selfish). A certificate gates reported convergence;
  it and each sweep's stop test score every block by one rule: a selfish
  block's worst delay gap, or the cost a machine block's best response saves.

Both fills equalize a common service level by Newton steps: each step
replaces every level by its tangent at the server's current load and fills
those lines exactly by a breakpoint walk over their sorted start levels.
Linear levels are their own tangents, so their fill is exact in one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .game import (
    DisaggregatedProfile,
    GameInstance,
    LoadProfile,
    SchedulerPopulation,
    ValidationError,
    eval_delay,
    validate,
)

#: block loads at or below this fraction of the block mass count as unused
_USED_EPS = 1e-12
#: most Newton steps one fill takes
_FILL_STEPS = 100
#: a fill stops once its largest load move, at or below this fraction of the
#: mass, stops shrinking (the loads cycle at rounding level)
_SETTLED = 1e-9
#: a line flatter than this holds the common level at its start; the bound
#: keeps the walk's sum of inverse slopes finite
_FLAT_SLOPE = 1e-300
#: share of the way each sweep moves a group toward its best response
_BLEND = 0.5


class InfeasibleError(ValueError):
    """Positive mass with no accessible server to place it on."""


@dataclass(frozen=True)
class SolveSettings:
    """Stop rule of the best-response loop: certificate tolerance and sweep cap."""

    tolerance: float = 1e-10
    max_outer_iterations: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    """Solver output: equilibrium decomposition, cost, and residual certificates.

    ``selfish_residual`` is the worst delay gap a selfish job could close by
    switching; ``machine_residual`` the largest cost improvement any single
    machine could still realize; either reads NaN when it compares infinite
    costs. ``converged`` means both were at or below the tolerance, and the
    cost and loads finite, when the solve stopped.
    """

    profile: DisaggregatedProfile
    aggregate: LoadProfile
    cost: float
    selfish_residual: float
    machine_residual: float
    converged: bool
    iterations: int


# ---------------------------------------------------------------------------
# level-equalizing fills


def _value_and_slope(coeffs: Sequence[float], x: float) -> tuple[float, float]:
    """Value and derivative at ``x`` of the polynomial, constant first."""
    value = slope = 0.0
    for c in reversed(coeffs):
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _walk(n: int, mass: float, starts: dict[int, float],
          slopes: dict[int, float]) -> list[float]:
    """Exact fill of the lines ``starts[i] + slopes[i] * y`` in load increments y.

    Server i takes ``(level - starts[i]) / slope_i`` once the common level
    passes its start level. The walk enters the servers in ascending start
    order and keeps the level relative to the last start entered, ``top``:
    ``below`` is the mass that lifts every entered server to ``top``, a
    server starting at t enters while ``below + (t - top) * sum 1/c`` stays
    under ``mass``, and each entered server takes ``(top - t_i) / c_i`` plus
    its share ``(1/c_i) / sum 1/c`` of the rest. Unlike the absolute level
    ``(mass + sum t/c) / sum 1/c``, these differences keep the load of a
    server whose slope is orders of magnitude below the others'. A flat line
    (slope 0) holds the level at its start once the walk reaches it: the
    flat lines starting there share the rest equally.
    """
    order = sorted(starts, key=starts.__getitem__)
    top = starts[order[0]]
    below = 0.0
    inv_slope = 0.0
    entered = 0
    flat: list[int] = []
    for i in order:
        # the first entry lifts nothing, also from an infinite start
        lift = below + (starts[i] - top) * inv_slope if entered else 0.0
        if lift >= mass:
            break
        below, top = lift, starts[i]
        if slopes[i] == 0.0:
            flat = [j for j in order[entered:] if slopes[j] == 0.0 and starts[j] == top]
            break
        inv_slope += 1.0 / slopes[i]
        entered += 1
    rest = mass - below
    y = [0.0] * n
    if flat:
        share = rest / len(flat)
        for i in flat:
            y[i - 1] = share
        rest = 0.0
    for i in order[:entered]:
        y[i - 1] = (top - starts[i]) / slopes[i] + rest / (inv_slope * slopes[i])
    return y


def _fill_common_level(n: int, servers: Sequence[int], mass: float,
                       background: Sequence[float],
                       level_coeffs: Sequence[Sequence[float]],
                       bonuses: Sequence[float]) -> list[float]:
    """Distribute ``mass`` over ``servers`` so the level functions equalize.

    ``level_coeffs[i-1]`` is a nondecreasing polynomial of the aggregate load
    on server i and ``bonuses[i-1]`` a constant offset. Each Newton step
    replaces every level by its tangent at the server's current load
    increment (the background on the first step) and fills those lines
    exactly by :func:`_walk`. A tangent flatter than :data:`_FLAT_SLOPE`
    (``x**2`` at load 0) gives way to the secant over the whole mass, and a
    level whose rise over the whole mass is below float resolution becomes a
    flat line. A line is its own tangent, so a fill whose levels are all
    linear ends after one step; otherwise the steps go on until the loads
    stop moving or their largest move, once below :data:`_SETTLED` times the
    mass, stops shrinking, for at most :data:`_FILL_STEPS` steps. The result
    is rescaled to the exact mass.
    """
    if mass <= 0.0:
        return [0.0] * n
    if not servers:
        raise InfeasibleError("cannot place positive mass: no accessible server")
    y = [0.0] * n
    last_move = math.inf
    for _ in range(_FILL_STEPS):
        curved = False
        starts = {}
        slopes = {}
        for i in servers:
            coeffs = level_coeffs[i - 1]
            # a line is its own tangent, taken at the background
            at = 0.0
            if len(coeffs) > 2 and any(coeffs[2:]):
                curved = True
                at = y[i - 1]
            value, slope = _value_and_slope(coeffs, background[i - 1] + at)
            if not slope >= _FLAT_SLOPE:
                slope = (_value_and_slope(coeffs, background[i - 1] + at + mass)[0] - value) / mass
            if not (slope >= _FLAT_SLOPE and slope * mass > 0.0):
                slope = 0.0
            start = value - slope * at + bonuses[i - 1]
            if not abs(start) < math.inf:
                # an overflowed level takes mass only where every level overflows
                start, slope = math.inf, 0.0
            starts[i] = start
            slopes[i] = slope
        step = _walk(n, mass, starts, slopes)
        if not curved:
            y = step
            break
        move = max(abs(u - v) for u, v in zip(step, y))
        y = step
        if move == 0.0 or (move <= _SETTLED * mass and not move < last_move):
            break
        last_move = move
    total = math.fsum(y)
    if total == 0.0:
        # a mass below the smallest normal float, every share of which
        # underflowed: it goes whole to the line the walk enters first
        y[min(starts, key=starts.__getitem__) - 1] = total = mass
    scale = mass / total
    return [v * scale for v in y]


def _check_fill_args(instance: GameInstance, access: Iterable[int], mass: float,
                     background: Sequence[float] | None) -> tuple[list[int], list[float]]:
    servers = sorted(set(int(i) for i in access))
    for i in servers:
        if not 1 <= i <= instance.n:
            raise ValidationError(f"access references server {i}, instance has {instance.n}")
    if mass < 0.0:
        raise ValueError(f"mass must be nonnegative, got {mass}")
    if background is None:
        bg = [0.0] * instance.n
    else:
        bg = [float(b) for b in background]
        if len(bg) != instance.n:
            raise ValidationError(
                f"background has {len(bg)} entries, instance has {instance.n}")
        if any(b < 0.0 for b in bg):
            raise ValidationError(f"background loads must be nonnegative: {bg}")
    return servers, bg


def _levels(instance: GameInstance, social: bool) -> tuple[list[tuple[float, ...]], list[float]]:
    """Per-server level coefficients and attack offsets for :func:`_fill_common_level`.

    The level is the marginal cost with ``social``, the delay otherwise.
    """
    coeffs = [d.marginal_coefficients if social else d.coefficients for d in instance.delays]
    bonuses = [instance.attack_bonus(i) for i in range(1, instance.n + 1)]
    return coeffs, bonuses


def solve_wardrop(instance: GameInstance, access: Iterable[int], mass: float,
                  background: Sequence[float] | None = None) -> list[float]:
    """Selfish block allocation: every server the block uses ends up with
    minimal attacked delay among the accessible ones.

    Returns a length-n vector (zero off the access set) summing to ``mass``.
    """
    servers, bg = _check_fill_args(instance, access, mass, background)
    return _fill_common_level(instance.n, servers, mass, bg, *_levels(instance, False))


def solve_social_optimum(instance: GameInstance, access: Iterable[int], mass: float,
                         background: Sequence[float] | None = None) -> list[float]:
    """Block allocation minimizing the mean system delay given the background.

    The objective is convex and separable, so equalizing marginal costs
    (delay plus load times delay slope, plus the attack offset) over the
    access set is optimal.
    """
    servers, bg = _check_fill_args(instance, access, mass, background)
    return _fill_common_level(instance.n, servers, mass, bg, *_levels(instance, True))


# ---------------------------------------------------------------------------
# residuals


#: one block of the population: (access, mass, optimizes the system)
_Member = tuple[frozenset[int], float, bool]


def _worst(residuals: Iterable[float]) -> float:
    """Largest residual, at least 0; a NaN residual (``inf - inf``) stays NaN."""
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            return math.nan
        worst = max(worst, r)
    return worst


def _used_eps(block_mass: float) -> float:
    """Block loads at or below this count as unused, off access included."""
    return _USED_EPS * max(1.0, block_mass)


def _residual(instance: GameInstance, access: frozenset[int], mass: float, social: bool,
              block: Sequence[float], loads: Sequence[float],
              response: Sequence[float] | None = None) -> float:
    """One block's residual at the aggregate ``loads``.

    A selfish block scores the worst delay excess, over its best accessible
    server, of a server on which it holds more than :func:`_used_eps`. A
    social block scores the cost its best response to the other blocks
    would save; ``response`` is that best response when the caller has
    filled it already. A block of mass at most :data:`_USED_EPS` scores 0.
    """
    if mass <= _USED_EPS:
        return 0.0
    if social:
        bg = [max(0.0, x - b) for x, b in zip(loads, block)]
        if response is None:
            response = solve_social_optimum(instance, access, mass, bg)
        return instance.cost(loads) - instance.cost([b + r for b, r in zip(bg, response)])
    delays = [eval_delay(d, x, instance.attack_bonus(i))
              for i, (d, x) in enumerate(zip(instance.delays, loads), start=1)]
    best = min(delays[i - 1] for i in access)
    eps = _used_eps(mass)
    return _worst(d - best for d, b in zip(delays, block) if b > eps)


def _certificate(instance: GameInstance, members: Sequence[_Member],
                 blocks: Sequence[Sequence[float]], loads: Sequence[float]) -> tuple[float, float]:
    """Worst :func:`_residual` over the selfish blocks and over the social blocks."""
    residuals = [(social, _residual(instance, access, mass, social, block, loads))
                 for (access, mass, social), block in zip(members, blocks)]
    return (_worst(r for social, r in residuals if not social),
            _worst(r for social, r in residuals if social))


def _members(population: SchedulerPopulation, team: bool) -> list[_Member]:
    """The selfish population, then each machine, social with ``team``."""
    return [(population.selfish_access, population.selfish_mass, False)] + [
        (access, mass, team)
        for access, mass in zip(population.machine_access, population.machine_masses)]


def equilibrium_residuals(instance: GameInstance, population: SchedulerPopulation,
                          profile: DisaggregatedProfile) -> tuple[float, float]:
    """Certificates that ``profile`` is a team equilibrium.

    Returns ``(selfish_residual, machine_residual)``; both at or below the
    solver tolerance certify the profile. Dimension mismatches and a block
    load outside the block's access set above ``1e-12 * max(1, block mass)``
    (the threshold below which the Wardrop gap counts a server as unused)
    raise :class:`ValidationError`.
    """
    n = instance.n
    if len(profile.selfish) != n:
        raise ValidationError(f"selfish block has {len(profile.selfish)} entries, expected {n}")
    if len(profile.per_machine) != population.machine_count:
        raise ValidationError(
            f"profile has {len(profile.per_machine)} machine blocks, "
            f"population has {population.machine_count}")
    members = _members(population, team=True)
    blocks = (profile.selfish,) + profile.per_machine
    for k, ((access, mass, _social), block) in enumerate(zip(members, blocks)):
        eps = _used_eps(mass)
        for i in range(1, n + 1):
            if i not in access and block[i - 1] > eps:
                who = f"machine {k}" if k else "selfish"
                raise ValidationError(f"{who} mass on inaccessible server {i}")
    return _certificate(instance, members, blocks, profile.aggregate_loads())


# ---------------------------------------------------------------------------
# blended best response


def _renorm(block: list[float], mass: float) -> list[float]:
    clipped = [max(0.0, v) for v in block]
    s = math.fsum(clipped)
    if mass <= 0.0 or s <= 0.0:
        return [0.0] * len(block)
    return [v * (mass / s) for v in clipped]


def _loads(n: int, blocks: Sequence[Sequence[float]]) -> list[float]:
    return [math.fsum(b[i] for b in blocks) for i in range(n)]


def _group_by_access(members: Sequence[_Member]) -> tuple[list[_Member], list[list[int]]]:
    """Group the members by ``(access, social)``, skipping empty ones.

    Social blocks (machines) share the system objective, so a joint optimum
    of their aggregate mass satisfies each member's optimality condition;
    selfish blocks with one access set share every Wardrop condition.
    Returns the groups, each one ``(access, total mass, social)`` block, and
    their member indices, in order of first appearance.
    """
    indices: dict[tuple[frozenset[int], bool], list[int]] = {}
    for k, (access, mass, social) in enumerate(members):
        if mass > _USED_EPS:
            indices.setdefault((access, social), []).append(k)
    groups = [(access, math.fsum(members[k][1] for k in ks), social)
              for (access, social), ks in indices.items()]
    return groups, list(indices.values())


def _split(n: int, members: Sequence[_Member], groups: Sequence[_Member],
           indices: Sequence[list[int]], group_blocks: list[list[float]]) -> DisaggregatedProfile:
    """Profile with each group block split across its members proportionally
    to mass; member 0 is the selfish population, member k + 1 machine k."""
    blocks: list[tuple[float, ...]] = [(0.0,) * n] * len(members)
    for (_access, total, _social), ks, block in zip(groups, indices, group_blocks):
        for k in ks:
            frac = members[k][1] / total
            blocks[k] = tuple(v * frac for v in block)
    return DisaggregatedProfile(blocks[0], tuple(blocks[1:]))


def _best_response(instance: GameInstance, population: SchedulerPopulation,
                   settings: SolveSettings | None, team: bool,
                   initial: DisaggregatedProfile | None = None) -> SolveReport:
    """Alternating best response over the access groups, blended by :data:`_BLEND`.

    With ``team`` the machines answer with their constrained social optimum,
    otherwise every block answers with its Wardrop response. Each sweep
    scores every group by :func:`_residual` on its own fill. A sweep whose
    residuals pass the tolerance still needs the certificate on the split
    profile before it claims convergence: :func:`equilibrium_residuals` for
    the team, :func:`_certificate` over the groups otherwise. A NaN residual
    ends the loop at once with that certificate.
    """
    settings = settings or SolveSettings()
    issues = validate_for_solve(instance, population)
    if issues:
        raise ValidationError("; ".join(issues))
    n = instance.n
    members = _members(population, team)
    groups, indices = _group_by_access(members)

    def certify(blocks: list[list[float]], iterations: int) -> SolveReport:
        profile = _split(n, members, groups, indices, blocks)
        if team:
            s_res, m_res = equilibrium_residuals(instance, population, profile)
        else:
            s_res, m_res = _certificate(instance, groups, blocks, _loads(n, blocks))
        return _report(instance, profile, s_res, m_res, settings.tolerance, iterations)

    # the fills' level data depends only on the instance: build it once per
    # solve, not on every fill
    levels = {social: _levels(instance, social) for social in (False, True)}

    # a lone group best-responds to an empty background, which is already
    # the equilibrium; skip the iteration and just certify
    if initial is None and len(groups) == 1:
        (access, total, social), = groups
        servers, bg = _check_fill_args(instance, access, total, None)
        return certify([_fill_common_level(n, servers, total, bg, *levels[social])], 1)

    if initial is not None:
        if (len(initial.selfish) != n
                or len(initial.per_machine) != population.machine_count):
            raise ValidationError("initial profile dimensions do not match the population")
        starts = (initial.selfish,) + initial.per_machine
    blocks = []
    for (access, total, _social), ks in zip(groups, indices):
        # the members' initial blocks, or an even spread over the access set
        start = ([1.0] * n if initial is None
                 else [math.fsum(starts[k][i] for k in ks) for i in range(n)])
        blocks.append(_renorm([start[i - 1] if i in access else 0.0
                               for i in range(1, n + 1)], total))

    iterations = 0
    for iterations in range(1, settings.max_outer_iterations + 1):
        residuals = []
        for g, (access, total, social) in enumerate(groups):
            loads = _loads(n, blocks)
            servers, bg = _check_fill_args(
                instance, access, total, [max(0.0, x - b) for x, b in zip(loads, blocks[g])])
            br = _fill_common_level(n, servers, total, bg, *levels[social])
            residuals.append(_residual(instance, access, total, social, blocks[g], loads, br))
            blocks[g] = _renorm([o + _BLEND * (v - o) for o, v in zip(blocks[g], br)], total)

        residual = _worst(residuals)
        if math.isnan(residual):
            # a residual that compares infinite costs cannot recover its
            # tolerance; certify (unconverged) instead of running every sweep
            return certify(blocks, iterations)
        if residual <= settings.tolerance:
            report = certify(blocks, iterations)
            if report.converged:
                return report
    return certify(blocks, iterations)


def solve_team_equilibrium(instance: GameInstance, population: SchedulerPopulation,
                           settings: SolveSettings | None = None,
                           initial: DisaggregatedProfile | None = None) -> SolveReport:
    """Joint machine/selfish equilibrium by alternating best response.

    Every sweep moves the selfish block halfway toward its Wardrop response
    and each machine access group halfway toward its constrained social
    optimum, up to the sweep cap. ``converged`` is claimed only once a fresh
    :func:`equilibrium_residuals` certificate passes the tolerance.
    ``initial`` replaces the even spread over each access set as the start.
    """
    return _best_response(instance, population, settings, team=True, initial=initial)


def solve_fully_selfish(instance: GameInstance, population: SchedulerPopulation,
                        settings: SolveSettings | None = None) -> SolveReport:
    """Equilibrium when every scheduler behaves selfishly.

    Machines become selfish classes that keep their access sets; classes
    sharing an access set move as one block. The same halfway-blended best
    response as :func:`solve_team_equilibrium` runs with Wardrop responses
    only, and ``converged`` needs every class's Wardrop gap on the final
    loads within the tolerance (reported as ``selfish_residual``).
    """
    return _best_response(instance, population, settings, team=False)


def _report(instance: GameInstance, profile: DisaggregatedProfile,
            selfish_res: float, machine_res: float,
            tolerance: float, iterations: int) -> SolveReport:
    raw = profile.aggregate_loads()
    aggregate = LoadProfile.from_raw(raw)
    cost = instance.cost(aggregate.loads)
    finite = math.isfinite(cost) and all(math.isfinite(x) for x in raw)
    return SolveReport(
        profile=profile,
        aggregate=aggregate,
        cost=cost,
        selfish_residual=selfish_res,
        machine_residual=machine_res,
        converged=finite and selfish_res <= tolerance and machine_res <= tolerance,
        iterations=iterations,
    )


def validate_for_solve(instance: GameInstance, population: SchedulerPopulation) -> list[str]:
    """:func:`teamsched.game.validate` violations that make a solve unrunnable.

    That is every violation but ``intercept-mismatch``: the solvers run on
    unequal intercepts, and a new violation code blocks solves by default.
    """
    return [v for v in validate(instance, population) if not v.startswith("intercept-mismatch")]
