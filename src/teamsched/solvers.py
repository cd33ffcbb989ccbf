"""Equilibrium solvers for mixed machine/selfish scheduler populations.

Three building blocks:

* :func:`solve_wardrop` — allocate a block of jobs so every used server has
  minimal (attacked) delay among the block's accessible servers.
* :func:`solve_social_optimum` — allocate a block to minimize the mean system
  delay given a fixed background, by equalizing marginal costs.
* :func:`solve_team_equilibrium` — damped alternating best response between
  the selfish block (Wardrop) and the machine blocks (social optimum on their
  access sets), with residual certificates in the returned report.

Both fills bisect a common service level; per-server inversion of the
monotone level polynomial is closed-form up to quadratics and bisection
beyond.
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
    horner,
    validate,
)

#: block loads at or below this fraction of the block mass count as unused
_USED_EPS = 1e-12


class InfeasibleError(ValueError):
    """Positive mass with no accessible server to place it on."""


@dataclass(frozen=True)
class SolveSettings:
    """Knobs for the best-response loop."""

    tolerance: float = 1e-10
    max_outer_iterations: int = 10_000
    damping: float = 0.5

    def __post_init__(self) -> None:
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")


@dataclass(frozen=True)
class SolveReport:
    """Solver output: equilibrium decomposition, cost, and residual certificates.

    ``selfish_residual`` is the worst delay gap a selfish job could close by
    switching; ``machine_residual`` the largest cost improvement any single
    machine could still realize. ``converged`` means both were at or below the
    tolerance when the solve stopped.
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


def _invert_level(coeffs: Sequence[float], target: float, lo: float, hi: float) -> float:
    """Largest z in [lo, hi] with poly(z) <= target, for a nondecreasing poly.

    The caller guarantees poly(lo) <= target. Linear and quadratic levels are
    inverted exactly; higher degrees fall back to bisection.
    """
    if horner(coeffs, hi) <= target:
        return hi
    degree = len(coeffs) - 1
    while degree > 0 and coeffs[degree] == 0.0:
        degree -= 1
    if degree == 0:
        return hi  # constant level below target everywhere
    if degree == 1:
        z = (target - coeffs[0]) / coeffs[1]
        return min(hi, max(lo, z))
    if degree == 2:
        # larger root via the conjugate form, stable when 4|ac| << b^2
        a, b = coeffs[2], coeffs[1]
        c = coeffs[0] - target
        disc = b * b - 4.0 * a * c
        if disc <= 0.0 or c >= 0.0:
            return lo
        z = -2.0 * c / (b + math.sqrt(disc))
        return min(hi, max(lo, z))
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # float resolution reached
            break
        if horner(coeffs, mid) <= target:
            a = mid
        else:
            b = mid
    return a


def _fill_common_level(n: int, servers: Sequence[int], mass: float,
                       background: Sequence[float],
                       level_coeffs: Sequence[Sequence[float]],
                       bonuses: Sequence[float]) -> list[float]:
    """Distribute ``mass`` over ``servers`` so the level functions equalize.

    ``level_coeffs[i-1]`` is a nondecreasing polynomial of the aggregate load
    on server i and ``bonuses[i-1]`` a constant offset. Bisects the common
    level; allocations come from inverting each server's polynomial. The
    result is rescaled to the exact mass.
    """
    y = [0.0] * n
    if mass <= 0.0:
        return y
    if not servers:
        raise InfeasibleError("cannot place positive mass: no accessible server")

    def alloc_at(level: float) -> list[float]:
        out = [0.0] * n
        for i in servers:
            b = background[i - 1]
            target = level - bonuses[i - 1]
            if horner(level_coeffs[i - 1], b) > target:
                continue
            z = _invert_level(level_coeffs[i - 1], target, b, b + mass)
            out[i - 1] = z - b
        return out

    lo = min(horner(level_coeffs[i - 1], background[i - 1]) + bonuses[i - 1]
             for i in servers)
    hi = max(horner(level_coeffs[i - 1], background[i - 1] + mass) + bonuses[i - 1]
             for i in servers)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # float resolution reached
            break
        if math.fsum(alloc_at(mid)) < mass:
            lo = mid
        else:
            hi = mid
    y = alloc_at(hi)
    total = math.fsum(y)
    if total <= 0.0:
        # degenerate bracket: dump everything on the cheapest accessible server
        cheapest = min(servers, key=lambda i: (
            horner(level_coeffs[i - 1], background[i - 1]) + bonuses[i - 1], i))
        y[cheapest - 1] = mass
        return y
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


def solve_wardrop(instance: GameInstance, access: Iterable[int], mass: float,
                  background: Sequence[float] | None = None) -> list[float]:
    """Selfish block allocation: every server the block uses ends up with
    minimal attacked delay among the accessible ones.

    Returns a length-n vector (zero off the access set) summing to ``mass``.
    """
    servers, bg = _check_fill_args(instance, access, mass, background)
    coeffs = [d.coefficients for d in instance.delays]
    bonuses = [instance.attack_bonus(i) for i in range(1, instance.n + 1)]
    return _fill_common_level(instance.n, servers, mass, bg, coeffs, bonuses)


def solve_social_optimum(instance: GameInstance, access: Iterable[int], mass: float,
                         background: Sequence[float] | None = None) -> list[float]:
    """Block allocation minimizing the mean system delay given the background.

    The objective is convex and separable, so equalizing marginal costs
    (delay plus load times delay slope, plus the attack offset) over the
    access set is optimal.
    """
    servers, bg = _check_fill_args(instance, access, mass, background)
    coeffs = [d.marginal_coefficients for d in instance.delays]
    bonuses = [instance.attack_bonus(i) for i in range(1, instance.n + 1)]
    return _fill_common_level(instance.n, servers, mass, bg, coeffs, bonuses)


# ---------------------------------------------------------------------------
# residuals


def _delay_vector(instance: GameInstance, loads: Sequence[float]) -> list[float]:
    return [eval_delay(instance.delays[i - 1], loads[i - 1], instance.attack_bonus(i))
            for i in range(1, instance.n + 1)]


def _wardrop_gap(instance: GameInstance, access: frozenset[int],
                 block: Sequence[float], loads: Sequence[float], block_mass: float) -> float:
    """Worst delay excess over the block's best accessible server."""
    if block_mass <= _USED_EPS:
        return 0.0
    delays = _delay_vector(instance, loads)
    best = min(delays[i - 1] for i in access)
    used_eps = _USED_EPS * max(1.0, block_mass)
    gap = 0.0
    for i in range(1, instance.n + 1):
        if block[i - 1] > used_eps:
            gap = max(gap, delays[i - 1] - best)
    return gap


def equilibrium_residuals(instance: GameInstance, population: SchedulerPopulation,
                          profile: DisaggregatedProfile) -> tuple[float, float]:
    """Certificates that ``profile`` is a team equilibrium.

    Returns ``(selfish_residual, machine_residual)``; both at or below the
    solver tolerance certify the profile. Dimension mismatches and mass placed
    outside an access set raise :class:`ValidationError`.
    """
    n = instance.n
    if len(profile.selfish) != n:
        raise ValidationError(f"selfish block has {len(profile.selfish)} entries, expected {n}")
    if len(profile.per_machine) != population.machine_count:
        raise ValidationError(
            f"profile has {len(profile.per_machine)} machine blocks, "
            f"population has {population.machine_count}")
    for i in range(1, n + 1):
        if i not in population.selfish_access and profile.selfish[i - 1] > _USED_EPS:
            raise ValidationError(f"selfish mass on inaccessible server {i}")
    for k, block in enumerate(profile.per_machine):
        for i in range(1, n + 1):
            if i not in population.machine_access[k] and block[i - 1] > _USED_EPS:
                raise ValidationError(f"machine {k + 1} mass on inaccessible server {i}")

    loads = profile.aggregate_loads()
    selfish_res = _wardrop_gap(instance, population.selfish_access, profile.selfish,
                               loads, population.selfish_mass)

    machine_res = 0.0
    current_cost = instance.cost(loads)
    for k in range(population.machine_count):
        mass = population.machine_masses[k]
        if mass <= _USED_EPS:
            continue
        block = profile.per_machine[k]
        bg = [loads[i] - block[i] for i in range(n)]
        bg = [max(0.0, b) for b in bg]
        br = solve_social_optimum(instance, population.machine_access[k], mass, bg)
        br_cost = instance.cost([bg[i] + br[i] for i in range(n)])
        machine_res = max(machine_res, current_cost - br_cost)
    return max(0.0, selfish_res), max(0.0, machine_res)


# ---------------------------------------------------------------------------
# team equilibrium


def _spread(n: int, access: frozenset[int], mass: float) -> list[float]:
    out = [0.0] * n
    if mass > 0.0:
        share = mass / len(access)
        for i in access:
            out[i - 1] = share
    return out


def _blend(old: Sequence[float], new: Sequence[float], damping: float) -> list[float]:
    return [o + damping * (v - o) for o, v in zip(old, new)]


def _group_by_access(pairs: Iterable[tuple[frozenset[int], float]]
                     ) -> list[tuple[frozenset[int], float, list[int]]]:
    """Group ``(access, mass)`` blocks by access set, skipping empty blocks.

    Returns ``(access, total mass, member indices)`` per group, in order of
    first appearance.
    """
    pairs = list(pairs)
    members: dict[frozenset[int], list[int]] = {}
    for k, (access, mass) in enumerate(pairs):
        if mass > _USED_EPS:
            members.setdefault(access, []).append(k)
    return [(access, math.fsum(pairs[k][1] for k in ks), ks)
            for access, ks in members.items()]


def _split(masses: Sequence[float], n: int,
           groups: list[tuple[frozenset[int], float, list[int]]],
           group_blocks: list[list[float]]) -> list[tuple[float, ...]]:
    """Split each group block across its members proportionally to mass."""
    blocks: list[tuple[float, ...]] = [tuple([0.0] * n)] * len(masses)
    for (_access, total, ks), block in zip(groups, group_blocks):
        for k in ks:
            frac = masses[k] / total
            blocks[k] = tuple(v * frac for v in block)
    return blocks


def _decompose(population: SchedulerPopulation, selfish: Sequence[float],
               groups: list[tuple[frozenset[int], float, list[int]]],
               group_blocks: list[list[float]]) -> DisaggregatedProfile:
    """Profile with each machine group block split across its machines."""
    blocks = _split(population.machine_masses, len(selfish), groups, group_blocks)
    return DisaggregatedProfile(tuple(selfish), tuple(blocks))


def _renorm(block: list[float], mass: float) -> list[float]:
    clipped = [max(0.0, v) for v in block]
    s = math.fsum(clipped)
    if mass <= 0.0 or s <= 0.0:
        return [0.0] * len(block)
    return [v * (mass / s) for v in clipped]


def solve_team_equilibrium(instance: GameInstance, population: SchedulerPopulation,
                           settings: SolveSettings | None = None,
                           initial: DisaggregatedProfile | None = None) -> SolveReport:
    """Damped alternating best response to a joint machine/selfish equilibrium.

    Each sweep updates the selfish block toward its Wardrop response and each
    machine group toward its constrained social optimum, blending with the
    damping factor. Once the in-sweep residual estimates pass the tolerance,
    a fresh :func:`equilibrium_residuals` certification must also pass before
    the report claims convergence. The damping is halved after 1000 sweeps
    without residual improvement to settle oscillation at regime boundaries.
    """
    settings = settings or SolveSettings()
    issues = validate_for_solve(instance, population)
    if issues:
        raise ValidationError("; ".join(issues))
    n = instance.n
    # one aggregate optimizer per machine access set: all machines share the
    # system objective, so a joint optimum of the group's aggregate mass
    # satisfies each member's individual optimality condition
    groups = _group_by_access(zip(population.machine_access, population.machine_masses))
    selfish_mass = max(0.0, population.selfish_mass)

    # a lone block best-responds to an empty background, which is already the
    # equilibrium; skip the iteration and just certify
    if initial is None and selfish_mass <= _USED_EPS and len(groups) == 1:
        access, total, _ks = groups[0]
        block = solve_social_optimum(instance, access, total)
        profile = _decompose(population, [0.0] * n, groups, [block])
        s_res, m_res = equilibrium_residuals(instance, population, profile)
        return _report(instance, profile, s_res, m_res,
                       max(s_res, m_res) <= settings.tolerance, 1)
    if initial is None and not groups:
        block = solve_wardrop(instance, population.selfish_access, selfish_mass)
        profile = _decompose(population, block, groups, [])
        s_res, m_res = equilibrium_residuals(instance, population, profile)
        return _report(instance, profile, s_res, m_res,
                       max(s_res, m_res) <= settings.tolerance, 1)

    if initial is not None:
        if (len(initial.selfish) != n
                or len(initial.per_machine) != population.machine_count):
            raise ValidationError("initial profile dimensions do not match the population")
        selfish = _renorm(list(initial.selfish), selfish_mass)
        group_blocks = []
        for access, total, ks in groups:
            merged = [math.fsum(initial.per_machine[k][i] for k in ks) for i in range(n)]
            merged = [merged[i - 1] if i in access else 0.0 for i in range(1, n + 1)]
            group_blocks.append(_renorm(merged, total))
    else:
        selfish = _spread(n, population.selfish_access, selfish_mass)
        group_blocks = [_spread(n, access, total) for access, total, _ in groups]

    damping = settings.damping
    best_seen = math.inf
    stalled = 0
    iterations = 0

    for iterations in range(1, settings.max_outer_iterations + 1):
        loads = [selfish[i] + math.fsum(b[i] for b in group_blocks) for i in range(n)]

        selfish_res = 0.0
        if selfish_mass > _USED_EPS:
            selfish_res = _wardrop_gap(instance, population.selfish_access,
                                       selfish, loads, selfish_mass)
            bg = [max(0.0, loads[i] - selfish[i]) for i in range(n)]
            br = solve_wardrop(instance, population.selfish_access, selfish_mass, bg)
            selfish = _renorm(_blend(selfish, br, damping), selfish_mass)

        machine_res = 0.0
        for g, (access, total, _ks) in enumerate(groups):
            loads = [selfish[i] + math.fsum(b[i] for b in group_blocks) for i in range(n)]
            bg = [max(0.0, loads[i] - group_blocks[g][i]) for i in range(n)]
            br = solve_social_optimum(instance, access, total, bg)
            cur_cost = instance.cost(loads)
            br_cost = instance.cost([bg[i] + br[i] for i in range(n)])
            machine_res = max(machine_res, cur_cost - br_cost)
            group_blocks[g] = _renorm(_blend(group_blocks[g], br, damping), total)

        residual = max(selfish_res, machine_res)
        if residual <= settings.tolerance:
            profile = _decompose(population, selfish, groups, group_blocks)
            s_res, m_res = equilibrium_residuals(instance, population, profile)
            if max(s_res, m_res) <= settings.tolerance:
                return _report(instance, profile, s_res, m_res, True, iterations)
        if residual < best_seen - 1e-16:
            best_seen = residual
            stalled = 0
        else:
            stalled += 1
            if stalled >= 1000:
                damping = max(damping / 2.0, 1e-4)
                stalled = 0

    profile = _decompose(population, selfish, groups, group_blocks)
    s_res, m_res = equilibrium_residuals(instance, population, profile)
    converged = max(s_res, m_res) <= settings.tolerance
    return _report(instance, profile, s_res, m_res, converged, iterations)


def solve_fully_selfish(instance: GameInstance, population: SchedulerPopulation,
                        settings: SolveSettings | None = None) -> SolveReport:
    """Equilibrium when every scheduler behaves selfishly.

    Machines are converted to selfish classes that keep their access sets;
    with a single shared access set this is one Wardrop fill of the total
    mass, otherwise classes alternate damped Wardrop responses.
    """
    settings = settings or SolveSettings()
    issues = validate_for_solve(instance, population)
    if issues:
        raise ValidationError("; ".join(issues))
    n = instance.n
    # the selfish population is one more block, grouped with the machines
    masses = (population.selfish_mass,) + population.machine_masses
    classes = _group_by_access(zip((population.selfish_access,) + population.machine_access,
                                   masses))
    blocks = [_spread(n, access, total) for access, total, _ks in classes]

    iterations = 1
    if len(classes) == 1:
        access, total, _ks = classes[0]
        blocks = [solve_wardrop(instance, access, total)]
    elif classes:
        damping = settings.damping
        for iterations in range(1, settings.max_outer_iterations + 1):
            sweep_gap = 0.0
            for c, (access, total, _ks) in enumerate(classes):
                loads = [math.fsum(b[i] for b in blocks) for i in range(n)]
                sweep_gap = max(sweep_gap, _wardrop_gap(instance, access, blocks[c],
                                                        loads, total))
                bg = [max(0.0, loads[i] - blocks[c][i]) for i in range(n)]
                br = solve_wardrop(instance, access, total, bg)
                blocks[c] = _renorm(_blend(blocks[c], br, damping), total)
            if sweep_gap <= settings.tolerance:
                break

    # certify the final blocks, not an in-sweep snapshot
    loads = [math.fsum(b[i] for b in blocks) for i in range(n)]
    gap = max((_wardrop_gap(instance, access, blocks[c], loads, total)
               for c, (access, total, _ks) in enumerate(classes)), default=0.0)
    converged = gap <= settings.tolerance

    selfish, *machines = _split(masses, n, classes, blocks)
    profile = DisaggregatedProfile(selfish, tuple(machines))
    return _report(instance, profile, gap, 0.0, converged, iterations)


def _report(instance: GameInstance, profile: DisaggregatedProfile,
            selfish_res: float, machine_res: float,
            converged: bool, iterations: int) -> SolveReport:
    aggregate = LoadProfile.from_raw(profile.aggregate_loads())
    return SolveReport(
        profile=profile,
        aggregate=aggregate,
        cost=instance.cost(aggregate.loads),
        selfish_residual=selfish_res,
        machine_residual=machine_res,
        converged=converged,
        iterations=iterations,
    )


def validate_for_solve(instance: GameInstance, population: SchedulerPopulation) -> list[str]:
    """Subset of :func:`teamsched.game.validate` violations that make a solve unrunnable."""
    blocking = ("mass-overflow", "empty-access", "bad-server-index",
                "bad-attack-target", "nonfinite-attack-strength", "negative-attack-strength",
                "nonpositive-machine-mass", "selfish-mass-mismatch")
    return [v for v in validate(instance, population) if v.startswith(blocking)]
