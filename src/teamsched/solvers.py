"""Equilibrium solvers for mixed machine/selfish scheduler populations.

* :func:`solve_wardrop` — allocate a block of jobs so every used server has
  minimal (attacked) delay among the block's accessible servers.
* :func:`solve_social_optimum` — allocate a block to minimize the mean system
  delay given a fixed background, by equalizing marginal costs.
* :func:`solve_team_equilibrium` and :func:`solve_fully_selfish` — one damped
  alternating best response over access groups, in which machines answer
  with the social optimum (team) or with a Wardrop fill like the selfish
  jobs (fully selfish), and a certificate gates the reported convergence.

Both fills equalize a common service level. When every accessible level
is linear, a breakpoint walk over the sorted start levels gives it exactly;
otherwise it is bisected, with per-server inversion of the monotone level
polynomial closed-form up to quadratics and bisection beyond.
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


def _linear_fill(n: int, servers: Sequence[int], mass: float,
                 level_coeffs: Sequence[Sequence[float]],
                 starts: dict[int, float]) -> list[float] | None:
    """Exact fill by a breakpoint walk when every level is linear.

    Server i takes ``(level - starts[i]) / slope_i`` once the common level
    passes its start level. The walk enters the servers in ascending start
    order and keeps the level relative to the last start entered, ``top``:
    ``below`` is the mass that lifts every entered server to ``top``, a
    server starting at t enters while ``below + (t - top) * sum 1/c`` stays
    under ``mass``, and each entered server takes ``(top - t_i) / c_i`` plus
    its share ``(1/c_i) / sum 1/c`` of the rest. Unlike the absolute level
    ``(mass + sum t/c) / sum 1/c``, these differences keep the load of a
    server whose slope is orders of magnitude below the others'. Returns
    None, leaving the fill to bisection, when a level is not of degree 1
    with a finite positive slope or the loads miss ``mass`` by more than
    rounding (an overflow).
    """
    slopes = {}
    for i in servers:
        coeffs = level_coeffs[i - 1]
        if len(coeffs) < 2 or any(coeffs[2:]) or not 0.0 < coeffs[1] < math.inf:
            return None
        slopes[i] = coeffs[1]
    order = sorted(servers, key=starts.__getitem__)
    top = starts[order[0]]
    below = 0.0
    inv_slope = 0.0
    entered = 0
    for i in order:
        lift = below + (starts[i] - top) * inv_slope
        if lift >= mass:
            break
        below, top = lift, starts[i]
        inv_slope += 1.0 / slopes[i]
        entered += 1
    rest = mass - below
    y = [0.0] * n
    for i in order[:entered]:
        y[i - 1] = (top - starts[i]) / slopes[i] + rest / (inv_slope * slopes[i])
    if not abs(math.fsum(y) - mass) <= 1e-12 * mass:
        return None
    return y


def _bisect_fill(n: int, servers: Sequence[int], mass: float,
                 background: Sequence[float],
                 level_coeffs: Sequence[Sequence[float]],
                 bonuses: Sequence[float], starts: dict[int, float]) -> list[float]:
    """Fill for any nondecreasing levels: bisect the common level and invert
    each server's polynomial at it."""
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

    lo = min(starts.values())
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
    return alloc_at(hi)


def _fill_common_level(n: int, servers: Sequence[int], mass: float,
                       background: Sequence[float],
                       level_coeffs: Sequence[Sequence[float]],
                       bonuses: Sequence[float]) -> list[float]:
    """Distribute ``mass`` over ``servers`` so the level functions equalize.

    ``level_coeffs[i-1]`` is a nondecreasing polynomial of the aggregate load
    on server i and ``bonuses[i-1]`` a constant offset. When every level is
    linear the common level comes exactly from a breakpoint walk
    (:func:`_linear_fill`); otherwise, or when the walk cannot place the mass
    within rounding, it is bisected (:func:`_bisect_fill`). The result is
    rescaled to the exact mass.
    """
    if mass <= 0.0:
        return [0.0] * n
    if not servers:
        raise InfeasibleError("cannot place positive mass: no accessible server")
    starts = {i: horner(level_coeffs[i - 1], background[i - 1]) + bonuses[i - 1]
              for i in servers}
    y = _linear_fill(n, servers, mass, level_coeffs, starts)
    if y is None:
        y = _bisect_fill(n, servers, mass, background, level_coeffs, bonuses, starts)
    total = math.fsum(y)
    if total <= 0.0:
        # mass below the level's float resolution: dump everything on the
        # cheapest accessible server
        cheapest = min(servers, key=lambda i: (starts[i], i))
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


def _worst(residuals: Iterable[float]) -> float:
    """Largest residual, at least 0; a NaN residual (``inf - inf``) stays NaN."""
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            return math.nan
        worst = max(worst, r)
    return worst


def _delay_vector(instance: GameInstance, loads: Sequence[float]) -> list[float]:
    return [eval_delay(instance.delays[i - 1], loads[i - 1], instance.attack_bonus(i))
            for i in range(1, instance.n + 1)]


def _used_eps(block_mass: float) -> float:
    """Block loads at or below this count as unused, off access included."""
    return _USED_EPS * max(1.0, block_mass)


def _wardrop_gap(instance: GameInstance, access: frozenset[int],
                 block: Sequence[float], loads: Sequence[float], block_mass: float) -> float:
    """Worst delay excess over the block's best accessible server."""
    if block_mass <= _USED_EPS:
        return 0.0
    delays = _delay_vector(instance, loads)
    best = min(delays[i - 1] for i in access)
    eps = _used_eps(block_mass)
    return _worst(delays[i - 1] - best for i in range(1, instance.n + 1)
                  if block[i - 1] > eps)


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
    selfish_eps = _used_eps(population.selfish_mass)
    for i in range(1, n + 1):
        if i not in population.selfish_access and profile.selfish[i - 1] > selfish_eps:
            raise ValidationError(f"selfish mass on inaccessible server {i}")
    for k, block in enumerate(profile.per_machine):
        machine_eps = _used_eps(population.machine_masses[k])
        for i in range(1, n + 1):
            if i not in population.machine_access[k] and block[i - 1] > machine_eps:
                raise ValidationError(f"machine {k + 1} mass on inaccessible server {i}")

    loads = profile.aggregate_loads()
    selfish_res = _wardrop_gap(instance, population.selfish_access, profile.selfish,
                               loads, population.selfish_mass)

    improvements = []
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
        improvements.append(current_cost - br_cost)
    return selfish_res, _worst(improvements)


# ---------------------------------------------------------------------------
# damped best response


def _renorm(block: list[float], mass: float) -> list[float]:
    clipped = [max(0.0, v) for v in block]
    s = math.fsum(clipped)
    if mass <= 0.0 or s <= 0.0:
        return [0.0] * len(block)
    return [v * (mass / s) for v in clipped]


def _loads(n: int, blocks: Sequence[Sequence[float]]) -> list[float]:
    return [math.fsum(b[i] for b in blocks) for i in range(n)]


#: one best-response group: (access, total mass, optimizes the system, members)
_Group = tuple[frozenset[int], float, bool, list[int]]


def _group_by_access(blocks: Iterable[tuple[frozenset[int], float, bool]]) -> list[_Group]:
    """Group ``(access, mass, social)`` blocks by ``(access, social)``, skipping empty ones.

    Social blocks (machines) share the system objective, so a joint optimum
    of their aggregate mass satisfies each member's optimality condition;
    selfish blocks with one access set share every Wardrop condition. Groups
    come in order of first appearance.
    """
    blocks = list(blocks)
    members: dict[tuple[frozenset[int], bool], list[int]] = {}
    for k, (access, mass, social) in enumerate(blocks):
        if mass > _USED_EPS:
            members.setdefault((access, social), []).append(k)
    return [(access, math.fsum(blocks[k][1] for k in ks), social, ks)
            for (access, social), ks in members.items()]


def _split(masses: Sequence[float], n: int, groups: list[_Group],
           group_blocks: list[list[float]]) -> DisaggregatedProfile:
    """Profile with each group block split across its members proportionally
    to mass; member 0 is the selfish population, member k + 1 machine k."""
    blocks: list[tuple[float, ...]] = [tuple([0.0] * n)] * len(masses)
    for (_access, total, _social, ks), block in zip(groups, group_blocks):
        for k in ks:
            frac = masses[k] / total
            blocks[k] = tuple(v * frac for v in block)
    return DisaggregatedProfile(blocks[0], tuple(blocks[1:]))


def _best_response(instance: GameInstance, population: SchedulerPopulation,
                   settings: SolveSettings | None, team: bool,
                   initial: DisaggregatedProfile | None = None) -> SolveReport:
    """Damped alternating best response over the access groups.

    With ``team`` the machines answer with their constrained social optimum,
    otherwise every block answers with its Wardrop response. A sweep whose
    in-sweep residuals pass the tolerance still needs the certificate on the
    split profile before it claims convergence: :func:`equilibrium_residuals`
    for the team, each group's Wardrop gap on the final loads otherwise. A
    NaN in-sweep residual ends the loop at once with that certificate.
    """
    settings = settings or SolveSettings()
    issues = validate_for_solve(instance, population)
    if issues:
        raise ValidationError("; ".join(issues))
    n = instance.n
    masses = (population.selfish_mass,) + population.machine_masses
    groups = _group_by_access(zip((population.selfish_access,) + population.machine_access,
                                  masses, (False,) + (team,) * population.machine_count))

    def certify(blocks: list[list[float]], iterations: int) -> SolveReport:
        profile = _split(masses, n, groups, blocks)
        if team:
            s_res, m_res = equilibrium_residuals(instance, population, profile)
        else:
            loads = _loads(n, blocks)
            s_res = _worst(_wardrop_gap(instance, access, block, loads, total)
                           for (access, total, _social, _ks), block in zip(groups, blocks))
            m_res = 0.0
        return _report(instance, profile, s_res, m_res, settings.tolerance, iterations)

    def respond(group: _Group, bg: Sequence[float] | None = None) -> list[float]:
        access, total, social, _ks = group
        fill = solve_social_optimum if social else solve_wardrop
        return fill(instance, access, total, bg)

    # a lone group best-responds to an empty background, which is already
    # the equilibrium; skip the iteration and just certify
    if initial is None and len(groups) == 1:
        return certify([respond(groups[0])], 1)

    if initial is not None:
        if (len(initial.selfish) != n
                or len(initial.per_machine) != population.machine_count):
            raise ValidationError("initial profile dimensions do not match the population")
        starts = (initial.selfish,) + initial.per_machine
    blocks = []
    for access, total, _social, ks in groups:
        # the members' initial blocks, or an even spread over the access set
        start = ([1.0] * n if initial is None
                 else [math.fsum(starts[k][i] for k in ks) for i in range(n)])
        blocks.append(_renorm([start[i - 1] if i in access else 0.0
                               for i in range(1, n + 1)], total))

    damping = settings.damping
    best_seen = math.inf
    stalled = 0
    iterations = 0
    for iterations in range(1, settings.max_outer_iterations + 1):
        residuals = []
        for g, group in enumerate(groups):
            access, total, social, _ks = group
            loads = _loads(n, blocks)
            bg = [max(0.0, loads[i] - blocks[g][i]) for i in range(n)]
            br = respond(group, bg)
            if social:
                residuals.append(instance.cost(loads)
                                 - instance.cost([bg[i] + br[i] for i in range(n)]))
            else:
                residuals.append(_wardrop_gap(instance, access, blocks[g], loads, total))
            blocks[g] = _renorm([o + damping * (v - o) for o, v in zip(blocks[g], br)], total)

        residual = _worst(residuals)
        if math.isnan(residual):
            # a residual that compares infinite costs cannot recover its
            # tolerance; certify (unconverged) instead of running every sweep
            return certify(blocks, iterations)
        if residual <= settings.tolerance:
            report = certify(blocks, iterations)
            if report.converged:
                return report
        if residual < best_seen - 1e-16:
            best_seen = residual
            stalled = 0
        else:
            stalled += 1
            if stalled >= 1000:
                # settle oscillation at regime boundaries
                damping = max(damping / 2.0, 1e-4)
                stalled = 0
    return certify(blocks, iterations)


def solve_team_equilibrium(instance: GameInstance, population: SchedulerPopulation,
                           settings: SolveSettings | None = None,
                           initial: DisaggregatedProfile | None = None) -> SolveReport:
    """Joint machine/selfish equilibrium by damped alternating best response.

    Each sweep moves the selfish block toward its Wardrop response and each
    machine access group toward its constrained social optimum, blending
    with the damping factor; the damping is halved after 1000 sweeps without
    residual improvement. ``converged`` is claimed only once a fresh
    :func:`equilibrium_residuals` certificate passes the tolerance.
    ``initial`` replaces the even spread over each access set as the start.
    """
    return _best_response(instance, population, settings, team=True, initial=initial)


def solve_fully_selfish(instance: GameInstance, population: SchedulerPopulation,
                        settings: SolveSettings | None = None) -> SolveReport:
    """Equilibrium when every scheduler behaves selfishly.

    Machines become selfish classes that keep their access sets; classes
    sharing an access set move as one block. The same damped best response
    as :func:`solve_team_equilibrium` runs with Wardrop responses only, and
    ``converged`` needs every class's Wardrop gap on the final loads within
    the tolerance (reported as ``selfish_residual``).
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
    """Subset of :func:`teamsched.game.validate` violations that make a solve unrunnable."""
    blocking = ("mass-overflow", "empty-access", "bad-server-index",
                "bad-attack-target", "nonfinite-attack-strength", "negative-attack-strength",
                "nonpositive-machine-mass", "selfish-mass-mismatch")
    return [v for v in validate(instance, population) if v.startswith(blocking)]
