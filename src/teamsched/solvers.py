"""Equilibrium solvers for mixed machine/selfish scheduler populations.

* :func:`solve_wardrop` — allocate a block of jobs so every used server has
  minimal (attacked) delay among the block's accessible servers.
* :func:`solve_social_optimum` — allocate a block to minimize the mean system
  delay given a fixed background, by equalizing marginal costs.
* :func:`solve_team_equilibrium` and :func:`solve_fully_selfish` — one
  alternating best response over access groups, each moving halfway to its
  answer: the social optimum for machines (team) or a Wardrop fill like the
  selfish jobs' (fully selfish). One certificate, over every scheduler
  class, gates reported convergence in both. One routine fills every
  block's best response on the instance's level tables, and two scores
  read it: a selfish block scores its worst delay gap off the profile, with
  no fill, and a machine block the cost its best response saves. Every
  sweep fills each group once and scores the groups in order until one
  misses the tolerance; a NaN it scores ends the solve. The certificate
  fills only the machine blocks. A non-social block drops a load of at
  most its ``_used_eps`` on a server its response abandons. Only the two
  public fills check their arguments.

Both fills equalize a common service level by Newton steps: each step
replaces every level by its tangent at the server's current load and fills
those lines exactly by a breakpoint walk over their sorted start levels.
Linear levels are their own tangents, so their fill is exact in one step.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .game import (
    MASS_TOL,
    DisaggregatedProfile,
    GameInstance,
    LoadProfile,
    SchedulerPopulation,
    ValidationError,
    as_count,
    horner,
    total_mass,
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
        tolerance = self.tolerance
        if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real):
            # True would compare as 1.0, and "1e-3" or None fail the comparison
            tolerance = math.nan
        try:
            tolerance = float(tolerance)
        except OverflowError:
            tolerance = math.inf
        if not 0.0 < tolerance < math.inf:
            raise ValueError(
                f"tolerance must be a positive finite number, got {self.tolerance!r}")
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "max_outer_iterations",
                           as_count(self.max_outer_iterations, "max_outer_iterations"))
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    """Solver output: equilibrium decomposition, cost, and residual certificates.

    ``selfish_residual`` is the worst delay gap a selfish job could close by
    switching; ``machine_residual`` the largest cost improvement any single
    machine could still realize (0 when every machine is selfish); either
    reads NaN when it compares infinite costs. Both score every class of
    ``profile`` at its aggregate loads. ``converged`` means both were at or
    below the tolerance, and the cost and loads finite, when the solve
    stopped.
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


def _walk(n: int, mass: float, servers: Sequence[int], starts: Sequence[float],
          slopes: Sequence[float]) -> list[float]:
    """Exact fill of the lines ``starts[k] + slopes[k] * y`` in load increments y.

    Line k belongs to server ``servers[k]`` and its load lands at
    ``y[servers[k] - 1]``. Server i takes ``(level - t_i) / c_i`` once the
    common level passes its start level t_i. The walk enters the lines in
    ascending start order, ties in list order (ascending servers enter ties
    by server index), and keeps the level relative to the last start
    entered, ``top``: ``below`` is the mass that lifts every entered server
    to ``top``, a server starting at t enters while
    ``below + (t - top) * sum 1/c`` stays under ``mass``, and each entered
    server takes ``(top - t_i) / c_i`` plus its share ``(1/c_i) / sum 1/c``
    of the rest. Unlike the absolute level ``(mass + sum t/c) / sum 1/c``,
    these differences keep the load of a server whose slope is orders of
    magnitude below the others'. A flat line (slope 0) holds the level at
    its start once the walk reaches it: the flat lines starting there share
    the rest equally.
    """
    order = sorted(range(len(servers)), key=starts.__getitem__)
    top = starts[order[0]]
    below = 0.0
    inv_slope = 0.0
    entered = 0
    flat: list[int] = []
    for k in order:
        start = starts[k]
        # the first entry lifts nothing, also from an infinite start
        lift = below + (start - top) * inv_slope if entered else 0.0
        if lift >= mass:
            break
        below, top = lift, start
        slope = slopes[k]
        if slope == 0.0:
            flat = [j for j in order[entered:] if slopes[j] == 0.0 and starts[j] == top]
            break
        inv_slope += 1.0 / slope
        entered += 1
    rest = mass - below
    y = [0.0] * n
    if flat:
        share = rest / len(flat)
        for k in flat:
            y[servers[k] - 1] = share
        rest = 0.0
    for k in order[:entered]:
        slope = slopes[k]
        y[servers[k] - 1] = (top - starts[k]) / slope + rest / (inv_slope * slope)
    return y


def _fill_common_level(n: int, servers: Sequence[int], mass: float,
                       background: Sequence[float],
                       level_coeffs: Sequence[Sequence[float]],
                       bonuses: Sequence[float]) -> list[float]:
    """Distribute ``mass`` over ``servers`` so the level functions equalize.

    ``servers`` ascends; ``level_coeffs[i-1]`` is a nondecreasing polynomial
    of the aggregate load on server i and ``bonuses[i-1]`` a constant
    offset. Each Newton step replaces every level by its tangent at the
    server's current load increment (the background on the first step),
    evaluated once per server, and fills those lines exactly by
    :func:`_walk`, their start levels and slopes listed in the order of
    ``servers``. A tangent flatter than :data:`_FLAT_SLOPE` (``x**2`` at
    load 0) gives way to the secant over the whole mass, and a level whose
    rise over the whole mass is below float resolution becomes a flat line.
    A line is its own tangent, so a fill whose levels are all linear ends
    after one step; otherwise the steps go on until the loads stop moving
    or their largest move, once below :data:`_SETTLED` times the mass, stops
    shrinking, for at most :data:`_FILL_STEPS` steps. The result is
    rescaled to the exact mass, or returned as the walk built it where the
    scale is exactly 1 (``v * 1.0`` is ``v``); a mass whose every share
    underflowed goes whole to the first least start in ``servers`` order.
    """
    if mass <= 0.0:
        return [0.0] * n
    if not servers:
        raise InfeasibleError("cannot place positive mass: no accessible server")
    y = [0.0] * n
    # the loop's constants, bound once per fill
    last_move = inf = math.inf
    flat_slope = _FLAT_SLOPE
    for _ in range(_FILL_STEPS):
        curved = False
        starts: list[float] = []
        slopes: list[float] = []
        for i in servers:
            coeffs = level_coeffs[i - 1]
            # a line is its own tangent, taken at the background
            at = 0.0
            if len(coeffs) > 2 and any(coeffs[2:]):
                curved = True
                at = y[i - 1]
            x = background[i - 1] + at
            value, slope = horner(coeffs, x)
            if not slope >= flat_slope:
                slope = (horner(coeffs, x + mass)[0] - value) / mass
            if not (slope >= flat_slope and slope * mass > 0.0):
                slope = 0.0
            start = value - slope * at + bonuses[i - 1]
            if not abs(start) < inf:
                # an overflowed level takes mass only where every level overflows
                start, slope = inf, 0.0
            starts.append(start)
            slopes.append(slope)
        step = _walk(n, mass, servers, starts, slopes)
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
        y[servers[min(range(len(starts)), key=starts.__getitem__)] - 1] = total = mass
    scale = mass / total
    if scale == 1.0:
        return y
    return [v * scale for v in y]


def _check_fill_args(instance: GameInstance, access: Iterable[int], mass: float,
                     background: Sequence[float] | None) -> tuple[list[int], list[float]]:
    servers = sorted(set(as_count(i, "server index") for i in access))
    for i in servers:
        if not 1 <= i <= instance.n:
            raise ValidationError(f"access references server {i}, instance has {instance.n}")
    if not 0.0 <= mass < math.inf:
        raise ValueError(f"mass must be finite and nonnegative, got {mass}")
    if background is None:
        bg = [0.0] * instance.n
    else:
        bg = [float(b) for b in background]
        if len(bg) != instance.n:
            raise ValidationError(
                f"background has {len(bg)} entries, instance has {instance.n}")
        if not all(0.0 <= b < math.inf for b in bg):
            raise ValidationError(f"background loads must be finite and nonnegative: {bg}")
    return servers, bg


def solve_wardrop(instance: GameInstance, access: Iterable[int], mass: float,
                  background: Sequence[float] | None = None) -> list[float]:
    """Selfish block allocation: every server the block uses ends up with
    minimal attacked delay among the accessible ones.

    Returns a length-n vector (zero off the access set) summing to ``mass``.
    """
    servers, bg = _check_fill_args(instance, access, mass, background)
    return _fill_common_level(instance.n, servers, mass, bg, instance.delay_coefficients,
                              instance.attack_offsets)


def solve_social_optimum(instance: GameInstance, access: Iterable[int], mass: float,
                         background: Sequence[float] | None = None) -> list[float]:
    """Block allocation minimizing the mean system delay given the background.

    The objective is convex and separable, so equalizing marginal costs
    (delay plus load times delay slope, plus the attack offset) over the
    access set is optimal.
    """
    servers, bg = _check_fill_args(instance, access, mass, background)
    return _fill_common_level(instance.n, servers, mass, bg, instance.marginal_coefficients,
                              instance.attack_offsets)


# ---------------------------------------------------------------------------
# residuals


#: one scheduler class: (ascending servers, mass, optimizes the system)
_Member = tuple[tuple[int, ...], float, bool]


def _worst(residuals: Iterable[float]) -> float:
    """Largest residual, at least 0; a NaN residual (``inf - inf``) stays NaN."""
    worst = 0.0
    for r in residuals:
        if r > worst:
            worst = r
        elif r != r:  # NaN, the one float unequal to itself
            return math.nan
    return worst


def _used_eps(block_mass: float) -> float:
    """Block loads at or below this count as unused, off access included."""
    return _USED_EPS * max(1.0, block_mass)


def _response(instance: GameInstance, member: _Member, block: Sequence[float],
              loads: Sequence[float]) -> tuple[list[float], list[float]]:
    """``(background, best response)`` of one block of positive mass at the
    aggregate ``loads``: the response fills the member's mass over its
    servers, atop the other blocks' loads, by its marginal cost if social,
    else its delay."""
    servers, mass, social = member
    # max(0.0, x - b) in one comparison: 0.0 also at x == b, NaN and inf - inf
    bg = [x - b if x > b else 0.0 for x, b in zip(loads, block)]
    return bg, _fill_common_level(
        instance.n, servers, mass, bg,
        instance.marginal_coefficients if social else instance.delay_coefficients,
        instance.attack_offsets)


def _gap(instance: GameInstance, member: _Member, block: Sequence[float],
         loads: Sequence[float]) -> float:
    """Worst delay excess of a selfish ``block`` over its best accessible
    server at the aggregate ``loads``, on a server where it holds over
    :func:`_used_eps`; read off the profile, with no fill."""
    delays = [horner(c, x)[0] + a
              for c, a, x in zip(instance.delay_coefficients, instance.attack_offsets, loads)]
    best = min([delays[i - 1] for i in member[0]])
    eps = _used_eps(member[1])
    worst = 0.0  # _worst's rules over the used servers: floor 0.0, NaN at once
    for d, b in zip(delays, block):
        if b > eps:
            r = d - best
            if r > worst:
                worst = r
            elif r != r:
                return math.nan
    return worst


def _saving(instance: GameInstance, loads: Sequence[float], bg: Sequence[float],
            response: Sequence[float]) -> float:
    """Cost a social block saves at the aggregate ``loads`` by its
    :func:`_response` ``response`` atop the background ``bg``."""
    now = new = 0.0  # instance.cost of loads and of bg + response, in one pass
    for c, a, x, b, r in zip(instance.delay_coefficients, instance.attack_offsets,
                             loads, bg, response):
        z = b + r
        now += x * (horner(c, x)[0] + a)
        new += z * (horner(c, z)[0] + a)
    return now / instance.n - new / instance.n


def _certificate(instance: GameInstance, members: Sequence[_Member],
                 blocks: Sequence[Sequence[float]], loads: Sequence[float]) -> tuple[float, float]:
    """Worst :func:`_gap` over the selfish blocks and worst :func:`_saving`
    over the social blocks, each 0 when none counts. A member of mass at
    most :data:`_USED_EPS` is not scored, and only a social member's
    response is filled."""
    scores = [(member[2], _saving(instance, loads, *_response(instance, member, block, loads))
               if member[2] else _gap(instance, member, block, loads))
              for member, block in zip(members, blocks) if member[1] > _USED_EPS]
    return (_worst(r for social, r in scores if not social),
            _worst(r for social, r in scores if social))


def _members(population: SchedulerPopulation, team: bool) -> list[_Member]:
    """The selfish population, then each machine, social with ``team``."""
    return [(tuple(sorted(population.selfish_access)), population.selfish_mass, False)] + [
        (tuple(sorted(access)), mass, team)
        for access, mass in zip(population.machine_access, population.machine_masses)]


def _check_solvable(instance: GameInstance, population: SchedulerPopulation) -> None:
    """Raise :class:`ValidationError` on a :func:`validate` violation (the
    instance and the population check themselves when built); the fills
    take what passes unchecked."""
    issues = validate(instance, population)
    if issues:
        raise ValidationError("; ".join(issues))


def _check_blocks(n: int, members: Sequence[_Member],
                  profile: DisaggregatedProfile) -> tuple[tuple[float, ...], ...]:
    """The blocks of ``profile``, selfish first, once each is a real split of
    its member (one block per member of :func:`_members`).

    A block of the wrong length or count, a block load outside the block's
    access set above ``1e-12 * max(1, block mass)`` (below it the Wardrop gap
    counts a server as unused) and a block that is no finite, nonnegative
    split of its member's mass (to ``MASS_TOL * max(1, mass)``) raise
    :class:`ValidationError`.
    """
    if len(profile.selfish) != n:
        raise ValidationError(f"selfish block has {len(profile.selfish)} entries, expected {n}")
    if len(profile.per_machine) != len(members) - 1:
        raise ValidationError(
            f"profile has {len(profile.per_machine)} machine blocks, "
            f"population has {len(members) - 1}")
    blocks = (profile.selfish,) + profile.per_machine
    for k, ((servers, mass, _social), block) in enumerate(zip(members, blocks)):
        who = f"machine {k}" if k else "selfish"
        eps = _used_eps(mass)
        access = set(servers)
        for i in range(1, n + 1):
            if i not in access and block[i - 1] > eps:
                raise ValidationError(f"{who} mass on inaccessible server {i}")
        if (not all(0.0 <= x < math.inf for x in block)
                or not abs(total_mass(block) - mass) <= MASS_TOL * max(1.0, mass)):
            raise ValidationError(f"{who} block {block} is no nonnegative split of mass {mass!r}")
    return blocks


def equilibrium_residuals(instance: GameInstance, population: SchedulerPopulation,
                          profile: DisaggregatedProfile) -> tuple[float, float]:
    """Certificates that ``profile`` is a team equilibrium.

    Returns ``(selfish_residual, machine_residual)``; both at or below the
    solver tolerance certify the profile. Pairs :func:`_check_solvable`
    rejects and profiles :func:`_check_blocks` rejects raise
    :class:`ValidationError`.
    """
    _check_solvable(instance, population)
    members = _members(population, team=True)
    blocks = _check_blocks(instance.n, members, profile)
    return _certificate(instance, members, blocks, profile.aggregate_loads())


# ---------------------------------------------------------------------------
# blended best response


def _renorm(block: list[float], mass: float) -> list[float]:
    """``block`` rescaled by ``mass`` over its ``math.fsum``; all zeros when
    either is not positive. A scale of exactly 1 returns ``block`` itself,
    which every caller builds fresh."""
    s = math.fsum(block)
    if mass <= 0.0 or s <= 0.0:
        return [0.0] * len(block)
    scale = mass / s
    if scale == 1.0:
        return block
    return [v * scale for v in block]


def _loads(blocks: Sequence[Sequence[float]]) -> list[float]:
    """Per-server sum of the blocks, by ``math.fsum``."""
    return [math.fsum(column) for column in zip(*blocks)]


def _group_by_access(members: Sequence[_Member]) -> tuple[list[_Member], list[list[int]]]:
    """Group the members by ``(servers, social)``, skipping empty ones.

    Social blocks (machines) share the system objective, so a joint optimum
    of their aggregate mass satisfies each member's optimality condition;
    selfish blocks with one access set share every Wardrop condition.
    Returns the groups, each one ``(servers, total mass, social)`` record,
    and their member indices, in order of first appearance.
    """
    indices: dict[tuple[tuple[int, ...], bool], list[int]] = {}
    for k, (servers, mass, social) in enumerate(members):
        if mass > _USED_EPS:
            indices.setdefault((servers, social), []).append(k)
    groups = [(servers, math.fsum(members[k][1] for k in ks), social)
              for (servers, social), ks in indices.items()]
    return groups, list(indices.values())


def _split(n: int, members: Sequence[_Member], groups: Sequence[_Member],
           indices: Sequence[list[int]], group_blocks: list[list[float]]) -> DisaggregatedProfile:
    """Profile with each group block split across its members proportionally
    to mass; member 0 is the selfish population, member k + 1 machine k."""
    blocks: list[tuple[float, ...]] = [(0.0,) * n] * len(members)
    for (_servers, total, _social), ks, block in zip(groups, indices, group_blocks):
        for k in ks:
            frac = members[k][1] / total
            blocks[k] = tuple(v * frac for v in block)
    return DisaggregatedProfile(blocks[0], tuple(blocks[1:]))


def _best_response(instance: GameInstance, population: SchedulerPopulation,
                   settings: SolveSettings | None, team: bool,
                   initial: DisaggregatedProfile | None = None) -> SolveReport:
    """Alternating best response over the access groups, blended by :data:`_BLEND`.

    With ``team`` the machines answer with their constrained social optimum,
    otherwise every block answers with its Wardrop response; each sweep
    takes every group's response from one :func:`_response` call, in group
    order, and while no score of the sweep has missed the tolerance also
    scores the group: :func:`_saving` of that response if social, else
    :func:`_gap` of its block. Both scores return a float, so they never
    feed the blocks. A non-social block sets to 0.0 its blended load on a
    server its response leaves empty once that load is at or below
    :func:`_used_eps` of its mass, which its score already counts as unused;
    the rescale spreads that mass over the block. A sweep whose residuals
    pass the tolerance still needs the certificate before it claims
    convergence: :func:`_certificate` over each member's block of the split
    profile, which passes :func:`equilibrium_residuals`' checks by
    construction. A NaN that a sweep scores (``inf - inf``) ends the loop
    at once with that certificate; a NaN among the skipped scores does not.
    """
    settings = settings or SolveSettings()
    tolerance = settings.tolerance
    _check_solvable(instance, population)
    n = instance.n
    members = _members(population, team)
    groups, indices = _group_by_access(members)

    def certify(blocks: list[list[float]], iterations: int) -> SolveReport:
        profile = _split(n, members, groups, indices, blocks)
        loads = profile.aggregate_loads()
        s_res, m_res = _certificate(instance, members, (profile.selfish,) + profile.per_machine,
                                    loads)
        aggregate = LoadProfile.from_raw(loads)
        cost = instance.cost(aggregate.loads)
        return SolveReport(profile, aggregate, cost, s_res, m_res,
                           math.isfinite(cost) and s_res <= tolerance and m_res <= tolerance,
                           iterations)

    # a lone group best-responds to an empty background, which is already
    # the equilibrium; skip the iteration and just certify
    if initial is None and len(groups) == 1:
        zeros = [0.0] * n
        return certify([_response(instance, groups[0], zeros, zeros)[1]], 1)

    if initial is not None:
        starts = _check_blocks(n, members, initial)
    blocks = []
    for (servers, total, _social), ks in zip(groups, indices):
        # the members' initial blocks, or an even spread over the access set
        start = ([1.0] * n if initial is None
                 else _loads([starts[k] for k in ks]))
        blocks.append(_renorm([start[i - 1] if i in servers else 0.0
                               for i in range(1, n + 1)], total))

    iterations = 0
    for iterations in range(1, settings.max_outer_iterations + 1):
        worst = 0.0  # _worst's rules: floor 0.0, a NaN stays
        for g, group in enumerate(groups):
            # once one score misses the tolerance, the rest of the sweep
            # goes unscored
            loads = _loads(blocks)
            bg, response = _response(instance, group, blocks[g], loads)
            if worst <= tolerance:
                residual = (_saving(instance, loads, bg, response) if group[2]
                            else _gap(instance, group, blocks[g], loads))
                if residual > worst or residual != residual:
                    worst = residual
            if group[2]:
                block = [o + _BLEND * (v - o) for o, v in zip(blocks[g], response)]
            else:
                # the selfish score counts a load at or below _used_eps as
                # unused; once the response abandons its server, drop it
                # rather than let the cost charge it the attack
                eps = _used_eps(group[1])
                block = [0.0 if (b := o + _BLEND * (v - o)) <= eps and v == 0.0 else b
                         for o, v in zip(blocks[g], response)]
            blocks[g] = _renorm(block, group[1])

        if math.isnan(worst):
            # a residual that compares infinite costs cannot recover its
            # tolerance; certify (unconverged) instead of running every sweep
            return certify(blocks, iterations)
        if worst <= tolerance:
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
    optimum, up to the sweep cap. ``converged`` is claimed only once the
    certificate of :func:`equilibrium_residuals` on the final profile passes
    the tolerance; the pair is validated once, at entry.
    ``initial`` replaces the even spread over each access set as the start;
    it must pass the certificate's block checks (:func:`_check_blocks`).
    """
    return _best_response(instance, population, settings, team=True, initial=initial)


def solve_fully_selfish(instance: GameInstance, population: SchedulerPopulation,
                        settings: SolveSettings | None = None) -> SolveReport:
    """Equilibrium when every scheduler behaves selfishly.

    Machines become selfish classes that keep their access sets; classes
    sharing an access set move as one block. The same halfway-blended best
    response as :func:`solve_team_equilibrium` runs with Wardrop responses
    only, and ``converged`` needs every class's Wardrop gap on the final
    loads within the tolerance (reported as ``selfish_residual``), scored
    per class, not per merged block.
    """
    return _best_response(instance, population, settings, team=False)

