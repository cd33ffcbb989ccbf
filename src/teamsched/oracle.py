"""Independent brute-force verification: lattice search over the load simplex,
security classification of team scheduling, and monotonicity sweeps.

Nothing here reuses the closed forms; agreement between this module and the
analytic/iterative paths is what the test suite certifies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from .game import (DisaggregatedProfile, GameInstance, LoadProfile,
                   SchedulerPopulation, system_cost)
from .solvers import SolveSettings, solve_team_equilibrium

if TYPE_CHECKING:
    import numpy as np

#: refuse lattice searches that would sort more slopes than this, ``n * steps``:
#: 31 servers at the verdicts' resolution, 10 at the floor of 1e-4
CAPACITY_LIMIT = 1_000_000
#: the security verdicts' lattice resolution, the largest team-minus-reference
#: gap they pass (meaningful only at that resolution), random team starts per
#: attack on instances without an exact potential, and the largest cost rise
#: between neighbouring machine masses the monotonicity sweep lets pass
_VERIFY_RESOLUTION = 1e-3
_GAP_TOL = 1e-5
_VERIFY_STARTS = 5
_MONOTONE_TOL = 1e-8


class CapacityError(ValueError):
    """Requested lattice search is too large to run."""


def lattice_size(n: int, steps: int) -> int:
    """Number of points of the scaled simplex lattice with ``steps`` subdivisions.

    The search never counts them; this stays for the benchmark's tracer."""
    return math.comb(steps + n - 1, n - 1)


def _contribution_tables(instance: GameInstance, steps: int, step: float) -> list[np.ndarray]:
    """Per-server tables of x * tau_i^attack(x) on the lattice axis."""
    import numpy as np  # imported here so that solves never load numpy

    axis = np.arange(steps + 1, dtype=np.float64) * step
    return [axis * (f(axis) + instance.attack_bonus(i))
            for i, f in enumerate(instance.delays, start=1)]


def _exact_slopes(tables: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """First differences of every table, server n's first, as exact pairs ``(s, e)``.

    ``s`` is the rounded difference and ``e`` its exact remainder (TwoSum),
    so ``s + e`` is the real slope. Rounding is monotone, so lexicographic
    order on ``(s, e)`` is the order of the real slopes. A difference with a
    non-finite entry leaves ``e`` non-finite and becomes ``(+inf, 0)``.
    """
    import numpy as np

    stacked = np.stack(tables[::-1])
    before, after = stacked[:, :-1], stacked[:, 1:]
    s = after - before
    v = s - after
    e = (after - (s - v)) - (before + v)
    finite = np.isfinite(e)
    return np.where(finite, s, np.inf).ravel(), np.where(finite, e, 0.0).ravel()


def grid_search_optimum(instance: GameInstance, resolution: float = 1e-3) -> tuple[LoadProfile, float]:
    """Minimum over the scaled-simplex lattice with the given step.

    Each server has a table ``T_i[k] = x_k * tau_i^attack(x_k)`` on the axis
    ``x_k = k * n / steps``, and a point ``(k_1, .., k_n)`` summing to
    ``steps`` scores ``sum_i T_i[k_i]``. The tables are convex (nonnegative
    coefficients), so the least point takes the ``steps`` smallest slopes of
    all n tables together (Gross 1956; Bussieck et al., Oper. Res. Lett. 15,
    1994): one sort of every table's exact slopes (:func:`_exact_slopes`),
    and ``k_i`` is the number of server i's slopes among the first
    ``steps``. On equal exact slopes the later server goes first, so each
    server in turn, server 1 first, takes the lowest load among the minima.

    Exactness: where every table is exactly convex (its exact slopes never
    decrease) and some point is finite, the winner is the lexicographically
    first point of least exact sum of the rounded table values. A table
    whose entries overflow to +inf counts as convex, since its infinite
    slopes sort last. Elsewhere, such as constant delays ``b * x`` whose
    rounded entries wobble, the winner's exact sum exceeds that minimum by
    at most the tables' wobble: the sum over tables of how far each rises
    above the table rebuilt from its own slopes in ascending order. Where
    every point holds an infinite entry, the winner is the point the same
    sort reaches, and it scores +inf too. For polynomial delays the winner
    is within a Lipschitz-constant multiple of the resolution of the true
    optimum.

    Guards: a finite ``resolution`` of at least 1e-4 that leaves at least
    one lattice step, an attack target among the servers, a finite,
    nonnegative attack strength that keeps the attacked delay at load 0
    finite (so no table holds ``0 * inf``, a NaN) and at most
    :data:`CAPACITY_LIMIT` slopes, ``n * steps``: up to 31 servers at
    verify's 1e-3.
    """
    n = instance.n
    if not math.isfinite(resolution) or resolution < 1e-4:
        raise ValueError(f"resolution must be finite and at least 1e-4, got {resolution}")
    if instance.attack_target not in range(1, n + 1):
        raise ValueError(f"attack target must be a server in 1..{n}, got {instance.attack_target}")
    if not 0.0 <= instance.attack_strength < math.inf:
        raise ValueError(f"attack strength must be in [0, inf), got {instance.attack_strength}")
    if any(f.intercept + instance.attack_bonus(i) == math.inf
           for i, f in enumerate(instance.delays, start=1)):
        raise ValueError(f"attack strength {instance.attack_strength!r} overflows the "
                         f"attacked server's delay at load 0")
    steps = round(n / resolution)
    if steps < 1:
        raise ValueError(f"resolution {resolution} leaves no lattice step on {n} servers")
    if n * steps > CAPACITY_LIMIT:
        raise CapacityError(
            f"lattice search sorts {n * steps} slopes, limit is {CAPACITY_LIMIT}")
    import numpy as np

    step = n / steps
    with np.errstate(over="ignore", invalid="ignore"):
        s, e = _exact_slopes(_contribution_tables(instance, steps, step))
    order = np.lexsort((e, s))  # stable: server n's slopes come first on ties
    best_key = np.bincount(order[:steps] // steps, minlength=n)[::-1].tolist()
    profile = LoadProfile.from_raw([k * step for k in best_key])
    return profile, system_cost(instance, profile)


@dataclass(frozen=True)
class SecurityVerdict:
    """Outcome of a security scan over an attack-strength grid.

    ``strong``: the team response matched the lattice optimum everywhere.
    ``weak``: it never exceeded the attack-oblivious baseline.
    ``worst_alpha``/``gap`` locate the largest gap behind the verdict's
    primary comparison. ``inconclusive`` flags solver non-convergence, in
    which case both booleans are reported false, ``worst_alpha`` is the
    attack strength whose solves did not converge and ``gap`` is NaN.
    """

    strong: bool
    weak: bool
    worst_alpha: float
    gap: float
    inconclusive: bool = False


@dataclass(frozen=True)
class MonotonicityReport:
    """Team-equilibrium costs along a penetration grid and whether they decrease."""

    nonincreasing: bool
    costs: tuple[float, ...]
    inconclusive: bool = False


def _has_potential(instance: GameInstance) -> bool:
    """Is every team equilibrium's cost the same, by an exact potential?

    True iff every delay is ``b_i + c_i x**d`` (coefficients
    ``(b_i, 0, .., 0, c_i)``) with ``c_i > 0`` and one common degree
    ``d >= 1``. Then, with machine mass ``m_i``, selfish mass ``s_i``, load
    ``x_i = m_i + s_i`` and attack offset ``a_i``, the function

        Phi = sum_i c_i x_i**(d+1) + sum_i (b_i + a_i) m_i + (d+1) sum_i (b_i + a_i) s_i

    is an exact potential of the team game (Monderer & Shapley 1996;
    Sandholm 2001): ``dPhi/dm_i`` is server i's attacked marginal cost and
    ``dPhi/ds_i`` is ``d+1`` times its attacked delay. So each group's
    equilibrium condition (machines equalise marginal costs, selfish jobs
    delays, over their access sets) is the KKT condition of Phi on that
    group's block. The constraints (each group's mass over its access set)
    are separate per block, so every team equilibrium is a KKT point of the
    convex Phi over the whole feasible set, hence a minimiser of Phi. Phi is
    strictly convex in the aggregate loads x, since ``c_i > 0`` and
    ``d >= 1``, so every minimiser has the same x, and the team cost depends
    on x only. Random restarts cannot find a worse equilibrium. Mixed
    degrees, extra terms such as ``x + x**2`` and constant servers fall
    outside this argument.
    """
    degree = instance.delays[0].degree
    return degree >= 1 and all(
        f.degree == degree and f.coefficients[-1] > 0.0 and not any(f.coefficients[1:-1])
        for f in instance.delays)


def _team_costs_multistart(instance: GameInstance, population: SchedulerPopulation,
                           settings: SolveSettings, rng: random.Random) -> list[float] | None:
    """Team costs from the default start, plus :data:`_VERIFY_STARTS` random
    ones on instances without an exact potential.

    Returns None when nothing converges. Multiple starts approximate the
    quantifier over all equilibria, which cannot be enumerated. Where
    :func:`_has_potential` holds, every equilibrium has the same cost, so the
    default start alone answers the quantifier and nothing is drawn from
    ``rng``.
    """
    n = instance.n
    costs = []
    report = solve_team_equilibrium(instance, population, settings)
    if report.converged:
        costs.append(report.cost)

    def random_block(access: frozenset[int], mass: float) -> tuple[float, ...]:
        weights = {i: rng.expovariate(1.0) for i in access}
        total = sum(weights.values())
        return tuple(mass * weights.get(i, 0.0) / total for i in range(1, n + 1))

    for _ in range(0 if _has_potential(instance) else _VERIFY_STARTS):
        selfish = random_block(population.selfish_access, max(0.0, population.selfish_mass))
        machines = tuple(random_block(population.machine_access[k], population.machine_masses[k])
                         for k in range(population.machine_count))
        init = DisaggregatedProfile(selfish, machines)
        report = solve_team_equilibrium(instance, population, settings, initial=init)
        if report.converged:
            costs.append(report.cost)
    return costs or None


def verify_security(instance: GameInstance, population: SchedulerPopulation,
                    alphas: Sequence[float], *, settings: SolveSettings | None = None,
                    seed: int = 0) -> tuple[SecurityVerdict, SecurityVerdict]:
    """Strong and weak verdicts from one scan over the attack-strength grid.

    At each grid attack the team cost is compared with the 1e-3 lattice
    optimum (strong) and with the attack-oblivious baseline, the no-attack
    optimum held fixed (weak); a gap of at most :data:`_GAP_TOL` passes.
    Each lattice is one fresh search. It runs at every server count up to
    31; from 32 servers on the no-attack search raises
    :class:`CapacityError`, before any team solve. Where the delays give the
    team game an exact potential (:func:`_has_potential`: one common degree,
    ``b_i + c_i x**d`` with ``c_i > 0``), every equilibrium has the same
    cost and the default start's solve is the team cost; the verdict is
    inconclusive exactly when that solve does not converge. Otherwise the
    team cost is the worst over the default start and five random starts
    drawn from ``seed``, and the verdict is inconclusive when none of them
    converges. Returns ``(strong, weak)``; each locates the largest gap of
    its own comparison. An empty ``alphas`` raises ``ValueError``.
    """
    if len(alphas) == 0:
        raise ValueError("alphas must hold at least one attack strength")
    settings = settings or SolveSettings()
    rng = random.Random(seed)
    baseline_profile, _ = grid_search_optimum(replace(instance, attack_strength=0.0),
                                              _VERIFY_RESOLUTION)

    strong_gaps: list[tuple[float, float]] = []
    weak_gaps: list[tuple[float, float]] = []
    for alpha in alphas:
        attacked = replace(instance, attack_strength=float(alpha))
        costs = _team_costs_multistart(attacked, population, settings, rng)
        if costs is None:
            failed = SecurityVerdict(False, False, float(alpha), math.nan, inconclusive=True)
            return failed, failed
        worst_team = max(costs)
        _, opt_cost = grid_search_optimum(attacked, _VERIFY_RESOLUTION)
        strong_gaps.append((float(alpha), worst_team - opt_cost))
        weak_gaps.append((float(alpha), worst_team - system_cost(attacked, baseline_profile)))

    strong = all(g <= _GAP_TOL for _, g in strong_gaps)
    weak = all(g <= _GAP_TOL for _, g in weak_gaps)

    def verdict(gaps: list[tuple[float, float]]) -> SecurityVerdict:
        worst_alpha, gap = max(gaps, key=lambda ag: ag[1])
        return SecurityVerdict(strong, weak, worst_alpha, gap)

    return verdict(strong_gaps), verdict(weak_gaps)


def verify_strong_security(instance: GameInstance, population: SchedulerPopulation,
                           alphas: Sequence[float], *, settings: SolveSettings | None = None,
                           seed: int = 0) -> SecurityVerdict:
    """Does the team response match the lattice optimum at every grid attack?"""
    return verify_security(instance, population, alphas, settings=settings, seed=seed)[0]


def verify_weak_security(instance: GameInstance, population: SchedulerPopulation,
                         alphas: Sequence[float], *, settings: SolveSettings | None = None,
                         seed: int = 0) -> SecurityVerdict:
    """Does the team response stay at or below the attack-oblivious baseline
    (the no-attack optimum held fixed) at every grid attack?"""
    return verify_security(instance, population, alphas, settings=settings, seed=seed)[1]


def monotonicity_sweep(instance: GameInstance, r_grid: Sequence[float], alpha: float, *,
                       settings: SolveSettings | None = None) -> MonotonicityReport:
    """Team cost along an ascending machine-mass grid with full access.

    Costs should never increase, beyond :data:`_MONOTONE_TOL`, as more mass
    moves under machine control. An empty or descending grid raises
    ``ValueError``.
    """
    settings = settings or SolveSettings()
    grid = [float(r) for r in r_grid]
    if not grid:
        raise ValueError("machine-mass grid must hold at least one mass")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("machine-mass grid must be ascending")
    attacked = replace(instance, attack_strength=float(alpha))
    costs = []
    for r in grid:
        population = SchedulerPopulation.full_access(attacked.n, r)
        report = solve_team_equilibrium(attacked, population, settings)
        if not report.converged:
            return MonotonicityReport(False, tuple(costs), inconclusive=True)
        costs.append(report.cost)
    ok = all(b <= a + _MONOTONE_TOL for a, b in zip(costs, costs[1:]))
    return MonotonicityReport(ok, tuple(costs))
