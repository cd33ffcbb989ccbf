"""Independent verification: an exact search of the load-simplex lattice,
security classification of team scheduling, and monotonicity sweeps.

The lattice search is pure Python. It selects the lattice's least point from
the exact slopes of the servers' tables, evaluating only the few slopes it
needs where a rounding-error certificate proves a table exactly convex.
Nothing here reuses the closed forms; agreement between this module and the
analytic/iterative paths is what the test suite certifies.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace

from . import game
from .game import (DisaggregatedProfile, GameInstance, LoadProfile, SchedulerPopulation,
                   horner, system_cost)
from .solvers import SolveSettings, solve_team_equilibrium

#: refuse lattice searches over more slopes than this, ``n * steps``: 31 servers
#: at the verdicts' resolution, 10 at the floor of 1e-4. The selection reads a
#: few hundred slopes of a certified table, but sorts every slope it cannot
#: certify (all of a constant delay's), so this bounds that worst case
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


class _Slopes:
    """One server's table and its first differences as sort keys, computed on
    demand and indexable by slope, so that :mod:`bisect` counts them in
    place.

    Entry ``k`` is ``T[k] = x * (tau(x) + attack)`` at ``x = k * step``, the
    IEEE operations of an elementwise evaluation on the whole axis; the table
    keeps the server's row of :attr:`GameInstance.delay_coefficients` and its
    entry of :attr:`GameInstance.attack_offsets`, and takes ``tau(x)`` from
    :func:`horner` directly, the same bits as ``DelayFunction.__call__``. Slope
    ``k`` joins entries ``k`` and ``k + 1``; its key is ``(s, e, j)``: ``s``
    the rounded difference, ``e`` its exact remainder (TwoSum), so ``s + e``
    is the real slope and the lexicographic order on ``(s, e)`` is the order
    of the real slopes (rounding is monotone), and ``j`` its place in the
    tie order, ``(n - i) * steps + k`` for server i: on equal slopes the later
    server comes first. A difference with a non-finite entry leaves ``e``
    non-finite and becomes ``(+inf, 0.0, j)``, so no key holds a NaN.
    """

    __slots__ = ("coefficients", "bonus", "step", "base")

    def __init__(self, coefficients: Sequence[float], bonus: float, step: float, base: int):
        self.coefficients, self.bonus, self.step, self.base = coefficients, bonus, step, base

    def entry(self, k: int) -> float:
        x = k * self.step
        return x * (horner(self.coefficients, x)[0] + self.bonus)

    def __getitem__(self, k: int) -> tuple[float, float, int]:
        before, after = self.entry(k), self.entry(k + 1)
        s = after - before
        v = s - after
        e = (after - (s - v)) - (before + v)
        if math.isfinite(e):
            return s, e, self.base + k
        return math.inf, 0.0, self.base + k


def _convex_from(coefficients: Sequence[float], bonus: float, step: float, steps: int, n: int) -> int:
    """First slope from which the keys of :class:`_Slopes` provably never
    decrease; ``steps`` where nothing is certified.

    Write ``tau`` for the delay with the given coefficients, of degree
    ``d = len(coefficients) - 1``, ``G(x) = x * (tau(x) + attack)``, of
    degree ``d + 1`` with nonnegative coefficients, ``x_k = k * step`` for
    the exact grid, ``u = 2**-53`` and ``X = n (1 + 2**-50)``, above every
    grid point and its rounding. Keys ``k - 1`` and ``k`` are in order
    exactly when the rounded entries' second difference at ``k`` is
    nonnegative. At ``k >= 1``:

    - on the exact grid it is at least ``step**2 * G''(x_k)``, since
      ``G''`` is convex on ``x >= 0`` (Jensen over the hat kernel);
    - rounding ``k * step`` moves each point by at most ``u * x_k``, which
      moves it by at most ``4 u (d + 1) G(X)``, as ``x G'(x) <= (d + 1) G(x)``;
    - the ``2d + 2`` roundings of each entry (Horner, the attack, the
      product) move the entry by at most ``gamma_{2d+2} G(X)`` (Higham,
      Accuracy and Stability of Numerical Algorithms, 2002, ch. 5), plus,
      on underflow, an absolute term below ``floor``.

    The moves add up to less than ``16 (d + 1) u G(X) + 4 floor``. ``G''``
    grows with k, so where ``step**2 * G''(x_k)`` reaches that bound at
    ``k = k0``, the keys are in order from slope ``k0 - 1`` on. The bound is
    doubled to absorb the roundings of this test. Entries that overflow to +inf break
    nothing: their keys are the largest, in slope order. A constant delay has
    ``G'' = 0`` and is never certified; nor is a table that may overflow
    before ``X``.
    """
    if steps < 2:
        return 0
    d = len(coefficients) - 1
    curvature = [(j + 1) * j * c for j, c in enumerate(coefficients)][1:]
    if not all(math.isfinite(c) for c in curvature):
        return steps
    top = n * (1.0 + 2.0 ** -50)
    try:
        floor = (2 * d + 2) * 2.0 ** -1000 * top ** (d + 1)
    except OverflowError:
        return steps
    value = horner(coefficients, top)[0]
    bound = 2.0 * (16 * (d + 1) * 2.0 ** -53 * top * (value + bonus) + 4.0 * floor)
    if not bound < math.inf:
        return steps

    def holds(k: int) -> bool:
        return step * step * horner(curvature, k * step)[0] >= bound

    if holds(1):
        return 0
    if not holds(steps - 1):
        return steps
    fails, passes = 1, steps - 1
    while passes - fails > 1:
        mid = (fails + passes) // 2
        if holds(mid):
            passes = mid
        else:
            fails = mid
    return passes - 1


def _select(runs: list, lo: list[int], hi: list[int], count: int) -> list[int]:
    """Where the ``count`` smallest keys of all runs' windows end in each run.

    Run q is indexable and ascending on its window ``[lo[q], hi[q])``; the
    result is, per run, the index past its last key among the ``count``
    smallest. ``count`` is at least 1 and at most the windows' total size.
    Invariant: run q's answer lies in ``[lo[q], hi[q]]``, and the lower
    ends total less than the target ``sum(lo) + count`` taken on entry,
    since they only move to counts below it. A pivot key from the widest
    window is counted in every run by bisection inside its window; the
    total says on which side of the ``count``-th smallest key the pivot
    lies, and every window shrinks to its count on that side (a count
    clamped to its window is still a bound). The pivot's index is
    interpolated from the windows' totals (regula falsi); after two moves
    to one side it is the window's midpoint instead, so the windows keep
    halving where interpolation stalls.
    """
    target = sum(lo) + count
    last, streak = None, 0
    while True:
        below, above = sum(lo), sum(hi)
        if above == target:
            return hi
        q = max(range(len(runs)), key=lambda r: hi[r] - lo[r])
        width = hi[q] - lo[q]
        if streak < 2:
            p = lo[q] + width * (target - below) // (above - below)
        else:
            p = lo[q] + width // 2
        pivot = runs[q][p]
        counts = [p + 1 if r == q else bisect_right(run, pivot, lo[r], hi[r])
                  for r, run in enumerate(runs)]
        total = sum(counts)
        if total == target:
            return counts
        high = total > target
        streak = streak + 1 if high == last else 1
        last = high
        if high:
            counts[q] = p
            hi = counts
        else:
            lo = counts


def grid_search_optimum(instance: GameInstance, resolution: float = 1e-3) -> tuple[LoadProfile, float]:
    """Minimum over the scaled-simplex lattice with the given step.

    Each server has a table ``T_i[k] = x_k * tau_i^attack(x_k)`` on the axis
    ``x_k = k * n / steps``, and a point ``(k_1, .., k_n)`` summing to
    ``steps`` scores ``sum_i T_i[k_i]``. The tables are convex (nonnegative
    coefficients), so the least point takes the ``steps`` smallest slopes of
    all n tables together (Gross 1956; Bussieck et al., Oper. Res. Lett. 15,
    1994), and ``k_i`` is the number of server i's slopes among them. The
    search selects the ``steps``-th smallest exact slope key (:class:`_Slopes`)
    without sorting: where a server's rounded table is certified exactly
    convex (:func:`_convex_from`), its keys ascend and are counted by
    bisection, evaluated on demand; the range the certificate leaves out (a
    prefix, or the whole table for a constant delay or one that may
    overflow) is materialised and sorted once. On equal exact slopes the
    later server goes first, so each server in turn, server 1 first, takes
    the lowest load among the minima. The winner is the point one stable
    sort of every key would give.

    Exactness: where every table is exactly convex (its exact slopes never
    decrease) and some point is finite, the winner is the lexicographically
    first point of least exact sum of the rounded table values. A table
    whose entries overflow to +inf counts as convex, since its infinite
    slopes come last. Elsewhere, such as constant delays ``b * x`` whose
    rounded entries wobble, the winner's exact sum exceeds that minimum by
    at most the tables' wobble: the sum over tables of how far each rises
    above the table rebuilt from its own slopes in ascending order. Where
    every point holds an infinite entry, the winner is the point the same
    order reaches, and it scores +inf too. For polynomial delays the winner
    is within a Lipschitz-constant multiple of the resolution of the true
    optimum.

    Guards: a finite ``resolution`` of at least 1e-4 that leaves at least
    one lattice step, and at most :data:`CAPACITY_LIMIT` slopes,
    ``n * steps``: up to 31 servers at verify's 1e-3. The instance itself
    keeps the attacked delay at load 0 finite, so no table holds
    ``0 * inf``, a NaN.
    """
    n = instance.n
    if not math.isfinite(resolution) or resolution < 1e-4:
        raise ValueError(f"resolution must be finite and at least 1e-4, got {resolution}")
    steps = round(n / resolution)
    if steps < 1:
        raise ValueError(f"resolution {resolution} leaves no lattice step on {n} servers")
    if n * steps > CAPACITY_LIMIT:
        raise CapacityError(
            f"lattice search sorts {n * steps} slopes, limit is {CAPACITY_LIMIT}")

    step = n / steps
    runs, windows = [], []
    tables = zip(instance.delay_coefficients, instance.attack_offsets)
    for i, (coefficients, bonus) in enumerate(tables, start=1):
        slopes = _Slopes(coefficients, bonus, step, (n - i) * steps)
        start = _convex_from(coefficients, bonus, step, steps, n)
        if start:
            runs.append(sorted(map(slopes.__getitem__, range(start))))
            windows.append((i, 0, start))
        if start < steps:
            runs.append(slopes)
            windows.append((i, start, steps))
    servers, lo, hi = zip(*windows)
    best_key = [0] * n
    for i, low, end in zip(servers, lo, _select(runs, list(lo), list(hi), steps)):
        best_key[i - 1] += end - low
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


def _team_costs_multistart(instance: GameInstance, population: SchedulerPopulation,
                           settings: SolveSettings | None,
                           rng: random.Random) -> list[float] | None:
    """Team costs from the default start, plus :data:`_VERIFY_STARTS` random
    ones on instances without an exact potential.

    Returns None when nothing converges. Multiple starts approximate the
    quantifier over all equilibria, which cannot be enumerated. Where
    :func:`game._has_potential` holds, every equilibrium has the same cost,
    so the default start alone answers the quantifier and nothing is drawn
    from ``rng``.
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

    for _ in range(0 if game._has_potential(instance) else _VERIFY_STARTS):
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
    team game an exact potential (:func:`game._has_potential`: one common
    degree, ``b_i + c_i x**d`` with ``c_i > 0``), every equilibrium has the
    same cost and the default start's solve is the team cost; the verdict is
    inconclusive exactly when that solve does not converge. Otherwise the
    team cost is the worst over the default start and five random starts
    drawn from ``seed``, and the verdict is inconclusive when none of them
    converges. Returns ``(strong, weak)``; each locates the largest gap of
    its own comparison. An empty ``alphas`` raises ``ValueError``.
    """
    if len(alphas) == 0:
        raise ValueError("alphas must hold at least one attack strength")
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


def monotonicity_sweep(instance: GameInstance, population: SchedulerPopulation,
                       masses: Sequence[float], *,
                       settings: SolveSettings | None = None) -> MonotonicityReport:
    """Team cost of ``population.at_mass(r)`` at the instance's attack, for
    each machine mass ``r`` of an ascending grid.

    The paper's first claim is that, with full access, more machine mass
    never raises the team cost; it proves this on identical unit-slope
    servers. The report is ``nonincreasing`` when no cost rises by more than
    :data:`_MONOTONE_TOL` over its neighbour. The conjecture checked beyond
    the paper is that the cost never rises whenever every machine group may
    use every server the selfish jobs may use, on heterogeneous delays too:
    seeded draws of linear and common-degree servers found no rise. Its
    limit is machine access narrower than the selfish access. There, mass
    moved from the selfish jobs to the machines also loses servers it could
    use, and the cost can rise (87 of 250 random draws did, by up to 1.96).
    That is an access loss, not a counterexample to the paper.

    An empty or descending grid raises ``ValueError``, and so does any mass
    :meth:`SchedulerPopulation.at_mass` refuses, before anything is solved.
    """
    grid = [float(r) for r in masses]
    if not grid:
        raise ValueError("machine-mass grid must hold at least one mass")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("machine-mass grid must be ascending")
    costs = []
    for scaled in [population.at_mass(r) for r in grid]:
        report = solve_team_equilibrium(instance, scaled, settings)
        if not report.converged:
            return MonotonicityReport(False, tuple(costs), inconclusive=True)
        costs.append(report.cost)
    ok = all(b <= a + _MONOTONE_TOL for a, b in zip(costs, costs[1:]))
    return MonotonicityReport(ok, tuple(costs))
