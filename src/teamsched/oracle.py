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

#: refuse lattice searches that would evaluate more score entries than ten
#: servers take at the verdicts' resolution, ``_search_entries(10, 10_000)``
CAPACITY_LIMIT = 400_130_009
#: the security verdicts' lattice resolution, the largest team-minus-reference
#: gap they pass (meaningful only at that resolution), random team starts per
#: attack on instances without an exact potential, and the largest cost rise
#: between neighbouring machine masses the monotonicity sweep lets pass
_VERIFY_RESOLUTION = 1e-3
_GAP_TOL = 1e-5
_VERIFY_STARTS = 5
_MONOTONE_TOL = 1e-8
#: rows per block of the blocked pair-table kernel, which runs only on the
#: tables the slope merge declines: a block's score array takes 64 * (steps + 1)
#: floats, 5 MB at the 10,000 steps of verify's resolution on ten servers
_BLOCK = 64


class CapacityError(ValueError):
    """Requested lattice search is too large to run."""


def lattice_size(n: int, steps: int) -> int:
    """Number of points of the scaled simplex lattice with ``steps`` subdivisions."""
    return math.comb(steps + n - 1, n - 1)


def _search_entries(n: int, steps: int) -> int:
    """Score entries :func:`grid_search_optimum` evaluates: one pair table of
    C(steps + 2, 2) slices for each server from the second to the last but
    one, then one vector over the first server's loads."""
    return max(n - 2, 0) * math.comb(steps + 2, 2) + steps + 1


def _contribution_tables(instance: GameInstance, steps: int, step: float) -> list[np.ndarray]:
    """Per-server tables of x * tau_i^attack(x) on the lattice axis."""
    import numpy as np  # imported here so that solves never load numpy

    axis = np.arange(steps + 1, dtype=np.float64) * step
    return [axis * (f(axis) + instance.attack_bonus(i))
            for i, f in enumerate(instance.delays, start=1)]


def _pair_table(near: np.ndarray, far: np.ndarray) -> np.ndarray:
    """Min-plus convolution: the smallest ``near[k] + far[m - k]`` over
    ``k <= m`` for every mass ``m``.

    Two finite tables whose exact slopes never decrease (:func:`_exact_slopes`)
    take the slope merge :func:`_merged_pair_table`, O(steps log steps). Every
    other pair takes the blocked kernel :func:`_blocked_pair_table`,
    O(steps^2), such as a table with a non-finite entry or difference, most
    constant delays' tables ``b * x``, whose rounded entries wobble, and the
    rounded tail of identical servers. Both kernels give the same bits
    wherever the merge answers.
    """
    merged = _merged_pair_table(near, far)
    return _blocked_pair_table(near, far) if merged is None else merged


def _exact_slopes(table: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """First differences of ``table`` as exact pairs ``(s, e)``, or None.

    ``s`` is the rounded difference and ``e`` its exact remainder (TwoSum),
    so ``s + e`` is the real slope. Rounding is monotone, so lexicographic
    order on ``(s, e)`` is the order of the real slopes. None unless every
    pair is finite and the real slopes never decrease (the table is exactly
    convex); a non-finite entry or difference leaves some ``e`` NaN.
    """
    import numpy as np

    before, after = table[:-1], table[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        s = after - before
        v = s - after
        e = (after - (s - v)) - (before + v)
    if not np.isfinite(e).all():
        return None
    rising = (s[1:] > s[:-1]) | ((s[1:] == s[:-1]) & (e[1:] >= e[:-1]))
    return (s, e) if rising.all() else None


def _merged_pair_table(near: np.ndarray, far: np.ndarray) -> np.ndarray | None:
    """:func:`_pair_table` by a merge of slopes, or None when a table declines.

    For exactly convex tables the exact minimum of row ``m`` takes the ``m``
    smallest of both tables' slopes (Bussieck et al., Oper. Res. Lett. 15,
    1994). ``k(m)``, the number of ``near`` slopes among them after a stable
    sort with ``near`` first on ties, reaches it, and the row scores
    ``near[k] + far[m - k]``: the same float addition the blocked kernel
    makes at that ``k``. Rounding is monotone, so the float minimum of a row
    is the rounded exact minimum, which that addition gives; exact ties are
    equal real sums and round alike. Mirrored tables (bit-identical) take
    their slopes once.
    """
    import numpy as np

    near_slopes = _exact_slopes(near)
    if near_slopes is None:
        return None
    far_slopes = near_slopes if near.tobytes() == far.tobytes() else _exact_slopes(far)
    if far_slopes is None:
        return None
    steps = len(near) - 1
    order = np.lexsort((np.concatenate((near_slopes[1], far_slopes[1])),
                        np.concatenate((near_slopes[0], far_slopes[0]))))
    k = np.concatenate(([0], np.cumsum(order[:steps] < steps)))
    return near[k] + far[np.arange(steps + 1) - k]


def _blocked_pair_table(near: np.ndarray, far: np.ndarray) -> np.ndarray:
    """:func:`_pair_table` for any two tables, O(steps^2).

    Rows run in blocks of :data:`_BLOCK`; each row is a strided window over
    the reversed ``far``, padded with +inf, so every entry is the same float
    addition as one argmin per slice would make. A block takes the columns
    up to its last row only, and its entries past the diagonal are set to
    +inf.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    steps = len(near) - 1
    padded = np.concatenate((far[::-1], np.full(steps, np.inf)))
    windows = sliding_window_view(padded, steps + 1)[::-1]  # windows[m, k] = far[m - k]
    past_diagonal = ~np.tri(_BLOCK, dtype=bool)
    pair_val = np.empty(steps + 1)
    buffer = np.empty(_BLOCK * (steps + 1))
    for m0 in range(0, steps + 1, _BLOCK):
        m1 = min(m0 + _BLOCK, steps + 1)
        sums = buffer[: (m1 - m0) * m1].reshape(m1 - m0, m1)
        np.add(near[:m1], windows[m0:m1, :m1], out=sums)
        np.copyto(sums[:, m0:], np.inf, where=past_diagonal[: m1 - m0, : m1 - m0])
        sums.min(axis=1, out=pair_val[m0:m1])
    return pair_val


def grid_search_optimum(instance: GameInstance, resolution: float = 1e-3, *,
                        _pairs: dict | None = None) -> tuple[LoadProfile, float]:
    """Exhaustive minimum over the scaled-simplex lattice with the given step.

    Each server has a table ``T_i[k] = x_k * tau_i^attack(x_k)`` on the axis
    ``x_k = k * n / steps``; a point ``(k_1, .., k_n)`` summing to ``steps``
    scores the right fold ``T_1 + (T_2 + (.. + (T_{n-1} + T_n)))``. The search
    is one right fold of :func:`_pair_table`: the tail of the last server is
    ``T_n``, and the tail of servers ``j..n`` is the pair table of ``T_j``
    against the tail of servers ``j+1..n``, so it holds, for every mass, the
    smallest score of those servers' slice. A walk from the full mass then
    fixes one server at a time: server j takes the first minimum of
    ``T_j[k] + tail_{j+1}[m - k]`` over the mass ``m`` left to it. Float
    rounding is monotone, so the winner's score is the minimum over every
    lattice point. A fold whose two tables are finite and exactly convex
    takes the O(steps log steps) slope merge, any other the O(steps^2)
    blocked kernel (:func:`_pair_table`), with the same bits: the first fold
    of polynomial delays usually merges, while the rounded tail of identical
    servers and the tables of constant delays do not.

    Ties: each server takes the lowest load among the minima of its slice,
    so reruns are byte-identical. Where every score is +inf, every server
    but the last takes load 0, with cost inf. For polynomial delays the
    winner is within a Lipschitz-constant multiple of the resolution of the
    true optimum. Guards: a finite ``resolution`` of at least 1e-4 that
    leaves at least one lattice step, an attack target among the servers, a
    finite, nonnegative attack strength (so no table holds -0.0) that keeps
    the attacked delay at load 0 finite (so no table holds ``0 * inf``, a
    NaN) and at most :data:`CAPACITY_LIMIT` score entries
    (:func:`_search_entries`, the entries the blocked kernel would score on
    every fold, whichever kernel runs): every server count up to ten runs at
    verify's 1e-3, eleven are refused.

    ``_pairs`` is :func:`verify_security`'s memo for one scan: it keeps the
    last call's tails, each keyed on the exact bytes of the tables it folds.
    Those stay the same across attack strengths for every server after the
    attacked one, so an attack on server 1 rebuilds no tail.
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
    entries = _search_entries(n, steps)
    if entries > CAPACITY_LIMIT:
        raise CapacityError(
            f"lattice search evaluates {entries} score entries, limit is {CAPACITY_LIMIT}")
    import numpy as np

    step = n / steps
    memo = {} if _pairs is None else _pairs
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _contribution_tables(instance, steps, step)
        raw = [table.tobytes() for table in tables]
        # tails[j]: the best score of servers j+1.., which server j is scored against
        tails, built = [tables[-1]], {}
        for j in range(n - 2, 0, -1):
            key = tuple(raw[j:])
            built[key] = memo[key] if key in memo else _pair_table(tables[j], tails[0])
            tails.insert(0, built[key])
        memo.clear()
        memo.update(built)

        best_key, m = [], steps
        for j in range(n - 1):
            k = int(np.argmin(tables[j][: m + 1] + tails[j][m::-1]))
            best_key.append(k)
            m -= k
        best_key.append(m)

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
    optimum held fixed (weak); a gap of at most :data:`_GAP_TOL` passes. The
    lattice runs at every server count up to ten; from eleven servers on it
    raises :class:`CapacityError`. The scan keeps the lattice's tails from
    one attack to the next, so the servers after the attacked one are folded
    once per scan. Where the delays give the team game an exact potential
    (:func:`_has_potential`: one common degree, ``b_i + c_i x**d`` with
    ``c_i > 0``), every equilibrium has the same cost and the default
    start's solve is the team cost; the verdict is inconclusive exactly
    when that solve does not converge. Otherwise the
    team cost is the worst over the default start and five random starts
    drawn from ``seed``, and the verdict is inconclusive when none of them
    converges. Returns ``(strong, weak)``; each locates the largest gap of
    its own comparison. An empty ``alphas`` raises ``ValueError``.
    """
    if len(alphas) == 0:
        raise ValueError("alphas must hold at least one attack strength")
    settings = settings or SolveSettings()
    rng = random.Random(seed)
    pairs: dict = {}  # the last search's tails, reused while their tables stay the same
    baseline_profile, _ = grid_search_optimum(replace(instance, attack_strength=0.0),
                                              _VERIFY_RESOLUTION, _pairs=pairs)

    strong_gaps: list[tuple[float, float]] = []
    weak_gaps: list[tuple[float, float]] = []
    for alpha in alphas:
        attacked = replace(instance, attack_strength=float(alpha))
        costs = _team_costs_multistart(attacked, population, settings, rng)
        if costs is None:
            failed = SecurityVerdict(False, False, float(alpha), math.nan, inconclusive=True)
            return failed, failed
        worst_team = max(costs)
        _, opt_cost = grid_search_optimum(attacked, _VERIFY_RESOLUTION, _pairs=pairs)
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
