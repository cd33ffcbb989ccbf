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

#: refuse lattice searches that would evaluate more score entries than this
CAPACITY_LIMIT = 10 ** 8
#: the security verdicts' lattice resolution, and random team starts per
#: attack on instances without an exact potential
_VERIFY_RESOLUTION = 1e-3
_VERIFY_STARTS = 5
#: rows per block of the lattice kernels: a block's score array takes 1.5 MB
#: at the 3,000 steps of verify's resolution on three servers, 2 MB at 4,000
_BLOCK = 64


class CapacityError(ValueError):
    """Requested lattice search is too large to run."""


def lattice_size(n: int, steps: int) -> int:
    """Number of points of the scaled simplex lattice with ``steps`` subdivisions."""
    return math.comb(steps + n - 1, n - 1)


def _search_entries(n: int, steps: int) -> int:
    """Score entries :func:`grid_search_optimum` evaluates: from three servers
    on, the pair table's slices plus one row entry per remaining head point."""
    if n < 3:
        return lattice_size(n, steps)
    return lattice_size(3, steps) + lattice_size(n - 1, steps)


def _contribution_tables(instance: GameInstance, steps: int, step: float) -> list[np.ndarray]:
    """Per-server tables of x * tau_i^attack(x) on the lattice axis."""
    import numpy as np  # imported here so that solves never load numpy

    axis = np.arange(steps + 1, dtype=np.float64) * step
    tables = []
    for i in range(1, instance.n + 1):
        coeffs = np.asarray(instance.delays[i - 1].coefficients, dtype=np.float64)
        delay = np.polynomial.polynomial.polyval(axis, coeffs) + instance.attack_bonus(i)
        tables.append(axis * delay)
    return tables


def _reversed_windows(values: np.ndarray) -> np.ndarray:
    """Strided view ``w[i, j] = values[steps - i - j]`` for ``i + j <= steps``, +inf past it."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    steps = len(values) - 1
    return sliding_window_view(np.concatenate((values[::-1], np.full(steps, np.inf))), steps + 1)


def _pair_table(near: np.ndarray, far: np.ndarray) -> np.ndarray:
    """Smallest score of the last two servers' slice for every remaining mass.

    Row ``m`` holds ``near[k] + far[m - k]`` for ``k <= m``, and a row that
    holds a NaN scores NaN. A block of rows takes the columns up to its last
    row only, and its entries past the diagonal are set to +inf.

    Mirrored tables (``near`` and ``far`` bit-identical, as when the last two
    servers share a delay and neither is attacked) score each entry of a row
    twice: float addition is commutative, so columns ``k <= m // 2`` hold
    every score of row ``m``, NaN included. From the second block on, a block
    takes only the columns up to half its last row, all of them below the
    diagonal of every row in it.
    """
    import numpy as np

    steps = len(near) - 1
    mirrored = near.tobytes() == far.tobytes()
    windows = _reversed_windows(far)[::-1]  # windows[m, k] = far[m - k]
    past_diagonal = ~np.tri(_BLOCK, dtype=bool)
    pair_val = np.empty(steps + 1)
    buffer = np.empty(_BLOCK * (steps + 1))
    for m0 in range(0, steps + 1, _BLOCK):
        m1 = min(m0 + _BLOCK, steps + 1)
        width = (m1 - 1) // 2 + 1 if mirrored and m0 else m1
        sums = buffer[: (m1 - m0) * width].reshape(m1 - m0, width)
        np.add(near[:width], windows[m0:m1, :width], out=sums)
        if width == m1:
            np.copyto(sums[:, m0:], np.inf, where=past_diagonal[: m1 - m0, : m1 - m0])
        sums.min(axis=1, out=pair_val[m0:m1])
    return pair_val


def _first_minimum(scores: np.ndarray) -> int:
    """Flat index of the first minimum of ``scores``, NaN read as +inf
    (a NaN in ``scores`` is overwritten with +inf)."""
    import numpy as np

    k = int(scores.argmin())  # argmin stops at a NaN: map them and rerun
    if math.isnan(scores.flat[k]):
        scores[np.isnan(scores)] = np.inf
        k = int(scores.argmin())
    return k


def _head_rows(first: np.ndarray, second: np.ndarray, pair_val: np.ndarray) -> tuple[int, int]:
    """First minimum over ``(k1, k2)`` of ``(first[k1] + second[k2]) + pair_val[steps - k1 - k2]``
    in row-major order, NaN read as +inf; ``(0, 0)`` if every score is +inf."""
    import numpy as np

    steps = len(first) - 1
    windows = _reversed_windows(pair_val)
    head, best_val = (0, 0), math.inf
    buffer = np.empty(_BLOCK * (steps + 1))
    for a in range(0, steps + 1, _BLOCK):
        b = min(a + _BLOCK, steps + 1)
        width = steps + 1 - a
        scores = buffer[: (b - a) * width].reshape(b - a, width)
        np.add(first[a:b, None], second[:width], out=scores)
        np.add(scores, windows[a:b, :width], out=scores)
        k = _first_minimum(scores)
        if scores.flat[k] < best_val:
            head, best_val = (a + k // width, k % width), scores.flat[k]
    return head


def grid_search_optimum(instance: GameInstance, resolution: float = 1e-3, *,
                        _pairs: dict | None = None) -> tuple[LoadProfile, float]:
    """Exhaustive minimum over the scaled-simplex lattice with the given step.

    Each server has a table ``T_i[k] = x_k * tau_i^attack(x_k)`` on the axis
    ``x_k = k * n / steps``; a point ``(k_1, .., k_n)`` summing to ``steps``
    scores ``(T_1 + T_2) + (T_3 + T_4)`` (``T_1 + (T_2 + T_3)`` at three
    servers). From three servers on, a pair table holds, for every remaining
    mass ``m``, the smallest score of the last two servers' slice. Three
    servers then take one argmin over ``k_1`` against it, four servers the
    first minimum over ``(k_1, k_2)``. Both run as numpy kernels over blocks
    of :data:`_BLOCK` rows: each row is a strided window over the reversed
    table, padded with +inf, so every lattice point is scored with the same
    float additions as one argmin per slice would make. Float rounding is
    monotone, so the winner's score is the minimum over every lattice point.
    The winning slice's split comes from one last argmin. Memory stays
    O(block * steps).

    Ties: the last two servers take the first minimum of each slice (lowest
    ``k_{n-1}``), a row its first minimum (lowest ``k_{n-2}``), and a later
    row wins only if strictly lower (lowest ``k_1``), so reruns are
    byte-identical. From three servers on, a slice holding a NaN scores NaN
    and a NaN score never wins. Where every score is +inf or NaN the first
    point in that search order wins, with cost inf. For polynomial delays
    the winner is within a Lipschitz-constant multiple of the resolution of
    the true optimum. Guards: at most four servers, ``resolution >= 1e-4``,
    a finite attack strength and at most :data:`CAPACITY_LIMIT` score
    entries (O(steps^2) from three servers on).

    ``_pairs`` is :func:`verify_security`'s memo for one scan: it keeps the
    last pair table, keyed on the exact bytes of the last two servers'
    tables, which stay the same across attack strengths whenever the attack
    targets neither of those servers.
    """
    n = instance.n
    if n > 4:
        raise CapacityError(f"lattice search supports at most 4 servers, got {n}")
    if resolution < 1e-4:
        raise ValueError(f"resolution must be at least 1e-4, got {resolution}")
    if not math.isfinite(instance.attack_strength):
        raise ValueError(f"attack strength must be finite, got {instance.attack_strength}")
    steps = round(n / resolution)
    entries = _search_entries(n, steps)
    if entries > CAPACITY_LIMIT:
        raise CapacityError(
            f"lattice search evaluates {entries} score entries, limit is {CAPACITY_LIMIT}")
    import numpy as np

    step = n / steps
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _contribution_tables(instance, steps, step)
        if n == 1:
            best_key = (steps,)
        elif n == 2:
            k = int(np.argmin(tables[0] + tables[1][::-1]))
            best_key = (k, steps - k)
        else:
            near, far = tables[-2], tables[-1]
            pairs = {} if _pairs is None else _pairs
            key = (near.tobytes(), far.tobytes())
            if key not in pairs:
                pairs.clear()
                pairs[key] = _pair_table(near, far)
            pair_val = pairs[key]
            if n == 3:
                head = (_first_minimum(tables[0] + pair_val[::-1]),)
            else:
                head = _head_rows(tables[0], tables[1], pair_val)
            m = steps - sum(head)
            k = int(np.argmin(near[: m + 1] + far[m::-1]))  # argmin picks a NaN first, as the table did
            best_key = head + (k, m - k)

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
                    alphas: Sequence[float], tol: float = 1e-5, *,
                    settings: SolveSettings | None = None,
                    seed: int = 0) -> tuple[SecurityVerdict, SecurityVerdict]:
    """Strong and weak verdicts from one scan over the attack-strength grid.

    At each grid attack the team cost is compared with the 1e-3 lattice
    optimum (strong) and with the attack-oblivious baseline, the no-attack
    optimum held fixed (weak). Where the delays give the team game an exact
    potential (:func:`_has_potential`: one common degree, ``b_i + c_i x**d``
    with ``c_i > 0``), every equilibrium has the same cost and the default
    start's solve is the team cost; the verdict is inconclusive exactly when
    that solve does not converge. Otherwise the team cost is the worst over
    the default start and five random starts drawn from ``seed``, and the
    verdict is inconclusive when none of them converges. Returns
    ``(strong, weak)``; each locates the largest gap of its own comparison.
    An empty ``alphas`` raises ``ValueError``.
    """
    if len(alphas) == 0:
        raise ValueError("alphas must hold at least one attack strength")
    settings = settings or SolveSettings()
    rng = random.Random(seed)
    pairs: dict = {}  # one pair table, reused across the scan while it stays the same
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

    strong = all(g <= tol for _, g in strong_gaps)
    weak = all(g <= tol for _, g in weak_gaps)

    def verdict(gaps: list[tuple[float, float]]) -> SecurityVerdict:
        worst_alpha, gap = max(gaps, key=lambda ag: ag[1])
        return SecurityVerdict(strong, weak, worst_alpha, gap)

    return verdict(strong_gaps), verdict(weak_gaps)


def verify_strong_security(instance: GameInstance, population: SchedulerPopulation,
                           alphas: Sequence[float], tol: float = 1e-5, *,
                           settings: SolveSettings | None = None, seed: int = 0) -> SecurityVerdict:
    """Does the team response match the lattice optimum at every grid attack?"""
    return verify_security(instance, population, alphas, tol, settings=settings, seed=seed)[0]


def verify_weak_security(instance: GameInstance, population: SchedulerPopulation,
                         alphas: Sequence[float], tol: float = 1e-5, *,
                         settings: SolveSettings | None = None, seed: int = 0) -> SecurityVerdict:
    """Does the team response stay at or below the attack-oblivious baseline
    (the no-attack optimum held fixed) at every grid attack?"""
    return verify_security(instance, population, alphas, tol, settings=settings, seed=seed)[1]


def monotonicity_sweep(instance: GameInstance, r_grid: Sequence[float], alpha: float,
                       tol: float = 1e-8,
                       settings: SolveSettings | None = None) -> MonotonicityReport:
    """Team cost along an ascending machine-mass grid with full access.

    Costs should never increase as more mass moves under machine control.
    """
    settings = settings or SolveSettings()
    grid = [float(r) for r in r_grid]
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
    ok = all(b <= a + tol for a, b in zip(costs, costs[1:]))
    return MonotonicityReport(ok, tuple(costs))
