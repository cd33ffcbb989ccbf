"""Leader-follower scheduling on access-constrained identical linear servers.

Setting: ``n >= 3`` servers with ``tau_i(x) = x``, server 1 attacked with
strength ``alpha``. A single socially-aware leader commits mass ``n - 1`` on
servers 2..n; one unit of selfish followers then splits between servers 1
and 2 so that neither side of the split regrets it. The leader anticipates
the response and picks the commitment minimizing mean system delay.

Two branches exist: congest server 2 to keep followers on the attacked
server (*influencing*), or concede it and let them flee (*abandoning*). The
switch happens at :func:`influence_threshold`, where the argmin jumps while
the cost stays continuous. :func:`solve_stackelberg_numeric` checks the
closed-form policy independently: it minimizes the piecewise-quadratic cost
of the leader's load on server 2 exactly, without the threshold.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .closed_form import _check_domain
from .game import GameInstance, LoadProfile, ValidationError, system_cost, total_mass

INFLUENCING = "influencing"
ABANDONING = "abandoning"


@dataclass(frozen=True)
class StackelbergSolution:
    """Leader commitment, follower response, and optimality certificates.

    ``multipliers`` are ``(lam, mu1, mu2)`` for the leader's first-order
    system: the mass-balance level, the follower-response coupling
    ``x_1 + alpha >= x_2``, and the nonnegativity of the attacked load. They
    satisfy the stationarity equations exactly on the influencing branch and
    are clamped to feasibility on the abandoning branch, where the attacked
    server empties through follower behavior rather than the multiplier.
    """

    leader: tuple[float, ...]
    follower: tuple[float, ...]
    aggregate: LoadProfile
    cost: float
    multipliers: tuple[float, float, float]
    branch: str


def influence_threshold(n: int) -> float:
    """Attack strength at which congesting server 2 stops paying off:
    ``(2n/(n-2)) * (2 - sqrt(2n/(n-1)))``."""
    _check_domain(n, min_n=3)
    return (2.0 * n / (n - 2)) * (2.0 - math.sqrt(2.0 * n / (n - 1)))


def follower_best_response(leader_loads: Sequence[float], n: int, alpha: float) -> list[float]:
    """Split the unit selfish mass between servers 1 and 2.

    Interior splits equalize ``x_1 + alpha`` with the total load on server 2;
    otherwise all mass goes to the cheaper side. Closed form for unit-slope
    delays: ``x_1 = clamp((1 + x2_leader - alpha) / 2, 0, 1)``.
    """
    _check_domain(n, alpha, min_n=3)
    loads = [float(v) for v in leader_loads]
    if len(loads) != n:
        raise ValidationError(f"leader vector has {len(loads)} entries, expected {n}")
    if abs(loads[0]) > 1e-9:
        raise ValidationError(f"leader cannot schedule on the attacked server, got {loads[0]}")
    if not all(-1e-12 <= v < math.inf for v in loads):
        raise ValidationError(f"leader loads must be finite and nonnegative: {loads}")
    mass = total_mass(loads)
    if abs(mass - (n - 1)) > 1e-9:
        raise ValidationError(f"leader mass {mass!r} differs from required {n - 1}")
    x1 = min(1.0, max(0.0, (1.0 + loads[1] - alpha) / 2.0))
    return [x1, 1.0 - x1] + [0.0] * (n - 2)


def optimal_leader_policy(n: int, alpha: float) -> tuple[list[float], str]:
    """Cost-minimizing leader commitment and its branch label.

    Below the threshold the leader loads server 2 to ``1 - alpha(n-2)/(2n)``;
    at or above it, to ``1/(n-1)``. Servers 3..n share the remainder equally.
    """
    _check_domain(n, alpha, min_n=3)
    if alpha < influence_threshold(n):
        x2 = 1.0 - alpha * (n - 2) / (2 * n)
        branch = INFLUENCING
    else:
        x2 = 1.0 / (n - 1)
        branch = ABANDONING
    rest = (n - 1 - x2) / (n - 2)
    return [0.0, x2] + [rest] * (n - 2), branch


def stackelberg_cost(n: int, alpha: float) -> float:
    """Mean delay at the optimal leader commitment.

    ``1 + alpha/n - alpha^2 (n-2) / (8 n^2)`` while influencing pays off,
    then the plateau ``n/(n-1)`` once the followers abandon the attacked
    server.
    """
    _check_domain(n, alpha, min_n=3)
    if alpha < influence_threshold(n):
        return 1.0 + alpha / n - alpha * alpha * (n - 2) / (8.0 * n * n)
    return n / (n - 1.0)


def kkt_validity_limit(n: int) -> float:
    """Largest attack strength for which the influencing stationary point
    keeps a nonnegative load on the attacked server: ``4n/(3n-2)``."""
    _check_domain(n, min_n=3)
    return 4.0 * n / (3 * n - 2)


def kkt_stationary_profile(n: int, alpha: float) -> LoadProfile:
    """Aggregate profile of the influencing-branch stationary point:
    ``x_1 = 1 - alpha(3n-2)/(4n)``, ``x_2 = 1 + alpha(n+2)/(4n)``, the rest
    ``1 + alpha/(2n)``. Only defined while ``x_1 >= 0``."""
    _check_domain(n, alpha, min_n=3)
    limit = kkt_validity_limit(n)
    if alpha > limit:
        raise ValueError(
            f"attack strength {alpha} outside the stationary point's validity range [0, {limit}]")
    x1 = 1.0 - alpha * (3 * n - 2) / (4 * n)
    x2 = 1.0 + alpha * (n + 2) / (4 * n)
    rest = 1.0 + alpha / (2 * n)
    return LoadProfile((x1, x2) + tuple(rest for _ in range(n - 2)))


def kkt_multipliers(loads: Sequence[float], alpha: float,
                    branch: str = INFLUENCING) -> tuple[float, float, float]:
    """Recover ``(lam, mu1, mu2)`` from an aggregate profile.

    On the influencing branch the coupling constraint is tight, so
    ``lam = 2 x_3`` and ``mu1 = 2 x_2 - lam``; abandoning solutions carry
    ``mu1 = 0`` and a clamped ``mu2``.
    """
    lam = 2.0 * loads[2]
    if branch == INFLUENCING:
        return lam, max(0.0, 2.0 * loads[1] - lam), 0.0
    return lam, 0.0, max(0.0, lam - alpha - 2.0 * loads[0])


def kkt_residuals(loads: Sequence[float], alpha: float,
                  multipliers: tuple[float, float, float]) -> tuple[float, float, float, float, float]:
    """Absolute residuals of the leader's first-order system.

    In order: stationarity on the attacked server, on server 2, the worst
    stationarity violation on servers 3..n, and the two complementary
    slackness products (coupling constraint, attacked-load nonnegativity).
    The objective is the total (not mean) delay, whose scaling leaves the
    minimizer unchanged.
    """
    lam, mu1, mu2 = multipliers
    r1 = abs(2.0 * loads[0] + alpha - lam + mu1 + mu2)
    r2 = abs(2.0 * loads[1] - lam - mu1)
    r3 = max(abs(2.0 * x - lam) for x in loads[2:])
    r4 = abs(mu1 * (loads[1] - loads[0] - alpha))
    r5 = abs(mu2 * loads[0])
    return r1, r2, r3, r4, r5


def _solution_from_leader(instance: GameInstance, leader: Sequence[float],
                          n: int, alpha: float) -> StackelbergSolution:
    follower = follower_best_response(leader, n, alpha)
    aggregate = LoadProfile.from_raw([leader[i] + follower[i] for i in range(n)])
    cost = system_cost(instance, aggregate)
    branch = INFLUENCING if follower[0] > 1e-9 else ABANDONING
    multipliers = kkt_multipliers(aggregate.loads, alpha, branch)
    if aggregate.loads[0] + alpha < aggregate.loads[1] - 1e-9:
        raise RuntimeError(
            "optimal commitment left the attacked server strictly cheaper; "
            "the follower response is inconsistent")
    return StackelbergSolution(tuple(float(v) for v in leader), tuple(follower),
                               aggregate, cost, multipliers, branch)


def optimal_stackelberg_solution(n: int, alpha: float) -> StackelbergSolution:
    """Closed-form optimal solution (policy, response, cost, multipliers)."""
    leader, _branch = optimal_leader_policy(n, alpha)
    instance = GameInstance.linear(n, alpha)
    return _solution_from_leader(instance, leader, n, alpha)


def solve_stackelberg_numeric(n: int, alpha: float,
                              grid_resolution: float = 1e-4) -> StackelbergSolution:
    """Exact search over the leader's commitment, independent of the
    closed-form policy.

    Symmetry of servers 3..n reduces the decision to the scalar load ``t`` on
    server 2, over ``[0, n-1]``. The follower clamp cuts that range at
    ``t = alpha -/+ 1`` into at most three pieces; on each the follower load
    is ``x_1 = p + q t`` and the cost a convex quadratic, minimized at its
    vertex clamped to the piece. The lowest piece minimum wins and ties
    prefer the lower commitment. ``grid_resolution`` is range-checked but no
    longer affects the result.
    """
    _check_domain(n, alpha, min_n=3)
    if not 0.0 < grid_resolution <= 0.1:
        raise ValueError(f"grid resolution must lie in (0, 0.1], got {grid_resolution}")
    span = float(n - 1)

    def cost_at(t: float) -> float:
        x1 = min(1.0, max(0.0, (1.0 + t - alpha) / 2.0))
        x2 = t + 1.0 - x1
        rest = (span - t) / (n - 2)
        return (x1 * (x1 + alpha) + x2 * x2 + (n - 2) * rest * rest) / n

    # (lo, hi, p, q): followers flee, split, or all stay on the attacked server
    pieces = ((0.0, alpha - 1.0, 0.0, 0.0),
              (alpha - 1.0, alpha + 1.0, (1.0 - alpha) / 2.0, 0.5),
              (alpha + 1.0, span, 1.0, 0.0))
    best_t, best_cost = None, math.inf
    for lo, hi, p, q in pieces:
        lo, hi = max(lo, 0.0), min(hi, span)
        if lo > hi:
            continue
        vertex = ((2.0 * span / (n - 2) - q * (2.0 * p + alpha) - 2.0 * (1.0 - q) * (1.0 - p))
                  / (2.0 * q * q + 2.0 * (1.0 - q) ** 2 + 2.0 / (n - 2)))
        t = min(hi, max(lo, vertex))
        cost = cost_at(t)
        if cost < best_cost:
            best_t, best_cost = t, cost

    instance = GameInstance.linear(n, alpha)
    leader = [0.0, best_t] + [(span - best_t) / (n - 2)] * (n - 2)
    return _solution_from_leader(instance, leader, n, alpha)
