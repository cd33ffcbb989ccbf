"""Exact cost and profile formulas for identical unit-slope linear servers.

Everything here assumes ``tau_i(x) = x`` on all ``n`` servers, unit total
mass per server, and an additive attack of strength ``alpha`` on server 1.
The numeric solvers cover every other instance; these closed forms are the
regression anchors for the linear case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .game import LoadProfile, as_count

REGIME_OPTIMAL = "optimal"
REGIME_INTERMEDIATE = "intermediate"
REGIME_SELFISH = "selfish"


def _check_domain(n: int, alpha: float = 0.0, min_n: int = 2) -> None:
    """Reject a non-integral or too small server count and a bad attack strength."""
    if as_count(n, "server count") < min_n:
        raise ValueError(f"server count must be an integer >= {min_n}, got {n}")
    if not math.isfinite(alpha) or alpha < 0.0:
        raise ValueError(f"attack strength must be finite and >= 0, got {alpha}")


@dataclass(frozen=True)
class LinearRegime:
    """Which of the three machine-penetration regimes ``r`` falls in.

    ``r_bar`` is the penetration level above which the team response is
    globally optimal; below ``selfish_knee`` the machines are displaced
    entirely and the outcome matches a fully selfish population.
    ``selfish_knee`` is also the bottom of the intermediate band: ``r_bar``
    minus the same offset that defines it.
    """

    label: str
    r_bar: float
    selfish_knee: float


def classify_regime(n: int, r: float, alpha: float) -> LinearRegime:
    """Regime membership for penetration ``r``, using closed-interval bounds
    at the optimal side and the selfish side."""
    _check_domain(n, alpha)
    if not 0.0 <= r <= n:
        raise ValueError(f"machine mass must lie in [0, {n}], got {r}")
    knee = 1.0 - alpha * (n - 1) / n
    r_bar = 1.0 - alpha * (n - 1) / (2 * n)
    if r >= r_bar:
        label = REGIME_OPTIMAL
    elif r <= knee:
        label = REGIME_SELFISH
    else:
        label = REGIME_INTERMEDIATE
    return LinearRegime(label, r_bar, knee)


def penetration_threshold(n: int, alpha: float) -> float:
    """Machine mass above which every team equilibrium is globally optimal.

    ``1 - alpha (n-1) / (2n)``, clamped below at zero (for strong attacks any
    nonnegative penetration already suffices).
    """
    _check_domain(n, alpha)
    return max(0.0, 1.0 - alpha * (n - 1) / (2 * n))


def optimal_cost_linear(n: int, alpha: float) -> float:
    """Minimum achievable mean delay under an attack of strength ``alpha``.

    Quadratic in ``alpha`` while the attacked server is worth using at all
    (``alpha <= 2n/(n-1)``); once it is abandoned the cost plateaus at
    ``n/(n-1)``.
    """
    _check_domain(n, alpha)
    if alpha <= 2.0 * n / (n - 1):
        return 1.0 + alpha / n - alpha * alpha * (n - 1) / (4.0 * n * n)
    return n / (n - 1.0)


def team_cost_linear(n: int, r: float, alpha: float) -> float:
    """Team-equilibrium mean delay for machine mass ``r``.

    Piecewise in ``r``: globally optimal above the penetration threshold,
    a strictly improving quadratic in the intermediate band, and the fully
    selfish cost ``min(n/(n-1), 1 + alpha/n)`` below the selfish knee.
    """
    regime = classify_regime(n, r, alpha)
    cap = n / (n - 1.0)
    if regime.label == REGIME_OPTIMAL:
        return optimal_cost_linear(n, alpha)
    if regime.label == REGIME_SELFISH:
        return min(cap, 1.0 + alpha / n)
    return min(cap, (r * r + r * (alpha * (n - 1) / n - 2.0) + n) / (n - 1.0))


def optimal_profile_linear(n: int, alpha: float) -> LoadProfile:
    """Cost-minimizing profile: attacked server carries
    ``max(0, 1 - alpha (n-1) / (2n))``, the rest split evenly."""
    _check_domain(n, alpha)
    x1 = max(0.0, 1.0 - alpha * (n - 1) / (2 * n))
    rest = (n - x1) / (n - 1)
    return LoadProfile((x1,) + tuple(rest for _ in range(n - 1)))


def selfish_profile_linear(n: int, alpha: float) -> LoadProfile:
    """Fully selfish equilibrium profile: attacked server keeps
    ``max(0, 1 - alpha (n-1) / n)``, the rest split evenly."""
    _check_domain(n, alpha)
    x1 = max(0.0, 1.0 - alpha * (n - 1) / n)
    rest = (n - x1) / (n - 1)
    return LoadProfile((x1,) + tuple(rest for _ in range(n - 1)))


def baseline_cost(n: int, alpha: float) -> float:
    """Cost of the attack-oblivious baseline (balanced loads held fixed): ``1 + alpha/n``."""
    _check_domain(n, alpha)
    return 1.0 + alpha / n


def constrained_team_cost(n: int, alpha: float) -> float:
    """Team cost when machines cannot reach the attacked server.

    With selfish jobs confined to servers 1 and 2 and machines to servers
    2..n, machine scheduling loses all leverage and the cost collapses to the
    fully selfish value ``min(n/(n-1), 1 + alpha/n)``. Needs ``n >= 3``.
    """
    _check_domain(n, alpha, min_n=3)
    return min(n / (n - 1.0), 1.0 + alpha / n)
