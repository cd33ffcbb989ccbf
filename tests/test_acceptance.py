"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

from teamsched import (
    GameInstance,
    SchedulerPopulation,
    constrained_team_cost,
    grid_search_optimum,
    influence_threshold,
    kkt_multipliers,
    kkt_residuals,
    kkt_stationary_profile,
    monotonicity_sweep,
    optimal_cost_linear,
    optimal_profile_linear,
    solve_fully_selfish,
    solve_stackelberg_numeric,
    solve_team_equilibrium,
    stackelberg_cost,
    system_cost,
    team_cost_linear,
    verify_weak_security,
)
from teamsched.experiments import load_scenario
from teamsched.stackelberg import INFLUENCING

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

N_VALUES = (2, 3, 5, 10)
ALPHA_GRID = tuple(4.0 * i / 24 for i in range(25))
R_VALUES = (0.0, 0.25, 0.6, 0.75, 1.0, 1.5, 2.0)


def test_criterion_1_closed_form_regression():
    start = time.perf_counter()
    for n in N_VALUES:
        for alpha in ALPHA_GRID:
            for r in R_VALUES:
                cost = team_cost_linear(n, r, alpha)
                assert math.isfinite(cost) and 1.0 <= cost <= n / (n - 1) + 1e-12
    assert abs(team_cost_linear(2, 1.0, 1.0) - 1.4375) <= 1e-12
    assert abs(team_cost_linear(2, 0.25, 1.0) - 1.5) <= 1e-12
    assert abs(team_cost_linear(2, 0.6, 1.0) - 1.46) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS closed-form regression ({elapsed:.3f}s)")


def test_criterion_2_solver_matches_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for n in N_VALUES:
        for alpha in ALPHA_GRID:
            instance = GameInstance.linear(n, alpha)
            for r in R_VALUES:
                population = SchedulerPopulation.full_access(n, r)
                report = solve_team_equilibrium(instance, population)
                assert report.converged, f"no convergence at n={n} r={r} alpha={alpha}"
                err = abs(report.cost - team_cost_linear(n, r, alpha))
                worst = max(worst, err)
                assert err <= 1e-6, f"cost mismatch {err} at n={n} r={r} alpha={alpha}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\n[criterion 2] PASS solver vs closed form, worst gap {worst:.2e} "
          f"({elapsed:.1f}s, {len(N_VALUES) * len(ALPHA_GRID) * len(R_VALUES)} solves)")


def test_criterion_3_lattice_agrees_with_optimal_profile():
    start = time.perf_counter()
    alphas = tuple(3.0 * i / 9 for i in range(10))
    for n in (2, 3):
        for alpha in alphas:
            instance = GameInstance.linear(n, alpha)
            _, lattice_cost = grid_search_optimum(instance, 1e-3)
            closed = system_cost(instance, optimal_profile_linear(n, alpha))
            assert abs(lattice_cost - closed) <= 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[criterion 3] PASS lattice vs closed-form optimum ({elapsed:.1f}s)")


def test_criterion_4_constrained_access_nullification():
    start = time.perf_counter()
    population = SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2))
    for alpha in (0.5, 1.0, 1.2, 2.0):
        instance = GameInstance.linear(3, alpha)
        team = solve_team_equilibrium(instance, population)
        assert team.converged
        expected = min(1.5, 1.0 + alpha / 3.0)
        assert abs(team.cost - expected) <= 1e-6
        assert abs(team.cost - constrained_team_cost(3, alpha)) <= 1e-6
        selfish = solve_fully_selfish(instance, population)
        assert selfish.converged
        assert abs(team.cost - selfish.cost) <= 1e-8
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 4] PASS constrained nullification ({elapsed:.1f}s)")


def test_criterion_5_stackelberg_threshold_and_ordering():
    start = time.perf_counter()
    assert abs(stackelberg_cost(3, 1.0) - 95 / 72) <= 1e-12
    numeric = solve_stackelberg_numeric(3, 1.0, 1e-4)
    assert abs(numeric.cost - 95 / 72) <= 1e-6

    # locate the commitment jump by bisecting on the numeric branch
    lo, hi = 1.5, 1.7
    assert solve_stackelberg_numeric(3, lo, 1e-4).branch == INFLUENCING
    assert solve_stackelberg_numeric(3, hi, 1e-4).branch != INFLUENCING
    while hi - lo > 2.5e-7:
        mid = 0.5 * (lo + hi)
        if solve_stackelberg_numeric(3, mid, 1e-4).branch == INFLUENCING:
            lo = mid
        else:
            hi = mid
    jump = 0.5 * (lo + hi)
    assert abs(jump - influence_threshold(3)) <= 1e-6

    below = solve_stackelberg_numeric(3, jump - 1e-6, 1e-4)
    above = solve_stackelberg_numeric(3, jump + 1e-6, 1e-4)
    assert abs(below.cost - above.cost) <= 1e-6  # cost continuous at the jump
    assert abs(below.leader[1] - above.leader[1]) > 0.1  # commitment is not

    for i in range(61):
        alpha = 3.0 * i / 60
        opt = optimal_cost_linear(3, alpha)
        stack = stackelberg_cost(3, alpha)
        uninfl = constrained_team_cost(3, alpha)
        assert opt <= stack + 1e-9 <= uninfl + 2e-9
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 5] PASS stackelberg threshold at {jump:.8f} "
          f"(expected {influence_threshold(3):.8f}) and cost ordering ({elapsed:.1f}s)")


def test_criterion_6_first_order_residuals():
    start = time.perf_counter()
    for n in (3, 4, 5):
        for alpha in (0.25, 0.5, 1.0):
            profile = kkt_stationary_profile(n, alpha)
            multipliers = kkt_multipliers(profile.loads, alpha)
            residuals = kkt_residuals(profile.loads, alpha, multipliers)
            assert all(r <= 1e-10 for r in residuals), (n, alpha, residuals)
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 6] PASS stationarity residuals ({elapsed:.2f}s)")


def test_criterion_7_property_suites():
    start = time.perf_counter()
    templates = [
        GameInstance.linear(2, 1.0),
        GameInstance.linear(3, 1.5),
        GameInstance.identical(3, (0.0, 1.0, 1.0), 1.0),  # nonlinear path
    ]
    for instance in templates:
        grid = [instance.n * i / 99 for i in range(100)]
        report = monotonicity_sweep(instance, SchedulerPopulation.full_access(instance.n, 1.0), grid)
        assert not report.inconclusive
        assert report.nonincreasing

    verdicts = []
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(path)
        verdict = verify_weak_security(scenario.instance, scenario.population,
                                       scenario.alphas, settings=scenario.settings)
        assert not verdict.inconclusive
        assert verdict.weak, f"{path.name}: weak security failed with gap {verdict.gap}"
        verdicts.append(verdict)
    full_access = verify_weak_security(
        GameInstance.linear(2), SchedulerPopulation.full_access(2, 1.0),
        [0.0, 0.5, 1.0, 2.0])
    verdicts.append(full_access)
    for verdict in verdicts:
        assert (not verdict.strong) or verdict.weak
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 7] PASS monotonicity + weak security properties ({elapsed:.1f}s)")


def test_criterion_8_deterministic_output(tmp_path):
    start = time.perf_counter()

    def run_cli(*args):
        proc = subprocess.run([sys.executable, "-m", "teamsched.cli", *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    scenario = str(SCENARIOS / "constrained_three_servers.json")
    outputs = []
    for tag in ("a", "b", "c"):
        out = tmp_path / f"sweep_{tag}.csv"
        run_cli("sweep", scenario, "--out", str(out))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    figures = []
    for _ in range(3):
        proc = run_cli("figure", "fig4")
        figures.append(proc.stdout.encode())
    assert figures[0] == figures[1] == figures[2]
    elapsed = time.perf_counter() - start
    print(f"\n[criterion 8] PASS byte-identical sweep/figure output ({elapsed:.1f}s)")
