import inspect
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamsched import game, solvers
from teamsched.experiments import load_scenario
from teamsched.game import horner
from teamsched import (
    DisaggregatedProfile,
    GameInstance,
    InfeasibleError,
    SchedulerPopulation,
    SolveSettings,
    ValidationError,
    equilibrium_residuals,
    eval_delay,
    grid_search_optimum,
    solve_fully_selfish,
    solve_social_optimum,
    solve_team_equilibrium,
    solve_wardrop,
    system_cost,
    team_cost_linear,
)


def attacked_delays(instance, loads):
    return [eval_delay(instance.delays[i], loads[i], instance.attack_bonus(i + 1))
            for i in range(instance.n)]


class TestWardrop:
    def test_two_servers_attacked(self):
        inst = GameInstance.linear(2, 1.0)
        y = solve_wardrop(inst, {1, 2}, 2.0)
        assert y == pytest.approx([0.5, 1.5], abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_symmetric_no_attack(self, n):
        inst = GameInstance.linear(n)
        y = solve_wardrop(inst, set(range(1, n + 1)), float(n))
        assert y == pytest.approx([1.0] * n, abs=1e-9)

    def test_attacked_server_abandoned(self):
        inst = GameInstance.linear(3, 6.0)
        y = solve_wardrop(inst, {1, 2, 3}, 3.0)
        assert y == pytest.approx([0.0, 1.5, 1.5], abs=1e-9)
        # abandonment is justified: attacked delay at zero load >= common level
        assert eval_delay(inst.delays[0], 0.0, 6.0) >= 1.5

    def test_empty_access_with_mass(self):
        inst = GameInstance.linear(2)
        with pytest.raises(InfeasibleError):
            solve_wardrop(inst, set(), 1.0)

    def test_zero_mass(self):
        inst = GameInstance.linear(2, 1.0)
        assert solve_wardrop(inst, {1, 2}, 0.0) == [0.0, 0.0]

    def test_constant_delays_split(self):
        inst = GameInstance.identical(2, (3.0,))
        y = solve_wardrop(inst, {1, 2}, 2.0)
        assert y == pytest.approx([1.0, 1.0], abs=1e-9)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_used_servers_have_minimal_delay(self, data):
        n = data.draw(st.integers(2, 5))
        coeffs = tuple(
            (data.draw(st.floats(0.0, 2.0)),
             data.draw(st.floats(0.1, 3.0)),
             data.draw(st.floats(0.0, 2.0)))
            for _ in range(n)
        )
        alpha = data.draw(st.floats(0.0, 5.0))
        inst = GameInstance(n, coeffs, 1, alpha)
        access = data.draw(st.sets(st.sampled_from(range(1, n + 1)), min_size=1))
        mass = data.draw(st.floats(0.1, 4.0))
        background = [data.draw(st.floats(0.0, 2.0)) for _ in range(n)]

        y = solve_wardrop(inst, access, mass, background)
        assert math.fsum(y) == pytest.approx(mass, abs=1e-12)
        loads = [background[i] + y[i] for i in range(n)]
        delays = attacked_delays(inst, loads)
        best = min(delays[i - 1] for i in access)
        for i in access:
            if y[i - 1] > 1e-9:
                assert delays[i - 1] <= best + 2e-10


def reference_linear_fill(levels, background, bonuses, access, mass):
    """Bisection on the common level of linear levels ``c0 + c1 x + bonus``.

    ``levels[i-1] = (c0, c1)``. The float start levels are bisected over in
    exact rational arithmetic, so a slope of any size keeps its load, until
    the placed mass is within 2**-60 of ``mass`` relative.
    """
    n = len(levels)
    starts = {i: Fraction(levels[i - 1][0] + levels[i - 1][1] * background[i - 1]
                          + bonuses[i - 1]) for i in access}
    slopes = {i: Fraction(levels[i - 1][1]) for i in access}
    target = Fraction(mass)

    def placed(level):
        return sum(max(Fraction(0), level - starts[i]) / slopes[i] for i in access)

    lo = min(starts.values())
    hi = lo + target * max(slopes.values())
    below, above = Fraction(0), placed(hi)
    while above - below > target / 2**60:
        mid = (lo + hi) / 2
        at_mid = placed(mid)
        if at_mid < target:
            lo, below = mid, at_mid
        else:
            hi, above = mid, at_mid
    return [float(max(Fraction(0), hi - starts[i]) / slopes[i]) if i in access else 0.0
            for i in range(1, n + 1)]


def fill(levels, background, bonuses, access, mass):
    n = len(levels)
    return solvers._fill_common_level(n, sorted(access), mass, background, levels, bonuses)


def _invert_level(coeffs, target, lo, hi):
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


def _bisect_fill(n, servers, mass, background, level_coeffs, bonuses, starts):
    """Fill for any nondecreasing levels: bisect the common level and invert
    each server's polynomial at it."""
    def alloc_at(level):
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


def reference_bisect_fill(levels, background, bonuses, access, mass):
    """Bisection of the common level to float resolution over per-server
    inversions, rescaled to the mass: the direct form of the fill."""
    n = len(levels)
    starts = {i: horner(levels[i - 1], background[i - 1]) + bonuses[i - 1] for i in access}
    y = _bisect_fill(n, sorted(access), mass, background, levels, bonuses, starts)
    total = math.fsum(y)
    return [v * (mass / total) for v in y] if total > 0.0 else y


def level_gap(levels, background, bonuses, access, mass, y):
    """Worst relative miss of the fill conditions by ``y``.

    A server holding more than ``1e-12 * mass`` is used, and the used levels
    must be equal; an unused server must not sit below the lowest used level
    even after taking ``1e-12 * mass``.
    """
    eps = 1e-12 * mass
    at = {i: horner(levels[i - 1], background[i - 1] + y[i - 1]) + bonuses[i - 1]
          for i in access}
    used = [at[i] for i in access if y[i - 1] > eps]
    if not used:
        return math.inf
    top, low = max(used), min(used)
    gap = (top - low) / top if top > 0.0 else 0.0
    for i in access:
        start = horner(levels[i - 1], background[i - 1] + eps) + bonuses[i - 1]
        if y[i - 1] <= eps and start < low:
            gap = max(gap, (low - start) / low)
    return gap


class TestExactFill:
    """The breakpoint walk for linear levels against a bisection reference."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_bisection_reference(self, data):
        n = data.draw(st.integers(1, 6))
        levels = []
        for _ in range(n):
            c0 = data.draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 2.0)))
            # slopes over 23 decades, so one can sit far below the others
            c1 = 10.0 ** data.draw(st.floats(-20.0, 3.0))
            # a trailing zero coefficient leaves the level linear
            levels.append((c0, c1, 0.0) if data.draw(st.booleans()) else (c0, c1))
        background = [data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))) for _ in range(n)]
        # large bonuses keep some servers' start levels above the final level
        bonuses = [data.draw(st.one_of(st.just(0.0), st.floats(0.0, 8.0))) for _ in range(n)]
        access = data.draw(st.sets(st.integers(1, n), min_size=1))
        mass = data.draw(st.one_of(st.floats(1e-300, 1e-9), st.floats(1e-9, 8.0)))

        y = fill(levels, background, bonuses, access, mass)
        assert math.fsum(y) == pytest.approx(mass, rel=1e-12)
        assert all(v >= 0.0 for v in y)
        assert all(y[i - 1] == 0.0 for i in range(1, n + 1) if i not in access)
        ref = reference_linear_fill([lv[:2] for lv in levels], background, bonuses, access, mass)
        assert y == pytest.approx(ref, rel=1e-12, abs=1e-12 * mass)

    @pytest.mark.parametrize("levels, bonuses, expected", [
        # equal start levels, one slope 1e20 times the other: (1 + 2) / 1e20 == 1
        ([(1.0, 2.0), (1.0, 2e-20)], [0.0, 0.0], [2e-20, 2.0]),
        # the nearly flat server starts at the attack offset
        ([(0.0, 2.0), (0.0, 2e-20)], [0.0, 1.0], [0.5, 1.5]),
    ])
    def test_tiny_slope_keeps_its_load(self, levels, bonuses, expected):
        y = fill(levels, [0.0, 0.0], bonuses, {1, 2}, 2.0)
        ref = reference_linear_fill(levels, [0.0, 0.0], bonuses, {1, 2}, 2.0)
        assert y == pytest.approx(ref, rel=1e-15)
        assert y == pytest.approx(expected, rel=1e-15)

    def test_priced_out_server_left_empty(self):
        # server 1 starts at level 3; the other two meet at level 2 first
        levels = [(0.0, 1.0), (0.0, 1.0), (0.0, 2.0)]
        y = fill(levels, [0.0, 0.5, 0.25], [3.0, 0.0, 0.0], {1, 2, 3}, 2.25)
        assert y == pytest.approx([0.0, 1.5, 0.75], abs=1e-15)

    def test_trailing_zero_coefficient_takes_exact_path(self):
        args = ([0.0, 0.4], [0.7, 0.0], {1, 2}, 1.5)
        y = fill([(0.0, 1.0, 0.0), (0.5, 2.0, 0.0, 0.0)], *args)
        assert y == fill([(0.0, 1.0), (0.5, 2.0)], *args)

    def test_zero_slope_level_is_flat(self):
        # the flat server starts above the level the sloped one reaches
        y = fill([(5.0, 0.0), (0.0, 1.0)], [0.0, 0.0], [0.0, 0.0], {1, 2}, 1.0)
        assert y == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_overflowing_slope_rejected(self):
        # the marginal cost of a 1e308 slope would overflow to an infinite slope
        with pytest.raises(ValueError, match=r"c_1 = 1e\+308 overflows its marginal cost"):
            GameInstance(2, ((0.0, 1e308), (0.0, 1.0)))


class TestNewtonFill:
    """Newton steps over the walk for levels of any degree."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equal_levels_and_bisection_reference(self, data):
        n = data.draw(st.integers(1, 5))
        levels, background = [], []
        for _ in range(n):
            degree = data.draw(st.integers(1, 4))
            # coefficients over 20 decades
            coeff = st.one_of(st.just(0.0), st.floats(-10.0, 10.0).map(lambda e: 10.0 ** e))
            if data.draw(st.booleans()):
                # a pure power at zero background has a zero tangent there
                levels.append((0.0,) * degree + (data.draw(coeff.filter(bool)),))
                background.append(0.0)
            else:
                levels.append(tuple(data.draw(coeff) for _ in range(degree + 1)))
                background.append(data.draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))))
        bonuses = [data.draw(st.one_of(st.just(0.0), st.floats(0.0, 8.0))) for _ in range(n)]
        access = data.draw(st.sets(st.integers(1, n), min_size=1))
        mass = 10.0 ** data.draw(st.floats(-300.0, 0.9))

        y = fill(levels, background, bonuses, access, mass)
        assert not any(math.isnan(v) for v in y)
        assert math.fsum(y) == pytest.approx(mass, rel=1e-12)
        assert all(v >= 0.0 for v in y)
        assert all(y[i - 1] == 0.0 for i in range(1, n + 1) if i not in access)
        args = (levels, background, bonuses, access, mass)
        assert level_gap(*args, y) <= 1e-12
        if mass < 1e-9:
            return
        ref = reference_bisect_fill(*args)
        # the bisection stops at the float resolution of the common level, so
        # the loads agree except where a server's levels at the two loads lie
        # within the level gap the bisection left
        tol = 2.0 * level_gap(*args, ref) + 1e-12
        for i in access:
            ours, theirs = (horner(levels[i - 1], background[i - 1] + z[i - 1])
                            + bonuses[i - 1] for z in (y, ref))
            assert (abs(y[i - 1] - ref[i - 1]) <= 1e-9 * mass
                    or abs(ours - theirs) <= tol * max(ours, theirs))

    def test_mass_below_background_resolution(self):
        # 1.3 + 1e-300 == 1.3, but server 1 starts at level 3e-19, far below
        # server 2's 0.2: the whole mass goes to server 1
        y = fill([(0.0, 1e-19, 1e-19), (0.2, 1.0, 1.0)], [1.3, 0.0], [0.0, 0.0], {1, 2}, 1e-300)
        assert y == [1e-300, 0.0]

    @pytest.mark.parametrize("levels, background, expected", [
        # server 1's level overflows at its background of 1000
        ([(0.0, 0.0, 0.0, 0.0, 1e300), (0.0, 1.0)], [1e3, 0.0], [0.0, 1.0]),
        # every level overflows: the servers share the mass
        ([(0.0, 0.0, 0.0, 0.0, 1e300)] * 2, [1e3, 1e3], [0.5, 0.5]),
    ])
    def test_overflowed_level(self, levels, background, expected):
        assert fill(levels, background, [0.0, 0.0], {1, 2}, 1.0) == expected

    def test_subnormal_mass_kept_whole(self):
        # each half of the smallest float underflows to 0
        assert fill([(0.0, 1.0)] * 2, [0.0, 0.0], [0.0, 0.0], {1, 2}, 5e-324) == [5e-324, 0.0]


class TestSocialOptimum:
    def test_two_servers_attacked(self):
        inst = GameInstance.linear(2, 1.0)
        y = solve_social_optimum(inst, {1, 2}, 2.0)
        assert y == pytest.approx([0.75, 1.25], abs=1e-9)

    def test_three_servers_attacked(self):
        inst = GameInstance.linear(3, 1.0)
        y = solve_social_optimum(inst, {1, 2, 3}, 3.0)
        assert y == pytest.approx([2 / 3, 7 / 6, 7 / 6], abs=1e-9)

    @pytest.mark.parametrize("n", [2, 4])
    def test_symmetric_no_attack(self, n):
        inst = GameInstance.linear(n)
        y = solve_social_optimum(inst, set(range(1, n + 1)), float(n))
        assert y == pytest.approx([1.0] * n, abs=1e-9)

    @pytest.mark.parametrize("coeffs,alpha", [
        ((0.0, 1.0), 0.7),
        ((0.0, 1.0), 2.0),
        ((0.0, 1.0, 1.0), 1.0),
        ((0.5, 0.3, 0.0, 0.2), 1.5),
    ])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_lattice_search(self, n, coeffs, alpha):
        inst = GameInstance.identical(n, coeffs, attack_strength=alpha)
        y = solve_social_optimum(inst, set(range(1, n + 1)), float(n))
        _, lattice_cost = grid_search_optimum(inst, 1e-3)
        assert inst.cost(y) <= lattice_cost + 1e-5


#: one (instance, population) per violation code, each breaking only that invariant
_LINEAR2 = GameInstance.linear(2, 1.0)
_FULL2 = SchedulerPopulation.full_access(2, 1.0)
BLOCKING_CASES = {
    "mass-overflow": (_LINEAR2, SchedulerPopulation.for_instance(2, ((2.1, None),))),
    "empty-access": (_LINEAR2, SchedulerPopulation((1.0,), (frozenset(),), frozenset({1, 2}),
                                                   1.0)),
    "bad-server-index": (_LINEAR2, SchedulerPopulation.for_instance(2, ((1.0, (1, 3)),))),
    "bad-attack-target": (GameInstance.linear(2, 1.0, attack_target=5), _FULL2),
    "nonfinite-attack-strength": (GameInstance.linear(2, math.inf), _FULL2),
    "negative-attack-strength": (GameInstance.linear(2, -1.0), _FULL2),
    "nonpositive-machine-mass": (_LINEAR2, SchedulerPopulation.for_instance(2, ((-0.5, None),))),
    "selfish-mass-mismatch": (_LINEAR2, SchedulerPopulation(
        (1.0,), (frozenset({1, 2}),), frozenset({1, 2}), 0.5)),
}


class TestValidateForSolve:
    def test_cases_cover_every_code_but_intercept_mismatch(self):
        source = inspect.getsource(game.validate)
        codes = set(re.findall(r'append\(\s*f?"([a-z-]+): ', source))
        assert codes == set(BLOCKING_CASES) | {"intercept-mismatch"}

    @pytest.mark.parametrize("code", sorted(BLOCKING_CASES))
    def test_every_other_code_blocks_the_solve(self, code):
        instance, population = BLOCKING_CASES[code]
        assert [v.split(":")[0] for v in game.validate(instance, population)] == [code]
        with pytest.raises(ValidationError, match=code):
            solve_team_equilibrium(instance, population)

    def test_intercept_mismatch_alone_still_solves(self):
        instance = GameInstance(2, ((0.0, 1.0), (1.0, 1.0)), 1, 1.0)
        assert [v.split(":")[0] for v in game.validate(instance, _FULL2)] == [
            "intercept-mismatch"]
        assert solve_team_equilibrium(instance, _FULL2).converged


class TestTeamEquilibrium:
    def test_high_penetration_is_optimal(self):
        inst = GameInstance.linear(2, 1.0)
        pop = SchedulerPopulation.full_access(2, 1.0)
        rep = solve_team_equilibrium(inst, pop)
        assert rep.converged
        assert rep.aggregate.loads == pytest.approx((0.75, 1.25), abs=1e-6)
        assert rep.cost == pytest.approx(1.4375, abs=1e-8)

    def test_low_penetration_is_selfish(self):
        inst = GameInstance.linear(2, 1.0)
        pop = SchedulerPopulation.full_access(2, 0.25)
        rep = solve_team_equilibrium(inst, pop)
        assert rep.converged
        assert rep.aggregate.loads == pytest.approx((0.5, 1.5), abs=1e-6)
        assert rep.cost == pytest.approx(1.5, abs=1e-8)

    def test_constrained_access_nullifies_machines(self):
        inst = GameInstance.linear(3, 1.0)
        pop = SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2))
        rep = solve_team_equilibrium(inst, pop)
        assert rep.converged
        assert rep.aggregate.loads == pytest.approx((1 / 3, 4 / 3, 4 / 3), abs=1e-6)
        assert rep.cost == pytest.approx(4 / 3, abs=1e-8)

    def test_report_cost_matches_aggregate(self):
        inst = GameInstance.linear(3, 0.8)
        pop = SchedulerPopulation.full_access(3, 1.2)
        rep = solve_team_equilibrium(inst, pop)
        assert abs(rep.cost - system_cost(inst, rep.aggregate)) <= 1e-12

    def test_zero_machine_mass_matches_wardrop(self):
        inst = GameInstance.linear(3, 1.3)
        pop = SchedulerPopulation.for_instance(3, ())
        rep = solve_team_equilibrium(inst, pop)
        y = solve_wardrop(inst, {1, 2, 3}, 3.0)
        assert rep.converged
        assert abs(rep.cost - inst.cost(y)) <= 1e-8

    def test_zero_selfish_mass_matches_social_optimum(self):
        inst = GameInstance.linear(3, 1.3)
        pop = SchedulerPopulation.full_access(3, 3.0)
        rep = solve_team_equilibrium(inst, pop)
        y = solve_social_optimum(inst, {1, 2, 3}, 3.0)
        assert rep.converged
        assert abs(rep.cost - inst.cost(y)) <= 1e-8

    def test_cost_nonincreasing_in_machine_mass(self):
        inst = GameInstance.linear(2, 1.0)
        costs = []
        for i in range(21):
            pop = SchedulerPopulation.full_access(2, 2.0 * i / 20)
            rep = solve_team_equilibrium(inst, pop)
            assert rep.converged
            costs.append(rep.cost)
        assert all(b <= a + 1e-8 for a, b in zip(costs, costs[1:]))

    def test_unattacked_servers_balance(self):
        inst = GameInstance.linear(4, 1.2)
        pop = SchedulerPopulation.full_access(4, 1.5)
        rep = solve_team_equilibrium(inst, pop)
        assert rep.converged
        others = rep.aggregate.loads[1:]
        assert max(others) - min(others) <= 1e-7

    def test_multiple_machines_same_access_split_proportionally(self):
        inst = GameInstance.linear(2, 1.0)
        pop = SchedulerPopulation.full_access(2, 1.0, machines=4)
        rep = solve_team_equilibrium(inst, pop)
        assert rep.converged
        assert rep.cost == pytest.approx(1.4375, abs=1e-8)
        blocks = rep.profile.per_machine
        for block in blocks[1:]:
            assert block == pytest.approx(blocks[0], abs=1e-12)

    def test_heterogeneous_access_groups(self):
        inst = GameInstance.linear(3, 0.5)
        pop = SchedulerPopulation.for_instance(3, ((1.0, (1, 2)), (1.0, (2, 3))), None)
        rep = solve_team_equilibrium(inst, pop)
        assert rep.converged
        s_res, m_res = equilibrium_residuals(inst, pop, rep.profile)
        assert max(s_res, m_res) <= 1e-10

    def test_initial_profile_dimension_check(self):
        inst = GameInstance.linear(2, 1.0)
        pop = SchedulerPopulation.full_access(2, 1.0)
        bad = DisaggregatedProfile((1.0, 1.0), ())
        with pytest.raises(ValidationError):
            solve_team_equilibrium(inst, pop, initial=bad)

    def test_nonlinear_delays_converge(self):
        inst = GameInstance.identical(3, (0.0, 1.0, 1.0), attack_strength=1.0)
        pop = SchedulerPopulation.full_access(3, 1.0)
        rep = solve_team_equilibrium(inst, pop)
        assert rep.converged
        assert rep.selfish_residual <= 1e-10
        assert rep.machine_residual <= 1e-10

    def test_non_convergence_reported_not_raised(self):
        inst = GameInstance.linear(2, 1.0)
        pop = SchedulerPopulation.full_access(2, 1.0)
        rep = solve_team_equilibrium(inst, pop,
                                     SolveSettings(max_outer_iterations=1))
        assert not rep.converged
        assert rep.iterations == 1

    @pytest.mark.parametrize("delays, target, expected", [
        (((1.0, 1.0), (1.0, 1e-20)), 1, (2e-20, 2.0)),
        (((0.0, 1.0), (0.0, 1e-20)), 2, (0.5, 1.5)),
    ])
    def test_nearly_flat_server_machines_only(self, delays, target, expected):
        # one machine group and no selfish jobs: the team solve is one fill
        inst = GameInstance(2, delays, target, 1.0 if target == 2 else 0.0)
        rep = solve_team_equilibrium(inst, SchedulerPopulation.full_access(2, 2.0))
        assert rep.converged
        assert rep.aggregate.loads == pytest.approx(expected, rel=1e-12)

    def test_infinite_cost_stops_at_nan_residual(self):
        # cost inf - inf leaves a NaN machine residual that no sweep can clear
        inst = GameInstance.identical(3, (0.0, 8e307), attack_strength=1.0)
        rep = solve_team_equilibrium(inst, SchedulerPopulation.full_access(3, 1.0))
        assert not rep.converged
        assert math.isnan(rep.machine_residual)
        assert rep.iterations <= 10

    def test_settings_validation(self):
        for tolerance in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SolveSettings(tolerance=tolerance)

    @pytest.mark.parametrize("n, alpha, r, cap", [
        (3, 0.0025, 1.4, SolveSettings.max_outer_iterations),
        (2, 0.0027, 1.23, 3000),
    ])
    def test_weak_attack_converges_at_fixed_blend(self, n, alpha, r, cap):
        # a weak attack once stalled: halving the blend after 1000 sweeps
        # without progress slowed the loop so it never reached the tolerance
        rep = solve_team_equilibrium(GameInstance.linear(n, alpha),
                                     SchedulerPopulation.full_access(n, r),
                                     SolveSettings(max_outer_iterations=cap))
        assert rep.converged
        assert rep.cost == pytest.approx(team_cost_linear(n, r, alpha), abs=1e-6)

    def test_blocking_violations_raise(self):
        inst = GameInstance.linear(2, 1.0)
        pop = SchedulerPopulation.for_instance(2, ((2.5, None),))
        with pytest.raises(ValidationError):
            solve_team_equilibrium(inst, pop)


class TestResiduals:
    def test_balanced_profile_no_attack(self):
        inst = GameInstance.linear(2)
        pop = SchedulerPopulation.full_access(2, 1.0)
        profile = DisaggregatedProfile((0.5, 0.5), ((0.5, 0.5),))
        assert equilibrium_residuals(inst, pop, profile) == (0.0, 0.0)

    def test_certifies_known_equilibrium(self):
        # selfish all on server 2, machine holding (0.75, 0.25): wardrop gap
        # 1.75 - 1.25 >= 0 unused, machine marginal costs equalized
        inst = GameInstance.linear(2, 1.0)
        pop = SchedulerPopulation.full_access(2, 1.0)
        profile = DisaggregatedProfile((0.0, 1.0), ((0.75, 0.25),))
        s_res, m_res = equilibrium_residuals(inst, pop, profile)
        assert s_res <= 1e-9
        assert m_res <= 1e-9

    def test_balanced_profile_under_attack_has_selfish_gap(self):
        inst = GameInstance.linear(2, 1.0)
        pop = SchedulerPopulation.for_instance(2, ())
        profile = DisaggregatedProfile((1.0, 1.0), ())
        s_res, m_res = equilibrium_residuals(inst, pop, profile)
        assert s_res == pytest.approx(1.0, abs=1e-12)
        assert m_res == 0.0

    def test_dimension_mismatch(self):
        inst = GameInstance.linear(3)
        pop = SchedulerPopulation.full_access(3, 1.0)
        with pytest.raises(ValidationError):
            equilibrium_residuals(inst, pop, DisaggregatedProfile((1.0, 1.0), ((1.0, 1.0),)))

    def test_mass_outside_access_rejected(self):
        inst = GameInstance.linear(3, 1.0)
        pop = SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2))
        bad = DisaggregatedProfile((0.0, 0.0, 1.0), ((0.0, 1.0, 1.0),))
        with pytest.raises(ValidationError):
            equilibrium_residuals(inst, pop, bad)

    # off-access dust is judged against 1e-12 * max(1, block mass), the same
    # threshold below which the Wardrop gap counts a server as unused
    @pytest.mark.parametrize("dust, ok", [(5e-12, True), (1e-9, False)])
    def test_machine_dust_scales_with_block_mass(self, dust, ok):
        inst = GameInstance.linear(10, 1.0)
        pop = SchedulerPopulation.for_instance(10, ((10.0, range(1, 10)),))
        block = (10 / 9,) * 9 + (dust,)
        profile = DisaggregatedProfile((0.0,) * 10, (block,))
        if ok:
            equilibrium_residuals(inst, pop, profile)
        else:
            with pytest.raises(ValidationError, match="machine 1 mass on inaccessible server 10"):
                equilibrium_residuals(inst, pop, profile)

    @pytest.mark.parametrize("dust, ok", [(5e-12, True), (1e-9, False)])
    def test_selfish_dust_scales_with_block_mass(self, dust, ok):
        inst = GameInstance.linear(10, 1.0)
        pop = SchedulerPopulation.for_instance(10, (), range(1, 10))
        profile = DisaggregatedProfile((10 / 9,) * 9 + (dust,), ())
        if ok:
            equilibrium_residuals(inst, pop, profile)
        else:
            with pytest.raises(ValidationError, match="selfish mass on inaccessible server 10"):
                equilibrium_residuals(inst, pop, profile)


class TestFullySelfish:
    def test_full_access_matches_wardrop(self):
        inst = GameInstance.linear(2, 1.0)
        pop = SchedulerPopulation.full_access(2, 1.0)
        rep = solve_fully_selfish(inst, pop)
        assert rep.converged
        assert rep.cost == pytest.approx(1.5, abs=1e-10)
        assert rep.aggregate.loads == pytest.approx((0.5, 1.5), abs=1e-9)

    def test_heterogeneous_access_classes(self):
        # converted machines keep access {2,3}; outcome matches the team cost
        inst = GameInstance.linear(3, 1.0)
        pop = SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2))
        rep = solve_fully_selfish(inst, pop)
        assert rep.converged
        assert rep.cost == pytest.approx(4 / 3, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.4, 2.5])
    def test_matches_closed_form_zero_penetration(self, alpha):
        inst = GameInstance.linear(4, alpha)
        pop = SchedulerPopulation.full_access(4, 2.0)
        rep = solve_fully_selfish(inst, pop)
        assert rep.converged
        assert rep.cost == pytest.approx(team_cost_linear(4, 0.0, alpha), abs=1e-8)


class TestSharedLoop:
    # selfish jobs share servers {1, 2} with two machines, so the fully
    # selfish solver merges them into one class while the team keeps the
    # selfish population apart from the machine group
    INSTANCE = GameInstance(3, ((0.0, 1.0), (0.0, 0.5, 0.0, 0.5), (0.0, 1.0, 1.0)), 1, 0.7)
    POPULATION = SchedulerPopulation.for_instance(
        3, ((0.6, (1, 2)), (0.5, (2, 3)), (0.4, (1, 2)), (0.3, (1, 3))), (1, 2))

    def test_team_certified(self):
        rep = solve_team_equilibrium(self.INSTANCE, self.POPULATION)
        assert rep.converged
        s_res, m_res = equilibrium_residuals(self.INSTANCE, self.POPULATION, rep.profile)
        assert max(s_res, m_res) <= 1e-10

    def test_fully_selfish_blocks_are_wardrop(self):
        inst, pop = self.INSTANCE, self.POPULATION
        rep = solve_fully_selfish(inst, pop)
        assert rep.converged
        delays = attacked_delays(inst, rep.profile.aggregate_loads())
        blocks = (rep.profile.selfish,) + rep.profile.per_machine
        accesses = (pop.selfish_access,) + pop.machine_access
        for block, access in zip(blocks, accesses):
            best = min(delays[i - 1] for i in access)
            used = [i for i in range(1, inst.n + 1) if block[i - 1] > 1e-12]
            assert set(used) <= access
            assert max(delays[i - 1] - best for i in used) <= 1e-10


def _multi_group_instances():
    """Seeded polynomial instances whose machines split into several access groups."""
    rng = random.Random(14)
    cases = []
    for _ in range(6):
        n = rng.choice((3, 4))
        delays = [(0.0, rng.uniform(0.2, 2.0)) + tuple(rng.uniform(0.0, 1.0)
                                                      for _ in range(rng.randint(0, 2)))
                  for _ in range(n)]
        subsets = [s for size in range(1, n + 1) for s in itertools.combinations(range(1, n + 1), size)]
        access = rng.sample(subsets, 4)
        masses = [rng.uniform(0.1, 0.6) for _ in range(3)]
        cases.append((GameInstance(n, delays, rng.randint(1, n), rng.uniform(0.0, 2.0)),
                      SchedulerPopulation.for_instance(n, tuple(zip(masses, access[1:])), access[0])))
    return cases


def _golden_multi_group():
    scenario = load_scenario(Path(__file__).parent / "golden" / "multi_group.json")
    return scenario.instance, scenario.population


def reference_selfish_residual(instance, population, profile):
    """Worst delay gap of any class, from ``eval_delay`` alone, when no two
    classes share an access set (each class is then its own block)."""
    blocks = (profile.selfish,) + profile.per_machine
    members = zip((population.selfish_access,) + population.machine_access,
                  (population.selfish_mass,) + population.machine_masses, blocks)
    loads = [math.fsum(b[i] for b in blocks) for i in range(instance.n)]
    delays = [eval_delay(instance.delays[i], loads[i], instance.attack_bonus(i + 1))
              for i in range(instance.n)]
    worst = 0.0
    for access, mass, block in members:
        if mass <= 1e-12:
            continue
        best = min(delays[i - 1] for i in access)
        used = [i for i in range(instance.n) if block[i] > 1e-12 * max(1.0, mass)]
        worst = max([worst] + [delays[i] - best for i in used])
    return worst


class TestOneResidualRule:
    # the sweep's stop test and both certificates score a block by one rule

    @pytest.mark.parametrize("instance, population",
                             _multi_group_instances() + [_golden_multi_group()])
    def test_team_report_is_its_certificate(self, instance, population):
        rep = solve_team_equilibrium(instance, population)
        assert rep.converged
        assert (rep.selfish_residual, rep.machine_residual) == equilibrium_residuals(
            instance, population, rep.profile)

    @pytest.mark.parametrize("instance, population", _multi_group_instances())
    def test_fully_selfish_residual_matches_reference(self, instance, population):
        rep = solve_fully_selfish(instance, population)
        assert rep.converged
        assert rep.selfish_residual == reference_selfish_residual(instance, population, rep.profile)
        assert rep.machine_residual == 0.0

    def test_negative_rounding_selfish_mass_solves(self):
        # the machines leave a selfish mass of 3 - 3.0000000000000004 < 0,
        # which validate accepts; that block takes no part in either solve
        inst = GameInstance.linear(3, 1.0)
        pop = SchedulerPopulation.for_instance(3, ((2.0000000000000004, None), (1.0, (2, 3))))
        assert pop.selfish_mass < 0.0
        team = solve_team_equilibrium(inst, pop)
        assert (team.selfish_residual, team.machine_residual) == (0.0, 0.0)
        selfish = solve_fully_selfish(inst, pop)
        assert (selfish.selfish_residual, selfish.machine_residual) == (2.910360841212878e-11, 0.0)
        assert team.converged and selfish.converged
