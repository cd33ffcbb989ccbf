import hashlib
import inspect
import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamsched import game, solvers
from teamsched.experiments import ScenarioError, load_scenario
from teamsched.game import horner
from teamsched import (
    DisaggregatedProfile,
    GameInstance,
    InfeasibleError,
    SchedulerPopulation,
    SolveSettings,
    ValidationError,
    equilibrium_residuals,
    grid_search_optimum,
    solve_fully_selfish,
    solve_social_optimum,
    solve_team_equilibrium,
    solve_wardrop,
    system_cost,
    team_cost_linear,
)

GOLDEN = Path(__file__).parent / "golden"


def attacked_delays(instance, loads):
    return [instance.delays[i](loads[i]) + instance.attack_bonus(i + 1)
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
        assert inst.delays[0](0.0) + inst.attack_bonus(1) >= 1.5

    @pytest.mark.parametrize("fill", [solve_wardrop, solve_social_optimum])
    def test_rejects_non_integral_server_index(self, fill):
        # int(i) once truncated these to servers 1 and 2: [0.0, 1.0, 0.0]
        inst = GameInstance.linear(3, 1.0)
        with pytest.raises(ValueError, match="server index must be an integer, got 1.5"):
            fill(inst, [1.5, 2.7], 1.0)
        assert fill(inst, [2.0, 3.0], 1.0) == fill(inst, [2, 3], 1.0)

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
    if horner(coeffs, hi)[0] <= target:
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
        if horner(coeffs, mid)[0] <= target:
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
            if horner(level_coeffs[i - 1], b)[0] > target:
                continue
            z = _invert_level(level_coeffs[i - 1], target, b, b + mass)
            out[i - 1] = z - b
        return out

    lo = min(starts.values())
    hi = max(horner(level_coeffs[i - 1], background[i - 1] + mass)[0] + bonuses[i - 1]
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
    starts = {i: horner(levels[i - 1], background[i - 1])[0] + bonuses[i - 1] for i in access}
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
    at = {i: horner(levels[i - 1], background[i - 1] + y[i - 1])[0] + bonuses[i - 1]
          for i in access}
    used = [at[i] for i in access if y[i - 1] > eps]
    if not used:
        return math.inf
    top, low = max(used), min(used)
    gap = (top - low) / top if top > 0.0 else 0.0
    for i in access:
        start = horner(levels[i - 1], background[i - 1] + eps)[0] + bonuses[i - 1]
        if y[i - 1] <= eps and start < low:
            gap = max(gap, (low - start) / low)
    return gap


def gap_bound(levels, background, bonuses, access, mass, y):
    """1e-12, or one ulp of the top used level relative to it where that is
    larger: a subnormal level holds fewer significant bits than 1e-12 needs."""
    top = max((horner(levels[i - 1], background[i - 1] + y[i - 1])[0] + bonuses[i - 1]
               for i in access if y[i - 1] > 1e-12 * mass), default=0.0)
    return max(1e-12, math.ulp(top) / top) if top > 0.0 else 1e-12


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
        assert level_gap(*args, y) <= gap_bound(*args, y)
        if mass < 1e-9:
            return
        ref = reference_bisect_fill(*args)
        # the bisection stops at the float resolution of the common level, so
        # the loads agree except where a server's levels at the two loads lie
        # within the level gap the bisection left
        tol = 2.0 * level_gap(*args, ref) + 1e-12
        for i in access:
            ours, theirs = (horner(levels[i - 1], background[i - 1] + z[i - 1])[0]
                            + bonuses[i - 1] for z in (y, ref))
            assert (abs(y[i - 1] - ref[i - 1]) <= 1e-9 * mass
                    or abs(ours - theirs) <= tol * max(ours, theirs))

    def test_subnormal_levels_one_ulp_apart(self):
        # a hypothesis draw: the levels 3.099968297395e-312 and
        # 3.09996829739e-312 are one subnormal ulp (5e-324) apart, a relative
        # gap of 1.59e-12, so the fill is exact to the last bit
        args = ([(0.0, 0.0, 1.0), (0.0, 0.0, 0.0001), (0.0, 0.0)], [0.0] * 3, [0.0] * 3,
                {1, 2}, 10.0 ** -153.75)
        y = fill(*args)
        levels = [horner(args[0][i], y[i])[0] for i in (0, 1)]
        assert max(levels) - min(levels) == 5e-324
        assert 1e-12 < level_gap(*args, y) <= gap_bound(*args, y)

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


@pytest.mark.parametrize("solve", [solve_wardrop, solve_social_optimum])
class TestFillInputs:
    @pytest.mark.parametrize("mass", [math.nan, math.inf, -1.0])
    def test_rejects_bad_mass(self, solve, mass):
        with pytest.raises(ValueError, match="mass must be finite and nonnegative"):
            solve(GameInstance.linear(3, 1.0), [1, 2, 3], mass)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_rejects_bad_background(self, solve, bad):
        with pytest.raises(ValidationError, match="background loads must be finite"):
            solve(GameInstance.linear(3, 1.0), [1, 2, 3], 1.0, [0.0, bad, 0.0])

    def test_rejects_server_off_the_instance(self, solve):
        with pytest.raises(ValidationError, match="access references server 3, instance has 2"):
            solve(GameInstance.linear(2, 1.0), [1, 3], 1.0)

    def test_rejects_background_of_wrong_length(self, solve):
        with pytest.raises(ValidationError, match="background has 1 entries, instance has 2"):
            solve(GameInstance.linear(2, 1.0), [1, 2], 1.0, [0.0])


def _linear2():
    return GameInstance.linear(2, 1.0)


def _full2():
    return SchedulerPopulation.full_access(2, 1.0)


#: one factory of (instance, population) per violation code, each breaking only
#: that invariant; the attack and population codes raise when their instance
#: or population is built, so a case is built inside its own test
BLOCKING_CASES = {
    "mass-overflow": lambda: (_linear2(), SchedulerPopulation.for_instance(2, ((2.1, None),))),
    "empty-access": lambda: (_linear2(), SchedulerPopulation(
        2, (1.0,), (frozenset(),), frozenset({1, 2}))),
    "bad-server-index": lambda: (_linear2(), SchedulerPopulation.for_instance(
        2, ((1.0, (1, 3)),))),
    "bad-attack-target": lambda: (GameInstance.linear(2, 1.0, attack_target=5), _full2()),
    "nonfinite-attack-strength": lambda: (GameInstance.linear(2, math.inf), _full2()),
    "negative-attack-strength": lambda: (GameInstance.linear(2, -1.0), _full2()),
    "nonpositive-machine-mass": lambda: (_linear2(), SchedulerPopulation.for_instance(
        2, ((-0.5, None),))),
    "server-count-mismatch": lambda: (_linear2(), SchedulerPopulation.full_access(3, 1.0)),
    "attack-overflow": lambda: (GameInstance(2, ((1e308, 1.0), (1e308, 1.0)), 1, 1e308),
                                _full2()),
}

#: one (field, scenario) per code that only the scenario loader raises
LOADER_CASES = {
    "intercept-mismatch": ("servers.delays[2]",
                           {"servers": {"count": 2, "delays": [[0, 1], [1, 1]]}}),
}


def _codes(function):
    return set(re.findall(r'[" ]([a-z]+(?:-[a-z]+)+): ', inspect.getsource(function)))


class TestValidateForSolve:
    def test_cases_cover_every_code(self):
        # the attack codes of the instance, the mass and access codes of the
        # population, the pairing code of validate and the loader's own codes
        # each have a case
        assert (_codes(GameInstance.__post_init__) | _codes(SchedulerPopulation.__post_init__)
                | _codes(game.validate)) == set(BLOCKING_CASES)
        assert _codes(load_scenario) == set(LOADER_CASES)

    @pytest.mark.parametrize("code", sorted(BLOCKING_CASES))
    def test_every_other_code_blocks_the_solve(self, code):
        with pytest.raises(ValidationError, match=code):
            instance, population = BLOCKING_CASES[code]()
            assert [v.split(":")[0] for v in game.validate(instance, population)] == [code]
            solve_team_equilibrium(instance, population)

    @pytest.mark.parametrize("code", sorted(LOADER_CASES))
    def test_loader_code_names_its_field(self, tmp_path, code):
        field, doc = LOADER_CASES[code]
        path = tmp_path / "case.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=re.escape(f"'{field}': {code}: ")):
            load_scenario(path)

    @pytest.mark.parametrize("code", sorted(BLOCKING_CASES))
    def test_every_other_code_blocks_the_certificate(self, code):
        with pytest.raises(ValidationError, match=code):
            instance, population = BLOCKING_CASES[code]()
            zeros = (0.0,) * instance.n
            profile = DisaggregatedProfile(zeros, (zeros,) * population.machine_count)
            equilibrium_residuals(instance, population, profile)

    @pytest.mark.parametrize("server", [5, 0])
    def test_certificate_rejects_selfish_server_off_the_instance(self, server):
        # server 5 once raised a raw IndexError, and server 0 read server 3's
        # delay and scored (2.0, 0.33)
        inst = GameInstance.linear(3, 1.0)
        profile = DisaggregatedProfile((1.0, 1.0, 0.0), ((1 / 3, 1 / 3, 1 / 3),))
        with pytest.raises(ValidationError, match=f"bad-server-index: .* server {server}"):
            pop = SchedulerPopulation.for_instance(3, ((1.0, None),), (server, 1, 2))
            equilibrium_residuals(inst, pop, profile)

    @pytest.mark.parametrize("instance, population", [
        (GameInstance.linear(3, 1.0), SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2))),
        (GameInstance.linear(2, 1.0), SchedulerPopulation.full_access(2, 1.0)),
    ])
    def test_team_solve_validates_once(self, monkeypatch, instance, population):
        # the certificate once re-ran validate through equilibrium_residuals
        calls = []

        def counting_validate(*args):
            calls.append(args)
            return game.validate(*args)

        monkeypatch.setattr(solvers, "validate", counting_validate)
        assert solve_team_equilibrium(instance, population).converged
        assert len(calls) == 1

    # 1e308 + 1e308 once escaped the block check as a raw OverflowError
    def test_overflowing_block_rejected(self):
        profile = DisaggregatedProfile((1e308, 1e308), ((0.5, 0.5),))
        with pytest.raises(ValidationError, match="selfish block .* is no nonnegative split"):
            equilibrium_residuals(_linear2(), _full2(), profile)
        with pytest.raises(ValidationError, match="selfish block .* is no nonnegative split"):
            solve_team_equilibrium(_linear2(), _full2(), initial=profile)

    def test_intercept_mismatch_alone_still_solves(self):
        # unequal intercepts are the scenario loader's restriction, not the solvers'
        instance = GameInstance(2, ((0.0, 1.0), (1.0, 1.0)), 1, 1.0)
        assert game.validate(instance, _full2()) == []
        assert solve_team_equilibrium(instance, _full2()).converged


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
        pop = SchedulerPopulation.for_instance(2, ((0.25, None),) * 4)
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

    @pytest.mark.parametrize("access, selfish, machines, names", [
        # once clamped into a valid start: converged=True after 67 sweeps
        ((1, 2, 3), (math.nan, -5.0, 1.0), ((1.0, 1.0, -1.0),), "selfish block"),
        ((2, 3), (1.0, 0.5, 0.5), ((0.0, 1.5, -0.5),), "machine 1 block"),
        ((2, 3), (1.0, 0.5, 0.5), ((0.5, 0.25, 0.25),), "machine 1 mass on inaccessible server 1"),
        ((2, 3), (1.0, 1.0, 1.0), ((0.0, 0.5, 0.5),), r"selfish block .* no nonnegative split of mass 2\.0"),
        ((2, 3), (1.0, 1.0), ((0.5, 0.5),), "selfish block has 2 entries, expected 3"),
        ((2, 3), (1.0, 0.5, 0.5), (), "profile has 0 machine blocks, population has 1"),
    ], ids=["nan", "negative", "off-access", "wrong-mass", "wrong-length", "wrong-count"])
    def test_start_gate_names_the_block(self, access, selfish, machines, names):
        # a start must pass the certificate's block checks
        pop = SchedulerPopulation.for_instance(3, ((1.0, access),))
        with pytest.raises(ValidationError, match=names):
            solve_team_equilibrium(GameInstance.linear(3, 1.0), pop,
                                   initial=DisaggregatedProfile(selfish, machines))

    def test_all_zero_start_of_a_light_machine_solves(self):
        # mass 1e-10 is within MASS_TOL of 0, so the gate admits a zero block
        inst = GameInstance.linear(3, 1.0)
        pop = SchedulerPopulation.for_instance(3, ((1e-10, None),))
        rep = solve_team_equilibrium(inst, pop, initial=DisaggregatedProfile(
            (1.0, 1.0, 1.0), ((0.0, 0.0, 0.0),)))
        assert rep.converged
        assert rep.cost == pytest.approx(solve_team_equilibrium(inst, pop).cost, abs=1e-12)

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
        # True once compared as 1.0 and "1e-3" failed with a bare TypeError
        for tolerance in (0.0, -1e-10, math.inf, math.nan, True, "1e-3", None, 10**400):
            with pytest.raises(ValueError, match=re.escape(
                    f"tolerance must be a positive finite number, got {tolerance!r}")):
                SolveSettings(tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [1e-10, 1, Fraction(1, 1000), 5e-324])
    def test_settings_store_tolerance_as_float(self, tolerance):
        stored = SolveSettings(tolerance=tolerance).tolerance
        assert stored == float(tolerance) and type(stored) is float

    @pytest.mark.parametrize("cap", [2.5, math.inf, math.nan, True])
    def test_settings_reject_non_integral_sweep_cap(self, cap):
        # 2.5 once passed and failed in the solve with a raw TypeError
        with pytest.raises(ValueError, match="max_outer_iterations must be an integer"):
            SolveSettings(1e-10, cap)

    def test_settings_reject_zero_sweep_cap(self):
        with pytest.raises(ValueError, match="max_outer_iterations must be at least 1"):
            SolveSettings(max_outer_iterations=0)

    def test_integral_float_sweep_cap_is_an_int(self):
        cap = SolveSettings(1e-10, 5.0).max_outer_iterations
        assert cap == 5 and type(cap) is int

    def test_non_integral_attack_target_blocks_the_solve(self):
        # target 1.5 once attacked no server: cost 1.0 instead of 1.444
        with pytest.raises(ValueError, match="attack target must be an integer"):
            solve_team_equilibrium(GameInstance(3, ((0.0, 1.0),) * 3, 1.5, 2.0),
                                   SchedulerPopulation.full_access(3, 1.0))

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
        with pytest.raises(ValidationError):
            solve_team_equilibrium(inst, SchedulerPopulation.for_instance(2, ((2.5, None),)))


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


    @pytest.mark.parametrize("selfish, machine, who", [
        ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), "selfish"),
        ((1.0, 1.0, 0.0), (0.5, 0.5, 0.5), "machine 1"),
        ((1.0, 1.0, 0.0), (0.1, 0.1, 0.1), "machine 1"),
        ((2.5, -0.5, 0.0), (0.5, 0.5, 0.0), "selfish"),
        ((1.0, 1.0, math.nan), (0.5, 0.5, 0.0), "selfish"),
        ((1.0, 1.0, 0.0), (math.inf, 0.5, 0.0), "machine 1"),
    ], ids=["all-zero", "machine-heavy", "machine-light", "negative", "nan", "inf"])
    def test_rejects_profile_off_the_masses(self, selfish, machine, who):
        # the all-zero profile once read (0.0, 0.0), and both machine blocks a
        # machine residual of 0.0
        inst = GameInstance.linear(3, 1.0)
        pop = SchedulerPopulation.full_access(3, 1.0)
        with pytest.raises(ValidationError, match=f"^{who} block"):
            equilibrium_residuals(inst, pop, DisaggregatedProfile(selfish, (machine,)))


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


def _fig4_draws(seed, count=60):
    """fig4's access beyond identical servers: machines of mass n - 1 on
    {2..n} and the selfish unit on {1, 2}, random slopes, one intercept."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 5)
        c0 = rng.uniform(0.0, 1.0)
        delays = tuple((c0, rng.uniform(0.2, 2.0)) for _ in range(n))
        yield (GameInstance(n, delays, 1, rng.uniform(0.05, 3.0)),
               SchedulerPopulation.for_instance(n, ((n - 1.0, range(2, n + 1)),), (1, 2)))


class TestClaimTwo:
    # the paper's second claim: under fig4's constrained access the machines
    # cannot influence the selfish jobs, so the team does no better than the
    # same jobs all selfish; proven for identical unit slopes, held here for
    # heterogeneous ones
    def test_team_cost_is_fully_selfish_cost(self):
        for instance, population in _fig4_draws(12):
            team = solve_team_equilibrium(instance, population)
            selfish = solve_fully_selfish(instance, population)
            assert team.converged and selfish.converged
            assert abs(team.cost - selfish.cost) <= 1e-8, (instance, team.cost, selfish.cost)


class TestAbandonedTail:
    # the selfish response leaves the attacked server empty; the blend drops
    # the tail once it is no more than _used_eps, which the selfish score
    # already counts as unused, instead of charging it the attack
    def test_constrained_strong_attack_leaves_server_one_empty(self):
        inst = GameInstance.linear(3, 1e12)
        pop = SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2))
        rep = solve_team_equilibrium(inst, pop)
        assert rep.converged
        assert rep.profile.selfish[0] == 0.0
        assert rep.aggregate.loads[0] == 0.0
        assert rep.cost == pytest.approx(1.5, abs=1e-11)


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
    scenario = load_scenario(GOLDEN / "multi_group.json")
    return scenario.instance, scenario.population


def reference_selfish_residual(instance, population, profile):
    """Worst delay gap of any class, from the delays alone."""
    blocks = (profile.selfish,) + profile.per_machine
    members = zip((population.selfish_access,) + population.machine_access,
                  (population.selfish_mass,) + population.machine_masses, blocks)
    loads = [math.fsum(b[i] for b in blocks) for i in range(instance.n)]
    delays = [instance.delays[i](loads[i]) + instance.attack_bonus(i + 1)
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

    # machines 1 and 4 of the golden share access {1, 2}, so the solve
    # merges them into one block; the certificate still scores each class
    @pytest.mark.parametrize("instance, population",
                             _multi_group_instances() + [_golden_multi_group()])
    def test_fully_selfish_residual_matches_reference(self, instance, population):
        rep = solve_fully_selfish(instance, population)
        assert rep.converged
        assert rep.selfish_residual == reference_selfish_residual(instance, population, rep.profile)
        assert rep.machine_residual == 0.0

    def test_negative_rounding_selfish_mass_solves(self):
        # the machines leave a selfish mass of 3 - 3.0000000000000004 < 0,
        # which the population accepts; that block takes no part in either solve
        inst = GameInstance.linear(3, 1.0)
        pop = SchedulerPopulation.for_instance(3, ((2.0000000000000004, None), (1.0, (2, 3))))
        assert pop.selfish_mass < 0.0
        team = solve_team_equilibrium(inst, pop)
        assert (team.selfish_residual, team.machine_residual) == (0.0, 0.0)
        selfish = solve_fully_selfish(inst, pop)
        assert (selfish.selfish_residual, selfish.machine_residual) == (2.910360841212878e-11, 0.0)
        assert team.converged and selfish.converged


class TestOneBestResponse:
    # the sweep and the certificate take every block's best response from
    # solvers._residual on the instance's cached delay and marginal-cost
    # tables; neither goes through a public fill and its argument checks
    CONSTRAINED = SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2))
    FULL = (GameInstance.linear(3, 1.0), SchedulerPopulation.for_instance(3, ((0.5, None),) * 3))

    @staticmethod
    def counting(monkeypatch, name):
        calls = []
        original = getattr(solvers, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solvers, name, counted)
        return calls

    @staticmethod
    def tables(calls, instance):
        """Which of the instance's cached tables each counted fill read."""
        named = {id(instance.delay_coefficients): "delay",
                 id(instance.marginal_coefficients): "marginal"}
        return {named.get(id(args[4]), "other") for args in calls}

    def test_constrained_team_solve_checks_no_fill(self, monkeypatch):
        # a fresh instance: a table the solve did not cache is another object
        instance = GameInstance.linear(3, 1.0)
        checks = self.counting(monkeypatch, "_check_fill_args")
        fills = self.counting(monkeypatch, "_fill_common_level")
        assert solve_team_equilibrium(instance, self.CONSTRAINED).converged
        assert len(checks) == 0
        assert self.tables(fills, instance) == {"delay", "marginal"}

    def test_certificate_checks_no_fill(self, monkeypatch):
        rep = solve_team_equilibrium(*self.FULL)
        assert rep.converged
        instance = GameInstance.linear(3, 1.0)
        checks = self.counting(monkeypatch, "_check_fill_args")
        fills = self.counting(monkeypatch, "_fill_common_level")
        equilibrium_residuals(instance, self.FULL[1], rep.profile)
        assert len(checks) == 0
        assert self.tables(fills, instance) == {"delay", "marginal"}

    def test_machine_residual_is_the_public_fill_saving(self):
        # off equilibrium, each machine scores what its public social fill
        # against the other blocks saves, bit for bit
        inst, pop = self.FULL
        selfish = (0.5, 0.5, 0.5)
        machine = (0.5, 0.0, 0.0)
        profile = DisaggregatedProfile(selfish, (machine,) * 3)
        loads = profile.aggregate_loads()
        bg = [x - b for x, b in zip(loads, machine)]
        best = solve_social_optimum(inst, {1, 2, 3}, 0.5, bg)
        saving = inst.cost(loads) - inst.cost([b + r for b, r in zip(bg, best)])
        assert saving > 0.0
        assert equilibrium_residuals(inst, pop, profile)[1] == saving


def _random_split(rng, n, access, mass):
    """A random nonnegative split of ``mass`` over the servers of ``access``."""
    weights = [rng.random() + 0.1 if i in access else 0.0 for i in range(1, n + 1)]
    total = math.fsum(weights)
    return tuple(max(0.0, mass) * w / total for w in weights)


def _lazy_scoring_cases():
    """Seeded multi-group solves: heterogeneous linear, one common degree
    (2 or 3) and mixed degrees, each also from a random ``initial`` start."""
    rng = random.Random(34)
    cases = []
    for family in ("linear", "common", "mixed"):
        for _ in range(4):
            n = rng.randint(2, 4)
            degree = rng.choice((2, 3))
            delays = []
            for _ in range(n):
                b, c = rng.uniform(0.0, 1.0), rng.uniform(0.2, 2.0)
                if family == "linear":
                    delays.append((b, c))
                elif family == "common":
                    delays.append((b,) + (0.0,) * (degree - 1) + (c,))
                else:
                    delays.append((b, c) + tuple(rng.uniform(0.0, 1.0)
                                                 for _ in range(rng.randint(0, 2))))
            subsets = [set(x) for size in range(1, n + 1)
                       for x in itertools.combinations(range(1, n + 1), size)]
            machines = tuple((rng.uniform(0.1, 0.8), rng.choice(subsets))
                             for _ in range(rng.randint(1, 3)))
            instance = GameInstance(n, delays, rng.randint(1, n), rng.uniform(0.05, 3.0))
            population = SchedulerPopulation.for_instance(n, machines, rng.choice(subsets))
            initial = DisaggregatedProfile(
                _random_split(rng, n, population.selfish_access, population.selfish_mass),
                tuple(_random_split(rng, n, access, mass) for access, mass in
                      zip(population.machine_access, population.machine_masses)))
            cases.append((instance, population, initial))
    return cases + [(*_golden_multi_group(), None)]


def _overflow_draws():
    """60 seeded instances whose cost with every server at load ``2n``
    overflows: n from 2 to 4, linear delays with intercepts in [0, 1] and
    slopes log-uniform in [1e150, 8e307], an attack of 1e-2 to 1.7e308
    (log-uniform) on a random server, and about half one full-access machine
    of mass 0 to 2, the rest 1-3 machine groups on random access sets
    holding 20-90% of the mass. Draws whose cost at ``2n`` is finite are
    skipped."""
    rng = random.Random(7)
    draws = []
    while len(draws) < 60:
        n = rng.randint(2, 4)
        delays = [(rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(150.0, 307.9)) for _ in range(n)]
        alpha = min(10.0 ** rng.uniform(-2.0, 308.0), 1.7e308)
        instance = GameInstance(n, delays, rng.randint(1, n), alpha)
        servers = range(1, n + 1)
        if rng.random() < 0.5:
            population = SchedulerPopulation.full_access(n, rng.uniform(0.0, 2.0))
        else:
            groups = [tuple(sorted(rng.sample(servers, rng.randint(1, n))))
                      for _ in range(rng.randint(1, 3))]
            mass = rng.uniform(0.2, 0.9) * n
            weights = [rng.random() + 0.2 for _ in groups]
            machines = [(mass * w / sum(weights), access) for w, access in zip(weights, groups)]
            population = SchedulerPopulation.for_instance(
                n, machines, sorted(rng.sample(servers, rng.randint(1, n))))
        if not math.isfinite(instance.cost([2.0 * n] * n)):
            draws.append((instance, population))
    return draws


def _report_digest(reports) -> str:
    """sha256 over the reprs of ``reports``, one line each."""
    return hashlib.sha256(b"".join(repr(report).encode() + b"\n" for report in reports)).hexdigest()


def _overflowing(n):
    """Slopes 8e307 and 4e307 and an attack of 1.7e308 on server 1: the machine
    cost overflows at the even-spread start."""
    return GameInstance(n, [(0.0, 8e307)] + [(0.0, 4e307)] * (n - 1), 1, 1.7e308)


class TestLazyScoring:
    """One scoring rule: a sweep scores its groups in order until one misses
    the tolerance and only fills the rest, on every instance. A NaN that a
    sweep scores ends the solve. The reports are those of scoring every
    group, bit for bit: ``golden/full_scoring_reports.sha256`` holds, one
    line per case of :func:`_lazy_scoring_cases`, the digest of the reports
    of a loop that scored every group, and ``golden/overflow_reports.sha256``
    that of the :func:`_overflow_draws`, on which that loop also scored
    every group."""

    @pytest.mark.parametrize("r, sweeps", [(0.5, 49), (1.0, 50)])
    def test_overflowing_start_converges(self, r, sweeps):
        # the even-spread start scores the machines inf - inf, but the
        # selfish score misses first, so no sweep scores that NaN
        inst = _overflowing(2)
        pop = SchedulerPopulation.full_access(2, r)
        rep = solve_team_equilibrium(inst, pop)
        assert rep.converged and rep.iterations == sweeps and rep.cost == 8e307
        assert equilibrium_residuals(inst, pop, rep.profile) == (0.0, 0.0)

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_overflowing_costs_reach_the_nan_exit(self, r):
        # three servers: the machine cost overflows on every split, so once
        # the selfish score passes, the machines score NaN and end the solve
        rep = solve_team_equilibrium(_overflowing(3), SchedulerPopulation.full_access(3, r))
        assert not rep.converged and rep.iterations == 40 and rep.cost == math.inf
        assert rep.selfish_residual == 0.0 and math.isnan(rep.machine_residual)

    def test_confined_overflow_runs_to_the_cap(self):
        # a machine confined to a server whose cost overflows scores NaN, but
        # the selfish gap at delays near 1e244 never meets the tolerance, so
        # no sweep scores the machine: the solve runs to the sweep cap
        inst = GameInstance(4, [(0.32579655002885244, 9.839068648967185e+244),
                                (0.815068753777836, 1.8855427758698147e+247),
                                (0.20972231999270852, 1.8384308876318296e+307),
                                (0.3431627426169167, 3.4274930547802418e+252)],
                            2, 329047667108227.94)
        pop = SchedulerPopulation.for_instance(4, ((3.2656298935586117, (3,)),), (1, 3, 4))
        rep = solve_team_equilibrium(inst, pop, SolveSettings(max_outer_iterations=200))
        assert not rep.converged and rep.iterations == 200 and rep.cost == math.inf
        assert rep.selfish_residual > 1e200 and math.isnan(rep.machine_residual)

    @pytest.mark.parametrize("case", range(13))
    def test_lazy_reports_match_full_scoring(self, case):
        instance, population, initial = _lazy_scoring_cases()[case]
        runs = [lambda: solve_fully_selfish(instance, population),
                lambda: solve_team_equilibrium(instance, population)]
        if initial is not None:
            runs.append(lambda: solve_team_equilibrium(instance, population, initial=initial))
        expected = (GOLDEN / "full_scoring_reports.sha256").read_text().split()[case]
        assert _report_digest(run() for run in runs) == expected

    def test_overflow_reports_match_full_scoring(self):
        settings = SolveSettings(max_outer_iterations=200)
        reports = (solve(instance, population, settings)
                   for instance, population in _overflow_draws()
                   for solve in (solve_team_equilibrium, solve_fully_selfish))
        expected = (GOLDEN / "overflow_reports.sha256").read_text().strip()
        assert _report_digest(reports) == expected

    @staticmethod
    def _count_residuals(monkeypatch):
        """The list that each later ``solvers._residual`` call appends its arguments to."""
        calls = []
        original = solvers._residual

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solvers, "_residual", counted)
        return calls

    def test_lazy_sweeps_skip_scores(self, monkeypatch):
        instance, population = _golden_multi_group()
        calls = self._count_residuals(monkeypatch)
        report = solve_team_equilibrium(instance, population)
        groups, _ = solvers._group_by_access(solvers._members(population, True))
        members = 1 + len(population.machine_masses)
        # scoring every group of every sweep, then the certificate
        assert len(calls) < len(groups) * report.iterations + members

    @pytest.mark.parametrize("solve, machine_mass", [
        (solve_team_equilibrium, 3.0),  # machines only: one social group
        (solve_fully_selfish, 1.0),  # every class selfish on one access set
    ])
    def test_lone_group_scores_only_its_certificate(self, monkeypatch, solve, machine_mass):
        # one access group answers the empty background at once: its response
        # is filled, not scored, and the certificate scores each member once
        instance = GameInstance.linear(3, 1.0)
        population = SchedulerPopulation.full_access(3, machine_mass)
        calls = self._count_residuals(monkeypatch)
        report = solve(instance, population)
        assert report.converged and report.iterations == 1
        assert len(calls) == 1 + len(population.machine_masses)


class TestBookkeeping:
    """The sweep's load sums and rescale give the per-element rules bit for
    bit; repr keeps signed zeros, inf and NaN apart."""

    LOAD = st.floats(0.0, 1e300) | st.just(-0.0)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_loads_match_per_server_fsum(self, data):
        n = data.draw(st.integers(1, 10))
        blocks = data.draw(st.lists(st.lists(self.LOAD, min_size=n, max_size=n),
                                    min_size=1, max_size=4))
        expected = [math.fsum(b[i] for b in blocks) for i in range(n)]
        assert repr(solvers._loads(blocks)) == repr(expected)

    @given(block=st.lists(LOAD, min_size=1, max_size=10),
           mass=st.floats(0.0, 1e300) | st.just(-0.0))
    @settings(max_examples=200, deadline=None)
    def test_renorm_matches_per_element_scale(self, block, mass):
        s = math.fsum(block)
        expected = ([0.0] * len(block) if mass <= 0.0 or s <= 0.0
                    else [v * (mass / s) for v in block])
        assert repr(solvers._renorm(block, mass)) == repr(expected)


def _isnan_max_worst(residuals):
    """The residual maximum as once written: ``math.isnan``, then ``max``."""
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            return math.nan
        worst = max(worst, r)
    return worst


class TestDirectEvaluation:
    """The hot paths take delay values from ``game.horner`` on the instance's
    coefficient tables, bit for bit what ``DelayFunction.__call__`` gives;
    repr keeps signed zeros, inf and NaN apart."""

    VALUE = st.floats(0.0, 4.0) | st.floats(0.0, 1e300)
    LOAD = VALUE | st.just(-0.0)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_selfish_score_matches_per_server_delays(self, data):
        n = data.draw(st.integers(1, 5))
        delays = tuple(data.draw(st.lists(self.VALUE, min_size=1, max_size=4))
                       for _ in range(n))  # degrees 0 to 3
        strength = data.draw(self.VALUE)
        loads = data.draw(st.lists(self.LOAD, min_size=n, max_size=n))
        block = data.draw(st.lists(self.LOAD, min_size=n, max_size=n))
        servers = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1))))
        mass = data.draw(st.floats(1e-9, 10.0))
        for target in range(1, n + 1):
            instance = GameInstance(n, delays, target, strength)
            reference = attacked_delays(instance, loads)
            best = min(reference[i - 1] for i in servers)
            eps = solvers._used_eps(mass)
            expected = _isnan_max_worst(d - best for d, b in zip(reference, block) if b > eps)
            score, _ = solvers._residual(instance, (servers, mass, False), block, loads)
            assert repr(score) == repr(expected)

    @staticmethod
    def _social_score_and_reference(instance, servers, mass, block, loads):
        score, response = solvers._residual(instance, (servers, mass, True), block, loads)
        bg = [max(0.0, x - b) for x, b in zip(loads, block)]
        return score, instance.cost(loads) - instance.cost([b + r for b, r in zip(bg, response)])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_social_score_matches_two_costs(self, data):
        n = data.draw(st.integers(1, 5))
        delays = tuple(data.draw(st.lists(self.VALUE, min_size=1, max_size=4))
                       for _ in range(n))  # degrees 0 to 3
        strength = data.draw(self.VALUE)
        loads = data.draw(st.lists(self.LOAD, min_size=n, max_size=n))
        block = data.draw(st.lists(self.LOAD, min_size=n, max_size=n))
        servers = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1))))
        mass = data.draw(st.floats(1e-9, 10.0))
        for target in range(1, n + 1):
            instance = GameInstance(n, delays, target, strength)
            score, expected = self._social_score_and_reference(instance, servers, mass,
                                                               block, loads)
            assert repr(score) == repr(expected)

    def test_social_score_keeps_inf_minus_inf(self):
        # a cubic at 1e300 overflows both costs: inf - inf is NaN on both sides
        instance = GameInstance(2, ((0.0, 0.0, 0.0, 1.0), (0.0, 1.0)), 1, 0.0)
        score, expected = self._social_score_and_reference(
            instance, (1, 2), 1.0, [0.5, 0.0], [1e300, 1.0])
        assert math.isnan(expected) and repr(score) == repr(expected)

    @pytest.mark.parametrize("residuals", [
        [], [math.nan], [math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan],
        [math.inf], [1.0, math.inf, 2.0], [math.inf, math.nan], [-math.inf],
        [-1.0, -2.0], [-0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, 5e-324, -0.0],
    ])
    def test_worst_matches_isnan_max_loop(self, residuals):
        assert repr(solvers._worst(iter(residuals))) == repr(_isnan_max_worst(residuals))

    @given(st.lists(st.floats() | st.just(-0.0)))
    @settings(max_examples=300, deadline=None)
    def test_worst_matches_isnan_max_loop_on_any_floats(self, residuals):
        assert repr(solvers._worst(iter(residuals))) == repr(_isnan_max_worst(residuals))


class TestHotPathsSkipDelayCall:
    """No solve, certificate or lattice search goes through
    ``DelayFunction.__call__``: each reads the instance's coefficient tables
    and calls ``game.horner`` itself."""

    CASES = {
        "linear": (GameInstance.linear(3, 1.0),
                   SchedulerPopulation.for_instance(3, ((1.0, (2, 3)), (0.5, None)), (1, 2))),
        # the team_poly draws: quadratic and cubic servers, several access groups
        "poly": (GameInstance(3, ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 2.0), (0.0, 0.0, 0.5)), 1, 0.7),
                 SchedulerPopulation.for_instance(3, ((1.0, (1, 2, 3)), (0.5, (1, 3))), (1, 2))),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_no_delay_call(self, monkeypatch, case):
        instance, population = self.CASES[case]
        calls = []
        original = game.DelayFunction.__call__

        def counted(self, x):
            calls.append(x)
            return original(self, x)

        monkeypatch.setattr(game.DelayFunction, "__call__", counted)
        team = solve_team_equilibrium(instance, population)
        selfish = solve_fully_selfish(instance, population)
        assert team.converged and selfish.converged
        equilibrium_residuals(instance, population, team.profile)
        grid_search_optimum(instance, 1e-2)
        assert calls == []
        # the counter sees a call that does go through the method
        instance.delays[0](1.0)
        assert calls == [1.0]

    @pytest.mark.parametrize("case", CASES)
    def test_one_cost_call_per_solve(self, monkeypatch, case):
        # the block scores sum their costs inline; only the report calls cost
        instance, population = self.CASES[case]
        calls = []
        original = game.GameInstance.cost

        def counted(self, loads):
            calls.append(tuple(loads))
            return original(self, loads)

        monkeypatch.setattr(game.GameInstance, "cost", counted)
        for solve in (solve_fully_selfish, solve_team_equilibrium):
            calls.clear()
            report = solve(instance, population)
            assert report.converged
            assert calls == [report.aggregate.loads]
        calls.clear()
        equilibrium_residuals(instance, population, report.profile)  # the team profile
        assert calls == []


def _dict_walk(n, mass, starts, slopes):
    """The breakpoint walk as once written, on dicts keyed by server."""
    order = sorted(starts, key=starts.__getitem__)
    top = starts[order[0]]
    below = 0.0
    inv_slope = 0.0
    entered = 0
    flat = []
    for i in order:
        lift = below + (starts[i] - top) * inv_slope if entered else 0.0
        if lift >= mass:
            break
        below, top = lift, starts[i]
        if slopes[i] == 0.0:
            flat = [j for j in order[entered:] if slopes[j] == 0.0 and starts[j] == top]
            break
        inv_slope += 1.0 / slopes[i]
        entered += 1
    rest = mass - below
    y = [0.0] * n
    if flat:
        share = rest / len(flat)
        for i in flat:
            y[i - 1] = share
        rest = 0.0
    for i in order[:entered]:
        y[i - 1] = (top - starts[i]) / slopes[i] + rest / (inv_slope * slopes[i])
    return y


def _dict_fill(n, servers, mass, background, level_coeffs, bonuses):
    """The level fill as once written: dict starts and slopes, the tangent
    point summed afresh for the secant, and the underflow fallback on the
    first least start in server order."""
    if mass <= 0.0:
        return [0.0] * n
    y = [0.0] * n
    last_move = math.inf
    for _ in range(solvers._FILL_STEPS):
        curved = False
        starts = {}
        slopes = {}
        for i in servers:
            coeffs = level_coeffs[i - 1]
            at = 0.0
            if len(coeffs) > 2 and any(coeffs[2:]):
                curved = True
                at = y[i - 1]
            value, slope = horner(coeffs, background[i - 1] + at)
            if not slope >= solvers._FLAT_SLOPE:
                slope = (horner(coeffs, background[i - 1] + at + mass)[0] - value) / mass
            if not (slope >= solvers._FLAT_SLOPE and slope * mass > 0.0):
                slope = 0.0
            start = value - slope * at + bonuses[i - 1]
            if not abs(start) < math.inf:
                start, slope = math.inf, 0.0
            starts[i] = start
            slopes[i] = slope
        step = _dict_walk(n, mass, starts, slopes)
        if not curved:
            y = step
            break
        move = max(abs(u - v) for u, v in zip(step, y))
        y = step
        if move == 0.0 or (move <= solvers._SETTLED * mass and not move < last_move):
            break
        last_move = move
    total = math.fsum(y)
    if total == 0.0:
        y[min(starts, key=starts.__getitem__) - 1] = total = mass
    scale = mass / total
    return [v * scale for v in y]


def _outcome(function, *args):
    """repr of the result, or the name of the exception raised; repr keeps
    signed zeros, inf and NaN apart."""
    try:
        return repr(function(*args))
    except ArithmeticError as error:
        return type(error).__name__


class TestListWalk:
    """The walk and the fill on parallel lists in access order give the
    dict-based walk and fill bit for bit."""

    # a small pool of start levels makes ties common
    START = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + 2.0 ** -52, 3.0, math.inf, -math.inf,
                             5e-324]) | st.floats(-4.0, 4.0)
    SLOPE = st.sampled_from([0.0, 5e-324, 1e-310, solvers._FLAT_SLOPE, 1.0, 2.0, 3.0]) \
        | st.floats(1e-300, 1e300)
    MASS = st.sampled_from([5e-324, 1e-323, 2.2250738585072014e-308]) \
        | st.floats(1e-320, 1e-300) | st.floats(1e-9, 10.0)

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_walk_matches_dict_walk(self, data):
        n = data.draw(st.integers(1, 7))
        # any access subset, in ascending server order as every caller passes it
        servers = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
        starts = [data.draw(self.START) for _ in servers]
        slopes = [data.draw(self.SLOPE) for _ in servers]
        mass = data.draw(self.MASS)
        assert (_outcome(solvers._walk, n, mass, servers, starts, slopes)
                == _outcome(_dict_walk, n, mass, dict(zip(servers, starts)),
                            dict(zip(servers, slopes))))

    @pytest.mark.parametrize("starts, slopes", [
        # three tied lines: the sum of inverse slopes runs in server order,
        # and 1/0.1 + 1/0.3 + 1/11 in reverse order moves the last bit
        ([0.0, 0.0, 0.0], [0.1, 0.3, 11.0]),
        ([2.0, 2.0, 2.0], [11.0, 0.3, 0.1]),
        # a flat line tied with sloped ones
        ([1.0, 1.0, 1.0], [0.3, 0.0, 11.0]),
    ])
    def test_ties_enter_in_server_order(self, starts, slopes):
        servers = [2, 3, 5]
        for mass in (5e-324, 0.3, 1.0, 4.0):
            y = solvers._walk(6, mass, servers, starts, slopes)
            assert repr(y) == repr(_dict_walk(6, mass, dict(zip(servers, starts)),
                                              dict(zip(servers, slopes))))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_fill_matches_dict_fill(self, data):
        n = data.draw(st.integers(1, 5))
        # identical levels and backgrounds tie the start levels
        shared = data.draw(st.booleans())
        coeff = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1e3)
        level = st.lists(coeff, min_size=1, max_size=4).map(tuple)
        first = data.draw(level)
        levels = [first if shared else data.draw(level) for _ in range(n)]
        value = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 3.0)
        background = [0.0 if shared else data.draw(value) for _ in range(n)]
        bonuses = [0.0 if shared else data.draw(value) for _ in range(n)]
        servers = sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
        mass = data.draw(self.MASS)
        args = (n, servers, mass, background, levels, bonuses)
        assert _outcome(solvers._fill_common_level, *args) == _outcome(_dict_fill, *args)

    @pytest.mark.parametrize("levels, background, servers, expected", [
        # every share of the smallest float underflows; of the tied least
        # starts, the first in server order takes the whole mass
        ([(1.0, 1.0), (0.0, 1.0), (0.0, 3.0), (0.0, 1.0)], [0.0] * 4, [1, 2, 3, 4], 2),
        ([(1.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.0, 1.0)], [0.0] * 4, [3, 4], 3),
        ([(0.0, 1.0)] * 3, [0.0, 0.0, 0.0], [1, 3], 1),
        # the tie is between curved levels, whose fill takes Newton steps
        ([(0.5, 1.0), (0.0, 1.0, 1.0), (0.0, 1.0, 1.0)], [0.0] * 3, [1, 2, 3], 2),
    ])
    def test_underflow_fallback_matches_dict_fill(self, levels, background, servers, expected):
        n = len(levels)
        args = (n, servers, 5e-324, background, levels, [0.0] * n)
        y = solvers._fill_common_level(*args)
        assert repr(y) == repr(_dict_fill(*args))
        assert y[expected - 1] == 5e-324 and math.fsum(y) == 5e-324


def _level_tables(instance, social):
    """The fill arguments a block reads: its level coefficients and the attack offsets."""
    return (instance.marginal_coefficients if social else instance.delay_coefficients,
            instance.attack_offsets)


class TestBackgroundClamp:
    """``_residual`` fills atop ``x - b if x > b else 0.0``, bit for bit the
    fill atop ``max(0.0, x - b)``."""

    LOAD = (st.sampled_from([0.0, -0.0, 5e-324, 1e-323, 1.0, 2.0, math.inf])
            | st.floats(0.0, 4.0))

    @classmethod
    def _near(cls, data, x):
        """A block load at, one subnormal or one ulp around, or anywhere
        below or above the aggregate load ``x``."""
        return data.draw(st.sampled_from([x, x - 5e-324, x + 5e-324, math.nextafter(x, -math.inf),
                                          math.nextafter(x, math.inf), -0.0, math.inf])
                         | cls.LOAD)

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_response_matches_max_clamp(self, data):
        n = data.draw(st.integers(1, 4))
        delays = tuple(data.draw(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4))
                       for _ in range(n))
        instance = GameInstance(n, delays, data.draw(st.integers(1, n)),
                                data.draw(st.floats(0.0, 4.0)))
        loads = [data.draw(self.LOAD) for _ in range(n)]
        block = [self._near(data, x) for x in loads]
        servers = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1))))
        mass = data.draw(st.floats(1e-9, 10.0))
        background = [max(0.0, x - b) for x, b in zip(loads, block)]
        for social in (False, True):
            response = _outcome(lambda: solvers._residual(instance, (servers, mass, social),
                                                          block, loads)[1])
            expected = _outcome(solvers._fill_common_level, n, servers, mass, background,
                                *_level_tables(instance, social))
            assert response == expected

    @pytest.mark.parametrize("x, b", [
        (1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0),
        (5e-324, 0.0), (0.0, 5e-324), (1e-323, 5e-324), (math.inf, 1.0), (math.inf, math.inf),
        (1.0, math.inf),
    ])
    def test_clamp_cases(self, x, b):
        # the second server's load sits at x with the block holding b of it
        instance = GameInstance(2, ((0.0, 1.0, 1.0), (0.5, 2.0)), 1, 0.5)
        for social in (False, True):
            _, response = solvers._residual(instance, ((1, 2), 1.5, social), [0.25, b],
                                            [0.25, x])
            expected = solvers._fill_common_level(2, (1, 2), 1.5, [0.0, max(0.0, x - b)],
                                                  *_level_tables(instance, social))
            assert repr(response) == repr(expected)
