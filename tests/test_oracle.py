import itertools
import math
import operator
import random
import sys
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teamsched import (
    CapacityError,
    DelayFunction,
    GameInstance,
    LoadProfile,
    SchedulerPopulation,
    SolveSettings,
    constrained_team_cost,
    grid_search_optimum,
    monotonicity_sweep,
    optimal_cost_linear,
    oracle,
    solve_team_equilibrium,
    system_cost,
    team_cost_linear,
    validate,
    verify_security,
    verify_strong_security,
    verify_weak_security,
)

class TestGridSearch:
    def test_two_servers_attacked(self):
        inst = GameInstance.linear(2, 1.0)
        profile, cost = grid_search_optimum(inst, 1e-3)
        assert abs(cost - 1.4375) <= 1e-3
        assert profile.loads == pytest.approx((0.75, 1.25), abs=2e-3)

    def test_two_servers_calm_exact(self):
        inst = GameInstance.linear(2, 0.0)
        profile, cost = grid_search_optimum(inst, 1e-3)
        assert profile.loads == (1.0, 1.0)
        assert cost == 1.0

    def test_three_servers_attacked(self):
        # closed-form optimum at n=3, alpha=1 is 23/18
        inst = GameInstance.linear(3, 1.0)
        _, cost = grid_search_optimum(inst, 1e-3)
        assert abs(cost - 23 / 18) <= 1e-3

    def test_lattice_cost_never_below_true_optimum(self):
        for alpha in (0.0, 0.5, 1.0, 2.0, 3.0):
            inst = GameInstance.linear(3, alpha)
            _, cost = grid_search_optimum(inst, 1e-2)
            true_cost = team_cost_linear(3, 3.0, alpha)
            assert cost >= true_cost - 1e-12
            assert cost <= true_cost + 5e-2  # Lipschitz * resolution slack

    def test_capacity_guards(self):
        # the guard counts the slopes sorted, n * steps: 31 * 31,000 at 1e-3
        # and 10 * 100,000 at 1e-4 run, 32 * 32,000 and 11 * 110,000 do not
        for n, resolution in ((31, 1e-3), (10, 1e-4)):
            _, cost = grid_search_optimum(GameInstance.linear(n, 1.0, n), resolution)
            assert abs(cost - optimal_cost_linear(n, 1.0)) <= 1e-3
        for n, resolution in ((32, 1e-3), (11, 1e-4)):
            slopes = n * round(n / resolution)
            with pytest.raises(CapacityError, match=f"sorts {slopes} slopes"):
                grid_search_optimum(GameInstance.linear(n, 1.0), resolution)
        with pytest.raises(ValueError):
            grid_search_optimum(GameInstance.linear(2, 1.0), 1e-5)

    @pytest.mark.parametrize("resolution", [5.0, math.inf, math.nan, -math.inf])
    def test_rejects_resolution_without_lattice_steps(self, resolution):
        # 5.0 rounds 2 / 5 to zero steps; inf and NaN are no resolution at all
        with pytest.raises(ValueError, match="resolution"):
            grid_search_optimum(GameInstance.linear(2, 1.0), resolution)

    def test_four_servers_at_verify_resolution(self):
        # 16,000 slopes, although the lattice has about 1.07e10 points
        _, cost = grid_search_optimum(GameInstance.linear(4, 1.0), 1e-3)
        assert abs(cost - team_cost_linear(4, 4.0, 1.0)) <= 1e-3

    def test_six_servers_at_verify_resolution(self):
        _, cost = grid_search_optimum(GameInstance.linear(6, 1.5), 1e-3)
        assert abs(cost - optimal_cost_linear(6, 1.5)) <= 1e-3

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rejects_infinite_attack(self, n):
        with pytest.raises(ValueError, match="attack strength"):
            grid_search_optimum(GameInstance.linear(n, math.inf), 0.1)

    @pytest.mark.parametrize("strength", [-0.5, -1e-300])
    def test_rejects_negative_attack(self, strength):
        with pytest.raises(ValueError, match="attack strength"):
            grid_search_optimum(GameInstance.linear(3, strength), 0.1)

    @pytest.mark.parametrize("target", [1, 2, 3])
    def test_rejects_attack_overflowing_the_attacked_delay(self, target):
        # 0 * (tau(0) + alpha) = 0 * inf would put a NaN at load 0 of the attacked table
        inst = GameInstance(3, (DelayFunction((sys.float_info.max,)),) * 3, target, 1e308)
        with pytest.raises(ValueError, match="overflows the attacked server's delay"):
            grid_search_optimum(inst, 0.1)

    def test_negative_zero_attack_is_no_attack(self):
        calm = grid_search_optimum(GameInstance.linear(3, 0.0), 0.01)
        assert grid_search_optimum(GameInstance.linear(3, -0.0), 0.01) == calm

    @pytest.mark.parametrize("target", [0, 1.5, 5])
    def test_rejects_attack_target_off_the_servers(self, target):
        # target 5 on three servers once gave the unattacked optimum
        with pytest.raises(ValueError, match="attack target"):
            grid_search_optimum(GameInstance.linear(3, 1.0, attack_target=target), 0.1)

    def test_integral_float_attack_target(self):
        assert grid_search_optimum(GameInstance.linear(3, 1.0, attack_target=2.0), 0.1) == \
            grid_search_optimum(GameInstance.linear(3, 1.0, attack_target=2), 0.1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_score_infinite_gives_first_point(self, n):
        # every lattice point overflows: x * 1e308 summed over loads adding to
        # n. The rounded tables wobble (not exactly convex) and go +inf from
        # x = 1.8 on; the winner is the first point the slope sort reaches
        inst = GameInstance(n, (DelayFunction((1e308,)),) * n, 1, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile, cost = grid_search_optimum(inst, 0.1)
        assert profile.loads == {2: (0.9, 1.1),
                                 3: (0.9, 0.9, 1.2000000000000002),
                                 4: (0.9, 0.9, 0.9, 1.3),
                                 5: (0.9, 0.9, 0.9, 1.0, 1.3)}[n]
        assert cost == math.inf

    def test_four_servers_coarse(self):
        inst = GameInstance.linear(4, 1.0)
        _, cost = grid_search_optimum(inst, 0.05)
        assert abs(cost - team_cost_linear(4, 4.0, 1.0)) <= 0.05

    def test_deterministic(self):
        inst = GameInstance.linear(3, 1.3)
        first = grid_search_optimum(inst, 1e-2)
        second = grid_search_optimum(inst, 1e-2)
        assert first[0].loads == second[0].loads
        assert first[1] == second[1]


@np.errstate(over="ignore", invalid="ignore")  # steep cases overflow on purpose
def _tables(instance, steps):
    """x * attacked delay of each server on the lattice axis, as floats."""
    step = instance.n / steps
    axis = np.arange(steps + 1, dtype=np.float64) * step
    tables = []
    for i, f in enumerate(instance.delays, start=1):
        delay = np.polynomial.polynomial.polyval(axis, np.asarray(f.coefficients, dtype=np.float64))
        tables.append(axis * (delay + instance.attack_bonus(i)))
    return step, tables


#: one search's tables as exact integers, every entry scaled by one power of
#: two, and ``inf``, the integer that stands for +inf: larger than any finite
#: point's sum
Lattice = namedtuple("Lattice", "steps step exact inf")


def _exact_lattice(instance, resolution):
    steps = round(instance.n / resolution)
    step, tables = _tables(instance, steps)
    ratios = [[v.as_integer_ratio() if math.isfinite(v) else None for v in table.tolist()]
              for table in tables]
    scale = max(r[1] for ratio in ratios for r in ratio if r is not None)
    exact = [[None if r is None else r[0] * (scale // r[1]) for r in ratio] for ratio in ratios]
    inf = len(tables) * max(v for table in exact for v in table if v is not None) + 1
    exact = [[inf if v is None else v for v in table] for table in exact]
    return Lattice(steps, step, exact, inf)


def _wobble(table, inf):
    """How far the exact table, up to its first infinite entry, rises above
    the table rebuilt from the same slopes in ascending order: 0 exactly
    where the table is exactly convex."""
    finite = table[:table.index(inf)] if inf in table else table
    slopes = [b - a for a, b in zip(finite, finite[1:])]
    rebuilt = itertools.accumulate(sorted(slopes), initial=finite[0])
    return max(t - r for t, r in zip(finite, rebuilt))


def _slice(near, tail, m):
    """Exact scores ``near[k] + tail[m - k]`` of one slice, ``k <= m``; a
    score at or above ``inf`` holds an infinite entry."""
    return map(operator.add, near[: m + 1], reversed(tail[: m + 1]))


def reference_lattice(instance, resolution):
    """The lexicographically first point of least exact table sum, as one
    right fold of exact per-slice minima in pure Python.

    Table entries are compared as exact integers (:class:`Lattice`): a point
    holding an infinite entry scores ``inf``, and every such point ties. The
    tail of the last server is its table, and the tail of servers j on
    holds, for every mass m, the minimum over k of ``T_j[k] + tail[m - k]``
    against the tail of servers j+1 on. A walk from the full mass fixes one
    server at a time at the lowest k among its slice's minima. Returns the
    profile, its cost, and the winner's lattice key and exact value.
    """
    lattice = _exact_lattice(instance, resolution)
    steps, exact, inf = lattice.steps, lattice.exact, lattice.inf
    tails = [exact[-1]]
    for near in reversed(exact[1:-1]):
        tails.insert(0, [min(min(_slice(near, tails[0], m)), inf) for m in range(steps + 1)])
    key, m = [], steps
    for near, tail in zip(exact[:-1], tails):
        scores = [min(score, inf) for score in _slice(near, tail, m)]
        k = scores.index(min(scores))
        key.append(k)
        m -= k
    key.append(m)
    profile = LoadProfile.from_raw([k * lattice.step for k in key])
    return profile, system_cost(instance, profile), key, lattice_value(exact, inf, key)


def lattice_value(exact, inf, key):
    """Exact table value of one lattice point, ``inf`` if it holds an infinite entry."""
    return min(sum(table[k] for table, k in zip(exact, key)), inf)


def brute_force_minimum(instance, resolution):
    """The lexicographically first point of least exact table sum and its
    value, over every lattice point (stars and bars, in lexicographic order)."""
    n = instance.n
    lattice = _exact_lattice(instance, resolution)
    steps = lattice.steps
    best, best_key = None, None
    for bars in itertools.combinations(range(steps + n - 1), n - 1):
        edges = (-1,) + bars + (steps + n - 1,)
        key = [b - a - 1 for a, b in zip(edges, edges[1:])]
        value = lattice_value(lattice.exact, lattice.inf, key)
        if best is None or value < best:
            best, best_key = value, key
    return best_key, best


def random_instance(rng, n):
    """Polynomial delays of degree 1-3 sharing one intercept, random attack."""
    intercept = rng.uniform(0.0, 1.0)
    delays = tuple(DelayFunction((intercept,) + tuple(rng.uniform(0.0, 2.0)
                                                       for _ in range(rng.randint(1, 3))))
                   for _ in range(n))
    return GameInstance(n, delays, rng.randint(1, n), rng.uniform(0.0, 3.0))


def _lattice_cases():
    rng = random.Random(20261018)
    cases = []
    # brute force visits every lattice point: coarser from four servers on
    coarse = {4: 0.05, 5: 0.25}
    for n in (3, 4, 5):
        for alpha in (0.0, 0.5, 1.5):  # symmetric servers: ties on the lattice
            for resolution in ((0.01,) if n == 3 else (2 * coarse[n], coarse[n])):
                cases.append((f"linear{n}-a{alpha}-r{resolution}",
                              GameInstance.linear(n, alpha), resolution))
        for seed in range(4):
            resolution = 0.01 if n == 3 else rng.uniform(coarse[n], 2 * coarse[n])
            cases.append((f"poly{n}-{seed}-r{resolution:.3f}", random_instance(rng, n), resolution))
        # x * 5e307 * x overflows from x ~ 1.9 on: part of the lattice scores +inf
        for steep in (1, n - 1, n):
            delays = tuple(DelayFunction((0.0, 5e307 if i == steep else 1.0)) for i in range(1, n + 1))
            resolution = 0.01 if n == 3 else 2 * coarse[n]
            cases.append((f"inf{n}-s{steep}-r{resolution}", GameInstance(n, delays, 1, 1.0), resolution))
    return cases


LATTICE_CASES = _lattice_cases()


class TestLatticeReference:
    @pytest.mark.parametrize("instance, resolution", [c[1:] for c in LATTICE_CASES],
                             ids=[c[0] for c in LATTICE_CASES])
    def test_matches_reference_bit_for_bit(self, instance, resolution):
        lattice = _exact_lattice(instance, resolution)
        assert not any(_wobble(table, lattice.inf) for table in lattice.exact)
        profile, cost = grid_search_optimum(instance, resolution)
        ref_profile, ref_cost, ref_key, ref_val = reference_lattice(instance, resolution)
        assert profile.loads == ref_profile.loads
        assert cost == ref_cost
        assert brute_force_minimum(instance, resolution) == (ref_key, ref_val)

    @given(n=st.sampled_from([3, 4, 5]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mirrored_last_servers_match_reference(self, n, data):
        # the last two tables are bit-identical
        steps = data.draw(st.integers(1, 193))
        coefficient = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4e307]), st.floats(0.0, 3.0))
        delay = DelayFunction((data.draw(st.floats(0.0, 1.0)),)
                              + tuple(data.draw(st.lists(coefficient, min_size=1, max_size=3))))
        # one delay on every server and the attack off the last two
        instance = GameInstance(n, (delay,) * n, data.draw(st.integers(1, n - 2)),
                                data.draw(st.floats(0.0, 3.0)))
        _, tables = _tables(instance, steps)
        assert tables[-2].tobytes() == tables[-1].tobytes()
        _reference_matches(instance, n / steps)

    @given(n=st.sampled_from([2, 3, 4]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_convex_instances_match_brute_force(self, n, data):
        # every lattice point visited: on exactly convex tables with a finite
        # point the merge is the lexicographically first exact minimum, ties
        # and +inf entries included
        steps = data.draw(st.integers(1, {2: 60, 3: 30, 4: 12}[n]))
        coefficient = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4e307]), st.integers(0, 3))
        delays = tuple(DelayFunction((float(data.draw(st.integers(0, 2))),)
                                     + tuple(float(c) for c in data.draw(
                                         st.lists(coefficient, min_size=1, max_size=3))))
                       for _ in range(n))
        instance = GameInstance(n, delays, data.draw(st.integers(1, n)),
                                float(data.draw(st.integers(0, 3))))
        lattice = _exact_lattice(instance, n / steps)
        assume(not any(_wobble(table, lattice.inf) for table in lattice.exact))
        key, value = brute_force_minimum(instance, n / steps)
        assume(value < lattice.inf)
        profile, _ = grid_search_optimum(instance, n / steps)
        assert profile.loads == LoadProfile.from_raw([k * lattice.step for k in key]).loads


def _step_cases():
    rng = random.Random(8)
    cases = []
    for n in (3, 4, 5):
        for steps in (63, 64, 65, 129):
            for name, instance in (("linear", GameInstance.linear(n, 1.5)),
                                   ("poly", random_instance(rng, n))):
                cases.append((f"{name}{n}-steps{steps}", instance, steps))
    # no attack, 255 steps on four identical servers: the optimum ties on
    # many points, and the lexicographically first one must win
    cases.append(("calm4-steps255", GameInstance.linear(4, 0.0), 255))
    return cases


STEP_CASES = _step_cases()


def _reference_matches(instance, resolution):
    """The search against :func:`reference_lattice`: the same point and cost
    where every table is exactly convex and some point is finite. Elsewhere
    the winner's exact table value exceeds the least by at most the tables'
    summed :func:`_wobble` (the sort takes slopes a table reaches only past
    larger ones, and each table's excess over its sorted slopes bounds what
    that costs); where every point holds an infinite entry, so does the
    winner."""
    profile, cost = grid_search_optimum(instance, resolution)
    ref_profile, ref_cost, _, ref_val = reference_lattice(instance, resolution)
    lattice = _exact_lattice(instance, resolution)
    wobble = sum(_wobble(table, lattice.inf) for table in lattice.exact)
    if wobble == 0 and ref_val < lattice.inf:
        assert profile.loads == ref_profile.loads
        assert cost == ref_cost
        return
    key = [round(x / lattice.step) for x in profile.loads]
    assert sum(key) == lattice.steps
    assert lattice_value(lattice.exact, lattice.inf, key) - ref_val <= wobble


class TestLatticeKernels:
    """The search against the per-slice reference only, where brute force is
    too slow: larger step counts, verify's resolution and random instances."""

    @pytest.mark.parametrize("instance, steps", [c[1:] for c in STEP_CASES],
                             ids=[c[0] for c in STEP_CASES])
    def test_steps_around_block_size(self, instance, steps):
        resolution = instance.n / steps
        assert round(instance.n / resolution) == steps
        _reference_matches(instance, resolution)

    @pytest.mark.parametrize("instance", [
        GameInstance.linear(3, 1.5),
        random_instance(random.Random(3), 3),
        GameInstance(3, (DelayFunction((0.0, 1.0)),) * 2 + (DelayFunction((0.0, 5e307)),), 3, 0.5),
    ], ids=["linear", "poly", "inf"])
    def test_three_servers_at_verify_resolution(self, instance):
        _reference_matches(instance, 1e-3)

    @given(n=st.sampled_from([3, 4, 5]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_instances_match_reference(self, n, data):
        steps = data.draw(st.integers(1, 129 if n == 3 else 66))
        # small integer coefficients make ties; 4e307 (still a valid c_3) makes
        # part of the lattice +inf
        coefficient = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4e307]), st.floats(0.0, 3.0))
        intercept = data.draw(st.floats(0.0, 1.0))
        delays = tuple(DelayFunction((intercept,) + tuple(data.draw(st.lists(coefficient, min_size=1, max_size=3))))
                       for _ in range(n))
        instance = GameInstance(n, delays, data.draw(st.integers(1, n)), data.draw(st.floats(0.0, 3.0)))
        _reference_matches(instance, n / steps)


def _largest_coefficient(j):
    """The largest c_j that :class:`DelayFunction` admits: ``(j + 1) * c_j`` finite."""
    c = sys.float_info.max / (j + 1)
    while math.isinf((j + 1) * c):
        c = math.nextafter(c, 0.0)
    return c


def _extreme_coefficient(j):
    return st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, _largest_coefficient(j)]),
                     st.floats(0.0, 3.0))


class TestNoNaN:
    """A NaN table entry would enter the sort as an infinite slope and score
    a point it cannot reach: the tables and the slopes the sort sees hold no
    NaN on any instance the guards admit, down to zero and subnormal
    coefficients and up to the largest ones and attack strengths of 1e308."""

    @given(n=st.integers(2, 5), resolution=st.floats(0.01, 0.25), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_valid_extremes_hold_no_nan_and_match_reference(self, n, resolution, data):
        intercept = data.draw(_extreme_coefficient(0))
        delays = tuple(
            DelayFunction((intercept,) + tuple(data.draw(_extreme_coefficient(j))
                                               for j in range(1, data.draw(st.integers(1, 4)))))
            for _ in range(n))  # a lone intercept is a constant delay
        alpha = data.draw(st.one_of(st.sampled_from([0.0, 1e308]), st.floats(0.0, 1e308)))
        instance = GameInstance(n, delays, data.draw(st.integers(1, n)), alpha)
        assert validate(instance, SchedulerPopulation.full_access(n, 0.0)) == []
        if intercept + alpha == math.inf:
            with pytest.raises(ValueError, match="overflows"):
                grid_search_optimum(instance, resolution)
            return
        steps = round(n / resolution)
        with np.errstate(over="ignore", invalid="ignore"):
            tables = oracle._contribution_tables(instance, steps, n / steps)
            slopes = oracle._exact_slopes(tables)
        for array in tables + list(slopes):
            assert not np.isnan(array).any()
        _reference_matches(instance, resolution)


class TestSecurityVerdicts:
    def test_full_access_high_penetration_is_strong(self):
        inst = GameInstance.linear(2)
        pop = SchedulerPopulation.full_access(2, 1.0)
        verdict = verify_strong_security(inst, pop, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert verdict.strong
        assert verdict.weak
        assert not verdict.inconclusive

    def test_no_attack_grid_is_strong(self):
        inst = GameInstance.linear(3)
        pop = SchedulerPopulation.full_access(3, 0.5)
        verdict = verify_strong_security(inst, pop, [0.0])
        assert verdict.strong

    def test_constrained_access_breaks_strong(self):
        inst = GameInstance.linear(3)
        pop = SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2))
        verdict = verify_strong_security(inst, pop, [0.0, 1.0])
        assert not verdict.strong
        assert verdict.worst_alpha == 1.0
        assert verdict.gap == pytest.approx(1 / 18, abs=1e-3)

    def test_weak_everywhere_linear(self):
        inst = GameInstance.linear(2)
        for r in (0.0, 0.5, 1.5):
            pop = SchedulerPopulation.full_access(2, r)
            verdict = verify_weak_security(inst, pop, [0.0, 1.0, 2.0, 3.0])
            assert verdict.weak

    def test_constrained_weak_with_zero_gap_under_moderate_attack(self):
        inst = GameInstance.linear(3)
        pop = SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2))
        verdict = verify_weak_security(inst, pop, [0.0, 0.5, 1.0])
        assert verdict.weak
        assert abs(verdict.gap) <= 1e-5

    def test_strong_implies_weak(self):
        cases = [
            (GameInstance.linear(2), SchedulerPopulation.full_access(2, 1.0), [0.0, 1.0]),
            (GameInstance.linear(2), SchedulerPopulation.full_access(2, 0.1), [0.0, 1.0]),
            (GameInstance.linear(3),
             SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2)), [0.5, 1.0]),
        ]
        for inst, pop, alphas in cases:
            for verdict in (verify_strong_security(inst, pop, alphas),
                            verify_weak_security(inst, pop, alphas)):
                assert (not verdict.strong) or verdict.weak

    def test_one_scan_gives_both_verdicts(self):
        inst = GameInstance.linear(3)
        pop = SchedulerPopulation.for_instance(3, ((2.0, (2, 3)),), (1, 2))
        strong, weak = verify_security(inst, pop, [0.5, 1.0], seed=3)
        assert strong == verify_strong_security(inst, pop, [0.5, 1.0], seed=3)
        assert weak == verify_weak_security(inst, pop, [0.5, 1.0], seed=3)
        assert not strong.strong and strong.weak

    def test_empty_alpha_grid_rejected(self):
        inst = GameInstance.linear(2)
        pop = SchedulerPopulation.full_access(2, 1.0)
        with pytest.raises(ValueError, match="alphas"):
            verify_security(inst, pop, [])

    def test_deterministic_verdicts(self):
        inst = GameInstance.linear(2)
        pop = SchedulerPopulation.full_access(2, 0.6)
        a = verify_strong_security(inst, pop, [0.0, 1.0], seed=7)
        b = verify_strong_security(inst, pop, [0.0, 1.0], seed=7)
        assert a == b

    def test_inconclusive_on_non_convergence(self):
        inst = GameInstance.linear(2)
        pop = SchedulerPopulation.full_access(2, 1.0)
        verdict = verify_strong_security(
            inst, pop, [1.0], settings=SolveSettings(max_outer_iterations=1))
        assert verdict.inconclusive
        assert not verdict.strong and not verdict.weak
        assert verdict.worst_alpha == 1.0
        assert math.isnan(verdict.gap)


def _potential_cases():
    """Instances with an exact potential at attacks in [0.01, 4]: linear at
    n = 2, 3, 5 with full access (closed form ``team_cost_linear``) and in the
    constrained family (``constrained_team_cost``), and distinct cubic slopes
    with two machine groups on nested access sets (no closed form)."""
    rng = random.Random(20261018)
    cases = []
    for n, constrained in ((2, False), (3, False), (3, True), (5, False), (5, True)):
        for alpha in (0.01, rng.uniform(0.01, 4.0), 4.0):
            if constrained:
                population = SchedulerPopulation.for_instance(n, ((n - 1.0, range(2, n + 1)),), (1, 2))
                closed = constrained_team_cost(n, alpha)
                name = f"constrained{n}"
            else:
                r = rng.uniform(0.0, 2.0)
                population = SchedulerPopulation.full_access(n, r)
                closed = team_cost_linear(n, r, alpha)
                name = f"linear{n}-r{r:.3f}"
            cases.append((f"{name}-a{alpha:.3f}", GameInstance.linear(n, alpha), population, closed))
    cubic = tuple(DelayFunction((0.5, 0.0, 0.0, c)) for c in (1.0, 0.5, 2.0))
    nested = SchedulerPopulation.for_instance(3, ((0.8, (1, 2, 3)), (0.6, (2, 3))), (1, 2))
    for alpha in (0.01, rng.uniform(0.01, 4.0), 4.0):
        cases.append((f"cubic3-a{alpha:.3f}", GameInstance(3, cubic, 1, alpha), nested, None))
    return cases


POTENTIAL_CASES = _potential_cases()


class TestPotential:
    @pytest.mark.parametrize("instance", [
        GameInstance.linear(2),
        GameInstance.linear(5, 1.5, 3),
        GameInstance.identical(3, (1.0, 0.0, 0.0, 2.0)),
        GameInstance(2, (DelayFunction((0.0, 1.0)), DelayFunction((3.0, 0.25))), 1, 1.0),
    ], ids=["linear2", "linear5", "cubic_shared", "linear_intercepts"])
    def test_has_potential(self, instance):
        assert oracle._has_potential(instance)

    @pytest.mark.parametrize("instance", [
        GameInstance.identical(2, (0.0, 1.0, 1.0)),  # x + x**2
        GameInstance(2, (DelayFunction((0.0, 1.0)), DelayFunction((0.0, 0.0, 1.0))), 1, 1.0),
        GameInstance(2, (DelayFunction((0.0, 1.0)), DelayFunction((1.0,))), 1, 1.0),
        GameInstance(2, (DelayFunction((0.0, 1.0)), DelayFunction((1.0, 0.0))), 1, 1.0),
        GameInstance.identical(2, (1.0,)),
        GameInstance(3, (DelayFunction((0.0, 1.0, 0.5)), DelayFunction((0.0, 0.5, 1.0)),
                         DelayFunction((0.0, 2.0, 0.25))), 1, 0.8),  # golden/multi_group.json
    ], ids=["x_plus_x2", "mixed_degrees", "constant", "zero_slope", "all_constant", "multi_group"])
    def test_has_no_potential(self, instance):
        assert not oracle._has_potential(instance)

    def test_potential_instance_draws_no_start(self):
        rng = random.Random(0)
        state = rng.getstate()
        instance = GameInstance.linear(3, 1.0)
        population = SchedulerPopulation.full_access(3, 0.5)
        costs = oracle._team_costs_multistart(instance, population, SolveSettings(), rng)
        assert rng.getstate() == state
        assert costs == [solve_team_equilibrium(instance, population).cost]

    @pytest.mark.parametrize("instance, population, closed", [c[1:] for c in POTENTIAL_CASES],
                             ids=[c[0] for c in POTENTIAL_CASES])
    def test_random_starts_reach_default_cost(self, monkeypatch, instance, population, closed):
        # the random starts verify skips on potential instances: each one that
        # converges ends at the default start's cost
        assert oracle._has_potential(instance)
        default = solve_team_equilibrium(instance, population)
        assert default.converged
        if closed is not None:
            assert abs(default.cost - closed) <= 1e-8
        monkeypatch.setattr(oracle, "_has_potential", lambda instance: False)
        costs = oracle._team_costs_multistart(instance, population, SolveSettings(), random.Random(5))
        assert costs[0] == default.cost
        assert len(costs) > 1
        assert max(abs(cost - default.cost) for cost in costs) <= 1e-8


class TestMonotonicity:
    def test_moderate_attack_plateau(self):
        inst = GameInstance.linear(2)
        grid = [i * 0.1 for i in range(21)]
        report = monotonicity_sweep(inst, grid, 1.0)
        assert report.nonincreasing
        assert not report.inconclusive
        for r, cost in zip(grid, report.costs):
            if r >= 0.75:
                assert cost == pytest.approx(1.4375, abs=1e-8)

    def test_no_attack_flat(self):
        inst = GameInstance.linear(2)
        report = monotonicity_sweep(inst, [i * 0.2 for i in range(11)], 0.0)
        assert report.nonincreasing
        assert report.costs == pytest.approx([1.0] * 11, abs=1e-9)

    def test_strong_attack_range(self):
        # penetration threshold sits at 0.5; cost falls from 2.0 to 1.75
        inst = GameInstance.linear(2)
        grid = [i * 0.1 for i in range(21)]
        report = monotonicity_sweep(inst, grid, 2.0)
        assert report.nonincreasing
        assert report.costs[0] == pytest.approx(2.0, abs=1e-8)
        assert report.costs[-1] == pytest.approx(1.75, abs=1e-8)
        for r, cost in zip(grid, report.costs):
            if r >= 0.5:
                assert cost == pytest.approx(1.75, abs=1e-8)

    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError):
            monotonicity_sweep(GameInstance.linear(2), [1.0, 0.5], 1.0)

    def test_inconclusive_on_non_convergence(self):
        inst = GameInstance.linear(2)
        report = monotonicity_sweep(inst, [0.4, 0.8], 1.0,
                                    settings=SolveSettings(max_outer_iterations=1))
        assert report.inconclusive

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="grid"):
            monotonicity_sweep(GameInstance.linear(2), [], 1.0)

    def test_rejects_negative_machine_mass(self):
        # a negative mass would otherwise pass as no machines
        with pytest.raises(ValueError, match="machine mass"):
            monotonicity_sweep(GameInstance.linear(2), [-1.0, 1.0], 1.0)
