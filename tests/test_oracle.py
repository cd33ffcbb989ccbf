import itertools
import math
import random
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from teamsched.experiments import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
        # the guard counts score entries: ten servers at 1e-3 take the limit
        assert oracle._search_entries(10, 10_000) == oracle.CAPACITY_LIMIT
        # 9 * C(11002, 2) at 11 servers, 1e-3
        with pytest.raises(CapacityError):
            grid_search_optimum(GameInstance.linear(11, 1.0), 1e-3)
        # 2 * C(40002, 2) at 4 servers, 1e-4
        with pytest.raises(CapacityError):
            grid_search_optimum(GameInstance.linear(4, 1.0), 1e-4)
        with pytest.raises(CapacityError):
            grid_search_optimum(GameInstance.linear(3, 1.0), 1e-4)
        with pytest.raises(ValueError):
            grid_search_optimum(GameInstance.linear(2, 1.0), 1e-5)

    @pytest.mark.parametrize("resolution", [5.0, math.inf, math.nan, -math.inf])
    def test_rejects_resolution_without_lattice_steps(self, resolution):
        # 5.0 rounds 2 / 5 to zero steps; inf and NaN are no resolution at all
        with pytest.raises(ValueError, match="resolution"):
            grid_search_optimum(GameInstance.linear(2, 1.0), resolution)

    def test_four_servers_at_verify_resolution(self):
        # 2 * C(4002, 2) score entries: within the limit although the
        # lattice has about 1.07e10 points
        _, cost = grid_search_optimum(GameInstance.linear(4, 1.0), 1e-3)
        assert abs(cost - team_cost_linear(4, 4.0, 1.0)) <= 1e-3

    def test_six_servers_at_verify_resolution(self):
        # 4 * C(6002, 2) score entries
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
        # every lattice point overflows: x * 1e308 summed over loads adding to n
        inst = GameInstance(n, (DelayFunction((1e308,)),) * n, 1, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profile, cost = grid_search_optimum(inst, 0.1)
        assert profile.loads == (0.0,) * (n - 1) + (float(n),)
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


def _slice(near, tail, m):
    """Scores ``near[k] + tail[m - k]`` of one slice, ``k <= m``."""
    return [near[k] + tail[m - k] for k in range(m + 1)]


def reference_lattice(instance, resolution):
    """The search as one right fold of per-slice minima, in pure Python.

    The tail of the last server is its table, and the tail of servers j on
    holds, for every mass m, the minimum over k of ``T_j[k] + tail[m - k]``
    against the tail of servers j+1 on. A walk from the full mass fixes one
    server at a time at the lowest k among its slice's minima. The tables
    hold no NaN (``TestNoNaN``). Returns the profile, its cost and the
    winner's table value.
    """
    n = instance.n
    steps = round(n / resolution)
    step, tables = _tables(instance, steps)
    tables = [table.tolist() for table in tables]
    tails = [tables[-1]]
    for near in reversed(tables[1:-1]):
        tails.insert(0, [min(_slice(near, tails[0], m)) for m in range(steps + 1)])
    key, m = [], steps
    for near, tail in zip(tables[:-1], tails):
        scores = _slice(near, tail, m)
        k = scores.index(min(scores))
        key.append(k)
        m -= k
    key.append(m)
    profile = LoadProfile.from_raw([k * step for k in key])
    return profile, system_cost(instance, profile), lattice_value(tables, key)


def lattice_value(tables, key):
    """Table value of one lattice point, the right fold ``T_1 + (T_2 + (.. + T_n))``."""
    t = [float(table[k]) for table, k in zip(tables, key)]
    value = t[-1]
    for term in reversed(t[:-1]):
        value = term + value
    return value


def brute_force_minimum(instance, resolution):
    """Smallest table value over every lattice point (stars and bars)."""
    n = instance.n
    steps = round(n / resolution)
    _, tables = _tables(instance, steps)
    tables = [table.tolist() for table in tables]
    best = math.inf
    for bars in itertools.combinations(range(steps + n - 1), n - 1):
        edges = (-1,) + bars + (steps + n - 1,)
        key = tuple(b - a - 1 for a, b in zip(edges, edges[1:]))
        best = min(best, lattice_value(tables, key))
    return best


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
        profile, cost = grid_search_optimum(instance, resolution)
        ref_profile, ref_cost, ref_val = reference_lattice(instance, resolution)
        assert profile.loads == ref_profile.loads
        assert cost == ref_cost
        assert ref_val == brute_force_minimum(instance, resolution)

    @given(n=st.sampled_from([3, 4, 5]), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mirrored_last_servers_match_reference(self, n, data):
        # the last two tables are bit-identical
        steps = data.draw(st.integers(1, 3 * oracle._BLOCK + 1))
        coefficient = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4e307]), st.floats(0.0, 3.0))
        delay = DelayFunction((data.draw(st.floats(0.0, 1.0)),)
                              + tuple(data.draw(st.lists(coefficient, min_size=1, max_size=3))))
        # one delay on every server and the attack off the last two
        instance = GameInstance(n, (delay,) * n, data.draw(st.integers(1, n - 2)),
                                data.draw(st.floats(0.0, 3.0)))
        _, tables = _tables(instance, steps)
        assert tables[-2].tobytes() == tables[-1].tobytes()
        _reference_matches(instance, n / steps)


def _block_cases():
    rng = random.Random(8)
    block = oracle._BLOCK
    cases = []
    for n in (3, 4, 5):
        for steps in (block - 1, block, block + 1, 2 * block + 1):
            for name, instance in (("linear", GameInstance.linear(n, 1.5)),
                                   ("poly", random_instance(rng, n))):
                cases.append((f"{name}{n}-steps{steps}", instance, steps))
    # no attack, 4 * block - 1 steps: the optimum ties at k1 = block - 1 (first
    # block) and k1 = block (second block), and the first one must win
    cases.append((f"calm4-steps{4 * block - 1}", GameInstance.linear(4, 0.0), 4 * block - 1))
    return cases


BLOCK_CASES = _block_cases()


def _reference_matches(instance, resolution):
    profile, cost = grid_search_optimum(instance, resolution)
    ref_profile, ref_cost, _ = reference_lattice(instance, resolution)
    assert profile.loads == ref_profile.loads
    assert cost == ref_cost


class TestLatticeKernels:
    """The blocked search against the per-slice reference only, where brute
    force is too slow: step counts around the block size, verify's
    resolution and random instances."""

    @pytest.mark.parametrize("instance, steps", [c[1:] for c in BLOCK_CASES],
                             ids=[c[0] for c in BLOCK_CASES])
    def test_steps_around_block_size(self, instance, steps):
        resolution = instance.n / steps
        assert round(instance.n / resolution) == steps
        _reference_matches(instance, resolution)

    @pytest.mark.parametrize("instance, steps", [c[1:] for c in BLOCK_CASES],
                             ids=[c[0] for c in BLOCK_CASES])
    def test_blocked_kernel_around_block_size(self, monkeypatch, instance, steps):
        # most of these tables take the slope merge on their first fold:
        # here every fold runs through the blocked kernel
        monkeypatch.setattr(oracle, "_pair_table", oracle._blocked_pair_table)
        _reference_matches(instance, instance.n / steps)

    @pytest.mark.parametrize("instance", [
        GameInstance.linear(3, 1.5),
        random_instance(random.Random(3), 3),
        GameInstance(3, (DelayFunction((0.0, 1.0)),) * 2 + (DelayFunction((0.0, 5e307)),), 3, 0.5),
    ], ids=["linear", "poly", "inf"])
    def test_three_servers_at_verify_resolution(self, instance):
        _reference_matches(instance, 1e-3)

    @pytest.mark.parametrize("steps", [1, oracle._BLOCK - 1, oracle._BLOCK, oracle._BLOCK + 1,
                                       2 * oracle._BLOCK + 1, 3000])
    @pytest.mark.parametrize("convex", [False, True])
    def test_mirrored_pair_table_matches_full_width_kernel(self, steps, convex):
        # a convex table puts each row's minimum at its middle column; a NaN
        # at index j makes every row from j on score NaN, so it sits last
        rng = np.random.default_rng(steps)
        table = np.arange(steps + 1.0) ** 2 if convex else rng.uniform(0.0, 4.0, steps + 1)
        table[rng.integers(1, steps + 1, 3)] = np.inf
        table[steps] = math.nan
        table[0] = 0.0
        # -0.0 in place of +0.0 adds the same bits to every entry but makes
        # the tables differ in bytes: a kernel that special-cased bit-identical
        # tables would have to give the same bits as this call
        unmirrored = table.copy()
        unmirrored[unmirrored == 0.0] = -0.0
        full_width = oracle._pair_table(table, unmirrored)
        assert oracle._pair_table(table, table.copy()).tobytes() == full_width.tobytes()

    @given(n=st.sampled_from([3, 4, 5]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_instances_match_reference(self, n, data):
        steps = data.draw(st.integers(1, 2 * oracle._BLOCK + 1 if n == 3 else oracle._BLOCK + 2))
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
    """The walk takes the first minimum by ``np.argmin`` on every server, which
    stops at a NaN: it needs tables and tails free of NaN on every instance
    the guards admit, down to zero and subnormal coefficients and up to the
    largest ones and attack strengths of 1e308."""

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
        pairs = {}
        with np.errstate(over="ignore", invalid="ignore"):
            tables = oracle._contribution_tables(instance, steps, n / steps)
            grid_search_optimum(instance, resolution, _pairs=pairs)
        assert len(pairs) == n - 2
        for table in tables + list(pairs.values()):
            assert not np.isnan(table).any()
        _reference_matches(instance, resolution)


def _declined_tables():
    """Tables the slope merge must leave to the blocked kernel."""
    _, constant = _tables(GameInstance.identical(3, (1.0,)), 300)
    _, wobbly = _tables(GameInstance.identical(3, (0.7,)), 3000)
    _, linear = _tables(GameInstance.linear(3), 300)
    with_inf, with_nan = linear[0].copy(), linear[0].copy()
    with_inf[150] = math.inf
    with_nan[7] = math.nan
    _, steep = _tables(GameInstance(3, (DelayFunction((0.0, 5e307)),) * 3, 1, 1.0), 300)
    return [
        ("constant", constant[1]),
        ("constant-0.7", wobbly[1]),
        ("inf-entry", with_inf),
        ("nan-entry", with_nan),
        ("overflow", steep[1]),
        # the rounded tail of identical servers is not exactly convex
        ("identical-tail", oracle._pair_table(linear[1], linear[2])),
    ]


DECLINED_TABLES = _declined_tables()


class TestMergeKernel:
    """The slope merge against the blocked kernel it stands in front of."""

    @given(steps=st.integers(1, 3000), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_merge_matches_blocked_kernel(self, steps, data):
        # tiny, subnormal and huge coefficients; 4e307 overflows part of a table
        coefficient = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-20, 1.0, 4e307]),
                                st.floats(0.0, 1e-300), st.floats(0.0, 1e-12), st.floats(0.0, 3.0))

        def delay():
            return DelayFunction((data.draw(st.floats(0.0, 1.0)),)
                                 + tuple(data.draw(st.lists(coefficient, min_size=1, max_size=3))))

        instance = GameInstance(2, (delay(), delay()), data.draw(st.integers(1, 2)),
                                data.draw(st.floats(0.0, 3.0)))
        _, (near, far) = _tables(instance, steps)
        if data.draw(st.booleans()):
            far = near.copy()
        with np.errstate(over="ignore"):  # steep tables overflow on purpose
            blocked = oracle._blocked_pair_table(near, far)
            merged = oracle._merged_pair_table(near, far)
            assert merged is None or merged.tobytes() == blocked.tobytes()
            assert oracle._pair_table(near, far).tobytes() == blocked.tobytes()

    @given(steps=st.integers(1, 300), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_valid_tables_never_hold_negative_zero(self, steps, data):
        # the gate keeps no check for -0.0, whose sums the two kernels could
        # keep as different zeros: no valid instance's table or tail holds one
        coefficient = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 4e307]), st.floats(0.0, 3.0))
        strength = st.one_of(st.sampled_from([0.0, -0.0, 1e300]), st.floats(0.0, 1e300))
        n = data.draw(st.integers(2, 3))
        delays = tuple(DelayFunction(tuple(data.draw(st.lists(coefficient, min_size=1, max_size=4))))
                       for _ in range(n))
        instance = GameInstance(n, delays, data.draw(st.integers(1, n)), data.draw(strength))
        with np.errstate(over="ignore", invalid="ignore"):  # 4e307 overflows on purpose
            tables = oracle._contribution_tables(instance, steps, n / steps)
            tables.append(oracle._pair_table(tables[-2], tables[-1]))
        for table in tables:
            assert not (np.signbit(table) & (table == 0.0)).any()

    @pytest.mark.parametrize("table", [c[1] for c in DECLINED_TABLES],
                             ids=[c[0] for c in DECLINED_TABLES])
    @np.errstate(over="ignore")  # the steep table overflows on purpose
    def test_gate_declines(self, table):
        _, (convex, _, _) = _tables(GameInstance.linear(3, 1.0), len(table) - 1)
        assert oracle._exact_slopes(convex) is not None
        assert oracle._exact_slopes(table) is None
        for near, far in ((table, convex), (convex, table), (table, table.copy())):
            assert oracle._merged_pair_table(near, far) is None
            assert oracle._pair_table(near, far).tobytes() == \
                oracle._blocked_pair_table(near, far).tobytes()

    def test_verify_scan_never_enters_blocked_kernel(self, monkeypatch):
        scenario = load_scenario(SCENARIOS / "constrained_three_servers.json")
        merged, blocked = [], []
        merge, kernel = oracle._merged_pair_table, oracle._blocked_pair_table
        monkeypatch.setattr(oracle, "_merged_pair_table",
                            lambda near, far: merged.append(1) or merge(near, far))
        monkeypatch.setattr(oracle, "_blocked_pair_table",
                            lambda near, far: blocked.append(1) or kernel(near, far))
        strong, _ = verify_security(scenario.instance, scenario.population,
                                    scenario.alpha_grid, settings=scenario.settings)
        assert not strong.inconclusive
        assert merged and not blocked


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

    @staticmethod
    def _tail_reuse_matches_fresh_searches(monkeypatch, n, target, builds):
        # the tail of servers j.. stays the same across the scan only when the
        # attack targets none of them: an attack on server 1 rebuilds none
        inst = replace(GameInstance.linear(n), attack_target=target)
        pop = SchedulerPopulation.for_instance(n, ((2.0, range(2, n + 1)),), (1, 2))
        alphas = [0.5, 1.5]
        built = []
        pair_table = oracle._pair_table
        monkeypatch.setattr(oracle, "_pair_table",
                            lambda near, far: built.append(1) or pair_table(near, far))
        reused = verify_security(inst, pop, alphas, seed=3)
        assert len(built) == builds
        assert not reused[0].inconclusive

        grid = oracle.grid_search_optimum
        monkeypatch.setattr(oracle, "grid_search_optimum",
                            lambda instance, resolution=1e-3, *, _pairs=None: grid(instance, resolution))
        built.clear()
        assert verify_security(inst, pop, alphas, seed=3) == reused
        assert len(built) == (n - 2) * (1 + len(alphas))

    @pytest.mark.parametrize("target, builds", [(1, 1), (3, 3)])
    def test_pair_table_reuse_matches_fresh_searches(self, monkeypatch, target, builds):
        self._tail_reuse_matches_fresh_searches(monkeypatch, 3, target, builds)

    @pytest.mark.parametrize("target, builds", [(1, 3), (3, 1 + 2 * 3)])
    def test_tail_reuse_at_five_servers(self, monkeypatch, target, builds):
        # tails of servers 2..5, 3..5 and 4..5: an attack on server 3 keeps
        # only the last one
        self._tail_reuse_matches_fresh_searches(monkeypatch, 5, target, builds)

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
