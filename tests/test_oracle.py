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
    ValidationError,
    constrained_team_cost,
    experiments,
    game,
    grid_search_optimum,
    monotonicity_sweep,
    optimal_cost_linear,
    oracle,
    solve_team_equilibrium,
    system_cost,
    team_cost_linear,
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

    # the search has no attack guard of its own: each bad attack below is
    # refused when its instance is built, before the lattice sees it
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rejects_infinite_attack(self, n):
        with pytest.raises(ValidationError, match="nonfinite-attack-strength"):
            grid_search_optimum(GameInstance.linear(n, math.inf), 0.1)

    @pytest.mark.parametrize("strength", [-0.5, -1e-300])
    def test_rejects_negative_attack(self, strength):
        with pytest.raises(ValidationError, match="negative-attack-strength"):
            grid_search_optimum(GameInstance.linear(3, strength), 0.1)

    @pytest.mark.parametrize("target", [1, 2, 3])
    def test_rejects_attack_overflowing_the_attacked_delay(self, target):
        # 0 * (tau(0) + alpha) = 0 * inf would put a NaN at load 0 of the attacked table
        with pytest.raises(ValidationError, match="attack-overflow"):
            grid_search_optimum(
                GameInstance(3, (DelayFunction((sys.float_info.max,)),) * 3, target, 1e308), 0.1)

    def test_negative_zero_attack_is_no_attack(self):
        calm = grid_search_optimum(GameInstance.linear(3, 0.0), 0.01)
        assert grid_search_optimum(GameInstance.linear(3, -0.0), 0.01) == calm

    @pytest.mark.parametrize("target", [0, 1.5, 5])
    def test_rejects_attack_target_off_the_servers(self, target):
        # target 5 on three servers once gave the unattacked optimum
        with pytest.raises(ValueError, match="bad-attack-target|attack target must be an integer"):
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


# The numpy merge the pure-Python selection replaced, kept with its
# operations unchanged as an independent reference: every table on the whole
# axis at once, their exact slopes as TwoSum pairs, one stable lexsort and
# each server's count among the first ``steps`` slopes.

def _contribution_tables(instance, steps, step):
    """Per-server tables of x * tau_i^attack(x) on the lattice axis."""
    axis = np.arange(steps + 1, dtype=np.float64) * step
    return [axis * (f(axis) + instance.attack_bonus(i))
            for i, f in enumerate(instance.delays, start=1)]


def _exact_slopes(tables):
    """First differences of every table, server n's first, as exact pairs ``(s, e)``."""
    stacked = np.stack(tables[::-1])
    before, after = stacked[:, :-1], stacked[:, 1:]
    s = after - before
    v = s - after
    e = (after - (s - v)) - (before + v)
    finite = np.isfinite(e)
    return np.where(finite, s, np.inf).ravel(), np.where(finite, e, 0.0).ravel()


def numpy_merge(instance, resolution):
    """The least lattice point by one stable sort of every exact slope."""
    n = instance.n
    steps = round(n / resolution)
    step = n / steps
    with np.errstate(over="ignore", invalid="ignore"):
        s, e = _exact_slopes(_contribution_tables(instance, steps, step))
    order = np.lexsort((e, s))  # stable: server n's slopes come first on ties
    best_key = np.bincount(order[:steps] // steps, minlength=n)[::-1].tolist()
    profile = LoadProfile.from_raw([k * step for k in best_key])
    return profile, system_cost(instance, profile)


def _matches_numpy_merge(instance, resolution):
    profile, cost = grid_search_optimum(instance, resolution)
    ref_profile, ref_cost = numpy_merge(instance, resolution)
    assert profile.loads == ref_profile.loads
    assert cost == ref_cost


def _certified_from(instance, steps):
    """Each server's first certified slope (:func:`oracle._convex_from`)."""
    return [oracle._convex_from(f, instance.attack_bonus(i), instance.n / steps, steps, instance.n)
            for i, f in enumerate(instance.delays, start=1)]


def _family_delays(family, n, data):
    """n delays of one family: TestNoNaN's extremes, constants, pure powers
    (no linear term), coefficients that overflow part of the table, or one
    delay on every server (mirrored tables)."""
    def coefficient(j):
        return data.draw(_extreme_coefficient(j))

    def delay():
        if family == "constant":
            return DelayFunction((coefficient(0),))
        if family == "power":
            intercept = data.draw(st.sampled_from([0.0, 1.0, 1e6, 1e9, 1e12]))
            degree = data.draw(st.integers(2, 4))
            return DelayFunction((intercept,) + (0.0,) * (degree - 1) + (coefficient(degree),))
        if family == "overflow":
            return DelayFunction((data.draw(st.floats(0.0, 1.0)), data.draw(st.sampled_from([1.0, 5e307])))
                                 + ((4e307,) if data.draw(st.booleans()) else ()))
        return DelayFunction(tuple(coefficient(j) for j in range(data.draw(st.integers(1, 5)))))

    if family == "mirrored":
        return (delay(),) * n
    return tuple(delay() for _ in range(n))


class TestNumpyReference:
    """The selection against :func:`numpy_merge`: the same point and cost,
    bit for bit, on every instance, wobbling and all-infinite tables
    included."""

    @given(n=st.integers(2, 6), family=st.sampled_from(["extreme", "constant", "power",
                                                        "overflow", "mirrored"]),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_instances_match_numpy_merge(self, n, family, data):
        delays = _family_delays(family, n, data)
        target = data.draw(st.integers(1, n))
        # only an attack that keeps the attacked delay at load 0 finite builds
        alpha = data.draw(st.one_of(st.sampled_from([0.0, 1e9, 1e308]), st.floats(0.0, 3.0))
                          .filter(lambda a: delays[target - 1].intercept + a < math.inf))
        instance = GameInstance(n, delays, target, alpha)
        steps = data.draw(st.integers(1, 400 // n))
        _matches_numpy_merge(instance, n / steps)

    @pytest.mark.parametrize("n", [2, 3, 4, 10])
    def test_linear_figure_grid_is_certified(self, n):
        # linear servers at verify's resolution on the 61-point figure grid:
        # every table is certified whole, so nothing is materialised
        steps = round(n / 1e-3)
        for alpha in experiments._grid(0.0, 3.0, 61):
            instance = GameInstance.linear(n, alpha)
            assert _certified_from(instance, steps) == [0] * n
            _matches_numpy_merge(instance, 1e-3)

    @pytest.mark.parametrize("n, intercept", [(3, 1e9), (3, 1e10), (5, 1e10)])
    def test_partly_certified_tables_match_numpy_merge(self, n, intercept):
        # x**2 on a large intercept: the certificate covers a suffix (5 to 88
        # slopes in), and the prefix before it is materialised and sorted
        instance = GameInstance.identical(n, (intercept, 0.0, 1.0), 1.0)
        steps = round(n / 0.01)
        assert all(0 < start < steps for start in _certified_from(instance, steps))
        _matches_numpy_merge(instance, 0.01)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_score_infinite_matches_numpy_merge(self, n):
        _matches_numpy_merge(GameInstance(n, (DelayFunction((1e308,)),) * n, 1, 1.0), 0.1)


class TestCertificate:
    @given(n=st.integers(1, 6), steps=st.integers(1, 600), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_certified_keys_never_decrease(self, n, steps, data):
        # every key from the first certified slope on, materialised: none is
        # below the one before it, at any magnitude, partial covers included
        intercept = data.draw(st.one_of(_extreme_coefficient(0),
                                        st.sampled_from([1e6, 1e9, 1e12, 1e15])))
        delay = DelayFunction((intercept,) + tuple(data.draw(_extreme_coefficient(j))
                                                   for j in range(1, data.draw(st.integers(1, 5)))))
        bonus = data.draw(st.one_of(st.sampled_from([0.0, 1e9, 1e300]), st.floats(0.0, 3.0)))
        assume(intercept + bonus < math.inf)
        start = oracle._convex_from(delay, bonus, n / steps, steps, n)
        slopes = oracle._Slopes(delay, bonus, n / steps, 0)
        keys = [slopes[k] for k in range(start, steps)]
        assert all(a <= b for a, b in zip(keys, keys[1:]))

    @given(n=st.integers(1, 6), steps=st.integers(1, 300), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_entries_match_delay_call(self, n, steps, data):
        # the table evaluates game.horner on the coefficients itself: every
        # entry is x * (tau(x) + bonus) bit for bit; repr keeps signed zeros,
        # inf and NaN apart
        delay = DelayFunction(tuple(data.draw(_extreme_coefficient(j))
                                    for j in range(data.draw(st.integers(1, 4)))))
        bonus = data.draw(st.one_of(st.sampled_from([0.0, 1e9, 1e300]), st.floats(0.0, 3.0)))
        step = n / steps
        slopes = oracle._Slopes(delay, bonus, step, 0)
        for k in range(steps + 1):
            x = k * step
            assert repr(slopes.entry(k)) == repr(x * (delay(x) + bonus))

    def test_constant_delays_are_not_certified(self):
        # b * x wobbles: no curvature to absorb the rounding
        assert _certified_from(GameInstance.identical(3, (1.0,), 0.5), 300) == [300] * 3


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
    """A NaN table entry would become an infinite slope key and score a
    point it cannot reach: the table entries and the keys the selection
    compares (:class:`oracle._Slopes`) hold no NaN on any instance that
    builds, down to zero and subnormal coefficients and up to the
    largest ones and attack strengths of 1e308."""

    @given(n=st.integers(2, 5), resolution=st.floats(0.01, 0.25), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_valid_extremes_hold_no_nan_and_match_reference(self, n, resolution, data):
        intercept = data.draw(_extreme_coefficient(0))
        delays = tuple(
            DelayFunction((intercept,) + tuple(data.draw(_extreme_coefficient(j))
                                               for j in range(1, data.draw(st.integers(1, 4)))))
            for _ in range(n))  # a lone intercept is a constant delay
        # only an attack that keeps the attacked delay at load 0 finite builds
        alpha = data.draw(st.one_of(st.sampled_from([0.0, 1e308]), st.floats(0.0, 1e308))
                          .filter(lambda a: intercept + a < math.inf))
        instance = GameInstance(n, delays, data.draw(st.integers(1, n)), alpha)
        steps = round(n / resolution)
        for i, f in enumerate(delays, start=1):
            slopes = oracle._Slopes(f, instance.attack_bonus(i), n / steps, (n - i) * steps)
            assert not any(math.isnan(slopes.entry(k)) for k in range(steps + 1))
            keys = [slopes[k] for k in range(steps)]
            assert not any(math.isnan(s) or math.isnan(e) for s, e, _ in keys)
        _reference_matches(instance, resolution)
        _matches_numpy_merge(instance, resolution)


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
        assert game._has_potential(instance)
        default = solve_team_equilibrium(instance, population)
        assert default.converged
        if closed is not None:
            assert abs(default.cost - closed) <= 1e-8
        monkeypatch.setattr(game, "_has_potential", lambda instance: False)
        costs = oracle._team_costs_multistart(instance, population, SolveSettings(), random.Random(5))
        assert costs[0] == default.cost
        assert len(costs) > 1
        assert max(abs(cost - default.cost) for cost in costs) <= 1e-8


def _nested_access_draws(seed, count=25):
    """Claim 1 beyond identical servers: one or two machine groups whose
    access contains the selfish access, on heterogeneous linear or
    common-degree-2 servers with one intercept."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 5)
        c0 = rng.uniform(0.0, 1.0)
        degree = rng.choice((1, 2))
        delays = tuple((c0,) + (0.0,) * (degree - 1) + (rng.uniform(0.2, 2.0),)
                       for _ in range(n))
        selfish = rng.sample(range(1, n + 1), rng.randint(1, n))
        machines = tuple((rng.uniform(0.1, 1.0),
                          set(selfish) | set(rng.sample(range(1, n + 1), rng.randint(0, n))))
                         for _ in range(rng.randint(1, 2)))
        yield (GameInstance(n, delays, rng.randint(1, n), rng.uniform(0.05, 3.0)),
               SchedulerPopulation.for_instance(n, machines, selfish))


class TestMonotonicity:
    # one full-access machine, which the sweep rescales to each grid mass
    UNIT = SchedulerPopulation.full_access(2, 1.0)

    def test_moderate_attack_plateau(self):
        inst = GameInstance.linear(2, 1.0)
        grid = [i * 0.1 for i in range(21)]
        report = monotonicity_sweep(inst, self.UNIT, grid)
        assert report.nonincreasing
        assert not report.inconclusive
        for r, cost in zip(grid, report.costs):
            if r >= 0.75:
                assert cost == pytest.approx(1.4375, abs=1e-8)

    def test_no_attack_flat(self):
        report = monotonicity_sweep(GameInstance.linear(2), self.UNIT,
                                    [i * 0.2 for i in range(11)])
        assert report.nonincreasing
        assert report.costs == pytest.approx([1.0] * 11, abs=1e-9)

    def test_strong_attack_range(self):
        # penetration threshold sits at 0.5; cost falls from 2.0 to 1.75
        inst = GameInstance.linear(2, 2.0)
        grid = [i * 0.1 for i in range(21)]
        report = monotonicity_sweep(inst, self.UNIT, grid)
        assert report.nonincreasing
        assert report.costs[0] == pytest.approx(2.0, abs=1e-8)
        assert report.costs[-1] == pytest.approx(1.75, abs=1e-8)
        for r, cost in zip(grid, report.costs):
            if r >= 0.5:
                assert cost == pytest.approx(1.75, abs=1e-8)

    def test_rejects_descending_grid(self):
        with pytest.raises(ValueError):
            monotonicity_sweep(GameInstance.linear(2, 1.0), self.UNIT, [1.0, 0.5])

    def test_inconclusive_on_non_convergence(self):
        report = monotonicity_sweep(GameInstance.linear(2, 1.0), self.UNIT, [0.4, 0.8],
                                    settings=SolveSettings(max_outer_iterations=1))
        assert report.inconclusive

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="grid"):
            monotonicity_sweep(GameInstance.linear(2, 1.0), self.UNIT, [])

    def test_rejects_negative_machine_mass(self):
        # a negative mass would otherwise pass as no machines
        with pytest.raises(ValueError, match="machine mass"):
            monotonicity_sweep(GameInstance.linear(2, 1.0), self.UNIT, [-1.0, 1.0])

    def test_rejects_mass_without_machines(self, monkeypatch):
        # refused before the first solve
        monkeypatch.setattr(oracle, "solve_team_equilibrium", None)
        with pytest.raises(ValueError, match="no machines"):
            monotonicity_sweep(GameInstance.linear(2, 1.0), SchedulerPopulation.for_instance(2),
                               [0.0, 1.0])

    def test_claim_one_on_nested_access(self):
        # the paper's first claim beyond identical full-access servers:
        # machine access containing the selfish access, heterogeneous slopes
        for instance, population in _nested_access_draws(32):
            grid = [instance.n * i / 10 for i in range(11)]
            report = monotonicity_sweep(instance, population, grid)
            assert not report.inconclusive
            assert report.nonincreasing, (instance, population, report.costs)
