import itertools
import math
import random
import re
import struct
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamsched import (
    DelayFunction,
    DisaggregatedProfile,
    GameInstance,
    LoadProfile,
    SchedulerPopulation,
    ValidationError,
    system_cost,
    validate,
)
from teamsched.game import _has_potential, horner


def poly_value(coeffs, x):
    # direct power-sum evaluation, independent of the Horner path under test
    return math.fsum(c * x ** j for j, c in enumerate(coeffs))


def marginal_cost(f, x, bonus=0.0):
    """tau(x) + x tau'(x) + bonus, the level every social fill equalizes,
    from the coefficients ``(j + 1) c_j`` built here, not from a cached table."""
    return horner([(j + 1) * c for j, c in enumerate(f.coefficients)], x)[0] + bonus


class TestDelayFunction:
    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            DelayFunction((1.0, -0.5))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DelayFunction(())

    def test_identity_delay(self):
        assert DelayFunction((0.0, 1.0))(1.5) == 1.5

    def test_attacked_identity_delay(self):
        # the attacked delay the selfish residual reads: tau(x) + attack bonus
        inst = GameInstance.linear(2, 1.0)
        assert inst.delays[0](0.5) + inst.attack_bonus(1) == 1.5
        assert inst.delays[1](0.5) + inst.attack_bonus(2) == 0.5

    def test_quadratic_delay(self):
        # 0 + 2 + 2*4 = 10, frozen from direct evaluation
        f = DelayFunction((0.0, 1.0, 2.0))
        assert f(2.0) == 10.0
        assert poly_value(f.coefficients, 2.0) == 10.0


class TestHorner:
    @given(
        coeffs=st.lists(st.floats(0.0, 1e300), max_size=6).map(lambda c: c or [0.0]),
        steps=st.integers(1, 3000),
        step=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_value_matches_polyval_bit_for_bit(self, coeffs, steps, step):
        axis = np.arange(steps + 1, dtype=np.float64) * step
        with np.errstate(over="ignore", invalid="ignore"):  # large coefficients overflow
            ours = horner(coeffs, axis)[0]
            theirs = np.polynomial.polynomial.polyval(axis, np.asarray(coeffs, dtype=np.float64))
        assert ours.tobytes() == theirs.tobytes()

    @given(
        coeffs=st.lists(st.integers(0, 9), min_size=1, max_size=6),
        numerator=st.integers(0, 64),
    )
    def test_slope_is_exact_derivative_at_dyadic_points(self, coeffs, numerator):
        # small integers at x = k / 16 keep every power and sum exact in floats
        x = Fraction(numerator, 16)
        value, slope = horner([float(c) for c in coeffs], float(x))
        assert value == sum(c * x ** j for j, c in enumerate(coeffs))
        assert slope == sum(j * c * x ** (j - 1) for j, c in enumerate(coeffs) if j)

    @staticmethod
    def _loop(coefficients, x):
        """The general Horner loop, the reference for the written-out line."""
        value = slope = 0.0
        for c in reversed(coefficients):
            slope = slope * x + value
            value = value * x + c
        return value, slope

    def test_degree_one_matches_the_loop(self):
        coefficients = [0.0, -0.0, 1.0, 0.5, 3.0, 1e300, 5e-324]
        xs = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.75, -2.5, 1e300,
              math.inf, -math.inf, math.nan]
        with np.errstate(over="ignore", invalid="ignore"):
            for c0, c1, x in itertools.product(coefficients, coefficients, xs):
                ours, theirs = horner((c0, c1), x), self._loop((c0, c1), x)
                assert struct.pack("<2d", *ours) == struct.pack("<2d", *theirs), (c0, c1, x)
            axis = np.array(xs)
            for c0, c1 in itertools.product(coefficients, coefficients):
                ours, theirs = horner([c0, c1], axis), self._loop([c0, c1], axis)
                assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]


class TestMarginalCost:
    def test_linear(self):
        # tau + x tau' = 2x
        assert marginal_cost(DelayFunction((0.0, 1.0)), 1.0) == 2.0

    def test_linear_attacked(self):
        assert marginal_cost(DelayFunction((0.0, 1.0)), 0.75, 1.0) == 2.5

    def test_constant_delay(self):
        f = DelayFunction((3.0,))
        assert marginal_cost(f, 7.0, 2.0) == 5.0

    def test_instance_table_is_built_from_delay_table(self):
        inst = GameInstance(3, ((1.0,), (0.0, 1.0), (0.5, 0.25, 2.0)), 2, 1.0)
        assert inst.marginal_coefficients == ((1.0,), (0.0, 2.0), (0.5, 0.5, 6.0))
        assert inst.delay_coefficients == ((1.0,), (0.0, 1.0), (0.5, 0.25, 2.0))
        assert inst.attack_offsets == (0.0, 1.0, 0.0)

    @given(
        coeffs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5),
        x=st.floats(1e-3, 5.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_central_finite_difference(self, coeffs, x):
        f = DelayFunction(tuple(coeffs))
        h = 1e-6

        def total_delay(z):
            return z * poly_value(coeffs, z)

        fd = (total_delay(x + h) - total_delay(x - h)) / (2 * h)
        mc = marginal_cost(f, x)
        assert abs(mc - fd) <= 1e-6 * max(1.0, abs(mc))

    @given(
        coeffs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5),
        x=st.floats(0.0, 5.0),
        bonus=st.floats(0.0, 3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_below_delay(self, coeffs, x, bonus):
        f = DelayFunction(tuple(coeffs))
        assert marginal_cost(f, x, bonus) >= f(x) + bonus


class TestLoadProfile:
    def test_mass_must_match_server_count(self):
        with pytest.raises(ValidationError):
            LoadProfile((1.0, 0.5))

    def test_negative_load_rejected(self):
        with pytest.raises(ValidationError):
            LoadProfile((-0.5, 2.5))

    @pytest.mark.parametrize("loads", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_nonfinite_load_rejected(self, loads):
        with pytest.raises(ValidationError):
            LoadProfile(loads)

    @pytest.mark.parametrize("raw", [[math.nan, 2.0], [math.inf, 1.0], [1.0, -math.inf]])
    def test_from_raw_rejects_nonfinite(self, raw):
        with pytest.raises(ValidationError):
            LoadProfile.from_raw(raw)

    def test_from_raw_rejects_negative(self):
        # no clamp: a negative entry is the profile's own error, not dust
        with pytest.raises(ValidationError, match="negative load"):
            LoadProfile.from_raw((-1e-18, 2.0))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="load profile is empty"):
            LoadProfile(())

    # 1e308 + 1e308 once escaped both as a raw OverflowError from math.fsum
    def test_overflowing_mass_rejected(self):
        with pytest.raises(ValidationError, match="profile mass inf differs"):
            LoadProfile((1e308, 1e308))

    @pytest.mark.parametrize("raw, mass", [([0.0, 0.0], "0.0"), ([1e308, 1e308], "inf")])
    def test_from_raw_rejects_mass_it_cannot_scale(self, raw, mass):
        with pytest.raises(ValidationError, match=f"cannot normalize a load vector of mass {mass}"):
            LoadProfile.from_raw(raw)

    def test_from_raw_rescales(self):
        p = LoadProfile.from_raw((0.5, 0.5))
        assert math.fsum(p.loads) == 2.0

    def test_one_based_accessor(self):
        p = LoadProfile((0.5, 1.5))
        assert p.load(1) == 0.5
        assert p.load(2) == 1.5


class TestSystemCost:
    def test_balanced_no_attack(self):
        inst = GameInstance.linear(2)
        assert system_cost(inst, LoadProfile((1.0, 1.0))) == 1.0

    def test_attacked_optimal_profile(self):
        inst = GameInstance.linear(2, 1.0)
        assert system_cost(inst, LoadProfile((0.75, 1.25))) == 1.4375

    def test_attacked_selfish_profile(self):
        inst = GameInstance.linear(2, 1.0)
        assert system_cost(inst, LoadProfile((0.5, 1.5))) == 1.5

    def test_length_mismatch(self):
        inst = GameInstance.linear(3, 1.0)
        with pytest.raises(ValidationError):
            system_cost(inst, LoadProfile((1.0, 1.0)))

    def test_sequence_matches_its_profile(self):
        inst = GameInstance(3, ((0.0, 1.0), (0.0, 0.5, 1.0), (0.0, 2.0)), 2, 0.7)
        loads = (0.25, 1.5, 1.25)
        assert repr(system_cost(inst, loads)) == repr(system_cost(inst, LoadProfile(loads)))

    @pytest.mark.parametrize("loads, message", [
        # the length is checked before the mass: (1.5, 1.5) once read as a mass error
        ((1.5, 1.5), "profile has 2 servers, instance has 3"),
        ((1.0, 1.0, 1.5), "profile mass 3.5 differs from required 3"),
    ])
    def test_sequence_errors_name_their_rule(self, loads, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            system_cost(GameInstance.linear(3, 1.0), loads)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_cost_bits_match_per_index_sum(self, data):
        # the cached offsets give the per-index expression bit for bit; repr
        # keeps signed zeros, inf and NaN apart
        value = st.floats(0.0, 4.0) | st.floats(0.0, 1e300)
        n = data.draw(st.integers(1, 5))
        delays = [data.draw(st.lists(value, min_size=1, max_size=4)) for _ in range(n)]
        # an infinite strength, once drawn here too, no longer builds an instance
        instance = GameInstance(n, tuple(delays), data.draw(st.integers(1, n)),
                                data.draw(value))
        loads = data.draw(st.lists(value | st.just(-0.0), min_size=n, max_size=n))
        total = 0.0
        for i, x in enumerate(loads, start=1):
            total += x * (instance.delays[i - 1](x) + instance.attack_bonus(i))
        assert repr(instance.cost(loads)) == repr(total / n)

    @pytest.mark.parametrize("loads", [(1.0,), (1.0, 1.0, 1.0)], ids=["short", "long"])
    def test_cost_rejects_wrong_length(self, loads):
        with pytest.raises(ValueError, match=r"^cost needs 2 loads, one per server, "
                                             rf"got {len(loads)}$"):
            GameInstance.linear(2, 1.0).cost(loads)

    @given(
        weights=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=5),
        alpha=st.floats(0.0, 6.0),
        c1=st.floats(0.1, 3.0),
        c2=st.floats(0.0, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_attack_cost_identity(self, weights, alpha, c1, c2):
        # attacked cost == calm cost + x_1 * alpha / n, an exact decomposition
        n = len(weights)
        total = math.fsum(weights)
        loads = LoadProfile(tuple(w * n / total for w in weights))
        calm = GameInstance.identical(n, (0.0, c1, c2))
        attacked = GameInstance.identical(n, (0.0, c1, c2), attack_strength=alpha)
        lhs = system_cost(attacked, loads)
        rhs = system_cost(calm, loads) + loads.load(1) * alpha / n
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, data):
        n = data.draw(st.integers(2, 5))
        coeff_sets = [
            (0.5, data.draw(st.floats(0.1, 2.0)), data.draw(st.floats(0.0, 1.0)))
            for _ in range(n)
        ]
        weights = [data.draw(st.floats(0.01, 1.0)) for _ in range(n)]
        total = math.fsum(weights)
        loads = [w * n / total for w in weights]
        alpha = data.draw(st.floats(0.0, 4.0))
        target = data.draw(st.integers(1, n))
        perm = data.draw(st.permutations(list(range(n))))

        base = GameInstance(n, tuple(coeff_sets), target, alpha)
        shuffled = GameInstance(n, tuple(coeff_sets[p] for p in perm),
                                perm.index(target - 1) + 1, alpha)
        c1 = system_cost(base, LoadProfile.from_raw(loads))
        c2 = system_cost(shuffled, LoadProfile.from_raw([loads[p] for p in perm]))
        assert abs(c1 - c2) <= 1e-12 * max(1.0, abs(c1))


class TestFullAccess:
    @pytest.mark.parametrize("mass", [-1.0, -1e-300, math.nan])
    def test_rejects_negative_or_nan_mass(self, mass):
        with pytest.raises(ValueError, match="machine mass"):
            SchedulerPopulation.full_access(3, mass)

    def test_zero_mass_means_no_machines(self):
        pop = SchedulerPopulation.full_access(3, 0.0)
        assert pop.machine_count == 0
        assert pop.selfish_mass == 3.0


class TestAtMass:
    NESTED = SchedulerPopulation.for_instance(4, ((0.5, (1, 2)), (1.5, None)), (2, 3))

    @pytest.mark.parametrize("r", [-1.0, -1e-300, -math.inf, math.nan])
    def test_rejects_negative_or_nan_mass(self, r):
        # a negative mass once dropped the machines silently
        with pytest.raises(ValueError, match="^machine mass must be nonnegative, got"):
            self.NESTED.at_mass(r)

    @pytest.mark.parametrize("r", [0.0, -0.0])
    def test_zero_mass_drops_the_machines(self, r):
        pop = self.NESTED.at_mass(r)
        assert pop.machine_count == 0
        assert pop.selfish_mass == 4.0
        assert pop.selfish_access == frozenset({2, 3})
        assert SchedulerPopulation.for_instance(2).at_mass(r) == SchedulerPopulation.for_instance(2)

    def test_positive_mass_without_machines_names_them(self):
        # once a bare ZeroDivisionError
        with pytest.raises(ValueError, match="no machines"):
            SchedulerPopulation.for_instance(3).at_mass(1.0)

    def test_keeps_access_and_proportions(self):
        pop = self.NESTED.at_mass(3.0)
        assert pop.machine_masses == (0.75, 2.25)
        assert pop.machine_access == self.NESTED.machine_access
        assert pop.selfish_access == self.NESTED.selfish_access
        assert pop.selfish_mass == 1.0

    def test_mass_past_the_servers_is_an_overflow(self):
        with pytest.raises(ValidationError, match="^mass-overflow"):
            self.NESTED.at_mass(4.5)

    def test_same_floats_as_one_scale_factor(self):
        # every machine mass is m * (r / total), the bits the sweep has
        # always used
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randint(1, 6)
            masses = [rng.uniform(0.01, 1.0) for _ in range(rng.randint(1, 4))]
            scale_to = n / math.fsum(masses)
            masses = [m * scale_to * rng.uniform(0.05, 0.999) for m in masses]
            pop = SchedulerPopulation.for_instance(
                n, [(m, rng.sample(range(1, n + 1), rng.randint(1, n))) for m in masses])
            r = rng.choice([n, rng.uniform(0.0, n)])
            total = pop.machine_mass_total
            assert pop.at_mass(r).machine_masses == tuple(m * (r / total) for m in masses)

    def test_unit_full_access_rescales_to_full_access(self):
        rng = random.Random(12)
        for _ in range(2000):
            n = rng.randint(1, 6)
            r = rng.choice([0.0, float(n), rng.uniform(0.0, n)])
            assert SchedulerPopulation.full_access(n, 1.0).at_mass(r) == \
                SchedulerPopulation.full_access(n, r)


class TestPopulation:
    def test_rejects_masses_without_access_sets(self):
        with pytest.raises(ValueError, match="2 machine masses but 1 access sets"):
            SchedulerPopulation(2, (0.5, 0.5), (frozenset({1, 2}),), frozenset({1, 2}))

    def test_overflowing_machine_masses_are_a_mass_overflow(self):
        # the selfish mass 2 - (1e308 + 1e308) once raised a raw OverflowError
        with pytest.raises(ValidationError, match="^mass-overflow: machine masses sum to inf > 2$"):
            SchedulerPopulation.for_instance(2, ((1e308, None), (1e308, None)))

    def test_old_positional_order_fails_loudly(self):
        # the server count comes first, so masses in its place are no count
        with pytest.raises(ValueError, match="server count must be an integer"):
            SchedulerPopulation((1.0,), (frozenset({1, 2}),), frozenset({1, 2}), 1.0)


class TestDerivedSelfishMass:
    # the selfish mass is n - fsum(masses), the float for_instance stored
    # when it was a field; a sum past n by an ulp leaves a tiny negative
    # mass, which the oracle's random starts clamp to 0
    @given(data=st.data(), n=st.integers(1, 6), k=st.integers(1, 4),
           ulps=st.integers(-2, 2))
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit(self, data, n, k, ulps):
        share = st.floats(min_value=1e-300, max_value=n / k, allow_subnormal=False)
        masses = data.draw(st.lists(share, min_size=k - 1, max_size=k - 1))
        if data.draw(st.booleans(), label="fill to n"):
            last = n - math.fsum(masses)
            for _ in range(abs(ulps)):
                last = math.nextafter(last, math.copysign(math.inf, ulps))
            masses.append(last)
        pop = SchedulerPopulation.for_instance(n, [(m, None) for m in masses])
        assert pop.machine_masses == tuple(masses)
        assert pop.selfish_mass.hex() == (n - math.fsum(masses)).hex()

    def test_an_ulp_past_n_leaves_a_negative_mass(self):
        pop = SchedulerPopulation.for_instance(3, ((2.0000000000000004, None), (1.0, (2, 3))))
        assert pop.selfish_mass == -4.440892098500626e-16

    @pytest.mark.parametrize("changes, code", [
        ({"machine_masses": (0.0,)}, "nonpositive-machine-mass"),
        ({"machine_masses": (math.nan,)}, "nonpositive-machine-mass"),
        ({"machine_masses": (3.5,)}, "mass-overflow"),
        ({"machine_access": (frozenset(),)}, "empty-access"),
        ({"n": 2}, "bad-server-index"),
    ], ids=["zero", "nan", "overflow", "empty", "fewer-servers"])
    def test_replace_checks_the_population(self, changes, code):
        with pytest.raises(ValidationError, match=f"^{code}: "):
            replace(SchedulerPopulation.full_access(3, 1.0), **changes)


class TestServerCount:
    # the classmethods once raised a raw TypeError on 3.0, which the
    # GameInstance constructor itself accepts
    def test_integral_float(self):
        assert GameInstance.linear(3.0) == GameInstance.linear(3)
        assert GameInstance.identical(3.0, (0, 1)) == GameInstance.identical(3, (0, 1))
        assert SchedulerPopulation.for_instance(3.0, ()) == SchedulerPopulation.for_instance(3, ())
        assert SchedulerPopulation.full_access(3.0, 1.0) == SchedulerPopulation.full_access(3, 1.0)

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, True])
    def test_non_integral_named(self, n):
        for build in (lambda: GameInstance(n, ((0, 1),)), lambda: GameInstance.linear(n),
                      lambda: GameInstance.identical(n, (0, 1)),
                      lambda: SchedulerPopulation.for_instance(n, ()),
                      lambda: SchedulerPopulation.full_access(n, 1.0)):
            with pytest.raises(ValueError, match="server count must be an integer"):
                build()


class TestInstanceShape:
    @pytest.mark.parametrize("n", [0, -2])
    def test_count_below_one(self, n):
        with pytest.raises(ValueError, match=f"server count must be positive, got {n}"):
            GameInstance(n, ())

    def test_delay_count_differs(self):
        with pytest.raises(ValueError, match="expected 3 delay functions, got 2"):
            GameInstance(3, ((0, 1), (0, 1)))


class TestServerIndex:
    # int(i) once truncated 1.5 to server 1 and the population passed as well-formed
    @pytest.mark.parametrize("build", [
        lambda: SchedulerPopulation(2, (1.0,), ([1.5, 2],), [1, 2]),
        lambda: SchedulerPopulation(2, (1.0,), ([1, 2],), [1, 2.5]),
        lambda: SchedulerPopulation(2, (1.0,), ([True, 2],), [1, 2]),
    ], ids=["machine", "selfish", "machine-bool"])
    def test_constructor_rejects_non_integral(self, build):
        with pytest.raises(ValueError, match="server index must be an integer"):
            build()

    @pytest.mark.parametrize("machines, selfish", [(((1.0, [1.5, 2]),), None),
                                                    ((), [1, math.nan]),
                                                    ((), [True])],
                             ids=["machine", "selfish", "selfish-bool"])
    def test_for_instance_rejects_non_integral(self, machines, selfish):
        with pytest.raises(ValueError, match="server index must be an integer"):
            SchedulerPopulation.for_instance(2, machines, selfish)

    def test_integral_float_index(self):
        assert SchedulerPopulation.for_instance(2, ((1.0, [1.0, 2.0]),), [2.0]) == \
            SchedulerPopulation.for_instance(2, ((1.0, [1, 2]),), [2])

    # a 0 or negative index once read from the end of the tuple, and one past
    # the last server once read as an unattacked server
    @pytest.mark.parametrize("server", [0, -1, 3])
    def test_load_outside_servers(self, server):
        with pytest.raises(ValidationError, match=f"server {server} not in 1..2"):
            LoadProfile((0.5, 1.5)).load(server)

    @pytest.mark.parametrize("server", [0, -1, 4])
    def test_attack_bonus_outside_servers(self, server):
        with pytest.raises(ValidationError, match=f"server {server} not in 1..3"):
            GameInstance.linear(3, 1.0).attack_bonus(server)

    # 1.5 and True once read as an unattacked server, and load(True) as server 1
    @pytest.mark.parametrize("server", [1.5, True, math.nan])
    def test_attack_bonus_rejects_non_integral(self, server):
        instance = GameInstance.linear(3, 1.0, 2)
        with pytest.raises(ValueError, match="server index must be an integer"):
            instance.attack_bonus(server)
        assert instance.attack_bonus(2.0) == 1.0

    @pytest.mark.parametrize("server", [1.5, True, math.nan])
    def test_load_rejects_non_integral(self, server):
        profile = LoadProfile((0.5, 1.0, 1.5))
        with pytest.raises(ValueError, match="server index must be an integer"):
            profile.load(server)
        assert profile.load(2.0) == 1.0


class TestDisaggregatedProfile:
    def test_aggregate_loads_exactly_rounded(self):
        # a left-to-right sum drops each 1e-16 against 1.0
        profile = DisaggregatedProfile((1.0,), ((1e-16,), (1e-16,)))
        assert profile.aggregate_loads() == (1.0000000000000002,)

    def test_aggregate_loads_overflow_to_inf(self):
        assert DisaggregatedProfile((1e308,), ((1e308,),)).aggregate_loads() == (math.inf,)

    def test_machine_block_of_wrong_length_rejected(self):
        with pytest.raises(ValidationError, match="machine block 1 has 1 entries, expected 2"):
            DisaggregatedProfile((0.5, 0.5), ((1.0,),))


class TestPotential:
    @pytest.mark.parametrize("instance", [
        GameInstance.linear(2),
        GameInstance.linear(5, 1.5, 3),
        GameInstance.identical(3, (1.0, 0.0, 0.0, 2.0)),
        GameInstance(2, (DelayFunction((0.0, 1.0)), DelayFunction((3.0, 0.25))), 1, 1.0),
    ], ids=["linear2", "linear5", "cubic_shared", "linear_intercepts"])
    def test_has_potential(self, instance):
        assert _has_potential(instance)

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
        assert not _has_potential(instance)


class TestPopulationRules:
    # every mass and access rule raises when the population is built;
    # validate is left with the pairing
    def test_well_formed(self):
        inst = GameInstance.linear(2, 1.0)
        pop = SchedulerPopulation.full_access(2, 1.0)
        assert validate(inst, pop) == []

    def test_intercept_mismatch(self):
        # unequal intercepts are a paper-model restriction of the scenario
        # loader alone; the solvers run on them
        inst = GameInstance(2, ((0.0, 1.0), (1.0, 1.0)))
        pop = SchedulerPopulation.full_access(2, 1.0)
        assert validate(inst, pop) == []

    def test_server_count_mismatch(self):
        assert validate(GameInstance.linear(2), SchedulerPopulation.full_access(3, 1.0)) == [
            "server-count-mismatch: population has 3 servers, instance has 2"]

    def test_mass_overflow(self):
        with pytest.raises(ValidationError, match="^mass-overflow: machine masses sum to 2.1 > 2$"):
            SchedulerPopulation.for_instance(2, ((2.1, None),))

    @pytest.mark.parametrize("mass", [0.0, -0.5, -0.0])
    def test_nonpositive_machine_mass(self, mass):
        with pytest.raises(ValidationError,
                           match=f"^nonpositive-machine-mass: machine 1 has mass {mass}$"):
            SchedulerPopulation.for_instance(2, ((mass, None),))

    def test_nan_machine_mass_names_only_its_rule(self):
        # the stored selfish mass was NaN too, and its mismatch once led the message
        with pytest.raises(ValidationError) as exc:
            SchedulerPopulation.for_instance(3, ((math.nan, None),))
        assert str(exc.value) == "nonpositive-machine-mass: machine 1 has mass nan"

    def test_bad_server_index(self):
        with pytest.raises(ValidationError, match="^bad-server-index: machine 1 references server 3$"):
            SchedulerPopulation.for_instance(2, ((1.0, (1, 3)),))

    def test_empty_access(self):
        with pytest.raises(ValidationError, match="^empty-access: machine 1$"):
            SchedulerPopulation(2, (1.0,), (frozenset(),), frozenset({1, 2}))

    def test_empty_selfish_access(self):
        with pytest.raises(ValidationError, match="^empty-access: selfish population$"):
            SchedulerPopulation.for_instance(2, ((1.0, None),), ())

    def test_every_violation_in_order(self):
        with pytest.raises(ValidationError) as exc:
            SchedulerPopulation.for_instance(2, ((3.0, (1, 3)), (0.0, ())), (0,))
        assert str(exc.value) == (
            "mass-overflow: machine masses sum to 3.0 > 2; "
            "nonpositive-machine-mass: machine 2 has mass 0.0; "
            "bad-server-index: machine 1 references server 3; "
            "empty-access: machine 2; "
            "bad-server-index: selfish population references server 0")


_MAX = sys.float_info.max
#: (n, coefficients, target, strength, error, match) per rejected attack; the
#: inputs of the lattice oracle's former attack guards and of validate's
#: former attack checks included
BAD_ATTACKS = [
    *[(n, (0.0, 1.0), 1, math.inf, ValidationError, "nonfinite-attack-strength")
      for n in (2, 3, 4, 5)],
    (3, (0.0, 1.0), 1, math.nan, ValidationError, "nonfinite-attack-strength"),
    (3, (0.0, 1.0), 1, -0.5, ValidationError, "negative-attack-strength"),
    (3, (0.0, 1.0), 1, -1e-300, ValidationError, "negative-attack-strength"),
    (2, (0.0, 1.0), 1, -1.0, ValidationError, "negative-attack-strength"),
    # 0 * (tau(0) + alpha) = 0 * inf would put a NaN at load 0 of the lattice's table
    *[(3, (_MAX,), target, 1e308, ValidationError, "attack-overflow") for target in (1, 2, 3)],
    (2, (1e308, 1.0), 1, 1e308, ValidationError, "attack-overflow"),
    # target 5 on three servers once gave the lattice's unattacked optimum
    *[(3, (0.0, 1.0), target, 1.0, ValidationError, "bad-attack-target") for target in (0, 5)],
    (2, (0.0, 1.0), 5, 1.0, ValidationError, "bad-attack-target"),
    # target 1.5 once attacked no server, and True attacked server 1
    (3, (0.0, 1.0), 1.5, 2.0, ValueError, "attack target must be an integer"),
    (3, (0.0, 1.0), True, 1.0, ValueError, "attack target must be an integer"),
]

_BUILDERS = {
    "constructor": lambda n, coeffs, target, strength: GameInstance(
        n, (coeffs,) * n, target, strength),
    "identical": lambda n, coeffs, target, strength: GameInstance.identical(
        n, coeffs, strength, target),
    "linear": lambda n, coeffs, target, strength: GameInstance.linear(n, strength, target),
    "replace": lambda n, coeffs, target, strength: replace(
        GameInstance.identical(n, coeffs), attack_target=target, attack_strength=strength),
}


class TestAttackGate:
    """Every instance checks its attack when it is built, by each way of
    building one; ``linear`` builds only the unit-slope cases."""

    @pytest.mark.parametrize("builder, n, coeffs, target, strength, error, match", [
        pytest.param(builder, n, coeffs, target, strength, error, match,
                     id=f"{builder}-{match.replace(' ', '-')}-n{n}-{target}-{strength}")
        for n, coeffs, target, strength, error, match in BAD_ATTACKS
        for builder in sorted(_BUILDERS) if builder != "linear" or coeffs == (0.0, 1.0)])
    def test_bad_attack_raises_when_built(self, builder, n, coeffs, target, strength,
                                          error, match):
        with pytest.raises(error, match=match) as info:
            _BUILDERS[builder](n, coeffs, target, strength)
        assert type(info.value) is error

    @pytest.mark.parametrize("builder", sorted(_BUILDERS))
    def test_integral_float_target_becomes_an_int(self, builder):
        instance = _BUILDERS[builder](3, (0.0, 1.0), 2.0, 2.0)
        assert instance.attack_target == 2 and type(instance.attack_target) is int
        assert instance == GameInstance.linear(3, 2.0, 2)
