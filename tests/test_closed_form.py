import math
from fractions import Fraction

import pytest

from teamsched import (
    GameInstance,
    baseline_cost,
    classify_regime,
    constrained_team_cost,
    grid_search_optimum,
    optimal_cost_linear,
    optimal_profile_linear,
    penetration_threshold,
    selfish_profile_linear,
    stackelberg_cost,
    system_cost,
    team_cost_linear,
)
from teamsched.closed_form import (
    REGIME_INTERMEDIATE,
    REGIME_OPTIMAL,
    REGIME_SELFISH,
)

NA_PAIRS = [(n, a / 4) for n in (2, 3, 5, 10) for a in range(0, 17)]


class TestPenetrationThreshold:
    def test_reference_point(self):
        assert penetration_threshold(2, 1.0) == 0.75

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_no_attack(self, n):
        assert penetration_threshold(n, 0.0) == 1.0

    def test_clamped_at_zero(self):
        assert penetration_threshold(2, 4.0) == 0.0
        assert penetration_threshold(2, 6.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            penetration_threshold(1, 1.0)
        with pytest.raises(ValueError):
            penetration_threshold(2, -0.5)


class TestRegime:
    def test_labels(self):
        assert classify_regime(2, 1.0, 1.0).label == REGIME_OPTIMAL
        assert classify_regime(2, 0.6, 1.0).label == REGIME_INTERMEDIATE
        assert classify_regime(2, 0.25, 1.0).label == REGIME_SELFISH

    def test_boundaries_belong_to_outer_branches(self):
        # r exactly at the threshold is optimal, exactly at the knee selfish
        assert classify_regime(2, 0.75, 1.0).label == REGIME_OPTIMAL
        assert classify_regime(2, 0.5, 1.0).label == REGIME_SELFISH

    def test_knee_identity_exact_rational(self):
        # r_bar - alpha(n-1)/(2n) == 1 - alpha(n-1)/n, verified without floats
        for n, alpha in ((2, Fraction(1)), (3, Fraction(7, 5)), (10, Fraction(12, 7))):
            r_bar = 1 - alpha * (n - 1) / (2 * n)
            assert r_bar - alpha * (n - 1) / (2 * n) == 1 - alpha * (n - 1) / n

    def test_knee_fields_agree(self):
        for n, alpha in NA_PAIRS:
            reg = classify_regime(n, 0.0, alpha)
            assert reg.selfish_knee <= reg.r_bar
            assert reg.r_bar <= 1.0


class TestTeamCost:
    def test_optimal_regime_anchor(self):
        assert abs(team_cost_linear(2, 1.0, 1.0) - 1.4375) <= 1e-12

    def test_intermediate_anchor(self):
        assert abs(team_cost_linear(2, 0.6, 1.0) - 1.46) <= 1e-12

    def test_selfish_anchor(self):
        assert abs(team_cost_linear(2, 0.25, 1.0) - 1.5) <= 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            team_cost_linear(2, -0.1, 1.0)
        with pytest.raises(ValueError):
            team_cost_linear(2, 2.5, 1.0)
        with pytest.raises(ValueError):
            team_cost_linear(1, 0.5, 1.0)

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.5])
    def test_server_count_named(self, n):
        # NaN once failed with "cannot convert float NaN to integer"
        for call in (lambda: team_cost_linear(n, 1.0, 1.0), lambda: stackelberg_cost(n, 1.0)):
            with pytest.raises(ValueError, match="server count must be an integer"):
                call()

    def test_integral_float_server_count(self):
        assert team_cost_linear(3.0, 1.0, 1.0) == team_cost_linear(3, 1.0, 1.0)

    def test_continuous_at_both_knees(self):
        for n, alpha in NA_PAIRS:
            r_bar = 1.0 - alpha * (n - 1) / (2 * n)
            knee = 1.0 - alpha * (n - 1) / n
            cap = n / (n - 1)
            middle = lambda r: min(cap, (r * r + r * (alpha * (n - 1) / n - 2) + n) / (n - 1))
            if 0.0 <= r_bar <= n:
                assert abs(middle(r_bar) - optimal_cost_linear(n, alpha)) <= 1e-10
            if 0.0 <= knee <= n:
                assert abs(middle(knee) - min(cap, 1 + alpha / n)) <= 1e-10

    def test_nonincreasing_in_r(self):
        for n, alpha in NA_PAIRS:
            costs = [team_cost_linear(n, n * i / 99, alpha) for i in range(100)]
            assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_never_above_baseline(self):
        for n, alpha in NA_PAIRS:
            for i in range(0, 100, 7):
                r = n * i / 99
                assert team_cost_linear(n, r, alpha) <= baseline_cost(n, alpha) + 1e-12

    def test_bounded_harm(self):
        for n, alpha in NA_PAIRS:
            for i in range(0, 100, 7):
                r = n * i / 99
                assert team_cost_linear(n, r, alpha) <= n / (n - 1) + 1e-12

    def test_matches_optimal_profile_cost(self):
        for n, alpha in NA_PAIRS:
            inst = GameInstance.linear(n, alpha)
            profile_cost = system_cost(inst, optimal_profile_linear(n, alpha))
            assert abs(profile_cost - optimal_cost_linear(n, alpha)) <= 1e-12

    def test_matches_selfish_profile_cost(self):
        for n, alpha in NA_PAIRS:
            inst = GameInstance.linear(n, alpha)
            profile_cost = system_cost(inst, selfish_profile_linear(n, alpha))
            assert abs(profile_cost - team_cost_linear(n, 0.0, alpha)) <= 1e-12


class TestProfiles:
    def test_optimal_reference(self):
        assert optimal_profile_linear(2, 1.0).loads == (0.75, 1.25)

    def test_optimal_no_attack(self):
        assert optimal_profile_linear(3, 0.0).loads == (1.0, 1.0, 1.0)

    def test_optimal_abandons_under_heavy_attack(self):
        # 1 - 4*2/6 < 0 clamps the attacked load to zero
        assert optimal_profile_linear(3, 4.0).loads == (0.0, 1.5, 1.5)

    def test_optimal_beats_lattice(self):
        for n in (2, 3):
            for alpha in (0.0, 0.5, 1.0, 2.0):
                inst = GameInstance.linear(n, alpha)
                _, lattice_cost = grid_search_optimum(inst, 1e-3)
                mine = system_cost(inst, optimal_profile_linear(n, alpha))
                assert mine <= lattice_cost + 1e-12

    def test_selfish_reference(self):
        assert selfish_profile_linear(2, 1.0).loads == (0.5, 1.5)
        assert selfish_profile_linear(2, 0.0).loads == (1.0, 1.0)

    def test_selfish_abandonment(self):
        profile = selfish_profile_linear(3, 2.0)
        assert profile.loads == (0.0, 1.5, 1.5)
        # abandoning is an equilibrium: attacked delay 0+2 >= common level 1.5
        assert 0.0 + 2.0 >= profile.loads[1]


class TestBaselines:
    def test_baseline_values(self):
        assert baseline_cost(2, 1.0) == 1.5
        assert baseline_cost(5, 0.0) == 1.0
        assert baseline_cost(3, 3.0) == 2.0

    def test_constrained_values(self):
        assert abs(constrained_team_cost(3, 1.0) - 4 / 3) <= 1e-15
        assert constrained_team_cost(3, 2.0) == 1.5
        assert constrained_team_cost(3, 0.0) == 1.0

    def test_constrained_needs_three_servers(self):
        with pytest.raises(ValueError):
            constrained_team_cost(2, 1.0)

    def test_constrained_equals_zero_penetration(self):
        for n in (3, 4, 6):
            for alpha in (0.0, 0.4, 1.0, 1.7, 3.0):
                assert constrained_team_cost(n, alpha) == team_cost_linear(n, 0.0, alpha)
