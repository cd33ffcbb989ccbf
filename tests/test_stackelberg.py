import math

import pytest

from teamsched import (
    GameInstance,
    LoadProfile,
    ValidationError,
    constrained_team_cost,
    follower_best_response,
    influence_threshold,
    kkt_multipliers,
    kkt_residuals,
    kkt_stationary_profile,
    optimal_cost_linear,
    optimal_leader_policy,
    optimal_stackelberg_solution,
    solve_stackelberg_numeric,
    stackelberg_cost,
    system_cost,
)
from teamsched.stackelberg import ABANDONING, INFLUENCING, kkt_validity_limit


class TestFollowerResponse:
    def test_interior_split(self):
        # equalize x1 + alpha with the total on server 2
        resp = follower_best_response([0.0, 5 / 6, 7 / 6], 3, 1.0)
        assert resp == pytest.approx([5 / 12, 7 / 12, 0.0], abs=1e-12)

    def test_no_attack_split(self):
        resp = follower_best_response([0.0, 0.5, 1.5], 3, 0.0)
        assert resp == pytest.approx([0.75, 0.25, 0.0], abs=1e-12)

    def test_dominated_attacked_server(self):
        resp = follower_best_response([0.0, 1.0, 1.0], 3, 5.0)
        assert resp == [0.0, 1.0, 0.0]

    def test_leader_on_attacked_server_rejected(self):
        with pytest.raises(ValidationError):
            follower_best_response([0.5, 0.5, 1.0], 3, 1.0)

    def test_wrong_mass_rejected(self):
        with pytest.raises(ValidationError):
            follower_best_response([0.0, 1.0, 0.5], 3, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_leader_load_rejected(self, bad):
        with pytest.raises(ValidationError, match="leader loads must be finite"):
            follower_best_response([0.0, bad, 1.0], 3, 0.5)

    def test_nash_split_consistency(self):
        # whichever side carries mass must not strictly prefer the other
        for alpha in (0.0, 0.5, 1.3, 2.0, 4.0):
            for x2m in (0.0, 0.4, 1.0, 1.8):
                leader = [0.0, x2m, 2.0 - x2m]
                resp = follower_best_response(leader, 3, alpha)
                x1 = resp[0]
                x2 = x2m + resp[1]
                if resp[0] > 1e-12:
                    assert x1 + alpha <= x2 + 1e-9
                if resp[1] > 1e-12:
                    assert x1 + alpha >= x2 - 1e-9


    def test_rejects_leader_of_wrong_length(self):
        with pytest.raises(ValidationError, match="leader vector has 2 entries, expected 3"):
            follower_best_response([0.0, 2.0], 3, 1.0)

    def test_rejects_overflowing_leader_mass(self):
        # math.fsum once raised a raw OverflowError on this leader
        with pytest.raises(ValidationError, match="leader mass inf differs"):
            follower_best_response([0.0, 1e308, 1e308], 3, 1.0)


class TestLeaderPolicy:
    def test_threshold_value(self):
        assert abs(influence_threshold(3) - 6 * (2 - math.sqrt(3))) <= 1e-12

    def test_influencing_policy(self):
        leader, branch = optimal_leader_policy(3, 1.0)
        assert branch == INFLUENCING
        assert leader == pytest.approx([0.0, 5 / 6, 7 / 6], abs=1e-12)

    def test_abandoning_policy(self):
        leader, branch = optimal_leader_policy(3, 2.0)
        assert branch == ABANDONING
        assert leader == pytest.approx([0.0, 0.5, 1.5], abs=1e-12)

    def test_no_attack_uniform(self):
        leader, _ = optimal_leader_policy(3, 0.0)
        assert leader == pytest.approx([0.0, 1.0, 1.0], abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_leader_policy(2, 1.0)
        with pytest.raises(ValueError):
            stackelberg_cost(3, -0.1)


class TestStackelbergCost:
    def test_reference_point(self):
        assert abs(stackelberg_cost(3, 1.0) - 95 / 72) <= 1e-12

    def test_no_attack(self):
        assert stackelberg_cost(3, 0.0) == 1.0

    def test_abandoning_plateau(self):
        assert stackelberg_cost(3, 2.0) == 1.5

    def test_closed_solution_cost_matches_formula(self):
        for alpha in [0.3 * i for i in range(11)]:
            sol = optimal_stackelberg_solution(3, alpha)
            assert abs(sol.cost - stackelberg_cost(3, alpha)) <= 1e-12
            assert abs(sol.cost - system_cost(GameInstance.linear(3, alpha),
                                              sol.aggregate)) <= 1e-12


class TestStationaryProfile:
    def test_three_servers(self):
        prof = kkt_stationary_profile(3, 1.0)
        assert prof.loads == pytest.approx((5 / 12, 17 / 12, 7 / 6), abs=1e-12)
        cost = system_cost(GameInstance.linear(3, 1.0), prof)
        assert abs(cost - 95 / 72) <= 1e-12

    def test_no_attack(self):
        assert kkt_stationary_profile(3, 0.0).loads == (1.0, 1.0, 1.0)

    def test_four_servers(self):
        prof = kkt_stationary_profile(4, 1.0)
        assert prof.loads == pytest.approx((0.375, 1.375, 1.125, 1.125), abs=1e-12)
        assert math.fsum(prof.loads) == pytest.approx(4.0, abs=1e-12)

    def test_validity_range(self):
        limit = kkt_validity_limit(3)
        assert abs(limit - 12 / 7) <= 1e-12
        kkt_stationary_profile(3, limit)  # boundary is allowed
        with pytest.raises(ValueError):
            kkt_stationary_profile(3, limit + 1e-6)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    def test_first_order_residuals(self, n, alpha):
        prof = kkt_stationary_profile(n, alpha)
        mult = kkt_multipliers(prof.loads, alpha)
        lam, mu1, mu2 = mult
        assert mu1 >= 0.0 and mu2 >= 0.0
        assert not (mu1 > 0.0 and mu2 > 0.0)
        assert all(r <= 1e-10 for r in kkt_residuals(prof.loads, alpha, mult))


class TestNumericSearch:
    def test_reference_point(self):
        sol = solve_stackelberg_numeric(3, 1.0, 1e-4)
        assert abs(sol.cost - 95 / 72) <= 1e-6
        assert abs(sol.leader[1] - 5 / 6) <= 1e-12
        assert sol.branch == INFLUENCING

    def test_abandoning_point(self):
        sol = solve_stackelberg_numeric(3, 2.0, 1e-4)
        assert abs(sol.cost - 1.5) <= 1e-6
        assert sol.branch == ABANDONING

    def test_no_attack(self):
        sol = solve_stackelberg_numeric(3, 0.0, 1e-4)
        assert abs(sol.cost - 1.0) <= 1e-9
        assert abs(sol.leader[1] - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_agrees_with_closed_form(self, n):
        threshold = influence_threshold(n)
        for i in range(21):
            alpha = 3.0 * i / 20
            sol = solve_stackelberg_numeric(n, alpha, 1e-4)
            assert abs(sol.cost - stackelberg_cost(n, alpha)) <= 1e-6
            policy, _ = optimal_leader_policy(n, alpha)
            if abs(alpha - threshold) > 1e-2:  # argmin jumps at the threshold
                assert abs(sol.leader[1] - policy[1]) <= 1e-12

    def test_solution_respects_follower_coupling(self):
        # any optimal commitment keeps the attacked server weakly attractive
        for alpha in [0.25 * i for i in range(13)]:
            sol = solve_stackelberg_numeric(3, alpha, 1e-3)
            x1, x2 = sol.aggregate.loads[0], sol.aggregate.loads[1]
            assert x1 + alpha >= x2 - 1e-9
            if sol.follower[0] > 1e-12:  # attacked side in use: must not regret
                assert x1 + alpha <= x2 + 1e-9
            lam, mu1, mu2 = sol.multipliers
            assert mu1 >= 0.0 and mu2 >= 0.0
            assert not (mu1 > 1e-12 and mu2 > 1e-12)

    def test_branch_switch_near_threshold(self):
        thr = influence_threshold(3)
        low = solve_stackelberg_numeric(3, thr - 0.01, 1e-4)
        high = solve_stackelberg_numeric(3, thr + 0.01, 1e-4)
        assert low.branch == INFLUENCING
        assert high.branch == ABANDONING
        assert abs(low.cost - high.cost) <= 5e-3  # cost stays continuous


def _grid_reference(n, alpha, grid_resolution):
    """Leader load of the grid-plus-golden-section search the exact piecewise
    search replaced: scan ``[0, n-1]``, keep the first point of every discrete
    local basin, refine each to width 1e-11 and take the strictly lowest."""
    span = float(n - 1)

    def cost_at(t):
        x1 = min(1.0, max(0.0, (1.0 + t - alpha) / 2.0))
        x2 = t + 1.0 - x1
        rest = (span - t) / (n - 2)
        return (x1 * (x1 + alpha) + x2 * x2 + (n - 2) * rest * rest) / n

    steps = int(math.ceil(span / grid_resolution))
    ts = [span * i / steps for i in range(steps + 1)]
    costs = [cost_at(t) for t in ts]
    basins = []
    for i in range(steps + 1):
        left = costs[i - 1] if i > 0 else math.inf
        right = costs[i + 1] if i < steps else math.inf
        if costs[i] <= left and costs[i] <= right:
            if basins and basins[-1] == i - 1 and costs[i] == costs[i - 1]:
                continue  # plateau: keep the first point of the run
            basins.append(i)

    best_t, best_cost = None, math.inf
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    for i in basins:
        a, b = ts[max(0, i - 1)], ts[min(steps, i + 1)]
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = cost_at(c), cost_at(d)
        while b - a > 1e-11:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = cost_at(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = cost_at(d)
        t = 0.5 * (a + b)
        f = cost_at(t)
        if f < best_cost:
            best_t, best_cost = t, f
    return best_t


class TestGridReference:
    @pytest.mark.parametrize("n", [3, 4, 5, 10])
    def test_matches_grid_search(self, n):
        # 1e-2 keeps the scan short; the refinement still ends at width 1e-11
        for i in range(301):
            alpha = i / 100
            t = _grid_reference(n, alpha, 1e-2)
            leader = [0.0, t] + [(n - 1 - t) / (n - 2)] * (n - 2)
            follower = follower_best_response(leader, n, alpha)
            aggregate = LoadProfile.from_raw([a + b for a, b in zip(leader, follower)])
            ref_cost = system_cost(GameInstance.linear(n, alpha), aggregate)
            ref_branch = INFLUENCING if follower[0] > 1e-9 else ABANDONING
            sol = solve_stackelberg_numeric(n, alpha)
            assert abs(sol.cost - ref_cost) <= 2e-15, (n, alpha)
            assert sol.branch == ref_branch, (n, alpha)

    def test_resolution_does_not_matter(self):
        for resolution in (1e-4, 1e-2, 0.1):
            assert solve_stackelberg_numeric(3, 1.0, resolution) == solve_stackelberg_numeric(3, 1.0)
        with pytest.raises(ValueError):
            solve_stackelberg_numeric(3, 1.0, 0.2)


class TestOrdering:
    def test_optimal_stackelberg_uninfluenced(self):
        for i in range(61):
            alpha = 3.0 * i / 60
            opt = optimal_cost_linear(3, alpha)
            stack = stackelberg_cost(3, alpha)
            uninfl = constrained_team_cost(3, alpha)
            assert opt <= stack + 1e-9
            assert stack <= uninfl + 1e-9
