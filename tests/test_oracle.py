"""Tests for the independent verifiers: best response and grid search."""

import warnings

import numpy as np
import pytest

from prosumer_market import (
    DomainError,
    MODE_MODIFIED,
    MODE_TRUE,
    MarketConfig,
    SaturationWarning,
    TooLarge,
    UnboundedPayoff,
    best_response,
    brute_force_program,
    clearing_price,
    quantity_from_bid,
    solve_dual,
    strategic_payoff,
)

# e^-0.4 - 1, computed with 40-digit arithmetic
PAYOFF_N2_SYMMETRIC = -0.32967995396436071414


class TestStrategicPayoff:
    def test_symmetric_equilibrium_payoff_is_utility_at_zero(self):
        cfg = MarketConfig(2, 1.0, 3.0, (2.0, 2.0))
        thetas = np.array([-1.0, -1.0])  # price 1, both at q=0
        assert strategic_payoff(0, thetas, cfg) == pytest.approx(
            PAYOFF_N2_SYMMETRIC, abs=1e-15)

    def test_zero_bid_pays_for_inelastic_demand(self):
        cfg = MarketConfig(3, 2.0, 3.0, (1.5, 1.5, 1.5))
        thetas = np.array([0.0, -3.0, -3.0])
        price = 6.0 / (3 * 2.0)
        # q_i = d_min, utility there is zero, so the payoff is the payment
        assert strategic_payoff(0, thetas, cfg) == pytest.approx(
            -price * cfg.d_min, rel=1e-12)

    def test_rejects_nonnegative_bid_sum(self):
        cfg = MarketConfig(2, 1.0, 3.0, (2.0, 2.0))
        with pytest.raises(DomainError):
            strategic_payoff(0, np.array([1.0, -1.0]), cfg)

    def test_rejects_wrong_length(self):
        cfg = MarketConfig(2, 1.0, 3.0, (2.0, 2.0))
        with pytest.raises(DomainError):
            strategic_payoff(0, np.array([-1.0, -1.0, -1.0]), cfg)


class TestPayoffUnboundedness:
    def test_payoff_grows_without_bound_under_positive_rival_sum(self):
        cfg = MarketConfig(2, 1.0, 3.0, (2.0, 2.0))
        own = np.array([-2.0, -5.0, -20.0, -100.0, -1e3, -1e4])
        payoffs = [strategic_payoff(0, np.array([t, 1.0]), cfg) for t in own]
        assert all(b > a for a, b in zip(payoffs, payoffs[1:]))
        assert payoffs[-1] - payoffs[0] >= 1e3


class TestBestResponse:
    def test_symmetric_fixed_point_n2(self):
        # concave regime for n=2 needs steep utility; the symmetric
        # stationary point is then the global best response
        cfg = MarketConfig(2, 1.0, 0.3, (12.0, 12.0))
        nash = solve_dual(cfg, MODE_MODIFIED)
        mu = nash.price
        np.testing.assert_allclose(nash.thetas, -mu * cfg.d_min, atol=1e-9)
        res = best_response(0, nash.thetas, cfg)
        assert res.theta_star == pytest.approx(nash.thetas[0], abs=1e-5)
        assert res.gap <= 1e-6

    def test_gap_at_solved_equilibrium(self):
        cfg = MarketConfig(11, 4.0, 3.0, tuple(2.0 + 0.1 * i for i in range(11)))
        nash = solve_dual(cfg, MODE_MODIFIED)
        for i in (0, 5, 10):
            res = best_response(i, nash.thetas, cfg, grid_points=100_000)
            assert res.gap <= 1e-6
            assert res.gap >= -1e-9
            assert res.prosumer_index == i

    def test_perturbed_profile_shows_positive_gap(self):
        cfg = MarketConfig(11, 4.0, 3.0, tuple(2.0 + 0.1 * i for i in range(11)))
        nash = solve_dual(cfg, MODE_MODIFIED)
        perturbed = nash.thetas.copy()
        perturbed[0] *= 1.10
        res = best_response(0, perturbed, cfg)
        assert res.gap > 1e-6

    def test_theta_star_within_interval(self):
        cfg = MarketConfig(11, 4.0, 3.0, tuple(2.0 + 0.1 * i for i in range(11)))
        nash = solve_dual(cfg, MODE_MODIFIED)
        res = best_response(0, nash.thetas, cfg)
        rival_sum = nash.thetas.sum() - nash.thetas[0]
        assert res.theta_star <= -rival_sum - cfg.eps_price + 1e-12

    @pytest.mark.parametrize("c", [0.5, 0.95, 0.99])
    def test_lowest_bid_reaches_capacity(self, c):
        # a nearly flat curve makes selling everything the best response, so
        # the search returns its lowest bid, which must put q_i at -s_max.
        # c = (s_max + d_min)/(N*d_min) is the rate of the fixed-point map
        # that bid solves; iterating the map converges slowly near c = 1
        n, d_min = 4, 1.0
        s_max = c * n * d_min - d_min
        cfg = MarketConfig(n, d_min, s_max, (0.05, 2.0, 2.0, 2.0))
        thetas = np.full(n, -1.0)
        res = best_response(0, thetas, cfg)
        thetas[0] = res.theta_star
        price = clearing_price(thetas, d_min)
        q = quantity_from_bid(res.theta_star, price, d_min)
        assert q == pytest.approx(-s_max, abs=1e-12)

    def test_rejects_nonnegative_rival_sum(self):
        cfg = MarketConfig(2, 1.0, 3.0, (2.0, 2.0))
        with pytest.raises(UnboundedPayoff):
            best_response(0, np.array([-1.0, 0.0]), cfg)

    def test_best_response_grid_cap(self):
        cfg = MarketConfig(2, 1.0, 0.3, (12.0, 12.0))
        thetas = solve_dual(cfg, MODE_MODIFIED).thetas
        with pytest.raises(TooLarge, match="grid points"):
            best_response(0, thetas, cfg, grid_points=10_000_001)
        assert best_response(0, thetas, cfg, grid_points=1000).gap <= 1e-6


class TestBruteForce:
    def test_symmetric_n2_is_zero(self):
        cfg = MarketConfig(2, 1.0, 1.0, (2.0, 2.0))
        alloc = brute_force_program(cfg, MODE_TRUE)
        np.testing.assert_allclose(alloc.quantities, 0.0, atol=1e-6)

    def test_agrees_with_dual_n2_true(self):
        cfg = MarketConfig(2, 4.0, 3.0, (2.0, 3.0))
        dual = solve_dual(cfg, MODE_TRUE)
        grid = brute_force_program(cfg, MODE_TRUE)
        np.testing.assert_allclose(
            grid.quantities, dual.allocation.quantities, atol=1e-4)

    def test_agrees_with_dual_n3_both_modes_concave(self):
        cfg = MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5))
        # concave regime: capacity bound sits above every concavity onset
        assert np.all(cfg.concavity_thresholds <= -cfg.s_max)
        for mode in (MODE_TRUE, MODE_MODIFIED):
            dual = solve_dual(cfg, mode)
            grid = brute_force_program(cfg, mode)
            np.testing.assert_allclose(
                grid.quantities, dual.allocation.quantities, atol=1e-4)

    def test_balance_and_capacity_feasibility(self):
        cfg = MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5))
        alloc = brute_force_program(cfg, MODE_TRUE)
        assert abs(alloc.quantities.sum()) < 1e-9
        assert np.all(alloc.quantities >= -cfg.s_max - 1e-12)

    def test_too_large(self):
        cfg = MarketConfig(4, 1.0, 1.0, (2.0,) * 4)
        with pytest.raises(TooLarge):
            brute_force_program(cfg, MODE_TRUE)

    @pytest.mark.parametrize("n, largest", [(2, 10_000_000), (3, 3162)])
    def test_grid_cap(self, n, largest, monkeypatch):
        # the cap applies to grid_points**(N-1), before any grid is built
        class GridBuilt(Exception):
            pass

        def build(*args, **kwargs):
            raise GridBuilt

        cfg = MarketConfig(n, 1.0, 1.0, (2.0,) * n)
        monkeypatch.setattr(np, "linspace", build)
        with pytest.raises(TooLarge, match="grid points"):
            brute_force_program(cfg, MODE_TRUE, grid_points=largest + 1)
        with pytest.raises(GridBuilt):
            brute_force_program(cfg, MODE_TRUE, grid_points=largest)

    def test_grid_floor(self):
        cfg = MarketConfig(2, 1.0, 1.0, (2.0, 2.0))
        with pytest.raises(DomainError):
            brute_force_program(cfg, MODE_TRUE, grid_points=100)

    def test_mode_validation(self):
        cfg = MarketConfig(2, 1.0, 1.0, (2.0, 2.0))
        with pytest.raises(DomainError):
            brute_force_program(cfg, "nash")

    @pytest.mark.parametrize("mode", [MODE_TRUE, MODE_MODIFIED])
    def test_saturation_warns(self, mode):
        # r*s_max = 800 > 700: the grid reaches the exponent clamp
        cfg = MarketConfig(2, 1.0, 4.0, (1000.0, 1000.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            brute_force_program(cfg, mode, grid_points=1000)
        assert any(issubclass(w.category, SaturationWarning) for w in caught)
