"""Tests for the independent verifiers: best response and grid search."""

import warnings

import numpy as np
import pytest

from prosumer_market import (
    BestResponseResult,
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
from prosumer_market import oracle
from prosumer_market.market import _shaded_utility, _shading_length, _utility

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


# The full-array scans that the blocked ones replaced, kept as references
# the blocked scans must match bit for bit.

def _meshgrid_brute_force(config, mode, grid_points, zoom_passes=4):
    """brute_force_program with every cell of a pass in one meshgrid."""
    n, s = config.n_prosumers, config.s_max
    r, offsets, d_min = config.rates, config.offsets, config.d_min
    if mode == MODE_TRUE:
        def f(i, q):
            return _utility(r[i], offsets[i], q, warn=False)
    else:
        L = _shading_length(n, d_min)

        def f(i, q):
            return _shaded_utility(r[i], offsets[i], L, d_min, q, warn=False)
    lo_full, hi_full = -s, (n - 1) * s
    lo, hi = [lo_full] * (n - 1), [hi_full] * (n - 1)
    for _ in range(zoom_passes + 1):
        axes = [np.linspace(a, b, grid_points) for a, b in zip(lo, hi)]
        free = np.meshgrid(*axes, indexing="ij")
        q_last = -free[0]
        vals = f(0, free[0])
        for i, q in enumerate(free[1:], start=1):
            q_last = q_last - q
            vals = vals + f(i, q)
        vals = vals + f(n - 1, q_last)
        feasible = (q_last >= lo_full) & (q_last <= hi_full)
        vals = np.where(feasible, vals, -np.inf)
        k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        best = [float(axis[j]) for axis, j in zip(axes, k)]
        for j, (a, b) in enumerate(zip(lo, hi)):
            cell = (b - a) / (grid_points - 1)
            lo[j] = max(best[j] - 2 * cell, lo_full)
            hi[j] = min(best[j] + 2 * cell, hi_full)
    return oracle._certify(config, mode, np.array(best + [float(q_last[k])]))


def _full_best_response(i, thetas, config, grid_points):
    """best_response with the whole grid's payoffs in one array."""
    t = np.asarray(thetas, dtype=float)
    rival_sum = float(t.sum() - t[i])
    theta_hi = -rival_sum - config.eps_price
    theta_lb = oracle._capacity_lower_bound(rival_sum, config)

    def payoff(theta):
        price = -(theta + rival_sum) / (config.n_prosumers * config.d_min)
        q = config.d_min + theta / price
        return (_utility(config.rates[i], config.offsets[i], q, warn=False)
                - price * q)

    grid = np.linspace(theta_lb, theta_hi, grid_points)
    payoffs = payoff(grid)
    k = int(np.argmax(payoffs))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid_points - 1)]
    span = theta_hi - theta_lb
    theta_star, payoff_star = oracle._golden_max(
        lambda x: float(payoff(np.array([x]))[0]), lo, hi,
        tol=1e-12 * max(1.0, span))
    if payoffs[k] > payoff_star:
        theta_star, payoff_star = grid[k], float(payoffs[k])
    payoff_at_candidate = strategic_payoff(i, t, config)
    return BestResponseResult(i, float(theta_star), float(payoff_star),
                              payoff_at_candidate,
                              float(payoff_star - payoff_at_candidate))


def _random_markets(n, count, seed):
    """Seeded markets of n prosumers, concave or not, one of them symmetric."""
    rng = np.random.default_rng([seed, n])
    markets = [MarketConfig(n, 1.0, 0.6, (4.0,) * n)]
    for _ in range(count - 1):
        d_min = float(rng.uniform(0.3, 4.0))
        betas = tuple(float(b) for b in rng.uniform(0.5, 12.0, n))
        s_max = float(rng.uniform(0.1, 3.0)) * d_min
        markets.append(MarketConfig(n, d_min, s_max, betas))
    return markets


def _assert_same_allocation(got, want):
    for name in ("quantities", "dual_price", "kkt_residuals", "at_capacity"):
        a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestBlockedScans:
    # none of these grids fills a whole number of _BLOCK-cell blocks; the
    # N=3 reference holds grid_points**2 cells per array, so its grid stays
    # at 2001 to keep the reference's memory small, and its smaller grids
    # run one zoom pass to keep its time small
    @pytest.mark.parametrize("n, grid_points, count, zoom_passes", [
        (2, 1000, 4, 4), (2, 1001, 4, 4), (2, 2001, 4, 4), (2, 3162, 4, 4),
        (2, 20001, 4, 4), (3, 1000, 3, 1), (3, 1001, 3, 1), (3, 2001, 1, 4)])
    def test_brute_force_matches_meshgrid_scan(self, n, grid_points, count,
                                               zoom_passes):
        for config in _random_markets(n, count, seed=grid_points):
            for mode in (MODE_TRUE, MODE_MODIFIED):
                _assert_same_allocation(
                    brute_force_program(config, mode, grid_points,
                                        zoom_passes),
                    _meshgrid_brute_force(config, mode, grid_points,
                                          zoom_passes))

    @pytest.mark.parametrize("grid_points", [8191, 8192, 8193, 200_000])
    def test_best_response_matches_full_scan(self, grid_points):
        rng = np.random.default_rng(grid_points)
        cfg = MarketConfig(11, 4.0, 3.0, tuple(2.0 + 0.1 * i for i in range(11)))
        profiles = [(cfg, solve_dual(cfg, MODE_MODIFIED).thetas)]
        for n in (2, 4, 7):
            betas = tuple(rng.uniform(0.5, 12.0, n))
            d_min = float(rng.uniform(0.3, 4.0))
            s_max = float(rng.uniform(0.1, 1.5)) * d_min * (n - 1)
            profiles.append((MarketConfig(n, d_min, s_max, betas),
                             -rng.uniform(0.1, 3.0, n)))
        for config, thetas in profiles:
            for i in (0, config.n_prosumers - 1):
                assert (best_response(i, thetas, config, grid_points)
                        == _full_best_response(i, thetas, config, grid_points))

    def test_first_argmax_keeps_first_tie_across_blocks(self):
        blocks = [np.array([1.0, 3.0]), np.array([[3.0, 2.0], [3.0, 0.0]])]
        assert oracle._first_argmax(blocks) == (1, 3.0)
        blocks = [np.array([1.0, 2.0]), np.array([0.0, 3.0, 3.0])]
        assert oracle._first_argmax(blocks) == (3, 3.0)

    def test_first_argmax_all_minus_inf(self):
        blocks = [np.full(3, -np.inf), np.full((2, 2), -np.inf)]
        assert oracle._first_argmax(blocks) == (0, -np.inf)
        blocks = [np.full(3, -np.inf), np.array([-np.inf, -5.0])]
        assert oracle._first_argmax(blocks) == (4, -5.0)

    def test_first_argmax_matches_np_argmax_on_nan(self):
        whole = np.array([1.0, 4.0, 2.0, np.nan, 5.0, np.nan])
        k, v = oracle._first_argmax(np.split(whole, 3))
        assert k == np.argmax(whole) == 3 and np.isnan(v)


class TestSaturationWarnings:
    # r*s_max = 800 > 700 on every prosumer: each curve reaches the clamp
    @pytest.mark.parametrize("mode", [MODE_TRUE, MODE_MODIFIED])
    def test_brute_force_warns_once(self, mode):
        cfg = MarketConfig(3, 1.0, 4.0, (1000.0,) * 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            brute_force_program(cfg, mode, grid_points=1000)
        assert [w.category for w in caught] == [SaturationWarning]
        assert caught[0].filename == __file__

    def test_best_response_warns_once(self):
        # q_i reaches -s_max = -1.5 at the lowest bid, and r*1.5 = 1500
        cfg = MarketConfig(3, 1.0, 1.5, (5000.0,) * 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            best_response(0, np.full(3, -1.0), cfg, grid_points=20_000)
        assert [w.category for w in caught] == [SaturationWarning]
        assert caught[0].filename == __file__

    def test_no_warning_below_the_clamp(self):
        cfg = MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            brute_force_program(cfg, MODE_MODIFIED)
            best_response(0, np.full(3, -1.0), cfg, grid_points=20_000)
