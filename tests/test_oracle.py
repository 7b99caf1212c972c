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
    PANELS,
    SaturationWarning,
    TooLarge,
    UnboundedPayoff,
    best_response,
    brute_force_program,
    case_study_spec,
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

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("rival_sum", [-0.1, -1.0, -30.0])
    def test_no_equilibrium_when_capacity_reaches_the_shading_length(
            self, i, rival_sum):
        # s_max >= (N-1)*d_min = L: a prosumer whose rivals bid a negative
        # sum gains without bound as its bid falls, because its quantity
        # tends to -L from above, which the capacity bound allows, and the
        # price it is paid grows without bound. Every positive-price
        # profile has such a prosumer, so none is an equilibrium
        cfg = MarketConfig(2, 1.0, 4.0, (2.0, 3.0))
        length = cfg.d_min * (cfg.n_prosumers - 1)
        assert cfg.s_max >= length
        own = -np.logspace(1, 8, 8)
        thetas = np.full(2, rival_sum)
        payoffs, quantities = [], []
        for t in own:
            thetas[i] = t
            payoffs.append(strategic_payoff(i, thetas, cfg))
            quantities.append(quantity_from_bid(
                t, clearing_price(thetas, cfg.d_min), cfg.d_min))
        assert all(b > a for a, b in zip(payoffs, payoffs[1:]))
        # about -theta*(N-1)/N: linear in the bid
        assert payoffs[-1] > 0.4 * abs(own[-1])
        assert all(-length < q for q in quantities)
        assert all(b < a for a, b in zip(quantities, quantities[1:]))
        assert quantities[-1] == pytest.approx(-length, abs=1e-6)


class TestClosedFormPayoff:
    # The closed form and the definition S_i(q) - p*q round differently;
    # each is within a few ulps of the larger of S_i(q) and p*q, times
    # r*d_min*(N-1) for the exponent's cancellation, so the comparison is
    # relative to that term. Betas up to 60 keep r*d_min*(N-1) at most 120
    @staticmethod
    def _assert_agrees_with_definition(cfg, rival_sum):
        n, d = cfg.n_prosumers, cfg.d_min
        theta_lb = oracle._capacity_lower_bound(rival_sum, cfg)
        bids = np.linspace(theta_lb, -rival_sum - cfg.eps_price, 501)
        price = -(bids + rival_sum) / (n * d)
        q = d + bids / price
        for i in range(n):
            utility = _utility(cfg.rates[i], cfg.offsets[i], q, warn=False)
            definition = utility - price * q
            scale = 1e-13 * np.maximum(np.abs(utility), np.abs(price * q))
            thetas = np.zeros(n)
            thetas[i - 1] = rival_sum
            payoff = oracle._Payoff(i, thetas, cfg)
            scalar = np.array([payoff(float(b)) for b in bids])
            array = payoff.overwrite(bids.copy(), clamp=False)
            assert np.all(np.abs(scalar - definition) <= scale)
            assert np.all(np.abs(array - definition) <= scale)

    @pytest.mark.parametrize("betas, s_factor", [
        ((0.5, 12.0), (0.1, 0.95)), ((20.0, 60.0), (0.1, 0.95)),
        ((0.5, 12.0), (1.0, 3.0))], ids=["seeded", "steep", "fallback"])
    def test_agrees_with_definition(self, betas, s_factor):
        # s_factor scales s_max by (N-1)*d_min; from 1 up the capacity
        # bound has no fixed point and the search uses the -1e6 fallback
        rng = np.random.default_rng(19)
        for n in range(2, 12):
            d_min = float(rng.uniform(0.3, 4.0))
            s_max = float(rng.uniform(*s_factor)) * (n - 1) * d_min
            cfg = MarketConfig(n, d_min, s_max,
                               tuple(rng.uniform(*betas, n)))
            for rival_sum in -rng.uniform(0.05, 3.0, 3) * n:
                self._assert_agrees_with_definition(cfg, float(rival_sum))


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

    def test_rejects_empty_bid_interval(self):
        # rival sum -2: theta_hi = 2 - eps_price = -3 lies below the
        # capacity bound theta_lb = 1.5*(-2)/1.5 = -2
        cfg = MarketConfig(3, 1.0, 0.5, (2.0, 3.0, 4.0), eps_price=5.0)
        with pytest.raises(DomainError, match="empty bid interval"):
            best_response(0, np.full(3, -1.0), cfg, grid_points=1000)

    def test_rejects_nonnegative_rival_sum(self):
        cfg = MarketConfig(2, 1.0, 3.0, (2.0, 2.0))
        with pytest.raises(UnboundedPayoff):
            best_response(0, np.array([-1.0, 0.0]), cfg)

    @pytest.mark.parametrize("candidate", [1.0, 3.0])
    def test_rejects_candidate_without_a_price(self, candidate):
        # the rivals' sum -1 is negative, so a best response exists, but the
        # candidate's bid sum is >= 0 and its payoff is undefined
        cfg = MarketConfig(2, 1.0, 3.0, (2.0, 2.0))
        with pytest.raises(DomainError, match="positive price"):
            best_response(0, np.array([candidate, -1.0]), cfg,
                          grid_points=1000)

    def test_best_response_grid_cap(self):
        cfg = MarketConfig(2, 1.0, 0.3, (12.0, 12.0))
        thetas = solve_dual(cfg, MODE_MODIFIED).thetas
        with pytest.raises(TooLarge, match="grid points"):
            best_response(0, thetas, cfg, grid_points=10_000_001)
        assert best_response(0, thetas, cfg, grid_points=1000).gap <= 1e-6

    @pytest.mark.parametrize("grid_points", [2, 1, 0, -5])
    def test_best_response_grid_floor(self, grid_points):
        cfg = MarketConfig(2, 1.0, 0.3, (12.0, 12.0))
        with pytest.raises(DomainError, match="at least 3 grid points"):
            best_response(0, np.full(2, -1.0), cfg, grid_points=grid_points)

    @pytest.mark.parametrize("i", [-1, -3, 3, 7, 1.0, True, "0", None])
    def test_rejects_invalid_prosumer_index(self, i):
        cfg = MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5))
        thetas = np.full(3, -1.0)
        with pytest.raises(DomainError, match="prosumer index"):
            best_response(i, thetas, cfg, grid_points=1000)
        with pytest.raises(DomainError, match="prosumer index"):
            strategic_payoff(i, thetas, cfg)

    @pytest.mark.parametrize("bid", [np.nan, -np.inf, np.inf])
    @pytest.mark.parametrize("at", [0, 2])
    def test_rejects_non_finite_bids(self, bid, at):
        cfg = MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5))
        thetas = np.full(3, -1.0)
        thetas[at] = bid
        with pytest.raises(DomainError, match="finite"):
            best_response(0, thetas, cfg, grid_points=1000)
        with pytest.raises(DomainError, match="finite"):
            strategic_payoff(0, thetas, cfg)

    @pytest.mark.parametrize("grid_points", [3.5, 1000.0, np.nan, True,
                                             "1000", None])
    def test_rejects_non_integer_grid(self, grid_points):
        cfg = MarketConfig(2, 1.0, 0.3, (12.0, 12.0))
        with pytest.raises(DomainError, match="grid points must be an int"):
            best_response(0, np.full(2, -1.0), cfg, grid_points=grid_points)

    def test_accepts_numpy_integer_grid(self):
        cfg = MarketConfig(2, 1.0, 0.3, (12.0, 12.0))
        thetas = np.full(2, -1.0)
        assert (best_response(0, thetas, cfg, grid_points=np.int32(1000))
                == best_response(0, thetas, cfg, grid_points=1000))

    def test_accepts_numpy_integer_index(self):
        cfg = MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5))
        thetas = np.full(3, -1.0)
        assert (best_response(np.int64(2), thetas, cfg, grid_points=1000)
                == best_response(2, thetas, cfg, grid_points=1000))


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

    @pytest.mark.parametrize("kwargs", [
        {"grid_points": 1000.5}, {"grid_points": 1000.0},
        {"grid_points": np.nan}, {"grid_points": True}])
    def test_rejects_bad_grid_arguments(self, kwargs):
        cfg = MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5))
        with pytest.raises(DomainError):
            brute_force_program(cfg, MODE_TRUE, **kwargs)

    def test_accepts_numpy_integer_grid_arguments(self):
        cfg = MarketConfig(2, 1.0, 0.3, (9.0, 12.0))
        _assert_same_allocation(
            brute_force_program(cfg, MODE_TRUE, np.int64(1000)),
            brute_force_program(cfg, MODE_TRUE, 1000))

    def test_prosumer_at_capacity_sits_exactly_there(self):
        # the grid returns q_2 = -s_max + 4.2e-9, which the certificate marks
        # at capacity; it must then sit at -s_max exactly, or a check that
        # reads q_2 as interior finds its marginal 5.8e-3 off the price
        cfg = MarketConfig(3, 1.4594686224636315, 0.7051824460730006,
                           (4.46160798082051, 5.9884825377096895,
                            3.915775901594828))
        alloc = brute_force_program(cfg, MODE_MODIFIED, grid_points=2001)
        q, s = alloc.quantities, cfg.s_max
        assert alloc.at_capacity.tolist() == [False, False, True]
        assert q[2] == -s
        assert abs(q.sum()) <= 1e-12 * 3 * max(1.0, s)
        # stationarity as the benchmark checks it: relative to the price,
        # a prosumer within 1e-9*max(1, s_max) of -s_max may fall below it
        length = _shading_length(3, cfg.d_min)
        m = (1 + q / length) * cfg.rates * np.exp(-cfg.rates * q)
        rel = (m - alloc.dual_price) / alloc.dual_price
        rel = np.where(np.abs(q + s) <= 1e-9 * max(1.0, s),
                       np.maximum(rel, 0.0), rel)
        assert np.max(np.abs(rel)) <= 1e-4
        np.testing.assert_allclose(
            q, solve_dual(cfg, MODE_MODIFIED).allocation.quantities,
            atol=1e-6)

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

    @pytest.mark.parametrize("cfg", [
        MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5)),
        MarketConfig(2, 1.0, 0.3, (9.0, 12.0))])
    @pytest.mark.parametrize("mode", [MODE_TRUE, MODE_MODIFIED])
    def test_two_default_zoom_passes_agree_with_four(self, cfg, mode,
                                                     monkeypatch):
        assert np.all(cfg.concavity_thresholds <= -cfg.s_max)
        assert oracle._ZOOM_PASSES == 2
        default = brute_force_program(cfg, mode).quantities
        np.testing.assert_allclose(
            default, solve_dual(cfg, mode).allocation.quantities, atol=1e-6)
        monkeypatch.setattr(oracle, "_ZOOM_PASSES", 4)
        np.testing.assert_allclose(
            default, brute_force_program(cfg, mode).quantities, atol=1e-6)

    @pytest.mark.parametrize("beta, warned", [
        (3500.0, []), (np.nextafter(3500.0, np.inf), [SaturationWarning]),
        (1500.0, [])])
    @pytest.mark.parametrize("mode", [MODE_TRUE, MODE_MODIFIED])
    def test_clamp_below_capacity_warns_exactly(self, beta, warned, mode):
        # the balancing prosumer is read only at feasible quantities, so the
        # lowest q of the scan is -s_max, the free axes' first point. There
        # r*s_max is 700 for beta = 3500 and one ulp above it for the next
        # float, so the call warns exactly when the clamp engages at -s_max.
        # Infeasible balancing quantities reach -4*s_max, where beta = 1500
        # would engage it
        cfg = MarketConfig(3, 1.0, 1.0, (float(beta),) * 3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            brute_force_program(cfg, mode, grid_points=1000)
        assert [w.category for w in caught] == warned

    @pytest.mark.parametrize("grid_points", [1001, 2001, 3162])
    def test_optimum_on_capacity_line(self, grid_points):
        # the balancing prosumer sits at -s_max. The balancing quantity is
        # constant along each anti-diagonal of the grid, so the scan
        # searches along the capacity line instead of landing on the
        # feasible cell nearest it
        cfg = MarketConfig(3, 1.8103301680943928, 0.7175226127425814,
                           (5.553071045956916, 5.492673571880116,
                            3.5131632614139368))
        dual = solve_dual(cfg, MODE_MODIFIED).allocation
        assert dual.at_capacity.tolist() == [False, False, True]
        np.testing.assert_allclose(
            brute_force_program(cfg, MODE_MODIFIED, grid_points).quantities,
            dual.quantities, atol=1e-6)

    def test_capacity_line_stays_feasible(self):
        # at the default grid, w[i + j] = -(a_i + b_j) lands a few ulps
        # below -s_max on the capacity anti-diagonal of all three passes
        # here (4.4e-16 below on the first). Unless it is put on -s_max,
        # the whole line reads -inf, and the returned q_2 = -s_max + 1.34e-7
        # is neither at capacity nor stationary: KKT residual 6.1e-4
        cfg = MarketConfig(3, 3.9728985837275954, 2.788011190411837,
                           (5.804883282559951, 5.771029754273204,
                            3.9820494399722937))
        alloc = brute_force_program(cfg, MODE_MODIFIED)
        assert alloc.at_capacity.tolist() == [False, False, True]
        assert alloc.quantities[2] == -cfg.s_max
        assert np.max(alloc.kkt_residuals) <= 1e-8
        np.testing.assert_allclose(
            alloc.quantities,
            solve_dual(cfg, MODE_MODIFIED).allocation.quantities, atol=1e-6)

    @pytest.mark.parametrize("mode", [MODE_TRUE, MODE_MODIFIED])
    def test_seeded_capacity_line_markets(self, mode):
        for cfg in _capacity_line_markets(25, seed=2026):
            np.testing.assert_allclose(
                brute_force_program(cfg, mode).quantities,
                solve_dual(cfg, mode).allocation.quantities, atol=1e-6)

    def test_anti_diagonal_matches_cell_sums(self):
        # w[i + j] is the balancing quantity of cell (i, j): within a few
        # ulps of -(a_i + b_j) on the first pass and on zoom windows, one
        # shifted against the box's upper end. Unbounded, the scan puts no
        # w on a bound
        class Recorder:
            def __call__(self, i, q):
                if i == 2:
                    self.last = q
                return np.zeros_like(q)

        s, g = 0.7175226127425814, 1000
        zoom = 4 * 3 * s / (g - 1)
        i = np.add.outer(np.arange(g), np.arange(g))
        for lo, width in [((-s, -s), 3 * s), ((-s, 0.3), zoom),
                          ((0.123, 0.777), zoom), ((-s, 2 * s - zoom), zoom)]:
            a, b = (np.linspace(x, x + width, g) for x in lo)
            curves = Recorder()
            oracle._welfare_argmax(curves, [a, b], -np.inf, np.inf)
            assert curves.last.size == 2 * g - 1
            err = np.abs(curves.last[i] + np.add.outer(a, b))
            ulp = np.spacing(np.max(np.abs(a)) + np.max(np.abs(b)))
            assert np.max(err) <= 4 * ulp


def _certify_n3_market(seed):
    """The N=3 market perfbench's certify workload draws for a seed."""
    rng = np.random.default_rng([seed, 3])
    for _ in range(2):  # the workload first picks two case-study points
        rng.choice(30, 2, replace=False)
    for n, beta_lo, beta_hi in ((2, 6.0, 9.0), (3, 3.5, 6.0)):
        d_min = rng.uniform(0.5, 2.0)
        betas = tuple(rng.uniform(beta_lo, beta_hi, n))
        room = (n - 1) * d_min - 5.0 * d_min / min(betas)
        s_max = room * rng.uniform(0.5, 0.9)
    return MarketConfig(3, float(d_min), float(s_max),
                        tuple(float(b) for b in betas))


def _capacity_line_markets(count, seed):
    """Seeded concave N=3 markets whose last prosumer's Nash q is -s_max."""
    rng = np.random.default_rng(seed)
    markets = []
    while len(markets) < count:
        d_min = float(rng.uniform(0.5, 2.0))
        betas = tuple(float(b) for b in rng.uniform(3.0, 6.0, 3))
        room = 2 * d_min - 5 * d_min / min(betas)
        cfg = MarketConfig(3, d_min, room * float(rng.uniform(0.3, 0.95)),
                           betas)
        assert np.all(cfg.concavity_thresholds <= -cfg.s_max)
        if solve_dual(cfg, MODE_MODIFIED).allocation.at_capacity[-1]:
            markets.append(cfg)
    return markets


# Full-array scans, kept as references the blocked scans must match bit for
# bit.

def _meshgrid_brute_force(config, mode, grid_points, zoom_passes,
                          row_maxima=None):
    """brute_force_program with every cell of a pass in one meshgrid.

    For N = 3, row_maxima, if given, receives each pass's row maxima.
    """
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
        # the axes share one spacing, so the balancing quantity of a cell
        # is read from the grid of its anti-diagonal
        w = np.linspace(-sum(lo), -sum(hi), (n - 1) * (grid_points - 1) + 1)
        # within rounding of a bound, the balancing quantity is on it
        tol = 4 * np.spacing(sum(np.max(np.abs(axis)) for axis in axes))
        w[np.abs(w - lo_full) <= tol] = lo_full
        w[np.abs(w - hi_full) <= tol] = hi_full
        q_last = w[sum(np.indices(free[0].shape))]
        vals = f(0, free[0])
        for i, q in enumerate(free[1:], start=1):
            vals = vals + f(i, q)
        vals = vals + f(n - 1, q_last)
        feasible = (q_last >= lo_full) & (q_last <= hi_full)
        vals = np.where(feasible, vals, -np.inf)
        if row_maxima is not None:
            row_maxima.append(vals.max(axis=1))
        k = np.unravel_index(int(np.argmax(vals)), vals.shape)
        best = [float(axis[j]) for axis, j in zip(axes, k)]
        # a window of four cells around the incumbent, shifted inside
        half = 2 * (hi[0] - lo[0]) / (grid_points - 1)
        for j, q in enumerate(best):
            lo[j], hi[j] = q - half, q + half
            if lo[j] < lo_full:
                lo[j], hi[j] = lo_full, lo_full + 2 * half
            elif hi[j] > hi_full:
                lo[j], hi[j] = hi_full - 2 * half, hi_full
    q_last = -best[0] - sum(best[1:])
    return oracle._certify(config, mode, np.array(best + [q_last]))


class TestCaseStudyGaps:
    """Regression pins for the case study's strategic (Nash) rows."""

    @pytest.fixture(scope="class")
    def rows(self):
        rows = []
        for panel in PANELS:
            spec = case_study_spec(panel)
            for value in spec.values():
                config = spec.config_at(float(value))
                nash = solve_dual(config, MODE_MODIFIED)
                gaps = [best_response(i, nash.thetas, config).gap
                        for i in range(config.n_prosumers)]
                rows.append((config, nash, np.array(gaps)))
        return rows

    def test_37_nash_rows_are_not_equilibria(self, rows):
        gaps = np.array([g for _, _, g in rows])
        assert gaps.shape == (120, 11)
        assert int(np.sum(gaps.max(axis=1) > 1e-9)) == 37
        assert gaps.max() == pytest.approx(0.5128168, abs=1e-7)
        assert gaps.min() >= -1e-12

    def test_interior_u_below_2_splits_the_rows_as_the_gaps_do(self, rows):
        # an interior q_i is a local best response only if
        # u_i = r_i*(q_i + L) >= 2, L = (N-1)*d_min the shading length
        for config, nash, gaps in rows:
            q = nash.quantities
            u = config.rates * (q + (config.n_prosumers - 1) * config.d_min)
            interior = ~nash.allocation.at_capacity
            assert np.any(interior & (u < 2)) == (gaps.max() > 1e-9)


def _grid_payoffs(i, thetas, config, grid_points):
    """The interval's ends, np.linspace's grid and its payoffs.

    The payoffs are the closed form in _Payoff's order of operations.
    """
    rival_sum = oracle._Payoff(i, thetas, config).rival_sum
    theta_hi = -rival_sum - config.eps_price
    theta_lb = oracle._capacity_lower_bound(rival_sum, config)
    grid = np.linspace(theta_lb, theta_hi, grid_points)
    n, d, r = config.n_prosumers, config.d_min, config.rates[i]
    x = r * d * (n - 1) - r * n * d * rival_sum / (grid + rival_sum)
    payoffs = ((config.offsets[i] + rival_sum / n) - grid * ((n - 1) / n)
               - np.exp(np.minimum(x, 700.0)))
    return theta_lb, theta_hi, grid, payoffs


def _full_best_response(i, thetas, config, grid_points):
    """best_response with the whole grid's payoffs in one array.

    Golden section and the candidate's payoff run on _Payoff's scalar form,
    as in best_response.
    """
    payoff = oracle._Payoff(i, thetas, config)
    theta_lb, theta_hi, grid, payoffs = _grid_payoffs(i, thetas, config,
                                                      grid_points)
    k = int(np.argmax(payoffs))
    lo = float(grid[max(k - 1, 0)])
    hi = float(grid[min(k + 1, grid_points - 1)])
    span = theta_hi - theta_lb
    theta_star, payoff_star = oracle._golden_max(
        payoff, lo, hi, tol=1e-12 * max(1.0, span))
    if payoffs[k] > payoff_star:
        theta_star, payoff_star = grid[k], float(payoffs[k])
    payoff_at_candidate = strategic_payoff(i, thetas, config)
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
                                               zoom_passes, monkeypatch):
        monkeypatch.setattr(oracle, "_ZOOM_PASSES", zoom_passes)
        markets = _random_markets(n, count, seed=grid_points)
        if n == 3:  # r*s_max = 700: the clamp engages at -s_max
            markets.append(MarketConfig(3, 1.0, 1.0, (3500.0,) * 3))
        for config in markets:
            for mode in (MODE_TRUE, MODE_MODIFIED):
                _assert_same_allocation(
                    brute_force_program(config, mode, grid_points),
                    _meshgrid_brute_force(config, mode, grid_points,
                                          zoom_passes))

    @staticmethod
    def _scanned_rows(monkeypatch):
        """A list that gets, per N=3 brute-force pass, the rows scanned."""
        passes = []
        first_argmax = oracle._first_argmax

        def record(blocks, starts=None):
            seen = []
            passes.append(seen)

            def rows():
                for n, block in enumerate(blocks):
                    first = starts[n] // block.shape[1]
                    seen.extend(range(first, first + block.shape[0]))
                    yield block
            return first_argmax(rows(), starts)

        monkeypatch.setattr(oracle, "_first_argmax", record)
        return passes

    @pytest.mark.parametrize("grid_points, zoom_passes", [(1000, 2),
                                                          (1001, 3)])
    def test_skipped_rows_lie_below_the_grid_maximum(
            self, grid_points, zoom_passes, monkeypatch):
        monkeypatch.setattr(oracle, "_ZOOM_PASSES", zoom_passes)
        markets = _random_markets(3, 4, seed=7) + [
            MarketConfig(3, 1.0, 1.0, (3500.0,) * 3),
            _capacity_line_markets(1, seed=2026)[0]]
        passes = self._scanned_rows(monkeypatch)
        for config in markets:
            for mode in (MODE_TRUE, MODE_MODIFIED):
                passes.clear()
                brute_force_program(config, mode, grid_points)
                row_maxima = []
                _meshgrid_brute_force(config, mode, grid_points, zoom_passes,
                                      row_maxima)
                assert len(passes) == len(row_maxima) == zoom_passes + 1
                for rows, best in zip(passes, row_maxima):
                    skipped = np.ones(grid_points, dtype=bool)
                    skipped[rows] = False
                    assert np.all(best[skipped] < best.max())

    def test_zoom_passes_scan_few_rows(self, monkeypatch):
        # the N=3 markets of perfbench's certify workload, seeds 1-10: the
        # first pass has no dual estimate and scans about every row, the
        # zoom passes a median of about 8 % of them
        shares = []
        passes = self._scanned_rows(monkeypatch)
        for seed in range(1, 11):
            config = _certify_n3_market(seed)
            for mode in (MODE_TRUE, MODE_MODIFIED):
                passes.clear()
                brute_force_program(config, mode, grid_points=2001)
                assert len(passes) == 3
                assert len(passes[0]) >= 0.99 * 2001
                shares += [len(rows) / 2001 for rows in passes[1:]]
        assert np.median(shares) < 0.1
        assert max(shares) < 0.5

    @pytest.mark.parametrize("grid_points",
                             [3, 17, 8191, 8192, 8193, 200_000])
    def test_best_response_matches_full_scan(self, grid_points):
        rng = np.random.default_rng(grid_points)
        cfg = MarketConfig(11, 4.0, 3.0, tuple(2.0 + 0.1 * i for i in range(11)))
        profiles = [(cfg, solve_dual(cfg, MODE_MODIFIED).thetas, (0, 10))]
        for n in (2, 4, 7):
            betas = tuple(rng.uniform(0.5, 12.0, n))
            d_min = float(rng.uniform(0.3, 4.0))
            s_max = float(rng.uniform(0.1, 1.5)) * d_min * (n - 1)
            profiles.append((MarketConfig(n, d_min, s_max, betas),
                             -rng.uniform(0.1, 3.0, n), (0, n - 1)))
        # case-study Nash rows that are not equilibria, at the prosumer
        # with the largest gap, among them the unbalanced row s_max = 4.5
        for panel, k, i in (("capacity_unbounded", 29, 2),
                            ("capacity_unbounded", 7, 4),
                            ("demand_unbounded", 29, 2)):
            spec = case_study_spec(panel)
            config = spec.config_at(float(spec.values()[k]))
            profiles.append((config, solve_dual(config, MODE_MODIFIED).thetas,
                             (i,)))
        # the exponent passes 700 at theta_lb (x_lb = 1500), and the
        # fallback interval s_max >= (N-1)*d_min
        profiles.append((MarketConfig(3, 1.0, 1.5, (5000.0,) * 3),
                         np.full(3, -1.0), (0, 2)))
        profiles.append((MarketConfig(3, 1.0, 2.5, (2.0, 3.0, 4.0)),
                         -np.array([0.5, 1.0, 2.0]), (0, 2)))
        # a nearly flat curve: the payoff climbs toward the price pole, so
        # a small grid's maximum lies in the cell holding theta_hi
        profiles.append((MarketConfig(2, 1.0, 0.5, (0.05, 2.0)),
                         np.array([-5.0, -0.1]), (0,)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            for config, thetas, indices in profiles:
                for i in indices:
                    assert (best_response(i, thetas, config, grid_points)
                            == _full_best_response(i, thetas, config,
                                                   grid_points))

    @pytest.mark.parametrize("grid_points", [3, 8191, 8192, 8193, 20_000])
    @pytest.mark.parametrize("s_max", [3.0, 40.0], ids=["bound", "fallback"])
    def test_best_response_grid_is_linspace(self, grid_points, s_max,
                                            monkeypatch):
        # every evaluated block is np.linspace's grid bit for bit, and every
        # bid left out has a payoff strictly below the grid maximum
        seen = []
        overwrite = oracle._Payoff.overwrite

        def record(self, theta, clamp):
            seen.append(theta.copy())
            return overwrite(self, theta, clamp)

        monkeypatch.setattr(oracle._Payoff, "overwrite", record)
        cfg = MarketConfig(11, 4.0, s_max,
                           tuple(2.0 + 0.1 * i for i in range(11)))
        thetas = -np.linspace(1.0, 3.0, 11)
        best_response(3, thetas, cfg, grid_points)
        _, _, grid, payoffs = _grid_payoffs(3, thetas, cfg, grid_points)
        evaluated = np.zeros(grid_points, dtype=bool)
        for block in seen:
            assert block.size <= oracle._BLOCK
            start = int(np.searchsorted(grid, block[0]))
            assert grid[start:start + block.size].tobytes() == block.tobytes()
            evaluated[start:start + block.size] = True
        assert np.all(payoffs[~evaluated] < payoffs.max())
        if grid_points == 20_000:  # the bound leaves most of the grid out
            assert evaluated.mean() < 0.1

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

    @staticmethod
    def _across_the_clamp(exponent, start, toward):
        """Adjacent floats from start toward `toward` on which exponent
        goes from at most 700 to above it."""
        below = start
        assert exponent(below) <= 700
        while exponent(np.nextafter(below, toward)) <= 700:
            below = np.nextafter(below, toward)
        return float(below), float(np.nextafter(below, toward))

    @staticmethod
    def _caught(call):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        return [w.category for w in caught]

    def test_best_response_warns_exactly_above_700_at_the_lowest_bid(self):
        # the largest exponent is the one at theta_lb, where q = -s_max and
        # x is about r*s_max = beta/5: step beta by ulps across x = 700.
        # The candidate bid sits at q = 0, exponent 0
        thetas = np.full(3, -1.0)

        def exponent(beta):
            cfg = MarketConfig(3, 1.0, 1.0, (beta,) * 3)
            return oracle._Payoff(0, thetas, cfg).exponent(
                oracle._capacity_lower_bound(-2.0, cfg))

        start = 3500.0 * (1 - 1e-13)
        for beta, warned in zip(
                self._across_the_clamp(exponent, start, np.inf),
                ([], [SaturationWarning])):
            cfg = MarketConfig(3, 1.0, 1.0, (beta,) * 3)
            assert self._caught(
                lambda: best_response(0, thetas, cfg, 1000)) == warned
            assert self._caught(
                lambda: strategic_payoff(0, thetas, cfg)) == []

    def test_warns_exactly_above_700_at_the_candidate(self):
        # r = 360 and L = 2: the lowest bid's exponent is about
        # r*s_max = 360, and a candidate far below it reaches 700 at about
        # theta = -106, where q is about -1.94
        cfg = MarketConfig(3, 1.0, 1.0, (1800.0,) * 3)
        thetas = np.full(3, -1.0)
        payoff = oracle._Payoff(0, thetas, cfg)
        assert payoff.exponent(oracle._capacity_lower_bound(-2.0, cfg)) < 400
        start = float(np.nextafter(-106.0, np.inf)) * (1 - 1e-13)
        for theta, warned in zip(
                self._across_the_clamp(payoff.exponent, start, -np.inf),
                ([], [SaturationWarning])):
            thetas[0] = theta
            assert self._caught(
                lambda: best_response(0, thetas, cfg, 1000)) == warned
            assert self._caught(
                lambda: strategic_payoff(0, thetas, cfg)) == warned

    def test_no_warning_below_the_clamp(self):
        cfg = MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            brute_force_program(cfg, MODE_MODIFIED)
            best_response(0, np.full(3, -1.0), cfg, grid_points=20_000)
