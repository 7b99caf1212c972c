"""Tests for the market domain model: bids, clearing, utility curves."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from prosumer_market import (
    BracketFailure,
    DomainError,
    ExponentialUtility,
    InvalidBids,
    MarketConfig,
    SaturationWarning,
    clearing_price,
    modified_utility,
    modified_utility_deriv,
    modified_utility_deriv2,
    quantity_from_bid,
    solve_dual,
)
from prosumer_market.market import market_stack

# independently computed with 40-digit arithmetic
S_BETA25_D4_AT0 = -0.3934693402873665764
S_BETA06_D1_ATM1 = -0.24057641486221815595
SP_BETA25_D4_AT4 = 0.07581633246407917795
SMOD_BETA25_D4_N11_AT0 = -0.41151014237357654932


class TestQuantityFromBid:
    def test_zero_bid_zero_price_convention(self):
        assert quantity_from_bid(0.0, 0.0, 4.0) == 4.0

    def test_zero_bid_any_price(self):
        assert quantity_from_bid(0.0, 2.0, 4.0) == 4.0

    def test_direct_evaluation(self):
        assert quantity_from_bid(-1.0, 1.0, 1.0) == 0.0

    def test_zero_price_nonzero_bid_undefined(self):
        with pytest.raises(DomainError):
            quantity_from_bid(1.0, 0.0, 4.0)

    def test_negative_price_rejected(self):
        with pytest.raises(DomainError):
            quantity_from_bid(1.0, -0.5, 4.0)

    @given(
        q=st.floats(-50, 50),
        price=st.floats(1e-6, 1e3),
        d_min=st.floats(1e-3, 50),
    )
    def test_round_trip_through_bid(self, q, price, d_min):
        theta = price * (q - d_min)
        back = quantity_from_bid(theta, price, d_min)
        assert back == pytest.approx(q, abs=1e-12 * max(1.0, abs(q)))


class TestClearingPrice:
    def test_all_zero(self):
        assert clearing_price(np.zeros(5), 2.0) == 0.0

    def test_two_suppliers(self):
        assert clearing_price([-1.0, -1.0], 1.0) == 1.0

    def test_mixed_signs_allowed(self):
        assert clearing_price([1.0, -3.0], 1.0) == 1.0

    def test_positive_sum_rejected(self):
        with pytest.raises(InvalidBids):
            clearing_price([1.0, -0.5], 1.0)

    def test_empty_profile_rejected(self):
        with pytest.raises(DomainError, match="empty"):
            clearing_price([], 1.0)

    @given(
        price=st.floats(1e-6, 1e3),
        d_min=st.floats(1e-2, 20),
        qs=st.lists(st.floats(-5, 5), min_size=2, max_size=8),
    )
    def test_balanced_allocation_recovers_price(self, price, d_min, qs):
        q = np.asarray(qs)
        q = q - q.mean()  # balance
        thetas = price * (q - d_min)
        assert clearing_price(thetas, d_min) == pytest.approx(
            price, rel=1e-12)


class TestExponentialUtility:
    def test_zero_at_d_min_exactly(self):
        spec = ExponentialUtility(2.5, 4.0)
        assert spec.value(4.0) == 0.0

    def test_value_at_zero(self):
        spec = ExponentialUtility(2.5, 4.0)
        assert spec.value(0.0) == pytest.approx(
            S_BETA25_D4_AT0, abs=1e-15)

    def test_production_cost_negative(self):
        spec = ExponentialUtility(0.6, 1.0)
        val = spec.value(-1.0)
        assert val < 0
        assert val == pytest.approx(S_BETA06_D1_ATM1, abs=1e-15)

    def test_deriv_value(self):
        spec = ExponentialUtility(2.5, 4.0)
        assert spec.deriv(4.0) == pytest.approx(
            SP_BETA25_D4_AT4, abs=1e-15)

    @pytest.mark.parametrize("q", [-3.0, -1.0, 0.0, 1.0, 4.0, 25.0])
    def test_deriv_positive_and_matches_finite_difference(self, q):
        spec = ExponentialUtility(2.5, 4.0)
        d = spec.deriv(q)
        assert d > 0
        h = 1e-6
        fd = (spec.value(q + h) - spec.value(q - h)) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-6)

    def test_strictly_increasing_and_concave_on_grid(self):
        spec = ExponentialUtility(1.3, 2.0)
        grid = np.linspace(-6.0, 20.0, 200)
        assert np.all(spec.deriv(grid) > 0)
        assert np.all(spec.deriv2(grid) < 0)
        vals = spec.value(grid)
        assert np.all(np.diff(vals) > 0)

    def test_antideriv_matches_value_by_finite_difference(self):
        spec = ExponentialUtility(0.9, 1.5)
        for q in np.linspace(-4, 12, 17):
            h = 1e-6
            fd = (spec.antideriv(q + h) - spec.antideriv(q - h)) / (2 * h)
            assert fd == pytest.approx(spec.value(q), abs=1e-8)

    def test_overflow_guard_warns_and_saturates(self):
        spec = ExponentialUtility(2.0, 1.0)
        # exponent -beta*q/(5*d_min) exceeds +700 for q < -1750
        with pytest.warns(SaturationWarning):
            val = spec.value(-2000.0)
        assert np.isfinite(val)
        # far inside the documented safe range: no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec.value(-22.0)  # -s_max * N at case-study scale

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            ExponentialUtility(0.0, 1.0)
        with pytest.raises(DomainError):
            ExponentialUtility(1.0, -1.0)
        with pytest.raises(DomainError):
            ExponentialUtility(math.inf, 1.0)


class TestModifiedUtility:
    def test_zero_at_d_min(self):
        spec = ExponentialUtility(2.5, 4.0)
        assert modified_utility(spec, 11, 4.0) == pytest.approx(0.0, abs=1e-15)

    def test_against_adaptive_quadrature(self):
        spec = ExponentialUtility(2.5, 4.0)
        got = modified_utility(spec, 11, 0.0)
        integral, _ = integrate.quad(spec.value, 4.0, 0.0, epsabs=1e-12, epsrel=1e-12)
        want = (1 + 0.0 / 40.0) * spec.value(0.0) - integral / 40.0
        assert got == pytest.approx(want, abs=1e-8)
        assert got == pytest.approx(SMOD_BETA25_D4_N11_AT0, abs=1e-12)

    def test_branch_continuity_at_d_min(self):
        spec = ExponentialUtility(2.5, 4.0)
        lo = modified_utility(spec, 11, 4.0 - 1e-9)
        hi = modified_utility(spec, 11, 4.0 + 1e-9)
        assert abs(lo - hi) < 1e-7

    def test_method_validation(self):
        spec = ExponentialUtility(1.0, 1.0)
        with pytest.raises(DomainError):
            modified_utility(spec, 1, 0.0)

    def test_deriv_multiplier_at_zero(self):
        spec = ExponentialUtility(2.2, 3.0)
        assert modified_utility_deriv(spec, 11, 0.0) == pytest.approx(
            spec.deriv(0.0), rel=1e-15)

    def test_deriv_vanishes_where_multiplier_does(self):
        spec = ExponentialUtility(2.2, 3.0)
        q = -(11 - 1) * 3.0
        assert modified_utility_deriv(spec, 11, q) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("q", [-2.5, 0.0, 2.0, 10.0, 25.0])
    def test_deriv_matches_central_difference(self, q):
        spec = ExponentialUtility(2.5, 4.0)
        h = 1e-6
        fd = (modified_utility(spec, 11, q + h)
              - modified_utility(spec, 11, q - h)) / (2 * h)
        assert modified_utility_deriv(spec, 11, q) == pytest.approx(fd, rel=1e-6)

    def test_deriv_strictly_decreasing_on_concave_region(self):
        # steepened-concavity region: the shaded marginal falls with q there
        spec = ExponentialUtility(0.6, 1.0)
        n = 11
        q_c = MarketConfig(n, 1.0, 1.0, (0.6,) * n).concavity_thresholds[0]
        assert q_c == pytest.approx(5.0 / 0.6 - 10.0, rel=1e-15)
        grid = np.linspace(q_c, q_c + 40.0, 300)
        md = modified_utility_deriv(spec, n, grid)
        assert np.all(np.diff(md) < 0)
        # and second derivative is nonpositive there
        assert np.all(modified_utility_deriv2(spec, n, grid[1:]) <= 0)

    @given(
        beta=st.floats(0.3, 5.0),
        d_min=st.floats(0.3, 6.0),
        n=st.integers(2, 15),
        offsets=st.tuples(st.floats(0.001, 10.0), st.floats(0.001, 10.0)),
    )
    @settings(max_examples=150)
    # distinct offsets that land on the same float once added to q_c = 4
    @example(beta=1.0, d_min=1.0, n=2, offsets=(0.30000000000000004, 0.3))
    def test_ordered_pairs_on_concave_region(self, beta, d_min, n, offsets):
        spec = ExponentialUtility(beta, d_min)
        q_c = MarketConfig(n, d_min, 1.0, (beta,) * n).concavity_thresholds[0]
        a, b = sorted(offsets)
        lo, hi = q_c + a, q_c + b
        if lo == hi:
            return
        assert modified_utility_deriv(spec, n, hi) < modified_utility_deriv(
            spec, n, lo)


class TestMarketConfig:
    def test_valid(self):
        cfg = MarketConfig(3, 1.0, 2.0, (1.0, 2.0, 3.0))
        assert cfg.q_upper == 4.0
        assert cfg.eps_price == pytest.approx(3e-9)
        assert len(cfg.utilities()) == 3

    def test_rejects_single_prosumer(self):
        with pytest.raises(DomainError):
            MarketConfig(1, 1.0, 1.0, (1.0,))

    def test_rejects_bad_scalars(self):
        with pytest.raises(DomainError):
            MarketConfig(2, -1.0, 1.0, (1.0, 1.0))
        with pytest.raises(DomainError):
            MarketConfig(2, 1.0, 0.0, (1.0, 1.0))
        with pytest.raises(DomainError):
            MarketConfig(2, 1.0, 1.0, (1.0, -2.0))
        with pytest.raises(DomainError):
            MarketConfig(2, 1.0, 1.0, (1.0, 1.0), eps_price=0.0)
        with pytest.raises(DomainError):
            MarketConfig(2, 1.0, 1.0, (1.0, 1.0), tol_root=-1e-9)

    def test_rejects_beta_length_mismatch(self):
        with pytest.raises(DomainError):
            MarketConfig(3, 1.0, 1.0, (1.0, 2.0))

    def test_bad_beta_error_names_the_first_bad_index(self):
        with pytest.raises(DomainError, match=r"^betas\[1\] must be positive "
                                              r"and finite, got -1\.0$"):
            MarketConfig(4, 1.0, 1.0, (2.0, -1.0, math.nan, 0.0))

    def test_betas_stay_a_tuple_of_floats(self):
        cfg = MarketConfig(3, 1.0, 1.0, np.array([1, 2, 3]))
        assert cfg.betas == (1.0, 2.0, 3.0)
        assert all(type(b) is float for b in cfg.betas)

    @pytest.mark.parametrize("field", ["tol_root", "tol_kkt"])
    def test_rejects_tolerance_below_float_resolution(self, field):
        with pytest.raises(DomainError, match=field):
            MarketConfig(2, 1.0, 1.0, (2.0, 3.0), **{field: 1e-30})
        cfg = MarketConfig(2, 1.0, 1.0, (2.0, 3.0),
                           **{field: sys.float_info.epsilon})
        assert getattr(cfg, field) == sys.float_info.epsilon


    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["d_min", "s_max", "betas", "eps_price",
                                       "tol_root", "tol_kkt"])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(n_prosumers=2, d_min=1.0, s_max=1.0, betas=(2.0, 3.0))
        kwargs[field] = (2.0, value) if field == "betas" else value
        with pytest.raises(DomainError, match="finite"):
            MarketConfig(**kwargs)


class TestMarketStack:
    def test_peak_marginal_is_the_largest_shaded_marginal(self):
        # a grid over [-s_max, q_upper], zoomed onto its argmax three times,
        # finds each prosumer's largest shaded marginal to rounding
        rng = np.random.default_rng(8)
        n = 5
        betas = np.array([0.3, 0.8, 1.5, 2.5, 4.0])
        d_min = rng.uniform(0.2, 3.0, 60)
        s_max = rng.uniform(0.05, 2.0, 60) * (n - 1) * d_min
        stack = market_stack(betas, d_min, s_max)
        kinds = set()
        for k in range(d_min.size):
            r = betas / (5.0 * d_min[k])
            L = (n - 1) * d_min[k]
            lo, hi = -s_max[k], (n - 1) * s_max[k]
            a, b = np.full(n, lo), np.full(n, hi)
            for _ in range(4):
                grid = a[:, None] + np.outer(b - a, np.linspace(0, 1, 10_001))
                m = (1.0 + grid / L) * r[:, None] * np.exp(-r[:, None] * grid)
                j = np.argmax(m, axis=1)
                peak = grid[np.arange(n), j]
                cell = (b - a) / 10_000
                a, b = np.maximum(peak - cell, lo), np.minimum(peak + cell, hi)
            np.testing.assert_allclose(stack.peak_marginal[k], m.max(axis=1),
                                       rtol=1e-12)
            thresholds = 1.0 / r - L
            kinds.update(np.where(thresholds <= lo, "concave",
                                  np.where(thresholds < hi, "interior",
                                           "upper")).tolist())
        assert kinds == {"concave", "interior", "upper"}

    def test_steep_capacity_utility_builds_without_warnings(self):
        # r*s_max = 2e8: the clamped S_mod(-s_max) leaves the float range
        cfg = MarketConfig(2, 1.0, 1e5, (1e4, 1e4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = cfg.stack
        assert np.isinf(stack.utility_lo).all()
        with pytest.raises(BracketFailure):
            solve_dual(cfg, "modified")
