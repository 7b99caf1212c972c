"""Tests for the dual-decomposition equilibrium solver."""

import collections
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import lambertw

from prosumer_market import (
    Allocation,
    BracketFailure,
    DomainError,
    MarketConfig,
    MODE_MODIFIED,
    MODE_TRUE,
    PANELS,
    SaturationWarning,
    brute_force_program,
    case_study_spec,
    check_eq21,
    clearing_price,
    marginal_inverse_modified,
    marginal_inverse_true,
    modified_utility,
    modified_utility_deriv,
    quantity_from_bid,
    recover_bids,
    solve_dual,
    welfare,
)
from prosumer_market import experiments, oracle, solver
from prosumer_market.market import (MarketStack, _shaded_curvature,
                                    market_stack)
from prosumer_market.solver import _shaded_root


def symmetric_config(n=11, beta=2.5, d_min=4.0, s_max=3.0):
    return MarketConfig(n, d_min, s_max, (beta,) * n)


class TestMarginalInverseTrue:
    def test_inverse_at_known_point(self):
        cfg = symmetric_config(n=2)
        eta = cfg.utilities()[0].deriv(0.0)
        np.testing.assert_allclose(marginal_inverse_true(cfg, eta), 0.0,
                                   atol=1e-12)

    def test_large_eta_clips_at_capacity(self):
        cfg = symmetric_config(n=2)
        np.testing.assert_array_equal(marginal_inverse_true(cfg, 1e6), -3.0)

    def test_small_eta_clips_at_upper_bound(self):
        cfg = symmetric_config(n=2)
        np.testing.assert_array_equal(marginal_inverse_true(cfg, 1e-6),
                                      cfg.q_upper)

    def test_symbolic_inversion(self):
        cfg = symmetric_config(n=3)
        eta = (2.5 / 20.0) * math.exp(-0.5)
        np.testing.assert_allclose(marginal_inverse_true(cfg, eta), 4.0,
                                   rtol=1e-14)

    def test_eta_must_be_positive(self):
        cfg = symmetric_config(n=2)
        for inverse in (marginal_inverse_true, marginal_inverse_modified):
            for eta in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(DomainError, match="eta must be positive"):
                    inverse(cfg, eta)


class TestMarginalInverseModified:
    def test_inverse_at_known_point_concave(self):
        # beta large enough that the concave region covers [-s_max, inf)
        cfg = MarketConfig(11, 1.0, 3.0, (6.0,) * 11)
        assert np.all(cfg.concavity_thresholds <= -cfg.s_max)
        eta = modified_utility_deriv(cfg.utilities()[0], 11, 0.0)
        q, flags = marginal_inverse_modified(cfg, eta)
        np.testing.assert_allclose(q, 0.0, atol=1e-10)
        assert not flags.any()

    def test_capacity_clip_concave(self):
        cfg = MarketConfig(11, 1.0, 3.0, (6.0,) * 11)
        eta = modified_utility_deriv(cfg.utilities()[0], 11, -3.0) * 2.0
        q, flags = marginal_inverse_modified(cfg, eta)
        np.testing.assert_array_equal(q, -3.0)
        assert not flags.any()

    def test_non_concave_matches_dense_grid(self):
        # capacity extends past the concavity onset: enumeration regime
        cfg = MarketConfig(11, 1.0, 3.0, (0.6,) * 11)
        spec = cfg.utilities()[0]
        assert np.all(cfg.concavity_thresholds > -cfg.s_max)
        grid = np.linspace(-cfg.s_max, cfg.q_upper, 1_000_001)
        for eta in (0.02, 0.05, 0.08, 0.11):
            q, _ = marginal_inverse_modified(cfg, eta)
            lagr = modified_utility(spec, 11, grid) - eta * grid
            q_star = grid[int(np.argmax(lagr))]
            np.testing.assert_allclose(q, q_star, atol=1e-4)

    def test_flags_non_concave_point(self):
        cfg = MarketConfig(11, 1.0, 3.0, (0.6,) * 11)
        # huge eta forces the capacity bound, which sits off the concave region
        q, flags = marginal_inverse_modified(cfg, 10.0)
        np.testing.assert_array_equal(q, -3.0)
        assert flags.all()


def _log_shaded_marginal(beta, d_min, n, q):
    """ln of (1 + q/L) * r * exp(-r*q), written out apart from the package."""
    r, L = beta / (5.0 * d_min), (n - 1) * d_min
    return math.log1p(q / L) + math.log(r) - r * q


def _brentq_root(beta, d_min, n, eta, lo, hi):
    """Scalar root of the shaded marginal minus eta on [lo, hi], in log form."""
    return brentq(lambda q: _log_shaded_marginal(beta, d_min, n, q)
                  - math.log(eta), lo, hi, xtol=1e-15, rtol=1e-15,
                  maxiter=500)


def _falling_root(r, L, eta):
    """solver._shaded_root for plain arrays of rates and one shading length."""
    r = np.asarray(r, dtype=float)
    log_eta = math.log(eta)
    return _shaded_root(r, np.log(r), r * L, L, log_eta,
                        log_eta + math.log(L) + 1.0)


class TestInverseAgainstBrentq:
    """The closed-form inversion against an independent scalar root."""

    @pytest.mark.parametrize("beta", [0.6, 2.5, 6.0])
    def test_falling_root(self, beta):
        d_min, n = 1.5, 7
        r, L = beta / (5.0 * d_min), (n - 1) * d_min
        q_c = 1.0 / r - L
        # the shaded marginal rises on (-L, q_c) and falls above q_c
        for offset in (0.05, 0.5, 2.0, 8.0):
            target = q_c + offset / r
            eta = math.exp(_log_shaded_marginal(beta, d_min, n, target))
            falling = _falling_root([r], L, eta)
            want_fall = _brentq_root(beta, d_min, n, eta, q_c, q_c + 50.0 / r)
            assert falling[0] == pytest.approx(want_fall, abs=1e-11)
            assert falling[0] == pytest.approx(target, abs=1e-11)

    @pytest.mark.parametrize("delta", [1e-9, 1e-7, 1e-5, 1e-3, 1e-2])
    def test_near_branch_point(self, delta):
        # u = r*(q + L) within delta of 1, the eq21 threshold. The marginal
        # is flat there, so eta fixes q only to about sqrt(eps)/r.
        beta, d_min, n = 2.0, 1.0, 5
        r, L = beta / (5.0 * d_min), (n - 1) * d_min
        q_c = 1.0 / r - L
        for sign in (1.0, -1.0):
            target = q_c + sign * delta / r
            eta = math.exp(_log_shaded_marginal(beta, d_min, n, target))
            falling = _falling_root([r], L, eta)
            if _log_shaded_marginal(beta, d_min, n, q_c) <= math.log(eta):
                want_fall = q_c  # eta rounds onto the peak
            else:
                want_fall = _brentq_root(beta, d_min, n, eta, q_c,
                                         q_c + 50.0 / r)
            tol = 5e-8 / r
            assert falling[0] == pytest.approx(want_fall, abs=tol)
            assert q_c <= falling[0]
            if sign > 0:
                assert falling[0] == pytest.approx(target, abs=tol)
            log_m = _log_shaded_marginal(beta, d_min, n, falling[0])
            assert log_m == pytest.approx(math.log(eta), abs=1e-14)

    def test_above_peak_returns_peak(self):
        # sigma = 0: exactly the peak, with no NaN and no RuntimeWarning
        r, L = np.array([0.4, 1.0, 1.0 / 3.0]), 4.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            falling = _falling_root(r, L, 1e3)
        np.testing.assert_array_equal(falling, 1.0 / r - L)

    def test_random_sweep(self):
        # u - 1 over seven decades, r over five and L over six; sigma runs
        # past 700, where exp(-sigma - 1) underflows. About half of the
        # worst error near the branch point (3e-13) is the reference's own
        rng = np.random.default_rng(21)
        checked = above_700 = 0
        worst = worst_far = 0.0
        for _ in range(6000):
            L = 10.0 ** rng.uniform(-1.0, 5.0)
            # N = 2 and d_min = L; r rounded as the reference rounds it
            beta = 5.0 * L * 10.0 ** rng.uniform(-2.0, 3.0)
            r = beta / (5.0 * L)
            u = 1.0 + 10.0 ** rng.uniform(-3.0, 4.0)
            target = u / r - L
            # eta must be a finite, normal float
            log_eta = math.log1p(target / L) + math.log(r) - r * target
            if not -700.0 < log_eta < 700.0:
                continue
            eta = math.exp(log_eta)
            q_c = 1.0 / r - L
            ref = _brentq_root(beta, L, 2, eta, q_c, q_c + 2.0 * u / r)
            q = _falling_root([r], L, eta)[0]
            err = abs(q - ref) / (abs(ref) + 1.0 / r)
            worst = max(worst, err)
            if u - 1.0 >= 0.1:
                worst_far = max(worst_far, err)
            checked += 1
            above_700 += u - math.log(u) - 1.0 > 700.0
        assert checked >= 2000 and above_700 >= 30
        assert worst <= 1e-12
        assert worst_far <= 1e-14

    @pytest.mark.parametrize("beta", [1e3, 1e4])
    def test_underflowing_z(self, beta):
        # exp(-r*L) underflows: the root is solved in log space
        cfg = MarketConfig(3, 1.0, 1.0, (beta,) * 3)
        r = beta / 5.0
        checked = 0
        for q_target in (-0.9, -0.3, -0.28, 0.0, 0.3, 0.5, 1.6, 1.95):
            log_eta = _log_shaded_marginal(beta, 1.0, 3, q_target)
            if abs(log_eta) > 700.0:
                continue  # eta itself would overflow or underflow
            eta = math.exp(log_eta)
            checked += 1
            want = _brentq_root(beta, 1.0, 3, eta, 1.0 / r - 2.0, cfg.q_upper)
            q, flags = marginal_inverse_modified(cfg, eta)
            np.testing.assert_allclose(q, want, atol=1e-12)
            assert not flags.any()
        assert checked >= 3

    def test_clipped_prosumers(self):
        # one eta puts prosumers at -s_max, inside, and at q_upper
        betas = (2.0, 3.0, 5.0, 8.0)
        cfg = MarketConfig(4, 2.0, 0.5, betas)
        assert np.all(cfg.concavity_thresholds <= -cfg.s_max)
        lo, hi = -cfg.s_max, cfg.q_upper
        seen = set()
        for eta in np.geomspace(1e-3, 2.0, 40):
            q, flags = marginal_inverse_modified(cfg, eta)
            assert not flags.any()
            for i, beta in enumerate(betas):
                f_lo = _log_shaded_marginal(beta, 2.0, 4, lo) - math.log(eta)
                f_hi = _log_shaded_marginal(beta, 2.0, 4, hi) - math.log(eta)
                if f_lo <= 0:
                    assert q[i] == lo
                    seen.add("lo")
                elif f_hi >= 0:
                    assert q[i] == hi
                    seen.add("hi")
                else:
                    want = _brentq_root(beta, 2.0, 4, eta, lo, hi)
                    assert q[i] == pytest.approx(want, abs=1e-12)
                    seen.add("interior")
        assert seen == {"lo", "hi", "interior"}


def _shaded_lagrangian(beta, d_min, n, eta, q):
    """S_mod(q) - eta*q, written apart from the package."""
    r, L, c = beta / (5.0 * d_min), (n - 1) * d_min, math.exp(-beta / 5.0)
    q = np.asarray(q, dtype=float)
    integral = c * (q - d_min) + (np.exp(-r * q) - math.exp(-r * d_min)) / r
    return (1.0 + q / L) * (c - np.exp(-r * q)) - integral / L - eta * q


def _switch_price(beta, d_min, n, lo, peak, hi):
    """eta at which -s_max and the falling stationary point (or hi) tie.

    Returns None when -s_max wins already 40 e-folds below the peak price.
    """
    def falling(eta):
        if _log_shaded_marginal(beta, d_min, n, hi) >= math.log(eta):
            return hi
        if _log_shaded_marginal(beta, d_min, n, peak) <= math.log(eta):
            return peak
        return _brentq_root(beta, d_min, n, eta, peak, hi)

    def gap(x):
        # decreasing in x = ln(eta): its derivative is eta*(lo - falling)
        eta = math.exp(x)
        return float(_shaded_lagrangian(beta, d_min, n, eta, falling(eta))
                     - _shaded_lagrangian(beta, d_min, n, eta, lo))

    x_peak = _log_shaded_marginal(beta, d_min, n, peak)
    if gap(x_peak - 40.0) <= 0:
        return None
    return math.exp(brentq(gap, x_peak - 40.0, x_peak, xtol=1e-15,
                           rtol=1e-15))


class TestTwoCandidateInverse:
    """Non-concave inversion: -s_max against the clipped falling root."""

    def test_random_markets_match_grid_argmax(self):
        rng = np.random.default_rng(5)
        seen = dict.fromkeys(("below_lo", "switch", "above_peak"), 0)
        for _ in range(10):
            cfg = _random_non_concave_market(rng)
            n, d_min = cfg.n_prosumers, cfg.d_min
            lo, hi, L = -cfg.s_max, cfg.q_upper, (n - 1) * d_min
            i = int(np.flatnonzero(cfg.concavity_thresholds > lo)[0])
            beta = cfg.betas[i]
            peak = min(cfg.concavity_thresholds[i], hi)
            m_peak = math.exp(_log_shaded_marginal(beta, d_min, n, peak))
            etas = [("above_peak", 2.0 * m_peak)]
            if lo > -L:  # the shaded marginal at -s_max is positive
                m_lo = math.exp(_log_shaded_marginal(beta, d_min, n, lo))
                etas.append(("below_lo", 0.5 * m_lo))
            switch = _switch_price(beta, d_min, n, lo, peak, hi)
            if switch is not None:
                etas += [("switch", switch * (1.0 - 1e-4)),
                         ("switch", switch * (1.0 + 1e-4))]
            grid = np.linspace(lo, hi, 1_000_001)
            for kind, eta in etas:
                seen[kind] += 1
                q, _ = marginal_inverse_modified(cfg, eta)
                lagr = _shaded_lagrangian(beta, d_min, n, eta, grid)
                q_star = grid[int(np.argmax(lagr))]
                assert q[i] == pytest.approx(q_star, abs=grid[1] - grid[0]), (
                    kind, eta)
                if kind == "switch":
                    # -s_max above the switch price, the falling side below
                    assert (q[i] == lo) == (eta > switch)
            if switch is not None:
                assert math.exp(cfg.stack.log_switch[0, i]) == pytest.approx(
                    switch, rel=1e-12)
        assert seen["below_lo"] >= 3 and seen["switch"] >= 10
        assert seen["above_peak"] == 10

    def test_rising_root_never_beats_capacity_bound(self):
        # on [-s_max, rising root] the shaded marginal stays at most eta, so
        # the Lagrangian falls there: the rising root is a local minimum. At
        # the lowest eta the root is -s_max itself, up to rounding.
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(20):
            cfg = _random_non_concave_market(rng)
            n, d_min, lo = cfg.n_prosumers, cfg.d_min, -cfg.s_max
            L = (n - 1) * d_min
            for i in np.flatnonzero(cfg.concavity_thresholds > lo):
                beta = cfg.betas[i]
                r = beta / (5.0 * d_min)
                peak = min(cfg.concavity_thresholds[i], cfg.q_upper)
                x_peak = _log_shaded_marginal(beta, d_min, n, peak)
                x_lo = (_log_shaded_marginal(beta, d_min, n, lo) if lo > -L
                        else x_peak - 20.0)
                # the rising root on [-L, peak], clipped to -s_max
                a = max(lo, -L * (1.0 - 1e-12))
                for x in np.linspace(x_lo, x_peak, 7):
                    eta = math.exp(x)
                    if _log_shaded_marginal(beta, d_min, n, a) >= math.log(eta):
                        rise = a
                    elif (_log_shaded_marginal(beta, d_min, n, peak)
                          <= math.log(eta)):
                        rise = peak  # eta rounds onto the peak
                    else:
                        rise = _brentq_root(beta, d_min, n, eta, a, peak)
                    assert (_shaded_lagrangian(beta, d_min, n, eta, rise)
                            <= _shaded_lagrangian(beta, d_min, n, eta, lo)
                            + 1e-12)
                    checked += 1
        assert checked >= 100


class TestSolveDual:
    @pytest.mark.parametrize("mode", [MODE_TRUE, MODE_MODIFIED])
    def test_symmetric_market_is_all_zero(self, mode):
        cfg = symmetric_config()
        res = solve_dual(cfg, mode)
        np.testing.assert_allclose(res.allocation.quantities, 0.0, atol=1e-9)
        assert res.price == pytest.approx(2.5 / 20.0, abs=1e-9)
        assert res.converged

    def test_symmetric_prices_match_across_modes(self):
        # the concave regime is required for the modified program to share
        # the symmetric optimum: -s_max must sit above the concavity onset
        cfg = symmetric_config(n=5, beta=2.0, d_min=2.0, s_max=1.0)
        assert np.all(cfg.concavity_thresholds <= -cfg.s_max)
        a = solve_dual(cfg, MODE_TRUE)
        b = solve_dual(cfg, MODE_MODIFIED)
        assert a.price == pytest.approx(b.price, abs=1e-9)
        assert a.welfare_true == pytest.approx(b.welfare_true, abs=1e-9)

    def test_against_brute_force_n2(self, monkeypatch):
        cfg = MarketConfig(2, 4.0, 3.0, (2.0, 3.0))
        dual = solve_dual(cfg, MODE_TRUE)
        monkeypatch.setattr(oracle, "_ZOOM_PASSES", 0)  # one fine pass
        grid = brute_force_program(cfg, MODE_TRUE, grid_points=1_000_001)
        np.testing.assert_allclose(
            dual.allocation.quantities, grid.quantities, atol=1e-4)

    def test_feasibility_and_kkt(self):
        cfg = MarketConfig(11, 4.0, 3.0,
                           tuple(2.0 + 0.1 * i for i in range(11)))
        for mode in (MODE_TRUE, MODE_MODIFIED):
            res = solve_dual(cfg, mode)
            q = res.allocation.quantities
            assert abs(q.sum()) <= cfg.tol_root
            assert np.all(q >= -cfg.s_max - cfg.tol_root)
            interior = ~res.allocation.at_capacity
            assert np.all(res.allocation.kkt_residuals[interior] <= cfg.tol_kkt)
            assert res.price > 0

    def test_residuals_at_overflowing_capacity_marginals(self):
        # prosumers 0 and 1 end at -s_max, where the clamped shaded
        # marginal r*exp(700)*(1 - s_max/L) leaves the float range
        cfg = MarketConfig(3, 0.1, 0.3, (1e4, 1e3, 2.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error")
            warnings.simplefilter("always", SaturationWarning)
            res = solve_dual(cfg, MODE_MODIFIED)
        assert [w.category for w in caught] == [SaturationWarning]
        assert res.allocation.kkt_residuals.tolist() == [0.0, 0.0, 0.0]
        assert res.allocation.at_capacity.tolist() == [True, True, False]

    def test_bounded_panel_has_no_flags(self):
        # conditions hold on this configuration, so no prosumer is flagged
        cfg = MarketConfig(11, 4.0, 3.0,
                           tuple(2.0 + 0.1 * i for i in range(11)))
        res = solve_dual(cfg, MODE_MODIFIED)
        assert res.non_concave_prosumers == ()
        assert not res.non_concave
        assert np.all(check_eq21(res.allocation.quantities, cfg))

    def test_theta_recovery_invariants(self):
        cfg = MarketConfig(11, 4.0, 3.0,
                           tuple(2.0 + 0.1 * i for i in range(11)))
        for mode in (MODE_TRUE, MODE_MODIFIED):
            res = solve_dual(cfg, mode)
            q = res.allocation.quantities
            np.testing.assert_allclose(
                res.thetas, res.price * (q - cfg.d_min), atol=1e-10)
            assert res.thetas.sum() <= 0
            assert clearing_price(res.thetas, cfg.d_min) == pytest.approx(
                res.price, rel=1e-12)

    def test_welfare_true_in_both_modes(self):
        cfg = MarketConfig(3, 2.0, 0.8, (3.0, 4.0, 5.5))
        for mode in (MODE_TRUE, MODE_MODIFIED):
            res = solve_dual(cfg, mode)
            assert res.welfare_true == pytest.approx(
                welfare(cfg, res.allocation.quantities), rel=1e-12)

    def test_efficiency_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            cfg = MarketConfig(
                n, float(rng.uniform(0.5, 5.0)), float(rng.uniform(0.2, 3.0)),
                tuple(rng.uniform(0.5, 4.0, n)))
            w_comp = solve_dual(cfg, MODE_TRUE).welfare_true
            w_nash = solve_dual(cfg, MODE_MODIFIED).welfare_true
            assert w_nash <= w_comp + 1e-10

    def test_dual_excess_monotone(self):
        cfg = MarketConfig(11, 1.0, 3.0,
                           tuple(0.5 + 0.1 * i for i in range(1, 12)))
        etas = np.geomspace(1e-4, 10.0, 60)
        for inverse in (marginal_inverse_true,
                        lambda c, e: marginal_inverse_modified(c, e)[0]):
            vals = [float(inverse(cfg, e).sum()) for e in etas]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("mode, betas, d_min, s_max", [
        (MODE_TRUE, (1e4,) * 3, 1.0, 1.0),
        (MODE_MODIFIED, (1e4,) * 3, 1.0, 1.0),
        # the returned allocation saturates the welfare evaluation as well
        (MODE_TRUE, (30.0, 2400.0, 2.0), 0.125, 0.65),
    ], ids=["true", "modified", "true-welfare-saturated"])
    def test_saturation_warns_once_per_solve(self, mode, betas, d_min, s_max):
        # r*s_max > 700: the exponent clamp engages in every solve
        cfg = MarketConfig(3, d_min, s_max, betas)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_dual(cfg, mode)
        saturation = [w for w in caught
                      if issubclass(w.category, SaturationWarning)]
        assert len(saturation) == 1

    def test_non_concave_tie_jump_is_reported(self):
        # two identical prosumers whose shaded curves are convex on the whole
        # feasible range: the per-prosumer argmax jumps between the endpoints
        # at the same eta, so no multiplier balances the market exactly
        cfg = MarketConfig(2, 4.0, 3.0, (2.5, 2.5))
        res = solve_dual(cfg, MODE_MODIFIED)
        assert not res.converged
        assert abs(res.balance_residual) > cfg.tol_root
        assert res.non_concave

    def test_asymmetric_vertex_case_balances(self):
        # distinct switch points let the dual split the endpoints exactly
        cfg = MarketConfig(2, 4.0, 3.0, (2.0, 3.0))
        res = solve_dual(cfg, MODE_MODIFIED)
        assert res.converged
        np.testing.assert_allclose(np.sort(res.allocation.quantities),
                                   [-3.0, 3.0], atol=1e-9)

    def test_mode_validation(self):
        with pytest.raises(DomainError):
            solve_dual(symmetric_config(n=2), "competitive")

    def test_solves_take_few_iterations(self):
        # every solve searches ln(eta) by Newton steps, so balanced solves
        # take few evaluations; the one unbalanced case-study row stops once
        # its bracket closes on the jump (200 evaluations without that stop),
        # which stepping to the switch price and the float above it finds
        # in 5 (48 by bisection)
        assert solve_dual(symmetric_config(), MODE_TRUE).iterations >= 1
        gap_rows = []
        for panel in PANELS:
            spec = case_study_spec(panel, steps=30)
            for value in spec.values():
                cfg = spec.config_at(float(value))
                for mode in (MODE_TRUE, MODE_MODIFIED):
                    res = solve_dual(cfg, mode)
                    if res.converged:
                        assert res.iterations <= 12, (panel, value, mode)
                    else:
                        gap_rows.append((panel, float(value), mode))
                        assert res.iterations <= 12, (panel, value, mode)
        assert gap_rows == [("capacity_unbounded", 4.5, MODE_MODIFIED)]

    @pytest.mark.parametrize("mode", [MODE_TRUE, MODE_MODIFIED])
    def test_converged_at_rounding_floor(self, mode):
        # the search stops at the rounding floor of the sum, 8*eps*sum |q_i|,
        # which lies above a tol_root at the float resolution
        cfg = MarketConfig(3, 2.0, 0.6, (3.5, 4.0, 5.5),
                           tol_root=sys.float_info.epsilon)
        res = solve_dual(cfg, mode)
        floor = 8.0 * sys.float_info.epsilon * np.abs(res.quantities).sum()
        assert cfg.tol_root < abs(res.balance_residual) <= floor
        assert res.converged

    @pytest.mark.parametrize("mode", [MODE_TRUE, MODE_MODIFIED])
    @pytest.mark.parametrize("beta", [1e3, 1e4])
    def test_steep_betas_converge(self, beta, mode):
        # the starting bracket spans hundreds of decades of eta
        cfg = MarketConfig(3, 1.0, 1.0, (beta,) * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            res = solve_dual(cfg, mode)
        assert res.converged
        assert res.price == pytest.approx(beta / 5.0, rel=1e-12)

    @pytest.mark.parametrize("mode, cfg", [
        (MODE_TRUE, MarketConfig(3, 1.0, 1.0, (1e4, 0.05, 5.0))),
        (MODE_MODIFIED, MarketConfig(3, 5.0, 0.5, (1e5, 5.0, 10.0))),
    ], ids=["true", "modified"])
    def test_infinite_bracket_top(self, mode, cfg):
        # the marginal at -s_max overflows, so the bracket top is inf; from
        # the start only the steep prosumer is free and its flat slope asks
        # for a Newton step past the largest finite ln(eta)
        if mode == MODE_MODIFIED:
            assert not np.any(cfg.concavity_thresholds > -cfg.s_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            res = solve_dual(cfg, mode)
        assert res.converged
        # the free prosumers' marginals, written apart from the package,
        # meet the price; rounding q to eps*L moves the steep marginal by
        # about r*L*eps = 9e-12
        q = res.allocation.quantities
        free = (q > -cfg.s_max) & (q < cfg.q_upper)
        r = np.asarray(cfg.betas)[free] / (5.0 * cfg.d_min)
        marginal = r * np.exp(-r * q[free])
        if mode == MODE_MODIFIED:
            marginal *= 1.0 + q[free] / ((cfg.n_prosumers - 1) * cfg.d_min)
        assert free.sum() == 2
        np.testing.assert_allclose(marginal, res.price, rtol=1e-10)

    @pytest.mark.parametrize("cfg", [
        MarketConfig(2, 1.0, 1.5, (0.5, 0.6)),
        MarketConfig(3, 0.631, 1.517, (0.3, 0.5, 0.7)),
    ], ids=["n2", "n3"])
    def test_negative_bracket_top(self, cfg):
        # s_max > (N-1)*d_min puts every shaded marginal at -s_max below
        # zero, and every eq21 threshold lies above q_upper
        assert np.all(cfg.concavity_thresholds >= cfg.q_upper)
        res = solve_dual(cfg, MODE_MODIFIED)
        assert res.converged
        assert abs(res.balance_residual) <= 1e-14
        # each q is the global argmax of its shaded Lagrangian
        grid = np.linspace(-cfg.s_max, cfg.q_upper, 200_001)
        for spec, q in zip(cfg.utilities(), res.allocation.quantities):
            n = cfg.n_prosumers
            lagr = modified_utility(spec, n, grid) - res.price * grid
            at_q = modified_utility(spec, n, q) - res.price * q
            assert at_q >= lagr.max() - 1e-12

    def test_underflowing_reach_still_balances(self):
        # every prosumer is non-concave by a hair and every shaded marginal
        # at q_upper underflows to 0, so the largest reach reads 0 although
        # the chord slopes are positive; the market balances all the same
        cfg = MarketConfig(3, 1.0, 1.999, (2000.0, 2500.0, 3000.0))
        assert np.all(cfg.concavity_thresholds > -cfg.s_max)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            res = solve_dual(cfg, MODE_MODIFIED)
        assert res.converged
        assert abs(res.balance_residual) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_large_market_nash_balances(self, seed):
        # L = (N-1)*d_min = 4e4: forming q as u/r - L cancels about
        # log10(r*L) digits per prosumer, which left these three Nash solves
        # unbalanced by 2e-9 to 1e-8 (one after 14 evaluations)
        n, d_min = 10_000, 4.0
        rng = np.random.default_rng(seed)
        cfg = MarketConfig(n, d_min, 1.6, tuple(rng.uniform(1.5, 3.5, n)))
        res = solve_dual(cfg, MODE_MODIFIED)
        assert res.converged
        assert abs(res.balance_residual) <= 1e-9
        assert res.iterations <= 12
        log_eta = math.log(res.price)
        lo, hi = -cfg.s_max, cfg.q_upper
        for i in rng.choice(n, 200, replace=False):
            beta = cfg.betas[i]
            if _log_shaded_marginal(beta, d_min, n, lo) <= log_eta:
                want = lo
            else:
                want = _brentq_root(beta, d_min, n, res.price, lo, hi)
            assert res.quantities[i] == pytest.approx(want, abs=1e-9)

    def test_non_concave_jump_below_infinite_bracket_top(self):
        # the bracket top overflows to inf, and prosumer 2's argmax jumps
        # from q_upper to -s_max across the balance point, so the search
        # ends where its bracket closes on the jump
        cfg = MarketConfig(3, 1.0, 1.0, (3e4, 0.1, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            res = solve_dual(cfg, MODE_MODIFIED)
            below, _ = marginal_inverse_modified(cfg, res.price * (1 - 1e-9))
            above, _ = marginal_inverse_modified(cfg, res.price * (1 + 1e-9))
        assert math.isfinite(res.price)
        assert not res.converged
        assert res.balance_residual == res.quantities.sum()
        assert below.sum() > 0 > above.sum()
        assert (below[2], above[2]) == (cfg.q_upper, -cfg.s_max)


def _random_concave_market(rng):
    """A market whose shaded curves are all concave above -s_max."""
    n = int(rng.integers(2, 41))
    d_min = float(rng.uniform(0.2, 3.0))
    beta_lo = max(0.5, 6.0 / (n - 1))
    betas = rng.uniform(beta_lo, beta_lo + 4.0, n)
    room = (n - 1) * d_min - 5.0 * d_min / betas.min()
    r_max = betas.max() / (5.0 * d_min)
    # r*q_upper at most 300, so exp(-r*q_upper) stays far from underflow
    s_max = float(min(rng.uniform(0.05, 0.9) * room,
                      300.0 / (r_max * (n - 1))))
    return MarketConfig(n, d_min, s_max, tuple(betas))


def _reference_quantities(cfg, mode, x):
    """Per-prosumer maximizers at eta = exp(x), written apart from the package."""
    r = np.asarray(cfg.betas) / (5.0 * cfg.d_min)
    if mode == MODE_TRUE:
        q = (np.log(r) - x) / r
    else:
        L = (cfg.n_prosumers - 1) * cfg.d_min
        z = np.exp(x + math.log(L) - r * L)
        q = -lambertw(-z, -1).real / r - L
    return np.clip(q, -cfg.s_max, cfg.q_upper)


class TestAgainstLogBrentq:
    """solve_dual against an independent balance root in ln(eta)."""

    @pytest.mark.parametrize("mode", [MODE_TRUE, MODE_MODIFIED])
    def test_random_concave_markets(self, mode):
        rng = np.random.default_rng([7, mode == MODE_TRUE])
        interior_seen = 0
        for _ in range(200):
            cfg = _random_concave_market(rng)
            assert not np.any(cfg.concavity_thresholds > -cfg.s_max)
            r = np.asarray(cfg.betas) / (5.0 * cfg.d_min)
            # every prosumer at q_upper below x_lo and at -s_max above x_hi
            x_lo = float(np.min(np.log(r) - r * cfg.q_upper)) - 1.0
            x_hi = float(np.max(np.log(r) + r * cfg.s_max)) + 1.0
            x = brentq(lambda t: float(_reference_quantities(cfg, mode, t).sum()),
                       x_lo, x_hi, xtol=1e-15, rtol=4 * np.finfo(float).eps,
                       maxiter=500)
            res = solve_dual(cfg, mode)
            q = _reference_quantities(cfg, mode, x)
            # with every prosumer clipped the price is only fixed to an interval
            # the evaluation that confirms the last Newton step brings both
            # errors from about 6e-14 down to about 1e-15
            if np.any((q > -cfg.s_max) & (q < cfg.q_upper)):
                interior_seen += 1
                assert res.price == pytest.approx(math.exp(x), rel=1e-14)
            assert abs(res.balance_residual) <= (
                1e-14 * cfg.n_prosumers * max(1.0, cfg.s_max))
            # 18 (true) and 66 (modified) without the rounding-floor stop
            assert res.iterations <= 12
        assert interior_seen >= 150


def _random_non_concave_market(rng):
    """A market where some shaded curve is convex somewhere above -s_max."""
    while True:
        n = int(rng.integers(2, 12))
        d_min = float(rng.uniform(0.2, 3.0))
        s_max = float(rng.uniform(0.05, 2.0) * (n - 1) * d_min)
        cfg = MarketConfig(n, d_min, s_max, tuple(rng.uniform(0.3, 4.0, n)))
        if np.any(cfg.concavity_thresholds > -cfg.s_max):
            return cfg


def _closed_form_bracket(cfg, mode):
    """solve_dual's starting bracket, written apart from the package."""
    r = np.asarray(cfg.betas) / (5.0 * cfg.d_min)
    L = (cfg.n_prosumers - 1) * cfg.d_min

    def marginal(q):
        m = r * np.exp(-r * q)
        return m if mode == MODE_TRUE else (1.0 + q / L) * m

    peak = (np.full(r.size, -cfg.s_max) if mode == MODE_TRUE else
            np.clip(cfg.concavity_thresholds, -cfg.s_max, cfg.q_upper))
    return marginal(cfg.q_upper).min() / 10.0, marginal(peak).max() * 10.0


def _bisection_reference(cfg):
    """Bisect eta in linear space on the modified excess demand.

    The bracket is solve_dual's starting bracket, written apart from the
    package; its bottom is widened tenfold at a time, at most 60 times,
    until sum q >= 0 or |sum q| is within the rounding floor 8*eps*sum |q_i|. Returns the excess
    evaluation (sum q, q) of least |sum q|, or None when no such bottom is
    found.
    """
    def excess(eta):
        q, _ = marginal_inverse_modified(cfg, eta)
        return float(q.sum()), q

    def bottom_ok(e):
        floor = 8.0 * sys.float_info.epsilon * float(np.abs(e[1]).sum())
        return e[0] >= -floor

    lo, hi = _closed_form_bracket(cfg, MODE_MODIFIED)
    e_lo = excess(lo)
    for _ in range(60):
        if bottom_ok(e_lo):
            break
        lo /= 10.0
        e_lo = excess(lo)
    if not bottom_ok(e_lo):
        return None
    best = min(e_lo, excess(hi), key=lambda e: abs(e[0]))
    for _ in range(200):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        e = excess(mid)
        if abs(e[0]) < abs(best[0]):
            best = e
        if e[0] >= 0:
            lo = mid
        else:
            hi = mid
    return best


class TestAgainstBisection:
    """solve_dual against a linear-space bisection where excess can jump."""

    def test_random_non_concave_markets(self):
        rng = np.random.default_rng(11)
        balanced = gaps = 0
        for _ in range(200):
            cfg = _random_non_concave_market(rng)
            ref = _bisection_reference(cfg)
            if ref is None:
                # no eta leaves excess demand non-negative
                with pytest.raises(BracketFailure):
                    solve_dual(cfg, MODE_MODIFIED)
                continue
            res = solve_dual(cfg, MODE_MODIFIED)
            assert res.converged == (abs(ref[0]) <= cfg.tol_root)
            assert abs(res.balance_residual) <= abs(ref[0]) + 1e-12
            if res.converged:
                balanced += 1
                np.testing.assert_allclose(res.quantities, ref[1], atol=1e-9)
            else:
                gaps += 1
        assert balanced >= 100 and gaps >= 20

    def test_wide_capacity_markets_need_no_widening(self):
        # s_max between 2L and 4L, L = (N-1)*d_min, makes every prosumer
        # non-concave. Where excess demand is negative at the closed-form
        # bottom, the largest reach (the chord slope from -s_max to q_upper)
        # lowers the bottom below the balance point with no evaluation
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 20:
            n = int(rng.integers(2, 6))
            d_min = float(rng.uniform(0.2, 3.0))
            s_max = float(rng.uniform(2.0, 4.0) * (n - 1) * d_min)
            cfg = MarketConfig(n, d_min, s_max, tuple(rng.uniform(0.3, 4.0, n)))
            bottom, _ = _closed_form_bracket(cfg, MODE_MODIFIED)
            if marginal_inverse_modified(cfg, bottom)[0].sum() >= 0:
                continue
            ref = _bisection_reference(cfg)
            if ref is None:
                continue
            res = solve_dual(cfg, MODE_MODIFIED)
            assert res.converged == (abs(ref[0]) <= cfg.tol_root)
            np.testing.assert_allclose(res.quantities, ref[1], atol=1e-9)
            # about 59 evaluations when the bottom is found by widening
            assert res.iterations <= 12
            checked += 1


class TestSwitchStep:
    """A bracket around one prosumer's jump closes at its switch price."""

    def test_random_jump_rows_take_few_evaluations(self):
        # bisecting every safeguard step took 55 evaluations per unbalanced
        # solve on average here, and up to 65; stepping to the switch
        # prices takes about 5.4, and at most 9
        rng = np.random.default_rng(2026)
        counts = []
        for _ in range(400):
            cfg = _random_non_concave_market(rng)
            try:
                res = solve_dual(cfg, MODE_MODIFIED)
            except BracketFailure:
                continue
            if res.converged:
                continue
            counts.append(res.iterations)
            assert res.iterations <= 12
            # excess demand changes sign within a few floats of eta past the
            # price: the bracket still closes on adjacent floats of ln(eta),
            # which lie several floats of eta apart where |ln(eta)| > 1.
            # Where excess is flat or rounds unevenly, the evaluation of
            # least |sum q| can sit a float off the bracket end
            up = res.balance_residual > 0
            eta = res.price
            for _ in range(16):
                eta = math.nextafter(eta, math.inf if up else 0.0)
                if (marginal_inverse_modified(cfg, eta)[0].sum() > 0) != up:
                    break
            else:
                pytest.fail(f"no sign change near {res.price!r} for {cfg}")
        assert len(counts) >= 80
        assert sum(counts) / len(counts) <= 8

    def test_excess_is_monotone_at_the_jump(self):
        # the case-study gap row jumps where prosumer 2 switches to -s_max;
        # one comparison of ln(eta) with its switch keeps excess demand
        # non-increasing float by float across the jump
        cfg = case_study_spec("capacity_unbounded", steps=30).config_at(4.5)
        res = solve_dual(cfg, MODE_MODIFIED)
        x = math.log(res.price)
        for _ in range(20):
            x = math.nextafter(x, -math.inf)
        sums = []
        for _ in range(41):
            sums.append(float(marginal_inverse_modified(cfg, math.exp(x))[0]
                              .sum()))
            x = math.nextafter(x, math.inf)
        assert all(b <= a for a, b in zip(sums, sums[1:]))
        assert sums[0] > 0 > sums[-1]


class TestRecoverBids:
    def test_symmetric_bids(self):
        cfg = symmetric_config()
        res = solve_dual(cfg, MODE_TRUE)
        thetas = recover_bids(res.allocation, cfg.d_min)
        np.testing.assert_allclose(thetas, -res.price * cfg.d_min, atol=1e-10)

    def test_round_trip_against_quantities(self):
        cfg = MarketConfig(11, 4.0, 3.0,
                           tuple(2.0 + 0.1 * i for i in range(11)))
        res = solve_dual(cfg, MODE_MODIFIED)
        thetas = recover_bids(res.allocation, cfg.d_min)
        for theta, q in zip(thetas, res.allocation.quantities):
            assert quantity_from_bid(theta, res.allocation.dual_price,
                                     cfg.d_min) == pytest.approx(q, abs=1e-10)

    def test_rival_sums_negative_at_bounded_panel(self):
        cfg = MarketConfig(11, 4.0, 3.0,
                           tuple(2.0 + 0.1 * i for i in range(11)))
        res = solve_dual(cfg, MODE_MODIFIED)
        thetas = recover_bids(res.allocation, cfg.d_min)
        rival_sums = thetas.sum() - thetas
        assert np.all(rival_sums < 0)

    def test_rejects_nonpositive_price(self):
        alloc = Allocation(np.zeros(2), 0.0)
        with pytest.raises(DomainError):
            recover_bids(alloc, 1.0)

    @pytest.mark.parametrize("price, d_min, name", [
        (math.nan, 1.0, "dual price"), (math.inf, 1.0, "dual price"),
        (1.0, math.nan, "d_min"), (1.0, math.inf, "d_min"),
        (1.0, 0.0, "d_min")])
    def test_rejects_non_finite_inputs(self, price, d_min, name):
        alloc = Allocation(np.zeros(2), price)
        with pytest.raises(DomainError, match=f"^{name} must be"):
            recover_bids(alloc, d_min)


class TestWelfare:
    def test_zero_at_inelastic_point(self):
        cfg = symmetric_config(n=4, beta=1.5, d_min=2.0)
        assert welfare(cfg, np.full(4, 2.0)) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_equilibrium_value(self):
        cfg = symmetric_config()
        expected = 11 * (math.exp(-0.5) - 1.0)
        assert welfare(cfg, np.zeros(11)) == pytest.approx(expected, rel=1e-14)

    def test_length_validation(self):
        cfg = symmetric_config(n=3, beta=1.0, d_min=1.0, s_max=1.0)
        with pytest.raises(DomainError):
            welfare(cfg, np.zeros(4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_quantities(self, bad):
        cfg = symmetric_config(n=3, beta=1.0, d_min=1.0, s_max=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be finite"):
                welfare(cfg, [bad, 0.0, 0.0])


class TestOnDemandBracket:
    """The closed-form bracket is a sign bracket whose ends are never evaluated."""

    @pytest.fixture
    def etas(self, monkeypatch):
        """Every evaluated eta, keyed by the (d_min, s_max) of its market."""
        seen = collections.defaultdict(list)
        # _inverse_true takes eta, _inverse_modified x = ln(eta) first
        for name, to_eta in (("_inverse_true", np.asarray),
                             ("_inverse_modified", np.exp)):
            inverse = getattr(solver, name)

            def counted(stack, arg, *args, inverse=inverse, to_eta=to_eta):
                # arg is an (m, 1) column, or a float for a stack of one
                for key in zip(stack.d_min[:, 0].tolist(),
                               stack.s_max[:, 0].tolist(),
                               np.ravel(to_eta(arg)).tolist()):
                    seen[key[:2]].append(key[2])
                return inverse(stack, arg, *args)

            monkeypatch.setattr(solver, name, counted)
        return seen

    def test_stack_evaluates_every_row_every_pass(self, etas):
        # each panel and mode is one lockstep search over the stacked points,
        # and each pass evaluates every row, settled or not
        gap_rows = 0
        for panel in PANELS:
            spec = case_study_spec(panel, steps=30)
            stack = experiments._sweep_stack(spec, spec.values())
            for mode in (MODE_TRUE, MODE_MODIFIED):
                etas.clear()
                batch = solver._solve_stack(stack, mode)
                for k, value in enumerate(spec.values()):
                    cfg = spec.config_at(float(value))
                    key = (panel, float(value), mode)
                    seen = etas[(cfg.d_min, cfg.s_max)]
                    assert len(seen) == batch.passes, key
                    # a settled row repeats the last eta of its own search
                    own = batch.iterations[k]
                    assert 0 < own <= batch.passes, key
                    assert set(seen[own:]) <= {seen[own - 1]}, key
                    gap_rows += abs(batch.totals[k]) > cfg.tol_root
                    bottom, top = _closed_form_bracket(cfg, mode)
                    assert bottom * (1 + 1e-9) < min(seen), key
                    assert max(seen) < top * (1 - 1e-9), key
        # the s_max=4.5 Nash row is the one unbalanced solve
        assert gap_rows == 1

    def test_iterations_count_every_evaluation(self, etas):
        # a solve is the search of a stack of one, whose every pass is its own
        for panel in PANELS:
            spec = case_study_spec(panel, steps=30)
            for value in spec.values():
                cfg = spec.config_at(float(value))
                for mode in (MODE_TRUE, MODE_MODIFIED):
                    etas.clear()
                    res = solve_dual(cfg, mode)
                    assert len(etas[(cfg.d_min, cfg.s_max)]) == res.iterations

    def test_no_bottom_still_raises(self, etas):
        # every prosumer's shaded curve is lower at q_upper than at -s_max,
        # so each prefers -s_max at every price (excess -8 everywhere); the
        # solve says so before any evaluation
        cfg = MarketConfig(2, 1.0, 4.0, (2.0, 3.0))
        with pytest.raises(BracketFailure,
                           match="every prosumer prefers -s_max") as err:
            solve_dual(cfg, MODE_MODIFIED)
        assert not etas
        eta_lo, eta_hi = _closed_form_bracket(cfg, MODE_MODIFIED)
        assert str(err.value).endswith(
            f"(eta range [{eta_lo:g}, {eta_hi:g}], excess [-8, -8])")


class TestLockstepPasses:
    """Every pass of a stacked search evaluates the whole stack."""

    def test_passes_per_panel_and_mode(self):
        expected = {"capacity_bounded": (4, 6), "capacity_unbounded": (4, 7),
                    "demand_bounded": (3, 5), "demand_unbounded": (4, 6)}
        for panel, passes in expected.items():
            spec = case_study_spec(panel, steps=30)
            stack = experiments._sweep_stack(spec, spec.values())
            assert tuple(solver._solve_stack(stack, mode).passes
                         for mode in (MODE_TRUE, MODE_MODIFIED)) == passes


class TestLockstepSlopes:
    """Each market's slope is its row reduction, whatever shares its stack."""

    @pytest.mark.parametrize("shaded", [False, True], ids=["true", "shaded"])
    def test_slopes_equal_per_market_sums(self, shaded):
        rng = np.random.default_rng(4)
        for n in (3, 11, 40, 200):
            stack = market_stack(rng.uniform(0.5, 4.0, n),
                                 rng.uniform(0.5, 3.0, 25),
                                 rng.uniform(0.2, 3.0, 25))
            lo, hi = stack.q_lower, stack.q_upper
            # about a third of the entries sit on a bound
            q = np.where(rng.random(lo.shape) < 0.3, lo,
                         rng.uniform(lo, np.minimum(hi, 5.0)))
            free = (q > lo) & (q < hi)
            expected = []
            for k in range(len(q)):
                if shaded:
                    curvature = _shaded_curvature(
                        stack.rates[k][free[k]], float(stack.lengths[k, 0]),
                        q[k][free[k]], warn=False)
                    expected.append(float(np.sum(1.0 / curvature)))
                else:
                    expected.append(-float(np.sum(
                        stack.inv_rates[k][free[k]])))
            slopes = solver._slopes(stack, q, free, shaded)
            # the zero-filled rows group their terms differently from the
            # free entries alone, so the sums agree to rounding
            np.testing.assert_allclose(slopes, expected, rtol=1e-13)
            assert [solver._slopes(
                MarketStack(*(field[[k]] for field in stack)), q[[k]],
                free[[k]], shaded)[0] for k in range(len(q))] == slopes

    def test_bound_terms_out_of_float_range_are_dropped(self):
        # at -s_max the steep prosumer's clamped S_mod'' is -inf + inf
        stack = market_stack((1e4, 2.0, 3.0), (0.1,), (0.1,))
        q = np.array([[-0.1, 0.05, 0.07]])
        free = (q > stack.q_lower) & (q < stack.q_upper)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slopes = solver._slopes(stack, q, free, True)
        expected = np.sum(1.0 / _shaded_curvature(
            stack.rates[0, 1:], 0.2, q[0, 1:], warn=False))
        assert slopes == [pytest.approx(expected, rel=1e-13)]
