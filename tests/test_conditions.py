"""Tests for the existence/uniqueness condition checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prosumer_market import (
    MODE_MODIFIED,
    DomainError,
    MarketConfig,
    case_study_spec,
    check_eq15,
    check_eq21,
    check_lemma1,
    eq15_bounds,
    evaluate_conditions,
    solve_dual,
)


def uniform_beta_config(beta, d_min, n, s_max=3.0):
    return MarketConfig(n, d_min, s_max, (beta,) * n)


class TestLemma1:
    def test_all_zero_profile_fails(self):
        assert not check_lemma1(np.zeros(4)).any()

    def test_all_negative(self):
        assert check_lemma1([-1.0, -1.0, -1.0]).all()

    def test_mixed_signs(self):
        got = check_lemma1([3.0, -1.0, -1.0])
        np.testing.assert_array_equal(got, [True, False, False])


class TestEq15:
    def test_symmetric_equilibrium_passes(self):
        cfg = uniform_beta_config(2.5, 4.0, 11)
        mu = 2.5 / 20.0
        thetas = np.full(11, -mu * cfg.d_min)
        assert check_eq15(thetas, cfg).all()

    def test_nonnegative_rival_sum_fails(self):
        # bounds cross whenever the rival bids sum >= 0
        cfg = uniform_beta_config(2.5, 4.0, 3)
        thetas = np.array([3.0, -1.0, -1.0])
        got = check_eq15(thetas, cfg)
        assert not got[1] and not got[2]

    def test_bounds_orientation(self):
        cfg = uniform_beta_config(2.5, 4.0, 11)
        mu = 2.5 / 20.0
        thetas = np.full(11, -mu * cfg.d_min)
        lower, upper = eq15_bounds(thetas, cfg)
        assert np.all(lower <= thetas)
        assert np.all(thetas <= upper)
        # right bound: rival sum with the epsilon margin
        np.testing.assert_allclose(upper, 10 * mu * cfg.d_min - cfg.eps_price)


class TestProfileLength:
    def test_wrong_length_is_a_domain_error(self):
        cfg = uniform_beta_config(2.5, 4.0, 3)
        short, right = np.full(2, -0.5), np.full(3, -0.5)
        with pytest.raises(DomainError, match="expected 3 bids"):
            check_eq15(short, cfg)
        with pytest.raises(DomainError, match="expected 3 bids"):
            eq15_bounds(np.full(1, -0.5), cfg)
        with pytest.raises(DomainError, match="expected 3 quantities"):
            check_eq21(np.zeros(4), cfg)
        with pytest.raises(DomainError, match="expected 3 bids"):
            evaluate_conditions(cfg, short, np.zeros(3))
        with pytest.raises(DomainError, match="expected 3 quantities"):
            evaluate_conditions(cfg, right, np.zeros(2))


class TestEq18Eq21:
    def test_threshold_values(self):
        cfg = uniform_beta_config(0.6, 1.0, 11)
        # threshold = 5/0.6 - 10 = -1.6667
        assert check_eq21(np.full(11, -1.0), cfg).all()
        assert not check_eq21(np.full(11, -2.0), cfg).any()

    def test_beta_07_thresholds(self):
        cfg = uniform_beta_config(0.7, 1.0, 11)
        assert check_eq21(np.full(11, -2.5), cfg).all()   # threshold ~ -2.857
        assert not check_eq21(np.full(11, -3.0), cfg).any()

    def test_inelastic_point_passes_for_case_study_parameters(self):
        for beta in (0.6, 1.0, 2.0, 3.0):
            cfg = uniform_beta_config(beta, 4.0, 11)
            assert check_eq21(np.full(11, cfg.d_min), cfg).all()


class TestContainment:
    """Relation between the eq15 left bound and the eq18 (= eq21) threshold.

    For this utility family the bid region satisfying the eq15 left
    inequality is strictly inside the region satisfying eq18 (the two
    thresholds differ by rival_sum * N * beta / 10 < 0), so eq15 implies
    eq18 pointwise; the converse direction fails.
    """

    @given(
        n=st.integers(2, 12),
        beta=st.floats(0.3, 5.0),
        d_min=st.floats(0.3, 5.0),
        rival=st.floats(-40.0, -0.01),
        frac=st.floats(0.0, 0.999),
    )
    @settings(max_examples=400)
    def test_eq15_left_implies_eq18(self, n, beta, d_min, rival, frac):
        cfg = MarketConfig(n, d_min, 3.0, (beta,) * n)
        # candidate bid below the price-zero wall: theta < -rival
        theta_i = rival + frac * (-2 * rival)
        if theta_i + rival >= 0:
            return
        price = -(theta_i + rival) / (n * d_min)
        thetas = np.zeros(n)
        thetas[0] = theta_i
        thetas[1:] = rival / (n - 1)
        quantities = np.array(
            [d_min + t / price for t in thetas])
        lower, _ = eq15_bounds(thetas, cfg)
        if lower[0] <= theta_i:
            assert check_eq21(quantities, cfg)[0]

    def test_eq18_does_not_imply_eq15_left(self):
        # regression counterexample: beta=0.6, rivals sum -1, own bid 0
        n, beta, d_min = 11, 0.6, 1.0
        cfg = MarketConfig(n, d_min, 3.0, (beta,) * n)
        thetas = np.zeros(n)
        thetas[1:] = -1.0 / (n - 1)
        price = 1.0 / (n * d_min)
        quantities = np.array([d_min + t / price for t in thetas])
        assert check_eq21(quantities, cfg)[0]
        lower, _ = eq15_bounds(thetas, cfg)
        assert lower[0] > thetas[0]


class TestDegenerateDerivatives:
    # q=800 underflows the marginal to zero; q=-800 saturates the guard.
    # Every check is closed-form in the bids and the eq21 threshold, so
    # both points still get flags.

    def test_conditions_defined_where_derivatives_degenerate(self):
        cfg = uniform_beta_config(5.0, 1.0, 2)
        report = evaluate_conditions(cfg, np.array([-1.0, -1.0]),
                                     np.array([800.0, -800.0]))
        np.testing.assert_array_equal(report.eq21_ok, [True, False])
        assert report.eq18_ok is report.eq21_ok
        assert report.eq36_ok is report.eq21_ok
        assert not report.all_ok


class TestAtSolvedEquilibria:
    def test_all_conditions_hold_across_bounded_sweeps(self):
        # the two condition-satisfying panels keep every check green at
        # every sweep point
        for panel in ("capacity_bounded", "demand_bounded"):
            spec = case_study_spec(panel, steps=10)
            for value in spec.values():
                cfg = spec.config_at(float(value))
                res = solve_dual(cfg, MODE_MODIFIED)
                report = evaluate_conditions(
                    cfg, res.thetas, res.allocation.quantities)
                assert report.all_ok, (panel, value, report.counts())

    def test_lemma1_holds_on_concave_regime_solves(self):
        betas = tuple(2.0 + 0.1 * i for i in range(11))
        for s_max in (0.5, 1.5, 3.0):
            cfg = MarketConfig(11, 4.0, s_max, betas)
            res = solve_dual(cfg, MODE_MODIFIED)
            assert res.converged and not res.non_concave
            assert check_lemma1(res.thetas).all()

    def test_full_report_on_bounded_configuration(self):
        cfg = MarketConfig(11, 4.0, 3.0, tuple(2.0 + 0.1 * i for i in range(11)))
        res = solve_dual(cfg, MODE_MODIFIED)
        report = evaluate_conditions(cfg, res.thetas, res.allocation.quantities)
        assert report.all_ok
        assert report.counts() == {c: 11 for c in
                                   ("lemma1", "eq15", "eq18", "eq21", "eq36")}

    def test_all_ok_is_conjunction(self):
        cfg = MarketConfig(11, 1.0, 3.0,
                           tuple(0.5 + 0.1 * i for i in range(1, 12)))
        res = solve_dual(cfg, MODE_MODIFIED)
        report = evaluate_conditions(cfg, res.thetas, res.allocation.quantities)
        flags = np.concatenate([report.lemma1_ok, report.eq15_ok,
                                report.eq18_ok, report.eq21_ok, report.eq36_ok])
        assert report.all_ok == bool(flags.all())
