"""Acceptance suite: one test per release criterion, in order.

Each test prints a single ``[criterion N] PASS`` line with its headline
numbers; a failing assertion keeps the line unprinted. Panel solves are
cached per session so criteria share work; the elapsed time stored with
each cache covers the solves themselves.
"""

import time

import numpy as np
import pytest
from scipy import integrate

from prosumer_market import (
    MODE_MODIFIED,
    MODE_TRUE,
    MarketConfig,
    best_response,
    brute_force_program,
    case_study_spec,
    check_eq21,
    modified_utility,
    modified_utility_deriv,
    solve_dual,
    strategic_payoff,
)

BOUNDED_PANELS = ("capacity_bounded", "demand_bounded")
UNBOUNDED_PANELS = ("capacity_unbounded", "demand_unbounded")


def _solve_panel(panel: str, steps: int):
    spec = case_study_spec(panel, steps=steps)
    t0 = time.perf_counter()
    points = []
    for value in spec.values():
        config = spec.config_at(float(value))
        comp = solve_dual(config, MODE_TRUE)
        nash = solve_dual(config, MODE_MODIFIED)
        points.append((float(value), config, comp, nash))
    return {"points": points, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def panel_cache():
    cache = {}

    def get(panel: str, steps: int):
        key = (panel, steps)
        if key not in cache:
            cache[key] = _solve_panel(panel, steps)
        return cache[key]

    return get


def _first_violation_total(points, prosumer: int):
    """Total swept parameter at the first point violating eq21 for one prosumer."""
    for value, config, _comp, nash in points:
        ok = check_eq21(nash.allocation.quantities, config)
        if not ok[prosumer]:
            return config.n_prosumers * value
    return None


def test_criterion_1_symmetric_zero_loss():
    config = MarketConfig(11, d_min=4.0, s_max=3.0, betas=(2.5,) * 11)
    t0 = time.perf_counter()
    comp = solve_dual(config, MODE_TRUE)
    nash = solve_dual(config, MODE_MODIFIED)
    elapsed = time.perf_counter() - t0
    np.testing.assert_allclose(comp.allocation.quantities, 0.0, atol=1e-9)
    np.testing.assert_allclose(nash.allocation.quantities, 0.0, atol=1e-9)
    price_gap = abs(comp.price - nash.price)
    loss = comp.welfare_true - nash.welfare_true
    assert price_gap <= 1e-9
    assert abs(loss) <= 1e-9
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS - symmetric zero loss: |loss|={abs(loss):.2e}, "
          f"price gap={price_gap:.2e} ({elapsed:.2f}s)")


def test_criterion_2_kkt_certificates(panel_cache):
    worst = 0.0
    elapsed = 0.0
    for panel in BOUNDED_PANELS:
        data = panel_cache(panel, 30)
        elapsed += data["elapsed"]
        for _value, config, comp, nash in data["points"]:
            for result in (comp, nash):
                assert result.converged
                interior = ~result.allocation.at_capacity
                if interior.any():
                    worst = max(
                        worst,
                        float(result.allocation.kkt_residuals[interior].max()))
    assert worst <= 1e-8
    assert elapsed < 10.0
    print(f"\n[criterion 2] PASS - KKT certificates on 2x30 sweep points: "
          f"worst interior residual={worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(20):
        n = 2 + k % 2
        d_min = float(rng.uniform(0.5, 4.0))
        lo = 5.0 / (n - 1) + 0.6
        betas = tuple(float(b) for b in rng.uniform(lo, lo + 3.0, n))
        # keep the capacity bound above every concavity onset (concave regime)
        s_cap = d_min * min((n - 1) - 5.0 / b for b in betas)
        s_max = float(rng.uniform(0.3, 0.85)) * s_cap
        config = MarketConfig(n, d_min, s_max, betas)
        for mode in (MODE_TRUE, MODE_MODIFIED):
            dual = solve_dual(config, mode)
            grid = brute_force_program(config, mode, grid_points=1001)
            diff = float(np.max(np.abs(
                dual.allocation.quantities - grid.quantities)))
            worst = max(worst, diff)
            assert diff <= 1e-4, (k, mode, config)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\n[criterion 3] PASS - dual vs brute force on 20 random N in {{2,3}} "
          f"markets, both modes: worst allocation diff={worst:.2e} ({elapsed:.2f}s)")


def test_criterion_4_nash_certificate(panel_cache):
    data = panel_cache("capacity_bounded", 5)
    t0 = time.perf_counter()
    worst = -np.inf
    for _value, config, _comp, nash in data["points"]:
        for i in range(config.n_prosumers):
            res = best_response(i, nash.thetas, config, grid_points=100_000)
            worst = max(worst, res.gap)
            assert res.gap <= 1e-6
    elapsed = time.perf_counter() - t0 + data["elapsed"]
    assert elapsed < 120.0
    print(f"\n[criterion 4] PASS - best-response gaps at 5 sweep points x 11 "
          f"prosumers: max gap={worst:.2e} ({elapsed:.2f}s)")


def test_criterion_5_threshold_reproduction(panel_cache):
    # 56 points quantize the total axis below the +-1.0 acceptance tolerance
    capacity = panel_cache("capacity_unbounded", 56)
    demand = panel_cache("demand_unbounded", 56)
    elapsed = capacity["elapsed"] + demand["elapsed"]
    onsets = {}
    for name, data, targets in (
        ("capacity", capacity, (18.5, 31.5)),
        ("demand", demand, (20.0, 11.5)),
    ):
        for prosumer, target in enumerate(targets):
            onset = _first_violation_total(data["points"], prosumer)
            assert onset is not None, (name, prosumer)
            assert abs(onset - target) <= 1.0, (name, prosumer, onset, target)
            onsets[(name, prosumer)] = onset
    assert elapsed < 30.0
    print("\n[criterion 5] PASS - first eq21 violations: "
          f"total capacity {onsets[('capacity', 0)]:.2f} (target 18.5+-1.0) and "
          f"{onsets[('capacity', 1)]:.2f} (target 31.5+-1.0); "
          f"total demand {onsets[('demand', 0)]:.2f} (target 20+-1.0) and "
          f"{onsets[('demand', 1)]:.2f} (target 11.5+-1.0) "
          f"({elapsed:.2f}s)")


def test_criterion_6_qualitative_loss_behavior(panel_cache):
    t0 = time.perf_counter()
    ratios = {}
    for panel in BOUNDED_PANELS:
        points = panel_cache(panel, 30)["points"]
        losses = np.array([c.welfare_true - n.welfare_true
                           for _v, _cfg, c, n in points])
        ratio = float(losses.max() / np.median(losses))
        assert ratio < 10.0, (panel, ratio)
        ratios[panel] = ratio
    for panel in UNBOUNDED_PANELS:
        points = panel_cache(panel, 30)["points"]
        losses = np.array([c.welfare_true - n.welfare_true
                           for _v, _cfg, c, n in points])
        first = next(
            i for i, (_v, cfg, _c, nash) in enumerate(points)
            if not check_eq21(nash.allocation.quantities, cfg).all())
        diffs = np.diff(losses[first:])
        assert np.all(diffs > 0), (panel, first, diffs.min())
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("\n[criterion 6] PASS - bounded panels max/median loss "
          f"{ratios['capacity_bounded']:.2f} and {ratios['demand_bounded']:.2f} "
          f"(< 10); divergent panels strictly increasing past first violation "
          f"({elapsed:.2f}s)")


def test_criterion_7_gradient_checks():
    t0 = time.perf_counter()
    config = case_study_spec("capacity_bounded").base_config
    n = config.n_prosumers
    L = (n - 1) * config.d_min
    grid = np.linspace(-config.s_max, (n - 1) * config.s_max, 100)
    h = 1e-6
    worst_fd, worst_quad = 0.0, 0.0
    for spec in (config.utilities()[0], config.utilities()[-1]):
        for q in grid:
            analytic = modified_utility_deriv(spec, n, q)
            fd = (modified_utility(spec, n, q + h)
                  - modified_utility(spec, n, q - h)) / (2 * h)
            worst_fd = max(worst_fd,
                           abs(analytic - fd) / max(abs(analytic), 1e-12))
            closed = modified_utility(spec, n, q)
            integral, _ = integrate.quad(spec.value, config.d_min, q,
                                         epsabs=1e-10, epsrel=1e-10)
            quad = (1 + q / L) * spec.value(q) - integral / L
            worst_quad = max(worst_quad,
                             abs(closed - quad) / max(abs(closed), 1e-12))
    elapsed = time.perf_counter() - t0
    assert worst_fd <= 1e-6
    assert worst_quad <= 1e-6
    assert elapsed < 1.0
    print(f"\n[criterion 7] PASS - gradient checks on a 100-point grid: "
          f"finite-difference rel err={worst_fd:.2e}, quadrature rel "
          f"err={worst_quad:.2e} ({elapsed:.2f}s)")


def test_criterion_8_payoff_unboundedness():
    t0 = time.perf_counter()
    config = MarketConfig(2, d_min=1.0, s_max=3.0, betas=(2.0, 2.0))
    rival = 1.0  # rival bid sum held at +1
    own = -np.geomspace(2.0, 1e4, 25)
    payoffs = [strategic_payoff(0, np.array([t, rival]), config) for t in own]
    assert all(b > a for a, b in zip(payoffs, payoffs[1:]))
    growth = payoffs[-1] - payoffs[0]
    assert growth >= 1e3
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[criterion 8] PASS - payoff grows by {growth:.3g} along "
          f"decreasing bids under rival sum +1 ({elapsed:.2f}s)")


def test_criterion_9_efficiency_ordering(panel_cache):
    checked = 0
    worst = -np.inf
    for panel, steps in (("capacity_bounded", 30), ("demand_bounded", 30),
                         ("capacity_unbounded", 30), ("demand_unbounded", 30),
                         ("capacity_unbounded", 56), ("demand_unbounded", 56)):
        for _value, config, comp, nash in panel_cache(panel, steps)["points"]:
            gap = nash.welfare_true - comp.welfare_true
            worst = max(worst, gap)
            assert gap <= 1e-10, (panel, config.s_max, config.d_min)
            checked += 1
    print(f"\n[criterion 9] PASS - strategic welfare never beats competitive "
          f"on {checked} sweep rows (worst excess={worst:.2e})")
