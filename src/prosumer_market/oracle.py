"""Slow, independent verifiers for the fast dual solver.

Two routes:

  * best_response certifies candidate strategic equilibria directly from
    the payoff definition pi_i = S_i(q_i) - p*q_i, by globally searching
    one prosumer's bid interval with a dense grid refined by golden
    section. No derivatives, no concavity assumptions.
  * brute_force_program certifies the welfare programs for 2- and
    3-prosumer markets by exhaustive grid search over the balanced
    capacity-bounded simplex slice, with zoom passes to sharpen the
    returned grid point.

Both are deliberately independent of the marginal-inversion machinery in
the solver module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TooLarge, UnboundedPayoff
from .market import (Allocation, MarketConfig, _marginal, _shaded_marginal,
                     _shaded_utility, _shading_length, _utility)
from .solver import MODE_TRUE, MODES

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# a grid of this many points takes about 80 MB per array; it caps the
# best-response grid and the brute-force grid over all free dimensions
MAX_GRID_POINTS = 10_000_000


@dataclass(frozen=True)
class BestResponseResult:
    """Outcome of one prosumer's global best-response search.

    gap = payoff_star - payoff_at_candidate; at a strategic equilibrium it
    is nonnegative and vanishes up to search precision.
    """

    prosumer_index: int
    theta_star: float
    payoff_star: float
    payoff_at_candidate: float
    gap: float


def strategic_payoff(i: int, thetas, config: MarketConfig) -> float:
    """Payoff of prosumer i under the full bid profile: S_i(q_i) - p*q_i.

    Defined only for profiles with a strictly positive clearing price
    (sum of bids < 0); at zero price the payoff is undefined.
    """
    t = np.asarray(thetas, dtype=float)
    if t.shape != (config.n_prosumers,):
        raise DomainError(
            f"expected {config.n_prosumers} bids, got shape {t.shape}")
    total = float(t.sum())
    if total >= 0:
        raise DomainError(
            f"payoff needs a positive price, so bid sum < 0; got {total}")
    rival_sum = total - float(t[i])
    return float(_payoff_curve(i, np.array([t[i]]), rival_sum, config)[0])


def _payoff_curve(i, theta_i, rival_sum, config):
    """Vectorized payoff of prosumer i over an array of own bids."""
    price = -(theta_i + rival_sum) / (config.n_prosumers * config.d_min)
    q = config.d_min + theta_i / price
    return _utility(config.rates[i], config.offsets[i], q) - price * q


def _capacity_lower_bound(rival_sum: float, config: MarketConfig) -> float:
    """Smallest own bid honoring the capacity constraint q_i >= -s_max.

    The bound theta_i >= p * (-s_max - d_min) moves with the price, which
    moves with theta_i: q_i = -s_max exactly at the fixed point of
    theta_i = c*(theta_i + rival_sum), c = (s_max + d_min)/(N*d_min), that
    is theta_i = c*rival_sum/(1 - c) = (s_max + d_min)*rival_sum /
    ((N-1)*d_min - s_max). Where s_max >= (N-1)*d_min (c >= 1) there is no
    such bid; fall back to a wide static bound.
    """
    n, d, s = config.n_prosumers, config.d_min, config.s_max
    room = (n - 1) * d - s
    if room <= 0:
        return -1e6 * max(1.0, abs(rival_sum))
    return (s + d) * rival_sum / room


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Maximize a scalar function on [lo, hi] by golden-section search."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def best_response(i: int, thetas, config: MarketConfig,
                  grid_points: int = 200_000) -> BestResponseResult:
    """Globally maximize prosumer i's payoff over its own bid.

    thetas is the full candidate profile; entry i is the candidate bid the
    result's gap is measured against. The search interval is
    [theta_lb, -(sum of rival bids) - eps_price], with theta_lb the
    capacity bound at the interval's own price fixed point. A dense grid
    locates the global basin; golden section sharpens it. Raises TooLarge
    for more than MAX_GRID_POINTS grid points.
    """
    if grid_points > MAX_GRID_POINTS:
        raise TooLarge(f"best response supports at most {MAX_GRID_POINTS} "
                       f"grid points, got {grid_points}")
    t = np.asarray(thetas, dtype=float)
    if t.shape != (config.n_prosumers,):
        raise DomainError(
            f"expected {config.n_prosumers} bids, got shape {t.shape}")
    rival_sum = float(t.sum() - t[i])
    if rival_sum >= 0:
        raise UnboundedPayoff(
            f"rival bids sum to {rival_sum} >= 0; the payoff has no maximum")
    theta_hi = -rival_sum - config.eps_price
    theta_lb = _capacity_lower_bound(rival_sum, config)
    if theta_lb >= theta_hi:
        raise DomainError("empty bid interval; eps_price too large")

    grid_points = max(int(grid_points), 3)
    grid = np.linspace(theta_lb, theta_hi, grid_points)
    payoffs = _payoff_curve(i, grid, rival_sum, config)
    k = int(np.argmax(payoffs))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid_points - 1)]

    def f(x):
        return float(_payoff_curve(i, np.array([x]), rival_sum, config)[0])

    span = theta_hi - theta_lb
    theta_star, payoff_star = _golden_max(f, lo, hi, tol=1e-12 * max(1.0, span))
    # the grid point the refined bracket came from can beat its midpoint
    if payoffs[k] > payoff_star:
        theta_star, payoff_star = grid[k], float(payoffs[k])

    payoff_at_candidate = strategic_payoff(i, t, config)
    return BestResponseResult(
        prosumer_index=i,
        theta_star=float(theta_star),
        payoff_star=float(payoff_star),
        payoff_at_candidate=payoff_at_candidate,
        gap=float(payoff_star - payoff_at_candidate),
    )


def _objective(config: MarketConfig, mode: str):
    """The curve of prosumer i at q: S_i in the true mode, else S_mod,i."""
    r, offsets, d_min = config.rates, config.offsets, config.d_min
    if mode == MODE_TRUE:
        return lambda i, q: _utility(r[i], offsets[i], q)
    L = _shading_length(config.n_prosumers, d_min)
    return lambda i, q: _shaded_utility(r[i], offsets[i], L, d_min, q)


def brute_force_program(config: MarketConfig, mode: str,
                        grid_points: int = 1001,
                        zoom_passes: int = 4) -> Allocation:
    """Exhaustive grid maximization of a welfare program for N in {2, 3}.

    Scans the balanced slice {sum q = 0, -s_max <= q_i <= (N-1)*s_max} with
    grid_points per free dimension, then re-grids a shrinking window around
    the incumbent for zoom_passes rounds so the returned grid point is
    sharp enough to certify the dual solver. The zoom assumes the incumbent
    basin contains the optimum, which holds on the concave regime this
    oracle is specified for. Raises TooLarge, before allocating anything, when
    grid_points**(N-1) exceeds MAX_GRID_POINTS (3162 points for N = 3).
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    n = config.n_prosumers
    if n > 3:
        raise TooLarge(f"brute force supports at most 3 prosumers, got {n}")
    if grid_points < 1000:
        raise DomainError(f"need at least 1000 grid points, got {grid_points}")
    if grid_points ** (n - 1) > MAX_GRID_POINTS:
        raise TooLarge(f"brute force supports at most {MAX_GRID_POINTS} grid "
                       f"points in all, got {grid_points}**{n - 1}")
    s = config.s_max
    f = _objective(config, mode)
    lo_full, hi_full = -s, (n - 1) * s
    # the free coordinates q_1..q_{N-1}; the last prosumer balances them
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
    quantities = np.array(best + [float(q_last[k])])

    return _certify(config, mode, quantities)


def _certify(config: MarketConfig, mode: str, quantities) -> Allocation:
    """Wrap a grid optimum as an Allocation with an estimated dual price."""
    q = np.asarray(quantities, dtype=float)
    if mode == MODE_TRUE:
        m = _marginal(config.rates, q)
    else:
        L = _shading_length(config.n_prosumers, config.d_min)
        m = _shaded_marginal(config.rates, L, q)
    at_capacity = np.abs(q + config.s_max) <= max(config.tol_root, 1e-7)
    interior = m[~at_capacity]
    dual_price = float(np.median(interior) if interior.size else np.max(m))
    residuals = np.where(at_capacity, np.maximum(0.0, m - dual_price),
                         np.abs(m - dual_price))
    return Allocation(q, dual_price, residuals, at_capacity)
