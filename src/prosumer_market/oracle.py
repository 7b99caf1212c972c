"""Slow, independent verifiers for the fast dual solver.

Two routes:

  * best_response certifies candidate strategic equilibria directly from
    the payoff definition pi_i = S_i(q_i) - p*q_i, by globally searching
    one prosumer's bid interval with a dense grid refined by golden
    section. No derivatives, no concavity assumptions.
  * brute_force_program certifies the welfare programs for 2- and
    3-prosumer markets by exhaustive grid search over the balanced
    capacity-bounded simplex slice, with zoom passes to sharpen the
    returned grid point. Its free axes share one spacing, so the balancing
    prosumer's quantity is constant along each anti-diagonal of the grid,
    and its curve is evaluated once per anti-diagonal, at feasible
    quantities only.

Both scan their grids in blocks of at most _BLOCK cells and keep the first
maximum, as np.argmax over the whole grid would, so memory does not grow
with the grid. Each call issues at most one SaturationWarning. Both are
deliberately independent of the marginal-inversion machinery in the solver
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TooLarge, UnboundedPayoff
from .market import (_EXP_CLAMP, Allocation, MarketConfig, _marginal,
                     _shaded_marginal, _shaded_utility, _utility,
                     _warn_saturated)
from .solver import MODE_TRUE, MODES

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# caps the best-response grid and the brute-force grid over all free
# dimensions; the scans are blocked, so the cap bounds time, not memory
MAX_GRID_POINTS = 10_000_000
# grid cells a scan evaluates at once: 64 KB per float64 temporary, which
# stays in cache and below glibc's mmap threshold
_BLOCK = 8192


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


class _Curves:
    """The prosumers' curves for one verifier call, evaluated without warnings.

    S_i in the true mode, else S_mod,i. Each evaluation records the lowest q
    prosumer i was evaluated at, where its exponent -r*q peaks, so warn()
    issues the call's one SaturationWarning exactly when the clamp engaged.
    """

    def __init__(self, config: MarketConfig, mode: str):
        self.rates, self.offsets = config.rates, config.offsets
        self.q_min = np.full(config.n_prosumers, np.inf)
        self.shaded = mode != MODE_TRUE
        if self.shaded:
            self.d_min = config.d_min
            self.length = float(config.stack.lengths[0, 0])
            self.antideriv_dmin = config.stack.antideriv_dmin[0]

    def __call__(self, i: int, q):
        """Curve i at q, recording the lowest q it reads."""
        self.q_min[i] = min(self.q_min[i], np.min(q))
        r, offset = self.rates[i], self.offsets[i]
        if not self.shaded:
            return _utility(r, offset, q, warn=False)
        return _shaded_utility(r, offset, self.length, self.d_min, q,
                               warn=False,
                               antideriv_dmin=self.antideriv_dmin[i])

    def warn(self) -> None:
        """Warn once, at the verifier's caller, if the clamp engaged."""
        if np.any(-self.rates * self.q_min > _EXP_CLAMP):
            _warn_saturated(stacklevel=3)


def _first_argmax(blocks) -> tuple[int, float]:
    """Flat index and value of the first maximum over blocks taken in order.

    Equals np.argmax over the blocks' concatenation: a later block replaces
    the incumbent only with a strictly greater value, or with a NaN, which
    np.argmax returns before any number.
    """
    best_k, best, offset = 0, None, 0
    for vals in blocks:
        j = int(np.argmax(vals))
        v = vals.flat[j]
        if best is None or v > best or (np.isnan(v) and not np.isnan(best)):
            best_k, best = offset + j, v
        offset += vals.size
    return best_k, best


def strategic_payoff(i: int, thetas, config: MarketConfig) -> float:
    """Payoff of prosumer i under the full bid profile: S_i(q_i) - p*q_i.

    Defined only for profiles with a strictly positive clearing price
    (sum of bids < 0); at zero price the payoff is undefined.
    """
    curves = _Curves(config, MODE_TRUE)
    payoff = _profile_payoff(curves, i, thetas, config)
    curves.warn()
    return payoff


def _profile_payoff(curves: _Curves, i: int, thetas,
                    config: MarketConfig) -> float:
    """strategic_payoff, evaluated through the caller's curves."""
    t = np.asarray(thetas, dtype=float)
    if t.shape != (config.n_prosumers,):
        raise DomainError(
            f"expected {config.n_prosumers} bids, got shape {t.shape}")
    total = float(t.sum())
    if total >= 0:
        raise DomainError(
            f"payoff needs a positive price, so bid sum < 0; got {total}")
    rival_sum = total - float(t[i])
    return float(_payoff_curve(curves, i, np.array([t[i]]), rival_sum,
                               config)[0])


def _payoff_curve(curves: _Curves, i, theta_i, rival_sum, config):
    """Vectorized payoff of prosumer i over an array of own bids."""
    price = -(theta_i + rival_sum) / (config.n_prosumers * config.d_min)
    q = config.d_min + theta_i / price
    return curves(i, q) - price * q


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
    capacity bound at the interval's own price fixed point. A dense grid,
    scanned in blocks, locates the global basin; golden section sharpens
    it. Raises TooLarge for more than MAX_GRID_POINTS grid points.
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

    curves = _Curves(config, MODE_TRUE)
    grid_points = max(int(grid_points), 3)
    grid = np.linspace(theta_lb, theta_hi, grid_points)
    k, payoff_k = _first_argmax(
        _payoff_curve(curves, i, grid[start:start + _BLOCK], rival_sum, config)
        for start in range(0, grid_points, _BLOCK))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid_points - 1)]

    def f(x):
        return float(_payoff_curve(curves, i, np.array([x]), rival_sum,
                                   config)[0])

    span = theta_hi - theta_lb
    theta_star, payoff_star = _golden_max(f, lo, hi, tol=1e-12 * max(1.0, span))
    # the grid point the refined bracket came from can beat its midpoint
    if payoff_k > payoff_star:
        theta_star, payoff_star = grid[k], float(payoff_k)

    payoff_at_candidate = _profile_payoff(curves, i, t, config)
    curves.warn()
    return BestResponseResult(
        prosumer_index=i,
        theta_star=float(theta_star),
        payoff_star=float(payoff_star),
        payoff_at_candidate=payoff_at_candidate,
        gap=float(payoff_star - payoff_at_candidate),
    )


def _welfare_blocks(curves: _Curves, axes, lo_full: float, hi_full: float):
    """The welfare over the grid of free coordinates, in row blocks.

    Yields the grid in row-major order, a block of whole rows at a time;
    the last prosumer balances the free ones. The free prosumers' curves are
    separable, so they are evaluated once per axis and broadcast. The axes
    share one spacing, so the balancing quantity of cell (i, j) depends on
    i + j only: the last prosumer's curve is evaluated once, on the 2G-1
    points w = linspace(-(a_0 + b_0), -(a_end + b_end), 2G-1), reads -inf
    where w leaves [lo_full, hi_full], and reaches the cells through the
    zero-copy Hankel view hankel[i, j] = last[i + j]. For N = 2, w = -a.
    """
    n, size = len(axes) + 1, axes[0].size
    w = np.linspace(-sum(axis[0] for axis in axes),
                    -sum(axis[-1] for axis in axes), (n - 1) * (size - 1) + 1)
    feasible = (w >= lo_full) & (w <= hi_full)
    last = np.full(w.size, -np.inf)
    last[feasible] = curves(n - 1, w[feasible])
    head = curves(0, axes[0])
    rows = _BLOCK
    if n == 3:
        tail = curves(1, axes[1])
        hankel = np.lib.stride_tricks.sliding_window_view(last, size)
        rows = _BLOCK // size  # size <= 3162 under MAX_GRID_POINTS
    for start in range(0, size, rows):
        block = slice(start, start + rows)
        if n == 3:
            vals = head[block, None] + tail[None, :]
            vals += hankel[block]
        else:
            vals = head[block] + last[block]
        yield vals


def brute_force_program(config: MarketConfig, mode: str,
                        grid_points: int = 1001,
                        zoom_passes: int = 2) -> Allocation:
    """Exhaustive grid maximization of a welfare program for N in {2, 3}.

    Scans the balanced slice {sum q = 0, -s_max <= q_i <= (N-1)*s_max} with
    grid_points per free dimension, then re-grids a shrinking window around
    the incumbent for zoom_passes rounds so the returned grid point is
    sharp enough to certify the dual solver. The zoom assumes the incumbent
    basin contains the optimum, which holds on the concave regime this
    oracle is specified for. Each zoom pass re-grids a window of four cells
    on every free axis, shifted, not clipped, to stay inside
    [-s_max, (N-1)*s_max], so the free axes share one spacing in every pass
    and the cell shrinks by (grid_points - 1)/4 per pass. The balancing
    quantity is then constant along each anti-diagonal of the grid, and
    the optimum on the capacity line q_N = -s_max is searched along that
    line at the grid's resolution. Two passes are the default: they leave
    a cell of 16*N*s_max/(grid_points - 1)**3, about 2e-9*N*s_max at grid
    2001. That is already below the distance, of order sqrt(eps) on the
    welfare's scale, over which rounding leaves the float welfare flat
    around its maximum, so more passes do not bring the returned point
    closer to the optimum: on the benchmark's certify markets of seeds 1-40
    it lies at most 7.0e-8 from solve_dual after two passes and 6.8e-8
    after four. The scan holds about _BLOCK cells at a time and returns the
    first grid maximum in row-major order. Raises TooLarge, before building
    any grid, when grid_points**(N-1) exceeds MAX_GRID_POINTS (3162 points
    for N = 3).
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
    curves = _Curves(config, mode)
    lo_full, hi_full = -s, (n - 1) * s
    # the free coordinates q_1..q_{N-1}; the last prosumer balances them
    lo, hi = [lo_full] * (n - 1), [hi_full] * (n - 1)
    for _ in range(zoom_passes + 1):
        axes = [np.linspace(a, b, grid_points) for a, b in zip(lo, hi)]
        k, _ = _first_argmax(_welfare_blocks(curves, axes, lo_full, hi_full))
        k = np.unravel_index(k, (grid_points,) * (n - 1))
        best = [float(axis[j]) for axis, j in zip(axes, k)]
        # every axis re-grids a window of four cells, shifted inside the box
        half = 2 * (hi[0] - lo[0]) / (grid_points - 1)
        for j, q in enumerate(best):
            lo[j], hi[j] = q - half, q + half
            if lo[j] < lo_full:
                lo[j], hi[j] = lo_full, lo_full + 2 * half
            elif hi[j] > hi_full:
                lo[j], hi[j] = hi_full - 2 * half, hi_full
    q_last = -best[0] - best[1] if n == 3 else -best[0]
    curves.warn()
    return _certify(config, mode, np.array(best + [q_last]))


def _certify(config: MarketConfig, mode: str, quantities) -> Allocation:
    """Wrap a grid optimum as an Allocation with an estimated dual price."""
    q = np.asarray(quantities, dtype=float)
    # every q_i is a grid point the scan evaluated, so the scan has already
    # seen any clamp these marginals would engage
    if mode == MODE_TRUE:
        m = _marginal(config.rates, q, warn=False)
    else:
        m = _shaded_marginal(config.rates, float(config.stack.lengths[0, 0]),
                             q, warn=False)
    at_capacity = np.abs(q + config.s_max) <= max(config.tol_root, 1e-7)
    interior = m[~at_capacity]
    dual_price = float(np.median(interior) if interior.size else np.max(m))
    residuals = np.where(at_capacity, np.maximum(0.0, m - dual_price),
                         np.abs(m - dual_price))
    return Allocation(q, dual_price, residuals, at_capacity)
