"""Slow, independent verifiers for the fast dual solver.

Two routes:

  * best_response certifies candidate strategic equilibria from the payoff
    definition pi_i = S_i(q_i) - p*q_i, in closed form in the own bid, by
    globally searching one prosumer's bid interval with a dense grid
    refined by golden section. No derivatives, no concavity assumptions;
    a monotone bound lets the scan skip runs of bids that cannot win.
  * brute_force_program certifies the welfare programs for 2- and
    3-prosumer markets by exhaustive grid search over the balanced
    capacity-bounded simplex slice, with zoom passes to sharpen the
    returned grid point. Its free axes share one spacing, so the balancing
    prosumer's quantity is constant along each anti-diagonal of the grid,
    and its curve is evaluated once per anti-diagonal, at feasible
    quantities only. For N = 3 a Lagrangian bound, priced at the previous
    pass's dual estimate, lets the scan skip rows of the grid that cannot
    win.

Both build and scan their grids in blocks of at most _BLOCK cells and keep
the first maximum, as np.argmax over the whole grid would. One pruned
scan, _pruned_argmax, serves best_response's cells of _CELL bids and the
N = 3 grid rows; memory grows with the grid only by its one bound per cell
or row. Each call issues at most one SaturationWarning. Both deliberately
avoid the solver module's marginal-inversion machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TooLarge, UnboundedPayoff
from .market import (_EXP_CLAMP, Allocation, MarketConfig, _count,
                     _finite_vector, _saturates, _shaded_utility, _utility,
                     _warn_saturated)
from .solver import MODE_TRUE, MODES, _allocation, _marginals

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# caps the best-response grid and the brute-force grid over all free
# dimensions; the scans are blocked, so the cap bounds time, not memory
MAX_GRID_POINTS = 10_000_000
# grid cells a scan evaluates at once: 64 KB per float64 temporary, which
# stays in cache and below glibc's mmap threshold
_BLOCK = 8192
_CELL = 256  # bids one best-response payoff bound covers; divides _BLOCK
_ZOOM_PASSES = 2  # README's numerical notes say why more do not help


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


def _first_argmax(blocks, starts=None) -> tuple[int, float]:
    """Flat index and value of the first maximum over blocks taken in order.

    Equals np.argmax over the blocks' concatenation: a later block replaces
    the incumbent only with a strictly greater value, or with a NaN, which
    np.argmax returns before any number. starts, if given, holds each
    block's flat index, for blocks that skip cells between them.
    """
    best_k, best, offset = 0, None, 0
    for n, vals in enumerate(blocks):
        offset = offset if starts is None else starts[n]
        j = int(np.argmax(vals))
        v = vals.flat[j]
        if best is None or v > best or (np.isnan(v) and not np.isnan(best)):
            best_k, best = offset + j, v
        offset += vals.size
    return best_k, best


def _pruned_argmax(bounds, scan, unit: int) -> tuple[int, float]:
    """_first_argmax over the units that can hold the first maximum.

    scan(a, b) returns the values of units a to b - 1, unit cells each, in
    flat order; bounds[u] bounds unit u's values from above. The unit of
    largest bound is evaluated first, and its maximum is the incumbent.
    Every unit whose bound lies strictly below it is skipped, except the
    last, which is always scanned: best_response's last cell holds
    theta_hi, which its bound leaves out. The rest are scanned in runs cut
    where a _BLOCK-cell block of the full scan starts, so the flat index
    and value are those of np.argmax over every unit.
    """
    top = int(np.argmax(bounds))
    keep = ~(bounds < np.max(scan(top, top + 1)))
    keep[-1] = True
    runs = []
    for u in np.flatnonzero(keep).tolist():
        if runs and runs[-1][1] == u and u % (_BLOCK // unit):
            runs[-1][1] += 1
        else:
            runs.append([u, u + 1])
    return _first_argmax((scan(a, b) for a, b in runs),
                         [a * unit for a, _ in runs])


class _Payoff:
    """Prosumer i's payoff S_i(q) - p*q over its own bid theta, rivals' R.

    With p = -(theta + R)/(N*d_min) and q = d_min + theta/p it is
    e^(-beta_i/5) + R/N - theta*(N-1)/N - exp(min(x, 700)), where x = -r_i*q
    = r_i*d_min*(N-1) - r_i*N*d_min*R/(theta + R). theta enters x once, and
    rounding is monotone, so for R < 0 the computed x falls with theta.
    """

    def __init__(self, i: int, thetas, config: MarketConfig):
        n = config.n_prosumers
        if _count("prosumer index", i, 0) >= n:
            raise DomainError(f"prosumer index must be below {n}, got {i}")
        t = _finite_vector("bids", thetas, n)
        self.total, self.candidate = float(t.sum()), float(t[i])
        self.rival_sum = rival_sum = self.total - self.candidate
        d, r = config.d_min, float(config.rates[i])
        self.head = float(config.offsets[i]) + rival_sum / n
        self.slope = (n - 1) / n
        self.x_top, self.x_pole = r * d * (n - 1), r * n * d * rival_sum

    def exponent(self, theta: float) -> float:
        return self.x_top - self.x_pole / (theta + self.rival_sum)

    def __call__(self, theta: float) -> float:
        """The payoff at one bid, in Python floats."""
        x = min(self.exponent(theta), _EXP_CLAMP)
        return self.head - theta * self.slope - math.exp(x)

    def at_candidate(self, x_lb: float = -math.inf) -> float:
        """The payoff at the candidate bid; warns if it or x_lb passes 700."""
        if self.total >= 0:
            raise DomainError("payoff needs a positive price, so bid sum < 0;"
                              f" got {self.total}")
        if max(x_lb, self.exponent(self.candidate)) > _EXP_CLAMP:
            _warn_saturated(stacklevel=3)
        return self(self.candidate)

    def overwrite(self, theta: np.ndarray, clamp: bool) -> np.ndarray:
        """The payoffs at an array of bids, written over the bids."""
        x = theta + self.rival_sum
        np.subtract(self.x_top, np.divide(self.x_pole, x, out=x), out=x)
        if clamp:
            np.minimum(x, _EXP_CLAMP, out=x)
        np.exp(x, out=x)
        theta *= self.slope
        np.subtract(self.head, theta, out=theta)
        return np.subtract(theta, x, out=theta)

    def bound(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Upper bounds on overwrite's payoffs at any bids in [lo, hi].

        overwrite computes lin - e, lin = head - theta*slope, e = exp(x);
        lin and x fall with the bid, exactly so, as + - * / round
        monotonically. exp need not be monotone: the slack 64*eps*(|lin| +
        e) covers its errors up to 30 ulp and the rounding of the bound.
        """
        lin = self.head - lo * self.slope
        x = self.x_top - self.x_pole / (hi + self.rival_sum)
        e = np.exp(np.minimum(x, _EXP_CLAMP))
        return lin - e + (np.abs(lin) + e) * (64 * np.finfo(float).eps)


def strategic_payoff(i: int, thetas, config: MarketConfig) -> float:
    """Payoff of prosumer i under the full bid profile: S_i(q_i) - p*q_i.

    Defined only for a strictly positive clearing price (bid sum < 0).
    """
    return _Payoff(i, thetas, config).at_candidate()


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


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Maximize a scalar function on [a, b] by golden-section search."""
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
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
    capacity bound at the interval's own price fixed point. The grid
    np.linspace(theta_lb, theta_hi, grid_points), built as linspace builds
    it, locates the global basin; golden section sharpens it. The scan
    evaluates, at most _BLOCK bids at a time, only the _CELL-bid cells
    whose _Payoff.bound reaches the maximum on the cell of largest bound,
    and the cell holding theta_hi, which rounding may put out of order; so
    it returns the full scan's result bit for bit. The exponent falls with
    the bid, so the call warns exactly when the one at theta_lb or at the
    candidate exceeds 700. Raises DomainError for non-finite bids and
    unless grid_points is an integer of at least 3, and TooLarge above
    MAX_GRID_POINTS grid points.
    """
    grid_points = _count("grid points", grid_points, 3)
    if grid_points > MAX_GRID_POINTS:
        raise TooLarge(f"best response supports at most {MAX_GRID_POINTS} "
                       f"grid points, got {grid_points}")
    payoff = _Payoff(i, thetas, config)
    if payoff.rival_sum >= 0:
        raise UnboundedPayoff(f"rival bids sum to {payoff.rival_sum} >= 0; "
                              "the payoff has no maximum")
    theta_hi = -payoff.rival_sum - config.eps_price
    theta_lb = _capacity_lower_bound(payoff.rival_sum, config)
    if theta_lb >= theta_hi:
        raise DomainError("empty bid interval; eps_price too large")
    x_lb = payoff.exponent(theta_lb)
    payoff_at_candidate = payoff.at_candidate(x_lb)
    last = grid_points - 1
    step = (theta_hi - theta_lb) / last

    def scan(a: int, b: int) -> np.ndarray:  # cells a to b - 1
        stop = min(b * _CELL, last + 1)
        block = np.arange(a * _CELL, stop, dtype=float) * step + theta_lb
        if stop > last:
            block[-1] = theta_hi
        return payoff.overwrite(block, clamp=x_lb > _EXP_CLAMP)

    # cell c holds bids c*_CELL onward; its bound leaves out theta_hi
    first = np.arange(0, last + 1, _CELL, dtype=float)
    end = np.minimum(first + (_CELL - 1), last - 1) * step + theta_lb
    k, payoff_k = _pruned_argmax(payoff.bound(first * step + theta_lb, end),
                                 scan, _CELL)
    lo, at_k, hi = (theta_hi if j == last else j * step + theta_lb
                    for j in (max(k - 1, 0), k, min(k + 1, last)))
    theta_star, payoff_star = _golden_max(
        payoff, lo, hi, tol=1e-12 * max(1.0, theta_hi - theta_lb))
    # the grid point the refined bracket came from can beat its midpoint
    if payoff_k > payoff_star:
        theta_star, payoff_star = at_k, float(payoff_k)
    return BestResponseResult(i, theta_star, payoff_star, payoff_at_candidate,
                              payoff_star - payoff_at_candidate)


def _curve(config: MarketConfig, mode: str):
    """(i, q) -> S_i(q) in the true mode, else S_mod,i(q), without warnings."""
    r, offsets = config.rates, config.offsets
    if mode == MODE_TRUE:
        return lambda i, q: _utility(r[i], offsets[i], q, warn=False)
    length, d_min = float(config.stack.lengths[0, 0]), config.d_min
    return lambda i, q: _shaded_utility(r[i], offsets[i], length, d_min, q,
                                        warn=False)


def _welfare_argmax(curve, axes, lo_full: float, hi_full: float,
                    shift: float = 0.0) -> tuple[int, float]:
    """Flat index and value of the first welfare maximum over a pass's grid.

    The last prosumer balances the free ones. The free prosumers' curves are
    separable, so they are evaluated once per axis and broadcast. The axes
    share one spacing, so the balancing quantity of cell (i, j) depends on
    i + j only: the last prosumer's curve is evaluated once, on the 2G-1
    points w = linspace(-(a_0 + b_0), -(a_end + b_end), 2G-1), and reaches
    the cells through the zero-copy Hankel view hankel[i, j] = last[i + j].
    For N = 2, w = -a. w[i + j] lies within 4*ulp(max|a| + max|b|) of
    -(a_i + b_j); a w that close to lo_full or hi_full is put exactly
    there, so the capacity line stays feasible, and last reads -inf where
    w leaves [lo_full, hi_full]. For N = 3 _pruned_argmax skips the rows
    that _row_bounds, at the given shift, rules out; size <= 3162 under
    MAX_GRID_POINTS, so a _BLOCK holds whole rows.
    """
    n, size = len(axes) + 1, axes[0].size
    w = np.linspace(-sum(axis[0] for axis in axes),
                    -sum(axis[-1] for axis in axes), (n - 1) * (size - 1) + 1)
    tol = 4 * np.spacing(sum(np.max(np.abs(axis)) for axis in axes))
    for bound in (lo_full, hi_full):
        w[np.abs(w - bound) <= tol] = bound
    feasible = (w >= lo_full) & (w <= hi_full)
    last = np.full(w.size, -np.inf)
    last[feasible] = curve(n - 1, w[feasible])
    head = curve(0, axes[0])
    if n == 2:
        return _first_argmax(head[a:a + _BLOCK] + last[a:a + _BLOCK]
                             for a in range(0, size, _BLOCK))
    tail = curve(1, axes[1])
    hankel = np.lib.stride_tricks.sliding_window_view(last, size)

    def rows(a: int, b: int) -> np.ndarray:  # rows a to b - 1
        vals = head[a:b, None] + tail[None, :]
        vals += hankel[a:b]
        return vals

    return _pruned_argmax(_row_bounds(head, tail, last, shift), rows, size)


def _row_bounds(head, tail, last, shift: float) -> np.ndarray:
    """Upper bounds on each row's cells head[i] + tail[j] + last[i + j].

    For any shift e the cell equals (head[i] - e*i) + (tail[j] - e*j) +
    (last[i + j] + e*(i + j)) exactly, so row i is at most head[i] - e*i +
    max_j (tail[j] - e*j) + the maximum of last[k] + e*k over its window
    i <= k <= i + G - 1. Every window holds k = G - 1, so its maximum is
    the larger of a suffix maximum of the first G entries and a prefix
    maximum of the last G. The rounding of a cell sum and of its bound
    together stays below 8*eps*scale, scale = max|head| + max|tail| +
    max|last| + |e|*(2G - 2) over finite entries; the bound adds twice
    that as slack. With e = eta*h, eta the balance price and h the
    axes' spacing, the three terms are the prosumers' Lagrangians
    S_i(q_i) - eta*q_i up to constants, and the bound is tight near the
    optimum.
    """
    size = head.size
    k = np.arange(last.size)
    lagrangian = last + shift * k
    window = np.maximum(
        np.maximum.accumulate(lagrangian[size - 1::-1])[::-1],
        np.maximum.accumulate(lagrangian[size - 1:]))
    scale = (np.max(np.abs(head)) + np.max(np.abs(tail))
             + np.max(np.abs(last), where=last > -np.inf, initial=0.0)
             + abs(shift) * k[-1])
    return ((head - shift * k[:size]) + np.max(tail - shift * k[:size])
            + window + 16 * np.finfo(float).eps * scale)


def brute_force_program(config: MarketConfig, mode: str,
                        grid_points: int = 1001) -> Allocation:
    """Exhaustive grid maximization of a welfare program for N in {2, 3}.

    Scans the balanced slice {sum q = 0, -s_max <= q_i <= (N-1)*s_max} with
    grid_points per free dimension, then re-grids a shrinking window around
    the incumbent for _ZOOM_PASSES rounds so the returned grid point is
    sharp enough to certify the dual solver. The zoom assumes the incumbent
    basin contains the optimum, which holds on the concave regime this
    oracle is specified for. Each zoom pass re-grids a window of four cells
    on every free axis, shifted, not clipped, to stay inside
    [-s_max, (N-1)*s_max], so the free axes share one spacing in every pass
    and the cell shrinks by (grid_points - 1)/4 per pass. The balancing
    quantity is then constant along each anti-diagonal of the grid, and
    the optimum on the capacity line q_N = -s_max is searched along that
    line, which every pass keeps feasible, at the grid's resolution. The
    scan holds about _BLOCK cells at a time and returns the first grid
    maximum in row-major order.

    For N = 3 each pass skips the rows that _row_bounds rules out. Its
    shift is eta*h, h the pass's spacing and eta the median of the three
    marginals at the previous pass's incumbent, the dual price _certify
    estimates; the first pass has none and uses 0, under which the bound
    rules out almost no row. A skipped row's cells all lie strictly below
    the grid maximum, so the flat index, its value, the zoom windows and
    the result are those of the full scan, bit for bit, whatever the shift.
    _certify then puts a prosumer within its tolerance of -s_max exactly
    there. No quantity evaluated lies below -s_max, so the call warns, as
    solve_dual does, exactly when some r_i*s_max exceeds 700. Raises
    DomainError unless grid_points is an integer of at least 1000, and
    TooLarge, before building any grid, when grid_points**(N-1) exceeds
    MAX_GRID_POINTS (3162 points for N = 3).
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    n = config.n_prosumers
    if n > 3:
        raise TooLarge(f"brute force supports at most 3 prosumers, got {n}")
    grid_points = _count("grid points", grid_points, 1000)
    if grid_points ** (n - 1) > MAX_GRID_POINTS:
        raise TooLarge(f"brute force supports at most {MAX_GRID_POINTS} grid "
                       f"points in all, got {grid_points}**{n - 1}")
    s = config.s_max
    curve = _curve(config, mode)
    lo_full, hi_full = -s, (n - 1) * s
    # the free coordinates q_1..q_{N-1}; the last prosumer balances them
    lo, hi = [lo_full] * (n - 1), [hi_full] * (n - 1)
    eta = 0.0  # the first pass has no incumbent to price the balance at
    for _ in range(_ZOOM_PASSES + 1):
        axes = [np.linspace(a, b, grid_points) for a, b in zip(lo, hi)]
        h = (hi[0] - lo[0]) / (grid_points - 1)  # the axes' spacing
        k, _ = _welfare_argmax(curve, axes, lo_full, hi_full, eta * h)
        k = np.unravel_index(k, (grid_points,) * (n - 1))
        best = [float(axis[j]) for axis, j in zip(axes, k)]
        point = best + [-best[0] - sum(best[1:])]
        if n == 3:
            eta = float(np.median(_marginals(config, mode, point)))
        # every axis re-grids a window of four cells, shifted inside the box
        half = 2 * h
        for j, q in enumerate(best):
            lo[j], hi[j] = q - half, q + half
            if lo[j] < lo_full:
                lo[j], hi[j] = lo_full, lo_full + 2 * half
            elif hi[j] > hi_full:
                lo[j], hi[j] = hi_full - 2 * half, hi_full
    if _saturates(config.stack):
        _warn_saturated(stacklevel=2)
    return _certify(config, mode, point)


def _certify(config: MarketConfig, mode: str, quantities) -> Allocation:
    """Wrap a grid optimum as an Allocation with an estimated dual price.

    A prosumer within max(tol_root, 1e-7) of -s_max is at capacity and is
    put exactly there; the last interior prosumer takes up the difference,
    so the allocation stays balanced to rounding.
    """
    q = np.array(quantities, dtype=float)
    at_capacity = np.abs(q + config.s_max) <= max(config.tol_root, 1e-7)
    free = np.flatnonzero(~at_capacity)
    if at_capacity.any() and free.size:
        q[at_capacity] = -config.s_max
        q[free[-1]] = 0.0
        q[free[-1]] = -q.sum()
    m = _marginals(config, mode, q)
    interior = m[~at_capacity]
    dual_price = float(np.median(interior) if interior.size else np.max(m))
    return _allocation(config, q, m, dual_price, at_capacity)
