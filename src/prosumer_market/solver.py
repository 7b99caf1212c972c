"""Dual-decomposition solver for the market's two welfare programs.

Both programs maximize a separable sum of per-prosumer curves over the
balanced, capacity-bounded set {q : sum q_i = 0, q_i >= -s_max}:

  * "true" mode uses each prosumer's actual curve S_i and yields the
    competitive (price-taking) equilibrium allocation;
  * "modified" mode uses the strategically shaded curve S_mod,i and yields
    the Nash (price-anticipating) equilibrium allocation.

The balance constraint is priced by a single multiplier eta > 0. For each
eta every prosumer independently maximizes its Lagrangian S(q) - eta*q over
[-s_max, q_upper], and the solver searches eta for the zero of aggregate
excess demand sum_i q_i(eta). The per-prosumer maximizers are closed-form and
computed for all prosumers at once. With r = beta/(5*d_min) the true
marginal r*exp(-r*q) = eta inverts by a logarithm; the shaded marginal
(1 + q/L)*r*exp(-r*q) = eta, L = (N-1)*d_min, becomes u - ln(u) = 1 + sigma
with u = r*(q + L) and sigma = r*L - ln(eta*L) - 1, whose falling root
u >= 1 is -W_{-1}(-exp(-sigma - 1)) (Lambert W; Corless et al., Adv. Comput.
Math. 1996). It is found by a fixed number of real Newton steps from a
closed-form lower bound (Chatzigeorgiou, IEEE Commun. Lett. 2013) and one
Newton step in q, or by the series at the branch point u = 1, the eq21
threshold. The eta-independent terms (ln r, r*L, the shaded marginal's
peak and the non-concave prosumers' switch prices) come from a
MarketStack, computed once per stack.

Where a shaded curve is not concave over the whole interval, its rising
stationary point is a local minimum of the Lagrangian, so only the capacity
bound and the falling root (or q_upper) compete. -s_max wins exactly above
one price, the prosumer's switch price (MarketStack.log_switch, the slope
of the tangent to S_mod from -s_max). Excess demand, a sum of global
argmaxes, is then still non-increasing in eta but can jump. The prosumers
whose maximizer lies below its eq21 threshold, where the shaded curve is
locally convex, are read from the returned quantities.

One search serves every mode and regime: a safeguarded Newton search in
x = ln(eta) (Palomar & Chiang, IEEE JSAC 2006, for the decomposition), with
slope -sum 1/r_i (true) or sum eta/S_mod''(q_i) (shaded) over the prosumers
strictly inside their bounds, and a safeguard step wherever a Newton step
would leave its bracket. Its bracket is a closed-form sign bracket that is
never evaluated: excess demand is non-negative at its bottom and negative
at its top. Where excess demand is smooth the search settles in a few
evaluations; where it jumps across the balance point the bracket closes on
the jump, and the solver returns the eta minimizing |excess| with its
residual. The safeguard step is the bracket's midpoint, or the switch
price nearest it where one lies inside the bracket: the step goes to
ln(switch) or the float above it, the two x between which that prosumer
changes branch, so a jump row closes on adjacent floats in about five
evaluations instead of bisecting ln(eta) down to them.

The search runs in lockstep over a stack of m markets that share the
prosumers' betas (market.MarketStack: the points of a sweep, or one
market). Each market keeps its own bracket, iterate and stop rule; each
pass evaluates every row of the stack with one numpy call per kernel, on
(m, n) arrays and (m, 1) columns of per-market values, and writes the
evaluation of each market still searching into its row of the (m, n)
result arrays when it lowers that market's |sum q|. Every per-market sum
is one numpy reduction along the rows of a C-contiguous (m, n) array,
which reduces each row exactly as it reduces that row alone, so a
market's result does not depend on the markets stacked with it.
solve_dual is the search of a stack of one, on the stack cached on its
MarketConfig.

Recovered bids theta_i = eta*(q_i - d_min) reproduce eta as the clearing
price of the recovered profile.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conditions import _eq21_ok
from .errors import BracketFailure, DomainError
from .market import (Allocation, MarketConfig, MarketStack, _finite_vector,
                     _marginal, _require_positive, _saturates,
                     _shaded_curvature, _shaded_marginal, _utility,
                     _warn_saturated)

MODE_TRUE = "true"
MODE_MODIFIED = "modified"
MODES = (MODE_TRUE, MODE_MODIFIED)

# widening factor applied to the closed-form dual bracket
_BRACKET_WIDEN = 10.0
# cap on the excess evaluations of the dual search
_MAX_STEPS = 200
# |sum q| within this multiple of sum |q_i|, the rounding floor of the sum,
# counts as balanced
_SUM_ROUNDING = 8.0 * sys.float_info.epsilon
# a Newton step in ln(eta) below this is confirmed by one more evaluation
_NEWTON_XTOL = 1e-13
# largest finite ln(eta); stands in for an infinite upper bracket end
_LOG_ETA_MAX = math.log(sys.float_info.max)
# below this distance p from the branch point the falling root comes from its
# series (truncation error below 1e-22), where the Newton steps in u and q
# would divide by nearly zero
_SERIES_P = 1e-3


@dataclass(frozen=True)
class SolveResult:
    """One solved welfare program with its equilibrium certificate."""

    allocation: Allocation
    thetas: np.ndarray
    price: float
    welfare_true: float
    converged: bool
    iterations: int
    mode: str
    non_concave_prosumers: tuple[int, ...] = ()
    balance_residual: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.thetas, dtype=float).copy()
        t.setflags(write=False)
        object.__setattr__(self, "thetas", t)

    @property
    def non_concave(self) -> bool:
        """True when any prosumer's solution point sits off the concave region."""
        return bool(self.non_concave_prosumers)

    @property
    def quantities(self) -> np.ndarray:
        return self.allocation.quantities


def _shaded_root(r, log_r, rL, L, log_eta, shift) -> np.ndarray:
    """q on the falling branch where the shaded marginal equals eta.

    r, log_r, rL and L are per-prosumer r, ln r, r*L and the shading length
    L; log_eta = ln(eta) and shift = ln(eta) + ln(L) + 1 are floats or one
    (m, 1) column entry per market of a stack. With u = r*(q + L) the
    equation (1 + q/L)*r*exp(-r*q) = eta reads u - ln(u) = 1 + sigma,
    sigma = r*L - shift, whose root u >= 1 is -W_{-1}(-exp(-sigma-1)).
    Above the peak (sigma <= 0) there is no root and the peak u = 1,
    q = 1/r - L, is returned. Near the peak (p = sqrt(2*sigma) below
    _SERIES_P) u comes from the branch-point series. Elsewhere u starts at
    the lower bound 1 + p + p**2/3 (Chatzigeorgiou, IEEE Commun. Lett. 2013)
    and takes three Newton steps on the convex u - ln(u) - 1 - sigma, which
    overshoot once and then fall to the root; then one Newton step in q on
    log1p(q/L) + ln r - r*q - ln(eta) recovers the digits that u/r - L
    cancels when r*L is large.
    """
    sigma = np.maximum(rL - shift, 0.0)
    p = np.sqrt(2.0 * sigma)
    near = p < _SERIES_P
    any_near = near.any()
    # the Newton start of a series prosumer is moved off u = 1, where the
    # step divides by zero; its result is replaced below
    p_start = np.maximum(p, _SERIES_P) if any_near else p
    u = 1.0 + p_start * (1.0 + p_start / 3.0)
    for _ in range(3):
        u = u / (u - 1.0) * (sigma + np.log(u))
    q = u / r - L
    g = np.log1p(q / L) + (log_r - r * q) - log_eta
    q -= g / (1.0 / (L + q) - r)
    if any_near:
        series = 1.0 + p * (1.0 + p * (1.0 / 3.0 + p * (1.0 / 36.0 + p * (
            -1.0 / 270.0 + p / 4320.0))))
        q = np.where(near, series / r - L, q)
    return q


def _inverse_true(st: MarketStack, eta) -> np.ndarray:
    """q solving S'(q) = eta per (market, prosumer), clipped to the bounds.

    eta is an (m, 1) column, one entry per market of the stack st; a float
    stands for the column of a stack of one.
    """
    return np.clip(-np.log(eta / st.rates) / st.rates, st.q_lower, st.q_upper)


def _inverse_modified(st: MarketStack, x, log_eta) -> np.ndarray:
    """Maximizer of S_mod(q) - eta*q per (market, prosumer).

    x is ln(eta) and log_eta is ln(exp(x)), as (m, 1) columns with one entry
    per market of the stack st; floats stand for the columns of a stack of
    one. A non-concave prosumer takes -s_max where x exceeds its
    MarketStack.log_switch and its falling root, clipped to the bounds,
    elsewhere (see marginal_inverse_modified).
    """
    q = np.clip(_shaded_root(st.rates, st.log_rates, st.rate_lengths,
                             st.lengths, log_eta,
                             log_eta + st.log_lengths + 1.0),
                st.q_lower, st.q_upper)
    if not np.count_nonzero(st.non_concave):
        return q
    return np.where(x > st.log_switch, st.q_lower, q)


def marginal_inverse_true(config: MarketConfig, eta: float) -> np.ndarray:
    """Per-prosumer q solving S'(q) = eta, clipped to [-s_max, q_upper]."""
    return _inverse_true(config.stack, _require_positive("eta", eta))[0]


def marginal_inverse_modified(config: MarketConfig,
                              eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-prosumer maximizer of S_mod(q) - eta*q over [-s_max, q_upper].

    Returns the quantities and a mask of the prosumers whose maximizer sits
    below the eq21 threshold 1/r - L, where S_mod'' = (r*exp(-r*q)/L)*(1 -
    r*(q + L)) is positive and the shaded curve locally convex. A prosumer
    whose shaded curve is concave on the whole interval (eq21 threshold at
    or below -s_max) takes the falling root, clipped to the bounds, and is
    never in the mask. Otherwise the shaded marginal rises then falls. A
    stationary point on the rising branch is a local minimum of the
    Lagrangian, so only -s_max competes with the clipped falling root, and
    -s_max wins exactly above the prosumer's switch price
    (MarketStack.log_switch): the slope of the tangent to S_mod from -s_max
    that touches the falling branch, capped at the marginal's peak. At the
    switch price itself the root is kept.
    """
    x = math.log(_require_positive("eta", eta))
    q = _inverse_modified(config.stack, x, x)[0]
    return q, ~_eq21_ok(q, config.concavity_thresholds)


def _slopes(st: MarketStack, q: np.ndarray, free: np.ndarray,
            shaded: bool) -> list:
    """Per market, the slope of excess demand in ln(eta), over eta if shaded.

    That is the sum over the market's free prosumers of 1/S_mod''(q_i)
    (shaded) or of -1/r_i (true): one row reduction of the zero-filled
    (m, n) terms per market.
    """
    if shaded:
        # the terms of the prosumers on a bound are discarded; at -s_max
        # the exponent clamp can take them out of the float range
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            terms = 1.0 / _shaded_curvature(st.rates, st.lengths, q,
                                             warn=False)
    else:
        terms = -st.inv_rates
    return np.where(free, terms, 0.0).sum(axis=1).tolist()


def _bracket(st: MarketStack, mode: str) -> tuple[list, list, list]:
    """Per-market closed-form sign bracket (eta_lo, eta_hi), or an error.

    The bracket is widened from the marginals. Its top is the largest
    marginal on [-s_max, q_upper]: S' at -s_max, or the shaded marginal at
    its peak (MarketStack.peak_marginal), where it is positive even when
    the marginal at -s_max is not. Above the top every prosumer takes
    -s_max. Below the bottom every competitive q_i is positive and, unless
    the floor 1e-300 holds the bottom, every concave shaded prosumer takes
    q_upper. Where every shaded curve is non-concave, the bottom comes down
    to the largest reach, the lesser of a prosumer's marginal at q_upper
    and its switch price (MarketStack.log_switch), divided by
    _BRACKET_WIDEN; where every switch price is 0 the market has no
    balancing price, and its error says so.
    """
    lo, hi, L = st.q_lower, st.q_upper, st.lengths
    shaded = mode == MODE_MODIFIED
    # where the exponent clamp engages at a steep prosumer, the largest
    # marginal, and so the top, can exceed the float range and read inf
    with np.errstate(over="ignore"):
        if shaded:
            m_upper = _shaded_marginal(st.rates, L, hi, warn=False)
            m_peak = st.peak_marginal
        else:
            m_upper = _marginal(st.rates, hi, warn=False)
            m_peak = _marginal(st.rates, lo, warn=False)
        eta_lo = np.maximum(m_upper.min(axis=1) / _BRACKET_WIDEN, 1e-300)
        eta_hi = m_peak.max(axis=1) * _BRACKET_WIDEN
    errors = [None] * len(eta_lo)
    # per market, whether every shaded curve is non-concave
    every = shaded and st.non_concave.all(axis=1)
    if np.count_nonzero(every):
        # a non-concave prosumer takes q_upper exactly when eta is at most
        # its reach, the lesser of its marginal at q_upper and its switch
        # price, and -s_max above a switch price that lies below that
        # marginal. One prosumer at q_upper balances the rest at -s_max, so
        # excess demand is non-negative up to the largest reach and
        # -N*s_max above it when that reach lies below the bracket. A
        # prosumer whose switch price is 0 prefers -s_max to every q at
        # every price. Where the marginals at q_upper underflow, so can the
        # reach; the bottom then stops at the least positive float.
        with np.errstate(over="ignore"):
            switch = np.exp(st.log_switch)
        failed = every & (switch.max(axis=1) <= 0)
        reach = np.minimum(m_upper, switch).max(axis=1)
        eta_lo = np.where(every & ~failed & (reach < eta_lo),
                          np.maximum(reach / _BRACKET_WIDEN, math.ulp(0.0)),
                          eta_lo)
        n = st.rates.shape[1]
        for k in np.flatnonzero(failed).tolist():
            excess = -n * float(st.s_max[k, 0])
            errors[k] = (
                "no balancing price: every prosumer prefers -s_max at every "
                f"price (eta range [{eta_lo[k]:g}, {eta_hi[k]:g}], "
                f"excess [{excess:g}, {excess:g}])")
    return eta_lo.tolist(), eta_hi.tolist(), errors


def _safeguard(log_switch: np.ndarray, a: float, b: float,
               mid: float) -> float:
    """The safeguard step inside the bracket (a, b) of one market's search.

    The candidates are each prosumer's log_switch, the last x at which it
    keeps its falling root, and the float above it, the first at which it
    takes -s_max: excess demand can jump only between the two. Returns the
    candidate strictly inside the bracket nearest its midpoint mid, or mid
    when there is none, so that a bracket around a jump closes on its
    adjacent floats.
    """
    c = np.concatenate((log_switch, np.nextafter(log_switch, math.inf)))
    c = c[(a < c) & (c < b)]
    return float(c[np.argmin(np.abs(c - mid))]) if c.size else mid


class _Batch(NamedTuple):
    """The dual searches of every market of a stack in one mode.

    Row k of the (m, n) array quantities holds market k's quantities at its
    evaluation of least |sum q|; prices and totals list each market's price
    and total (sum q) there, iterations its number of excess evaluations,
    and errors the BracketFailure text of a market that has no balancing
    price (whose quantities, price and total are nan), else None. passes
    counts the lockstep evaluations of the whole stack.
    """

    quantities: np.ndarray
    prices: list
    totals: list
    iterations: list
    errors: list
    passes: int


def _solve_stack(st: MarketStack, mode: str) -> _Batch:
    """Safeguarded Newton searches in x = ln(eta), one per market, in lockstep.

    Each market's search runs on its own closed-form sign bracket
    [ln eta_lo, ln eta_hi], whose ends are not evaluated (an infinite upper
    end stands at the largest finite ln(eta)), from the all-free
    competitive price when that lies inside. The slope of excess demand in
    x is -sum 1/r_i (true) or sum eta/S_mod''(q_i) (shaded) over the
    prosumers strictly inside their bounds. Where a Newton step would leave
    the bracket or the slope is not negative, the search takes a safeguard
    step (_safeguard). A market settles once |sum q| is within the rounding
    floor of the sum, one evaluation after a Newton step below _NEWTON_XTOL
    inside the bracket, when such a step lands on an end, when the midpoint
    is no longer inside the bracket (it has closed on a jump), or after
    _MAX_STEPS evaluations.

    Each pass evaluates every row of the stack, market k in row k, with one
    numpy call per kernel, and then steps each market still searching in
    one Python loop. A market that has settled keeps the last x it
    evaluated, an error row its first; their rows are evaluated again and
    discarded, so a market's iterations count its own search's evaluations.
    """
    m, n = st.rates.shape
    shaded = mode == MODE_MODIFIED
    eta_lo, eta_hi, errors = _bracket(st, mode)
    a = [math.log(v) for v in eta_lo]
    b = [min(math.log(v), _LOG_ETA_MAX) for v in eta_hi]
    x = [x0 if lo < x0 < hi else 0.5 * (lo + hi)
         for x0, lo, hi in zip(st.log_price0.tolist(), a, b)]
    last = [False] * m
    # whether a safeguard step can meet a switch price
    switches = shaded and bool(np.count_nonzero(st.non_concave))
    iterations = [0] * m
    quantities = np.full((m, n), np.nan)
    prices, totals = [math.nan] * m, [math.nan] * m
    active = [k for k in range(m) if errors[k] is None]
    passes = 0
    while active and passes < _MAX_STEPS:
        passes += 1
        etas = [math.exp(v) for v in x]
        if shaded:
            q = _inverse_modified(
                st, np.array(x)[:, None],
                np.array([math.log(v) for v in etas])[:, None])
        else:
            q = _inverse_true(st, np.array(etas)[:, None])
        sums = q.sum(axis=1).tolist()
        scales = np.abs(q).sum(axis=1).tolist()
        slopes, going = None, []
        for k in active:
            e = sums[k]
            iterations[k] += 1
            if iterations[k] == 1 or abs(e) < abs(totals[k]):
                quantities[k], prices[k], totals[k] = q[k], etas[k], e
            if last[k] or abs(e) <= _SUM_ROUNDING * scales[k]:
                continue
            if e > 0:
                a[k] = x[k]
            else:
                b[k] = x[k]
            if slopes is None:  # the first market of the pass that steps
                slopes = _slopes(st, q, (q > st.q_lower) & (q < st.q_upper),
                                 shaded)
            d = slopes[k] * etas[k] if shaded else slopes[k]
            step = -e / d if d < 0 and math.isfinite(d) else math.nan
            mid = 0.5 * (a[k] + b[k])
            if a[k] < x[k] + step < b[k]:
                last[k] = abs(step) < _NEWTON_XTOL
                x[k] += step
            elif abs(step) < _NEWTON_XTOL or not a[k] < mid < b[k]:
                # x is an end of the bracket now (the step rounds onto it or
                # crosses it by less than the tolerance), or the bracket has
                # closed on a jump
                continue
            else:
                x[k] = (_safeguard(st.log_switch[k], a[k], b[k], mid)
                        if switches else mid)
            going.append(k)
        active = going
    return _Batch(quantities, prices, totals, iterations, errors, passes)


def solve_dual(config: MarketConfig, mode: str) -> SolveResult:
    """Solve one welfare program by a dual search on the balance multiplier.

    Returns the allocation with its stationarity residuals, the recovered
    bids theta_i = eta*(q_i - d_min), and the true welfare sum_i S_i(q_i)
    (evaluated with the actual curves in both modes). converged reports
    whether |sum q_i| is within tol_root or within the rounding floor of
    the sum, 8*eps*sum |q_i|, at which the search stops, whichever is
    larger. The search is the lockstep search of a stack of one market: a
    safeguarded Newton search in ln(eta) from the all-free competitive
    price on a closed-form sign bracket; iterations counts its excess
    evaluations. In the modified mode's non-concave regime the argmax can
    jump across the balance point; the search then stops once its bracket
    closes on the jump, the best available eta is returned, the residual
    recorded, and the affected prosumers listed in non_concave_prosumers.
    Raises BracketFailure, before any evaluation,
    when every shaded curve is non-concave and no higher at q_upper than at
    -s_max, so that every prosumer prefers -s_max at every price and excess
    demand is -N*s_max everywhere. Emits one SaturationWarning when the
    exponent clamp engages anywhere in the solve.
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    batch = _solve_stack(config.stack, mode)
    if batch.errors[0] is not None:
        raise BracketFailure(batch.errors[0])
    qs = batch.quantities[0]
    eta, total = batch.prices[0], batch.totals[0]
    m = _marginals(config, mode, qs)
    at_capacity = np.abs(qs + config.s_max) <= config.tol_root
    if _saturates(config.stack):
        _warn_saturated(stacklevel=2)
    return SolveResult(
        allocation=_allocation(config, qs, m, eta, at_capacity),
        thetas=eta * (qs - config.d_min),
        price=eta,
        welfare_true=float(_welfares(config.stack, qs[None])[0]),
        converged=bool(abs(total) <= config.tol_root or abs(total)
                       <= _SUM_ROUNDING * float(np.abs(qs).sum())),
        iterations=batch.iterations[0],
        mode=mode,
        non_concave_prosumers=() if mode == MODE_TRUE else tuple(
            np.flatnonzero(~_eq21_ok(qs, config.concavity_thresholds))
            .tolist()),
        balance_residual=total,
    )


def _marginals(config: MarketConfig, mode: str, q) -> np.ndarray:
    """Every prosumer's marginal curve of the mode's program at q.

    Without a warning: the callers warn once per call. A steep prosumer at
    -s_max can have a marginal beyond the float range, which reads inf.
    """
    with np.errstate(over="ignore"):
        if mode == MODE_TRUE:
            return _marginal(config.rates, q, warn=False)
        return _shaded_marginal(config.rates,
                                float(config.stack.lengths[0, 0]), q,
                                warn=False)


def _allocation(config: MarketConfig, q, m, eta: float,
                at_capacity) -> Allocation:
    """q at price eta as an Allocation, with each prosumer's KKT residual.

    With marginals m the residual is max(0, m - eta) for the prosumers
    marked at_capacity, max(0, eta - m) within tol_root of q_upper, and
    |m - eta| in between.
    """
    at_upper = q >= config.q_upper - config.tol_root
    return Allocation(q, eta, np.where(
        at_capacity, np.maximum(0.0, m - eta),
        np.where(at_upper, np.maximum(0.0, eta - m), np.abs(m - eta))),
        at_capacity)


def recover_bids(allocation: Allocation, d_min: float) -> np.ndarray:
    """Bids that reproduce a balanced allocation at its dual price.

    theta_i = dual_price * (q_i - d_min); the clearing price of the
    recovered profile equals the dual price again.
    """
    price = _require_positive("dual price", allocation.dual_price)
    return price * (allocation.quantities - _require_positive("d_min", d_min))


def _welfares(st: MarketStack, q: np.ndarray, warn: bool = False):
    """Per market of the stack st, the true welfare of its row of q."""
    return _utility(st.rates, st.offsets, q, warn=warn).sum(axis=1)


def welfare(config: MarketConfig, quantities) -> float:
    """True aggregate welfare sum_i S_i(q_i); may legitimately be negative."""
    q = _finite_vector("quantities", quantities, config.n_prosumers)
    return float(_welfares(config.stack, q[None], warn=True)[0])
