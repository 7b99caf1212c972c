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
threshold. The eta-independent terms (ln r, r*L, A(d_min), the shaded
marginal's peak and, for the non-concave prosumers, S_mod(-s_max)) come
from a MarketStack, computed once per stack.

Where a shaded curve is not concave over the whole interval, its rising
stationary point is a local minimum of the Lagrangian, so only the capacity
bound and the falling root (or q_upper) compete; the better wins, and the
prosumer is flagged when the shaded curve is locally convex there. Excess
demand, a sum of global argmaxes, is then still non-increasing in eta but
can jump.

One search serves every mode and regime: a safeguarded Newton search in
x = ln(eta) (Palomar & Chiang, IEEE JSAC 2006, for the decomposition), with
slope -sum 1/r_i (true) or sum eta/S_mod''(q_i) (shaded) over the prosumers
strictly inside their bounds, and a safeguard step wherever a Newton step
would leave its bracket. Its bracket is a closed-form sign bracket that is
never evaluated: excess demand is non-negative at its bottom and negative
at its top. Where excess demand is smooth the search settles in a few
evaluations; where it jumps across the balance point the bracket closes on
the jump, and the solver returns the eta minimizing |excess| with its
residual. The safeguard step is the bracket's midpoint, except where the
evaluated bracket ends differ in the branch of exactly one non-concave
prosumer: the step then goes to that prosumer's switch price, estimated by
a Newton step on its Lagrangian gap between the falling root and -s_max,
and probes off a bracket end by a doubling number of ulps once that
estimate stalls there. A jump row then closes in about a dozen
evaluations instead of bisecting ln(eta) down to adjacent floats.

The search runs in lockstep over a stack of m markets that share the
prosumers' betas (market.MarketStack: the points of a sweep, or one
market). Each market keeps its own bracket, iterate and stop rule; each
pass evaluates every market still searching with one numpy call per
kernel, on (m, n) arrays and (m, 1) columns of per-market values, writes
each market's evaluation of least |sum q| so far into its row of the
(m, n) result arrays, and the markets that settle are dropped from the
stack before the next pass. Every
per-market sum is one numpy reduction along the rows of a C-contiguous
(m, n) array, which reduces each row exactly as it reduces that row alone,
so a market's result does not depend on the markets stacked with it.
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
from .market import (Allocation, MarketConfig, MarketStack, _marginal,
                     _saturates, _shaded_curvature, _shaded_marginal,
                     _shaded_utility, _utility, _warn_saturated)

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


def _inverse_modified(st: MarketStack, eta, log_eta):
    """Maximizer of S_mod(q) - eta*q per (market, prosumer), with flags.

    eta and log_eta = ln(eta) are (m, 1) columns, one entry per market of
    the stack st; floats stand for the columns of a stack of one. See
    marginal_inverse_modified for the choice at a non-concave prosumer; the
    flags mark maximizers where the shaded curve is locally convex. The
    non-concave terms are evaluated at q_upper for the concave prosumers,
    whose entries they do not decide. Returns the quantities, the flags and,
    when st has a non-concave prosumer, its branches (else None): the (m, n)
    mask of the prosumers that take -s_max over their falling root, the
    clipped falling root and its Lagrangian value S_mod(q) - eta*q.
    """
    L, lo, hi = st.lengths, st.q_lower, st.q_upper
    q = np.clip(_shaded_root(st.rates, st.log_rates, st.rate_lengths, L,
                             log_eta, log_eta + st.log_lengths + 1.0),
                lo, hi)
    if not np.count_nonzero(st.non_concave):
        return q, np.zeros(q.shape, dtype=bool), None
    nc = st.non_concave
    fall = np.where(nc, q, hi)
    lagrangian_fall = _shaded_utility(
        st.rates, st.offsets, L, st.d_min, fall, warn=False,
        antideriv_dmin=st.antideriv_dmin) - eta * fall
    dropped = nc & ~((eta <= st.peak_marginal)
                     & (lagrangian_fall >= st.utility_lo - eta * lo))
    q = np.where(dropped, lo, q)
    # S_mod'' = (r*exp(-r*q)/L)*(1 - r*(q + L)) is positive exactly below
    # the eq21 threshold 1/r - L, which lies below every q of a concave
    # prosumer
    return (q, ~_eq21_ok(q, st.thresholds),
            (dropped, fall, lagrangian_fall))


def _positive(eta: float) -> float:
    if eta <= 0:
        raise DomainError(f"eta must be positive, got {eta}")
    return eta


def marginal_inverse_true(config: MarketConfig, eta: float) -> np.ndarray:
    """Per-prosumer q solving S'(q) = eta, clipped to [-s_max, q_upper]."""
    return _inverse_true(config.stack, _positive(eta))[0]


def marginal_inverse_modified(config: MarketConfig,
                              eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-prosumer maximizer of S_mod(q) - eta*q over [-s_max, q_upper].

    Returns the quantities and a mask of the prosumers whose maximizer sits
    where the shaded curve is locally convex. A prosumer whose shaded curve
    is concave on the whole interval (eq21 threshold at or below -s_max)
    takes the falling root, clipped to the bounds. Otherwise the shaded
    marginal rises then falls. A stationary point on the rising branch is a
    local minimum of the Lagrangian, so only -s_max competes with the
    clipped falling root: the root is kept where eta is at most the
    marginal's peak on the interval and its Lagrangian value is at least
    the one at -s_max (the larger q on ties), and -s_max is taken otherwise.
    """
    q, flags, _ = _inverse_modified(config.stack, eta,
                                    math.log(_positive(eta)))
    return q[0], flags[0]


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
    q_upper.
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
        # its reach, the lesser of its marginal at q_upper and its chord
        # slope from -s_max, and -s_max at every eta above a reach that is
        # its chord slope. One prosumer at q_upper balances the rest at
        # -s_max, so excess demand is non-negative up to the largest reach
        # and -N*s_max above it when that reach lies below the bracket. A
        # prosumer whose chord slope is not positive prefers -s_max to
        # every q at every price. Where the marginals at q_upper underflow,
        # so can the reach; the bottom then stops at the least positive
        # float.
        s_upper = _shaded_utility(st.rates, st.offsets, L, st.d_min, hi,
                                  warn=False, antideriv_dmin=st.antideriv_dmin)
        chord = (s_upper - st.utility_lo) / (hi + st.s_max)
        failed = every & (chord.max(axis=1) <= 0)
        reach = np.minimum(m_upper, chord).max(axis=1)
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


def _switch_price(st: MarketStack, j: int, low, high) -> float:
    """Newton estimate of the price where one prosumer jumps to -s_max.

    low and high are (q, branches, row, eta) of the evaluations at a
    market's bracket ends: the quantities and branches that
    _inverse_modified returned and the market's row among them; j is its
    row in st. When the ends differ in which prosumers sit at -s_max by
    exactly one prosumer i, on its falling root at the low end and switched
    to -s_max at the high end, its Lagrangian gap

        g(eta) = [S_mod(q_fall) - eta*q_fall] - [S_mod(-s_max) + eta*s_max]

    is convex and decreasing in eta, with slope -(q_fall + s_max), so one
    Newton step from the low end lands at or below its switch price, the
    root of g capped at i's peak_marginal. Returns that estimate, or nan
    when the ends differ otherwise; an S_mod(-s_max) beyond the float range
    gives -inf.
    """
    q, (_, fall, lagrangian), row, eta = low
    q_high, (dropped, _, _), row_high, _ = high
    lo = st.q_lower[j]
    changed = np.flatnonzero((q[row] == lo) != (q_high[row_high] == lo))
    if changed.size != 1 or not dropped[row_high, changed[0]]:
        return math.nan
    i = int(changed[0])
    lo_i = float(lo[i])
    gap = float(lagrangian[row, i]) - (float(st.utility_lo[j, i]) - eta * lo_i)
    return min(eta + gap / (float(fall[row, i]) - lo_i),
               float(st.peak_marginal[j, i]))


def _probe(x: float, a: float, b: float, width: int) -> tuple[float, int]:
    """A switch estimate x in ln(eta), moved off the bracket end it stalls on.

    An estimate within width ulps of a (or b) is moved to width ulps above a
    (below b) and the next width doubles; any other estimate stands and the
    next width is 1.
    """
    if x - a < width * math.ulp(a):
        return a + width * math.ulp(a), 2 * width
    if b - x < width * math.ulp(b):
        return b - width * math.ulp(b), 2 * width
    return x, 1


class _Batch(NamedTuple):
    """The dual searches of every market of a stack in one mode.

    Row k of the (m, n) arrays quantities and flags holds market k's
    quantities and flags at its evaluation of least |sum q|; prices and
    totals list each market's price and total (sum q) there, iterations its
    number of excess evaluations, and errors the BracketFailure text of a
    market that has no balancing price (whose quantities, price and total
    are nan and flags False), else None. passes counts the lockstep
    evaluations of the whole stack.
    """

    quantities: np.ndarray
    flags: np.ndarray
    prices: list
    totals: list
    iterations: list
    errors: list
    passes: int


def _restack(st: MarketStack, kept) -> MarketStack:
    """The rows kept of every field of st, gathered by one index array."""
    rows = np.array(kept, dtype=np.intp)
    return MarketStack(*(field.take(rows, axis=0) for field in st))


def _solve_stack(st: MarketStack, mode: str) -> _Batch:
    """Safeguarded Newton searches in x = ln(eta), one per market, in lockstep.

    Each market's search runs on its own closed-form sign bracket
    [ln eta_lo, ln eta_hi], whose ends are not evaluated (an infinite upper
    end stands at the largest finite ln(eta)), from the all-free
    competitive price when that lies inside. The slope of excess demand in
    x is -sum 1/r_i (true) or sum eta/S_mod''(q_i) (shaded) over the
    prosumers strictly inside their bounds. Where a Newton step would leave
    the bracket or the slope is not negative, the search takes a safeguard
    step: the bracket's midpoint, unless its two evaluated ends differ in
    which prosumers sit at -s_max by exactly one non-concave prosumer, on its
    falling root at the low end and switched to -s_max at the high end.
    Excess demand then jumps at that prosumer's switch price, and the step
    goes to one Newton estimate of it (_switch_price). An estimate that
    stalls within a few ulps of an end probes off that end by 1, 2, 4, ...
    ulps instead (_probe), so the bracket closes on the float pair around
    the jump. A market settles once |sum q| is within the rounding floor
    of the sum, one evaluation after a Newton step below _NEWTON_XTOL
    inside the bracket, when such a step lands on an end, when the midpoint
    is no longer inside the bracket (it has closed on a jump), or after
    _MAX_STEPS evaluations.

    Each pass evaluates every market still searching with one numpy call
    per kernel, writes each market's evaluation into the result when it
    lowers its |sum q|, and then drops the markets that settle from the
    stack, so that a market's evaluations do not depend on which other
    markets share its stack.
    """
    m, n = st.rates.shape
    shaded = mode == MODE_MODIFIED
    eta_lo, eta_hi, errors = _bracket(st, mode)
    a = [math.log(v) for v in eta_lo]
    b = [min(math.log(v), _LOG_ETA_MAX) for v in eta_hi]
    x = [x0 if lo < x0 < hi else 0.5 * (lo + hi)
         for x0, lo, hi in zip(st.log_price0.tolist(), a, b)]
    last = [False] * m
    # per market, the branches of its evaluations at a and at b, and the
    # ulps by which a stalled switch estimate probes off a bracket end
    lows, highs, probes = [None] * m, [None] * m, [1] * m
    iterations = [0] * m
    quantities = np.full((m, n), np.nan)
    flags = np.zeros((m, n), dtype=bool)
    prices, totals = [math.nan] * m, [math.nan] * m
    active = [k for k in range(m) if errors[k] is None]
    if len(active) < m:
        st = _restack(st, active)
    passes = 0
    while active and passes < _MAX_STEPS:
        passes += 1
        etas = [math.exp(x[k]) for k in active]
        eta = np.array(etas)[:, None]
        branches = None
        if shaded:
            q, convex, branches = _inverse_modified(
                st, eta, np.array([math.log(v) for v in etas])[:, None])
        else:
            q = _inverse_true(st, eta)
        sums = q.sum(axis=1).tolist()
        scales = np.abs(q).sum(axis=1).tolist()
        settled, going = [], []
        for j, (k, e) in enumerate(zip(active, sums)):
            iterations[k] += 1
            if iterations[k] == 1 or abs(e) < abs(totals[k]):
                quantities[k], prices[k], totals[k] = q[j], etas[j], e
                if shaded:
                    flags[k] = convex[j]
            if last[k] or abs(e) <= _SUM_ROUNDING * scales[j]:
                settled.append(j)
                continue
            going.append(j)
            if e > 0:
                a[k] = x[k]
                if branches is not None:
                    lows[k] = (q, branches, j, etas[j])
            else:
                b[k] = x[k]
                if branches is not None:
                    highs[k] = (q, branches, j, etas[j])
        if going:
            free = (q > st.q_lower) & (q < st.q_upper)
            slopes = _slopes(st, q, free, shaded)
        for j in going:
            k, e, d = active[j], sums[j], slopes[j]
            if shaded:
                d *= etas[j]
            step = -e / d if d < 0 and math.isfinite(d) else math.nan
            if a[k] < x[k] + step < b[k]:
                last[k] = abs(step) < _NEWTON_XTOL
                x[k] += step
            elif abs(step) < _NEWTON_XTOL:
                # x is an end of the bracket now: the step rounds onto it or
                # crosses it by less than the tolerance
                settled.append(j)
            else:
                x[k] = 0.5 * (a[k] + b[k])
                if not a[k] < x[k] < b[k]:
                    settled.append(j)
                elif lows[k] and highs[k]:
                    eta_s = _switch_price(st, j, lows[k], highs[k])
                    if 0.0 < eta_s < math.inf:
                        xs, probes[k] = _probe(math.log(eta_s), a[k], b[k],
                                               probes[k])
                        if a[k] < xs < b[k]:
                            x[k] = xs
        if settled:
            kept = sorted(set(range(len(active))) - set(settled))
            active = [active[j] for j in kept]
            if active:
                st = _restack(st, kept)
    return _Batch(quantities, flags, prices, totals, iterations, errors,
                  passes)


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
    qs, flags = batch.quantities[0], batch.flags[0]
    eta, total = batch.prices[0], batch.totals[0]
    s_max, q_upper = config.s_max, config.q_upper
    rates = config.rates
    # a steep prosumer at -s_max can have a marginal beyond the float range
    with np.errstate(over="ignore"):
        if mode == MODE_TRUE:
            m = _marginal(rates, qs, warn=False)
        else:
            m = _shaded_marginal(rates, float(config.stack.lengths[0, 0]),
                                 qs, warn=False)
    at_capacity = np.abs(qs + s_max) <= config.tol_root
    at_upper = qs >= q_upper - config.tol_root
    residuals = np.where(at_capacity, np.maximum(0.0, m - eta),
                         np.where(at_upper, np.maximum(0.0, eta - m),
                                  np.abs(m - eta)))
    allocation = Allocation(qs, eta, residuals, at_capacity)
    if _saturates(config.stack):
        _warn_saturated(stacklevel=2)
    return SolveResult(
        allocation=allocation,
        thetas=eta * (qs - config.d_min),
        price=eta,
        welfare_true=float(_welfares(config.stack, qs[None])[0]),
        converged=bool(abs(total) <= config.tol_root or abs(total)
                       <= _SUM_ROUNDING * float(np.abs(qs).sum())),
        iterations=batch.iterations[0],
        mode=mode,
        non_concave_prosumers=tuple(np.flatnonzero(flags).tolist()),
        balance_residual=total,
    )


def recover_bids(allocation: Allocation, d_min: float) -> np.ndarray:
    """Bids that reproduce a balanced allocation at its dual price.

    theta_i = dual_price * (q_i - d_min); the clearing price of the
    recovered profile equals the dual price again.
    """
    if allocation.dual_price <= 0:
        raise DomainError(
            f"dual price must be positive, got {allocation.dual_price}")
    if d_min <= 0:
        raise DomainError(f"d_min must be positive, got {d_min}")
    return allocation.dual_price * (allocation.quantities - d_min)


def _welfares(st: MarketStack, q: np.ndarray, warn: bool = False):
    """Per market of the stack st, the true welfare of its row of q."""
    return _utility(st.rates, st.offsets, q, warn=warn).sum(axis=1)


def welfare(config: MarketConfig, quantities) -> float:
    """True aggregate welfare sum_i S_i(q_i); may legitimately be negative."""
    q = np.asarray(quantities, dtype=float)
    if q.shape != (config.n_prosumers,):
        raise DomainError(
            f"expected {config.n_prosumers} quantities, got shape {q.shape}")
    return float(_welfares(config.stack, q[None], warn=True)[0])
