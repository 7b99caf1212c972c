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
threshold. The eta-independent terms (ln r, r*L and, for the non-concave
prosumers, S_mod(-s_max), the marginal's peak and A(d_min)) come from a
MarketStack, computed once per stack.

Where a shaded curve is not concave over the whole interval, its rising
stationary point is a local minimum of the Lagrangian, so only the capacity
bound and the falling root (or q_upper) compete; the better wins, and the
prosumer is flagged when the shaded curve is locally convex there. Excess
demand, a sum of global argmaxes, is then still non-increasing in eta but
can jump.

One search serves every mode and regime: a safeguarded Newton search in
x = ln(eta) (Palomar & Chiang, IEEE JSAC 2006, for the decomposition), with
slope -sum 1/r_i (true) or sum eta/S_mod''(q_i) (shaded) over the prosumers
strictly inside their bounds, and the midpoint of its bracket wherever a
Newton step would leave it. Its bracket is a closed-form sign bracket that
is never evaluated: excess demand is non-negative at its bottom and
negative at its top. Where excess demand is smooth the search settles in a few
evaluations; where it jumps across the balance point the bracket closes on
the jump, and the solver returns the eta minimizing |excess| with its
residual.

The search runs in lockstep over a stack of m markets that share the
prosumers' betas (market.MarketStack: the points of a sweep, or one
market). Each market keeps its own bracket, iterate and stop rule; each
pass evaluates every market still searching with one numpy call per
kernel, on (m, n) arrays and (m, 1) columns of per-market values, and the
markets that settle are dropped from the stack before the next pass. Every
per-market sum is the one numpy gives for that market alone, so a market's
result does not depend on the markets stacked with it. solve_dual is the
search of a stack of one, on the stack cached on its MarketConfig.

Recovered bids theta_i = eta*(q_i - d_min) reproduce eta as the clearing
price of the recovered profile.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conditions import _eq21_ok
from .errors import BracketFailure, DomainError
from .market import (_EXP_CLAMP, Allocation, MarketConfig, MarketStack,
                     _marginal, _shaded_curvature, _shaded_marginal,
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

    eta is one (m, 1) column entry per market of the stack st, or a float
    for a stack of one.
    """
    return np.clip(-np.log(eta / st.rates) / st.rates, st.q_lower, st.q_upper)


def _inverse_modified(st: MarketStack, eta, log_eta, shift,
                      any_non_concave: bool) -> tuple[np.ndarray, np.ndarray]:
    """Maximizer of S_mod(q) - eta*q per (market, prosumer), with flags.

    eta, log_eta = ln(eta) and shift = ln(eta) + ln(L) + 1 are (m, 1)
    columns, one entry per market of the stack st, or floats for a stack of
    one; any_non_concave tells whether st.non_concave has a true entry. See
    marginal_inverse_modified for the choice at a non-concave prosumer; the
    flags mark maximizers where the shaded curve is locally convex. The
    non-concave terms are evaluated at q_upper for the concave prosumers,
    whose entries they do not decide.
    """
    L, lo, hi = st.lengths, st.q_lower, st.q_upper
    q = np.clip(_shaded_root(st.rates, st.log_rates, st.rate_lengths, L,
                             log_eta, shift), lo, hi)
    if not any_non_concave:
        return q, np.zeros(q.shape, dtype=bool)
    nc = st.non_concave
    fall = np.where(nc, q, hi)
    lagrangian_fall = _shaded_utility(
        st.rates, st.offsets, L, st.d_min, fall, warn=False,
        antideriv_dmin=st.antideriv_dmin) - eta * fall
    keep = ((eta <= st.peak_marginal)
            & (lagrangian_fall >= st.utility_lo - eta * lo))
    q = np.where(nc & ~keep, lo, q)
    # S_mod'' = (r*exp(-r*q)/L)*(1 - r*(q + L)) is positive exactly below
    # the eq21 threshold 1/r - L, which lies below every q of a concave
    # prosumer
    return q, ~_eq21_ok(q, st.thresholds)


def _column(values: list):
    """The (m, 1) column of per-market values, or the value of a stack of one."""
    return values[0] if len(values) == 1 else np.array(values)[:, None]


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
    st, log_eta = config.stack, math.log(_positive(eta))
    q, flags = _inverse_modified(
        st, eta, log_eta, log_eta + float(st.log_lengths[0, 0]) + 1.0,
        bool(st.non_concave.any()))
    return q[0], flags[0]


def _slopes(st: MarketStack, q: np.ndarray, free: np.ndarray,
            shaded: bool) -> list:
    """Per market, the slope of excess demand in ln(eta), over eta if shaded.

    That is the sum over the market's free prosumers of 1/S_mod''(q_i)
    (shaded) or of -1/r_i (true). Each market's sum is the one numpy gives
    for that market alone. Its pairwise sum groups entries by position, so
    summing zero-filled rows could round differently; the markets are
    instead ordered by their number k of free prosumers, and the free
    entries of the markets with the same k are summed as one (markets, k)
    block.
    """
    many = len(q) > 1
    if many:
        counts = free.sum(axis=1)
        order = np.argsort(counts, kind="stable")
        q, free = q[order], free[order]
    else:
        order = slice(None)
    if shaded:
        # one market's shading length is one number
        lengths = (st.lengths[order][free] if many
                   else float(st.lengths[0, 0]))
        with np.errstate(divide="ignore"):
            picked = 1.0 / _shaded_curvature(st.rates[order][free], lengths,
                                             q[free], warn=False)
    else:
        picked = st.inv_rates[order][free]
    sign = 1.0 if shaded else -1.0
    if not many:
        return [sign * float(picked.sum())]
    counts = counts[order].tolist()
    sums = np.empty(len(counts))
    start = pos = 0
    while start < len(counts):
        k = counts[start]
        stop = bisect.bisect_right(counts, k, start)
        block = picked[pos:pos + (stop - start) * k]
        sums[order[start:stop]] = block.reshape(stop - start, k).sum(axis=1)
        start, pos = stop, pos + block.size
    return (sign * sums).tolist()


def _bracket(st: MarketStack, mode: str) -> tuple[list, list, list]:
    """Per-market closed-form sign bracket (eta_lo, eta_hi), or an error.

    The bracket is widened from the marginals. Its top is the largest
    marginal on [-s_max, q_upper]: the shaded marginal rises below the eq21
    threshold and falls above it, so it peaks at the threshold clipped to
    the interval, where it is positive even when the marginal at -s_max is
    not. Above the top every prosumer takes -s_max. Below the bottom every
    competitive q_i is positive and, unless the floor 1e-300 holds the
    bottom, every concave shaded prosumer takes q_upper.
    """
    lo, hi, L = st.q_lower, st.q_upper, st.lengths
    # where the exponent clamp engages at a steep prosumer, the largest
    # marginal, and so the top, can exceed the float range and read inf
    with np.errstate(over="ignore"):
        if mode == MODE_TRUE:
            m_upper = _marginal(st.rates, hi, warn=False)
            m_peak = _marginal(st.rates, lo, warn=False)
        else:
            m_upper = _shaded_marginal(st.rates, L, hi, warn=False)
            m_peak = _shaded_marginal(st.rates, L,
                                      np.clip(st.thresholds, lo, hi),
                                      warn=False)
    # widened in Python floats, where a top that leaves the float range
    # becomes inf without a warning
    eta_lo = [max(v / _BRACKET_WIDEN, 1e-300)
              for v in m_upper.min(axis=1).tolist()]
    eta_hi = [v * _BRACKET_WIDEN for v in m_peak.max(axis=1).tolist()]
    errors = [None] * len(eta_lo)
    if mode == MODE_TRUE:
        return eta_lo, eta_hi, errors
    all_nc = st.non_concave.all(axis=1).tolist()
    if True not in all_nc:
        return eta_lo, eta_hi, errors
    # a non-concave prosumer takes q_upper exactly when eta is at most its
    # reach, the lesser of its marginal at q_upper and its chord slope from
    # -s_max, and -s_max at every eta above a reach that is its chord slope.
    # One prosumer at q_upper balances the rest at -s_max, so excess demand
    # is non-negative up to the largest reach and -N*s_max above it when
    # that reach lies below the bracket. A prosumer whose chord slope is not
    # positive prefers -s_max to every q at every price. Where the marginals
    # at q_upper underflow, so can the reach; the bottom then stops at the
    # least positive float.
    s_upper = _shaded_utility(st.rates, st.offsets, L, st.d_min, hi,
                              warn=False, antideriv_dmin=st.antideriv_dmin)
    chord = (s_upper - st.utility_lo) / (hi + st.s_max)
    top_chord = chord.max(axis=1).tolist()
    reach = np.minimum(m_upper, chord).max(axis=1).tolist()
    n = st.rates.shape[1]
    for k, every in enumerate(all_nc):
        if every and top_chord[k] <= 0:
            excess = -n * float(st.s_max[k, 0])
            errors[k] = (
                "no balancing price: every prosumer prefers -s_max at every "
                f"price (eta range [{eta_lo[k]:g}, {eta_hi[k]:g}], "
                f"excess [{excess:g}, {excess:g}])")
        elif every and reach[k] < eta_lo[k]:
            eta_lo[k] = max(reach[k] / _BRACKET_WIDEN, math.ulp(0.0))
    return eta_lo, eta_hi, errors


class _Batch(NamedTuple):
    """The dual searches of every market of a stack in one mode.

    Every field but passes is a list with one entry per market: its
    quantities and flags (n-arrays), price and total (sum q) at its
    evaluation of least |sum q|, its number of excess evaluations, and the
    BracketFailure text of a market that has no balancing price (whose
    quantities are nan and flags False), else None. passes counts the
    lockstep evaluations of the whole stack.
    """

    quantities: list
    flags: list
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
    prosumers strictly inside their bounds; the search takes the midpoint
    where a Newton step would leave the bracket or the slope is not
    negative. A market settles once |sum q| is within the rounding floor of
    the sum, one evaluation after a Newton step below _NEWTON_XTOL inside
    the bracket, when such a step lands on an end, when the midpoint is no
    longer inside the bracket (it has closed on a jump), or after
    _MAX_STEPS evaluations.

    Each pass evaluates every market still searching with one numpy call
    per kernel, and the markets that settle are then dropped from the
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
    iterations = [0] * m
    # per market: (|sum q|, sum q, eta, q, flags, row) of its best
    # evaluation, whose quantities and flags are row `row` of q and flags
    best = [None] * m
    log_lengths = st.log_lengths[:, 0].tolist()
    active = [k for k in range(m) if errors[k] is None]
    if len(active) < m:
        st = MarketStack(*(field[active] for field in st))
    if shaded:
        any_non_concave = bool(st.non_concave.any())
    else:
        no_flags = np.zeros((m, n), dtype=bool)
    passes = 0
    while active and passes < _MAX_STEPS:
        passes += 1
        etas = [math.exp(x[k]) for k in active]
        if shaded:
            log_etas = [math.log(v) for v in etas]
            q, flags = _inverse_modified(
                st, _column(etas), _column(log_etas),
                _column([v + log_lengths[k] + 1.0
                         for v, k in zip(log_etas, active)]), any_non_concave)
        else:
            q, flags = _inverse_true(st, _column(etas)), no_flags
        totals = q.sum(axis=1).tolist()
        scales = np.abs(q).sum(axis=1).tolist()
        settled, going = [], []
        for j, (k, e) in enumerate(zip(active, totals)):
            iterations[k] += 1
            if best[k] is None or abs(e) < best[k][0]:
                best[k] = (abs(e), e, etas[j], q, flags, j)
            if last[k] or abs(e) <= _SUM_ROUNDING * scales[j]:
                settled.append(j)
                continue
            going.append(j)
            if e > 0:
                a[k] = x[k]
            else:
                b[k] = x[k]
        if going:
            free = (q > st.q_lower) & (q < st.q_upper)
            slopes = _slopes(st, q, free, shaded)
        for j in going:
            k, e, d = active[j], totals[j], slopes[j]
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
        if settled:
            kept = sorted(set(range(len(active))) - set(settled))
            active = [active[j] for j in kept]
            if active:
                st = MarketStack(*(field[kept] for field in st))
                any_non_concave = shaded and bool(st.non_concave.any())
    return _Batch(
        quantities=[np.full(n, np.nan) if s is None else s[3][s[5]]
                    for s in best],
        flags=[np.zeros(n, dtype=bool) if s is None else s[4][s[5]]
               for s in best],
        prices=[math.nan if s is None else s[2] for s in best],
        totals=[math.nan if s is None else s[1] for s in best],
        iterations=iterations,
        errors=errors,
        passes=passes,
    )


def solve_dual(config: MarketConfig, mode: str) -> SolveResult:
    """Solve one welfare program by a dual search on the balance multiplier.

    Returns the allocation with its stationarity residuals, the recovered
    bids theta_i = eta*(q_i - d_min), and the true welfare sum_i S_i(q_i)
    (evaluated with the actual curves in both modes). converged reports
    whether |sum q_i| reached tol_root. The search is the lockstep search of
    a stack of one market: a safeguarded Newton search in ln(eta) from the
    all-free competitive price on a closed-form sign bracket; iterations
    counts its excess evaluations. In the modified mode's non-concave
    regime the argmax can jump across the balance point; the search then
    stops once its bracket closes on the jump, the best available eta is
    returned, the residual recorded, and the affected prosumers listed in
    non_concave_prosumers. Raises BracketFailure, before any evaluation,
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
    if mode == MODE_TRUE:
        m = _marginal(rates, qs, warn=False)
    else:
        m = _shaded_marginal(rates, float(config.stack.lengths[0, 0]), qs,
                             warn=False)
    at_capacity = np.abs(qs + s_max) <= config.tol_root
    at_upper = qs >= q_upper - config.tol_root
    residuals = np.where(at_capacity, np.maximum(0.0, m - eta),
                         np.where(at_upper, np.maximum(0.0, eta - m),
                                  np.abs(m - eta)))
    allocation = Allocation(qs, eta, residuals, at_capacity)
    welfare_true = welfare(config, qs)
    # every evaluation point lies at or above -s_max, so the clamp engaged
    # iff it does there; welfare has already warned if it engaged at qs
    if (np.max(rates) * s_max > _EXP_CLAMP
            and not np.any(-rates * qs > _EXP_CLAMP)):
        _warn_saturated(stacklevel=2)
    return SolveResult(
        allocation=allocation,
        thetas=eta * (qs - config.d_min),
        price=eta,
        welfare_true=welfare_true,
        converged=bool(abs(total) <= config.tol_root),
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
