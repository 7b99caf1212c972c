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
prosumers, S_mod(-s_max), the marginal's peak and A(d_min)) are cached on
the config.

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

Recovered bids theta_i = eta*(q_i - d_min) reproduce eta as the clearing
price of the recovered profile.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DomainError
from .market import (_EXP_CLAMP, Allocation, MarketConfig, _marginal,
                     _shaded_marginal, _shaded_utility, _shaded_curvature,
                     _shading_length, _utility, _warn_saturated)

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


def _shaded_root(r, log_r, rL, L: float, eta: float) -> np.ndarray:
    """q on the falling branch where the shaded marginal equals eta.

    r, log_r and rL are per-prosumer r, ln r and r*L. With u = r*(q + L)
    the equation (1 + q/L)*r*exp(-r*q) = eta reads u - ln(u) = 1 + sigma,
    sigma = r*L - ln(eta*L) - 1, whose root u >= 1 is -W_{-1}(-exp(-sigma-1)).
    Above the peak (sigma <= 0) there is no root and the peak u = 1,
    q = 1/r - L, is returned. Near the peak (p = sqrt(2*sigma) below
    _SERIES_P) u comes from the branch-point series. Elsewhere u starts at
    the lower bound 1 + p + p**2/3 (Chatzigeorgiou, IEEE Commun. Lett. 2013)
    and takes three Newton steps on the convex u - ln(u) - 1 - sigma, which
    overshoot once and then fall to the root; then one Newton step in q on
    log1p(q/L) + ln r - r*q - ln(eta) recovers the digits that u/r - L
    cancels when r*L is large.
    """
    log_eta = math.log(eta)
    sigma = np.maximum(rL - (log_eta + math.log(L) + 1.0), 0.0)
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


def marginal_inverse_true(config: MarketConfig, eta: float) -> np.ndarray:
    """Per-prosumer q solving S'(q) = eta, clipped to [-s_max, q_upper]."""
    if eta <= 0:
        raise DomainError(f"eta must be positive, got {eta}")
    r = config.rates
    return np.clip(-np.log(eta / r) / r, -config.s_max, config.q_upper)


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
    if eta <= 0:
        raise DomainError(f"eta must be positive, got {eta}")
    lo, hi = -config.s_max, config.q_upper
    L = _shading_length(config.n_prosumers, config.d_min)
    q = np.clip(_shaded_root(config.rates, config.log_rates,
                             config.rate_lengths, L, eta), lo, hi)
    flags = np.zeros(config.n_prosumers, dtype=bool)
    nc = config.non_concave_terms
    if not nc.rates.size:
        return q, flags

    fall = q[nc.mask]
    lagrangian_fall = _shaded_utility(
        nc.rates, nc.offsets, L, config.d_min, fall, warn=False,
        antideriv_dmin=nc.antideriv_dmin) - eta * fall
    keep = ((eta <= nc.peak_marginal)
            & (lagrangian_fall >= nc.utility_lo - eta * lo))
    q[nc.mask] = np.where(keep, fall, lo)
    flags[nc.mask] = _shaded_curvature(nc.rates, L, q[nc.mask], warn=False) > 0
    return q, flags


def _newton_log(excess, slope, lo, hi, x0) -> None:
    """Safeguarded Newton search for the zero of non-increasing excess demand.

    The search runs in x = ln(eta) on [ln lo, ln hi], a sign bracket whose
    ends are not evaluated (an infinite upper end stands at the largest
    finite ln(eta)); slope(eta, qs) is the derivative of excess demand in x
    where it is smooth. It starts at x0 when x0 lies inside the bracket, and
    takes the midpoint where a Newton step would leave the bracket or the
    slope is not negative. It stops once |sum q| is within the rounding
    floor of the sum, one evaluation after a Newton step below _NEWTON_XTOL
    inside the bracket, when such a step lands on an end, when the midpoint
    is no longer inside the bracket (it has closed on a jump), or after
    _MAX_STEPS evaluations. excess records what it sees.
    """
    a, b = math.log(lo), min(math.log(hi), _LOG_ETA_MAX)
    x = x0 if a < x0 < b else 0.5 * (a + b)
    last = False
    for _ in range(_MAX_STEPS):
        eta = math.exp(x)
        e = excess(eta)
        if last or abs(e[0]) <= _SUM_ROUNDING * float(np.abs(e[1]).sum()):
            return
        if e[0] > 0:
            a = x
        else:
            b = x
        d = slope(eta, e[1])
        step = -e[0] / d if d < 0 and math.isfinite(d) else math.nan
        if a < x + step < b:
            last = abs(step) < _NEWTON_XTOL
            x += step
        elif abs(step) < _NEWTON_XTOL:
            # x is an end of the bracket now: the step rounds onto it or
            # crosses it by less than the tolerance
            return
        else:
            x = 0.5 * (a + b)
            if not a < x < b:
                return


def solve_dual(config: MarketConfig, mode: str) -> SolveResult:
    """Solve one welfare program by a dual search on the balance multiplier.

    Returns the allocation with its stationarity residuals, the recovered
    bids theta_i = eta*(q_i - d_min), and the true welfare sum_i S_i(q_i)
    (evaluated with the actual curves in both modes). converged reports
    whether |sum q_i| reached tol_root. Every mode and regime is solved by
    one safeguarded Newton search in ln(eta) from the all-free competitive
    price on a closed-form sign bracket; iterations counts its excess
    evaluations. In the modified mode's non-concave regime the argmax can
    jump across the balance point; the search then stops once its bracket
    closes on the jump, the best available eta is returned, the residual
    recorded, and the affected prosumers listed in non_concave_prosumers.
    Raises BracketFailure, before any evaluation, when every shaded curve
    is non-concave and no higher at q_upper than at -s_max, so that every
    prosumer prefers -s_max at every price and excess demand is -N*s_max
    everywhere. Emits one SaturationWarning when the exponent clamp engages
    anywhere in the solve.
    """
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    n, s_max, q_upper = config.n_prosumers, config.s_max, config.q_upper
    no_flags = np.zeros(n, dtype=bool)
    # the first (evaluation, eta) pair of least |sum q|; evaluations made
    best, iterations = None, 0

    def excess(eta):
        nonlocal best, iterations
        iterations += 1
        if mode == MODE_TRUE:
            qs, flags = marginal_inverse_true(config, eta), no_flags
        else:
            qs, flags = marginal_inverse_modified(config, eta)
        e = (float(qs.sum()), qs, flags)
        if best is None or abs(e[0]) < abs(best[0][0]):
            best = (e, eta)
        return e

    rates, L = config.rates, _shading_length(n, config.d_min)
    inv_rates = 1.0 / rates

    def marginal(q):
        if mode == MODE_TRUE:
            return _marginal(rates, q, warn=False)
        return _shaded_marginal(rates, L, q, warn=False)

    def slope(eta, qs):
        """d(sum q)/d(ln eta) over the prosumers strictly inside the bounds."""
        free = (qs > -s_max) & (qs < q_upper)
        if mode == MODE_TRUE:
            return -float(np.sum(inv_rates[free]))
        with np.errstate(divide="ignore"):
            return eta * float(np.sum(1.0 / _shaded_curvature(
                rates[free], L, qs[free], warn=False)))

    # closed-form sign bracket from the marginals, widened. The top is the
    # largest marginal on [-s_max, q_upper]: the shaded marginal rises below
    # the eq21 threshold and falls above it, so it peaks at the threshold
    # clipped to the interval, where it is positive even when the marginal
    # at -s_max is not. Above the top every prosumer takes -s_max. Below the
    # bottom every competitive q_i is positive and, unless the floor 1e-300
    # holds the bottom, every concave shaded prosumer takes q_upper.
    q_peak = (np.full(n, -s_max) if mode == MODE_TRUE
              else np.clip(config.concavity_thresholds, -s_max, q_upper))
    m_upper = marginal(np.full(n, q_upper))
    eta_lo = max(float(np.min(m_upper)) / _BRACKET_WIDEN, 1e-300)
    eta_hi = float(np.max(marginal(q_peak))) * _BRACKET_WIDEN
    if mode == MODE_MODIFIED and config.non_concave_terms.mask.all():
        # a non-concave prosumer takes q_upper exactly when eta is at most
        # its reach, the lesser of its marginal at q_upper and its chord
        # slope from -s_max, and -s_max at every eta above a reach that is
        # its chord slope. One prosumer at q_upper balances the rest at
        # -s_max, so excess demand is non-negative up to the largest reach
        # and -N*s_max above it when that reach lies below the bracket. A
        # prosumer whose chord slope is not positive prefers -s_max to every
        # q at every price. Where the marginals at q_upper underflow, so can
        # the reach; the bottom then stops at the least positive float.
        nc = config.non_concave_terms
        s_upper = _shaded_utility(rates, config.offsets, L, config.d_min,
                                  q_upper, warn=False,
                                  antideriv_dmin=nc.antideriv_dmin)
        chord = (s_upper - nc.utility_lo) / (q_upper + s_max)
        if np.max(chord) <= 0:
            raise BracketFailure(
                "no balancing price: every prosumer prefers -s_max at every "
                f"price (eta range [{eta_lo:g}, {eta_hi:g}], "
                f"excess [{-n * s_max:g}, {-n * s_max:g}])")
        reach = float(np.max(np.minimum(m_upper, chord)))
        if reach < eta_lo:
            eta_lo = max(reach / _BRACKET_WIDEN, math.ulp(0.0))

    # the competitive price with every prosumer strictly inside
    x0 = float(np.dot(np.log(rates), inv_rates) / inv_rates.sum())
    _newton_log(excess, slope, eta_lo, eta_hi, x0)

    (total, qs, flags), eta = best
    m = marginal(qs)
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
        iterations=iterations,
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


def welfare(config: MarketConfig, quantities) -> float:
    """True aggregate welfare sum_i S_i(q_i); may legitimately be negative."""
    q = np.asarray(quantities, dtype=float)
    if q.shape != (config.n_prosumers,):
        raise DomainError(
            f"expected {config.n_prosumers} quantities, got shape {q.shape}")
    return float(np.sum(_utility(config.rates, config.offsets, q)))
