"""Domain model of the uniform-price prosumer market.

A market of N identical-envelope prosumers trades a divisible resource. Each
prosumer i submits a single scalar bid theta_i that commits it to the net
quantity

    q_i = d_min + theta_i / p

at every positive price p, where d_min is its inelastic demand. The operator
clears the market at the unique price balancing net positions,

    p(theta) = -(sum_i theta_i) / (N * d_min),

with the continuity convention q(0, 0) = d_min and p(0) = 0. Positive q_i is
net consumption, negative q_i net supply, bounded below by the supply
capacity -s_max.

Each prosumer carries a utility/cost curve S(q) (utility when positive, cost
when negative) that is strictly increasing, strictly concave and zero at
d_min. It is exponential,

    S(q) = exp(-beta/5) - exp(-beta*q/(5*d_min)),

and the module also provides the "modified" curve: the curve a strategic
(price-anticipating) prosumer effectively maximizes instead of S. For
market size n it is

    S_mod(q) = (1 + q/((n-1)*d_min)) * S(q)
               - (integral of S from d_min to q) / ((n-1)*d_min),

whose derivative collapses to (1 + q/((n-1)*d_min)) * S'(q).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidBids, SaturationWarning

# exp() overflows float64 near 710; clamp and warn instead of propagating inf
_EXP_CLAMP = 700.0


def _warn_saturated(stacklevel: int) -> None:
    warnings.warn("utility exponent clamped to +700; value saturated",
                  SaturationWarning, stacklevel=stacklevel + 1)


def _is_real(value) -> bool:
    """Whether value is an int or float; numpy numbers count, bools do not."""
    return (not isinstance(value, bool)
            and isinstance(value, (int, float, np.integer, np.floating)))


def _require_finite(name: str, value, rule: str = "finite") -> float:
    """value as a float; DomainError unless it is a finite int or float."""
    try:
        x = float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int beyond the float range
        raise DomainError(f"{name} must be {rule}, got an integer beyond "
                          "the float range") from None
    if not math.isfinite(x):
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return x


def _require_positive(name: str, value) -> float:
    """value as a float; DomainError unless it is a positive finite number."""
    x = _require_finite(name, value, "positive and finite")
    if not x > 0:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return x


def _real_vector(name: str, values, n: int | None = None) -> np.ndarray:
    """values as a non-empty 1-D float array of n entries, if n is given.

    DomainError unless every entry passes _is_real: numpy reads a bool
    among numbers as a number, so a sequence is searched for bool types.
    Entries may be nan or inf (_finite_vector rejects them). A message names
    the first bad entry by its index, never the input itself.
    """
    rule = f"{name} must be a 1-D sequence of numbers"
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nesting
        raise DomainError(f"{rule}, got a ragged sequence") from None
    if arr.ndim != 1:
        raise DomainError(f"{rule}, got shape {arr.shape}")
    if arr.dtype.kind not in "iuf" or (
            not isinstance(values, np.ndarray)
            and not set(map(type, values)).isdisjoint((bool, np.bool_))):
        for k, v in enumerate(values):
            # numpy stores an int beyond 64 bits as an object
            if not _is_real(v) or np.asarray(v).dtype.kind not in "iuf":
                what = ("an integer beyond 64 bits" if _is_real(v)
                        else f"a {type(v).__name__}")
                raise DomainError(f"{rule}, got {what} at index {k} of "
                                  f"{arr.size}")
        raise DomainError(f"{rule}, got dtype {arr.dtype}")
    if n is not None and arr.size != n:
        raise DomainError(f"expected {n} {name}, got shape {arr.shape}")
    if arr.size == 0:
        raise DomainError(f"{name} must not be empty")
    return arr.astype(float, copy=False)


def _finite_vector(name: str, values, n: int | None = None) -> np.ndarray:
    """_real_vector(name, values, n); DomainError unless it is all finite."""
    arr = _real_vector(name, values, n)
    if not np.isfinite(arr).all():
        k = int(np.argmin(np.isfinite(arr)))
        raise DomainError(f"{name} must be finite, got {arr[k]} at index {k} "
                          f"of {arr.size}")
    return arr


def _count(name: str, value, least: int) -> int:
    """value as an int; DomainError unless it is an integer of at least least.

    numpy integers count, bools do not, as for the prosumer index.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise DomainError(f"{name} must be an integer of at least {least}, "
                          f"got {value!r}")
    return int(value)


# The exponential kernel, the only implementation of S and the shaded curve.
# Each function broadcasts q against per-prosumer rates r = beta/(5*d_min)
# and offsets exp(-beta/5): MarketConfig.rates/offsets for all prosumers at
# once, or one prosumer's scalars. L = (N-1)*d_min is the shading length.
# Exponents are clamped at +700, which is exact for q >= -3500*d_min/beta;
# with warn=True a SaturationWarning reports that the clamp engaged.

def _decay(r, q, warn: bool):
    """exp(-r*q) with the exponent clamped above at +700."""
    x = -r * np.asarray(q, dtype=float)
    clipped = np.minimum(x, _EXP_CLAMP)
    if warn and np.any(clipped != x):
        _warn_saturated(stacklevel=3)
    return np.exp(clipped)


def _utility(r, offset, q, warn: bool = True):
    """S(q) = exp(-beta/5) - exp(-r*q)."""
    return offset - _decay(r, q, warn)


def _marginal(r, q, warn: bool = True):
    """S'(q) = r*exp(-r*q)."""
    return r * _decay(r, q, warn)


def _curvature(r, q, warn: bool = True):
    """S''(q) = -r**2*exp(-r*q)."""
    return -r ** 2 * _decay(r, q, warn)


def _antideriv(r, offset, q, warn: bool = True):
    """A(q) = exp(-beta/5)*q + exp(-r*q)/r, an antiderivative of S."""
    return offset * q + _decay(r, q, warn) / r


def _shaded_utility(r, offset, L: float, d_min: float, q, warn: bool = True):
    """S_mod(q) = (1 + q/L)*S(q) - (A(q) - A(d_min))/L."""
    q = np.asarray(q, dtype=float)
    e = _decay(r, q, warn)
    integral = (offset * q + e / r) - _antideriv(r, offset, d_min, warn)
    return (1.0 + q / L) * (offset - e) - integral / L


def _shaded_marginal(r, L: float, q, warn: bool = True):
    """S_mod'(q) = (1 + q/L)*S'(q)."""
    return (1.0 + np.asarray(q, dtype=float) / L) * _marginal(r, q, warn)


def _shaded_curvature(r, L: float, q, warn: bool = True):
    """S_mod''(q) = (1 + q/L)*S''(q) + S'(q)/L; positive off the concave region."""
    q = np.asarray(q, dtype=float)
    e = _decay(r, q, warn)
    return (1.0 + q / L) * (-r ** 2 * e) + (r * e) / L


def _shading_length(n: int, d_min: float) -> float:
    if n < 2:
        raise DomainError(f"market size must be at least 2, got {n}")
    return (n - 1) * d_min


class MarketStack(NamedTuple):
    """The eta-independent terms of m markets that share n prosumers' betas.

    Row k holds market k: its d_min and s_max as (m, 1) columns, and every
    per-(market, prosumer) term as a C-contiguous (m, n) array, computed
    elementwise in the same operations for one market as for many. Every
    per-market sum is a numpy reduction along axis 1, which reduces each
    row exactly as it reduces that row alone, so a row of a stack equals
    the stack of its market alone. The bounds and the shading length are
    stored at full (m, n) shape, which numpy combines faster than a
    broadcast column. The non-concave prosumers (eq21 threshold
    above -s_max) are marked in non_concave. peak_marginal is every
    prosumer's largest shaded marginal on [-s_max, q_upper], at its eq21
    threshold clipped to that interval. log_switch is ln of the price above
    which a non-concave prosumer's shaded Lagrangian is highest at -s_max
    (see _log_switch), and +inf for a concave prosumer.
    """

    d_min: np.ndarray  # (m, 1)
    s_max: np.ndarray  # (m, 1)
    log_lengths: np.ndarray  # (m, 1), ln L
    log_price0: np.ndarray  # (m,), ln of the all-free competitive price
    q_lower: np.ndarray  # -s_max
    q_upper: np.ndarray  # (N-1)*s_max
    lengths: np.ndarray  # the shading length L = (N-1)*d_min
    rates: np.ndarray  # r = beta/(5*d_min)
    log_rates: np.ndarray  # ln r
    inv_rates: np.ndarray  # 1/r
    rate_lengths: np.ndarray  # r*L
    offsets: np.ndarray  # exp(-beta/5)
    thresholds: np.ndarray  # eq21 threshold 5*d_min/beta - L
    non_concave: np.ndarray  # threshold above -s_max
    peak_marginal: np.ndarray  # S_mod' at the threshold clipped to the bounds
    log_switch: np.ndarray  # ln of the price where -s_max takes over


def _saturates(st: MarketStack) -> bool:
    """Whether the exponent clamp engages at -s_max in any market of st.

    Every q a solve evaluates is at least -s_max, so the clamp engages in
    a search of st exactly when this holds.
    """
    return bool(np.max(st.rates * st.s_max) > _EXP_CLAMP)


def _log_switch(r, L, lo, hi):
    """ln of the price above which -s_max wins, per non-concave prosumer.

    Takes the non-concave prosumers' rates, shading lengths and bounds as
    flat arrays. Their shaded Lagrangian S_mod(q) - eta*q is highest at
    -s_max or at the falling root clipped to q_upper, and -s_max wins
    exactly above one price: the slope of the tangent to S_mod from
    (-s_max, S_mod(-s_max)) where it touches the falling branch. With
    u = r*(q + L), S_mod(q) = const - exp(-r*q)*(u + 1)/(r*L) and
    S_mod'(q) = u*exp(-r*q)/L, so the touching point solves phi(u) = phi(a),
    a = r*(L - s_max) < 1, where

        phi(u) = u - ln(u**2 + (1 - a)*u + 1),
        phi' = (u - 1)*(u - a)/(u**2 + (1 - a)*u + 1):

    phi falls to the eq21 threshold u = 1 and rises, convex, above it (a
    <= -1 puts S_mod(-s_max) above every other value: no touching point).
    In t = u - 1 and delta = 1 - a, phi(1 + t) - phi(1) = t - log1p(t) -
    log1p(t**2/((2 + delta)*(1 + t))) and phi(a) - phi(1) =
    2*atanh(delta/2) - delta, forms that keep their digits near the branch
    point, where phi is flat. The root takes four Newton steps from the
    branch-point estimate t = sqrt(2*(phi(a) - phi(1))*(2 + delta)/delta),
    always four, so that a market's result does not depend on its stack,
    and the switch is ln(u/L) + r*L - u; a root at t = 0 is the marginal's
    peak. Where the touching point lies beyond q_upper, the falling side is
    q_upper, which wins up to its chord slope from -s_max,
    (S_mod(q_upper) - S_mod(-s_max))/(q_upper + s_max), written with the
    factor exp(r*s_max) taken out and no constant term to cancel: -inf
    when the slope is not positive.
    """
    a = r * (L + lo)
    delta = 1.0 - a
    t_hi = r * (hi + L) - 1.0
    c = 2.0 + delta

    def rise(t, c):  # phi(1 + t) - phi(1), with c = 2 + delta
        return (t - np.log1p(t)) - np.log1p(t / (c * (1.0 + t)) * t)

    target = np.full(a.shape, np.inf)  # phi(a) - phi(1)
    touches = a > -1.0
    target[touches] = (2.0 * np.arctanh(0.5 * delta[touches])
                       - delta[touches])
    beyond = (t_hi <= 0.0) | (rise(t_hi, c) < target)
    newton = ~beyond & (target > 0.0)
    dn, cn, gn = delta[newton], c[newton], target[newton]
    t = np.minimum(np.sqrt(2.0 * gn * cn / dn), t_hi[newton])
    for _ in range(4):
        # from a start below the root the first step lands above it, and
        # the rest fall to it; halving at most keeps t > 0 where rounding
        # near the branch point would step past it
        step = ((rise(t, cn) - gn) * (cn * (1.0 + t) + t * t)
                / (t * (t + dn)))
        t = np.maximum(t - step, 0.5 * t)
    touch = np.zeros(a.shape)
    touch[newton] = t
    out = np.log1p(touch) + ((r * L - 1.0 - touch) - np.log(L))
    # the chord slope times exp(-r*s_max)*r*L*(q_upper + s_max), with
    # w = r*(q_upper + s_max): (1 + a) - exp(-w)*(1 + r*(q_upper + L))
    w = r * (hi - lo)
    chord = -(2.0 + t_hi) * np.expm1(-w) - w
    up = beyond & (chord > 0.0)
    out[beyond] = -np.inf
    out[up] = np.log(chord[up] / (w[up] * L[up])) - r[up] * lo[up]
    return out


def market_stack(betas, d_min, s_max) -> MarketStack:
    """Stack the eta-independent terms of the markets (betas, d_min[k], s_max[k]).

    d_min and s_max are sequences of one value per market.
    """
    b = np.asarray(betas, dtype=float)
    n = b.size
    d = np.asarray(d_min, dtype=float).reshape(-1, 1)
    s = np.asarray(s_max, dtype=float).reshape(-1, 1)
    rates = b / (5.0 * d)

    def full(column):
        return np.broadcast_to(column, rates.shape).copy()

    lo, hi = full(-s), full((n - 1) * s)
    L = full(_shading_length(n, d))
    log_rates = np.log(rates)
    inv_rates = 1.0 / rates
    offsets = full(np.exp(-b / 5.0))
    thresholds = 5.0 * d / b - (n - 1) * d
    nc = thresholds > lo
    # where the exponent clamp engages at a steep prosumer, the shaded
    # marginal's peak can exceed the float range: it then reads inf, above
    # every price. The shaded marginal rises below the eq21 threshold and
    # falls above it
    with np.errstate(over="ignore"):
        peak_marginal = _shaded_marginal(rates, L,
                                         np.clip(thresholds, lo, hi),
                                         warn=False)
    log_switch = np.full(rates.shape, np.inf)
    if np.count_nonzero(nc):
        log_switch[nc] = _log_switch(rates[nc], L[nc], lo[nc], hi[nc])
    # the all-free competitive price solves sum (ln r - ln eta)/r = 0
    log_price0 = ((log_rates * inv_rates).sum(axis=1)
                  / inv_rates.sum(axis=1))
    log_lengths = np.log(L[:, :1])
    return MarketStack(*map(_frozen, (
        d, s, log_lengths, log_price0, lo, hi, L, rates, log_rates,
        inv_rates, rates * L, offsets, thresholds, nc, peak_marginal,
        log_switch)))


class ExponentialUtility:
    """One prosumer's utility/cost curve.

    S(q) = exp(-beta/5) - exp(-beta*q/(5*d_min)): zero at d_min, strictly
    increasing and strictly concave, steeper for larger beta; read as a
    utility when positive and as a supply cost when negative. All methods
    accept scalars or numpy arrays and warn when the exponent clamp engages.
    """

    def __init__(self, beta: float, d_min: float):
        self.beta = _require_positive("beta", beta)
        self.d_min = _require_positive("d_min", d_min)
        # the same roundings as MarketConfig.rates and MarketConfig.offsets
        self._rate = self.beta / (5.0 * self.d_min)
        self._offset = float(np.exp(-self.beta / 5.0))

    def value(self, q):
        return _utility(self._rate, self._offset, q)

    def deriv(self, q):
        return _marginal(self._rate, q)

    def deriv2(self, q):
        return _curvature(self._rate, q)

    def antideriv(self, q):
        return _antideriv(self._rate, self._offset, q)


@dataclass(frozen=True)
class MarketConfig:
    """Full description of one market instance.

    n_prosumers >= 2 identical-envelope prosumers share inelastic demand
    d_min and supply capacity s_max (production capacity is s_max + d_min);
    betas are the per-prosumer utility steepness parameters. eps_price is
    the operator's positive-price margin (defaults to the scale-aware
    1e-9 * N * d_min), tol_root the balance/root tolerance and tol_kkt the
    stationarity-residual tolerance; neither tolerance may lie below the
    float resolution sys.float_info.epsilon.
    """

    n_prosumers: int
    d_min: float
    s_max: float
    betas: tuple[float, ...]
    eps_price: float | None = None
    tol_root: float = 1e-9
    tol_kkt: float = 1e-8

    def __post_init__(self):
        n = _count("n_prosumers", self.n_prosumers, 2)
        object.__setattr__(self, "n_prosumers", n)
        for name in ("d_min", "s_max"):
            object.__setattr__(self, name,
                               _require_positive(name, getattr(self, name)))
        betas = _real_vector("betas", self.betas, n)
        bad = ~(np.isfinite(betas) & (betas > 0))
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(f"betas[{k}] must be positive and finite, "
                              f"got {float(betas[k])}")
        object.__setattr__(self, "betas", tuple(betas.tolist()))
        if self.eps_price is None:
            object.__setattr__(self, "eps_price", 1e-9 * n * self.d_min)
        for name in ("eps_price", "tol_root", "tol_kkt"):
            object.__setattr__(self, name,
                               _require_positive(name, getattr(self, name)))
        for name in ("tol_root", "tol_kkt"):
            if getattr(self, name) < sys.float_info.epsilon:
                raise DomainError(
                    f"{name} must be at least the float resolution "
                    f"{sys.float_info.epsilon:g}, got {getattr(self, name)}")

    def utilities(self) -> tuple[ExponentialUtility, ...]:
        return tuple(ExponentialUtility(b, self.d_min) for b in self.betas)

    @cached_property
    def stack(self) -> MarketStack:
        """The eta-independent terms of this market as a stack of one."""
        return market_stack(self.betas, (self.d_min,), (self.s_max,))

    @cached_property
    def rates(self) -> np.ndarray:
        """Per-prosumer exponential rates r_i = beta_i / (5*d_min)."""
        return self.stack.rates[0]

    @cached_property
    def offsets(self) -> np.ndarray:
        """Per-prosumer constants exp(-beta_i/5), so that S_i(d_min) = 0."""
        return self.stack.offsets[0]

    @cached_property
    def concavity_thresholds(self) -> np.ndarray:
        """Per-prosumer eq21 threshold 5*d_min/beta_i - (N-1)*d_min.

        The shaded curve of prosumer i is concave exactly at and above it.
        """
        return self.stack.thresholds[0]

    @property
    def q_upper(self) -> float:
        # balance plus everyone else at capacity bounds any single net demand
        return (self.n_prosumers - 1) * self.s_max


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def quantity_from_bid(theta: float, price: float, d_min: float) -> float:
    """Net quantity committed by bid theta at a given price.

    q = d_min + theta/price for price > 0; the zero-price point is defined
    only for theta = 0, where q = d_min by convention.
    """
    d_min = _require_positive("d_min", d_min)
    theta = _require_finite("the bid", theta)
    price = _require_finite("price", price, "finite and >= 0")
    if price < 0:
        raise DomainError(f"price must be finite and >= 0, got {price!r}")
    if price == 0:
        if theta != 0:
            raise DomainError(
                "quantity is undefined at zero price for a nonzero bid")
        return d_min
    return d_min + theta / price


def clearing_price(thetas, d_min: float) -> float:
    """Uniform price balancing all committed net quantities.

    p = -(sum thetas) / (N * d_min); requires a 1-D profile of at least one
    number and sum thetas <= 0 (the operator rejects bid profiles violating
    it) and returns 0.0 for a zero sum.
    """
    d_min = _require_positive("d_min", d_min)
    t = _finite_vector("bids", thetas)
    total = float(t.sum())
    if total > 0:
        raise InvalidBids(
            f"bid sum must be <= 0 for a nonnegative price, got {total}")
    return 0.0 if total == 0 else -total / (t.size * d_min)


def modified_utility(spec: ExponentialUtility, n: int, q):
    """Utility/cost curve that strategic prosumers effectively maximize.

    S_mod(q) = (1 + q/((n-1)*d_min)) * S(q) - I(q)/((n-1)*d_min) with
    I(q) the integral of S from d_min to q. Both the q >= d_min and
    q < d_min readings of that integral agree, so the curve is a single
    smooth expression; it vanishes at q = d_min along with S.
    """
    L = _shading_length(n, spec.d_min)
    return _shaded_utility(spec._rate, spec._offset, L, spec.d_min, q)


def modified_utility_deriv(spec: ExponentialUtility, n: int, q):
    """d/dq of modified_utility: (1 + q/((n-1)*d_min)) * S'(q)."""
    return _shaded_marginal(spec._rate, _shading_length(n, spec.d_min), q)


def modified_utility_deriv2(spec: ExponentialUtility, n: int, q):
    """Second derivative of modified_utility; <= 0 exactly on the concave region."""
    return _shaded_curvature(spec._rate, _shading_length(n, spec.d_min), q)


@dataclass(frozen=True)
class Allocation:
    """Net quantities with the dual price and stationarity certificate.

    kkt_residuals[i] is max(0, marginal(q_i) - dual_price) for
    capacity-bound prosumers, max(0, dual_price - marginal(q_i)) for those
    within tol_root of q_upper, and |marginal(q_i) - dual_price| for the
    rest; at_capacity[i] marks q_i within tol_root of -s_max (within
    max(tol_root, 1e-7) for brute_force_program).
    """

    quantities: np.ndarray
    dual_price: float
    kkt_residuals: np.ndarray = field(default=None)
    at_capacity: np.ndarray = field(default=None)

    def __post_init__(self):
        q = np.asarray(self.quantities, dtype=float).copy()
        q.setflags(write=False)
        object.__setattr__(self, "quantities", q)
        for name in ("kkt_residuals", "at_capacity"):
            val = getattr(self, name)
            if val is not None:
                arr = np.asarray(val).copy()
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def balance_residual(self) -> float:
        return float(self.quantities.sum())
