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


def _require_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {value}")


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


def _shaded_utility(r, offset, L: float, d_min: float, q, warn: bool = True,
                    antideriv_dmin=None):
    """S_mod(q) = (1 + q/L)*S(q) - (A(q) - A(d_min))/L.

    antideriv_dmin, when given, is A(d_min) computed once for r and offset.
    """
    q = np.asarray(q, dtype=float)
    e = _decay(r, q, warn)
    if antideriv_dmin is None:
        antideriv_dmin = _antideriv(r, offset, d_min, warn)
    integral = (offset * q + e / r) - antideriv_dmin
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
    above -s_max) are marked in non_concave; utility_lo is their term and
    holds no meaning for the others. peak_marginal is every prosumer's
    largest shaded marginal on [-s_max, q_upper], at its eq21 threshold
    clipped to that interval.
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
    antideriv_dmin: np.ndarray  # A(d_min)
    utility_lo: np.ndarray  # S_mod(-s_max)
    peak_marginal: np.ndarray  # S_mod' at the threshold clipped to the bounds


def _saturates(st: MarketStack) -> bool:
    """Whether the exponent clamp engages at -s_max in any market of st.

    Every q a solve evaluates is at least -s_max, so the clamp engages in
    a search of st exactly when this holds.
    """
    return bool(np.max(st.rates * st.s_max) > _EXP_CLAMP)


def market_stack(betas, d_min, s_max) -> MarketStack:
    """Stack the eta-independent terms of the markets (betas, d_min[k], s_max[k]).

    d_min and s_max are sequences of one value per market. utility_lo is
    evaluated at q_upper for the concave prosumers, where every exponent is
    small, so that it does not overflow.
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
    a_dmin = _antideriv(rates, offsets, d, warn=False)
    # where the exponent clamp engages at a steep prosumer, S_mod(-s_max)
    # and the shaded marginal's peak can exceed the float range: the peak
    # then reads inf, above every price. The shaded marginal rises below
    # the eq21 threshold and falls above it
    with np.errstate(over="ignore"):
        utility_lo = _shaded_utility(rates, offsets, L, d,
                                     np.where(nc, lo, hi), warn=False,
                                     antideriv_dmin=a_dmin)
        peak_marginal = _shaded_marginal(rates, L,
                                         np.clip(thresholds, lo, hi),
                                         warn=False)
    # the all-free competitive price solves sum (ln r - ln eta)/r = 0
    log_price0 = ((log_rates * inv_rates).sum(axis=1)
                  / inv_rates.sum(axis=1))
    log_lengths = np.log(L[:, :1])
    return MarketStack(*map(_frozen, (
        d, s, log_lengths, log_price0, lo, hi, L, rates, log_rates,
        inv_rates, rates * L, offsets, thresholds, nc, a_dmin, utility_lo,
        peak_marginal)))


class ExponentialUtility:
    """One prosumer's utility/cost curve.

    S(q) = exp(-beta/5) - exp(-beta*q/(5*d_min)): zero at d_min, strictly
    increasing and strictly concave, steeper for larger beta; read as a
    utility when positive and as a supply cost when negative. All methods
    accept scalars or numpy arrays and warn when the exponent clamp engages.
    """

    def __init__(self, beta: float, d_min: float):
        _require_positive("beta", beta)
        _require_positive("d_min", d_min)
        self.beta = float(beta)
        self.d_min = float(d_min)
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
        if self.n_prosumers < 2:
            raise DomainError(
                f"need at least 2 prosumers, got {self.n_prosumers}")
        _require_positive("d_min", self.d_min)
        _require_positive("s_max", self.s_max)
        betas = np.asarray(self.betas, dtype=float)
        if betas.shape != (self.n_prosumers,):
            raise DomainError(
                f"expected {self.n_prosumers} betas, got shape {betas.shape}")
        bad = ~(np.isfinite(betas) & (betas > 0))
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(f"betas[{k}] must be positive and finite, "
                              f"got {float(betas[k])}")
        object.__setattr__(self, "betas", tuple(betas.tolist()))
        if self.eps_price is None:
            object.__setattr__(
                self, "eps_price", 1e-9 * self.n_prosumers * self.d_min)
        for name in ("eps_price", "tol_root", "tol_kkt"):
            _require_positive(name, getattr(self, name))
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
    if d_min <= 0:
        raise DomainError(f"d_min must be positive, got {d_min}")
    if price < 0:
        raise DomainError(f"price must be nonnegative, got {price}")
    if price == 0:
        if theta != 0:
            raise DomainError(
                "quantity is undefined at zero price for a nonzero bid")
        return d_min
    return d_min + theta / price


def clearing_price(thetas, d_min: float) -> float:
    """Uniform price balancing all committed net quantities.

    p = -(sum thetas) / (N * d_min); requires at least one bid and
    sum thetas <= 0 (the operator rejects bid profiles violating it) and
    returns 0 for the all-zero profile.
    """
    if d_min <= 0:
        raise DomainError(f"d_min must be positive, got {d_min}")
    t = np.asarray(thetas, dtype=float)
    if t.size == 0:
        raise DomainError("the bid profile is empty")
    total = float(t.sum())
    if total > 0:
        raise InvalidBids(
            f"bid sum must be <= 0 for a nonnegative price, got {total}")
    return -total / (t.size * d_min)


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

    kkt_residuals[i] is |marginal(q_i) - dual_price| for interior prosumers
    and max(0, marginal(q_i) - dual_price) for capacity-bound ones;
    at_capacity[i] marks |q_i + s_max| within the balance tolerance.
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
