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


class NonConcaveTerms(NamedTuple):
    """The eta-independent terms of the non-concave shaded inversion.

    mask marks the prosumers whose shaded curve is not concave on
    [-s_max, q_upper] (eq21 threshold above -s_max); every other field holds
    their entries only.
    """

    mask: np.ndarray
    rates: np.ndarray
    offsets: np.ndarray
    antideriv_dmin: np.ndarray  # A(d_min)
    utility_lo: np.ndarray  # S_mod(-s_max)
    peak_marginal: np.ndarray  # S_mod' at the threshold clipped to q_upper


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
    stationarity-residual tolerance.
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
        betas = tuple(float(b) for b in self.betas)
        if len(betas) != self.n_prosumers:
            raise DomainError(
                f"expected {self.n_prosumers} betas, got {len(betas)}")
        for b in betas:
            _require_positive("beta", b)
        object.__setattr__(self, "betas", betas)
        if self.eps_price is None:
            object.__setattr__(
                self, "eps_price", 1e-9 * self.n_prosumers * self.d_min)
        for name in ("eps_price", "tol_root", "tol_kkt"):
            _require_positive(name, getattr(self, name))

    def utilities(self) -> tuple[ExponentialUtility, ...]:
        return tuple(ExponentialUtility(b, self.d_min) for b in self.betas)

    @cached_property
    def rates(self) -> np.ndarray:
        """Per-prosumer exponential rates r_i = beta_i / (5*d_min)."""
        return _frozen(np.asarray(self.betas) / (5.0 * self.d_min))

    @cached_property
    def offsets(self) -> np.ndarray:
        """Per-prosumer constants exp(-beta_i/5), so that S_i(d_min) = 0."""
        return _frozen(np.exp(-np.asarray(self.betas) / 5.0))

    @cached_property
    def concavity_thresholds(self) -> np.ndarray:
        """Per-prosumer eq21 threshold 5*d_min/beta_i - (N-1)*d_min.

        The shaded curve of prosumer i is concave exactly at and above it.
        """
        return _frozen(5.0 * self.d_min / np.asarray(self.betas)
                       - (self.n_prosumers - 1) * self.d_min)

    @cached_property
    def log_rates(self) -> np.ndarray:
        """Per-prosumer ln r_i."""
        return _frozen(np.log(self.rates))

    @cached_property
    def rate_lengths(self) -> np.ndarray:
        """Per-prosumer r_i*L, the rate times the shading length (N-1)*d_min."""
        return _frozen(
            self.rates * _shading_length(self.n_prosumers, self.d_min))

    @cached_property
    def non_concave_terms(self) -> NonConcaveTerms:
        """The shaded inversion's eta-independent terms, non-concave prosumers."""
        lo = -self.s_max
        mask = _frozen(self.concavity_thresholds > lo)
        r, offset = self.rates[mask], self.offsets[mask]
        L = _shading_length(self.n_prosumers, self.d_min)
        a_dmin = _antideriv(r, offset, self.d_min, warn=False)
        peak = np.minimum(self.concavity_thresholds[mask], self.q_upper)
        return NonConcaveTerms(
            mask, _frozen(r), _frozen(offset), _frozen(a_dmin),
            _frozen(_shaded_utility(r, offset, L, self.d_min, lo, warn=False,
                                    antideriv_dmin=a_dmin)),
            _frozen(_shaded_marginal(r, L, peak, warn=False)))

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

    p = -(sum thetas) / (N * d_min); requires sum thetas <= 0 (the operator
    rejects bid profiles violating it) and returns 0 for the all-zero
    profile.
    """
    if d_min <= 0:
        raise DomainError(f"d_min must be positive, got {d_min}")
    t = np.asarray(thetas, dtype=float)
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
