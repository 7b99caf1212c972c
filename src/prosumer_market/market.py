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
d_min. The shipped family is exponential,

    S(q) = exp(-beta/5) - exp(-beta*q/(5*d_min)),

and the module also provides the "modified" curve: the curve a strategic
(price-anticipating) prosumer effectively maximizes instead of S. For
market size n it is

    S_mod(q) = (1 + q/((n-1)*d_min)) * S(q)
               - (integral of S from d_min to q) / ((n-1)*d_min),

whose derivative collapses to (1 + q/((n-1)*d_min)) * S'(q).
"""

from __future__ import annotations

import abc
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import integrate

from .errors import DomainError, InvalidBids, SaturationWarning

# exp() overflows float64 near 710; clamp and warn instead of propagating inf
_EXP_CLAMP = 700.0

#: adaptive-quadrature tolerance for the integral fallback in modified_utility
QUAD_TOL = 1e-10


def _safe_exp(x):
    """exp(x) with the argument clamped above at +700.

    Emits a SaturationWarning when the clamp engages; large negative
    arguments need no guard (they underflow cleanly to 0). Accepts scalars
    or arrays; returns the same shape.
    """
    arr = np.asarray(x, dtype=float)
    clipped = np.minimum(arr, _EXP_CLAMP)
    if np.any(clipped != arr):
        _warn_saturated(stacklevel=3)
    out = np.exp(clipped)
    return out if arr.ndim else float(out)


def _warn_saturated(stacklevel: int) -> None:
    warnings.warn("utility exponent clamped to +700; value saturated",
                  SaturationWarning, stacklevel=stacklevel + 1)


class UtilitySpec(abc.ABC):
    """A prosumer's utility/cost curve.

    Contract: value(d_min) = 0, deriv > 0 everywhere (strictly increasing),
    deriv2 < 0 everywhere (strictly concave). value(q) is read as a utility
    when positive and as a production/prosumption cost when negative; the
    sign over (0, d_min) is conventionally negative but not enforced here.

    antideriv and deriv_inverse are optional accelerators: subclasses that
    cannot supply them in closed form may leave them unimplemented, and
    callers fall back to quadrature / bracketed root-finding.
    """

    def __init__(self, beta: float, d_min: float):
        if beta <= 0:
            raise DomainError(f"beta must be positive, got {beta}")
        if d_min <= 0:
            raise DomainError(f"d_min must be positive, got {d_min}")
        self.beta = float(beta)
        self.d_min = float(d_min)

    @abc.abstractmethod
    def value(self, q):
        """S(q); scalar or elementwise on arrays."""

    @abc.abstractmethod
    def deriv(self, q):
        """S'(q) > 0."""

    @abc.abstractmethod
    def deriv2(self, q):
        """S''(q) < 0."""

    def antideriv(self, q):
        """An exact antiderivative of value(), if available in closed form."""
        raise NotImplementedError

    def deriv_inverse(self, eta):
        """The unique q with deriv(q) = eta, if available in closed form."""
        raise NotImplementedError

    def has_antideriv(self) -> bool:
        try:
            self.antideriv(self.d_min)
        except NotImplementedError:
            return False
        return True

    def modified_concavity_threshold(self, n: int) -> float:
        """Left edge of the region where the modified curve is concave.

        Generic implementation: locate the sign change of the modified
        second derivative by expanding bisection (assumes a single
        crossing, which holds for curves whose -deriv/deriv2 is bounded).
        Returns -inf when no crossing is found below the expansion limit,
        i.e. the modified curve is concave on the whole probed range.
        """
        if n < 2:
            raise DomainError(f"market size must be at least 2, got {n}")

        def g(q):
            return modified_utility_deriv2(self, n, q)

        hi = self.d_min
        if g(hi) > 0:  # concave region starts above d_min; expand up
            while g(hi) > 0:
                hi = 2 * abs(hi) + 1.0
                if hi > 1e12:
                    raise DomainError("no concavity onset found below 1e12")
        lo = -(n - 1) * self.d_min  # marginal multiplier vanishes here; g > 0
        if g(lo) <= 0:
            return -math.inf
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-14 * max(1.0, abs(hi)):
                break
        return hi


class ExponentialUtility(UtilitySpec):
    """The shipped exponential utility/cost family.

    S(q) = exp(-beta/5) - exp(-beta*q/(5*d_min)); steeper for larger beta.
    All accessors accept scalars or numpy arrays. Exponent arguments are
    clamped at +-700, so values are exact for q >= -3500*d_min/beta (far
    below any reachable net supply: a market of N prosumers can never push
    one participant below -N*s_max at the scales used here).
    """

    def __init__(self, beta: float, d_min: float):
        super().__init__(beta, d_min)
        self._rate = self.beta / (5.0 * self.d_min)
        self._offset = math.exp(-self.beta / 5.0)

    def value(self, q):
        return self._offset - _safe_exp(-self._rate * np.asarray(q, float))

    def deriv(self, q):
        return self._rate * _safe_exp(-self._rate * np.asarray(q, float))

    def deriv2(self, q):
        return -self._rate ** 2 * _safe_exp(-self._rate * np.asarray(q, float))

    def antideriv(self, q):
        q = np.asarray(q, float)
        return self._offset * q + _safe_exp(-self._rate * q) / self._rate

    def deriv_inverse(self, eta):
        if eta <= 0:
            raise DomainError(f"marginal utility is positive; got eta={eta}")
        return -math.log(eta / self._rate) / self._rate

    def modified_concavity_threshold(self, n: int) -> float:
        if n < 2:
            raise DomainError(f"market size must be at least 2, got {n}")
        return 5.0 * self.d_min / self.beta - (n - 1) * self.d_min


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
        if not self.d_min > 0:
            raise DomainError(f"d_min must be positive, got {self.d_min}")
        if not self.s_max > 0:
            raise DomainError(f"s_max must be positive, got {self.s_max}")
        betas = tuple(float(b) for b in self.betas)
        if len(betas) != self.n_prosumers:
            raise DomainError(
                f"expected {self.n_prosumers} betas, got {len(betas)}")
        if any(not b > 0 for b in betas):
            raise DomainError("all betas must be positive")
        object.__setattr__(self, "betas", betas)
        if self.eps_price is None:
            object.__setattr__(
                self, "eps_price", 1e-9 * self.n_prosumers * self.d_min)
        if not self.eps_price > 0:
            raise DomainError(
                f"eps_price must be positive, got {self.eps_price}")
        if not self.tol_root > 0 or not self.tol_kkt > 0:
            raise DomainError("tolerances must be positive")

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


def utility_value(spec: UtilitySpec, q):
    """S(q): utility of net consumption (positive) or cost of supply (negative)."""
    return spec.value(q)


def utility_deriv(spec: UtilitySpec, q):
    """S'(q), strictly positive."""
    return spec.deriv(q)


def _modified_weight(n: int, d_min: float, q):
    return 1.0 + np.asarray(q, float) / ((n - 1) * d_min)


def modified_utility(spec: UtilitySpec, n: int, q, method: str = "auto"):
    """Utility/cost curve that strategic prosumers effectively maximize.

    S_mod(q) = (1 + q/((n-1)*d_min)) * S(q) - I(q)/((n-1)*d_min) with
    I(q) the integral of S from d_min to q. Both the q >= d_min and
    q < d_min readings of that integral agree, so the curve is a single
    smooth expression; it vanishes at q = d_min along with S.

    method: "auto" uses the spec's exact antiderivative when available,
    "antideriv" requires it, "quadrature" forces the adaptive-quadrature
    fallback (tolerance QUAD_TOL) kept for utility families without a
    closed-form antiderivative.
    """
    if n < 2:
        raise DomainError(f"market size must be at least 2, got {n}")
    if method not in ("auto", "antideriv", "quadrature"):
        raise DomainError(f"unknown method {method!r}")
    L = (n - 1) * spec.d_min
    use_antideriv = method == "antideriv" or (
        method == "auto" and spec.has_antideriv())
    if use_antideriv:
        integral = spec.antideriv(q) - spec.antideriv(spec.d_min)
    else:
        def one(x):
            val, _ = integrate.quad(
                spec.value, spec.d_min, x, epsabs=QUAD_TOL, epsrel=QUAD_TOL)
            return val
        q_arr = np.asarray(q, float)
        integral = (np.array([one(x) for x in np.atleast_1d(q_arr)])
                    .reshape(q_arr.shape) if q_arr.ndim else one(float(q_arr)))
    return _modified_weight(n, spec.d_min, q) * spec.value(q) - integral / L


def modified_utility_deriv(spec: UtilitySpec, n: int, q):
    """d/dq of modified_utility: (1 + q/((n-1)*d_min)) * S'(q)."""
    if n < 2:
        raise DomainError(f"market size must be at least 2, got {n}")
    return _modified_weight(n, spec.d_min, q) * spec.deriv(q)


def modified_utility_deriv2(spec: UtilitySpec, n: int, q):
    """Second derivative of modified_utility; <= 0 exactly on the concave region."""
    if n < 2:
        raise DomainError(f"market size must be at least 2, got {n}")
    L = (n - 1) * spec.d_min
    return _modified_weight(n, spec.d_min, q) * spec.deriv2(q) + spec.deriv(q) / L


@dataclass(frozen=True)
class BidProfile:
    """A bid vector with its induced clearing price and net quantities."""

    thetas: np.ndarray
    price: float
    quantities: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thetas, dtype=float).copy()
        q = np.asarray(self.quantities, dtype=float).copy()
        t.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "thetas", t)
        object.__setattr__(self, "quantities", q)

    @classmethod
    def from_thetas(cls, thetas, d_min: float) -> "BidProfile":
        price = clearing_price(thetas, d_min)
        quantities = np.array(
            [quantity_from_bid(t, price, d_min) for t in np.asarray(thetas, float)])
        return cls(np.asarray(thetas, float), price, quantities)


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
