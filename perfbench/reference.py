"""Reference solutions of the exponential prosumer market, written apart from
the program under test: nothing here imports ``prosumer_market``.

A market has N prosumers with common inelastic demand d and capacity s, and
per-prosumer steepness beta_i. With r_i = beta_i / (5 d):

    S_i(q)   = exp(-beta_i/5) - exp(-r_i q)          true curve
    S_i'(q)  = r_i exp(-r_i q)
    m_i(q)   = (1 + q/L) r_i exp(-r_i q),  L = (N-1) d   shaded marginal

Every prosumer's quantity lies in [-s, q_upper] with q_upper = (N-1) s.

* Competitive solve: q_i(eta) = clip(ln(r_i/eta)/r_i, -s, q_upper), and the
  balance sum_i q_i(eta) = 0 is a scalar root in ln eta.
* Nash solve (concave regime): with u = r_i (q + L), m_i(q) = eta reads
  u exp(-u) = z with z = eta L exp(-r_i L). The shaded curve is concave
  where u >= 1, and there q = -W_{-1}(-z)/r_i - L; the balance is again a
  scalar root in ln eta.
* ``shaded_argmax`` maximizes S_mod,i(q) - eta q over [-s, q_upper] without
  assuming concavity (endpoints and the W_{-1} stationary point), which is
  how a reported Nash price is checked outside the concave regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import lambertw

_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class Market:
    n: int
    d: float
    s: float
    betas: tuple

    @property
    def beta(self) -> np.ndarray:
        return np.asarray(self.betas, dtype=float)

    @property
    def r(self) -> np.ndarray:
        return self.beta / (5.0 * self.d)

    @property
    def L(self) -> float:
        return (self.n - 1) * self.d

    @property
    def q_upper(self) -> float:
        return (self.n - 1) * self.s

    @property
    def q_c(self) -> np.ndarray:
        """Per-prosumer onset of the shaded curve's concavity (eq21 threshold)."""
        return 5.0 * self.d / self.beta - self.L

    def concave(self) -> bool:
        """True when every shaded curve is concave on all of [-s, q_upper]."""
        return bool(np.all(self.q_c <= -self.s))


def utility(m: Market, q) -> np.ndarray:
    return np.exp(-m.beta / 5.0) - np.exp(-m.r * q)


def marginal(m: Market, q) -> np.ndarray:
    return m.r * np.exp(-m.r * q)


def shaded_marginal(m: Market, q) -> np.ndarray:
    return (1.0 + q / m.L) * m.r * np.exp(-m.r * q)


def shaded_utility(m: Market, q) -> np.ndarray:
    """(1 + q/L) S(q) - I(q)/L with I the integral of S from d to q."""
    a = np.exp(-m.beta / 5.0)
    integral = a * (q - m.d) + (np.exp(-m.r * q) - np.exp(-m.r * m.d)) / m.r
    return (1.0 + q / m.L) * utility(m, q) - integral / m.L


def welfare(m: Market, q) -> float:
    return float(np.sum(utility(m, np.asarray(q, dtype=float))))


def competitive_response(m: Market, eta: float) -> np.ndarray:
    return np.clip(np.log(m.r / eta) / m.r, -m.s, m.q_upper)


def _falling_root(m: Market, eta: float) -> np.ndarray:
    """Stationary point of S_mod - eta q on the concave branch (nan if none)."""
    log_z = math.log(eta) + math.log(m.L) - m.r * m.L
    z = np.exp(log_z)
    u = np.full(m.n, np.nan)
    ok = z <= _INV_E
    u[ok] = -lambertw(-z[ok], -1).real
    return u / m.r - m.L


def nash_response(m: Market, eta: float) -> np.ndarray:
    """Concave-regime maximizer of S_mod,i(q) - eta q, clipped to the bounds.

    Above the shaded curve's peak (z > 1/e) no stationary point exists and the
    curve falls faster than eta everywhere on the domain: q = -s.
    """
    q = _falling_root(m, eta)
    q = np.where(np.isnan(q), -m.s, q)
    return np.clip(q, -m.s, m.q_upper)


def shaded_argmax(m: Market, eta: float) -> np.ndarray:
    """Global maximizer of S_mod,i(q) - eta q on [-s, q_upper], any regime.

    The stationary point on the rising branch is a local minimum, so the
    candidates are the two bounds and the falling-branch root when it lies
    inside the domain. Ties go to the larger quantity.
    """
    lo = np.full(m.n, -m.s)
    hi = np.full(m.n, m.q_upper)
    root = _falling_root(m, eta)
    inside = ~np.isnan(root) & (root > -m.s) & (root < m.q_upper)
    cands = [lo, np.where(inside, root, lo), hi]
    vals = [shaded_utility(m, c) - eta * c for c in cands]
    best, best_val = cands[0], vals[0]
    for c, v in zip(cands[1:], vals[1:]):
        take = v >= best_val
        best = np.where(take, c, best)
        best_val = np.where(take, v, best_val)
    return best


def _balance(m: Market, response, marginal_fn) -> tuple[float, np.ndarray]:
    """Root in ln eta of sum_i response(eta)_i, bracketed from the marginals."""
    hi = float(np.max(marginal_fn(m, np.full(m.n, -m.s)))) * 2.0
    lo = float(np.min(marginal_fn(m, np.full(m.n, m.q_upper)))) * 0.5
    x = brentq(lambda x: float(np.sum(response(m, math.exp(x)))),
               math.log(lo), math.log(hi), xtol=1e-15, rtol=4 * np.finfo(float).eps,
               maxiter=500)
    eta = math.exp(x)
    return eta, response(m, eta)


def competitive(m: Market) -> tuple[float, np.ndarray]:
    """Competitive price and allocation."""
    return _balance(m, competitive_response, marginal)


def nash(m: Market) -> tuple[float, np.ndarray]:
    """Nash price and allocation; only defined here in the concave regime."""
    if not m.concave():
        raise ValueError("reference Nash solve needs the concave regime")
    return _balance(m, nash_response, shaded_marginal)


def kkt_violation(m: Market, q, eta: float, shaded: bool) -> float:
    """Largest relative breach of the stationarity conditions at (q, eta).

    Interior prosumers need marginal(q_i) = eta; one at -s may have a marginal
    below eta, one at q_upper a marginal above it.
    """
    q = np.asarray(q, dtype=float)
    mq = (shaded_marginal if shaded else marginal)(m, q)
    scale = 1e-9 * max(1.0, m.s)
    at_lo = np.abs(q + m.s) <= scale
    at_hi = np.abs(q - m.q_upper) <= scale
    rel = (mq - eta) / eta
    rel = np.where(at_lo, np.maximum(rel, 0.0), rel)
    rel = np.where(at_hi, np.minimum(rel, 0.0), rel)
    return float(np.max(np.abs(rel)))


def eq21_violations(m: Market, q) -> int:
    return int(np.count_nonzero(np.asarray(q, dtype=float) < m.q_c))


def relative_gap(a, b) -> float:
    """max |a - b| / max(1, |b|), elementwise over arrays or scalars."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))
