"""Existence and uniqueness condition checks for a candidate equilibrium.

Each check takes a solved (or proposed) bid profile / allocation and
reports a per-prosumer boolean vector. The library's condition identifiers,
used consistently here, in reports and in the sweep CSVs:

  lemma1  for every prosumer i, the other bids sum negative:
          sum_{j != i} theta_j < 0. Profiles violating it (including the
          all-zero profile) cannot be strategic equilibria: a prosumer
          facing a nonnegative rival sum can grow its payoff without bound.
  eq15    the bid-interval condition. Its left bound keeps prosumer i's
          payoff concave in its own bid,
             theta_i >= -(sum_{j!=i} theta_j) * (N*d_min/2 * S''/S' + 1),
          and its right bound keeps the clearing price positive,
             theta_i <= -(sum_{j!=i} theta_j) - eps.
  eq18    the uniqueness threshold on the allocation:
             q_i >= -(N-1)*d_min - S'(q_i)/S''(q_i),
          exactly the region where the shaded (modified) curve is concave.
  eq21    eq18 specialized to the exponential family, where S'/S'' is the
          constant -5*d_min/beta:
             q_i >= 5*d_min/beta_i - d_min*(N-1).
  eq36    the same concavity statement evaluated from the second-derivative
          side: modified_utility_deriv2(q_i) <= 0.

For the exponential family S'/S'' = -5*d_min/beta, so eq18, eq21 and eq36
are all the inequality q_i >= 5*d_min/beta_i - (N-1)*d_min, and all three
compare q against that one threshold vector; they cannot disagree at it.

All checks are pure and evaluated pointwise at the candidate, not over the
whole strategy space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .market import MarketConfig, _curvature, _marginal


@dataclass(frozen=True)
class ConditionReport:
    """Per-prosumer outcome of every condition check, plus the conjunction."""

    lemma1_ok: np.ndarray
    eq15_ok: np.ndarray
    eq18_ok: np.ndarray
    eq21_ok: np.ndarray
    eq36_ok: np.ndarray
    all_ok: bool

    def __post_init__(self):
        for name in ("lemma1_ok", "eq15_ok", "eq18_ok", "eq21_ok", "eq36_ok"):
            arr = np.asarray(getattr(self, name), dtype=bool).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def counts(self) -> dict[str, int]:
        return {
            "lemma1": int(self.lemma1_ok.sum()),
            "eq15": int(self.eq15_ok.sum()),
            "eq18": int(self.eq18_ok.sum()),
            "eq21": int(self.eq21_ok.sum()),
            "eq36": int(self.eq36_ok.sum()),
        }


def _rival_sums(thetas: np.ndarray) -> np.ndarray:
    return thetas.sum() - thetas


def check_lemma1(thetas) -> np.ndarray:
    """True for prosumer i iff the other bids sum strictly negative.

    The all-zero profile reports all-false, as does any profile where some
    prosumer faces a nonnegative rival sum.
    """
    t = np.asarray(thetas, dtype=float)
    return _rival_sums(t) < 0


def eq15_bounds(thetas, config: MarketConfig,
                quantities) -> tuple[np.ndarray, np.ndarray]:
    """Per-prosumer (lower, upper) bid bounds of the eq15 interval.

    Lower bound: payoff concavity in the own bid; upper bound: positive
    clearing price with margin eps_price. Quantities must be the net
    positions induced by the bids at the clearing price.
    """
    t = np.asarray(thetas, dtype=float)
    q = np.asarray(quantities, dtype=float)
    rivals = _rival_sums(t)
    r = config.rates
    if np.any(_marginal(r, q) == 0):
        raise DomainError("marginal utility vanished; ratio S''/S' undefined")
    # S''/S' = -r for the exponential family
    lower = -rivals * (config.n_prosumers * config.d_min / 2.0 * -r + 1.0)
    upper = -rivals - config.eps_price
    return lower, upper


def check_eq15(thetas, config: MarketConfig, quantities) -> np.ndarray:
    """True for prosumer i iff its bid lies inside the eq15 interval."""
    t = np.asarray(thetas, dtype=float)
    lower, upper = eq15_bounds(t, config, quantities)
    return (lower <= t) & (t <= upper)


def check_eq18(quantities, config: MarketConfig) -> np.ndarray:
    """Uniqueness threshold q >= -(N-1)*d_min - S'(q)/S''(q) at each point.

    For this family the right side is the eq21 threshold vector; S'' is
    evaluated only to reject points where it has vanished.
    """
    q = np.asarray(quantities, dtype=float)
    if np.any(_curvature(config.rates, q) == 0):
        raise DomainError("second derivative vanished; threshold undefined")
    return q >= config.concavity_thresholds


def check_eq21(quantities, config: MarketConfig) -> np.ndarray:
    """Closed-form uniqueness threshold for the exponential utility family.

    q_i >= 5*d_min/beta_i - d_min*(N-1); coincides pointwise with check_eq18
    for this family.
    """
    return np.asarray(quantities, dtype=float) >= config.concavity_thresholds


def check_eq36(quantities, config: MarketConfig) -> np.ndarray:
    """Concavity of the shaded curve at each point: second derivative <= 0.

    The shaded second derivative is (r*exp(-r*q)/L) * (1 - r*(q + L)), which
    is <= 0 exactly at and above the eq21 threshold.
    """
    return np.asarray(quantities, dtype=float) >= config.concavity_thresholds


def evaluate_conditions(config: MarketConfig, thetas,
                        quantities) -> ConditionReport:
    """Run every check on one candidate equilibrium and bundle the report."""
    lemma1 = check_lemma1(thetas)
    eq15 = check_eq15(thetas, config, quantities)
    eq18 = check_eq18(quantities, config)
    eq21 = check_eq21(quantities, config)
    eq36 = check_eq36(quantities, config)
    all_ok = bool(np.all(lemma1) and np.all(eq15) and np.all(eq18)
                  and np.all(eq21) and np.all(eq36))
    return ConditionReport(lemma1, eq15, eq18, eq21, eq36, all_ok)
