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
          For the exponential family S''/S' is the constant -r_i, so the
          bounds depend on the bids alone.
  eq21    the uniqueness threshold on the allocation,
             q_i >= 5*d_min/beta_i - d_min*(N-1),
          exactly the region where the shaded (modified) curve is concave.
  eq18    the general form q_i >= -(N-1)*d_min - S'(q_i)/S''(q_i). For the
          exponential family S'/S'' is the constant -5*d_min/beta_i, so
          eq18 is eq21.
  eq36    the same concavity read from the shaded second derivative,
          (r*exp(-r*q)/L) * (1 - r*(q + L)) <= 0, which holds exactly at
          and above the eq21 threshold.

_eq21_ok is the one threshold comparison: check_eq21 and the solver's
non-concave prosumers apply it to one market, the sweep rows to a stack of
markets. Reports carry eq18 and eq36 under their own names, read from the
eq21 flags.

All checks are pure and evaluated pointwise at the candidate, not over the
whole strategy space. They take bids and quantities by the type and shape
rule of market._real_vector, nan and inf included, which they report as
flags: a solver's own output may overflow, and a check must not raise on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import MarketConfig, _real_vector


@dataclass(frozen=True)
class ConditionReport:
    """Per-prosumer outcome of every condition check, plus the conjunction.

    eq18 and eq36 are the eq21 threshold for this utility family, so their
    flags are the eq21 flags.
    """

    lemma1_ok: np.ndarray
    eq15_ok: np.ndarray
    eq21_ok: np.ndarray
    all_ok: bool

    def __post_init__(self):
        for name in ("lemma1_ok", "eq15_ok", "eq21_ok"):
            arr = np.asarray(getattr(self, name), dtype=bool).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def eq18_ok(self) -> np.ndarray:
        return self.eq21_ok

    @property
    def eq36_ok(self) -> np.ndarray:
        return self.eq21_ok

    def counts(self) -> dict[str, int]:
        return {name: int(getattr(self, f"{name}_ok").sum())
                for name in ("lemma1", "eq15", "eq18", "eq21", "eq36")}


def _rival_sums(thetas: np.ndarray) -> np.ndarray:
    return thetas.sum() - thetas


def check_lemma1(thetas) -> np.ndarray:
    """True for prosumer i iff the other bids sum strictly negative.

    The all-zero profile reports all-false, as does any profile where some
    prosumer faces a nonnegative rival sum.
    """
    return _rival_sums(_real_vector("bids", thetas)) < 0


def eq15_bounds(thetas,
                config: MarketConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-prosumer (lower, upper) bid bounds of the eq15 interval.

    Lower bound: payoff concavity in the own bid; upper bound: positive
    clearing price with margin eps_price.
    """
    rivals = _rival_sums(_real_vector("bids", thetas, config.n_prosumers))
    # S''/S' = -r for the exponential family, so the left end is
    # rivals * (N*d_min/2 * r - 1)
    lower = rivals * (config.n_prosumers * config.d_min / 2.0 * config.rates
                      - 1.0)
    upper = -rivals - config.eps_price
    return lower, upper


def check_eq15(thetas, config: MarketConfig) -> np.ndarray:
    """True for prosumer i iff its bid lies inside the eq15 interval."""
    t = _real_vector("bids", thetas, config.n_prosumers)
    lower, upper = eq15_bounds(t, config)
    return (lower <= t) & (t <= upper)


def _eq21_ok(quantities: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Elementwise q_i >= eq21 threshold_i.

    Takes one market's quantities and MarketConfig.concavity_thresholds,
    or a stack's (m, n) quantities and MarketStack.thresholds.
    """
    return quantities >= thresholds


def check_eq21(quantities, config: MarketConfig) -> np.ndarray:
    """Uniqueness threshold q_i >= 5*d_min/beta_i - d_min*(N-1) at each point."""
    return _eq21_ok(_real_vector("quantities", quantities, config.n_prosumers),
                    config.concavity_thresholds)


def evaluate_conditions(config: MarketConfig, thetas,
                        quantities) -> ConditionReport:
    """Run every check on one candidate equilibrium and bundle the report."""
    lemma1 = check_lemma1(thetas)
    eq15 = check_eq15(thetas, config)
    eq21 = check_eq21(quantities, config)
    all_ok = bool(lemma1.all() and eq15.all() and eq21.all())
    return ConditionReport(lemma1, eq15, eq21, all_ok)
