"""Sweep experiments, welfare-loss tabulation and file I/O.

The two case-study experiment families vary one market parameter while
fixing the rest: the per-prosumer supply capacity s_max, or the
per-prosumer inelastic demand d_min. Each sweep point is what
equilibrium_report gives at it: both welfare programs solved, the true
welfare of both allocations and the eq21 violations at the strategic
allocation, one CSV line. A sweep solves all its points of one program in
one lockstep search over the stacked markets (solver._solve_stack).

Four canonical 11-prosumer panels ship with the package:

  capacity_bounded    d_min=4, beta_i = 2.0..3.0, s_max from 0.1 to 3;
                      conditions hold everywhere, loss stays bounded.
  capacity_unbounded  d_min=1, beta_i = 0.6..1.6, s_max from 0.1 to 4.5;
                      eq21 eventually fails and the loss keeps growing.
  demand_bounded      s_max=0.7, beta_i = 2.0..3.0, d_min from 5 down to
                      0.7; conditions hold everywhere.
  demand_unbounded    s_max=3, beta_i = 0.6..1.6, d_min from 5 down to
                      0.7; eq21 eventually fails as demand shrinks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .conditions import ConditionReport, _eq21_ok, evaluate_conditions
from .errors import ConfigError, DomainError
from .market import (MarketConfig, MarketStack, _count, _require_positive,
                     _saturates, _warn_saturated, market_stack)
from .solver import (MODE_MODIFIED, MODE_TRUE, SolveResult, _solve_stack,
                     _welfares, solve_dual)

VARIABLE_CAPACITY = "s_max"
VARIABLE_DEMAND = "d_min"
SWEEP_VARIABLES = (VARIABLE_CAPACITY, VARIABLE_DEMAND)

CSV_HEADER = ("param_value,total_param,welfare_competitive,welfare_nash,"
              "welfare_loss,eq21_violations,non_concave_flag,"
              "price_competitive,price_nash")

PANELS = ("capacity_bounded", "capacity_unbounded",
          "demand_bounded", "demand_unbounded")

# a sweep point is a paired solve; the case study uses 30 points per panel
MAX_SWEEP_STEPS = 100_000
# prosumer entries (points x prosumers) per stacked search of a sweep, which
# bounds its memory at about 17 arrays of this many floats
_STACK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class SweepSpec:
    """One parameter sweep: which variable, its range, and the base market.

    Swept configs inherit n_prosumers, betas and the root/stationarity
    tolerances from base_config; eps_price is re-derived per point so it
    tracks the market scale across d_min sweeps.
    """

    variable: str
    start: float
    stop: float
    steps: int
    base_config: MarketConfig

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise DomainError(
                f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        object.__setattr__(self, "steps", _count("steps", self.steps, 2))
        if self.steps > MAX_SWEEP_STEPS:
            raise DomainError(
                f"steps must be at most {MAX_SWEEP_STEPS}, got {self.steps}")
        for name in ("start", "stop"):
            object.__setattr__(self, name,
                               _require_positive(name, getattr(self, name)))
        if self.start == self.stop:
            raise DomainError("start and stop must differ")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def config_at(self, value: float) -> MarketConfig:
        base = self.base_config
        d_min = value if self.variable == VARIABLE_DEMAND else base.d_min
        s_max = value if self.variable == VARIABLE_CAPACITY else base.s_max
        return MarketConfig(
            n_prosumers=base.n_prosumers,
            d_min=d_min,
            s_max=s_max,
            betas=base.betas,
            tol_root=base.tol_root,
            tol_kkt=base.tol_kkt,
        )


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: welfares, loss, condition flags and prices."""

    param_value: float
    total_param: float
    welfare_competitive: float
    welfare_nash: float
    welfare_loss: float
    eq21_violations: int
    non_concave_flag: bool
    price_competitive: float
    price_nash: float
    error: str | None = None


@dataclass(frozen=True)
class EquilibriumReport:
    """Paired competitive/strategic solutions for one market instance."""

    config: MarketConfig
    competitive: SolveResult
    nash: SolveResult
    conditions: ConditionReport
    welfare_loss: float


def equilibrium_report(config: MarketConfig) -> EquilibriumReport:
    """Solve both programs and check every condition at the strategic point."""
    competitive = solve_dual(config, MODE_TRUE)
    nash = solve_dual(config, MODE_MODIFIED)
    conditions = evaluate_conditions(
        config, nash.thetas, nash.allocation.quantities)
    return EquilibriumReport(
        config=config,
        competitive=competitive,
        nash=nash,
        conditions=conditions,
        welfare_loss=competitive.welfare_true - nash.welfare_true,
    )


def _sweep_stack(spec: SweepSpec, values: np.ndarray) -> MarketStack:
    """The eta-independent terms of the sweep points at values, one row each."""
    base = spec.base_config
    if spec.variable == VARIABLE_CAPACITY:
        return market_stack(base.betas, np.full(values.size, base.d_min),
                            values)
    return market_stack(base.betas, values, np.full(values.size, base.s_max))


def _sweep_rows(spec: SweepSpec, values: np.ndarray, st: MarketStack,
                competitive, nash) -> list[SweepRow]:
    """One row per sweep point from the stacked solves of both programs.

    The welfares and eq21 flags come from the stacked forms of
    solver.welfare and conditions.check_eq21; a point is non-concave
    exactly when it violates eq21, as solve_dual reads it. A point whose
    solve failed gets the failure's message and nan values.
    """
    welfare_c = _welfares(st, competitive.quantities).tolist()
    welfare_n = _welfares(st, nash.quantities).tolist()
    violations = np.count_nonzero(~_eq21_ok(nash.quantities, st.thresholds),
                                  axis=1).tolist()
    n, nan, rows = spec.base_config.n_prosumers, float("nan"), []
    for k, value in enumerate(values.tolist()):
        error = competitive.errors[k] or nash.errors[k]
        if error is not None:
            rows.append(SweepRow(value, n * value, nan, nan, nan, 0, False,
                                 nan, nan, error=error))
            continue
        rows.append(SweepRow(
            param_value=value,
            total_param=n * value,
            welfare_competitive=welfare_c[k],
            welfare_nash=welfare_n[k],
            welfare_loss=welfare_c[k] - welfare_n[k],
            eq21_violations=violations[k],
            non_concave_flag=violations[k] > 0,
            price_competitive=competitive.prices[k],
            price_nash=nash.prices[k],
        ))
    return rows


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every sweep point; rows follow the parameter order start->stop.

    The points are solved in stacks of at most _STACK_ELEMENTS prosumer
    entries (the whole case study is one stack per panel), each program of a
    stack in one lockstep search; each row equals the one built from
    equilibrium_report at its point. A BracketFailure marks its row with the
    error message instead of aborting the sweep. Emits one SaturationWarning
    when the exponent clamp engages at any point.
    """
    values = spec.values()
    block = max(1, _STACK_ELEMENTS // spec.base_config.n_prosumers)
    rows, saturated = [], False
    for start in range(0, values.size, block):
        chunk = values[start:start + block]
        st = _sweep_stack(spec, chunk)
        saturated = saturated or _saturates(st)
        rows += _sweep_rows(spec, chunk, st, _solve_stack(st, MODE_TRUE),
                            _solve_stack(st, MODE_MODIFIED))
    if saturated:
        _warn_saturated(stacklevel=2)
    return rows


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write sweep rows as UTF-8 CSV: fixed header, 12-digit reals, 0/1 bools."""
    if not rows:
        raise DomainError("refusing to write an empty sweep CSV")
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            _fmt(r.param_value),
            _fmt(r.total_param),
            _fmt(r.welfare_competitive),
            _fmt(r.welfare_nash),
            _fmt(r.welfare_loss),
            str(int(r.eq21_violations)),
            str(int(r.non_concave_flag)),
            _fmt(r.price_competitive),
            _fmt(r.price_nash),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_gnuplot(rows: list[SweepRow], path) -> None:
    """Two-column (total parameter, welfare loss) export for gnuplot."""
    if not rows:
        raise DomainError("refusing to write an empty export")
    lines = ["# total_param welfare_loss"]
    lines += [f"{_fmt(r.total_param)} {_fmt(r.welfare_loss)}" for r in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _case_study_betas(kind: str) -> tuple[float, ...]:
    if kind == "high":
        return tuple((19 + i) / 10 for i in range(1, 12))  # 2.0 .. 3.0
    return tuple((5 + i) / 10 for i in range(1, 12))       # 0.6 .. 1.6


def case_study_spec(panel: str, steps: int = 30) -> SweepSpec:
    """Canonical sweep definition for one of the four shipped panels."""
    if panel == "capacity_bounded":
        base = MarketConfig(11, d_min=4.0, s_max=3.0,
                            betas=_case_study_betas("high"))
        return SweepSpec(VARIABLE_CAPACITY, 0.1, 3.0, steps, base)
    if panel == "capacity_unbounded":
        base = MarketConfig(11, d_min=1.0, s_max=4.5,
                            betas=_case_study_betas("low"))
        return SweepSpec(VARIABLE_CAPACITY, 0.1, 4.5, steps, base)
    if panel == "demand_bounded":
        base = MarketConfig(11, d_min=5.0, s_max=0.7,
                            betas=_case_study_betas("high"))
        return SweepSpec(VARIABLE_DEMAND, 5.0, 0.7, steps, base)
    if panel == "demand_unbounded":
        base = MarketConfig(11, d_min=5.0, s_max=3.0,
                            betas=_case_study_betas("low"))
        return SweepSpec(VARIABLE_DEMAND, 5.0, 0.7, steps, base)
    raise DomainError(f"unknown panel {panel!r}; choose from {PANELS}")


_TOP_LEVEL_KEYS = {"n_prosumers", "d_min", "s_max", "betas",
                   "tolerances", "sweep"}
_TOLERANCE_KEYS = {"eps_price", "tol_root", "tol_kkt"}
_SWEEP_KEYS = {"variable", "start", "stop", "steps"}


def _reject_unknown(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def load_config_file(path) -> tuple[MarketConfig, SweepSpec | None]:
    """Read a market (and optional sweep) from a JSON config file.

    Schema: {"n_prosumers": int, "d_min": num, "s_max": num,
             "betas": [num, ...],
             "tolerances": {"eps_price"?, "tol_root"?, "tol_kkt"?},
             "sweep": {"variable": "s_max"|"d_min", "start", "stop",
                       "steps"}}
    tolerances and sweep are optional and unknown keys are rejected. The
    values go to MarketConfig and SweepSpec as they are, whose DomainError
    becomes a ConfigError; a null eps_price is rejected here, because
    MarketConfig reads eps_price=None as "derive it".
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc})") from exc
    except ValueError as exc:  # also an integer beyond int's digit limit
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, str(path))
    for key in ("n_prosumers", "d_min", "s_max", "betas"):
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")
    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError(f"{path}: tolerances must be an object")
    _reject_unknown(tolerances, _TOLERANCE_KEYS, f"{path} tolerances")
    if not isinstance(raw["betas"], list):
        raise ConfigError(f"{path}: betas must be an array")
    if tolerances.get("eps_price", 0) is None:
        raise ConfigError(f"{path}: eps_price must be positive and finite, "
                          "got None")
    try:
        config = MarketConfig(raw["n_prosumers"], raw["d_min"], raw["s_max"],
                              raw["betas"], **tolerances)
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    sweep = None
    if "sweep" in raw:
        block = raw["sweep"]
        if not isinstance(block, dict):
            raise ConfigError(f"{path}: sweep must be an object")
        _reject_unknown(block, _SWEEP_KEYS, f"{path} sweep")
        missing = sorted(_SWEEP_KEYS - set(block))
        if missing:
            raise ConfigError(
                f"{path}: sweep is missing key(s): {', '.join(missing)}")
        try:
            sweep = SweepSpec(str(block["variable"]), block["start"],
                              block["stop"], block["steps"], config)
        except DomainError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return config, sweep
