"""The benchmark's workloads: seeded inputs, timed calls and their checks.

Each workload is built from the imported ``prosumer_market`` package and a
seed. ``ops`` is one round: a list of ``Op`` whose ``call`` is the timed
public call and whose ``check`` compares its output with ``reference`` (a
computation made apart from the program) and with properties the paper's
model guarantees. A check returns the number of failed operations and a list
of problems; a problem makes the run incorrect, a failed operation does not.

The package is always reached through the module object at call time
(``pm.solve_dual``), so the traced run sees every call through its wrappers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# paper's case study: 30 steps per panel, 11 prosumers
CASE_STUDY_STEPS = 30
# the documented CSV contract of the sweep output
CSV_HEADER = ("param_value,total_param,welfare_competitive,welfare_nash,"
              "welfare_loss,eq21_violations,non_concave_flag,"
              "price_competitive,price_nash")
# paper's eq21 thresholds: total capacity and total demand at first violation
CAPACITY_THRESHOLD = 18.5
DEMAND_THRESHOLD = 20.0
# the one sweep point whose Nash price clears no market (sum q = -0.133): a
# known fault of the modified solve outside the concave regime, counted as a
# failed operation; an unbalanced Nash row anywhere else is a problem
KNOWN_UNBALANCED_NASH = {("capacity_unbounded", 4.5)}

# large_market: sizes and envelope are fixed so that a seed changes the
# betas, not the amount of work; s_max is well below (N-1) d_min, which keeps
# every shaded curve concave
LARGE_SIZES = (200, 250, 300)
LARGE_D_MIN = 4.0
LARGE_S_MAX = 1.6

# certify: defaults of the `verify` and `oracle` CLI commands
BEST_RESPONSE_GRID = 200_000
BRUTE_FORCE_GRID = 2001
# sweep points per bounded panel whose Nash bids are certified
CERTIFY_POINTS_PER_PANEL = 2

# check tolerances
PRICE_RTOL = 1e-9        # program vs reference price and welfare
QUANTITY_ATOL = 1e-7     # program vs reference allocation
BALANCE_ATOL = 1e-7      # |sum q| of an allocation called balanced
KKT_RTOL = 1e-7          # stationarity, relative to the dual price
GAP_MAX = 1e-6           # best-response gap at a Nash point
GAP_MIN = -1e-9
BRUTE_ATOL = 1e-4        # brute force vs solve_dual and vs reference
BRUTE_KKT_RTOL = 1e-4


@dataclass
class Op:
    """One timed public call of a round: ``n`` operations, then a check."""

    label: str
    n: int
    call: Callable[[], object]
    check: Callable[[object], tuple[int, list[str]]]


def _market(config) -> ref.Market:
    return ref.Market(config.n_prosumers, config.d_min, config.s_max,
                      tuple(config.betas))


def _check_solve(label: str, m: ref.Market, result, shaded: bool,
                 eta_ref: float, q_ref: np.ndarray) -> list[str]:
    """Balance, KKT and reference agreement of one solve_dual result."""
    problems = []
    q = np.asarray(result.allocation.quantities, dtype=float)
    eta = float(result.price)
    if abs(q.sum()) > BALANCE_ATOL:
        problems.append(f"{label}: unbalanced, sum q = {q.sum():.3e}")
    kkt = ref.kkt_violation(m, q, eta, shaded)
    if kkt > KKT_RTOL:
        problems.append(f"{label}: KKT violation {kkt:.3e}")
    # with every prosumer at a bound the dual price is any point of an
    # interval, so only the KKT inequalities above pin it
    interior = (q_ref > -m.s + QUANTITY_ATOL) & (q_ref < m.q_upper - QUANTITY_ATOL)
    if np.any(interior) and abs(eta - eta_ref) > PRICE_RTOL * eta_ref:
        problems.append(f"{label}: price {eta!r} vs reference {eta_ref!r}")
    if np.max(np.abs(q - q_ref)) > QUANTITY_ATOL:
        problems.append(f"{label}: allocation off reference by "
                        f"{np.max(np.abs(q - q_ref)):.3e}")
    w_ref = ref.welfare(m, q_ref)
    if ref.relative_gap(result.welfare_true, w_ref) > PRICE_RTOL:
        problems.append(f"{label}: welfare {result.welfare_true!r} vs "
                        f"reference {w_ref!r}")
    thetas = np.asarray(result.thetas, dtype=float)
    if np.max(np.abs(thetas - eta * (q - m.d))) > PRICE_RTOL * max(1.0, eta * m.d):
        problems.append(f"{label}: bids are not eta * (q - d_min)")
    clearing = -thetas.sum() / (m.n * m.d)
    if abs(clearing - eta) > 1e-8 * eta:
        problems.append(f"{label}: bids clear at {clearing!r}, not {eta!r}")
    return problems


# ---------------------------------------------------------------- case_study

class CaseStudy:
    """The paper's four panels at 30 steps; the seed sets the panel order."""

    name = "case_study"

    def __init__(self, pm, seed: int, out_dir: Path):
        self.pm = pm
        order = np.random.default_rng([seed, 1]).permutation(len(pm.PANELS))
        self.panels = [pm.PANELS[k] for k in order]
        self.specs = {p: pm.case_study_spec(p, steps=CASE_STUDY_STEPS)
                      for p in self.panels}
        self.out_dir = out_dir / self.name

    def prepare(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.points = {}
        for panel, spec in self.specs.items():
            points = []
            for value in spec.values():
                m = _market(spec.config_at(float(value)))
                comp = ref.competitive(m)
                nash = ref.nash(m) if m.concave() else None
                points.append((m, comp, nash))
            self.points[panel] = points

    def ops(self) -> list[Op]:
        return [Op(panel, CASE_STUDY_STEPS, self._caller(panel),
                   functools.partial(self._check_panel, panel))
                for panel in self.panels]

    def _caller(self, panel):
        spec = self.specs[panel]
        csv = self.out_dir / f"{panel}.csv"
        dat = self.out_dir / f"{panel}.dat"

        def call():
            rows = self.pm.run_sweep(spec)
            self.pm.emit_csv(rows, csv)
            self.pm.emit_gnuplot(rows, dat)
            return rows
        return call

    def _check_panel(self, panel, rows) -> tuple[int, list[str]]:
        spec = self.specs[panel]
        problems, failed = [], 0
        if len(rows) != CASE_STUDY_STEPS:
            return 0, [f"{panel}: {len(rows)} rows, expected {CASE_STUDY_STEPS}"]
        first_violation = None
        for value, row, (m, (eta_c, q_c), nash) in zip(
                spec.values(), rows, self.points[panel]):
            where = f"{panel} {spec.variable}={value:.6g}"
            if row.error is not None:
                problems.append(f"{where}: error {row.error}")
                continue
            if abs(row.param_value - value) > 1e-12 * abs(value) or \
                    abs(row.total_param - m.n * value) > 1e-9 * m.n * value:
                problems.append(f"{where}: wrong sweep value")
            # competitive row against the closed-form solve
            if abs(row.price_competitive - eta_c) > PRICE_RTOL * eta_c:
                problems.append(f"{where}: competitive price "
                                f"{row.price_competitive!r} vs {eta_c!r}")
            if ref.relative_gap(row.welfare_competitive,
                                ref.welfare(m, q_c)) > PRICE_RTOL:
                problems.append(f"{where}: competitive welfare off reference")
            # Nash row: in the concave regime the price must match the
            # Lambert-W solve; in any regime it must clear the market under
            # the global maximizer of each shaded Lagrangian
            if nash is not None:
                eta_n, _ = nash
                if abs(row.price_nash - eta_n) > PRICE_RTOL * eta_n:
                    problems.append(f"{where}: Nash price {row.price_nash!r} "
                                    f"vs {eta_n!r}")
                    continue
            q_n = ref.shaded_argmax(m, row.price_nash)
            if abs(q_n.sum()) > BALANCE_ATOL:
                if (panel, value) in KNOWN_UNBALANCED_NASH:
                    failed += 1  # the unbalanced-Nash fault: no clearing price
                else:
                    problems.append(f"{where}: Nash price leaves sum q = "
                                    f"{q_n.sum():.3e}")
                continue
            if ref.relative_gap(row.welfare_nash, ref.welfare(m, q_n)) > PRICE_RTOL:
                problems.append(f"{where}: Nash welfare off reference")
            loss = row.welfare_competitive - row.welfare_nash
            if abs(row.welfare_loss - loss) > 1e-12 * max(1.0, abs(loss)):
                problems.append(f"{where}: loss is not the welfare difference")
            if row.welfare_loss < -PRICE_RTOL * max(1.0, abs(row.welfare_competitive)):
                problems.append(f"{where}: negative welfare loss {row.welfare_loss!r}")
            violations = ref.eq21_violations(m, q_n)
            if row.eq21_violations != violations:
                problems.append(f"{where}: {row.eq21_violations} eq21 violations, "
                                f"reference {violations}")
            if bool(row.non_concave_flag) != (violations > 0):
                problems.append(f"{where}: non-concave flag {row.non_concave_flag}")
            if violations and first_violation is None:
                first_violation = row.total_param
        problems += self._check_thresholds(panel, spec, first_violation)
        problems += self._check_files(panel, rows)
        return failed, problems

    @staticmethod
    def _check_thresholds(panel, spec, first_violation) -> list[str]:
        step = abs(spec.values()[1] - spec.values()[0]) * \
            spec.base_config.n_prosumers
        if panel.endswith("_bounded"):
            if first_violation is not None:
                return [f"{panel}: eq21 violated at total {first_violation:.4g}"]
            return []
        target = CAPACITY_THRESHOLD if panel.startswith("capacity") \
            else DEMAND_THRESHOLD
        if first_violation is None or abs(first_violation - target) > step:
            return [f"{panel}: first eq21 violation at total {first_violation}, "
                    f"paper threshold {target} +- {step:.3g}"]
        return []

    def _check_files(self, panel, rows) -> list[str]:
        def fmt(x):
            return f"{x:.12g}"
        expected = [CSV_HEADER] + [",".join([
            fmt(r.param_value), fmt(r.total_param), fmt(r.welfare_competitive),
            fmt(r.welfare_nash), fmt(r.welfare_loss), str(int(r.eq21_violations)),
            str(int(r.non_concave_flag)), fmt(r.price_competitive),
            fmt(r.price_nash)]) for r in rows]
        problems = []
        csv = (self.out_dir / f"{panel}.csv").read_bytes()
        if csv != ("\n".join(expected) + "\n").encode("utf-8"):
            problems.append(f"{panel}: CSV does not match its rows")
        dat = (self.out_dir / f"{panel}.dat").read_text(encoding="utf-8")
        expected_dat = ["# total_param welfare_loss"] + [
            f"{fmt(r.total_param)} {fmt(r.welfare_loss)}" for r in rows]
        if dat != "\n".join(expected_dat) + "\n":
            problems.append(f"{panel}: gnuplot export does not match its rows")
        return problems


# -------------------------------------------------------------- large_market

class LargeMarket:
    """Seeded concave markets of a few hundred prosumers, one report each."""

    name = "large_market"

    def __init__(self, pm, seed: int, out_dir: Path):
        self.pm = pm
        rng = np.random.default_rng([seed, 2])
        self.configs = []
        for n in LARGE_SIZES:
            betas = tuple(rng.uniform(1.5, 3.5, n))
            self.configs.append(pm.MarketConfig(
                n, d_min=LARGE_D_MIN, s_max=LARGE_S_MAX, betas=betas))

    def prepare(self) -> None:
        self.refs = []
        for config in self.configs:
            m = _market(config)
            self.refs.append((m, ref.competitive(m), ref.nash(m)))

    def ops(self) -> list[Op]:
        return [Op(f"N={c.n_prosumers}", 1, self._caller(c), self._checker(k))
                for k, c in enumerate(self.configs)]

    def _caller(self, config):
        return lambda: self.pm.equilibrium_report(config)

    def _checker(self, k):
        def check(report):
            m, (eta_c, q_c), (eta_n, q_n) = self.refs[k]
            label = f"N={m.n}"
            problems = _check_solve(f"{label} competitive", m,
                                    report.competitive, False, eta_c, q_c)
            problems += _check_solve(f"{label} nash", m, report.nash, True,
                                     eta_n, q_n)
            loss = ref.welfare(m, q_c) - ref.welfare(m, q_n)
            if loss < 0 or abs(report.welfare_loss - loss) > PRICE_RTOL * max(
                    1.0, abs(ref.welfare(m, q_c))):
                problems.append(f"{label}: welfare loss {report.welfare_loss!r} "
                                f"vs reference {loss!r}")
            conditions = report.conditions
            if not np.all(conditions.eq21_ok) or not np.all(conditions.lemma1_ok):
                problems.append(f"{label}: eq21/lemma1 reported violated in "
                                "the concave regime")
            return 0, problems
        return check


# ------------------------------------------------------------------- certify

class Certify:
    """best_response at Nash bids and brute_force_program on 2-3 prosumers."""

    name = "certify"

    def __init__(self, pm, seed: int, out_dir: Path):
        self.pm = pm
        rng = np.random.default_rng([seed, 3])
        self.points = []
        for panel in ("capacity_bounded", "demand_bounded"):
            spec = pm.case_study_spec(panel, steps=CASE_STUDY_STEPS)
            picks = rng.choice(CASE_STUDY_STEPS, CERTIFY_POINTS_PER_PANEL,
                               replace=False)
            self.points += [spec.config_at(float(spec.values()[k]))
                            for k in sorted(picks)]
        self.small = []
        for n, beta_lo, beta_hi in ((2, 6.0, 9.0), (3, 3.5, 6.0)):
            d_min = rng.uniform(0.5, 2.0)
            betas = tuple(rng.uniform(beta_lo, beta_hi, n))
            # concave regime: -s_max above every eq21 threshold
            room = (n - 1) * d_min - 5.0 * d_min / min(betas)
            s_max = room * rng.uniform(0.5, 0.9)
            self.small.append(pm.MarketConfig(n, d_min=d_min, s_max=s_max,
                                              betas=betas))

    def prepare(self) -> None:
        self.nash_points = []
        for config in self.points:
            m = _market(config)
            eta, q = ref.nash(m)
            thetas = eta * (q - m.d)
            payoffs = ref.utility(m, q) - eta * q
            self.nash_points.append((config, m, thetas, payoffs))
        # solve_dual is the program's own answer that brute force must agree
        # with; it is called here, before any tracing, and not in the rounds
        self.small_refs = []
        for config in self.small:
            m = _market(config)
            duals = {mode: self.pm.solve_dual(config, mode)
                     for mode in (self.pm.MODE_TRUE, self.pm.MODE_MODIFIED)}
            self.small_refs.append((m, ref.competitive(m), ref.nash(m), duals))

    def ops(self) -> list[Op]:
        ops = []
        for k, (config, m, thetas, payoffs) in enumerate(self.nash_points):
            for i in range(m.n):
                ops.append(Op(f"best_response point={k} i={i}", 1,
                              self._br_caller(i, thetas, config),
                              self._br_checker(i, payoffs[i])))
        for k, config in enumerate(self.small):
            for mode in (self.pm.MODE_TRUE, self.pm.MODE_MODIFIED):
                ops.append(Op(f"brute_force N={config.n_prosumers} {mode}", 1,
                              self._bf_caller(config, mode),
                              self._bf_checker(k, mode)))
        return ops

    def _br_caller(self, i, thetas, config):
        return lambda: self.pm.best_response(
            i, thetas, config, grid_points=BEST_RESPONSE_GRID)

    @staticmethod
    def _br_checker(i, payoff_ref):
        def check(res):
            problems = []
            if not GAP_MIN <= res.gap <= GAP_MAX:
                problems.append(f"best_response {i}: gap {res.gap:.3e}")
            if ref.relative_gap(res.payoff_at_candidate, payoff_ref) > PRICE_RTOL:
                problems.append(f"best_response {i}: payoff "
                                f"{res.payoff_at_candidate!r} vs {payoff_ref!r}")
            return 0, problems
        return check

    def _bf_caller(self, config, mode):
        return lambda: self.pm.brute_force_program(
            config, mode, grid_points=BRUTE_FORCE_GRID)

    def _bf_checker(self, k, mode):
        def check(alloc):
            m, comp, nash, duals = self.small_refs[k]
            shaded = mode == self.pm.MODE_MODIFIED
            eta_ref, q_ref = nash if shaded else comp
            label = f"brute_force N={m.n} {mode}"
            dual = duals[mode]
            problems = _check_solve(f"solve_dual N={m.n} {mode}", m, dual,
                                    shaded, eta_ref, q_ref)
            q = np.asarray(alloc.quantities, dtype=float)
            if abs(q.sum()) > 1e-12 * max(1.0, m.s) * m.n:
                problems.append(f"{label}: unbalanced, sum q = {q.sum():.3e}")
            if np.min(q) < -m.s - 1e-12 or np.max(q) > m.q_upper + 1e-12:
                problems.append(f"{label}: allocation outside the bounds")
            kkt = ref.kkt_violation(m, q, float(alloc.dual_price), shaded)
            if kkt > BRUTE_KKT_RTOL:
                problems.append(f"{label}: KKT violation {kkt:.3e}")
            off_dual = float(np.max(np.abs(q - dual.allocation.quantities)))
            off_ref = float(np.max(np.abs(q - q_ref)))
            if off_dual > BRUTE_ATOL or off_ref > BRUTE_ATOL:
                problems.append(f"{label}: {off_dual:.3e} from solve_dual, "
                                f"{off_ref:.3e} from reference")
            return 0, problems
        return check


WORKLOADS = {w.name: w for w in (CaseStudy, LargeMarket, Certify)}

