"""Tests for sweeps, CSV emission and config ingestion."""

import json
import warnings

import numpy as np
import pytest

from prosumer_market import (
    CSV_HEADER,
    PANELS,
    BracketFailure,
    ConfigError,
    DomainError,
    MODE_MODIFIED,
    MODE_TRUE,
    MarketConfig,
    SaturationWarning,
    SweepRow,
    SweepSpec,
    case_study_spec,
    emit_csv,
    emit_gnuplot,
    equilibrium_report,
    load_config_file,
    run_sweep,
    solve_dual,
)
from prosumer_market import experiments, solver
from prosumer_market.market import MarketStack


@pytest.fixture(scope="module")
def bounded_rows():
    return run_sweep(case_study_spec("capacity_bounded", steps=6))


class TestSweepSpec:
    def test_values_follow_sweep_direction(self):
        spec = case_study_spec("demand_bounded", steps=5)
        vals = spec.values()
        assert vals[0] == 5.0 and vals[-1] == pytest.approx(0.7)
        assert np.all(np.diff(vals) < 0)

    def test_config_at_replaces_swept_variable(self):
        spec = case_study_spec("capacity_bounded", steps=5)
        cfg = spec.config_at(1.23)
        assert cfg.s_max == 1.23
        assert cfg.d_min == spec.base_config.d_min

    def test_eps_price_tracks_scale(self):
        spec = case_study_spec("demand_bounded", steps=5)
        assert spec.config_at(5.0).eps_price == pytest.approx(11 * 5.0 * 1e-9)
        assert spec.config_at(0.7).eps_price == pytest.approx(11 * 0.7 * 1e-9)

    def test_validation(self):
        base = MarketConfig(2, 1.0, 1.0, (2.0, 2.0))
        with pytest.raises(DomainError):
            SweepSpec("capacity", 0.1, 1.0, 5, base)
        with pytest.raises(DomainError):
            SweepSpec("s_max", 0.1, 1.0, 1, base)
        with pytest.raises(DomainError):
            SweepSpec("s_max", 1.0, 1.0, 5, base)
        with pytest.raises(DomainError):
            SweepSpec("s_max", -0.1, 1.0, 5, base)

    def test_unknown_panel(self):
        with pytest.raises(DomainError):
            case_study_spec("fig_top")


class TestRunSweep:
    def test_row_fields_are_consistent(self, bounded_rows):
        for row in bounded_rows:
            assert row.error is None
            assert row.total_param == pytest.approx(11 * row.param_value)
            assert row.welfare_loss == pytest.approx(
                row.welfare_competitive - row.welfare_nash, abs=1e-12)
            assert row.welfare_loss >= -1e-10
            assert row.eq21_violations == 0
            assert not row.non_concave_flag
            assert row.price_competitive > 0 and row.price_nash > 0

    def test_rows_ordered_by_parameter(self, bounded_rows):
        vals = [r.param_value for r in bounded_rows]
        assert vals == sorted(vals)

    def test_repeated_sweeps_agree(self):
        spec = case_study_spec("capacity_bounded", steps=4)
        assert run_sweep(spec) == run_sweep(spec)

    def test_bracket_failure_marks_row_without_aborting(self):
        # from s_max = 3.0 on, both prosumers prefer -s_max at every price
        spec = SweepSpec("s_max", 0.2, 4.0, 20,
                         MarketConfig(2, 1.0, 1.0, (2.0, 3.0)))
        rows = run_sweep(spec)
        assert [r.error is None for r in rows] == [True] * 14 + [False] * 6
        assert rows[13].param_value == pytest.approx(2.8)
        assert rows[14].param_value == pytest.approx(3.0)
        for row in rows[14:]:
            assert np.isnan(row.welfare_loss)
            with pytest.raises(BracketFailure) as exc:
                solve_dual(spec.config_at(row.param_value), MODE_MODIFIED)
            assert row.error == str(exc.value)
        assert all(np.isfinite(r.welfare_loss) for r in rows[:14])


def _point_row(spec, value):
    """The sweep row of one point, built from its own equilibrium_report."""
    config = spec.config_at(value)
    total = config.n_prosumers * value
    try:
        report = equilibrium_report(config)
    except BracketFailure as exc:
        nan = float("nan")
        return SweepRow(value, total, nan, nan, nan, 0, False, nan, nan,
                        error=str(exc))
    return SweepRow(
        param_value=value,
        total_param=total,
        welfare_competitive=report.competitive.welfare_true,
        welfare_nash=report.nash.welfare_true,
        welfare_loss=report.welfare_loss,
        eq21_violations=int(np.count_nonzero(~report.conditions.eq21_ok)),
        non_concave_flag=report.nash.non_concave,
        price_competitive=report.competitive.price,
        price_nash=report.nash.price,
    )


def _assert_rows_equal(rows, expected):
    # repr round-trips every float, so equal reprs are equal bits (nan too)
    assert [repr(r) for r in rows] == [repr(r) for r in expected]


def _random_specs():
    """Seeded sweeps over concave, non-concave, gap and steep-beta points."""
    rng = np.random.default_rng(7)
    specs = []
    for steep in (False, False, False, True):
        n = int(rng.integers(2, 7))
        d_min = float(rng.uniform(0.3, 3.0))
        betas = tuple(rng.uniform(0.3, 4.0, n))
        if steep:
            betas = (1e3, 1e4) + betas[2:]
        s_top = float(rng.uniform(1.5, 3.0) * (n - 1) * d_min)
        base = MarketConfig(n, d_min, s_top, betas)
        specs.append(SweepSpec("s_max", 0.05 * s_top, s_top, 25, base))
        specs.append(SweepSpec("d_min", 3.0 * d_min, 0.2 * d_min, 25, base))
    return specs


@pytest.mark.filterwarnings("ignore::prosumer_market.SaturationWarning")
class TestBatchComposition:
    """A sweep point's row does not depend on the points stacked with it."""

    @pytest.mark.parametrize("panel", PANELS)
    def test_panel_rows_equal_per_point_reports(self, panel):
        spec = case_study_spec(panel, steps=30)
        _assert_rows_equal(run_sweep(spec), [
            _point_row(spec, float(v)) for v in spec.values()])

    @pytest.mark.parametrize("start, stop", [(0.2, 4.0), (4.0, 0.2)],
                             ids=["failures-last", "failures-first"])
    def test_failing_sweep_rows_equal_per_point_reports(self, start, stop):
        spec = SweepSpec("s_max", start, stop, 20,
                         MarketConfig(2, 1.0, 1.0, (2.0, 3.0)))
        _assert_rows_equal(run_sweep(spec), [
            _point_row(spec, float(v)) for v in spec.values()])

    def test_random_sweep_rows_equal_per_point_reports(self):
        kinds = set()
        for spec in _random_specs():
            _assert_rows_equal(run_sweep(spec), [
                _point_row(spec, float(v)) for v in spec.values()])
            for value in spec.values():
                config = spec.config_at(float(value))
                try:
                    nash = solve_dual(config, MODE_MODIFIED)
                except BracketFailure:
                    kinds.add("failure")
                    continue
                kinds.add("non-concave" if nash.non_concave else "concave")
                if not nash.converged:
                    kinds.add("gap")
                if max(config.betas) >= 1e3:
                    kinds.add("steep")
        assert kinds >= {"concave", "non-concave", "gap", "steep"}

    def test_blocked_sweep_equals_one_stack(self, monkeypatch):
        # 33 entries hold 3 of the 11-prosumer points per stacked search
        spec = case_study_spec("capacity_unbounded", steps=30)
        whole = run_sweep(spec)
        monkeypatch.setattr(experiments, "_STACK_ELEMENTS", 33)
        _assert_rows_equal(run_sweep(spec), whole)

    def test_sweep_warns_once_when_saturated(self, monkeypatch):
        # r*s_max > 700 at every point of all three stacks of two points
        monkeypatch.setattr(experiments, "_STACK_ELEMENTS", 6)
        spec = SweepSpec("s_max", 1.0, 2.0, 6,
                         MarketConfig(3, 1.0, 1.0, (1e4,) * 3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sweep(spec)
        assert sum(issubclass(w.category, SaturationWarning)
                   for w in caught) == 1

    @pytest.mark.parametrize("mode", [MODE_TRUE, MODE_MODIFIED])
    def test_subset_stack_equals_full_stack_rows(self, mode):
        rng = np.random.default_rng(3)
        specs = [case_study_spec(p, steps=30) for p in PANELS]
        for spec in specs + _random_specs():
            stack = experiments._sweep_stack(spec, spec.values())
            full = solver._solve_stack(stack, mode)
            rows = np.sort(rng.choice(spec.steps, spec.steps // 3,
                                      replace=False))
            sub = solver._solve_stack(
                MarketStack(*(field[rows] for field in stack)), mode)
            np.testing.assert_array_equal(
                sub.quantities, np.array(full.quantities)[rows])
            np.testing.assert_array_equal(sub.flags,
                                          np.array(full.flags)[rows])
            for name in ("prices", "totals", "iterations", "errors"):
                expected = [getattr(full, name)[k] for k in rows]
                assert repr(getattr(sub, name)) == repr(expected), name


class TestEmitCsv:
    def test_single_row_structure(self, tmp_path, bounded_rows):
        path = tmp_path / "one.csv"
        emit_csv(bounded_rows[:1], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_round_trip_loss_column(self, tmp_path, bounded_rows):
        path = tmp_path / "rows.csv"
        emit_csv(bounded_rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            comp, nash, loss = float(cells[2]), float(cells[3]), float(cells[4])
            assert loss == pytest.approx(comp - nash, abs=1e-9)
            assert cells[5] == "0" and cells[6] == "0"

    def test_deterministic_bytes(self, tmp_path):
        spec = case_study_spec("capacity_bounded", steps=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(spec), p1)
        emit_csv(run_sweep(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_csv([], tmp_path / "empty.csv")

    def test_gnuplot_export(self, tmp_path, bounded_rows):
        path = tmp_path / "panel.dat"
        emit_gnuplot(bounded_rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == len(bounded_rows) + 1
        first = lines[1].split()
        assert float(first[0]) == pytest.approx(bounded_rows[0].total_param)


class TestEquilibriumReport:
    def test_bounded_configuration(self):
        cfg = MarketConfig(11, 4.0, 3.0, tuple(2.0 + 0.1 * i for i in range(11)))
        report = equilibrium_report(cfg)
        assert report.welfare_loss == pytest.approx(
            report.competitive.welfare_true - report.nash.welfare_true)
        assert report.welfare_loss >= -1e-10
        assert report.conditions.all_ok
        assert report.competitive.converged and report.nash.converged


class TestLoadConfigFile:
    def write(self, tmp_path, payload, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def base_payload(self):
        return {
            "n_prosumers": 3,
            "d_min": 2.0,
            "s_max": 0.6,
            "betas": [3.5, 4.0, 5.5],
        }

    def test_minimal(self, tmp_path):
        config, sweep = load_config_file(self.write(tmp_path, self.base_payload()))
        assert config.n_prosumers == 3
        assert config.betas == (3.5, 4.0, 5.5)
        assert sweep is None

    def test_with_sweep_and_tolerances(self, tmp_path):
        payload = self.base_payload()
        payload["tolerances"] = {"tol_root": 1e-10, "eps_price": 1e-8}
        payload["sweep"] = {"variable": "s_max", "start": 0.1, "stop": 0.6,
                            "steps": 4}
        config, sweep = load_config_file(self.write(tmp_path, payload))
        assert config.tol_root == 1e-10
        assert config.eps_price == 1e-8
        assert sweep is not None and sweep.steps == 4
        assert sweep.base_config is config

    def test_unknown_top_level_key(self, tmp_path):
        payload = self.base_payload()
        payload["gamma"] = 1.0
        with pytest.raises(ConfigError, match="gamma"):
            load_config_file(self.write(tmp_path, payload))

    def test_unknown_nested_keys(self, tmp_path):
        payload = self.base_payload()
        payload["tolerances"] = {"tol_price": 1e-9}
        with pytest.raises(ConfigError, match="tol_price"):
            load_config_file(self.write(tmp_path, payload))
        payload = self.base_payload()
        payload["sweep"] = {"variable": "s_max", "start": 0.1, "stop": 0.6,
                            "steps": 4, "scale": "log"}
        with pytest.raises(ConfigError, match="scale"):
            load_config_file(self.write(tmp_path, payload))

    def test_missing_required_key(self, tmp_path):
        payload = self.base_payload()
        del payload["betas"]
        with pytest.raises(ConfigError, match="betas"):
            load_config_file(self.write(tmp_path, payload))

    def test_incomplete_sweep_block(self, tmp_path):
        payload = self.base_payload()
        payload["sweep"] = {"variable": "s_max", "start": 0.1}
        with pytest.raises(ConfigError, match="steps"):
            load_config_file(self.write(tmp_path, payload))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config_file(path)

    @pytest.mark.parametrize("key, value", [
        ("n_prosumers", 2.7),
        ("n_prosumers", True),
        ("n_prosumers", "3"),
        ("d_min", "2.0"),
        ("s_max", False),
        ("betas", [3.5, "4.0", 5.5]),
    ], ids=["n-fractional", "n-bool", "n-string", "d_min-string",
            "s_max-bool", "beta-string"])
    def test_non_numeric_market_values_rejected(self, tmp_path, key, value):
        payload = self.base_payload()
        payload[key] = value
        with pytest.raises(ConfigError, match=key):
            load_config_file(self.write(tmp_path, payload))

    def test_steps_cap(self, tmp_path):
        base = MarketConfig(3, 1.0, 1.0, (2.0, 2.5, 3.0))
        assert SweepSpec("s_max", 0.1, 0.6, 100_000, base).steps == 100_000
        with pytest.raises(DomainError, match="at most 100000"):
            SweepSpec("s_max", 0.1, 0.6, 100_001, base)
        payload = self.base_payload()
        payload["sweep"] = {"variable": "s_max", "start": 0.1, "stop": 0.6,
                            "steps": 10**9}
        with pytest.raises(ConfigError, match="steps must be at most"):
            load_config_file(self.write(tmp_path, payload))

    @pytest.mark.parametrize("key, value", [
        ("steps", 2.7), ("steps", True), ("steps", "4"), ("start", "0.1"),
    ], ids=["steps-fractional", "steps-bool", "steps-string", "start-string"])
    def test_non_numeric_sweep_values_rejected(self, tmp_path, key, value):
        payload = self.base_payload()
        payload["sweep"] = {"variable": "s_max", "start": 0.1, "stop": 0.6,
                            "steps": 4}
        payload["sweep"][key] = value
        with pytest.raises(ConfigError, match=key):
            load_config_file(self.write(tmp_path, payload))

    def test_tolerance_below_float_resolution_rejected(self, tmp_path):
        payload = self.base_payload()
        payload["tolerances"] = {"tol_root": 1e-30}
        with pytest.raises(ConfigError, match="tol_root"):
            load_config_file(self.write(tmp_path, payload))

    def test_non_numeric_tolerance_rejected(self, tmp_path):
        payload = self.base_payload()
        payload["tolerances"] = {"tol_root": "1e-9"}
        with pytest.raises(ConfigError, match="tol_root"):
            load_config_file(self.write(tmp_path, payload))

    def test_domain_violations_become_config_errors(self, tmp_path):
        payload = self.base_payload()
        payload["d_min"] = -2.0
        with pytest.raises(ConfigError):
            load_config_file(self.write(tmp_path, payload))

    def test_shipped_panel_files_parse(self):
        import pathlib
        configs = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"
        for panel in PANELS:
            config, sweep = load_config_file(configs / f"{panel}.json")
            reference = case_study_spec(panel)
            assert config.betas == reference.base_config.betas
            assert sweep.variable == reference.variable
            assert (sweep.start, sweep.stop, sweep.steps) == (
                reference.start, reference.stop, reference.steps)
