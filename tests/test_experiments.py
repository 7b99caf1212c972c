"""Tests for sweeps, CSV emission and config ingestion."""

import json

import numpy as np
import pytest

from prosumer_market import (
    CSV_HEADER,
    PANELS,
    BracketFailure,
    ConfigError,
    DomainError,
    MarketConfig,
    SweepSpec,
    case_study_spec,
    emit_csv,
    emit_gnuplot,
    equilibrium_report,
    load_config_file,
    run_sweep,
)
from prosumer_market import experiments


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

    def test_bracket_failure_marks_row_without_aborting(self, monkeypatch):
        spec = case_study_spec("capacity_bounded", steps=3)
        real = experiments.solve_dual
        target = float(spec.values()[1])

        def flaky(config, mode):
            if config.s_max == target:
                raise BracketFailure("synthetic")
            return real(config, mode)

        monkeypatch.setattr(experiments, "solve_dual", flaky)
        rows = run_sweep(spec)
        assert rows[1].error is not None
        assert np.isnan(rows[1].welfare_loss)
        assert rows[0].error is None and rows[2].error is None


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
