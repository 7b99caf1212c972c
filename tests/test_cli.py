"""End-to-end tests of the command-line interface."""

import json

import pytest

from prosumer_market import BracketFailure, CSV_HEADER
from prosumer_market import cli
from prosumer_market.cli import cli_main


@pytest.fixture
def symmetric_config_path(tmp_path):
    payload = {
        "n_prosumers": 11,
        "d_min": 4.0,
        "s_max": 3.0,
        "betas": [2.5] * 11,
    }
    path = tmp_path / "symmetric.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture
def sweep_config_path(tmp_path):
    payload = {
        "n_prosumers": 11,
        "d_min": 4.0,
        "s_max": 3.0,
        "betas": [round(2.0 + 0.1 * i, 1) for i in range(11)],
        "sweep": {"variable": "s_max", "start": 0.5, "stop": 3.0, "steps": 5},
    }
    path = tmp_path / "panel.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture
def small_config_path(tmp_path):
    payload = {
        "n_prosumers": 3,
        "d_min": 2.0,
        "s_max": 0.6,
        "betas": [3.5, 4.0, 5.5],
    }
    path = tmp_path / "small.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestSolve:
    def test_symmetric_market_reports_zero_loss(self, symmetric_config_path, capsys):
        assert cli_main(["solve", "--config", str(symmetric_config_path)]) == 0
        out = capsys.readouterr().out
        loss_line = next(l for l in out.splitlines() if l.startswith("welfare_loss:"))
        assert abs(float(loss_line.split()[1])) <= 1e-9
        assert "competitive:" in out and "nash:" in out
        assert "all_ok: True" in out

    def test_single_mode_output(self, symmetric_config_path, capsys):
        assert cli_main(["solve", "--config", str(symmetric_config_path),
                         "--mode", "true"]) == 0
        out = capsys.readouterr().out
        assert "competitive:" in out
        assert "nash:" not in out


class TestSweep:
    def test_writes_csv(self, sweep_config_path, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        assert cli_main(["sweep", "--config", str(sweep_config_path),
                         "--out", str(out_csv)]) == 0
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        assert "wrote 5 rows" in capsys.readouterr().out

    def test_optional_gnuplot_export(self, sweep_config_path, tmp_path):
        out_csv = tmp_path / "rows.csv"
        out_dat = tmp_path / "rows.dat"
        assert cli_main(["sweep", "--config", str(sweep_config_path),
                         "--out", str(out_csv), "--gnuplot", str(out_dat)]) == 0
        assert out_dat.exists()

    def test_config_without_sweep_block_fails(self, symmetric_config_path,
                                              tmp_path, capsys):
        code = cli_main(["sweep", "--config", str(symmetric_config_path),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "sweep" in capsys.readouterr().err


class TestCheck:
    def test_prints_condition_flags(self, symmetric_config_path, capsys):
        assert cli_main(["check", "--config", str(symmetric_config_path)]) == 0
        out = capsys.readouterr().out
        for name in ("lemma1", "eq15", "eq18", "eq21", "eq36"):
            assert f"{name}:" in out
        assert "11/11" in out


class TestVerify:
    def test_prints_max_gap(self, symmetric_config_path, capsys):
        assert cli_main(["verify", "--config", str(symmetric_config_path),
                         "--grid", "20000"]) == 0
        out = capsys.readouterr().out
        gap_line = next(l for l in out.splitlines() if l.startswith("max_gap:"))
        assert float(gap_line.split()[1]) <= 1e-6


class TestOracle:
    def test_cross_check_small_market(self, small_config_path, capsys):
        assert cli_main(["oracle", "--config", str(small_config_path),
                         "--grid", "1001"]) == 0
        out = capsys.readouterr().out
        diffs = [float(l.split("max_diff=")[1]) for l in out.splitlines()
                 if "max_diff=" in l]
        assert len(diffs) == 2
        assert all(d <= 1e-4 for d in diffs)

    def test_grid_cap_is_validation_error(self, small_config_path, capsys):
        # 5000**2 grid points for the two free dimensions of three prosumers
        code = cli_main(["oracle", "--config", str(small_config_path),
                         "--grid", "5000"])
        assert code == 1
        assert "grid points" in capsys.readouterr().err

    def test_too_many_prosumers_is_validation_error(self, symmetric_config_path,
                                                    capsys):
        code = cli_main(["oracle", "--config", str(symmetric_config_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["minimize"]) == 1

    def test_help_exits_zero(self):
        assert cli_main(["--help"]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli_main(["solve", "--config", str(tmp_path / "nope.json")])
        assert code == 1

    def test_invalid_config_content(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n_prosumers": 2}', encoding="utf-8")
        assert cli_main(["solve", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n_prosumers": 2, "d_min": 1, "s_max": 1, '
                         b'"betas": [2, 3], "\xff": 1}')
        assert cli_main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "UTF-8" in err

    def test_tolerance_below_float_resolution_rejected(self, tmp_path,
                                                       capsys):
        path = tmp_path / "tiny_tol.json"
        path.write_text(json.dumps({
            "n_prosumers": 2, "d_min": 1.0, "s_max": 1.0, "betas": [2.0, 3.0],
            "tolerances": {"tol_root": 1e-30}}), encoding="utf-8")
        assert cli_main(["solve", "--config", str(path)]) == 1
        assert "tol_root" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({
            "n_prosumers": 2, "d_min": 1.0, "s_max": 1.0,
            "betas": [2.0, 2.0], "note": "hi"}), encoding="utf-8")
        assert cli_main(["solve", "--config", str(path)]) == 1

    @pytest.mark.parametrize("key, value", [
        ("n_prosumers", 2.7), ("n_prosumers", True), ("n_prosumers", "2"),
        ("steps", 2.7),
    ], ids=["n-fractional", "n-bool", "n-string", "steps-fractional"])
    def test_non_integral_values_rejected(self, tmp_path, capsys, key, value):
        payload = {"n_prosumers": 2, "d_min": 1.0, "s_max": 1.0,
                   "betas": [2.0, 2.0],
                   "sweep": {"variable": "s_max", "start": 0.5, "stop": 1.0,
                             "steps": 3}}
        block = payload["sweep"] if key == "steps" else payload
        block[key] = value
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = cli_main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "rows.csv")])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    def test_sweep_steps_cap(self, tmp_path, capsys):
        payload = {"n_prosumers": 2, "d_min": 1.0, "s_max": 1.0,
                   "betas": [2.0, 2.0],
                   "sweep": {"variable": "s_max", "start": 0.5, "stop": 1.0,
                             "steps": 100_001}}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = cli_main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "rows.csv")])
        assert code == 1
        assert "steps must be at most" in capsys.readouterr().err
        assert not (tmp_path / "rows.csv").exists()

    def test_verify_grid_cap(self, symmetric_config_path, capsys):
        code = cli_main(["verify", "--config", str(symmetric_config_path),
                         "--grid", "10000001"])
        assert code == 1
        assert "grid points" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["2", "0", "-5"])
    def test_verify_grid_floor(self, symmetric_config_path, capsys, grid):
        code = cli_main(["verify", "--config", str(symmetric_config_path),
                         "--grid", grid])
        assert code == 1
        assert ("grid points must be an integer of at least 3, got"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, literal", [
        ("betas", "Infinity"), ("betas", "NaN"), ("d_min", "NaN"),
        ("s_max", "Infinity"), ("eps_price", "-Infinity"),
        ("tol_root", "Infinity"), ("tol_kkt", "NaN"),
        ("start", "Infinity"), ("stop", "NaN"),
    ])
    def test_non_finite_values_rejected(self, tmp_path, capsys, key, literal):
        payload = {"n_prosumers": 3, "d_min": 1.0, "s_max": 1.0,
                   "betas": [2.0, 2.5, 3.0], "tolerances": {},
                   "sweep": {"variable": "s_max", "start": 0.5, "stop": 1.0,
                             "steps": 3}}
        value = float(literal)
        if key == "betas":
            payload["betas"][1] = value
        elif key in ("eps_price", "tol_root", "tol_kkt"):
            payload["tolerances"][key] = value
        elif key in ("start", "stop"):
            payload["sweep"][key] = value
        else:
            payload[key] = value
        text = json.dumps(payload)
        assert literal in text  # the JSON extension literal, not a string
        path = tmp_path / "non_finite.json"
        path.write_text(text, encoding="utf-8")
        for argv in (["solve"], ["sweep", "--out", str(tmp_path / "rows.csv")]):
            code = cli_main(argv + ["--config", str(path)])
            assert code == 1
            err = capsys.readouterr().err
            assert "finite" in err
            assert key != "betas" or "betas[1]" in err
        assert not (tmp_path / "rows.csv").exists()

    def test_solver_failure_exits_two(self, symmetric_config_path, monkeypatch,
                                      capsys):
        def boom(config, mode):
            raise BracketFailure("synthetic")

        monkeypatch.setattr(cli, "solve_dual", boom)
        monkeypatch.setattr("prosumer_market.experiments.solve_dual", boom)
        code = cli_main(["verify", "--config", str(symmetric_config_path)])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err
