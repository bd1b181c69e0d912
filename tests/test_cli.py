import json

import numpy as np
import pytest

from hitchinlab import gluing
from hitchinlab.cli import main
from hitchinlab.fiducial import T_MAX


def run(args):
    return main(args)


def test_solve_psi_default(tmp_path):
    out = tmp_path / "run"
    assert run(["solve-psi", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["residual_max"] < 1e-8
    assert summary["config"]["command"] == "solve-psi"
    lines = (out / "psi.csv").read_text().splitlines()
    assert lines[0] == "rho,psi,dpsi,eta"


def test_zero_tolerance_is_usage_error(tmp_path, capsys):
    assert run(["solve-psi", "--tol", "0", "--out", str(tmp_path)]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_output_dir_created_or_rejected(tmp_path):
    target = tmp_path / "fresh"
    assert run(["torus", "--out", str(target)]) == 0
    assert (target / "torus.json").exists()
    orphan = tmp_path / "missing" / "child"
    assert run(["torus", "--out", str(orphan)]) == 2


def test_torus_gamma_2(tmp_path):
    assert run(["torus", "--gamma", "2", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "torus.json").read_text())
    assert payload["gamma"] == 2
    assert payload["dim"] == 6


def test_torus_csv_format(tmp_path):
    assert run(["torus", "--gamma", "4", "--format", "csv", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "torus.csv").read_text().splitlines()
    assert lines[0] == "gamma,k,h0,h1,expected"
    assert lines[1:] == ["2,4,0,6,6", "3,8,0,12,12", "4,12,0,18,18"]


def test_indicial_half_integer_grid(tmp_path):
    assert run(["indicial", "--lmax", "10", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "indicial.json").read_text())
    assert payload["aggregate"] == [m / 2.0 for m in range(-21, 22)]
    assert all(v * 2.0 == int(v * 2.0) and int(v * 2.0) % 2 for v in payload["restricted"])


def test_spectrum_lmax_zero_is_usage_error(tmp_path):
    assert run(["spectrum", "--lmax", "0", "--out", str(tmp_path)]) == 2


def test_spectrum_reports_grid_used(tmp_path):
    out = tmp_path / "run"
    assert run(["spectrum", "--t", "1", "--grid", "2000", "--lmax", "8", "--out", str(out)]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["config"]["grid"] == 2000
    assert [rep["n"] for rep in payload["reports"]] == [800]


def test_spectrum_and_fiducial_share_t_range(tmp_path, capsys):
    assert run(["spectrum", "--t", "2000", "--lmax", "8", "--out", str(tmp_path)]) == 2
    assert "outside the validity range" in capsys.readouterr().err
    assert not (tmp_path / "spectrum.json").exists()
    assert run(["fiducial", "--t", "2000", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", ["fiducial", "glue", "spectrum"])
def test_t_max_exits_zero(tmp_path, command):
    assert run([command, "--t", repr(T_MAX), "--lmax", "8", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("t", [np.nextafter(T_MAX, np.inf), np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("command", ["fiducial", "glue", "spectrum"])
def test_t_outside_range_exits_2_before_output(tmp_path, capsys, command, t):
    # rejected by the config check, before the output directory or the profile
    out = tmp_path / "run"
    assert run([command, f"--t={float(t)!r}", "--lmax", "8", "--out", str(out)]) == 2
    assert f"t={float(t)!r} outside the validity range" in capsys.readouterr().err
    assert not out.exists()


def test_glue_failure_names_t(tmp_path, capsys):
    # a tolerance below what the residual itself resolves (Newton stalls at
    # 4e-15 to 6e-15 for t = 1) makes Newton fail; the message must say where
    assert run(["glue", "--t", "1", "--tol", "1e-16", "--out", str(tmp_path)]) == 1
    assert "t=1" in capsys.readouterr().err


def test_glue_tol_is_the_gluing_tolerance_only(tmp_path, capsys, monkeypatch):
    # --tol drives the gluing Newton alone: a tolerance below what any profile
    # solve reaches fails in gluing, naming t, and every --tol shares the
    # profile solved at solve_connection's own tolerance
    from hitchinlab import painleve

    monkeypatch.setattr(painleve, "_SOLVED", {})
    assert run(["glue", "--t", "1", "--tol", "1e-17", "--out", str(tmp_path)]) == 1
    assert "t=1" in capsys.readouterr().err
    for tol in (["--tol", "1e-13"], ["--tol", "1e-14"], []):
        assert run(["glue", "--t", "1", *tol, "--out", str(tmp_path)]) == 0
    assert list(painleve._SOLVED) == [(painleve.DEFAULT_RHO_MIN, painleve.DEFAULT_RHO_MID,
                                       1e-12, 1e-13)]


def test_glue_default_t_exits_zero(tmp_path):
    # the default t list starts at t = 1
    assert run(["glue", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "glue.json").read_text())
    assert [row["t"] for row in payload["corrections"]] == [1, 2, 4, 8]
    assert all(row["residual_post"] < 1e-9 for row in payload["corrections"])


def test_reports_are_byte_identical(tmp_path):
    out = tmp_path / "a"
    snapshots = []
    for _ in range(2):
        assert run(["indicial", "--lmax", "6", "--out", str(out)]) == 0
        assert run(["torus", "--gamma", "3", "--out", str(out)]) == 0
        snapshots.append(((out / "indicial.json").read_bytes(),
                          (out / "torus.json").read_bytes()))
    assert snapshots[0] == snapshots[1]


def test_glue_writes_newton_logs(tmp_path):
    code = run(["glue", "--t", "2", "--t", "4", "--grid", "400", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "glue.json").read_text())
    assert len(payload["corrections"]) == 2
    assert payload["corrections"][0]["residual_post"] < 1e-8
    log = (tmp_path / "newton_t2.csv").read_text().splitlines()
    assert log[0] == "iteration,residual"
    assert len(log) > 2


def test_glue_grid_sets_the_decay_fit_grid(tmp_path, profile):
    ts = [2.0, 4.0, 6.0, 8.0]
    argv = [arg for t in ts for arg in ("--t", repr(t))]
    assert run(["glue", *argv, "--grid", "400", "--out", str(tmp_path)]) == 0
    fit = json.loads((tmp_path / "glue.json").read_text())["delta_fit"]
    delta, c, r2 = gluing.approx_error_sweep(ts, profile, gluing.CutoffProfile(), 400)
    assert (fit["delta_hat"], fit["c_hat"], fit["r_squared"]) == (delta, c, r2)


def test_fiducial_parallel_jobs_match_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    for out, jobs in ((serial, "1"), (parallel, "3")):
        code = run(["fiducial", "--t", "1", "--t", "2", "--t", "4",
                    "--jobs", jobs, "--out", str(out)])
        assert code == 0
    a = json.loads((serial / "fiducial_summary.json").read_text())
    b = json.loads((parallel / "fiducial_summary.json").read_text())
    assert a["families"] == b["families"]
    assert (serial / "fiducial_t2.csv").exists()


def test_config_file_merge_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": 5, "format": "csv"}))
    out = tmp_path / "out"
    assert run(["torus", "--config", str(cfg), "--gamma", "3", "--out", str(out)]) == 0
    payload = json.loads((out / "torus.json").read_text())
    assert payload["gamma"] == 3          # flag wins
    assert (out / "torus.csv").exists()   # config key still applies


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    assert run(["torus", "--config", str(cfg), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [
    ["solve-psi", "--tol", "nan"],
    ["fiducial", "--t", "nan"],
    ["spectrum", "--t", "nan", "--lmax", "8"],
])
def test_nan_flags_are_usage_errors(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("payload", [{"grid": "abc"}, {"t": 2}, [1, 2], {"lmax": True},
                                     {"gamma": 2.5}])
def test_malformed_config_is_usage_error(tmp_path, capsys, payload):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert run(["torus", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_config_values_take_flag_conversions(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": [2, 4], "gamma": "3", "tol": 1e-9}))
    out = tmp_path / "out"
    assert run(["torus", "--config", str(cfg), "--out", str(out)]) == 0
    config = json.loads((out / "torus.json").read_text())["config"]
    assert config["t"] == [2.0, 4.0] and config["gamma"] == 3 and config["tol"] == 1e-9


def test_solve_psi_determinism(tmp_path):
    out = tmp_path / "a"
    snapshots = []
    for _ in range(2):
        assert run(["solve-psi", "--out", str(out)]) == 0
        snapshots.append(((out / "psi.csv").read_bytes(),
                          (out / "summary.json").read_bytes()))
    assert snapshots[0] == snapshots[1]
