import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hitchinlab import gluing
from hitchinlab.cli import FLAGS, FLAG_TYPES, main
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


# scipy subpackages the package must not load: they were the largest part
# of the cold import, and only the shooting profile solve needed two of them
UNLOADED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.spatial",
            "scipy.fft")


def test_solve_psi_loads_no_unneeded_scipy(tmp_path):
    # a fresh process, so that no other test's import counts; the check
    # follows a profile solve, so that a lazy import inside it shows too
    script = (
        "import sys\n"
        "import hitchinlab, hitchinlab.cli\n"
        f"assert hitchinlab.cli.main(['solve-psi', '--out', {str(tmp_path)!r}]) == 0\n"
        f"print([m for m in sys.modules if m.startswith({UNLOADED!r})])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "psi.csv").exists()


def test_zero_tolerance_is_usage_error(tmp_path, capsys):
    assert run(["glue", "--tol", "0", "--out", str(tmp_path)]) == 2
    assert "tolerance" in capsys.readouterr().err


def test_output_dir_created_or_rejected(tmp_path):
    target = tmp_path / "fresh"
    assert run(["torus", "--out", str(target)]) == 0
    assert (target / "torus.json").exists()
    orphan = tmp_path / "missing" / "child"
    assert run(["torus", "--out", str(orphan)]) == 2


@pytest.mark.parametrize("command", ["torus", "glue"])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, command):
    # rejected before any work: the file is left as it was
    target = tmp_path / "somefile"
    target.write_text("keep")
    assert run([command, "--out", str(target)]) == 2
    assert "output directory" in capsys.readouterr().err
    assert target.read_text() == "keep"


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


def test_spectrum_lmax_zero_is_usage_error(tmp_path, capsys):
    # green_norms needs ell_max >= 8; the config check says so before any output
    out = tmp_path / "run"
    for lmax in ("0", "7"):
        assert run(["spectrum", "--t", "1", "--lmax", lmax, "--out", str(out)]) == 2
        assert "lmax must be at least 8" in capsys.readouterr().err
        assert not out.exists()


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


# the fewest modes spectrum takes, so that it runs fast; the others take no --lmax
LMAX_FLAGS = {"fiducial": [], "glue": [], "spectrum": ["--lmax", "8"]}


@pytest.mark.parametrize("command", ["fiducial", "glue", "spectrum"])
def test_t_max_exits_zero(tmp_path, command):
    assert run([command, "--t", repr(T_MAX), *LMAX_FLAGS[command], "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("t", [np.nextafter(T_MAX, np.inf), np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("command", ["fiducial", "glue", "spectrum"])
def test_t_outside_range_exits_2_before_output(tmp_path, capsys, command, t):
    # rejected by the config check, before the output directory or the profile
    out = tmp_path / "run"
    assert run([command, f"--t={float(t)!r}", *LMAX_FLAGS[command], "--out", str(out)]) == 2
    assert f"t={float(t)!r} outside the validity range" in capsys.readouterr().err
    assert not out.exists()


def test_glue_failure_names_t(tmp_path, capsys):
    # a tolerance below what the residual itself resolves (Newton stalls at
    # 4e-15 to 6e-15 for t = 1) makes Newton fail; the message must say where
    assert run(["glue", "--t", "1", "--tol", "1e-16", "--out", str(tmp_path)]) == 1
    assert "t=1" in capsys.readouterr().err


def test_glue_tol_is_the_gluing_tolerance_only(tmp_path, capsys, monkeypatch):
    # --tol drives the gluing Newton alone: a tolerance below what the
    # residual resolves fails in gluing, naming t, and every --tol shares
    # the one default profile
    from hitchinlab import painleve

    monkeypatch.setattr(painleve, "_SOLVED", {})
    assert run(["glue", "--t", "1", "--tol", "1e-17", "--out", str(tmp_path)]) == 1
    assert "t=1" in capsys.readouterr().err
    for tol in (["--tol", "1e-13"], ["--tol", "1e-14"], []):
        assert run(["glue", "--t", "1", *tol, "--out", str(tmp_path)]) == 0
    assert list(painleve._SOLVED) == [(painleve.DEFAULT_RHO_MIN, painleve.N_SOLVE)]


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


def test_glue_builds_each_glued_state_once(tmp_path, monkeypatch):
    # the Newton repair and the decay fit share one glued state per t
    built = []
    glued = gluing._glued

    def counted(t, *args, **kwargs):
        built.append(t)
        return glued(t, *args, **kwargs)

    monkeypatch.setattr(gluing, "_glued", counted)
    ts = ["2", "4", "6", "8"]
    assert run(["glue", *[f"--t={t}" for t in ts], "--grid", "400", "--out", str(tmp_path)]) == 0
    assert built == [2.0, 4.0, 6.0, 8.0]
    assert sorted(p.name for p in tmp_path.glob("newton_t*.csv")) == [
        f"newton_t{t}.csv" for t in ts]
    assert json.loads((tmp_path / "glue.json").read_text())["delta_fit"] is not None


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
    ["glue", "--tol", "nan"],
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
    # each key goes to a command that takes it, so that its value is what fails
    command = next(c for c in FLAGS if isinstance(payload, list) or set(payload) <= set(FLAGS[c]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    assert run([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert isinstance(payload, list) or "invalid value" in err
    assert not (tmp_path / "out").exists()


def test_config_values_take_flag_conversions(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": [2, 4], "grid": "400", "tol": 1e-9}))
    out = tmp_path / "out"
    assert run(["glue", "--config", str(cfg), "--out", str(out)]) == 0
    config = json.loads((out / "glue.json").read_text())["config"]
    assert config["t"] == [2.0, 4.0] and config["grid"] == 400 and config["tol"] == 1e-9
    cfg.write_text(json.dumps({"gamma": "3"}))
    assert run(["torus", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "torus.json").read_text())["config"]["gamma"] == 3


# a value for every flag, small enough that every command runs fast, and a
# second value for each flag that a command reads: glue at t = 2 on 400 nodes
# takes one more Newton step at tol 1e-13 than at 1e-9
FLAG_VALUES = {"t": "2", "grid": "400", "lmax": "8", "tol": "1e-9", "jobs": "1",
               "format": "json", "gamma": "2"}
OTHER_VALUES = {"t": "1", "grid": "500", "lmax": "9", "tol": "1e-13", "format": "csv",
                "gamma": "3"}
REPORTS = {"solve-psi": "summary.json", "fiducial": "fiducial_summary.json",
           "spectrum": "spectrum.json", "indicial": "indicial.json", "glue": "glue.json",
           "torus": "torus.json"}


def _outputs(out):
    """Every file under out, with each JSON report's config block dropped."""
    files = {}
    for path in sorted(out.iterdir()):
        data = path.read_text()
        if path.suffix == ".json":
            data = {k: v for k, v in json.loads(data).items() if k != "config"}
        files[path.name] = data
    return files


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_each_command_takes_the_flags_it_reads(tmp_path, capsys, command):
    # the flags a command accepts are the keys its report's config records;
    # each it reads changes more than that block, and any other flag, or
    # config key, is a usage error
    def argv(values, out):
        return [command, *[f"--{name}={values[name]}" for name in FLAGS[command] if name != "out"],
                "--out", str(out)]

    base = tmp_path / "base"
    assert run(argv(FLAG_VALUES, base)) == 0
    config = json.loads((base / REPORTS[command]).read_text())["config"]
    assert set(config) == {"command", *FLAGS[command]}
    assert config["command"] == command and config["out"] == str(base)
    for name in set(FLAGS[command]) - {"out", "jobs"}:
        out = tmp_path / name
        assert run(argv({**FLAG_VALUES, name: OTHER_VALUES[name]}, out)) == 0
        assert _outputs(out) != _outputs(base), name
    for name in set(FLAG_TYPES) - set(FLAGS[command]):
        with pytest.raises(SystemExit) as exc:
            run([command, f"--{name}={FLAG_VALUES[name]}", "--out", str(base)])
        assert exc.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({name: FLAG_VALUES[name]}))
        assert run([command, "--config", str(cfg), "--out", str(base)]) == 2
        assert f"not a flag of {command}" in capsys.readouterr().err


def test_artifact_names_keep_every_digit_of_t(tmp_path):
    # integer t keeps its name; close values get two files, each naming its t
    ts = ["1", "1.000001", "2.0734512345678"]
    assert run(["fiducial", *[f"--t={t}" for t in ts], "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.glob("fiducial_t*.csv"))
    assert names == sorted(f"fiducial_t{t}.csv" for t in ts)
    assert (tmp_path / "fiducial_t1.csv").read_bytes() != (
        tmp_path / "fiducial_t1.000001.csv").read_bytes()


def test_solve_psi_determinism(tmp_path):
    out = tmp_path / "a"
    snapshots = []
    for _ in range(2):
        assert run(["solve-psi", "--out", str(out)]) == 0
        snapshots.append(((out / "psi.csv").read_bytes(),
                          (out / "summary.json").read_bytes()))
    assert snapshots[0] == snapshots[1]
