import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hitchinlab import gluing
from hitchinlab.cli import FLAGS, FLAG_TYPES, _build_parser, main
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


# scipy subpackages the package must not load: no command needs them, and
# they were the largest part of the cold import
UNLOADED = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.spatial",
            "scipy.fft", "scipy.sparse")


def test_solve_psi_loads_no_unneeded_scipy(tmp_path):
    # a fresh process, so that no other test's import counts; the check
    # follows a profile solve, a spectrum (eigen solves) and a glue (Newton),
    # so that a lazy import on any of their paths shows too
    runs = [["solve-psi"], ["spectrum", "--t", "1", "--lmax", "8", "--grid", "64"],
            ["glue", "--t", "2", "--grid", "400"]]
    script = (
        "import sys\n"
        "import hitchinlab, hitchinlab.cli\n"
        + "".join(f"assert hitchinlab.cli.main({[*argv, '--out', str(tmp_path)]!r}) == 0\n"
                  for argv in runs)
        + f"print([m for m in sys.modules if m.startswith({UNLOADED!r})])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert {"psi.csv", "spectrum.json", "glue.json"} <= {p.name for p in tmp_path.iterdir()}


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


@pytest.mark.parametrize("gamma", [2, 5])
def test_torus_builds_each_complex_once(tmp_path, monkeypatch, gamma):
    # the table's last row is gamma's own: dim is read off it, not rebuilt
    from hitchinlab import topology

    built, real = [], topology.build_complex
    monkeypatch.setattr(topology, "build_complex",
                        lambda *args, **kwargs: built.append(args) or real(*args, **kwargs))
    assert run(["torus", "--gamma", str(gamma), "--out", str(tmp_path)]) == 0
    assert built == [(g, 4 * g - 4) for g in range(2, gamma + 1)]
    assert json.loads((tmp_path / "torus.json").read_text())["dim"] == 6 * gamma - 6


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
    # each report's n is the Galerkin basis size its t chose, whatever --grid
    # says: the config records the flag, and the reports do not move
    reports = {}
    for grid in ("64", "2000"):
        out = tmp_path / grid
        argv = ["spectrum", "--t", "1", "--t", "100", "--grid", grid, "--lmax", "8"]
        assert run([*argv, "--out", str(out)]) == 0
        payload = json.loads((out / "spectrum.json").read_text())
        assert payload["config"]["grid"] == int(grid)
        reports[grid] = payload["reports"]
    assert reports["64"] == reports["2000"]
    assert [rep["n"] for rep in reports["64"]] == [24, 48]
    assert all(rep["lambda_2n_reldiff"] <= 1e-10 for rep in reports["64"])


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


# the largest subnormal t: rho = (8/3) t r^(3/2) would underflow to 0
SUBNORMAL_T = np.nextafter(np.finfo(float).tiny, 0.0)


@pytest.mark.parametrize("t", [np.nextafter(T_MAX, np.inf), np.nan, np.inf, 0.0, -1.0,
                               SUBNORMAL_T])
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

    solves, real = [], painleve._solve_connection
    monkeypatch.setattr(painleve, "_SOLVED", None)
    monkeypatch.setattr(painleve, "_solve_connection",
                        lambda *args: solves.append(args) or real(*args))
    assert run(["glue", "--t", "1", "--tol", "1e-17", "--out", str(tmp_path)]) == 1
    assert "t=1" in capsys.readouterr().err
    for tol in (["--tol", "1e-13"], ["--tol", "1e-14"], []):
        assert run(["glue", "--t", "1", *tol, "--out", str(tmp_path)]) == 0
    assert solves == [(painleve.SERIES_CUT, painleve.N_SOLVE)]


def test_glue_tol_sets_the_newton_tolerance(tmp_path):
    # Newton stops at the first residual below --tol; at t = 4 on 400 nodes
    # the residuals run 1.2e-1, 2.5e-8, 3e-15, so 1e-6 stops a step sooner
    logs = []
    for tol in ("1e-6", "1e-9"):
        out = tmp_path / tol
        assert run(["glue", "--t", "4", "--grid", "400", "--tol", tol, "--out", str(out)]) == 0
        logs.append((out / "newton_t4.csv").read_text())
    assert logs[0] != logs[1]
    assert len(logs[0].splitlines()) < len(logs[1].splitlines())


@pytest.mark.parametrize("command", ["fiducial", "glue", "spectrum"])
def test_empty_t_is_usage_error(tmp_path, capsys, command):
    # rejected by the config check, before the output directory or the profile
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t": []}))
    out = tmp_path / "run"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"{command}: no t given" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["glue", "--t", "2", "--t", "2", "--t", "2", "--t", "2"], "2"),
    (["fiducial", "--t", "1", "--t", "3", "--t", "1.0"], "1"),
    (["spectrum", "--t", "0.5", "--t", "4", "--t", "4", "--t", "0.5"], "0.5, 4"),
])
def test_repeated_t_is_usage_error(tmp_path, capsys, argv, named):
    out = tmp_path / "run"
    assert run([*argv, "--out", str(out)]) == 2
    assert f"{argv[0]}: t repeated: {named}" in capsys.readouterr().err
    assert not out.exists()


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


def test_glue_past_the_residual_floor_exits_1(tmp_path, capsys):
    # the glued residual stalls at t = 28 by 0.01% (1.0475e-12 against
    # 1.0474e-12 at t = 27), the rounding of the profile's nodes
    argv = [arg for t in range(24, 29) for arg in ("--t", str(t))]
    assert run(["glue", *argv, "--out", str(tmp_path)]) == 1
    assert "the norm at t=28 " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no report, no Newton log


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


def test_jobs_other_than_one_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    for argv in (["--jobs", "2"], ["--config", str(cfg)]):
        assert run(["fiducial", "--t", "2", *argv, "--out", str(tmp_path / "out")]) == 2
        assert "jobs must be 1, not 2: commands run serially" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags", [("fiducial", []), ("glue", ["--grid", "400"])])
def test_jobs_one_is_the_default(tmp_path, command, flags):
    # _outputs drops each report's config block, which records --out
    argv = [command, "--t", "1", "--t", "2", "--t", "4", *flags]
    for out, jobs in ((tmp_path / "default", []), (tmp_path / "one", ["--jobs", "1"])):
        assert run([*argv, *jobs, "--out", str(out)]) == 0
    assert _outputs(tmp_path / "default") == _outputs(tmp_path / "one")


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
    # --jobs, and spectrum's --grid, stay only for the benchmark's argv
    unread = {"out", "jobs", *(["grid"] if command == "spectrum" else [])}
    for name in set(FLAGS[command]) - unread:
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


@pytest.mark.parametrize("command, prefix", [("fiducial", "fiducial"), ("glue", "newton")])
def test_tiny_t_names_a_short_file(tmp_path, command, prefix):
    # the positional form of 1e-300 runs to 302 characters, past a file
    # name's 255 bytes; such a t is named in scientific form
    assert run([command, "--t", "1e-300", "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.glob(f"{prefix}_t*.csv")] == [f"{prefix}_t1e-300.csv"]


def test_solve_psi_determinism(tmp_path):
    out = tmp_path / "a"
    snapshots = []
    for _ in range(2):
        assert run(["solve-psi", "--out", str(out)]) == 0
        snapshots.append(((out / "psi.csv").read_bytes(),
                          (out / "summary.json").read_bytes()))
    assert snapshots[0] == snapshots[1]


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_a_call_builds_only_its_commands_parser(monkeypatch, command):
    registered = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        registered.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert registered == [command]
    registered.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert registered == list(FLAGS)


# the two errors that only the full parser gives; both name the command argument
COMMAND_ERRORS = {
    (): "error: the following arguments are required: command\n",
    ("bogus",): "error: argument command: invalid choice: 'bogus'",
}


def _exit(parse, argv, capsys):
    """Exit code, stdout and stderr of a parse that exits, as argparse does
    on --help and on a usage error."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["--help"],
    *[[command, "--help"] for command in FLAGS],
    *[[command, "--bogus"] for command in FLAGS],
    ["glue", "--tol", "x"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_texts_are_the_full_parsers(capsys, argv):
    full = _exit(_build_parser(None).parse_args, argv, capsys)
    assert _exit(main, argv, capsys) == full
    if argv[1:] == ["--bogus"]:
        # the top-level usage line lists every command, not only the one parsed
        assert full[2].startswith(
            "usage: hitchinlab [-h] {solve-psi,fiducial,spectrum,indicial,glue,torus} ...\n")
    if tuple(argv) in COMMAND_ERRORS:
        assert COMMAND_ERRORS[tuple(argv)] in full[2]


@pytest.mark.parametrize("items", [
    [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e308, -1e-308, 0.1, 1 / 3],
    (2.5,),
    [1, 2.0, np.float64(0.1), -3, np.float64(-0.0), 1e308],
])
def test_json_lists_write_each_float_with_17_digits(items):
    from hitchinlab.cli import _emit_json

    for indent in (0, 2):
        pad = "  " * indent
        lines = [f"{pad}  {format(v, '.17g') if isinstance(v, float) else v}" for v in items]
        assert _emit_json(items, indent) == "[\n" + ",\n".join(lines) + f"\n{pad}]"
