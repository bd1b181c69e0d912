"""The report-drift tool, on synthetic pairs of report trees."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
PATH = TOOLS / "drift.py"
spec = importlib.util.spec_from_file_location("drift", PATH)
drift = importlib.util.module_from_spec(spec)
spec.loader.exec_module(drift)

REPORT = {"config": {"t": [1.0, 8.0], "out": "x"},
          "reports": [{"t": 1.0, "n": 24, "lambda_min": [8.25, 8.25, 18.5]},
                      {"t": 8.0, "n": 24, "lambda_min": [9.75, 9.75, 20.0]}]}
CSV = "rho,psi\n0.5,1.25\n1.0,0.75\n"


def _trees(tmp_path, new_report=REPORT, new_csv=CSV):
    """(old, new) directories, each with spectrum.json and psi.csv."""
    for name, report, table in (("old", REPORT, CSV), ("new", new_report, new_csv)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "spectrum.json").write_text(json.dumps(report))
        (tmp_path / name / "psi.csv").write_text(table)
    return tmp_path / "old", tmp_path / "new"


def _by_field(rows):
    return {(name, field): rest for name, field, *rest in rows}


def test_identical_trees_are_identical_field_by_field(tmp_path):
    rows = drift.drift(*_trees(tmp_path))
    assert {status for _, field, status, *_ in rows if field != "(bytes identical)"} == {
        "identical"}
    assert [(name, field) for name, field, *_ in rows] == [
        ("psi.csv", "(bytes identical)"), ("psi.csv", "psi"), ("psi.csv", "rho"),
        ("spectrum.json", "(bytes identical)"), ("spectrum.json", "config.out"),
        ("spectrum.json", "config.t[]"), ("spectrum.json", "reports[].lambda_min[]"),
        ("spectrum.json", "reports[].n"), ("spectrum.json", "reports[].t")]
    assert _by_field(rows)[("psi.csv", "(bytes identical)")] == ["yes", "", ""]
    assert drift.format_table(rows).count("\n") == len(rows) + 1


def test_drifting_float_reports_its_largest_drift_and_place(tmp_path):
    new = json.loads(json.dumps(REPORT))
    new["reports"][0]["lambda_min"][2] = 18.5 + 1e-3
    new["reports"][1]["lambda_min"][0] = 9.75 * (1.0 + 1e-6)
    rows = _by_field(drift.drift(*_trees(tmp_path, new, "rho,psi\n0.5,1.25\n1.0,0.5\n")))
    status, max_abs, max_rel = rows[("spectrum.json", "reports[].lambda_min[]")]
    assert status == "2 of 6 differ"
    assert max_abs == f"{1e-3:.2e} at reports[0].lambda_min[2]"
    assert max_rel == f"{1e-3 / 18.5:.2e} at reports[0].lambda_min[2]"
    assert rows[("psi.csv", "psi")] == ["1 of 2 differ", "2.50e-01 at psi row 2",
                                       "3.33e-01 at psi row 2"]
    assert rows[("spectrum.json", "reports[].n")][0] == "identical"


def test_values_that_parse_equal_with_other_bytes_are_not_byte_identical(tmp_path):
    # "1.0" and "1.00", 0.5 and 5e-1, and another JSON spacing parse to the
    # same values: every field reads identical, the bytes row says no
    rows = _by_field(drift.drift(*_trees(tmp_path, REPORT, "rho,psi\n5e-1,1.25\n1.00,0.75\n")))
    (tmp_path / "new" / "spectrum.json").write_text(json.dumps(REPORT, indent=1))
    spaced = _by_field(drift.drift(tmp_path / "old", tmp_path / "new"))
    for table, name in ((rows, "psi.csv"), (spaced, "spectrum.json")):
        assert table[(name, "(bytes identical)")] == ["no", "", ""]
        assert {status for (file, field), (status, *_) in table.items()
                if file == name and field != "(bytes identical)"} == {"identical"}


def test_missing_key_and_file_are_one_sided(tmp_path):
    new = json.loads(json.dumps(REPORT))
    del new["reports"][1]["n"]
    for rep in new["reports"]:
        rep["lambda_2n_reldiff"] = 1e-14
    old, new_dir = _trees(tmp_path, new)
    (new_dir / "psi.csv").unlink()
    rows = _by_field(drift.drift(old, new_dir))
    assert rows[("spectrum.json", "reports[].n")][0] == "1 only in old"
    assert rows[("spectrum.json", "reports[].lambda_2n_reldiff")] == ["2 only in new", "", ""]
    assert rows[("psi.csv", "(file)")] == ["only in old", "", ""]


def test_reordered_list_is_drift(tmp_path):
    new = json.loads(json.dumps(REPORT))
    new["config"]["t"] = [8.0, 1.0]
    new["config"]["out"] = "y"
    rows = _by_field(drift.drift(*_trees(tmp_path, new)))
    status, max_abs, max_rel = rows[("spectrum.json", "config.t[]")]
    assert status == "2 of 2 differ"
    assert max_abs == "7.00e+00 at config.t[0]" and max_rel == "7.00e+00 at config.t[0]"
    # a string that changes is counted, with no numeric drift
    assert rows[("spectrum.json", "config.out")] == ["1 of 1 differ", "", ""]


def test_main_rejects_a_missing_directory(tmp_path, capsys):
    with pytest.raises(SystemExit):
        drift.main([str(tmp_path), str(tmp_path / "absent")])
    assert "is not a directory" in capsys.readouterr().err


def test_main_takes_either_base_or_two_directories(tmp_path, capsys):
    for argv in (["--base", "HEAD", str(tmp_path)], [str(tmp_path)]):
        with pytest.raises(SystemExit):
            drift.main(argv)
    assert "either --base or two directories" in capsys.readouterr().err


# a stand-in for the package's command line: one cheap report per call
FAKE_CLI = """import json, sys
from pathlib import Path
VALUE = 1.0
args = sys.argv[1:]
out = Path(args[args.index("--out") + 1])
out.mkdir()
(out / "report.json").write_text(json.dumps({"argv": args, "value": VALUE}))
"""
# stand-ins for the modules the library runs call
FAKE_LIBRARY = {
    "painleve.py": "def solve_connection():\n    return None\n",
    "fiducial.py": """def build_family(t, profile):
    return t
def default_grid():
    return None
""",
    "gluing.py": """from types import SimpleNamespace
def build_glued(t, family, n, r_min):
    return None
def newton_correct(state, tol):
    return SimpleNamespace(iterations=2, residual_history=[1.0, 1e-3, 1e-11])
def corrected_solution_check(state, result):
    return {"residual_post": 1e-11, "sup_u": 0.25}
def approx_error_sweep(t_list, profile):
    return 1.25, 2.5, 0.75
def glued_on_grid(t, profile, n):
    return t
def neumann_zero_mode_eigenvalue(state):
    return 0.5 * state
""",
    "linearized.py": """from types import SimpleNamespace
import numpy as np
def green_norms(ts, ell_max, profile):
    return [SimpleNamespace(to_dict=lambda t=t: {"t": t, "l": list(range(ell_max + 1))})
            for t in ts]
def assemble_scalar(ell, n):
    return n
def smallest_eigenvalue(op):
    return 1.0 / op
def conic_poisson_solve(nu, rhs, delta, n):
    r = np.linspace(0.5, 1.0, n)
    return SimpleNamespace(r=r, u=rhs(r))
""",
    "gauge.py": """def verify_orbit_finite_t(t, family):
    return 1e-16 * t
def verify_orbit_limiting(r):
    return 5e-16
""",
}


def _case_files(name):
    return {f"{name}/newton_t{t:g}_n{n}_rmin{r_min:g}.json"
            for t in drift.NEWTON_GRID_T for n, r_min in drift.NEWTON_GRID_MESH}


# the report of each one-file library run
LIBRARY_FILES = {"lib-green-norms": "green_norms.json", "bench-orbits": "orbits.json",
                 "lib-approx-error": "approx_error.json", "lib-fd-eigen": "fd_eigen.json"}


def test_base_runs_every_argv_in_both_trees(tmp_path):
    # a throwaway repository: the base revision writes value 1.0, the
    # working tree's uncommitted edit 1.5
    repo = tmp_path / "repo"
    (repo / "tools").mkdir(parents=True)
    for tool in ("drift.py", "bench_ab.py"):
        shutil.copy(TOOLS / tool, repo / "tools" / tool)
    package = repo / "src" / "hitchinlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI)
    for module, source in FAKE_LIBRARY.items():
        (package / module).write_text(source)
    (repo / ".gitignore").write_text("__pycache__/\n")
    git = ["git", "-c", "user.name=test", "-c", "user.email=test@example.com",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "files"]):
        subprocess.run([*git, *args], cwd=repo, check=True, capture_output=True)
    (package / "cli.py").write_text(FAKE_CLI.replace("VALUE = 1.0", "VALUE = 1.5"))
    done = subprocess.run([sys.executable, "tools/drift.py", "--base", "HEAD"], cwd=repo,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [[cell.strip("| `") for cell in line.split(" | ")]
            for line in done.stdout.splitlines()[2:]]
    commands = [name for name, run in drift.RUNS.items() if not callable(run)]
    library = {f"{name}/{file}" for name, file in LIBRARY_FILES.items()}
    assert {row[0] for row in rows} == ({f"{name}/report.json" for name in commands}
                                        | _case_files("bench-newton-grid") | library)
    for name, field, status, *drifts in rows:
        if name.startswith("bench-newton-grid/") or name in library:  # not edited
            assert status == ("yes" if field == "(bytes identical)" else "identical")
        elif field == "value":
            assert status == "1 of 1 differ" and drifts[0] == "5.00e-01 at value"
        elif field == "(bytes identical)":
            assert status == "no"
        else:
            assert field == "argv[]" and status == "identical"
    assert not list(repo.glob("drift_out*"))  # both trees were temporary


def test_newton_grid_writes_one_report_per_case(tmp_path, monkeypatch, profile):
    from hitchinlab import fiducial, gluing

    monkeypatch.setattr(drift, "NEWTON_GRID_T", (2.0, 4.0))
    monkeypatch.setattr(drift, "NEWTON_GRID_MESH", ((400, 1e-3),))
    drift.newton_grid(str(tmp_path / "grid"))
    assert {p.relative_to(tmp_path).as_posix() for p in (tmp_path / "grid").iterdir()} == (
        _case_files("grid"))
    state = gluing.build_glued(4.0, fiducial.build_family(4.0, profile), n=400, r_min=1e-3)
    result = gluing.newton_correct(state, tol=1e-10)
    check = gluing.corrected_solution_check(state, result)
    report = json.loads((tmp_path / "grid" / "newton_t4_n400_rmin0.001.json").read_text())
    assert report == {"t": 4.0, "n": 400, "r_min": 1e-3, "iterations": result.iterations,
                      "residual_history": result.residual_history,
                      "residual_post": check["residual_post"], "sup_u": check["sup_u"]}


def _library_report(name, out):
    """The one report that the library run ``RUNS[name]`` writes under ``out``."""
    drift.RUNS[name](str(out))
    assert [p.name for p in out.iterdir()] == [LIBRARY_FILES[name]]
    return json.loads((out / LIBRARY_FILES[name]).read_text())


def test_green_norms_run_writes_the_sweeps_reports(tmp_path, monkeypatch, profile):
    from hitchinlab import linearized

    monkeypatch.setattr(drift, "GREEN_NORMS_T", (1.0, 8.0))
    reports = linearized.green_norms((1.0, 8.0), drift.GREEN_NORMS_LMAX, profile)
    assert _library_report("lib-green-norms", tmp_path / "g") == {
        "reports": json.loads(json.dumps([rep.to_dict() for rep in reports]))}


def test_orbits_run_writes_each_check(tmp_path, monkeypatch, profile):
    from hitchinlab import fiducial, gauge

    monkeypatch.setattr(drift, "ORBIT_T", (2.0,))
    family = fiducial.build_family(2.0, profile)
    assert _library_report("bench-orbits", tmp_path / "o") == {
        "t": [2.0], "finite_t": [gauge.verify_orbit_finite_t(2.0, family)],
        "limiting": gauge.verify_orbit_limiting(fiducial.default_grid())}


def test_approx_error_run_writes_the_fit(tmp_path, monkeypatch, profile):
    from hitchinlab import gluing

    monkeypatch.setattr(drift, "APPROX_T", (2.0, 3.0, 4.0, 5.0))
    delta, c, r2 = gluing.approx_error_sweep((2.0, 3.0, 4.0, 5.0), profile)
    assert _library_report("lib-approx-error", tmp_path / "a") == {
        "t": [2.0, 3.0, 4.0, 5.0], "delta_hat": delta, "c_hat": c, "r_squared": r2}


def test_fd_eigen_run_writes_the_fd_values(tmp_path, monkeypatch, profile):
    import numpy as np

    from hitchinlab import gluing, linearized

    monkeypatch.setattr(drift, "FD_ORACLE_N", (100, 200))
    monkeypatch.setattr(drift, "FD_NEUMANN_T", (2.0,))
    monkeypatch.setattr(drift, "FD_CONIC_N", 400)
    oracle = [linearized.smallest_eigenvalue(linearized.assemble_scalar(0, n)) for n in (100, 200)]
    state = gluing.glued_on_grid(2.0, profile, 2000)
    sol = linearized.conic_poisson_solve(0.5, lambda r: np.sin(5.0 * r), 1.0, 400)
    assert _library_report("lib-fd-eigen", tmp_path / "f") == {
        "oracle_n": [100, 200], "oracle_lambda": oracle,
        "neumann_t": [2.0], "neumann_lambda": [gluing.neumann_zero_mode_eigenvalue(state)],
        "conic_r": sol.r[::drift.FD_CONIC_STRIDE].tolist(),
        "conic_u": sol.u[::drift.FD_CONIC_STRIDE].tolist()}


def _workload(monkeypatch):
    """bench/workload.py, loaded with bench/ on the path."""
    bench = TOOLS.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("workload", bench / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    return workload


def test_bench_runs_are_the_argv_the_benchmark_passes_at_seed_0(monkeypatch):
    # record the argv bench/workload.py hands to cli.main at seed 0, and run
    # no command and no library call
    from hitchinlab import cli

    workload = _workload(monkeypatch)
    passed = []
    monkeypatch.setattr(cli, "main", lambda argv: passed.append(argv[:-2]) or 1)

    class Recording(workload.Run):
        def call(self, name, fn, *args, **kwargs):
            return None

    for name, run_workload in workload.WORKLOADS.items():
        run_workload(Recording(workload.ROOT / "unused", RuntimeError), None)
    # the benchmark's solve-psi is the README's, which runs on one job anyway
    runs = [argv[:-2] if argv[-2:] == ["--jobs", "1"] else argv
            for argv in drift.RUNS.values() if not callable(argv)]
    assert len(passed) == 6
    for argv in passed:
        assert argv[-2:] == ["--jobs", "1"] and argv[:-2] in runs


def test_orbit_run_is_the_benchmarks(monkeypatch, profile):
    # record the library calls of the benchmark's profile_reports at seed 0,
    # with the real profile and no command, orbit check or Newton step
    from hitchinlab import cli, fiducial, gauge

    workload = _workload(monkeypatch)
    monkeypatch.setattr(cli, "main", lambda argv: 1)
    calls = []

    class Recording(workload.Run):
        def call(self, name, fn, *args, **kwargs):
            calls.append((fn, args))
            return profile if name == "library.solve_connection" else None

    workload.profile_reports(Recording(workload.ROOT / "unused", RuntimeError), None)
    finite = [args[0] for fn, args in calls if fn is gauge.verify_orbit_finite_t]
    (limiting,) = [args for fn, args in calls if fn is gauge.verify_orbit_limiting]
    assert finite == list(drift.ORBIT_T)
    assert len(limiting) == 1 and limiting[0] is fiducial.default_grid()
    assert drift.RUNS["bench-orbits"] is drift.orbits


def test_newton_grid_is_the_benchmarks(monkeypatch):
    workload = _workload(monkeypatch)
    assert drift.RUNS["bench-newton-grid"] is drift.newton_grid
    assert drift.NEWTON_GRID_T == workload.NEWTON_GRID_T
    assert drift.NEWTON_GRID_MESH == workload.NEWTON_GRID_MESH
