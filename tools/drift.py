"""Field-by-field drift between two trees of reports.

Usage (from the root of a checkout):

    python3 tools/drift.py OLD_DIR NEW_DIR
    python3 tools/drift.py --base REV

Every ``*.json`` and ``*.csv`` file under either directory is compared with
the file at the same relative path under the other.  A JSON field is a key
path with its list indices written ``[]`` (``reports[].lambda_min[]``), a
CSV field is a column; each value of a field sits at one place (the path
with its indices, or the CSV row).  The output is a Markdown table with one
row per field: "identical" when every value is the same float or string
on both sides, else how many of its values differ or exist on one side
only, and for numbers the largest absolute and relative drift, each with
the place where it occurs.  A list compares index by index, so reordering
one is drift.  Each file on both sides also gets a "(bytes identical)" row,
"yes" or "no": values that parse equal ("1.0" and "1.00") are identical
field by field while the bytes differ.

With ``--base REV`` the tool makes the two trees itself with
``tools/bench_ab.py``'s ``make_trees`` (a ``git archive`` of REV and a copy
of the working tree's tracked and untracked files), runs every argv of
``RUNS`` in each copy with ``--out drift_out/<name>``, and compares the two
``drift_out`` directories.  A ``RUNS`` entry that is a function of this
module is a library run: it is called in a child process that imports the
tree's package, with ``drift_out/<name>`` as its output directory.  A command
that fails on either side stops the tool.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ONLY_OLD, ONLY_NEW = "only in old", "only in new"
OUT = "drift_out"
TOOLS = Path(__file__).resolve().parent
# bench/workload.py's Newton refinement grid, run at tol 1e-10 (a Tier-1 test
# checks it against the benchmark's)
NEWTON_GRID_T = (1.0, 2.0, 4.0, 24.0)
NEWTON_GRID_MESH = ((2000, 1e-3), (8000, 1e-3), (2000, 1e-4))
# the Green-norm sweep of ROADMAP item 5's table, which no command runs
GREEN_NORMS_T = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 100.0, 1000.0)
GREEN_NORMS_LMAX = 32
# bench/workload.py's orbit checks at seed 0 (a Tier-1 test checks them
# against the benchmark's)
ORBIT_T = (1.0, 2.0, 4.0, 8.0, 16.0, 24.0)
# the glued residuals' decay fit over the t of the README's and the
# benchmark's glue
APPROX_T = tuple(float(t) for t in range(2, 11))
# the finite-difference eigen solves and conic solve, which no report carries:
# the Bessel oracle's grids (the benchmark's oracle.n*), the glued Neumann
# zero mode's t, and the conic solve's grid and the stride of its samples
FD_ORACLE_N = (500, 1000, 2000)
FD_NEUMANN_T = (1.0, 4.0, 8.0)
FD_CONIC_N, FD_CONIC_STRIDE = 800, 100


def _write_json(out: str, name: str, report) -> None:
    """``report`` as ``out/name``, in a new directory ``out``."""
    out = Path(out)
    out.mkdir(parents=True)
    (out / name).write_text(json.dumps(report, indent=1), encoding="utf-8")


def newton_grid(out: str) -> None:
    """The benchmark's Newton refinement grid through the library: one JSON
    per case under ``out``, with its iterations, residual history,
    ``residual_post`` and ``sup_u``."""
    from hitchinlab import fiducial, gluing, painleve

    out = Path(out)
    out.mkdir(parents=True)
    profile = painleve.solve_connection()
    for t in NEWTON_GRID_T:
        family = fiducial.build_family(t, profile)
        for n, r_min in NEWTON_GRID_MESH:
            state = gluing.build_glued(t, family, n=n, r_min=r_min)
            result = gluing.newton_correct(state, tol=1e-10)
            check = gluing.corrected_solution_check(state, result)
            report = {"t": t, "n": n, "r_min": r_min, "iterations": result.iterations,
                      "residual_history": result.residual_history,
                      "residual_post": check["residual_post"], "sup_u": check["sup_u"]}
            path = out / f"newton_t{t:g}_n{n}_rmin{r_min:g}.json"
            path.write_text(json.dumps(report, indent=1), encoding="utf-8")


def green_norms(out: str) -> None:
    """``linearized.green_norms`` over ``GREEN_NORMS_T`` at lmax
    ``GREEN_NORMS_LMAX``: ``green_norms.json`` under ``out``, each t's
    report as ``spectrum.json`` writes it."""
    from hitchinlab import linearized, painleve

    reports = linearized.green_norms(GREEN_NORMS_T, GREEN_NORMS_LMAX,
                                     painleve.solve_connection())
    _write_json(out, "green_norms.json", {"reports": [rep.to_dict() for rep in reports]})


def orbits(out: str) -> None:
    """The benchmark's orbit checks: ``orbits.json`` under ``out``, with the
    discrepancy of ``gauge.verify_orbit_finite_t`` at each of ``ORBIT_T``
    and of ``gauge.verify_orbit_limiting``, on the default grids."""
    from hitchinlab import fiducial, gauge, painleve

    profile = painleve.solve_connection()
    finite = [gauge.verify_orbit_finite_t(t, fiducial.build_family(t, profile)) for t in ORBIT_T]
    limiting = gauge.verify_orbit_limiting(fiducial.default_grid())
    _write_json(out, "orbits.json", {"t": list(ORBIT_T), "finite_t": finite, "limiting": limiting})


def approx_error_sweep(out: str) -> None:
    """``gluing.approx_error_sweep`` over ``APPROX_T``: ``approx_error.json``
    under ``out``, with its delta_hat, c_hat and r_squared."""
    from hitchinlab import gluing, painleve

    delta, c, r2 = gluing.approx_error_sweep(APPROX_T, painleve.solve_connection())
    _write_json(out, "approx_error.json", {"t": list(APPROX_T), "delta_hat": delta,
                                           "c_hat": c, "r_squared": r2})


def fd_eigen(out: str) -> None:
    """The finite-difference layer: ``fd_eigen.json`` under ``out``, with the
    Bessel oracle's ``smallest_eigenvalue(assemble_scalar(0, n))`` at each of
    ``FD_ORACLE_N``, ``neumann_zero_mode_eigenvalue`` of the glued state on
    2000 nodes at each of ``FD_NEUMANN_T``, and every ``FD_CONIC_STRIDE``-th
    node r and value u of ``conic_poisson_solve(0.5, sin 5r, 1.0, FD_CONIC_N)``."""
    import numpy as np

    from hitchinlab import gluing, linearized, painleve

    profile = painleve.solve_connection()
    oracle = [linearized.smallest_eigenvalue(linearized.assemble_scalar(0, n))
              for n in FD_ORACLE_N]
    neumann = [gluing.neumann_zero_mode_eigenvalue(gluing.glued_on_grid(t, profile, 2000))
               for t in FD_NEUMANN_T]
    sol = linearized.conic_poisson_solve(0.5, lambda r: np.sin(5.0 * r), 1.0, FD_CONIC_N)
    picked = slice(None, None, FD_CONIC_STRIDE)
    _write_json(out, "fd_eigen.json", {
        "oracle_n": list(FD_ORACLE_N), "oracle_lambda": oracle,
        "neumann_t": list(FD_NEUMANN_T), "neumann_lambda": neumann,
        "conic_r": sol.r[picked].tolist(), "conic_u": sol.u[picked].tolist()})

# the fixed list --base runs, by output name; extend it, never shrink it.
# The README's six commands, then the benchmark's argv of the commands
# (bench/workload.py at seed 0, which keeps the README's t values; a Tier-1
# test checks them against what the benchmark passes), then library runs
RUNS = {
    "readme-solve-psi": ["solve-psi"],
    "readme-fiducial": ["fiducial", "--t", "1", "--t", "4"],
    "readme-spectrum": ["spectrum", "--t", "1", "--t", "2", "--lmax", "16"],
    "readme-indicial": ["indicial", "--lmax", "10"],
    "readme-glue": ["glue", "--t", "2", "--t", "4", "--t", "6", "--t", "8"],
    "readme-torus": ["torus", "--gamma", "4", "--format", "csv"],
    "bench-spectrum": ["spectrum", "--t", "1.0", "--t", "2.0", "--t", "4.0", "--t", "8.0",
                       "--lmax", "32", "--grid", "600", "--jobs", "1"],
    "bench-fiducial": ["fiducial", *(a for t in (1, 2, 4, 8, 16, 24) for a in ("--t", f"{t}.0")),
                       "--jobs", "1"],
    "bench-glue": ["glue", *(a for t in range(2, 11) for a in ("--t", f"{t}.0")), "--jobs", "1"],
    "bench-indicial": ["indicial", "--lmax", "32", "--jobs", "1"],
    "bench-torus": ["torus", "--gamma", "14", "--format", "csv", "--jobs", "1"],
    "bench-newton-grid": newton_grid,
    "lib-green-norms": green_norms,
    "bench-orbits": orbits,
    "lib-approx-error": approx_error_sweep,
    "lib-fd-eigen": fd_eigen,
}


def _json_values(obj, field: str = "", place: str = ""):
    """(field, place, value) for every leaf of a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _json_values(value, f"{field}.{key}" if field else key,
                                    f"{place}.{key}" if place else key)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _json_values(value, f"{field}[]", f"{place}[{i}]")
    else:
        yield field, place, obj


def _csv_values(text: str):
    """(column, "<column> row <i>", value) for every cell under the header
    row; a cell that parses as a float is one."""
    rows = list(csv.reader(io.StringIO(text)))
    for i, row in enumerate(rows[1:], start=1):
        for column, cell in zip(rows[0], row):
            try:
                value = float(cell)
            except ValueError:
                value = cell
            yield column, f"{column} row {i}", value


def _values(path: Path) -> dict:
    """{place: (field, value)} of one report file."""
    text = path.read_text(encoding="utf-8")
    leaves = _json_values(json.loads(text)) if path.suffix == ".json" else _csv_values(text)
    return {place: (field, value) for field, place, value in leaves}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _same(a, b) -> bool:
    if _number(a) and _number(b) and math.isnan(a) and math.isnan(b):
        return True
    return type(a) is type(b) and a == b


def compare(old: dict, new: dict) -> dict:
    """Per field of two ``_values`` maps: counts of values, of differing
    ones and of one-sided ones, and the largest absolute and relative drift
    of the numeric ones, each as (drift, place)."""
    fields = {}
    for place in dict.fromkeys([*old, *new]):
        field = (old.get(place) or new.get(place))[0]
        entry = fields.setdefault(field, {"values": 0, "differ": 0, ONLY_OLD: 0, ONLY_NEW: 0,
                                          "abs": (0.0, None), "rel": (0.0, None)})
        entry["values"] += 1
        if place not in new or place not in old:
            entry[ONLY_OLD if place not in new else ONLY_NEW] += 1
            continue
        a, b = old[place][1], new[place][1]
        if _same(a, b):
            continue
        entry["differ"] += 1
        if _number(a) and _number(b):
            gap = abs(b - a)
            rel = gap / abs(a) if a else math.inf
            entry["abs"] = max(entry["abs"], (gap, place), key=lambda d: d[0])
            entry["rel"] = max(entry["rel"], (rel, place), key=lambda d: d[0])
    return fields


def drift(old_dir: Path, new_dir: Path) -> list:
    """(file, field, status, max abs drift, max rel drift) rows for every
    report under either directory, files and fields in sorted order."""
    names = sorted({p.relative_to(root).as_posix() for root in (old_dir, new_dir)
                    for p in root.rglob("*") if p.suffix in (".json", ".csv") and p.is_file()})
    rows = []
    for name in names:
        sides = [root / name for root in (old_dir, new_dir)]
        if not all(p.exists() for p in sides):
            rows.append((name, "(file)", ONLY_OLD if sides[0].exists() else ONLY_NEW, "", ""))
            continue
        same_bytes = sides[0].read_bytes() == sides[1].read_bytes()
        rows.append((name, "(bytes identical)", "yes" if same_bytes else "no", "", ""))
        for field, e in sorted(compare(*(_values(p) for p in sides)).items()):
            parts = [f"{e['differ']} of {e['values']} differ"] if e["differ"] else []
            parts += [f"{e[side]} {side}" for side in (ONLY_OLD, ONLY_NEW) if e[side]]
            status = ", ".join(parts) or "identical"
            rows.append((name, field, status, *(f"{e[k][0]:.2e} at {e[k][1]}" if e[k][1] else ""
                                                for k in ("abs", "rel"))))
    return rows


def format_table(rows: list) -> str:
    lines = ["| file | field | status | max abs drift | max rel drift |",
             "| --- | --- | --- | --- | --- |"]
    lines += ["| " + " | ".join(f"`{c}`" if i < 2 else c for i, c in enumerate(row)) + " |"
              for row in rows]
    return "\n".join(lines)


def run_all(tree: Path) -> Path:
    """Run every entry of ``RUNS`` in ``tree`` on its own ``src``, each with
    ``drift_out/<name>`` as its output; the ``drift_out`` directory."""
    (tree / OUT).mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(TOOLS)])}
    for name, run in RUNS.items():
        out = f"{OUT}/{name}"
        if callable(run):
            cmd = [sys.executable, "-c", f"import drift; drift.{run.__name__}({out!r})"]
        else:
            cmd = [sys.executable, "-m", "hitchinlab.cli", *run, "--out", out]
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd[2:])} in {tree} exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
    return tree / OUT


def drift_against(base: str) -> list:
    """``drift`` rows of the reports of ``RUNS`` made by the revision ``base``
    against those made by the working tree."""
    from bench_ab import make_trees  # as a script, tools/ is on sys.path

    with tempfile.TemporaryDirectory(prefix="drift_") as tmp:
        _, trees = make_trees(base, Path(tmp), ("old", "new"))
        return drift(run_all(trees["old"]), run_all(trees["new"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="field-by-field drift of two report trees")
    parser.add_argument("old", type=Path, nargs="?")
    parser.add_argument("new", type=Path, nargs="?")
    parser.add_argument("--base", help="git revision whose reports to compare with the "
                                       "working tree's, on the argv list RUNS")
    args = parser.parse_args(argv)
    if args.base is not None:
        if args.old is not None:
            parser.error("give either --base or two directories")
        print(format_table(drift_against(args.base)))
        return 0
    if args.new is None:
        parser.error("give two directories, or --base")
    for root in (args.old, args.new):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    print(format_table(drift(args.old, args.new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
