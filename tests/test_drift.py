"""The report-drift tool, on synthetic pairs of report trees."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "drift.py"
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
    assert {status for _, _, status, *_ in rows} == {"identical"}
    assert [(name, field) for name, field, *_ in rows] == [
        ("psi.csv", "psi"), ("psi.csv", "rho"), ("spectrum.json", "config.out"),
        ("spectrum.json", "config.t[]"), ("spectrum.json", "reports[].lambda_min[]"),
        ("spectrum.json", "reports[].n"), ("spectrum.json", "reports[].t")]
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
