"""The A/B benchmark tool's summary and record folding, on synthetic records.

Nothing here runs the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", PATH)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)


def _record(**values):
    return {"metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def _pairs(parent, change, name="wall_s"):
    return [{"parent": _record(**{name: p}), "change": _record(**{name: c})}
            for p, c in zip(parent, change)]


def test_summary_quartiles_wins_and_median_change():
    pairs = _pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.5, 4.5, 1.0])
    s = bench_ab.summarize(pairs, {"wall_s": "lower"})["wall_s"]
    assert s["parent_q1_median_q3"] == [2.0, 3.0, 4.0]
    assert s["change_q1_median_q3"] == [1.0, 2.0, 2.5]
    # 0.5 < 1, 2.5 < 3 and 1 < 5 win; 2 = 2 is a tie and counts for neither side
    assert s["change_wins"] == 3
    assert s["pairs"] == 5
    assert s["median_change"] == pytest.approx(-1.0 / 3.0, rel=1e-15)


def test_summary_higher_is_better_and_ties():
    pairs = _pairs([1.0, 1.0, 0.5], [1.0, 0.9, 1.0], name="ops_ok_frac")
    s = bench_ab.summarize(pairs, {"ops_ok_frac": "higher"})["ops_ok_frac"]
    assert s["change_wins"] == 1
    assert s["median_change"] == 0.0


def test_summary_of_one_pair_and_a_zero_median():
    s = bench_ab.summarize(_pairs([0.0], [0.25]), {"wall_s": "lower"})["wall_s"]
    assert s["parent_q1_median_q3"] == [0.0, 0.0, 0.0]
    assert s["change_q1_median_q3"] == [0.25, 0.25, 0.25]
    assert s["change_wins"] == 0
    assert s["median_change"] is None


def test_fold_counts_ops_and_moves_equal_reports_up():
    ops = [{"name": "a", "status": "ok", "detail": ""},
           {"name": "b", "status": "raised", "detail": "x"},
           {"name": "c", "status": "ok", "detail": ""}]
    same = {"record": 1, "repetitions": [{"wall_s": 1.0, "ops": list(ops), "reports": {"f": "h"}},
                                         {"wall_s": 2.0, "ops": ops[:1], "reports": {"f": "h"}}]}
    folded = bench_ab._fold(same)
    assert folded["reports"] == {"f": "h"}
    assert [rep["ops_by_status"] for rep in folded["repetitions"]] == [
        {"ok": 2, "raised": 1}, {"ok": 1}]
    assert all(set(rep) == {"wall_s", "ops_by_status"} for rep in folded["repetitions"])
    differ = {"repetitions": [{"ops": [], "reports": {"f": "h"}},
                              {"ops": [], "reports": {"f": "g"}}]}
    folded = bench_ab._fold(differ)
    assert "reports" not in folded
    assert [rep["reports"] for rep in folded["repetitions"]] == [{"f": "h"}, {"f": "g"}]
