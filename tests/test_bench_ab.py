"""The A/B benchmark tool's summary and record folding, on synthetic records.

Nothing here runs the benchmark.
"""

import importlib.util
import subprocess
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


def test_reports_identical_counts_pairs_with_equal_record_hashes():
    def record(*reports):
        return bench_ab._fold({"repetitions": [{"ops": [], "reports": r} for r in reports]})

    same = {"cli.fiducial": "h", "cli.glue": "g"}
    pairs = [
        {"parent": record(same, same), "change": record(dict(same), dict(same))},
        {"parent": record(same), "change": record({**same, "cli.glue": "x"})},
        # repetitions that differ stay unfolded, on either side or on both
        {"parent": record(same, {"cli.fiducial": "y"}), "change": record(same)},
        {"parent": record(same), "change": record(same, {"cli.fiducial": "y"})},
        {"parent": record(same, {"cli.fiducial": "y"}),
         "change": record(same, {"cli.fiducial": "y"})},
    ]
    assert bench_ab.reports_identical(pairs) == 1
    assert bench_ab.reports_identical(pairs[:1] * 10) == 10
    assert bench_ab.reports_identical([]) == 0


def test_copy_worktree_takes_the_files_git_would_track(tmp_path, monkeypatch):
    # a throwaway repository, so that the test runs outside a checkout too
    repo, copy = tmp_path / "repo", tmp_path / "copy"
    files = {".gitignore": "__pycache__/\n", "tools/bench_ab.py": "tool\n",
             "src/hitchinlab/cli.py": "cli\n", "bench/run.py": "run\n"}
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git = ["git", "-c", "user.name=test", "-c", "user.email=test@example.com",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "files"]):
        subprocess.run([*git, *args], cwd=repo, check=True, capture_output=True)
    # an uncommitted edit and an untracked file go along; ignored output does not
    (repo / "bench/run.py").write_text("edited\n")
    (repo / "notes.txt").write_text("untracked\n")
    (repo / "src/hitchinlab/__pycache__").mkdir()
    (repo / "src/hitchinlab/__pycache__/cli.pyc").write_bytes(b"\0")
    monkeypatch.setattr(bench_ab, "ROOT", repo)
    copy.mkdir()
    bench_ab._copy_worktree(copy)
    for name in (*files, "notes.txt"):
        assert (copy / name).read_bytes() == (repo / name).read_bytes()
    assert (copy / "bench/run.py").read_text() == "edited\n"
    assert not list(copy.rglob("__pycache__"))
    assert not (copy / ".git").exists()


def _verdict(parent, change, better="lower", bound=0.25):
    name = "wall_s" if better == "lower" else "ops_ok_frac"
    entry = bench_ab.summarize(_pairs(parent, change, name), {name: better})[name]
    return bench_ab.verdict(entry, better, bound)


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_verdict_gain_needs_nine_wins_and_a_gap_past_the_parents_spread():
    assert _verdict(PARENT, [x - 0.2 for x in PARENT]) == "gain"
    # 9 of 10 pairs still gain; 8 of 10 do not, however wide the gap
    assert _verdict(PARENT, [x - 0.2 for x in PARENT[:9]] + [1.2]) == "gain"
    assert _verdict(PARENT, [x - 0.2 for x in PARENT[:8]] + [1.2, 1.2]) == "no worse"
    # every pair won, but by less than the parent's q1-q3 spread of 0.045
    assert _verdict(PARENT, [x - 0.01 for x in PARENT]) == "no worse"
    assert _verdict([0.97, 0.98, 0.99], [1.0, 1.0, 1.0], "higher", 0.02) == "gain"


def test_verdict_worse_past_the_bound_as_a_fraction_of_the_parent_median():
    median = 1.045
    assert _verdict(PARENT, [median * 1.26] * 10) == "worse"
    assert _verdict(PARENT, [median * 1.24] * 10) == "no worse"
    assert _verdict([1.0] * 10, [0.97] * 10, "higher", 0.02) == "worse"
    assert _verdict([1.0] * 10, [0.99] * 10, "higher", 0.02) == "no worse"


def test_verdict_unresolved_when_the_parent_spreads_past_the_bound():
    wide = [1.0, 2.0] * 5  # q1-q3 spread 1.0 against a bound of 0.25 * 1.5
    assert _verdict(wide, [x - 0.01 for x in wide[:9]] + [2.5]) == "unresolved"
    # beating the parent in every pair resolves it
    assert _verdict(wide, [x - 0.01 for x in wide]) == "no worse"
    assert _verdict(wide, [x - 0.01 for x in wide], bound=1.0) == "no worse"
