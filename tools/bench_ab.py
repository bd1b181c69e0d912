"""Alternating A/B runs of the benchmark: a base revision against the working tree.

Usage (from the root of a checkout):

    python3 tools/bench_ab.py --base HEAD --workload spectral --seed 41 \
        --pairs 10 --out BENCH_<n>.json

``--workload`` may be repeated.  Each run lasts ``BENCHMARK.json``'s
``run_seconds``.  The base revision is exported with ``git archive`` into a
temporary directory, and the change side is a copy of the working tree's
files beside it (tracked or untracked, uncommitted edits included, ignored
files left out).  Both sides run from fresh directories whose paths have
the same length, because a short workload's time depends on where it runs:
in 30 alternating repetitions, the same files read about 8% slower in
``deformation`` from a checkout than from a fresh copy.  Pair i runs
``bench/run.py --trace 0`` at seed S + i once in each tree, each tree with
its own ``bench/``; the first pair runs the base first and the order
alternates from there.

The output has the layout of ``BENCH_24.json``: per workload, a summary of
each end-to-end metric that ``BENCHMARK.json`` declares (each side's
q1/median/q3 over the pairs, the pairs the change won, ties counting for
neither side, and the median's relative change) and every pair with both
records.  Each record is the ``result.json`` its run wrote, with each
repetition's per-operation list folded into ``ops_by_status`` and the report
hashes, when equal in every repetition, moved up to the record.  Beside each
workload's summary, ``reports_identical`` counts the pairs whose two records
carry equal report hashes.  The printed summary ends each metric's line with
its ``verdict`` and each workload with that count.  Nothing here edits
``bench/``; it only invokes it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _quartiles(values: list) -> list:
    """q1, median and q3 by linear interpolation between order statistics."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list, better: dict) -> dict:
    """Per metric of ``better`` ("lower" or "higher"): each side's
    q1/median/q3 over ``pairs`` ({"parent": record, "change": record}, each
    record holding {"metrics": {name: {"value": v}}}), the pairs in which
    the change was strictly better, and the relative change of the median."""
    summary = {}
    for name, direction in better.items():
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                  for side in SIDES}
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (p - c) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = (statistics.median(values[side]) for side in SIDES)
        summary[name] = {
            "parent_q1_median_q3": _quartiles(values["parent"]),
            "change_q1_median_q3": _quartiles(values["change"]),
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change": (change - parent) / abs(parent) if parent else None,
        }
    return summary


def verdict(entry: dict, better: str, bound: float) -> str:
    """The verdict on one metric from its ``summarize`` entry.

    ``better`` is "lower" or "higher", and ``bound`` is the metric's
    ``BENCHMARK.json`` bound, a fraction of the parent's median.

    - "gain": the change won at least 9 of every 10 pairs, and its median
      beats the parent's by more than the parent's q1-q3 spread;
    - "worse": the change's median is worse than the parent's by more than
      the bound;
    - "unresolved": the parent's q1-q3 spread exceeds the bound and the
      change did not beat the parent in every pair;
    - "no worse": otherwise.
    """
    p_q1, parent, p_q3 = entry["parent_q1_median_q3"]
    change = entry["change_q1_median_q3"][1]
    gap = (parent - change) if better == "lower" else (change - parent)
    allowed = bound * abs(parent)
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] and gap > p_q3 - p_q1:
        return "gain"
    if -gap > allowed:
        return "worse"
    if p_q3 - p_q1 > allowed and entry["change_wins"] < entry["pairs"]:
        return "unresolved"
    return "no worse"


def reports_identical(pairs: list) -> int:
    """The pairs in which parent and change carry equal record-level report
    hashes; a record whose repetitions differ has none, so its pair counts
    as not identical."""
    hashes = [[pair[side].get("reports") for side in SIDES] for pair in pairs]
    return sum(parent is not None and parent == change for parent, change in hashes)


def _fold(record: dict) -> dict:
    """The record with each repetition's operations counted by status and
    the report hashes moved up when every repetition has the same."""
    reps = record["repetitions"]
    reports = [rep.pop("reports") for rep in reps]
    for rep in reps:
        rep["ops_by_status"] = dict(Counter(op["status"] for op in rep.pop("ops")))
    if all(r == reports[0] for r in reports):
        record["reports"] = reports[0]
    else:
        for rep, r in zip(reps, reports):
            rep["reports"] = r
    return record


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` in ``tree``; its folded result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = tree / ".bench_build" / "hitchinlab" / f"{workload}-seed{seed}-trace0" / "result.json"
    return _fold(json.loads(result.read_text(encoding="utf-8")))


def _description(seconds: float, first: int, last: int) -> str:
    """How the pairs of a record ran, for its ``description``."""
    return (
        f"Alternating parent/change runs of bench/run.py (trace 0, --seconds {seconds:g} "
        f"on both sides, seeds {first}-{last} on every workload; the pair with the first "
        "seed ran the parent first, and the order alternated from there), written by "
        "tools/bench_ab.py. The parent ran from a git archive export of parent_commit "
        "and the change from a copy of the working tree's tracked and untracked files, "
        "uncommitted edits included, in two fresh directories with paths of one length; "
        "neither is a repository, so both provenance git_commit are null. Each record is "
        "the result.json the run wrote, provenance included. Each "
        "repetition's per-operation list is folded into ops_by_status (operation counts "
        "by status), and the report hashes, when equal in every repetition of a record, "
        "move up to the record's reports. change_wins counts the pairs in which the "
        "change was strictly better; median_change is the relative change of the median; "
        "reports_identical counts the pairs whose parent and change records carry equal "
        "record-level reports, a record without them counting as not identical.")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def _copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked files, not the ignored
    ones, into ``dest``; a tracked file deleted from the tree is left out."""
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
    for name in filter(None, names.split("\0")):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def make_trees(base: str, root: Path, names: tuple = SIDES) -> tuple[str, dict]:
    """Resolve ``base`` to a commit, export it with ``git archive`` into
    ``root/names[0]`` and copy the working tree into ``root/names[1]``; the
    commit and the two trees by name."""
    commit = _git("rev-parse", "--verify", f"{base}^{{commit}}").decode().strip()
    trees = {name: root / name for name in names}
    for tree in trees.values():
        tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(trees[names[0]])], input=_git("archive", commit),
                   check=True)
    _copy_worktree(trees[names[1]])
    return commit, trees


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating base/change benchmark pairs")
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", action="append", required=True,
                        help="benchmark workload; repeatable")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]  # the benchmark's run length, the same on both sides
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        # "parent" and "change" have one length, and so have the two paths
        commit, trees = make_trees(args.base, Path(tmp))
        workloads = {}
        for workload in args.workload:
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(trees[side], workload, seed, seconds)
                    wall = pair[side]["metrics"]["wall_s"]["value"]
                    print(f"{workload} seed {seed} {side}: wall_s {wall:.4f}", flush=True)
                pairs.append(pair)
            workloads[workload] = {"summary": summarize(pairs, better),
                                   "reports_identical": reports_identical(pairs),
                                   "pairs": pairs}

    record = {
        "description": _description(seconds, args.seed, args.seed + args.pairs - 1),
        "parent_commit": commit,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for workload, data in workloads.items():
        for name, s in data["summary"].items():
            print(f"{workload} {name}: parent {s['parent_q1_median_q3'][1]:.6g} "
                  f"change {s['change_q1_median_q3'][1]:.6g} wins {s['change_wins']}/{s['pairs']} "
                  f"{verdict(s, better[name], bounds[name])}")
        print(f"{workload} reports_identical: {data['reports_identical']}/{len(data['pairs'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
