"""hitchinlab benchmark: one workload, repeated in fresh processes, one JSON result.

Usage (from the root of a checkout):

    python3 bench/run.py --workload spectral --seed 0 --seconds 40 --trace 0

Workloads (see ``workload.py`` for what each runs and checks):

- ``spectral``: the criterion-07 spectrum sweep plus the Bessel oracle; the
  ``linearized`` layer dominates.
- ``profile_reports``: the profile-dependent README commands, orbit checks and
  the Newton refinement grid; ``painleve`` and ``gauge`` dominate and
  ``linearized`` does no work.
- ``deformation``: the torus table and off-diagonal twisted counts; only
  ``topology`` works and there is no profile solve.

Each repetition is a fresh single-threaded Python process (``--jobs 1``, one
BLAS thread), started until ``--seconds`` is used up, at least
``MIN_REPS`` times.  ``--trace 0`` reports the end-to-end metrics as medians
over the repetitions; ``setup_s`` also takes ``SETUP_SAMPLES`` import-only
processes into its median.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, with the
tracing overhead as the difference of the median wall times.  Every time
is read off the reference clock of ``clock.py``: seconds at a fixed host
speed, measured by an in-process probe, so that another tenant's load on a
shared host does not move them; the measured ``wall_raw_s`` and
``setup_raw_s`` are printed next to them.  Reports
written by the CLI must hash identically in every repetition.  The last line
of standard output is the JSON result; the full record, provenance and the
spans go to ``.bench_build/hitchinlab/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import per_layer_units

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("spectral", "profile_reports", "deformation")
MIN_REPS = 2  # keeps a run near --seconds even on a host twice as slow as usual
SETUP_SAMPLES = 2
RUN_LIMIT_S = 170  # a run, its children included, must end well within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "frac"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over this machine's CPUs."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = fh.readline().split()  # cpu user nice system idle iowait irq softirq steal
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run_child(args, out: Path, env: dict, deadline: float, *flags: str) -> dict:
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), *flags]
    steal = _steal_s()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = "--trace" in flags
    rep["steal_s"] = _steal_s() - steal
    return rep


def _mark_irreproducible(reps: list) -> None:
    """A report whose bytes differ from the first repetition's fails its command."""
    reference = reps[0]["reports"]
    for rep in reps[1:]:
        for op in rep["ops"]:
            hashes = rep["reports"].get(op["name"])
            if hashes is not None and op["name"] in reference and hashes != reference[op["name"]]:
                op["status"] = "wrong"
                op["detail"] = "report bytes differ from the first repetition"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hitchinlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hitchinlab" / "__init__.py").is_file():
        print(f"error: no hitchinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    out = build / "hitchinlab" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    compileall.compile_dir(ROOT / "src", quiet=1)

    load_start = os.getloadavg()
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    reps = []
    try:
        # the first import after a pause reads the libraries from disk: not timed
        _run_child(args, out, env, deadline, "--import-only")
        imports = [_run_child(args, out, env, deadline, "--import-only")
                   for _ in range(SETUP_SAMPLES)]
        while True:
            rep_start = time.perf_counter()
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(_run_child(args, out, env, deadline, *(["--trace"] if traced else [])))
            per_rep = time.perf_counter() - rep_start
            if len(reps) >= MIN_REPS and time.perf_counter() - start + per_rep > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_end = os.getloadavg()
    setups = imports + reps

    _mark_irreproducible(reps)
    ops = [op for rep in reps for op in rep["ops"]]
    failed = [op for op in ops if op["status"] != "ok"]
    untraced = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]

    if args.trace:
        units = per_layer_units()
        values = {k: statistics.median(rep["per_layer"][k] for rep in traced) for k in units}
        values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in untraced))
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "ops_ok_frac": 1.0 - len(failed) / len(ops),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    provenance = dict(reps[0]["provenance"], nproc=os.cpu_count(),
                      affinity=len(os.sched_getaffinity(0)), git_commit=_git_commit(),
                      loadavg_start=load_start, loadavg_end=load_end,
                      host_steal_s=sum(rep["steal_s"] for rep in reps))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance, "metrics": metrics,
              "ops_total": len(ops), "ops_failed": len(failed),
              "repetitions": [{k: v for k, v in rep.items() if k != "provenance"}
                              for rep in reps]}
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for i, rep in enumerate(reps):
        bad = sum(op["status"] != "ok" for op in rep["ops"])
        print(f"rep {i} {'traced' if rep['traced'] else 'untraced'}: "
              f"wall {rep['wall_s']:.3f} s (raw {rep['wall_raw_s']:.3f}) "
              f"setup {rep['setup_s']:.3f} s (raw {rep['setup_raw_s']:.3f}) "
              f"rss {rep['peak_rss_mb']:.1f} MB probe {rep['probe_median_s'] * 1e3:.3f} ms "
              f"host steal {rep['steal_s']:.2f} s failed {bad}/{len(rep['ops'])}")
    for detail in sorted({f"{op['name']} [{op['status']}]: {op['detail'][:160]}" for op in failed}):
        print(f"failed op: {detail}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, samples in (("wall_raw_s", untraced), ("setup_raw_s", setups)):
        print(f"{name} = {statistics.median(r[name] for r in samples):.6g} s (measured, not rescaled)")
    if args.trace:
        wall = values["trace.wall_s"]
        shares = {k[:-len(".self_s")]: values[k] for k in values
                  if k.endswith(".self_s")}
        shares["bench"] = values["trace.bench_self_s"]
        print(f"self time of traced wall {wall:.3f} s (overhead {values['trace.overhead_s']:.3f} s): "
              + ", ".join(f"{k} {v / wall:.1%}" for k, v in
                          sorted(shares.items(), key=lambda kv: -kv[1])))
    print(f"ops_failed_frac = {len(failed) / len(ops):.6g} (ops_failed {len(failed)}, "
          f"ops_total {len(ops)})")
    print("provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": not any(op["status"] in ("wrong", "error") for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
