"""Run one benchmark workload in this (fresh) process and print one JSON line.

Usage: python3 bench/workload.py --workload NAME --seed N --out DIR [--trace | --import-only]

The first thing timed is the cold ``import hitchinlab, hitchinlab.cli``
(``setup_s``).  ``wall_s`` then runs from the workload's first call into
hitchinlab to its last validated result.  Both, and the traced spans, are
read off the reference clock of ``clock.py``, which rescales them to a fixed
host speed; ``setup_raw_s`` and ``wall_raw_s`` are the measured seconds,
without the probes' own time.  Every command and library call is
one operation with its own correctness check; references come from
``scipy.special`` or exact arithmetic, never from ``hitchinlab.special``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from clock import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent

# Criterion-07 readings of the H^2 surrogate, converged in n from 300 to 2400.
SURROGATE_PINS = {1.0: 1.06436, 8.0: 1.47899}
SURROGATE_RTOL = 1e-4
CLOSED_FORM_RTOL = 1e-11
NEWTON_GRID_T = (1.0, 2.0, 4.0, 24.0)
NEWTON_GRID_MESH = ((2000, 1e-3), (8000, 1e-3), (2000, 1e-4))
# Off-diagonal (gamma, k, handle sign) pairs, all with 2 gamma + k - 1 = 41
# spine loops so that every seed does the same amount of rank work.
TWISTED_LOOPS = 41
TWISTED_SEED0 = ((7, 28, 1), (11, 20, 1), (8, 26, -1), (12, 18, -1))


class Run:
    """Operations of one workload run: outcomes, accuracy, report hashes.

    An operation's status is ``ok``; ``raised`` when the program reported a
    numerical failure (NumericalError, or CLI exit code 1); ``wrong`` when a
    returned value missed its check; ``error`` for any other exception or
    exit code.  All but ``ok`` count as failed, ``wrong`` and ``error`` also
    make the run incorrect.
    """

    def __init__(self, out: Path, numerical_error):
        self.out = out
        self.numerical_error = numerical_error
        self.ops = []
        self.accuracy = {}
        self.reports = {}
        self.bytes_written = 0

    def _record(self, name: str, status: str, detail: str) -> None:
        self.ops.append({"name": name, "status": status, "detail": detail})

    def acc(self, key: str, value: float) -> None:
        self.accuracy[key] = max(self.accuracy.get(key, 0.0), float(value))

    def call(self, name: str, fn, *args, **kwargs):
        """Run one library operation; None when it failed (recorded)."""
        try:
            value = fn(*args, **kwargs)
        except self.numerical_error as exc:
            self._record(name, "raised", str(exc))
            return None
        except Exception as exc:  # recorded as an incorrect operation
            self._record(name, "error", "".join(traceback.format_exception_only(exc)).strip())
            return None
        self._record(name, "ok", "")
        return value

    def check(self, name: str, test) -> None:
        """``test()`` returns (ok, detail); a missing input counts as wrong."""
        try:
            ok, detail = test()
        except Exception as exc:  # e.g. the report this check reads is missing
            ok, detail = False, f"check could not run: {exc!r}"
        self._record(name, "ok" if ok else "wrong", detail)

    def cli(self, command: str, args: list, report: str):
        """``cli.main`` with a fresh output directory; returns the parsed report."""
        from hitchinlab import cli

        out = self.out / command
        argv = [command, *args, "--jobs", "1", "--out", str(out.relative_to(ROOT))]
        try:
            code = cli.main(argv)
        except Exception as exc:  # main should map every failure to an exit code
            code, detail = -1, repr(exc)
        else:
            detail = f"exit code {code}"
        if code != 0:
            self._record(f"cli.{command}", "raised" if code == 1 else "error", detail)
            return None
        hashes = {}
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            self.bytes_written += len(data)
            hashes[path.name] = hashlib.sha256(data).hexdigest()
        self.reports[f"cli.{command}"] = hashes
        self._record(f"cli.{command}", "ok", "")
        return json.loads((out / report).read_text(encoding="utf-8"))


def _t_flags(ts) -> list:
    return [arg for t in ts for arg in ("--t", repr(float(t)))]


def _jitter(rng, ts, scale=0.05) -> list:
    """Seed 0 keeps the README values; other seeds move each t by up to 5%."""
    if rng is None:
        return [float(t) for t in ts]
    return [float(t * (1.0 + rng.uniform(-scale, scale))) for t in ts]


def _check_profile(run: Run, where: str, values) -> None:
    """``values()`` gives (a0, lambda, residual_max, match_mismatch) of one solve."""
    from scipy.special import gamma

    a0_ref = gamma(1.0 / 3.0) / (2.0 * gamma(2.0 / 3.0))
    lam_ref = 1.0 / 3.141592653589793

    def closed_form():
        a0, lam, _, _ = values()
        a0_err, lam_err = abs(a0 / a0_ref - 1.0), abs(lam / lam_ref - 1.0)
        run.acc("painleve.a0_relerr", a0_err)
        run.acc("painleve.lambda_relerr", lam_err)
        return (a0_err <= CLOSED_FORM_RTOL and lam_err <= CLOSED_FORM_RTOL,
                f"a0 relerr {a0_err:.2e}, lambda relerr {lam_err:.2e}")

    def residual():
        _, _, res, mismatch = values()
        run.acc("painleve.residual_max", res)
        run.acc("painleve.mismatch", mismatch)
        return res <= 1e-8, f"residual_max {res:.2e}"

    run.check(f"{where}.closed_form", closed_form)
    run.check(f"{where}.residual", residual)


def spectral(run: Run, rng) -> None:
    """criterion-07 spectrum (4 t x 33 modes) and the criterion-06 Bessel oracle."""
    from scipy.special import jn_zeros

    from hitchinlab import linearized

    ts = [1.0, *_jitter(rng, [2.0, 4.0]), 8.0]  # 1 and 8 carry the surrogate pins
    rep = run.cli("spectrum", [*_t_flags(ts), "--lmax", "32", "--grid", "600"], "spectrum.json")
    by_t = {r["t"]: r for r in rep["reports"]} if rep else {}
    for t, pin in SURROGATE_PINS.items():
        def surrogate(t=t, pin=pin):
            err = abs(by_t[t]["g_norm_h2_surrogate"] / pin - 1.0)
            run.acc("linearized.surrogate_relerr", err)
            return err <= SURROGATE_RTOL, f"t={t:g} relerr {err:.2e}"
        run.check(f"spectrum.surrogate_t{t:g}", surrogate)

    def uniformity():
        g = [r["g_norm_l2"] for r in by_t.values()]
        return len(g) == len(ts) and max(g) / min(g) < 2.0, f"factor {max(g) / min(g):.3f}"
    run.check("spectrum.g_norm_uniformity", uniformity)

    target = jn_zeros(0, 1)[0] ** 2
    lams = [run.call(f"oracle.n{n}", lambda n=n: linearized.smallest_eigenvalue(
        linearized.assemble_scalar(0, n=n))) for n in (500, 1000, 2000)]

    def oracle():
        err = abs(lams[-1] - target) / target
        run.acc("linearized.oracle_relerr", err)
        return err < 1e-3, f"relerr at n=2000 {err:.2e}"
    run.check("oracle.relerr", oracle)


def profile_reports(run: Run, rng) -> None:
    """README profile commands, orbit checks and the Newton refinement grid."""
    from hitchinlab import fiducial, gauge, gluing, painleve

    fid_ts = _jitter(rng, [1.0, 2.0, 4.0, 8.0, 16.0, 24.0])
    glue_ts = _jitter(rng, [float(t) for t in range(2, 11)])

    s = run.cli("solve-psi", [], "summary.json")
    _check_profile(run, "solve-psi", lambda: (s["a0"], s["lambda"], s["residual_max"],
                                              s["match_mismatch"]))

    fam_report = run.cli("fiducial", _t_flags(fid_ts), "fiducial_summary.json")
    for i, t in enumerate(fid_ts):
        def family(i=i):
            res = fam_report["families"][i]["residual_max"]
            run.acc("fiducial.residual_max", res)
            return res <= 1e-6, f"t={t:g} residual {res:.2e}"
        run.check(f"fiducial.residual_t{t:g}", family)

    glue = run.cli("glue", _t_flags(glue_ts), "glue.json")
    for i, t in enumerate(glue_ts):
        def corrected(i=i):
            post = glue["corrections"][i]["residual_post"]
            run.acc("gluing.residual_post_max", post)
            return post < 1e-9, f"t={t:g} residual_post {post:.2e}"
        run.check(f"glue.residual_post_t{t:g}", corrected)

    def decay():
        fit = glue["delta_fit"]
        predicted = (8.0 / 3.0) * 0.5 ** 1.5
        rel = abs(fit["delta_hat"] - predicted) / predicted
        return (rel < 0.30 and fit["r_squared"] > 0.98,
                f"delta_hat {fit['delta_hat']:.4f} (rel {rel:.3f}), R^2 {fit['r_squared']:.5f}")
    run.check("glue.delta_fit", decay)

    lmax = 32
    ind = run.cli("indicial", ["--lmax", str(lmax)], "indicial.json")
    run.check("indicial.aggregate", lambda: (
        [Fraction(v) for v in ind["aggregate"]]
        == [Fraction(m, 2) for m in range(-2 * lmax - 1, 2 * lmax + 2)],
        f"{len(ind['aggregate'])} roots"))

    profile = run.call("library.solve_connection", painleve.solve_connection)
    if profile is None:
        return
    _check_profile(run, "library", lambda: (profile.a0, profile.lam, profile.residual_max,
                                            profile.match_mismatch))
    for t in fid_ts:
        fam = run.call(f"orbit.family_t{t:g}", fiducial.build_family, t, profile)
        d = run.call(f"orbit.finite_t{t:g}", gauge.verify_orbit_finite_t, t, fam)
        if d is not None:
            run.acc("gauge.discrepancy_max", d)
            run.check(f"orbit.finite_t{t:g}.discrepancy", lambda d=d: (d <= 1e-7, f"{d:.2e}"))
    d = run.call("orbit.limiting", gauge.verify_orbit_limiting, fiducial.default_grid())
    if d is not None:
        run.acc("gauge.discrepancy_max", d)
        run.check("orbit.limiting.discrepancy", lambda: (d <= 1e-8, f"{d:.2e}"))

    # ROADMAP item 4: several of these raise today; each is counted, not skipped.
    for t in NEWTON_GRID_T:
        fam = fiducial.build_family(t, profile)
        for n, r_min in NEWTON_GRID_MESH:
            name = f"newton.t{t:g}_n{n}_rmin{r_min:g}"

            def refine(t=t, n=n, r_min=r_min):
                state = gluing.build_glued(t, fam, n=n, r_min=r_min)
                result = gluing.newton_correct(state, tol=1e-10)
                return gluing.corrected_solution_check(state, result)["residual_post"]
            post = run.call(name, refine)
            if post is not None:
                run.acc("gluing.residual_post_max", post)
                run.check(f"{name}.residual_post", lambda post=post: (post < 1e-9, f"{post:.2e}"))


def deformation(run: Run, rng) -> None:
    """torus table up to gamma 14 plus off-diagonal twisted cohomology counts."""
    from hitchinlab import topology

    gamma = 14
    torus = run.cli("torus", ["--gamma", str(gamma), "--format", "csv"], "torus.json")
    for g in range(2, gamma + 1):
        def row(g=g):
            _, k, h0, h1, _ = next(r for r in torus["table"] if r[0] == g)
            return h0 == 0 and h1 == 2 * g + k - 2 and k == 4 * g - 4, f"h0={h0} h1={h1}"
        run.check(f"torus.gamma{g}", row)
    run.check("torus.dim", lambda: (torus["dim"] == 6 * gamma - 6, f"dim={torus['dim']}"))

    if rng is None:
        pairs = TWISTED_SEED0
    else:
        pairs = []
        for sign in (1, 1, -1, -1):
            g = int(rng.integers(6, 13))
            pairs.append((g, TWISTED_LOOPS + 1 - 2 * g, sign))
    for g, k, sign in pairs:
        name = f"twisted.g{g}_k{k}_s{sign:+d}"
        cx = run.call(f"{name}.build", topology.build_complex, g, k, handle_monodromy=sign)
        dims = run.call(f"{name}.dims", topology.twisted_cohomology_dims, cx)
        if dims is not None:
            run.check(name, lambda dims=dims, g=g, k=k: (
                dims == (0, 2 * g + k - 2), f"(h0, h1)={dims}, want (0, {2 * g + k - 2})"))


WORKLOADS = {"spectral": spectral, "profile_reports": profile_reports,
             "deformation": deformation}


def _provenance() -> dict:
    import ctypes
    import os

    import numpy as np
    import scipy

    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas.get("name"),
        "blas_version": blas.get("version"), "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="scratch directory for reports and spans")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true",
                        help="time the import and stop (extra setup_s samples)")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    import hitchinlab
    import hitchinlab.cli
    setup_end = time.perf_counter()
    src = ROOT / "src"
    if src not in Path(hitchinlab.__file__).resolve().parents:
        raise SystemExit(f"imported {hitchinlab.__file__}, not the package under {src}")
    if args.import_only:
        probe.stop()
        work, ref = probe.clocks()
        print(json.dumps({"setup_s": ref(setup_end) - ref(start),
                          "setup_raw_s": work(setup_end) - work(start),
                          "probe_median_s": probe.median_probe_s()}))
        return 0

    import numpy as np

    from spans import Tracer

    out = Path(args.out).resolve()
    reports = out / "reports"
    shutil.rmtree(reports, ignore_errors=True)
    reports.mkdir(parents=True)
    rng = None if args.seed == 0 else np.random.default_rng(args.seed)
    run = Run(reports, hitchinlab.NumericalError)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    wall_start = time.perf_counter()
    WORKLOADS[args.workload](run, rng)
    wall_end = time.perf_counter()
    probe.stop()
    work, ref = probe.clocks()

    result = {
        "setup_s": ref(setup_end) - ref(start),
        "setup_raw_s": work(setup_end) - work(start),
        "wall_s": ref(wall_end) - ref(wall_start),
        "wall_raw_s": work(wall_end) - work(wall_start),
        "probe_median_s": probe.median_probe_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": run.ops,
        "reports": run.reports,
        "provenance": _provenance(),
    }
    if tracer is not None:
        tracer.uninstall()
        layer = tracer.metrics(ref, wall_start, wall_end)
        layer["cli.bytes_written"] = run.bytes_written
        layer.update(run.accuracy)
        result["per_layer"] = layer
        tracer.dump(out / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
