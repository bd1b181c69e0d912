"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single `[criterion NN] PASS/FAIL` line (visible with
pytest -s or on failure).  Tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jn_zeros

from conftest import random_hermitian
from hitchinlab import fiducial as fd
from hitchinlab import gauge as gg
from hitchinlab import gluing as gl
from hitchinlab import linearized as lin
from hitchinlab import topology as tp
from hitchinlab.algebra import (
    TracelessMatrix,
    commutator,
    frobenius_inner,
    frobenius_norm,
    m_phi_apply,
    m_phi_kernel_dim,
)
from hitchinlab.painleve import solve_connection


def _line(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_painleve_profile():
    start = time.perf_counter()
    profile = solve_connection()
    elapsed = time.perf_counter() - start
    eta = profile.eta
    checks = {
        "residual": profile.residual_max < 1e-8,
        "positive": bool((profile.psi > 0).all()),
        "decreasing": bool((np.diff(profile.psi) < 0).all()),
        "eta_range": bool((eta >= -1e-15).all() and (eta <= 0.125 + 1e-15).all()),
        "eta_monotone": bool((np.diff(eta) >= -1e-12).all()),
        "eta_limit": abs(eta[-1] - 0.125) < 1e-6,
        # McCoy, Tracy & Wu (1977): a0 = Gamma(1/3) / (2 Gamma(2/3)), lambda = 1/pi
        "a0_closed_form": math.isclose(profile.a0, math.gamma(1.0 / 3.0)
                                       / (2.0 * math.gamma(2.0 / 3.0)), rel_tol=1e-13),
        "lambda_closed_form": math.isclose(profile.lam, 1.0 / math.pi, rel_tol=1e-13),
        "runtime": elapsed < 10.0,
    }
    _line(1, all(checks.values()),
          f"residual={profile.residual_max:.2e} eta(40)-1/8={eta[-1]-0.125:.1e} "
          f"runtime={elapsed:.2f}s checks={checks}")
    assert all(checks.values()), checks


def test_criterion_02_fiducial_residuals(profile):
    worst_res, worst_det, worst_time = 0.0, 0.0, 0.0
    for t in (1.0, 2.0, 4.0, 8.0):
        start = time.perf_counter()
        fam = fd.build_family(t, profile)
        pair = fd.make_disk_pair(fam, n_theta=64)
        res = float(fam.residual().max())
        elapsed = time.perf_counter() - start
        det_gap = np.abs(
            pair.phi[..., 0, 1] * pair.phi[..., 1, 0]
            - pair.r[:, None] * np.exp(1j * pair.theta)[None, :]
        ).max()
        worst_res = max(worst_res, res)
        worst_det = max(worst_det, float(det_gap))
        worst_time = max(worst_time, elapsed)
    ok = worst_res < 1e-6 and worst_det < 1e-12 and worst_time < 5.0
    _line(2, ok, f"max residual={worst_res:.2e} det gap={worst_det:.2e} "
                 f"worst time={worst_time:.2f}s")
    assert ok


def test_criterion_03_uniform_bounds(families):
    n1, n2, sups = [], [], []
    for t in (1.0, 2.0, 4.0, 8.0, 16.0):
        bounds = fd.verify_f_bounds(families[t])
        n1.append(bounds["normalized_sup_f_over_r"])
        n2.append(bounds["normalized_sup_f_over_r2"])
        sups.append(fd.phi_sup_bound(families[t]))
    f1 = max(n1) / min(n1)
    f2 = max(n2) / min(n2)
    var = max(sups) / min(sups) - 1.0
    ok = f1 < 3.0 and f2 < 3.0 and var < 0.5
    _line(3, ok, f"f/r factor={f1:.3f} f/r^2 factor={f2:.3f} phi variation={var:.2%}")
    assert ok


def test_criterion_04_gauge_orbits(families):
    finite = max(gg.verify_orbit_finite_t(t, families[t], n_theta=64) for t in (1.0, 4.0))
    singular = gg.verify_orbit_limiting(fd.default_grid(), n_theta=64)
    ok = finite < 1e-7 and singular < 1e-8
    _line(4, ok, f"finite-t discrepancy={finite:.2e} singular={singular:.2e}")
    assert ok


def test_criterion_05_indicial_roots():
    roots = lin.indicial_roots(range(-10, 11))["aggregate"]
    expected = sorted(Fraction(m, 2) for m in range(-21, 22))
    restricted = lin.restricted_indicial_roots(range(-11, 11))
    exact = roots == expected
    twisted = restricted == [Fraction(2 * l + 1, 2) for l in range(-11, 11)]
    no_integers = all(r.denominator == 2 for r in restricted)
    ok = exact and twisted and no_integers
    _line(5, ok, f"aggregate exact={exact} restricted=Z+1/2: {twisted and no_integers}")
    assert ok


def test_criterion_06_spectral_oracle():
    target = jn_zeros(0, 1)[0] ** 2
    lams = [lin.smallest_eigenvalue(lin.assemble_scalar(0, n=n)) for n in (500, 1000, 2000)]
    rel = abs(lams[2] - target) / target
    ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
    ok = rel < 1e-3 and 3.3 < ratio < 4.7
    _line(6, ok, f"j01^2={target:.6f} rel err@n=2000={rel:.2e} convergence ratio={ratio:.3f}")
    assert ok


@pytest.fixture(scope="module")
def spectral_reports(profile):
    ts = (1.0, 2.0, 4.0, 8.0)
    return dict(zip(ts, lin.green_norms(ts, 32, profile)))


def test_criterion_07_green_norm_uniformity(spectral_reports):
    g = [rep.g_norm_l2 for rep in spectral_reports.values()]
    factor = max(g) / min(g)
    ok = factor < 2.0
    _line(7, ok, f"||G_t|| uniformity factor={factor:.3f} over t in {{1,2,4,8}}")
    assert ok


def test_criterion_07_h2_surrogate_t2_scaling(spectral_reports):
    # The estimate is one-sided, ||G_t||_{L2->H2} <= C t^2: the t^2-normalized
    # surrogate may fall with t (it does, the inverse being t-uniformly
    # bounded) but must not grow above its value at the smallest t.
    ts = np.array(sorted(spectral_reports))
    raw = np.array([spectral_reports[t].g_norm_h2_surrogate for t in ts])
    scaled = raw / ts ** 2
    factor = scaled.max() / scaled[0]
    exponent = np.polyfit(np.log(ts), np.log(raw), 1)[0]
    ok = factor < 4.0 and exponent <= 2.0
    _line(7, ok, f"H2 surrogate/t^2 growth factor={factor:.3f} (bound 4) over t in "
                 f"{{1,2,4,8}}, fitted t-exponent {exponent:.2f} (bound 2)")
    assert factor < 4.0, (
        f"upper bound ||Delta G_t|| <= C t^2 broken: surrogate/t^2 grows by "
        f"{factor:.2f} >= 4 above its value at t={ts[0]:g}"
    )
    assert exponent <= 2.0, (
        f"upper bound ||Delta G_t|| <= C t^2 broken: fitted t-exponent "
        f"{exponent:.2f} > 2"
    )


def test_criterion_07_h2_surrogate_pins(spectral_reports):
    # the benchmark's pins, 1.06436 at t = 1 and 1.47899 at t = 8, are
    # finite-difference values extrapolated over n = 600, 1200 and 2400
    pins = {1.0: 1.06436, 8.0: 1.47899}
    errs = {t: abs(spectral_reports[t].g_norm_h2_surrogate / pin - 1.0) for t, pin in pins.items()}
    ok = max(errs.values()) <= 1e-5
    _line(7, ok, "H2 surrogate against the pins: " + ", ".join(
        f"t={t:g} relerr {err:.1e}" for t, err in errs.items()))
    assert ok


def test_criterion_07_mode_tail(spectral_reports):
    ok = True
    for rep in spectral_reports.values():
        for ell, lam in zip(rep.ells, rep.lambda_min):
            if ell >= 2:
                ok = ok and (1.0 / lam) <= 1.0 / (rep.kappa_hat * ell ** 2) + 1e-12
    _line(7, ok, f"per-mode tail 1/lambda <= kappa^-1 l^-2 for l >= 2 (kappa_hat="
                 f"{min(r.kappa_hat for r in spectral_reports.values()):.3f})")
    assert ok


def test_criterion_08_conic_poisson():
    def bump(r):
        out = np.zeros_like(r)
        m = (r > 0.5) & (r < 0.8)
        s = (r[m] - 0.5) / 0.3
        out[m] = np.exp(-1.0 / (s * (1.0 - s)))
        return out

    sol = lin.conic_poisson_solve(0.5, bump, n=4000)
    slope = lin.inner_decay_exponent(sol)
    grid = lin.RadialGrid(6000, 1e-6)
    rhs = lin.apply_conic_operator(0.5, lambda r: np.sqrt(r) * (1.0 - r), grid)
    sol2 = lin.conic_poisson_solve(0.5, rhs, n=6000)
    roundtrip = float(np.abs(sol2.u - np.sqrt(sol2.r) * (1.0 - sol2.r)).max())
    ok = abs(slope - 0.5) < 0.025 and roundtrip < 1e-6
    _line(8, ok, f"inner decay exponent={slope:.5f} roundtrip={roundtrip:.2e}")
    assert ok


def test_criterion_09_gluing_error_decay(profile):
    delta, _, r2 = gl.approx_error_sweep(np.arange(2.0, 10.5, 1.0), profile)
    predicted = (8.0 / 3.0) * 0.5 ** 1.5
    ok = r2 > 0.98 and abs(delta - predicted) / predicted < 0.30
    _line(9, ok, f"delta_hat={delta:.4f} predicted={predicted:.4f} R^2={r2:.5f}")
    assert ok


def test_criterion_10_newton_correction(profile):
    start = time.perf_counter()
    sups = {}
    residual_t4 = None
    history_t4 = None
    for t in (2.0, 4.0, 8.0):
        fam = fd.build_family(t, profile)
        state = gl.build_glued(t, fam, n=2000)
        result = gl.newton_correct(state, tol=1e-10)
        sups[t] = result.sup_u
        if t == 4.0:
            residual_t4 = result.residual_history[-1]
            history_t4 = result.residual_history
    elapsed = time.perf_counter() - start
    ratios = [
        history_t4[i + 1] / history_t4[i] ** 2
        for i in range(len(history_t4) - 1)
        if history_t4[i] < 1e-2 and history_t4[i + 1] > 0
    ]
    quadratic = bool(ratios) and max(ratios) < 1e3
    decreasing = sups[2.0] > sups[4.0] > sups[8.0]
    ok = residual_t4 < 1e-9 and quadratic and decreasing and elapsed < 30.0
    _line(10, ok, f"t=4 residual={residual_t4:.2e} quadratic={quadratic} "
                  f"sup_u decreasing={decreasing} runtime={elapsed:.1f}s")
    assert ok


def test_criterion_11_torus_dimension():
    ok = True
    for gamma in range(2, 11):
        cx = tp.build_complex(gamma, 4 * gamma - 4)
        h0, h1 = tp.twisted_cohomology_dims(cx)
        ok = ok and h0 == 0 and h1 == 6 * gamma - 6
    _line(11, ok, "h1 = 6 gamma - 6 and h0 = 0 for gamma in 2..10 (exact)")
    assert ok


def test_criterion_12_algebra_identities(rng):
    worst = 0.0
    for _ in range(1000):
        vals = rng.standard_normal(6)
        phi = TracelessMatrix(complex(vals[0], vals[1]), complex(vals[2], vals[3]),
                              complex(vals[4], vals[5]))
        gamma = random_hermitian(rng)
        lhs = frobenius_inner(m_phi_apply(phi, gamma).matrix, gamma.matrix).real
        rhs = 4.0 * frobenius_norm(commutator(phi, gamma).matrix) ** 2
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    trichotomy = (
        m_phi_kernel_dim(TracelessMatrix(0, 0, 0)) == 3
        and m_phi_kernel_dim(TracelessMatrix(1j, 0, 0)) == 1
        and m_phi_kernel_dim(TracelessMatrix(0, 1, 0)) == 0
    )
    ok = worst < 1e-12 and trichotomy
    _line(12, ok, f"pairing identity worst rel gap={worst:.2e} kernel trichotomy={trichotomy}")
    assert ok
