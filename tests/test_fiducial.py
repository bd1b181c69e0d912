import math
import re

import numpy as np
import pytest

from hitchinlab import fiducial as fd
from hitchinlab.painleve import psi_log_derivatives


def test_family_matches_profile_pointwise(profile, families):
    fam = families[2.0]
    rho = (8.0 / 3.0) * 2.0 * fam.r ** 1.5
    psi, psi_x, _ = psi_log_derivatives(profile, rho)
    dpsi = psi_x / rho
    assert np.abs(fam.h - psi).max() < 1e-9
    assert np.abs(fam.f - (0.125 + 0.25 * fam.r * dpsi * (8.0 / 3.0) * 2.0 * 1.5 * np.sqrt(fam.r))).max() < 1e-9


def test_f_range_and_monotonicity(families):
    for fam in families.values():
        assert (fam.f >= -1e-12).all()
        assert (fam.f <= 0.125 + 1e-12).all()
        assert (np.diff(fam.f) >= -1e-12).all()


def test_defining_equation_consistency(families):
    # d_r f = 2 t^2 r^2 sinh(2h) with both sides from independent pipelines
    for t, fam in families.items():
        gap = np.abs(fam.df - 2.0 * t * t * fam.r ** 2 * np.sinh(2.0 * fam.h))
        assert gap.max() < 1e-6
        second = np.abs(fam.r_d2h - 8.0 * t * t * fam.r ** 3 * np.sinh(2.0 * fam.h))
        assert second.max() < 1e-6


def test_small_r_log_behavior(families, profile):
    # h ~ -(1/2) log r + b0; the fitted constant matches the series prediction
    for t in (1.0, 4.0):
        fam = families[t]
        predicted = -math.log(profile.a0) - math.log(8.0 * t / 3.0) / 3.0
        assert abs(fd.fitted_log_offset(fam) - predicted) < 1e-3


def test_f_double_zero_at_origin(families):
    fam = families[1.0]
    assert fam.f[0] < 1e-4  # r_min = 1e-3, t = 1


def test_h_exponential_tail_bound(families):
    # |h_t(r)| <= exp(-(8/3) t r^{3/2}) / (t r^{3/2})^{1/2} on r, t >= 1
    for t in (4.0, 8.0):
        fam = families[t]
        sel = fam.r >= 0.5
        bound = np.exp(-(8.0 / 3.0) * t * fam.r[sel] ** 1.5) / np.sqrt(t * fam.r[sel] ** 1.5)
        assert (np.abs(fam.h[sel]) <= bound).all()


def test_family_residual_finite_t(families):
    for t in (1.0, 2.0, 4.0, 8.0):
        assert families[t].residual().max() < 1e-7


def test_hitchin_residual_perturbed_negative_control(families, profile):
    fam = families[1.0]
    bad = fd.FiducialFamily(
        t=1.0, r=fam.r, h=1.1 * fam.h, r_dh=1.1 * fam.r_dh, r_d2h=1.1 * fam.r_d2h,
        profile=profile,
    )
    assert bad.residual().max() > 1e-3


def test_limiting_pair_residuals():
    pair = fd.limiting_pair(n_theta=32)
    phi, alpha = pair.phi, pair.alpha
    # Phi is normal: [Phi, Phi*] = 0
    phis = np.conj(np.swapaxes(phi, -1, -2))
    assert np.abs(phi @ phis - phis @ phi).max() < 1e-12
    # dbar_A Phi = dbar Phi + [alpha, Phi] = 0 by the closed forms
    # dbar r^(1/2) = e^(i theta) / (4 r^(1/2)) and
    # dbar(r^(1/2) e^(i theta)) = -e^(2 i theta) / (4 r^(1/2)); the commutator
    # has entries 2 alpha_11 Phi_12 and -2 alpha_11 Phi_21
    e = np.exp(1j * pair.theta)[None, :]
    sr = np.sqrt(pair.r)[:, None]
    d12 = 0.25 * e / sr + 2.0 * alpha[..., 0, 0] * phi[..., 0, 1]
    d21 = -0.25 * e * e / sr - 2.0 * alpha[..., 0, 0] * phi[..., 1, 0]
    assert max(np.abs(d12).max(), np.abs(d21).max()) < 1e-12


def test_limiting_family_has_no_curvature_residual():
    with pytest.raises(ValueError, match="t=inf"):
        fd.limiting_family().residual()


def test_det_phi_product(families):
    pair = fd.make_disk_pair(families[2.0], n_theta=32)
    product = pair.phi[..., 0, 1] * pair.phi[..., 1, 0]
    target = pair.r[:, None] * np.exp(1j * pair.theta)[None, :]
    assert np.abs(product - target).max() < 1e-12


def test_uniform_bound_sweep(families):
    n1 = [fd.verify_f_bounds(fam)["normalized_sup_f_over_r"] for fam in families.values()]
    n2 = [fd.verify_f_bounds(fam)["normalized_sup_f_over_r2"] for fam in families.values()]
    assert max(n1) / min(n1) < 3.0
    assert max(n2) / min(n2) < 3.0


@pytest.mark.parametrize("t", [1e-6, 1e-10, 1e-15, 1e-300, float(np.finfo(float).tiny),
                               np.float64(1e-300)],
                         ids=["1e-6", "1e-10", "1e-15", "1e-300", "tiny", "numpy-1e-300"])
def test_f_bounds_at_tiny_t_raise_numerical_error(profile, t):
    # check_t accepts t down to the smallest normal float, but f = 1/8 +
    # (1/4) r d_r h cancels as t -> 0: at t = 1e-6 its rounding bound at the
    # sup of f/r^2 is 1.9e-2, and for t <= 1e-15 f is exactly 0 on the grid
    from hitchinlab.errors import NumericalError

    fam = fd.build_family(t, profile)
    with pytest.raises(NumericalError, match=f"^t={re.escape(repr(float(t)))}: "):
        fd.verify_f_bounds(fam)


@pytest.mark.parametrize("t", [1e-10, 1e-300])
def test_family_summary_reports_null_sups_where_f_cancels(profile, t):
    # the rule of verify_f_bounds: at 1e-10 the sups would read 1.2e-14 and
    # 3.2e-14 (the latter against about 1.2e-14), at 1e-300 exactly 0
    row = fd.family_summary(fd.build_family(t, profile))
    assert row["sup_f_over_r"] is None and row["sup_f_over_r2"] is None
    assert row["t"] == t and math.isfinite(row["phi_sup"])


def test_family_summary_keeps_the_sups_where_f_resolves(profile):
    fam = fd.build_family(1.0, profile)
    assert fd.family_summary(fam) == {
        "t": 1.0,
        "sup_f_over_r": float((fam.f / fam.r).max()),
        "sup_f_over_r2": float((fam.f / fam.r ** 2).max()),
        "phi_sup": fd.phi_sup_bound(fam),
        "residual_max": float(fam.residual().max()),
    }


@pytest.mark.parametrize("t", [1e-3, 1.0, 1000.0])
def test_f_bounds_normalize_by_powers_of_t(profile, t):
    bounds = fd.verify_f_bounds(fd.build_family(t, profile))
    assert bounds["normalized_sup_f_over_r"] == bounds["sup_f_over_r"] * t ** (-2.0 / 3.0)
    assert bounds["normalized_sup_f_over_r2"] == bounds["sup_f_over_r2"] * t ** (-4.0 / 3.0)


def test_f_monotone_in_t(families):
    ts = sorted(families)
    for lo, hi in zip(ts, ts[1:]):
        assert (families[hi].f - families[lo].f >= -1e-9).all()


def test_f_exterior_tail(families):
    r0 = 0.35
    for t in (4.0, 8.0, 16.0):
        fam = families[t]
        sel = fam.r >= r0
        bound = 10.0 * math.exp(-(8.0 / 3.0) * t * r0 ** 1.5)
        assert np.abs(fam.f[sel] - 0.125).max() < bound


def test_phi_sup_bounds(families):
    sups = {t: fd.phi_sup_bound(fam) for t, fam in families.items()}
    for t, fam in families.items():
        entries = np.sqrt(fam.r) * np.exp(np.abs(fam.h))
        assert entries.max() < 2.0  # t-independent bound for t >= 1
    vals = list(sups.values())
    assert max(vals) / min(vals) - 1.0 < 0.5
    lim = fd.limiting_pair(n_theta=16)
    norms = np.linalg.norm(lim.phi, axis=(2, 3))
    assert abs(norms.max() - math.sqrt(2.0)) < 1e-12


def test_convergence_rate(profile):
    delta, r2, _ = fd.convergence_rate(profile, [1, 2, 4, 8, 16], 0.5)
    assert r2 > 0.99
    predicted = (8.0 / 3.0) * 0.5 ** 1.5
    assert abs(delta - predicted) / predicted < 0.2
    delta2, _, _ = fd.convergence_rate(profile, [1, 2, 4, 8, 16], 0.25)
    # doubling r0 scales the rate by ~2^(3/2)
    assert abs(delta / delta2 - 2.0 ** 1.5) / 2.0 ** 1.5 < 0.2
    with pytest.raises(ValueError):
        fd.convergence_rate(profile, [1, 2], 0.5)


def test_decay_fit_refuses_a_norm_without_a_logarithm(profile):
    # sup(|f - 1/8| + |h|) over r >= 0.5 is 2.1e-248 at t = 600 and
    # underflows to exactly 0 from t = 800, inside T_MAX: the fit names that
    # t, before any logarithm warns
    from hitchinlab.errors import NumericalError

    with pytest.raises(NumericalError, match=r"the norm at t=800 is 0\.0, not finite"):
        fd.convergence_rate(profile, [200, 400, 800], 0.5)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(NumericalError, match="the norm at t=2 is"):
            fd.decay_fit([1.0, 2.0, 3.0, 4.0], [1.0, bad, bad, 0.1])


def test_flux_identity(profile):
    # f_t(0) = 0 and d_r f = 2 t^2 r^2 sinh 2h_t, so
    # 4 f_t(1) = 8 t^2 int_0^1 r^2 sinh 2h_t dr, with the integral split at
    # the radii of rho = 1e-6, 1e-3, 0.1, 1, 5 and 20 (4.0e-13 measured)
    from scipy.integrate import quad

    for t in (0.5, 1.0, 8.0, 100.0):
        cuts = [r for r in ((3.0 * rho / (8.0 * t)) ** (2.0 / 3.0)
                            for rho in (1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0)) if r < 1.0]
        cuts = [0.0, *cuts, 1.0]

        def flux(r):
            return r * r * math.sinh(2.0 * fd.build_family(t, profile, np.array([r])).h[0])

        total = sum(quad(flux, a, b, epsrel=1e-13, epsabs=0.0)[0]
                    for a, b in zip(cuts, cuts[1:]))
        f1 = fd.build_family(t, profile, np.array([1.0])).f[0]
        assert 8.0 * t * t * total == pytest.approx(4.0 * f1, rel=1e-12, abs=0)


def test_decay_fit_exact_and_degenerate():
    from hitchinlab.errors import NumericalError

    ts = [1.0, 2.0, 3.0, 5.0]
    delta, intercept, r2 = fd.decay_fit(ts, [3.0 * math.exp(-0.7 * t) for t in ts])
    assert delta == pytest.approx(0.7, rel=1e-12)
    assert intercept == pytest.approx(math.log(3.0), rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NumericalError, match="degenerate"):
        fd.decay_fit(ts, [0.5] * 4)


def test_decay_fit_refuses_a_norm_that_does_not_fall():
    from hitchinlab.errors import NumericalError

    ts = [5.0, 1.0, 3.0, 2.0]
    norms = [math.exp(-t) for t in ts]
    delta, _, r2 = fd.decay_fit(ts, norms)  # in any order, a falling norm fits
    assert delta == pytest.approx(1.0, rel=1e-12) and r2 == pytest.approx(1.0, abs=1e-12)
    for level in (norms[3], 1.0, float("nan")):
        floored = [level if t == 3.0 else v for t, v in zip(ts, norms)]
        with pytest.raises(NumericalError, match="the norm at t=3 "):
            fd.decay_fit(ts, floored)
    # a repeated t is no step in t
    assert fd.decay_fit([1.0, 1.0, 2.0, 3.0], [1.0, 1.0, 0.5, 0.25])[0] > 0


def test_nan_t_is_out_of_range(profile):
    with pytest.raises(ValueError):
        fd.build_family(float("nan"), profile)
    with pytest.raises(ValueError, match="outside the validity range"):
        fd.check_t(float("nan"))


def test_build_family_domain_checks(profile):
    with pytest.raises(ValueError):
        fd.build_family(-1.0, profile)
    above = np.nextafter(fd.T_MAX, np.inf)
    with pytest.raises(ValueError, match="t=1000.0000000000001"):
        fd.build_family(above, profile)
    # the range is one rule in t, whatever the grid
    with pytest.raises(ValueError, match="t=1000.0000000000001"):
        fd.build_family(above, profile, np.geomspace(1e-3, 0.5, 50))


@pytest.mark.parametrize("grid", [np.array([]), np.geomspace(1e-3, 1.0, 8)[:, None],
                                  np.array(0.5)], ids=["empty", "2-d", "0-d"])
def test_build_family_needs_a_non_empty_1d_grid(profile, grid):
    # the empty grid raised IndexError at r[-1], and a 2-D grid was accepted
    with pytest.raises(ValueError, match=r"^grid must be strictly increasing in \(0, 1\]$"):
        fd.build_family(2.0, profile, grid)


@pytest.mark.parametrize("refine", [1, 4])
def test_residual_at_t_max(profile, refine):
    # criterion 02's bound is 1e-6; T_MAX keeps the residual 10x under it
    r = np.geomspace(fd.DEFAULT_R_MIN, 1.0, refine * (fd.DEFAULT_GRID_N - 1) + 1)
    assert fd.build_family(fd.T_MAX, profile, r).residual().max() <= 1e-7


def test_exports(families, tmp_path):
    fam = families[1.0]
    fd.export_family_csv(fam, tmp_path / "fam.csv")
    lines = (tmp_path / "fam.csv").read_text().splitlines()
    assert lines[0] == "r,h,f,df,residual"
    assert len(lines) == len(fam.r) + 1
    # the block writer keeps every byte of the per-value format(v, ".17g") join
    columns = (fam.r, fam.h, fam.f, fam.df, fam.residual())
    rows = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in zip(*columns))
    assert (tmp_path / "fam.csv").read_bytes() == ("r,h,f,df,residual\n" + rows).encode()


def test_shared_grids_are_read_only_and_computed_once():
    radii = np.geomspace(fd.DEFAULT_R_MIN, 1.0, fd.DEFAULT_GRID_N)
    angles = np.linspace(0.0, 2.0 * np.pi, 128, endpoint=False)
    for make, expected in ((fd.default_grid, radii), (lambda: fd.theta_grid(128), angles)):
        grid = make()
        assert make() is grid and not grid.flags.writeable
        assert np.array_equal(grid, expected)
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.5
