import math

import numpy as np
import pytest

from hitchinlab import fiducial as fd
from hitchinlab.painleve import psi_eval


def test_family_matches_profile_pointwise(profile, families):
    fam = families[2.0]
    rho = (8.0 / 3.0) * 2.0 * fam.r ** 1.5
    psi, dpsi = psi_eval(profile, rho)
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


def test_hitchin_residual_finite_t(families):
    for t in (1.0, 2.0, 4.0, 8.0):
        pair = fd.make_disk_pair(families[t], n_theta=32)
        assert fd.hitchin_residual(pair) < 1e-7


def test_hitchin_residual_perturbed_negative_control(families, profile):
    fam = families[1.0]
    bad = fd.FiducialFamily(
        t=1.0, r=fam.r, h=1.1 * fam.h, r_dh=1.1 * fam.r_dh, r_d2h=1.1 * fam.r_d2h,
        profile=profile,
    )
    assert bad.residual().max() > 1e-3


def test_limiting_pair_residuals():
    pair = fd.limiting_pair(n_theta=32)
    assert fd.hitchin_residual(pair) < 1e-12


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


def test_decay_fit_exact_and_degenerate():
    from hitchinlab.errors import NumericalError

    ts = [1.0, 2.0, 3.0, 5.0]
    delta, intercept, r2 = fd.decay_fit(ts, [3.0 * math.exp(-0.7 * t) for t in ts])
    assert delta == pytest.approx(0.7, rel=1e-12)
    assert intercept == pytest.approx(math.log(3.0), rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NumericalError, match="degenerate"):
        fd.decay_fit(ts, [0.5] * 4)


def test_nan_t_is_out_of_range(profile):
    with pytest.raises(ValueError):
        fd.build_family(float("nan"), profile)
    with pytest.raises(ValueError, match="beyond profile range"):
        fd.check_rho_range(float("nan"), profile)


def test_build_family_domain_checks(profile):
    with pytest.raises(ValueError):
        fd.build_family(-1.0, profile)
    with pytest.raises(ValueError):
        fd.build_family(40.0, profile)  # rho(1) = 106 > 2 rho_max


def test_exports(families, tmp_path):
    fam = families[1.0]
    fd.export_family_csv(fam, tmp_path / "fam.csv")
    lines = (tmp_path / "fam.csv").read_text().splitlines()
    assert lines[0] == "r,h,f,df,residual"
    assert len(lines) == len(fam.r) + 1
