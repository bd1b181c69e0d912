import math

import numpy as np
import pytest
from scipy.linalg import expm

from hitchinlab import fiducial as fd
from hitchinlab import gauge as gg


def test_zero_connection_moves_as_the_full_formula(families, monkeypatch):
    # a zero connection skips the product alpha g; the moved pair is the
    # full formula's, up to the sign of zeros, and no 2x2 product is spent
    # on alpha
    fam = families[2.0]
    g = gg.orbit_gauge(fam)
    pair = gg.zero_pair(fam.r, 16)
    ginv = gg._inv2(g.values)
    full = gg._mul2(ginv, gg._mul2(pair.alpha, g.values)
                    + gg.dbar_of(g.values, pair.r, pair.theta, g.dr))
    products, real = [], gg._mul2

    def spy(a, b):
        products.append(a is pair.alpha)
        return real(a, b)

    monkeypatch.setattr(gg, "_mul2", spy)
    moved = gg.apply_complex_gauge(pair, g)
    assert not any(products) and len(products) == 3
    assert np.array_equal(moved.alpha, full)


def test_identity_gauge_fixes_pair(families):
    pair = fd.make_disk_pair(families[1.0], n_theta=32)
    ident = gg.MatrixGauge(
        np.broadcast_to(np.eye(2, dtype=complex), pair.phi.shape).copy(),
        np.zeros_like(pair.phi),
        pair.r,
    )
    moved = gg.apply_complex_gauge(pair, ident)
    assert gg.pair_discrepancy(moved, pair) < 1e-13


def _constant_unitary(rng, pair):
    th = rng.standard_normal(3) * 0.4
    u = expm(np.array([[1j * th[0], th[1] + 1j * th[2]],
                       [-th[1] + 1j * th[2], -1j * th[0]]]))
    shape = pair.phi.shape
    return gg.MatrixGauge(np.broadcast_to(u, shape).copy(), np.zeros(shape, dtype=complex),
                          pair.r)


def test_unitary_gauge_preserves_phi_norm(families, rng):
    pair = fd.make_disk_pair(families[1.0], n_theta=32)
    moved = gg.apply_complex_gauge(pair, _constant_unitary(rng, pair))
    before = np.linalg.norm(pair.phi, axis=(2, 3))
    after = np.linalg.norm(moved.phi, axis=(2, 3))
    assert np.abs(before - after).max() < 1e-12


def test_orbit_finite_t(families):
    for t in (1.0, 8.0):
        assert gg.verify_orbit_finite_t(t, families[t], n_theta=64) < 1e-7


def test_orbit_finite_t_wrong_sign_control(families):
    fam = families[1.0]
    base = gg.zero_pair(fam.r, 64)
    u = -0.25 * np.log(fam.r) - 0.5 * fam.h
    du = -0.25 / fam.r - 0.5 * fam.dh()
    wrong = gg.diagonal_gauge(-u, -du, fam.r)
    moved = gg.apply_complex_gauge(base, wrong)
    target = fd.make_disk_pair(fam, 64)
    assert gg.pair_discrepancy(moved, target, (0.05, 1.0)) > 1e-2


def test_orbit_limiting():
    assert gg.verify_orbit_limiting(fd.default_grid(), n_theta=64) < 1e-8


def _block_rows(n_theta):
    # radii per block: one complex (r, theta, 2, 2) stack within the budget
    return gg.ORBIT_BLOCK_BYTES // (4 * 16 * n_theta)


def _grid(name, n_theta):
    if name == "default":
        return fd.default_grid()
    if name == "geom1000":
        return np.geomspace(1e-4, 1.0, 1000)
    # both windows, (0.05, 1) and (0.1, 1), hold two full blocks and one radius
    return np.concatenate([np.geomspace(1e-3, 0.04, 50),
                           np.linspace(0.1, 1.0, 2 * _block_rows(n_theta) + 1)])


_TS = (1.0, 8.0, math.inf)


@pytest.mark.parametrize("n_theta, t, grid",
                         [(n, t, grid) for grid in ("default", "geom1000") for t in _TS
                          for n in (64, 128)]
                         + [(256, t, "default") for t in _TS]
                         + [(128, t, "blocks+1") for t in _TS])
def test_orbit_limiting_is_the_singular_gauge_check(profile, grid, t, n_theta):
    # the check runs on the window's radii only, in blocks; it must equal, bit
    # for bit, the explicit check computed on the whole grid and compared on
    # the window.  The orbit gauge of the h = 0 family is exactly
    # diag(|z|^-1/4, |z|^1/4), so the limiting check is the explicit
    # singular-gauge check.
    r = _grid(grid, n_theta)
    if math.isinf(t):
        fam, window = fd.limiting_family(r), (0.1, 1.0)
        target = fd.limiting_pair(r, n_theta)
    else:
        fam, window = fd.build_family(t, profile, r), (0.05, 1.0)
        target = fd.make_disk_pair(fam, n_theta)
    base = gg.zero_pair(r, n_theta)
    g = gg.orbit_gauge(fam)
    if math.isinf(t):
        sing = gg.diagonal_gauge(-0.25 * np.log(r), -0.25 / r, r)
        assert np.array_equal(g.values, sing.values) and np.array_equal(g.dr, sing.dr)
    moved = gg.apply_complex_gauge(base, g)
    explicit = gg.pair_discrepancy(moved, target, window)
    assert gg.verify_orbit_finite_t(t, fam, n_theta, window) == explicit
    if math.isinf(t):
        assert gg.verify_orbit_limiting(r, n_theta) == explicit


@pytest.mark.parametrize("n_theta", [16, 128, 256])
def test_orbit_check_runs_in_radius_blocks(families, monkeypatch, n_theta):
    fam, blocks = families[2.0], []
    apply = gg.apply_complex_gauge

    def spy(pair, g):
        blocks.append((pair.r, pair.phi.nbytes))
        return apply(pair, g)

    monkeypatch.setattr(gg, "apply_complex_gauge", spy)
    gg.verify_orbit_finite_t(2.0, fam, n_theta)
    window = fam.r[(fam.r >= 0.05) & (fam.r <= 1.0)]
    # in order and each radius once: the blocks concatenate to the window
    assert np.array_equal(np.concatenate([r for r, _ in blocks]), window)
    assert all(nbytes <= gg.ORBIT_BLOCK_BYTES for _, nbytes in blocks)
    assert len(blocks) == -(-len(window) // _block_rows(n_theta))


def test_near_singular_gauge_in_the_last_block_raises(families):
    fam = families[1.0]
    h = fam.h.copy()
    h[-1] = -40.0  # the orbit gauge at r = 1 is diag(e^20, e^-20)
    bad = fd.FiducialFamily(t=fam.t, r=fam.r, h=h, r_dh=fam.r_dh, r_d2h=fam.r_d2h)
    assert np.count_nonzero(fam.r >= 0.05) > _block_rows(128)
    with pytest.raises(ValueError, match="near singular"):
        gg.verify_orbit_finite_t(1.0, bad, 128)


def test_orbit_gauge_is_stored_once_per_radius(families):
    g = gg.orbit_gauge(families[2.0])
    assert g.values.shape[1] == 1 and g.dr.shape[1] == 1


def _materialized(g, n_theta):
    # the same gauge with its samples repeated over a full theta axis
    values = fd._stack2x2((len(g.r), n_theta))
    dr = fd._stack2x2((len(g.r), n_theta))
    values[...] = g.values
    dr[...] = g.dr
    return gg.MatrixGauge(values, dr, g.r)


@pytest.mark.parametrize("t", [1.0, 8.0, 24.0, math.inf])
def test_broadcast_gauge_moves_pairs_as_materialized(profile, t):
    # a gauge stored once per radius moves the pair bit for bit as its
    # full-theta copy does; at t = inf it is the singular gauge
    fam = fd.limiting_family() if math.isinf(t) else fd.build_family(t, profile)
    base = gg.zero_pair(fam.r, 128)
    g = gg.orbit_gauge(fam)
    moved = gg.apply_complex_gauge(base, g)
    full = gg.apply_complex_gauge(base, _materialized(g, 128))
    assert np.array_equal(moved.phi, full.phi) and np.array_equal(moved.alpha, full.alpha)


def test_broadcast_gauge_composes_and_curves_as_materialized(families):
    fam = families[2.0]
    pair = fd.make_disk_pair(fam, 32)
    diag = _diagonal_on(fam.r, pair.theta)
    full = _materialized(diag, 32)
    unip = _unipotent_on(fam.r, pair.theta)
    for got, want in ((diag.compose(unip), full.compose(unip)),
                      (unip.compose(diag), unip.compose(full))):
        assert np.array_equal(got.values, want.values) and np.array_equal(got.dr, want.dr)
    assert np.array_equal(gg.curvature_rtheta(gg.apply_complex_gauge(pair, diag)),
                          gg.curvature_rtheta(gg.apply_complex_gauge(pair, full)))


def test_gauge_theta_axis_must_be_one_or_the_pairs(families):
    pair = fd.make_disk_pair(families[1.0], 16)
    eight = _materialized(gg.orbit_gauge(families[1.0]), 8)
    with pytest.raises(ValueError, match="do not match"):
        gg.apply_complex_gauge(pair, eight)


@pytest.mark.parametrize("check", [
    lambda fams: gg.verify_orbit_finite_t(2.0, fams[2.0], 32, (2.0, 3.0)),
    lambda fams: gg.verify_orbit_finite_t(2.0, fams[2.0], 32, (1.0, 0.05)),
    lambda fams: gg.verify_orbit_limiting(fd.default_grid()[:50]),
    lambda fams: gg.pair_discrepancy(fd.make_disk_pair(fams[2.0], 16),
                                     fd.make_disk_pair(fams[2.0], 16), (2.0, 3.0)),
], ids=["beyond-grid", "reversed", "limit-grid-below-window", "pair-discrepancy"])
def test_empty_window_rejected(families, check):
    with pytest.raises(ValueError, match=r"r_window .* holds no radius of the grid on \[0\.001, "):
        check(families)


@pytest.mark.parametrize("check", [
    lambda fams, n: gg.verify_orbit_finite_t(2.0, fams[2.0], n),
    lambda fams, n: gg.verify_orbit_limiting(fd.default_grid(), n),
], ids=["finite-t", "limiting"])
@pytest.mark.parametrize("n_theta", [0, -4])
def test_no_theta_samples_rejected(families, check, n_theta):
    with pytest.raises(ValueError, match=f"n_theta must be at least 1, not {n_theta}"):
        check(families, n_theta)


def test_orbit_finite_t_rejects_mismatched_t(families):
    with pytest.raises(ValueError, match="t=2 does not match"):
        gg.verify_orbit_finite_t(2.0, families[1.0], n_theta=16)


def test_gauge_right_action(families, rng):
    pair = fd.make_disk_pair(families[2.0], n_theta=64)
    r = pair.r
    u = 0.2 * np.sin(2 * np.pi * r)
    du = 0.4 * np.pi * np.cos(2 * np.pi * r)
    g1 = gg.diagonal_gauge(u, du, r)
    g2 = _constant_unitary(rng, pair)
    two_steps = gg.apply_complex_gauge(gg.apply_complex_gauge(pair, g1), g2)
    one_step = gg.apply_complex_gauge(pair, g1.compose(g2))
    assert gg.pair_discrepancy(two_steps, one_step) < 1e-9


@pytest.mark.parametrize("shape_a, shape_b", [
    ((40, 16, 2, 2), (40, 16, 2, 2)),
    ((40, 16, 2, 2), (2, 2)),
    ((40, 1, 2, 2), (1, 16, 2, 2)),
])
def test_batched_2x2_helpers_match_numpy(shape_a, shape_b):
    rng = np.random.default_rng(2024)

    def stack(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    a, b = stack(shape_a), stack(shape_b)
    np.testing.assert_allclose(gg._mul2(a, b), a @ b, rtol=1e-13, atol=0)
    np.testing.assert_allclose(gg._inv2(a), np.linalg.inv(a), rtol=1e-13, atol=0)
    np.testing.assert_allclose(gg._inv2(b), np.linalg.inv(b), rtol=1e-13, atol=0)
    a[3, 0] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(np.linalg.LinAlgError):
        gg._inv2(a)


def test_stacks_are_entry_major(families):
    # each 2x2 entry of every stack the layer creates is one contiguous plane;
    # a new allocation site that loses the layout fails here
    fam = families[2.0]
    base = gg.zero_pair(fam.r, 16)
    pair = fd.make_disk_pair(fam, 16)
    diag = gg.orbit_gauge(fam)
    unip = _unipotent_on(fam.r, base.theta)
    c_ordered = np.ones((len(fam.r), 16, 2, 2), dtype=complex) + np.eye(2)
    moved = gg.apply_complex_gauge(base, diag)
    moved_full = gg.apply_complex_gauge(base, unip)
    composed = diag.compose(unip)
    stacks = {
        "zero_pair": (base.phi, base.alpha),
        "make_disk_pair": (pair.phi, pair.alpha),
        "diagonal_gauge": (diag.values, diag.dr),
        "_mul2": (gg._mul2(c_ordered, c_ordered), gg._mul2(c_ordered, np.eye(2))),
        "_inv2": (gg._inv2(c_ordered),),
        "compose": (composed.values, composed.dr),
        "spectral_dtheta": (gg.spectral_dtheta(c_ordered), gg.spectral_dtheta(pair.phi)),
        "apply_complex_gauge": (moved.phi, moved.alpha, moved_full.phi, moved_full.alpha),
        "dbar_of": (gg.dbar_of(diag.values, fam.r, base.theta, diag.dr),),
    }
    for name, arrays in stacks.items():
        assert all(np.moveaxis(x, (-2, -1), (0, 1)).flags.c_contiguous for x in arrays), name


def test_near_singular_gauge_rejected(families):
    fam = families[1.0]
    pair = fd.make_disk_pair(fam, 16)
    huge = gg.diagonal_gauge(12.0 * np.ones_like(fam.r), np.zeros_like(fam.r), fam.r)
    with pytest.raises(ValueError, match="near singular"):
        gg.apply_complex_gauge(pair, huge)


@pytest.mark.parametrize("field", ["values", "dr"])
def test_non_finite_gauge_rejected(families, field):
    pair = fd.make_disk_pair(families[1.0], 16)
    g = gg.orbit_gauge(families[1.0])
    getattr(g, field)[7, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        gg.apply_complex_gauge(pair, g)


@pytest.mark.parametrize("field", ["phi", "alpha"])
def test_pair_discrepancy_propagates_nan(field):
    clean = gg.zero_pair(fd.default_grid(), 16)
    dirty = gg.zero_pair(fd.default_grid(), 16)
    getattr(dirty, field)[200, 3, 1, 0] = np.nan
    assert math.isnan(gg.pair_discrepancy(dirty, clean))
    assert math.isnan(gg.pair_discrepancy(clean, dirty))


def test_gauge_on_another_grid_rejected(families):
    pair = fd.make_disk_pair(families[1.0], 16)
    other = gg.diagonal_gauge(pair.r[1:], np.zeros(len(pair.r) - 1), pair.r[1:])
    with pytest.raises(ValueError, match="do not match"):
        gg.apply_complex_gauge(pair, other)


def test_gauge_on_other_radii_rejected(families):
    # same shape, other radii: the samples would be combined by index
    pair = fd.make_disk_pair(families[1.0], 16)
    other = gg.diagonal_gauge(np.zeros_like(pair.r), np.zeros_like(pair.r), 2.0 * pair.r)
    with pytest.raises(ValueError, match="do not match"):
        gg.apply_complex_gauge(pair, other)


def test_compose_on_other_radii_rejected():
    # same shape, other radii: the product would pair samples by index
    r = np.geomspace(1e-3, 1.0, 16)
    zero = np.zeros_like(r)
    g = gg.diagonal_gauge(zero, zero, r)
    other = gg.diagonal_gauge(zero, zero, np.linspace(1e-3, 1.0, 16))
    with pytest.raises(ValueError, match="different radii"):
        g.compose(other)
    assert np.array_equal(g.compose(g).values, g.values)


def test_pair_discrepancy_rejects_another_grid(profile):
    geom = fd.make_disk_pair(fd.build_family(1.0, profile, np.geomspace(1e-3, 1.0, 400)), 16)
    lin = fd.make_disk_pair(fd.build_family(1.0, profile, np.linspace(0.01, 1.0, 400)), 16)
    turned = fd.DiskPair(r=geom.r, theta=geom.theta + 0.1, phi=geom.phi, alpha=geom.alpha)
    for other in (lin, turned):
        with pytest.raises(ValueError, match="different grids"):
            gg.pair_discrepancy(geom, other, (0.05, 1.0))


@pytest.mark.parametrize("t", [1.0, 8.0])
def test_curvature_rtheta_of_the_disk_pair_is_closed_form(profile, t):
    # the connection f diag(1, -1) (dz/z - dzbar/zbar) is f diag(1, -1) 2i dtheta,
    # so F_{r theta} = 2i d_r f diag(1, -1) with the family's exact d_r f; the
    # radial difference of the connection makes the error second order
    errs = []
    for n_r in (200, 400, 800, 1600):
        fam = fd.build_family(t, profile, np.geomspace(0.05, 1.0, n_r))
        exact = fd._stack2x2((n_r, 1), zeroed=True)
        exact[..., 0, 0] = 2j * fam.df[:, None]
        exact[..., 1, 1] = -2j * fam.df[:, None]
        curv = gg.curvature_rtheta(fd.make_disk_pair(fam, 16))
        errs.append(np.abs(curv - exact)[1:-1].max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 1e-5
    assert np.all((orders >= 1.8) & (orders <= 2.2)), orders


def test_limiting_pair_is_flat():
    # f = 1/8 is constant, so the limiting connection has no curvature
    curv = gg.curvature_rtheta(fd.limiting_pair(np.geomspace(0.05, 1.0, 400), 16))
    assert np.abs(curv).max() <= 1e-11


def test_dbar_is_the_one_complex_derivative():
    # d_z X = conj(dbar conj X); both on holomorphic and antiholomorphic data
    r = np.geomspace(0.1, 1.0, 60)
    theta = gg.theta_grid(32)
    z = (r[:, None] * np.exp(1j * theta)[None, :])[..., None, None]

    def d_z(x):
        return np.conj(gg.dbar_of(np.conj(x), r, theta))

    for value, expected_dz, expected_dbar in ((z ** 2, 2.0 * z, 0.0), (np.conj(z), 0.0, 1.0)):
        assert np.abs(d_z(value) - expected_dz).max() < 1e-13
        assert np.abs(gg.dbar_of(value, r, theta) - expected_dbar).max() < 1e-13


def test_theta_constant_dbar_is_the_radial_term(families, monkeypatch):
    # a theta axis of length 1 has d_theta exactly 0: dbar is (1/2) e^{i theta}
    # d_r, with no FFT, and the full formula agrees up to the sign of zeros
    fam = families[2.0]
    g = gg.orbit_gauge(fam)
    theta = gg.theta_grid(16)
    phase = 0.5 * np.exp(1j * theta)[None, :, None, None]
    full = phase * (g.dr + 1j / fam.r[:, None, None, None] * gg.spectral_dtheta(g.values))
    monkeypatch.setattr(gg, "spectral_dtheta", None)
    for dr, expected in ((g.dr, phase * g.dr),
                         (None, phase * gg.radial_derivative(g.values, fam.r))):
        got = gg.dbar_of(g.values, fam.r, theta, dr)
        assert got.tobytes() == expected.tobytes()
    assert np.array_equal(gg.dbar_of(g.values, fam.r, theta, g.dr), full)


def _diagonal_on(r, _theta):
    return gg.diagonal_gauge(0.3 * np.sin(2.0 * r), 0.6 * np.cos(2.0 * r), r)


def _unipotent_on(r, theta):
    # [[1, b(r) e^{i theta}], [0, 1]]: full in theta, with exact d_r
    values = fd._stack2x2((len(r), len(theta)), zeroed=True)
    dr = fd._stack2x2((len(r), len(theta)), zeroed=True)
    values[..., 0, 0] = values[..., 1, 1] = 1.0
    values[..., 0, 1] = 0.2 * np.sin(3.0 * r)[:, None] * np.exp(1j * theta)[None, :]
    dr[..., 0, 1] = 0.6 * np.cos(3.0 * r)[:, None] * np.exp(1j * theta)[None, :]
    return gg.MatrixGauge(values, dr, r)


@pytest.mark.parametrize("build", [_diagonal_on])
def test_gauge_dr_is_the_exact_radial_derivative(build):
    # the carried derivative is what second-order differences of the values
    # converge to, at order 2
    theta = gg.theta_grid(16)
    errs = []
    for n_r in (100, 200, 400):
        r = np.linspace(0.2, 1.0, n_r)
        g = build(r, theta)
        errs.append(np.abs(g.dr - gg.radial_derivative(g.values, r)).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] < 1e-4
    assert np.all((orders >= 1.8) & (orders <= 2.2)), orders
