from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import jn_zeros

from hitchinlab import linearized as lin


@pytest.fixture(scope="module")
def bessel_target():
    return jn_zeros(0, 1)[0] ** 2


def test_bessel_oracle_at_n2000(families, bessel_target):
    op = lin.assemble_scalar(0, n=2000)
    lam = lin.smallest_eigenvalue(op)
    assert abs(lam - bessel_target) / bessel_target < 1e-3


def test_second_order_convergence(bessel_target):
    lams = [lin.smallest_eigenvalue(lin.assemble_scalar(0, n=n)) for n in (500, 1000, 2000)]
    ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
    assert 3.3 < ratio < 4.7  # order two gives ratio 4
    errs = [abs(l - bessel_target) for l in lams]
    assert errs[0] > errs[1] > errs[2]


def test_block_zero_potential_reduces_to_bessel(profile, bessel_target):
    op = lin.assemble_block(0, 1.0, profile, n=2000, connection=False, higgs=False)
    lam = lin.smallest_eigenvalue(op)
    assert abs(lam - bessel_target) / bessel_target < 1e-3


def test_assembled_matrices_exactly_symmetric(profile):
    grid = lin.RadialGrid(150, lin.DEFAULT_R_MIN)
    h = lin.build_family(2.0, profile, grid.r).h
    for op in (
        lin.assemble_block(3, 2.0, profile, n=150),
        lin.assemble_scalar(1, n=150),
        lin.assemble_block(0, 1.0, profile, n=150, neumann_outer=True),
        lin.assemble_vertical_block(2, 2.0, h, grid),
    ):
        assert (op.matrix != op.matrix.T).nnz == 0
        assert (op.weights > 0).all()


def test_potentials_nonnegative_with_floor(profile):
    op = lin.assemble_block(1, 1.0, profile, n=400)
    floor = lin.potential_floor(op)
    assert floor > 0.0
    for pot in op.potentials:
        assert (pot >= 0.0).all()


def test_grid_size_validation(profile):
    with pytest.raises(ValueError):
        lin.assemble_block(0, 1.0, profile, n=8)


def test_potential_monotonicity_minmax(profile):
    with_w = lin.smallest_eigenvalue(lin.assemble_block(1, 2.0, profile, n=400))
    without_w = lin.smallest_eigenvalue(lin.assemble_block(1, 2.0, profile, n=400, higgs=False))
    assert with_w >= without_w - 1e-10
    without_all = lin.smallest_eigenvalue(
        lin.assemble_block(1, 2.0, profile, n=400, higgs=False, connection=False)
    )
    assert without_w >= without_all - 1e-8


def test_high_mode_lower_bound(profile):
    op = lin.assemble_block(5, 1.0, profile, n=400)
    lam = lin.smallest_eigenvalue(op)
    kappa = lin.potential_floor(op) / 25.0
    assert lam >= kappa * 25.0


def test_green_norms_uniformity(profile):
    reports = {t: lin.green_norms(t, 8, profile, n=300) for t in (1.0, 2.0, 4.0, 8.0)}
    g = [rep.g_norm_l2 for rep in reports.values()]
    assert max(g) / min(g) < 2.0
    for rep in reports.values():
        assert all(lam > 0 for lam in rep.lambda_min)
        assert all(lam > 0 for lam in rep.lambda_min_vertical)
        # kappa^-1 l^-2 tail for l >= 2
        for ell, lam in zip(rep.ells, rep.lambda_min):
            if ell >= 2:
                assert 1.0 / lam <= 1.0 / (rep.kappa_hat * ell ** 2) + 1e-12


def _surrogate_pair(profile, ell, t, n):
    op = lin.assemble_block(ell, t, profile, n=n)
    flat = lin.assemble_block(ell, t, profile, n=n, connection=False, higgs=False)
    return op, flat


@pytest.mark.parametrize("ell", [0, 32])
def test_h2_surrogate_matches_dense_svd(profile, ell):
    op, flat = _surrogate_pair(profile, ell, 1.0, 64)
    s = np.sqrt(op.weights)
    m = flat.matrix.toarray() @ np.linalg.solve(op.matrix.toarray(), np.diag(s)) / s[:, None]
    sigma_max = np.linalg.svd(m, compute_uv=False)[0]
    assert lin.h2_surrogate_norm(op, flat) == pytest.approx(sigma_max, rel=1e-9)


def test_h2_surrogate_nonconvergence_raises(profile, monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    from hitchinlab.errors import NumericalError

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(lin, "eigsh", no_convergence)
    op, flat = _surrogate_pair(profile, 0, 1.0, 64)
    with pytest.raises(NumericalError, match="did not converge"):
        lin.h2_surrogate_norm(op, flat)


def test_smallest_eigenvalue_shift_ladder():
    import dataclasses

    from hitchinlab.errors import NumericalError

    # constant kernel: rounding leaves the zero shift's last Cholesky pivot
    # at about 1e-7, so sigma = 0 factors and Lanczos returns about 1e-15;
    # were that pivot not positive, the -1e-6 shift would find 0
    kernel = lin.assemble_scalar(0, n=200, neumann_outer=True)
    assert abs(lin.smallest_eigenvalue(kernel)) < 1e-10
    # a malformed operator is a programming error, not a numerical failure
    bad = dataclasses.replace(kernel, weights=kernel.weights[:-1])
    with pytest.raises(ValueError) as info:
        lin.smallest_eigenvalue(bad)
    assert not isinstance(info.value, NumericalError)


def test_smallest_eigenvalue_indefinite_operator():
    from scipy.linalg import eigh

    from hitchinlab.errors import NumericalError

    # lambda_min = -0.2197: A and A + 1e-6 B are not positive definite, so
    # their factorizations fail and the ladder answers from sigma = -1
    op = lin.assemble_scalar(0, n=200, potential=lambda r: -6.0 * np.ones_like(r))
    a, b = op.matrix.toarray(), np.diag(op.weights)
    dense = eigh(a + b, b, eigvals_only=True)[0] - 1.0
    assert dense == pytest.approx(-0.2197, abs=1e-4)
    with pytest.raises(RuntimeError):
        op.solve
    assert lin.smallest_eigenvalue(op) == pytest.approx(dense, rel=1e-12)
    # lambda_min = -24.2 lies below every shift of the ladder
    deep = lin.assemble_scalar(0, n=200, potential=lambda r: -30.0 * np.ones_like(r))
    with pytest.raises(NumericalError, match="not positive definite"):
        lin.smallest_eigenvalue(deep)
    # a NaN pivot is not positive either, whatever the LAPACK build reports
    nan = lin.assemble_scalar(0, n=200, potential=lambda r: np.where(r < 0.5, 0.0, np.nan))
    with pytest.raises(NumericalError, match="not positive definite"):
        lin.smallest_eigenvalue(nan)


def _dense_from_band(op):
    """The symmetric matrix whose upper band storage is ``op.band``."""
    k, size = op.block_size, op.band.shape[1]
    dense = np.zeros((size, size))
    for row in range(k + 1):
        d = k - row
        cols = np.arange(d, size)
        dense[cols - d, cols] = op.band[row, d:]
        dense[cols, cols - d] = op.band[row, d:]
    return dense


def test_band_layout_and_cholesky_solve(profile):
    grid = lin.RadialGrid(120, lin.DEFAULT_R_MIN)
    h = lin.build_family(4.0, profile, grid.r).h
    ops = {
        "coupled": lin.assemble_block(2, 4.0, profile, n=120),
        "flat": lin.assemble_block(2, 4.0, profile, n=120, connection=False, higgs=False),
        "scalar": lin.assemble_scalar(3, n=120),
        "neumann scalar": lin.assemble_scalar(1, n=120, neumann_outer=True),
        "neumann coupled": lin.assemble_block(1, 4.0, profile, n=120, neumann_outer=True),
        "vertical": lin.assemble_vertical_block(2, 4.0, h, grid),
    }
    rng = np.random.default_rng(0)
    for name, op in ops.items():
        dense = _dense_from_band(op)
        assert op.band.shape == (op.block_size + 1, len(op.weights)), name
        assert np.array_equal(op.matrix.toarray(), dense), name
        rhs = rng.standard_normal(len(op.weights))
        expected = np.linalg.solve(dense, rhs)
        got = op.solve(rhs)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), name


def _dense_smallest(op, sigma=0.0):
    """sigma + 1 / max eig of S (A - sigma B)^-1 S, with a dense Cholesky solve."""
    s = np.sqrt(op.weights)
    shifted = op.matrix.toarray() - sigma * np.diag(op.weights)
    inverse = cho_solve(cho_factor(shifted), np.diag(s))
    return sigma + 1.0 / np.linalg.eigvalsh(s[:, None] * inverse)[-1]


@pytest.mark.parametrize("t", [1.0, 8.0])
@pytest.mark.parametrize("ell", [0, 5, 32])
def test_smallest_eigenvalue_matches_dense_reference(profile, ell, t):
    op = lin.assemble_block(ell, t, profile, n=150)
    assert lin.smallest_eigenvalue(op) == pytest.approx(_dense_smallest(op), rel=1e-12)


def test_smallest_eigenvalue_vertical_matches_dense_reference(profile):
    grid = lin.RadialGrid(150, lin.DEFAULT_R_MIN)
    h = lin.build_family(8.0, profile, grid.r).h
    op = lin.assemble_vertical_block(3, 8.0, h, grid)
    assert lin.smallest_eigenvalue(op) == pytest.approx(_dense_smallest(op), rel=1e-12)


def test_smallest_eigenvalue_shifted_kernel_matches_dense_reference():
    # the eigenvalue is zero, so its error is measured against the first
    # nonzero eigenvalue of the pencil
    kernel = lin.assemble_scalar(0, n=150, neumann_outer=True)
    s = 1.0 / np.sqrt(kernel.weights)
    gap = np.linalg.eigvalsh(s[:, None] * kernel.matrix.toarray() * s[None, :])[1]
    lam = lin.smallest_eigenvalue(kernel)
    assert abs(lam - _dense_smallest(kernel, -1e-6)) <= 1e-12 * gap


def test_one_factorization_per_block(profile, monkeypatch):
    factored, eigsh_kwargs = [], []
    real_dpbtrf, real_eigsh = lin.dpbtrf, lin.eigsh

    def spy_dpbtrf(band, *args, **kwargs):
        factored.append(band.copy())
        return real_dpbtrf(band, *args, **kwargs)

    def spy_eigsh(*args, **kwargs):
        eigsh_kwargs.append(kwargs)
        return real_eigsh(*args, **kwargs)

    monkeypatch.setattr(lin, "dpbtrf", spy_dpbtrf)
    monkeypatch.setattr(lin, "eigsh", spy_eigsh)
    op, flat = _surrogate_pair(profile, 3, 2.0, 100)
    lin.smallest_eigenvalue(op)
    lin.h2_surrogate_norm(op, flat)
    assert len(factored) == 1
    assert np.array_equal(factored[0], op.band)
    assert len(eigsh_kwargs) == 2
    assert all("M" not in kw and "sigma" not in kw for kw in eigsh_kwargs)


def test_flat_block_reads_no_profile(profile, monkeypatch):
    def no_profile(*args, **kwargs):
        raise AssertionError("flat block evaluated the profile")

    monkeypatch.setattr(lin, "build_family", no_profile)
    flat = lin.assemble_block(4, 2.0, profile, n=100, connection=False, higgs=False)
    r = flat.grid.r
    assert np.array_equal(flat.potentials[0], 16.0 / r ** 2)
    assert np.array_equal(flat.potentials[1], 9.0 / r ** 2)
    assert not flat.coupling.any()


def test_green_norms_evaluates_profile_once(profile, monkeypatch):
    calls = []
    real_build_family = lin.build_family

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real_build_family(*args, **kwargs)

    monkeypatch.setattr(lin, "build_family", spy)
    lin.green_norms(2.0, 8, profile, n=100)
    assert calls == [2.0]


def test_out_of_range_t_is_named(profile):
    with pytest.raises(ValueError, match=r"^t=40: "):
        lin.assemble_block(0, 40.0, profile, n=100)


def test_green_norms_rejects_nan_t(profile):
    with pytest.raises(ValueError):
        lin.green_norms(float("nan"), 8, profile, n=100)


def test_green_norms_requires_lmax(profile):
    with pytest.raises(ValueError):
        lin.green_norms(1.0, 4, profile, n=300)


def test_indicial_roots_per_mode():
    roots = lin.indicial_roots(range(-10, 11))
    zero = dict(roots["per_ell"][0])
    assert zero[Fraction(0)] == 2
    assert zero[Fraction(1, 2)] == 2 and zero[Fraction(-1, 2)] == 2
    one = dict(roots["per_ell"][1])
    assert one[Fraction(1)] == 1 and one[Fraction(-1)] == 1
    assert one[Fraction(3, 2)] == 1 and one[Fraction(1, 2)] == 1
    expected = sorted(Fraction(m, 2) for m in range(-21, 22))
    assert roots["aggregate"] == expected


def test_restricted_roots_are_half_integers():
    roots = lin.restricted_indicial_roots(range(-10, 10))
    assert roots == [Fraction(2 * l + 1, 2) for l in range(-10, 10)]
    assert all(r.denominator == 2 for r in roots)
    assert Fraction(1, 2) == min(r for r in roots if r > 0)


def test_conic_zero_rhs_is_zero():
    sol = lin.conic_poisson_solve(0.5, lambda r: np.zeros_like(r), 1.0, n=500)
    assert np.abs(sol.u).max() == 0.0


def test_conic_inner_decay_exponent():
    def bump(r):
        out = np.zeros_like(r)
        m = (r > 0.5) & (r < 0.8)
        s = (r[m] - 0.5) / 0.3
        out[m] = np.exp(-1.0 / (s * (1.0 - s)))
        return out

    sol = lin.conic_poisson_solve(0.5, bump, 1.0, n=4000)
    slope = lin.inner_decay_exponent(sol)
    assert abs(slope - 0.5) < 0.025


def test_conic_manufactured_roundtrip():
    grid = lin.RadialGrid(6000, 1e-6)
    rhs = lin.apply_conic_operator(0.5, lambda r: np.sqrt(r) * (1.0 - r), grid)
    sol = lin.conic_poisson_solve(0.5, rhs, 1.0, n=6000)
    assert np.abs(sol.u - np.sqrt(sol.r) * (1.0 - sol.r)).max() < 1e-6


@pytest.mark.parametrize("nu", [0.5, -0.7, 2.0])
def test_conic_solve_uses_scalar_operator(nu):
    sol = lin.conic_poisson_solve(nu, lambda r: np.sin(5.0 * r), 1.0, n=800)
    a = lin.assemble_scalar(nu, n=800).matrix
    rhs = sol.r ** 2 * np.sin(5.0 * sol.r)
    assert np.abs(a @ sol.u - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_conic_window_rejection():
    rhs = lambda r: np.zeros_like(r)
    for delta in (0.5, 1.5, 0.2, 2.0):
        with pytest.raises(ValueError):
            lin.conic_poisson_solve(0.5, rhs, delta, n=200)
