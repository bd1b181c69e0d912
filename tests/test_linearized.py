import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import jn_zeros

from hitchinlab import linearized as lin

def _dense(op):
    """A as a dense matrix, read off ``op.full_band``, whose row k + i - j
    holds A[i, j]."""
    k, ab = op.block_size, op.full_band
    i, j = np.indices((ab.shape[1],) * 2)
    inside = np.abs(i - j) <= k
    dense = np.zeros(i.shape)
    dense[inside] = ab[(k + i - j)[inside], j[inside]]
    return dense


def _block_terms(profile, ell, t, n):
    """The terms of ``assemble_block(ell, t, profile, n=n)``, read on the
    block's own nodes."""
    r = lin.RadialGrid(n, lin.DEFAULT_R_MIN).r
    fam = lin.build_family(t, profile, r)
    w_off, w_diag, _ = lin._higgs_terms(t, r, fam.h)
    return lin._coupled_terms(ell, r, 4.0 * fam.f, w_off, w_diag)


def _flat_block(ell, n):
    """The coupled block at mode ell with every term zero: the flat block."""
    grid = lin.RadialGrid(n, lin.DEFAULT_R_MIN)
    zero = np.zeros(n)
    return lin._assemble(grid, lin._coupled_terms(ell, grid.r, zero, zero, zero))


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


def test_block_zero_potential_reduces_to_bessel(bessel_target):
    op = _flat_block(0, 2000)
    lam = lin.smallest_eigenvalue(op)
    assert abs(lam - bessel_target) / bessel_target < 1e-3


def test_assembled_matrices_exactly_symmetric(profile):
    grid = lin.RadialGrid(150, lin.DEFAULT_R_MIN)
    h = lin.build_family(2.0, profile, grid.r).h
    for op in (
        lin.assemble_block(3, 2.0, profile, n=150),
        lin.assemble_scalar(1, n=150),
        lin.assemble_vertical_block(2, 2.0, h, grid),
    ):
        dense = _dense(op)
        assert np.array_equal(dense, dense.T)
        assert (op.weights > 0).all()


def test_potentials_nonnegative_with_floor(profile):
    terms = _block_terms(profile, 1, 1.0, 400)
    floor = lin.potential_floor(terms)
    assert floor > 0.0
    for pot in terms.potentials:
        assert (pot >= 0.0).all()


def test_grid_size_validation(profile):
    with pytest.raises(ValueError):
        lin.assemble_block(0, 1.0, profile, n=8)


@pytest.mark.parametrize("n", [100.5, 16.25, float("inf"), float("nan")])
def test_non_integral_grid_size_raises(n):
    # 100.5 made 101 nodes, which _assemble read as a Neumann end: the
    # Dirichlet operator's lambda_min (about 5.78) came out as 1e-15
    with pytest.raises(ValueError, match="integer"):
        lin.RadialGrid(n, lin.DEFAULT_R_MIN)
    with pytest.raises(ValueError, match="integer"):
        lin.assemble_scalar(0, n=n)


def test_integral_float_grid_size_is_the_integer():
    assert np.array_equal(lin.assemble_scalar(0, n=100.0).band, lin.assemble_scalar(0, n=100).band)


def test_potential_monotonicity_minmax(profile):
    with_w = lin.smallest_eigenvalue(lin.assemble_block(1, 2.0, profile, n=400))
    grid = lin.RadialGrid(400, lin.DEFAULT_R_MIN)
    zero = np.zeros(400)
    four_f = 4.0 * lin.build_family(2.0, profile, grid.r).f
    without_w = lin.smallest_eigenvalue(
        lin._assemble(grid, lin._coupled_terms(1, grid.r, four_f, zero, zero)))
    assert with_w >= without_w - 1e-10
    without_all = lin.smallest_eigenvalue(_flat_block(1, 400))
    assert without_w >= without_all - 1e-8


def test_high_mode_lower_bound(profile):
    op = lin.assemble_block(5, 1.0, profile, n=400)
    lam = lin.smallest_eigenvalue(op)
    kappa = lin.potential_floor(_block_terms(profile, 5, 1.0, 400)) / 25.0
    assert lam >= kappa * 25.0


@pytest.fixture(scope="module")
def sweep(profile):
    ts = (1.0, 2.0, 4.0, 8.0)
    return dict(zip(ts, lin.green_norms(ts, 8, profile)))


def test_green_norms_uniformity(sweep):
    reports = sweep
    g = [rep.g_norm_l2 for rep in reports.values()]
    assert max(g) / min(g) < 2.0
    for rep in reports.values():
        assert all(lam > 0 for lam in rep.lambda_min)
        assert all(lam > 0 for lam in rep.lambda_min_vertical)
        # kappa^-1 l^-2 tail for l >= 2
        for ell, lam in zip(rep.ells, rep.lambda_min):
            if ell >= 2:
                assert 1.0 / lam <= 1.0 / (rep.kappa_hat * ell ** 2) + 1e-12


def test_green_norms_modes_increase(sweep):
    # the potentials and exponents grow with ell, so lambda_min does by min-max
    for rep in sweep.values():
        # lambda_min[1] is the ell = 0 value again
        assert np.all(np.diff(rep.lambda_min[1:]) > 0)
        assert np.all(np.diff(rep.lambda_min_vertical) > 0)


def _galerkin_lambdas(profile, t, n, ells):
    """Coupled and vertical lambda_min of the modes ``ells`` at t on n basis
    functions per component."""
    blocks = lin._Galerkin([t], profile, n, range(max(ells) + 1), {})
    return (np.array([lin._smallest(blocks.coupled(ell)[1][0])[0] for ell in ells]),
            np.array([lin._smallest(blocks.vertical(ell)[0])[0] for ell in ells]))


@pytest.mark.parametrize("t", [1.0, 8.0, 100.0, 1000.0])
def test_green_norms_basis_size_holds_for_every_mode(profile, t):
    # the basis size is chosen on the probe's blocks (ell = 0, and the
    # vertical one at ell_max); every mode's lambda at that n agrees with
    # 2n's to 1e-9 (at t >= 100, where 2n >= 96, a spread of modes)
    (rep,) = lin.green_norms([t], 32, profile)
    assert rep.n == {1.0: 24, 8.0: 24, 100.0: 48, 1000.0: 96}[t]
    assert 0.0 <= rep.lambda_2n_reldiff <= lin.GALERKIN_RTOL
    ells = range(33) if t < 100.0 else (0, 2, 16, 32)
    coupled, vertical = _galerkin_lambdas(profile, t, 2 * rep.n, ells)
    assert np.abs(np.array(rep.lambda_min)[list(ells)] / coupled - 1.0).max() <= 1e-9
    assert np.abs(np.array(rep.lambda_min_vertical)[list(ells)] / vertical - 1.0).max() <= 1e-9


@pytest.mark.parametrize("t", [1.0, 8.0, 1000.0])
def test_galerkin_flat_blocks_are_bessel_zeros(profile, t):
    # the flat coupled block is diag(P_|ell|, P_|ell-1|), each P the flat
    # stiffness of its exponent on t's mapped nodes: lambda_min is
    # min(j_{|ell|,1}^2, j_{|ell-1|,1}^2) for every ell, on every map
    n = 24 if t < 100 else 96
    blocks = lin._Galerkin([t], profile, n, range(33), {})
    for ell in (0, 1, 2, 5, 16, 32):
        nus = (abs(ell), abs(ell - 1))
        lam = min(lin._smallest(blocks.flat(nu)[1][0])[0] for nu in nus)
        exact = min(jn_zeros(nu, 1)[0] ** 2 for nu in nus)
        assert abs(lam / exact - 1.0) <= 1e-10, ell


def test_probe_doubles_past_a_basis_too_small_for_its_exponent(profile):
    # nu = 200 on 24 functions (48 nodes) leaves a singular mass matrix: the
    # probe reports no value, so the doubling goes on; 96 functions hold it
    assert lin._probe(2.0, profile, 24, 200, {}) is None
    blocks = lin._Galerkin([2.0], profile, 96, [200], {})
    lam = lin._smallest(blocks.flat(200)[1][0])[0]
    assert abs(lam / jn_zeros(200, 1)[0] ** 2 - 1.0) <= 1e-10


@pytest.mark.parametrize("t", [1.0, 8.0, 100.0])
def test_galerkin_matches_richardson_extrapolated_differences(profile, t):
    # the stencil is second order: (4 lambda_2n - lambda_n) / 3 at n = 1200
    # removes its leading error and lands within 1e-8 of the Galerkin value
    (rep,) = lin.green_norms([t], 8, profile)
    for ell in (0, 2, 5):
        coarse, fine = (lin.smallest_eigenvalue(lin.assemble_block(ell, t, profile, n=n))
                        for n in (1200, 2400))
        assert abs((4.0 * fine - coarse) / 3.0 / rep.lambda_min[ell] - 1.0) <= 1e-8, ell


def test_green_norms_basis_size_cap_raises(profile, monkeypatch):
    from hitchinlab.errors import NumericalError

    # t = 100 needs n = 48; with the cap at 24 the doubling stops and raises
    monkeypatch.setattr(lin, "GALERKIN_N_MAX", 24)
    assert lin.green_norms([8.0], 8, profile)[0].n == 24
    with pytest.raises(NumericalError, match=r"^t=100: lambda_min at n=24 and n=48 show a rel"):
        lin.green_norms([100.0], 8, profile)


@pytest.mark.parametrize("t_mid", [100, 300])
def test_green_norms_sweep_matches_one_t_sweeps(profile, t_mid):
    # the t of one basis size run together, mode by mode, and each report
    # keeps its place in ts; no state leaks from one t to another: every
    # field, surrogate_solved included, is the one-t sweep's
    ts = [0.5, 2.0, float(t_mid), 30.0]
    reports = lin.green_norms(ts, 8, profile)
    assert [rep.t for rep in reports] == ts
    assert [rep.n for rep in reports] == [24, 24, 48, 24]
    for t, rep in zip(ts, reports):
        (alone,) = lin.green_norms([t], 8, profile)
        assert vars(rep) == vars(alone)


def test_green_norms_reuses_swapped_mode(profile):
    # the ell = 1 block is the ell = 0 block with its components swapped, so
    # green_norms reports ell = 0's lambda_min for it; solving it directly
    # agrees to rounding, and so does its surrogate
    (rep,) = lin.green_norms([2.0], 8, profile)
    assert rep.lambda_min[0] == rep.lambda_min[1]
    blocks = lin._Galerkin([2.0], profile, rep.n, range(3), {})
    solved = []
    for ell in (0, 1):
        _, (k,), (v,) = blocks.coupled(ell)
        lam, k_inv = lin._smallest(k)
        solved.append((lam, math.sqrt(lin._top_eigenvalue(lin._surrogate_gram(k_inv, v)))))
    assert solved[0] == (rep.lambda_min[0], rep.g_norm_h2_surrogate)
    assert math.isclose(solved[1][0], solved[0][0], rel_tol=1e-12)
    assert math.isclose(solved[1][1], solved[0][1], rel_tol=1e-12)


def test_green_norms_solves_surrogate_at_ell_zero_only(sweep):
    # every higher mode is certified below ell = 0's surrogate, which holds
    # the maximum; surrogate_solved stays out of the report
    for rep in sweep.values():
        assert rep.surrogate_solved == [0]
        assert "surrogate_solved" not in rep.to_dict()


def _spy_surrogate_grams(monkeypatch, first_sigma=None):
    """Record every Z^T Z the sweep forms; with ``first_sigma``, the first
    one (ell = 0 of a lone t) is scaled to that largest singular value."""
    calls, real = [], lin._surrogate_gram

    def spy(k_inv, v):
        gram = real(k_inv, v)
        if first_sigma is not None and not calls:
            gram *= first_sigma ** 2 / lin._top_eigenvalue(gram)
        calls.append(gram)
        return gram

    monkeypatch.setattr(lin, "_surrogate_gram", spy)
    return calls


def test_green_norms_solves_a_mode_that_can_win(profile, monkeypatch):
    # with ell = 0's surrogate forced to 0.5, ell = 2 can raise the maximum
    # and is solved; ell >= 3 lie below ell = 2 and are certified
    grams = _spy_surrogate_grams(monkeypatch, first_sigma=0.5)
    (rep,) = lin.green_norms([8.0], 8, profile)
    assert rep.surrogate_solved == [0, 2]
    assert len(grams) == 8  # ell = 0 and 2..8
    assert rep.g_norm_h2_surrogate == math.sqrt(lin._top_eigenvalue(grams[1])) > 1.0


@pytest.mark.parametrize("t", [1.0, 8.0])
@pytest.mark.parametrize("n, ells", [(24, range(2, 33)), (64, range(2, 33)), (300, (2, 16, 32))],
                         ids=["n24", "n64", "n300"])
def test_surrogate_certificate_verdicts(profile, t, n, ells):
    # s^2 I - Z^T Z factors exactly when sigma_max(Z) < s: at a relative
    # margin of 1e-6 on either side of the value, for every mode green_norms
    # asks it at, on the basis size it picks at t (24) and on larger ones, and
    # its value agrees with a dense SVD of Z
    nus = sorted({nu for ell in ells for nu in (ell - 1, ell)})
    blocks = lin._Galerkin([t], profile, n, nus, {})
    for ell in ells:
        _, (k,), (v,) = blocks.coupled(ell)
        k_inv = lin._smallest(k)[1]
        gram = lin._surrogate_gram(k_inv, v)
        sigma = math.sqrt(lin._top_eigenvalue(gram))
        z = np.eye(len(k)) - v @ k_inv
        assert sigma == pytest.approx(np.linalg.svd(z, compute_uv=False)[0], rel=1e-12)
        eye = np.eye(len(gram))
        assert lin._cholesky_dense(((1.0 + 1e-6) * sigma) ** 2 * eye - gram) is not None, ell
        assert lin._cholesky_dense(((1.0 - 1e-6) * sigma) ** 2 * eye - gram) is None, ell


def _is_certificate(a, gram):
    """Whether ``a`` is s^2 I - ``gram`` for some s."""
    shift = a + gram
    return np.array_equal(shift, np.diag(np.diag(shift)))


def test_green_norms_certificates_get_their_blocks_square(profile, monkeypatch):
    # each t's certificate is handed s^2 I - Z^T Z of its own block, bit for
    # bit the one-t Galerkin's, at s below that t's own running maximum
    ts, ell_max = [1.0, 4.0, 16.0], 8
    grams = _spy_surrogate_grams(monkeypatch)
    certificates, real_cholesky = [], lin._cholesky_dense

    def spy_cholesky(a):
        if grams and a.shape == grams[-1].shape and _is_certificate(a, grams[-1]):
            certificates.append(a)
        return real_cholesky(a)

    monkeypatch.setattr(lin, "_cholesky_dense", spy_cholesky)
    reports = lin.green_norms(ts, ell_max, profile)
    assert [rep.n for rep in reports] == [24] * len(ts)
    assert len(certificates) == (ell_max - 1) * len(ts)
    own = {(ell, t): None for ell in range(2, ell_max + 1) for t in ts}
    for t in ts:
        blocks = lin._Galerkin([t], profile, 24, range(ell_max + 1), {})
        for ell in range(ell_max + 1):
            _, (k,), (v,) = blocks.coupled(ell)
            if ell >= 2:
                own[ell, t] = lin._surrogate_gram(lin._smallest(k)[1], v)
    for (ell, t), a in zip(own, certificates):
        rep = reports[ts.index(t)]
        s = (1.0 - lin.SURROGATE_PRUNE_MARGIN) * rep.g_norm_h2_surrogate
        assert np.array_equal(a, s * s * np.eye(len(a)) - own[ell, t]), (ell, t)


def test_green_norms_builds_flat_squares_once_per_mode(profile, monkeypatch):
    # a host-independent work guard on the mode-major sweep: modes 0..L over
    # T values of t build each exponent's flat stiffness once, for every t
    # at once, form one surrogate square Z^T Z per coupled block (ell = 1's
    # copies ell = 0's), make T (2L + 1) eigen solves past the probes' three
    # per probe, and evaluate the profile only for the probes, once per t
    # and basis size
    ts, ell_max = [1.0, 4.0, 16.0], 10
    flats, real_flat = [], lin._Galerkin.flat
    solves, real_smallest = [], lin._smallest
    families, real_build_family = [], lin.build_family

    def spy_flat(self, nu):
        if nu not in self._flat:
            flats.append((len(self.r), nu))
        return real_flat(self, nu)

    def spy_smallest(k):
        solves.append(len(k))
        return real_smallest(k)

    def spy_family(t, profile, r):
        families.append((t, len(r)))
        return real_build_family(t, profile, r)

    monkeypatch.setattr(lin._Galerkin, "flat", spy_flat)
    monkeypatch.setattr(lin, "_smallest", spy_smallest)
    monkeypatch.setattr(lin, "build_family", spy_family)
    grams = _spy_surrogate_grams(monkeypatch)
    reports = lin.green_norms(ts, ell_max, profile)
    assert [rep.n for rep in reports] == [24] * len(ts)
    assert [nu for rows, nu in flats if rows == len(ts)] == list(range(ell_max + 1))
    assert len(grams) == len(ts) * ell_max
    assert len(solves) == len(ts) * (2 * ell_max + 1 + 2 * 3)
    assert families == [(t, nodes) for t in ts for nodes in (48, 96)]


def test_green_norms_nan_certificate_solves_every_mode(profile, monkeypatch):
    # a certificate factor with a NaN pivot and info = 0, as an optimized
    # LAPACK may return, certifies nothing: every mode is solved, and the
    # maximum does not move
    expected = lin.green_norms([8.0], 8, profile)[0].g_norm_h2_surrogate
    grams, real_dpotrf = _spy_surrogate_grams(monkeypatch), lin.dpotrf

    def nan_dpotrf(a, *args, **kwargs):
        factor, info = real_dpotrf(a, *args, **kwargs)
        shift = a + grams[-1] if grams and a.shape == grams[-1].shape else None
        if shift is not None and np.array_equal(shift, np.diag(np.diag(shift))):
            # a is s^2 I - Z^T Z, the certificate's matrix
            factor[len(a) // 2, len(a) // 2] = np.nan
            info = 0
        return factor, info

    monkeypatch.setattr(lin, "dpotrf", nan_dpotrf)
    (rep,) = lin.green_norms([8.0], 8, profile)
    assert rep.surrogate_solved == [0, *range(2, 9)]
    assert rep.g_norm_h2_surrogate == expected


def _spd_with_close_top_pair(size, gap, seed=0):
    """A random orthogonal similarity of a diagonal whose top two entries are
    1 and 1 - gap, the rest spread over [0.01, 0.9]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    eigs = np.concatenate([np.linspace(0.01, 0.9, size - 2), [1.0 - gap, 1.0]])
    return (q * eigs) @ q.T


def test_lanczos_largest_close_top_pair():
    a = _spd_with_close_top_pair(120, 1e-3)
    expected = np.linalg.eigvalsh(a)[-1]
    got, vector = lin._lanczos_largest(lambda x: a @ x, np.ones(120), np.finfo(float).eps, 120)
    assert got == pytest.approx(expected, rel=1e-13)
    assert np.linalg.norm(a @ vector - got * vector) <= 1e-6


def _lanczos_steps(diag, shift):
    """(theta, products) of ``_lanczos_largest`` on diag(``diag``) from ones."""
    products = [0]

    def apply(x):
        products[0] += 1
        return diag * x

    theta, _ = lin._lanczos_largest(apply, np.ones(len(diag)), np.finfo(float).eps, 200,
                                    shift)
    return theta, products[0]


@pytest.mark.parametrize("sigma", [1.0, 100.0])
def test_lanczos_largest_stops_on_lambda(sigma):
    # theta is the top of diag(1 / (lambda - sigma)), lambda known: a shift
    # sigma > 0 loosens the stop by |1 + sigma theta| = theta lambda, so the
    # run stops sooner, with lambda = sigma + 1/theta still good to epsilon
    lam = sigma + np.geomspace(0.5, 500.0, 300)
    diag = 1.0 / (lam - sigma)
    theta, steps = _lanczos_steps(diag, sigma)
    _, steps_theta = _lanczos_steps(diag, 0.0)
    assert steps < steps_theta
    assert sigma + 1.0 / theta == pytest.approx(lam[0], rel=4 * np.finfo(float).eps, abs=0)


@pytest.mark.parametrize("shift", [-1e-6, -1.0])
def test_lanczos_largest_keeps_theta_rule_at_negative_shift(shift):
    # with lambda >= 0 a shift <= 0 leaves |1 + shift theta| <= 1: the rule
    # is the one on theta, so the run takes exactly the steps of shift 0
    diag = 1.0 / (np.geomspace(0.5, 500.0, 300) - shift)
    assert _lanczos_steps(diag, shift) == _lanczos_steps(diag, 0.0)


def test_lanczos_largest_step_cap_raises():
    from hitchinlab.errors import NumericalError

    a = _spd_with_close_top_pair(120, 1e-3)
    with pytest.raises(NumericalError, match="in 5 steps"):
        lin._lanczos_largest(lambda x: a @ x, np.ones(120), np.finfo(float).eps, 5)


def test_lanczos_largest_invariant_start():
    # an eigenvector as start vector leaves no residual after one product,
    # and its eigenvalue is returned, not a division by zero
    a = np.diag(np.arange(1.0, 21.0))
    start = np.zeros(20)
    start[-1] = 3.0
    value, vector = lin._lanczos_largest(lambda x: a @ x, start, np.finfo(float).eps, 20)
    assert value == 20.0 and np.array_equal(vector, start / 3.0)


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
    a, b = _dense(op), np.diag(op.weights)
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
        "flat": _flat_block(2, 120),
        "scalar": lin.assemble_scalar(3, n=120),
        "neumann scalar": lin.assemble_scalar(1, n=120, neumann_outer=True),
        "vertical": lin.assemble_vertical_block(2, 4.0, h, grid),
    }
    rng = np.random.default_rng(0)
    for name, op in ops.items():
        dense = _dense_from_band(op)
        assert op.band.shape == (op.block_size + 1, len(op.weights)), name
        assert np.array_equal(_dense(op), dense), name
        rhs = rng.standard_normal(len(op.weights))
        expected = np.linalg.solve(dense, rhs)
        got = op.solve(rhs)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max(), name


def _dense_smallest(op, sigma=0.0):
    """sigma + 1 / max eig of S (A - sigma B)^-1 S, with a dense Cholesky solve."""
    s = np.sqrt(op.weights)
    shifted = _dense(op) - sigma * np.diag(op.weights)
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


def _spy_dpbtrf(monkeypatch):
    """Record (band, factor, info) of every dpbtrf call."""
    calls, real = [], lin.dpbtrf

    def spy(band, *args, **kwargs):
        factor, info = real(band, *args, **kwargs)
        calls.append((band.copy(), factor, info))
        return factor, info

    monkeypatch.setattr(lin, "dpbtrf", spy)
    return calls


@pytest.mark.parametrize("t", [1.0, 8.0])
@pytest.mark.parametrize("kind, ell", [("coupled", 2), ("coupled", 5), ("coupled", 32),
                                       ("vertical", 3)])
def test_shifted_smallest_eigenvalue_matches_dense_reference(profile, monkeypatch,
                                                             kind, ell, t):
    # with the sigma = 0 factorization refused, the ladder's -1e-6 rung
    # factors A + 1e-6 B at once, and sigma + 1/mu matches the dense value
    if kind == "coupled":
        op = lin.assemble_block(ell, t, profile, n=150)
    else:
        grid = lin.RadialGrid(150, lin.DEFAULT_R_MIN)
        op = lin.assemble_vertical_block(ell, t, lin.build_family(t, profile, grid.r).h, grid)
    real_solver = lin._band_solver

    def refuse_unshifted(band):
        if band is op.band:
            raise RuntimeError("band is not positive definite")
        return real_solver(band)

    monkeypatch.setattr(lin, "_band_solver", refuse_unshifted)
    factored = _spy_dpbtrf(monkeypatch)
    assert lin.smallest_eigenvalue(op) == pytest.approx(_dense_smallest(op), rel=1e-12)
    [(band, _, info)] = factored
    assert info == 0
    assert np.array_equal(band[-1], op.band[-1] + 1e-6 * op.weights)


def test_smallest_eigenvalue_shifted_kernel_matches_dense_reference():
    # the eigenvalue is zero, so its error is measured against the first
    # nonzero eigenvalue of the pencil
    kernel = lin.assemble_scalar(0, n=150, neumann_outer=True)
    s = 1.0 / np.sqrt(kernel.weights)
    gap = np.linalg.eigvalsh(s[:, None] * _dense(kernel) * s[None, :])[1]
    lam = lin.smallest_eigenvalue(kernel)
    assert abs(lam - _dense_smallest(kernel, -1e-6)) <= 1e-12 * gap


def test_one_factorization_per_block(profile, monkeypatch):
    lanczos_args, real_lanczos = [], lin._lanczos_largest

    def spy_lanczos(apply, v0, tol, max_steps, shift=0.0):
        lanczos_args.append((tol, max_steps, shift))
        return real_lanczos(apply, v0, tol, max_steps, shift)

    factored = _spy_dpbtrf(monkeypatch)
    monkeypatch.setattr(lin, "_lanczos_largest", spy_lanczos)
    op = lin.assemble_block(3, 2.0, profile, n=100)
    lin.smallest_eigenvalue(op)
    op.solve(np.ones(len(op.weights)))
    assert len(factored) == 1
    assert np.array_equal(factored[0][0], op.band)
    assert lanczos_args == [(np.finfo(float).eps, lin.LANCZOS_MAX_STEPS, 0.0)]


def test_green_norms_evaluates_profile_once(profile, monkeypatch):
    # once on each node set: those of n = 24 and of 2n for the probe; the
    # sweep at n = 24 reuses the probe's, and no mode evaluates its own
    calls = []
    real_build_family = lin.build_family

    def spy(t, profile, r):
        calls.append((t, len(r)))
        return real_build_family(t, profile, r)

    monkeypatch.setattr(lin, "build_family", spy)
    lin.green_norms([2.0], 8, profile)
    assert calls == [(2.0, 48), (2.0, 96)]


def test_out_of_range_t_is_named(profile):
    with pytest.raises(ValueError, match=r"^t=1000\.0000000000001 outside"):
        lin.assemble_block(0, np.nextafter(1000.0, np.inf), profile, n=100)


def test_green_norms_rejects_nan_t(profile):
    with pytest.raises(ValueError):
        lin.green_norms([float("nan")], 8, profile)


def test_green_norms_requires_lmax(profile):
    with pytest.raises(ValueError):
        lin.green_norms([1.0], 4, profile)


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
    op = lin.assemble_scalar(nu, n=800)
    rhs = sol.r ** 2 * np.sin(5.0 * sol.r)
    assert np.abs(_dense(op) @ sol.u - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_conic_window_rejection():
    rhs = lambda r: np.zeros_like(r)
    for delta in (0.5, 1.5, 0.2, 2.0):
        with pytest.raises(ValueError):
            lin.conic_poisson_solve(0.5, rhs, delta, n=200)


def test_radial_grid_nodes_are_read_only_and_computed_once():
    grid = lin.RadialGrid(2000, 1e-3)
    r = grid.r
    assert grid.r is r and not r.flags.writeable
    assert np.array_equal(r, np.exp(grid.x))
    assert lin.RadialGrid(2000, 1e-3) == grid  # the cache is no field
