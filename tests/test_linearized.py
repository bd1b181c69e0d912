import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.special import jn_zeros

from hitchinlab import linearized as lin

_real_smallest_eigenvalue = lin.smallest_eigenvalue


def _dense(op):
    """A as a dense matrix, read off ``op.full_band``, whose row k + i - j
    holds A[i, j]."""
    k, ab = op.block_size, op.full_band
    i, j = np.indices((ab.shape[1],) * 2)
    inside = np.abs(i - j) <= k
    dense = np.zeros(i.shape)
    dense[inside] = ab[(k + i - j)[inside], j[inside]]
    return dense


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
        dense = _dense(op)
        assert np.array_equal(dense, dense.T)
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


@pytest.fixture(scope="module")
def sweep(profile):
    ts = (1.0, 2.0, 4.0, 8.0)
    return dict(zip(ts, lin.green_norms(ts, 8, profile, n=300)))


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
    # what makes each chain's previous value a valid shift
    for rep in sweep.values():
        # lambda_min[1] is the ell = 0 value again
        assert np.all(np.diff(rep.lambda_min[1:]) > 0)
        assert np.all(np.diff(rep.lambda_min_vertical) > 0)


def _expected_shifts(chain):
    """The shift rule along a chain of lambda_min: 0, then the previous value
    for the first two modes, then SHIFT_REACH of the way to the quadratic
    extrapolation through the last three values."""
    shifts = []
    for i in range(len(chain)):
        if i == 0:
            shifts.append(0.0)
        elif i < 3:
            shifts.append(chain[i - 1])
        else:
            a, b, c = chain[i - 3:i]
            shifts.append(c + lin.SHIFT_REACH * ((3.0 * c - 3.0 * b + a) - c))
    return shifts


def _spy_eigen_solves(monkeypatch):
    """Record (op, below, start as passed in, value, dpbtrf calls made by it)
    of every smallest_eigenvalue call."""
    calls, real = [], lin.smallest_eigenvalue
    factored = _spy_dpbtrf(monkeypatch)

    def spy(op, below=0.0, start=None):
        first = len(factored)
        given = None if start is None else start.copy()
        value = real(op, below, start)
        calls.append((op, below, given, value, factored[first:]))
        return value

    monkeypatch.setattr(lin, "smallest_eigenvalue", spy)
    return calls


@pytest.mark.parametrize("t", [2.0, 16.0])
def test_green_norms_shifts_by_extrapolation(profile, monkeypatch, t):
    calls = _spy_eigen_solves(monkeypatch)
    (rep,) = lin.green_norms([t], 16, profile, n=100)
    vertical = [c for c in calls if c[0].block_size == 1]
    coupled = [c for c in calls if c[0].block_size == 2]
    assert [c[0].ell for c in vertical] == list(range(17))
    assert [c[0].ell for c in coupled] == [0, *range(2, 17)]
    assert [c[3] for c in vertical] == rep.lambda_min_vertical
    solved = [rep.lambda_min[0], *rep.lambda_min[2:]]
    assert [c[3] for c in coupled] == solved
    assert [c[1] for c in vertical] == _expected_shifts(rep.lambda_min_vertical)
    # the coupled chain runs over the modes it solved: ell = 1 copies ell = 0
    assert [c[1] for c in coupled] == _expected_shifts(solved)
    for op, below, _, value, factored in calls:
        assert below < value
        # each shift is accepted at once: one factorization, no refusal
        assert [info for _, _, info in factored] == [0]
        assert value == pytest.approx(_real_smallest_eigenvalue(op, 0.0), rel=1e-12, abs=0)


def test_refused_extrapolated_shift_falls_back_to_zero(profile, monkeypatch):
    # a reach of 3 puts each extrapolated shift above the spectrum: it fails to
    # factor, and the ladder returns exactly the sigma = 0 value
    monkeypatch.setattr(lin, "SHIFT_REACH", 3.0)
    calls = _spy_eigen_solves(monkeypatch)
    lin.green_norms([2.0], 8, profile, n=100)
    extrapolated = [c for c in calls if c[0].ell >= 3 + (c[0].block_size == 2)]
    assert len(extrapolated) == 6 + 5
    for op, below, start, value, factored in extrapolated:
        (refused, factor, info), (band, _, accepted) = factored
        assert info > 0 or not np.isfinite(factor[-1]).all()
        assert np.array_equal(refused[-1], op.band[-1] - below * op.weights)
        assert accepted == 0 and np.array_equal(band, op.band)
        assert value == _real_smallest_eigenvalue(op, 0.0, start)


def test_green_norms_chains_start_from_ritz_vectors(profile, monkeypatch):
    # each chain starts from ones; every later solve starts from the Ritz
    # vector y = S u of the chain's previous solve, whose Rayleigh quotient
    # u'Au / u'Bu on that block is the previous lambda_min
    calls = _spy_eigen_solves(monkeypatch)
    lin.green_norms([2.0], 8, profile, n=100)
    for size in (1, 2):
        chain = [c for c in calls if c[0].block_size == size]
        assert np.array_equal(chain[0][2], np.ones(len(chain[0][0].weights)))
        for (op, _, _, value, _), (_, _, start, _, _) in zip(chain, chain[1:]):
            u = start / np.sqrt(op.weights)
            quotient = (u @ op.matvec(u)) / (u @ (op.weights * u))
            assert quotient == pytest.approx(value, rel=1e-12)
            assert np.linalg.norm(start) == pytest.approx(1.0, rel=1e-14)


def test_green_norms_lanczos_products(profile, monkeypatch):
    # a host-independent guard on the shift rule: 941 products with each
    # chain shifted by its previous value, 500 with the extrapolated shift
    # (ARPACK); 396 with the numpy Lanczos started from each chain's Ritz
    # vector; 342 with each run stopped on lambda rather than on mu
    products, real_lanczos, real = [0], lin._lanczos_largest, lin.smallest_eigenvalue
    active = [False]

    def spy_lanczos(apply, *args):
        def counted(x):
            products[0] += active[0]
            return apply(x)
        return real_lanczos(counted, *args)

    def spy(op, below=0.0, start=None):
        active[0] = True
        try:
            return real(op, below, start)
        finally:
            active[0] = False

    monkeypatch.setattr(lin, "_lanczos_largest", spy_lanczos)
    monkeypatch.setattr(lin, "smallest_eigenvalue", spy)
    lin.green_norms([1.0], 32, profile, n=600)
    assert 0 < products[0] <= 380


@pytest.mark.parametrize("n", [100, 300])
def test_green_norms_sweep_matches_one_t_sweeps(profile, n):
    # each t keeps its own chains, so no state leaks from one t to the next:
    # every field, surrogate_solved included, is the one-t sweep's
    ts = [0.5, 2.0, 30.0, 1000.0]
    reports = lin.green_norms(ts, 8, profile, n=n)
    assert [rep.t for rep in reports] == ts
    for t, rep in zip(ts, reports):
        (alone,) = lin.green_norms([t], 8, profile, n=n)
        assert vars(rep) == vars(alone)


def test_green_norms_builds_flat_squares_once_per_mode(profile, monkeypatch):
    # a host-independent work guard on the mode-major sweep: modes 0..L over
    # T values of t make L - 1 square calls (ell >= 2), each on the 1 + T
    # blocks of its mode, the flat block first (shared by every t), and
    # T (2L + 1) eigen solves (ell = 1's coupled block copies ell = 0's), and
    # evaluate the profile once per t
    ts, ell_max, n = [1.0, 4.0, 16.0], 10, 100
    squares, real_square = [], lin._band_square
    families, real_build_family = [], lin.build_family

    def spy_square(band, w):
        blocks = np.split(band[1, 1::2], 1 + len(ts))
        # the flat band has no coupling, every t's block has
        squares.append([block.any() for block in blocks])
        assert np.array_equal(w, np.tile(w[:2 * n], 1 + len(ts)))
        return real_square(band, w)

    def spy_family(t, *args, **kwargs):
        families.append(t)
        return real_build_family(t, *args, **kwargs)

    monkeypatch.setattr(lin, "_band_square", spy_square)
    monkeypatch.setattr(lin, "build_family", spy_family)
    calls = _spy_eigen_solves(monkeypatch)
    lin.green_norms(ts, ell_max, profile, n=n)
    assert squares == [[False] + [True] * len(ts)] * (ell_max - 1)
    assert len(calls) == len(ts) * (2 * ell_max + 1)
    assert families == ts


def test_green_norms_reuses_swapped_mode(profile):
    # the ell = 1 block is the ell = 0 block with its components swapped, so
    # green_norms reports ell = 0's lambda_min for it; solving it directly
    # agrees to Lanczos round-off, and so does its surrogate
    (rep,) = lin.green_norms([2.0], 8, profile, n=300)
    assert rep.lambda_min[0] == rep.lambda_min[1]
    pairs = [_surrogate_pair(profile, ell, 2.0, 300) for ell in (0, 1)]
    lam = [lin.smallest_eigenvalue(op) for op, _ in pairs]
    surrogate = [lin.h2_surrogate_norm(op, flat) for op, flat in pairs]
    assert lam[0] == rep.lambda_min[0]
    assert math.isclose(lam[1], lam[0], rel_tol=1e-12)
    assert math.isclose(surrogate[1], surrogate[0], rel_tol=1e-9)


def test_green_norms_solves_surrogate_at_ell_zero_only(sweep):
    # every higher mode is certified below ell = 0's surrogate, which holds
    # the maximum; surrogate_solved stays out of the report
    for rep in sweep.values():
        assert rep.surrogate_solved == [0]
        assert "surrogate_solved" not in rep.to_dict()


def _spy_surrogate(monkeypatch, override=None):
    """Record (ell, value) of every h2_surrogate_norm call; ``override`` maps
    an ell to the value returned in place of the solved one."""
    calls, override = [], override or {}
    real = lin.h2_surrogate_norm

    def spy(op, flat):
        value = override[op.ell] if op.ell in override else real(op, flat)
        calls.append((op.ell, value))
        return value

    monkeypatch.setattr(lin, "h2_surrogate_norm", spy)
    return calls


def test_green_norms_solves_a_mode_that_can_win(profile, monkeypatch):
    # with ell = 0 forced small, ell = 2 can raise the maximum and must run
    # Lanczos; ell >= 3 lie below ell = 2 and are certified
    calls = _spy_surrogate(monkeypatch, {0: 0.5})
    (rep,) = lin.green_norms([8.0], 8, profile, n=100)
    assert rep.surrogate_solved == [0, 2] == [ell for ell, _ in calls]
    assert rep.g_norm_h2_surrogate == calls[1][1] > 1.0


def test_green_norms_nan_certificate_falls_back_to_lanczos(profile, monkeypatch):
    # a certificate factor with a NaN pivot and info = 0, as an optimized
    # LAPACK may return, certifies nothing: every mode runs Lanczos
    expected = lin.green_norms([8.0], 8, profile, n=100)[0].g_norm_h2_surrogate
    real_dpbtrf = lin.dpbtrf

    def nan_dpbtrf(band, *args, **kwargs):
        factor, info = real_dpbtrf(band, *args, **kwargs)
        if band.shape[0] == 5:  # kd = 4: the certificate's band
            factor[-1, len(band[0]) // 2] = np.nan
            info = 0
        return factor, info

    monkeypatch.setattr(lin, "dpbtrf", nan_dpbtrf)
    calls = _spy_surrogate(monkeypatch)
    (rep,) = lin.green_norms([8.0], 8, profile, n=100)
    assert rep.surrogate_solved == [0, *range(2, 9)] == [ell for ell, _ in calls]
    assert rep.g_norm_h2_surrogate == expected


def _surrogate_pair(profile, ell, t, n):
    op = lin.assemble_block(ell, t, profile, n=n)
    flat = lin.assemble_block(ell, t, profile, n=n, connection=False, higgs=False)
    return op, flat


def _dense_surrogate(op, flat):
    """sigma_max of S^-1 P A^-1 S by a dense SVD."""
    s = np.sqrt(op.weights)
    m = _dense(flat) @ np.linalg.solve(_dense(op), np.diag(s)) / s[:, None]
    return np.linalg.svd(m, compute_uv=False)[0]


@pytest.mark.parametrize("ell", [0, 32])
def test_h2_surrogate_matches_dense_svd(profile, ell):
    op, flat = _surrogate_pair(profile, ell, 1.0, 64)
    sigma_max = _dense_surrogate(op, flat)
    assert lin.h2_surrogate_norm(op, flat) == pytest.approx(sigma_max, rel=1e-9)


def test_band_square_matches_dense(profile):
    op, _ = _surrogate_pair(profile, 3, 2.0, 40)
    a = _dense(op)
    w = 1.0 / op.weights
    expected = a @ (w[:, None] * a)
    band = lin._band_square(op.band, w)
    got = np.zeros_like(expected)
    for d in range(5):
        idx = np.arange(d, len(w))
        got[idx - d, idx] = got[idx, idx - d] = band[4 - d, d:]
    assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


@pytest.mark.parametrize("t", [1.0, 8.0])
@pytest.mark.parametrize("n, ells", [(64, range(2, 33)), (300, (2, 16, 32))],
                         ids=["n64", "n300"])
def test_surrogate_certificate_verdicts(profile, t, n, ells):
    # the inertia test decides sigma_ell < s at a relative margin of 1e-6 on
    # both sides of the dense SVD value, for every mode green_norms asks it
    for ell in ells:
        op, flat = _surrogate_pair(profile, ell, t, n)
        sigma = _dense_surrogate(op, flat)
        square = lin._band_square(op.band, 1.0 / op.weights)
        flat_square = lin._band_square(flat.band, 1.0 / flat.weights)
        assert lin._surrogate_certified_below(square, flat_square, (1.0 + 1e-6) * sigma), ell
        assert not lin._surrogate_certified_below(square, flat_square,
                                                  (1.0 - 1e-6) * sigma), ell


def _in_matrix(square):
    """The entries of a kd = 4 upper band square that lie in the matrix."""
    return np.concatenate([square[4 - d, d:] for d in range(5)])


def test_green_norms_certificates_get_their_blocks_square(profile, monkeypatch):
    # each t's certificate is handed its own block's A B^-1 A and the flat
    # block's P B^-1 P out of the mode's one joint square, bit for bit
    ts = [1.0, 4.0, 16.0]
    log, real_eig, real_cert = [], lin.smallest_eigenvalue, lin._surrogate_certified_below

    def spy_eig(op, below=0.0, start=None):
        log.append(op)
        return real_eig(op, below, start)

    def spy_cert(square, flat_square, s):
        log.append((square, flat_square))
        return real_cert(square, flat_square, s)

    monkeypatch.setattr(lin, "smallest_eigenvalue", spy_eig)
    monkeypatch.setattr(lin, "_surrogate_certified_below", spy_cert)
    lin.green_norms(ts, 8, profile, n=64)
    certified = [(log[i - 1], entry) for i, entry in enumerate(log) if isinstance(entry, tuple)]
    assert [(op.ell, op.t) for op, _ in certified] == [(ell, t) for ell in range(2, 9) for t in ts]
    for op, (square, flat_square) in certified:
        flat = lin.assemble_block(op.ell, 1.0, profile, n=64, connection=False, higgs=False)
        own = lin._band_square(op.band, 1.0 / op.weights)
        own_flat = lin._band_square(flat.band, 1.0 / flat.weights)
        assert np.array_equal(_in_matrix(square), _in_matrix(own))
        assert np.array_equal(_in_matrix(flat_square), _in_matrix(own_flat))


@pytest.mark.parametrize("ell", [2, 5, 32])
def test_joint_band_square_matches_each_block(profile, ell):
    # one square over the flat band and every t's coupled band side by side
    # is each block's own _band_square, bit for bit, on its in-matrix entries
    n, ts = 64, (0.5, 2.0, 30.0, 1000.0)
    ops = [lin.assemble_block(ell, 1.0, profile, n=n, connection=False, higgs=False)]
    ops += [lin.assemble_block(ell, t, profile, n=n) for t in ts]
    joint = lin._band_square(np.hstack([op.band for op in ops]),
                             np.tile(1.0 / ops[0].weights, len(ops)))
    for op, part in zip(ops, np.split(joint, len(ops), axis=1)):
        own = lin._band_square(op.band, 1.0 / op.weights)
        assert np.array_equal(_in_matrix(part), _in_matrix(own)), op.t


def test_h2_surrogate_nonconvergence_raises(profile, monkeypatch):
    from hitchinlab.errors import NumericalError

    # the ell = 0 surrogate takes 11-15 Lanczos steps; a cap of 3 stops it
    monkeypatch.setattr(lin, "LANCZOS_MAX_STEPS", 3)
    op, flat = _surrogate_pair(profile, 0, 1.0, 64)
    with pytest.raises(NumericalError, match=r"H2 surrogate \(ell=0, t=1\).*did not converge"):
        lin.h2_surrogate_norm(op, flat)


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
        assert np.array_equal(_dense(op), dense), name
        rhs = rng.standard_normal(len(op.weights))
        assert np.abs(op.matvec(rhs) - dense @ rhs).max() <= 1e-15 * np.abs(dense).max(), name
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


def _shift_pair(profile, kind, ell, t, n):
    """The ``kind`` block at ell and its lambda_min at ell - 1."""
    if kind == "coupled":
        prev, op = (lin.assemble_block(m, t, profile, n=n) for m in (ell - 1, ell))
    else:
        grid = lin.RadialGrid(n, lin.DEFAULT_R_MIN)
        h = lin.build_family(t, profile, grid.r).h
        prev, op = (lin.assemble_vertical_block(m, t, h, grid) for m in (ell - 1, ell))
    return op, lin.smallest_eigenvalue(prev)


@pytest.mark.parametrize("t", [1.0, 8.0])
@pytest.mark.parametrize("kind, ell", [("coupled", 2), ("coupled", 5), ("coupled", 32),
                                       ("vertical", 3)])
def test_shifted_smallest_eigenvalue_matches_dense_reference(profile, monkeypatch,
                                                             kind, ell, t):
    # the ell - 1 value lies below the spectrum: its shift factors at once
    op, below = _shift_pair(profile, kind, ell, t, 150)
    factored = _spy_dpbtrf(monkeypatch)
    lam = lin.smallest_eigenvalue(op, below)
    assert lam == pytest.approx(_dense_smallest(op), rel=1e-12)
    assert below < lam
    [(band, _, info)] = factored
    assert info == 0
    assert np.array_equal(band[-1], op.band[-1] - below * op.weights)


@pytest.mark.parametrize("kind", ["above", "nan"])
def test_refused_shift_falls_back_to_zero(profile, monkeypatch, kind):
    # a shift above the spectrum, or NaN, does not factor; the ladder goes on
    # at sigma = 0 and returns exactly the unshifted value
    lam = lin.smallest_eigenvalue(lin.assemble_block(5, 2.0, profile, n=150))
    op = lin.assemble_block(5, 2.0, profile, n=150)  # not yet factored
    factored = _spy_dpbtrf(monkeypatch)
    below = 1.5 * lam if kind == "above" else float("nan")
    assert lin.smallest_eigenvalue(op, below) == lam
    (refused, factor, info), (band, _, accepted) = factored
    assert info > 0 or not np.isfinite(factor[-1]).all()
    assert not np.array_equal(refused, op.band)
    assert accepted == 0 and np.array_equal(band, op.band)


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
    op, flat = _surrogate_pair(profile, 3, 2.0, 100)
    lin.smallest_eigenvalue(op)
    lin.h2_surrogate_norm(op, flat)
    assert len(factored) == 1
    assert np.array_equal(factored[0][0], op.band)
    assert lanczos_args == [(np.finfo(float).eps, lin.LANCZOS_MAX_STEPS, 0.0),
                            (lin.SURROGATE_TOL, lin.LANCZOS_MAX_STEPS, 0.0)]


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
    lin.green_norms([2.0], 8, profile, n=100)
    assert calls == [2.0]


def test_out_of_range_t_is_named(profile):
    with pytest.raises(ValueError, match=r"^t=1000\.0000000000001 outside"):
        lin.assemble_block(0, np.nextafter(1000.0, np.inf), profile, n=100)


def test_green_norms_rejects_nan_t(profile):
    with pytest.raises(ValueError):
        lin.green_norms([float("nan")], 8, profile, n=100)


def test_green_norms_requires_lmax(profile):
    with pytest.raises(ValueError):
        lin.green_norms([1.0], 4, profile, n=300)


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
    assert np.abs(op.matvec(sol.u) - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_conic_window_rejection():
    rhs = lambda r: np.zeros_like(r)
    for delta in (0.5, 1.5, 0.2, 2.0):
        with pytest.raises(ValueError):
            lin.conic_poisson_solve(0.5, rhs, delta, n=200)
