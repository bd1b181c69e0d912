import numpy as np
import pytest
from conftest import tridiagonal_dense

from hitchinlab import fiducial as fd
from hitchinlab import gluing as gl
from hitchinlab import linearized as lin
from hitchinlab.errors import NumericalError


class _IdentityCutoff:
    """chi = 1 everywhere: the uncut state (boundary condition ignored)."""

    inner, outer = 1.0, 1.0

    @staticmethod
    def sample(r):
        r = np.asarray(r, dtype=float)
        return np.ones_like(r), np.zeros_like(r), np.zeros_like(r)


def test_cutoff_shape_and_support():
    cut = gl.CutoffProfile()
    r = np.linspace(1e-3, 1.0, 4001)
    chi, dchi, d2chi = cut.sample(r)
    assert ((chi >= 0.0) & (chi <= 1.0)).all()
    assert (chi[r <= 0.5] == 1.0).all()
    assert (chi[r >= cut.outer] == 0.0).all()
    assert (dchi[(r <= 0.5) | (r >= cut.outer)] == 0.0).all()


def test_cutoff_derivatives_match_differences():
    cut = gl.CutoffProfile()
    r = np.linspace(0.52, 0.68, 2001)
    chi, dchi, d2chi = cut.sample(r)
    h = r[1] - r[0]
    fd1 = np.gradient(chi, h, edge_order=2)
    fd2 = np.gradient(dchi, h, edge_order=2)
    assert np.abs(fd1 - dchi)[2:-2].max() < 1e-4
    assert np.abs(fd2 - d2chi)[2:-2].max() < 1e-2


def _whole_grid_cutoff(cut, r):
    """(chi, chi', chi'') by the bump formulas on every radius, then the
    constant regions pasted over them."""
    width = cut.outer - cut.inner
    y = (cut.outer - r) / width
    with np.errstate(invalid="ignore"):  # the bump's q'' is inf / inf at y = -inf
        u, up, upp = gl._bump(y)
        w, wp_raw, wpp = gl._bump(1.0 - y)
    wp = -wp_raw
    den = u + w
    den = np.where(den == 0.0, 1.0, den)
    s = u / den
    sp = (up * w - u * wp) / den ** 2
    spp = ((upp * w - u * wpp) * den - 2.0 * (up * w - u * wp) * (up + wp)) / den ** 3
    dydr = -1.0 / width
    mid = (r > cut.inner) & (r < cut.outer)
    chi = np.where(r <= cut.inner, 1.0, np.where(r >= cut.outer, 0.0, s))
    return chi, np.where(mid, sp * dydr, 0.0), np.where(mid, spp * dydr ** 2, 0.0)


@pytest.mark.parametrize("inner, outer", [(0.5, 0.7), (0.6, 0.61), (0.5, 0.999)])
def test_cutoff_window_sampling_matches_whole_grid_formula(inner, outer):
    # the bump runs on the transition window only; off it (1, 0, 0) and
    # (0, 0, 0) are the whole-grid formula's values, bit for bit
    cut = gl.CutoffProfile(inner, outer)
    edges = [inner, outer, *np.nextafter([inner, inner, outer, outer], [0.0, 1.0, 0.0, 1.0])]
    r = np.concatenate([np.geomspace(1e-3, 1.0, 2000), edges, [np.nan, np.inf, -np.inf, 0.0, 2.0]])
    for got, expected in zip(cut.sample(r), _whole_grid_cutoff(cut, r)):
        assert got.tobytes() == expected.tobytes()
    chi, dchi, d2chi = cut.sample(np.nan)
    assert np.shape(chi) == () and (chi, dchi, d2chi) == (0.0, 0.0, 0.0)


def test_cutoff_validation():
    with pytest.raises(ValueError):
        gl.CutoffProfile(inner=0.4, outer=0.7)
    with pytest.raises(ValueError):
        gl.CutoffProfile(inner=0.6, outer=0.5)


def test_glued_residual_regions(families, profile):
    state = gl.build_glued(4.0, families[4.0])
    r = state.r
    inner = state.residual()[r <= 0.5]
    assert inner.max() < 1e-6  # family tolerance: the pair is fiducial there
    outer = state.residual()[r >= state.cutoff.outer]
    assert outer.max() == 0.0  # closed forms are exact where chi = 0
    assert (state.h[r >= state.cutoff.outer] == 0.0).all()
    # where chi = 1 the glued data are the family's own samples, bit for bit
    fam = fd.build_family(4.0, profile, r)
    for name in ("h", "r_dh", "r_d2h"):
        assert np.array_equal(getattr(state, name)[r <= 0.5], getattr(fam, name)[r <= 0.5])


def test_glued_residual_decays_monotonically(profile):
    sups = []
    for t in (2.0, 4.0, 6.0, 8.0):
        fam = fd.build_family(t, profile)
        sups.append(gl.build_glued(t, fam).sup_residual())
    assert all(a > b for a, b in zip(sups, sups[1:]))


def test_approx_error_sweep_fit(profile):
    delta, c, r2 = gl.approx_error_sweep(np.arange(2.0, 10.5, 1.0), profile)
    assert delta > 0
    assert r2 > 0.98
    predicted = (8.0 / 3.0) * 0.5 ** 1.5
    assert abs(delta - predicted) / predicted < 0.3


@pytest.mark.parametrize("ts, floor_t", [(np.arange(20.0, 30.5, 1.0), 27),
                                          (np.arange(40.0, 50.5, 2.0), 42)])
def test_sweep_past_the_residual_floor_raises(profile, ts, floor_t):
    # the norms flatten at about 1e-12 from t ~ 27; the fits there read
    # delta 0.627 (R^2 0.864) over t = 20..30 and -0.015 over t = 40..50.
    # From t = 26 to 27 the norm falls at 0.168 per unit t, below half the
    # fitted 0.627; at t = 42 it rises
    with pytest.raises(NumericalError, match=f"floor: the norm at t={floor_t} "):
        gl.approx_error_sweep(ts, profile)
    with pytest.raises(NumericalError, match=f"at t={floor_t} "):
        gl.approx_error_sweep(np.random.default_rng(3).permutation(ts), profile)


def test_criterion_09_fit_is_the_least_squares_fit(profile):
    # the floor rule adds a check, not a step: the fit over t = 2..10 is
    # bit for bit the least-squares line through the log norms
    ts = np.arange(2.0, 10.5, 1.0)
    y = np.log([gl.glued_on_grid(t, profile, 2000).l2_residual() for t in ts])
    slope, intercept = np.polyfit(ts, y, 1)
    r2 = 1.0 - float(np.sum((y - np.polyval([slope, intercept], ts)) ** 2)) / float(
        np.sum((y - np.mean(y)) ** 2))
    assert gl.approx_error_sweep(ts, profile) == (-float(slope), float(np.exp(intercept)), r2)


def test_shrinking_outer_onset_increases_rate(profile):
    # measuring the transition onset from the boundary: halving that distance
    # moves the annulus outward where r^(3/2) is larger
    ts = np.arange(2.0, 10.5, 1.0)
    base, _, _ = gl.approx_error_sweep(ts, profile, gl.CutoffProfile(0.5, 0.7))
    moved, _, _ = gl.approx_error_sweep(ts, profile, gl.CutoffProfile(0.75, 0.9))
    assert moved > base


def test_sweep_validation(profile):
    with pytest.raises(ValueError):
        gl.approx_error_sweep([2.0, 4.0, 8.0], profile)


def test_glued_on_grid_rejects_non_integral_n(profile):
    # a grid of 100.5 built a state whose Newton step then hit a TypeError
    with pytest.raises(ValueError, match="integer"):
        gl.glued_on_grid(1.0, profile, 100.5)


def test_build_glued_rejects_mismatched_t(families):
    with pytest.raises(ValueError, match="t=2 does not match the family's t=1"):
        gl.build_glued(2.0, families[1.0], n=100)


def test_newton_starts_from_glued_residual(families):
    # one curvature residual: the glued state's and Newton's first iterate agree
    state = gl.build_glued(2.0, families[2.0], n=800)
    result = gl.newton_correct(state, tol=1e-10)
    assert result.residual_history[0] == state.sup_residual()


@pytest.mark.parametrize("t", [1.0, 4.0, 24.0])
def test_check_reports_the_residual_newton_accepted(profile, t):
    # residual_post is the residual the iteration stopped on, not a rebuild
    state = gl.glued_on_grid(t, profile, 2000)
    result = gl.newton_correct(state, tol=1e-10)
    assert gl.corrected_solution_check(state, result)["residual_post"] == (
        result.residual_history[-1])
    assert np.array_equal(result.residual, gl._corrected_residual(
        state, result.c, result.w_hi, result.w_lo))


def test_newton_zero_residual_input(families):
    state = gl.build_glued(4.0, families[4.0], _IdentityCutoff(), n=800)
    result = gl.newton_correct(state, tol=1e-6)
    assert result.iterations == 0
    assert np.abs(result.u).max() == 0.0


def test_newton_correct_t4(families):
    state = gl.build_glued(4.0, families[4.0], n=2000)
    result = gl.newton_correct(state, tol=1e-10)
    assert result.residual_history[-1] < 1e-9
    history = result.residual_history
    # quadratic convergence: once below 1e-2, residual ratios r_{k+1}/r_k^2 stay bounded
    ratios = [
        history[i + 1] / history[i] ** 2
        for i in range(len(history) - 1)
        if history[i] < 1e-2 and history[i + 1] > 0
    ]
    assert ratios and max(ratios) < 1e3


def test_newton_a_posteriori_bound(families):
    state = gl.build_glued(4.0, families[4.0], n=1000)
    result = gl.newton_correct(state, tol=1e-10)
    lam = lin.smallest_eigenvalue(gl.newton_operator_matrix(state))
    assert result.sup_u <= 10.0 * state.sup_residual() / lam


def test_sup_u_decreases_in_t(profile):
    sups = []
    for t in (2.0, 4.0, 8.0):
        fam = fd.build_family(t, profile)
        state = gl.build_glued(t, fam, n=1000)
        sups.append(gl.newton_correct(state, tol=1e-10).sup_u)
    assert sups[0] > sups[1] > sups[2]


def test_interior_rigidity(families):
    tol = 1e-10
    state = gl.build_glued(4.0, families[4.0], n=2000)
    result = gl.newton_correct(state, tol=tol)
    interior = np.abs(result.u[state.r <= 0.25])
    assert interior.max() <= 10.0 * tol
    # and the concentration sharpens as t grows
    state8 = gl.build_glued(8.0, families[8.0], n=2000)
    result8 = gl.newton_correct(state8, tol=tol)
    assert np.abs(result8.u[state8.r <= 0.25]).max() < interior.max()


def test_corrected_solution_report(families):
    state = gl.build_glued(4.0, families[4.0], n=2000)
    result = gl.newton_correct(state, tol=1e-10)
    report = gl.corrected_solution_check(state, result)
    assert report["residual_post"] < 1e-9
    assert report["residual_post_l2"] < 1e-9
    assert report["residual_pre"] > report["residual_post"]
    assert report["f_range"][0] > -0.05
    assert report["f_range"][1] < 0.125 + 1e-9


def test_newton_linearization_matches_vertical_block(families, rng):
    state = gl.build_glued(4.0, families[4.0], n=500)
    op = gl.newton_operator_matrix(state)
    v = rng.standard_normal(state.grid.n)
    lhs = tridiagonal_dense(op) @ v / op.weights  # nodal B^-1 A v
    padded = np.concatenate([[v[0]], v, [0.0]])  # Neumann ghost inside, Dirichlet at 1
    d2v = (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / state.grid.dx ** 2
    rhs = -d2v / state.r ** 2 + 16.0 * state.t ** 2 * state.r * np.cosh(2.0 * state.h) * v
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_growth_norms_fiducial_form(families):
    # the derivative bound concerns the uncut pair: sup |d_r f_t| grows no
    # faster than t, with the t-normalized values varying by < factor 3
    vals = []
    for t, fam in sorted(families.items()):
        vals.append(np.abs(fam.df).max() / t)
    assert max(vals) / min(vals) < 3.0


def test_growth_norms_glued_sweep(profile):
    rows = []
    for t in (2.0, 4.0, 8.0, 16.0):
        fam = fd.build_family(t, profile)
        rows.append(gl.growth_norm_check(gl.build_glued(t, fam, n=1000)))
    norm = [row["sup_df_over_t"] for row in rows]
    assert all(a >= b for a, b in zip(norm, norm[1:]))  # decreasing in t
    for row in rows:
        assert -0.05 < row["f_min"]
        assert row["f_max"] <= 0.125 + 1e-9


def test_growth_norms_identity_cutoff_consistency(families):
    state = gl.build_glued(4.0, families[4.0], _IdentityCutoff(), n=500)
    fam = families[4.0]
    report = gl.growth_norm_check(state)
    assert abs(report["sup_f"] - np.abs(fam.f).max()) < 1e-4
    assert report["f_min"] >= -1e-12


def test_neumann_variant_positive(families):
    state = gl.build_glued(2.0, families[2.0], n=500)
    lam = gl.neumann_zero_mode_eigenvalue(state, n=800)
    assert lam > 0.0


def test_second_difference_is_the_flat_stencil(rng):
    # the Newton residual and the conic round trip difference nodal values
    # by hand; it must be the scheme's own ell = 0 stencil, whose inner ghost
    # is v[0], with the given ghosts at both ends
    grid = lin.RadialGrid(300, 1e-3)
    v = rng.standard_normal(grid.n)
    flat = -(tridiagonal_dense(lin.assemble_scalar(0, n=grid.n, r_min=grid.r_min)) @ v)
    for inner in (v[0], -1.3):
        d2 = flat.copy()
        d2[0] += (inner - v[0]) / grid.dx ** 2
        d2[-1] += 0.7 / grid.dx ** 2
        got = grid.second_difference(v, inner, 0.7)
        assert np.abs(got - d2).max() <= 1e-14 * np.abs(d2).max()


def test_newton_parts_sum_to_u(families):
    # w_lo holds only the rounding of w_hi, and sup_u is that of the sum
    state = gl.build_glued(2.0, families[2.0], n=400)
    result = gl.newton_correct(state, tol=1e-10)
    assert 0 < np.abs(result.w_lo).max() <= 1e-15 * np.abs(result.w_hi).max()
    assert result.sup_u == np.abs(result.u).max()


def test_newton_divergence_reports(families):
    state = gl.build_glued(2.0, families[2.0], n=200)
    with pytest.raises(NumericalError, match=r"^t=2:"):
        gl.newton_correct(state, tol=1e-30, max_iter=3)


def test_solver_calls_go_through_module_attributes(families, monkeypatch):
    # the benchmark counts Newton steps by replacing this module attribute,
    # so the code must look it up there at call time.  The profile solve
    # does not inflate the gluing count, and no ODE is integrated:
    # painleve.solve_ivp, which the benchmark still wraps to count ODE
    # solves, is bound to None
    from hitchinlab import painleve

    calls = []
    real = gl.solve_banded

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gl, "solve_banded", counted)
    painleve._solve_connection(painleve.SERIES_CUT, painleve.N_SOLVE)
    assert painleve.solve_ivp is None
    assert calls == []
    result = gl.newton_correct(gl.build_glued(4.0, families[4.0], n=400), tol=1e-8)
    assert len(calls) == result.iterations > 0


COARSE_MESH = (2000, 1e-3)
REFINED_MESHES = ((8000, 1e-3), (2000, 1e-4))
FINE_MESH = (16000, 1e-3)


def _residual_post(profile, t, n, r_min):
    state = gl.build_glued(t, fd.build_family(t, profile), n=n, r_min=r_min)
    return gl.corrected_solution_check(state, gl.newton_correct(state, tol=1e-10))["residual_post"]


@pytest.mark.parametrize("t, n, r_min", [
    *((t, n, r_min) for t in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 24.0)
      for n, r_min in REFINED_MESHES),
    # the small-t cases whose stored w rounded to a residual floor above
    # tol (5.8e-10 at t = 0.25) before w became a double-word sum
    *((t, *FINE_MESH) for t in (0.25, 0.5, 1.0)),
])
def test_newton_refinement_keeps_pass(profile, t, n, r_min):
    # refining the mesh must not turn a pass on the coarse mesh into a failure
    assert _residual_post(profile, t, *COARSE_MESH) < 1e-9
    assert _residual_post(profile, t, n, r_min) < 1e-9


@pytest.mark.parametrize("t, n", [(2.0, 8000), (1.0, 4000)])
def test_newton_passes_a_residual_that_stops_halving(profile, t, n):
    # at r_min = 1e-7 the sup residual does not halve at the third iterate
    # (t = 1, n = 4000: 6.8, 7.4e-3, 6.3e-3, 5.1e-8, 6.7e-15), and at t = 2,
    # n = 8000 it rises (1.6, 1.0e-4, 1.1e-4, 1.8e-11) before the quadratic
    # phase; a rule that raised once a residual stopped halving failed both,
    # while n = 2000 at t = 2 passed, so refining the grid turned a pass into
    # a failure
    state = gl.build_glued(t, fd.build_family(t, profile), n=n, r_min=1e-7)
    history = gl.newton_correct(state, tol=1e-10).residual_history
    assert history[2] > 0.5 * history[1]
    assert history[-1] < 1e-10
    assert _residual_post(profile, t, n, 1e-7) < 1e-9


def test_newton_refused_factorization_raises_naming_t(families):
    # a NaN in h makes a NaN pivot, which the factorization refuses; the
    # error names t instead of escaping as a usage error
    state = gl.build_glued(2.0, families[2.0], n=400)
    state.h = state.h.copy()
    state.h[200] = np.nan
    with pytest.raises(NumericalError, match=r"^t=2: Newton linearization: band is not positive"):
        gl.newton_correct(state, tol=1e-10)


def test_newton_plateau_at_tiny_r_min_raises(profile):
    # at r_min = 1e-12 the residual stalls above tol: two rises in a row
    # raise, and a cap below that raises first
    state = gl.build_glued(2.0, fd.build_family(2.0, profile), n=2000, r_min=1e-12)
    with pytest.raises(NumericalError, match=r"^t=2: Newton stalled"):
        gl.newton_correct(state, tol=1e-10)
    with pytest.raises(NumericalError, match=r"^t=2: Newton did not converge below 1e-10 in 5"):
        gl.newton_correct(state, tol=1e-10, max_iter=5)
