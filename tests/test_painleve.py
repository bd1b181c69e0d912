import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hitchinlab.painleve import (
    DEFAULT_RHO_MAX,
    DEFAULT_RHO_MIN,
    DEFAULT_RHO_MID,
    RHO_TAIL,
    SERIES_CUT,
    _series_eval,
    _tail_eval,
    export_profile_csv,
    psi_log_derivatives,
    series_coefficients,
    solve_connection,
)
from hitchinlab.special import bessel_k0, bessel_k1


def test_series_first_coefficients_closed_form():
    a0 = 0.7
    c = series_coefficients(a0, 3)
    assert math.isclose(c[1], -9.0 / (64.0 * a0), rel_tol=1e-14)
    assert math.isclose(c[2], 9.0 * a0 ** 3 / 256.0, rel_tol=1e-14)


def test_series_recursion_against_symbolic_substitution():
    # substitute the truncated 3-term series into the profile equation with
    # rho = w^3, writing sinh(2 psi) = (1/(w v)^2 - (w v)^2)/2 so that the
    # residual is a rational function of w; all orders below the truncation
    # tail must vanish identically
    sympy = pytest.importorskip("sympy")
    w, a0 = sympy.symbols("w a0", positive=True)
    coeffs = [a0, -sympy.Rational(9, 64) / a0, sympy.Rational(9, 256) * a0 ** 3]
    v = sum(c * w ** (4 * j) for j, c in enumerate(coeffs))
    rho_drho = lambda f: w / 3 * sympy.diff(f, w)
    psi = -sympy.log(w * v)
    sinh2psi = ((w * v) ** -2 - (w * v) ** 2) / 2
    residual = sympy.together(
        rho_drho(rho_drho(psi)) - sympy.Rational(1, 2) * w ** 6 * sinh2psi
    )
    num, den = sympy.fraction(sympy.cancel(residual))
    num_poly = sympy.Poly(sympy.expand(num), w)
    den_w_order = sympy.Poly(sympy.expand(den), w).monoms()[-1][0]
    leading = min(m[0] for m in num_poly.monoms()) - den_w_order
    # residual = O(rho^(10/3)) = O(w^10)
    assert leading >= 10


def test_small_rho_series_leading_order():
    a0 = 1.3
    rho = 1e-5
    psi, psi_x, _ = _series_eval(series_coefficients(a0, 3), rho)
    lead = -math.log(rho) / 3.0 - math.log(a0)
    assert abs(psi - lead) < 1e-5
    assert abs(psi_x + 1.0 / 3.0) < 1e-5
    # a0 scaling shifts psi by -d log a0 at leading order
    psi2, _, _ = _series_eval(series_coefficients(2.0 * a0, 3), rho)
    assert abs((psi2 - psi) + math.log(2.0)) < 1e-5


def test_profile_invariants(profile):
    assert profile.residual_max < 1e-8
    assert (profile.psi > 0).all()
    assert (np.diff(profile.psi) < 0).all()
    assert (profile.dpsi < 0).all()
    eta = profile.eta
    assert (eta >= -1e-15).all() and (eta <= 0.125 + 1e-15).all()
    assert (np.diff(eta) >= -1e-12).all()
    assert abs(eta[-1] - 0.125) < 1e-6


def test_eta_power_boundedness(profile):
    eta = profile.eta
    # eta/rho^(4/3) tends to a positive constant at 0 and decays at infinity
    ratio43 = eta / profile.rho ** (4.0 / 3.0)
    assert ratio43.max() < 10.0 * ratio43[0]
    # eta/rho^(2/3) vanishes at both ends; bounded by its endpoint scale
    ratio23 = eta / profile.rho ** (2.0 / 3.0)
    assert ratio23.max() < 10.0 * max(ratio23[0], ratio23[-1])


def test_connection_constants_closed_form(profile):
    # McCoy, Tracy & Wu (1977): a0 = Gamma(1/3) / (2 Gamma(2/3)), lambda = 1/pi
    a0 = math.gamma(1.0 / 3.0) / (2.0 * math.gamma(2.0 / 3.0))
    assert math.isclose(profile.a0, a0, rel_tol=1e-11)
    assert math.isclose(profile.lam, 1.0 / math.pi, rel_tol=1e-11)


def test_connection_constants_stable_under_refinement(profile):
    alt = solve_connection(ode_tol=1e-10)
    assert abs(alt.a0 - profile.a0) < 1e-8
    assert abs(alt.lam - profile.lam) < 1e-8
    moved = solve_connection(rho_mid=2.0)
    assert abs(moved.a0 - profile.a0) < 1e-8
    assert abs(moved.lam - profile.lam) < 1e-8


def test_psi_eval_reproduces_grid_nodes(profile):
    # above the series cut the evaluator returns every node's stored psi,
    # psi_x and psi_xx bit for bit: interpolated ODE samples up to RHO_TAIL,
    # and above it the tail that the nodes store
    above = profile.rho > SERIES_CUT
    got = psi_log_derivatives(profile, profile.rho[above])
    stored = (profile.psi, profile.psi_x, profile.psi_xx)
    for value, samples in zip(got, stored):
        assert np.array_equal(value, samples[above])


def test_series_branch_matches_grid_nodes(profile):
    # at and below the cut the series, not the samples, is returned; it agrees
    # with every stored ODE sample there
    below = profile.rho <= SERIES_CUT
    got = psi_log_derivatives(profile, profile.rho[below])
    stored = (profile.psi, profile.psi_x, profile.psi_xx)
    for value, samples in zip(got, stored):
        assert np.abs(value - samples[below]).max() < 1e-9


@pytest.mark.parametrize("rho_min", [0.3, 0.5, 0.8])
def test_rho_min_above_series_range_rejected(rho_min):
    # a left shot started above SERIES_CUT would carry the series' truncation
    # error into a0 and lambda (3.3e-8 and -1.2e-7 relative at 0.5) unseen
    with pytest.raises(ValueError, match="SERIES_CUT"):
        solve_connection(rho_min=rho_min)


@pytest.mark.parametrize("rho_min", [1e-3, 1e-2, 0.1])
def test_connection_constants_independent_of_rho_min(rho_min):
    # the left shot starts from the full series that psi_log_derivatives
    # reads, so a shorter shot does not trade the start's truncation error
    # for an error in the constants
    profile = solve_connection(rho_min=rho_min)
    a0 = math.gamma(1.0 / 3.0) / (2.0 * math.gamma(2.0 / 3.0))
    assert math.isclose(profile.a0, a0, rel_tol=1e-11)
    assert math.isclose(profile.lam, 1.0 / math.pi, rel_tol=1e-11)


def test_psi_eval_tail_is_k0(profile):
    rho = 55.0
    psi, psi_x, _ = psi_log_derivatives(profile, rho)
    assert psi[0] == profile.lam * bessel_k0(rho)
    assert psi_x[0] == -profile.lam * rho * bessel_k1(rho)


def test_psi_eval_domain(profile):
    # the evaluator accepts exactly the finite rho > 0
    for rho in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            psi_log_derivatives(profile, rho)
    psi, _, _ = psi_log_derivatives(profile, 2.0 * DEFAULT_RHO_MAX)
    assert psi[0] == profile.lam * bessel_k0(2.0 * DEFAULT_RHO_MAX)
    # far out the tail underflows to 0 quietly, as at t = T_MAX's disk edge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = psi_log_derivatives(profile, np.array([800.0, 2666.0, 1e4]))
    assert all(np.array_equal(v, np.zeros(3)) for v in far)
    # below the grid the series extension applies
    psi, _, _ = psi_log_derivatives(profile, profile.rho[0] / 4.0)
    assert psi[0] > 0


def test_psi_eval_seam_continuity(profile):
    # series representation against the stored node at the inner end
    psi_s, psi_x_s, _ = _series_eval(profile.series, profile.rho[0])
    assert abs(psi_s - profile.psi[0]) < 1e-9
    assert abs(psi_x_s - profile.psi_x[0]) < 1e-9
    # tail representation against the last ODE sample below RHO_TAIL, where
    # the right shot starts from it
    i = np.flatnonzero(profile.rho <= RHO_TAIL)[-1]
    tail_psi, tail_psi_x, _ = _tail_eval(profile.lam, profile.rho[i])
    assert math.isclose(profile.psi[i], tail_psi, rel_tol=1e-12)
    assert math.isclose(profile.psi_x[i], tail_psi_x, rel_tol=1e-12)
    # the interpolation branch at RHO_TAIL meets the tail branch just above
    # it to the interpolant's accuracy there (5.3e-10 relative)
    psi, psi_x, _ = psi_log_derivatives(profile, np.nextafter(RHO_TAIL, np.inf))
    at_seam = psi_log_derivatives(profile, RHO_TAIL)
    assert math.isclose(at_seam[0][0], psi[0], rel_tol=1e-9)
    assert math.isclose(at_seam[1][0], psi_x[0], rel_tol=1e-9)
    # the series branch at the cut meets the interpolation branch just above it
    at_cut = psi_log_derivatives(profile, SERIES_CUT)
    above = psi_log_derivatives(profile, np.nextafter(SERIES_CUT, 1.0))
    for a, b in zip(at_cut, above):
        assert abs(a[0] - b[0]) < 1e-9


def test_psi_eval_residual_between_nodes(profile):
    # the interpolants carry the stored derivatives, so between the nodes
    # the profile equation holds to its node floor (2.6e-12), not to a
    # slope limiter's guess (1.7e-10)
    rho = np.geomspace(SERIES_CUT, RHO_TAIL, 200001)[1:-1]
    psi, _, psi_xx = psi_log_derivatives(profile, rho)
    assert np.abs(psi_xx - 0.5 * rho * rho * np.sinh(2.0 * psi)).max() <= 1e-11


def test_psi_eval_matches_local_reintegration(profile):
    # integrate from the nearest grid node to a midpoint and compare
    i = 5000
    x0, x1 = np.log(profile.rho[i]), np.log(profile.rho[i + 1])
    xm = 0.5 * (x0 + x1)
    sol = solve_ivp(
        lambda x, y: (y[1], 0.5 * np.exp(2 * x) * np.sinh(2 * y[0])),
        (x0, xm), (profile.psi[i], profile.psi_x[i]),
        method="DOP853", rtol=1e-12, atol=1e-14,
    )
    psi_mid, psi_x_mid, _ = psi_log_derivatives(profile, np.exp(xm))
    assert abs(sol.y[0, -1] - psi_mid[0]) < 1e-8
    assert abs(sol.y[1, -1] - psi_x_mid[0]) < 1e-8


def test_equation_odd_symmetry(profile):
    # integrating from flipped data produces the flipped solution
    x0, x1 = 0.0, 0.5
    y0 = [v[0] for v in psi_log_derivatives(profile, 1.0)]
    base = solve_ivp(
        lambda x, y: (y[1], 0.5 * np.exp(2 * x) * np.sinh(2 * y[0])),
        (x0, x1), (y0[0], y0[1]), method="DOP853", rtol=1e-12, atol=1e-14,
    )
    flipped = solve_ivp(
        lambda x, y: (y[1], 0.5 * np.exp(2 * x) * np.sinh(2 * y[0])),
        (x0, x1), (-y0[0], -y0[1]), method="DOP853", rtol=1e-12, atol=1e-14,
    )
    assert np.abs(base.y[:, -1] + flipped.y[:, -1]).max() < 1e-10


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_connection(rho_min=1.0, rho_mid=0.5)
    with pytest.raises(ValueError):
        solve_connection(tol=0.0)
    with pytest.raises(ValueError, match="ode_tol"):
        solve_connection(ode_tol=0.0)


def test_nan_inputs_rejected(profile):
    with pytest.raises(ValueError, match="tol"):
        solve_connection(tol=float("nan"))
    with pytest.raises(ValueError, match="finite and positive"):
        psi_log_derivatives(profile, np.array([1.0, np.nan]))


def test_export_csv_roundtrip(profile, tmp_path):
    path = tmp_path / "psi.csv"
    export_profile_csv(profile, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,psi,dpsi,eta"
    assert len(lines) == len(profile.rho) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == profile.rho[0]
    assert first[1] == profile.psi[0]


def _per_value_csv(header, columns):
    """The CSV text as written one value at a time with format(v, ".17g")."""
    rows = "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in zip(*columns))
    return header + "\n" + rows


def test_export_csv_bytes_match_per_value_format(profile, tmp_path):
    # the block writer keeps every byte of the per-value join, edge values too
    edge = np.array([0.0, -0.0, 5e-324, -1e-300, 1.0 / 3.0, 2.0 ** 60, np.inf, np.nan])
    odd = SimpleNamespace(rho=edge, psi=-edge, dpsi=edge[::-1], eta=np.arange(8.0))
    for prof in (profile, odd):
        path = tmp_path / "psi.csv"
        export_profile_csv(prof, path)
        columns = (prof.rho, prof.psi, prof.dpsi, prof.eta)
        assert path.read_bytes() == _per_value_csv("rho,psi,dpsi,eta", columns).encode()


def test_shot_tangents_match_finite_differences():
    # each shot's tangent end state is the derivative of its plain end state
    # in log a0 (left) or log lambda (right), at the closed-form connection
    # constants; central differences, step 1e-4
    from hitchinlab import painleve

    x_min, x_mid = np.log([painleve.DEFAULT_RHO_MIN, DEFAULT_RHO_MID])
    a0 = math.gamma(1.0 / 3.0) / (2.0 * math.gamma(2.0 / 3.0))
    shots = (
        (lambda q: painleve._shoot_left(q, x_min, x_mid, 1e-13), a0),
        (lambda q: painleve._shoot_right(q, x_mid, 1e-13), 1.0 / math.pi),
    )
    h = 1e-4
    for shoot, q in shots:
        end = shoot(q).y[:, -1]
        fd = (shoot(q * np.exp(h)).y[:2, -1] - shoot(q * np.exp(-h)).y[:2, -1]) / (2.0 * h)
        assert np.allclose(end[2:], fd, rtol=1e-6, atol=0.0)


@pytest.mark.parametrize("lam", [0.1, 1.0 / math.pi, 1.0, 10.0])
def test_tail_is_the_float64_solution_above_rho_tail(lam):
    # at RHO_TAIL the tail value is small enough that (1/2) sinh(2 psi)
    # rounds to psi, so lambda*K0 solves the profile equation exactly in
    # float64 there and beyond
    psi = lam * bessel_k0(RHO_TAIL)
    assert 0.5 * np.sinh(2.0 * psi) == psi


def test_right_shot_from_rho_tail_matches_shot_from_rho_max():
    # starting at RHO_TAIL instead of the grid's end drops no digit: a shot
    # from the tail state at DEFAULT_RHO_MAX reaches the same state at rho_mid
    from hitchinlab import painleve

    lam, x_mid = 1.0 / math.pi, math.log(DEFAULT_RHO_MID)
    y0 = (lam * bessel_k0(DEFAULT_RHO_MAX), -lam * DEFAULT_RHO_MAX * bessel_k1(DEFAULT_RHO_MAX))
    long_shot = solve_ivp(
        lambda x, y: (y[1], 0.5 * np.exp(2 * x) * np.sinh(2 * y[0])),
        (math.log(DEFAULT_RHO_MAX), x_mid), y0,
        method="DOP853", rtol=3e-14, atol=1e-300,
    )
    short = painleve._shoot_right(lam, x_mid, 1e-13).y[:2, -1]
    assert np.allclose(short, long_shot.y[:, -1], rtol=1e-12, atol=0.0)


def test_newton_history_converges_quadratically(profile):
    # a0 = 1 with lambda fitted to that left shot's psi(rho_mid) needs no
    # sweep, and Newton converges in at most 4 steps
    history = profile.newton_history
    assert not profile.reseeded
    assert history[-1] == profile.match_mismatch < 1e-12
    assert 3 <= len(history) <= 5
    for m, m_next in zip(history, history[1:]):
        if m >= 1e-8:
            assert m_next <= 10.0 * m * m


def _counting_solve_ivp(monkeypatch, fails=lambda call: False):
    """Wrap painleve.solve_ivp; record (dense_output, rtol, solution) per call.

    Calls are numbered from 1; those for which ``fails`` is true are marked
    unsuccessful after they ran.  The memo is emptied for the test, so the
    solve it watches runs whatever ran before.
    """
    from hitchinlab import painleve

    real = painleve.solve_ivp
    calls = []

    def counted(*args, **kwargs):
        sol = real(*args, **kwargs)
        calls.append((kwargs.get("dense_output", False), kwargs["rtol"], sol))
        if fails(len(calls)):
            sol.success = False
        return sol

    monkeypatch.setattr(painleve, "solve_ivp", counted)
    monkeypatch.setattr(painleve, "_SOLVED", {})
    return calls


def test_solve_connection_shot_budget(monkeypatch):
    # the exact Jacobian comes with each shot, so Newton takes one shot per
    # side per iteration: the seed pair at SHOT_TOL_MAX, two pairs tightened
    # by the schedule and two at the full ode_tol, the only ones with dense
    # output.  The grid is sampled from the last pair, with no extra shot
    from hitchinlab import painleve

    calls = _counting_solve_ivp(monkeypatch)
    profile = solve_connection()
    rtols = [rtol for _, rtol, _ in calls]
    assert len(calls) == 10
    assert rtols[:2] == [painleve.SHOT_TOL_MAX] * 2
    assert rtols == sorted(rtols, reverse=True)
    assert [dense for dense, _, _ in calls] == [rtol == 1e-13 for rtol in rtols]
    assert rtols[-4:] == [1e-13] * 4
    left, right = calls[-2][2], calls[-1][2]
    x = np.linspace(math.log(DEFAULT_RHO_MIN), math.log(DEFAULT_RHO_MAX), len(profile.rho))
    assert np.array_equal(np.exp(x), profile.rho)
    on_left = x <= math.log(DEFAULT_RHO_MID)
    on_right = ~on_left & (profile.rho <= RHO_TAIL)
    assert np.array_equal(profile.psi[on_left], left.sol(x[on_left])[0])
    assert np.array_equal(profile.psi[on_right], right.sol(x[on_right])[0])


def test_swept_seed_shot_failure_raises(monkeypatch):
    from hitchinlab import painleve
    from hitchinlab.errors import NumericalError

    # calls 1-2 are the initial pair and 3-4 the first Newton step's trial
    # pair; the second trial's left shot (call 5) and every later shot fail,
    # so Newton re-seeds and the seed's shot fails too
    _counting_solve_ivp(monkeypatch, fails=lambda call: call >= 5)
    monkeypatch.setattr(painleve, "_initial_sweep", lambda *args: (1.0, 1.0))
    with pytest.raises(NumericalError, match="swept initial guess"):
        solve_connection()


def test_failed_trial_shot_reseeds_from_sweep(monkeypatch):
    # the first trial shot (call 3) fails once; the real sweep supplies a new
    # seed and Newton from there still meets the closed forms.  The sweep's
    # 25 shots (calls 4-28) integrate psi alone: nothing reads their tangent.
    # Newton from the swept seed then takes five pairs (calls 29-38), and its
    # accepted pair samples the grid: no separate dense pair follows
    calls = _counting_solve_ivp(monkeypatch, fails=lambda call: call == 3)
    profile = solve_connection()
    assert profile.reseeded
    assert not calls[2][2].success
    assert len(calls) == 38
    assert [len(sol.y) for _, _, sol in calls] == [4] * 3 + [2] * 25 + [4] * 10
    assert calls[-1][0] and calls[-1][1] == 1e-13
    a0 = math.gamma(1.0 / 3.0) / (2.0 * math.gamma(2.0 / 3.0))
    assert math.isclose(profile.a0, a0, rel_tol=1e-11)
    assert math.isclose(profile.lam, 1.0 / math.pi, rel_tol=1e-11)
    assert profile.match_mismatch < 1e-12


def test_solve_connection_is_memoized():
    # one solve per argument set: the CLI's tol=1e-12 is the default's entry
    profile = solve_connection()
    assert solve_connection(tol=1e-12) is profile
    assert solve_connection(DEFAULT_RHO_MIN, DEFAULT_RHO_MID, 1e-12, 1e-13) is profile
    assert solve_connection(rho_mid=2.0) is not profile
    assert solve_connection(ode_tol=1e-10) is not profile
    # bad input raises on every call; nothing is stored for it
    for _ in range(2):
        with pytest.raises(ValueError, match="rho_mid"):
            solve_connection(rho_mid=float("nan"))


def test_profile_is_read_only(profile):
    # every caller shares the memoized profile, so nobody may change it
    with pytest.raises(ValueError, match="read-only"):
        profile.psi[0] = 0.0
    for samples in (profile.rho, profile.psi_x, profile.psi_xx, profile.series):
        assert not samples.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.a0 = 1.0


def test_failed_solve_is_not_memoized(monkeypatch):
    from hitchinlab import painleve
    from hitchinlab.errors import NumericalError

    max_newton = painleve.MAX_NEWTON
    monkeypatch.setattr(painleve, "_SOLVED", {})
    monkeypatch.setattr(painleve, "MAX_NEWTON", 0)
    with pytest.raises(NumericalError, match="did not reach"):
        solve_connection()
    assert painleve._SOLVED == {}
    monkeypatch.setattr(painleve, "MAX_NEWTON", max_newton)
    profile = solve_connection()
    assert list(painleve._SOLVED.values()) == [profile]
