import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hitchinlab import painleve
from hitchinlab.errors import NumericalError
from hitchinlab.painleve import (
    DEFAULT_RHO_MAX,
    DEFAULT_RHO_MIN,
    N_GRID,
    N_SOLVE,
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


def test_lambda_converges_at_fourth_order():
    # Numerov is fourth order: each doubling of n divides the lambda error
    # by about 16 (2.1e-8, 1.3e-9, 8.2e-11 at n = 1000, 2000, 4000)
    errors = [abs(solve_connection(n=n).lam * math.pi - 1.0) for n in (1000, 2000, 4000)]
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 <= coarse / fine <= 20.0


def test_connection_constants_stable_under_refinement(profile):
    # half and twice the default n move a0 and lambda by less than 1e-10
    # (2.5e-11 measured for lambda at n = 4000)
    for n in (N_SOLVE // 2, 2 * N_SOLVE):
        alt = solve_connection(n=n)
        assert abs(alt.a0 - profile.a0) < 1e-10
        assert abs(alt.lam - profile.lam) < 1e-10


def test_numerov_nodes_uniform_in_xi(profile):
    # rho = W(e^xi) inverts xi = log rho + rho on a uniform xi grid from
    # rho_min to RHO_TAIL, both ends exact
    rho = profile.nodes[0]
    assert rho[0] == DEFAULT_RHO_MIN and rho[-1] == RHO_TAIL and len(rho) == N_SOLVE + 1
    step = np.diff(np.log(rho) + rho)
    assert np.allclose(step, step.mean(), rtol=1e-9, atol=0.0)


def test_report_samples_come_from_the_evaluator(profile):
    # rho, psi, psi_x and psi_xx sample psi_log_derivatives on the uniform-x
    # report grid of psi.csv, which ends at DEFAULT_RHO_MAX
    x = np.linspace(math.log(DEFAULT_RHO_MIN), math.log(DEFAULT_RHO_MAX), N_GRID)
    assert np.array_equal(profile.rho, np.exp(x))
    got = psi_log_derivatives(profile, profile.rho)
    for value, samples in zip(got, (profile.psi, profile.psi_x, profile.psi_xx)):
        assert np.array_equal(value, samples)


def test_psi_eval_reproduces_grid_nodes(profile):
    # above the series cut the interpolants take every node's psi, psi_x
    # and psi_xx, up to the rounding of the cell coordinate
    rho, *stored = profile.nodes[:4]
    above = rho > SERIES_CUT
    for value, samples in zip(psi_log_derivatives(profile, rho[above]), stored):
        assert np.allclose(value, samples[above], rtol=1e-13, atol=0.0)


def test_series_branch_matches_grid_nodes(profile):
    # at and below the cut the series, not the nodes, is returned; it agrees
    # with every node there (1.2e-13 measured)
    rho, *stored = profile.nodes[:4]
    below = rho <= SERIES_CUT
    for value, samples in zip(psi_log_derivatives(profile, rho[below]), stored):
        assert np.abs(value - samples[below]).max() < 1e-12


@pytest.mark.parametrize("rho_min", [0.3, 0.5, 0.8])
def test_rho_min_above_series_range_rejected(rho_min):
    # the first two nodes take the series, so starting above SERIES_CUT
    # would carry its truncation error into a0 and lambda unseen
    with pytest.raises(ValueError, match="SERIES_CUT"):
        solve_connection(rho_min=rho_min)


@pytest.mark.parametrize("rho_min", [1e-3, 1e-2, 0.1])
def test_connection_constants_independent_of_rho_min(rho_min):
    # the solve starts from the full series that psi_log_derivatives reads,
    # so a shorter interval does not trade the start's truncation error for
    # an error in the constants
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


def test_far_tail_is_finite_and_quiet(profile):
    # every finite rho > 0 is in the evaluator's domain; psi_xx multiplies
    # rho in one factor at a time, since rho^2 overflows above 1.3e154 and
    # inf * 0 would be nan, with an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = psi_log_derivatives(profile, np.array([1e154, 1e200, 1e300, np.finfo(float).max]))
    assert all(np.array_equal(v, np.zeros(4)) for v in far)


def test_psi_eval_seam_continuity(profile):
    # series representation against the first Numerov node, whose psi is
    # the series' and whose psi_x is the quadrature summed from the tail
    rho, psi, psi_x = profile.nodes[:3]
    psi_s, psi_x_s, _ = _series_eval(profile.series, rho[0])
    assert psi_s == psi[0]
    assert abs(psi_x_s - psi_x[0]) < 1e-12
    # the last two nodes are the tail's
    tail_psi, tail_psi_x, _ = _tail_eval(profile.lam, rho[-2:])
    assert np.allclose(psi[-2:], tail_psi, rtol=1e-15, atol=0.0)
    assert np.allclose(psi_x[-2:], tail_psi_x, rtol=1e-13, atol=0.0)
    # the interpolation branch at RHO_TAIL meets the tail branch just above
    # it (6.9e-15 relative measured)
    above = psi_log_derivatives(profile, np.nextafter(RHO_TAIL, np.inf))
    at_seam = psi_log_derivatives(profile, RHO_TAIL)
    for a, b in zip(at_seam, above):
        assert math.isclose(a[0], b[0], rel_tol=1e-13)
    # the series branch at the cut meets the interpolation branch just above
    # it (1.2e-13 measured)
    at_cut = psi_log_derivatives(profile, SERIES_CUT)
    above = psi_log_derivatives(profile, np.nextafter(SERIES_CUT, 1.0))
    for a, b in zip(at_cut, above):
        assert abs(a[0] - b[0]) < 1e-12


def test_psi_eval_residual_between_nodes(profile):
    # psi_xx is the derivative of the psi_x interpolant, never the equation,
    # so this measures the solve: 3.8e-13 between the nodes
    rho = np.geomspace(SERIES_CUT, RHO_TAIL, 200001)[1:-1]
    psi, _, psi_xx = psi_log_derivatives(profile, rho)
    assert np.abs(psi_xx - 0.5 * rho * rho * np.sinh(2.0 * psi)).max() <= 1e-12


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
    for rho_min in (0.0, -1e-4):
        with pytest.raises(ValueError, match="SERIES_CUT"):
            solve_connection(rho_min=rho_min)
    for n in (0, 15, 1000.5, float("inf")):
        with pytest.raises(ValueError, match="n must be an integer"):
            solve_connection(n=n)


def test_nan_inputs_rejected(profile):
    with pytest.raises(ValueError, match="SERIES_CUT"):
        solve_connection(rho_min=float("nan"))
    with pytest.raises(ValueError, match="n must be an integer"):
        solve_connection(n=float("nan"))
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


@pytest.mark.parametrize("lam", [0.1, 1.0 / math.pi, 1.0, 10.0])
def test_tail_is_the_float64_solution_above_rho_tail(lam):
    # at RHO_TAIL the tail value is small enough that (1/2) sinh(2 psi)
    # rounds to psi, so lambda*K0 solves the profile equation exactly in
    # float64 there and beyond
    psi = lam * bessel_k0(RHO_TAIL)
    assert 0.5 * np.sinh(2.0 * psi) == psi




def test_newton_history_converges_quadratically(profile):
    # from psi = K0/3, a0 = 1, lambda = 1/3 the updates square each step
    # (4.5e-2, 1.2e-3, 7.7e-7, 6.4e-13), and the last is at the roundoff
    # floor of the discrete problem, which grows like n
    history = profile.newton_history
    floor = painleve.NEWTON_FLOOR * N_SOLVE * np.finfo(float).eps * profile.nodes[1, 0]
    assert history[-1] == profile.match_mismatch
    assert len(history) == 4
    for m, m_next in zip(history, history[1:]):
        assert m_next <= max(m * m, floor)
    assert history[-1] <= floor < history[-2]


def test_failed_solve_is_not_memoized(monkeypatch):
    # an inexact band solve makes Newton converge only linearly, so it does
    # not reach its floor within NEWTON_CAP steps: the solve raises, and
    # stores nothing
    real = painleve.solve_banded
    calls = []

    def halved(*args, **kwargs):
        calls.append(1)
        return 0.5 * real(*args, **kwargs)

    monkeypatch.setattr(painleve, "solve_banded", halved)
    monkeypatch.setattr(painleve, "_SOLVED", {})
    with pytest.raises(NumericalError, match="did not reach its roundoff floor"):
        solve_connection()
    assert len(calls) == painleve.NEWTON_CAP
    assert painleve._SOLVED == {}
    monkeypatch.setattr(painleve, "solve_banded", real)
    profile = solve_connection()
    assert list(painleve._SOLVED.values()) == [profile]


def test_solve_connection_is_memoized():
    # one solve per argument set
    profile = solve_connection()
    assert solve_connection(DEFAULT_RHO_MIN, N_SOLVE) is profile
    assert solve_connection(n=float(N_SOLVE)) is profile
    assert solve_connection(n=4000) is not profile
    assert solve_connection(rho_min=1e-3) is not profile
    # bad input raises on every call; nothing is stored for it
    for _ in range(2):
        with pytest.raises(ValueError, match="rho_min"):
            solve_connection(rho_min=float("nan"))
    assert not any(math.isnan(rho_min) for rho_min, _ in painleve._SOLVED)


def test_profile_is_read_only(profile):
    # every caller shares the memoized profile, so nobody may change it
    with pytest.raises(ValueError, match="read-only"):
        profile.psi[0] = 0.0
    for samples in (profile.rho, profile.psi_x, profile.psi_xx, profile.series, profile.nodes):
        assert not samples.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.a0 = 1.0
