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
    N_NODES,
    N_SOLVE,
    RHO_TAIL,
    SERIES_CUT,
    _series_eval,
    _solve_connection,
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
    assert math.isclose(profile.a0, a0, rel_tol=1e-13)
    assert math.isclose(profile.lam, 1.0 / math.pi, rel_tol=1e-13)


def test_lambda_converges_spectrally():
    # collocation converges geometrically: each 8 more degrees divide the
    # lambda error by a factor, 26 to 38 measured (1.7e-7, 5.0e-9, 1.5e-10,
    # 3.9e-12 and 1.5e-13 at n = 32 to 64), where a fourth-order scheme
    # would gain 1.7 to 2.4; n = 72 reaches rounding (2.2e-15)
    errors = [abs(_solve_connection(SERIES_CUT, n).lam * math.pi - 1.0)
              for n in (32, 40, 48, 56, 64, 72)]
    for coarse, fine in zip(errors[:-1], errors[1:-1]):
        assert coarse / fine >= 16.0
    assert errors[-1] < 1e-14


def test_connection_constants_stable_under_refinement(profile):
    # n = 72 and 96 move a0 and lambda by at most 2.6e-15
    for n in (72, 96):
        alt = _solve_connection(SERIES_CUT, n)
        assert abs(alt.a0 - profile.a0) < 1e-14
        assert abs(alt.lam - profile.lam) < 1e-14


def test_nodes_uniform_in_xi(profile):
    # rho = W(e^xi) inverts xi = log rho + rho on a uniform xi grid over the
    # solve's interval [SERIES_CUT, RHO_TAIL], both ends exact
    rho = profile.nodes[0]
    assert rho[0] == SERIES_CUT and rho[-1] == RHO_TAIL and len(rho) == N_NODES + 1
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
    # at and below the cut the series, not the nodes, is returned; the
    # first node lies at the cut, and the series agrees with it
    rho, *stored = profile.nodes[:4]
    below = rho <= SERIES_CUT
    for value, samples in zip(psi_log_derivatives(profile, rho[below]), stored):
        assert np.abs(value - samples[below]).max() < 1e-12


@pytest.mark.parametrize("rho_min", [1e-3, 1e-2, 0.1])
def test_connection_constants_independent_of_rho_min(rho_min):
    # the solve starts from the full series that psi_log_derivatives reads,
    # so a shorter interval does not trade the start's truncation error for
    # an error in the constants.  A longer interval needs a higher degree:
    # at n = 128 every error is at most 6e-15, where N_SOLVE leaves 6e-10
    # at rho_min = 1e-3
    profile = _solve_connection(rho_min, 128)
    a0 = math.gamma(1.0 / 3.0) / (2.0 * math.gamma(2.0 / 3.0))
    assert math.isclose(profile.a0, a0, rel_tol=1e-13)
    assert math.isclose(profile.lam, 1.0 / math.pi, rel_tol=1e-13)


def test_conservation_laws(profile):
    # (rho psi')' = (1/2) rho sinh 2psi and rho psi' runs from -1/3 to 0, so
    # int rho sinh 2psi = 2/3; d[(rho psi')^2] = rho^2 d[(cosh 2psi - 1)/2]
    # integrates by parts to int rho (cosh 2psi - 1) = 1/9, taken as
    # 2 rho sinh^2 psi, which does not cancel (5.9e-14 and 1.1e-13 measured)
    from scipy.integrate import quad

    cuts = (0.0, 1e-6, 1e-3, 0.1, 1.0, 5.0, 20.0, math.inf)

    def integral(fn):
        return sum(quad(lambda rho: fn(rho, psi_log_derivatives(profile, rho)[0][0]), a, b,
                        epsrel=1e-13, epsabs=0.0)[0] for a, b in zip(cuts, cuts[1:]))

    assert integral(lambda rho, psi: rho * math.sinh(2.0 * psi)) == pytest.approx(
        2.0 / 3.0, rel=1e-12, abs=0)
    assert integral(lambda rho, psi: 2.0 * rho * math.sinh(psi) ** 2) == pytest.approx(
        1.0 / 9.0, rel=1e-12, abs=0)


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
    # series representation against the first node, the collocation's value
    # at SERIES_CUT, which the solve matched to the series in psi and psi_x
    # (2.1e-15 and 1.1e-15 measured)
    rho, psi, psi_x = profile.nodes[:3]
    psi_s, psi_x_s, _ = _series_eval(profile.series, rho[0])
    assert abs(psi_s - psi[0]) < 1e-14
    assert abs(psi_x_s - psi_x[0]) < 1e-14
    # the last node is the tail's (2.2e-16 relative measured)
    tail_psi, tail_psi_x, _ = _tail_eval(profile.lam, rho[-1])
    assert math.isclose(psi[-1], tail_psi, rel_tol=1e-15)
    assert math.isclose(psi_x[-1], tail_psi_x, rel_tol=1e-15)
    # the interpolation branch at RHO_TAIL meets the tail branch just above
    # it (5.8e-15 relative measured)
    above = psi_log_derivatives(profile, np.nextafter(RHO_TAIL, np.inf))
    at_seam = psi_log_derivatives(profile, RHO_TAIL)
    for a, b in zip(at_seam, above):
        assert math.isclose(a[0], b[0], rel_tol=1e-13)
    # the series branch at the cut meets the interpolation branch just above
    # it (1.5e-14 measured)
    at_cut = psi_log_derivatives(profile, SERIES_CUT)
    above = psi_log_derivatives(profile, np.nextafter(SERIES_CUT, 1.0))
    for a, b in zip(at_cut, above):
        assert abs(a[0] - b[0]) < 1e-12


def test_psi_eval_residual_between_nodes(profile):
    # psi_xx is the derivative of the psi_x interpolant, never the equation,
    # so this measures the solve: 1.2e-13 between the nodes
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


def test_nan_inputs_rejected(profile):
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
    # from phi = log(K0/3), a0 = 1 the coefficient updates square each step
    # (4.4e-2, 1.8e-4, 4.0e-8, 2.9e-15), and the last is at the roundoff
    # floor NEWTON_FLOOR n eps, which no earlier one reaches
    history = profile.newton_history
    floor = painleve.NEWTON_FLOOR * N_SOLVE * np.finfo(float).eps
    assert history[-1] == profile.match_mismatch
    assert len(history) == 4
    for m, m_next in zip(history, history[1:]):
        assert m_next <= max(2.0 * m * m, floor)
    assert history[-1] <= floor < history[-2]


def test_failed_solve_is_not_memoized(monkeypatch):
    # an inexact linear solve makes Newton converge only linearly, so it
    # does not reach its floor within NEWTON_CAP steps: the solve raises,
    # and stores nothing
    real = np.linalg.solve
    calls = []

    def halved(*args, **kwargs):
        calls.append(1)
        return 0.5 * real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", halved)
    monkeypatch.setattr(painleve, "_SOLVED", None)
    with pytest.raises(NumericalError, match="did not reach its roundoff floor"):
        solve_connection()
    # the start's interpolation, then one per Newton step
    assert len(calls) == 1 + painleve.NEWTON_CAP
    assert painleve._SOLVED is None
    monkeypatch.setattr(np.linalg, "solve", real)
    profile = solve_connection()
    assert painleve._SOLVED is profile


def test_solve_connection_is_memoized(monkeypatch):
    # one solve per process, on [SERIES_CUT, RHO_TAIL] at degree N_SOLVE
    profile = solve_connection()
    solves = []
    monkeypatch.setattr(painleve, "_solve_connection",
                        lambda *args: solves.append(args) or profile)
    assert solve_connection() is profile
    assert solves == []
    monkeypatch.setattr(painleve, "_SOLVED", None)
    assert solve_connection() is profile
    assert solves == [(SERIES_CUT, N_SOLVE)]


def test_profile_is_read_only(profile):
    # every caller shares the memoized profile, so nobody may change it
    with pytest.raises(ValueError, match="read-only"):
        profile.psi[0] = 0.0
    for samples in (profile.rho, profile.psi_x, profile.psi_xx, profile.series, profile.nodes):
        assert not samples.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        profile.a0 = 1.0


def _polyval_reference(profile, rho):
    """psi_log_derivatives with numpy's polyval for each of its six
    polynomials, the evaluator's reference."""
    polyval = np.polynomial.polynomial.polyval
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    out = np.empty((3, len(rho)))
    lo, hi = rho <= SERIES_CUT, rho > RHO_TAIL
    mid = ~(lo | hi)
    c, r = profile.series, rho[lo]
    s, n = r ** (4.0 / 3.0), len(c)
    v = polyval(s, c)
    vp = polyval(s, c[1:] * np.arange(1, n))
    vpp = polyval(s, c[2:] * np.arange(2, n) * np.arange(1, n - 1))
    out[0, lo] = -np.log(r ** (1.0 / 3.0) * v)
    out[1, lo] = -1.0 / 3.0 - (4.0 / 3.0) * s * vp / v
    out[2, lo] = -(16.0 / 9.0) * (s * vp / v + s * s * (vpp * v - vp * vp) / (v * v))
    r = rho[mid]
    xi0, h, table = profile._quintic
    t = (np.log(r) + r - xi0) / h
    j = np.minimum(t.astype(np.intp), table.shape[-1] - 1)
    s = t - j
    of_psi, of_psi_x = table[:, :, j]
    out[0, mid] = polyval(s, of_psi, tensor=False)
    out[1, mid] = polyval(s, of_psi_x, tensor=False)
    out[2, mid] = (1.0 + r) * polyval(s, of_psi_x[1:] * np.arange(1.0, 6.0)[:, None],
                                      tensor=False) / h
    out[:, hi] = _tail_eval(profile.lam, rho[hi])
    return out


def test_evaluator_is_bit_for_bit_numpy_polyval(profile):
    # every branch, its seams and their float neighbours, unsorted and repeated
    rng = np.random.default_rng(7)
    edges = [SERIES_CUT, RHO_TAIL, profile.nodes[0, 0], profile.nodes[0, -1]]
    # dense enough that a re-associated product shows: (4/3) * (s * vp / v)
    # in psi_x moves 88 of 100001 series samples by one unit in the last place
    rho = np.concatenate([np.geomspace(1e-6, 60.0, 60001), edges, np.nextafter(edges, 0.0),
                          np.nextafter(edges, np.inf), profile.nodes[0, ::37]])
    rho = np.concatenate([rng.permutation(rho), rho[:50]])
    assert np.array_equal(np.array(psi_log_derivatives(profile, rho)),
                          _polyval_reference(profile, rho))
    for scalar in (1e-5, 0.05, SERIES_CUT, 1.0, RHO_TAIL, 33.0):
        got = np.array(psi_log_derivatives(profile, scalar))
        assert got.shape == (3, 1)
        assert np.array_equal(got, _polyval_reference(profile, scalar))
    # the complex series of the solve's a0 derivative takes the same steps
    coeffs = series_coefficients(0.9 * np.exp(1e-30j), 8)
    s = np.geomspace(1e-6, SERIES_CUT, 5) ** (4.0 / 3.0)
    assert np.array_equal(painleve._horner(coeffs, s),
                          np.polynomial.polynomial.polyval(s, coeffs))
