"""Connection problem for the radial profile psi on (0, infinity).

The profile solves (rho d_rho)^2 psi = (1/2) rho^2 sinh(2 psi), decays like a
multiple of K0(rho) as rho -> infinity, and behaves like
-log(rho^(1/3) sum_j a_j rho^(4j/3)) as rho -> 0.  The unique interpolating
solution is found by two-sided shooting in x = log(rho) with a Newton
iteration on (log a_0, log lambda), where lambda is the tail amplitude.  Each
shot integrates the variational equation d'' = e^(2x) cosh(2 psi) d alongside
psi, so it returns its end state together with the exact derivative of that
state in its own parameter: the left shot depends only on a_0 and the right
shot only on lambda.  Newton thus takes one shot per side per iteration; its
shots build no dense output, and one final dense pair samples the profile
grid.

Everything downstream (the fiducial family, the linearized blocks, the glued
approximate solutions) evaluates psi and its first two log-derivatives through
the PsiProfile returned here.  Below ``series_cut`` those evaluations use the
small-rho series directly, which keeps the residual of derived quantities at
truncation level even after division by r^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline, PchipInterpolator

from .errors import NumericalError
from .special import bessel_k0, bessel_k1

DEFAULT_RHO_MIN = 1e-4
DEFAULT_RHO_MID = 1.0
DEFAULT_RHO_MAX = 40.0


def series_coefficients(a0: float, n_terms: int) -> np.ndarray:
    """Coefficients a_0..a_{n-1} of v(s) = sum a_j s^j, s = rho^(4/3).

    Substituting psi = -log(rho^(1/3) v) into the profile equation and
    matching powers of s gives, at order s^m,

        -(16/9) [ (v'v)_m + (v''v)_{m-1} - ((v')^2)_{m-1} ]
            = (1/4) ( [m = 0] - (v^4)_{m-1} ),

    which determines a_{m+1} from a_0..a_m since the left side contains
    a_{m+1} with coefficient -(16/9) (m+1)^2 a_0.
    """
    if a0 <= 0:
        raise ValueError("a0 must be positive")
    a = [float(a0)]
    for m in range(n_terms - 1):
        # known parts of the order-s^m identity (a_{m+1} terms excluded)
        vpv = sum((i + 1) * a[i + 1] * a[m - i] for i in range(m))
        vppv = sum((i + 1) * (i + 2) * a[i + 2] * a[m - 1 - i] for i in range(m - 1))
        vp2 = sum((i + 1) * (m - i) * a[i + 1] * a[m - i] for i in range(m))
        if m == 0:
            v4 = 0.0
        else:
            v = np.array(a)
            v4 = np.convolve(np.convolve(v, v), np.convolve(v, v))[m - 1]
        rhs = 0.25 * ((1.0 if m == 0 else 0.0) - v4)
        rest = vpv + vppv - vp2
        a.append(-(9.0 / (16.0 * (m + 1) ** 2 * a0)) * (rhs + (16.0 / 9.0) * rest))
    return np.array(a)


def _series_eval(coeffs: np.ndarray, rho):
    """psi, psi_x, psi_xx from the series, x = log rho."""
    rho = np.asarray(rho, dtype=float)
    s = rho ** (4.0 / 3.0)
    n = len(coeffs)
    v = np.polynomial.polynomial.polyval(s, coeffs)
    vp = np.polynomial.polynomial.polyval(s, coeffs[1:] * np.arange(1, n))
    vpp = np.polynomial.polynomial.polyval(
        s, coeffs[2:] * np.arange(2, n) * np.arange(1, n - 1)
    )
    psi = -np.log(rho ** (1.0 / 3.0) * v)
    psi_x = -1.0 / 3.0 - (4.0 / 3.0) * s * vp / v
    psi_xx = -(16.0 / 9.0) * (s * vp / v + s * s * (vpp * v - vp * vp) / (v * v))
    return psi, psi_x, psi_xx


def small_rho_series(a0: float, n_terms: int, rho: float, trunc_tol: float = 1e-10):
    """(psi, psi') from the truncated small-rho expansion.

    Refuses when the last retained term exceeds ``trunc_tol`` relative to the
    series sum; the caller must then shrink rho (or raise n_terms).
    """
    coeffs = series_coefficients(a0, n_terms)
    s = float(rho) ** (4.0 / 3.0)
    v = np.polynomial.polynomial.polyval(s, coeffs)
    last = abs(coeffs[-1]) * s ** (n_terms - 1)
    if last > trunc_tol * abs(v):
        raise ValueError(
            f"series truncation estimate {last / abs(v):.2e} above tolerance at rho={rho}"
        )
    psi, psi_x, _ = _series_eval(coeffs, rho)
    return float(psi), float(psi_x) / float(rho)


@dataclass(eq=False)
class PsiProfile:
    """Solved profile on a log-spaced grid with endpoint expansion data.

    ``rho`` is strictly increasing (uniform in log), ``psi`` positive and
    strictly decreasing, ``dpsi`` = psi'(rho) negative.  ``a0`` and ``lam``
    are the fitted small-rho coefficient and tail amplitude; ``residual_max``
    is the interior max of |psi_xx - (1/2) rho^2 sinh(2 psi)| with psi_xx
    from fourth-order differences of the psi_x data.  ``newton_history`` is
    the max-norm matching mismatch of each accepted Newton iterate, starting
    with the initial shot; ``reseeded`` says whether the coarse sweep had to
    supply the seed.
    """

    rho: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    a0: float
    lam: float
    residual_max: float
    match_mismatch: float
    rho_min: float
    rho_mid: float
    rho_max: float
    psi_x: np.ndarray = field(repr=False, default=None)
    psi_xx: np.ndarray = field(repr=False, default=None)
    series: np.ndarray = field(repr=False, default=None)
    series_cut: float = 0.1
    newton_history: tuple = ()
    reseeded: bool = False

    @property
    def x(self) -> np.ndarray:
        return np.log(self.rho)

    @cached_property
    def _interp_psi(self):
        return PchipInterpolator(self.x, self.psi)

    @cached_property
    def _interp_psi_x(self):
        return PchipInterpolator(self.x, self.psi_x)

    @cached_property
    def _interp_psi_xx(self):
        return CubicSpline(self.x, self.psi_xx)

    def eta(self, rho) -> np.ndarray:
        """eta(rho) = 1/8 + (3/8) rho psi'(rho); in [0, 1/8], nondecreasing."""
        psi, dpsi = psi_eval(self, rho)
        return 0.125 + 0.375 * np.asarray(rho) * dpsi


def _fd4_derivative(y: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative on a uniform grid, one-sided at the ends."""
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    for i in (0, 1):
        d[i] = (-25 * y[i] + 48 * y[i + 1] - 36 * y[i + 2] + 16 * y[i + 3] - 3 * y[i + 4]) / (12 * h)
    for i in (-2, -1):
        d[i] = (25 * y[i] - 48 * y[i - 1] + 36 * y[i - 2] - 16 * y[i - 3] + 3 * y[i - 4]) / (12 * h)
    return d


def _rhs(x, y):
    """psi and its variational equation d'' = e^(2x) cosh(2 psi) d, as one system."""
    e2x = np.exp(2.0 * x)
    return (y[1], 0.5 * e2x * np.sinh(2.0 * y[0]), y[3], e2x * np.cosh(2.0 * y[0]) * y[2])


def _blowup(x, y):
    return abs(y[0]) - 30.0


_blowup.terminal = True


def _shoot_left(a0, x_min, x_mid, ode_tol, dense_output=False):
    """Shot from the small-rho series at x_min to x_mid; None when it blows up.

    The tangent starts at the exact log-a0 derivative of the 3-term series:
    a0 d/da0 maps (a0, c1, c2) to (a0, -c1, 3 c2), since c1 = -9/(64 a0) and
    c2 = 9 a0^3/256.
    """
    c = series_coefficients(a0, 3)
    rho = np.exp(x_min)
    s = rho ** (4.0 / 3.0)
    v, vp = c[0] + c[1] * s + c[2] * s * s, c[1] + 2.0 * c[2] * s
    dv, dvp = c[0] - c[1] * s + 3.0 * c[2] * s * s, -c[1] + 6.0 * c[2] * s
    p, px, _ = _series_eval(c, rho)
    y0 = (float(p), float(px), -dv / v, -(4.0 / 3.0) * s * (dvp * v - vp * dv) / (v * v))
    left = solve_ivp(
        _rhs, (x_min, x_mid), y0, method="DOP853",
        rtol=ode_tol, atol=ode_tol, dense_output=dense_output, events=_blowup,
    )
    return left if left.success and left.t[-1] == x_mid else None


def _shoot_right(lam, x_mid, x_max, rho_max, ode_tol, dense_output=False):
    """Shot from the lambda*K0 tail at x_max back to x_mid; None on failure.

    The tail state is linear in lambda, so it is its own log-lambda tangent.
    """
    tail = (lam * bessel_k0(rho_max), -lam * rho_max * bessel_k1(rho_max))
    # pure relative control: the state passes through ~1e-19
    right = solve_ivp(
        _rhs, (x_max, x_mid), tail + tail,
        method="DOP853", rtol=max(ode_tol, 3e-14), atol=1e-300, dense_output=dense_output,
    )
    return right if right.success else None


def _initial_sweep(x_min, x_mid):
    """Coarse bracketing sweep used when Newton from (1, 1) stalls.

    Only left shots are needed: each candidate a0 is scored by how well the
    lambda*K0 tail fitted to its value at rho_mid also matches its slope.
    """
    best = None
    for a0 in np.geomspace(0.2, 5.0, 25):
        left = _shoot_left(a0, x_min, x_mid, 1e-10)
        if left is None:
            continue
        psi_mid, dpsi_mid = left.y[0, -1], left.y[1, -1]
        if psi_mid <= 0:
            continue
        lam_guess = psi_mid / bessel_k0(np.exp(x_mid))
        score = abs(dpsi_mid + lam_guess * np.exp(x_mid) * bessel_k1(np.exp(x_mid)))
        if best is None or score < best[0]:
            best = (score, a0, lam_guess)
    if best is None:
        raise NumericalError("no admissible shooting bracket found")
    return best[1], best[2]


def solve_connection(
    rho_min: float = DEFAULT_RHO_MIN,
    rho_mid: float = DEFAULT_RHO_MID,
    rho_max: float = DEFAULT_RHO_MAX,
    tol: float = 1e-12,
    n_grid: int = 8192,
    n_series: int = 8,
    series_cut: float = 0.1,
    ode_tol: float = 1e-13,
    max_newton: int = 30,
) -> PsiProfile:
    """Two-sided shooting solve of the connection problem.

    Newton iterates on p = (log a0, log lambda) until the value/derivative
    mismatch at rho_mid drops below ``tol``.  Each shot carries the
    variational equation, so its end state comes with the exact derivative
    in its own parameter, and the Jacobian costs no extra shot: one shot per
    side per iteration.  Falls back to a coarse bracketing sweep for the
    seed when the first shot fails or the iteration from (1, 1) diverges.

    Newton shots keep no dense output.  After convergence one more shot per
    side, with dense output, samples the grid; it integrates the same
    four-component system, and DOP853 takes the same steps with or without
    dense output, so this pair ends at the accepted states.
    """
    if not (0 < rho_min < rho_mid < rho_max):
        raise ValueError("need 0 < rho_min < rho_mid < rho_max")
    if not tol > 0:
        raise ValueError("tol must be positive")
    x_min, x_mid, x_max = np.log(rho_min), np.log(rho_mid), np.log(rho_max)

    def shoot(p):
        """(mismatch, Jacobian) at p, or None when either shot fails."""
        left = _shoot_left(np.exp(p[0]), x_min, x_mid, ode_tol)
        right = None if left is None else _shoot_right(np.exp(p[1]), x_mid, x_max, rho_max, ode_tol)
        if right is None:
            return None
        lft, rgt = left.y[:, -1], right.y[:, -1]
        return lft[:2] - rgt[:2], np.column_stack((lft[2:], -rgt[2:]))

    def reseed():
        p = np.log(_initial_sweep(x_min, x_mid))
        shot = shoot(p)
        if shot is None:
            raise NumericalError("shooting fails from swept initial guess")
        return p, shot

    reseeded = False
    p = np.zeros(2)  # (log a0, log lambda) = (0, 0)
    shot = shoot(p)
    if shot is None:
        (p, shot), reseeded = reseed(), True
    history = [float(np.max(np.abs(shot[0])))]
    while history[-1] >= tol and len(history) <= max_newton:
        last = history[-1]
        m, jac = shot
        try:
            delta = np.linalg.solve(jac, -m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular shooting Jacobian: {exc}") from exc
        p_new = p + np.clip(delta, -1.0, 1.0)
        shot_new = shoot(p_new)
        if shot_new is None or np.max(np.abs(shot_new[0])) > 10.0 * max(last, tol):
            if reseeded:
                raise NumericalError(f"Newton diverged; last mismatch {last:.3e}")
            (p, shot), reseeded = reseed(), True
        else:
            p, shot = p_new, shot_new
        history.append(float(np.max(np.abs(shot[0]))))
    last = history[-1]
    if last >= tol:
        raise NumericalError(f"Newton did not reach tol={tol}; last mismatch {last:.3e}")

    a0, lam = float(np.exp(p[0])), float(np.exp(p[1]))
    left = _shoot_left(a0, x_min, x_mid, ode_tol, dense_output=True)
    right = _shoot_right(lam, x_mid, x_max, rho_max, ode_tol, dense_output=True)
    x = np.linspace(x_min, x_max, n_grid)
    on_left = x <= x_mid
    psi = np.empty(n_grid)
    psi_x = np.empty(n_grid)
    psi[on_left], psi_x[on_left] = left.sol(x[on_left])[:2]
    psi[~on_left], psi_x[~on_left] = right.sol(x[~on_left])[:2]
    rho = np.exp(x)

    if not ((psi > 0).all() and (psi_x < 0).all()):
        raise NumericalError("invalid bracketing: profile not positive decreasing")

    h = x[1] - x[0]
    psi_xx = _fd4_derivative(psi_x, h)
    residual = np.abs(psi_xx - 0.5 * rho * rho * np.sinh(2.0 * psi))

    return PsiProfile(
        rho=rho,
        psi=psi,
        dpsi=psi_x / rho,
        a0=a0,
        lam=lam,
        residual_max=float(residual.max()),
        match_mismatch=float(last),
        rho_min=rho_min,
        rho_mid=rho_mid,
        rho_max=rho_max,
        psi_x=psi_x,
        psi_xx=psi_xx,
        series=series_coefficients(a0, n_series),
        series_cut=series_cut,
        newton_history=tuple(history),
        reseeded=reseeded,
    )


def _in_range(profile: PsiProfile, rho) -> np.ndarray:
    """rho as a 1-d float array; raises outside the extended range (0, 2 rho_max]."""
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if not np.all((rho_arr > 0) & (rho_arr <= 2.0 * profile.rho_max)):
        raise ValueError("rho outside the profile's extended range")
    return rho_arr


def psi_eval(profile: PsiProfile, rho):
    """(psi, psi') at rho; grid interpolation inside, expansions outside.

    Monotone cubic interpolation reproduces grid nodes exactly; rho below the
    grid uses the small-rho series (uniformly valid toward 0), rho above uses
    the lambda*K0 tail up to 2*rho_max.
    """
    scalar = np.ndim(rho) == 0
    rho_arr = _in_range(profile, rho)
    psi = np.empty_like(rho_arr)
    dpsi = np.empty_like(rho_arr)
    lo = rho_arr < profile.rho_min
    hi = rho_arr > profile.rho_max
    mid = ~(lo | hi)
    if lo.any():
        p, px, _ = _series_eval(profile.series, rho_arr[lo])
        psi[lo], dpsi[lo] = p, px / rho_arr[lo]
    if mid.any():
        xm = np.log(rho_arr[mid])
        psi[mid] = profile._interp_psi(xm)
        dpsi[mid] = profile._interp_psi_x(xm) / rho_arr[mid]
    if hi.any():
        psi[hi] = profile.lam * bessel_k0(rho_arr[hi])
        dpsi[hi] = -profile.lam * bessel_k1(rho_arr[hi])
    if scalar:
        return float(psi[0]), float(dpsi[0])
    return psi, dpsi


def psi_log_derivatives(profile: PsiProfile, rho):
    """(psi, psi_x, psi_xx) at full accuracy; series below ``series_cut``.

    The series branch keeps residual-grade quantities division-safe: below the
    cut every returned value carries only series truncation error, so
    combinations like psi_xx - (1/2) rho^2 sinh(2 psi) vanish to ~1e-15 even
    after amplification by 1/r^2 in radial coordinates.  Like ``psi_eval``,
    it raises ValueError for rho outside (0, 2 rho_max].
    """
    rho_arr = _in_range(profile, rho)
    psi = np.empty_like(rho_arr)
    psi_x = np.empty_like(rho_arr)
    psi_xx = np.empty_like(rho_arr)
    lo = rho_arr <= profile.series_cut
    hi = rho_arr > profile.rho_max
    mid = ~(lo | hi)
    if lo.any():
        psi[lo], psi_x[lo], psi_xx[lo] = _series_eval(profile.series, rho_arr[lo])
    if mid.any():
        xm = np.log(rho_arr[mid])
        psi[mid] = profile._interp_psi(xm)
        psi_x[mid] = profile._interp_psi_x(xm)
        psi_xx[mid] = profile._interp_psi_xx(xm)
    if hi.any():
        r = rho_arr[hi]
        psi[hi] = profile.lam * bessel_k0(r)
        psi_x[hi] = -profile.lam * r * bessel_k1(r)
        # tail region: the linearized equation is exact to ~1e-36 here
        psi_xx[hi] = 0.5 * r * r * np.sinh(2.0 * psi[hi])
    return psi, psi_x, psi_xx


def export_profile_csv(profile: PsiProfile, path) -> None:
    """Write rho, psi, dpsi, eta columns with 17 significant digits."""
    eta = 0.125 + 0.375 * profile.psi_x
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("rho,psi,dpsi,eta\n")
        for row in zip(profile.rho, profile.psi, profile.dpsi, eta):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
