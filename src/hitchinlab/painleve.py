"""Connection problem for the radial profile psi on (0, infinity).

The profile solves (rho d_rho)^2 psi = (1/2) rho^2 sinh(2 psi), decays like a
multiple of K0(rho) as rho -> infinity, and behaves like
-log(rho^(1/3) sum_j a_j rho^(4j/3)) as rho -> 0.  The unique interpolating
solution is found by two-sided shooting in x = log(rho) with a Newton
iteration on (log a_0, log lambda), where lambda is the tail amplitude.  Each
shot integrates the variational equation d'' = e^(2x) cosh(2 psi) d alongside
psi, so it returns its end state together with the exact derivative of that
state in its own parameter: the left shot depends only on a_0 and the right
shot only on lambda.  Newton thus takes one shot per side per iteration.
Newton starts from a_0 = 1 and the tail fitted to that first left shot's
value at rho_mid.  Its shots are inexact Newton steps (Dembo, Eisenstat and
Steihaug, SIAM J. Numer. Anal. 19, 1982): each integrates only as accurately
as the step taken from it can use, and the accepted pair, at the full
tolerance, also samples the profile grid.

The profile is one parameter-free function, so ``solve_connection`` solves
it once per process and argument set and hands every caller the same
read-only ``PsiProfile``.

The right shot starts at ``RHO_TAIL``, not at the grid's end: above it
lambda*K0 <= 6e-9 for lambda <= 10, where (1/2) sinh(2 psi) rounds to psi,
so the linear tail is the float64 solution and integrating it adds nothing.

Everything downstream (the fiducial family, the linearized blocks, the glued
approximate solutions) reads psi and its first two log-derivatives through
one evaluator, ``psi_log_derivatives``, on the PsiProfile returned here.  It
uses the small-rho series at and below ``SERIES_CUT``, which keeps the
residual of derived quantities at truncation level even after division by
r^2; cubic Hermite interpolation of the ODE samples and their stored
log-derivatives up to ``RHO_TAIL``; and the lambda*K0 tail above it, for
every finite rho (it underflows to 0 past rho ~ 700).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from .errors import NumericalError
from .special import bessel_k0, bessel_k1

DEFAULT_RHO_MIN = 1e-4
DEFAULT_RHO_MID = 1.0
DEFAULT_RHO_MAX = 40.0
RHO_TAIL = 20.0      # above this the lambda*K0 tail is the profile in float64
N_GRID = 8192        # profile samples, uniform in x = log rho
N_SERIES = 8         # small-rho series terms kept with the profile
SERIES_CUT = 0.1     # psi_log_derivatives uses the series for rho <= this
MAX_NEWTON = 30      # Newton iterations on (log a0, log lambda)
SHOT_TOL_MAX = 1e-6  # rtol of the seed shots, the loosest any Newton shot takes
# rows per formatted string in CSV exports: as fast as one string for the
# whole file, without the 2.4 MB transient that one string costs for psi.csv
CSV_BLOCK_ROWS = 256

# solved profiles by (rho_min, rho_mid, tol, ode_tol); see solve_connection
_SOLVED: dict = {}


def series_coefficients(a0: float, n_terms: int) -> np.ndarray:
    """Coefficients a_0..a_{n-1} of v(s) = sum a_j s^j, s = rho^(4/3).

    ``a0`` may be complex, so that a complex step in a0 carries the exact
    a0-derivative of every coefficient.

    Substituting psi = -log(rho^(1/3) v) into the profile equation and
    matching powers of s gives, at order s^m,

        -(16/9) [ (v'v)_m + (v''v)_{m-1} - ((v')^2)_{m-1} ]
            = (1/4) ( [m = 0] - (v^4)_{m-1} ),

    which determines a_{m+1} from a_0..a_m since the left side contains
    a_{m+1} with coefficient -(16/9) (m+1)^2 a_0.
    """
    if not np.real(a0) > 0:
        raise ValueError("a0 must be positive")
    a = [a0]
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


@dataclass(frozen=True, eq=False)
class PsiProfile:
    """Solved profile on a log-spaced grid with endpoint expansion data.

    ``rho`` is strictly increasing (uniform in x = log rho), ``psi`` positive
    and strictly decreasing, ``psi_x`` = rho psi'(rho) negative, and
    ``psi_xx`` its fourth-order x-difference; at the nodes above ``RHO_TAIL``
    all three are the lambda*K0 tail's.  ``series`` holds the small-rho
    coefficients of ``series_coefficients(a0, N_SERIES)``.  ``a0`` and
    ``lam`` are the fitted small-rho coefficient and tail amplitude;
    ``residual_max`` is the max of |psi_xx - (1/2) rho^2 sinh(2 psi)| over
    the grid.  ``newton_history`` is the max-norm matching mismatch of each
    accepted Newton iterate, starting with the initial shot; ``reseeded``
    says whether the coarse sweep had to supply the seed.

    A profile is shared by every caller of ``solve_connection`` with the
    same arguments, so it is frozen and its arrays are read-only.
    """

    rho: np.ndarray
    psi: np.ndarray
    a0: float
    lam: float
    residual_max: float
    match_mismatch: float
    psi_x: np.ndarray = field(repr=False)
    psi_xx: np.ndarray = field(repr=False)
    series: np.ndarray = field(repr=False)
    newton_history: tuple = ()
    reseeded: bool = False

    def __post_init__(self):
        for samples in (self.rho, self.psi, self.psi_x, self.psi_xx, self.series):
            samples.flags.writeable = False

    @property
    def x(self) -> np.ndarray:
        return np.log(self.rho)

    @property
    def dpsi(self) -> np.ndarray:
        """psi'(rho) on the grid."""
        return self.psi_x / self.rho

    @property
    def eta(self) -> np.ndarray:
        """eta = 1/8 + (3/8) rho psi'(rho) on the grid; in [0, 1/8],
        nondecreasing."""
        return 0.125 + 0.375 * self.psi_x

    @cached_property
    def _interp_psi(self):
        return CubicHermiteSpline(self.x, self.psi, self.psi_x)

    @cached_property
    def _interp_psi_x(self):
        return CubicHermiteSpline(self.x, self.psi_x, self.psi_xx)

    @cached_property
    def _interp_psi_xx(self):
        return CubicSpline(self.x, self.psi_xx)


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


def _psi_rhs(x, y):
    """psi alone, psi'' = (1/2) e^(2x) sinh(2 psi), for shots whose tangent
    nothing reads."""
    return (y[1], 0.5 * np.exp(2.0 * x) * np.sinh(2.0 * y[0]))


def _blowup(x, y):
    return abs(y[0]) - 30.0


_blowup.terminal = True


def _shoot_left(a0, x_min, x_mid, ode_tol, dense_output=False, tangent=True):
    """Shot from the small-rho series at x_min to x_mid; None when it blows up.

    It starts from the ``N_SERIES``-term series that ``psi_log_derivatives``
    reads.  The tangent starts at its exact log-a0 derivative, taken by a
    complex step: with a0 -> a0 e^(i h), the imaginary parts of psi and psi_x
    are h times their log-a0 derivatives, free of cancellation.  With
    ``tangent`` False the shot integrates psi and psi_x only.
    """
    h = 1e-30
    psi, psi_x, _ = _series_eval(series_coefficients(a0 * np.exp(1j * h), N_SERIES), np.exp(x_min))
    y0 = (float(psi.real), float(psi_x.real), float(psi.imag) / h, float(psi_x.imag) / h)
    rhs, y0 = (_rhs, y0) if tangent else (_psi_rhs, y0[:2])
    left = solve_ivp(
        rhs, (x_min, x_mid), y0, method="DOP853",
        rtol=ode_tol, atol=ode_tol, dense_output=dense_output, events=_blowup,
    )
    return left if left.success and left.t[-1] == x_mid else None


def _tail_eval(lam, rho):
    """psi, psi_x, psi_xx of the lambda*K0 tail at rho.

    psi_xx is (1/2) rho^2 sinh(2 psi), the profile equation itself; it
    equals rho^2 psi, the tail's own second log-derivative, wherever
    (1/2) sinh(2 psi) rounds to psi, as it does above ``RHO_TAIL``.
    """
    psi = lam * bessel_k0(rho)
    return psi, -lam * rho * bessel_k1(rho), 0.5 * rho * rho * np.sinh(2.0 * psi)


def _shoot_right(lam, x_mid, ode_tol, dense_output=False):
    """Shot from the lambda*K0 tail at RHO_TAIL back to x_mid; None on failure.

    The tail state is linear in lambda, so it is its own log-lambda tangent.
    """
    tail = _tail_eval(lam, RHO_TAIL)[:2]
    # pure relative control: the state starts at ~2e-10
    right = solve_ivp(
        _rhs, (np.log(RHO_TAIL), x_mid), tail + tail,
        method="DOP853", rtol=max(ode_tol, 3e-14), atol=1e-300, dense_output=dense_output,
    )
    return right if right.success else None


def _tail_fit(left, x_mid):
    """(lambda, slope mismatch) of the lambda*K0 tail fitted to a left shot's
    psi at rho_mid; None when the shot failed or that psi is not positive."""
    if left is None or left.y[0, -1] <= 0:
        return None
    rho_mid = np.exp(x_mid)
    lam = left.y[0, -1] / bessel_k0(rho_mid)
    return lam, abs(left.y[1, -1] + lam * rho_mid * bessel_k1(rho_mid))


def _initial_sweep(x_min, x_mid):
    """Coarse bracketing sweep used when Newton from the fitted seed stalls.

    Only left shots are needed: each candidate a0 is scored by how well the
    lambda*K0 tail fitted to its value at rho_mid also matches its slope.
    The score reads no tangent, so the shots integrate psi alone.
    """
    best = None
    for a0 in np.geomspace(0.2, 5.0, 25):
        fit = _tail_fit(_shoot_left(a0, x_min, x_mid, 1e-10, tangent=False), x_mid)
        if fit is not None and (best is None or fit[1] < best[0]):
            best = (fit[1], a0, fit[0])
    if best is None:
        raise NumericalError("no admissible shooting bracket found")
    return best[1], best[2]


def solve_connection(
    rho_min: float = DEFAULT_RHO_MIN,
    rho_mid: float = DEFAULT_RHO_MID,
    tol: float = 1e-12,
    ode_tol: float = 1e-13,
) -> PsiProfile:
    """Two-sided shooting solve of the connection problem on
    [rho_min, DEFAULT_RHO_MAX], once per process and argument set.

    Newton iterates on p = (log a0, log lambda) until the value/derivative
    mismatch at rho_mid drops below ``tol``.  Each shot carries the
    variational equation, so its end state comes with the exact derivative
    in its own parameter, and the Jacobian costs no extra shot: one shot per
    side per iteration.  The seed is a0 = 1 with the lambda*K0 tail fitted
    to that left shot's psi at rho_mid, and that shot is the first pair's
    left half.  Falls back to a coarse bracketing sweep for the seed when
    the first shot fails, its psi at rho_mid is not positive, or the
    iteration diverges, and raises NumericalError after ``MAX_NEWTON``
    iterations above ``tol``.  ``rho_min`` must lie within the series'
    range, (0, SERIES_CUT], and ``rho_mid`` between it and ``RHO_TAIL``.

    The seed pair is shot at rtol ``SHOT_TOL_MAX``, and a pair taken after a
    step from accepted mismatch m at max(min(m^4, SHOT_TOL_MAX), ode_tol):
    the error of the shot at p_k sets the error of the step from p_k, and
    that must stay below the next mismatch, about C m_k^2 ~ C^3 m_(k-1)^4.
    Only a pair shot at ``ode_tol`` is accepted below ``tol``.  Such pairs
    keep dense output, and the accepted one samples the grid up to
    ``RHO_TAIL``; the grid nodes above it take the tail itself.

    The result is kept in ``_SOLVED`` under the arguments as floats, so the
    default call and ``tol=1e-12`` share one profile, which is why it is
    read-only.  A solve that raises stores nothing.
    """
    key = (float(rho_min), float(rho_mid), float(tol), float(ode_tol))
    if key not in _SOLVED:
        _SOLVED[key] = _solve_connection(*key)
    return _SOLVED[key]


def _solve_connection(rho_min: float, rho_mid: float, tol: float, ode_tol: float) -> PsiProfile:
    """``solve_connection`` without the memo."""
    if not 0 < rho_min <= SERIES_CUT:
        raise ValueError(f"need 0 < rho_min <= SERIES_CUT = {SERIES_CUT}, the series' range")
    if not rho_min < rho_mid < RHO_TAIL:
        raise ValueError("need rho_min < rho_mid < RHO_TAIL")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not ode_tol > 0:
        raise ValueError("ode_tol must be positive")
    x_min, x_mid = np.log(rho_min), np.log(rho_mid)
    seed_tol = max(SHOT_TOL_MAX, ode_tol)

    def shoot(p, eps, left=None):
        """(mismatch, Jacobian, eps, left, right) of the pair at p shot at
        rtol eps, or None when either shot fails; ``left`` is a left shot
        already taken at a0 = exp(p[0]) and rtol eps."""
        dense = eps == ode_tol
        if left is None:
            left = _shoot_left(np.exp(p[0]), x_min, x_mid, eps, dense_output=dense)
        right = None if left is None else _shoot_right(np.exp(p[1]), x_mid, eps, dense)
        if right is None:
            return None
        lft, rgt = left.y[:, -1], right.y[:, -1]
        return lft[:2] - rgt[:2], np.column_stack((lft[2:], -rgt[2:])), eps, left, right

    def reseed():
        p = np.log(_initial_sweep(x_min, x_mid))
        shot = shoot(p, seed_tol)
        if shot is None:
            raise NumericalError("shooting fails from swept initial guess")
        return p, shot

    reseeded = False
    left = _shoot_left(1.0, x_min, x_mid, seed_tol, dense_output=seed_tol == ode_tol)
    fit = _tail_fit(left, x_mid)
    if fit is not None:
        p = np.array([0.0, np.log(fit[0])])  # (log a0, log lambda)
        shot = shoot(p, seed_tol, left)
    if fit is None or shot is None:
        (p, shot), reseeded = reseed(), True
    history = [float(np.max(np.abs(shot[0])))]
    while (history[-1] >= tol or shot[2] > ode_tol) and len(history) <= MAX_NEWTON:
        last = history[-1]
        m, jac = shot[:2]
        try:
            delta = np.linalg.solve(jac, -m)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular shooting Jacobian: {exc}") from exc
        p_new = p + np.clip(delta, -1.0, 1.0)
        shot_new = shoot(p_new, max(min(last ** 4, SHOT_TOL_MAX), ode_tol))
        if shot_new is None or np.max(np.abs(shot_new[0])) > 10.0 * max(last, tol):
            if reseeded:
                raise NumericalError(f"Newton diverged; last mismatch {last:.3e}")
            (p, shot), reseeded = reseed(), True
        else:
            p, shot = p_new, shot_new
        history.append(float(np.max(np.abs(shot[0]))))
    last = history[-1]
    if last >= tol or shot[2] > ode_tol:
        raise NumericalError(f"Newton did not reach tol={tol}; last mismatch {last:.3e}")

    a0, lam = float(np.exp(p[0])), float(np.exp(p[1]))
    left, right = shot[3:]
    x = np.linspace(x_min, np.log(DEFAULT_RHO_MAX), N_GRID)
    rho = np.exp(x)
    on_left = x <= x_mid
    tail = rho > RHO_TAIL
    on_right = ~(on_left | tail)
    psi = np.empty(N_GRID)
    psi_x = np.empty(N_GRID)
    psi[on_left], psi_x[on_left] = left.sol(x[on_left])[:2]
    psi[on_right], psi_x[on_right] = right.sol(x[on_right])[:2]
    psi[tail], psi_x[tail], tail_xx = _tail_eval(lam, rho[tail])

    if not ((psi > 0).all() and (psi_x < 0).all()):
        raise NumericalError("invalid bracketing: profile not positive decreasing")

    psi_xx = _fd4_derivative(psi_x, x[1] - x[0])
    psi_xx[tail] = tail_xx
    residual = np.abs(psi_xx - 0.5 * rho * rho * np.sinh(2.0 * psi))

    return PsiProfile(
        rho=rho,
        psi=psi,
        a0=a0,
        lam=lam,
        residual_max=float(residual.max()),
        match_mismatch=float(last),
        psi_x=psi_x,
        psi_xx=psi_xx,
        series=series_coefficients(a0, N_SERIES),
        newton_history=tuple(history),
        reseeded=reseeded,
    )


def psi_log_derivatives(profile: PsiProfile, rho):
    """(psi, psi_x, psi_xx) at rho, x = log rho: the one evaluator of psi.

    Up to ``SERIES_CUT``, which covers every rho below the grid, the small-rho
    series; up to ``RHO_TAIL``, cubic Hermite interpolation of the ODE
    samples with their stored x-derivatives (psi_x for psi, psi_xx for
    psi_x), which reproduces the nodes above the cut exactly; above it, the
    lambda*K0 tail, which is what the nodes there store.  The
    series branch keeps residual-grade quantities division-safe: there every
    returned value carries only series truncation error, so combinations
    like psi_xx - (1/2) rho^2 sinh(2 psi) vanish to ~1e-15 even after
    amplification by 1/r^2 in radial coordinates.  Raises ValueError for
    rho that is not finite and positive.
    """
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if not np.all((rho_arr > 0) & np.isfinite(rho_arr)):
        raise ValueError("rho must be finite and positive")
    psi = np.empty_like(rho_arr)
    psi_x = np.empty_like(rho_arr)
    psi_xx = np.empty_like(rho_arr)
    lo = rho_arr <= SERIES_CUT
    hi = rho_arr > RHO_TAIL
    mid = ~(lo | hi)
    if lo.any():
        psi[lo], psi_x[lo], psi_xx[lo] = _series_eval(profile.series, rho_arr[lo])
    if mid.any():
        xm = np.log(rho_arr[mid])
        psi[mid] = profile._interp_psi(xm)
        psi_x[mid] = profile._interp_psi_x(xm)
        psi_xx[mid] = profile._interp_psi_xx(xm)
    if hi.any():
        psi[hi], psi_x[hi], psi_xx[hi] = _tail_eval(profile.lam, rho_arr[hi])
    return psi, psi_x, psi_xx


def write_columns_csv(path, header: str, columns) -> None:
    """Write ``header`` and one row per sample of the equal-length float
    ``columns``, each value as ``%.17g``, in one ``writelines`` call that
    formats ``CSV_BLOCK_ROWS`` rows per string."""
    rows = np.column_stack(columns)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    blocks = np.split(rows, range(CSV_BLOCK_ROWS, len(rows), CSV_BLOCK_ROWS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines((line * len(b)) % tuple(b.ravel().tolist()) for b in blocks)


def export_profile_csv(profile: PsiProfile, path) -> None:
    """Write rho, psi, dpsi, eta columns with 17 significant digits."""
    write_columns_csv(path, "rho,psi,dpsi,eta",
                      [profile.rho, profile.psi, profile.dpsi, profile.eta])
