"""Connection problem for the radial profile psi on (0, infinity).

The profile solves (rho d_rho)^2 psi = (1/2) rho^2 sinh(2 psi), decays like a
multiple lambda K0(rho) as rho -> infinity, and behaves like
-log(rho^(1/3) sum_j a_j rho^(4j/3)) as rho -> 0.  It is found by one global
Newton iteration on a fourth-order Numerov discretization of the whole
interval [rho_min, RHO_TAIL], with a_0 and lambda as two bordering unknowns.

The grid is uniform in xi = log rho + rho, so rho = W(e^xi) (Lambert W): it
is uniform in log rho near 0 and uniform in rho near the tail, whose relative
accuracy sets lambda.  (Uniform in log rho, the same scheme gets lambda only
to 7e-7 at 2000 nodes.)  In Liouville form, psi = u / sqrt(1 + rho), the
equation has no first-derivative term,

    u_xixi = (1/2) rho^2 (1 + rho)^(-3/2) sinh(2 u / sqrt(1 + rho))
             + (1/2) rho (1 - rho/2) (1 + rho)^(-4) u,

so Numerov applies.  The first two nodes take the N_SERIES-term small-rho
series at a_0 and the last two the tail lambda K0; above RHO_TAIL,
lambda K0 <= 6e-9 for lambda <= 10, where (1/2) sinh(2 psi) rounds to psi, so
the linear tail is the float64 solution there.  Newton starts from
psi = K0(rho)/3, a_0 = 1, lambda = 1/3, solves its tridiagonal block by
banded LU and the two border unknowns by Schur complement, and stops when
its update reaches the roundoff floor of the discrete problem (4 steps at
the default n).  The lambda error falls like n^-4.

The profile is one parameter-free function, so ``solve_connection`` solves
it once per process and argument set and hands every caller the same
read-only ``PsiProfile``.

Everything downstream (the fiducial family, the linearized blocks, the glued
approximate solutions) reads psi and its first two log-derivatives through
one evaluator, ``psi_log_derivatives``, on the PsiProfile returned here.  It
uses the small-rho series at and below ``SERIES_CUT``, which keeps the
residual of derived quantities at truncation level even after division by
r^2; quintic Hermite interpolation, on the Numerov nodes, of psi and of
psi_x up to ``RHO_TAIL``; and the lambda*K0 tail above it, for every finite
rho (it underflows to 0 past rho ~ 700).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import lambertw

from .errors import NumericalError
from .special import bessel_k0, bessel_k1

DEFAULT_RHO_MIN = 1e-4
DEFAULT_RHO_MAX = 40.0
RHO_TAIL = 20.0      # above this the lambda*K0 tail is the profile in float64
N_GRID = 8192        # report samples, uniform in x = log rho
N_SOLVE = 8000       # Numerov cells, uniform in xi = log rho + rho
N_SERIES = 8         # small-rho series terms kept with the profile
SERIES_CUT = 0.1     # psi_log_derivatives uses the series for rho <= this
NEWTON_CAP = 12      # Newton steps before the solve raises; a default solve takes 4
NEWTON_FLOOR = 2.0   # Newton stops at an update of NEWTON_FLOOR * n * eps * max|u|
# rows per formatted string in CSV exports: as fast as one string for the
# whole file, without the 2.4 MB transient that one string costs for psi.csv
CSV_BLOCK_ROWS = 256

# No ODE is integrated any more, but the benchmark's tracer still counts ODE
# solves by wrapping this name (ROADMAP item 1 moves that count onto the
# solve's own diagnostics).  Bound to None, it keeps painleve.ode_solves at 0.
solve_ivp = None

# solved profiles by (rho_min, n); see solve_connection
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
    """Solved profile: its connection constants and its Numerov nodes.

    ``nodes`` has the rows rho, psi, psi_x, psi_xx, psi_xxx (x = log rho) at
    the n + 1 Numerov nodes, uniform in xi = log rho + rho on
    [rho_min, RHO_TAIL]: psi is the solve's, psi_x its backward quadrature
    from the tail's value at RHO_TAIL, and psi_xx and psi_xxx follow from
    the equation.  ``series`` holds the small-rho coefficients of
    ``series_coefficients(a0, N_SERIES)``.  ``a0`` and ``lam`` are the
    small-rho coefficient and the tail amplitude.  ``newton_history`` is the
    max-norm of each Newton update (of u, log a0 and log lambda), and
    ``match_mismatch`` its last entry.

    ``rho``, ``psi``, ``psi_x`` and ``psi_xx`` sample the profile through
    ``psi_log_derivatives`` on N_GRID points uniform in x on
    [rho_min, DEFAULT_RHO_MAX], the grid of psi.csv, and ``residual_max`` is
    the max of |psi_xx - (1/2) rho^2 sinh(2 psi)| there.  Between the nodes
    that psi_xx is the derivative of the psi_x interpolant, not the equation
    evaluated, so the residual is a measure of the solve.

    A profile is shared by every caller of ``solve_connection`` with the
    same arguments, so it is frozen and its arrays are read-only.
    """

    a0: float
    lam: float
    match_mismatch: float
    nodes: np.ndarray = field(repr=False)
    series: np.ndarray = field(repr=False)
    newton_history: tuple

    def __post_init__(self):
        for samples in (self.nodes, self.series):
            samples.flags.writeable = False

    @cached_property
    def rho(self) -> np.ndarray:
        rho = np.exp(np.linspace(np.log(self.nodes[0, 0]), np.log(DEFAULT_RHO_MAX), N_GRID))
        rho.flags.writeable = False
        return rho

    @cached_property
    def _samples(self) -> np.ndarray:
        samples = np.array(psi_log_derivatives(self, self.rho))
        samples.flags.writeable = False
        return samples

    @property
    def psi(self) -> np.ndarray:
        return self._samples[0]

    @property
    def psi_x(self) -> np.ndarray:
        return self._samples[1]

    @property
    def psi_xx(self) -> np.ndarray:
        return self._samples[2]

    @cached_property
    def residual_max(self) -> float:
        rho, (psi, _, psi_xx) = self.rho, self._samples
        return float(np.abs(psi_xx - 0.5 * rho * (rho * np.sinh(2.0 * psi))).max())

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
    def _quintic(self):
        """(xi_0, h, table): table[0] and table[1], each of shape (6, n), hold
        per Numerov cell the coefficients in s = (xi - xi_j) / h of the
        quintic Hermite interpolants of psi and of psi_x."""
        rho, psi, psi_x, psi_xx, psi_xxx = self.nodes
        xi0, xi1 = _xi(rho[[0, -1]])
        h = (xi1 - xi0) / (len(rho) - 1)
        return xi0, h, np.array([_quintic_cells(rho, psi, psi_x, psi_xx, h),
                                 _quintic_cells(rho, psi_x, psi_xx, psi_xxx, h)])


_POWERS = np.arange(1.0, 6.0)[:, None]  # d/ds of sum c_k s^k has coefficients k c_k


def _xi(rho):
    """The Numerov coordinate xi = log rho + rho."""
    return np.log(rho) + rho


def _quintic_cells(rho, z, z_x, z_xx, h) -> np.ndarray:
    """Coefficients in s = (xi - xi_j) / h, shape (6, n), of the quintic
    Hermite interpolant on each cell [xi_j, xi_(j+1)] of a function z given
    with its x-derivatives at the nodes; d/dx = (1 + rho) d/dxi."""
    p = 1.0 + rho
    d = h * z_x / p                                  # h z_xi
    s = h * h * (z_xx - rho * z_x / p) / (p * p)     # h^2 z_xixi
    dz, d0, d1, s0, s1 = z[1:] - z[:-1], d[:-1], d[1:], s[:-1], s[1:]
    return np.array([z[:-1], d0, 0.5 * s0,
                     10.0 * dz - 6.0 * d0 - 4.0 * d1 - 1.5 * s0 + 0.5 * s1,
                     -15.0 * dz + 8.0 * d0 + 7.0 * d1 + 1.5 * s0 - s1,
                     6.0 * dz - 3.0 * (d0 + d1) - 0.5 * (s0 - s1)])


def _tail_eval(lam, rho):
    """psi, psi_x, psi_xx of the lambda*K0 tail at rho.

    psi_xx is (1/2) rho^2 sinh(2 psi), the profile equation itself; it
    equals rho^2 psi, the tail's own second log-derivative, wherever
    (1/2) sinh(2 psi) rounds to psi, as it does above ``RHO_TAIL``.  rho
    multiplies one factor at a time, so where psi has underflowed to 0 the
    product is 0 for every finite rho, not inf * 0.
    """
    psi = lam * bessel_k0(rho)
    return psi, -lam * rho * bessel_k1(rho), 0.5 * rho * (rho * np.sinh(2.0 * psi))


def solve_connection(rho_min: float = DEFAULT_RHO_MIN, n: int = N_SOLVE) -> PsiProfile:
    """Global Newton solve of the connection problem on [rho_min, RHO_TAIL]
    with n Numerov cells, once per process and argument set.

    ``rho_min`` must lie within the series' range, (0, SERIES_CUT], and n
    be an integer of at least 16.  Raises NumericalError when Newton does
    not reach its roundoff floor within ``NEWTON_CAP`` steps, or when the
    solution is not positive and decreasing.

    The result is kept in ``_SOLVED`` under (rho_min, n), which is why it
    is read-only.  A solve that raises stores nothing.
    """
    if not 0 < rho_min <= SERIES_CUT:
        raise ValueError(f"need 0 < rho_min <= SERIES_CUT = {SERIES_CUT}, the series' range")
    if not (float(n).is_integer() and n >= 16):
        raise ValueError("n must be an integer of at least 16")
    key = (float(rho_min), int(n))
    if key not in _SOLVED:
        _SOLVED[key] = _solve_connection(*key)
    return _SOLVED[key]


def _solve_connection(rho_min: float, n: int) -> PsiProfile:
    """``solve_connection`` without the memo or the argument checks."""
    ends = np.array([rho_min, RHO_TAIL])
    xi = np.linspace(*_xi(ends), n + 1)
    h = (xi[-1] - xi[0]) / n
    rho = lambertw(np.exp(xi)).real
    rho[[0, -1]] = ends
    p = 1.0 + rho
    sq = np.sqrt(p)
    amp = 0.5 * rho * rho / (p * sq)
    pot = 0.5 * rho * (1.0 - 0.5 * rho) / p ** 4
    c = h * h / 12.0
    k0_tail = sq[-2:] * bessel_k0(rho[-2:])  # u at the last two nodes per unit lambda
    u = sq * bessel_k0(rho) / 3.0
    log_p = np.array([0.0, np.log(1.0 / 3.0)])  # (log a0, log lambda)

    def set_ends():
        """Put the series at a0 and the tail at lambda on the end nodes;
        return the log-a0 derivative of the two series nodes, taken by a
        complex step a0 e^(i 1e-30), which carries no cancellation."""
        a0, lam = np.exp(log_p)
        psi = _series_eval(series_coefficients(a0 * np.exp(1e-30j), N_SERIES), rho[:2])[0]
        u[:2] = sq[:2] * psi.real
        u[-2:] = lam * k0_tail
        return sq[:2] * psi.imag / 1e-30

    history = []
    for _ in range(NEWTON_CAP):
        u_a = set_ends()
        z = 2.0 * u / sq
        f = amp * np.sinh(z) + pot * u
        cf_u = c * (2.0 * amp / sq * np.cosh(z) + pot)
        side, diag = 1.0 - cf_u, -2.0 - 10.0 * cf_u  # d res_i / d u_(i +- 1), d u_i
        res = u[:-2] - 2.0 * u[1:-1] + u[2:] - c * (f[:-2] + 10.0 * f[1:-1] + f[2:])
        # rows 2..n-2 in u_2..u_(n-2); log a0 enters them through u_1 and
        # log lambda through u_(n-1)
        band = np.array([np.r_[0.0, side[3:-2]], diag[2:-2], np.r_[side[2:-3], 0.0]])
        cols = np.zeros((n - 3, 3))
        cols[:, 0] = -res[1:-1]
        cols[0, 1] = side[1] * u_a[1]
        cols[-1, 2] = side[-2] * u[-2]
        sol = solve_banded((1, 1), band, cols, check_finite=False)
        # rows 1 and n-1 close the system: the Schur complement in (log a0, log lambda)
        schur = [[side[0] * u_a[0] + diag[1] * u_a[1] - side[2] * sol[0, 1], -side[2] * sol[0, 2]],
                 [-side[-3] * sol[-1, 1], diag[-2] * u[-2] + side[-1] * u[-1] - side[-3] * sol[-1, 2]]]
        step_p = np.linalg.solve(schur, [-res[0] - side[2] * sol[0, 0], -res[-1] - side[-3] * sol[-1, 0]])
        step_u = sol[:, 0] - sol[:, 1:] @ step_p
        u[2:-2] += step_u
        log_p += step_p
        history.append(float(max(np.abs(step_u).max(), np.abs(step_p).max())))
        # the roundoff floor of the update: each residual row rounds at
        # about eps |u|, and the discrete Green's function gains a factor
        # growing like n on it (0.4 n eps max|u| at most, measured for
        # n = 16 to 32000 and rho_min = 1e-4 to 0.1)
        if history[-1] <= NEWTON_FLOOR * n * np.finfo(float).eps * np.abs(u).max():
            break
    else:
        raise NumericalError(f"Newton did not reach its roundoff floor in {NEWTON_CAP} steps; "
                             f"last update {history[-1]:.3e}")
    set_ends()

    a0, lam = (float(v) for v in np.exp(log_p))
    psi = u / sq
    psi_xx = 0.5 * rho * (rho * np.sinh(2.0 * psi))
    # psi_x from the tail's exact value at RHO_TAIL, less the fourth-order
    # cell integrals of d psi_x / d xi = psi_xx / (1 + rho), summed from the
    # tail: a smooth quadrature, where differencing psi would round at
    # eps / h per node, and relatively accurate in the tail
    y = psi_xx / p
    cells = np.empty(n)
    cells[1:-1] = 13.0 * (y[1:-2] + y[2:-1]) - (y[:-3] + y[3:])
    cells[0] = 9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]
    cells[-1] = 9.0 * y[-1] + 19.0 * y[-2] - 5.0 * y[-3] + y[-4]
    psi_x = _tail_eval(lam, RHO_TAIL)[1] - np.r_[np.cumsum(cells[::-1] * (h / 24.0))[::-1], 0.0]
    if not ((psi > 0).all() and (psi_x < 0).all()):
        raise NumericalError("profile not positive and decreasing")
    psi_xxx = 2.0 * psi_xx + rho * (rho * np.cosh(2.0 * psi)) * psi_x
    return PsiProfile(
        a0=a0,
        lam=lam,
        match_mismatch=history[-1],
        nodes=np.array([rho, psi, psi_x, psi_xx, psi_xxx]),
        series=series_coefficients(a0, N_SERIES),
        newton_history=tuple(history),
    )


def psi_log_derivatives(profile: PsiProfile, rho):
    """(psi, psi_x, psi_xx) at rho, x = log rho: the one evaluator of psi.

    Up to ``SERIES_CUT``, which covers every rho below the grid, the small-rho
    series; up to ``RHO_TAIL``, the quintic Hermite interpolants, on the
    Numerov nodes, of psi (from psi, psi_x, psi_xx) and of psi_x (from
    psi_x, psi_xx, psi_xxx), with psi_xx the latter's derivative; above it,
    the lambda*K0 tail.  The series branch keeps residual-grade quantities
    division-safe: there every returned value carries only series
    truncation error, so combinations like psi_xx - (1/2) rho^2 sinh(2 psi)
    vanish to ~1e-15 even after amplification by 1/r^2 in radial
    coordinates.  Raises ValueError for rho that is not finite and positive.
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
        r = rho_arr[mid]
        xi0, h, table = profile._quintic
        t = (_xi(r) - xi0) / h
        j = np.minimum(t.astype(np.intp), table.shape[-1] - 1)
        s = t - j
        of_psi, of_psi_x = table[:, :, j]
        psi[mid] = np.polynomial.polynomial.polyval(s, of_psi, tensor=False)
        psi_x[mid] = np.polynomial.polynomial.polyval(s, of_psi_x, tensor=False)
        slope = np.polynomial.polynomial.polyval(s, of_psi_x[1:] * _POWERS, tensor=False)
        psi_xx[mid] = (1.0 + r) * slope / h
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
