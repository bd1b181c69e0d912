"""Connection problem for the radial profile psi on (0, infinity).

The profile solves (rho d_rho)^2 psi = (1/2) rho^2 sinh(2 psi), decays like a
multiple lambda K0(rho) as rho -> infinity, and behaves like
-log(rho^(1/3) sum_j a_j rho^(4j/3)) as rho -> 0.  It is found by one
Newton iteration on a Chebyshev collocation of phi = log psi over
[SERIES_CUT, RHO_TAIL] (Trefethen, Spectral Methods in MATLAB, 2000), with
log a_0 as one more unknown.

The coordinate is xi = log rho + rho, so rho = W(e^xi) (Lambert W): it is
log rho near 0 and rho near the tail, whose relative accuracy sets lambda.
psi > 0 decreases, so phi is smooth there, and with rho d_rho =
(1 + rho) d_xi the equation reads

    (1 + rho)^2 (phi_xixi + phi_xi^2) + rho phi_xi = rho^2 sinh(2 e^phi) / (2 e^phi).

Its rows hold at the n - 1 interior Lobatto points; at SERIES_CUT, phi and
phi_xi meet the N_SERIES-term small-rho series at a_0, and at RHO_TAIL
phi_xi meets the tail's, -rho K1 / ((1 + rho) K0).  Above RHO_TAIL,
lambda K0 <= 6e-9 for lambda <= 10, where (1/2) sinh(2 psi) rounds to psi,
so the linear tail is the float64 solution there, and lambda is read off as
e^phi / K0 at RHO_TAIL.  Newton starts from phi = log(K0(rho)/3), a_0 = 1,
solves one dense system per step, and stops when its update reaches the
roundoff floor (4 steps at the default degree N_SOLVE).  The errors of
lambda and a_0 fall geometrically with the degree, to rounding at N_SOLVE.

The profile is one parameter-free function, so ``solve_connection`` solves
it once per process, at N_SOLVE, and hands every caller the same read-only
``PsiProfile``.

Everything downstream (the fiducial family, the linearized blocks, the glued
approximate solutions) reads psi and its first two log-derivatives through
one evaluator, ``psi_log_derivatives``, on the PsiProfile returned here.  It
uses the small-rho series at and below ``SERIES_CUT``, which keeps the
residual of derived quantities at truncation level even after division by
r^2; quintic Hermite interpolation of psi and of psi_x on N_NODES cells
uniform in xi, filled once from the collocation, up to ``RHO_TAIL``; and
the lambda*K0 tail above it, for every finite rho (it underflows to 0 past
rho ~ 700).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import lambertw

from .errors import NumericalError
from .special import bessel_k0, bessel_k1

DEFAULT_RHO_MIN = 1e-4  # where psi.csv's grid starts
DEFAULT_RHO_MAX = 40.0
RHO_TAIL = 20.0      # above this the lambda*K0 tail is the profile in float64
N_GRID = 8192        # report samples, uniform in x = log rho
N_SOLVE = 80         # Chebyshev degree of the solve in xi = log rho + rho
N_NODES = 1000       # interpolation cells, uniform in xi, filled from the solve
N_SERIES = 8         # small-rho series terms kept with the profile
SERIES_CUT = 0.1     # psi_log_derivatives uses the series for rho <= this
NEWTON_CAP = 12      # Newton steps before the solve raises; a default solve takes 4
NEWTON_FLOOR = 2.0   # Newton stops at an update of NEWTON_FLOOR * n * eps
# rows per formatted string in CSV exports: as fast as one string for the
# whole file, without the 2.4 MB transient that one string costs for psi.csv
CSV_BLOCK_ROWS = 256

# No ODE is integrated any more, but the benchmark's tracer still counts ODE
# solves by wrapping this name (ROADMAP item 1 moves that count onto the
# solve's own diagnostics).  Bound to None, it keeps painleve.ode_solves at 0.
solve_ivp = None

# the profile, once solve_connection has solved it
_SOLVED: PsiProfile | None = None


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


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c[k] x^k, with c[k] a scalar or an array shaped like x, by the
    steps of numpy's ``polyval(x, c, tensor=False)``, acc = c[-1] + x * 0
    and then acc = c[k] + acc * x, so the result is bit for bit polyval's,
    but updating one accumulator in place."""
    acc = c[-1] + x * 0
    for k in range(len(c) - 2, -1, -1):
        acc *= x
        acc += c[k]
    return acc


def _series_eval(coeffs: np.ndarray, rho):
    """psi, psi_x, psi_xx from the series, x = log rho."""
    rho = np.asarray(rho, dtype=float)
    s = rho ** (4.0 / 3.0)
    n = len(coeffs)
    v = _horner(coeffs, s)
    vp = _horner(coeffs[1:] * np.arange(1, n), s)
    vpp = _horner(coeffs[2:] * np.arange(2, n) * np.arange(1, n - 1), s)
    psi = -np.log(rho ** (1.0 / 3.0) * v)
    psi_x = -1.0 / 3.0 - (4.0 / 3.0) * s * vp / v
    psi_xx = -(16.0 / 9.0) * (s * vp / v + s * s * (vpp * v - vp * vp) / (v * v))
    return psi, psi_x, psi_xx


@dataclass(frozen=True, eq=False)
class PsiProfile:
    """Solved profile: its connection constants and its interpolation nodes.

    ``nodes`` has the rows rho, psi, psi_x, psi_xx, psi_xxx (x = log rho) at
    the N_NODES + 1 nodes uniform in xi = log rho + rho on the solve's
    interval [rho_min, RHO_TAIL]: psi = e^phi and psi_x = (1 + rho) psi
    phi_xi from the Chebyshev series of phi, and psi_xx and psi_xxx from
    the equation.  ``series`` holds the small-rho coefficients of
    ``series_coefficients(a0, N_SERIES)``.  ``a0`` and ``lam`` are the
    small-rho coefficient and the tail amplitude.  ``newton_history`` is the
    max-norm of each Newton update (of the Chebyshev coefficients of phi and
    of log a0), and ``match_mismatch`` its last entry.

    ``rho``, ``psi``, ``psi_x`` and ``psi_xx`` sample the profile through
    ``psi_log_derivatives`` on N_GRID points uniform in x on
    [DEFAULT_RHO_MIN, DEFAULT_RHO_MAX], the grid of psi.csv, and
    ``residual_max`` is the max of |psi_xx - (1/2) rho^2 sinh(2 psi)| there.
    Between the nodes that psi_xx is the derivative of the psi_x
    interpolant, not the equation evaluated, so the residual is a measure
    of the solve.

    The profile is shared by every caller of ``solve_connection``, so it is
    frozen and its arrays are read-only.
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
        rho = np.exp(np.linspace(np.log(DEFAULT_RHO_MIN), np.log(DEFAULT_RHO_MAX), N_GRID))
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
        per node cell the coefficients in s = (xi - xi_j) / h of the
        quintic Hermite interpolants of psi and of psi_x."""
        rho, psi, psi_x, psi_xx, psi_xxx = self.nodes
        xi0, xi1 = _xi(rho[[0, -1]])
        h = (xi1 - xi0) / (len(rho) - 1)
        return xi0, h, np.array([_quintic_cells(rho, psi, psi_x, psi_xx, h),
                                 _quintic_cells(rho, psi_x, psi_xx, psi_xxx, h)])


_POWERS = np.arange(1.0, 6.0)[:, None]  # d/ds of sum c_k s^k has coefficients k c_k


def _xi(rho):
    """The solve's coordinate xi = log rho + rho."""
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


def solve_connection() -> PsiProfile:
    """The profile on [SERIES_CUT, RHO_TAIL] at Chebyshev degree N_SOLVE,
    solved once per process by ``_solve_connection`` and kept in ``_SOLVED``,
    which is why it is read-only.  A solve that raises stores nothing."""
    global _SOLVED
    if _SOLVED is None:
        _SOLVED = _solve_connection(SERIES_CUT, N_SOLVE)
    return _SOLVED


def _solve_connection(rho_min: float, n: int) -> PsiProfile:
    """Newton solve of the connection problem by Chebyshev collocation of
    log psi at degree n >= 16 on [rho_min, RHO_TAIL], rho_min in the series'
    range (0, SERIES_CUT].  NumericalError when Newton does not reach its
    roundoff floor within ``NEWTON_CAP`` steps, or when the solution is not
    positive and decreasing."""
    cheb = np.polynomial.chebyshev
    ends = np.array([rho_min, RHO_TAIL])
    xi0, xi1 = _xi(ends)
    scale = 2.0 / (xi1 - xi0)                     # ds / dxi

    def rho_at(s):
        rho = lambertw(np.exp(xi0 + (s + 1.0) / scale)).real
        rho[[0, -1]] = ends
        return rho

    s = -np.cos(np.pi * np.arange(n + 1) / n)     # Lobatto points, ascending
    rho = rho_at(s)
    p2 = (1.0 + rho) ** 2
    # phi, phi_xi and phi_xixi at the points, as matrices on the coefficients
    eye = np.eye(n + 1)
    val = cheb.chebvander(s, n)
    d1 = val[:, :-1] @ cheb.chebder(eye, scl=scale)
    d2 = val[:, :-2] @ cheb.chebder(eye, 2, scl=scale)
    k0_tail = bessel_k0(RHO_TAIL)
    tail_slope = -RHO_TAIL * bessel_k1(RHO_TAIL) / ((1.0 + RHO_TAIL) * k0_tail)
    # the unknowns: the coefficients c of phi = log psi, then log a0.  Rows
    # 1..n-1 are the equation at the interior points; rows 0 and n + 1 match
    # phi and phi_xi to the series at rho_min, row n phi_xi to the tail's
    x = np.r_[np.linalg.solve(val, np.log(bessel_k0(rho) / 3.0)), 0.0]
    jac = np.zeros((n + 2, n + 2))
    jac[[0, -1, -2], :-1] = val[0], d1[0], d1[-1]
    history = []
    for _ in range(NEWTON_CAP):
        c = x[:-1]
        phi, phi_1, phi_2 = val @ c, d1 @ c, d2 @ c
        y = 2.0 * np.exp(phi)
        g = np.sinh(y) / y
        # the series and its log-a0 derivative, by a complex step
        # a0 e^(i 1e-30), which carries no cancellation
        psi, psi_x, _ = _series_eval(series_coefficients(np.exp(x[-1] + 1e-30j), N_SERIES),
                                     rho_min)
        match = np.array([np.log(psi), psi_x / ((1.0 + rho_min) * psi)])
        res = np.r_[phi[0] - match[0].real,
                    (p2 * (phi_2 + phi_1 * phi_1) + rho * phi_1 - rho * rho * g)[1:-1],
                    phi_1[-1] - tail_slope, phi_1[0] - match[1].real]
        jac[1:-2, :-1] = (p2[:, None] * (d2 + 2.0 * phi_1[:, None] * d1) + rho[:, None] * d1
                          - (rho * rho * (np.cosh(y) - g))[:, None] * val)[1:-1]
        jac[[0, -1], -1] = -match.imag / 1e-30
        step = np.linalg.solve(jac, -res)
        x += step
        history.append(float(np.abs(step).max()))
        # the roundoff floor of the update: at most 0.9 n eps measured once
        # converged, for n = 16 to 256 and rho_min = 1e-4 to 0.1
        if history[-1] <= NEWTON_FLOOR * n * np.finfo(float).eps:
            break
    else:
        raise NumericalError(f"Newton did not reach its roundoff floor in {NEWTON_CAP} steps; "
                             f"last update {history[-1]:.3e}")

    c = x[:-1]
    a0 = float(np.exp(x[-1]))
    lam = float(np.exp(cheb.chebval(1.0, c)) / k0_tail)
    s = np.linspace(-1.0, 1.0, N_NODES + 1)
    rho = rho_at(s)
    psi = np.exp(cheb.chebval(s, c))
    psi_x = (1.0 + rho) * psi * cheb.chebval(s, cheb.chebder(c, scl=scale))
    if not ((psi > 0).all() and (psi_x < 0).all()):
        raise NumericalError("profile not positive and decreasing")
    psi_xx = 0.5 * rho * (rho * np.sinh(2.0 * psi))
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
    profile's nodes, of psi (from psi, psi_x, psi_xx) and of psi_x (from
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
        psi[mid] = _horner(of_psi, s)
        psi_x[mid] = _horner(of_psi_x, s)
        slope = _horner(of_psi_x[1:] * _POWERS, s)
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
