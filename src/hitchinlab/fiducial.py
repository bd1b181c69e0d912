"""Rotationally symmetric solution family on the unit disk and its limit.

For parameter t > 0 the pair is determined by two radial functions built from
the profile psi: the exponent h_t(r) = psi((8/3) t r^(3/2)) and the connection
coefficient f_t(r) = 1/8 + (1/4) r h_t'(r).  The singular limit is the same
ansatz with h = 0, so f = 1/8 away from the origin.  All radial derivatives
come from the profile's chain rule, never from differencing h samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import NumericalError
from .painleve import PsiProfile, psi_log_derivatives, write_columns_csv

DEFAULT_GRID_N = 400
DEFAULT_R_MIN = 1e-3
# largest t any solve accepts.  The profile holds for every rho (above
# RHO_TAIL the lambda*K0 tail is its float64 value), so the bound is set by
# accuracy: at t = 1000 the family residual max is 4.9e-8 on default_grid()
# and 4.9e-8 and 5.1e-8 on 4x and 16x refined grids, 20x under criterion
# 02's 1e-6.  It grows like t^(4/3), since at fixed rho it is the profile's
# own residual times 2.25 / (4 r^2) with r^2 ~ (rho / t)^(4/3); the max
# sits at rho ~ 0.101, just above SERIES_CUT.
T_MAX = 1000.0
# largest rounding bound, relative, of f at the samples of its sups
F_ROUNDING_LIMIT = 1e-5


@cache
def default_grid() -> np.ndarray:
    """Geometric radial grid of DEFAULT_GRID_N nodes on [DEFAULT_R_MIN, 1],
    one read-only array per process."""
    r = np.geomspace(DEFAULT_R_MIN, 1.0, DEFAULT_GRID_N)
    r.flags.writeable = False
    return r


def _rho_of(t: float, r: np.ndarray) -> np.ndarray:
    return (8.0 / 3.0) * t * r ** 1.5


def check_t(t: float) -> None:
    """Raise ValueError, naming t, unless tiny <= t <= T_MAX: the one validity
    range in t of every solve that reads the profile on the disk.  Below the
    smallest normal float tiny, rho = (8/3) t r^(3/2) can underflow to 0."""
    tiny = float(np.finfo(float).tiny)
    if not tiny <= t <= T_MAX:
        # repr, not :g, so that a t just above T_MAX does not print as T_MAX
        raise ValueError(f"t={float(t)!r} outside the validity range "
                         f"tiny = {tiny!r} <= t <= T_MAX = {T_MAX:g}")


def curvature_residual(t: float, r: np.ndarray, h: np.ndarray, r_d2h: np.ndarray) -> np.ndarray:
    """((r d_r)^2 h - 8 t^2 r^3 sinh(2h)) / (4 r^2), the curvature equation
    (1/r) d_r f - 2 t^2 r sinh(2h) with f = 1/8 + (1/4) r d_r h, from samples
    of h and of (r d_r)^2 h."""
    return (r_d2h - 8.0 * t * t * r ** 3 * np.sinh(2.0 * h)) / (4.0 * r * r)


@dataclass(eq=False)
class FiducialFamily:
    """Radial data of a pair of the radial ansatz on a grid in (0, 1].

    ``r_dh`` is r d_r h and ``r_d2h`` is (r d_r)^2 h; the connection
    coefficient ``f`` = 1/8 + (1/4) r d_r h and its derivative ``df`` =
    (r d_r)^2 h / (4 r) are derived from them here and nowhere else.  The
    family at t carries the profile's chain-rule samples, the glued state
    the cut exponent, and the limit (t = inf) h = 0.
    """

    t: float
    r: np.ndarray
    h: np.ndarray
    r_dh: np.ndarray
    r_d2h: np.ndarray = field(repr=False)
    profile: PsiProfile | None = field(repr=False, default=None)

    @property
    def f(self) -> np.ndarray:
        return 0.125 + 0.25 * self.r_dh

    @property
    def df(self) -> np.ndarray:
        return self.r_d2h / (4.0 * self.r)

    def dh(self) -> np.ndarray:
        """d_r h on the grid."""
        return self.r_dh / self.r

    def residual(self) -> np.ndarray:
        """|(1/r) d_r f - 2 t^2 r sinh(2h)| pointwise on the grid, the one
        residual of a pair of the ansatz.  The limit has none: at t = inf the
        curvature equation splits, and its pair is checked through its orbit
        (``gauge.verify_orbit_limiting``)."""
        if math.isinf(self.t):
            raise ValueError("t=inf: the limiting family has no curvature residual")
        return np.abs(curvature_residual(self.t, self.r, self.h, self.r_d2h))


def build_family(t: float, profile: PsiProfile, grid: np.ndarray | None = None) -> FiducialFamily:
    """h_t, r d_r h_t and (r d_r)^2 h_t at parameter t, by the profile's chain rule.

    h_t(r) = psi(rho) with rho = (8/3) t r^(3/2), so r d_r = (3/2) rho d_rho.
    Raises ValueError, with the message of ``check_t``, which names t, when
    t is outside the validity range, whatever the grid.
    """
    check_t(t)
    r = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if (r.ndim != 1 or not r.size or np.any(r <= 0) or np.any(np.diff(r) <= 0)
            or r[-1] > 1.0 + 1e-12):
        raise ValueError("grid must be strictly increasing in (0, 1]")
    psi, psi_x, psi_xx = psi_log_derivatives(profile, _rho_of(t, r))
    return FiducialFamily(t=t, r=r, h=psi, r_dh=1.5 * psi_x, r_d2h=2.25 * psi_xx,
                          profile=profile)


@dataclass(eq=False)
class DiskPair:
    """Sampled pair on a polar grid.

    ``phi`` holds the 2x2 coefficient of the field against dz at each
    (r, theta) sample.  ``alpha`` is the dzbar-coefficient matrix of the
    (0,1)-part of the connection, kept alongside so gauge transformations can
    act on pairs that are no longer of the radial diagonal shape.
    """

    r: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    alpha: np.ndarray


@cache
def theta_grid(n: int) -> np.ndarray:
    """n equispaced angles on [0, 2 pi), the one angular grid of every pair;
    one read-only array per n."""
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    theta.flags.writeable = False
    return theta


def _stack2x2(lead: tuple, zeroed: bool = False, dtype=complex) -> np.ndarray:
    """A (*lead, 2, 2) stack of 2x2 matrices stored entry-major.

    It is a view of a C-contiguous (2, 2, *lead) array, so each matrix entry
    is one contiguous plane and the entry-by-entry arithmetic of the gauge
    layer runs on unit strides.  Elementwise ufuncs allocate in order K, so
    their results keep this layout.  Every stack of pairs and gauges is
    allocated here.
    """
    alloc = np.zeros if zeroed else np.empty
    # transpose makes the view moveaxis would, without its argument checks
    return alloc((2, 2, *lead), dtype=dtype).transpose(*range(2, 2 + len(lead)), 0, 1)


def _alpha_from_scalar(a: np.ndarray, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """dzbar-coefficient of a diag(1,-1) (dz/z - dzbar/zbar) with scalar a(r)."""
    coeff = -a[:, None] * np.exp(1j * theta)[None, :] / r[:, None]
    alpha = _stack2x2((len(r), len(theta)), zeroed=True)
    alpha[..., 0, 0] = coeff
    alpha[..., 1, 1] = -coeff
    return alpha


def make_disk_pair(family: FiducialFamily, n_theta: int) -> DiskPair:
    """The pair sampled from the family on its radial grid: connection
    f diag(1,-1) (dz/z - dzbar/zbar), field [[0, r^(1/2) e^h], [r^(1/2)
    e^-h e^(i theta), 0]].  A family at t = inf gives the limiting pair."""
    r, theta = family.r, theta_grid(n_theta)
    eh = np.exp(family.h)
    phi = _stack2x2((len(r), n_theta), zeroed=True)
    phi[..., 0, 1] = (np.sqrt(r) * eh)[:, None]
    phi[..., 1, 0] = (np.sqrt(r) / eh)[:, None] * np.exp(1j * theta)[None, :]
    return DiskPair(r=r, theta=theta, phi=phi, alpha=_alpha_from_scalar(family.f, r, theta))


def limiting_family(r: np.ndarray | None = None) -> FiducialFamily:
    """The singular limit as the family at t = inf: h = 0, so f = 1/8."""
    r = default_grid() if r is None else np.asarray(r, dtype=float)
    zero = np.zeros_like(r)
    return FiducialFamily(t=math.inf, r=r, h=zero, r_dh=zero, r_d2h=zero)


def limiting_pair(r: np.ndarray | None = None, n_theta: int = 256) -> DiskPair:
    """The pair of the limiting family."""
    return make_disk_pair(limiting_family(r), n_theta)


def fitted_log_offset(family: FiducialFamily) -> float:
    """Constant b0 in h ~ -(1/2) log r + b0 near the origin, fitted from the
    8 innermost grid points.  The series psi ~ -log(a0 rho^(1/3)) gives
    b0 = -(1/3) log(8t/3) - log a0, which the fit misses by the series' next
    order there (2.4e-7 at t = 0.5, 2.4e-5 at t = 16 on the default grid).
    """
    probe = family.h[:8] + 0.5 * np.log(family.r[:8])
    return float(np.mean(probe))


def _f_sups(family: FiducialFamily) -> tuple[float, float]:
    """Suprema of f/r and f/r^2 over the family's grid.  NumericalError,
    naming t, where f = 1/8 + (1/4) r d_r h has cancelled at a sample where
    either is attained: its rounding bound eps (1/8 + |r d_r h| / 4) / |f|
    there exceeds F_ROUNDING_LIMIT."""
    over_r, over_r2 = family.f / family.r, family.f / family.r ** 2
    at = np.array([over_r.argmax(), over_r2.argmax()])
    f, r_dh = np.abs(family.f[at]), np.abs(family.r_dh[at])
    with np.errstate(divide="ignore"):  # f = 0 has no digit: an infinite bound
        rounding = float(np.max(np.finfo(float).eps * (0.125 + 0.25 * r_dh) / f))
    if rounding > F_ROUNDING_LIMIT:
        raise NumericalError(f"t={float(family.t)!r}: f = 1/8 + (1/4) r d_r h cancels where "
                             f"its sups are attained: rounding bound {rounding:.1e} above "
                             f"{F_ROUNDING_LIMIT:g}")
    return float(over_r[at[0]]), float(over_r2[at[1]])


def verify_f_bounds(family: FiducialFamily) -> dict:
    """Suprema of f/r and f/r^2 with their t-normalized values, times
    t^(-2/3) and t^(-4/3).  NumericalError, naming t, in two cases.

    f = 1/8 + (1/4) r d_r h cancels as t -> 0, where r d_r h -> -1/2, so
    its rounding bound grows: 2.1e-10 at t = 1, 2.1e-6 at t = 1e-3,
    1.9e-2 at t = 1e-6, and f is exactly 0 on the default grid for
    t <= 1e-15.  A sup whose sample carries a bound above F_ROUNDING_LIMIT
    raises (``_f_sups``), which on the default grid holds below t = 2.9e-4.
    So does t^(-2/3) or t^(-4/3) without a float64 value (t^(-4/3)
    overflows for t below about 6.4e-232).
    """
    t = family.t
    sup1, sup2 = _f_sups(family)
    try:
        # a Python float raises OverflowError where a numpy one would give inf
        scale1, scale2 = float(t) ** (-2.0 / 3.0), float(t) ** (-4.0 / 3.0)
    except OverflowError as exc:
        raise NumericalError(f"t={float(t)!r}: t^(-2/3) or t^(-4/3) has no "
                             "float64 value") from exc
    return {
        "t": t,
        "sup_f_over_r": sup1,
        "sup_f_over_r2": sup2,
        "normalized_sup_f_over_r": sup1 * scale1,
        "normalized_sup_f_over_r2": sup2 * scale2,
    }


def phi_sup_bound(family: FiducialFamily) -> float:
    """sup over the grid of the Frobenius norm of the field coefficient."""
    return float(np.sqrt(2.0 * family.r * np.cosh(2.0 * family.h)).max())


def convergence_rate(profile: PsiProfile, t_list, r0: float):
    """Fit log sup_{r >= r0} (|f - 1/8| + |h|) against t on the default grid.

    Returns (delta_hat, r_squared, intercept) where the fitted slope is
    -delta_hat.  Requires at least three t values.
    """
    t_list = [float(t) for t in t_list]
    if len(t_list) < 3:
        raise ValueError("need at least 3 values of t for the decay fit")
    norms = []
    for t in t_list:
        fam = build_family(t, profile)
        sel = fam.r >= r0
        norms.append(float((np.abs(fam.f[sel] - 0.125) + np.abs(fam.h[sel])).max()))
    delta, intercept, r2 = decay_fit(t_list, norms)
    return delta, r2, intercept


def decay_fit(t_list, norms):
    """Least-squares fit log norms = intercept - delta t.

    Returns (delta, intercept, r_squared).  A norm that is not finite and
    positive has no logarithm and raises NumericalError naming the first
    such t.  So do norms that do not vary, which leave R^2 undefined, and a
    norm that, with the points taken in increasing t, does not fall below
    its predecessor's: the norms have met a floor (the glued residual
    flattens at about 1.05e-12 from t ~ 27), where a fitted rate means
    nothing, and the message names the t.
    """
    for t, norm in zip(t_list, norms):
        if not (math.isfinite(norm) and norm > 0):
            raise NumericalError(f"decay fit: the norm at t={t:g} is {norm!r}, "
                                 "not finite and positive")
    y = np.log(norms)
    slope, intercept = np.polyfit(t_list, y, 1)
    fitted = np.polyval([slope, intercept], t_list)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0:
        raise NumericalError("degenerate decay fit: norms do not vary")
    points = sorted(zip(t_list, norms))
    for (t0, norm0), (t1, norm1) in zip(points, points[1:]):
        if t1 > t0 and not norm1 < norm0:
            raise NumericalError(f"decay fit at a floor: the norm at t={t1:g} ({norm1:.3e}) "
                                 f"does not fall below the one at t={t0:g} ({norm0:.3e})")
    return -float(slope), float(intercept), 1.0 - ss_res / ss_tot


def family_summary(family: FiducialFamily) -> dict:
    """The family's row of the fiducial report; it skips ``verify_f_bounds``'
    t-normalized values, which overflow at a tiny t.  Where f has cancelled
    at a sup's sample (``_f_sups``) both sups are None: no digit of them is
    known, and the row is still written."""
    try:
        sup1, sup2 = _f_sups(family)
    except NumericalError:
        sup1 = sup2 = None
    return {
        "t": family.t,
        "sup_f_over_r": sup1,
        "sup_f_over_r2": sup2,
        "phi_sup": phi_sup_bound(family),
        "residual_max": float(family.residual().max()),
    }


def export_family_csv(family: FiducialFamily, path) -> None:
    """Columns r, h, f, df, residual with 17 significant digits."""
    write_columns_csv(path, "r,h,f,df,residual",
                      [family.r, family.h, family.f, family.df, family.residual()])
