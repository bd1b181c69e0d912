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

import numpy as np

from .errors import NumericalError
from .painleve import PsiProfile, psi_log_derivatives

DEFAULT_GRID_N = 400
DEFAULT_R_MIN = 1e-3


def default_grid(n: int = DEFAULT_GRID_N, r_min: float = DEFAULT_R_MIN) -> np.ndarray:
    """Geometric radial grid on [r_min, 1]."""
    return np.geomspace(r_min, 1.0, n)


def _rho_of(t: float, r: np.ndarray) -> np.ndarray:
    return (8.0 / 3.0) * t * r ** 1.5


def check_rho_range(t: float, profile: PsiProfile, r_edge: float = 1.0) -> None:
    """Raise ValueError unless rho = (8/3) t r_edge^(3/2) is at most 2 rho_max.

    This is the one validity range in t for every solve that reads the
    profile on the disk: with the default rho_max = 40 it admits t <= 30 at
    r_edge = 1.
    """
    rho_edge = _rho_of(t, r_edge)
    if not rho_edge <= 2.0 * profile.rho_max:
        raise ValueError(
            f"t={t:g}: rho={rho_edge:.3g} beyond profile range; choose grid and t consistently"
        )


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
        """|(1/r) d_r f - 2 t^2 r sinh(2h)| pointwise on the grid."""
        return np.abs(curvature_residual(self.t, self.r, self.h, self.r_d2h))


def build_family(t: float, profile: PsiProfile, grid: np.ndarray | None = None) -> FiducialFamily:
    """h_t, r d_r h_t and (r d_r)^2 h_t at parameter t, by the profile's chain rule.

    h_t(r) = psi(rho) with rho = (8/3) t r^(3/2), so r d_r = (3/2) rho d_rho.
    Raises ValueError when the rho range required by (t, grid) leaves the
    profile's validity range on the large-rho side, with the message of
    ``check_rho_range`` at the largest radius, which names t.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    r = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if np.any(r <= 0) or np.any(np.diff(r) <= 0) or r[-1] > 1.0 + 1e-12:
        raise ValueError("grid must be strictly increasing in (0, 1]")
    check_rho_range(t, profile, r[-1])
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
    kind: str
    family: FiducialFamily | None = field(repr=False, default=None)


def _alpha_from_scalar(a: np.ndarray, r: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """dzbar-coefficient of a diag(1,-1) (dz/z - dzbar/zbar) with scalar a(r)."""
    coeff = -a[:, None] * np.exp(1j * theta)[None, :] / r[:, None]
    alpha = np.zeros((len(r), len(theta), 2, 2), dtype=complex)
    alpha[..., 0, 0] = coeff
    alpha[..., 1, 1] = -coeff
    return alpha


def make_disk_pair(family: FiducialFamily, n_theta: int = 256) -> DiskPair:
    """The pair sampled from the family on its radial grid: connection
    f diag(1,-1) (dz/z - dzbar/zbar), field [[0, r^(1/2) e^h], [r^(1/2)
    e^-h e^(i theta), 0]].  A family at t = inf gives the limiting pair."""
    r, theta = family.r, np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    eh = np.exp(family.h)
    phi = np.zeros((len(r), n_theta, 2, 2), dtype=complex)
    phi[..., 0, 1] = (np.sqrt(r) * eh)[:, None]
    phi[..., 1, 0] = (np.sqrt(r) / eh)[:, None] * np.exp(1j * theta)[None, :]
    return DiskPair(
        r=r, theta=theta, phi=phi,
        alpha=_alpha_from_scalar(family.f, r, theta),
        kind="limiting" if math.isinf(family.t) else "finite-t", family=family,
    )


def limiting_pair(r: np.ndarray | None = None, n_theta: int = 256) -> DiskPair:
    """The singular limit: the pair of the h = 0 family, so f = 1/8."""
    r = default_grid() if r is None else np.asarray(r, dtype=float)
    zero = np.zeros_like(r)
    return make_disk_pair(FiducialFamily(t=math.inf, r=r, h=zero, r_dh=zero, r_d2h=zero),
                          n_theta)


def hitchin_residual(pair: DiskPair, t: float | None = None) -> float:
    """Max-norm residual of the reduced equations for a sampled pair.

    Finite-t pairs report max |(1/r) d_r f - 2 t^2 r sinh(2h)| plus the
    holomorphicity component, which vanishes identically for the radial
    ansatz since f = 1/8 + (1/4) r d_r h by construction.  Limiting pairs
    report the three decoupled residuals (flatness, normality,
    holomorphicity), each of which is a closed form.
    """
    if pair.kind == "limiting":
        # curvature of the constant-coefficient diagonal connection is zero;
        # normality and holomorphicity are checked numerically on samples
        r, theta = pair.r, pair.theta
        phi = pair.phi
        phis = np.conj(np.swapaxes(phi, -1, -2))
        normality = np.abs(phi @ phis - phis @ phi).max()
        # dbar phi + [alpha, phi] with dbar(sqrt r) = e^{i th}/(4 sqrt r) etc.
        e = np.exp(1j * theta)[None, :]
        sr = np.sqrt(r)[:, None]
        # [alpha, phi]_{12} = 2 alpha_11 phi_12 and [alpha, phi]_{21} = -2 alpha_11 phi_21
        d12 = 0.25 * e / sr + 2.0 * pair.alpha[..., 0, 0] * phi[..., 0, 1]
        d21 = -0.25 * e * e / sr - 2.0 * pair.alpha[..., 0, 0] * phi[..., 1, 0]
        holo = max(np.abs(d12).max(), np.abs(d21).max())
        return float(max(normality, holo, 0.0))
    fam = pair.family
    if fam is None:
        raise ValueError("finite-t pair carries no family data")
    t = fam.t if t is None else t
    curvature_part = fam.residual().max()
    # dbar component: e^h r^{-1/2} (1/4 + (1/2) r d_r h - 2 f) and its mirror
    gap = 0.25 + 0.5 * fam.r_dh - 2.0 * fam.f
    holo = np.abs(gap) * np.exp(np.abs(fam.h)) / np.sqrt(fam.r)
    return float(max(curvature_part, holo.max()))


def fitted_log_offset(family: FiducialFamily, n_points: int = 8) -> float:
    """Numerical constant b0 in h ~ -(1/2) log r + b0 near the origin.

    Fitted from the innermost grid points; no closed form is asserted.
    """
    probe = family.h[:n_points] + 0.5 * np.log(family.r[:n_points])
    return float(np.mean(probe))


def verify_f_bounds(family: FiducialFamily) -> dict:
    """Suprema of f/r and f/r^2 with their t-normalized values."""
    t = family.t
    sup1 = float((family.f / family.r).max())
    sup2 = float((family.f / family.r ** 2).max())
    return {
        "t": t,
        "sup_f_over_r": sup1,
        "sup_f_over_r2": sup2,
        "normalized_sup_f_over_r": sup1 * t ** (-2.0 / 3.0),
        "normalized_sup_f_over_r2": sup2 * t ** (-4.0 / 3.0),
    }


def phi_sup_bound(family: FiducialFamily) -> float:
    """sup over the grid of the Frobenius norm of the field coefficient."""
    return float(np.sqrt(2.0 * family.r * np.cosh(2.0 * family.h)).max())


def convergence_rate(profile: PsiProfile, t_list, r0: float,
                     grid: np.ndarray | None = None):
    """Fit log sup_{r >= r0} (|f - 1/8| + |h|) against t.

    Returns (delta_hat, r_squared, intercept) where the fitted slope is
    -delta_hat.  Requires at least three t values.
    """
    t_list = [float(t) for t in t_list]
    if len(t_list) < 3:
        raise ValueError("need at least 3 values of t for the decay fit")
    norms = []
    for t in t_list:
        fam = build_family(t, profile, grid)
        sel = fam.r >= r0
        norms.append(float((np.abs(fam.f[sel] - 0.125) + np.abs(fam.h[sel])).max()))
    delta, intercept, r2 = decay_fit(t_list, norms)
    return delta, r2, intercept


def decay_fit(t_list, norms):
    """Least-squares fit log norms = intercept - delta t.

    Returns (delta, intercept, r_squared); norms that do not vary leave R^2
    undefined and raise NumericalError.
    """
    y = np.log(norms)
    slope, intercept = np.polyfit(t_list, y, 1)
    fitted = np.polyval([slope, intercept], t_list)
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0:
        raise NumericalError("degenerate decay fit: norms do not vary")
    return -float(slope), float(intercept), 1.0 - ss_res / ss_tot


def family_summary(family: FiducialFamily) -> dict:
    bounds = verify_f_bounds(family)
    return {
        "t": family.t,
        "sup_f_over_r": bounds["sup_f_over_r"],
        "sup_f_over_r2": bounds["sup_f_over_r2"],
        "phi_sup": phi_sup_bound(family),
        "residual_max": float(family.residual().max()),
    }


def export_family_csv(family: FiducialFamily, path) -> None:
    """Columns r, h, f, df, residual with 17 significant digits."""
    res = family.residual()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("r,h,f,df,residual\n")
        for row in zip(family.r, family.h, family.f, family.df, res):
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
