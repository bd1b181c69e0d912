"""Cutoff gluing of the t-pair to the singular limit and its Newton repair.

The glued exponent is chi * h_t with a C-infinity bump chi that is 1
on the inner region and 0 near the boundary.  The resulting pair solves the
reduced equations except on the transition annulus, where the error decays
exponentially in t.  The correction solves the scalar radial equation

    (r d_r)^2 (chi h_t + u) = 8 t^2 r^3 sinh(2 (chi h_t + u)),   u(1) = 0,

by Newton iteration on the package's shared radial operators: each step
solves the ell = 0 vertical block of ``linearized`` and the residual takes
(r d_r)^2 u from the flat ell = 0 stencil, ``assemble_scalar(0)``.  Only the
correction is differenced on the grid, the glued background enters through
chain-rule derivatives, and the correction is held as a constant c plus a
remainder w, so the stencil acts on w, which is small where 1/(4 r^2) is
large.  The reported residual of the corrected pair,
``fiducial.curvature_residual``, is then meaningful down to ~1e-12 even after
the division by 4 r^2 that turns the radial form into the curvature equation.
Residuals of discrete solutions are always measured with the scheme's own
difference operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import NumericalError
from .fiducial import FiducialFamily, build_family, curvature_residual, decay_fit
from .linearized import RadialGrid, assemble_vertical_block, assemble_scalar, smallest_eigenvalue
from .painleve import PsiProfile


def _bump(x):
    """exp(-1/x) continued by 0, with first and second derivatives."""
    x = np.asarray(x, dtype=float)
    pos = x > 0
    safe = np.where(pos, x, 1.0)
    q = np.where(pos, np.exp(-1.0 / safe), 0.0)
    qp = np.where(pos, q / safe ** 2, 0.0)
    qpp = np.where(pos, q * (1.0 - 2.0 * safe) / safe ** 4, 0.0)
    return q, qp, qpp


@dataclass(frozen=True)
class CutoffProfile:
    """Smooth cutoff with chi = 1 on r <= inner and chi = 0 on r >= outer.

    Built from the exp(-1/x) glue, so all derivatives vanish at both ends of
    the transition window; ``smooth_order`` records that the profile is
    C-infinity.  Derivative samples are produced analytically on demand.
    """

    inner: float = 0.5
    outer: float = 0.7
    smooth_order: float = math.inf

    def __post_init__(self):
        if not 0.5 <= self.inner < self.outer < 1.0:
            raise ValueError("need 0.5 <= inner < outer < 1")

    def sample(self, r):
        """(chi, chi', chi'') at the given radii."""
        r = np.asarray(r, dtype=float)
        width = self.outer - self.inner
        y = (self.outer - r) / width
        u, up, upp = _bump(y)
        w, wp_raw, wpp = _bump(1.0 - y)
        wp = -wp_raw
        den = u + w
        den = np.where(den == 0.0, 1.0, den)
        s = u / den
        sp = (up * w - u * wp) / den ** 2
        spp = ((upp * w - u * wpp) * den - 2.0 * (up * w - u * wp) * (up + wp)) / den ** 3
        dydr = -1.0 / width
        mid = (r > self.inner) & (r < self.outer)
        chi = np.where(r <= self.inner, 1.0, np.where(r >= self.outer, 0.0, s))
        dchi = np.where(mid, sp * dydr, 0.0)
        d2chi = np.where(mid, spp * dydr ** 2, 0.0)
        return chi, dchi, d2chi


@dataclass(eq=False, kw_only=True)
class GluedState(FiducialFamily):
    """The family data of the glued pair, with exponent chi h_t, on the
    log-uniform ``grid`` (None for samples off a grid).

    ``h`` equals h_t exactly where chi = 1 and vanishes where chi = 0;
    ``r_dh`` and ``r_d2h`` come from analytic derivatives of both factors,
    so ``f``, ``df`` and ``residual()`` are those of the cut pair.
    """

    grid: RadialGrid | None = None
    cutoff: CutoffProfile

    def l2_residual(self) -> float:
        """L2(r dr) norm of the residual field."""
        r = self.r
        return float(np.sqrt(np.trapezoid(self.residual() ** 2 * r, r)))

    def sup_residual(self) -> float:
        return float(self.residual().max())


def _glued(t: float, profile: PsiProfile, cutoff: CutoffProfile, r: np.ndarray,
           grid: RadialGrid | None = None) -> GluedState:
    """The glued state at radii r: the family at t times chi, differentiated
    by the product rule."""
    fam = build_family(t, profile, r)
    h, r_dh, r_d2h = fam.h, fam.r_dh, fam.r_d2h
    chi, dchi, d2chi = cutoff.sample(r)
    return GluedState(
        t=t, r=r, h=chi * h, r_dh=r * dchi * h + chi * r_dh,
        r_d2h=(r * dchi + r * r * d2chi) * h + 2.0 * r * dchi * r_dh + chi * r_d2h,
        profile=profile, grid=grid, cutoff=cutoff)


def build_glued(t: float, family: FiducialFamily, cutoff: CutoffProfile | None = None,
                n: int = 2000, r_min: float = 1e-3) -> GluedState:
    """Glued state at parameter t on a log-uniform grid over [r_min, 1]."""
    grid = RadialGrid(n, r_min)
    cutoff = CutoffProfile() if cutoff is None else cutoff
    return _glued(t, family.profile, cutoff, grid.r, grid)


def approx_error_sweep(t_list, profile: PsiProfile, cutoff: CutoffProfile | None = None,
                       n: int = 2000, r_min: float = 1e-3):
    """Least-squares fit of log ||residual||_{L2(r dr)} against t.

    Returns (delta_hat, c_hat, r_squared); requires at least four t values.
    """
    t_list = [float(t) for t in t_list]
    if len(t_list) < 4:
        raise ValueError("need at least 4 values of t")
    norms = []
    for t in t_list:
        fam = build_family(t, profile)
        norms.append(build_glued(t, fam, cutoff, n=n, r_min=r_min).l2_residual())
    delta, intercept, r2 = decay_fit(t_list, norms)
    return delta, float(np.exp(intercept)), r2


@dataclass(eq=False)
class NewtonResult:
    """The correction u = c + w: c is its value at the innermost node and w
    the remainder, kept apart so that w carries no rounding of size eps |c|."""

    c: float
    w: np.ndarray
    residual_history: list
    hitchin_residual: float
    iterations: int
    sup_u: float

    @property
    def u(self) -> np.ndarray:
        return self.c + self.w


def _corrected_residual(state: GluedState, c: float, w: np.ndarray) -> np.ndarray:
    """Curvature residual of h + c + w.  The flat ell = 0 stencil acts on
    w only, whose outer ghost is -c since u(1) = 0."""
    grid = state.grid
    d2u = -(assemble_scalar(0, n=grid.n, r_min=grid.r_min).matrix @ w)
    d2u[-1] -= c / grid.dx ** 2
    return curvature_residual(state.t, state.r, state.h + (c + w), state.r_d2h + d2u)


def newton_correct(state: GluedState, tol: float = 1e-10, max_iter: int = 30) -> NewtonResult:
    """Newton iteration for the bounded correction u = c + w with u(1) = 0.

    The Jacobian of the curvature residual is -1/(4 r^2) times the operator
    -(r d_r)^2 + 16 t^2 r^3 cosh(2 (h + u)), that is the band of
    ``newton_operator_matrix``, so each step solves that band against
    4 r^2 times the residual.  The step du updates c by du[0] and w by
    du - du[0].  Convergence is measured on the curvature residual; the
    history is returned for quadratic-convergence diagnostics.  A residual
    above tol that stops halving, from the third iterate on, or that is
    still above tol after ``max_iter`` steps, raises NumericalError naming t.
    """
    t = state.t
    c, w = 0.0, np.zeros(state.grid.n)
    history = []
    for iteration in range(max_iter):
        res = _corrected_residual(state, c, w)
        sup = float(np.abs(res).max())
        history.append(sup)
        if sup < tol:
            return NewtonResult(c=c, w=w, residual_history=history, hitchin_residual=sup,
                                iterations=iteration, sup_u=float(np.abs(c + w).max()))
        if iteration >= 2 and sup > 0.5 * history[-2]:
            raise NumericalError(
                f"t={t:g}: Newton stalled at residual {sup:.3e}; history {history}"
            )
        # DIA offsets (1, 0, -1) are solve_banded's (1, 1) layout
        ab = newton_operator_matrix(state, c + w).matrix.data
        try:
            du = solve_banded((1, 1), ab, 4.0 * state.r ** 2 * res)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"t={t:g}: singular Newton linearization: {exc}") from exc
        c += du[0]
        w += du - du[0]
    raise NumericalError(
        f"t={t:g}: Newton did not converge below {tol} in {max_iter} iterations; "
        f"history {history}"
    )


def corrected_solution_check(state: GluedState, result: NewtonResult) -> dict:
    """Reconstruct the corrected radial pair data and re-measure its residual.

    ``residual_post`` is the curvature residual of h + c + w rebuilt from
    the result's c and w with the flat stencil, the Newton convergence
    measure itself.  f = 1/8 + (1/4) r d_r (h + u) takes the central
    difference of the summed u, which is not divided by 4 r^2.
    """
    grid = state.grid
    res = _corrected_residual(state, result.c, result.w)
    h = state.h + result.u
    f = state.f + 0.25 * _first_difference(result.u, grid.dx)
    r = state.r
    return {
        "t": state.t,
        "residual_pre": state.sup_residual(),
        "residual_post": float(np.abs(res).max()),
        "residual_post_l2": float(np.sqrt(np.trapezoid(res ** 2 * r, r))),
        "sup_u": result.sup_u,
        "newton_iters": result.iterations,
        "f_range": (float(f.min()), float(f.max())),
        "h_boundary": float(h[-1]),
    }


def _first_difference(u: np.ndarray, dx: float) -> np.ndarray:
    padded = np.concatenate([[u[0]], u, [0.0]])
    return (padded[2:] - padded[:-2]) / (2.0 * dx)


def correction_sweep(t_list, profile: PsiProfile, cutoff: CutoffProfile | None = None,
                     n: int = 2000, r_min: float = 1e-3, tol: float = 1e-10) -> list:
    """Newton-corrected states across t; one report row per t."""
    rows = []
    for t in t_list:
        fam = build_family(float(t), profile)
        state = build_glued(float(t), fam, cutoff, n=n, r_min=r_min)
        result = newton_correct(state, tol=tol)
        row = corrected_solution_check(state, result)
        row["residual_history"] = result.residual_history
        rows.append(row)
    return rows


def growth_norm_check(state: GluedState) -> dict:
    """Suprema of |f| and |d_r f| of the glued pair with the 1/t normalization."""
    t = state.t
    f = state.f
    sup_f = float(np.abs(f).max())
    sup_df = float(np.abs(state.df).max())
    return {
        "t": t,
        "sup_f": sup_f,
        "sup_df": sup_df,
        "sup_f_over_t": sup_f / t,
        "sup_df_over_t": sup_df / t,
        "f_min": float(f.min()),
        "f_max": float(f.max()),
    }


def neumann_zero_mode_eigenvalue(state: GluedState, n: int = 1000,
                                 r_min: float = 1e-4) -> float:
    """Smallest eigenvalue of -(1/r^2)(r d_r)^2 + 16 f^2 / r^2, f that of the
    glued pair, with a Neumann condition at r = 1; strict positivity is the
    glued counterpart of the zero-mode positivity argument."""

    def potential(r):
        return 16.0 * _glued(state.t, state.profile, state.cutoff, r).f ** 2 / r ** 2

    op = assemble_scalar(0, n=n, r_min=r_min, potential=potential, neumann_outer=True)
    return smallest_eigenvalue(op)


def newton_operator_matrix(state: GluedState, u: np.ndarray | None = None):
    """The Newton operator -(r d_r)^2 + 16 t^2 r^3 cosh(2 (h + u)) of
    ``newton_correct`` as a RadialOperator: the ell = 0 vertical block of
    the linearized reduction evaluated with the glued exponent plus u."""
    h = state.h if u is None else state.h + u
    return assemble_vertical_block(0, state.t, h, state.grid)
