"""Cutoff gluing of the t-pair to the singular limit and its Newton repair.

The glued exponent is chi * h_t with a C-infinity bump chi that is 1
on the inner region and 0 near the boundary.  The resulting pair solves the
reduced equations except on the transition annulus, where the error decays
exponentially in t.  The correction solves the scalar radial equation

    (r d_r)^2 (chi h_t + u) = 8 t^2 r^3 sinh(2 (chi h_t + u)),   u(1) = 0,

by Newton iteration on the package's shared radial operators: each step
solves the ell = 0 vertical block of ``linearized`` and the residual takes
(r d_r)^2 u from the flat ell = 0 stencil, that of ``assemble_scalar(0, n)``,
which ``RadialGrid.second_difference`` applies.
Only the correction is differenced on the grid, the glued background enters
through chain-rule derivatives, and the correction is held as a constant c
plus a remainder w, so the stencil acts on w, which is small where 1/(4 r^2)
is large.  w is a double-word sum w_hi + w_lo, so the rounding of a stored
w, about eps |w| / dx^2 in its second difference, does not enter the
residual either.  The reported residual of the corrected pair,
``fiducial.curvature_residual``, is then meaningful down to ~1e-14 (t = 1
stalls at about 4e-15) even after the division by 4 r^2 that turns the
radial form into the curvature equation, and refining the mesh (to
n = 32000 measured) does not raise that floor above tol = 1e-10.
Residuals of discrete solutions are always measured with the scheme's own
difference operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .fiducial import FiducialFamily, build_family, curvature_residual, decay_fit
from .linearized import RadialGrid, assemble_vertical_block, assemble_scalar, smallest_eigenvalue
from .painleve import PsiProfile

GLUE_R_MIN = 1e-3  # inner end of every glued state's grid


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
    the transition window and the profile is C-infinity.  Derivative samples
    are produced analytically on demand.
    """

    inner: float = 0.5
    outer: float = 0.7

    def __post_init__(self):
        if not 0.5 <= self.inner < self.outer < 1.0:
            raise ValueError("need 0.5 <= inner < outer < 1")

    def sample(self, r):
        """(chi, chi', chi'') at the given radii.  Off the open transition
        window they are exactly (1, 0, 0) or (0, 0, 0), NaN radii included,
        so the bump is evaluated on the window's radii only."""
        r = np.asarray(r, dtype=float)
        chi = np.where(r <= self.inner, 1.0, 0.0)
        dchi, d2chi = np.zeros_like(chi), np.zeros_like(chi)
        mid = (r > self.inner) & (r < self.outer)
        width = self.outer - self.inner
        y = (self.outer - r[mid]) / width
        u, up, upp = _bump(y)
        w, wp_raw, wpp = _bump(1.0 - y)
        wp = -wp_raw
        # one of y and 1 - y is at least 1/2, so den >= exp(-2)
        den = u + w
        dydr = -1.0 / width
        sp = (up * w - u * wp) / den ** 2
        spp = ((upp * w - u * wpp) * den - 2.0 * (up * w - u * wp) * (up + wp)) / den ** 3
        chi[mid], dchi[mid], d2chi[mid] = u / den, sp * dydr, spp * dydr ** 2
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


def glued_on_grid(t: float, profile: PsiProfile, n: int, r_min: float = GLUE_R_MIN,
                  cutoff: CutoffProfile | None = None) -> GluedState:
    """The glued state at t on a log-uniform grid of n nodes over [r_min, 1];
    gluing's inner radius ``GLUE_R_MIN`` and ``CutoffProfile()`` by default."""
    grid = RadialGrid(n, r_min)
    cutoff = CutoffProfile() if cutoff is None else cutoff
    return _glued(t, profile, cutoff, grid.r, grid)


def build_glued(t: float, family: FiducialFamily, cutoff: CutoffProfile | None = None,
                n: int = 2000, r_min: float = GLUE_R_MIN) -> GluedState:
    """Glued state at parameter t on a log-uniform grid over [r_min, 1],
    from the profile the family was built from.  ``t`` must be the family's
    own parameter; a mismatch raises ValueError."""
    if t != family.t:
        raise ValueError(f"t={t:g} does not match the family's t={family.t:g}")
    return glued_on_grid(t, family.profile, n, r_min, cutoff)


def approx_error_sweep(t_list, profile: PsiProfile, cutoff: CutoffProfile | None = None,
                       n: int = 2000):
    """Least-squares fit of log ||residual||_{L2(r dr)} against t, with the
    glued states on n nodes over [GLUE_R_MIN, 1].

    Returns (delta_hat, c_hat, r_squared); requires at least four t values.
    """
    t_list = [float(t) for t in t_list]
    if len(t_list) < 4:
        raise ValueError("need at least 4 values of t")
    norms = [glued_on_grid(t, profile, n, cutoff=cutoff).l2_residual() for t in t_list]
    delta, intercept, r2 = decay_fit(t_list, norms)
    return delta, float(np.exp(intercept)), r2


@dataclass(eq=False)
class NewtonResult:
    """The correction u = c + w_hi + w_lo: c is its value at the innermost
    node and w = w_hi + w_lo the remainder, a double-word sum (w_lo holds the
    rounding of w_hi), so that the second difference of w carries no
    rounding of size eps |w| / dx^2.  ``residual`` is the curvature residual
    of h + u that the iteration accepted; its sup is ``residual_history[-1]``."""

    c: float
    w_hi: np.ndarray
    w_lo: np.ndarray
    residual: np.ndarray
    residual_history: list
    iterations: int
    sup_u: float

    @property
    def u(self) -> np.ndarray:
        return self.c + self.w_hi + self.w_lo


def _two_sum(a: np.ndarray, b: np.ndarray):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _corrected_residual(state: GluedState, c: float, w_hi: np.ndarray,
                        w_lo: np.ndarray) -> np.ndarray:
    """Curvature residual of h + c + w_hi + w_lo.  The stencil acts on w_hi
    and w_lo apart; u(1) = 0 makes the outer ghost of w_hi -c and that of
    w_lo 0, and each takes its first node as its inner ghost."""
    grid = state.grid
    d2u = grid.second_difference(w_hi, w_hi[0], -c) + grid.second_difference(w_lo, w_lo[0], 0.0)
    return curvature_residual(state.t, state.r, state.h + (c + w_hi + w_lo), state.r_d2h + d2u)


def solve_banded(op, b: np.ndarray) -> np.ndarray:
    """A^-1 b for the RadialOperator ``op``, on its own factorization.  One
    call is one Newton step: ``newton_correct`` looks this name up at call
    time, and the benchmark counts Newton steps by it."""
    return op.solve(b)


def newton_correct(state: GluedState, tol: float, max_iter: int = 30) -> NewtonResult:
    """Newton iteration for the bounded correction u = c + w_hi + w_lo with
    u(1) = 0.

    The Jacobian of the curvature residual is -1/(4 r^2) times the operator
    -(r d_r)^2 + 16 t^2 r^3 cosh(2 (h + u)), that is the band of
    ``newton_operator_matrix``, so each step solves that band against
    4 r^2 times the residual, on the band's own LDL^T factorization
    (``solve_banded``).  The step du updates c by du[0] and w by the
    rest of du, by TwoSum: the residual is computed in about twice the
    working precision and the step in float64, mixed-precision iterative
    refinement (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 12).  Convergence is
    measured on the curvature residual; the history is returned for
    quadratic-convergence diagnostics.  A residual above tol that has not
    decreased at two steps in a row, or that is still above tol after
    ``max_iter`` steps, raises NumericalError naming t: before its
    quadratic phase the sup residual may rise once (t = 2, r_min = 1e-7,
    n = 8000: 1.6, 1.0e-4, 1.1e-4, 1.8e-11).  So does a band the
    factorization refuses, such as one with a NaN in h.
    """
    t = state.t
    c, w_hi, w_lo = 0.0, np.zeros(state.grid.n), np.zeros(state.grid.n)
    scale = 4.0 * state.r ** 2  # the residual's 1/(4 r^2), undone for each step
    history = []
    for iteration in range(max_iter):
        res = _corrected_residual(state, c, w_hi, w_lo)
        sup = float(np.abs(res).max())
        history.append(sup)
        if sup < tol:
            return NewtonResult(c=c, w_hi=w_hi, w_lo=w_lo, residual=res, residual_history=history,
                                iterations=iteration, sup_u=float(np.abs(c + w_hi + w_lo).max()))
        if iteration >= 2 and history[-3] <= history[-2] <= sup:
            raise NumericalError(
                f"t={t:g}: Newton stalled at residual {sup:.3e}; history {history}"
            )
        try:
            du = solve_banded(newton_operator_matrix(state, c + w_hi + w_lo), scale * res)
        except NumericalError as exc:  # the factorization refused the band
            raise NumericalError(f"t={t:g}: Newton linearization: {exc}") from exc
        c += du[0]
        w_hi, err = _two_sum(w_hi, du - du[0])
        w_lo += err
    raise NumericalError(
        f"t={t:g}: Newton did not converge below {tol} in {max_iter} iterations; "
        f"history {history}"
    )


def corrected_solution_check(state: GluedState, result: NewtonResult) -> dict:
    """Reconstruct the corrected radial pair data and report its residual.

    ``residual_post`` and ``residual_post_l2`` are the sup and L2(r dr) norms
    of ``result.residual``, the curvature residual that Newton accepted.
    f = 1/8 + (1/4) r d_r (h + u) takes the central difference of the summed
    u, which is not divided by 4 r^2.
    """
    grid = state.grid
    res = result.residual
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


def neumann_zero_mode_eigenvalue(state: GluedState, n: int = 1000) -> float:
    """Smallest eigenvalue of -(1/r^2)(r d_r)^2 + 16 f^2 / r^2 on [1e-4, 1],
    f that of the glued pair, with a Neumann condition at r = 1; strict
    positivity is the glued counterpart of the zero-mode positivity
    argument.  An operator that is not positive definite raises
    NumericalError (``smallest_eigenvalue``)."""

    def potential(r):
        return 16.0 * _glued(state.t, state.profile, state.cutoff, r).f ** 2 / r ** 2

    op = assemble_scalar(0, n=n, r_min=1e-4, potential=potential, neumann_outer=True)
    return smallest_eigenvalue(op)


def newton_operator_matrix(state: GluedState, u: np.ndarray | None = None):
    """The Newton operator -(r d_r)^2 + 16 t^2 r^3 cosh(2 (h + u)) of
    ``newton_correct`` as a RadialOperator: the ell = 0 vertical block of
    the linearized reduction evaluated with the glued exponent plus u."""
    h = state.h if u is None else state.h + u
    return assemble_vertical_block(0, state.t, h, state.grid)
