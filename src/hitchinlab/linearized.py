"""Fourier-block reduction of the linearized operator at the radial pair.

Every radial operator here (coupled and vertical blocks, the Bessel oracle,
the conic Poisson solve) is one stencil for -(r d_r)^2 + r^2 V, with V
holding the nu^2 / r^2 term and the measure r dr on (0, 1), made by one
assembler, ``_assemble``.  On the log-uniform grid x = log r, (r d_r)^2 is
exactly d_x^2, the grading toward r = 0 comes for free and the three-point
stencil stays second order.
Regularity at r = 0 comes from ghost-node elimination with each component's
indicial exponent; r = 1 is Dirichlet or a half-cell Neumann end.  Each
operator is held as its symmetric band in LAPACK upper storage
(``RadialOperator.band``) and factored once by banded Cholesky
(``RadialOperator.solve``), which also certifies that it is positive
definite.  Every eigen solve is a standard symmetric Lanczos run on that
factorization: the smallest eigenvalue is read off the largest one of
S A^-1 S with S = sqrt(B), which is immune to the r^-2 entry spread of A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import NumericalError
from .fiducial import build_family, check_rho_range
from .painleve import PsiProfile

DEFAULT_N = 2000
DEFAULT_R_MIN = 1e-6
MIN_GRID = 16
SURROGATE_MAX_ITER = 400
SURROGATE_TOL = 1e-10


@dataclass(frozen=True)
class RadialGrid:
    """Log-uniform interior nodes on (r_min, 1); the Dirichlet node r = 1 is
    excluded, for Neumann assemblies a half-cell boundary node is appended."""

    n: int
    r_min: float

    def __post_init__(self):
        if self.n < MIN_GRID:
            raise ValueError(f"grid size must be at least {MIN_GRID}")
        if not 0 < self.r_min < 1:
            raise ValueError("r_min must lie in (0, 1)")

    @property
    def dx(self) -> float:
        return -np.log(self.r_min) / self.n

    @property
    def x(self) -> np.ndarray:
        return np.log(self.r_min) + self.dx * np.arange(self.n)

    @property
    def r(self) -> np.ndarray:
        return np.exp(self.x)


@dataclass(eq=False)
class RadialOperator:
    """Discretized block operator A u = lambda B u in nodal values.

    ``band`` is the symmetric stiffness-plus-potential matrix A in LAPACK
    upper band storage: row ``block_size`` is the diagonal and row
    ``block_size - d`` holds A[j - d, j] in column j.  ``weights`` is the
    diagonal of B (cell mass r^2 per unit x).  ``potentials`` records the
    diagonal potential samples per component and ``coupling`` the
    off-diagonal potential, both before multiplication by r^2.
    """

    ell: int
    t: float
    block_size: int
    grid: RadialGrid
    band: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    potentials: list = field(repr=False)
    coupling: np.ndarray | None = field(repr=False, default=None)

    @cached_property
    def matrix(self) -> sp.dia_array:
        """A as a sparse matrix, read straight off the band: the lower
        diagonals are the upper ones shifted by their offset."""
        k, size = self.block_size, self.band.shape[1]
        lower = [np.roll(self.band[k - d], -d) for d in range(1, k + 1)]
        return sp.dia_array((np.vstack([self.band, *lower]), np.arange(k, -k - 1, -1)),
                            shape=(size, size))

    @cached_property
    def solve(self):
        """b -> A^-1 b by banded Cholesky, factored on first use and shared
        by every solve on this block; ``RuntimeError`` unless A is positive
        definite."""
        return _band_solver(self.band)


def _band_solver(band: np.ndarray):
    """Solver for the symmetric band ``band`` (LAPACK upper storage) by its
    Cholesky factor; ``RuntimeError`` when a pivot is not positive.  A NaN
    pivot counts as not positive, as in reference LAPACK; optimized builds
    may pass it through, so the factor's diagonal is checked as well."""
    factor, info = dpbtrf(band)
    if info > 0 or not np.isfinite(factor[-1]).all():
        raise RuntimeError("band is not positive definite")
    return lambda b: dpbtrs(factor, b)[0]


def _nodes(grid: RadialGrid, neumann_outer: bool) -> np.ndarray:
    """The grid's nodes, with the half-cell node r = 1 appended for Neumann."""
    return np.append(grid.r, 1.0) if neumann_outer else grid.r


def _assemble(ell, t, grid: RadialGrid, r: np.ndarray, potentials, nus,
              coupling=None) -> RadialOperator:
    """Band and masses of -(r d_r)^2 + r^2 V on the nodes ``r``.

    ``potentials`` holds the samples of V per component, ``nus`` their inner
    ghost exponents: the ghost u_{-1} = e^{-nu dx} u_0 follows the regular
    branch r^nu.  Two components are interleaved node by node and
    ``coupling`` is their off-diagonal potential.  One node more than the grid has is the
    Neumann end r = 1, a half cell: it halves mass and potential but not the
    flux difference, so the matrix stays symmetric and positive.
    """
    size, k = len(r), len(potentials)
    dx2 = grid.dx ** 2
    stiff = np.full(size, 2.0)
    cells = np.ones(size)
    if size > grid.n:
        stiff[-1] = 1.0
        cells[-1] = 0.5
    mass = cells * r ** 2
    band = np.zeros((k + 1, k * size))
    for j, (pot, nu) in enumerate(zip(potentials, nus)):
        stiff[0] = 2.0 - np.exp(-nu * grid.dx)
        band[k, j::k] = stiff / dx2 + mass * pot
    band[0, k:] = -1.0 / dx2
    if coupling is not None:
        band[1, 1::2] = mass * coupling
    return RadialOperator(ell=ell, t=t, block_size=k, grid=grid, band=band,
                          weights=np.repeat(mass, k), potentials=list(potentials),
                          coupling=coupling)


def _coupled_block(ell, t, grid: RadialGrid, r: np.ndarray, f=None,
                   h=None) -> RadialOperator:
    """The 2x2 block from family samples on ``r``: f_t gives the connection
    terms and h_t the Higgs coupling; None drops a term."""
    f = np.zeros_like(r) if f is None else f
    v_minus = (ell - 4.0 * f) ** 2 / r ** 2
    v_plus = (ell - 1 + 4.0 * f) ** 2 / r ** 2
    w_off = 8.0 * t * t * r if h is not None else np.zeros_like(r)
    w_diag = w_off * np.cosh(2.0 * h) if h is not None else w_off
    return _assemble(ell, t, grid, r, [v_minus + w_diag, v_plus + w_diag],
                     (abs(ell), abs(ell - 1)), w_off)


def assemble_block(ell: int, t: float, profile: PsiProfile, n: int = DEFAULT_N,
                   r_min: float = DEFAULT_R_MIN, connection: bool = True,
                   higgs: bool = True, neumann_outer: bool = False) -> RadialOperator:
    """Coupled 2x2 block of the linearized operator at mode ell.

    The two components carry potentials (ell -+ 4 f_t)^2 / r^2 (with f_t
    dropped when ``connection`` is False) and the coupling
    8 t^2 r [[cosh 2h_t, 1], [1, cosh 2h_t]] (dropped when ``higgs`` is
    False).  Inner regularity exponents are |ell| and |ell - 1|.  The flat
    block (both dropped) reads nothing from the profile.
    """
    grid = RadialGrid(n, r_min)
    r = _nodes(grid, neumann_outer)
    if not (connection or higgs):
        return _coupled_block(ell, t, grid, r)
    fam = build_family(t, profile, r)
    return _coupled_block(ell, t, grid, r, fam.f if connection else None,
                          fam.h if higgs else None)


def assemble_scalar(ell: int, n: int = DEFAULT_N, r_min: float = DEFAULT_R_MIN,
                    potential=None, neumann_outer: bool = False) -> RadialOperator:
    """Scalar radial operator -(1/r^2)(r d_r)^2 + ell^2/r^2 + potential(r).

    With ``potential`` None this is the mode-ell flat Laplacian whose zero
    mode is the Bessel operator used as spectral oracle.  The inner ghost
    exponent is |ell|.
    """
    grid = RadialGrid(n, r_min)
    r = _nodes(grid, neumann_outer)
    pot = ell ** 2 / r ** 2
    if potential is not None:
        pot = pot + potential(r)
    return _assemble(ell, 0.0, grid, r, [pot], (abs(ell),))


def assemble_vertical_block(ell: int, t: float, h_values: np.ndarray,
                            grid: RadialGrid, neumann_outer: bool = False) -> RadialOperator:
    """Scalar block on the diagonal subbundle: potential 16 t^2 r cosh(2h).

    ``h_values`` must be sampled on ``grid`` (plus the boundary node for
    Neumann assemblies).  The ell = 0 instance is the linearization of the
    radial scalar reduction used by the Newton correction.
    """
    r = _nodes(grid, neumann_outer)
    if len(h_values) != len(r):
        raise ValueError("h samples do not match the grid")
    pot = ell ** 2 / r ** 2 + 16.0 * t * t * r * np.cosh(2.0 * h_values)
    return _assemble(ell, t, grid, r, [pot], (abs(ell),))


def smallest_eigenvalue(op: RadialOperator) -> float:
    """Smallest eigenvalue of A u = lambda B u by standard-mode Lanczos.

    For a shift sigma below the spectrum, S (A - sigma B)^-1 S with S = sqrt(B)
    is symmetric positive definite, and its largest eigenvalue mu gives
    lambda_min = sigma + 1/mu.  ARPACK finds mu as a standard symmetric
    problem (``which="LA"``, ``tol=0``) from a fixed start vector; at
    sigma = 0 the solves reuse the block's own factorization ``op.solve``.
    A shift is accepted only when the banded Cholesky factorization of
    A - sigma B succeeds, that is when A - sigma B is positive definite, so
    sigma is certified to lie below the spectrum.  The ladder tries
    sigma = 0, -1e-6, -1: a semi-definite operator (Neumann with a constant
    kernel) that rounding leaves indefinite moves on to the small negative
    shift, and an operator whose smallest eigenvalue lies below -1 raises
    NumericalError.  Only a ``RuntimeError`` (factorization not positive
    definite, ARPACK failure) moves on to the next shift; any other error,
    such as a malformed operator, propagates unchanged.
    """
    s = np.sqrt(op.weights)
    size = op.band.shape[1]
    v0 = np.ones(size)
    last_exc = None
    for sigma in (0.0, -1e-6, -1.0):
        try:
            if sigma == 0.0:
                solve = op.solve
            else:
                shifted = op.band.copy()
                shifted[-1] -= sigma * op.weights
                solve = _band_solver(shifted)
            inverse = LinearOperator((size, size), dtype=float,
                                     matvec=lambda x, solve=solve: s * solve(s * x))
            mu = eigsh(inverse, k=1, which="LA", v0=v0, tol=0,
                       return_eigenvectors=False)
            return sigma + 1.0 / float(mu[0])
        except RuntimeError as exc:  # not positive definite, ARPACK failure
            last_exc = exc
    raise NumericalError(f"eigenvalue solve failed: {last_exc}") from last_exc


def apply_operator(op: RadialOperator, u: np.ndarray) -> np.ndarray:
    """Nodal application B^-1 A u (the operator itself, not the bilinear form)."""
    return (op.matrix @ u) / op.weights


def h2_surrogate_norm(op_l: RadialOperator, op_flat: RadialOperator) -> float:
    """Largest singular value of Delta G in the weighted norm.

    sigma_max of M = S^-1 P A^-1 S, where A, P are the assembled matrices of
    the full and flat blocks and S = sqrt(B), taken as the square root of the
    largest eigenvalue of M^T M = S A^-1 P B^-1 P A^-1 S (P is exactly
    symmetric) by implicitly restarted Lanczos (ARPACK) from a deterministic
    fixed start vector.  The A^-1 solves reuse the block's Cholesky
    factorization ``op_l.solve``, so a block whose smallest eigenvalue was
    already computed is not factored again; the flat block is never factored.
    ``SURROGATE_TOL`` is the relative accuracy asked of that eigenvalue and
    ``SURROGATE_MAX_ITER`` the cap on Lanczos restarts; a solve that does
    not converge within it raises NumericalError.
    """
    p = op_flat.matrix
    sw = np.sqrt(op_l.weights)
    solve = op_l.solve
    size = p.shape[0]
    v0 = np.sin(np.linspace(0.3, 7.0, size)) + 1.0

    def mtm_apply(vec):
        m_vec = (p @ solve(sw * vec)) / sw
        return sw * solve(p @ (m_vec / sw))

    mtm = LinearOperator((size, size), matvec=mtm_apply, dtype=float)
    try:
        w = eigsh(mtm, k=1, which="LA", v0=v0, tol=SURROGATE_TOL,
                  maxiter=SURROGATE_MAX_ITER, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NumericalError(
            f"H2 surrogate (ell={op_l.ell}, t={op_l.t:g}) did not converge to "
            f"tol={SURROGATE_TOL} in {SURROGATE_MAX_ITER} Lanczos restarts") from exc
    return float(np.sqrt(w[0]))


def potential_floor(op: RadialOperator) -> float:
    """min over radius of the smallest eigenvalue of the potential matrix.

    For coupled blocks the off-diagonal coupling is included, so the floor is
    a true lower bound for the operator (the derivative part is nonnegative).
    """
    if op.block_size == 1 or op.coupling is None:
        return float(min(p.min() for p in op.potentials))
    v1, v2 = op.potentials
    c = op.coupling
    mean = 0.5 * (v1 + v2)
    gap = np.sqrt(0.25 * (v1 - v2) ** 2 + c * c)
    return float((mean - gap).min())


@dataclass(eq=False)
class SpectralReport:
    t: float
    n: int
    ells: list
    lambda_min: list
    lambda_min_vertical: list
    g_norm_l2: float
    g_norm_h2_surrogate: float
    kappa_hat: float
    indicial: list

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "n": self.n,
            "l": list(self.ells),
            "lambda_min": list(self.lambda_min),
            "lambda_min_vertical": list(self.lambda_min_vertical),
            "g_norm_l2": self.g_norm_l2,
            "g_norm_h2_surrogate": self.g_norm_h2_surrogate,
            "kappa_hat": self.kappa_hat,
            "indicial": [float(v) for v in self.indicial],
        }


def green_norms(t: float, ell_max: int, profile: PsiProfile, n: int = 600,
                r_min: float = DEFAULT_R_MIN) -> SpectralReport:
    """Per-mode smallest eigenvalues and Green-operator norm estimates.

    The L2 -> L2 norm is the max of 1/lambda_min over the coupled blocks for
    0 <= ell <= ell_max (negative modes coincide with ell -> 1 - ell by the
    swap symmetry of the block) together with the diagonal-subbundle blocks.
    The H2 surrogate composes the discrete flat Laplacian with each block
    inverse.  ``kappa_hat`` is the empirical potential floor divided by ell^2,
    minimized over ell >= 2.  A t outside the profile's validity range on
    the unit disk raises ValueError, as ``build_family`` does.
    """
    if ell_max < 8:
        raise ValueError("ell_max must be at least 8")
    check_rho_range(t, profile)
    grid = RadialGrid(n, r_min)
    fam = build_family(t, profile, grid.r)
    r, f, h = fam.r, fam.f, fam.h
    lam = []
    lam_vert = []
    surrogate = 0.0
    kappa = np.inf
    ells = list(range(ell_max + 1))
    for ell in ells:
        op = _coupled_block(ell, t, grid, r, f, h)
        flat = _coupled_block(ell, t, grid, r)
        lam.append(smallest_eigenvalue(op))
        lam_vert.append(smallest_eigenvalue(assemble_vertical_block(ell, t, h, grid)))
        surrogate = max(surrogate, h2_surrogate_norm(op, flat))
        if ell >= 2:
            kappa = min(kappa, potential_floor(op) / ell ** 2)
    g_l2 = max(1.0 / np.array(lam + lam_vert))
    roots = indicial_roots(range(-ell_max, ell_max + 1))["aggregate"]
    return SpectralReport(
        t=t, n=n, ells=ells, lambda_min=lam, lambda_min_vertical=lam_vert,
        g_norm_l2=float(g_l2), g_norm_h2_surrogate=float(surrogate),
        kappa_hat=float(kappa), indicial=roots,
    )


def indicial_roots(ell_range) -> dict:
    """Indicial roots of the conic connection Laplacian, exact rationals.

    Per mode ell the scalar (diagonal) equation contributes nu = +-ell and
    the coupled pair contributes nu = +-|ell +- 1/2|; the aggregate over all
    |ell| <= L is exactly the half-integers {m/2 : |m| <= 2L + 1}.
    Returns {"per_ell": {ell: [(root, multiplicity), ...]}, "aggregate":
    sorted list of distinct roots}.
    """
    per_ell = {}
    aggregate = set()
    for ell in ell_range:
        ell = int(ell)
        counts = {}

        def add(root):
            counts[root] = counts.get(root, 0) + 1

        if ell == 0:
            add(Fraction(0))
            add(Fraction(0))
        else:
            add(Fraction(ell))
            add(Fraction(-ell))
        for s in (1, -1):
            root = Fraction(abs(2 * ell + s), 2)
            add(root)
            add(-root)
        roots = sorted(counts.items())
        per_ell[ell] = roots
        aggregate.update(counts)
    return {"per_ell": per_ell, "aggregate": sorted(aggregate)}


def restricted_indicial_roots(ell_range) -> list:
    """Roots on the twisted (anti-periodic) subbundle: ell + 1/2 per ell."""
    return sorted(Fraction(2 * int(ell) + 1, 2) for ell in ell_range)


@dataclass(eq=False)
class ConicSolution:
    nu: float
    delta: float
    r: np.ndarray
    u: np.ndarray


def conic_poisson_solve(nu: float, rhs, delta: float, n: int = 6000,
                        r_min: float = DEFAULT_R_MIN) -> ConicSolution:
    """Solve -(u'' + u'/r - nu^2 u / r^2) = rhs with the decaying inner branch.

    ``delta`` selects the weighted space and must lie in the isomorphism
    window (1/2, 3/2); outside it the solve is rejected.  ``rhs`` is a
    callable of r or an array of samples on the solver grid.  The matrix is
    ``assemble_scalar(nu)``: Dirichlet at r = 1, ghost exponent |nu| at the
    inner end, so the homogeneous inner behavior is r^|nu|; it is solved
    against r^2 rhs with the operator's banded Cholesky factorization.
    """
    if not 0.5 < delta < 1.5:
        raise ValueError(f"delta={delta} outside the isomorphism window (1/2, 3/2)")
    op = assemble_scalar(nu, n=n, r_min=r_min)
    r = op.grid.r
    b = rhs(r) if callable(rhs) else np.asarray(rhs, dtype=float)
    if b.shape != r.shape:
        raise ValueError("rhs samples do not match the solver grid")
    u = op.solve(r * r * b)
    return ConicSolution(nu=nu, delta=delta, r=r, u=u)


def apply_conic_operator(nu: float, u_fn, grid: RadialGrid) -> np.ndarray:
    """Discrete application of the conic operator to samples of ``u_fn``.

    Uses the same stencil as the solver with Dirichlet data u(1) = 0 and the
    continuation of ``u_fn`` at the inner ghost node, enabling
    manufactured-solution round trips.
    """
    r = grid.r
    dx = grid.dx
    u = u_fn(r)
    ghost_in = u_fn(np.exp(np.log(grid.r_min) - dx))
    padded = np.concatenate([[ghost_in], u, [0.0]])
    d2 = (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / dx ** 2
    return (-d2 + nu * nu * u) / r ** 2


def inner_decay_exponent(sol: ConicSolution, window=(1e-3, 1e-2)) -> float:
    """Log-log slope of |u| over the given radial window."""
    sel = (sol.r >= window[0]) & (sol.r <= window[1]) & (np.abs(sol.u) > 0)
    if sel.sum() < 8:
        raise ValueError("window contains too few grid points")
    slope, _ = np.polyfit(np.log(sol.r[sel]), np.log(np.abs(sol.u[sel])), 1)
    return float(slope)
