"""Fourier-block reduction of the linearized operator at the radial pair.

All radial operators act on (0, 1) with the measure r dr, discretized on a
log-uniform grid: with x = log r the second derivative (r d_r)^2 becomes
exactly d_x^2, the geometric grading toward r = 0 comes for free, and the
standard three-point stencil stays second order.  Regularity at r = 0 is
imposed by ghost-node elimination with the indicial exponent of each block
component, Dirichlet (or a half-cell Neumann) at r = 1.  Each block is
factored once (``RadialOperator.lu``), and every eigen solve is a standard
symmetric Lanczos run on an operator built from that factorization: the
smallest eigenvalue is read off the largest one of S A^-1 S with S = sqrt(B),
which is immune to the r^-2 entry spread of the symmetrized matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .errors import NumericalError
from .fiducial import check_rho_range, radial_data
from .painleve import PsiProfile

DEFAULT_N = 2000
DEFAULT_R_MIN = 1e-6
MIN_GRID = 16


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

    ``matrix`` is the symmetric stiffness-plus-potential matrix, ``weights``
    the diagonal of B (cell mass r^2 per unit x).  ``potentials`` records the
    diagonal potential samples per component and ``coupling`` the off-diagonal
    potential, both before multiplication by r^2.
    """

    ell: int
    t: float
    block_size: int
    grid: RadialGrid
    matrix: sp.spmatrix = field(repr=False)
    weights: np.ndarray = field(repr=False)
    potentials: list = field(repr=False)
    coupling: np.ndarray | None = field(repr=False, default=None)
    nu_inner: tuple = ()
    dirichlet_outer: bool = True

    def symmetrized(self) -> sp.spmatrix:
        """B^-1/2 A B^-1/2, assembled band by band so the +k and -k bands
        share one scaled array and symmetry is exact in floating point."""
        s = 1.0 / np.sqrt(self.weights)
        size = self.matrix.shape[0]
        bands, offsets = [], []
        width = 2 * self.block_size - 1
        for k in range(width + 1):
            band = self.matrix.diagonal(k)
            if not np.any(band):
                continue
            scaled = band * (s[: size - k] * s[k:])
            bands.append(scaled)
            offsets.append(k)
            if k > 0:
                bands.append(scaled)
                offsets.append(-k)
        return sp.diags(bands, offsets, format="csc")

    @cached_property
    def lu(self):
        """Sparse LU of ``matrix``, made on first use and shared by every solve
        on this block; a singular matrix raises ``RuntimeError``."""
        return splu(self.matrix.tocsc())


def _stiffness_rows(grid: RadialGrid, nu_in: float, neumann_outer: bool):
    """Main/off diagonals of -d_x^2 with ghost elimination, plus cell sizes."""
    n = grid.n + (1 if neumann_outer else 0)
    dx = grid.dx
    main = np.full(n, 2.0)
    main[0] = 2.0 - np.exp(-nu_in * dx)
    cells = np.full(n, 1.0)
    if neumann_outer:
        main[-1] = 1.0
        cells[-1] = 0.5
    off = np.full(n - 1, -1.0)
    return main / dx ** 2, off / dx ** 2, cells


def _scalar_blocks(grid: RadialGrid, potential: np.ndarray, nu_in: float,
                   neumann_outer: bool):
    # the half cell at a Neumann boundary scales mass and potential, not the
    # flux difference, keeping the matrix symmetric and positive
    main, off, cells = _stiffness_rows(grid, nu_in, neumann_outer)
    r = grid.r if not neumann_outer else np.append(grid.r, 1.0)
    a_main = main + cells * r ** 2 * potential
    a_off = off
    weights = cells * r ** 2
    return a_main, a_off, weights, r


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
    r = grid.r if not neumann_outer else np.append(grid.r, 1.0)
    if connection or higgs:
        h, r_dh, _ = radial_data(t, profile, r)
    f = 0.125 + 0.25 * r_dh if connection else np.zeros_like(r)
    v_minus = (ell - 4.0 * f) ** 2 / r ** 2
    v_plus = (ell - 1 + 4.0 * f) ** 2 / r ** 2
    if higgs:
        w_diag = 8.0 * t * t * r * np.cosh(2.0 * h)
        w_off = 8.0 * t * t * r
    else:
        w_diag = np.zeros_like(r)
        w_off = np.zeros_like(r)

    m1, off1, w_1, _ = _scalar_blocks(grid, v_minus + w_diag, abs(ell), neumann_outer)
    m2, off2, w_2, _ = _scalar_blocks(grid, v_plus + w_diag, abs(ell - 1), neumann_outer)
    cells = w_1 / r ** 2
    size = len(r)
    diag = np.empty(2 * size)
    diag[0::2] = m1
    diag[1::2] = m2
    cross = np.zeros(2 * size - 1)
    cross[0::2] = cells * r ** 2 * w_off
    d2 = np.zeros(2 * size - 2)
    d2[0::2] = off1
    d2[1::2] = off2
    a = sp.diags([d2, cross, diag, cross, d2], [-2, -1, 0, 1, 2], format="csc")
    weights = np.empty(2 * size)
    weights[0::2] = w_1
    weights[1::2] = w_2
    return RadialOperator(
        ell=ell, t=t, block_size=2, grid=grid, matrix=a, weights=weights,
        potentials=[v_minus + w_diag, v_plus + w_diag], coupling=w_off,
        nu_inner=(abs(ell), abs(ell - 1)), dirichlet_outer=not neumann_outer,
    )


def assemble_scalar(ell: int, n: int = DEFAULT_N, r_min: float = DEFAULT_R_MIN,
                    potential=None, nu_in: float | None = None, t: float = 0.0,
                    neumann_outer: bool = False) -> RadialOperator:
    """Scalar radial operator -(1/r^2)(r d_r)^2 + ell^2/r^2 + potential(r).

    With ``potential`` None this is the mode-ell flat Laplacian whose zero
    mode is the Bessel operator used as spectral oracle.
    """
    grid = RadialGrid(n, r_min)
    r = grid.r if not neumann_outer else np.append(grid.r, 1.0)
    pot = ell ** 2 / r ** 2
    if potential is not None:
        pot = pot + potential(r)
    nu = abs(ell) if nu_in is None else nu_in
    a_main, a_off, weights, _ = _scalar_blocks(grid, pot, nu, neumann_outer)
    a = sp.diags([a_off, a_main, a_off], [-1, 0, 1], format="csc")
    return RadialOperator(
        ell=ell, t=t, block_size=1, grid=grid, matrix=a, weights=weights,
        potentials=[pot], nu_inner=(nu,), dirichlet_outer=not neumann_outer,
    )


def assemble_vertical_block(ell: int, t: float, h_values: np.ndarray,
                            grid: RadialGrid, neumann_outer: bool = False) -> RadialOperator:
    """Scalar block on the diagonal subbundle: potential 16 t^2 r cosh(2h).

    ``h_values`` must be sampled on ``grid`` (plus the boundary node for
    Neumann assemblies).  The ell = 0 instance is the linearization of the
    radial scalar reduction used by the Newton correction.
    """
    r = grid.r if not neumann_outer else np.append(grid.r, 1.0)
    if len(h_values) != len(r):
        raise ValueError("h samples do not match the grid")
    pot = ell ** 2 / r ** 2 + 16.0 * t * t * r * np.cosh(2.0 * h_values)
    a_main, a_off, weights, _ = _scalar_blocks(grid, pot, abs(ell), neumann_outer)
    a = sp.diags([a_off, a_main, a_off], [-1, 0, 1], format="csc")
    return RadialOperator(
        ell=ell, t=t, block_size=1, grid=grid, matrix=a, weights=weights,
        potentials=[pot], nu_inner=(abs(ell),), dirichlet_outer=not neumann_outer,
    )


def smallest_eigenvalue(op: RadialOperator) -> float:
    """Smallest eigenvalue of A u = lambda B u by standard-mode Lanczos.

    For a shift sigma below the spectrum, S (A - sigma B)^-1 S with S = sqrt(B)
    is symmetric positive definite, and its largest eigenvalue mu gives
    lambda_min = sigma + 1/mu.  ARPACK finds mu as a standard symmetric
    problem (``which="LA"``, ``tol=0``) from a fixed start vector; at
    sigma = 0 the solves reuse the block's own factorization ``op.lu``.
    The shift starts at zero; a semi-definite operator (Neumann with a
    constant kernel) makes that factorization singular, in which case a
    small negative shift is used instead.  Only a ``RuntimeError`` (singular
    factorization, ARPACK failure) moves on to the next shift; any other
    error, such as a malformed operator, propagates unchanged.
    """
    s = np.sqrt(op.weights)
    size = op.matrix.shape[0]
    v0 = np.ones(size)
    last_exc = None
    for sigma in (0.0, -1e-6, -1.0):
        try:
            if sigma == 0.0:
                lu = op.lu
            else:
                lu = splu((op.matrix - sigma * sp.diags(op.weights)).tocsc())
            inverse = LinearOperator((size, size), dtype=float,
                                     matvec=lambda x, lu=lu: s * lu.solve(s * x))
            mu = eigsh(inverse, k=1, which="LA", v0=v0, tol=0,
                       return_eigenvectors=False)
            return sigma + 1.0 / float(mu[0])
        except RuntimeError as exc:  # singular factorization, ARPACK failure
            last_exc = exc
    raise NumericalError(f"eigenvalue solve failed: {last_exc}") from last_exc


def apply_operator(op: RadialOperator, u: np.ndarray) -> np.ndarray:
    """Nodal application B^-1 A u (the operator itself, not the bilinear form)."""
    return (op.matrix @ u) / op.weights


def h2_surrogate_norm(op_l: RadialOperator, op_flat: RadialOperator,
                      max_iter: int = 400, tol: float = 1e-10) -> float:
    """Largest singular value of Delta G in the weighted norm.

    sigma_max of M = S^-1 P A^-1 S, where A, P are the assembled matrices of
    the full and flat blocks and S = sqrt(B), taken as the square root of the
    largest eigenvalue of M^T M by implicitly restarted Lanczos (ARPACK) from
    a deterministic fixed start vector.  The A^-1 solves reuse the block's
    factorization ``op_l.lu``, so a block whose smallest eigenvalue was
    already computed is not factored again; the flat block is never factored.
    ``tol`` is the relative accuracy asked of that eigenvalue and
    ``max_iter`` the cap on Lanczos restarts; a solve that does not converge
    within it raises NumericalError.
    """
    p = op_flat.matrix.tocsc()
    pt = p.T.tocsc()
    sw = np.sqrt(op_l.weights)
    lu = op_l.lu
    size = p.shape[0]
    v0 = np.sin(np.linspace(0.3, 7.0, size)) + 1.0

    def mtm_apply(vec):
        m_vec = (p @ lu.solve(sw * vec)) / sw
        return sw * lu.solve(pt @ (m_vec / sw))

    mtm = LinearOperator((size, size), matvec=mtm_apply, dtype=float)
    try:
        w = eigsh(mtm, k=1, which="LA", v0=v0, tol=tol, maxiter=max_iter,
                  return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NumericalError(
            f"H2 surrogate (ell={op_l.ell}, t={op_l.t:g}) did not converge to "
            f"tol={tol} in {max_iter} Lanczos restarts") from exc
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
    h, _, _ = radial_data(t, profile, grid.r)
    lam = []
    lam_vert = []
    surrogate = 0.0
    kappa = np.inf
    ells = list(range(ell_max + 1))
    for ell in ells:
        op = assemble_block(ell, t, profile, n=n, r_min=r_min)
        flat = assemble_block(ell, t, profile, n=n, r_min=r_min,
                              connection=False, higgs=False)
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
    callable of r or an array of samples on the solver grid.  Dirichlet at
    r = 1, ghost exponent |nu| at the inner end, so the homogeneous inner
    behavior is r^|nu|.
    """
    if not 0.5 < delta < 1.5:
        raise ValueError(f"delta={delta} outside the isomorphism window (1/2, 3/2)")
    grid = RadialGrid(n, r_min)
    r = grid.r
    b = rhs(r) if callable(rhs) else np.asarray(rhs, dtype=float)
    if b.shape != r.shape:
        raise ValueError("rhs samples do not match the solver grid")
    dx = grid.dx
    main = np.full(n, 2.0) / dx ** 2 + nu * nu
    main[0] = (2.0 - np.exp(-abs(nu) * dx)) / dx ** 2 + nu * nu
    off = np.full(n - 1, -1.0) / dx ** 2
    from scipy.linalg import solve_banded

    ab = np.zeros((3, n))
    ab[0, 1:] = off
    ab[1] = main
    ab[2, :-1] = off
    u = solve_banded((1, 1), ab, r * r * b)
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
