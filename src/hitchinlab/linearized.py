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
factorization, or on one of A - sigma B for a certified shift sigma: the
smallest eigenvalue is read off the largest one of S (A - sigma B)^-1 S with
S = sqrt(B), which is immune to the r^-2 entry spread of A.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dstebz, dstein

from .errors import NumericalError
from .fiducial import build_family
from .painleve import PsiProfile

DEFAULT_N = 2000
DEFAULT_R_MIN = 1e-6
MIN_GRID = 16
MIN_ELL_MAX = 8
SURROGATE_TOL = 1e-10
SURROGATE_PRUNE_MARGIN = 1e-6
# the step cap of every Lanczos run: the solves of a green_norms sweep take at
# most 18 steps (each t up to 1000, ell up to 64, n up to 800); a lone
# h2_surrogate_norm at ell = 64, t = 1000, n = 2000 takes 240
LANCZOS_MAX_STEPS = 500
# green_norms shifts each mode's eigen solve this far from the previous mode's
# lambda_min toward the quadratic extrapolation through the chain's last three
# values of its t.  Over green_norms(ts, 32, n) with ts = (0.5, 1, 2, 4, 8,
# 16, 30) at each n in {100, 300, 600, 800} (1652 extrapolated shifts; no t's
# chain reads another's), reach 0 (the previous value) took 27194 Lanczos
# products, 0.9 took 19139 and 0.99 14882 with no shift refused; 0.999 had
# 167 shifts refused (16796 products) and 1.0 had 932 (36374), each refusal
# costing a solve from sigma = 0.
SHIFT_REACH = 0.99


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

    @property
    def full_band(self) -> np.ndarray:
        """A in ``solve_banded``'s (k, k) layout, row k + i - j holding
        A[i, j]: the upper band, then the lower diagonals, which are the
        upper ones shifted by their offset."""
        k = self.block_size
        lower = [np.roll(self.band[k - d], -d) for d in range(1, k + 1)]
        return np.vstack([self.band, *lower])

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """A u, summed over the diagonals of the band."""
        k = self.block_size
        out = self.band[k] * u
        for d in range(1, k + 1):
            upper = self.band[k - d, d:]  # A[j - d, j] for j >= d
            out[:-d] += upper * u[d:]
            out[d:] += upper * u[:-d]
        return out

    @cached_property
    def solve(self):
        """b -> A^-1 b by banded Cholesky, factored on first use and shared
        by every solve on this block; ``RuntimeError`` unless A is positive
        definite."""
        return _band_solver(self.band)


def _cholesky(band: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of the symmetric band ``band`` (LAPACK upper storage),
    or None when a pivot is not positive.  A NaN pivot counts as not
    positive, as in reference LAPACK; optimized builds may pass it through,
    so the factor's diagonal is checked as well."""
    factor, info = dpbtrf(band)
    if info > 0 or not np.isfinite(factor[-1]).all():
        return None
    return factor


def _band_solver(band: np.ndarray):
    """Solver for the symmetric band ``band`` by its Cholesky factor;
    ``RuntimeError`` unless ``band`` is positive definite."""
    factor = _cholesky(band)
    if factor is None:
        raise RuntimeError("band is not positive definite")
    return lambda b: dpbtrs(factor, b)[0]


def _band_square(band: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A diag(w) A for the symmetric band A (upper storage, kd = k), in upper
    storage with kd = 2k, summed term by term over A's diagonals."""
    k, size = band.shape[0] - 1, band.shape[1]
    # diags[k + p, k + i] = A[i, i + p], zero off the matrix and in the k-column pads
    diags = np.zeros((2 * k + 1, size + 2 * k))
    for d in range(k + 1):
        diags[k + d, k:k + size - d] = band[k - d, d:]
        diags[k - d, k + d:k + size] = band[k - d, d:]
    w = np.pad(w, k)
    out = np.zeros((2 * k + 1, size))
    for d in range(2 * k + 1):
        m = size - d
        for p in range(d - k, k + 1):
            # A[i, i + p] w[i + p] A[i + p, i + d]
            out[2 * k - d, d:] += (diags[k + p, k:k + m] * w[k + p:k + p + m]
                                   * diags[k + d - p, k + p:k + p + m])
    return out


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


def _higgs_terms(t, r: np.ndarray, h: np.ndarray) -> tuple:
    """The Higgs terms on ``r`` of the family at t: the coupled block's
    coupling 8 t^2 r and diagonal 8 t^2 r cosh 2h_t, and the vertical
    block's potential 16 t^2 r cosh 2h_t."""
    cosh = np.cosh(2.0 * h)
    w_off = 8.0 * t * t * r
    return w_off, w_off * cosh, 16.0 * t * t * r * cosh


def _coupled_block(ell, t, grid: RadialGrid, r: np.ndarray, four_f: np.ndarray,
                   w_off: np.ndarray, w_diag: np.ndarray) -> RadialOperator:
    """The 2x2 block from samples on ``r``: 4 f_t in the connection terms,
    the Higgs coupling ``w_off`` and its diagonal ``w_diag``; zeros drop a
    term."""
    v_minus = (ell - four_f) ** 2 / r ** 2
    v_plus = (ell - 1 + four_f) ** 2 / r ** 2
    return _assemble(ell, t, grid, r, [v_minus + w_diag, v_plus + w_diag],
                     (abs(ell), abs(ell - 1)), w_off)


def _vertical_block(ell, t, grid: RadialGrid, r: np.ndarray,
                    w_vert: np.ndarray) -> RadialOperator:
    """The scalar block with potential ell^2 / r^2 + ``w_vert`` on the grid
    nodes ``r``."""
    return _assemble(ell, t, grid, r, [ell ** 2 / r ** 2 + w_vert], (abs(ell),))


def assemble_block(ell: int, t: float, profile: PsiProfile, n: int = DEFAULT_N,
                   connection: bool = True, higgs: bool = True,
                   neumann_outer: bool = False) -> RadialOperator:
    """Coupled 2x2 block of the linearized operator at mode ell.

    The two components carry potentials (ell -+ 4 f_t)^2 / r^2 (with f_t
    dropped when ``connection`` is False) and the coupling
    8 t^2 r [[cosh 2h_t, 1], [1, cosh 2h_t]] (dropped when ``higgs`` is
    False).  Inner regularity exponents are |ell| and |ell - 1|.  The flat
    block (both dropped) reads nothing from the profile.
    """
    grid = RadialGrid(n, DEFAULT_R_MIN)
    r = _nodes(grid, neumann_outer)
    zero = np.zeros_like(r)
    fam = build_family(t, profile, r) if connection or higgs else None
    w_off, w_diag, _ = _higgs_terms(t, r, fam.h) if higgs else (zero, zero, None)
    return _coupled_block(ell, t, grid, r, 4.0 * fam.f if connection else zero,
                          w_off, w_diag)


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
                            grid: RadialGrid) -> RadialOperator:
    """Scalar block on the diagonal subbundle: potential 16 t^2 r cosh(2h).

    ``h_values`` must be sampled on ``grid``.  The ell = 0 instance is the
    linearization of the radial scalar reduction used by the Newton
    correction.
    """
    r = grid.r
    if len(h_values) != len(r):
        raise ValueError("h samples do not match the grid")
    return _vertical_block(ell, t, grid, r, _higgs_terms(t, r, h_values)[2])


def _lanczos_largest(apply, v0: np.ndarray, tol: float, max_steps: int,
                     shift: float = 0.0):
    """Largest eigenvalue theta of the symmetric operator ``apply`` by
    Lanczos, with its unit Ritz vector: (theta, vector).

    Plain Lanczos from ``v0`` with full reorthogonalization: each new vector
    is orthogonalized against the whole basis by two passes of classical
    Gram-Schmidt ("twice is enough"; Parlett, The Symmetric Eigenvalue
    Problem, ch. 13), so no spurious copy of a converged value appears.
    The tridiagonal T_j is kept as its diagonal and off-diagonal in
    preallocated arrays.  From the third step on, its largest eigenvalue
    theta is found by bisection (LAPACK ``dstebz``) and the eigenvector s
    of theta by inverse iteration (``dstein``), O(j) each, where a full
    diagonalization costs O(j^3) per step on a long run.  beta_j |s_j| is
    the residual norm of the Ritz pair and bounds theta's error (Parlett,
    ch. 13).  The run stops once that bound is ``tol`` relative on
    lambda = ``shift`` + 1/theta, the value a shift-invert solve reads off:
    lambda moves by dtheta / theta^2 and 1 + shift theta = theta lambda, so
    the rule is beta_j |s_j| <= tol |theta| max(1, |1 + shift theta|).  The
    max keeps ARPACK's rule beta_j |s_j| <= tol |theta|, tol relative on
    theta, wherever theta |lambda| <= 1: at the default shift 0, and at any
    negative shift under a spectrum >= 0.  No rule is tighter than ARPACK's,
    so no run takes more steps than it did under that rule.  One product per
    step; NumericalError if the rule is not met within ``max_steps`` steps
    (or the dimension, if smaller).  The basis starts with 32 rows and
    doubles when full: numpy backs an array of 4 MiB or more with huge
    pages, so a basis sized for the cap would cost every solve a 2 MiB
    page fault and its resident memory.
    """
    steps = min(max_steps, len(v0))
    basis = np.empty((min(steps, 32), len(v0)))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    q = v0 / np.linalg.norm(v0)
    for j in range(steps):
        if j == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])
        basis[j] = q
        w = apply(q)
        span = basis[:j + 1]
        coef = span @ w
        w -= coef @ span
        w -= (span @ w) @ span
        alpha[j] = coef[j]
        beta[j] = np.sqrt(w @ w)
        if j >= 2 or beta[j] == 0.0:
            # f2py takes an off-diagonal of length at least 1; dstebz's range
            # 2 selects by index, here the (j + 1)-th and largest eigenvalue
            diag, off = alpha[:j + 1], beta[:max(j, 1)]
            _, theta, block, split, _ = dstebz(diag, off, 2, 0.0, 0.0, j + 1, j + 1,
                                               0.0, b"E")
            vec = dstein(diag, off, theta[:1], block, split)[0][:, 0]
            if beta[j] * abs(vec[-1]) <= tol * abs(theta[0]) * max(
                    1.0, abs(1.0 + shift * theta[0])):
                return float(theta[0]), vec @ span
        q = w / beta[j]
    raise NumericalError(f"Lanczos did not converge to tol={tol:g} in {steps} steps")


def smallest_eigenvalue(op: RadialOperator, below: float = 0.0,
                        start: np.ndarray | None = None) -> float:
    """Smallest eigenvalue of A u = lambda B u by standard-mode Lanczos.

    For a shift sigma below the spectrum, S (A - sigma B)^-1 S with S = sqrt(B)
    is symmetric positive definite, and its largest eigenvalue mu gives
    lambda_min = sigma + 1/mu.  ``_lanczos_largest`` finds mu within
    ``LANCZOS_MAX_STEPS`` products from ``start`` or, if None, from the
    vector of ones, and stops once mu's residual bound is machine epsilon
    relative on lambda_min (at sigma = 0 this is ARPACK's ``tol=0`` rule on
    mu, which a negative sigma under a spectrum >= 0 keeps too); a given
    ``start`` is overwritten with mu's Ritz
    vector, so that a chain of solves can pass it on.  At sigma = 0 the
    solves reuse the block's own factorization ``op.solve``.  A shift is
    accepted only when the banded Cholesky factorization of A - sigma B
    succeeds, that is when A - sigma B is positive definite, so sigma is
    certified to lie below the spectrum.  The ladder tries sigma = ``below``, 0, -1e-6, -1 (duplicates
    dropped).  ``below`` is a guess at a lower bound, such as the previous
    mode's lambda_min: the closer it lies under lambda_min, the fewer
    Lanczos steps; one that is not below the spectrum, or NaN, fails to
    factor and the ladder goes on at 0.  A semi-definite operator (Neumann
    with a constant kernel) that rounding leaves indefinite moves on to the
    small negative shift, and an operator whose smallest eigenvalue lies
    below -1 raises NumericalError.  Only a ``RuntimeError`` (factorization
    not positive definite, Lanczos step cap) moves on to the next shift; any
    other error, such as a malformed operator, propagates unchanged.
    """
    s = np.sqrt(op.weights)
    v0 = np.ones(op.band.shape[1]) if start is None else start
    last_exc = None
    for sigma in dict.fromkeys((below, 0.0, -1e-6, -1.0)):
        try:
            if sigma == 0.0:
                solve = op.solve
            else:
                shifted = op.band.copy()
                shifted[-1] -= sigma * op.weights
                solve = _band_solver(shifted)
            mu, ritz = _lanczos_largest(lambda x, solve=solve: s * solve(s * x), v0,
                                        np.finfo(float).eps, LANCZOS_MAX_STEPS, sigma)
            if start is not None:
                start[:] = ritz
            return sigma + 1.0 / mu
        except RuntimeError as exc:  # not positive definite, Lanczos step cap
            last_exc = exc
    raise NumericalError(f"eigenvalue solve failed: {last_exc}") from last_exc


def h2_surrogate_norm(op_l: RadialOperator, op_flat: RadialOperator) -> float:
    """Largest singular value of Delta G in the weighted norm.

    sigma_max of M = S^-1 P A^-1 S, where A, P are the assembled matrices of
    the full and flat blocks and S = sqrt(B), taken as the square root of the
    largest eigenvalue of M^T M = S A^-1 P B^-1 P A^-1 S (P is exactly
    symmetric) by ``_lanczos_largest`` from a deterministic fixed start
    vector.  The A^-1 solves reuse the block's Cholesky
    factorization ``op_l.solve``, so a block whose smallest eigenvalue was
    already computed at sigma = 0 is not factored again; the flat block is
    never factored.
    ``SURROGATE_TOL`` is the relative accuracy asked of that eigenvalue and
    ``LANCZOS_MAX_STEPS`` the cap on Lanczos steps; a solve that does
    not converge within it raises NumericalError.  This is the per-mode
    value; ``green_norms`` calls it only on the modes that
    ``_surrogate_certified_below`` cannot rule out.
    """
    sw = np.sqrt(op_l.weights)
    solve = op_l.solve
    v0 = np.sin(np.linspace(0.3, 7.0, len(sw))) + 1.0

    def mtm_apply(vec):
        m_vec = op_flat.matvec(solve(sw * vec)) / sw
        return sw * solve(op_flat.matvec(m_vec / sw))

    try:
        w, _ = _lanczos_largest(mtm_apply, v0, SURROGATE_TOL, LANCZOS_MAX_STEPS)
    except NumericalError as exc:
        raise NumericalError(f"H2 surrogate (ell={op_l.ell}, t={op_l.t:g}): {exc}") from exc
    return float(np.sqrt(w))


def _surrogate_certified_below(square: np.ndarray, flat_square: np.ndarray,
                               s: float) -> bool:
    """True when sigma_max(S^-1 P A^-1 S) < s is certified by inertia.

    Writing v = S^-1 A w, |S^-1 P A^-1 S v| < s |v| for all v != 0 reads
    |S^-1 P w| < s |S^-1 A w| for all w != 0, that is
    Z = s^2 A B^-1 A - P B^-1 P is positive definite.  ``square`` is
    A B^-1 A and ``flat_square`` P B^-1 P, each ``_band_square`` of its band
    over the weights 1 / B.  Z is a symmetric
    band (kd = 4 for the interleaved 2x2 blocks), and by Sylvester's law of
    inertia its banded Cholesky factorization succeeds exactly when it is.
    Forming Z squares A's condition number: at
    ell = 0 and 1, whose indicial exponent is 0, the verdict near sigma_max
    can be wrong, so ``green_norms`` never asks it there.
    """
    return _cholesky(s * s * square - flat_square) is not None


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
    surrogate_solved: list  # the ells on which h2_surrogate_norm ran; not reported

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


def _next_shift(chain: list) -> float:
    """Shift for the next mode's eigen solve from its chain's lambda_min so far.

    With three values or more this is ``SHIFT_REACH`` of the way from the last
    value to the quadratic extrapolation p = 3 l[-1] - 3 l[-2] + l[-3];
    with fewer it is the last value, and 0 for an empty chain.
    """
    if len(chain) < 3:
        return chain[-1] if chain else 0.0
    a, b, c = chain[-3:]
    return c + SHIFT_REACH * ((3.0 * c - 3.0 * b + a) - c)


def green_norms(ts, ell_max: int, profile: PsiProfile, n: int = 600) -> list:
    """Per-mode smallest eigenvalues and Green-operator norm estimates: one
    report per t of ``ts``, in order.

    The sweep goes mode by mode across every t.  A mode's flat block
    depends on (ell, n) only, so it is built once and serves every t.  For
    ell >= 2 the mode's coupled blocks of every t are built first, and one
    ``_band_square`` call over the band of the block-diagonal matrix
    diag(P, A_1, ..., A_T) gives the flat square P B^-1 P and each
    certificate's A B^-1 A, bit for bit as one call per block would.  Each
    t keeps its own chains (lambda_min lists, Ritz start vectors, running
    surrogate maximum, the modes that ran Lanczos, kappa_hat), so its report
    is the one a sweep over that t alone gives.  Its family samples and Higgs terms are computed once, before the
    mode loop, and so are the indicial roots, which no t changes.
    The L2 -> L2 norm is the max of 1/lambda_min over the coupled blocks for
    0 <= ell <= ell_max (negative modes coincide with ell -> 1 - ell by the
    swap symmetry of the block) together with the diagonal-subbundle blocks.
    By the same symmetry ell = 1 is the ell = 0 block, so it reuses ell = 0's
    lambda_min and surrogate.
    Each chain's solve at ell >= 1 is shifted (``smallest_eigenvalue``'s
    ``below``) by ``_next_shift`` over the values the chain has solved
    (ell = 1's copy joins only after the loop): from the fourth on, just
    under the quadratic extrapolation through the last three, before that
    the last.  Only that last value lies below the spectrum by min-max: in
    a vertical block the potential ell^2 / r^2 and the ghost exponent |ell|
    both grow with ell; in a coupled block with ell >= 2 and f in [0, 1/8]
    the diagonal terms (ell - 4f)^2 and (ell - 1 + 4f)^2 and the exponents
    (|ell|, |ell - 1|) all grow while the coupling stays fixed, and ell = 2
    compares with ell = 1, the ell = 0 block with its components swapped,
    the same way.  The extrapolated shift is certified by the Cholesky factorization
    alone: one above the spectrum (or any shift that rounding puts there)
    fails to factor and the ladder falls back to sigma = 0, so the value
    never depends on the guess.  Each chain's Lanczos run also starts from
    the Ritz vector of the chain's previous solve, the first from ones
    (``smallest_eigenvalue``'s ``start``): at t = 1, n = 600 this takes the
    sweep from 457 products to 396, and stopping each run on lambda rather
    than on mu (``_lanczos_largest``'s ``shift``) to 342.  ell = 0 keeps
    sigma = 0, so its cached factorization ``op.solve`` serves the
    surrogate too; a block with
    ell >= 2 whose certificate fails factors A once more for the surrogate.
    The H2 surrogate composes the discrete flat Laplacian with each block
    inverse; the report keeps its maximum over modes.  Lanczos
    (``h2_surrogate_norm``) always runs at ell = 0.  Each ell >= 2 is first
    tested by ``_surrogate_certified_below`` at (1 - SURROGATE_PRUNE_MARGIN)
    times the running maximum, and runs Lanczos only when that test fails.
    A certified mode cannot raise the maximum, and the test never supplies
    a value, so the maximum is the one solving every mode gives.  ell = 0
    and 1 are never tested, since the test is unreliable at indicial
    exponent 0.  ``surrogate_solved`` lists the modes that ran Lanczos.
    ``kappa_hat`` is the empirical potential floor divided by ell^2,
    minimized over ell >= 2.  A t outside ``fiducial.check_t``'s range
    raises ValueError from ``build_family`` before any mode is solved.
    """
    if ell_max < MIN_ELL_MAX:
        raise ValueError(f"ell_max must be at least {MIN_ELL_MAX}")
    grid = RadialGrid(n, DEFAULT_R_MIN)
    r = grid.r
    zero = np.zeros_like(r)
    ells = list(range(ell_max + 1))
    roots = indicial_roots(range(-ell_max, ell_max + 1))["aggregate"]
    # each t's report fills in as its chains run; g_norm_l2 is set after the loop
    reports, chains = [], []
    for t in ts:
        fam = build_family(t, profile, r)
        reports.append(SpectralReport(
            t=t, n=n, ells=list(ells), lambda_min=[], lambda_min_vertical=[],
            g_norm_l2=np.nan, g_norm_h2_surrogate=0.0, kappa_hat=np.inf,
            indicial=list(roots), surrogate_solved=[]))
        # 4 f, the Higgs terms, and each chain's start vector: every solve
        # leaves its Ritz vector for the next
        chains.append((4.0 * fam.f, *_higgs_terms(t, r, fam.h), np.ones(2 * n),
                       np.ones(n)))
    for ell in ells:
        flat = _coupled_block(ell, 0.0, grid, r, zero, zero, zero)
        # ell = 1 is the ell = 0 pair with its components swapped: same
        # lambda_min and surrogate, inserted after the loop
        ops = [None if ell == 1 else _coupled_block(ell, rep.t, grid, r, four_f, w_off, w_diag)
               for rep, (four_f, w_off, w_diag, *_) in zip(reports, chains)]
        squares = [None] * (1 + len(ops))  # P B^-1 P, then each t's A B^-1 A
        if ell >= 2:
            # the bands side by side are the band of diag(P, A_1, ..., A_T),
            # since _assemble leaves their out-of-matrix entries zero, and all
            # blocks share the weights B: one square gives each block's own
            squares = np.split(_band_square(np.hstack([flat.band, *(op.band for op in ops)]),
                                            np.tile(1.0 / flat.weights, 1 + len(ops))),
                               1 + len(ops), axis=1)
        flat_square = squares[0]
        for rep, op, square, (*_, w_vert, start, start_vert) in zip(reports, ops, squares[1:],
                                                                    chains):
            t, lam, lam_vert = rep.t, rep.lambda_min, rep.lambda_min_vertical
            lam_vert.append(smallest_eigenvalue(_vertical_block(ell, t, grid, r, w_vert),
                                                _next_shift(lam_vert), start_vert))
            if op is None:
                continue
            lam.append(smallest_eigenvalue(op, _next_shift(lam), start))
            if ell == 0 or not _surrogate_certified_below(
                    square, flat_square, (1.0 - SURROGATE_PRUNE_MARGIN) * rep.g_norm_h2_surrogate):
                rep.g_norm_h2_surrogate = max(rep.g_norm_h2_surrogate,
                                              h2_surrogate_norm(op, flat))
                rep.surrogate_solved.append(ell)
            if ell >= 2:
                rep.kappa_hat = min(rep.kappa_hat, potential_floor(op) / ell ** 2)
    for rep in reports:
        rep.lambda_min.insert(1, rep.lambda_min[0])
        rep.g_norm_l2 = float(max(1.0 / np.array(rep.lambda_min + rep.lambda_min_vertical)))
    return reports


def indicial_roots(ell_range) -> dict:
    """Indicial roots of the conic connection Laplacian, exact rationals.

    Per mode ell the scalar (diagonal) equation contributes nu = +-ell and
    the coupled pair contributes nu = +-|ell +- 1/2|; the aggregate over all
    |ell| <= L is exactly the half-integers {m/2 : |m| <= 2L + 1}.
    Returns {"per_ell": {ell: [(root, multiplicity), ...]}, "aggregate":
    sorted list of distinct roots}.
    """
    per_ell = {}
    for ell in ell_range:
        ell = int(ell)
        # each root nu counted as the integer 2 nu
        up, down = abs(2 * ell + 1), abs(2 * ell - 1)
        per_ell[ell] = sorted(Counter((2 * ell, -2 * ell, up, -up, down, -down)).items())
    half = {m: Fraction(m, 2) for roots in per_ell.values() for m, _ in roots}
    return {"per_ell": {ell: [(half[m], mult) for m, mult in roots]
                        for ell, roots in per_ell.items()},
            "aggregate": [half[m] for m in sorted(half)]}


def restricted_indicial_roots(ell_range) -> list:
    """Roots on the twisted (anti-periodic) subbundle: ell + 1/2 per ell."""
    return sorted(Fraction(2 * int(ell) + 1, 2) for ell in ell_range)


@dataclass(eq=False)
class ConicSolution:
    nu: float
    delta: float
    r: np.ndarray
    u: np.ndarray


def conic_poisson_solve(nu: float, rhs, delta: float, n: int = 6000) -> ConicSolution:
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
    op = assemble_scalar(nu, n=n)
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


def inner_decay_exponent(sol: ConicSolution) -> float:
    """Log-log slope of |u| over the radial window [1e-3, 1e-2]."""
    sel = (sol.r >= 1e-3) & (sol.r <= 1e-2) & (np.abs(sol.u) > 0)
    if sel.sum() < 8:
        raise ValueError("window contains too few grid points")
    slope, _ = np.polyfit(np.log(sol.r[sel]), np.log(np.abs(sol.u[sel])), 1)
    return float(slope)
