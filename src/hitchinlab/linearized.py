"""Fourier-block reduction of the linearized operator at the radial pair.

Each block is one radial operator -(1/r^2)(r d_r)^2 + V on (0, 1) with the
measure r dr, V holding nu^2 / r^2 per component, and is given once by a
``_Terms`` description: each component's inner exponent nu, the rest of its
potential, and the coupling of two components.  Two discretizations read it.

The finite-difference one (``_assemble``) serves the scalar operators: a
three-point stencil for -(r d_r)^2 + r^2 V on the log-uniform grid
x = log r, where (r d_r)^2 is exactly d_x^2, second order, with the ghost
node following r^nu and r = 1 Dirichlet or a half-cell Neumann end.  Each
operator is its symmetric tridiagonal band (``RadialOperator.band``),
factored once by LDL^T (``RadialOperator.solve``), which certifies it
positive definite; ``smallest_eigenvalue`` reads lambda_min off the largest
eigenvalue of S A^-1 S, S = sqrt(B), by Lanczos, and an operator that is
not positive definite raises NumericalError.  The Bessel oracle, the conic
Poisson solve and the gluing Newton use it.  The flat stencil on its own,
applied to nodal values with given ghosts, is ``RadialGrid.second_difference``:
the gluing residual and the conic round trip take it from there.

The spectral one (``green_norms``) is a Galerkin discretization.  Each
component's basis is u_k = x^nu (1 - x^2) P_k^(2, nu)(2 x^2 - 1),
k < n, with P^(2, nu) a Jacobi polynomial, in the variable x of the map
r = sinh(beta x) / sinh(beta), beta = ``MAP_RATE`` log t for t > 1 and
r = x otherwise: the map is odd, so u stays r^nu times an even function
of r, the regular branch at the pole (Trefethen, Spectral Methods in
MATLAB, ch. 11; Boyd, Chebyshev and Fourier Spectral Methods, on pole
conditions), and it clusters the basis toward the core of radius
t^(-2/3).  The integrals are Gauss-Legendre sums over 2n nodes in
sigma = x^2, where every integrand is smooth, and each exponent's basis is
made orthonormal in the mass int u^2 r dr, so a block is one symmetric
stiffness matrix K.  Written as (ell - 4f)^2 / r^2 = ell^2 / r^2 + (16 f^2 - 8 ell f) / r^2,
nothing cancels near r = 0.  The quadrature weights are positive and the
same for mass and potential, so by the discrete min-max lambda_min is at
least the smallest eigenvalue of the potential matrix over the nodes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf, dpttrf, dpttrs, dstebz, dstein, dsyevr, dtrtri
from scipy.special import roots_legendre

from .errors import NumericalError
from .fiducial import build_family
from .painleve import PsiProfile

DEFAULT_R_MIN = 1e-6
MIN_GRID = 16
MIN_ELL_MAX = 8
SURROGATE_PRUNE_MARGIN = 1e-6
# the step cap of every Lanczos run; the Bessel oracle takes 10 steps at
# n = 500 to 8000, a vertical block at ell = 64, n = 2000 up to 65 (t = 100)
LANCZOS_MAX_STEPS = 500
# green_norms' Galerkin basis: n functions per component, doubled from
# GALERKIN_N until the probe's lambda_min at n and 2n agree to GALERKIN_RTOL
# relative, or to ROUNDING_MARGIN times the rounding floor if larger
# (_basis_size); no agreement by GALERKIN_N_MAX raises.  At lmax 32, t <= 30
# takes n = 24, t = 100 takes 48 and t = 300 and 1000 take 96
GALERKIN_N = 24
GALERKIN_N_MAX = 96
GALERKIN_RTOL = 1e-10
ROUNDING_MARGIN = 4.0
MAP_RATE = 0.87
# the most rows a dense Cholesky factorization or triangular inverse hands to
# LAPACK in one call; see _cholesky_dense
BLOCK_ROWS = 64


@dataclass(frozen=True)
class RadialGrid:
    """Log-uniform interior nodes on (r_min, 1); the Dirichlet node r = 1 is
    excluded, for Neumann assemblies a half-cell boundary node is appended."""

    n: int
    r_min: float

    def __post_init__(self):
        if not (float(self.n).is_integer() and self.n >= MIN_GRID):
            raise ValueError(f"grid size must be an integer of at least {MIN_GRID}")
        if not 0 < self.r_min < 1:
            raise ValueError("r_min must lie in (0, 1)")

    @property
    def dx(self) -> float:
        return -np.log(self.r_min) / self.n

    @property
    def x(self) -> np.ndarray:
        return np.log(self.r_min) + self.dx * np.arange(self.n)

    @cached_property
    def r(self) -> np.ndarray:
        """The nodes, computed on first use and read-only."""
        r = np.exp(self.x)
        r.flags.writeable = False
        return r

    def second_difference(self, v: np.ndarray, inner: float, outer: float) -> np.ndarray:
        """The flat stencil (v_(i-1) - 2 v_i + v_(i+1)) / dx^2 at the nodes,
        with ghost values ``inner`` at r_min e^(-dx) and ``outer`` at r = 1,
        as a difference of neighbour differences: those are exact for
        neighbouring values (Sterbenz), so only the result is rounded."""
        return np.diff(np.diff(np.concatenate(([inner], v, [outer])))) / self.dx ** 2


@dataclass(eq=False)
class RadialOperator:
    """Discretized scalar operator A u = lambda B u in nodal values.

    ``band`` is the symmetric tridiagonal stiffness-plus-potential matrix A
    in LAPACK upper band storage: row 1 is the diagonal and row 0 holds
    A[j - 1, j] in column j.  ``weights`` is the diagonal of B (cell mass
    r^2 per unit x).  Every use needs A positive definite, which its
    factorization ``solve`` certifies.
    """

    grid: RadialGrid
    band: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @cached_property
    def solve(self):
        """b -> A^-1 b on the band's own factorization (``_band_solver``),
        factored on first use and shared by every solve on this block;
        NumericalError unless A is positive definite."""
        return _band_solver(self.band)


def _band_solver(band: np.ndarray):
    """Solver for the symmetric tridiagonal ``band`` (LAPACK upper storage)
    by LDL^T (``dpttrf``), which needs no pivoting when positive definite
    (Higham, Accuracy and Stability of Numerical Algorithms, on tridiagonal
    systems).  NumericalError unless ``band`` is positive definite; a NaN
    pivot counts as not positive, which ``dpttrf`` and optimized builds may
    pass through, so the factor's diagonal is checked as well."""
    d, e, info = dpttrf(band[1], band[0, 1:])
    if info != 0 or not np.isfinite(d).all():
        raise NumericalError("band is not positive definite")
    return lambda b: dpttrs(d, e, b)[0]


@dataclass(frozen=True)
class _Terms:
    """One block on the samples ``r`` (any leading axes, radius last): per
    component its inner exponent nu and ``rest``, its potential less
    nu^2 / r^2, and the ``coupling`` of two components (None for one)."""

    r: np.ndarray
    nus: tuple
    rest: tuple
    coupling: np.ndarray | None = None

    @property
    def potentials(self) -> list:
        return [nu ** 2 / self.r ** 2 + rest for nu, rest in zip(self.nus, self.rest)]


def _higgs_terms(t, r: np.ndarray, h: np.ndarray) -> tuple:
    """The Higgs terms on ``r`` of the family at t: the coupled block's
    coupling 8 t^2 r and diagonal 8 t^2 r cosh 2h_t, and the vertical
    block's potential 16 t^2 r cosh 2h_t."""
    cosh = np.cosh(2.0 * h)
    w_off = 8.0 * t * t * r
    return w_off, w_off * cosh, 16.0 * t * t * r * cosh


def _coupled_terms(ell, r: np.ndarray, four_f: np.ndarray, w_off: np.ndarray,
                   w_diag: np.ndarray) -> _Terms:
    """The 2x2 block from 4 f_t, the Higgs coupling ``w_off`` and its
    diagonal ``w_diag`` on ``r`` (zeros drop a term): potentials
    (ell - 4f)^2 / r^2 and (ell - 1 + 4f)^2 / r^2 plus ``w_diag``, inner
    exponents |ell| and |ell - 1|."""
    f2 = four_f * four_f
    return _Terms(r, (abs(ell), abs(ell - 1)),
                  ((f2 - 2 * ell * four_f) / r ** 2 + w_diag,
                   (f2 + 2 * (ell - 1) * four_f) / r ** 2 + w_diag), w_off)


def _vertical_terms(ell, r: np.ndarray, w_vert: np.ndarray) -> _Terms:
    """The scalar block with potential ell^2 / r^2 + ``w_vert``."""
    return _Terms(r, (abs(ell),), (w_vert,))


def _assemble(grid: RadialGrid, terms: _Terms) -> RadialOperator:
    """Band and masses of -(r d_r)^2 + r^2 V for the scalar block ``terms``
    on its nodes.

    The ghost u_{-1} = e^{-nu dx} u_0 follows the regular branch r^nu.  One
    node more than the grid has is the Neumann end r = 1, a half cell: it
    halves mass and potential but not the flux difference, so the matrix
    stays symmetric.
    """
    r = terms.r
    (nu,), (pot,) = terms.nus, terms.potentials
    dx2 = grid.dx ** 2
    stiff = np.full(len(r), 2.0)
    cells = np.ones(len(r))
    if len(r) > grid.n:
        stiff[-1] = 1.0
        cells[-1] = 0.5
    stiff[0] = 2.0 - np.exp(-nu * grid.dx)
    mass = cells * r ** 2
    band = np.zeros((2, len(r)))
    band[1] = stiff / dx2 + mass * pot
    band[0, 1:] = -1.0 / dx2
    return RadialOperator(grid=grid, band=band, weights=mass)


def assemble_scalar(ell: int, n: int, r_min: float = DEFAULT_R_MIN,
                    potential=None, neumann_outer: bool = False) -> RadialOperator:
    """Scalar radial operator -(1/r^2)(r d_r)^2 + ell^2/r^2 + potential(r).

    With ``potential`` None this is the mode-ell flat Laplacian whose zero
    mode is the Bessel operator used as spectral oracle.  The inner ghost
    exponent is |ell|.  ``neumann_outer`` appends the half-cell node r = 1,
    a Neumann end in place of the Dirichlet one.
    """
    grid = RadialGrid(n, r_min)
    r = np.append(grid.r, 1.0) if neumann_outer else grid.r
    rest = np.zeros_like(r) if potential is None else potential(r)
    return _assemble(grid, _Terms(r, (abs(ell),), (rest,)))


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
    return _assemble(grid, _vertical_terms(ell, r, _higgs_terms(t, r, h_values)[2]))


def _lanczos_largest(apply, v0: np.ndarray, max_steps: int):
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
    diagonalization would cost O(j^3).  The reorthogonalization costs
    O(j n) per step, which the few dozen steps of the eigen solves here
    keep small.  beta_j |s_j| is the residual norm of the Ritz pair and
    bounds theta's error (Parlett, ch. 13).  The run stops by ARPACK's
    ``tol=0`` rule beta_j |s_j| <= eps |theta|, machine epsilon relative on
    theta, which every caller wants.  One product per step; NumericalError if
    the rule is not met within ``max_steps`` steps (or the dimension, if
    smaller).  The basis starts with 32 rows and doubles when full: numpy
    backs an array of 4 MiB or more with huge pages, so a basis sized for
    the cap would cost every solve a 2 MiB page fault and its resident
    memory.
    """
    steps = min(max_steps, len(v0))
    basis = np.empty((min(steps, 32), len(v0)))
    alpha = np.empty(steps)
    beta = np.empty(steps)
    q = v0 / np.linalg.norm(v0)
    eps = np.finfo(float).eps
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
            if beta[j] * abs(vec[-1]) <= eps * abs(theta[0]):
                return float(theta[0]), vec @ span
        q = w / beta[j]
    raise NumericalError(f"Lanczos did not converge to machine precision in {steps} steps")


def smallest_eigenvalue(op: RadialOperator) -> float:
    """Smallest eigenvalue of A u = lambda B u by standard-mode Lanczos.

    For A positive definite, S A^-1 S with S = sqrt(B) is symmetric positive
    definite, and its largest eigenvalue mu gives lambda_min = 1/mu.
    ``_lanczos_largest`` finds mu within ``LANCZOS_MAX_STEPS`` products from
    the vector of ones, on the block's own factorization ``op.solve``, and
    stops once mu's residual bound is machine epsilon relative on mu
    (ARPACK's ``tol=0`` rule).  NumericalError when the factorization finds
    A not positive definite, or at the step cap; any other error, such as a
    malformed operator, propagates unchanged.
    """
    solve = op.solve
    s = np.sqrt(op.weights)
    mu, _ = _lanczos_largest(lambda x: s * solve(s * x), np.ones(op.band.shape[1]),
                             LANCZOS_MAX_STEPS)
    return 1.0 / mu


def potential_floor(terms: _Terms):
    """min over radius of the smallest eigenvalue of the potential matrix.

    The samples of ``terms``, a coupled block's, may carry leading axes
    (one floor per row).  The off-diagonal coupling is included, so the
    floor is a true lower bound for the operator (the derivative part is
    nonnegative).
    """
    v1, v2 = terms.potentials
    gap = np.sqrt(0.25 * (v1 - v2) ** 2 + terms.coupling ** 2)
    return (0.5 * (v1 + v2) - gap).min(axis=-1)


@dataclass(eq=False)
class SpectralReport:
    t: float
    n: int
    lambda_2n_reldiff: float
    ells: list
    lambda_min: list
    lambda_min_vertical: list
    g_norm_l2: float
    g_norm_h2_surrogate: float
    kappa_hat: float
    indicial: list
    surrogate_solved: list  # the ells whose surrogate was computed; not reported

    def to_dict(self) -> dict:
        return {
            "t": self.t,
            "n": self.n,
            "lambda_2n_reldiff": self.lambda_2n_reldiff,
            "l": list(self.ells),
            "lambda_min": list(self.lambda_min),
            "lambda_min_vertical": list(self.lambda_min_vertical),
            "g_norm_l2": self.g_norm_l2,
            "g_norm_h2_surrogate": self.g_norm_h2_surrogate,
            "kappa_hat": self.kappa_hat,
            "indicial": [float(v) for v in self.indicial],
        }


@cache
def _legendre(n: int) -> tuple:
    """The 2n Gauss-Legendre nodes in sigma = x^2 on (0, 1), as x, and the
    weights of int_0^1 F(x) dx = int_0^1 F(sqrt sigma) dsigma / (2 sqrt sigma),
    read-only."""
    s, w = roots_legendre(2 * n)
    x = np.sqrt(0.5 * (s + 1.0))
    wx = 0.25 * w / x
    x.flags.writeable = wx.flags.writeable = False
    return x, wx


@lru_cache(maxsize=4)
def _bases(nus: tuple, n: int) -> tuple:
    """(u, du), read-only (len(nus), nodes, n) arrays: for each nu of ``nus`` the
    functions u_k = x^nu (1 - x^2) P_k^(2, nu)(2 x^2 - 1), k < n, and
    d u_k / dx at the nodes of ``_legendre(n)``, each u_k scaled to
    int_0^1 u_k^2 x dx = 1 (the P_k are orthogonal there).

    P_k and dP_k/ds follow the three-term recurrence in k (Abramowitz and
    Stegun 22.7.1) and its derivative, for every nu at once.
    """
    x, wx = _legendre(n)
    s = 2.0 * x * x - 1.0
    a, b = 2.0, np.array(nus, dtype=float)[:, None]
    # the recurrence writes one contiguous (nu, node) plane per k
    p = np.zeros((n, len(b), len(x)))
    dp = np.zeros_like(p)
    p[0] = 1.0
    if n > 1:
        p[1] = (a + 1.0) + 0.5 * (a + b + 2.0) * (s - 1.0)
        dp[1] = 0.5 * (a + b + 2.0)
    for k in range(1, n - 1):
        c = 2.0 * k + a + b
        lin = (c + 1.0) * (a * a - b * b) + c * (c + 1.0) * (c + 2.0) * s
        back, den = 2.0 * (k + a) * (k + b) * (c + 2.0), 2.0 * (k + 1) * (k + a + b + 1.0) * c
        p[k + 1] = (lin * p[k] - back * p[k - 1]) / den
        dp[k + 1] = (lin * dp[k] + c * (c + 1.0) * (c + 2.0) * p[k] - back * dp[k - 1]) / den
    # k last again, one array at a time, so at most one extra copy is live
    p = np.moveaxis(p, 0, -1).copy()
    dp = np.moveaxis(dp, 0, -1).copy()
    # in place, p becomes u and dp becomes du / dx
    lead = x ** b * (1.0 - x * x)
    dp *= (4.0 * x * lead)[..., None]
    dp += (b * x ** (b - 1.0) * (1.0 - x * x) - 2.0 * x ** (b + 1.0))[..., None] * p
    p *= lead[..., None]
    scale = 1.0 / np.sqrt(np.einsum("m,vmk,vmk->vk", wx * x, p, p))[:, None, :]
    p *= scale
    dp *= scale
    p.flags.writeable = dp.flags.writeable = False
    return p, dp


def _gram(u: np.ndarray, w: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """u^T diag(w) v (v = u by default) for each row of the weights ``w``;
    u and v are (nodes, n) or one such array per row."""
    return (u.swapaxes(-1, -2) * w[:, None, :]) @ (u if v is None else v)


def _cholesky_dense(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of the symmetric ``a`` (lower triangle read),
    or None unless every pivot is positive; a NaN pivot is not.

    Past ``BLOCK_ROWS`` rows it recurses on the 2x2 block form,
    L21 = A21 L11^-T and L22 = chol(A22 - L21 L21^T): LAPACK's dpotrf rounds
    differently with the BLAS thread count from 128 rows on, and the blocks'
    products do not.
    """
    n = len(a)
    if n > BLOCK_ROWS:
        h = n // 2
        l11 = _cholesky_dense(a[:h, :h])
        l21 = None if l11 is None else a[h:, :h] @ _triangular_inverse(l11).T
        l22 = None if l21 is None else _cholesky_dense(a[h:, h:] - l21 @ l21.T)
        return None if l22 is None else np.block([[l11, np.zeros((h, n - h))], [l21, l22]])
    factor, info = dpotrf(a, lower=1)
    if info != 0 or not np.isfinite(factor.diagonal()).all():
        return None
    return factor


def _triangular_inverse(lower: np.ndarray) -> np.ndarray:
    """The inverse of a lower triangular matrix; past ``BLOCK_ROWS`` rows by
    the 2x2 block form, (L^-1)21 = -L22^-1 L21 L11^-1, since dtrtri rounds
    differently with the BLAS thread count from 160 rows on."""
    n = len(lower)
    if n <= BLOCK_ROWS:
        return dtrtri(lower, lower=1)[0]
    h = n // 2
    i11, i22 = _triangular_inverse(lower[:h, :h]), _triangular_inverse(lower[h:, h:])
    return np.block([[i11, np.zeros((h, n - h))], [-i22 @ lower[h:, :h] @ i11, i22]])


def _top_eigenvalue(a: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric ``a``, to rounding relative to it;
    past 3 ``BLOCK_ROWS`` rows by Lanczos, since dsyevr (and dsyevd) round
    differently with the BLAS thread count from 256 rows on."""
    if len(a) > 3 * BLOCK_ROWS:
        return _lanczos_largest(lambda x: a @ x, np.ones(len(a)), LANCZOS_MAX_STEPS)[0]
    return float(dsyevr(a, compute_v=0, range="I", il=len(a), iu=len(a))[0][0])


def _inverse_factor(a: np.ndarray, what: str) -> np.ndarray:
    """L^-1 for the Cholesky factor L of ``a``; NumericalError, naming
    ``what``, unless ``a`` is positive definite."""
    factor = _cholesky_dense(a)
    if factor is None:
        raise NumericalError(f"Galerkin {what} matrix is not positive definite")
    return _triangular_inverse(factor)


def _smallest(k: np.ndarray) -> tuple:
    """(lambda_min, K^-1) of the stiffness K in a mass-orthonormal basis.

    lambda_min is 1 / mu for the largest eigenvalue mu of K^-1 = L^-T L^-1,
    so it is good to rounding relative to itself, where the smallest
    eigenvalue of K would be good only relative to the largest.
    """
    inv = _inverse_factor(k, "stiffness")
    k_inv = inv.T @ inv
    return 1.0 / _top_eigenvalue(k_inv), k_inv


def _surrogate_gram(k_inv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Z^T Z for Z = P K^-1 = I - V K^-1 in a mass-orthonormal basis, P = K - V
    the flat part: the flat operator after the block's inverse, whose largest
    singular value is the H2 surrogate.  V is bounded, so Z is formed
    without P's large entries."""
    z = -(v @ k_inv)
    z.flat[::len(z) + 1] += 1.0
    return z.T @ z


def _node_row(t: float, profile: PsiProfile, n: int) -> tuple:
    """(r, wm, wd, 4f, w_off, w_diag, w_vert) of the family at t on the
    mapped nodes of ``_legendre(n)``: the profile's one evaluation there."""
    x, wx = _legendre(n)
    beta = MAP_RATE * math.log(t) if t > 1.0 else 0.0
    if beta > 0.0:
        r, dr = np.sinh(beta * x) / math.sinh(beta), beta * np.cosh(beta * x) / math.sinh(beta)
    else:
        r, dr = x, np.ones_like(x)
    fam = build_family(t, profile, r)
    # int F r dr = sum wm F; int (dF/dr)^2 r dr = sum wd (dF/dx)^2
    return (r, wx * r * dr, wx * r / dr, 4.0 * fam.f, *_higgs_terms(t, r, fam.h))


class _Galerkin:
    """The Galerkin stiffness matrices of the family at each of ``ts``, n
    basis functions per component, each t on its own mapped nodes, for the
    exponents ``nus``.  ``known`` maps (t, n) to a ``_node_row`` already
    evaluated; the rows evaluated here are added to it."""

    def __init__(self, ts, profile: PsiProfile, n: int, nus, known: dict):
        for t in ts:
            if (t, n) not in known:
                known[t, n] = _node_row(t, profile, n)
        rows = [known[t, n] for t in ts]
        self.n = n
        self._bases = dict(zip(nus, zip(*_bases(tuple(nus), n))))
        self.r, self.wm, self.wd, self.four_f, self.w_off, self.w_diag, self.w_vert = (
            np.array(col) for col in zip(*rows))
        self._flat = {}

    def flat(self, nu: int) -> tuple:
        """(u, P) of exponent nu, per t: the basis made orthonormal in the
        mass int u^2 r dr, and the flat stiffness
        P = int (u'^2 + nu^2 u^2 / r^2) r dr in it."""
        if nu not in self._flat:
            u, du = self._bases[nu]
            to_orthonormal = np.array([_inverse_factor(m, f"nu={nu} mass").T
                                       for m in _gram(u, self.wm)])
            u, du = u @ to_orthonormal, du @ to_orthonormal
            self._flat[nu] = (u, _gram(du, self.wd) + _gram(u, self.wm * (nu ** 2 / self.r ** 2)))
            # modes run in order and read exponents ell and ell - 1 only
            self._flat.pop(nu - 2, None)
        return self._flat[nu]

    def coupled(self, ell: int) -> tuple:
        """(terms, K, V) of the coupled blocks at ell, per t: K = P + V, V
        the potential past the flat nu^2 / r^2 and the coupling."""
        terms = _coupled_terms(ell, self.r, self.four_f, self.w_off, self.w_diag)
        (u1, p1), (u2, p2) = (self.flat(nu) for nu in terms.nus)
        n = self.n
        v = np.empty((len(self.r), 2 * n, 2 * n))
        v[:, :n, :n] = _gram(u1, self.wm * terms.rest[0])
        v[:, n:, n:] = _gram(u2, self.wm * terms.rest[1])
        v[:, n:, :n] = _gram(u2, self.wm * terms.coupling, u1)
        v[:, :n, n:] = v[:, n:, :n].swapaxes(1, 2)
        k = v.copy()
        k[:, :n, :n] += p1
        k[:, n:, n:] += p2
        return terms, k, v

    def vertical(self, ell: int) -> np.ndarray:
        """K of the vertical blocks at ell, per t."""
        terms = _vertical_terms(ell, self.r, self.w_vert)
        u, p = self.flat(terms.nus[0])
        return p + _gram(u, self.wm * terms.rest[0])


def _probe(t: float, profile: PsiProfile, n: int, ell_max: int, known: dict) -> tuple | None:
    """(lambda_min, tol) at t on n functions per component of the blocks
    slowest to converge: the coupled one at ell = 0 and the vertical ones at
    ell = 0 and ``ell_max`` (at t = 300 and n = 48 the ell = 32 vertical
    block is 9e-8 off, ell = 0 2e-13).  None when a block is not positive
    definite, as a high exponent's basis is on too few nodes (nu = 200 at
    n = 24).

    tol is ``GALERKIN_RTOL``, or ``ROUNDING_MARGIN`` times the blocks'
    rounding floor eps v / lambda where that is larger: v, the largest
    Higgs potential 8 t^2 r (cosh 2h + 1) over the nodes, enters K and
    cancels along lambda_min's vector.  The floor is 3e-11 at t = 300 and
    3.6e-10 at t = 1000, where n = 96, 192 and 384 differ by up to 2.9e-10
    without converging further.
    """
    blocks = _Galerkin([t], profile, n, sorted({0, 1, ell_max}), known)
    try:
        lam = np.array([_smallest(k[0])[0] for k in (
            blocks.coupled(0)[1], blocks.vertical(0), blocks.vertical(ell_max))])
    except NumericalError:
        return None
    floor = np.finfo(float).eps * (blocks.w_diag + blocks.w_off).max() / lam.min()
    return lam, max(GALERKIN_RTOL, ROUNDING_MARGIN * float(floor))


def _basis_size(t: float, profile: PsiProfile, ell_max: int, known: dict) -> tuple:
    """(n, d): the n from ``GALERKIN_N`` up, doubling, at which ``_probe``'s
    lambda_min agree with 2n's to the finer probe's tol, and d, their
    largest relative difference; NumericalError past ``GALERKIN_N_MAX``.
    ``known`` is handed to each probe's ``_Galerkin``."""
    n, coarse = GALERKIN_N, _probe(t, profile, GALERKIN_N, ell_max, known)
    detail = "no positive definite blocks"
    while n <= GALERKIN_N_MAX:
        fine = _probe(t, profile, 2 * n, ell_max, known)
        if coarse is not None and fine is not None:
            diff = float(np.max(np.abs(fine[0] / coarse[0] - 1.0)))
            if diff <= fine[1]:
                return n, diff
            detail = f"a relative difference of {diff:.2e}, above {fine[1]:.2e}"
        n, coarse = 2 * n, fine
    raise NumericalError(f"t={t:g}: lambda_min at n={n // 2} and n={n} show {detail}")


def green_norms(ts, ell_max: int, profile: PsiProfile) -> list:
    """Per-mode smallest eigenvalues and Green-operator norm estimates: one
    report per t of ``ts``, in order.

    Each block is the Galerkin stiffness K of the module docstring, in a
    basis orthonormal in the mass.  Each t takes its own basis size n
    (``_basis_size``), reported as ``n``, with the relative n-vs-2n
    difference of its probed lambdas as ``lambda_2n_reldiff``; the t of one
    n are swept together, mode by mode, sharing each exponent's basis, on
    the profile values the probes evaluated at their nodes.
    lambda_min is 1 / mu_max of K^-1 (``_smallest``).
    The L2 -> L2 norm is the max of 1/lambda_min over the coupled blocks for
    0 <= ell <= ell_max (negative modes coincide with ell -> 1 - ell by the
    swap symmetry of the block) together with the diagonal-subbundle blocks.
    By the same symmetry ell = 1 is the ell = 0 block, so it reuses ell = 0's
    lambda_min and surrogate.
    The H2 surrogate composes the flat operator with each block inverse,
    sigma_max of Z = P K^-1 (``_surrogate_gram``); the report keeps
    its maximum over modes.  It is solved at ell = 0.  Each ell >= 2 is
    first tested at s = (1 - SURROGATE_PRUNE_MARGIN) times the running
    maximum: sigma_max(Z) < s exactly when s^2 I - Z^T Z is positive
    definite, which its Cholesky factorization decides by inertia, and only
    a mode that fails is solved.  A certified mode cannot raise the maximum,
    and the test never supplies a value, so the maximum is the one solving
    every mode gives.  ``surrogate_solved`` lists the solved modes.
    ``kappa_hat`` is the potential floor over the quadrature nodes divided
    by ell^2, minimized over ell >= 2; lambda_min is at least that floor.
    A t outside ``fiducial.check_t``'s range raises ValueError from
    ``build_family`` before any mode is solved.
    """
    if ell_max < MIN_ELL_MAX:
        raise ValueError(f"ell_max must be at least {MIN_ELL_MAX}")
    ells = list(range(ell_max + 1))
    roots = indicial_roots(range(-ell_max, ell_max + 1))["aggregate"]
    reports, known = [], {}
    for t in ts:
        n, diff = _basis_size(t, profile, ell_max, known)
        reports.append(SpectralReport(
            t=t, n=n, lambda_2n_reldiff=diff, ells=list(ells), lambda_min=[],
            lambda_min_vertical=[], g_norm_l2=np.nan, g_norm_h2_surrogate=0.0,
            kappa_hat=np.inf, indicial=list(roots), surrogate_solved=[]))
    for n in dict.fromkeys(rep.n for rep in reports):
        group = [rep for rep in reports if rep.n == n]
        blocks = _Galerkin([rep.t for rep in group], profile, n, ells, known)
        for ell in ells:
            for rep, k in zip(group, blocks.vertical(ell)):
                rep.lambda_min_vertical.append(_smallest(k)[0])
            if ell == 1:
                continue
            terms, ks, vs = blocks.coupled(ell)
            floors = potential_floor(terms)
            for rep, k, v, floor in zip(group, ks, vs, floors):
                lam, k_inv = _smallest(k)
                rep.lambda_min.append(lam)
                gram = _surrogate_gram(k_inv, v)
                s = (1.0 - SURROGATE_PRUNE_MARGIN) * rep.g_norm_h2_surrogate
                if ell == 0 or _cholesky_dense(s * s * np.eye(len(gram)) - gram) is None:
                    rep.g_norm_h2_surrogate = max(rep.g_norm_h2_surrogate,
                                                  math.sqrt(_top_eigenvalue(gram)))
                    rep.surrogate_solved.append(ell)
                if ell >= 2:
                    rep.kappa_hat = min(rep.kappa_hat, float(floor) / ell ** 2)
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
    half = {m: Fraction(m, 2) for m in {m for roots in per_ell.values() for m, _ in roots}}
    return {"per_ell": {ell: [(half[m], mult) for m, mult in roots]
                        for ell, roots in per_ell.items()},
            "aggregate": [half[m] for m in sorted(half)]}


def restricted_indicial_roots(ell_range) -> list:
    """Roots on the twisted (anti-periodic) subbundle: ell + 1/2 per ell."""
    return sorted(Fraction(2 * int(ell) + 1, 2) for ell in ell_range)


@dataclass(eq=False)
class ConicSolution:
    r: np.ndarray
    u: np.ndarray


def conic_poisson_solve(nu: float, rhs, n: int) -> ConicSolution:
    """Solve -(u'' + u'/r - nu^2 u / r^2) = rhs with the decaying inner branch.

    ``rhs`` is a callable of r or an array of samples on the solver grid; a
    non-finite nu is rejected.  The matrix is ``assemble_scalar(nu, n)``:
    Dirichlet at r = 1, ghost exponent |nu| at the inner end, so the
    homogeneous inner behavior is r^|nu|; it is solved against r^2 rhs on
    the operator's own factorization, ``op.solve``.
    """
    if not math.isfinite(nu):
        raise ValueError(f"nu={nu} is not finite")
    op = assemble_scalar(nu, n=n)
    r = op.grid.r
    b = rhs(r) if callable(rhs) else np.asarray(rhs, dtype=float)
    if b.shape != r.shape:
        raise ValueError("rhs samples do not match the solver grid")
    return ConicSolution(r=r, u=op.solve(r * r * b))


def apply_conic_operator(nu: float, u_fn, grid: RadialGrid) -> np.ndarray:
    """Discrete application of the conic operator to samples of ``u_fn``.

    Uses the solver's stencil, ``grid.second_difference``, with Dirichlet
    data u(1) = 0 and the continuation of ``u_fn`` at the inner ghost node,
    enabling manufactured-solution round trips.
    """
    u = u_fn(grid.r)
    d2 = grid.second_difference(u, u_fn(np.exp(np.log(grid.r_min) - grid.dx)), 0.0)
    return (-d2 + nu * nu * u) / grid.r ** 2


def inner_decay_exponent(sol: ConicSolution) -> float:
    """Log-log slope of |u| over the radial window [1e-3, 1e-2]."""
    sel = (sol.r >= 1e-3) & (sol.r <= 1e-2) & (np.abs(sol.u) > 0)
    if sel.sum() < 8:
        raise ValueError("window contains too few grid points")
    slope, _ = np.polyfit(np.log(sol.r[sel]), np.log(np.abs(sol.u[sel])), 1)
    return float(slope)
