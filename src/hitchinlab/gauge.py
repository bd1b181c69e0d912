"""Complex gauge action on sampled disk pairs and orbit verification.

Connections are carried by the dzbar-coefficient matrix alpha of their
(0,1)-part; the unitary connection attached to a transformed Dolbeault
operator is recovered from the fixed Hermitian metric, so the action on pairs
is alpha -> g^-1 alpha g + g^-1 dbar(g), phi -> g^-1 phi g.  Angular
derivatives are spectral (entries of every gauge used here are trigonometric
polynomials in theta); radial derivatives use caller-provided exact data when
available and finite differences otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fiducial import DiskPair, FiducialFamily, limiting_pair, make_disk_pair

COND_LIMIT = 1e8


def theta_grid(n: int = 256) -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


def spectral_dtheta(values: np.ndarray, axis: int = 1) -> np.ndarray:
    """d/dtheta by FFT along the periodic axis."""
    n = values.shape[axis]
    k = np.fft.fftfreq(n, d=1.0 / n) * 1j
    shape = [1] * values.ndim
    shape[axis] = n
    return np.fft.ifft(np.fft.fft(values, axis=axis) * k.reshape(shape), axis=axis)


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of stacked 2x2 matrices, entry by entry; leading axes broadcast.

    numpy's matmul loops once per 2x2 matrix; four whole-array expressions
    are several times faster on the (n_r, n_theta) stacks used here.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i in range(2):
        for j in range(2):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def _inv2(a: np.ndarray) -> np.ndarray:
    """Inverses of stacked 2x2 matrices: adjugate over determinant."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if not np.all(det):
        raise np.linalg.LinAlgError("Singular matrix")
    out = np.empty(a.shape, dtype=np.result_type(a, float))
    out[..., 0, 0] = a[..., 1, 1] / det
    out[..., 0, 1] = -a[..., 0, 1] / det
    out[..., 1, 0] = -a[..., 1, 0] / det
    out[..., 1, 1] = a[..., 0, 0] / det
    return out


def radial_derivative(values: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Second-order derivative along the leading (radial) axis of samples."""
    return np.gradient(values, r, axis=0, edge_order=2)


@dataclass(eq=False)
class MatrixGauge:
    """Gauge sampled on a polar grid, optionally with exact radial derivative."""

    values: np.ndarray          # (n_r, n_theta, 2, 2)
    dr: np.ndarray | None = field(default=None, repr=False)

    def compose(self, other: "MatrixGauge") -> "MatrixGauge":
        vals = _mul2(self.values, other.values)
        dr = None
        if self.dr is not None and other.dr is not None:
            dr = _mul2(self.dr, other.values) + _mul2(self.values, other.dr)
        return MatrixGauge(vals, dr)


@dataclass(eq=False)
class DiagonalGauge:
    """g = diag(e^u, e^-u) for a real radial exponent sampled on the r grid."""

    u: np.ndarray
    du: np.ndarray | None = None

    def as_matrix_gauge(self, r: np.ndarray, theta: np.ndarray) -> MatrixGauge:
        n_r, n_t = len(r), len(theta)
        if len(self.u) != n_r:
            raise ValueError("exponent samples do not match the radial grid")
        vals = np.zeros((n_r, n_t, 2, 2), dtype=complex)
        eu = np.exp(self.u)
        vals[..., 0, 0] = eu[:, None]
        vals[..., 1, 1] = (1.0 / eu)[:, None]
        du = self.du if self.du is not None else np.gradient(self.u, r, edge_order=2)
        dr = np.zeros_like(vals)
        dr[..., 0, 0] = (du * eu)[:, None]
        dr[..., 1, 1] = (-du / eu)[:, None]
        return MatrixGauge(vals, dr)


@dataclass(eq=False)
class StabilizerGauge:
    """Gauge exp(gamma_mu) in the stabilizer of the limiting field.

    ``mu`` is sampled on the (r, theta) grid.  Writing w = e^{i theta/2} mu,
    the matrix is [[cosh w, e^{-i theta/2} sinh w], [e^{i theta/2} sinh w,
    cosh w]]; both entries are single-valued (only integer theta-modes occur).
    The gauge is unitary exactly when e^{i theta} mu + conj(mu) = 0.
    """

    mu: np.ndarray              # (n_r, n_theta)
    dmu: np.ndarray | None = field(default=None, repr=False)
    unitary: bool = True

    def as_matrix_gauge(self, r: np.ndarray, theta: np.ndarray) -> MatrixGauge:
        half = np.exp(0.5j * theta)[None, :]
        w = half * self.mu
        vals = np.zeros((*self.mu.shape, 2, 2), dtype=complex)
        vals[..., 0, 0] = np.cosh(w)
        vals[..., 1, 1] = np.cosh(w)
        vals[..., 0, 1] = np.sinh(w) / half
        vals[..., 1, 0] = np.sinh(w) * half
        dr = None
        if self.dmu is not None:
            dw = half * self.dmu
            dr = np.zeros_like(vals)
            dr[..., 0, 0] = np.sinh(w) * dw
            dr[..., 1, 1] = dr[..., 0, 0]
            dr[..., 0, 1] = np.cosh(w) * dw / half
            dr[..., 1, 0] = np.cosh(w) * dw * half
        return MatrixGauge(vals, dr)


def _as_matrix_gauge(gauge, pair: DiskPair) -> MatrixGauge:
    if isinstance(gauge, MatrixGauge):
        return gauge
    return gauge.as_matrix_gauge(pair.r, pair.theta)


def _condition_numbers(g: np.ndarray) -> np.ndarray:
    fro2 = np.sum(np.abs(g) ** 2, axis=(-2, -1))
    det = np.abs(g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0])
    disc = np.sqrt(np.maximum(fro2 ** 2 - 4.0 * det ** 2, 0.0))
    s1sq = 0.5 * (fro2 + disc)
    s2sq = 0.5 * np.maximum(fro2 - disc, 1e-300)
    return np.sqrt(s1sq) / np.sqrt(s2sq)


def dbar_of(values: np.ndarray, r: np.ndarray, theta: np.ndarray,
            dr: np.ndarray | None = None) -> np.ndarray:
    """dzbar-derivative (1/2) e^{i theta} (d_r + (i/r) d_theta) of samples."""
    if dr is None:
        dr = radial_derivative(values, r)
    dth = spectral_dtheta(values, axis=1)
    phase = 0.5 * np.exp(1j * theta)[None, :, None, None]
    return phase * (dr + 1j / r[:, None, None, None] * dth)


def d_of(values: np.ndarray, r: np.ndarray, theta: np.ndarray,
         dr: np.ndarray | None = None) -> np.ndarray:
    """dz-derivative (1/2) e^{-i theta} (d_r - (i/r) d_theta) of samples."""
    if dr is None:
        dr = radial_derivative(values, r)
    dth = spectral_dtheta(values, axis=1)
    phase = 0.5 * np.exp(-1j * theta)[None, :, None, None]
    return phase * (dr - 1j / r[:, None, None, None] * dth)


def apply_complex_gauge(pair: DiskPair, gauge) -> DiskPair:
    """Transformed pair (A^g, Phi^g) on the same sample grid.

    Raises ValueError when the gauge is numerically near singular (pointwise
    condition number above 1e8).
    """
    g = _as_matrix_gauge(gauge, pair)
    cond = _condition_numbers(g.values)
    if np.max(cond) > COND_LIMIT:
        raise ValueError(f"gauge near singular: condition number {np.max(cond):.3e}")
    ginv = _inv2(g.values)
    phi_new = _mul2(_mul2(ginv, pair.phi), g.values)
    dbar_g = dbar_of(g.values, pair.r, pair.theta, g.dr)
    alpha_new = _mul2(ginv, _mul2(pair.alpha, g.values) + dbar_g)
    return DiskPair(r=pair.r, theta=pair.theta, phi=phi_new, alpha=alpha_new,
                    kind="gauged", family=pair.family)


def zero_pair(r: np.ndarray, n_theta: int = 256) -> DiskPair:
    """The reference pair: zero connection, field [[0, 1], [z, 0]]."""
    theta = theta_grid(n_theta)
    phi = np.zeros((len(r), n_theta, 2, 2), dtype=complex)
    phi[..., 0, 1] = 1.0
    phi[..., 1, 0] = r[:, None] * np.exp(1j * theta)[None, :]
    alpha = np.zeros_like(phi)
    return DiskPair(r=r, theta=theta, phi=phi, alpha=alpha, kind="reference")


def pair_discrepancy(p1: DiskPair, p2: DiskPair, r_window=(0.0, np.inf)) -> float:
    sel = (p1.r >= r_window[0]) & (p1.r <= r_window[1])
    d_phi = np.abs(p1.phi[sel] - p2.phi[sel]).max()
    d_alpha = np.abs(p1.alpha[sel] - p2.alpha[sel]).max()
    return float(max(d_phi, d_alpha))


def orbit_gauge(family: FiducialFamily) -> DiagonalGauge:
    """diag(e^u, e^-u) with u = -(1/4) log r - (1/2) h_t and exact derivative."""
    u = -0.25 * np.log(family.r) - 0.5 * family.h
    du = -0.25 / family.r - 0.5 * family.dh()
    return DiagonalGauge(u, du)


def verify_orbit_finite_t(t: float, family: FiducialFamily, n_theta: int = 128,
                          r_window=(0.05, 1.0)) -> float:
    """Max discrepancy between the gauged reference pair and the t-pair."""
    base = zero_pair(family.r, n_theta)
    moved = apply_complex_gauge(base, orbit_gauge(family))
    target = make_disk_pair(family, n_theta)
    return pair_discrepancy(moved, target, r_window)


def verify_orbit_limiting(r: np.ndarray, n_theta: int = 128,
                          r_window=(0.1, 1.0)) -> float:
    """Same check for the singular gauge diag(|z|^-1/4, |z|^1/4)."""
    base = zero_pair(r, n_theta)
    sing = DiagonalGauge(-0.25 * np.log(r), -0.25 / r)
    moved = apply_complex_gauge(base, sing)
    target = limiting_pair(r, n_theta)
    return pair_discrepancy(moved, target, r_window)


def curvature_rtheta(pair: DiskPair) -> np.ndarray:
    """F_{r theta} samples of the connection A = alpha dzbar - alpha* dz."""
    alpha = pair.alpha
    astar = np.conj(np.swapaxes(alpha, -1, -2))
    e = np.exp(1j * pair.theta)[None, :, None, None]
    a_r = alpha / e - astar * e
    a_th = -1j * pair.r[:, None, None, None] * (alpha / e + astar * e)
    d_r_ath = radial_derivative(a_th, pair.r)
    d_th_ar = spectral_dtheta(a_r, axis=1)
    return d_r_ath - d_th_ar + _mul2(a_r, a_th) - _mul2(a_th, a_r)


def curvature_perp(pair: DiskPair) -> np.ndarray:
    f = curvature_rtheta(pair)
    tr = f[..., 0, 0] + f[..., 1, 1]
    out = f.copy()
    out[..., 0, 0] -= 0.5 * tr
    out[..., 1, 1] -= 0.5 * tr
    return out


def curvature_formula_rtheta(pair: DiskPair, gauge) -> np.ndarray:
    """g^-1 (F_A + dbar_A(G d_A G^-1)) g in dr^dtheta components, G = g g*.

    Conjugation-rule counterpart of computing the curvature of the
    transformed pair directly; agreement is at discretization order.
    """
    g = _as_matrix_gauge(gauge, pair)
    r, theta = pair.r, pair.theta
    big_g = _mul2(g.values, np.conj(np.swapaxes(g.values, -1, -2)))
    big_g_inv = _inv2(big_g)
    astar = np.conj(np.swapaxes(pair.alpha, -1, -2))
    # d_A X = dX - [alpha*, X] against dz
    dx = d_of(big_g_inv, r, theta)
    y = _mul2(big_g, dx - _mul2(astar, big_g_inv) + _mul2(big_g_inv, astar))
    # dbar_A Y = dbar Y + [alpha, Y] against dzbar^dz = 2 i r dr^dtheta
    z2 = dbar_of(y, r, theta) + _mul2(pair.alpha, y) - _mul2(y, pair.alpha)
    correction = 2j * r[:, None, None, None] * z2
    f = curvature_rtheta(pair)
    return _mul2(_mul2(_inv2(g.values), f + correction), g.values)


def stabilizer_multipliers(ells) -> tuple[np.ndarray, np.ndarray]:
    """Fourier multipliers of P = -i d_theta + 1/2 and Q = P - 1 on e^{i l theta}."""
    ells = np.asarray(list(ells))
    return ells + 0.5, ells - 0.5


def stabilizer_normalize(v_modes: np.ndarray, w_modes: np.ndarray, r: np.ndarray,
                         ells, tol: float = 1e-8):
    """Solve (d_r - P/r) mu = -(w + i v / r) mode-by-mode.

    ``v_modes`` and ``w_modes`` hold theta-Fourier data per radius, shape
    (n_r, n_modes) with mode indices ``ells``.  The two scalar equations
    d_r mu = -w and P mu = i v are compatible exactly when the flatness
    relation d_r v = i (l + 1/2) w holds; inputs violating it beyond ``tol``
    are rejected.  Returns (StabilizerGauge, report).  The returned gauge is
    flagged unitary only when e^{i theta} mu + conj(mu) = 0 holds, which the
    construction guarantees for inputs satisfying the skew-Hermitian
    condition on (v, w).
    """
    v_modes = np.asarray(v_modes, dtype=complex)
    w_modes = np.asarray(w_modes, dtype=complex)
    ells = np.asarray(list(ells), dtype=int)
    if v_modes.shape != w_modes.shape or v_modes.shape[1] != len(ells):
        raise ValueError("mode data shapes do not match")
    p_mult, _ = stabilizer_multipliers(ells)

    dv = np.gradient(v_modes, r, axis=0, edge_order=2)
    compat = np.abs(dv - 1j * p_mult[None, :] * w_modes)
    scale = max(1.0, float(np.abs(v_modes).max()), float(np.abs(w_modes).max()))
    compat_res = float(compat.max()) / scale
    if compat_res > tol:
        raise ValueError(
            f"inputs are not flat: compatibility residual {compat_res:.3e} above {tol:.1e}"
        )

    mu_modes = 1j * v_modes / p_mult[None, :]
    p_res = float(np.abs(p_mult[None, :] * mu_modes - 1j * v_modes).max())
    dmu = np.gradient(mu_modes, r, axis=0, edge_order=2)
    dr_res = float(np.abs(dmu + w_modes).max()) / scale

    # unitarity in Fourier: mu_{l-1} + conj(mu_{-l}) = 0 for all l
    index = {int(l): i for i, l in enumerate(ells)}
    worst = 0.0
    for l in ells:
        j = index.get(int(-l))
        i = index.get(int(l) - 1)
        left = mu_modes[:, i] if i is not None else 0.0
        right = np.conj(mu_modes[:, j]) if j is not None else 0.0
        worst = max(worst, float(np.abs(left + right).max()))
    unitary = worst <= 10.0 * tol * scale

    n_theta = max(2 * (int(np.abs(ells).max()) + 1), 16)
    theta = theta_grid(n_theta)
    phases = np.exp(1j * np.outer(ells, theta))
    mu = mu_modes @ phases
    dmu_grid = dmu @ phases
    gauge = StabilizerGauge(mu=mu, dmu=dmu_grid, unitary=unitary)
    report = {
        "compatibility_residual": compat_res,
        "p_equation_residual": p_res,
        "dr_equation_residual": dr_res,
        "unitarity_defect": worst,
        "unitary": unitary,
        "multiplier_min": float(np.abs(p_mult).min()),
    }
    return gauge, report
