"""Complex gauge action on sampled disk pairs and orbit verification.

Connections are carried by the dzbar-coefficient matrix alpha of their
(0,1)-part; the unitary connection attached to a transformed Dolbeault
operator is recovered from the fixed Hermitian metric, so the action on pairs
is alpha -> g^-1 alpha g + g^-1 dbar(g), phi -> g^-1 phi g.  Every gauge is a
``MatrixGauge`` that always carries its exact radial derivative;
``diagonal_gauge`` and ``stabilizer_gauge`` build them from radial data.
A gauge constant in theta is sampled once per radius (a theta axis of
length 1) and broadcast against the pair; pairs are always full.
Angular derivatives are spectral (entries of every gauge used here are
trigonometric polynomials in theta).  Finite differences in r remain only for
fields without an exact derivative: the connection in ``curvature_rtheta``
and the metric g g* in ``curvature_formula_rtheta``.  The one complex
derivative is ``dbar_of``; d_z X = conj(dbar conj X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fiducial import (DiskPair, FiducialFamily, _stack2x2, limiting_family, make_disk_pair,
                       theta_grid)

COND_LIMIT = 1e8
# bytes of one complex (r, theta, 2, 2) stack in an orbit check's radius block:
# 32 radii at n_theta = 128
ORBIT_BLOCK_BYTES = 256 * 1024


def spectral_dtheta(values: np.ndarray) -> np.ndarray:
    """d/dtheta by FFT along axis 1 of an (n_r, n_theta, 2, 2) stack, which
    comes back entry-major."""
    n = values.shape[1]
    k = np.fft.fftfreq(n, d=1.0 / n) * 1j
    coeffs = np.fft.fft(values, axis=1, out=_stack2x2(values.shape[:-2]))
    coeffs *= k[:, None, None]
    return np.fft.ifft(coeffs, axis=1, out=coeffs)


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of stacked 2x2 matrices, entry by entry; leading axes broadcast.

    numpy's matmul loops once per 2x2 matrix; four whole-array expressions
    are several times faster on the (n_r, n_theta) stacks used here, and
    faster again on entry-major stacks, where each entry is one plane.
    """
    lead = np.broadcast_shapes(a.shape, b.shape)[:-2]
    out = _stack2x2(lead, dtype=np.result_type(a, b))
    for i in range(2):
        for j in range(2):
            o = out[..., i, j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=o)
            o += a[..., i, 1] * b[..., 1, j]
    return out


def _inv2(a: np.ndarray) -> np.ndarray:
    """Inverses of stacked 2x2 matrices: adjugate over determinant."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    if not np.all(det):
        raise np.linalg.LinAlgError("Singular matrix")
    out = _stack2x2(a.shape[:-2], dtype=np.result_type(a, float))
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
    """Gauge sampled on a polar grid with radii ``r``, with its exact radial
    derivative.  A gauge constant in theta has a theta axis of length 1."""

    values: np.ndarray          # (n_r, n_theta or 1, 2, 2)
    dr: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)

    def compose(self, other: "MatrixGauge") -> "MatrixGauge":
        """The product self * other, full in theta when either factor is;
        ``ValueError`` unless both gauges are sampled on the same radii."""
        if not np.array_equal(self.r, other.r):
            raise ValueError("gauges are sampled on different radii")
        return MatrixGauge(_mul2(self.values, other.values),
                           _mul2(self.dr, other.values) + _mul2(self.values, other.dr),
                           self.r)


def diagonal_gauge(u: np.ndarray, du: np.ndarray, r: np.ndarray) -> MatrixGauge:
    """g = diag(e^u, e^-u) for a real radial exponent u and its derivative
    du = d_r u, both sampled on the radii ``r``; constant in theta, so its
    stacks are (n_r, 1, 2, 2)."""
    vals = _stack2x2((len(u), 1), zeroed=True)
    eu = np.exp(u)
    vals[..., 0, 0] = eu[:, None]
    vals[..., 1, 1] = (1.0 / eu)[:, None]
    dr = _stack2x2((len(u), 1), zeroed=True)
    dr[..., 0, 0] = (du * eu)[:, None]
    dr[..., 1, 1] = (-du / eu)[:, None]
    return MatrixGauge(vals, dr, r)


def stabilizer_gauge(mu: np.ndarray, dmu: np.ndarray, r: np.ndarray,
                     theta: np.ndarray) -> MatrixGauge:
    """Gauge exp(gamma_mu) in the stabilizer of the limiting field.

    ``mu`` and ``dmu = d_r mu`` are sampled on the (r, theta) grid.  Writing
    w = e^{i theta/2} mu, the matrix is [[cosh w, e^{-i theta/2} sinh w],
    [e^{i theta/2} sinh w, cosh w]]; both entries are single-valued (only
    integer theta-modes occur).  The gauge is unitary exactly when
    e^{i theta} mu + conj(mu) = 0.
    """
    half = np.exp(0.5j * theta)[None, :]
    w, dw = half * mu, half * dmu
    vals = _stack2x2(mu.shape)
    vals[..., 0, 0] = np.cosh(w)
    vals[..., 1, 1] = np.cosh(w)
    vals[..., 0, 1] = np.sinh(w) / half
    vals[..., 1, 0] = np.sinh(w) * half
    dr = _stack2x2(mu.shape)
    dr[..., 0, 0] = np.sinh(w) * dw
    dr[..., 1, 1] = dr[..., 0, 0]
    dr[..., 0, 1] = np.cosh(w) * dw / half
    dr[..., 1, 0] = np.cosh(w) * dw * half
    return MatrixGauge(vals, dr, r)


def _condition_numbers(g: np.ndarray) -> np.ndarray:
    fro2 = np.sum(np.abs(g) ** 2, axis=(-2, -1))
    det = np.abs(g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0])
    disc = np.sqrt(np.maximum(fro2 ** 2 - 4.0 * det ** 2, 0.0))
    s1sq = 0.5 * (fro2 + disc)
    s2sq = 0.5 * np.maximum(fro2 - disc, 1e-300)
    return np.sqrt(s1sq) / np.sqrt(s2sq)


def dbar_of(values: np.ndarray, r: np.ndarray, theta: np.ndarray,
            dr: np.ndarray | None = None) -> np.ndarray:
    """dzbar-derivative (1/2) e^{i theta} (d_r + (i/r) d_theta) of samples,
    full on the (r, theta) grid and entry-major even when ``values`` has a
    theta axis of length 1, whose d_theta is exactly 0 and takes no FFT."""
    if dr is None:
        dr = radial_derivative(values, r)
    phase = 0.5 * np.exp(1j * theta)[None, :, None, None]
    out = _stack2x2((len(r), len(theta)))
    if values.shape[1] == 1:
        return np.multiply(phase, dr, out=out)
    dth = spectral_dtheta(values)
    return np.multiply(phase, dr + 1j / r[:, None, None, None] * dth, out=out)


def _check_grid(pair: DiskPair, g: MatrixGauge) -> None:
    n_r, n_theta = pair.phi.shape[:2]
    if (g.values.shape not in ((n_r, 1, 2, 2), (n_r, n_theta, 2, 2))
            or not np.array_equal(g.r, pair.r)):
        raise ValueError("gauge samples do not match the pair's grid")


def apply_complex_gauge(pair: DiskPair, g: MatrixGauge) -> DiskPair:
    """Transformed pair (A^g, Phi^g) on the same sample grid.

    The gauge's theta axis is 1 or the pair's n_theta.  Raises ValueError
    when the gauge is sampled on another grid (other radii or another
    shape), has a non-finite sample, or is numerically near singular
    (pointwise condition number above 1e8).
    """
    _check_grid(pair, g)
    if not (np.isfinite(g.values).all() and np.isfinite(g.dr).all()):
        raise ValueError("gauge has a non-finite sample")
    cond = np.max(_condition_numbers(g.values))
    if cond > COND_LIMIT:
        raise ValueError(f"gauge near singular: condition number {cond:.3e}")
    ginv = _inv2(g.values)
    phi_new = _mul2(_mul2(ginv, pair.phi), g.values)
    dbar_g = dbar_of(g.values, pair.r, pair.theta, g.dr)
    # a zero connection, such as zero_pair's, adds nothing to dbar g
    a_g = _mul2(pair.alpha, g.values) + dbar_g if pair.alpha.any() else dbar_g
    alpha_new = _mul2(ginv, a_g)
    return DiskPair(r=pair.r, theta=pair.theta, phi=phi_new, alpha=alpha_new)


def zero_pair(r: np.ndarray, n_theta: int = 256) -> DiskPair:
    """The reference pair: zero connection, field [[0, 1], [z, 0]]."""
    theta = theta_grid(n_theta)
    phi = _stack2x2((len(r), n_theta), zeroed=True)
    phi[..., 0, 1] = 1.0
    phi[..., 1, 0] = r[:, None] * np.exp(1j * theta)[None, :]
    alpha = _stack2x2((len(r), n_theta), zeroed=True)
    return DiskPair(r=r, theta=theta, phi=phi, alpha=alpha)


def _window_mask(r: np.ndarray, r_window) -> np.ndarray:
    """The radii of ``r`` in the closed ``r_window``; ValueError when none is."""
    sel = (r >= r_window[0]) & (r <= r_window[1])
    if not sel.any():
        raise ValueError(f"r_window ({r_window[0]:g}, {r_window[1]:g}) holds no radius "
                         f"of the grid on [{r.min():g}, {r.max():g}]")
    return sel


def pair_discrepancy(p1: DiskPair, p2: DiskPair, r_window=(0.0, np.inf)) -> float:
    """Max entrywise distance of phi and alpha over the radii in ``r_window``.

    The pairs must share their grid (equal ``r`` and ``theta``), since
    samples are compared by index; ValueError otherwise.  Each stack is
    reduced over its 2x2 entries before the radii are selected, so no stack
    is copied.
    """
    if not (np.array_equal(p1.r, p2.r) and np.array_equal(p1.theta, p2.theta)):
        raise ValueError("the pairs are sampled on different grids")
    sel = _window_mask(p1.r, r_window)
    d_phi = np.abs(p1.phi - p2.phi).max(axis=(-2, -1))[sel].max()
    d_alpha = np.abs(p1.alpha - p2.alpha).max(axis=(-2, -1))[sel].max()
    return float(np.maximum(d_phi, d_alpha))


def orbit_gauge(family: FiducialFamily) -> MatrixGauge:
    """diag(e^u, e^-u) with u = -(1/4) log r - (1/2) h_t and exact derivative;
    for the limiting family (h = 0) the singular gauge diag(|z|^-1/4, |z|^1/4)."""
    u = -0.25 * np.log(family.r) - 0.5 * family.h
    du = -0.25 / family.r - 0.5 * family.dh()
    return diagonal_gauge(u, du, family.r)


def verify_orbit_finite_t(t: float, family: FiducialFamily, n_theta: int = 128,
                          r_window=(0.05, 1.0)) -> float:
    """Max discrepancy between the gauged reference pair and the t-pair over
    the radii of the family's grid in ``r_window``.

    ``t`` must be the family's own parameter; a mismatch raises ValueError,
    and so does an ``n_theta`` below 1 or a window that holds no radius of
    the grid.

    The check runs on the window's radii only.  That is exact: every quantity
    on its path is pointwise in r.  The orbit gauge carries its exact radial
    derivative, d_r h is r_dh / r, theta derivatives are spectral per radius,
    and nothing is differenced in r.  So each compared sample is bit for bit
    the one a full-grid check computes.  The one difference is
    ``apply_complex_gauge``'s condition-number guard, which sees only the
    compared radii: a gauge near singular at a radius outside the window,
    whose samples the comparison drops anyway, no longer raises.

    The window's radii run in consecutive blocks of at most
    ``ORBIT_BLOCK_BYTES`` per complex (r, theta, 2, 2) stack, and the check
    is the max over the blocks.  The same pointwise argument makes each block
    exact.  Blocks exist for first-touch page faults: the allocator maps
    full-window stacks (1.4 MB at 174 radii and n_theta = 128) fresh and
    returns them when freed, so every temporary faulted its pages in again,
    about 16k faults over the benchmark's 7 checks; a block's stacks are
    reused from the heap by the next block.
    """
    if t != family.t:
        raise ValueError(f"t={t:g} does not match the family's t={family.t:g}")
    if n_theta < 1:
        raise ValueError(f"n_theta must be at least 1, not {n_theta}")
    sel = _window_mask(family.r, r_window)
    r, h, r_dh, r_d2h = (x[sel] for x in (family.r, family.h, family.r_dh, family.r_d2h))
    rows = max(1, ORBIT_BLOCK_BYTES // (4 * np.dtype(complex).itemsize * n_theta))
    worst = []
    for b in (slice(i, i + rows) for i in range(0, len(r), rows)):
        block = FiducialFamily(t=family.t, r=r[b], h=h[b], r_dh=r_dh[b], r_d2h=r_d2h[b])
        moved = apply_complex_gauge(zero_pair(block.r, n_theta), orbit_gauge(block))
        worst.append(pair_discrepancy(moved, make_disk_pair(block, n_theta)))
    return float(np.max(worst))  # np.max, unlike max, propagates a NaN


def verify_orbit_limiting(r: np.ndarray, n_theta: int = 128) -> float:
    """The same check for the limiting family on r in [0.1, 1]; its orbit
    gauge is the singular gauge diag(|z|^-1/4, |z|^1/4)."""
    return verify_orbit_finite_t(math.inf, limiting_family(r), n_theta, (0.1, 1.0))


def curvature_rtheta(pair: DiskPair) -> np.ndarray:
    """F_{r theta} samples of the connection A = alpha dzbar - alpha* dz."""
    alpha = pair.alpha
    astar = np.conj(np.swapaxes(alpha, -1, -2))
    e = np.exp(1j * pair.theta)[None, :, None, None]
    a_r = alpha / e - astar * e
    a_th = -1j * pair.r[:, None, None, None] * (alpha / e + astar * e)
    d_r_ath = radial_derivative(a_th, pair.r)
    d_th_ar = spectral_dtheta(a_r)
    return d_r_ath - d_th_ar + _mul2(a_r, a_th) - _mul2(a_th, a_r)


def curvature_formula_rtheta(pair: DiskPair, g: MatrixGauge) -> np.ndarray:
    """g^-1 (F_A + dbar_A(G d_A G^-1)) g in dr^dtheta components, G = g g*.

    Conjugation-rule counterpart of computing the curvature of the
    transformed pair directly; agreement is at discretization order.  The
    gauge's theta axis is 1 or the pair's n_theta, as in
    ``apply_complex_gauge``.
    """
    _check_grid(pair, g)
    r, theta = pair.r, pair.theta
    big_g = _mul2(g.values, np.conj(np.swapaxes(g.values, -1, -2)))
    big_g_inv = _inv2(big_g)
    astar = np.conj(np.swapaxes(pair.alpha, -1, -2))
    # d_A X = dX - [alpha*, X] against dz, with d_z X = conj(dbar conj X)
    dx = np.conj(dbar_of(np.conj(big_g_inv), r, theta))
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
    are rejected, and so are non-finite inputs.  Returns (MatrixGauge,
    report): the ``stabilizer_gauge`` of mu on a theta grid that resolves
    every mode.  The report flags it unitary
    only when e^{i theta} mu + conj(mu) = 0 holds, which the construction
    guarantees for inputs satisfying the skew-Hermitian condition on (v, w).
    """
    v_modes = np.asarray(v_modes, dtype=complex)
    w_modes = np.asarray(w_modes, dtype=complex)
    ells = np.asarray(list(ells), dtype=int)
    if v_modes.shape != w_modes.shape or v_modes.shape[1] != len(ells):
        raise ValueError("mode data shapes do not match")
    if not (np.isfinite(v_modes).all() and np.isfinite(w_modes).all()
            and np.isfinite(r).all()):
        raise ValueError("mode data or radii are not finite")
    p_mult, _ = stabilizer_multipliers(ells)

    dv = radial_derivative(v_modes, r)
    compat = np.abs(dv - 1j * p_mult[None, :] * w_modes)
    scale = max(1.0, float(np.abs(v_modes).max()), float(np.abs(w_modes).max()))
    compat_res = float(compat.max()) / scale
    if not compat_res <= tol:  # NaN too: radii that repeat make d_r v non-finite
        raise ValueError(
            f"inputs are not flat: compatibility residual {compat_res:.3e} above {tol:.1e}"
        )

    mu_modes = 1j * v_modes / p_mult[None, :]
    p_res = float(np.abs(p_mult[None, :] * mu_modes - 1j * v_modes).max())
    dmu = radial_derivative(mu_modes, r)
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
    gauge = stabilizer_gauge(mu_modes @ phases, dmu @ phases, r, theta)
    report = {
        "compatibility_residual": compat_res,
        "p_equation_residual": p_res,
        "dr_equation_residual": dr_res,
        "unitarity_defect": worst,
        "unitary": unitary,
        "multiplier_min": float(np.abs(p_mult).min()),
    }
    return gauge, report
