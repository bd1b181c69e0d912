"""Exact complex 2x2 trace-free matrix algebra for su(2) / sl(2,C).

Provides the standard anti-Hermitian basis tau_1, tau_2, tau_3, the algebraic
operator gamma -> 2([phi*,[phi,gamma]] + [phi,[phi*,gamma]]) on Hermitian
trace-free matrices, and the unimodular gauge bringing a holomorphic matrix
function with a simple determinant zero to off-diagonal normal form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TAU1 = np.array([[1j, 0], [0, -1j]])
TAU2 = np.array([[0, 1], [-1, 0]], dtype=complex)
TAU3 = np.array([[0, 1j], [1j, 0]])

#: Hermitian trace-free basis (i*tau_1, i*tau_2, i*tau_3); orthogonal with
#: squared Frobenius norm 2 under <A,B> = tr(A B*).
HERMITIAN_BASIS = (1j * TAU1, 1j * TAU2, 1j * TAU3)

@dataclass(frozen=True)
class TracelessMatrix:
    """Complex 2x2 trace-free matrix [[a, b], [c, -a]]."""

    a: complex
    b: complex
    c: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, -self.a]])

    @classmethod
    def from_matrix(cls, m) -> "TracelessMatrix":
        m = np.asarray(m, dtype=complex)
        tr = m[0, 0] + m[1, 1]
        if abs(tr) > 1e-12 * max(1.0, frobenius_norm(m)):
            raise ValueError(f"matrix is not trace-free (tr = {tr})")
        return cls(m[0, 0], m[0, 1], m[1, 0])


@dataclass(frozen=True)
class HermitianDecomposition:
    """Coefficients (c1, c2, c3) of gamma = i c1 tau_1 + i c2 tau_2 + i c3 tau_3."""

    c1: float
    c2: float
    c3: float

    def reconstruct(self) -> TracelessMatrix:
        m = sum(c * b for c, b in zip((self.c1, self.c2, self.c3), HERMITIAN_BASIS))
        return TracelessMatrix.from_matrix(m)


def frobenius_norm(m) -> float:
    return float(np.sqrt(np.sum(np.abs(np.asarray(m)) ** 2)))


def frobenius_inner(a, b) -> complex:
    """<A, B> = tr(A B*)."""
    return complex(np.trace(np.asarray(a) @ np.conj(np.asarray(b)).T))


def _comm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def commutator(x: TracelessMatrix, y: TracelessMatrix) -> TracelessMatrix:
    """[x, y] = xy - yx; trace-free for any inputs."""
    return TracelessMatrix.from_matrix(_comm(x.matrix, y.matrix))


def m_phi_apply(phi: TracelessMatrix, gamma: TracelessMatrix) -> TracelessMatrix:
    """Apply gamma -> 2([phi*,[phi,gamma]] + [phi,[phi*,gamma]]).

    For Hermitian trace-free gamma the result is Hermitian trace-free and
    satisfies <apply(phi, gamma), gamma> = 4 |[phi, gamma]|^2.
    """
    p = phi.matrix
    ps = np.conj(p).T
    g = gamma.matrix
    out = 2.0 * (_comm(ps, _comm(p, g)) + _comm(p, _comm(ps, g)))
    return TracelessMatrix.from_matrix(out)


def hermitian_decompose(gamma: TracelessMatrix) -> HermitianDecomposition:
    """Expand a Hermitian trace-free matrix over (i tau_1, i tau_2, i tau_3)."""
    g = gamma.matrix
    if frobenius_norm(g - np.conj(g).T) > 1e-10 * max(1.0, frobenius_norm(g)):
        raise ValueError("matrix is not Hermitian")
    coeffs = [frobenius_inner(g, b).real / 2.0 for b in HERMITIAN_BASIS]
    return HermitianDecomposition(*coeffs)


def m_phi_matrix(phi: TracelessMatrix) -> np.ndarray:
    """The operator of m_phi_apply as a real symmetric 3x3 matrix.

    Basis is (i tau_1, i tau_2, i tau_3); entry (a, b) is half the Frobenius
    pairing of the image of basis vector b against basis vector a.
    """
    cols = []
    for b in HERMITIAN_BASIS:
        img = m_phi_apply(phi, TracelessMatrix.from_matrix(b)).matrix
        cols.append([frobenius_inner(img, e).real / 2.0 for e in HERMITIAN_BASIS])
    return np.array(cols).T


def m_phi_kernel_dim(phi: TracelessMatrix) -> int:
    """Kernel dimension of the 3x3 operator matrix, counting eigenvalues
    below 1e-9 relative to the largest.

    Equals 0 when [phi, phi*] != 0, 1 for nonzero normal phi, 3 for phi = 0.
    """
    m = m_phi_matrix(phi)
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    scale = max(1.0, float(np.max(np.abs(w))))
    return int(np.sum(np.abs(w) < 1e-9 * scale))


def normal_form_at_zero(phi_fn):
    """Gauge function for off-diagonalizing near a simple determinant zero.

    ``phi_fn`` maps a complex coordinate z to a 2x2 trace-free matrix
    [[a, b], [c, -a]] whose value at 0 is nilpotent with b(0) != 0.  Returns
    the unimodular gauge g(z) = (1/sqrt(b)) [[b, 0], [-a, 1]]; conjugation
    g(z)^-1 phi(z) g(z) yields [[0, 1], [q(z), 0]] with q = -det(phi).

    Raises ValueError when b(0) vanishes (|b(0)| at most 1e-12 relative to
    phi(0)): the zero is not in the assumed position and the caller must
    first apply a constant conjugation.
    """
    m0 = np.asarray(phi_fn(0.0), dtype=complex)
    scale = max(1.0, frobenius_norm(m0))
    if abs(m0[0, 1]) <= 1e-12 * scale:
        raise ValueError("b(0) = 0 after normalization; apply a constant conjugation first")

    def gauge(z):
        m = np.asarray(phi_fn(z), dtype=complex)
        a, b = m[0, 0], m[0, 1]
        sb = np.sqrt(b)  # principal branch; valid on discs where b does not vanish
        return np.array([[b, 0], [-a, 1]]) / sb

    return gauge
