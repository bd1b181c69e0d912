import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from hitchinlab.algebra import (
    HERMITIAN_BASIS,
    TAU1,
    TAU2,
    TAU3,
    TracelessMatrix,
    commutator,
    frobenius_inner,
    frobenius_norm,
    m_phi_apply,
    m_phi_kernel_dim,
    m_phi_matrix,
    normal_form_at_zero,
)

T = TracelessMatrix.from_matrix


def test_basis_commutators():
    assert np.allclose(TAU1 @ TAU2 - TAU2 @ TAU1, 2 * TAU3)
    assert np.allclose(TAU2 @ TAU3 - TAU3 @ TAU2, 2 * TAU1)
    assert np.allclose(TAU3 @ TAU1 - TAU1 @ TAU3, 2 * TAU2)


def test_commutator_antisymmetry_and_trace():
    x = T(TAU1)
    assert frobenius_norm(commutator(x, x).matrix) == 0.0
    y = T(TAU2)
    c = commutator(x, y)
    assert np.allclose(c.matrix, 2 * TAU3)
    assert abs(np.trace(c.matrix)) < 1e-15


def test_m_phi_zero_field():
    zero = TracelessMatrix(0, 0, 0)
    gamma = T(HERMITIAN_BASIS[1])
    assert frobenius_norm(m_phi_apply(zero, gamma).matrix) == 0.0


def test_m_phi_hand_expanded_nilpotent():
    # phi = E12, gamma = i tau_1: expanding the two nested brackets by hand
    # gives [phi*, [phi, gamma]] = [phi, [phi*, gamma]] = 2 diag(-1, 1),
    # so the image is 8 diag(-1, 1) = 8 gamma.
    phi = TracelessMatrix(0, 1, 0)
    gamma = T(HERMITIAN_BASIS[0])
    out = m_phi_apply(phi, gamma)
    assert np.allclose(out.matrix, np.array([[-8, 0], [0, 8]], dtype=complex))


def test_m_phi_hand_example_against_symbolic_expansion():
    sympy = pytest.importorskip("sympy")
    phi = sympy.Matrix([[0, 1], [0, 0]])
    gamma = sympy.Matrix([[-1, 0], [0, 1]])
    phis = phi.conjugate().T
    br = lambda a, b: a * b - b * a
    expected = 2 * (br(phis, br(phi, gamma)) + br(phi, br(phis, gamma)))
    out = m_phi_apply(TracelessMatrix(0, 1, 0), T(np.array([[-1, 0], [0, 1]], dtype=complex)))
    assert np.allclose(out.matrix, np.array(expected, dtype=complex))


def _random_traceless(rng):
    vals = rng.standard_normal(6)
    return TracelessMatrix(
        complex(vals[0], vals[1]), complex(vals[2], vals[3]), complex(vals[4], vals[5])
    )


def test_pairing_identity_bulk(rng):
    # <M_phi gamma, gamma> = 4 |[phi, gamma]|^2 on 1000 random samples
    for _ in range(1000):
        phi = _random_traceless(rng)
        gamma = random_hermitian(rng)
        lhs = frobenius_inner(m_phi_apply(phi, gamma).matrix, gamma.matrix).real
        rhs = 4.0 * frobenius_norm(commutator(phi, gamma).matrix) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_pairing_identity_property(seed):
    rng = np.random.default_rng(seed)
    phi = _random_traceless(rng)
    gamma = random_hermitian(rng)
    lhs = frobenius_inner(m_phi_apply(phi, gamma).matrix, gamma.matrix)
    rhs = 4.0 * frobenius_norm(commutator(phi, gamma).matrix) ** 2
    assert abs(lhs.imag) <= 1e-12 * max(1.0, rhs)
    assert abs(lhs.real - rhs) <= 1e-12 * max(1.0, rhs)


def _random_su2(rng):
    a = rng.standard_normal(4)
    a /= np.linalg.norm(a)
    return np.array([
        [a[0] + 1j * a[1], a[2] + 1j * a[3]],
        [-a[2] + 1j * a[3], a[0] - 1j * a[1]],
    ])


def test_equivariance_under_su2(rng):
    for _ in range(100):
        phi = _random_traceless(rng)
        gamma = random_hermitian(rng)
        g = _random_su2(rng)
        gi = np.conj(g).T
        left = m_phi_apply(T(gi @ phi.matrix @ g), T(gi @ gamma.matrix @ g)).matrix
        right = gi @ m_phi_apply(phi, gamma).matrix @ g
        assert np.abs(left - right).max() <= 1e-12 * max(1.0, np.abs(right).max())


def test_matrix_form_real_symmetric(rng):
    for _ in range(25):
        m = m_phi_matrix(_random_traceless(rng))
        assert m.dtype == float
        assert np.abs(m - m.T).max() <= 1e-12 * max(1.0, np.abs(m).max())


def test_kernel_trichotomy(rng):
    zero = TracelessMatrix(0, 0, 0)
    assert m_phi_kernel_dim(zero) == 3
    normal = T(TAU1)  # diagonal, commutes with its adjoint
    assert m_phi_kernel_dim(normal) == 1
    nilpotent = TracelessMatrix(0, 1, 0)
    assert m_phi_kernel_dim(nilpotent) == 0
    for _ in range(50):
        phi = _random_traceless(rng)
        comm = phi.matrix @ np.conj(phi.matrix).T - np.conj(phi.matrix).T @ phi.matrix
        expected = 0 if frobenius_norm(comm) > 1e-6 else 1
        assert m_phi_kernel_dim(phi) == expected


def test_normal_form_identity_case():
    g = normal_form_at_zero(lambda z: np.array([[0, 1], [z, 0]], dtype=complex))
    assert np.allclose(g(0.3 + 0.1j), np.eye(2))


def test_normal_form_linear_a():
    g = normal_form_at_zero(lambda z: np.array([[z, 1], [-z - z * z, -z]], dtype=complex))
    for z in np.linspace(-0.2, 0.2, 10) + 0.05j:
        assert np.allclose(g(z), np.array([[1, 0], [-z, 1]]))


def test_normal_form_random_conjugation(rng):
    # random holomorphic phi with a simple determinant zero at 0 and b(0) != 0
    c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)

    def phi_fn(z):
        a = c1 * z
        b = 1.0 + c2 * z
        c = (z - a * a) / b  # forces det phi = -z
        return np.array([[a, b], [c, -a]])

    g = normal_form_at_zero(phi_fn)
    for z in rng.standard_normal(10) * 0.1 + 1j * rng.standard_normal(10) * 0.1:
        gz = g(z)
        assert abs(np.linalg.det(gz) - 1.0) < 1e-12
        conj = np.linalg.inv(gz) @ phi_fn(z) @ gz
        target = np.array([[0, 1], [z, 0]])  # -det(phi) = z by construction
        assert np.abs(conj - target).max() < 1e-12


def test_normal_form_rejects_bad_position():
    with pytest.raises(ValueError):
        normal_form_at_zero(lambda z: np.array([[0, z], [1, 0]], dtype=complex))


def test_from_matrix_rejects_trace():
    with pytest.raises(ValueError):
        T(np.array([[1.0, 0], [0, 0.5]]))
