import math

import numpy as np
import pytest
import scipy.special

from hitchinlab.special import bessel_k0, bessel_k1


def quad_oracle(x: float, order: int = 0, h: float = 0.01) -> float:
    """Independent trapezoid evaluation of int_0^inf e^{-x cosh s} cosh^m s ds."""
    smax = math.acosh(760.0 / x) if x < 760 else 1.0
    s = h * np.arange(0, int(smax / h) + 2)
    f = np.exp(-x * np.cosh(s)) * np.cosh(s) ** order
    return h * (0.5 * f[0] + f[1:].sum())


def asymptotic_oracle(x: float) -> float:
    """K0 large-x expansion sqrt(pi/2x) e^{-x} (1 - 1/8x + 9/128x^2 - ...).

    Truncated at the smallest term with the standard half-term average, the
    best accuracy a divergent asymptotic series offers (~e^{-2x})."""
    c, acc = 1.0, 1.0
    for k in range(1, 200):
        step = c * (-((2 * k - 1) ** 2) / (8.0 * x * k))
        if abs(step) >= abs(c) and k > 1:
            acc -= 0.5 * c  # retreat half of the previous (smallest) term
            break
        c = step
        acc += c
    else:
        raise AssertionError("series did not reach its smallest term")
    return math.sqrt(math.pi / (2 * x)) * math.exp(-x) * acc


def test_k0_at_one_against_quadrature():
    assert abs(bessel_k0(1.0) / quad_oracle(1.0) - 1.0) < 1e-12
    assert abs(bessel_k0(1.0) - 0.42102443824070834) < 1e-14


def test_k0_small_argument_log_divergence():
    for rho in (1e-3, 1e-4, 1e-5):
        lead = -math.log(rho / 2.0) - np.euler_gamma
        assert abs(bessel_k0(rho) - lead) < rho ** 2 * abs(math.log(rho)) * 2
    # cross-check against quadrature at a moderate point
    assert abs(bessel_k0(0.7) / quad_oracle(0.7) - 1.0) < 1e-12


def test_k0_large_argument_asymptotics():
    assert abs(bessel_k0(10.0) / asymptotic_oracle(10.0) - 1.0) < 1e-10
    assert abs(bessel_k0(25.0) / asymptotic_oracle(25.0) - 1.0) < 1e-12


def test_k0_k1_against_scipy_grid():
    xs = np.geomspace(1e-4, 80.0, 300)
    assert np.abs(bessel_k0(xs) / scipy.special.k0(xs) - 1.0).max() < 1e-12
    assert np.abs(bessel_k1(xs) / scipy.special.k1(xs) - 1.0).max() < 1e-12
    assert bessel_k0(xs).shape == xs.shape
    assert type(bessel_k0(2.0)) is float and type(bessel_k1(np.float64(2.0))) is float


def test_k1_is_minus_derivative_of_k0():
    for x in (0.5, 1.5, 3.0, 12.0):
        h = 1e-6 * x
        fd = (bessel_k0(x + h) - bessel_k0(x - h)) / (2 * h)
        assert abs(-fd / bessel_k1(x) - 1.0) < 1e-8


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_k0(0.0)
    with pytest.raises(ValueError):
        bessel_k1(-1.0)
