"""Bessel functions for the profile tail, via ``scipy.special``.

The profile decays like lambda * K0(rho); K1 = -K0' gives the derivative of
that tail.  Both wrappers keep the domain check (positive arguments only) and
return a float for scalar input.
"""

from __future__ import annotations

import numpy as np
import scipy.special


def _bessel_k(fn, x):
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("argument must be positive")
    out = fn(xs)
    return float(out) if xs.ndim == 0 else out


def bessel_k0(x):
    """Macdonald function K0; scalar or array."""
    return _bessel_k(scipy.special.k0, x)


def bessel_k1(x):
    """K1 = -d/dx K0, used for the derivative of the exponential tail."""
    return _bessel_k(scipy.special.k1, x)
