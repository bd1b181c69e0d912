#!/usr/bin/env python3
"""Check the gauge-orbit statements on sampled pairs.

The diagonal gauge with exponent -(1/4) log r - (1/2) h_t carries the
reference pair (zero connection, field [[0,1],[z,0]]) onto the t-pair, and
the singular gauge diag(|z|^(-1/4), |z|^(1/4)) onto the limiting pair.
"""

from hitchinlab import solve_connection, build_family
from hitchinlab import verify_orbit_finite_t, verify_orbit_limiting
from hitchinlab.fiducial import default_grid

profile = solve_connection()

for t in (1.0, 2.0, 8.0):
    fam = build_family(t, profile)
    err = verify_orbit_finite_t(t, fam, n_theta=64)
    print(f"orbit check t={t:g}: max discrepancy on r in [0.05, 1] = {err:.3e}")

err = verify_orbit_limiting(default_grid(), n_theta=64)
print(f"singular gauge onto the limiting pair: {err:.3e} on r in [0.1, 1]")
