#!/usr/bin/env python3
"""Solve the radial profile connection problem and inspect its shape.

The profile interpolates between a logarithmic ramp at small rho and an
exponentially decaying Bessel tail; one global Newton solve determines the
small-rho amplitude a0 and the tail amplitude lambda together with the
profile between them.
"""

import numpy as np

from hitchinlab import solve_connection, export_profile_csv
from hitchinlab.painleve import psi_log_derivatives

profile = solve_connection()

print("fitted constants")
print(f"  a0      = {profile.a0:.12f}   (small-rho amplitude)")
print(f"  lambda  = {profile.lam:.12f}   (tail amplitude on K0)")
print(f"  ODE residual (max over grid) = {profile.residual_max:.3e}")
print(f"  last Newton update = {profile.match_mismatch:.3e}"
      f"   ({len(profile.newton_history)} steps)")

print("\nprofile samples (psi_x = rho psi', psi_xx = (rho d_rho)^2 psi)")
rho = np.array([1e-4, 1e-2, 0.1, 1.0, 5.0, 20.0, 40.0])
for r, psi, psi_x, psi_xx in zip(rho, *psi_log_derivatives(profile, rho)):
    print(f"  rho={r:8.4g}  psi={psi:12.6e}  psi_x={psi_x:12.5e}  psi_xx={psi_xx:12.5e}")

eta = profile.eta
print("\neta is nondecreasing:", bool((np.diff(eta) >= -1e-12).all()))
print("eta(rho_max) - 1/8 =", float(eta[-1] - 0.125))

export_profile_csv(profile, "psi.csv")
print("\nwrote psi.csv (columns rho, psi, dpsi, eta)")
