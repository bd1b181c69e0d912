#!/usr/bin/env python3
"""Solve the radial profile connection problem and inspect its shape.

The profile interpolates between a logarithmic ramp at small rho and an
exponentially decaying Bessel tail; the two-sided shooting determines the
small-rho amplitude a0 and the tail amplitude lambda simultaneously.
"""

import numpy as np

from hitchinlab import solve_connection, psi_eval, export_profile_csv

profile = solve_connection()

print("fitted constants")
print(f"  a0      = {profile.a0:.12f}   (small-rho amplitude)")
print(f"  lambda  = {profile.lam:.12f}   (tail amplitude on K0)")
print(f"  ODE residual (max over grid) = {profile.residual_max:.3e}")
print(f"  matching mismatch at rho_mid = {profile.match_mismatch:.3e}")

print("\nprofile samples")
for rho in (1e-4, 1e-2, 0.1, 1.0, 5.0, 20.0, 40.0):
    psi, dpsi = psi_eval(profile, rho)
    print(f"  rho={rho:8.4g}  psi={psi:12.6e}  psi'={dpsi:12.5e}  eta={profile.eta(rho):.8f}")

eta = profile.eta(profile.rho)
print("\neta is nondecreasing:", bool((np.diff(eta) >= -1e-12).all()))
print("eta(rho_max) - 1/8 =", float(eta[-1] - 0.125))

export_profile_csv(profile, "psi.csv")
print("\nwrote psi.csv (columns rho, psi, dpsi, eta)")
