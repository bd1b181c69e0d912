#!/usr/bin/env python3
"""Build the radial solution family and verify its uniform bounds.

For each t the pair is determined by h_t and f_t; the residual of the reduced
curvature equation stays at solver accuracy, the normalized suprema of f/r
and f/r^2 are t-independent, and the field norm is uniformly bounded.
"""

from hitchinlab import solve_connection, build_family
from hitchinlab import verify_f_bounds, phi_sup_bound, verify_orbit_limiting
from hitchinlab.fiducial import default_grid

profile = solve_connection()
ts = [1.0, 2.0, 4.0, 8.0, 16.0]

print(f"{'t':>4} {'residual':>12} {'t^-2/3 sup f/r':>15} {'t^-4/3 sup f/r^2':>17} "
      f"{'sup|phi|':>9}")
for t in ts:
    fam = build_family(t, profile)
    res = fam.residual().max()
    b = verify_f_bounds(fam)
    print(f"{t:4g} {res:12.3e} {b['normalized_sup_f_over_r']:15.6f} "
          f"{b['normalized_sup_f_over_r2']:17.6f} {phi_sup_bound(fam):9.6f}")

# the limit (t = inf) has no curvature residual; its pair is checked through its orbit
print("\nlimiting pair orbit discrepancy:", verify_orbit_limiting(default_grid(), n_theta=64))
