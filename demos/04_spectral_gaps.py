#!/usr/bin/env python3
"""Mode-by-mode spectra of the linearized operator and the conic solve.

The zero-potential operator reproduces the square of the first Bessel zero
at second order in the grid; the coupled blocks stay uniformly positive, the
inverse norm is t-uniform, and the indicial roots aggregate to half-integers.
"""

import numpy as np
from scipy.special import jn_zeros

from hitchinlab import solve_connection
from hitchinlab import assemble_scalar, smallest_eigenvalue, green_norms
from hitchinlab import indicial_roots, restricted_indicial_roots, conic_poisson_solve
from hitchinlab.linearized import inner_decay_exponent

profile = solve_connection()
target = jn_zeros(0, 1)[0] ** 2

print("Dirichlet ground energy of the flat zero-mode operator")
for n in (500, 1000, 2000):
    lam = smallest_eigenvalue(assemble_scalar(0, n=n))
    print(f"  n={n:5d}: {lam:.8f}   (j_{{0,1}}^2 = {target:.8f}, err {lam - target:+.2e})")

print("\nGreen-operator norms across t (lmax=16), one sweep over every t")
for rep in green_norms([1.0, 2.0, 4.0, 8.0], 16, profile):
    print(f"  t={rep.t:g}: ||G||_L2={rep.g_norm_l2:.6f}  H2 surrogate={rep.g_norm_h2_surrogate:.4f}"
          f"  kappa_hat={rep.kappa_hat:.3f}")

roots = indicial_roots(range(-5, 6))
print("\nindicial roots aggregate for |l| <= 5:", [str(v) for v in roots["aggregate"]])
print("restricted (twisted) roots:", [str(v) for v in restricted_indicial_roots(range(-3, 3))])

def bump(r):
    out = np.zeros_like(r)
    m = (r > 0.5) & (r < 0.8)
    s = (r[m] - 0.5) / 0.3
    out[m] = np.exp(-1.0 / (s * (1.0 - s)))
    return out

sol = conic_poisson_solve(0.5, bump, n=4000)
print(f"\nconic solve, annulus source: inner decay exponent = "
      f"{inner_decay_exponent(sol):.6f} (leading indicial root 1/2)")
