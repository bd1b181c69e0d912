#!/usr/bin/env python3
"""Glue the family to the singular limit and repair the error by Newton.

The cutoff produces an approximate solution whose residual lives on the
transition annulus and decays exponentially in t; the scalar Newton
correction removes it at quadratic rate, leaving residuals at roundoff.
"""

import numpy as np

from hitchinlab import solve_connection, build_family
from hitchinlab import build_glued, newton_correct, corrected_solution_check
from hitchinlab import approx_error_sweep
from hitchinlab.gluing import neumann_zero_mode_eigenvalue

profile = solve_connection()

ts = np.arange(2.0, 10.5, 1.0)
delta, c, r2 = approx_error_sweep(ts, profile)
print(f"approximate-solution error: ||res||_L2 ~ {c:.3g} exp(-{delta:.4f} t), R^2={r2:.5f}")

print(f"\n{'t':>3} {'pre-residual':>13} {'post-residual':>14} {'iters':>6} {'sup|u|':>10}")
for t in (2.0, 4.0, 8.0):
    state = build_glued(t, build_family(t, profile), n=2000)
    result = newton_correct(state, tol=1e-10)
    report = corrected_solution_check(state, result)
    print(f"{t:3g} {report['residual_pre']:13.3e} {report['residual_post']:14.3e} "
          f"{result.iterations:6d} {result.sup_u:10.3e}")
    print("      residual history:", " -> ".join(f"{h:.1e}" for h in result.residual_history))

state = build_glued(4.0, build_family(4.0, profile), n=1000)
print("\nNeumann zero-mode eigenvalue (positivity):",
      f"{neumann_zero_mode_eigenvalue(state):.4f}")
