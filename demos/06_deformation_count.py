#!/usr/bin/env python3
"""Exact deformation count from twisted cohomology of the surface spine.

A genus-gamma surface with k punctures retracts onto a wedge of 2g + k - 1
circles; the sign local system that is -1 around every puncture kills h0 and
leaves h1 = 2g + k - 2.  With the simple-determinant puncture count
k = 4g - 4 this is the torus dimension 6g - 6.
"""

from hitchinlab import build_complex, twisted_cohomology_dims
from hitchinlab.topology import dimension_table

print(f"{'gamma':>6} {'k':>4} {'chi':>5} {'h0':>3} {'h1':>4} {'6g-6':>5}")
for gamma in range(2, 11):
    k = 4 * gamma - 4
    cx = build_complex(gamma, k)
    h0, h1 = twisted_cohomology_dims(cx)
    print(f"{gamma:6d} {k:4d} {cx.euler_characteristic:5d} {h0:3d} {h1:4d} {6*gamma-6:5d}")

print("\nuntwisted control (all monodromy +1), gamma=2, k=4:")
cx = build_complex(2, 4)
for g in cx.generators:
    cx.monodromy[g] = 1
print("  (h0, h1) =", twisted_cohomology_dims(cx), " [graph cohomology: (1, b1)]")

print("\nhandle-sign independence, gamma=3, k=8:")
print("  default:", twisted_cohomology_dims(build_complex(3, 8)))
print("  flipped:", twisted_cohomology_dims(build_complex(3, 8, handle_monodromy=-1)))

print("\ndimension_table rows (gamma, k, h0, h1, 6g-6) for gamma = 2..6:")
for row in dimension_table(range(2, 7)):
    print(" ", row)
