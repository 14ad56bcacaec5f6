"""Curvature invariants of a projective class.

Two torsion-free connections are projectively equivalent when they share
unparametrised geodesics: Gamma'[k,i,j] = Gamma[k,i,j] + U[i] d[k,j] + U[j] d[k,i]
for a one-form U.  The Ricci tensor changes under such a shift, the rho
tensor absorbs its trace, and the Weyl part of the curvature does not move
at all.  This script computes all of them on a random polynomial chart and
then moves the connection to show what survives.
"""

import numpy as np

from tractorlab.affine import OneFormField, max_abs, project_change, sample_points
from tractorlab.library import polynomial_chart
from tractorlab.projective import cotton, rho, weyl, weyl_invariance_test

chart = polynomial_chart(3, seed=20)
point = np.array([0.2, -0.3, 0.4])

print(f"chart {chart.name!r}, coordinates {chart.coords}")
print(f"rho at {point}:")
print(np.array_str(rho(chart, point).components, precision=5, suppress_small=True))

W = weyl(chart, point).components
CY = cotton(chart, point).components
print(f"\nmax |Weyl|   = {max_abs(W):.6f}")
print(f"max |Cotton| = {max_abs(CY):.6f}")
print(f"Weyl trace over the upper index and each lower slot: "
      f"{max_abs(np.einsum('kjkl->jl', W)):.2e}, "
      f"{max_abs(np.einsum('hjkk->hj', W)):.2e}")

# Shift the connection inside its projective class and measure the drift.
ups = OneFormField(chart, np.asarray(
    [chart.parse("0.3*x2"), chart.parse("x1*x3 - 0.1"), chart.parse("0.2*x1")],
    dtype=object))
report = weyl_invariance_test(chart, [ups], seed=1)[0]
print(f"\nafter a projective change:")
print(f"  Weyl drift over {report['n_points']} points: "
      f"{report['max_weyl_residual']:.2e}  (invariant)")
print(f"  Cotton drift from its transformation law CY' = CY - U.W: "
      f"{report['max_cotton_residual']:.2e}")

changed = project_change(chart, ups)
print(f"  rho of the changed connection at the same point:")
print(np.array_str(rho(changed, point).components, precision=5,
                   suppress_small=True))
print("  (rho moves; it is gauge data, not an invariant)")
