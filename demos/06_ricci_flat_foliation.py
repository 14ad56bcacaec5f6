"""Invariant tractor subspaces and Ricci-flat foliations.

When the holonomy algebra preserves a subspace whose bottom row vanishes,
the chart inherits an integrable, geodesible distribution whose leaves are
Ricci-flat for an adapted connection inside the projective class.  The
bundled product chart (a Ricci-flat plane carrying a twist times a flat
line) realizes the cleanest case.
"""

import numpy as np

from tractorlab.holonomy import infinitesimal_algebra
from tractorlab.manifest import load_bundled
from tractorlab.structures import foliation_analysis, holonomy_decomposition_check

m = load_bundled("product_rf3")
chart = m.chart
K = m.structures["K"]
print(f"chart {chart.name!r}, declared subspace basis (columns):\n{K}")

alg = infinitesimal_algebra(chart, m.base())
rep = foliation_analysis(chart, alg, K, base_point=m.base())
print(f"\nfoliation analysis: accepted={rep.accepted}")
print(f"  integrability residual   {rep.integrability_residual:.2e}")
print(f"  geodesy residual         {rep.geodesy_residual:.2e}")
print(f"  connection preserves K   {rep.preserve_K_residual:.2e}")
print(f"  adapted rho on K         {rep.rho_residual:.2e}")
print(f"  adapted Ricci on leaves  {rep.ricci_on_K:.2e}")
print(f"  covolume along leaves    {rep.covolume_status}")

d = holonomy_decomposition_check(chart, alg)
print(f"\ndecomposition check on the holonomy algebra (rank {alg.rank}):")
print(f"  tangent-row block max    {d['t_star_row_max']:.2e}")
print(f"  gl-block containment     {d['affine_containment_residual']:.2e}")
print(f"  tangent column state     {d['tangent_column_state']}")
print(f"  note: {d['note']}")
