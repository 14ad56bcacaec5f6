"""Contact and complex structures recovered from fiber data.

A holonomy-invariant symplectic form on the tractor fiber of an
odd-dimensional chart induces a contact distribution: spreading the form
by transport and contracting with the coordinate line gives a one-form
theta whose kernel is the distribution and whose volume form never
vanishes.  An invariant complex structure on the fiber of an
odd-dimensional chart similarly induces a complex structure transverse to
a canonical line field.  Both computations run on flat R^3, where every
output has a closed form worth checking by eye.
"""

import numpy as np

from tractorlab.holonomy import infinitesimal_algebra
from tractorlab.library import flat_chart
from tractorlab.structures import complex_reduction, contact_from_symplectic

chart = flat_chart(3)
alg = infinitesimal_algebra(chart, chart.center())

omega = np.zeros((4, 4))
omega[0, 1] = omega[2, 3] = 1.0
omega[1, 0] = omega[3, 2] = -1.0
rep = contact_from_symplectic(chart, alg, omega)
print("contact reduction on flat R^3")
print(f"  accepted                {rep.accepted}")
print(f"  theta at first samples  {[np.round(t, 4).tolist() for t in rep.theta[:2]]}")
print(f"  Reeb field there        {[np.round(r, 4).tolist() for r in rep.reeb[:2]]}")
print(f"  d-theta vs spread omega {rep.dtheta_vs_omega:.2e}")
print(f"  d-theta(Reeb, .)        {rep.dtheta_reeb:.2e}")
print(f"  contact volume range    [{rep.vtheta_min:.4f}, {rep.vtheta_max:.4f}]"
      "  (never vanishes)")
print(f"  Weyl restricted to H    {rep.weyl_in_H:.2e}\n")

J = np.zeros((4, 4))
J[0, 1], J[1, 0] = -1.0, 1.0
J[2, 3], J[3, 2] = -1.0, 1.0
rep = complex_reduction(chart, alg, J)
print("complex reduction on flat R^3")
print(f"  accepted                     {rep.accepted}")
print(f"  line field R at first sample {np.round(rep.R_field[0], 4).tolist()}")
print(f"  J_H squared + I              {rep.square_residual:.2e}")
print(f"  Lie-derivative invariance    {rep.lie_invariance_residual:.2e}")
print("  (the transverse operator is constant along R, so the quotient "
      "carries an honest complex structure)")
