"""From an Einstein connection to a parallel tractor metric and back.

A connection with parallel, nondegenerate Ricci tensor is Einstein in the
projective sense.  It induces a metric on the whole tractor bundle that
parallel transport preserves, with a signature bump that depends on the
sign of the Einstein constant: lambda > 0 sends (p, q) to (p+1, q), and
lambda < 0 sends it to (q+1, p).  The converse direction checks a supplied
fiber metric against the connection.
"""

import numpy as np

from tractorlab.holonomy import infinitesimal_algebra
from tractorlab.library import hyperbolic_chart, polynomial_chart, sphere_chart
from tractorlab.structures import einstein_check, tractor_metric_to_einstein_verify

for chart in (sphere_chart(3), hyperbolic_chart(3), polynomial_chart(3, seed=20)):
    rep = einstein_check(chart)
    print(f"{chart.name}: accepted={rep.accepted}")
    if not rep.accepted:
        print(f"  rejected: {rep.reject_reason}\n")
        continue
    print(f"  max |grad Ric| (scaled)        {rep.nabla_ric_norm:.2e}")
    print(f"  Ricci signature {rep.ric_signature} -> tractor metric "
          f"signature {rep.h_signature} "
          f"(lambda sign {rep.meta['einstein_coefficient_sign']:+d})")
    print(f"  parallel residual              {rep.parallel_residual:.2e}")
    print(f"  transport consistency residual {rep.transport_residual:.2e}")
    h0 = rep.h(chart.center())
    print(f"  h at the center:\n{np.array_str(h0, precision=5, suppress_small=True)}")

    alg = infinitesimal_algebra(chart, chart.center())
    back = tractor_metric_to_einstein_verify(chart, alg, rep, h0)
    print(f"  round trip through the converse check: accepted={back['accepted']}, "
          f"consistency {back['consistency_residual']:.2e}\n")
