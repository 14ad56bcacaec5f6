"""Tractor calculus for projectively related connections on coordinate charts.

A chart plus torsion-free Christoffel symbols determines a projective
class: all connections sharing its unparametrised geodesics.  This package
computes the invariants of that class (rho, Weyl, Cotton tensors), builds
the rank-(n+1) tractor connection, estimates its holonomy algebra, and
converts invariant fiber structures into geometric statements about the
chart (Einstein metrics, contact distributions, complex structures,
Ricci-flat foliations).  The `cli` module drives everything from JSON
manifests.
"""

__version__ = "0.1.0"

from .affine import (
    ChartModel,
    Curve,
    OneFormField,
    project_change,
    sample_points,
)
from .expr import Expr, parse
from .holonomy import classify, infinitesimal_algebra, loop_algebra
from .library import (
    flat_chart,
    hyperbolic_chart,
    polynomial_chart,
    sphere_chart,
    twisted_chart,
)
from .manifest import (
    Manifest,
    ManifestError,
    bundled_names,
    load,
    load_bundled,
    loads,
)
from .projective import cotton, rho, weyl, weyl_invariance_test
from .structures import (
    complex_reduction,
    contact_from_symplectic,
    einstein_check,
    foliation_analysis,
    holonomy_decomposition_check,
    tractor_metric_to_einstein_verify,
)
from .tractor import loop_holonomy, parallel_transport, transport_operator

__all__ = [
    "__version__",
    "ChartModel",
    "Curve",
    "Expr",
    "Manifest",
    "ManifestError",
    "OneFormField",
    "bundled_names",
    "classify",
    "complex_reduction",
    "contact_from_symplectic",
    "cotton",
    "einstein_check",
    "flat_chart",
    "foliation_analysis",
    "holonomy_decomposition_check",
    "hyperbolic_chart",
    "infinitesimal_algebra",
    "load",
    "load_bundled",
    "loads",
    "loop_algebra",
    "loop_holonomy",
    "parallel_transport",
    "parse",
    "polynomial_chart",
    "project_change",
    "rho",
    "sample_points",
    "sphere_chart",
    "tractor_metric_to_einstein_verify",
    "transport_operator",
    "twisted_chart",
    "weyl",
    "weyl_invariance_test",
]
