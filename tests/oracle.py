"""Symbolic references the tests compare the package against.

The package builds M from compiled Christoffel symbols and their first
partials, assembled in numpy (`tractor.connection_field`).  Here M is built
the long way, R -> Ric -> P -> M as expressions, and compiled.  Tensor
fields with symbolic components and their covariant derivatives serve the
same purpose for the jet-valued curvature fields.
"""

from dataclasses import dataclass

import numpy as np

from tractorlab.affine import ChartModel, TensorValue, _as_expr_array
from tractorlab.expr import eval_many
from tractorlab.projective import rho_field


def assemble_connection_matrix(gamma, rho_comps) -> np.ndarray:
    """M_i from gamma[k,i,j] and P, shape (n, n+1, n+1); works on Expr or jets."""
    n = gamma.shape[0]
    zero = gamma[0, 0, 0] * 0.0 + 0.0  # the + 0.0 turns -0.0 into 0.0
    M = np.empty((n, n + 1, n + 1), dtype=object)
    for i in range(n):
        w = sum((gamma[m, i, m] for m in range(n)), zero) / float(-(n + 1))
        for k in range(n):
            for m in range(n):
                entry = gamma[k, i, m]
                if k == m:
                    entry = entry + w
                M[i, k, m] = entry
            M[i, k, n] = zero + 1.0 if k == i else zero
        for m in range(n):
            M[i, n, m] = rho_comps[i, m]
        M[i, n, n] = w
    return M


def connection_matrix_field(chart: ChartModel) -> np.ndarray:
    """Symbolic M_i, shape (n, n+1, n+1)."""
    return chart.symbolic("Mconn", lambda: assemble_connection_matrix(chart.gamma,
                                                                      rho_field(chart)))


@dataclass(frozen=True)
class TensorField:
    """Symbolic tensor field on a chart."""

    chart: ChartModel
    components: np.ndarray
    variance: str

    def __post_init__(self):
        raw = np.asarray(self.components, dtype=object)
        comps = _as_expr_array(raw, raw.shape)
        object.__setattr__(self, "components", comps)
        if comps.ndim != len(self.variance):
            raise ValueError("variance string must have one letter per tensor slot")
        if any(v not in "ud" for v in self.variance):
            raise ValueError("variance letters must be 'u' or 'd'")
        if comps.shape != (self.chart.n,) * comps.ndim:
            raise ValueError("tensor components must be n in every slot")

    def at(self, point) -> TensorValue:
        p = np.asarray(point, dtype=float)
        out = np.array(eval_many(self.components.ravel(), self.chart.env(p)), dtype=float)
        return TensorValue(p, out.reshape(self.components.shape), self.variance)


def covariant_derivative(chart: ChartModel, tensor: TensorField) -> TensorField:
    """Covariant derivative; result gains a leading lower slot."""
    if tensor.chart is not chart:
        raise ValueError("tensor field belongs to a different chart")
    n = chart.n
    shape = tensor.components.shape
    out = np.empty((n,) + shape, dtype=object)
    for a in range(n):
        name = chart.coords[a]
        for idx in np.ndindex(*shape) if shape else [()]:
            term = tensor.components[idx].diff(name)
            for slot, letter in enumerate(tensor.variance):
                i_s = idx[slot]
                for m in range(n):
                    swapped = idx[:slot] + (m,) + idx[slot + 1 :]
                    if letter == "u":
                        term = term + chart.gamma[i_s, a, m] * tensor.components[swapped]
                    else:
                        term = term - chart.gamma[m, a, i_s] * tensor.components[swapped]
            out[(a,) + idx] = term
    return TensorField(chart, out, "d" + tensor.variance)
