"""Holonomy algebra estimation and invariant fiber structures.

Two independent estimators feed the same report format: the infinitesimal
route spans the tractor curvature and its covariant derivatives at a base
point, and the loop route takes matrix logs of small-loop holonomies
(squares at the base plus seeded lassos through sample points).  Both are
closed under brackets and orthonormalized.  The infinitesimal tower is
computed on truncated Taylor jets at the point (`jets`), not by symbolic
differentiation: the Christoffel symbols are expanded there once, and each
covariant derivative is one vectorized step on the jets.

On top of an estimated algebra, brute-force linear algebra finds the fiber
structures it preserves: symmetric and alternating bilinear forms, complex
structures (through the commutant), and invariant subspaces (through
eigenspace analysis of generic elements).  The forms and the commutant are
null spaces of one linear map each, read off one SVD (`_null_vectors`).
Every candidate is re-verified against all generators before being
returned; the finite zero algebra gives each detector its "trivial"
candidate, and an algebra that is not finite gives none.  One rule ranks
every span (`_rank`) and one counts a form's signature (`_signature`); the
label of each kind of preserved structure is read from one table,
`STRUCTURE_LABELS`, by `classify` and by the `detect` command.

Rank, closure and structure tolerances, the tower's highest order
(`_MAX_ORDER`), the loop size, transport tolerance and log floor of the
loop estimator and its log retries are module constants (`_RANK_TOL`,
`_MAX_ORDER`, `_LOOP_SIZE`, `_LOOP_ODE_TOL`, `_LOG_FLOOR`, ...), not
options: every report is computed with the same values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .affine import ChartModel, Curve, max_abs, sample_points
from .jets import JetSpace
from .projective import point_fields
from .tractor import loop_holonomies, loop_holonomy, square_loop

__all__ = [
    "HolonomyAlgebra",
    "StructureCandidate",
    "infinitesimal_algebra",
    "loop_algebra",
    "algebra_from_generators",
    "bracket_closure",
    "compare_spans",
    "invariant_metric",
    "invariant_symplectic",
    "invariant_complex",
    "invariant_subspaces",
    "classify",
    "CLASSIFY_CAVEAT",
    "STRUCTURE_LABELS",
]

CLASSIFY_CAVEAT = "These are not equivalences, however, except in the projectively Einstein case."

# the geometric structure each kind of preserved fiber structure labels; only
# the metric's label is an equivalence
STRUCTURE_LABELS = {
    "metric": "Einstein manifold",
    "symplectic": "Contact manifold",
    "complex": "U(1)-bundle over a complex manifold",
    "subspace": "Foliation by Ricci-flat leaves",
}


@dataclass
class HolonomyAlgebra:
    """Estimated holonomy algebra at a point, as matrices on the fiber."""

    generators: np.ndarray        # raw collected matrices (g, m, m)
    basis: np.ndarray             # orthonormalized basis after closure (rank, m, m)
    rank: int
    method: str
    rank_stable: bool
    closed_under_bracket: bool    # true if the raw span was already closed
    singular_values: np.ndarray
    trace_free_residual: float
    bracket_residual: float
    details: dict = field(default_factory=dict)

    @property
    def fiber_dim(self) -> int:
        return self.basis.shape[1] if self.basis.ndim == 3 else self.generators.shape[1]

    @property
    def finite(self) -> bool:
        """False when a loop transport did not converge or was not finite:
        the logs of such loops are dropped, so the rank means nothing."""
        return bool(np.isfinite(self.trace_free_residual))


@dataclass
class StructureCandidate:
    """A fiber structure preserved by an algebra, with its residual."""

    kind: str                     # metric | symplectic | complex | subspace
    data: np.ndarray | None
    residual: float
    meta: dict = field(default_factory=dict)


# -- span utilities ------------------------------------------------------------------


_SPAN_FLOOR = 1e-10
_RANK_TOL = 1e-7          # singular values above this times the largest count towards a rank
_CLOSURE_ROUNDS = 12      # bracket rounds before `bracket_closure` gives up
_AGREE_TOL = 1e-5         # mutual containment bound of `compare_spans`


def _rank(s: np.ndarray, tol: float) -> int:
    """The one rank rule: the count of the singular values `s` (largest first)
    above tol times the largest.  Singular values whose largest sits at or
    below an absolute floor are zero: evaluating an identically vanishing
    curvature leaves rounding residue that must not be ranked relative to
    itself."""
    return int(np.sum(s > tol * s[0])) if s.size and s[0] > _SPAN_FLOOR else 0


def _span_basis(mats, m: int, tol: float):
    """Orthonormal basis (Frobenius) of the span of a list of matrices, of
    `_rank` at tol.  A stack that is not finite has no singular values and
    rank 0.
    """
    stack = np.array([np.asarray(a, dtype=float).ravel() for a in mats])
    if len(mats) == 0 or not np.isfinite(stack).all():
        return np.zeros((0, m, m)), np.zeros(0), 0
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    rank = _rank(s, tol)
    return vt[:rank].reshape(rank, m, m), s, rank


def _containment_residual(mats, basis) -> float:
    """Worst relative distance from each matrix to the span of the basis."""
    if len(mats) == 0:
        return 0.0
    worst = 0.0
    flat_basis = basis.reshape(basis.shape[0], -1) if basis.size else None
    for a in mats:
        v = np.asarray(a, dtype=float).ravel()
        norm = np.linalg.norm(v)
        if norm < 1e-14:
            continue
        if flat_basis is None or flat_basis.shape[0] == 0:
            worst = max(worst, 1.0)
            continue
        proj = flat_basis.T @ (flat_basis @ v)
        worst = max(worst, float(np.linalg.norm(v - proj) / norm))
    return worst


def bracket_closure(mats, m: int, tol: float):
    """Close a span of matrices under commutators.

    Returns (basis, closed_initially, rounds, bracket_residual).
    """
    basis, _, rank = _span_basis(mats, m, tol)
    closed_initially = None
    rounds = 0
    while rounds < _CLOSURE_ROUNDS:
        rounds += 1
        brackets = []
        for i in range(rank):
            for j in range(i + 1, rank):
                brackets.append(basis[i] @ basis[j] - basis[j] @ basis[i])
        resid = _containment_residual(brackets, basis)
        if closed_initially is None:
            closed_initially = resid <= tol
        if resid <= tol:
            return basis, bool(closed_initially), rounds, resid
        new_basis, _, new_rank = _span_basis(list(basis) + brackets, m, tol)
        basis, rank = new_basis, new_rank
    brackets = [basis[i] @ basis[j] - basis[j] @ basis[i]
                for i in range(rank) for j in range(i + 1, rank)]
    return basis, bool(closed_initially), rounds, _containment_residual(brackets, basis)


def algebra_from_generators(gens, fiber_dim: int | None = None) -> HolonomyAlgebra:
    """Wrap explicit generator matrices in the standard report format."""
    gens = [np.asarray(g, dtype=float) for g in gens]
    if fiber_dim is None:
        if not gens:
            raise ValueError("fiber_dim is required when no generators are given")
        fiber_dim = gens[0].shape[0]
    return _algebra(gens, fiber_dim, "provided", bracket_closure(gens, fiber_dim, _RANK_TOL))


def _algebra(gens, m: int, method: str, closure) -> HolonomyAlgebra:
    """The report of float generators `gens` whose `bracket_closure` is `closure`."""
    _, svals, _ = _span_basis(gens, m, _RANK_TOL)
    ranks = {_rank(svals, t) for t in (_RANK_TOL / 10, _RANK_TOL, _RANK_TOL * 10)}
    basis, closed, _, bresid = closure
    tf = max_abs([abs(float(np.trace(a))) / (1.0 + max_abs(a)) for a in gens])  # NaN if one is
    return HolonomyAlgebra(
        generators=np.array(gens) if gens else np.zeros((0, m, m)),
        basis=basis,
        rank=int(basis.shape[0]),
        method=method,
        rank_stable=len(ranks) == 1,
        closed_under_bracket=closed,
        singular_values=svals,
        trace_free_residual=tf,
        bracket_residual=bresid,
    )


def compare_spans(a: HolonomyAlgebra, b: HolonomyAlgebra) -> dict:
    """Mutual containment report for two estimated algebras."""
    a_in_b = _containment_residual(list(a.basis), b.basis)
    b_in_a = _containment_residual(list(b.basis), a.basis)
    return {
        "rank_a": a.rank,
        "rank_b": b.rank,
        "a_in_b_residual": a_in_b,
        "b_in_a_residual": b_in_a,
        "agree": a.rank == b.rank and max(a_in_b, b_in_a) <= _AGREE_TOL,
    }


# -- infinitesimal estimator -----------------------------------------------------------


def _covariant_derivative(space: JetSpace, K, M, G, size: int):
    """One covariant derivative of an endomorphism-valued form, on jets.

    `K` has shape (n,)*r + (n+1, n+1, C); the output prepends one more
    covariant slot and keeps `size` coefficients, one degree fewer.  The
    corrections are the commutator with the connection matrices `M` and
    -Gamma terms, from the Christoffel jets `G`, for each form index.
    """
    out = space.grad(K, K.ndim - 1, size)
    K, M, G = K[..., :size], M[..., :size], G[..., :size]
    out += space.contract("arp,...ps->a...rs", M, K) - space.contract("...rp,aps->a...rs", K, M)
    form = "bcdefgh"[:K.ndim - 3]  # einsum letters of the form slots
    for t, slot in enumerate(form):
        swapped = form[:t] + "q" + form[t + 1:]
        out -= space.contract(f"qa{slot},{swapped}rs->a{form}rs", G, K)
    return out


def _curvature_tower(chart: ChartModel, point, max_order: int):
    """The tractor curvature and its covariant derivatives at a point, level by level.

    Yields level k = 0..max_order as (n+1, n+1) matrices, one per index
    tuple of its k + 2 form slots.  Level 0, the connection matrices and
    the Christoffel symbols are the jets `point_fields` gives at degree
    max_order + 2; each level differentiates the last one degree down; its
    values are the constant terms.
    """
    n = chart.n
    space = JetSpace.of(n, max_order + 2)
    fields = point_fields(chart, point, degree=max_order + 2, jets=True)
    level, M, G = fields["F"], fields["M"], fields["gamma"]
    for degree in range(max_order, -1, -1):
        level = level[..., :space.sizes[degree]]
        yield level[..., 0].reshape(-1, n + 1, n + 1)
        if degree:
            level = _covariant_derivative(space, level, M, G, space.sizes[degree - 1])


_MAX_ORDER = 3  # highest covariant derivative of the curvature the tower reaches


def infinitesimal_algebra(chart: ChartModel, point) -> HolonomyAlgebra:
    """Span of the tractor curvature and its covariant derivatives at a point.

    The tower is computed on Taylor jets at the point (`_curvature_tower`),
    one derivative order at a time, and each order's generators so far are
    closed under brackets once: the closure's rank is the order's entry of
    `details["rank_by_order"]`, and the last closure is the result.  The tower
    stops early once the closed span fills all of sl or stops growing for
    one order; `_MAX_ORDER` caps it either way.  The second stop is not
    sound -- a rank flat for one order can still grow at the next -- and
    jets make the remaining orders cheap, but dropping it moves recorded
    ranks (`rank_by_order` and the benchmark's known answers), so it stays
    until those are re-recorded.
    """
    m = chart.n + 1
    mats = []
    rank_by_order = []
    for order, vals in enumerate(_curvature_tower(chart, point, _MAX_ORDER)):
        mats.extend(vals)
        closure = bracket_closure(mats, m, _RANK_TOL)
        rank_by_order.append(len(closure[0]))
        saturated = rank_by_order[-1] == m * m - 1
        stalled = order > 0 and rank_by_order[-1] == rank_by_order[-2]
        if saturated or stalled:
            break
    alg = _algebra(mats, m, "infinitesimal", closure)
    alg.details.update(orders_used=order, rank_by_order=rank_by_order)
    return alg


# -- loop estimator ----------------------------------------------------------------------

# Al-Mohy & Higham, SIAM J. Sci. Comput. 34(4), 2012: the [m/m] Pade
# approximant of log(I + E) is within a few units of round-off of it when
# ||E||_1 <= _THETA[m - 1] (the thresholds scipy's logm uses)
_THETA = (1.59e-5, 2.31e-3, 1.94e-2, 6.21e-2, 1.28e-1, 2.06e-1, 2.88e-1)
_MAX_SQRTS = 64
_MAX_SQRT_STEPS = 64
_LOOP_SIZE = 0.08      # side of the loop family's squares, and of `cli`'s default loop
_LOG_RETRIES = 5       # halvings of a loop whose holonomy leaves the principal log's branch
_LOOP_ODE_TOL = 1e-10  # transport tolerance of the loop family and of its shrunk retries
_LOG_FLOOR = 1e-8      # a loop log of Frobenius norm at most this is dropped as round-off


@cache
def _gauss_legendre(m: int):
    """Nodes and weights of the m-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(m)
    return (x + 1) / 2, w / 2


def _sqrtm(X: np.ndarray, eye: np.ndarray):
    """Principal square root by the determinant-scaled product form of the
    Denman-Beavers iteration (Higham 2008, ch. 6), or None when it
    meets values that are not finite or has not converged after
    `_MAX_SQRT_STEPS` steps.  M - I is squared by each step, so the step
    taken once it is 1e-8 is the last."""
    n = X.shape[0]
    M = Y = X
    for _ in range(_MAX_SQRT_STEPS):
        eps = np.linalg.norm(M - eye, 1)
        if not np.isfinite(eps):
            return None
        mu = np.exp(-np.linalg.slogdet(M)[1] / (2 * n))
        M_inv = np.linalg.inv(M) / mu ** 2
        Y = 0.5 * mu * Y @ (eye + M_inv)
        M = 0.5 * (eye + 0.5 * (mu ** 2 * M + M_inv))
        if eps <= 1e-8:
            return Y
    return None


def _principal_log(H: np.ndarray) -> np.ndarray:
    """Principal logarithm of a real matrix by inverse scaling and squaring.

    s square roots bring X = H^(1/2^s) to ||X - I||_1 <= _THETA[-1]; then
    log X is the [m/m] Pade approximant of log(I + E), E = X - I, for the
    least m that `_THETA` allows, written as the m-point Gauss-Legendre sum
    of w_j E (I + x_j E)^-1 (Higham 2008, ch. 11), and log H = 2^s log X.
    E is carried through the roots as E' = (I + X')^-1 E, which never
    subtracts I from a root.  A matrix with no real principal log (an
    eigenvalue on the closed negative real axis), one that is not finite,
    and one that needs more than `_MAX_SQRTS` roots give NaNs; nothing
    raises.
    """
    eye = np.eye(H.shape[0])
    nan = np.full_like(eye, np.nan)
    X = np.asarray(H, dtype=float)
    E = X - eye
    s = 0
    with np.errstate(all="ignore"):
        try:
            while (norm := np.linalg.norm(E, 1)) > _THETA[-1]:
                X = _sqrtm(X, eye) if s < _MAX_SQRTS else None
                if X is None:
                    return nan
                E = np.linalg.solve(eye + X, E)
                s += 1
            if not np.isfinite(norm):
                return nan
            x, w = _gauss_legendre(next(m for m, t in enumerate(_THETA, 1) if norm <= t))
            log = 2.0 ** s * np.tensordot(w, np.linalg.solve(eye + x[:, None, None] * E, E), 1)
        except np.linalg.LinAlgError:
            return nan
    return log if np.isfinite(log).all() else nan


def _guarded_log(chart: ChartModel, loop_segments, H: np.ndarray):
    """Principal log of a loop holonomy H, shrinking the loop if it leaves the branch.

    Returns (log, retries, converged); each retry transports the shrunk loop
    alone, and `converged` says whether every retry's transport converged.
    A loop still outside the branch after the last retry gives the principal
    log of its last holonomy with `converged` False, and a holonomy that is
    not finite gives a log of NaNs with `converged` False.  A holonomy with
    no real principal log (`_principal_log` gives NaNs) is outside the
    branch.
    """
    converged = True
    segs = [loop_segments] if isinstance(loop_segments, Curve) else list(loop_segments)
    for attempt in range(_LOG_RETRIES + 1):
        if attempt:
            # shrink towards the base point of the loop
            base = segs[0].point(segs[0].t0)
            segs = [Curve.segment(base + 0.5 * (s.point(s.t0) - base),
                                  base + 0.5 * (s.point(s.t1) - base)) for s in segs]
            H, rep = loop_holonomy(chart, segs, tol=_LOOP_ODE_TOL)
            converged = converged and rep["converged"]
        if not np.isfinite(H).all():
            return np.full_like(H, np.nan), attempt, False
        if max_abs(H - np.eye(H.shape[0])) < 1.0:
            log = _principal_log(H)
            if np.isfinite(log).all():
                return log, attempt, converged
    return _principal_log(H), _LOG_RETRIES, False


def _default_loop_family(chart: ChartModel, base, count: int, seed: int, eps: float):
    n = chart.n
    base = np.asarray(base, dtype=float)
    loops = []
    for i in range(n):
        for j in range(i + 1, n):
            loops.append(square_loop(base, i, j, eps))
    rng = np.random.default_rng(seed)
    anchors = sample_points(chart, seed=seed, n_random=max(count, 1), n_grid=0)
    center = chart.center()
    for k in range(count):
        # pull anchors toward the center so the attached square stays inside
        p = center + 0.8 * (anchors[k % len(anchors)] - center)
        i, j = rng.choice(n, size=2, replace=False)
        lasso = [Curve.segment(base, p)]
        lasso.extend(square_loop(p, int(i), int(j), eps))
        lasso.append(Curve.segment(p, base))
        loops.append(lasso)
    return loops


def loop_algebra(chart: ChartModel, base_point, count: int = 6, seed: int = 0) -> HolonomyAlgebra:
    """Algebra spanned by logs of small-loop holonomies, merged with the
    infinitesimal estimate at the same point.

    The loops are `_default_loop_family`'s: the coordinate squares at the
    base and `count` seeded lassos, transported to `_LOOP_ODE_TOL`; a log
    whose norm is at most `_LOG_FLOOR` is dropped.
    """
    base = np.asarray(base_point, dtype=float)
    m = chart.n + 1
    loop_family = _default_loop_family(chart, base, count, seed, _LOOP_SIZE)
    logs = []
    retries = 0
    converged = True
    for loop, (H, rep) in zip(loop_family, loop_holonomies(chart, loop_family, tol=_LOOP_ODE_TOL)):
        log, attempts, ok = _guarded_log(chart, loop, H)
        converged = converged and rep["converged"] and ok
        retries += attempts
        norm = float(np.linalg.norm(log))
        if norm > _LOG_FLOOR:
            logs.append(log / norm)
    _, svals, loops_rank = _span_basis(logs, m, _RANK_TOL)
    inf = infinitesimal_algebra(chart, base)
    merged = list(inf.basis) + logs
    basis, closed, _, bresid = bracket_closure(merged, m, _RANK_TOL)
    tf = max((abs(float(np.trace(a))) for a in logs), default=0.0) if converged else np.inf
    return HolonomyAlgebra(
        generators=np.array(logs) if logs else np.zeros((0, m, m)),
        basis=basis,
        rank=int(basis.shape[0]),
        method="loops+infinitesimal",
        rank_stable=inf.rank_stable,
        closed_under_bracket=closed,
        singular_values=svals,
        trace_free_residual=tf,
        bracket_residual=bresid,
        details={
            "loops_only_rank": loops_rank,
            "infinitesimal_rank": inf.rank,
            "n_loops": len(loop_family),
            "log_retries": retries,
            "loops_in_infinitesimal_residual": _containment_residual(logs, inf.basis),
        },
    )


# -- invariant structure detection ---------------------------------------------------------


_SIGNATURE_TOL = 1e-9    # eigenvalues within this times the largest (at least 1) count as zero
_COMPLEX_TOL = 1e-6      # bound on J^2 + I and on the commutator residual of a complex structure
_SUBSPACE_TRIALS = 2     # generic elements whose eigenspaces `invariant_subspaces` combines


def _trivial(kind: str) -> StructureCandidate:
    """The candidate every detector returns for the finite zero algebra; an
    algebra that is not `finite` preserves nothing that can be read off it,
    so the detectors return None (or no subspace) for it."""
    return StructureCandidate(kind, None, 0.0,
                              {"trivial": True, "note": "trivial holonomy, not informative"})


def _null_vectors(L: np.ndarray, tol: float) -> np.ndarray:
    """Null vectors of L, last first: the rows of vt whose singular value is
    at most tol times the largest or missing; only a wide L needs the full vt
    for the missing ones, so only then is a square U built."""
    _, s, vt = np.linalg.svd(L, full_matrices=L.shape[0] < L.shape[1])
    return vt[::-1][:L.shape[1] - int(np.sum(s > tol * s[0]))]


def _bilinear_solutions(gens, m: int, symmetric: bool, tol: float):
    """Null space of h -> A^T h + h A over the (anti)symmetric matrices.

    Columns of the assembled matrix are indexed by the unit forms E_ij (i <=
    j symmetric, i < j alternating), rows by (generator, matrix entry);
    coefficient vectors in the null space give forms annihilated by every
    generator at once.
    """
    basis, sign = [], 1.0 if symmetric else -1.0
    for i, j in zip(*np.triu_indices(m, 0 if symmetric else 1)):
        E = np.zeros((m, m))
        E[i, j], E[j, i] = 1.0, sign
        basis.append(E)
    Lmat = np.array([np.concatenate([((A.T @ E + E @ A) / (1.0 + max_abs(A))).ravel()
                                     for A in gens]) for E in basis]).T
    sols = []
    for coeffs in _null_vectors(Lmat, tol):
        H = sum(c * E for c, E in zip(coeffs, basis))
        sols.append(H / np.linalg.norm(H))
    return sols


def _worse(running: float, value: float) -> float:
    """The larger of two residuals, NaN if either is: `max(0.0, nan)` is 0.0,
    which would let a residual that is not a number pass its bound."""
    return max_abs((running, value))


def _fiber_invariance(alg: HolonomyAlgebra, value: np.ndarray, kind: str) -> float:
    """Worst defect, folded by `_worse`, of a fiber bilinear form, endomorphism
    or subspace (the columns of `value`) under the generators."""
    worst = 0.0
    for A in alg.basis:
        scale = (1.0 + max_abs(A)) * (1.0 + max_abs(value))
        if kind == "bilinear":
            d = A.T @ value + value @ A
        elif kind == "endo":
            d = A @ value - value @ A
        elif kind == "subspace":
            proj = value @ np.linalg.pinv(value)
            d = (np.eye(value.shape[0]) - proj) @ A @ proj
        else:
            raise ValueError(f"unknown kind {kind!r}")
        worst = _worse(worst, max_abs(d) / scale)
    return worst


def _signature(H):
    vals = np.linalg.eigvalsh(0.5 * (H + H.T))
    scale = max(1.0, float(np.abs(vals).max()))
    pos = int(np.sum(vals > _SIGNATURE_TOL * scale))
    neg = int(np.sum(vals < -_SIGNATURE_TOL * scale))
    zero = H.shape[0] - pos - neg
    return pos, neg, zero


def invariant_metric(alg: HolonomyAlgebra):
    """Symmetric bilinear form fixed by every generator, if one exists."""
    m = alg.fiber_dim
    gens = list(alg.basis)
    if len(gens) == 0 or not alg.finite:
        return _trivial("metric") if alg.finite else None
    sols = _bilinear_solutions(gens, m, symmetric=True, tol=_RANK_TOL)
    candidates = list(sols)
    if len(sols) > 1:
        # individual null vectors can be degenerate while the space holds a
        # nondegenerate form; try a few seeded combinations as well
        rng = np.random.default_rng(2)
        for _ in range(4):
            H = sum(c * S for c, S in zip(rng.normal(size=len(sols)), sols))
            candidates.append(H / np.linalg.norm(H))
    best = None
    for H in candidates:
        p, q, z = _signature(H)
        if z > 0:
            continue
        if q > p:
            H, p, q = -H, q, p
        resid = _fiber_invariance(alg, H, "bilinear")
        if resid > _RANK_TOL:
            continue
        if best is None or resid < best.residual:
            best = StructureCandidate("metric", H, resid,
                                      {"signature": (p, q),
                                       "solution_space_dim": len(sols)})
    return best


def invariant_symplectic(alg: HolonomyAlgebra):
    """Antisymmetric bilinear form fixed by every generator, if one exists."""
    m = alg.fiber_dim
    gens = list(alg.basis)
    if len(gens) == 0 or not alg.finite:
        return _trivial("symplectic") if alg.finite else None
    if m % 2 == 1:
        return None
    sols = _bilinear_solutions(gens, m, symmetric=False, tol=_RANK_TOL)
    best = None
    for W in sols:
        if abs(np.linalg.det(W)) < 1e-10:
            continue
        resid = _fiber_invariance(alg, W, "bilinear")
        if resid > _RANK_TOL:
            continue
        if best is None or resid < best.residual:
            best = StructureCandidate("symplectic", W, resid,
                                      {"solution_space_dim": len(sols)})
    return best


def _commutant(gens, m: int, tol: float):
    I = np.eye(m)
    L = np.vstack([(np.kron(A, I) - np.kron(I, A.T)) / (1.0 + max_abs(A)) for A in gens])
    return [v.reshape(m, m) for v in _null_vectors(L, tol)]


def _complex_from_element(B):
    vals, vecs = np.linalg.eig(B)
    scale = 1.0 + float(np.abs(vals).max())
    if np.any(np.abs(vals.imag) <= 1e-8 * scale):
        return None
    J = np.real(vecs @ np.diag(1j * np.sign(vals.imag)) @ np.linalg.inv(vecs))
    if max_abs(J @ J + np.eye(B.shape[0])) > _COMPLEX_TOL:
        return None
    return J


def invariant_complex(alg: HolonomyAlgebra, seed: int = 0):
    """Complex structure commuting with every generator, if one exists."""
    m = alg.fiber_dim
    gens = list(alg.basis)
    if len(gens) == 0 or not alg.finite:
        return _trivial("complex") if alg.finite else None
    if m % 2 == 1:
        return None
    comm = _commutant(gens, m, tol=1e-9)
    if not comm:
        return None
    rng = np.random.default_rng(seed)
    J = None
    for attempt in range(2):
        coeffs = rng.normal(size=len(comm))
        B = sum(c * C for c, C in zip(coeffs, comm))
        J = _complex_from_element(B)
        if J is not None:
            break
    if J is None:
        return None
    resid = max(max_abs(A @ J - J @ A) / (1.0 + max_abs(A)) for A in gens)
    if resid > _COMPLEX_TOL:
        return None
    meta = {"commutant_dim": len(comm), "square_residual": max_abs(J @ J + np.eye(m))}
    # best-effort check for an anticommuting partner (hypercomplex hint)
    partner = _anticommuting_partner(comm, J)
    meta["anticommuting_partner_found"] = partner is not None
    return StructureCandidate("complex", J, resid, meta)


def _anticommuting_partner(comm, J):
    """Search the commutant for a second complex structure anticommuting with J."""
    if not comm:
        return None
    anti = np.array([(C @ J + J @ C).ravel() for C in comm])
    G = anti @ anti.T
    w, v = np.linalg.eigh(G)
    scale = max(1.0, float(w.max()))
    null = [v[:, k] for k in range(len(w)) if w[k] <= 1e-12 * scale]
    for coeff in null:
        B = sum(c * C for c, C in zip(coeff, comm))
        if np.linalg.norm(B) < 1e-9:
            continue
        K = _complex_from_element(B)
        if K is not None and max_abs(K @ J + J @ K) <= _COMPLEX_TOL * 10:
            return K
    return None


def invariant_subspaces(alg: HolonomyAlgebra, seed: int = 0):
    """Invariant proper subspaces of the fiber, by eigenspace analysis."""
    m = alg.fiber_dim
    gens = list(alg.basis)
    if len(gens) == 0 or not alg.finite:
        return [_trivial("subspace")] if alg.finite else []
    rng = np.random.default_rng(seed)
    found = []
    for trial in range(_SUBSPACE_TRIALS):
        coeffs = rng.normal(size=len(gens))
        C = sum(c * A for c, A in zip(coeffs, gens))
        vals, vecs = np.linalg.eig(C)
        scale = 1.0 + float(np.abs(vals).max())
        atoms = []
        used = set()
        for idx in range(len(vals)):
            if idx in used:
                continue
            if abs(vals[idx].imag) <= 1e-9 * scale:
                v = np.real(vecs[:, idx])
                if np.linalg.norm(v) > 1e-12:
                    atoms.append(v[:, None] / np.linalg.norm(v))
                used.add(idx)
            else:
                pair = None
                for jdx in range(idx + 1, len(vals)):
                    if jdx not in used and abs(vals[jdx] - np.conj(vals[idx])) <= 1e-8 * scale:
                        pair = jdx
                        break
                block = np.column_stack([np.real(vecs[:, idx]), np.imag(vecs[:, idx])])
                atoms.append(block)
                used.add(idx)
                if pair is not None:
                    used.add(pair)
        if len(atoms) > 9:
            atoms = atoms[:9]
        for mask in range(1, 2 ** len(atoms) - 1):
            cols = [atoms[i] for i in range(len(atoms)) if mask & (1 << i)]
            Braw = np.column_stack(cols)
            q, r = np.linalg.qr(Braw)
            keep = np.abs(np.diag(r)) > 1e-10
            q = q[:, keep]
            dim = q.shape[1]
            if dim == 0 or dim >= m:
                continue
            proj = q @ q.T
            resid = max_abs([max_abs((np.eye(m) - proj) @ A @ proj) / (1.0 + max_abs(A))
                             for A in gens])  # NaN if one is, and a NaN rejects the mask
            if resid <= _RANK_TOL:
                found.append(StructureCandidate("subspace", q, resid, {"dim": dim}))
    # dedupe by projector distance
    unique = []
    for cand in sorted(found, key=lambda c: (c.meta["dim"], c.residual)):
        proj = cand.data @ cand.data.T
        if all(max_abs(proj - u.data @ u.data.T) > 1e-6 for u in unique):
            unique.append(cand)
    return unique


# -- classification report -------------------------------------------------------------------


def _algebra_dimension_labels(m: int, rank: int):
    """Name standard algebras on an m-dimensional fiber matching a given dimension.

    Dimension agreement is a label, not a classification: several families
    share dimensions and the estimate carries numerical rank only.
    """
    table = [
        (f"sl({m},R)", m * m - 1),
        (f"so(p,q), p+q={m}", m * (m - 1) // 2),
    ]
    if m % 2 == 0:
        h = m // 2
        table.append((f"sl({h},C)", 2 * (h * h - 1)))
        table.append((f"su(p,q), p+q={h}", h * h - 1))
        table.append((f"sp({m},R)", h * (m + 1)))
        table.append((f"so({h},C)", h * (h - 1)))
    if m % 4 == 0:
        qd = m // 4
        table.append((f"sl({qd},H)", 4 * qd * qd - 1))
        table.append((f"sp(p,q), p+q={qd}, +sp(1)", qd * (2 * qd + 1) + 3))
    if m == 7:
        table.append(("g2", 14))
    if m == 8:
        table.append(("spin(7)", 21))
    return sorted({name for name, dim in table if dim == rank})


def classify(alg: HolonomyAlgebra, candidates) -> dict:
    """Map detected fiber structures to geometric structure labels.

    The mapping (preserved structure -> geometric structure) is the label
    table `STRUCTURE_LABELS` only; apart from the metric case these are not
    equivalences, and the report says so.  An algebra that is not `finite`
    is neither trivial nor given a label.
    """
    labels = []
    trivial = alg.finite and alg.rank == 0
    for cand in candidates if alg.finite else ():
        if cand is None or (cand.meta or {}).get("trivial"):
            continue
        labels.append(STRUCTURE_LABELS[cand.kind])
        if cand.kind == "complex" and cand.meta.get("anticommuting_partner_found"):
            labels.append("Sp(1,H)-bundle over a quaternionic manifold")
    labels = list(dict.fromkeys(labels))
    equivalences = {label: label == STRUCTURE_LABELS["metric"] for label in labels}
    return {
        "labels": labels,
        "equivalences": equivalences,
        "caveat": CLASSIFY_CAVEAT,
        "trivial_holonomy": trivial,
        "estimator": alg.method,
        "algebra_rank": alg.rank,
        "dimension_matches": _algebra_dimension_labels(alg.fiber_dim, alg.rank),
    }
