"""Simplex-constrained quadratic programs and a two-coordinate descent solver.

The weight subproblem of the alternation is min_alpha q(alpha) over the
probability simplex with q(alpha) = alpha^T A alpha + b^T alpha,
A = lam (K - M), b = 2 M 1 - K 1, where M_ij = K_ij ||Y_i - Y_j||^2.  A is
indefinite in general, so the solver must cope with concave pair directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ValidationError
from .kernel import GramMatrix, pairwise_sq_dists
from .similarity import check_simplex
from .spectral import check_symmetric

_SWEEP_CHUNK = 256


@dataclass(frozen=True)
class SimplexQP:
    """q(alpha) = alpha^T a alpha + b^T alpha, alpha on the simplex."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = check_symmetric(self.a)
        b = np.asarray(self.b, dtype=np.float64)
        if b.shape != (a.shape[0],):
            raise ValidationError("linear term does not match the quadratic term")
        if not np.all(np.isfinite(b)):
            raise ValidationError("QP coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.b.shape[0]


def qp_objective(qp: SimplexQP, alpha: np.ndarray) -> float:
    alpha = np.asarray(alpha, dtype=np.float64)
    return float(alpha @ qp.a @ alpha + qp.b @ alpha)


@dataclass
class QpSolution:
    alpha: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    objective_trace: list[float] = field(default_factory=list)


def assemble_alpha_qp(y: np.ndarray, gram: GramMatrix, lam: float, row_sums: np.ndarray) -> SimplexQP:
    """q(alpha) = tr(Y^T L(alpha) Y) - alpha^T K 1 + lam alpha^T K alpha at a
    fixed Y, row_sums = K 1: the one definition of the joint objective, which
    the weight step minimizes and the alternation records."""
    k = gram.values
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != k.shape[0]:
        raise ValidationError(f"embedding shape {y.shape} does not match gram matrix")
    # m, then a, in one buffer; k and y's distances are exactly symmetric, so a is
    m = pairwise_sq_dists(y, y)
    m *= k
    b = 2.0 * m.sum(axis=1) - row_sums
    a = np.subtract(k, m, out=m)
    a *= lam
    return SimplexQP(a=a, b=b)


def _select_pair(g: np.ndarray, alpha: np.ndarray) -> tuple[int, int, float]:
    """Most-violating pair: donor = largest gradient with mass, receiver = smallest."""
    masked = np.where(alpha > 0.0, g, -np.inf)
    donor = int(np.argmax(masked))
    receiver = int(np.argmin(g))
    return donor, receiver, float(g[donor] - g[receiver])


def _pair_step(
    qp: SimplexQP, g: np.ndarray, alpha: np.ndarray, i: int, j: int
) -> tuple[float, float]:
    """Best move alpha += t (e_i - e_j) with t in [-alpha_i, alpha_j].

    Returns (t, objective change).  Concave directions are handled by
    comparing the two interval endpoints.
    """
    d1 = float(g[i] - g[j])
    cuu = float(qp.a[i, i] + qp.a[j, j] - 2.0 * qp.a[i, j])
    lo, hi = -float(alpha[i]), float(alpha[j])
    candidates = [lo, hi]
    if cuu > 0.0:
        candidates.append(min(hi, max(lo, -d1 / (2.0 * cuu))))
    best_t, best_dq = 0.0, 0.0
    for t in candidates:
        dq = t * d1 + t * t * cuu
        if dq < best_dq:
            best_t, best_dq = t, dq
    return best_t, best_dq


def _best_face_point(qp: SimplexQP) -> tuple[np.ndarray, float] | None:
    """Lowest objective over all face-stationary points and vertices.

    Any minimizer of q over the simplex is a stationary point of the
    equality-constrained problem on its carrying face (or a vertex), so for
    small n enumerating the 2^n - 1 faces yields a global candidate.  Faces
    with a singular KKT system are skipped; their minima reappear on
    subfaces, so coverage is not lost.
    """
    n = qp.n
    best_alpha = None
    best_q = np.inf
    for k in range(n):
        q_vertex = float(qp.a[k, k] + qp.b[k])
        if q_vertex < best_q:
            best_q = q_vertex
            best_alpha = np.zeros(n)
            best_alpha[k] = 1.0
    for size in range(2, n + 1):
        for support in combinations(range(n), size):
            idx = np.asarray(support)
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * qp.a[np.ix_(idx, idx)]
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.concatenate([-qp.b[idx], [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[:size]
            if not np.all(np.isfinite(x)) or x.min() < -1e-10:
                continue
            alpha = np.zeros(n)
            alpha[idx] = np.clip(x, 0.0, None)
            total = alpha.sum()
            if not np.isfinite(total) or total <= 0.0:
                continue
            alpha /= total
            q_here = qp_objective(qp, alpha)
            if q_here < best_q:
                best_q = q_here
                best_alpha = alpha
    if best_alpha is None:
        return None
    return best_alpha, best_q


_FACE_ENUM_CAP = 12


def _sweep_pairs(qp: SimplexQP, g: np.ndarray, alpha: np.ndarray) -> tuple[int, int, float, float]:
    """Best single pair move over all ordered pairs, chunked to bound memory."""
    n = qp.n
    diag = np.ascontiguousarray(np.diag(qp.a))
    best = (0, 0, 0.0, 0.0)
    for start in range(0, n, _SWEEP_CHUNK):
        stop = min(start + _SWEEP_CHUNK, n)
        a_rows = qp.a[start:stop]
        cuu = diag[start:stop, None] + diag[None, :] - 2.0 * a_rows
        d1 = g[start:stop, None] - g[None, :]
        lo = -alpha[start:stop, None]
        hi = alpha[None, :]
        q_lo = lo * d1 + lo * lo * cuu
        q_hi = hi * d1 + hi * hi * cuu
        q_end = np.minimum(q_lo, q_hi)
        t_end = np.where(q_lo <= q_hi, np.broadcast_to(lo, cuu.shape), np.broadcast_to(hi, cuu.shape))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_int = np.clip(-d1 / (2.0 * cuu), lo, hi)
            q_int = np.where(cuu > 0.0, t_int * d1 + t_int * t_int * cuu, np.inf)
        pick_int = q_int < q_end
        q_best = np.where(pick_int, q_int, q_end)
        t_best = np.where(pick_int, t_int, t_end)
        idx = np.arange(start, stop)
        q_best[idx - start, idx] = 0.0
        flat = int(np.argmin(q_best))
        i, j = np.unravel_index(flat, q_best.shape)
        if q_best[i, j] < best[3]:
            best = (int(i) + start, int(j), float(t_best[i, j]), float(q_best[i, j]))
    return best


def solve_smo(
    qp: SimplexQP,
    start: np.ndarray,
    tol: float = 1e-6,
    max_passes: int | None = None,
) -> QpSolution:
    """Two-coordinate descent over the simplex from a feasible start.

    Each pass moves mass between one pair of coordinates (O(n) selection and
    gradient update).  When the cheap rule stalls, one O(n^2) sweep looks for
    any improving pair move, which lets concave instances hop between
    vertices instead of parking at a saddle.  On problems small enough to
    enumerate (n <= 12) a stalled sweep additionally checks every face's
    stationary point, so indefinite instances land at the global minimum
    rather than a pair-stationary one.  The tracked objective never
    increases; running out of passes reports converged=False on the solution
    instead of raising.
    """
    n = qp.n
    if max_passes is None:
        max_passes = 100 * n
    if max_passes < 1:
        raise ValidationError("max_passes must be >= 1")
    alpha = check_simplex(start, n=n)
    if n == 1:
        obj = qp_objective(qp, alpha)
        return QpSolution(alpha, obj, 0.0, 0, True, [obj])

    g = 2.0 * (qp.a @ alpha) + qp.b
    q = qp_objective(qp, alpha)
    trace = [q]
    iterations = 0
    converged = False
    residual = np.inf

    def apply_move(i: int, j: int, t: float, dq: float) -> None:
        nonlocal g, q
        alpha[i] += t
        alpha[j] -= t
        if alpha[i] < 0.0:
            alpha[i] = 0.0
        if alpha[j] < 0.0:
            alpha[j] = 0.0
        g += (2.0 * t) * (qp.a[:, i] - qp.a[:, j])
        q += dq
        trace.append(q)

    while iterations < max_passes:
        donor, receiver, residual = _select_pair(g, alpha)
        if residual > tol:
            t, dq = _pair_step(qp, g, alpha, receiver, donor)
            if dq < 0.0:
                apply_move(receiver, donor, t, dq)
                iterations += 1
                continue
        # cheap rule is done; accept sweep moves only above the rounding
        # noise of the tracked objective
        i, j, t, dq = _sweep_pairs(qp, g, alpha)
        if dq <= -1e-15 * (1.0 + abs(q)):
            apply_move(i, j, t, dq)
            iterations += 1
            continue
        # pair-stationary: on small problems indefinite instances can stall
        # above the global minimum, so check the face-stationary candidates
        # and hop once if one is strictly lower
        if n <= _FACE_ENUM_CAP:
            candidate = _best_face_point(qp)
            if candidate is not None and candidate[1] < q - 1e-12 * (1.0 + abs(q)):
                alpha[:] = candidate[0]
                g = 2.0 * (qp.a @ alpha) + qp.b
                q = candidate[1]
                trace.append(q)
                iterations += 1
                continue
        converged = residual <= tol
        break
    else:
        _, _, residual = _select_pair(g, alpha)
        converged = residual <= tol

    return QpSolution(
        alpha=alpha,
        objective=qp_objective(qp, alpha),
        kkt_residual=residual,
        iterations=iterations,
        converged=converged,
        objective_trace=trace,
    )

