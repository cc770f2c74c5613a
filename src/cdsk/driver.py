"""Coordinate-descent clustering driver, lambda tuning, spectral baseline."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import idamax
from scipy.linalg.lapack import dposv, dpotrs

from .data_io import ClusteringResult, SampleMatrix
from .embedding import solve_embedding
from .errors import ConfigError, DegenerateDataError, ValidationError
from .kernel import GramMatrix, KernelSpec, gram, pairwise_sq_dists
from .kmeans_metrics import Partition, accuracy, kmeans, nmi
from .similarity import check_simplex, disc_similarity

DEFAULT_LAMBDA_GRID = tuple(round(0.05 * k, 2) for k in range(1, 11))
_VALIDATION_FRACTION = 0.1

_FEAS_TOL = 1e-11
_BOUND_EPS = 1e-14
# Cholesky pivots spanning more than 1/this mark a Gram singular for normal equations
_PIVOT_TOL = 1e-4
# the alternation stops once the recorded objective moves by at most this, relative
_STOP_TOL = 1e-8
# the weight step's KKT tolerance and its cap on inner iterations
_QP_TOL, _MAX_INNER = 1e-6, 80
# a weight step reports converged up to this KKT residual, looser than _QP_TOL:
# a step the inner cap or a stalled line search stops just short still counts
_QP_CONVERGED_TOL = 1e-5


def _cholesky(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(upper Cholesky factor of gram, gram^-1 rhs) by LAPACK dposv; the factor
    is None, and the solution unusable, if gram is (numerically) singular."""
    chol, x, info = dposv(gram, rhs)
    pivots = chol.diagonal().tolist()  # a few entries: Python's min and max are cheaper
    return (chol if info == 0 and min(pivots) > _PIVOT_TOL * max(pivots) else None), x


def _gram_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^-1 rhs by LAPACK Cholesky, or by least squares if gram is singular."""
    chol, x = _cholesky(gram, rhs)
    return x if chol is not None else np.linalg.lstsq(gram, rhs, rcond=None)[0]


class _Face:
    """The constraint Jacobian's rows on the columns `keep` (zero elsewhere)
    and one Cholesky factor of their Gram J_S J^T, which serves every solve on
    those columns: dposv factors it while fitting the gradient, dpotrs reuses
    the factor (exactly: dposv is potrf + potrs).  A numerically singular Gram
    (its pivots span more than 1/_PIVOT_TOL) falls back to least squares."""

    def __init__(self, jac: np.ndarray, keep: np.ndarray, grad: np.ndarray):
        self.jac, self.keep = jac, keep
        self.size = np.count_nonzero(keep)
        self.rows = jac * keep
        # ndarray.dot runs the BLAS call of @ (same bytes) with less dispatch
        self.gram = self.rows.dot(jac.T)
        self.chol, fit = _cholesky(self.gram, self.rows.dot(grad))
        if self.chol is None:
            fit = np.linalg.lstsq(self.rows.T, grad, rcond=None)[0]
        # the projected gradient: grad less its least-squares fit by the rows
        self.zeta = grad - fit.dot(jac)

    def carry(self, vec: np.ndarray) -> np.ndarray:
        """vec, zero off the face, projected onto its rows' null space."""
        if self.chol is None:
            fit = np.linalg.lstsq(self.rows.T, vec, rcond=None)[0]
        else:
            fit = dpotrs(self.chol, self.rows.dot(vec))[0]
        return vec - fit.dot(self.rows)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(J_S J^T)^-1 rhs."""
        if self.chol is None:
            return np.linalg.lstsq(self.gram, rhs, rcond=None)[0]
        return dpotrs(self.chol, rhs)[0]


def _feasible(r: np.ndarray) -> bool:
    """Every constraint value within _FEAS_TOL of its target (NaN is not):
    at most 1 + c(c+1)/2 entries, cheaper to scan as Python floats."""
    return all(-_FEAS_TOL <= v <= _FEAS_TOL for v in r.tolist())


@dataclass
class QpSolution:
    alpha: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    objective_trace: list[float]


def assemble_alpha_qp(
    y: np.ndarray, gram: GramMatrix, lam: float, row_sums: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The weight step's QP at a fixed embedding Y, with row_sums = K 1.

    q(alpha) = tr(Y^T L(alpha) Y) - alpha^T K 1 + lam alpha^T K alpha is the
    one definition of the joint objective, which the weight step minimizes
    and the alternation records.  As alpha^T A alpha + b^T alpha it has
    A = lam (K - M), b = 2 M 1 - K 1 and M_ij = K_ij ||Y_i - Y_j||^2; A is
    indefinite in general.  Returns (A, b).
    """
    k = gram.values
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != k.shape[0]:
        raise ValidationError(f"embedding shape {y.shape} does not match gram matrix")
    # m, then a, in one buffer; k and y's distances are exactly symmetric, so a is
    m = pairwise_sq_dists(y)
    m *= k
    b = 2.0 * m.sum(axis=1) - row_sums
    a = np.subtract(k, m, out=m)
    a *= lam
    return a, b


def solve_alpha_coupled(
    y: np.ndarray,
    kernel: GramMatrix,
    lam: float,
    start: np.ndarray,
) -> QpSolution:
    """Minimize q = assemble_alpha_qp(y, ...) while keeping y normalized.

    The embedding columns satisfy Y^T D(alpha) Y = I for the weights the graph
    was built from.  Re-fitting the weights with that normalization dropped
    lets all mass drain onto a single point (the linear term dominates), after
    which the degree matrix, and with it the whole alternation, degenerates.
    This solver therefore keeps the c(c+1)/2 normalization equalities as
    constraints next to the simplex, which is also what makes the recorded
    alternation objective provably nonincreasing: the previous weights stay
    feasible for the new embedding and each accepted step must lower q.

    The step is Rosen's gradient projection on the active face, with
    conjugate directions inside a face.  Each iteration keeps the coordinates
    with mass plus the zero ones whose reduced gradient asks for mass,
    projects grad q onto the null space of the constraint Jacobian J
    restricted to them (zeta; the KKT test reads it), and minimizes q exactly
    along the search direction with the exact Hessian 2A, capped by a ratio
    test on the bounds.  Newton restoration pulls the point back onto the
    constraint manifold, and it is accepted only if q strictly drops;
    otherwise the step is halved.  The direction is -zeta, unless the last
    step was curvature-limited (neither capped nor halved), the free set is
    unchanged and no zero weight asks for mass: then it is -zeta + beta P d,
    d the last direction, P d its projection onto the current null space on
    the face, beta the Polak-Ribiere-plus coefficient.  Every other case
    restarts from -zeta, and so does a conjugate direction that is not a
    descent direction or whose search finds no descent.  The restoration of
    a step is a chord method: it reuses the iteration's Jacobian instead of
    building one per Newton step (the start point gets full Newton steps).
    The normal equations on the m x m Gram J_S J_S^T (m = 1 + c(c+1)/2, S the
    kept columns, masked, not copied) get one LAPACK Cholesky factor per
    iteration, which solves the projection, the conjugate carry and every
    Newton step whose positive set is S; a numerically singular Gram (pivots
    spanning more than 1e4) falls back to numpy's least squares.

    Every iteration costs O(m n^2) with no n x n factorization.  Each point
    gets K a and A a once: K a serves its residual, its degrees and the next
    Jacobian, A a its value and the next gradient 2 A a + b.  An iteration
    whose step is accepted after one Newton step therefore reads an n x n
    matrix 4 + c(c+1)/2 times: four matrix-vector products (A d for the
    curvature, A a, and K a before and after the Newton step) and the
    c(c+1)/2 rows of (W a) K in the Jacobian; the conjugate carry adds none.
    At desk scale the small vector operations around those products cost
    more than the products, so an iteration works in buffers allocated once
    per call (no input is written) and scans the few constraint values as
    Python floats.
    The returned point is always feasible and never worse than the start;
    converged means the KKT residual met _QP_CONVERGED_TOL.
    """
    kvals = kernel.values
    d1 = kvals.sum(axis=1)
    quad, lin = assemble_alpha_qp(y, kernel, lam, d1)
    n = kvals.shape[0]
    alpha = check_simplex(start, n=n)
    y = np.asarray(y, dtype=np.float64)
    c = y.shape[1]

    pairs = [(p, q) for p in range(c) for q in range(p, c)]
    w_deg = 2.0 * np.array([y[:, p] * y[:, q] for p, q in pairs])
    w_lam = -lam * w_deg
    # the simplex sum, then the normalization rows, each against its target
    targets = np.array([1.0] + [1.0 if p == q else 0.0 for p, q in pairs])
    # the a-free part of the normalization rows' Jacobian: 2 (w d1 + K w), K w as w^T K
    jac_fixed = w_deg * d1 + w_deg @ kvals
    # work buffers, overwritten by every call of the closure that owns them:
    # what a caller keeps (a face's Jacobian, the residual handed to a solve)
    # is used up before that closure runs again
    jac = np.empty((targets.size, n))
    jac[0] = 1.0
    jac_rows, weighted = jac[1:], np.empty_like(w_deg)
    res, degrees = np.empty(targets.size), np.empty(n)
    res_rows = res[1:]
    trial, ratio, shrink = np.empty(n), np.empty(n), np.empty(n, dtype=bool)

    def evaluate(a: np.ndarray) -> tuple[float, np.ndarray]:
        """q(a) and A a."""
        aa = quad @ a
        return float(a.dot(aa) + lin.dot(a)), aa

    def residual(a: np.ndarray, ka: np.ndarray) -> np.ndarray:
        """Constraint values minus targets, with the degrees of the graph in
        closed form: D = 2 (a d1 + K a - lam a K a), ka = K a, d1 = K 1."""
        np.multiply(ka, lam, out=degrees)
        np.subtract(d1, degrees, out=degrees)
        np.multiply(degrees, a, out=degrees)
        np.add(degrees, ka, out=degrees)
        res[0] = np.add.reduce(a)
        w_deg.dot(degrees, out=res_rows)
        np.subtract(res, targets, out=res)
        return res

    def jacobian(a: np.ndarray, ka: np.ndarray) -> np.ndarray:
        np.multiply(w_lam, a, out=weighted)
        np.matmul(weighted, kvals, out=jac_rows)
        np.multiply(w_lam, ka, out=weighted)
        np.add(weighted, jac_fixed, out=weighted)
        np.add(jac_rows, weighted, out=jac_rows)
        return jac

    def restore(a: np.ndarray, face: _Face | None = None) -> tuple | None:
        """(point, K point) on the constraints near a, or None, by Newton steps
        with the Jacobian at each point, or with the face's Jacobian when it
        is given; a step on all of the face's columns reuses its factor."""
        # Newton steps move only the weights with mass: one driven to zero stays
        # there, so it neither spoils the next round's convergence nor jams the ratio test
        cand = np.where(a > _BOUND_EPS, a, 0.0)
        for _ in range(6):
            ka = kvals @ cand
            r = residual(cand, ka)
            if _feasible(r):
                return cand, ka
            # a step's point has mass only on its face's columns, so equal counts mean equal sets
            if face is not None and np.count_nonzero(cand) == face.size:
                cand -= face.solve(r).dot(face.rows)
            else:
                jac = jacobian(cand, ka) if face is None else face.jac
                rows = jac * (cand > 0.0)
                cand -= _gram_solve(rows.dot(jac.T), r).dot(rows)
            np.maximum(cand, 0.0, out=cand)
        ka = kvals @ cand
        return (cand, ka) if _feasible(residual(cand, ka)) else None

    def search(face: _Face, free: np.ndarray, direction: np.ndarray, slope: float) -> tuple | None:
        """The accepted (point, K point, q, A point) along direction, and whether
        its step was the curvature's own, neither capped nor halved; or None."""
        np.less(direction, 0.0, out=shrink)
        np.logical_and(shrink, free, out=shrink)
        ratio.fill(-np.inf)
        np.divide(alpha, direction, out=ratio, where=shrink)
        t_bound = -float(np.maximum.reduce(ratio))
        curvature = float(direction.dot(quad @ direction))
        t = -slope / (2.0 * curvature) if curvature > 0.0 else math.inf
        exact = t < t_bound
        t = min(t, t_bound)
        if not math.isfinite(t):
            return None
        for _ in range(12):
            np.multiply(direction, t, out=trial)
            np.add(trial, alpha, out=trial)
            restored = restore(trial, face)
            if restored is not None:
                q_cand, a_cand = evaluate(restored[0])
                if q_cand < q_value - 1e-15 * (1.0 + abs(q_value)):
                    return restored, q_cand, a_cand, exact
            t *= 0.5
            exact = False
        return None

    restored = restore(alpha)
    if restored is None:
        raise ValidationError("starting weights are not feasible for this embedding")
    alpha, ka = restored
    q_value, a_alpha = evaluate(alpha)
    q_start = q_value
    iterations = 0
    # with as many normalization equalities as weights the feasible set is
    # (generically) isolated points, so the start is already the answer
    limit = 0 if targets.size >= n else _MAX_INNER
    # after a curvature-limited step on the free set: (the set's size,
    # |-zeta|^2, -zeta, the direction taken); the next free set can only
    # lose weights, so the same size means the same set
    carry = None
    grad, scan = np.empty(n), np.empty(n)
    free, fixed = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
    # -zeta alternates between two buffers: the carry holds the last one
    steepests = (np.empty(n), np.empty(n))

    while True:
        np.multiply(a_alpha, 2.0, out=grad)
        grad += lin
        np.greater(alpha, _BOUND_EPS, out=free)
        np.logical_not(free, out=fixed)
        face = _Face(jacobian(alpha, ka), free, grad)
        zeta = face.zeta
        steepest = steepests[iterations % 2]
        np.negative(zeta, out=steepest)
        # KKT residual: free weights must be stationary, zero ones must not want
        # mass.  One reduction each: the pull, then |-zeta| on the free set and
        # |grad|, whose largest magnitudes BLAS idamax locates in one call
        pull = float(np.maximum.reduce(np.multiply(steepest, fixed, out=scan)))
        np.copyto(steepest, 0.0, where=fixed)
        worst = max(abs(float(steepest[idamax(steepest)])), pull)
        residual_norm = worst / (1.0 + abs(float(grad[idamax(grad)])))
        if residual_norm <= _QP_TOL or iterations >= limit:
            break
        iterations += 1
        if pull > 0.0:  # zero weights that ask for mass join the face
            face = _Face(face.jac, free | (zeta < 0.0), grad)
            np.negative(face.zeta, out=steepest)
            np.copyto(steepest, 0.0, where=~face.keep)
        slope = float(grad.dot(steepest))
        if not slope < 0.0:
            break
        norm2 = float(steepest.dot(steepest))
        step = None
        if carry is not None and pull == 0.0 and carry[0] == face.size:
            # Polak-Ribiere-plus: the last direction, carried onto the current
            # constraints' null space, conjugates the new one
            _, last_norm2, last_steepest, last = carry
            beta = (norm2 - float(steepest.dot(last_steepest))) / last_norm2
            if beta > 0.0:
                direction = face.carry(last)
                direction *= beta
                direction += steepest
                conj_slope = float(grad.dot(direction))
                if conj_slope < 0.0:
                    step = search(face, free, direction, conj_slope)
        if step is None:
            direction = steepest
            step = search(face, free, direction, slope)
        if step is None:
            break
        (alpha, ka), q_value, a_alpha, exact = step
        carry = (face.size, norm2, steepest, direction) if exact and pull == 0.0 else None

    moved = q_value < q_start
    alpha = alpha / alpha.sum()
    q_final, _ = evaluate(alpha)
    return QpSolution(
        alpha=alpha,
        objective=q_final,
        kkt_residual=residual_norm,
        iterations=iterations,
        converged=residual_norm <= _QP_CONVERGED_TOL,
        objective_trace=[q_start, q_final] if moved else [q_start],
    )


def _integer(name: str, value, least: int) -> int:
    """value as an int of at least `least`, or ConfigError naming the field."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return value


@dataclass(frozen=True)
class CdskConfig:
    """Inputs of one clustering run.

    c >= 2 clusters, the weight lam in (0, 2], the kernel bandwidth (None
    picks kernel.default_bandwidth), the cap on outer iterations and the
    k-means seed.  The weight step's tolerance (1e-6), the stop tolerance on
    the objective (1e-8, relative) and the 10 k-means restarts are fixed.
    """

    c: int
    lam: float = 0.1
    bandwidth: float | None = None
    max_iter: int = 20
    seed: int = 0

    def __post_init__(self):
        for name, least in (("c", 2), ("max_iter", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        if not isinstance(self.lam, numbers.Real):
            raise ConfigError(f"lam must be a real number, got {self.lam!r}")
        if not np.isfinite(self.lam) or not 0.0 < self.lam <= 2.0:
            raise ConfigError(f"lambda must satisfy 0 < lambda <= 2, got {self.lam}")
        if self.bandwidth is not None:
            try:
                KernelSpec(self.bandwidth)
            except ValidationError as exc:
                raise ConfigError(str(exc)) from None


def _metrics_against(labels: np.ndarray, truth: np.ndarray | None) -> dict | None:
    if truth is None:
        return None
    pred = Partition(labels=labels, c=int(labels.max()))
    ref = Partition(labels=truth, c=int(truth.max()))
    return {"accuracy": accuracy(pred, ref), "nmi": nmi(pred, ref)}


def _gram(data: SampleMatrix, bandwidth: float | None) -> GramMatrix:
    """Gram matrix at the given bandwidth, or if None at the heuristic one."""
    return gram(data, None if bandwidth is None else KernelSpec(bandwidth))


def _alternate(kmat: GramMatrix, y0: np.ndarray, config: CdskConfig):
    """run_cdsk's loop from y0 = solve_embedding(K, c): (alpha, Y, trace,
    qp_converged), trace[-1] the joint objective of the last weights alpha at
    the embedding Y they were fit to.  At uniform weights S = s0 K, s0 = 2 (2/n
    - lam/n^2), so the first Y is y0 / sqrt(s0): Y^T D Y = I for D = s0 K 1.
    Each later Y embeds the new weights' S = disc_similarity(K, alpha, lam); a
    degenerate S stops the loop at the weights just recorded.
    """
    n = kmat.values.shape[0]
    alpha = np.full(n, 1.0 / n)
    y = y0 / np.sqrt(2.0 * (2.0 / n - config.lam / n**2))
    trace: list[float] = []
    qp_converged = True
    for step in range(1, config.max_iter + 1):
        sol = solve_alpha_coupled(y, kmat, config.lam, start=alpha)
        qp_converged = qp_converged and sol.converged
        alpha = sol.alpha
        trace.append(sol.objective)  # the joint objective at (y, alpha)
        if step == config.max_iter:
            break
        if step > 1 and abs(trace[-1] - trace[-2]) <= _STOP_TOL * max(1.0, abs(trace[-2])):
            break
        try:  # the graph lives only through the embedding the next step takes
            y = solve_embedding(disc_similarity(kmat, alpha, config.lam), config.c)
        except DegenerateDataError:
            break  # a drained neighborhood leaves no normalized Laplacian
    return alpha, y, trace, qp_converged


def run_cdsk(data: SampleMatrix, config: CdskConfig) -> ClusteringResult:
    """Alternate spectral embedding and coupled weight updates, then k-means.

    The weights start uniform, alpha = 1/n, where the discriminative
    similarity is a constant multiple of the kernel, so the first embedding
    is the baseline's, solve_embedding of K itself, rescaled; no S is built
    for it.  A point with zero degree in K raises DegenerateDataError.

    Per iteration: re-fit the weights on the simplex keeping the current
    embedding normalized (warm-started at the previous, exactly feasible,
    weights), record the joint objective tr(Y^T L Y) - alpha^T K 1 +
    lam alpha^T K alpha there, then stop (max_iter, a relative stall or a
    degenerate graph) or embed the new weights' graph.  k-means clusters the
    last embedding; the trace ends at the returned weights' objective on it
    and is nonincreasing: the weight step only accepts descent at fixed Y, and
    the embedding step cannot raise the trace term because the previous
    embedding stays (to solver precision) feasible for the new degrees.
    """
    if data.n < config.c:
        raise ValidationError(f"n={data.n} is smaller than c={config.c}")
    kmat = _gram(data, config.bandwidth)
    y0 = solve_embedding(kmat.values, config.c)
    alpha, y, trace, qp_converged = _alternate(kmat, y0, config)
    part = kmeans(y, config.c, seed=config.seed)
    return ClusteringResult(
        labels=part.labels,
        alpha=alpha,
        objective_trace=trace,
        metrics=_metrics_against(part.labels, data.labels),
        lambda_used=config.lam,
        bandwidth_used=kmat.bandwidth,
        seed=config.seed,
        qp_converged=qp_converged,
    )


def embedding_entropy(y: np.ndarray) -> float:
    """Mean Shannon entropy of row-wise softmax; low entropy = crisp clusters."""
    y = np.asarray(y, dtype=np.float64)
    shifted = y - y.max(axis=1, keepdims=True)
    w = np.exp(shifted)
    p = w / w.sum(axis=1, keepdims=True)
    logs = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return float(np.mean(-np.sum(p * logs, axis=1)))


def tune_lambda(
    data: SampleMatrix, config: CdskConfig, grid=DEFAULT_LAMBDA_GRID
) -> tuple[float, list[float]]:
    """Pick lambda by minimum embedding entropy on a validation subsample.

    The subsample holds 10% of the data, floored at max(2c, 10) points, drawn
    with config.seed.  On its one gram matrix the uniform-weights embedding
    is solved once for the whole grid; each grid point runs run_cdsk's
    alternation from it and scores the last embedding, the one run_cdsk
    clusters; no k-means runs.  Ties keep the smaller lambda.
    """
    configs = [replace(config, lam=lam) for lam in grid]  # validates all first
    if not configs:
        raise ConfigError("lambda grid must be non-empty")
    grid = [float(cfg.lam) for cfg in configs]
    size = max(int(np.ceil(_VALIDATION_FRACTION * data.n)), 2 * config.c, 10)
    if size > data.n:
        raise ValidationError(
            f"validation subset needs {size} points but the data has {data.n}"
        )
    rng = np.random.default_rng(config.seed)
    idx = np.sort(rng.choice(data.n, size=size, replace=False))
    kmat = _gram(SampleMatrix(data.data[idx]), config.bandwidth)
    y0 = solve_embedding(kmat.values, config.c)
    entropies = [embedding_entropy(_alternate(kmat, y0, cfg)[1]) for cfg in configs]
    best = min(range(len(grid)), key=lambda i: (entropies[i], grid[i]))
    return grid[best], entropies


def run_baseline_spectral(
    data: SampleMatrix, c: int, seed: int = 0, bandwidth: float | None = None
) -> ClusteringResult:
    """Plain normalized spectral clustering on the raw gram matrix.

    The uniform-weights special case: there the similarity is a constant
    multiple of K, which leaves the normalized Laplacian unchanged, so
    solve_embedding runs on K itself, with degrees K 1, and no S is built;
    run_cdsk and tune_lambda start from the same embedding.  Up to n = 400
    (and for c >= n // 4) that adds N next to K; above it, no n x n array
    besides K, only the Lanczos basis of one n-vector per product.
    No lambda enters: the result's lambda_used 0.1 is a placeholder.  Unlike
    run_cdsk it accepts c = 1.  bandwidth None picks the heuristic, seed
    drives k-means, whose 10 restarts are fixed.
    """
    c, seed = _integer("c", c, 1), _integer("seed", seed, 0)
    if data.n < c:
        raise ValidationError(f"n={data.n} is smaller than c={c}")
    kmat = _gram(data, bandwidth)
    part = kmeans(solve_embedding(kmat.values, c), c, seed=seed)
    return ClusteringResult(
        labels=part.labels,
        alpha=np.full(data.n, 1.0 / data.n),
        objective_trace=[],
        metrics=_metrics_against(part.labels, data.labels),
        lambda_used=0.1,
        bandwidth_used=kmat.bandwidth,
        seed=seed,
        qp_converged=True,
    )
