"""Discriminative similarity and kernel classifier scores.

The similarity couples per-point simplex weights alpha with the kernel gram
matrix: s_ij = 2 (alpha_i + alpha_j - lam * alpha_i * alpha_j) k_ij, which is
entrywise nonnegative whenever lam <= 2.  The n x n array S is the graph;
embedding.solve_embedding reads its degrees from it.
"""

from __future__ import annotations

import numpy as np

from .data_io import SampleMatrix
from .errors import ConfigError, ValidationError
from .kernel import _ROW_BLOCK, GramMatrix, KernelSpec

_SIMPLEX_TOL = 1e-10


def check_simplex(alpha, n: int | None = None) -> np.ndarray:
    """Validate alpha on the probability simplex to _SIMPLEX_TOL; returns a float64 copy."""
    alpha = np.array(alpha, dtype=np.float64)
    if alpha.ndim != 1:
        raise ValidationError(f"alpha must be a vector, got shape {alpha.shape}")
    if n is not None and alpha.shape[0] != n:
        raise ValidationError(f"alpha has length {alpha.shape[0]}, expected {n}")
    if not np.isfinite(alpha).all():
        raise ValidationError("alpha contains non-finite entries")
    low = alpha.min()
    if low < -_SIMPLEX_TOL:
        raise ValidationError(f"alpha has a negative entry: {low}")
    total = float(alpha.sum())
    if abs(total - 1.0) > _SIMPLEX_TOL:
        raise ValidationError(f"alpha sums to {total}, expected 1")
    return alpha


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0 or lam > 2:
        raise ConfigError(f"lambda must satisfy 0 <= lambda <= 2, got {lam}")
    return lam


def disc_similarity(gram: GramMatrix, alpha, lam: float) -> np.ndarray:
    """The discriminative similarity S for given weights and lambda, an n x n array.

    S = 2 (pair_sum - lam * pair_prod) * K is written into one n x n buffer,
    operation for operation, a block of rows at a time.  gram() makes K
    exactly symmetric, and then S is too.
    """
    lam = _check_lambda(lam)
    k = gram.values
    alpha = check_simplex(alpha, n=k.shape[0])
    s = np.empty_like(k)
    prod = np.empty((_ROW_BLOCK, k.shape[0]))  # reused: one block temporary, not two
    for start in range(0, k.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = np.add.outer(alpha[rows], alpha, out=s[rows])
        pair_prod = np.outer(alpha[rows], alpha, out=prod[: block.shape[0]])
        pair_prod *= lam
        block -= pair_prod
        block *= 2.0
        block *= k[rows]
    return s


def class_scores(queries, train: SampleMatrix, alpha, spec: KernelSpec) -> np.ndarray:
    """The paper's kernel classifier as a (q, c) table of class scores.

    scores[r, y - 1] = sum_{i: y_i = y} alpha_i k(x_r, x_i) for y = 1..max
    label; the classifier picks argmax_y, ties to the smaller class id.  A 1-D
    query is one point.  Built _ROW_BLOCK query rows at a time, so no q x n
    array outlives a block.  Distances are sums of squared differences and a
    class's votes a row sum, with no BLAS product, whose summation order
    depends on the shape: each row is bit-identical to scoring its point alone.
    """
    if train.labels is None:
        raise ValidationError("training data carries no labels")
    alpha = check_simplex(alpha, n=train.n)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.ndim != 2 or queries.shape[1] != train.d:
        raise ValidationError(f"queries have shape {queries.shape}, expected (q, {train.d})")
    order = np.argsort(train.labels, kind="stable")
    points, weights = train.data[order], alpha[order]
    c = int(train.labels.max())
    # class y holds the sorted columns cuts[y - 1]:cuts[y]
    cuts = np.searchsorted(train.labels[order], np.arange(1, c + 2))
    scores = np.empty((queries.shape[0], c))
    for start in range(0, queries.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = queries[rows]
        votes = np.zeros((block.shape[0], train.n))
        for j in range(train.d):
            votes += np.square(block[:, j, None] - points[:, j])
        np.negative(votes, out=votes)
        votes /= 2.0 * spec.bandwidth**2
        np.exp(votes, out=votes)
        votes *= weights
        for y in range(c):
            scores[rows, y] = votes[:, cuts[y] : cuts[y + 1]].sum(axis=1)
    return scores
