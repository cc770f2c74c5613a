"""Spectral embedding from the normalized Laplacian of a similarity graph."""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDataError, NumericError, ValidationError
from .spectral import check_symmetric, lanczos_applies, lanczos_smallest, overwriting_smallest

# A graph row whose degree falls below this fraction of the largest degree is
# effectively disconnected and breaks the normalized Laplacian.
_DEGREE_REL_FLOOR = 1e-12
# Rows of N scaled at a time: the scale factors' temporary holds 32 rows,
# 0.08 of N at the dense eigensolver limit (n = 400).
_SCALE_ROWS = 32


def _check_degrees(degree: np.ndarray) -> np.ndarray:
    """Raise DegenerateDataError if a graph row's degree is (near-)zero, at or
    below _DEGREE_REL_FLOOR times the largest degree; returns degree."""
    floor = _DEGREE_REL_FLOOR * max(float(degree.max()), 0.0)
    if float(degree.min()) <= floor:
        raise DegenerateDataError(
            "a graph row has (near-)zero degree; similarity graph is disconnected"
        )
    return degree


def _dense_laplacian(s: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """N = I - D^{-1/2} S D^{-1/2} in a new n x n buffer, D = diag(degree).

    (diag(degree) - s) * outer(inv_sqrt, inv_sqrt), the outer product taken
    _SCALE_ROWS rows at a time; 0 - s, not -s, keeps the sign of zeros.  An
    exactly symmetric S gives an exactly symmetric N.
    """
    lap = np.subtract(0.0, s)
    np.fill_diagonal(lap, degree - np.diagonal(s))
    inv_sqrt = 1.0 / np.sqrt(degree)
    for start in range(0, lap.shape[0], _SCALE_ROWS):
        rows = slice(start, start + _SCALE_ROWS)
        lap[rows] *= np.outer(inv_sqrt[rows], inv_sqrt)
    return lap


def solve_embedding(s: np.ndarray, c: int) -> np.ndarray:
    """Trace-minimizing embedding under the degree constraint Y^T D Y = I.

    S is any symmetric nonnegative similarity, D = diag(S 1) its degrees; a
    (near-)zero degree raises DegenerateDataError before any eigensolve.
    Takes the c smallest eigenvectors U of the normalized Laplacian
    N = I - D^{-1/2} S D^{-1/2} and returns the (n, c) array Y = D^{-1/2} U,
    one row per sample.  With positive degrees, N has the null vector
    D^{1/2} 1 in closed form, so where lanczos_applies (n above 400) the
    block Lanczos iteration, run on S itself, deflates it and computes only
    the other c - 1 vectors.  Elsewhere, and if that iteration fails with
    NumericError, LAPACK's subset solve runs on N, built from S in a buffer
    that the solve overwrites.  The
    baseline embeds K itself: at uniform weights S = s0 K, whose N is the
    same (Ng, Jordan & Weiss 2001).
    """
    s = check_symmetric(s)
    n = s.shape[0]
    if not 1 <= c <= n:
        raise ValidationError(f"need 1 <= c <= n, got c={c}, n={n}")
    degree = _check_degrees(s.sum(axis=1))
    u = None
    if lanczos_applies(n, c):
        try:
            _, u = lanczos_smallest(s, c, degree)
        except NumericError:
            pass  # the dense solve answers instead
    if u is None:
        _, u = overwriting_smallest(_dense_laplacian(s, degree), c)
    y = u / np.sqrt(degree)[:, None]
    feas = y.T @ (degree[:, None] * y)
    if float(np.max(np.abs(feas - np.eye(c)))) > 1e-6:
        raise NumericError("embedding violates the degree-orthonormality constraint")
    return y
