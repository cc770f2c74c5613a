"""Spectral embedding from the normalized Laplacian of a similarity graph."""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError
from .similarity import DiscSimilarityGraph
from .spectral import smallest_eigenpairs


def solve_embedding(graph: DiscSimilarityGraph, c: int) -> np.ndarray:
    """Trace-minimizing embedding under the degree constraint Y^T D Y = I.

    Takes the c smallest eigenvectors U of the normalized Laplacian
    N = I - D^{-1/2} S D^{-1/2} and returns the (n, c) array Y = D^{-1/2} U,
    one row per sample.  With positive degrees, N has the null vector
    D^{1/2} 1 in closed form; it is handed to the eigensolver normalized, so
    above the dense size limit the Lanczos iteration (run on the shifted
    operator sigma I - N, see smallest_eigenpairs) deflates it and computes
    only the other c - 1 vectors.
    """
    n = graph.degree.shape[0]
    if not 1 <= c <= n:
        raise ValidationError(f"need 1 <= c <= n, got c={c}, n={n}")
    sqrt_degree = np.sqrt(graph.degree)
    null_vector = sqrt_degree / np.linalg.norm(sqrt_degree)
    _, u = smallest_eigenpairs(graph.normalized_laplacian, c, null_vector=null_vector)
    y = u / sqrt_degree[:, None]
    feas = y.T @ (graph.degree[:, None] * y)
    if float(np.max(np.abs(feas - np.eye(c)))) > 1e-6:
        raise NumericError("embedding violates the degree-orthonormality constraint")
    return y
