"""Spectral embedding from the normalized Laplacian of a similarity graph."""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError
from .kernel import GramMatrix
from .similarity import DiscSimilarityGraph, check_degrees, disc_similarity
from .spectral import check_symmetric, lanczos_applies, lanczos_smallest, smallest_eigenpairs

# lambda of the uniform graph, the library default: it scales only the
# degrees, and hence Y, not N
_UNIFORM_LAMBDA = 0.1


def _check_c(c: int, n: int) -> None:
    if not 1 <= c <= n:
        raise ValidationError(f"need 1 <= c <= n, got c={c}, n={n}")


def _degree_scaled(u: np.ndarray, sqrt_degree: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Y = D^{-1/2} U, checked against the constraint Y^T D Y = I."""
    y = u / sqrt_degree[:, None]
    feas = y.T @ (degree[:, None] * y)
    if float(np.max(np.abs(feas - np.eye(y.shape[1])))) > 1e-6:
        raise NumericError("embedding violates the degree-orthonormality constraint")
    return y


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
    _check_c(c, graph.degree.shape[0])
    sqrt_degree = np.sqrt(graph.degree)
    null_vector = sqrt_degree / np.linalg.norm(sqrt_degree)
    _, u = smallest_eigenpairs(graph.normalized_laplacian, c, null_vector=null_vector)
    return _degree_scaled(u, sqrt_degree, graph.degree)


def uniform_embedding(gram: GramMatrix, c: int) -> np.ndarray:
    """solve_embedding of the uniform-weight graph disc_similarity(gram, 1/n,
    0.1), computed from K alone where the eigensolve is a Lanczos one.

    At alpha = 1/n the similarity is s0 K with s0 = 2 (2/n - lam/n^2), so the
    degrees are s0 K1 and N = I - W K W with w = (K1)^{-1/2}: s0 cancels, and
    N is the normalized Laplacian of K (Ng, Jordan & Weiss 2001).  Where
    lanczos_applies(n, c), lanczos_smallest runs on that operator, one BLAS
    symv call on one triangle of K per product (check_symmetric runs first to
    make that valid).  The null vector D^{1/2} 1 is deflated as in
    solve_embedding, and no n x n array besides K is built, unless ARPACK
    fails: then the dense subset solve runs on the N that disc_similarity
    builds.  Elsewhere the graph is built and solve_embedding runs on it.
    """
    n = gram.values.shape[0]
    _check_c(c, n)
    uniform = np.full(n, 1.0 / n)
    if not lanczos_applies(n, c):
        return solve_embedding(disc_similarity(gram, uniform, _UNIFORM_LAMBDA), c)
    k = check_symmetric(gram.values)
    row_sums = k.sum(axis=1)
    a = 1.0 / n
    # s0 as _fill_similarity computes each s_ij / k_ij
    degree = check_degrees(((a + a) - a * a * _UNIFORM_LAMBDA) * 2.0 * row_sums)
    sqrt_degree = np.sqrt(degree)
    _, u = lanczos_smallest(
        k,
        c,
        sqrt_degree / np.linalg.norm(sqrt_degree),
        lambda: disc_similarity(gram, uniform, _UNIFORM_LAMBDA).normalized_laplacian,
        w=1.0 / np.sqrt(row_sums),
    )
    return _degree_scaled(u, sqrt_degree, degree)
