"""Spectral embedding from the normalized Laplacian of a similarity graph."""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg

from .errors import NumericError, ValidationError
from .kernel import _ROW_BLOCK, GramMatrix
from .similarity import DiscSimilarityGraph, check_degrees, disc_similarity
from .spectral import check_symmetric, lanczos_applies, lanczos_smallest, overwriting_smallest

# lambda of the uniform graph, the library default: it scales only the
# degrees, and hence Y, not N
_UNIFORM_LAMBDA = 0.1


def _check_c(c: int, n: int) -> None:
    if not 1 <= c <= n:
        raise ValidationError(f"need 1 <= c <= n, got c={c}, n={n}")


def _dense_laplacian(graph: DiscSimilarityGraph) -> np.ndarray:
    """N = I - D^{-1/2} S D^{-1/2} in a new n x n buffer.

    (diag(degree) - s) * outer(inv_sqrt, inv_sqrt), the outer product taken a
    block of rows at a time; 0 - s, not -s, keeps the sign of zeros.  An
    exactly symmetric S gives an exactly symmetric N.
    """
    s, degree = graph.s, graph.degree
    lap = np.subtract(0.0, s)
    np.fill_diagonal(lap, degree - np.diagonal(s))
    inv_sqrt = 1.0 / np.sqrt(degree)
    for start in range(0, lap.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        lap[rows] *= np.outer(inv_sqrt[rows], inv_sqrt)
    return lap


def _degree_scaled(u: np.ndarray, sqrt_degree: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Y = D^{-1/2} U, checked against the constraint Y^T D Y = I."""
    y = u / sqrt_degree[:, None]
    feas = y.T @ (degree[:, None] * y)
    if float(np.max(np.abs(feas - np.eye(y.shape[1])))) > 1e-6:
        raise NumericError("embedding violates the degree-orthonormality constraint")
    return y


def _embed(m: np.ndarray, w: np.ndarray, degree: np.ndarray, c: int, graph) -> np.ndarray:
    """Y = D^{-1/2} U, U the c smallest eigenvectors of N = I - W m W.

    m is a checked symmetric similarity, w = (m 1)^{-1/2} and degree the
    graph's degrees D, a positive multiple of m 1.  Where lanczos_applies, the
    Lanczos solve runs on m and deflates N's null vector D^{1/2} 1.
    Elsewhere, and if ARPACK fails, LAPACK's subset solve runs on the N of
    the graph graph() returns, built in a buffer that the solve overwrites.
    """
    sqrt_degree = np.sqrt(degree)
    if lanczos_applies(degree.shape[0], c):
        try:
            _, u = lanczos_smallest(m, c, sqrt_degree / np.linalg.norm(sqrt_degree), w)
            return _degree_scaled(u, sqrt_degree, degree)
        except scipy.sparse.linalg.ArpackError:
            pass  # the dense solve answers instead
    _, u = overwriting_smallest(_dense_laplacian(graph()), c)
    return _degree_scaled(u, sqrt_degree, degree)


def solve_embedding(graph: DiscSimilarityGraph, c: int) -> np.ndarray:
    """Trace-minimizing embedding under the degree constraint Y^T D Y = I.

    Takes the c smallest eigenvectors U of the normalized Laplacian
    N = I - D^{-1/2} S D^{-1/2} and returns the (n, c) array Y = D^{-1/2} U,
    one row per sample.  With positive degrees, N has the null vector
    D^{1/2} 1 in closed form, so above the dense size limit the Lanczos
    iteration, run on S itself, deflates it and computes only the other
    c - 1 vectors.
    """
    _check_c(c, graph.degree.shape[0])
    s = check_symmetric(graph.s)
    return _embed(s, 1.0 / np.sqrt(graph.degree), graph.degree, c, lambda: graph)


def uniform_embedding(gram: GramMatrix, c: int) -> np.ndarray:
    """solve_embedding of the uniform-weight graph disc_similarity(gram, 1/n,
    0.1), computed from K alone where the eigensolve is a Lanczos one.

    At alpha = 1/n the similarity is s0 K with s0 = 2 (2/n - lam/n^2), so the
    degrees are s0 K1 and N = I - W K W with w = (K1)^{-1/2}: s0 cancels, and
    N is the normalized Laplacian of K (Ng, Jordan & Weiss 2001).  Where
    lanczos_applies(n, c), the Lanczos solve runs on K, and no n x n array
    besides K is built unless ARPACK fails: then the dense subset solve runs
    on the N of the graph disc_similarity builds.  Elsewhere the graph is
    built and solve_embedding runs on it.
    """
    n = gram.values.shape[0]
    _check_c(c, n)

    def graph():
        return disc_similarity(gram, np.full(n, 1.0 / n), _UNIFORM_LAMBDA)

    if not lanczos_applies(n, c):
        return solve_embedding(graph(), c)
    k = check_symmetric(gram.values)
    row_sums = k.sum(axis=1)
    a = 1.0 / n
    # s0 as disc_similarity computes each s_ij / k_ij
    degree = check_degrees(((a + a) - a * a * _UNIFORM_LAMBDA) * 2.0 * row_sums)
    return _embed(k, 1.0 / np.sqrt(row_sums), degree, c, graph)
