"""Isotropic Gaussian kernel, gram matrix assembly, bandwidth heuristic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import SampleMatrix
from .errors import DegenerateDataError, ValidationError

# Relative spread below this treats the pairwise-distance multiset as constant.
_DEGENERATE_REL_STD = 1e-12
# Rows per block of the in-place n x n builds here and in similarity, and of
# the query blocks of similarity.class_scores: their temporaries are _ROW_BLOCK x n.
_ROW_BLOCK = 128


@dataclass(frozen=True)
class KernelSpec:
    """Gaussian kernel exp(-||x - t||^2 / (2 bandwidth^2)).

    The one bandwidth rule: > 0, with the kernel's denominator 2 bandwidth^2
    finite and > 0, so it neither underflows to zero nor overflows to inf.
    """

    bandwidth: float

    def __post_init__(self):
        h = self.bandwidth
        if not (h > 0 and 0.0 < 2.0 * h * h < np.inf):
            raise ValidationError(f"bandwidth must be > 0 with 2 h^2 finite and > 0, got {h}")


@dataclass(frozen=True)
class GramMatrix:
    """Kernel values on all sample pairs, plus the bandwidth that produced them."""

    values: np.ndarray
    bandwidth: float


def eval_kernel(x, t, spec: KernelSpec) -> float:
    """Kernel value at a single pair of points."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if x.shape != t.shape:
        raise ValidationError(f"point shapes differ: {x.shape} vs {t.shape}")
    diff = x - t
    return float(np.exp(-np.dot(diff, diff) / (2.0 * spec.bandwidth**2)))


def _pairwise(a: np.ndarray, b: np.ndarray, denominator: float | None) -> np.ndarray:
    """Squared distances between rows of a and rows of b, then with a
    denominator the kernel exp(-sq / denominator).

    Built in place in the array a @ b.T returns, one row block at a time:
    every operation of the chain runs on a block while it is in cache, in the
    same order for every entry as whole-array passes would.
    """
    aa = np.sum(a * a, axis=1)
    bb = np.sum(b * b, axis=1)
    out = a @ b.T
    for start in range(0, out.shape[0], _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        block = out[rows]
        block *= 2.0
        np.subtract(aa[rows, None] + bb[None, :], block, out=block)
        np.maximum(block, 0.0, out=block)
        if denominator is not None:
            np.negative(block, out=block)
            np.divide(block, denominator, out=block)
            np.exp(block, out=block)
    return out


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a and rows of b.

    Exactly symmetric for b = a contiguous: numpy runs a @ a.T as a rank-k
    update (syrk) that mirrors one triangle; strided views take another path.
    """
    return _pairwise(a, b, None)


def pairwise_kernel(a: np.ndarray, b: np.ndarray, bandwidth: float) -> np.ndarray:
    """Kernel matrix between rows of a and rows of b, both shifted by a's mean.

    ||a||^2 + ||b||^2 - 2 a.b loses about eps ||x||^2, so uncentered data far
    from the origin would lose digits.  For b is a the one centered array goes
    in twice, so a @ a.T stays a syrk and the result exactly symmetric.
    """
    shift = a.mean(axis=0)
    centered = a - shift
    return _pairwise(centered, centered if b is a else b - shift, 2.0 * bandwidth**2)


def gram(data: SampleMatrix, spec: KernelSpec) -> GramMatrix:
    """Exactly symmetric kernel gram matrix with unit diagonal.

    Built in place: the peak is the one n x n array plus a row block.  The
    symmetry comes from pairwise_kernel, not a symmetrizing pass (see
    test_gram_unit_diagonal_and_symmetry); the computed diagonal is not exactly 1.
    """
    values = pairwise_kernel(data.data, data.data, spec.bandwidth)
    np.fill_diagonal(values, 1.0)
    return GramMatrix(values=values, bandwidth=spec.bandwidth)


def default_bandwidth(data: SampleMatrix) -> float:
    """Population variance of the pairwise-distance multiset {||x_i - x_j||, i<j}.

    Raises DegenerateDataError when all pairwise distances coincide (identical
    rows included): the heuristic then carries no scale information.
    """
    # imported here: scipy.spatial costs about 0.1 s at start-up, and only
    # the heuristic needs it
    from scipy.spatial.distance import pdist

    dists = pdist(data.data)
    mean = float(np.mean(dists))
    var = float(np.var(dists))
    if var <= (_DEGENERATE_REL_STD * mean) ** 2:
        raise DegenerateDataError(
            "pairwise distances have zero variance; supply an explicit bandwidth"
        )
    return var
