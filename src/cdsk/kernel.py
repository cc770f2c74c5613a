"""Isotropic Gaussian kernel, gram matrix assembly, bandwidth heuristic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk

from .data_io import SampleMatrix
from .errors import DegenerateDataError, ValidationError

# Relative spread below this treats the pairwise-distance multiset as constant.
_DEGENERATE_REL_STD = 1e-12
# Rows per block of the in-place n x n builds here and in similarity, and of
# the query blocks of similarity.class_scores: their temporaries are _ROW_BLOCK x n.
_ROW_BLOCK = 128
# Entries below the diagonal of a _ROW_BLOCK square; its transpose, above it.
_LOWER = np.tri(_ROW_BLOCK, k=-1, dtype=bool)


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


def _row_blocks(n: int, upper: bool):
    """(rows, cols) of each _ROW_BLOCK-row block of an n-row build: the whole
    rows, or with upper only the block's upper trapezoid, from its diagonal on."""
    for start in range(0, n, _ROW_BLOCK):
        yield slice(start, start + _ROW_BLOCK), slice(start if upper else 0, None)


def _mirror(out: np.ndarray, rows: slice) -> None:
    """Copy a row block's upper trapezoid into the lower triangle of out.

    The diagonal square goes through one cached lower mask, the rest as
    _ROW_BLOCK x _ROW_BLOCK transposed tiles, read while the block is in cache.
    """
    n = out.shape[0]
    start, end = rows.start, min(rows.stop, n)
    square = out[start:end, start:end]
    np.copyto(square, square.T, where=_LOWER[: end - start, : end - start])
    for tile in range(end, n, _ROW_BLOCK):
        out[tile : tile + _ROW_BLOCK, start:end] = out[start:end, tile : tile + _ROW_BLOCK].T


def _squared_distances(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, bool]:
    """Squared distances between rows of a and rows of b, and whether only
    the upper triangle holds them.

    ||a_i||^2 + ||b_j||^2 - 2 a_i.b_j, clamped at 0, built in place in the
    product a b^T one row block at a time.  For b is a, C-contiguous and more
    than one block, the product is the upper triangle of BLAS syrk (the bytes
    of numpy's a @ a.T, which runs the same syrk and then mirrors it) and the
    chain runs on each block's upper trapezoid only; _finish mirrors it.  A
    single block has no rows below its trapezoid to skip, and there numpy's
    own mirror costs less than the tile copies.
    """
    aa = np.sum(a * a, axis=1)
    upper = b is a and a.flags.c_contiguous and a.shape[0] > _ROW_BLOCK
    if upper:
        # an empty c, not the zeroed one dsyrk would allocate: at beta = 0 syrk
        # reads none of c and writes its lower triangle, which is out's upper
        c = np.empty((a.shape[0], a.shape[0]), order="F")
        bb, out = aa, dsyrk(1.0, a.T, c=c, trans=1, lower=1, overwrite_c=1).T
    else:
        bb, out = np.sum(b * b, axis=1), a @ b.T
    for rows, cols in _row_blocks(out.shape[0], upper):
        block = out[rows, cols]
        if upper:
            # below the diagonal of its first square the block is unwritten memory
            m = block.shape[0]
            np.copyto(block[:, :m], 0.0, where=_LOWER[:m, :m])
        block *= 2.0
        np.subtract(aa[rows, None] + bb[None, cols], block, out=block)
        np.maximum(block, 0.0, out=block)
    return out, upper


def _finish(out: np.ndarray, upper: bool, denominator: float | None) -> np.ndarray:
    """With a denominator, the kernel exp(-sq / denominator) in place of the
    squared distances; with upper, then the mirror of each block.

    One row block at a time, each mirrored right after its kernel values.
    Every entry takes the same operations whole-array passes would give it,
    so the bytes do not depend on the blocking.
    """
    for rows, cols in _row_blocks(out.shape[0], upper):
        if denominator is not None:
            block = out[rows, cols]
            # sq / -denominator is -(sq / denominator) exactly: one pass, not two
            np.divide(block, -denominator, out=block)
            np.exp(block, out=block)
        if upper:
            _mirror(out, rows)
    return out


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a and rows of b.

    Exactly symmetric for b = a C-contiguous, which computes one triangle and
    mirrors it; a strided view takes numpy's general product path.
    """
    return _finish(*_squared_distances(a, b), None)


def pairwise_kernel(a: np.ndarray, b: np.ndarray, bandwidth: float) -> np.ndarray:
    """Kernel matrix between rows of a and rows of b, both shifted by a's mean.

    ||a||^2 + ||b||^2 - 2 a.b loses about eps ||x||^2, so uncentered data far
    from the origin would lose digits.  For b is a the one centered array goes
    in twice, so the result is built on one triangle and exactly symmetric.
    """
    shift = a.mean(axis=0)
    centered = a - shift
    sq, upper = _squared_distances(centered, centered if b is a else b - shift)
    return _finish(sq, upper, 2.0 * bandwidth**2)


def _centered_sq_dists(data: SampleMatrix) -> tuple[np.ndarray, bool]:
    """_squared_distances of the points centered on their mean, as
    pairwise_kernel centers them."""
    centered = data.data - data.data.mean(axis=0)
    return _squared_distances(centered, centered)


def _gram_from(sq: np.ndarray, upper: bool, spec: KernelSpec) -> GramMatrix:
    values = _finish(sq, upper, 2.0 * spec.bandwidth**2)
    np.fill_diagonal(values, 1.0)
    return GramMatrix(values=values, bandwidth=spec.bandwidth)


def gram(data: SampleMatrix, spec: KernelSpec) -> GramMatrix:
    """Exactly symmetric kernel gram matrix with unit diagonal.

    Built in place on its upper triangle and mirrored: the peak is the one
    n x n array plus a row block.  The symmetry comes from the mirror, not a
    symmetrizing pass (see test_gram_unit_diagonal_and_symmetry); the
    computed diagonal is not exactly 1.
    """
    return _gram_from(*_centered_sq_dists(data), spec)


def _distance_variance(sq: np.ndarray) -> float:
    """Population variance of the square roots of sq's strict upper triangle.

    Two passes as np.var makes them, the mean and then the mean squared
    deviation from it, each reading one row block's part at a time.
    Raises DegenerateDataError when the distances coincide.
    """
    n = sq.shape[0]

    def distances():
        for start in range(0, n, _ROW_BLOCK):
            end = min(start + _ROW_BLOCK, n)
            yield np.sqrt(sq[start:end, start:end][_LOWER.T[: end - start, : end - start]])
            yield np.sqrt(sq[start:end, end:])

    count = n * (n - 1) // 2
    mean = sum(float(d.sum()) for d in distances()) / count
    var = 0.0
    for d in distances():
        d -= mean
        var += float(np.vdot(d, d))
    var /= count
    if var <= (_DEGENERATE_REL_STD * mean) ** 2:
        raise DegenerateDataError(
            "pairwise distances have zero variance; supply an explicit bandwidth"
        )
    return var


def default_bandwidth(data: SampleMatrix) -> float:
    """Population variance of the pairwise-distance multiset {||x_i - x_j||, i<j}.

    The distances are the square roots of the strict upper triangle of the
    squared distances gram builds from the centered points; no second
    distance routine runs.  Raises DegenerateDataError when all pairwise
    distances coincide (identical rows included): the heuristic then carries
    no scale information.
    """
    return _distance_variance(_centered_sq_dists(data)[0])


def heuristic_gram(data: SampleMatrix) -> GramMatrix:
    """gram(data, KernelSpec(default_bandwidth(data))), byte for byte, from
    one build of the squared distances: the bandwidth is read from them
    before the kernel chain finishes in the same buffer.
    """
    sq, upper = _centered_sq_dists(data)
    return _gram_from(sq, upper, KernelSpec(_distance_variance(sq)))
