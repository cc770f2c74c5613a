"""Isotropic Gaussian kernel, gram matrix assembly, bandwidth heuristic."""

from __future__ import annotations

import numbers
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

    The one bandwidth rule: a real number > 0, with the kernel's denominator
    2 bandwidth^2 finite and > 0, so it neither underflows to zero nor
    overflows to inf.
    """

    bandwidth: float

    def __post_init__(self):
        h = self.bandwidth
        if not isinstance(h, numbers.Real):
            raise ValidationError(f"bandwidth must be a real number, got {h!r}")
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


def _squared_distances(a: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of a, on and above the diagonal
    blocks; _finish mirrors the rest.

    ||a_i||^2 + ||a_j||^2 - 2 a_i.a_j, clamped at 0, built in place in BLAS
    syrk's 2 a a^T, one row block's diagonal square and the rest of its upper
    trapezoid at a time, each block's norm sums in one reused block-sized
    buffer.  Above one row block that is the upper triangle of scipy's dsyrk
    at alpha = 2; within one it is numpy's a @ a.T, which runs the same syrk
    and mirrors it, doubled once (scaling by 2 is exact: the same bytes).
    """
    n = a.shape[0]
    aa = np.sum(a * a, axis=1)
    if 1 < n <= _ROW_BLOCK:
        # one row block: numpy's a @ a.T is that syrk, mirrored in C faster
        # than the masked copy below (at n = 1 numpy takes a dot instead)
        a = np.ascontiguousarray(a)
        out = a @ a.T
        out *= 2.0
    else:
        # an empty c, not the zeroed one dsyrk would allocate: at beta = 0 syrk
        # reads none of c and writes its lower triangle, which is out's upper
        c = np.empty((n, n), order="F")
        out = dsyrk(2.0, a.T, c=c, trans=1, lower=1, overwrite_c=1).T
    sums = np.empty((min(n, _ROW_BLOCK), n))
    for start in range(0, n, _ROW_BLOCK):
        block = out[start : start + _ROW_BLOCK, start:]
        m, width = block.shape
        if n > _ROW_BLOCK:
            # below the diagonal of its square the block is unwritten memory: the
            # mirrored product goes there, and the chain's result equals its mirror
            square = block[:, :m]
            np.copyto(square, square.T, where=_LOWER[:m, :m])
        # np.add.outer runs the same sums as broadcasting, with less dispatch
        outer = np.add.outer(aa[start : start + m], aa[start:], out=sums[:m, :width])
        np.subtract(outer, block, out=block)
        np.maximum(block, 0.0, out=block)
    return out


def _finish(out: np.ndarray, denominator: float | None) -> np.ndarray:
    """With a denominator, the kernel exp(-sq / denominator) in place of the
    squared distances; then the mirror of each block's part right of its square.

    One row block at a time, each mirrored right after its kernel values, in
    _ROW_BLOCK x _ROW_BLOCK transposed tiles read while the block is in cache.
    Every entry takes the same operations whole-array passes would give it,
    so the bytes do not depend on the blocking.
    """
    n = out.shape[0]
    for start in range(0, n, _ROW_BLOCK):
        end = min(start + _ROW_BLOCK, n)
        if denominator is not None:
            block = out[start:end, start:]
            # sq / -denominator is -(sq / denominator) exactly: one pass, not two
            np.divide(block, -denominator, out=block)
            np.exp(block, out=block)
        for tile in range(end, n, _ROW_BLOCK):
            out[tile : tile + _ROW_BLOCK, start:end] = out[start:end, tile : tile + _ROW_BLOCK].T
    return out


def pairwise_sq_dists(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric squared Euclidean distances between the rows of a."""
    return _finish(_squared_distances(a), None)


def gram(data: SampleMatrix, spec: KernelSpec | None = None) -> GramMatrix:
    """Exactly symmetric kernel gram matrix with unit diagonal.

    ||a||^2 + ||b||^2 - 2 a.b loses about eps ||x||^2, so the points are
    shifted by their mean first: data far from the origin keeps its digits.
    The kernel is built in place on its upper triangle and mirrored: the
    peak is the one n x n array plus a row block.  The symmetry
    comes from the mirror, not a symmetrizing pass (see
    test_gram_unit_diagonal_and_symmetry); the computed diagonal is not
    exactly 1.  With no spec the bandwidth is default_bandwidth's, read from
    the squared distances before the kernel chain finishes in their buffer.
    """
    sq = _squared_distances(data.data - data.data.mean(axis=0))
    if spec is None:
        spec = KernelSpec(_distance_variance(sq))
    values = _finish(sq, 2.0 * spec.bandwidth**2)
    np.fill_diagonal(values, 1.0)
    return GramMatrix(values=values, bandwidth=spec.bandwidth)


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
    return _distance_variance(_squared_distances(data.data - data.data.mean(axis=0)))

