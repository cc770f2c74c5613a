"""Lloyd k-means with k-means++ seeding, plus clustering agreement metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_MAX_LLOYD_ITER = 300
_RESTARTS = 10


@dataclass(frozen=True)
class Partition:
    """Cluster assignment with 1-based labels in {1..c}."""

    labels: np.ndarray
    c: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValidationError("labels must be a vector")
        if self.c < 1:
            raise ValidationError("c must be >= 1")
        if labels.size and (labels.min() < 1 or labels.max() > self.c):
            raise ValidationError(f"labels must lie in {{1..{self.c}}}")
        object.__setattr__(self, "labels", labels)


def _plus_plus_seed(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    sq = np.sum((points - centers[0]) ** 2, axis=1)
    for k in range(1, c):
        total = float(sq.sum())
        if total <= 0.0:
            # all remaining mass sits on existing centers; pick uniformly
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=sq / total))
        centers[k] = points[idx]
        sq = np.minimum(sq, np.sum((points - centers[k]) ** 2, axis=1))
    return centers


def _assign(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sq = (
        np.sum(points * points, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers * centers, axis=1)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    assign = np.argmin(sq, axis=1)
    return assign, sq[np.arange(points.shape[0]), assign]


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    """Lloyd iterations from given centers; returns labels and inertia."""
    n, c = points.shape[0], centers.shape[0]
    centers = centers.copy()
    assign = np.full(n, -1)
    for _ in range(_MAX_LLOYD_ITER):
        new_assign, dist_sq = _assign(points, centers)
        # empty clusters grab the point currently farthest from its center
        counts = np.bincount(new_assign, minlength=c)
        for k in np.nonzero(counts == 0)[0]:
            far = int(np.argmax(dist_sq))
            centers[k] = points[far]
            new_assign[far] = k
            dist_sq[far] = 0.0
            counts = np.bincount(new_assign, minlength=c)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for k in range(c):
            members = points[assign == k]
            if members.shape[0]:
                centers[k] = members.mean(axis=0)
    _, dist_sq = _assign(points, centers)
    return assign, float(dist_sq.sum())


def kmeans(points: np.ndarray, c: int, seed: int = 0) -> Partition:
    """Best of _RESTARTS k-means++ starts; ties keep the lowest restart index."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be a 2-D array")
    n = points.shape[0]
    if not 1 <= c <= n:
        raise ValidationError(f"need 1 <= c <= n, got c={c}, n={n}")
    if not np.all(np.isfinite(points)):
        raise ValidationError("points contain non-finite entries")
    seeds = np.random.SeedSequence(seed).spawn(_RESTARTS)
    best_labels, best_inertia = None, np.inf
    for child in seeds:
        rng = np.random.default_rng(child)
        centers = _plus_plus_seed(points, c, rng)
        assign, inertia = _lloyd(points, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = assign, inertia
    return Partition(labels=best_labels + 1, c=c)


def _contingency(pred: Partition, truth: Partition) -> np.ndarray:
    if pred.labels.shape != truth.labels.shape:
        raise ValidationError("partitions cover different numbers of samples")
    size = max(pred.c, truth.c)
    table = np.zeros((size, size), dtype=np.int64)
    np.add.at(table, (pred.labels - 1, truth.labels - 1), 1)
    return table


def accuracy(pred: Partition, truth: Partition) -> float:
    """Clustering accuracy under the best one-to-one label matching."""
    # imported here: scipy.optimize costs about 0.1 s at start-up, and only
    # scoring against known labels needs it
    from scipy.optimize import linear_sum_assignment

    table = _contingency(pred, truth)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum()) / pred.labels.shape[0]


def nmi(pred: Partition, truth: Partition) -> float:
    """Mutual information over sqrt(H(pred) H(truth)), natural logarithms.

    Two single-cluster partitions agree perfectly (defined as 1); when only
    one side is degenerate there is no shared information (0).
    """
    table = _contingency(pred, truth).astype(np.float64)
    n = table.sum()
    joint = table / n
    p_pred = joint.sum(axis=1)
    p_truth = joint.sum(axis=0)
    h_pred = -float(np.sum(p_pred[p_pred > 0] * np.log(p_pred[p_pred > 0])))
    h_truth = -float(np.sum(p_truth[p_truth > 0] * np.log(p_truth[p_truth > 0])))
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    mask = joint > 0
    outer = np.outer(p_pred, p_truth)
    info = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    return info / np.sqrt(h_pred * h_truth)
