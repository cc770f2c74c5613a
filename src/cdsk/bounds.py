"""Margin loss, its similarity-weighted surrogate, and generalization bounds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_io import SampleMatrix
from .errors import ValidationError
from .kernel import KernelSpec
from .similarity import check_simplex, class_scores
from .spectral import check_symmetric


@dataclass(frozen=True)
class BoundInputs:
    """Quantities entering the error bounds.

    b_plus / b_minus bound the weighted quadratic forms of the PSD parts of
    the similarity; r bounds sqrt(sup_x S_plusminus(x, x)).
    """

    n: int
    c: int
    gamma: float
    delta: float
    b_plus: float
    b_minus: float
    r: float

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n must be >= 1")
        if self.c < 2:
            raise ValidationError("c must be >= 2")
        if not self.gamma > 0:
            raise ValidationError("gamma must be > 0")
        if not 0.0 < self.delta < 1.0:
            raise ValidationError("delta must lie in (0, 1)")
        if self.b_plus < 0 or self.b_minus < 0:
            raise ValidationError("b_plus and b_minus must be >= 0")
        if not self.r > 0:
            raise ValidationError("r must be > 0")


def phi(x):
    """Ramp loss: 1 for x <= 0, 1 - x on [0, 1], 0 for x >= 1; elementwise on arrays."""
    return np.clip(1.0 - np.asarray(x, dtype=np.float64), 0.0, 1.0)


def class_row_sums(m: np.ndarray, w, labels) -> tuple[np.ndarray, np.ndarray]:
    """(own, total): own_i = sum_{j: y_j = y_i} m_ij w_j, total_i = sum_j m_ij w_j.

    Read from the n x c product m @ (w * E), E the classes' one-hot: O(n^2 c)
    and no n x n temporary.  For symmetric m the blocked form sum_y w^(y)T m w^(y)
    is w @ own, and sum_{i,j} (w_i + w_j) m_ij [y_i != y_j] is 2 sum(total - own).
    """
    classes, index = np.unique(labels, return_inverse=True)
    rows = np.arange(index.size)
    weighted = np.zeros((index.size, classes.size))
    weighted[rows, index] = w
    sums = m @ weighted
    return sums[rows, index], sums.sum(axis=1)


def empirical_loss(train: SampleMatrix, alpha, spec: KernelSpec, gamma: float) -> float:
    """Mean ramp loss of the margins scaled by gamma over the training sample."""
    if not gamma > 0:
        raise ValidationError("gamma must be > 0")
    table = class_scores(train.data, train, alpha, spec)
    if table.shape[1] < 2:
        raise ValidationError("margins need at least 2 classes")
    # margin: own-class score minus the best competing class score
    own = (np.arange(train.n), train.labels - 1)
    margins = table[own]
    table[own] = -np.inf
    margins -= table.max(axis=1)
    return float(np.mean(phi(margins / gamma)))


def empirical_loss_upper_bound(
    train: SampleMatrix, alpha, gamma: float, similarity: np.ndarray
) -> float:
    """Similarity-weighted upper bound on the mean ramp loss (gamma >= 1 only).

    1 - (1/(n gamma)) sum_{i,j} ((a_i + a_j)/2) s_ij
      + (1/(n gamma)) sum_{i<j} 2 (a_i + a_j) s_ij [y_i != y_j]
    """
    if train.labels is None:
        raise ValidationError("training data carries no labels")
    if not gamma >= 1.0:
        raise ValidationError(f"the surrogate bound requires gamma >= 1, got {gamma}")
    s = check_symmetric(np.asarray(similarity, dtype=np.float64))
    if s.shape[0] != train.n:
        raise ValidationError("similarity matrix does not match the sample")
    if float(s.min()) < 0.0 or float(s.max()) > 1.0 + 1e-12:
        raise ValidationError("similarity entries must lie in [0, 1]")
    alpha = check_simplex(alpha, n=train.n)
    own, all_class = class_row_sums(s, alpha, train.labels)
    total = float(all_class.sum())  # = sum_{i,j} ((a_i + a_j)/2) s_ij, s symmetric
    cross = 2.0 * float(np.sum(all_class - own))  # = sum_{i<j} 2 (a_i+a_j) s_ij [diff]
    return 1.0 - total / (train.n * gamma) + cross / (train.n * gamma)


def generalization_bound(inputs: BoundInputs, empirical: float) -> float:
    """High-probability bound on the generalization error of the margin rule."""
    if empirical < 0:
        raise ValidationError("empirical loss must be >= 0")
    n, c = inputs.n, inputs.c
    b_total = inputs.b_plus + inputs.b_minus
    complexity = 8.0 * inputs.r * (2 * c - 1) * c * b_total / (inputs.gamma * np.sqrt(n))
    deviation = (
        16.0 * c * (2 * c - 1) * b_total * inputs.r**2 / inputs.gamma + 1.0
    ) * np.sqrt(np.log(4.0 / inputs.delta) / (2.0 * n))
    return float(empirical + complexity + deviation)


def rademacher_bound(inputs: BoundInputs, delta: float) -> float:
    """High-probability bound on the Rademacher complexity of the score class."""
    if not 0.0 < delta < 1.0:
        raise ValidationError("delta must lie in (0, 1)")
    n, c = inputs.n, inputs.c
    b_total = inputs.b_plus + inputs.b_minus
    lead = inputs.r * (2 * c - 1) * c * b_total / np.sqrt(n)
    tail = 2.0 * c * (2 * c - 1) * b_total * inputs.r**2 * np.sqrt(
        np.log(2.0 / delta) / (2.0 * n)
    )
    return float(lead + tail)
