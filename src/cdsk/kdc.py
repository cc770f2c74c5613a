"""Weighted kernel density classification and its integrated-squared-error terms.

For a binary-labeled sample with simplex weights alpha and Gaussian kernel
bandwidth h, the class densities are p_hat(x, y) = tau0 sum_{i: y_i = y}
alpha_i K_h(x - x_i) with tau0 = (2 pi)^{-d/2} h^{-d}: tau0 times the
kernel classifier's table similarity.class_scores, so the density rule is
that classifier's argmax.  Products of two such kernels integrate against the
wider kernel at bandwidth sqrt(2) h, whose normalizer is
tau1 = (2 pi)^{-d/2} (sqrt(2) h)^{-d}.  So the integral of
(p_hat(x, 1) - p_hat(x, 2))^2 over R^d is tau1 k_alpha, with k_alpha the
sqrt(2) h kernel's sum that empirical_ise_terms returns.  That function
builds only the sqrt(2) h kernel: exp(-r^2 / (4 h^2))^2 = exp(-r^2 / (2 h^2)),
so squaring it in place gives the h kernel, to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import class_row_sums
from .data_io import SampleMatrix
from .errors import ValidationError
from .kernel import _ROW_BLOCK, KernelSpec, gram
from .similarity import check_simplex


@dataclass(frozen=True)
class KdeModel:
    """Weighted two-class sample of n >= 2 points with a kernel bandwidth."""

    points: np.ndarray
    alpha: np.ndarray
    labels: np.ndarray
    h: float

    def __post_init__(self):
        points = SampleMatrix(self.points).data
        alpha = check_simplex(self.alpha, n=points.shape[0])
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (points.shape[0],):
            raise ValidationError("labels must have one entry per point")
        if not np.all((labels == 1) | (labels == 2)):
            raise ValidationError("labels must take values in {1, 2}")
        KernelSpec(self.h)
        # the one kernel built is at sqrt(2) h, whose denominator is about 4 h^2
        wide = float(np.sqrt(2.0) * self.h)
        if not 2.0 * wide * wide < np.inf:
            raise ValidationError(f"bandwidth {self.h} overflows the sqrt(2) h kernel's 4 h^2")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "labels", labels)
        try:
            with np.errstate(over="ignore"):
                finite = np.isfinite(self.tau0) and np.isfinite(self.tau1)
        except OverflowError:  # h ** (-d) on Python floats
            finite = False
        if not finite:
            raise ValidationError(
                f"bandwidth {self.h} overflows the density normalizers in d={self.d}"
            )

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def tau0(self) -> float:
        return float((2.0 * np.pi) ** (-self.d / 2.0) * self.h ** (-self.d))

    @property
    def tau1(self) -> float:
        return float((2.0 * np.pi) ** (-self.d / 2.0) * (np.sqrt(2.0) * self.h) ** (-self.d))


def empirical_ise_terms(model: KdeModel, lambda1: float) -> tuple[float, float, np.ndarray]:
    """Sample statistics of the misclassification ISE surrogate.

    Returns (hat_ise, k_alpha, s_ise):
    hat_ise = 4 sum_{i<j} (a_i + a_j) K_h(x_i - x_j) [y_i != y_j]
              - sum_{i,j} (a_i + a_j) K_h(x_i - x_j);
    k_alpha = a^T Kt a - 4 sum_{i<j} a_i a_j Kt_ij [y_i != y_j]  (Kt at sqrt(2) h);
    s_ise_ij = 4 (a_i + a_j - lambda1 a_i a_j) K_h(x_i - x_j),
    which is twice the discriminative similarity built at lambda = lambda1.
    """
    lambda1 = float(lambda1)
    if not np.isfinite(lambda1):
        raise ValidationError("lambda1 must be finite")
    a = model.alpha
    # Kt's sums first, then Kh = Kt^2 elementwise in Kt's buffer
    k = gram(SampleMatrix(model.points), KernelSpec(np.sqrt(2.0) * model.h)).values
    own, all_class = class_row_sums(k, a, model.labels)
    k_alpha = float(a @ all_class) - 2.0 * float(a @ (all_class - own))
    np.square(k, out=k)
    own, all_class = class_row_sums(k, a, model.labels)
    hat_ise = 4.0 * float(np.sum(all_class - own)) - 2.0 * float(np.sum(all_class))
    # s_ise in Kh's buffer, a row block at a time, op for op as the docstring's formula
    for start in range(0, model.n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        k[rows] *= 4.0 * (a[rows, None] + a - lambda1 * (a[rows, None] * a))
    return hat_ise, k_alpha, k


def ise_residual_slack(model: KdeModel, eps: float) -> float:
    """Additive slack 2 tau0 (1/(n-1) + eps) of the ISE surrogate."""
    if not 0 <= eps < np.inf:
        raise ValidationError(f"eps must be finite and >= 0, got {eps}")
    return 2.0 * model.tau0 * (1.0 / (model.n - 1) + eps)


def gaussian_convolution_check(a: float, b: float, h: float) -> tuple[float, float]:
    """Integral of K_h(x - a) K_h(x - b) over the line: quadrature vs closed form.

    The closed form is sqrt(pi) h exp(-(a - b)^2 / (4 h^2)); the numeric value
    comes from a composite trapezoid on [min - 10h, max + 10h] with 20001
    nodes.  a and b must be finite, and so must the square of that interval's
    length, which bounds every squared offset below.
    """
    KernelSpec(h)
    a, b = float(a), float(b)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValidationError(f"a and b must be finite, got {a} and {b}")
    lo, hi = min(a, b) - 10.0 * h, max(a, b) + 10.0 * h
    # Python float products overflow to inf, where ** raises OverflowError
    if not np.isfinite((hi - lo) * (hi - lo)):
        raise ValidationError(f"the quadrature interval [{lo}, {hi}] is too long to square")
    grid = np.linspace(lo, hi, 20001)
    # a quotient that overflows to inf has an exp that rounds to 0 anyway
    with np.errstate(over="ignore"):
        values = np.exp(-((grid - a) ** 2) / (2.0 * h * h)) * np.exp(
            -((grid - b) ** 2) / (2.0 * h * h)
        )
    numeric = float(np.sum(np.diff(grid) * (values[1:] + values[:-1]) / 2.0))
    closed = float(np.sqrt(np.pi) * h * np.exp(-((a - b) ** 2) / (4.0 * h * h)))
    return numeric, closed
