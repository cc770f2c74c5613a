"""The weight step's quadratic program and its solution record.

At a fixed embedding Y the joint objective is a quadratic in the weights,
q(alpha) = alpha^T A alpha + b^T alpha with A = lam (K - M),
b = 2 M 1 - K 1 and M_ij = K_ij ||Y_i - Y_j||^2.  A is indefinite in
general.  driver.solve_alpha_coupled minimizes q over the simplex together
with the embedding's normalization constraints; this module assembles q,
evaluates it and holds the solver's result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .kernel import GramMatrix, pairwise_sq_dists
from .spectral import check_symmetric


@dataclass(frozen=True)
class SimplexQP:
    """q(alpha) = alpha^T a alpha + b^T alpha, alpha on the simplex."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = check_symmetric(self.a)
        b = np.asarray(self.b, dtype=np.float64)
        if b.shape != (a.shape[0],):
            raise ValidationError("linear term does not match the quadratic term")
        if not np.all(np.isfinite(b)):
            raise ValidationError("QP coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def qp_objective(qp: SimplexQP, alpha: np.ndarray) -> float:
    alpha = np.asarray(alpha, dtype=np.float64)
    return float(alpha @ qp.a @ alpha + qp.b @ alpha)


@dataclass
class QpSolution:
    alpha: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int
    converged: bool
    objective_trace: list[float] = field(default_factory=list)


def assemble_alpha_qp(y: np.ndarray, gram: GramMatrix, lam: float, row_sums: np.ndarray) -> SimplexQP:
    """q(alpha) = tr(Y^T L(alpha) Y) - alpha^T K 1 + lam alpha^T K alpha at a
    fixed Y, row_sums = K 1: the one definition of the joint objective, which
    the weight step minimizes and the alternation records."""
    k = gram.values
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != k.shape[0]:
        raise ValidationError(f"embedding shape {y.shape} does not match gram matrix")
    # m, then a, in one buffer; k and y's distances are exactly symmetric, so a is
    m = pairwise_sq_dists(y, y)
    m *= k
    b = 2.0 * m.sum(axis=1) - row_sums
    a = np.subtract(k, m, out=m)
    a *= lam
    return SimplexQP(a=a, b=b)
