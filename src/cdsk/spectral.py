"""Symmetric eigensolves and the signed split of an indefinite similarity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg.blas import dsymv

from .errors import NumericError, ValidationError

# Eigenvalues within this relative band of zero count as nonnegative.
_ZERO_EIG_REL = 1e-10
# Dense solves below this size; above it a truncated Lanczos solve is tried first.
_DENSE_LIMIT = 800
# Edge of the square tiles the exact symmetry test compares.
_SYMMETRY_TILE = 256


def _exactly_symmetric(a: np.ndarray) -> bool:
    """np.array_equal(a, a.T), compared tile against mirrored tile.

    Reading a.T whole strides across memory; tiles of _SYMMETRY_TILE rows
    stay in cache, which makes the scan about four times faster at n = 4000.
    """
    n = a.shape[0]
    for i in range(0, n, _SYMMETRY_TILE):
        for j in range(i, n, _SYMMETRY_TILE):
            upper = a[i : i + _SYMMETRY_TILE, j : j + _SYMMETRY_TILE]
            if not np.array_equal(upper, a[j : j + _SYMMETRY_TILE, i : i + _SYMMETRY_TILE].T):
                return False
    return True


def check_symmetric(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate a finite square matrix symmetric to tol * max(1, max|a_ij|).

    Exactly symmetric input (what gram and disc_similarity produce) is
    accepted after one elementwise comparison; only otherwise is the
    tolerance scan over a - a^T run.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    # min/max propagate NaN and expose +-inf without an n x n temporary; the
    # explicit test matters because max(1.0, nan) is 1.0 and nan > x is False
    lo, hi = (float(a.min()), float(a.max())) if a.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError("matrix contains non-finite entries")
    if _exactly_symmetric(a):
        return a
    scale = max(1.0, -lo, hi)
    if float(np.max(np.abs(a - a.T))) > tol * scale:
        raise ValidationError("matrix is not symmetric")
    return a


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Deterministic sign convention: first nonzero component of each column > 0."""
    if not vectors.size:
        return vectors.copy()
    nonzero = np.abs(vectors) > 1e-12
    first = nonzero.argmax(axis=0)  # 0 for a column with no nonzero entry
    lead = vectors[first, np.arange(vectors.shape[1])]
    return np.where(nonzero.any(axis=0) & (lead < 0), -vectors, vectors)


@dataclass(frozen=True)
class EigenSystem:
    """Full symmetric eigendecomposition, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _eigh(a: np.ndarray, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of an already validated matrix; failure is a NumericError.

    All of them by np.linalg.eigh, or with count the count smallest alone
    by LAPACK's subset solver.
    """
    try:
        if count is None:
            return np.linalg.eigh(a)
        return scipy.linalg.eigh(a, subset_by_index=[0, count - 1], driver="evr", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def eigh(a: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix with a fixed sign convention."""
    w, v = _eigh(check_symmetric(a))
    return EigenSystem(eigenvalues=w, eigenvectors=_fix_signs(v))


def lanczos_applies(n: int, c: int) -> bool:
    """Whether the c smallest eigenpairs of an n x n problem are computed by
    Lanczos iteration (see smallest_eigenpairs) rather than densely."""
    return n > _DENSE_LIMIT and c < n // 4


def _shifted_lanczos(
    product, n: int, sigma: float, k: int, u: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenpairs (theta, v) of x -> product(x) - sigma u u^T x,
    as (sigma - theta, v) in ARPACK's order; without u the last term is absent.

    product(x) is sigma x - a x for a symmetric n x n a with sigma I - a PSD,
    so these are the k smallest eigenpairs of a (with u deflated).  The start
    vector is fixed, so repeated calls are bit-identical.
    """

    def matvec(x):
        out = product(x)
        if u is not None:
            out -= (sigma * (u @ x)) * u
        return out

    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    v0 = np.full(n, 1.0 / np.sqrt(n))
    theta, v = scipy.sparse.linalg.eigsh(op, k=k, which="LA", v0=v0)
    return sigma - theta, v


def _shifted_product(a: np.ndarray, w: np.ndarray | None):
    """(product, sigma): x -> sigma x - m x as one BLAS symv call, for m = a,
    or with w for m = I - W a W, W = diag(w); see lanczos_smallest."""
    # f2py would copy a C-ordered array on every symv call
    f = a.T if a.flags.c_contiguous else np.asfortranarray(a)
    if w is None:
        # LAPACK's column-sum norm of f (a's row sums) reads f in place, with
        # no n x n |a| temporary, and in the same order for every layout of a
        sigma = float(scipy.linalg.norm(f, 1, check_finite=False))
        return (lambda x: dsymv(-1.0, f, x, beta=sigma, y=x)), sigma

    def product(x):
        out = dsymv(1.0, f, w * x)
        out *= w
        out += x
        return out

    return product, 2.0


def lanczos_smallest(
    a: np.ndarray, c: int, null_vector: np.ndarray | None, dense, w: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The c smallest eigenpairs, ascending, by Lanczos iteration of a, or
    with w of I - W a W, W = diag(w), a matrix that is never formed.

    a must have passed check_symmetric: each product is one BLAS symv call
    that reads only the upper triangle of a's Fortran-ordered form, which is
    a.T for C-ordered a and a itself for F-ordered a; a strided view is
    copied once, to Fortran order.  ARPACK runs on sigma I minus the matrix.
    Without w, sigma is the largest absolute row sum of a, so sigma I - a is
    PSD by Gershgorin.  With w = (a 1)^{-1/2} for a >= 0, I - W a W is a
    normalized Laplacian, whose spectrum lies in [0, 2], so sigma = 2 and no
    row-sum pass is needed.

    null_vector, if given, is a unit vector spanning an eigenvalue-0
    eigenspace of the matrix, where 0 is its smallest eigenvalue.  It is
    deflated from the operator, ARPACK computes only the other c - 1 pairs
    (none when c = 1) and (0, null_vector) is added to them.  If ARPACK
    fails, LAPACK's subset solver answers from the dense matrix dense()
    returns.
    """
    n = a.shape[0]
    if null_vector is None:
        u, theta, v = None, np.empty(0), np.empty((n, 0))
    else:
        u = np.asarray(null_vector, dtype=np.float64)
        theta, v = np.zeros(1), u[:, None]
    if c > theta.size:
        product, sigma = _shifted_product(a, w)
        try:
            rest_theta, rest_v = _shifted_lanczos(product, n, sigma, c - theta.size, u)
        except scipy.sparse.linalg.ArpackError:
            theta, v = _eigh(dense(), c)
            return theta, _fix_signs(v)
        theta, v = np.concatenate([theta, rest_theta]), np.hstack([v, rest_v])
    order = np.argsort(theta, kind="stable")
    return theta[order], _fix_signs(v[:, order])


def smallest_eigenpairs(
    a: np.ndarray, c: int, null_vector: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The c algebraically smallest eigenpairs of a symmetric matrix, ascending.

    Up to n = 800 (and whenever c >= n // 4) LAPACK's subset solver (syevr,
    relatively robust representations) computes only these c pairs from the
    dense matrix, not the other n - c.  Above that, ARPACK's Lanczos
    iteration (lanczos_smallest) runs on the shifted operator
    x -> sigma x - a x, with sigma the largest absolute row sum of a, and
    takes its largest eigenvalues theta, returning sigma - theta.  Each
    product is one BLAS symv call that reads one triangle of a;
    check_symmetric, run first, is what makes that valid (the graph's N
    passes its exact test).  C- and F-ordered a are read in place and give
    the same bytes; a strided view of a is copied once.  The shift matters
    because ARPACK stops when a Ritz residual falls below a tolerance
    relative to the Ritz value itself: the bottom of a Laplacian spectrum
    sits at zero, where that test is hardest to meet, while the shifted
    values sit near sigma.  The start vector is fixed, so repeated calls are
    bit-identical; if ARPACK fails the subset solver answers instead.

    null_vector, if given, is a unit vector spanning an eigenvalue-0
    eigenspace of a, where 0 is the smallest eigenvalue of a (for a
    normalized Laplacian, D^{1/2} 1 normalized).  The Lanczos path then
    deflates it from the operator (x -> ... - sigma u u^T x), asks ARPACK for
    only c - 1 pairs (none when c = 1) and adds (0, u) to them.
    The dense path ignores it.
    """
    a = check_symmetric(a)
    n = a.shape[0]
    if not 1 <= c <= n:
        raise ValidationError(f"need 1 <= c <= n, got c={c}, n={n}")
    if lanczos_applies(n, c):
        return lanczos_smallest(a, c, null_vector, lambda: a)
    w, v = _eigh(a, c)
    return w, _fix_signs(v)


@dataclass(frozen=True)
class PsdSplit:
    """Difference-of-PSD decomposition s = s_plus - s_minus."""

    s_plus: np.ndarray
    s_minus: np.ndarray


def psd_split(s: np.ndarray) -> PsdSplit:
    """Split a symmetric matrix into PSD parts by eigenvalue sign.

    Eigenvalues within 1e-10 of the spectral norm's scale are treated as
    nonnegative and kept on the plus side, so PSD inputs come back with an
    exactly zero minus part.
    """
    # each part is a sum of v_k w_k v_k^T, which no column sign changes
    w, v = _eigh(check_symmetric(s))
    cut = _ZERO_EIG_REL * max(float(np.max(np.abs(w))), 0.0)
    neg = w < -cut
    pos = ~neg
    s_plus = (v[:, pos] * w[pos]) @ v[:, pos].T
    s_minus = (v[:, neg] * (-w[neg])) @ v[:, neg].T
    s_plus = 0.5 * (s_plus + s_plus.T)
    s_minus = 0.5 * (s_minus + s_minus.T)
    return PsdSplit(s_plus=s_plus, s_minus=s_minus)
