"""Symmetric-matrix checks and eigensolves.

check_symmetric validates the user-supplied matrices that psd_split and
the bounds decompose (gram's K and disc_similarity's S are exact mirrors by
construction and go unchecked); fortran_symmetric hands a symmetric matrix
to BLAS, which reads one triangle of it; the embedding's c smallest
eigenpairs come from overwriting_smallest (a dense subset solve, up to
_DENSE_LIMIT) or lanczos_smallest (an unrestarted block Lanczos iteration
above it); psd_split is the signed split of an indefinite similarity.
Callers that need eigenvalues only use np.linalg.eigvalsh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dsbevx

from .errors import NumericError, ValidationError

# Eigenvalues within this relative band of zero count as nonnegative.
_ZERO_EIG_REL = 1e-10
# Dense embedding solves up to this size; above it a Lanczos solve is tried
# first.  The largest n at which the dense solve beat Lanczos on noisy moons
# (noise 0.15, bandwidth 0.1), the slowest spectrum measured; see ROADMAP.
_DENSE_LIMIT = 400
# Cap on the steps of one block Lanczos solve; the embeddings measured took
# at most 100.
_LANCZOS_MAX_STEPS = 500
# Seed of the fixed start vectors after the first of a Lanczos block.
_LANCZOS_START_SEED = 0
_EPS = float(np.finfo(np.float64).eps)
# Asymmetry tolerated by check_symmetric, relative to max(1, max|a_ij|).
_SYMMETRY_TOL = 1e-10
# Edge of the square tiles the exact symmetry test compares.
_SYMMETRY_TILE = 256


def _symmetric_extremes(a: np.ndarray) -> tuple[float, float] | None:
    """(min, max) of a if a equals a.T exactly, else None, in one tiled pass.

    Each upper tile is compared with its mirrored tile and only then gives
    its min and max: a NaN anywhere breaks the equality (NaN != NaN), and an
    infinity below the diagonal has its mirror above it.  Tiles of
    _SYMMETRY_TILE rows stay in cache, where reading a.T whole would stride
    across memory.
    """
    n = a.shape[0]
    lows, highs = [], []
    for i in range(0, n, _SYMMETRY_TILE):
        for j in range(i, n, _SYMMETRY_TILE):
            upper = a[i : i + _SYMMETRY_TILE, j : j + _SYMMETRY_TILE]
            if not np.array_equal(upper, a[j : j + _SYMMETRY_TILE, i : i + _SYMMETRY_TILE].T):
                return None
            lows.append(upper.min())
            highs.append(upper.max())
    return float(min(lows, default=0.0)), float(max(highs, default=0.0))


def check_symmetric(a: np.ndarray) -> np.ndarray:
    """Validate a finite square matrix symmetric to _SYMMETRY_TOL * max(1, max|a_ij|).

    Exactly symmetric input (what gram and disc_similarity produce) is
    accepted after one tiled pass that also finds its extremes; only
    otherwise are a's min and max read whole and the tolerance scan over
    a - a^T run.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    extremes = _symmetric_extremes(a)
    # min/max propagate NaN and expose +-inf without an n x n temporary; the
    # explicit test matters because max(1.0, nan) is 1.0 and nan > x is False
    lo, hi = extremes if extremes is not None else (float(a.min()), float(a.max()))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValidationError("matrix contains non-finite entries")
    if extremes is not None:
        return a
    scale = max(1.0, -lo, hi)
    if float(np.max(np.abs(a - a.T))) > _SYMMETRY_TOL * scale:
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


def _eigh(a: np.ndarray, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of an already validated matrix; failure is a NumericError.

    All of them by np.linalg.eigh, or with count the count smallest alone
    by LAPACK's subset solver, which uses a as its workspace.
    """
    try:
        if count is None:
            return np.linalg.eigh(a)
        return scipy.linalg.eigh(
            a, subset_by_index=[0, count - 1], driver="evr", check_finite=False,
            overwrite_a=True,
        )
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def lanczos_applies(n: int, c: int) -> bool:
    """Whether the c smallest eigenpairs of an n x n normalized Laplacian are
    computed by Lanczos iteration (see lanczos_smallest) rather than densely."""
    return n > _DENSE_LIMIT and c < n // 4


def _top_eigenpairs(band: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count largest eigenpairs, ascending, of the symmetric banded
    matrix whose lower band band[d, j] = T[j + d, j] holds, by LAPACK's
    sbevx, which computes only these pairs."""
    m = band.shape[1]
    theta, s, _, _, info = dsbevx(
        band[: min(band.shape[0], m)], 0.0, 0.0, m - count + 1, m, range=2, lower=1, overwrite_ab=0
    )
    if info != 0:
        raise NumericError(f"banded eigensolve failed (info={info})")
    return theta[:count], s


def _doubled(a: np.ndarray, used: int) -> np.ndarray:
    """a with twice its rows, the first used of them copied."""
    out = np.empty((2 * a.shape[0],) + a.shape[1:])
    out[:used] = a[:used]
    return out


def _block_lanczos(apply, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The b largest eigenpairs, ascending, of a symmetric operator by block
    Lanczos iteration (Golub & Underwood 1977) from the b rows of start.

    apply maps a (b, n) block of rows x to the rows of A x.  Each new vector
    loses its components on the last two blocks (the three-term recurrence)
    and then, once more, on the whole basis, which is kept, one row per
    vector, in an array that grows as the steps are taken.  The
    coefficients fill the banded projection T = Q^T A Q; its top b
    eigenpairs (theta, s) give the Ritz pairs, and the coefficients of the
    next block times the last block of s bound their residuals.  The
    iteration stops once each bound is at most eps |theta|, ARPACK's own test
    at tol = 0.  A new vector that the second pass shrinks below 0.717 of its
    length lies numerically in the basis (ARPACK's test again).  That
    breakdown raises NumericError at once, bounds met or not: an invariant
    subspace makes its own Ritz pairs exact, but need not hold the largest
    ones.  So does a solve that runs _LANCZOS_MAX_STEPS steps.
    """
    b, n = start.shape
    basis = np.empty((2 * b, n))
    basis[:b] = np.linalg.qr(start.T)[0].T
    band = np.empty((2 * b, b + 1))  # band[j, d] = T[j + d, j]
    for step in range(1, _LANCZOS_MAX_STEPS + 1):
        top = step * b  # basis vectors so far
        block = apply(basis[top - b : top])
        if basis.shape[0] < top + b:
            basis, band = _doubled(basis, top), _doubled(band, top)
        # r[l, i], l <= i: the coefficient of new vector l in A q_(top-b+i)
        r = np.zeros((b, b))
        for i, z in enumerate(block):
            j, rows = top - b + i, top + i
            near = basis[max(0, top - 2 * b) : rows]
            h = near @ z
            z -= h @ near
            first = math.sqrt(z @ z)
            q = basis[:rows]
            h2 = q @ z
            z -= h2 @ q
            norm = math.sqrt(z @ z)
            band[j, :b] = h[j - rows :] + h2[j:]
            band[j, b] = r[i, i] = norm
            r[:i, i] = band[j, b - i : b]
            if norm <= 0.717 * first:
                raise NumericError(f"Lanczos iteration broke down after {rows} vectors")
            np.multiply(z, 1.0 / norm, out=basis[rows])
        theta, s = _top_eigenpairs(band[:top].T, b)
        # Ritz pair k's residual is Q_next r s[top - b:, k]
        bounds = np.sqrt(np.square(r @ s[top - b :]).sum(axis=0))
        if (bounds <= _EPS * np.abs(theta)).all():
            return theta, basis[:top].T @ s
    raise NumericError(f"Lanczos iteration did not converge in {_LANCZOS_MAX_STEPS} steps")


def fortran_symmetric(m: np.ndarray) -> np.ndarray:
    """The Fortran-ordered form of an exactly symmetric m, which f2py hands
    to BLAS without copying it on every call: m.T for C-ordered m (equal to
    m), m itself for F-ordered m, and a strided view copied once."""
    return m.T if m.flags.c_contiguous else np.asfortranarray(m)


def lanczos_smallest(m: np.ndarray, c: int, degree: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The c smallest eigenpairs, ascending, of the normalized Laplacian
    N = I - W m W, W = diag(w) = D^{-1/2}, by Lanczos iteration; N is never formed.

    m >= 0 must be exactly symmetric and degree, its row sums D, be
    positive, so N's spectrum lies in [0, 2].  A block Lanczos iteration
    (_block_lanczos) runs on 2I - N, x -> x + w * (m (w * x)), and takes its
    largest eigenvalues theta, returning 2 - theta.  The shift matters
    because the iteration stops when a Ritz residual falls below a tolerance
    relative to the Ritz value itself: the bottom of a Laplacian spectrum
    sits at zero, where that test is hardest to meet, while the shifted
    values sit near 2.  Each product is one BLAS symv call that reads only
    the upper triangle of fortran_symmetric(m); C- and F-ordered m give the
    same bytes.

    The unit vector D^{1/2} 1 / ||D^{1/2} 1|| spans N's eigenvalue-0
    eigenspace.  It is deflated from the operator (x -> ... - 2 u u^T x),
    and the iteration computes only the other c - 1 pairs (none when
    c = 1), to which (0, u) is added.  Its block has c - 1 vectors, so it
    finds a repeated eigenvalue's whole eigenspace: the constant vector
    1 / sqrt(n) and c - 2 normal vectors from a fixed seed.  The start is
    fixed, so repeated calls are bit-identical.  A solve that breaks down or
    does not converge raises NumericError.
    """
    sqrt_degree = np.sqrt(degree)
    u = sqrt_degree / np.linalg.norm(sqrt_degree)
    theta, v = np.zeros(1), u[:, None]
    if c > 1:
        n = m.shape[0]
        w = 1.0 / sqrt_degree
        f = fortran_symmetric(m)

        def apply(rows):
            out = np.array([dsymv(1.0, f, w * x) for x in rows])
            out *= w
            out += rows
            out -= np.outer(2.0 * (rows @ u), u)
            return out

        start = np.vstack([
            np.full((1, n), 1.0 / np.sqrt(n)),
            np.random.default_rng(_LANCZOS_START_SEED).standard_normal((c - 2, n)),
        ])
        rest_theta, rest_v = _block_lanczos(apply, start)
        theta, v = np.concatenate([theta, 2.0 - rest_theta]), np.hstack([v, rest_v])
    order = np.argsort(theta, kind="stable")
    return theta[order], _fix_signs(v[:, order])


def overwriting_smallest(a: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The c algebraically smallest eigenpairs, ascending, of a C-ordered,
    exactly symmetric a, which the solve uses as its workspace.

    LAPACK's subset solver (syevr, relatively robust representations)
    computes only these c pairs, not the other n - c.  a.T is a's
    Fortran-ordered form, so LAPACK needs no copy of it.
    """
    w, v = _eigh(a.T, c)
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
