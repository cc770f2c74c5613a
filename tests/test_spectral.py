import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdsk.embedding
import cdsk.spectral
from cdsk.data_io import make_two_moons
from cdsk.embedding import solve_embedding
from cdsk.errors import NumericError, ValidationError
from cdsk.kernel import KernelSpec, gram
from cdsk.similarity import disc_similarity
from cdsk.spectral import (
    _SYMMETRY_TOL,
    _block_lanczos,
    _fix_signs,
    check_symmetric,
    lanczos_smallest,
    overwriting_smallest,
    psd_split,
)
from test_similarity import dense_n


def _random_symmetric(seed, n):
    r = np.random.default_rng(seed)
    a = r.normal(size=(n, n))
    return 0.5 * (a + a.T)


def test_overwriting_smallest_hand_2x2():
    w, v = overwriting_smallest(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
    assert np.allclose(w, [-1.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    # sign convention: first nonzero component of each eigenvector positive
    assert np.allclose(np.abs(v), s)
    assert v[0, 0] > 0 and v[0, 1] > 0


def test_psd_split_rejects_asymmetric():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    for check in (psd_split, check_symmetric):
        with pytest.raises(ValidationError, match="not symmetric"):
            check(a)


def test_smallest_eigenpairs_diag():
    w, v = overwriting_smallest(np.diag([0.0, 1.0, 2.0]).copy(), 1)
    assert abs(w[0]) < 1e-12
    assert np.allclose(np.abs(v[:, 0]), [1.0, 0.0, 0.0])


def test_smallest_eigenpairs_matches_full():
    a = _random_symmetric(4, 20)
    w, v = overwriting_smallest(a.copy(), 4)
    w_ref, v_ref = np.linalg.eigh(a)
    assert np.allclose(w, w_ref[:4], atol=1e-8)
    # compare invariant subspaces through principal angles
    q1 = np.linalg.qr(v)[0]
    q2 = np.linalg.qr(v_ref[:, :4])[0]
    sv = np.linalg.svd(q1.T @ q2, compute_uv=False)
    assert np.min(sv) > 1.0 - 1e-8


def _fix_signs_loop(vectors):
    """The column-by-column sign convention _fix_signs computes at once."""
    fixed = vectors.copy()
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            fixed[:, k] = -col
    return fixed


@pytest.mark.parametrize("seed", range(6))
def test_fix_signs_matches_column_loop(seed):
    r = np.random.default_rng(seed)
    v = r.normal(size=(40, 9))
    v[:, 1] = 0.0
    v[:, 2] = r.uniform(-1e-12, 1e-12, size=40)  # every entry below the cut
    v[: r.integers(1, 40), 3] = 0.0  # leading zeros
    v[:5, 4] = r.uniform(-1e-12, 1e-12, size=5)  # leading tiny entries of either sign
    v[0, 5] = -0.0
    v[0, 6] = -1e-12  # exactly at the cut: not a nonzero
    got = _fix_signs(v)
    assert got.tobytes() == _fix_signs_loop(v).tobytes()
    assert not np.array_equal(got, v)  # some column was flipped
    assert _fix_signs(np.empty((0, 0))).shape == (0, 0)


def _subspace_cosines(v, ref):
    return np.linalg.svd(np.linalg.qr(v)[0].T @ np.linalg.qr(ref)[0], compute_uv=False)


def _check_against_numpy(a, w, v, c):
    w_ref, v_ref = np.linalg.eigh(a)
    assert w.shape == (c,) and v.shape == (a.shape[0], c)
    assert np.max(np.abs(w - w_ref[:c])) <= 1e-12 * max(1.0, np.abs(w_ref).max())
    assert np.min(_subspace_cosines(v, v_ref[:, :c])) > 1.0 - 1e-10
    # sign convention: the first entry above 1e-12 in magnitude is positive
    first = np.argmax(np.abs(v) > 1e-12, axis=0)
    assert np.all(v[first, np.arange(c)] > 0)


@pytest.mark.parametrize("n,c", [(300, 1), (300, 2), (300, 3), (800, 1), (800, 2), (800, 3), (900, 225)])
def test_smallest_eigenpairs_dense_matches_numpy(n, c, lanczos_calls):
    # the dense subset solve at every size, above the embedding's Lanczos limit too
    a = _random_symmetric(40 + n, n)
    w, v = overwriting_smallest(a.copy(), c)
    assert lanczos_calls == []
    _check_against_numpy(a, w, v, c)
    w2, v2 = overwriting_smallest(a.copy(), c)
    assert w.tobytes() == w2.tobytes() and v.tobytes() == v2.tobytes()


def test_psd_split_hand_2x2():
    split = psd_split(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(split.s_plus, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    assert np.allclose(split.s_minus, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_psd_split_psd_input_zero_minus():
    r = np.random.default_rng(5)
    b = r.normal(size=(6, 4))
    s = b @ b.T
    split = psd_split(s)
    assert np.linalg.norm(split.s_minus) < 1e-8
    assert np.linalg.norm(split.s_plus - s) < 1e-8


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_psd_split_reconstruction_and_psdness(seed, n):
    s = _random_symmetric(seed, n)
    split = psd_split(s)
    assert np.linalg.norm(s - (split.s_plus - split.s_minus)) < 1e-8
    scale = max(1.0, np.abs(s).max()) * n
    assert np.linalg.eigvalsh(split.s_plus).min() >= -1e-8 * scale
    assert np.linalg.eigvalsh(split.s_minus).min() >= -1e-8 * scale
    # trace splits consistently
    assert abs(np.trace(split.s_plus) - np.trace(split.s_minus) - np.trace(s)) < 1e-8 * scale


# --- Lanczos path (n above the dense limit) --------------------------------


@pytest.fixture(scope="module")
def moons_graphs(weighted_moons):
    """Two-moons similarities S above the dense limit (n = 900), keyed by
    uniform: True for alpha = 1/n, False for weighted_moons' weights.  Each
    maps to (S, its degrees S 1, the null vector D^{1/2} 1 / ||D^{1/2} 1||
    and the dense reference spectrum of N)."""
    data = make_two_moons(900, 0.05, seed=0)
    graphs = {
        True: disc_similarity(gram(data, KernelSpec(0.1)), np.full(data.n, 1.0 / data.n), 0.1),
        False: disc_similarity(*weighted_moons, 0.1),
    }
    out = {}
    for uniform, s in graphs.items():
        degree = s.sum(axis=1)
        sqrt_degree = np.sqrt(degree)
        w, v = np.linalg.eigh(dense_n(s))
        out[uniform] = (s, degree, sqrt_degree / np.linalg.norm(sqrt_degree), w, v)
    return out


@pytest.mark.parametrize("uniform", [False, True])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_smallest_eigenpairs_lanczos_matches_dense(moons_graphs, lanczos_calls, c, uniform):
    s, degree, _, w_ref, v_ref = moons_graphs[uniform]
    w, v = lanczos_smallest(s, c, degree)
    # with the null vector deflated the iteration is asked for c - 1 pairs,
    # and for none at all when c = 1
    assert lanczos_calls == ([] if c == 1 else [c - 1])
    assert w.shape == (c,) and v.shape == (s.shape[0], c)
    assert np.max(np.abs(w - w_ref[:c])) < 1e-10
    assert np.all(np.diff(w) >= 0)
    q = np.linalg.qr(v)[0]
    sv = np.linalg.svd(q.T @ v_ref[:, :c], compute_uv=False)
    assert np.min(sv) > 1.0 - 1e-8


def test_smallest_eigenpairs_lanczos_c1_returns_null_vector(moons_graphs, lanczos_calls):
    s, degree, null_vector, _, _ = moons_graphs[True]
    w, v = lanczos_smallest(s, 1, degree)
    assert lanczos_calls == []
    assert np.array_equal(w, [0.0])
    assert np.array_equal(v[:, 0], null_vector)


@pytest.mark.parametrize("uniform", [False, True])
def test_smallest_eigenpairs_arpack_failure_falls_back(moons_graphs, failing_lanczos, uniform):
    # a Lanczos solve that fails (NumericError) leaves the answer to the dense solve
    s, degree, _, _, _ = moons_graphs[uniform]
    y = solve_embedding(s, 3)
    assert len(failing_lanczos) == 1
    # the subset solve's U = D^{1/2} Y, with its Rayleigh quotients as eigenvalues
    n_dense = dense_n(s)
    u = np.sqrt(degree)[:, None] * y
    _check_against_numpy(n_dense, np.sum(u * (n_dense @ u), axis=0), u, 3)


def _layout(a, layout):
    """a itself (C order), an F-ordered copy, or a strided view of a copy."""
    if layout == "C":
        return a
    if layout == "F":
        return np.asfortranarray(a)
    big = np.zeros((2 * a.shape[0], 2 * a.shape[1]))
    big[::2, ::2] = a
    return big[::2, ::2]


@pytest.mark.parametrize("uniform", [False, True])
def test_smallest_eigenpairs_lanczos_repeat_bit_identical(moons_graphs, uniform):
    # the start block is fixed: an unrelated solve in between, on the other
    # graph with a wider block, must not change the next answer
    s, degree, _, _, _ = moons_graphs[uniform]
    w1, v1 = lanczos_smallest(s, 3, degree)
    other, other_degree, _, _, _ = moons_graphs[not uniform]
    lanczos_smallest(other, 5, other_degree)
    w2, v2 = lanczos_smallest(s, 3, degree)
    assert w1.tobytes() == w2.tobytes()
    assert v1.tobytes() == v2.tobytes()


@pytest.mark.parametrize("layout", ["F", "strided"])
@pytest.mark.parametrize("uniform", [False, True])
def test_smallest_eigenpairs_lanczos_layout_bit_identical(moons_graphs, uniform, layout):
    # every layout reads the same triangle values in the same order, so it
    # must give the same bytes as the C-ordered input
    s, degree, _, _, _ = moons_graphs[uniform]
    w1, v1 = lanczos_smallest(s, 3, degree)
    w2, v2 = lanczos_smallest(_layout(s, layout), 3, degree)
    assert w1.tobytes() == w2.tobytes()
    assert v1.tobytes() == v2.tobytes()


@pytest.mark.parametrize("layout,bound", [("C", 0.15), ("F", 0.15), ("strided", 1.15)])
def test_smallest_eigenpairs_lanczos_copies_a_at_most_once(layout, bound, lanczos_calls):
    # a copy of S per Lanczos product would show as one more n x n array;
    # only the strided view is copied, once, before the first product.  The
    # Lanczos basis, 61 vectors here, reads 0.10 while it grows (0.103 measured)
    n = 1000
    data = make_two_moons(n, 0.05, seed=0)
    s = disc_similarity(gram(data, KernelSpec(0.1)), np.full(n, 1.0 / n), 0.1)
    degree = s.sum(axis=1)
    a = _layout(s, layout)
    tracemalloc.start()
    try:
        lanczos_smallest(a, 2, degree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lanczos_calls == [1]
    assert peak / (8.0 * n * n) <= bound, peak / (8.0 * n * n)


def test_smallest_eigenpairs_lanczos_product_count(monkeypatch):
    # the iteration keeps its whole basis: about 60 products on this graph,
    # where ARPACK's restarts took 91
    products = []
    real = cdsk.spectral.dsymv

    def counting(*args, **kwargs):
        products.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(cdsk.spectral, "dsymv", counting)
    k = gram(make_two_moons(900, 0.05, seed=0), KernelSpec(0.1)).values
    lanczos_smallest(k, 2, k.sum(axis=1))
    assert len(products) <= 65, len(products)


def test_smallest_eigenpairs_lanczos_step_cap_falls_back(moons_graphs, monkeypatch):
    # a solve still unconverged at the step cap raises NumericError, and the
    # embedding then takes the dense solve's answer
    s, degree, _, _, _ = moons_graphs[True]
    monkeypatch.setattr(cdsk.spectral, "_LANCZOS_MAX_STEPS", 5)
    with pytest.raises(NumericError, match="did not converge in 5 steps"):
        lanczos_smallest(s, 2, degree)
    y = solve_embedding(s, 2)
    monkeypatch.setattr(cdsk.embedding, "lanczos_applies", lambda n, c: False)
    assert y.tobytes() == solve_embedding(s, 2).tobytes()


def test_block_lanczos_breakdown_raises():
    # a new vector that the pass over the whole basis shrinks below 0.717 of
    # its length lies numerically in the basis: a breakdown.  A start in an
    # invariant subspace meets the bounds at once, with the wrong pairs
    diag = np.linspace(1.0, 2.0, 50)
    invariant = np.zeros((1, 50))
    invariant[0, :2] = 1.0
    with pytest.raises(NumericError, match="broke down after 2 vectors"):
        _block_lanczos(lambda rows: rows * diag, invariant)
    # and before the bounds are met: the third product adds the first vector
    seen = []

    def apply(rows):
        seen.append(rows[0].copy())
        out = rows * diag
        if len(seen) == 3:
            out += 10.0 * seen[0]
        return out

    with pytest.raises(NumericError, match="broke down after 3 vectors"):
        _block_lanczos(apply, np.ones((1, 50)))


# --- check_symmetric --------------------------------------------------------


@pytest.mark.parametrize("n", [3, 801])
def test_check_symmetric_contract(n):
    a = 10.0 * _random_symmetric(20 + n, n)
    scale = np.max(np.abs(a))
    assert check_symmetric(a) is a
    for bad in (np.nan, np.inf, -np.inf):
        # placed symmetrically, so only the explicit finiteness test catches it
        b = a.copy()
        b[0, 1] = b[1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            check_symmetric(b)
    tol = _SYMMETRY_TOL
    above = a.copy()
    above[1, n - 1] += 2.0 * tol * scale
    with pytest.raises(ValidationError, match="not symmetric"):
        check_symmetric(above)
    below = a.copy()
    below[1, n - 1] += 0.5 * tol * scale
    assert not np.array_equal(below, below.T)
    assert check_symmetric(below) is below


@pytest.mark.parametrize("n", [300, 600])
def test_check_symmetric_rejects_one_sided_non_finite(n):
    # 300 rows span two 256-row tiles, 600 three: the entry sits in the first
    # tile, in a later diagonal tile and in an off-diagonal one
    a = _random_symmetric(n, n)
    assert check_symmetric(a) is a
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((n - 1, 0), (0, n - 1), (5, 2), (2, 5), (n - 1, n - 1), (0, 0), (n - 2, 270)):
            b = a.copy()
            b[i, j] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                check_symmetric(b)
