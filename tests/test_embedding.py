import numpy as np
import pytest

import cdsk.driver
import cdsk.embedding
from cdsk.data_io import SampleMatrix, make_blobs, make_two_moons
from cdsk.driver import run_baseline_spectral
from cdsk.embedding import _dense_laplacian, solve_embedding
from cdsk.errors import DegenerateDataError, ValidationError
from cdsk.kernel import GramMatrix, KernelSpec, gram
from cdsk.kmeans_metrics import kmeans
from cdsk.similarity import disc_similarity
from cdsk.spectral import lanczos_applies, lanczos_smallest, overwriting_smallest
from test_similarity import dense_n, laplacian_trace


def _graph_from_points(points, lam=0.5, bandwidth=1.0, alpha=None):
    data = SampleMatrix(np.asarray(points, dtype=np.float64))
    k = gram(data, KernelSpec(bandwidth))
    if alpha is None:
        alpha = np.full(data.n, 1.0 / data.n)
    return disc_similarity(k, alpha, lam)


def _two_component_graph():
    # two well-separated groups: the similarity graph is numerically block
    # diagonal at this bandwidth
    rng = np.random.default_rng(0)
    a = rng.normal(scale=0.1, size=(6, 2))
    b = rng.normal(scale=0.1, size=(6, 2)) + [40.0, 0.0]
    return _graph_from_points(np.vstack([a, b]))


def test_embedding_feasibility():
    rng = np.random.default_rng(1)
    g = _graph_from_points(rng.normal(size=(10, 3)))
    y = solve_embedding(g, 3)
    feas = y.T @ (g.sum(axis=1)[:, None] * y)
    assert np.max(np.abs(feas - np.eye(3))) < 1e-8


def test_embedding_c_bounds():
    rng = np.random.default_rng(2)
    g = _graph_from_points(rng.normal(size=(5, 2)))
    with pytest.raises(ValidationError):
        solve_embedding(g, 0)
    with pytest.raises(ValidationError):
        solve_embedding(g, 6)


def test_embedding_rejects_a_non_square_or_non_finite_similarity():
    # the symmetry is not re-scanned, but the shape is checked, and a NaN or
    # inf in the triangle that symv reads reaches the degrees
    rng = np.random.default_rng(2)
    g = _graph_from_points(rng.normal(size=(5, 2)))
    for bad in (g[:4], g[0]):
        with pytest.raises(ValidationError, match="square"):
            solve_embedding(bad, 1)
    for value in (np.nan, np.inf):
        s = g.copy()
        s[1, 3] = s[3, 1] = value
        with pytest.raises(ValidationError, match="non-finite"):
            solve_embedding(s, 2)


def test_embedding_c1_pair():
    # for a symmetric pair the single bottom eigenvector is the degree-scaled
    # constant vector
    g = _graph_from_points([[0.0], [1.0]])
    y = solve_embedding(g, 1)
    assert y.shape == (2, 1)
    # constant embedding: both samples land at the same coordinate
    assert abs(y[0, 0] - y[1, 0]) < 1e-10
    assert y[0, 0] > 0


def test_embedding_separates_components():
    g = _two_component_graph()
    y = solve_embedding(g, 2)
    # rows are constant within each connected component
    for block in (slice(0, 6), slice(6, 12)):
        assert np.max(np.std(y[block], axis=0)) < 1e-6
    # and the two components land at distinct points
    assert np.linalg.norm(y[0] - y[6]) > 1e-3


def test_embedding_trace_optimality():
    rng = np.random.default_rng(3)
    g = _graph_from_points(rng.normal(size=(9, 2)))
    c = 3
    y = solve_embedding(g, c)
    best = laplacian_trace(y, g)
    d_inv_sqrt = 1.0 / np.sqrt(g.sum(axis=1))
    for _ in range(25):
        # random feasible competitor: orthonormal basis pushed through D^{-1/2}
        q, _ = np.linalg.qr(rng.normal(size=(9, c)))
        y_rand = d_inv_sqrt[:, None] * q
        assert best <= laplacian_trace(y_rand, g) + 1e-8


def test_embedding_eigenvalues_in_range():
    rng = np.random.default_rng(4)
    g = _graph_from_points(rng.normal(size=(12, 3)), lam=1.5)
    w, _ = np.linalg.eigh(dense_n(g))
    assert w.min() >= -1e-8
    assert w.max() <= 2.0 + 1e-8


def test_embedding_uniform_alpha_matches_plain_spectral():
    # with uniform weights the graph is a positive multiple of the kernel, so
    # the embedding subspace must match plain normalized spectral embedding
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(11, 2))
    data = SampleMatrix(pts)
    k = gram(data, KernelSpec(1.0))
    n, lam, c = 11, 0.8, 2
    g = disc_similarity(k, np.full(n, 1.0 / n), lam)
    y = solve_embedding(g, c)

    deg = k.values.sum(axis=1)
    inv = 1.0 / np.sqrt(deg)
    norm_lap = np.eye(n) - (inv[:, None] * k.values) * inv[None, :]
    _, u = np.linalg.eigh(norm_lap)
    y_plain = u[:, :c] * inv[:, None]

    q1 = np.linalg.qr(y)[0]
    q2 = np.linalg.qr(y_plain)[0]
    sv = np.linalg.svd(q1.T @ q2, compute_uv=False)
    # largest principal angle between the two column spaces
    assert np.min(sv) > 1.0 - 1e-8


@pytest.fixture(scope="module")
def moons_gram():
    return gram(make_two_moons(900, 0.05, seed=0), KernelSpec(0.1))


@pytest.fixture(scope="module")
def moons_graph(moons_gram):
    # n = 900 is above the dense eigensolver limit, so the embedding goes
    # through the deflated Lanczos path
    return disc_similarity(moons_gram, np.full(900, 1.0 / 900), 0.1)


def _no_dense_laplacian(*args):
    raise AssertionError("the Lanczos path built N")


def _no_eigensolve(*args):
    raise AssertionError("an eigensolve ran")


@pytest.mark.parametrize("n", [300, 900])
def test_embedding_zero_degree_row_raises_before_any_eigensolve(n, monkeypatch):
    # the embedding reads the degrees from S: an all-zero row is caught at
    # the floor, on the dense path (n = 300) and the Lanczos one (n = 900)
    kmat = gram(make_two_moons(n, 0.05, seed=0), KernelSpec(0.1))
    s = disc_similarity(kmat, np.full(n, 1.0 / n), 0.1)
    s[7, :] = 0.0
    s[:, 7] = 0.0
    for name in ("lanczos_smallest", "overwriting_smallest", "_dense_laplacian"):
        monkeypatch.setattr(cdsk.embedding, name, _no_eigensolve)
    with pytest.raises(DegenerateDataError):
        solve_embedding(s, 2)


@pytest.mark.parametrize("c", [1, 2, 3])
def test_embedding_lanczos_matches_dense(moons_graph, monkeypatch, c):
    g = moons_graph
    monkeypatch.setattr(cdsk.embedding, "_dense_laplacian", _no_dense_laplacian)
    y = solve_embedding(g, c)
    sqrt_degree = np.sqrt(g.sum(axis=1))
    # the deflated null vector D^{1/2} 1 comes back as the constant column
    assert np.allclose(y[:, 0], 1.0 / np.linalg.norm(sqrt_degree), rtol=1e-12, atol=0.0)
    feas = y.T @ (g.sum(axis=1)[:, None] * y)
    assert np.max(np.abs(feas - np.eye(c))) < 1e-8
    w, v = np.linalg.eigh(dense_n(g))
    q1 = np.linalg.qr(sqrt_degree[:, None] * y)[0]
    sv = np.linalg.svd(q1.T @ v[:, :c], compute_uv=False)
    assert np.min(sv) > 1.0 - 1e-8
    # trace of the embedding equals the sum of the c smallest eigenvalues
    assert abs(laplacian_trace(y, g) - np.sum(w[:c])) < 1e-10


@pytest.mark.parametrize("c", [2, 3])
def test_embedding_lanczos_general_alpha_matches_dense(
    weighted_moons, monkeypatch, lanczos_calls, c
):
    # weights far from uniform, some of them zero: the Lanczos product runs
    # on S itself, not on a multiple of K
    kmat, alpha = weighted_moons
    assert np.count_nonzero(alpha == 0.0) == 154
    g = disc_similarity(kmat, alpha, 0.1)
    monkeypatch.setattr(cdsk.embedding, "_dense_laplacian", _no_dense_laplacian)
    y = solve_embedding(g, c)
    assert lanczos_calls == [c - 1]
    sqrt_degree = np.sqrt(g.sum(axis=1))
    assert np.allclose(y[:, 0], 1.0 / np.linalg.norm(sqrt_degree), rtol=1e-12, atol=0.0)
    feas = y.T @ (g.sum(axis=1)[:, None] * y)
    assert np.max(np.abs(feas - np.eye(c))) < 1e-8
    w, v = np.linalg.eigh(dense_n(g))
    q = np.linalg.qr(sqrt_degree[:, None] * y)[0]
    assert np.min(np.linalg.svd(q.T @ v[:, :c], compute_uv=False)) > 1.0 - 1e-8
    assert abs(laplacian_trace(y, g) - np.sum(w[:c])) < 1e-10


# --- the baseline: solve_embedding on K itself, degrees K1 -----------------


def _s0(n, lam):
    """s_ij / k_ij of the uniform-weight graph disc_similarity(K, 1/n, lam)."""
    return 2.0 * (2.0 / n - lam / n**2)


def _no_graph(*args):
    raise AssertionError("the baseline built a similarity graph")


@pytest.fixture
def baseline_embeddings(monkeypatch):
    """The Y of every solve_embedding call run_baseline_spectral makes; the
    baseline may not call disc_similarity."""
    ys = []

    def recording(graph, c):
        ys.append(solve_embedding(graph, c))
        return ys[-1]

    monkeypatch.setattr(cdsk.driver, "solve_embedding", recording)
    monkeypatch.setattr(cdsk.driver, "disc_similarity", _no_graph)
    return ys


def _baseline_moons(c):
    # the data of moons_gram
    return run_baseline_spectral(make_two_moons(900, 0.05, seed=0), c, bandwidth=0.1)


@pytest.mark.parametrize("c", [2, 3])
def test_uniform_embedding_matches_dense_graph_solve(
    moons_gram, moons_graph, baseline_embeddings, lanczos_calls, c
):
    _baseline_moons(c)
    (y,) = baseline_embeddings
    # one Lanczos solve, for the c - 1 pairs beside the deflated null vector
    assert lanczos_calls == [c - 1]
    assert np.allclose(y[:, 0], y[0, 0], rtol=1e-12, atol=0.0)
    degree = moons_gram.values.sum(axis=1)
    feas = y.T @ (degree[:, None] * y)
    assert np.max(np.abs(feas - np.eye(c))) < 1e-8
    # the uniform graph's N is K's
    _, v = np.linalg.eigh(dense_n(moons_graph))
    q = np.linalg.qr(np.sqrt(degree)[:, None] * y)[0]
    assert np.min(np.linalg.svd(q.T @ v[:, :c], compute_uv=False)) > 1.0 - 1e-8


def test_uniform_embedding_c1_is_the_null_vector_without_arpack(
    moons_gram, baseline_embeddings, lanczos_calls
):
    _baseline_moons(1)
    (y,) = baseline_embeddings
    assert lanczos_calls == []
    assert y.shape == (900, 1)
    sqrt_degree = np.sqrt(moons_gram.values.sum(axis=1))
    assert np.allclose(y[:, 0], 1.0 / np.linalg.norm(sqrt_degree), rtol=1e-12, atol=0.0)


def test_uniform_embedding_arpack_failure_falls_back_to_dense(
    moons_gram, moons_graph, baseline_embeddings, failing_lanczos
):
    _baseline_moons(3)
    (y,) = baseline_embeddings
    assert len(failing_lanczos) == 1
    # the dense subset solve on K's N, scaled by (K1)^{-1/2}, K1 by the
    # embedding's one-triangle symv
    k = moons_gram.values
    degree = cdsk.embedding.dsymv(1.0, k.T, np.ones(k.shape[0]))
    _, u = overwriting_smallest(_dense_laplacian(k, degree), 3)
    assert y.tobytes() == (u / np.sqrt(degree)[:, None]).tobytes()
    # and the uniform graph's, whose N and D = s0 K1 differ from K's by rounding
    y_dense = solve_embedding(moons_graph, 3)
    assert len(failing_lanczos) == 2
    assert np.max(np.abs(y - np.sqrt(_s0(900, 0.1)) * y_dense)) <= 1e-10 * np.max(np.abs(y))


def test_embedding_lanczos_repeated_eigenvalue_matches_dense(lanczos_calls):
    # four far-apart blobs: N's eigenvalue 0 has (numerically) four vectors,
    # three beside the deflated one.  A single start vector finds only one
    # of them; the block of c - 1 = 3 vectors must find all three
    angles = 0.5 * np.pi * np.arange(4)
    centers = 10.0 * np.column_stack([np.cos(angles), np.sin(angles)])
    k = gram(make_blobs(250, centers, 1.0, seed=3), KernelSpec(1.0)).values
    degree = k.sum(axis=1)
    assert lanczos_applies(k.shape[0], 4)
    y = solve_embedding(k, 4)
    assert lanczos_calls == [3]
    _, u_dense = overwriting_smallest(_dense_laplacian(k, degree), 4)
    u = np.sqrt(degree)[:, None] * y
    # the sine of the largest angle between the two subspaces
    assert np.linalg.norm(u - u_dense @ (u_dense.T @ u), 2) <= 1e-12


def test_uniform_embedding_isolated_point_is_degenerate(moons_gram, monkeypatch):
    k = moons_gram.values.copy()
    k[7, :] = 0.0
    k[:, 7] = 0.0
    monkeypatch.setattr(cdsk.driver, "_gram", lambda data, bandwidth: GramMatrix(k, 0.1))
    with pytest.raises(DegenerateDataError):
        _baseline_moons(2)


def test_uniform_embedding_repeat_bit_identical(moons_graph, baseline_embeddings):
    labels1 = _baseline_moons(3).labels
    # an unrelated Lanczos solve in between, with a wider block
    lanczos_smallest(moons_graph, 5, moons_graph.sum(axis=1))
    labels2 = _baseline_moons(3).labels
    y1, y2 = baseline_embeddings
    assert y1.tobytes() == y2.tobytes()
    assert np.array_equal(labels1, labels2)


@pytest.mark.parametrize("n", [300, 900])
@pytest.mark.parametrize("lam", [0.1, 1.5])
def test_kernel_graph_embedding_is_the_uniform_graphs_scaled(n, lam):
    # at alpha = 1/n, S = s0 K and D = s0 K1: both graphs share N, and
    # Y = D^{-1/2} U scales by 1 / sqrt(s0); n = 300 solves densely, n = 900
    # by Lanczos
    kmat = gram(make_two_moons(n, 0.05, seed=0), KernelSpec(0.1))
    y_kernel = solve_embedding(kmat.values, 3)
    y_uniform = solve_embedding(disc_similarity(kmat, np.full(n, 1.0 / n), lam), 3)
    err = np.max(np.abs(y_kernel - np.sqrt(_s0(n, lam)) * y_uniform))
    assert err <= 1e-10 * np.max(np.abs(y_kernel)), err


def test_baseline_spectral_labels_match_the_graph_path():
    data = make_two_moons(900, 0.05, seed=0)
    got = run_baseline_spectral(data, 2, seed=3, bandwidth=0.1)
    kmat = gram(data, KernelSpec(0.1))
    y = solve_embedding(disc_similarity(kmat, np.full(data.n, 1.0 / data.n), 0.1), 2)
    assert np.array_equal(got.labels, kmeans(y, 2, seed=3).labels)
