import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdsk.similarity
from cdsk.data_io import SampleMatrix
from cdsk.driver import assemble_alpha_qp
from cdsk.embedding import _dense_laplacian, solve_embedding
from cdsk.errors import ConfigError, DegenerateDataError, ValidationError
from cdsk.kernel import _ROW_BLOCK, GramMatrix, KernelSpec, eval_kernel, gram
from cdsk.similarity import check_simplex, class_scores, disc_similarity
from cdsk.spectral import psd_split


def _gram_from_points(points, bandwidth=1.0):
    return gram(SampleMatrix(np.asarray(points, dtype=np.float64)), KernelSpec(bandwidth))


def _random_alpha(rng, n):
    a = rng.uniform(0.1, 1.0, size=n)
    return a / a.sum()


def test_check_simplex_accepts_and_rejects():
    out = check_simplex([0.25, 0.75])
    assert out.dtype == np.float64
    with pytest.raises(ValidationError):
        check_simplex([0.5, 0.6])
    with pytest.raises(ValidationError):
        check_simplex([-0.1, 1.1])
    with pytest.raises(ValidationError):
        check_simplex([0.5, 0.5], n=3)
    with pytest.raises(ValidationError):
        check_simplex([np.nan, 1.0])


def test_check_simplex_returns_a_copy():
    alpha = np.array([0.25, 0.75])
    out = check_simplex(alpha)
    out[0] = 0.5
    assert alpha[0] == 0.25


def test_disc_similarity_hand_pair():
    k = GramMatrix(values=np.array([[1.0, 0.5], [0.5, 1.0]]), bandwidth=1.0)
    s = disc_similarity(k, [0.5, 0.5], 2.0)
    # 2(a_i + a_j - lam a_i a_j) k_ij with all a = 1/2, lam = 2
    assert abs(s[0, 1] - 0.5) < 1e-12
    assert abs(s[0, 0] - 1.0) < 1e-12
    # the degrees the embedding reads are the row sums
    assert np.allclose(s.sum(axis=1), [1.5, 1.5], atol=1e-12)


def test_disc_similarity_uniform_alpha_scales_kernel():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(7, 2))
    k = _gram_from_points(pts)
    n, lam = 7, 0.7
    s = disc_similarity(k, np.full(n, 1.0 / n), lam)
    expected = (4.0 / n - 2.0 * lam / n**2) * k.values
    assert np.allclose(s, expected, atol=1e-12)


def test_disc_similarity_elementwise_oracle():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(6, 3))
    k = _gram_from_points(pts)
    alpha = _random_alpha(rng, 6)
    lam = 1.0
    s = disc_similarity(k, alpha, lam)
    for i in range(6):
        for j in range(6):
            want = 2.0 * (alpha[i] + alpha[j] - lam * alpha[i] * alpha[j]) * k.values[i, j]
            assert abs(s[i, j] - want) < 1e-12
            assert s[i, j] >= 0.0


def test_disc_similarity_lambda_domain():
    k = GramMatrix(values=np.eye(2) * 0.5 + 0.5, bandwidth=1.0)
    for lam in (2.5, -0.1, np.inf):
        with pytest.raises(ConfigError):
            disc_similarity(k, [0.5, 0.5], lam)


def dense_n(s):
    """N = I - D^{-1/2} S D^{-1/2}, D = diag(S 1), from its dense formula."""
    inv_sqrt = 1.0 / np.sqrt(s.sum(axis=1))
    return np.eye(s.shape[0]) - (inv_sqrt[:, None] * s) * inv_sqrt[None, :]


def test_disc_similarity_normalized_laplacian():
    # the embedding's dense solve builds N from the graph's S and degrees
    rng = np.random.default_rng(2)
    k = _gram_from_points(rng.normal(size=(5, 2)))
    s = disc_similarity(k, _random_alpha(rng, 5), 0.3)
    assert np.allclose(_dense_laplacian(s, s.sum(axis=1)), dense_n(s), atol=1e-10)


def _reference_graph(k, alpha, lam):
    """The dense formulas disc_similarity and the embedding's N builder
    must reproduce bit for bit."""
    pair_sum = alpha[:, None] + alpha[None, :]
    pair_prod = np.outer(alpha, alpha)
    s = 2.0 * (pair_sum - lam * pair_prod) * k
    degree = s.sum(axis=1)
    laplacian = np.diag(degree) - s
    inv_sqrt = 1.0 / np.sqrt(degree)
    normalized = laplacian * np.outer(inv_sqrt, inv_sqrt)
    normalized = 0.5 * (normalized + normalized.T)
    return s, degree, normalized


def _reference_chain(k, alpha, lam):
    """The full-matrix in-place chain the row-block build replaced."""
    s = np.add.outer(alpha, alpha)
    buf = np.outer(alpha, alpha)
    buf *= lam
    s -= buf
    s *= 2.0
    s *= k
    degree = s.sum(axis=1)
    normalized = np.subtract(0.0, s, out=buf)
    np.fill_diagonal(normalized, degree - np.diagonal(s))
    normalized *= np.outer(1.0 / np.sqrt(degree), 1.0 / np.sqrt(degree))
    return s, degree, normalized


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.7, 2.0])
def test_disc_similarity_bit_identical_to_dense_formulas(lam, monkeypatch):
    # narrow bandwidth: far pairs underflow to exact zeros in K, and a few
    # zero weights give exactly-zero similarity entries (sign of zero matters
    # for bit identity)
    rng = np.random.default_rng(7)
    n = 300
    k = _gram_from_points(rng.uniform(size=(n, 2)), bandwidth=0.03)
    assert np.any(k.values == 0.0)
    alpha = rng.dirichlet(np.ones(n))
    alpha[rng.choice(n, size=20, replace=False)] = 0.0
    alpha /= alpha.sum()
    built = disc_similarity(k, alpha, lam)
    assert np.any(built == 0.0)
    normalized_built = _dense_laplacian(built, built.sum(axis=1))
    for s, _, normalized in (
        _reference_graph(k.values, alpha, lam),
        _reference_chain(k.values, alpha, lam),
    ):
        assert built.tobytes() == s.tobytes()
        assert normalized_built.tobytes() == normalized.tobytes()
    assert np.array_equal(normalized_built, normalized_built.T)
    # S, and with it the degrees, does not depend on the rows per block
    for rows in (1, 7, _ROW_BLOCK // 2, n):
        monkeypatch.setattr(cdsk.similarity, "_ROW_BLOCK", rows)
        assert disc_similarity(k, alpha, lam).tobytes() == built.tobytes(), rows


def test_disc_similarity_zero_degree_row_raises():
    # third point is infinitely far at this bandwidth and carries no weight,
    # so its row degree underflows to zero, and the embedding rejects S
    pts = np.array([[0.0], [0.5], [200.0]])
    k = _gram_from_points(pts, bandwidth=1.0)
    s = disc_similarity(k, [0.5, 0.5, 0.0], 1.0)
    assert s.sum(axis=1)[2] == 0.0
    with pytest.raises(DegenerateDataError):
        solve_embedding(s, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 8), st.floats(0.0, 2.0))
def test_disc_similarity_nonnegative(seed, n, lam):
    rng = np.random.default_rng(seed)
    k = _gram_from_points(rng.normal(size=(n, 2)))
    a = rng.uniform(0.0, 1.0, size=n)
    a = a / a.sum() if a.sum() > 0 else np.full(n, 1.0 / n)
    assert disc_similarity(k, a, lam).min() >= -1e-12


def test_general_disc_similarity_psd_reduces():
    # the discriminative similarity of an indefinite base similarity, in its
    # dense form 2 (a_i + a_j) s_ij - 2 lam a_i a_j (s_plus_ij + s_minus_ij),
    # is disc_similarity's for a PSD kernel, whose split has s_minus = 0
    rng = np.random.default_rng(3)
    k = _gram_from_points(rng.normal(size=(5, 2)))
    alpha = _random_alpha(rng, 5)
    split = psd_split(k.values)
    lam = 0.8
    out = 2.0 * (alpha[:, None] + alpha[None, :]) * k.values - 2.0 * lam * np.outer(
        alpha, alpha
    ) * (split.s_plus + split.s_minus)
    assert np.allclose(out, disc_similarity(k, alpha, lam), atol=1e-10)


def laplacian_trace(y, s):
    """tr(Y^T L Y) from the dense Laplacian L = D - S, D = diag(S 1)."""
    return float(np.sum(y * ((np.diag(s.sum(axis=1)) - s) @ y)))


def joint_objective(y, s, k, alpha, lam):
    """tr(Y^T L Y) - alpha^T K 1 + lam alpha^T K alpha from the dense Laplacian."""
    return laplacian_trace(y, s) + alpha_terms(k, alpha, lam)


def alpha_terms(k, alpha, lam):
    return -float(alpha @ k.values.sum(axis=1)) + lam * float(alpha @ k.values @ alpha)


def _weight_qp(y, k, lam):
    return assemble_alpha_qp(y, k, lam, k.values.sum(axis=1))


def qp_objective(qp, alpha):
    """alpha^T A alpha + b^T alpha for the weight step's qp = (A, b)."""
    return float(alpha @ qp[0] @ alpha + qp[1] @ alpha)


def test_laplacian_quadratic_matches_pair_sum():
    # the weight step's q less its alpha-only terms is tr(Y^T L Y)
    rng = np.random.default_rng(5)
    k = _gram_from_points(rng.normal(size=(6, 2)))
    alpha = _random_alpha(rng, 6)
    s = disc_similarity(k, alpha, 0.5)
    y = rng.normal(size=(6, 2))
    got = qp_objective(_weight_qp(y, k, 0.5), alpha) - alpha_terms(k, alpha, 0.5)
    want = 0.0
    for i in range(6):
        for j in range(6):
            want += 0.5 * s[i, j] * np.sum((y[i] - y[j]) ** 2)
    assert abs(got - want) < 1e-8 * max(1.0, abs(want))


@pytest.mark.parametrize("lam", [0.1, 2.0])
def test_laplacian_quadratic_matches_dense_forms(lam):
    # q less its alpha-only terms against the dense Laplacian tr(Y^T L Y)
    # and the pair form 1/2 sum_ij s_ij ||y_i - y_j||^2
    rng = np.random.default_rng(9)
    n = 300
    k = _gram_from_points(rng.uniform(size=(n, 2)), bandwidth=0.2)
    alpha = rng.dirichlet(np.ones(n))
    s = disc_similarity(k, alpha, lam)
    for y in (solve_embedding(s, 3), rng.normal(size=(n, 3))):
        got = qp_objective(_weight_qp(y, k, lam), alpha) - alpha_terms(k, alpha, lam)
        direct = laplacian_trace(y, s)
        sq = np.sum(y * y, axis=1)
        pair_form = 0.5 * float(np.sum(s * (sq[:, None] + sq[None, :] - 2.0 * (y @ y.T))))
        for want in (direct, pair_form):
            assert abs(got - want) <= 1e-10 * abs(want)


def test_laplacian_quadratic_constant_rows_zero():
    rng = np.random.default_rng(6)
    k = _gram_from_points(rng.normal(size=(5, 2)))
    alpha = _random_alpha(rng, 5)
    y = np.tile([2.0, -1.0], (5, 1))
    got = qp_objective(_weight_qp(y, k, 0.5), alpha) - alpha_terms(k, alpha, 0.5)
    assert abs(got) < 1e-10


def test_alpha_objective_terms_closed_form():
    # Y = 0 leaves only the alpha-only terms of q
    rng = np.random.default_rng(7)
    k = _gram_from_points(rng.normal(size=(5, 2)))
    alpha = _random_alpha(rng, 5)
    lam = 0.9
    want = -float(alpha @ k.values @ np.ones(5)) + lam * float(alpha @ k.values @ alpha)
    assert abs(qp_objective(_weight_qp(np.zeros((5, 2)), k, lam), alpha) - want) < 1e-12


def test_cdsk_objective_zero_embedding():
    # with Y = 0 the QP is q = lam alpha^T K alpha - alpha^T K 1, term for term
    rng = np.random.default_rng(8)
    k = _gram_from_points(rng.normal(size=(5, 2)))
    a, b = _weight_qp(np.zeros((5, 2)), k, 1.0)
    assert np.array_equal(a, k.values)
    assert np.array_equal(b, -k.values.sum(axis=1))


def test_cdsk_objective_hand_pair():
    pts = np.array([[0.0], [1.0]])
    k = _gram_from_points(pts, bandwidth=1.0)
    kv = np.exp(-0.5)
    assert abs(k.values[0, 1] - kv) < 1e-15
    alpha = np.array([0.5, 0.5])
    y = np.tile([0.3, -0.2], (2, 1))  # equal rows kill the Laplacian term
    got = qp_objective(_weight_qp(y, k, 1.0), alpha)
    want = -(1.0 + kv) + (1.0 + kv) / 2.0
    assert abs(got - want) < 1e-12


def test_cdsk_objective_equals_weight_qp_and_recorded_objective():
    # the alternation records the weight step's q; a random, non-constant
    # embedding, so the Laplacian term counts in full
    rng = np.random.default_rng(10)
    k = _gram_from_points(rng.normal(size=(9, 2)))
    y = rng.normal(size=(9, 3))
    lam = 0.7
    qp = _weight_qp(y, k, lam)
    for _ in range(5):
        alpha = _random_alpha(rng, 9)
        want = joint_objective(y, disc_similarity(k, alpha, lam), k, alpha, lam)
        assert abs(qp_objective(qp, alpha) - want) <= 1e-8 * abs(want)


def test_cdsk_objective_middle_term_identity():
    rng = np.random.default_rng(9)
    k = _gram_from_points(rng.normal(size=(7, 3)))
    alpha = _random_alpha(rng, 7)
    pair_sum = 0.0
    for i in range(7):
        for j in range(7):
            pair_sum += 0.5 * (alpha[i] + alpha[j]) * k.values[i, j]
    assert abs(pair_sum - float(alpha @ k.values @ np.ones(7))) < 1e-10


def _two_point_train(k1, k2, bandwidth=1.0):
    # place 1-D training points so the query at the origin sees the
    # requested kernel values
    t1 = np.sqrt(-2.0 * bandwidth**2 * np.log(k1))
    t2 = np.sqrt(-2.0 * bandwidth**2 * np.log(k2))
    return SampleMatrix(np.array([[t1], [t2]]), labels=np.array([1, 2]))


def hypothesis_score(x, y, train, alpha, spec):
    """Reference: the classifier's vote sum_{i: y_i = y} alpha_i k(x, x_i) at one point."""
    return float(class_scores(x, train, alpha, spec)[0, y - 1])


def classify(queries, train, alpha, spec):
    """Reference: the classifier's decisions, argmax of each row, ties to the smaller id."""
    return np.argmax(class_scores(queries, train, alpha, spec), axis=1) + 1


def test_hypothesis_score_hand_values():
    train = _two_point_train(0.8, 0.2)
    spec = KernelSpec(1.0)
    assert abs(hypothesis_score([0.0], 1, train, [0.5, 0.5], spec) - 0.4) < 1e-12
    assert abs(hypothesis_score([0.0], 2, train, [0.5, 0.5], spec) - 0.1) < 1e-12


def test_hypothesis_score_concentrated_alpha():
    train = _two_point_train(0.8, 0.2)
    spec = KernelSpec(1.0)
    assert abs(hypothesis_score([0.0], 1, train, [1.0, 0.0], spec) - 0.8) < 1e-12
    assert abs(hypothesis_score([0.0], 2, train, [1.0, 0.0], spec)) < 1e-15


def test_hypothesis_score_sum_identity():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(8, 2))
    labels = rng.integers(1, 4, size=8)
    labels[:3] = [1, 2, 3]
    train = SampleMatrix(pts, labels=labels)
    alpha = _random_alpha(rng, 8)
    spec = KernelSpec(1.3)
    x = rng.normal(size=2)
    total = sum(hypothesis_score(x, y, train, alpha, spec) for y in (1, 2, 3))
    direct = sum(
        alpha[i] * np.exp(-np.sum((x - pts[i]) ** 2) / (2 * 1.3**2)) for i in range(8)
    )
    assert abs(total - direct) < 1e-12


def test_classify_tie_prefers_smaller_id():
    train = SampleMatrix(np.array([[-1.0], [1.0]]), labels=np.array([2, 1]))
    # equidistant query: both classes score identically
    scores = class_scores([0.0], train, [0.5, 0.5], KernelSpec(1.0))
    assert scores[0, 0] == scores[0, 1]
    assert classify([0.0], train, [0.5, 0.5], KernelSpec(1.0)).tolist() == [1]


def test_classify_matches_argmax_of_scores():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(10, 2))
    labels = np.repeat([1, 2], 5)
    train = SampleMatrix(pts, labels=labels)
    alpha = _random_alpha(rng, 10)
    spec = KernelSpec(0.8)
    queries = rng.normal(size=(5, 2))
    decided = classify(queries, train, alpha, spec)
    for x, label in zip(queries, decided):
        votes = [hypothesis_score(x, y, train, alpha, spec) for y in (1, 2)]
        assert label == int(np.argmax(votes)) + 1


def test_class_scores_batched_rows_match_single_rows():
    # three row blocks, the last one partial; c is the largest label even
    # when a class has no training point, whose column is then zero
    rng = np.random.default_rng(12)
    labels = rng.integers(1, 4, size=40)
    labels[labels == 2] = 4
    train = SampleMatrix(rng.normal(size=(40, 3)), labels=labels)
    alpha = _random_alpha(rng, 40)
    spec = KernelSpec(0.9)
    queries = rng.normal(size=(2 * _ROW_BLOCK + 3, 3))
    table = class_scores(queries, train, alpha, spec)
    assert table.shape == (queries.shape[0], 4)
    assert np.all(table[:, 1] == 0.0)
    for r, x in enumerate(queries):
        assert class_scores(x[None, :], train, alpha, spec).tobytes() == table[r].tobytes()
    assert class_scores(queries[0], train, alpha, spec).shape == (1, 4)


def test_class_scores_match_kernel_double_loop():
    rng = np.random.default_rng(13)
    train = SampleMatrix(rng.normal(size=(12, 2)), labels=np.tile([1, 2, 3], 4))
    alpha = _random_alpha(rng, 12)
    spec = KernelSpec(1.1)
    queries = rng.normal(size=(7, 2))
    table = class_scores(queries, train, alpha, spec)
    for r in range(7):
        for y in (1, 2, 3):
            want = sum(
                alpha[i] * eval_kernel(queries[r], train.data[i], spec)
                for i in range(12)
                if train.labels[i] == y
            )
            assert abs(table[r, y - 1] - want) < 1e-12


def test_class_scores_validation():
    train = _two_point_train(0.8, 0.2)
    spec = KernelSpec(1.0)
    with pytest.raises(ValidationError):
        class_scores([[0.0, 1.0]], train, [0.5, 0.5], spec)
    with pytest.raises(ValidationError):
        class_scores([[0.0]], train, [0.6, 0.6], spec)
    with pytest.raises(ValidationError):
        class_scores([[0.0]], SampleMatrix(train.data), [0.5, 0.5], spec)
