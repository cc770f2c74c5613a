import numpy as np
import pytest
from scipy.integrate import trapezoid

from cdsk.data_io import SampleMatrix
from cdsk.errors import ValidationError
from cdsk.kdc import KdeModel, empirical_ise_terms, gaussian_convolution_check, ise_residual_slack
from cdsk.kernel import KernelSpec, gram
from cdsk.similarity import class_scores, disc_similarity


def _model_1d(rng, n, h=0.7):
    pts = rng.normal(size=(n, 1))
    alpha = rng.uniform(0.1, 1.0, size=n)
    alpha /= alpha.sum()
    labels = rng.integers(1, 3, size=n)
    labels[0], labels[1] = 1, 2
    return KdeModel(points=pts, alpha=alpha, labels=labels, h=h)


def _kernel(points, h):
    """The unit-diagonal kernel matrix of the points at bandwidth h."""
    return gram(SampleMatrix(points), KernelSpec(h)).values


def class_kde(queries, model):
    """Reference: p_hat(x, y) = tau0 sum_{i: y_i = y} alpha_i K_h(x - x_i), one
    row per query and one column per class: tau0 times the classifier's scores."""
    train = SampleMatrix(model.points, labels=model.labels)
    return model.tau0 * class_scores(queries, train, model.alpha, KernelSpec(model.h))


def decide(queries, model):
    """Reference: class 1 iff p_hat(x, 1) - p_hat(x, 2) >= 0, per query row."""
    density = class_kde(queries, model)
    return np.where(density[:, 0] - density[:, 1] >= 0.0, 1, 2)


def decision_squared_integral(model):
    """Reference: the exact integral of (p_hat(x, 1) - p_hat(x, 2))^2 over R^d.

    Gaussian products integrate in closed form, giving tau1 s^T Kt s with s
    the weights signed by class and Kt the kernel at bandwidth sqrt(2) h.
    """
    kt = _kernel(model.points, np.sqrt(2.0) * model.h)
    signed = np.where(model.labels == 1, model.alpha, -model.alpha)
    return model.tau1 * float(signed @ (kt @ signed))


def test_kde_single_point_peak():
    # all mass on one point (a sample needs two; the other carries none)
    model = KdeModel(
        points=np.array([[0.0], [3.0]]), alpha=np.array([1.0, 0.0]), labels=np.array([1, 2]), h=1.0
    )
    assert abs(class_kde([0.0], model).sum() - 1.0 / np.sqrt(2.0 * np.pi)) < 1e-12


def test_kde_nonnegative_and_integrates_to_one():
    rng = np.random.default_rng(0)
    model = _model_1d(rng, 3, h=0.5)
    grid = np.linspace(model.points.min() - 8 * model.h, model.points.max() + 8 * model.h, 40001)
    vals = class_kde(grid[:, None], model).sum(axis=1)
    assert vals.min() >= 0.0
    assert abs(trapezoid(vals, grid) - 1.0) < 1e-6


def test_kde_model_validation():
    with pytest.raises(ValidationError):
        KdeModel(points=np.zeros((2, 1)), alpha=[0.5, 0.5], labels=[1, 3], h=1.0)
    with pytest.raises(ValidationError):
        KdeModel(points=np.zeros((2, 1)), alpha=[0.5, 0.5], labels=[1, 2], h=0.0)
    with pytest.raises(ValidationError):
        KdeModel(points=np.zeros((2, 1)), alpha=[0.6, 0.6], labels=[1, 2], h=1.0)
    # a usable kernel bandwidth whose normalizer h^(-d) overflows in d = 2
    with pytest.raises(ValidationError, match="bandwidth"):
        KdeModel(points=np.zeros((2, 2)), alpha=[0.5, 0.5], labels=[1, 2], h=1e-160)
    # 2 h^2 is finite, but the sqrt(2) h kernel's 4 h^2 overflows
    with pytest.raises(ValidationError, match="bandwidth"):
        KdeModel(points=np.zeros((2, 1)), alpha=[0.5, 0.5], labels=[1, 2], h=8e153)
    # the kernel is built on a sample, which needs two points
    with pytest.raises(ValidationError, match="2 samples"):
        KdeModel(points=np.zeros((1, 1)), alpha=[1.0], labels=[1], h=1.0)


def test_class_kde_additivity_and_single_class():
    rng = np.random.default_rng(1)
    model = _model_1d(rng, 6)
    x = [0.3]
    total = class_kde(x, model).sum()
    kvals = np.exp(-np.sum((model.points - x) ** 2, axis=1) / (2.0 * model.h**2))
    assert abs(total - model.tau0 * float(np.sum(model.alpha * kvals))) < 1e-12

    # a class with no points has density exactly zero
    pure = KdeModel(
        points=rng.normal(size=(4, 1)), alpha=np.full(4, 0.25), labels=np.full(4, 2), h=1.0
    )
    assert class_kde([0.0], pure)[0, 0] == 0.0


def test_class_kde_single_term():
    # one class-2 point carrying mass 0.3 evaluated at distance zero
    model = KdeModel(
        points=np.array([[0.0], [5.0]]),
        alpha=np.array([0.7, 0.3]),
        labels=np.array([1, 2]),
        h=1.0,
    )
    got = class_kde([5.0], model)[0, 1]
    assert abs(got - 0.3 * model.tau0) < 1e-10


def test_decide_boundary_goes_to_class_one():
    model = KdeModel(
        points=np.array([[-1.0], [1.0]]),
        alpha=np.array([0.5, 0.5]),
        labels=np.array([2, 1]),
        h=1.0,
    )
    # exact tie at the midpoint
    density = class_kde([0.0], model)
    assert density[0, 0] == density[0, 1]
    assert decide([0.0], model).tolist() == [1]


def test_decide_matches_density_difference():
    # the density rule is the kernel classifier's argmax: tau0 > 0 only scales
    rng = np.random.default_rng(2)
    model = _model_1d(rng, 20)
    train = SampleMatrix(model.points, labels=model.labels)
    queries = rng.normal(size=(20, 1))
    scores = class_scores(queries, train, model.alpha, KernelSpec(model.h))
    decided = decide(queries, model)
    for x, label, row in zip(queries, decided, scores):
        density = class_kde(x, model)[0]
        assert label == (1 if density[0] - density[1] >= 0 else 2)
        assert label == int(np.argmax(row)) + 1


def ise_terms_reference(model, lambda1, kh):
    """Reference: the ISE terms from n x n pair-sum, pair-product and
    label-mismatch arrays, with kh the kernel at bandwidth h."""
    a = model.alpha
    kt = _kernel(model.points, np.sqrt(2.0) * model.h)
    pair_sum = a[:, None] + a[None, :]
    pair_prod = np.outer(a, a)
    diff = model.labels[:, None] != model.labels[None, :]
    hat_ise = 2.0 * float(np.sum(pair_sum * kh * diff)) - float(np.sum(pair_sum * kh))
    k_alpha = float(a @ (kt @ a)) - 2.0 * float(np.sum(pair_prod * kt * diff))
    s_ise = 4.0 * (pair_sum - lambda1 * pair_prod) * kh
    return hat_ise, k_alpha, s_ise


@pytest.mark.parametrize(
    ("n", "h"), [(7, 0.4), (300, 0.4), (300, 0.01)], ids=["7", "300", "300-underflow"]
)
def test_ise_terms_match_mask_reference(n, h):
    # 300 rows span three row blocks of the in-place s_ise; at h = 0.01 the
    # far pairs' kernel values underflow
    rng = np.random.default_rng(8)
    model = _model_1d(rng, n, h=h)
    hat_ise, k_alpha, s_ise = empirical_ise_terms(model, 1.7)
    # the h kernel as empirical_ise_terms gets it: the sqrt(2) h kernel squared
    squared = np.square(_kernel(model.points, np.sqrt(2.0) * h))
    want_hat, want_k, want_s = ise_terms_reference(model, 1.7, squared)
    assert abs(hat_ise - want_hat) <= 1e-12 * abs(want_hat)
    assert abs(k_alpha - want_k) <= 1e-12 * abs(want_k)
    assert s_ise.tobytes() == want_s.tobytes()
    # the square equals the h kernel evaluated directly, to rounding, and
    # both flush the same far pairs to zero
    direct = _kernel(model.points, h)
    assert np.max(np.abs(squared - direct)) <= 1e-13
    flushed = (squared == 0.0) | (direct == 0.0)
    assert np.any(flushed) == (h < 0.1)
    assert np.max(np.abs(squared - direct)[flushed], initial=0.0) <= 1e-300
    direct_hat, _, direct_s = ise_terms_reference(model, 1.7, direct)
    assert abs(hat_ise - direct_hat) <= 1e-13 * abs(direct_hat)
    assert np.max(np.abs(s_ise - direct_s)) <= 1e-13 * np.max(np.abs(direct_s))


def test_hat_ise_two_point_hand_case():
    for k12 in (0.2, 0.5, 0.9):
        h = float(np.sqrt(-0.5 / np.log(k12)))  # distance 1 gives K = k12
        model = KdeModel(
            points=np.array([[0.0], [1.0]]),
            alpha=np.array([0.5, 0.5]),
            labels=np.array([1, 2]),
            h=h,
        )
        hat_ise, _, _ = empirical_ise_terms(model, 1.0)
        assert abs(hat_ise - (2.0 * k12 - 2.0)) < 1e-12


def test_hat_ise_same_class_no_cross_term():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(5, 1))
    alpha = np.full(5, 0.2)
    model = KdeModel(points=pts, alpha=alpha, labels=np.ones(5, dtype=int), h=1.0)
    hat_ise, _, _ = empirical_ise_terms(model, 1.0)
    kh = _kernel(pts, 1.0)
    want = -float(np.sum((alpha[:, None] + alpha[None, :]) * kh))
    assert abs(hat_ise - want) < 1e-10


def test_k_alpha_hand_expansion():
    rng = np.random.default_rng(4)
    model = _model_1d(rng, 6)
    _, k_alpha, _ = empirical_ise_terms(model, 0.5)
    kt = _kernel(model.points, np.sqrt(2.0) * model.h)
    a = model.alpha
    want = float(a @ kt @ a)
    for i in range(6):
        for j in range(i + 1, 6):
            if model.labels[i] != model.labels[j]:
                want -= 4.0 * a[i] * a[j] * kt[i, j]
    assert abs(k_alpha - want) < 1e-10


def test_s_ise_is_twice_disc_similarity():
    rng = np.random.default_rng(5)
    model = _model_1d(rng, 8)
    lam = 1.3
    _, _, s_ise = empirical_ise_terms(model, lam)
    kh = gram(SampleMatrix(model.points), KernelSpec(model.h))
    s = disc_similarity(kh, model.alpha, lam)
    assert np.max(np.abs(s_ise - 2.0 * s)) < 1e-12


def test_decision_squared_integral_vs_quadrature():
    rng = np.random.default_rng(6)
    for n in (2, 5, 10):
        model = _model_1d(rng, n, h=0.6)
        closed = decision_squared_integral(model)
        # what cdsk ise prints under decision_squared_integral
        tau1_k_alpha = model.tau1 * empirical_ise_terms(model, 1.0)[1]
        assert abs(tau1_k_alpha - closed) <= 1e-12 * closed
        grid = np.linspace(model.points.min() - 10 * model.h, model.points.max() + 10 * model.h, 60001)
        # the densities on every grid point at once, each row as for its point alone
        p_hat = class_kde(grid[:, None], model)
        r_hat = p_hat[:, 0] - p_hat[:, 1]
        for i in (0, 12345, 30000, 60000):
            single = class_kde([grid[i]], model)[0]
            assert r_hat[i] == single[0] - single[1]
        numeric = trapezoid(r_hat**2, grid)
        assert abs(numeric - closed) < 1e-4 * max(abs(closed), 1e-12)


def test_ise_residual_slack_formula():
    rng = np.random.default_rng(7)
    model = _model_1d(rng, 5, h=0.9)
    got = ise_residual_slack(model, 0.01)
    want = 2.0 * model.tau0 * (1.0 / 4.0 + 0.01)
    assert abs(got - want) < 1e-14
    with pytest.raises(ValidationError):
        ise_residual_slack(model, -0.1)
    with pytest.raises(ValidationError):
        ise_residual_slack(model, np.nan)


def test_gaussian_convolution_zero_separation():
    numeric, closed = gaussian_convolution_check(1.5, 1.5, 1.0)
    assert abs(closed - np.sqrt(np.pi)) < 1e-12
    assert abs(numeric - closed) < 1e-6 * closed


def test_gaussian_convolution_unit_case():
    numeric, closed = gaussian_convolution_check(0.0, 2.0, 1.0)
    assert abs(closed - 0.6520493321732922) < 1e-15
    assert abs(numeric - closed) < 1e-6 * closed


def test_gaussian_convolution_scaling_law():
    _, c1 = gaussian_convolution_check(0.0, 1.0, 0.8)
    _, c2 = gaussian_convolution_check(0.0, 2.0, 1.6)
    assert abs(c2 - 2.0 * c1) < 1e-12
    with pytest.raises(ValidationError):
        gaussian_convolution_check(0.0, 1.0, 0.0)


@pytest.mark.parametrize("h", [np.inf, 1e-300, np.nan, 1e200, 1e154, "1.0", None])
def test_unusable_bandwidths_are_rejected(h):
    # inf and nan are not finite; at 1e-300 the kernel's 2 h^2 underflows to 0,
    # at 1e154 and 1e200 it overflows to inf; a string and None are not numbers
    with pytest.raises(ValidationError):
        KdeModel(points=np.zeros((2, 1)), alpha=[0.5, 0.5], labels=[1, 2], h=h)
    with pytest.raises(ValidationError):
        gaussian_convolution_check(0.0, 1.0, h)


def test_tau_constants():
    model = KdeModel(
        points=np.zeros((2, 3)) + [[0, 0, 0], [1, 1, 1]],
        alpha=np.array([0.5, 0.5]),
        labels=np.array([1, 2]),
        h=0.5,
    )
    assert abs(model.tau0 - (2 * np.pi) ** (-1.5) * 0.5**-3) < 1e-12
    assert abs(model.tau1 - (2 * np.pi) ** (-1.5) * (np.sqrt(2) * 0.5) ** -3) < 1e-12
