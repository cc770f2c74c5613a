import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsk.bounds import (
    BoundInputs,
    class_row_sums,
    empirical_loss,
    empirical_loss_upper_bound,
    generalization_bound,
    phi,
    rademacher_bound,
)
from cdsk.data_io import SampleMatrix
from cdsk.errors import ValidationError
from cdsk.kernel import KernelSpec, eval_kernel, gram
from cdsk.similarity import class_scores
from cdsk.spectral import PsdSplit, psd_split


def _labeled_sample(rng, n, c=2, d=2):
    pts = rng.normal(size=(n, d))
    labels = rng.integers(1, c + 1, size=n)
    labels[:c] = np.arange(1, c + 1)
    return SampleMatrix(pts, labels=labels)


def _random_alpha(rng, n):
    a = rng.uniform(0.1, 1.0, size=n)
    return a / a.sum()


def test_phi_piecewise():
    assert phi(2.0) == 0.0
    assert phi(0.0) == 1.0
    assert phi(0.25) == 0.75
    assert phi(-3.0) == 1.0
    assert phi(1.0) == 0.0
    xs = np.array([2.0, 0.0, 0.25, -3.0, 1.0])
    assert phi(xs).tolist() == [0.0, 1.0, 0.75, 1.0, 0.0]


def omega_terms_reference(split, alpha, labels):
    """Reference: the within-class quadratic forms from np.ix_ sub-blocks."""
    plus = minus = 0.0
    for label in np.unique(labels):
        mask = labels == label
        part = alpha[mask]
        plus += float(part @ split.s_plus[np.ix_(mask, mask)] @ part)
        minus += float(part @ split.s_minus[np.ix_(mask, mask)] @ part)
    return plus, minus


def omega_terms(split, alpha, labels):
    """(omega_plus, omega_minus) as cdsk bounds forms them: alpha @ own from class_row_sums."""
    return tuple(
        float(alpha @ class_row_sums(part, alpha, labels)[0])
        for part in (split.s_plus, split.s_minus)
    )


def upper_bound_reference(train, alpha, gamma, s):
    """Reference: the surrogate bound from n x n pair-sum and label-mismatch masks."""
    pair_sum = alpha[:, None] + alpha[None, :]
    diff = train.labels[:, None] != train.labels[None, :]
    total = 0.5 * float(np.sum(pair_sum * s))
    cross = float(np.sum(pair_sum * s * diff))
    return 1.0 - total / (train.n * gamma) + cross / (train.n * gamma)


def blocked_form_reference(s, alpha, labels, c):
    """Reference: c sum_y a^(y)T S a^(y) from np.ix_ sub-blocks."""
    rhs = 0.0
    for label in range(1, c + 1):
        mask = labels == label
        if np.any(mask):
            part = alpha[mask]
            rhs += float(part @ s[np.ix_(mask, mask)] @ part)
    return c * rhs


def lemma_b1_sides(s, alpha, labels, c):
    """(a^T S a, c sum_y a^(y)T S a^(y)), the blocked form from class_row_sums;
    for PSD S the first is at most the second."""
    return float(alpha @ s @ alpha), c * float(alpha @ class_row_sums(s, alpha, labels)[0])


def test_class_row_sums_loop_oracle():
    # label values need not be 1..c: classes are the distinct values
    rng = np.random.default_rng(10)
    m = rng.normal(size=(9, 9))
    m = m + m.T
    w = rng.uniform(size=9)
    labels = np.array([7, 3, 3, 7, 5, 5, 3, 7, 7])
    own, total = class_row_sums(m, w, labels)
    for i in range(9):
        same = labels == labels[i]
        assert abs(own[i] - float(m[i, same] @ w[same])) < 1e-12
        assert abs(total[i] - float(m[i] @ w)) < 1e-12


def margin(x, y, train, alpha, spec):
    """Reference: own-class score minus the best competing class score at one point."""
    scores = class_scores(x, train, alpha, spec)[0]
    return float(scores[y - 1] - np.delete(scores, y - 1).max())


def _kernel_margin(x, y, train, alpha, spec):
    """The same margin with every class score summed from eval_kernel."""
    scores = np.zeros(int(train.labels.max()))
    for point, label, weight in zip(train.data, train.labels, alpha):
        scores[label - 1] += weight * eval_kernel(x, point, spec)
    return float(scores[y - 1] - np.delete(scores, y - 1).max())


def test_margin_hand_scores():
    # training points placed so the query sees kernel values (0.8, 0.2);
    # with alpha = (1/2, 1/2) the class scores are (0.4, 0.1)
    t1 = np.sqrt(-2.0 * np.log(0.8))
    t2 = np.sqrt(-2.0 * np.log(0.2))
    train = SampleMatrix(np.array([[t1], [t2]]), labels=np.array([1, 2]))
    spec = KernelSpec(1.0)
    assert abs(margin([0.0], 1, train, [0.5, 0.5], spec) - 0.3) < 1e-12
    assert abs(margin([0.0], 2, train, [0.5, 0.5], spec) + 0.3) < 1e-12


def test_margin_tie_is_zero():
    train = SampleMatrix(np.array([[-1.0], [1.0]]), labels=np.array([1, 2]))
    assert abs(margin([0.0], 1, train, [0.5, 0.5], KernelSpec(1.0))) < 1e-15


def test_margin_single_class_rejected():
    train = SampleMatrix(np.array([[0.0], [1.0]]), labels=np.array([1, 1]))
    with pytest.raises(ValidationError, match="2 classes"):
        empirical_loss(train, [0.5, 0.5], KernelSpec(1.0), 1.0)


def test_margin_matches_competitor_enumeration():
    rng = np.random.default_rng(0)
    train = _labeled_sample(rng, 9, c=3)
    alpha = _random_alpha(rng, 9)
    spec = KernelSpec(1.2)
    for _ in range(5):
        x = rng.normal(size=2)
        for y in (1, 2, 3):
            want = _kernel_margin(x, y, train, alpha, spec)
            assert abs(margin(x, y, train, alpha, spec) - want) < 1e-12


def test_empirical_loss_mean_of_phi_margins():
    # the per-point ramp loss from eval_kernel, independent of class_scores
    rng = np.random.default_rng(1)
    train = _labeled_sample(rng, 8, c=2)
    alpha = _random_alpha(rng, 8)
    spec = KernelSpec(0.9)
    gamma = 0.05
    want = np.mean(
        [phi(_kernel_margin(train.data[i], int(train.labels[i]), train, alpha, spec) / gamma)
         for i in range(8)]
    )
    assert abs(empirical_loss(train, alpha, spec, gamma) - want) < 1e-12


def test_empirical_loss_hand_mixture():
    # phi arithmetic for margins (gamma/2, -5 gamma)
    gamma = 0.3
    assert (phi(0.5) + phi(-5.0)) / 2.0 == 0.75
    # saturated cases
    rng = np.random.default_rng(2)
    train = _labeled_sample(rng, 6, c=2)
    alpha = _random_alpha(rng, 6)
    spec = KernelSpec(1.0)
    # huge gamma: every margin/gamma ~ 0 so the loss approaches 1
    assert empirical_loss(train, alpha, spec, 1e12) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValidationError):
        empirical_loss(train, alpha, spec, 0.0)


def test_upper_bound_single_class_unit_kernel():
    train = SampleMatrix(np.array([[0.0], [0.0]]), labels=np.array([1, 1]))
    s = np.ones((2, 2))
    got = empirical_loss_upper_bound(train, [0.5, 0.5], 1.0, s)
    assert abs(got) < 1e-12


def test_upper_bound_zero_similarity():
    rng = np.random.default_rng(3)
    train = _labeled_sample(rng, 5, c=2)
    got = empirical_loss_upper_bound(train, _random_alpha(rng, 5), 1.5, np.zeros((5, 5)))
    assert got == 1.0


def test_upper_bound_gamma_domain():
    rng = np.random.default_rng(4)
    train = _labeled_sample(rng, 4, c=2)
    with pytest.raises(ValidationError):
        empirical_loss_upper_bound(train, np.full(4, 0.25), 0.5, np.eye(4))


def test_upper_bound_dominates_empirical_loss():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(4, 20))
        train = _labeled_sample(rng, n, c=2)
        alpha = _random_alpha(rng, n)
        spec = KernelSpec(float(rng.uniform(0.5, 2.0)))
        gamma = float(rng.uniform(1.0, 3.0))
        k = gram(train, spec).values
        lhs = empirical_loss(train, alpha, spec, gamma)
        rhs = empirical_loss_upper_bound(train, alpha, gamma, k)
        assert lhs <= rhs + 1e-10
        want = upper_bound_reference(train, alpha, gamma, k)
        assert abs(rhs - want) <= 1e-12 * abs(want)


def test_omega_terms_one_hot():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(5, 5))
    split = psd_split(0.5 * (m + m.T))
    alpha = np.zeros(5)
    alpha[2] = 1.0
    labels = np.array([1, 1, 1, 2, 2])
    plus, minus = omega_terms(split, alpha, labels)
    assert abs(plus - split.s_plus[2, 2]) < 1e-12
    assert abs(minus - split.s_minus[2, 2]) < 1e-12


def test_omega_terms_single_class_psd():
    rng = np.random.default_rng(7)
    b = rng.normal(size=(6, 3))
    s = b @ b.T
    split = psd_split(s)
    alpha = _random_alpha(rng, 6)
    plus, minus = omega_terms(split, alpha, np.ones(6, dtype=int))
    assert abs(plus - float(alpha @ s @ alpha)) < 1e-8
    assert abs(minus) < 1e-8


def test_omega_terms_loop_oracle():
    rng = np.random.default_rng(8)
    m = rng.normal(size=(7, 7))
    split = psd_split(0.5 * (m + m.T))
    alpha = _random_alpha(rng, 7)
    labels = rng.integers(1, 4, size=7)
    plus, minus = omega_terms(split, alpha, labels)
    ref_p, ref_m = omega_terms_reference(split, alpha, labels)
    assert abs(plus - ref_p) < 1e-12 and abs(minus - ref_m) < 1e-12
    want_p = want_m = 0.0
    for y in (1, 2, 3):
        for i in range(7):
            for j in range(7):
                if labels[i] == y and labels[j] == y:
                    want_p += alpha[i] * alpha[j] * split.s_plus[i, j]
                    want_m += alpha[i] * alpha[j] * split.s_minus[i, j]
    assert abs(plus - want_p) < 1e-10
    assert abs(minus - want_m) < 1e-10
    assert plus >= -1e-10 and minus >= -1e-10


def test_generalization_bound_frozen_instance():
    inputs = BoundInputs(n=100, c=2, gamma=1.0, delta=0.05, b_plus=1.0, b_minus=0.0, r=1.0)
    assert abs(generalization_bound(inputs, 0.0) - 19.158009716817745) < 1e-12


def test_generalization_bound_zero_complexity():
    inputs = BoundInputs(n=50, c=3, gamma=2.0, delta=0.1, b_plus=0.0, b_minus=0.0, r=1.0)
    want = 0.25 + np.sqrt(np.log(40.0) / 100.0)
    assert abs(generalization_bound(inputs, 0.25) - want) < 1e-12


def test_generalization_bound_monotonicities():
    base = dict(c=2, gamma=1.0, delta=0.05, b_plus=0.5, b_minus=0.5, r=1.0)
    small = generalization_bound(BoundInputs(n=100, **base), 0.0)
    large = generalization_bound(BoundInputs(n=400, **base), 0.0)
    assert large < small
    light = generalization_bound(
        BoundInputs(n=100, c=2, gamma=1.0, delta=0.05, b_plus=0.1, b_minus=0.0, r=1.0), 0.0
    )
    heavy = generalization_bound(
        BoundInputs(n=100, c=2, gamma=1.0, delta=0.05, b_plus=0.9, b_minus=0.3, r=1.0), 0.0
    )
    assert light < heavy
    with pytest.raises(ValidationError):
        generalization_bound(BoundInputs(n=100, **base), -0.1)


def test_rademacher_bound_frozen_instance():
    inputs = BoundInputs(n=100, c=2, gamma=1.0, delta=0.05, b_plus=1.0, b_minus=0.0, r=1.0)
    assert abs(rademacher_bound(inputs, 0.05) - 2.2297218188887435) < 1e-12


def test_rademacher_bound_linearity():
    lo = BoundInputs(n=64, c=2, gamma=1.0, delta=0.05, b_plus=0.3, b_minus=0.2, r=1.5)
    hi = BoundInputs(n=64, c=2, gamma=1.0, delta=0.05, b_plus=0.6, b_minus=0.4, r=1.5)
    assert abs(rademacher_bound(hi, 0.1) - 2.0 * rademacher_bound(lo, 0.1)) < 1e-12
    zero = BoundInputs(n=64, c=2, gamma=1.0, delta=0.05, b_plus=0.0, b_minus=0.0, r=1.5)
    assert rademacher_bound(zero, 0.1) == 0.0
    with pytest.raises(ValidationError):
        rademacher_bound(lo, 1.5)


def test_bound_inputs_validation():
    ok = dict(n=10, c=2, gamma=1.0, delta=0.05, b_plus=1.0, b_minus=0.0, r=1.0)
    BoundInputs(**ok)
    for field, bad in (
        ("n", 0), ("c", 1), ("gamma", 0.0), ("delta", 1.0), ("b_plus", -1.0), ("r", 0.0)
    ):
        with pytest.raises(ValidationError):
            BoundInputs(**{**ok, field: bad})


def test_lemma_b1_hand_and_rejection():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(6, 4))
    s = b @ b.T
    alpha = _random_alpha(rng, 6)
    labels = np.array([1, 1, 2, 2, 2, 1])
    lhs, rhs = lemma_b1_sides(s, alpha, labels, 2)
    assert lhs <= rhs + 1e-10
    assert abs(rhs - blocked_form_reference(s, alpha, labels, 2)) < 1e-12 * rhs
    # an indefinite S breaks the inequality: here all of it lies across classes
    lhs, rhs = lemma_b1_sides(np.array([[0.0, 1.0], [1.0, 0.0]]), np.full(2, 0.5), [1, 2], 2)
    assert (lhs, rhs) == (0.5, 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10), st.integers(2, 4))
def test_lemma_b1_property(seed, n, c):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(n, max(2, n - 1)))
    s = b @ b.T
    alpha = _random_alpha(rng, n)
    labels = rng.integers(1, c + 1, size=n)
    lhs, rhs = lemma_b1_sides(s, alpha, labels, c)
    assert rhs - lhs >= -1e-10
    want = blocked_form_reference(s, alpha, labels, c)
    assert abs(rhs - want) <= 1e-12 * max(1.0, abs(want))
