import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsk.errors import ValidationError
from cdsk.kmeans_metrics import Partition, accuracy, kmeans, nmi


def _separated_points(rng, groups=3, per=15, gap=30.0):
    blocks, labels = [], []
    for g in range(groups):
        blocks.append(rng.normal(scale=0.3, size=(per, 2)) + [g * gap, 0.0])
        labels.extend([g + 1] * per)
    return np.vstack(blocks), np.array(labels)


def test_partition_validation():
    Partition(labels=np.array([1, 2, 1]), c=2)
    with pytest.raises(ValidationError):
        Partition(labels=np.array([0, 1]), c=2)
    with pytest.raises(ValidationError):
        Partition(labels=np.array([1, 3]), c=2)
    with pytest.raises(ValidationError):
        Partition(labels=np.array([1, 2]), c=0)


def test_kmeans_recovers_separated_groups():
    rng = np.random.default_rng(0)
    pts, truth = _separated_points(rng)
    part = kmeans(pts, 3, seed=1)
    assert accuracy(part, Partition(truth, 3)) == 1.0


def test_kmeans_c_equals_n_zero_inertia():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(6, 2))
    part = kmeans(pts, 6, seed=0)
    # every point its own cluster
    assert len(set(part.labels.tolist())) == 6


def test_kmeans_c1():
    rng = np.random.default_rng(2)
    part = kmeans(rng.normal(size=(8, 2)), 1, seed=0)
    assert np.array_equal(part.labels, np.ones(8, dtype=np.int64))


def test_kmeans_deterministic():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(40, 2))
    a = kmeans(pts, 4, seed=7)
    b = kmeans(pts, 4, seed=7)
    assert np.array_equal(a.labels, b.labels)


def test_kmeans_validation():
    pts = np.zeros((4, 2))
    with pytest.raises(ValidationError):
        kmeans(pts, 5)
    with pytest.raises(ValidationError):
        kmeans(np.array([[np.inf, 0.0], [0.0, 0.0]]), 1)


def test_accuracy_hand_case():
    pred = Partition(np.array([1, 1, 2, 2]), 2)
    truth = Partition(np.array([1, 2, 2, 2]), 2)
    assert accuracy(pred, truth) == 0.75


def test_accuracy_label_permutation_invariant():
    pred = Partition(np.array([2, 2, 1, 1]), 2)
    truth = Partition(np.array([1, 1, 2, 2]), 2)
    assert accuracy(pred, truth) == 1.0


def test_accuracy_needs_hungarian_matching():
    # contingency [[3, 2], [3, 0]]: grabbing the largest cell first scores
    # 3 + 0, while the optimal crossed assignment scores 2 + 3
    pred = Partition(np.array([1, 1, 1, 1, 1, 2, 2, 2]), 2)
    truth = Partition(np.array([1, 1, 1, 2, 2, 1, 1, 1]), 2)
    assert abs(accuracy(pred, truth) - 5.0 / 8.0) < 1e-12


def test_accuracy_size_mismatch():
    with pytest.raises(ValidationError):
        accuracy(Partition(np.array([1, 2]), 2), Partition(np.array([1, 2, 1]), 2))


def test_nmi_independent_partitions():
    pred = Partition(np.array([1, 1, 2, 2]), 2)
    truth = Partition(np.array([1, 2, 1, 2]), 2)
    assert nmi(pred, truth) == 0.0


def test_nmi_identical_partitions():
    labels = np.array([1, 2, 3, 1, 2, 3])
    p = Partition(labels, 3)
    assert abs(nmi(p, p) - 1.0) < 1e-12


def test_nmi_degenerate_cases():
    single = Partition(np.ones(4, dtype=int), 1)
    split = Partition(np.array([1, 1, 2, 2]), 2)
    assert nmi(single, single) == 1.0
    assert nmi(single, split) == 0.0
    assert nmi(split, single) == 0.0


def test_nmi_symmetric():
    rng = np.random.default_rng(4)
    a = Partition(rng.integers(1, 4, size=30), 3)
    b = Partition(rng.integers(1, 3, size=30), 2)
    assert abs(nmi(a, b) - nmi(b, a)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_accuracy_bounds_and_permutation_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    c = int(rng.integers(2, 5))
    pred = rng.integers(1, c + 1, size=n)
    truth = rng.integers(1, c + 1, size=n)
    # force both label sets to actually use label 1..c ranges validly
    acc = accuracy(Partition(pred, c), Partition(truth, c))
    assert 0.0 <= acc <= 1.0
    perm = rng.permutation(c) + 1
    relabeled = perm[pred - 1]
    assert abs(accuracy(Partition(relabeled, c), Partition(truth, c)) - acc) < 1e-12
