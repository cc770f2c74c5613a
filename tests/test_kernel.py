import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsk.data_io import SampleMatrix, make_two_moons
from cdsk.errors import DegenerateDataError, ValidationError
from cdsk.kernel import KernelSpec, default_bandwidth, eval_kernel, gram, pairwise_sq_dists

rng = np.random.default_rng(0)


def test_eval_kernel_closed_forms():
    spec = KernelSpec(1.0)
    assert eval_kernel([1.0, 2.0], [1.0, 2.0], spec) == 1.0
    # squared distance 2 at unit bandwidth
    v = eval_kernel([0.0], [np.sqrt(2.0)], spec)
    assert abs(v - np.exp(-1.0)) < 1e-12
    v = eval_kernel([1.0, 0.0], [0.0, 0.0], spec)
    assert abs(v - np.exp(-0.5)) < 1e-12


def test_eval_kernel_dimension_mismatch():
    with pytest.raises(ValidationError):
        eval_kernel([1.0, 2.0], [1.0], KernelSpec(1.0))


def test_gram_matches_elementwise_loop():
    x = rng.normal(size=(5, 3))
    spec = KernelSpec(0.7)
    g = gram(SampleMatrix(x), spec).values
    for i in range(5):
        for j in range(5):
            assert abs(g[i, j] - eval_kernel(x[i], x[j], spec)) < 1e-12


def test_gram_identical_rows_all_ones():
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    g = gram(SampleMatrix(x), KernelSpec(3.0)).values
    assert np.allclose(g, 1.0)


def test_gram_unit_diagonal_and_symmetry():
    # gram runs no symmetrizing pass, so the symmetry must come out exact;
    # a strided view would take numpy's non-BLAS product path, asymmetric at
    # n = 301, unless SampleMatrix makes it contiguous
    for n in (20, 301):
        for d in (1, 2, 34):
            x = rng.normal(size=(n, 2 * d))
            for points in (x[:, ::2].copy(), x[:, ::2]):
                g = gram(SampleMatrix(points), KernelSpec(1.3)).values
                assert np.array_equal(np.diag(g), np.ones(n))
                assert np.array_equal(g, g.T), (n, d)
                assert g.min() > 0.0 and g.max() <= 1.0


@pytest.mark.parametrize("shift", [1e3, 1e4])
def test_gram_accurate_far_from_origin(shift):
    # ||a||^2 + ||b||^2 - 2 a.b loses about eps ||x||^2: uncentered, this
    # gram was 3.2e-8 (shift 1e3) and 4.0e-6 (1e4) off the direct differences
    x = make_two_moons(200, 0.05, seed=0).data + shift
    g = gram(SampleMatrix(x), KernelSpec(0.1)).values
    diff = x[:, None, :] - x[None, :, :]
    want = np.exp(-np.sum(diff * diff, axis=2) / (2.0 * 0.1**2))
    assert np.max(np.abs(g - want)) <= 1e-12
    assert np.array_equal(g, g.T)


def _reference_sq_dists(a, b):
    """The allocating chain pairwise_sq_dists must reproduce bit for bit."""
    aa = np.sum(a * a, axis=1)
    bb = np.sum(b * b, axis=1)
    sq = aa[:, None] + bb[None, :] - 2.0 * (a @ b.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def _reference_gram(points, bandwidth):
    # gram centers the points on their column mean before the distances
    centered = points - points.mean(axis=0)
    values = np.exp(-_reference_sq_dists(centered, centered) / (2.0 * bandwidth**2))
    np.fill_diagonal(values, 1.0)
    return values


def test_gram_bit_identical_to_allocating_chain():
    # n spans two, three and four 256-row blocks of the in-place build
    for n in (301, 513, 1000):
        for d in (2, 34):
            x = rng.normal(size=(n, 2 * d))
            for points in (x[:, ::2].copy(), x[:, ::2]):
                sample = SampleMatrix(points)
                g = gram(sample, KernelSpec(1.3)).values
                assert g.tobytes() == _reference_gram(sample.data, 1.3).tobytes(), (n, d)


def test_pairwise_sq_dists_bit_identical_for_distinct_sets():
    a = rng.normal(size=(300, 6))
    b = rng.normal(size=(517, 6))
    for left, right in ((a, b), (b, a), (a[:, ::2], b[:, ::2])):
        got = pairwise_sq_dists(left, right)
        assert got.shape == (left.shape[0], right.shape[0])
        assert got.tobytes() == _reference_sq_dists(left, right).tobytes()


def test_gram_psd():
    x = rng.normal(size=(60, 3))
    g = gram(SampleMatrix(x), KernelSpec(0.9)).values
    w = np.linalg.eigvalsh(g)
    assert w.min() >= -1e-8


def test_default_bandwidth_hand_instance():
    # pairwise distances of {0,1,3} are {1,3,2}: mean 2, population variance 2/3
    sm = SampleMatrix(np.array([[0.0], [1.0], [3.0]]))
    assert abs(default_bandwidth(sm) - 2.0 / 3.0) < 1e-12


def test_default_bandwidth_equal_distances_degenerate():
    # equilateral triangle: all three pairwise distances equal, variance 0
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
    with pytest.raises(DegenerateDataError):
        default_bandwidth(SampleMatrix(pts))


def test_default_bandwidth_translation_invariant():
    x = rng.normal(size=(15, 2))
    a = default_bandwidth(SampleMatrix(x))
    b = default_bandwidth(SampleMatrix(x + 37.5))
    assert abs(a - b) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_gram_scale_invariance(seed):
    r = np.random.default_rng(seed)
    x = r.normal(size=(8, 3))
    s = float(r.uniform(0.5, 3.0))
    g1 = gram(SampleMatrix(x), KernelSpec(1.1)).values
    g2 = gram(SampleMatrix(s * x), KernelSpec(s * 1.1)).values
    assert np.max(np.abs(g1 - g2)) < 1e-12
