import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from cdsk.data_io import SampleMatrix, make_blobs, make_two_moons
from cdsk.driver import _gram
from cdsk.errors import DegenerateDataError, ValidationError
from cdsk.kernel import (
    KernelSpec,
    default_bandwidth,
    eval_kernel,
    gram,
    pairwise_sq_dists,
)

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


@pytest.mark.parametrize("h", ["1.0", None, 1j, [1.0]])
def test_kernel_spec_rejects_a_non_real_bandwidth(h):
    with pytest.raises(ValidationError, match="^bandwidth must be a real number"):
        KernelSpec(h)


@pytest.mark.parametrize("h", [1, 0.5, np.float64(0.5), np.float32(2.0), np.int64(3)])
def test_kernel_spec_accepts_real_numbers(h):
    assert KernelSpec(h).bandwidth == h


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


# the one-triangle build works in 128-row blocks and mirror tiles: one row,
# one block, one block and one row, two blocks and one row, then several
BLOCK_EDGES = (1, 2, 127, 128, 129, 257, 301, 513, 1000)


def test_gram_bit_identical_to_allocating_chain():
    for n in BLOCK_EDGES[1:]:  # a sample has at least two points
        for d in (2, 34):
            x = rng.normal(size=(n, 2 * d))
            for points in (x[:, ::2].copy(), x[:, ::2]):
                sample = SampleMatrix(points)
                g = gram(sample, KernelSpec(1.3)).values
                assert g.tobytes() == _reference_gram(sample.data, 1.3).tobytes(), (n, d)


def test_one_triangle_build_reads_no_unwritten_memory():
    # syrk leaves the product's lower triangle as np.empty gave it; a freed
    # buffer of huge values is likely handed back there, and the chain must
    # not run on it (1e308 * 2 would warn of an overflow)
    for n in (200, 600):
        y = rng.normal(size=(n, 3))
        for _ in range(3):
            junk = np.full((n, n), 1e308)
            del junk
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sq = pairwise_sq_dists(y)
                g = gram(SampleMatrix(y), KernelSpec(1.0)).values
            assert sq.tobytes() == _reference_sq_dists(y, y).tobytes()
            assert g.tobytes() == _reference_gram(y, 1.0).tobytes()


def test_self_sq_dists_bit_identical_to_allocating_chain():
    # a strided view gives its contiguous copy's bytes; numpy's own product
    # on the view takes a non-BLAS path, up to 3.6e-15 away at n = 127 and 301
    for n in BLOCK_EDGES:
        for d in (2, 3):
            x = rng.normal(size=(n, 2 * d))
            contiguous = x[:, ::2].copy()
            want = _reference_sq_dists(contiguous, contiguous)
            for y in (contiguous, x[:, ::2]):
                got = pairwise_sq_dists(y)
                assert got.tobytes() == want.tobytes(), (n, d)
                assert np.array_equal(got, got.T)


def _heuristic_instances():
    centers = np.random.default_rng(5).normal(scale=4.0, size=(3, 34))
    return {
        "moons-400": make_two_moons(400, 0.05, seed=1),
        "moons-100": make_two_moons(100, 0.05, seed=2),
        "blobs-300-d34": make_blobs(100, centers, 1.0, seed=3),
        "moons-400-shifted": SampleMatrix(make_two_moons(400, 0.05, seed=1).data + 1e4),
    }


@pytest.mark.parametrize("name", sorted(_heuristic_instances()))
def test_heuristic_gram_equals_two_step_gram(name):
    data = _heuristic_instances()[name]
    h = default_bandwidth(data)
    want = gram(data, KernelSpec(h))
    for got in (gram(data), _gram(data, None)):
        assert got.bandwidth == h
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("name", sorted(_heuristic_instances()))
def test_default_bandwidth_matches_pdist_variance(name):
    data = _heuristic_instances()[name]
    want = float(np.var(pdist(data.data)))
    assert abs(default_bandwidth(data) / want - 1.0) <= 1e-12


def test_gram_psd():
    x = rng.normal(size=(60, 3))
    g = gram(SampleMatrix(x), KernelSpec(0.9)).values
    w = np.linalg.eigvalsh(g)
    assert w.min() >= -1e-8


def test_heuristic_run_leaves_scipy_spatial_unloaded():
    # a fresh process: this test module itself imports scipy.spatial.  The
    # points carry no labels, since the accuracy metric's scipy.optimize
    # imports scipy.spatial in turn
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from cdsk.data_io import SampleMatrix, make_two_moons\n"
        "from cdsk.driver import CdskConfig, run_cdsk\n"
        "data = SampleMatrix(make_two_moons(200, 0.05, seed=0).data)\n"
        "result = run_cdsk(data, CdskConfig(c=2))\n"
        "print(result.bandwidth_used > 0, 'scipy.spatial' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_default_bandwidth_hand_instance():
    # pairwise distances of {0,1,3} are {1,3,2}: mean 2, population variance 2/3
    sm = SampleMatrix(np.array([[0.0], [1.0], [3.0]]))
    assert abs(default_bandwidth(sm) - 2.0 / 3.0) < 1e-12


def test_default_bandwidth_equal_distances_degenerate():
    for points in (
        # equilateral triangle: all three pairwise distances equal, variance 0
        [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]],
        # two points: one distance
        [[0.3, -1.2], [2.5, 0.7]],
        # identical rows, whose mean is not exactly the row (3 * 0.1 rounds
        # up), within one row block and across two
        [[0.1, 0.1, 0.7]] * 3,
        [[1e4 + 0.1, -3.3]] * 200,
    ):
        data = SampleMatrix(np.array(points))
        for heuristic in (default_bandwidth, gram):
            with pytest.raises(DegenerateDataError):
                heuristic(data)


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
