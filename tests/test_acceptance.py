"""End-to-end acceptance checks for the clustering pipeline.

One numbered test per shipped guarantee, each self-contained and seeded, so
a verbose pytest run prints a single pass/fail line per guarantee.  The
real-data benchmark is optional and skips unless data/ionosphere.csv exists
next to the package (the file is not redistributed here).
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cdsk.bounds import class_row_sums, empirical_loss, empirical_loss_upper_bound
from cdsk.cli import main
from cdsk.data_io import SampleMatrix, make_blobs, make_two_moons, write_csv
from cdsk.driver import (
    CdskConfig,
    run_baseline_spectral,
    run_cdsk,
    tune_lambda,
)
from cdsk.embedding import solve_embedding
from cdsk.kdc import KdeModel, empirical_ise_terms, gaussian_convolution_check
from cdsk.kernel import KernelSpec, gram
from cdsk.similarity import disc_similarity
from cdsk.spectral import psd_split


def _circles(rng, n, noise):
    half = n // 2
    out = []
    for radius, m in ((1.0, half), (2.5, n - half)):
        theta = rng.uniform(0.0, 2.0 * np.pi, size=m)
        ring = radius * np.column_stack([np.cos(theta), np.sin(theta)])
        out.append(ring + rng.normal(scale=noise, size=ring.shape))
    return np.vstack(out)


def _descent_dataset(i):
    """Rotating synthetic family: blobs, wide blobs, moons, rings, noise."""
    rng = np.random.default_rng(1000 + i)
    kind = i % 5
    lam = (0.05, 0.1, 0.2, 0.3, 0.5)[(i // 5) % 5]
    if kind == 0:
        per = 30 + 20 * (i % 3)
        centers = rng.uniform(-8.0, 8.0, size=(2, 2))
        data = make_blobs(per, centers, 0.6, seed=1000 + i)
        return SampleMatrix(data.data), 2, lam, None
    if kind == 1:
        d = 2 + ((i // 5) % 4)
        centers = rng.uniform(-6.0, 6.0, size=(3, d))
        data = make_blobs(25 + 10 * (i % 3), centers, 0.8, seed=1000 + i)
        return SampleMatrix(data.data), 3, lam, None
    if kind == 2:
        data = make_two_moons(150 + 50 * (i % 3), 0.08, seed=1000 + i)
        return SampleMatrix(data.data), 2, lam, 0.15
    if kind == 3:
        return SampleMatrix(_circles(rng, 120, 0.05)), 2, lam, 0.3
    n = 80 + 60 * (i % 3)
    return SampleMatrix(rng.normal(size=(n, 2))), 2 + (i % 2), lam, None


def test_01_objective_trace_nonincreasing_on_random_datasets():
    """Joint objective trace never rises (rel slack 1e-8) on 50 datasets, < 2 min."""
    start = time.time()
    for i in range(50):
        data, c, lam, bw = _descent_dataset(i)
        res = run_cdsk(data, CdskConfig(c=c, lam=lam, bandwidth=bw, max_iter=10, seed=i))
        tr = res.objective_trace
        for prev, cur in zip(tr, tr[1:]):
            assert cur - prev <= 1e-8 * max(1.0, abs(prev)), (i, prev, cur)
    assert time.time() - start < 120.0


def test_02_uniform_weights_reduce_to_plain_spectral_embedding():
    """Pinned-uniform weights give the plain spectral subspace (angle < 1e-6)."""
    for i in range(10):
        rng = np.random.default_rng(2000 + i)
        n = 30 + 9 * i
        d = 2 + (i % 3)
        c = 2 + (i % 3)
        shift = rng.uniform(-6.0, 6.0, size=(c, d))
        points = np.vstack(
            [shift[j] + rng.normal(scale=1.0, size=(n // c + 1, d)) for j in range(c)]
        )[:n]
        data = SampleMatrix(points)
        lam = 0.1 + 0.45 * (i % 4)
        kmat = gram(data, KernelSpec(1.5))
        uniform = np.full(data.n, 1.0 / data.n)

        y_weighted = solve_embedding(disc_similarity(kmat, uniform, lam), c)

        k = kmat.values
        deg = k.sum(axis=1)
        scale = 1.0 / np.sqrt(deg)
        lap = np.eye(data.n) - scale[:, None] * k * scale[None, :]
        lap = 0.5 * (lap + lap.T)
        _, vecs = np.linalg.eigh(lap)
        y_plain = vecs[:, :c] * scale[:, None]

        q1, _ = np.linalg.qr(y_weighted)
        q2, _ = np.linalg.qr(y_plain)
        sine = np.linalg.svd(q2 - q1 @ (q1.T @ q2), compute_uv=False).max()
        assert sine < 1e-6, (i, sine)


def test_03_similarity_entries_nonnegative_for_lambda_up_to_two():
    """1000 random weight draws with lambda <= 2 never produce a negative entry."""
    for t in range(1000):
        rng = np.random.default_rng(3000 + t)
        n = int(rng.integers(2, 21))
        data = SampleMatrix(rng.normal(size=(n, 2)))
        kmat = gram(data, KernelSpec(2.0))
        alpha = rng.dirichlet(np.ones(n))
        lam = float(rng.uniform(0.0, 2.0))
        s = disc_similarity(kmat, alpha, lam)
        assert s.min() >= 0.0, (t, s.min())


def test_05_psd_split_reconstructs_and_parts_stay_psd():
    """200 symmetric matrices: exact reconstruction, PSD parts, PSD in -> zero minus."""
    rng = np.random.default_rng(5000)
    for t in range(200):
        n = int(rng.integers(2, 51))
        if t % 4 == 3:
            root = rng.normal(size=(n, max(1, n // 2)))
            s = root @ root.T
            psd_input = True
        else:
            raw = rng.normal(size=(n, n)) * 2.0
            s = 0.5 * (raw + raw.T)
            psd_input = False
        split = psd_split(s)
        recon = split.s_plus - split.s_minus
        assert np.linalg.norm(recon - s) < 1e-8, t
        for part in (split.s_plus, split.s_minus):
            w = np.linalg.eigvalsh(0.5 * (part + part.T))
            assert w.min() >= -1e-8, (t, w.min())
        if psd_input:
            assert np.linalg.norm(split.s_minus) < 1e-8, t


def test_06_empirical_loss_never_exceeds_similarity_bound():
    """Mean ramp loss <= its gram-weighted surrogate on 200 labeled draws."""
    for t in range(200):
        rng = np.random.default_rng(6000 + t)
        n = 4 + (t % 22)
        c = 2 + (t % 2)
        labels = 1 + (np.arange(n) % c)
        rng.shuffle(labels)
        train = SampleMatrix(rng.normal(size=(n, 2)) * 1.5, labels)
        spec = KernelSpec(float(rng.uniform(0.5, 2.0)))
        alpha = rng.dirichlet(np.ones(n))
        gamma = float(rng.uniform(1.0, 4.0))
        loss = empirical_loss(train, alpha, spec, gamma)
        bound = empirical_loss_upper_bound(train, alpha, gamma, gram(train, spec).values)
        assert loss <= bound + 1e-12, (t, loss, bound)


def test_07_blocked_quadratic_form_inequality_on_psd_similarity():
    """a^T S a <= c * sum of class-blocked forms on 500 random PSD draws."""
    for t in range(500):
        rng = np.random.default_rng(7000 + t)
        n = int(rng.integers(2, 31))
        root = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        s = root @ root.T
        s = 0.5 * (s + s.T)
        alpha = rng.dirichlet(np.ones(n))
        c = int(rng.integers(2, 5))
        labels = rng.integers(1, c + 1, size=n)
        lhs = float(alpha @ s @ alpha)
        rhs = c * float(alpha @ class_row_sums(s, alpha, labels)[0])
        assert lhs <= rhs + 1e-10, (t, lhs, rhs)
        assert rhs - lhs >= -1e-10, (t, lhs, rhs)


def test_08_gaussian_convolution_and_ise_identities():
    """Convolution quadrature vs closed form, density-difference integral, 2x link."""
    numeric, closed = gaussian_convolution_check(0.0, 2.0, 1.0)
    assert abs(closed - 0.6520493321732922) < 1e-12
    assert abs(numeric - closed) <= 1e-6 * closed
    rng = np.random.default_rng(8000)
    for _ in range(50):
        a, b = rng.normal(scale=3.0, size=2)
        h = float(rng.uniform(0.2, 2.2))
        numeric, closed = gaussian_convolution_check(float(a), float(b), h)
        assert abs(numeric - closed) <= 1e-6 * closed

    for n in (2, 3, 5, 7, 10):
        rng = np.random.default_rng(8100 + n)
        points = rng.normal(size=(n, 1)) * 1.2
        labels = 1 + (np.arange(n) % 2)
        alpha = rng.dirichlet(np.ones(n))
        h = float(rng.uniform(0.3, 0.7))
        model = KdeModel(points, alpha, labels, h)
        closed = model.tau1 * empirical_ise_terms(model, 1.0)[1]
        grid = np.linspace(points.min() - 12.0 * h, points.max() + 12.0 * h, 60001)
        sign = np.where(labels == 1, 1.0, -1.0)
        weights = alpha * sign
        diff = model.tau0 * (
            np.exp(-((grid[:, None] - points[None, :, 0]) ** 2) / (2.0 * h * h))
            @ weights
        )
        numeric = float(np.trapezoid(diff * diff, grid))
        assert abs(numeric - closed) <= 1e-4 * abs(closed), (n, numeric, closed)

    rng = np.random.default_rng(8200)
    points = rng.normal(size=(12, 2))
    alpha = rng.dirichlet(np.ones(12))
    labels = 1 + (np.arange(12) % 2)
    h = 0.9
    kmat = gram(SampleMatrix(points), KernelSpec(h))
    for lam in (0.3, 0.8, 1.7):
        s = disc_similarity(kmat, alpha, lam)
        _, _, s_ise = empirical_ise_terms(KdeModel(points, alpha, labels, h), lam)
        assert np.max(np.abs(s_ise - 2.0 * s)) < 1e-12, lam


def test_09_desk_scale_clustering_quality():
    """Separated blobs cluster exactly; tuned two-moons beat 0.90 over 10 seeds."""
    start = time.time()
    blobs = make_blobs(100, [[0.0, 0.0], [10.0, 10.0]], 0.5, seed=0)
    res = run_cdsk(blobs, CdskConfig(c=2))
    assert res.metrics is not None and res.metrics["accuracy"] == 1.0
    assert time.time() - start < 30.0

    baseline_accs = []
    tuned_accs = []
    for seed in range(10):
        data = make_two_moons(400, 0.05, seed=seed)
        per_run = time.time()
        base = run_baseline_spectral(data, 2, seed=seed, bandwidth=0.1)
        baseline_accs.append(base.metrics["accuracy"])
        cfg = CdskConfig(c=2, bandwidth=0.1, seed=seed)
        lam, _ = tune_lambda(data, cfg)
        res = run_cdsk(data, replace(cfg, lam=lam))
        tuned_accs.append(res.metrics["accuracy"])
        assert time.time() - per_run < 30.0, seed
    assert float(np.mean(baseline_accs)) >= 0.90, baseline_accs
    assert float(np.mean(tuned_accs)) >= 0.90, tuned_accs


def test_10_ionosphere_benchmark_optional():
    """Optional real-data check: mean AC >= 0.70 and NMI >= 0.18 over 10 seeds."""
    path = Path(__file__).resolve().parent.parent / "data" / "ionosphere.csv"
    if not path.exists():
        pytest.skip("data/ionosphere.csv not present; place the UCI file to enable")
    rows = []
    labels = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        rows.append([float(v) for v in cells[:-1]])
        tag = cells[-1].strip().lower()
        labels.append(1 if tag in ("g", "1") else 2)
    data = SampleMatrix(np.asarray(rows), np.asarray(labels))
    assert data.n == 351 and data.data.shape[1] == 34

    start = time.time()
    accs = []
    nmis = []
    for seed in range(10):
        cfg = CdskConfig(c=2, seed=seed)
        lam, _ = tune_lambda(data, cfg)
        res = run_cdsk(data, replace(cfg, lam=lam))
        accs.append(res.metrics["accuracy"])
        nmis.append(res.metrics["nmi"])
    assert float(np.mean(accs)) >= 0.70, accs
    assert float(np.mean(nmis)) >= 0.18, nmis
    assert time.time() - start < 120.0


def test_11_cli_results_byte_identical_across_runs(tmp_path, capsys):
    """Same input, flags, and seed produce byte-identical result documents."""
    data = make_blobs(30, [[0.0, 0.0], [6.0, 6.0]], 0.7, seed=4)
    csv = tmp_path / "points.csv"
    write_csv(data, csv)
    out = tmp_path / "result.json"
    argv = [
        "cluster",
        "--input", str(csv),
        "--labels", "2",
        "--clusters", "2",
        "--seed", "5",
        "--output", str(out),
    ]
    assert main(argv) == 0
    first_doc = out.read_bytes()
    first_text = capsys.readouterr().out
    assert main(argv) == 0
    second_doc = out.read_bytes()
    second_text = capsys.readouterr().out
    assert first_doc == second_doc
    assert first_text == second_text
    json.loads(first_doc)
