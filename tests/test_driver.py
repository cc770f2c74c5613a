from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

import cdsk.driver
from cdsk.data_io import SampleMatrix, make_blobs, make_two_moons
from cdsk.driver import (
    DEFAULT_LAMBDA_GRID,
    CdskConfig,
    assemble_alpha_qp,
    embedding_entropy,
    run_baseline_spectral,
    run_cdsk,
    solve_alpha_coupled,
    tune_lambda,
)
from cdsk.embedding import solve_embedding
from cdsk.errors import ConfigError, DegenerateDataError, ValidationError
from cdsk.kernel import GramMatrix, KernelSpec, default_bandwidth, gram
from cdsk.similarity import disc_similarity
from cdsk.spectral import _DENSE_LIMIT, lanczos_applies
from test_acceptance import _descent_dataset
from test_similarity import joint_objective, qp_objective


def _blobs(n_per=30, gap=12.0, seed=0):
    return make_blobs(n_per, [[0.0, 0.0], [gap, gap]], 0.5, seed=seed)


def test_config_validation():
    CdskConfig(c=2)
    config = CdskConfig(c=np.int64(3), max_iter=np.int64(4), seed=np.int64(5))
    assert (config.c, config.max_iter, config.seed) == (3, 4, 5)
    assert all(type(v) is int for v in (config.c, config.max_iter, config.seed))
    for kwargs in (
        dict(c=0),
        dict(c=1),
        dict(c=2, lam=0.0),
        dict(c=2, lam=2.5),
        dict(c=2, bandwidth=0.0),
        dict(c=2, bandwidth=np.inf),
        dict(c=2, bandwidth=np.nan),
        dict(c=2, bandwidth=1e-300),
        dict(c=2, max_iter=0),
        dict(c=2, seed=-1),
    ):
        with pytest.raises(ConfigError):
            CdskConfig(**kwargs)
    # a non-integral count or seed is a ConfigError naming the field, in the
    # config and in the baseline alike
    data = _blobs(n_per=5)
    for name, make in (
        ("c", lambda: CdskConfig(c=2.0)),
        ("max_iter", lambda: CdskConfig(c=2, max_iter=2.5)),
        ("seed", lambda: CdskConfig(c=2, seed=1.5)),
        ("c", lambda: run_baseline_spectral(data, 2.0)),
        ("seed", lambda: run_baseline_spectral(data, 2, seed=1.5)),
    ):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            make()
    # so is a non-real lam or bandwidth; the baseline's bandwidth goes
    # through the kernel's one bandwidth rule, a ValidationError
    for name, make in (
        ("lam", lambda: CdskConfig(c=2, lam="0.1")),
        ("lam", lambda: CdskConfig(c=2, lam=None)),
        ("bandwidth", lambda: CdskConfig(c=2, bandwidth="1.0")),
    ):
        with pytest.raises(ConfigError, match=f"^{name} must be a real number"):
            make()
    with pytest.raises(ValidationError, match="^bandwidth must be a real number"):
        run_baseline_spectral(data, 2, bandwidth="1.0")
    assert run_baseline_spectral(data, np.int64(2)).labels.shape == (10,)


def test_default_lambda_grid():
    assert DEFAULT_LAMBDA_GRID == (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


def test_run_cdsk_monotone_trace():
    data = _blobs()
    res = run_cdsk(data, CdskConfig(c=2, lam=0.2, max_iter=8))
    trace = np.asarray(res.objective_trace)
    assert trace.size >= 1
    drops = np.diff(trace)
    assert np.all(drops <= 1e-8 * np.maximum(1.0, np.abs(trace[:-1])))


def test_run_cdsk_separates_blobs():
    data = _blobs()
    res = run_cdsk(data, CdskConfig(c=2, lam=0.1))
    assert res.metrics is not None
    assert res.metrics["accuracy"] == 1.0
    assert res.qp_converged


def test_run_cdsk_alpha_is_simplex():
    data = _blobs(n_per=20)
    res = run_cdsk(data, CdskConfig(c=2, lam=0.3))
    assert res.alpha.min() >= -1e-12
    assert abs(res.alpha.sum() - 1.0) < 1e-9


def test_run_cdsk_deterministic():
    data = _blobs(n_per=20)
    cfg = CdskConfig(c=2, lam=0.2, seed=3)
    r1 = run_cdsk(data, cfg)
    r2 = run_cdsk(data, cfg)
    assert np.array_equal(r1.labels, r2.labels)
    assert np.array_equal(r1.alpha, r2.alpha)
    assert r1.objective_trace == r2.objective_trace


def test_run_cdsk_single_iteration_uniform_matches_baseline():
    # with uniform weights the first embedding equals the plain spectral one,
    # so a one-iteration run clusters identically to the baseline
    data = _blobs(n_per=25, seed=1)
    cfg = CdskConfig(c=2, lam=0.1, max_iter=1, seed=5)
    res = run_cdsk(data, cfg)
    base = run_baseline_spectral(data, 2, seed=5, bandwidth=res.bandwidth_used)
    assert np.array_equal(res.labels, base.labels)


def test_run_cdsk_domain_errors():
    data = _blobs(n_per=5)
    with pytest.raises(ConfigError):
        run_cdsk(data, CdskConfig(c=1))
    small = SampleMatrix(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValidationError):
        run_cdsk(small, CdskConfig(c=3))


def test_run_cdsk_two_iterations_separates_blobs():
    data = _blobs(n_per=15)
    res = run_cdsk(data, CdskConfig(c=2, lam=0.1, max_iter=2))
    assert res.metrics["accuracy"] == 1.0


def test_run_cdsk_high_dimensional_blobs_match_baseline():
    # 3 blobs in d=34 with the heuristic bandwidth: CDSK must cluster as
    # well as the plain spectral baseline, which is exact here
    rng = np.random.default_rng(2)
    data = make_blobs(100, 1.5 * rng.standard_normal((3, 34)), 1.0, seed=2)
    res = run_cdsk(data, CdskConfig(c=3, seed=2))
    base = run_baseline_spectral(data, 3, seed=2)
    assert base.metrics["accuracy"] == 1.0
    assert res.metrics["accuracy"] == 1.0


def test_solve_alpha_coupled_descends_and_stays_feasible():
    data = _blobs(n_per=15)
    k = gram(data, KernelSpec(2.0))
    lam = 0.3
    n = data.n
    alpha = np.full(n, 1.0 / n)
    graph = disc_similarity(k, alpha, lam)
    y = solve_embedding(graph, 2)
    qp = assemble_alpha_qp(y, k, lam, k.values.sum(axis=1))
    sol = solve_alpha_coupled(y, k, lam, start=alpha)
    assert sol.objective <= qp_objective(qp, alpha) + 1e-12
    assert sol.alpha.min() >= 0.0
    assert abs(sol.alpha.sum() - 1.0) < 1e-9
    # the embedding normalization is preserved by the new weights
    deg = disc_similarity(k, sol.alpha, lam).sum(axis=1)
    feas = y.T @ (deg[:, None] * y)
    assert np.max(np.abs(feas - np.eye(2))) < 1e-8


def test_assemble_alpha_qp_matches_joint_objective():
    rng = np.random.default_rng(0)
    data = SampleMatrix(rng.normal(size=(7, 2)))
    k = gram(data, KernelSpec(1.0))
    y = rng.normal(size=(7, 3))
    lam = 0.6
    qp = assemble_alpha_qp(y, k, lam, k.values.sum(axis=1))
    a, _ = qp
    assert np.array_equal(a, a.T)
    for _ in range(50):
        alpha = rng.uniform(0.05, 1.0, size=7)
        alpha /= alpha.sum()
        direct = joint_objective(y, disc_similarity(k, alpha, lam), k, alpha, lam)
        assert abs(qp_objective(qp, alpha) - direct) < 1e-8 * max(1.0, abs(direct))


def test_assemble_alpha_qp_shape_mismatch():
    rng = np.random.default_rng(1)
    k = gram(SampleMatrix(rng.normal(size=(4, 2))), KernelSpec(1.0))
    with pytest.raises(ValidationError):
        assemble_alpha_qp(np.zeros((5, 2)), k, 1.0, k.values.sum(axis=1))


def test_run_cdsk_calls_its_layers_through_driver_globals(monkeypatch):
    # the benchmark's tracer times each layer by replacing these names in
    # cdsk.driver; a layer called any other way drops out of its report
    names = (
        "gram", "disc_similarity", "solve_embedding", "assemble_alpha_qp",
        "solve_alpha_coupled", "kmeans",
    )
    counts = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(cdsk.driver, name, counting(name, getattr(cdsk.driver, name)))
    run_cdsk(_blobs(n_per=15), CdskConfig(c=2, bandwidth=2.0, max_iter=3))
    assert all(counts.values()), counts


def test_run_cdsk_records_the_joint_objective(monkeypatch):
    # every trace entry is the weight step's q, and equals the dense joint
    # objective at the (Y, alpha) it records
    calls = []

    def spy(y, kernel, lam, start):
        sol = solve_alpha_coupled(y, kernel, lam, start=start)
        calls.append((y, sol))
        return sol

    monkeypatch.setattr(cdsk.driver, "solve_alpha_coupled", spy)
    data = make_two_moons(120, 0.15, seed=2)
    config = CdskConfig(c=2, bandwidth=0.1, max_iter=6)
    trace = run_cdsk(data, config).objective_trace
    assert 2 <= len(trace) <= len(calls)
    k = gram(data, KernelSpec(0.1))
    for value, (y, sol) in zip(trace, calls):
        assert value == sol.objective
        g = disc_similarity(k, sol.alpha, config.lam)
        want = joint_objective(y, g, k, sol.alpha, config.lam)
        assert abs(value - want) <= 1e-10 * abs(want)


def test_solve_alpha_coupled_rejects_far_start():
    data = _blobs(n_per=10)
    k = gram(data, KernelSpec(2.0))
    lam = 0.3
    n = data.n
    alpha = np.full(n, 1.0 / n)
    graph = disc_similarity(k, alpha, lam)
    y = solve_embedding(graph, 2)
    # a wildly rescaled embedding cannot be normalized by any simplex weights
    with pytest.raises(ValidationError):
        solve_alpha_coupled(1e6 * y, k, lam, start=alpha)


def test_solve_alpha_coupled_checks_start_length():
    # the start's length is checked against the gram's size, not taken from it
    data = _blobs(n_per=20)
    k = gram(data, KernelSpec(2.0))
    y = solve_embedding(disc_similarity(k, np.full(40, 1.0 / 40), 0.3), 2)
    with pytest.raises(ValidationError, match="alpha has length 39, expected 40"):
        solve_alpha_coupled(y, k, 0.3, start=np.full(39, 1.0 / 39))


def test_embedding_entropy_values():
    crisp = np.array([[10.0, 0.0], [0.0, 10.0]])
    assert embedding_entropy(crisp) < 0.01
    flat = np.zeros((4, 2))
    assert abs(embedding_entropy(flat) - np.log(2.0)) < 1e-12
    three = np.zeros((3, 3))
    assert abs(embedding_entropy(three) - np.log(3.0)) < 1e-12


def test_tune_lambda_picks_from_grid():
    data = _blobs(n_per=30, seed=2)
    lam, entropies = tune_lambda(data, CdskConfig(c=2), grid=(0.1, 0.3))
    assert lam in (0.1, 0.3)
    assert len(entropies) == 2
    assert all(np.isfinite(e) for e in entropies)


def test_tune_lambda_singleton_grid():
    data = _blobs(n_per=30, seed=3)
    lam, entropies = tune_lambda(data, CdskConfig(c=2), grid=(0.25,))
    assert lam == 0.25
    assert len(entropies) == 1


def test_tune_lambda_deterministic():
    data = _blobs(n_per=30, seed=4)
    cfg = CdskConfig(c=2, seed=11)
    lam1, e1 = tune_lambda(data, cfg, grid=(0.1, 0.2))
    lam2, e2 = tune_lambda(data, cfg, grid=(0.1, 0.2))
    assert lam1 == lam2
    assert e1 == e2


def test_tune_lambda_matches_per_grid_point_runs():
    # reference: a full run_cdsk per grid point, with a seed derived from
    # (seed, grid index), then its alternation rerun on a fresh gram from a
    # fresh K embedding and its last embedding, the one run_cdsk clusters,
    # scored; one shared kernel and no k-means must give the same
    def per_point(data, config, grid):
        size = max(int(np.ceil(0.1 * data.n)), 2 * config.c, 10)
        idx = np.sort(np.random.default_rng(config.seed).choice(data.n, size=size, replace=False))
        subset = SampleMatrix(data.data[idx], data.labels[idx])
        entropies = []
        for i, lam in enumerate(grid):
            seed = int(np.random.SeedSequence((config.seed, i)).generate_state(1)[0])
            result = run_cdsk(subset, replace(config, lam=lam, seed=seed))
            kmat = gram(subset, KernelSpec(result.bandwidth_used))
            y0 = solve_embedding(kmat.values, config.c)
            alpha, y, _, _ = cdsk.driver._alternate(kmat, y0, replace(config, lam=lam))
            assert alpha.tobytes() == result.alpha.tobytes()
            entropies.append(embedding_entropy(y))
        best = min(range(len(grid)), key=lambda i: (entropies[i], grid[i]))
        return grid[best], entropies

    data = make_blobs(100, [[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]], 1.0, seed=3)
    grid = (0.05, 0.3, 1.0, 2.0)
    for config in (CdskConfig(c=3, seed=3), CdskConfig(c=3, bandwidth=1.5, seed=8)):
        lam, entropies = tune_lambda(data, config, grid=grid)
        want_lam, want_entropies = per_point(data, config, grid)
        assert lam == want_lam
        assert entropies == want_entropies


def test_tune_lambda_domain_errors(monkeypatch):
    data = _blobs(n_per=30)
    calls = []
    monkeypatch.setattr(cdsk.driver, "_alternate", lambda *args: calls.append(args))
    # a bad grid value fails before any grid point's alternation runs
    with pytest.raises(ConfigError, match="3.0"):
        tune_lambda(data, CdskConfig(c=2), grid=(0.1, 3.0))
    # grid values pass CdskConfig's lam check as they are, not converted first
    for bad in ("0.1", None):
        with pytest.raises(ConfigError, match="lam"):
            tune_lambda(data, CdskConfig(c=2), grid=(0.1, bad))
    assert calls == []
    monkeypatch.undo()
    with pytest.raises(ConfigError):
        tune_lambda(data, CdskConfig(c=2), grid=())
    tiny = SampleMatrix(np.random.default_rng(0).normal(size=(6, 2)))
    with pytest.raises(ValidationError):
        tune_lambda(tiny, CdskConfig(c=2))
    with pytest.raises(ConfigError):
        tune_lambda(data, CdskConfig(c=1))


def test_alternate_keeps_last_iterate_when_a_graph_degenerates(monkeypatch):
    # _alternate builds a graph only for the weights whose embedding the next
    # weight step takes; when that graph is degenerate it stops at those
    # weights, the embedding they were fit to and the trace through their
    # objective.  After the first weight step that embedding is the uniform
    # start's, y0 rescaled to the uniform weights' degrees
    data = make_two_moons(80, 0.1, seed=0)
    kmat = gram(data, KernelSpec(default_bandwidth(data)))
    config = CdskConfig(c=2, max_iter=6)
    y0 = solve_embedding(kmat.values, config.c)
    n = data.n
    real = cdsk.driver.disc_similarity
    weights = []

    def spy(kmat, alpha, lam):
        weights.append(np.array(alpha, copy=True))
        return real(kmat, alpha, lam)

    monkeypatch.setattr(cdsk.driver, "disc_similarity", spy)
    _, _, full_trace, _ = cdsk.driver._alternate(kmat, y0, config)
    assert len(full_trace) == 6 and len(weights) == 5
    uniform_y = y0 / np.sqrt(2.0 * (2.0 / n - config.lam / n**2))
    for fail_at in range(1, 6):
        calls = []

        def failing(kmat, alpha, lam):
            calls.append(None)
            if len(calls) == fail_at:
                raise DegenerateDataError("drained")
            return real(kmat, alpha, lam)

        monkeypatch.setattr(cdsk.driver, "disc_similarity", failing)
        alpha, y, trace, _ = cdsk.driver._alternate(kmat, y0, config)
        if fail_at == 1:
            want_y = uniform_y
        else:
            want_y = solve_embedding(real(kmat, weights[fail_at - 2], config.lam), config.c)
        assert alpha.tobytes() == weights[fail_at - 1].tobytes()
        assert y.tobytes() == want_y.tobytes()
        assert trace == full_trace[:fail_at]


def test_tune_lambda_scores_the_kept_iterate_when_a_graph_degenerates(monkeypatch):
    # at lam 0.3 the graph after the second weight step is degenerate; the
    # tuner must score the embedding that step was fit to, the first step's
    # weights' graph's, and build no graph of its own
    data = make_two_moons(200, 0.1, seed=0)
    config = CdskConfig(c=2, bandwidth=0.3, max_iter=6)
    real = cdsk.driver.disc_similarity
    at_lam = []

    def failing(kmat, alpha, lam):
        if lam == 0.3:
            at_lam.append((kmat, np.array(alpha, copy=True)))
            if len(at_lam) == 2:
                raise DegenerateDataError("drained")
        return real(kmat, alpha, lam)

    monkeypatch.setattr(cdsk.driver, "disc_similarity", failing)
    _, entropies = tune_lambda(data, config, grid=(0.1, 0.3))
    # the graph after the first weight step, then the degenerate one
    assert len(at_lam) == 2
    kmat, first = at_lam[0]
    assert not np.all(first == first[0])  # a weight step's result, not the start
    want = embedding_entropy(solve_embedding(real(kmat, first, 0.3), config.c))
    assert entropies[1] == want
    monkeypatch.undo()
    assert tune_lambda(data, config, grid=(0.1,))[1] == entropies[:1]


def test_every_graph_built_is_embedded(monkeypatch):
    # a weights' graph is built only for the embedding the next weight step
    # takes: each one goes straight to solve_embedding, whose only other input
    # is K itself, once per call, and the last weight step of each
    # alternation gets no graph, whether it stops by max_iter or by tolerance
    real = {
        name: getattr(cdsk.driver, name)
        for name in ("disc_similarity", "solve_embedding", "solve_alpha_coupled", "_alternate")
    }
    log = []

    def spy(name):
        def wrapper(*args, **kwargs):
            out = real[name](*args, **kwargs)
            log.append((name, args, out))
            return out

        return wrapper

    for name in real:
        monkeypatch.setattr(cdsk.driver, name, spy(name))

    def counted(fn, *args, **kwargs):
        log.clear()
        out = fn(*args, **kwargs)
        count = {name: sum(entry[0] == name for entry in log) for name in real}
        assert count["disc_similarity"] >= 1
        assert count["disc_similarity"] == count["solve_embedding"] - 1
        assert count["disc_similarity"] == count["solve_alpha_coupled"] - count["_alternate"]
        built = [out for name, _, out in log if name == "disc_similarity"]
        embedded = [args[0] for name, args, _ in log if name == "solve_embedding"]
        assert all(g is e for g, e in zip(built, embedded[1:]))
        return out

    data = make_two_moons(200, 0.1, seed=0)
    config = CdskConfig(c=2, bandwidth=0.3)
    assert len(counted(run_cdsk, data, replace(config, max_iter=3)).objective_trace) == 3
    assert 2 <= len(counted(run_cdsk, data, config).objective_trace) < config.max_iter
    for grid in ((0.2,), (0.05, 0.5, 1.0, 2.0)):
        counted(tune_lambda, data, config, grid=grid)


@pytest.mark.parametrize("n", [_DENSE_LIMIT // 2, 3 * _DENSE_LIMIT // 2])
def test_every_embedded_matrix_is_an_exact_finite_mirror(monkeypatch, n):
    # solve_embedding reads the degrees and the Lanczos products from one
    # triangle and checks no symmetry itself, so every K and S the entry
    # points hand it must equal its transpose exactly and be finite; the
    # tuner's subsample is a tenth of its data, so it gets ten times n points
    real, seen = cdsk.driver.solve_embedding, []

    def spy(s, c):
        seen.append((s.shape[0], np.array_equal(s, s.T), bool(np.isfinite(s).all())))
        return real(s, c)

    monkeypatch.setattr(cdsk.driver, "solve_embedding", spy)
    centers = [[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]]
    for make, bandwidth in (
        (lambda size: make_two_moons(size, 0.1, seed=1), 0.1),
        (lambda size: make_blobs(size // 3, centers, 1.0, seed=3), None),
    ):
        data = make(n)
        config = CdskConfig(c=int(data.labels.max()), bandwidth=bandwidth, max_iter=3)
        seen.clear()
        run_cdsk(data, config)
        run_baseline_spectral(data, config.c, bandwidth=bandwidth)
        tune_lambda(make(10 * n), config, grid=(0.1,))
        assert len(seen) >= 5
        assert {size > _DENSE_LIMIT for size, _, _ in seen} == {n > _DENSE_LIMIT}
        assert all(mirror and finite for _, mirror, finite in seen), seen


def test_alternate_returns_the_recorded_iterate(monkeypatch):
    # whichever way the loop stops, its (alpha, Y) is the pair whose joint
    # objective ends the trace: by tolerance, by max_iter, or by a degenerate
    # graph after the first or the third weight step
    data = make_two_moons(200, 0.1, seed=0)
    kmat = gram(data, KernelSpec(0.3))
    y0 = solve_embedding(kmat.values, 2)
    real = cdsk.driver.disc_similarity
    for config, fail_at, steps in (
        (CdskConfig(c=2, bandwidth=0.3), None, None),
        (CdskConfig(c=2, bandwidth=0.3, max_iter=3), None, 3),
        (CdskConfig(c=2, bandwidth=0.3, max_iter=6), 1, 1),
        (CdskConfig(c=2, bandwidth=0.3, max_iter=6), 3, 3),
    ):
        calls = []

        def failing(kmat, alpha, lam):
            calls.append(None)
            if len(calls) == fail_at:
                raise DegenerateDataError("drained")
            return real(kmat, alpha, lam)

        monkeypatch.setattr(cdsk.driver, "disc_similarity", failing)
        alpha, y, trace, _ = cdsk.driver._alternate(kmat, y0, config)
        if steps is None:
            assert 2 <= len(trace) < config.max_iter
        else:
            assert len(trace) == steps
        a, b = assemble_alpha_qp(y, kmat, config.lam, kmat.values.sum(axis=1))
        want = alpha @ a @ alpha + b @ alpha
        assert abs(trace[-1] - want) <= 1e-10 * abs(want)


def test_no_graph_is_built_at_uniform_weights(monkeypatch):
    # at uniform weights S = s0 K, whose embedding is K's own rescaled: no
    # entry point builds that S, and the tuner embeds K itself once per
    # call, whatever the grid's length
    grams, uniform, own = [], [], []
    real_gram = cdsk.driver.gram
    real_graph = cdsk.driver.disc_similarity
    real_embedding = cdsk.driver.solve_embedding

    def gram_spy(*args):
        grams.append(real_gram(*args))
        return grams[-1]

    def graph_spy(kmat, alpha, lam):
        uniform.append(bool(np.all(alpha == alpha[0])))
        return real_graph(kmat, alpha, lam)

    def embedding_spy(s, c):
        own.append(any(s is g.values for g in grams))
        return real_embedding(s, c)

    monkeypatch.setattr(cdsk.driver, "gram", gram_spy)
    monkeypatch.setattr(cdsk.driver, "disc_similarity", graph_spy)
    monkeypatch.setattr(cdsk.driver, "solve_embedding", embedding_spy)
    data = make_two_moons(200, 0.1, seed=0)
    runs = [lambda: run_cdsk(data, CdskConfig(c=2, bandwidth=0.3, max_iter=4))]
    runs += [
        lambda grid=grid: tune_lambda(data, CdskConfig(c=2, bandwidth=0.3), grid=grid)
        for grid in ((0.2,), (0.05, 0.5, 1.0, 2.0))
    ]
    for run in runs:
        for log in (grams, uniform, own):
            log.clear()
        run()
        assert len(grams) == 1
        assert uniform and not any(uniform)
        assert own.count(True) == 1 and own[0]


class _FirstWeightStep(Exception):
    pass


def test_run_cdsk_first_embedding_is_the_uniform_graphs(monkeypatch):
    # the first weight step's Y is K's own embedding divided by sqrt(s0),
    # s0 = 2 (2/n - lam/n^2): the embedding of S = s0 K itself, whether the
    # eigensolve is dense (n = 300, at most _DENSE_LIMIT) or by Lanczos
    # iteration (n = 900, above it)
    def first_step(y, kernel, lam, start):
        raise _FirstWeightStep(y)

    monkeypatch.setattr(cdsk.driver, "solve_alpha_coupled", first_step)
    for data in (make_two_moons(300, 0.1, seed=1), make_two_moons(900, 0.1, seed=2)):
        kmat = gram(data, KernelSpec(0.2))
        uniform = np.full(data.n, 1.0 / data.n)
        for c in (2, 3):
            assert lanczos_applies(data.n, c) == (data.n > _DENSE_LIMIT)
            for lam in (0.1, 1.0, 2.0):
                with pytest.raises(_FirstWeightStep) as caught:
                    run_cdsk(data, CdskConfig(c=c, lam=lam, bandwidth=0.2))
                got = caught.value.args[0]
                want = solve_embedding(disc_similarity(kmat, uniform, lam), c)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (data.n, c, lam)


def test_baseline_spectral_separates_blobs():
    data = _blobs(n_per=40, seed=6)
    res = run_baseline_spectral(data, 2, seed=0)
    assert res.metrics["accuracy"] == 1.0
    assert res.objective_trace == []
    assert np.allclose(res.alpha, 1.0 / data.n)


def test_run_cdsk_n_equals_c_smoke():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [8.0, 8.0], [8.1, 8.0]])
    res = run_cdsk(SampleMatrix(pts), CdskConfig(c=4, max_iter=2))
    assert sorted(res.labels.tolist()) == [1, 2, 3, 4]


def _first_weight_step(data, c, lam, bandwidth):
    """The QP of a run's first iteration: uniform start, uniform-weight embedding."""
    k = gram(data, KernelSpec(bandwidth))
    alpha = np.full(data.n, 1.0 / data.n)
    y = solve_embedding(disc_similarity(k, alpha, lam), c)
    return assemble_alpha_qp(y, k, lam, k.values.sum(axis=1)), y, k, alpha


def _three_blobs_step():
    data = make_blobs(100, [[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]], 1.0, seed=3)
    return _first_weight_step(data, 3, 0.1, default_bandwidth(data))


def test_solve_alpha_coupled_descends_on_three_blobs():
    qp, y, k, alpha = _three_blobs_step()
    sol = solve_alpha_coupled(y, k, 0.1, start=alpha)
    assert sol.objective < qp_objective(qp, alpha) - 1e-6
    assert 1 <= sol.iterations <= 80
    assert sol.alpha.min() >= 0.0
    assert abs(sol.alpha.sum() - 1.0) <= 1e-11
    deg = disc_similarity(k, sol.alpha, 0.1).sum(axis=1)
    assert np.max(np.abs(y.T @ (deg[:, None] * y) - np.eye(3))) <= 1e-11
    again = solve_alpha_coupled(y, k, 0.1, start=alpha)
    assert again.alpha.tobytes() == sol.alpha.tobytes()


class _CountingMatrix(np.ndarray):
    """An n x n matrix that adds the rows of every product it takes part in
    (1 for a matrix-vector product) to counts[name]."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            other = inputs[1] if inputs[0] is self else inputs[0]
            self.counts[self.name] += 1 if np.ndim(other) == 1 else other.shape[0]
        plain = [x.view(np.ndarray) if isinstance(x, _CountingMatrix) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def _counting(values, name, counts):
    out = values.view(_CountingMatrix)
    out.name, out.counts = name, counts
    return out


def test_solve_alpha_coupled_products_per_iteration(monkeypatch):
    # one inner iteration touches K in the c(c+1)/2 rows of the Jacobian and
    # in K a before and after its one Newton step, and the QP matrix A in the
    # curvature A d and in A a at the accepted point; every other product is
    # reused (K a by the residual, degrees and next Jacobian, A a by the value
    # and the next gradient, the iteration's Jacobian by the Newton step).
    # Each is a call of scipy's BLAS (symv for a vector, gemm for rows), which
    # is counted by the matrix it reads; numpy's matmul sees neither matrix
    counts = {"K": 0, "A": 0}
    matmuls = {"K": 0, "A": 0}
    real_qp = cdsk.driver.assemble_alpha_qp
    matrices = {}

    def counting_qp(*args):
        a, b = real_qp(*args)
        matrices["A"] = a
        return _counting(a, "A", matmuls), b

    def owner(m):
        (name,) = [name for name, values in matrices.items() if np.shares_memory(m, values)]
        return name

    def counting(blas, rows):
        def wrapper(alpha, a, b, *args, **kwargs):
            counts[owner(a)] += rows(b)
            return blas(alpha, a, b, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(cdsk.driver, "assemble_alpha_qp", counting_qp)
    monkeypatch.setattr(cdsk.driver, "dsymv", counting(cdsk.driver.dsymv, lambda x: 1))
    monkeypatch.setattr(cdsk.driver, "dgemm", counting(cdsk.driver.dgemm, lambda b: b.shape[1]))
    _, y, k, alpha = _three_blobs_step()
    matrices["K"] = k.values
    kernel = GramMatrix(_counting(k.values, "K", matmuls), k.bandwidth)
    c = y.shape[1]
    used = []
    for max_inner in (0, 80):
        counts.update(K=0, A=0)
        monkeypatch.setattr(cdsk.driver, "_MAX_INNER", max_inner)
        sol = solve_alpha_coupled(y, kernel, 0.1, start=alpha)
        used.append((sol.iterations, counts["K"], counts["A"]))
    (_, k_setup, a_setup), (iterations, k_total, a_total) = used
    assert iterations >= 20
    assert a_total - a_setup == 2 * iterations
    assert k_total - k_setup <= (c * (c + 1) // 2 + 2) * iterations
    assert matmuls == {"K": 0, "A": 0}


def _tuner_steps(monkeypatch, config, grid=DEFAULT_LAMBDA_GRID):
    """(call, solution) of every weight step tune_lambda takes on noisy moons
    n = 1200 (its 120-point subsample), as on `cdsk tune`; call() repeats it,
    and call.args and call.keywords are its arguments."""
    real, steps = cdsk.driver.solve_alpha_coupled, []

    def spy(*args, **kwargs):
        sol = real(*args, **kwargs)
        steps.append((partial(solve_alpha_coupled, *args, **kwargs), sol))
        return sol

    with monkeypatch.context() as patch:
        patch.setattr(cdsk.driver, "solve_alpha_coupled", spy)
        tune_lambda(make_two_moons(1200, 0.15, seed=1), config, grid=grid)
    return steps


def test_tune_lambda_inner_iterations(monkeypatch):
    # most of the tuner's iterations stay inside the face, where conjugate
    # directions replace steepest descent's zig-zag (1022 iterations without)
    steps = _tuner_steps(monkeypatch, CdskConfig(c=2, bandwidth=0.1, seed=2))
    assert len(steps) == 42
    assert all(sol.converged for _, sol in steps)
    assert sum(sol.iterations for _, sol in steps) <= 850


def test_solve_alpha_coupled_one_factor_per_interior_iteration(monkeypatch):
    # the projection, the conjugate carry and the Newton steps on the face
    # share one Cholesky factor of J_S J_S^T per iteration
    steps = _tuner_steps(monkeypatch, CdskConfig(c=2, bandwidth=0.1, seed=2), grid=(0.5,))
    step = steps[1][0]  # a warm-started step whose iterations are all interior
    counts = {"dposv": 0, "dpotrs": 0}

    def counting(name):
        real = getattr(cdsk.driver, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in counts:
        monkeypatch.setattr(cdsk.driver, name, counting(name))
    used = []
    for max_inner in (0, 80):
        counts.update(dposv=0, dpotrs=0)
        monkeypatch.setattr(cdsk.driver, "_MAX_INNER", max_inner)
        used.append((step().iterations, counts["dposv"], counts["dpotrs"]))
    # the start's restoration and the final KKT projection, then one factor
    # per iteration; it solves each iteration's Newton step and, past a
    # restart, its conjugate carry as well
    (_, setup, setup_reuse), (iterations, total, reuse) = used
    assert iterations >= 15
    assert total - setup == iterations
    assert reuse - setup_reuse > iterations


def test_solve_alpha_coupled_leaves_its_inputs_and_repeats(monkeypatch):
    # the step works in buffers of its own: it writes none of its inputs, and
    # a second call on a tuner step returns the first one's bytes
    steps = _tuner_steps(monkeypatch, CdskConfig(c=2, bandwidth=0.1, seed=2), grid=(0.5,))
    for call, sol in steps[:2]:  # the uniform start, then a warm start
        y, kernel, _ = call.args
        inputs = (y, kernel.values, call.keywords["start"])
        assert y.shape == (120, 2) and sol.iterations > 0
        before = [x.tobytes() for x in inputs]
        again = call()
        assert [x.tobytes() for x in inputs] == before
        for field in fields(sol):
            first, second = getattr(sol, field.name), getattr(again, field.name)
            assert np.asarray(first).tobytes() == np.asarray(second).tobytes(), field.name


def test_solve_alpha_coupled_respects_max_inner(monkeypatch):
    qp, y, k, alpha = _three_blobs_step()
    for max_inner in (0, 1, 5):
        monkeypatch.setattr(cdsk.driver, "_MAX_INNER", max_inner)
        sol = solve_alpha_coupled(y, k, 0.1, start=alpha)
        assert sol.iterations <= max_inner
        assert sol.objective <= qp_objective(qp, alpha)


def _jacobian_and_gradient(qp, y, k, lam, alpha):
    """The weight step's constraint Jacobian (the simplex row, then one row per
    entry of Y^T D(alpha) Y on or above the diagonal) and grad q, by definition."""
    kv = k.values
    c = y.shape[1]
    w = np.array([y[:, p] * y[:, q] for p in range(c) for q in range(p, c)])
    ka = kv @ alpha
    rows = 2.0 * (w * kv.sum(axis=1) + w @ kv) - 2.0 * lam * (w * ka + (w * alpha) @ kv)
    a, b = qp
    return np.vstack([np.ones(alpha.size), rows]), 2.0 * (a @ alpha) + b


def _lstsq_projection(grad, jac, keep):
    return grad - jac.T @ np.linalg.lstsq(jac[:, keep].T, grad[keep], rcond=None)[0]


def test_projection_matches_least_squares(monkeypatch):
    # the Cholesky projection against numpy's least squares on the kept
    # columns, at the weights a step returns: on the free set, on the free
    # set plus zero weights, and on fewer columns than constraints, where the
    # Gram is singular and the projection must fall back to least squares
    real, calls = np.linalg.lstsq, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    moons = _first_weight_step(make_two_moons(400, 0.05, seed=1), 2, 0.1, 0.1)
    for qp, y, k, alpha in (_three_blobs_step(), moons):
        at = solve_alpha_coupled(y, k, 0.1, start=alpha).alpha
        jac, grad = _jacobian_and_gradient(qp, y, k, 0.1, at)
        free = at > 1e-14
        more = free.copy()
        more[np.flatnonzero(~free)[:5]] = True
        few = np.zeros(at.size, dtype=bool)
        few[np.flatnonzero(free)[: jac.shape[0] - 1]] = True
        assert more.sum() == free.sum() + 5
        for keep, singular in ((free, False), (more, False), (few, True)):
            want = _lstsq_projection(grad, jac, keep)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "lstsq", counting)
                got = cdsk.driver._Face(jac, keep, grad).zeta
            assert bool(calls) == singular
            assert np.abs(got - want).max() <= 1e-9 * np.abs(grad).max()


def test_solve_alpha_coupled_converged_means_kkt_within_tolerance(monkeypatch):
    # qp_converged, and exit code 2 with it, rest on kkt_residual: it must be
    # what a least-squares projection measures at the returned weights, to
    # 1e-8 relative above a rounding floor of 1e-11 (a millionth of the 1e-5
    # threshold) that only residuals far below the tolerance reach
    seen = set()
    for i in range(10):
        data, c, lam, bw = _descent_dataset(i)
        qp, y, k, alpha = _first_weight_step(data, c, lam, bw or default_bandwidth(data))
        for tol in (1e-6, 1e-3):
            monkeypatch.setattr(cdsk.driver, "_QP_TOL", tol)
            sol = solve_alpha_coupled(y, k, lam, start=alpha)
            jac, grad = _jacobian_and_gradient(qp, y, k, lam, sol.alpha)
            free = sol.alpha > 1e-14
            zeta = _lstsq_projection(grad, jac, free)
            pull = max(0.0, -zeta[~free].min(initial=0.0))
            want = max(np.abs(zeta[free]).max(), pull) / (1.0 + np.abs(grad).max())
            assert abs(sol.kkt_residual - want) <= 1e-8 * want + 1e-11, (i, tol)
            # the reported bound is fixed, whatever tolerance the step ran to
            bound = cdsk.driver._QP_CONVERGED_TOL
            assert sol.converged == (sol.kkt_residual <= bound), (i, tol)
            assert sol.converged == (want <= bound), (i, tol)
            seen.add(sol.converged)
    assert seen == {True, False}
