import itertools

import numpy as np
import pytest

from cdsk.data_io import SampleMatrix
from cdsk.errors import ValidationError
from cdsk.kernel import KernelSpec, gram
from cdsk.simplex_qp import (
    SimplexQP,
    assemble_alpha_qp,
    qp_objective,
    solve_smo,
)
from cdsk.similarity import disc_similarity
from test_similarity import joint_objective


def _grid_minimum_loop(qp, step=0.01):
    """Brute-force minimum of the QP over a simplex lattice, one point at a time."""
    n = qp.n
    ticks = int(round(1.0 / step))
    best = np.inf
    for combo in itertools.combinations_with_replacement(range(n), ticks):
        alpha = np.bincount(combo, minlength=n) * step
        best = min(best, qp_objective(qp, alpha))
    return best


def _grid_minimum(qp, step=0.01):
    """_grid_minimum_loop's lattice, evaluated as one array."""
    ticks = int(round(1.0 / step))
    head = np.indices((ticks + 1,) * (qp.n - 1)).reshape(qp.n - 1, -1).T
    head = head[head.sum(axis=1) <= ticks]
    alpha = np.column_stack([head, ticks - head.sum(axis=1)]) * step
    values = np.einsum("ij,jk,ik->i", alpha, qp.a, alpha) + alpha @ qp.b
    return float(values.min())


def test_simplex_qp_validation():
    with pytest.raises(ValidationError):
        SimplexQP(a=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.zeros(2))
    with pytest.raises(ValidationError):
        SimplexQP(a=np.eye(2), b=np.zeros(3))
    with pytest.raises(ValidationError):
        SimplexQP(a=np.eye(2) * np.nan, b=np.zeros(2))


def test_qp_objective_direct():
    qp = SimplexQP(a=np.array([[2.0, 0.5], [0.5, 1.0]]), b=np.array([1.0, -1.0]))
    a = np.array([0.25, 0.75])
    want = a @ qp.a @ a + qp.b @ a
    assert abs(qp_objective(qp, a) - want) < 1e-14


def test_assemble_alpha_qp_matches_joint_objective():
    rng = np.random.default_rng(0)
    data = SampleMatrix(rng.normal(size=(7, 2)))
    k = gram(data, KernelSpec(1.0))
    y = rng.normal(size=(7, 3))
    lam = 0.6
    qp = assemble_alpha_qp(y, k, lam, k.values.sum(axis=1))
    assert np.array_equal(qp.a, qp.a.T)
    for _ in range(50):
        a = rng.uniform(0.05, 1.0, size=7)
        a /= a.sum()
        direct = joint_objective(y, disc_similarity(k, a, lam), k, a, lam)
        assert abs(qp_objective(qp, a) - direct) < 1e-8 * max(1.0, abs(direct))


def test_assemble_alpha_qp_shape_mismatch():
    rng = np.random.default_rng(1)
    k = gram(SampleMatrix(rng.normal(size=(4, 2))), KernelSpec(1.0))
    with pytest.raises(ValidationError):
        assemble_alpha_qp(np.zeros((5, 2)), k, 1.0, k.values.sum(axis=1))


def test_solve_smo_identity_quadratic():
    qp = SimplexQP(a=np.eye(3), b=np.zeros(3))
    sol = solve_smo(qp, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(sol.alpha, 1.0 / 3.0, atol=1e-6)
    assert abs(sol.objective - 1.0 / 3.0) < 1e-9
    assert sol.converged


def test_solve_smo_weighted_diagonal():
    qp = SimplexQP(a=np.diag([1.0, 100.0]), b=np.zeros(2))
    sol = solve_smo(qp, np.array([0.5, 0.5]))
    assert np.allclose(sol.alpha, [100.0 / 101.0, 1.0 / 101.0], atol=1e-6)


def test_solve_smo_pure_linear():
    qp = SimplexQP(a=np.zeros((3, 3)), b=np.array([0.0, 1.0, 1.0]))
    sol = solve_smo(qp, np.full(3, 1.0 / 3.0))
    assert np.allclose(sol.alpha, [1.0, 0.0, 0.0], atol=1e-9)
    assert abs(sol.objective) < 1e-12


def test_solve_smo_monotone_trace_and_feasible():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = rng.normal(size=(5, 5))
        qp = SimplexQP(a=0.5 * (m + m.T), b=rng.normal(size=5))
        start = rng.uniform(0.1, 1.0, size=5)
        start /= start.sum()
        sol = solve_smo(qp, start)
        trace = np.asarray(sol.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))
        assert sol.alpha.min() >= -1e-12
        assert abs(sol.alpha.sum() - 1.0) < 1e-9


def test_solve_smo_grid_oracle_indefinite():
    # the vectorized oracle against the point-by-point loop on a small lattice
    small_rng = np.random.default_rng(30)
    m = small_rng.normal(size=(3, 3))
    small = SimplexQP(a=0.5 * (m + m.T), b=small_rng.normal(size=3))
    assert np.isclose(_grid_minimum(small), _grid_minimum_loop(small), rtol=1e-12, atol=1e-12)
    rng = np.random.default_rng(3)
    for trial in range(10):
        m = rng.normal(size=(4, 4))
        qp = SimplexQP(a=0.5 * (m + m.T), b=rng.normal(size=4))
        sol = solve_smo(qp, np.full(4, 0.25))
        assert sol.objective <= _grid_minimum(qp) + 1e-3


def test_solve_smo_kkt_residual_convex():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = rng.normal(size=(5, 3))
        qp = SimplexQP(a=m @ m.T + 0.1 * np.eye(5), b=rng.normal(size=5))
        sol = solve_smo(qp, np.full(5, 0.2), tol=1e-8)
        assert sol.kkt_residual <= 1e-6
        assert sol.converged


def test_solve_smo_rejects_bad_start():
    qp = SimplexQP(a=np.eye(2), b=np.zeros(2))
    with pytest.raises(ValidationError):
        solve_smo(qp, np.array([0.7, 0.7]))
    with pytest.raises(ValidationError):
        solve_smo(qp, np.full(2, 0.5), max_passes=0)


def test_solve_smo_single_coordinate():
    qp = SimplexQP(a=np.array([[3.0]]), b=np.array([-1.0]))
    sol = solve_smo(qp, np.array([1.0]))
    assert sol.alpha[0] == 1.0
    assert sol.converged

