import numpy as np
import pytest

from cdsk.data_io import SampleMatrix
from cdsk.errors import ValidationError
from cdsk.kernel import KernelSpec, gram
from cdsk.driver import SimplexQP, assemble_alpha_qp, qp_objective
from cdsk.similarity import disc_similarity
from test_similarity import joint_objective


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
