import pytest
import scipy.sparse.linalg

from cdsk.data_io import make_two_moons
from cdsk.driver import CdskConfig, run_cdsk
from cdsk.kernel import KernelSpec, gram


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Count the ARPACK calls the eigensolves make, by the k each asks for."""
    calls = []
    real = scipy.sparse.linalg.eigsh

    def counting(*args, **kwargs):
        calls.append(kwargs.get("k"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting)
    return calls


@pytest.fixture(scope="session")
def weighted_moons():
    """Noisy two moons (n = 900, bandwidth 0.1): the gram matrix and the
    weights two rounds of run_cdsk leave, 153 of them zero."""
    data = make_two_moons(900, 0.15, seed=1)
    alpha = run_cdsk(data, CdskConfig(c=2, bandwidth=0.1, max_iter=2)).alpha
    return gram(data, KernelSpec(0.1)), alpha
