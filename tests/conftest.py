import pytest

import cdsk.spectral
from cdsk.data_io import make_two_moons
from cdsk.driver import CdskConfig, run_cdsk
from cdsk.errors import NumericError
from cdsk.kernel import KernelSpec, gram


@pytest.fixture
def lanczos_calls(monkeypatch):
    """Record the block Lanczos solves the eigensolves make, by the number
    of pairs (the block size) each asks for."""
    calls = []
    real = cdsk.spectral._block_lanczos

    def recording(apply, start):
        calls.append(start.shape[0])
        return real(apply, start)

    monkeypatch.setattr(cdsk.spectral, "_block_lanczos", recording)
    return calls


@pytest.fixture
def failing_lanczos(monkeypatch):
    """Make every block Lanczos solve fail as non-convergence does; the
    list records the calls."""
    calls = []

    def failing(apply, start):
        calls.append(None)
        raise NumericError("Lanczos iteration did not converge")

    monkeypatch.setattr(cdsk.spectral, "_block_lanczos", failing)
    return calls


@pytest.fixture(scope="session")
def weighted_moons():
    """Noisy two moons (n = 900, bandwidth 0.1): the gram matrix and the
    weights two rounds of run_cdsk leave, 154 of them zero."""
    data = make_two_moons(900, 0.15, seed=1)
    alpha = run_cdsk(data, CdskConfig(c=2, bandwidth=0.1, max_iter=2)).alpha
    return gram(data, KernelSpec(0.1)), alpha
