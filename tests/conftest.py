import pytest
import scipy.sparse.linalg


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
