"""Peak traced memory of whole runs, in units of one n x n float64 array.

Above the dense eigensolver limit the baseline keeps K alone: it embeds
straight from K and builds no graph.  There run_cdsk holds K plus either its
graph's similarity S or the weight step's QP matrix, never both, because the
alternation frees each graph before the weight step.  At or below the limit
the dense solve adds N, built next to S in a buffer that the solve itself
overwrites.  Every n x n quantity is built in place, a block of rows at a
time.  The classifier's score table needs no n x n array at all.  These
bounds keep it that way.
"""

import tracemalloc

import numpy as np
import pytest

# the library imports these on first use; imported here, their module objects
# stay out of the traced peaks
import scipy.optimize  # noqa: F401
import scipy.spatial.distance  # noqa: F401

from cdsk.bounds import empirical_loss
from cdsk.data_io import make_two_moons
from cdsk.driver import CdskConfig, run_baseline_spectral, run_cdsk
from cdsk.kernel import KernelSpec


def _peak_arrays(run, n: int) -> float:
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n)


def test_baseline_spectral_peak_memory():
    # K plus row-block temporaries (1.15 measured); a graph next to K reads 2.15
    n = 1000
    data = make_two_moons(n, 0.1, seed=0)
    peak = _peak_arrays(lambda: run_baseline_spectral(data, 2), n)
    assert peak <= 1.3, peak


def test_run_cdsk_peak_memory():
    # K plus either the QP matrix or the graph's S, never both (2.18
    # measured); holding the old graph through the weight step reads 3.17
    n = 900
    data = make_two_moons(n, 0.05, seed=0)
    result = []
    peak = _peak_arrays(lambda: result.append(run_cdsk(data, CdskConfig(c=2))), n)
    assert len(result[0].objective_trace) >= 2  # the weight step ran
    assert peak <= 2.5, peak


@pytest.mark.parametrize("baseline", [False, True])
def test_dense_embedding_peak_memory(baseline):
    # at the dense limit: K, S and N, which the subset solve overwrites
    # instead of copying (3.19 measured for either run); a copy of N reads 4.06
    n = 800
    data = make_two_moons(n, 0.05, seed=0)
    if baseline:
        peak = _peak_arrays(lambda: run_baseline_spectral(data, 2), n)
    else:
        peak = _peak_arrays(lambda: run_cdsk(data, CdskConfig(c=2, max_iter=2)), n)
    assert peak <= 3.3, peak


def test_empirical_loss_peak_memory():
    # the score table a block of 128 query rows at a time: about three
    # 128 x n temporaries (0.196 measured); a gram alone reads 1.0
    n = 2000
    data = make_two_moons(n, 0.1, seed=0)
    peak = _peak_arrays(lambda: empirical_loss(data, np.full(n, 1.0 / n), KernelSpec(0.1), 1.0), n)
    assert peak <= 0.25, peak
