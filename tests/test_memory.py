"""Peak traced memory of whole runs, in units of one n x n float64 array.

The graph holds K and the normalized Laplacian; the similarity and the
Laplacian are rebuilt on access, every n x n quantity is built in place, and
the alternation frees each graph before the weight step.  These bounds keep
it that way.
"""

import tracemalloc

from cdsk.data_io import make_two_moons
from cdsk.driver import CdskConfig, run_baseline_spectral, run_cdsk


def _peak_arrays(run, n: int) -> float:
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (8.0 * n * n)


def test_baseline_spectral_peak_memory():
    # gram, then the graph's one buffer next to K, plus row-block temporaries
    n = 1000
    data = make_two_moons(n, 0.1, seed=0)
    peak = _peak_arrays(lambda: run_baseline_spectral(data, 2), n)
    assert peak <= 2.3, peak


def test_run_cdsk_peak_memory():
    # K plus either the QP matrix or the graph's buffer, never both (2.18
    # measured); holding the old graph through the weight step reads 3.17
    n = 900
    data = make_two_moons(n, 0.05, seed=0)
    result = []
    peak = _peak_arrays(lambda: result.append(run_cdsk(data, CdskConfig(c=2))), n)
    assert len(result[0].objective_trace) >= 2  # the weight step ran
    assert peak <= 2.5, peak
