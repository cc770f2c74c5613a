"""Peak traced memory of whole runs, in units of one n x n float64 array.

The baseline embeds K itself and builds no similarity S: above
the dense eigensolver limit (n = 400) it keeps K alone, beside the Lanczos
basis of one n-vector per product, and at or below it, or when the Lanczos
iteration fails, K plus N.  Above the limit run_cdsk holds K plus either its
graph's similarity S or the weight step's QP matrix, never both, because
each graph lives only through its embedding; at or below it the dense solve
adds N next to S.  N is built in a buffer that the solve itself
overwrites.  Every n x n quantity is built in place, a block of rows at a
time.  The classifier's score table needs no n x n array at all, and the
bound and ISE reports read their class-blocked sums from n x c products.
These bounds keep it that way.
"""

import tracemalloc

import numpy as np
import pytest

# the library imports these on first use; imported here, their module objects
# stay out of the traced peaks
import scipy.optimize  # noqa: F401

from cdsk.bounds import empirical_loss
from cdsk.cli import main
from cdsk.data_io import make_blobs, make_two_moons, write_csv
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


def test_heuristic_baseline_peak_memory():
    # the heuristic bandwidth is read from the squared distances that then
    # become K, so it adds row-block temporaries only (1.18 measured); a
    # distance array kept next to K would read about 2.2
    n = 1000
    centers = np.random.default_rng(6).normal(scale=4.0, size=(4, 34))
    data = make_blobs(n // 4, centers, 1.0, seed=6)
    peak = _peak_arrays(lambda: run_baseline_spectral(data, 4), n)
    assert peak <= 1.3, peak


def test_run_cdsk_peak_memory():
    # K plus either the QP matrix or the graph's S, never both (2.18
    # measured), as each graph lives only through its embedding; holding a
    # graph through the weight step reads 3.17
    n = 900
    data = make_two_moons(n, 0.05, seed=0)
    result = []
    peak = _peak_arrays(lambda: result.append(run_cdsk(data, CdskConfig(c=2))), n)
    assert len(result[0].objective_trace) >= 2  # the weight step ran
    assert peak <= 2.5, peak


@pytest.mark.parametrize("baseline", [False, True])
def test_dense_embedding_peak_memory(baseline):
    # at the dense limit: K, S and N for run_cdsk (3.20 measured), K and N for
    # the baseline (2.19; 3.19 with S); the subset solve overwrites N instead
    # of copying it, and a copy of N would read one more
    n = 400
    data = make_two_moons(n, 0.05, seed=0)
    if baseline:
        peak = _peak_arrays(lambda: run_baseline_spectral(data, 2), n)
        assert peak <= 2.3, peak
    else:
        peak = _peak_arrays(lambda: run_cdsk(data, CdskConfig(c=2, max_iter=2)), n)
        assert peak <= 3.3, peak


def test_baseline_arpack_failure_peak_memory(failing_lanczos):
    # the dense fallback above the limit: K and N (2.05 measured); 3.05 with S
    n = 1000
    data = make_two_moons(n, 0.1, seed=0)
    peak = _peak_arrays(lambda: run_baseline_spectral(data, 2), n)
    assert failing_lanczos
    assert peak <= 2.3, peak


def test_empirical_loss_peak_memory():
    # the score table a block of 128 query rows at a time: about three
    # 128 x n temporaries (0.196 measured); a gram alone reads 1.0
    n = 2000
    data = make_two_moons(n, 0.1, seed=0)
    peak = _peak_arrays(lambda: empirical_loss(data, np.full(n, 1.0 / n), KernelSpec(0.1), 1.0), n)
    assert peak <= 0.25, peak


@pytest.mark.parametrize(
    ("verb", "bound"),
    # bounds: K plus the score table's blocks (1.20 measured); the PSD split
    # of K read 5.13.  ise: Kt is freed before Kh, whose buffer becomes s_ise
    # (1.14 measured); building Kt again next to s_ise read 2.07, and the
    # pair-sum, pair-product and mask arrays 6.13
    [("bounds", 1.5), ("ise", 1.5)],
)
def test_report_peak_memory(verb, bound, tmp_path, capsys):
    n = 2000
    path = tmp_path / "moons.csv"
    write_csv(make_two_moons(n, 0.05, seed=1), path)
    argv = [verb, "--input", str(path), "--labels", "2", "--bandwidth", "0.2"]
    codes = []
    peak = _peak_arrays(lambda: codes.append(main(argv)), n)
    capsys.readouterr()
    assert codes == [0]
    assert peak <= bound, peak
