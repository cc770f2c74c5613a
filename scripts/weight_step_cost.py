"""Cost of the weight step (driver.solve_alpha_coupled) per inner iteration.

    OPENBLAS_NUM_THREADS=1 python scripts/weight_step_cost.py [--repeats 5]

Records every weight step that `cdsk tune` takes on noisy moons n = 1200
(its 120-point validation subsample; bandwidth 0.1, seed 2) and that
`run_cdsk` takes on the three instances of the benchmark's `weighted-fit`
workload (moons n = 400, noisy moons n = 200, 3-class blobs n = 300, before
that workload's seeded rotation), then replays each group's steps.  Per
group it prints the weight-step calls, their inner iterations and the
microseconds per inner iteration, split into the n x n products (every
scipy BLAS dsymv or dgemm call, each of which reads the gram matrix K or
the QP matrix A) and the rest.

An iteration's cost is the replay time with the step's usual cap on inner
iterations less the replay time with the cap at 0 (the QP assembly, the
start's restoration and the final KKT scan), over the inner iterations; the
per-call part is printed as setup_us.  The products are timed around each
BLAS call alone, in separate runs.  Each figure sums every step's best of
--repeats runs.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cdsk.driver as driver  # noqa: E402
from cdsk.data_io import make_blobs, make_two_moons  # noqa: E402

# the weight step's n x n products: each call reads K or A
_PRODUCTS = ("dsymv", "dgemm")


def _timed(blas, spent):
    """blas, adding the seconds of each call to the list `spent`."""

    def call(*args, **kwargs):
        start = time.perf_counter()
        out = blas(*args, **kwargs)
        spent.append(time.perf_counter() - start)
        return out

    return call


def _record(run):
    """The (args, kwargs) of every weight step that run() takes."""
    real, steps = driver.solve_alpha_coupled, []

    def spy(*args, **kwargs):
        steps.append((args, kwargs))
        return real(*args, **kwargs)

    driver.solve_alpha_coupled = spy
    try:
        run()
    finally:
        driver.solve_alpha_coupled = real
    return steps


def _groups():
    tune_data = make_two_moons(1200, 0.15, seed=1)
    yield "tune n=120", _record(
        lambda: driver.tune_lambda(tune_data, driver.CdskConfig(c=2, bandwidth=0.1, seed=2))
    )
    centers = [[0.0, 0.0], [4.0, 0.0], [2.0, 3.5]]
    for name, data, bandwidth in (
        ("moons-400", make_two_moons(400, 0.05, seed=1), 0.1),
        ("moons-200-noisy", make_two_moons(200, 0.15, seed=2), 0.1),
        ("blobs-300", make_blobs(100, centers, 1.0, seed=3), None),
    ):
        config = driver.CdskConfig(c=int(data.labels.max()), bandwidth=bandwidth, seed=2)
        yield name, _record(lambda: driver.run_cdsk(data, config))


def _best(steps, repeats):
    """Summed over the steps, each step's best of `repeats` runs of: wall
    seconds at the usual cap on inner iterations, wall seconds at cap 0,
    product seconds at each cap; and the inner iterations.  A step's four
    runs alternate, so a burst of load on a shared host reaches them alike."""
    cap, spent = driver._MAX_INNER, []
    real = {name: getattr(driver, name) for name in _PRODUCTS}
    timed_blas = {name: _timed(blas, spent) for name, blas in real.items()}

    def run(step, max_inner, timed):
        args, kwargs = step
        driver._MAX_INNER = max_inner
        for name, blas in (timed_blas if timed else real).items():
            setattr(driver, name, blas)
        spent.clear()
        start = time.perf_counter()
        sol = driver.solve_alpha_coupled(*args, **kwargs)
        return (sum(spent) if timed else time.perf_counter() - start), sol.iterations

    totals, iterations = np.zeros(4), 0
    try:
        for step in steps:
            best = np.full(4, np.inf)
            for _ in range(repeats):
                runs = [run(step, c, timed) for timed in (False, True) for c in (cap, 0)]
                best = np.minimum(best, [seconds for seconds, _ in runs])
            totals += best
            iterations += runs[0][1]
    finally:
        driver._MAX_INNER = cap
        for name, blas in real.items():
            setattr(driver, name, blas)
    return totals, iterations


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5, help="runs per step and figure; the best counts")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    print(f"{'group':<16} {'calls':>5} {'inner_iters':>11} {'us_per_iter':>11} "
          f"{'products_us':>11} {'rest_us':>8} {'setup_us':>9}")
    for name, steps in _groups():
        (wall, setup_wall, products, setup_products), iterations = _best(steps, args.repeats)
        per_iter = (wall - setup_wall) / iterations * 1e6
        in_products = (products - setup_products) / iterations * 1e6
        print(f"{name:<16} {len(steps):>5} {iterations:>11} {per_iter:>11.1f} "
              f"{in_products:>11.1f} {per_iter - in_products:>8.1f} "
              f"{setup_wall / len(steps) * 1e6:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
