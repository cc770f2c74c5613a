"""Clustering benchmark on the UCI Ionosphere set (351 x 34, two classes).

The data file is not redistributed.  Download ionosphere.data from the UCI
repository, save it as data/ionosphere.csv (raw format is fine: 34 numeric
columns plus a final g/b class tag), then run this script.  Each seed tunes
lambda on a subsample and clusters the full set; the uniform spectral
baseline runs on the same seeds for comparison.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cdsk.data_io import SampleMatrix
from cdsk.driver import CdskConfig, run_baseline_spectral, run_cdsk, tune_lambda
from cdsk.errors import CdskError


def load_ionosphere(path):
    rows = []
    labels = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        rows.append([float(v) for v in cells[:-1]])
        tag = cells[-1].strip().lower()
        labels.append(1 if tag in ("g", "1") else 2)
    if not rows:
        raise ValueError("no data rows")
    return SampleMatrix(np.asarray(rows), np.asarray(labels))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--data",
        default=str(Path(__file__).resolve().parent.parent / "data" / "ionosphere.csv"),
    )
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--bandwidth", type=float, default=None, help="None = heuristic")
    args = ap.parse_args(argv)

    path = Path(args.data)
    if not path.exists():
        print(f"error: {path} not found; download the UCI file first", file=sys.stderr)
        return 1
    try:
        data = load_ionosphere(path)
    except (CdskError, OSError, ValueError) as exc:
        # ValueError: a non-numeric cell, rows of unequal length, or no rows
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 1
    print(f"loaded {data.n} samples, {data.data.shape[1]} features")

    accs, nmis, base_accs = [], [], []
    for seed in range(args.seeds):
        t0 = time.time()
        b = run_baseline_spectral(data, 2, seed=seed, bandwidth=args.bandwidth)
        base_accs.append(b.metrics["accuracy"])
        cfg = CdskConfig(c=2, bandwidth=args.bandwidth, seed=seed)
        lam, _ = tune_lambda(data, cfg)
        res = run_cdsk(data, replace(cfg, lam=lam))
        accs.append(res.metrics["accuracy"])
        nmis.append(res.metrics["nmi"])
        print(
            f"seed {seed:2d}  lambda={lam:.2f}  ac={accs[-1]:.3f}  "
            f"nmi={nmis[-1]:.3f}  baseline={base_accs[-1]:.3f}  "
            f"{time.time() - t0:5.1f}s"
        )
    print(
        f"mean over {args.seeds} seeds: ac={np.mean(accs):.3f} +- {np.std(accs):.3f}  "
        f"nmi={np.mean(nmis):.3f} +- {np.std(nmis):.3f}  "
        f"baseline ac={np.mean(base_accs):.3f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
