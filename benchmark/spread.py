"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmark/spread.py --workload weighted-fit --seeds 1-10

Runs the benchmark once per seed and prints, for each end-to-end metric, the
median and the interquartile range as a share of the median, next to the
metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    lo, hi = (int(v) for v in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    for seed in range(lo, hi + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: rc {done.returncode} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{metric['name']:<12} median {med:.6g}  spread {(q3 - q1) / med:.4f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
