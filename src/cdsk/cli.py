"""Command line front end.

Verbs: cluster, tune, baseline, decompose, bounds, ise, synth.  Reports are
line-oriented ``key: value`` pairs on stdout (deterministic for fixed argv and
input files); structured results go to JSON via --output.  cluster, tune and
baseline print nothing until their runs succeed.  Exit codes: 0 ok, 1 expected
failure, 2 (cluster only) finished but a weight step missed its tolerance, 64
usage.  tune does not report whether its weight steps converged and exits 0.
"""

from __future__ import annotations

import argparse
import sys
from typing import NoReturn

import numpy as np

from .bounds import (
    BoundInputs,
    class_row_sums,
    empirical_loss,
    empirical_loss_upper_bound,
    generalization_bound,
    rademacher_bound,
)
from .data_io import load_csv, make_blobs, make_two_moons, write_csv, write_result
from .driver import (
    DEFAULT_LAMBDA_GRID,
    CdskConfig,
    run_baseline_spectral,
    run_cdsk,
    tune_lambda,
)
from .errors import CdskError
from .kdc import KdeModel, empirical_ise_terms, gaussian_convolution_check, ise_residual_slack
from .kernel import KernelSpec, default_bandwidth, gram
from .spectral import psd_split


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract wants 64
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _fmt(v: float) -> str:
    return repr(float(v))


def _emit(key: str, value) -> None:
    print(f"{key}: {value}")


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(64)


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error naming the flag."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _add_input_flags(p: argparse.ArgumentParser, labels_help: str) -> None:
    p.add_argument("--input", required=True, help="CSV file, one sample per row")
    p.add_argument("--labels", type=_int_at_least(0), metavar="COL", help=labels_help)
    p.add_argument("--header", action="store_true", help="skip the first line")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--clusters", type=_int_at_least(2), required=True)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--max-iter", type=_int_at_least(1), default=20)
    p.add_argument("--seed", type=_int_at_least(0), default=0)


def _load(args):
    return load_csv(args.input, label_column=args.labels, header=args.header)


def _print_metrics(metrics: dict | None) -> None:
    if metrics is not None:
        _emit("accuracy", f"{metrics['accuracy']:.3f}")
        _emit("nmi", f"{metrics['nmi']:.3f}")


def cmd_cluster(args) -> int:
    data = _load(args)
    cfg = CdskConfig(
        c=args.clusters, lam=args.lam, bandwidth=args.bandwidth, max_iter=args.max_iter,
        seed=args.seed,
    )
    result = run_cdsk(data, cfg)
    if args.output is not None:
        write_result(result, args.output)
    _emit("command", "cluster")
    _emit("input", args.input)
    _emit("n", data.n)
    _emit("d", data.d)
    _emit("clusters", args.clusters)
    _emit("lambda", _fmt(args.lam))
    _emit("bandwidth", "auto" if args.bandwidth is None else _fmt(args.bandwidth))
    _emit("max_iter", args.max_iter)
    _emit("seed", args.seed)
    _emit("bandwidth_used", _fmt(result.bandwidth_used))
    _emit("lambda_used", _fmt(result.lambda_used))
    _emit("iterations", len(result.objective_trace))
    _emit("objective_final", _fmt(result.objective_trace[-1]))
    _emit("qp_converged", "true" if result.qp_converged else "false")
    _print_metrics(result.metrics)
    if args.output is not None:
        _emit("output", args.output)
    return 0 if result.qp_converged else 2


def cmd_tune(args) -> int:
    data = _load(args)
    grid = DEFAULT_LAMBDA_GRID if args.grid is None else tuple(args.grid)
    cfg = CdskConfig(
        c=args.clusters, bandwidth=args.bandwidth, max_iter=args.max_iter, seed=args.seed
    )
    chosen, entropies = tune_lambda(data, cfg, grid=grid)
    _emit("command", "tune")
    _emit("input", args.input)
    _emit("lambda_grid", " ".join(_fmt(v) for v in grid))
    for lam, ent in zip(grid, entropies):
        _emit(f"entropy {_fmt(lam)}", _fmt(ent))
    _emit("chosen_lambda", _fmt(chosen))
    return 0


def cmd_baseline(args) -> int:
    data = _load(args)
    result = run_baseline_spectral(data, args.clusters, seed=args.seed, bandwidth=args.bandwidth)
    if args.output is not None:
        write_result(result, args.output)
    _emit("command", "baseline")
    _emit("input", args.input)
    _emit("n", data.n)
    _emit("clusters", args.clusters)
    _emit("bandwidth_used", _fmt(result.bandwidth_used))
    _print_metrics(result.metrics)
    if args.output is not None:
        _emit("output", args.output)
    return 0


def cmd_decompose(args) -> int:
    data = load_csv(args.input, header=args.header)
    s = data.data
    if s.shape[0] != s.shape[1]:
        raise CdskError(f"similarity matrix must be square, got {s.shape}")
    split = psd_split(s)
    recon = split.s_plus - split.s_minus
    _emit("command", "decompose")
    _emit("n", s.shape[0])
    _emit("reconstruction_error", _fmt(np.linalg.norm(s - recon)))
    _emit("s_plus_frobenius", _fmt(np.linalg.norm(split.s_plus)))
    _emit("s_minus_frobenius", _fmt(np.linalg.norm(split.s_minus)))
    _emit("min_eigenvalue_plus", _fmt(np.linalg.eigvalsh(split.s_plus)[0]))
    _emit("min_eigenvalue_minus", _fmt(np.linalg.eigvalsh(split.s_minus)[0]))
    return 0


def cmd_bounds(args) -> int:
    data = _load(args)
    if data.labels is None:
        raise CdskError("bounds need ground-truth labels; pass --labels COL")
    kmat = gram(data, None if args.bandwidth is None else KernelSpec(args.bandwidth))
    spec = KernelSpec(kmat.bandwidth)
    alpha = np.full(data.n, 1.0 / data.n)
    # K is PSD (Bochner) with unit diagonal, so its split is S+ = K, S- = 0 and
    # r = sqrt(max diag) = 1: only the blocked form of K is left to compute
    omega_plus = float(alpha @ class_row_sums(kmat.values, alpha, data.labels)[0])
    c = int(data.labels.max())
    inputs = BoundInputs(
        n=data.n, c=c, gamma=args.gamma, delta=args.delta, b_plus=omega_plus, b_minus=0.0, r=1.0
    )
    empirical = empirical_loss(data, alpha, spec, args.gamma)
    upper = empirical_loss_upper_bound(data, alpha, args.gamma, kmat.values)
    _emit("command", "bounds")
    _emit("n", data.n)
    _emit("classes", c)
    _emit("bandwidth", _fmt(spec.bandwidth))
    _emit("gamma", _fmt(args.gamma))
    _emit("delta", _fmt(args.delta))
    _emit("empirical_loss", _fmt(empirical))
    _emit("empirical_loss_upper_bound", _fmt(upper))
    _emit("omega_plus", _fmt(omega_plus))
    _emit("omega_minus", _fmt(inputs.b_minus))
    _emit("generalization_bound", _fmt(generalization_bound(inputs, empirical)))
    _emit("rademacher_bound", _fmt(rademacher_bound(inputs, args.delta)))
    return 0


# the flags each ise mode reads, with their defaults; the parser leaves out
# flags not given, so a flag of the other mode is caught instead of ignored
_ISE_CONVOLUTION_FLAGS = {"a": 0.0, "b": 0.0, "h": 1.0}
_ISE_DATASET_FLAGS = {
    "input": None, "labels": None, "header": False, "bandwidth": None, "lambda1": 1.0, "eps": 0.0,
}


def cmd_ise(args) -> int:
    given = vars(args)
    convolution = given.pop("check_convolution", False)
    if convolution:
        own, other, mode = _ISE_CONVOLUTION_FLAGS, _ISE_DATASET_FLAGS, "--check-convolution"
    else:
        own, other, mode = _ISE_DATASET_FLAGS, _ISE_CONVOLUTION_FLAGS, "the --input mode"
    for dest in other:
        if dest in given:
            _usage_error(f"--{dest} is not used by {mode}")
    for dest, default in own.items():
        given.setdefault(dest, default)
    if convolution:
        numeric, closed = gaussian_convolution_check(args.a, args.b, args.h)
        rel = abs(numeric - closed) / max(abs(closed), 1e-300)
        _emit("command", "ise")
        _emit("numeric", _fmt(numeric))
        _emit("closed", _fmt(closed))
        _emit("rel_err", _fmt(rel))
        return 0
    if args.input is None:
        _usage_error("ise needs --check-convolution or --input")
    data = load_csv(args.input, label_column=args.labels, header=args.header)
    if data.labels is None:
        raise CdskError("ise needs two-class labels; pass --labels COL")
    bandwidth = args.bandwidth if args.bandwidth is not None else default_bandwidth(data)
    model = KdeModel(
        points=data.data,
        alpha=np.full(data.n, 1.0 / data.n),
        labels=data.labels,
        h=bandwidth,
    )
    hat_ise, k_alpha, s_ise = empirical_ise_terms(model, args.lambda1)
    slack = ise_residual_slack(model, args.eps)
    _emit("command", "ise")
    _emit("n", data.n)
    _emit("bandwidth", _fmt(bandwidth))
    _emit("lambda1", _fmt(args.lambda1))
    _emit("hat_ise", _fmt(hat_ise))
    _emit("k_alpha", _fmt(k_alpha))
    _emit("s_ise_max", _fmt(s_ise.max()))
    # the integral of (p_hat(x, 1) - p_hat(x, 2))^2 over R^d is tau1 k_alpha
    _emit("decision_squared_integral", _fmt(model.tau1 * k_alpha))
    _emit("residual_slack", _fmt(slack))
    return 0


def _parse_centers(text: str) -> list[list[float]]:
    centers = []
    for part in text.split(";"):
        centers.append([float(v) for v in part.split(",")])
    return centers


def cmd_synth(args) -> int:
    if args.kind == "blobs":
        sample = make_blobs(
            args.n_per_cluster, _parse_centers(args.centers), args.sigma, seed=args.seed
        )
    else:
        sample = make_two_moons(args.n, args.noise, seed=args.seed)
    write_csv(sample, args.out)
    _emit("command", "synth")
    _emit("kind", args.kind)
    _emit("n", sample.n)
    _emit("d", sample.d)
    _emit("written", args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="cdsk", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("cluster", help="run the full clustering pipeline")
    _add_input_flags(p, "column holding ground-truth labels, for metrics")
    _add_run_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--output", default=None, help="write the result document here")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("tune", help="pick lambda on a validation subsample")
    _add_input_flags(p, "column holding labels, dropped from the features (tune prints no metrics)")
    _add_run_flags(p)
    p.add_argument("--grid", type=float, nargs="+", default=None)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("baseline", help="plain spectral clustering on the raw kernel")
    _add_input_flags(p, "column holding ground-truth labels, for metrics")
    p.add_argument("--clusters", type=_int_at_least(1), required=True)
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("decompose", help="difference-of-PSD split of a similarity")
    p.add_argument("--input", required=True, help="square symmetric matrix as CSV")
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bounds", help="misclassification bound report")
    _add_input_flags(p, "column holding class labels (required)")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.1)
    p.set_defaults(func=cmd_bounds)

    # the defaults of each mode are in _ISE_CONVOLUTION_FLAGS and _ISE_DATASET_FLAGS
    p = sub.add_parser(
        "ise", help="density-classification ISE diagnostics", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--check-convolution", action="store_true")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--input")
    p.add_argument("--labels", type=_int_at_least(0))
    p.add_argument("--header", action="store_true")
    p.add_argument("--bandwidth", type=float)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--eps", type=float)
    p.set_defaults(func=cmd_ise)

    p = sub.add_parser("synth", help="write a synthetic dataset as CSV")
    p.set_defaults(func=cmd_synth)
    kinds = p.add_subparsers(dest="kind", required=True)
    # no abbreviations: blobs would otherwise take moons' --n as --n-per-cluster
    blobs = kinds.add_parser("blobs", help="isotropic Gaussian blobs", allow_abbrev=False)
    blobs.add_argument("--n-per-cluster", type=int, default=100)
    blobs.add_argument("--sigma", type=float, default=0.5)
    blobs.add_argument("--centers", default="0,0;10,10")
    moons = kinds.add_parser("moons", help="two interleaved half-circles", allow_abbrev=False)
    moons.add_argument("--n", type=int, default=400)
    moons.add_argument("--noise", type=float, default=0.05)
    for q in (blobs, moons):
        q.add_argument("--out", required=True)
        q.add_argument("--seed", type=_int_at_least(0), default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CdskError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
