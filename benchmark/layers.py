"""Which library functions the traced run hooks, and the per-layer metrics.

The layers are the modules of ``src/cdsk`` on the clustering path.  ``bounds``,
``kdc`` and ``decompose`` are off that path and are not hooked.  Every ``*_s``
metric is the summed inclusive span time of its layer; ``driver.run_self_s``
is the only self time (``run_cdsk`` minus the layers it calls).
"""

from __future__ import annotations

import math

import numpy as np

import cdsk.cli
import cdsk.driver
import cdsk.embedding

from tracer import Tracer

# (module where the caller looks the name up, name, span name)
_PLAIN_HOOKS = (
    (cdsk.driver, "gram", "kernel.gram"),
    (cdsk.driver, "default_bandwidth", "kernel.bandwidth"),
    (cdsk.driver, "assemble_alpha_qp", "simplex_qp.assemble"),
    (cdsk.driver, "disc_similarity", "similarity.graph"),
    (cdsk.driver, "laplacian_quadratic", "similarity.objective"),
    (cdsk.driver, "alpha_objective_terms", "similarity.objective"),
    (cdsk.driver, "solve_embedding", "embedding.solve"),
    (cdsk.embedding, "smallest_eigenpairs", "spectral.eig"),
    (cdsk.driver, "kmeans", "kmeans_metrics.kmeans"),
    (cdsk.driver, "graph_degrees", "driver.degrees"),
    (cdsk.cli, "load_csv", "data_io.load"),
)


def _observe_weight_step(span, args, sol) -> None:
    span.info.update(
        iterations=int(sol.iterations),
        kkt=float(sol.kkt_residual),
        converged=bool(sol.converged),
        moved=len(sol.objective_trace) > 1,
    )


def _observe_init(span, args, alpha) -> None:
    alpha = np.asarray(alpha)
    span.info["uniform"] = bool(np.array_equal(alpha, np.full(alpha.size, 1.0 / alpha.size)))


def _observe_run(span, args, result) -> None:
    trace = result.objective_trace
    span.info.update(
        outer_iters=len(trace),
        objective_final=float(trace[-1]) if trace else math.nan,
        max_iter_stop=len(trace) >= args["config"].max_iter,
    )


def _observe_tune(span, args, result) -> None:
    grid = [float(v) for v in args["grid"]]
    span.info["grid_edge"] = float(result[0]) in (min(grid), max(grid))


def install_hooks(tracer: Tracer) -> None:
    for module, attr, layer in _PLAIN_HOOKS:
        tracer.hook(module, attr, layer)
    tracer.hook(cdsk.driver, "solve_alpha_coupled", "driver.weight_step", _observe_weight_step)
    tracer.hook(cdsk.driver, "init_alpha_sparse", "simplex_qp.init", _observe_init)
    tracer.hook(cdsk.driver, "run_cdsk", "driver.run", _observe_run)
    tracer.hook(cdsk.cli, "tune_lambda", "driver.tune", _observe_tune)


def _frac(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


# name -> unit, in report order
PER_LAYER_UNITS = {
    "driver.weight_step_s": "s",
    "driver.weight_step_calls": "count",
    "driver.weight_step_inner_iters": "count",
    "driver.degree_evals": "count",
    "driver.weight_step_accept_frac": "ratio",
    "driver.weight_step_kkt_max": "1",
    "driver.weight_step_unconverged": "count",
    "driver.objective_final": "1",
    "driver.outer_iters": "count",
    "driver.max_iter_stops": "count",
    "driver.run_self_s": "s",
    "driver.lambda_at_grid_edge": "count",
    "simplex_qp.init_s": "s",
    "simplex_qp.init_calls": "count",
    "simplex_qp.init_uniform_frac": "ratio",
    "simplex_qp.assemble_s": "s",
    "similarity.graph_s": "s",
    "similarity.graph_calls": "count",
    "similarity.degenerate_raises": "count",
    "similarity.objective_s": "s",
    "spectral.eig_s": "s",
    "spectral.eig_calls": "count",
    "embedding.solve_s": "s",
    "kernel.gram_s": "s",
    "kernel.bandwidth_s": "s",
    "kmeans_metrics.kmeans_s": "s",
    "data_io.load_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "absent_hooks": "count",
}


def per_layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    steps = tracer.named("driver.weight_step")
    inits = tracer.named("simplex_qp.init")
    runs = tracer.named("driver.run")
    graphs = tracer.named("similarity.graph")
    finals = [f for f in (s.info.get("objective_final", math.nan) for s in runs) if math.isfinite(f)]
    values = {
        "driver.weight_step_s": tracer.total("driver.weight_step"),
        "driver.weight_step_calls": len(steps),
        "driver.weight_step_inner_iters": sum(s.info.get("iterations", 0) for s in steps),
        "driver.degree_evals": len(tracer.named("driver.degrees")),
        "driver.weight_step_accept_frac": _frac(sum(s.info.get("moved", False) for s in steps), len(steps)),
        "driver.weight_step_kkt_max": max((s.info["kkt"] for s in steps if "kkt" in s.info), default=0.0),
        "driver.weight_step_unconverged": sum(not s.info["converged"] for s in steps if "converged" in s.info),
        "driver.objective_final": float(np.mean(finals)) if finals else 0.0,
        "driver.outer_iters": sum(s.info.get("outer_iters", 0) for s in runs),
        "driver.max_iter_stops": sum(s.info.get("max_iter_stop", False) for s in runs),
        "driver.run_self_s": tracer.self_time("driver.run"),
        "driver.lambda_at_grid_edge": sum(s.info.get("grid_edge", False) for s in tracer.named("driver.tune")),
        "simplex_qp.init_s": tracer.total("simplex_qp.init"),
        "simplex_qp.init_calls": len(inits),
        "simplex_qp.init_uniform_frac": _frac(sum(s.info.get("uniform", False) for s in inits), len(inits)),
        "simplex_qp.assemble_s": tracer.total("simplex_qp.assemble"),
        "similarity.graph_s": tracer.total("similarity.graph"),
        "similarity.graph_calls": len(graphs),
        "similarity.degenerate_raises": sum(s.error == "DegenerateDataError" for s in graphs),
        "similarity.objective_s": tracer.total("similarity.objective"),
        "spectral.eig_s": tracer.total("spectral.eig"),
        "spectral.eig_calls": len(tracer.named("spectral.eig")),
        "embedding.solve_s": tracer.total("embedding.solve"),
        "kernel.gram_s": tracer.total("kernel.gram"),
        "kernel.bandwidth_s": tracer.total("kernel.bandwidth"),
        "kmeans_metrics.kmeans_s": tracer.total("kmeans_metrics.kmeans"),
        "data_io.load_s": tracer.total("data_io.load"),
        "traced_wall_s": traced_wall,
        "trace_overhead_s": traced_wall - untraced_wall,
        "absent_hooks": len(tracer.absent),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
