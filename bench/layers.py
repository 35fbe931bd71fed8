"""What the traced run wraps, and how it turns spans into per-layer metrics.

Each target names the module attribute a caller looks the function up
through (``training.infer_code_batch`` is what the training loop calls,
``evaluate.infer_code_batch`` what evaluation calls), the span it
records, and an optional hook that counts the work from the call's
arguments and result. Work counts are computed from array shapes, not
measured by hardware counters.
"""

from __future__ import annotations

import os


def _path_bytes(position: int):
    def hook(tracer, name, args, kwargs, result):
        path = args[position] if len(args) > position else kwargs["path"]
        tracer.add(f"{name}.bytes", os.path.getsize(path))
    return hook


def _images_returned(tracer, name, args, kwargs, result):
    tracer.add(f"{name}.images", result.images.shape[0])


def _batches_logged(tracer, name, args, kwargs, result):
    tracer.add(f"{name}.batches", len(result[1]))


def _inferred(tracer, name, args, kwargs, result):
    codes = result[0]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    tracer.add(f"{name}.images", codes.shape[0])
    tracer.add(f"{name}.iterations", cfg.fista_steps)


def _posterior_work(tracer, name, args, kwargs, result):
    """8*B*G*L flops for the energy and expectation products over G grid
    points; bytes are the two tables read twice plus the (B, G) weights
    written and read once; the effective grid share is 1/sum(w^2) over G."""
    weights = result[1]
    freq = args[5] if len(args) > 5 else kwargs["freq"]
    b, g = weights.shape
    tracer.add(f"{name}.flop", 8.0 * b * g * freq.L)
    tracer.add(f"{name}.bytes", 8.0 * (4 * g * freq.L + 2 * b * g))
    inverse_participation = 1.0 / (weights * weights).sum(axis=1)
    tracer.add(f"{name}.grid_share_sum", float(inverse_participation.sum()) / g)
    tracer.add(f"{name}.grid_share_images", b)


def _orthonormality(tracer, name, args, kwargs, result):
    import numpy as np

    gram = result.T @ result
    tracer.peak(f"{name}.orthonormality_error",
                float(np.abs(gram - np.eye(gram.shape[0])).max()))


class _TableIdentity:
    """Counts grid-table misses: a call whose result is not the very
    object returned before for the same (freq.cache_key(), N)."""

    def __init__(self):
        # Strong references, so that an id is never reused by a new table.
        self.last: dict = {}

    def __call__(self, tracer, name, args, kwargs, result):
        freq = args[0] if args else kwargs["freq"]
        n_grid = args[1] if len(args) > 1 else kwargs["N"]
        key = (freq.cache_key(), n_grid)
        if self.last.get(key) is not result:
            tracer.add(f"{name}.misses", 1)
            tracer.add(f"{name}.table_bytes", sum(t.nbytes for t in result))
            self.last[key] = result


def targets():
    """(module, attribute, span name, hook) for every wrapped call site."""
    cli, io = "torusparse.cli", "torusparse.io"
    return [
        (cli, "main", "cli.main", None),
        (cli, "parse_config", "io.parse_config", None),
        (cli, "load_checkpoint_full", "io.load_checkpoint_full", _path_bytes(0)),
        (io, "load_checkpoint_full", "io.load_checkpoint_full", _path_bytes(0)),
        (cli, "save_checkpoint", "io.save_checkpoint", _path_bytes(1)),
        (io, "save_checkpoint", "io.save_checkpoint", _path_bytes(1)),
        (cli, "load_idx_images", "datasets.load_idx_images", None),
        (cli, "make_synthetic", "datasets.make_synthetic", _images_returned),
        ("torusparse.datasets", "warp_translate", "datasets.warp_translate", None),
        ("torusparse.datasets", "warp_rot_scale", "datasets.warp_rot_scale", None),
        (cli, "normalize_batch", "datasets.normalize_batch", None),
        (cli, "init_model", "training.init_model", None),
        ("torusparse.training", "frequency_table_auto",
         "torus.frequency_table_auto", None),
        (cli, "train", "training.train", _batches_logged),
        ("torusparse.training", "infer_code_batch",
         "inference.infer_code_batch", _inferred),
        ("torusparse.evaluate", "infer_code_batch",
         "inference.infer_code_batch", _inferred),
        ("torusparse.inference", "fista_step_size", "inference.fista_step_size", None),
        ("torusparse.inference", "batch_posterior",
         "posterior.batch_posterior", _posterior_work),
        ("torusparse.posterior", "grid_tables", "posterior.grid_tables",
         _TableIdentity()),
        ("torusparse.training", "riemannian_adam_step",
         "stiefel.riemannian_adam_step", None),
        ("torusparse.stiefel", "tangent_project", "stiefel.tangent_project", None),
        ("torusparse.stiefel", "retract", "stiefel.retract", _orthonormality),
        ("torusparse.training", "phi_update", "stiefel.phi_update", None),
        (cli, "reconstruct_batch", "evaluate.reconstruct_batch", None),
        ("torusparse.evaluate", "apply_transform", "torus.apply_transform", None),
        (cli, "snr", "evaluate.snr", None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _derived(s: dict) -> dict:
    """Per-layer metrics that are not a plain span statistic."""
    bp, gt = "posterior.batch_posterior", "posterior.grid_tables"
    icb = "inference.infer_code_batch"
    batches = s.get("training.train.batches", 0.0) + s.get(
        "evaluate.reconstruct_batch.calls", 0.0)
    return {
        f"{bp}.gflop": s.get(f"{bp}.flop", 0.0) / 1e9,
        f"{bp}.gflop_per_s": _ratio(s.get(f"{bp}.flop", 0.0) / 1e9,
                                    s.get(f"{bp}.busy_s", 0.0)),
        f"{bp}.computed_MB": s.get(f"{bp}.bytes", 0.0) / 1e6,
        f"{bp}.effective_grid_fraction": _ratio(
            s.get(f"{bp}.grid_share_sum", 0.0), s.get(f"{bp}.grid_share_images", 0.0)),
        f"{gt}.hit_ratio": _ratio(s.get(f"{gt}.calls", 0.0) - s.get(f"{gt}.misses", 0.0),
                                  s.get(f"{gt}.calls", 0.0)),
        f"{gt}.table_MB": s.get(f"{gt}.table_bytes", 0.0) / 1e6,
        f"{icb}.calls_per_batch": _ratio(s.get(f"{icb}.calls", 0.0), batches),
        f"{icb}.iteration_ms": _ratio(1e3 * s.get(f"{icb}.busy_s", 0.0),
                                      s.get(f"{icb}.iterations", 0.0)),
        "stiefel.retract.orthonormality_error":
            s.get("max:stiefel.retract.orthonormality_error", 0.0),
        "io.save_checkpoint.MB": s.get("io.save_checkpoint.bytes", 0.0) / 1e6,
        "io.load_checkpoint_full.MB": s.get("io.load_checkpoint_full.bytes", 0.0) / 1e6,
    }


# (name, unit, better). A name that is not derived above is read straight
# from the trace summary; trace.* names are filled in by run.py.
PER_LAYER = [
    ("posterior.batch_posterior.calls", "count", "lower"),
    ("posterior.batch_posterior.busy_s", "s", "lower"),
    ("posterior.batch_posterior.wall_s", "s", "lower"),
    ("posterior.batch_posterior.gflop", "GFLOP", "lower"),
    ("posterior.batch_posterior.gflop_per_s", "GFLOP/s", "higher"),
    ("posterior.batch_posterior.computed_MB", "MB", "lower"),
    ("posterior.batch_posterior.effective_grid_fraction", "ratio", "higher"),
    ("posterior.grid_tables.calls", "count", "lower"),
    ("posterior.grid_tables.misses", "count", "lower"),
    ("posterior.grid_tables.hit_ratio", "ratio", "higher"),
    ("posterior.grid_tables.busy_s", "s", "lower"),
    ("posterior.grid_tables.table_MB", "MB", "lower"),
    ("inference.infer_code_batch.calls", "count", "lower"),
    ("inference.infer_code_batch.images", "count", "higher"),
    ("inference.infer_code_batch.busy_s", "s", "lower"),
    ("inference.infer_code_batch.wall_s", "s", "lower"),
    ("inference.infer_code_batch.self_s", "s", "lower"),
    ("inference.infer_code_batch.calls_per_batch", "count", "lower"),
    ("inference.infer_code_batch.iteration_ms", "ms", "lower"),
    ("inference.fista_step_size.busy_s", "s", "lower"),
    ("stiefel.riemannian_adam_step.calls", "count", "lower"),
    ("stiefel.riemannian_adam_step.busy_s", "s", "lower"),
    ("stiefel.tangent_project.busy_s", "s", "lower"),
    ("stiefel.retract.busy_s", "s", "lower"),
    ("stiefel.retract.orthonormality_error", "abs", "lower"),
    ("stiefel.phi_update.busy_s", "s", "lower"),
    ("training.train.busy_s", "s", "lower"),
    ("training.train.self_s", "s", "lower"),
    ("training.train.batches", "count", "higher"),
    ("training.init_model.busy_s", "s", "lower"),
    ("torus.apply_transform.calls", "count", "lower"),
    ("torus.apply_transform.busy_s", "s", "lower"),
    ("torus.frequency_table_auto.busy_s", "s", "lower"),
    ("datasets.make_synthetic.images", "count", "higher"),
    ("datasets.make_synthetic.busy_s", "s", "lower"),
    ("datasets.make_synthetic.self_s", "s", "lower"),
    ("datasets.warp_rot_scale.calls", "count", "lower"),
    ("datasets.warp_rot_scale.busy_s", "s", "lower"),
    ("datasets.warp_translate.calls", "count", "lower"),
    ("datasets.warp_translate.busy_s", "s", "lower"),
    ("datasets.normalize_batch.busy_s", "s", "lower"),
    ("datasets.load_idx_images.busy_s", "s", "lower"),
    ("evaluate.reconstruct_batch.busy_s", "s", "lower"),
    ("evaluate.reconstruct_batch.self_s", "s", "lower"),
    ("evaluate.snr.busy_s", "s", "lower"),
    ("io.save_checkpoint.calls", "count", "lower"),
    ("io.save_checkpoint.busy_s", "s", "lower"),
    ("io.save_checkpoint.MB", "MB", "lower"),
    ("io.load_checkpoint_full.calls", "count", "lower"),
    ("io.load_checkpoint_full.busy_s", "s", "lower"),
    ("io.load_checkpoint_full.MB", "MB", "lower"),
    ("io.parse_config.busy_s", "s", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.main_self_coverage", "ratio", "higher"),
    ("trace.missing_spans", "count", "lower"),
    ("trace.failed_hooks", "count", "lower"),
]


def per_layer(summary: dict, trace_metrics: dict) -> dict:
    """Every PER_LAYER metric, as {name: {"value", "unit"}}."""
    derived = _derived(summary)
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in trace_metrics:
            value = trace_metrics[name]
        elif name in derived:
            value = derived[name]
        else:
            value = summary.get(name, 0.0)
        out[name] = {"value": float(value), "unit": unit}
    return out


def merge(summaries) -> dict:
    """Sum trace summaries of several processes; max:* keys take the max."""
    out: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if key.startswith("max:"):
                out[key] = max(value, out.get(key, value))
            else:
                out[key] = out.get(key, 0.0) + value
    return out
