"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 data or validation error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from .datasets import (
    Dataset,
    IdxFormatError,
    TransformSpec,
    load_idx_images,
    make_synthetic,
    normalize_batch,
)
from .evaluate import export_grid, latent_traversal, reconstruct_batch, snr
from .io import (
    CheckpointError,
    ConfigError,
    load_checkpoint_full,
    parse_config,
    save_checkpoint,
)
from .posterior import TorusPrior
from .torus import FrequencyTable
from .training import (
    ModelParams,
    TrainConfig,
    baseline_model_params,
    init_model,
    train,
    train_baseline,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read "-1e3", "-.5E-2", "-inf" and "-nan" as negative values, not
        # as flags (argparse's own pattern knows only plain decimals).
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def _placeholder_model(d: int) -> ModelParams:
    """Minimal valid model to carry a dataset section in the container."""
    if d % 2 != 0:
        raise ValueError(f"image dimension {d} is odd; sides must be even")
    basis = np.zeros((d, 2))
    basis[0, 0] = 1.0
    basis[1, 1] = 1.0
    return ModelParams(
        basis=basis,
        dictionary=np.full((d, 1), 1.0 / math.sqrt(d)),
        freq=FrequencyTable(n=1, entries=np.zeros((1, 1), dtype=np.int64), multiplicity=1),
        noise_var=0.01,
        sparsity=10.0,
        prior=TorusPrior.uniform(1),
    )


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _default_threads() -> int:
    """One chunk thread per core when BLAS is pinned to one thread, else one:
    each chunk calls BLAS, and a multithreaded BLAS in every chunk thread
    would run more threads than cores."""
    if any(os.environ.get(name) == "1" for name in BLAS_THREAD_VARIABLES):
        return os.cpu_count() or 1
    return 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="torusparse")
    parser.add_argument("--threads", type=int, default=_default_threads())
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate a warped-template dataset")
    gen.add_argument("--kind", choices=("translate2d", "rotscale"), required=True)
    gen.add_argument("--templates", required=True, help="IDX3 file of templates")
    gen.add_argument("--count-per-template", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--cyclic", action="store_true",
                     help="wrap translations around the image borders")
    gen.add_argument("--dx", type=float, nargs=2, metavar=("LO", "HI"))
    gen.add_argument("--dy", type=float, nargs=2, metavar=("LO", "HI"))
    gen.add_argument("--theta", type=float, nargs=2, metavar=("LO", "HI"),
                     help="rotation range in degrees")
    gen.add_argument("--scale", type=float, nargs=2, metavar=("LO", "HI"))

    for name in ("train", "baseline-train"):
        t = sub.add_parser(name)
        t.add_argument("--config", required=True)
        t.add_argument("--data", required=True)
        t.add_argument("--out", required=True)
        t.add_argument("--epochs", type=int, default=None)

    ev = sub.add_parser("eval", help="print pooled reconstruction SNR")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)

    rec = sub.add_parser("reconstruct")
    rec.add_argument("--ckpt", required=True)
    rec.add_argument("--data", required=True)
    rec.add_argument("--take", type=int, required=True)
    rec.add_argument("--out", required=True)

    tr = sub.add_parser("traverse")
    tr.add_argument("--ckpt", required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--dim", type=int, required=True)
    tr.add_argument("--from", dest="s_from", type=float, default=-math.pi)
    tr.add_argument("--to", dest="s_to", type=float, default=math.pi)
    tr.add_argument("--steps", type=int, required=True)
    tr.add_argument("--out", required=True)

    ew = sub.add_parser("export-w", help="render basis columns as an image grid")
    ew.add_argument("--ckpt", required=True)
    ew.add_argument("--cols", type=int, required=True)
    ew.add_argument("--out", required=True)
    return parser


def _load_dataset(path) -> Dataset:
    contents = load_checkpoint_full(path)
    if contents.dataset is None:
        raise CheckpointError(f"{path} carries no dataset section")
    return contents.dataset


def _cmd_gen_data(args) -> int:
    templates_ds = load_idx_images(args.templates)
    templates = [img.reshape(templates_ds.side, templates_ds.side)
                 for img in templates_ds.images]
    if args.kind == "translate2d":
        spec = TransformSpec.translate2d(args.count_per_template, cyclic=args.cyclic)
        ranges = list(spec.ranges)
        if args.dx:
            ranges[0] = tuple(args.dx)
        if args.dy:
            ranges[1] = tuple(args.dy)
        spec = TransformSpec("translate2d", tuple(ranges), args.count_per_template,
                             cyclic=args.cyclic)
    else:
        spec = TransformSpec.rotscale(args.count_per_template)
        ranges = list(spec.ranges)
        if args.theta:
            ranges[0] = (math.radians(args.theta[0]), math.radians(args.theta[1]))
        if args.scale:
            ranges[1] = tuple(args.scale)
        spec = TransformSpec("rotscale", tuple(ranges), args.count_per_template)
    dataset = make_synthetic(templates, spec, args.seed)
    save_checkpoint(_placeholder_model(dataset.images.shape[1]), args.out,
                    dataset=dataset)
    print(f"wrote {dataset.images.shape[0]} images to {args.out}")
    return 0


def _cmd_train(args, baseline: bool) -> int:
    cfg = parse_config(args.config)
    if args.epochs is not None:
        cfg.epochs = args.epochs
        cfg.validate()
    dataset = _load_dataset(args.data)
    if dataset.images.shape[1] != cfg.image_dim:
        raise ConfigError(
            f"config D={cfg.image_dim} but dataset images have length "
            f"{dataset.images.shape[1]}"
        )
    log_path = args.out + ".log"
    if baseline:
        state, _ = train_baseline(dataset, cfg, log_path=log_path)
        model = baseline_model_params(state, cfg.noise_var, cfg.sparsity)
    else:
        model = init_model(cfg, cfg.seed)
        model, _ = train(model, dataset, cfg, threads=args.threads,
                         log_path=log_path)
    save_checkpoint(model, args.out, n_grid=cfg.grid_size)
    print(f"wrote checkpoint to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    contents = load_checkpoint_full(args.ckpt)
    dataset = _load_dataset(args.data)
    images = normalize_batch(dataset.images)
    cfg = TrainConfig(noise_var=contents.model.noise_var,
                      sparsity=contents.model.sparsity)
    recons = reconstruct_batch(images, contents.model, cfg, threads=args.threads)
    print(f"snr={snr(images, recons):.6g}")
    return 0


def _cmd_reconstruct(args) -> int:
    contents = load_checkpoint_full(args.ckpt)
    dataset = _load_dataset(args.data)
    take = min(args.take, dataset.images.shape[0])
    if take < 1:
        raise ValueError("--take must select at least one image")
    images = normalize_batch(dataset.images[:take])
    cfg = TrainConfig(noise_var=contents.model.noise_var,
                      sparsity=contents.model.sparsity)
    recons = reconstruct_batch(images, contents.model, cfg, threads=args.threads)
    side = dataset.side
    tiles = [im.reshape(side, side) for im in images]
    tiles += [r.image_hat.reshape(side, side) for r in recons]
    export_grid(tiles, cols=take, path=args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_traverse(args) -> int:
    contents = load_checkpoint_full(args.ckpt)
    dataset = _load_dataset(args.data)
    count = min(5, dataset.images.shape[0])
    images = normalize_batch(dataset.images[:count])
    sweep = latent_traversal(contents.model, images, args.dim,
                             args.s_from, args.s_to, args.steps)
    side = dataset.side
    tiles = [sweep[i, j].reshape(side, side)
             for i in range(sweep.shape[0]) for j in range(sweep.shape[1])]
    export_grid(tiles, cols=args.steps, path=args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_export_w(args) -> int:
    contents = load_checkpoint_full(args.ckpt)
    basis = contents.model.basis
    side = int(round(basis.shape[0] ** 0.5))
    if side * side != basis.shape[0]:
        raise ValueError("basis rows do not form square images")
    tiles = [basis[:, j].reshape(side, side) for j in range(basis.shape[1])]
    export_grid(tiles, cols=args.cols, path=args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        if args.command == "train":
            return _cmd_train(args, baseline=False)
        if args.command == "baseline-train":
            return _cmd_train(args, baseline=True)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "reconstruct":
            return _cmd_reconstruct(args)
        if args.command == "traverse":
            return _cmd_traverse(args)
        if args.command == "export-w":
            return _cmd_export_w(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CheckpointError, ConfigError, IdxFormatError, ValueError,
            FileNotFoundError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
