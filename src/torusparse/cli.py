"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 data or validation error (a file
that cannot be read or written, and out of memory, included).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from .datasets import (
    PARAMETER_NAMES,
    ROTSCALE_DEFAULT,
    TRANSLATE_DEFAULT,
    Dataset,
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
    """One inference thread per core when BLAS is pinned to one thread, else
    one: each inference thread calls BLAS, and a multithreaded BLAS in every
    one would run more threads than cores."""
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
    gen.set_defaults(run=_cmd_gen_data)

    for name in ("train", "baseline-train"):
        t = sub.add_parser(name)
        t.add_argument("--config", required=True)
        t.add_argument("--data", required=True)
        t.add_argument("--out", required=True)
        t.add_argument("--epochs", type=int, default=None)
        t.set_defaults(run=_cmd_train)

    ev = sub.add_parser("eval", help="print pooled reconstruction SNR")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.set_defaults(run=_cmd_eval)

    rec = sub.add_parser("reconstruct")
    rec.add_argument("--ckpt", required=True)
    rec.add_argument("--data", required=True)
    rec.add_argument("--take", type=int, required=True)
    rec.add_argument("--out", required=True)
    rec.set_defaults(run=_cmd_reconstruct)

    tr = sub.add_parser("traverse")
    tr.add_argument("--ckpt", required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--dim", type=int, required=True)
    tr.add_argument("--from", dest="s_from", type=float, default=-math.pi)
    tr.add_argument("--to", dest="s_to", type=float, default=math.pi)
    tr.add_argument("--steps", type=int, required=True)
    tr.add_argument("--out", required=True)
    tr.set_defaults(run=_cmd_traverse)

    ew = sub.add_parser("export-w", help="render basis columns as an image grid")
    ew.add_argument("--ckpt", required=True)
    ew.add_argument("--cols", type=int, required=True)
    ew.add_argument("--out", required=True)
    ew.set_defaults(run=_cmd_export_w)
    return parser


def _load_dataset(path) -> Dataset:
    contents = load_checkpoint_full(path)
    if contents.dataset is None:
        raise CheckpointError(f"{path} carries no dataset section")
    if contents.dataset.images.shape[0] == 0:
        raise ValueError(f"{path} holds no images")
    return contents.dataset


def _cmd_gen_data(args) -> int:
    for kind, names in PARAMETER_NAMES.items():  # before the templates are read
        given = [name for name in names if getattr(args, name) is not None]
        if kind != args.kind and given:
            raise ValueError(f"--{given[0]} does not apply to --kind {args.kind}")
    templates = load_idx_images(args.templates)
    # built before warping, so an odd image dimension is refused at once
    model = _placeholder_model(templates.images.shape[1])
    if args.kind == "translate2d":
        defaults, flags = TRANSLATE_DEFAULT, (args.dx, args.dy)
    else:
        theta = args.theta and [math.radians(value) for value in args.theta]
        defaults, flags = ROTSCALE_DEFAULT, (theta, args.scale)
    ranges = tuple(tuple(flag) if flag else default
                   for flag, default in zip(flags, defaults))
    spec = TransformSpec(args.kind, ranges, args.count_per_template, cyclic=args.cyclic)
    dataset = make_synthetic(templates.images.reshape(-1, templates.side, templates.side),
                             spec, args.seed, threads=args.threads)
    save_checkpoint(model, args.out, dataset=dataset)
    print(f"wrote {dataset.images.shape[0]} images to {args.out}")
    return 0


def _cmd_train(args) -> int:
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
    if args.command == "baseline-train":
        state, _ = train_baseline(dataset, cfg, log_path=log_path)
        model = baseline_model_params(state, cfg.noise_var, cfg.sparsity)
    else:
        model = init_model(cfg, cfg.seed)
        model, _ = train(model, dataset, cfg, threads=args.threads,
                         log_path=log_path)
    save_checkpoint(model, args.out, n_grid=cfg.grid_size)
    print(f"wrote checkpoint to {args.out}")
    return 0


def _reconstruct(args, take=None):
    """Reconstruct the first ``take`` images of --data (all of them when
    None) with the --ckpt model; returns (side, images, reconstructions),
    the images normalised."""
    model = load_checkpoint_full(args.ckpt).model
    dataset = _load_dataset(args.data)
    if take is not None:
        take = min(take, dataset.images.shape[0])
        if take < 1:
            raise ValueError("--take must select at least one image")
    images = normalize_batch(dataset.images[:take])
    return dataset.side, images, reconstruct_batch(images, model, TrainConfig(),
                                                   threads=args.threads)


def _export(tiles, side: int, cols: int, path) -> int:
    """Write the rows of ``tiles`` as side x side tiles of a PGM grid."""
    export_grid(np.reshape(tiles, (-1, side, side)), cols=cols, path=path)
    print(f"wrote {path}")
    return 0


def _cmd_eval(args) -> int:
    _, images, recons = _reconstruct(args)
    print(f"snr={snr(images, recons):.6g}")
    return 0


def _cmd_reconstruct(args) -> int:
    side, images, recons = _reconstruct(args, args.take)
    hats = [r.image_hat for r in recons]
    return _export(np.concatenate([images, hats]), side, len(images), args.out)


def _cmd_traverse(args) -> int:
    model = load_checkpoint_full(args.ckpt).model
    dataset = _load_dataset(args.data)
    images = normalize_batch(dataset.images[:5])
    sweep = latent_traversal(model, images, args.dim, args.s_from, args.s_to, args.steps)
    return _export(sweep, dataset.side, args.steps, args.out)


def _cmd_export_w(args) -> int:
    basis = load_checkpoint_full(args.ckpt).model.basis
    side = int(round(basis.shape[0] ** 0.5))
    if side * side != basis.shape[0]:
        raise ValueError("basis rows do not form square images")
    return _export(basis.T, side, args.cols, args.out)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads < 1:
            raise UsageError(f"--threads must be >= 1, got {args.threads}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        # every writer refuses a directory --out before its work, not when
        # it writes the file at the end
        out = getattr(args, "out", None)
        if out is not None and os.path.isdir(out):
            raise ValueError(f"--out {out} is a directory")
        return args.run(args)
    # ValueError covers CheckpointError, ConfigError, IdxFormatError and
    # LinAlgError; OSError covers files missing, unreadable or directories
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
