"""Bit-exact checkpoint container and key=value config parsing.

Checkpoint layout (all little-endian):

    magic "LSC1" | version u16 | flags u16
    D, K, L, n, m, N as u32
    frequency table  L*n   int32, row-major (saving refuses wider values)
    basis            D*2L  float64, column-major
    dictionary       D*K   float64, column-major
    kappa, mu        L each, float64
    noise_var, sparsity    float64
    [flags bit 0] dataset: count u32, then count*D float64, image-major

Every section's length follows from the header (and the dataset count).
Loading reads the sections in file order, checks each one's length
against the bytes left in the file before it allocates that section's
array, reads the section straight into it, refuses trailing bytes after
the last section, and verifies the magic, the version, and every model
invariant before returning. A loaded basis and dictionary are the
column-major views of their sections, so a load allocates no more than
the file holds plus the 2L x 2L Gram of the orthonormality check, and
saving a loaded model writes every section from memory as it is.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .datasets import Dataset
from .posterior import TorusPrior
from .torus import FrequencyTable
from .training import ModelParams, TrainConfig

MAGIC = b"LSC1"
VERSION = 1
FLAG_DATASET = 0x0001
HEADER_BYTES = 32


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint payload."""


class BadMagicError(CheckpointError):
    pass


class VersionError(CheckpointError):
    pass


class InvariantError(CheckpointError):
    pass


class ConfigError(ValueError):
    """Malformed or invalid configuration file."""


def _check_widths(header: dict, entries: Optional[np.ndarray] = None) -> None:
    """Raise CheckpointError naming the first header field (u32) or
    frequency entry (int32) whose value its stored width cannot hold."""
    for name, value in header.items():
        if not 0 <= value <= 0xFFFFFFFF:
            raise CheckpointError(f"header field {name} is {value}; a checkpoint "
                                  f"stores it as u32 (0 to 4294967295)")
    if entries is not None:
        bad = np.argwhere((entries < -(2**31)) | (entries >= 2**31))
        if bad.size:
            row, col = bad[0].tolist()
            raise CheckpointError(f"frequency entry [{row}, {col}] is {entries[row, col]}; "
                                  f"a checkpoint stores it as int32")


def save_checkpoint(model: ModelParams, path, n_grid: int = 50,
                    dataset: Optional[Dataset] = None) -> None:
    """Serialize model (and optionally a dataset) to the container format.

    Arrays already in the stored dtype and order, such as a loaded
    model's, are written with no copy; a row-major basis or dictionary,
    as training leaves them, takes one transposing copy each.
    """
    d, width = model.basis.shape
    L = model.freq.L
    k = model.dictionary.shape[1]
    if n_grid < 2:
        raise CheckpointError(f"grid size N is {n_grid}; must be >= 2")
    _check_widths({"D": d, "K": k, "L": L, "n": model.freq.n,
                  "m": model.freq.multiplicity, "N": n_grid}, model.freq.entries)
    flags = FLAG_DATASET if dataset is not None else 0
    # Each part goes to the file through the buffer protocol: arrays already
    # in the stored dtype and order are written without a copy, and the
    # transpose of a Fortran-ordered array is the C buffer of its columns.
    parts = [
        MAGIC,
        struct.pack("<HH", VERSION, flags),
        struct.pack("<6I", d, k, L, model.freq.n, model.freq.multiplicity, n_grid),
        np.ascontiguousarray(model.freq.entries, dtype="<i4"),
        np.asfortranarray(model.basis, dtype="<f8").T,
        np.asfortranarray(model.dictionary, dtype="<f8").T,
        np.ascontiguousarray(model.prior.kappa, dtype="<f8"),
        np.ascontiguousarray(model.prior.mu, dtype="<f8"),
        struct.pack("<dd", model.noise_var, model.sparsity),
    ]
    if dataset is not None:
        if dataset.images.shape[1] != d:
            raise CheckpointError("dataset image length does not match model D")
        parts.append(struct.pack("<I", dataset.images.shape[0]))
        parts.append(np.ascontiguousarray(dataset.images, dtype="<f8"))
    with open(path, "wb") as handle:
        for part in parts:
            handle.write(part)


@dataclass(eq=False)
class CheckpointContents:
    model: ModelParams
    n_grid: int
    dataset: Optional[Dataset]


def _require(available: int, offset: int, size: int, what: str) -> None:
    if offset + size > available:
        raise CheckpointError(
            f"payload truncated reading {what} at byte {offset} (need {size} bytes)"
        )


def load_checkpoint_full(path) -> CheckpointContents:
    """Load and validate the container, returning model, grid size, dataset.

    The sections are read in file order, each checked against the bytes
    left in the file before its array is allocated, so no allocation
    exceeds the file. The model's basis and dictionary are Fortran-ordered
    views of their column-major sections, not row-major copies; library
    calls on one or two images may differ from a row-major copy of the
    same model in the last bit, since BLAS may pick another kernel for a
    transposed operand.
    """
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        head = handle.read(HEADER_BYTES)
        _require(len(head), 0, 4, "magic")
        if head[:4] != MAGIC:
            raise BadMagicError(f"bad magic {head[:4]!r}")
        _require(len(head), 4, 4, "version/flags")
        version, flags = struct.unpack_from("<HH", head, 4)
        if version != VERSION:
            raise VersionError(f"unsupported version {version} (expected {VERSION})")
        if flags & ~FLAG_DATASET:
            raise CheckpointError(f"unknown flag bits {flags & ~FLAG_DATASET:#06x}")
        _require(len(head), 8, 24, "dimensions")
        d, k, L, n, m, n_grid = struct.unpack_from("<6I", head, 8)
        if n_grid < 2:
            raise CheckpointError(f"header field N (grid size) is {n_grid}; must be >= 2")

        def read(what, shape, dtype="<f8"):
            """The next section, checked against the file's size and then
            read straight into a new array."""
            at, need = handle.tell(), math.prod(shape) * np.dtype(dtype).itemsize
            _require(size, at, need, what)
            array = np.empty(shape, dtype=dtype)
            _require(at + handle.readinto(array), at, need, what)  # file shrank
            return array

        entries = read("frequency table", (L, n), "<i4")
        # The basis and dictionary are stored column-major: each is read as
        # its (2L, D) or (K, D) transpose, and the model holds the
        # Fortran-ordered view of that buffer.
        basis = read("basis", (2 * L, d)).T
        dictionary = read("dictionary", (k, d)).T
        kappa, mu = read("kappa", (L,)), read("mu", (L,))
        noise_var, sparsity = read("scalars", (2,)).tolist()
        dataset = None
        if flags & FLAG_DATASET:
            (count,) = read("dataset count", (1,), "<u4").tolist()
            side = int(round(d**0.5))
            if side * side != d:
                raise CheckpointError(f"dataset dimension {d} is not a square")
            dataset = Dataset(images=read("dataset images", (count, d)), side=side)
        if handle.tell() != size:
            raise CheckpointError(f"trailing bytes after offset {handle.tell()}")

    try:
        model = ModelParams(
            basis=basis,
            dictionary=dictionary,
            freq=FrequencyTable(n=n, entries=entries, multiplicity=m),
            noise_var=noise_var,
            sparsity=sparsity,
            prior=TorusPrior(kappa=kappa, mu=mu),
        )
        model.validate()
    except ValueError as exc:
        raise InvariantError(str(exc)) from exc
    return CheckpointContents(model=model, n_grid=n_grid, dataset=dataset)


def load_checkpoint(path) -> ModelParams:
    return load_checkpoint_full(path).model


# Config file keys -> TrainConfig attributes.
CONFIG_KEYS = {
    "B": "batch_size",
    "T": "fista_steps",
    "N": "grid_size",
    "epochs": "epochs",
    "lr_phi": "lr_dict",
    "lr_w": "lr_basis",
    "alpha0": "code_init",
    "seed": "seed",
    "grad_mode": "grad_mode",
    "n": "torus_dim",
    "L": "n_freq",
    "K": "n_atoms",
    "m": "multiplicity",
    "D": "image_dim",
    "sigma2": "noise_var",
    "lambda": "sparsity",
    "include_zero": "include_zero_freq",
}


def _parse_value(text: str, target_type):
    if target_type is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {text!r}")
    return target_type(text)


def parse_config(path) -> TrainConfig:
    """Parse `key = value` lines ('#' comments); missing keys keep defaults."""
    cfg = TrainConfig()
    types = {f.name: type(f.default) for f in fields(TrainConfig)}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected `key = value`")
            key, _, value = body.partition("=")
            key = key.strip()
            value = value.strip()
            attr = CONFIG_KEYS.get(key)
            if attr is None:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            try:
                setattr(cfg, attr, _parse_value(value, types[attr]))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    try:
        cfg.validate()
        _check_widths({key: getattr(cfg, CONFIG_KEYS[key])
                      for key in ("D", "K", "L", "n", "m", "N")})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg
