"""Dataset plumbing: IDX ingestion, geometric warps, synthetic generation.

Warps resample with bilinear interpolation, zero fill outside the source
(or wraparound when cyclic), so any continuous parameter value is valid.
Synthetic generation derives an independent RNG per (seed, template,
sample) index, making parallel generation order-independent.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

TRANSLATE_DEFAULT = ((-7.0, 7.0), (-7.0, 7.0))
ROTSCALE_DEFAULT = ((-np.deg2rad(75.0), np.deg2rad(75.0)), (0.5, 1.0))


class IdxFormatError(ValueError):
    """Malformed IDX payload."""


@dataclass(eq=False)
class Dataset:
    """Flat image vectors with side length, plus ground-truth warp
    parameters when synthetically generated."""

    images: np.ndarray  # (M, side*side) in [0, 1] before normalization
    side: int
    meta: Optional[np.ndarray] = None  # (M, 2) warp parameters

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=float)
        if self.images.ndim != 2 or self.images.shape[1] != self.side * self.side:
            raise ValueError("images must be (M, side*side)")
        if self.meta is not None and len(self.meta) != len(self.images):
            raise ValueError("meta length must match image count")


@dataclass(eq=False)
class TransformSpec:
    """Which warp family to sample and over what parameter box."""

    kind: str  # "translate2d" | "rotscale"
    ranges: tuple  # ((lo, hi), (lo, hi))
    count_per_template: int
    cyclic: bool = False

    def __post_init__(self):
        if self.kind not in ("translate2d", "rotscale"):
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.count_per_template < 1:
            raise ValueError("count_per_template must be >= 1")
        for lo, hi in self.ranges:
            if hi < lo:
                raise ValueError("parameter range is inverted")

    @classmethod
    def translate2d(cls, count_per_template, ranges=TRANSLATE_DEFAULT, cyclic=False):
        return cls("translate2d", ranges, count_per_template, cyclic)

    @classmethod
    def rotscale(cls, count_per_template, ranges=ROTSCALE_DEFAULT):
        return cls("rotscale", ranges, count_per_template)


def load_idx_images(path) -> Dataset:
    """Parse a big-endian IDX3 image file into a Dataset scaled to [0, 1]."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 16:
        raise IdxFormatError(f"header truncated: {len(blob)} bytes, need 16")
    magic, count, rows, cols = struct.unpack(">IIII", blob[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(f"unexpected magic 0x{magic:08x} at byte 0")
    expected = 16 + count * rows * cols
    if len(blob) < expected:
        raise IdxFormatError(
            f"truncated payload: need {expected} bytes, file ends at byte {len(blob)}"
        )
    if len(blob) > expected:
        raise IdxFormatError(f"trailing bytes after offset {expected}")
    if rows != cols:
        raise IdxFormatError(f"images must be square, got {rows}x{cols}")
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16).astype(float) / 255.0
    return Dataset(images=pixels.reshape(count, rows * cols), side=rows)


def load_idx_labels(path) -> np.ndarray:
    """Parse a big-endian IDX1 label file into a uint8 vector."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if len(blob) < 8:
        raise IdxFormatError(f"header truncated: {len(blob)} bytes, need 8")
    magic, count = struct.unpack(">II", blob[:8])
    if magic != IDX_LABELS_MAGIC:
        raise IdxFormatError(f"unexpected magic 0x{magic:08x} at byte 0")
    if len(blob) != 8 + count:
        raise IdxFormatError(f"label payload length mismatch at byte {len(blob)}")
    return np.frombuffer(blob, dtype=np.uint8, offset=8).copy()


def _bilinear_sample(img: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                     cyclic: bool) -> np.ndarray:
    """Sample img at fractional (row, col) positions; zero fill or wrap."""
    side = img.shape[0]
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    fr = rows - r0
    fc = cols - c0
    out = np.zeros_like(rows, dtype=float)
    for dr, dc, weight in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        if cyclic:
            out += weight * img[np.mod(rr, side), np.mod(cc, side)]
        else:
            valid = (rr >= 0) & (rr < side) & (cc >= 0) & (cc < side)
            vals = img[np.clip(rr, 0, side - 1), np.clip(cc, 0, side - 1)]
            out += weight * np.where(valid, vals, 0.0)
    return out


def warp_translate(img: np.ndarray, dx: float, dy: float,
                   cyclic: bool = False) -> np.ndarray:
    """Shift image content by (dx, dy) pixels (columns, rows)."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"expected a square image, got shape {img.shape}")
    side = img.shape[0]
    rows = np.arange(side, dtype=float)[:, None] - dy + np.zeros((1, side))
    cols = np.arange(side, dtype=float)[None, :] - dx + np.zeros((side, 1))
    return _bilinear_sample(img, rows, cols, cyclic)


def warp_rot_scale(img: np.ndarray, theta: float, scale: float) -> np.ndarray:
    """Rotate by theta and scale about the pixel center of the image.

    Inverse mapping: each output pixel reads the source at its position
    rotated by -theta and divided by the scale factor.
    """
    if not 0 < scale <= 2:
        raise ValueError(f"scale must be in (0, 2], got {scale}")
    img = np.asarray(img, dtype=float)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"expected a square image, got shape {img.shape}")
    side = img.shape[0]
    center = (side - 1) / 2.0
    rr, cc = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float),
                         indexing="ij")
    u = rr - center
    v = cc - center
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    src_r = (cos_t * u + sin_t * v) / scale + center
    src_c = (-sin_t * u + cos_t * v) / scale + center
    return _bilinear_sample(img, src_r, src_c, cyclic=False)


def _sample_rng(seed: int, template_idx: int, sample_idx: int):
    return np.random.default_rng(
        np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, template_idx, sample_idx])
    )


def make_synthetic(templates, spec: TransformSpec, seed: int) -> Dataset:
    """Apply random warps to each template, template-major order.

    Parameters are drawn uniformly from the spec ranges using one RNG per
    (seed, template, sample) triple, and recorded in the dataset meta.
    """
    templates = [np.asarray(t, dtype=float) for t in templates]
    if not templates:
        raise ValueError("need at least one template")
    side = templates[0].shape[0]
    images = np.empty((len(templates) * spec.count_per_template, side * side))
    meta = np.empty((len(images), 2))
    (lo0, hi0), (lo1, hi1) = spec.ranges
    row = 0
    for ti, template in enumerate(templates):
        if template.shape != (side, side):
            raise ValueError("all templates must share one square shape")
        for si in range(spec.count_per_template):
            rng = _sample_rng(seed, ti, si)
            p0 = rng.uniform(lo0, hi0)
            p1 = rng.uniform(lo1, hi1)
            if spec.kind == "translate2d":
                warped = warp_translate(template, p0, p1, cyclic=spec.cyclic)
            else:
                warped = warp_rot_scale(template, p0, p1)
            images[row] = warped.ravel()
            meta[row] = (p0, p1)
            row += 1
    return Dataset(images=images, side=side, meta=meta)


def normalize_batch(images: np.ndarray) -> np.ndarray:
    """Scale each image vector to unit Euclidean norm.

    Raises ValueError naming the first image that has a non-finite pixel
    or a (near) zero norm.
    """
    images = np.asarray(images, dtype=float)
    single = images.ndim == 1
    batch = np.atleast_2d(images)
    finite = np.isfinite(batch).all(axis=1)
    if not finite.all():
        raise ValueError(f"image {int(np.argmin(finite))} has a non-finite pixel")
    norms = np.linalg.norm(batch, axis=1)
    if np.any(norms < 1e-12):
        first = int(np.flatnonzero(norms < 1e-12)[0])
        raise ValueError(f"image {first} is a zero image (norm below 1e-12)")
    out = batch / norms[:, None]
    return out[0] if single else out
