"""Dataset plumbing: IDX ingestion, geometric warps, synthetic generation.

Warps resample with bilinear interpolation, zero fill outside the source
(or wraparound when cyclic), so any continuous parameter value is valid.
Synthetic generation draws each sample's parameters from its own PCG64
stream, keyed by (seed, template, sample), so no batching or order of
generation changes them.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lanes import Lanes, check_threads

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

TRANSLATE_DEFAULT = ((-7.0, 7.0), (-7.0, 7.0))
ROTSCALE_DEFAULT = ((-np.deg2rad(75.0), np.deg2rad(75.0)), (0.5, 1.0))
PARAMETER_NAMES = {"translate2d": ("dx", "dy"), "rotscale": ("theta", "scale")}
# Largest shift a translation range may reach: past it a float holds no
# fractional pixel, and past 2**63 the floor of a position no longer fits
# the int64 pixel index, so a cyclic warp would read garbage weights.
MAX_SHIFT = 2.0**52
# Most samples per template: sample s enters the SeedSequence entropy as one
# uint32 word, so s = 2**32 would repeat the parameters of sample 0.
MAX_COUNT = 2**32

# Output pixels warped per pass of make_synthetic (41 images at 28x28): the
# temporaries of one pass stay a few MB, where one pass over all samples
# would hold about 15 arrays of the whole dataset's size.
WARP_PIXELS = 1 << 15


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
        if self.count_per_template > MAX_COUNT:
            raise ValueError(f"count_per_template {self.count_per_template} exceeds 2**32")
        if len(self.ranges) != 2:
            raise ValueError(f"expected two (lo, hi) ranges, got {len(self.ranges)}")
        for name, (lo, hi) in zip(PARAMETER_NAMES[self.kind], self.ranges):
            for which, bound in (("low", lo), ("high", hi)):
                if not np.isfinite(bound):
                    raise ValueError(f"{name} {which} bound {bound} is not finite")
            if hi < lo:
                raise ValueError("parameter range is inverted")
            if not np.isfinite(hi - lo):
                raise ValueError(f"{name} range ({lo}, {hi}) is wider than a float holds")
            if self.kind == "translate2d" and max(-lo, hi) > MAX_SHIFT:
                raise ValueError(f"{name} range ({lo}, {hi}) shifts beyond 2**52 pixels")
        if self.kind == "rotscale" and not 0 < self.ranges[1][0] <= self.ranges[1][1] <= 2:
            raise ValueError(f"scale range {tuple(self.ranges[1])} must lie in (0, 2]")

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
    if rows == 0:
        raise IdxFormatError("images must be at least 1x1, got 0x0")
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16).astype(float)
    pixels /= 255.0  # in place: one float array, not two
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


def _bilinear_sample(imgs: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                     cyclic: bool, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sample each imgs[s] at fractional (row, col) positions; zero fill or wrap.

    imgs is (S, side, side); rows and cols broadcast to (S, side, side), the
    shape of the result, which is written to ``out`` when given. The
    four corners of every sample are gathered at once through flat indices
    into a framed copy of the images. Cyclic frames append row 0 and
    column 0 after the last ones, so corner r + 1 of a wrapped r needs no
    second wrap. Zero frames add two zero rows and columns on every side,
    and a top-left corner clipped into [-2, side] reads zeros for both of
    its rows (columns) whenever the unclipped ones lie outside the image.
    """
    count, side = imgs.shape[0], imgs.shape[1]
    if cyclic:
        framed, pad = np.pad(imgs, ((0, 0), (0, 1), (0, 1)), mode="wrap"), 0
    else:
        framed, pad = np.zeros((count, side + 4, side + 4)), 2
        framed[:, 2:-2, 2:-2] = imgs
    width = framed.shape[1]
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    fr = rows - r0
    fc = cols - c0
    gr = 1 - fr
    gc = 1 - fc
    if cyclic:
        r0, c0 = np.mod(r0, side), np.mod(c0, side)
    else:
        r0, c0 = np.clip(r0, -2, side), np.clip(c0, -2, side)
    base = (np.arange(count) * (width * width) + pad * (width + 1))[:, None, None]
    corner = (base + r0 * width) + c0
    del r0, c0  # two block-sized arrays fewer while the corners are gathered
    shape = np.broadcast_shapes(corner.shape, fr.shape, fc.shape)
    if out is None:
        out = np.zeros(shape)
    else:
        out[...] = 0.0
    weight, taken = np.empty(shape), np.empty(shape)
    # corners at offsets 0, 1, width and width + 1; every index is in the
    # frame (wrapped or clipped above), so "clip" mode changes none
    for step, a, b in ((0, gr, gc), (1, gr, fc), (width - 1, fr, gc), (1, fr, fc)):
        corner += step
        np.multiply(a, b, out=weight)
        framed.take(corner, out=taken, mode="clip")
        taken *= weight
        out += taken
    return out


def _translate_positions(side: int, dx: np.ndarray, dy: np.ndarray):
    """Source (rows, cols) of S translated images, shapes (S, side, 1) and
    (S, 1, side): each output pixel reads its position less the shift."""
    grid = np.arange(side, dtype=float)
    rows = grid[None, :, None] - dy[:, None, None]
    cols = grid[None, None, :] - dx[:, None, None]
    return rows, cols


def _rot_scale_positions(side: int, theta: np.ndarray, scale: np.ndarray):
    """Source (rows, cols) of S rotated and scaled images, each (S, side, side):
    each output pixel reads its offset from the pixel center rotated by
    -theta and divided by the scale factor."""
    center = (side - 1) / 2.0
    u = np.arange(side, dtype=float)[:, None] - center
    v = np.arange(side, dtype=float)[None, :] - center
    cos_t = np.cos(theta)[:, None, None]
    sin_t = np.sin(theta)[:, None, None]
    scale = scale[:, None, None]
    src_r = (cos_t * u + sin_t * v) / scale + center
    src_c = (-sin_t * u + cos_t * v) / scale + center
    return src_r, src_c


def _square_image(img) -> np.ndarray:
    img = np.asarray(img, dtype=float)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValueError(f"expected a square image, got shape {img.shape}")
    return img


def warp_translate(img: np.ndarray, dx: float, dy: float,
                   cyclic: bool = False) -> np.ndarray:
    """Shift image content by (dx, dy) pixels (columns, rows)."""
    img = _square_image(img)
    rows, cols = _translate_positions(img.shape[0], np.array([dx], dtype=float),
                                      np.array([dy], dtype=float))
    return _bilinear_sample(img[None], rows, cols, cyclic)[0]


def warp_rot_scale(img: np.ndarray, theta: float, scale: float) -> np.ndarray:
    """Rotate by theta and scale about the pixel center of the image.

    Inverse mapping: each output pixel reads the source at its position
    rotated by -theta and divided by the scale factor.
    """
    if not 0 < scale <= 2:
        raise ValueError(f"scale must be in (0, 2], got {scale}")
    img = _square_image(img)
    rows, cols = _rot_scale_positions(img.shape[0], np.array([theta], dtype=float),
                                      np.array([scale], dtype=float))
    return _bilinear_sample(img[None], rows, cols, cyclic=False)[0]


# numpy.random.SeedSequence hash constants and the PCG64 (XSL-RR) multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_PCG_MULT_LO_HALVES = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_SEED_MASK = 2**64 - 1

# Samples whose parameters are drawn per pass of _draw_parameters: about
# 40 uint32/uint64 temporaries of this length, a few MB in all.
DRAW_SAMPLES = 1 << 14


def _hash_steps(init: int, mult: int, count: int):
    """(xor, multiplier) constants of the first count SeedSequence hash
    steps: the running multiplier does not depend on the data hashed."""
    steps = []
    for _ in range(count):
        nxt = init * mult & 0xFFFFFFFF
        steps.append((np.uint32(init), np.uint32(nxt)))
        init = nxt
    return steps


_POOL_STEPS = _hash_steps(_INIT_A, _MULT_A, 16)  # 4 pool fills, 12 cross mixes
_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 8)  # generate_state(4, uint64)


def _hash(value, step):
    """SeedSequence's hashmix (and one generate_state word) for one step."""
    xor, mult = step
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    """SeedSequence's mix of pool word x with hashed word y."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> np.uint32(16))


def _mul_hi(a):
    """High 64 bits of the 128-bit products a * _PCG_MULT_LO, by 32-bit halves."""
    (b0, b1), a0, a1 = _PCG_MULT_LO_HALVES, a & _LOW32, a >> _32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> _32) + (p10 >> _32) + (mid >> _32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + increment mod 2**128."""
    prod_hi = _mul_hi(lo) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    return _add128(prod_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _draw_parameters(seed: int, n_templates: int, count: int, ranges) -> np.ndarray:
    """(n_templates * count, 2) warp parameters, template-major.

    Row t * count + s holds two uniform draws of
    np.random.default_rng(np.random.SeedSequence([seed mod 2**64, t, s])),
    bit for bit: the SeedSequence pool and generate_state(4, uint64), the
    PCG64 seeding and two XSL-RR outputs x, and lo + (hi - lo) * (x >> 11)
    * 2**-53, all computed for DRAW_SAMPLES samples per pass in uint32 and
    uint64 arrays (array arithmetic wraps without warnings). t and s are
    one 32-bit entropy word each, which holds below 2**32 samples
    (TransformSpec refuses more than MAX_COUNT per template).
    """
    seed = operator.index(seed) & _SEED_MASK
    words = [seed & 0xFFFFFFFF, seed >> 32] if seed >> 32 else [seed]
    # length-1 arrays, not scalars: scalar integer overflow warns
    head = [np.array([word], dtype=np.uint32) for word in words]
    pad = [np.zeros(1, dtype=np.uint32)] * (2 - len(words))
    ranges = [(float(lo), float(hi)) for lo, hi in ranges]
    meta = np.empty((n_templates * count, 2))
    for start in range(0, len(meta), DRAW_SAMPLES):
        stop = min(start + DRAW_SAMPLES, len(meta))
        t, s = np.divmod(np.arange(start, stop), count)
        entropy = head + [t.astype(np.uint32), s.astype(np.uint32)] + pad
        pool = [_hash(word, step) for word, step in zip(entropy, _POOL_STEPS)]
        steps = iter(_POOL_STEPS[4:])
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hash(pool[src], next(steps)))
        generated = [_hash(pool[k % 4], step).astype(np.uint64)
                     for k, step in enumerate(_STATE_STEPS)]
        # little-endian word pairs: seed = (w0, w1), stream = (w2, w3) (high, low)
        w = [generated[2 * k] | (generated[2 * k + 1] << _32) for k in range(4)]
        inc_hi = (w[2] << np.uint64(1)) | (w[3] >> np.uint64(63))
        inc_lo = (w[3] << np.uint64(1)) | np.uint64(1)
        # PCG64 seeding: state = (increment + seed) * multiplier + increment
        hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, w[0], w[1]), inc_hi, inc_lo)
        for column, (low, high) in enumerate(ranges):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            x, rot = hi ^ lo, hi >> np.uint64(58)  # XSL-RR output
            x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
            unit = (x >> np.uint64(11)).astype(float) * 2.0**-53
            meta[start:stop, column] = low + (high - low) * unit
    return meta


def make_synthetic(templates, spec: TransformSpec, seed: int,
                   threads: int = 1) -> Dataset:
    """Apply random warps to each template, template-major order.

    Sample s of template t takes its two parameters, in spec.ranges
    order, from two `uniform` draws of a PCG64 generator seeded with
    np.random.SeedSequence([seed mod 2**64, t, s]); the meta rows hold
    them. All samples' draws run as one vectorised pass over blocks of
    DRAW_SAMPLES samples. The images are then warped in blocks of
    WARP_PIXELS output pixels, shared out to ``threads`` lanes, the
    calling thread among them. Each block writes its own rows
    of the result, so the bytes do not depend on the thread count. Raises
    ValueError naming the first sample whose warp has a non-finite pixel,
    whichever thread warped it.
    """
    check_threads(threads)  # before the draws, which a huge count makes large
    templates = [np.asarray(t, dtype=float) for t in templates]
    if not templates:
        raise ValueError("need at least one template")
    side = templates[0].shape[0]
    if any(t.shape != (side, side) for t in templates):
        raise ValueError("all templates must share one square shape")
    if side == 0:
        raise ValueError("templates must be at least 1x1, got 0x0")
    count = spec.count_per_template
    meta = _draw_parameters(seed, len(templates), count, spec.ranges)

    stack = np.stack(templates)
    cyclic = spec.cyclic and spec.kind == "translate2d"  # rotations zero-fill
    positions = _translate_positions if spec.kind == "translate2d" else _rot_scale_positions
    images = np.empty((len(meta), side, side))
    block = max(1, WARP_PIXELS // (side * side))

    def warp(start):
        """Warp one block into its rows of images; its per-sample finite flags."""
        stop = min(start + block, len(meta))
        with np.errstate(invalid="ignore", over="ignore"):
            rows, cols = positions(side, meta[start:stop, 0], meta[start:stop, 1])
            _bilinear_sample(stack[np.arange(start, stop) // count], rows, cols, cyclic,
                             out=images[start:stop])
        return np.isfinite(images[start:stop]).reshape(stop - start, -1).all(axis=1)

    with Lanes(threads) as lanes:
        finite = np.concatenate(lanes.map(warp, range(0, len(meta), block)))
    if not finite.all():
        row = int(np.argmin(finite))
        (name0, name1), (value0, value1) = PARAMETER_NAMES[spec.kind], meta[row]
        raise ValueError(
            f"template {row // count} sample {row % count} "
            f"({name0}={float(value0)!r}, {name1}={float(value1)!r}) "
            "warps to a non-finite pixel"
        )
    return Dataset(images=images.reshape(len(meta), side * side), side=side, meta=meta)


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
