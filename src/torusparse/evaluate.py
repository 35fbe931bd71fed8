"""Reconstruction, SNR scoring, latent traversals, and PGM grid export."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset
from .inference import infer_code, infer_code_batch
from .posterior import map_estimate, map_estimate_batch
from .torus import apply_transform, rotate_coeffs, rotate_pairs

EVAL_GRID_SIZE = 100


@dataclass(eq=False)
class Reconstruction:
    """One inferred (code, angle) pair and the image they regenerate."""

    code: np.ndarray
    angles: np.ndarray
    image_hat: np.ndarray


def reconstruct(image: np.ndarray, model, cfg,
                n_grid: int = EVAL_GRID_SIZE) -> Reconstruction:
    """Infer code and most probable angles, then regenerate the image.

    Evaluation runs on a finer angle grid than training (default 100
    samples per dimension) for higher quality angle estimates.
    """
    code, grid = infer_code(image, model, cfg, n_grid=n_grid)
    angles = map_estimate(grid)
    image_hat = apply_transform(model.operator(), angles, model.dictionary @ code)
    return Reconstruction(code=code, angles=angles, image_hat=image_hat)


def reconstruct_batch(images: np.ndarray, model, cfg,
                      n_grid: int = EVAL_GRID_SIZE, threads: int = 1):
    """Reconstruct many images; returns a list.

    Inference runs in tiles fixed by the images and the grid on up to
    ``threads`` threads, as in training; the images are then regenerated
    in one batched pass.
    """
    basis = model.basis
    codes, post = infer_code_batch(images, model, cfg, n_grid=n_grid, threads=threads)
    angles = map_estimate_batch(post)
    theta = angles @ model.freq.entries.T
    coeffs = (codes @ model.dictionary.T) @ basis
    hats = rotate_pairs(np.cos(theta), np.sin(theta), coeffs) @ basis.T
    return [
        Reconstruction(code=code, angles=ang, image_hat=hat)
        for code, ang, hat in zip(codes, angles, hats)
    ]


def snr(images, recons) -> float:
    """Pooled signal-to-noise power ratio: sum ||I||^2 / sum ||I - I_hat||^2.

    Linear ratio, not decibels. Perfect reconstruction returns +inf.
    ``images`` must be the exact vectors the reconstructions were computed
    from (normalized, if the reconstruction pipeline normalized them).
    """
    if isinstance(images, Dataset):
        images = images.images
    images = np.atleast_2d(np.asarray(images, dtype=float))
    if len(recons) == 0 or images.shape[0] != len(recons):
        raise ValueError("need a nonempty, matched set of images and reconstructions")
    hats = np.stack([r.image_hat for r in recons])
    signal = float(np.sum(images * images))
    noise = float(np.sum((images - hats) ** 2))
    if noise == 0.0:
        return math.inf
    return signal / noise


def latent_traversal(model, images, dim: int, s_from: float, s_to: float,
                     steps: int) -> np.ndarray:
    """Sweep one angle dimension across each image.

    ``dim`` is 1-based. Returns an array of shape (n_images, steps, D):
    row i, column j is image i transformed with the swept angle at value
    j and every other angle at zero.
    """
    if not 1 <= dim <= model.freq.n:
        raise ValueError(f"dim must be in 1..{model.freq.n}, got {dim}")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    for name, value in (("s_from", s_from), ("s_to", s_to)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    images = np.atleast_2d(np.asarray(images, dtype=float))
    if images.shape[-1] != model.dim:
        raise ValueError(f"expected vectors of length {model.dim}, got {images.shape[-1]}")
    # apply_transform's body on the basis as it is: the model was validated
    # when it was built or loaded, so no TorusOperator checks it again
    coeffs = images @ model.basis
    values = np.linspace(s_from, s_to, steps)
    out = np.empty((images.shape[0], steps, images.shape[1]))
    for j, val in enumerate(values):
        s = np.zeros(model.freq.n)
        s[dim - 1] = val
        out[:, j, :] = rotate_coeffs(model.freq, s, coeffs) @ model.basis.T
    return out


def export_grid(images, cols: int, path) -> None:
    """Write images as a tiled binary PGM (P5) grid.

    Values are min-max scaled over the whole grid to 0..255; tiles are
    laid out row-major with 1-pixel separators at value 0.
    """
    tiles = [np.asarray(im, dtype=float) for im in images]
    if not tiles:
        raise ValueError("no images to export")
    side = tiles[0].shape[0]
    for t in tiles:
        if t.shape != (side, side):
            raise ValueError("all images must share one square shape")
    if cols < 1:
        raise ValueError("cols must be >= 1")
    for idx, tile in enumerate(tiles):
        if not np.isfinite(tile).all():
            raise ValueError(f"image {idx} to export holds a non-finite value")
    lo = min(t.min() for t in tiles)
    hi = max(t.max() for t in tiles)
    span = hi - lo
    rows = -(-len(tiles) // cols)
    height = rows * side + (rows - 1)
    width = cols * side + (cols - 1)
    canvas = np.zeros((height, width), dtype=np.uint8)
    for idx, tile in enumerate(tiles):
        if span > 0:
            quantized = np.rint((tile - lo) / span * 255.0).astype(np.uint8)
        else:
            quantized = np.zeros_like(tile, dtype=np.uint8)
        r, c = divmod(idx, cols)
        top = r * (side + 1)
        left = c * (side + 1)
        canvas[top : top + side, left : left + side] = quantized
    with open(path, "wb") as handle:
        handle.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        handle.write(canvas.tobytes())
