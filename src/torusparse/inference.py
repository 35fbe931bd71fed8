"""MAP inference of the nonnegative sparse code via accelerated proximal steps.

The smooth part of the objective is the marginal log-likelihood with the
transform angles integrated out; its gradient needs the expected rotation
under the current angle posterior, so every iteration recomputes the
posterior at the momentum point. The exponential prior contributes a
constant negative drift on the support, handled by a nonnegative
soft-threshold proximal map rather than a subgradient.
"""

from __future__ import annotations

import math

import numpy as np

from .lanes import check_threads
from .posterior import (
    _blocks,
    _eta_from_coefficients,
    _fold,
    batch_posterior,
    concat_posteriors,
    grid_pass,
    grid_tables,
    natural_params,
    posterior_grid,
)


def spectral_norm(mat: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix (LAPACK ``eigvalsh``, which
    reads its lower triangle); NaN when ``mat`` holds a non-finite entry,
    which LAPACK would refuse."""
    if not np.isfinite(mat).all():
        return math.nan
    return float(np.linalg.eigvalsh(mat)[-1])


def fista_step_size(model) -> float:
    """Reciprocal of 1.5x the spectral norm of the smooth-part curvature.

    The curvature matrix is (1/noise_var) * C.T C with C the dictionary
    expressed in the basis; the 1.5 factor is a safety margin on the
    Lipschitz estimate.
    """
    coupling = model.basis.T @ model.dictionary
    lam = spectral_norm(coupling.T @ coupling) / model.noise_var
    if lam <= 0.0:
        raise ValueError("dictionary has no energy in the basis span (zero curvature)")
    return 1.0 / (1.5 * lam)


def prox_exponential(x: np.ndarray, threshold: float) -> np.ndarray:
    """Nonnegative soft threshold: componentwise max(x - threshold, 0)."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    return np.maximum(x - threshold, 0.0)


def _ascent_residual(v, u, rbar, exact: bool) -> np.ndarray:
    """The ascent residual on complex blocks, the one kernel of every code
    and training gradient: conj(rbar) v - u in ``exact`` mode, else
    conj(rbar) (v - rbar u), for the coefficients v of the images, u of
    the coded templates and rbar of the expected rotation. Per block these
    are R^T v - u and R^T v - rho u, rho = |rbar|^2, since R^T R = rho I on
    a block. The formula is the same in block order and in a grid table's
    half-spectrum frame (``posterior._fold``). Operand order is kept as
    written: numpy's complex product may round a * b and b * a apart."""
    if exact:
        return rbar.conj() * v - u
    return (v - rbar * u) * rbar.conj()


def code_gradient(
    image: np.ndarray, code: np.ndarray, model, rbar: np.ndarray,
    mode: str = "approximate",
) -> np.ndarray:
    """Ascent gradient of the smooth objective part at the given code.

    ``exact`` differentiates the marginal log-likelihood; ``approximate``
    pushes the expected residual through the expected transform, which
    coincides with the exact form whenever the posterior is a point mass.
    The sparsity drift is deliberately absent: it lives in the prox. A
    1-image call of ``_ascent_residual``, as FISTA runs it.
    """
    image = np.asarray(image, dtype=float)
    code = np.asarray(code, dtype=float)
    coupling = model.basis.T @ model.dictionary
    if code.shape[-1] != coupling.shape[1]:
        raise ValueError("code length does not match dictionary size")
    if image.shape[-1] != model.basis.shape[0]:
        raise ValueError("image length does not match model dimension")
    if mode not in ("exact", "approximate"):
        raise ValueError(f"unknown gradient mode {mode!r}")
    back = _ascent_residual(_blocks(image @ model.basis), _blocks(code @ coupling.T),
                            _blocks(rbar), mode == "exact")
    return (back.view(float) @ coupling) / model.noise_var


def fista(gradient, init: np.ndarray, step: float, threshold: float, steps: int):
    """Nonnegative FISTA: ``steps`` ascent steps along ``gradient`` taken at
    the momentum point, each followed by the soft-threshold prox."""
    code = momentum = init
    t = 1.0
    for it in range(steps):
        new_code = prox_exponential(momentum + step * gradient(momentum), threshold)
        if not np.isfinite(new_code).all():
            raise FloatingPointError(f"non-finite code at inference iteration {it}")
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        momentum = new_code + ((t - 1.0) / t_next) * (new_code - code)
        code, t = new_code, t_next
    return code


# Most posterior weights (float64, 1 MB) one inference tile may hold, so
# that tiles running at the same time stay small in memory.
CHUNK_WEIGHTS = 131072


def _tile_slices(total: int, grid_points: int):
    """Even row slices, as few as keep each slice's (rows, grid_points)
    posterior weights within CHUNK_WEIGHTS (a slice of one row may hold
    more). They depend on the data alone, never on a thread count."""
    rows = max(1, CHUNK_WEIGHTS // grid_points)
    tiles = max(1, -(-total // rows))
    bounds = np.linspace(0, total, tiles + 1).astype(int)
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def infer_code_batch(images: np.ndarray, model, cfg, n_grid: int | None = None,
                     threads: int = 1, projection: np.ndarray | None = None):
    """MAP codes of a batch of images with the angles integrated out, for
    training and evaluation alike; returns (codes, BatchPosterior at the
    codes).

    The batch is cut into tiles fixed by the data (``_tile_slices``), and
    each of min(threads, tiles) pool threads runs one FISTA loop,
    ``_infer_tiles``, over a contiguous run of whole tiles while the
    calling thread waits; a batch of one tile runs on the caller. Every
    product whose rounding could depend on its row count (v = X B,
    u = codes C^T, the grid passes, the gradient back . C / noise_var and
    the final ``batch_posterior`` pass) runs once per tile, so the bits
    depend on the tiles alone, never on ``threads``. The elementwise work
    of an iteration (eta, the ascent residual, the prox, the momentum and
    the finite check) runs once per loop, and the step size
    (``fista_step_size``) once per call.

    The loops work only on the 2L basis coefficients v = B^T x of the
    images and u = B^T Phi a of the coded templates. Because B^T B = I,
    the approximate ascent residual R^T B^T (x - B R u) equals
    R^T v - rho * u, with R the expected rotation: ``_ascent_residual``.
    v, C = B^T Phi and the prior's eta are mapped once per loop into the
    half-spectrum frame of the grid table (``posterior._fold``), where the
    iterations run ``grid_pass``; the gradient needs no unfold, since
    Re(conj(C) back) is the same in both frames. The final pass takes the
    block-order problem and forms eta_hat, rbar, the normalised weights
    and their peaks. ``projection``, a C-contiguous (B, 2L) float array,
    receives v = X B when given, so that a caller can reuse it.
    """
    check_threads(threads)
    images = np.atleast_2d(np.asarray(images, dtype=float))
    if images.shape[1] != model.basis.shape[0]:
        raise ValueError("image length does not match model dimension")
    if images.shape[0] == 0:
        raise ValueError("cannot infer codes for an empty batch of images")
    n_grid = cfg.grid_size if n_grid is None else n_grid
    tiles = _tile_slices(images.shape[0], n_grid**model.freq.n)
    step = fista_step_size(model)  # shared by every group

    def infer(group):
        rows = slice(group[0].start, group[-1].stop)
        return _infer_tiles(
            images[rows], model, cfg, n_grid, step,
            None if projection is None else projection[rows],
            tiles=[slice(t.start - rows.start, t.stop - rows.start) for t in group])

    if len(tiles) == 1:
        return infer(tiles)
    from concurrent.futures import ThreadPoolExecutor  # slow to import

    # The groups run on pool threads while the calling thread only waits,
    # not on ``Lanes``, where the caller would take a group too. Its own
    # group would then run at the same time as a pool thread's, and a
    # profile that adds the calling thread's self time to the wall time
    # pool threads cover (the benchmark's check that self time accounts
    # for the wall time) would count that overlap twice.
    grid_tables(model.freq, n_grid)  # build them once, before the groups race
    count = min(threads, len(tiles))
    bounds = [len(tiles) * k // count for k in range(count + 1)]
    groups = [tiles[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    with ThreadPoolExecutor(max_workers=count) as pool:
        parts = list(pool.map(infer, groups))
    codes = np.concatenate([p[0] for p in parts], axis=0)
    return codes, concat_posteriors([p[1] for p in parts])


def _infer_tiles(images, model, cfg, n_grid, step, projection, tiles):
    """One FISTA loop over ``images`` in the row slices ``tiles``, at the
    step size ``step``: the body of ``infer_code_batch``."""
    exact = cfg.grad_mode == "exact"
    if projection is None:
        projection = np.empty((images.shape[0], model.basis.shape[1]))
    for t in tiles:
        np.matmul(images[t], model.basis, out=projection[t])
    coupling = model.basis.T @ model.dictionary
    eta_prior = natural_params(model.prior)
    tables = grid_tables(model.freq, n_grid)
    v = _fold(projection, tables)
    coupling_frame = _fold(coupling.T, tables).view(float)
    eta_frame = _fold(eta_prior, tables).view(float)
    scaled = coupling_frame.T / model.noise_var
    u = np.empty(projection.shape)
    grad = np.empty((images.shape[0], coupling.shape[1]))

    def ascent(codes):
        for t in tiles:
            np.matmul(codes[t], coupling_frame, out=u[t])
        # each tile's rbar takes the rows of its eta_hat, which nothing
        # reads after the tile's pass: one (B, 2L) array fewer held
        rbar = _eta_from_coefficients(u, v.view(float), eta_frame, model.noise_var)
        for t in tiles:
            rbar[t] = grid_pass(rbar[t], tables)[3]
        back = _ascent_residual(v, u.view(complex), rbar.view(complex), exact).view(float)
        for t in tiles:
            np.matmul(back[t], scaled, out=grad[t])
        return grad

    init = np.full((images.shape[0], model.dictionary.shape[1]), cfg.code_init)
    codes = fista(ascent, init, step, step * model.sparsity, cfg.fista_steps)
    post = concat_posteriors([
        batch_posterior(projection[t], codes[t], coupling, eta_prior, model.noise_var,
                        model.freq, n_grid)[0]
        for t in tiles])
    return codes, post


def infer_code(image: np.ndarray, model, cfg, n_grid: int | None = None):
    """Infer the code for one image; returns (code, PosteriorGrid at the code)."""
    n_grid = cfg.grid_size if n_grid is None else n_grid
    codes, post = infer_code_batch(image, model, cfg, n_grid=n_grid)
    code = codes[0]
    grid = posterior_grid(post.eta_hat[0], model.freq, n_grid)
    return code, grid
