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

from .posterior import (
    _blocks,
    _fold,
    _half_spectrum,
    _unfold,
    batch_posterior,
    grid_tables,
    natural_params,
    posterior_grid,
    posterior_pass,
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


def infer_code_batch(images: np.ndarray, model, cfg, n_grid: int | None = None,
                     step: float | None = None, projection: np.ndarray | None = None):
    """Run the full inference loop for a batch of images at once.

    Works only on the 2L basis coefficients v = B^T x of the images and
    u = B^T Phi a of the coded templates. Because B^T B = I, the
    approximate ascent residual R^T B^T (x - B R u) equals R^T v - rho * u,
    with R the expected rotation: ``_ascent_residual``.

    v, C = B^T Phi and the prior's eta are mapped once per call into the
    half-spectrum frame of the grid table (``posterior._fold``), so the
    FISTA iterations run ``posterior_pass`` with no gather or conjugation
    of blocks. The gradient back . C / noise_var needs no unfold, since
    Re(conj(C) back) is the same in both frames; eta_hat and rbar are
    unfolded once, after the ``batch_posterior`` pass at the final codes
    that also forms the normalised weights and their peaks. Returns
    (codes, BatchPosterior at the codes). Vectorizing over the batch is the
    deterministic realization of per-image parallelism: every reduction
    happens in a fixed order. ``step`` is the FISTA step size, a function
    of the model alone (``fista_step_size``); callers that split one batch
    into chunks compute it once and pass it to each. ``projection``, a
    C-contiguous (B, 2L) float array, receives v = X B when given, so
    that a caller can reuse it.
    """
    images = np.atleast_2d(np.asarray(images, dtype=float))
    if images.shape[1] != model.basis.shape[0]:
        raise ValueError("image length does not match model dimension")
    n_grid = cfg.grid_size if n_grid is None else n_grid
    exact = cfg.grad_mode == "exact"
    tables = grid_tables(model.freq, n_grid)
    v = _fold(np.matmul(images, model.basis, out=projection), tables)
    images_coeff = v.view(float)
    coupling = _fold((model.basis.T @ model.dictionary).T, tables).view(float).T
    eta_prior = _fold(natural_params(model.prior), tables).view(float)
    problem = (coupling, eta_prior, model.noise_var,
               _half_spectrum(model.freq, n_grid), n_grid)
    scaled = coupling / model.noise_var

    def ascent(codes):
        u, *_, rbar = posterior_pass(images_coeff, codes, *problem)
        back = _ascent_residual(v, u.view(complex), rbar.view(complex), exact)
        return back.view(float) @ scaled

    step = fista_step_size(model) if step is None else step
    init = np.full((images.shape[0], model.dictionary.shape[1]), cfg.code_init)
    codes = fista(ascent, init, step, step * model.sparsity, cfg.fista_steps)
    post = batch_posterior(images_coeff, codes, *problem)[0]
    post.eta_hat = _unfold(post.eta_hat.view(complex), tables)
    post.rbar = _unfold(post.rbar.view(complex), tables)
    return codes, post


def infer_code(image: np.ndarray, model, cfg, n_grid: int | None = None):
    """Infer the code for one image; returns (code, PosteriorGrid at the code)."""
    n_grid = cfg.grid_size if n_grid is None else n_grid
    codes, post = infer_code_batch(image, model, cfg, n_grid=n_grid)
    code = codes[0]
    grid = posterior_grid(post.eta_hat[0], model.freq, n_grid)
    return code, grid
