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

from .posterior import batch_posterior, natural_params, posterior_grid, posterior_pass
from .torus import rotate_pairs

POWER_ITERATIONS = 300
POWER_TOL = 1e-10


def spectral_norm(mat: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric PSD matrix by power iteration.

    Deterministic all-ones start; Rayleigh quotient estimate, iterating
    until the relative change drops below POWER_TOL (hard cap
    POWER_ITERATIONS, only reached for near-degenerate spectra where the
    estimate is accurate anyway).
    """
    k = mat.shape[0]
    v = np.full(k, 1.0 / math.sqrt(k))
    lam = 0.0
    for _ in range(POWER_ITERATIONS):
        w = mat @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        new_lam = float(v @ w)
        v = w / nrm
        if abs(new_lam - lam) <= POWER_TOL * max(1.0, abs(new_lam)):
            lam = new_lam
            break
        lam = new_lam
    return lam


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


def code_gradient(
    image: np.ndarray, code: np.ndarray, model, rbar: np.ndarray,
    mode: str = "approximate",
) -> np.ndarray:
    """Ascent gradient of the smooth objective part at the given code.

    ``exact`` differentiates the marginal log-likelihood; ``approximate``
    pushes the expected residual through the expected transform, which
    coincides with the exact form whenever the posterior is a point mass.
    The sparsity drift is deliberately absent: it lives in the prox.
    """
    image = np.asarray(image, dtype=float)
    code = np.asarray(code, dtype=float)
    coupling = model.basis.T @ model.dictionary
    if code.shape[-1] != coupling.shape[1]:
        raise ValueError("code length does not match dictionary size")
    if image.shape[-1] != model.basis.shape[0]:
        raise ValueError("image length does not match model dimension")
    u = code @ coupling.T
    v = image @ model.basis
    rc, rs = rbar[..., 0::2], rbar[..., 1::2]
    if mode == "exact":
        back = rotate_pairs(rc, rs, v, adjoint=True) - u
        return (back @ coupling) / model.noise_var
    if mode == "approximate":
        residual = image - rotate_pairs(rc, rs, u) @ model.basis.T
        back = rotate_pairs(rc, rs, residual @ model.basis, adjoint=True)
        return (back @ coupling) / model.noise_var
    raise ValueError(f"unknown gradient mode {mode!r}")


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


def infer_code_batch(images: np.ndarray, model, cfg, n_grid: int | None = None):
    """Run the full inference loop for a batch of images at once.

    Works only on the 2L basis coefficients v = B^T x of the images and
    u = B^T Phi a of the coded templates. Because B^T B = I, the
    approximate ascent residual R^T B^T (x - B R u) equals R^T v - rho * u,
    with R the expected rotation and rho_l = |r_l|^2 = c_l^2 + s_l^2 the
    squared length of its block l (R^T R is rho_l times the identity on
    each block). The exact residual is R^T v - u, i.e. rho = 1.

    The FISTA iterations take only r-bar from ``posterior_pass``; the
    normalised weights and their peaks are formed once, by a
    ``batch_posterior`` pass at the final codes. Returns (codes,
    BatchPosterior at the codes). Vectorizing over the batch is the
    deterministic realization of per-image parallelism: every reduction
    happens in a fixed order.
    """
    images = np.atleast_2d(np.asarray(images, dtype=float))
    if images.shape[1] != model.basis.shape[0]:
        raise ValueError("image length does not match model dimension")
    n_grid = cfg.grid_size if n_grid is None else n_grid
    exact = cfg.grad_mode == "exact"
    coupling = model.basis.T @ model.dictionary
    eta_prior = natural_params(model.prior)
    images_coeff = images @ model.basis
    problem = (coupling, eta_prior, model.noise_var, model.freq, n_grid)

    def ascent(codes):
        rbar = posterior_pass(images_coeff, codes, *problem)[-1]
        rc, rs = rbar[:, 0::2], rbar[:, 1::2]
        rho = 1.0 if exact else np.repeat(rc * rc + rs * rs, 2, axis=1)
        u = codes @ coupling.T
        back = rotate_pairs(rc, rs, images_coeff, adjoint=True) - rho * u
        return (back @ coupling) / model.noise_var

    step = fista_step_size(model)
    init = np.full((images.shape[0], model.dictionary.shape[1]), cfg.code_init)
    codes = fista(ascent, init, step, step * model.sparsity, cfg.fista_steps)
    return codes, batch_posterior(images_coeff, codes, *problem)[0]


def infer_code(image: np.ndarray, model, cfg, n_grid: int | None = None):
    """Infer the code for one image; returns (code, PosteriorGrid at the code)."""
    n_grid = cfg.grid_size if n_grid is None else n_grid
    codes, post = infer_code_batch(image, model, cfg, n_grid=n_grid)
    code = codes[0]
    grid = posterior_grid(post.eta_hat[0], model.freq, n_grid)
    return code, grid
