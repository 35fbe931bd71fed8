"""Conjugate prior and grid posterior over the transform angles.

Both the prior and the conditional posterior of the angle vector are
exponential-family densities on the torus whose sufficient statistics are
the blockwise cosines and sines. The posterior natural parameter is the
prior one plus a data term, so inference reduces to one parameter update
followed by quadrature on a uniform periodic grid (spectrally accurate
for these integrands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .torus import TWO_PI, FrequencyTable

GRID_POINT_LIMIT = 10_000_000

_TABLE_CACHE: dict = {}


@dataclass(eq=False)
class TorusPrior:
    """Per-block concentration/offset pairs; all-zero concentrations = uniform."""

    kappa: np.ndarray  # (L,) nonnegative
    mu: np.ndarray  # (L,) radians

    def __post_init__(self):
        self.kappa = np.asarray(self.kappa, dtype=float).reshape(-1)
        self.mu = np.asarray(self.mu, dtype=float).reshape(-1)
        if self.kappa.shape != self.mu.shape:
            raise ValueError("kappa and mu must have equal length")
        if np.any(self.kappa < 0):
            raise ValueError("concentrations must be nonnegative")

    @classmethod
    def uniform(cls, L: int) -> "TorusPrior":
        return cls(kappa=np.zeros(L), mu=np.zeros(L))


def natural_params(prior: TorusPrior) -> np.ndarray:
    """Interleave [k1*cos(mu1), k1*sin(mu1), ..., kL*cos(muL), kL*sin(muL)]."""
    eta = np.empty(2 * prior.kappa.shape[0])
    eta[0::2] = prior.kappa * np.cos(prior.mu)
    eta[1::2] = prior.kappa * np.sin(prior.mu)
    return eta


def grid_lattice(n: int, N: int) -> np.ndarray:
    """Integer lattice of all grid multi-indices, C-order flattened, shape (N**n, n)."""
    axes = np.meshgrid(*([np.arange(N)] * n), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, n)


def grid_tables(freq: FrequencyTable, N: int) -> np.ndarray:
    """Interleaved cosine/sine table of shape (N**n, 2L) over the uniform
    angle grid: column 2l holds cos(omega_l . s), column 2l+1 sin(omega_l . s),
    matching the (cos, sin) order of natural parameters and expected rotations.

    Cached per (table, N): the same table is reused across every
    inference call during training.
    """
    if N < 2:
        raise ValueError("grid size N must be >= 2")
    if N**freq.n > GRID_POINT_LIMIT:
        raise ValueError(
            f"grid has {N**freq.n} points; limit is {GRID_POINT_LIMIT} "
            f"(n={freq.n}, N={N})"
        )
    key = freq.cache_key() + (N,)
    hit = _TABLE_CACHE.get(key)
    if hit is not None:
        return hit
    theta = grid_lattice(freq.n, N) @ (freq.entries.T * (TWO_PI / N))
    table = np.empty((theta.shape[0], 2 * freq.L))
    np.cos(theta, out=table[:, 0::2])
    np.sin(theta, out=table[:, 1::2])
    _TABLE_CACHE[key] = table
    return table


@dataclass(eq=False)
class PosteriorGrid:
    """Discretized angle posterior: normalized weights over the uniform grid.

    ``log_norm`` is the log of the quadrature normalizer
    (2*pi/N)^n * sum(exp(energy)), computed max-shifted.
    """

    N: int
    n: int
    eta_hat: np.ndarray  # (2L,)
    weights: np.ndarray  # (N**n,) summing to one
    log_norm: float


def posterior_natural_params(
    image: np.ndarray, code: np.ndarray, model
) -> np.ndarray:
    """Posterior natural parameter: prior plus the per-block data coupling.

    With u the basis coefficients of the coded template and v those of the
    image, block l receives (u.v, u x v) / noise_var in (cos, sin) order.
    """
    image = np.asarray(image, dtype=float)
    code = np.asarray(code, dtype=float)
    if image.shape[-1] != model.basis.shape[0]:
        raise ValueError("image length does not match model dimension")
    if code.shape[-1] != model.dictionary.shape[1]:
        raise ValueError("code length does not match dictionary size")
    u = (model.dictionary @ code) @ model.basis
    v = image @ model.basis
    return _eta_from_coefficients(u, v, natural_params(model.prior), model.noise_var)


def _eta_from_coefficients(u, v, eta_prior, noise_var):
    uc, us = u[..., 0::2], u[..., 1::2]
    vc, vs = v[..., 0::2], v[..., 1::2]
    eta_hat = np.empty(np.broadcast_shapes(u.shape, v.shape))
    eta_hat[..., 0::2] = eta_prior[0::2] + (uc * vc + us * vs) / noise_var
    eta_hat[..., 1::2] = eta_prior[1::2] + (uc * vs - us * vc) / noise_var
    return eta_hat


def posterior_grid(eta_hat: np.ndarray, freq: FrequencyTable, N: int) -> PosteriorGrid:
    """Evaluate the discretized posterior for one natural parameter vector."""
    energy = grid_tables(freq, N) @ eta_hat
    shift = energy.max()
    weights = np.exp(energy - shift)
    total = weights.sum()
    weights /= total
    log_norm = shift + math.log(total) + freq.n * math.log(TWO_PI / N)
    return PosteriorGrid(
        N=N, n=freq.n, eta_hat=np.array(eta_hat, dtype=float), weights=weights,
        log_norm=log_norm,
    )


def expected_rotation(grid: PosteriorGrid, freq: FrequencyTable) -> np.ndarray:
    """Per-block posterior means of (cos, sin), interleaved into a 2L vector.

    These 2L numbers are the blockwise representation of the expected
    rotation; the dense matrix is never formed.
    """
    return grid.weights @ grid_tables(freq, grid.N)


def map_estimate(grid: PosteriorGrid) -> np.ndarray:
    """Grid point of maximum posterior weight (ties: lowest flat index)."""
    idx = int(np.argmax(grid.weights))
    coords = np.unravel_index(idx, (grid.N,) * grid.n)
    return np.array(coords, dtype=float) * (TWO_PI / grid.N)


def log_likelihood(image: np.ndarray, code: np.ndarray, model, N: int) -> float:
    """Marginal log-likelihood of an image given its code, angles integrated out.

    Closed form up to the two normalizers, both evaluated with the same
    grid quadrature so that downstream gradients are exact for the
    discretized objective.
    """
    image = np.asarray(image, dtype=float)
    u = (model.dictionary @ np.asarray(code, dtype=float)) @ model.basis
    eta = natural_params(model.prior)
    eta_hat = posterior_natural_params(image, code, model)
    log_norm_post = posterior_grid(eta_hat, model.freq, N).log_norm
    log_norm_prior = posterior_grid(eta, model.freq, N).log_norm
    d = image.shape[-1]
    return (
        -(u @ u + image @ image) / (2.0 * model.noise_var)
        - 0.5 * d * math.log(TWO_PI * model.noise_var)
        + log_norm_post
        - log_norm_prior
    )


@dataclass(eq=False)
class BatchPosterior:
    """Posterior summaries for a batch of images at their final codes."""

    eta_hat: np.ndarray  # (B, 2L)
    rbar: np.ndarray  # (B, 2L) expected rotation pairs
    peak_index: np.ndarray  # (B,) flat argmax per image
    n: int
    N: int


def map_estimate_batch(post: BatchPosterior) -> np.ndarray:
    coords = np.stack(
        np.unravel_index(post.peak_index, (post.N,) * post.n), axis=-1
    )
    return coords.astype(float) * (TWO_PI / post.N)


def batch_posterior(
    images_coeff: np.ndarray,
    codes: np.ndarray,
    coupling: np.ndarray,
    eta_prior: np.ndarray,
    noise_var: float,
    freq: FrequencyTable,
    N: int,
):
    """Vectorized posterior pass for a batch.

    ``images_coeff`` is (B, 2L) of basis coefficients of the images and
    ``coupling`` the (2L, K) matrix of basis coefficients of the
    dictionary, so u = codes @ coupling.T. Returns (BatchPosterior,
    weights) with weights (B, N**n); summation orders are fixed, so
    results are reproducible bit for bit.
    """
    table = grid_tables(freq, N)
    u = codes @ coupling.T
    eta_hat = _eta_from_coefficients(u, images_coeff, eta_prior, noise_var)
    energy = eta_hat @ table.T
    energy -= energy.max(axis=1, keepdims=True)
    np.exp(energy, out=energy)
    energy /= energy.sum(axis=1, keepdims=True)
    weights = energy
    post = BatchPosterior(
        eta_hat=eta_hat,
        rbar=weights @ table,
        peak_index=np.argmax(weights, axis=1),
        n=freq.n,
        N=N,
    )
    return post, weights

