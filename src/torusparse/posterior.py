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
# Images per pass of ``rotation_second_moment``: each pass gathers
# (rows, 2L^2) complex values, 8.4 MB at L = 128.
MOMENT_ROWS = 16

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
        for name in ("kappa", "mu"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if bad.size:
                raise ValueError(f"prior {name}[{bad[0]}] is not finite")
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


def grid_tables(freq: FrequencyTable, N: int) -> tuple:
    """Separable factors of the grid phases e^{i omega_l . s}, s = 2 pi j / N.

    Returns a tuple of arrays: for each torus axis k, the (N, A_k) complex
    table e^{2 pi i a j / N} over the A_k distinct values a of component k
    (ascending), then the (L,) index of each block's cell in the C-ordered
    A_1 x ... x A_n box. On a torus e^{i omega . s} = prod_k e^{i omega_k s_k},
    so the posterior energy and the expected rotation are pruned DFTs over
    this box, evaluated one axis at a time (``grid_energy``,
    ``grid_expectation``). Angles are reduced modulo N in integers first.

    Cached per (table, N): the same factors are reused across every
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
    steps = grid_lattice(1, N)
    phases, coords = [], []
    for component in freq.entries.T:
        values, position = np.unique(component, return_inverse=True)
        phases.append(np.exp((1j * TWO_PI / N) * ((steps * values) % N)))
        coords.append(position.reshape(-1))
    cells = np.ravel_multi_index(coords, [p.shape[1] for p in phases])
    tables = (*phases, cells)
    _TABLE_CACHE[key] = tables
    return tables


def grid_energy(eta_hat: np.ndarray, tables: tuple) -> np.ndarray:
    """Energies eta_c . cos(omega_l . s) + eta_s . sin(omega_l . s) of a
    (B, 2L) batch of natural parameters over the grid, shape (B, N**n).

    Reads eta_hat as complex z = eta_c + i eta_s, sums it into the
    frequency box and takes Re sum z e^{-i omega . s}: axes 1..n-1 by
    batched matmuls with the conjugate phases, the last axis as one real
    GEMM of the (re, im) float view against the (cos, sin) table.
    """
    *phases, cells = tables
    b = eta_hat.shape[0]
    rest = math.prod(p.shape[1] for p in phases)
    partial = np.zeros((b, rest), dtype=complex)
    np.add.at(partial, (slice(None), cells), eta_hat.view(complex))
    for phase in phases[:-1]:
        rest //= phase.shape[1]
        partial = np.matmul(phase.conj(), partial.reshape(b, -1, phase.shape[1], rest))
    last = phases[-1]
    energy = partial.reshape(-1, last.shape[1]).view(float) @ last.view(float).T
    return energy.reshape(b, -1)


def grid_expectation(weights: np.ndarray, tables: tuple) -> np.ndarray:
    """Expected (cos, sin)(omega_l . s) under (B, N**n) grid weights,
    interleaved into (B, 2L): the adjoint of ``grid_energy``.

    The last axis is one real GEMM against the (cos, sin) table, read back
    as complex; the other axes are contracted by batched matmuls, then
    each block reads its cell, whose (re, im) view is the (cos, sin) pair.
    """
    *phases, cells = tables
    b = weights.shape[0]
    last = phases[-1]
    n_grid, rest = last.shape
    partial = (weights.reshape(-1, n_grid) @ last.view(float)).view(complex)
    for phase in phases[-2::-1]:
        partial = np.matmul(phase.T, partial.reshape(b, -1, n_grid, rest))
        rest *= phase.shape[1]
    return np.take(partial.reshape(b, -1), cells, axis=1).view(float)


def rotation_second_moment(u: np.ndarray, weights: np.ndarray,
                           freq: FrequencyTable, N: int) -> np.ndarray:
    """Sum over a batch of E[R(s) u_i u_i^T R(s)^T], (2L, 2L), for (B, 2L)
    coefficients u under (B, N**n) grid weights, MOMENT_ROWS images a pass.

    With z_l = e^{i omega_l . s} w_l, w_l = u_lc + i u_ls, and the posterior's
    characteristic function phi(k) = sum_s w(s) e^{i k . s}, E[z_l conj(z_m)] =
    phi(omega_l - omega_m) w_l conj(w_m) and E[z_l z_m] = phi(omega_l + omega_m)
    w_l w_m: each real 2x2 block is a half-sum of their real and imaginary parts.
    """
    L, e = freq.L, freq.entries
    pairs = np.concatenate([e[:, None] - e[None], e[:, None] + e[None]])
    tables = grid_tables(FrequencyTable(freq.n, pairs.reshape(-1, freq.n), 1), N)
    w = np.ascontiguousarray(u).view(complex)
    p_q = 0.0
    for rows in (slice(a, a + MOMENT_ROWS) for a in range(0, w.shape[0], MOMENT_ROWS)):
        phi = grid_expectation(weights[rows], tables).view(complex).reshape(-1, 2, L, L)
        p_q = p_q + np.einsum("bl,bkm,bklm->klm", w[rows],
                              np.stack([w[rows].conj(), w[rows]], axis=1), phi)
    p, q = p_q
    moment = np.stack([np.stack([p.real + q.real, q.imag - p.imag], axis=-1),
                       np.stack([p.imag + q.imag, p.real - q.real], axis=-1)], axis=1)
    return 0.5 * moment.reshape(2 * L, 2 * L)


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
    eta_hat = np.array(eta_hat, dtype=float)
    energy = grid_energy(eta_hat[None], grid_tables(freq, N))[0]
    shift = energy.max()
    weights = np.exp(energy - shift)
    total = weights.sum()
    weights /= total
    log_norm = shift + math.log(total) + freq.n * math.log(TWO_PI / N)
    return PosteriorGrid(
        N=N, n=freq.n, eta_hat=eta_hat, weights=weights,
        log_norm=log_norm,
    )


def expected_rotation(grid: PosteriorGrid, freq: FrequencyTable) -> np.ndarray:
    """Per-block posterior means of (cos, sin), interleaved into a 2L vector.

    These 2L numbers are the blockwise representation of the expected
    rotation; the dense matrix is never formed.
    """
    return grid_expectation(grid.weights[None], grid_tables(freq, grid.N))[0]


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
    tables = grid_tables(freq, N)
    u = codes @ coupling.T
    eta_hat = _eta_from_coefficients(u, images_coeff, eta_prior, noise_var)
    energy = grid_energy(eta_hat, tables)
    energy -= energy.max(axis=1, keepdims=True)
    np.exp(energy, out=energy)
    energy /= energy.sum(axis=1, keepdims=True)
    weights = energy
    post = BatchPosterior(
        eta_hat=eta_hat,
        rbar=grid_expectation(weights, tables),
        peak_index=np.argmax(weights, axis=1),
        n=freq.n,
        N=N,
    )
    return post, weights

