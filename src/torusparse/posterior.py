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
import threading
from dataclasses import dataclass

import numpy as np

from .torus import TWO_PI, FrequencyTable

GRID_POINT_LIMIT = 10_000_000
# Images per pass of ``rotation_second_moment``: each pass gathers
# (rows, 2L^2) complex values, 8.4 MB at L = 128.
MOMENT_ROWS = 16

# Grid tables kept at once, oldest insert evicted first: at least the
# inference table and the exact-mode pair table of a few models or grids.
TABLE_CACHE_ENTRIES = 8

_TABLE_CACHE: dict = {}
_TABLE_LOCK = threading.Lock()
# Sign and order of a grid table whose fold is the identity.
_IDENTITY = np.empty(0, dtype=np.intp)


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
    """Separable factors of the grid phases e^{i omega_l . s}, s = 2 pi j / N,
    folded onto the half spectrum.

    The energy is real, so a block whose rate has a negative last component
    is read at -omega_l instead, with its eta pair conjugated
    (``grid_energy``) and its sin moment negated (``grid_expectation``).
    After this fold the last axis holds only rates >= 0 (9 values instead
    of 17 at the paper shape), which halves the width of the two last-axis
    GEMMs. The blocks, folded and gathered into cell order, form the
    table's half-spectrum frame (``_fold``).

    Returns a tuple of arrays: for each torus axis k, the (N, A_k) complex
    table e^{2 pi i a j / N} over the A_k distinct values a of folded
    component k (ascending); the (L,) index of each block's cell in the
    C-ordered A_1 x ... x A_n box; the (L,) fold sign of each block (+1.0 or
    -1.0); the scatter plan of the blocks into the box: their stable order
    by cell, the start of each run of equal cells in that order, and the
    distinct cells; then the conjugate phase tables of all axes but the
    last. Sign and order are empty when the fold is the identity (no
    negative last component, blocks already in cell order). On a torus
    e^{i omega . s} = prod_k e^{i omega_k s_k}, so the posterior energy and
    the expected rotation are pruned DFTs over this box, evaluated one axis
    at a time. Angles are reduced modulo N in integers first.

    Cached per (table, N), oldest entry evicted first beyond
    TABLE_CACHE_ENTRIES: the same factors are reused across every inference
    call during training.
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
    folded = freq.entries[:, -1] < 0
    steps = grid_lattice(1, N)
    phases, coords = [], []
    for component in np.where(folded[:, None], -freq.entries, freq.entries).T:
        values, position = np.unique(component, return_inverse=True)
        phases.append(np.exp((1j * TWO_PI / N) * ((steps * values) % N)))
        coords.append(position.reshape(-1))
    cells = np.ravel_multi_index(coords, [p.shape[1] for p in phases])
    order = np.argsort(cells, kind="stable")
    starts = np.flatnonzero(np.diff(cells[order], prepend=-1))
    distinct = cells[order[starts]]
    sign = np.where(folded, -1.0, 1.0)
    if not folded.any() and (np.diff(cells) >= 0).all():
        sign = order = _IDENTITY
    return _cache_put(key, (*phases, cells, sign, order, starts, distinct,
                            *(p.conj() for p in phases[:-1])))


def _cache_put(key, tables: tuple) -> tuple:
    # Hits stay lock-free and never move their entry (no pop and reinsert),
    # so a chunk thread cannot miss a key another thread is touching; the
    # lock keeps two builders from evicting the same oldest entry.
    with _TABLE_LOCK:
        if key not in _TABLE_CACHE:
            while len(_TABLE_CACHE) >= TABLE_CACHE_ENTRIES:
                del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
            _TABLE_CACHE[key] = tables
        return _TABLE_CACHE[key]


def _split(tables: tuple) -> tuple:
    """(phases, cells, sign, order, starts, distinct, conjugate phases) of a
    ``grid_tables`` tuple, which holds 2n + 4 arrays for n axes."""
    n = (len(tables) - 4) // 2
    return (tables[:n], *tables[n:n + 5], tables[n + 5:])


def _blocks(pairs: np.ndarray) -> np.ndarray:
    """Interleaved (..., 2L) (cos, sin) pairs read as complex (..., L)
    blocks: a view when ``pairs`` is a C-contiguous float array."""
    return np.ascontiguousarray(pairs, dtype=float).view(complex)


def _fold(pairs: np.ndarray, tables: tuple) -> np.ndarray:
    """Interleaved (..., 2L) pairs as complex (..., L) blocks in the table's
    half-spectrum frame: gathered into cell order, folded blocks conjugated.
    An identity fold returns a view of ``pairs``."""
    _, _, sign, order, _, _, _ = _split(tables)
    blocks = _blocks(pairs)
    if order.size:
        blocks = np.take(blocks, order, axis=-1)
        blocks.imag *= sign[order]
    return blocks


def _unfold(blocks: np.ndarray, tables: tuple) -> np.ndarray:
    """The inverse of ``_fold``: complex (..., L) half-spectrum blocks back
    to interleaved (..., 2L) pairs in the table's block order."""
    _, _, sign, order, _, _, _ = _split(tables)
    if not order.size:
        return blocks.view(float)
    pairs = np.empty_like(blocks)
    pairs[..., order] = blocks
    pairs.imag *= sign
    return pairs.view(float)


def _half_spectrum(freq: FrequencyTable, N: int) -> FrequencyTable:
    """The frequency table of the half-spectrum frame of ``grid_tables(freq,
    N)``: its rates folded and in cell order, so that its own fold is the
    identity. Its grid tables are derived from freq's (the same phase
    arrays, the cells sorted) and cached beside them, with no second
    lattice build; call it once before threads share the frame."""
    tables = grid_tables(freq, N)
    phases, cells, sign, order, starts, distinct, conj = _split(tables)
    if not order.size:
        return freq
    entries = np.where(sign[:, None] < 0, -freq.entries, freq.entries)[order]
    folded = FrequencyTable(freq.n, entries, freq.multiplicity)
    key = folded.cache_key() + (N,)
    if key not in _TABLE_CACHE:
        _cache_put(key, (*phases, cells[order], _IDENTITY, _IDENTITY, starts,
                         distinct, *conj))
    return folded


def grid_energy(eta_hat: np.ndarray, tables: tuple) -> np.ndarray:
    """Energies eta_c . cos(omega_l . s) + eta_s . sin(omega_l . s) of a
    (B, 2L) batch of natural parameters over the grid, shape (B, N**n).

    Reads eta_hat as complex z = eta_c + i eta_s in the half-spectrum frame
    (``_fold``; no work when the table is already folded), sums blocks
    sharing a cell into the frequency box along the scatter plan and takes
    Re sum z e^{-i omega . s}: axes 1..n-1 by batched matmuls with the
    cached conjugate phases, the last axis as one real GEMM of the (re, im)
    float view against the (cos, sin) table.
    """
    phases, _, _, _, starts, distinct, conj = _split(tables)
    blocks = _fold(eta_hat, tables)
    b = blocks.shape[0]
    rest = math.prod(p.shape[1] for p in phases)
    if starts.size < blocks.shape[1]:
        blocks = np.add.reduceat(blocks, starts, axis=1)
    partial = np.zeros((b, rest), dtype=complex)
    partial[:, distinct] = blocks
    for phase in conj:
        rest //= phase.shape[1]
        partial = np.matmul(phase, partial.reshape(b, -1, phase.shape[1], rest))
    last = phases[-1]
    energy = partial.reshape(-1, last.shape[1]).view(float) @ last.view(float).T
    return energy.reshape(b, -1)


def grid_expectation(weights: np.ndarray, tables: tuple) -> np.ndarray:
    """Expected (cos, sin)(omega_l . s) under (B, N**n) grid weights,
    interleaved into (B, 2L): the adjoint of ``grid_energy``.

    The last axis is one real GEMM against the (cos, sin) table, read back
    as complex; the other axes are contracted by batched matmuls, then
    each block reads its cell, whose (re, im) view is the (cos, sin) pair,
    and folded blocks negate their sin.
    """
    phases, cells, sign, _, _, _, _ = _split(tables)
    b = weights.shape[0]
    last = phases[-1]
    n_grid, rest = last.shape
    partial = (weights.reshape(-1, n_grid) @ last.view(float)).view(complex)
    for phase in phases[-2::-1]:
        partial = np.matmul(phase.T, partial.reshape(b, -1, n_grid, rest))
        rest *= phase.shape[1]
    moments = np.take(partial.reshape(b, -1), cells, axis=1)
    if sign.size:
        moments.imag *= sign
    return moments.view(float)


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
    w = _blocks(u)
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
    """eta_prior + conj(u) v / noise_var, with each interleaved (cos, sin)
    pair of u, v and eta_prior read as one complex number."""
    eta = np.conjugate(_blocks(u))
    eta *= _blocks(v)
    eta /= noise_var
    eta += _blocks(eta_prior)
    return eta.view(float)


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


def posterior_pass(
    images_coeff: np.ndarray,
    codes: np.ndarray,
    coupling: np.ndarray,
    eta_prior: np.ndarray,
    noise_var: float,
    freq: FrequencyTable,
    N: int,
):
    """One grid pass for a batch: the only posterior kernel.

    ``images_coeff`` is (B, 2L) of basis coefficients of the images and
    ``coupling`` the (2L, K) matrix of basis coefficients of the
    dictionary, so u = codes @ coupling.T. Returns (u, eta_hat, weights,
    sums, rbar): the (B, 2L) coupled templates and natural parameters, the
    (B, N**n) row-max-shifted unnormalised weights, their (B, 1) row sums,
    and the expected rotation pairs rbar = expectation(weights) / sums, all
    in freq's block order. The pass is cheapest when freq is a table's
    half-spectrum frame (``_half_spectrum``, with the problem mapped by
    ``_fold``): no block is gathered or conjugated, as FISTA runs it.
    Summation orders are fixed, so results are reproducible bit for bit.
    """
    tables = grid_tables(freq, N)
    u = codes @ coupling.T
    eta_hat = _eta_from_coefficients(u, images_coeff, eta_prior, noise_var)
    weights = grid_energy(eta_hat, tables)
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    sums = weights.sum(axis=1, keepdims=True)
    rbar = grid_expectation(weights, tables)
    rbar /= sums
    return u, eta_hat, weights, sums, rbar


def batch_posterior(
    images_coeff: np.ndarray,
    codes: np.ndarray,
    coupling: np.ndarray,
    eta_prior: np.ndarray,
    noise_var: float,
    freq: FrequencyTable,
    N: int,
):
    """``posterior_pass`` with its weights normalised and each image's peak.

    Returns (BatchPosterior, weights) with weights (B, N**n) summing to one
    per image; eta_hat and rbar are in freq's block order, whatever the
    table (a half-spectrum table's own order is its folded one), and the
    peaks do not depend on the frame.
    """
    _, eta_hat, weights, sums, rbar = posterior_pass(
        images_coeff, codes, coupling, eta_prior, noise_var, freq, N)
    weights /= sums
    post = BatchPosterior(
        eta_hat=eta_hat,
        rbar=rbar,
        peak_index=np.argmax(weights, axis=1),
        n=freq.n,
        N=N,
    )
    return post, weights
