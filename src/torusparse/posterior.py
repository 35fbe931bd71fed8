"""Conjugate prior and grid posterior over the transform angles.

Both the prior and the conditional posterior of the angle vector are
exponential-family densities on the torus whose sufficient statistics are
the blockwise cosines and sines. The posterior natural parameter is the
prior one plus a data term, so inference reduces to one parameter update
followed by quadrature on a uniform periodic grid (spectrally accurate
for these integrands).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .torus import TWO_PI, FrequencyTable, grid_lattice

GRID_POINT_LIMIT = 10_000_000
# Span bound in nats up to which ``grid_pass`` shifts the energy by its
# constant term alone, leaving it within +-300 nats; past it, the nats below
# each row's peak at which the energy is clamped. e^-600 is far above the
# subnormal range (below e^-708), so exp and the expectation never see
# subnormal weights, nor, below e^709, infinite ones.
SPAN_CLAMP = 600.0

# Grid tables kept at once by ``functools.lru_cache``, one per (frequency
# table, N), least recently used evicted first: room for the inference
# tables of a few models or grid sizes in one process.
TABLE_CACHE_ENTRIES = 8


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


def check_grid_points(n: int, N: int) -> None:
    """Raise ValueError if the grid's N**n points exceed GRID_POINT_LIMIT."""
    points = N**n if n < 64 else math.inf  # not formed: over the limit at any N >= 2
    if points > GRID_POINT_LIMIT:
        raise ValueError(f"grid has {points} points; limit is {GRID_POINT_LIMIT} (n={n}, N={N})")


def grid_tables(freq: FrequencyTable, N: int) -> tuple:
    """Separable factors of the grid phases e^{i omega_l . s}, s = 2 pi j / N,
    in the table's half-spectrum frame, the only frame of the grid kernels.

    The energy is real, so a block whose rate has a negative last component
    is read at -omega_l instead, with its (cos, sin) pair conjugated. After
    this fold the last axis holds only rates >= 0 (9 values instead of 17
    at the paper shape), which halves the width of the two last-axis GEMMs.
    The blocks, folded and gathered into cell order, form the frame:
    ``_fold`` maps block-order pairs into it and ``_unfold`` back.

    Returns a tuple of arrays: for each torus axis k, the (N, A_k) complex
    table e^{2 pi i a j / N} over the A_k distinct values a of folded
    component k and 0 (ascending), so the box always has a zero cell, whose
    phases are exactly 1 on every axis; the (L,) index of each frame block's
    cell in the C-ordered A_1 x ... x A_n box (ascending); the (L,) fold
    sign of each block in block order (+1.0 or -1.0); the frame's order, the
    stable sort of the blocks by cell; the start of each run of equal cells
    in the frame and the distinct cells; the zero cell's flat index in the
    box (a numpy integer); then the conjugate phase tables of all axes but
    the last. On a torus e^{i omega . s} = prod_k e^{i omega_k s_k}, so the
    posterior energy and the expected rotation are pruned DFTs over this
    box, evaluated one axis at a time. Angles are reduced modulo N in
    integers first.

    Cached per (table, N) by ``functools.lru_cache``, the least recently
    used entry evicted beyond TABLE_CACHE_ENTRIES: the same factors are
    reused across every inference call during training. Two threads that
    miss the same key at once may both build it; callers that race build
    the tables first.
    """
    if N < 2:
        raise ValueError("grid size N must be >= 2")
    check_grid_points(freq.n, N)
    return _build_tables(freq.cache_key(), N)


@functools.lru_cache(maxsize=TABLE_CACHE_ENTRIES)
def _build_tables(key: tuple, N: int) -> tuple:
    """``grid_tables`` of the frequency table whose ``cache_key`` is ``key``."""
    n, raw = key
    entries = np.frombuffer(raw, np.int64).reshape(-1, n)
    folded = entries[:, -1] < 0
    steps = grid_lattice(1, N)
    phases, coords = [], []
    for component in np.where(folded[:, None], -entries, entries).T:
        values, position = np.unique(np.append(component, 0), return_inverse=True)
        phases.append(np.exp((1j * TWO_PI / N) * ((steps * values) % N)))
        coords.append(position.reshape(-1))  # the last is the zero cell's
    box = [p.shape[1] for p in phases]
    cells = np.ravel_multi_index([c[:-1] for c in coords], box)
    zero = np.ravel_multi_index([c[-1] for c in coords], box)
    order = np.argsort(cells, kind="stable")
    cells = cells[order]
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    return (*phases, cells, np.where(folded, -1.0, 1.0), order, starts, cells[starts],
            zero, *(p.conj() for p in phases[:-1]))


def _split(tables: tuple) -> tuple:
    """(phases, cells, sign, order, starts, distinct, zero, conjugate
    phases) of a ``grid_tables`` tuple, which holds 2n + 5 entries for n
    axes."""
    n = (len(tables) - 5) // 2
    return (tables[:n], *tables[n:n + 6], tables[n + 6:])


def _blocks(pairs: np.ndarray) -> np.ndarray:
    """Interleaved (..., 2L) (cos, sin) pairs read as complex (..., L)
    blocks: a view when ``pairs`` is a C-contiguous float array."""
    return np.ascontiguousarray(pairs, dtype=float).view(complex)


def _fold(pairs: np.ndarray, tables: tuple) -> np.ndarray:
    """Interleaved (..., 2L) pairs in block order as complex (..., L) blocks
    in the table's half-spectrum frame: gathered into cell order, folded
    blocks conjugated."""
    _, _, sign, order, _, _, _, _ = _split(tables)
    blocks = np.take(_blocks(pairs), order, axis=-1)
    blocks.imag *= sign[order]
    return blocks


def _unfold(blocks: np.ndarray, tables: tuple) -> np.ndarray:
    """The inverse of ``_fold``: complex (..., L) half-spectrum blocks back
    to interleaved (..., 2L) pairs in the table's block order."""
    _, _, sign, order, _, _, _, _ = _split(tables)
    pairs = np.empty_like(blocks)
    pairs[..., order] = blocks
    pairs.imag *= sign
    return pairs.view(float)


def grid_energy(eta_hat: np.ndarray, tables: tuple) -> np.ndarray:
    """Energies eta_c . cos(omega_l . s) + eta_s . sin(omega_l . s) of a
    (B, 2L) batch of natural parameters in the half-spectrum frame over the
    grid, shape (B, N**n), less their constant term: the real part of eta
    summed over the zero-rate blocks.

    Reads eta_hat as complex z = eta_c + i eta_s, sums blocks sharing a
    cell into the frequency box along the scatter plan, zeroes the box's
    zero cell and takes Re sum z e^{-i omega . s}: axes 1..n-1 by batched
    matmuls with the cached conjugate phases, the last axis as one real
    GEMM of the (re, im) float view against the (cos, sin) table.
    """
    phases, _, _, _, starts, distinct, zero, conj = _split(tables)
    blocks = _blocks(eta_hat)
    b = blocks.shape[0]
    rest = math.prod(p.shape[1] for p in phases)
    if starts.size < blocks.shape[1]:
        blocks = np.add.reduceat(blocks, starts, axis=1)
    partial = np.zeros((b, rest), dtype=complex)
    partial[:, distinct] = blocks
    partial[:, zero] = 0.0
    for phase in conj:
        rest //= phase.shape[1]
        partial = np.matmul(phase, partial.reshape(b, -1, phase.shape[1], rest))
    last = phases[-1]
    energy = partial.reshape(-1, last.shape[1]).view(float) @ last.view(float).T
    return energy.reshape(b, -1)


def grid_expectation(weights: np.ndarray, tables: tuple) -> np.ndarray:
    """Expected (cos, sin)(omega_l . s) under (B, N**n) grid weights in the
    half-spectrum frame, interleaved into (B, 2L): the adjoint of
    ``grid_energy``. Sums the weights times e^{i a . s} over the frequency
    box, the last axis as one real GEMM against the (cos, sin) table, read
    back as complex, the other axes by batched matmuls; each block then
    reads its cell of the box, whose (re, im) view is the (cos, sin) pair."""
    return np.take(_expectation_box(weights, tables), _split(tables)[1],
                   axis=1).view(float)


def _expectation_box(weights: np.ndarray, tables: tuple) -> np.ndarray:
    """The (B, A_1 * ... * A_n) complex box of ``grid_expectation`` before
    its gather. The zero cell's phases are exactly 1 + 0i, so that cell
    holds the row sums of the weights, added in the GEMMs' order."""
    phases = _split(tables)[0]
    b = weights.shape[0]
    last = phases[-1]
    n_grid, rest = last.shape
    partial = (weights.reshape(-1, n_grid) @ last.view(float)).view(complex)
    for phase in phases[-2::-1]:
        partial = np.matmul(phase.T, partial.reshape(b, -1, n_grid, rest))
        rest *= phase.shape[1]
    return partial.reshape(b, -1)


@dataclass(eq=False)
class PosteriorGrid:
    """Discretized angle posterior: normalized weights over the uniform grid.

    ``log_norm`` is the log of the quadrature normalizer
    (2*pi/N)^n * sum(exp(energy)), computed shifted as in ``grid_pass``.
    """

    N: int
    n: int
    eta_hat: np.ndarray  # (2L,)
    weights: np.ndarray  # (N**n,) summing to one
    log_norm: float


def check_grid_fits(grid: PosteriorGrid, n: int | None = None) -> None:
    """Refuse ``grid`` by name unless it is over a torus of dimension ``n``
    (when given) and holds one weight per point of its N**n grid."""
    if n is not None and grid.n != n:
        raise ValueError(f"grid is over a torus of dimension n = {grid.n}; "
                         f"the model's has n = {n}")
    if np.shape(grid.weights) != (grid.N**grid.n,):
        raise ValueError(f"grid has weights of shape {np.shape(grid.weights)}; "
                         f"expected ({grid.N**grid.n},), N**n for N = {grid.N}")


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
    """Evaluate the discretized posterior for one natural parameter vector:
    a one-image ``grid_pass``. Refuses a shape other than (2L,) and a
    non-finite entry."""
    eta_hat = np.array(eta_hat, dtype=float)
    if eta_hat.shape != (2 * freq.L,):
        raise ValueError(f"eta_hat has shape {eta_hat.shape}; expected "
                         f"({2 * freq.L},), two entries per block for L = {freq.L}")
    bad = np.flatnonzero(~np.isfinite(eta_hat))
    if bad.size:
        raise ValueError(f"eta_hat[{bad[0]}] is {eta_hat[bad[0]]}; must be finite")
    tables = grid_tables(freq, N)
    weights, shift, total, _ = grid_pass(_fold(eta_hat[None], tables).view(float), tables)
    weights /= total
    log_norm = shift[0, 0] + math.log(total[0, 0]) + freq.n * math.log(TWO_PI / N)
    return PosteriorGrid(
        N=N, n=freq.n, eta_hat=eta_hat, weights=weights[0],
        log_norm=float(log_norm),
    )


def expected_rotation(grid: PosteriorGrid, freq: FrequencyTable) -> np.ndarray:
    """Per-block posterior means of (cos, sin), interleaved into a 2L vector.

    These 2L numbers are the blockwise representation of the expected
    rotation; the dense matrix is never formed. Refuses a grid that does not
    fit ``freq`` (``check_grid_fits``).
    """
    check_grid_fits(grid, freq.n)
    tables = grid_tables(freq, grid.N)
    return _unfold(grid_expectation(grid.weights[None], tables).view(complex), tables)[0]


def map_estimate(grid: PosteriorGrid) -> np.ndarray:
    """Grid point of maximum posterior weight (ties: lowest flat index).
    Refuses a grid whose weight count is not N**n."""
    check_grid_fits(grid)
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


def grid_pass(eta_hat: np.ndarray, tables: tuple):
    """The one posterior kernel: a grid pass for a (B, 2L) batch of natural
    parameters in the half-spectrum frame of ``tables``.

    Returns (weights, shift, sums, rbar): the (B, N**n) weights
    exp(energy - shift), the (B, 1) ``shift`` of the energy, the (B, 1) row
    sums of the weights, and the (B, 2L) expected rotation pairs
    rbar = expectation(weights) / sums, in the frame. The weights are left
    unnormalised, since each FISTA iteration needs only rbar. The pass
    touches them three times: the energy GEMM writes them, exp runs in
    place and the expectation GEMMs read them, whose zero cell is the sums.

    An image's energy spans at most 2 sum_l (|Re eta_l| + |Im eta_l|) nats
    over the grid and lies within half that of its constant term c, the
    real part of eta over the zero-rate blocks. So while no row's bound
    exceeds SPAN_CLAMP, shift = c and the weights lie within e^+-300. Past
    about 708 nats below the peak exp gives subnormal weights, on which exp
    and the expectation GEMM slow down 10-15x; so when some row's bound
    exceeds SPAN_CLAMP, the energies of the whole batch are shifted by their
    row max as well (shift = c + max) and clamped at -SPAN_CLAMP before
    exp. That moves no weight of a row whose span is below SPAN_CLAMP, and
    no other weight by more than e^-SPAN_CLAMP of its row's peak. Summation
    orders are fixed, so results are reproducible bit for bit.
    """
    _, cells, _, _, _, _, zero, _ = _split(tables)
    clamp = 2.0 * np.abs(eta_hat).sum(axis=1).max(initial=0.0) > SPAN_CLAMP
    shift = _blocks(eta_hat).real[:, cells == zero].sum(axis=1, keepdims=True)
    weights = grid_energy(eta_hat, tables)
    if clamp:
        peak = weights.max(axis=1, keepdims=True)
        weights -= peak
        np.maximum(weights, -SPAN_CLAMP, out=weights)
        shift += peak
    np.exp(weights, out=weights)
    box = _expectation_box(weights, tables)
    sums = box[:, zero, None].real.copy()  # a view would keep the box alive
    rbar = np.take(box, cells, axis=1).view(float)
    rbar /= sums
    return weights, shift, sums, rbar


def batch_posterior(
    images_coeff: np.ndarray,
    codes: np.ndarray,
    coupling: np.ndarray,
    eta_prior: np.ndarray,
    noise_var: float,
    freq: FrequencyTable,
    N: int,
):
    """``grid_pass`` on a problem in freq's block order, with its weights
    normalised in place and each image's peak.

    ``images_coeff`` is (B, 2L) of basis coefficients of the images,
    ``coupling`` the (2L, K) matrix of basis coefficients of the
    dictionary, so u = codes @ coupling.T, and ``eta_prior`` the prior's
    natural parameters. Folds the problem into the half-spectrum frame on
    the way in and unfolds eta_hat and rbar on the way out. Returns
    (BatchPosterior, weights) with weights (B, N**n) summing to one per
    image; the peaks do not depend on the frame.
    """
    tables = grid_tables(freq, N)
    u = codes @ _fold(coupling.T, tables).view(float)
    eta_hat = _eta_from_coefficients(u, _fold(images_coeff, tables).view(float),
                                     _fold(eta_prior, tables).view(float), noise_var)
    weights, _, sums, rbar = grid_pass(eta_hat, tables)
    weights /= sums
    post = BatchPosterior(
        eta_hat=_unfold(eta_hat.view(complex), tables),
        rbar=_unfold(rbar.view(complex), tables),
        peak_index=np.argmax(weights, axis=1),
        n=freq.n,
        N=N,
    )
    return post, weights


def concat_posteriors(parts) -> BatchPosterior:
    """One BatchPosterior of the rows of ``parts``, in their order."""
    return BatchPosterior(
        eta_hat=np.concatenate([p.eta_hat for p in parts], axis=0),
        rbar=np.concatenate([p.rbar for p in parts], axis=0),
        peak_index=np.concatenate([p.peak_index for p in parts], axis=0),
        n=parts[0].n,
        N=parts[0].N,
    )
