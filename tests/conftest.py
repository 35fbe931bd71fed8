"""Shared fixtures and independent oracles used across the suite.

The oracles deliberately recompute quantities through a different route
than the library: posterior weights from the residual-form joint density
(the library uses the natural-parameter shortcut), dense eigendecompositions
for spectral norms, explicit index rolls for shifts.
"""

import itertools
import math
import tracemalloc

import numpy as np
from hypothesis import strategies as st

from torusparse import (
    FrequencyTable,
    ModelParams,
    TorusPrior,
    TrainConfig,
    TransformSpec,
    init_model,
    make_synthetic,
)
from torusparse.inference import fista, fista_step_size
from torusparse.lanes import run, split
from torusparse.posterior import (
    _fold,
    _unfold,
    grid_energy,
    grid_expectation,
    grid_lattice,
    grid_tables,
    natural_params,
    posterior_grid,
)
from torusparse.stiefel import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    StiefelAdamState,
    positive_qr,
    tangent_project,
)
from torusparse.torus import TWO_PI, canonical_count, rotate_pairs

DESK_SIDE = 16


@st.composite
def fold_tables(draw):
    """Rate tables for the half-spectrum fold: n in {1, 2, 3}, each rate
    repeated m in {1, 2} times, of any sign (negative last components fold,
    and a rate with its negation shares one cell), or the baseline's
    all-zero table."""
    if draw(st.integers(0, 4)) == 0:
        L = draw(st.integers(1, 4))
        return FrequencyTable(n=1, entries=np.zeros((L, 1), dtype=np.int64),
                              multiplicity=L)
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                         min_size=1, max_size=5))
    if draw(st.booleans()):
        rows.append([-x for x in rows[0]])
    entries = np.array([row for row in rows for _ in range(m)], dtype=np.int64)
    return FrequencyTable(n=n, entries=entries, multiplicity=m)


def small_model(seed, d=12, L=3, k=3, n=1, noise_var=0.05, sparsity=10.0,
                kappa_scale=0.0):
    """Random valid model at toy dimensions."""
    cfg = TrainConfig(
        image_dim=d, n_freq=L, n_atoms=k, torus_dim=n, noise_var=noise_var,
        sparsity=sparsity,
    )
    model = init_model(cfg, seed)
    if kappa_scale > 0:
        rng = np.random.default_rng(seed + 1000)
        model.prior = TorusPrior(
            kappa=rng.uniform(0, kappa_scale, L), mu=rng.uniform(0, TWO_PI, L)
        )
    return model


def dense_rotation(freq: FrequencyTable, s) -> np.ndarray:
    """Materialized block-diagonal rotation matrix (oracle use only)."""
    s = np.asarray(s, dtype=float)
    L = freq.L
    out = np.zeros((2 * L, 2 * L))
    for l in range(L):
        theta = float(freq.entries[l] @ s)
        c, sn = math.cos(theta), math.sin(theta)
        out[2 * l, 2 * l] = c
        out[2 * l, 2 * l + 1] = -sn
        out[2 * l + 1, 2 * l] = sn
        out[2 * l + 1, 2 * l + 1] = c
    return out


def dense_grid_table(freq: FrequencyTable, N: int) -> np.ndarray:
    """Direct (N**n, 2L) table of interleaved cos/sin(omega_l . s) over the
    grid lattice (oracle for the separable evaluation in the library)."""
    theta = grid_lattice(freq.n, N) @ (freq.entries.T * (TWO_PI / N))
    table = np.empty((theta.shape[0], 2 * freq.L))
    table[:, 0::2] = np.cos(theta)
    table[:, 1::2] = np.sin(theta)
    return table


def oracle_gradients(image, code, model, rbar, mode, weights=None, N=None):
    """(dictionary, basis) likelihood ascent gradients at one image, built
    in D-space: the approximate form pushes the expected residual through
    the expected transform; the exact form takes the second moment of the
    rotated template by quadrature over the dense grid table under the
    (N**n,) posterior ``weights`` (basis gradient None without them)."""
    rc, rs = rbar[0::2], rbar[1::2]
    template = model.dictionary @ code
    u = template @ model.basis
    v = image @ model.basis
    if mode == "approximate":
        residual = image - rotate_pairs(rc, rs, u) @ model.basis.T
        back = rotate_pairs(rc, rs, residual @ model.basis, adjoint=True)
        grad_d = np.outer(model.basis @ back, code)
        grad_b = np.outer(residual, rotate_pairs(rc, rs, u)) + np.outer(template, back)
        return grad_d / model.noise_var, grad_b / model.noise_var
    grad_d = np.outer(model.basis @ (rotate_pairs(rc, rs, v, adjoint=True) - u), code)
    if weights is None:
        return grad_d / model.noise_var, None
    table = dense_grid_table(model.freq, N)
    rotated = rotate_pairs(table[:, 0::2], table[:, 1::2], np.broadcast_to(u, table.shape))
    second_moment = (rotated * weights[:, None]).T @ rotated
    grad_b = (
        np.outer(template, rotate_pairs(rc, rs, v, adjoint=True))
        + np.outer(image, rotate_pairs(rc, rs, u))
        - np.outer(template, u)
        - model.basis @ second_moment
    )
    return grad_d / model.noise_var, grad_b / model.noise_var


def oracle_posterior_pass(images_coeff, codes, coupling, eta_prior, noise_var,
                          freq, N):
    """The standard-frame grid pass FISTA ran before its half-spectrum
    frame: (eta_hat, weights, sums, rbar) in freq's block order, the grid
    table folding and unfolding the blocks on every call."""
    def pairs(x):
        return np.ascontiguousarray(x).view(complex)

    tables = grid_tables(freq, N)
    u = codes @ coupling.T
    eta_hat = (pairs(eta_prior) + pairs(u).conj() * pairs(images_coeff)
               / noise_var).view(float)
    weights = grid_energy(_fold(eta_hat, tables).view(float), tables)
    weights -= weights.max(axis=1, keepdims=True)
    np.exp(weights, out=weights)
    sums = weights.sum(axis=1, keepdims=True)
    rbar = _unfold(grid_expectation(weights, tables).view(complex), tables)
    return eta_hat, weights, sums, rbar / sums


def oracle_infer_code_batch(images, model, cfg, N):
    """Batch inference iterated in the standard frame, with the ascent
    R^T v - rho u applied by ``rotate_pairs``: returns (codes, eta_hat,
    rbar, normalised weights) at the final codes."""
    exact = cfg.grad_mode == "exact"
    coupling = model.basis.T @ model.dictionary
    images_coeff = images @ model.basis
    problem = (coupling, natural_params(model.prior), model.noise_var, model.freq, N)

    def ascent(codes):
        rbar = oracle_posterior_pass(images_coeff, codes, *problem)[-1]
        rc, rs = rbar[:, 0::2], rbar[:, 1::2]
        rho = 1.0 if exact else np.repeat(rc * rc + rs * rs, 2, axis=1)
        back = (rotate_pairs(rc, rs, images_coeff, adjoint=True)
                - rho * (codes @ coupling.T))
        return (back @ coupling) / model.noise_var

    step = fista_step_size(model)
    init = np.full((images.shape[0], model.dictionary.shape[1]), cfg.code_init)
    codes = fista(ascent, init, step, step * model.sparsity, cfg.fista_steps)
    eta_hat, weights, sums, rbar = oracle_posterior_pass(images_coeff, codes, *problem)
    return codes, eta_hat, rbar, weights / sums


def oracle_riemannian_adam_step(state, point, grad, lanes=None):
    """The Riemannian Adam step as written before its four shared buffers:
    a fresh array for the tangent, the step, each moment, Y = point + step
    and the transported moment, with Y and the rank scale formed on the
    calling thread. Returns (new state, new point)."""
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite basis gradient")
    tangent = tangent_project(point, grad, lanes)
    count = state.step_count + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    scratch, m1, m2 = (np.empty(point.shape) for _ in range(3))

    def moments(r):
        np.multiply(tangent[r], 1.0 - b1, out=scratch[r])
        np.multiply(state.m1[r], b1, out=m1[r])
        m1[r] += scratch[r]
        np.multiply(tangent[r], 1.0 - b2, out=scratch[r])
        scratch[r] *= tangent[r]
        np.multiply(state.m2[r], b2, out=m2[r])
        m2[r] += scratch[r]
        step = np.divide(m1[r], 1.0 - b1**count, out=scratch[r])
        step *= state.lr
        denom = np.divide(m2[r], 1.0 - b2**count, out=tangent[r])
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom

    run(lanes, moments, split(point.shape[0]))
    step = scratch
    new_point = point
    if np.any(step):
        new_point, diag = positive_qr(point + step, lanes)
        scale = max(point.max(), -point.min()) + max(step.max(), -step.min())
        if np.any(diag < 1e-12 * max(scale, 1.0)):
            raise np.linalg.LinAlgError("rank-deficient retraction input")
    new_state = StiefelAdamState(m1=tangent_project(new_point, m1, lanes), m2=m2,
                                 lr=state.lr, step_count=count)
    return new_state, new_point


def brute_posterior_weights(image, code, model, N) -> np.ndarray:
    """Normalized P(I|s,code) * P(s) over the grid, residual form."""
    lat = grid_lattice(model.freq.n, N)
    eta = natural_params(model.prior)
    template = model.dictionary @ code
    proj = model.basis.T @ template
    log_p = np.empty(lat.shape[0])
    for j, idx in enumerate(lat):
        s = TWO_PI * idx / N
        rec = model.basis @ (dense_rotation(model.freq, s) @ proj)
        theta = model.freq.entries @ s
        prior_energy = eta[0::2] @ np.cos(theta) + eta[1::2] @ np.sin(theta)
        log_p[j] = -np.sum((image - rec) ** 2) / (2 * model.noise_var) + prior_energy
    w = np.exp(log_p - log_p.max())
    return w / w.sum()


def brute_posterior_weights_fast(image, code, model, N) -> np.ndarray:
    """Vectorized residual-form oracle (same math, tolerable at n=2)."""
    lat = grid_lattice(model.freq.n, N)
    eta = natural_params(model.prior)
    theta = lat @ (model.freq.entries.T * (TWO_PI / N))
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    proj = model.basis.T @ (model.dictionary @ code)
    rot = np.empty((lat.shape[0], 2 * model.freq.L))
    rot[:, 0::2] = cos_t * proj[0::2] - sin_t * proj[1::2]
    rot[:, 1::2] = sin_t * proj[0::2] + cos_t * proj[1::2]
    recs = rot @ model.basis.T
    residual_sq = np.sum((image[None, :] - recs) ** 2, axis=1)
    prior_energy = cos_t @ eta[0::2] + sin_t @ eta[1::2]
    log_p = -residual_sq / (2 * model.noise_var) + prior_energy
    w = np.exp(log_p - log_p.max())
    return w / w.sum()


def brute_log_marginal(image, code, model, N) -> float:
    """log of the grid quadrature of P(I|s,code) * P(s) ds, residual form.

    Works off the orthonormality manifold too, which matters when finite
    differences perturb the basis.
    """
    lat = grid_lattice(model.freq.n, N)
    eta = natural_params(model.prior)
    theta = lat @ (model.freq.entries.T * (TWO_PI / N))
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    proj = model.basis.T @ (model.dictionary @ code)
    rot = np.empty((lat.shape[0], 2 * model.freq.L))
    rot[:, 0::2] = cos_t * proj[0::2] - sin_t * proj[1::2]
    rot[:, 1::2] = sin_t * proj[0::2] + cos_t * proj[1::2]
    recs = rot @ model.basis.T
    residual_sq = np.sum((image[None, :] - recs) ** 2, axis=1)
    prior_energy = cos_t @ eta[0::2] + sin_t @ eta[1::2]
    log_p = residual_sq / (-2 * model.noise_var) + prior_energy
    shift = log_p.max()
    d = image.shape[0]
    log_z_prior = posterior_grid(eta, model.freq, N).log_norm
    return (
        shift
        + math.log(np.exp(log_p - shift).sum())
        + model.freq.n * math.log(TWO_PI / N)
        - 0.5 * d * math.log(TWO_PI * model.noise_var)
        - log_z_prior
    )


def oracle_validate_frequency_table(freq: FrequencyTable) -> None:
    """Row-by-row form of ``validate_frequency_table``: the same rules in
    the same order, with the same messages."""
    ent = freq.entries
    if freq.n < 1:
        raise ValueError(f"torus dimension n is {freq.n}; must be >= 1")
    if ent.shape != (freq.L, freq.n):
        raise ValueError("frequency table shape mismatch")
    if freq.multiplicity < 1:
        raise ValueError("multiplicity must be >= 1")
    for row in ent:
        nonzero = [x for x in row if x != 0]
        if nonzero and nonzero[0] < 0:
            raise ValueError(f"entry {row.tolist()} violates canonical sign")
    keys = [(int(row @ row), tuple(row.tolist())) for row in ent]
    if keys != sorted(keys):
        raise ValueError("entries not sorted by (norm, lexicographic)")
    counts: dict = {}
    for _, tup in keys:
        counts[tup] = counts.get(tup, 0) + 1
        if counts[tup] > freq.multiplicity:
            raise ValueError(f"entry {tup} repeated more than m={freq.multiplicity}")


def oracle_build_frequency_table(n, L, m, max_norm, include_zero=True):
    """Per-vector form of ``build_frequency_table``: every vector of the
    lattice in turn, kept in canonical sign, sorted by a Python key,
    listed m times each and cut to L, with the same messages."""
    if n < 1 or L < 1 or m < 1:
        raise ValueError("n, L, m must all be >= 1")
    if max_norm < 0:
        raise ValueError("max_norm must be >= 0")
    needed = -(-L // m)
    if canonical_count(n, max_norm, include_zero) < needed:
        bound = max_norm + 1
        while canonical_count(n, bound, include_zero) < needed:
            bound += 1
        raise ValueError(
            f"max_norm={max_norm} yields too few canonical vectors for "
            f"L={L}, m={m}; max_norm >= {bound} required"
        )
    cands = []
    for vec in itertools.product(range(-max_norm, max_norm + 1), repeat=n):
        leading = next((x for x in vec if x != 0), 0)
        if leading > 0 or (leading == 0 and include_zero):
            cands.append(vec)
    cands.sort(key=lambda v: (sum(x * x for x in v), v))
    repeated = [v for v in cands for _ in range(m)]
    return FrequencyTable(n=n, entries=np.array(repeated[:L], dtype=np.int64), multiplicity=m)


def oracle_frequency_table_auto(n, L, m, include_zero=True):
    """``frequency_table_auto`` on the per-vector builder."""
    needed = -(-L // m)
    bound = 1
    while canonical_count(n, bound, include_zero) < needed:
        bound *= 2
    return oracle_build_frequency_table(n, L, m, bound, include_zero)


def scalar_offsets(model):
    """Byte offsets of kappa, mu, noise_var and sparsity in a checkpoint."""
    d, L, k = model.dim, model.freq.L, model.n_atoms
    kappa = 32 + 4 * L * model.freq.n + 8 * d * (2 * L + k)
    return {"kappa": kappa, "mu": kappa + 8 * L, "noise_var": kappa + 16 * L,
            "sparsity": kappa + 16 * L + 8}


def point_mass_grid(model, N, flat_index):
    """Posterior grid concentrated on one node (for point-mass cases)."""
    grid = posterior_grid(np.zeros(2 * model.freq.L), model.freq, N)
    weights = np.zeros_like(grid.weights)
    weights[flat_index] = 1.0
    grid.weights = weights
    return grid


def desk_templates(seed=11, side=DESK_SIDE):
    """Three positive templates with disjoint column-frequency support.

    Each sits on a shared flat base, so a single zero-rate block covers
    the common component and six rotation blocks cover the oscillations;
    a width-16 basis can then represent the cyclic-shift orbits exactly.
    """
    rng = np.random.default_rng(seed)
    bands = [(1, 2), (3, 4), (5, 6)]
    y = np.arange(side)
    x = np.arange(side)
    templates = []
    for band in bands:
        p = np.zeros((side, side))
        for w in band:
            a = np.zeros(side)
            b = np.zeros(side)
            for ky in range(3):
                a += rng.normal() * np.cos(TWO_PI * ky * y / side + rng.uniform(0, TWO_PI))
                b += rng.normal() * np.cos(TWO_PI * ky * y / side + rng.uniform(0, TWO_PI))
            p += np.outer(a, np.cos(TWO_PI * w * x / side))
            p += np.outer(b, np.sin(TWO_PI * w * x / side))
        p /= np.abs(p).max()
        templates.append(0.5 + 0.5 * p)
    return templates


def desk_config(**overrides):
    base = dict(
        batch_size=100,
        fista_steps=20,
        grid_size=50,
        epochs=20,
        lr_dict=0.05,
        lr_basis=0.1,
        code_init=0.01,
        seed=1,
        torus_dim=1,
        n_freq=8,
        n_atoms=3,
        multiplicity=1,
        image_dim=DESK_SIDE * DESK_SIDE,
        noise_var=0.01,
        sparsity=1.0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def desk_dataset(count_per_template, seed):
    spec = TransformSpec(
        "translate2d", ((-8.0, 8.0), (0.0, 0.0)), count_per_template, cyclic=True
    )
    return make_synthetic(desk_templates(), spec, seed)


def desk_generative_model(noise_var=0.01, sparsity=1.0):
    """Hand-built model that represents the desk dataset exactly.

    For each template band frequency, the basis block spans the template's
    oscillation plane (in-phase and quadrature patterns), so applying the
    transform with angle 2*pi*dx/side reproduces a cyclic shift by dx.
    """
    side = DESK_SIDE
    templates = desk_templates()
    bands = [(1, 2), (3, 4), (5, 6)]
    x = np.arange(side)
    pair_for = {}
    for k, band in enumerate(bands):
        t = templates[k]
        for w in band:
            c = np.cos(TWO_PI * w * x / side)
            s = np.sin(TWO_PI * w * x / side)
            a = t @ c * (2.0 / side)
            b = t @ s * (2.0 / side)
            p = (np.outer(a, c) + np.outer(b, s)).ravel()
            q = (np.outer(a, s) - np.outer(b, c)).ravel()
            pair_for[w] = (p / np.linalg.norm(p), q / np.linalg.norm(q))
    flat = np.ones(side * side) / side
    nyquist = np.outer(np.ones(side), np.cos(np.pi * x)).ravel()
    nyquist /= np.linalg.norm(nyquist)
    spare_c = np.outer(np.ones(side), np.cos(TWO_PI * 7 * x / side)).ravel()
    spare_s = np.outer(np.ones(side), np.sin(TWO_PI * 7 * x / side)).ravel()
    pair_for[0] = (flat, nyquist)
    pair_for[7] = (spare_c / np.linalg.norm(spare_c),
                   spare_s / np.linalg.norm(spare_s))
    basis = np.stack(
        [vec for w in range(8) for vec in pair_for[w]], axis=1
    )
    assert np.abs(basis.T @ basis - np.eye(16)).max() < 1e-12
    atoms = np.stack([t.ravel() / np.linalg.norm(t) for t in templates], axis=1)
    freq = FrequencyTable(
        n=1, entries=np.arange(8, dtype=np.int64).reshape(-1, 1), multiplicity=1
    )
    return ModelParams(
        basis=basis, dictionary=atoms, freq=freq, noise_var=noise_var,
        sparsity=sparsity, prior=TorusPrior.uniform(8),
    )


def fit_angle_map(dx, angles, side):
    """Best gauge (sign, offset) relating pixel shifts to inferred angles.

    Returns (worst residual, sign, offset, residuals), residuals measured
    on the circle.
    """
    best = None
    for sign in (1.0, -1.0):
        predicted = sign * TWO_PI * np.asarray(dx) / side
        residual = np.asarray(angles) - predicted
        offset = math.atan2(np.sin(residual).mean(), np.cos(residual).mean())
        err = np.abs(np.angle(np.exp(1j * (residual - offset))))
        if best is None or err.max() < best[0]:
            best = (err.max(), sign, offset, err)
    return best


def dft_shift_operator(d=8, freqs=(1, 2, 3)):
    """Orthonormal harmonic basis whose transform is exactly circular shift."""
    i = np.arange(d)
    cols = []
    for k in freqs:
        cols.append(np.cos(TWO_PI * k * i / d))
        cols.append(np.sin(TWO_PI * k * i / d))
    basis = np.stack(cols, axis=1)
    basis /= np.linalg.norm(basis, axis=0)
    freq = FrequencyTable(
        n=1, entries=np.array([[k] for k in freqs], dtype=np.int64), multiplicity=1
    )
    return basis, freq


def bandlimit(x: np.ndarray, freqs=(1, 2, 3)) -> np.ndarray:
    """Project a circular signal onto the given harmonics (oracle side)."""
    d = len(x)
    out = np.zeros_like(x, dtype=float)
    i = np.arange(d)
    for k in freqs:
        c = np.cos(TWO_PI * k * i / d)
        s = np.sin(TWO_PI * k * i / d)
        out += (x @ c) / (c @ c) * c + (x @ s) / (s @ s) * s
    return out


def bilinear_sample(img, rows, cols, cyclic) -> np.ndarray:
    """Per-image bilinear sampler with explicit validity masks: sample one
    (side, side) image at fractional (row, col) positions, zero fill or
    wrap (oracle for the batched warp kernel in the library)."""
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


def oracle_warp(img, kind, p0, p1, cyclic=False) -> np.ndarray:
    """One image warped by translation (p0, p1) = (dx, dy) or by rotation
    and scaling (p0, p1) = (theta, scale), positions built per pixel grid."""
    side = img.shape[0]
    rr, cc = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float),
                         indexing="ij")
    if kind == "translate2d":
        return bilinear_sample(img, rr - p1, cc - p0, cyclic)
    center = (side - 1) / 2.0
    u, v = rr - center, cc - center
    cos_t, sin_t = np.cos(p0), np.sin(p0)
    src_r = (cos_t * u + sin_t * v) / p1 + center
    src_c = (-sin_t * u + cos_t * v) / p1 + center
    return bilinear_sample(img, src_r, src_c, cyclic=False)


def oracle_synthetic(templates, spec, seed):
    """(images, meta) of make_synthetic, one RNG and one warp per sample."""
    images, meta = [], []
    (lo0, hi0), (lo1, hi1) = spec.ranges
    for ti, template in enumerate(templates):
        for si in range(spec.count_per_template):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, ti, si]))
            p0, p1 = rng.uniform(lo0, hi0), rng.uniform(lo1, hi1)
            images.append(oracle_warp(template, spec.kind, p0, p1, spec.cyclic).ravel())
            meta.append((p0, p1))
    return np.array(images), np.array(meta)


class TracedPeak:
    """Context manager: ``peak`` is the tracemalloc peak of its body."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
