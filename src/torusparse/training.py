"""Alternating inference / parameter-update training loop, plus the
plain sparse-coding baseline it is benchmarked against.

Each batch is normalized, codes are inferred per image with the angle
posterior integrated into every step, and the basis and dictionary move
along batch-averaged likelihood gradients: projected gradient with column
renormalization for the dictionary, Riemannian Adam for the basis.
Parameter updates always use the full posterior expectation of the
rotation, never a point estimate of the angles.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .datasets import normalize_batch
from .inference import (
    _ascent_residual,
    _check_gradient_inputs,
    fista,
    infer_code_batch,
    spectral_norm,
)
from .lanes import Lanes, run, split
from .posterior import TorusPrior, _blocks, check_grid_points
from .stiefel import StiefelAdamState, phi_update, positive_qr, riemannian_adam_step
from .torus import (
    TWO_PI,
    FrequencyTable,
    TorusOperator,
    check_basis_shape,
    check_orthonormal,
    frequency_table_auto,
    grid_lattice,
    validate_frequency_table,
)

COLUMN_NORM_TOL = 1e-10
# Added to each baseline atom's mean squared activation before it divides
# the atom's gradient, so a silent atom's step stays finite.
BASELINE_EPS_REG = 0.001


@dataclass(eq=False)
class ModelParams:
    """Learnable state: basis, dictionary, frequency table, and scalars."""

    basis: np.ndarray  # (D, 2L) orthonormal columns
    dictionary: np.ndarray  # (D, K) unit-norm columns
    freq: FrequencyTable
    noise_var: float
    sparsity: float
    prior: TorusPrior

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.dictionary.shape[1]

    @property
    def n_freq(self) -> int:
        return self.freq.L

    def operator(self) -> TorusOperator:
        return TorusOperator(basis=self.basis, freq=self.freq)

    def validate(self) -> None:
        """Raise ValueError unless every invariant holds. The Gram-matrix
        orthonormality check, the only costly one, comes last."""
        self._validate_all_but_orthonormality()
        check_orthonormal(self.basis)

    def _validate_all_but_orthonormality(self) -> None:
        if self.freq.L < 1 or self.dictionary.shape[1] < 1:
            raise ValueError("need at least one rotation block and one atom")
        check_basis_shape(self.basis, self.freq.L)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail below
            col_err = np.abs(np.linalg.norm(self.dictionary, axis=0) - 1.0).max()
        if not col_err <= COLUMN_NORM_TOL:
            raise ValueError(f"dictionary columns not unit norm (error {col_err:.3e})")
        if self.dictionary.shape[0] != self.dim:
            raise ValueError("dictionary rows do not match model dimension")
        for name in ("noise_var", "sparsity"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.noise_var > 0:
            raise ValueError("noise variance must be positive")
        if self.sparsity < 0:
            raise ValueError("sparsity rate must be nonnegative")
        if self.prior.kappa.shape[0] != self.freq.L:
            raise ValueError("prior length does not match frequency table")
        validate_frequency_table(self.freq)


@dataclass(eq=False)
class TrainConfig:
    """Hyperparameters for training; defaults follow the reference setup."""

    batch_size: int = 100
    fista_steps: int = 20
    grid_size: int = 50
    epochs: int = 20
    lr_dict: float = 0.05
    lr_basis: float = 0.3
    code_init: float = 0.01
    seed: int = 0
    grad_mode: str = "approximate"
    torus_dim: int = 2
    n_freq: int = 128
    n_atoms: int = 10
    multiplicity: int = 1
    image_dim: int = 784
    noise_var: float = 0.01
    sparsity: float = 10.0
    include_zero_freq: bool = True

    def validate(self) -> None:
        for name in ("lr_dict", "lr_basis", "code_init", "noise_var", "sparsity"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("batch_size", "fista_steps", "epochs", "lr_dict", "lr_basis",
                     "code_init", "torus_dim", "n_freq", "n_atoms", "multiplicity",
                     "image_dim", "noise_var"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.grid_size < 2:
            raise ValueError("grid_size must be >= 2")
        check_grid_points(self.torus_dim, self.grid_size)
        if self.sparsity < 0:
            raise ValueError("sparsity must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.grad_mode not in ("exact", "approximate"):
            raise ValueError(f"grad_mode must be exact|approximate, got {self.grad_mode!r}")
        if self.image_dim % 2 != 0:
            raise ValueError("image_dim must be even")
        if 2 * self.n_freq > self.image_dim:
            raise ValueError("2 * n_freq must not exceed image_dim")


def init_model(cfg: TrainConfig, rng_seed: int) -> ModelParams:
    """Draw the initial parameters: orthonormalized Gaussian basis,
    normalized nonnegative-uniform dictionary, uniform angle prior."""
    cfg.validate()
    rng = np.random.default_rng(rng_seed)
    raw = rng.standard_normal((cfg.image_dim, 2 * cfg.n_freq))
    basis = positive_qr(raw)[0]
    dictionary = rng.uniform(size=(cfg.image_dim, cfg.n_atoms))
    dictionary /= np.linalg.norm(dictionary, axis=0)
    freq = frequency_table_auto(
        cfg.torus_dim, cfg.n_freq, cfg.multiplicity, cfg.include_zero_freq
    )
    model = ModelParams(
        basis=basis,
        dictionary=dictionary,
        freq=freq,
        noise_var=cfg.noise_var,
        sparsity=cfg.sparsity,
        prior=TorusPrior.uniform(cfg.n_freq),
    )
    # positive_qr's Q is orthonormal to 1e-12 already: its CholeskyQR path
    # checks the Gram matrix, and Householder QR needs no check.
    model._validate_all_but_orthonormality()
    return model


def _gradients_at(image, code, model, rbar, mode, grid=None):
    """The ambient (dictionary, basis) gradients at one image: a B=1
    ``_batch_gradients`` call, with the normal term -B S / sigma^2 added
    back to H. S is (R u)^T (R u) in approximate mode; in exact mode it is
    the second moment of R u, a dense quadrature over the posterior
    ``grid``, and without a grid the basis gradient is None."""
    image, code = np.asarray(image, dtype=float), np.asarray(code, dtype=float)
    if image.shape[-1] != model.dim or code.shape[-1] != model.n_atoms:
        raise ValueError("image/code shapes do not match model")
    if mode not in ("exact", "approximate"):
        raise ValueError(f"unknown gradient mode {mode!r}")
    rbar = _check_gradient_inputs(model, rbar, grid=grid)[None]
    exact = mode == "exact"
    grad_dict, grad_basis, _ = _batch_gradients(image[None], code[None], model, rbar, exact)
    u = _blocks(code[None] @ (model.basis.T @ model.dictionary).T)
    if not exact:
        rotated = (_blocks(rbar) * u).view(float)
        moment = rotated.T @ rotated
    elif grid is None:
        return grad_dict, None
    else:
        angles = grid_lattice(model.freq.n, grid.N) @ model.freq.entries.T % grid.N
        rotated = (np.exp((1j * TWO_PI / grid.N) * angles) * u).view(float)
        moment = (rotated * grid.weights[:, None]).T @ rotated
    return grad_dict, grad_basis - model.basis @ moment / model.noise_var


def dictionary_gradient(image, code, model, rbar, mode="approximate"):
    """Likelihood ascent gradient for the dictionary at one image."""
    return _gradients_at(image, code, model, rbar, mode)[0]


def basis_gradient(image, code, model, rbar, mode="approximate", grid=None):
    """Ambient likelihood ascent gradient for the basis at one image. The
    approximate form treats the expected transform and expected residual
    as independent; the exact form keeps the rotation's second moment,
    a dense quadrature over the posterior ``grid``."""
    if mode == "exact" and grid is None:
        raise ValueError("exact basis gradient requires the posterior grid")
    return _gradients_at(image, code, model, rbar, mode, grid)[1]


def _batch_gradients(images, codes, model, rbar, exact, v=None, lanes=None):
    """Batch-mean training gradients, built in the 2L coefficient space:
    (dictionary gradient, basis term H, mean squared residual).

    With v = X B, u = codes C^T (C = B^T Phi) and FISTA's ascent residual
    back = R^T v - rho u (``_ascent_residual``; rho = |r_l|^2 per block, 1
    in ``exact`` mode, where E[R^T R] = I), the dictionary gradient is
    B (codes^T back)^T and H = X^T (R u) + Phi (codes^T back), both over
    b sigma^2. H is the ambient basis gradient without its -B S term, S
    symmetric ((R u)^T (R u), or the second moment of R u in exact mode);
    B S is normal to the manifold, so H has the ambient gradient's tangent
    part, and only the per-image ``basis_gradient`` adds -B S back. As
    B^T B = I, the squared residual |x - B R u|^2 is |x|^2 - 2 v . R u +
    |R u|^2. ``v`` is the projection X B when the caller already holds it.
    With ``lanes``, the D rows of both gradients are formed in blocks on
    the lanes.
    """
    rot = _blocks(rbar)
    u = _blocks(codes @ (model.basis.T @ model.dictionary).T)
    v = images @ model.basis if v is None else v
    ru = (rot * u).view(float)
    coef = codes.T @ _ascent_residual(_blocks(v), u, rot, exact).view(float)
    scale = images.shape[0] * model.noise_var
    # H = [X; Phi^T]^T [R u; coef], one product per block of rows
    stacked = np.concatenate([images, model.dictionary.T])
    weights = np.concatenate([ru, coef])
    grad_dict = np.empty(model.dictionary.shape)
    grad_basis = np.empty(model.basis.shape)

    def rows(r):
        np.matmul(model.basis[r], coef.T, out=grad_dict[r])
        grad_dict[r] /= scale
        np.matmul(stacked[:, r].T, weights, out=grad_basis[r])
        grad_basis[r] /= scale

    run(lanes, rows, split(model.dim, lanes))
    sq_residual = np.vdot(images, images) - 2.0 * np.vdot(v, ru) + np.vdot(ru, ru)
    return grad_dict, grad_basis, float(sq_residual / images.shape[0])


def _run_epochs(data, dim: int, cfg: TrainConfig, shuffle_key, batch_step,
                params_name: str, log_path: Optional[str]):
    """Epoch/batch/log driver shared by both trainers; returns the log.

    Checks and normalizes the dataset, reshuffles it every epoch with the
    generator seeded by ``shuffle_key`` and feeds each batch to
    ``batch_step(batch) -> (mean squared residual, codes, parameters)``.
    The parameters must stay finite; log records are as in ``train``.
    """
    images_all = np.asarray(data.images, dtype=float)
    if images_all.ndim != 2 or images_all.shape[0] == 0:
        raise ValueError("dataset is empty")
    if images_all.shape[1] != dim:
        raise ValueError(
            f"dataset images have length {images_all.shape[1]}, model needs {dim}"
        )
    images_all = normalize_batch(images_all)

    shuffle_rng = np.random.default_rng(shuffle_key)
    log: list[tuple] = []
    sink = open(log_path, "w") if log_path else None
    try:
        for epoch in range(cfg.epochs):
            order = shuffle_rng.permutation(images_all.shape[0])
            for batch_idx, start in enumerate(range(0, len(order), cfg.batch_size)):
                tic = time.perf_counter()
                batch = images_all[order[start : start + cfg.batch_size]]
                residual, codes, params = batch_step(batch)
                if not all(np.isfinite(p).all() for p in params):
                    raise RuntimeError(
                        f"non-finite {params_name} after epoch {epoch} batch {batch_idx}"
                    )
                record = (
                    epoch,
                    batch_idx,
                    residual,
                    float(np.mean(np.sum(codes, axis=1))),
                    time.perf_counter() - tic,
                )
                log.append(record)
                if sink:
                    sink.write(
                        f"{record[0]}\t{record[1]}\t{record[2]:.10g}"
                        f"\t{record[3]:.10g}\t{record[4]:.6g}\n"
                    )
    finally:
        if sink:
            sink.close()
    return log


def train(
    model: ModelParams,
    data,
    cfg: TrainConfig,
    threads: int = 1,
    log_path: Optional[str] = None,
):
    """Run the full training loop; returns (trained model, per-batch log).

    Each batch's gradients come from ``_batch_gradients``. The basis moves
    along its term H, which has the ambient gradient's tangent part, the
    only part Riemannian Adam uses; so exact mode needs no second
    posterior pass and never forms the normal term. Inference runs in tiles
    fixed by the batch on up to ``threads`` threads; the gradients and the
    Stiefel step run in fixed blocks on one set of ``threads`` lanes, open
    for the whole run. So the bits do not depend on ``threads``.

    Log records are (epoch, batch, mean squared residual, mean code L1,
    seconds); with ``log_path`` they are also appended to disk as
    tab-separated lines.
    """
    cfg.validate()
    adam = StiefelAdamState.init(model.basis.shape, cfg.lr_basis)

    def batch_step(batch):
        nonlocal model, adam
        v = np.empty((batch.shape[0], model.basis.shape[1]))
        codes, post = infer_code_batch(batch, model, cfg, threads=threads, projection=v)
        grad_d, grad_b, residual = _batch_gradients(
            batch, codes, model, post.rbar, cfg.grad_mode == "exact", v=v, lanes=lanes)
        new_dict = phi_update(model.dictionary, grad_d, cfg.lr_dict)
        adam, new_basis = riemannian_adam_step(adam, model.basis, grad_b, lanes)
        model = replace(model, dictionary=new_dict, basis=new_basis)
        return residual, codes, (model.basis, model.dictionary)

    with Lanes(threads) as lanes:
        log = _run_epochs(data, model.dim, cfg, [cfg.seed, 1], batch_step,
                          "parameters", log_path)
    return model, log


@dataclass(eq=False)
class BaselineState:
    """Plain sparse-coding state: dictionary plus the code-energy history
    driving the curvature-compensated dictionary step."""

    dictionary: np.ndarray
    code_sq_history: deque = field(default_factory=lambda: deque(maxlen=300))


def _baseline_infer(images, dictionary, cfg):
    """Nonnegative FISTA on the identity-transform objective."""
    gram = dictionary.T @ dictionary
    lam_max = spectral_norm(gram) / cfg.noise_var
    step = 1.0 / (1.5 * lam_max)
    proj = images @ dictionary
    init = np.full((images.shape[0], dictionary.shape[1]), cfg.code_init)
    return fista(lambda moment: (proj - moment @ gram) / cfg.noise_var,
                 init, step, step * cfg.sparsity, cfg.fista_steps)


def train_baseline(
    data, cfg: TrainConfig, log_path: Optional[str] = None,
    state: Optional["BaselineState"] = None,
):
    """Sparse coding with identity transform and the second-order-style
    dictionary step: each atom's gradient is divided by its mean squared
    activation over the last 300 batches (plus 0.001).

    Passing ``state`` continues from an existing dictionary; otherwise the
    dictionary starts as normalized nonnegative uniform noise.
    """
    cfg.validate()
    if state is None:
        rng = np.random.default_rng([cfg.seed, 2])
        dictionary = rng.uniform(size=(np.shape(data.images)[-1], cfg.n_atoms))
        dictionary /= np.linalg.norm(dictionary, axis=0)
        state = BaselineState(dictionary=dictionary)

    def batch_step(batch):
        codes = _baseline_infer(batch, state.dictionary, cfg)
        residual = batch - codes @ state.dictionary.T
        grad = residual.T @ codes / (batch.shape[0] * cfg.noise_var)
        state.code_sq_history.append(np.mean(codes * codes, axis=0))
        mean_sq = np.mean(np.stack(state.code_sq_history), axis=0)
        scaled = grad / (mean_sq + BASELINE_EPS_REG)
        state.dictionary = phi_update(state.dictionary, scaled, cfg.lr_dict)
        mean_sq_residual = float(np.mean(np.sum(residual * residual, axis=1)))
        return mean_sq_residual, codes, (state.dictionary,)

    log = _run_epochs(data, state.dictionary.shape[0], cfg, [cfg.seed, 3], batch_step,
                      "dictionary", log_path)
    return state, log


def baseline_model_params(
    state: BaselineState, noise_var: float, sparsity: float
) -> ModelParams:
    """Embed a baseline dictionary as a model whose transform is the identity.

    A full-rank identity basis with an all-zero frequency table makes the
    transform exactly the identity for every angle, so shared evaluation
    and checkpoint tooling apply unchanged.
    """
    d = state.dictionary.shape[0]
    if d % 2 != 0:
        raise ValueError("identity embedding needs an even image dimension")
    half = d // 2
    freq = FrequencyTable(n=1, entries=np.zeros((half, 1), dtype=np.int64), multiplicity=half)
    return ModelParams(
        basis=np.eye(d),
        dictionary=state.dictionary.copy(),
        freq=freq,
        noise_var=noise_var,
        sparsity=sparsity,
        prior=TorusPrior.uniform(half),
    )
