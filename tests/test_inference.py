import math

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

import torusparse as tp
from torusparse.inference import (
    _ascent_residual,
    code_gradient,
    fista_step_size,
    infer_code,
    infer_code_batch,
    prox_exponential,
    spectral_norm,
)
from torusparse import inference
from torusparse.posterior import (
    _blocks,
    _fold,
    _unfold,
    batch_posterior,
    expected_rotation,
    grid_tables,
    log_likelihood,
    natural_params,
    posterior_grid,
    posterior_natural_params,
)
from torusparse.torus import build_frequency_table, rotate_pairs

from conftest import fold_tables, oracle_infer_code_batch, point_mass_grid, small_model


def golden_minimize(fn, lo, hi, iters=200):
    ratio = (math.sqrt(5) - 1) / 2
    a = hi - ratio * (hi - lo)
    b = lo + ratio * (hi - lo)
    fa, fb = fn(a), fn(b)
    for _ in range(iters):
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - ratio * (hi - lo)
            fa = fn(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + ratio * (hi - lo)
            fb = fn(b)
    return 0.5 * (lo + hi)


def identity_transform_model(seed=0, d=4, k=3, noise_var=0.01, sparsity=10.0):
    """Square orthogonal basis with every block rate zero: transform == identity."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    basis = q * np.sign(np.diag(r))
    freq = tp.FrequencyTable(
        n=1, entries=np.zeros((d // 2, 1), dtype=np.int64), multiplicity=d // 2
    )
    dictionary = basis[:, :k]  # orthonormal columns
    return tp.ModelParams(
        basis=basis, dictionary=dictionary, freq=freq, noise_var=noise_var,
        sparsity=sparsity, prior=tp.TorusPrior.uniform(d // 2),
    )


class TestStepSize:
    def test_orthonormal_dictionary_in_span(self):
        model = identity_transform_model(noise_var=1.0)
        assert abs(fista_step_size(model) - 1 / 1.5) < 1e-10

    def test_linear_in_noise_variance(self):
        model = identity_transform_model(noise_var=1.0)
        halved = replace(model, noise_var=0.5)
        assert abs(fista_step_size(halved) - 0.5 * fista_step_size(model)) < 1e-12

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            model = small_model(trial, d=8, L=2, k=4, n=1, noise_var=0.3)
            got = fista_step_size(model)
            coupling = model.basis.T @ model.dictionary
            lam = np.linalg.eigvalsh(coupling.T @ coupling).max() / model.noise_var
            want = 1.0 / (1.5 * lam)
            assert abs(got - want) / want < 1e-8

    def test_zero_dictionary_errors(self):
        model = identity_transform_model()
        # atoms orthogonal to the basis span give zero curvature
        bad = replace(
            model,
            basis=np.eye(6)[:, :2],
            dictionary=np.eye(6)[:, 3:],
            freq=tp.FrequencyTable(n=1, entries=np.zeros((1, 1), dtype=np.int64),
                                   multiplicity=1),
            prior=tp.TorusPrior.uniform(1),
        )
        with pytest.raises(ValueError):
            fista_step_size(bad)


class TestCodeGradient:
    def test_zero_when_decoupled(self):
        # dictionary orthogonal to basis span and image orthogonal to both
        freq = build_frequency_table(n=1, L=1, m=1, max_norm=1)
        model = tp.ModelParams(
            basis=np.eye(6)[:, :2],
            dictionary=np.eye(6)[:, 2:4],
            freq=freq,
            noise_var=0.1,
            sparsity=1.0,
            prior=tp.TorusPrior.uniform(1),
        )
        image = np.eye(6)[:, 5]
        rbar = np.array([1.0, 0.0])
        for mode in ("exact", "approximate"):
            grad = code_gradient(image, np.array([0.4, 0.2]), model, rbar, mode)
            assert np.abs(grad).max() < 1e-14

    def test_finite_difference_match(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            model = small_model(trial + 50, d=12, L=3, k=3, n=1, noise_var=0.05)
            image = rng.standard_normal(12)
            image /= np.linalg.norm(image)
            code = rng.uniform(0.2, 1.0, 3)
            n_grid = 32
            grid = posterior_grid(
                posterior_natural_params(image, code, model), model.freq, n_grid
            )
            rbar = expected_rotation(grid, model.freq)
            grad = code_gradient(image, code, model, rbar, "exact")
            h = 1e-5
            fd = np.zeros(3)
            for k in range(3):
                d = np.zeros(3)
                d[k] = h
                fd[k] = (
                    log_likelihood(image, code + d, model, n_grid)
                    - log_likelihood(image, code - d, model, n_grid)
                ) / (2 * h)
            assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-4

    def test_identity_transform_reduction(self):
        model = identity_transform_model(seed=3, noise_var=0.2)
        rng = np.random.default_rng(4)
        image = rng.standard_normal(4)
        code = rng.uniform(0, 1, 3)
        rbar = np.zeros(4)
        rbar[0::2] = 1.0  # uniform posterior over zero-rate blocks
        want = model.dictionary.T @ (image - model.dictionary @ code) / 0.2
        for mode in ("exact", "approximate"):
            got = code_gradient(image, code, model, rbar, mode)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_modes_coincide_at_point_mass(self):
        model = small_model(5, d=10, L=2, k=3, n=1, noise_var=0.05)
        rng = np.random.default_rng(6)
        image = rng.standard_normal(10)
        code = rng.uniform(0, 1, 3)
        grid = point_mass_grid(model, 32, 11)
        rbar = expected_rotation(grid, model.freq)
        exact = code_gradient(image, code, model, rbar, "exact")
        approx = code_gradient(image, code, model, rbar, "approximate")
        assert np.abs(exact - approx).max() < 1e-10

    def test_unknown_mode(self):
        model = small_model(7)
        with pytest.raises(ValueError):
            code_gradient(np.zeros(model.dim), np.zeros(model.n_atoms), model,
                          np.zeros(2 * model.n_freq), "fancy")


class TestProx:
    def test_zero_threshold_clips_negatives(self):
        np.testing.assert_array_equal(
            prox_exponential(np.array([0.5, -0.2]), 0.0), [0.5, 0.0]
        )

    def test_arithmetic(self):
        np.testing.assert_allclose(
            prox_exponential(np.array([0.5, -0.2]), 0.1), [0.4, 0.0], atol=1e-15
        )

    def test_large_threshold_zeroes(self):
        x = np.array([0.3, 0.9, 0.1])
        assert prox_exponential(x, 0.9).tolist() == [0.0, 0.0, 0.0]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prox_exponential(np.zeros(2), -1e-9)


class TestInferCode:
    def test_huge_sparsity_kills_code(self):
        model = identity_transform_model(seed=8, sparsity=1e6)
        cfg = tp.TrainConfig(image_dim=4, n_freq=2, n_atoms=3, torus_dim=1,
                             fista_steps=10, grid_size=8, sparsity=1e6)
        code, _ = infer_code(np.array([1.0, 0, 0, 0]), model, cfg)
        assert code.tolist() == [0.0, 0.0, 0.0]

    def test_against_golden_section(self):
        model = identity_transform_model(seed=9, noise_var=0.01, sparsity=10.0)
        c = 1.0
        image = c * model.dictionary[:, 1]
        cfg = tp.TrainConfig(image_dim=4, n_freq=2, n_atoms=3, torus_dim=1,
                             fista_steps=60, grid_size=8, noise_var=0.01,
                             sparsity=10.0)
        code, _ = infer_code(image, model, cfg)

        def objective(a):
            probe = np.zeros(3)
            probe[1] = a
            return -log_likelihood(image, probe, model, 8) + 10.0 * a

        a_star = golden_minimize(objective, 0.0, 2.0)
        assert abs(code[1] - a_star) < 1e-6
        assert abs(a_star - (c - 10.0 * 0.01)) < 1e-6
        assert code[0] == 0.0 and code[2] == 0.0

    def test_objective_never_worse_than_start(self):
        # exact mode: its smooth gradient is the gradient of the evaluated
        # objective (the approximate mode optimizes a surrogate)
        rng = np.random.default_rng(10)
        cfg = tp.TrainConfig(image_dim=12, n_freq=3, n_atoms=3, torus_dim=1,
                             fista_steps=20, grid_size=24, noise_var=0.05,
                             sparsity=2.0, grad_mode="exact")
        for trial in range(20):
            model = small_model(trial + 200, d=12, L=3, k=3, n=1,
                                noise_var=0.05, sparsity=2.0)
            image = rng.standard_normal(12)
            image /= np.linalg.norm(image)
            code, _ = infer_code(image, model, cfg)
            assert (code >= 0).all()

            def neg_log_posterior(a):
                return -log_likelihood(image, a, model, 24) + 2.0 * a.sum()

            start = np.full(3, cfg.code_init)
            assert neg_log_posterior(code) <= neg_log_posterior(start) + 1e-9

    def test_deterministic(self):
        model = small_model(11, d=12, L=3, k=3, n=1, sparsity=0.5)
        cfg = tp.TrainConfig(image_dim=12, n_freq=3, n_atoms=3, torus_dim=1,
                             fista_steps=15, grid_size=16, noise_var=0.05,
                             sparsity=0.5)
        rng = np.random.default_rng(12)
        image = rng.standard_normal(12)
        image /= np.linalg.norm(image)
        code1, grid1 = infer_code(image, model, cfg)
        code2, grid2 = infer_code(image, model, cfg)
        assert code1.tobytes() == code2.tobytes()
        assert grid1.weights.tobytes() == grid2.weights.tobytes()

    def test_surrogate_descent_single_step(self):
        # one prox step at the returned step size never increases the
        # frozen objective built from a fixed expected rotation
        rng = np.random.default_rng(13)
        for trial in range(10):
            model = small_model(trial + 300, d=12, L=3, k=3, n=1, noise_var=0.05)
            image = rng.standard_normal(12)
            image /= np.linalg.norm(image)
            code = rng.uniform(0, 1, 3)
            grid = posterior_grid(
                posterior_natural_params(image, code, model), model.freq, 16
            )
            rbar = expected_rotation(grid, model.freq)
            coupling = model.basis.T @ model.dictionary
            v = image @ model.basis
            rc, rs = rbar[0::2], rbar[1::2]
            target = np.empty_like(v)
            target[0::2] = rc * v[0::2] + rs * v[1::2]
            target[1::2] = rc * v[1::2] - rs * v[0::2]
            lam = 2.0

            def frozen(a):
                u = coupling @ a
                return (u @ u / 2 - target @ u) / model.noise_var + lam * a.sum()

            step = fista_step_size(model)
            grad = code_gradient(image, code, model, rbar, "exact")
            stepped = prox_exponential(code + step * grad, step * lam)
            assert frozen(stepped) <= frozen(code) + 1e-12

    def test_non_finite_raises_with_iteration(self):
        model = small_model(14)
        model.dictionary = model.dictionary.copy()
        model.dictionary[0, 0] = np.inf
        cfg = tp.TrainConfig(image_dim=model.dim, n_freq=model.n_freq,
                             n_atoms=model.n_atoms, torus_dim=1, fista_steps=5,
                             grid_size=8)
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="iteration"):
                infer_code(np.ones(model.dim), model, cfg)

    def test_batch_matches_single(self):
        model = small_model(15, d=12, L=3, k=3, n=1, sparsity=0.5)
        cfg = tp.TrainConfig(image_dim=12, n_freq=3, n_atoms=3, torus_dim=1,
                             fista_steps=10, grid_size=16, noise_var=0.05,
                             sparsity=0.5)
        rng = np.random.default_rng(16)
        images = rng.standard_normal((5, 12))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        codes, post = infer_code_batch(images, model, cfg)
        # per-row agreement up to shape-dependent BLAS rounding
        for i in range(5):
            single, _ = infer_code(images[i], model, cfg)
            np.testing.assert_allclose(codes[i], single, atol=1e-12)


@pytest.mark.parametrize("mode", ["approximate", "exact"])
def test_coefficient_space_step_matches_d_space_oracle(mode):
    # a broad posterior (large noise variance) makes the blocks of the
    # expected rotation contractions, |r_l|^2 < 1, so the two modes differ
    model = small_model(40, d=12, L=3, k=3, n=1, noise_var=0.5, sparsity=0.2)
    cfg = tp.TrainConfig(image_dim=12, n_freq=3, n_atoms=3, torus_dim=1,
                         fista_steps=20, grid_size=16, noise_var=0.5,
                         sparsity=0.2, code_init=0.5, grad_mode=mode)
    rng = np.random.default_rng(41)
    images = rng.uniform(0.05, 1, (6, 12))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    codes, _ = infer_code_batch(images, model, replace(cfg, fista_steps=1))
    step = fista_step_size(model)
    init = np.full(3, cfg.code_init)
    for i in range(images.shape[0]):
        grid = posterior_grid(
            posterior_natural_params(images[i], init, model), model.freq,
            cfg.grid_size,
        )
        rbar = expected_rotation(grid, model.freq)
        rho = rbar[0::2] ** 2 + rbar[1::2] ** 2
        assert rho.min() < 0.9
        grad = code_gradient(images[i], init, model, rbar, mode)
        expected = prox_exponential(init + step * grad, step * model.sparsity)
        assert np.count_nonzero(expected) > 0
        np.testing.assert_allclose(codes[i], expected, rtol=0, atol=1e-12)


def record_ascent(monkeypatch):
    """Spies on the FISTA loop and the grid kernel of ``infer_code_batch``:
    a list that receives, per iteration, the codes the ascent was taken at
    and the frame rbar the kernel returned for them."""
    seen = []
    loop, kernel = inference.fista, inference.grid_pass

    def fista_spy(gradient, *args):
        def recorded(codes):
            seen.append([codes.copy()])
            return gradient(codes)
        return loop(recorded, *args)

    def kernel_spy(eta_hat, tables):
        result = kernel(eta_hat, tables)
        seen[-1].append(result[-1].copy())
        return result

    monkeypatch.setattr(inference, "fista", fista_spy)
    monkeypatch.setattr(inference, "grid_pass", kernel_spy)
    return seen


def test_ascent_rbar_is_batch_posterior_rbar_bit_for_bit(monkeypatch):
    # the FISTA iterations take r-bar from the unnormalised kernel pass; at
    # the same codes it must equal the r-bar of the full batch_posterior pass
    model = small_model(50, d=12, L=3, k=3, n=2, noise_var=0.1, kappa_scale=1.0)
    cfg = tp.TrainConfig(image_dim=12, n_freq=3, n_atoms=3, torus_dim=2,
                         fista_steps=4, grid_size=9, noise_var=0.1)
    rng = np.random.default_rng(51)
    images = rng.uniform(0.05, 1, (5, 12))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    seen = record_ascent(monkeypatch)
    infer_code_batch(images, model, cfg)
    assert len(seen) == cfg.fista_steps
    problem = (images @ model.basis, model.basis.T @ model.dictionary,
               natural_params(model.prior), model.noise_var, model.freq, cfg.grid_size)
    for codes, rbar in seen:
        want = batch_posterior(problem[0], codes, *problem[1:])[0].rbar
        assert np.array_equal(want, rbar)


def test_ascent_rbar_unfolds_to_batch_posterior_rbar_on_a_folding_table(monkeypatch):
    # rates with a negative last component fold, so the frame differs from
    # block order: the kernel's r-bar unfolded must equal batch_posterior's
    # r-bar at the same codes, bit for bit
    model = small_model(61, d=20, L=8, k=3, n=2, noise_var=0.1, sparsity=0.5,
                        kappa_scale=1.0)
    assert (model.freq.entries[:, -1] < 0).any()
    cfg = tp.TrainConfig(image_dim=20, n_freq=8, n_atoms=3, torus_dim=2,
                         fista_steps=4, grid_size=9, noise_var=0.1)
    tables = grid_tables(model.freq, cfg.grid_size)
    rng = np.random.default_rng(52)
    images = rng.uniform(0.05, 1, (5, 20))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    seen = record_ascent(monkeypatch)
    infer_code_batch(images, model, cfg)
    assert len(seen) == cfg.fista_steps
    problem = (images @ model.basis, model.basis.T @ model.dictionary,
               natural_params(model.prior), model.noise_var, model.freq, cfg.grid_size)
    for codes, rbar in seen:
        want = batch_posterior(problem[0], codes, *problem[1:])[0].rbar
        assert np.array_equal(_unfold(rbar.view(complex), tables), want)
        assert not np.array_equal(rbar, want)


def check_against_standard_frame_oracle(images, model, cfg):
    codes, post = infer_code_batch(images, model, cfg)
    want_codes, want_eta, want_rbar, want_weights = oracle_infer_code_batch(
        images, model, cfg, cfg.grid_size)
    np.testing.assert_allclose(codes, want_codes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(post.rbar, want_rbar, rtol=0, atol=1e-12)
    np.testing.assert_allclose(post.eta_hat, want_eta, rtol=0, atol=1e-12)
    return post.peak_index, want_weights


@pytest.mark.parametrize("mode", ["approximate", "exact"])
def test_half_spectrum_iterations_keep_the_oracle_peaks(mode):
    model = small_model(61, d=20, L=8, k=3, n=2, noise_var=0.1, sparsity=0.5,
                        kappa_scale=1.0)
    assert (model.freq.entries[:, -1] < 0).any()
    cfg = tp.TrainConfig(image_dim=20, n_freq=8, n_atoms=3, torus_dim=2,
                         fista_steps=8, grid_size=16, noise_var=0.1,
                         sparsity=0.5, code_init=0.5, grad_mode=mode)
    rng = np.random.default_rng(62)
    images = rng.uniform(0.05, 1, (6, 20))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    peaks, weights = check_against_standard_frame_oracle(images, model, cfg)
    np.testing.assert_array_equal(peaks, np.argmax(weights, axis=1))


def folding_case(fista_steps=8):
    model = small_model(61, d=20, L=8, k=3, n=2, noise_var=0.1, sparsity=0.5,
                        kappa_scale=1.0)
    assert (model.freq.entries[:, -1] < 0).any()
    cfg = tp.TrainConfig(image_dim=20, n_freq=8, n_atoms=3, torus_dim=2,
                         fista_steps=fista_steps, grid_size=16, noise_var=0.1,
                         sparsity=0.5, code_init=0.5)
    rng = np.random.default_rng(62)
    images = rng.uniform(0.05, 1, (6, 20))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    return model, cfg, images


def test_inference_caches_one_grid_table(monkeypatch):
    # the half-spectrum frame is the table's own: no twin table is cached
    from torusparse import posterior

    model, cfg, images = folding_case()
    monkeypatch.setattr(posterior, "_TABLE_CACHE", {})
    infer_code_batch(images, model, cfg)
    assert list(posterior._TABLE_CACHE) == [model.freq.cache_key() + (cfg.grid_size,)]


def test_inference_folds_a_fixed_number_of_times(monkeypatch):
    # the problem is folded on the way in and unfolded on the way out,
    # never once per FISTA iteration
    from torusparse import posterior

    calls = []

    def spy(pairs, tables, _inner=posterior._fold):
        calls.append(1)
        return _inner(pairs, tables)

    for module in (posterior, inference):
        monkeypatch.setattr(module, "_fold", spy)
    counts = []
    for steps in (1, 5):
        model, cfg, images = folding_case(steps)
        calls.clear()
        infer_code_batch(images, model, cfg)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@settings(max_examples=60, deadline=None)
@given(freq=fold_tables(), N=st.integers(3, 8), atoms=st.integers(1, 3),
       batch=st.integers(1, 4), noise_var=st.floats(0.05, 0.5),
       mode=st.sampled_from(["approximate", "exact"]),
       seed=st.integers(0, 2**32 - 1))
def test_half_spectrum_iterations_match_the_standard_frame_oracle(
    freq, N, atoms, batch, noise_var, mode, seed
):
    # FISTA runs in the grid table's half-spectrum frame and unfolds once;
    # the oracle folds and unfolds inside every pass, with the ascent
    # applied by rotate_pairs
    rng = np.random.default_rng(seed)
    d = 2 * freq.L + 2
    dictionary = rng.uniform(size=(d, atoms))
    dictionary /= np.linalg.norm(dictionary, axis=0)
    model = tp.ModelParams(
        basis=np.linalg.qr(rng.standard_normal((d, 2 * freq.L)))[0],
        dictionary=dictionary, freq=freq, noise_var=noise_var, sparsity=0.2,
        prior=tp.TorusPrior(kappa=rng.uniform(0, 1, freq.L),
                            mu=rng.uniform(0, 2 * np.pi, freq.L)),
    )
    cfg = tp.TrainConfig(image_dim=d, n_freq=freq.L, n_atoms=atoms,
                         torus_dim=freq.n, fista_steps=5, grid_size=N,
                         noise_var=noise_var, sparsity=0.2, code_init=0.5,
                         grad_mode=mode)
    images = rng.uniform(0.05, 1, (batch, d))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    peaks, weights = check_against_standard_frame_oracle(images, model, cfg)
    # a table whose rates do not tell some grid points apart (all rates
    # multiples of (1, -1), say) gives them equal weights up to rounding;
    # the peak may then be either, and nowhere else
    want = np.argmax(weights, axis=1)
    rows = np.arange(batch)
    tied = np.abs(weights[rows, peaks] - weights[rows, want]) <= 1e-12
    assert ((peaks == want) | tied).all()


def oracle_code_gradient(image, code, model, rbar, mode):
    """The D-space code gradient: the approximate form pushes the residual
    image - B R u back through B and R^T, the exact form is R^T v - u."""
    coupling = model.basis.T @ model.dictionary
    u = code @ coupling.T
    v = image @ model.basis
    rc, rs = rbar[..., 0::2], rbar[..., 1::2]
    if mode == "exact":
        back = rotate_pairs(rc, rs, v, adjoint=True) - u
    else:
        residual = image - rotate_pairs(rc, rs, u) @ model.basis.T
        back = rotate_pairs(rc, rs, residual @ model.basis, adjoint=True)
    return (back @ coupling) / model.noise_var


@settings(max_examples=60, deadline=None)
@given(freq=fold_tables(), atoms=st.integers(1, 4), extra=st.integers(0, 6),
       batch=st.integers(1, 4), noise_var=st.floats(0.01, 1.0),
       mode=st.sampled_from(["approximate", "exact"]),
       seed=st.integers(0, 2**32 - 1))
def test_code_gradient_matches_the_d_space_oracle(freq, atoms, extra, batch,
                                                  noise_var, mode, seed):
    rng = np.random.default_rng(seed)
    d = 2 * freq.L + 2 * extra
    dictionary = rng.uniform(size=(d, atoms))
    dictionary /= np.linalg.norm(dictionary, axis=0)
    model = tp.ModelParams(
        basis=np.linalg.qr(rng.standard_normal((d, 2 * freq.L)))[0],
        dictionary=dictionary, freq=freq, noise_var=noise_var, sparsity=0.2,
        prior=tp.TorusPrior.uniform(freq.L),
    )
    images = rng.standard_normal((batch, d))
    codes = rng.uniform(0, 2, (batch, atoms))
    rbar = rng.uniform(-1, 1, (batch, 2 * freq.L))
    got = code_gradient(images, codes, model, rbar, mode)
    want = oracle_code_gradient(images, codes, model, rbar, mode)
    assert got.shape == (batch, atoms)
    # relative to the size of the terms, which may cancel in the gradient
    coupling_norm = np.linalg.norm(model.basis.T @ model.dictionary, 2)
    for i in range(batch):
        terms = np.linalg.norm(images[i]) + np.linalg.norm(codes[i]) * coupling_norm
        scale = terms * coupling_norm / noise_var
        row = code_gradient(images[i], codes[i], model, rbar[i], mode)
        assert row.shape == (atoms,)
        assert np.abs(row - want[i]).max() <= 1e-12 * scale
        assert np.abs(got[i] - row).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(freq=fold_tables(), N=st.integers(2, 7), batch=st.integers(1, 3),
       exact=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_ascent_residual_commutes_with_the_fold(freq, N, batch, exact, seed):
    # the fold conjugates some blocks and reorders them all; conjugating
    # v, u and rbar conjugates the residual, so unfolding gives the
    # block-order result bit for bit
    rng = np.random.default_rng(seed)
    tables = grid_tables(freq, N)
    v, u, rbar = rng.standard_normal((3, batch, 2 * freq.L))
    want = _ascent_residual(_blocks(v), _blocks(u), _blocks(rbar), exact)
    folded = _ascent_residual(_fold(v, tables), _fold(u, tables), _fold(rbar, tables),
                              exact)
    assert np.array_equal(_unfold(folded, tables), want.view(float))


def test_spectral_norm_edge_cases():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert spectral_norm(np.diag([1.0, 3.0, 2.0])) == 3.0
    assert math.isnan(spectral_norm(np.array([[1.0, 0.0], [0.0, np.inf]])))
