import numpy as np
import pytest
from dataclasses import replace
from functools import partial
from hypothesis import given, settings, strategies as st

import torusparse as tp
from torusparse.posterior import (
    PosteriorGrid,
    batch_posterior,
    expected_rotation,
    natural_params,
    posterior_grid,
    posterior_natural_params,
)
from torusparse.datasets import normalize_batch
from torusparse.inference import CHUNK_WEIGHTS, _tile_slices
from torusparse.stiefel import (
    StiefelAdamState,
    phi_update,
    riemannian_adam_step,
    tangent_project,
)
from torusparse.torus import rotate_pairs
from torusparse.training import (
    BaselineState,
    _batch_gradients,
    _gradients_at,
    baseline_model_params,
    basis_gradient,
    dictionary_gradient,
    init_model,
    train,
    train_baseline,
)

from conftest import (
    brute_log_marginal,
    desk_config,
    desk_dataset,
    oracle_gradients,
    point_mass_grid,
    small_model,
)


def tiny_config(**overrides):
    base = dict(batch_size=8, fista_steps=6, grid_size=12, epochs=2,
                lr_dict=0.05, lr_basis=0.05, seed=3, torus_dim=1, n_freq=3,
                n_atoms=3, image_dim=16, noise_var=0.05, sparsity=0.5)
    base.update(overrides)
    return tp.TrainConfig(**base)


def tiny_dataset(seed=0, count=24, d=16):
    rng = np.random.default_rng(seed)
    images = rng.uniform(0.05, 1.0, size=(count, d))
    return tp.Dataset(images=images, side=4)


class TestInitModel:
    def test_invariants_and_shapes(self):
        cfg = tiny_config()
        model = init_model(cfg, 7)
        model.validate()
        assert model.basis.shape == (16, 6)
        assert model.dictionary.shape == (16, 3)
        assert (model.dictionary >= 0).all()

    @pytest.mark.parametrize("shape", [dict(), dict(image_dim=784, n_freq=128)])
    def test_basis_orthonormal_to_1e_12_with_one_gram_check(self, monkeypatch, shape):
        from torusparse import stiefel

        calls = []
        error = stiefel._identity_error

        def counted(gram):
            calls.append(gram.shape)
            return error(gram)

        # every Gram check, positive_qr's and orthonormality_error's, ends here
        monkeypatch.setattr(stiefel, "_identity_error", counted)
        model = init_model(tiny_config(**shape), 3)
        assert len(calls) == 1  # positive_qr's, not a second one in validate
        gram = model.basis.T @ model.basis
        assert np.abs(gram - np.eye(gram.shape[0])).max() <= 1e-12

    def test_other_invariants_still_checked(self, monkeypatch):
        from torusparse import training

        def flipped_table(*args):
            table = tp.frequency_table_auto(*args)
            table.entries[-1] *= -1
            return table

        monkeypatch.setattr(training, "frequency_table_auto", flipped_table)
        with pytest.raises(ValueError, match="violates canonical sign"):
            init_model(tiny_config(), 0)

    def test_bitwise_determinism(self):
        cfg = tiny_config()
        a = init_model(cfg, 11)
        b = init_model(cfg, 11)
        assert a.basis.tobytes() == b.basis.tobytes()
        assert a.dictionary.tobytes() == b.dictionary.tobytes()

    def test_single_atom(self):
        cfg = tiny_config(image_dim=4, n_freq=1, n_atoms=1)
        model = init_model(cfg, 0)
        assert model.dictionary.shape == (4, 1)
        assert abs(np.linalg.norm(model.dictionary[:, 0]) - 1) < 1e-12

    def test_dimension_constraints(self):
        with pytest.raises(ValueError):
            init_model(tiny_config(image_dim=15), 0)
        with pytest.raises(ValueError):
            init_model(tiny_config(image_dim=4, n_freq=3), 0)

    @pytest.mark.parametrize("name, value", [
        ("noise_var", np.inf), ("noise_var", np.nan),
        ("sparsity", np.nan), ("sparsity", np.inf),
    ])
    def test_non_finite_scalars_rejected_by_name(self, name, value):
        model = replace(init_model(tiny_config(), 0), **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            model.validate()


def _without_atoms(model):
    return replace(model, dictionary=model.dictionary[:, :0])


def _scaled_atom(model):
    return replace(model, dictionary=model.dictionary * 1.5)


def _extra_rows(model):
    rows = np.vstack([model.dictionary, model.dictionary]) / np.sqrt(2.0)
    return replace(model, dictionary=rows)


@pytest.mark.parametrize("change, message", [
    (_without_atoms, "need at least one rotation block and one atom"),
    (_scaled_atom, "dictionary columns not unit norm (error 5.000e-01)"),
    (_extra_rows, "dictionary rows do not match model dimension"),
    (lambda model: replace(model, noise_var=0.0), "noise variance must be positive"),
    (lambda model: replace(model, sparsity=-1.0), "sparsity rate must be nonnegative"),
    (lambda model: replace(model, prior=tp.TorusPrior.uniform(model.n_freq + 1)),
     "prior length does not match frequency table"),
], ids=["no-atom", "column-norm", "dictionary-rows", "noise-var", "sparsity", "prior"])
def test_model_refusals_name_their_cause(change, message):
    model = change(init_model(tiny_config(), 0))
    with pytest.raises(ValueError) as info:
        model.validate()
    assert str(info.value) == message


class TestDictionaryGradient:
    def test_zero_code_gives_zero(self):
        model = small_model(0)
        rbar = np.zeros(2 * model.n_freq)
        grad = dictionary_gradient(
            np.ones(model.dim), np.zeros(model.n_atoms), model, rbar
        )
        assert np.abs(grad).max() == 0.0

    def test_modes_agree_at_point_mass(self):
        model = small_model(1, d=10, L=2, k=3, n=1)
        rng = np.random.default_rng(2)
        image = rng.standard_normal(10)
        code = rng.uniform(0, 1, 3)
        rbar = expected_rotation(point_mass_grid(model, 24, 7), model.freq)
        exact = dictionary_gradient(image, code, model, rbar, "exact")
        approx = dictionary_gradient(image, code, model, rbar, "approximate")
        assert np.abs(exact - approx).max() < 1e-10

    def test_exact_matches_finite_differences(self):
        model = small_model(3, d=12, L=3, k=3, n=1, noise_var=0.05)
        rng = np.random.default_rng(4)
        image = rng.standard_normal(12)
        image /= np.linalg.norm(image)
        code = rng.uniform(0.2, 1.0, 3)
        n_grid = 24
        grid = posterior_grid(
            posterior_natural_params(image, code, model), model.freq, n_grid
        )
        rbar = expected_rotation(grid, model.freq)
        grad = dictionary_gradient(image, code, model, rbar, "exact")
        h = 1e-5
        fd = np.zeros_like(grad)
        for i in range(12):
            for j in range(3):
                bump = np.zeros_like(model.dictionary)
                bump[i, j] = h
                up = replace(model, dictionary=model.dictionary + bump)
                down = replace(model, dictionary=model.dictionary - bump)
                fd[i, j] = (
                    tp.log_likelihood(image, code, up, n_grid)
                    - tp.log_likelihood(image, code, down, n_grid)
                ) / (2 * h)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-4


class TestBasisGradient:
    def test_zero_code_gives_zero(self):
        model = small_model(5)
        rbar = np.zeros(2 * model.n_freq)
        grad = basis_gradient(np.ones(model.dim), np.zeros(model.n_atoms), model, rbar)
        assert np.abs(grad).max() == 0.0

    def test_shapes(self):
        model = small_model(6, d=14, L=3, k=2, n=2)
        rng = np.random.default_rng(7)
        rbar = expected_rotation(point_mass_grid(model, 8, 3), model.freq)
        grad = basis_gradient(rng.standard_normal(14), rng.uniform(0, 1, 2),
                              model, rbar)
        assert grad.shape == (14, 6)

    def test_modes_agree_at_point_mass(self):
        model = small_model(8, d=10, L=2, k=3, n=1)
        rng = np.random.default_rng(9)
        image = rng.standard_normal(10)
        code = rng.uniform(0, 1, 3)
        grid = point_mass_grid(model, 24, 13)
        rbar = expected_rotation(grid, model.freq)
        exact = basis_gradient(image, code, model, rbar, "exact", grid)
        approx = basis_gradient(image, code, model, rbar, "approximate")
        assert np.abs(exact - approx).max() < 1e-10

    def test_exact_matches_finite_differences_at_point_mass(self):
        # FD differentiates the residual-form marginal: the closed-form
        # marginal uses basis orthonormality, which off-manifold probes break
        model = small_model(10, d=12, L=3, k=3, n=1, noise_var=0.03)
        rng = np.random.default_rng(11)
        n_grid = 24
        node = 17
        s_star = 2 * np.pi * node / n_grid
        template = model.dictionary @ np.array([0.9, 0.1, 0.3])
        image = tp.apply_transform(model.operator(), [s_star], template)
        image += 1e-3 * rng.standard_normal(12)
        code = np.array([0.9, 0.1, 0.3])
        # tiny noise variance sharpens the posterior onto the node
        sharp = replace(model, noise_var=3e-5)
        grid = posterior_grid(
            posterior_natural_params(image, code, sharp), sharp.freq, n_grid
        )
        assert grid.weights.max() > 1 - 1e-9
        rbar = expected_rotation(grid, sharp.freq)
        grad = basis_gradient(image, code, sharp, rbar, "exact", grid)
        h = 1e-5
        fd = np.zeros_like(grad)
        for i in range(12):
            for j in range(6):
                bump = np.zeros_like(sharp.basis)
                bump[i, j] = h
                fd[i, j] = (
                    brute_log_marginal(image, code, replace(sharp, basis=sharp.basis + bump), n_grid)
                    - brute_log_marginal(image, code, replace(sharp, basis=sharp.basis - bump), n_grid)
                ) / (2 * h)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-4


class TestGradientRefusals:
    """The per-image gradients refuse a bad rbar or posterior grid by name,
    where numpy would broadcast it or fail on a shape."""

    def setup_method(self):
        self.model = small_model(19, d=14, L=5, k=3, n=2)
        self.image = np.linspace(0.1, 1.0, 14)
        self.code = np.array([0.5, 0.2, 0.1])
        self.grid = posterior_grid(
            posterior_natural_params(self.image, self.code, self.model), self.model.freq, 6)
        self.rbar = expected_rotation(self.grid, self.model.freq)

    def gradients(self, rbar):
        """Each per-image gradient at this image and code, in both modes."""
        args = (self.image, self.code, self.model, rbar)
        return [partial(grad, *args, mode)
                for grad in (tp.code_gradient, dictionary_gradient)
                for mode in ("approximate", "exact")] + [
            partial(basis_gradient, *args), partial(basis_gradient, *args, "exact", self.grid)]

    def test_rbar_of_another_shape(self):
        for rbar in (self.rbar[:2], self.rbar[:-1], np.tile(self.rbar, (3, 1))):
            for call in self.gradients(rbar):
                with pytest.raises(ValueError, match=rf"rbar has shape \({len(rbar)},"):
                    call()
        with pytest.raises(ValueError, match=r"rbar has shape \(10,\); expected \(2, 10\)"):
            tp.code_gradient(np.stack([self.image] * 2), self.code, self.model, self.rbar)

    def test_non_finite_rbar_entry_by_index(self):
        for bad in (np.nan, np.inf):
            rbar = self.rbar.copy()
            rbar[3] = bad
            for call in self.gradients(rbar):
                with pytest.raises(ValueError, match=rf"rbar\[3\] is {bad}; must be finite"):
                    call()
        rbar = np.stack([self.rbar] * 2)
        rbar[1, 4] = np.nan
        with pytest.raises(ValueError, match=r"rbar\[1, 4\] is nan"):
            tp.code_gradient(np.stack([self.image] * 2), self.code, self.model, rbar)

    def per_image_only(self, image, code):
        """The dictionary and basis gradients, in both modes; the code
        gradient takes batches."""
        args = (image, code, self.model, self.rbar)
        return [partial(dictionary_gradient, *args, mode)
                for mode in ("approximate", "exact")] + [
            partial(basis_gradient, *args), partial(basis_gradient, *args, "exact", self.grid)]

    def test_a_batch_of_images(self):
        for call in self.per_image_only(np.stack([self.image] * 2), self.code):
            with pytest.raises(ValueError, match=r"image must be 1-D, got shape \(2, 14\)"):
                call()

    def test_a_batch_of_codes(self):
        for call in self.per_image_only(self.image, np.stack([self.code] * 2)):
            with pytest.raises(ValueError, match=r"code must be 1-D, got shape \(2, 3\)"):
                call()

    @pytest.mark.parametrize("short, message", [
        ("image", "image length does not match model dimension"),
        ("code", "code length does not match dictionary size"),
    ], ids=["image", "code"])
    def test_input_of_another_length_by_name(self, short, message):
        # the code gradient and the per-image ones give the same two messages
        image = self.image[:-2] if short == "image" else self.image
        code = self.code[:-1] if short == "code" else self.code
        calls = [partial(tp.code_gradient, image, code, self.model, self.rbar, mode)
                 for mode in ("approximate", "exact")] + self.per_image_only(image, code)
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("gradient", [tp.code_gradient, dictionary_gradient,
                                          basis_gradient])
    def test_unknown_mode_by_name(self, gradient):
        with pytest.raises(ValueError) as info:
            gradient(self.image, self.code, self.model, self.rbar, "fast")
        assert str(info.value) == "unknown gradient mode 'fast'"

    def test_exact_basis_gradient_without_a_grid(self):
        with pytest.raises(ValueError) as info:
            basis_gradient(self.image, self.code, self.model, self.rbar, "exact")
        assert str(info.value) == "exact basis gradient requires the posterior grid"

    def test_grid_of_another_torus_dimension(self):
        grid = posterior_grid(np.zeros(10), replace(self.model.freq, n=1,
                              entries=self.model.freq.entries[:, :1]), 6)
        with pytest.raises(ValueError, match="torus of dimension n = 1; the model's has n = 2"):
            basis_gradient(self.image, self.code, self.model, self.rbar, "exact", grid)

    def test_grid_with_another_weight_count(self):
        grid = replace(self.grid, weights=self.grid.weights[:-1])
        with pytest.raises(ValueError, match=r"weights of shape \(35,\); expected \(36,\)"):
            basis_gradient(self.image, self.code, self.model, self.rbar, "exact", grid)


@st.composite
def gradient_cases(draw):
    """A random small model with broad posteriors over a random batch:
    n in {1, 2, 3}, m in {1, 2}, the zero rate on or off."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    L = draw(st.integers(m + 1, 6))  # at least one nonzero rate
    cfg = tp.TrainConfig(
        torus_dim=n, n_freq=L, multiplicity=m,
        include_zero_freq=draw(st.booleans()), n_atoms=draw(st.integers(1, 3)),
        image_dim=2 * L + 2 * draw(st.integers(0, 3)),
        noise_var=draw(st.floats(1.0, 4.0)),
    )
    model = init_model(cfg, draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    batch = draw(st.integers(1, 5))
    images = rng.standard_normal((batch, cfg.image_dim))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    codes = rng.uniform(0, 0.5, (batch, cfg.n_atoms))
    n_grid = draw(st.integers(4, {1: 24, 2: 10, 3: 6}[n]))
    return model, images, codes, n_grid


def weights_grid(model, n_grid, weights):
    """A posterior grid holding the given (N**n,) weights."""
    return PosteriorGrid(N=n_grid, n=model.freq.n, eta_hat=np.zeros(2 * model.n_freq),
                         weights=weights, log_norm=0.0)


def tangent_gap(model, got, want):
    """The norm of the tangent parts' difference relative to the norm of
    ``want``'s tangent part."""
    tangent = tangent_project(model.basis, want)
    scale = max(np.linalg.norm(tangent), np.finfo(float).tiny)
    return np.linalg.norm(tangent_project(model.basis, got) - tangent) / scale


class TestBatchGradientOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=gradient_cases())
    def test_batch_gradients_match_dense_per_image_oracle(self, case):
        model, images, codes, n_grid = case
        post, weights = batch_posterior(
            images @ model.basis, codes, model.basis.T @ model.dictionary,
            natural_params(model.prior), model.noise_var, model.freq, n_grid)
        rbar = post.rbar
        rho = rbar[:, 0::2] ** 2 + rbar[:, 1::2] ** 2
        assert rho.min() < 0.5  # broad posteriors: the covariance term is live
        for mode in ("exact", "approximate"):
            grid = [weights_grid(model, n_grid, w) for w in weights]
            refs = [oracle_gradients(images[i], codes[i], model, rbar[i], mode,
                                     weights[i], n_grid) for i in range(len(images))]
            for i, ref in enumerate(refs):
                got = _gradients_at(images[i], codes[i], model, rbar[i], mode, grid[i])
                for g, r in zip(got, ref):
                    np.testing.assert_allclose(g, r, rtol=0, atol=1e-12)
            grad_d, h, _ = _batch_gradients(images, codes, model, rbar, mode == "exact")
            want_d, want_b = (np.mean(r, axis=0) for r in zip(*refs))
            np.testing.assert_allclose(grad_d, want_d, rtol=0, atol=1e-12)
            np.testing.assert_allclose(tangent_project(model.basis, h),
                                       tangent_project(model.basis, want_b),
                                       rtol=0, atol=1e-12)
        for i in range(len(images)):
            grad_d, grad_b = _gradients_at(images[i], codes[i], model, rbar[i], "exact")
            assert grad_b is None
            np.testing.assert_allclose(
                grad_d, oracle_gradients(images[i], codes[i], model, rbar[i], "exact")[0],
                rtol=0, atol=1e-12)

    def test_exact_basis_gradient_repeats_bit_for_bit(self):
        model = small_model(16, d=14, L=5, k=3, n=2, noise_var=0.3)
        rng = np.random.default_rng(17)
        images = rng.standard_normal((35, 14))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        codes = rng.uniform(0, 1, (35, 3))
        post, weights = batch_posterior(
            images @ model.basis, codes, model.basis.T @ model.dictionary,
            natural_params(model.prior), model.noise_var, model.freq, 9)
        for i in range(35):
            grid = weights_grid(model, 9, weights[i])
            got = basis_gradient(images[i], codes[i], model, post.rbar[i], "exact", grid)
            want = oracle_gradients(images[i], codes[i], model, post.rbar[i], "exact",
                                    weights[i], 9)[1]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            again = basis_gradient(images[i], codes[i], model, post.rbar[i], "exact", grid)
            assert got.tobytes() == again.tobytes()

    def test_exact_basis_gradient_at_the_paper_shape(self):
        model = init_model(tp.TrainConfig(), 3)
        rng = np.random.default_rng(4)
        image = normalize_batch(rng.uniform(0, 1, model.dim))
        code = rng.uniform(0, 0.5, model.n_atoms)
        grid = posterior_grid(posterior_natural_params(image, code, model), model.freq, 50)
        rbar = expected_rotation(grid, model.freq)
        grad_b = basis_gradient(image, code, model, rbar, "exact", grid)
        assert np.isfinite(grad_b).all()
        h = _batch_gradients(image[None], code[None], model, rbar[None], True)[1]
        assert tangent_gap(model, grad_b, h) <= 1e-12

    def test_exact_basis_gradient_caches_no_grid_table(self):
        from torusparse import posterior

        posterior._build_tables.cache_clear()
        model = small_model(18, d=14, L=5, k=3, n=2)
        image = np.linspace(0.1, 1.0, 14)
        code = np.array([0.5, 0.2, 0.1])
        grid = posterior_grid(posterior_natural_params(image, code, model), model.freq, 9)
        rbar = expected_rotation(grid, model.freq)
        cached = posterior._build_tables.cache_info()
        assert cached.currsize == 1
        basis_gradient(image, code, model, rbar, "exact", grid)
        after = posterior._build_tables.cache_info()
        assert (after.currsize, after.misses) == (1, cached.misses)


class TestTrain:
    def test_bitwise_deterministic(self):
        cfg = tiny_config()
        data = tiny_dataset()
        runs = []
        for _ in range(2):
            model = init_model(cfg, cfg.seed)
            trained, _ = train(model, data, cfg)
            runs.append(trained)
        assert runs[0].basis.tobytes() == runs[1].basis.tobytes()
        assert runs[0].dictionary.tobytes() == runs[1].dictionary.tobytes()

    def test_invariants_after_training(self):
        cfg = tiny_config()
        model = init_model(cfg, cfg.seed)
        trained, log = train(model, tiny_dataset(), cfg)
        trained.validate()
        assert len(log) == cfg.epochs * 3  # 24 images / batch 8

    def test_rejects_empty_and_mismatched_data(self):
        cfg = tiny_config()
        model = init_model(cfg, 0)
        with pytest.raises(ValueError):
            train(model, tp.Dataset(images=np.empty((0, 16)), side=4), cfg)
        with pytest.raises(ValueError):
            train(model, tp.Dataset(images=np.ones((4, 4)), side=2), cfg)

    def test_zero_image_rejected(self):
        cfg = tiny_config()
        model = init_model(cfg, 0)
        images = tiny_dataset().images.copy()
        images[3] = 0.0
        with pytest.raises(ValueError, match="zero image"):
            train(model, tp.Dataset(images=images, side=4), cfg)

    def test_non_finite_image_rejected_by_index(self):
        cfg = tiny_config()
        images = tiny_dataset().images.copy()
        images[5, 2] = np.nan
        with pytest.raises(ValueError, match="image 5 has a non-finite"):
            train(init_model(cfg, 0), tp.Dataset(images=images, side=4), cfg)
        with pytest.raises(ValueError, match="image 5 has a non-finite"):
            tp.train_baseline(tp.Dataset(images=images, side=4), cfg)

    def test_batch_gradient_order_independence(self):
        model = small_model(12, d=12, L=3, k=3, n=1, sparsity=0.5)
        cfg = tp.TrainConfig(image_dim=12, n_freq=3, n_atoms=3, torus_dim=1,
                             fista_steps=5, grid_size=12, noise_var=0.05,
                             sparsity=0.5)
        rng = np.random.default_rng(13)
        images = rng.uniform(0.05, 1, (16, 12))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        codes, post = tp.infer_code_batch(images, model, cfg)
        gd, gb, _ = _batch_gradients(images, codes, model, post.rbar, False)
        perm = rng.permutation(16)
        gd_p, gb_p, _ = _batch_gradients(
            images[perm], codes[perm], model, post.rbar[perm], False
        )
        assert np.linalg.norm(gd - gd_p) / np.linalg.norm(gd) < 1e-10
        assert np.linalg.norm(gb - gb_p) / np.linalg.norm(gb) < 1e-10

    def test_batched_gradients_match_per_image_ops(self):
        model = small_model(14, d=12, L=3, k=3, n=1, sparsity=0.5)
        cfg = tp.TrainConfig(image_dim=12, n_freq=3, n_atoms=3, torus_dim=1,
                             fista_steps=5, grid_size=12, noise_var=0.05,
                             sparsity=0.5)
        rng = np.random.default_rng(15)
        images = rng.uniform(0.05, 1, (6, 12))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        codes, post = tp.infer_code_batch(images, model, cfg)
        gd, gb, _ = _batch_gradients(images, codes, model, post.rbar, False)
        gd_ref = np.mean(
            [dictionary_gradient(images[i], codes[i], model, post.rbar[i])
             for i in range(6)], axis=0)
        gb_ref = np.mean(
            [basis_gradient(images[i], codes[i], model, post.rbar[i])
             for i in range(6)], axis=0)
        np.testing.assert_allclose(gd, gd_ref, atol=1e-12)
        np.testing.assert_allclose(tangent_project(model.basis, gb),
                                   tangent_project(model.basis, gb_ref), atol=1e-12)

    def test_threads_reproducible(self):
        cfg = tiny_config()
        data = tiny_dataset()
        outs = []
        for _ in range(2):
            model = init_model(cfg, cfg.seed)
            trained, _ = train(model, data, cfg, threads=2)
            outs.append(trained.basis.tobytes() + trained.dictionary.tobytes())
        assert outs[0] == outs[1]

    def test_exact_mode_runs(self):
        cfg = tiny_config(grad_mode="exact", epochs=1)
        model = init_model(cfg, 1)
        trained, log = train(model, tiny_dataset(count=8), cfg)
        trained.validate()
        assert len(log) == 1

    def test_log_format_on_disk(self, tmp_path):
        cfg = tiny_config(epochs=1)
        model = init_model(cfg, 2)
        path = tmp_path / "train.log"
        _, log = train(model, tiny_dataset(), cfg, log_path=str(path))
        lines = path.read_text().strip().split("\n")
        assert len(lines) == len(log)
        first = lines[0].split("\t")
        assert len(first) == 5
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) == pytest.approx(log[0][2])


class TestTrainBaseline:
    def test_trivially_codable_data_reaches_zero_residual(self):
        # orthonormal starting dictionary, one atom active per image, no
        # sparsity pressure: residual must collapse
        rng = np.random.default_rng(16)
        d = 4
        images = np.zeros((32, d))
        for i in range(32):
            images[i, i % d] = rng.uniform(0.5, 1.5)
        data = tp.Dataset(images=images, side=2)
        cfg = tp.TrainConfig(batch_size=8, fista_steps=40, grid_size=8, epochs=6,
                             lr_dict=0.1, torus_dim=1, n_freq=2, n_atoms=d,
                             image_dim=d, noise_var=0.01, sparsity=0.0, seed=5)
        state = BaselineState(dictionary=np.eye(d))
        state, log = train_baseline(data, cfg, state=state)
        assert log[-1][2] < 1e-6

    def test_column_norms_after_every_update(self):
        cfg = tiny_config(epochs=1)
        state, _ = train_baseline(tiny_dataset(), cfg)
        np.testing.assert_allclose(
            np.linalg.norm(state.dictionary, axis=0), 1.0, atol=1e-12
        )

    def test_first_batch_divisor_uses_current_batch(self):
        rng = np.random.default_rng(17)
        images = rng.uniform(0.05, 1, (8, 16))
        data = tp.Dataset(images=images, side=4)
        cfg = tiny_config(batch_size=8, epochs=1)
        state, _ = train_baseline(data, cfg)
        assert len(state.code_sq_history) == 1

    def test_history_ring_buffer_capped(self):
        state = BaselineState(dictionary=np.eye(4))
        for i in range(400):
            state.code_sq_history.append(np.full(4, float(i)))
        assert len(state.code_sq_history) == 300
        assert state.code_sq_history[0][0] == 100.0

    def test_deterministic(self):
        cfg = tiny_config()
        data = tiny_dataset()
        a, _ = train_baseline(data, cfg)
        b, _ = train_baseline(data, cfg)
        assert a.dictionary.tobytes() == b.dictionary.tobytes()


class TestBaselineEmbedding:
    def test_identity_transform_exact(self):
        rng = np.random.default_rng(18)
        state = BaselineState(dictionary=np.linalg.qr(rng.standard_normal((8, 3)))[0])
        state.dictionary /= np.linalg.norm(state.dictionary, axis=0)
        model = tp.baseline_model_params(state, 0.01, 10.0)
        model.validate()
        op = model.operator()
        x = rng.standard_normal(8)
        for s in rng.uniform(0, 2 * np.pi, 5):
            np.testing.assert_array_equal(tp.apply_transform(op, [s], x), x)


@pytest.mark.parametrize("epochs", [3])
def test_residual_improves_on_desk_subset(epochs):
    data = desk_dataset(count_per_template=120, seed=21)
    cfg = desk_config(epochs=epochs, batch_size=60)
    model = init_model(cfg, cfg.seed)
    trained, log = train(model, data, cfg)
    first = np.mean([r[2] for r in log if r[0] == 0])
    last = np.mean([r[2] for r in log if r[0] == epochs - 1])
    assert last < first


def test_non_finite_parameters_abort_with_batch_index():
    # overflow the dictionary step so the parameters go non-finite
    cfg = tiny_config(lr_dict=1e300, noise_var=1e-12, epochs=1)
    model = init_model(cfg, 0)
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="batch 0"):
            train(model, tiny_dataset(), cfg)


def test_two_dimensional_training_end_to_end():
    # 12x12 images under cyclic 2D translation; templates use disjoint
    # 2D frequency pairs over a shared flat base, as in the 1D desk setup
    from torusparse.torus import TWO_PI

    side = 12
    rng = np.random.default_rng(11)
    bands = [[(1, 0), (0, 1)], [(1, 1), (2, 0)], [(0, 2), (1, -1)]]
    xs = np.arange(side)
    templates = []
    for band in bands:
        p = np.zeros((side, side))
        for kx, ky in band:
            phase = rng.uniform(0, TWO_PI)
            rr, cc = np.meshgrid(xs, xs, indexing="ij")
            p += rng.uniform(0.5, 1.0) * np.cos(
                TWO_PI * (kx * cc + ky * rr) / side + phase
            )
        p /= np.abs(p).max()
        templates.append(0.5 + 0.5 * p)
    spec = tp.TransformSpec("translate2d", ((-6.0, 6.0), (-6.0, 6.0)), 400,
                            cyclic=True)
    data = tp.make_synthetic(templates, spec, seed=5)
    test = tp.make_synthetic(
        templates,
        tp.TransformSpec("translate2d", ((-6.0, 6.0), (-6.0, 6.0)), 30, cyclic=True),
        seed=99,
    )
    test_images = tp.normalize_batch(test.images)
    cfg = tp.TrainConfig(batch_size=60, fista_steps=20, grid_size=16, epochs=8,
                         lr_dict=0.05, lr_basis=0.1, code_init=0.01, seed=1,
                         torus_dim=2, n_freq=7, n_atoms=3, multiplicity=1,
                         image_dim=side * side, noise_var=0.01, sparsity=1.0)
    model = init_model(cfg, cfg.seed)
    model, log = train(model, data, cfg)
    recons = tp.reconstruct_batch(test_images, model, cfg, n_grid=32)
    model_snr = tp.snr(test_images, recons)
    state, _ = train_baseline(data, cfg)
    baseline = tp.baseline_model_params(state, cfg.noise_var, cfg.sparsity)
    baseline_snr = tp.snr(
        test_images, tp.reconstruct_batch(test_images, baseline, cfg, n_grid=32)
    )
    assert model_snr > 3.0 * baseline_snr
    assert model_snr > 8.0


@pytest.mark.parametrize("d", [3, 15])
def test_baseline_model_of_odd_dimension_is_refused(d):
    state = BaselineState(dictionary=np.full((d, 2), 0.5))
    with pytest.raises(ValueError) as info:
        baseline_model_params(state, 0.01, 1.0)
    assert str(info.value) == "identity embedding needs an even image dimension"


def test_threaded_training_builds_grid_table_once(monkeypatch):
    # a slow lattice widens the window in which two chunk threads could
    # both miss an empty table cache on the first batch
    import time

    from torusparse import posterior

    builds = []
    lattice = posterior.grid_lattice

    def slow_lattice(n, N):
        builds.append((n, N))
        time.sleep(0.05)
        return lattice(n, N)

    posterior._build_tables.cache_clear()
    monkeypatch.setattr(posterior, "grid_lattice", slow_lattice)
    cfg = tiny_config(epochs=1)
    train(init_model(cfg, 0), tiny_dataset(), cfg, threads=2)
    assert builds == [(cfg.torus_dim, cfg.grid_size)]


@given(total=st.integers(1, 2000), grid_points=st.integers(1, 300_000))
def test_tile_slices_cover_rows_in_order_within_the_weight_cap(total, grid_points):
    slices = _tile_slices(total, grid_points)
    rows = [i for sl in slices for i in range(total)[sl]]
    assert rows == list(range(total))
    for sl in slices:
        size = sl.stop - sl.start
        assert size == 1 or size * grid_points <= CHUNK_WEIGHTS


def test_chunk_count_at_the_paper_shapes():
    # the tiles are the chunks the thread count used to set at T = 2:
    # training (B=100, N=50, n=2) two of 50, evaluation at N=100 eight
    # of 12 or 13
    assert _tile_slices(100, 50**2) == [slice(0, 50), slice(50, 100)]
    bounds = [0, 12, 25, 37, 50, 62, 75, 87, 100]
    assert _tile_slices(100, 100**2) == [slice(a, b) for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 30), n_grid=st.integers(2, 12),
       weight_cap=st.integers(1, 600), seed=st.integers(0, 2**16))
def test_threaded_inference_bits_do_not_depend_on_threads(rows, n_grid, weight_cap,
                                                          seed):
    """At 1 to 4 threads the groups differ but the tiles do not, and the
    codes, rbar and peaks are those of one inference call per tile."""
    from torusparse import inference

    cfg = tiny_config(torus_dim=2, n_freq=4, grid_size=n_grid)
    model = init_model(cfg, seed)
    rng = np.random.default_rng(seed)
    images = normalize_batch(rng.uniform(0.05, 1.0, (rows, 16)))
    inner = inference._infer_tiles
    groups = []  # list.append is atomic across the inference threads

    def spy(group_images, *args, tiles, **kwargs):
        first = (group_images.ctypes.data - images.ctypes.data) // images.strides[0]
        groups.append([slice(first + t.start, first + t.stop) for t in tiles])
        return inner(group_images, *args, tiles=tiles, **kwargs)

    runs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(inference, "CHUNK_WEIGHTS", weight_cap)
        patch.setattr(inference, "_infer_tiles", spy)
        tiles = _tile_slices(rows, n_grid**2)
        for threads in (1, 2, 3, 4):
            groups.clear()
            runs.append(tp.infer_code_batch(images, model, cfg, threads=threads))
            assert len(groups) == min(threads, len(tiles))
            assert sorted((t for g in groups for t in g),
                          key=lambda t: t.start) == tiles
    alone = [tp.infer_code_batch(images[t], model, cfg) for t in tiles]
    want = [np.concatenate([a[0] for a in alone])] + [
        np.concatenate([getattr(a[1], name) for a in alone])
        for name in ("rbar", "peak_index")]
    for codes, post in runs:
        assert codes.tobytes() == want[0].tobytes()
        assert post.rbar.tobytes() == want[1].tobytes()
        assert post.peak_index.tobytes() == want[2].tobytes()


def one_batch_config(mode):
    return tiny_config(grad_mode=mode, epochs=1, batch_size=12, torus_dim=2, n_freq=4,
                       grid_size=8)


def test_exact_training_batch_runs_one_posterior_pass_per_chunk(monkeypatch):
    # one final pass per tile, with three tiles in two groups at two
    # threads, and no per-image ambient gradient
    from torusparse import inference, posterior, training

    calls = []  # list.append is atomic across the inference threads
    for module in (posterior, inference, training):
        for name in ("batch_posterior", "_gradients_at"):
            if hasattr(module, name):
                def spy(*args, _inner=getattr(module, name), _name=name):
                    calls.append(_name)
                    return _inner(*args)
                monkeypatch.setattr(module, name, spy)
    cfg = one_batch_config("exact")
    monkeypatch.setattr(inference, "CHUNK_WEIGHTS", 4 * cfg.grid_size**cfg.torus_dim)
    data = tiny_dataset(count=cfg.batch_size)
    tiles = _tile_slices(cfg.batch_size, cfg.grid_size**cfg.torus_dim)
    assert len(tiles) == 3
    _, log = train(init_model(cfg, 0), data, cfg, threads=2)
    assert len(log) == 1
    assert calls == ["batch_posterior"] * len(tiles)


def test_threaded_inference_hands_out_each_chunks_projection(monkeypatch):
    """The projection buffer holds each tile's own v = X B, bit for bit,
    and passing it changes neither the codes nor the posterior."""
    from torusparse import inference

    cfg = tiny_config()
    monkeypatch.setattr(inference, "CHUNK_WEIGHTS", 3 * cfg.grid_size**cfg.torus_dim)
    model = init_model(cfg, 2)
    images = normalize_batch(tiny_dataset(seed=4, count=10).images)
    v = np.empty((10, model.basis.shape[1]))
    codes, post = tp.infer_code_batch(images, model, cfg, threads=3, projection=v)
    want_codes, want_post = tp.infer_code_batch(images, model, cfg, threads=3)
    assert codes.tobytes() == want_codes.tobytes()
    assert post.rbar.tobytes() == want_post.rbar.tobytes()
    slices = _tile_slices(10, cfg.grid_size**cfg.torus_dim)
    assert len(slices) == 4
    for sl in slices:
        assert v[sl].tobytes() == (images[sl] @ model.basis).tobytes()
    grads = _batch_gradients(images, codes, model, post.rbar, False, v=v)
    want = _batch_gradients(images, codes, model, post.rbar, False)
    np.testing.assert_allclose(grads[0], want[0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grads[1], want[1], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("mode", ["approximate", "exact"])
def test_training_batch_matches_the_ambient_gradient_step(mode):
    cfg = one_batch_config(mode)
    data = tiny_dataset(seed=5, count=cfg.batch_size)
    model = init_model(cfg, 4)
    trained, _ = train(model, data, cfg)

    order = np.random.default_rng([cfg.seed, 1]).permutation(cfg.batch_size)
    batch = normalize_batch(data.images)[order]
    codes, post = tp.infer_code_batch(batch, model, cfg)
    post, weights = batch_posterior(
        batch @ model.basis, codes, model.basis.T @ model.dictionary,
        natural_params(model.prior), model.noise_var, model.freq, cfg.grid_size)
    grad_d, grad_b = (np.mean(g, axis=0) for g in zip(*(
        _gradients_at(batch[i], codes[i], model, post.rbar[i], mode,
                      weights_grid(model, cfg.grid_size, weights[i]))
        for i in range(cfg.batch_size))))
    _, basis = riemannian_adam_step(
        StiefelAdamState.init(model.basis.shape, cfg.lr_basis), model.basis, grad_b)
    dictionary = phi_update(model.dictionary, grad_d, cfg.lr_dict)
    np.testing.assert_allclose(trained.basis, basis, rtol=0, atol=1e-10)
    np.testing.assert_allclose(trained.dictionary, dictionary, rtol=0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(case=gradient_cases(), exact=st.booleans(), seed=st.integers(0, 2**16))
def test_basis_term_has_the_ambient_gradient_tangent_part(case, exact, seed):
    model, images, codes, n_grid = case
    rng = np.random.default_rng(seed)
    rbar = rng.uniform(-1, 1, (images.shape[0], 2 * model.n_freq))
    grad_d, h, residual = _batch_gradients(images, codes, model, rbar, exact)
    weights = rng.uniform(0, 1, (images.shape[0], n_grid**model.freq.n))
    weights /= weights.sum(axis=1, keepdims=True)
    ambient = [_gradients_at(images[i], codes[i], model, rbar[i],
                             "exact" if exact else "approximate",
                             weights_grid(model, n_grid, weights[i]))
               for i in range(images.shape[0])]
    want_d, want_b = (np.mean(g, axis=0) for g in zip(*ambient))
    np.testing.assert_allclose(grad_d, want_d, rtol=1e-12,
                               atol=1e-12 * np.abs(want_d).max())
    u = codes @ (model.basis.T @ model.dictionary).T
    rotated = rotate_pairs(rbar[:, 0::2], rbar[:, 1::2], u) @ model.basis.T
    want_residual = np.mean(np.sum((images - rotated) ** 2, axis=1))
    assert abs(residual - want_residual) <= 1e-12 * max(want_residual, 1.0)
    assert tangent_gap(model, h, want_b) <= 1e-12
    sym = rng.standard_normal((2 * model.n_freq,) * 2)
    sym += sym.T
    normal = tangent_project(model.basis, model.basis @ sym)
    assert np.abs(normal).max() <= 1e-12 * np.abs(sym).max()


@pytest.mark.parametrize("threads", [0, -3])
def test_train_refuses_fewer_than_one_thread(tmp_path, threads):
    cfg = tiny_config(epochs=1)
    log = tmp_path / "train.log"
    with pytest.raises(ValueError, match="threads"):
        train(init_model(cfg, 0), tiny_dataset(), cfg, threads=threads,
              log_path=str(log))
    assert not log.exists()


@pytest.mark.parametrize("threads, weight_cap", [(2, CHUNK_WEIGHTS), (1, 12 * 3)])
def test_chunk_inference_never_runs_on_the_calling_thread(monkeypatch, threads,
                                                          weight_cap):
    """With two or more groups the calling thread only waits: a group of
    its own would overlap the pool threads' groups in time. One group (one
    thread) runs on the calling thread, which then starts no pool. Each
    group sleeps first, so that one thread cannot take every group before
    a calling thread that shares them out would take one."""
    import threading
    import time

    from torusparse import inference

    callers = []  # list.append is atomic across the inference threads
    inner = inference._infer_tiles

    def spy(*args, **kwargs):
        callers.append(threading.get_ident())
        time.sleep(0.02)
        return inner(*args, **kwargs)

    monkeypatch.setattr(inference, "_infer_tiles", spy)
    monkeypatch.setattr(inference, "CHUNK_WEIGHTS", weight_cap)
    cfg = tiny_config()
    n_grid = weight_cap // 3  # three images a tile at most
    images = normalize_batch(tiny_dataset(seed=6, count=8).images)
    tiles = _tile_slices(8, n_grid**cfg.torus_dim)
    assert len(tiles) == 3
    tp.infer_code_batch(images, init_model(cfg, 1), cfg, n_grid=n_grid, threads=threads)
    assert len(callers) == threads
    assert (threading.get_ident() in callers) == (threads == 1)
