import math

import numpy as np
import pytest

import torusparse as tp
from torusparse.evaluate import (
    EVAL_GRID_SIZE,
    Reconstruction,
    export_grid,
    latent_traversal,
    reconstruct,
    reconstruct_batch,
    snr,
)
from torusparse.inference import _tile_slices
from torusparse.torus import TWO_PI, apply_transform

from conftest import bandlimit, dft_shift_operator, small_model


def read_pgm(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, maxval, payload = blob.split(b"\n", 3)
    assert magic == b"P5"
    width, height = (int(tok) for tok in dims.split())
    assert maxval == b"255"
    pixels = np.frombuffer(payload, dtype=np.uint8)
    assert pixels.size == width * height
    return pixels.reshape(height, width)


def shift_model(sparsity=10.0, noise_var=0.01):
    """Exact generative model on 8-sample circular signals."""
    basis, freq = dft_shift_operator()
    rng = np.random.default_rng(0)
    atom = bandlimit(rng.standard_normal(8))
    atom /= np.linalg.norm(atom)
    atoms = np.stack([atom, bandlimit(rng.standard_normal(8))], axis=1)
    atoms[:, 1] /= np.linalg.norm(atoms[:, 1])
    return tp.ModelParams(
        basis=basis, dictionary=atoms, freq=freq, noise_var=noise_var,
        sparsity=sparsity, prior=tp.TorusPrior.uniform(freq.L),
    )


class TestReconstruct:
    def test_atom_image_recovers_shrunk_atom(self):
        # identity-capable model: square orthogonal basis, zero rates
        rng = np.random.default_rng(1)
        q, r = np.linalg.qr(rng.standard_normal((6, 6)))
        basis = q * np.sign(np.diag(r))
        freq = tp.FrequencyTable(n=1, entries=np.zeros((3, 1), dtype=np.int64),
                                 multiplicity=3)
        model = tp.ModelParams(basis=basis, dictionary=basis[:, :2], freq=freq,
                               noise_var=0.01, sparsity=5.0,
                               prior=tp.TorusPrior.uniform(3))
        cfg = tp.TrainConfig(image_dim=6, n_freq=3, n_atoms=2, torus_dim=1,
                             fista_steps=50, grid_size=8, noise_var=0.01,
                             sparsity=5.0)
        image = model.dictionary[:, 0]
        rec = reconstruct(image, model, cfg, n_grid=8)
        shrink = 1.0 - model.sparsity * model.noise_var
        np.testing.assert_allclose(rec.code, [shrink, 0.0], atol=1e-6)
        np.testing.assert_allclose(rec.image_hat, shrink * image, atol=1e-6)
        assert np.linalg.norm(image - rec.image_hat) <= model.sparsity * model.noise_var + 1e-6

    def test_orthogonal_image_reconstructs_to_zero(self):
        # image orthogonal to the basis span and to every atom
        freq = tp.build_frequency_table(n=1, L=1, m=1, max_norm=1)
        model = tp.ModelParams(basis=np.eye(6)[:, :2],
                               dictionary=np.eye(6)[:, :2], freq=freq,
                               noise_var=0.05, sparsity=1.0,
                               prior=tp.TorusPrior.uniform(1))
        cfg = tp.TrainConfig(image_dim=6, n_freq=1, n_atoms=2, torus_dim=1,
                             fista_steps=20, grid_size=8, noise_var=0.05,
                             sparsity=1.0)
        rec = reconstruct(np.eye(6)[:, 5], model, cfg, n_grid=8)
        assert rec.code.tolist() == [0.0, 0.0]
        np.testing.assert_array_equal(rec.image_hat, np.zeros(6))

    def test_recovers_known_shift(self):
        model = shift_model(sparsity=1.0)
        cfg = tp.TrainConfig(image_dim=8, n_freq=3, n_atoms=2, torus_dim=1,
                             fista_steps=40, grid_size=50, noise_var=0.01,
                             sparsity=1.0)
        op = model.operator()
        n_grid = 100
        for j in (5, 23, 71):
            s_true = TWO_PI * j / n_grid
            image = tp.apply_transform(op, [s_true], model.dictionary[:, 0])
            rec = reconstruct(image, model, cfg, n_grid=n_grid)
            gap = abs(rec.angles[0] - s_true)
            gap = min(gap, TWO_PI - gap)
            assert gap <= TWO_PI / n_grid + 1e-12
            assert np.linalg.norm(rec.image_hat - image) < 0.05

    def test_angles_track_dataset_shifts_up_to_gauge(self):
        # exact generative desk model: inferred angles must match the
        # recorded shifts within one training-grid cell after removing the
        # global gauge estimated from the same images
        from conftest import desk_generative_model, fit_angle_map
        from torusparse.datasets import TransformSpec, make_synthetic
        from conftest import desk_templates

        model = desk_generative_model()
        spec = TransformSpec("translate2d", ((-8.0, 8.0), (0.0, 0.0)), 8,
                             cyclic=True)
        data = make_synthetic(desk_templates(), spec, seed=77)
        images = tp.normalize_batch(data.images)
        cfg = tp.TrainConfig(image_dim=256, n_freq=8, n_atoms=3, torus_dim=1,
                             fista_steps=20, grid_size=50, noise_var=0.01,
                             sparsity=1.0)
        recons = reconstruct_batch(images, model, cfg)
        for t_idx in range(3):
            rows = slice(t_idx * 8, (t_idx + 1) * 8)
            angles = [r.angles[0] for r in recons[rows]]
            worst, sign, offset, _ = fit_angle_map(data.meta[rows, 0], angles, 16)
            assert worst <= TWO_PI / cfg.grid_size + 1e-9
            # atom matching the template dominates each code
            for r in recons[rows]:
                assert int(np.argmax(r.code)) == t_idx

    def test_image_hat_in_basis_span(self):
        model = small_model(2, d=12, L=3, k=3, n=1, sparsity=0.2)
        cfg = tp.TrainConfig(image_dim=12, n_freq=3, n_atoms=3, torus_dim=1,
                             fista_steps=10, grid_size=16, noise_var=0.05,
                             sparsity=0.2)
        rng = np.random.default_rng(3)
        image = rng.uniform(0.1, 1, 12)
        image /= np.linalg.norm(image)
        rec = reconstruct(image, model, cfg, n_grid=16)
        proj = model.basis @ (model.basis.T @ rec.image_hat)
        np.testing.assert_allclose(rec.image_hat, proj, atol=1e-12)


class TestSnr:
    def _recons(self, hats):
        return [Reconstruction(code=None, angles=None, image_hat=h) for h in hats]

    def test_perfect_reconstruction_is_infinite(self):
        rng = np.random.default_rng(4)
        images = rng.standard_normal((3, 8))
        assert snr(images, self._recons(images.copy())) == math.inf

    def test_zero_reconstruction_of_unit_images(self):
        rng = np.random.default_rng(5)
        images = rng.standard_normal((4, 8))
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        assert snr(images, self._recons(np.zeros((4, 8)))) == pytest.approx(1.0)

    def test_scale_consistency(self):
        rng = np.random.default_rng(6)
        images = rng.standard_normal((4, 8))
        hats = images + 0.1 * rng.standard_normal((4, 8))
        base = snr(images, self._recons(hats))
        scaled = snr(3.0 * images, self._recons(3.0 * hats))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            snr(np.empty((0, 4)), [])

    def test_a_dataset_scores_its_images(self):
        rng = np.random.default_rng(7)
        images = rng.standard_normal((3, 16))
        recons = self._recons(images + 0.2 * rng.standard_normal((3, 16)))
        assert snr(tp.Dataset(images=images, side=4), recons) == snr(images, recons)


class TestLatentTraversal:
    def test_validation(self):
        model = small_model(7, n=2)
        images = np.ones((1, model.dim))
        with pytest.raises(ValueError):
            latent_traversal(model, images, 3, 0, 1, 4)
        with pytest.raises(ValueError):
            latent_traversal(model, images, 1, 0, 1, 1)

    def test_zero_sweep_is_projection(self):
        model = small_model(8, d=12, L=3, n=1)
        rng = np.random.default_rng(9)
        images = rng.standard_normal((2, 12))
        sweep = latent_traversal(model, images, 1, 0.0, 0.0, 3)
        proj = images @ model.basis @ model.basis.T
        for j in range(3):
            np.testing.assert_allclose(sweep[:, j, :], proj, atol=1e-12)

    def test_harmonic_basis_columns_are_rolls(self):
        basis, freq = dft_shift_operator()
        model = tp.ModelParams(basis=basis, dictionary=np.eye(8)[:, :1],
                               freq=freq, noise_var=0.01, sparsity=1.0,
                               prior=tp.TorusPrior.uniform(3))
        rng = np.random.default_rng(10)
        x = bandlimit(rng.standard_normal(8))
        sweep = latent_traversal(model, x[None, :], 1, 0.0, TWO_PI * 7 / 8, 8)
        for j in range(8):
            assert np.abs(sweep[0, j] - np.roll(x, j)).max() < 1e-10

    def test_two_pi_periodic_columns(self):
        model = small_model(11, d=12, L=3, n=2)
        rng = np.random.default_rng(12)
        images = rng.standard_normal((2, 12))
        a = latent_traversal(model, images, 2, 0.3, 0.3, 2)
        b = latent_traversal(model, images, 2, 0.3 + TWO_PI, 0.3 + TWO_PI, 2)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestExportGrid:
    @pytest.mark.parametrize("tiles, cols, message", [
        ([], 1, "no images to export"),
        ([np.ones((2, 2)), np.ones((3, 3))], 2, "all images must share one square shape"),
        ([np.ones((2, 3))], 1, "all images must share one square shape"),
        ([np.ones((2, 2))], 0, "cols must be >= 1"),
    ], ids=["no-images", "mixed-shapes", "not-square", "no-columns"])
    def test_refusals_name_their_cause_before_writing(self, tmp_path, tiles, cols,
                                                       message):
        path = tmp_path / "refused.pgm"
        with pytest.raises(ValueError) as info:
            export_grid(tiles, cols=cols, path=path)
        assert str(info.value) == message
        assert not path.exists()

    def test_single_tile_header_and_payload(self, tmp_path):
        path = tmp_path / "one.pgm"
        export_grid([np.array([[0.0, 1.0], [0.5, 0.25]])], cols=1, path=path)
        grid = read_pgm(path)
        assert grid.shape == (2, 2)
        np.testing.assert_array_equal(grid, [[0, 255], [128, 64]])

    def test_tiling_dimensions(self, tmp_path):
        path = tmp_path / "grid.pgm"
        rng = np.random.default_rng(13)
        side = 6
        export_grid([rng.uniform(0, 1, (side, side)) for _ in range(10)],
                    cols=5, path=path)
        grid = read_pgm(path)
        assert grid.shape == (2 * side + 1, 5 * side + 4)

    def test_separators_are_zero(self, tmp_path):
        path = tmp_path / "sep.pgm"
        export_grid([np.ones((3, 3)) for _ in range(4)], cols=2, path=path)
        grid = read_pgm(path)
        assert (grid[3, :] == 0).all()
        assert (grid[:, 3] == 0).all()

    def test_roundtrip_quantization(self, tmp_path):
        path = tmp_path / "rt.pgm"
        rng = np.random.default_rng(14)
        tiles = [rng.uniform(-2, 3, (5, 5)) for _ in range(3)]
        export_grid(tiles, cols=3, path=path)
        grid = read_pgm(path)
        lo = min(t.min() for t in tiles)
        hi = max(t.max() for t in tiles)
        for idx, tile in enumerate(tiles):
            want = np.rint((tile - lo) / (hi - lo) * 255).astype(np.uint8)
            np.testing.assert_array_equal(grid[0:5, idx * 6 : idx * 6 + 5], want)

    def test_flat_grid_writes_zeros(self, tmp_path):
        path = tmp_path / "flat.pgm"
        export_grid([np.full((2, 2), 0.7)], cols=1, path=path)
        assert (read_pgm(path) == 0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tile_is_refused_by_name_before_writing(self, tmp_path, bad):
        # a NaN makes the min-max span NaN, and every tile would be
        # quantized to black
        path = tmp_path / "bad.pgm"
        tiles = [np.ones((2, 2)), np.full((2, 2), 0.5)]
        tiles[1][0, 1] = bad
        with pytest.raises(ValueError, match="image 1 to export holds a non-finite"):
            export_grid(tiles, cols=2, path=path)
        assert not path.exists()


def test_reconstruct_batch_matches_single():
    model = small_model(15, d=12, L=3, k=3, n=1, sparsity=0.5)
    cfg = tp.TrainConfig(image_dim=12, n_freq=3, n_atoms=3, torus_dim=1,
                         fista_steps=8, grid_size=16, noise_var=0.05,
                         sparsity=0.5)
    rng = np.random.default_rng(16)
    images = rng.uniform(0.05, 1, (4, 12))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    batch = reconstruct_batch(images, model, cfg, n_grid=16)
    for i in range(4):
        single = reconstruct(images[i], model, cfg, n_grid=16)
        np.testing.assert_allclose(batch[i].image_hat, single.image_hat, atol=1e-10)
        np.testing.assert_array_equal(batch[i].angles, single.angles)


def cap_chunked_case():
    """An n=2 model at the evaluation grid N=100 with more images than one
    tile's weight cap allows: 4 tiles of 10 images each, whatever the
    thread count."""
    model = small_model(21, d=16, L=4, k=3, n=2, sparsity=0.5)
    cfg = tp.TrainConfig(image_dim=16, n_freq=4, n_atoms=3, torus_dim=2,
                         fista_steps=6, grid_size=12, noise_var=0.05,
                         sparsity=0.5)
    rng = np.random.default_rng(22)
    images = rng.uniform(0.05, 1, (40, 16))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    assert len(_tile_slices(40, EVAL_GRID_SIZE**2)) == 4
    return model, cfg, images


def test_reconstruct_batch_bits_do_not_depend_on_threads_under_the_cap():
    model, cfg, images = cap_chunked_case()
    runs = [reconstruct_batch(images, model, cfg, threads=t) for t in (1, 2, 3)]
    for field in ("code", "angles", "image_hat"):
        first = np.stack([getattr(r, field) for r in runs[0]])
        for other in runs[1:]:
            np.testing.assert_array_equal(
                np.stack([getattr(r, field) for r in other]), first
            )


def test_chunked_reconstruct_batch_matches_per_image_reconstruct():
    model, cfg, images = cap_chunked_case()
    batch = reconstruct_batch(images, model, cfg, threads=2)
    for image, recon in zip(images, batch):
        single = reconstruct(image, model, cfg)
        np.testing.assert_array_equal(recon.angles, single.angles)
        np.testing.assert_allclose(recon.image_hat, single.image_hat,
                                   rtol=0, atol=1e-12)


def test_threaded_eval_builds_grid_table_once(monkeypatch):
    # as for threaded training: a slow lattice widens the window in which
    # chunk threads could each miss an empty table cache
    import time

    from torusparse import posterior

    builds = []
    lattice = posterior.grid_lattice

    def slow_lattice(n, N):
        builds.append((n, N))
        time.sleep(0.05)
        return lattice(n, N)

    model, cfg, images = cap_chunked_case()
    posterior._build_tables.cache_clear()
    monkeypatch.setattr(posterior, "grid_lattice", slow_lattice)
    reconstruct_batch(images, model, cfg, threads=2)
    assert len(builds) == 1


def test_step_size_computed_once_for_eight_chunks(monkeypatch):
    from torusparse import inference

    model, cfg, _ = cap_chunked_case()
    rng = np.random.default_rng(23)
    images = rng.uniform(0.05, 1, (100, 16))
    images /= np.linalg.norm(images, axis=1, keepdims=True)
    slices = _tile_slices(100, EVAL_GRID_SIZE**2)
    assert len(slices) == 8
    unshared = np.concatenate([
        inference.infer_code_batch(images[sl], model, cfg, n_grid=EVAL_GRID_SIZE)[0]
        for sl in slices])

    calls = []
    step_size = inference.fista_step_size

    def counted(m):
        calls.append(m)
        return step_size(m)

    monkeypatch.setattr(inference, "fista_step_size", counted)
    batch = reconstruct_batch(images, model, cfg, threads=2)
    assert calls == [model]
    np.testing.assert_array_equal(np.stack([r.code for r in batch]), unshared)


def test_reconstruct_batch_runs_no_gram_check(monkeypatch):
    # the model was validated when it was built or loaded; reading its
    # basis must not form B^T B again
    from torusparse import stiefel, torus

    model, cfg, images = cap_chunked_case()
    calls = []
    check = stiefel.orthonormality_error

    def counted(basis):
        calls.append(basis.shape)
        return check(basis)

    monkeypatch.setattr(torus, "orthonormality_error", counted)
    monkeypatch.setattr(stiefel, "orthonormality_error", counted)
    reconstruct_batch(images[:4], model, cfg)
    assert calls == []


def test_latent_traversal_runs_no_gram_check(monkeypatch):
    # as reconstruct_batch: the model was validated when it was built or
    # loaded, and the sweep is apply_transform's arithmetic, bit for bit
    from torusparse import stiefel, torus

    model, _, images = cap_chunked_case()
    calls = []
    check = stiefel.orthonormality_error

    def counted(basis):
        calls.append(basis.shape)
        return check(basis)

    want = np.stack([apply_transform(model.operator(), (0.0, a), images[:3])
                     for a in np.linspace(-1.0, 2.0, 4)], axis=1)
    monkeypatch.setattr(torus, "orthonormality_error", counted)
    monkeypatch.setattr(stiefel, "orthonormality_error", counted)
    sweep = latent_traversal(model, images[:3], 2, -1.0, 2.0, 4)
    assert calls == []
    assert sweep.tobytes() == want.tobytes()


@pytest.mark.parametrize("s_from, s_to, name", [
    (math.nan, 1.0, "s_from"), (0.0, math.inf, "s_to"), (-math.inf, 0.0, "s_from"),
])
def test_latent_traversal_refuses_a_non_finite_end_by_name(s_from, s_to, name):
    model = small_model(7, n=2)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        latent_traversal(model, np.ones((1, 12)), 1, s_from, s_to, 3)


def test_latent_traversal_names_a_length_mismatch():
    model = small_model(7, n=2)
    with pytest.raises(ValueError, match="length 12, got 10"):
        latent_traversal(model, np.ones((1, 10)), 1, 0, 1, 2)


@pytest.mark.parametrize("threads", [1, 2])
def test_empty_batch_is_refused_by_name(threads):
    # an empty batch has no tiles to share out among the threads
    model, cfg, images = cap_chunked_case()
    empty = np.zeros((0, images.shape[1]))
    with pytest.raises(ValueError, match="empty batch"):
        tp.infer_code_batch(empty, model, cfg, threads=threads)
    with pytest.raises(ValueError, match="empty batch"):
        reconstruct_batch(empty, model, cfg, threads=threads)


@pytest.mark.parametrize("threads", [0, -3])
def test_reconstruct_batch_refuses_fewer_than_one_thread(threads):
    model, cfg, images = cap_chunked_case()
    with pytest.raises(ValueError, match="threads"):
        reconstruct_batch(images[:4], model, cfg, threads=threads)
