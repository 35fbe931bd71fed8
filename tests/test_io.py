import itertools
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import torusparse as tp
from torusparse.evaluate import latent_traversal, reconstruct_batch
from torusparse.inference import infer_code_batch
from torusparse.io import (
    BadMagicError,
    CheckpointError,
    ConfigError,
    InvariantError,
    VersionError,
    load_checkpoint,
    load_checkpoint_full,
    parse_config,
    save_checkpoint,
)
from torusparse.stiefel import StiefelAdamState, riemannian_adam_step
from torusparse.training import TrainConfig, _batch_gradients, init_model, train

from conftest import TracedPeak, scalar_offsets, small_model


@pytest.fixture
def model():
    return small_model(0, d=12, L=3, k=4, n=2, noise_var=0.02, kappa_scale=1.5)


class TestCheckpointRoundTrip:
    def test_bitwise_lossless(self, model, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, n_grid=37)
        loaded = load_checkpoint_full(path)
        assert loaded.n_grid == 37
        assert loaded.dataset is None
        back = loaded.model
        assert back.basis.tobytes() == model.basis.tobytes()
        assert back.dictionary.tobytes() == model.dictionary.tobytes()
        assert back.prior.kappa.tobytes() == model.prior.kappa.tobytes()
        assert back.prior.mu.tobytes() == model.prior.mu.tobytes()
        np.testing.assert_array_equal(back.freq.entries, model.freq.entries)
        assert back.noise_var == model.noise_var
        assert back.sparsity == model.sparsity
        # re-serialization reproduces the exact same bytes
        again = tmp_path / "again.ckpt"
        save_checkpoint(back, again, n_grid=37)
        assert again.read_bytes() == path.read_bytes()

    def test_dataset_section(self, model, tmp_path):
        rng = np.random.default_rng(1)
        # dataset dimension must match the model and be a perfect square
        from conftest import small_model as sm

        sq_model = sm(3, d=16, L=3, k=2, n=1)
        ds = tp.Dataset(images=rng.uniform(0, 1, (7, 16)), side=4)
        path = tmp_path / "with_data.ckpt"
        save_checkpoint(sq_model, path, dataset=ds)
        loaded = load_checkpoint_full(path)
        assert loaded.dataset is not None
        assert loaded.dataset.side == 4
        assert loaded.dataset.images.tobytes() == ds.images.tobytes()

    def test_dataset_dimension_mismatch_rejected(self, model, tmp_path):
        ds = tp.Dataset(images=np.ones((2, 9)), side=3)
        with pytest.raises(CheckpointError):
            save_checkpoint(model, tmp_path / "bad.ckpt", dataset=ds)


@st.composite
def checkpoint_cases(draw):
    """(model, n_grid, dataset or None) at random small shapes, with the
    basis and the images sometimes held in Fortran order."""
    side = draw(st.sampled_from([2, 4, 6]))
    d = side * side
    model = small_model(draw(st.integers(0, 2**16)), d=d, L=draw(st.integers(1, d // 2)),
                        k=draw(st.integers(1, 4)), n=draw(st.integers(1, 3)),
                        kappa_scale=draw(st.sampled_from([0.0, 1.5])))
    if draw(st.booleans()):
        model.basis = np.asfortranarray(model.basis)
    dataset = None
    if draw(st.booleans()):
        images = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(
            0, 1, (draw(st.integers(0, 5)), d))
        if draw(st.booleans()):
            images = np.asfortranarray(images)
        dataset = tp.Dataset(images=images, side=side)
    return model, draw(st.integers(2, 500)), dataset


class TestCheckpointBuffers:
    @settings(max_examples=60, deadline=None)
    @given(case=checkpoint_cases())
    def test_save_load_save_is_byte_identical(self, case, tmp_path_factory):
        model, n_grid, dataset = case
        root = tmp_path_factory.mktemp("ckpt")
        first, second = root / "first.ckpt", root / "second.ckpt"
        save_checkpoint(model, first, n_grid=n_grid, dataset=dataset)
        loaded = load_checkpoint_full(first)
        save_checkpoint(loaded.model, second, n_grid=loaded.n_grid,
                        dataset=loaded.dataset)
        assert second.read_bytes() == first.read_bytes()
        assert loaded.model.basis.tobytes() == np.ascontiguousarray(model.basis).tobytes()
        if dataset is not None:
            assert loaded.dataset.images.tobytes() == \
                np.ascontiguousarray(dataset.images).tobytes()

    def test_loaded_arrays_are_writable_c_ordered_and_independent(self, model, tmp_path):
        sq_model = small_model(3, d=16, L=3, k=2, n=2, kappa_scale=1.0)
        ds = tp.Dataset(images=np.random.default_rng(2).uniform(0, 1, (3, 16)), side=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(sq_model, path, dataset=ds)
        loaded = load_checkpoint_full(path)
        # the basis and dictionary are Fortran-ordered views of their sections
        columns = [loaded.model.basis, loaded.model.dictionary]
        rows = [loaded.model.freq.entries, loaded.model.prior.kappa, loaded.model.prior.mu,
                loaded.dataset.images]
        arrays = columns + rows
        for array in columns:
            assert array.flags.writeable and array.flags.f_contiguous
        for array in rows:
            assert array.flags.writeable and array.flags.c_contiguous
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("L, n", [(3, 1), (3, 2)])
    def test_sections_at_offsets_4_mod_8_load_aligned(self, tmp_path, L, n):
        # The int32 frequency table shifts every later section by 4 * L * n
        # bytes: with L * n odd the basis and the dataset count start at
        # offsets = 4 (mod 8), with L * n even the dataset images do.
        sq_model = small_model(5, d=16, L=L, k=2, n=n)
        ds = tp.Dataset(images=np.random.default_rng(6).uniform(0, 1, (5, 16)), side=4)
        path = tmp_path / "m.ckpt"
        save_checkpoint(sq_model, path, dataset=ds)
        count_at = scalar_offsets(sq_model)["sparsity"] + 8
        residues = ((32 + 4 * L * n) % 8, count_at % 8, (count_at + 4) % 8)
        assert residues == ((4, 4, 0) if L * n % 2 else (0, 0, 4))
        loaded = load_checkpoint_full(path)
        for array in (loaded.model.basis, loaded.model.dictionary):
            assert array.flags.aligned and array.flags.f_contiguous
            assert array.ctypes.data % 8 == 0
        for array in (loaded.model.prior.kappa, loaded.model.prior.mu,
                      loaded.dataset.images):
            assert array.flags.aligned and array.flags.c_contiguous
            assert array.ctypes.data % 8 == 0
        assert loaded.dataset.images.tobytes() == ds.images.tobytes()
        assert loaded.model.basis.tobytes() == sq_model.basis.tobytes()

    def test_bad_magic_message_shows_the_bytes(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XSC1"
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError, match=r"^bad magic b'XSC1'$"):
            load_checkpoint(path)


@st.composite
def layout_cases(draw):
    """(model, dataset, config) at random small shapes: n in {1, 2}, D <= 64,
    one to six images. lambda 1 and alpha0 0.1, as in the CI end-to-end
    config, keep the codes from dying; lr_w is 1e-6 (``layout_outputs``)."""
    side = draw(st.sampled_from([2, 4, 6, 8]))
    d = side * side
    model = small_model(draw(st.integers(0, 2**16)), d=d, L=draw(st.integers(1, d // 2)),
                        k=draw(st.integers(1, 4)), n=draw(st.integers(1, 2)),
                        kappa_scale=draw(st.sampled_from([0.0, 1.5])))
    images = np.random.default_rng(draw(st.integers(0, 2**16))).uniform(
        0, 1, (draw(st.integers(1, 6)), d))
    cfg = TrainConfig(batch_size=draw(st.integers(1, 6)), fista_steps=4,
                      grid_size=draw(st.integers(3, 8)), epochs=1, sparsity=1.0,
                      code_init=0.1, lr_basis=1e-6,
                      grad_mode=draw(st.sampled_from(["approximate", "exact"])),
                      torus_dim=model.freq.n, n_freq=model.freq.L,
                      n_atoms=model.n_atoms, image_dim=d, seed=draw(st.integers(0, 9)))
    return model, tp.Dataset(images=images, side=side), cfg


def layout_outputs(model, data, cfg):
    """Every array the library computes from a model and a few images.

    Adam's first step divides each tangent entry by its magnitude plus
    1e-8, so it multiplies the rounding of an entry near zero by up to
    lr / 1e-8: 3e7 at the default lr_w. So the Stiefel step starts from
    second moments away from zero, and training, whose first step cannot,
    runs at lr_w 1e-6, where the gain is 100. Training leaves out the
    square basis (D = 2L), whose tangent gradient is zero up to rounding
    of 1e-14, so its first step is that rounding times the gain.
    """
    images = data.images
    codes, post = infer_code_batch(images, model, cfg)
    grad_dict, grad_basis, residual = _batch_gradients(
        images, codes, model, post.rbar, cfg.grad_mode == "exact")
    warm = StiefelAdamState(m1=np.zeros(model.basis.shape), m2=np.ones(model.basis.shape),
                            lr=0.05, step_count=1)
    state, point = riemannian_adam_step(warm, model.basis, grad_basis)
    recons = reconstruct_batch(images, model, cfg, n_grid=cfg.grid_size)
    outputs = [codes, post.rbar, *(recon.image_hat for recon in recons),
               latent_traversal(model, images, 1, -1.0, 2.0, 3),
               grad_dict, grad_basis, residual, state.m1, state.m2, point]
    if 2 * model.n_freq < model.dim:
        trained, log = train(model, data, cfg)
        outputs += [trained.basis, trained.dictionary, [record[2:4] for record in log]]
    return outputs


class TestColumnMajorModels:
    """A loaded basis and dictionary are column-major views of their
    sections, where a trained or built model holds row-major arrays. Both
    layouts must save the same file and compute the same values; BLAS may
    pick another kernel for a transposed operand, so agreement is to
    1e-12, not to the bit."""

    @settings(max_examples=25, deadline=None)
    @given(case=layout_cases())
    def test_row_and_column_major_models_agree(self, case, tmp_path_factory):
        model, data, cfg = case
        rows, cols = (replace(model, basis=order(model.basis),
                              dictionary=order(model.dictionary))
                      for order in (np.ascontiguousarray, np.asfortranarray))
        assert rows.basis.flags.c_contiguous and cols.basis.flags.f_contiguous
        root = tmp_path_factory.mktemp("layout")
        save_checkpoint(rows, root / "rows.ckpt", n_grid=cfg.grid_size)
        save_checkpoint(cols, root / "cols.ckpt", n_grid=cfg.grid_size)
        assert (root / "rows.ckpt").read_bytes() == (root / "cols.ckpt").read_bytes()
        for want, got in zip(layout_outputs(rows, data, cfg),
                             layout_outputs(cols, data, cfg), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestCheckpointErrors:
    def test_bad_magic(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_version_mismatch(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_scaled_basis_column_rejected(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        # basis starts after 4+4+24 header bytes and the 4*L*n omega table
        start = 32 + 4 * model.freq.L * model.freq.n
        d = model.dim
        col = np.frombuffer(bytes(blob[start : start + 8 * d]), dtype="<f8")
        blob[start : start + 8 * d] = (col * 1.1).astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(InvariantError, match="orthonormal"):
            load_checkpoint(path)

    def test_truncation_and_trailing(self, model, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, with_dataset", [
        ("count", True), ("D", True), ("L", True), ("D", False), ("L", False)])
    def test_header_claiming_more_than_the_file_is_refused_unallocated(
            self, tmp_path, field, with_dataset):
        sq_model = small_model(3, d=16, L=3, k=2, n=2)
        ds = tp.Dataset(images=np.ones((2, 16)), side=4) if with_dataset else None
        path = tmp_path / "m.ckpt"
        save_checkpoint(sq_model, path, dataset=ds)
        blob = bytearray(path.read_bytes())
        # claims 2 GB (frequency table) to 34 GB (images) past the header
        at = {"count": scalar_offsets(sq_model)["sparsity"] + 8, "D": 8, "L": 16}[field]
        blob[at : at + 4] = struct.pack("<I", 2**28)
        path.write_bytes(bytes(blob))
        with TracedPeak() as traced, pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint_full(path)
        assert traced.peak < len(blob) + 64 * 1024

    @pytest.mark.parametrize("into", [0, 1], ids=["at-start", "one-byte-in"])
    @pytest.mark.parametrize("section", [
        "magic", "version/flags", "dimensions", "frequency table", "basis", "dictionary",
        "kappa", "mu", "scalars", "dataset count", "dataset images"])
    def test_cut_in_each_section_names_it(self, tmp_path, section, into):
        d, L, k, n, count = 16, 3, 2, 2, 2
        sq_model = small_model(3, d=d, L=L, k=k, n=n)
        path = tmp_path / "m.ckpt"
        save_checkpoint(sq_model, path, dataset=tp.Dataset(images=np.ones((count, d)),
                                                           side=4))
        blob = path.read_bytes()
        sizes = {"magic": 4, "version/flags": 4, "dimensions": 24,
                 "frequency table": 4 * L * n, "basis": 8 * d * 2 * L,
                 "dictionary": 8 * d * k, "kappa": 8 * L, "mu": 8 * L, "scalars": 16,
                 "dataset count": 4, "dataset images": 8 * count * d}
        assert sum(sizes.values()) == len(blob)
        offsets = dict(zip(sizes, itertools.accumulate(sizes.values(), initial=0)))
        path.write_bytes(blob[:offsets[section] + into])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint_full(path)
        assert str(info.value) == (f"payload truncated reading {section} at byte "
                                   f"{offsets[section]} (need {sizes[section]} bytes)")

    def test_largest_header_sizes_are_refused_unallocated(self, model, tmp_path):
        # n = 0 empties the frequency table, and the basis claims
        # 8 * D * 2L bytes at D = L = 2^32 - 1, past the range of an int64
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = blob[16:20] = struct.pack("<I", 0xFFFFFFFF)
        blob[20:24] = struct.pack("<I", 0)
        path.write_bytes(bytes(blob))
        with TracedPeak() as traced, pytest.raises(CheckpointError) as info:
            load_checkpoint_full(path)
        assert str(info.value) == ("payload truncated reading basis at byte 32 "
                                   "(need 295147905041913872400 bytes)")
        assert traced.peak < len(blob) + 64 * 1024

    def test_load_allocates_the_file_and_the_orthonormality_gram(self, tmp_path):
        # at the paper shape: the sections are the model's own arrays, and
        # only the 2L x 2L Gram of the orthonormality check comes on top
        model = init_model(TrainConfig(), 0)
        path = tmp_path / "paper.ckpt"
        save_checkpoint(model, path)
        with TracedPeak() as traced:
            load_checkpoint_full(path)
        two_l = model.basis.shape[1]
        assert traced.peak < path.stat().st_size + 8 * two_l**2 + 64 * 1024

    def test_saving_a_loaded_model_copies_no_array(self, tmp_path):
        # the column-major basis and dictionary are written from their
        # loaded buffers, with no transposing copy
        path = tmp_path / "paper.ckpt"
        save_checkpoint(init_model(TrainConfig(), 0), path)
        loaded = load_checkpoint_full(path)
        with TracedPeak() as traced:
            save_checkpoint(loaded.model, tmp_path / "again.ckpt", n_grid=loaded.n_grid)
        assert traced.peak < 64 * 1024
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("n_grid", [0, 1])
    def test_grid_size_below_two_rejected(self, model, tmp_path, n_grid):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path, n_grid=37)
        blob = bytearray(path.read_bytes())
        # N is the last of the six u32 dimensions, at bytes 28..32
        assert struct.unpack("<I", bytes(blob[28:32])) == (37,)
        blob[28:32] = struct.pack("<I", n_grid)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="grid size"):
            load_checkpoint_full(path)
        with pytest.raises(CheckpointError, match="grid size"):
            save_checkpoint(model, tmp_path / "new.ckpt", n_grid=n_grid)
        assert not (tmp_path / "new.ckpt").exists()


class TestCheckpointScalars:
    @pytest.mark.parametrize("name, index, value, message", [
        ("kappa", 0, np.nan, r"prior kappa\[0\] is not finite"),
        ("kappa", 2, np.inf, r"prior kappa\[2\] is not finite"),
        ("mu", 1, np.nan, r"prior mu\[1\] is not finite"),
        ("noise_var", 0, np.inf, "noise_var must be finite, got inf"),
        ("sparsity", 0, np.nan, "sparsity must be finite, got nan"),
    ])
    def test_non_finite_scalar_rejected_by_name(self, model, tmp_path, name, index,
                                                value, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        at = scalar_offsets(model)[name] + 8 * index
        blob[at : at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(InvariantError, match=message):
            load_checkpoint_full(path)

    @pytest.mark.parametrize("flags, bits", [(2, "0x0002"), (0x8001, "0x8000")])
    def test_unknown_flag_bits_named(self, model, tmp_path, flags, bits):
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[6:8] = struct.pack("<H", flags)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"unknown flag bits {bits}"):
            load_checkpoint_full(path)


@pytest.mark.parametrize("entries, m, message", [
    ([[2**32 + 2]], 1, "frequency entry [0, 0] is 4294967298; a checkpoint stores it as int32"),
    ([[0], [2**31]], 1, "frequency entry [1, 0] is 2147483648"),
    ([[1]], 2**32, "header field m is 4294967296; a checkpoint stores it as u32"),
], ids=["rate-2^32+2", "rate-2^31", "m-2^32"])
def test_out_of_width_values_are_refused_before_writing(tmp_path, entries, m, message):
    # int32 and u32 would keep only the low bits: rate 2^32 + 2 would load
    # as rate 2, a different valid model
    model = small_model(0, d=4, L=len(entries), k=1, n=1)
    model.freq = tp.FrequencyTable(n=1, entries=np.array(entries), multiplicity=m)
    model.validate()
    path = tmp_path / "wide.ckpt"
    with pytest.raises(CheckpointError) as info:
        save_checkpoint(model, path)
    assert message in str(info.value)
    assert not path.exists()


def test_torus_dimension_zero_rejected(tmp_path):
    model = small_model(0, d=16, L=3, k=2, n=1)
    model.freq = tp.FrequencyTable(n=0, entries=np.zeros((3, 0), dtype=np.int64),
                                   multiplicity=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    with pytest.raises(InvariantError, match="torus dimension n is 0"):
        load_checkpoint_full(path)


@st.composite
def corruptions(draw, blob, tail):
    """A corrupted copy of checkpoint bytes: bit flips (biased to the header
    and to the prior/scalar bytes from offset ``tail`` on), a truncation, or
    appended bytes."""
    bad = bytearray(blob)
    kind = draw(st.sampled_from(["flip", "truncate", "append"]))
    if kind == "flip":
        regions = [(0, 32), (tail, min(len(blob), tail + 64)), (0, len(blob))]
        for _ in range(draw(st.integers(1, 8))):
            lo, hi = draw(st.sampled_from(regions))
            bad[draw(st.integers(lo, hi - 1))] ^= 1 << draw(st.integers(0, 7))
    elif kind == "truncate":
        del bad[draw(st.integers(0, len(blob) - 1)):]
    else:
        bad += draw(st.binary(min_size=1, max_size=16))
    return bytes(bad)


class TestCheckpointFuzz:
    @settings(max_examples=300, deadline=None)
    @given(case=checkpoint_cases(), data=st.data())
    def test_corrupted_bytes_raise_checkpoint_error_or_load_a_valid_model(
            self, case, data, tmp_path_factory):
        model, n_grid, dataset = case
        path = tmp_path_factory.mktemp("fuzz") / "m.ckpt"
        save_checkpoint(model, path, n_grid=n_grid, dataset=dataset)
        path.write_bytes(data.draw(corruptions(path.read_bytes(),
                                               scalar_offsets(model)["kappa"])))
        try:
            loaded = load_checkpoint_full(path)
        except CheckpointError:
            return
        model = loaded.model
        model.validate()
        for array in (model.basis, model.dictionary, model.prior.kappa, model.prior.mu,
                      [model.noise_var, model.sparsity]):
            assert np.isfinite(array).all()
        assert loaded.n_grid >= 2


class TestParseConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(path)
        assert cfg.batch_size == 100
        assert cfg.n_atoms == 10
        assert cfg.grid_size == 50
        assert cfg.n_freq == 128
        assert cfg.fista_steps == 20
        assert cfg.torus_dim == 2
        assert cfg.noise_var == 0.01
        assert cfg.sparsity == 10.0
        assert cfg.lr_dict == 0.05
        assert cfg.lr_basis == 0.3
        assert cfg.code_init == 0.01
        assert cfg.multiplicity == 1

    def test_multiplicity_override(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("m = 2\n")
        assert parse_config(path).multiplicity == 2

    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# full line comment\n\nB=25   # trailing comment\n  T = 7\n")
        cfg = parse_config(path)
        assert cfg.batch_size == 25
        assert cfg.fista_steps == 7

    def test_zero_batch_rejected(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("B = 0\n")
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(path)

    def test_unknown_key_has_line_number(self, tmp_path):
        path = tmp_path / "u.cfg"
        path.write_text("B = 10\nturbo = on\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path)

    def test_bad_value_has_line_number(self, tmp_path):
        path = tmp_path / "v.cfg"
        path.write_text("sigma2 = tiny\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)

    @pytest.mark.parametrize("line, message", [
        ("lambda = nan", "sparsity must be finite, got nan"),
        ("lambda = inf", "sparsity must be finite, got inf"),
        ("sigma2 = inf", "noise_var must be finite, got inf"),
        ("lr_w = inf", "lr_basis must be finite, got inf"),
    ])
    def test_non_finite_value_rejected_by_name(self, tmp_path, line, message):
        path = tmp_path / "f.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError, match=message):
            parse_config(path)

    @pytest.mark.parametrize("text, message", [
        ("N = 1", "grid_size must be >= 2"),
        ("lambda = -1", "sparsity must be nonnegative"),
        ("seed = -1", "seed must be nonnegative"),
        ("grad_mode = fast", "grad_mode must be exact|approximate, got 'fast'"),
        ("include_zero = maybe", "line 1: bad value for include_zero: not a boolean: 'maybe'"),
        ("n = 5\nN = 50", "grid has 312500000 points; limit is 10000000 (n=5, N=50)"),
        ("n = 100000\nN = 2", "grid has inf points; limit is 10000000 (n=100000, N=2)"),
        ("m = 4294967296", "header field m is 4294967296; a checkpoint stores it as u32"),
        ("D = 4294967296", "header field D is 4294967296; a checkpoint stores it as u32"),
    ], ids=["N", "lambda", "seed", "grad_mode", "include_zero", "grid", "wide-grid",
            "m-width", "D-width"])
    def test_refusals_name_their_cause(self, tmp_path, text, message):
        path = tmp_path / "r.cfg"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert message in str(info.value)

    def test_grad_mode_and_flags(self, tmp_path):
        path = tmp_path / "g.cfg"
        path.write_text("grad_mode = exact\ninclude_zero = false\nlambda = 2.5\n")
        cfg = parse_config(path)
        assert cfg.grad_mode == "exact"
        assert cfg.include_zero_freq is False
        assert cfg.sparsity == 2.5
