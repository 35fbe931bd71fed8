import struct

import numpy as np
import pytest

from torusparse.datasets import (
    Dataset,
    IdxFormatError,
    TransformSpec,
    load_idx_images,
    load_idx_labels,
    make_synthetic,
    normalize_batch,
    warp_rot_scale,
    warp_translate,
)


def write_idx_images(path, images):
    """images: (count, side, side) uint8."""
    arr = np.asarray(images, dtype=np.uint8)
    count, rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(arr.tobytes())


class TestIdx:
    def test_hand_assembled_file(self, tmp_path):
        path = tmp_path / "one.idx"
        write_idx_images(path, np.array([[[0, 255], [128, 64]]]))
        ds = load_idx_images(path)
        assert ds.side == 2
        np.testing.assert_allclose(
            ds.images[0], [0.0, 1.0, 128 / 255, 64 / 255], atol=1e-12
        )

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000801, 1, 2, 2))
            fh.write(bytes(4))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx_images(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            fh.write(bytes(4))  # one image, two declared
        with pytest.raises(IdxFormatError, match="byte"):
            load_idx_images(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 1, 2, 2))
            fh.write(bytes(6))
        with pytest.raises(IdxFormatError, match="trailing"):
            load_idx_images(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "rect.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 1, 2, 3))
            fh.write(bytes(6))
        with pytest.raises(IdxFormatError, match="square"):
            load_idx_images(path)

    def test_labels_roundtrip(self, tmp_path):
        path = tmp_path / "labels.idx"
        with open(path, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 3))
            fh.write(bytes([7, 0, 9]))
        np.testing.assert_array_equal(load_idx_labels(path), [7, 0, 9])
        with open(path, "r+b") as fh:
            fh.write(struct.pack(">II", 0x00000803, 3))
        with pytest.raises(IdxFormatError, match="magic"):
            load_idx_labels(path)


class TestWarpTranslate:
    def test_identity(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 1, (8, 8))
        np.testing.assert_array_equal(warp_translate(img, 0.0, 0.0), img)

    def test_integer_shift_equals_index_shift(self):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 1, (8, 8))
        out = warp_translate(img, 3.0, 0.0)
        want = np.zeros_like(img)
        want[:, 3:] = img[:, :-3]
        np.testing.assert_array_equal(out, want)
        out = warp_translate(img, 0.0, -2.0)
        want = np.zeros_like(img)
        want[:-2, :] = img[2:, :]
        np.testing.assert_array_equal(out, want)

    def test_half_pixel_averages_neighbors(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, (8, 8))
        out = warp_translate(img, 0.5, 0.0)
        for c in range(1, 8):
            np.testing.assert_allclose(
                out[:, c], 0.5 * (img[:, c - 1] + img[:, c]), atol=1e-14
            )

    def test_cyclic_integer_shift_is_roll(self):
        rng = np.random.default_rng(3)
        img = rng.uniform(0, 1, (8, 8))
        out = warp_translate(img, 3.0, 0.0, cyclic=True)
        np.testing.assert_array_equal(out, np.roll(img, 3, axis=1))

    def test_range_preserved(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (8, 8))
        for dx, dy in ((1.3, -2.7), (0.2, 5.5), (-3.9, 0.1)):
            out = warp_translate(img, dx, dy)
            assert out.min() >= 0.0
            assert out.max() <= img.max() + 1e-12


class TestWarpRotScale:
    def test_identity(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 1, (9, 9))
        np.testing.assert_array_equal(warp_rot_scale(img, 0.0, 1.0), img)

    def test_quarter_turn_moves_bright_pixel(self):
        side = 15
        center = (side - 1) // 2
        r = 4
        img = np.zeros((side, side))
        img[center + r, center] = 1.0
        out = warp_rot_scale(img, np.pi / 2, 1.0)
        assert abs(out[center, center + r] - 1.0) < 1e-6
        assert out.sum() == pytest.approx(1.0, abs=1e-6)

    def test_half_scale_halves_radius(self):
        side = 17
        center = (side - 1) // 2
        img = np.zeros((side, side))
        img[center + 6, center] = 1.0
        out = warp_rot_scale(img, 0.0, 0.5)
        hits = np.argwhere(out > 0.2)
        assert len(hits) > 0
        for row, col in hits:
            dist = np.hypot(row - center, col - center)
            assert abs(dist - 3.0) <= 0.5

    def test_scale_bounds(self):
        img = np.zeros((4, 4))
        with pytest.raises(ValueError):
            warp_rot_scale(img, 0.0, 0.0)
        with pytest.raises(ValueError):
            warp_rot_scale(img, 0.0, 2.5)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            warp_rot_scale(np.zeros((4, 5)), 0.1, 1.0)
        with pytest.raises(ValueError, match="square"):
            warp_translate(np.zeros((4, 5)), 1.0, 0.0)


class TestMakeSynthetic:
    def test_full_scale_count(self):
        rng = np.random.default_rng(6)
        templates = [rng.uniform(0, 1, (4, 4)) for _ in range(10)]
        spec = TransformSpec.translate2d(6000, ranges=((-1.0, 1.0), (-1.0, 1.0)))
        ds = make_synthetic(templates, spec, seed=0)
        assert ds.images.shape == (60000, 16)
        assert ds.meta.shape == (60000, 2)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        templates = [rng.uniform(0, 1, (6, 6)) for _ in range(2)]
        spec = TransformSpec.rotscale(20)
        a = make_synthetic(templates, spec, seed=42)
        b = make_synthetic(templates, spec, seed=42)
        assert a.images.tobytes() == b.images.tobytes()
        assert a.meta.tobytes() == b.meta.tobytes()
        c = make_synthetic(templates, spec, seed=43)
        assert a.images.tobytes() != c.images.tobytes()

    def test_zero_width_ranges_reproduce_templates(self):
        rng = np.random.default_rng(8)
        templates = [rng.uniform(0, 1, (6, 6)) for _ in range(3)]
        spec = TransformSpec("translate2d", ((0.0, 0.0), (0.0, 0.0)), 4)
        ds = make_synthetic(templates, spec, seed=1)
        for t_idx, template in enumerate(templates):
            for s_idx in range(4):
                np.testing.assert_array_equal(
                    ds.images[t_idx * 4 + s_idx], template.ravel()
                )

    def test_meta_within_ranges_and_template_major(self):
        rng = np.random.default_rng(9)
        templates = [np.full((4, 4), 0.25), rng.uniform(0, 1, (4, 4))]
        spec = TransformSpec.rotscale(50)
        ds = make_synthetic(templates, spec, seed=3)
        (t_lo, t_hi), (s_lo, s_hi) = spec.ranges
        assert (ds.meta[:, 0] >= t_lo).all() and (ds.meta[:, 0] <= t_hi).all()
        assert (ds.meta[:, 1] >= s_lo).all() and (ds.meta[:, 1] <= s_hi).all()
        # template-major layout: the constant template fills the first block
        center = ds.images[:50].reshape(50, 4, 4)[:, 1:3, 1:3]
        np.testing.assert_allclose(center, 0.25, atol=1e-9)

    def test_empty_templates_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic([], TransformSpec.rotscale(5), 0)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            TransformSpec("zoom", ((0, 1), (0, 1)), 5)
        with pytest.raises(ValueError):
            TransformSpec("rotscale", ((1, 0), (0, 1)), 5)
        with pytest.raises(ValueError):
            TransformSpec("rotscale", ((0, 1), (0, 1)), 0)


class TestNormalize:
    def test_scaling(self):
        image = np.zeros(16)
        image[0] = 2.0
        np.testing.assert_allclose(normalize_batch(image)[0], 1.0, atol=1e-15)

    def test_unit_norm_unchanged(self):
        rng = np.random.default_rng(10)
        image = rng.standard_normal(16)
        image /= np.linalg.norm(image)
        np.testing.assert_allclose(normalize_batch(image), image, atol=1e-15)

    def test_zero_image_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            normalize_batch(np.zeros(16))
        batch = np.ones((3, 16))
        batch[1] = 0
        with pytest.raises(ValueError, match="image 1"):
            normalize_batch(batch)

    def test_non_finite_image_rejected_by_index(self):
        batch = np.ones((4, 16))
        batch[2, 5] = np.inf
        batch[3, 0] = np.nan
        with pytest.raises(ValueError, match="image 2 has a non-finite"):
            normalize_batch(batch)


def test_dataset_shape_validation():
    with pytest.raises(ValueError):
        Dataset(images=np.ones((3, 15)), side=4)
    with pytest.raises(ValueError):
        Dataset(images=np.ones((3, 16)), side=4, meta=np.ones((2, 2)))
