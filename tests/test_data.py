import hashlib
import re
import struct
import sys
import tracemalloc

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusparse import datasets
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

from conftest import oracle_synthetic, oracle_warp


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

    def test_scaling_in_place_keeps_the_bits(self, tmp_path):
        path = tmp_path / "all.idx"
        pixels = np.arange(256 * 4, dtype=np.uint8).reshape(64, 4, 4)
        write_idx_images(path, pixels)
        reference = np.frombuffer(path.read_bytes(), dtype=np.uint8,
                                  offset=16).astype(float) / 255.0
        assert load_idx_images(path).images.tobytes() == reference.tobytes()

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


class TestSyntheticGoldenHash:
    """SHA-256 of images + meta for fixed 28x28 templates, recorded from the
    per-image warp loop that the batched kernel replaced. Translation uses
    only + - x and floor, so these hashes hold on every platform. 37 samples
    per template is not a multiple of the warp block."""

    TEMPLATES = np.random.default_rng(505).integers(0, 256, (3, 28, 28)) / 255.0

    @pytest.mark.parametrize("cyclic, digest", [
        (False, "5877c3ec35268e2c9171a049964638c4fb24461619ff6e55779c4c4812c1069d"),
        (True, "b88333a8bb01f0c1000e486d12ca44ff8762c995aa8674d179a27147f77714ef"),
    ])
    def test_translate2d_dataset_bytes(self, cyclic, digest):
        spec = TransformSpec.translate2d(37, cyclic=cyclic)
        ds = make_synthetic(list(self.TEMPLATES), spec, seed=2020)
        blob = ds.images.tobytes() + ds.meta.tobytes()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestSyntheticMetaGoldenHash:
    """SHA-256 of the meta bytes alone (3 templates, 50 samples each),
    recorded from the per-sample SeedSequence/PCG64 loop that the
    vectorised draw replaced. Each value is integer hashing plus one IEEE
    multiply and one add, so these hashes hold on every platform and pin
    the parameter stream apart from numpy's own generators."""

    @pytest.mark.parametrize("kind, seed, digest", [
        ("rotscale", 0, "7cf13ddaae232bebb8ad45be18246f3faffb5596ea97f52016c60b140799cfee"),
        ("rotscale", 2**32 + 7,
         "1b020acc099485eda9174b20d150884eb60d77e9555a9ff259c06f347908fae3"),
        ("rotscale", 2**64 - 1,
         "a312e147bfd370bafc2454f5ad8dcd57eff86e97608976d0b15d4649e20e0ffd"),
        ("translate2d", 0, "42784ffba8c97862d3eb7178bbf627dd51388aa91eb0866432f170b3baf375dc"),
        ("translate2d", 2**32 + 7,
         "88907f625b3160ad8d97cf40d861abf83fc0f89cd3f53c369162d753c7ba0743"),
        ("translate2d", 2**64 - 1,
         "71811ad129a533fe0ef17e52e2d15f9abba7d89bead846ed95fc8ceeb1ec1248"),
    ])
    def test_meta_bytes(self, kind, seed, digest):
        spec = getattr(TransformSpec, kind)(50)
        ds = make_synthetic(list(np.ones((3, 4, 4))), spec, seed)
        assert hashlib.sha256(ds.meta.tobytes()).hexdigest() == digest


def numpy_draw(seed, template, sample, ranges):
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**64 - 1), template, sample]))
    return [rng.uniform(lo, hi) for lo, hi in ranges]


@st.composite
def parameter_ranges(draw):
    ranges = []
    for _ in range(2):
        lo, hi = sorted((draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))))
        ranges.append((lo, lo if draw(st.booleans()) else hi))
    return tuple(ranges)


class TestVectorisedDraw:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(-(2**63), 2**64 - 1),
                          st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**63)])),
           n_templates=st.integers(1, 4), count=st.integers(1, 5000),
           ranges=parameter_ranges(), per_pass=st.sampled_from([997, datasets.DRAW_SAMPLES]),
           data=st.data())
    def test_draw_matches_numpy_generator(self, seed, n_templates, count, ranges,
                                          per_pass, data):
        """Rows at the ends, at every pass boundary and at drawn indices
        equal two uniform draws of numpy's generator for that sample."""
        with mock.patch.object(datasets, "DRAW_SAMPLES", per_pass):
            meta = datasets._draw_parameters(seed, n_templates, count, ranges)
        total = n_templates * count
        assert meta.shape == (total, 2)
        rows = {0, total - 1}
        for boundary in range(per_pass, total, per_pass):
            rows |= {boundary - 1, boundary}
        rows |= set(data.draw(st.lists(st.integers(0, total - 1), max_size=40)))
        for row in sorted(rows):
            want = numpy_draw(seed, row // count, row % count, ranges)
            assert meta[row].tobytes() == np.array(want).tobytes(), row

    def test_peak_memory_does_not_grow_with_sample_count(self):
        """Beyond the images and meta it returns, make_synthetic holds only
        fixed-size passes: 50,000 and 200,000 samples peak alike (the
        per-sample loop's list of tuples alone held about 110 B a sample)."""
        templates = [np.ones((2, 2)), np.full((2, 2), 0.5)]
        extra = []
        for count in (25_000, 100_000):
            spec = TransformSpec.translate2d(count, ranges=((-1.0, 1.0), (-1.0, 1.0)))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                ds = make_synthetic(templates, spec, seed=3)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            extra.append(peak - ds.images.nbytes - ds.meta.nbytes)
        assert extra[1] - extra[0] < 2**20, extra


@st.composite
def synthetic_cases(draw):
    """(templates, spec, seed, warp pixels per pass) over both warp kinds,
    zero-width ranges, shifts beyond the image and scales up to 2, with
    passes small enough that the samples straddle their boundaries."""
    side = draw(st.sampled_from([2, 5, 28]))
    kind = draw(st.sampled_from(["translate2d", "rotscale"]))
    if kind == "translate2d":
        shift = st.floats(-3.0 * side, 3.0 * side)
        values = (shift, shift)
    else:
        values = (st.floats(-4.0, 4.0), st.one_of(st.just(2.0), st.floats(1e-3, 2.0)))
    ranges = []
    for value in values:
        lo, hi = sorted((draw(value), draw(value)))
        ranges.append((lo, lo if draw(st.booleans()) else hi))
    spec = TransformSpec(kind, tuple(ranges), draw(st.integers(1, 30)),
                         cyclic=draw(st.booleans()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    templates = list(rng.uniform(0, 1, (draw(st.integers(1, 3)), side, side)))
    pixels = draw(st.sampled_from([1, 7 * side * side, datasets.WARP_PIXELS]))
    return templates, spec, draw(st.integers(0, 2**64 - 1)), pixels


class TestBatchedWarp:
    @settings(max_examples=80, deadline=None)
    @given(case=synthetic_cases())
    def test_make_synthetic_matches_per_image_oracle(self, case):
        templates, spec, seed, pixels = case
        with mock.patch.object(datasets, "WARP_PIXELS", pixels):
            ds = make_synthetic(templates, spec, seed)
        images, meta = oracle_synthetic(templates, spec, seed)
        assert ds.meta.tobytes() == meta.tobytes()
        assert ds.images.tobytes() == images.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           dx=st.floats(-20, 20), dy=st.floats(-20, 20), cyclic=st.booleans(),
           theta=st.floats(-7, 7), scale=st.floats(1e-3, 2.0))
    def test_public_warps_match_per_image_oracle(self, side, seed, dx, dy, cyclic,
                                                 theta, scale):
        img = np.random.default_rng(seed).uniform(0, 1, (side, side))
        want = oracle_warp(img, "translate2d", dx, dy, cyclic)
        assert warp_translate(img, dx, dy, cyclic).tobytes() == want.tobytes()
        want = oracle_warp(img, "rotscale", theta, scale)
        assert warp_rot_scale(img, theta, scale).tobytes() == want.tobytes()


class TestThreadedWarp:
    @settings(max_examples=60, deadline=None)
    @given(case=synthetic_cases(), per_block=st.integers(1, 7))
    def test_bytes_do_not_depend_on_the_thread_count(self, case, per_block):
        """Blocks of 1 to 7 images: several blocks per lane, so lanes
        interleave and the last block is often short."""
        templates, spec, seed, _ = case
        side = templates[0].shape[0]
        with mock.patch.object(datasets, "WARP_PIXELS", per_block * side * side):
            runs = [make_synthetic(templates, spec, seed, threads=t) for t in (1, 2, 3)]
        images, meta = oracle_synthetic(templates, spec, seed)
        for ds in runs:
            assert ds.meta.tobytes() == meta.tobytes()
            assert ds.images.tobytes() == images.tobytes()

    def test_many_threads_with_fast_switching_write_every_row_once(self):
        """Eight threads, more than a small host has cores, switching every
        microsecond over 61 one-image blocks: a lost or misplaced row
        would change the bytes."""
        templates = list(np.random.default_rng(12).uniform(0, 1, (1, 6, 6)))
        spec = TransformSpec.rotscale(61)
        want = make_synthetic(templates, spec, seed=8).images
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(datasets, "WARP_PIXELS", 36):
                got = make_synthetic(templates, spec, seed=8, threads=8).images
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("threads", [2, 3])
    def test_lowest_bad_row_is_named_when_a_later_block_also_fails(self, threads):
        """One image per block: templates 1 and 3 (rows 3-5 and 9-11) are
        NaN, so every lane meets a bad block and the first one, row 3,
        falls on lane 3 % threads."""
        templates = [np.ones((4, 4)) for _ in range(4)]
        templates[1][0, 0] = templates[3][3, 3] = np.nan
        spec = TransformSpec("translate2d", ((0.0, 0.0), (0.0, 0.0)), 3)
        with mock.patch.object(datasets, "WARP_PIXELS", 16), \
                pytest.raises(ValueError, match=r"^template 1 sample 0 \(dx=0\.0, dy=0\.0\)"):
            make_synthetic(templates, spec, seed=0, threads=threads)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_fewer_than_one_thread_is_refused_by_name(self, threads):
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            make_synthetic([np.ones((2, 2))], TransformSpec.rotscale(2), 0, threads=threads)


class TestSampleCountLimit:
    """Sample s is one uint32 SeedSequence entropy word, so 2**32 samples
    per template is the most that keeps every sample's draws distinct.
    Both edges are checked by construction only: nothing is generated."""

    def test_two_to_the_32_samples_accepted(self):
        assert TransformSpec.rotscale(2**32).count_per_template == 2**32

    def test_one_more_is_refused_by_name(self):
        with pytest.raises(ValueError, match=r"count_per_template 4294967297 exceeds 2\*\*32"):
            TransformSpec.translate2d(2**32 + 1)


class TestRangeChecks:
    @pytest.mark.parametrize("kind, ranges, message", [
        ("translate2d", ((np.nan, 1.0), (0.0, 0.0)), "dx low bound nan"),
        ("translate2d", ((0.0, 1.0), (-np.inf, 0.0)), "dy low bound -inf"),
        ("rotscale", ((0.0, np.inf), (0.5, 1.0)), "theta high bound inf"),
        ("rotscale", ((-1e308, 1e308), (0.5, 1.0)), "theta range"),
        ("rotscale", ((0.0, 1.0), (0.0, 1.0)), "scale range"),
        ("rotscale", ((0.0, 1.0), (0.5, 2.5)), "scale range"),
        ("translate2d", ((0.0, 2.0**53), (0.0, 0.0)), "beyond 2**52"),
        ("translate2d", ((0.0, 1.0),), "two (lo, hi) ranges"),
    ])
    def test_bad_range_named(self, kind, ranges, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TransformSpec(kind, ranges, 3)

    def test_scale_two_and_shift_2_52_accepted(self):
        TransformSpec("rotscale", ((0.0, 0.0), (2.0, 2.0)), 1)
        TransformSpec("translate2d", ((-(2.0**52), 2.0**52), (0.0, 0.0)), 1, cyclic=True)

    def test_non_finite_warp_names_first_sample(self):
        templates = [np.ones((4, 4)), np.ones((4, 4))]
        spec = TransformSpec("rotscale", ((0.0, 0.0), (1e-300, 1e-300)), 3)
        with pytest.raises(ValueError,
                           match=r"template 0 sample 0 \(theta=0\.0, scale=1e-300\)"):
            make_synthetic(templates, spec, seed=0)

    def test_non_finite_template_named(self):
        templates = [np.ones((4, 4)), np.ones((4, 4))]
        templates[1][2, 2] = np.nan
        spec = TransformSpec("translate2d", ((0.0, 0.0), (0.0, 0.0)), 3)
        with pytest.raises(ValueError, match="template 1 sample 0 "):
            make_synthetic(templates, spec, seed=0)


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


class TestEmptyTemplates:
    """Templates of side 0 are refused by name, not by a division by zero
    in the warp block size."""

    def test_idx_of_zero_by_zero_images_is_a_format_error(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 3, 0, 0))
        with pytest.raises(IdxFormatError, match="at least 1x1, got 0x0"):
            load_idx_images(path)

    def test_make_synthetic_refuses_side_zero(self):
        spec = TransformSpec.translate2d(2)
        with pytest.raises(ValueError, match="at least 1x1, got 0x0"):
            make_synthetic([np.zeros((0, 0))] * 3, spec, seed=0)
