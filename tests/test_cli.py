import math
import os
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import torusparse as tp
from torusparse import datasets
from torusparse.cli import BLAS_THREAD_VARIABLES, _build_parser, _placeholder_model, main
from torusparse.io import load_checkpoint_full, save_checkpoint

from conftest import desk_templates, scalar_offsets


def write_idx_images(path, images):
    arr = np.asarray(images, dtype=np.uint8)
    count, rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(arr.tobytes())


@pytest.fixture
def templates_idx(tmp_path):
    path = tmp_path / "templates.idx"
    tiles = np.stack([np.asarray(t) for t in desk_templates(side=8)])
    write_idx_images(path, np.rint(tiles * 255))
    return path


@pytest.fixture
def deskaux(tmp_path, templates_idx):
    """Small end-to-end config: 8x8 images, 3 templates."""
    cfg = tmp_path / "desk.cfg"
    cfg.write_text(
        "D = 64\nK = 3\nL = 4\nn = 1\nN = 20\nT = 10\nB = 30\n"
        "epochs = 4\nlambda = 1.0\nsigma2 = 0.01\nlr_w = 0.1\nseed = 1\n"
    )
    data = tmp_path / "train.ds"
    rc = main([
        "gen-data", "--kind", "translate2d", "--templates", str(templates_idx),
        "--count-per-template", "60", "--seed", "9", "--out", str(data),
        "--cyclic", "--dx", "-4", "4", "--dy", "0", "0",
    ])
    assert rc == 0
    return cfg, data


class TestGenData:
    def test_counts_and_reload(self, tmp_path, templates_idx):
        out = tmp_path / "ds.ckpt"
        rc = main([
            "gen-data", "--kind", "rotscale", "--templates", str(templates_idx),
            "--count-per-template", "11", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        contents = load_checkpoint_full(out)
        assert contents.dataset.images.shape == (33, 64)

    def test_deterministic_across_runs(self, tmp_path, templates_idx):
        outs = []
        for name in ("a.ds", "b.ds"):
            out = tmp_path / name
            rc = main([
                "gen-data", "--kind", "translate2d", "--templates",
                str(templates_idx), "--count-per-template", "5", "--seed", "7",
                "--out", str(out),
            ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_templates_file(self, tmp_path):
        rc = main([
            "gen-data", "--kind", "rotscale", "--templates",
            str(tmp_path / "nope.idx"), "--count-per-template", "2",
            "--seed", "0", "--out", str(tmp_path / "out.ds"),
        ])
        assert rc == 2


    @pytest.mark.parametrize("kind, flags, message", [
        ("translate2d", ["--dx", "nan", "nan"], "dx low bound nan is not finite"),
        ("rotscale", ["--theta", "nan", "nan"], "theta low bound nan is not finite"),
        ("translate2d", ["--dy", "0", "inf"], "dy high bound inf is not finite"),
        ("translate2d", ["--dx", str(-10**308), "1e308"], "dx range"),
        ("rotscale", ["--scale", "0.5", "3"], "scale range (0.5, 3.0) must lie in (0, 2]"),
    ])
    def test_bad_range_is_exit_2(self, tmp_path, templates_idx, capsys, kind, flags,
                                 message):
        out = tmp_path / "out.ds"
        rc = main(["gen-data", "--kind", kind, "--templates", str(templates_idx),
                   "--count-per-template", "2", "--seed", "0", "--out", str(out),
                   *flags])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_negative_bound_in_exponent_form_is_a_value(self, tmp_path, templates_idx):
        out = tmp_path / "out.ds"
        rc = main(["gen-data", "--kind", "translate2d", "--templates", str(templates_idx),
                   "--count-per-template", "3", "--seed", "0", "--out", str(out),
                   "--cyclic", "--dx", "-1e3", "1e3", "--dy", "-2.5E0", "-1e-1"])
        assert rc == 0
        assert load_checkpoint_full(out).dataset.images.shape == (9, 64)

    def test_negative_infinite_bound_names_the_range_rule(self, tmp_path, templates_idx,
                                                          capsys):
        out = tmp_path / "out.ds"
        rc = main(["gen-data", "--kind", "translate2d", "--templates", str(templates_idx),
                   "--count-per-template", "2", "--seed", "0", "--out", str(out),
                   "--dx", "-inf", "inf"])
        assert rc == 2
        assert "dx low bound -inf is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_scale_that_warps_to_non_finite_pixels_names_the_sample(
            self, tmp_path, templates_idx, capsys):
        out = tmp_path / "out.ds"
        rc = main(["gen-data", "--kind", "rotscale", "--templates", str(templates_idx),
                   "--count-per-template", "2", "--seed", "0", "--out", str(out),
                   "--scale", "1e-300", "1e-300"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "template 0 sample 0 (theta=" in err
        assert "scale=1e-300) warps to a non-finite pixel" in err
        assert not out.exists()

    def test_thread_counts_write_the_same_bytes(self, tmp_path, templates_idx):
        """18 rotscale images of 8x8 in blocks of 8 (datasets.WARP_PIXELS
        lowered to 512 pixels): three blocks, so two and three threads
        split them; the CLI hands each --threads value to make_synthetic."""
        blobs, seen = [], []

        def spy(*args, threads):
            seen.append(threads)
            return datasets.make_synthetic(*args, threads=threads)

        with mock.patch.object(datasets, "WARP_PIXELS", 512), \
                mock.patch("torusparse.cli.make_synthetic", spy):
            for threads in ("1", "2", "3"):
                out = tmp_path / f"t{threads}.ds"
                rc = main(["--threads", threads, "gen-data", "--kind", "rotscale",
                           "--templates", str(templates_idx), "--count-per-template", "6",
                           "--seed", "4", "--out", str(out)])
                assert rc == 0
                blobs.append(out.read_bytes())
        assert seen == [1, 2, 3]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_zero_threads_is_a_usage_error(self, tmp_path, templates_idx, capsys):
        out = tmp_path / "out.ds"
        rc = main(["--threads", "0", "gen-data", "--kind", "rotscale", "--templates",
                   str(templates_idx), "--count-per-template", "2", "--seed", "0",
                   "--out", str(out)])
        assert rc == 1
        assert "--threads must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_more_than_2_to_the_32_samples_is_exit_2(self, tmp_path, templates_idx,
                                                     capsys):
        out = tmp_path / "out.ds"
        rc = main(["gen-data", "--kind", "translate2d", "--templates", str(templates_idx),
                   "--count-per-template", str(2**32 + 1), "--seed", "0", "--out", str(out)])
        assert rc == 2
        assert "count_per_template 4294967297 exceeds 2**32" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_is_exit_2_with_one_error_line(self, tmp_path, templates_idx,
                                                          capsys, monkeypatch):
        """The allocation is made to fail; nothing large is allocated."""
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 596. GiB for an array with shape "
                              "(100000000, 28, 28) and data type float64")

        monkeypatch.setattr(datasets, "_draw_parameters", refuse)
        out = tmp_path / "out.ds"
        rc = main(["gen-data", "--kind", "rotscale", "--templates", str(templates_idx),
                   "--count-per-template", "100000000", "--seed", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate 596. GiB")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        assert main(["eval", "--ckpt"]) == 1

    def test_data_error_is_exit_2(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("B = 0\n")
        rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "x"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_model_checkpoint_without_dataset_is_exit_2(self, tmp_path):
        from conftest import small_model

        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(small_model(0, d=16, L=3, k=2, n=1), ckpt)
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(ckpt)])
        assert rc == 2

    def test_eval_on_non_finite_image_names_it(self, tmp_path, capsys):
        from conftest import small_model

        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(small_model(0, d=16, L=3, k=2, n=1), ckpt)
        images = np.random.default_rng(0).uniform(0.1, 1.0, (5, 16))
        images[3, 7] = np.nan
        data = tmp_path / "nan.ds"
        save_checkpoint(small_model(0, d=16, L=3, k=2, n=1), data,
                        dataset=tp.Dataset(images=images, side=4))
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "image 3" in err and "non-finite" in err


class TestUnusableFiles:
    """A path that cannot be read or written ends in one error line and exit
    code 2, not a traceback."""

    def test_eval_with_a_directory_checkpoint(self, tmp_path, deskaux, capsys):
        _, data = deskaux
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tmp_path), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    def test_gen_data_with_directory_templates(self, tmp_path, capsys):
        out = tmp_path / "out.ds"
        rc = main(["gen-data", "--kind", "rotscale", "--templates", str(tmp_path),
                   "--count-per-template", "2", "--seed", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_gen_data_into_a_directory(self, tmp_path, templates_idx, capsys):
        rc = main(["gen-data", "--kind", "rotscale", "--templates", str(templates_idx),
                   "--count-per-template", "2", "--seed", "0", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(tmp_path) in err

    @pytest.mark.parametrize("command", ["train", "baseline-train"])
    def test_train_into_a_directory_is_refused_before_training(
            self, tmp_path, deskaux, capsys, command):
        cfg, data = deskaux
        out = tmp_path / "outdir"
        out.mkdir()
        capsys.readouterr()
        with mock.patch("torusparse.cli.train") as train, \
                mock.patch("torusparse.cli.train_baseline") as train_baseline:
            rc = main([command, "--config", str(cfg), "--data", str(data),
                       "--out", str(out)])
        assert rc == 2
        assert not train.called and not train_baseline.called
        assert capsys.readouterr().err == f"error: --out {out} is a directory\n"
        assert not (tmp_path / "outdir.log").exists()

    @pytest.mark.parametrize("command", [
        ["gen-data", "--kind", "rotscale", "--count-per-template", "2", "--seed", "0"],
        ["reconstruct", "--take", "3"],
        ["traverse", "--dim", "1", "--steps", "4"],
        ["export-w", "--cols", "3"],
    ], ids=lambda command: command[0])
    def test_writers_refuse_a_directory_out_before_their_work(
            self, tmp_path, templates_idx, capsys, command):
        ckpt = model_with_images(tmp_path, np.random.default_rng(0).uniform(0.1, 1, (5, 16)))
        inputs = {"gen-data": ["--templates", str(templates_idx)],
                  "export-w": ["--ckpt", str(ckpt)]}.get(
            command[0], ["--ckpt", str(ckpt), "--data", str(ckpt)])
        out = tmp_path / "outdir"
        out.mkdir()
        work = ("make_synthetic", "reconstruct_batch", "latent_traversal", "export_grid")
        with mock.patch.multiple("torusparse.cli", **{name: mock.DEFAULT for name in work}) \
                as spies:
            rc = main(command + inputs + ["--out", str(out)])
        assert rc == 2
        assert not any(spy.called for spy in spies.values())
        assert capsys.readouterr().err == f"error: --out {out} is a directory\n"

    @pytest.mark.parametrize("command", [
        ["--threads", "1", "eval"],
        ["--threads", "2", "eval"],
        ["traverse", "--dim", "1", "--steps", "4", "--out", "sweep.pgm"],
    ], ids=["eval-1-thread", "eval-2-threads", "traverse"])
    def test_a_dataset_with_no_images_is_named(self, tmp_path, capsys, monkeypatch,
                                               command):
        monkeypatch.chdir(tmp_path)
        data = model_with_images(tmp_path, np.empty((0, 16)))
        rc = main(command + ["--ckpt", str(data), "--data", str(data)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {data} holds no images\n"
        assert not (tmp_path / "sweep.pgm").exists()


def model_with_images(tmp_path, images):
    """A 4 x 4 model checkpoint carrying ``images`` as its dataset section."""
    from conftest import small_model

    path = tmp_path / "model.ds"
    save_checkpoint(small_model(0, d=16, L=3, k=2, n=1), path,
                    dataset=tp.Dataset(images=images, side=4))
    return path


def test_train_then_eval_cache_one_grid_table_per_grid(tmp_path, deskaux, monkeypatch):
    # one (table, N) entry for training at N = 12 and one for eval at N = 100
    from torusparse import posterior

    cfg, data = deskaux
    cfg.write_text(cfg.read_text().replace("L = 4\nn = 1\nN = 20", "L = 8\nn = 2\nN = 12"))
    ckpt = tmp_path / "model.ckpt"
    monkeypatch.setattr(posterior, "_TABLE_CACHE", {})
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(ckpt),
                 "--epochs", "1"]) == 0
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 0
    freq = load_checkpoint_full(ckpt).model.freq
    assert (freq.entries[:, -1] < 0).any()
    assert set(posterior._TABLE_CACHE) == {freq.cache_key() + (12,),
                                           freq.cache_key() + (100,)}


def corrupt_checkpoint(path, model, name, value):
    """Overwrite one stored scalar (or the flags) of a saved checkpoint."""
    blob = bytearray(path.read_bytes())
    if name == "flags":
        blob[6:8] = struct.pack("<H", value)
    else:
        at = scalar_offsets(model)[name]
        blob[at : at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(blob))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("name, value, message", [
        ("sparsity", float("nan"), "sparsity must be finite, got nan"),
        ("mu", float("nan"), "prior mu[0] is not finite"),
        ("kappa", float("nan"), "prior kappa[0] is not finite"),
        ("kappa", float("inf"), "prior kappa[0] is not finite"),
        ("noise_var", float("inf"), "noise_var must be finite, got inf"),
        ("flags", 2, "unknown flag bits 0x0002"),
    ])
    def test_corrupted_checkpoint_is_exit_2_by_name(self, tmp_path, capsys, name, value,
                                                     message):
        from conftest import small_model

        model = small_model(0, d=16, L=3, k=2, n=1)
        ckpt, data = tmp_path / "m.ckpt", tmp_path / "d.ds"
        save_checkpoint(model, ckpt)
        save_checkpoint(model, data, dataset=tp.Dataset(
            images=np.random.default_rng(0).uniform(0.1, 1.0, (4, 16)), side=4))
        corrupt_checkpoint(ckpt, model, name, value)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--from", "nan"), ("--to", "inf")])
    def test_non_finite_traversal_end_is_exit_2_without_a_file(self, tmp_path, capsys,
                                                               flag, value):
        from conftest import small_model

        model = small_model(0, d=16, L=3, k=2, n=1)
        ckpt, data, out = tmp_path / "m.ckpt", tmp_path / "d.ds", tmp_path / "s.pgm"
        save_checkpoint(model, ckpt)
        save_checkpoint(model, data, dataset=tp.Dataset(
            images=np.random.default_rng(0).uniform(0.1, 1.0, (4, 16)), side=4))
        assert main(["traverse", "--ckpt", str(ckpt), "--data", str(data), "--dim", "1",
                     "--steps", "3", flag, value, "--out", str(out)]) == 2
        name = "s_from" if flag == "--from" else "s_to"
        assert f"{name} must be finite, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("lambda = nan", "sparsity must be finite, got nan"),
        ("lambda = inf", "sparsity must be finite, got inf"),
        ("sigma2 = inf", "noise_var must be finite, got inf"),
    ])
    def test_non_finite_config_is_exit_2_by_name(self, tmp_path, deskaux, capsys, line,
                                                 message):
        _, data = deskaux
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("D = 64\nK = 3\nL = 4\nn = 1\n" + line + "\n")
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(tmp_path / "o.ckpt")])
        assert rc == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("part, message", [
    ("basis", "basis columns not orthonormal (max error inf)"),
    ("dictionary", "dictionary columns not unit norm (error inf)"),
])
def test_huge_finite_entry_is_exit_2_with_only_the_named_message(tmp_path, part,
                                                                 message):
    # a flipped high exponent bit makes the first entry huge: the norms of
    # the orthonormality or unit-norm check overflow to inf, which the check
    # names, and numpy must not warn about it first
    from conftest import small_model

    model = small_model(0, d=16, L=3, k=2, n=1)
    ckpt, data = tmp_path / "m.ckpt", tmp_path / "d.ds"
    save_checkpoint(model, ckpt)
    save_checkpoint(model, data, dataset=tp.Dataset(
        images=np.random.default_rng(0).uniform(0.1, 1.0, (4, 16)), side=4))
    at = 32 + 4 * model.freq.L * model.freq.n
    if part == "dictionary":
        at += 8 * model.basis.size
    blob = bytearray(ckpt.read_bytes())
    blob[at : at + 8] = struct.pack("<d", 1e300)
    ckpt.write_bytes(bytes(blob))
    src = str(Path(tp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(
        [sys.executable, "-c", "from torusparse.cli import entry; entry()",
         "eval", "--ckpt", str(ckpt), "--data", str(data)],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 2
    assert run.stderr == f"error: {message}\n"


class TestDefaultThreads:
    ARGS = ["eval", "--ckpt", "m", "--data", "d"]

    def test_one_thread_unless_blas_is_pinned(self, monkeypatch):
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert _build_parser().parse_args(self.ARGS).threads == 1
        assert _build_parser().parse_args(["--threads", "3"] + self.ARGS).threads == 3

    @pytest.mark.parametrize("name", BLAS_THREAD_VARIABLES)
    def test_one_per_core_when_blas_is_pinned_to_one(self, monkeypatch, name):
        for other in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(other, raising=False)
        monkeypatch.setenv(name, "1")
        assert _build_parser().parse_args(self.ARGS).threads == (os.cpu_count() or 1)
        assert _build_parser().parse_args(["--threads", "3"] + self.ARGS).threads == 3


class TestPipeline:
    def test_train_eval_reconstruct_traverse_export(self, tmp_path, deskaux,
                                                    capsys):
        cfg, data = deskaux
        ckpt = tmp_path / "model.ckpt"
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(ckpt)])
        assert rc == 0
        assert (tmp_path / "model.ckpt.log").exists()
        capsys.readouterr()

        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
        assert rc == 0
        trained_snr = float(capsys.readouterr().out.split("snr=")[1])

        # a fresh random model must score strictly worse
        fresh = tmp_path / "fresh.ckpt"
        rc = main(["train", "--config", str(cfg), "--data", str(data),
                   "--out", str(fresh), "--epochs", "0"])
        assert rc == 2  # zero epochs is a validation error
        cfg0 = tp.parse_config(cfg)
        save_checkpoint(tp.init_model(cfg0, cfg0.seed), fresh,
                        n_grid=cfg0.grid_size)
        rc = main(["eval", "--ckpt", str(fresh), "--data", str(data)])
        assert rc == 0
        fresh_snr = float(capsys.readouterr().out.split("snr=")[1])
        assert trained_snr > fresh_snr

        out = tmp_path / "recon.pgm"
        rc = main(["reconstruct", "--ckpt", str(ckpt), "--data", str(data),
                   "--take", "4", "--out", str(out)])
        assert rc == 0
        header = out.read_bytes().split(b"\n", 3)
        assert header[0] == b"P5"
        width, height = (int(t) for t in header[1].split())
        assert (height, width) == (2 * 8 + 1, 4 * 8 + 3)

        out = tmp_path / "sweep.pgm"
        rc = main(["traverse", "--ckpt", str(ckpt), "--data", str(data),
                   "--dim", "1", "--from", "-3.14", "--to", "3.14",
                   "--steps", "6", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes().startswith(b"P5")

        out = tmp_path / "basis.pgm"
        rc = main(["export-w", "--ckpt", str(ckpt), "--cols", "4",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_bytes().startswith(b"P5")

    def test_baseline_train_and_eval(self, tmp_path, deskaux, capsys):
        cfg, data = deskaux
        ckpt = tmp_path / "baseline.ckpt"
        rc = main(["baseline-train", "--config", str(cfg), "--data", str(data),
                   "--out", str(ckpt), "--epochs", "2"])
        assert rc == 0
        contents = load_checkpoint_full(ckpt)
        assert contents.model.basis.shape == (64, 64)
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
        assert rc == 0
        assert "snr=" in capsys.readouterr().out

    def test_config_data_dimension_mismatch(self, tmp_path, deskaux):
        cfg, data = deskaux
        bad_cfg = tmp_path / "bad.cfg"
        bad_cfg.write_text("D = 100\nK = 3\nL = 4\nn = 1\n")
        rc = main(["train", "--config", str(bad_cfg), "--data", str(data),
                   "--out", str(tmp_path / "o.ckpt")])
        assert rc == 2

    def test_threaded_training_reproducible(self, tmp_path, deskaux):
        cfg, data = deskaux
        blobs = []
        for name in ("t1.ckpt", "t2.ckpt"):
            out = tmp_path / name
            rc = main(["--threads", "2", "train", "--config", str(cfg),
                       "--data", str(data), "--out", str(out), "--epochs", "2"])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestOutputsEqualTheLibrary:
    """The CLI's files against the library calls they stand for, with the
    tiles laid out one at a time: images then their reconstructions, the
    sweep image-major, the basis columns in order."""

    @pytest.fixture
    def trained(self, tmp_path, deskaux):
        cfg, data = deskaux
        ckpt = tmp_path / "model.ckpt"
        assert main(["--threads", "1", "train", "--config", str(cfg), "--data", str(data),
                     "--out", str(ckpt), "--epochs", "1"]) == 0
        return ckpt, data, load_checkpoint_full(ckpt).model, load_checkpoint_full(data).dataset

    def test_reconstruct(self, tmp_path, trained):
        ckpt, data, model, dataset = trained
        out = tmp_path / "cli.pgm"
        assert main(["--threads", "1", "reconstruct", "--ckpt", str(ckpt), "--data",
                     str(data), "--take", "3", "--out", str(out)]) == 0
        images = tp.normalize_batch(dataset.images[:3])
        recons = tp.reconstruct_batch(
            images, model, tp.TrainConfig(noise_var=model.noise_var,
                                          sparsity=model.sparsity), threads=1)
        side = dataset.side
        tiles = [im.reshape(side, side) for im in images]
        tiles += [r.image_hat.reshape(side, side) for r in recons]
        tp.export_grid(tiles, cols=3, path=tmp_path / "lib.pgm")
        assert out.read_bytes() == (tmp_path / "lib.pgm").read_bytes()

    def test_traverse(self, tmp_path, trained):
        ckpt, data, model, dataset = trained
        out = tmp_path / "cli.pgm"
        assert main(["traverse", "--ckpt", str(ckpt), "--data", str(data), "--dim", "1",
                     "--steps", "4", "--out", str(out)]) == 0
        sweep = tp.latent_traversal(model, tp.normalize_batch(dataset.images[:5]), 1,
                                    -math.pi, math.pi, 4)
        side = dataset.side
        tiles = [sweep[i, j].reshape(side, side)
                 for i in range(sweep.shape[0]) for j in range(sweep.shape[1])]
        assert len(tiles) == 20
        tp.export_grid(tiles, cols=4, path=tmp_path / "lib.pgm")
        assert out.read_bytes() == (tmp_path / "lib.pgm").read_bytes()

    def test_export_w(self, tmp_path, trained):
        ckpt, _, model, dataset = trained
        out = tmp_path / "cli.pgm"
        assert main(["export-w", "--ckpt", str(ckpt), "--cols", "3", "--out", str(out)]) == 0
        side = dataset.side
        tiles = [model.basis[:, j].reshape(side, side) for j in range(model.basis.shape[1])]
        tp.export_grid(tiles, cols=3, path=tmp_path / "lib.pgm")
        assert out.read_bytes() == (tmp_path / "lib.pgm").read_bytes()

    @pytest.mark.parametrize("kind, flags, ranges, cyclic", [
        ("translate2d", [], datasets.TRANSLATE_DEFAULT, False),
        ("rotscale", [], datasets.ROTSCALE_DEFAULT, False),
        ("translate2d", ["--dx", "-2.5", "3", "--dy", "-1", "0.5"],
         ((-2.5, 3.0), (-1.0, 0.5)), False),
        ("translate2d", ["--dy", "-1", "0.5"], ((-7.0, 7.0), (-1.0, 0.5)), False),
        ("rotscale", ["--theta", "-30", "45", "--scale", "0.6", "1.2"],
         ((math.radians(-30.0), math.radians(45.0)), (0.6, 1.2)), False),
        ("rotscale", ["--scale", "0.6", "1.2"],
         (datasets.ROTSCALE_DEFAULT[0], (0.6, 1.2)), False),
        ("translate2d", ["--cyclic", "--dx", "-4", "4"], ((-4.0, 4.0), (-7.0, 7.0)), True),
        ("rotscale", ["--cyclic"], datasets.ROTSCALE_DEFAULT, False),
    ])
    def test_gen_data(self, tmp_path, templates_idx, kind, flags, ranges, cyclic):
        out = tmp_path / "cli.ds"
        assert main(["gen-data", "--kind", kind, "--templates", str(templates_idx),
                     "--count-per-template", "7", "--seed", "5", "--out", str(out),
                     *flags]) == 0
        loaded = datasets.load_idx_images(templates_idx)
        templates = [img.reshape(loaded.side, loaded.side) for img in loaded.images]
        spec = datasets.TransformSpec(kind, ranges, 7, cyclic=cyclic)
        dataset = datasets.make_synthetic(templates, spec, 5)
        expected = tmp_path / "lib.ds"
        save_checkpoint(_placeholder_model(dataset.images.shape[1]), expected,
                        dataset=dataset)
        assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_fewer_than_one_thread_is_a_usage_error(capsys, value):
    rc = main(["--threads", value, "eval", "--ckpt", "m", "--data", "d"])
    assert rc == 1
    assert "--threads" in capsys.readouterr().err


def test_gen_data_with_zero_by_zero_templates_is_exit_2(tmp_path, capsys):
    templates = tmp_path / "empty.idx"
    templates.write_bytes(struct.pack(">IIII", 0x00000803, 3, 0, 0))
    out = tmp_path / "out.ds"
    rc = main(["gen-data", "--kind", "rotscale", "--templates", str(templates),
               "--count-per-template", "2", "--seed", "0", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: images must be at least 1x1, got 0x0\n"
    assert not out.exists()
