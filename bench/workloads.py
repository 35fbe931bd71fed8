"""Benchmark workloads; run.py starts this file in a child process.

    workloads.py setup   --workload W --seed S --dir DIR [--shape toy] [--trace-out F]
    workloads.py measure --workload W --seed S --dir DIR --seconds X --out F
                         [--calls N] [--trace-out F] [--calibrate] [--shape toy]

``setup`` writes the inputs that the workload seed determines (IDX
templates, config, datasets and, for eval-fine, a trained checkpoint)
into DIR. ``measure`` runs the timed region on those files through the
program's public entry points, checks every output and writes a JSON
result to F. With ``--trace-out`` the calls into each layer are traced
and the trace summary is written there. With ``--calibrate`` every rate is
scaled by the reference kernel timed next to its call (reference.py).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as _io
import json
import math
import os
import platform
import resource
import statistics
import struct
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from torusparse import cli, io  # noqa: E402
from torusparse.evaluate import reconstruct_batch, snr  # noqa: E402
from torusparse.datasets import normalize_batch  # noqa: E402
from torusparse.training import TrainConfig, init_model  # noqa: E402

import layers  # noqa: E402
from reference import Reference  # noqa: E402
from spans import Tracer  # noqa: E402

N_TEMPLATES = 10

# Paper shape: D=784 (28x28), K=10, L=128, n=2, N=50, B=100, T=20. The toy
# shape keeps every code path and only shrinks the arrays, for smoke tests.
# *_per_template counts images per template in each generated dataset;
# *round_trip_block counts the checkpoint loads (and saves) one sample times.
SHAPES = {
    "paper": dict(side=28, K=10, L=128, n=2, N=50, B=100, T=20,
                  train_per_template=20, heldout_per_template=10,
                  eval_per_template=10, gen_per_template=100, round_trip_block=16,
                  gen_round_trip_block=6),
    "toy": dict(side=8, K=3, L=4, n=2, N=8, B=10, T=5,
                train_per_template=4, heldout_per_template=2,
                eval_per_template=2, gen_per_template=4, round_trip_block=1,
                gen_round_trip_block=1),
}

# The code start alpha0 is 0.1, not the library default 0.01: at the paper
# shape with lambda=1 the default start leaves every code at zero from the
# first batch on some template seeds (a dead start), after which nothing
# trains and the held-out check against the untrained model cannot pass.
CONFIG = """\
D = {D}
K = {K}
L = {L}
n = {n}
N = {N}
B = {B}
T = {T}
grad_mode = approximate
lambda = 1.0
lr_w = 0.1
alpha0 = 0.1
epochs = 1
seed = 1
"""


# -- inputs ---------------------------------------------------------------

def make_templates(seed: int, side: int) -> np.ndarray:
    """Ten smooth positive blob templates in [0, 1], drawn from the seed."""
    rng = np.random.default_rng([seed, 107])
    rr, cc = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    margin = max(1, side // 7)
    out = np.empty((N_TEMPLATES, side, side))
    for k in range(N_TEMPLATES):
        blob = np.zeros((side, side))
        for _ in range(6):
            r0, c0 = rng.integers(margin, side - margin, 2)
            blob += rng.uniform(0.3, 1.0) * np.exp(
                -((rr - r0) ** 2 + (cc - c0) ** 2) / rng.uniform(4, 16))
        out[k] = blob / blob.max()
    return out


def write_idx(path: Path, templates: np.ndarray) -> None:
    pixels = np.rint(templates * 255).astype(np.uint8)
    with open(path, "wb") as handle:
        handle.write(struct.pack(">IIII", 0x00000803, *pixels.shape))
        handle.write(pixels.tobytes())


class Files:
    """Paths of a workload's inputs and outputs inside its directory."""

    def __init__(self, root: Path):
        self.root = root
        self.templates = root / "templates.idx"
        self.config = root / "config.txt"
        self.train_data = root / "train.ds"
        self.heldout = root / "heldout.ds"
        self.eval_ckpt = root / "eval.ckpt"
        self.out = root / "out"


def run_cli(argv) -> tuple[int, str]:
    """Call the CLI in-process through the module attribute; capture stdout."""
    buffer = _io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main([str(a) for a in argv])
    return code, buffer.getvalue()


def checked_cli(argv) -> None:
    code, _ = run_cli(argv)
    if code != 0:
        raise RuntimeError(f"torusparse {' '.join(map(str, argv))} exited {code}")


def gen_data_argv(files: Files, kind: str, per_template: int, seed: int, out: Path):
    return ["gen-data", "--kind", kind, "--templates", files.templates,
            "--count-per-template", per_template, "--seed", seed, "--out", out]


def setup(workload: str, seed: int, shape: dict, files: Files) -> None:
    files.root.mkdir(parents=True, exist_ok=True)
    files.out.mkdir(exist_ok=True)
    write_idx(files.templates, make_templates(seed, shape["side"]))
    files.config.write_text(CONFIG.format(D=shape["side"] ** 2, **shape))
    if workload == "data-io":
        return
    train_seed, heldout_seed = 2 * seed, 2 * seed + 1
    per_heldout = shape["eval_per_template" if workload == "eval-fine"
                        else "heldout_per_template"]
    for per_template, gen_seed, out in (
        (shape["train_per_template"], train_seed, files.train_data),
        (per_heldout, heldout_seed, files.heldout),
    ):
        checked_cli(gen_data_argv(files, "translate2d", per_template, gen_seed, out))
    if workload == "eval-fine":
        checked_cli(["train", "--config", files.config, "--data", files.train_data,
                     "--out", files.eval_ckpt])


# -- measurement ----------------------------------------------------------

class Ledger:
    """Operations attempted and failed, plus named checks.

    A failed per-operation check fails only the operations it covers; a
    failed whole-run check (``require``) fails every operation, because
    the outputs it vouches for are wrong.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.run_failed = False

    def ops(self, count: int, ok: bool) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    def check(self, name: str, ok) -> bool:
        ok = bool(ok)
        self.checks[name] = self.checks.get(name, True) and ok
        return ok

    def require(self, name: str, ok) -> bool:
        ok = self.check(name, ok)
        self.run_failed |= not ok
        return ok

    def totals(self) -> tuple[int, int]:
        attempted = max(self.attempted, 1)
        return attempted, attempted if self.run_failed else self.failed


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quartiles(values) -> tuple[float, float, float]:
    values = list(values)
    if len(values) >= 2:
        return tuple(statistics.quantiles(values, n=4))
    value = values[0] if values else 0.0
    return value, value, value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_calls(step, seconds: float, calls: int | None):
    """Run step() until ``seconds`` have passed (at least 3 times), or
    exactly ``calls`` times; returns (region wall time, steps run)."""
    start = time.perf_counter()
    done = 0
    while (done < calls) if calls is not None else (
            done < 3 or time.perf_counter() - start < seconds):
        step()
        done += 1
    return time.perf_counter() - start, done


class Run:
    """What one measurement needs: inputs, run length, tracer, ledger and,
    when calibrating, the reference kernel (reference.py)."""

    def __init__(self, files, shape, seed, seconds, calls, tracer, threads,
                 calibrate):
        self.files = files
        self.shape = shape
        self.seed = seed
        self.seconds = seconds
        self.calls = calls
        self.tracer = tracer
        self.threads = threads
        self.ledger = Ledger()
        self.reference = Reference() if calibrate else None
        self.reference_s: list[float] = []  # one kernel time per workload call
        self.checking_s = 0.0

    @contextlib.contextmanager
    def checking(self):
        """Time spent checking outputs inside the timed region. No span
        covers it, so the traced run leaves it out of the wall time that the
        spans must account for."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.checking_s += time.perf_counter() - start

    def region(self, step) -> dict:
        """The timed region; the tracer, if any, is installed only here.
        When calibrating, the reference kernel runs right before and right
        after each call, and the call's kernel time is their mean."""
        def bracketed():
            before = self.reference()
            step()
            self.reference_s.append((before + self.reference()) / 2)

        if self.reference is not None:
            self.reference()  # warm-up
        if self.tracer is not None:
            self.tracer.install(layers.targets())
        try:
            region_s, calls = timed_calls(
                step if self.reference is None else bracketed, self.seconds, self.calls)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        return {"region_s": region_s, "calls": calls, "peak_rss_MB": peak_rss_mb(),
                "checking_s": self.checking_s,
                "reference_ms": [1e3 * q for q in quartiles(self.reference_s)]}


class Rates:
    """Per-call rates of one kind, each tied to the workload call it was
    measured in, so that it can be calibrated by that call's kernel time."""

    def __init__(self, run: Run):
        self.run = run
        self.raw: list[float] = []
        self.call: list[int] = []

    def add(self, rate: float) -> None:
        self.raw.append(rate)
        self.call.append(len(self.run.reference_s))

    def stats(self) -> dict:
        """Median, quartiles and best (highest) of the calibrated rates, and
        the median of the raw ones; without a kernel the two are the same."""
        reference, kernel_s = self.run.reference, self.run.reference_s
        calibrated = self.raw if reference is None else [
            rate * reference.factor(kernel_s[i]) for rate, i in zip(self.raw, self.call)]
        q1, med, q3 = quartiles(calibrated)
        return {"best": max(calibrated, default=0.0), "median": med, "q1": q1,
                "q3": q3, "n": len(calibrated), "raw_median": quartiles(self.raw)[1]}


def fresh(path: Path) -> Path:
    """Remove path, so that the next write creates a new file. Rewriting a
    file in place can wait for the kernel to finish writing its old pages
    back to disk, which added up to a third to the time of a save."""
    path.unlink(missing_ok=True)
    return path


def round_trip(run: Run, src: Path, dst: Path, repeats: int):
    """Time ``repeats`` load_checkpoint_full(src) calls in a row, then as
    many save_checkpoint calls of what was read, each to a new file next to
    dst, and check each copy is byte-identical to src. One sample times a
    block of calls, so that it spans tens of milliseconds rather than a
    few. Returns (read MB/s, write MB/s, contents), the rates None if a
    copy differs."""
    size_mb = repeats * src.stat().st_size / 1e6
    copies = [fresh(dst.with_name(f"{dst.stem}.{i}{dst.suffix}")) for i in range(repeats)]
    t0 = time.perf_counter()
    for _ in range(repeats):
        contents = io.load_checkpoint_full(src)
    t1 = time.perf_counter()
    for copy in copies:
        io.save_checkpoint(contents.model, copy, n_grid=contents.n_grid,
                           dataset=contents.dataset)
    t2 = time.perf_counter()
    with run.checking():
        original = src.read_bytes()
        ok = run.ledger.check("round_trip_byte_identical",
                              all(copy.read_bytes() == original for copy in copies))
        for copy in copies:
            copy.unlink()
    run.ledger.ops(repeats, ok)
    if not ok:
        return None, None, contents
    return size_mb / (t1 - t0), size_mb / (t2 - t1), contents


class RoundTrips:
    """Checkpoint round trips spread over the timed region, one block per
    workload call."""

    def __init__(self, run: Run, src: Path):
        self.run, self.src = run, src
        self.reads, self.writes = Rates(run), Rates(run)

    def __call__(self) -> None:
        run = self.run
        read, write, _ = round_trip(run, self.src, run.files.out / "round_trip.ckpt",
                                    run.shape["round_trip_block"])
        if read is not None:
            self.reads.add(read)
            self.writes.add(write)

    def stats(self) -> dict:
        return {"ckpt_read_MB_per_s": self.reads.stats(),
                "ckpt_write_MB_per_s": self.writes.stats()}


def heldout_snr(ckpt: Path, heldout: Path, threads: int) -> float:
    """Pooled SNR of a checkpoint on held-out images, computed as `eval`
    computes it but kept at full precision."""
    model = io.load_checkpoint_full(ckpt).model
    images = normalize_batch(io.load_checkpoint_full(heldout).dataset.images)
    cfg = TrainConfig(noise_var=model.noise_var, sparsity=model.sparsity)
    return snr(images, reconstruct_batch(images, model, cfg, threads=threads))


def untrained_checkpoint(files: Files) -> Path:
    """The model `train` starts from, for the held-out comparisons."""
    cfg = io.parse_config(files.config)
    path = files.out / "untrained.ckpt"
    io.save_checkpoint(init_model(cfg, cfg.seed), path, n_grid=cfg.grid_size)
    return path


def measure_train(run: Run) -> dict:
    files, ledger = run.files, run.ledger
    ckpt = files.out / "trained.ckpt"
    argv = ["train", "--config", files.config, "--data", files.train_data,
            "--out", ckpt]
    images = N_TEMPLATES * run.shape["train_per_template"]
    batches = math.ceil(images / run.shape["B"])
    rates, hashes = Rates(run), []
    round_trips = RoundTrips(run, ckpt)

    def step():
        fresh(ckpt)
        t0 = time.perf_counter()
        code, _ = run_cli(argv)
        elapsed = time.perf_counter() - t0
        ok = ledger.check("train_exit_0", code == 0)
        ledger.ops(batches, ok)
        if ok:
            rates.add(images / elapsed)
            with run.checking():
                hashes.append(sha256(ckpt))
            round_trips()

    result = run.region(step)
    result["images_per_s"] = rates.stats()
    result.update(round_trips.stats())
    ledger.require("train_checkpoint_hash_repeats", len(set(hashes)) == 1)
    io.load_checkpoint_full(ckpt)  # raises on a broken invariant
    trained = heldout_snr(ckpt, files.heldout, run.threads)
    untrained = heldout_snr(untrained_checkpoint(files), files.heldout, run.threads)
    ledger.require("train_heldout_snr_finite", math.isfinite(trained))
    ledger.require("train_heldout_snr_beats_untrained", trained > untrained)
    result["determinism"] = {"checkpoint_sha256": hashes[0] if hashes else "",
                             "train_heldout_snr": repr(trained),
                             "untrained_heldout_snr": repr(untrained)}
    result["quality"] = {"train_heldout_snr": trained}
    return result


def parse_snr(text: str) -> float:
    for line in text.splitlines():
        if line.startswith("snr="):
            return float(line[4:])
    raise ValueError(f"no snr= line in {text!r}")


def eval_snr(argv, ledger: Ledger):
    """Run `eval`; the printed snr, or None if the call or a check failed."""
    code, text = run_cli(argv)
    if not ledger.check("eval_exit_0", code == 0):
        return None
    try:
        value = parse_snr(text)
    except ValueError:
        ledger.check("eval_snr_parses", False)
        return None
    return value if ledger.check("eval_snr_finite", math.isfinite(value)) else None


def measure_eval(run: Run) -> dict:
    files, ledger = run.files, run.ledger
    argv = ["eval", "--ckpt", files.eval_ckpt, "--data", files.heldout]
    images = N_TEMPLATES * run.shape["eval_per_template"]
    rates, values = Rates(run), []
    round_trips = RoundTrips(run, files.eval_ckpt)

    def step():
        t0 = time.perf_counter()
        value = eval_snr(argv, ledger)
        elapsed = time.perf_counter() - t0
        ledger.ops(images, value is not None)
        if value is not None:
            rates.add(images / elapsed)
            values.append(value)
        round_trips()

    result = run.region(step)
    result["images_per_s"] = rates.stats()
    result.update(round_trips.stats())
    ledger.require("eval_snr_repeats", len(set(values)) == 1)
    untrained = eval_snr(["eval", "--ckpt", untrained_checkpoint(files),
                          "--data", files.heldout], ledger)
    ledger.require("eval_snr_beats_untrained",
                   bool(values) and untrained is not None and values[0] > untrained)
    result["determinism"] = {"eval_checkpoint_sha256": sha256(files.eval_ckpt),
                             "eval_snr": repr(values[0]) if values else "",
                             "untrained_eval_snr": repr(untrained)}
    result["quality"] = {"eval_snr": values[0] if values else float("nan")}
    return result


def measure_data_io(run: Run) -> dict:
    files, ledger = run.files, run.ledger
    generated = files.out / "gen.ds"
    copy = files.out / "gen_round_trip.ds"
    per_template = run.shape["gen_per_template"]
    images = N_TEMPLATES * per_template
    gen_rates, reads, writes, hashes = Rates(run), Rates(run), Rates(run), []

    def step():
        fresh(generated)
        t0 = time.perf_counter()
        code, _ = run_cli(gen_data_argv(files, "rotscale", per_template, 2 * run.seed,
                                        generated))
        elapsed = time.perf_counter() - t0
        if not ledger.check("gen_data_exit_0", code == 0):
            ledger.ops(images, False)
            return
        read, write, contents = round_trip(run, generated, copy,
                                           run.shape["gen_round_trip_block"])
        pixels = contents.dataset.images
        ok = ledger.check("gen_data_image_count", pixels.shape[0] == images)
        ok &= ledger.check("gen_data_values_in_0_1",
                           np.all((pixels >= 0.0) & (pixels <= 1.0)))
        ledger.ops(images, ok)
        gen_rates.add(images / elapsed)
        if read is not None:
            reads.add(read)
            writes.add(write)
        with run.checking():
            hashes.append(sha256(generated))

    result = run.region(step)
    ledger.require("gen_data_hash_repeats", len(set(hashes)) == 1)
    result.update(images_per_s=gen_rates.stats(),
                  ckpt_read_MB_per_s=reads.stats(),
                  ckpt_write_MB_per_s=writes.stats(),
                  determinism={"gen_data_sha256": hashes[0] if hashes else ""})
    return result


MEASURES = {"train-paper": measure_train, "eval-fine": measure_eval,
            "data-io": measure_data_io}


def machine_facts(threads: int) -> dict:
    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(KeyError, TypeError, ValueError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cli_threads": threads,
    }


def trace_record(tracer: Tracer) -> dict:
    return {"summary": tracer.summarize(), "missing": tracer.missing,
            "failed_hooks": sorted(tracer.failed_hooks)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=tuple(MEASURES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--shape", choices=tuple(SHAPES), default="paper")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--calls", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--calibrate", action="store_true",
                        help="scale the rates by the reference kernel (reference.py)")
    args = parser.parse_args(argv)
    shape = SHAPES[args.shape]
    files = Files(args.dir)
    tracer = Tracer() if args.trace_out else None

    if args.mode == "setup":
        if tracer is not None:
            tracer.install(layers.targets())
        try:
            setup(args.workload, args.seed, shape, files)
        finally:
            if tracer is not None:
                tracer.uninstall()
                args.trace_out.write_text(json.dumps(trace_record(tracer)))
        return 0

    # The thread count `train` and `eval` resolve when --threads is not given.
    try:
        threads = cli._build_parser().parse_args(
            ["eval", "--ckpt", "-", "--data", "-"]).threads
    except AttributeError:
        threads = os.cpu_count() or 1
    run = Run(files, shape, args.seed, args.seconds, args.calls, tracer, threads,
              args.calibrate)
    result = {"facts": machine_facts(threads)}
    try:
        result.update(MEASURES[args.workload](run))
    except Exception:
        # Report the failure as a failed run rather than a missing result.
        traceback.print_exc()
        run.ledger.require("measure_completed", False)
    attempted, failed = run.ledger.totals()
    result.update(attempted=attempted, failed=failed, checks=run.ledger.checks)
    if tracer is not None:
        args.trace_out.write_text(json.dumps(trace_record(tracer)))
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
