"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-paper --seed 1 --seconds 20 --trace 0

This script is single-threaded. It runs the workload's set-up and its
timed region in child processes (bench/workloads.py), and prints one
line per metric and fact, then, as the last line, a JSON object with
the keys correct, attempted, failed and metrics.

--trace 0: set-up runs SETUP_REPEATS times, each in a fresh process and
timed from spawn to exit (setup_s is their median); then one process runs
the timed region untraced and reports the end-to-end metrics. Rates are
the median of the run's per-call rates. Every time and rate is calibrated
by the reference kernel timed next to it (reference.py); the raw medians
are printed beside them.

--trace 1: set-up runs once, traced; the timed region runs untraced and
then traced for the same number of calls. The per-layer metrics pool
the traced set-up and the traced region; trace.overhead_frac is the
traced region's wall time over the untraced one's, minus one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# BLAS thread counts this process and its children run with, set before
# numpy loads. The CLI's default --threads is already one chunk thread per
# core; a multi-threaded BLAS inside each chunk would run more threads than
# cores, and the run would time the scheduler.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
BLAS_ENV_FOUND = {key: os.environ.get(key, "unset") for key in BLAS_ENV}
os.environ.update(BLAS_ENV)

import layers  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402

WORKLOADS = ("train-paper", "eval-fine", "data-io")
SETUP_REPEATS = 7
DEADLINE_S = 170.0

# (JSON name, unit, better); the same set on every workload.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("images_per_s", "1/s", "higher"),
    ("ckpt_read_MB_per_s", "MB/s", "higher"),
    ("ckpt_write_MB_per_s", "MB/s", "higher"),
    ("peak_rss_MB", "MB", "lower"),
]

# The name images_per_s has on each workload in the printed report.
THROUGHPUT_NAME = {"train-paper": "train_images_per_s",
                   "eval-fine": "eval_images_per_s",
                   "data-io": "gen_images_per_s"}


class ChildFailed(Exception):
    pass


class DeadlinePassed(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlinePassed


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S

    def child(self, *argv) -> float:
        """Run workloads.py with argv; returns its wall time from spawn."""
        cmd = [sys.executable, str(HERE / "workloads.py"), *map(str, argv),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--dir", str(self.workdir), "--shape", self.args.shape]
        # A blocking wait ended by an alarm, because Popen.wait(timeout=...)
        # polls in sleeps of up to 50 ms, which would round set-up times.
        signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        try:
            signal.setitimer(signal.ITIMER_REAL,
                             max(1.0, self.deadline - time.monotonic()))
            code = proc.wait()
            elapsed = time.perf_counter() - start
        except DeadlinePassed:
            proc.kill()
            proc.wait()
            raise ChildFailed(f"{argv[0]} ran past the {DEADLINE_S:.0f} s deadline")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if code != 0:
            raise ChildFailed(f"{argv[0]} exited with code {code}")
        return elapsed

    def setup_digest(self) -> str:
        """Hash of every set-up output except the training log, whose
        per-batch timings differ from run to run."""
        digest = hashlib.sha256()
        for path in sorted(self.workdir.glob("*")):
            if path.is_file() and path.suffix != ".log":
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()

    def measure(self, tag: str, trace: bool, calls: int | None = None):
        out = self.workdir / f"{tag}.json"
        argv = ["measure", "--seconds", self.args.seconds, "--out", out]
        if not trace and calls is None:
            argv.append("--calibrate")
        if calls is not None:
            argv += ["--calls", calls]
        if trace:
            argv += ["--trace-out", self.workdir / f"{tag}.trace.json"]
        self.child(*argv)
        result = json.loads(out.read_text())
        if "region_s" not in result:
            raise ChildFailed(f"{tag} measurement raised; its traceback is above")
        record = (json.loads((self.workdir / f"{tag}.trace.json").read_text())
                  if trace else None)
        return result, record


def git_facts() -> dict:
    """SHA and dirtiness of the checkout, when it is a git work tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"git_sha": "not-a-git-checkout", "git_dirty": "unknown"}
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": "unavailable", "git_dirty": "unknown"}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def require(result: dict, name: str, ok: bool) -> None:
    """A whole-run check made by this script; if it fails, every operation
    of the run counts as failed."""
    result["checks"][name] = bool(ok)
    if not ok:
        result["failed"] = result["attempted"]


def run_untraced(runner: Runner, lines: list) -> tuple[dict, dict]:
    reference = Reference()
    reference()  # warm-up
    raw_times, setup_times, digests = [], [], []
    for _ in range(SETUP_REPEATS):
        before = reference()
        raw_times.append(runner.child("setup"))
        kernel_s = (before + reference()) / 2
        setup_times.append(raw_times[-1] / reference.factor(kernel_s))
        digests.append(runner.setup_digest())
    result, _ = runner.measure("measure", trace=False)
    require(result, "setup_outputs_repeat", len(set(digests)) == 1)
    values = {"setup_s": statistics.median(setup_times)}
    lines.append(f"samples setup_s n={len(setup_times)} "
                 f"values={' '.join(f'{t:.4f}' for t in setup_times)} "
                 f"raw_median={statistics.median(raw_times):.4f}")
    q1, med, q3 = result["reference_ms"]
    lines.append(f"reference kernel_ms q1={q1:.4g} median={med:.4g} q3={q3:.4g} "
                 f"nominal={1e3 * NOMINAL_S:.4g}")
    for name in ("images_per_s", "ckpt_read_MB_per_s", "ckpt_write_MB_per_s"):
        stats = result[name]
        values[name] = stats["median"]
        lines.append(f"samples {name} n={stats['n']} best={stats['best']:.6g} "
                     f"q1={stats['q1']:.6g} median={stats['median']:.6g} "
                     f"q3={stats['q3']:.6g} raw_median={stats['raw_median']:.6g}")
    values["peak_rss_MB"] = result["peak_rss_MB"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in END_TO_END}
    return result, metrics


def run_traced(runner: Runner, lines: list) -> tuple[dict, dict]:
    setup_trace = runner.workdir / "setup.trace.json"
    runner.child("setup", "--trace-out", setup_trace)
    plain, _ = runner.measure("plain", trace=False)
    result, record = runner.measure("traced", trace=True, calls=plain["calls"])
    for check, ok in plain["checks"].items():
        require(result, f"untraced_{check}", ok)
    setup_record = json.loads(setup_trace.read_text())
    summary = record["summary"]
    missing = sorted(set(record["missing"]) | set(setup_record["missing"]))
    failed_hooks = sorted(set(record["failed_hooks"]) | set(setup_record["failed_hooks"]))
    overhead = result["region_s"] / plain["region_s"] - 1.0
    coverage = (summary.get("trace.main_self_s", 0.0)
                + summary.get("trace.worker_wall_s", 0.0)) / (
                    result["region_s"] - result["checking_s"])
    if runner.args.workload == "train-paper":
        # The main thread's self times plus the wall its chunk workers
        # cover must account for the region, up to the tracing overhead.
        require(result, "trace_self_time_accounts_for_wall",
                abs(1.0 - coverage) <= max(abs(overhead), 0.02))
    trace_metrics = {"trace.overhead_frac": overhead,
                     "trace.main_self_coverage": coverage,
                     "trace.missing_spans": len(missing),
                     "trace.failed_hooks": len(failed_hooks)}
    lines.append(f"trace region_s untraced={plain['region_s']:.6g} "
                 f"traced={result['region_s']:.6g} calls={result['calls']}")
    lines.append(f"trace missing {' '.join(missing) or '-'}")
    lines.append(f"trace failed_hooks {' '.join(failed_hooks) or '-'}")
    pooled = layers.merge([summary, setup_record["summary"]])
    return result, layers.per_layer(pooled, trace_metrics)


def report(args, result: dict, metrics: dict, lines: list) -> dict:
    checks = result.get("checks", {})
    attempted = int(result.get("attempted", 1))
    failed = int(result.get("failed", attempted))
    correct = failed == 0 and bool(checks) and all(checks.values())
    out = [f"workload {args.workload} seed {args.seed} trace {int(args.trace)} "
           f"seconds {args.seconds}"]
    found = {f"{key}_found": value for key, value in BLAS_ENV_FOUND.items()}
    facts = {**result.get("facts", {}), **found, **git_facts()}
    out += [f"fact {key} {value}" for key, value in facts.items()]
    out += lines
    for name, metric in metrics.items():
        label = THROUGHPUT_NAME[args.workload] if name == "images_per_s" else name
        out.append(f"metric {label} {metric['value']!r} {metric['unit']}")
    for name, value in result.get("quality", {}).items():
        out.append(f"metric {name} {value!r} ratio")
    out.append(f"metric error_rate {failed / attempted!r} ratio")
    for name, value in result.get("determinism", {}).items():
        out.append(f"determinism {name} {value}")
    out += [f"check {name} {'ok' if ok else 'FAIL'}" for name, ok in checks.items()]
    print("\n".join(out))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("paper", "toy"), default="paper",
                        help="toy shrinks every array, for smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "torusparse" / "__init__.py").is_file():
        print(f"error: no torusparse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(args, workdir)
    lines: list[str] = []
    try:
        if args.trace:
            result, metrics = run_traced(runner, lines)
        else:
            result, metrics = run_untraced(runner, lines)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        result = {"checks": {"children_completed": False}}
        names = layers.PER_LAYER if args.trace else END_TO_END
        metrics = {name: {"value": 0.0, "unit": unit} for name, unit, _ in names}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    summary = report(args, result, metrics, lines)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
