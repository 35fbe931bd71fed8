"""Tests of the benchmark itself: metric names, span arithmetic, grid-table
identity, robustness to missing functions, and toy-shape smoke runs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, union_length  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_are_well_formed():
    entries = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    names = [e["name"] for e in entries]
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.match(e["unit"]) for e in SPEC["end_to_end"] + SPEC["per_layer"])


def test_spec_matches_what_the_benchmark_prints():
    assert [(e["name"], e["unit"], e["better"]) for e in SPEC["end_to_end"]] == \
        run.END_TO_END
    assert [(e["name"], e["unit"], e["better"]) for e in SPEC["per_layer"]] == \
        layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_with_threaded_children():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    tracer.install([])
    try:
        now[0] = 0.0
        root = tracer.open("root")

        def worker(t_open, t_inner, t_close):
            now[0] = t_open
            outer = tracer.open("chunk")
            now[0] = t_inner
            inner = tracer.open("kernel")
            now[0] = t_close - 0.5
            tracer.close(inner)
            now[0] = t_close
            tracer.close(outer)

        # Two chunk threads cover [1, 4] and [2, 6]; the fake clock lets
        # them run one after the other while their spans overlap.
        for args in ((1.0, 2.0, 4.0), (2.0, 3.0, 6.0)):
            thread = threading.Thread(target=worker, args=args)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        now[0] = 7.0
        inner = tracer.open("same-thread")
        now[0] = 8.0
        tracer.close(inner)
        now[0] = 10.0
        tracer.close(root)
    finally:
        tracer.uninstall()

    parents = {s.name: s.parent for s in tracer.spans}
    assert parents["chunk"] == root
    assert parents["same-thread"] == root
    s = tracer.summarize()
    assert s["root.self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert s["chunk.busy_s"] == pytest.approx(3.0 + 4.0)
    assert s["chunk.wall_s"] == pytest.approx(5.0)
    assert s["chunk.self_s"] == pytest.approx((3.0 - 1.5) + (4.0 - 2.5))
    assert s["kernel.busy_s"] == pytest.approx(1.5 + 2.5)
    # Main-thread self time plus the wall the workers cover is the root span.
    assert s["trace.main_self_s"] + s["trace.worker_wall_s"] == pytest.approx(10.0)


class _Freq:
    def __init__(self, key):
        self.key = key

    def cache_key(self):
        return self.key


def test_grid_table_misses_are_detected_by_identity():
    tracer = Tracer()
    hook = layers._TableIdentity()
    name = "posterior.grid_tables"
    import numpy as np

    tables = (np.zeros(4), np.zeros(4))
    equal_copy = (np.zeros(4), np.zeros(4))
    hook(tracer, name, (_Freq(("a",)), 5), {}, tables)
    hook(tracer, name, (_Freq(("a",)), 5), {}, tables)
    assert tracer.counters[f"{name}.misses"] == 1
    hook(tracer, name, (_Freq(("a",)), 5), {}, equal_copy)
    assert tracer.counters[f"{name}.misses"] == 2
    hook(tracer, name, (_Freq(("a",)), 6), {}, equal_copy)
    assert tracer.counters[f"{name}.misses"] == 3
    assert tracer.counters[f"{name}.table_bytes"] == 3 * 2 * 32


def test_traced_grid_tables_count_one_miss_per_key():
    from torusparse import posterior
    from torusparse.torus import frequency_table_auto

    freq = frequency_table_auto(2, 5, 1, True)
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        for _ in range(3):
            posterior.grid_tables(freq, 7)
    finally:
        tracer.uninstall()
    s = layers.per_layer(tracer.summarize(), {})
    assert s["posterior.grid_tables.calls"]["value"] == 3
    assert s["posterior.grid_tables.misses"]["value"] <= 1
    assert s["posterior.grid_tables.hit_ratio"]["value"] >= 2 / 3
    assert not hasattr(posterior.grid_tables, "__wrapped__")


def test_missing_function_and_failing_hook_do_not_fail_the_run():
    def broken_hook(*_):
        raise KeyError("result changed shape")

    tracer = Tracer()
    tracer.install([
        ("torusparse.posterior", "no_such_function", "posterior.gone", None),
        ("no_such_module", "f", "nowhere.f", None),
        ("torusparse.torus", "wrap_angles", "torus.wrap_angles", broken_hook),
    ])
    try:
        from torusparse import torus

        torus.wrap_angles(1.0)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["nowhere.f", "posterior.gone"]
    assert tracer.failed_hooks == {"torus.wrap_angles"}
    assert tracer.summarize()["torus.wrap_angles.calls"] == 1


@pytest.mark.parametrize("calibrate", [False, True])
def test_rates_are_scaled_by_the_kernel_time_of_their_own_call(calibrate):
    import workloads
    from reference import NOMINAL_S

    run_ = workloads.Run(None, None, 0, 0.0, None, None, 1, calibrate)
    rates = workloads.Rates(run_)
    # Two calls on a host at half speed, then one at nominal speed.
    for rate, kernel_s in ((100.0, 2 * NOMINAL_S), (100.0, 2 * NOMINAL_S),
                           (200.0, NOMINAL_S)):
        rates.add(rate)
        run_.reference_s.append(kernel_s)
    stats = rates.stats()
    assert stats["raw_median"] == pytest.approx(100.0)
    assert stats["median"] == pytest.approx(200.0 if calibrate else 100.0)
    assert stats["n"] == 3


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_toy_shape_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "4", "--seconds", "0.5",
                "--trace", str(trace), "--shape", "toy")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.missing_spans"]["value"] == 0
        assert result["metrics"]["trace.failed_hooks"]["value"] == 0


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "data-io", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
