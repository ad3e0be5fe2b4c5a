"""Self-tests of the benchmark: fault injection, digests, tracer bookkeeping.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
from adapters import Dilated, Image2d, Strided  # noqa: E402
from tracer import patched_names  # noqa: E402

SMALL = {
    "dilated": harness.Workload(lambda: Dilated(1, 3, 4), 2, 4, 32, 8),
    "strided": harness.Workload(lambda: Strided(("down2", "down2", "up2", "up2"), 4), 1, 4, 32, 8),
    "image2d": harness.Workload(lambda: Image2d(8, 2, 4, True), 2, 0, 64, 16),
}


def measure(wl, seed=3, seconds=0.05, trace=False, adapter=None):
    adapter = adapter or wl.make()
    r = harness.measure(adapter, wl, seed, seconds, trace)
    return adapter, r


@pytest.mark.parametrize("family", sorted(SMALL))
def test_clean_run_passes_every_check(family):
    adapter, r = measure(SMALL[family])
    attempted, failed, notes = harness.verify(adapter, r)
    assert attempted == len(r.episodes) * SMALL[family].batch
    assert failed == 0, notes


def test_one_flipped_output_bit_is_a_failed_sequence():
    class Flip(Dilated):
        steps = 0

        def step(self, state, xs):
            ys = super().step(state, xs)
            Flip.steps += 1
            if Flip.steps == 20:  # one element, one step, lowest mantissa bit
                ys.view(np.uint32)[1] ^= 1
            return ys

    wl = SMALL["dilated"]
    adapter, r = measure(wl, adapter=Flip(1, 3, 4))
    attempted, failed, notes = harness.verify(adapter, r)
    assert failed == 1 and attempted >= wl.batch, notes


def test_image_oracle_rejects_a_wrong_pixel():
    class Off(Image2d):
        steps = 0

        def step(self, state, xs=None):
            ys = super().step(state, xs).copy()
            Off.steps += 1
            if Off.steps == 30:  # one pixel of one element, well beyond the tolerance
                ys[0] += 1e-3
            return ys

    wl = SMALL["image2d"]
    adapter, r = measure(wl, adapter=Off(8, 2, 4, True))
    _, failed, _ = harness.verify(adapter, r)
    assert failed == 1


def test_schedule_mismatch_fails_the_episode():
    class Extra(Strided):
        def counts(self, state):
            macs, nodes = super().counts(state)
            return macs, nodes + state.engines[0].t // 7  # one extra node every 7th step

    adapter, r = measure(SMALL["strided"], adapter=Extra(("down2", "down2", "up2", "up2"), 4))
    _, failed, notes = harness.verify(adapter, r)
    assert failed == len(r.episodes)
    assert any("schedule" in n for n in notes)


def test_step_that_raises_is_counted_not_crashed():
    class Boom(Dilated):
        def step(self, state, xs):
            if state.engines[0].t == 10:
                raise FloatingPointError("injected")
            return super().step(state, xs)

    wl = SMALL["dilated"]
    adapter, r = measure(wl, adapter=Boom(1, 3, 4))
    attempted, failed, notes = harness.verify(adapter, r)
    assert failed == attempted and "injected" in notes[0]


def test_digest_depends_on_the_seed_alone():
    wl = SMALL["strided"]
    a = harness.digest(measure(wl, seed=5, seconds=0.01)[1])
    b = harness.digest(measure(wl, seed=5, seconds=0.2)[1])
    c = harness.digest(measure(wl, seed=6, seconds=0.01)[1])
    assert a == b != c


@pytest.mark.parametrize("family", sorted(SMALL))
def test_traced_columns_reconcile_with_opcounter(family):
    before = patched_names()
    wl = replace(SMALL[family], steps=SMALL[family].block * 4)
    adapter, r = measure(wl, trace=True, seconds=0.2)
    assert r.traced_nodes > 0
    assert r.tracer.kernel_cols() == r.traced_nodes
    after = patched_names()
    assert all(a[2] is b[2] for a, b in zip(before, after))
    metrics = harness.per_layer(adapter, r, 1e-7)
    assert set(metrics) == set(harness.PER_LAYER)


def test_benchmark_json_declares_the_reported_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert declared == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(harness.WORKLOADS)


def test_result_line(capsys):
    assert run.main(["--workload", "strided-b1", "--seed", "2", "--seconds", "0.05"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(harness.END_TO_END)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dilated-b1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
