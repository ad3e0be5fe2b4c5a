"""Workloads, the timed rollout, the correctness checks and the metrics.

A run sets up an engine (timed SETUP_REPS times), feeds a seeded prime
untimed, then times every generated step in blocks, with a reference-probe
block between consecutive blocks.  Each step is divided by the median of
the four probe blocks nearest its block, two on either side.  The run
stops at the first block boundary after the deadline, but never before its
first episode is complete, so the first episode's outputs (and their
digest) depend on the seed alone.  Every generated sequence is then checked
against a full-sequence oracle, outside the timed window.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from adapters import Dilated, Image2d, Strided
from probe import Probe
from tracer import Tracer, patched_names, span_cost

SETUP_REPS = 5
# setup_s is the set-up time in probe units times this nominal probe pass.
# Raw set-up times moved 44% between two sets of ten runs on a shared 2-core
# VM whose cores switch speed; the probe ran 80-160 us there.
REF_PROBE_S = 100e-6

# name -> unit; the result line carries exactly these (see BENCHMARK.json)
END_TO_END = {
    "throughput_ref": "samples/probe",
    "step_ref_p50": "probe",
    "step_ref_p99": "probe",
    "setup_s": "s",
    "state_bytes": "bytes",
    "macs_per_sample": "MAC/sample",
}
PER_LAYER = {
    # raw timings: on a shared 2-core VM whose cores switch between two speeds
    # every few seconds these moved up to 2x between runs, so they carry no bound
    "samples_per_s": "1/s",
    "step_us_p50": "us",
    "step_us_p99": "us",
    "setup_raw_s": "s",
    "tensor.conv1d_point.calls": "calls/sample",
    "tensor.conv1d_point.self_us": "us/sample",
    "tensor.transposed_point.calls": "calls/sample",
    "tensor.transposed_point.self_us": "us/sample",
    "tensor.nodes": "nodes/sample",
    "cache.FifoCache.pop.calls": "calls/sample",
    "cache.FifoCache.push.calls": "calls/sample",
    "cache.FifoCache.self_us": "us/sample",
    "cache.RowCache.push_row.self_us": "us/sample",
    "cache.RowCache.rows_stack.self_us": "us/sample",
    "dilated.incremental_step.calls": "calls/sample",
    "dilated.incremental_step.self_us": "us/sample",
    "strided.incremental_step.self_us": "us/sample",
    "strided.burst_us_p50": "us",
    "strided.idle_us_p50": "us",
    "strided.burst_share": "share",
    "strided.pending_max": "count",
    "image2d.vertical_row_pass.us": "us/row",
    "image2d.vertical_row_pass.self_us": "us/row",
    "image2d.pixel_step.us": "us/pixel",
    "image2d.batch_distinct_share": "share",
    "ref.probe_us": "us",
    "trace.overhead": "ratio",
    "trace.span_us": "us",
}


@dataclass(frozen=True)
class Workload:
    make: object  # () -> adapter
    batch: int
    prime: int  # untimed teacher-forced steps before generation (1D only)
    steps: int  # generated positions per episode
    block: int  # timed steps between two probe blocks


WORKLOADS = {
    # batch-1 latency, the paper's headline; lockstep batching cannot act here
    "dilated-b1": Workload(lambda: Dilated(2, 10, 32), 1, 16, 2048, 64),
    # serving throughput: 64 independent states advanced by one client
    "dilated-b64": Workload(lambda: Dilated(2, 8, 8), 64, 16, 256, 2),
    # the burst + pending-queue schedule: one step in four is a burst
    "strided-b1": Workload(lambda: Strided(("down2", "down2", "up2", "up2"), 32), 1, 16, 2048, 512),
    # row caches and the row-pair schedule; already lockstep-batched
    "image2d-b16": Workload(lambda: Image2d(32, 3, 8, True), 16, 0, 1024, 128),
}


@dataclass
class Episode:
    state: object
    xs: np.ndarray | None  # (B, prime + steps) inputs; None when the model takes none
    ys: np.ndarray  # (B, prime + steps) outputs
    t: int = 0  # positions generated so far
    node_deltas: list = field(default_factory=list)  # per position, from OpCounter
    error: str | None = None


@dataclass
class Run:
    """Everything one measurement records; the metrics are derived from it."""

    batch: int
    tracer: Tracer | None
    setup: list = field(default_factory=list)  # seconds per set-up
    setup_probe: list = field(default_factory=list)  # index of the last probe before it
    probes: list = field(default_factory=list)
    step_s: list = field(default_factory=list)  # per measured step
    block: list = field(default_factory=list)  # per measured step: probes[block] precedes it
    traced: list = field(default_factory=list)  # per measured step
    position: list = field(default_factory=list)  # episode position of the step
    macs: int = 0  # over untraced measured blocks
    nodes: int = 0
    traced_nodes: int = 0
    pending_max: int = 0
    episodes: list = field(default_factory=list)


def _advance(adapter, wl: Workload, ep: Episode, n: int, run: Run) -> list:
    """Generate n positions; returns the seconds of each step call."""
    clock = time.perf_counter
    state, xs, ys = ep.state, ep.xs, ep.ys
    times = []
    for _ in range(n):
        t = ep.t
        x = None
        if xs is not None:
            if t >= wl.prime:
                xs[:, t] = ys[:, t - 1]
            x = xs[:, t]
        n0 = adapter.counts(state)[1]
        t0 = clock()
        y = adapter.step(state, x)
        t1 = clock()
        ep.node_deltas.append(adapter.counts(state)[1] - n0)
        ys[:, t] = y
        times.append(t1 - t0)
        ep.t = t + 1
        run.pending_max = max(run.pending_max, adapter.pending(state))
    return times


def _episode(adapter, wl: Workload, weight_seed: int, rng, run: Run) -> Episode:
    """Set up SETUP_REPS times (all timed, the last state kept), then feed the prime."""
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = adapter.init(wl.batch, weight_seed)
        run.setup.append(time.perf_counter() - t0)
        run.setup_probe.append(len(run.probes) - 1)
    total = wl.prime + wl.steps
    xs = None
    if adapter.takes_input:
        xs = np.zeros((wl.batch, total), dtype=np.float32)
        xs[:, : wl.prime] = rng.uniform(-1.0, 1.0, (wl.batch, wl.prime))
    ep = Episode(state, xs, np.zeros((wl.batch, total), dtype=np.float32))
    try:
        _advance(adapter, wl, ep, wl.prime, run)
    except Exception as exc:  # a failing engine is a measured outcome, not a crash
        ep.error = f"{type(exc).__name__}: {exc}"
    return ep


def measure(adapter, wl: Workload, seed: int, seconds: float, trace: bool) -> Run:
    rng = np.random.default_rng(seed)
    weight_seed = int(rng.integers(2**32))
    probe = Probe()
    run = Run(wl.batch, Tracer() if trace else None)
    run.probes.append(probe.block())
    deadline = time.perf_counter() + seconds
    n_blocks = 0
    while not (run.episodes and time.perf_counter() >= deadline):
        ep = _episode(adapter, wl, weight_seed, rng, run)
        run.episodes.append(ep)
        while ep.error is None and ep.t < wl.prime + wl.steps:
            traced = run.tracer is not None and n_blocks % 2 == 1
            macs0, nodes0 = adapter.counts(ep.state)
            start = ep.t
            if traced:
                run.tracer.install()
            try:
                times = _advance(adapter, wl, ep, wl.block, run)
            except Exception as exc:  # recorded as a failed episode
                ep.error = f"{type(exc).__name__}: {exc}"
                break
            finally:
                if traced:
                    run.tracer.uninstall()
            macs1, nodes1 = adapter.counts(ep.state)
            run.probes.append(probe.block())
            if traced:
                run.traced_nodes += nodes1 - nodes0
            if n_blocks > 0:  # the first block of a run is warm-up
                run.step_s.extend(times)
                run.block.extend([len(run.probes) - 2] * len(times))
                run.traced.extend([traced] * len(times))
                run.position.extend(range(start, ep.t))
                if not traced:
                    run.macs += macs1 - macs0
                    run.nodes += nodes1 - nodes0
            n_blocks += 1
            if len(run.episodes) > 1 and time.perf_counter() >= deadline:
                break
    return run


def verify(adapter, run: Run) -> tuple[int, int, list]:
    """Oracle, schedule and error checks per sequence: (attempted, failed, notes)."""
    attempted = failed = 0
    notes = []
    for i, ep in enumerate(run.episodes):
        attempted += run.batch
        if ep.error is not None:
            failed += run.batch
            notes.append(f"episode {i}: step raised {ep.error}")
            continue
        n = ep.t
        xs = None if ep.xs is None else ep.xs[:, :n]
        ok = np.asarray(adapter.oracle(ep.state, xs, ep.ys[:, :n]), dtype=bool)
        if not adapter.schedule_ok(ep.state, np.array(ep.node_deltas, dtype=np.int64)):
            notes.append(f"episode {i}: per-step node evaluations differ from the schedule")
            ok[:] = False
        if not ok.all():
            notes.append(f"episode {i}: {int((~ok).sum())} of {run.batch} sequences failed")
        failed += int((~ok).sum())
    return attempted, failed, notes


def digest(run: Run) -> str:
    """sha256 of the first episode's outputs, which depend on the seed alone."""
    ep = run.episodes[0]
    return hashlib.sha256(ep.ys[:, : ep.t].tobytes()).hexdigest()


def _local_probe(run: Run) -> np.ndarray:
    """Per probe index j: median of probes j-1..j+2, the reference for work just after j."""
    p = np.array(run.probes)
    return np.array([np.median(p[max(0, j - 1): j + 3]) for j in range(len(p))])


def _timings(run: Run, mask: np.ndarray, period: int) -> dict:
    """Latency and throughput over the measured steps selected by `mask`.

    Percentiles keep the schedule's tail and drop the machine's: each step
    counts as the median over all steps at its position in the schedule
    period (strided bursts, image row passes), and percentiles are taken
    over those.  On a shared 2-core VM, random stalls moved a plain p99 by
    up to 2x between runs.  The inverted-CDF percentile keeps p50 on one
    side of an exact half split, such as the strided engine's idle steps.
    """
    local = _local_probe(run)
    block = np.array(run.block)[mask]
    step_s = np.array(run.step_s)[mask]
    ratio = step_s / local[block]
    phase = np.array(run.position)[mask] % period

    def pct(values, q):
        by_phase = np.zeros(period)
        for k in np.unique(phase):
            by_phase[k] = np.median(values[phase == k])
        return float(np.percentile(by_phase[phase], q, method="inverted_cdf"))

    # per-block throughputs, so a block hit by a speed switch cannot skew the run
    _, first, n = np.unique(block, return_index=True, return_counts=True)
    samples = run.batch * n
    return {
        "samples_per_s": float(np.median(samples / np.add.reduceat(step_s, first))),
        "throughput_ref": float(np.median(samples / np.add.reduceat(ratio, first))),
        "step_ref_p50": pct(ratio, 50),
        "step_ref_p99": pct(ratio, 99),
        "step_us_p50": pct(step_s, 50) * 1e6,
        "step_us_p99": pct(step_s, 99) * 1e6,
    }


def end_to_end(adapter, run: Run) -> dict:
    """The END_TO_END metrics, plus the raw timings for the printed table."""
    untraced = ~np.array(run.traced, dtype=bool)
    return {
        **_timings(run, untraced, adapter.period(run.episodes[0].state)),
        "setup_s": REF_PROBE_S
        * float(np.median(np.array(run.setup) / _local_probe(run)[run.setup_probe])),
        "setup_raw_s": statistics.median(run.setup),
        "state_bytes": adapter.state_bytes(run.episodes[0].state),
        "macs_per_sample": run.macs / (run.batch * int(untraced.sum())),
    }


def per_layer(adapter, run: Run, span_s: float) -> dict:
    tracer = run.tracer
    sp = tracer.spans
    traced = np.array(run.traced, dtype=bool)
    step_s = np.array(run.step_s)
    per = run.batch * int(traced.sum())  # traced samples
    untraced_samples = run.batch * int((~traced).sum())

    def calls(name):
        return sp[name].calls / per

    def self_us(*names):
        return sum(sp[n].self_ for n in names) / per * 1e6

    def per_call_us(name, attr):
        s = sp[name]
        return getattr(s, attr) / s.calls * 1e6 if s.calls else 0.0

    t = _timings(run, ~traced, adapter.period(run.episodes[0].state))
    out = {
        "samples_per_s": t["samples_per_s"],
        "step_us_p50": t["step_us_p50"],
        "step_us_p99": t["step_us_p99"],
        "setup_raw_s": statistics.median(run.setup),
        "tensor.conv1d_point.calls": calls("tensor.conv1d_point"),
        "tensor.conv1d_point.self_us": self_us("tensor.conv1d_point"),
        "tensor.transposed_point.calls": calls("tensor.transposed_point"),
        "tensor.transposed_point.self_us": self_us("tensor.transposed_point"),
        "tensor.nodes": run.nodes / untraced_samples,
        "cache.FifoCache.pop.calls": calls("cache.FifoCache.pop"),
        "cache.FifoCache.push.calls": calls("cache.FifoCache.push"),
        "cache.FifoCache.self_us": self_us(
            "cache.FifoCache.pop", "cache.FifoCache.push", "cache.FifoCache.fires"
        ),
        "cache.RowCache.push_row.self_us": self_us("cache.RowCache.push_row"),
        "cache.RowCache.rows_stack.self_us": self_us("cache.RowCache.rows_stack"),
        "dilated.incremental_step.calls": calls("dilated.incremental_step"),
        "dilated.incremental_step.self_us": self_us("dilated.incremental_step"),
        "strided.incremental_step.self_us": self_us("strided.incremental_step"),
        "strided.burst_us_p50": 0.0,
        "strided.idle_us_p50": 0.0,
        "strided.burst_share": 0.0,
        "strided.pending_max": run.pending_max,
        "image2d.vertical_row_pass.us": per_call_us("image2d.vertical_row_pass", "total"),
        "image2d.vertical_row_pass.self_us": per_call_us("image2d.vertical_row_pass", "self_"),
        "image2d.pixel_step.us": per_call_us("image2d.pixel_step", "total"),
        "image2d.batch_distinct_share": 0.0,
        "ref.probe_us": statistics.median(run.probes) * 1e6,
        "trace.overhead": float(np.median(step_s[traced]) / np.median(step_s[~traced])),
        "trace.span_us": span_s * 1e6,
    }
    if isinstance(adapter, Strided):
        fresh = adapter.trace_fresh(run.episodes[0].state, max(run.position) + 1)
        pos = np.array(run.position)[~traced]
        burst = fresh[pos]
        untraced_s = step_s[~traced]
        out["strided.burst_us_p50"] = float(np.median(untraced_s[burst])) * 1e6
        out["strided.idle_us_p50"] = float(np.median(untraced_s[~burst])) * 1e6
        out["strided.burst_share"] = float(burst.mean())
    if isinstance(adapter, Image2d):
        ys = run.episodes[0].ys
        out["image2d.batch_distinct_share"] = len({row.tobytes() for row in ys}) / run.batch
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure, verify and derive metrics for one workload."""
    wl = WORKLOADS[name]
    adapter = wl.make()
    before = patched_names() if trace else None
    span_s = span_cost() if trace else 0.0
    run = measure(adapter, wl, seed, seconds, trace)
    attempted, failed, notes = verify(adapter, run)
    correct = failed == 0
    if trace and any(a[2] is not b[2] for a, b in zip(before, patched_names())):
        notes.append("tracer left a patched name in place")
        correct = False
    metrics, shown = {}, {}
    if not run.step_s:
        notes.append("no timed step completed")
        correct = False
    elif trace:
        got, wanted = run.tracer.kernel_cols(), run.traced_nodes
        if got != wanted:
            notes.append(f"traced calls x batch columns = {got}, OpCounter node_evals = {wanted}")
            correct = False
        metrics = {k: (v, PER_LAYER[k]) for k, v in per_layer(adapter, run, span_s).items()}
    else:
        values = end_to_end(adapter, run)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        shown = {k: (v, PER_LAYER[k]) for k, v in values.items() if k not in END_TO_END}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "shown": {**shown, "failed_share": (failed / attempted, "share")},
        "digest": digest(run),
        "episodes": len(run.episodes),
        "steps": len(run.step_s),
        "notes": notes,
    }
