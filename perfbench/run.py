"""Benchmark of the PFCI miner: four seeded workloads, one traced run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mushroom-sweep --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py``; all closed loops):

* ``mushroom-sweep`` -- one caller mines dense Mushroom-like rows at the
  Fig. 6/7 points; the exact support DPs of the bounds framework.
* ``quest-sampled`` -- one caller mines Quest T20I10 with MPFCI-NoBound, so
  every check runs the ApproxFCP Karp-Luby sampler.
* ``stream-slide`` -- one caller extends a 2000-row PFCIMonitor window by
  16 arrivals per op; incremental support upkeep and branch re-mining.
* ``service-mixed`` -- two connections to ``python -m repro.service``
  submit fresh jobs (some sharded) and cache-hit resubmissions.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with the
units declared there.  Set-up (data generation, ``.utdz`` save and load,
monitor bootstrap or server boot, and the warm-up ops) is repeated at
least five times and for at least two seconds, and its median reported.
Times are scaled to a reference host speed (:class:`HostSpeed`): the host
this runs on shares its cores with other machines' work, and its speed
drifts by up to 2x from one minute to the next, more than any regression
bound.  So fixed kernels that never call the program are timed between ops
(at most every ``SAMPLE_EVERY_S``) and around every set-up, untimed, and
each time is divided by the kernels' slowdown measured around it.  The
lines before the result also print the unscaled wall-clock figures.
The timed phase replays the op sequence from the first op after the
warm-up and ends on a whole schedule cycle once ``--seconds`` have passed
and at least 100 ops are in hand, so p90 has ten samples beyond it, or at
1.5 x ``--seconds`` with fewer ops.  Peak RSS counts from the end of the
last set-up, so it covers the timed ops only.

``--trace 1`` replays the sequence twice from fresh set-ups, one untraced
and one traced (``tracing.py``), alternating in one-second slices until
each has run ``--seconds / 2``.  It reports per-op layer metrics, the
tracing overhead, a self-check of wrapper call counts against the
program's own counters, and a work-count repeatability check between the
two replays.

Every process runs with one BLAS/OpenMP thread and a fixed hash seed.  The
last line of stdout is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed, so short set-ups report the median of more samples.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# The traced run alternates its untraced and traced replays in slices of
# this many timed seconds, so drift in host speed falls on both alike.
TRACE_SLICE_S = 1.0
# Timed ops per run at least, so p90 has ten samples beyond it.
MIN_OPS = 100
# Peak RSS is read once this many ops are done (every run gets there), so a
# faster build or host that completes more ops in the same seconds does not
# read as using more memory.
RSS_AT_OPS = 40
# A slower build or host still ends the timed phase at this multiple of
# --seconds, with fewer ops, so every run fits the benchmark's time budget.
MAX_PHASE_FACTOR = 1.5
# Timings are reported at the speed of a host on which each reference
# kernel takes this many ms of thread CPU time.
REFERENCE_MS = {"interpreter": 4.0, "array": 6.0}
# A caller takes a kernel sample after an op once this long has passed since
# the last sample; an op's or set-up's slowdown is the median of the samples
# taken within WINDOW_S of it, which smooths the kernels' own noise but
# follows the host's drift.
SAMPLE_EVERY_S = 0.2
WINDOW_S = 1.0
# Kernel samples taken before each set-up and after the last.
SETUP_SAMPLES = 3
# Counters that must repeat exactly for the same op in two replays.
REPEATABLE = (
    "nodes_visited", "dp_invocations", "monte_carlo_samples",
    "branches_remined", "tidset_words_anded", "branches_dispatched",
)


def interpreter_kernel_ms() -> float:
    """Thread CPU ms of dict and integer bytecode and small-array NumPy calls."""
    import numpy

    started = time.thread_time()
    table: Dict[int, int] = {}
    total = 0
    for number in range(15000):
        key = number & 1023
        table[key] = table.get(key, 0) + number
        total += number * number % 7
    values = numpy.linspace(0.0, 1.0, 2048)
    for _ in range(100):
        values = numpy.convolve(values[:64], values[:512])[:2048] * 0.5
    return (time.thread_time() - started) * 1e3


def array_kernel_ms() -> float:
    """Thread CPU ms of a support DP shaped like the miner's padded batch:
    64 PMFs of 200 bins, each taking 75 Bernoulli columns."""
    import numpy

    probabilities = (numpy.arange(64 * 75).reshape(64, 75) % 97) / 100.0
    started = time.thread_time()
    pmf = numpy.zeros((64, 200))
    pmf[:, 0] = 1.0
    for column in range(75):
        p = probabilities[:, column : column + 1]
        pmf[:, 1:] = pmf[:, 1:] * (1.0 - p) + pmf[:, :-1] * p
        pmf[:, 0] *= 1.0 - p[:, 0]
    return (time.thread_time() - started) * 1e3


KERNELS = {"interpreter": interpreter_kernel_ms, "array": array_kernel_ms}


class HostSpeed:
    """Time-stamped samples of reference kernels that never call the program.

    Thread CPU time leaves out waits for the interpreter lock, so a sample
    taken while another caller thread runs still measures the host alone.
    Each workload names the kernels that are made of the kind of work its
    ops spend their time in (``Workload.kernels``).
    """

    def __init__(self, kernels: Sequence[str]) -> None:
        self.kernels = [KERNELS[kernel] for kernel in kernels]
        self.reference_ms = sum(REFERENCE_MS[kernel] for kernel in kernels)
        self.samples: List[Tuple[float, float]] = []  # (perf_counter, ms)

    def due(self) -> bool:
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S

    def sample(self) -> None:
        elapsed_ms = sum(kernel() for kernel in self.kernels)
        self.samples.append((time.perf_counter(), elapsed_ms))

    def slowdown(self, start: float, end: float) -> float:
        """Median sample within WINDOW_S of ``[start, end]`` over the reference
        (the nearest sample when none is that close)."""
        near = [ms for at, ms in self.samples if start - WINDOW_S <= at <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - end))[1]]
        return statistics.median(near) / self.reference_ms


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


class Phase:
    """Outcome of one replay of the op sequence, which may run in slices."""

    def __init__(self, workload: Any) -> None:
        self.records: List[Any] = []
        self.latency_ms: List[float] = []
        self.hit_ms: List[float] = []
        self.errors: Dict[Any, str] = {}
        self.wall_s = 0.0
        self.peak_rss_mb: Optional[float] = None
        self.speed = HostSpeed(workload.kernels)
        # Per timed op: its start and end (perf_counter), and whether it was
        # a cache hit.
        self.timed: List[Tuple[float, float, bool]] = []
        # The slot each caller resumes at in the next slice.
        self.next_slot = [workload.warmup] * workload.connections

    def probe_rss(self, workload: Any, force: bool = False) -> None:
        if self.peak_rss_mb is None and (force or self.attempted >= RSS_AT_OPS):
            self.peak_rss_mb = workload.peak_rss_mb()

    @property
    def attempted(self) -> int:
        return len(self.latency_ms) + len(self.hit_ms) + len(self.errors)

    def scaled(self) -> Tuple[List[float], List[float], float]:
        """Op and hit ms at the reference host speed, and the mean factor."""
        ops: List[float] = []
        hits: List[float] = []
        factors = []
        for start, end, hit in self.timed:
            factor = self.speed.slowdown(start, end)
            factors.append(factor)
            (hits if hit else ops).append((end - start) * 1e3 / factor)
        return ops, hits, statistics.fmean(factors)


def run_phase(workload: Any, phase: Phase, until_s: float, min_ops: int,
              tracer: Any = None) -> None:
    """Closed loop: ``workload.connections`` callers, each starting its next
    op when the last returns.

    Each caller resumes its slot sequence where the phase left it and stops
    on a whole schedule cycle once the phase's timed seconds reach
    ``until_s`` and ``min_ops`` latencies are in hand, or reach
    ``MAX_PHASE_FACTOR`` times ``until_s``.  Time spent in
    ``workload.after_op`` and in the reference kernels, which run before a
    caller's first op and after an op once ``SAMPLE_EVERY_S`` have passed,
    is not timed.
    """
    lock = threading.Lock()
    excluded = 0.0
    wall_before = phase.wall_s
    started = time.perf_counter()

    def elapsed() -> float:
        return wall_before + time.perf_counter() - started - excluded

    def calibrate() -> None:
        nonlocal excluded
        with lock:
            if phase.speed.due():
                kernel_started = time.perf_counter()
                phase.speed.sample()
                excluded += time.perf_counter() - kernel_started

    def caller(number: int) -> None:
        nonlocal excluded
        slot = phase.next_slot[number]
        calibrate()
        while not workload.exhausted(slot):
            index = slot if workload.connections == 1 else (number, slot)
            if tracer is not None:
                tracer.op = index
            op_started = time.perf_counter()
            try:
                record = workload.run_slot(number, slot)
            except Exception as error:  # noqa: BLE001 - a failed op is counted
                phase.errors[index] = f"{type(error).__name__}: {error}"
                record = None
            op_ended = time.perf_counter()
            elapsed_ms = (op_ended - op_started) * 1e3
            calibrate()
            if record is not None:
                record.extra["op_ms"] = elapsed_ms
                phase.records.append(record)
                hit = record.key == "hit"
                (phase.hit_ms if hit else phase.latency_ms).append(elapsed_ms)
                phase.timed.append((op_started, op_ended, hit))
                with lock:
                    phase.probe_rss(workload)
                    check_started = time.perf_counter()
                    if tracer is not None:
                        tracer.enabled = False
                    workload.after_op(record)
                    if tracer is not None:
                        tracer.enabled = True
                    excluded += time.perf_counter() - check_started
            slot += 1
            if (slot - workload.warmup) % workload.cycle == 0 and (
                elapsed() >= until_s * MAX_PHASE_FACTOR
                or (elapsed() >= until_s and len(phase.latency_ms) >= min_ops)
            ):
                break
        phase.next_slot[number] = slot

    threads = [threading.Thread(target=caller, args=(number,))
               for number in range(workload.connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall_s = elapsed()
    if tracer is not None:
        tracer.op = None


def set_up(workloads_module: Any, name: str, seed: int, work_dir: Path,
           trace: bool = False) -> Tuple[Any, float, float]:
    """Build a workload and run its warm-up ops; returns it, and the
    perf_counter at the start and end."""
    workload = workloads_module.WORKLOADS[name](seed, work_dir)
    workload.trace = trace
    work_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        workload.setup()
        workload.warm_up()
    except BaseException:
        workload.close()
        raise
    return workload, started, time.perf_counter()


def check(workload: Any, phase: Phase) -> Dict[Any, str]:
    failures = dict(phase.errors)
    failures.update(workload.verify(phase.records))
    return failures


def report_failures(label: str, failures: Dict[Any, str]) -> None:
    for index, message in sorted(failures.items(), key=str)[:10]:
        print(f"FAIL {label} op {index}: {message}")


# ---------------------------------------------------------------------------
# --trace 0
# ---------------------------------------------------------------------------
def plain_run(wl_module: Any, name: str, seed: int, seconds: float,
              work_dir: Path, units: Dict[str, str]) -> Dict[str, Any]:
    setups: List[Tuple[float, float]] = []
    speed = HostSpeed(wl_module.WORKLOADS[name].kernels)
    workload = None
    while len(setups) < SETUP_REPEATS or sum(end - start for start, end in setups) < SETUP_SECONDS:
        if workload is not None:
            workload.close()
            workload = None  # so no two set-ups are alive at once
        for _ in range(SETUP_SAMPLES):
            speed.sample()
        workload, started, ended = set_up(wl_module, name, seed,
                                          work_dir / f"setup{len(setups)}")
        setups.append((started, ended))
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    setup_seconds = [end - start for start, end in setups]
    setup_scaled = [(end - start) / speed.slowdown(start, end) for start, end in setups]
    try:
        workload.reset_peak_rss()
        phase = Phase(workload)
        run_phase(workload, phase, seconds, MIN_OPS)
        phase.probe_rss(workload, force=True)
        failures = check(workload, phase)
    finally:
        workload.close()
    report_failures(name, failures)

    scaled_ops, scaled_hits, factor = phase.scaled()
    latency = sorted(scaled_ops)
    ops = len(phase.latency_ms) + len(phase.hit_ms)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), units["setup_s"], len(setup_scaled)),
        "op_ms.p50": (statistics.median(latency), units["op_ms.p50"], len(latency)),
        "op_ms.p90": (percentile(latency, 0.9), units["op_ms.p90"], len(latency)),
        "ops_per_s": (ops * factor / phase.wall_s, units["ops_per_s"], ops),
        "peak_rss_mb": (phase.peak_rss_mb, units["peak_rss_mb"], 1),
    }
    extra = {"fail_frac": (len(failures) / phase.attempted, "1", phase.attempted)}
    if scaled_hits:
        hits = sorted(scaled_hits)
        extra["hit_ms.p50"] = (statistics.median(hits), "ms", len(hits))
        extra["hit_ms.p90"] = (percentile(hits, 0.9), "ms", len(hits))
    wall = sorted(phase.latency_ms)
    extra["unscaled setup_s"] = (statistics.median(setup_seconds), "s", len(setup_seconds))
    extra["unscaled op_ms.p50"] = (statistics.median(wall), "ms", len(wall))
    extra["unscaled op_ms.p90"] = (percentile(wall, 0.9), "ms", len(wall))
    extra["unscaled ops_per_s"] = (ops / phase.wall_s, "1/s", ops)
    extra["host slowdown"] = (factor, "x", len(phase.speed.samples))
    for metric, (value, unit, samples) in {**metrics, **extra}.items():
        print(f"{name} {metric} = {value:.6g} {unit} (n={samples})")
    return {
        "correct": not failures,
        "attempted": phase.attempted,
        "failed": len(failures),
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit, _n) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# --trace 1
# ---------------------------------------------------------------------------
def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(name: str, phase: Phase, untraced: Phase, summary: Dict[str, Any],
                  server_ops: int, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-op layer metrics from spans (self/calls) and program counters.

    Span totals of the service process are divided by every fresh job it
    ran (``server_ops``, warm-up included); cache hits do no mining and
    carry no counters, so counter means are over fresh jobs.
    """
    mined = [record for record in phase.records if record.key != "hit"]
    ops = max(len(mined), 1)
    server_ops = max(server_ops, 1)
    counters: Dict[str, int] = {}
    for record in mined:
        for key, value in record.counters.items():
            counters[key] = counters.get(key, 0) + value

    def span(span_name: str, field: str = "self_ms", per: int = ops) -> float:
        return summary.get(span_name, {}).get(field, 0.0) / per

    def total(key: str) -> float:
        return counters.get(key, 0) / ops

    per = server_ops if name == "service-mixed" else ops
    samples = counters.get("monte_carlo_samples", 0)
    untraced_ops, untraced_hits, _factor = untraced.scaled()
    untraced_hits.sort()
    values = {
        "support.batch_dp.calls": span("support.batch_dp", "calls", per),
        "support.batch_dp.self_ms": span("support.batch_dp", per=per),
        "support.dp_cache.hit_ratio": ratio(
            counters.get("dp_cache_hits", 0),
            counters.get("dp_cache_hits", 0) + counters.get("dp_cache_misses", 0)),
        "support.scalar_dp.calls": span("support.scalar_dp", "calls", per),
        "support.scalar_dp.self_ms": span("support.scalar_dp", per=per),
        "support.pmf_update.calls": span("support.pmf_update", "calls", per),
        "support.pmf_update.self_ms": span("support.pmf_update", per=per),
        "support.sampler.self_ms": span("support.sampler", per=per),
        "tidsets.intersect.calls": span("tidsets.intersect", "calls", per),
        "tidsets.intersect.self_ms": span("tidsets.intersect", per=per),
        "tidsets.words_anded": total("tidset_words_anded"),
        "tidsets.popcounts": total("tidset_popcounts"),
        "tidsets.gathers": total("tidset_gathers"),
        "tidsets.prefix_hit_ratio": ratio(
            counters.get("tidset_prefix_hits", 0),
            counters.get("tidset_prefix_hits", 0) + counters.get("tidset_prefix_misses", 0)),
        "bounds.ch.calls": span("bounds.ch", "calls", per),
        "bounds.fcp.calls": span("bounds.fcp", "calls", per),
        "bounds.self_ms": span("bounds.ch", per=per) + span("bounds.fcp", per=per),
        "bounds.decided_ratio": ratio(
            counters.get("decided_by_tight_bounds", 0)
            + counters.get("accepted_by_lower_bound", 0)
            + counters.get("rejected_by_upper_bound", 0),
            counters.get("bound_evaluations", 0)),
        "events.build.calls": span("events.build", "calls", per),
        "events.exact.calls": span("events.exact", "calls", per),
        "events.self_ms": span("events.build", per=per) + span("events.exact", per=per),
        "approx.calls": span("approx", "calls", per),
        "approx.self_ms": span("approx", per=per),
        "approx.samples": total("monte_carlo_samples"),
        "approx.us_per_sample": ratio(
            1e3 * summary.get("approx", {}).get("total_ms", 0.0), samples),
        "miner.self_ms": span("miner", per=per),
        "miner.nodes": total("nodes_visited"),
        "miner.checks": total("checks_performed"),
        "miner.pruned": sum(total(key) for key in (
            "pruned_by_count", "pruned_by_chernoff", "pruned_by_frequency",
            "pruned_by_superset", "pruned_by_subset")),
        "miner.results_per_check": ratio(
            counters.get("results_emitted", 0), counters.get("checks_performed", 0)),
        "streaming.slide.self_ms": span("streaming.slide"),
        "streaming.snapshot.calls": span("streaming.snapshot", "calls"),
        "streaming.snapshot.self_ms": span("streaming.snapshot"),
        "streaming.append.self_ms": span("streaming.append"),
        "streaming.retained_ratio": ratio(
            counters.get("branches_retained", 0),
            counters.get("branches_retained", 0) + counters.get("branches_remined", 0)),
        "streaming.pmf_incremental_ratio": ratio(
            counters.get("pmf_incremental_updates", 0),
            counters.get("pmf_incremental_updates", 0) + counters.get("pmf_full_rebuilds", 0)),
        "data.load_ms": summary.get("data.load", {}).get("total_ms", 0.0),
        "data.save_ms": summary.get("data.save", {}).get("total_ms", 0.0),
        "runtime.supervised.calls": (span("runtime.supervised", "calls", server_ops)
                                     + span("runtime.sharded", "calls", server_ops)),
        "runtime.supervised.ms": (span("runtime.supervised", "total_ms", server_ops)
                                  + span("runtime.sharded", "total_ms", server_ops)),
        "runtime.shard_scan_ms": extra.get("shard_scan_ms", 0.0),
        "runtime.shard_merge_ms": extra.get("shard_merge_ms", 0.0),
        "runtime.branches_dispatched": total("branches_dispatched"),
        "runtime.retries": total("branch_retries") + total("shard_retries"),
        "runtime.pool_rebuilds": total("pool_rebuilds"),
        "runtime.checkpoint_writes": total("checkpoint_branches_written"),
        "service.queue_ms": extra.get("queue_ms", 0.0),
        "service.run_ms": extra.get("run_ms", 0.0),
        "service.overhead_ms": extra.get("overhead_ms", 0.0),
        "service.core_ms": extra.get("core_ms", 0.0),
        "service.parse.self_ms": span("service.parse", per=server_ops),
        "service.jobstore.self_ms": span("service.jobstore", per=server_ops),
        "service.cache.self_ms": span("service.cache", per=server_ops),
        "service.cache.hit_ratio": extra.get("cache_hit_ratio", 0.0),
        "service.requests_per_op": extra.get("requests_per_op", 0.0),
        "service.req_ms.p50.post_jobs": extra.get("req:POST /jobs", 0.0),
        "service.req_ms.p50.get_job": extra.get("req:GET /jobs/{id}", 0.0),
        "service.req_ms.p50.get_result": extra.get("req:GET /jobs/{id}/result", 0.0),
        "service.hit_ms.p50": statistics.median(untraced_hits) if untraced_hits else 0.0,
        "service.hit_ms.p90": percentile(untraced_hits, 0.9) if untraced_hits else 0.0,
        "trace.overhead": ratio(statistics.median(phase.scaled()[0]),
                                statistics.median(untraced_ops)),
        "trace.spans_per_op": sum(entry["calls"] for entry in summary.values()) / per,
    }
    return values


def self_check(name: str, summary: Dict[str, Any], counts: Dict[str, int],
               phase: Phase, server_fresh: Tuple[int, int, int]) -> List[str]:
    """Wrapper call counts against the program's own counters."""
    sums: Dict[str, int] = {}
    for record in phase.records:
        for key, value in record.counters.items():
            sums[key] = sums.get(key, 0) + value

    def calls(span_name: str) -> int:
        return int(summary.get(span_name, {}).get("calls", 0))

    pairs = []
    if name == "service-mixed":
        plain, sharded, submissions = server_fresh
        pairs += [
            ("runtime.supervised calls", calls("runtime.supervised"), plain),
            ("runtime.sharded calls", calls("runtime.sharded"), sharded),
            ("service.parse calls", calls("service.parse"), submissions),
        ]
    else:
        pairs += [
            ("approx calls == fcp_sampled_evaluations",
             calls("approx"), sums.get("fcp_sampled_evaluations", 0)),
            ("approx samples == monte_carlo_samples",
             counts.get("approx", 0), sums.get("monte_carlo_samples", 0)),
            ("bounds.fcp calls == bound_evaluations",
             calls("bounds.fcp"), sums.get("bound_evaluations", 0)),
            ("events.exact calls == exact IE checks", calls("events.exact"),
             sums.get("fcp_exact_evaluations", 0) - sums.get("decided_by_tight_bounds", 0)),
            ("streaming.slide calls == slides_processed",
             calls("streaming.slide"), sums.get("slides_processed", 0)),
        ]
        if name != "stream-slide":
            pairs += [
                ("miner calls == ops", calls("miner"), len(phase.records)),
                ("support.batch_dp values == dp_batch_invocations",
                 counts.get("support.batch_dp", 0), sums.get("dp_batch_invocations", 0)),
            ]
    problems = []
    for label, observed, expected in pairs:
        status = "ok" if observed == expected else "MISMATCH"
        print(f"{name} self-check {label}: {observed} vs {expected} {status}")
        if observed != expected:
            problems.append(label)
    return problems


def repeatability(name: str, first: Phase, second: Phase) -> List[str]:
    """The same op in two replays must do identical work."""
    earlier = {record.index: record.counters for record in first.records}
    problems = []
    compared = 0
    for record in second.records:
        before = earlier.get(record.index)
        if before is None or record.key == "hit":
            continue
        compared += 1
        for key in REPEATABLE:
            if key in before and before[key] != record.counters.get(key):
                problems.append(f"op {record.index} {key}: {before[key]} != "
                                f"{record.counters.get(key)}")
    print(f"{name} repeatability: {compared} ops compared, {len(problems)} mismatches")
    for problem in problems[:10]:
        print(f"FAIL {name} repeatability {problem}")
    return problems


def roles(name: str, values: Dict[str, float], summary: Dict[str, Any]) -> List[str]:
    """Does the workload stress the layer it was chosen for?"""
    layer_self = {span_name: entry["self_ms"] for span_name, entry in summary.items()}
    largest = max(layer_self, key=layer_self.get) if layer_self else None
    traced_ms = sum(layer_self.values())
    streaming_ms = sum(ms for key, ms in layer_self.items() if key.startswith("streaming."))
    checks: List[Tuple[str, bool]] = [
        ("streaming.* time only on stream-slide",
         (streaming_ms > 0) == (name == "stream-slide")),
    ]
    if name == "mushroom-sweep":
        checks += [
            (f"support.batch_dp.self_ms is the largest layer share (largest: {largest})",
             largest == "support.batch_dp"),
            ("approx.* and support.sampler.* are 0",
             values["approx.calls"] == 0 and values["support.sampler.self_ms"] == 0),
        ]
    elif name == "quest-sampled":
        sampling = layer_self.get("approx", 0.0) + layer_self.get("support.sampler", 0.0)
        checks.append((f"approx + sampler hold {ratio(sampling, traced_ms):.0%} of traced time",
                       sampling > traced_ms / 2))
    elif name == "service-mixed":
        core = values["service.core_ms"]
        outside = values["service.queue_ms"] + values["service.run_ms"] \
            + values["service.overhead_ms"] - core
        checks.append((f"service.* + runtime.* ({outside:.1f} ms/op) exceed core.* "
                       f"({core:.1f} ms/op)", outside > core))
    problems = []
    for label, held in checks:
        print(f"{name} role: {label}: {'ok' if held else 'NOT MET'}")
        if not held:
            problems.append(label)
    return problems


def traced_run(wl_module: Any, tracing: Any, name: str, seed: int, seconds: float,
               work_dir: Path, units: Dict[str, str]) -> Dict[str, Any]:
    half = seconds / 2.0
    targets = (*tracing.CORE_TARGETS, *tracing.DATA_TARGETS)
    tracer = tracing.Tracer()
    extra: Dict[str, float] = {}
    server_fresh = (0, 0, 0)
    server_ops = 0
    plain, _, _ = set_up(wl_module, name, seed, work_dir / "untraced")
    workload = None
    try:
        uninstall = tracing.install(tracer, targets)
        try:
            workload, _, _ = set_up(wl_module, name, seed, work_dir / "traced", trace=True)
        finally:
            uninstall()
        # Set-up keeps only its dataset spans: ``data.*`` never nest.
        setup_spans = [span[:3] + [-1, None] for span in tracer.spans
                       if span[0].startswith("data.")]
        tracer.reset()
        untraced, traced = Phase(plain), Phase(workload)
        until = 0.0
        while untraced.wall_s < half or traced.wall_s < half:
            attempted = untraced.attempted + traced.attempted
            until += TRACE_SLICE_S
            run_phase(plain, untraced, until, 1)
            uninstall = tracing.install(tracer, targets)
            try:
                run_phase(workload, traced, until, 1, tracer)
            finally:
                uninstall()
            if untraced.attempted + traced.attempted == attempted:
                break  # the generated inputs ran out
        if name == "service-mixed":
            extra, server_fresh, server_ops = service_extras(workload, traced)
    finally:
        plain.close()
        if workload is not None:
            workload.close()
    recordings = [setup_spans, tracer.spans]
    counts = dict(tracer.counts)
    failures = check(plain, untraced)
    if name == "service-mixed":
        server = json.loads(workload.trace_path.read_text())
        recordings.append(server["spans"])
        for key, value in server["counts"].items():
            counts[key] = counts.get(key, 0) + value
    failures.update({("traced", k): v for k, v in check(workload, traced).items()})
    report_failures(name, failures)

    spans_path = work_dir / "spans.json"
    spans_path.write_text(json.dumps({"recordings": recordings, "counts": counts}))
    print(f"{name} spans written to {spans_path.relative_to(Path.cwd())}")
    summary = tracing.summarize(*recordings)
    values = layer_metrics(name, traced, untraced, summary, server_ops, extra)
    problems = self_check(name, summary, counts, traced, server_fresh)
    problems += repeatability(name, untraced, traced)
    problems += roles(name, values, summary)
    print(f"{name} tracing overhead: traced/untraced op_ms.p50 = "
          f"{values['trace.overhead']:.3f} ({len(traced.latency_ms)} vs "
          f"{len(untraced.latency_ms)} ops)")
    for metric, value in values.items():
        print(f"{name} {metric} = {value:.6g}")
    attempted = untraced.attempted + traced.attempted
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }


def service_extras(workload: Any, phase: Phase) -> Tuple[Dict[str, float], Tuple[int, int, int], int]:
    """Server-side means per fresh op from job status, /metrics and routes."""
    fresh = [record for record in phase.records if record.key == "fresh"]
    count = max(len(fresh), 1)
    extra = {key: sum(record.extra[key] for record in fresh) / count
             for key in ("queue_ms", "run_ms", "core_ms", "shard_scan_ms", "shard_merge_ms")}
    extra["overhead_ms"] = (sum(record.extra["op_ms"] for record in fresh) / count
                            - extra["queue_ms"] - extra["run_ms"])
    metrics = workload.metrics()
    cache = metrics["cache"]
    extra["cache_hit_ratio"] = ratio(cache["hits"], cache["hits"] + cache["misses"])
    for route, samples in workload.route_ms.items():
        extra[f"req:{route}"] = statistics.median(samples)
    requests = sum(len(samples) for samples in workload.route_ms.values())
    submissions = len(workload.route_ms.get("POST /jobs", []))
    extra["requests_per_op"] = ratio(requests, submissions)
    # The server also handled the warm-up slots; its spans are normalized
    # by every fresh job it ran.
    all_fresh = [entry for done in workload.finished for entry in done]
    sharded = sum(1 for entry in all_fresh if "shards" in entry["body"])
    return extra, (len(all_fresh) - sharded, sharded, submissions), len(all_fresh)


# ---------------------------------------------------------------------------
def environment_line() -> str:
    import numpy

    return json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "env": {key: os.environ.get(key) for key in PINNED_ENV},
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        # Thread counts and the hash seed are read at interpreter start.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro package; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = root / ".perfbench_work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    print(f"environment {environment_line()}")
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"]
             for metric in declared["end_to_end"] + declared["per_layer"]}
    if args.trace:
        result = traced_run(workloads, tracing, args.workload, args.seed,
                            args.seconds, work_dir, units)
    else:
        result = plain_run(workloads, args.workload, args.seed, args.seconds,
                           work_dir, units)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
