"""The four benchmark workloads, driven through the library's public API.

Each workload builds its inputs from ``--seed`` in :meth:`setup`, runs op
``index`` of a fixed op sequence in :meth:`op`, and checks outputs against
an independent computation in :meth:`verify` (outside every timed region).

The datasets stand in for fixed data files, as the paper's are: item rows
and existence probabilities come from each dataset's own fixed seeds, and
``--seed`` only reorders rows.  In the batch datasets it shuffles the row
order, which changes every bitmap layout but no result; in the stream it
shuffles the arrival order inside each op's block of arrivals, so the
window holds the same rows after every op.  (Redrawing the probabilities
per seed moved the median op cost by 20% between seeds, more than any
regression bound could absorb.)
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase
from repro.core.miner import MPFCIMiner
from repro.core.stats import MiningStats
from repro.data import columnar
from repro.data.gaussian import attach_gaussian_probabilities
from repro.data.mushroom import generate_mushroom_like
from repro.data.quest import QuestParameters, generate_quest
from repro.eval.datasets import MAX_PROBABILITY
from repro.eval.experiments import default_config
from repro.streaming import PFCIMonitor, WindowedUncertainDatabase

REPO = Path.cwd()


def derive(seed: int, tag: str) -> int:
    """A 32-bit generator seed for one purpose, derived from ``--seed``."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{tag}".encode()).digest()[:4], "big")


def int_counters(stats: MiningStats) -> Dict[str, int]:
    return {k: v for k, v in stats.as_dict().items() if isinstance(v, int)}


def result_rows(results: Sequence[Any]) -> List[Dict[str, Any]]:
    return [result.to_dict() for result in results]


class OpRecord:
    """What one op left behind: its schedule key, outputs and counters."""

    __slots__ = ("index", "key", "output", "counters", "extra")

    def __init__(self, index: Any, key: Any, output: Any,
                 counters: Dict[str, int], extra: Optional[Dict[str, Any]] = None):
        self.index = index
        self.key = key
        self.output = output
        self.counters = counters
        self.extra = extra or {}


class Workload:
    name = ""
    #: ops per schedule cycle; the timed phase only ends on a cycle boundary
    #: so every run holds whole cycles of the op mix.
    cycle = 1
    #: the first ``warmup`` ops of the sequence run in set-up, untimed
    warmup = 1
    #: callers, each running its own copy of the slot sequence
    connections = 1
    #: boot the server through ``serve.py`` so its spans are recorded
    trace = False
    #: the /proc entry of the process doing the work
    pid = "self"
    #: reference kernels (``run.KERNELS``) made of the kind of work the ops
    #: spend their time in; their slowdown scales the reported times
    kernels: Sequence[str] = ("interpreter", "array")

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        for slot in range(self.warmup):
            for connection in range(self.connections):
                self.run_slot(connection, slot)

    def run_slot(self, connection: int, slot: int) -> OpRecord:
        """Op ``slot`` of one caller's sequence."""
        return self.op(slot)

    def op(self, index: int) -> OpRecord:
        raise NotImplementedError

    def exhausted(self, slot: int) -> bool:
        """True once the generated inputs hold no op ``slot``."""
        return False

    def after_op(self, record: OpRecord) -> None:
        """Runs between ops; the driver excludes it from timing."""

    def verify(self, records: Sequence[OpRecord]) -> Dict[Any, str]:
        """Failures by op index (outside timing)."""
        return {}

    def reset_peak_rss(self) -> None:
        """Restart the peak-RSS count at the current RSS."""
        with open(f"/proc/{self.pid}/clear_refs", "w") as handle:
            handle.write("5")

    def peak_rss_mb(self) -> float:
        """Peak RSS (MB) of the process doing the work since the last reset."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM in /proc/{self.pid}/status")

    def close(self) -> None:
        pass


class _SweepWorkload(Workload):
    """Closed-loop, one caller: each op mines one (probability draw, point).

    The schedule walks the points cheap end first, as the paper's sweeps
    do, alternating between the fixed probability draws.
    """

    gaussian_seeds: Sequence[int] = (1,)

    def _databases(self, transactions: Sequence[Any], mean: float,
                   variance: float) -> None:
        shuffle = random.Random(derive(self.seed, f"{self.name}:rows")).shuffle
        self.databases = []
        for draw, gaussian_seed in enumerate(self.gaussian_seeds):
            rows = list(attach_gaussian_probabilities(
                transactions, mean=mean, variance=variance, seed=gaussian_seed,
                max_probability=MAX_PROBABILITY,
            ))
            shuffle(rows)
            path = self.work_dir / f"{self.name}-{draw}.utdz"
            columnar.save_columnar(UncertainDatabase(rows), path)
            self.databases.append(columnar.load_columnar(path))
        self.schedule = [(draw, point) for point in range(len(self.points))
                         for draw in range(len(self.gaussian_seeds))]

    def config(self, database: UncertainDatabase, point: Tuple[float, ...]) -> MinerConfig:
        raise NotImplementedError

    def op(self, index: int) -> OpRecord:
        draw, point = self.schedule[index % len(self.schedule)]
        database = self.databases[draw]
        miner = MPFCIMiner(database, self.config(database, self.points[point]))
        results = miner.mine()
        return OpRecord(index, (draw, point), results, int_counters(miner.stats))


class MushroomSweep(_SweepWorkload):
    """Dense Mushroom-like rows under the Fig. 6/7 sweep points (paper MPFCI)."""

    name = "mushroom-sweep"
    rows = 1500
    gaussian_seeds = (1, 2)
    points = [(r, p) for r in (0.5, 0.4, 0.3) for p in (0.9, 0.7)]
    cycle = len(gaussian_seeds) * len(points)
    warmup = 2
    # Its time is in the padded batch DP: scaled by the interpreter kernel
    # too, its runs spread twice as much as unscaled.
    kernels = ("array",)

    def setup(self) -> None:
        rows = generate_mushroom_like(num_rows=self.rows, seed=8124)
        self._databases(rows, mean=0.5, variance=0.5)

    def config(self, database, point, backend="bitmap"):
        ratio, pfct = point
        return default_config(database, ratio, pfct=pfct, tidset_backend=backend)

    def verify(self, records):
        """Itemsets identical to the tuple-backend oracle, Pr within 1e-9."""
        references: Dict[Any, List[Any]] = {}
        failures = {}
        for record in records:
            draw, point = record.key
            if record.key not in references:
                database = self.databases[draw]
                references[record.key] = MPFCIMiner(
                    database, self.config(database, self.points[point], "tuple")
                ).mine()
            reference = references[record.key]
            if [r.itemset for r in record.output] != [r.itemset for r in reference]:
                failures[record.index] = f"itemsets differ from the oracle at {record.key}"
            elif any(abs(a.probability - b.probability) > 1e-9
                     for a, b in zip(record.output, reference)):
                failures[record.index] = f"probability off by >1e-9 at {record.key}"
        return failures


class QuestSampled(_SweepWorkload):
    """Quest T20I10 under Table VII's MPFCI-NoBound: every check samples."""

    name = "quest-sampled"
    rows = 150
    # An odd number of draws puts the median op inside one draw's cluster;
    # each of these draws keeps at least one sampled check at every point.
    gaussian_seeds = (1, 4, 5)
    points = [(0.6,), (0.55,), (0.5,)]
    cycle = len(gaussian_seeds) * len(points)
    warmup = 2
    reference_event_limit = 64

    def setup(self) -> None:
        transactions = generate_quest(QuestParameters(num_transactions=self.rows))
        self._databases(transactions, mean=0.8, variance=0.1)

    def config(self, database, point):
        return default_config(database, point[0]).variant(use_probability_bounds=False)

    def verify(self, records):
        """Each estimate within epsilon of the bounds-on run's interval.

        The reference is MPFCI with Lemma 4.4 bounds on and every undecided
        check on the exact inclusion-exclusion path (up to 64 events, no
        degradation; these ops see at most 14), so its intervals are
        certified bounds or exact points; a reference that still samples
        fails the op.  An itemset reported by only one run must lie within
        epsilon of pfct: the sampled run's estimate, or the reference's
        certified lower bound.
        """
        references: Dict[Any, Dict[Any, Any]] = {}
        failures = {}
        for record in records:
            draw, point = record.key
            database = self.databases[draw]
            config = self.config(database, self.points[point])
            if record.key not in references:
                oracle = MPFCIMiner(database, config.variant(
                    use_probability_bounds=True,
                    exact_event_limit=self.reference_event_limit,
                    degradation_policy="never",
                ))
                results = oracle.mine()
                references[record.key] = (
                    None if oracle.stats.fcp_sampled_evaluations
                    else {r.itemset: r for r in results}
                )
            reference = references[record.key]
            if reference is None:
                failures[record.index] = f"{record.key}: the reference sampled a check"
                continue
            eps, pfct = config.epsilon, config.pfct
            sampled = {r.itemset: r for r in record.output}
            problems = []
            for itemset, estimate in sampled.items():
                expected = reference.get(itemset)
                if expected is None:
                    if estimate.probability > pfct + eps:
                        problems.append(f"{itemset} missing from the reference")
                elif not (expected.lower - eps <= estimate.probability
                          <= expected.upper + eps):
                    problems.append(
                        f"{itemset}: {estimate.probability:.4f} outside "
                        f"[{expected.lower:.4f}, {expected.upper:.4f}] +- {eps}"
                    )
            for itemset, expected in reference.items():
                if itemset not in sampled and expected.lower > pfct + eps:
                    problems.append(f"{itemset} missed (reference lower {expected.lower:.4f})")
            if problems:
                failures[record.index] = f"{record.key}: " + "; ".join(problems[:3])
        return failures


class StreamSlide(Workload):
    """A PFCIMonitor over a 2000-row window; each op extends 16 arrivals.

    Every tenth op keeps the window and the maintained results, which
    :meth:`verify` checks against a scratch re-mine after the timed phase.
    """

    name = "stream-slide"
    window = 2000
    batch = 16
    max_ops = 800
    check_every = 10
    warmup = 2
    # On these short transactions the Lemma 4.4 bounds are tight at every
    # check, so with them on the exact inclusion-exclusion path never runs;
    # off, every check of at most 64 events takes that path.
    config = MinerConfig(min_sup=120, pfct=0.6, exact_event_limit=64,
                         use_probability_bounds=False)

    def setup(self) -> None:
        transactions = generate_quest(QuestParameters(
            num_transactions=self.window + self.batch * self.max_ops,
            avg_transaction_length=3.0, avg_pattern_length=2.0,
            num_items=250, seed=42,
        ))
        rows = list(attach_gaussian_probabilities(
            transactions, mean=0.85, variance=0.05, seed=1,
        ))
        # The window is a whole number of blocks, so shuffling inside each
        # block of ``batch`` arrivals leaves every op's final window as is.
        shuffle = random.Random(derive(self.seed, f"{self.name}:arrivals")).shuffle
        for start in range(0, len(rows), self.batch):
            block = rows[start : start + self.batch]
            shuffle(block)
            rows[start : start + self.batch] = block
        path = self.work_dir / "stream.utdz"
        columnar.save_columnar(UncertainDatabase(rows), path)
        self.rows = list(columnar.load_columnar(path))
        window = WindowedUncertainDatabase(capacity=self.window)
        window.extend(self.rows[: self.window])
        self.monitor = PFCIMonitor(self.config, window)
        self.captured: Dict[int, Tuple[List[Any], List[Any]]] = {}

    def exhausted(self, index: int) -> bool:
        return index >= self.max_ops

    def op(self, index: int) -> OpRecord:
        start = self.window + index * self.batch
        before = int_counters(self.monitor.stats)
        self.monitor.extend(self.rows[start : start + self.batch])
        after = int_counters(self.monitor.stats)
        return OpRecord(index, None, None,
                        {k: after[k] - before[k] for k in after})

    def after_op(self, record: OpRecord) -> None:
        """Keep the window and the maintained results at fixed slide indices."""
        if record.index % self.check_every == 0:
            self.captured[record.index] = (list(self.monitor.window), self.monitor.results())

    def verify(self, records):
        """The kept results equal a scratch re-mine of the kept window, field
        for field."""
        failures = {}
        for record in records:
            if record.index not in self.captured:
                continue
            window, results = self.captured[record.index]
            scratch = MPFCIMiner(UncertainDatabase(window), self.config).mine()
            if result_rows(results) != result_rows(scratch):
                failures[record.index] = "monitor results differ from a scratch re-mine"
        return failures


class ServiceMixed(Workload):
    """Two connections against ``python -m repro.service --workers 1``.

    Each connection replays its own seeded schedule: fresh jobs with a
    unique (min_sup, pfct), every fourth of them sharded, and after every
    two fresh jobs one resubmission of an earlier finished request, which
    the fingerprint cache serves.
    """

    name = "service-mixed"
    connections = 2
    warmup = 2  # schedule slots per connection
    cycle = 3  # a hit and two fresh jobs
    shard_every = 4
    poll_seconds = 0.005
    job_timeout = 30.0
    slots = 1200

    def setup(self) -> None:
        # The CI-scale Mushroom sample of repro.eval.datasets, rows shuffled.
        rows = list(attach_gaussian_probabilities(
            generate_mushroom_like(num_rows=90, seed=8124), mean=0.5, variance=0.5,
            seed=1, max_probability=MAX_PROBABILITY,
        ))
        random.Random(derive(self.seed, f"{self.name}:rows")).shuffle(rows)
        self.dataset = self.work_dir / "mushroom-ci.utdz"
        columnar.save_columnar(UncertainDatabase(rows), self.dataset)
        self.schedules = self._schedules()
        self.data_dir = self.work_dir / "service"
        self.process = None
        self._boot()

    def _schedules(self) -> List[List[Dict[str, Any]]]:
        rng = random.Random(derive(self.seed, f"{self.name}:schedule"))
        used = set()
        schedules = []
        for _connection in range(self.connections):
            schedule: List[Dict[str, Any]] = []
            fresh = 0
            for slot in range(self.slots):
                if slot % 3 == 2:
                    schedule.append({"hit": rng.randrange(fresh)})
                    continue
                while True:
                    key = (rng.randint(30, 33), round(rng.uniform(0.55, 0.9), 4))
                    if key not in used:
                        used.add(key)
                        break
                # exact_event_limit 64 keeps every check off the sampler, so
                # an in-process mine is an exact reference for the result.
                body = {
                    "config": {"min_sup": key[0], "pfct": key[1], "exact_event_limit": 64},
                    "processes": 1,
                }
                if fresh % self.shard_every == self.shard_every - 1:
                    body["shards"] = 2
                schedule.append({"fresh": fresh, "body": body})
                fresh += 1
            schedules.append(schedule)
        return schedules

    # -- server lifecycle ---------------------------------------------------
    def _boot(self) -> None:
        self.data_dir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        self.log = open(self.data_dir / "server.log", "w")
        launcher = (
            [str(Path(__file__).resolve().parent / "serve.py"), str(self.trace_path)]
            if self.trace else ["-m", "repro.service"]
        )
        self.process = subprocess.Popen(
            [sys.executable, *launcher, "--data-dir", str(self.data_dir),
             "--port", "0", "--workers", "1"],
            env=env, stdout=self.log, stderr=subprocess.STDOUT, cwd=str(REPO),
        )
        address_file = self.data_dir / "service.json"
        deadline = time.monotonic() + 60
        while True:
            try:  # the server writes the file in place: retry a partial read
                address = json.loads(address_file.read_text())
                break
            except (FileNotFoundError, json.JSONDecodeError):
                if self.process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"service failed to boot, see {self.log.name}")
                time.sleep(0.01)
        self.base = f"http://{address['host']}:{address['port']}"
        self.finished: List[List[Dict[str, Any]]] = [[] for _ in range(self.connections)]
        self.route_ms: Dict[str, List[float]] = {}

    @property
    def trace_path(self) -> Path:
        return self.data_dir / "trace.json"

    @property
    def pid(self) -> str:
        return str(self.process.pid)

    def exhausted(self, slot: int) -> bool:
        return slot >= self.slots

    def close(self) -> None:
        if self.process is None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
        self.log.close()
        self.process = None

    # -- client -------------------------------------------------------------
    def _request(self, method: str, path: str, route: str,
                 body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        started = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                status, payload = response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            status, payload = error.code, json.loads(error.read())
        self.route_ms.setdefault(route, []).append((time.perf_counter() - started) * 1e3)
        return status, payload

    def run_slot(self, connection: int, slot: int) -> OpRecord:
        """One schedule slot: a fresh job's or a cache hit's round trip."""
        entry = self.schedules[connection][slot]
        if "hit" in entry:
            earlier = self.finished[connection][entry["hit"]]
            status, submitted = self._request("POST", "/jobs", "POST /jobs", earlier["body"])
            if status != 201 or not submitted.get("cached"):
                raise RuntimeError(f"resubmission not served from cache: {status}")
            _, result = self._request(
                "GET", f"/jobs/{submitted['job_id']}/result", "GET /jobs/{id}/result")
            return OpRecord((connection, slot), "hit", (earlier, result), {})
        body = dict(entry["body"], database={"path": str(self.dataset)})
        status, submitted = self._request("POST", "/jobs", "POST /jobs", body)
        if status != 202:
            raise RuntimeError(f"fresh job not admitted: {status} {submitted}")
        job_path = f"/jobs/{submitted['job_id']}"
        deadline = time.monotonic() + self.job_timeout
        while True:
            _, job = self._request("GET", job_path, "GET /jobs/{id}")
            if job["state"] not in ("queued", "running"):
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"job {job['job_id']} still {job['state']} "
                                   f"after {self.job_timeout}s")
            time.sleep(self.poll_seconds)
        if job["state"] != "completed":
            raise RuntimeError(f"job {job['job_id']} ended {job['state']}: {job['error']}")
        _, result = self._request("GET", job_path + "/result", "GET /jobs/{id}/result")
        entry_done = {"body": body, "result": result}
        self.finished[connection].append(entry_done)
        stats = job["stats"]
        counters = {k: v for k, v in stats.items() if isinstance(v, int)}
        timing = {
            "queue_ms": (job["started_at"] - job["submitted_at"]) * 1e3,
            "run_ms": (job["finished_at"] - job["started_at"]) * 1e3,
            "core_ms": 1e3 * (stats["candidate_phase_seconds"]
                              + stats["search_phase_seconds"]
                              + stats["check_phase_seconds"]),
            "shard_scan_ms": stats["shard_scan_seconds"] * 1e3,
            "shard_merge_ms": stats["shard_merge_seconds"] * 1e3,
        }
        return OpRecord((connection, slot), "fresh", entry_done, counters, timing)

    def metrics(self) -> Dict[str, Any]:
        _, payload = self._request("GET", "/metrics", "GET /metrics")
        return payload

    def verify(self, records):
        """Fresh results equal an in-process mine; hits return the same document."""
        database = columnar.load_columnar(self.dataset)
        failures = {}
        for record in records:
            if record.key == "hit":
                earlier, result = record.output
                if (result["results"] != earlier["result"]["results"]
                        or result["fingerprint"] != earlier["result"]["fingerprint"]):
                    failures[record.index] = "cache hit returned a different document"
                continue
            config = MinerConfig(**record.output["body"]["config"])
            expected = json.loads(json.dumps(result_rows(MPFCIMiner(database, config).mine())))
            if record.output["result"]["results"] != expected:
                failures[record.index] = f"service result differs from in-process mine {config.describe()}"
        return failures


WORKLOADS = {cls.name: cls for cls in (MushroomSweep, QuestSampled, StreamSlide, ServiceMixed)}
