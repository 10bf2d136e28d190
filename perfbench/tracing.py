"""In-memory span tracing around the public functions of each layer.

The tracer never edits the program: :func:`install` replaces a function or
method *at the name its caller resolves* (``repro.core.miner.
approx_union_probability`` rather than ``repro.core.approx.
approx_union_probability``, because the miner imported it by name) with a
wrapper that records one span per call.  A span is ``[name, start, end,
parent, op]``: ``parent`` is the index of the enclosing span on the same
thread (``-1`` at the root), ``op`` the benchmark op that was running.
Spans stay in a list until :meth:`Tracer.dump` writes them out.

A layer's self time is a span's duration minus the durations of its direct
children; wrapped calls on one thread nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

# (module, attribute path, span name, result counter): each entry wraps
# ``getattr(import_module(module), path...)``.  The result counter, when
# present, adds ``f(return value)`` to ``Tracer.counts[span name]`` so the
# self-check can compare work the wrapper saw with the program's counters.
Target = Tuple[str, str, str, Optional[Callable[[Any], int]]]

CORE_TARGETS: Sequence[Target] = (
    ("repro.core.cache", "SupportDPCache.seed_frequent_probabilities",
     "support.batch_dp", int),
    ("repro.core.cache", "SupportDPCache.frequent_probability_of_tidset",
     "support.scalar_dp", None),
    ("repro.streaming.monitor", "frequent_probability", "support.scalar_dp", None),
    ("repro.streaming.monitor", "pmf_add", "support.pmf_update", None),
    ("repro.streaming.monitor", "pmf_remove", "support.pmf_update", None),
    ("repro.core.approx", "sample_conditional_presence_batch", "support.sampler", None),
    ("repro.core.approx", "sample_conditional_presence", "support.sampler", None),
    ("repro.core.support", "tail_probability_table", "support.sampler", None),
    ("repro.core.tidsets", "BitmapTidsetEngine.intersect_many", "tidsets.intersect", None),
    ("repro.core.tidsets", "BitmapTidsetEngine.intersect", "tidsets.intersect", None),
    ("repro.core.tidsets", "BitmapTidsetEngine.extend_all_items", "tidsets.intersect", None),
    ("repro.core.tidsets", "BitmapTidsetEngine.pairwise_conjunctions",
     "tidsets.intersect", None),
    ("repro.core.miner", "chernoff_hoeffding_bound_for_tidset", "bounds.ch", None),
    ("repro.streaming.monitor", "chernoff_hoeffding_frequency_bound", "bounds.ch", None),
    ("repro.core.miner", "frequent_closed_probability_bounds", "bounds.fcp", None),
    ("repro.core.events", "ExtensionEventSystem.__init__", "events.build", None),
    ("repro.core.events", "ExtensionEventSystem.union_probability_exact",
     "events.exact", None),
    ("repro.core.miner", "approx_union_probability", "approx",
     lambda result: int(result[1])),
    ("repro.core.miner", "MPFCIMiner.mine", "miner", None),
    ("repro.core.miner", "MPFCIMiner.mine_branch", "miner", None),
    ("repro.streaming.monitor", "PFCIMonitor.slide", "streaming.slide", None),
    ("repro.streaming.window", "WindowedUncertainDatabase.snapshot",
     "streaming.snapshot", None),
    ("repro.streaming.window", "WindowedUncertainDatabase.append",
     "streaming.append", None),
)

# The benchmark's own dataset writes and reads (it calls the module
# attribute).  Not installed in the server: ``repro.data.io`` resolves the
# same attributes lazily, which would nest a second span in each one.
DATA_TARGETS: Sequence[Target] = (
    ("repro.data.columnar", "save_columnar", "data.save", None),
    ("repro.data.columnar", "load_columnar", "data.load", None),
)

# Server-side boundaries (installed in the service process by ``serve.py``).
# Mining itself runs in the supervisor's pool workers, whose spans never
# reach this process; their work is read from the job's MiningStats.
SERVICE_TARGETS: Sequence[Target] = (
    ("repro.service.app", "parse_job_request", "service.parse", None),
    ("repro.service.jobs", "JobStore.create", "service.jobstore", None),
    ("repro.service.jobs", "JobStore.save", "service.jobstore", None),
    ("repro.service.jobs", "JobStore.write_result", "service.jobstore", None),
    ("repro.service.jobs", "JobStore.discard", "service.jobstore", None),
    ("repro.service.jobs", "save_uncertain_database", "data.save", None),
    ("repro.service.jobs", "load_uncertain_database", "data.load", None),
    ("repro.service.runner", "load_uncertain_database", "data.load", None),
    ("repro.service.app", "load_uncertain_database", "data.load", None),
    ("repro.service.cache", "ResultCache.get", "service.cache", None),
    ("repro.service.cache", "ResultCache.put", "service.cache", None),
    ("repro.service.runner", "run_supervised", "runtime.supervised", None),
    ("repro.service.runner", "run_sharded", "runtime.sharded", None),
)


class Tracer:
    """Span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op: Optional[int] = None
        self.enabled = True
        self._local = threading.local()
        # Forked pool workers inherit the wrappers but can never report their
        # spans, so they stop recording.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function: Callable[..., Any], name: str,
             counter: Optional[Callable[[Any], int]]) -> Callable[..., Any]:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return function(*args, **kwargs)
            stack = self._stack()
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            spans = self.spans
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                self.counts[name] += counter(result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)


def install(tracer: Tracer, targets: Sequence[Target]) -> Callable[[], None]:
    """Wrap every target; returns a function that restores the originals."""
    restore: List[Tuple[Any, str, Any]] = []
    for module_name, path, name, counter in targets:
        owner: Any = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attribute]
        setattr(owner, attribute, tracer.wrap(original, name, counter))
        restore.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


def summarize(*span_lists: Sequence[Sequence[Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total ms and self ms (total minus children).

    Each list is one recording; parent indices point into their own list.
    """
    summary: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
    )
    for spans in span_lists:
        children_ms = [0.0] * len(spans)
        for _name, start, end, parent, _op in spans:
            if parent >= 0:
                children_ms[parent] += (end - start) * 1e3
        for index, (name, start, end, _parent, _op) in enumerate(spans):
            entry = summary[name]
            entry["calls"] += 1
            entry["total_ms"] += (end - start) * 1e3
            entry["self_ms"] += (end - start) * 1e3 - children_ms[index]
    return dict(summary)
