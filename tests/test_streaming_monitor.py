"""Tests for the incremental PFCI monitor.

The load-bearing property is *exactness*: after every slide the maintained
result set must equal re-mining the window snapshot from scratch, field for
field, on deterministic checking paths, whether a slide carries one arrival
or a batch.  The remaining tests pin the delta
semantics (old − removed + added == new), the slide-level work counters,
and the persistence of the shared support-DP cache across generations.
"""

import random

import pytest

from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase, UncertainTransaction
from repro.core.miner import MPFCIMiner
from repro.core.support import _SCALAR_DP_CAP
from repro.streaming import PFCIMonitor, SlideDelta, WindowedUncertainDatabase

ITEMS = "abcdefgh"

# High exact_event_limit keeps every Pr_FC on a deterministic path (exact /
# bound / trivial); sampled estimates depend on shared-RNG consumption order
# and cannot be compared bit-for-bit between mining orders.
CONFIG = MinerConfig(min_sup=4, pfct=0.4, exact_event_limit=64)


def random_transaction(rng, number):
    size = rng.randint(1, 5)
    items = tuple(sorted(rng.sample(ITEMS, size)))
    return UncertainTransaction(f"T{number}", items, round(rng.uniform(0.05, 1.0), 3))


def result_key(result):
    return result.to_dict()


class TestExactness:
    def test_matches_scratch_mining_across_slides(self):
        """~120 slides on a 30-transaction window: the maintained PFCI set
        equals a from-scratch mine of every window, field for field."""
        rng = random.Random(7)
        monitor = PFCIMonitor(CONFIG, window=30)
        for number in range(120):
            monitor.slide(random_transaction(rng, number))
            scratch = MPFCIMiner(monitor.window.snapshot(), CONFIG).mine()
            assert [result_key(r) for r in monitor.results()] == [
                result_key(r) for r in scratch
            ], f"slide {number}"

    def test_bootstrap_of_prefilled_window(self):
        rng = random.Random(3)
        window = WindowedUncertainDatabase(capacity=20)
        for number in range(20):
            window.append(random_transaction(rng, number))
        monitor = PFCIMonitor(CONFIG, window)
        scratch = MPFCIMiner(window.snapshot(), CONFIG).mine()
        assert [result_key(r) for r in monitor.results()] == [
            result_key(r) for r in scratch
        ]

    def test_snapshot_agrees_with_plain_database(self):
        # Guard against the monitor quietly depending on snapshot fast-path
        # internals: scratch-mining an independently built database gives
        # the same results.
        rng = random.Random(11)
        monitor = PFCIMonitor(CONFIG, window=15)
        for number in range(40):
            monitor.slide(random_transaction(rng, number))
        scratch = MPFCIMiner(UncertainDatabase(list(monitor.window)), CONFIG).mine()
        assert [result_key(r) for r in monitor.results()] == [
            result_key(r) for r in scratch
        ]


class TestBatchedSlides:
    """A slide carrying a batch of arrivals reconciles once, for the final
    window, and must leave exactly what per-arrival slides leave."""

    @pytest.mark.parametrize(
        "capacity, batch, arrivals, seed, min_sup",
        [
            (25, 1, 60, 31, 4),
            (25, 3, 90, 37, 4),
            (25, 16, 160, 41, 4),
            # Larger than the window: rows are appended and evicted within
            # one batch.
            (10, 16, 96, 43, 4),
            # The window is still filling for every batch.
            (200, 7, 70, 47, 4),
            # Above the scalar DP cap the re-mined roots' Pr_F values are
            # seeded by the padded batch DP.
            (250, 16, 320, 67, _SCALAR_DP_CAP + 2),
        ],
    )
    @pytest.mark.parametrize("backend", ["bitmap", "tuple"])
    def test_extend_matches_replay_and_scratch(
        self, capacity, batch, arrivals, seed, min_sup, backend
    ):
        config = CONFIG.variant(tidset_backend=backend, min_sup=min_sup)
        rng = random.Random(seed)
        stream = [random_transaction(rng, number) for number in range(arrivals)]
        batched = PFCIMonitor(config, window=capacity)
        replayed = PFCIMonitor(config, window=capacity)
        for start in range(0, arrivals, batch):
            block = stream[start : start + batch]
            batched.extend(block)
            for transaction in block:
                replayed.slide(transaction)
            scratch = MPFCIMiner(UncertainDatabase(list(batched.window)), config).mine()
            expected = [result_key(r) for r in scratch]
            assert [result_key(r) for r in batched.results()] == expected, start
            assert [result_key(r) for r in replayed.results()] == expected, start
        assert list(batched.window) == list(replayed.window)
        assert batched.results(), "the stream must keep some results"
        assert batched.stats.slides_processed == -(-arrivals // batch)
        assert batched.window.total_appended == arrivals

    def test_batch_delta_coherence(self):
        """old − removed + added == new across each whole batch."""
        rng = random.Random(53)
        monitor = PFCIMonitor(CONFIG, window=25)
        previous = set()
        for number in range(0, 120, 6):
            batch = [random_transaction(rng, number + k) for k in range(6)]
            delta = monitor.extend(batch)
            current = {r.itemset for r in monitor.results()}
            added = {r.itemset for r in delta.added}
            removed = {r.itemset for r in delta.removed}
            assert (previous - removed) | added == current
            assert added == current - previous
            assert removed == previous - current
            assert {r.itemset for r in delta.retained} == previous & current
            assert delta.generation == monitor.generation
            assert not set(delta.remined_branches) & set(delta.screened_branches)
            previous = current

    def test_one_rebind_per_batch(self):
        rng = random.Random(59)
        monitor = PFCIMonitor(CONFIG, window=25)
        monitor.extend(random_transaction(rng, number) for number in range(25))
        for number in range(25, 105, 16):
            before = monitor.stats.dp_generation_invalidations
            monitor.extend(random_transaction(rng, number + k) for k in range(16))
            assert monitor.stats.dp_generation_invalidations - before <= 1

    def test_empty_extend_is_a_noop(self):
        rng = random.Random(61)
        monitor = PFCIMonitor(CONFIG, window=20)
        monitor.extend(random_transaction(rng, number) for number in range(30))
        results = [result_key(r) for r in monitor.results()]
        window = list(monitor.window)
        counters = monitor.stats.report()["counters"]
        delta = monitor.extend([])
        assert not delta.changed
        assert delta.generation == monitor.generation == 30
        assert [result_key(r) for r in delta.retained] == results
        assert delta.remined_branches == delta.screened_branches == ()
        assert [result_key(r) for r in monitor.results()] == results
        assert list(monitor.window) == window
        assert monitor.stats.report()["counters"] == counters


class TestDeltas:
    def test_delta_coherence(self):
        """old − removed + added == new, and retained == old ∩ new."""
        rng = random.Random(5)
        monitor = PFCIMonitor(CONFIG, window=25)
        previous = set()
        for number in range(80):
            delta = monitor.slide(random_transaction(rng, number))
            current = {r.itemset for r in monitor.results()}
            added = {r.itemset for r in delta.added}
            removed = {r.itemset for r in delta.removed}
            retained = {r.itemset for r in delta.retained}
            assert added == current - previous
            assert removed == previous - current
            assert retained == previous & current
            assert delta.changed == bool(added or removed)
            assert delta.generation == monitor.generation
            previous = current

    def test_delta_ordering_and_summary(self):
        rng = random.Random(9)
        monitor = PFCIMonitor(CONFIG, window=25)
        for number in range(60):
            delta = monitor.slide(random_transaction(rng, number))
            for block in (delta.added, delta.removed, delta.retained):
                keys = [(len(r.itemset), r.itemset) for r in block]
                assert keys == sorted(keys)
            assert f"gen={delta.generation}" in delta.summary()


class TestCountersAndCache:
    def test_slide_counters(self):
        rng = random.Random(13)
        monitor = PFCIMonitor(CONFIG, window=25)
        for number in range(100):
            monitor.slide(random_transaction(rng, number))
        stats = monitor.stats
        assert stats.slides_processed == 100
        assert stats.pmf_incremental_updates > 0
        assert stats.pmf_full_rebuilds > 0
        assert stats.pmf_updates == (
            stats.pmf_incremental_updates + stats.pmf_full_rebuilds
        )
        assert 0.0 < stats.pmf_incremental_fraction < 1.0
        # Screening must be doing real work on this workload.
        assert stats.branches_retained > 0
        assert stats.branches_remined > 0
        report = monitor.stats.report()
        assert report["counters"]["slides_processed"] == 100
        assert "pmf_incremental_fraction" in report["derived"]

    def test_cache_persists_and_rebinds_across_generations(self):
        rng = random.Random(17)
        monitor = PFCIMonitor(CONFIG, window=25)
        for number in range(60):
            monitor.slide(random_transaction(rng, number))
        cache = monitor._cache
        assert cache is not None
        # One shared cache, rebound (and invalidated) per mined generation.
        assert cache.generation == monitor.window.generation
        assert monitor.stats.dp_generation_invalidations > 0
        assert (
            monitor.stats.dp_generation_invalidations
            == cache.generation_invalidations
        )
        # dp_* stats carry the cache's cumulative counters (copy semantics).
        assert monitor.stats.dp_cache_hits == cache.hits
        assert monitor.stats.dp_cache_misses == cache.misses

    def test_refresh_interval_forces_rebuilds(self):
        rng = random.Random(19)
        eager = PFCIMonitor(CONFIG, window=25, refresh_interval=1)
        for number in range(40):
            eager.slide(random_transaction(rng, number))
        # Every update is a forced full rebuild.
        assert eager.stats.pmf_incremental_updates == 0
        assert eager.stats.pmf_full_rebuilds > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PFCIMonitor(CONFIG, window=10, refresh_interval=0)
        with pytest.raises(ValueError):
            PFCIMonitor(CONFIG, window=10, numeric_slack=-1.0)
        with pytest.raises(ValueError):
            PFCIMonitor(CONFIG, window=0)


class TestConvenienceAPI:
    def test_append_and_extend(self):
        monitor = PFCIMonitor(CONFIG, window=10)
        delta = monitor.append("T1", "ab", 0.9)
        assert delta.generation == 1
        rng = random.Random(23)
        delta = monitor.extend(
            random_transaction(rng, number) for number in range(2, 8)
        )
        assert isinstance(delta, SlideDelta)
        assert delta.generation == 7
        assert monitor.stats.slides_processed == 2
        assert len(monitor.window) == 7
        assert "PFCIMonitor" in repr(monitor)


class TestPMFStabilityFallback:
    def test_unstable_deconvolution_falls_back_to_full_rebuild(self, monkeypatch):
        """When eviction-time deconvolution raises PMFStabilityError, the
        monitor rebuilds the item's PMF from scratch: the state afterwards
        matches the from-scratch support DP to 1e-12 and the maintained
        result set stays exact."""
        import numpy as np

        import repro.streaming.monitor as monitor_module
        from repro.core.support import PMFStabilityError, support_pmf

        rng = random.Random(29)
        # refresh_interval large enough that no scheduled rebuild interferes
        # with the fault-driven one inside the probe slide.
        monitor = PFCIMonitor(CONFIG, window=20, refresh_interval=10**6)
        for number in range(25):  # past capacity: every slide now evicts
            monitor.slide(random_transaction(rng, number))

        real_pmf_remove = monitor_module.pmf_remove
        failures = []

        def flaky_pmf_remove(pmf, probability):
            if not failures:
                failures.append((np.asarray(pmf, dtype=float), probability))
                raise PMFStabilityError("injected: deconvolution unstable")
            return real_pmf_remove(pmf, probability)

        monkeypatch.setattr(monitor_module, "pmf_remove", flaky_pmf_remove)

        rebuilds_before = monitor.stats.pmf_full_rebuilds
        # All-items transaction: the eviction is guaranteed to touch some
        # tracked item, so the flaky deconvolution actually runs.
        monitor.slide(UncertainTransaction("PROBE", tuple(ITEMS), 0.7))
        assert failures, "eviction never reached pmf_remove"
        assert monitor.stats.pmf_full_rebuilds == rebuilds_before + 1

        # Every maintained per-item PMF — the rebuilt one included — matches
        # the from-scratch DP over the live window.
        for item, state in monitor._states.items():
            scratch = support_pmf(monitor.window.item_probabilities(item))
            assert state.pmf is not None
            assert len(state.pmf) == len(scratch)
            assert float(np.abs(np.asarray(state.pmf) - scratch).max()) <= 1e-12

        # And the result set is still exact against a from-scratch mine.
        scratch_results = MPFCIMiner(monitor.window.snapshot(), CONFIG).mine()
        assert [result_key(r) for r in monitor.results()] == [
            result_key(r) for r in scratch_results
        ]

        # Later slides keep using the incremental path (the fallback is
        # per-event, not a permanent downgrade).
        incremental_before = monitor.stats.pmf_incremental_updates
        for number in range(26, 30):
            monitor.slide(random_transaction(rng, number))
        assert monitor.stats.pmf_incremental_updates > incremental_before
