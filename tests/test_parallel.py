"""The multi-core evaluation subsystem (PR 5).

Covers the three layers of :mod:`repro.parallel` plus the sites that
own pools: the shared-memory plane store (packing, LRU eviction,
unlink-on-close), the :class:`EvaluationService` (threshold and
staleness fallbacks, counters, worker lifecycle — no orphans after
``close()``), and the planner-level scenario sweep.  Bitwise parity of
the parallel *strategy* lives in ``test_delta_engine.py``; here the
parity checks target the service API directly.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.utility import PerformanceUtility
from repro.obs import MetricsRegistry, set_registry
from repro.parallel import (DEFAULT_MIN_PARALLEL_BATCH, EvaluationService,
                            SharedPlaneStore, resolve_workers)
from repro.parallel.shm import (attach_array, attach_block,
                                attach_handle_block)

_UTILITY = PerformanceUtility()


def _ladder(network, config, sectors, deltas):
    out = []
    for sector in sectors:
        spec = network.sector(sector)
        for delta in deltas:
            power = float(np.clip(config.power_dbm(sector) + delta,
                                  spec.min_power_dbm,
                                  spec.max_power_dbm))
            out.append(config.with_power(sector, power))
    return out


def _incumbent_of(engine, config, density):
    _, incumbent = engine.evaluate_with_incumbent(config, density)
    return incumbent


@pytest.fixture
def registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield multiprocessing  # placeholder; tests read via get_registry
    finally:
        set_registry(previous)


# ----------------------------------------------------------------------
class TestSharedPlaneStore:
    def test_roundtrip_and_alignment(self):
        arrays = {"a": np.arange(12, dtype=np.float64).reshape(3, 4),
                  "b": np.arange(5, dtype=np.int64),
                  "c": np.array([[1.5]])}
        with SharedPlaneStore() as store:
            handles = store.export("k", arrays)
            assert set(handles) == set(arrays)
            block = attach_block(handles["a"].block)
            try:
                for name, handle in handles.items():
                    assert handle.offset % 64 == 0
                    view = attach_array(handle, block)
                    assert np.array_equal(view, arrays[name])
                    assert not view.flags.writeable
            finally:
                block.close()

    def test_export_is_cached_and_lru_bounded(self):
        with SharedPlaneStore(capacity=2) as store:
            first = store.export("k1", {"x": np.ones(4)})
            assert store.export("k1", {"x": np.ones(4)}) is first
            store.export("k2", {"x": np.ones(4)})
            store.export("k3", {"x": np.ones(4)})
            assert len(store) == 2
            assert "k1" not in store and "k3" in store

    def test_close_unlinks_blocks(self):
        store = SharedPlaneStore()
        handles = store.export("k", {"x": np.ones(8)})
        name = handles["x"].block
        store.close()
        assert store.exported_bytes == 0
        with pytest.raises(FileNotFoundError):
            attach_block(name)
        store.close()               # idempotent

    def test_spill_threshold_none_never_spills(self):
        with SharedPlaneStore() as store:
            handles = store.export("k", {"x": np.ones(8)})
            assert handles["x"].path is None

    def test_spill_export_roundtrip(self):
        """``spill_bytes=0`` routes exports to mmap-able temp files;
        workers attach through the same handle API and see the same
        read-only arrays."""
        arrays = {"a": np.arange(12, dtype=np.float32).reshape(3, 4),
                  "b": np.arange(5, dtype=np.int64)}
        with SharedPlaneStore(spill_bytes=0) as store:
            handles = store.export("k", arrays)
            path = handles["a"].path
            assert path is not None and os.path.exists(path)
            assert handles["a"].block == path    # doubles as cache key
            block = attach_handle_block(handles["a"])
            try:
                for name, handle in handles.items():
                    view = attach_array(handle, block)
                    assert np.array_equal(view, arrays[name])
                    assert not view.flags.writeable
            finally:
                block.close()
        assert not os.path.exists(path)          # close() unlinked it

    def test_spill_eviction_unlinks_file(self):
        with SharedPlaneStore(capacity=1, spill_bytes=0) as store:
            first = store.export("k1", {"x": np.ones(4)})
            store.export("k2", {"x": np.ones(4)})
            assert "k1" not in store
            assert not os.path.exists(first["x"].path)


# ----------------------------------------------------------------------
class TestResolveWorkers:
    def test_default_is_positive(self):
        assert resolve_workers(None) >= 1

    def test_explicit_passthrough(self):
        assert resolve_workers(5) == 5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)


# ----------------------------------------------------------------------
class TestEvaluationService:
    def _service(self, engine, density, workers=2, **kwargs):
        kwargs.setdefault("min_parallel_batch", 2)
        return EvaluationService(engine, density, _UTILITY, workers,
                                 **kwargs)

    def test_score_batch_matches_serial(self, toy_network, toy_engine,
                                        toy_density):
        base = toy_network.planned_configuration()
        candidates = _ladder(toy_network, base, (0, 1, 2),
                             (-2.0, -1.0, 1.0, 2.0))
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        serial = Evaluator(toy_engine, toy_density, _UTILITY,
                           strategy="delta")
        serial.utility_of(base)
        want = serial.score_candidates(candidates)
        with self._service(toy_engine, toy_density) as service:
            got = service.score_batch(incumbent, candidates)
        assert got == want

    def test_close_leaves_no_orphans(self, toy_network, toy_engine,
                                     toy_density):
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        service = self._service(toy_engine, toy_density)
        assert service.score_batch(
            incumbent, _ladder(toy_network, base, (0, 1), (-1.0, 1.0))
        ) is not None
        assert service.running
        service.close()
        assert not service.running
        assert multiprocessing.active_children() == []
        service.close()             # idempotent

    def test_small_batch_falls_back(self, toy_network, toy_engine,
                                    toy_density):
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        with self._service(
                toy_engine, toy_density,
                min_parallel_batch=DEFAULT_MIN_PARALLEL_BATCH) as service:
            few = _ladder(toy_network, base, (0,), (-1.0, 1.0))
            assert service.score_batch(incumbent, few) is None
            assert not service.running   # never even forked

    def test_single_worker_falls_back(self, toy_network, toy_engine,
                                      toy_density):
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        with self._service(toy_engine, toy_density,
                           workers=1) as service:
            many = _ladder(toy_network, base, (0, 1, 2),
                           (-2.0, -1.0, 1.0, 2.0))
            assert service.score_batch(incumbent, many) is None

    def test_stale_epoch_falls_back_then_recovers(
            self, toy_network, toy_engine, toy_density):
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        many = _ladder(toy_network, base, (0, 1, 2),
                       (-2.0, -1.0, 1.0, 2.0))
        with self._service(toy_engine, toy_density) as service:
            assert service.score_batch(incumbent, many) is not None
            toy_engine.pathloss.invalidate_caches()
            # The old incumbent's planes may be stale: refuse it.
            assert service.score_batch(incumbent, many) is None
            # A fresh incumbent re-forks the pool and works again.
            fresh = _incumbent_of(toy_engine, base, toy_density)
            serial = Evaluator(toy_engine, toy_density, _UTILITY,
                               strategy="delta")
            serial.utility_of(base)
            assert (service.score_batch(fresh, many)
                    == serial.score_candidates(many))

    def test_multi_sector_candidate_falls_back(
            self, toy_network, toy_engine, toy_density):
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        two_sector = base.with_power(0, 36.0).with_power(1, 36.0)
        batch = _ladder(toy_network, base, (0, 1, 2),
                        (-1.0, 1.0)) + [two_sector]
        with self._service(toy_engine, toy_density) as service:
            assert service.score_batch(incumbent, batch) is None

    def test_counters(self, registry, toy_network, toy_engine,
                      toy_density):
        from repro.obs import get_registry
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        many = _ladder(toy_network, base, (0, 1, 2),
                       (-2.0, -1.0, 1.0, 2.0))
        with self._service(toy_engine, toy_density) as service:
            assert service.score_batch(incumbent, many) is not None
            resident = get_registry().gauge(
                "magus.parallel.shm_bytes").value
            assert resident and resident > 0
        reg = get_registry()
        assert reg.counter("magus.parallel.tasks").value > 0
        assert reg.counter("magus.parallel.worker_busy_ns").value > 0
        assert reg.counter("magus.engine.roi_evaluations").value \
            == len(many)
        # S1: shm accounting balances — everything allocated was
        # released on close and the resident gauge is back to zero.
        allocated = reg.counter("magus.parallel.shm_allocated_bytes").value
        released = reg.counter("magus.parallel.shm_released_bytes").value
        assert allocated > 0
        assert released == allocated
        assert reg.gauge("magus.parallel.shm_bytes").value == 0

    def test_evaluator_close_shuts_pool(self, toy_network, toy_engine,
                                        toy_density):
        base = toy_network.planned_configuration()
        evaluator = Evaluator(toy_engine, toy_density, _UTILITY,
                              strategy="parallel", workers=2,
                              min_parallel_batch=2)
        evaluator.utility_of(base)
        evaluator.score_candidates(_ladder(toy_network, base, (0, 1, 2),
                                           (-1.0, 1.0, 2.0)))
        evaluator.close()
        assert multiprocessing.active_children() == []

    def test_executor_fallback_closes_pool(self, toy_network,
                                           toy_engine, toy_density):
        """The exit-code-3 abort path may not orphan workers."""
        from repro.faults import (FaultInjector, FaultPlan, PushFaults,
                                  ResilientExecutor, RetryPolicy)
        from repro.core.magus import Magus
        plan_spec = FaultPlan(push=PushFaults(
            fail_steps=tuple(range(64)), fail_attempts=99))
        with Magus(toy_network, toy_engine, toy_density,
                   evaluation_strategy="parallel", workers=2) as magus:
            magus.evaluator._service.min_parallel_batch = 2
            plan = magus.plan_mitigation([1], tuning="power")
            gradual = magus.gradual_schedule(plan)
            executor = ResilientExecutor(
                magus.evaluator, network=magus.network,
                injector=FaultInjector(plan_spec),
                policy=RetryPolicy(max_attempts=2, base_delay_s=0.0))
            rollout = executor.execute(gradual)
            assert not rollout.completed
            # _fall_back closed the evaluator's pool on abort.
            assert not magus.evaluator._service.running
            assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
class TestLRUCacheConcurrency:
    def test_concurrent_gain_tensor_mw(self, toy_network, toy_pathloss):
        """Hammer the mW caches from threads; no corruption, right data."""
        base = toy_network.planned_configuration()
        tilts = tuple(base.tilt_deg(s)
                      for s in range(toy_network.n_sectors))
        want = toy_pathloss.gain_tensor_mw(tilts).copy()
        alt = tuple(t + 1.0 for t in tilts)
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    got = toy_pathloss.gain_tensor_mw(tilts)
                    if not np.array_equal(got, want):
                        raise AssertionError("corrupted tensor")
                    toy_pathloss.gain_tensor_mw(alt)
                    toy_pathloss.gain_matrix_mw(0, tilts[0])
            except Exception as exc:   # surfaced in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_lru_cache_pickles_without_lock(self):
        import pickle
        from repro.model.pathloss import LRUCache
        cache = LRUCache(4)
        cache.put("a", 1)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get("a") == 1
        clone.put("b", 2)           # the recreated lock works
        assert "b" in clone


# ----------------------------------------------------------------------
class TestScenarioSweep:
    def test_sweep_matches_serial(self, small_area):
        from repro.upgrades.planner import UpgradePlanner
        from repro.upgrades.scenario import UpgradeScenario
        scenarios = [UpgradeScenario.SINGLE_SECTOR,
                     UpgradeScenario.FULL_SITE]
        planner = UpgradePlanner(small_area)
        want = [planner.mitigate(s, tuning="power") for s in scenarios]
        got = planner.sweep_scenarios(scenarios, workers=2,
                                      tuning="power")
        assert [o.scenario for o in got] == scenarios
        for parallel, serial in zip(got, want):
            assert parallel.plan.c_after == serial.plan.c_after
            assert parallel.plan.f_after == serial.plan.f_after
        assert multiprocessing.active_children() == []

    def test_sweep_serial_fallback_single_worker(self, small_area):
        from repro.upgrades.planner import UpgradePlanner
        from repro.upgrades.scenario import UpgradeScenario
        planner = UpgradePlanner(small_area)
        outcomes = planner.sweep_scenarios(
            [UpgradeScenario.SINGLE_SECTOR], workers=1, tuning="power")
        assert len(outcomes) == 1
        assert outcomes[0].scenario is UpgradeScenario.SINGLE_SECTOR
