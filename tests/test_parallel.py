"""The multi-core planning subsystem.

Covers :mod:`repro.parallel` and the site that owns its pool: the
:class:`EvaluationService` (single-worker and staleness handling,
counters, worker lifecycle — no orphans after ``close()`` — and its
in-process windowed scorers) and the planner-level scenario sweep,
whose pooled outcomes and merged worker telemetry must equal the
serial loop's.  That ``strategy="parallel"`` plans in-process and
bitwise-equal to ``"delta"`` lives in ``test_delta_engine.py``;
supervision under injected faults lives in ``test_chaos.py``.
"""

from __future__ import annotations

import multiprocessing
import threading

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.utility import PerformanceUtility
from repro.obs import (MetricsRegistry, get_registry, set_registry,
                       split_metric_label, use_registry)
from repro.parallel import EvaluationService, resolve_workers

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


def _square(x):
    return x * x


@pytest.fixture
def registry():
    previous = set_registry(MetricsRegistry())
    try:
        yield get_registry()
    finally:
        set_registry(previous)


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
        return EvaluationService(engine, density, _UTILITY, workers,
                                 **kwargs)

    def test_score_batch_matches_serial(self, toy_network, toy_engine,
                                        toy_density):
        """The in-process windowed scorer equals the evaluator's
        candidate scores and forks nothing."""
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
            assert not service.running
        assert got == want

    def test_close_leaves_no_orphans(self, toy_engine, toy_density):
        service = self._service(toy_engine, toy_density)
        assert service.run_tasks(_square, range(5)) == [0, 1, 4, 9, 16]
        assert service.running
        service.close()
        assert not service.running
        assert multiprocessing.active_children() == []
        service.close()             # idempotent

    def test_small_batch_falls_back(self, toy_network, toy_engine,
                                    toy_density):
        """Nothing to fan out never forks: an empty dispatch answers
        ``[]`` and candidate scoring stays in-process."""
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        with self._service(toy_engine, toy_density) as service:
            assert service.run_tasks(_square, []) == []
            few = _ladder(toy_network, base, (0,), (-1.0, 1.0))
            assert service.score_batch(incumbent, few) is not None
            assert not service.running   # never even forked

    def test_single_worker_falls_back(self, toy_engine, toy_density):
        with self._service(toy_engine, toy_density,
                           workers=1) as service:
            assert service.run_tasks(_square, range(4)) is None
            assert not service.running

    def test_stale_epoch_falls_back_then_recovers(
            self, toy_engine, toy_density):
        """New path-loss rasters re-fork the pool, so workers never
        run on stale fork-inherited state."""
        with self._service(toy_engine, toy_density) as service:
            assert service.run_tasks(_square, range(3)) == [0, 1, 4]
            epoch = service._pool_epoch
            toy_engine.pathloss.invalidate_caches()
            assert toy_engine.pathloss.cache_epoch != epoch
            assert service.run_tasks(_square, range(3)) == [0, 1, 4]
            assert service._pool_epoch == toy_engine.pathloss.cache_epoch
        assert multiprocessing.active_children() == []

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
        base = toy_network.planned_configuration()
        incumbent = _incumbent_of(toy_engine, base, toy_density)
        many = _ladder(toy_network, base, (0, 1, 2),
                       (-2.0, -1.0, 1.0, 2.0))
        with self._service(toy_engine, toy_density) as service:
            assert service.run_tasks(_square, range(6)) is not None
            assert service.score_batch(incumbent, many) is not None
        assert registry.counter("magus.parallel.tasks").value == 6
        busy = registry.counter("magus.parallel.worker_busy_ns").value
        assert busy > 0
        # Every item shipped its worker's telemetry home, labeled.
        chunks = labeled_busy = 0
        for name in registry.names():
            metric, label = split_metric_label(name)
            if label is None:
                continue
            if metric == "magus.parallel.chunks":
                chunks += registry.counter(name).value
            elif metric == "magus.parallel.worker_busy_ns":
                labeled_busy += registry.counter(name).value
        assert chunks == 6
        assert labeled_busy == busy
        assert registry.counter("magus.engine.roi_evaluations").value \
            == len(many)

    def test_executor_fallback_closes_pool(self, toy_network,
                                           toy_engine, toy_density):
        """The exit-code-3 abort path of a ``workers=2`` Magus leaves
        no worker processes behind."""
        from repro.faults import (FaultInjector, FaultPlan, PushFaults,
                                  ResilientExecutor, RetryPolicy)
        from repro.core.magus import Magus
        plan_spec = FaultPlan(push=PushFaults(
            fail_steps=tuple(range(64)), fail_attempts=99))
        with Magus(toy_network, toy_engine, toy_density,
                   evaluation_strategy="parallel", workers=2) as magus:
            plan = magus.plan_mitigation([1], tuning="power")
            gradual = magus.gradual_schedule(plan)
            executor = ResilientExecutor(
                magus.evaluator, network=magus.network,
                injector=FaultInjector(plan_spec),
                policy=RetryPolicy(max_attempts=2, base_delay_s=0.0))
            rollout = executor.execute(gradual)
            assert not rollout.completed
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
        want = planner.sweep_scenarios(scenarios, workers=1,
                                       tuning="power")
        got = planner.sweep_scenarios(scenarios, workers=2,
                                      tuning="power")
        assert [o.scenario for o in got] == scenarios
        for parallel, serial in zip(got, want):
            assert parallel.plan.c_after == serial.plan.c_after
            assert parallel.plan.f_after == serial.plan.f_after
        assert multiprocessing.active_children() == []

    def test_pooled_sweep_merges_worker_telemetry(self, small_area):
        """A 2-worker sweep gives the serial loop's outcomes and the
        same ``magus.plan.model_evaluations`` total: every worker's
        counters come home, labeled per worker."""
        from repro.upgrades.planner import UpgradePlanner
        from repro.upgrades.scenario import UpgradeScenario
        scenarios = list(UpgradeScenario)
        planner = UpgradePlanner(small_area, workers=2)

        def run(workers):
            with use_registry(MetricsRegistry()) as registry:
                outcomes = planner.sweep_scenarios(
                    scenarios, workers=workers, tuning="joint")
            total = labeled = 0
            for name in registry.names():
                metric, label = split_metric_label(name)
                if metric == "magus.plan.model_evaluations":
                    total += registry.counter(name).value
                    labeled += label is not None
            return outcomes, total, labeled

        want, serial_total, serial_labeled = run(1)
        got, pooled_total, pooled_labeled = run(None)   # Magus's 2
        assert [(o.plan.c_after, o.plan.f_after,
                 o.plan.tuning.total_evaluations) for o in got] \
            == [(o.plan.c_after, o.plan.f_after,
                 o.plan.tuning.total_evaluations) for o in want]
        assert serial_total > 0 and serial_labeled == 0
        assert pooled_total == serial_total
        assert pooled_labeled >= 1
        assert multiprocessing.active_children() == []

    def test_sweep_serial_fallback_single_worker(self, small_area):
        from repro.upgrades.planner import UpgradePlanner
        from repro.upgrades.scenario import UpgradeScenario
        planner = UpgradePlanner(small_area)
        outcomes = planner.sweep_scenarios(
            [UpgradeScenario.SINGLE_SECTOR], workers=1, tuning="power")
        assert len(outcomes) == 1
        assert outcomes[0].scenario is UpgradeScenario.SINGLE_SECTOR
