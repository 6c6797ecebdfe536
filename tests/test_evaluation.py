"""Unit tests for the memoizing Evaluation component."""

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.search import tune_power
from repro.model import roi
from repro.obs import MetricsRegistry, use_registry


class TestMemoization:
    def test_repeat_lookup_is_cached(self, toy_engine, toy_network,
                                     toy_density):
        ev = Evaluator(toy_engine, toy_density, "performance")
        config = toy_network.planned_configuration()
        ev.utility_of(config)
        n = ev.model_evaluations
        ev.utility_of(config)
        ev.state_of(config)
        assert ev.model_evaluations == n == 1

    def test_equal_configs_share_entry(self, toy_engine, toy_network,
                                       toy_density):
        ev = Evaluator(toy_engine, toy_density)
        a = toy_network.planned_configuration()
        b = a.with_power(0, 40.0).with_power(0, a.power_dbm(0))  # round trip
        ev.utility_of(a)
        ev.utility_of(b)
        assert ev.model_evaluations == 1

    def test_cache_eviction(self, toy_engine, toy_network, toy_density):
        ev = Evaluator(toy_engine, toy_density, cache_size=2)
        base = toy_network.planned_configuration()
        configs = [base.with_power(0, 40.0 + i) for i in range(4)]
        for c in configs:
            ev.utility_of(c)
        assert ev.model_evaluations == 4
        ev.utility_of(configs[0])          # evicted: recomputed
        assert ev.model_evaluations == 5


class TestScoring:
    def test_utility_matches_function(self, toy_evaluator, toy_network):
        config = toy_network.planned_configuration()
        state = toy_evaluator.state_of(config)
        assert toy_evaluator.utility_of(config) == pytest.approx(
            toy_evaluator.utility.evaluate(state))

    def test_rescore_reuses_snapshot(self, toy_evaluator, toy_network):
        config = toy_network.planned_configuration()
        toy_evaluator.utility_of(config)
        n = toy_evaluator.model_evaluations
        coverage_value = toy_evaluator.rescore(config, "coverage")
        assert toy_evaluator.model_evaluations == n
        state = toy_evaluator.state_of(config)
        assert coverage_value == pytest.approx(state.covered_ue_count())

    def test_with_utility_sibling(self, toy_evaluator, toy_network):
        sibling = toy_evaluator.with_utility("coverage")
        config = toy_network.planned_configuration()
        assert sibling.utility_of(config) == pytest.approx(
            toy_evaluator.rescore(config, "coverage"))

    def test_outage_lowers_utility(self, toy_evaluator, toy_network):
        c = toy_network.planned_configuration()
        assert toy_evaluator.utility_of(c.with_offline([1])) < \
            toy_evaluator.utility_of(c)


class TestValidation:
    def test_density_shape_checked(self, toy_engine):
        with pytest.raises(ValueError):
            Evaluator(toy_engine, np.zeros((3, 3)))


class TestCacheSizing:
    """Regression: cache_size=0 must disable memoization, not crash."""

    def test_zero_cache_supported(self, toy_engine, toy_network,
                                  toy_density):
        ev = Evaluator(toy_engine, toy_density, cache_size=0)
        config = toy_network.planned_configuration()
        first = ev.utility_of(config)
        second = ev.utility_of(config)      # used to KeyError post-evict
        assert first == second
        assert ev.model_evaluations == 2    # nothing was memoized

    def test_zero_cache_score_candidates(self, toy_engine, toy_network,
                                         toy_density):
        ev = Evaluator(toy_engine, toy_density, cache_size=0)
        base = toy_network.planned_configuration()
        ev.utility_of(base)
        trials = [base.with_power(0, 38.0), base.with_power(2, 33.0)]
        scores = ev.score_candidates(trials)
        assert scores == [ev.utility_of(t) for t in trials]

    def test_negative_cache_rejected(self, toy_engine, toy_density):
        with pytest.raises(ValueError):
            Evaluator(toy_engine, toy_density, cache_size=-1)


class TestStrategyKnob:
    def test_default_is_delta(self, toy_evaluator):
        assert toy_evaluator.strategy == "delta"

    def test_full_matches_delta(self, toy_engine, toy_network,
                                toy_density):
        full = Evaluator(toy_engine, toy_density, strategy="full")
        delta = Evaluator(toy_engine, toy_density, strategy="delta")
        base = toy_network.planned_configuration()
        for config in (base, base.with_power(1, 38.0),
                       base.with_offline([0])):
            assert full.utility_of(config) == delta.utility_of(config)

    def test_with_utility_preserves_strategy(self, toy_engine,
                                             toy_density):
        ev = Evaluator(toy_engine, toy_density, strategy="full")
        assert ev.with_utility("coverage").strategy == "full"


class TestStateLifetime:
    """The memo keeps every value but pins only the states a caller
    asked for; a state the memo does not hold is read from the ring
    anchor of its configuration, or rebuilt into the ring, off the
    books."""

    @pytest.fixture
    def registry(self):
        from repro.obs import MetricsRegistry, set_registry
        registry = MetricsRegistry()
        previous = set_registry(registry)
        yield registry
        set_registry(previous)

    @staticmethod
    def _engine_calls(monkeypatch, engine):
        """Record a weak reference to every state the engine returns."""
        import weakref
        calls = []
        for name in ("evaluate", "evaluate_with_incumbent",
                     "evaluate_delta"):
            original = getattr(engine, name)

            def wrapped(*args, _original=original, **kwargs):
                out = _original(*args, **kwargs)
                state = out[0] if isinstance(out, tuple) else out
                calls.append(weakref.ref(state))
                return out
            monkeypatch.setattr(engine, name, wrapped)
        return calls

    @staticmethod
    def _chain(evaluator, base, steps):
        """``steps`` one-sector moves, each scored against its parent
        and then read through ``utility_of`` (a memo hit); returns the
        configs."""
        configs, config = [base], base
        evaluator.utility_of(base)
        for i in range(steps):
            sector = i % 3
            trial = config.with_power(sector,
                                      config.power_dbm(sector) - 0.5)
            evaluator.score_candidates([trial], parent=config)
            evaluator.utility_of(trial)
            configs.append(trial)
            config = trial
        return configs

    @staticmethod
    def _rasters(state):
        return [state.serving, state.raw_serving, state.rp_best_dbm,
                state.interference_dbm, state.sinr_db, state.max_rate_bps,
                state.n_ue, state.rate_bps]

    def test_confirmations_keep_only_ring_and_baseline_states(
            self, monkeypatch, toy_engine, toy_network, toy_density):
        ev = Evaluator(toy_engine, toy_density)
        made = self._engine_calls(monkeypatch, toy_engine)
        configs = self._chain(ev, toy_network.planned_configuration(), 50)
        # The base, then each move's re-anchoring as the next parent;
        # the last move is scored but never anchored.
        assert len(made) == 50 and len(ev._cache) == 51
        live = {id(state) for state in (ref() for ref in made)
                if state is not None}
        held = ({id(inc.state) for inc in ev._incumbents}
                | {id(b.incumbent.state) for b in ev._roi_baselines.values()})
        assert live == held and len(live) <= 4
        # Every value is still memoized.
        n = ev.model_evaluations
        for config in configs:
            ev.utility_of(config)
        assert ev.model_evaluations == n

    def test_rebuild_is_off_the_books(self, registry, toy_engine,
                                      toy_network, toy_density):
        """A rebuild anchors into the ring, counts no evaluation and
        moves no meter."""
        ev = Evaluator(toy_engine, toy_density)
        configs = self._chain(ev, toy_network.planned_configuration(), 6)
        target = configs[2]                 # long gone from the ring
        assert target not in [inc.config for inc in ev._incumbents]
        ring = list(ev._incumbents)
        order = [c for c in ev._cache if c != target] + [target]
        evaluations = ev.model_evaluations
        meter = ev.cost_meter()
        hits = registry.snapshot().get("magus.evaluator.cache_hits",
                                       {"value": 0})["value"]

        state = ev.state_of(target)

        want = toy_engine.evaluate(target, toy_density)
        for got, ref in zip(self._rasters(state), self._rasters(want)):
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()
        assert ev._incumbents[0].config == target
        assert ev._incumbents[0].state is state
        assert ev._incumbents[1] is ring[0]
        assert ev.model_evaluations == evaluations
        assert meter.spent() == 0
        assert list(ev._cache) == order     # moved to the end, as a hit
        snap = registry.snapshot()
        assert snap["magus.evaluator.cache_hits"]["value"] == hits + 1
        assert snap["magus.evaluator.state_rebuilds"]["value"] == 1

    def test_state_of_reads_a_ring_anchor(self, registry, monkeypatch,
                                          toy_engine, toy_network,
                                          toy_density):
        """A stateless entry whose configuration a ring anchor holds
        takes that anchor's state: no engine call, no rebuild, and the
        ring keeps its order."""
        ev = Evaluator(toy_engine, toy_density)
        configs = self._chain(ev, toy_network.planned_configuration(), 2)
        # configs[1] was scored through a window, then re-anchored as
        # the parent of configs[2]: in the ring, but not in the memo.
        target = configs[1]
        assert ev._cache[target][0] is None
        ring = list(ev._incumbents)
        anchor, = [inc for inc in ring if inc.config == target]
        calls = self._engine_calls(monkeypatch, toy_engine)

        state = ev.state_of(target)

        assert calls == []
        assert state is anchor.state
        assert ev._incumbents == ring
        assert ev._cache[target][0] is state     # pinned from now on
        assert registry.snapshot().get(
            "magus.evaluator.state_rebuilds", {"value": 0})["value"] == 0

    def test_rebuild_then_reanchor_costs_one_evaluation(
            self, monkeypatch, toy_engine, toy_network, toy_density):
        base = toy_network.planned_configuration()
        pinned = Evaluator(toy_engine, toy_density)
        rebuilt = Evaluator(toy_engine, toy_density)
        target = self._chain(pinned, base, 2)[-1]
        pinned.state_of(target)             # pinned while in the ring
        self._chain(pinned, target, 4)
        self._chain(rebuilt, base, 2)
        self._chain(rebuilt, target, 4)     # the same moves, unpinned
        assert all(inc.config != target for inc in rebuilt._incumbents)
        trials = [target.with_power(1, 38.0), target.with_power(2, 33.0)]

        calls = self._engine_calls(monkeypatch, toy_engine)
        want_state = pinned.state_of(target)
        want = pinned.score_candidates(trials, parent=target)
        reanchored = len(calls)
        del calls[:]
        state = rebuilt.state_of(target)
        got = rebuilt.score_candidates(trials, parent=target)

        assert reanchored == len(calls) == 1
        assert got == want
        assert ([(inc.config, inc.epoch) for inc in rebuilt._incumbents]
                == [(inc.config, inc.epoch) for inc in pinned._incumbents])
        assert any(inc.state is state for inc in rebuilt._incumbents)
        assert state.rate_bps.tobytes() == want_state.rate_bps.tobytes()

    def test_baselines_only_of_ring_anchors(self, toy_engine, toy_network,
                                            toy_density):
        """A baseline whose anchor leaves the ring is dropped with it,
        so no baseline pins an incumbent the ring let go of.  Only the
        incumbents made after the evaluator count: a study area built
        earlier in the session keeps its ``C_before`` anchor alive."""
        import gc
        from repro.model.engine import DeltaIncumbent

        def live():
            gc.collect()
            return [obj for obj in gc.get_objects()
                    if isinstance(obj, DeltaIncumbent)]

        before = live()                 # held, so their ids stay unique
        ev = Evaluator(toy_engine, toy_density)
        self._chain(ev, toy_network.planned_configuration(), 6)
        assert ev._roi_baselines
        anchors = {inc.config for inc in ev._incumbents}
        assert set(ev._roi_baselines) <= anchors
        old = {id(obj) for obj in before}
        new = [obj for obj in live() if id(obj) not in old]
        assert len(new) <= len(ev._incumbents)

    def test_state_of_twice_is_one_object(self, registry, toy_engine,
                                          toy_network, toy_density):
        ev = Evaluator(toy_engine, toy_density)
        configs = self._chain(ev, toy_network.planned_configuration(), 6)
        first = ev.state_of(configs[1])
        self._chain(ev, configs[-1], 6)     # push it out of the ring
        assert ev.state_of(configs[1]) is first
        assert ev.state_of(configs[3]) is ev.state_of(configs[3])
        snap = registry.snapshot()
        assert snap["magus.evaluator.state_rebuilds"]["value"] == 2


class TestScoreMemo:
    """Windowed candidate scores go into the ``f(C)`` memo, keyed by
    the candidate alone."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """The candidate count of every ``roi.score_windows`` run."""
        calls = []
        original = roi.score_windows

        def counted(engine, baseline, configs, *args):
            calls.append(len(configs))
            return original(engine, baseline, configs, *args)
        monkeypatch.setattr(roi, "score_windows", counted)
        return calls

    @staticmethod
    def _fan(base):
        return [base.with_power(0, 38.0), base.with_power(1, 33.0),
                base.with_power(2, 37.0)]

    def test_repeat_skips_kernel(self, kernel_calls, toy_engine,
                                 toy_network, toy_density):
        ev = Evaluator(toy_engine, toy_density)
        base = toy_network.planned_configuration()
        ev.utility_of(base)
        trials = self._fan(base)
        with use_registry(MetricsRegistry()) as reg:
            first = ev.score_candidates(trials, parent=base)
            n = ev.model_evaluations
            again = ev.score_candidates(trials, parent=base)
            values = [ev.utility_of(t) for t in trials]
            snap = reg.snapshot()
        assert kernel_calls == [len(trials)]
        assert again == values == first
        # A hit is a hit, whether scored or read: no evaluation.
        assert ev.model_evaluations == n
        assert snap["magus.evaluator.cache_hits"]["value"] == 2 * len(trials)
        assert snap["magus.engine.roi_evaluations"]["value"] == len(trials)
        # Only the misses of a mixed batch run the kernel, and each
        # counts one evaluation.
        fresh = [base.with_power(0, 39.0), base.with_power(2, 36.0)]
        mixed = ev.score_candidates([fresh[0], trials[1], fresh[1]],
                                    parent=base)
        assert kernel_calls == [len(trials), 2]
        assert ev.model_evaluations == n + 2
        assert mixed[1] == first[1]
        assert mixed[::2] == Evaluator(toy_engine, toy_density) \
            .score_candidates(fresh, parent=base)

    def test_scores_enter_memo_without_state(self, toy_engine,
                                             toy_network, toy_density):
        ev = Evaluator(toy_engine, toy_density)
        base = toy_network.planned_configuration()
        trials = self._fan(base)
        scores = ev.score_candidates(trials, parent=base)
        assert [ev._cache[t] for t in trials] == [(None, s) for s in scores]
        state = ev.state_of(trials[1])      # rebuilt, then pinned
        held, value = ev._cache[trials[1]]
        assert held is state and value == scores[1]
        want = toy_engine.evaluate(trials[1], toy_density)
        assert state.rate_bps.tobytes() == want.rate_bps.tobytes()

    def test_epoch_bump_misses(self, kernel_calls, toy_engine,
                               toy_network, toy_density):
        ev = Evaluator(toy_engine, toy_density)
        base = toy_network.planned_configuration()
        trials = self._fan(base)
        first = ev.score_candidates(trials, parent=base)
        toy_engine.pathloss.invalidate_caches()
        assert ev.score_candidates(trials, parent=base) == first
        assert kernel_calls == [len(trials), len(trials)]

    def test_zero_cache_never_stores(self, kernel_calls, toy_engine,
                                     toy_network, toy_density):
        ev = Evaluator(toy_engine, toy_density, cache_size=0)
        base = toy_network.planned_configuration()
        trials = self._fan(base)
        first = ev.score_candidates(trials, parent=base)
        assert ev.score_candidates(trials, parent=base) == first
        assert not ev._cache
        assert kernel_calls == [len(trials), len(trials)]

    def test_lru_bound(self, toy_engine, toy_network, toy_density):
        ev = Evaluator(toy_engine, toy_density, cache_size=2)
        base = toy_network.planned_configuration()
        trials = self._fan(base)
        ev.score_candidates(trials, parent=base)
        assert list(ev._cache) == trials[1:]

    def test_sibling_has_own_memo(self, kernel_calls, toy_engine,
                                  toy_network, toy_density):
        ev = Evaluator(toy_engine, toy_density)
        base = toy_network.planned_configuration()
        trials = self._fan(base)
        performance = ev.score_candidates(trials, parent=base)
        sibling = ev.with_utility("coverage")
        coverage = sibling.score_candidates(trials, parent=base)
        assert kernel_calls == [len(trials), len(trials)]
        assert sibling._cache is not ev._cache
        assert coverage == [sibling.utility_of(t) for t in trials]
        assert coverage != performance

    def test_repeated_search_records_same_costs(self, toy_engine,
                                                toy_network, toy_density):
        """A search's metered cost is its memo misses.  A second run
        on one evaluator finds every configuration of the first in
        the memo, so it costs nothing and gives the same plan; a fresh
        evaluator costs what the first run did again."""
        c_before = toy_network.planned_configuration()
        c_upgrade = c_before.with_offline([1])

        def costs(ev):
            baseline = ev.state_of(c_before)
            meter = ev.cost_meter()
            result = tune_power(ev, toy_network, c_upgrade, baseline, [1])
            return meter.spent(), result.n_steps, result.final_config

        memo = Evaluator(toy_engine, toy_density)
        first = costs(memo)
        assert first[1] and first[0] > first[1]
        assert first == costs(Evaluator(toy_engine, toy_density))
        with use_registry(MetricsRegistry()) as reg:
            second = costs(memo)
        assert reg.snapshot()["magus.evaluator.cache_hits"]["value"] > 0
        assert second == (0, first[1], first[2])


class TestPathLossEpoch:
    """The memo answers for one path-loss model: after an in-place
    raster edit, every answer equals a fresh evaluator's."""

    @staticmethod
    def _answer(ev, method, planned, trials):
        if method == "utility_of":
            return ev.utility_of(planned)
        if method == "state_of":
            state = ev.state_of(planned)
            return [state.serving.tobytes(), state.sinr_db.tobytes(),
                    state.rate_bps.tobytes()]
        return ev.score_candidates(trials, parent=planned)

    @pytest.mark.parametrize("method",
                             ["utility_of", "state_of", "score_candidates"])
    def test_stale_tilt_fault_resets_memo(self, method, toy_engine,
                                          toy_network, toy_density):
        from repro.faults import FaultInjector, FaultPlan, PathLossFaults
        ev = Evaluator(toy_engine, toy_density)
        planned = toy_network.planned_configuration()
        trials = TestScoreMemo._fan(planned)
        ev.state_of(planned)
        ev.score_candidates(trials, parent=planned)
        ev.utility_of(trials[0])
        before = self._answer(ev, method, planned, trials)

        FaultInjector(FaultPlan(seed=5, pathloss=PathLossFaults(
            n_sectors=3, mode="stale-tilt"))).corrupt_pathloss(
                toy_engine.pathloss)

        fresh = Evaluator(toy_engine, toy_density)
        want = self._answer(fresh, method, planned, trials)
        assert want != before               # the fault moved the model
        assert self._answer(ev, method, planned, trials) == want
