"""Parity of the incremental delta-evaluation engine (PR 4).

The delta path's contract is *bitwise* agreement with the canonical
full pass — exact serving map and utility, identical rasters — under
any single-sector perturbation (power, tilt, azimuth, on/off).  The
property tests below walk random perturbation chains and compare every
incremental snapshot against a from-scratch evaluation; the batched
scorer is held to exact serving/rate/utility (its SINR raster carries
an incrementally updated total-power plane, checked at rtol 1e-10).
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.evaluation import Evaluator
from repro.core.utility import PerformanceUtility, UtilityFunction
from repro.model import engine as engine_module
from repro.model.engine import AnalysisEngine
from repro.model.linkrate import LinkAdaptation
from repro.model.load import uniform_per_sector_density
from repro.model.network import CellularNetwork, dominates
from repro.model.pathloss import PathLossDatabase
from repro.model.plossdb import load_packed, save_packed
from repro.model.propagation import Environment
from repro.model.snapshot import NO_SERVICE

from conftest import make_sectors

_UTILITY = PerformanceUtility()


def _assert_states_equal(delta_state, full_state) -> None:
    """Bitwise parity on every snapshot field the paper's model emits."""
    assert np.array_equal(delta_state.serving, full_state.serving)
    assert np.array_equal(delta_state.raw_serving, full_state.raw_serving)
    assert np.array_equal(delta_state.rp_best_dbm, full_state.rp_best_dbm)
    assert np.array_equal(delta_state.interference_dbm,
                          full_state.interference_dbm)
    assert np.array_equal(delta_state.sinr_db, full_state.sinr_db)
    assert np.array_equal(delta_state.max_rate_bps, full_state.max_rate_bps)
    assert np.array_equal(delta_state.n_ue, full_state.n_ue)
    assert np.array_equal(delta_state.rate_bps, full_state.rate_bps)
    assert (_UTILITY.evaluate(delta_state)
            == _UTILITY.evaluate(full_state))


# -- move generation ----------------------------------------------------
_MOVES = st.lists(
    st.tuples(st.sampled_from(["power", "tilt", "toggle", "azimuth"]),
              st.integers(min_value=0, max_value=2),
              st.sampled_from([-6.0, -3.0, -1.0, 1.0, 2.0, 3.0, 6.0])),
    min_size=1, max_size=8)


def _apply_move(network: CellularNetwork, config, move):
    kind, sector, value = move
    spec = network.sector(sector)
    if kind == "power":
        new = float(np.clip(config.power_dbm(sector) + value,
                            spec.min_power_dbm, spec.max_power_dbm))
        return config.with_power(sector, new)
    if kind == "tilt":
        rng = spec.tilt_range
        new = float(np.clip(config.tilt_deg(sector) + value,
                            rng.min_deg, rng.max_deg))
        return config.with_tilt(sector, new)
    if kind == "azimuth":
        return config.with_azimuth_offset(sector, value * 5.0)
    if config.is_active(sector):
        return config.with_offline([sector])
    return config.with_online([sector])


class TestDeltaParity:
    """evaluate_delta == evaluate, bitwise, along perturbation chains."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_random_perturbation_chain(self, moves, toy_engine,
                                       toy_network, toy_density):
        config = toy_network.planned_configuration()
        _, incumbent = toy_engine.evaluate_with_incumbent(
            config, toy_density)
        for move in moves:
            new_config = _apply_move(toy_network, config, move)
            result = toy_engine.evaluate_delta(incumbent, new_config,
                                               toy_density)
            full = toy_engine.evaluate(new_config, toy_density)
            if new_config == config:
                # No-op move: not a single-sector change, delta refuses.
                assert result is None
            else:
                assert result is not None
                delta_state, incumbent = result
                _assert_states_equal(delta_state, full)
            config = new_config

    def test_off_air_to_on_air(self, toy_engine, toy_network, toy_density):
        base = toy_network.planned_configuration().with_offline([1])
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        revived = base.with_online([1])
        state, _ = toy_engine.evaluate_delta(incumbent, revived,
                                             toy_density)
        _assert_states_equal(state, toy_engine.evaluate(revived,
                                                        toy_density))
        assert (state.serving == 1).any()

    def test_all_sectors_off(self, toy_engine, toy_network, toy_density):
        base = toy_network.planned_configuration().with_offline([0, 1])
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        dark = base.with_offline([2])
        state, dark_inc = toy_engine.evaluate_delta(incumbent, dark,
                                                    toy_density)
        _assert_states_equal(state, toy_engine.evaluate(dark, toy_density))
        assert (state.serving == NO_SERVICE).all()
        assert (state.rate_bps == 0.0).all()
        # ... and back out of the blackout from the all-off incumbent.
        lit = dark.with_online([0])
        state, _ = toy_engine.evaluate_delta(dark_inc, lit, toy_density)
        _assert_states_equal(state, toy_engine.evaluate(lit, toy_density))

    def test_multi_sector_change_answered(self, toy_engine, toy_network,
                                          toy_density):
        """Any number of changed sectors is a delta; an unchanged
        configuration is not."""
        base = toy_network.planned_configuration()
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        two = base.with_power(0, 38.0).with_power(2, 38.0)
        state, child = toy_engine.evaluate_delta(incumbent, two,
                                                 toy_density)
        assert toy_engine.changed_sectors(incumbent, two) == (0, 2)
        _assert_states_equal(state, toy_engine.evaluate(two, toy_density))
        assert child.rows[1] is incumbent.rows[1]
        assert toy_engine.evaluate_delta(incumbent, base,
                                         toy_density) is None

    def test_stale_incumbent_refused_after_invalidation(
            self, toy_engine, toy_network, toy_density):
        base = toy_network.planned_configuration()
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        toy_engine.pathloss.invalidate_caches()
        trial = base.with_power(0, 38.0)
        assert (toy_engine.evaluate_delta(incumbent, trial, toy_density)
                is None)


# -- dominating changes ---------------------------------------------------
#: One power-up step: a sector and how many dB it gains (clamped to its
#: maximum); an off-air sector is lit instead.
_POWER_UPS = st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                                st.sampled_from([1.0, 2.0, 3.0])),
                      min_size=1, max_size=8)

#: One mixed multi-sector link: a dominating move (power up or lit) on
#: one sector and a losing move (power down, tilt, off air) on another,
#: plus optionally a second dominating move on the third.
_MIXED_LINKS = st.lists(
    st.tuples(st.permutations([0, 1, 2]),
              st.sampled_from([1.0, 3.0, 6.0]),
              st.sampled_from([("power", -3.0), ("power", -1.0),
                               ("tilt", 1.0), ("tilt", -2.0),
                               ("off", 0.0)]),
              st.booleans()),
    min_size=1, max_size=5)


def _power_up(network, config, sector, step):
    """``sector`` lit if off air, else ``step`` dB louder (clamped)."""
    if not config.is_active(sector):
        return config.with_online([sector])
    spec = network.sector(sector)
    return config.with_power(sector, min(config.power_dbm(sector) + step,
                                         spec.max_power_dbm))


def _assert_delta_exact(engine, parent, config, density):
    """One delta: its state and its incumbent's derived arrays equal a
    dense evaluation of ``config`` bit for bit.  Returns the child."""
    state, child = engine.evaluate_delta(parent, config, density)
    _assert_states_equal(state, engine.evaluate(config, density))
    prepared = engine.evaluate_with_incumbent(config, density)[1]
    for name in ("total_mw", "raw_serving", "best_mw"):
        got, want = getattr(child, name), getattr(prepared, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name
    return child


class TestDominatingDeltaParity:
    """A changed sector whose new row dominates its old one keeps every
    cell it served, so the delta skips the serving repair there; the
    result stays bitwise equal to ``evaluate``."""

    @pytest.fixture
    def worlds(self, tmp_path, toy_grid, toy_network, toy_engine,
               toy_density):
        """(network, engine, density): the unclipped float64 dict
        backend, the clipped float32 packed backend, and co-sited
        co-aimed twins (sectors 0 and 1 tie wherever their settings
        match)."""
        path = str(tmp_path / "toy.plossdb")
        save_packed(PathLossDatabase.from_environment(
            toy_network, Environment.flat(toy_grid), shadowing_sigma_db=0.0,
            seed=0, clip_floor_db=-110.0), path)
        twins = CellularNetwork(make_sectors(
            [(0.0, 0.0), (0.0, 0.0), (1_000.0, 0.0)],
            azimuths=[0.0, 0.0, 90.0], power_dbm=35.0, max_power_dbm=41.0))
        out = [(toy_network, toy_engine, toy_density)]
        for network, db in (
                (toy_network, load_packed(path)),
                (twins, PathLossDatabase.from_environment(
                    twins, Environment.flat(toy_grid),
                    shadowing_sigma_db=0.0, seed=0, clip_floor_db=-110.0))):
            engine = AnalysisEngine(db, link=LinkAdaptation())
            out.append((network, engine, uniform_per_sector_density(
                engine.evaluate(network.planned_configuration(),
                                np.zeros(engine.grid.shape)), 90.0)))
        assert out[1][1].pathloss.plane_dtype == np.float32
        return out

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=_POWER_UPS)
    def test_power_up_chain(self, steps, worlds, monkeypatch):
        """Each step dominates, so no delta along the chain repairs a
        cell; every child still equals ``evaluate``."""
        repairs = []
        argmax_rows = engine_module._argmax_rows

        def spy(*args, **kwargs):
            repairs.append(args)
            return argmax_rows(*args, **kwargs)

        monkeypatch.setattr(engine_module, "_argmax_rows", spy)
        for network, engine, density in worlds:
            # Sector 1 starts off air and sector 0 low: the chain
            # lights one and climbs the other past the twin it ties.
            config = (network.planned_configuration().with_offline([1])
                      .with_power(0, 32.0))
            incumbent = engine.evaluate_with_incumbent(config, density)[1]
            for sector, step in [(1, 1.0), (0, 3.0)] + steps:
                new_config = _power_up(network, config, sector, step)
                if new_config == config:
                    continue
                assert dominates(config.settings[sector],
                                 new_config.settings[sector])
                incumbent = _assert_delta_exact(engine, incumbent,
                                                new_config, density)
                config = new_config
        assert repairs == []

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(links=_MIXED_LINKS)
    def test_mixed_multi_sector_delta(self, links, worlds):
        """Deltas that change a dominating and a losing sector together
        repair only the losing sector's cells, and stay exact."""
        for network, engine, density in worlds:
            config = network.planned_configuration()
            incumbent = engine.evaluate_with_incumbent(config, density)[1]
            for order, step, (kind, value), both in links:
                up, down, extra = order
                new_config = _power_up(network, config, up, step)
                if kind == "off":
                    new_config = new_config.with_offline([down])
                else:
                    new_config = _apply_move(network, new_config,
                                             (kind, down, value))
                if both:
                    new_config = _power_up(network, new_config, extra, step)
                if new_config == config:
                    continue
                incumbent = _assert_delta_exact(engine, incumbent,
                                                new_config, density)
                config = new_config


class TestBatchParity:
    """evaluate_batch: exact serving/rate/utility, near-exact SINR."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_batch_matches_canonical(self, moves, toy_engine,
                                     toy_network, toy_density):
        base = toy_network.planned_configuration()
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        configs = []
        for move in moves:
            candidate = _apply_move(toy_network, base, move)
            if candidate != base:
                configs.append(candidate)
        if not configs:
            return
        batch = toy_engine.evaluate_batch(incumbent, configs, toy_density)
        assert batch is not None
        for k, config in enumerate(configs):
            full = toy_engine.evaluate(config, toy_density)
            assert np.array_equal(batch.serving[k], full.serving)
            assert np.array_equal(batch.max_rate_bps[k], full.max_rate_bps)
            assert np.array_equal(batch.n_ue[k], full.n_ue)
            assert np.array_equal(batch.rate_bps[k], full.rate_bps)
            assert np.allclose(batch.sinr_db[k], full.sinr_db,
                               rtol=1e-10, atol=0.0)

    def test_batch_rejects_multi_sector_candidates(self, toy_engine,
                                                   toy_network,
                                                   toy_density):
        base = toy_network.planned_configuration()
        _, incumbent = toy_engine.evaluate_with_incumbent(base, toy_density)
        two = base.with_power(0, 38.0).with_power(1, 38.0)
        assert toy_engine.evaluate_batch(incumbent, [two],
                                         toy_density) is None

    def test_single_sector_network(self, toy_grid):
        """The runner-up comparator degenerates safely at S=1."""
        network = CellularNetwork(make_sectors([(0.0, 0.0)],
                                               power_dbm=35.0,
                                               max_power_dbm=41.0))
        db = PathLossDatabase.from_environment(
            network, Environment.flat(toy_grid), shadowing_sigma_db=0.0)
        engine = AnalysisEngine(db, link=LinkAdaptation())
        density = uniform_per_sector_density(
            engine.evaluate(network.planned_configuration(),
                            np.zeros(engine.grid.shape)), 90.0)
        base = network.planned_configuration()
        _, incumbent = engine.evaluate_with_incumbent(base, density)
        lowered = base.with_power(0, 20.0)
        batch = engine.evaluate_batch(incumbent, [lowered], density)
        full = engine.evaluate(lowered, density)
        assert np.array_equal(batch.serving[0], full.serving)
        assert np.array_equal(batch.rate_bps[0], full.rate_bps)


class TestEvaluatorStrategies:
    """The strategy knob: delta and full answer identically."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_strategies_agree_exactly(self, moves, toy_engine,
                                      toy_network, toy_density):
        delta_ev = Evaluator(toy_engine, toy_density, "performance",
                             strategy="delta")
        full_ev = Evaluator(toy_engine, toy_density, "performance",
                            strategy="full")
        config = toy_network.planned_configuration()
        for move in moves:
            config = _apply_move(toy_network, config, move)
            assert (delta_ev.utility_of(config)
                    == full_ev.utility_of(config))
            _assert_states_equal(delta_ev.state_of(config),
                                 full_ev.state_of(config))

    def test_score_candidates_matches_utility_of(self, toy_engine,
                                                 toy_network, toy_density):
        evaluator = Evaluator(toy_engine, toy_density, "performance",
                              strategy="delta")
        base = toy_network.planned_configuration()
        evaluator.utility_of(base)          # anchor the incumbent
        candidates = [base.with_power(0, 38.0), base.with_power(1, 33.0),
                      base.with_tilt(2, 6.0), base.with_offline([1])]
        scores = evaluator.score_candidates(candidates)
        reference = Evaluator(toy_engine, toy_density, "performance",
                              strategy="full")
        for config, score in zip(candidates, scores):
            assert score == reference.utility_of(config)

    def test_score_candidates_full_strategy_falls_back(
            self, toy_engine, toy_network, toy_density):
        evaluator = Evaluator(toy_engine, toy_density, "performance",
                              strategy="full")
        base = toy_network.planned_configuration()
        candidates = [base.with_power(0, 38.0), base.with_power(1, 33.0)]
        scores = evaluator.score_candidates(candidates)
        assert scores == [evaluator.utility_of(c) for c in candidates]

    def test_custom_utility_override_not_batched(self, toy_engine,
                                                 toy_network, toy_density):
        class WorstGrid(UtilityFunction):
            name = "worst-grid"

            def per_ue(self, rate_bps):
                return np.asarray(rate_bps, dtype=float)

            def evaluate(self, state):   # non-additive: max-min fairness
                return float(state.rate_bps.min())

        evaluator = Evaluator(toy_engine, toy_density, WorstGrid(),
                              strategy="delta")
        base = toy_network.planned_configuration()
        evaluator.utility_of(base)
        candidates = [base.with_power(0, 38.0)]
        scores = evaluator.score_candidates(candidates)
        assert scores == [evaluator.utility_of(candidates[0])]

    def test_unknown_strategy_rejected(self, toy_engine, toy_density):
        with pytest.raises(ValueError, match="strategy"):
            Evaluator(toy_engine, toy_density, "performance",
                      strategy="turbo")

    def test_delta_metrics_counted(self, toy_engine, toy_network,
                                   toy_density):
        from repro.obs import MetricsRegistry, set_registry
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            evaluator = Evaluator(toy_engine, toy_density, "performance",
                                  strategy="delta")
            base = toy_network.planned_configuration()
            evaluator.utility_of(base)                   # fallback (anchor)
            evaluator.utility_of(base.with_power(0, 38.0))   # delta hit
            snap = registry.snapshot()
            assert snap["magus.engine.delta_fallbacks"]["value"] == 1
            assert snap["magus.engine.delta_evaluations"]["value"] == 1
        finally:
            set_registry(previous)


class TestMultiSectorRing:
    """A configuration several sectors from a ring anchor is a delta,
    and lands in the ring where a full evaluation would have put it."""

    @pytest.fixture
    def registry(self):
        from repro.obs import MetricsRegistry, set_registry
        registry = MetricsRegistry()
        previous = set_registry(registry)
        yield registry
        set_registry(previous)

    def test_ring_and_fallbacks(self, registry, monkeypatch, toy_engine,
                                toy_network, toy_density):
        evaluator = Evaluator(toy_engine, toy_density, "performance")
        a = toy_network.planned_configuration()
        b = a.with_power(0, 38.0).with_power(1, 33.0).with_tilt(2, 6.0)
        evaluator.utility_of(a)
        evaluator.utility_of(b)
        # Where a dense evaluation of b would leave them: b, then a.
        assert [inc.config for inc in evaluator._incumbents] == [b, a]
        counts = registry.snapshot()
        assert counts["magus.engine.delta_fallbacks"]["value"] == 1
        assert counts["magus.engine.delta_evaluations"]["value"] == 1
        _assert_states_equal(evaluator.state_of(b),
                             toy_engine.evaluate(b, toy_density))

        # A new epoch empties the ring: the next evaluation is dense.
        toy_engine.pathloss.invalidate_caches()
        c = b.with_power(0, 36.0)
        anchors = []
        anchor = toy_engine.evaluate_with_incumbent

        def counting_anchor(*args, **kwargs):
            anchors.append(args[0])
            return anchor(*args, **kwargs)

        monkeypatch.setattr(toy_engine, "evaluate_with_incumbent",
                            counting_anchor)
        evaluator.utility_of(c)
        assert anchors == [c]
        counts = registry.snapshot()
        assert counts["magus.engine.delta_fallbacks"]["value"] == 2
        assert counts["magus.engine.delta_evaluations"]["value"] == 1
        assert [inc.config for inc in evaluator._incumbents] == [c]

    def test_fewest_changed_anchor_wins(self, toy_engine, toy_network,
                                        toy_density):
        """Among usable anchors, the one with the fewest changed
        sectors is the parent; a one-sector child keeps it in front."""
        evaluator = Evaluator(toy_engine, toy_density, "performance")
        a = toy_network.planned_configuration()
        b = a.with_power(0, 38.0).with_power(1, 33.0)
        evaluator.utility_of(a)
        evaluator.utility_of(b)                  # ring: [b, a]
        c = a.with_power(2, 30.0)                # 1 from a, 3 from b
        evaluator.utility_of(c)
        assert [inc.config for inc in evaluator._incumbents] == [a, c]
        _assert_states_equal(evaluator.state_of(c),
                             toy_engine.evaluate(c, toy_density))


class TestParentReanchor:
    """Candidate scoring anchors on the caller's parent configuration.

    A search's current configuration can be a memo-cache hit with a
    pinned state whose delta anchor the two-entry ring already
    evicted, so reading its state anchors nothing.  Its one-sector
    candidates are then two sectors from every anchor; scoring must
    re-anchor the parent once rather than pay a full evaluation per
    candidate.
    """

    @pytest.fixture
    def registry(self):
        from repro.obs import MetricsRegistry, set_registry
        registry = MetricsRegistry()
        previous = set_registry(registry)
        yield registry
        set_registry(previous)

    @staticmethod
    def _evicted_start(evaluator, area, targets):
        """``C_upgrade``, memoized with its state pinned but pushed out
        of the anchor ring by two configurations three sectors away
        from it and each other."""
        planned = area.planned_config
        start = planned.with_offline(targets)
        evaluator.state_of(start)
        others = [s for s in range(area.network.n_sectors)
                  if s not in targets][:3]
        for delta in (-3.0, -6.0):
            far = planned
            for s in others:
                far = far.with_power(s, planned.power_dbm(s) + delta)
            evaluator.utility_of(far)
        assert all(inc.config != start for inc in evaluator._incumbents)
        return start

    def test_one_full_anchor_per_iteration(self, registry, small_area,
                                           monkeypatch):
        from repro.core.search import tune_power
        area = small_area
        site = min(area.network.sites.values(),
                   key=lambda s: s.x ** 2 + s.y ** 2)
        targets = list(site.sector_ids)
        evaluator = Evaluator(area.engine, area.ue_density, "performance")
        start = self._evicted_start(evaluator, area, targets)

        anchors = []
        per_call = []
        anchor = area.engine.evaluate_with_incumbent
        score = evaluator.score_candidates

        def counting_anchor(*args, **kwargs):
            anchors.append(args[0])
            return anchor(*args, **kwargs)

        def counting_score(*args, **kwargs):
            before = len(anchors)
            out = score(*args, **kwargs)
            per_call.append(len(anchors) - before)
            return out

        monkeypatch.setattr(area.engine, "evaluate_with_incumbent",
                            counting_anchor)
        monkeypatch.setattr(evaluator, "score_candidates", counting_score)
        got = tune_power(evaluator, area.network, start, area.baseline,
                         targets)
        monkeypatch.undo()

        snap = registry.snapshot()
        iterations = snap["magus.search.power.iterations"]["value"]
        assert iterations >= 2 and per_call
        assert len(anchors) <= iterations + 1
        assert max(per_call) <= 1           # one anchor per search step
        assert snap["magus.evaluator.reanchors"]["value"] >= 1

        full = Evaluator(area.engine, area.ue_density, "performance",
                         strategy="full")
        want = tune_power(full, area.network, start, area.baseline,
                          targets)
        assert got.final_config == want.final_config
        assert got.final_utility == want.final_utility
        assert ([s.change for s in got.steps]
                == [s.change for s in want.steps])
        assert ([s.utility for s in got.steps]
                == [s.utility for s in want.steps])

    def test_anchored_parent_is_not_reanchored(self, registry,
                                               toy_evaluator, toy_network):
        base = toy_network.planned_configuration()
        toy_evaluator.utility_of(base)
        toy_evaluator.score_candidates([base.with_power(0, 38.0)],
                                       parent=base)
        assert "magus.evaluator.reanchors" not in registry.snapshot()

    def test_reanchor_in_report(self, registry, toy_evaluator,
                                toy_network):
        from repro.obs.report import RunReport
        base = toy_network.planned_configuration()
        toy_evaluator.utility_of(base)
        for power in (30.0, 25.0):           # evict base's anchor
            toy_evaluator.utility_of(base.with_power(0, power)
                                     .with_power(2, power))
        scores = toy_evaluator.score_candidates(
            [base.with_power(1, 38.0)], parent=base)
        assert scores == [toy_evaluator.utility_of(base.with_power(1, 38.0))]
        report = RunReport.from_registry("test", registry=registry)
        assert report.delta_metrics()["magus.evaluator.reanchors"] == 1
        assert "magus.evaluator.reanchors" in report.to_table()


class TestSearchParityEndToEnd:
    """Full mitigation plans agree across strategies on the toy world."""

    @pytest.mark.parametrize("tuning", ["power", "tilt", "joint"])
    def test_plans_agree(self, tuning, toy_network, toy_engine,
                         toy_density):
        from repro.core.magus import Magus
        plans = {}
        for strategy in ("delta", "full"):
            magus = Magus(toy_network, toy_engine, toy_density,
                          evaluation_strategy=strategy)
            plans[strategy] = magus.plan_mitigation([1], tuning=tuning)
        assert (plans["delta"].c_after == plans["full"].c_after)
        assert (plans["delta"].f_after == plans["full"].f_after)


# ----------------------------------------------------------------------
def _parallel_evaluator(network, engine, density, workers) -> Evaluator:
    """The evaluator of a ``strategy="parallel"``, ``workers=N`` Magus."""
    from repro.core.magus import Magus
    return Magus(network, engine, density, _UTILITY,
                 evaluation_strategy="parallel", workers=workers).evaluator


def _power_ladder(network, config, sectors, deltas):
    """Single-sector power candidates around ``config`` (in-range)."""
    candidates = []
    for sector in sectors:
        spec = network.sector(sector)
        for delta in deltas:
            power = float(np.clip(config.power_dbm(sector) + delta,
                                  spec.min_power_dbm,
                                  spec.max_power_dbm))
            candidates.append(config.with_power(sector, power))
    return candidates


class TestParallelParity:
    """``strategy="parallel"`` plans in-process, bitwise-identical to
    ``"delta"``, whatever the worker count: ``workers`` sizes only the
    scenario pool of :meth:`UpgradePlanner.sweep_scenarios`, so one
    mitigation never forks.
    """

    @pytest.mark.parametrize("workers", [1, 2, 6])
    def test_score_candidates_bitwise(self, workers, toy_network,
                                      toy_engine, toy_density):
        base = toy_network.planned_configuration()
        candidates = _power_ladder(toy_network, base, (0, 1, 2),
                                   (-3.0, -1.0, 1.0, 2.0, 3.0))
        serial = Evaluator(toy_engine, toy_density, _UTILITY,
                           strategy="delta")
        serial.utility_of(base)
        want = serial.score_candidates(candidates)
        parallel = _parallel_evaluator(toy_network, toy_engine,
                                       toy_density, workers)
        parallel.utility_of(base)
        assert parallel.score_candidates(candidates) == want
        assert multiprocessing.active_children() == []

    def test_workers_1_never_forks(self, toy_network, toy_engine,
                                   toy_density):
        base = toy_network.planned_configuration()
        ev = _parallel_evaluator(toy_network, toy_engine, toy_density, 1)
        ev.utility_of(base)
        ev.score_candidates(_power_ladder(
            toy_network, base, (0, 1, 2), (-1.0, 1.0, 2.0)))
        assert multiprocessing.active_children() == []

    @given(moves=_MOVES)
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_chain_bitwise(self, moves, toy_network, toy_engine,
                                  toy_density):
        """Parity holds from any reachable incumbent, not just C_before."""
        config = toy_network.planned_configuration()
        for move in moves:
            config = _apply_move(toy_network, config, move)
        candidates = _power_ladder(toy_network, config, (0, 1, 2),
                                   (-2.0, -1.0, 1.0, 2.0))
        serial = Evaluator(toy_engine, toy_density, _UTILITY,
                           strategy="delta")
        serial.utility_of(config)
        want = serial.score_candidates(candidates)
        parallel = _parallel_evaluator(toy_network, toy_engine,
                                       toy_density, 2)
        parallel.utility_of(config)
        assert parallel.score_candidates(candidates) == want

    @pytest.mark.parametrize("tuning", ["power", "tilt", "joint"])
    @pytest.mark.parametrize("workers", [1, 2, 6])
    def test_plans_agree(self, tuning, workers, toy_network, toy_engine,
                         toy_density):
        from repro.core.magus import Magus
        serial = Magus(toy_network, toy_engine, toy_density,
                       evaluation_strategy="delta")
        want = serial.plan_mitigation([1], tuning=tuning)
        with Magus(toy_network, toy_engine, toy_density,
                   evaluation_strategy="parallel",
                   workers=workers) as magus:
            got = magus.plan_mitigation([1], tuning=tuning)
            assert multiprocessing.active_children() == []
        assert got.c_after == want.c_after
        assert got.f_after == want.f_after
        assert got.tuning.n_steps == want.tuning.n_steps

    def test_parallel_strategy_plans_in_process(self, toy_network,
                                                toy_engine, toy_density):
        """The claim behind retiring candidate pooling: a ``workers=2``
        parallel Magus forks nothing, plans bit for bit like
        ``"delta"``, and closes idempotently."""
        from repro.core.magus import Magus
        want = Magus(toy_network, toy_engine, toy_density,
                     evaluation_strategy="delta").plan_mitigation(
                         [1], tuning="joint")
        magus = Magus(toy_network, toy_engine, toy_density,
                      evaluation_strategy="parallel", workers=2)
        got = magus.plan_mitigation([1], tuning="joint")
        assert multiprocessing.active_children() == []
        assert got.c_after == want.c_after
        assert repr(got.f_after) == repr(want.f_after)
        assert got.tuning.steps == want.tuning.steps
        magus.close()
        magus.close()
        assert multiprocessing.active_children() == []

    def test_brute_force_agrees(self, toy_network, toy_engine,
                                toy_density):
        from repro.core.brute import BruteForceSettings
        from repro.core.magus import Magus
        settings_ = BruteForceSettings(unit_db=2.0, max_delta_db=4.0)
        serial = Magus(toy_network, toy_engine, toy_density,
                       evaluation_strategy="delta")
        want = serial.brute_force_plan([1], settings_)
        with Magus(toy_network, toy_engine, toy_density,
                   evaluation_strategy="parallel", workers=2) as magus:
            got = magus.brute_force_plan([1], settings_)
        assert got.c_after == want.c_after
        assert got.f_after == want.f_after

    def test_gradual_agrees(self, toy_network, toy_engine, toy_density):
        from repro.core.magus import Magus
        serial = Magus(toy_network, toy_engine, toy_density,
                       evaluation_strategy="delta")
        plan_s = serial.plan_mitigation([1], tuning="power")
        want = serial.gradual_schedule(plan_s)
        with Magus(toy_network, toy_engine, toy_density,
                   evaluation_strategy="parallel", workers=2) as magus:
            plan_p = magus.plan_mitigation([1], tuning="power")
            got = magus.gradual_schedule(plan_p)
        assert plan_p.c_after == plan_s.c_after
        assert got.configs == want.configs
        assert got.utilities == want.utilities
        assert got.compensation_steps == want.compensation_steps
