"""Unit tests for the offline planning pass."""

import numpy as np
import pytest

from repro.core import planning
from repro.core.evaluation import Evaluator
from repro.core.planning import (_EPS, PlanningSettings, _moves,
                                 optimize_planned_configuration)
from repro.model.engine import AnalysisEngine
from repro.model.linkrate import LinkAdaptation
from repro.model.load import uniform_per_sector_density
from repro.model.network import Configuration
from repro.model.pathloss import PathLossDatabase
from repro.model.plossdb import load_packed, save_packed
from repro.model.propagation import Environment
from repro.obs import MetricsRegistry, use_registry


def _canonical_plan(evaluator, network, config, settings=None):
    """The reference planner: every trial through ``utility_of``."""
    settings = settings or PlanningSettings()
    f_current = evaluator.utility_of(config)
    for _ in range(settings.max_passes):
        improved = False
        for sector_id in range(config.n_sectors):
            if not config.is_active(sector_id):
                continue
            for _step in range(settings.max_steps_per_sector):
                best_trial = None
                best_f = f_current
                for trial in _moves(network, config, sector_id, settings):
                    f_trial = evaluator.utility_of(trial)
                    if f_trial > best_f + _EPS:
                        best_f = f_trial
                        best_trial = trial
                if best_trial is None:
                    break
                config = best_trial
                f_current = best_f
                improved = True
        if not improved:
            break
    return config


def _settings_of(config: Configuration):
    return [(repr(s.power_dbm), repr(s.tilt_deg), s.active,
             repr(s.azimuth_offset_deg)) for s in config.settings]


def _assert_batched_matches_canonical(engine, density, network, start):
    expected = _canonical_plan(Evaluator(engine, density), network, start)
    planned = optimize_planned_configuration(Evaluator(engine, density),
                                             network, start)
    assert planned != start, "planning made no move; the test is vacuous"
    assert _settings_of(planned) == _settings_of(expected)


@pytest.fixture
def clipped_packed_market(tmp_path, toy_grid, toy_network):
    """The toy network as a packed file clipped at -110 dB, so most
    footprints cover a fraction of the grid and trials score through
    ROI windows."""
    path = tmp_path / "clipped.plossdb"
    save_packed(PathLossDatabase.from_environment(
        toy_network, Environment.flat(toy_grid), shadowing_sigma_db=0.0,
        seed=0, clip_floor_db=-110.0), path)
    engine = AnalysisEngine(load_packed(path), link=LinkAdaptation())
    density = uniform_per_sector_density(
        engine.evaluate(toy_network.planned_configuration(),
                        np.zeros(toy_grid.shape)), 90.0)
    return engine, density


class TestBatchedPlanningParity:
    """The batched screen plans bit for bit what the canonical loop
    plans, taking each winner at its windowed score."""

    def test_toy_evaluator(self, toy_engine, toy_density, toy_network):
        _assert_batched_matches_canonical(
            toy_engine, toy_density, toy_network,
            toy_network.planned_configuration())

    def test_clipped_packed_market(self, clipped_packed_market,
                                   toy_network):
        engine, density = clipped_packed_market
        with use_registry(MetricsRegistry()) as registry:
            _assert_batched_matches_canonical(
                engine, density, toy_network,
                toy_network.planned_configuration())
            assert registry.counter(
                "magus.engine.roi_evaluations").value > 0

    def test_dict_market(self, small_area):
        assert small_area.pathloss.packed_store is None
        with use_registry(MetricsRegistry()) as registry:
            _assert_batched_matches_canonical(
                small_area.engine, small_area.ue_density,
                small_area.network,
                small_area.network.planned_configuration())
            # No footprints on the unclipped dict backend: every window
            # is the whole grid.
            evaluations = registry.counter(
                "magus.engine.roi_evaluations").value
            H, W = small_area.grid.shape
            assert evaluations > 0
            assert (registry.counter("magus.engine.roi_cells").value
                    == evaluations * H * W)

    def test_one_anchor_per_committed_sector(self, toy_evaluator,
                                             toy_network, monkeypatch):
        """Each sector's line search scores every step against the
        configuration it started from: that start is its one anchored
        evaluation, paid by its first screen, whatever the number of
        moves the search then commits."""
        start = toy_network.planned_configuration()
        engine = toy_evaluator.engine
        events = []
        score_candidates = toy_evaluator.score_candidates

        def spy_scores(configs, parent=None):
            events.append(("screen", parent, list(configs)))
            return score_candidates(configs, parent=parent)

        for name in ("evaluate_with_incumbent", "evaluate_delta"):
            def spy(config_or_incumbent, *args, _real=getattr(engine, name),
                    _name=name):
                config = args[0] if _name == "evaluate_delta" \
                    else config_or_incumbent
                events.append(("anchor", config))
                return _real(config_or_incumbent, *args)
            monkeypatch.setattr(engine, name, spy)
        monkeypatch.setattr(toy_evaluator, "score_candidates", spy_scores)
        steps = []

        def spy_moves(network, config, *args):
            steps.append(config)
            return moves(network, config, *args)

        moves = planning._moves
        monkeypatch.setattr(planning, "_moves", spy_moves)
        planned = optimize_planned_configuration(toy_evaluator,
                                                 toy_network, start)
        anchors = [e[1] for e in events if e[0] == "anchor"]
        parents = [e[1] for e in events if e[0] == "screen"]
        starts = [p for i, p in enumerate(parents)
                  if i == 0 or p != parents[i - 1]]
        # The start, then each committed line search's result, anchored
        # once where it first screens.
        assert anchors == starts
        assert planned in toy_evaluator._cache
        # Some line search committed several moves: fewer anchors than
        # configurations visited.
        visited = [c for i, c in enumerate(steps) if i == 0
                   or c != steps[i - 1]]
        assert len(anchors) < len(visited)

    def test_committed_scores_equal_full_utility(self, toy_evaluator,
                                                 toy_engine, toy_density,
                                                 toy_network, monkeypatch):
        """Every screened score, each committed move's among them,
        equals a fresh full evaluation of its trial bit for bit."""
        scored = []
        score_candidates = toy_evaluator.score_candidates

        def spy_scores(configs, parent=None):
            scores = score_candidates(configs, parent=parent)
            scored.extend(zip(configs, scores))
            return scores

        monkeypatch.setattr(toy_evaluator, "score_candidates", spy_scores)
        optimize_planned_configuration(toy_evaluator, toy_network,
                                       toy_network.planned_configuration())
        reference = Evaluator(toy_engine, toy_density, strategy="full")
        assert scored
        assert [repr(score) for _, score in scored] == \
            [repr(reference.utility_of(trial)) for trial, _ in scored]


class TestPlanning:
    def test_never_reduces_utility(self, toy_evaluator, toy_network):
        start = toy_network.planned_configuration()
        planned = optimize_planned_configuration(
            toy_evaluator, toy_network, start)
        assert toy_evaluator.utility_of(planned) >= \
            toy_evaluator.utility_of(start)

    def test_result_is_single_move_local_optimum(self, toy_evaluator,
                                                 toy_network):
        """After planning, no single power step improves the utility —
        the fixed point that makes recovery ratios meaningful."""
        planned = optimize_planned_configuration(
            toy_evaluator, toy_network,
            toy_network.planned_configuration(),
            PlanningSettings(max_passes=10))
        f_star = toy_evaluator.utility_of(planned)
        for sid in range(toy_network.n_sectors):
            sector = toy_network.sector(sid)
            for delta in (1.0, -1.0):
                power = planned.power_dbm(sid) + delta
                if not (sector.min_power_dbm <= power
                        <= sector.max_power_dbm):
                    continue
                trial = planned.with_power(sid, power)
                assert toy_evaluator.utility_of(trial) <= f_star + 1e-9

    def test_zero_passes_is_identity(self, toy_evaluator, toy_network):
        start = toy_network.planned_configuration()
        planned = optimize_planned_configuration(
            toy_evaluator, toy_network, start,
            PlanningSettings(max_passes=0))
        assert planned == start

    def test_power_only_mode_keeps_tilts(self, toy_evaluator, toy_network):
        start = toy_network.planned_configuration()
        planned = optimize_planned_configuration(
            toy_evaluator, toy_network, start,
            PlanningSettings(include_tilt=False))
        for sid in range(toy_network.n_sectors):
            assert planned.tilt_deg(sid) == start.tilt_deg(sid)

    def test_offline_sectors_untouched(self, toy_evaluator, toy_network):
        start = toy_network.planned_configuration().with_offline([2])
        planned = optimize_planned_configuration(
            toy_evaluator, toy_network, start)
        assert planned.settings[2] == start.settings[2]
