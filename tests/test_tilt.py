"""Unit tests for greedy tilt tuning."""

import numpy as np
import pytest

from repro.core import tilt
from repro.core.evaluation import Evaluator
from repro.core.joint import tune_joint
from repro.core.plan import ConfigChange, Parameter, SearchStep
from repro.core.tilt import TiltSearchSettings, tune_tilt
from repro.model.engine import AnalysisEngine
from repro.model.linkrate import LinkAdaptation
from repro.model.load import uniform_per_sector_density
from repro.model.network import CellularNetwork
from repro.model.pathloss import PathLossDatabase
from repro.model.propagation import Environment
from repro.obs import MetricsRegistry, use_registry

from conftest import assert_step_utilities_exact, make_sectors


@pytest.fixture
def outage(toy_evaluator, toy_network):
    c_before = toy_network.planned_configuration()
    return c_before.with_offline([1])


class TestTiltSearch:
    def test_improves_or_holds(self, toy_evaluator, toy_network, outage):
        result = tune_tilt(toy_evaluator, toy_network, outage, [1])
        assert result.final_utility >= result.initial_utility

    def test_changes_are_uptilts_on_neighbors(self, toy_evaluator,
                                              toy_network, outage):
        result = tune_tilt(toy_evaluator, toy_network, outage, [1])
        for change in result.changes():
            assert change.parameter is Parameter.TILT
            assert change.sector_id != 1
            assert change.new_value < change.old_value   # uptilt only

    def test_tilts_stay_in_catalogue(self, toy_evaluator, toy_network,
                                     outage):
        result = tune_tilt(toy_evaluator, toy_network, outage, [1])
        for sid in range(toy_network.n_sectors):
            tilt_range = toy_network.sector(sid).tilt_range
            tilt = result.final_config.tilt_deg(sid)
            assert tilt_range.min_deg <= tilt <= tilt_range.max_deg
            assert tilt == tilt_range.clamp(tilt)

    def test_each_step_improves(self, toy_evaluator, toy_network, outage):
        result = tune_tilt(toy_evaluator, toy_network, outage, [1])
        trace = result.utility_trace()
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_max_steps_per_sector(self, toy_evaluator, toy_network, outage):
        settings = TiltSearchSettings(max_steps_per_sector=1)
        result = tune_tilt(toy_evaluator, toy_network, outage, [1],
                           settings)
        per_sector = {}
        for change in result.changes():
            per_sector[change.sector_id] = \
                per_sector.get(change.sector_id, 0) + 1
        assert all(v <= 1 for v in per_sector.values())

    def test_downtilt_extension(self, toy_evaluator, toy_network, outage):
        """allow_downtilt may add moves but can never reduce utility."""
        plain = tune_tilt(toy_evaluator, toy_network, outage, [1])
        extended = tune_tilt(toy_evaluator, toy_network, outage, [1],
                             TiltSearchSettings(allow_downtilt=True))
        assert extended.final_utility >= plain.final_utility - 1e-9

    def test_offline_neighbor_skipped(self, toy_evaluator, toy_network):
        c = toy_network.planned_configuration().with_offline([1, 2])
        result = tune_tilt(toy_evaluator, toy_network, c, [1])
        assert all(ch.sector_id != 2 for ch in result.changes())


# ----------------------------------------------------------------------
def _eager_sweep_sector(evaluator, network, config, f_current, sector_id,
                        steps, direction, settings):
    """The reference sweep: score the whole catalogue ladder in one
    ``score_candidates`` call against the sweep start, then walk it."""
    tilt_range = network.sector(sector_id).tilt_range
    ladder = []
    t = config.tilt_deg(sector_id)
    for _ in range(settings.max_steps_per_sector):
        new_tilt = (tilt_range.uptilted(t) if direction == "up"
                    else tilt_range.downtilted(t))
        if new_tilt == t:
            break
        ladder.append(new_tilt)
        t = new_tilt
    if not ladder:
        return config, f_current
    trials = [config.with_tilt(sector_id, t) for t in ladder]
    scores = evaluator.score_candidates(trials, parent=config)
    for new_tilt, trial, score in zip(ladder, trials, scores):
        if score <= f_current + tilt._EPS:
            break
        steps.append(SearchStep(
            change=ConfigChange(sector_id=sector_id,
                                parameter=Parameter.TILT,
                                old_value=config.tilt_deg(sector_id),
                                new_value=new_tilt),
            utility=score))
        config = trial
        f_current = score
    return config, f_current


class _World:
    """A network, an engine over it and its UE raster."""

    def __init__(self, network, grid, clip_floor_db=None):
        self.network = network
        pathloss = PathLossDatabase.from_environment(
            network, Environment.flat(grid), shadowing_sigma_db=0.0,
            seed=0, clip_floor_db=clip_floor_db)
        self.engine = AnalysisEngine(pathloss, link=LinkAdaptation())
        self.density = uniform_per_sector_density(
            self.engine.evaluate(network.planned_configuration(),
                                 np.zeros(self.engine.grid.shape)), 90.0)

    def evaluator(self, strategy="delta"):
        return Evaluator(self.engine, self.density, "performance",
                         strategy=strategy)


def _ring_network():
    """Six sectors on two rows, facing the middle: every sweep has
    several neighbours whose footprints overlap."""
    positions = [(-1_000.0, -500.0), (0.0, -500.0), (1_000.0, -500.0),
                 (-1_000.0, 500.0), (0.0, 500.0), (1_000.0, 500.0)]
    return CellularNetwork(make_sectors(
        positions, azimuths=[45.0, 0.0, 315.0, 135.0, 180.0, 225.0],
        power_dbm=35.0, max_power_dbm=41.0))


@pytest.fixture
def worlds(toy_grid, toy_network):
    """Whole-grid windows (no clip floor) and small ones (-110 dB)."""
    return [_World(toy_network, toy_grid),
            _World(toy_network, toy_grid, clip_floor_db=-110.0),
            _World(_ring_network(), toy_grid, clip_floor_db=-110.0)]


def _search(world, tunings, strategy, allow_downtilt):
    """Run ``tunings`` in turn on one evaluator (a later one replays
    the earlier tilt sweeps from the memo cache); return the results
    and the evaluator."""
    evaluator = world.evaluator(strategy)
    start = world.network.planned_configuration().with_offline([1])
    settings = TiltSearchSettings(allow_downtilt=allow_downtilt)
    results = []
    for tuning in tunings:
        if tuning == "tilt":
            results.append(tune_tilt(evaluator, world.network, start, [1],
                                     settings))
        else:
            results.append(tune_joint(evaluator, world.network, start,
                                      evaluator.state_of(start), [1],
                                      tilt_settings=settings))
    return results, evaluator


def _assert_same_result(got, want):
    assert [(s.change, repr(s.utility)) for s in got.steps] == \
        [(s.change, repr(s.utility)) for s in want.steps]
    assert got.final_config == want.final_config
    assert repr(got.final_utility) == repr(want.final_utility)
    assert got.termination == want.termination


class TestStepUtilitiesExact:
    @pytest.mark.parametrize("allow_downtilt", [False, True])
    def test_steps_equal_full_utility(self, worlds, allow_downtilt):
        """Accepted rungs are taken at their windowed scores: each
        recorded utility equals a full evaluation of that rung."""
        steps = 0
        for world in worlds:
            start = world.network.planned_configuration().with_offline([1])
            result = tune_tilt(world.evaluator(), world.network, start, [1],
                               TiltSearchSettings(
                                   allow_downtilt=allow_downtilt))
            steps += result.n_steps
            assert_step_utilities_exact(result, world.engine, world.density)
        assert steps


class TestRungWalkParity:
    """The rung-by-rung walk == the eager-ladder sweep, bit for bit,
    while scoring at most one rung past the last accepted one."""

    @pytest.mark.parametrize("tunings", [("tilt",), ("joint",),
                                         ("tilt", "joint")])
    @pytest.mark.parametrize("strategy", ["delta", "full"])
    @pytest.mark.parametrize("allow_downtilt", [False, True])
    def test_same_plan_within_work_bound(self, monkeypatch, worlds, tunings,
                                         strategy, allow_downtilt):
        """Same steps, bitwise utilities, final configuration and
        termination, also when a later search replays earlier sweeps
        from the memo cache."""
        walk = tilt._sweep_sector
        sweeps = []

        def counted(evaluator, *args, **kwargs):
            steps = args[4]
            accepted = len(steps)
            registry = MetricsRegistry()
            with use_registry(registry):
                meter = evaluator.cost_meter()
                out = walk(evaluator, *args, **kwargs)
            snap = registry.snapshot()

            def count(name):
                return snap.get(f"magus.engine.{name}", {}).get("value", 0)
            # Windowed scores count as ROI evaluations only; delta
            # anchors count as both.
            scored = (meter.spent() if evaluator.strategy == "full" else
                      count("roi_evaluations") - count("delta_evaluations"))
            sweeps.append((scored, len(steps) - accepted))
            return out

        for world in worlds:
            monkeypatch.setattr(tilt, "_sweep_sector", _eager_sweep_sector)
            want, _ = _search(world, tunings, strategy, allow_downtilt)
            monkeypatch.setattr(tilt, "_sweep_sector", counted)
            got, _ = _search(world, tunings, strategy, allow_downtilt)
            for got_result, want_result in zip(got, want):
                _assert_same_result(got_result, want_result)
        assert sweeps and any(accepted for _, accepted in sweeps)
        for scored, accepted in sweeps:
            assert scored <= accepted + 1

    def test_replayed_sweeps_anchor_like_the_ladder(self, monkeypatch,
                                                    worlds):
        """A joint pass after a tilt pass replays its sweeps, whose
        first rungs are memo hits: the walk anchors each sweep start
        at its first scored rung, so the delta-anchor ring ends as the
        eager ladder left it.  The memo holds the same values, less
        the scores of rungs past each sweep's end, which the ladder
        scored and the walk never reached."""
        for world in worlds:
            rings, memos = [], []
            for sweep in (_eager_sweep_sector, tilt._sweep_sector):
                monkeypatch.setattr(tilt, "_sweep_sector", sweep)
                _, evaluator = _search(world, ("tilt", "joint"), "delta",
                                       allow_downtilt=False)
                rings.append([inc.config for inc in evaluator._incumbents])
                memos.append(dict(evaluator._cache))
            assert rings[0] == rings[1]
            eager, walk = memos
            assert walk.keys() <= eager.keys()
            assert all(walk[c][1] == eager[c][1] for c in walk)
            assert all(eager[c][0] is None
                       for c in eager.keys() - walk.keys())

    def test_memo_hit_stop_leaves_start_unanchored(self, worlds):
        """The documented ring difference: a sweep whose first rung
        is a memo hit that screens worse stops without scoring, so the
        walk leaves its unanchored start out of the ring, where the
        ladder anchored it to score the unread rungs.  The sweep and a
        later search from that start still give the ladder's plan."""
        settings = TiltSearchSettings()
        for world in worlds:
            network = world.network
            start = network.planned_configuration().with_offline([1])
            probe = world.evaluator()
            f_start = probe.utility_of(start)
            found = None
            for sector in (0, 2):
                tilt_range = network.sector(sector).tilt_range
                for direction, step in (("up", tilt_range.uptilted),
                                        ("down", tilt_range.downtilted)):
                    first = step(start.tilt_deg(sector))
                    if first == start.tilt_deg(sector) or step(first) == first:
                        continue           # the ladder needs two rungs
                    rung = start.with_tilt(sector, first)
                    if probe.utility_of(rung) <= f_start + tilt._EPS:
                        found = (sector, direction, rung)
                        break
                if found:
                    break
            assert found is not None
            sector, direction, rung = found
            # Two anchors two or more sectors from the start and the
            # rung, which stay in the memo cache but leave the ring.
            other = 2 - sector
            far = start.with_online([1]).with_power(
                other, start.power_dbm(other) - 3.0)
            farther = far.with_power(other, far.power_dbm(other) - 3.0)
            results, rings = [], []
            for sweep in (_eager_sweep_sector, tilt._sweep_sector):
                evaluator = world.evaluator()
                for config in (start, rung, far, farther):
                    evaluator.utility_of(config)
                assert [inc.config for inc in evaluator._incumbents] == \
                    [far, farther]
                steps = []
                config, f_end = sweep(evaluator, network, start, f_start,
                                      sector, steps, direction=direction,
                                      settings=settings)
                assert not steps
                rings.append([inc.config for inc in evaluator._incumbents])
                later = tune_tilt(evaluator, network, start, [1], settings)
                results.append((config, repr(f_end), later))
            assert rings[0] == [start, far]
            assert rings[1] == [far, farther]
            assert results[0][:2] == results[1][:2]
            _assert_same_result(results[1][2], results[0][2])

    def test_ladder_grouped_against_first_ring_anchor(self, worlds):
        """The ring's first anchor differs from the sweep start in the
        swept sector: every rung is scored against that anchor, not
        the start, and the walk reproduces the eager sweep exactly."""
        world = worlds[2]
        start = world.network.planned_configuration().with_offline([1])
        sector = 0
        tilt_range = world.network.sector(sector).tilt_range
        # A downtilted sibling: one sector from every uptilt rung.
        sibling = start.with_tilt(
            sector, tilt_range.downtilted(start.tilt_deg(sector)))
        settings = TiltSearchSettings()
        results = []
        for sweep in (_eager_sweep_sector, tilt._sweep_sector):
            evaluator = world.evaluator()
            evaluator.utility_of(sibling)
            f_start = evaluator.utility_of(start)
            assert [inc.config for inc in evaluator._incumbents] == \
                [sibling, start]
            steps = []
            config, f_end = sweep(evaluator, world.network, start, f_start,
                                  sector, steps, direction="up",
                                  settings=settings)
            assert steps
            assert list(evaluator._roi_baselines) == [sibling]
            results.append((steps, config, repr(f_end)))
        assert results[0] == results[1]
