"""Sparse region-of-influence evaluation.

The windowed engine's contract is *bitwise* agreement with the dense
references: footprint boxes bound exactly the nonzero gain cells,
delta snapshots equal a full :meth:`AnalysisEngine.evaluate` on every
raster, and every scoring route — the evaluator's candidate scoring,
the service's scorer, one candidate per pool item — produces the
floats of :meth:`evaluate_batch` plus the per-candidate reduction.  The property tests below drive random
perturbation chains through a clipped backend (floor high enough that
windows are genuinely small on the toy grid) and through every case
where the window is wide or the whole grid (unclipped dicts, azimuth
offsets, windows past half the grid, a single sector, full-grid
footprints, custom utilities).
"""

from __future__ import annotations

import gc
import multiprocessing
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.evaluation import Evaluator
from repro.core.magus import Magus
from repro.core.planning import PlanningSettings
from repro.core.utility import PerformanceUtility, UtilityFunction
from repro.faults.chaos import ChaosInjector, ChaosPlan, WorkerKill
from repro.model import engine as engine_module
from repro.model.engine import AnalysisEngine, DeltaIncumbent, Workspace
from repro.model.geometry import GridSpec, Region
from repro.model.linkrate import CQI_SINR_THRESHOLDS_DB, LinkAdaptation
from repro.model.load import uniform_per_sector_density
from repro.model.network import CellularNetwork, Configuration, dominates
from repro.model.pathloss import (DEFAULT_CLIP_FLOOR_DB, PathLossDatabase,
                                  plane_footprint)
from repro.model.plossdb import load_packed, pack_database, save_packed
from repro.model.propagation import Environment
from repro.model import roi
from repro.model.roi import (EMPTY_BOX, RoiBaseline, box_area,
                             box_is_empty, box_union, score_windows)
from repro.model.snapshot import NO_SERVICE
from repro.obs import MetricsRegistry, set_registry
from repro.obs.report import RunReport
from repro.parallel import EvaluationService
from repro.synthetic.market import build_area
from repro.synthetic.placement import AreaType
from repro.upgrades.scenario import UpgradeScenario, select_targets

from conftest import SMALL_DIMS, make_sectors
from test_delta_engine import _MOVES, _apply_move, _assert_states_equal

_UTILITY = PerformanceUtility()

#: On the 15x15 toy grid the default -150 dB floor leaves every
#: footprint covering the whole grid; -110 dB shrinks the boxes to
#: ~15-60% of the grid, which is the regime the windowed kernels must
#: be exercised in.
_FLOOR = -110.0

#: -120 dB leaves footprints of 40-80% of the grid: windows past half
#: the grid that still stop short of it.
_WIDE_FLOOR = -120.0

#: -100 dB leaves most of the toy grid outside every footprint: cells
#: where every row is zero, all "served" by sector 0 (the argmax's
#: first index).
_SPARSE_FLOOR = -100.0


def _clipped_pathloss(toy_grid, toy_network,
                      floor=_FLOOR) -> PathLossDatabase:
    return PathLossDatabase.from_environment(
        toy_network, Environment.flat(toy_grid),
        shadowing_sigma_db=0.0, seed=0, clip_floor_db=floor)


@pytest.fixture
def clipped_pathloss(toy_grid, toy_network) -> PathLossDatabase:
    return _clipped_pathloss(toy_grid, toy_network)


@pytest.fixture
def roi_engine(clipped_pathloss) -> AnalysisEngine:
    return AnalysisEngine(clipped_pathloss, link=LinkAdaptation())


@pytest.fixture
def dense_engine(toy_grid, toy_network) -> AnalysisEngine:
    """The reference engine over an identical (but separate) database;
    score through :class:`_DenseEvaluator`."""
    return AnalysisEngine(_clipped_pathloss(toy_grid, toy_network),
                          link=LinkAdaptation())


def _dense_utilities(engine, incumbent, configs, density,
                     utility=_UTILITY):
    """The dense reference: ``evaluate_batch`` + the per-candidate
    weighted reduction over each candidate's own raster."""
    batch = engine.evaluate_batch(incumbent, configs, density)
    weighted = utility.per_ue(batch.rate_bps) * density
    return [float(u)
            for u in weighted.reshape(len(configs), -1).sum(axis=1)]


class _DenseEvaluator(Evaluator):
    """An evaluator whose candidate scores come from the dense
    ``evaluate_batch`` reference instead of the windowed scorer."""

    def _score_windowed(self, incumbent, configs, changed):
        return _dense_utilities(self.engine, incumbent, list(configs),
                                self.ue_density, self.utility)


class _World:
    """One parity case: an engine, its network and a UE raster."""

    def __init__(self, name, network, pathloss):
        self.name = name
        self.network = network
        self.engine = AnalysisEngine(pathloss, link=LinkAdaptation())
        self.density = uniform_per_sector_density(
            self.engine.evaluate(network.planned_configuration(),
                                 np.zeros(self.engine.grid.shape)), 90.0)

    def apply(self, config, move):
        kind, sector, value = move
        return _apply_move(self.network, config,
                           (kind, sector % self.network.n_sectors, value))


@pytest.fixture
def worlds(toy_grid, toy_network, toy_pathloss, clipped_pathloss):
    """Every case the windowed kernels must hold on: small clipped
    windows; the unclipped dict backend (every window the whole grid);
    windows past half the grid; a single-sector network (no runner-up);
    duplicate rows (sectors 0 and 1 co-sited and co-aimed: whenever
    their settings match, their rows tie in every cell, and the first
    index wins); and a grid mostly outside every footprint (sector 0
    holds the all-zero cells).  Azimuth moves add rotated candidates
    (whole-grid windows) to each.
    """
    single = CellularNetwork(make_sectors([(0.0, 0.0)], power_dbm=35.0,
                                          max_power_dbm=41.0))
    twins = CellularNetwork(make_sectors(
        [(0.0, 0.0), (0.0, 0.0), (1_000.0, 0.0)],
        azimuths=[0.0, 0.0, 90.0], power_dbm=35.0, max_power_dbm=41.0))
    return [
        _World("clipped", toy_network, clipped_pathloss),
        _World("unclipped", toy_network, toy_pathloss),
        _World("wide", toy_network, _clipped_pathloss(
            toy_grid, toy_network, floor=_WIDE_FLOOR)),
        _World("single", single, _clipped_pathloss(toy_grid, single)),
        _World("twins", twins, _clipped_pathloss(toy_grid, twins)),
        _World("sparse", toy_network, _clipped_pathloss(
            toy_grid, toy_network, floor=_SPARSE_FLOOR)),
    ]


@pytest.fixture
def density(roi_engine, toy_network) -> np.ndarray:
    baseline = roi_engine.evaluate(toy_network.planned_configuration(),
                                   np.zeros(roi_engine.grid.shape))
    return uniform_per_sector_density(baseline, 90.0)


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    yield registry
    set_registry(previous)


def _candidate_fan(network, base):
    """One candidate per knob per sector (all single-sector changes)."""
    out = []
    for s in range(network.n_sectors):
        spec = network.sector(s)
        out.append(base.with_power(s, max(base.power_dbm(s) - 3.0,
                                          spec.min_power_dbm)))
        out.append(base.with_tilt(s, min(base.tilt_deg(s) + 2.0,
                                         spec.tilt_range.max_deg)))
        if base.is_active(s):
            out.append(base.with_offline([s]))
    return out


# ----------------------------------------------------------------------
class TestFootprints:
    """The v3 boxes bound exactly the nonzero cells of each plane."""

    def test_boxes_tight_and_exact(self, clipped_pathloss, toy_network):
        for s in range(toy_network.n_sectors):
            for tilt in toy_network.sector(s).tilt_range.settings:
                box = clipped_pathloss.footprint(s, tilt)
                plane = clipped_pathloss.gain_matrix_mw(s, tilt)
                rows, cols = np.nonzero(plane)
                assert rows.size, "clipped toy plane unexpectedly empty"
                assert box == (int(rows.min()), int(rows.max()) + 1,
                               int(cols.min()), int(cols.max()) + 1)
                r0, r1, c0, c1 = box
                outside = plane.copy()
                outside[r0:r1, c0:c1] = 0.0
                assert not outside.any()

    def test_unclipped_dict_returns_none(self, toy_pathloss):
        assert toy_pathloss.clip_floor_db is None
        assert toy_pathloss.footprint(0, 8.0) is None

    def test_azimuth_offset_returns_none(self, clipped_pathloss):
        tilt = clipped_pathloss.network.sector(0).tilt_range.normal_deg
        assert clipped_pathloss.footprint(0, tilt) is not None
        assert clipped_pathloss.footprint(
            0, tilt, azimuth_offset_deg=10.0) is None

    def test_packed_table_matches_dict_scan(self, tmp_path, toy_grid,
                                            toy_network, clipped_pathloss):
        path = str(tmp_path / "toy.plossdb")
        save_packed(clipped_pathloss, path)
        loaded = load_packed(path)
        assert loaded.clip_floor_db == _FLOOR
        for s in range(toy_network.n_sectors):
            for tilt in loaded.packed_store.tilt_values:
                want = clipped_pathloss.footprint(s, tilt)
                # Packed planes are the same float32 quantization the
                # dict path clips, so the boxes agree exactly.
                assert loaded.footprint(s, tilt) == want

    def test_box_helpers(self):
        assert plane_footprint(np.zeros((4, 4))) == EMPTY_BOX
        assert box_is_empty(EMPTY_BOX)
        assert box_area(EMPTY_BOX) == 0
        a, b = (1, 3, 2, 5), (2, 6, 0, 3)
        assert box_union(a, EMPTY_BOX) == a
        assert box_union(EMPTY_BOX, b) == b
        assert box_union(a, b) == (1, 6, 0, 5)
        assert box_area(a) == 6


# ----------------------------------------------------------------------
class TestRoiDeltaParity:
    """Windowed evaluate_delta == full evaluate, bitwise."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_random_perturbation_chain(self, moves, worlds):
        """Delta states along one chain, each built on the previous
        delta incumbent, and each child's window comparator."""
        for world in worlds:
            engine, density = world.engine, world.density
            config = world.network.planned_configuration()
            _, incumbent = engine.evaluate_with_incumbent(config, density)
            # A rotated pattern first: a whole-grid window in every
            # world; then sector 1 off air (an EMPTY_BOX footprint).
            chain = [("azimuth", 0, 2.0), ("toggle", 1, 1.0)] + list(moves)
            for move in chain:
                new_config = world.apply(config, move)
                if new_config == config:
                    continue
                result = engine.evaluate_delta(incumbent, new_config,
                                               density)
                assert result is not None
                state, child = result
                _assert_states_equal(state,
                                     engine.evaluate(new_config, density))
                _assert_comparator_parity(child)
                config, incumbent = new_config, child

    def test_wide_world_has_wide_windows(self, worlds):
        """The "wide" case is not vacuous: some window covers more
        than half the grid without covering all of it."""
        world = next(w for w in worlds if w.name == "wide")
        engine = world.engine
        base = world.network.planned_configuration()
        _, incumbent = engine.evaluate_with_incumbent(base, world.density)
        H, W = engine.grid.shape
        areas = []
        for candidate in _candidate_fan(world.network, base):
            changed = engine.single_sector_change(incumbent, candidate)
            if changed is not None:
                areas.append(box_area(
                    engine.roi_window(incumbent, candidate, changed)))
        assert any(H * W / 2 < area < H * W for area in areas)

    def test_windowed_path_taken(self, registry, roi_engine, toy_network,
                                 density):
        base = toy_network.planned_configuration()
        _, incumbent = roi_engine.evaluate_with_incumbent(base, density)
        trial = base.with_tilt(1, base.tilt_deg(1) + 2.0)
        roi_engine.evaluate_delta(incumbent, trial, density)
        snap = registry.snapshot()
        assert snap["magus.engine.roi_evaluations"]["value"] == 1
        assert snap["magus.engine.roi_cells"]["value"] > 0
        H, W = roi_engine.grid.shape
        assert snap["magus.engine.roi_cells"]["value"] < H * W

    def test_toggle_off_and_on(self, roi_engine, toy_network, density):
        base = toy_network.planned_configuration()
        _, incumbent = roi_engine.evaluate_with_incumbent(base, density)
        dark = base.with_offline([1])
        state, inc_dark = roi_engine.evaluate_delta(incumbent, dark,
                                                    density)
        _assert_states_equal(state, roi_engine.evaluate(dark, density))
        lit = dark.with_online([1])
        state, _ = roi_engine.evaluate_delta(inc_dark, lit, density)
        _assert_states_equal(state, roi_engine.evaluate(lit, density))

    def test_azimuth_move_falls_back_correctly(self, registry, roi_engine,
                                               toy_network, density):
        """Rotated patterns have no stored box — a whole-grid window,
        same result."""
        base = toy_network.planned_configuration()
        _, incumbent = roi_engine.evaluate_with_incumbent(base, density)
        turned = base.with_azimuth_offset(1, 10.0)
        state, _ = roi_engine.evaluate_delta(incumbent, turned, density)
        _assert_states_equal(state, roi_engine.evaluate(turned, density))
        snap = registry.snapshot()
        H, W = roi_engine.grid.shape
        assert snap["magus.engine.roi_evaluations"]["value"] == 1
        assert snap["magus.engine.roi_cells"]["value"] == H * W


# ----------------------------------------------------------------------
#: One sector move of an any-k link: power, tilt or off-air toggles.
_SECTOR_MOVE = st.tuples(st.sampled_from(["power", "tilt", "toggle"]),
                         st.integers(min_value=0, max_value=2),
                         st.sampled_from([-6.0, -3.0, -1.0, 1.0, 3.0, 6.0]))

#: Chains of links, each link 2-4 sector moves applied together.
_MULTI_MOVES = st.lists(st.lists(_SECTOR_MOVE, min_size=2, max_size=4),
                        min_size=1, max_size=4)


def _assert_incumbent_equal(child, prepared):
    """A delta child's rows, boxes and derived rasters equal the dense
    anchor of the same configuration, bit for bit."""
    assert child.boxes.dtype == prepared.boxes.dtype
    assert np.array_equal(child.boxes, prepared.boxes)
    assert not child.boxes.flags.writeable
    assert len(child.rows) == len(prepared.rows)
    for got, want in zip(child.rows, prepared.rows):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    for name in ("total_mw", "raw_serving", "best_mw"):
        got, want = getattr(child, name), getattr(prepared, name)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), name


def _assert_any_k_delta(engine, parent, config, density):
    """One delta from ``parent`` to ``config``: its state, incumbent
    and window comparator against the dense references.  Returns the
    child."""
    state, child = engine.evaluate_delta(parent, config, density)
    _assert_states_equal(state, engine.evaluate(config, density))
    _assert_incumbent_equal(child,
                            engine.evaluate_with_incumbent(config, density)[1])
    _assert_comparator_parity(child)
    return child


class TestAnyKDeltaParity:
    """A delta over any number of changed sectors == full evaluate,
    bitwise, on every world."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(links=_MULTI_MOVES)
    def test_random_multi_sector_chain(self, links, worlds):
        for world in worlds:
            engine, density = world.engine, world.density
            config = world.network.planned_configuration()
            incumbent = engine.evaluate_with_incumbent(config, density)[1]
            # Sector 0 down and back up (in the twins world the way
            # back ties sector 1 in every cell it serves), then a
            # rotated pattern: a whole-grid window.  Last, sector 1
            # relit beside sectors 0 and 2 powering down: in the twins
            # world both of those lose cells in the one delta.
            chain = [[("power", 0, -3.0), ("tilt", 2, 1.0)],
                     [("power", 0, 3.0), ("tilt", 2, -1.0)],
                     [("azimuth", 2, 2.0), ("toggle", 1, 0.0),
                      ("power", 0, -3.0)],
                     [("toggle", 1, 0.0), ("power", 0, -6.0),
                      ("power", 2, -6.0)]] + links
            for link in chain:
                new_config = config
                for move in link:
                    new_config = world.apply(new_config, move)
                changed = engine.changed_sectors(incumbent, new_config)
                if new_config == config:
                    assert changed is None
                    continue
                assert changed == tuple(sorted(changed))
                incumbent = _assert_any_k_delta(engine, incumbent,
                                                new_config, density)
                config = new_config

    def test_masked_cell_with_all_zero_planes(self, worlds):
        """Cells a changed sector served where every row that meets
        the window is zero after the change: raw serving index 0, as
        the full stack's argmax gives."""
        world = next(w for w in worlds if w.name == "clipped")
        engine, density = world.engine, world.density
        base = world.network.planned_configuration()
        parent = engine.evaluate_with_incumbent(base, density)[1]
        dark = base.with_offline([1, 2])
        old = parent.raw_serving
        child = _assert_any_k_delta(engine, parent, dark, density)
        masked = np.isin(old, (1, 2)) & (child.best_mw == 0)
        assert masked.any()
        assert (child.raw_serving[masked] == 0).all()

    def test_window_no_radiating_sector_meets(self, worlds):
        """Every sector off air in one delta: the window is the union
        of the old footprints, and no row meets it."""
        for world in worlds:
            engine, density = world.engine, world.density
            base = world.network.planned_configuration()
            parent = engine.evaluate_with_incumbent(base, density)[1]
            dark = base.with_offline(range(world.network.n_sectors))
            child = _assert_any_k_delta(engine, parent, dark, density)
            assert (child.boxes == EMPTY_BOX).all()
            assert (child.state.serving == NO_SERVICE).all()


def _many_sector_world() -> _World:
    """Twelve sectors on a 30x30 grid: four tri-sector sites."""
    grid = GridSpec(Region.square(3_000.0), cell_size=100.0)
    sites = [(-800.0, -800.0), (800.0, -800.0), (-800.0, 800.0),
             (800.0, 800.0)]
    network = CellularNetwork(make_sectors(
        [xy for xy in sites for _ in range(3)],
        azimuths=[0.0, 120.0, 240.0] * len(sites),
        power_dbm=35.0, max_power_dbm=41.0))
    return _World("many", network, _clipped_pathloss(grid, network))


class TestDeltaRetainsRowsNotStack:
    """A windowed delta keeps k new rows and their paths in the sum
    tree, never a copy of the stack: the unit-scale stand-in for the
    paper-scale memory question."""

    def test_one_delta_retains_under_half_the_stack(self):
        # With three sectors, a child's own total, best and serving
        # rasters alone would outweigh half a stack.  The changed row's
        # ceil(log2 S) ancestors in the sum tree (the total among them)
        # are new planes too: they are counted apart from the bound.
        world = _many_sector_world()
        engine, density = world.engine, world.density
        network, grid = world.network, engine.grid
        base = network.planned_configuration()
        parent = engine.evaluate_with_incumbent(base, density)[1]
        trial = base.with_power(4, base.power_dbm(4) - 3.0)
        box = engine.roi_window(parent, trial, 4)
        assert 0 < box_area(box) < grid.shape[0] * grid.shape[1]
        engine.evaluate_delta(parent, trial, density)   # warm the caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            child = engine.evaluate_delta(parent, trial, density)[1]
            child.state = None
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        plane_bytes = (grid.shape[0] * grid.shape[1]
                       * engine.pathloss.plane_dtype.itemsize)
        stack_bytes = network.n_sectors * plane_bytes
        path = [i for i, _ in engine_module._sum_tree(network.n_sectors)[1][4]]
        assert retained - (len(path) - 1) * plane_bytes < stack_bytes / 2
        assert sum(row is not prow for row, prow
                   in zip(child.rows, parent.rows)) == 1
        assert [i for i, (node, pnode) in enumerate(zip(child.nodes,
                                                        parent.nodes))
                if node is not pnode] == sorted(path)


# ----------------------------------------------------------------------
class TestRoiScoreParity:
    """score_candidates == the evaluate_batch reference, exact floats."""

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_random_candidates_bitwise(self, moves, worlds):
        for world in worlds:
            base = world.network.planned_configuration()
            # A rotated pattern: a whole-grid window in every world.
            configs = [base.with_azimuth_offset(0, 10.0)]
            for move in moves:
                candidate = world.apply(base, move)
                if candidate != base:
                    configs.append(candidate)
            _, incumbent = world.engine.evaluate_with_incumbent(
                base, world.density)
            evaluator = Evaluator(world.engine, world.density,
                                  "performance")
            evaluator.utility_of(base)
            assert (evaluator.score_candidates(configs)
                    == _dense_utilities(world.engine, incumbent, configs,
                                        world.density))

    def test_candidate_kinds_bitwise(self, monkeypatch, worlds):
        """Power-up, off-air -> on-air, power-down, tilt and on -> off
        candidates of every sector, from a lit base and from one with
        sector 0 off air: each score equals the dense reference, and
        only the losing kinds read the runner-up comparator."""
        walks = []
        runner_up = DeltaIncumbent.runner_up

        def spy(incumbent, changed, box):
            walks.append((changed, box))
            return runner_up(incumbent, changed, box)

        monkeypatch.setattr(DeltaIncumbent, "runner_up", spy)
        kinds = set()
        for world in worlds:
            engine, density = world.engine, world.density
            planned = world.network.planned_configuration()
            for base in (planned, planned.with_offline([0])):
                configs = _candidate_kinds(world.network, base)
                _, incumbent = engine.evaluate_with_incumbent(base,
                                                              density)
                baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY,
                                                      density)
                windows = _windows(engine, incumbent, configs)
                walks.clear()
                assert (score_windows(engine, baseline, configs, windows,
                                      density, _UTILITY)
                        == _dense_utilities(engine, incumbent, configs,
                                            density))
                losing = set()
                for config, (changed, box) in zip(configs, windows):
                    dominant = dominates(base.settings[changed],
                                         config.settings[changed])
                    kinds.add((world.name, dominant))
                    if not dominant:
                        losing.add((changed, box))
                assert sorted(walks) == sorted(losing)
        assert {dominant for _, dominant in kinds} == {True, False}
        assert len(kinds) == 2 * len(worlds)

    def test_windowed_path_taken(self, registry, roi_engine, toy_network,
                                 density):
        base = toy_network.planned_configuration()
        evaluator = Evaluator(roi_engine, density, "performance")
        evaluator.utility_of(base)
        candidates = _candidate_fan(toy_network, base)
        evaluator.score_candidates(candidates)
        snap = registry.snapshot()
        assert (snap["magus.engine.roi_evaluations"]["value"]
                == len(candidates))

    def test_packed_backend_bitwise(self, tmp_path, toy_grid, toy_network,
                                    clipped_pathloss, registry):
        path = str(tmp_path / "toy.plossdb")
        save_packed(clipped_pathloss, path)
        roi_db, dense_db = load_packed(path), load_packed(path)
        roi_eng = AnalysisEngine(roi_db, link=LinkAdaptation())
        dense_eng = AnalysisEngine(dense_db, link=LinkAdaptation())
        base = toy_network.planned_configuration()
        density = uniform_per_sector_density(
            roi_eng.evaluate(base, np.zeros(roi_eng.grid.shape)), 90.0)
        roi_ev = Evaluator(roi_eng, density, "performance")
        dense_ev = _DenseEvaluator(dense_eng, density, "performance")
        assert roi_ev.utility_of(base) == dense_ev.utility_of(base)
        candidates = _candidate_fan(toy_network, base)
        assert (roi_ev.score_candidates(candidates)
                == dense_ev.score_candidates(candidates))
        snap = registry.snapshot()
        assert snap["magus.engine.roi_evaluations"]["value"] > 0

    def test_custom_utility_exact(self, registry, roi_engine,
                                  toy_network, density):
        """A non-additive utility skips the partial-sum scorer, but the
        windowed delta underneath ``utility_of`` builds the full state,
        so any ``evaluate`` override stays exact."""
        class WorstGrid(UtilityFunction):
            name = "worst-grid"

            def per_ue(self, rate_bps):
                return np.asarray(rate_bps, dtype=float)

            def evaluate(self, state):   # non-additive
                return float(state.rate_bps.min())

        evaluator = Evaluator(roi_engine, density, WorstGrid())
        assert not evaluator._batchable()
        base = toy_network.planned_configuration()
        evaluator.utility_of(base)
        candidates = [base.with_power(0, 38.0)]
        scores = evaluator.score_candidates(candidates)
        assert scores == [evaluator.utility_of(candidates[0])]
        # Every window counted was a delta evaluation's: no candidate
        # went through the partial-sum scorer.
        snap = registry.snapshot()
        assert (snap["magus.engine.roi_evaluations"]["value"]
                == snap["magus.engine.delta_evaluations"]["value"])

    def test_plans_agree_with_and_without_roi(self, roi_engine,
                                              dense_engine, toy_network,
                                              density):
        plans = {}
        for name, engine in (("roi", roi_engine), ("dense", dense_engine)):
            magus = Magus(toy_network, engine, density)
            if name == "dense":
                magus.evaluator = _DenseEvaluator(engine, density,
                                                  "performance")
            plans[name] = magus.plan_mitigation([1], tuning="joint")
        assert plans["roi"].c_after == plans["dense"].c_after
        assert plans["roi"].f_after == plans["dense"].f_after


# ----------------------------------------------------------------------
def _candidate_kinds(network, base):
    """Every kind of single-sector candidate of every sector of
    ``base``: power up by 1 and 3 dB, down by 3 dB, tilt by +-1 (each
    within the sector's limits), and its on/off state toggled."""
    out = []
    for s in range(network.n_sectors):
        spec = network.sector(s)
        power, tilt = base.power_dbm(s), base.tilt_deg(s)
        out += [base.with_power(s, p)
                for p in (power + 1.0, power + 3.0, power - 3.0)
                if spec.min_power_dbm <= p <= spec.max_power_dbm]
        out += [base.with_tilt(s, t) for t in (tilt - 1.0, tilt + 1.0)
                if spec.tilt_range.min_deg <= t <= spec.tilt_range.max_deg]
        out.append(base.with_offline([s]) if base.is_active(s)
                   else base.with_online([s]))
    return out


def _windows(engine, incumbent, configs):
    """Each single-sector candidate's ``(changed, box)``."""
    out = []
    for config in configs:
        changed = engine.single_sector_change(incumbent, config)
        assert changed is not None
        out.append((changed, engine.roi_window(incumbent, config, changed)))
    return out


def _composition_batch(world, moves, ladder_sector, base):
    """A rotated candidate, a power change on an off-air sector (an
    empty window), a tilt ladder on one sector and random moves, all
    single-sector changes of ``base``."""
    network = world.network
    configs = [base.with_azimuth_offset(0, 10.0)]
    configs += [base.with_power(s, base.power_dbm(s) - 1.0)
                for s in range(network.n_sectors) if not base.is_active(s)]
    t = ladder_sector % network.n_sectors
    configs += [base.with_tilt(t, tilt)
                for tilt in network.sector(t).tilt_range.settings
                if tilt != base.tilt_deg(t)]
    for move in moves:
        candidate = world.apply(base, move)
        if candidate != base:
            configs.append(candidate)
    return configs


class TestBatchComposition:
    """A candidate's stacked score does not depend on what else is in
    its batch, nor on where the batch is cut into chunks."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES, ladder_sector=st.integers(0, 2),
           rng=st.randoms(use_true_random=False))
    def test_shuffled_batch_equals_alone_and_dense(
            self, moves, ladder_sector, rng, worlds):
        for world in worlds:
            engine, density = world.engine, world.density
            planned = world.network.planned_configuration()
            # The lit base gives the whole-grid rotated window; the
            # dark one an off-air sector (the whole network, in the
            # single-sector world) whose power change has no window.
            for base in (planned, planned.with_offline(
                    [world.network.n_sectors - 1])):
                configs = _composition_batch(world, moves, ladder_sector,
                                             base)
                rng.shuffle(configs)
                _, incumbent = engine.evaluate_with_incumbent(base,
                                                              density)
                baseline = RoiBaseline.from_incumbent(
                    incumbent, _UTILITY, density)
                windows = _windows(engine, incumbent, configs)
                if not base.is_active(world.network.n_sectors - 1):
                    assert any(box_is_empty(box) for _, box in windows)
                batch = score_windows(engine, baseline, configs, windows,
                                      density, _UTILITY)
                alone = [score_windows(engine, baseline, [config],
                                       [window], density, _UTILITY)[0]
                         for config, window in zip(configs, windows)]
                assert batch == alone
                assert batch == _dense_utilities(engine, incumbent,
                                                 configs, density)

    def test_chunk_boundaries(self, monkeypatch, roi_engine, toy_network,
                              density):
        base = toy_network.planned_configuration()
        candidates = (_candidate_fan(toy_network, base)
                      + [base.with_azimuth_offset(0, 10.0)])
        _, incumbent = roi_engine.evaluate_with_incumbent(base, density)
        want = _dense_utilities(roi_engine, incumbent, candidates, density)

        def run():
            registry = MetricsRegistry()
            previous = set_registry(registry)
            try:
                evaluator = Evaluator(roi_engine, density, _UTILITY)
                evaluator.utility_of(base)
                scores = evaluator.score_candidates(candidates)
            finally:
                set_registry(previous)
            snap = registry.snapshot()
            return scores, {name: snap[name]["value"] for name in (
                "magus.engine.roi_evaluations", "magus.engine.roi_cells")}

        chunks = []
        candidates_of = roi._candidates

        def spy(engine, baseline, chunk):
            chunks.append(len(chunk))
            return candidates_of(engine, baseline, chunk)

        monkeypatch.setattr(roi, "_candidates", spy)
        whole, whole_counts = run()
        assert chunks == [len(candidates)]
        chunks.clear()
        monkeypatch.setattr(roi, "STACK_CELLS",
                            2 * roi_engine.grid.shape[0]
                            * roi_engine.grid.shape[1])
        chunked, chunked_counts = run()
        assert len(chunks) >= 3 and max(chunks) == 2
        assert sum(chunks) == len(candidates)
        assert chunked == whole == want
        assert chunked_counts == whole_counts


class TestScoreMemoExact:
    """Every windowed score in the ``f(C)`` memo is the score a fresh
    kernel run gives against a dense evaluation of any anchor one
    sector from it, bit for bit."""

    @staticmethod
    def _power_fan(network, base):
        return [base.with_power(s, p) for s in range(network.n_sectors)
                for p in (base.power_dbm(s) - 1.0, base.power_dbm(s) + 1.0)
                if network.sector(s).min_power_dbm <= p
                <= network.sector(s).max_power_dbm]

    def test_memo_equals_fresh_kernel(self, worlds):
        for world in worlds:
            engine, density = world.engine, world.density
            network = world.network
            base = network.planned_configuration()
            ev = Evaluator(engine, density, _UTILITY)
            ev.utility_of(base)
            ev.score_candidates(self._power_fan(network, base), parent=base)
            t = network.n_sectors - 1
            ladder = [base.with_tilt(t, tilt)
                      for tilt in network.sector(t).tilt_range.settings
                      if tilt != base.tilt_deg(t)]
            ev.score_candidates(ladder, parent=base)
            rung = ladder[0]
            ev.utility_of(rung)
            ev.score_candidates(self._power_fan(network, rung), parent=rung)
            # Every entry but the canonical ``base`` is a windowed score.
            scored = {config: value for config, (_, value)
                      in ev._cache.items() if config != base}
            assert len(scored) == len(ev._cache) - 1, world.name
            incumbents = [engine.evaluate_with_incumbent(anchor, density)[1]
                          for anchor in (base, rung)]
            checked = 0
            for config, value in scored.items():
                for incumbent in incumbents:
                    if engine.single_sector_change(incumbent,
                                                   config) is None:
                        continue
                    baseline = RoiBaseline.from_incumbent(
                        incumbent, _UTILITY, density)
                    fresh = score_windows(
                        engine, baseline, [config],
                        _windows(engine, incumbent, [config]), density,
                        _UTILITY)
                    assert fresh == [value], world.name
                    checked += 1
            assert checked > len(scored), world.name


class TestOffAirNeverServes:
    """Metamorphic: whatever else changes, an off-air sector serves no
    grid — in a full evaluation and along a delta chain."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES, dark=st.lists(st.booleans(), min_size=3,
                                       max_size=3))
    def test_off_air_sector_never_serves(self, moves, dark, worlds):
        for world in worlds:
            engine, density = world.engine, world.density
            network = world.network
            config = network.planned_configuration()
            _, incumbent = engine.evaluate_with_incumbent(config, density)
            steps = [("toggle", s, 0.0) for s in range(network.n_sectors)
                     if dark[s]] + list(moves)
            for move in steps:
                new_config = world.apply(config, move)
                if new_config == config:
                    continue
                state, incumbent = engine.evaluate_delta(
                    incumbent, new_config, density)
                off = np.flatnonzero(~new_config.active_mask())
                for snapshot in (state,
                                 engine.evaluate(new_config, density)):
                    assert not np.isin(snapshot.serving, off).any()
                config = new_config


# ----------------------------------------------------------------------
def _score_alone(item):
    """One candidate, scored by a fresh evaluator (a picklable pool
    task)."""
    engine, density, base, config = item
    evaluator = Evaluator(engine, density, _UTILITY)
    evaluator.utility_of(base)
    return evaluator.score_candidates([config])[0]


class TestRoiParallelParity:
    """``workers`` never reaches candidate scoring: a parallel Magus
    scores in-process and bitwise-serial, and so does the service's
    windowed scorer; work on the scenario pool stays bitwise-serial
    even when a worker dies under it."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_scores_bitwise(self, workers, registry, roi_engine,
                                 dense_engine, toy_network, density):
        base = toy_network.planned_configuration()
        candidates = _candidate_fan(toy_network, base)
        serial = _DenseEvaluator(dense_engine, density, _UTILITY)
        serial.utility_of(base)
        want = serial.score_candidates(candidates)
        with Magus(toy_network, roi_engine, density, _UTILITY,
                   evaluation_strategy="parallel",
                   workers=workers) as magus:
            magus.evaluator.utility_of(base)
            got = magus.evaluator.score_candidates(candidates)
        assert got == want
        assert multiprocessing.active_children() == []
        snap = registry.snapshot()
        assert snap["magus.engine.roi_evaluations"]["value"] > 0

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_random_chain_bitwise(self, moves, roi_engine, dense_engine,
                                  toy_network, density):
        config = toy_network.planned_configuration()
        for move in moves:
            config = _apply_move(toy_network, config, move)
        candidates = _candidate_fan(toy_network, config)
        serial = _DenseEvaluator(dense_engine, density, _UTILITY)
        serial.utility_of(config)
        want = serial.score_candidates(candidates)
        parallel = Evaluator(roi_engine, density, _UTILITY,
                             strategy="parallel")
        parallel.utility_of(config)
        assert parallel.score_candidates(candidates) == want

    @pytest.mark.parametrize("chaos", [False, True],
                             ids=["no-chaos", "kill-chunk-0"])
    def test_unclipped_score_batch_matches_serial(
            self, chaos, tmp_path, toy_engine, toy_network, toy_density):
        """The unclipped dict backend scores every candidate through a
        whole-grid window in the service's scorer too, and the same
        candidates run one per item on a 2-worker pool — with a worker
        SIGKILLed at item 0 — do not move a bit."""
        base = toy_network.planned_configuration()
        candidates = _candidate_fan(toy_network, base) + [
            base.with_azimuth_offset(0, 10.0)]
        _, incumbent = toy_engine.evaluate_with_incumbent(base,
                                                          toy_density)
        serial = Evaluator(toy_engine, toy_density, _UTILITY)
        serial.utility_of(base)
        want = serial.score_candidates(candidates)
        assert want == _dense_utilities(toy_engine, incumbent, candidates,
                                        toy_density)
        injector = (ChaosInjector(ChaosPlan(kill=WorkerKill(at_chunk=0)),
                                  str(tmp_path / "scratch"))
                    if chaos else None)
        with EvaluationService(toy_engine, toy_density, _UTILITY, 2,
                               chaos=injector,
                               chunk_deadline_s=30.0) as service:
            assert service.score_batch(incumbent, candidates) == want
            items = [(toy_engine, toy_density, base, config)
                     for config in candidates]
            assert service.run_tasks(_score_alone, items) == want
        assert multiprocessing.active_children() == []
        if chaos:
            assert injector.spent("kill") == 1


# ----------------------------------------------------------------------
def _reference_comparator(planes, serving, best, changed):
    """Test-side window comparator over the whole grid: row
    ``changed`` masked out of the stack, then the first-index argmax,
    on the cells ``changed`` serves; ``best``/``serving`` elsewhere.
    A zero row is appended first: a sector that does not exist
    radiates nothing, so with one sector every served cell compares
    against value 0 at index 1."""
    masked = np.concatenate([planes, np.zeros_like(planes[:1])])
    masked[changed] = -np.inf
    idx = masked.argmax(axis=0).astype(np.int32)
    val = np.take_along_axis(masked, idx[None], axis=0)[0]
    mine = serving == changed
    return np.where(mine, val, best), np.where(mine, idx, serving)


def _assert_comparator_parity(incumbent, windows=()):
    """``incumbent.runner_up(changed, box)`` equals the reference
    sliced to ``box`` for every sector, bit for bit, on the whole grid
    and on each of ``windows``."""
    planes = np.stack(incumbent.rows)
    H, W = planes.shape[1:]
    for changed in range(planes.shape[0]):
        want_val, want_idx = _reference_comparator(
            planes, incumbent.raw_serving, incumbent.best_mw, changed)
        for r0, r1, c0, c1 in [(0, H, 0, W)] + list(windows):
            got_val, got_idx = incumbent.runner_up(changed,
                                                   (r0, r1, c0, c1))
            assert got_val.dtype == planes.dtype
            assert got_idx.dtype == np.int32
            assert (got_val.tobytes()
                    == want_val[r0:r1, c0:c1].tobytes())
            assert np.array_equal(got_idx, want_idx[r0:r1, c0:c1])


def _assert_losing_fold(incumbent, planes, losing, new, box):
    """The window pass's serving routine for a change of the
    ``losing`` rows to ``new``: the comparator with each new row folded
    over the window equals the stack argmax of the changed stack."""
    stack = planes.copy()
    stack[losing] = new
    want_idx = stack.argmax(axis=0).astype(np.int32)
    want_val = np.take_along_axis(stack, want_idx[None], axis=0)[0]
    r0, r1, c0, c1 = box
    best = np.empty((r1 - r0, c1 - c0), dtype=planes.dtype)
    idx = np.empty(best.shape, dtype=np.int32)
    scratch = (np.empty(best.size, bool), np.empty(best.size, bool))
    engine_module._capture(
        best, idx, incumbent.comparator(tuple(losing), box), box,
        [(s, box, stack[s][r0:r1, c0:c1]) for s in losing], scratch)
    assert np.array_equal(idx, want_idx[r0:r1, c0:c1])
    assert best.tobytes() == want_val[r0:r1, c0:c1].tobytes()


def _stack_incumbent(planes, boxes) -> DeltaIncumbent:
    """An incumbent over a bare plane stack; a ``None`` box is an
    unknown footprint (stored as the whole grid)."""
    H, W = planes.shape[1:]
    table = np.array([(0, H, 0, W) if box is None else box
                      for box in boxes], dtype=np.int64)
    serving = planes.argmax(axis=0).astype(np.int32)
    best = np.take_along_axis(planes, serving[None], axis=0)[0]
    nodes = _halving_nodes(planes)
    return DeltaIncumbent(None, tuple(planes), table, nodes,
                          [plane_footprint(node) for node in nodes],
                          serving, best, epoch=0)


def _halving_nodes(planes):
    """The internal planes of the recursive-halving sum of ``planes``
    in sector order, in post-order (the total last): the reference
    for the engine's pairwise sum tree."""
    nodes = []

    def node(lo, hi):
        if hi - lo == 1:
            return planes[lo]
        mid = (lo + hi) // 2
        nodes.append(node(lo, mid) + node(mid, hi))
        return nodes[-1]

    node(0, len(planes))
    return nodes


@st.composite
def _sparse_stacks(draw):
    """Small plane stacks full of exact zeros and ties: zero-tie cells
    (sector 0 serving or not), all-zero (off-air) planes, S == 1."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = draw(st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.25, 1.0, 3.0]),
                           min_size=n * rows * cols,
                           max_size=n * rows * cols))
    planes = np.asarray(values, dtype=dtype).reshape(n, rows, cols)
    off_air = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    planes[np.asarray(off_air)] = 0.0
    # Each plane is exactly zero outside a random box (a footprint).
    for s in range(n):
        r0 = draw(st.integers(0, rows - 1))
        c0 = draw(st.integers(0, cols - 1))
        r1 = draw(st.integers(r0 + 1, rows))
        c1 = draw(st.integers(c0 + 1, cols))
        keep = np.zeros((rows, cols), dtype=bool)
        keep[r0:r1, c0:c1] = True
        planes[s][~keep] = 0.0
    return planes


@st.composite
def _windows_of(draw, shape):
    """A random window of a ``shape`` grid, empty ones included."""
    rows, cols = shape
    r0 = draw(st.integers(0, rows))
    c0 = draw(st.integers(0, cols))
    return (r0, draw(st.integers(r0, rows)), c0,
            draw(st.integers(c0, cols)))


class TestRunnerUpParity:
    """The window comparator ``DeltaIncumbent.runner_up(changed, box)``
    == masked argmax over the stack, bitwise, for every sector and
    window."""

    @settings(max_examples=200, deadline=None)
    @given(planes=_sparse_stacks(),
           boxes=st.sampled_from(["tight", "unknown", "mixed"]),
           data=st.data())
    def test_boxed_matches_masked_argmax(self, planes, boxes, data):
        tight = [plane_footprint(plane) for plane in planes]
        table = {"tight": tight,                     # EMPTY_BOX off-air
                 "unknown": [None] * len(tight),     # full-grid boxes
                 "mixed": [b if s % 2 else None
                           for s, b in enumerate(tight)]}[boxes]
        incumbent = _stack_incumbent(planes, table)
        _assert_comparator_parity(
            incumbent, [data.draw(_windows_of(planes.shape[1:]))])
        # Several losing sectors in one change: the comparator reads
        # the other rows where any of them served, and their new rows
        # (lowered or zeroed at random cells) fold over the window.
        n, rows, cols = planes.shape
        if n >= 2:
            losing = sorted(data.draw(st.sets(st.integers(0, n - 1),
                                              min_size=2)))
            keep = data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]),
                                      min_size=rows * cols,
                                      max_size=rows * cols))
            new = planes[losing] * np.asarray(
                keep, dtype=planes.dtype).reshape(rows, cols)
            _assert_losing_fold(incumbent, planes, losing, new,
                                data.draw(_windows_of((rows, cols))))

    @settings(max_examples=200, deadline=None)
    @given(planes=_sparse_stacks(), data=st.data())
    def test_dominating_row_needs_no_runner_up(self, planes, data):
        """A new row >= the old one at every cell resolves the same
        serving and best value against the incumbent's own best/serving
        as against the runner-up, and both equal the argmax of the
        changed stack, bit for bit (the sparse values tie often)."""
        n, rows, cols = planes.shape
        changed = data.draw(st.integers(0, n - 1))
        bump = data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0]),
                                  min_size=rows * cols,
                                  max_size=rows * cols))
        new = planes[changed] + np.asarray(bump, dtype=planes.dtype
                                           ).reshape(rows, cols)
        stack = planes.copy()
        stack[changed] = new
        want_idx = stack.argmax(axis=0).astype(np.int32)
        want_val = np.take_along_axis(stack, want_idx[None], axis=0)[0]
        incumbent = _stack_incumbent(planes, [plane_footprint(plane)
                                              for plane in planes])
        for val, idx in (incumbent.runner_up(changed, (0, rows, 0, cols)),
                         (incumbent.best_mw, incumbent.raw_serving)):
            wins = (new > val) | ((new == val) & (changed < idx))
            assert np.array_equal(np.where(wins, changed, idx), want_idx)
            assert (np.where(wins, new, val).tobytes()
                    == want_val.tobytes())

    def test_zero_tie_cells(self):
        planes = np.zeros((3, 1, 3))
        planes[2, 0, 1] = 1.0        # sector 2 serves alone
        planes[0, 0, 2] = 1.0        # sector 0 serves alone
        boxes = [plane_footprint(plane) for plane in planes]
        assert boxes[1] == EMPTY_BOX
        incumbent = _stack_incumbent(planes, boxes)   # cell 0: all zero
        assert incumbent.raw_serving.tolist() == [[0, 2, 0]]
        # Sector 0's cells have no other radiating row: index 1.
        val, idx = incumbent.runner_up(0, (0, 1, 0, 3))
        assert val.tolist() == [[0.0, 1.0, 0.0]]
        assert idx.tolist() == [[1, 2, 1]]
        # Sector 2's cell: index 0; the rest keep best and serving.
        val, idx = incumbent.runner_up(2, (0, 1, 0, 3))
        assert val.tolist() == [[0.0, 0.0, 1.0]]
        assert idx.tolist() == [[0, 0, 0]]
        _assert_comparator_parity(incumbent, [(0, 1, 1, 3), (0, 1, 2, 2)])

    def test_single_sector(self, toy_grid):
        """One sector: the window comparator is value 0 at index 1, so
        the sector wins every cell at any power; the dense
        ``evaluate_batch`` runner-up (-inf) gives canonical states."""
        planes = np.array([[[0.0, 2.0]]], dtype=np.float32)
        val, idx = _stack_incumbent(planes, [None]).runner_up(0,
                                                              (0, 1, 0, 2))
        assert val.tolist() == [[0.0, 0.0]]
        assert idx.tolist() == [[1, 1]]
        network = CellularNetwork(make_sectors([(0.0, 0.0)],
                                               power_dbm=35.0,
                                               max_power_dbm=41.0))
        world = _World("single", network,
                       _clipped_pathloss(toy_grid, network))
        engine, density = world.engine, world.density
        base = network.planned_configuration()
        _, incumbent = engine.evaluate_with_incumbent(base, density)
        configs = [base.with_power(0, 20.0), base.with_offline([0])]
        batch = engine.evaluate_batch(incumbent, configs, density)
        for k, config in enumerate(configs):
            full = engine.evaluate(config, density)
            assert np.array_equal(batch.serving[k], full.serving)
            assert np.array_equal(batch.rate_bps[k], full.rate_bps)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(moves=_MOVES)
    def test_engine_footprints(self, moves, roi_engine, toy_network,
                               density):
        """Clipped footprints and off-air sectors (EMPTY_BOX)."""
        config = toy_network.planned_configuration()
        for move in moves:
            config = _apply_move(toy_network, config, move)
        _, incumbent = roi_engine.evaluate_with_incumbent(config, density)
        assert incumbent.boxes.tolist() == [
            list(roi_engine._setting_box(s, setting))
            for s, setting in enumerate(config.settings)]
        _assert_comparator_parity(incumbent, [
            tuple(box) for box in incumbent.boxes.tolist()])

    def test_child_does_not_pin_parent(self, roi_engine, toy_network,
                                       density):
        """A delta child shares its parent's unchanged rows, read-only,
        and never the parent's own rasters or state, which go with the
        parent."""
        base = toy_network.planned_configuration()
        parent = roi_engine.evaluate_with_incumbent(base, density)[1]
        child = roi_engine.evaluate_delta(parent, base.with_offline([1]),
                                          density)[1]
        for s, row in enumerate(child.rows):
            assert (row is parent.rows[s]) == (s != 1)
            assert not row.flags.writeable
        owned = [weakref.ref(item) for item in (
            parent.total_mw, parent.raw_serving, parent.best_mw,
            parent.state)]
        del parent
        gc.collect()
        assert [ref() for ref in owned] == [None] * len(owned)

    def test_unclipped_dict_meets_every_row(self, toy_engine, toy_network,
                                            toy_density):
        """Unknown footprints are stored as the whole grid, so every
        lit row meets every window."""
        config = toy_network.planned_configuration().with_offline([0])
        H, W = toy_engine.grid.shape
        _, incumbent = toy_engine.evaluate_with_incumbent(config,
                                                          toy_density)
        assert incumbent.boxes.tolist() == [list(EMPTY_BOX), [0, H, 0, W],
                                            [0, H, 0, W]]
        assert not incumbent.boxes.flags.writeable
        _assert_comparator_parity(incumbent, [(2, 9, 3, 12)])


class TestDominanceMutation:
    """A predicate that calls a losing change dominating breaks the
    bitwise checks, in the windowed scorer and in the delta: the
    parity suites above can see the rule."""

    def test_power_down_marked_dominating_fails(self, monkeypatch, worlds):
        # Unclipped, every row covers the grid: the middle sector at
        # its lowest power loses cells to its neighbours.
        world = next(w for w in worlds if w.name == "unclipped")
        engine, density = world.engine, world.density
        base = world.network.planned_configuration()
        trial = base.with_power(1, world.network.sector(1).min_power_dbm)
        _, incumbent = engine.evaluate_with_incumbent(base, density)
        full = engine.evaluate(trial, density)
        assert ((incumbent.raw_serving == 1)
                & (full.raw_serving != 1)).any()
        assert not dominates(base.settings[1], trial.settings[1])
        want = _dense_utilities(engine, incumbent, [trial], density)
        windows = _windows(engine, incumbent, [trial])

        def score():
            baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY,
                                                  density)
            return score_windows(engine, baseline, [trial], windows,
                                 density, _UTILITY)

        assert score() == want
        _assert_states_equal(
            engine.evaluate_delta(incumbent, trial, density)[0], full)
        def always(old, new):
            return True

        monkeypatch.setattr(roi, "dominates", always)
        assert score() != want
        monkeypatch.setattr(engine_module, "dominates", always)
        state = engine.evaluate_delta(incumbent, trial, density)[0]
        with pytest.raises(AssertionError):
            _assert_states_equal(state, full)

    def test_tie_relabel_seen_by_states_only(self, monkeypatch, worlds):
        """Utility-only score checks cannot see a tie relabel.

        In the twins world sectors 0 and 1 tie in every cell, and the
        first index serves.  Sector 0 at -1 dB hands its whole area to
        sector 1.  Marked dominating, it keeps those cells under index
        0 instead: the whole tied area keeps one sector, so loads,
        rates and every utility stay bitwise equal to the dense
        reference, and only the delta's ``raw_serving`` shows the
        wrong label."""
        world = next(w for w in worlds if w.name == "twins")
        engine, density = world.engine, world.density
        base = world.network.planned_configuration()
        trial = base.with_power(0, base.power_dbm(0) - 1.0)
        _, incumbent = engine.evaluate_with_incumbent(base, density)
        full = engine.evaluate(trial, density)
        assert not dominates(base.settings[0], trial.settings[0])
        want = _dense_utilities(engine, incumbent, [trial], density)
        windows = _windows(engine, incumbent, [trial])

        def score():
            baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY,
                                                  density)
            return score_windows(engine, baseline, [trial], windows,
                                 density, _UTILITY)

        assert score() == want
        _assert_states_equal(
            engine.evaluate_delta(incumbent, trial, density)[0], full)

        def sector_0(old, new):
            return new == trial.settings[0] or dominates(old, new)

        monkeypatch.setattr(roi, "dominates", sector_0)
        assert score() == want
        monkeypatch.setattr(engine_module, "dominates", sector_0)
        state = engine.evaluate_delta(incumbent, trial, density)[0]
        assert not np.array_equal(state.raw_serving, full.raw_serving)
        assert _UTILITY.evaluate(state) == _UTILITY.evaluate(full)
        with pytest.raises(AssertionError):
            _assert_states_equal(state, full)


class TestRoiBaselineIsAView:
    """A ROI baseline reads its incumbent and owns one raster."""

    def test_from_incumbent_allocates_only_weighted(self):
        world = _many_sector_world()
        engine, density = world.engine, world.density
        base = world.network.planned_configuration()
        # Warm up on a sibling incumbent, so nothing the measured call
        # allocates is cached from a previous one.
        _, sibling = engine.evaluate_with_incumbent(base.with_offline([1]),
                                                    density)
        RoiBaseline.from_incumbent(sibling, _UTILITY, density)
        _, incumbent = engine.evaluate_with_incumbent(base, density)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY,
                                                  density)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert baseline.incumbent is incumbent
        assert baseline.window_cache == {}
        raster = density.size * np.dtype(np.float64).itemsize
        assert baseline.weighted.nbytes == raster
        # The raster plus object headers; a copied (H, W) field or the
        # old runner-up pair would add at least another half raster.
        assert raster <= retained < 1.5 * raster


# ----------------------------------------------------------------------
def _assert_whole_grid_scoring(registry, engine, network, density):
    """Windowed scores equal the dense reference bit for bit, and each
    candidate is counted as one whole-grid window."""
    evaluator = Evaluator(engine, density, "performance")
    base = network.planned_configuration()
    evaluator.utility_of(base)
    _, incumbent = engine.evaluate_with_incumbent(base, density)
    candidates = _candidate_fan(network, base)
    scores = evaluator.score_candidates(candidates)
    assert scores == _dense_utilities(engine, incumbent, candidates,
                                      density)
    snap = registry.snapshot()
    H, W = engine.grid.shape
    k = len(candidates)
    assert snap["magus.engine.roi_evaluations"]["value"] == k
    assert snap["magus.engine.roi_cells"]["value"] == k * H * W
    assert scores == [evaluator.utility_of(c) for c in candidates]


class TestRoiFallbacks:
    """Where no footprint bounds a change, the window is the whole
    grid — never a wrong answer."""

    def test_unclipped_dict_always_falls_back(self, registry, toy_engine,
                                              toy_network, toy_density):
        # No footprints on an unclipped dict: every window is the grid.
        assert toy_engine.pathloss.clip_floor_db is None
        _assert_whole_grid_scoring(registry, toy_engine, toy_network,
                                   toy_density)

    def test_full_grid_footprint_falls_back(self, registry, toy_grid,
                                            toy_network):
        """At the -150 dB default floor the toy boxes cover the grid."""
        db = _clipped_pathloss(toy_grid, toy_network,
                               floor=DEFAULT_CLIP_FLOOR_DB)
        H, W = db.grid.shape
        tilt = toy_network.sector(0).tilt_range.normal_deg
        assert box_area(db.footprint(0, tilt)) == H * W
        engine = AnalysisEngine(db, link=LinkAdaptation())
        base = toy_network.planned_configuration()
        density = uniform_per_sector_density(
            engine.evaluate(base, np.zeros(engine.grid.shape)), 90.0)
        _assert_whole_grid_scoring(registry, engine, toy_network, density)

    def test_baseline_requires_anchored_state(self, roi_engine,
                                              toy_network, density):
        _, incumbent = roi_engine.evaluate_with_incumbent(
            toy_network.planned_configuration(), density)
        baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY, density)
        assert baseline is not None
        incumbent.state = None          # as if it were the dark anchor
        assert RoiBaseline.from_incumbent(incumbent, _UTILITY,
                                          density) is None


# ----------------------------------------------------------------------
class TestRoiReport:
    def test_report_has_roi_section(self, registry, roi_engine,
                                    toy_network, density):
        evaluator = Evaluator(roi_engine, density, "performance")
        base = toy_network.planned_configuration()
        evaluator.utility_of(base)
        evaluator.score_candidates(_candidate_fan(toy_network, base))
        report = RunReport.from_registry("test", registry=registry)
        roi = report.roi_metrics()
        assert roi["magus.engine.roi_evaluations"] > 0
        assert "roi:" in report.to_table()

    def test_report_omits_empty_roi_section(self, registry):
        report = RunReport.from_registry("test", registry=registry)
        assert report.roi_metrics() == {}
        assert "roi:" not in report.to_table()


# ----------------------------------------------------------------------
def _workspace_world(kind, tmp_path, toy_grid, toy_network, toy_pathloss,
                     clipped_pathloss):
    """``(engine, network, density)``: float32 planes from a packed file
    (small windows), or the float64 dict backend (every window the whole
    grid)."""
    if kind == "packed-f32":
        path = str(tmp_path / "toy.plossdb")
        save_packed(clipped_pathloss, path)
        pathloss = load_packed(path)
    else:
        pathloss = toy_pathloss
    world = _World(kind, toy_network, pathloss)
    return world.engine, world.network, world.density


def _state_rasters(state):
    return {name: value for name, value in vars(state).items()
            if isinstance(value, np.ndarray)}


@pytest.mark.parametrize("kind", ["packed-f32", "dict-f64"])
class TestScoringWorkspace:
    """The engine's grow-only scratch buffers change no score and leak
    into nothing that leaves the engine."""

    @pytest.fixture
    def world(self, kind, tmp_path, toy_grid, toy_network, toy_pathloss,
              clipped_pathloss):
        engine, network, density = _workspace_world(
            kind, tmp_path, toy_grid, toy_network, toy_pathloss,
            clipped_pathloss)
        assert engine.grid.shape == toy_grid.shape
        dtype = {"packed-f32": np.float32, "dict-f64": np.float64}[kind]
        assert engine.pathloss.plane_dtype == dtype
        return engine, network, density

    def test_scores_equal_cold_and_warmed(self, world):
        engine, network, density = world
        base = network.planned_configuration()
        configs = (_candidate_fan(network, base)
                   + [base.with_azimuth_offset(0, 10.0)])
        _, incumbent = engine.evaluate_with_incumbent(base, density)
        baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY, density)
        windows = _windows(engine, incumbent, configs)

        def score(cs, ws):
            return score_windows(engine, baseline, cs, ws, density,
                                 _UTILITY)

        engine.workspace = Workspace()
        cold = score(configs, windows)
        # Warmed by a larger chunk: every buffer is longer than needed
        # and full of the other chunk's values.
        engine.workspace = Workspace()
        score(configs * 3, windows * 3)
        after_larger = score(configs, windows)
        # Warmed by a smaller chunk: the buffers grow mid-call.
        engine.workspace = Workspace()
        score(configs[:1], windows[:1])
        after_smaller = score(configs, windows)
        assert np.asarray(cold).tobytes() == np.asarray(
            after_larger).tobytes() == np.asarray(after_smaller).tobytes()
        assert cold == _dense_utilities(engine, incumbent, configs, density)

    def test_earlier_state_survives_later_scoring(self, world):
        engine, network, density = world
        evaluator = Evaluator(engine, density, _UTILITY)
        base = network.planned_configuration()
        state = evaluator.state_of(base)
        before = {name: raster.copy()
                  for name, raster in _state_rasters(state).items()}
        other = base.with_power(1, base.power_dbm(1) - 2.0)
        for parent in (base, other, base):
            evaluator.score_candidates(_candidate_fan(network, parent),
                                       parent=parent)
        for name, raster in _state_rasters(state).items():
            assert raster.tobytes() == before[name].tobytes(), name

    def test_nothing_leaving_the_engine_aliases_it(self, world):
        engine, network, density = world
        evaluator = Evaluator(engine, density, _UTILITY)
        base = network.planned_configuration()
        candidates = _candidate_fan(network, base)
        evaluator.utility_of(base)
        evaluator.score_candidates(candidates)
        states = [evaluator.state_of(c) for c in [base] + candidates[:4]]
        batch = engine.evaluate_batch(evaluator._incumbents[0],
                                      candidates[:4], density)
        buffers = list(engine.workspace._buffers.values())
        assert buffers and engine.workspace.nbytes > 0
        exported = [raster for state in states
                    for raster in _state_rasters(state).values()]
        exported += [getattr(batch, name) for name in (
            "serving", "sinr_db", "max_rate_bps", "n_ue", "rate_bps")]
        for incumbent in evaluator._incumbents:
            exported += [incumbent.total_mw, incumbent.raw_serving,
                         incumbent.best_mw, *incumbent.rows]
        exported += [b.weighted for b in evaluator._roi_baselines.values()]
        for raster in exported:
            for buf in buffers:
                assert not np.shares_memory(raster, buf)

    def test_pickled_engine_carries_no_workspace(self, world):
        import pickle
        engine, network, density = world
        evaluator = Evaluator(engine, density, _UTILITY)
        base = network.planned_configuration()
        evaluator.utility_of(base)
        evaluator.score_candidates(_candidate_fan(network, base))
        held = engine.workspace.nbytes
        assert held > 0
        assert "workspace" not in engine.__getstate__()
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.workspace.nbytes == 0
        assert clone.workspace is not engine.workspace
        assert engine.workspace.nbytes == held
        # The clone scores the same, growing its own workspace.
        assert (Evaluator(clone, density, _UTILITY).score_candidates(
                    _candidate_fan(network, base), parent=base)
                == evaluator.score_candidates(_candidate_fan(network,
                                                             base)))
        assert clone.workspace.nbytes > 0


class TestScoringAllocation:
    """A warm whole-grid scoring call allocates little beyond its
    workspace, and the workspace of a full chunk stays in budget."""

    #: Peak traced allocation of a warm whole-grid ``score_windows``
    #: call, bytes per candidate-cell.  Measured with NumPy 2.4 on the
    #: nine-sector world below: 131.6 B when every transient was a
    #: fresh array, 13.6 B with the workspace, 9.2 B once the stale
    #: rates and densities are gathered into it too (the per-UE terms
    #: of rate-changed cells remain); the bound leaves about 50 % for
    #: other NumPy versions.
    PEAK_BYTES_PER_CELL = 14.0
    #: Resident workspace budget of one full ``STACK_CELLS`` chunk.
    WORKSPACE_BUDGET_BYTES = 100e6

    @pytest.fixture
    def nine_sector_world(self):
        grid = GridSpec(Region.square(3_000.0), cell_size=50.0)
        network = CellularNetwork(make_sectors(
            [(x, y) for y in (-1_000.0, 0.0, 1_000.0)
             for x in (-1_000.0, 0.0, 1_000.0)],
            azimuths=[(40.0 * i) % 360.0 for i in range(9)],
            power_dbm=35.0, max_power_dbm=41.0))
        pathloss = PathLossDatabase.from_environment(
            network, Environment.flat(grid), shadowing_sigma_db=0.0,
            seed=0)
        return _World("nine", network, pathloss)

    def test_warm_whole_grid_call(self, nine_sector_world):
        world = nine_sector_world
        engine, density = world.engine, world.density
        base = world.network.planned_configuration()
        _, incumbent = engine.evaluate_with_incumbent(base, density)
        baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY, density)
        configs = [base.with_power(s, base.power_dbm(s) - 3.0)
                   for s in range(world.network.n_sectors)]
        windows = _windows(engine, incumbent, configs)
        cells = engine.grid.shape[0] * engine.grid.shape[1]
        assert all(box_area(box) == cells for _, box in windows)
        candidate_cells = len(configs) * cells

        first = score_windows(engine, baseline, configs, windows, density,
                              _UTILITY)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            again = score_windows(engine, baseline, configs, windows,
                                  density, _UTILITY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert again == first
        assert (peak - start) / candidate_cells < self.PEAK_BYTES_PER_CELL
        per_cell = engine.workspace.nbytes / candidate_cells
        assert per_cell * roi.STACK_CELLS <= self.WORKSPACE_BUDGET_BYTES

    #: Peak traced allocation of a warm windowed ``score_windows`` call
    #: on the nine-sector world clipped at -105 dB (each window about a
    #: third of the grid), bytes per candidate-cell.  Measured with
    #: NumPy 2.4: 7.4 B for one candidate, 8.3 B for two (the flat
    #: index and the per-UE terms of the rate-changed cells).  Gathering
    #: the stale rates with a buffered ``take`` (``mode="raise"``) and
    #: the densities through ``np.remainder`` read 12.7-13.0 B.
    WINDOWED_PEAK_BYTES_PER_CELL = 10.5

    def test_warm_windowed_call(self):
        grid = GridSpec(Region.square(3_000.0), cell_size=50.0)
        network = CellularNetwork(make_sectors(
            [(x, y) for y in (-1_000.0, 0.0, 1_000.0)
             for x in (-1_000.0, 0.0, 1_000.0)],
            azimuths=[(40.0 * i) % 360.0 for i in range(9)],
            power_dbm=35.0, max_power_dbm=41.0))
        world = _World("nine-clipped", network,
                       PathLossDatabase.from_environment(
                           network, Environment.flat(grid),
                           shadowing_sigma_db=0.0, seed=0,
                           clip_floor_db=-105.0))
        engine, density = world.engine, world.density
        base = network.planned_configuration()
        _, incumbent = engine.evaluate_with_incumbent(base, density)
        baseline = RoiBaseline.from_incumbent(incumbent, _UTILITY, density)
        rung = base.with_tilt(4, base.tilt_deg(4) + 2.0)
        step = base.with_power(4, base.power_dbm(4) - 3.0)
        cells = grid.shape[0] * grid.shape[1]
        for configs in ([rung], [step], [rung, step]):
            windows = _windows(engine, incumbent, configs)
            assert all(0 < box_area(box) < cells / 2 for _, box in windows)
            first = score_windows(engine, baseline, configs, windows,
                                  density, _UTILITY)
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                again = score_windows(engine, baseline, configs, windows,
                                      density, _UTILITY)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert again == first == _dense_utilities(
                engine, incumbent, configs, density)
            assert ((peak - start) / (len(configs) * cells)
                    < self.WINDOWED_PEAK_BYTES_PER_CELL)


# ----------------------------------------------------------------------
def _backends(worlds, tmp_path):
    """``(name, network, engine)`` for every world on its own dict
    database, on an in-memory pack of it, and on that pack saved and
    memory-mapped back from a file."""
    out = []
    for world in worlds:
        db = world.engine.pathloss
        packed = PathLossDatabase(db.grid, db.network, db._rasters,
                                  db.tilt_model, validate=False,
                                  clip_floor_db=db.clip_floor_db)
        packed.attach_packed(pack_database(packed))
        path = str(tmp_path / f"{world.name}.plossdb")
        save_packed(db, path)
        loaded = load_packed(path)
        assert packed.packed_store.path is None
        assert loaded.packed_store.path == path
        for kind, pathloss in (("dict", db), ("packed", packed),
                               ("file", loaded)):
            out.append((f"{world.name}/{kind}", world.network,
                        AnalysisEngine(pathloss, link=LinkAdaptation())))
    return out


def _full_plane_product(engine, config, s):
    """Sector ``s``'s full-plane product ``gain_matrix_mw * factor``
    under ``config`` (zero off-air)."""
    setting = config.settings[s]
    if not setting.active:
        return np.zeros(engine.grid.shape, engine.pathloss.plane_dtype)
    gain = engine.pathloss.gain_matrix_mw(s, setting.tilt_deg,
                                          setting.azimuth_offset_deg)
    return gain * engine_module._plane_factor(config, s, gain.dtype)


def _row_configs(network):
    """The planned configuration, then per sector: both ends of its
    tilt ladder, a tilt between two rungs (off every pack's ladder),
    azimuth offsets (with an on- and an off-ladder tilt), its lowest
    power, and off-air."""
    base = network.planned_configuration()
    configs = [base]
    for s in range(network.n_sectors):
        spec = network.sector(s)
        ladder = spec.tilt_range.settings
        configs += [base.with_tilt(s, ladder[0]),
                    base.with_tilt(s, ladder[-1]),
                    base.with_tilt(s, (ladder[0] + ladder[1]) / 2),
                    base.with_azimuth_offset(s, 15.0),
                    base.with_tilt(s, (ladder[1] + ladder[2]) / 2)
                    .with_azimuth_offset(s, -30.0),
                    base.with_power(s, spec.min_power_dbm),
                    base.with_offline([s])]
    return configs


class TestSectorRowProducer:
    """``_sector_row``, the one producer of dense anchors and deltas,
    equals the full-plane product ``gain_matrix_mw * factor`` in every
    cell.  Full/delta parity cannot see a footprint box that is too
    small once both sides build their rows here; this test can."""

    def test_row_equals_full_plane_product(self, worlds, tmp_path):
        boxed = off_ladder = 0
        for name, network, engine in _backends(worlds, tmp_path):
            db = engine.pathloss
            cells = engine.grid.shape[0] * engine.grid.shape[1]
            ladder = (db.packed_store.tilt_values
                      if db.packed_store is not None else ())
            for config in _row_configs(network):
                for s, setting in enumerate(config.settings):
                    row, box = engine._sector_row(config, s)
                    want = _full_plane_product(engine, config, s)
                    off_ladder += (bool(ladder) and setting.active
                                   and setting.tilt_deg not in ladder)
                    assert row.dtype == want.dtype == db.plane_dtype
                    assert row.tobytes() == want.tobytes(), (name, s,
                                                             setting)
                    assert box == engine._setting_box(s, setting)
                    assert not row.flags.writeable
                    boxed += 0 < box_area(box) < cells
        # The cases include clipped boxes and off-ladder packed rows.
        assert boxed and off_ladder

    def test_incumbent_equals_stack_reference(self, worlds, tmp_path):
        """The dense anchor's total, serving and best equal a stacked
        sum and first-index argmax over the same rows: a tie keeps the
        lower sector (the twins), an all-zero cell goes to sector 0.
        Besides the row cases: every sector off-air (an empty window),
        each sector alone on air (on a clipped pack, a window smaller
        than the grid), and every other sector off-air."""
        ties = zero_cells = small = 0
        for name, network, engine in _backends(worlds, tmp_path):
            n = network.n_sectors
            base = network.planned_configuration()
            zeros = np.zeros(engine.grid.shape)
            configs = _row_configs(network) + [
                base.with_offline(range(n)),
                base.with_offline(range(0, n, 2))] + [
                base.with_offline(set(range(n)) - {s}) for s in range(n)]
            for config in configs:
                incumbent = engine.evaluate_with_incumbent(config, zeros)[1]
                stack = np.stack([engine._sector_row(config, s)[0]
                                  for s in range(n)])
                serving = stack.argmax(axis=0).astype(np.int32)
                best = np.take_along_axis(stack, serving[None], axis=0)[0]
                products = np.stack([_full_plane_product(engine, config, s)
                                     for s in range(n)])
                total = (_halving_nodes(products) or products)[-1]
                assert incumbent.total_mw.tobytes() == total.tobytes(), name
                assert incumbent.raw_serving.tobytes() == serving.tobytes()
                assert incumbent.best_mw.tobytes() == best.tobytes()
                assert incumbent.boxes.tolist() == [
                    list(engine._setting_box(s, setting))
                    for s, setting in enumerate(config.settings)]
                ties += int(((stack == best).sum(axis=0) > 1)
                            [best > 0].sum())
                zero_cells += int((best == 0).sum())
                union = EMPTY_BOX
                for box in incumbent.boxes.tolist():
                    union = box_union(union, tuple(box))
                small += 0 < box_area(union) < stack[0].size
        assert ties and zero_cells and small


class TestNoGainStack:
    """No evaluation path builds an ``(S, H, W)`` gain stack: the
    offline planning pass and a mitigation plan with its gradual
    schedule run with ``gain_tensor_mw`` refusing every call."""

    @pytest.mark.parametrize("backend", ["dict", "file"])
    def test_planning_and_mitigation(self, monkeypatch, tmp_path,
                                     backend):
        def refuse(*args, **kwargs):
            raise AssertionError("an (S, H, W) gain stack was built")

        monkeypatch.setattr(PathLossDatabase, "gain_tensor_mw", refuse)
        path = str(tmp_path / "area.plossdb") if backend == "file" else None
        area = build_area(AreaType.SUBURBAN, seed=42, dims=SMALL_DIMS,
                          planning=PlanningSettings(max_passes=1),
                          plossdb=path)
        store = area.pathloss.packed_store
        assert (store.path if store is not None else None) == path
        magus = Magus.from_area(area)
        plan = magus.plan_mitigation(
            select_targets(area, UpgradeScenario.FULL_SITE), tuning="joint")
        assert plan.tuning.steps
        magus.gradual_schedule(plan)


# ----------------------------------------------------------------------
def _full_utilities(engine, density, configs, utility=_UTILITY):
    """``utility_of`` of each config under a fresh full evaluator."""
    reference = Evaluator(engine, density, utility, strategy="full")
    return [repr(reference.utility_of(config)) for config in configs]


class TestScoresEqualFullUtility:
    """A windowed score walks the same pairwise sum tree as a full
    evaluation, so ``score_candidates`` equals a fresh
    ``strategy="full"`` evaluator's ``utility_of`` bit for bit."""

    def test_every_world_and_backend(self, registry, worlds, tmp_path):
        """Every candidate kind and a rotated one, on a lit and a dark
        base, then against a delta-built anchor one sector away, on
        the dict, in-memory packed and file-backed packed backends."""
        for name, network, engine in _backends(worlds, tmp_path):
            planned = network.planned_configuration()
            density = uniform_per_sector_density(
                engine.evaluate(planned, np.zeros(engine.grid.shape)), 90.0)
            for base in (planned,
                         planned.with_offline([network.n_sectors - 1])):
                ev = Evaluator(engine, density, _UTILITY)
                ev.utility_of(base)
                rung = base.with_tilt(0, network.sector(0).tilt_range
                                      .uptilted(base.tilt_deg(0)))
                for anchor in (base, rung):
                    configs = (_candidate_kinds(network, anchor)
                               + [anchor.with_azimuth_offset(0, 10.0)])
                    scores = ev.score_candidates(configs, parent=anchor)
                    assert [repr(s) for s in scores] == _full_utilities(
                        engine, density, configs), name
        assert registry.counter("magus.engine.roi_evaluations").value > 0

    def test_chunk_boundaries_and_shuffles(self, monkeypatch, worlds):
        """Shuffled batches cut into chunks of two candidates: chunk
        edges split the runs that share a sibling walk."""
        rng = np.random.default_rng(0)
        for world in worlds:
            engine, density = world.engine, world.density
            base = world.network.planned_configuration()
            configs = (_candidate_kinds(world.network, base)
                       + _composition_batch(world, [], 0, base)[1:])
            want = _full_utilities(engine, density, configs)
            for cells in (None, 2 * engine.grid.shape[0]
                          * engine.grid.shape[1]):
                if cells:
                    monkeypatch.setattr(roi, "STACK_CELLS", cells)
                for _ in range(3):
                    order = rng.permutation(len(configs))
                    ev = Evaluator(engine, density, _UTILITY)
                    ev.utility_of(base)
                    got = ev.score_candidates([configs[i] for i in order],
                                              parent=base)
                    assert [repr(got[j]) for j in np.argsort(order)] == \
                        want, world.name


def _straddling_world(toy_grid):
    """Two sectors facing each other, an engine whose noise floor puts
    one cell's SINR between the windowed total of the incremental
    update ``total + (new - old)`` and the sum-tree total, across a CQI
    threshold; the base configuration and the candidate (sector 1 up
    1 dB).  With two sectors the tree total is also the sequential
    one."""
    network = CellularNetwork(make_sectors(
        [(-400.0, 0.0), (400.0, 0.0)], azimuths=[90.0, 270.0],
        power_dbm=35.0, max_power_dbm=41.0))
    pathloss = PathLossDatabase.from_environment(
        network, Environment.flat(toy_grid), shadowing_sigma_db=0.0, seed=0)
    link = LinkAdaptation()
    base = network.planned_configuration()
    candidate = base.with_power(1, base.power_dbm(1) + 1.0)
    engine = AnalysisEngine(pathloss, link=link)
    density = uniform_per_sector_density(
        engine.evaluate(base, np.zeros(toy_grid.shape)), 90.0)
    r0 = engine._sector_row(base, 0)[0]
    r1 = engine._sector_row(base, 1)[0]
    r1_new = engine._sector_row(candidate, 1)[0]
    tree = r0 + r1_new
    update = (r0 + r1) + (r1_new - r1)
    best = np.maximum(r0, r1_new)

    def rate(noise_dbm, total, cell):
        probe = AnalysisEngine(pathloss, link=link, noise_dbm=noise_dbm)
        b = best.reshape(-1)[cell:cell + 1]
        t = total.reshape(-1)[cell:cell + 1]
        sinr = probe._sinr_raster(probe._interference_mw(t, b), b)
        return link.max_rate_bps(sinr)[0], sinr[0]

    cells = np.flatnonzero((tree != update).ravel()
                           & (density.ravel() > 0))
    for cell in cells:
        t, u = tree.reshape(-1)[cell], update.reshape(-1)[cell]
        low, high = (tree, update) if t > u else (update, tree)
        clean = rate(-400.0, low, cell)[1]
        below = [thr for thr in CQI_SINR_THRESHOLDS_DB if thr < clean - 0.1]
        if not below:
            continue
        thr = below[-1]
        # The lower SINR (larger total) falls below ``thr`` at a
        # noise floor the higher one still clears.
        lo, hi = -400.0, 0.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid in (lo, hi):
                break
            if rate(mid, low, cell)[1] >= thr:
                lo = mid
            else:
                hi = mid
        if rate(hi, high, cell)[1] >= thr > rate(hi, low, cell)[1]:
            return (AnalysisEngine(pathloss, link=link, noise_dbm=hi),
                    density, base, candidate)
    raise AssertionError("no straddling cell found")


class TestCqiStraddle:
    def test_score_equals_full_utility_at_a_threshold(self, toy_grid):
        """The crafted cell: the incremental update would land it on
        the other side of a CQI threshold than ``utility_of`` does."""
        engine, density, base, candidate = _straddling_world(toy_grid)
        state = engine.evaluate(candidate, density)
        r0 = engine._sector_row(base, 0)[0]
        r1 = engine._sector_row(base, 1)[0]
        r1_new = engine._sector_row(candidate, 1)[0]
        update = (r0 + r1) + (r1_new - r1)
        moved = engine._link_rasters(
            engine._sinr_raster(engine._interference_mw(
                update, np.maximum(r0, r1_new)), np.maximum(r0, r1_new)),
            np.maximum(r0, r1_new), state.raw_serving)[0]
        assert (moved != state.max_rate_bps).sum() >= 1
        ev = Evaluator(engine, density, _UTILITY)
        ev.utility_of(base)
        score, = ev.score_candidates([candidate], parent=base)
        assert [repr(score)] == _full_utilities(engine, density,
                                                [candidate])


class TestBoxesDerivedOnce:
    def test_one_setting_box_per_sector(self, monkeypatch, worlds):
        """A dense evaluation derives each sector's box once: the row
        producer returns it, and the window is the union of those."""
        for world in worlds:
            engine, density = world.engine, world.density
            calls = []
            real = engine._setting_box

            def spy(sector_id, setting, _real=real):
                calls.append(sector_id)
                return _real(sector_id, setting)

            monkeypatch.setattr(engine, "_setting_box", spy)
            config = world.network.planned_configuration()
            engine.evaluate(config, density)
            assert calls == list(range(world.network.n_sectors))
            del calls[:]
            engine.evaluate_with_incumbent(config, density)
            assert calls == list(range(world.network.n_sectors))
