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

import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.evaluation import Evaluator
from repro.core.magus import Magus
from repro.core.utility import PerformanceUtility, UtilityFunction
from repro.faults.chaos import ChaosInjector, ChaosPlan, WorkerKill
from repro.model.engine import AnalysisEngine, DeltaIncumbent
from repro.model.linkrate import LinkAdaptation
from repro.model.load import uniform_per_sector_density
from repro.model.network import CellularNetwork
from repro.model.pathloss import (DEFAULT_CLIP_FLOOR_DB, PathLossDatabase,
                                  plane_footprint)
from repro.model.plossdb import load_packed, save_packed
from repro.model.propagation import Environment
from repro.model.roi import (EMPTY_BOX, RoiBaseline, box_area,
                             box_is_empty, box_union)
from repro.obs import MetricsRegistry, set_registry
from repro.obs.report import RunReport
from repro.parallel import EvaluationService

from conftest import make_sectors
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
    windows past half the grid; a single-sector network (no runner-up).
    Azimuth moves add rotated candidates (whole-grid windows) to each.
    """
    single = CellularNetwork(make_sectors([(0.0, 0.0)], power_dbm=35.0,
                                          max_power_dbm=41.0))
    return [
        _World("clipped", toy_network, clipped_pathloss),
        _World("unclipped", toy_network, toy_pathloss),
        _World("wide", toy_network, _clipped_pathloss(
            toy_grid, toy_network, floor=_WIDE_FLOOR)),
        _World("single", single, _clipped_pathloss(toy_grid, single)),
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
        for world in worlds:
            engine, density = world.engine, world.density
            config = world.network.planned_configuration()
            _, incumbent = engine.evaluate_with_incumbent(config, density)
            # A rotated pattern first: a whole-grid window in every world.
            for move in [("azimuth", 0, 2.0)] + list(moves):
                new_config = world.apply(config, move)
                if new_config == config:
                    continue
                result = engine.evaluate_delta(incumbent, new_config,
                                               density)
                assert result is not None
                state, incumbent = result
                _assert_states_equal(state,
                                     engine.evaluate(new_config, density))
                config = new_config

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
def _masked_argmax_runner_up(planes, serving):
    """Reference runner-up: blank each cell's serving row, argmax."""
    if planes.shape[0] == 1:
        return np.full(serving.shape, -np.inf), serving.copy()
    masked = planes.copy()
    np.put_along_axis(masked, serving[None].astype(np.intp), -np.inf,
                      axis=0)
    idx = masked.argmax(axis=0)
    val = np.take_along_axis(masked, idx[None], axis=0)[0]
    return val, idx.astype(np.int32)


def _stack_incumbent(planes) -> DeltaIncumbent:
    serving = planes.argmax(axis=0).astype(np.int32)
    best = np.take_along_axis(planes, serving[None], axis=0)[0]
    return DeltaIncumbent(None, planes, planes.sum(axis=0), serving, best,
                          epoch=0)


def _assert_runner_equal(got, want):
    (got_val, got_idx), (want_val, want_idx) = got, want
    assert got_val.dtype == want_val.dtype
    assert got_val.tobytes() == want_val.tobytes()
    assert np.array_equal(got_idx, want_idx)


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


class TestRunnerUpParity:
    """The boxed runner-up walk == masked argmax over the stack, bitwise."""

    @settings(max_examples=200, deadline=None)
    @given(planes=_sparse_stacks(),
           boxes=st.sampled_from(["tight", "none", "unknown", "mixed"]))
    def test_boxed_matches_masked_argmax(self, planes, boxes):
        incumbent = _stack_incumbent(planes)
        tight = [plane_footprint(plane) for plane in planes]
        walk = {"tight": tight,                      # EMPTY_BOX off-air
                "none": None,                        # no list at all
                "unknown": [None] * len(tight),      # full-grid boxes
                "mixed": [b if s % 2 else None
                          for s, b in enumerate(tight)]}[boxes]
        _assert_runner_equal(
            incumbent.runner_up(walk),
            _masked_argmax_runner_up(planes, incumbent.raw_serving))

    def test_zero_tie_cells(self):
        planes = np.zeros((3, 1, 3))
        planes[2, 0, 1] = 1.0        # sector 2 serves alone: runner 0
        planes[0, 0, 2] = 1.0        # sector 0 serves alone: runner 1
        incumbent = _stack_incumbent(planes)    # cell 0: all zero
        boxes = [plane_footprint(plane) for plane in planes]
        assert boxes[1] == EMPTY_BOX
        val, idx = incumbent.runner_up(boxes)
        assert idx.tolist() == [[1, 0, 1]]
        assert val.tolist() == [[0.0, 0.0, 0.0]]
        _assert_runner_equal(
            (val, idx),
            _masked_argmax_runner_up(planes, incumbent.raw_serving))

    def test_single_sector(self):
        planes = np.array([[[0.0, 2.0]]], dtype=np.float32)
        val, idx = _stack_incumbent(planes).runner_up([EMPTY_BOX])
        assert np.all(np.isneginf(val))
        assert idx.tolist() == [[0, 0]]

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
        _assert_runner_equal(
            incumbent.runner_up(roi_engine.sector_boxes(config)),
            _masked_argmax_runner_up(incumbent.planes,
                                     incumbent.raw_serving))

    def test_unclipped_dict_walks_full_grid(self, toy_engine, toy_network,
                                            toy_density):
        config = toy_network.planned_configuration().with_offline([0])
        boxes = toy_engine.sector_boxes(config)
        assert boxes[0] == EMPTY_BOX and boxes[1:] == [None, None]
        _, incumbent = toy_engine.evaluate_with_incumbent(config,
                                                          toy_density)
        _assert_runner_equal(
            incumbent.runner_up(boxes),
            _masked_argmax_runner_up(incumbent.planes,
                                     incumbent.raw_serving))


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
        incumbent.state = None          # as if it never ran _finish
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
