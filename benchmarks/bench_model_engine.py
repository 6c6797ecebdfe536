"""Micro-benchmarks of the analysis engine — the model's inner loop.

The whole point of a model-based approach is that evaluating a
candidate configuration is cheap (milliseconds) compared to a
measurement round in the field (minutes).  These are classic
pytest-benchmark timings over the suburban area.
"""

import numpy as np

from repro.core.evaluation import Evaluator

from conftest import report


def test_engine_single_evaluation(suburban_area, benchmark):
    """One full Formula 1-4 evaluation (no caching)."""
    area = suburban_area
    config = area.c_before

    result = benchmark(lambda: area.engine.evaluate(config,
                                                    area.ue_density))
    assert result.rate_bps.shape == area.grid.shape
    report(f"\nengine: {area.network.n_sectors} sectors x "
           f"{area.grid.n_cells} grids per evaluation")


def test_engine_power_change_evaluation(suburban_area, benchmark):
    """Evaluating a power-only change reuses the cached gain tensor."""
    area = suburban_area
    configs = [area.c_before.with_power_delta(0, 0.1 * i,
                                              max_power_dbm=46.0)
               for i in range(1, 33)]
    area.engine.evaluate(configs[0], area.ue_density)  # warm the cache
    it = iter(range(10 ** 9))

    def evaluate_next():
        config = configs[next(it) % len(configs)]
        return area.engine.evaluate(config, area.ue_density)

    state = benchmark(evaluate_next)
    assert state.max_rate_bps.max() > 0


def test_evaluator_cache_hit(suburban_area, benchmark):
    """A memoized utility lookup must be near-free."""
    area = suburban_area
    evaluator = Evaluator(area.engine, area.ue_density)
    evaluator.utility_of(area.c_before)

    value = benchmark(lambda: evaluator.utility_of(area.c_before))
    assert np.isfinite(value)
    assert evaluator.model_evaluations == 1


def test_tilt_tensor_rebuild(suburban_area, benchmark):
    """Cost of a tilt change on the dB stack: sector 0's row is
    recomputed where the row LRU lacks its tilt, and every row is
    stacked afresh."""
    area = suburban_area
    tilts = area.c_before.tilts().copy()
    counter = iter(range(10 ** 9))

    def rebuild():
        t = tilts.copy()
        t[0] = 1.0 + 0.001 * (next(counter) % 97)
        return area.pathloss.gain_tensor(t)

    tensor = benchmark(rebuild)
    assert tensor.shape[0] == area.network.n_sectors


def test_engine_delta_evaluation(suburban_area, benchmark):
    """One incremental single-sector re-evaluation (PR 4 delta path)."""
    area = suburban_area
    _, incumbent = area.engine.evaluate_with_incumbent(area.c_before,
                                                       area.ue_density)
    trial = area.c_before.with_power_delta(0, 1.0, max_power_dbm=46.0)

    result = benchmark(lambda: area.engine.evaluate_delta(
        incumbent, trial, area.ue_density))
    assert result is not None
    state, _ = result
    assert state.rate_bps.shape == area.grid.shape


def test_engine_batched_scoring(suburban_area, benchmark):
    """Scoring a 16-candidate neighbor set in one batched call."""
    area = suburban_area
    base = area.c_before
    _, incumbent = area.engine.evaluate_with_incumbent(base,
                                                       area.ue_density)
    trials = []
    for b in range(area.network.n_sectors):
        trial = base.with_power_delta(b, 1.0, max_power_dbm=46.0)
        if trial != base:
            trials.append(trial)
        if len(trials) == 16:
            break

    batch = benchmark(lambda: area.engine.evaluate_batch(
        incumbent, trials, area.ue_density))
    assert batch is not None
    assert batch.rate_bps.shape == (len(trials),) + area.grid.shape
