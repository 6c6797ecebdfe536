"""PR-4 perf harness: full vs. delta vs. batched candidate scoring.

Times the inner loop of Algorithm 1 — scoring every neighbor's +1 dB
trial configuration against an incumbent — under the three evaluation
mechanisms the engine now offers:

* ``full``     — one canonical :meth:`AnalysisEngine.evaluate` per trial
  (the evaluation kernel run from the dark anchor, every sector
  changed, so the bar compares one kernel over k = S sectors with
  k = 1);
* ``delta``    — :meth:`AnalysisEngine.evaluate_delta` per trial (single
  changed plane, winners recomputed only where the flip is possible);
* ``batched``  — one :meth:`AnalysisEngine.evaluate_batch` call scoring
  the whole candidate set at once.

Timings are manual ``perf_counter`` medians, so the file runs (and
keeps asserting the >=3x acceptance bar) under plain pytest with
``--benchmark-disable`` — that is exactly what the CI ``perf-smoke``
job does.  Results are written to ``BENCH_pr4.json`` at the repo root,
one machine-readable row per (scenario, strategy).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List

from repro.core.evaluation import Evaluator

from conftest import (host_provenance, median_s, neighbor_power_ladder,
                      report)

#: Rounds per median; override for quick CI smoke runs.
_ROUNDS = int(os.environ.get("BENCH_PR4_ROUNDS", "5"))
_OUT_PATH = Path(os.environ.get(
    "BENCH_PR4_OUT",
    str(Path(__file__).resolve().parents[1] / "BENCH_pr4.json")))

_RESULTS: List[dict] = []


def _neighbor_trials(area):
    """The Algorithm-1 candidate set: +1 dB per involved sector."""
    return neighbor_power_ladder(area, units=(1.0,))


def _median_s(fn, rounds: int = _ROUNDS) -> float:
    return median_s(fn, rounds)


def _time_scenario(area, scenario_name: str) -> dict:
    """Median seconds to score the whole neighbor set, per strategy."""
    config, trials = _neighbor_trials(area)
    engine = area.engine
    density = area.ue_density
    _, incumbent = engine.evaluate_with_incumbent(config, density)

    def run_full():
        for trial in trials:
            engine.evaluate(trial, density)

    def run_delta():
        for trial in trials:
            assert engine.evaluate_delta(incumbent, trial,
                                         density) is not None

    def run_batched():
        assert engine.evaluate_batch(incumbent, trials,
                                     density) is not None

    run_full()          # warm the mW row caches
    run_delta()
    run_batched()
    medians = {"full": _median_s(run_full),
               "delta": _median_s(run_delta),
               "batched": _median_s(run_batched)}

    # Evaluator-level view of the same loop: score_candidates under
    # both strategies (cache disabled so every round really evaluates).
    full_ev = Evaluator(engine, density, cache_size=0, strategy="full")
    delta_ev = Evaluator(engine, density, cache_size=0, strategy="delta")
    delta_ev.utility_of(config)         # anchor the incumbent ring
    medians["evaluator-full"] = _median_s(
        lambda: full_ev.score_candidates(trials))
    medians["evaluator-batched"] = _median_s(
        lambda: delta_ev.score_candidates(trials))

    rows = {}
    for strategy, median_s in medians.items():
        base = medians["evaluator-full"] if strategy.startswith(
            "evaluator") else medians["full"]
        rows[strategy] = {
            "scenario": scenario_name,
            "strategy": strategy,
            "median_s": median_s,
            "speedup_vs_full": base / median_s if median_s > 0 else None,
            "n_candidates": len(trials),
            "n_sectors": area.network.n_sectors,
            "grid": list(area.grid.shape),
            "rounds": _ROUNDS,
        }
    _RESULTS.extend(rows.values())

    report(f"\n{scenario_name}: {area.network.n_sectors} sectors, "
           f"{area.grid.shape[0]}x{area.grid.shape[1]} grid, "
           f"{len(trials)} candidates")
    for strategy, row in rows.items():
        report(f"  {strategy:18s} {row['median_s'] * 1e3:9.2f} ms  "
               f"({row['speedup_vs_full']:.1f}x)")
    return rows


def test_neighbor_scoring_small(small_bench_area):
    """Smoke-sized scenario: parity of the loop, not the 3x bar."""
    rows = _time_scenario(small_bench_area, "suburban-40x40")
    assert rows["batched"]["speedup_vs_full"] > 1.0


def test_neighbor_scoring_large(bench_area_120):
    """The acceptance scenario: >=3x on the 60-sector 120x120 loop."""
    rows = _time_scenario(bench_area_120, "suburban-60s-120x120")
    best = max(rows["delta"]["speedup_vs_full"],
               rows["batched"]["speedup_vs_full"])
    assert best >= 3.0, (
        f"delta engine speedup {best:.2f}x below the 3x acceptance bar")


def test_write_results_json():
    """Persist machine-readable results (runs last in this file)."""
    assert _RESULTS, "timing tests must run before the JSON writer"
    payload = {
        "schema": "magus.bench-pr4/1",
        "generated_by": "benchmarks/bench_delta_engine.py",
        "rounds": _ROUNDS,
        "host": host_provenance(),
        "results": _RESULTS,
    }
    _OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n",
                         encoding="utf-8")
    report(f"\nwrote {_OUT_PATH}")
