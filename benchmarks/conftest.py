"""Shared fixtures for the benchmark/experiment harness.

Heavy artifacts (study areas, the 27-scenario sweep) are built once per
session and shared across bench files.  ``report()`` writes through the
capture layer so the regenerated tables/series show up in
``pytest benchmarks/ --benchmark-only`` output.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import pytest

from repro.core.magus import Magus
from repro.core.search import PowerSearchSettings
from repro.obs import MetricsRegistry, use_registry
from repro.synthetic.market import (AreaDimensions, MARKET_NAMES, StudyArea,
                                    build_area)
from repro.synthetic.placement import AreaType
from repro.upgrades.scenario import UpgradeScenario, select_targets

#: Tunings swept for Table 1 / Figure 13 (naive is the Fig-13 baseline).
SWEEP_TUNINGS = ("power", "tilt", "joint", "naive")

# -- shared perf scenarios (bench_delta_engine, bench_roi_engine, ...) --
#: The acceptance scenario: the suburban deployment (~60 sectors) on a
#: 120x120 raster — same 7 km x 7 km analysis region as the default
#: suburban area, finer cells.
BENCH_DIMS = AreaDimensions(tuning_side_m=3_000.0, margin_m=2_000.0,
                            cell_size_m=7_000.0 / 120.0)

#: A coarse (40x40) variant for smoke-sized parity checks.
SMALL_BENCH_DIMS = AreaDimensions(tuning_side_m=3_000.0, margin_m=2_000.0,
                                  cell_size_m=175.0)


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="smoke-sized perf run: fewer timing rounds, correctness "
             "assertions (parity, fallback threshold) kept in full")


@pytest.fixture(scope="session")
def quick(request) -> bool:
    return bool(request.config.getoption("--quick"))


def host_provenance() -> Dict[str, object]:
    """Where this bench ran — attached to every ``BENCH_*.json``.

    Perf numbers (and skipped speedup bars) are meaningless without the
    host that produced them; a 1-CPU CI runner legitimately skips the
    >=8-worker scaling assertion that a 16-core box must pass.
    """
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux
        usable = None
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def report(text: str) -> None:
    """Print straight to the real stdout (pytest capture bypassed)."""
    sys.__stdout__.write(text + "\n")
    sys.__stdout__.flush()


def median_s(fn, rounds: int) -> float:
    """Median wall-clock seconds of ``rounds`` calls to ``fn``."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def neighbor_power_ladder(area, units=(1.0,)):
    """The Algorithm-1 candidate set around one upgrade incumbent.

    Returns ``(config, trials)``: the single-sector-down incumbent and
    the unique +N dB single-sector trials for every involved neighbor
    and every step in ``units``.  ``units=(1.0,)`` is the inner loop
    the delta bench times; the ROI bench widens the ladder.
    """
    settings = PowerSearchSettings()
    targets = select_targets(area, UpgradeScenario.SINGLE_SECTOR)
    config = area.c_before.with_offline(targets)
    neighbors = area.network.neighbors_of(
        targets, radius_m=settings.neighbor_radius_m,
        max_neighbors=settings.max_neighbors)
    trials, seen = [], set()
    for b in neighbors:
        for unit in units:
            trial = config.with_power_delta(
                b, settings.unit_db * unit,
                max_power_dbm=area.network.sector(b).max_power_dbm)
            if trial != config and trial not in seen:
                seen.add(trial)
                trials.append(trial)
    return config, trials


@pytest.fixture(scope="session")
def bench_area_120() -> StudyArea:
    """The 60-sector 120x120 acceptance area, shared across benches."""
    return build_area(AreaType.SUBURBAN, seed=7, dims=BENCH_DIMS)


@pytest.fixture(scope="session")
def small_bench_area() -> StudyArea:
    return build_area(AreaType.SUBURBAN, seed=7, dims=SMALL_BENCH_DIMS)


def area_seed(market_index: int, area_type: AreaType) -> int:
    """The seed lineage used by ``build_market`` (kept in sync)."""
    offset = list(AreaType).index(area_type)
    return 1000 * (market_index + 1) + offset


@pytest.fixture(autouse=True)
def bench_metrics(request):
    """Per-test metrics registry, attached to the benchmark result.

    Every bench runs with a fresh real registry active, so instrumented
    code records counters/timers; if the test used the ``benchmark``
    fixture, the final snapshot rides along in ``extra_info`` (and ends
    up in ``--benchmark-json`` output).
    """
    registry = MetricsRegistry()
    benchmark = (request.getfixturevalue("benchmark")
                 if "benchmark" in request.fixturenames else None)
    with use_registry(registry):
        yield registry
    if benchmark is not None:
        benchmark.extra_info["metrics"] = registry.snapshot()


@dataclass
class SweepRow:
    """One (market, area, scenario, tuning) outcome."""

    market: str
    area_type: str
    scenario: str
    tuning: str
    recovery: float
    f_before: float
    f_upgrade: float
    f_after: float
    steps: int
    evaluations: int


@pytest.fixture(scope="session")
def suburban_area() -> StudyArea:
    """One suburban area shared by Table 2 / Fig 11 / Fig 12 benches."""
    return build_area(AreaType.SUBURBAN, seed=7)


@pytest.fixture(scope="session")
def rural_area() -> StudyArea:
    return build_area(AreaType.RURAL, seed=3)


@pytest.fixture(scope="session")
def sweep_rows() -> List[SweepRow]:
    """The paper's full evaluation sweep: 3 markets x 3 area types x
    3 upgrade scenarios, under every tuning strategy.

    Areas are built one at a time and released afterwards to bound
    memory; rows carry everything Table 1 and Figure 13 need.  Each
    (scenario, tuning) plans on a fresh ``Magus``, so no ``f(C)`` memo
    carries over and a row's ``evaluations`` is its tuning's own cost.
    """
    rows: List[SweepRow] = []
    for market_index in range(len(MARKET_NAMES)):
        for area_type in AreaType:
            area = build_area(area_type,
                              seed=area_seed(market_index, area_type))
            for scenario in UpgradeScenario:
                targets = select_targets(area, scenario)
                for tuning in SWEEP_TUNINGS:
                    plan = Magus.from_area(area).plan_mitigation(
                        targets, tuning=tuning)
                    rows.append(SweepRow(
                        market=MARKET_NAMES[market_index],
                        area_type=area_type.value,
                        scenario=scenario.value,
                        tuning=tuning,
                        recovery=plan.recovery,
                        f_before=plan.f_before,
                        f_upgrade=plan.f_upgrade,
                        f_after=plan.f_after,
                        steps=plan.tuning.n_steps,
                        evaluations=plan.evaluations))
            del area
    return rows
