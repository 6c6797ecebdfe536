"""Telemetry artifacts of a pooled scenario sweep, for CI upload.

Plans every upgrade scenario of the small bench area on a 2-worker
scenario pool (:meth:`UpgradePlanner.sweep_scenarios`) with metrics
and tracing on, then writes ``run-report.json`` and ``trace.json`` —
the same exporter code paths as the CLI's ``--metrics-out`` /
``--trace-out``.  The trace must carry at least one worker track.

Run with ``BENCH_PR6_ARTIFACTS=<dir>``; without it the test skips.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.upgrades.planner import UpgradePlanner
from repro.upgrades.scenario import UpgradeScenario

from conftest import report


def test_emit_telemetry_artifacts(small_bench_area):
    """Write run-report and Chrome-trace artifacts for CI upload."""
    out_dir = os.environ.get("BENCH_PR6_ARTIFACTS")
    if not out_dir:
        pytest.skip("BENCH_PR6_ARTIFACTS not set")
    from repro.obs import (MetricsRegistry, RunReport, export_chrome_trace,
                           use_registry, validate_chrome_trace)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with use_registry(MetricsRegistry(keep_spans=True)) as registry:
        planner = UpgradePlanner(small_bench_area, workers=2)
        outcomes = planner.sweep_scenarios(list(UpgradeScenario),
                                           tuning="joint")
        payload = export_chrome_trace(str(out / "trace.json"))
        validate_chrome_trace(payload)
        worker_pids = {e["pid"] for e in payload["traceEvents"]
                       if e["ph"] == "X" and e["pid"] != os.getpid()}
        assert worker_pids, "no worker tracks in the sweep's trace"
        RunReport.from_registry(
            command="bench-sweep", registry=registry,
            total_model_evaluations=sum(
                o.plan.evaluations for o in outcomes),
            meta={"source": "bench_telemetry_artifacts.py",
                  "workers": 2}).write(str(out / "run-report.json"))
    report(f"\ntelemetry artifacts written to {out} "
           f"({len(worker_pids)} worker tracks)")
