"""Tests for the observability subsystem (``repro.obs``)."""

import json
import logging

import numpy as np
import pytest

from repro.core.evaluation import Evaluator
from repro.core.search import PowerSearchSettings, tune_power
from repro.obs import (NULL_REGISTRY, Counter, Gauge, MetricsRegistry,
                       NullRegistry, RunReport, Timer, get_logger,
                       get_registry, set_registry, setup_logging,
                       use_registry, verbosity_to_level)


class TestCounter:
    def test_inc_and_value(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_reset(self):
        c = Counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0

    def test_cost_meter_reads_spent_since_creation(self):
        c = Counter("x")
        c.inc(10)
        meter = c.meter()
        assert meter.spent() == 0
        c.inc(4)
        assert meter.spent() == 4

    def test_snapshot(self):
        c = Counter("x")
        c.inc(2)
        assert c.snapshot() == {"type": "counter", "value": 2}


class TestGauge:
    def test_set_tracks_min_max(self):
        g = Gauge("g")
        assert g.value is None
        g.set(3.0)
        g.set(-1.0)
        g.set(2.0)
        snap = g.snapshot()
        assert snap["value"] == 2.0
        assert snap["min"] == -1.0
        assert snap["max"] == 3.0
        assert snap["updates"] == 3


class TestTimer:
    def test_records_durations(self):
        t = Timer("t")
        with t.time():
            pass
        assert t.count == 1
        assert t.total_ns >= 0
        assert t.min_ns is not None and t.max_ns is not None

    def test_percentiles_over_known_samples(self):
        t = Timer("t")
        for ns in [100, 200, 300, 400, 500]:
            t.observe_ns(ns)
        assert t.percentile_ns(0) == 100
        assert t.percentile_ns(50) == 300
        assert t.percentile_ns(100) == 500
        assert t.mean_ns == 300

    def test_ring_buffer_bounds_memory(self):
        t = Timer("t", ring_size=8)
        for ns in range(100):
            t.observe_ns(ns)
        assert t.count == 100
        assert len(t._ring) == 8
        # Ring holds the most recent 8 observations (92..99).
        assert t.percentile_ns(0) == 92

    def test_empty_timer_percentile_is_none(self):
        assert Timer("t").percentile_ns(50) is None
        assert Timer("t").mean_ns is None


class TestMetricsRegistry:
    def test_same_name_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.timer("b") is reg.timer("b")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.timer("a")

    def test_snapshot_lists_all_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.5)
        with reg.timer("t").time():
            pass
        snap = reg.snapshot()
        assert set(snap) == {"c", "g", "t"}
        assert snap["c"]["type"] == "counter"
        assert snap["g"]["type"] == "gauge"
        assert snap["t"]["type"] == "timer"

    def test_reset_clears(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.snapshot() == {}


class TestNullRegistry:
    def test_noop_registry_adds_no_keys(self):
        reg = NullRegistry()
        reg.counter("a").inc(100)
        reg.gauge("b").set(1.0)
        with reg.timer("c").time():
            pass
        assert reg.snapshot() == {}
        assert not reg.enabled

    def test_shared_singletons(self):
        reg = NullRegistry()
        assert reg.counter("a") is reg.counter("b")
        assert reg.timer("a") is reg.timer("b")

    def test_null_counter_never_counts(self):
        reg = NullRegistry()
        c = reg.counter("a")
        c.inc(5)
        assert c.value == 0


class TestActiveRegistry:
    def test_default_is_null(self):
        assert get_registry() is NULL_REGISTRY

    def test_set_and_restore(self):
        reg = MetricsRegistry()
        previous = set_registry(reg)
        try:
            assert get_registry() is reg
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_use_registry_restores_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(reg):
                assert get_registry() is reg
                raise RuntimeError("boom")
        assert get_registry() is NULL_REGISTRY


class TestTracer:
    """Spans: ``registry.span`` times phases and, with ``keep_spans``,
    keeps their trees."""

    def test_spans_noop_when_disabled(self):
        # No real registry: the span is the shared no-op context.
        assert NULL_REGISTRY.span("a", k=1) is NULL_REGISTRY.span("b")
        with get_registry().span("outer"):
            with get_registry().span("inner"):
                pass
        assert NULL_REGISTRY.spans() == []
        assert NULL_REGISTRY.snapshot() == {}

    def test_span_nesting(self):
        reg = MetricsRegistry(keep_spans=True)
        with reg.span("outer") as outer:
            with reg.span("inner") as inner:
                pass
            with reg.span("sibling") as sibling:
                pass
        roots = reg.spans()
        assert roots == [outer]
        assert outer.children == [inner, sibling]
        assert outer.duration_ns >= inner.duration_ns
        # Reading keeps the spans; reset drops them.
        assert reg.spans() == [outer]
        reg.reset()
        assert reg.spans() == []

    def test_span_exception_safety(self):
        reg = MetricsRegistry(keep_spans=True)
        with pytest.raises(ValueError):
            with reg.span("outer"):
                with reg.span("failing"):
                    raise ValueError("bad")
        # The stack is fully unwound: the next span is a root.
        with reg.span("next"):
            pass
        roots = reg.spans()
        assert [s.name for s in roots] == ["outer", "next"]
        outer = roots[0]
        failing = outer.children[0]
        assert failing.status == "error"
        assert "ValueError" in failing.error
        assert outer.status == "error"
        # Failed spans are still timed.
        assert reg.timer("span.failing").count == 1

    def test_span_records_registry_timer(self):
        with use_registry(MetricsRegistry()) as reg:
            with reg.span("magus.test_phase"):
                pass
            snap = reg.snapshot()
        assert snap["span.magus.test_phase"]["count"] == 1
        # Without keep_spans the span is only the timer: no tree.
        assert reg.spans() == []

    def test_span_tags_and_dict(self):
        reg = MetricsRegistry(keep_spans=True)
        with reg.span("tagged", knob="power", n=3):
            pass
        span = reg.spans()[0]
        d = span.to_dict()
        assert d["tags"] == {"knob": "power", "n": 3}
        assert d["status"] == "ok"
        assert reg.snapshot()["span.tagged"]["count"] == 1


class TestRunReport:
    def _sample(self):
        return RunReport(
            command="mitigate",
            meta={"utility": "performance"},
            phases=[{"name": "magus.tilt_pass", "calls": 1,
                     "wall_time_s": 0.5, "mean_s": 0.5}],
            iterations=[{"step": 1, "sector": 2, "knob": "power",
                         "old_value": 30.0, "new_value": 31.0,
                         "utility": 10.5, "delta_utility": 0.5,
                         "evaluations": 4}],
            utility_trajectory=[10.0, 10.5],
            total_model_evaluations=4,
            metrics={"magus.engine.evaluations":
                     {"type": "counter", "value": 12}})

    def test_json_round_trip(self):
        report = self._sample()
        text = report.to_json()
        loaded = RunReport.from_json(text)
        assert loaded.to_dict() == report.to_dict()

    def test_from_json_rejects_unknown_schema(self):
        bad = json.dumps({"schema": "nope/9"})
        with pytest.raises(ValueError):
            RunReport.from_json(bad)

    def test_write_and_read_file(self, tmp_path):
        path = tmp_path / "run.json"
        report = self._sample()
        report.write(str(path))
        loaded = RunReport.from_json(path.read_text())
        assert loaded.total_model_evaluations == 4

    def test_to_table_mentions_phases_and_totals(self):
        table = self._sample().to_table()
        assert "magus.tilt_pass" in table
        assert "4 model evaluations" in table

    @staticmethod
    def _every_section():
        """A report with every table section filled in."""
        w1, w2 = "pid=4242,worker=1", "pid=4243,worker=2"
        metrics = {name: {"type": "counter", "value": value}
                   for name, value in (
                       ("magus.engine.evaluations", 12),
                       ("magus.faults.injected", 3),
                       ("magus.resilience.retries", 2),
                       ("magus.engine.delta_evaluations", 40),
                       ("magus.engine.delta_fallbacks", 1),
                       ("magus.evaluator.state_rebuilds", 5),
                       ("magus.engine.roi_evaluations", 30),
                       ("magus.engine.roi_cells", 123456),
                       ("magus.parallel.tasks", 8))}
        metrics["magus.sweep.mitigations_per_hour"] = {"type": "gauge",
                                                       "value": 1234.5}
        for label, chunks, busy_ns, evaluations in ((w2, 3, 3 * 10**9, 7),
                                                    (w1, 5, 10**9, 9)):
            for name, value in (("magus.parallel.chunks", chunks),
                                ("magus.parallel.worker_busy_ns", busy_ns),
                                ("magus.engine.evaluations", evaluations)):
                metrics[f"{name}{{{label}}}"] = {"type": "counter",
                                                 "value": value}
        metrics["span.magus.tilt_pass"] = {"type": "timer", "count": 1,
                                           "total_ns": 500_000_000}
        return RunReport(
            command="mitigate", meta={"utility": "performance", "seed": 1},
            phases=[{"name": "magus.tilt_pass", "calls": 1,
                     "wall_time_s": 0.5, "mean_s": 0.5},
                    {"name": "magus.power_pass", "calls": 12,
                     "wall_time_s": 1.25, "mean_s": 0.104}],
            iterations=[{"step": 1, "sector": 2, "knob": "power",
                         "old_value": 30.0, "new_value": 31.0,
                         "utility": 10.5, "delta_utility": 0.5,
                         "evaluations": 4}],
            utility_trajectory=[10.0, 10.5], total_model_evaluations=4,
            metrics=metrics,
            resources={"peak_rss_mb": 188.5, "minor_faults": 1234,
                       "major_faults": 0})

    def test_output_is_unchanged(self):
        """The table and the JSON read as they did before the table's
        sections shared one renderer (the JSON by its SHA-256)."""
        import hashlib
        report = self._every_section()
        assert report.to_table() == "\n".join([
            "run report (mitigate): 1 accepted steps, 4 model evaluations",
            "utility: 10 -> 10.5 over 1 steps",
            "phase             calls   wall (s)",
            "magus.tilt_pass       1     0.5000",
            "magus.power_pass     12     1.2500",
            "resources:",
            "  peak_rss_mb   188.5",
            "  minor_faults  1234",
            "  major_faults  0",
            "resilience:",
            "  magus.faults.injected     3",
            "  magus.resilience.retries  2",
            "delta engine:",
            "  magus.engine.delta_evaluations  40",
            "  magus.engine.delta_fallbacks    1",
            "  magus.evaluator.state_rebuilds  5",
            "roi:",
            "  magus.engine.roi_evaluations  30",
            "  magus.engine.roi_cells        123456",
            "parallel:",
            "  magus.parallel.tasks              8",
            "  magus.sweep.mitigations_per_hour  1234.5",
            "  worker 1 (pid 4242): 5 chunks, 1.000 s busy (25.0%), "
            "9 evaluations",
            "  worker 2 (pid 4243): 3 chunks, 3.000 s busy (75.0%), "
            "7 evaluations"])
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "e3f78612982ec61fd28f524bfcf3bb971b2183ea5590f9268dfda105060c87f5")
        # Worker rows alone still open the parallel section.
        label = "pid=7,worker=1"
        workers_only = RunReport(command="sweep", metrics={
            f"magus.parallel.chunks{{{label}}}": {"type": "counter",
                                                 "value": 2},
            f"magus.engine.evaluations{{{label}}}": {"type": "counter",
                                                    "value": 6}})
        assert workers_only.to_table() == "\n".join([
            "run report (sweep): 0 accepted steps, 0 model evaluations",
            "parallel:",
            "  worker 1 (pid 7): 2 chunks, 0.000 s busy (0.0%), "
            "6 evaluations"])
        assert RunReport().to_table() == (
            "run report (unknown): 0 accepted steps, 0 model evaluations")

    def test_from_mitigation_agrees_with_tuning_trace(
            self, toy_evaluator, toy_network):
        with use_registry(MetricsRegistry()) as reg:
            meter = toy_evaluator.cost_meter()
            result_tuning = tune_power(
                toy_evaluator, toy_network,
                toy_evaluator.state_of(
                    toy_network.planned_configuration()).config.with_offline(
                        (0,)),
                toy_evaluator.state_of(
                    toy_network.planned_configuration()),
                (0,), PowerSearchSettings(max_iterations=5))
            from repro.core.plan import MitigationResult
            plan = MitigationResult(
                target_sectors=(0,),
                c_before=toy_network.planned_configuration(),
                c_upgrade=result_tuning.initial_config,
                c_after=result_tuning.final_config,
                f_before=1.0, f_upgrade=0.5,
                f_after=result_tuning.final_utility,
                tuning=result_tuning, evaluations=meter.spent())
            report = RunReport.from_mitigation(plan, registry=reg)
        assert report.total_model_evaluations == plan.evaluations > 0
        assert all("evaluations" not in it for it in report.iterations)
        assert report.utility_trajectory == result_tuning.utility_trace()
        assert len(report.iterations) == result_tuning.n_steps
        # The power pass span landed in the phases table.
        assert any(p["name"] == "magus.power_pass"
                   for p in report.phases)

    def test_delta_section_reports_state_rebuilds(self, toy_evaluator,
                                                  toy_network):
        base = toy_network.planned_configuration()
        with use_registry(MetricsRegistry()) as reg:
            toy_evaluator.utility_of(base)
            config = base
            for sector in (0, 1, 2):           # base leaves the ring
                config = config.with_power(sector, 33.0)
                toy_evaluator.utility_of(config)
            toy_evaluator.state_of(base)       # its state was freed
            report = RunReport.from_registry("mitigate", registry=reg)
        assert report.delta_metrics()["magus.evaluator.state_rebuilds"] == 1
        assert ("magus.evaluator.state_rebuilds  1"
                in report.to_table().split("delta engine:")[1])

    def test_resources_block_reads_getrusage(self):
        resource = pytest.importorskip("resource")
        before = resource.getrusage(resource.RUSAGE_SELF)
        report = RunReport.from_registry("mitigate", MetricsRegistry())
        after = resource.getrusage(resource.RUSAGE_SELF)
        res = report.resources
        assert set(res) == {"peak_rss_mb", "minor_faults", "major_faults"}
        assert res["peak_rss_mb"] > 0
        assert before.ru_minflt <= res["minor_faults"] <= after.ru_minflt
        assert before.ru_majflt <= res["major_faults"] <= after.ru_majflt
        assert RunReport.from_json(report.to_json()).resources == res
        table = report.to_table()
        assert "resources:" in table
        assert f"minor_faults  {res['minor_faults']}" in table


class TestInstrumentationIntegration:
    def test_workspace_bytes_gauge(self, toy_engine, toy_network):
        config = toy_network.planned_configuration()
        density = np.ones(toy_engine.grid.shape)
        with use_registry(MetricsRegistry()) as reg:
            toy_engine.evaluate(config, density)
            snap = reg.snapshot()
        gauge = snap["magus.engine.workspace_bytes"]
        assert gauge["value"] == toy_engine.workspace.nbytes > 0

    def test_evaluator_mirror_counters(self, toy_evaluator, toy_network):
        config = toy_network.planned_configuration()
        with use_registry(MetricsRegistry()) as reg:
            toy_evaluator.utility_of(config)
            toy_evaluator.utility_of(config)      # cache hit
            snap = reg.snapshot()
        assert snap["magus.evaluator.model_evaluations"]["value"] == 1
        assert snap["magus.evaluator.cache_hits"]["value"] == 1
        assert snap["magus.engine.evaluations"]["value"] == 1
        assert snap["magus.engine.evaluate"]["count"] == 1

    def test_cost_meter_matches_counter_attribute(self, toy_evaluator,
                                                  toy_network):
        config = toy_network.planned_configuration()
        before = toy_evaluator.model_evaluations
        meter = toy_evaluator.cost_meter()
        toy_evaluator.utility_of(config.with_power(0, 31.0))
        assert meter.spent() == toy_evaluator.model_evaluations - before

    def test_disabled_run_leaves_registry_empty(self, toy_evaluator,
                                                toy_network):
        config = toy_network.planned_configuration()
        toy_evaluator.utility_of(config.with_power(0, 33.0))
        assert get_registry().snapshot() == {}


class TestLogging:
    def test_verbosity_mapping(self):
        assert verbosity_to_level(0) == logging.WARNING
        assert verbosity_to_level(1) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG
        assert verbosity_to_level(9) == logging.DEBUG

    def test_setup_logging_idempotent(self):
        logger = setup_logging(logging.INFO)
        n_handlers = len(logger.handlers)
        again = setup_logging(logging.DEBUG)
        assert again is logger
        assert len(logger.handlers) == n_handlers
        assert logger.level == logging.DEBUG

    def test_setup_logging_level_name(self):
        logger = setup_logging("warning")
        assert logger.level == logging.WARNING

    def test_setup_logging_rejects_bad_level(self):
        with pytest.raises(ValueError):
            setup_logging("not-a-level")

    def test_search_emits_iteration_lines(self, toy_evaluator,
                                          toy_network, caplog):
        config = toy_network.planned_configuration().with_offline((0,))
        baseline = toy_evaluator.state_of(
            toy_network.planned_configuration())
        logger = get_logger("core.search")
        logger.propagate = True        # let caplog's root handler see it
        try:
            with caplog.at_level(logging.INFO, logger=logger.name):
                tune_power(toy_evaluator, toy_network, config, baseline,
                           (0,), PowerSearchSettings(max_iterations=5))
        finally:
            logger.propagate = False
        accepted = [r for r in caplog.records
                    if "delta_utility=" in r.getMessage()]
        if accepted:                   # toy world may converge instantly
            message = accepted[0].getMessage()
            assert "sector=" in message
            assert "knob=" in message
            assert "unit_db=" in message


class TestEngineCounterCompatibility:
    def test_evaluations_property_counts(self, toy_engine, toy_network,
                                         toy_density):
        before = toy_engine.evaluations
        toy_engine.evaluate(toy_network.planned_configuration(),
                            toy_density)
        assert toy_engine.evaluations == before + 1

    def test_evaluations_setter_resets(self, toy_engine, toy_network,
                                       toy_density):
        toy_engine.evaluate(toy_network.planned_configuration(),
                            toy_density)
        toy_engine.evaluations = 0
        assert toy_engine.evaluations == 0
