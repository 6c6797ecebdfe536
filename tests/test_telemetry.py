"""Cross-process telemetry (PR 6).

Covers the snapshot/merge bridge between worker processes and the
parent registry (order-independence and sum-exactness of counter
merging, bounded timer-ring folding, RLock safety under concurrent
merges), the span transport and Chrome trace-event exporter, the
bounded flight recorder with exactly-once flushing, and — end to end —
the acceptance criterion: a ``workers=2`` scenario sweep whose labeled
``magus.engine.evaluations`` entries sum to exactly the serial count,
with at least one adopted span per participating worker process.
"""

from __future__ import annotations

import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import PerformanceUtility
from repro.obs import (FLIGHT_SCHEMA, NULL_FLIGHT_RECORDER, FlightRecorder,
                       MetricsRegistry, NullFlightRecorder,
                       get_flight_recorder, labeled_metric,
                       set_flight_recorder, split_metric_label, trace,
                       use_flight_recorder, use_registry)
from repro.obs.telemetry import (WorkerTelemetry, chrome_trace_events,
                                 drain_worker_telemetry, export_chrome_trace,
                                 merge_worker_telemetry, span_from_payload,
                                 span_payload, validate_chrome_trace,
                                 worker_label)
from repro.obs.tracer import Span, Tracer
from repro.parallel import EvaluationService

_UTILITY = PerformanceUtility()


# ----------------------------------------------------------------------
class TestLabeledNames:
    def test_roundtrip(self):
        name = labeled_metric("magus.engine.evaluations", "pid=7,worker=2")
        assert name == "magus.engine.evaluations{pid=7,worker=2}"
        assert split_metric_label(name) == ("magus.engine.evaluations",
                                            "pid=7,worker=2")

    def test_unlabeled_passthrough(self):
        assert split_metric_label("magus.parallel.tasks") == \
            ("magus.parallel.tasks", None)

    def test_worker_label_format(self):
        assert worker_label(123, 4) == "pid=123,worker=4"


# ----------------------------------------------------------------------
def _counter_capture(values) -> dict:
    """One worker's capture: a registry with ``c`` incremented per value."""
    registry = MetricsRegistry()
    counter = registry.counter("c")
    for value in values:
        counter.inc(value)
    return registry.capture()


class TestCaptureMerge:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=10_000),
                             min_size=1, max_size=6),
                    min_size=1, max_size=6))
    def test_counter_merge_is_sum_exact_and_order_independent(
            self, worker_values):
        captures = [(worker_label(1000 + i, i), _counter_capture(values))
                    for i, values in enumerate(worker_values)]
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for label, capture in captures:
            forward.merge_capture(capture, label=label)
        for label, capture in reversed(captures):
            backward.merge_capture(capture, label=label)
        for registry in (forward, backward):
            total = 0
            for i, values in enumerate(worker_values):
                name = labeled_metric("c", worker_label(1000 + i, i))
                assert registry.counter(name).value == sum(values)
                total += registry.counter(name).value
            assert total == sum(sum(v) for v in worker_values)
            # The unlabeled parent counter is untouched by labeled merges.
            assert registry.counter("c").value == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.integers(min_value=0, max_value=10_000),
                             min_size=1, max_size=4),
                    min_size=2, max_size=4))
    def test_repeated_chunks_from_one_worker_accumulate(self, chunks):
        """Per-chunk deltas from the same worker land on one entry."""
        registry = MetricsRegistry()
        label = worker_label(4242, 1)
        for chunk in chunks:
            registry.merge_capture(_counter_capture(chunk), label=label)
        assert registry.counter(labeled_metric("c", label)).value == \
            sum(sum(chunk) for chunk in chunks)

    def test_timer_merge_folds_within_ring_bounds(self):
        """Merged ring stays <= ring_size; count/total/min/max exact."""
        parent = MetricsRegistry()
        ring_size = parent.timer("t")._ring_size
        n_per_worker = ring_size // 2 + 500     # 2 workers overflow it
        for worker in range(2):
            registry = MetricsRegistry()
            timer = registry.timer("t")
            for i in range(n_per_worker):
                timer.observe_ns(1_000 + worker * n_per_worker + i)
            parent.merge_capture(registry.capture(),
                                 label=worker_label(worker, worker))
        merged_count = 0
        for worker in range(2):
            timer = parent.timer(labeled_metric(
                "t", worker_label(worker, worker)))
            state = timer.state()
            assert state["count"] == n_per_worker
            assert len(state["ring"]) <= ring_size
            assert state["min_ns"] == 1_000 + worker * n_per_worker
            assert state["max_ns"] == 999 + (worker + 1) * n_per_worker
            assert timer.percentile_ns(50) is not None
            merged_count += state["count"]
        assert merged_count == 2 * n_per_worker

    def test_timer_merge_onto_same_label_respects_ring_bound(self):
        parent = MetricsRegistry()
        ring_size = parent.timer("t")._ring_size
        label = worker_label(1, 1)
        total = 0
        for chunk in range(3):
            registry = MetricsRegistry()
            for i in range(ring_size):
                registry.timer("t").observe_ns(i + 1)
                total += i + 1
            parent.merge_capture(registry.capture(), label=label)
        state = parent.timer(labeled_metric("t", label)).state()
        assert state["count"] == 3 * ring_size
        assert state["total_ns"] == total
        assert len(state["ring"]) == ring_size

    def test_gauge_merge_folds_extrema(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5.0)
        capture = registry.capture()
        parent = MetricsRegistry()
        parent.gauge(labeled_metric("g", "pid=1,worker=1")).set(99.0)
        parent.merge_capture(capture, label="pid=1,worker=1")
        gauge = parent.gauge(labeled_metric("g", "pid=1,worker=1"))
        assert gauge.value == 5.0           # incoming value wins
        snapshot = gauge.snapshot()
        assert snapshot["min"] == 5.0
        assert snapshot["max"] == 99.0

    def test_concurrent_merges_are_exact(self):
        """merge_capture under the registry RLock: no lost updates."""
        parent = MetricsRegistry()
        label = worker_label(1, 1)
        threads, rounds, errors = 8, 50, []
        capture = _counter_capture([1])

        def merge_loop():
            try:
                for _ in range(rounds):
                    parent.merge_capture(capture, label=label)
            except Exception as exc:       # surfaced in the main thread
                errors.append(exc)

        workers = [threading.Thread(target=merge_loop)
                   for _ in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        assert errors == []
        assert parent.counter(labeled_metric("c", label)).value == \
            threads * rounds

    def test_null_registry_never_captures_or_merges(self):
        from repro.obs import NULL_REGISTRY
        assert NULL_REGISTRY.capture() == {}
        NULL_REGISTRY.merge_capture(_counter_capture([3]), label="pid=1")
        assert NULL_REGISTRY.snapshot() == {}


# ----------------------------------------------------------------------
class TestWorkerTelemetry:
    def test_drain_is_capture_and_reset(self):
        with use_registry(MetricsRegistry()) as registry:
            registry.counter("magus.engine.evaluations").inc(7)
            payload = drain_worker_telemetry(busy_ns=123)
            assert payload.pid == os.getpid()
            assert payload.worker_id == 0          # not in a pool
            assert payload.busy_ns == 123
            assert payload.metrics[
                "magus.engine.evaluations"]["value"] == 7
            # The registry was reset: the next drain is an empty delta.
            assert drain_worker_telemetry().metrics == {}
            assert registry.counter("magus.engine.evaluations").value == 0

    def test_drain_under_null_registry_is_empty(self):
        payload = drain_worker_telemetry()
        assert payload.metrics == {}
        assert payload.spans == []

    def test_span_payload_roundtrip(self):
        root = Span("magus.parallel.score_chunk", tags={"chunk": 3})
        root.start_ns, root.end_ns = 100, 900
        child = Span("magus.engine.batch")
        child.start_ns, child.end_ns = 200, 700
        child.status, child.error = "error", "ValueError: boom"
        root.children.append(child)
        rebuilt = span_from_payload(span_payload(root))
        assert rebuilt.name == root.name
        assert rebuilt.tags == {"chunk": 3}
        assert (rebuilt.start_ns, rebuilt.end_ns) == (100, 900)
        assert len(rebuilt.children) == 1
        grand = rebuilt.children[0]
        assert (grand.status, grand.error) == ("error", "ValueError: boom")
        assert (grand.start_ns, grand.end_ns) == (200, 700)

    def test_merge_labels_metrics_and_adopts_spans(self):
        worker_registry = MetricsRegistry()
        worker_registry.counter("magus.engine.evaluations").inc(5)
        span = Span("magus.parallel.score_chunk")
        span.start_ns, span.end_ns = 10, 20
        payload = WorkerTelemetry(pid=999, worker_id=2,
                                  metrics=worker_registry.capture(),
                                  spans=[span_payload(span)])
        parent, tracer = MetricsRegistry(), Tracer()
        tracer.enable()
        merge_worker_telemetry(payload, registry=parent, tracer=tracer)
        name = labeled_metric("magus.engine.evaluations",
                              worker_label(999, 2))
        assert parent.counter(name).value == 5
        adopted = tracer.peek()
        assert len(adopted) == 1
        assert adopted[0].tags["pid"] == 999
        assert adopted[0].tags["worker"] == 2

    def test_reset_drops_inherited_open_spans(self):
        """Fork hygiene: a worker inherits the parent's *open* span
        stack; after reset, its own spans must finish as roots."""
        tracer = Tracer()
        tracer.enable()
        inherited = tracer.span("magus.tuning")
        inherited.__enter__()              # left open, as across a fork
        tracer.reset()
        with tracer.span("magus.parallel.score_chunk"):
            pass
        assert [s.name for s in tracer.peek()] == \
            ["magus.parallel.score_chunk"]

    def test_adoption_noop_when_tracing_disabled(self):
        span = Span("s")
        payload = WorkerTelemetry(pid=1, worker_id=1,
                                  spans=[span_payload(span)])
        tracer = Tracer()                  # disabled
        merge_worker_telemetry(payload, registry=MetricsRegistry(),
                               tracer=tracer)
        tracer.enable()
        assert tracer.peek() == []


# ----------------------------------------------------------------------
class TestChromeTrace:
    def _spans(self, parent_pid):
        parent = Span("magus.mitigate")
        parent.start_ns, parent.end_ns = 0, 5_000
        child = Span("magus.power_pass")
        child.start_ns, child.end_ns = 1_000, 4_000
        parent.children.append(child)
        worker = Span("magus.parallel.score_chunk",
                      tags={"pid": parent_pid + 1, "worker": 1})
        worker.start_ns, worker.end_ns = 1_500, 3_000
        return [parent, worker]

    def test_events_have_per_process_tracks(self):
        pid = os.getpid()
        events = chrome_trace_events(self._spans(pid), parent_pid=pid)
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {pid, pid + 1}
        names = {e["pid"]: e["args"]["name"] for e in meta}
        assert names[pid] == f"magus parent (pid {pid})"
        assert names[pid + 1] == f"magus worker 1 (pid {pid + 1})"
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 3          # parent + child + worker
        by_name = {e["name"]: e for e in complete}
        assert by_name["magus.power_pass"]["pid"] == pid
        assert by_name["magus.parallel.score_chunk"]["pid"] == pid + 1
        assert by_name["magus.mitigate"]["ts"] == 0.0
        assert by_name["magus.mitigate"]["dur"] == 5.0   # microseconds

    def test_export_writes_valid_json(self, tmp_path):
        out = tmp_path / "trace.json"
        pid = os.getpid()
        payload = export_chrome_trace(str(out), spans=self._spans(pid),
                                      parent_pid=pid)
        assert validate_chrome_trace(payload) == 5
        on_disk = json.loads(out.read_text(encoding="utf-8"))
        assert validate_chrome_trace(on_disk) == 5
        assert on_disk["otherData"]["schema"] == "magus.chrome-trace/1"

    def test_export_defaults_to_tracer_peek(self, tmp_path):
        tracer = Tracer()
        tracer.enable()
        span = Span("magus.test")
        span.start_ns, span.end_ns = 1, 2
        tracer.adopt(span)
        payload = export_chrome_trace(str(tmp_path / "t.json"),
                                      tracer=tracer)
        assert validate_chrome_trace(payload) == 2    # metadata + span
        assert tracer.peek(), "export must not drain the tracer"

    @pytest.mark.parametrize("payload", [
        [],                                            # not an object
        {},                                            # no traceEvents
        {"traceEvents": {}},                           # not a list
        {"traceEvents": [{"ph": "B", "name": "x", "pid": 1}]},
        {"traceEvents": [{"ph": "X", "name": 3, "pid": 1,
                          "ts": 0, "dur": 0, "tid": 1}]},
        {"traceEvents": [{"ph": "X", "name": "x", "pid": "one",
                          "ts": 0, "dur": 0, "tid": 1}]},
        {"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                          "ts": -5, "dur": 0, "tid": 1}]},
        {"traceEvents": [{"ph": "X", "name": "x", "pid": 1,
                          "ts": 0, "dur": 0}]},        # no tid
        {"traceEvents": [{"ph": "M", "name": "process_name", "pid": 1}]},
    ])
    def test_validator_rejects_malformed(self, payload):
        with pytest.raises(ValueError):
            validate_chrome_trace(payload)


# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_bounds_and_drop_accounting(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("rollout_step", step=i)
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        retained = recorder.events()
        assert [e["data"]["step"] for e in retained] == [6, 7, 8, 9]
        assert [e["seq"] for e in retained] == [6, 7, 8, 9]
        assert all(e["kind"] == "rollout_step" for e in retained)

    def test_kind_filter(self):
        recorder = FlightRecorder()
        recorder.record("rollout_step", step=0)
        recorder.record("fault_injected", fault="push_failure")
        recorder.record("rollout_step", step=1)
        assert len(recorder.events("rollout_step")) == 2
        assert len(recorder.events("fault_injected")) == 1

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_snapshot_schema(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("checkpoint_write", path="x.json")
        snapshot = recorder.snapshot()
        assert snapshot["schema"] == FLIGHT_SCHEMA
        assert snapshot["capacity"] == 8
        assert snapshot["recorded"] == 1
        assert snapshot["dropped"] == 0
        assert snapshot["events"][0]["kind"] == "checkpoint_write"

    def test_flush_exactly_once(self, tmp_path):
        out = tmp_path / "flight.json"
        recorder = FlightRecorder(dump_path=str(out))
        recorder.record("rollout_start", run_id="r1")
        assert recorder.flush() == str(out)
        first = out.read_text(encoding="utf-8")
        # Same content, same path: the second flush is a no-op.
        assert recorder.flush() is None
        assert out.read_text(encoding="utf-8") == first
        # New events re-arm the flush.
        recorder.record("rollout_fallback", reason="aborted")
        assert recorder.flush() == str(out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert [e["kind"] for e in payload["events"]] == \
            ["rollout_start", "rollout_fallback"]

    def test_flush_without_target_is_noop(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("rollout_start")
        assert recorder.flush() is None
        explicit = tmp_path / "explicit.json"
        assert recorder.flush(str(explicit)) == str(explicit)
        assert json.loads(explicit.read_text(
            encoding="utf-8"))["schema"] == FLIGHT_SCHEMA

    def test_clear_rearms(self, tmp_path):
        out = tmp_path / "flight.json"
        recorder = FlightRecorder(dump_path=str(out))
        recorder.record("sweep_progress", done=1)
        assert recorder.flush() == str(out)
        recorder.clear()
        assert len(recorder) == 0
        recorder.record("sweep_progress", done=2)
        assert recorder.flush() == str(out)

    def test_null_recorder_noops(self):
        null = NullFlightRecorder()
        null.record("anything", x=1)
        assert len(null) == 0
        assert null.events() == []
        assert null.flush("/nonexistent/never-written.json") is None
        assert null.snapshot()["events"] == []
        assert not null.enabled

    def test_active_recorder_accessors(self):
        assert get_flight_recorder() is NULL_FLIGHT_RECORDER
        recorder = FlightRecorder()
        previous = set_flight_recorder(recorder)
        try:
            assert previous is NULL_FLIGHT_RECORDER
            assert get_flight_recorder() is recorder
        finally:
            set_flight_recorder(previous)
        assert get_flight_recorder() is NULL_FLIGHT_RECORDER
        with use_flight_recorder(recorder) as active:
            assert active is recorder
        assert get_flight_recorder() is NULL_FLIGHT_RECORDER


# ----------------------------------------------------------------------
def _square(x):
    return x * x


class TestParallelTelemetryAcceptance:
    """The acceptance criterion, on a pooled scenario sweep."""

    def test_labeled_evaluations_sum_matches_serial_exactly(
            self, small_area, tmp_path):
        from repro.upgrades.planner import UpgradePlanner
        from repro.upgrades.scenario import UpgradeScenario
        scenarios = list(UpgradeScenario)
        planner = UpgradePlanner(small_area)

        # Serial reference: the engine-evaluation count of the sweep.
        with use_registry(MetricsRegistry()) as registry:
            want = planner.sweep_scenarios(scenarios, workers=1,
                                           tuning="power")
            serial_count = registry.counter(
                "magus.engine.evaluations").value
        assert serial_count > 0

        # Pooled run: workers inherit the registry/tracer at fork.
        with use_registry(MetricsRegistry()) as registry:
            trace.enable()
            try:
                # Fork under an open parent span, so worker spans must
                # survive the inherited stack.
                with trace.span("magus.sweep"):
                    got = planner.sweep_scenarios(scenarios, workers=2,
                                                  tuning="power")
                assert [(o.plan.c_after, o.plan.f_after) for o in got] \
                    == [(o.plan.c_after, o.plan.f_after) for o in want]
                labeled = {}
                for name in registry.names():
                    metric, label = split_metric_label(name)
                    if (metric == "magus.engine.evaluations"
                            and label is not None):
                        labeled[label] = registry.counter(name).value
                assert labeled, "no per-worker labeled evaluations merged"
                assert sum(labeled.values()) == serial_count
                for label in labeled:
                    tags = dict(part.split("=", 1)
                                for part in label.split(","))
                    assert int(tags["pid"]) != os.getpid()
                    assert int(tags["worker"]) >= 1

                # At least one adopted span per participating worker.
                span_pids = {span.tags.get("pid")
                             for span in trace.peek()
                             if "pid" in span.tags}
                labeled_pids = {int(dict(
                    part.split("=", 1)
                    for part in label.split(","))["pid"])
                    for label in labeled}
                assert labeled_pids <= span_pids

                # Chrome export covers the worker tracks.
                out = tmp_path / "trace.json"
                payload = export_chrome_trace(str(out), tracer=trace)
                validate_chrome_trace(payload)
                event_pids = {e["pid"]
                              for e in payload["traceEvents"]
                              if e["ph"] == "X"}
                assert labeled_pids <= event_pids

                # The run report renders the merged utilization.
                from repro.obs import RunReport
                report = RunReport.from_registry(
                    command="test", registry=registry, tracer=trace)
                rows = report.worker_utilization()
                assert {row["pid"] for row in rows} == labeled_pids
                assert all(row["chunks"] >= 1 for row in rows)
                assert "parallel:" in report.to_table()
            finally:
                trace.disable()
                trace.clear()

    def test_busy_ns_rides_in_payload_not_registry_doublecount(
            self, toy_engine, toy_density):
        """Labeled busy_ns entries exist per worker and the unlabeled
        total equals their sum (the service folds payload busy_ns)."""
        with use_registry(MetricsRegistry()) as registry:
            with EvaluationService(toy_engine, toy_density, _UTILITY,
                                   2) as service:
                assert service.run_tasks(_square, range(6)) is not None
            labeled_busy = 0
            for name in registry.names():
                metric, label = split_metric_label(name)
                if (metric == "magus.parallel.worker_busy_ns"
                        and label is not None):
                    labeled_busy += registry.counter(name).value
            assert labeled_busy > 0
            assert registry.counter(
                "magus.parallel.worker_busy_ns").value == labeled_busy
