"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

#: The top-level keys of each plan kind, as its load error lists them.
_TOP = {"fault": ["seed", "pathloss", "measurement", "push", "crashes"],
        "chaos": ["seed", "kill", "delay", "artifacts"]}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mitigate_defaults(self):
        args = build_parser().parse_args(["mitigate"])
        assert args.area_type == "suburban"
        assert args.scenario == "a"
        assert args.tuning == "joint"
        assert not args.gradual

    def test_mitigate_several_scenarios(self):
        args = build_parser().parse_args(
            ["mitigate", "--scenario", "c", "a", "--workers", "2"])
        assert args.scenario == ["c", "a"]
        assert args.workers == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mitigate", "--scenario", "d"])

    def test_bad_choice_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mitigate", "--tuning", "magic"])

    def test_obs_flags(self):
        args = build_parser().parse_args(
            ["-vv", "mitigate", "--metrics-out", "run.json", "--trace"])
        assert args.verbose == 2
        assert args.metrics_out == "run.json"
        assert args.trace

    def test_obs_flags_default_off(self):
        args = build_parser().parse_args(["testbed"])
        assert args.verbose == 0
        assert args.metrics_out is None
        assert not args.trace

    def test_telemetry_flags(self):
        args = build_parser().parse_args(
            ["mitigate", "--trace-out", "t.json",
             "--flight-out", "f.json"])
        assert args.trace_out == "t.json"
        assert args.flight_out == "f.json"

    def test_telemetry_flags_default_off(self):
        args = build_parser().parse_args(["testbed"])
        assert args.trace_out is None
        assert args.flight_out is None


class TestCommands:
    def test_calendar_command(self, capsys):
        assert main(["calendar", "--seed", "3", "--sites", "50"]) == 0
        out = capsys.readouterr().out
        assert "tickets in one year" in out
        assert "Tue-Fri vs other days" in out

    def test_testbed_command(self, capsys):
        assert main(["testbed", "--scenario", "2"]) == 0
        out = capsys.readouterr().out
        assert "f(C_before)" in out
        assert "proactive" in out

    def test_testbed_metrics_out(self, capsys, tmp_path):
        import json
        from repro.obs import MetricsRegistry, get_registry, use_registry
        path = tmp_path / "tb.json"
        with use_registry(MetricsRegistry()) as previous:
            assert main(["testbed", "--scenario", "2",
                         "--metrics-out", str(path), "--trace"]) == 0
            # The run's registry is torn down and the previous one,
            # untouched, is active again.
            assert get_registry() is previous
        assert previous.snapshot() == {} and previous.spans() == []
        out = capsys.readouterr().out
        assert "trace:" in out
        data = json.loads(path.read_text())
        assert data["schema"] == "magus.run-report/1"
        assert data["total_model_evaluations"] > 0
        assert any(p["name"].startswith("magus.testbed.")
                   for p in data["phases"])
        assert [s["name"] for s in data["spans"]] == [
            "magus.testbed.optimize_before", "magus.testbed.upgrade_eval",
            "magus.testbed.optimize_after", "magus.testbed.reactive_climb"]

    @pytest.mark.slow
    def test_area_command(self, capsys, monkeypatch):
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        assert main(["area", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "sectors over" in out

    @pytest.mark.slow
    def test_mitigate_command(self, capsys, monkeypatch):
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        assert main(["mitigate", "--tuning", "power", "--seed", "1",
                     "--gradual"]) == 0
        out = capsys.readouterr().out
        assert "recovery ratio" in out
        assert "peak" in out

    @pytest.mark.slow
    def test_mitigate_metrics_out(self, capsys, monkeypatch, tmp_path):
        import json
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        path = tmp_path / "run.json"
        assert main(["mitigate", "--tuning", "power", "--seed", "1",
                     "--metrics-out", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["schema"] == "magus.run-report/1"
        # The report's total is the plan's metered search cost.
        assert data["total_model_evaluations"] == data["metrics"][
            "magus.plan.model_evaluations"]["value"] > 0
        assert len(data["utility_trajectory"]) == \
            len(data["iterations"]) + 1
        assert any(p["name"] == "magus.power_pass"
                   for p in data["phases"])
        assert data["metrics"]["magus.evaluator.model_evaluations"][
            "value"] >= data["total_model_evaluations"]


class TestTelemetryCli:
    def test_testbed_trace_out(self, capsys, tmp_path):
        import json
        from repro.obs.telemetry import validate_chrome_trace
        from repro.obs import NULL_REGISTRY, get_registry
        path = tmp_path / "trace.json"
        assert main(["testbed", "--scenario", "2",
                     "--trace-out", str(path)]) == 0
        # Observability is torn down again after the run.
        assert get_registry() is NULL_REGISTRY
        out = capsys.readouterr().out
        assert f"chrome trace written to {path}" in out
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) > 0
        assert payload["otherData"]["schema"] == "magus.chrome-trace/1"

    @pytest.mark.slow
    def test_mitigate_trace_out_covers_workers(self, capsys, monkeypatch,
                                               tmp_path):
        """Acceptance: ``mitigate --scenario a b --workers 2
        --trace-out`` produces a valid Chrome trace with at least one
        span per worker process, and the run report carries the
        per-worker labeled counters."""
        import json
        import os
        from repro.obs.telemetry import validate_chrome_trace
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "run.json"
        assert main(["mitigate", "--tuning", "power", "--seed", "1",
                     "--scenario", "a", "b",
                     "--workers", "2", "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) > 0
        parent = os.getpid()
        worker_pids = {e["pid"] for e in payload["traceEvents"]
                       if e["ph"] == "X" and e["pid"] != parent}
        assert worker_pids, "no worker-process spans in the trace"
        tracks = {e["pid"]: e["args"]["name"]
                  for e in payload["traceEvents"] if e["ph"] == "M"}
        assert all("worker" in tracks[pid] for pid in worker_pids)
        assert "parent" in tracks[parent]
        report = json.loads(metrics_path.read_text())
        labeled = [name for name in report["metrics"]
                   if name.startswith("magus.engine.evaluations{")]
        assert labeled, "no per-worker labeled evaluation counters"
        out = capsys.readouterr().out
        assert 0 <= out.index("scenario (a):") < out.index("scenario (b):")

    @pytest.mark.slow
    def test_abort_flushes_artifacts_exactly_once(self, capsys,
                                                  monkeypatch, tmp_path):
        """Exit code 3 still lands every requested artifact — run
        report, Chrome trace, flight dump — exactly once each."""
        import json
        from repro import cli as cli_mod
        from repro.faults import FaultPlan, PushFaults
        from repro.obs import FLIGHT_SCHEMA, MetricsRegistry, RunReport
        from repro.obs.telemetry import validate_chrome_trace
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        writes = {"trace": 0, "report": 0, "flight": 0}
        real_export = cli_mod.export_chrome_trace

        def counting_export(path, **kwargs):
            writes["trace"] += 1
            return real_export(path, **kwargs)

        real_write = RunReport.write

        def counting_write(self, path):
            writes["report"] += 1
            return real_write(self, path)

        real_flush = MetricsRegistry.flush

        def counting_flush(self):
            target = real_flush(self)
            if target is not None:       # only actual writes count
                writes["flight"] += 1
            return target

        monkeypatch.setattr(cli_mod, "export_chrome_trace",
                            counting_export)
        monkeypatch.setattr(RunReport, "write", counting_write)
        monkeypatch.setattr(MetricsRegistry, "flush", counting_flush)

        plan = tmp_path / "plan.json"
        FaultPlan(seed=1, push=PushFaults(
            fail_steps=tuple(range(1, 200)),
            fail_attempts=99)).save(str(plan))
        flight = tmp_path / "flight.json"
        metrics = tmp_path / "run.json"
        trace_path = tmp_path / "trace.json"
        status = main(["mitigate", "--tuning", "power", "--seed", "1",
                       "--faults", str(plan),
                       "--flight-out", str(flight),
                       "--metrics-out", str(metrics),
                       "--trace-out", str(trace_path)])
        assert status == 3
        assert writes == {"trace": 1, "report": 1, "flight": 1}
        dump = json.loads(flight.read_text())
        assert dump["schema"] == FLIGHT_SCHEMA
        kinds = [e["kind"] for e in dump["events"]]
        assert "search_pass" in kinds
        assert "fault_injected" in kinds
        assert "rollout_fallback" in kinds
        assert json.loads(metrics.read_text())["schema"] == \
            "magus.run-report/1"
        assert validate_chrome_trace(
            json.loads(trace_path.read_text())) > 0

    def test_sigpipe_flushes_artifacts_once(self, monkeypatch, tmp_path):
        """A consumer closing the pipe early (SIGPIPE) exits 0 and
        still flushes the metrics report and flight dump."""
        import json
        from repro import cli as cli_mod
        from repro.obs import FLIGHT_SCHEMA, get_registry

        def broken_handler(args, sink):
            get_registry().counter("magus.testbed.measurements").inc(3)
            get_registry().record("sweep_progress", done=1)
            raise BrokenPipeError("consumer closed the pipe")

        monkeypatch.setattr(cli_mod, "_cmd_testbed", broken_handler)
        # Keep pytest's captured stdout intact; the dup2 redirect is
        # irrelevant to what this test asserts.
        monkeypatch.setattr(cli_mod, "_silence_stdout", lambda: None)
        metrics = tmp_path / "run.json"
        flight = tmp_path / "flight.json"
        assert main(["testbed", "--metrics-out", str(metrics),
                     "--flight-out", str(flight)]) == 0
        report = json.loads(metrics.read_text())
        assert report["schema"] == "magus.run-report/1"
        assert report["metrics"][
            "magus.testbed.measurements"]["value"] == 3
        dump = json.loads(flight.read_text())
        assert dump["schema"] == FLIGHT_SCHEMA
        assert [e["kind"] for e in dump["events"]] == ["sweep_progress"]


class TestValidateCommand:
    @pytest.mark.slow
    def test_validate_command(self, capsys, monkeypatch):
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        assert main(["validate", "--seed", "1", "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert "coverage agreement" in out
        assert "SINR MAE" in out


class TestFaultFlags:
    def test_parser_accepts_fault_flags(self):
        args = build_parser().parse_args(
            ["mitigate", "--faults", "plan.json",
             "--checkpoint", "run.ckpt"])
        assert args.faults == "plan.json"
        assert args.checkpoint == "run.ckpt"

    def test_missing_plan_is_actionable(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        assert main(["mitigate", "--faults", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load fault plan {missing!r}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag, kind", [("--faults", "fault"),
                                            ("--chaos", "chaos")])
    def test_malformed_plan_is_one_line(self, capsys, tmp_path, flag,
                                        kind):
        """A misspelled key: exit 2 and one stderr line naming the file
        and the key, before any area is built."""
        path = tmp_path / "plan.json"
        path.write_text('{"kil": {"times": 1}}')
        assert main(["mitigate", flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: cannot load {kind} plan "
                                f"{str(path)!r}: unknown key 'kil' in the "
                                f"plan; expected one of {_TOP[kind]}\n")

    @pytest.mark.slow
    def test_rollout_abort_exit_code(self, capsys, monkeypatch, tmp_path):
        """Exhausted push retries: distinct exit status plus one
        structured stderr line, never a traceback."""
        from repro.faults import FaultPlan, PushFaults
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        plan = tmp_path / "plan.json"
        FaultPlan(seed=1, push=PushFaults(
            fail_steps=tuple(range(1, 200)),
            fail_attempts=99)).save(str(plan))
        status = main(["mitigate", "--tuning", "power", "--seed", "1",
                       "--faults", str(plan)])
        assert status == 3
        captured = capsys.readouterr()
        assert "rollout-aborted reason=push-exhausted" in captured.err
        assert "fallback=last-known-good" in captured.err
        assert "rollout aborted" in captured.out

    @pytest.mark.slow
    def test_corrupt_inputs_exit_code(self, capsys, monkeypatch,
                                      tmp_path):
        """Corrupt path-loss feeds are rejected at the model boundary:
        structured input-rejected line and its own exit status."""
        from repro.faults import FaultPlan, PathLossFaults
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        plan = tmp_path / "plan.json"
        FaultPlan(seed=1, pathloss=PathLossFaults(
            n_sectors=2, cell_fraction=0.05, mode="nan")).save(str(plan))
        status = main(["mitigate", "--tuning", "power", "--seed", "1",
                       "--faults", str(plan)])
        assert status == 4
        captured = capsys.readouterr()
        assert "input-rejected command=mitigate" in captured.err

    @pytest.mark.slow
    def test_clean_rollout_with_checkpoint(self, capsys, monkeypatch,
                                           tmp_path):
        import json
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        ckpt = tmp_path / "run.ckpt"
        status = main(["mitigate", "--tuning", "power", "--seed", "1",
                       "--checkpoint", str(ckpt)])
        assert status == 0
        out = capsys.readouterr().out
        assert "rollout completed" in out
        data = json.loads(ckpt.read_text())
        assert data["schema"] == "magus.checkpoint/1"
        assert data["meta"]["status"] == "complete"


class TestRoiCli:
    def test_clip_floor_flag_parses(self):
        args = build_parser().parse_args(
            ["pack", "--out", "x.plossdb", "--clip-floor-db", "-120"])
        assert args.clip_floor_db == "-120"
        assert build_parser().parse_args(
            ["pack", "--out", "x.plossdb"]).clip_floor_db is None

    def test_bad_clip_floor_is_exit_2(self, capsys, tmp_path):
        assert main(["pack", "--out", str(tmp_path / "x.plossdb"),
                     "--clip-floor-db", "banana"]) == 2
        assert "--clip-floor-db" in capsys.readouterr().err

    def test_pack_persists_clip_floor(self, capsys, monkeypatch, tmp_path):
        from repro.model.plossdb import read_header
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        path = tmp_path / "area.plossdb"
        assert main(["pack", "--out", str(path),
                     "--clip-floor-db", "-110"]) == 0
        header = read_header(path)
        assert header["clip_floor_db"] == -110.0
        assert "roi" in header["sections"]

    def test_pack_clip_floor_none(self, capsys, monkeypatch, tmp_path):
        from repro.model.plossdb import read_header
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        path = tmp_path / "raw.plossdb"
        assert main(["pack", "--out", str(path),
                     "--clip-floor-db", "none"]) == 0
        assert read_header(path)["clip_floor_db"] is None

    @pytest.mark.parametrize("damage", ["unstamped", "bitflip"])
    def test_bad_plossdb_is_one_line(self, capsys, monkeypatch, tmp_path,
                                     damage):
        """A malformed or corrupt --plossdb file: exit 2 and one stderr
        line naming the file and the key or section, no traceback."""
        from repro.model.plossdb import read_header
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        from test_plossdb import _rewrite_header
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        path = tmp_path / "area.plossdb"
        assert main(["pack", "--out", str(path)]) == 0
        if damage == "unstamped":
            _rewrite_header(path, lambda h: h["sections"]["roi"].pop(
                "checksum"))
            key = "'sections.roi.checksum'"
        else:
            spec = read_header(path)["sections"]["loss_db"]
            with open(path, "r+b") as fh:
                fh.seek(spec["offset"] + 5)
                byte = fh.read(1)
                fh.seek(spec["offset"] + 5)
                fh.write(bytes([byte[0] ^ 0x01]))
            key = "'loss_db'"
        capsys.readouterr()
        assert main(["mitigate", "--plossdb", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}")
        assert key in captured.err
        assert captured.err.count("\n") == 1

    def test_other_tilt_model_is_one_line(self, capsys, monkeypatch,
                                          tmp_path):
        """A file packed under ``shared-delta`` does not load into the
        ``exact`` area ``mitigate`` builds: exit 2, one stderr line
        naming the file, the key and both models."""
        from repro.synthetic import market
        from conftest import SMALL_DIMS
        monkeypatch.setattr(market.AreaDimensions, "for_area",
                            classmethod(lambda cls, area: SMALL_DIMS))
        path = tmp_path / "area.plossdb"
        assert main(["pack", "--out", str(path),
                     "--tilt-model", "shared-delta"]) == 0
        capsys.readouterr()
        assert main(["mitigate", "--plossdb", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}")
        for part in ("'tilt_model'", "'shared-delta'", "'exact'"):
            assert part in captured.err
        assert captured.err.count("\n") == 1


class TestOutputDirectories:
    @pytest.mark.parametrize("flag", ["--metrics-out", "--trace-out",
                                      "--flight-out"])
    def test_missing_directory_is_one_line(self, capsys, tmp_path, flag):
        """An artifact path into a directory that does not exist stops
        the run before any work: exit 2, one stderr line, no output."""
        target = str(tmp_path / "missing" / "out.json")
        assert main(["testbed", "--scenario", "2", flag, target]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {flag} {target}: its directory "
                                f"does not exist\n")
        assert not (tmp_path / "missing").exists()
