"""Fault-injection framework and resilient rollout executor tests.

Everything here runs against the deterministic toy world from
``conftest.py``; every fault scenario is seeded, so each assertion
about retries, floors, fallbacks and resumes is exact, not
probabilistic.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.feedback import FeedbackSettings, reactive_feedback
from repro.core.gradual import GradualSettings, gradual_migration
from repro.core.joint import tune_joint
from repro.faults import (CHECKPOINT_SCHEMA, ArtifactFaults, ChaosPlan,
                          ChecksumError, ChunkDelay, ConfigPushError,
                          FaultInjector, WorkerKill,
                          FaultPlan, MeasurementNoise, PathLossFaults,
                          PushFaults, ResilientExecutor, RetryPolicy,
                          RolloutCheckpoint, RolloutResult, SectorCrash,
                          encode_config, decode_config, schedule_run_id)
from repro.faults.checkpoint import _canonical_bytes
from repro.faults.durable import checksum_hex
from repro.model.pathloss import PathLossDatabase
from repro.model.propagation import Environment
from repro.obs import MetricsRegistry, RunReport, use_registry

from test_plossdb import _key_paths, _kind

#: A fault plan and a chaos plan that set every field.
_FULL_PLANS = {
    FaultPlan: FaultPlan(
        seed=11,
        pathloss=PathLossFaults(n_sectors=2, cell_fraction=0.05, mode="inf"),
        measurement=MeasurementNoise(gaussian_sigma=0.3, impulse_prob=0.1,
                                     impulse_magnitude=5.0),
        push=PushFaults(fail_steps=(1, 3), fail_attempts=2, fail_prob=0.01,
                        delay_s=0.2),
        crashes=(SectorCrash(sector_id=2, at_step=1),
                 SectorCrash(sector_id=0, at_step=3))),
    ChaosPlan: ChaosPlan(
        seed=11, kill=WorkerKill(at_chunk=2, times=3),
        delay=ChunkDelay(at_chunk=1, seconds=0.5, times=2),
        artifacts=ArtifactFaults(kinds=("checkpoint", "flight"),
                                 mode="truncate", at_write=1, times=2)),
}


def _json_kind(value) -> str:
    """The JSON type of ``value``, with booleans, integers, fractions
    and NaN told apart."""
    if isinstance(value, float) and value != value:
        return "nan"
    return "bool" if isinstance(value, bool) else type(value).__name__

_TOL = 1e-6


@pytest.fixture
def toy_plan(toy_evaluator, toy_network):
    """A joint-tuned mitigation plan for taking sector 1 off-air."""
    c_before = toy_network.planned_configuration()
    baseline = toy_evaluator.state_of(c_before)
    return c_before, tune_joint(toy_evaluator, toy_network,
                                c_before.with_offline([1]), baseline, [1])


@pytest.fixture
def toy_schedule(toy_evaluator, toy_network, toy_plan):
    """A gradual schedule with several committed steps to roll out."""
    c_before, plan = toy_plan
    gradual = gradual_migration(toy_evaluator, toy_network, c_before,
                                plan.final_config, [1],
                                GradualSettings(target_step_db=3.0))
    assert gradual.n_steps >= 3      # enough steps to kill/resume midway
    return gradual


# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=11,
            pathloss=PathLossFaults(n_sectors=2, cell_fraction=0.05,
                                    mode="inf"),
            measurement=MeasurementNoise(gaussian_sigma=0.3,
                                         impulse_prob=0.1,
                                         impulse_magnitude=5.0),
            push=PushFaults(fail_steps=(1, 3), fail_attempts=2,
                            fail_prob=0.01, delay_s=0.2),
            crashes=(SectorCrash(sector_id=2, at_step=1),))
        path = tmp_path / "plan.json"
        plan.save(str(path))
        loaded = FaultPlan.load(str(path))
        assert loaded == plan
        assert json.loads(path.read_text())["schema"] == "magus.fault-plan/1"

    def test_empty_plan(self):
        assert FaultPlan().empty
        assert not FaultPlan(push=PushFaults()).empty

    def test_empty_section_takes_defaults(self):
        """``{}`` builds the section with its defaults; only a missing
        key or ``null`` means no section."""
        plan = FaultPlan.from_dict({"push": {}, "measurement": {},
                                    "pathloss": {}})
        assert (plan.push, plan.measurement, plan.pathloss) \
            == (PushFaults(), MeasurementNoise(), PathLossFaults())
        assert FaultPlan.from_dict({"push": None}).empty
        assert FaultPlan.from_dict({}).empty

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            PathLossFaults(mode="gremlins")

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            FaultPlan.from_dict({"schema": "magus.fault-plan/9"})

    def test_missing_file_actionable(self, tmp_path):
        with pytest.raises(ValueError, match="cannot load fault plan"):
            FaultPlan.load(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("payload, named", [
        (b'{"crashes": [{"sector": 1}]}',
         r"unknown key 'sector' in 'crashes\[0\]'"),
        (b'{"crashes": [{}]}', r"'crashes\[0\]': .*'sector_id'"),
        (b'{"push": {"fail_step": [1]}}', "unknown key 'fail_step' in 'push'"),
        (b'{"crash": []}', "unknown key 'crash' in the plan"),
        (b'[1, 2]', "a plan must be a JSON object, not list"),
        (b'{"seed": "\xff"}', "'utf-8' codec can't decode"),
        (b'{"seed": 2.7}', r"'seed' must be an integer, not 2\.7"),
        (b'{"seed": true}', "'seed' must be an integer, not True"),
        (b'{"crashes": [{"sector_id": 1.5}]}',
         r"'crashes\[0\]\.sector_id' must be an integer, not 1\.5"),
        (b'{"crashes": [{"sector_id": "3"}]}',
         r"'crashes\[0\]\.sector_id' must be an integer, not '3'"),
        (b'{"push": {"fail_steps": 2}}',
         r"'push\.fail_steps' must be a JSON list"),
    ], ids=["crash-misspelled-key", "crash-missing-key",
            "push-misspelled-key", "top-level-key", "top-level-list",
            "bad-utf8", "fractional-seed", "bool-seed", "fractional-sector",
            "text-sector", "scalar-fail-steps"])
    def test_malformed_plan_names_file_and_key(self, tmp_path, payload,
                                               named):
        path = tmp_path / "plan.json"
        path.write_bytes(payload)
        with pytest.raises(ValueError) as info:
            FaultPlan.load(str(path))
        prefix = f"cannot load fault plan {str(path)!r}: "
        assert str(info.value).startswith(prefix)
        assert re.match(named, str(info.value)[len(prefix):])
        if payload != b'{"seed": "\xff"}':
            with pytest.raises(ValueError, match=named):
                FaultPlan.from_json(payload.decode())

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    @pytest.mark.parametrize("cls", [FaultPlan, ChaosPlan])
    def test_any_deleted_or_retyped_key_is_a_value_error(self, tmp_path,
                                                         cls, data):
        """Delete or retype any key of a plan that sets every field: a
        deleted key with a default loads, and anything else raises a
        ValueError naming the file and that key, never another
        exception type."""
        doc = _FULL_PLANS[cls].to_dict()
        where = data.draw(st.sampled_from(sorted(_key_paths(doc),
                                                 key=repr)))
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        path = tmp_path / "plan.json"
        if isinstance(where[-1], str) and data.draw(st.booleans()):
            del parent[where[-1]]
            if where[-1] != "sector_id":    # the one field with no default
                path.write_text(json.dumps(doc))
                cls.load(str(path))
                return
        else:
            old = _json_kind(parent[where[-1]])
            # A section set to null is a plan without that section.
            parent[where[-1]] = data.draw(st.sampled_from(
                [v for v in ("x", 1.5, [], {}, True, None, float("nan"))
                 if _json_kind(v) != old
                 and not (v is None and len(where) == 1 and old == "dict")]))
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            cls.load(str(path))
        leaf = next(k for k in reversed(where) if isinstance(k, str))
        assert repr(str(path)) in str(info.value)
        assert leaf in str(info.value)

    def test_crashed_sectors_declarative(self):
        plan = FaultPlan(crashes=(SectorCrash(0, at_step=2),
                                  SectorCrash(4, at_step=5)))
        assert plan.crashed_sectors(1) == frozenset()
        assert plan.crashed_sectors(2) == {0}
        assert plan.crashed_sectors(9) == {0, 4}


class TestFaultInjector:
    def test_measurement_noise_deterministic(self):
        plan = FaultPlan(seed=3, measurement=MeasurementNoise(
            gaussian_sigma=0.5, impulse_prob=0.2, impulse_magnitude=9.0))
        inj1, inj2 = FaultInjector(plan), FaultInjector(plan)
        seq1 = [inj1.measure(10.0) for _ in range(20)]
        seq2 = [inj2.measure(10.0) for _ in range(20)]
        assert seq1 == seq2
        assert any(abs(v - 10.0) > 1e-12 for v in seq1)

    def test_no_measurement_spec_is_identity(self):
        inj = FaultInjector(FaultPlan(seed=1))
        assert inj.measure(4.2) == 4.2

    def test_push_outcome_transient_per_step(self):
        plan = FaultPlan(push=PushFaults(fail_steps=(2,), fail_attempts=2))
        inj = FaultInjector(plan)
        assert inj.push_outcome(step=1, attempt=0).fail is False
        assert inj.push_outcome(step=2, attempt=0).fail is True
        assert inj.push_outcome(step=2, attempt=1).fail is True
        assert inj.push_outcome(step=2, attempt=2).fail is False

    def test_push_counter_used_without_step(self):
        plan = FaultPlan(push=PushFaults(fail_steps=(0,)))
        inj = FaultInjector(plan)
        assert inj.push_outcome().fail is True     # push #0
        assert inj.push_outcome().fail is False    # push #1

    def test_corrupt_pathloss_rejected_by_guards(self, toy_grid,
                                                 toy_network):
        env = Environment.flat(toy_grid)
        db = PathLossDatabase.from_environment(toy_network, env,
                                               shadowing_sigma_db=0.0)
        plan = FaultPlan(seed=5, pathloss=PathLossFaults(
            n_sectors=1, cell_fraction=0.02, mode="nan"))
        corrupted = FaultInjector(plan).corrupt_pathloss(db)
        assert len(corrupted) == 1
        with pytest.raises(ValueError, match="corrupted after"):
            db.gain_tensor(np.full(toy_network.n_sectors, 4.0))

    def test_corrupt_pathloss_inf_mode(self, toy_grid, toy_network):
        env = Environment.flat(toy_grid)
        db = PathLossDatabase.from_environment(toy_network, env,
                                               shadowing_sigma_db=0.0)
        plan = FaultPlan(seed=5, pathloss=PathLossFaults(
            n_sectors=2, cell_fraction=0.01, mode="inf"))
        FaultInjector(plan).corrupt_pathloss(db)
        with pytest.raises(ValueError, match="NaN/inf"):
            db.gain_tensor(np.full(toy_network.n_sectors, 4.0))

    def test_stale_tilt_is_silent_but_changes_gains(self, toy_grid,
                                                    toy_network):
        """Stale-tilt corruption stays finite (the guards cannot see
        it) — exactly why the executor must validate realized utility."""
        env = Environment.flat(toy_grid)
        db = PathLossDatabase.from_environment(toy_network, env,
                                               shadowing_sigma_db=0.0)
        tilts = np.full(toy_network.n_sectors, 4.0)
        before = db.gain_tensor(tilts).copy()
        plan = FaultPlan(seed=5, pathloss=PathLossFaults(
            n_sectors=3, mode="stale-tilt"))
        FaultInjector(plan).corrupt_pathloss(db)
        after = db.gain_tensor(tilts)
        assert np.isfinite(after).all()
        assert not np.array_equal(before, after)

    def test_corruption_is_seeded(self, toy_grid, toy_network):
        env = Environment.flat(toy_grid)
        plan = FaultPlan(seed=9, pathloss=PathLossFaults(n_sectors=2))
        picked = []
        for _ in range(2):
            db = PathLossDatabase.from_environment(
                toy_network, env, shadowing_sigma_db=0.0)
            picked.append(FaultInjector(plan).corrupt_pathloss(db))
        assert picked[0] == picked[1]


# ----------------------------------------------------------------------
class TestModelGuards:
    def test_database_construction_rejects_nan(self, toy_grid,
                                               toy_network):
        env = Environment.flat(toy_grid)
        db = PathLossDatabase.from_environment(toy_network, env,
                                               shadowing_sigma_db=0.0)
        db._rasters[1].loss_db[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"sectors \[1\]"):
            PathLossDatabase(db.grid, db.network, db._rasters)

    def test_validate_names_bad_sectors(self, toy_grid, toy_network):
        env = Environment.flat(toy_grid)
        db = PathLossDatabase.from_environment(toy_network, env,
                                               shadowing_sigma_db=0.0)
        db._rasters[2].loss_db[3, 3] = np.inf
        with pytest.raises(ValueError, match=r"sectors \[2\]"):
            db.validate()

    def test_configuration_rejects_nan_power(self, toy_network):
        config = toy_network.planned_configuration()
        with pytest.raises(ValueError, match=r"sectors \[1\]"):
            config.with_power(1, float("nan"))

    def test_configuration_rejects_inf_tilt(self, toy_network):
        config = toy_network.planned_configuration()
        with pytest.raises(ValueError, match="non-finite"):
            config.with_tilt(0, float("inf"))

    def test_validate_against_lists_offenders(self, toy_network):
        config = toy_network.planned_configuration()
        bad = config._replaced(2, power_dbm=90.0)   # bypass range clamps
        with pytest.raises(ValueError, match="sector 2: power"):
            bad.validate_against(toy_network)

    def test_validate_against_ok_for_planned(self, toy_network):
        toy_network.planned_configuration().validate_against(toy_network)


# ----------------------------------------------------------------------
class TestResilientExecutor:
    def test_happy_path_matches_schedule(self, toy_evaluator,
                                         toy_network, toy_schedule):
        executor = ResilientExecutor(toy_evaluator, network=toy_network)
        result = executor.execute(toy_schedule)
        assert result.completed
        assert result.final_config == toy_schedule.final_config
        assert result.steps_applied == toy_schedule.n_steps
        assert result.retries == 0
        assert result.min_utility >= toy_schedule.floor_utility - _TOL

    def test_retries_with_exponential_backoff(self, toy_evaluator,
                                              toy_network, toy_schedule):
        plan = FaultPlan(push=PushFaults(fail_steps=(1,), fail_attempts=2))
        delays = []
        executor = ResilientExecutor(
            toy_evaluator, network=toy_network,
            injector=FaultInjector(plan),
            policy=RetryPolicy(max_attempts=4, base_delay_s=0.01,
                               backoff_factor=2.0, max_delay_s=1.0),
            sleep=delays.append)
        result = executor.execute(toy_schedule)
        assert result.completed
        assert result.retries == 2
        assert delays == [0.01, 0.02]      # exponential, then success
        assert result.min_utility >= result.floor_utility - _TOL

    def test_fallback_on_exhausted_retries(self, toy_evaluator,
                                           toy_network, toy_schedule):
        plan = FaultPlan(push=PushFaults(fail_steps=(2,),
                                         fail_attempts=99))
        executor = ResilientExecutor(
            toy_evaluator, network=toy_network,
            injector=FaultInjector(plan),
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            sleep=lambda s: None)
        result = executor.execute(toy_schedule)
        assert not result.completed
        assert result.reason == "push-exhausted"
        assert result.fell_back
        # Last-known-good is the last committed step (schedule step 1).
        assert result.final_config == toy_schedule.configs[1]
        assert result.steps_applied == 1
        assert result.retries == 2
        assert result.min_utility >= result.floor_utility - _TOL

    def test_floor_violation_never_committed(self, toy_evaluator,
                                             toy_network):
        c_before = toy_network.planned_configuration()
        f_before = toy_evaluator.utility_of(c_before)
        dark = c_before.with_offline([0, 1, 2])
        executor = ResilientExecutor(
            toy_evaluator, network=toy_network,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
            sleep=lambda s: None)
        result = executor.execute([c_before, dark],
                                  floor_utility=f_before)
        assert not result.completed
        assert result.reason == "floor-violated"
        assert result.degradation_events == 3    # every attempt validated
        assert result.fell_back
        assert result.final_config == c_before
        assert result.utilities == [f_before]    # the bad step never lands

    def test_invalid_config_aborts_without_retry(self, toy_evaluator,
                                                 toy_network,
                                                 toy_schedule):
        configs = list(toy_schedule.configs)
        configs[1] = configs[1]._replaced(0, power_dbm=99.0)
        executor = ResilientExecutor(toy_evaluator, network=toy_network)
        result = executor.execute(configs,
                                  floor_utility=toy_schedule.floor_utility)
        assert not result.completed
        assert result.reason == "invalid-config"
        assert result.retries == 0
        assert result.final_config == configs[0]

    def test_target_sector_crash_mid_rollout(self, toy_evaluator,
                                             toy_network, toy_schedule):
        """Crashing the sector being ramped down is absorbed: realized
        configs have it off-air, every committed step holds the floor,
        and the whole scenario replays identically under its seed."""
        plan = FaultPlan(seed=2, crashes=(SectorCrash(sector_id=1,
                                                      at_step=1),))
        results = []
        for _ in range(2):
            executor = ResilientExecutor(
                toy_evaluator, network=toy_network,
                injector=FaultInjector(plan),
                policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                sleep=lambda s: None)
            results.append(executor.execute(toy_schedule))
        a, b = results
        assert [encode_config(c) for c in a.configs] == \
            [encode_config(c) for c in b.configs]
        assert a.utilities == b.utilities
        assert a.status == b.status
        for config in a.configs[1:]:
            assert not config.is_active(1)       # crash realized
        if a.completed:
            assert a.min_utility >= a.floor_utility - _TOL
        else:
            assert a.fell_back
            committed = a.utilities
            assert all(u >= a.floor_utility - _TOL for u in committed[1:])

    def test_executor_adds_no_metrics_when_disabled(self, toy_evaluator,
                                                    toy_network,
                                                    toy_schedule):
        """No FaultPlan, NullRegistry active: a rollout leaves zero
        trace in the registry (the NullRegistry pattern)."""
        from repro.obs import get_registry
        assert get_registry().snapshot() == {}
        ResilientExecutor(toy_evaluator,
                          network=toy_network).execute(toy_schedule)
        assert get_registry().snapshot() == {}

    def test_counters_reach_registry_and_report(self, toy_evaluator,
                                                toy_network,
                                                toy_schedule):
        plan = FaultPlan(push=PushFaults(fail_steps=(1,),
                                         fail_attempts=1))
        with use_registry(MetricsRegistry()) as registry:
            executor = ResilientExecutor(
                toy_evaluator, network=toy_network,
                injector=FaultInjector(plan),
                policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
                sleep=lambda s: None)
            executor.execute(toy_schedule)
            snapshot = registry.snapshot()
            report = RunReport.from_registry("rollout", registry=registry)
        assert snapshot["magus.faults.push_failures"]["value"] == 1
        assert snapshot["magus.resilience.retries"]["value"] == 1
        assert snapshot["magus.resilience.steps_applied"]["value"] == \
            toy_schedule.n_steps
        resilience = report.resilience_metrics()
        assert resilience["magus.resilience.retries"] == 1
        assert "resilience:" in report.to_table()

    def test_no_faults_means_no_fault_keys(self, toy_evaluator,
                                           toy_network, toy_schedule):
        with use_registry(MetricsRegistry()) as registry:
            ResilientExecutor(toy_evaluator,
                              network=toy_network).execute(toy_schedule)
            names = registry.names()
        assert not any(n.startswith("magus.faults.") for n in names)

    def test_flight_dump_written_on_abort(self, toy_evaluator,
                                          toy_network, toy_schedule,
                                          tmp_path):
        """A fault-injected abort flushes the event ring: the dump
        file exists, carries the schema, and tells the failure story
        (injected faults, retries, the fallback) in order."""
        from repro.obs import FLIGHT_SCHEMA
        dump = tmp_path / "flight.json"
        plan = FaultPlan(push=PushFaults(fail_steps=(2,),
                                         fail_attempts=99))
        with use_registry(MetricsRegistry(flight_out=str(dump))):
            executor = ResilientExecutor(
                toy_evaluator, network=toy_network,
                injector=FaultInjector(plan),
                policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
                sleep=lambda s: None)
            result = executor.execute(toy_schedule)
        assert not result.completed
        assert dump.exists()
        payload = json.loads(dump.read_text(encoding="utf-8"))
        assert payload["schema"] == FLIGHT_SCHEMA
        kinds = [e["kind"] for e in payload["events"]]
        assert kinds[0] == "rollout_start"
        assert "fault_injected" in kinds
        assert "rollout_retry" in kinds
        assert kinds[-1] == "rollout_fallback"
        assert "rollout_complete" not in kinds
        faults = [e["data"] for e in payload["events"]
                  if e["kind"] == "fault_injected"]
        assert all(f["fault"] == "push_failure" for f in faults)
        fallback = payload["events"][-1]["data"]
        assert fallback["reason"] == "push-exhausted"

    def test_flight_dump_silent_on_success(self, toy_evaluator,
                                           toy_network, toy_schedule,
                                           tmp_path):
        """A clean rollout records events but never dumps a file of its
        own accord (flush fires only on the abort path)."""
        dump = tmp_path / "flight.json"
        with use_registry(MetricsRegistry(flight_out=str(dump))) \
                as registry:
            result = ResilientExecutor(
                toy_evaluator, network=toy_network).execute(toy_schedule)
            assert result.completed
            kinds = [e["kind"] for e in registry.events()]
        assert kinds[0] == "rollout_start"
        assert kinds[-1] == "rollout_complete"
        assert not dump.exists()


# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_config_encoding_round_trip(self, toy_network):
        config = toy_network.planned_configuration() \
            .with_power(0, 33.25).with_tilt(2, 5.0).with_offline([1])
        assert decode_config(encode_config(config)) == config

    def test_checkpoint_file_round_trip(self, toy_network, tmp_path):
        config = toy_network.planned_configuration()
        ckpt = RolloutCheckpoint(run_id="abc123", step=4,
                                 last_good=config,
                                 utilities=[1.5, 2.5], floor_utility=1.0,
                                 retries=3, meta={"note": "x"})
        path = str(tmp_path / "run.ckpt")
        ckpt.save(path)
        loaded = RolloutCheckpoint.load(path)
        assert loaded == ckpt
        assert json.loads(open(path).read())["schema"] == CHECKPOINT_SCHEMA

    def test_run_id_is_content_addressed(self, toy_schedule):
        configs = list(toy_schedule.configs)
        rid = schedule_run_id(configs, toy_schedule.floor_utility)
        assert rid == schedule_run_id(configs, toy_schedule.floor_utility)
        assert rid != schedule_run_id(configs,
                                      toy_schedule.floor_utility + 1.0)
        assert rid != schedule_run_id(configs[:-1],
                                      toy_schedule.floor_utility)

    def test_kill_and_resume_is_byte_identical(self, toy_evaluator,
                                               toy_network, toy_schedule,
                                               tmp_path):
        """Acceptance: kill a rollout at step k, resume, and the final
        configuration and utility trajectory match an uninterrupted
        run exactly."""
        baseline = ResilientExecutor(
            toy_evaluator, network=toy_network).execute(toy_schedule)

        path = str(tmp_path / "run.ckpt")
        kill_at = 3

        def dying_apply(config, step):
            if step == kill_at:
                raise KeyboardInterrupt("simulated kill -9")

        with pytest.raises(KeyboardInterrupt):
            ResilientExecutor(toy_evaluator, network=toy_network,
                              apply_fn=dying_apply,
                              checkpoint_path=path).execute(toy_schedule)
        ckpt = RolloutCheckpoint.load(path)
        assert ckpt.step == kill_at - 1          # last accepted step

        resumed = ResilientExecutor(
            toy_evaluator, network=toy_network,
            checkpoint_path=path).execute(toy_schedule)
        assert resumed.completed
        assert resumed.resumed_from_step == kill_at - 1
        assert json.dumps(encode_config(resumed.final_config)) == \
            json.dumps(encode_config(baseline.final_config))
        assert resumed.utilities == baseline.utilities
        assert [encode_config(c) for c in resumed.configs] == \
            [encode_config(c) for c in baseline.configs]

    def test_foreign_checkpoint_ignored(self, toy_evaluator, toy_network,
                                        toy_schedule, tmp_path):
        """A checkpoint from a different schedule must not hijack."""
        path = str(tmp_path / "run.ckpt")
        RolloutCheckpoint(run_id="deadbeef", step=2,
                          last_good=toy_schedule.configs[0],
                          utilities=[0.0],
                          floor_utility=0.0).save(path)
        result = ResilientExecutor(
            toy_evaluator, network=toy_network,
            checkpoint_path=path).execute(toy_schedule)
        assert result.completed
        assert result.resumed_from_step == 0
        assert result.steps_applied == toy_schedule.n_steps

    def test_tampered_checkpoint_refused(self, toy_evaluator,
                                         toy_network, toy_schedule,
                                         tmp_path):
        path = str(tmp_path / "run.ckpt")
        rid = schedule_run_id(list(toy_schedule.configs),
                              toy_schedule.floor_utility)
        tampered = toy_schedule.configs[1].with_power(0, 30.0)
        RolloutCheckpoint(run_id=rid, step=1, last_good=tampered,
                          utilities=[0.0, 0.0],
                          floor_utility=toy_schedule.floor_utility
                          ).save(path)
        with pytest.raises(ValueError, match="refusing to resume"):
            ResilientExecutor(toy_evaluator, network=toy_network,
                              checkpoint_path=path).execute(toy_schedule)


# ----------------------------------------------------------------------
def _checkpoint_doc(network):
    """A valid ``magus.checkpoint/1`` document, not yet stamped."""
    return RolloutCheckpoint(
        run_id="abc123", step=2,
        last_good=network.planned_configuration().with_offline([1]),
        utilities=[1.5, 2.5, 2.25], floor_utility=1.0, retries=1,
        meta={"note": "x"}).to_dict()


def _write_stamped(path, doc) -> str:
    """``doc`` with a correct checksum, written to ``path``: only the
    schema check stands between it and the rollout."""
    doc = {k: v for k, v in doc.items() if k != "checksum"}
    doc["checksum"] = checksum_hex(_canonical_bytes(doc))
    path.write_text(json.dumps(doc))
    return str(path)


#: Malformed checkpoints: ``(case, edit, the key the error names)``.
_CHECKPOINT_PROBES = [
    ("negative-step", lambda d: d.__setitem__("step", -5), "step"),
    ("fractional-step", lambda d: d.__setitem__("step", 2.7), "step"),
    ("null-step", lambda d: d.__setitem__("step", None), "step"),
    ("bool-step", lambda d: d.__setitem__("step", True), "step"),
    ("text-active", lambda d: d["last_good"][1].__setitem__(2, "false"),
     "last_good[1]"),
    ("short-setting", lambda d: d["last_good"][0].pop(), "last_good[0]"),
    ("text-utilities", lambda d: d.__setitem__("utilities", "12"),
     "utilities"),
    ("number-utility", lambda d: d["utilities"].__setitem__(0, 1.5),
     "utilities[0]"),
    ("nan-utility", lambda d: d["utilities"].__setitem__(1, "nan"),
     "utilities[1]"),
    ("nan-floor", lambda d: d.__setitem__("floor_utility", "nan"),
     "floor_utility"),
    ("text-floor", lambda d: d.__setitem__("floor_utility", "low"),
     "floor_utility"),
    ("negative-retries", lambda d: d.__setitem__("retries", -1), "retries"),
    ("list-meta", lambda d: d.__setitem__("meta", []), "meta"),
    ("run-id-deleted", lambda d: d.pop("run_id"), "run_id"),
    ("numeric-run-id", lambda d: d.__setitem__("run_id", 7), "run_id"),
    ("schema-deleted", lambda d: d.pop("schema"), "schema"),
]


class TestCheckpointSchema:
    """Every malformed but correctly checksummed checkpoint fails with
    a ValueError naming the file and the key, and nothing loads."""

    @pytest.mark.parametrize("edit, key", [p[1:] for p in _CHECKPOINT_PROBES],
                             ids=[p[0] for p in _CHECKPOINT_PROBES])
    def test_probe_names_file_and_key(self, tmp_path, toy_network, edit,
                                      key):
        doc = _checkpoint_doc(toy_network)
        edit(doc)
        path = _write_stamped(tmp_path / "run.ckpt", doc)
        with pytest.raises(ValueError) as info:
            RolloutCheckpoint.load(path)
        assert not isinstance(info.value, ChecksumError)
        assert repr(path) in str(info.value)
        assert repr(key) in str(info.value)

    def test_optional_keys_default(self, tmp_path, toy_network):
        doc = _checkpoint_doc(toy_network)
        for key in ("utilities", "retries", "meta"):
            del doc[key]
        loaded = RolloutCheckpoint.load(
            _write_stamped(tmp_path / "run.ckpt", doc))
        assert (loaded.utilities, loaded.retries, loaded.meta) == ([], 0, {})

    def test_infinite_floor_round_trips(self, tmp_path, toy_network):
        """A rollout without a floor (``-inf``) can still resume."""
        ckpt = RolloutCheckpoint(
            run_id="abc123", step=0,
            last_good=toy_network.planned_configuration(),
            utilities=[1.0], floor_utility=float("-inf"))
        path = str(tmp_path / "run.ckpt")
        ckpt.save(path)
        assert RolloutCheckpoint.load(path) == ckpt

    def test_decode_config_names_its_key(self):
        with pytest.raises(ValueError, match=r"'config\[0\]'"):
            decode_config([[40.0, 4.0, "false", 0.0]])
        with pytest.raises(ValueError, match="'config'"):
            decode_config("12")

    def test_negative_step_never_reaches_the_resume(
            self, tmp_path, toy_evaluator, toy_network, toy_schedule):
        """The run id matches, so only the schema check stops a step of
        -5 from indexing the schedule from its end."""
        configs = list(toy_schedule.configs)
        doc = RolloutCheckpoint(
            run_id=schedule_run_id(configs, toy_schedule.floor_utility),
            step=1, last_good=configs[1], utilities=[0.0, 0.0],
            floor_utility=toy_schedule.floor_utility).to_dict()
        doc["step"] = -5
        path = _write_stamped(tmp_path / "run.ckpt", doc)
        executor = ResilientExecutor(toy_evaluator, network=toy_network,
                                     checkpoint_path=path)
        with pytest.raises(ValueError, match="'step'") as info:
            executor.execute(toy_schedule)
        assert repr(path) in str(info.value)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_deleted_or_retyped_key_is_a_value_error(
            self, tmp_path, toy_network, data):
        """Delete a required key or retype any value outside ``meta``:
        the loader raises a ValueError naming the file and that key,
        and never another exception type."""
        doc = _checkpoint_doc(toy_network)
        where = data.draw(st.sampled_from(sorted(
            (p for p in _key_paths(doc) if p[0] != "meta" or len(p) == 1),
            key=repr)))
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if (isinstance(where[-1], str)
                and where[-1] not in ("utilities", "retries", "meta")
                and data.draw(st.booleans())):
            del parent[where[-1]]
        else:
            old = _kind(parent[where[-1]])
            parent[where[-1]] = data.draw(st.sampled_from(
                [v for v in ("x", 1.5, [], {}, True, None)
                 if _kind(v) != old]))
        path = _write_stamped(tmp_path / "bad.ckpt", doc)
        with pytest.raises(ValueError) as info:
            RolloutCheckpoint.load(path)
        leaf = next(k for k in reversed(where) if isinstance(k, str))
        assert repr(path) in str(info.value)
        assert leaf in str(info.value)


# ----------------------------------------------------------------------
class TestNoisyFeedback:
    def test_noise_is_seed_deterministic(self, toy_evaluator,
                                         toy_network):
        plan = FaultPlan(seed=7, measurement=MeasurementNoise(
            gaussian_sigma=0.5))
        start = toy_network.planned_configuration().with_offline([1])
        runs = []
        for _ in range(2):
            runs.append(reactive_feedback(
                toy_evaluator, toy_network, start, [1],
                FeedbackSettings(max_steps=5),
                injector=FaultInjector(plan)))
        assert runs[0].utility_trace == runs[1].utility_trace
        assert runs[0].final_config == runs[1].final_config

    def test_noise_perturbs_the_trace(self, toy_evaluator, toy_network):
        start = toy_network.planned_configuration().with_offline([1])
        clean = reactive_feedback(toy_evaluator, toy_network, start, [1],
                                  FeedbackSettings(max_steps=5))
        plan = FaultPlan(seed=7, measurement=MeasurementNoise(
            gaussian_sigma=0.5))
        noisy = reactive_feedback(toy_evaluator, toy_network, start, [1],
                                  FeedbackSettings(max_steps=5),
                                  injector=FaultInjector(plan))
        assert noisy.utility_trace != clean.utility_trace


# ----------------------------------------------------------------------
class TestUtilityGuards:
    def test_dead_sector_rates_yield_finite_utility(self):
        from repro.core.utility import (CoverageUtility,
                                        PerformanceUtility,
                                        SumRateUtility)
        rates = np.asarray([0.0, -1.0, np.nan, np.inf, -np.inf, 1e6])
        for cls in (PerformanceUtility, CoverageUtility, SumRateUtility):
            values = cls().per_ue(rates)
            assert np.isfinite(values).all(), cls.name
            assert (values[:5] == 0.0).all(), cls.name

    def test_no_numpy_warning_on_zero_rates(self):
        from repro.core.utility import PerformanceUtility
        with np.errstate(all="raise"):       # any warning becomes an error
            values = PerformanceUtility().per_ue(
                np.asarray([0.0, 1e5, 0.0]))
        assert values[0] == 0.0 and values[1] == np.log(1e5)
