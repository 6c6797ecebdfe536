"""Crash-safe execution: durable artifacts, supervision, chaos harness.

Three layers of the robustness PR, bottom-up: the checksum/atomic-write
primitives in :mod:`repro.faults.durable`, the checksummed artifacts
built on them (rollout checkpoints with ``.prev`` rotation, plossdb v2
per-section checksums), and the seeded :class:`ChaosPlan` harness that
SIGKILLs pool workers, stalls items past their deadline and corrupts
freshly written artifacts — asserting the supervision and durability
machinery converges bitwise-identically to a fault-free run or cleanly
falls back to last-known-good.  Every scenario is seeded and exact.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import zlib

import numpy as np
import pytest

from repro.core.gradual import GradualSettings, gradual_migration
from repro.core.joint import tune_joint
from repro.core.utility import PerformanceUtility
from repro.faults import (ArtifactFaults, ChaosInjector, ChaosPlan,
                          ChecksumError, ChunkDelay, ResilientExecutor,
                          RolloutCheckpoint, WorkerKill, atomic_write,
                          checksum_hex, crc32c, encode_config,
                          schedule_run_id, verify_checksum)
from repro.faults import durable
from repro.faults.checkpoint import _canonical_bytes, previous_path
from repro.faults.durable import (add_post_write_hook, atomic_write_json,
                                  crc32, remove_post_write_hook)
from repro.model import plossdb
from repro.model.plossdb import (load_packed, read_header, save_packed,
                                 verify_sections)
from repro.obs import MetricsRegistry, use_registry
from repro.parallel import EvaluationService
from repro.upgrades.planner import UpgradePlanner
from repro.upgrades.scenario import UpgradeScenario

_UTILITY = PerformanceUtility()


# ----------------------------------------------------------------------
class TestCRC32C:
    def test_rfc_check_vector(self):
        # RFC 3720's CRC32C check value.
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_is_zero(self):
        assert crc32c(b"") == 0

    def test_vector_path_matches_scalar_path(self):
        # 200 KB takes the block-parallel lane path; feeding the same
        # bytes through sub-threshold scalar pieces must agree bit for
        # bit (and with zlib's crc32 structure: same chaining law).
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=200_001, dtype=np.uint8).tobytes()
        whole = crc32c(data)
        value = 0
        for start in range(0, len(data), 1000):
            value = crc32c(data[start:start + 1000], value)
        assert value == whole

    def test_streaming_chain(self):
        a, b = b"hello, ", b"world"
        assert crc32c(b, crc32c(a)) == crc32c(a + b)

    def test_ndarray_input(self):
        arr = np.arange(100, dtype=np.uint8)
        assert crc32c(arr) == crc32c(arr.tobytes())

    def test_checksum_hex_format(self):
        stamp = checksum_hex(b"123456789")
        assert stamp == "crc32:cbf43926"

    def test_verify_checksum_accepts_and_rejects(self):
        data = b"payload"
        verify_checksum(data, checksum_hex(data), what="thing")
        with pytest.raises(ChecksumError, match="thing"):
            verify_checksum(data + b"!", checksum_hex(data), what="thing")
        with pytest.raises(ChecksumError, match="md5"):
            verify_checksum(data, "md5:00000000", what="thing")

    def test_crc32_reference_structure(self):
        # Sanity-check the vector fold against an independent CRC of
        # the same family: our streaming law mirrors zlib.crc32's.
        data = os.urandom(4096)
        assert zlib.crc32(data[2048:], zlib.crc32(data[:2048])) \
            == zlib.crc32(data)


# ----------------------------------------------------------------------
def _flip_byte(path, offset, mask=0x10):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)[0]
        fh.seek(offset)
        fh.write(bytes([byte ^ mask]))


class TestCRC32:
    """The stamp new artifacts carry: stdlib CRC-32 behind ``crc32:``."""

    def test_check_vector(self):
        # The CRC-32 (ISO-HDLC / zlib) check value.
        assert crc32(b"123456789") == 0xCBF43926
        assert crc32(b"") == 0

    def test_ndarray_input_hashes_raw_bytes(self):
        for arr in (np.arange(100, dtype=np.uint8),
                    np.linspace(-3, 3, 77, dtype=np.float32),
                    np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2]):
            assert crc32(arr) \
                == zlib.crc32(np.ascontiguousarray(arr).tobytes())

    def test_chain_law(self):
        data = os.urandom(10_001)
        arr = np.frombuffer(data, dtype=np.uint8)
        for cut in (0, 1, 4096, 10_001):
            assert crc32(data[cut:], crc32(data[:cut])) == crc32(data)
            assert crc32(arr[cut:], crc32(arr[:cut])) == crc32(arr)

    def test_stream_checksum_across_block_boundaries(self, tmp_path,
                                                     monkeypatch):
        # A payload spanning several (shrunken) streaming blocks, with
        # a ragged tail, must hash to the one-shot stamp — for the new
        # algorithm and the legacy one alike.
        monkeypatch.setattr(plossdb, "_CRC_BLOCK_BYTES", 1000)
        arr = np.random.default_rng(3).standard_normal(
            1234).astype(np.float32)
        path = tmp_path / "blob.bin"
        path.write_bytes(b"head" + arr.tobytes())
        with open(path, "rb") as fh:
            streamed = plossdb._stream_checksum(fh, 4, arr.nbytes)
            legacy = plossdb._stream_checksum(fh, 4, arr.nbytes, "crc32c")
        assert streamed == checksum_hex(arr) == checksum_hex(arr.tobytes())
        assert legacy == f"crc32c:{crc32c(arr.tobytes()):08x}"

    def test_packed_stamps_do_not_depend_on_block_size(
            self, tmp_path, toy_pathloss, monkeypatch):
        save_packed(toy_pathloss, tmp_path / "big.plossdb")
        monkeypatch.setattr(plossdb, "_CRC_BLOCK_BYTES", 4096 + 7)
        save_packed(toy_pathloss, tmp_path / "small.plossdb")
        big = read_header(tmp_path / "big.plossdb")["sections"]
        small = read_header(tmp_path / "small.plossdb")["sections"]
        assert {n: s["checksum"] for n, s in big.items()} \
            == {n: s["checksum"] for n, s in small.items()}
        assert verify_sections(tmp_path / "small.plossdb") == list(small)

    def test_unknown_tag_raises_checksum_error(self):
        for stamp in ("md5:00000000", "crc32:", "crc32c", "sha1:cbf43926"):
            with pytest.raises(ChecksumError, match="'crc32', 'crc32c'"):
                verify_checksum(b"123456789", stamp)

    def test_legacy_crc32c_stamp_verifies(self):
        data = b"123456789"
        verify_checksum(data, "crc32c:e3069283")
        with pytest.raises(ChecksumError, match="crc32c:"):
            verify_checksum(data + b"!", "crc32c:e3069283")


# ----------------------------------------------------------------------
class TestDurableWrites:
    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write(str(path), "content\n")
        assert path.read_text() == "content\n"
        assert os.listdir(tmp_path) == ["artifact.json"]

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write(str(path), b"old")
        atomic_write(str(path), b"new")
        assert path.read_bytes() == b"new"

    def test_atomic_write_json(self, tmp_path):
        path = tmp_path / "doc.json"
        atomic_write_json(str(path), {"k": [1, 2]})
        assert json.loads(path.read_text()) == {"k": [1, 2]}

    def test_post_write_hooks_fire_and_remove(self, tmp_path):
        calls = []

        def hook(path, kind):
            calls.append((os.path.basename(path), kind))

        add_post_write_hook(hook)
        try:
            atomic_write(str(tmp_path / "x.ckpt"), b"x",
                         kind="checkpoint")
            atomic_write(str(tmp_path / "y.txt"), b"y")
        finally:
            remove_post_write_hook(hook)
        atomic_write(str(tmp_path / "z.txt"), b"z")
        assert calls == [("x.ckpt", "checkpoint"), ("y.txt", None)]


# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_json_round_trip(self, tmp_path):
        plan = ChaosPlan(
            seed=11,
            kill=WorkerKill(at_chunk=2, times=3),
            delay=ChunkDelay(at_chunk=1, seconds=0.5, times=2),
            artifacts=ArtifactFaults(kinds=("checkpoint", "flight"),
                                     mode="truncate", at_write=1,
                                     times=2))
        path = tmp_path / "plan.json"
        plan.save(str(path))
        loaded = ChaosPlan.load(str(path))
        assert loaded == plan
        assert json.loads(path.read_text())["schema"] \
            == "magus.chaos-plan/1"

    def test_empty_plan(self):
        assert ChaosPlan().empty
        assert not ChaosPlan(kill=WorkerKill()).empty

    def test_empty_section_takes_defaults(self):
        """``{"kill": {}}`` kills with the defaults; only a missing key
        or ``null`` means no section."""
        plan = ChaosPlan.from_dict({"kill": {}, "delay": {},
                                    "artifacts": {}})
        assert (plan.kill, plan.delay, plan.artifacts) \
            == (WorkerKill(), ChunkDelay(), ArtifactFaults())
        assert ChaosPlan.from_dict({"kill": None}).empty
        assert ChaosPlan.from_dict({}).empty

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            ChaosPlan.from_dict({"schema": "magus.fault-plan/1"})

    def test_validation(self):
        with pytest.raises(ValueError, match="at_chunk"):
            WorkerKill(at_chunk=-1)
        with pytest.raises(ValueError, match="times"):
            ChunkDelay(times=0)
        with pytest.raises(ValueError, match="mode"):
            ArtifactFaults(mode="explode")
        with pytest.raises(ValueError, match="unknown artifact kind"):
            ArtifactFaults(kinds=("plossdb",))

    def test_missing_file_actionable(self, tmp_path):
        with pytest.raises(ValueError, match="cannot load chaos plan"):
            ChaosPlan.load(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("payload, named", [
        (b'{"kill": {"tims": 1}}', "unknown key 'tims' in 'kill'"),
        (b'{"kill": {"times": "1"}}',
         r"'kill\.times' must be an integer, not '1'"),
        (b'{"delay": [1]}', "'delay' must be a JSON object, not list"),
        (b'{"artifact": {}}', "unknown key 'artifact' in the plan"),
        (b'[1, 2]', "a plan must be a JSON object, not list"),
        (b'{"seed": "\xff"}', "'utf-8' codec can't decode"),
        (b'{"kill": {"at_chunk": true}}',
         r"'kill\.at_chunk' must be an integer, not True"),
        (b'{"delay": {"seconds": NaN}}',
         r"'delay\.seconds' must be a number, not nan"),
        (b'{"artifacts": {"kinds": "checkpoint"}}',
         r"'artifacts\.kinds' must be a JSON list"),
        (b'{"artifacts": {"kinds": ["chekpoint"]}}',
         r"'artifacts\.kinds\[0\]' must be one of \['checkpoint', "
         r"'report', 'flight', 'trace'\], not 'chekpoint'"),
    ], ids=["misspelled-key", "wrong-type", "section-not-object",
            "top-level-key", "top-level-list", "bad-utf8", "bool-at-chunk",
            "nan-seconds", "text-kinds", "unknown-kind"])
    def test_malformed_plan_names_file_and_key(self, tmp_path, payload,
                                               named):
        path = tmp_path / "plan.json"
        path.write_bytes(payload)
        with pytest.raises(ValueError) as info:
            ChaosPlan.load(str(path))
        prefix = f"cannot load chaos plan {str(path)!r}: "
        assert str(info.value).startswith(prefix)
        assert re.match(named, str(info.value)[len(prefix):])
        if payload != b'{"seed": "\xff"}':
            with pytest.raises(ValueError, match=named):
                ChaosPlan.from_json(payload.decode())


# ----------------------------------------------------------------------
class TestChaosInjector:
    def test_claim_budget_is_once_only(self, tmp_path):
        injector = ChaosInjector(ChaosPlan(), str(tmp_path / "scratch"))
        assert injector._claim("kill", 2)
        assert injector._claim("kill", 2)
        assert not injector._claim("kill", 2)
        assert injector.spent("kill") == 2

    def test_artifact_window(self, tmp_path):
        plan = ChaosPlan(seed=3, artifacts=ArtifactFaults(
            kinds=("checkpoint",), mode="bitflip", at_write=1, times=1))
        injector = ChaosInjector(plan, str(tmp_path / "scratch"))
        hook = injector.artifact_hook()
        add_post_write_hook(hook)
        payload = b"A" * 256
        try:
            with use_registry(MetricsRegistry()):
                first = tmp_path / "first.ckpt"
                atomic_write(str(first), payload, kind="checkpoint")
                assert first.read_bytes() == payload   # before window
                other = tmp_path / "report.json"
                atomic_write(str(other), payload, kind="report")
                assert other.read_bytes() == payload   # wrong kind
                second = tmp_path / "second.ckpt"
                atomic_write(str(second), payload, kind="checkpoint")
                corrupted = second.read_bytes()
                assert corrupted != payload            # in window
                # A bit flip changes exactly one byte by one bit.
                diffs = [(a, b) for a, b in zip(corrupted, payload)
                         if a != b]
                assert len(diffs) == 1
                assert bin(diffs[0][0] ^ diffs[0][1]).count("1") == 1
                third = tmp_path / "third.ckpt"
                atomic_write(str(third), payload, kind="checkpoint")
                assert third.read_bytes() == payload   # budget spent
        finally:
            remove_post_write_hook(hook)

    def test_truncate_mode(self, tmp_path):
        plan = ChaosPlan(seed=4, artifacts=ArtifactFaults(
            kinds=("flight",), mode="truncate"))
        injector = ChaosInjector(plan, str(tmp_path / "scratch"))
        hook = injector.artifact_hook()
        add_post_write_hook(hook)
        try:
            with use_registry(MetricsRegistry()):
                path = tmp_path / "flight.json"
                atomic_write(str(path), b"B" * 512, kind="flight")
                assert 0 < os.path.getsize(path) < 512
        finally:
            remove_post_write_hook(hook)

    def test_corruption_is_seeded(self, tmp_path):
        def corrupt_once(tag):
            plan = ChaosPlan(seed=9, artifacts=ArtifactFaults(
                kinds=("checkpoint",)))
            injector = ChaosInjector(plan, str(tmp_path / f"s{tag}"))
            hook = injector.artifact_hook()
            add_post_write_hook(hook)
            try:
                with use_registry(MetricsRegistry()):
                    path = tmp_path / f"c{tag}.ckpt"
                    atomic_write(str(path), b"C" * 128, kind="checkpoint")
                return path.read_bytes()
            finally:
                remove_post_write_hook(hook)

        assert corrupt_once("a") == corrupt_once("b")


# ----------------------------------------------------------------------
_SCENARIOS = (UpgradeScenario.SINGLE_SECTOR, UpgradeScenario.FULL_SITE,
              UpgradeScenario.FOUR_CORNERS)


def _plans(outcomes):
    """Everything a sweep outcome's plan is compared on, bit for bit."""
    return [(encode_config(o.plan.c_after), repr(o.plan.f_after),
             o.plan.evaluations) for o in outcomes]


def _square(x):
    return x * x


@pytest.mark.chaos
class TestSupervision:
    """Per-item deadlines, retries, respawns and quarantine, on the
    scenario pool that fans whole mitigations out."""

    def _sweep(self, area, workers=2, **magus_kwargs):
        planner = UpgradePlanner(area, workers=workers, **magus_kwargs)
        return planner.sweep_scenarios(_SCENARIOS, tuning="power")

    def test_worker_kill_is_retried_bitwise_identical(
            self, tmp_path, small_area):
        want = _plans(self._sweep(small_area, workers=1))
        chaos = ChaosInjector(ChaosPlan(kill=WorkerKill(at_chunk=0)),
                              str(tmp_path / "scratch"))
        with use_registry(MetricsRegistry()) as registry:
            got = _plans(self._sweep(small_area, chaos=chaos,
                                     chunk_deadline_s=30.0))
            assert got == want
            assert chaos.spent("kill") == 1
            assert registry.counter(
                "magus.parallel.chunk_retries").value == 1
            assert registry.counter(
                "magus.parallel.pool_respawns").value == 1
            assert registry.counter(
                "magus.parallel.chunks_quarantined").value == 0
            kinds = {e["kind"] for e in registry.events()}
            assert {"worker_death", "chunk_failed", "pool_respawn",
                    "chunk_retry"} <= kinds
        assert multiprocessing.active_children() == []

    def test_poisoned_chunk_quarantined_alone(self, tmp_path, small_area):
        """An item that dies twice is re-run serially in the parent;
        everything else stays on the pool — the sweep still answers
        bitwise identically and only the poisoned item is
        quarantined."""
        want = _plans(self._sweep(small_area, workers=1))
        chaos = ChaosInjector(
            ChaosPlan(kill=WorkerKill(at_chunk=0, times=2)),
            str(tmp_path / "scratch"))
        with use_registry(MetricsRegistry()) as registry:
            got = _plans(self._sweep(small_area, chaos=chaos,
                                     chunk_deadline_s=30.0))
            assert got == want
            assert registry.counter(
                "magus.parallel.chunks_quarantined").value == 1
            quarantined = registry.events("chunk_quarantined")
            assert [e["data"]["chunk"] for e in quarantined] == [0]
            assert quarantined[0]["data"]["rescued"] is True

    def test_deadline_stall_is_retried(self, tmp_path, small_area):
        want = _plans(self._sweep(small_area, workers=1))
        chaos = ChaosInjector(
            ChaosPlan(delay=ChunkDelay(at_chunk=0, seconds=5.0)),
            str(tmp_path / "scratch"))
        with use_registry(MetricsRegistry()) as registry:
            got = _plans(self._sweep(small_area, chaos=chaos,
                                     chunk_deadline_s=0.5))
            assert got == want
            assert registry.counter(
                "magus.parallel.chunk_retries").value >= 1
            reasons = {e["data"]["reason"]
                       for e in registry.events("chunk_failed")}
            assert "deadline" in reasons

    def test_exhausted_respawn_budget_quarantines(self, tmp_path,
                                                  toy_engine, toy_density):
        chaos = ChaosInjector(ChaosPlan(kill=WorkerKill(at_chunk=0)),
                              str(tmp_path / "scratch"))
        items = list(range(6))
        with use_registry(MetricsRegistry()) as registry:
            with EvaluationService(toy_engine, toy_density, _UTILITY, 2,
                                   chaos=chaos, chunk_deadline_s=30.0,
                                   max_pool_respawns=0) as service:
                got = service.run_tasks(_square, items, serial_fn=_square)
            assert got == [_square(x) for x in items]
            assert registry.counter(
                "magus.parallel.pool_respawns").value == 0
            assert registry.counter(
                "magus.parallel.chunks_quarantined").value >= 1
            assert registry.events("respawn_budget_exhausted")
        assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
class TestCheckpointDurability:
    def _checkpoint(self, network, step=1, note="x"):
        return RolloutCheckpoint(
            run_id="abc123", step=step,
            last_good=network.planned_configuration(),
            utilities=[1.5, 2.5], floor_utility=1.0,
            retries=0, meta={"note": note})

    def test_save_stamps_checksum(self, toy_network, tmp_path):
        path = str(tmp_path / "run.ckpt")
        self._checkpoint(toy_network).save(path)
        doc = json.loads(open(path).read())
        assert doc["checksum"].startswith("crc32:")
        assert RolloutCheckpoint.load(path).step == 1

    def test_bitflipped_checkpoint_is_actionable(self, toy_network,
                                                 tmp_path):
        path = str(tmp_path / "run.ckpt")
        self._checkpoint(toy_network).save(path)
        text = open(path).read()
        open(path, "w").write(text.replace('"step": 1', '"step": 2'))
        with pytest.raises(ChecksumError, match="checkpoint"):
            RolloutCheckpoint.load(path)

    def test_unstamped_checkpoint_is_rejected(self, toy_network,
                                              tmp_path):
        """A checkpoint without a stamp cannot be verified: it is a
        ChecksumError, and resume falls back to ``.prev``."""
        path = str(tmp_path / "run.ckpt")
        self._checkpoint(toy_network, step=1).save(path)
        self._checkpoint(toy_network, step=2).save(path)
        doc = json.loads(open(path).read())
        del doc["checksum"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ChecksumError, match="no 'checksum' stamp"):
            RolloutCheckpoint.load(path)
        assert RolloutCheckpoint.load_if_exists(path).step == 1

    def _legacy_stamped(self, network, path):
        """A checkpoint as older builds wrote it: stamped ``crc32c:``."""
        doc = self._checkpoint(network).to_dict()
        doc["checksum"] = f"crc32c:{crc32c(_canonical_bytes(doc)):08x}"
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")

    def test_legacy_crc32c_checkpoint_loads(self, toy_network, tmp_path,
                                            monkeypatch):
        path = str(tmp_path / "legacy.ckpt")
        self._legacy_stamped(toy_network, path)
        calls = []
        real = durable.crc32c
        monkeypatch.setattr(durable, "crc32c",
                            lambda *a: calls.append(1) or real(*a))
        assert RolloutCheckpoint.load(path).step == 1
        assert calls            # verified by the legacy algorithm

    def test_legacy_crc32c_checkpoint_bitflip_raises(self, toy_network,
                                                     tmp_path):
        path = str(tmp_path / "legacy.ckpt")
        self._legacy_stamped(toy_network, path)
        # '"step": 1' -> '"step": 3' is a single flipped bit.
        _flip_byte(path, open(path, "rb").read().index(b'"step": 1') + 8,
                   mask=0x02)
        with pytest.raises(ChecksumError, match="mismatch"):
            RolloutCheckpoint.load(path)

    def test_unknown_checksum_tag_raises(self, toy_network, tmp_path):
        path = str(tmp_path / "odd.ckpt")
        doc = self._checkpoint(toy_network).to_dict()
        doc["checksum"] = "md5:00000000"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ChecksumError, match="unsupported"):
            RolloutCheckpoint.load(path)

    def test_json_breaking_corruption_is_checksum_error(self, toy_network,
                                                        tmp_path):
        path = str(tmp_path / "run.ckpt")
        self._checkpoint(toy_network).save(path)
        data = bytearray(open(path, "rb").read())
        data[data.index(b"{")] ^= 0x01          # '{' -> 'z'
        open(path, "wb").write(bytes(data))
        with pytest.raises(ChecksumError, match="not valid JSON"):
            RolloutCheckpoint.load(path)
        data[0:1] = b"\xff"                      # not UTF-8 either
        open(path, "wb").write(bytes(data))
        with pytest.raises(ChecksumError, match="not valid JSON"):
            RolloutCheckpoint.load(path)

    def test_unreadable_checkpoint_is_plain_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot load") as info:
            RolloutCheckpoint.load(str(tmp_path))     # a directory
        assert not isinstance(info.value, ChecksumError)

    def test_rotation_keeps_last_known_good(self, toy_network, tmp_path):
        path = str(tmp_path / "run.ckpt")
        self._checkpoint(toy_network, step=1, note="first").save(path)
        self._checkpoint(toy_network, step=2, note="second").save(path)
        assert os.path.exists(previous_path(path))
        assert RolloutCheckpoint.load(path).step == 2
        assert RolloutCheckpoint.load(previous_path(path)).step == 1

    def test_corrupt_primary_falls_back_to_prev(self, toy_network,
                                                tmp_path):
        path = str(tmp_path / "run.ckpt")
        self._checkpoint(toy_network, step=1).save(path)
        self._checkpoint(toy_network, step=2).save(path)
        text = open(path).read()
        open(path, "w").write(text.replace('"step": 2', '"step": 3'))
        with use_registry(MetricsRegistry()) as registry:
            loaded = RolloutCheckpoint.load_if_exists(path)
            assert loaded is not None and loaded.step == 1
            assert registry.counter(
                "magus.faults.checkpoint_fallbacks").value == 1
            events = registry.events("checkpoint_fallback")
            assert events and events[0]["data"]["reason"] == "corrupt"

    def test_torn_rotation_falls_back_to_prev(self, toy_network,
                                              tmp_path):
        # A crash between rotate and write leaves only ``.prev``.
        path = str(tmp_path / "run.ckpt")
        self._checkpoint(toy_network, step=1).save(path)
        os.replace(path, previous_path(path))
        with use_registry(MetricsRegistry()) as registry:
            loaded = RolloutCheckpoint.load_if_exists(path)
            assert loaded is not None and loaded.step == 1
            events = registry.events("checkpoint_fallback")
            assert events and events[0]["data"]["reason"] == "missing"

    def test_both_generations_corrupt_raises(self, toy_network,
                                             tmp_path):
        path = str(tmp_path / "run.ckpt")
        self._checkpoint(toy_network, step=1).save(path)
        self._checkpoint(toy_network, step=2).save(path)
        for p in (path, previous_path(path)):
            open(p, "w").write("{not json")
        with pytest.raises(ValueError):
            RolloutCheckpoint.load_if_exists(path)

    def test_missing_is_none(self, tmp_path):
        assert RolloutCheckpoint.load_if_exists(
            str(tmp_path / "never.ckpt")) is None


# ----------------------------------------------------------------------
class TestPlossdbChecksums:
    def test_sections_are_checksummed_and_verified(self, tmp_path,
                                                   toy_pathloss):
        path = tmp_path / "toy.plossdb"
        save_packed(toy_pathloss, path)
        header = read_header(path)
        sections = header["sections"]
        assert all(s.get("checksum", "").startswith("crc32:")
                   for s in sections.values())
        assert verify_sections(path) == list(sections)

    def test_bitflipped_section_is_actionable(self, tmp_path,
                                              toy_pathloss):
        path = tmp_path / "toy.plossdb"
        save_packed(toy_pathloss, path)
        header = read_header(path)
        name, section = list(header["sections"].items())[-1]
        with open(path, "r+b") as fh:
            fh.seek(section["offset"] + section["nbytes"] // 2)
            byte = fh.read(1)[0]
            fh.seek(section["offset"] + section["nbytes"] // 2)
            fh.write(bytes([byte ^ 0x10]))
        with pytest.raises(ValueError, match=name):
            load_packed(path)
        with pytest.raises(ValueError, match="re-run the pack"):
            verify_sections(path)
        # verify=False still permits forensic inspection.
        assert load_packed(path, verify=False) is not None

    @staticmethod
    def _save_legacy(pathloss, path, monkeypatch):
        """Pack ``path`` the way older builds did: ``crc32c:`` stamps."""
        stream = plossdb._stream_checksum
        with monkeypatch.context() as m:
            m.setattr(plossdb, "_CHECKSUM_PLACEHOLDER", "crc32c:00000000")
            m.setattr(plossdb, "_stream_checksum",
                      lambda fh, offset, nbytes: stream(
                          fh, offset, nbytes, "crc32c"))
            save_packed(pathloss, path)

    def test_legacy_crc32c_sections_still_load(self, tmp_path,
                                               toy_pathloss, monkeypatch):
        path = tmp_path / "legacy.plossdb"
        self._save_legacy(toy_pathloss, path, monkeypatch)
        sections = read_header(path)["sections"]
        assert all(s["checksum"].startswith("crc32c:")
                   for s in sections.values())
        calls = []
        real = durable.crc32c
        monkeypatch.setattr(durable, "crc32c",
                            lambda *a: calls.append(1) or real(*a))
        assert verify_sections(path) == list(sections)
        assert len(calls) >= len(sections)
        assert load_packed(path) is not None

    def test_legacy_crc32c_bitflip_raises(self, tmp_path, toy_pathloss,
                                          monkeypatch):
        path = tmp_path / "legacy.plossdb"
        self._save_legacy(toy_pathloss, path, monkeypatch)
        name, section = list(read_header(path)["sections"].items())[0]
        _flip_byte(path, section["offset"] + section["nbytes"] // 3)
        with pytest.raises(ChecksumError, match=name):
            load_packed(path)

    def test_unknown_section_tag_raises(self, tmp_path, toy_pathloss):
        path = tmp_path / "toy.plossdb"
        save_packed(toy_pathloss, path)
        header = read_header(path)
        name = next(iter(header["sections"]))
        header["sections"][name]["checksum"] = "sha1:00000000"
        with pytest.raises(ChecksumError, match="unsupported"):
            verify_sections(path, header)

    def test_truncated_section_is_actionable(self, tmp_path,
                                             toy_pathloss):
        path = tmp_path / "cut.plossdb"
        save_packed(toy_pathloss, path)
        os.truncate(path, os.path.getsize(path) - 16)
        with pytest.raises(ValueError):
            load_packed(path)

    def test_unstamped_section_is_rejected(self, tmp_path, toy_pathloss):
        """Every section is stamped: a header without a section's stamp
        does not load, and ``verify_sections`` never skips one."""
        path = tmp_path / "toy.plossdb"
        save_packed(toy_pathloss, path)
        header = read_header(path)
        del header["sections"]["roi"]["checksum"]
        with pytest.raises(ChecksumError, match="'roi' carries no"):
            verify_sections(path, header)


# ----------------------------------------------------------------------
@pytest.mark.chaos
class TestEndToEndChaos:
    def test_kill_and_bitflip_converge_bitwise(
            self, tmp_path, small_area, toy_network, toy_evaluator):
        """Acceptance: a seeded chaos run that SIGKILLs one worker of a
        scenario sweep *and* bit-flips the final checkpoint before a
        crash still converges to the exact fault-free plans and
        rollout."""
        fault_free = _plans(UpgradePlanner(small_area).sweep_scenarios(
            _SCENARIOS, workers=1, tuning="joint"))
        c_before = toy_network.planned_configuration()
        baseline_state = toy_evaluator.state_of(c_before)
        toy_plan = tune_joint(toy_evaluator, toy_network,
                              c_before.with_offline([1]),
                              baseline_state, [1])
        schedule = gradual_migration(
            toy_evaluator, toy_network, c_before,
            toy_plan.final_config, [1],
            GradualSettings(target_step_db=3.0))
        assert schedule.n_steps >= 3
        baseline = ResilientExecutor(
            toy_evaluator, network=toy_network).execute(schedule)

        kill_at = schedule.n_steps - 1    # crash on the last step...
        ckpt = str(tmp_path / "run.ckpt")
        plan = ChaosPlan(
            seed=5,
            kill=WorkerKill(at_chunk=0),
            # ...after chaos bit-flipped the last checkpoint written
            # before the crash: steps 1..kill_at-1 commit, so write
            # index kill_at-2 (0-based) is the final save.
            artifacts=ArtifactFaults(kinds=("checkpoint",),
                                     mode="bitflip",
                                     at_write=kill_at - 2))
        chaos = ChaosInjector(plan, str(tmp_path / "scratch"))
        hook = chaos.artifact_hook()
        add_post_write_hook(hook)
        try:
            with use_registry(MetricsRegistry()) as registry:
                chaotic = UpgradePlanner(small_area, workers=2,
                                         chunk_deadline_s=30.0,
                                         chaos=chaos)
                outcomes = chaotic.sweep_scenarios(_SCENARIOS,
                                                   tuning="joint")
                # The SIGKILLed scenario was retried on a respawned
                # pool and the sweep still found the identical plans.
                assert chaos.spent("kill") == 1
                assert registry.counter(
                    "magus.parallel.pool_respawns").value == 1
                assert _plans(outcomes) == fault_free

                def dying_apply(config, step):
                    if step == kill_at:
                        raise KeyboardInterrupt("simulated kill -9")

                with pytest.raises(KeyboardInterrupt):
                    ResilientExecutor(
                        toy_evaluator, network=toy_network,
                        apply_fn=dying_apply,
                        checkpoint_path=ckpt).execute(schedule)
                # Chaos flipped a bit of the last checkpoint write.
                assert registry.events("chaos_artifact_corrupted")
                with pytest.raises(ChecksumError):
                    RolloutCheckpoint.load(ckpt)

                resumed = ResilientExecutor(
                    toy_evaluator, network=toy_network,
                    checkpoint_path=ckpt).execute(schedule)
                assert resumed.completed
                # Resume fell back to the rotated .prev checkpoint
                # (one step earlier than the corrupt primary claimed).
                assert registry.counter(
                    "magus.faults.checkpoint_fallbacks").value == 1
                assert resumed.resumed_from_step == kill_at - 2
                assert encode_config(resumed.final_config) \
                    == encode_config(baseline.final_config)
                assert resumed.utilities == baseline.utilities
        finally:
            remove_post_write_hook(hook)
        assert multiprocessing.active_children() == []
