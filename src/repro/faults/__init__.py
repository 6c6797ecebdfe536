"""Fault injection and resilient rollout execution.

The package has two halves that meet in the middle:

* **injection** — :class:`FaultPlan` (a JSON-serializable, seedable
  description of what goes wrong: corrupt path-loss entries, noisy
  feedback measurements, failed/delayed configuration pushes,
  mid-rollout sector crashes) realized deterministically by
  :class:`FaultInjector`;
* **resilience** — :class:`ResilientExecutor`, which applies a gradual
  migration schedule with retry/backoff, validates every step against
  the ``f(C_after)`` utility floor of the paper's gradual-tuning
  guarantee, falls back to last-known-good on exhaustion, and
  checkpoints each accepted step (``magus.checkpoint/1``) so a killed
  run resumes byte-identically.

Two further layers extend the modeled network faults to *real*
process- and storage-level faults:

* **durability** — :mod:`repro.faults.durable`: crash-atomic artifact
  writes (temp + fsync + rename) and stdlib CRC-32 payload checksums
  (``crc32:`` stamps; ``crc32c:`` stamps from older builds are still
  verified), adopted by checkpoints, packed path-loss files, and every
  observability artifact;
* **chaos** — :mod:`repro.faults.chaos`: a seeded, JSON-serializable
  :class:`ChaosPlan` that SIGKILLs pool workers mid-dispatch, delays
  chunks past their deadline, and corrupts freshly written artifacts,
  for tests that assert runs still converge bitwise-identically.

Nothing here is active by default: with no plan and no checkpoint the
instrumented call sites reduce to ``None`` checks.
"""

from .chaos import (CHAOS_SCHEMA, ArtifactFaults, ChaosInjector,
                    ChaosPlan, ChunkDelay, WorkerKill)
from .checkpoint import (CHECKPOINT_SCHEMA, RolloutCheckpoint,
                         decode_config, encode_config, schedule_run_id)
from .durable import (ChecksumError, atomic_write, atomic_write_json,
                      checksum_hex, crc32c, verify_checksum)
from .errors import ConfigPushError, RolloutAborted
from .executor import ResilientExecutor, RetryPolicy, RolloutResult
from .injector import FaultInjector, PushOutcome
from .plan import (PLAN_SCHEMA, FaultPlan, MeasurementNoise,
                   PathLossFaults, PushFaults, SectorCrash)

__all__ = [
    "FaultPlan", "PathLossFaults", "MeasurementNoise", "PushFaults",
    "SectorCrash", "PLAN_SCHEMA",
    "FaultInjector", "PushOutcome",
    "ConfigPushError", "RolloutAborted",
    "RetryPolicy", "RolloutResult", "ResilientExecutor",
    "RolloutCheckpoint", "CHECKPOINT_SCHEMA", "encode_config",
    "decode_config", "schedule_run_id",
    "atomic_write", "atomic_write_json", "crc32c", "checksum_hex",
    "verify_checksum", "ChecksumError",
    "ChaosPlan", "WorkerKill", "ChunkDelay", "ArtifactFaults",
    "ChaosInjector", "CHAOS_SCHEMA",
]
