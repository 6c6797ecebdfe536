"""JSON checkpoints for in-flight rollouts (schema ``magus.checkpoint/1``).

A killed ``mitigate`` invocation must restart from the last *accepted*
gradual step, not re-search: the executor writes one checkpoint after
every committed step, and on resume verifies the file belongs to the
same schedule (``run_id`` is a content hash over the encoded schedule
and the utility floor) before skipping ahead.

Configurations are encoded positionally — ``[power_dbm, tilt_deg,
active, azimuth_offset_deg]`` per sector with floats round-tripped via
``repr`` (exact for IEEE doubles) — so a resumed run's final
configuration is byte-identical to an uninterrupted one.

Durability: :meth:`RolloutCheckpoint.save` goes through
:func:`repro.faults.durable.atomic_write` and stamps a CRC-32
(``crc32:``; ``crc32c:`` stamps from older builds still verify) over
the canonical payload encoding; before each save the previous file
rotates to ``<path>.prev``.  On resume a checkpoint that fails its checksum,
carries none, or was torn mid-rotation falls back to the ``.prev``
last-known-good instead of aborting the rollout; nothing loads
unverified.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..model.network import Configuration, SectorSetting
from .durable import (ChecksumError, atomic_write, checksum_hex,
                      verify_checksum)

__all__ = ["RolloutCheckpoint", "CHECKPOINT_SCHEMA", "encode_config",
           "decode_config", "schedule_run_id"]

CHECKPOINT_SCHEMA = "magus.checkpoint/1"


def _canonical_bytes(data: Dict[str, object]) -> bytes:
    """The byte string the checkpoint checksum covers.

    Canonical (sorted-keys, compact) JSON of the document minus the
    ``checksum`` field itself; stable across dump/parse round trips
    because every float in the payload is either repr-encoded as a
    string or round-trips through shortest-repr JSON exactly.
    """
    body = {k: v for k, v in data.items() if k != "checksum"}
    return json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def encode_config(config: Configuration) -> List[List[object]]:
    """Positional JSON-safe encoding of every sector's setting."""
    return [[s.power_dbm, s.tilt_deg, bool(s.active), s.azimuth_offset_deg]
            for s in config.settings]


def decode_config(data: Sequence[Sequence[object]]) -> Configuration:
    """Inverse of :func:`encode_config`."""
    return Configuration(tuple(
        SectorSetting(power_dbm=float(p), tilt_deg=float(t),
                      active=bool(a), azimuth_offset_deg=float(o))
        for p, t, a, o in data))


def schedule_run_id(configs: Sequence[Configuration],
                    floor_utility: float) -> str:
    """Content hash identifying one rollout schedule.

    Two schedules agree on the id iff they agree on every sector
    setting of every step and on the floor — exactly the condition
    under which resuming from a checkpoint is sound.
    """
    payload = json.dumps(
        {"configs": [encode_config(c) for c in configs],
         "floor": repr(float(floor_utility))},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class RolloutCheckpoint:
    """Resume state after the last accepted rollout step."""

    run_id: str
    step: int                        # schedule index of the last commit
    last_good: Configuration         # the realized committed config
    utilities: List[float]           # committed utility trajectory
    floor_utility: float
    retries: int = 0
    meta: Dict[str, object] = field(default_factory=dict)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "run_id": self.run_id,
            "step": self.step,
            "last_good": encode_config(self.last_good),
            "utilities": [repr(float(u)) for u in self.utilities],
            "floor_utility": repr(float(self.floor_utility)),
            "retries": self.retries,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RolloutCheckpoint":
        schema = data.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise ValueError(f"unsupported checkpoint schema {schema!r}; "
                             f"expected {CHECKPOINT_SCHEMA!r}")
        return cls(
            run_id=str(data["run_id"]),
            step=int(data["step"]),
            last_good=decode_config(data["last_good"]),
            utilities=[float(u) for u in data.get("utilities", [])],
            floor_utility=float(data["floor_utility"]),
            retries=int(data.get("retries", 0)),
            meta=dict(data.get("meta", {})))

    def save(self, path: str, *, rotate: bool = True) -> None:
        """Checksummed atomic write, rotating the prior file to ``.prev``.

        Rotation happens before the write so that if the *new* file is
        torn or bit-flipped, ``.prev`` still holds the last checkpoint
        that passed verification — resume falls back rather than
        restarting the rollout from scratch.
        """
        doc = self.to_dict()
        doc["checksum"] = checksum_hex(_canonical_bytes(doc))
        if rotate and os.path.exists(path):
            try:
                os.replace(path, previous_path(path))
            except OSError:
                pass
        atomic_write(path, json.dumps(doc, indent=2) + "\n",
                     kind="checkpoint")

    @classmethod
    def load(cls, path: str) -> "RolloutCheckpoint":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(
                f"cannot load checkpoint {path!r}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # A flipped bit that breaks the encoding or the JSON syntax
            # is storage corruption, same as one the checksum catches.
            raise ChecksumError(
                f"checkpoint {path!r} is corrupt: not valid JSON/UTF-8 "
                f"({exc})") from exc
        stamp = data.get("checksum") if isinstance(data, dict) else None
        if stamp is None:
            raise ChecksumError(
                f"checkpoint {path!r} carries no 'checksum' stamp; it "
                f"cannot be verified")
        verify_checksum(_canonical_bytes(data), str(stamp),
                        what=f"checkpoint {path!r}")
        try:
            return cls.from_dict(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"cannot load checkpoint {path!r}: {exc}") from exc

    @classmethod
    def load_if_exists(cls, path: Optional[str]
                       ) -> Optional["RolloutCheckpoint"]:
        """Load ``path``, falling back to its ``.prev`` rotation.

        A corrupt (or rotated-away-then-never-rewritten) primary file
        resumes from the last-known-good ``.prev`` checkpoint; only
        when *both* generations are unreadable does the original
        error propagate.
        """
        if path is None:
            return None
        prev = previous_path(path)
        error: Optional[ValueError] = None
        if os.path.exists(path):
            try:
                return cls.load(path)
            except ValueError as exc:
                error = exc
        elif not os.path.exists(prev):
            return None
        if os.path.exists(prev):
            try:
                checkpoint = cls.load(prev)
            except ValueError:
                if error is not None:
                    raise error
                raise
            _record_checkpoint_fallback(path, error)
            return checkpoint
        raise error


def previous_path(path: str) -> str:
    """Where :meth:`RolloutCheckpoint.save` rotates the prior file."""
    return f"{path}.prev"


def _record_checkpoint_fallback(path: str,
                                error: Optional[ValueError]) -> None:
    """Note a last-known-good fallback in metrics + flight recorder."""
    from ..obs.events import get_flight_recorder
    from ..obs.registry import get_registry

    get_registry().counter("magus.faults.checkpoint_fallbacks").inc()
    get_flight_recorder().record(
        "checkpoint_fallback", path=path,
        reason="corrupt" if error is not None else "missing",
        error=str(error) if error is not None else None)
