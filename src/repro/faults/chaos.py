"""Seeded chaos harness (schema ``magus.chaos-plan/1``).

Where :class:`~repro.faults.plan.FaultPlan` models failures *of the
network being mitigated*, a :class:`ChaosPlan` injects failures *of
the mitigation machinery itself* — the process- and storage-level
disasters the crash-safe execution layer exists to absorb:

* :class:`WorkerKill` — a pool worker SIGKILLs itself the moment it
  picks up item ``at_chunk`` of a pool dispatch, exactly the silent
  in-flight-task loss an OOM kill produces;
* :class:`ChunkDelay` — a worker sleeps past the item deadline, the
  hung-NFS / paused-cgroup shape of the same failure;
* :class:`ArtifactFaults` — the Nth freshly written artifact of a
  given kind (checkpoint, report, flight, trace) gets a bit flipped or
  its tail truncated, through the
  :func:`repro.faults.durable.add_post_write_hook` seam — storage rot
  injected on the very bytes real writes produce.

Like ``FaultPlan``, the plan is a JSON-serializable value object with
**no randomness of its own**: corruption offsets derive from ``seed``
through the same named-stream discipline, so every chaos scenario
replays exactly.

**Cross-process once-only semantics.**  Kill/delay triggers must fire
a bounded number of times *across* pool respawns — a kill that fires
on every respawned worker would starve the retry budget forever.  The
:class:`ChaosInjector` claims each firing through ``O_CREAT|O_EXCL``
marker files in a scratch directory created by the parent and
inherited by forked workers: whichever process creates the marker
first owns that firing, every other process sees it spent.
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import asdict, dataclass
from typing import Dict, Literal, Optional, Tuple, get_args

from .plan import load_plan, plan_from_dict

__all__ = ["ChaosPlan", "WorkerKill", "ChunkDelay", "ArtifactFaults",
           "ChaosInjector", "CHAOS_SCHEMA"]

CHAOS_SCHEMA = "magus.chaos-plan/1"

#: Corruption modes understood by ``ChaosInjector``.
_ARTIFACT_MODES = ("bitflip", "truncate")

#: The artifact kinds ``atomic_write`` callers stamp on their writes.
ArtifactKind = Literal["checkpoint", "report", "flight", "trace"]
_ARTIFACT_KINDS = get_args(ArtifactKind)


@dataclass(frozen=True)
class WorkerKill:
    """SIGKILL the worker that picks up dispatch item ``at_chunk``.

    ``at_chunk`` is the item's index in its
    :meth:`~repro.parallel.EvaluationService.run_tasks` dispatch — in a
    scenario sweep, the scenario's position in the sweep (the field
    keeps its ``magus.chaos-plan/1`` name).  Fires ``times`` times in
    total across the whole run (pool respawns included), so
    supervision's bounded retry budget is actually exercised rather
    than starved.
    """

    at_chunk: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.at_chunk < 0:
            raise ValueError("at_chunk must be non-negative")
        if self.times < 1:
            raise ValueError("times must be positive")


@dataclass(frozen=True)
class ChunkDelay:
    """Stall dispatch item ``at_chunk`` for ``seconds`` before running it."""

    at_chunk: int = 0
    seconds: float = 1.0
    times: int = 1

    def __post_init__(self) -> None:
        if self.at_chunk < 0:
            raise ValueError("at_chunk must be non-negative")
        if self.seconds < 0:
            raise ValueError("seconds must be non-negative")
        if self.times < 1:
            raise ValueError("times must be positive")


@dataclass(frozen=True)
class ArtifactFaults:
    """Corrupt freshly written artifacts of the given ``kinds``.

    The ``at_write``-th matching write (0-based, counted per run via
    the marker directory) is corrupted; ``mode`` selects a single
    seeded bit flip or a truncation to half the payload.  ``times``
    consecutive matching writes from ``at_write`` on are corrupted.
    """

    kinds: Tuple[ArtifactKind, ...] = ("checkpoint",)
    mode: str = "bitflip"
    at_write: int = 0
    times: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        for kind in self.kinds:
            if kind not in _ARTIFACT_KINDS:
                raise ValueError(f"unknown artifact kind {kind!r}; "
                                 f"expected one of {_ARTIFACT_KINDS}")
        if self.mode not in _ARTIFACT_MODES:
            raise ValueError(f"unknown artifact fault mode {self.mode!r}; "
                             f"expected one of {_ARTIFACT_MODES}")
        if self.at_write < 0:
            raise ValueError("at_write must be non-negative")
        if self.times < 1:
            raise ValueError("times must be positive")


@dataclass(frozen=True)
class ChaosPlan:
    """The full machinery-failure scenario for one run."""

    seed: int = 0
    kill: Optional[WorkerKill] = None
    delay: Optional[ChunkDelay] = None
    artifacts: Optional[ArtifactFaults] = None

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return (self.kill is None and self.delay is None
                and self.artifacts is None)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"schema": CHAOS_SCHEMA,
                                  "seed": self.seed}
        if self.kill is not None:
            out["kill"] = asdict(self.kill)
        if self.delay is not None:
            out["delay"] = asdict(self.delay)
        if self.artifacts is not None:
            artifacts = asdict(self.artifacts)
            artifacts["kinds"] = list(self.artifacts.kinds)
            out["artifacts"] = artifacts
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosPlan":
        return plan_from_dict(cls, data, CHAOS_SCHEMA,
                              {"kill": WorkerKill, "delay": ChunkDelay,
                               "artifacts": ArtifactFaults}, {})

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "ChaosPlan":
        return load_plan(cls, path, "chaos")

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


class ChaosInjector:
    """Realizes a :class:`ChaosPlan` with cross-process once semantics.

    The injector is constructed in the parent and handed to each pool
    worker by the pool initializer; it is a plain picklable value —
    all mutable coordination lives in the marker directory, never in
    Python state.
    """

    def __init__(self, plan: ChaosPlan, scratch_dir: str) -> None:
        self.plan = plan
        self.scratch_dir = os.fspath(scratch_dir)
        os.makedirs(self.scratch_dir, exist_ok=True)

    # -- cross-process claim protocol -----------------------------------
    def _claim(self, fault: str, budget: int) -> bool:
        """Atomically claim one of ``budget`` firings of ``fault``.

        First-come-first-served across every process sharing the
        scratch dir: ``O_CREAT|O_EXCL`` either creates marker ``k`` (we
        own firing ``k``) or fails (someone else spent it).
        """
        for k in range(budget):
            try:
                fd = os.open(os.path.join(self.scratch_dir,
                                          f"{fault}-{k}"),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def spent(self, fault: str) -> int:
        """How many firings of ``fault`` have been claimed so far."""
        count = 0
        while os.path.exists(os.path.join(self.scratch_dir,
                                          f"{fault}-{count}")):
            count += 1
        return count

    # -- worker-side chunk injection ------------------------------------
    def on_chunk(self, chunk_index: int) -> None:
        """Called by a pool worker as it picks up item ``chunk_index``.

        May never return (SIGKILL is delivered to *this* process) —
        the parent's supervision loop is what turns that into a retry.
        """
        kill = self.plan.kill
        if (kill is not None and chunk_index == kill.at_chunk
                and self._claim("kill", kill.times)):
            os.kill(os.getpid(), signal.SIGKILL)
        delay = self.plan.delay
        if (delay is not None and chunk_index == delay.at_chunk
                and self._claim("delay", delay.times)):
            time.sleep(delay.seconds)

    # -- artifact corruption --------------------------------------------
    def artifact_hook(self):
        """The ``(path, kind)`` post-write hook realizing ``artifacts``.

        Register it with :func:`repro.faults.durable.add_post_write_hook`
        (the CLI and tests do this for the run's duration); matching
        writes are counted in the marker dir so the ``at_write`` index
        is stable across processes.
        """
        faults = self.plan.artifacts

        def hook(path: str, kind: Optional[str]) -> None:
            if faults is None or kind not in faults.kinds:
                return
            if not self._claim("art-seen", faults.at_write + faults.times):
                return          # past the corruption window
            seen = self.spent("art-seen") - 1
            if seen < faults.at_write:
                return          # before the corruption window
            self._corrupt(path, strike=seen - faults.at_write)

        return hook

    def _corrupt(self, path: str, strike: int) -> None:
        """Flip one seeded bit of ``path`` or truncate its tail."""
        from ..obs.registry import get_registry
        from ..synthetic.rng import substream

        size = os.path.getsize(path)
        if size == 0:
            return
        faults = self.plan.artifacts
        rng = substream(self.plan.seed, "chaos.artifact", strike)
        if faults.mode == "bitflip":
            offset = int(rng.integers(0, size))
            bit = int(rng.integers(0, 8))
            with open(path, "r+b") as fh:
                fh.seek(offset)
                byte = fh.read(1)[0]
                fh.seek(offset)
                fh.write(bytes([byte ^ (1 << bit)]))
            detail = {"offset": offset, "bit": bit}
        else:
            keep = max(1, int(rng.integers(1, max(size // 2, 2))))
            os.truncate(path, keep)
            detail = {"truncated_to": keep}
        get_registry().record(
            "chaos_artifact_corrupted", path=path,
            mode=faults.mode, **detail)
