"""Declarative, seedable fault plans (schema ``magus.fault-plan/1``).

A :class:`FaultPlan` describes *what goes wrong* during a mitigation
run, in the vocabulary of the operational failures the paper's premises
quietly assume away: clean Atoll path-loss feeds (Section 4.2),
configuration pushes that always land (Section 5) and feedback
measurements that arrive on time and uncorrupted (Sections 2 and 6).
The plan itself contains **no randomness** — it is a JSON-serializable
value object — and every stochastic choice a
:class:`~repro.faults.injector.FaultInjector` later makes from it is
derived from ``seed`` through the same named-stream discipline as the
synthetic market generators, so any failure scenario replays exactly.

Fault classes:

* :class:`PathLossFaults` — corrupt entries of the path-loss database
  (NaN rows, +/-inf spikes, or *stale-tilt* rows where a sector's
  elevation raster silently lags the commanded tilt);
* :class:`MeasurementNoise` — Gaussian background noise plus sparse
  impulse outliers on feedback measurements;
* :class:`PushFaults` — configuration pushes that fail (transiently per
  step, or at random) or land late;
* :class:`SectorCrash` — a sector hard-failing at a given rollout step,
  the mid-rollout disaster the resilient executor must survive.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import (Dict, Literal, Optional, Tuple, get_args, get_origin,
                    get_type_hints)

from .durable import JSON_INT, JSON_NUMBER, JSON_TEXT, check_schema

__all__ = ["FaultPlan", "PathLossFaults", "MeasurementNoise",
           "PushFaults", "SectorCrash", "PLAN_SCHEMA"]

PLAN_SCHEMA = "magus.fault-plan/1"

#: Corruption modes understood by ``FaultInjector.corrupt_pathloss``.
_PATHLOSS_MODES = ("nan", "inf", "stale-tilt")

#: The JSON shape of each field type a plan object holds; fields of
#: other types (sections, crash lists) are built before they are set.
_FIELD_SCHEMAS = {int: JSON_INT, float: JSON_NUMBER, str: JSON_TEXT,
                  Tuple[int, ...]: [JSON_INT], Tuple[str, ...]: [JSON_TEXT]}


@dataclass(frozen=True)
class PathLossFaults:
    """Dirty-input corruption of the path-loss database.

    ``n_sectors`` sectors (chosen by the injector's seeded RNG) each
    get ``cell_fraction`` of their raster cells corrupted; mode
    ``stale-tilt`` instead replaces the sector's elevation-angle raster
    with a shifted (out-of-date) copy, the way an Atoll export lags a
    tilt change in the field.
    """

    n_sectors: int = 1
    cell_fraction: float = 0.01
    mode: str = "nan"

    def __post_init__(self) -> None:
        if self.mode not in _PATHLOSS_MODES:
            raise ValueError(f"unknown path-loss fault mode {self.mode!r}; "
                             f"expected one of {_PATHLOSS_MODES}")
        if not 0.0 <= self.cell_fraction <= 1.0:
            raise ValueError("cell_fraction must be within [0, 1]")
        if self.n_sectors < 0:
            raise ValueError("n_sectors must be non-negative")


@dataclass(frozen=True)
class MeasurementNoise:
    """Additive noise on feedback measurements (utility readings).

    Gaussian background noise of ``gaussian_sigma`` plus, with
    probability ``impulse_prob`` per measurement, an impulse outlier of
    ``impulse_magnitude`` (random sign).
    """

    gaussian_sigma: float = 0.0
    impulse_prob: float = 0.0
    impulse_magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.gaussian_sigma < 0:
            raise ValueError("gaussian_sigma must be non-negative")
        if not 0.0 <= self.impulse_prob <= 1.0:
            raise ValueError("impulse_prob must be within [0, 1]")


@dataclass(frozen=True)
class PushFaults:
    """Failed or delayed ``apply_configuration`` pushes.

    ``fail_steps`` lists rollout step indices whose first
    ``fail_attempts`` push attempts fail deterministically (the shape
    retry/backoff tests need); ``fail_prob`` additionally fails any
    attempt at random.  ``delay_s`` is added to every successful push
    (the executor charges it against its per-step timeout).
    """

    fail_steps: Tuple[int, ...] = ()
    fail_attempts: int = 1
    fail_prob: float = 0.0
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "fail_steps", tuple(self.fail_steps))
        if not 0.0 <= self.fail_prob <= 1.0:
            raise ValueError("fail_prob must be within [0, 1]")
        if self.fail_attempts < 0:
            raise ValueError("fail_attempts must be non-negative")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")


@dataclass(frozen=True)
class SectorCrash:
    """A sector hard-failing at rollout step ``at_step`` (inclusive).

    Declarative rather than random so checkpoint/resume replays the
    crash identically: the crashed set at any step is a pure function
    of the plan.
    """

    sector_id: int
    at_step: int = 0

    def __post_init__(self) -> None:
        if self.sector_id < 0:
            raise ValueError("sector_id must be non-negative")
        if self.at_step < 0:
            raise ValueError("at_step must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """The full failure scenario for one run, reproducible from ``seed``."""

    seed: int = 0
    pathloss: Optional[PathLossFaults] = None
    measurement: Optional[MeasurementNoise] = None
    push: Optional[PushFaults] = None
    crashes: Tuple[SectorCrash, ...] = ()

    # -- queries --------------------------------------------------------
    @property
    def empty(self) -> bool:
        """True when the plan injects nothing at all."""
        return (self.pathloss is None and self.measurement is None
                and self.push is None and not self.crashes)

    def crashed_sectors(self, step: int) -> frozenset:
        """Sector ids crashed at or before rollout step ``step``."""
        return frozenset(c.sector_id for c in self.crashes
                         if c.at_step <= step)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"schema": PLAN_SCHEMA, "seed": self.seed}
        if self.pathloss is not None:
            out["pathloss"] = asdict(self.pathloss)
        if self.measurement is not None:
            out["measurement"] = asdict(self.measurement)
        if self.push is not None:
            push = asdict(self.push)
            push["fail_steps"] = list(self.push.fail_steps)
            out["push"] = push
        if self.crashes:
            out["crashes"] = [asdict(c) for c in self.crashes]
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        return plan_from_dict(
            cls, data, PLAN_SCHEMA,
            {"pathloss": PathLossFaults, "measurement": MeasurementNoise,
             "push": PushFaults}, {"crashes": SectorCrash})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        return load_plan(cls, path, "fault")

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def plan_from_dict(cls, data, schema: str, sections: Dict[str, type],
                   lists: Dict[str, type]):
    """Build plan ``cls`` from its JSON object: each key of ``sections``
    that dataclass (an empty object takes its defaults; only a missing
    key or ``null`` means no section), each key of ``lists`` a tuple of
    it, every other field of its declared JSON type.  A malformed plan
    raises a ValueError naming the key path (``crashes[0].sector_id``),
    never a raw TypeError or AttributeError."""
    if not isinstance(data, dict):
        raise ValueError(f"a plan must be a JSON object, "
                         f"not {type(data).__name__}")
    data = dict(data)
    found = data.pop("schema", schema)
    if found != schema:
        raise ValueError(f"unsupported plan schema {found!r}; "
                         f"expected {schema!r}")
    for key, kind in sections.items():
        data[key] = (None if data.get(key) is None
                     else _section(kind, data[key], key))
    for key, kind in lists.items():
        items = data.get(key, [])
        if not isinstance(items, list):
            raise ValueError(f"{key!r} must be a JSON list, "
                             f"not {type(items).__name__}")
        data[key] = tuple(_section(kind, item, f"{key}[{i}]")
                          for i, item in enumerate(items))
    return _section(cls, data, "")


def _section(cls, data, path: str):
    """``cls(**data)`` for the plan object at key ``path`` (empty for
    the plan itself), after checking each present key against its
    field's type; any TypeError becomes a ValueError naming the key."""
    where = repr(path) if path else "the plan"
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, "
                         f"not {type(data).__name__}")
    hints = get_type_hints(cls)
    for key, value in data.items():
        if key not in hints:
            raise ValueError(f"unknown key {key!r} in {where}; "
                             f"expected one of {list(hints)}")
        schema = _field_schema(hints[key])
        if schema is not None:
            check_schema(value, schema, f"{path}.{key}" if path else key,
                         _field_error)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _field_schema(hint):
    """The JSON shape of a field typed ``hint`` (see
    :data:`_FIELD_SCHEMAS`); a tuple of ``Literal`` choices is a JSON
    list of those choices."""
    schema = _FIELD_SCHEMAS.get(hint)
    if schema is None and get_origin(hint) is tuple:
        item = get_args(hint)[0]
        if get_origin(item) is Literal:
            choices = list(get_args(item))
            schema = [(lambda value: value in choices, f"one of {choices}")]
    return schema


def _field_error(key: str, problem: str) -> ValueError:
    return ValueError(f"{key!r} {problem}")


def load_plan(cls, path: str, kind: str):
    """``cls.from_json`` of the file at ``path``; any failure is a
    ValueError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
    except (OSError, ValueError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors.
        raise ValueError(f"cannot load {kind} plan {path!r}: {exc}") \
            from exc
