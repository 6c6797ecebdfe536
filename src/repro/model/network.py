"""Sectors, base stations and network configurations.

Terminology follows the paper (Sections 2 and 4):

* A **base station** (site) hosts multiple (typically 3) **sectors**
  facing different directions; a planned upgrade takes one or more
  sectors off-air.
* A **configuration** ``C`` is "the collective parameter settings of
  all base stations in the network" — here, each sector's transmit
  power, electrical tilt and on/off state.
* **Tuning** takes the network from ``C1`` to ``C2`` by changing some
  sectors' parameters.

:class:`Configuration` is an immutable value type: every tuning step in
the search algorithms produces a new configuration via the ``with_*``
methods, so traces (``C_before``, ``C_upgrade``, ``C_after`` and every
intermediate) can be kept and compared safely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .antenna import AntennaPattern, TiltRange

__all__ = ["Sector", "BaseStation", "Configuration", "CellularNetwork",
           "SECTORS_PER_SITE"]

#: The typical sectorization the paper assumes.
SECTORS_PER_SITE = 3

#: Slack for float round-off in range validation (never masks a real
#: out-of-range setting — those are whole dB / whole degrees off).
_VALIDATE_EPS = 1e-9


@dataclass(frozen=True)
class Sector:
    """One directional cell of a base station.

    ``sector_id`` is globally unique; ``site_id`` groups co-located
    sectors.  Power limits reflect operational reality — the paper's
    rural analysis hinges on "the maximum transmission power limit
    becomes a constraint".
    """

    sector_id: int
    site_id: int
    x: float
    y: float
    azimuth_deg: float
    height_m: float = 30.0
    power_dbm: float = 43.0           # planned transmit power
    max_power_dbm: float = 46.0
    min_power_dbm: float = 20.0
    antenna: AntennaPattern = field(default_factory=AntennaPattern)
    tilt_range: TiltRange = field(default_factory=TiltRange)

    def __post_init__(self) -> None:
        if not (self.min_power_dbm <= self.power_dbm <= self.max_power_dbm):
            raise ValueError(
                f"sector {self.sector_id}: planned power {self.power_dbm} "
                f"outside [{self.min_power_dbm}, {self.max_power_dbm}]")

    @property
    def planned_tilt_deg(self) -> float:
        return self.tilt_range.normal_deg

    def distance_to(self, other: "Sector") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class BaseStation:
    """A site: co-located sectors sharing a mast."""

    site_id: int
    x: float
    y: float
    sector_ids: Tuple[int, ...]

    @property
    def n_sectors(self) -> int:
        return len(self.sector_ids)


@dataclass(frozen=True)
class SectorSetting:
    """Per-sector tunable state within a :class:`Configuration`.

    ``azimuth_offset_deg`` rotates the antenna's horizontal pattern
    relative to the planned azimuth — the third knob cell-outage-
    compensation systems tune besides power and tilt (paper Section 7).
    """

    power_dbm: float
    tilt_deg: float
    active: bool = True
    azimuth_offset_deg: float = 0.0


@dataclass(frozen=True)
class Configuration:
    """An immutable snapshot of every sector's tunable parameters.

    Use :meth:`CellularNetwork.planned_configuration` to obtain the
    operator-planned ``C_before`` and the ``with_*`` methods to derive
    tuned configurations.
    """

    settings: Tuple[SectorSetting, ...]

    def __post_init__(self) -> None:
        # Reject NaN/inf parameters at construction: a corrupt setting
        # caught here names its sector; caught later it is an
        # inexplicable NaN utility three layers down.
        bad = [i for i, s in enumerate(self.settings)
               if not (math.isfinite(s.power_dbm)
                       and math.isfinite(s.tilt_deg)
                       and math.isfinite(s.azimuth_offset_deg))]
        if bad:
            raise ValueError(
                f"non-finite power/tilt/azimuth settings for sectors "
                f"{bad}; configurations must be fully finite")

    def validate_against(self, network: "CellularNetwork") -> None:
        """Range-check every setting against the network's hardware.

        Raises :class:`ValueError` listing each offending sector with
        its out-of-range power (outside ``[min, max_power_dbm]``) or
        tilt (outside the sector's tilt catalogue), so a bad push is
        rejected before it reaches the air interface.
        """
        if network.n_sectors != self.n_sectors:
            raise ValueError(
                f"configuration covers {self.n_sectors} sectors but the "
                f"network has {network.n_sectors}")
        problems = []
        for i, setting in enumerate(self.settings):
            sector = network.sector(i)
            if not (sector.min_power_dbm - _VALIDATE_EPS
                    <= setting.power_dbm
                    <= sector.max_power_dbm + _VALIDATE_EPS):
                problems.append(
                    f"sector {i}: power {setting.power_dbm:.2f} dBm "
                    f"outside [{sector.min_power_dbm:.2f}, "
                    f"{sector.max_power_dbm:.2f}]")
            tr = sector.tilt_range
            if not (tr.min_deg - _VALIDATE_EPS <= setting.tilt_deg
                    <= tr.max_deg + _VALIDATE_EPS):
                problems.append(
                    f"sector {i}: tilt {setting.tilt_deg:.2f} deg "
                    f"outside [{tr.min_deg:.2f}, {tr.max_deg:.2f}]")
        if problems:
            raise ValueError("invalid configuration: " + "; ".join(problems))

    # -- accessors ------------------------------------------------------
    @property
    def n_sectors(self) -> int:
        return len(self.settings)

    def power_dbm(self, sector_id: int) -> float:
        return self.settings[sector_id].power_dbm

    def tilt_deg(self, sector_id: int) -> float:
        return self.settings[sector_id].tilt_deg

    def is_active(self, sector_id: int) -> bool:
        return self.settings[sector_id].active

    def powers(self) -> np.ndarray:
        """Vector of all transmit powers (dBm), offline sectors included."""
        return np.asarray([s.power_dbm for s in self.settings])

    def tilts(self) -> np.ndarray:
        return np.asarray([s.tilt_deg for s in self.settings])

    def azimuth_offset_deg(self, sector_id: int) -> float:
        return self.settings[sector_id].azimuth_offset_deg

    def azimuth_offsets(self) -> np.ndarray:
        return np.asarray([s.azimuth_offset_deg for s in self.settings])

    def active_mask(self) -> np.ndarray:
        return np.asarray([s.active for s in self.settings], dtype=bool)

    def active_sector_ids(self) -> List[int]:
        return [i for i, s in enumerate(self.settings) if s.active]

    # -- derivation -----------------------------------------------------
    def _replaced(self, sector_id: int, **changes) -> "Configuration":
        if not 0 <= sector_id < self.n_sectors:
            raise IndexError(f"unknown sector {sector_id}")
        new = list(self.settings)
        new[sector_id] = replace(new[sector_id], **changes)
        return Configuration(tuple(new))

    def with_power(self, sector_id: int, power_dbm: float) -> "Configuration":
        """A copy with ``sector_id``'s transmit power set to ``power_dbm``."""
        return self._replaced(sector_id, power_dbm=power_dbm)

    def with_power_delta(self, sector_id: int, delta_db: float,
                         max_power_dbm: Optional[float] = None) -> "Configuration":
        """A copy with the power changed by ``delta_db`` (clamped).

        This is the paper's ``C (+) P_b(T)`` operation; callers pass the
        sector's hardware limit so the tuning can never exceed it.
        """
        new_power = self.settings[sector_id].power_dbm + delta_db
        if max_power_dbm is not None:
            new_power = min(new_power, max_power_dbm)
        return self.with_power(sector_id, new_power)

    def with_tilt(self, sector_id: int, tilt_deg: float) -> "Configuration":
        """A copy with ``sector_id``'s electrical tilt set to ``tilt_deg``."""
        return self._replaced(sector_id, tilt_deg=tilt_deg)

    def with_azimuth_offset(self, sector_id: int,
                            offset_deg: float) -> "Configuration":
        """A copy with the horizontal pattern rotated by ``offset_deg``."""
        return self._replaced(sector_id, azimuth_offset_deg=offset_deg)

    def with_offline(self, sector_ids: Iterable[int]) -> "Configuration":
        """A copy with the given sectors taken off-air (``C_upgrade``)."""
        ids = set(sector_ids)
        new = [replace(s, active=False) if i in ids else s
               for i, s in enumerate(self.settings)]
        return Configuration(tuple(new))

    def with_online(self, sector_ids: Iterable[int]) -> "Configuration":
        """A copy with the given sectors restored to service."""
        ids = set(sector_ids)
        new = [replace(s, active=True) if i in ids else s
               for i, s in enumerate(self.settings)]
        return Configuration(tuple(new))

    # -- comparison -----------------------------------------------------
    def diff(self, other: "Configuration") -> Dict[int, Tuple[SectorSetting, SectorSetting]]:
        """Sectors whose settings differ, mapped to (self, other) pairs."""
        if other.n_sectors != self.n_sectors:
            raise ValueError("configurations cover different sector sets")
        return {i: (a, b)
                for i, (a, b) in enumerate(zip(self.settings, other.settings))
                if a != b}

    def __hash__(self) -> int:
        # Every memo, anchor-ring and ROI-baseline lookup hashes the
        # whole settings tuple; compute it once.  Defining __hash__
        # here keeps the dataclass from generating one, and the cache
        # is an attribute outside the fields, so eq/repr ignore it.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = hash((self.settings,))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        # Pickles carry the settings only; the receiving process
        # re-hashes in its own interpreter.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


class CellularNetwork:
    """The static radio topology: sectors, sites and neighbor relations.

    This object never changes during a mitigation run; all dynamics
    live in :class:`Configuration`.  Neighbor relations ("involved
    sectors B" in Algorithm 1) are derived from inter-site distance.
    """

    def __init__(self, sectors: Sequence[Sector]) -> None:
        if not sectors:
            raise ValueError("a network needs at least one sector")
        ids = [s.sector_id for s in sectors]
        if ids != list(range(len(sectors))):
            raise ValueError("sector_ids must be 0..n-1 in order")
        self._sectors: Tuple[Sector, ...] = tuple(sectors)
        self._sites = self._build_sites()

    def _build_sites(self) -> Dict[int, BaseStation]:
        grouped: Dict[int, List[Sector]] = {}
        for s in self._sectors:
            grouped.setdefault(s.site_id, []).append(s)
        sites = {}
        for site_id, members in grouped.items():
            sites[site_id] = BaseStation(
                site_id=site_id,
                x=members[0].x, y=members[0].y,
                sector_ids=tuple(m.sector_id for m in members))
        return sites

    # ------------------------------------------------------------------
    @property
    def sectors(self) -> Tuple[Sector, ...]:
        return self._sectors

    @property
    def n_sectors(self) -> int:
        return len(self._sectors)

    @property
    def sites(self) -> Mapping[int, BaseStation]:
        return self._sites

    def sector(self, sector_id: int) -> Sector:
        return self._sectors[sector_id]

    def site_of(self, sector_id: int) -> BaseStation:
        return self._sites[self._sectors[sector_id].site_id]

    def co_sited(self, sector_id: int) -> List[int]:
        """Sector ids sharing the site of ``sector_id`` (incl. itself)."""
        return list(self.site_of(sector_id).sector_ids)

    # ------------------------------------------------------------------
    def planned_configuration(self) -> Configuration:
        """The operator-planned configuration ``C_before``."""
        return Configuration(tuple(
            SectorSetting(power_dbm=s.power_dbm,
                          tilt_deg=s.planned_tilt_deg,
                          active=True)
            for s in self._sectors))

    # ------------------------------------------------------------------
    def neighbors_of(self, sector_ids: Iterable[int],
                     radius_m: float = 5_000.0,
                     max_neighbors: Optional[int] = None) -> List[int]:
        """The "involved sectors B": active neighbors of the targets.

        Returns sector ids (excluding the targets themselves) whose site
        lies within ``radius_m`` of any target's site, nearest first,
        optionally truncated to ``max_neighbors``.
        """
        targets = set(sector_ids)
        if not targets:
            raise ValueError("need at least one target sector")
        best: Dict[int, float] = {}
        for t in targets:
            ts = self._sectors[t]
            for s in self._sectors:
                if s.sector_id in targets:
                    continue
                d = ts.distance_to(s)
                if d <= radius_m:
                    best[s.sector_id] = min(best.get(s.sector_id, np.inf), d)
        ordered = sorted(best, key=best.__getitem__)
        if max_neighbors is not None:
            ordered = ordered[:max_neighbors]
        return ordered

    def interferer_count(self, sector_id: int,
                         radius_m: float = 10_000.0) -> int:
        """Sectors within ``radius_m`` — the paper's density metric.

        Section 6 reports average interferer counts of ~26 (rural),
        ~55 (suburban) and ~178 (urban); this is the statistic the
        synthetic market generator calibrates against.
        """
        return len(self.neighbors_of([sector_id], radius_m=radius_m))
