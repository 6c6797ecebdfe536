"""Directional antenna patterns with electrically tunable tilt.

Operational sectors are served by directional panel antennas whose
horizontal main lobe points along the sector azimuth and whose vertical
main lobe is steered by an electrical *tilt* (paper Section 5,
"Tilt: the antenna of the neighboring sector can be tilted vertically
upwards (uptilt) to shift the radio energy towards the target grids").

We implement the standard 3GPP parabolic patterns (TR 36.814 Table
A.2.1.1-2), which planning tools like Atoll also default to:

* horizontal: ``A_H(phi) = -min(12 (phi / phi_3dB)^2, A_m)``
* vertical:   ``A_V(theta) = -min(12 ((theta - theta_tilt)/theta_3dB)^2, SLA_v)``
* combined:   ``A(phi, theta) = -min(-(A_H + A_V), A_m)``

Angles are degrees; gains are dB relative to the boresight gain
``gain_dbi``.  Tilt follows the cellular convention: positive tilt is
*downtilt* (main lobe pushed toward the ground near the mast), so the
paper's "uptilt" is a *decrease* of the tilt value.

The Atoll data the paper uses ships "16 different tilt settings besides
the normal case"; :class:`TiltRange` models that discrete catalogue.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

__all__ = ["AntennaPattern", "TiltRange", "PAPER_TILT_SETTINGS"]

#: Number of non-default tilt settings in the paper's Atoll data.
PAPER_TILT_SETTINGS = 16


@dataclass(frozen=True)
class AntennaPattern:
    """A 3GPP-style sector antenna.

    Parameters
    ----------
    gain_dbi:
        Boresight gain (typical macro panel: 15 dBi).
    horiz_beamwidth:
        Horizontal 3 dB beamwidth ``phi_3dB`` in degrees (3GPP: 70).
    vert_beamwidth:
        Vertical 3 dB beamwidth ``theta_3dB`` in degrees (3GPP: 10).
    front_back_db:
        Maximum horizontal attenuation ``A_m`` (3GPP: 25 dB).
    sla_db:
        Vertical side-lobe attenuation floor ``SLA_v`` (3GPP: 20 dB).
    """

    gain_dbi: float = 15.0
    horiz_beamwidth: float = 70.0
    vert_beamwidth: float = 10.0
    front_back_db: float = 25.0
    sla_db: float = 20.0

    def __post_init__(self) -> None:
        if self.horiz_beamwidth <= 0 or self.vert_beamwidth <= 0:
            raise ValueError("beamwidths must be positive")
        if self.front_back_db < 0 or self.sla_db < 0:
            raise ValueError("attenuation limits must be non-negative")

    # ------------------------------------------------------------------
    def horizontal_attenuation(self, phi_deg: np.ndarray | float) -> np.ndarray:
        """``-A_H`` in dB (non-negative) at azimuth offset ``phi_deg``."""
        phi = _wrap180(np.asarray(phi_deg, dtype=float))
        return np.minimum(12.0 * (phi / self.horiz_beamwidth) ** 2,
                          self.front_back_db)

    def vertical_attenuation(self, theta_deg: np.ndarray | float,
                             tilt_deg: float = 0.0) -> np.ndarray:
        """``-A_V`` in dB at elevation ``theta_deg`` for a given downtilt.

        ``theta_deg`` is the depression angle from the antenna's
        horizontal plane toward the grid (positive = below horizon,
        which is the usual case for a mast-mounted antenna).
        """
        theta = np.asarray(theta_deg, dtype=float)
        return np.minimum(
            12.0 * ((theta - tilt_deg) / self.vert_beamwidth) ** 2,
            self.sla_db)

    def gain_db(self, phi_deg: np.ndarray | float,
                theta_deg: np.ndarray | float,
                tilt_deg: float = 0.0) -> np.ndarray:
        """Total gain (dBi) toward ``(phi, theta)`` under ``tilt_deg``.

        Combines the horizontal and vertical cuts with the 3GPP
        ``-min(-(A_H + A_V), A_m)`` rule and adds the boresight gain.
        """
        att = np.minimum(
            self.horizontal_attenuation(phi_deg)
            + self.vertical_attenuation(theta_deg, tilt_deg),
            self.front_back_db)
        return self.gain_dbi - att

    # ------------------------------------------------------------------
    def tilt_delta_db(self, theta_deg: np.ndarray | float,
                      tilt_from: float, tilt_to: float) -> np.ndarray:
        """Gain change (dB) when retilting from ``tilt_from`` to ``tilt_to``.

        This is the per-grid *change matrix* the paper's simplified tilt
        model uses ("the change to a path loss matrix caused by a
        specific uptilt or downtilt is the same across all sectors"):
        positive values mean the grid gains signal from the retilt.
        """
        return (self.vertical_attenuation(theta_deg, tilt_from)
                - self.vertical_attenuation(theta_deg, tilt_to))


def _wrap180(angle_deg: np.ndarray) -> np.ndarray:
    """Wrap angles to ``(-180, 180]`` degrees."""
    return (np.asarray(angle_deg, dtype=float) + 180.0) % 360.0 - 180.0


@dataclass(frozen=True)
class TiltRange:
    """The discrete catalogue of electrical tilt settings of a sector.

    The paper's Atoll feed carries "16 different tilt settings besides
    the normal case"; operationally these are evenly spaced electrical
    downtilts.  Index 0 is the *normal* (planned) tilt; indices step the
    tilt by ``step_deg`` within ``[min_deg, max_deg]``.
    """

    normal_deg: float = 6.0
    min_deg: float = 0.0
    max_deg: float = 8.0
    step_deg: float = 0.5

    def __post_init__(self) -> None:
        if not (self.min_deg <= self.normal_deg <= self.max_deg):
            raise ValueError("normal tilt must lie within [min, max]")
        if self.step_deg <= 0:
            raise ValueError("step_deg must be positive")

    @cached_property
    def settings(self) -> Tuple[float, ...]:
        """All available tilt values (degrees), ascending."""
        n = int(round((self.max_deg - self.min_deg) / self.step_deg)) + 1
        return tuple(self.min_deg + i * self.step_deg for i in range(n))

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    def clamp(self, tilt_deg: float) -> float:
        """Snap ``tilt_deg`` to the nearest available setting; at an
        exact midpoint the lower one (the first of equal distances).
        Only the two settings around ``tilt_deg`` are compared: the
        distances of the rest are no smaller."""
        settings = self.settings
        j = bisect_left(settings, tilt_deg)
        if j == 0:
            return settings[0]
        if j == len(settings):
            return settings[-1]
        lower, upper = settings[j - 1], settings[j]
        return lower if abs(lower - tilt_deg) <= abs(upper - tilt_deg) \
            else upper

    def uptilted(self, tilt_deg: float, steps: int = 1) -> float:
        """The setting ``steps`` uptilt steps from ``tilt_deg``.

        Uptilting decreases the downtilt value; the result saturates at
        ``min_deg`` (fully uptilted).
        """
        return self.clamp(max(self.min_deg, tilt_deg - steps * self.step_deg))

    def downtilted(self, tilt_deg: float, steps: int = 1) -> float:
        """The setting ``steps`` downtilt steps from ``tilt_deg``."""
        return self.clamp(min(self.max_deg, tilt_deg + steps * self.step_deg))

    def neighbors(self, tilt_deg: float) -> Sequence[float]:
        """The immediately adjacent settings (used by greedy tilt search)."""
        current = self.clamp(tilt_deg)
        out = []
        up = self.uptilted(current)
        down = self.downtilted(current)
        if up != current:
            out.append(up)
        if down != current:
            out.append(down)
        return out
