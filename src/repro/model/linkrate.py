"""SINR-to-rate mapping via 3GPP LTE link-adaptation tables.

The paper (Section 4.1) maps each grid's SINR to a Modulation and
Coding Scheme (MCS) index, then through the Transport Block Size (TBS)
index tables of 3GPP TS 36.213 to a downlink rate, with a minimum-SINR
cutoff below which the grid is out of service.

We encode:

* the CQI table of TS 36.213 Table 7.2.3-1 **exactly** (modulation
  order, code rate x 1024, spectral efficiency), and
* the widely used per-CQI SINR decision thresholds from LTE link-level
  curves (as used, e.g., by the LENA simulator the paper cites [5]).

The final TBS lookup (Tables 7.1.7.1-1 / 7.1.7.2.1-1) is approximated
by ``rate = efficiency x PRB resource elements / TTI``, since the full
27 x 110 TBS table cannot be reconstructed from the paper; the
approximation is within the TBS quantization error (documented in
DESIGN.md).  The mapping is monotone in SINR, which is the property the
search algorithm relies on.

SINR -> CQI is the innermost per-cell step of every evaluation, so it
is one binned table lookup rather than a binary search.  At import the
thresholds are bucketed into 1-dB bins ``[k, k+1)``; no bin may hold
two of them (the standard thresholds are at least 1.4 dB apart, and
the import fails naming the pair if an edit breaks that).  A cell's
CQI is then the number of thresholds in lower bins plus one if it
reaches its own bin's threshold — exactly the count of thresholds
``<= sinr``.  SINR values are clamped into the bin range first, so
+-inf land in the end bins and NaN in the lowest, which maps it to
CQI 0.  ``cqi_for_sinr``, ``max_rate_bps`` and ``spectral_efficiency``
all read this one bin table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = [
    "CqiEntry",
    "CQI_TABLE",
    "CQI_SINR_THRESHOLDS_DB",
    "LinkAdaptation",
    "PAPER_SINR_MIN_DB",
]


@dataclass(frozen=True)
class CqiEntry:
    """One row of TS 36.213 Table 7.2.3-1."""

    cqi: int
    modulation: str
    modulation_order: int          # bits per symbol
    code_rate_x1024: int
    efficiency: float              # bits per resource element


#: TS 36.213 Table 7.2.3-1 (4-bit CQI table), rows 1..15.  CQI 0 means
#: "out of range" and is handled by the SINR_min cutoff.
CQI_TABLE: Tuple[CqiEntry, ...] = (
    CqiEntry(1, "QPSK", 2, 78, 0.1523),
    CqiEntry(2, "QPSK", 2, 120, 0.2344),
    CqiEntry(3, "QPSK", 2, 193, 0.3770),
    CqiEntry(4, "QPSK", 2, 308, 0.6016),
    CqiEntry(5, "QPSK", 2, 449, 0.8770),
    CqiEntry(6, "QPSK", 2, 602, 1.1758),
    CqiEntry(7, "16QAM", 4, 378, 1.4766),
    CqiEntry(8, "16QAM", 4, 490, 1.9141),
    CqiEntry(9, "16QAM", 4, 616, 2.4063),
    CqiEntry(10, "64QAM", 6, 466, 2.7305),
    CqiEntry(11, "64QAM", 6, 567, 3.3223),
    CqiEntry(12, "64QAM", 6, 666, 3.9023),
    CqiEntry(13, "64QAM", 6, 772, 4.5234),
    CqiEntry(14, "64QAM", 6, 873, 5.1152),
    CqiEntry(15, "64QAM", 6, 948, 5.5547),
)

#: Minimum SINR (dB) at which each CQI (1..15) is decodable at 10% BLER;
#: standard values derived from LTE link-level simulation curves.
CQI_SINR_THRESHOLDS_DB: Tuple[float, ...] = (
    -6.7, -4.7, -2.3, 0.2, 2.4, 4.3, 5.9, 8.1,
    10.3, 11.7, 14.1, 16.3, 18.7, 21.0, 22.7,
)

#: The paper applies an SINR_min service threshold (Section 4.1).  The
#: default matches CQI 1 decodability.
PAPER_SINR_MIN_DB = -6.7


def _cqi_bins(thresholds) -> Tuple[int, np.ndarray, np.ndarray]:
    """Bucket ascending CQI thresholds into 1-dB bins ``[k, k+1)``.

    Returns ``(lo, base, cut)`` for the integer bins ``lo..hi`` that
    span the thresholds: ``base[k - lo]`` counts the thresholds in
    lower bins, and ``cut[k - lo]`` is the bin's own threshold, or
    ``+inf`` if it has none.  Raises if two thresholds share a bin,
    because the lookup compares against one cut per bin.
    """
    lo = math.floor(min(thresholds))
    n_bins = math.floor(max(thresholds)) - lo + 1
    cut = np.full(n_bins, np.inf)
    for t in thresholds:
        k = math.floor(t) - lo
        if cut[k] != np.inf:
            raise ValueError(
                f"CQI thresholds {cut[k]} and {t} dB share the 1-dB bin "
                f"[{k + lo}, {k + lo + 1}); the binned lookup needs at "
                f"most one threshold per bin")
        cut[k] = t
    base = np.asarray([sum(t < k + lo for t in thresholds)
                       for k in range(n_bins)], dtype=np.intp)
    return lo, base, cut


_BIN_LO, _BIN_BASE, _BIN_CUT = _cqi_bins(CQI_SINR_THRESHOLDS_DB)
_BIN_HI = _BIN_LO + len(_BIN_BASE) - 1
#: CQI by bin index ``2 * k + hit`` (see :func:`_bin_index`): the
#: count of lower-bin thresholds, plus one if the bin's own is reached.
_BIN_CQI = np.stack([_BIN_BASE, _BIN_BASE + 1], axis=1).ravel()


def _bin_index(sinr: np.ndarray, scratch: np.ndarray | None = None,
               index: np.ndarray | None = None,
               mask: np.ndarray | None = None) -> np.ndarray:
    """Each cell's bin index ``2 * k + hit`` for a float64 or float32
    SINR array: ``k`` its 1-dB bin, ``hit`` whether it reaches the
    bin's threshold.

    :data:`_BIN_CQI` maps the index to the CQI (the count of
    thresholds ``<= sinr``), so a table indexed the same way looks a
    rate up in one gather.  ``floor`` is exact and each bin holds at
    most one threshold, so the lookup equals a binary search over the
    thresholds bit for bit.  ``fmax``/``fmin`` clamp +-inf into the end
    bins and send NaN to the lowest bin, where it fails the cut (CQI
    0).  Clamping and flooring a float32 value are exact, and the
    threshold test compares it with the float64 cut (a mixed compare
    promotes to float64), so float32 input gives the index of the same
    values cast to float64.  ``scratch``, a float64 array of ``sinr``'s
    shape, takes the float passes instead of fresh temporaries;
    ``index`` (intp) and ``mask`` (bool), of the same shape, take the
    index and the threshold test.  The result is ``index`` when given.
    """
    f = np.fmax(sinr, _BIN_LO, out=scratch)
    f = np.floor(np.fmin(f, _BIN_HI, out=scratch), out=scratch)
    # Every value is integral and in range, so the cast is exact.
    index = np.subtract(f, _BIN_LO, out=index, dtype=np.intp,
                        casting="unsafe")
    hit = np.greater_equal(
        sinr, _BIN_CUT.take(index, out=scratch, mode="clip"), out=mask)
    index *= 2
    index += hit
    return index


#: LTE resource grid constants.
_SUBCARRIERS_PER_PRB = 12
_SYMBOLS_PER_SUBFRAME = 14
_CONTROL_SYMBOLS = 3           # PDCCH region: usable symbols = 14 - 3
_TTI_SECONDS = 1e-3
_PRB_PER_MHZ = 5               # 10 MHz -> 50 PRB, 20 MHz -> 100 PRB


class LinkAdaptation:
    """Maps SINR (dB) to CQI and downlink rate (bits/s) for one carrier.

    Parameters
    ----------
    bandwidth_mhz:
        Carrier bandwidth; the paper's testbed uses 10 MHz (50 PRBs).
    sinr_min_db:
        Out-of-service threshold; grids below it get rate 0 and count as
        coverage holes (paper: ``rmax(g) = 0``).
    """

    def __init__(self, bandwidth_mhz: float = 10.0,
                 sinr_min_db: float = PAPER_SINR_MIN_DB) -> None:
        if bandwidth_mhz <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_mhz = bandwidth_mhz
        self.sinr_min_db = sinr_min_db
        effs = np.asarray([e.efficiency for e in CQI_TABLE])
        #: Per-CQI tables indexed by CQI 0..15 (entry 0 is out of range).
        #: Each rate is ``efficiency * RE / TTI``, rounded exactly as
        #: :meth:`rate_for_cqi` rounds it.
        self._efficiencies = np.concatenate(([0.0], effs))
        self._rates = np.concatenate(
            ([0.0], effs * self.resource_elements_per_tti / _TTI_SECONDS))
        #: The same rates by bin index (:func:`_bin_index`).
        self._bin_rates = self._rates[_BIN_CQI]

    # ------------------------------------------------------------------
    @property
    def n_prb(self) -> int:
        """Physical resource blocks of the carrier."""
        return int(round(self.bandwidth_mhz * _PRB_PER_MHZ))

    @property
    def resource_elements_per_tti(self) -> int:
        """Data-usable resource elements per 1 ms subframe."""
        return (self.n_prb * _SUBCARRIERS_PER_PRB
                * (_SYMBOLS_PER_SUBFRAME - _CONTROL_SYMBOLS))

    @property
    def peak_rate_bps(self) -> float:
        """Rate at CQI 15 — the carrier's single-user ceiling."""
        return self.rate_for_cqi(15)

    # ------------------------------------------------------------------
    def cqi_for_sinr(self, sinr_db: np.ndarray | float) -> np.ndarray:
        """Highest decodable CQI (0 if below the CQI-1 threshold).

        Note CQI 0 is distinct from the service cutoff: a grid can have
        CQI >= 1 yet be out of service if ``sinr_min_db`` is set above
        the CQI-1 threshold (the paper deliberately chooses a high
        threshold for its Figure 4 illustration).  NaN maps to CQI 0.
        """
        return _BIN_CQI[_bin_index(np.asarray(sinr_db, dtype=float))]

    def rate_for_cqi(self, cqi: int) -> float:
        """Single-user rate (bits/s) sustained at CQI ``cqi``."""
        if not 0 <= cqi <= 15:
            raise ValueError(f"CQI must be in [0, 15], got {cqi}")
        if cqi == 0:
            return 0.0
        eff = CQI_TABLE[cqi - 1].efficiency
        return eff * self.resource_elements_per_tti / _TTI_SECONDS

    def max_rate_bps(self, sinr_db: np.ndarray | float,
                     out: np.ndarray | None = None, *,
                     scratch: Tuple[np.ndarray, np.ndarray] | None = None
                     ) -> np.ndarray:
        """Paper's ``rmax(g)``: single-user rate, 0 when out of service.

        ``out``, a float64 array of the input's shape that does not
        overlap it, receives the rates and serves the lookup's float
        passes as scratch.  ``scratch``, an ``(intp, bool)`` pair of
        arrays of the input's shape, takes the bin index and the
        threshold masks, so a call given both allocates no raster.
        float32 input (the packed backend's SINR) is read as it is,
        not copied to float64; every comparison still runs in float64,
        so the rates equal those of the input cast to float64.
        """
        sinr = np.asarray(sinr_db)
        if sinr.dtype != np.float32:
            sinr = sinr.astype(np.float64, copy=False)
        index, mask = scratch if scratch is not None else (None, None)
        index = _bin_index(sinr, scratch=out, index=index, mask=mask)
        # Out-of-service grids read index 0: the lowest bin, CQI 0.  A
        # cutoff at or under the CQI-1 threshold cuts nothing the
        # lookup has not already mapped to CQI 0, NaN included, so it
        # is skipped.  A float64 bound: under NEP 50 a Python float
        # against a float32 array would compare in float32.
        if not self.sinr_min_db <= CQI_SINR_THRESHOLDS_DB[0]:
            index *= np.greater_equal(sinr, np.float64(self.sinr_min_db),
                                      out=mask)
        # asarray: a scalar or 0-d input still gets a 0-d array back.
        return np.asarray(self._bin_rates.take(index, out=out, mode="clip"))

    def spectral_efficiency(self, sinr_db: np.ndarray | float) -> np.ndarray:
        """Bits per resource element at the decodable CQI (0 if none)."""
        return np.asarray(self._efficiencies[self.cqi_for_sinr(sinr_db)])

    # ------------------------------------------------------------------
    def describe(self) -> List[str]:
        """Human-readable rows of the encoded CQI table (for reports)."""
        rows = []
        for entry, thr in zip(CQI_TABLE, CQI_SINR_THRESHOLDS_DB):
            rows.append(
                f"CQI {entry.cqi:2d}  {entry.modulation:6s} "
                f"rate {entry.code_rate_x1024:4d}/1024  "
                f"eff {entry.efficiency:6.4f}  SINR >= {thr:5.1f} dB  "
                f"-> {self.rate_for_cqi(entry.cqi) / 1e6:6.2f} Mb/s")
        return rows
