"""Perf smoke for the binned SINR -> CQI -> rate lookup.

``LinkAdaptation.max_rate_bps`` is the innermost per-cell step of every
evaluation.  It maps SINR to CQI with one binned table lookup; this
harness holds it to the ``searchsorted`` binary search it replaced:

* ``test_lookup_parity`` — bitwise parity gate: every CQI threshold and
  1-dB bin edge with its +-1..64-ulp neighbours, +-inf, and a seeded
  ``(16, 64, 64)`` SINR stack, for ``max_rate_bps``, ``cqi_for_sinr``
  and ``spectral_efficiency``.
* ``test_lookup_speedup`` — on that stack, ``max_rate_bps`` must be at
  least 2x faster than the reference (best of interleaved rounds).

Run with ``PYTHONPATH=src python -m pytest -q --benchmark-disable
benchmarks/bench_linkrate.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.model.linkrate import (CQI_SINR_THRESHOLDS_DB, CQI_TABLE,
                                  LinkAdaptation)

from conftest import report

_THRESHOLDS = np.asarray(CQI_SINR_THRESHOLDS_DB)
_EFFS = np.asarray([e.efficiency for e in CQI_TABLE])
_SPEEDUP_BAR = 2.0
_ROUNDS = 30


def _reference_cqi(sinr_db):
    sinr = np.asarray(sinr_db, dtype=float)
    return np.searchsorted(_THRESHOLDS, sinr, side="right")


def _reference_rate(link, sinr_db):
    sinr = np.asarray(sinr_db, dtype=float)
    cqi = _reference_cqi(sinr)
    eff = np.where(cqi > 0, _EFFS[np.maximum(cqi - 1, 0)], 0.0)
    rate = eff * link.resource_elements_per_tti / 1e-3
    return np.where(sinr >= link.sinr_min_db, rate, 0.0)


def _reference_efficiency(sinr_db):
    cqi = _reference_cqi(np.asarray(sinr_db, dtype=float))
    return np.where(cqi > 0, _EFFS[np.maximum(cqi - 1, 0)], 0.0)


def _straddle_set(ulps: int = 64) -> np.ndarray:
    """Thresholds and bin edges with their +-1..``ulps``-ulp
    neighbours, plus +-inf."""
    out = [np.inf, -np.inf]
    for p in list(CQI_SINR_THRESHOLDS_DB) + list(range(-8, 25)):
        up = down = np.float64(p)
        out.append(up)
        for _ in range(ulps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return np.asarray(out)


def _sinr_stack() -> np.ndarray:
    """A seeded ``(16, 64, 64)`` SINR stack spanning every CQI."""
    return np.random.default_rng(18).normal(8.0, 12.0, size=(16, 64, 64))


def test_lookup_parity():
    link = LinkAdaptation()
    for sinr in (_straddle_set(), _sinr_stack()):
        for got, want in (
                (link.max_rate_bps(sinr), _reference_rate(link, sinr)),
                (link.cqi_for_sinr(sinr), _reference_cqi(sinr)),
                (link.spectral_efficiency(sinr),
                 _reference_efficiency(sinr))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_lookup_speedup():
    link = LinkAdaptation()
    sinr = _sinr_stack()
    best = {"binned": float("inf"), "searchsorted": float("inf")}
    for _ in range(_ROUNDS):
        for name, fn in (("binned", link.max_rate_bps),
                         ("searchsorted",
                          lambda s: _reference_rate(link, s))):
            t0 = time.perf_counter()
            fn(sinr)
            best[name] = min(best[name], time.perf_counter() - t0)
    speedup = best["searchsorted"] / best["binned"]
    report(f"max_rate_bps on {sinr.size} cells: binned "
           f"{best['binned'] * 1e6:.0f} us, searchsorted "
           f"{best['searchsorted'] * 1e6:.0f} us ({speedup:.1f}x)")
    assert speedup >= _SPEEDUP_BAR, (
        f"binned lookup only {speedup:.2f}x the searchsorted reference "
        f"(bar {_SPEEDUP_BAR}x)")
