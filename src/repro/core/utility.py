"""Utility functions over network states (paper Sections 3 and 5).

A configuration's goodness is ``f(U(C))`` where ``U(C)`` collects a
per-UE utility ``u(r)`` of each UE's downlink rate.  The paper requires
``f`` to be additive and uses two instances:

* **performance** — ``u(r) = log(r)`` for ``r > 0`` else 0 (Formula 6),
  the proportional-fair log-sum-rate of Kelly [22] that the testbed
  experiments also use;
* **coverage** — ``u(r) = 1`` if ``r > 0`` else 0 (Formula 5), i.e. the
  number of UEs receiving qualified service.

Since the model keeps UEs at grid granularity, the sum over UEs is the
UE-density-weighted sum over grids.  A plain sum-rate utility is also
provided because the paper argues *against* it (no fairness incentive);
the ablation bench shows the difference.
"""

from __future__ import annotations

import abc
from typing import Dict, Type

import numpy as np

from ..model.snapshot import NetworkState

__all__ = ["UtilityFunction", "PerformanceUtility", "CoverageUtility",
           "SumRateUtility", "get_utility", "available_utilities"]


class UtilityFunction(abc.ABC):
    """Additive utility ``f(C) = sum_ue u(rate_ue)``."""

    #: Registry key, e.g. ``"performance"``.
    name: str = ""

    @abc.abstractmethod
    def per_ue(self, rate_bps: np.ndarray) -> np.ndarray:
        """``u(r)`` applied elementwise to a rate array."""

    def evaluate(self, state: NetworkState) -> float:
        """``f(U(C))``: density-weighted sum of per-UE utilities."""
        values = self.per_ue(state.rate_bps)
        return float((values * state.ue_density).sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class PerformanceUtility(UtilityFunction):
    """Log-sum-rate (Formula 6): proportional-fair performance.

    "Compared to a simple sum of rates, the log property provides a
    higher incentive to improve low rates of users experiencing poor
    radio conditions due to outage."  Natural log of the rate in bits/s;
    zero-rate UEs contribute 0 as in the paper.
    """

    name = "performance"

    def per_ue(self, rate_bps: np.ndarray) -> np.ndarray:
        # Zero, negative and non-finite rates (a dead sector under
        # fault injection yields 0; corrupt feeds can yield NaN/inf)
        # all contribute 0 — no -inf, no numpy warning.  The log is
        # finite exactly where the rate is positive and finite.
        rate = np.asarray(rate_bps, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.log(rate, out=np.empty(rate.shape))
        np.copyto(values, 0.0, where=~np.isfinite(values))
        return values


class CoverageUtility(UtilityFunction):
    """Qualified-service count (Formula 5): 1 per covered UE."""

    name = "coverage"

    def per_ue(self, rate_bps: np.ndarray) -> np.ndarray:
        rate = np.asarray(rate_bps, dtype=float)
        return (np.isfinite(rate) & (rate > 0.0)).astype(float)


class SumRateUtility(UtilityFunction):
    """Plain aggregate throughput — the foil the paper argues against."""

    name = "sum-rate"

    def per_ue(self, rate_bps: np.ndarray) -> np.ndarray:
        rate = np.asarray(rate_bps, dtype=float)
        return np.where(np.isfinite(rate) & (rate > 0.0), rate, 0.0)


_REGISTRY: Dict[str, Type[UtilityFunction]] = {
    cls.name: cls
    for cls in (PerformanceUtility, CoverageUtility, SumRateUtility)
}


def get_utility(name: str) -> UtilityFunction:
    """Instantiate a registered utility by name.

    >>> get_utility("performance").name
    'performance'
    """
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(
            f"unknown utility {name!r}; "
            f"available: {sorted(_REGISTRY)}") from None


def available_utilities() -> list:
    """Names of all registered utility functions."""
    return sorted(_REGISTRY)
