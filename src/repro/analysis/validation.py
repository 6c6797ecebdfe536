"""Model validation against field measurements (paper Section 4.3).

"A more complete model validation is logistically difficult, since it
would require extensive measurements from UEs in known locations."
This module provides the tool the paper wished for: a synthetic *drive
test* samples UE locations, produces noisy "field" measurements from
the ground-truth physics, and scores the model's predictions against
them — coverage agreement, SINR error statistics and rank correlation.

With real drive-test data the same :class:`ValidationReport` applies
unchanged; only the measurement source differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..model.snapshot import NetworkState

__all__ = ["DriveTestSample", "ValidationReport", "drive_test",
           "validate_against"]


@dataclass(frozen=True)
class DriveTestSample:
    """One field measurement: position, serving cell, SINR, service."""

    x: float
    y: float
    measured_sinr_db: float
    measured_serving: int
    in_service: bool


@dataclass(frozen=True)
class ValidationReport:
    """Agreement between model predictions and measurements."""

    n_samples: int
    coverage_agreement: float       # fraction of matching service flags
    serving_agreement: float        # fraction of matching serving cells
    sinr_mae_db: float              # mean |predicted - measured| SINR
    sinr_bias_db: float             # mean (predicted - measured)
    sinr_rank_correlation: float    # Spearman rho over in-service points

    def describe(self) -> List[str]:
        return [
            f"samples: {self.n_samples}",
            f"coverage agreement: {self.coverage_agreement:.1%}",
            f"serving-cell agreement: {self.serving_agreement:.1%}",
            f"SINR MAE {self.sinr_mae_db:.2f} dB "
            f"(bias {self.sinr_bias_db:+.2f} dB)",
            f"SINR rank correlation: {self.sinr_rank_correlation:.3f}",
        ]


def drive_test(state: NetworkState, n_samples: int = 500,
               measurement_noise_db: float = 2.0,
               seed: int = 0) -> List[DriveTestSample]:
    """Sample synthetic field measurements from a snapshot.

    Locations are drawn uniformly over the raster; the "measured" SINR
    is the ground truth plus Gaussian measurement noise (UE reporting
    quantization, fast fading residue).  Serving cells are reported
    exactly — UEs know who they camp on.
    """
    if n_samples <= 0:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    grid = state.grid
    rows = rng.integers(0, grid.n_rows, size=n_samples)
    cols = rng.integers(0, grid.n_cols, size=n_samples)
    noise = rng.normal(0.0, measurement_noise_db, size=n_samples)
    samples = []
    for r, c, eps in zip(rows, cols, noise):
        x, y = grid.center_of(int(r), int(c))
        true_sinr = state.sinr_db[r, c]
        covered = bool(state.max_rate_bps[r, c] > 0)
        measured = float(true_sinr + eps) if np.isfinite(true_sinr) \
            else float("-inf")
        samples.append(DriveTestSample(
            x=x, y=y, measured_sinr_db=measured,
            measured_serving=int(state.serving[r, c]),
            in_service=covered))
    return samples


def validate_against(state: NetworkState,
                     samples: List[DriveTestSample]) -> ValidationReport:
    """Score a model snapshot against measurements.

    The snapshot may come from a *different* model configuration than
    the one the samples were taken under — that is the point: the
    report quantifies how far the model is from the field.
    """
    if not samples:
        raise ValueError("no samples to validate against")
    grid = state.grid
    coverage_hits = 0
    serving_hits = 0
    errors = []
    predicted_list = []
    measured_list = []
    for s in samples:
        r, c = grid.cell_of(s.x, s.y)
        predicted_covered = bool(state.max_rate_bps[r, c] > 0)
        if predicted_covered == s.in_service:
            coverage_hits += 1
        if int(state.serving[r, c]) == s.measured_serving:
            serving_hits += 1
        pred = state.sinr_db[r, c]
        if s.in_service and np.isfinite(pred) and \
                np.isfinite(s.measured_sinr_db):
            errors.append(pred - s.measured_sinr_db)
            predicted_list.append(pred)
            measured_list.append(s.measured_sinr_db)
    errors_arr = np.asarray(errors)
    if len(predicted_list) >= 2:
        # Imported here so that importing the package loads no scipy.
        from scipy import stats as scipy_stats
        rho = float(scipy_stats.spearmanr(predicted_list,
                                          measured_list).statistic)
    else:
        rho = 1.0
    return ValidationReport(
        n_samples=len(samples),
        coverage_agreement=coverage_hits / len(samples),
        serving_agreement=serving_hits / len(samples),
        sinr_mae_db=float(np.abs(errors_arr).mean()) if errors else 0.0,
        sinr_bias_db=float(errors_arr.mean()) if errors else 0.0,
        sinr_rank_correlation=rho)
