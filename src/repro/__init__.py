"""Reproduction of "Magus: Minimizing Cellular Service Disruption
during Network Upgrades" (Xu et al., CoNEXT 2015).

The package layers, bottom-up:

* :mod:`repro.model` — the data-driven cellular coverage & capacity
  model (path loss, antennas, SINR, LTE link adaptation, loads);
* :mod:`repro.synthetic` — reproducible stand-ins for the paper's
  operational data (terrain, site placement, UE density, tickets);
* :mod:`repro.core` — Magus itself: utilities, the evaluation
  component, search algorithms, gradual migration, comparators;
* :mod:`repro.handover` — UE migration accounting;
* :mod:`repro.testbed` — the Section-3 LTE testbed emulator;
* :mod:`repro.upgrades` — scenario selection and the end-to-end
  pipeline;
* :mod:`repro.analysis` — metrics, report formatting, map rendering;
* :mod:`repro.obs` — observability: metrics registry, tracing spans,
  structured logging and run reports (off by default).

Quickstart::

    from repro import build_area, AreaType, Magus, UpgradeScenario, select_targets

    area = build_area(AreaType.SUBURBAN, seed=7)
    targets = select_targets(area, UpgradeScenario.SINGLE_SECTOR)
    magus = Magus.from_area(area)
    plan = magus.plan_mitigation(targets, tuning="joint")
    print(f"recovered {plan.recovery:.0%} of the lost utility")
"""

from .core import (Evaluator, GradualResult, GradualSettings, Magus,
                   MitigationResult, PowerSearchSettings,
                   TiltSearchSettings, TuningResult, TUNING_STRATEGIES,
                   get_utility, recovery_ratio)
from .obs import (MetricsRegistry, RunReport, get_registry, set_registry,
                  setup_logging, use_registry)
from .model import (AnalysisEngine, AntennaPattern, CellularNetwork,
                    Configuration, Environment, GridSpec, LinkAdaptation,
                    NetworkState, PathLossDatabase, Region, Sector)
from .synthetic import (AreaType, Market, StudyArea, UpgradeCalendarGenerator,
                        build_area, build_market)
from .upgrades import (UpgradeOutcome, UpgradePlanner, UpgradeScenario,
                       select_targets)

__version__ = "1.0.0"

__all__ = [
    "Evaluator", "GradualResult", "GradualSettings", "Magus",
    "MitigationResult", "PowerSearchSettings", "TiltSearchSettings",
    "TuningResult", "TUNING_STRATEGIES", "get_utility", "recovery_ratio",
    "AnalysisEngine", "AntennaPattern", "CellularNetwork", "Configuration",
    "Environment", "GridSpec", "LinkAdaptation", "NetworkState",
    "PathLossDatabase", "Region", "Sector",
    "AreaType", "Market", "StudyArea", "UpgradeCalendarGenerator",
    "build_area", "build_market",
    "UpgradeOutcome", "UpgradePlanner", "UpgradeScenario", "select_targets",
    "MetricsRegistry", "RunReport", "get_registry", "set_registry",
    "setup_logging", "use_registry",
    "__version__",
]
