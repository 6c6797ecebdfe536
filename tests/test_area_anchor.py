"""A study area's ``C_before`` anchor, adopted by every Magus built on it.

:func:`build_area` keeps the delta anchor of its last dense evaluation,
``C_before`` over the area's UE raster, and :meth:`Magus.from_area`
hands it to the evaluator, so a ticket starts from a finished anchor.
A plan made that way must equal, bit for bit, the plan of a Magus that
never saw the anchor; the evaluator must refuse an anchor it cannot
trust; and no ticket may write into the shared anchor.
"""

from __future__ import annotations

import pytest

from conftest import SMALL_DIMS
from repro.core.magus import Magus
from repro.core.planning import PlanningSettings
from repro.model.engine import AnalysisEngine
from repro.obs import MetricsRegistry, use_registry
from repro.synthetic.market import build_area, pack_area_database
from repro.synthetic.placement import AreaType
from repro.upgrades.scenario import UpgradeScenario, select_targets

_RASTERS = ("serving", "rp_best_dbm", "interference_dbm", "sinr_db",
            "max_rate_bps", "n_ue", "rate_bps", "raw_serving")


def _area(tmp_path_factory, backend: str):
    """A suburban area on the dict backend, or loaded from a file
    packed at -115 dB (where ROI windows are small)."""
    path = None
    if backend == "packed":
        path = str(tmp_path_factory.mktemp("anchor") / "area.plossdb")
        pack_area_database(path, AreaType.SUBURBAN, seed=42, dims=SMALL_DIMS,
                           clip_floor_db=-115.0)
    return build_area(AreaType.SUBURBAN, seed=42, dims=SMALL_DIMS,
                      planning=PlanningSettings(max_passes=1), plossdb=path)


@pytest.fixture(scope="module", params=["dict", "packed"])
def area(request, tmp_path_factory):
    return _area(tmp_path_factory, request.param)


def _without_anchor(area, **kwargs) -> Magus:
    """A Magus on ``area`` that never saw its anchor."""
    return Magus(area.network, area.engine, area.ue_density,
                 default_config=area.c_before, **kwargs)


def _settings(config):
    return [(float(s.power_dbm).hex(), float(s.tilt_deg).hex(), s.active,
             float(s.azimuth_offset_deg).hex()) for s in config.settings]


def _ticket(magus: Magus, targets, registry: MetricsRegistry):
    """Everything a ticket reports, floats as hex, and the dense
    evaluations it ran."""
    with use_registry(registry):
        plan = magus.plan_mitigation(targets, tuning="joint")
        schedule = magus.gradual_schedule(plan)
    steps = [(s.change.sector_id, str(s.change.parameter),
              float(s.change.old_value).hex(),
              float(s.change.new_value).hex(), s.utility.hex())
             for s in plan.tuning.steps]
    digest = (_settings(plan.c_after), plan.f_before.hex(),
              plan.f_upgrade.hex(), plan.f_after.hex(), plan.evaluations,
              steps, plan.tuning.termination,
              [_settings(c) for c in schedule.configs],
              [u.hex() for u in schedule.utilities],
              schedule.compensation_steps, schedule.jumped,
              schedule.evaluations)
    fallbacks = registry.snapshot().get(
        "magus.engine.delta_fallbacks", {"value": 0})["value"]
    return digest, fallbacks


class TestAdoptedAnchorParity:
    @pytest.mark.parametrize("scenario", [UpgradeScenario.SINGLE_SECTOR,
                                          UpgradeScenario.FULL_SITE])
    def test_plan_equals_plan_without_anchor(self, area, scenario):
        targets = select_targets(area, scenario)
        adopted, adopted_dense = _ticket(Magus.from_area(area), targets,
                                         MetricsRegistry())
        plain, plain_dense = _ticket(_without_anchor(area), targets,
                                     MetricsRegistry())
        assert adopted == plain
        assert (adopted_dense, plain_dense) == (0, 1)

    def test_state_of_c_before_is_the_area_baseline(self, area):
        magus = Magus.from_area(area)
        assert magus.evaluator.state_of(area.c_before) is area.baseline
        assert magus.evaluator.model_evaluations == 1

    def test_anchor_is_read_only_and_survives_tickets(self, area):
        anchor = area.anchor
        rasters = [getattr(area.baseline, name) for name in _RASTERS]
        rasters.append(anchor.best_mw)
        assert not any(r.flags.writeable for r in rasters)
        before = [r.tobytes() for r in rasters]
        for scenario in (UpgradeScenario.SINGLE_SECTOR,
                         UpgradeScenario.FULL_SITE):
            _ticket(Magus.from_area(area), select_targets(area, scenario),
                    MetricsRegistry())
        assert [r.tobytes() for r in rasters] == before
        assert area.anchor is anchor and area.baseline is anchor.state


class TestAdoptionRefused:
    """Each refusal leaves a cold ring: the plan runs exactly one dense
    evaluation, as a Magus without the anchor does."""

    @pytest.fixture
    def fresh_area(self, tmp_path_factory):
        return _area(tmp_path_factory, "dict")

    def _one_dense(self, magus: Magus, area) -> None:
        assert magus.evaluator._incumbents == []
        targets = select_targets(area, UpgradeScenario.SINGLE_SECTOR)
        assert _ticket(magus, targets, MetricsRegistry())[1] == 1

    def test_stale_cache_epoch(self, fresh_area):
        fresh_area.pathloss.invalidate_caches()
        magus = Magus.from_area(fresh_area)
        assert not magus.evaluator.adopt(fresh_area.anchor)
        self._one_dense(magus, fresh_area)

    def test_foreign_ue_raster(self, fresh_area):
        magus = Magus(fresh_area.network, fresh_area.engine,
                      fresh_area.ue_density.copy(),
                      default_config=fresh_area.c_before)
        assert not magus.evaluator.adopt(fresh_area.anchor)
        self._one_dense(magus, fresh_area)

    def test_full_strategy(self, fresh_area):
        magus = Magus.from_area(fresh_area, evaluation_strategy="full")
        assert not magus.evaluator.adopt(fresh_area.anchor)
        assert magus.evaluator._incumbents == []


@pytest.mark.slow
def test_mitigate_evaluates_c_before_densely_once(capsys, monkeypatch):
    """``repro mitigate`` on a freshly built area: the build's dense
    evaluation of ``C_before`` over the area's UE raster is the only one."""
    from repro.cli import main
    from repro.synthetic import market
    monkeypatch.setattr(market.AreaDimensions, "for_area",
                        classmethod(lambda cls, area: SMALL_DIMS))
    dense, areas = [], []
    evaluate_dense = AnalysisEngine._evaluate_dense
    build = market.build_area

    def recording_dense(engine, config, ue_density):
        dense.append((config, ue_density))
        return evaluate_dense(engine, config, ue_density)

    def recording_build(*args, **kwargs):
        areas.append(build(*args, **kwargs))
        return areas[-1]

    monkeypatch.setattr(AnalysisEngine, "_evaluate_dense", recording_dense)
    monkeypatch.setattr("repro.cli.build_area", recording_build)
    assert main(["mitigate", "--tuning", "power", "--seed", "1"]) == 0
    assert "recovery ratio" in capsys.readouterr().out
    (area,) = areas
    assert sum(config == area.c_before and density is area.ue_density
               for config, density in dense) == 1
