"""Unit tests for plan value types and the recovery ratio (Formula 7)."""

import pytest

from repro.core.plan import (ConfigChange, MitigationResult, Parameter,
                             SearchStep, TuningResult, recovery_ratio)
from repro.model.network import CellularNetwork

from conftest import make_sectors


class TestRecoveryRatio:
    def test_full_recovery(self):
        assert recovery_ratio(10.0, 4.0, 10.0) == 1.0

    def test_no_recovery(self):
        assert recovery_ratio(10.0, 4.0, 4.0) == 0.0

    def test_paper_example_scenario1(self):
        """Testbed scenario 1: (3.09-2.68)/(3.31-2.68) ~ 65%."""
        assert recovery_ratio(3.31, 2.68, 3.09) == pytest.approx(
            0.6508, abs=1e-3)

    def test_negative_cross_recovery(self):
        """Table 2 records -29.3%: scoring a coverage-optimized plan
        under the performance utility can go below no-tuning."""
        assert recovery_ratio(10.0, 8.0, 7.4) == pytest.approx(-0.3)

    def test_no_degradation_counts_as_full(self):
        assert recovery_ratio(5.0, 5.0, 5.0) == 1.0
        assert recovery_ratio(5.0, 6.0, 6.0) == 1.0


class TestConfigChange:
    def test_delta_and_describe(self):
        ch = ConfigChange(3, Parameter.POWER, 43.0, 45.0)
        assert ch.delta == 2.0
        assert "sector 3" in ch.describe()
        assert "dBm" in ch.describe()
        tilt = ConfigChange(1, Parameter.TILT, 6.0, 5.5)
        assert "deg" in tilt.describe()


class TestTuningResult:
    def _result(self):
        net = CellularNetwork(make_sectors([(0.0, 0.0), (500.0, 0.0)]))
        c0 = net.planned_configuration()
        c1 = c0.with_power(1, 44.0)
        steps = [SearchStep(ConfigChange(1, Parameter.POWER, 43.0, 44.0),
                            utility=12.0)]
        return TuningResult(initial_config=c0, final_config=c1,
                            initial_utility=10.0, final_utility=12.0,
                            steps=steps)

    def test_aggregates(self):
        r = self._result()
        assert r.n_steps == 1
        assert r.utility_gain == 2.0
        assert r.utility_trace() == [10.0, 12.0]
        assert len(r.changes()) == 1


class TestMitigationResult:
    def _mitigation(self):
        net = CellularNetwork(make_sectors([(0.0, 0.0), (500.0, 0.0)]))
        c0 = net.planned_configuration()
        c_up = c0.with_offline([0])
        c_after = c_up.with_power(1, 45.0)
        tuning = TuningResult(initial_config=c_up, final_config=c_after,
                              initial_utility=4.0, final_utility=8.0,
                              steps=[])
        return MitigationResult(target_sectors=(0,), c_before=c0,
                                c_upgrade=c_up, c_after=c_after,
                                f_before=10.0, f_upgrade=4.0, f_after=8.0,
                                tuning=tuning, evaluations=7)

    def test_recovery_property(self):
        m = self._mitigation()
        assert m.recovery == pytest.approx(4.0 / 6.0)

    def test_cross_recovery(self):
        m = self._mitigation()
        assert m.cross_recovery(20.0, 10.0, 15.0) == pytest.approx(0.5)

    def test_describe_contains_key_facts(self):
        text = "\n".join(self._mitigation().describe())
        assert "recovery ratio" in text
        assert "f(C_before)" in text
        assert "7 evaluations" in text
