"""Unit tests for the utility functions (Formulae 5 and 6)."""

import numpy as np
import pytest

from repro.core.utility import (CoverageUtility, PerformanceUtility,
                                SumRateUtility, available_utilities,
                                get_utility)


class TestPerformanceUtility:
    def test_log_of_positive_rates(self):
        u = PerformanceUtility()
        rates = np.asarray([1e6, 1e7])
        assert np.allclose(u.per_ue(rates), np.log(rates))

    def test_zero_rate_contributes_zero(self):
        u = PerformanceUtility()
        assert u.per_ue(np.asarray([0.0]))[0] == 0.0

    def test_fairness_incentive(self):
        """The log favors raising a poor UE over a rich one by the same
        factor gap the paper cites for proportional fairness."""
        u = PerformanceUtility()
        poor_gain = u.per_ue(np.asarray([2e5]))[0] - \
            u.per_ue(np.asarray([1e5]))[0]
        rich_gain = u.per_ue(np.asarray([2e7 + 1e5]))[0] - \
            u.per_ue(np.asarray([2e7]))[0]
        assert poor_gain > rich_gain * 10

    def test_evaluate_weights_by_density(self, toy_engine, toy_network,
                                         toy_density):
        state = toy_engine.evaluate(toy_network.planned_configuration(),
                                    toy_density)
        u = PerformanceUtility()
        manual = (u.per_ue(state.rate_bps) * state.ue_density).sum()
        assert u.evaluate(state) == pytest.approx(manual)


class TestCoverageUtility:
    def test_binary_values(self):
        u = CoverageUtility()
        vals = u.per_ue(np.asarray([0.0, 1.0, 1e9]))
        assert list(vals) == [0.0, 1.0, 1.0]

    def test_counts_covered_ues(self, toy_engine, toy_network, toy_density):
        state = toy_engine.evaluate(toy_network.planned_configuration(),
                                    toy_density)
        assert CoverageUtility().evaluate(state) == pytest.approx(
            state.covered_ue_count())


class TestSumRate:
    def test_identity(self):
        u = SumRateUtility()
        rates = np.asarray([0.0, 5.0, 7.5])
        assert np.array_equal(u.per_ue(rates), rates)

    def test_no_fairness(self):
        """Sum-rate is indifferent to who gets the bits — the property
        the paper argues against."""
        u = SumRateUtility()
        balanced = u.per_ue(np.asarray([5e6, 5e6])).sum()
        skewed = u.per_ue(np.asarray([1e6, 9e6])).sum()
        assert balanced == skewed


class TestRegistry:
    def test_names(self):
        assert available_utilities() == ["coverage", "performance",
                                         "sum-rate"]

    def test_lookup(self):
        assert isinstance(get_utility("performance"), PerformanceUtility)
        assert isinstance(get_utility("coverage"), CoverageUtility)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown utility"):
            get_utility("throughput")


class TestNonFiniteRateGuards:
    """Dead sectors report zero/NaN/inf rates; utilities must stay
    finite (garbage rates mean "UE not served", never a NaN total)."""

    BAD = np.asarray([0.0, -1.0, np.nan, np.inf, -np.inf])

    def test_performance_treats_garbage_as_unserved(self):
        values = PerformanceUtility().per_ue(self.BAD)
        assert np.array_equal(values, np.zeros(5))

    def test_coverage_treats_garbage_as_uncovered(self):
        values = CoverageUtility().per_ue(self.BAD)
        assert np.array_equal(values, np.zeros(5))

    def test_sum_rate_ignores_garbage(self):
        values = SumRateUtility().per_ue(self.BAD)
        assert np.array_equal(values, np.zeros(5))

    def test_served_ues_unaffected(self):
        rates = np.asarray([np.nan, 2.0, 0.0, np.e])
        values = PerformanceUtility().per_ue(rates)
        assert values[1] == pytest.approx(np.log(2.0))
        assert values[3] == pytest.approx(1.0)

    def test_no_floating_point_warnings(self):
        with np.errstate(all="raise"):
            PerformanceUtility().per_ue(np.asarray([0.0, 1e5, 0.0]))


def _old_per_ue(rate_bps):
    """The masked-``where`` formula ``per_ue`` replaced, kept as the
    bitwise reference."""
    rate = np.asarray(rate_bps, dtype=float)
    served = np.isfinite(rate) & (rate > 0.0)
    return np.where(served, np.log(np.where(served, rate, 1.0)), 0.0)


class TestPerUeKernel:
    @staticmethod
    def _rates(rng, shape):
        rates = rng.lognormal(14.0, 3.0, shape)
        rates[rng.random(shape) < 0.1] = 0.0
        rates[rng.random(shape) < 0.05] *= -1.0
        rates[rng.random(shape) < 0.05] = np.nan
        rates[rng.random(shape) < 0.05] = np.inf
        rates[rng.random(shape) < 0.05] = -np.inf
        rates[rng.random(shape) < 0.05] = 5e-324     # subnormal
        return rates

    @pytest.mark.parametrize("shape", [(0,), (1,), (997,), (31, 17), ()])
    def test_bitwise_equal_to_old_formula(self, shape):
        rates = self._rates(np.random.default_rng(len(shape)), shape)
        with np.errstate(all="raise"):
            got = PerformanceUtility().per_ue(rates)
        want = _old_per_ue(rates)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bitwise_on_strided_views(self):
        rates = self._rates(np.random.default_rng(9), (203, 51))
        for view in (rates.T, rates[::3], rates[1::2, 3::5].T):
            got = PerformanceUtility().per_ue(view)
            want = _old_per_ue(view)
            assert np.array_equal(got.view(np.uint64),
                                  want.view(np.uint64))

    def test_one_mask_and_the_result(self):
        """A warm call allocates the float64 result and one bool mask
        (and its inverse): 10 B per element, against 17 B for the old
        formula."""
        import tracemalloc
        rates = self._rates(np.random.default_rng(6), (100_000,))
        utility = PerformanceUtility()
        utility.per_ue(rates)
        tracemalloc.start()
        try:
            utility.per_ue(rates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / rates.size <= 10.5
