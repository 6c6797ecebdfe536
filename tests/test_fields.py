"""Unit tests for the correlated random fields and the Gaussian filter."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.model.fields import (correlated_gaussian_field,
                                correlated_gaussian_fields, gaussian_filter,
                                power_law_field)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


class TestGaussianFilter:
    """The numpy filter against ``scipy.ndimage``, bit for bit.  scipy
    is the reference only: the package itself never imports it for
    smoothing."""

    SHAPES = [(1, 1), (1, 9), (3, 7), (40, 40), (64, 64), (170, 170),
              (23, 57)]
    #: sigma 30 reaches 120 cells, past every side but 170's: the
    #: reflection repeats.
    SIGMAS = [1e-16, 1e-15, 0.3, 1.0, 1.5, 2.0, 3.0, 7.5, 30.0]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_bitwise_equal_to_scipy(self, shape, sigma):
        pytest.importorskip("scipy")
        from scipy import ndimage
        values = np.random.default_rng(sum(shape)).standard_normal(shape)
        want = ndimage.gaussian_filter(values, sigma, mode="reflect")
        assert _same_bits(gaussian_filter(values, sigma), want)

    def test_negligible_sigma_is_a_copy(self):
        values = np.random.default_rng(1).standard_normal((5, 6))
        out = gaussian_filter(values, 1e-15)
        assert _same_bits(out, values)
        assert not np.shares_memory(out, values)

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 3.0, 30.0])
    def test_stack_equals_each_slice_alone(self, sigma):
        stack = np.random.default_rng(2).standard_normal((4, 19, 33))
        out = gaussian_filter(stack, sigma)
        for k, values in enumerate(stack):
            assert _same_bits(out[k], gaussian_filter(values, sigma))
        nested = gaussian_filter(stack.reshape(2, 2, 19, 33), sigma)
        assert _same_bits(nested.reshape(stack.shape), out)

    def test_input_left_untouched(self):
        values = np.random.default_rng(3).standard_normal((16, 16))
        before = values.copy()
        gaussian_filter(values, 2.0)
        assert _same_bits(values, before)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError):
            gaussian_filter(np.ones(8), 1.0)

    def test_planning_path_loads_no_scipy(self):
        """Importing the CLI and building a small area loads no scipy
        module: smoothing is numpy's, and the Spearman rho of
        ``validate_against`` imports scipy only when it runs."""
        probe = textwrap.dedent("""
            import sys
            import repro.cli
            from repro.synthetic.market import AreaDimensions, build_area
            from repro.synthetic.placement import AreaType
            build_area(AreaType.SUBURBAN, seed=42, dims=AreaDimensions(
                tuning_side_m=1_600.0, margin_m=800.0, cell_size_m=200.0))
            print(sorted(m for m in sys.modules
                         if m.split(".")[0] == "scipy"))
            """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestCorrelatedGaussian:
    def test_target_sigma(self):
        rng = np.random.default_rng(0)
        field = correlated_gaussian_field((64, 64), 3.0, 6.0, rng)
        assert field.std() == pytest.approx(6.0)

    def test_zero_sigma_is_exact_zeros(self):
        rng = np.random.default_rng(0)
        field = correlated_gaussian_field((16, 16), 3.0, 0.0, rng)
        assert np.all(field == 0.0)

    def test_negative_sigma_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            correlated_gaussian_field((8, 8), 1.0, -1.0, rng)

    def test_correlation_increases_smoothness(self):
        """Larger correlation length -> smaller lag-1 differences."""
        rough = correlated_gaussian_field((96, 96), 0.0, 1.0,
                                          np.random.default_rng(1))
        smooth = correlated_gaussian_field((96, 96), 6.0, 1.0,
                                           np.random.default_rng(1))
        rough_diff = np.abs(np.diff(rough, axis=0)).mean()
        smooth_diff = np.abs(np.diff(smooth, axis=0)).mean()
        assert smooth_diff < rough_diff / 2.0

    def test_deterministic_under_seed(self):
        a = correlated_gaussian_field((32, 32), 2.0, 4.0,
                                      np.random.default_rng(7))
        b = correlated_gaussian_field((32, 32), 2.0, 4.0,
                                      np.random.default_rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape, correlation",
                             [((33, 40), 3.0), ((12, 12), 0.0), ((1, 1), 2.0)])
    def test_stacked_draws_equal_single_draws(self, shape, correlation):
        """Each field of a stack is bitwise the field its generator
        gives alone: white noise, smoothed, rescaled to sigma."""
        seeds = [11, 12, 13]
        stack = correlated_gaussian_fields(
            shape, correlation, 6.0,
            [np.random.default_rng(seed) for seed in seeds])
        assert stack.shape == (3,) + shape
        for field, seed in zip(stack, seeds):
            noise = np.random.default_rng(seed).standard_normal(shape)
            if correlation > 0:
                noise = gaussian_filter(noise, correlation)
            std = noise.std()
            want = np.zeros(shape) if std == 0 else noise * (6.0 / std)
            assert _same_bits(field, want)
            assert _same_bits(field, correlated_gaussian_field(
                shape, correlation, 6.0, np.random.default_rng(seed)))


class TestPowerLaw:
    def test_normalization(self):
        field = power_law_field((64, 64), 3.2, np.random.default_rng(2))
        assert field.mean() == pytest.approx(0.0, abs=1e-9)
        assert field.std() == pytest.approx(1.0)

    def test_higher_beta_is_smoother(self):
        shallow = power_law_field((96, 96), 1.0, np.random.default_rng(3))
        steep = power_law_field((96, 96), 4.0, np.random.default_rng(3))
        assert (np.abs(np.diff(steep, axis=1)).mean()
                < np.abs(np.diff(shallow, axis=1)).mean())

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            power_law_field((0, 10), 3.0, np.random.default_rng(0))

    def test_real_valued(self):
        field = power_law_field((33, 47), 2.5, np.random.default_rng(4))
        assert np.isrealobj(field)
        assert field.shape == (33, 47)
