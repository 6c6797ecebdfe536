"""Correlated random fields used for shadowing and synthetic terrain.

Radio shadowing is log-normal with an exponential spatial
autocorrelation (Gudmundson's model); terrain is well approximated by
spectral synthesis (power-law spectra).  Both reduce to "white noise
smoothed with a kernel and renormalized", implemented here once so the
path-loss database and the synthetic-data generators agree on the
statistics.

:func:`gaussian_filter` is the smoothing kernel: a numpy twin of
``scipy.ndimage.gaussian_filter(x, sigma, mode="reflect")`` that gives
the same bits, so planning never imports scipy.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["correlated_gaussian_field", "correlated_gaussian_fields",
           "gaussian_filter", "power_law_field"]


def _reflected(n: int, radius: int) -> np.ndarray:
    """Indices ``-radius .. n + radius - 1`` folded into ``0 .. n - 1``
    by half-sample reflection (``d c b a | a b c d | d c b a``), which
    repeats while the radius is longer than the side."""
    i = np.arange(-radius, n + radius) % (2 * n)
    return np.where(i < n, i, 2 * n - 1 - i)


def _correlate(values: np.ndarray, weights: np.ndarray,
               axis: int) -> np.ndarray:
    """Correlate ``values`` along ``axis`` (``-2`` or ``-1``) with the
    symmetric kernel whose centre and right half are ``weights``.

    Per element the arithmetic is scipy's symmetric ``correlate1d``:
    ``centre * w[0]``, then ``(left + right) * w[j]`` added one pair at
    a time from the farthest pair in.
    """
    radius = len(weights) - 1
    n = values.shape[axis]
    padded = values.take(_reflected(n, radius), axis=axis)
    tail = (slice(None),) * (-1 - axis)

    def window(start: int) -> np.ndarray:
        return padded[(Ellipsis, slice(start, start + n)) + tail]

    out = window(radius) * weights[0]
    pair = np.empty_like(out)
    for j in range(radius, 0, -1):
        np.add(window(radius - j), window(radius + j), out=pair)
        pair *= weights[j]
        out += pair
    return out


def gaussian_filter(values: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing of the last two axes of a ``(..., H, W)``
    array, in float64: for float64 input, bit for bit
    ``scipy.ndimage.gaussian_filter(values, sigma, mode="reflect")`` on
    each ``(H, W)`` slice.

    The kernel is scipy's: ``exp(-0.5 / sigma**2 * x**2)`` over
    ``|x| <= int(4 * sigma + 0.5)``, divided by its sum.  Rows are
    smoothed first, then columns; a ``sigma`` of at most 1e-15 returns
    a copy.  Stacking slices along the leading axes gives each slice
    the bits it gets alone, in one pass.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 2:
        raise ValueError("gaussian_filter takes a (..., H, W) array")
    if sigma <= 1e-15:
        return values.copy()
    radius = int(4.0 * float(sigma) + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = (phi / phi.sum())[radius:]
    return _correlate(_correlate(values, weights, -2), weights, -1)


def correlated_gaussian_field(shape: Tuple[int, int],
                              correlation_cells: float,
                              sigma: float,
                              rng: np.random.Generator) -> np.ndarray:
    """A zero-mean Gaussian field with tunable spatial correlation.

    Parameters
    ----------
    shape:
        ``(rows, cols)`` of the raster.
    correlation_cells:
        Decorrelation length expressed in cells; Gudmundson's model for
        urban macro uses ~50 m, i.e. half a paper grid cell.
    sigma:
        Marginal standard deviation of the output field.
    rng:
        Source of randomness (pass a seeded ``np.random.default_rng``).

    White noise is smoothed with a Gaussian kernel of the requested
    correlation length, then rescaled so the sample standard deviation
    equals ``sigma`` (a zero-sigma request returns exact zeros).
    """
    return correlated_gaussian_fields(shape, correlation_cells, sigma,
                                      [rng])[0]


def correlated_gaussian_fields(shape: Tuple[int, int],
                               correlation_cells: float, sigma: float,
                               rngs: Sequence[np.random.Generator]
                               ) -> np.ndarray:
    """A ``(len(rngs), rows, cols)`` stack of
    :func:`correlated_gaussian_field` draws, one per generator.

    Each field is bitwise what its generator gives alone; the stack is
    smoothed in one :func:`gaussian_filter` call, which costs less than
    one call per field.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return np.zeros((len(rngs),) + tuple(shape))
    noise = np.stack([rng.standard_normal(shape) for rng in rngs])
    if correlation_cells > 0:
        noise = gaussian_filter(noise, correlation_cells)
    for field in noise:
        std = field.std()
        if std == 0:  # degenerate 1x1 rasters
            field[...] = 0.0
        else:
            field *= sigma / std
    return noise


def power_law_field(shape: Tuple[int, int], beta: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Spectral-synthesis fractal field with spectrum ``1/f^beta``.

    ``beta ~ 3`` gives natural-looking terrain (fractional Brownian
    surface).  The output is normalized to zero mean, unit variance;
    callers scale and offset to the elevation range they want.
    """
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise ValueError("shape must be positive")
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.fftfreq(cols)[None, :]
    freq = np.hypot(fy, fx)
    freq[0, 0] = np.inf  # kill the DC term
    amplitude = freq ** (-beta / 2.0)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    spectrum = amplitude * np.exp(1j * phase)
    fieldr = np.real(np.fft.ifft2(spectrum))
    std = fieldr.std()
    if std == 0:
        return np.zeros(shape)
    return (fieldr - fieldr.mean()) / std
