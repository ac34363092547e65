"""Decay-exponent fitting and Richardson extrapolation of radius sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["DecayFit", "RichardsonResult", "fit_decay_exponent", "richardson_extrapolate"]

_RATE_TOLERANCE = 0.5  # largest spread of the per-octave rates of a converged extrapolation


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power law ``|v| = amplitude * x^(-exponent)``.

    ``residual`` is the RMS deviation of ``log|v|`` from the fitted line;
    claims gated on a fit are only meaningful for small residuals.
    """

    exponent: float
    amplitude: float
    residual: float

    def to_record(self):
        return {
            "exponent": self.exponent,
            "amplitude": self.amplitude,
            "fit_residual": self.residual,
        }


def fit_decay_exponent(xs, values) -> DecayFit:
    """Fit ``log|v| = log(A) - q log(x)``; returns q > 0 for decaying data."""
    xs = np.asarray(xs, dtype=float)
    values = np.abs(np.asarray(values, dtype=float))
    if xs.size != values.size or xs.size < 2:
        raise ConfigurationError("decay fit needs at least two (x, value) samples")
    if np.any(values <= 0):
        # exact zeros mean the quantity already vanished: infinitely fast decay
        return DecayFit(exponent=np.inf, amplitude=0.0, residual=0.0)
    lx, lv = np.log(xs), np.log(values)
    slope, intercept = np.polyfit(lx, lv, 1)
    fitted = slope * lx + intercept
    rms = float(np.sqrt(np.mean((lv - fitted) ** 2)))
    return DecayFit(exponent=float(-slope), amplitude=float(np.exp(intercept)), residual=rms)


@dataclass(frozen=True)
class RichardsonResult:
    """Extrapolated limit of a dyadic radius sweep, per component.

    The convergence rate is estimated from ratios of successive
    differences; ``converged`` is false when the sequence grows (negative
    rate) or the rate estimates disagree beyond ``rate_spread``.
    """

    limit: np.ndarray
    rate: float
    rate_spread: float
    converged: bool

    def to_record(self):
        return {
            "limit": np.asarray(self.limit).tolist(),
            "rate": self.rate,
            "rate_spread": self.rate_spread,
            "converged": self.converged,
        }


def richardson_extrapolate(radii, vectors) -> RichardsonResult:
    """Accelerate ``z(r) = z_inf + b r^(-q)`` sampled at dyadic radii.

    ``vectors`` has one row per radius.  Requires at least three samples
    with each radius double the previous.
    """
    radii = np.asarray(radii, dtype=float)
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    if len(radii) < 3:
        raise ConfigurationError("Richardson extrapolation needs >= 3 radii")
    if not np.allclose(radii[1:] / radii[:-1], 2.0, rtol=1e-12):
        raise ConfigurationError("radii must be dyadic (each double the previous)")
    diffs = vectors[1:] - vectors[:-1]
    norms = np.linalg.norm(diffs, axis=1)
    if norms[-1] == 0.0:
        return RichardsonResult(vectors[-1], np.inf, 0.0, True)
    ratios = norms[:-1] / np.maximum(norms[1:], 1e-300)
    rates = np.log2(np.maximum(ratios, 1e-300))
    rate = float(np.mean(rates))
    spread = float(np.max(rates) - np.min(rates)) if len(rates) > 1 else 0.0
    # assuming z_K = z_inf + b 2^(-rate K): z_inf = z_K + d_K / (2^rate - 1)
    denom = 2.0**rate - 1.0
    if rate <= 0.05 or abs(denom) < 1e-6:
        return RichardsonResult(vectors[-1], rate, spread, False)
    limit = vectors[-1] + diffs[-1] / denom
    converged = spread <= _RATE_TOLERANCE
    return RichardsonResult(limit, rate, spread, converged)
