"""Fits: central charge from single-interval entropies, finite-size limits."""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Sequence

import numpy as np

__all__ = [
    "CentralChargeFit",
    "central_charge_fit",
    "Extrapolation",
    "finite_size_extrapolate",
]


class CentralChargeFit(namedtuple("CentralChargeFit", "c_hat intercept residual_norm")):
    """Slope and intercept of the single-interval fit, and its residual norm."""

    __slots__ = ()


def central_charge_fit(
    lengths: Sequence[int], entropies: Sequence[float], n_sites: int
) -> CentralChargeFit:
    """Slope of S(l) against (1/3) ln[(N/pi) sin(pi l/N)] over interval sizes l."""
    lengths = np.asarray(lengths, dtype=float)
    values = np.asarray(entropies, dtype=float)
    if lengths.size < 6:
        raise ValueError("need at least 6 interval lengths for a stable fit")
    if lengths.size != values.size:
        raise ValueError("lengths and entropies must pair up")
    predictor = np.log((n_sites / math.pi) * np.sin(math.pi * lengths / n_sites)) / 3.0
    design = np.column_stack([predictor, np.ones_like(predictor)])
    # lstsq's rank uses matrix_rank's default threshold, eps * max(M, N)
    coeffs, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < 2:
        raise ValueError("degenerate design matrix: interval lengths too similar")
    residual = float(np.linalg.norm(design @ coeffs - values))
    return CentralChargeFit(
        c_hat=float(coeffs[0]),
        intercept=float(coeffs[1]),
        residual_norm=residual,
    )


class Extrapolation(namedtuple("Extrapolation", "value max_residual coefficients")):
    """The N -> infinity value, the largest fit residual, and (v_inf, a, b)."""

    __slots__ = ()


def finite_size_extrapolate(points: Sequence[tuple[int, float]]) -> Extrapolation:
    """Least-squares fit v(N) = v_inf + a/N + b/N^2; returns the N -> inf value.

    Leading lattice corrections for the free chain are algebraic in 1/N,
    so this model class captures them; the max residual is reported as a
    misfit diagnostic.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points to extrapolate")
    sizes = np.asarray([n for n, _ in points], dtype=float)
    values = np.asarray([v for _, v in points], dtype=float)
    if np.any(np.diff(sizes) <= 0):
        raise ValueError("sizes must be strictly increasing")
    design = np.column_stack([np.ones_like(sizes), 1.0 / sizes, 1.0 / sizes**2])
    coeffs, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    residuals = np.abs(design @ coeffs - values)
    return Extrapolation(
        value=float(coeffs[0]),
        max_residual=float(residuals.max()),
        coefficients=(float(coeffs[0]), float(coeffs[1]), float(coeffs[2])),
    )
