"""Structured additive forcing: per-mode amplitudes and directions.

Each stored mode k carries a unit direction c_k and amplitude
sigma0 |k|^(-gamma), with sigma0 and gamma read from `ModelParams`; the
sampling side takes the amplitude, with the decay and rotation rates,
from `linear.mode_rates`.  Horizontal-average modes are forced along
k'perp/|k'| so the forcing stays divergence-free; the same perpendicular
rule is kept for k' != 0, k3 != 0, with the fixed unit vector (1, 0) for
the k'=0 column where no perpendicular exists.

Reality bookkeeping: a stored mode with k' != 0 stands for a conjugate
pair of lattice sites, each driven in the full-lattice picture by its own
scalar Wiener process.  Folded onto the canonical representative this is
one complex Brownian increment with E|dW|^2 = dt (real and imaginary
parts independent N(0, dt/2)).  Self-paired modes (k' = 0) keep a real
increment N(0, dt).  `solver.draw_increments` draws the increments.
This convention reproduces both the per-mode energy moments and the
quadratic-variation constants of the estimator theory; see tests
against the closed forms in `linear`.
"""
from __future__ import annotations

import math

import numpy as np

from .modes import ModeIndex, mode_table
from .params import ModelParams

__all__ = ["noise_direction", "noise_amplitude_array", "noise_direction_array"]


# the direction of the k' = 0 column, where no perpendicular exists
_VERTICAL_AXIS_DIR = (1.0, 0.0)


def noise_direction(k: ModeIndex) -> np.ndarray:
    """Unit direction c_k in R^2: k'perp/|k'|, or (1, 0) when k' = 0."""
    if not isinstance(k, ModeIndex):
        k = ModeIndex(*k)
    if k.kp_sq > 0:
        norm = math.sqrt(k.kp_sq)
        return np.array([-k.k2 / norm, k.k1 / norm])
    return np.array(_VERTICAL_AXIS_DIR)


def noise_amplitude_array(params: ModelParams, N: int) -> np.ndarray:
    """sigma0 |k|^(-gamma) over the stored modes of truncation N."""
    return params.sigma0 * mode_table(N).k_sq ** (-params.gamma / 2.0)


def noise_direction_array(N: int) -> np.ndarray:
    """Stacked unit directions c_k, shape (n_modes, 2)."""
    return np.stack([noise_direction(k) for k in mode_table(N).modes])
