"""Structured additive forcing: per-mode amplitudes and directions.

Each stored mode k carries a unit direction c_k and amplitude
sigma0 |k|^(-gamma).  Horizontal-average modes are forced along
k'perp/|k'| so the forcing stays divergence-free; the same perpendicular
rule is kept for k' != 0, k3 != 0, with a fixed unit vector for the k'=0
column where no perpendicular exists.

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
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .modes import ModeIndex, mode_table

__all__ = ["NoiseSpec", "noise_direction", "noise_amplitude_array", "noise_direction_array"]


@dataclass(frozen=True)
class NoiseSpec:
    """Amplitude sigma0, spectral decay gamma and the direction rule.

    ck_rule "perp" uses k'perp/|k'| whenever k' != 0 (forced for k3 = 0),
    falling back to fixed_dir on k' = 0.  Rule "fixed" uses fixed_dir for
    every k3 != 0 mode instead; barotropic modes are always perpendicular.
    """

    sigma0: float = 1.0
    gamma: float = 4.5
    ck_rule: str = "perp"
    fixed_dir: Tuple[float, float] = (1.0, 0.0)

    def __post_init__(self) -> None:
        if self.sigma0 < 0:
            raise ValueError("sigma0 must be nonnegative")
        if self.gamma <= 1.5:
            raise ValueError("gamma must exceed 3/2")
        if self.ck_rule not in ("perp", "fixed"):
            raise ValueError(f"unknown ck_rule {self.ck_rule!r}")
        norm = math.hypot(*self.fixed_dir)
        if not norm > 0:
            raise ValueError("fixed_dir must be a nonzero vector")
        object.__setattr__(
            self, "fixed_dir", (self.fixed_dir[0] / norm, self.fixed_dir[1] / norm)
        )


def noise_direction(spec: NoiseSpec, k: ModeIndex) -> np.ndarray:
    """Unit direction c_k in R^2."""
    if not isinstance(k, ModeIndex):
        k = ModeIndex(*k)
    use_perp = k.kp_sq > 0 and (spec.ck_rule == "perp" or k.k3 == 0)
    if use_perp:
        norm = math.sqrt(k.kp_sq)
        return np.array([-k.k2 / norm, k.k1 / norm])
    return np.array(spec.fixed_dir)


def noise_amplitude_array(spec: NoiseSpec, N: int) -> np.ndarray:
    """sigma0 |k|^(-gamma) over the stored modes of truncation N."""
    return spec.sigma0 * mode_table(N).k_sq ** (-spec.gamma / 2.0)


def noise_direction_array(spec: NoiseSpec, N: int) -> np.ndarray:
    """Stacked unit directions c_k, shape (n_modes, 2)."""
    tab = mode_table(N)
    return np.stack([noise_direction(spec, k) for k in tab.modes])
