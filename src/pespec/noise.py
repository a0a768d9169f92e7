"""Structured additive forcing: the per-mode noise directions.

Each stored mode k is forced along a unit direction c_k, at the
amplitude sigma0 |k|^(-gamma) that `linear.mode_rates`, the one
amplitude law, gives with the decay and rotation rates.
Horizontal-average modes are forced along k'perp/|k'| so the forcing
stays divergence-free; the same perpendicular rule is kept for k' != 0,
k3 != 0, with the fixed unit vector (1, 0) for the k'=0 column where no
perpendicular exists.

Reality bookkeeping: a stored mode with k' != 0 stands for a conjugate
pair of lattice sites, each driven in the full-lattice picture by its own
scalar Wiener process.  Folded onto the canonical representative this is
one complex Brownian increment with E|dW|^2 = dt (real and imaginary
parts independent N(0, dt/2)).  Self-paired modes (k' = 0) keep a real
increment N(0, dt).  So a pair is two independent strands at amp/sqrt(2)
(`linear.mode_strands`), which `solver.draw_increments` draws.
This convention reproduces both the per-mode energy moments and the
quadratic-variation constants of the estimator theory; see tests
against the closed forms in `linear`.
"""
from __future__ import annotations

import numpy as np

from .modes import mode_table

__all__ = ["noise_direction_array"]


def noise_direction_array(N: int) -> np.ndarray:
    """Unit directions c_k over the stored modes of truncation N, shape
    (n_modes, 2): (-k2, k1)/|k'|, or (1, 0) where k' = 0."""
    tab = mode_table(N)
    norm = np.where(tab.self_paired, 1.0, np.sqrt(tab.kp_sq))
    # negate the integers, not the quotient, so a zero entry stays +0.0
    dirs = np.stack([-tab.k2 / norm, tab.k1 / norm], axis=1)
    dirs[tab.self_paired] = (1.0, 0.0)
    return dirs
