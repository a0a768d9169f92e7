"""Shared physical and statistical parameters."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction, tuple]


def as_fraction(q: RationalLike) -> Fraction:
    """Coerce a user-supplied rational (int, 'p/r' string, tuple, Fraction)."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, tuple):
        return Fraction(q[0], q[1])
    return Fraction(q)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the rotating viscous model and its observation setup.

    nu_h, nu_z are the horizontal/vertical viscosities, f0 the rotation
    rate, sigma0 and gamma the noise amplitude and spectral decay, q the
    resonance ratio used by the hat estimators, alpha the free estimator
    exponent, N the spectral truncation and T the observation horizon.
    """

    nu_h: float = 1.0
    nu_z: float = 0.5
    f0: float = 1.0
    sigma0: float = 1.0
    gamma: float = 4.5
    q: Fraction = Fraction(1)
    alpha: float = 4.0
    N: int = 8
    T: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_fraction(self.q))
        for name in ("nu_h", "nu_z", "f0", "sigma0", "gamma", "alpha", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("nu_h", "nu_z"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"viscosity {name} must be positive, not {value!r}")
        if self.sigma0 < 0:
            raise ValueError("sigma0 must be nonnegative")
        if self.gamma <= 1.5:
            raise ValueError("gamma must exceed 3/2")
        if self.q <= 0:
            raise ValueError("q must be a positive rational")
        if self.N < 1:
            raise ValueError("truncation N must be >= 1")
        if self.T <= 0:
            raise ValueError("horizon T must be positive")

    def with_(self, **kw) -> "ModelParams":
        return replace(self, **kw)

