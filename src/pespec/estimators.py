"""Viscosity estimators built from quadratic path functionals.

All time integrals are strictly left-endpoint Riemann/Ito sums over the
stored samples of a trajectory, each one weighted sum over a per-sample,
per-mode pairing that the trajectory builds once for all estimators
(`Trajectory.left_pairing`); mixing endpoint conventions shifts the
estimates by an O(1) quadratic-variation term, which the tests probe
deliberately.  The estimator of the horizontal viscosity pairs the
horizontal-average modes against A_h-weighted increments; the vertical
estimators work on the k3 != 0 modes (tilde family) or on the resonant
set |k'|^2 = q k3^2 (hat family), where the mixed cross term collapses
onto the denominator and the two martingale parts ride on disjoint
noise.  With a logged noise path the estimates reconstruct the true
viscosities exactly up to the time discretization, which is the
strongest correctness check the test suite runs.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from statistics import NormalDist
from typing import Dict, Optional, Tuple

import numpy as np

from .modes import (
    BAROCLINIC,
    BAROTROPIC,
    ModeSelector,
    eigenvalue_array,
    mode_table,
    selector_mask,
)
from .params import ModelParams, RationalLike, as_fraction
from .solver import Trajectory, _observed_truncation

__all__ = [
    "EstimatorConfig",
    "EstimateResult",
    "ito_integral",
    "quadratic_integral",
    "cross_integral",
    "nonlinear_integral",
    "martingale_term",
    "estimate_nu_h",
    "estimate_nu_z",
    "estimate_nu_z_hat",
    "theoretical_covariance",
    "confidence_interval",
]

VARIANTS = ("V1", "V2", "V3")
DENOMINATOR_FLOOR = 1e-30


@dataclass(frozen=True)
class EstimatorConfig:
    """Free exponent alpha, resonance ratio q, variant and observation cut.

    Variants: V1 pairs against the advection term of the full simulated
    path, V2 against the advection term recomputed from the observed
    modes only, V3 drops the advection terms altogether.  N_obs = None
    observes every simulated mode.
    """

    alpha: float = 4.0
    q: Fraction = Fraction(1)
    variant: str = "V1"
    N_obs: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", as_fraction(self.q))
        if self.q <= 0:
            raise ValueError("q must be a positive rational")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.N_obs is not None and self.N_obs < 1:
            raise ValueError("N_obs must be >= 1")


@dataclass(frozen=True)
class EstimateResult:
    """One viscosity estimate with its numerator decomposition."""

    value: float
    numerator_parts: Dict[str, float]
    denominator: float
    variant: str

    def __post_init__(self) -> None:
        if not self.denominator > 0:
            raise ValueError("denominator must be positive")


# ---------------------------------------------------------------------------
# path functionals

# time integrals carry dt_i; the Ito sums' increments already do
_RIEMANN_KINDS = ("energy", "advection")


@lru_cache(maxsize=256)
def _mode_weights(n: int, sel: ModeSelector, exponents: Tuple[float, float, float],
                  squared: bool) -> Tuple[np.ndarray, np.ndarray]:
    """The observed columns of `sel` at truncation n and their weights
    w_k lambda_k (lambda_k squared when `squared`), both read-only."""
    mask = selector_mask(n, sel)
    if not mask.any():
        raise ValueError(f"no observed modes for selector {sel.label()}")
    eig = eigenvalue_array(n, *exponents, mask=mask)
    wgt = mode_table(n).weight[mask] * (eig * eig if squared else eig)
    cols = np.flatnonzero(mask)
    cols.setflags(write=False)
    wgt.setflags(write=False)
    return cols, wgt


def _left_sum(traj: Trajectory, kind: str, exponents: Tuple[float, float, float],
              sel: ModeSelector, n_obs: Optional[int] = None, squared: bool = False,
              cut: Optional[int] = None) -> float:
    """Weighted left-endpoint sum of one per-sample, per-mode pairing.

    Sums w_k lambda_k X_i,k over the observed modes k of `sel` and the
    left samples i, times dt_i for the time integrals, where X is
    `traj.left_pairing(kind, cut)`, w_k the conjugate-pair weight of
    `inner_product` and lambda_k the operator eigenvalue with
    `exponents`, squared when `squared`.  The observed modes are a
    prefix of X's columns; their weights are cached per truncation,
    selector, exponents and `squared` (`_mode_weights`).
    """
    cols, wgt = _mode_weights(_observed_truncation(traj.N, n_obs), sel,
                              tuple(exponents), squared)
    per_sample = traj.left_pairing(kind, cut)[:, cols] @ wgt
    if kind in _RIEMANN_KINDS:
        return float(np.diff(traj.times) @ per_sample)
    return float(per_sample.sum())


def ito_integral(traj: Trajectory, weights: Tuple[float, float, float],
                 sel: ModeSelector, n_obs: Optional[int] = None) -> float:
    """Left-endpoint sum of <W f(t_i), f(t_{i+1}) - f(t_i)> over `sel`.

    W is the anisotropic operator with exponents `weights`; conjugate
    pairs carry their implicit partner with weight two, as in
    `inner_product`.
    """
    return _left_sum(traj, "ito", weights, sel, n_obs)


def quadratic_integral(traj: Trajectory, weights: Tuple[float, float, float],
                       sel: ModeSelector, n_obs: Optional[int] = None) -> float:
    """Left-endpoint Riemann sum of ||W f(t)||^2 over `sel`."""
    return _left_sum(traj, "energy", weights, sel, n_obs, squared=True)


def cross_integral(traj: Trajectory, alpha: float, sel: ModeSelector,
                   n_obs: Optional[int] = None) -> float:
    """Left-endpoint Riemann sum of <A_h A^alpha f, A_z f> over `sel`.

    On a resonant selector with ratio q this equals q times the
    quadratic integral with weights A_z A^{alpha/2}, exactly.
    """
    return _left_sum(traj, "energy", (1.0, 1.0, alpha), sel, n_obs)


def _pair_weights(sel: ModeSelector, alpha: float) -> Tuple[float, float, float]:
    # the estimator displays pair A_h^{1+alpha} on the horizontal average
    # and A_z A^alpha on the k3 != 0 families
    if sel.kind == "barotropic":
        return (1.0 + alpha, 0.0, 0.0)
    return (0.0, 1.0, alpha)


def nonlinear_integral(traj: Trajectory, alpha: float, sel: ModeSelector,
                       variant: str, n_obs: Optional[int] = None) -> float:
    """Left-endpoint sum of the weighted pairing with P B(V, V).

    V1 uses the advection term of the full stored path (requires modes
    beyond N_obs), V2 recomputes it from the observed modes alone, on
    the grid of truncation N_obs.  The hydrostatic Leray projection is
    applied before pairing.  The per-mode pairings come from
    `Trajectory.left_pairing`, which evaluates B once per stored sample
    and truncation for all estimators; on a simulated path the
    full-truncation pairing is the drift the solver actually integrated.
    """
    if variant == "V3":
        raise ValueError("variant V3 drops the advection terms; nothing to integrate")
    if variant not in ("V1", "V2"):
        raise ValueError(f"unknown variant {variant!r}")
    cut = _observed_truncation(traj.N, n_obs)
    if variant == "V1" and cut >= traj.N:
        raise ValueError(
            "full path unavailable: V1 needs the trajectory to carry modes "
            f"beyond N_obs={cut}"
        )
    return _left_sum(traj, "advection", _pair_weights(sel, alpha), sel, n_obs,
                     cut=None if variant == "V1" else cut)


def martingale_term(traj: Trajectory, weights: Tuple[float, float, float],
                    sel: ModeSelector, n_obs: Optional[int] = None) -> float:
    """Left-endpoint pairing of W f(t_j) with the logged noise sums.

    Feeding the actually-applied increments back through the estimator
    weights isolates the martingale part of the Ito numerator; the
    reconstruction identities in the tests rest on this.
    """
    return _left_sum(traj, "noise", weights, sel, n_obs)


# ---------------------------------------------------------------------------
# the estimators

def _warn_regimes(alpha: float, gamma: float) -> None:
    # stacklevel 3 names the caller of the public estimator
    if alpha <= gamma - 2.0:
        warnings.warn(
            f"alpha={alpha} is outside the consistency regime alpha > gamma-2"
            f" = {gamma - 2.0}", stacklevel=3)
    elif alpha <= gamma - 1.0:
        warnings.warn(
            f"alpha={alpha} is outside the normality regime alpha > gamma-1"
            f" = {gamma - 1.0}", stacklevel=3)


def _guard_denominator(d: float) -> float:
    if not d > DENOMINATOR_FLOOR:
        raise ValueError(f"denominator {d:.3e} below floor {DENOMINATOR_FLOOR:.0e}")
    return d


def _estimate(traj: Trajectory, cfg: EstimatorConfig, sel: ModeSelector) -> EstimateResult:
    a = cfg.alpha
    horizontal = sel.kind == "barotropic"
    ito = ito_integral(traj, _pair_weights(sel, a), sel, cfg.N_obs)
    nl = 0.0
    if cfg.variant != "V3":
        nl = nonlinear_integral(traj, a, sel, cfg.variant, cfg.N_obs)
    cross = 0.0
    if not horizontal:
        cross = (_estimate(traj, cfg, BAROTROPIC).value
                 * cross_integral(traj, a, sel, cfg.N_obs))
    den_weights = (1.0 + a / 2.0, 0.0, 0.0) if horizontal else (0.0, 1.0, a / 2.0)
    den = _guard_denominator(quadratic_integral(traj, den_weights, sel, cfg.N_obs))
    return EstimateResult(
        value=-(ito + nl + cross) / den,
        numerator_parts={"ito": ito, "nonlinear": nl, "cross": cross},
        denominator=den,
        variant=cfg.variant,
    )


def estimate_nu_h(traj: Trajectory, cfg: EstimatorConfig) -> EstimateResult:
    """Horizontal viscosity from the horizontal-average modes."""
    _warn_regimes(cfg.alpha, traj.params.gamma)
    return _estimate(traj, cfg, BAROTROPIC)


def estimate_nu_z(traj: Trajectory, cfg: EstimatorConfig) -> EstimateResult:
    """Vertical viscosity from all k3 != 0 modes (tilde family).

    The rotation-induced cross term is removed with the same-variant
    horizontal estimate, following the substitution in the display.
    """
    _warn_regimes(cfg.alpha, traj.params.gamma)
    return _estimate(traj, cfg, BAROCLINIC)


def _two_squares(n: int) -> bool:
    a = 0
    while a * a * 2 <= n:
        b = math.isqrt(n - a * a)
        if a * a + b * b == n:
            return True
        a += 1
    return False


def _smallest_resonant_truncation(q: Fraction, limit: int = 64) -> Optional[int]:
    # the first resonant mode at vertical wavenumber m needs |k'|^2 = q m^2
    # to be a sum of two squares; the truncation is then ceil(m sqrt(q+1)),
    # which grows with m, so the search stops once it must exceed the limit
    for m in range(1, limit + 1):
        if (q + 1) * m * m > limit * limit:
            break
        t = q * m * m
        if t.denominator != 1 or t < 1:
            continue
        if _two_squares(int(t)):
            n = math.isqrt(int(t) + m * m - 1) + 1
            return n if n <= limit else None
    return None


def estimate_nu_z_hat(traj: Trajectory, cfg: EstimatorConfig) -> EstimateResult:
    """Vertical viscosity from the resonant modes |k'|^2 = q k3^2.

    On the resonant set the cross pairing equals q times the denominator
    identically, so the estimate decomposes into disjoint-noise
    martingale parts; this is the variance-limiting family.
    """
    sel = ModeSelector.resonant(cfg.q)
    cut = _observed_truncation(traj.N, cfg.N_obs)
    n_min = _smallest_resonant_truncation(sel.q)
    if n_min is None or n_min > cut:
        hint = "" if n_min is None else \
            f"; the smallest truncation with resonant modes is N={n_min}"
        raise ValueError(
            f"resonant selector q={sel.q} matches no modes at N_obs={cut}{hint}")
    _warn_regimes(cfg.alpha, traj.params.gamma)
    return _estimate(traj, cfg, sel)


# ---------------------------------------------------------------------------
# asymptotic law

def theoretical_covariance(params: ModelParams, alpha: Optional[float] = None,
                           q: Optional[RationalLike] = None,
                           T: Optional[float] = None) -> np.ndarray:
    """Quoted limit covariance of the N^2-scaled estimation errors.

    Entry (0,0) is the limit variance of the horizontal estimator, and
    the off-diagonal is exactly -q times it.  Entry (1,1) is the quoted
    constant for the vertical estimator; it is not the limit of the
    N^2-scaled `estimate_nu_z_hat` error.  That error has no N^2 limit:
    the resonant cone holds about N log N lattice sites, not the N^2 of
    the two-dimensional ball this constant normalizes by, and its
    variance keeps growing with N (see `harness.finite_n_covariance`,
    about 73.6 against 11.25/pi = 3.58 at the defaults with N = 12).
    Requires alpha > gamma - 1 (equivalently 2 + 2 alpha - 2 gamma > 0).
    """
    a = params.alpha if alpha is None else alpha
    qq = float(params.q if q is None else as_fraction(q))
    horizon = params.T if T is None else T
    g = params.gamma
    if not a > g - 1.0:
        raise ValueError(f"need alpha > gamma - 1 = {g - 1.0} for the normal limit")
    shape = (2.0 + a - g) ** 2 / (2.0 + 2.0 * a - 2.0 * g)
    s11 = 2.0 * params.nu_h / (np.pi * horizon) * shape
    s22 = ((2.0 * qq * qq + qq + 1.0) * params.nu_h
           + (1.0 + 1.0 / qq) * params.nu_z) / (np.pi * horizon) * shape
    return np.array([[s11, -qq * s11], [-qq * s11, s22]])


def confidence_interval(estimate: float, sigma: float, N: int,
                        level: float = 0.95) -> Tuple[float, float]:
    """Two-sided normal interval at the N^2 convergence rate.

    `sigma` is the variance of the N^2-scaled error; the half width is
    z * sqrt(sigma) / N^2.  The (0,0) entry of `theoretical_covariance`
    serves for the horizontal estimate.  Its (1,1) entry does not serve
    for `estimate_nu_z_hat`: at the defaults with N = 12 an interval
    built from it is about 4.5 times too narrow, since the finite-N
    variance is about 73.6, not 3.58.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    half = float(z * np.sqrt(sigma) / N ** 2)
    return (estimate - half, estimate + half)
