"""Leading-order lattice energy sums: continuum orders and exact lattice sums.

`expected_norm_order` gives the continuum approximation of
E int_0^T ||A^beta U||^2 dt over a mode family and `exact_norm_sum` the
exact lattice sum it approximates.  The program needs neither; they
stay with the tests as a check on the growth exponents behind the
asymptotic constants.
"""
import math
from typing import Optional

import numpy as np

from pespec.modes import ModeSelector
from pespec.params import ModelParams


def _angular_factor(nu_h: float, nu_z: float) -> float:
    """int_0^pi sin(t) dt / (nu_h sin^2 t + nu_z cos^2 t)."""
    delta = nu_h - nu_z
    if abs(delta) < 1e-12 * nu_h:
        return 2.0 / nu_h
    if delta > 0:
        r = math.sqrt(delta / nu_h)
        return 2.0 * math.atanh(r) / math.sqrt(nu_h * delta)
    r = math.sqrt(-delta / nu_h)
    return 2.0 * math.atan(r) / math.sqrt(-nu_h * delta)


def expected_norm_order(
    beta: float, selector: ModeSelector, params: ModelParams, N: int
) -> float:
    """Leading-order value of E int_0^T ||A^beta U|^2 dt over the selector.

    Continuum approximations of the lattice sums of |k|^(4 beta) times the
    per-site energy: the horizontal-average family scales like
    N^(4 beta - 2 gamma) with prefactor sigma0^2 T pi / (2 nu_h (2 beta -
    gamma)); the k3 != 0 family gains one power of N from the extra
    lattice direction.  The resonant cone |k'|^2 = q k3^2 holds about
    N log N sites, not the N^2 of a disc, so it has no such continuum
    form and is rejected; `exact_norm_sum` evaluates its lattice sum.
    """
    if selector.kind == "resonant":
        raise ValueError("the resonant family has no continuum norm order; "
                         "use exact_norm_sum")
    g = params.gamma
    if beta <= g / 2.0:
        raise ValueError("need beta > gamma/2 for a convergent prefactor")
    s2T = params.sigma0 ** 2 * params.T
    p_flat = 4.0 * beta - 2.0 * g
    if selector.kind == "barotropic":
        return s2T / (2.0 * params.nu_h) * math.pi / (2.0 * beta - g) * N ** p_flat
    if selector.kind == "baroclinic":
        p = p_flat + 1.0
        return (
            s2T
            * math.pi
            * _angular_factor(params.nu_h, params.nu_z)
            / p
            * N ** p
        )
    return expected_norm_order(beta, ModeSelector.barotropic(), params, N) + \
        expected_norm_order(beta, ModeSelector.baroclinic(), params, N)


def exact_norm_sum(
    beta: float,
    selector: ModeSelector,
    params: ModelParams,
    N: int,
    T: Optional[float] = None,
) -> float:
    """Exact full-lattice sum of |k|^(4 beta) E int |U_k|^2 dt, 1 <= |k| <= N.

    Vectorized over raw lattice sites (both k3 signs and both conjugate
    partners), matching the counting convention of the closed forms.
    """
    if T is None:
        T = params.T
    rng = np.arange(-N, N + 1)
    k1, k2, k3 = np.meshgrid(rng, rng, rng, indexing="ij")
    ksq = k1 ** 2 + k2 ** 2 + k3 ** 2
    keep = (ksq >= 1) & (ksq <= N * N)
    if selector.kind == "barotropic":
        keep &= k3 == 0
    elif selector.kind == "baroclinic":
        keep &= k3 != 0
    elif selector.kind == "resonant":
        q = selector.q
        keep &= (k3 != 0) & (
            q.denominator * (k1 ** 2 + k2 ** 2) == q.numerator * k3 ** 2
        )
    hsq = (k1 ** 2 + k2 ** 2)[keep].astype(float)
    zsq = (k3 ** 2)[keep].astype(float)
    ksq = ksq[keep].astype(float)
    lam = params.nu_h * hsq + params.nu_z * zsq
    amp2 = params.sigma0 ** 2 * ksq ** (-params.gamma)
    g0T = -np.expm1(-2.0 * lam * T) / (2.0 * lam)
    energy = amp2 * (T - g0T) / (2.0 * lam)
    return float(np.sum(ksq ** (2.0 * beta) * energy))
