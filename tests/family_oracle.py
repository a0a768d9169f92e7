"""The estimator families mode by mode: an oracle for the per-strand closed forms.

`harness._predicted_grid_bias` and `harness.finite_n_covariance` sum over
the strands of `harness._family_strands`, with the weights the
estimators sum.  Here are the same two closed forms written over the
stored modes, with each family's weights spelled out from the estimator
displays: the barotropic family pairs |k'|^(2(1+alpha)) with the
increments and squares |k'|^(2+alpha) in its denominator, the resonant
family pairs k3^2 |k|^(2 alpha) and squares k3^2 |k|^alpha, and a
conjugate pair carries weight two.
"""
import numpy as np

from pespec.harness import _left_sums
from pespec.linear import mode_rates
from pespec.modes import BAROTROPIC, ModeSelector, mode_table, selector_mask


def families(N, alpha, q):
    """(mask, Ito weight, denominator weight) per family over the stored
    modes of truncation N, barotropic then resonant; the weights lack w_k."""
    tab = mode_table(N)
    return ((selector_mask(N, BAROTROPIC), tab.kp_sq ** (1.0 + alpha),
             tab.kp_sq ** (2.0 + alpha)),
            (selector_mask(N, ModeSelector.resonant(q)), tab.k3_sq * tab.k_sq ** alpha,
             tab.k3_sq ** 2 * tab.k_sq ** alpha))


def _table(params, N, alpha, q, dt, n_steps):
    """Per family: conjugate weight, Ito and denominator weights, squared
    amplitude, lam + i f0 and `_left_sums` at lam and at lam + i f0."""
    tab = mode_table(N)
    lam, f0, amp = mode_rates(params, tab.kp_sq, tab.k3_sq)
    for mask, mu_i, mu_d in families(N, alpha, q):
        z = lam[mask] + 1j * f0[mask]
        yield (tab.weight[mask], mu_i[mask], mu_d[mask], amp[mask] ** 2, z,
               _left_sums(lam[mask], dt, n_steps), _left_sums(z, dt, n_steps))


def predicted_grid_bias(params, N, alpha, q, dt, n_steps):
    """The N^2-scaled (e1, e2) shift of the ratio of expected sums."""
    ratios = []
    for weight, mu_i, mu_d, a2, z, (_, s0), _ in _table(params, N, alpha, q, dt, n_steps):
        energy = weight * a2 * s0
        num = np.sum(mu_i * (np.exp(-z * dt).real - 1.0) * energy)
        ratios.append(float(-num / (dt * np.sum(mu_d * energy))))
    nu_h = ratios[0]
    nu_z = ratios[1] - float(q) * nu_h
    return N * N * (nu_h - params.nu_h), N * N * (nu_z - params.nu_z)


def finite_n_covariance(params, N, q, dt, n_steps):
    """The delta-method covariance of the N^2-scaled error pair."""
    var = []
    for weight, mu_i, mu_d, a2, _, (g0_dt, s0), (g2_dt, s2) in _table(
            params, N, params.alpha, q, dt, n_steps):
        # the weight w equals the strand count, and each strand carries amp^2 / w
        qv = np.sum(weight / 2.0 * (mu_i * a2) ** 2
                    * (g0_dt * s0 + (np.conj(g2_dt) * s2).real))
        den = np.sum(weight * mu_d * a2 * dt * s0)
        var.append(float(qv / den ** 2))
    scale, qq = float(N) ** 4, float(q)
    c11 = scale * var[0]
    c22 = qq * qq * c11 + scale * var[1]
    return np.array([[c11, -qq * c11], [-qq * c11, c22]])
