"""Property checks on the outputs of the benchmark workloads.

Every check compares a program output with a property the method must
have, never with a stored copy of an earlier output, so it holds on any
seed.  Each check returns a list of problems; an empty list passes.

The martingale corrections and the quoted cov11 limit are written here,
from the mode table and the noise amplitudes alone.  The normality
sample's mean shift and cov22 lean on the program's closed forms,
`_predicted_grid_bias` and `finite_n_covariance`, on the program's own
estimation grid; both are built apart from the strand sampler they check.
"""
from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from pespec import harness
from pespec.modes import ModeSelector, mode_table, selector_mask

# the criterion-1 identity is exact up to roundoff
RECONSTRUCTION_RTOL = 1e-8
# half-width of the moment checks on one job's sample of 20, and on the
# pooled sample of every job of a run, in standard errors of the sample
SE_WIDTH = 7.0
POOLED_SE_WIDTH = 4.5


# ---------------------------------------------------------------------------
# trajectories

def same_path(written, loaded) -> List[str]:
    """Every time, state and noise row of `loaded` equals `written` bit for bit."""
    problems = []
    if written.times.tobytes() != loaded.times.tobytes():
        problems.append("trajectory text round trip changed the sample times")
    if len(written.states) != len(loaded.states):
        problems.append("trajectory text round trip changed the sample count")
    else:
        for j, (a, b) in enumerate(zip(written.states, loaded.states)):
            if a.coeffs.tobytes() != b.coeffs.tobytes():
                problems.append(f"trajectory text round trip changed state {j}")
    if written.noise_log is None or loaded.noise_log is None:
        problems.append("trajectory text round trip lost the noise log")
    elif len(written.noise_log) != len(loaded.noise_log):
        problems.append("trajectory text round trip changed the noise row count")
    else:
        for j, (a, b) in enumerate(zip(written.noise_log, loaded.noise_log)):
            if a.tobytes() != b.tobytes():
                problems.append(f"trajectory text round trip changed noise step {j}")
    return problems


def _family_sums(traj, mask, ito_eig, den_eig):
    """(martingale sum, denominator sum) of one estimator family.

    The martingale sum pairs the left-endpoint states with the noise
    applied over each sample interval; the denominator is the
    left-endpoint Riemann sum of the weighted energy.
    """
    tab = mode_table(traj.N)
    states = np.stack([s.coeffs for s in traj.states])
    left = states[:-1][:, mask, :]
    steps = np.stack(traj.noise_log)
    noise = steps.reshape(len(left), -1, *steps.shape[1:]).sum(axis=1)[:, mask, :]
    w = tab.weight[mask]
    mart = float(np.sum(np.sum(left * np.conj(noise), axis=2).real @ (w * ito_eig[mask])))
    energy = np.sum(np.abs(left) ** 2, axis=2)
    den = float(np.diff(traj.times) @ (energy @ (w * den_eig[mask])))
    return mart, den


def reconstruction(traj, estimates: Dict[str, float], alpha: float, q,
                   label: str = "") -> List[str]:
    """Problems for every martingale-corrected estimate off the truth.

    For the explicit Euler-Maruyama scheme, variant V2 at full
    observation and a logged noise path, adding back the martingale
    parts recovers the true viscosity up to roundoff (criterion 1).  The
    tilde estimate of nu_z also carries the horizontal error through its
    cross term; on the resonant set the cross term is q times the
    denominator, so that correction collapses to q times the horizontal
    one.
    """
    tab = mode_table(traj.N)
    params = traj.params
    kp, k3, k = tab.kp_sq, tab.k3_sq, tab.k_sq
    z_ito, z_den = k3 * k ** alpha, k3 ** 2 * k ** alpha
    mart_h, den_h = _family_sums(
        traj, selector_mask(traj.N, ModeSelector.barotropic()),
        kp ** (1.0 + alpha), kp ** (2.0 + alpha))
    corrected = {}
    if "nu_h" in estimates:
        corrected["nu_h"] = (estimates["nu_h"] + mart_h / den_h, params.nu_h)
    if "nu_z" in estimates:
        mask = selector_mask(traj.N, ModeSelector.baroclinic())
        mart_z, den_z = _family_sums(traj, mask, z_ito, z_den)
        _, cross = _family_sums(traj, mask, z_ito, kp * k3 * k ** alpha)
        corrected["nu_z"] = (estimates["nu_z"] + mart_z / den_z
                             - (mart_h / den_h) * (cross / den_z), params.nu_z)
    if "nu_z_hat" in estimates:
        mask = selector_mask(traj.N, ModeSelector.resonant(q))
        mart_r, den_r = _family_sums(traj, mask, z_ito, z_den)
        corrected["nu_z_hat"] = (estimates["nu_z_hat"] + mart_r / den_r
                                 - float(q) * mart_h / den_h, params.nu_z)
    problems = []
    for name, (value, truth) in corrected.items():
        err = abs(value - truth) / truth
        if not err <= RECONSTRUCTION_RTOL:
            problems.append(f"{label}{name}: corrected estimate off the truth by {err:.3g} relative")
    return problems


# ---------------------------------------------------------------------------
# the scaled-error sample of a normality study

def cov11_limit(params) -> float:
    """The paper's limit variance of the N^2-scaled horizontal error."""
    a, g = params.alpha, params.gamma
    return 2.0 * params.nu_h / (math.pi * params.T) * (2.0 + a - g) ** 2 / (2.0 + 2.0 * a - 2.0 * g)


def _log_variance_se(x: np.ndarray) -> float:
    """Standard error of log(sample variance), from the sample's kurtosis.

    The kurtosis is floored at the normal value 3: each scaled error is a
    Gaussian martingale over a random denominator, a scale mixture of
    normals, whose kurtosis is at least 3.
    """
    c = x - x.mean()
    m2 = np.mean(c ** 2)
    return math.sqrt(max(np.mean(c ** 4) / (m2 * m2), 3.0) - 1.0) / math.sqrt(x.size)


def normality_moments(e1: np.ndarray, e2: np.ndarray, params, N: int, q,
                      width: float = SE_WIDTH) -> List[str]:
    """Sample moments of the scaled errors against their closed forms.

    Each tolerance is `width` standard errors estimated from the sample
    itself.  At SE_WIDTH a normal sample of 20 fails each check on about
    one seed in 10^6.  On a run's pooled sample of 100 to 140, a cov11
    or cov22 twice its reference lies 5 to 6 standard errors out, so
    most runs fail it at POOLED_SE_WIDTH (bench/README.md gives the
    rates).  Variances are compared on the log scale, where the standard
    error is symmetric.  The two families ride on disjoint noise, so
    e2 + q e1 is uncorrelated with e1 and cov12 + q cov11 sits at zero.
    """
    e1, e2 = np.asarray(e1, dtype=float), np.asarray(e2, dtype=float)
    n = e1.size
    qq = float(q)
    cov = np.cov(np.vstack([e1, e2]), ddof=1)
    dt, n_steps = harness._estimation_grid(N, params.T)
    shift = harness._predicted_grid_bias(params, N, params.alpha, q, dt, n_steps)
    finite22 = float(harness.finite_n_covariance(params, N, q, dt, n_steps)[1, 1])
    # e1 against e2 + q e1: the covariance's standard error under no
    # correlation, s1 sY sqrt((1 - r^2) / (n - 2)), the regression t-test
    combo = np.cov(np.vstack([e1, e2 + qq * e1]), ddof=1)
    r2 = combo[0, 1] ** 2 / (combo[0, 0] * combo[1, 1])
    cross_se = math.sqrt(combo[0, 0] * combo[1, 1] * max(1.0 - r2, 0.0) / (n - 2))

    rows = [
        ("mean_e1 - grid shift", e1.mean() - shift[0], e1.std(ddof=1) / math.sqrt(n)),
        ("mean_e2 - grid shift", e2.mean() - shift[1], e2.std(ddof=1) / math.sqrt(n)),
        ("log(cov11 / limit)", math.log(cov[0, 0] / cov11_limit(params)), _log_variance_se(e1)),
        ("cov12 + q cov11", cov[0, 1] + qq * cov[0, 0], cross_se),
        ("log(cov22 / finite-N cov22)", math.log(cov[1, 1] / finite22), _log_variance_se(e2)),
    ]
    return [f"{name} = {value:.4g} exceeds {width:g} standard errors ({se:.4g} each)"
            for name, value, se in rows if not abs(value) <= width * se]
