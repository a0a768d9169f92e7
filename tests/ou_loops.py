"""The allocate-per-step exact-OU loops: a bitwise oracle for the in-place ones.

`StrandSampler.noise` and `.step`, `ShellSampler.step` and the loops of
`harness.linear_exact_estimates` and `harness._energy_sums` write every
step into arrays allocated once per call.  Here are the same samplers
and loops as their expressions read, with a fresh array for every
product and both normals of a strand step drawn by separate calls:
the complex form eta = s11 n1 + 1j (s21 n1) (+ 1j s22 n2 on the
rotating strands).  The tests compare the two with `tobytes()`.
"""
import numpy as np

from pespec.harness import _build_strands, _estimation_grid
from pespec.linear import StrandSampler, mode_strands


def strand_noise(sampler, shape, rng):
    """The one-step noise of `sampler` over a block of the given shape."""
    n1 = rng.standard_normal(shape)
    eta = sampler.s11 * n1 + 1j * (sampler.s21 * n1)
    if sampler.rot.size:
        n2 = rng.standard_normal((*shape[:-1], sampler.rot.size))
        eta[..., sampler.rot] += 1j * (sampler.s22[sampler.rot] * n2)
    return eta


def strand_step(sampler, Z, rng):
    return Z * sampler.decay + strand_noise(sampler, Z.shape, rng)


def shell_step(shells, R, rng):
    g = rng.standard_normal(R.shape)
    half_chi2 = rng.standard_gamma(shells.half_dof, R.shape)
    root = np.sqrt(R)
    return ((shells.decay * root + shells.scale * g) ** 2
            + 2.0 * shells.scale ** 2 * half_chi2, root * g)


def linear_exact_estimates(params, N, alpha, q, reps, rng, dt=None):
    """`harness.linear_exact_estimates` with a fresh array per product."""
    if dt is None:
        dt, n_steps = _estimation_grid(N, params.T)
    else:
        n_steps = max(1, round(params.T / dt))
        dt = params.T / n_steps
    sysm = _build_strands(params, N, alpha, q, dt, n_steps)
    shells, rotating = sysm.shells, sysm.rotating

    R = np.zeros((reps, shells.size.size))
    sum_R = np.zeros_like(R)
    sum_cross = np.zeros_like(R)
    Z = np.zeros((reps, rotating.n_strands), dtype=complex)
    sum_sq = np.zeros(Z.shape)
    sum_pair = np.zeros(Z.shape)
    for _ in range(sysm.n_steps):
        sum_R += R
        R, cross = shell_step(shells, R, rng)
        sum_cross += cross
        Z_new = strand_step(rotating, Z, rng)
        d = Z_new - Z
        sum_pair += Z.real * d.real + Z.imag * d.imag
        sum_sq += Z.real ** 2 + Z.imag ** 2
        Z = Z_new
    pair = np.hstack([(shells.decay - 1.0) * sum_R + shells.scale * sum_cross, sum_pair])
    I_h, I_r = (pair @ sysm.ito).T
    D_h, D_r = dt * (np.hstack([sum_R, sum_sq]) @ sysm.den).T
    nu_h = -I_h / D_h
    nu_z = -I_r / D_r - float(q) * nu_h
    return nu_h, nu_z


def energy_sums(params, N, cols, dt, n_steps, reps, rng):
    """`harness._energy_sums` with a fresh array per product."""
    owner, *strands = mode_strands(params, N, cols)
    sampler = StrandSampler(*strands, dt)
    Z = np.zeros((reps, owner.size), dtype=complex)
    acc = np.zeros((reps, owner.size))
    for _ in range(n_steps):
        acc += Z.real ** 2 + Z.imag ** 2
        Z = strand_step(sampler, Z, rng)
    return np.stack([acc[:, owner == c].sum(axis=1) for c in cols], axis=1)
