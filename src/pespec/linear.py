"""Exact per-mode Ornstein-Uhlenbeck dynamics and the law of their energy sums.

Every Fourier coefficient of the linear system is a 2D OU process
dX = -M X dt + amp c dW with M = lam I + f0 J, J the quarter-turn matrix.
Identifying R^2 with C via x1 + i x2 turns M into the complex rate
z = lam + i f0 and the noise direction c into zeta = c1 + i c2, so the
exact one-step update is multiplication by exp(-z dt) plus a Gaussian
whose 2x2 covariance comes from the integrated, rotated rank-one forcing;
`mode_strands` unfolds stored modes into such strands.  Strands without
rotation that share their rates can also be advanced as one class,
through their squared norm alone (`ShellSampler`).
The cumulants of a strand's left-endpoint energy sum
(`energy_sum_cumulants`) are exact on any grid; the Monte Carlo suite
treats them as oracles.

Reality bookkeeping: a stored mode with k' != 0 stands for a conjugate
pair of lattice sites, each driven in the full-lattice picture by its own
scalar Wiener process.  Folded onto the canonical representative this is
one complex Brownian increment with E|dW|^2 = dt (real and imaginary
parts independent N(0, dt/2)).  Self-paired modes (k' = 0) keep a real
increment N(0, dt).  So a pair is two independent strands at amp/sqrt(2)
(`mode_strands`), which `solver.draw_increments` draws.
This convention reproduces both the per-mode energy moments and the
quadratic-variation constants of the estimator theory; see the tests
of `energy_sum_cumulants` and of the strand samplers.
"""
from __future__ import annotations

import cmath
import math
from typing import Tuple

import numpy as np

from .modes import mode_table
from .params import ModelParams

__all__ = [
    "mode_rates",
    "noise_direction_array",
    "mode_strands",
    "strand_noise_chol",
    "StrandSampler",
    "ShellSampler",
    "energy_sum_cumulants",
]


# ---------------------------------------------------------------------------
# scalar kernels (complex-safe, small-argument stable)

def _phi1(u: complex) -> complex:
    """(exp(u) - 1)/u with the removable singularity filled in."""
    if abs(u) < 0.1:
        acc = 0.0 + 0.0j
        for n in range(9, 0, -1):
            acc = (acc + 1.0 / math.factorial(n + 1)) * u
        return acc + 1.0
    return (cmath.exp(u) - 1.0) / u


def decay_sq_integral(z: complex, dt: float) -> complex:
    """int_0^dt exp(-2 z s) ds = (1 - exp(-2 z dt)) / (2 z)."""
    w = 2.0 * z * dt
    if abs(w) < 1e-4:
        return dt * (1.0 - w / 2.0 + w * w / 6.0 - w * w * w / 24.0)
    return (1.0 - cmath.exp(-w)) / (2.0 * z)


# ---------------------------------------------------------------------------
# mode description

def mode_rates(params: ModelParams, kp_sq, k3_sq):
    """(lam, f0, amp) of the modes with |k'|^2 = kp_sq and k3^2 = k3_sq.

    lam = nu_h |k'|^2 + nu_z k3^2 is the decay rate; the rotation f0 acts
    only on k3 != 0 modes (the averaged rotation is a pure pressure
    gradient and drops under the horizontal Leray projection); amp =
    sigma0 |k|^-gamma is the noise amplitude: the one amplitude law.
    Elementwise on arrays of squared wavenumbers, such as the float
    columns `kp_sq` and `k3_sq` of `mode_table`.
    """
    lam = params.nu_h * kp_sq + params.nu_z * k3_sq
    f0 = np.where(k3_sq > 0, params.f0, 0.0)
    amp = params.sigma0 * (kp_sq + k3_sq) ** (-params.gamma / 2.0)
    return lam, f0, amp


def noise_direction_array(N: int) -> np.ndarray:
    """Unit forcing directions c_k over the stored modes of truncation N,
    shape (n_modes, 2): (-k2, k1)/|k'|, perpendicular to k' so that the
    horizontal-average forcing stays divergence-free, or the fixed (1, 0)
    where k' = 0 and no perpendicular exists."""
    tab = mode_table(N)
    norm = np.where(tab.self_paired, 1.0, np.sqrt(tab.kp_sq))
    # negate the integers, not the quotient, so a zero entry stays +0.0
    dirs = np.stack([-tab.k2 / norm, tab.k1 / norm], axis=1)
    dirs[tab.self_paired] = (1.0, 0.0)
    return dirs


def mode_strands(params: ModelParams, N: int, cols):
    """Unfold stored modes into strands: (owner, lam, f0, amp, zeta) per strand.

    A self-paired mode is one strand; a conjugate-paired mode is two
    independent strands of amplitude amp / sqrt(2), side by side, its real
    parts (Re u + i Re v) first, then its imaginary parts.  `owner` names
    each strand's stored mode.
    """
    tab = mode_table(N)
    count = 2 - tab.self_paired[cols]
    owner = np.repeat(np.asarray(cols, dtype=int), count)
    lam, f0, amp = mode_rates(params, tab.kp_sq, tab.k3_sq)
    amp = np.where(tab.self_paired, amp, amp / math.sqrt(2.0))
    # each direction row (c1, c2) read as the complex number c1 + i c2
    zeta = noise_direction_array(N).view(complex)[:, 0]
    return owner, lam[owner], f0[owner], amp[owner], zeta[owner]


def strand_noise_chol(
    lam: float, f0: float, amp: float, zeta: complex, dt: float
) -> Tuple[float, float, float]:
    """Cholesky factors (s11, s21, s22) of the exact one-step noise.

    The noise eta = amp int_0^dt exp(-z(dt-s)) zeta dW(s) (z = lam + i f0)
    is an improper complex Gaussian with E|eta|^2 = amp^2 g0 and
    E[eta^2] = amp^2 zeta^2 g2, where g0/g2 are decay-squared integrals at
    rates 2 lam and 2 z.  Sampling uses eta = s11 n1 + i (s21 n1 + s22 n2).
    With f0 = 0 the covariance degenerates to rank one along zeta, which
    the factorization reproduces exactly (s22 = 0).
    """
    g0 = decay_sq_integral(complex(lam, 0.0), dt).real
    if f0 == 0.0:
        # without rotation the forcing never leaves the zeta axis, so the
        # covariance is exactly rank one along zeta; build that factor
        # directly (the generic route below degenerates when Re zeta = 0)
        root = amp * math.sqrt(g0)
        sign = 1.0 if zeta.real >= 0.0 else -1.0
        return abs(zeta.real) * root, sign * zeta.imag * root, 0.0
    g2 = decay_sq_integral(complex(lam, f0), dt)
    gamma_tot = amp * amp * g0
    pseudo = amp * amp * (zeta * zeta) * g2
    ea2 = max((gamma_tot + pseudo.real) / 2.0, 0.0)
    eb2 = max((gamma_tot - pseudo.real) / 2.0, 0.0)
    eab = pseudo.imag / 2.0
    s11 = math.sqrt(ea2)
    if s11 > 0.0:
        s21 = eab / s11
        s22 = math.sqrt(max(eb2 - s21 * s21, 0.0))
    else:
        s21 = 0.0
        s22 = math.sqrt(eb2)
    return s11, s21, s22


class StrandSampler:
    """Exact one-step OU transition for a block of independent strands.

    Built once from per-strand arrays (lam, f0, amp, zeta) and the step
    dt; `noise` draws a block of one-step noise, strands on its last axis,
    and `step` advances a (replications, strands) complex block.  Every
    strand draws one normal n1; the rotating strands (f0 != 0) draw a
    second normal n2, after all the n1 of the step, in the same call.  A
    strand without rotation has rank-one noise (s22 = 0) and needs no
    second draw.  A loop that steps one block shape many times allocates
    `work(shape)` once and passes it to every call; without it each call
    allocates its own.
    """

    def __init__(self, lam, f0, amp, zeta, dt: float):
        lam = np.asarray(lam, dtype=float)
        f0 = np.asarray(f0, dtype=float)
        self.decay = np.exp(-(lam + 1j * f0) * dt)
        chol = np.array([
            strand_noise_chol(float(l), float(f), float(a), complex(z), dt)
            for l, f, a, z in zip(lam, f0, amp, zeta)
        ]).reshape(-1, 3)
        # contiguous rows: the factors broadcast over every replication
        self.s11, self.s21, self.s22 = np.ascontiguousarray(chol.T)
        self.rot = np.flatnonzero(f0 != 0.0)
        self._s22_rot = self.s22[self.rot]
        self._all_rot = self.rot.size == self.decay.size

    @property
    def n_strands(self) -> int:
        return self.decay.size

    def work(self, shape) -> tuple:
        """Scratch arrays for `noise` over blocks of the given shape: one
        buffer for both draws, viewed as n1 and n2, and the real and
        complex planes of the arithmetic."""
        shape = tuple(shape)
        rot_shape = (*shape[:-1], self.rot.size)
        size = math.prod(shape)
        draws = np.empty(size + math.prod(rot_shape))
        return (draws, draws[:size].reshape(shape), draws[size:].reshape(rot_shape),
                np.empty(shape), np.empty(shape), np.empty(shape, dtype=complex),
                np.empty(rot_shape), np.empty(rot_shape, dtype=complex))

    def noise(self, shape, rng: np.random.Generator, work=None) -> np.ndarray:
        """eta = s11 n1 + i (s21 n1 + s22 n2), complex of the given shape.

        The products and sums are those of the complex expression, in its
        order, so eta has its bits; splitting eta into real and imaginary
        planes would flip the sign of zeros where s11 or s21 is 0.
        """
        draws, n1, n2, x, y, eta, w, u = self.work(shape) if work is None else work
        rng.standard_normal(out=draws)   # every n1 of the step, then every n2
        np.multiply(self.s11, n1, out=x)
        np.multiply(self.s21, n1, out=y)
        np.multiply(1j, y, out=eta)
        np.add(x, eta, out=eta)
        if self.rot.size:
            np.multiply(self._s22_rot, n2, out=w)
            np.multiply(1j, w, out=u)
            if self._all_rot:
                np.add(eta, u, out=eta)
            else:
                eta[..., self.rot] += u
        return eta

    def step(self, Z: np.ndarray, rng: np.random.Generator, work=None,
             out=None) -> np.ndarray:
        """Z at the next grid time, with Z's rows independent replications;
        written into `out` when given, which may be Z itself."""
        eta = self.noise(Z.shape, rng, work)
        out = np.multiply(Z, self.decay, out=out)
        return np.add(out, eta, out=out)


class ShellSampler:
    """Exact one-step law of the squared norm of classes of real OU chains.

    A strand without rotation, started at zero, never leaves its noise
    axis: it is a real AR(1) chain x' = a x + r n with a = exp(-lam dt)
    and r the exact one-step noise scale.  A class of m iid such chains
    enters a quadratic statistic only through R = |x|^2 and x.n; by the
    rotational invariance of the Gaussian increment,

        R' = (a sqrt(R) + r g)^2 + r^2 chi^2_{m-1},    x.n = sqrt(R) g,

    with g ~ N(0, 1) independent of the chi-square: the squared-Bessel
    construction of exact CIR sampling (Glasserman 2004, section 3.4).
    So a class costs one normal and one chi-square per step, not m
    normals, and the law of every such statistic is unchanged.  The
    chi-square is 2 Gamma((m-1)/2), which is 0 for m = 1.  Built from
    per-class (a, r, m); `step` advances a (replications, classes) block
    of R, all the normals of a step before its chi-squares.  As with
    `StrandSampler`, a loop passes `work(shape)` to every step.
    """

    def __init__(self, decay, scale, size):
        self.decay = np.asarray(decay, dtype=float)   # a per class
        self.scale = np.asarray(scale, dtype=float)   # r per class
        self.size = np.asarray(size, dtype=int)       # m per class
        self.half_dof = (self.size - 1) / 2.0
        self._twice_var = 2.0 * self.scale ** 2   # r^2 chi^2 = 2 r^2 Gamma

    @property
    def n_strands(self) -> int:
        return int(self.size.sum())

    @staticmethod
    def work(shape) -> tuple:
        """Scratch arrays for `step` over blocks of R of the given shape."""
        return tuple(np.empty(shape) for _ in range(4))

    def step(self, R: np.ndarray, rng: np.random.Generator, work=None,
             out=None) -> Tuple[np.ndarray, np.ndarray]:
        """(R at the next grid time, sqrt(R) g = x.n over the step); the
        new R is written into `out` when given, which may be R itself,
        and x.n into the work arrays."""
        g, half_chi2, root, tmp = self.work(R.shape) if work is None else work
        rng.standard_normal(out=g)
        rng.standard_gamma(self.half_dof, out=half_chi2)
        np.sqrt(R, out=root)
        out = np.multiply(self.decay, root, out=out)
        np.multiply(self.scale, g, out=tmp)
        np.add(out, tmp, out=out)
        np.square(out, out=out)
        np.multiply(self._twice_var, half_chi2, out=tmp)
        np.add(out, tmp, out=out)
        return out, np.multiply(root, g, out=root)


# ---------------------------------------------------------------------------
# exact law of the left-endpoint energy sum

def _psi_array(w: np.ndarray) -> np.ndarray:
    """(1 - exp(-w))/w elementwise, series-protected near zero."""
    w = np.asarray(w)
    small = np.abs(w) < 1e-4
    safe = np.where(small, 1.0, w)
    out = (1.0 - np.exp(-safe)) / safe
    series = 1.0 - w / 2.0 + w * w / 6.0 - w * w * w / 24.0
    return np.where(small, series, out)




def energy_sum_cumulants(lam: float, f0: float, amp: float, zeta: complex,
                         dt: float, n_steps: int) -> Tuple[float, float, float]:
    """Cumulants (k1, k2, k4) of S = sum_{i < n_steps} |Z_i|^2 for one strand
    stepped exactly from Z_0 = 0 on the grid t_i = i dt.

    The path is linear in the step normals n: Z_i = sum_{j < i}
    d^(i-1-j) (e1 n1_j + e2 n2_j) with the decay d = exp(-z dt) and
    e1 = s11 + i s21, e2 = i s22 from `strand_noise_chol`.  So S = n.G n
    is a Gaussian quadratic form and its cumulants are exact traces,
    k_r = 2^(r-1) (r-1)! tr G^r (Mathai & Provost 1992, ch. 3):
    k1 = tr G, k2 = 2 tr G^2, k4 = 48 tr G^4.  The strands of a stored
    mode are independent, so its cumulants are the sums over them.
    """
    d = cmath.exp(-complex(lam, f0) * dt)
    s11, s21, s22 = strand_noise_chol(lam, f0, amp, zeta, dt)
    lag = np.subtract.outer(np.arange(n_steps), np.arange(n_steps)) - 1
    kernel = np.where(lag >= 0, d ** np.maximum(lag, 0), 0.0)
    # one complex row per grid time, one column per step normal
    path = np.kron(kernel, [[complex(s11, s21), 1j * s22]])
    gram = (path.conj().T @ path).real
    sq = gram @ gram
    return (float(np.trace(gram)), 2.0 * float(np.sum(gram * gram)),
            48.0 * float(np.sum(sq * sq)))
