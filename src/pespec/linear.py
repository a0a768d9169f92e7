"""Exact per-mode Ornstein-Uhlenbeck dynamics and closed-form moments.

Every Fourier coefficient of the linear system is a 2D OU process
dX = -M X dt + amp c dW with M = lam I + f0 J, J the quarter-turn matrix.
Identifying R^2 with C via x1 + i x2 turns M into the complex rate
z = lam + i f0 and the noise direction c into zeta = c1 + i c2, so the
exact one-step update is multiplication by exp(-z dt) plus a Gaussian
whose 2x2 covariance comes from the integrated, rotated rank-one forcing;
`mode_strands` unfolds stored modes into such strands.  Strands without
rotation that share their rates can also be advanced as one class,
through their squared norm alone (`ShellSampler`).
All moment formulas below are exact in dt and T; the Monte Carlo suite
treats them as oracles.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .modes import ModeIndex, mode_table
from .noise import noise_direction
from .params import ModelParams

__all__ = [
    "mode_rates",
    "mode_strands",
    "OUMode",
    "strand_noise_chol",
    "StrandSampler",
    "ShellSampler",
    "expected_time_energy",
    "variance_time_energy",
    "mode_energy_mean",
    "mode_energy_variance",
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


def _phi2(u: complex) -> complex:
    """(exp(u)(u - 1) + 1)/u^2, i.e. int_0^1 s exp(us) ds."""
    if abs(u) < 0.1:
        acc = 0.0 + 0.0j
        for n in range(9, 0, -1):
            acc = (acc + (n + 1.0) / math.factorial(n + 2)) * u
        return acc + 0.5
    return (cmath.exp(u) * (u - 1.0) + 1.0) / (u * u)


def _phi1_dd(u1: complex, u2: complex) -> complex:
    """Divided difference (phi1(u1) - phi1(u2)) / (u1 - u2).

    Subtracting nearby phi1 values loses all precision precisely where the
    moment formulas need this quantity, so small arguments go through the
    double series sum_{n>=1} h_n / (n+1)! with h_n the complete homogeneous
    polynomial of degree n-1, and nearly coincident arguments through the
    midpoint derivative phi2.
    """
    if u1 == u2:
        return _phi2(u1)
    if abs(u1) < 0.1 and abs(u2) < 0.1:
        acc = 0.0 + 0.0j
        p1 = 1.0 + 0.0j  # u1^(n-1) running power
        h = 0.0 + 0.0j
        for n in range(1, 12):
            # h_n = sum_j u1^j u2^(n-1-j) built by recursion h_n = u2 h_(n-1) + u1^(n-1)
            h = u2 * h + p1
            p1 = p1 * u1
            acc += h / math.factorial(n + 1)
        return acc
    if abs(u1 - u2) < 1e-7 * (1.0 + abs(u1)):
        return _phi2(0.5 * (u1 + u2))
    return (_phi1(u1) - _phi1(u2)) / (u1 - u2)


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
    sigma0 |k|^-gamma is the noise amplitude.  Elementwise on arrays and
    on Python integers; the latter keep lam and amp Python floats, taken
    with Python's float power (numpy's array power can differ in the
    last bit), while f0 always comes back as an array.
    """
    lam = params.nu_h * kp_sq + params.nu_z * k3_sq
    f0 = np.where(k3_sq > 0, params.f0, 0.0)
    amp = params.sigma0 * (kp_sq + k3_sq) ** (-params.gamma / 2.0)
    return lam, f0, amp


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
    zeta = np.array([complex(*noise_direction(tab.modes[c])) for c in cols], dtype=complex)
    return owner, lam[owner], f0[owner], amp[owner], np.repeat(zeta, count)


@dataclass(frozen=True)
class OUMode:
    """One real 2-vector strand: drift rate lam, rotation f0, noise
    amplitude amp along the unit direction `direction`."""

    k: ModeIndex
    lam: float
    f0: float
    amp: float
    direction: Tuple[float, float] = (1.0, 0.0)

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError("drift rate must be nonnegative")
        if self.amp < 0:
            raise ValueError("noise amplitude must be nonnegative")
        n = math.hypot(*self.direction)
        if not math.isclose(n, 1.0, rel_tol=1e-9):
            raise ValueError("noise direction must be a unit vector")

    @classmethod
    def from_params(cls, k: ModeIndex, params: ModelParams) -> "OUMode":
        """The strand of mode k, with the rates of `mode_rates`."""
        if not isinstance(k, ModeIndex):
            k = ModeIndex(*k)
        lam, f0, amp = mode_rates(params, k.kp_sq, k.k3 * k.k3)
        c = noise_direction(k)
        return cls(k=k, lam=lam, f0=float(f0), amp=amp,
                   direction=(float(c[0]), float(c[1])))

    @property
    def zeta(self) -> complex:
        return complex(self.direction[0], self.direction[1])

    @property
    def z(self) -> complex:
        return complex(self.lam, self.f0)


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
    second normal n2, after all the n1 of the step.  A strand without
    rotation has rank-one noise (s22 = 0) and needs no second draw.
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

    @property
    def n_strands(self) -> int:
        return self.decay.size

    def noise(self, shape, rng: np.random.Generator) -> np.ndarray:
        """eta = s11 n1 + i (s21 n1 + s22 n2), complex of the given shape."""
        n1 = rng.standard_normal(shape)
        eta = self.s11 * n1 + 1j * (self.s21 * n1)
        if self.rot.size:
            n2 = rng.standard_normal((*shape[:-1], self.rot.size))
            eta[..., self.rot] += 1j * (self.s22[self.rot] * n2)
        return eta

    def step(self, Z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Z at the next grid time, with Z's rows independent replications."""
        return Z * self.decay + self.noise(Z.shape, rng)


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
    of R, all the normals of a step before its chi-squares.
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

    def step(self, R: np.ndarray, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """(R at the next grid time, sqrt(R) g = x.n over the step)."""
        g = rng.standard_normal(R.shape)
        half_chi2 = rng.standard_gamma(self.half_dof, R.shape)
        root = np.sqrt(R)
        return (self.decay * root + self.scale * g) ** 2 + self._twice_var * half_chi2, root * g


# ---------------------------------------------------------------------------
# exact time-energy moments

def expected_time_energy(mode: OUMode, T: float, from_zero: bool = True) -> float:
    """E int_0^T |X(t)|^2 dt for the strand started at zero.

    Equals amp^2 (T - g0(T)) / (2 lam) with g0(T) the decay-squared
    integral; the lam -> 0 limit amp^2 T^2 / 2 is taken smoothly.  With
    from_zero=False the stationary-start value amp^2 T / (2 lam) is
    returned instead.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    a2 = mode.amp * mode.amp
    m = mode.lam * T
    if not from_zero:
        if mode.lam <= 0:
            raise ValueError("stationary start needs lam > 0")
        return a2 * T / (2.0 * mode.lam)
    if m < 1e-4:
        return a2 * T * T * (0.5 - m / 3.0 + m * m / 6.0 - m ** 3 / 15.0)
    # T - g0(T) = (u + expm1(-u)) / (2 lam) with u = 2 lam T, written with
    # expm1 so the near cancellation costs no precision
    u = 2.0 * m
    return a2 * (u + math.expm1(-u)) / (4.0 * mode.lam * mode.lam)


def _psi_array(w: np.ndarray) -> np.ndarray:
    """(1 - exp(-w))/w elementwise, series-protected near zero."""
    w = np.asarray(w)
    small = np.abs(w) < 1e-4
    safe = np.where(small, 1.0, w)
    out = (1.0 - np.exp(-safe)) / safe
    series = 1.0 - w / 2.0 + w * w / 6.0 - w * w * w / 24.0
    return np.where(small, series, out)


def _variance_quad(lam: float, f0: float, T: float) -> float:
    """Gauss-Legendre evaluation of the variance double integral.

    Used in the weak-damping regime where the closed form would subtract
    nearly equal exponential moments. The integrand is smooth there, so a
    composite tensor rule is exact to machine precision; panel count tracks
    the rotation phase.
    """
    panels = min(1 + int(abs(f0) * T / 4.0), 64)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wx = (half[:, None] * weights[None, :]).ravel()

    t = T * x
    s = t[:, None] * x[None, :]
    z = complex(lam, f0)
    g0 = s * _psi_array(2.0 * lam * s)
    g2 = s * _psi_array(2.0 * z * s)
    bracket = g0 * g0 + np.abs(g2) ** 2
    inner = np.exp(-2.0 * lam * t[:, None] * (1.0 - x[None, :])) * bracket
    per_t = t * (inner @ wx)
    return float(2.0 * T * (wx @ per_t))


def _variance_shape(lam: float, f0: float, T: float) -> float:
    """Var[int_0^T |X|^2 dt] for a unit-amplitude strand started at zero.

    From the Wick expansion the variance is
    2 int int_{s<t} exp(-2 lam (t-s)) [g0(s)^2 + |g2(s)|^2] ds dt,
    which reduces to second divided differences of phi1. Those cancel
    quadratically as lam T -> 0, so weak damping is delegated to the
    quadrature path instead.
    """
    m = lam * T
    if m < 0.05:
        return _variance_quad(lam, f0, T)
    u2 = -2.0 * m
    w1 = complex(u2, 2.0 * f0 * T)
    b_top = _phi1_dd(0.0, u2) - 2.0 * _phi2(u2) + _phi1_dd(2.0 * u2, u2)
    b_rot = _phi1_dd(0.0, u2) - 2.0 * _phi1_dd(w1, u2).real + _phi1_dd(2.0 * u2, u2)
    y = f0 * T
    return T ** 4 * (b_top.real / (2.0 * m * m) + b_rot.real / (2.0 * (m * m + y * y)))


def variance_time_energy(mode: OUMode, T: float) -> float:
    """Exact Var[int_0^T |X(t)|^2 dt] for the strand, X(0) = 0."""
    if T <= 0:
        raise ValueError("horizon T must be positive")
    return mode.amp ** 4 * _variance_shape(mode.lam, mode.f0, T)


def mode_energy_mean(k: ModeIndex, params: ModelParams, T: float) -> float:
    """E int |U_k|^2 dt for a stored coefficient (same closed form whether
    the mode is conjugate-paired or self-paired)."""
    return expected_time_energy(OUMode.from_params(k, params), T)


def mode_energy_variance(k: ModeIndex, params: ModelParams, T: float) -> float:
    """Var[int |U_k|^2 dt] for a stored coefficient.

    A conjugate-paired mode is two independent strands of amplitude
    amp/sqrt(2), so its variance is half the single-strand value.
    """
    if not isinstance(k, ModeIndex):
        k = ModeIndex(*k)
    mode = OUMode.from_params(k, params)
    v = variance_time_energy(mode, T)
    return v if k.is_self_paired else v / 2.0
