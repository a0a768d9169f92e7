"""Galerkin time stepping for the truncated rotating hydrostatic model.

The state is a SpectralField of horizontal-velocity coefficients.  Its
drift splits into the per-mode linear part (diffusion plus rotation,
solved exactly in the complex-rate picture of `linear`) and the
projected advection term P B(V, V).  B is computed in flux form on a
collocation grid dealiased by the 3/2 rule, exact on the truncation, by
depth parity: every field it involves is a cosine or a sine series in
z, so it lives on the N + 1 coefficient planes m3 = 0..N.  Its
transforms are pruned DFT matrix products on the kept modes alone: a
complex one along y, a real one along x and small real ones (GEMMs),
one per grid row, along z to the half period or back (B(u, u): 3
inverse and 5 forward transforms, 24 products, no FFT); the exact
convolution over lattice site pairs (Direct) is only a test oracle.  All
schemes take the per-step noise vectors as an argument, so trajectories
are reproducible and the applied increments can be logged for the
estimator validation identities.
"""
from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Dict, List, Optional, Union

import numpy as np

from .linear import StrandSampler, _phi1, mode_rates, mode_strands
from .modes import (
    BASIS_TAG,
    SpectralField,
    _field_from_lines,
    _fmt,
    _rows_from_text,
    _rows_to_text,
    field_to_text,
    hydrostatic_leray,
    mode_table,
)
from .params import ModelParams

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
    "check_grid",
    "nonlinear_B",
    "step",
    "simulate_path",
    "trajectory_to_text",
    "trajectory_from_text",
]

TRAJECTORY_FORMAT_TAG = "pespec-trajectory v1"
SCHEMES = ("ExponentialEuler", "EulerMaruyama")
CONVOLUTIONS = ("auto", "Direct", "PseudoSpectralDealiased")

_SQRT2 = math.sqrt(2.0)


class BlowUpError(RuntimeError):
    """Raised when a trajectory leaves the representable range."""

    def __init__(self, message: str, step_index: Optional[int] = None,
                 time: Optional[float] = None):
        super().__init__(message)
        self.step_index = step_index
        self.time = time


@dataclass(frozen=True)
class SolverConfig:
    """Truncation, step size and scheme choices for one simulation.

    `scheme` picks the time discretization: ExponentialEuler treats the
    diffusion-rotation part and the noise exactly per mode, EulerMaruyama
    is fully explicit (kept because the estimator reconstruction
    identities are exact only for plain left-endpoint increments).
    `convolution` is a legacy key kept so that old config files and
    trajectory headers still parse: every accepted name ("auto",
    "Direct", "PseudoSpectralDealiased") resolves to the dealiased grid,
    the one production advection backend.
    `include_nonlinear` switches the advection term off entirely for
    linear-regime studies.
    """

    N: int
    dt: float
    scheme: str = "ExponentialEuler"
    convolution: str = "auto"
    store_every: int = 1
    include_nonlinear: bool = True

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("truncation N must be >= 1")
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.convolution not in CONVOLUTIONS:
            raise ValueError(f"unknown convolution method {self.convolution!r}")
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")

    def resolved_convolution(self) -> str:
        return "PseudoSpectralDealiased"


# ---------------------------------------------------------------------------
# the advection term

class _SiteLayout:
    """Stored modes as the exponential sites of the half spectrum.

    A canonical stored mode stands for the sites e^{i k.x} of (k', +-k3),
    at weight 1/sqrt(2) each when k3 > 0, and of their reality partners
    (-k', +-k3) with conjugated values.  Every field of B is even or odd
    in z, so it is fixed by its sites with m3 >= 0, and real, so each of
    its planes is fixed by m1 >= 0.  Canonical modes have k1 >= 0, so
    those sites are each stored mode's own (k1, k2, k3), and, for a
    conjugate pair with k1 = 0 (rows `pairs`), the partner (0, -k2, k3).
    `box` places a field's two components at these sites of the
    (2, 2N + 1, N + 1, N + 1) cosine box [c, m2, m3, m1] with one
    scatter at `fill`: the stored rows times `scale`, then the partner
    rows conjugated.  `w_box` computes i w(f) on the (2N + 1, N, N + 1)
    sine box, whose planes start at m3 = 1, from f's cosine box.  Mode k
    reads an even flux's box at `read_even` and an odd one's at
    `read_odd`.

    The grid takes G = 3N + 1 points along x and y, the fewest that
    dealias, and the M + 1 points z_j = pi j / M of the even extension
    of length 2M, M = ceil((3N + 1)/2).  Every transform is a matrix
    product on the kept modes alone.  `y_syn`, complex (G, 2N + 1), maps
    m2 = -N..N to y; `x_syn`, real (2(N + 1), G), maps the real and
    imaginary parts of m1 = 0..N to x, weighted 1 for m1 = 0 and 2
    otherwise, the Hermitian completion of a real grid.  `cos_syn` and
    `sin_syn` map the cosine planes 0..N or sine planes 1..N to z (the
    sine to its interior rows); each is the DCT-I or DST-I of an
    identity, the rfft of its even or odd extension, as scipy.fft
    computes it.  `x_ana`, `y_ana`, `cos_ana` and `sin_ana` map a grid
    back to the kept modes, the first two each carrying 1/G.  `deriv`
    holds the per-mode factors i k1, i k2 and k3 of the three flux
    divergence terms, each times the weight of the mode's z-images
    (sqrt(2) for k3 > 0).
    """

    def __init__(self, N: int):
        tab = mode_table(N)
        self.pairs = np.flatnonzero((tab.k1 == 0) & ~tab.self_paired)
        self.scale = np.where(tab.k3 > 0, 1.0 / _SQRT2, 1.0)[:, None]
        self.G = G = 3 * N + 1
        self.M = M = (3 * N + 2) // 2
        self.cos_syn = _dct1(np.eye(M + 1, N + 1))
        self.cos_ana = _dct1(np.eye(M + 1), norm="forward")[:N + 1]
        self.sin_syn = _dst1(np.eye(M - 1, N))
        self.sin_ana = _dst1(np.eye(M - 1), norm="forward")[:N]
        P = N + 1
        self.read_even = ((tab.k2 + N) * P + tab.k3) * P + tab.k1
        # a stored mode fills its own site, a k1 = 0 pair also (0, -k2, k3)
        partner = ((N - tab.k2[self.pairs]) * P + tab.k3[self.pairs]) * P
        sites = np.concatenate([self.read_even, partner])
        self.fill = np.stack([sites, sites + (2 * N + 1) * P * P], axis=1).ravel()
        # a k3 = 0 mode reads plane m3 = 1 here, and its factor k3 zeroes it
        self.read_odd = ((tab.k2 + N) * N + np.maximum(tab.k3 - 1, 0)) * P + tab.k1
        # the exponents of the sine box [m2, m3 - 1, m1], broadcast
        self.m1 = np.arange(P)
        self.m2 = np.arange(-N, N + 1)[:, None, None]
        self.m3 = np.arange(1, P)[:, None]
        # angles 2 pi (m n mod G) / G, reduced in integers
        y_ang = 2 * np.pi / G * (np.arange(G)[:, None] * np.arange(-N, N + 1) % G)
        self.y_syn = np.exp(1j * y_ang)
        self.y_ana = np.ascontiguousarray(self.y_syn.conj().T) / G
        x_ang = 2 * np.pi / G * (np.arange(P)[:, None] * np.arange(G) % G)
        # rows 2 m1 and 2 m1 + 1 act on the real and imaginary parts of m1
        self.x_syn = np.stack([np.cos(x_ang), -np.sin(x_ang)], axis=1).reshape(2 * P, G)
        self.x_ana = np.ascontiguousarray(self.x_syn.T) / G
        self.x_syn[2:] *= 2.0
        s = np.where(tab.k3 > 0, _SQRT2, 1.0)
        self.deriv = (1j * tab.k1 * s, 1j * tab.k2 * s, tab.k3 * s)
        self.self_paired = tab.self_paired_rows

    def box(self, f: SpectralField) -> np.ndarray:
        """The cosine box [c, m2, m3, m1] of f's two components."""
        vals = f.coeffs * self.scale
        N = f.N
        b = np.zeros((2, 2 * N + 1, N + 1, N + 1), dtype=complex)
        b.reshape(-1)[self.fill] = np.concatenate([vals, np.conj(vals[self.pairs])]).ravel()
        return b

    def w_box(self, b: np.ndarray) -> np.ndarray:
        """i w(f) on the sine box [m2, m3 - 1, m1] from f's cosine box b:
        w = -int_0^z div_h f puts -(m1 f1 + m2 f2) / m3 on a site m3 > 0."""
        return 1j * (-(self.m1 * b[0, :, 1:] + self.m2 * b[1, :, 1:]) / self.m3)


def _dct1(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """DCT-I along axis 0: the real part of the rfft of the even extension,
    in a C-ordered array, as BLAS takes it without a copy."""
    even = np.concatenate([x, x[-2:0:-1]])
    return np.ascontiguousarray(np.fft.rfft(even, axis=0, norm=norm).real)


def _dst1(x: np.ndarray, norm: str = "backward") -> np.ndarray:
    """DST-I along axis 0: minus the imaginary part of the rfft of the odd extension."""
    zero = np.zeros_like(x[:1])
    odd = np.concatenate([zero, x, zero, -x[::-1]])
    return -np.fft.rfft(odd, axis=0, norm=norm).imag[1:len(x) + 1]


@lru_cache(maxsize=32)
def _site_layout(N: int) -> _SiteLayout:
    return _SiteLayout(int(N))


def _convolve_pseudospectral(f: SpectralField, g: SpectralField) -> np.ndarray:
    """B(f, g) in flux form by matrix products on the smallest dealiased grid.

    Component c is d1(f1 g_c) + d2(f2 g_c) + dz(w g_c) (see `nonlinear_B`).
    With G, 2M >= 3N + 1 points per period every kept flux coefficient
    is exact up to roundoff: products of modes bounded by N alias only
    beyond N.  f_a and g_c are cosine series in z and w a sine series,
    its sites times i so that each m3 plane is Hermitian.  `box`
    scatters f's stored coefficients into the cosine boxes [m2, m3, m1]
    of f1 and f2, and `w_box` computes i w on the sine box from them, so
    no per-site array is built.  An inverse transform takes three matrix
    products of a box: `y_syn` along y, `x_syn` along x on the real view
    of the complex planes, and `cos_syn` or `sin_syn` along z.  The grids
    are laid out [y, z, x], so no product transposes.  The z product is G
    GEMMs of the matrix by one (planes, G) row slab each, small enough
    that BLAS runs each on one thread, so B's bits do not depend on the
    thread count.  The even fluxes f_a g_c go back by `cos_ana`, `x_ana`
    and `y_ana` to F, so d_a is i m_a F; the odd fluxes w g_c by
    `sin_ana` and the same two to i times their coefficients, S, so dz
    is m3 S.  When g is f, f's grids serve as g's and f1 g2 as f2 g1: 3
    inverse and 5 forward transforms in place of 5 and 6.
    """
    lay = _site_layout(f.N)
    G, M, N, P = lay.G, lay.M, f.N, f.N + 1

    def grid(c: np.ndarray, z_syn: np.ndarray) -> np.ndarray:
        planes = z_syn.shape[1]
        c = lay.y_syn @ c.reshape(2 * N + 1, planes * P)
        p = c.view(float).reshape(G * planes, 2 * P) @ lay.x_syn
        return np.matmul(z_syn, p.reshape(G, planes, G))

    def forward(p: np.ndarray, odd: bool = False) -> np.ndarray:
        z_ana, read = (lay.sin_ana, lay.read_odd) if odd else (lay.cos_ana, lay.read_even)
        planes = z_ana.shape[0]
        h = np.matmul(z_ana, p).reshape(G * planes, G) @ lay.x_ana
        return (lay.y_ana @ h.view(complex).reshape(G, planes * P)).ravel()[read]

    fb = lay.box(f)
    u = [grid(fb[0], lay.cos_syn), grid(fb[1], lay.cos_syn)]
    w = grid(lay.w_box(fb), lay.sin_syn)
    v = u if g is f else [grid(gc, lay.cos_syn) for gc in lay.box(g)]
    d1, d2, d3 = lay.deriv
    flux = {}
    out = np.empty((len(d1), 2), dtype=complex)
    for c in range(2):
        for a in range(2):
            flux[a, c] = flux[c, a] if g is f and a < c else forward(u[a] * v[c])
        # rows z_1..z_{M-1}: a sine vanishes at z = 0 and pi
        out[:, c] = d1 * flux[0, c] + d2 * flux[1, c] + d3 * forward(w * v[c][:, 1:M], odd=True)
    # self-paired rows are real analytically: drop the residual imaginary part
    sp = lay.self_paired
    out[sp] = out[sp].real
    return out


def nonlinear_B(f: SpectralField, g: SpectralField, method: str = "auto") -> SpectralField:
    """Projected advection term B(f, g) = f . grad_h g + w(f) dz g.

    Returns the coefficients of P_N B in the stored cosine basis with the
    zero mode discarded.  The output is generally not divergence-free in
    its horizontal average; the solver applies the hydrostatic Leray
    projection separately.  B is evaluated in flux form, on the dealiased
    grid, which equals the form above only when the horizontal average
    of `f` is divergence-free, as every solver state is; otherwise the
    two differ by (div_h of that average) g.  `method` accepts the legacy
    names of `SolverConfig.convolution` and rejects any other.  The
    exact Direct sum over lattice site pairs, O(sites^2), lives with the
    tests as the oracle this grid is checked against.
    """
    if f.N != g.N:
        raise ValueError(f"truncation mismatch: {f.N} vs {g.N}")
    if method not in CONVOLUTIONS:
        raise ValueError(f"unknown convolution method {method!r}")
    return SpectralField(f.N, _convolve_pseudospectral(f, g))


# ---------------------------------------------------------------------------
# per-step linear factors and noise sampling

class _StepFactors:
    """Per-mode propagators and per-strand noise factors at fixed (N, dt, params).

    The complex rate z = lam + i f0 encodes the 2x2 matrix lam I + f0 J;
    multiplication in C corresponds to composition of such matrices, so
    the decay exp(-z dt) and the nonlinear-term filter
    phi = (1 - e^{-z dt})/z apply to the complex coefficient pairs
    through `_apply_pair`.  The noise lives on the strands of
    `linear.mode_strands`: `strands` draws their exact OU noise, `wiener`
    = sqrt(dt) amp zeta scales a normal into a Wiener increment, and
    `slots` places each strand in the float view of the noise vectors.
    Only ExponentialEuler reads `phi` and `strands`, so they are built on
    first use.
    """

    def __init__(self, N: int, dt: float, params: ModelParams):
        tab = mode_table(N)
        lam, f0, _ = mode_rates(params, tab.kp_sq, tab.k3_sq)
        self.n = tab.n
        self.dt = dt
        self.z = lam + 1j * f0
        self.decay = np.exp(-self.z * dt)
        self.lam_max = float(lam.max())
        owner, lam_s, f0_s, amp_s, zeta = mode_strands(params, N, np.arange(tab.n))
        self._strand_rates = (lam_s, f0_s, amp_s, zeta)
        self.wiener = math.sqrt(dt) * amp_s * zeta
        # the second strand of a conjugate pair holds its imaginary parts
        part = np.r_[0, owner[1:] == owner[:-1]]
        self.slots = (4 * owner[:, None] + 2 * np.arange(2) + part[:, None]).ravel()

    @cached_property
    def phi(self) -> np.ndarray:
        return self.dt * np.array([_phi1(-zz * self.dt) for zz in self.z])

    @cached_property
    def strands(self) -> StrandSampler:
        return StrandSampler(*self._strand_rates, self.dt)


@lru_cache(maxsize=32)
def _step_factors(N: int, dt: float, params: ModelParams) -> _StepFactors:
    return _StepFactors(N, dt, params)


def _apply_pair(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Apply the matrix x I + y J (w = x + i y, per mode) to C^2 rows."""
    out = np.empty_like(c)
    out[:, 0] = w.real * c[:, 0] - w.imag * c[:, 1]
    out[:, 1] = w.imag * c[:, 0] + w.real * c[:, 1]
    return out


def draw_increments(cfg: SolverConfig, params: ModelParams,
                    rng: np.random.Generator) -> np.ndarray:
    """Per-mode noise vectors for one step of the configured scheme.

    Each strand of `linear.mode_strands` draws X = x_u + i x_v, the (u, v)
    components of a mode's real or imaginary parts: ExponentialEuler the
    exactly integrated Ornstein-Uhlenbeck noise (`StrandSampler.noise`),
    EulerMaruyama the Wiener increment sqrt(dt) amp zeta n, one normal n
    per strand.  Self-paired modes stay real by construction.
    """
    fac = _step_factors(cfg.N, cfg.dt, params)
    if cfg.scheme == "ExponentialEuler":
        eta = fac.strands.noise(fac.wiener.shape, rng)
    else:
        eta = fac.wiener * rng.standard_normal(fac.wiener.size)
    out = np.zeros((fac.n, 2), dtype=complex)
    out.reshape(-1).view(float)[fac.slots] = eta.view(float)
    return out


# ---------------------------------------------------------------------------
# time stepping

def step(state: SpectralField, cfg: SolverConfig, params: ModelParams,
         increments) -> SpectralField:
    """Advance the state by one step, applying the given noise vectors.

    `increments` is the (n_modes, 2) complex array of per-mode noise for
    this step, in stored-mode order (see `draw_increments`); the caller
    owns the randomness so paths can be replayed and logged.
    """
    return _step(state, cfg, params, increments)[0]


def _step(state: SpectralField, cfg: SolverConfig, params: ModelParams,
          increments):
    """`step`, also returning the projected advection term P B(state, state)
    it applied (None when the advection term is switched off)."""
    if state.N != cfg.N:
        raise ValueError(f"state truncation {state.N} != config N {cfg.N}")
    fac = _step_factors(cfg.N, cfg.dt, params)
    incr = np.asarray(increments, dtype=complex)
    if incr.shape != state.coeffs.shape:
        raise ValueError("increments must match the stored coefficient shape")
    c = state.coeffs
    b = None
    if cfg.include_nonlinear:
        bf = nonlinear_B(state, state)
        b = hydrostatic_leray(bf).coeffs
    dt = cfg.dt
    if cfg.scheme == "ExponentialEuler":
        new = _apply_pair(fac.decay, c)
        if b is not None:
            new -= _apply_pair(fac.phi, b)
        new += incr
    else:  # EulerMaruyama
        new = c - dt * _apply_pair(fac.z, c) + incr
        if b is not None:
            new -= dt * b
    if not np.all(np.isfinite(new.view(float))):
        raise BlowUpError("non-finite coefficients after a time step")
    return state.with_coeffs(new), b


def _observed_truncation(N: int, n_obs: Optional[int]) -> int:
    """The truncation n of the observed modes |k| <= n_obs; by the table's
    (|k|^2, k1, k2, k3) order they are the first `mode_table(n).n` rows."""
    if n_obs is not None and n_obs > N:
        raise ValueError(f"N_obs={n_obs} exceeds the trajectory truncation {N}")
    return N if n_obs is None else int(n_obs)


def _pairing_rows(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re sum_c v_k,c conj(x_k,c) per stored mode k, over the last axis c.

    The complex product is NumPy's, which rounds its real part with an
    FMA, and the length-2 sum is `_sum_pair`: the bits of
    `(np.conj(v) * x).real.sum(axis=-1)` at a fraction of its time.
    """
    # Re(v conj(x)) = Re(conj(v) x), with conj(v) as the product buffer
    prod = np.conj(v)
    prod *= x
    return _sum_pair(prod.real)


def _sum_pair(r: np.ndarray) -> np.ndarray:
    """r.sum(axis=-1) over a last axis of length 2, bit for bit.  NumPy's
    sum starts from +0.0, so two -0.0 sum to +0.0; the `+ 0.0` does too."""
    out = r[..., 0] + 0.0
    out += r[..., 1]
    return out


@dataclass(eq=False)
class Trajectory:
    """Sampled path of the spectral state with optional noise log.

    `times` and `states` hold every store_every-th step including the
    initial condition; `noise_log` (when kept) holds the applied noise
    vectors of every internal step, which the estimator module uses to
    reconstruct martingale terms exactly.  The states are not meant to
    change after construction: `left_pairing` memoizes on them.
    """

    times: np.ndarray
    states: List[SpectralField]
    params: ModelParams
    config: SolverConfig
    seed: Optional[int] = None
    noise_log: Optional[List[np.ndarray]] = None
    # left_pairing memo, keyed by kind or, for advection, source truncation
    _pairing: Dict[Union[int, str], np.ndarray] = field(
        default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.times) < 1:
            raise ValueError("trajectory needs at least one sample")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("times must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        Ns = {s.N for s in self.states}
        if len(Ns) > 1:
            raise ValueError("all states must share one truncation")
        if (self.noise_log is not None
                and len(self.noise_log) != (self.n_samples - 1) * self.config.store_every):
            raise ValueError("noise log length inconsistent with samples")

    @property
    def N(self) -> int:
        return self.states[0].N

    @property
    def n_samples(self) -> int:
        return len(self.states)

    def coefficient_stack(self) -> np.ndarray:
        """All stored coefficients as one (n_samples, n_modes, 2) array."""
        return np.stack([s.coeffs for s in self.states])

    def aggregated_noise(self) -> np.ndarray:
        """Per-sample noise sums, shape (n_samples - 1, n_modes, 2).

        Entry j collects the noise applied between stored samples j and
        j+1 (store_every internal steps).
        """
        if self.noise_log is None:
            raise ValueError("trajectory carries no noise log")
        stack = np.stack(self.noise_log)
        return stack.reshape(self.n_samples - 1, -1, *stack.shape[1:]).sum(axis=1)

    def left_pairing(self, kind: str, cut: Optional[int] = None) -> np.ndarray:
        """Re sum_c V_i,k,c conj(X_i,k,c) per left sample i and mode k, kept.

        X is V_i itself for "energy", V_{i+1} - V_i for "ito", the noise
        applied between samples i and i+1 for "noise" (needs a noise log),
        and P B(src_i, src_i) for "advection", with src_i the modes
        |k| <= `cut` of V_i (all of V_i when `cut` is None), a field on
        truncation `cut`'s own grid: its rows are only those modes.
        "energy" and "ito" come from one `coefficient_stack` call;
        "noise", which no estimator reads, is built only when asked for,
        from its own.  B is evaluated once per sample and truncation:
        `simulate_path` hands over the full-truncation rows.  "energy"
        squares |V| in place, and every kind sums its two components
        with `_sum_pair`, bit for bit as `np.sum(..., axis=2)` would.
        """
        key: Union[int, str] = kind
        if kind == "advection":
            key = _observed_truncation(self.N, cut)
        elif kind not in ("energy", "ito", "noise"):
            raise ValueError(f"unknown pairing kind {kind!r}")
        elif kind == "noise" and self.noise_log is None:
            raise ValueError("trajectory carries no noise log")
        if key in self._pairing:
            return self._pairing[key]
        if kind == "advection":
            n = mode_table(key).n
            rows = np.empty((self.n_samples - 1, n))
            for i, state in enumerate(self.states[:-1]):
                src = SpectralField(key, state.coeffs[:n])
                b = hydrostatic_leray(nonlinear_B(src, src)).coeffs
                rows[i] = _pairing_rows(src.coeffs, b)
            self._pairing[key] = rows
        elif kind == "noise":
            self._pairing[key] = _pairing_rows(self.coefficient_stack()[:-1],
                                               self.aggregated_noise())
        else:
            stack = self.coefficient_stack()
            left = stack[:-1]
            sq = np.abs(left)
            sq *= sq
            self._pairing["energy"] = _sum_pair(sq)
            self._pairing["ito"] = _pairing_rows(left, np.diff(stack, axis=0))
        return self._pairing[key]


def check_grid(params: ModelParams, cfg: SolverConfig) -> int:
    """The number of steps over [0, params.T], or a ValueError naming the config key.

    dt must divide T into whole steps and store_every must divide the
    step count, so the final sample lands on T; an EulerMaruyama step
    must keep dt * lambda_max below 2, or its diffusion grows.
    """
    n_steps = int(round(params.T / cfg.dt))
    if n_steps < 1 or abs(n_steps * cfg.dt - params.T) > 1e-8 * max(1.0, params.T):
        raise ValueError(f"config key dt must divide the horizon T = {_fmt(params.T)} "
                         f"into whole steps, not {_fmt(cfg.dt)}")
    if n_steps % cfg.store_every != 0:
        raise ValueError(f"config key store_every must divide the number of steps "
                         f"{n_steps}, not {cfg.store_every}")
    if cfg.scheme == "EulerMaruyama":
        dt_lam = cfg.dt * _step_factors(cfg.N, cfg.dt, params).lam_max
        if dt_lam >= 2.0:
            raise ValueError(f"config key dt must keep dt*lambda_max below 2 in an "
                             f"EulerMaruyama step at N = {cfg.N}, not {_fmt(cfg.dt)} "
                             f"(dt*lambda_max = {dt_lam:.3g}: unstable)")
    return n_steps


def simulate_path(params: ModelParams, V0: Optional[SpectralField],
                  cfg: SolverConfig, rng: Union[int, np.random.Generator],
                  log_noise: bool = True) -> Trajectory:
    """Integrate one sample path over [0, params.T].

    `rng` may be a seed (recorded in the trajectory for provenance) or a
    Generator.  The grid must pass `check_grid`.
    """
    if isinstance(rng, (int, np.integer)):
        seed: Optional[int] = int(rng)
        gen = np.random.default_rng(seed)
    else:
        seed = None
        gen = rng
    n_steps = check_grid(params, cfg)
    if V0 is None:
        V0 = SpectralField.zeros(cfg.N)
    if V0.N != cfg.N:
        raise ValueError(f"initial state truncation {V0.N} != config N {cfg.N}")
    if not V0.is_divergence_free():
        raise ValueError("initial state must have a divergence-free horizontal average")
    fac = _step_factors(cfg.N, cfg.dt, params)
    times = [0.0]
    states = [V0]
    noise_log: List[np.ndarray] = []
    # the pairing of each stored left-endpoint state with the advection
    # term its step applied, so the estimators need not evaluate B again
    pairing = np.empty((n_steps // cfg.store_every, fac.n)) if cfg.include_nonlinear else None
    state = V0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            incr = draw_increments(cfg, params, gen)
            if log_noise:
                noise_log.append(incr)
            left = state
            try:
                state, b = _step(state, cfg, params, incr)
            except BlowUpError:
                raise BlowUpError(
                    f"trajectory blew up at step {i + 1} of {n_steps} "
                    f"(t = {(i + 1) * cfg.dt:.6g})",
                    step_index=i + 1,
                    time=(i + 1) * cfg.dt,
                ) from None
            if b is not None and i % cfg.store_every == 0:
                pairing[i // cfg.store_every] = _pairing_rows(left.coeffs, b)
            if (i + 1) % cfg.store_every == 0:
                times.append((i + 1) * cfg.dt)
                states.append(state)
    traj = Trajectory(
        times=np.array(times),
        states=states,
        params=params,
        config=cfg,
        seed=seed,
        noise_log=noise_log if log_noise else None,
    )
    if pairing is not None:
        traj._pairing[cfg.N] = pairing
    return traj


# ---------------------------------------------------------------------------
# trajectory serialization

def trajectory_to_text(traj: Trajectory, include_noise: bool = False) -> str:
    """Versioned text dump: header, one field block per sample, optional
    per-step noise rows.  repr() float formatting keeps round trips exact."""
    p, c = traj.params, traj.config
    buf = io.StringIO()
    buf.write(f"# {TRAJECTORY_FORMAT_TAG} basis={BASIS_TAG}\n")
    buf.write(
        f"# params nu_h={_fmt(p.nu_h)} nu_z={_fmt(p.nu_z)} f0={_fmt(p.f0)} "
        f"sigma0={_fmt(p.sigma0)} gamma={_fmt(p.gamma)} q={p.q} "
        f"alpha={_fmt(p.alpha)} N={p.N} T={_fmt(p.T)}\n"
    )
    buf.write(
        f"# config N={c.N} dt={_fmt(c.dt)} scheme={c.scheme} "
        f"convolution={c.convolution} store_every={c.store_every} "
        f"include_nonlinear={c.include_nonlinear}\n"
    )
    buf.write(f"# seed {'none' if traj.seed is None else traj.seed}\n")
    n_noise = len(traj.noise_log) if (include_noise and traj.noise_log) else 0
    buf.write(f"# samples {traj.n_samples} noise {n_noise}\n")
    for t, state in zip(traj.times, traj.states):
        buf.write(f"time {_fmt(t)}\n")
        buf.write(field_to_text(state))
    for j in range(n_noise):
        buf.write(f"noise-step {j}\n")
        buf.write(_rows_to_text(traj.noise_log[j]))
    return buf.getvalue()


def _line(lines: List[str], i: int, what: str) -> str:
    """Line i (0-based) of a trajectory text, which should hold `what`."""
    if i >= len(lines):
        raise ValueError(f"trajectory text ends before line {i + 1}, which should hold {what}")
    return lines[i]


def _parse_kv(lines: List[str], i: int, prefix: str) -> Dict[str, str]:
    line = _line(lines, i, f"the {prefix!r} header")
    if not line.startswith(prefix):
        raise ValueError(f"line {i + 1}: expected the {prefix!r} header")
    parts = line[len(prefix):].split()
    if not all("=" in part for part in parts):
        raise ValueError(f"line {i + 1}: header fields must read key=value")
    return dict(part.split("=", 1) for part in parts)


def trajectory_from_text(text: str) -> Trajectory:
    """Parse `trajectory_to_text` output; malformed input raises ValueError naming the line."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith(f"# {TRAJECTORY_FORMAT_TAG}"):
        raise ValueError("unrecognized trajectory header")
    pk = _parse_kv(lines, 1, "# params")
    ck = _parse_kv(lines, 2, "# config")
    try:
        params = ModelParams(
            nu_h=float(pk["nu_h"]), nu_z=float(pk["nu_z"]), f0=float(pk["f0"]),
            sigma0=float(pk["sigma0"]), gamma=float(pk["gamma"]),
            q=Fraction(pk["q"]), alpha=float(pk["alpha"]), N=int(pk["N"]),
            T=float(pk["T"]),
        )
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"line 2: bad params header ({exc!r})") from None
    flag = ck.get("include_nonlinear")
    if flag not in ("True", "False"):
        raise ValueError(f"line 3: include_nonlinear must be True or False, not {flag!r}")
    try:
        cfg = SolverConfig(
            N=int(ck["N"]), dt=float(ck["dt"]), scheme=ck["scheme"],
            convolution=ck["convolution"], store_every=int(ck["store_every"]),
            include_nonlinear=flag == "True",
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(f"line 3: bad config header ({exc!r})") from None
    seed_line = _line(lines, 3, "the seed").split()
    try:
        seed = None if seed_line[-1] == "none" else int(seed_line[-1])
    except (IndexError, ValueError):
        raise ValueError("line 4: bad seed header") from None
    counts = re.fullmatch(r"# samples (\d+) noise (\d+)",
                          _line(lines, 4, "the sample and noise counts"))
    n_samples, n_noise = map(int, counts.groups()) if counts else (0, -1)
    if n_samples < 1 or n_noise not in (0, (n_samples - 1) * cfg.store_every):
        raise ValueError("line 5: expected '# samples <n> noise <m>' with n >= 1 and m 0 "
                         f"or (n - 1) * {cfg.store_every}, not {lines[4]!r}")
    n_modes = mode_table(cfg.N).n

    pos = 5
    times: List[float] = []
    states: List[SpectralField] = []
    for _ in range(n_samples):
        marker = _line(lines, pos, "a time marker").split()
        try:
            if marker[0] != "time":
                raise ValueError
            t = float(marker[1])
        except (IndexError, ValueError):
            raise ValueError(f"expected a time marker at line {pos + 1}") from None
        if not math.isfinite(t):
            raise ValueError(f"line {pos + 1}: time {marker[1]} is not finite")
        times.append(t)
        _line(lines, pos + 1, "a field header")
        end = pos + 2 + n_modes
        states.append(_field_from_lines(lines[pos + 1: end], range(pos + 2, end + 1)))
        pos = end
    noise_log: Optional[List[np.ndarray]] = [] if n_noise else None
    for j in range(n_noise):
        if _line(lines, pos, f"noise-step {j}") != f"noise-step {j}":
            raise ValueError(f"expected noise-step {j} at line {pos + 1}")
        _line(lines, pos + n_modes, f"row {n_modes - 1} of noise-step {j}")
        end = pos + 1 + n_modes
        noise_log.append(_rows_from_text(lines[pos + 1: end], range(pos + 2, end + 1)))
        pos = end
    if pos < len(lines):
        raise ValueError(f"line {pos + 1}: unexpected text after the last "
                         f"{'noise' if n_noise else 'field'} block")
    return Trajectory(
        times=np.array(times), states=states, params=params, config=cfg,
        seed=seed, noise_log=noise_log,
    )
