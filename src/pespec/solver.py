"""Galerkin time stepping for the truncated rotating hydrostatic model.

The state is a SpectralField of horizontal-velocity coefficients.  Its
drift splits into the per-mode linear part (diffusion plus rotation,
solved exactly in the complex-rate picture of `linear`) and the
projected advection term P B(V, V).  B is computed in flux form on a
collocation grid dealiased by the 3/2 rule, exact on the truncation, by
depth parity: every field it involves is a cosine or a sine series in
z, so real 2D transforms run on the N + 1 coefficient planes m3 = 0..N
and one small real matrix product (GEMM) maps them to the half period
along z or back (B(u, u): 8 scipy.fft calls and 8 GEMMs); the exact
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
from functools import lru_cache
from typing import Dict, List, Optional, Union

import numpy as np
from scipy import fft as sfft

from .linear import StrandSampler, _phi1, mode_rates, mode_strands
from .modes import (
    BASIS_TAG,
    SpectralField,
    _fmt,
    field_from_text,
    field_to_text,
    hydrostatic_leray,
    mode_table,
)
from .params import ModelParams

__all__ = [
    "SolverConfig",
    "Trajectory",
    "BlowUpError",
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
    """Stored modes unfolded onto the full exponential lattice.

    Each canonical stored mode owns one, two or four exponential sites
    e^{i k.x}: the cosine in z splits into (k', +-k3) at weight 1/sqrt(2)
    and the implicit reality partner adds (-k', +-k3) with conjugated
    values.  `rows`, `conj` and `scale` turn a stored coefficient array
    into per-site values in one fancy-indexing pass.

    The transform grid takes G = next_fast_len(3N + 1) points along x
    and y and the M + 1 points z_j = pi j / M of the even extension of
    length Gz = 2M, M = ceil((3N + 1)/2): the z transforms are matrix
    products, which need no fast length.  `cos_syn` and `sin_syn` map
    the cosine planes 0..N or sine planes 1..N to the grid (the sine
    to its interior rows), `cos_ana` and `sin_ana` map it back; each is
    the DCT-I or DST-I of an identity.  Every
    field of B is even or odd in z, so it is fixed by its sites with
    m3 >= 0, and real, so each of its planes is fixed by m1 >= 0:
    `fill` selects those sites and `fill_index` places them in the
    (N + 1, G, G//2 + 1) coefficient planes [m3, m2, m1].  Canonical
    modes have k1 >= 0, so mode k reads an even flux at `read_index`,
    (k3, k2, k1), and an odd one, whose planes start at m3 = 1, at
    `read_odd`.  `deriv` holds the per-mode factors i k1, i k2 and k3
    of the three flux divergence terms, each times the weight of the
    mode's z-images (sqrt(2) for k3 > 0).
    """

    def __init__(self, N: int):
        tab = mode_table(N)
        entries: List[tuple] = []  # (site, row, conj, scale) per site
        for i, k in enumerate(tab.modes):
            s = 1.0 / _SQRT2 if k.k3 > 0 else 1.0
            images = [((k.k1, k.k2, k.k3), False)]
            if k.k3 > 0:
                images.append(((k.k1, k.k2, -k.k3), False))
            if not k.is_self_paired:
                images += [((-k1, -k2, k3), True) for (k1, k2, k3), _ in images]
            entries += [(site, i, c, s) for site, c in images]
        sites, rows, conj, scale = zip(*entries)
        self.sites = np.array(sites, dtype=int)
        self.rows = np.array(rows, dtype=int)
        self.conj = np.array(conj, dtype=bool)
        self.scale = np.array(scale, dtype=float)
        self.G = G = sfft.next_fast_len(3 * N + 1)
        self.M = M = (3 * N + 2) // 2
        self.cos_syn = sfft.dct(np.eye(N + 1), type=1, n=M + 1, axis=0)
        self.cos_ana = sfft.dct(np.eye(M + 1), type=1, axis=0, norm="forward")[:N + 1]
        self.sin_syn = sfft.dst(np.eye(N), type=1, n=M - 1, axis=0)
        self.sin_ana = sfft.dst(np.eye(M - 1), type=1, axis=0, norm="forward")[:N]
        self.fill = np.flatnonzero((self.sites[:, 2] >= 0) & (self.sites[:, 0] >= 0))
        m1, m2, m3 = self.sites[self.fill].T
        self.fill_index = (m3, m2 % G, m1)
        self.read_index = (tab.k3, tab.k2 % G, tab.k1)
        # a k3 = 0 mode reads plane m3 = 1 here, and its factor k3 zeroes it
        self.read_odd = (np.maximum(tab.k3 - 1, 0), tab.k2 % G, tab.k1)
        s = np.where(tab.k3 > 0, _SQRT2, 1.0)
        self.deriv = (1j * tab.k1 * s, 1j * tab.k2 * s, tab.k3 * s)
        self.self_paired = tab.self_paired


@lru_cache(maxsize=32)
def _site_layout(N: int) -> _SiteLayout:
    return _SiteLayout(int(N))


def _site_values(lay: _SiteLayout, f: SpectralField, sel=slice(None)) -> np.ndarray:
    """Per-site values of f on the sites `sel` (all of them by default)."""
    vals = f.coeffs[lay.rows[sel]] * lay.scale[sel, None]
    conj = lay.conj[sel]
    vals[conj] = np.conj(vals[conj])
    return vals


def _w_site_values(sites: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Exponential coefficients of w(f) from the per-site values of f."""
    m3 = sites[:, 2]
    div = sites[:, 0] * vals[:, 0] + sites[:, 1] * vals[:, 1]
    return np.where(m3 != 0, -div / np.where(m3 != 0, m3, 1), 0.0)


def _convolve_pseudospectral(f: SpectralField, g: SpectralField) -> np.ndarray:
    """B(f, g) in flux form by cosine and sine transforms on a zero-padded grid.

    Component c is d1(f1 g_c) + d2(f2 g_c) + dz(w g_c) (see `nonlinear_B`).
    With G, Gz >= 3N + 1 points per period every kept flux coefficient
    is exact up to roundoff: products of modes bounded by N alias only
    beyond N.  f_a and g_c are cosine series in z and w a sine series,
    its sites times i so that each m3 plane is Hermitian: irfft2 on the
    N + 1 planes m3 >= 0, then one GEMM along z by `cos_syn` or
    `sin_syn` on the (planes, G*G) view of the result.  The even fluxes
    f_a g_c go back by `cos_ana` and rfft2 to F, so d_a is i m_a F; the
    odd fluxes w g_c by `sin_ana` and rfft2 to i times their
    coefficients, S, so dz is m3 S.  When g is f, f's grids serve as g's
    and f1 g2 as f2 g1: 3 inverse and 5 forward transforms, 8 scipy.fft
    calls and 8 GEMMs, in place of 5 and 6.
    """
    lay = _site_layout(f.N)
    G, M, N = lay.G, lay.M, f.N
    sites = lay.sites[lay.fill]

    def along_z(mat: np.ndarray, p: np.ndarray) -> np.ndarray:
        return (mat @ p.reshape(len(p), -1)).reshape(len(mat), *p.shape[1:])

    def grid(vals: np.ndarray, odd: bool = False) -> np.ndarray:
        c = np.zeros((N + 1, G, G // 2 + 1), dtype=complex)
        c[lay.fill_index] = vals
        if odd:  # rows z_1..z_{M-1}: a sine vanishes at z = 0 and pi
            return along_z(lay.sin_syn, sfft.irfft2(c[1:], s=(G, G), norm="forward"))
        return along_z(lay.cos_syn, sfft.irfft2(c, s=(G, G), norm="forward"))

    def even_flux(p: np.ndarray) -> np.ndarray:
        return sfft.rfft2(along_z(lay.cos_ana, p), norm="forward")[lay.read_index]

    def odd_flux(p: np.ndarray) -> np.ndarray:
        return sfft.rfft2(along_z(lay.sin_ana, p), norm="forward")[lay.read_odd]

    fv = _site_values(lay, f, lay.fill)
    u = [grid(fv[:, 0]), grid(fv[:, 1])]
    w = grid(1j * _w_site_values(sites, fv), odd=True)
    v = u if g is f else [grid(gc) for gc in _site_values(lay, g, lay.fill).T]
    d1, d2, d3 = lay.deriv
    flux = {}
    out = np.empty((len(d1), 2), dtype=complex)
    for c in range(2):
        for a in range(2):
            flux[a, c] = flux[c, a] if g is f and a < c else even_flux(u[a] * v[c])
        out[:, c] = d1 * flux[0, c] + d2 * flux[1, c] + d3 * odd_flux(w * v[c][1:M])
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
    """

    def __init__(self, N: int, dt: float, params: ModelParams):
        tab = mode_table(N)
        lam, f0, _ = mode_rates(params, tab.kp_sq, tab.k3_sq)
        self.n = tab.n
        self.z = lam + 1j * f0
        self.decay = np.exp(-self.z * dt)
        self.phi = dt * np.array([_phi1(-zz * dt) for zz in self.z])
        self.lam_max = float(lam.max())
        owner, lam_s, f0_s, amp_s, zeta = mode_strands(params, N, np.arange(tab.n))
        self.strands = StrandSampler(lam_s, f0_s, amp_s, zeta, dt)
        self.wiener = math.sqrt(dt) * amp_s * zeta
        # the second strand of a conjugate pair holds its imaginary parts
        part = np.r_[0, owner[1:] == owner[:-1]]
        self.slots = (4 * owner[:, None] + 2 * np.arange(2) + part[:, None]).ravel()


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
        bf = nonlinear_B(state, state, cfg.resolved_convolution())
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


def _truncate(f: SpectralField, cut: int) -> SpectralField:
    keep = f.table.k_sq <= cut * cut
    return f.with_coeffs(f.coeffs * keep[:, None])


def _pairing_rows(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re sum_c v_k,c conj(x_k,c) per stored mode k, over the last axis c."""
    # Re(v conj(x)) = Re(conj(v) x), with conj(v) as the product buffer
    prod = np.conj(v)
    prod *= x
    return prod.real.sum(axis=-1)


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
        and P B(src_i, src_i) for "advection", with src_i = V_i truncated
        to |k| <= `cut` (all of V_i when `cut` is None).  "energy" and
        "ito" come from one `coefficient_stack` call; "noise", which no
        estimator reads, is built only when asked for, from its own.  B
        is evaluated once per sample and truncation: `simulate_path`
        hands over the full-truncation rows from the steps it took.
        """
        key: Union[int, str] = kind
        if kind == "advection":
            key = self.N if cut is None else min(int(cut), self.N)
        elif kind not in ("energy", "ito", "noise"):
            raise ValueError(f"unknown pairing kind {kind!r}")
        elif kind == "noise" and self.noise_log is None:
            raise ValueError("trajectory carries no noise log")
        if key in self._pairing:
            return self._pairing[key]
        if kind == "advection":
            method = self.config.resolved_convolution()
            rows = np.empty((self.n_samples - 1, len(self.states[0].coeffs)))
            for i, state in enumerate(self.states[:-1]):
                src = state if key == self.N else _truncate(state, key)
                b = hydrostatic_leray(nonlinear_B(src, src, method)).coeffs
                rows[i] = _pairing_rows(state.coeffs, b)
            self._pairing[key] = rows
        elif kind == "noise":
            self._pairing[key] = _pairing_rows(self.coefficient_stack()[:-1],
                                               self.aggregated_noise())
        else:
            stack = self.coefficient_stack()
            left = stack[:-1]
            self._pairing["energy"] = np.sum(np.abs(left) ** 2, axis=2)
            self._pairing["ito"] = _pairing_rows(left, np.diff(stack, axis=0))
        return self._pairing[key]


def simulate_path(params: ModelParams, V0: Optional[SpectralField],
                  cfg: SolverConfig, rng: Union[int, np.random.Generator],
                  log_noise: bool = True) -> Trajectory:
    """Integrate one sample path over [0, params.T].

    `rng` may be a seed (recorded in the trajectory for provenance) or a
    Generator.  dt must divide T into whole steps and store_every must
    divide the step count, so the final sample always lands on T.
    """
    if isinstance(rng, (int, np.integer)):
        seed: Optional[int] = int(rng)
        gen = np.random.default_rng(seed)
    else:
        seed = None
        gen = rng
    n_steps = int(round(params.T / cfg.dt))
    if n_steps < 1 or abs(n_steps * cfg.dt - params.T) > 1e-8 * max(1.0, params.T):
        raise ValueError("dt must divide the horizon T into whole steps")
    if n_steps % cfg.store_every != 0:
        raise ValueError("store_every must divide the number of steps")
    if V0 is None:
        V0 = SpectralField.zeros(cfg.N)
    if V0.N != cfg.N:
        raise ValueError(f"initial state truncation {V0.N} != config N {cfg.N}")
    if not V0.is_divergence_free():
        raise ValueError("initial state must have a divergence-free horizontal average")
    fac = _step_factors(cfg.N, cfg.dt, params)
    if cfg.scheme == "EulerMaruyama" and cfg.dt * fac.lam_max >= 2.0:
        raise ValueError(
            f"explicit Euler diffusion step unstable: dt*lambda_max = "
            f"{cfg.dt * fac.lam_max:.3g} >= 2"
        )
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
    if n_noise:
        for j, incr in enumerate(traj.noise_log):
            buf.write(f"noise-step {j}\n")
            for u, v in incr:
                buf.write(
                    f"{_fmt(u.real)},{_fmt(u.imag)},{_fmt(v.real)},{_fmt(v.imag)}\n"
                )
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
        block = "\n".join(lines[pos + 1: pos + 2 + n_modes])
        try:
            states.append(field_from_text(block))
        except ValueError as exc:
            raise ValueError(f"field block from line {pos + 2}: {exc}") from None
        pos += 1 + 1 + n_modes
    noise_log: Optional[List[np.ndarray]] = None
    if n_noise:
        noise_log = []
        for j in range(n_noise):
            if _line(lines, pos, f"noise-step {j}") != f"noise-step {j}":
                raise ValueError(f"expected noise-step {j} at line {pos + 1}")
            try:
                rows = np.array(
                    [[float(x) for x in ln.split(",")]
                     for ln in lines[pos + 1: pos + 1 + n_modes]]
                )
                if rows.shape != (n_modes, 4):
                    raise ValueError
            except ValueError:
                raise ValueError(f"noise-step {j} at line {pos + 1} needs {n_modes} "
                                 "rows of four numbers") from None
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if len(bad):
                raise ValueError(f"line {pos + 2 + bad[0]}: non-finite noise in row {bad[0]}")
            # assemble by part assignment: complex arithmetic would
            # normalize signed zeros and break byte-exact round trips
            incr = np.empty((n_modes, 2), dtype=complex)
            incr.real = rows[:, 0::2]
            incr.imag = rows[:, 1::2]
            noise_log.append(incr)
            pos += 1 + n_modes
    if pos < len(lines):
        raise ValueError(f"line {pos + 1}: unexpected text after the last "
                         f"{'noise' if n_noise else 'field'} block")
    return Trajectory(
        times=np.array(times), states=states, params=params, config=cfg,
        seed=seed, noise_log=noise_log,
    )
