"""Monte Carlo orchestration, report writers, and appendix checks.

Every CLI command is one run here that returns a RunReport.  LinearExact
mode samples the linear model's estimator sums exactly at the estimation
grid, one squared norm per lattice-shell class of non-rotating strands
and one complex path per rotating strand, so consistency and normality
sweeps measure estimator behaviour free of solver bias.  Every other
path, those of `run_simulate` and `run_estimate` included, comes from
one builder, `_simulate`.  Separate entry points validate the linear
moments against their closed forms and check the lattice counting facts
used by the asymptotic constants.

Reports are plain CSV plus a one-line JSON manifest carrying the config
hash, seed, outputs, gates and warnings; nothing timestamped, so a rerun
with the same seed is byte-identical.  Statistical gates are hard (they
decide the exit code of the CLI); sweep-shape checks are soft warnings.
"""
from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .estimators import (EstimatorConfig, _smallest_resonant_truncation, estimate_nu_h,
                         estimate_nu_z, estimate_nu_z_hat, theoretical_covariance)
from .linear import (ShellSampler, StrandSampler, _psi_array, energy_sum_cumulants,
                     mode_rates, mode_strands)
from .modes import BAROTROPIC, ModeSelector, _fmt, mode_table, random_field, selector_mask
from .params import ModelParams, as_fraction
from .solver import SolverConfig, Trajectory, check_grid, simulate_path, trajectory_to_text

__all__ = [
    "ExperimentConfig",
    "load_config",
    "config_text",
    "config_hash",
    "run_simulate",
    "run_estimate",
    "run_consistency",
    "run_normality",
    "run_linear_validation",
    "number_theory_checks",
    "linear_exact_estimates",
    "linear_moment_check",
    "finite_n_covariance",
]

MODES = ("LinearExact", "LinearViaSolver", "FullNonlinear")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, in one frozen bundle.

    The estimator default is the truncation-aware variant V2: harness
    runs observe complete simulated paths, where the full-path variant
    V1 has no headroom unless N_obs is set below the truncation.
    """

    params: ModelParams = ModelParams()
    solver: SolverConfig = SolverConfig(N=8, dt=1e-3)
    estimator: EstimatorConfig = EstimatorConfig(variant="V2")
    replications: int = 200
    N_sweep: Tuple[int, ...] = (4, 8, 12)
    seed: int = 2026
    mode: str = "LinearExact"
    output_dir: Path = Path("runs")

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:  # NumPy's generators take no negative seed
            raise ValueError(f"config key seed must be a non-negative integer, not '{self.seed}'")
        sweep = tuple(int(n) for n in self.N_sweep)
        if not sweep or any(b <= a for a, b in zip(sweep, sweep[1:])):
            raise ValueError("N_sweep must be nonempty and strictly ascending")
        if sweep[0] < 1:
            raise ValueError("config key N_sweep must be truncations >= 1, "
                             f"not '{','.join(map(str, sweep))}'")
        object.__setattr__(self, "N_sweep", sweep)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        # the runs read params.alpha and params.q, so a differing estimator
        # copy would be ignored without a word
        for name in ("alpha", "q"):
            est, par = getattr(self.estimator, name), getattr(self.params, name)
            if est != par:
                raise ValueError(f"estimator.{name} = {est} differs from params.{name} = {par}; "
                                 f"the runs estimate at params.{name}, so set both alike")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


# ---------------------------------------------------------------------------
# flat key=value configuration files

_PARAM_KEYS = {"nu_h", "nu_z", "f0", "sigma0", "gamma", "T", "alpha"}
_SOLVER_KEYS = {"N", "dt", "scheme", "convolution", "store_every", "include_nonlinear"}


def load_config(path, overrides: Optional[Dict[str, str]] = None) -> ExperimentConfig:
    """Read a flat key=value file; later keys win, then `overrides`."""
    raw: Dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"config line without '=': {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    raw.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return _config_from_dict(raw)


_KIND_NAMES = {int: "an integer", float: "a finite number", Fraction: "a rational number"}


def _number(raw: Dict[str, str], key: str, kind, what: str = ""):
    """raw[key] parsed by `kind`; a malformed or non-finite value raises a
    ValueError naming the key."""
    try:
        value = kind(raw[key])
        if kind is float and not math.isfinite(value):
            raise ValueError
        return value
    except (ValueError, ZeroDivisionError):
        what = what or _KIND_NAMES[kind]
        raise ValueError(f"config key {key} must be {what}, not {raw[key]!r}") from None


def _config_from_dict(raw: Dict[str, str]) -> ExperimentConfig:
    known = (_PARAM_KEYS | _SOLVER_KEYS
             | {"q", "variant", "N_obs", "replications", "N_sweep", "seed",
                "mode", "output_dir"})
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    pk = {k: _number(raw, k, float) for k in _PARAM_KEYS if k in raw}
    if "q" in raw:
        pk["q"] = as_fraction(_number(raw, "q", Fraction))
    params = ModelParams(**pk)

    sk: Dict[str, object] = {k: raw[k] for k in ("scheme", "convolution") if k in raw}
    for key, kind in (("N", int), ("dt", float), ("store_every", int)):
        if key in raw:
            sk[key] = _number(raw, key, kind)
    if "include_nonlinear" in raw:
        flag = raw["include_nonlinear"].lower()
        if flag not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError("config key include_nonlinear must be one of 1/true/yes/0/false/no, "
                             f"not {raw['include_nonlinear']!r}")
        sk["include_nonlinear"] = flag in ("1", "true", "yes")
    solver = SolverConfig(**{"N": 8, "dt": 1e-3, **sk})

    ek: Dict[str, object] = {"alpha": params.alpha, "q": params.q,
                             "variant": raw.get("variant", "V2")}
    if raw.get("N_obs"):
        ek["N_obs"] = _number(raw, "N_obs", int)
    estimator = EstimatorConfig(**ek)

    kwargs: Dict[str, object] = {"params": params, "solver": solver,
                                 "estimator": estimator}
    if "replications" in raw:
        kwargs["replications"] = _number(raw, "replications", int)
    if "N_sweep" in raw:
        kwargs["N_sweep"] = _number(
            raw, "N_sweep", lambda v: tuple(int(x) for x in v.split(",") if x.strip()),
            "a comma-separated list of integers")
    if "seed" in raw:
        kwargs["seed"] = _number(raw, "seed", int)
    if "mode" in raw:
        kwargs["mode"] = raw["mode"]
    if "output_dir" in raw:
        kwargs["output_dir"] = Path(raw["output_dir"])
    return ExperimentConfig(**kwargs)


def config_text(cfg: ExperimentConfig) -> str:
    """Canonical flat rendering, the input to the config hash.

    The output directory is deliberately absent: where a run lands does
    not change what it computes, and the reports of two runs into
    different directories are meant to be byte-identical.  For the same
    reason the advection backend enters by its resolved name, so the
    legacy `convolution` spellings of one backend share a hash.  Floats
    go through `_fmt`, so a NumPy float and the equal Python float do too.
    """
    p, s, e = cfg.params, cfg.solver, cfg.estimator
    lines = [
        f"nu_h = {_fmt(p.nu_h)}", f"nu_z = {_fmt(p.nu_z)}", f"f0 = {_fmt(p.f0)}",
        f"sigma0 = {_fmt(p.sigma0)}", f"gamma = {_fmt(p.gamma)}", f"q = {p.q}",
        f"alpha = {_fmt(p.alpha)}", f"T = {_fmt(p.T)}",
        f"N = {s.N}", f"dt = {_fmt(s.dt)}", f"scheme = {s.scheme}",
        f"convolution = {s.resolved_convolution()}", f"store_every = {s.store_every}",
        f"include_nonlinear = {s.include_nonlinear}",
        f"variant = {e.variant}", f"N_obs = {'' if e.N_obs is None else e.N_obs}",
        f"replications = {cfg.replications}",
        f"N_sweep = {','.join(str(n) for n in cfg.N_sweep)}",
        f"seed = {cfg.seed}", f"mode = {cfg.mode}",
    ]
    return "\n".join(lines) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# report plumbing

def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    out = [",".join(header)]
    out.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(out) + "\n")
    return path


def _write_manifest(path: Path, entry: Dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entry, sort_keys=True) + "\n")
    return path


@dataclass
class GateResult:
    name: str
    passed: bool
    observed: float
    bound: float
    hard: bool = True

    def __post_init__(self) -> None:
        # numpy scalars sneak in from comparisons; JSON wants natives
        self.passed = bool(self.passed)
        self.observed = float(self.observed)
        self.bound = float(self.bound)

    def row(self) -> List:
        return [self.name, "pass" if self.passed else "FAIL",
                self.observed, self.bound, "hard" if self.hard else "soft"]


@dataclass
class RunReport:
    """Common shape for every harness run."""

    command: str
    outputs: List[Path] = field(default_factory=list)
    gates: List[GateResult] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)     # result lines, not in the manifest

    @property
    def hard_ok(self) -> bool:
        return all(g.passed for g in self.gates if g.hard)

    def manifest_entry(self, cfg: ExperimentConfig) -> Dict:
        # file names, not paths, so reruns into another directory stay
        # byte-identical
        return {
            "command": self.command,
            "config_hash": config_hash(cfg),
            "seed": cfg.seed,
            "outputs": [p.name for p in self.outputs],
            "gates": {g.name: g.passed for g in self.gates},
            "warnings": self.warnings,
        }


# ---------------------------------------------------------------------------
# exact linear sampling of the estimator pair

def _estimation_grid(N: int, T: float) -> Tuple[float, int]:
    # keep lambda_max * dt about 1.4e-2 so the left-endpoint quadrature
    # bias stays a small fraction of the statistical spread, capped for
    # tiny truncations
    target = min(1e-3, 1.44e-2 / (N * N))
    n_steps = max(1, round(T / target))
    return T / n_steps, n_steps


@dataclass
class _StrandSystem:
    """The estimator's two mode families as exact samplers, with their weights.

    A strand without rotation is a real chain along its noise axis, and
    the estimator reads it only through |Z|^2 and Re(conj Z dZ); strands
    that share decay, noise scale and all four weights form one class,
    sampled by its squared norm (`shells`).  The rotating strands stay
    complex, one column each (`rotating`).  `ito` and `den` are
    (columns, 2) weights over the classes, then the rotating strands:
    column 0 is the barotropic family, column 1 the resonant one.
    """

    shells: ShellSampler
    rotating: StrandSampler
    ito: np.ndarray         # weights of the sums of Re(conj Z dZ)
    den: np.ndarray         # weights of the sums of |Z|^2
    n_steps: int

    @property
    def n_strands(self) -> int:
        return self.shells.n_strands + self.rotating.n_strands


def _family_strands(params: ModelParams, N: int, alpha: float, q):
    """The estimator families' strands and weights.

    Returns the per-strand (lam, f0, amp, zeta) of `linear.mode_strands` and
    (strands, 2) Ito and denominator weights: column 0 the barotropic
    family, column 1 the resonant one, zero off each family.
    """
    weight = mode_table(N).weight
    families = _oracle_families(N, alpha, q)
    (mask_h, *_), (mask_r, *_) = families
    owner, *strands = mode_strands(params, N, np.flatnonzero(mask_h | mask_r))

    def per_strand(j):  # the Ito (j = 0) or denominator (j = 1) weights
        return np.column_stack([(weight * np.where(mask, mu[j], 0.0))[owner]
                                for mask, *mu in families])

    return strands, per_strand(0), per_strand(1)


def _build_strands(params: ModelParams, N: int, alpha: float, q,
                   dt: float, n_steps: int) -> _StrandSystem:
    """Group the non-rotating strands into classes; see `_StrandSystem`."""
    (lam, f0, amp, zeta), ito, den = _family_strands(params, N, alpha, q)
    rot, flat = f0 != 0.0, f0 == 0.0
    strands = StrandSampler(lam[flat], f0[flat], amp[flat], zeta[flat], dt)
    keys = np.column_stack([strands.decay.real, np.hypot(strands.s11, strands.s21),
                            ito[flat], den[flat]])
    classes, size = np.unique(keys, axis=0, return_counts=True)
    return _StrandSystem(
        shells=ShellSampler(classes[:, 0], classes[:, 1], size),
        rotating=StrandSampler(lam[rot], f0[rot], amp[rot], zeta[rot], dt),
        ito=np.vstack([classes[:, 2:4], ito[rot]]),
        den=np.vstack([classes[:, 4:6], den[rot]]),
        n_steps=n_steps,
    )


def linear_exact_estimates(params: ModelParams, N: int, alpha: float, q,
                           reps: int, rng: np.random.Generator,
                           dt: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Sample (nu_h estimate, resonant nu_z estimate) from exact OU paths.

    The linear model is sampled without any time-stepping error at the
    estimation grid; with linear dynamics the advection terms do not
    belong in the model, so the estimates match the drop-advection
    variant applied to a linear trajectory.  Each step draws, in this
    order, one normal and one chi-square per class of non-rotating
    strands, then the rotating strands' normals in one draw; the class
    sums give the law of the estimator pair exactly (see `ShellSampler`).
    The steps write into arrays allocated once per call, and the
    weights are applied once, after the last step.
    """
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
    shell_work = shells.work(R.shape)
    Z = np.zeros((reps, rotating.n_strands), dtype=complex)
    Z_new, d = np.empty_like(Z), np.empty_like(Z)
    sum_sq = np.zeros(Z.shape)
    sum_pair = np.zeros(Z.shape)
    re, im = np.empty(Z.shape), np.empty(Z.shape)   # products of real, imaginary parts
    strand_work = rotating.work(Z.shape)
    # every array is allocated once; each step writes into them
    for _ in range(sysm.n_steps):
        sum_R += R
        _, cross = shells.step(R, rng, shell_work, out=R)
        sum_cross += cross
        rotating.step(Z, rng, strand_work, out=Z_new)
        np.subtract(Z_new, Z, out=d)
        sum_pair += np.add(np.multiply(Z.real, d.real, out=re),
                           np.multiply(Z.imag, d.imag, out=im), out=re)
        sum_sq += np.add(np.square(Z.real, out=re), np.square(Z.imag, out=im), out=re)
        Z, Z_new = Z_new, Z
    # over a class, sum x (x' - x) = (a - 1) R + r sqrt(R) g
    pair = np.hstack([(shells.decay - 1.0) * sum_R + shells.scale * sum_cross, sum_pair])
    I_h, I_r = (pair @ sysm.ito).T
    D_h, D_r = dt * (np.hstack([sum_R, sum_sq]) @ sysm.den).T
    if not (D_h > 0).all() or not (D_r > 0).all():
        raise ValueError("degenerate denominator in exact linear sampling")
    nu_h = -I_h / D_h
    nu_z = -I_r / D_r - float(q) * nu_h
    return nu_h, nu_z


def _oracle_families(N: int, alpha: float, q):
    """(mask, Ito weight, denominator weight) per estimator family.

    The barotropic family pairs A_h^{1+alpha} with the increments, the
    resonant family A_z A^alpha; the denominators square the half powers.
    Each family must hold a mode.
    """
    tab = mode_table(N)
    mask_h = np.array(selector_mask(N, BAROTROPIC))
    mask_r = np.array(selector_mask(N, ModeSelector.resonant(q)))
    if not mask_h.any() or not mask_r.any():
        raise ValueError("estimator families need barotropic and resonant modes")
    return ((mask_h, tab.kp_sq ** (1.0 + alpha), tab.kp_sq ** (2.0 + alpha)),
            (mask_r, tab.k3_sq * tab.k_sq ** alpha, tab.k3_sq ** 2 * tab.k_sq ** alpha))


def _left_sums(z, dt: float, n_steps: int):
    """g(dt) and sum_{i < n_steps} g(i dt) for g(t) = int_0^t exp(-2 z s) ds.

    Elementwise in z.  The sum is (n_steps - g(n_steps dt) / g(dt)) / (2 z);
    amp^2 dt times it at z = lam is the expected left-endpoint energy sum
    of a strand started at zero.
    """
    z = np.asarray(z)
    g_dt = dt * _psi_array(2.0 * z * dt)
    g_horizon = dt * n_steps * _psi_array(2.0 * z * dt * n_steps)
    return g_dt, (n_steps - g_horizon / g_dt) / (2.0 * z)


@dataclass(frozen=True)
class _OracleFamily:
    """One estimator family's modes, as the closed-form oracles read them."""

    weight: np.ndarray   # conjugate weight: 2 for a pair, 1 when self-paired
    ito: np.ndarray      # Ito weight
    den: np.ndarray      # denominator weight
    a2: np.ndarray       # squared noise amplitude
    z: np.ndarray        # lam + i f0
    g0: Tuple[np.ndarray, np.ndarray]   # `_left_sums` at lam
    g2: Tuple[np.ndarray, np.ndarray]   # `_left_sums` at z


def _oracle_table(params: ModelParams, N: int, alpha: float, q,
                  dt: float, n_steps: int) -> Tuple[_OracleFamily, _OracleFamily]:
    """The barotropic and resonant families on the grid t_i = i dt, i < n_steps."""
    tab = mode_table(N)
    lam, f0, amp = mode_rates(params, tab.kp_sq, tab.k3_sq)
    table = []
    for mask, mu_i, mu_d in _oracle_families(N, alpha, q):
        z = lam[mask] + 1j * f0[mask]
        table.append(_OracleFamily(tab.weight[mask], mu_i[mask], mu_d[mask],
                                   amp[mask] ** 2, z, _left_sums(lam[mask], dt, n_steps),
                                   _left_sums(z, dt, n_steps)))
    return tuple(table)


def _predicted_grid_bias(params: ModelParams, N: int, alpha: float, q,
                         dt: float, n_steps: int) -> Tuple[float, float]:
    """Expected shift of the scaled errors from the left-endpoint grid.

    Exact first moments of the Ito and quadratic sums (transient OU from
    zero) give the expected numerator and denominator; the ratio of
    expectations predicts where the ensemble mean sits at finite dt.  At
    step i, E|c_i|^2 = amp^2 g0(t_i) and
    E Re conj(c_i)(c_{i+1} - c_i) = (Re exp(-z dt) - 1) amp^2 g0(t_i).
    """
    def family(fam: _OracleFamily) -> float:
        energy = fam.weight * fam.a2 * fam.g0[1]
        num = np.sum(fam.ito * (np.exp(-fam.z * dt).real - 1.0) * energy)
        return float(-num / (dt * np.sum(fam.den * energy)))

    fam_h, fam_r = _oracle_table(params, N, alpha, q, dt, n_steps)
    nu_h_pred = family(fam_h)
    nu_r_pred = family(fam_r) - float(q) * nu_h_pred
    scale = N * N
    return scale * (nu_h_pred - params.nu_h), scale * (nu_r_pred - params.nu_z)


def finite_n_covariance(params: ModelParams, N: int, q, dt: float,
                        n_steps: int) -> np.ndarray:
    """Covariance of the N^2-scaled error pair (e1, e2) at truncation N.

    Delta method on the exact linear law, sampled from zero on the grid
    t_i = i dt, i < n_steps: each family's error is -M/D with M the
    martingale part of its Ito sum and D its denominator sum, and
    Var(M/D) is taken as E[M^2] / E[D]^2, both expectations exact.  A
    strand of amplitude a (conjugate pairs split into two strands of
    a/sqrt(2)) contributes a^4/2 [g0(t_i) g0(dt) + Re(g2(t_i) conj g2(dt))]
    to E[M^2] at step i, with g0 and g2 the decay-squared integrals at
    rates lam and lam + i f0; the g2 term is the rotation-aware
    E<U_k, zeta_k>^2 and equals the g0 term on the barotropic modes.  It
    does not depend on the noise direction zeta_k.

    The families ride on disjoint noise and e2 = -N^2 M_r/D_r - q e1, so
    cov12 = -q cov11 and cov22 = q^2 cov11 + N^4 Var(M_r/D_r).  The
    (0, 0) entry tends to `theoretical_covariance`'s (0, 0) entry.  The
    resonant part has no N^2 limit and keeps growing with N: the cone
    |k'|^2 = q k3^2 holds about N log N lattice sites, not the N^2 of a
    two-dimensional ball.
    """
    def ratio_variance(fam: _OracleFamily) -> float:
        (g0_dt, s0), (g2_dt, s2) = fam.g0, fam.g2
        # the weight w equals the strand count, and each strand carries amp^2 / w
        qv = np.sum(fam.weight / 2.0 * (fam.ito * fam.a2) ** 2
                    * (g0_dt * s0 + (np.conj(g2_dt) * s2).real))
        den = np.sum(fam.weight * fam.den * fam.a2 * dt * s0)
        return float(qv / den ** 2)

    fam_h, fam_r = _oracle_table(params, N, params.alpha, q, dt, n_steps)
    scale = float(N) ** 4
    qq = float(q)
    c11 = scale * ratio_variance(fam_h)
    c22 = qq * qq * c11 + scale * ratio_variance(fam_r)
    return np.array([[c11, -qq * c11], [-qq * c11, c22]])


# ---------------------------------------------------------------------------
# solver-backed paths: the one builder, the single-path commands and the
# replications

def _simulate(cfg: ExperimentConfig, N: int, nonlinear: bool,
              rng: np.random.Generator) -> Tuple[Trajectory, EstimatorConfig]:
    """The configured path at truncation N and the estimator config that fits it.

    Without noise a zero start stays at zero, so sigma0 = 0 starts from a
    random smooth state; a linear path's estimators drop advection (V3).
    """
    params = cfg.params.with_(N=N)
    solver = replace(cfg.solver, N=N, include_nonlinear=nonlinear)
    V0 = random_field(N, rng) if params.sigma0 == 0.0 else None
    traj = simulate_path(params, V0, solver, rng, log_noise=False)
    return traj, cfg.estimator if nonlinear else replace(cfg.estimator, variant="V3")


def run_simulate(cfg: ExperimentConfig) -> RunReport:
    """Simulate one path at the configured truncation into trajectory.txt."""
    _check_config("simulate", cfg)
    report = RunReport(command="simulate")
    traj, _ = _simulate(cfg, cfg.solver.N, cfg.solver.include_nonlinear,
                        np.random.default_rng(cfg.seed))
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    path = out / "trajectory.txt"
    path.write_text(trajectory_to_text(traj))
    report.outputs.append(path)
    report.outputs.append(_write_manifest(
        out / "simulate_manifest.jsonl", report.manifest_entry(cfg)))
    return report


def run_estimate(cfg: ExperimentConfig) -> RunReport:
    """Simulate one path and write each estimator's value and parts to estimates.csv."""
    _check_config("estimate", cfg)
    report = RunReport(command="estimate")
    N = cfg.solver.N
    traj, ecfg = _simulate(cfg, N, cfg.solver.include_nonlinear,
                           np.random.default_rng(cfg.seed))
    run_id = config_hash(cfg)[:12]
    rows: List[List] = []
    for name, fn in (("nu_h", estimate_nu_h), ("nu_z", estimate_nu_z),
                     ("nu_z_hat", estimate_nu_z_hat)):
        res = fn(traj, ecfg)
        rows.append([run_id, name, res.variant, cfg.params.alpha,
                     str(cfg.params.q), ecfg.N_obs if ecfg.N_obs else N,
                     res.value, res.denominator,
                     res.numerator_parts["ito"], res.numerator_parts["nonlinear"],
                     res.numerator_parts["cross"]])
        report.notes.append(f"{name} = {res.value:.6f}")
    out = cfg.output_dir
    report.outputs.append(_write_csv(
        out / "estimates.csv",
        ["run_id", "estimator", "variant", "alpha", "q", "N_obs",
         "value", "denominator", "ito", "nonlinear", "cross"], rows))
    report.outputs.append(_write_manifest(
        out / "estimate_manifest.jsonl", report.manifest_entry(cfg)))
    return report


def _replications(cfg: ExperimentConfig, N: int, rng: np.random.Generator
                  ) -> Tuple[np.ndarray, np.ndarray, Dict[int, str]]:
    """(nu_h, nu_z_hat) of every replication at truncation N, and the error
    text of each that failed, by index; a failed one's estimates are NaN.

    A solver replication fails on a ValueError or RuntimeError (`BlowUpError`
    is one); LinearExact samples all in one exact draw and never fails.
    """
    if cfg.mode == "LinearExact":
        return (*linear_exact_estimates(cfg.params, N, cfg.params.alpha, cfg.params.q,
                                        cfg.replications, rng), {})
    est = np.full((cfg.replications, 2), np.nan)
    failed: Dict[int, str] = {}
    for rep in range(cfg.replications):
        try:
            traj, ecfg = _simulate(cfg, N, cfg.mode == "FullNonlinear", rng)
            est[rep] = estimate_nu_h(traj, ecfg).value, estimate_nu_z_hat(traj, ecfg).value
        except (ValueError, RuntimeError) as exc:
            failed[rep] = str(exc)
    return est[:, 0], est[:, 1], failed


def run_consistency(cfg: ExperimentConfig) -> RunReport:
    """Estimate across the N sweep and summarize errors against truth.

    Per-replication rows land in consistency_rows.csv, per-N summaries in
    consistency_summary.csv.  A non-decreasing RMSE along the sweep is a
    soft warning (single sweeps are noisy); having at least one usable
    replication per N is the hard gate.
    """
    _check_config("consistency", cfg)
    report = RunReport(command="consistency")
    rng = np.random.default_rng(cfg.seed)
    rows: List[List] = []
    summary: List[List] = []
    rmse_track: Dict[str, List[float]] = {"nu_h": [], "nu_z_hat": []}
    truth = {"nu_h": cfg.params.nu_h, "nu_z_hat": cfg.params.nu_z}

    for N in cfg.N_sweep:
        nu_h, nu_z, failed = _replications(cfg, N, rng)
        for rep in range(cfg.replications):
            rows.append([N, rep, "failed", "", "", failed[rep].replace(",", ";")]
                        if rep in failed else
                        [N, rep, "ok", float(nu_h[rep]), float(nu_z[rep]), ""])
        kept = [rep for rep in range(cfg.replications) if rep not in failed]

        for name, vals in (("nu_h", nu_h[kept]), ("nu_z_hat", nu_z[kept])):
            if vals.size == 0:
                summary.append([N, name, 0, "", "", ""])
                continue
            err = vals - truth[name]
            rmse = float(np.sqrt(np.mean(err ** 2)))
            summary.append([N, name, vals.size, float(vals.mean()),
                            float(vals.std(ddof=1)) if vals.size > 1 else 0.0, rmse])
            rmse_track[name].append(rmse)

    for name, track in rmse_track.items():
        if len(track) == len(cfg.N_sweep) and any(
                b >= a for a, b in zip(track, track[1:])):
            msg = f"RMSE of {name} is not strictly decreasing along the sweep: {track}"
            report.warnings.append(msg)
            warnings.warn(msg)

    usable = min((row[2] for row in summary if row[2] != ""), default=0)
    report.gates.append(GateResult("usable_replications", usable >= 1,
                                   float(usable), 1.0))
    out = cfg.output_dir
    report.outputs.append(_write_csv(
        out / "consistency_rows.csv",
        ["N", "rep", "status", "nu_h", "nu_z_hat", "error"], rows))
    report.outputs.append(_write_csv(
        out / "consistency_summary.csv",
        ["N", "estimator", "n_ok", "mean", "std", "rmse"], summary))
    report.outputs.append(_write_manifest(
        out / "consistency_manifest.jsonl", report.manifest_entry(cfg)))
    return report


# Upper 1% point of the Anderson-Darling statistic for a normal sample
# with estimated mean and variance (Stephens' case 3, as tabulated in
# D'Agostino and Stephens 1986, Goodness-of-Fit Techniques); the same
# value scipy.stats.anderson uses
_AD_NORMAL_1PCT = 1.035

# usable replications a normality run needs; `_normaltest_p` is meant for n >= 20
_NORMALITY_FLOOR = 20

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_ndtr(w: float) -> float:
    """log Phi(w), the standard normal log-CDF, to roundoff in both tails.

    Above zero it is log1p of minus the upper tail; below -37, where
    erfc leaves the normal floating-point range, the Mills-ratio series.
    """
    if w > 0.0:
        return math.log1p(-0.5 * math.erfc(w * _SQRT1_2))
    if w < -37.0:
        u = 1.0 / (w * w)
        series = u * (-1.0 + u * (3.0 + u * (-15.0 + 105.0 * u)))
        return -0.5 * w * w - math.log(-w) - _LOG_SQRT_2PI + math.log1p(series)
    return math.log(0.5 * math.erfc(-w * _SQRT1_2))


def _anderson_normal(x: np.ndarray) -> Tuple[float, float]:
    """Anderson-Darling statistic against a fitted normal, with its 1% critical value.

    The critical value carries the small-sample factor
    1 + 0.75/n + 2.25/n^2 and is rounded to the table's three decimals.
    A fixed table keeps the gate independent of `stats.anderson`, whose
    critical values are deprecated from SciPy 1.17 on.  The n terms of
    the sum cancel against -n down to a statistic of order one, so they
    are added with `math.fsum`, which leaves only their own roundoff.
    """
    y = np.sort(x)
    n = y.size
    w = (y - np.mean(x)) / np.std(x, ddof=1)
    i = np.arange(1, n + 1)
    lower = np.array([_log_ndtr(v) for v in w.tolist()])
    upper = np.array([_log_ndtr(-v) for v in w.tolist()])
    a2 = -n - math.fsum((2 * i - 1.0) / n * (lower + upper[::-1]))
    crit = round(_AD_NORMAL_1PCT / (1.0 + 0.75 / n + 2.25 / n / n), 3)
    return a2, crit


def _normaltest_p(x: np.ndarray) -> float:
    """D'Agostino-Pearson omnibus p-value of a sample, as `scipy.stats.normaltest`.

    K^2 = Z_s^2 + Z_k^2 with Z_s the Johnson S_U transform of the sample
    skewness and Z_k the Anscombe-Glynn transform of the sample kurtosis
    (D'Agostino, Belanger and D'Agostino 1990, Am. Stat. 44); under
    normality K^2 is chi-square with two degrees of freedom, whose
    survival function is exp(-K^2 / 2).  Meant for n >= 20.
    """
    n = float(x.size)
    d = x - np.mean(x)
    m2 = np.mean(d * d)
    y = np.mean(d ** 3) / m2 ** 1.5 * math.sqrt((n + 1) * (n + 3) / (6.0 * (n - 2)))
    beta2 = (3.0 * (n * n + 27 * n - 70) * (n + 1) * (n + 3)
             / ((n - 2) * (n + 5) * (n + 7) * (n + 9)))
    w2 = math.sqrt(2 * (beta2 - 1)) - 1
    z_s = math.asinh(y / math.sqrt(2 / (w2 - 1))) / math.sqrt(0.5 * math.log(w2))
    b2 = np.mean(d ** 4) / (m2 * m2)
    var = 24.0 * n * (n - 2) * (n - 3) / ((n + 1) ** 2 * (n + 3) * (n + 5))
    xk = (b2 - 3.0 * (n - 1) / (n + 1)) / math.sqrt(var)
    sb1 = (6.0 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
           * math.sqrt(6.0 * (n + 3) * (n + 5) / (n * (n - 2) * (n - 3))))
    a = 6.0 + 8.0 / sb1 * (2.0 / sb1 + math.sqrt(1 + 4.0 / (sb1 * sb1)))
    denom = 1 + xk * math.sqrt(2 / (a - 4.0))
    z_k = (1 - 2 / (9.0 * a) - np.cbrt((1 - 2.0 / a) / denom)) / math.sqrt(2 / (9.0 * a))
    return math.exp(-0.5 * (z_s * z_s + z_k * z_k))


def _check_config(command: str, cfg: ExperimentConfig) -> None:
    """Raise a ValueError naming the config key that `command`'s runner cannot take."""
    p = cfg.params
    if command == "normality" and p.alpha <= p.gamma - 1.0:
        raise ValueError("config keys alpha and gamma must satisfy alpha > gamma - 1 in a "
                         f"normality run, not alpha = {p.alpha!r}, gamma = {p.gamma!r}")
    if command == "normality" and cfg.replications < _NORMALITY_FLOOR:
        raise ValueError(f"config key replications must be at least {_NORMALITY_FLOOR} "
                         f"in a normality run, not {cfg.replications}")
    if command == "linear-validate" and cfg.replications < 2:
        raise ValueError("config key replications must be at least 2 in a linear "
                         f"validation, not {cfg.replications}")
    if command == "linear-validate" and cfg.mode == "FullNonlinear":
        raise ValueError("config key mode must be a linear mode in a linear validation, "
                         f"not {cfg.mode!r}")
    if command in ("estimate", "consistency", "normality"):
        _check_observation(command, cfg)
    # the largest truncation the run steps; LinearExact studies step none
    N = cfg.solver.N if command in ("simulate", "estimate") else None
    if command in ("consistency", "normality") and cfg.mode != "LinearExact":
        N = cfg.N_sweep[-1]
    if N is not None:
        check_grid(cfg.params.with_(N=N), replace(cfg.solver, N=N))


def _check_observation(command: str, cfg: ExperimentConfig) -> None:
    """Raise a ValueError naming N_obs when the run's estimates cannot observe it.

    N_obs must fit the smallest truncation the run simulates: N for
    estimate, the first of the sweep for consistency and the last, the
    only one it samples, for normality.
    """
    n_obs = cfg.estimator.N_obs
    if command != "estimate" and cfg.mode == "LinearExact":
        if n_obs is not None:
            raise ValueError("config key N_obs must be empty in LinearExact mode, which "
                             f"observes every mode, not {n_obs}")
        return
    N = {"estimate": cfg.solver.N, "consistency": cfg.N_sweep[0],
         "normality": cfg.N_sweep[-1]}[command]
    if n_obs is not None and n_obs > N:
        raise ValueError(f"config key N_obs must be at most the truncation N = {N} of "
                         f"this {command} run, not {n_obs}")
    nonlinear = (cfg.solver.include_nonlinear if command == "estimate"
                 else cfg.mode == "FullNonlinear")
    if nonlinear and cfg.estimator.variant == "V1" and (n_obs is None or n_obs >= N):
        raise ValueError(f"config key N_obs must be below the truncation N = {N} with "
                         "variant V1, which pairs against the modes beyond N_obs, not "
                         f"{'empty' if n_obs is None else n_obs}")
    n_min = _smallest_resonant_truncation(cfg.params.q)
    if n_obs is not None and n_min is not None and n_obs < n_min:
        raise ValueError(f"config key N_obs must be at least {n_min}, the smallest "
                         f"truncation with resonant modes at q = {cfg.params.q}, not {n_obs}")


def run_normality(cfg: ExperimentConfig) -> RunReport:
    """Sample the N^2-scaled error pair and test it against the limit law.

    Hard gates: covariance entries within 25% of their reference,
    marginal Anderson-Darling normality not rejected at 1%, and the
    decorrelation of e1 with q e1 + e2 within 3 standard errors.  cov11
    and cov12 are checked against `theoretical_covariance`, whose N^2
    limit they have.  The resonant vertical estimator has no N^2 limit,
    so cov22 is checked against `finite_n_covariance` at the estimation
    grid; its distance from the quoted constant stays in the report as a
    soft gate.  The raw means carry a known left-endpoint grid shift many
    standard errors wide, so the mean gate compares against that
    predicted shift instead of zero; the unshifted z-scores are reported
    as soft context.  A failed replication is a warning and is left out;
    fewer than 20 usable ones raise a RuntimeError before any report.
    """
    _check_config("normality", cfg)
    report = RunReport(command="normality")
    N = cfg.N_sweep[-1]
    nu_h, nu_z, failed = _replications(cfg, N, np.random.default_rng(cfg.seed))
    kept = [rep for rep in range(cfg.replications) if rep not in failed]
    reps = len(kept)
    if reps < _NORMALITY_FLOOR:
        rep, err = next(iter(failed.items()))
        raise RuntimeError(f"normality needs {_NORMALITY_FLOOR} usable replications, "
                           f"not {reps} of {cfg.replications}; replication {rep} failed: {err}")
    report.warnings.extend(f"replication {rep} failed: {err}" for rep, err in failed.items())

    scale = N * N
    e1 = scale * (nu_h[kept] - cfg.params.nu_h)
    e2 = scale * (nu_z[kept] - cfg.params.nu_z)
    sample = np.column_stack([e1, e2])
    emp_mean = sample.mean(axis=0)
    emp_cov = np.cov(sample.T, ddof=1)
    theo = theoretical_covariance(cfg.params, q=cfg.params.q)
    dt, n_steps = _estimation_grid(N, cfg.params.T)
    bias1, bias2 = _predicted_grid_bias(cfg.params, N, cfg.params.alpha,
                                        cfg.params.q, dt, n_steps)
    finite = finite_n_covariance(cfg.params, N, cfg.params.q, dt, n_steps)

    se = sample.std(axis=0, ddof=1) / math.sqrt(reps)
    for i, (b, label) in enumerate(((bias1, "mean_e1"), (bias2, "mean_e2"))):
        z = abs(emp_mean[i] - b) / se[i]
        report.gates.append(GateResult(f"{label}_vs_grid_shift", z < 3.0, z, 3.0))
        raw = abs(emp_mean[i]) / se[i]
        report.gates.append(GateResult(f"{label}_raw_zero", raw < 3.0, raw, 3.0,
                                       hard=False))

    pairs = [("cov11_within_25pct", emp_cov[0, 0], theo[0, 0], True),
             ("cov12_within_25pct", emp_cov[0, 1], theo[0, 1], True),
             ("cov22_within_25pct", emp_cov[1, 1], finite[1, 1], True),
             ("cov22_vs_quoted_within_25pct", emp_cov[1, 1], theo[1, 1], False)]
    for name, got, want, hard in pairs:
        rel = abs(got - want) / abs(want)
        report.gates.append(GateResult(name, rel < 0.25, rel, 0.25, hard=hard))

    for i, label in enumerate(("e1", "e2")):
        a2, crit = _anderson_normal(sample[:, i])
        report.gates.append(GateResult(f"ad_{label}_not_rejected_1pct",
                                       a2 < crit, a2, crit))

    combo = float(cfg.params.q) * e1 + e2
    corr = float(np.corrcoef(e1, combo)[0, 1])
    corr_bound = 3.0 / math.sqrt(reps)
    report.gates.append(GateResult("uncorrelated_combination",
                                   abs(corr) < corr_bound, corr, corr_bound))

    out = cfg.output_dir
    report.outputs.append(_write_csv(
        out / "normality_rows.csv", ["rep", "e1", "e2"],
        [[rep, float(a), float(b)] for rep, a, b in zip(kept, e1, e2)]))

    quantile = NormalDist().inv_cdf
    e1s, e2s = np.sort(e1), np.sort(e2)
    report.outputs.append(_write_csv(
        out / "normality_qq.csv",
        ["rank", "normal_quantile", "e1_sorted", "e2_sorted"],
        [[i + 1, quantile((i + 0.5) / reps), float(e1s[i]), float(e2s[i])]
         for i in range(reps)]))

    summary_rows = [
        ["n_replications", reps], ["N", N],
        ["mean_e1", float(emp_mean[0])], ["mean_e2", float(emp_mean[1])],
        ["predicted_grid_shift_e1", bias1], ["predicted_grid_shift_e2", bias2],
        ["cov11", float(emp_cov[0, 0])], ["cov12", float(emp_cov[0, 1])],
        ["cov22", float(emp_cov[1, 1])],
        ["theory_cov11", float(theo[0, 0])], ["theory_cov12", float(theo[0, 1])],
        ["theory_cov22", float(theo[1, 1])],
        ["finite_n_cov11", float(finite[0, 0])], ["finite_n_cov12", float(finite[0, 1])],
        ["finite_n_cov22", float(finite[1, 1])],
        ["normaltest_p_e1", _normaltest_p(e1)],
        ["normaltest_p_e2", _normaltest_p(e2)],
        ["corr_e1_combination", corr],
    ] + [g.row() for g in report.gates]
    report.outputs.append(_write_csv(
        out / "normality_summary.csv", ["key", "value", "observed", "bound", "kind"],
        [r + [""] * (5 - len(r)) for r in summary_rows]))
    report.outputs.append(_write_manifest(
        out / "normality_manifest.jsonl", report.manifest_entry(cfg)))
    return report


# ---------------------------------------------------------------------------
# linear-model validation against closed-form moments

def _energy_sums(params: ModelParams, N: int, cols, dt: float, n_steps: int,
                 reps: int, rng: np.random.Generator) -> np.ndarray:
    """Left-endpoint sums of |U_k|^2 on exact OU paths from zero, (reps, len(cols)).

    Column j adds up the strands of stored mode cols[j]; the sums carry
    no factor dt, which the callers apply.
    """
    owner, *strands = mode_strands(params, N, cols)
    sampler = StrandSampler(*strands, dt)
    Z = np.zeros((reps, owner.size), dtype=complex)
    acc = np.zeros((reps, owner.size))
    re, im = np.empty(Z.shape), np.empty(Z.shape)
    work = sampler.work(Z.shape)
    for _ in range(n_steps):
        acc += np.add(np.square(Z.real, out=re), np.square(Z.imag, out=im), out=re)
        sampler.step(Z, rng, work, out=Z)
    return np.stack([acc[:, owner == c].sum(axis=1) for c in cols], axis=1)


@dataclass
class LinearMomentReport:
    mode_keys: List[Tuple[int, int, int]]
    mean_z: np.ndarray
    frac_within_3: float
    var_keys: List[Tuple[int, int, int]]
    var_z: np.ndarray


def linear_moment_check(params: ModelParams, N: int, reps: int,
                        rng: np.random.Generator,
                        n_var_modes: int = 10) -> LinearMomentReport:
    """Ensemble time-energy of every stored mode against its exact law.

    Paths are exact OU samples, so each mode's left-endpoint sum has a
    closed-form expectation on any grid (`_left_sums`), which its mean
    z-score compares against.  Fast modes get more steps only to keep the
    spread realistic, not for bias.  The variance spot check reads the
    same draws for a deterministic spread of decay rates: the exact
    cumulants of each pick's sum on its own grid (`energy_sum_cumulants`)
    give both its variance and the standard error of the sample variance,
    so nothing is estimated from the sample it judges and the check
    draws nothing of its own.
    """
    tab = mode_table(N)
    lam_all, f0_all, amp_all = mode_rates(params, tab.kp_sq, tab.k3_sq)

    integrals = np.empty((reps, tab.n))
    expected = np.empty(tab.n)
    steps = np.empty(tab.n, dtype=int)

    # group by shared transition (lam, f0, amp), in sorted order; each
    # class simulates all of its strands in one vectorized sweep
    rates, cls = np.unique(np.stack([lam_all, f0_all, amp_all], axis=1), axis=0,
                           return_inverse=True)
    for j, (lam, _, amp) in enumerate(rates.tolist()):
        cols = np.flatnonzero(cls.ravel() == j)
        n_steps = min(max(int(math.ceil(2.0 * lam * params.T)), 24), 64)
        dt = params.T / n_steps
        integrals[:, cols] = dt * _energy_sums(params, N, cols, dt, n_steps, reps, rng)
        expected[cols] = amp * amp * dt * _left_sums(lam, dt, n_steps)[1]
        steps[cols] = n_steps

    means = integrals.mean(axis=0)
    ses = integrals.std(axis=0, ddof=1) / math.sqrt(reps)
    z = (means - expected) / ses
    frac = float(np.mean(np.abs(z) <= 3.0))

    # variance spot check on a deterministic spread of decay rates: the
    # sample variance s^2 of S = sum |Z_i|^2 over reps paths has mean k2
    # and variance k4 / reps + 2 k2^2 / (reps - 1)
    order = np.argsort(lam_all, kind="stable")
    picks = order[np.unique(np.linspace(0, tab.n - 1,
                                        min(n_var_modes, tab.n)).round().astype(int))]
    var_z = np.empty(picks.size)
    for j, c in enumerate(picks):
        dt = params.T / steps[c]
        _, *strands = mode_strands(params, N, [c])
        _, k2, k4 = np.sum([energy_sum_cumulants(*s, dt, steps[c]) for s in zip(*strands)],
                           axis=0)
        s2 = integrals[:, c].var(ddof=1) / (dt * dt)
        var_z[j] = (s2 - k2) / math.sqrt(k4 / reps + 2.0 * k2 * k2 / (reps - 1))
    mode_keys = tab.keys()
    var_keys = [mode_keys[c] for c in picks]
    return LinearMomentReport(mode_keys, z, frac, var_keys, var_z)


def run_linear_validation(cfg: ExperimentConfig) -> RunReport:
    """Linear-model statistics against closed forms and across backends.

    Three blocks: per-mode mean time-energy z-scores at the configured N
    (hard gate: at least 95% within 3), a variance spot check on ten
    modes against their exact law (hard gate: all within 3.5), and
    solver-versus-exact means on a small truncation at dt=1e-3 (hard
    gate: at least 95% within 3 combined standard errors).
    """
    _check_config("linear-validate", cfg)
    report = RunReport(command="linear-validate")
    rng = np.random.default_rng(cfg.seed)
    out = cfg.output_dir

    moment = linear_moment_check(cfg.params, cfg.solver.N, cfg.replications, rng)
    report.gates.append(GateResult("mode_means_within_3se",
                                   moment.frac_within_3 >= 0.95,
                                   moment.frac_within_3, 0.95))
    # each variance z-score divides by its exact standard error and is
    # near-Gaussian, so one of the ten exceeds 3.5 with probability about
    # 10 P(|z| > 3.5) = 0.5% on a correct program
    report.gates.append(GateResult("variance_spot_checks_within_3.5se",
                                   bool(np.all(np.abs(moment.var_z) <= 3.5)),
                                   float(np.max(np.abs(moment.var_z))), 3.5))

    # a mode is three integer columns, so every row has its header's fields
    report.outputs.append(_write_csv(
        out / "linear_mode_z.csv", ["k1", "k2", "k3", "z_mean"],
        [[*k, float(z)] for k, z in zip(moment.mode_keys, moment.mean_z)]))
    report.outputs.append(_write_csv(
        out / "linear_variance_z.csv", ["k1", "k2", "k3", "z_variance"],
        [[*k, float(z)] for k, z in zip(moment.var_keys, moment.var_z)]))

    # solver cross-check on a small truncation
    n_small, reps_small, dt_small = 3, 200, 1e-3
    solver_cfg = SolverConfig(N=n_small, dt=dt_small, scheme="ExponentialEuler",
                              include_nonlinear=False)
    params_small = cfg.params
    tab = mode_table(n_small)
    sums = np.zeros((reps_small, tab.n))
    for rep in range(reps_small):
        traj = simulate_path(params_small, None, solver_cfg, rng, log_noise=False)
        sums[rep] = dt_small * traj.left_pairing("energy").sum(axis=0)
    # the same left-endpoint statistic from exact transitions, with no
    # grid correction: both sides carry the same quadrature bias
    exact = dt_small * _energy_sums(params_small, n_small, range(tab.n), dt_small,
                                    round(params_small.T / dt_small), reps_small, rng)
    m_s, m_e = sums.mean(axis=0), exact.mean(axis=0)
    se = np.sqrt(sums.var(ddof=1, axis=0) / reps_small
                 + exact.var(ddof=1, axis=0) / reps_small)
    z_cross = (m_s - m_e) / se
    frac_cross = float(np.mean(np.abs(z_cross) <= 3.0))
    report.gates.append(GateResult("solver_vs_exact_within_3se",
                                   frac_cross >= 0.95, frac_cross, 0.95))
    report.outputs.append(_write_csv(
        out / "linear_solver_vs_exact.csv", ["k1", "k2", "k3", "z_cross"],
        [[*k, float(z)] for k, z in zip(tab.keys(), z_cross)]))
    report.outputs.append(_write_manifest(
        out / "linear_validation_manifest.jsonl", report.manifest_entry(cfg)))
    return report


# ---------------------------------------------------------------------------
# number-theoretic appendix checks

_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}
_DEFAULT_ALPHAS = {1: (0.0, 0.5, 1.0), 2: (-1.0, 0.0, 1.0, 2.0),
                   3: (-1.0, 0.0, 1.0, 2.0)}


def _sums_of_squares(m: int, d: int) -> np.ndarray:
    """k1^2 + ... + kd^2 over the cube [-m, m]^d, raveled in C order."""
    sq = out = np.arange(-m, m + 1) ** 2
    for _ in range(d - 1):
        out = np.add.outer(out, sq).ravel()
    return out


def _r3_counts(n_max: int) -> np.ndarray:
    n = _sums_of_squares(math.isqrt(n_max), 3)
    return np.bincount(n[n <= n_max], minlength=n_max + 1)


def _three_square_excluded(n: int) -> bool:
    while n % 4 == 0:
        n //= 4
    return n % 8 == 7


def _lattice_sum(d: int, alpha: float, N: int) -> float:
    ksq = _sums_of_squares(N, d)
    ksq = ksq[(ksq >= 1) & (ksq <= N * N)]
    return float(np.sum(ksq.astype(float) ** (alpha / 2.0)))


@dataclass(kw_only=True)
class NumberTheoryReport(RunReport):
    """The lattice checks: two hard gates, the fitted bound and the ratio rows."""

    fitted_C: float
    argmax_n: int
    lattice_rows: List[List]


def number_theory_checks(n_max: int = 10000, N: int = 50,
                         alphas: Optional[Dict[int, Sequence[float]]] = None,
                         output_dir: Optional[Path] = None) -> NumberTheoryReport:
    """Brute-force the sphere-counting facts behind the variance constants.

    Checks that r3 vanishes exactly on the excluded residue family, fits
    the linear bound r3(n) <= C n, and compares power-weighted lattice
    sums over balls with d omega_d N^{d+alpha} / (d+alpha) for d up to
    three.  The default grid keeps every ratio within 2% at N=50 (the
    slowest case, d=1 with alpha=1, sits exactly on the boundary, so the
    comparison carries a relative epsilon); slower alpha decay needs a
    larger N for the boundary shell to fade.  The gates observe the count
    of misclassified n and the largest |ratio - 1|.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    counts = _r3_counts(n_max)
    mismatches = sum(bool(counts[n] == 0) != _three_square_excluded(n)
                     for n in range(1, n_max + 1))
    ratios = counts[1:] / np.arange(1, n_max + 1, dtype=float)
    fitted_c = float(ratios.max())
    argmax_n = int(ratios.argmax()) + 1

    rows = []
    for d, grid in sorted((alphas or _DEFAULT_ALPHAS).items()):
        for alpha in grid:
            if alpha <= -d:
                raise ValueError(f"alpha must exceed -d; got {alpha} at d={d}")
            s = _lattice_sum(d, alpha, N)
            pred = d * _BALL_VOLUME[d] / (d + alpha) * float(N) ** (d + alpha)
            ratio = s / pred
            rows.append([d, alpha, N, s, pred, ratio])
    worst = max((abs(row[5] - 1.0) for row in rows), default=0.0)
    ok = mismatches == 0
    ratios_ok = worst <= 0.02 * (1.0 + 1e-9)

    report = NumberTheoryReport(command="ntcheck", fitted_C=fitted_c,
                                argmax_n=argmax_n, lattice_rows=rows)
    report.gates.append(GateResult("characterization", ok, mismatches, 0.0))
    report.gates.append(GateResult("lattice_ratios_within_2pct", ratios_ok, worst, 0.02))
    report.notes.append(f"fitted linear bound C = {fitted_c:g} attained at n = {argmax_n}")
    if output_dir is not None:
        out = Path(output_dir)
        report.outputs.append(_write_csv(
            out / "number_theory_lattice.csv",
            ["d", "alpha", "N", "lattice_sum", "prediction", "ratio"], rows))
        report.outputs.append(_write_csv(
            out / "number_theory_summary.csv", ["key", "value"],
            [["n_max", n_max], ["characterization_ok", ok],
             ["fitted_C", fitted_c], ["argmax_n", argmax_n],
             ["ratios_within_2pct", ratios_ok]]))
    return report
