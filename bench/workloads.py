"""The benchmark workloads: set-up, one job and the checks on its outputs.

Each workload drives the public API of `pespec` the way a user does.
`run` is the timed part of a job and returns its outputs; `check` turns
those outputs into a list of problems and is never timed.  Program
functions are called through their module attributes (`solver.step`,
not a name imported here), so a tracer that wraps those attributes sees
every call.

Why these three workloads:

* estimate-default is the `pespec estimate` job on configs/defaults.cfg,
  the first thing a user runs.  At N = 8 `convolution = auto` resolves
  to the Direct advection sum, which the solver evaluates once per step
  and the three estimators five more times per stored sample.  The
  explicit Euler-Maruyama scheme with logged noise makes the exact
  criterion-1 reconstruction checkable; advection dominates either
  scheme's cost.
* normality-linear-exact is `run_normality` in LinearExact mode at
  N = 12, the study behind criterion 4.  The exact-OU strand sampler does
  nearly all of the work; advection, the solver and the trajectory
  estimators do none.
* nonlinear-replications are FullNonlinear replications at N = 12, where
  `auto` resolves to the dealiased pseudo-spectral grid: one explicit
  path with logged noise, then `estimate_nu_h` and `estimate_nu_z_hat`
  with V2, as `harness._solver_estimates` does.  The Direct sum does no
  work here, so this workload and estimate-default split a change to
  one advection backend from a change to the other.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List

import numpy as np

from pespec import estimators, harness, modes, solver

import checks

ROOT = Path(__file__).resolve().parent.parent
DEFAULTS = ROOT / "configs" / "defaults.cfg"
OUT = ROOT / "bench" / "out"

# explicit steps of the estimate path
ESTIMATE_STEPS = 2
# replications of one normality job
NORMALITY_REPLICATIONS = 20


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; `FULL` is the benchmark, `TOY` its own tests."""

    estimate_N: int = 8
    normality_N: int = 12
    replication_N: int = 12
    replication_steps: int = 8
    replications_per_job: int = 3


FULL = Sizes()
TOY = Sizes(estimate_N=4, normality_N=4, replication_N=9, replication_steps=3,
            replications_per_job=2)


@dataclass
class Outputs:
    """What one job produced: data for its checks and counts for the trace.

    `samples` is the number of left-endpoint samples the estimators
    integrated over, `paths` the number of simulated paths.
    """

    data: Dict
    samples: int = 0
    paths: int = 0
    text_bytes: int = 0
    strand_steps: int = 0


class Workload:
    """Set-up, one job, and the checks on a job's and on a run's outputs."""

    def check_run(self) -> List[str]:
        """Problems in the outputs of every checked job taken together."""
        return []


def _config(overrides: Dict[str, str], steps: int = 0):
    """The defaults file with `overrides`; `steps` > 0 sets T to that many dt."""
    cfg = harness.load_config(DEFAULTS, overrides)
    if steps:
        cfg = replace(cfg, params=cfg.params.with_(T=steps * cfg.solver.dt))
    return cfg


def _warm_solver(cfg) -> None:
    # first build of the step factors and the advection site layout
    params = cfg.params.with_(N=cfg.solver.N)
    solver.draw_increments(cfg.solver, params, np.random.default_rng(0))
    zero = modes.SpectralField.zeros(cfg.solver.N)
    solver.nonlinear_B(zero, zero, cfg.solver.convolution)


def _estimator_config(cfg):
    return estimators.EstimatorConfig(alpha=cfg.params.alpha, q=cfg.params.q,
                                      variant=cfg.estimator.variant,
                                      N_obs=cfg.estimator.N_obs)


class EstimateDefault(Workload):
    """`pespec estimate` with the explicit scheme over a short horizon."""

    name = "estimate-default"

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes
        self.text_path = OUT / self.name / "trajectory.txt"

    def config(self):
        # pinned so the workload stays the same if the defaults file moves
        return _config({"N": str(self.sizes.estimate_N), "scheme": "EulerMaruyama",
                        "variant": "V2", "N_obs": "", "include_nonlinear": "true"},
                       steps=ESTIMATE_STEPS)

    def setup(self) -> None:
        _warm_solver(self.config())

    def run(self, seed: int) -> Outputs:
        cfg = self.config()
        traj = solver.simulate_path(cfg.params.with_(N=cfg.solver.N), None, cfg.solver,
                                    np.random.default_rng(seed))
        text = solver.trajectory_to_text(traj, include_noise=True)
        self.text_path.parent.mkdir(parents=True, exist_ok=True)
        self.text_path.write_text(text)
        loaded = solver.trajectory_from_text(self.text_path.read_text())
        ecfg = _estimator_config(cfg)
        values = {
            "nu_h": estimators.estimate_nu_h(loaded, ecfg).value,
            "nu_z": estimators.estimate_nu_z(loaded, ecfg).value,
            "nu_z_hat": estimators.estimate_nu_z_hat(loaded, ecfg).value,
        }
        return Outputs({"written": traj, "loaded": loaded, "estimates": values,
                        "alpha": ecfg.alpha, "q": ecfg.q},
                       samples=loaded.n_samples - 1, paths=1,
                       text_bytes=len(text.encode()))

    @staticmethod
    def check(out: Outputs) -> List[str]:
        d = out.data
        return (checks.same_path(d["written"], d["loaded"])
                + checks.reconstruction(d["loaded"], d["estimates"], d["alpha"], d["q"]))


class NormalityLinearExact(Workload):
    """`run_normality` in LinearExact mode on the criterion-4 truncation.

    `check` tests each job's sample and adds it to the run's pool;
    `check_run` tests the pooled sample, five to seven times larger, with
    narrower bounds.
    """

    name = "normality-linear-exact"

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes
        self.out_dir = OUT / self.name
        self.pooled: List[Outputs] = []
        self.strand_steps = 0

    def config(self, seed: int = 0):
        return _config({"mode": "LinearExact", "N_sweep": str(self.sizes.normality_N),
                        "replications": str(NORMALITY_REPLICATIONS),
                        "seed": str(seed), "output_dir": str(self.out_dir)})

    def setup(self) -> None:
        p = self.config().params
        N = self.sizes.normality_N
        # first build of the strand system, on the study's estimation grid
        strands = harness._build_strands(p, N, p.alpha, p.q,
                                         *harness._estimation_grid(N, p.T))
        self.strand_steps = NORMALITY_REPLICATIONS * strands.n_strands * strands.n_steps

    def run(self, seed: int) -> Outputs:
        cfg = self.config(seed)
        report = harness.run_normality(cfg)
        with open(self.out_dir / "normality_rows.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        e1 = np.array([float(r["e1"]) for r in rows])
        e2 = np.array([float(r["e2"]) for r in rows])
        return Outputs({"e1": e1, "e2": e2, "params": cfg.params,
                        "N": self.sizes.normality_N, "q": cfg.params.q,
                        "gates": {g.name: g.passed for g in report.gates}},
                       strand_steps=self.strand_steps)

    @staticmethod
    def _moments(d, **kw) -> List[str]:
        if d["e1"].size != d["e2"].size or d["e1"].size < 2:
            return [f"normality_rows.csv holds {d['e1'].size} e1 and {d['e2'].size} e2 values"]
        return checks.normality_moments(d["e1"], d["e2"], d["params"], d["N"], d["q"], **kw)

    def check(self, out: Outputs) -> List[str]:
        self.pooled.append(out)
        return self._moments(out.data)

    def check_run(self) -> List[str]:
        if not self.pooled:
            return []
        d = self.pooled[0].data
        pooled = {**d, **{key: np.concatenate([o.data[key] for o in self.pooled])
                          for key in ("e1", "e2")}}
        return [f"pooled over {len(self.pooled)} jobs: {p}" for p in
                self._moments(pooled, width=checks.POOLED_SE_WIDTH)]


class NonlinearReplications(Workload):
    """FullNonlinear replications on the dealiased grid, noise logged."""

    name = "nonlinear-replications"

    def __init__(self, sizes: Sizes = FULL):
        self.sizes = sizes

    def config(self):
        return _config({"N": str(self.sizes.replication_N), "scheme": "EulerMaruyama",
                        "variant": "V2", "N_obs": ""},
                       steps=self.sizes.replication_steps)

    def setup(self) -> None:
        _warm_solver(self.config())

    def run(self, seed: int) -> Outputs:
        cfg = self.config()
        N = cfg.solver.N
        params = cfg.params.with_(N=N)
        solver_cfg = replace(cfg.solver, N=N, include_nonlinear=True)
        ecfg = _estimator_config(cfg)
        rng = np.random.default_rng(seed)
        reps = []
        for _ in range(self.sizes.replications_per_job):
            traj = solver.simulate_path(params, None, solver_cfg, rng, log_noise=True)
            reps.append((traj, {"nu_h": estimators.estimate_nu_h(traj, ecfg).value,
                                "nu_z_hat": estimators.estimate_nu_z_hat(traj, ecfg).value}))
        return Outputs({"reps": reps, "alpha": ecfg.alpha, "q": ecfg.q},
                       samples=sum(t.n_samples - 1 for t, _ in reps), paths=len(reps))

    @staticmethod
    def check(out: Outputs) -> List[str]:
        d = out.data
        return [p for i, (traj, values) in enumerate(d["reps"])
                for p in checks.reconstruction(traj, values, d["alpha"], d["q"],
                                               label=f"replication {i}: ")]


WORKLOADS = {w.name: w for w in (EstimateDefault, NormalityLinearExact, NonlinearReplications)}
