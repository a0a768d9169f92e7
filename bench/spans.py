"""Spans around the calls into each `pespec` layer, recorded from outside.

`Tracer.install` replaces each traced function at every module attribute
through which the package calls it: `estimators` imports `nonlinear_B`
by name, and `solver` and `harness` import `strand_noise_chol` by name,
so wrapping only the defining module would miss those calls.  A span
records its name, start, end, parent span and the job it belongs to
(-1 for set-up).  Spans stay in memory until `dump` writes them out.

Self time is a span's duration minus the durations of its child spans;
calls on one thread nest, so the children never overlap.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

from pespec import estimators, harness, linear, modes, solver

_BACKENDS = {"Direct": "direct", "PseudoSpectralDealiased": "pseudo"}


def _advection_span(f, g=None, method="auto") -> str:
    resolved = solver.SolverConfig(N=f.N, dt=1.0, convolution=method).resolved_convolution()
    return "solver.nonlinear_B." + _BACKENDS.get(resolved, resolved)


# (defining module, function name, span name or a function of the call
# arguments returning one)
TARGETS = [
    (solver, "nonlinear_B", _advection_span),
    (solver, "simulate_path", "solver.simulate_path"),
    (solver, "step", "solver.step"),
    (solver, "draw_increments", "solver.draw_increments"),
    (solver, "trajectory_to_text", "solver.trajectory_to_text"),
    (solver, "trajectory_from_text", "solver.trajectory_from_text"),
    (modes, "hydrostatic_leray", "modes.hydrostatic_leray"),
    (modes, "mode_table", "modes.mode_table"),
    (linear, "strand_noise_chol", "linear.strand_noise_chol"),
    (estimators, "estimate_nu_h", "estimators.estimate_nu_h"),
    (estimators, "estimate_nu_z", "estimators.estimate_nu_z"),
    (estimators, "estimate_nu_z_hat", "estimators.estimate_nu_z_hat"),
    (estimators, "nonlinear_integral", "estimators.nonlinear_integral"),
    (estimators, "ito_integral", "estimators.functionals"),
    (estimators, "quadratic_integral", "estimators.functionals"),
    (estimators, "cross_integral", "estimators.functionals"),
    (harness, "linear_exact_estimates", "harness.linear_exact_estimates"),
    (harness, "finite_n_covariance", "harness.finite_n_covariance"),
    (harness, "run_normality", "harness.run_normality"),
]


class Tracer:
    """In-memory span recorder with switchable recording."""

    def __init__(self):
        # one span: [name, start, end, parent index or -1, job or -1]
        self.spans: List[list] = []
        self.job = -1
        self.recording = False
        self._open: List[int] = []
        self._restore: List[tuple] = []

    def _wrap(self, fn: Callable, name) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            span = [label, time.perf_counter(), 0.0,
                    tracer._open[-1] if tracer._open else -1, tracer.job]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._open.pop()

        return traced

    def install(self) -> None:
        """Wrap every target at each `pespec` module attribute bound to it."""
        pkg = [m for key, m in sys.modules.items()
               if key == "pespec" or key.startswith("pespec.")]
        for home, attr, name in TARGETS:
            original = getattr(home, attr)
            traced = self._wrap(original, name)
            for mod in pkg:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, traced)
        original = solver.Trajectory.coefficient_stack
        self._restore.append((solver.Trajectory, "coefficient_stack", original))
        solver.Trajectory.coefficient_stack = self._wrap(
            original, "solver.Trajectory.coefficient_stack")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)


def _totals(spans: List[list], job: int):
    """Per span name: (calls, inclusive seconds, self seconds) within one job."""
    child = defaultdict(float)
    for name, start, end, parent, j in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Dict[str, int] = defaultdict(int)
    incl: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, j) in enumerate(spans):
        if j != job:
            continue
        calls[name] += 1
        incl[name] += end - start
        own[name] += end - start - child[i]
    return calls, incl, own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, jobs: Dict[int, object],
                  untraced_s: List[float], traced_s: List[float]) -> Dict[str, float]:
    """Per-layer metrics: the median over traced jobs of each per-job value.

    `jobs` maps each traced job to its `workloads.Outputs`.  The three
    set-up metrics come from the set-up spans (job -1), the first build
    of the cached tables.
    """
    per_job: Dict[str, List[float]] = defaultdict(list)
    for job, out in jobs.items():
        calls, incl, own = _totals(tracer.spans, job)
        b_calls = calls["solver.nonlinear_B.direct"] + calls["solver.nonlinear_B.pseudo"]
        s_le = incl["harness.linear_exact_estimates"]
        values = {
            "solver.nonlinear_B.direct.calls": calls["solver.nonlinear_B.direct"],
            "solver.nonlinear_B.direct.s": incl["solver.nonlinear_B.direct"],
            "solver.nonlinear_B.pseudo.calls": calls["solver.nonlinear_B.pseudo"],
            "solver.nonlinear_B.pseudo.s": incl["solver.nonlinear_B.pseudo"],
            "solver.nonlinear_B.per_sample": _ratio(b_calls, out.samples),
            "solver.simulate_path.s": incl["solver.simulate_path"],
            "solver.step.self_s": own["solver.step"],
            "solver.draw_increments.s": incl["solver.draw_increments"],
            "solver.trajectory_to_text.s": incl["solver.trajectory_to_text"],
            "solver.trajectory_from_text.s": incl["solver.trajectory_from_text"],
            "solver.trajectory_text.bytes": out.text_bytes,
            "solver.Trajectory.coefficient_stack.calls":
                _ratio(calls["solver.Trajectory.coefficient_stack"], out.paths),
            "modes.hydrostatic_leray.calls": calls["modes.hydrostatic_leray"],
            "modes.hydrostatic_leray.s": incl["modes.hydrostatic_leray"],
            "linear.strand_noise_chol.job_calls": calls["linear.strand_noise_chol"],
            "estimators.estimate_nu_h.s": incl["estimators.estimate_nu_h"],
            "estimators.estimate_nu_z.s": incl["estimators.estimate_nu_z"],
            "estimators.estimate_nu_z_hat.s": incl["estimators.estimate_nu_z_hat"],
            "estimators.nonlinear_integral.self_s": own["estimators.nonlinear_integral"],
            "estimators.functionals.calls": calls["estimators.functionals"],
            "estimators.functionals.s": incl["estimators.functionals"],
            "harness.linear_exact_estimates.s": s_le,
            "harness.linear_exact_estimates.strand_steps_per_s":
                _ratio(out.strand_steps, s_le),
            "harness.finite_n_covariance.s": incl["harness.finite_n_covariance"],
            "harness.run_normality.self_s": own["harness.run_normality"],
        }
        for key, value in values.items():
            per_job[key].append(float(value))
    metrics = {key: statistics.median(v) for key, v in per_job.items()}

    calls, incl, _ = _totals(tracer.spans, -1)
    metrics["modes.mode_table.s"] = incl["modes.mode_table"]
    metrics["linear.strand_noise_chol.calls"] = float(calls["linear.strand_noise_chol"])
    metrics["linear.strand_noise_chol.s"] = incl["linear.strand_noise_chol"]
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return metrics

