"""Tests for the viscosity estimators and their path functionals.

The strongest checks reconstruct the true viscosities exactly from a
trajectory plus its logged noise; those identities hold to roundoff
only for the explicit Euler-Maruyama scheme with every step stored,
which the suite verifies both ways (exact there, first-order off
elsewhere).
"""
import inspect
import math
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pespec import estimators, solver
from lattice_oracle import field_from_keys
from pespec.estimators import (
    EstimateResult,
    EstimatorConfig,
    confidence_interval,
    cross_integral,
    estimate_nu_h,
    estimate_nu_z,
    estimate_nu_z_hat,
    ito_integral,
    martingale_term,
    nonlinear_integral,
    quadratic_integral,
    theoretical_covariance,
)
from pespec.modes import (
    ALL,
    BAROCLINIC,
    BAROTROPIC,
    ModeSelector,
    SpectralField,
    eigenvalue_array,
    hydrostatic_leray,
    inner_product,
    mode_table,
    project,
    random_field,
)
from pespec.params import ModelParams
from pespec.solver import (
    SolverConfig,
    Trajectory,
    simulate_path,
    trajectory_from_text,
    trajectory_to_text,
)


def constant_trajectory(f, T=0.5):
    """Two-sample trajectory holding the field fixed over [0, T]."""
    return Trajectory(
        times=np.array([0.0, T]),
        states=[f, f],
        params=ModelParams(T=T),
        config=SolverConfig(N=f.N, dt=T),
    )


@pytest.fixture(scope="module")
def em_trajectory():
    """Nonlinear Euler-Maruyama path at N=4 with logged increments."""
    params = ModelParams(nu_h=1.0, nu_z=0.5, f0=1.0, sigma0=1.0, gamma=4.5, T=0.1)
    rng = np.random.default_rng(7)
    V0 = random_field(4, rng, amplitude=0.3)
    cfg = SolverConfig(N=4, dt=1e-3, scheme="EulerMaruyama",
                       convolution="PseudoSpectralDealiased")
    return simulate_path(params, V0, cfg, np.random.default_rng(11))


class TestPathFunctionals:
    """Riemann and Ito sums over stored samples."""

    def test_zero_field_integrals_vanish(self):
        traj = constant_trajectory(SpectralField.zeros(3))
        assert ito_integral(traj, (1.0, 0.0, 0.0), BAROTROPIC) == 0.0
        assert quadratic_integral(traj, (1.0, 0.0, 0.0), BAROTROPIC) == 0.0
        assert cross_integral(traj, 2.0, BAROCLINIC) == 0.0

    def test_quadratic_constant_self_paired_mode(self):
        # (0,0,2) pairs with itself, so the integrand is mu^2 c^2 with
        # mu = k3^2 = 4 and no partner duplication
        f = field_from_keys(3, {(0, 0, 2): (0.7, 0.0)})
        traj = constant_trajectory(f, T=0.5)
        got = quadratic_integral(traj, (0.0, 1.0, 0.0), BAROCLINIC)
        assert got == pytest.approx(16.0 * 0.49 * 0.5, rel=1e-14)

    def test_quadratic_constant_paired_mode_counts_partner(self):
        c = 0.5 + 0.25j
        f = field_from_keys(2, {(1, 0, 0): (0.0, c)})
        traj = constant_trajectory(f, T=0.8)
        got = quadratic_integral(traj, (1.0, 0.0, 0.0), BAROTROPIC)
        assert got == pytest.approx(2.0 * abs(c) ** 2 * 0.8, rel=1e-14)

    def test_cross_single_baroclinic_mode(self):
        # eigenvalue product |k'|^2 |k|^{2 alpha} k3^2 = 1 * 2^alpha * 1;
        # the conjugate partner doubles the lattice sum
        alpha, T = 3.0, 0.4
        c = 0.3 - 0.2j
        f = field_from_keys(3, {(1, 0, 1): (c, 0.1j)})
        traj = constant_trajectory(f, T=T)
        want = 2.0 * 2.0 ** alpha * (abs(c) ** 2 + 0.01) * T
        assert cross_integral(traj, alpha, BAROCLINIC) == pytest.approx(want, rel=1e-14)

    def test_cross_ignores_barotropic_part(self):
        f = random_field(3, np.random.default_rng(0), sel=BAROTROPIC)
        traj = constant_trajectory(f)
        assert cross_integral(traj, 2.0, BAROCLINIC) == 0.0

    @pytest.mark.parametrize("q", [Fraction(1), Fraction(2), Fraction(1, 2)])
    def test_cross_equals_q_times_quadratic_on_resonant(self, q):
        sel = ModeSelector.resonant(q)
        f = random_field(3, np.random.default_rng(4))
        traj = constant_trajectory(f)
        cross = cross_integral(traj, 4.0, sel)
        quad = quadratic_integral(traj, (0.0, 1.0, 2.0), sel)
        assert quad > 0.0
        assert cross == pytest.approx(float(q) * quad, rel=1e-14)

    def test_ito_zero_drift_is_mean_zero(self):
        # driftless coefficient random walk; the left-endpoint sum is a
        # discrete martingale, so the ensemble mean sits at zero
        rng = np.random.default_rng(17)
        base = SpectralField.zeros(2)
        row = base.table.keys().index((1, 0, 0))
        steps, reps, dt = 25, 2000, 0.02
        times = np.linspace(0.0, steps * dt, steps + 1)
        cfg = SolverConfig(N=2, dt=dt)
        vals = np.empty(reps)
        for r in range(reps):
            walk = np.cumsum(
                math.sqrt(dt / 2.0)
                * (rng.standard_normal(steps + 1) + 1j * rng.standard_normal(steps + 1)))
            walk[0] = 0.0
            states = []
            for j in range(steps + 1):
                coeffs = base.coeffs.copy()
                coeffs[row, 1] = walk[j]
                states.append(base.with_coeffs(coeffs))
            traj = Trajectory(times=times, states=states, params=ModelParams(),
                              config=cfg)
            vals[r] = ito_integral(traj, (0.0, 0.0, 0.0), BAROTROPIC)
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean()) < 3.0 * se

    def test_ito_deterministic_decay_first_order(self):
        # noiseless paths make the Ito sum a quadrature for
        # (||f(T)||^2 - ||f(0)||^2) / 2 with O(dt) error
        params = ModelParams(sigma0=0.0, T=0.5)
        V0 = random_field(2, np.random.default_rng(1))
        errs = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(N=2, dt=dt, scheme="ExponentialEuler",
                               include_nonlinear=False)
            traj = simulate_path(params, V0, cfg, np.random.default_rng(0))
            target = 0.5 * (
                sum(traj.states[-1].table.weight * np.sum(np.abs(traj.states[-1].coeffs) ** 2, axis=1))
                - sum(V0.table.weight * np.sum(np.abs(V0.coeffs) ** 2, axis=1)))
            errs.append(abs(ito_integral(traj, (0.0, 0.0, 0.0), ALL) - target))
        assert 1.6 < errs[0] / errs[1] < 2.6

    def test_empty_selector_raises(self):
        traj = constant_trajectory(random_field(2, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="no observed modes"):
            ito_integral(traj, (0.0, 1.0, 0.0), ModeSelector.resonant(3))

    def test_n_obs_above_truncation_raises(self):
        traj = constant_trajectory(random_field(2, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="exceeds the trajectory truncation"):
            quadratic_integral(traj, (1.0, 0.0, 0.0), BAROTROPIC, n_obs=5)

    def test_negative_exponent_needs_nonzero_axis(self):
        traj = constant_trajectory(random_field(2, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="negative horizontal exponent"):
            ito_integral(traj, (-1.0, 0.0, 0.0), BAROCLINIC)


class TestWeightCache:
    """The cached columns and weights of the path functionals."""

    def test_cached_arrays_are_read_only(self):
        cols, wgt = estimators._mode_weights(3, BAROCLINIC, (0.0, 1.0, 2.0), True)
        with pytest.raises(ValueError, match="read-only"):
            wgt[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            cols[0] = 0

    def test_empty_selector_raises_on_every_call(self):
        # lru_cache stores no exception, so the error is raised afresh
        traj = constant_trajectory(random_field(2, np.random.default_rng(0)))
        before = estimators._mode_weights.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ValueError, match="no observed modes"):
                ito_integral(traj, (0.0, 1.0, 0.0), ModeSelector.resonant(3))
        assert estimators._mode_weights.cache_info().currsize == before

    def test_one_selector_leaves_another_unchanged(self, em_trajectory):
        weights = (0.0, 1.0, 2.0)
        estimators._mode_weights.cache_clear()
        first = quadratic_integral(em_trajectory, weights, BAROCLINIC)
        for sel in (BAROTROPIC, ALL, ModeSelector.resonant(1)):
            quadratic_integral(em_trajectory, weights, sel)
            ito_integral(em_trajectory, weights, sel)
        assert quadratic_integral(em_trajectory, weights, BAROCLINIC) == first
        # and the sum equals the uncached weights of its definition
        mask = BAROCLINIC.mask(*(getattr(mode_table(4), k) for k in ("k1", "k2", "k3")))
        eig = eigenvalue_array(4, *weights, mask=mask)
        per_sample = (em_trajectory.left_pairing("energy")[:, mask]
                      @ (mode_table(4).weight[mask] * (eig * eig)))
        assert first == float(np.diff(em_trajectory.times) @ per_sample)


class TestNonlinearIntegral:
    """Advection pairings for the V1 and V2 variants."""

    def test_v1_requires_headroom(self, em_trajectory):
        with pytest.raises(ValueError, match="full path unavailable"):
            nonlinear_integral(em_trajectory, 4.0, BAROTROPIC, "V1", n_obs=4)

    def test_v3_has_nothing_to_integrate(self, em_trajectory):
        with pytest.raises(ValueError, match="V3"):
            nonlinear_integral(em_trajectory, 4.0, BAROTROPIC, "V3", n_obs=3)

    def test_unknown_variant_rejected(self, em_trajectory):
        with pytest.raises(ValueError, match="unknown variant"):
            nonlinear_integral(em_trajectory, 4.0, BAROTROPIC, "V9", n_obs=3)

    def test_v1_equals_v2_on_supported_path(self):
        # when the path carries nothing beyond the cut the two advection
        # projections coincide identically
        f = random_field(6, np.random.default_rng(9))
        keep = f.table.k_sq <= 9
        f3 = f.with_coeffs(f.coeffs * keep[:, None])
        traj = constant_trajectory(f3)
        n1 = nonlinear_integral(traj, 4.0, BAROTROPIC, "V1", 3)
        n2 = nonlinear_integral(traj, 4.0, BAROTROPIC, "V2", 3)
        # V1 evaluates B on the N = 6 grid, V2 on the N = 3 one: roundoff apart
        assert n2 == pytest.approx(n1, rel=1e-14, abs=0.0)

    def test_v1_differs_from_v2_below_cut(self):
        f = random_field(6, np.random.default_rng(9))
        traj = constant_trajectory(f)
        n1 = nonlinear_integral(traj, 4.0, BAROTROPIC, "V1", 3)
        n2 = nonlinear_integral(traj, 4.0, BAROTROPIC, "V2", 3)
        assert abs(n1 - n2) > 0.0

    @pytest.mark.parametrize("sel, weights", [(BAROTROPIC, (5.0, 0.0, 0.0)),
                                              (BAROCLINIC, (0.0, 1.0, 4.0))])
    def test_matches_the_per_sample_loop(self, em_trajectory, sel, weights):
        # reference: sum_i dt_i <W P_sel V_i, P B(V_i, V_i)>, accumulated
        # one sample at a time; only the summation order differs
        traj = em_trajectory
        ref = 0.0
        for dt, f in zip(np.diff(traj.times), traj.states[:-1]):
            b = hydrostatic_leray(solver.nonlinear_B(f, f))
            p = project(f, sel)
            wp = p.with_coeffs(p.coeffs * eigenvalue_array(f.N, *weights)[:, None])
            ref += dt * inner_product(wp, b)
        got = nonlinear_integral(traj, 4.0, sel, "V2")
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_advection_uses_the_trajectory_backend(self, monkeypatch):
        # a path read back from text carries no advection pairing, so the
        # estimators evaluate B themselves: on the dealiased grid, even
        # under the legacy header convolution=Direct, once per left sample
        cfg = SolverConfig(N=4, dt=1e-3, convolution="Direct")
        traj = simulate_path(ModelParams(T=0.003), None, cfg, np.random.default_rng(3))
        loaded = trajectory_from_text(trajectory_to_text(traj))
        assert loaded.config.convolution == "Direct"
        kernel = solver._convolve_pseudospectral
        calls = []

        def spy(f, g):
            calls.append(f.N)
            return kernel(f, g)

        monkeypatch.setattr(solver, "_convolve_pseudospectral", spy)
        ecfg = EstimatorConfig(variant="V2")
        for estimate in (estimate_nu_h, estimate_nu_z, estimate_nu_z_hat):
            estimate(loaded, ecfg)
        assert calls == [4] * (loaded.n_samples - 1)


class TestAdvectionOncePerState:
    """The solver's advection term feeds every estimator; B runs once per state."""

    @staticmethod
    def spy_on_B(monkeypatch):
        calls = []
        real = solver.nonlinear_B

        def spy(f, g, method="auto"):
            calls.append(f.coeffs.copy())
            return real(f, g, method)

        monkeypatch.setattr(solver, "nonlinear_B", spy)
        return calls

    @staticmethod
    def path(store_every=1, include_nonlinear=True):
        params = ModelParams(T=0.008)
        V0 = random_field(4, np.random.default_rng(21), amplitude=0.3)
        cfg = SolverConfig(N=4, dt=1e-3, scheme="EulerMaruyama", store_every=store_every,
                           include_nonlinear=include_nonlinear)
        return simulate_path(params, V0, cfg, np.random.default_rng(22))

    @staticmethod
    def estimates(traj, ecfg):
        return [fn(traj, ecfg) for fn in (estimate_nu_h, estimate_nu_z, estimate_nu_z_hat)]

    @pytest.mark.parametrize("store_every", [1, 2])
    def test_one_call_per_step_then_one_per_loaded_sample(self, monkeypatch, store_every):
        calls = self.spy_on_B(monkeypatch)
        traj = self.path(store_every)
        n_steps = 8
        assert len(calls) == n_steps
        ecfg = EstimatorConfig(variant="V2")
        self.estimates(traj, ecfg)
        self.estimates(traj, EstimatorConfig(variant="V1", N_obs=3))
        assert len(calls) == n_steps
        loaded = trajectory_from_text(trajectory_to_text(traj))
        self.estimates(loaded, ecfg)
        self.estimates(loaded, ecfg)
        assert len(calls) == n_steps + loaded.n_samples - 1

    @pytest.mark.parametrize("store_every", [1, 2])
    def test_in_memory_and_round_trip_estimates_agree(self, store_every):
        traj = self.path(store_every)
        loaded = trajectory_from_text(trajectory_to_text(traj))
        for ecfg in (EstimatorConfig(variant="V2"), EstimatorConfig(variant="V1", N_obs=3)):
            for a, b in zip(self.estimates(traj, ecfg), self.estimates(loaded, ecfg)):
                assert b.value == pytest.approx(a.value, rel=1e-12, abs=0.0)
                assert b.numerator_parts["nonlinear"] == pytest.approx(
                    a.numerator_parts["nonlinear"], rel=1e-12, abs=0.0)
                assert a.numerator_parts["nonlinear"] != 0.0

    def test_v2_below_the_truncation_evaluates_the_truncated_source(self, monkeypatch):
        traj = self.path()
        calls = self.spy_on_B(monkeypatch)
        ecfg = EstimatorConfig(variant="V2", N_obs=3)
        self.estimates(traj, ecfg)
        assert len(calls) == traj.n_samples - 1
        # B receives truncation-3 fields, the observed prefix of each state
        n3 = mode_table(3).n
        for src, state in zip(calls, traj.states):
            assert src.shape == (n3, 2)
            np.testing.assert_array_equal(src, state.coeffs[:n3])

    def test_linear_path_records_nothing(self, monkeypatch):
        calls = self.spy_on_B(monkeypatch)
        traj = self.path(include_nonlinear=False)
        assert calls == []
        estimate_nu_h(traj, EstimatorConfig(variant="V2"))
        assert len(calls) == traj.n_samples - 1


class TestOnePassPerTrajectory:
    """The path functionals of every estimator share one read of the path."""

    def test_one_coefficient_stack_for_all_estimators(self, monkeypatch):
        calls = []
        real = Trajectory.coefficient_stack

        def spy(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Trajectory, "coefficient_stack", spy)
        traj = TestAdvectionOncePerState.path()
        assert traj.noise_log is not None
        TestAdvectionOncePerState.estimates(traj, EstimatorConfig(variant="V2"))
        assert len(calls) == 1 and calls[0] is traj
        # the noise pairing is for the martingale term only: no estimator builds it
        assert "noise" not in traj._pairing

    def test_pairings_match_the_stored_path(self, em_trajectory):
        stack = em_trajectory.coefficient_stack()
        left, incr = stack[:-1], np.diff(stack, axis=0)
        noise = em_trajectory.aggregated_noise()
        np.testing.assert_allclose(em_trajectory.left_pairing("energy"),
                                   np.sum(np.abs(left) ** 2, axis=2), rtol=1e-14)
        np.testing.assert_allclose(em_trajectory.left_pairing("ito"),
                                   np.sum(left * np.conj(incr), axis=2).real,
                                   rtol=1e-14, atol=1e-300)
        np.testing.assert_allclose(em_trajectory.left_pairing("noise"),
                                   np.sum(left * np.conj(noise), axis=2).real,
                                   rtol=1e-14, atol=1e-300)

    def test_unknown_pairing_kind_rejected(self, em_trajectory):
        with pytest.raises(ValueError, match="pairing kind"):
            em_trajectory.left_pairing("drift")


class TestMartingaleDecomposition:
    """Logged-noise pairings and the drift they leave behind."""

    def test_requires_noise_log(self):
        traj = constant_trajectory(random_field(2, np.random.default_rng(0)))
        with pytest.raises(ValueError, match="noise log"):
            martingale_term(traj, (1.0, 0.0, 0.0), BAROTROPIC)

    def test_ito_minus_martingale_is_pure_drift(self):
        # for a linear Euler-Maruyama path the increment splits into
        # -M f dt plus logged noise, and the rotation does no weighted work
        params = ModelParams(T=0.5)
        cfg = SolverConfig(N=3, dt=1e-3, scheme="EulerMaruyama",
                           include_nonlinear=False)
        traj = simulate_path(params, None, cfg, np.random.default_rng(3))
        alpha = params.alpha
        ito = ito_integral(traj, (1.0 + alpha, 0.0, 0.0), BAROTROPIC)
        mart = martingale_term(traj, (1.0 + alpha, 0.0, 0.0), BAROTROPIC)
        drift = -params.nu_h * quadratic_integral(
            traj, (1.0 + alpha / 2.0, 0.0, 0.0), BAROTROPIC)
        assert ito - mart == pytest.approx(drift, rel=1e-10)

    def test_barotropic_and_resonant_ratios_uncorrelated(self):
        # the two martingale parts ride on disjoint noise components, so
        # their normalized ratios decorrelate (0.15 is about 3 SE here)
        params = ModelParams(T=1.0)
        cfg = SolverConfig(N=3, dt=0.02, scheme="ExponentialEuler",
                           include_nonlinear=False)
        sel = ModeSelector.resonant(Fraction(1))
        rng = np.random.default_rng(42)
        xs, ys = [], []
        for _ in range(500):
            traj = simulate_path(params, None, cfg, rng)
            xs.append(martingale_term(traj, (5.0, 0.0, 0.0), BAROTROPIC)
                      / quadratic_integral(traj, (3.0, 0.0, 0.0), BAROTROPIC))
            ys.append(martingale_term(traj, (0.0, 1.0, 4.0), sel)
                      / quadratic_integral(traj, (0.0, 1.0, 2.0), sel))
        assert abs(np.corrcoef(xs, ys)[0, 1]) < 0.15


class TestEstimators:
    """The three estimator families and their exact reconstructions."""

    def test_em_identity_nu_h(self, em_trajectory):
        # with every step stored, the estimate equals nu_h minus the
        # logged-noise martingale over the denominator, to roundoff
        cfg = EstimatorConfig(variant="V1", N_obs=3)
        res = estimate_nu_h(em_trajectory, cfg)
        mart = martingale_term(em_trajectory, (5.0, 0.0, 0.0), BAROTROPIC, 3)
        want = em_trajectory.params.nu_h - mart / res.denominator
        assert abs(res.value - want) < 1e-12

    def test_em_identity_nu_z_tilde(self, em_trajectory):
        cfg = EstimatorConfig(variant="V1", N_obs=3)
        res = estimate_nu_z(em_trajectory, cfg)
        res_h = estimate_nu_h(em_trajectory, cfg)
        p = em_trajectory.params
        mart_h = martingale_term(em_trajectory, (5.0, 0.0, 0.0), BAROTROPIC, 3)
        mart_z = martingale_term(em_trajectory, (0.0, 1.0, 4.0), BAROCLINIC, 3)
        cross = cross_integral(em_trajectory, 4.0, BAROCLINIC, 3)
        want = (p.nu_z - mart_z / res.denominator
                + (mart_h / res_h.denominator) * cross / res.denominator)
        assert abs(res.value - want) < 1e-12

    def test_em_identity_nu_z_hat(self, em_trajectory):
        # on the resonant set the cross term collapses to q times the
        # denominator, leaving two independent martingale corrections
        cfg = EstimatorConfig(variant="V1", N_obs=3, q=Fraction(1))
        res = estimate_nu_z_hat(em_trajectory, cfg)
        res_h = estimate_nu_h(em_trajectory, cfg)
        p = em_trajectory.params
        sel = ModeSelector.resonant(Fraction(1))
        mart_h = martingale_term(em_trajectory, (5.0, 0.0, 0.0), BAROTROPIC, 3)
        mart_r = martingale_term(em_trajectory, (0.0, 1.0, 4.0), sel, 3)
        want = p.nu_z - mart_r / res.denominator + 1.0 * mart_h / res_h.denominator
        assert abs(res.value - want) < 1e-12

    def test_exponential_scheme_breaks_the_identity(self):
        # the reconstruction is specific to the explicit left-endpoint
        # scheme; the exponential integrator leaves an O(dt) residual
        params = ModelParams(T=0.2)
        V0 = random_field(4, np.random.default_rng(7), amplitude=0.3)
        cfg = SolverConfig(N=4, dt=1e-3, scheme="ExponentialEuler",
                           convolution="PseudoSpectralDealiased")
        traj = simulate_path(params, V0, cfg, np.random.default_rng(11))
        res = estimate_nu_h(traj, EstimatorConfig(variant="V1", N_obs=3))
        mart = martingale_term(traj, (5.0, 0.0, 0.0), BAROTROPIC, 3)
        assert abs(res.value - (params.nu_h - mart / res.denominator)) > 1e-6

    def test_right_endpoint_convention_is_badly_biased(self):
        # evaluating the integrand at the right endpoint adds the full
        # quadratic variation to the numerator, an O(1) shift
        params = ModelParams(T=1.0)
        cfg = SolverConfig(N=3, dt=1e-3, scheme="EulerMaruyama",
                           include_nonlinear=False)
        traj = simulate_path(params, None, cfg, np.random.default_rng(5))
        left = estimate_nu_h(traj, EstimatorConfig(variant="V3")).value
        tab = traj.states[0].table
        mask = tab.k3_sq == 0.0
        mu = tab.kp_sq[mask] ** 5.0 * tab.weight[mask]
        stack = traj.coefficient_stack()[:, mask, :]
        df = np.diff(stack, axis=0)
        ito_right = float((np.sum(stack[1:] * np.conj(df), axis=2).real @ mu).sum())
        den = quadratic_integral(traj, (3.0, 0.0, 0.0), BAROTROPIC)
        right = -ito_right / den
        assert abs(left - params.nu_h) < 0.5
        assert params.nu_h - right > 1.0

    def test_noiseless_decay_recovers_nu_h(self):
        params = ModelParams(sigma0=0.0, T=0.5)
        V0 = random_field(3, np.random.default_rng(3))
        errs = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(N=3, dt=dt, scheme="ExponentialEuler",
                               include_nonlinear=False)
            traj = simulate_path(params, V0, cfg, np.random.default_rng(0))
            res = estimate_nu_h(traj, EstimatorConfig(variant="V3"))
            errs.append(abs(res.value - params.nu_h))
        assert errs[1] < 0.02
        assert 1.7 < errs[0] / errs[1] < 2.3

    def test_noiseless_decay_recovers_nu_z(self):
        params = ModelParams(sigma0=0.0, T=0.5)
        V0 = random_field(3, np.random.default_rng(3))
        errs = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(N=3, dt=dt, scheme="ExponentialEuler",
                               include_nonlinear=False)
            traj = simulate_path(params, V0, cfg, np.random.default_rng(0))
            res = estimate_nu_z(traj, EstimatorConfig(variant="V3"))
            errs.append(abs(res.value - params.nu_z))
        assert errs[1] < 0.02
        assert 1.7 < errs[0] / errs[1] < 2.3

    @pytest.mark.parametrize("s", [2.5, 0.4])
    def test_time_rescaling_equivariance(self, s):
        # stretching the clock by s while dividing the viscosities and
        # the noise variance by s leaves the path law alone, and the
        # estimates track the rescaled viscosities exactly
        params = ModelParams(T=0.5)
        cfg = SolverConfig(N=3, dt=2e-3, scheme="EulerMaruyama",
                           include_nonlinear=False)
        traj = simulate_path(params, None, cfg, np.random.default_rng(8))
        scaled = Trajectory(
            times=traj.times * s,
            states=traj.states,
            params=params.with_(nu_h=params.nu_h / s, nu_z=params.nu_z / s,
                                f0=params.f0 / s,
                                sigma0=params.sigma0 / math.sqrt(s),
                                T=params.T * s),
            config=SolverConfig(N=3, dt=cfg.dt * s, scheme=cfg.scheme,
                                include_nonlinear=False),
        )
        ecfg = EstimatorConfig(variant="V3")
        for fn in (estimate_nu_h, estimate_nu_z):
            orig = fn(traj, ecfg).value
            resc = fn(scaled, ecfg).value
            assert resc * s == pytest.approx(orig, rel=1e-12)

    def test_zero_trajectory_hits_denominator_floor(self):
        params = ModelParams(sigma0=0.0, T=0.1)
        cfg = SolverConfig(N=2, dt=0.01, include_nonlinear=False)
        traj = simulate_path(params, None, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="denominator"):
            estimate_nu_h(traj, EstimatorConfig(variant="V3"))

    def test_hat_reports_smallest_resonant_truncation(self, em_trajectory):
        cfg = EstimatorConfig(variant="V3", N_obs=1, q=Fraction(1))
        with pytest.raises(ValueError, match="N=2"):
            estimate_nu_z_hat(em_trajectory, cfg)

    def test_hat_q_three_matches_nothing(self, em_trajectory):
        # 3 k3^2 is never a sum of two squares, so the selector is empty
        # at every truncation
        cfg = EstimatorConfig(variant="V3", q=Fraction(3))
        with pytest.raises(ValueError, match="matches no modes"):
            estimate_nu_z_hat(em_trajectory, cfg)

    def test_hat_huge_q_fails_at_once(self):
        # no truncation up to the search limit can hold a mode with
        # |k'|^2 = q k3^2 here, so the error must come before any
        # two-squares search over q m^2; run apart, so a stall cannot hang
        # the suite
        src = str(Path(solver.__file__).parents[1])
        code = "\n".join([
            f"import sys; sys.path.insert(0, {src!r})",
            "from fractions import Fraction",
            "import numpy as np",
            "from pespec.estimators import EstimatorConfig, estimate_nu_z_hat",
            "from pespec.modes import SpectralField",
            "from pespec.params import ModelParams",
            "from pespec.solver import SolverConfig, Trajectory",
            "f = SpectralField.zeros(4)",
            "traj = Trajectory(times=np.array([0.0, 0.5]), states=[f, f],",
            "                  params=ModelParams(T=0.5), config=SolverConfig(N=4, dt=0.5))",
            "try:",
            "    estimate_nu_z_hat(traj, EstimatorConfig(variant='V3', q=Fraction(3 * 10**12)))",
            "except ValueError as exc:",
            "    print(exc)",
        ])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, check=True)
        assert "matches no modes" in out.stdout

    def test_config_validation(self):
        with pytest.raises(ValueError, match="variant"):
            EstimatorConfig(variant="V4")
        with pytest.raises(ValueError, match="positive rational"):
            EstimatorConfig(q=Fraction(-1))
        with pytest.raises(ValueError, match="N_obs"):
            EstimatorConfig(N_obs=0)

    def test_result_requires_positive_denominator(self):
        with pytest.raises(ValueError, match="positive"):
            EstimateResult(value=1.0, numerator_parts={}, denominator=0.0,
                           variant="V1")

    def test_regime_warnings(self):
        params = ModelParams(T=0.1)
        cfg = SolverConfig(N=2, dt=1e-3, include_nonlinear=False)
        traj = simulate_path(params, None, cfg, np.random.default_rng(1))
        with pytest.warns(UserWarning, match="consistency"):
            estimate_nu_h(traj, EstimatorConfig(alpha=2.0, variant="V3"))
        with pytest.warns(UserWarning, match="normality"):
            estimate_nu_h(traj, EstimatorConfig(alpha=3.0, variant="V3"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_nu_h(traj, EstimatorConfig(alpha=4.0, variant="V3"))

    @pytest.mark.parametrize("estimator", [estimate_nu_h, estimate_nu_z, estimate_nu_z_hat])
    def test_regime_warning_once_at_the_caller(self, estimator):
        params = ModelParams(T=0.1)
        cfg = SolverConfig(N=2, dt=1e-3, include_nonlinear=False)
        traj = simulate_path(params, None, cfg, np.random.default_rng(1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            estimator(traj, EstimatorConfig(alpha=3.0, variant="V3"))
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]
        assert "normality regime" in str(caught[0].message)

    def test_numerator_parts_add_up(self, em_trajectory):
        cfg = EstimatorConfig(variant="V1", N_obs=3)
        res = estimate_nu_z(em_trajectory, cfg)
        assert set(res.numerator_parts) == {"ito", "nonlinear", "cross"}
        total = sum(res.numerator_parts.values())
        assert res.value == pytest.approx(-total / res.denominator, rel=1e-12)
        res3 = estimate_nu_z(em_trajectory, EstimatorConfig(variant="V3", N_obs=3))
        assert res3.numerator_parts["nonlinear"] == 0.0


class TestTheory:
    """Limit covariance and confidence intervals."""

    def test_covariance_default_values(self):
        sigma = theoretical_covariance(ModelParams())
        assert sigma[0, 0] == pytest.approx(4.5 / math.pi, rel=1e-12)
        assert sigma[0, 1] == pytest.approx(-4.5 / math.pi, rel=1e-12)
        assert sigma[1, 1] == pytest.approx(11.25 / math.pi, rel=1e-12)
        assert sigma[0, 1] == sigma[1, 0]

    @pytest.mark.parametrize("q", [Fraction(2), Fraction(1, 2), Fraction(3)])
    def test_covariance_q_scaling(self, q):
        p = ModelParams()
        sigma = theoretical_covariance(p, q=q)
        qq = float(q)
        assert sigma[0, 1] == pytest.approx(-qq * sigma[0, 0], rel=1e-14)
        shape = (2.0 + p.alpha - p.gamma) ** 2 / (2.0 + 2.0 * p.alpha - 2.0 * p.gamma)
        want = ((2 * qq * qq + qq + 1) * p.nu_h + (1 + 1 / qq) * p.nu_z) \
            / (math.pi * p.T) * shape
        assert sigma[1, 1] == pytest.approx(want, rel=1e-14)

    def test_covariance_positive_definite(self):
        for q in (0.5, 1.0, 2.0, 5.0):
            for t in (0.5, 1.0, 4.0):
                sigma = theoretical_covariance(ModelParams(T=t), q=Fraction(q))
                assert np.linalg.det(sigma) > 0.0
                assert sigma[0, 0] > 0.0

    def test_covariance_regime_error(self):
        with pytest.raises(ValueError, match="alpha > gamma - 1"):
            theoretical_covariance(ModelParams(), alpha=3.4)

    def test_covariance_overrides(self):
        p = ModelParams()
        assert theoretical_covariance(p, T=4.0)[0, 0] == pytest.approx(
            theoretical_covariance(p)[0, 0] / 4.0, rel=1e-14)

    def test_confidence_interval_quantile(self):
        lo, hi = confidence_interval(1.0, 4.0, 1, level=0.95)
        assert (hi - lo) / 2.0 == pytest.approx(2.0 * 1.959964, abs=1e-4)
        assert lo + hi == pytest.approx(2.0, abs=1e-12)

    def test_confidence_interval_rate(self):
        w1 = np.diff(confidence_interval(0.0, 1.0, 6))[0]
        w2 = np.diff(confidence_interval(0.0, 1.0, 12))[0]
        assert w1 / w2 == pytest.approx(4.0, rel=1e-12)

    def test_confidence_interval_validation(self):
        with pytest.raises(ValueError, match="level"):
            confidence_interval(0.0, 1.0, 4, level=1.0)
        with pytest.raises(ValueError, match="sigma"):
            confidence_interval(0.0, -1.0, 4)

    def test_confidence_interval_degenerate_sigma(self):
        assert confidence_interval(0.7, 0.0, 4) == (0.7, 0.7)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
