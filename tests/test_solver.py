"""Tests for the advection term, time stepping and trajectory storage.

The nonlinear-term reference coefficients were computed symbolically
(literal expansion of f.grad_h g + w(f) dz g for a two-mode field,
exact rationals) and are asserted against the production advection
term and against the Direct site-pair sum kept as its test oracle.
"""
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft
from scipy import stats

from advection_oracle import direct_B, vertical_velocity
from pespec.linear import OUMode
from pespec.modes import (
    BAROTROPIC,
    ModeIndex,
    SpectralField,
    field_from_text,
    field_norm,
    field_to_text,
    hydrostatic_leray,
    inner_product,
    mode_table,
    random_field,
)
from pespec import solver
from pespec.params import ModelParams
from pespec.solver import (
    SCHEMES,
    BlowUpError,
    SolverConfig,
    Trajectory,
    _site_layout,
    _site_values,
    _w_site_values,
    draw_increments,
    nonlinear_B,
    simulate_path,
    step,
    trajectory_from_text,
    trajectory_to_text,
)
from scalar_ou import ou_exact_step

# the Direct oracle and the production dealiased grid, under the names
# the two backends went by when both were selectable
METHODS = {"Direct": direct_B, "PseudoSpectralDealiased": nonlinear_B}


def two_mode_field(N=3):
    """The field behind the frozen advection coefficients below."""
    return SpectralField.from_mapping(N, {
        (1, 0, 1): (0.5 + 1j / 3, -0.25),
        (0, 1, 0): (0.2 - 1j / 7, 0.0),
    })


# exact rational coefficients of B(f, f) for two_mode_field; every stored
# mode not listed here vanishes identically
FROZEN_B = {
    (1, 1, 1): (-13 / 420 + 41j / 420, -1 / 28 - 1j / 20),
    (1, -1, 1): (-73 / 420 + 43j / 420, 1 / 28 - 1j / 20),
    (0, 0, 2): (0.0, -math.sqrt(2.0) / 6.0),
    (2, 0, 0): (-2 / 3 + 5j / 18, 1 / 6 - 1j / 4),
}


class TestVerticalVelocity:
    def test_barotropic_field_has_no_vertical_motion(self):
        f = SpectralField.from_mapping(2, {(1, 1, 0): (1.0, -1.0)})
        assert all(w == 0 for w in vertical_velocity(f).values())

    def test_single_mode_value(self):
        # unit u-component on k = (1,0,1): w-coefficient is -i k1/k3 = -i
        f = SpectralField.from_mapping(2, {(1, 0, 1): (1.0, 0.0)})
        assert vertical_velocity(f)[ModeIndex(1, 0, 1)] == pytest.approx(-1j)

    def test_two_mode_field_value(self):
        w = vertical_velocity(two_mode_field())
        assert w[ModeIndex(1, 0, 1)] == pytest.approx(1 / 3 - 1j / 2)

    def test_divergence_free_columns_give_zero(self):
        f = SpectralField.from_mapping(3, {
            (1, 2, 1): (-2.0 + 1j, 1.0 - 0.5j),  # coeff parallel to k'perp
            (0, 0, 2): (0.7, -0.3),              # k' = 0 column
        })
        assert all(abs(w) < 1e-15 for w in vertical_velocity(f).values())

    def test_keys_are_the_baroclinic_modes(self):
        f = SpectralField.zeros(2)
        keys = set(vertical_velocity(f))
        expected = {k for k in mode_table(2).modes if k.k3 != 0}
        assert keys == expected

    @pytest.mark.parametrize("N,seed", [(3, 0), (5, 1)])
    def test_site_values_match_the_stored_mode_oracle(self, N, seed):
        # the sine element sqrt(2) w_k sin(k3 z) puts +-w_k / (i sqrt(2)) on
        # the sites (k', +-k3); the reality partner (-k', -+k3) conjugates
        f = random_field(N, np.random.default_rng(seed))
        lay = _site_layout(N)
        w = _w_site_values(lay.sites, _site_values(lay, f))
        oracle = vertical_velocity(f)
        m3 = lay.sites[:, 2]
        assert np.all(w[m3 == 0] == 0)
        for j in np.flatnonzero(m3 != 0):
            k = mode_table(N).modes[lay.rows[j]]
            sign = np.sign(m3[j]) * (-1 if lay.conj[j] else 1)
            want = sign * oracle[k] / (1j * math.sqrt(2.0))
            if lay.conj[j]:
                want = np.conj(want)
            assert abs(w[j] - want) <= 1e-12 * max(1.0, abs(want))


class TestNonlinearB:
    @pytest.mark.parametrize("method", METHODS)
    def test_frozen_coefficients(self, method):
        B = METHODS[method](two_mode_field(), two_mode_field())
        for i, k in enumerate(B.table.modes):
            want = FROZEN_B.get(k.as_tuple(), (0.0, 0.0))
            np.testing.assert_allclose(B.coeffs[i], want, atol=1e-13)

    @pytest.mark.parametrize("method", METHODS)
    def test_bilinearity_at_zero(self, method):
        f = two_mode_field()
        z = SpectralField.zeros(3)
        assert field_norm(METHODS[method](z, f)) == 0.0
        assert field_norm(METHODS[method](f, z)) == 0.0

    def test_methods_agree_on_random_fields(self):
        # the dealiased grid matches the Direct oracle at 1e-10 relative
        for seed in (0, 1, 2):
            f = random_field(4, np.random.default_rng(seed))
            bd = direct_B(f, f)
            bp = nonlinear_B(f, f)
            diff = field_norm(bd.with_coeffs(bd.coeffs - bp.coeffs))
            assert diff <= 1e-10 * field_norm(bd)

    @pytest.mark.parametrize("same", [False, True], ids=["f_g", "f_f"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8])
    def test_half_spectrum_matches_the_oracle(self, N, same):
        # G / Gz = 4/4, 7/8, 10/10, 14/14, 16/16, 20/20, 25/26 with
        # Gz = 2M = 2 ceil((3N + 1)/2): odd and even x, y grids, and at
        # N = 2 and 8 a z grid (the even extension of the M + 1 cosine
        # points) longer than the x, y grid
        f = random_field(N, np.random.default_rng(100 + N))
        g = f if same else random_field(N, np.random.default_rng(200 + N))
        bd = direct_B(f, g)
        bp = nonlinear_B(f, g)
        diff = field_norm(bd.with_coeffs(bd.coeffs - bp.coeffs))
        if N == 1:
            # no two nonzero sites of the unit ball add up to a third one
            assert field_norm(bd) == 0.0
            assert field_norm(bp) <= 1e-14 * field_norm(f) * field_norm(g)
        else:
            assert diff <= 1e-10 * field_norm(bd)

    # the Direct sum takes about 6 s at N = 12, and it checks no program code
    @pytest.mark.parametrize("method,N", [(m, N) for m in METHODS for N in (4, 8, 12)
                                          if (m, N) != ("Direct", 12)])
    def test_energy_orthogonality(self, method, N):
        f = random_field(N, np.random.default_rng(11))
        B = METHODS[method](f, f)
        rel = abs(inner_product(B, f)) / (field_norm(B) * field_norm(f))
        assert rel < 1e-12

    @pytest.mark.parametrize("N", [2, 4, 8, 12])
    def test_barotropic_fields_stay_barotropic(self, N):
        # depth-independent f and g have w(f) = 0 and a depth-independent
        # product, so B has nothing on any row with k3 > 0
        f = random_field(N, np.random.default_rng(300 + N), sel=BAROTROPIC)
        g = random_field(N, np.random.default_rng(400 + N), sel=BAROTROPIC)
        B = nonlinear_B(f, g)
        baroclinic = B.table.k3 > 0
        assert field_norm(B) > 0.0
        assert np.abs(B.coeffs[baroclinic]).max() <= 1e-14 * np.abs(B.coeffs).max()

    @pytest.mark.parametrize("N", [2, 5, 8])
    def test_shared_work_matches_the_general_path(self, N):
        # B(f, f) reuses f's grids and the flux f1 f2; an equal copy of f
        # takes the general path with its own grids and all four fluxes
        f = random_field(N, np.random.default_rng(500 + N))
        shared = nonlinear_B(f, f)
        general = nonlinear_B(f, f.with_coeffs(f.coeffs.copy()))
        diff = field_norm(shared.with_coeffs(shared.coeffs - general.coeffs))
        assert diff <= 1e-14 * field_norm(general)

    @pytest.mark.parametrize("N", range(1, 17))
    def test_z_matrices_round_trip(self, N):
        # analysis undoes synthesis on the kept cosine planes 0..N and
        # sine planes 1..N, on the smallest grid 2M >= 3N + 1
        lay = _site_layout(N)
        assert 2 * lay.M >= 3 * N + 1 > 2 * lay.M - 2
        assert lay.cos_syn.shape == (lay.M + 1, N + 1)
        assert lay.sin_syn.shape == (lay.M - 1, N)
        np.testing.assert_allclose(lay.cos_ana @ lay.cos_syn, np.eye(N + 1), rtol=0, atol=1e-13)
        np.testing.assert_allclose(lay.sin_ana @ lay.sin_syn, np.eye(N), rtol=0, atol=1e-13)

    def test_transform_counts(self, monkeypatch):
        # B(u, u): 3 inverse grids (u1, u2, w) and 5 forward fluxes (u1 u1,
        # u1 u2, u2 u2, w u1, w u2); B(f, g) adds g's two grids and the
        # flux f2 g1.  Each transform is an (x, y) scipy.fft call and a
        # matrix product along z, which scipy.fft does not see.
        f = random_field(8, np.random.default_rng(8))
        g = random_field(8, np.random.default_rng(9))
        nonlinear_B(f, g)  # build the cached site layout outside the count
        calls = []

        class Counting:
            def __getattr__(self, name):
                def call(*args, **kwargs):
                    calls.append(name)
                    return getattr(sfft, name)(*args, **kwargs)
                return call

        monkeypatch.setattr(solver, "sfft", Counting())
        nonlinear_B(f, f)
        assert Counter(calls) == {"irfft2": 3, "rfft2": 5}
        assert len(calls) == 8
        calls.clear()
        nonlinear_B(f, g)
        assert Counter(calls) == {"irfft2": 5, "rfft2": 6}
        assert len(calls) == 11

    def test_output_needs_projection(self):
        # the raw advection term has a pressure-gradient component in its
        # horizontal average; the hydrostatic Leray projection removes it
        B = nonlinear_B(two_mode_field(), two_mode_field())
        assert not B.is_divergence_free()
        assert hydrostatic_leray(B).is_divergence_free()

    def test_truncation_mismatch(self):
        with pytest.raises(ValueError, match="truncation mismatch"):
            nonlinear_B(two_mode_field(3), SpectralField.zeros(4))

    def test_unknown_method(self):
        f = two_mode_field()
        with pytest.raises(ValueError, match="unknown convolution"):
            nonlinear_B(f, f, "Spectral")
        with pytest.raises(ValueError, match="unknown convolution"):
            SolverConfig(N=4, dt=0.1, convolution="Spectral")

    def test_auto_resolution(self):
        # every accepted name, legacy ones included, resolves to the
        # dealiased grid at every truncation, and nonlinear_B evaluates
        # each of them there
        for N in (1, 4, 8, 9):
            for name in ("auto", "Direct", "PseudoSpectralDealiased"):
                cfg = SolverConfig(N=N, dt=0.1, convolution=name)
                assert cfg.resolved_convolution() == "PseudoSpectralDealiased"
        f = random_field(4, np.random.default_rng(5))
        want = nonlinear_B(f, f, "PseudoSpectralDealiased").coeffs
        for name in ("auto", "Direct"):
            assert nonlinear_B(f, f, name).coeffs.tobytes() == want.tobytes()


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        for dt in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be positive"):
                SolverConfig(N=4, dt=dt)
        with pytest.raises(ValueError, match="unknown scheme"):
            SolverConfig(N=4, dt=0.1, scheme="Milstein")
        with pytest.raises(ValueError, match="store_every"):
            SolverConfig(N=4, dt=0.1, store_every=0)


class TestLinearStepping:
    """With the advection term off every scheme has a closed-form action."""

    def test_exponential_euler_decay_is_exact(self):
        p = ModelParams(sigma0=0.0)
        V0 = SpectralField.from_mapping(2, {(1, 1, 0): (1.0, -1.0)})
        cfg = SolverConfig(N=2, dt=0.05, include_nonlinear=False)
        traj = simulate_path(p, V0, cfg, 0)
        i = mode_table(2).index[(1, 1, 0)]
        got = traj.states[-1].coeffs[i, 0]
        assert got == pytest.approx(math.exp(-2.0 * p.nu_h * 1.0), rel=1e-13)

    def test_rotation_turns_clockwise(self):
        # quarter period on the k'=0 column: (1, 0) -> (0, -1) times decay
        p = ModelParams(sigma0=0.0, f0=math.pi / 2.0)
        V0 = SpectralField.from_mapping(2, {(0, 0, 1): (1.0, 0.0)})
        cfg = SolverConfig(N=2, dt=0.01, include_nonlinear=False)
        fin = simulate_path(p, V0, cfg, 0).states[-1]
        i = mode_table(2).index[(0, 0, 1)]
        np.testing.assert_allclose(
            fin.coeffs[i], [0.0, -math.exp(-p.nu_z)], atol=1e-12)

    def test_euler_maruyama_decay_factor(self):
        p = ModelParams(sigma0=0.0)
        V0 = SpectralField.from_mapping(2, {(1, 1, 0): (1.0, -1.0)})
        cfg = SolverConfig(N=2, dt=0.1, scheme="EulerMaruyama",
                           include_nonlinear=False)
        fin = simulate_path(p, V0, cfg, 0).states[-1]
        i = mode_table(2).index[(1, 1, 0)]
        lam = 2.0 * p.nu_h
        assert fin.coeffs[i, 0] == pytest.approx((1.0 - lam * 0.1) ** 10)

    def test_step_shape_guards(self):
        p = ModelParams()
        cfg = SolverConfig(N=2, dt=0.1, include_nonlinear=False)
        state = SpectralField.zeros(2)
        with pytest.raises(ValueError, match="increments"):
            step(state, cfg, p, np.zeros((3, 2), dtype=complex))
        with pytest.raises(ValueError, match="truncation"):
            step(SpectralField.zeros(3), cfg, p, np.zeros((1, 2)))


class TestNonlinearStepping:
    def test_energy_drift_is_second_order(self):
        # with (nearly) no damping and no noise the scheme's only energy
        # error is the explicit advection term: drift = dt^2 |P B|^2
        p = ModelParams(nu_h=1e-14, nu_z=1e-14, f0=0.0, sigma0=0.0, T=1.0)
        V0 = random_field(3, np.random.default_rng(4), amplitude=0.5)
        e0 = inner_product(V0, V0)
        drifts = []
        for dt in (0.02, 0.01):
            cfg = SolverConfig(N=3, dt=dt)
            out = step(V0, cfg, p, np.zeros_like(V0.coeffs))
            drifts.append(abs(inner_product(out, out) - e0))
        assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=1e-3)

    def test_rotation_does_no_work(self):
        # the projected rotation term P(f0 V^perp) is orthogonal to V and
        # its horizontal average vanishes outright
        V = random_field(3, np.random.default_rng(9))
        perp = np.stack([-V.coeffs[:, 1], V.coeffs[:, 0]], axis=1)
        rot = hydrostatic_leray(SpectralField(3, perp))
        tab = mode_table(3)
        assert np.all(np.abs(rot.coeffs[tab.k3 == 0]) < 1e-12)
        assert abs(inner_product(rot, V)) < 1e-12 * inner_product(V, V)

    def test_state_stays_in_the_symmetry_class(self):
        p = ModelParams(T=0.5)
        cfg = SolverConfig(N=3, dt=0.05)
        V0 = random_field(3, np.random.default_rng(2), amplitude=0.1)
        traj = simulate_path(p, V0, cfg, 3)
        for s in traj.states:
            assert s.is_divergence_free(tol=1e-12)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_nonlinear_path_stays_divergence_free(self, scheme):
        # B is evaluated in flux form, which equals the advective form only
        # while the horizontal average of the state is divergence-free
        p = ModelParams(T=0.05)
        cfg = SolverConfig(N=8, dt=1e-3, scheme=scheme)
        V0 = random_field(8, np.random.default_rng(6), amplitude=0.5)
        traj = simulate_path(p, V0, cfg, 7, log_noise=False)
        assert traj.n_samples == 51
        assert all(s.is_divergence_free() for s in traj.states)

    @pytest.mark.parametrize("scheme", ["ExponentialEuler", "EulerMaruyama"])
    @pytest.mark.parametrize("N", [8, 12])
    def test_advection_pairing_is_energy_neutral(self, N, scheme):
        # <V_i, P B(V_i, V_i)> = 0 on the rows simulate_path hands over
        p = ModelParams(T=0.02)
        cfg = SolverConfig(N=N, dt=1e-3, scheme=scheme)
        V0 = random_field(N, np.random.default_rng(700 + N), amplitude=0.5)
        traj = simulate_path(p, V0, cfg, 8, log_noise=False)
        pairing = traj.left_pairing("advection")
        tab = mode_table(N)
        assert pairing.shape == (20, tab.n)
        assert np.all(np.abs(pairing @ tab.weight) <= 1e-13 * (np.abs(pairing) @ tab.weight))

    def test_blowup_reports_step(self):
        p = ModelParams(sigma0=0.0)
        big = SpectralField.from_mapping(
            2, {(1, 0, 1): (1e160, -2e159), (0, 1, 0): (1e160, 0.0)})
        with pytest.raises(BlowUpError, match="step 1 of 10"):
            simulate_path(p, big, SolverConfig(N=2, dt=0.1), 0)

    def test_deterministic_self_convergence(self):
        # first-order accuracy of the advection coupling: halving dt
        # roughly halves the error against a fine reference
        p = ModelParams(sigma0=0.0, T=0.5)
        V0 = random_field(3, np.random.default_rng(8), amplitude=0.8)
        final = {}
        for dt in (0.05, 0.025, 0.003125):
            cfg = SolverConfig(N=3, dt=dt)
            final[dt] = simulate_path(p, V0, cfg, 0).states[-1].coeffs
        ref = final[0.003125]
        e1 = np.abs(final[0.05] - ref).max()
        e2 = np.abs(final[0.025] - ref).max()
        assert 1.6 < e1 / e2 < 2.6


class TestSimulatePath:
    def test_zero_noise_zero_start_stays_zero(self):
        p = ModelParams(sigma0=0.0)
        traj = simulate_path(p, None, SolverConfig(N=2, dt=0.1), 0)
        assert all(np.all(s.coeffs == 0) for s in traj.states)

    def test_grid_validation(self):
        p = ModelParams()
        with pytest.raises(ValueError, match="whole steps"):
            simulate_path(p, None, SolverConfig(N=2, dt=0.3), 0)
        with pytest.raises(ValueError, match="store_every"):
            simulate_path(p, None, SolverConfig(N=2, dt=0.25, store_every=3), 0)

    def test_rejects_initial_state_outside_h(self):
        p = ModelParams()
        bad = SpectralField.from_mapping(2, {(1, 1, 0): (1.0, 1.0)})
        with pytest.raises(ValueError, match="divergence-free"):
            simulate_path(p, bad, SolverConfig(N=2, dt=0.25), 0)

    def test_explicit_diffusion_stability_gate(self):
        p = ModelParams()
        cfg = SolverConfig(N=8, dt=0.05, scheme="EulerMaruyama",
                           include_nonlinear=False)
        with pytest.raises(ValueError, match="unstable"):
            simulate_path(p, None, cfg, 0)

    def test_store_every_thins_samples(self):
        p = ModelParams()
        cfg = SolverConfig(N=2, dt=0.1, store_every=5, include_nonlinear=False)
        traj = simulate_path(p, None, cfg, 7)
        np.testing.assert_allclose(traj.times, [0.0, 0.5, 1.0])
        assert len(traj.noise_log) == 10
        agg = traj.aggregated_noise()
        np.testing.assert_allclose(agg[0], np.sum(traj.noise_log[:5], axis=0))

    def test_noise_log_optional(self):
        p = ModelParams()
        cfg = SolverConfig(N=2, dt=0.25, include_nonlinear=False)
        traj = simulate_path(p, None, cfg, 7, log_noise=False)
        assert traj.noise_log is None
        with pytest.raises(ValueError, match="no noise log"):
            traj.aggregated_noise()

    def test_noise_log_length_checked_on_construction(self):
        p = ModelParams()
        cfg = SolverConfig(N=2, dt=0.1, store_every=5, include_nonlinear=False)
        traj = simulate_path(p, None, cfg, 7)
        with pytest.raises(ValueError, match="noise log length"):
            Trajectory(times=traj.times, states=traj.states, params=p, config=cfg,
                       noise_log=traj.noise_log[:-1])

    def test_same_seed_same_bytes(self):
        p = ModelParams(T=0.5)
        cfg = SolverConfig(N=2, dt=0.05)
        a = simulate_path(p, None, cfg, 123)
        b = simulate_path(p, None, cfg, 123)
        assert (trajectory_to_text(a, include_noise=True)
                == trajectory_to_text(b, include_noise=True))

    def test_different_seeds_differ(self):
        p = ModelParams(T=0.5)
        cfg = SolverConfig(N=2, dt=0.05, include_nonlinear=False)
        a = simulate_path(p, None, cfg, 1)
        b = simulate_path(p, None, cfg, 2)
        assert not np.array_equal(a.states[-1].coeffs, b.states[-1].coeffs)

    def test_marginals_match_exact_sampler(self):
        """Linear-mode one-mode marginal vs ou_exact_step, two-sample KS."""
        p = ModelParams(T=1.0)
        cfg = SolverConfig(N=2, dt=0.1, include_nonlinear=False)
        k = ModeIndex(1, 0, 1)
        i = mode_table(2).index[k.as_tuple()]
        reps = 400
        rng = np.random.default_rng(2024)
        solver_samples = np.empty(reps)
        for r in range(reps):
            traj = simulate_path(p, None, cfg, rng, log_noise=False)
            solver_samples[r] = traj.states[-1].coeffs[i, 0].real
        # matching strand: real parts of a conjugate-paired coefficient
        # follow the OU strand at amplitude amp/sqrt(2)
        m = OUMode.from_params(k, p)
        strand = OUMode(k, m.lam, m.f0, m.amp / math.sqrt(2.0), m.direction)
        exact_samples = np.empty(reps)
        for r in range(reps):
            x = np.zeros(2)
            for _ in range(10):
                x = ou_exact_step(strand, x, 0.1, rng)
            exact_samples[r] = x[0]
        p_value = stats.ks_2samp(solver_samples, exact_samples).pvalue
        assert p_value > 0.01


class TestTrajectoryIO:
    def make(self, seed=5):
        p = ModelParams(q="1/2", T=0.5)
        cfg = SolverConfig(N=2, dt=0.125, scheme="ExponentialEuler",
                           store_every=2, include_nonlinear=False)
        return simulate_path(p, None, cfg, seed)

    def test_roundtrip_is_exact(self):
        traj = self.make()
        back = trajectory_from_text(trajectory_to_text(traj, include_noise=True))
        assert back.params == traj.params
        assert back.config == traj.config
        assert back.seed == traj.seed
        np.testing.assert_array_equal(back.times, traj.times)
        for a, b in zip(back.states, traj.states):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)
        for a, b in zip(back.noise_log, traj.noise_log):
            np.testing.assert_array_equal(a, b)

    def test_reserialization_is_byte_identical(self):
        traj = self.make()
        txt = trajectory_to_text(traj, include_noise=True)
        assert trajectory_to_text(trajectory_from_text(txt),
                                  include_noise=True) == txt

    def test_noise_can_be_omitted(self):
        traj = self.make()
        back = trajectory_from_text(trajectory_to_text(traj))
        assert back.noise_log is None

    def test_rejects_foreign_header(self):
        with pytest.raises(ValueError, match="unrecognized trajectory header"):
            trajectory_from_text("# some-other-format v9\n")

    def test_header_only_rejected(self):
        first = trajectory_to_text(self.make()).splitlines()[0]
        with pytest.raises(ValueError, match="line 2"):
            trajectory_from_text(first + "\n")

    @pytest.mark.parametrize("field", ["nu_h=1.0", "T=0.5"])
    def test_non_finite_params_header_rejected(self, field):
        txt = trajectory_to_text(self.make())
        assert field in txt
        with pytest.raises(ValueError, match="line 2: bad params header"):
            trajectory_from_text(txt.replace(field, field.split("=")[0] + "=nan"))

    def test_unknown_include_nonlinear_rejected(self):
        txt = trajectory_to_text(self.make())
        assert "include_nonlinear=False" in txt
        with pytest.raises(ValueError, match="line 3: include_nonlinear"):
            trajectory_from_text(txt.replace("include_nonlinear=False",
                                             "include_nonlinear=flase"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_time_rejected(self, value):
        lines = trajectory_to_text(self.make()).splitlines()
        j = [i for i, line in enumerate(lines) if line.startswith("time ")][1]
        lines[j] = f"time {value}"
        with pytest.raises(ValueError, match=f"line {j + 1}: time {value} is not finite"):
            trajectory_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_coefficient_rejected(self, value):
        # a nan row used to load, and estimate_nu_h then returned nan
        lines = trajectory_to_text(self.make()).splitlines()
        j = [i for i, line in enumerate(lines) if line.startswith("time ")][1]
        row = lines[j + 3].split(",")
        row[4] = value
        lines[j + 3] = ",".join(row)
        with pytest.raises(ValueError, match=f"field block from line {j + 2}: "
                                             "line 3: non-finite coefficient in row 1"):
            trajectory_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("noise", [False, True], ids=["fields", "noise"])
    def test_trailing_lines_rejected(self, noise):
        txt = trajectory_to_text(self.make(), include_noise=noise)
        trajectory_from_text(txt)
        n_lines = len(txt.splitlines())
        for extra in ("garbage\n", "\n", "time 1.0\n"):
            with pytest.raises(ValueError, match=f"line {n_lines + 1}: unexpected text"):
                trajectory_from_text(txt + extra)

    @pytest.mark.parametrize("line", [
        "# samples 2 noise -3", "# samples 2 noise 5", "# samples 3 noise 3",
        "# samples -1 noise 0", "# samples 0 noise 0", "# samples 2 noise",
        "# samples 2 noise 2 3", "# noise 4 samples 3", "# samples three noise 4",
    ], ids=lambda line: line[2:].replace(" ", "-"))
    def test_count_header_checked(self, line):
        # the N = 2 text stores 3 samples at store_every 2, so it logs 4 noise steps
        lines = _TRAJECTORY_TEXT.splitlines()
        assert lines[4] == "# samples 3 noise 4"
        lines[4] = line
        with pytest.raises(ValueError, match=r"^line 5: expected '# samples <n> noise <m>' "
                                             rf"with n >= 1 .*, not {re.escape(repr(line))}$"):
            trajectory_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("row", [0, 5])
    def test_non_finite_noise_rejected(self, row, value):
        # a nan noise row used to load, and the martingale terms built on it read nan
        lines = _TRAJECTORY_TEXT.splitlines()
        j = lines.index("noise-step 0") + 1 + row
        lines[j] = ",".join([value] + lines[j].split(",")[1:])
        with pytest.raises(ValueError, match=f"line {j + 1}: non-finite noise in row {row}$"):
            trajectory_from_text("\n".join(lines) + "\n")

    def test_trajectory_invariants(self):
        p = ModelParams()
        s = SpectralField.zeros(2)
        cfg = SolverConfig(N=2, dt=0.5)
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(times=[0.0, 0.0], states=[s, s], params=p, config=cfg)
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(times=[0.0], states=[s, s], params=p, config=cfg)
        # a nan time compares False with everything, so the ordering check alone lets it pass
        for times in ([0.0, math.nan], [0.0, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="times must be finite"):
                Trajectory(times=times, states=[s] * len(times), params=p, config=cfg)


# single edits of a valid text: cut it short, or delete, duplicate or
# replace one line, or replace or delete one character of a line.  Edits
# never add a digit to a number, so an edited truncation N stays below
# 10 and no edit asks for a mode table of absurd size.
_EDIT_CHARS = "0123456789-+.,=e# Ntimesplnoiraxv\t"


@st.composite
def _edited(draw, text):
    kind = draw(st.sampled_from(["cut", "drop", "dup", "line", "char", "del"]))
    if kind == "cut":
        return text[:draw(st.integers(0, len(text) - 1))]
    lines = text.splitlines()
    j = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[j]
    elif kind == "dup":
        lines.insert(j, lines[j])
    elif kind == "line":
        lines[j] = draw(st.text(alphabet=_EDIT_CHARS, max_size=30))
    else:
        line = lines[j]
        if not line:
            return text
        c = draw(st.integers(0, len(line) - 1))
        new = draw(st.sampled_from(_EDIT_CHARS)) if kind == "char" else ""
        lines[j] = line[:c] + new + line[c + 1:]
    return "\n".join(lines) + "\n"


def _valid_trajectory_text():
    p = ModelParams(q="1/2", T=0.5)
    cfg = SolverConfig(N=2, dt=0.125, store_every=2, scheme="EulerMaruyama")
    V0 = random_field(2, np.random.default_rng(1), amplitude=0.3)
    return trajectory_to_text(simulate_path(p, V0, cfg, 4), include_noise=True)


_TRAJECTORY_TEXT = _valid_trajectory_text()
_FIELD_TEXT = field_to_text(random_field(2, np.random.default_rng(2)))


class TestTextParsersFuzz:
    """Edited texts parse or raise ValueError, never anything else."""

    def test_unedited_texts_parse(self):
        assert trajectory_to_text(trajectory_from_text(_TRAJECTORY_TEXT),
                                  include_noise=True) == _TRAJECTORY_TEXT
        assert field_to_text(field_from_text(_FIELD_TEXT)) == _FIELD_TEXT

    @settings(max_examples=300, deadline=None)
    @given(_edited(_TRAJECTORY_TEXT))
    def test_trajectory_from_text(self, text):
        try:
            trajectory_from_text(text)
        except ValueError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(_edited(_FIELD_TEXT))
    def test_field_from_text(self, text):
        try:
            field_from_text(text)
        except ValueError:
            pass


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
