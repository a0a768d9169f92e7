"""Tests for the advection term, time stepping and trajectory storage.

The nonlinear-term reference coefficients were computed symbolically
(literal expansion of f.grad_h g + w(f) dz g for a two-mode field,
exact rationals) and are asserted against the production advection
term and against the Direct site-pair sum kept as its test oracle.
"""
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft
from scipy import stats

import pairing_oracle
from advection_oracle import direct_B, full_unfolding, half_spectrum, vertical_velocity
from lattice_oracle import field_from_keys
from pespec import linear, modes
from pespec.linear import mode_rates, noise_direction_array
from pespec.modes import (
    BAROTROPIC,
    SpectralField,
    field_from_text,
    field_to_text,
    hydrostatic_leray,
    inner_product,
    mode_table,
    random_field,
)
from pespec.params import ModelParams
from pespec.solver import (
    SCHEMES,
    BlowUpError,
    SolverConfig,
    Trajectory,
    _convolve_pseudospectral,
    _pairing_rows,
    _site_layout,
    _step_factors,
    check_grid,
    draw_increments,
    nonlinear_B,
    simulate_path,
    step,
    trajectory_from_text,
    trajectory_to_text,
)
from scalar_ou import ou_exact_step


def raw_B(f, g):
    """The dealiased grid's unprojected product B(f, g), as a field."""
    return SpectralField(f.N, _convolve_pseudospectral(f, g))


# the Direct oracle and the production dealiased grid, under the names
# the two backends went by when both were selectable
METHODS = {"Direct": direct_B, "PseudoSpectralDealiased": raw_B}


def norm(f):
    """The L2 norm of f."""
    return math.sqrt(inner_product(f, f))


def two_mode_field(N=3):
    """The field behind the frozen advection coefficients below."""
    return field_from_keys(N, {
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
        f = field_from_keys(2, {(1, 1, 0): (1.0, -1.0)})
        assert all(w == 0 for w in vertical_velocity(f).values())

    def test_single_mode_value(self):
        # unit u-component on k = (1,0,1): w-coefficient is -i k1/k3 = -i
        f = field_from_keys(2, {(1, 0, 1): (1.0, 0.0)})
        assert vertical_velocity(f)[(1, 0, 1)] == pytest.approx(-1j)

    def test_two_mode_field_value(self):
        w = vertical_velocity(two_mode_field())
        assert w[(1, 0, 1)] == pytest.approx(1 / 3 - 1j / 2)

    def test_divergence_free_columns_give_zero(self):
        f = field_from_keys(3, {
            (1, 2, 1): (-2.0 + 1j, 1.0 - 0.5j),  # coeff parallel to k'perp
            (0, 0, 2): (0.7, -0.3),              # k' = 0 column
        })
        assert all(abs(w) < 1e-15 for w in vertical_velocity(f).values())

    def test_keys_are_the_baroclinic_modes(self):
        f = SpectralField.zeros(2)
        keys = set(vertical_velocity(f))
        expected = {k for k in mode_table(2).keys() if k[2] != 0}
        assert keys == expected

    @pytest.mark.parametrize("N,seed", [(3, 0), (5, 1)])
    def test_site_values_match_the_stored_mode_oracle(self, N, seed):
        # B's sine box holds i w on the sites m1 >= 0, m3 > 0: the sine
        # element sqrt(2) w_k sin(k3 z) puts w_k / (i sqrt(2)) on (k', k3),
        # and the reality partner (-k', -k3) conjugates; nothing else
        f = random_field(N, np.random.default_rng(seed))
        lay = _site_layout(N)
        w = lay.w_box(lay.box(f))
        assert w.shape == (2 * N + 1, N, N + 1)
        sites, rows, conj, _ = full_unfolding(N)
        oracle = vertical_velocity(f)
        keys = mode_table(N).keys()
        filled = np.zeros(w.shape, dtype=bool)
        for j in np.flatnonzero((sites[:, 0] >= 0) & (sites[:, 2] > 0)):
            m1, m2, m3 = sites[j]
            want = (-1 if conj[j] else 1) * oracle[keys[rows[j]]] / (1j * math.sqrt(2.0))
            if conj[j]:
                want = np.conj(want)
            got = w[m2 + N, m3 - 1, m1]
            assert abs(got - 1j * want) <= 1e-12 * max(1.0, abs(want))
            filled[m2 + N, m3 - 1, m1] = True
        assert np.all(w[~filled] == 0)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 8])
    def test_half_spectrum_layout_is_the_oracle_restricted(self, N):
        # B's cosine box holds exactly the oracle's sites with m3 >= 0 and
        # m1 >= 0, each with the oracle's value to the bit, and zeros elsewhere
        f = random_field(N, np.random.default_rng(700 + N))
        sites, vals = half_spectrum(f)
        m1, m2, m3 = sites.T
        want = np.zeros((2, 2 * N + 1, N + 1, N + 1), dtype=complex)
        want[:, m2 + N, m3, m1] = vals.T
        assert _site_layout(N).box(f).tobytes() == want.tobytes()


class TestNonlinearB:
    @pytest.mark.parametrize("method", METHODS)
    def test_frozen_coefficients(self, method):
        B = METHODS[method](two_mode_field(), two_mode_field())
        for i, k in enumerate(B.table.keys()):
            want = FROZEN_B.get(k, (0.0, 0.0))
            np.testing.assert_allclose(B.coeffs[i], want, atol=1e-13)

    @pytest.mark.parametrize("method", METHODS)
    def test_bilinearity_at_zero(self, method):
        f = two_mode_field()
        z = SpectralField.zeros(3)
        assert norm(METHODS[method](z, f)) == 0.0
        assert norm(METHODS[method](f, z)) == 0.0

    def test_methods_agree_on_random_fields(self):
        # the dealiased grid matches the Direct oracle at 1e-10 relative
        for seed in (0, 1, 2):
            f = random_field(4, np.random.default_rng(seed))
            bd = direct_B(f, f)
            bp = raw_B(f, f)
            diff = norm(bd.with_coeffs(bd.coeffs - bp.coeffs))
            assert diff <= 1e-10 * norm(bd)

    @pytest.mark.parametrize("same", [False, True], ids=["f_g", "f_f"])
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_half_spectrum_matches_the_oracle(self, N, same):
        # G / Gz = 4/4, 7/8, 10/10, 13/14, 16/16, 19/20, 22/22, 25/26 with
        # G = 3N + 1 and Gz = 2M = 2 ceil((3N + 1)/2): odd and even x, y
        # grids, and at every even N a z grid (the even extension of the
        # M + 1 cosine points) one longer than the x, y grid
        assert _site_layout(N).G == 3 * N + 1
        f = random_field(N, np.random.default_rng(100 + N))
        g = f if same else random_field(N, np.random.default_rng(200 + N))
        bd = direct_B(f, g)
        bp = raw_B(f, g)
        diff = norm(bd.with_coeffs(bd.coeffs - bp.coeffs))
        if N == 1:
            # no two nonzero sites of the unit ball add up to a third one
            assert norm(bd) == 0.0
            assert norm(bp) <= 1e-14 * norm(f) * norm(g)
        else:
            assert diff <= 1e-10 * norm(bd)

    # the Direct sum takes about 6 s at N = 12, and it checks no program code
    @pytest.mark.parametrize("method,N", [(m, N) for m in METHODS for N in (4, 8, 12)
                                          if (m, N) != ("Direct", 12)])
    def test_energy_orthogonality(self, method, N):
        f = random_field(N, np.random.default_rng(11))
        B = METHODS[method](f, f)
        rel = abs(inner_product(B, f)) / (norm(B) * norm(f))
        assert rel < 1e-12

    @pytest.mark.parametrize("N", [2, 4, 8, 12])
    def test_barotropic_fields_stay_barotropic(self, N):
        # depth-independent f and g have w(f) = 0 and a depth-independent
        # product, so B has nothing on any row with k3 > 0
        f = random_field(N, np.random.default_rng(300 + N), sel=BAROTROPIC)
        g = random_field(N, np.random.default_rng(400 + N), sel=BAROTROPIC)
        B = SpectralField(N, nonlinear_B(f, g))
        baroclinic = B.table.k3 > 0
        assert norm(B) > 0.0
        assert np.abs(B.coeffs[baroclinic]).max() <= 1e-14 * np.abs(B.coeffs).max()

    @pytest.mark.parametrize("N", [2, 5, 8])
    def test_shared_work_matches_the_general_path(self, N):
        # B(f, f) reuses f's grids and the flux f1 f2; an equal copy of f
        # takes the general path with its own grids and all four fluxes
        f = random_field(N, np.random.default_rng(500 + N))
        shared = SpectralField(N, nonlinear_B(f, f))
        general = SpectralField(N, nonlinear_B(f, f.with_coeffs(f.coeffs.copy())))
        diff = norm(shared.with_coeffs(shared.coeffs - general.coeffs))
        assert diff <= 1e-14 * norm(general)

    def test_bits_agree_across_blas_thread_counts(self):
        # each z product is G small GEMMs, which OpenBLAS keeps on one
        # thread; a GEMM split across threads sums in another order, so
        # B's last bits would move with the thread count
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = "\n".join([
            f"import sys; sys.path.insert(0, {src!r})",
            "import hashlib",
            "import numpy as np",
            "from pespec.modes import random_field",
            "from pespec.solver import nonlinear_B",
            "for N in (16, 20):",
            "    rng = np.random.default_rng(N)",
            "    f, g = random_field(N, rng), random_field(N, rng)",
            "    for B in (nonlinear_B(f, f), nonlinear_B(f, g)):",
            "        print(N, hashlib.sha256(B.tobytes()).hexdigest())",
        ])
        hashes = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 timeout=120, check=True,
                                 env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
                  for threads in ("1", "2")]
        assert len(hashes[0].splitlines()) == 4
        assert hashes[0] == hashes[1]

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

    @pytest.mark.parametrize("N", range(1, 25))
    def test_z_matrices_match_scipy(self, N):
        # the DCT-I and DST-I of an identity; bitwise equal to scipy.fft
        # with numpy 2.4 and scipy 1.17, a few ulp is left for older floors
        lay = _site_layout(N)
        M = lay.M
        want = {
            "cos_syn": sfft.dct(np.eye(N + 1), type=1, n=M + 1, axis=0),
            "cos_ana": sfft.dct(np.eye(M + 1), type=1, axis=0, norm="forward")[:N + 1],
            "sin_syn": sfft.dst(np.eye(N), type=1, n=M - 1, axis=0),
            "sin_ana": sfft.dst(np.eye(M - 1), type=1, axis=0, norm="forward")[:N],
        }
        for name, ref in want.items():
            got = getattr(lay, name)
            assert got.shape == ref.shape, name
            np.testing.assert_allclose(got, ref, rtol=0, atol=4 * np.finfo(float).eps
                                       * np.abs(ref).max(), err_msg=name)

    def test_transform_counts(self, monkeypatch):
        # every transform of B is a matrix product on the kept modes: once
        # the site layout is built, B(u, u) and B(f, g) call no numpy.fft
        # function
        f = random_field(8, np.random.default_rng(8))
        g = random_field(8, np.random.default_rng(9))
        nonlinear_B(f, g)  # build the cached site layout outside the count
        calls = []

        def counting(name):
            transform = getattr(np.fft, name)

            def call(*args, **kwargs):
                calls.append(name)
                return transform(*args, **kwargs)
            return call

        for name in np.fft.__all__:
            if callable(getattr(np.fft, name)):
                monkeypatch.setattr(np.fft, name, counting(name))
        nonlinear_B(f, f)
        nonlinear_B(f, g)
        assert calls == []

    def test_output_needs_projection(self):
        # the raw advection term has a pressure-gradient component in its
        # horizontal average; nonlinear_B's Leray projection removes it
        f = two_mode_field()
        assert not raw_B(f, f).is_divergence_free()
        assert SpectralField(3, nonlinear_B(f, f)).is_divergence_free()

    @pytest.mark.parametrize("N", [*range(1, 13), 16])
    def test_projects_the_raw_product_bit_for_bit(self, N):
        # B projects the grid's product in place with hydrostatic_leray's
        # expressions, so it has the bits of the field-wrapped chain
        rng = np.random.default_rng(40 + N)
        f, g = random_field(N, rng), random_field(N, rng)
        for a, b in ((f, f), (f, g)):
            want = hydrostatic_leray(SpectralField(N, _convolve_pseudospectral(a, b))).coeffs
            got = nonlinear_B(a, b)
            assert got.shape == (mode_table(N).n, 2) and got.dtype == complex
            assert got.tobytes() == want.tobytes()

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
        want = nonlinear_B(f, f, "PseudoSpectralDealiased")
        for name in ("auto", "Direct"):
            assert nonlinear_B(f, f, name).tobytes() == want.tobytes()


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
        V0 = field_from_keys(2, {(1, 1, 0): (1.0, -1.0)})
        cfg = SolverConfig(N=2, dt=0.05, include_nonlinear=False)
        traj = simulate_path(p, V0, cfg, 0)
        i = mode_table(2).keys().index((1, 1, 0))
        got = traj.states[-1].coeffs[i, 0]
        assert got == pytest.approx(math.exp(-2.0 * p.nu_h * 1.0), rel=1e-13)

    def test_rotation_turns_clockwise(self):
        # quarter period on the k'=0 column: (1, 0) -> (0, -1) times decay
        p = ModelParams(sigma0=0.0, f0=math.pi / 2.0)
        V0 = field_from_keys(2, {(0, 0, 1): (1.0, 0.0)})
        cfg = SolverConfig(N=2, dt=0.01, include_nonlinear=False)
        fin = simulate_path(p, V0, cfg, 0).states[-1]
        i = mode_table(2).keys().index((0, 0, 1))
        np.testing.assert_allclose(
            fin.coeffs[i], [0.0, -math.exp(-p.nu_z)], atol=1e-12)

    def test_euler_maruyama_decay_factor(self):
        p = ModelParams(sigma0=0.0)
        V0 = field_from_keys(2, {(1, 1, 0): (1.0, -1.0)})
        cfg = SolverConfig(N=2, dt=0.1, scheme="EulerMaruyama",
                           include_nonlinear=False)
        fin = simulate_path(p, V0, cfg, 0).states[-1]
        i = mode_table(2).keys().index((1, 1, 0))
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

    @pytest.mark.parametrize("N,cuts", [(8, range(2, 8)), (12, (4, 8, 12))])
    def test_observed_advection_pairing_matches_the_zero_padded_one(self, N, cuts):
        # B on the observed prefix, on the cut's own grid, against B at N on
        # a copy zeroed beyond |k| = cut, on the observed rows
        rng = np.random.default_rng(900 + N)
        states = [random_field(N, rng, amplitude=0.5) for _ in range(3)]
        traj = Trajectory(times=np.arange(3.0), states=states, params=ModelParams(T=2.0),
                          config=SolverConfig(N=N, dt=1.0))
        k_sq = mode_table(N).k_sq
        for cut in cuts:
            n = mode_table(cut).n
            want = np.empty((2, n))
            for i, state in enumerate(states[:-1]):
                padded = state.with_coeffs(state.coeffs * (k_sq <= cut * cut)[:, None])
                b = nonlinear_B(padded, padded)[:n]
                want[i] = (np.conj(state.coeffs[:n]) * b).real.sum(axis=1)
            pairing = traj.left_pairing("advection", cut)
            assert pairing.shape == (2, n)
            assert np.abs(pairing - want).max() <= 1e-14 * np.abs(want).max()

    def test_blowup_reports_step(self):
        p = ModelParams(sigma0=0.0)
        big = field_from_keys(
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


class TestFieldCoercions:
    def test_each_field_is_checked_once(self, monkeypatch):
        # B returns its projected coefficients as an array, so a field is
        # built, copied and checked only where the program keeps one: a
        # k-step nonlinear path makes V0 and one state per step, a loaded
        # path's advection pairing one source field per left sample and
        # random_field one field
        calls = []
        real = modes._coerce_coeffs

        def counting(N, coeffs):
            calls.append(N)
            return real(N, coeffs)

        monkeypatch.setattr(modes, "_coerce_coeffs", counting)
        random_field(4, np.random.default_rng(0))
        assert len(calls) == 1
        calls.clear()
        traj = simulate_path(ModelParams(T=0.01), None, SolverConfig(N=4, dt=1e-3), 3)
        assert len(calls) == 10 + 1
        loaded = trajectory_from_text(trajectory_to_text(traj))
        calls.clear()
        loaded.left_pairing("advection")
        assert len(calls) == loaded.n_samples - 1 == 10


class TestPairingBits:
    """The pairings' two-term sums keep the bits of `np.sum` (pairing_oracle)."""

    @pytest.mark.parametrize("start", ["zero", "random"])
    @pytest.mark.parametrize("N", [4, 12])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_kind_matches_the_oracle(self, scheme, N, start):
        # the rows simulate_path hands over and those left_pairing builds on
        # the path read back from text; a zero start gives zero rows
        V0 = None if start == "zero" else random_field(N, np.random.default_rng(900 + N))
        traj = simulate_path(ModelParams(N=N, T=4e-3), V0,
                             SolverConfig(N=N, dt=1e-3, scheme=scheme), 40 + N)
        back = trajectory_from_text(trajectory_to_text(traj, include_noise=True))
        for path in (traj, back):
            for kind in ("energy", "ito", "noise", "advection"):
                want = pairing_oracle.left_pairing(path, kind)
                assert path.left_pairing(kind).tobytes() == want.tobytes(), kind
        if start == "zero":
            assert not np.any(traj.left_pairing("energy")[0])

    def test_special_values_keep_their_bits(self):
        # signed zeros, subnormals and infinities (and the NaNs inf * 0 makes)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                            np.inf, -np.inf, 1.5, -2.25, 1e300, -1e300])
        rng = np.random.default_rng(28)
        n = mode_table(2).n
        v, x = (rng.choice(special, size=(6, n, 2, 2)).view(complex)[..., 0]
                for _ in range(2))
        with np.errstate(invalid="ignore", over="ignore"):
            assert _pairing_rows(v, x).tobytes() == pairing_oracle.pairing_rows(v, x).tobytes()
            # a state's self-paired rows are real
            v[:, mode_table(2).self_paired_rows] = v[:, mode_table(2).self_paired_rows].real
            traj = Trajectory(times=np.arange(6.0), states=[SpectralField(2, c) for c in v],
                              params=ModelParams(), config=SolverConfig(N=2, dt=1.0))
            want = pairing_oracle.energy_rows(traj.coefficient_stack()[:-1])
            assert traj.left_pairing("energy").tobytes() == want.tobytes()


class TestSimulatePath:
    def test_zero_noise_zero_start_stays_zero(self):
        p = ModelParams(sigma0=0.0)
        traj = simulate_path(p, None, SolverConfig(N=2, dt=0.1), 0)
        assert all(np.all(s.coeffs == 0) for s in traj.states)

    def test_euler_maruyama_builds_no_strand_sampler(self, monkeypatch):
        # only ExponentialEuler draws the exact-OU noise of the strands
        calls = Counter()
        chol = linear.strand_noise_chol

        def spy(*args):
            calls["strand_noise_chol"] += 1
            return chol(*args)

        monkeypatch.setattr(linear, "strand_noise_chol", spy)
        _step_factors.cache_clear()
        p = ModelParams(T=0.002)
        simulate_path(p, None, SolverConfig(N=8, dt=1e-3, scheme="EulerMaruyama"), 1)
        assert calls["strand_noise_chol"] == 0
        simulate_path(p, None, SolverConfig(N=8, dt=1e-3, scheme="ExponentialEuler"), 1)
        assert calls["strand_noise_chol"] > 0

    def test_grid_validation(self):
        p = ModelParams()
        with pytest.raises(ValueError, match="whole steps"):
            simulate_path(p, None, SolverConfig(N=2, dt=0.3), 0)
        with pytest.raises(ValueError, match="store_every"):
            simulate_path(p, None, SolverConfig(N=2, dt=0.25, store_every=3), 0)

    def test_check_grid_counts_the_steps(self):
        assert check_grid(ModelParams(), SolverConfig(N=2, dt=0.25, store_every=2)) == 4
        # dt * lambda_max = 1.6 at N = 8: stable, if barely
        assert check_grid(ModelParams(), SolverConfig(N=8, dt=0.025,
                                                      scheme="EulerMaruyama")) == 40

    def test_rejects_initial_state_outside_h(self):
        p = ModelParams()
        bad = field_from_keys(2, {(1, 1, 0): (1.0, 1.0)})
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
        tab = mode_table(2)
        i = tab.keys().index((1, 0, 1))
        reps = 400
        rng = np.random.default_rng(2024)
        solver_samples = np.empty(reps)
        for r in range(reps):
            traj = simulate_path(p, None, cfg, rng, log_noise=False)
            solver_samples[r] = traj.states[-1].coeffs[i, 0].real
        # matching strand: real parts of a conjugate-paired coefficient
        # follow the OU strand at amplitude amp/sqrt(2)
        lam, f0, amp = (float(r[i]) for r in mode_rates(p, tab.kp_sq, tab.k3_sq))
        zeta = complex(*noise_direction_array(2)[i])
        exact_samples = np.empty(reps)
        for r in range(reps):
            x = np.zeros(2)
            for _ in range(10):
                x = ou_exact_step(lam, f0, amp / math.sqrt(2.0), zeta, x, 0.1, rng)
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
        with pytest.raises(ValueError, match="^line 3: bad config header: key include_nonlinear "
                                             "must be one of 1/true/yes/0/false/no, not 'flase'$"):
            trajectory_from_text(txt.replace("include_nonlinear=False",
                                             "include_nonlinear=flase"))

    def test_header_flag_takes_the_config_spellings(self):
        txt = trajectory_to_text(self.make())
        back = trajectory_from_text(txt.replace("include_nonlinear=False", "include_nonlinear=no"))
        assert back.config.include_nonlinear is False

    def test_settings_lines_are_pinned(self):
        # the header bytes of every trajectory text, and so of the benchmark's
        lines = trajectory_to_text(self.make()).splitlines()
        assert lines[1:3] == [
            "# params nu_h=1.0 nu_z=0.5 f0=1.0 sigma0=1.0 gamma=4.5 q=1/2 alpha=4.0 N=8 T=0.5",
            "# config N=2 dt=0.125 scheme=ExponentialEuler convolution=auto store_every=2 "
            "include_nonlinear=False"]

    @pytest.mark.parametrize("line, old, new, message", [
        (2, " T=0.5", " T=0.5 foo=1", "unknown key foo"),
        (2, " T=0.5", "", "missing key T"),
        (2, "nu_h=1.0", "nu_h=1.0 nu_h=2.0", "repeated key nu_h"),
        (3, " store_every=2", " store_every=2 foo=1", "unknown key foo"),
        (3, " scheme=ExponentialEuler", "", "missing key scheme"),
        (3, "dt=0.125", "dt=0.125 dt=0.25", "repeated key dt"),
    ])
    def test_settings_line_names_each_key_once(self, line, old, new, message):
        # foo=1 used to be ignored, and a repeated key's last value to win
        lines = trajectory_to_text(self.make()).splitlines()
        assert old in lines[line - 1]
        lines[line - 1] = lines[line - 1].replace(old, new)
        name = "params" if line == 2 else "config"
        with pytest.raises(ValueError, match=f"^line {line}: bad {name} header: {message}$"):
            trajectory_from_text("\n".join(lines) + "\n")

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
        with pytest.raises(ValueError, match=f"^line {j + 4}: non-finite coefficient in row 1$"):
            trajectory_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("edit,message", [
        ("cut", r"malformed coefficient row \(6 values, not 7\)"),
        ("letter", r"malformed coefficient row \(could not convert string to float: '1x'\)"),
        ("swap", r"row 2 out of canonical order: \(.*\) where \(.*\) belongs"),
    ])
    def test_bad_field_row_names_its_line(self, edit, message):
        lines = _TRAJECTORY_TEXT.splitlines()
        j = [i for i, line in enumerate(lines) if line.startswith("time ")][2] + 4
        row = lines[j].split(",")
        if edit == "cut":
            lines[j] = ",".join(row[:-1])
        elif edit == "letter":
            lines[j] = ",".join(row[:3] + ["1x"] + row[4:])
        else:
            lines[j], lines[j + 1] = lines[j + 1], lines[j]
        with pytest.raises(ValueError, match=f"^line {j + 1}: {message}$"):
            trajectory_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("step,message", [
        (0, r"line {line}: malformed noise row \(1 values, not 4\)"),
        (3, "trajectory text ends before line {line}, which should hold row {row} of noise-step 3"),
    ])
    def test_short_noise_block_names_its_line(self, step, message):
        # with a row gone, the block's last row would sit on the line after it
        lines = _TRAJECTORY_TEXT.splitlines()
        j = lines.index(f"noise-step {step}")
        del lines[j + 1]
        n = mode_table(2).n
        with pytest.raises(ValueError, match=f"^{message.format(line=j + 1 + n, row=n - 1)}$"):
            trajectory_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("N", [4, 12])
    def test_noise_round_trip_is_bitwise(self, N):
        cfg = SolverConfig(N=N, dt=1e-3, store_every=2)
        traj = simulate_path(ModelParams(T=0.004), None, cfg, N)
        txt = trajectory_to_text(traj, include_noise=True)
        back = trajectory_from_text(txt)
        for a, b in zip(back.states, traj.states):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()
        assert len(back.noise_log) == len(traj.noise_log) == 4
        for a, b in zip(back.noise_log, traj.noise_log):
            assert a.tobytes() == b.tobytes()
        assert trajectory_to_text(back, include_noise=True) == txt

    @pytest.mark.parametrize("block", ["time ", "noise-step "])
    def test_first_of_two_bad_rows_is_named(self, block):
        # a short row, then a nan three rows below it in the same block
        lines = _TRAJECTORY_TEXT.splitlines()
        start = [i for i, line in enumerate(lines) if line.startswith(block)][1]
        j = start + (3 if block == "time " else 2)
        lines[j] = lines[j].rsplit(",", 1)[0]
        lines[j + 3] = ",".join(lines[j + 3].split(",")[:-1] + ["nan"])
        width, what = (7, "coefficient") if block == "time " else (4, "noise")
        with pytest.raises(ValueError, match=rf"^line {j + 1}: malformed {what} row "
                                             rf"\({width - 1} values, not {width}\)$"):
            trajectory_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("block", ["time ", "noise-step "])
    def test_value_moved_to_the_next_row_is_named(self, block):
        # the block keeps its number of values and every row its key
        lines = _TRAJECTORY_TEXT.splitlines()
        start = [i for i, line in enumerate(lines) if line.startswith(block)][1]
        j = start + (3 if block == "time " else 2)
        lines[j], moved = lines[j].rsplit(",", 1)
        cells = lines[j + 1].split(",")
        width, what = (7, "coefficient") if block == "time " else (4, "noise")
        lines[j + 1] = ",".join(cells[:width - 4] + [moved] + cells[width - 4:])
        with pytest.raises(ValueError, match=rf"^line {j + 1}: malformed {what} row "
                                             rf"\({width - 1} values, not {width}\)$"):
            trajectory_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("block", ["time ", "noise-step "])
    def test_nan_in_the_last_row_is_named(self, block):
        lines = _TRAJECTORY_TEXT.splitlines()
        n = mode_table(2).n
        start = [i for i, line in enumerate(lines) if line.startswith(block)][1]
        j = start + n + (1 if block == "time " else 0)
        lines[j] = ",".join(lines[j].split(",")[:-1] + ["nan"])
        what = "coefficient" if block == "time " else "noise"
        with pytest.raises(ValueError, match=f"^line {j + 1}: non-finite {what} in row {n - 1}$"):
            trajectory_from_text("\n".join(lines) + "\n")

    def test_noise_signed_zeros_round_trip(self):
        traj = self.make()
        incr = np.array(traj.noise_log[1])
        incr[3] = [complex(-0.0, -0.0), complex(-0.0, 0.25)]
        traj.noise_log[1] = incr
        txt = trajectory_to_text(traj, include_noise=True)
        assert "\n-0.0,-0.0,-0.0,0.25\n" in txt
        back = trajectory_from_text(txt)
        np.testing.assert_array_equal(np.signbit(back.noise_log[1].view(float)),
                                      np.signbit(incr.view(float)))
        assert trajectory_to_text(back, include_noise=True) == txt

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
