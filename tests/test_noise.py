"""Tests for the stochastic forcing amplitudes, directions, and increments."""
import numpy as np
import pytest

from pespec.modes import ModeIndex, enumerate_modes, mode_table, storage_modes
from pespec.noise import NoiseSpec, noise_amplitude_array, noise_direction
from pespec.params import ModelParams
from pespec.solver import SCHEMES, SolverConfig, draw_increments


class TestDirections:
    def test_barotropic_direction_is_perpendicular(self):
        spec = NoiseSpec()
        d = noise_direction(spec, ModeIndex(1, 2, 0))
        np.testing.assert_allclose(d, np.array([-2.0, 1.0]) / np.sqrt(5.0))

    def test_baroclinic_perp_rule(self):
        spec = NoiseSpec()
        d = noise_direction(spec, ModeIndex(3, -4, 2))
        np.testing.assert_allclose(d, np.array([4.0, 3.0]) / 5.0)

    def test_vertical_axis_falls_back_to_fixed(self):
        spec = NoiseSpec()
        np.testing.assert_allclose(noise_direction(spec, ModeIndex(0, 0, 3)), [1.0, 0.0])

    def test_directions_are_unit(self):
        spec = NoiseSpec()
        for k in enumerate_modes(3):
            assert np.linalg.norm(noise_direction(spec, k)) == pytest.approx(1.0)


class TestAmplitudes:
    def test_power_law(self):
        spec = NoiseSpec(sigma0=2.0, gamma=3.0)
        i = storage_modes(4).index(ModeIndex(1, 2, 3))
        np.testing.assert_allclose(noise_amplitude_array(spec, 4)[i], 2.0 * 14.0 ** -1.5)

    def test_unit_mode_amplitude_equals_sigma0(self):
        # every stored mode of the N = 1 truncation has |k| = 1
        amps = noise_amplitude_array(NoiseSpec(sigma0=1.0, gamma=4.5), 1)
        np.testing.assert_allclose(amps, 1.0)

    def test_amplitude_array_matches_scalar(self):
        spec = NoiseSpec(sigma0=0.7, gamma=2.5)
        amps = noise_amplitude_array(spec, 3)
        for i, k in enumerate(storage_modes(3)):
            assert amps[i] == pytest.approx(0.7 * float(k.k_sq) ** -1.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma0=-1.0)
        with pytest.raises(ValueError):
            NoiseSpec(gamma=1.0)


class TestIncrements:
    """The per-mode noise the solver applies, from `draw_increments`."""

    def test_self_paired_increment_is_real(self):
        rng = np.random.default_rng(0)
        sp = mode_table(2).self_paired
        assert sp.any()
        for scheme in SCHEMES:
            cfg = SolverConfig(N=2, dt=0.01, scheme=scheme)
            assert np.all(draw_increments(cfg, ModelParams(), rng)[sp].imag == 0.0)

    def test_moments(self):
        """E dW = 0 and E|dW|^2 = dt for both pairing classes."""
        rng = np.random.default_rng(123)
        dt, n = 0.25, 20_000
        cfg = SolverConfig(N=1, dt=dt, scheme="EulerMaruyama")
        spec = NoiseSpec()
        amp = noise_amplitude_array(spec, 1)
        dirs = np.stack([noise_direction(spec, k) for k in storage_modes(1)])
        # increments are amp dW c_k with a unit real c_k, so c_k . incr = amp dW
        dw = np.array([np.sum(draw_increments(cfg, ModelParams(), rng) * dirs, axis=1) / amp
                       for _ in range(n)])
        sp = mode_table(1).self_paired
        paired = dw[:, np.flatnonzero(~sp)[0]]
        real_ax = dw[:, np.flatnonzero(sp)[0]]
        assert np.all(real_ax.imag == 0.0)
        real_ax = real_ax.real
        # allow Monte Carlo wiggle at five standard errors
        se2 = dt * np.sqrt(2.0 / n)
        assert abs(np.mean(np.abs(paired) ** 2) - dt) < 5 * se2
        assert abs(np.mean(real_ax**2) - dt) < 5 * se2
        assert abs(paired.mean()) < 5 * np.sqrt(dt / n)
        # real and imaginary parts split the variance evenly
        assert np.var(paired.real) == pytest.approx(dt / 2, rel=0.05)
        assert np.var(paired.imag) == pytest.approx(dt / 2, rel=0.05)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
