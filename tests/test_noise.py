"""Tests for the stochastic forcing amplitudes, directions, and increments."""
import math

import numpy as np
import pytest

from pespec.linear import decay_sq_integral, mode_rates, noise_direction_array
from pespec.modes import mode_table
from pespec.params import ModelParams
from pespec.solver import SCHEMES, SolverConfig, draw_increments


def direction(k, N):
    """The row of `noise_direction_array(N)` at stored mode k."""
    return noise_direction_array(N)[mode_table(N).keys().index(k)]


def amplitudes(params, N):
    """The noise amplitude of `mode_rates` over the stored modes of truncation N."""
    tab = mode_table(N)
    return mode_rates(params, tab.kp_sq, tab.k3_sq)[2]


class TestDirections:
    def test_barotropic_direction_is_perpendicular(self):
        d = direction((1, 2, 0), 3)
        np.testing.assert_allclose(d, np.array([-2.0, 1.0]) / np.sqrt(5.0))

    def test_baroclinic_perp_rule(self):
        d = direction((3, -4, 2), 6)
        np.testing.assert_allclose(d, np.array([4.0, 3.0]) / 5.0)

    def test_vertical_axis_falls_back_to_fixed(self):
        np.testing.assert_allclose(direction((0, 0, 3), 3), [1.0, 0.0])

    def test_directions_are_unit(self):
        for d in noise_direction_array(3):
            assert np.linalg.norm(d) == pytest.approx(1.0)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
    def test_bitwise_scalar_rule(self, N):
        """(-k2/|k'|, k1/|k'|) with |k'| from math.sqrt, and (1, 0) where
        k' = 0, bit for bit, signed zeros included."""
        want = [(-k2 / math.sqrt(k1 * k1 + k2 * k2), k1 / math.sqrt(k1 * k1 + k2 * k2))
                if (k1, k2) != (0, 0) else (1.0, 0.0) for k1, k2, _ in mode_table(N).keys()]
        assert noise_direction_array(N).tobytes() == np.array(want).tobytes()


class TestAmplitudes:
    def test_power_law(self):
        params = ModelParams(sigma0=2.0, gamma=3.0)
        i = mode_table(4).keys().index((1, 2, 3))
        np.testing.assert_allclose(amplitudes(params, 4)[i], 2.0 * 14.0 ** -1.5)

    def test_unit_mode_amplitude_equals_sigma0(self):
        # every stored mode of the N = 1 truncation has |k| = 1
        amps = amplitudes(ModelParams(sigma0=1.0, gamma=4.5), 1)
        np.testing.assert_allclose(amps, 1.0)

    def test_amplitude_array_matches_scalar(self):
        amps = amplitudes(ModelParams(sigma0=0.7, gamma=2.5), 3)
        for i, (k1, k2, k3) in enumerate(mode_table(3).keys()):
            assert amps[i] == pytest.approx(0.7 * float(k1 * k1 + k2 * k2 + k3 * k3) ** -1.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma0"):
            ModelParams(sigma0=-1.0)
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(gamma=1.0)


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
        amp = amplitudes(ModelParams(), 1)
        dirs = noise_direction_array(1)
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

    @pytest.mark.parametrize("f0", [3.0, 0.0])
    def test_exponential_euler_law(self, f0):
        """Each strand's increment has the exact OU one-step moments.

        A strand is X = x_u + i x_v over the two components: the real
        parts of a mode, and for a conjugate pair also its imaginary
        parts, each at amplitude amp/sqrt(2).  E|X|^2 = amp_s^2 g0 and
        E[X^2] = amp_s^2 zeta^2 g2, with g0 and g2 the decay-squared
        integrals at rates lam and lam + i f0; the two strands of a pair
        are independent.  dt is long enough for the decay and the
        rotation to move every moment well off its Euler value.
        """
        params, dt, n = ModelParams(f0=f0), 0.25, 20_000
        cfg = SolverConfig(N=2, dt=dt, scheme="ExponentialEuler")
        rng = np.random.default_rng(321)
        draws = np.array([draw_increments(cfg, params, rng) for _ in range(n)])
        tab = mode_table(2)
        assert tab.self_paired.any() and not tab.self_paired.all()
        amp = amplitudes(params, 2)
        dirs = noise_direction_array(2)

        def close(samples, target):
            # the sample mean within five standard errors, real and imaginary parts apart
            for part in (np.real, np.imag):
                se = np.std(part(samples)) / np.sqrt(n)
                assert abs(np.mean(part(samples)) - part(target)) <= 5 * se

        for i, (k1, k2, k3) in enumerate(tab.keys()):
            lam = params.nu_h * (k1 * k1 + k2 * k2) + params.nu_z * k3 ** 2
            rot = f0 if k3 else 0.0
            g0 = decay_sq_integral(complex(lam, 0.0), dt).real
            g2 = decay_sq_integral(complex(lam, rot), dt)
            zeta = complex(*dirs[i])
            u, v = draws[:, i, 0], draws[:, i, 1]
            strands = [u.real + 1j * v.real]
            if (k1, k2) != (0, 0):  # not self-paired
                strands.append(u.imag + 1j * v.imag)
            amp_s2 = amp[i] ** 2 / len(strands)
            for X in strands:
                close(np.abs(X) ** 2, amp_s2 * g0)
                close(X * X, amp_s2 * zeta * zeta * g2)
            if len(strands) == 2:
                re, im = strands
                close(re * im, 0.0)
                close(re * np.conj(im), 0.0)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
