"""Tests for the per-mode linear dynamics and the exact law of its energy sums.

Reference values were frozen from direct numerical integration (matrix
exponentials, adaptive double quadrature) and Monte Carlo, computed
independently of the package code.  The continuous-time references are
met as the dt -> 0 limits of the exact discrete laws.
"""
import numpy as np
import pytest

from norm_orders import exact_norm_sum, expected_norm_order
from pespec.harness import _left_sums
from pespec.linear import (
    StrandSampler,
    decay_sq_integral,
    energy_sum_cumulants,
    mode_rates,
    mode_strands,
    strand_noise_chol,
)
from pespec.modes import ALL, BAROCLINIC, BAROTROPIC, ModeSelector, mode_table
from pespec.params import ModelParams
from scalar_ou import ou_exact_step, ou_mean_factor

DEFAULTS = ModelParams()


def implied_cov(lam, f0, amp, zeta, dt):
    s11, s21, s22 = strand_noise_chol(lam, f0, amp, zeta, dt)
    return np.array([[s11 * s11, s11 * s21], [s11 * s21, s21 * s21 + s22 * s22]])


def rates_at(k, params, N=4):
    """(lam, f0, amp) of `mode_rates` over the N mode table, at stored mode k."""
    tab = mode_table(N)
    i = tab.keys().index(k)
    return tuple(r[i] for r in mode_rates(params, tab.kp_sq, tab.k3_sq))


def strand_moments(lam, f0, amp, zeta, T, n=40):
    """Mean and variance of the left-endpoint time energy dt sum_{i<n} |Z_i|^2
    of one strand on the grid dt = T / n, from the closed-form mean
    `_left_sums` and the exact cumulants."""
    dt = T / n
    k2 = energy_sum_cumulants(lam, f0, amp, zeta, dt, n)[1]
    return amp * amp * dt * float(_left_sums(lam, dt, n)[1]), dt * dt * k2


def stored_mode_moments(k, params, T, N=4):
    """`strand_moments` of stored mode k, summed over the independent
    strands that `mode_strands` unfolds it into."""
    _, *strands = mode_strands(params, N, [mode_table(N).keys().index(k)])
    mean, var = np.sum([strand_moments(*s, T) for s in zip(*strands)], axis=0)
    return mean, var


class TestModeSetup:
    def test_damping_splits_horizontal_and_vertical(self):
        p = ModelParams(nu_h=2.0, nu_z=0.25)
        lam, _, _ = rates_at((1, 2, 3), p)
        assert lam == pytest.approx(2.0 * 5 + 0.25 * 9)

    def test_rotation_only_on_baroclinic(self):
        p = ModelParams(f0=3.0)
        assert rates_at((1, 1, 0), p)[1] == 0.0
        assert rates_at((1, 1, 2), p)[1] == 3.0

    def test_amplitude_power_law(self):
        _, _, amp = rates_at((1, 2, 3), ModelParams(sigma0=2.0, gamma=3.0))
        assert amp == pytest.approx(2.0 * 14.0 ** -1.5)


class TestMeanEvolution:
    def test_pure_decay(self):
        assert ou_mean_factor(2.0, 0.0, 0.5) == pytest.approx(np.exp(-1.0))

    def test_quarter_period_rotation_is_clockwise(self):
        # with positive rotation frequency the deterministic flow turns
        # (1, 0) into (0, -1) after a quarter period
        state = np.array([1.0, 0.0])
        out = ou_exact_step(0.0, 1.0, 0.0, 1.0, state, np.pi / 2, np.random.default_rng(0))
        np.testing.assert_allclose(out, [0.0, -1.0], atol=1e-12)

    def test_decay_and_rotation_commute(self):
        out = ou_exact_step(1.0, 2.0, 0.0, 1.0, np.array([0.3, -0.4]), 0.7,
                            np.random.default_rng(0))
        rot = -2.0 * 0.7
        R = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])
        np.testing.assert_allclose(out, np.exp(-0.7) * R @ np.array([0.3, -0.4]), atol=1e-12)


class TestNoiseCovariance:
    """One-step noise covariance against matrix-exponential quadrature."""

    CASES = [
        (1.0, 0.0, 0.3, [[0.081213905503, 0.108285207337], [0.108285207337, 0.144380276450]]),
        (1.0, 1.7, 0.3, [[0.131571201037, 0.106413699305], [0.106413699305, 0.094022980916]]),
        (1.0, 0.0, 1.0, [[0.155639649017, 0.207519532023], [0.207519532023, 0.276692709364]]),
        (2.5, 1.0, 1.0, [[0.107750661000, 0.092727849011], [0.092727849011, 0.090901749600]]),
        (0.0, 1.0, 0.5, [[0.301424477655, 0.234131874943], [0.234131874943, 0.198575522345]]),
    ]

    @pytest.mark.parametrize("lam,f0,dt,ref", CASES)
    def test_matches_reference(self, lam, f0, dt, ref):
        zeta = complex(0.6, 0.8)
        np.testing.assert_allclose(implied_cov(lam, f0, 1.0, zeta, dt), ref, atol=2e-10)

    def test_no_rotation_noise_is_rank_one(self):
        s11, s21, s22 = strand_noise_chol(1.0, 0.0, 1.0, complex(0.6, 0.8), 0.3)
        assert s22 == 0.0
        assert s21 / s11 == pytest.approx(0.8 / 0.6)

    def test_no_rotation_pure_imaginary_direction_keeps_noise(self):
        # modes with k' on the first axis have direction (0, 1); the whole
        # noise mass must land on the second component, not get suppressed
        s11, s21, s22 = strand_noise_chol(1.0, 0.0, 1.0, complex(0.0, 1.0), 0.3)
        assert s11 == 0.0 and s22 == 0.0
        assert s21 * s21 == pytest.approx(decay_sq_integral(1.0, 0.3).real, rel=1e-12)

    def test_no_rotation_negative_direction_same_law(self):
        cov_pos = implied_cov(1.0, 0.0, 1.0, complex(0.6, 0.8), 0.3)
        cov_neg = implied_cov(1.0, 0.0, 1.0, complex(-0.6, -0.8), 0.3)
        np.testing.assert_allclose(cov_neg, cov_pos, rtol=1e-12)

    def test_trace_is_rotation_invariant(self):
        a = implied_cov(1.3, 0.0, 1.0, complex(1.0, 0.0), 0.4)
        b = implied_cov(1.3, 5.7, 1.0, complex(0.6, 0.8), 0.4)
        assert np.trace(a) == pytest.approx(np.trace(b), rel=1e-12)
        assert np.trace(a) == pytest.approx(decay_sq_integral(1.3, 0.4).real, rel=1e-12)

    def test_step_sampling_moments(self):
        """Monte Carlo second moments of the exact step."""
        rng = np.random.default_rng(99)
        n = 60_000
        out = np.empty((n, 2))
        for i in range(n):
            out[i] = ou_exact_step(1.0, 1.7, 1.0, complex(0.6, 0.8), np.zeros(2), 0.3, rng)
        emp = out.T @ out / n
        ref = np.asarray(self.CASES[1][3])
        np.testing.assert_allclose(emp, ref, atol=5 * 0.15 / np.sqrt(n))

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            ou_exact_step(1.0, 0.0, 1.0, 1.0, np.zeros(2), 0.0, np.random.default_rng(0))


class TestStrandSampler:
    """The vectorised exact step against the scalar factors and oracle."""

    # one rotating and one non-rotating strand
    LAM, F0, AMP, DT = [1.0, 1.3], [1.7, 0.0], [1.0, 0.8], 0.3
    ZETA = [complex(0.6, 0.8), complex(-0.8, 0.6)]

    def test_one_step_covariance(self):
        sampler = StrandSampler(self.LAM, self.F0, self.AMP, self.ZETA, self.DT)
        n = 100_000
        eta = sampler.step(np.zeros((n, 2), dtype=complex), np.random.default_rng(5))
        for j in range(2):
            ref = implied_cov(self.LAM[j], self.F0[j], self.AMP[j], self.ZETA[j], self.DT)
            x = np.stack([eta[:, j].real, eta[:, j].imag])
            emp = x @ x.T / n
            # Var(x_a x_b) = s_aa s_bb + s_ab^2 for a centred normal pair
            se = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref ** 2) / n)
            assert np.all(np.abs(emp - ref) < 5.0 * se), (j, emp, ref)

    def test_decay_is_the_mean_factor(self):
        sampler = StrandSampler(self.LAM, self.F0, self.AMP, self.ZETA, self.DT)
        for j in range(2):
            assert sampler.decay[j] == pytest.approx(
                ou_mean_factor(self.LAM[j], self.F0[j], self.DT), rel=1e-15)

    def test_rotating_strand_matches_scalar_oracle(self):
        lam, f0, amp, zeta = 1.0, 1.7, 1.0, complex(0.6, 0.8)
        sampler = StrandSampler([lam], [f0], [amp], [zeta], 0.3)
        state = np.array([0.3, -0.4])
        want = ou_exact_step(lam, f0, amp, zeta, state, 0.3, np.random.default_rng(8))
        got = sampler.step(np.array([[complex(*state)]]), np.random.default_rng(8))[0, 0]
        np.testing.assert_allclose([got.real, got.imag], want, rtol=1e-14)

    def test_non_rotating_block_draws_one_normal_per_strand(self):
        sampler = StrandSampler([1.0, 2.0, 0.5], [0.0] * 3, [1.0] * 3,
                                [1j, complex(0.6, 0.8), 1.0], 0.1)
        Z = np.zeros((4, 3), dtype=complex)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        sampler.step(Z, a)
        b.standard_normal(Z.shape)
        assert a.bit_generator.state == b.bit_generator.state


class TestTimeEnergyMean:
    FROZEN = [(1.0, 0.2838338208), (0.5, 0.3678794412), (1.5, 0.2277541187), (96.5, 0.0051545008)]

    @pytest.mark.parametrize("lam,ref", FROZEN)
    def test_from_rest(self, lam, ref):
        # E int_0^1 |X|^2 dt as the dt -> 0 limit of the closed-form
        # left-endpoint mean, Richardson-extrapolated over n and 2n steps
        def mean(n):
            return float(_left_sums(lam, 1.0 / n, n)[1]) / n

        assert 2.0 * mean(2 ** 21) - mean(2 ** 20) == pytest.approx(ref, abs=1e-9)

    def test_rotation_does_not_change_energy(self):
        still, rotating = ModelParams(f0=0.0), ModelParams(f0=7.0)
        for k in [(1, 0, 1), (0, 0, 2), (1, 1, 0)]:
            assert stored_mode_moments(k, rotating, 1.0)[0] == \
                stored_mode_moments(k, still, 1.0)[0]


class TestTimeEnergyVariance:
    FROZEN = [
        (1.0, 0.0, 1.0, 8.029237971601e-02),
        (1.5, 1.0, 1.0, 4.241523238939e-02),
        (0.5, 10.0, 1.0, 8.118134935443e-02),
        (0.0, 3.0, 1.0, 2.220992910082e-01),
        (100.0, 1.0, 1.0, 4.937255649185e-07),
        (64.5, 1.0, 1.0, 1.827007433091e-06),
        (2.0, 0.0, 2.0, 8.603184974328e-02),
    ]

    @pytest.mark.parametrize("lam,f0,T,ref", [r for r in FROZEN if r[0] * r[2] <= 2.0])
    def test_continuum_limit_matches_double_quadrature(self, lam, f0, T, ref):
        # Var[int_0^T |X|^2 dt] as the dt -> 0 limit of dt^2 k2, Richardson-
        # extrapolated over 128 and 256 steps; the rest is O(dt^2)
        def var(n):
            dt = T / n
            return dt * dt * energy_sum_cumulants(lam, f0, 1.0, 1.0, dt, n)[1]

        assert 2.0 * var(256) - var(128) == pytest.approx(ref, rel=1e-4)

    def test_amplitude_enters_fourth_power(self):
        assert energy_sum_cumulants(1.0, 1.0, 2.0, 1.0, 0.025, 40)[1] == pytest.approx(
            16.0 * energy_sum_cumulants(1.0, 1.0, 1.0, 1.0, 0.025, 40)[1])


class TestEnergySumCumulants:
    """The exact law of one strand's left-endpoint energy sum on its grid."""

    @pytest.mark.parametrize("k", [(0, 0, 1), (1, -6, 2), (5, -1, 4), (8, 0, 0), (3, -3, 0)])
    def test_mean_is_the_left_sum_closed_form(self, k):
        _, *strands = mode_strands(DEFAULTS, 8, [mode_table(8).keys().index(k)])
        n = 48
        dt = 1.0 / n
        for lam, f0, amp, zeta in zip(*strands):
            k1 = energy_sum_cumulants(lam, f0, amp, zeta, dt, n)[0]
            assert k1 == pytest.approx(amp * amp * float(_left_sums(lam, dt, n)[1]),
                                       rel=1e-12)

    @pytest.mark.parametrize("f0", [0.0, 1.7])
    def test_two_point_variance(self, f0):
        # n = 2 leaves S = |eta|^2 of one step's noise, whose variance is
        # Gamma^2 + |P|^2 for E|eta|^2 = Gamma and E eta^2 = P
        lam, amp, zeta, dt = 1.3, 0.8, complex(0.6, 0.8), 0.3
        gamma = amp * amp * decay_sq_integral(complex(lam, 0.0), dt).real
        pseudo = amp * amp * zeta * zeta * decay_sq_integral(complex(lam, f0), dt)
        k2 = energy_sum_cumulants(lam, f0, amp, zeta, dt, 2)[1]
        assert k2 == pytest.approx(gamma * gamma + abs(pseudo) ** 2, rel=1e-12)

    @pytest.mark.parametrize("f0", [0.0, 1.7])
    def test_phase_of_zeta_does_not_enter(self, f0):
        ref = energy_sum_cumulants(2.0, f0, 1.1, 1.0, 0.05, 20)
        for phase in (0.3, 1.0, 2.5, -1.9):
            got = energy_sum_cumulants(2.0, f0, 1.1, np.exp(1j * phase), 0.05, 20)
            np.testing.assert_allclose(got, ref, rtol=1e-12)


class TestStoredModeStatistics:
    def test_paired_mode_mean_counts_both_sites(self):
        lam, f0, amp = rates_at((1, 0, 0), DEFAULTS)
        assert stored_mode_moments((1, 0, 0), DEFAULTS, 1.0)[0] == pytest.approx(
            strand_moments(lam, f0, amp, 1.0, 1.0)[0])

    def test_paired_variance_is_halved(self):
        """Two independent half-power strands give half the fluctuation."""
        assert stored_mode_moments((1, 0, 1), DEFAULTS, 1.0)[1] == pytest.approx(
            0.5 * strand_moments(*rates_at((1, 0, 1), DEFAULTS), 1.0, 1.0)[1], rel=1e-12
        )

    def test_self_paired_variance_is_full(self):
        assert stored_mode_moments((0, 0, 1), DEFAULTS, 1.0)[1] == pytest.approx(
            strand_moments(*rates_at((0, 0, 1), DEFAULTS), 1.0, 1.0)[1], rel=1e-12
        )


class TestNormOrders:
    BETA = DEFAULTS.gamma / 2 + 1  # keeps 4 beta - 2 gamma = 4

    def test_rejects_non_divergent_exponent(self):
        with pytest.raises(ValueError, match="beta"):
            expected_norm_order(2.0, BAROTROPIC, DEFAULTS, 64)

    def test_barotropic_formula_value(self):
        val = expected_norm_order(self.BETA, BAROTROPIC, DEFAULTS, 64)
        ref = 0.5 * np.pi / 2.0 * 64.0**4
        assert val == pytest.approx(ref, rel=1e-12)

    def test_resonant_family_rejected(self):
        # the resonant cone is not a disc: no continuum order, not the "all" sum
        with pytest.raises(ValueError, match="resonant"):
            expected_norm_order(self.BETA, ModeSelector.resonant(1), DEFAULTS, 32)

    def test_all_is_sum_of_parts(self):
        tot = expected_norm_order(self.BETA, ALL, DEFAULTS, 16)
        parts = expected_norm_order(self.BETA, BAROTROPIC, DEFAULTS, 16) + expected_norm_order(
            self.BETA, BAROCLINIC, DEFAULTS, 16
        )
        assert tot == pytest.approx(parts)

    def test_barotropic_lattice_sum_matches_formula(self):
        exact = exact_norm_sum(self.BETA, BAROTROPIC, DEFAULTS, 32)
        assert exact == pytest.approx(8.186982e05, rel=1e-5)
        ratio = exact / expected_norm_order(self.BETA, BAROTROPIC, DEFAULTS, 32)
        assert abs(ratio - 1.0) < 0.1

    def test_baroclinic_doubling_exponent(self):
        lo = exact_norm_sum(self.BETA, BAROCLINIC, DEFAULTS, 16)
        hi = exact_norm_sum(self.BETA, BAROCLINIC, DEFAULTS, 32)
        assert lo == pytest.approx(1.571860e06, rel=1e-5)
        # growth exponent 4 beta - 2 gamma + 1 = 5, so doubling gains 2^5
        assert hi / lo == pytest.approx(32.0, rel=0.05)

    def test_lattice_sum_matches_bruteforce(self):
        """Vectorized lattice sum against a tiny hand loop."""
        p = DEFAULTS
        acc = 0.0
        for k1 in range(-2, 3):
            for k2 in range(-2, 3):
                for k3 in range(-2, 3):
                    ksq = k1 * k1 + k2 * k2 + k3 * k3
                    if ksq == 0 or ksq > 4 or k3 == 0:
                        continue
                    lam = p.nu_h * (k1 * k1 + k2 * k2) + p.nu_z * k3 * k3
                    g0 = (1 - np.exp(-2 * lam)) / (2 * lam)
                    acc += ksq ** (2 * self.BETA) * ksq ** (-p.gamma) * (1.0 - g0) / (2 * lam)
        assert exact_norm_sum(self.BETA, BAROCLINIC, p, 2) == pytest.approx(acc, rel=1e-12)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
