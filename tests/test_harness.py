"""Tests for experiment orchestration, reports, and the lattice checks.

The exact-sampling engine is validated against the closed-form grid
shift of the left-endpoint estimator on a deliberately coarse grid,
where the shift is many standard errors wide; a sampler or weight bug
would land far outside the band.
"""
import csv
import json
import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from pespec.estimators import EstimatorConfig, confidence_interval, theoretical_covariance
from pespec.harness import (
    ExperimentConfig,
    _anderson_normal,
    _check_config,
    _log_ndtr,
    _normaltest_p,
    _build_strands,
    _estimation_grid,
    _family_strands,
    _left_sums,
    _predicted_grid_bias,
    _r3_counts,
    _three_square_excluded,
    config_hash,
    config_text,
    finite_n_covariance,
    linear_exact_estimates,
    linear_moment_check,
    load_config,
    number_theory_checks,
    run_consistency,
    run_linear_validation,
    run_normality,
)
from pespec.linear import (ShellSampler, StrandSampler, decay_sq_integral, mode_rates,
                           mode_strands, strand_noise_chol)
from pespec.modes import mode_table
from pespec.params import ModelParams
from pespec.solver import BlowUpError, SolverConfig, trajectory_from_text
from pespec import cli, harness

import family_oracle

DEFAULTS = ModelParams()


class TestConfig:
    def write(self, tmp_path, text):
        p = tmp_path / "run.cfg"
        p.write_text(text)
        return p

    def test_roundtrip(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "nu_h = 2.0", "q = 1/2", "N_sweep = 3,5", "seed = 9",
            "mode = LinearViaSolver", "variant = V3", "# comment",
            "replications = 7",
        ]))
        cfg = load_config(path)
        assert cfg.params.nu_h == 2.0
        assert cfg.params.q == Fraction(1, 2)
        assert cfg.N_sweep == (3, 5)
        assert cfg.seed == 9
        assert cfg.mode == "LinearViaSolver"
        assert cfg.estimator.variant == "V3"
        assert cfg.replications == 7

    def test_overrides_win(self, tmp_path):
        path = self.write(tmp_path, "seed = 1\nreplications = 5\n")
        cfg = load_config(path, {"seed": "77", "replications": None})
        assert cfg.seed == 77
        assert cfg.replications == 5

    def test_unknown_key_rejected(self, tmp_path):
        path = self.write(tmp_path, "nu_k = 1.0\n")
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)

    def test_line_without_equals_rejected(self, tmp_path):
        path = self.write(tmp_path, "just words\n")
        with pytest.raises(ValueError, match="without '='"):
            load_config(path)

    def test_misspelt_boolean_rejected(self, tmp_path):
        path = self.write(tmp_path, "include_nonlinear = flase\n")
        with pytest.raises(ValueError, match="include_nonlinear"):
            load_config(path)

    @pytest.mark.parametrize("key, value", [
        ("N", "x"), ("nu_h", "abc"), ("seed", "1.5"), ("N_sweep", "4,eight"),
        ("N_obs", "3.0"), ("replications", "many"), ("store_every", "2x"),
        ("dt", "1e-3s"), ("q", "1/0"), ("q", "one"), ("T", ""), ("seed", "-1"),
        ("N_sweep", "0,2"), ("N_sweep", "-3"),
    ])
    def test_malformed_number_names_its_key(self, tmp_path, key, value):
        path = self.write(tmp_path, f"{key} = 1\n")
        with pytest.raises(ValueError, match=f"config key {key} must be .*{re.escape(repr(value))}"):
            load_config(path, {key: value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["nu_h", "nu_z", "f0", "sigma0", "gamma", "T",
                                     "alpha", "dt"])
    def test_non_finite_number_names_its_key(self, tmp_path, key, value):
        path = self.write(tmp_path, f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"config key {key} must be a finite number"):
            load_config(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("key", ["nu_h", "nu_z", "f0", "sigma0", "gamma", "alpha", "T"])
    def test_params_reject_non_finite(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            ModelParams(**{key: value})

    def test_shipped_defaults_parse(self):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "defaults.cfg")
        assert cfg.params == DEFAULTS.with_(N=DEFAULTS.N)
        assert cfg.estimator.variant == "V2"
        assert cfg.mode == "LinearExact"

    NON_DEFAULT = ("q = 1/2\nN_obs = 5\nscheme = EulerMaruyama\ninclude_nonlinear = no\n"
                   "N_sweep = 3,5\nalpha = 3.3\n")

    @pytest.mark.parametrize("which", ["defaults", "non-default"])
    def test_config_text_reads_back_as_itself(self, tmp_path, which):
        if which == "defaults":
            cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "defaults.cfg")
        else:
            cfg = load_config(self.write(tmp_path, self.NON_DEFAULT))
            assert (cfg.params.q, cfg.estimator.N_obs, cfg.solver.scheme, cfg.N_sweep,
                    cfg.params.alpha) == (Fraction(1, 2), 5, "EulerMaruyama", (3, 5), 3.3)
            assert cfg.solver.include_nonlinear is False
        text = config_text(cfg)
        back = load_config(self.write(tmp_path, text))
        assert config_text(back) == text
        assert back == replace(cfg, solver=replace(
            cfg.solver, convolution=cfg.solver.resolved_convolution()))

    def test_defaults_hash_is_pinned(self):
        # the run id of every default run
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "defaults.cfg")
        assert config_hash(cfg) == ("0d798ddef53a9a51b2ebb297c980e2d7"
                                    "0eacfdb6f7a8c0eaf37a7eed7b242d0d")
        assert config_hash(ExperimentConfig()) == config_hash(cfg)

    def test_hash_ignores_output_dir(self):
        a = ExperimentConfig(output_dir=Path("here"))
        b = ExperimentConfig(output_dir=Path("there"))
        assert config_hash(a) == config_hash(b)
        assert "output_dir" not in config_text(a)

    def test_hash_ignores_the_legacy_backend_name(self):
        # every accepted convolution name computes on the dealiased grid
        hashes = {config_hash(ExperimentConfig(solver=SolverConfig(N=8, dt=1e-3,
                                                                   convolution=name)))
                  for name in ("auto", "Direct", "PseudoSpectralDealiased")}
        assert len(hashes) == 1

    def test_hash_ignores_numpy_float_types(self):
        plain = ExperimentConfig(params=ModelParams(nu_h=1.0),
                                 solver=SolverConfig(N=8, dt=1e-3))
        numpy = ExperimentConfig(params=ModelParams(nu_h=np.float64(1.0)),
                                 solver=SolverConfig(N=8, dt=np.float64(1e-3)))
        assert config_text(numpy) == config_text(plain)
        assert config_hash(numpy) == config_hash(plain)

    def test_sweep_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            ExperimentConfig(N_sweep=(4, 4))
        with pytest.raises(ValueError, match="ascending"):
            ExperimentConfig(N_sweep=())

    def test_mode_and_replications_validated(self):
        with pytest.raises(ValueError, match="unknown mode"):
            ExperimentConfig(mode="Exact")
        with pytest.raises(ValueError, match="replications"):
            ExperimentConfig(replications=0)

    def test_negative_seed_rejected(self):
        # NumPy's generators take no negative seed
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            ExperimentConfig(seed=-1)

    def test_estimator_alpha_and_q_must_match_the_params(self):
        # the runs estimate at params.alpha and params.q; a differing
        # estimator copy used to be ignored, so run_estimate on alpha = 5
        # estimated at alpha = 4 and wrote 4.0
        with pytest.raises(ValueError, match=r"estimator\.alpha = 5\.0 differs from "
                                              r"params\.alpha = 4\.0"):
            ExperimentConfig(estimator=EstimatorConfig(alpha=5.0, variant="V2"))
        with pytest.raises(ValueError, match=r"estimator\.q = 1/2 differs from params\.q = 1"):
            ExperimentConfig(estimator=EstimatorConfig(q=Fraction(1, 2), variant="V2"))
        cfg = ExperimentConfig(params=DEFAULTS.with_(alpha=5.0, q=Fraction(1, 2)),
                               estimator=EstimatorConfig(alpha=5.0, q="1/2", variant="V2"))
        assert (cfg.estimator.alpha, cfg.estimator.q) == (5.0, Fraction(1, 2))

    def test_removed_scheme_is_named(self, tmp_path):
        path = self.write(tmp_path, "scheme = SemiImplicitEuler\n")
        with pytest.raises(ValueError, match="unknown scheme 'SemiImplicitEuler'"):
            load_config(path)


class TestExactEngine:
    def test_deterministic_given_seed(self):
        a = linear_exact_estimates(DEFAULTS, 3, 4.0, Fraction(1), 8,
                                   np.random.default_rng(5), dt=0.02)
        b = linear_exact_estimates(DEFAULTS, 3, 4.0, Fraction(1), 8,
                                   np.random.default_rng(5), dt=0.02)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_centers_near_truth(self):
        """Fine grid, small truncation: estimates straddle the true pair."""
        rng = np.random.default_rng(11)
        nu_h, nu_z = linear_exact_estimates(DEFAULTS, 4, 4.0, Fraction(1), 300, rng)
        assert abs(nu_h.mean() - 1.0) < 0.05
        assert abs(nu_z.mean() - 0.5) < 0.3

    def test_centers_near_truth_without_rotation(self):
        """f0 = 0: every strand is in a shell class, no rotating block."""
        rng = np.random.default_rng(11)
        nu_h, nu_z = linear_exact_estimates(DEFAULTS.with_(f0=0.0), 4, 4.0, Fraction(1),
                                            300, rng)
        assert abs(nu_h.mean() - 1.0) < 0.05
        assert abs(nu_z.mean() - 0.5) < 0.3

    def test_matches_predicted_grid_shift_on_coarse_grid(self):
        """The closed-form left-endpoint shift is ~25 standard errors wide
        at dt=0.02; the sample mean must land on it up to the ratio bias
        of the small denominator sum (a few tens of percent at N=3)."""
        dt, reps = 0.02, 4000
        rng = np.random.default_rng(3)
        nu_h, _ = linear_exact_estimates(DEFAULTS, 3, 4.0, Fraction(1), reps,
                                         rng, dt=dt)
        e1 = 9.0 * (nu_h - 1.0)
        b1, _ = _predicted_grid_bias(DEFAULTS, 3, 4.0, Fraction(1), dt, 50)
        se = e1.std(ddof=1) / math.sqrt(reps)
        assert abs(e1.mean()) > 10.0 * se
        assert b1 < 0 and e1.mean() < 0
        assert abs(e1.mean() - b1) < 0.3 * abs(b1)

    def test_grid_schedule_tightens_with_truncation(self):
        dt4, n4 = _estimation_grid(4, 1.0)
        dt12, n12 = _estimation_grid(12, 1.0)
        assert dt4 * n4 == pytest.approx(1.0)
        assert dt12 < dt4
        assert dt12 == pytest.approx(1e-4, rel=1e-2)

    def test_requires_both_families(self):
        # q = 3 has no resonant representations inside small truncations
        with pytest.raises(ValueError, match=re.escape("no observed modes for selector "
                                                       "resonant(3)")):
            linear_exact_estimates(DEFAULTS, 3, 4.0, Fraction(3), 4,
                                   np.random.default_rng(0), dt=0.1)


LAW_REPS = 10_000


def _shell_sums(shells, n_steps, rng):
    """Per-class (I, D) = (sum x (x' - x), sum |x|^2) from the class sampler."""
    R = np.zeros((LAW_REPS, shells.size.size))
    sum_R = np.zeros_like(R)
    sum_cross = np.zeros_like(R)
    for _ in range(n_steps):
        sum_R += R
        R, cross = shells.step(R, rng)
        sum_cross += cross
    return (shells.decay - 1.0) * sum_R + shells.scale * sum_cross, sum_R


def _strand_sums(sampler, cls, n_classes, n_steps, rng):
    """The same sums from per-strand paths, added up over each class."""
    Z = np.zeros((LAW_REPS, sampler.n_strands), dtype=complex)
    pair = np.zeros(Z.shape)
    sq = np.zeros(Z.shape)
    for _ in range(n_steps):
        Z_new = sampler.step(Z, rng)
        d = Z_new - Z
        pair += Z.real * d.real + Z.imag * d.imag
        sq += Z.real ** 2 + Z.imag ** 2
        Z = Z_new
    onehot = np.eye(n_classes)[cls]
    return pair @ onehot, sq @ onehot


def _law_z_scores(a, b):
    """z-scores of per-class mean I, mean D, var I, var D and cov(I, D) of
    sample a against sample b, each in standard errors of the difference."""
    def terms(I, D):
        dI, dD = I - I.mean(axis=0), D - D.mean(axis=0)
        return I, D, dI ** 2, dD ** 2, dI * dD

    z = []
    for xa, xb in zip(terms(*a), terms(*b)):
        se = np.sqrt((xa.var(axis=0, ddof=1) + xb.var(axis=0, ddof=1)) / LAW_REPS)
        z.append((xa.mean(axis=0) - xb.mean(axis=0)) / se)
    return np.array(z)


class TestShellSampler:
    """The class sampler has the law of the per-strand paths it replaces.

    Per class, the mean and variance of I = sum x (x' - x) and D = sum
    |x|^2 and their covariance agree with those of StrandSampler paths
    within 4.5 standard errors, on a coarse grid (dt = 0.02, 50 steps)
    over 10^4 replications.
    """

    DT, STEPS, BOUND = 0.02, 50, 4.5

    def test_hand_built_classes_including_a_single_chain(self):
        lam, amp, size = np.array([1.0, 3.0, 0.5]), np.array([1.0, 0.5, 2.0]), [1, 2, 5]
        cls = np.repeat(np.arange(3), size)
        turn = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, cls.size)
        strands = StrandSampler(lam[cls], np.zeros(cls.size), amp[cls],
                                np.exp(1j * turn), self.DT)
        shells = ShellSampler(np.exp(-lam * self.DT),
                              [strand_noise_chol(l, 0.0, a, 1.0 + 0.0j, self.DT)[0]
                               for l, a in zip(lam, amp)], size)
        z = _law_z_scores(_shell_sums(shells, self.STEPS, np.random.default_rng(1)),
                          _strand_sums(strands, cls, 3, self.STEPS, np.random.default_rng(2)))
        assert np.abs(z).max() < self.BOUND

    @pytest.mark.parametrize("f0", [1.0, 0.0])
    def test_estimator_classes(self, f0):
        """The classes `_build_strands` makes at N = 4.  With f0 = 0 every
        strand is in a class and the rotating block is empty."""
        params = DEFAULTS.with_(f0=f0)
        sysm = _build_strands(params, 4, params.alpha, Fraction(1), self.DT, self.STEPS)
        (lam, f0s, amp, zeta), ito, den = _family_strands(params, 4, params.alpha, Fraction(1))
        flat = f0s == 0.0
        strands = StrandSampler(lam[flat], f0s[flat], amp[flat], zeta[flat], self.DT)
        keys = np.column_stack([strands.decay.real, np.hypot(strands.s11, strands.s21),
                                ito[flat], den[flat]])
        classes, cls, size = np.unique(keys, axis=0, return_inverse=True,
                                       return_counts=True)
        assert np.array_equal(size, sysm.shells.size)
        assert np.array_equal(classes[:, 0], sysm.shells.decay)
        assert np.array_equal(classes[:, 1], sysm.shells.scale)
        assert sysm.rotating.n_strands == np.count_nonzero(~flat)
        assert sysm.n_strands == lam.size
        assert flat.all() == (f0 == 0.0)
        z = _law_z_scores(
            _shell_sums(sysm.shells, self.STEPS, np.random.default_rng(3)),
            _strand_sums(strands, cls.ravel(), size.size, self.STEPS, np.random.default_rng(4)))
        assert np.abs(z).max() < self.BOUND

    def test_class_weights_add_up_to_the_strand_weights(self):
        """Each class carries one strand's weights; with the class sizes
        they add up to the per-strand totals of both families."""
        p = DEFAULTS
        sysm = _build_strands(p, 12, p.alpha, p.q, 1e-4, 1)
        _, ito, den = _family_strands(p, 12, p.alpha, p.q)
        n_cls = sysm.shells.size.size
        count = np.concatenate([sysm.shells.size, np.ones(sysm.rotating.n_strands)])
        np.testing.assert_allclose(count @ sysm.ito, ito.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(count @ sysm.den, den.sum(axis=0), rtol=1e-12)
        assert (sysm.n_strands, n_cls, sysm.rotating.n_strands) == (480, 60, 40)


class TestFiniteNCovariance:
    """The closed-form finite-N law behind the cov22 gate."""

    def at(self, N, params=DEFAULTS):
        dt, n_steps = _estimation_grid(N, params.T)
        return finite_n_covariance(params, N, params.q, dt, n_steps)

    @pytest.mark.parametrize("q", [Fraction(1), Fraction(2)])
    def test_off_diagonal_is_minus_q_cov11(self, q):
        cov = self.at(8, DEFAULTS.with_(q=q))
        assert cov[0, 1] == -float(q) * cov[0, 0]
        assert cov[1, 0] == cov[0, 1]

    def test_barotropic_entry_approaches_quoted_constant(self):
        quoted = theoretical_covariance(DEFAULTS)[0, 0]
        gap12 = abs(self.at(12)[0, 0] - quoted)
        gap32 = abs(self.at(32)[0, 0] - quoted)
        assert gap32 < gap12
        assert gap32 <= 0.01 * quoted

    def test_resonant_part_has_no_n_squared_limit(self):
        q2 = float(DEFAULTS.q) ** 2
        part12, part24 = (c[1, 1] - q2 * c[0, 0] for c in (self.at(12), self.at(24)))
        assert part24 > part12

    def test_requires_resonant_modes(self):
        with pytest.raises(ValueError, match=re.escape("no observed modes for selector "
                                                       "resonant(3)")):
            finite_n_covariance(DEFAULTS, 3, Fraction(3), 0.1, 10)

    def test_default_cov22_at_twelve(self):
        # the delta-method value quoted in README's known limitation, far
        # above the quoted constant 11.25/pi
        assert self.at(12)[1, 1] == pytest.approx(73.6, rel=0.03)


class TestFamilyStrands:
    """The one unfolding of the estimator families that the sampler and the
    closed forms read."""

    @pytest.mark.parametrize("N", [4, 12])
    def test_weights_are_the_estimator_weights_bit_for_bit(self, N):
        # at alpha = 4 every weight is an exact product of integers
        alpha, q = 4.0, Fraction(1)
        weight = mode_table(N).weight
        fams = family_oracle.families(N, alpha, q)
        owner, *_ = mode_strands(DEFAULTS, N, np.flatnonzero(fams[0][0] | fams[1][0]))
        _, ito, den = _family_strands(DEFAULTS, N, alpha, q)
        for j, (mask, mu_i, mu_d) in enumerate(fams):
            want_i = np.where(mask, weight * mu_i, 0.0)[owner]
            want_d = np.where(mask, weight * mu_d, 0.0)[owner]
            assert ito[:, j].tobytes() == want_i.tobytes()
            assert den[:, j].tobytes() == want_d.tobytes()

    @pytest.mark.parametrize("N", [2, 3, 4, 8, 12, 16])
    @pytest.mark.parametrize("q", [Fraction(1), Fraction(2)])
    @pytest.mark.parametrize("alpha", [4.0, 3.3])
    def test_closed_forms_match_the_per_mode_sums(self, N, q, alpha):
        params = DEFAULTS.with_(alpha=alpha, q=q)
        dt, n_steps = _estimation_grid(N, params.T)
        np.testing.assert_allclose(
            _predicted_grid_bias(params, N, alpha, q, dt, n_steps),
            family_oracle.predicted_grid_bias(params, N, alpha, q, dt, n_steps), rtol=1e-10)
        np.testing.assert_allclose(
            finite_n_covariance(params, N, q, dt, n_steps),
            family_oracle.finite_n_covariance(params, N, q, dt, n_steps), rtol=1e-10)


class TestAndersonDarling:
    @pytest.mark.parametrize("n", [20, 1000])
    def test_matches_scipy_table(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FutureWarning)
            ref = stats.anderson(x, dist="norm")
        if not hasattr(ref, "critical_values"):
            pytest.skip("scipy.stats.anderson no longer returns critical values")
        a2, crit = _anderson_normal(x)
        assert a2 == pytest.approx(float(ref.statistic), rel=1e-12)
        assert crit == float(ref.critical_values[-1])


class TestNormalHelpers:
    """The stdlib normal quantile and `_log_ndtr` against scipy.special."""

    @pytest.mark.parametrize("n", [20, 100, 200, 1000])
    def test_qq_quantiles(self, tmp_path, n):
        cfg = ExperimentConfig(params=DEFAULTS.with_(T=0.05), replications=n,
                               N_sweep=(2,), seed=1, output_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_normality(cfg)
        _, *rows = (tmp_path / "normality_qq.csv").read_text().splitlines()
        quantiles = np.array([float(row.split(",")[1]) for row in rows])
        expected = special.ndtri((np.arange(1, n + 1) - 0.5) / n)
        np.testing.assert_allclose(quantiles, expected, rtol=1e-15, atol=0)

    def test_interval_quantile(self):
        _, half = confidence_interval(0.0, 1.0, 1)
        assert half == pytest.approx(float(special.ndtri(0.975)), rel=1e-15)

    def test_log_cdf(self):
        # both tails, signed zeros, and the series below -37
        w = np.concatenate([np.linspace(-37.0, 37.0, 7401), [0.0, -0.0, 1e-300, -1e-300],
                            [-37.5, -40.0, -100.0, -1e4]])
        ours = np.array([_log_ndtr(v) for v in w.tolist()])
        np.testing.assert_allclose(ours, special.log_ndtr(w), rtol=1e-13, atol=0)


class TestNormaltest:
    @pytest.mark.parametrize("n", [20, 57, 200, 1000])
    @pytest.mark.parametrize("law", ["normal", "t5", "exponential"])
    def test_matches_scipy(self, n, law):
        rng = np.random.default_rng(n)
        x = {"normal": lambda: rng.standard_normal(n), "t5": lambda: rng.standard_t(5, n),
             "exponential": lambda: rng.exponential(size=n)}[law]()
        ref = stats.normaltest(x)
        p = _normaltest_p(x)
        assert -2.0 * math.log(p) == pytest.approx(float(ref.statistic), rel=1e-12)
        assert p == pytest.approx(float(ref.pvalue), rel=1e-12)


class TestLeftSums:
    """The one closed form for the expected left-endpoint energy sum."""

    @pytest.mark.parametrize("dt,n", [(1e-4, 10_000), (0.02, 50)])  # criterion 4, coarse
    @pytest.mark.parametrize("f0", [0.0, 1.0])
    def test_matches_term_by_term_sum(self, dt, n, f0):
        lam = np.array([0.5, 1.0, 12.5, 144.0])
        z = lam if f0 == 0.0 else lam + 1j * f0
        g_dt, sums = _left_sums(z, dt, n)
        for zj, g, s in zip(z, g_dt, sums):
            brute = sum(decay_sq_integral(complex(zj), i * dt) for i in range(n))
            assert g == pytest.approx(decay_sq_integral(complex(zj), dt), rel=1e-12)
            assert s == pytest.approx(brute, rel=1e-12)


class TestPredictedGridBias:
    def test_matches_step_by_step_moments(self):
        """Expected Ito and energy sums added up mode by mode and step by step:
        E Re conj(c_i)(c_{i+1} - c_i) = (e^{-lam dt} cos(f0 dt) - 1) amp^2 g0(t_i)
        and E|c_i|^2 = amp^2 g0(t_i), under the estimator weights."""
        N, dt, n, alpha, q = 3, 0.02, 50, 4.0, Fraction(1)
        tab = mode_table(N)
        lam, f0, amp = mode_rates(DEFAULTS, tab.kp_sq, tab.k3_sq)
        ratios = []
        for mask, mu_i, mu_d in family_oracle.families(N, alpha, q):
            num = den = 0.0
            for k in np.flatnonzero(mask):
                step = math.exp(-lam[k] * dt) * math.cos(f0[k] * dt) - 1.0
                for i in range(n):
                    energy = tab.weight[k] * amp[k] ** 2 * decay_sq_integral(lam[k], i * dt).real
                    num += mu_i[k] * step * energy
                    den += mu_d[k] * dt * energy
            ratios.append(-num / den)
        nu_h = ratios[0]
        nu_z = ratios[1] - float(q) * nu_h
        want = (N * N * (nu_h - DEFAULTS.nu_h), N * N * (nu_z - DEFAULTS.nu_z))
        got = _predicted_grid_bias(DEFAULTS, N, alpha, q, dt, n)
        assert got == pytest.approx(want, rel=1e-10)


class TestMomentCheck:
    def test_small_truncation_passes(self):
        rng = np.random.default_rng(8)
        rep = linear_moment_check(DEFAULTS, 2, 1500, rng)
        assert rep.frac_within_3 >= 0.95
        assert np.all(np.abs(rep.var_z) <= 3.5)
        assert len(rep.mode_keys) == len(rep.mean_z)

    def test_variance_picks_span_decay_rates(self):
        rng = np.random.default_rng(8)
        rep = linear_moment_check(DEFAULTS, 2, 200, rng, n_var_modes=3)
        assert len(rep.var_keys) == 3
        assert len(set(rep.var_keys)) == 3

    def test_default_variance_spot_checks_pass(self):
        # the computation of `pespec linear-validate` on the defaults
        rep = linear_moment_check(DEFAULTS, 8, 200, np.random.default_rng(2026))
        assert len(rep.var_z) == 10
        assert np.all(np.abs(rep.var_z) <= 3.5)

    def test_variance_check_draws_nothing(self):
        # it reads the mean check's draws, so the generator ends where it
        # would with no spot checks at all
        rngs = [np.random.default_rng(3), np.random.default_rng(3)]
        for rng, n_var in zip(rngs, (0, 10)):
            linear_moment_check(DEFAULTS, 4, 50, rng, n_var_modes=n_var)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


class TestConsistencyRun:
    def make_cfg(self, tmp_path, **kw):
        base = dict(params=DEFAULTS.with_(T=0.5), replications=20,
                    N_sweep=(2, 3), seed=4, mode="LinearExact",
                    output_dir=tmp_path)
        base.update(kw)
        return ExperimentConfig(**base)

    def run_quiet(self, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return run_consistency(cfg)

    def test_reports_and_gate(self, tmp_path):
        report = self.run_quiet(self.make_cfg(tmp_path))
        assert report.hard_ok
        rows = (tmp_path / "consistency_rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 20
        summary = (tmp_path / "consistency_summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 2 * 2
        manifest = json.loads((tmp_path / "consistency_manifest.jsonl").read_text())
        assert manifest["config_hash"] == config_hash(self.make_cfg(tmp_path))
        assert manifest["command"] == "consistency"

    def test_rerun_is_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        self.run_quiet(self.make_cfg(a_dir, output_dir=a_dir))
        self.run_quiet(self.make_cfg(b_dir, output_dir=b_dir))
        for name in ("consistency_rows.csv", "consistency_summary.csv",
                     "consistency_manifest.jsonl"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_solver_mode_runs(self, tmp_path):
        cfg = self.make_cfg(
            tmp_path, mode="LinearViaSolver", replications=3, N_sweep=(2,),
            solver=SolverConfig(N=2, dt=0.01, include_nonlinear=False))
        report = self.run_quiet(cfg)
        assert report.hard_ok
        rows = (tmp_path / "consistency_rows.csv").read_text().splitlines()
        assert all(",ok," in r for r in rows[1:])


class TestNormalityRun:
    def test_report_structure(self, tmp_path):
        """Small truncation: files and gate names, not the asymptotic gates."""
        cfg = ExperimentConfig(params=DEFAULTS.with_(T=0.5), replications=40,
                               N_sweep=(3,), seed=12, output_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FutureWarning)
            report = run_normality(cfg)
        gates = {g.name: g for g in report.gates}
        assert {"cov11_within_25pct", "ad_e1_not_rejected_1pct",
                "uncorrelated_combination",
                "mean_e1_vs_grid_shift"} <= set(gates)
        assert gates["cov22_within_25pct"].hard
        assert not gates["cov22_vs_quoted_within_25pct"].hard
        qq = (tmp_path / "normality_qq.csv").read_text().splitlines()
        assert len(qq) == 1 + 40
        rows = (tmp_path / "normality_rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 40

    def test_needs_enough_replications(self, tmp_path):
        cfg = ExperimentConfig(replications=5, output_dir=tmp_path)
        with pytest.raises(ValueError, match="at least 20"):
            run_normality(cfg)

    def test_needs_normal_regime(self, tmp_path):
        cfg = ExperimentConfig(params=DEFAULTS.with_(alpha=2.0),
                               estimator=EstimatorConfig(alpha=2.0, variant="V2"),
                               replications=40, output_dir=tmp_path)
        with pytest.raises(ValueError, match="alpha > gamma - 1"):
            run_normality(cfg)


class TestReplicationFailures:
    """Both studies take their replications from one helper, with one failure policy."""

    def make_cfg(self, tmp_path, **kw):
        base = dict(params=DEFAULTS.with_(T=0.05), replications=22, N_sweep=(2,), seed=3,
                    mode="LinearViaSolver", output_dir=tmp_path,
                    solver=SolverConfig(N=2, dt=0.01, include_nonlinear=False))
        base.update(kw)
        return ExperimentConfig(**base)

    @staticmethod
    def read_rows(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def failing(self, monkeypatch, bad):
        """Make replications `bad` raise after their path is drawn, so the
        others draw what they would have drawn anyway."""
        real, calls = harness._simulate, []

        def flaky(*args):
            out = real(*args)
            calls.append(None)
            if len(calls) - 1 in bad:
                raise BlowUpError("trajectory blew up at step 2 of 5, in a test")
            return out

        monkeypatch.setattr(harness, "_simulate", flaky)
        return calls

    def test_solver_normality_writes_one_row_per_replication(self, tmp_path):
        cfg = self.make_cfg(tmp_path)
        report = run_normality(cfg)
        assert report.warnings == []
        lines = (tmp_path / "normality_rows.csv").read_text().splitlines()
        assert lines[0] == "rep,e1,e2" and len(lines) == 1 + 22
        # the rows are the helper's estimates, scaled by N^2
        nu_h, nu_z, failed = harness._replications(cfg, 2, np.random.default_rng(cfg.seed))
        assert failed == {}
        rows = self.read_rows(tmp_path / "normality_rows.csv")
        assert [int(r["rep"]) for r in rows] == list(range(22))
        assert [float(r["e1"]) for r in rows] == list(4 * (nu_h - DEFAULTS.nu_h))
        assert [float(r["e2"]) for r in rows] == list(4 * (nu_z - DEFAULTS.nu_z))

    def test_failed_replications_are_skipped_and_named(self, tmp_path, monkeypatch):
        whole = self.read_rows(
            run_normality(self.make_cfg(tmp_path / "whole")).outputs[0])
        calls = self.failing(monkeypatch, {3, 7})
        report = run_normality(self.make_cfg(tmp_path / "n"))
        assert len(calls) == 22
        named = [f"replication {rep} failed: trajectory blew up at step 2 of 5, in a test"
                 for rep in (3, 7)]
        assert report.warnings == named
        manifest = json.loads((tmp_path / "n" / "normality_manifest.jsonl").read_text())
        assert manifest["warnings"] == named
        rows = self.read_rows(tmp_path / "n" / "normality_rows.csv")
        assert rows == [r for r in whole if r["rep"] not in ("3", "7")]
        summary = dict(line.split(",")[:2] for line in
                       (tmp_path / "n" / "normality_summary.csv").read_text().splitlines())
        assert summary["n_replications"] == "20"
        qq = (tmp_path / "n" / "normality_qq.csv").read_text().splitlines()
        assert len(qq) == 1 + 20

        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_consistency(self.make_cfg(tmp_path / "c"))
        assert report.hard_ok
        rows = self.read_rows(tmp_path / "c" / "consistency_rows.csv")
        assert [r["status"] for r in rows] == ["failed" if i in (3, 7) else "ok"
                                               for i in range(22)]
        assert rows[3]["error"] == "trajectory blew up at step 2 of 5; in a test"
        assert rows[3]["nu_h"] == rows[3]["nu_z_hat"] == ""
        summary = self.read_rows(tmp_path / "c" / "consistency_summary.csv")
        assert [r["n_ok"] for r in summary] == ["20", "20"]

    def test_too_few_usable_replications_write_no_report(self, tmp_path, capsys):
        # every path blows up at step 9 of 50
        cfg_file = tmp_path / "blowup.cfg"
        cfg_file.write_text("T = 0.05\nN_sweep = 4\nsigma0 = 1e6\nmode = FullNonlinear\n"
                            "replications = 20\n")
        out = tmp_path / "out"
        cfg = load_config(cfg_file, {"output_dir": str(out)})
        with pytest.raises(RuntimeError, match=r"^normality needs 20 usable replications, "
                                               r"not 0 of 20; replication 0 failed: "
                                               r"trajectory blew up at step 9 of 50"):
            run_normality(cfg)
        assert not out.exists()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["consistency", "--config", str(cfg_file), "--out", str(out)]) == 1
        assert "gate usable_replications: FAIL" in capsys.readouterr().out
        rows = self.read_rows(out / "consistency_rows.csv")
        assert {r["status"] for r in rows} == {"failed"} and len(rows) == 20


class TestLinearValidationRun:
    def test_small_truncation(self, tmp_path):
        cfg = ExperimentConfig(params=DEFAULTS.with_(T=0.5),
                               solver=SolverConfig(N=2, dt=1e-3),
                               replications=800, N_sweep=(2,), seed=8,
                               output_dir=tmp_path)
        report = run_linear_validation(cfg)
        assert report.hard_ok
        assert (tmp_path / "linear_mode_z.csv").exists()
        assert (tmp_path / "linear_solver_vs_exact.csv").exists()

    def test_csv_rows_have_the_header_fields(self, tmp_path):
        # a mode is written as three integer columns k1, k2, k3, so csv
        # reads every row with exactly the fields its header names
        cfg = ExperimentConfig(params=DEFAULTS.with_(T=0.1),
                               solver=SolverConfig(N=2, dt=1e-3),
                               replications=20, seed=8, output_dir=tmp_path)
        run_linear_validation(cfg)
        for name, column in (("linear_mode_z.csv", "z_mean"),
                             ("linear_variance_z.csv", "z_variance"),
                             ("linear_solver_vs_exact.csv", "z_cross")):
            with open(tmp_path / name, newline="") as fh:
                reader = csv.DictReader(fh)
                rows = list(reader)
            assert reader.fieldnames == ["k1", "k2", "k3", column], name
            assert rows, name
            for row in rows:
                assert list(row) == reader.fieldnames, (name, row)
                assert None not in row.values(), (name, row)
                assert all(re.fullmatch(r"-?\d+", row[k]) for k in ("k1", "k2", "k3")), row
                float(row[column])

    def test_rejects_nonlinear_mode(self, tmp_path):
        cfg = ExperimentConfig(mode="FullNonlinear", output_dir=tmp_path)
        with pytest.raises(ValueError, match="linear mode"):
            run_linear_validation(cfg)


class TestNumberTheory:
    # representation counts r3(n) for hand-checked n (signs and
    # permutations included)
    R3_SPOTS = {1: 6, 2: 12, 3: 8, 4: 6, 5: 24, 6: 24, 7: 0, 8: 12,
                16: 6, 25: 30, 33: 48, 64: 6, 112: 0, 240: 0}

    def test_counts_match_known_values(self):
        counts = _r3_counts(240)
        for n, want in self.R3_SPOTS.items():
            assert counts[n] == want, n

    def test_characterization_and_linear_bound(self):
        nt = number_theory_checks(n_max=4000, N=16)
        gate = {g.name: g for g in nt.gates}["characterization"]
        assert gate.passed and gate.observed == 0
        assert nt.fitted_C == 6.0
        assert nt.argmax_n == 1

    @given(st.integers(min_value=1, max_value=2000))
    @settings(max_examples=60, deadline=None)
    def test_excluded_family_has_no_representations(self, n):
        counts = _r3_counts(2000)
        assert (counts[n] == 0) == _three_square_excluded(n)

    def test_one_dimensional_sums_are_exact(self):
        nt = number_theory_checks(n_max=10, N=64)
        one_d = {row[1]: row[5] for row in nt.lattice_rows if row[0] == 1}
        assert one_d[0.0] == pytest.approx(1.0, abs=1e-12)
        assert one_d[1.0] == pytest.approx(4160.0 / 4096.0)

    def test_default_grid_within_two_percent(self):
        nt = number_theory_checks(n_max=100)
        assert {g.name: g for g in nt.gates}["lattice_ratios_within_2pct"].passed
        # the d=1, alpha=1 ratio is exactly 1 + 1/N, right on the bound
        assert max(abs(r[5] - 1.0) for r in nt.lattice_rows) == pytest.approx(0.02)

    @pytest.mark.parametrize("kwargs,name", [({"N": 0}, "N"), ({"N": -3}, "N"),
                                             ({"n_max": 0}, "n_max")])
    def test_nonpositive_size_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
            number_theory_checks(**{"n_max": 10, **kwargs})

    def test_alpha_at_or_below_minus_d_rejected(self):
        with pytest.raises(ValueError, match="alpha must exceed -d"):
            number_theory_checks(n_max=10, alphas={2: (-2.0,)})

    def test_writes_reports(self, tmp_path):
        nt = number_theory_checks(n_max=50, N=8, output_dir=tmp_path)
        assert (tmp_path / "number_theory_lattice.csv").exists()
        assert (tmp_path / "number_theory_summary.csv").exists()
        assert len(nt.outputs) == 2


class TestCli:
    def write_cfg(self, tmp_path, extra=""):
        p = tmp_path / "tiny.cfg"
        p.write_text("T = 0.5\nN = 2\ndt = 0.01\nN_sweep = 2\n"
                     "replications = 10\nseed = 6\n" + extra)
        return p

    def test_ntcheck_exits_zero(self, tmp_path, capsys):
        rc = cli.main(["ntcheck", "--n-max", "500", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gate characterization: pass" in out
        assert "fitted linear bound C = 6" in out

    def test_consistency_command(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(["consistency", "--config", str(cfg),
                           "--out", str(tmp_path)])
        assert rc == 0
        assert "gate usable_replications: pass" in capsys.readouterr().out

    def test_simulate_then_rerun_identical(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "trajectory.txt").read_bytes() == (b / "trajectory.txt").read_bytes()
        assert (a / "simulate_manifest.jsonl").read_bytes() == \
            (b / "simulate_manifest.jsonl").read_bytes()

    def test_estimate_command_writes_three_rows(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path)
        rc = cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "estimates.csv").read_text().splitlines()
        assert len(rows) == 4
        assert rows[1].split(",")[1] == "nu_h"
        assert "nu_h = " in capsys.readouterr().out

    def test_estimate_csv_cells_are_numbers(self, tmp_path):
        cfg = tmp_path / "estimate.cfg"
        cfg.write_text("T = 0.005\nN = 4\ndt = 0.001\n")
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "estimates.csv").read_text().splitlines()
        text_columns = {"run_id", "estimator", "variant"}
        names = header.split(",")
        assert len(rows) == 3
        for row in rows:
            for name, cell in zip(names, row.split(","), strict=True):
                if name not in text_columns:
                    float(cell)

    @pytest.mark.parametrize("flag", [["--config", "c.cfg"], ["--seed", "5"],
                                      ["--mode", "FullNonlinear"], ["--replications", "3"]])
    def test_ntcheck_takes_only_its_own_flags(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ntcheck", "--n-max", "50", "--out", str(tmp_path)] + flag)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    @pytest.mark.parametrize("flag", [["--mode", "FullNonlinear"], ["--replications", "3"]])
    def test_single_path_commands_take_no_study_flags(self, tmp_path, command, flag):
        cfg = self.write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--out", str(tmp_path)] + flag)
        assert exc.value.code == 2
        assert not (tmp_path / f"{command}_manifest.jsonl").exists()

    def test_linear_validate_takes_no_mode_flag(self, tmp_path):
        # both linear modes run the same computation, so the flag would
        # only change the config hash
        cfg = self.write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["linear-validate", "--config", str(cfg), "--out", str(tmp_path),
                      "--mode", "LinearExact"])
        assert exc.value.code == 2
        assert not (tmp_path / "linear_validation_manifest.jsonl").exists()

    @pytest.mark.parametrize("line,key", [("nu_h = -1", "nu_h"), ("nu_z = 0", "nu_z"),
                                          ("seed = -1", "seed")])
    def test_malformed_config_is_a_usage_error(self, tmp_path, capsys, line, key):
        cfg = self.write_cfg(tmp_path, line + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["normality", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("pespec: error: ") and key in last
        assert not (tmp_path / "normality_manifest.jsonl").exists()

    def test_linear_validate_refuses_a_nonlinear_config(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "mode = FullNonlinear\n")
        with pytest.raises(ValueError, match="^config key mode must be a linear mode"):
            run_linear_validation(load_config(cfg, {"output_dir": str(tmp_path)}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["linear-validate", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("pespec: error: config key mode must be a linear mode")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("lines,keys", [
        ("replications = 19\n", "key replications"),
        ("replications = 20\nalpha = 3.5\n", "keys alpha and gamma"),
    ])
    def test_normality_preconditions_are_usage_errors(self, tmp_path, capsys, lines, keys):
        # the same check the runner makes, reached before it runs
        cfg = self.write_cfg(tmp_path, lines)
        with pytest.raises(SystemExit) as exc:
            cli.main(["normality", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"pespec: error: config {keys} ")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_linear_validate_needs_two_replications(self, tmp_path, capsys):
        # a sample variance needs two paths; refused before any is drawn
        cfg = self.write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["linear-validate", "--config", str(cfg), "--out", str(tmp_path),
                      "--replications", "1"])
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("pespec: error: config key replications must be at least 2 ")
        assert list(tmp_path.iterdir()) == [cfg]
        with pytest.raises(ValueError, match="^config key replications"):
            run_linear_validation(load_config(cfg, {"output_dir": str(tmp_path),
                                                    "replications": "1"}))

    @pytest.mark.parametrize("command,lines", [
        ("estimate", "N = 4\nT = 0.005\ndt = 0.001\nN_obs = 6\n"),
        ("consistency", "mode = FullNonlinear\nN_sweep = 2,4\nN_obs = 3\n"),
        ("normality", "mode = FullNonlinear\nreplications = 20\nN_obs = 3\n"),
        ("estimate", "N = 4\nvariant = V1\n"),
        ("estimate", "N = 4\nvariant = V1\nN_obs = 4\n"),
        ("consistency", "mode = FullNonlinear\nvariant = V1\nN_obs = 2\n"),
        ("estimate", "N_obs = 1\n"),
        ("consistency", "mode = LinearViaSolver\nN_obs = 1\n"),
        ("consistency", "N_obs = 2\n"),
        ("normality", "replications = 20\nN_obs = 2\n"),
    ])
    def test_unobservable_n_obs_is_a_usage_error(self, tmp_path, capsys, command, lines):
        # rejected before the first path is simulated
        cfg = self.write_cfg(tmp_path, lines)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("pespec: error:")] == err[-1:]
        assert err[-1].startswith("pespec: error: config key N_obs ")
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command,lines,key", [
        ("estimate", "q = 3\n", "q"),
        ("consistency", "q = 3\n", "q"),
        ("normality", "q = 3\nreplications = 20\n", "q"),
        ("estimate", "N = 1\n", "N"),
        ("consistency", "mode = FullNonlinear\nN_sweep = 1,4\n", "N_sweep"),
        ("consistency", "N_sweep = 1,4\n", "N_sweep"),
        ("normality", "N_sweep = 1\nreplications = 20\n", "N_sweep"),
        ("consistency", "sigma0 = 0\n", "sigma0"),
        ("normality", "sigma0 = 0\nreplications = 20\n", "sigma0"),
        ("linear-validate", "sigma0 = 0\n", "sigma0"),
        ("linear-validate", "mode = LinearViaSolver\nsigma0 = 0\n", "sigma0"),
    ])
    def test_unestimable_run_is_a_usage_error(self, tmp_path, capsys, command, lines, key):
        # no resonant mode to observe, or exact linear paths that stay at zero
        cfg = self.write_cfg(tmp_path, lines)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("pespec: error:")] == err[-1:]
        assert err[-1].startswith(f"pespec: error: config key {key} ")
        assert not out.exists()
        # the runner makes the same check
        with pytest.raises(ValueError, match=f"^config key {key} "):
            cli.RUNNERS[command](load_config(cfg, {"output_dir": str(out)}))
        assert not out.exists()

    @pytest.mark.parametrize("command,lines", [
        ("consistency", "mode = LinearViaSolver\nsigma0 = 0\n"),
        ("normality", "mode = FullNonlinear\nsigma0 = 0\n"),
        ("consistency", "N_sweep = 2,4\nq = 2\n"),
        ("estimate", "N = 3\nq = 1/2\n"),
    ])
    def test_estimable_run_passes_the_check(self, tmp_path, command, lines):
        # solver studies start a noiseless path from a random field
        _check_config(command, load_config(self.write_cfg(tmp_path,
                                                          "replications = 20\n" + lines)))

    @pytest.mark.parametrize("command,lines", [
        ("consistency", "mode = FullNonlinear\nN_sweep = 4,8\nvariant = V1\nN_obs = 3\n"),
        ("normality", "mode = FullNonlinear\nN_sweep = 2,4\nN_obs = 4\n"),
        ("consistency", "mode = LinearViaSolver\nN_sweep = 2,4\nN_obs = 2\n"),
        ("estimate", "N = 4\nvariant = V1\ninclude_nonlinear = false\n"),
    ])
    def test_observable_n_obs_passes_the_check(self, tmp_path, command, lines):
        _check_config(command, load_config(self.write_cfg(tmp_path,
                                                          "replications = 20\n" + lines)))

    @pytest.mark.parametrize("command,lines,key", [
        ("simulate", "dt = 0.3\n", "dt"),
        ("estimate", "dt = 0.3\n", "dt"),
        ("consistency", "mode = LinearViaSolver\ndt = 0.3\n", "dt"),
        ("normality", "mode = FullNonlinear\nreplications = 20\ndt = 0.3\n", "dt"),
        ("simulate", "store_every = 3\n", "store_every"),
        ("estimate", "store_every = 3\n", "store_every"),
        ("consistency", "mode = FullNonlinear\nstore_every = 3\n", "store_every"),
        ("simulate", "N = 8\ndt = 0.05\nscheme = EulerMaruyama\n", "dt"),
        ("estimate", "N = 8\ndt = 0.05\nscheme = EulerMaruyama\n", "dt"),
        # stable at N = 2, unstable at the sweep's last truncation
        ("consistency", "mode = LinearViaSolver\nN_sweep = 2,8\ndt = 0.05\n"
                        "scheme = EulerMaruyama\n", "dt"),
        ("normality", "mode = FullNonlinear\nreplications = 20\nN_sweep = 8\ndt = 0.05\n"
                      "scheme = EulerMaruyama\n", "dt"),
    ])
    def test_unsteppable_grid_is_a_usage_error(self, tmp_path, capsys, command, lines, key):
        # T = 0.5 is 50 steps of 0.01; dt*lambda_max = 3.2 at N = 8, dt = 0.05
        cfg = self.write_cfg(tmp_path, lines)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("pespec: error:")] == err[-1:]
        assert err[-1].startswith(f"pespec: error: config key {key} must ")
        assert list(tmp_path.iterdir()) == [cfg]
        # the runner makes the same check
        with pytest.raises(ValueError, match=f"^config key {key} must "):
            cli.RUNNERS[command](load_config(cfg, {"output_dir": str(tmp_path)}))
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command,lines,message", [
        ("estimate", "N = 4\n", "trajectory blew up at step 9 of 50 "),
        ("simulate", "N = 4\n", "trajectory blew up at step 9 of 50 "),
        ("normality", "N_sweep = 4\nmode = FullNonlinear\nreplications = 20\n",
         "normality needs 20 usable replications, not 0 of 20; "),
    ])
    def test_runner_failure_is_one_error_line(self, tmp_path, capsys, command, lines,
                                              message):
        # every path blows up: exit 1 with one line on stderr and no report
        cfg = tmp_path / "blowup.cfg"
        cfg.write_text("T = 0.05\nsigma0 = 1e6\n" + lines)
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"pespec: error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--n-max", "--lattice-N"])
    def test_ntcheck_sizes_are_usage_errors(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ntcheck", flag, "0", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("pespec: error:")] == [
            f"pespec: error: argument {flag}: must be >= 1, not 0"]
        assert list(tmp_path.iterdir()) == []

    def test_linear_validate_cross_check_steps_the_configured_dt(self, tmp_path, capsys):
        # T = 0.0505 is no whole number of the default dt = 0.001 steps,
        # but 101 of dt = 0.0005
        cfg = self.write_cfg(tmp_path, "T = 0.0505\ndt = 0.001\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["linear-validate", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("pespec: error: config key dt must ")
        assert not out.exists()
        with pytest.raises(ValueError, match="^config key dt must "):
            run_linear_validation(load_config(cfg, {"output_dir": str(out)}))
        assert not out.exists()
        cfg = self.write_cfg(tmp_path, "T = 0.0505\ndt = 0.0005\n")
        assert cli.main(["linear-validate", "--config", str(cfg), "--out", str(out)]) in (0, 1)
        assert sorted(p.name for p in out.iterdir()) == [
            "linear_mode_z.csv", "linear_solver_vs_exact.csv",
            "linear_validation_manifest.jsonl", "linear_variance_z.csv"]

    def test_linear_exact_study_steps_no_solver_grid(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "dt = 0.3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["consistency", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "consistency_rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 10 and all(",ok," in r for r in rows[1:])

    def test_estimate_below_the_truncation(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "N = 4\nT = 0.005\ndt = 0.001\n"
                                       "variant = V1\nN_obs = 3\n")
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "estimates.csv").read_text().splitlines()
        column = header.split(",").index("N_obs")
        assert [row.split(",")[column] for row in rows] == ["3", "3", "3"]

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_config_is_a_usage_error(self, tmp_path, capsys, kind):
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["normality", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"pespec: error: cannot read config file {cfg}: ")
        assert not out.exists()

    def test_non_utf8_config_is_a_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xfe")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main(["normality", "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("pespec: error:")] == [
            f"pespec: error: cannot read config file {cfg}: 'utf-8' codec can't decode "
            "byte 0xff in position 0: invalid start byte"]
        assert not out.exists()

    def test_noiseless_simulate_and_estimate_start_from_a_random_field(self, tmp_path):
        cfg = self.write_cfg(tmp_path, "sigma0 = 0\n")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        traj = trajectory_from_text((tmp_path / "trajectory.txt").read_text())
        assert np.abs(traj.coefficient_stack()).max() > 0
        assert cli.main(["estimate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, *rows = (tmp_path / "estimates.csv").read_text().splitlines()
        assert len(rows) == 3
        assert all(math.isfinite(float(row.split(",")[6])) for row in rows)

    def test_every_manifest_has_the_same_keys(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("T = 0.05\nN = 2\ndt = 0.01\nN_sweep = 2\n"
                       "replications = 20\nseed = 6\n")
        keys = {}
        for command in cli.RUNNERS:
            out = tmp_path / command
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cli.main([command, "--config", str(cfg), "--out", str(out)])
            (manifest,) = out.glob("*_manifest.jsonl")
            keys[command] = set(json.loads(manifest.read_text()))
        assert keys == dict.fromkeys(cli.RUNNERS, {"command", "config_hash", "seed",
                                                   "outputs", "gates", "warnings"})

    def test_seed_override_changes_trajectory(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", str(cfg), "--out", str(a)])
        cli.main(["simulate", "--config", str(cfg), "--out", str(b),
                  "--seed", "123"])
        assert (a / "trajectory.txt").read_bytes() != (b / "trajectory.txt").read_bytes()


class TestTheoreticalCovarianceWiring:
    def test_normality_summary_carries_theory(self, tmp_path):
        cfg = ExperimentConfig(params=DEFAULTS.with_(T=0.5), replications=30,
                               N_sweep=(2,), seed=1, output_dir=tmp_path)
        run_normality(cfg)
        text = (tmp_path / "normality_summary.csv").read_text()
        theo = theoretical_covariance(DEFAULTS.with_(T=0.5))
        assert repr(float(theo[0, 0])) in text
        assert "predicted_grid_shift_e1" in text
        dt, n_steps = _estimation_grid(2, 0.5)
        finite = finite_n_covariance(DEFAULTS.with_(T=0.5), 2, DEFAULTS.q, dt, n_steps)
        assert f"finite_n_cov22,{float(finite[1, 1])!r}" in text


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
