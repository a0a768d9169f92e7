"""Acceptance suite: every shipped claim, one pass or fail line each.

Each test exercises one end-to-end claim at desk scale with a pinned
seed, so a run is reproducible bit for bit.  The whole module takes
about two and a half minutes on two cores; the asymptotic-covariance
sample at N=12 (about 70 s, with the shell-class sampler) and the
linear-moment sample (about 60 s) dominate.

The resonant vertical estimator has no N^2 limit: its cone
|k'|^2 = q k3^2 holds about N log N lattice sites, not the N^2 of the
ball the quoted constant 11.25/pi = 3.58 normalizes by.  So sigma22 is
gated against the closed-form finite-N covariance at N=12 (about 73.6;
the sample gives 68.3), while sigma11 and sigma12 keep the quoted N^2
limits.  The distance from the quoted sigma22 stays in the report as a
soft gate.  See README.md ("Known limitation") for the numbers.
"""
import json
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from advection_oracle import direct_B
from pespec import cli
from pespec.estimators import (
    EstimatorConfig,
    cross_integral,
    estimate_nu_h,
    estimate_nu_z,
    estimate_nu_z_hat,
    martingale_term,
    quadratic_integral,
)
from pespec.harness import (
    ExperimentConfig,
    linear_moment_check,
    number_theory_checks,
    run_consistency,
    run_normality,
)
from pespec.modes import (
    BAROCLINIC,
    BAROTROPIC,
    ModeSelector,
    eigenvalue_array,
    inner_product,
    mode_table,
    random_field,
)
from pespec.linear import noise_direction_array
from pespec.params import ModelParams
from pespec.solver import SolverConfig, nonlinear_B, simulate_path

SEED = 2026
DEFAULTS = ModelParams()
PSEUDO = "PseudoSpectralDealiased"


@pytest.fixture(scope="module")
def traj():
    """One logged-noise path driven by the fully explicit scheme."""
    params = ModelParams(T=0.05)
    V0 = random_field(8, np.random.default_rng(SEED), amplitude=0.3)
    cfg = SolverConfig(N=8, dt=1e-3, scheme="EulerMaruyama",
                       convolution=PSEUDO)
    return simulate_path(params, V0, cfg, np.random.default_rng(SEED + 1))


class TestCriterion1ExactIdentity:
    """Path-exact reconstruction of both viscosities from logged noise.

    The explicit Euler scheme and the left-endpoint path functionals use
    the same discretization, so feeding the logged increments back
    through the estimator weights must recover the true parameters up to
    roundoff, nonlinear term and all.
    """

    def test_horizontal_reconstruction(self, traj):
        ecfg = EstimatorConfig(variant="V1", N_obs=5)
        a = ecfg.alpha
        est = estimate_nu_h(traj, ecfg).value
        mart = martingale_term(traj, (1.0 + a, 0.0, 0.0), BAROTROPIC, 5)
        den = quadratic_integral(traj, (1.0 + a / 2.0, 0.0, 0.0), BAROTROPIC, 5)
        assert abs(est + mart / den - 1.0) <= 1e-8

    def test_vertical_reconstruction_all_columns(self, traj):
        ecfg = EstimatorConfig(variant="V1", N_obs=5)
        a = ecfg.alpha
        est = estimate_nu_z(traj, ecfg).value
        mart_h = martingale_term(traj, (1.0 + a, 0.0, 0.0), BAROTROPIC, 5)
        den_h = quadratic_integral(traj, (1.0 + a / 2.0, 0.0, 0.0), BAROTROPIC, 5)
        mart_z = martingale_term(traj, (0.0, 1.0, a), BAROCLINIC, 5)
        den_z = quadratic_integral(traj, (0.0, 1.0, a / 2.0), BAROCLINIC, 5)
        cross = cross_integral(traj, a, BAROCLINIC, 5)
        rec = est + mart_z / den_z - (mart_h / den_h) * (cross / den_z)
        assert abs(rec - 0.5) <= 1e-8 * 0.5

    def test_vertical_reconstruction_resonant(self, traj):
        ecfg = EstimatorConfig(variant="V1", N_obs=5)
        a, q = ecfg.alpha, float(ecfg.q)
        res = ModeSelector.resonant(ecfg.q)
        est = estimate_nu_z_hat(traj, ecfg).value
        mart_h = martingale_term(traj, (1.0 + a, 0.0, 0.0), BAROTROPIC, 5)
        den_h = quadratic_integral(traj, (1.0 + a / 2.0, 0.0, 0.0), BAROTROPIC, 5)
        mart_r = martingale_term(traj, (0.0, 1.0, a), res, 5)
        den_r = quadratic_integral(traj, (0.0, 1.0, a / 2.0), res, 5)
        rec = est + mart_r / den_r - q * mart_h / den_h
        assert abs(rec - 0.5) <= 1e-8 * 0.5


@pytest.mark.slow
class TestCriterion2LinearMoments:
    def test_per_mode_time_energy(self):
        """Ensemble means of the per-mode time energy against the closed
        form at N=8, 10^4 replications, at least 95% within 3 SE; the
        variance spot checks on the same draws all within 3.5 SE."""
        t0 = time.monotonic()
        rep = linear_moment_check(DEFAULTS, 8, 10_000,
                                  np.random.default_rng(SEED))
        elapsed = time.monotonic() - t0
        var_max = float(np.max(np.abs(rep.var_z)))
        print(f"\n  moment check: {elapsed:.0f}s, "
              f"{rep.frac_within_3:.2%} of {len(rep.mode_keys)} modes within 3 SE, "
              f"variance max |z| {var_max:.2f}")
        assert rep.frac_within_3 >= 0.95
        assert var_max <= 3.5


class TestCriterion3Consistency:
    def test_rmse_contracts_by_three(self, tmp_path):
        """Both estimates tighten at least 3x from N=4 to N=12, 200 reps."""
        cfg = ExperimentConfig(replications=200, N_sweep=(4, 12), seed=SEED,
                               mode="LinearExact", output_dir=tmp_path)
        report = run_consistency(cfg)
        assert report.hard_ok
        rmse = {}
        rows = (tmp_path / "consistency_summary.csv").read_text().splitlines()[1:]
        for row in rows:
            n, name, _, _, _, val = row.split(",")
            rmse[(int(n), name)] = float(val)
        ratio_h = rmse[(4, "nu_h")] / rmse[(12, "nu_h")]
        ratio_z = rmse[(4, "nu_z_hat")] / rmse[(12, "nu_z_hat")]
        print(f"\n  RMSE contraction: nu_h {ratio_h:.1f}x, nu_z_hat {ratio_z:.1f}x")
        assert ratio_h >= 3.0
        assert ratio_z >= 3.0


@pytest.fixture(scope="module")
def normality_gates(tmp_path_factory):
    """Shared N=12 error sample, 10^3 replications (the expensive run)."""
    out = tmp_path_factory.mktemp("normality")
    cfg = ExperimentConfig(replications=1000, N_sweep=(4, 8, 12), seed=SEED,
                           mode="LinearExact", output_dir=out)
    report = run_normality(cfg)
    return {g.name: g for g in report.gates}


@pytest.mark.slow
class TestCriterion4Normality:
    def test_sigma11_within_25_percent(self, normality_gates):
        gate = normality_gates["cov11_within_25pct"]
        print(f"\n  cov11 deviation {gate.observed:.1%}")
        assert gate.passed

    def test_sigma12_within_25_percent(self, normality_gates):
        gate = normality_gates["cov12_within_25pct"]
        print(f"\n  cov12 deviation {gate.observed:.1%}")
        assert gate.passed

    def test_sigma22_within_25_percent(self, normality_gates):
        """The sampled spread of the resonant vertical estimate against
        its closed-form finite-N value at N=12.  The quoted constant is
        about twenty times smaller and is reported, not gated."""
        gate = normality_gates["cov22_within_25pct"]
        quoted = normality_gates["cov22_vs_quoted_within_25pct"]
        print(f"\n  cov22 deviation {gate.observed:.1%} from the finite-N value "
              f"({quoted.observed:.1%} from the quoted constant)")
        assert gate.passed

    def test_means_match_predicted_grid_shift(self, normality_gates):
        g1 = normality_gates["mean_e1_vs_grid_shift"]
        g2 = normality_gates["mean_e2_vs_grid_shift"]
        print(f"\n  mean z-scores against predicted shift: "
              f"{g1.observed:.2f}, {g2.observed:.2f}")
        assert g1.passed and g2.passed

    def test_marginal_normality_not_rejected_at_1pct(self, normality_gates):
        g1 = normality_gates["ad_e1_not_rejected_1pct"]
        g2 = normality_gates["ad_e2_not_rejected_1pct"]
        print(f"\n  AD statistics {g1.observed:.3f}, {g2.observed:.3f} "
              f"(1% critical value {g1.bound:.3f})")
        assert g1.passed and g2.passed

    def test_error_combination_decorrelates(self, normality_gates):
        gate = normality_gates["uncorrelated_combination"]
        assert gate.passed


class TestCriterion5SolverOracles:
    def test_convolution_backends_agree(self):
        # the production dealiased grid against the Direct site-pair oracle
        rng = np.random.default_rng(SEED)
        for _ in range(3):
            f = random_field(4, rng)
            g = random_field(4, rng)
            direct = direct_B(f, g)
            fast = nonlinear_B(f, g)
            diff = direct.with_coeffs(direct.coeffs - fast.coeffs)
            assert math.sqrt(inner_product(diff, diff)) <= 1e-10 * math.sqrt(
                inner_product(direct, direct))

    def test_advection_does_no_work(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(5):
            f = random_field(4, rng)
            for B in (direct_B(f, f), nonlinear_B(f, f)):
                rel = abs(inner_product(B, f)) / math.sqrt(
                    inner_product(B, B) * inner_product(f, f))
                assert rel < 1e-12

    def test_solver_marginals_match_exact_law(self):
        """Terminal solver coefficients against the exact Gaussian law,
        Kolmogorov-Smirnov at 1%.

        From zero initial data the component of a mode along its forcing
        direction zeta is N(0, a^2 int_0^T e^{-2 lam u} cos^2(f0 u) du)
        and the perpendicular component carries the matching sin^2
        factor, with a the per-strand amplitude.  The exponential scheme
        integrates the linear part exactly, so these are sharp targets,
        not discretization limits.
        """
        params = ModelParams(T=0.5)
        cfg = SolverConfig(N=3, dt=5e-3, include_nonlinear=False)
        rng = np.random.default_rng(SEED)
        reps = 300
        tab = mode_table(3)
        amp = params.sigma0 * tab.k_sq ** (-params.gamma / 2.0)
        dirs = noise_direction_array(3)
        finals = np.empty((reps, tab.n, 2), dtype=complex)
        for r in range(reps):
            finals[r] = simulate_path(params, None, cfg, rng,
                                      log_noise=False).states[-1].coeffs

        def split_variances(i, amp_strand):
            lam = params.nu_h * tab.kp_sq[i] + params.nu_z * tab.k3_sq[i]
            f0 = params.f0 if tab.k3[i] != 0 else 0.0
            g0 = -math.expm1(-2.0 * lam * params.T) / (2.0 * lam)
            rate = 2.0 * (lam - 1j * f0)
            g2 = ((1.0 - np.exp(-rate * params.T)) / rate).real
            half = amp_strand ** 2 / 2.0
            return half * (g0 + g2), half * (g0 - g2)

        samples = []
        i = tab.keys().index((1, 0, 1))
        v_par, v_perp = split_variances(i, amp[i] / math.sqrt(2.0))
        par = finals[:, i, :].real @ dirs[i]
        perp = finals[:, i, :].real @ np.array([-dirs[i, 1], dirs[i, 0]])
        samples += [par / math.sqrt(v_par), perp / math.sqrt(v_perp)]

        i = tab.keys().index((0, 0, 2))
        v_par, _ = split_variances(i, amp[i])
        samples.append(finals[:, i, :].real @ dirs[i] / math.sqrt(v_par))

        i = tab.keys().index((2, 1, 0))
        v_par, _ = split_variances(i, amp[i] / math.sqrt(2.0))
        samples.append(finals[:, i, :].real @ dirs[i] / math.sqrt(v_par))

        for s in samples:
            assert stats.kstest(s, "norm").pvalue > 0.01


class TestCriterion6LatticeCounts:
    def test_representation_counts_and_ball_sums(self):
        nt = number_theory_checks(n_max=10_000, N=50)
        worst = max(abs(r[5] - 1.0) for r in nt.lattice_rows)
        print(f"\n  linear bound C = {nt.fitted_C:g} at n = {nt.argmax_n}; "
              f"worst ball-sum deviation {worst:.2%}")
        gates = {g.name: g.passed for g in nt.gates}
        assert gates["characterization"]
        assert gates["lattice_ratios_within_2pct"]
        assert nt.fitted_C == 6.0


class TestCriterion7ResonantIdentity:
    @pytest.mark.parametrize("q", [Fraction(1), Fraction(2), Fraction(1, 2)])
    def test_operators_proportional_on_resonant_fields(self, q):
        sel = ModeSelector.resonant(q)
        f = random_field(16, np.random.default_rng(SEED), sel=sel)
        assert np.any(f.coeffs != 0)
        a_h = f.coeffs * eigenvalue_array(16, 1, 0, 0)[:, None]
        a_z = f.coeffs * eigenvalue_array(16, 0, 1, 0)[:, None]
        np.testing.assert_array_equal(a_h, float(q) * a_z)


class TestCriterion8Determinism:
    def write_cfg(self, tmp_path):
        p = tmp_path / "acc.cfg"
        p.write_text("T = 0.1\nN = 4\ndt = 0.001\nN_sweep = 3,4\n"
                     "replications = 20\nseed = 6\n")
        return p

    def test_trajectory_files_byte_identical(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        assert (a / "trajectory.txt").read_bytes() == (b / "trajectory.txt").read_bytes()

    def test_reports_byte_identical(self, tmp_path):
        cfg = self.write_cfg(tmp_path)
        for i, (command, flags) in enumerate([("consistency", []), ("normality", []),
                                              ("consistency", ["--mode", "LinearViaSolver"])]):
            a, b = tmp_path / f"ra{i}", tmp_path / f"rb{i}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                codes = [cli.main([command, "--config", str(cfg), "--out", str(out)] + flags)
                         for out in (a, b)]
            assert codes[0] == codes[1]
            if command == "consistency":
                assert codes == [0, 0]
            names = sorted(p.name for p in a.iterdir())
            assert names == sorted(p.name for p in b.iterdir())
            assert f"{command}_manifest.jsonl" in names and len(names) >= 3
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes()
            manifest = json.loads((a / f"{command}_manifest.jsonl").read_text())
            assert manifest["seed"] == 6


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
