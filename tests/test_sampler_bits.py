"""The in-place exact-OU samplers keep the bits of the allocating ones.

`StrandSampler`, `ShellSampler` and the loops that drive them write into
arrays allocated once per call; `ou_loops` holds the same loops with a
fresh array per product.  Every comparison here is of `tobytes()`, so a
flipped signed zero or a reordered draw fails, and so does a rewrite
that splits the complex noise into real and imaginary planes.
"""
from fractions import Fraction

import numpy as np
import pytest

import ou_loops
from pespec.harness import _energy_sums, linear_exact_estimates
from pespec.linear import StrandSampler
from pespec.modes import mode_table
from pespec.params import ModelParams
from pespec.solver import SolverConfig, _step_factors, draw_increments

DEFAULTS = ModelParams()


def bits(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


@pytest.mark.parametrize("f0", [1.0, 0.0])
@pytest.mark.parametrize("N", [4, 6])
def test_linear_exact_estimates_match_the_allocating_loop(N, f0):
    """With f0 = 0 the rotating block is empty."""
    params = DEFAULTS.with_(f0=f0)
    a, b = np.random.default_rng(100 + N), np.random.default_rng(100 + N)
    got = linear_exact_estimates(params, N, params.alpha, Fraction(1), 6, a)
    want = ou_loops.linear_exact_estimates(params, N, params.alpha, Fraction(1), 6, b)
    assert bits(*got) == bits(*want)
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("N", [3, 4])
def test_energy_sums_match_the_allocating_loop(N):
    """Every stored mode at once: a block of rotating and non-rotating
    strands, conjugate-paired and self-paired."""
    cols = range(mode_table(N).n)
    a, b = np.random.default_rng(N), np.random.default_rng(N)
    got = _energy_sums(DEFAULTS, N, cols, 0.01, 60, 7, a)
    want = ou_loops.energy_sums(DEFAULTS, N, cols, 0.01, 60, 7, b)
    assert bits(got) == bits(want)
    assert a.bit_generator.state == b.bit_generator.state


class TestNoiseGuard:
    """A mixed block: one rotating strand, one non-rotating strand with
    zeta = 1j (s11 = 0) and one with zeta = 1 (s21 = 0)."""

    SHAPE = (64, 3)

    def sampler(self):
        s = StrandSampler([1.0, 1.3, 0.7], [1.7, 0.0, 0.0], [1.0, 0.8, 1.2],
                          [complex(0.6, 0.8), 1j, 1.0], 0.3)
        assert s.s11[1] == 0.0 and s.s21[2] == 0.0 and list(s.rot) == [0]
        return s

    def test_matches_the_two_draw_complex_form(self):
        sampler = self.sampler()
        got = sampler.noise(self.SHAPE, np.random.default_rng(9))
        want = ou_loops.strand_noise(sampler, self.SHAPE, np.random.default_rng(9))
        assert bits(got) == bits(want)

    def test_a_real_imaginary_split_differs(self):
        """Writing the planes apart flips signed zeros on the strands with
        s11 = 0 or s21 = 0, so it is not the same noise."""
        sampler = self.sampler()
        n1 = np.random.default_rng(9).standard_normal(self.SHAPE)
        split = np.empty(self.SHAPE, dtype=complex)
        split.real = sampler.s11 * n1
        split.imag = sampler.s21 * n1
        want = ou_loops.strand_noise(sampler, self.SHAPE, np.random.default_rng(9))
        assert bits(split[:, 1:]) != bits(want[:, 1:])

    def test_draws_the_stream_of_two_calls(self):
        sampler = self.sampler()
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        sampler.noise(self.SHAPE, a)
        b.standard_normal(self.SHAPE)
        b.standard_normal((self.SHAPE[0], sampler.rot.size))
        assert a.bit_generator.state == b.bit_generator.state

    def test_work_arrays_give_the_same_noise(self):
        sampler = self.sampler()
        work = sampler.work(self.SHAPE)
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):
            assert bits(sampler.noise(self.SHAPE, a, work)) == \
                bits(ou_loops.strand_noise(sampler, self.SHAPE, b))


@pytest.mark.parametrize("N", [4, 8])
def test_exponential_euler_increments_match_the_complex_form(N):
    cfg = SolverConfig(N=N, dt=1e-3, scheme="ExponentialEuler", include_nonlinear=False)
    fac = _step_factors(N, cfg.dt, DEFAULTS)
    a, b = np.random.default_rng(N), np.random.default_rng(N)
    for _ in range(3):
        got = draw_increments(cfg, DEFAULTS, a)
        eta = ou_loops.strand_noise(fac.strands, fac.wiener.shape, b)
        want = np.zeros((fac.n, 2), dtype=complex)
        want.reshape(-1).view(float)[fac.slots] = eta.view(float)
        assert bits(got) == bits(want)
