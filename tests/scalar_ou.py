"""The scalar one-strand OU transition: an oracle for `StrandSampler`.

`ou_mean_factor` and `ou_exact_step` advance a single strand of decay
rate lam, rotation f0, noise amplitude amp and unit noise direction
zeta (a complex number) exactly over dt with complex scalars, one
strand and one step at a time.  The program samples strands only
through the vectorized `StrandSampler` (and its squared-norm classes,
`ShellSampler`), so these stay with the tests as the scalar reference
for its decay and its draw order; both take the noise factors from
`strand_noise_chol`.
"""
import cmath

import numpy as np

from pespec.linear import strand_noise_chol


def ou_mean_factor(lam: float, f0: float, dt: float) -> complex:
    """exp(-(lam + i f0) dt): the exact mean propagator in complex form."""
    return cmath.exp(-complex(lam, f0) * dt)


def ou_exact_step(
    lam: float, f0: float, amp: float, zeta: complex, state, dt: float,
    rng: np.random.Generator
) -> np.ndarray:
    """Advance the strand exactly over dt: distributionally error-free."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    xi = complex(state[0], state[1]) * ou_mean_factor(lam, f0, dt)
    s11, s21, s22 = strand_noise_chol(lam, f0, amp, zeta, dt)
    n1, n2 = rng.standard_normal(2)
    eta = complex(s11 * n1, s21 * n1 + s22 * n2)
    xi += eta
    return np.array([xi.real, xi.imag])
