"""The trajectory pairings reduced by `np.sum`: a bitwise oracle.

`simulate_path` and `Trajectory.left_pairing` sum the two velocity
components of a pairing as `(r[..., 0] + 0.0) + r[..., 1]` and square
|V| in place.  Here are the same pairings as their expressions read, a
complex product or `np.abs(...) ** 2` reduced by `np.sum` over the
component axis, with B evaluated afresh for every left sample.  The
tests compare the two with `tobytes()`.
"""
import numpy as np

from pespec.modes import SpectralField, mode_table
from pespec.solver import nonlinear_B


def pairing_rows(v, x):
    """Re sum_c v_c conj(x_c) over the last axis."""
    return (np.conj(v) * x).real.sum(axis=-1)


def energy_rows(left):
    """sum_c |v_c|^2 over the last axis of a (samples, modes, 2) stack."""
    return np.sum(np.abs(left) ** 2, axis=2)


def left_pairing(traj, kind, cut=None):
    """`traj.left_pairing(kind, cut)`, recomputed."""
    stack = traj.coefficient_stack()
    left = stack[:-1]
    if kind == "energy":
        return energy_rows(left)
    if kind == "ito":
        return pairing_rows(left, np.diff(stack, axis=0))
    if kind == "noise":
        return pairing_rows(left, traj.aggregated_noise())
    n_cut = traj.N if cut is None else cut
    n = mode_table(n_cut).n
    rows = []
    for state in traj.states[:-1]:
        src = SpectralField(n_cut, state.coeffs[:n])
        rows.append(pairing_rows(src.coeffs, nonlinear_B(src, src)))
    return np.array(rows)
