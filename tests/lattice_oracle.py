"""A brute-force lattice enumeration: the reference for `modes._lattice`.

Modes are plain (k1, k2, k3) tuples.  `brute_force_modes` walks the cube
[-N, N]^3 in a plain triple loop, keeps the sites 1 <= |k| <= N that
`site_matches` accepts, and sorts them by `sort_key`, one site at a
time; `brute_force_storage` keeps the ones `is_canonical` accepts.  The
program enumerates the lattice once, in vectorised integer arrays, so
these stay with the tests as the scalar reference for its sites, its
selector masks and its order.  `field_from_keys` builds a field from
values at canonical keys, for tests that name their modes.
"""
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from pespec.modes import ModeSelector, SpectralField, mode_table

Mode = Tuple[int, int, int]


def sort_key(k: Mode) -> Tuple[int, int, int, int]:
    """The lattice order: by |k|^2, then k1, k2, k3."""
    k1, k2, k3 = k
    return (k1 * k1 + k2 * k2 + k3 * k3, k1, k2, k3)


def is_canonical(k: Mode) -> bool:
    """The stored representative: k3 >= 0 and k' lexicographically >= 0."""
    k1, k2, k3 = k
    return k3 >= 0 and (k1 > 0 or (k1 == 0 and k2 >= 0))


def site_matches(sel: ModeSelector, k: Mode) -> bool:
    """The selector's rule at one site; resonance in exact rationals."""
    k1, k2, k3 = k
    if sel.kind == "all":
        return True
    if sel.kind == "barotropic":
        return k3 == 0
    if sel.kind == "baroclinic":
        return k3 != 0
    return k3 != 0 and k1 * k1 + k2 * k2 == sel.q * k3 * k3


def brute_force_modes(N: int, sel: ModeSelector) -> List[Mode]:
    out = []
    for k1 in range(-N, N + 1):
        for k2 in range(-N, N + 1):
            for k3 in range(-N, N + 1):
                if (k1, k2, k3) == (0, 0, 0) or k1 * k1 + k2 * k2 + k3 * k3 > N * N:
                    continue
                if site_matches(sel, (k1, k2, k3)):
                    out.append((k1, k2, k3))
    out.sort(key=sort_key)
    return out


def brute_force_storage(N: int) -> List[Mode]:
    return [k for k in brute_force_modes(N, ModeSelector.all_modes()) if is_canonical(k)]


def field_from_keys(N: int, values: Mapping[Mode, Sequence[complex]]) -> SpectralField:
    """The field of truncation N with coefficients (u, v) at the canonical
    keys of `values` and zero elsewhere; no conjugate is folded."""
    keys = mode_table(N).keys()
    coeffs = np.zeros((len(keys), 2), dtype=complex)
    for k, uv in values.items():
        if not is_canonical(k):
            raise ValueError(f"mode {k} is not canonical")
        if sum(c * c for c in k) > N * N:
            raise ValueError(f"mode {k} exceeds truncation N={N}")
        coeffs[keys.index(k)] = uv
    return SpectralField(N, coeffs)
