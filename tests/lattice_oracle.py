"""A brute-force lattice enumeration: the reference for `modes._lattice`.

`brute_force_modes` walks the cube [-N, N]^3 in a plain triple loop,
keeps the sites 1 <= |k| <= N that `site_matches` accepts, and sorts
them by `ModeIndex.sort_key`, one site at a time; `brute_force_storage`
keeps the canonical ones.  The program enumerates the lattice once, in
vectorised integer arrays, so these stay with the tests as the scalar
reference for its sites, its selector masks and its order.
"""
from typing import List

from pespec.modes import ModeIndex, ModeSelector


def site_matches(sel: ModeSelector, k: ModeIndex) -> bool:
    """The selector's rule at one site; resonance in exact rationals."""
    if sel.kind == "all":
        return True
    if sel.kind == "barotropic":
        return k.k3 == 0
    if sel.kind == "baroclinic":
        return k.k3 != 0
    return k.k3 != 0 and k.kp_sq == sel.q * k.k3 * k.k3


def brute_force_modes(N: int, sel: ModeSelector) -> List[ModeIndex]:
    out = []
    for k1 in range(-N, N + 1):
        for k2 in range(-N, N + 1):
            for k3 in range(-N, N + 1):
                if (k1, k2, k3) == (0, 0, 0) or k1 * k1 + k2 * k2 + k3 * k3 > N * N:
                    continue
                k = ModeIndex(k1, k2, k3)
                if site_matches(sel, k):
                    out.append(k)
    out.sort(key=ModeIndex.sort_key)
    return out


def brute_force_storage(N: int) -> List[ModeIndex]:
    return [k for k in brute_force_modes(N, ModeSelector.all_modes()) if k.is_canonical]
