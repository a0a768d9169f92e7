"""The Direct advection sum: the exact oracle for the dealiased grid.

`direct_B(f, g)` sums the advection term over every pair of exponential
lattice sites, with no transform and no grid, so it shares nothing with
the production backend: it unfolds the stored modes onto all their sites
itself (`full_unfolding`, `site_values`), where the backend keeps only
the half spectrum, and it builds w per site (`w_site_values`), where the
backend builds it on its sine box.  It is quadratic in the site count
(about 0.6 s per call at N = 8), which is why the program evaluates B on
the dealiased grid only and this sum lives with the tests.
`vertical_velocity`, which builds w per stored mode, is the separate
oracle for both maps from f to w.
"""
import math
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from pespec.modes import SpectralField, mode_table


@lru_cache(maxsize=None)
def full_unfolding(N: int):
    """(sites, rows, conj, scale) of every exponential site of truncation N.

    Each canonical stored mode owns one, two or four sites e^{i k.x}: the
    cosine in z splits into (k', +-k3) at weight 1/sqrt(2) and the
    implicit reality partner adds (-k', +-k3) with conjugated values.
    """
    entries = []  # (site, row, conj, scale) per site
    for i, (k1, k2, k3) in enumerate(mode_table(N).keys()):
        s = 1.0 / math.sqrt(2.0) if k3 > 0 else 1.0
        images = [((k1, k2, k3), False)]
        if k3 > 0:
            images.append(((k1, k2, -k3), False))
        if (k1, k2) != (0, 0):  # the reality partner, unless self-paired
            images += [((-m1, -m2, m3), True) for (m1, m2, m3), _ in images]
        entries += [(site, i, c, s) for site, c in images]
    sites, rows, conj, scale = zip(*entries)
    return (np.array(sites, dtype=np.int64), np.array(rows), np.array(conj, dtype=bool),
            np.array(scale))


def site_values(f: SpectralField) -> np.ndarray:
    """Per-site values of f on every site of `full_unfolding(f.N)`."""
    _, rows, conj, scale = full_unfolding(f.N)
    vals = f.coeffs[rows] * scale[:, None]
    vals[conj] = np.conj(vals[conj])
    return vals


def half_spectrum(f: SpectralField):
    """(sites, values) of f on its sites with m1 >= 0 and m3 >= 0, the
    sites the dealiased grid's boxes hold."""
    sites = full_unfolding(f.N)[0]
    half = (sites[:, 0] >= 0) & (sites[:, 2] >= 0)
    return sites[half], site_values(f)[half]


def w_site_values(sites: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Exponential coefficients of w(f) from the per-site values of f."""
    m3 = sites[:, 2]
    div = sites[:, 0] * vals[:, 0] + sites[:, 1] * vals[:, 1]
    return np.where(m3 != 0, -div / np.where(m3 != 0, m3, 1), 0.0)


def vertical_velocity(f: SpectralField) -> Dict[Tuple[int, int, int], complex]:
    """Sine-series coefficients of w = -int_0^z div_h u.

    Integrating the cos(k3 z) column of the divergence gives sin(k3 z)/k3,
    so each stored mode with k3 > 0 maps to -i (k' . f_k) / k3 on the
    matching sine element.  The horizontal average is divergence-free and
    contributes nothing; w is odd in z with zero vertical mean.
    """
    out: Dict[Tuple[int, int, int], complex] = {}
    for i, (k1, k2, k3) in enumerate(f.table.keys()):
        if k3 == 0:
            continue
        div = k1 * f.coeffs[i, 0] + k2 * f.coeffs[i, 1]
        out[(k1, k2, k3)] = complex(-1j * div / k3)
    return out


def _fold_sites(f: SpectralField, read) -> np.ndarray:
    """Collapse exponential coefficients back onto the stored basis.

    read(sites) must return the (m, 2) coefficients at the requested
    lattice positions.  For k3 > 0 the two z-images are averaged (they
    agree analytically; averaging symmetrizes roundoff) and rescaled by
    sqrt(2); self-paired rows are real analytically, so their residual
    imaginary part is dropped.
    """
    tab = f.table
    plus = read(np.stack([tab.k1, tab.k2, tab.k3], axis=1))
    out = np.array(plus)
    kp = tab.k3 > 0
    minus = read(np.stack([tab.k1, tab.k2, -tab.k3], axis=1)[kp])
    out[kp] = (plus[kp] + minus) / math.sqrt(2.0)
    sp = tab.self_paired
    out[sp] = out[sp].real
    return out


def direct_B(f: SpectralField, g: SpectralField) -> SpectralField:
    """B(f, g) = f . grad_h g + w(f) dz g by exact summation over site pairs.

    For sites m + n = p the integrand contributes
    i [ (F_m . n') + w_m n3 ] G_n, accumulated on a dense (2N+1)^3 cube,
    and the result is read back at both z-images of each stored mode.
    """
    if f.N != g.N:
        raise ValueError(f"truncation mismatch: {f.N} vs {g.N}")
    N = f.N
    gsites = full_unfolding(N)[0]
    fv = site_values(f)
    gv = site_values(g)
    wv = w_site_values(gsites, fv)

    side = 2 * N + 1
    acc = np.zeros((side ** 3, 2), dtype=complex)
    lin_base = (gsites[:, 0] + N) * side * side + (gsites[:, 1] + N) * side + (
        gsites[:, 2] + N
    )
    active = np.nonzero(np.abs(fv).sum(axis=1) + np.abs(wv) > 0.0)[0]
    Nsq = N * N
    for i in active:
        m = gsites[i]
        p = gsites + m
        keep = (p * p).sum(axis=1) <= Nsq
        keep &= np.any(p != 0, axis=1)
        coef = 1j * (fv[i, 0] * gsites[:, 0] + fv[i, 1] * gsites[:, 1]
                     + wv[i] * gsites[:, 2])
        contrib = coef[:, None] * gv
        lin = lin_base[keep] + (m[0] * side * side + m[1] * side + m[2])
        np.add.at(acc, lin, contrib[keep])

    def read(sites: np.ndarray) -> np.ndarray:
        lin = ((sites[:, 0] + N) * side * side + (sites[:, 1] + N) * side
               + (sites[:, 2] + N))
        return acc[lin]

    return SpectralField(N, _fold_sites(f, read))
