"""Fourier lattice, field storage, projections and anisotropic operators.

Basis convention: the scalar basis elements are exp(i k'.x') for k3 = 0 and
sqrt(2) exp(i k'.x') cos(k3 z) for k3 != 0, orthonormal in L2 of the
normalized torus measure.  Because cos is even, (k', k3) and (k', -k3) label
the same basis element, so fields are stored over k3 >= 0 only.  Reality of
the velocity field couples (k', k3) with (-k', k3); we keep one canonical
representative per pair (lexicographically positive k', or k' = 0 which is
self-paired with a real coefficient) and carry the partner implicitly with
weight 2 in every quadratic form.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .params import RationalLike, as_fraction

__all__ = [
    "ModeIndex",
    "ModeSelector",
    "SpectralField",
    "enumerate_modes",
    "storage_modes",
    "mode_table",
    "selector_mask",
    "operator_eigenvalue",
    "apply_operator",
    "project",
    "leray_h",
    "hydrostatic_leray",
    "inner_product",
    "field_norm",
    "random_field",
    "field_to_text",
    "field_from_text",
]

FIELD_FORMAT_TAG = "pespec-field v1"
BASIS_TAG = "orthonormal-cos-halfpair"


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Integer lattice wavevector k = (k1, k2, k3), never the zero mode."""

    k1: int
    k2: int
    k3: int

    def __post_init__(self) -> None:
        if self.k1 == self.k2 == self.k3 == 0:
            raise ValueError("zero mode is excluded (fields have zero mean)")
        for c in (self.k1, self.k2, self.k3):
            if not isinstance(c, (int, np.integer)):
                raise TypeError("mode components must be integers")

    @property
    def kp_sq(self) -> int:
        """|k'|^2 = k1^2 + k2^2."""
        return self.k1 * self.k1 + self.k2 * self.k2

    @property
    def k_sq(self) -> int:
        return self.kp_sq + self.k3 * self.k3

    @property
    def is_barotropic(self) -> bool:
        return self.k3 == 0

    @property
    def is_self_paired(self) -> bool:
        """True when k' = 0, i.e. the mode is its own reality partner."""
        return self.k1 == 0 and self.k2 == 0

    def conjugate_partner(self) -> "ModeIndex":
        return ModeIndex(-self.k1, -self.k2, self.k3)

    def canonical(self) -> "ModeIndex":
        """Representative stored for this basis element (k3 folded to >= 0)."""
        k1, k2, k3 = self.k1, self.k2, abs(self.k3)
        if k1 < 0 or (k1 == 0 and k2 < 0):
            k1, k2 = -k1, -k2
        return ModeIndex(k1, k2, k3)

    @property
    def is_canonical(self) -> bool:
        return (self.k1, self.k2, self.k3) == (
            self.canonical().k1,
            self.canonical().k2,
            self.canonical().k3,
        )

    def sort_key(self) -> Tuple[int, int, int, int]:
        return (self.k_sq, self.k1, self.k2, self.k3)

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.k1, self.k2, self.k3)


@dataclass(frozen=True)
class ModeSelector:
    """Predicate over modes: all, barotropic, baroclinic or resonant.

    Resonant(q) keeps modes with |k'|^2 = q k3^2, k3 != 0; q is held as an
    exact rational p/r so the test r |k'|^2 == p k3^2 is integer-exact.
    """

    kind: str
    q: Optional[Fraction] = None

    _KINDS = ("all", "barotropic", "baroclinic", "resonant")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown selector kind {self.kind!r}")
        if self.kind == "resonant":
            if self.q is None:
                raise ValueError("resonant selector needs a ratio q")
            object.__setattr__(self, "q", as_fraction(self.q))
            if self.q <= 0:
                raise ValueError("resonance ratio q must be positive")
        elif self.q is not None:
            raise ValueError("q is only meaningful for resonant selectors")

    @classmethod
    def all_modes(cls) -> "ModeSelector":
        return cls("all")

    @classmethod
    def barotropic(cls) -> "ModeSelector":
        return cls("barotropic")

    @classmethod
    def baroclinic(cls) -> "ModeSelector":
        return cls("baroclinic")

    @classmethod
    def resonant(cls, q: RationalLike) -> "ModeSelector":
        return cls("resonant", as_fraction(q))

    def matches(self, k: ModeIndex) -> bool:
        if self.kind == "all":
            return True
        if self.kind == "barotropic":
            return k.k3 == 0
        if self.kind == "baroclinic":
            return k.k3 != 0
        # resonant: r (k1^2 + k2^2) == p k3^2 with k3 != 0
        return k.k3 != 0 and self.q.denominator * k.kp_sq == self.q.numerator * k.k3 * k.k3

    def label(self) -> str:
        if self.kind == "resonant":
            return f"resonant({self.q})"
        return self.kind


ALL = ModeSelector.all_modes()
BAROTROPIC = ModeSelector.barotropic()
BAROCLINIC = ModeSelector.baroclinic()


def enumerate_modes(N: int, sel: ModeSelector = ALL) -> List[ModeIndex]:
    """All lattice sites k with 1 <= |k| <= N matching `sel`.

    The full lattice is returned (both signs of k' and k3), ordered
    lexicographically by (|k|^2, k1, k2, k3).  Counting checks against
    closed-form lattice asymptotics rely on this raw-site convention.
    """
    return list(_enumerate_cached(int(N), sel))


@lru_cache(maxsize=256)
def _enumerate_cached(N: int, sel: ModeSelector) -> Tuple[ModeIndex, ...]:
    if N < 1:
        raise ValueError("N must be >= 1")
    Nsq = N * N
    out = []
    for k1 in range(-N, N + 1):
        for k2 in range(-N, N + 1):
            hsq = k1 * k1 + k2 * k2
            if hsq > Nsq:
                continue
            for k3 in range(-N, N + 1):
                if k1 == 0 and k2 == 0 and k3 == 0:
                    continue
                if hsq + k3 * k3 > Nsq:
                    continue
                k = ModeIndex(k1, k2, k3)
                if sel.matches(k):
                    out.append(k)
    out.sort(key=ModeIndex.sort_key)
    return tuple(out)


@lru_cache(maxsize=64)
def storage_modes(N: int) -> Tuple[ModeIndex, ...]:
    """Canonical stored representatives for truncation N, in sort-key order."""
    return tuple(k for k in _enumerate_cached(int(N), ALL) if k.is_canonical)


class _ModeTable:
    """Precomputed per-truncation arrays shared by all fields at one N."""

    def __init__(self, N: int):
        self.N = N
        self.modes = storage_modes(N)
        n = len(self.modes)
        self.index = {k.as_tuple(): i for i, k in enumerate(self.modes)}
        self.k1 = np.array([k.k1 for k in self.modes])
        self.k2 = np.array([k.k2 for k in self.modes])
        self.k3 = np.array([k.k3 for k in self.modes])
        self.kp_sq = (self.k1 ** 2 + self.k2 ** 2).astype(float)
        self.k3_sq = (self.k3 ** 2).astype(float)
        self.k_sq = self.kp_sq + self.k3_sq
        self.self_paired = (self.k1 == 0) & (self.k2 == 0)
        # implicit conjugate partner counts double in quadratic forms
        self.weight = np.where(self.self_paired, 1.0, 2.0)
        self.n = n


@lru_cache(maxsize=64)
def mode_table(N: int) -> _ModeTable:
    return _ModeTable(int(N))


@lru_cache(maxsize=256)
def selector_mask(N: int, sel: ModeSelector) -> np.ndarray:
    """Boolean mask of `sel` over the stored modes of truncation N."""
    tab = mode_table(N)
    mask = np.array([sel.matches(k) for k in tab.modes], dtype=bool)
    mask.setflags(write=False)
    return mask


def _coerce_coeffs(N: int, coeffs: np.ndarray) -> np.ndarray:
    tab = mode_table(N)
    arr = np.array(coeffs, dtype=complex)
    if arr.shape != (tab.n, 2):
        raise ValueError(f"coefficient array must have shape ({tab.n}, 2)")
    sp = tab.self_paired
    if np.any(np.abs(arr[sp].imag) > 1e-12 * (1.0 + np.abs(arr[sp]).max(initial=0.0))):
        raise ValueError("self-paired modes (k'=0) must carry real coefficients")
    arr[sp] = arr[sp].real
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable horizontal-velocity field in the cosine spectral basis.

    Coefficients are complex 2-vectors (u, v) indexed by the canonical
    stored modes of `storage_modes(N)`.  The conjugate-partner half of the
    lattice is implicit, so reality of the physical field is structural.
    """

    N: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _coerce_coeffs(self.N, self.coeffs))

    @classmethod
    def zeros(cls, N: int) -> "SpectralField":
        return cls(N, np.zeros((mode_table(N).n, 2), dtype=complex))

    @classmethod
    def from_mapping(
        cls, N: int, values: Mapping[ModeIndex, Sequence[complex]]
    ) -> "SpectralField":
        """Build a field from {mode: (u, v)}; non-canonical keys are folded
        onto their stored representative through the reality symmetry."""
        tab = mode_table(N)
        arr = np.zeros((tab.n, 2), dtype=complex)
        seen: Dict[int, ModeIndex] = {}
        for k, val in values.items():
            if not isinstance(k, ModeIndex):
                k = ModeIndex(*k)
            if k.k_sq > N * N:
                raise ValueError(f"mode {k} exceeds truncation N={N}")
            canon = k.canonical()
            vec = np.asarray(val, dtype=complex)
            if vec.shape != (2,):
                raise ValueError("each coefficient must be a 2-vector")
            # a value quoted at (-k', k3) is the conjugate of the stored one
            if (k.k1, k.k2) != (canon.k1, canon.k2):
                vec = np.conj(vec)
            i = tab.index[canon.as_tuple()]
            if i in seen:
                prev = arr[i]
                if not np.allclose(prev, vec, rtol=1e-12, atol=1e-12):
                    raise ValueError(
                        f"inconsistent values for conjugate pair at {canon}"
                    )
            arr[i] = vec
            seen[i] = canon
        return cls(N, arr)

    def coeff(self, k: ModeIndex) -> np.ndarray:
        """Coefficient at any lattice site, conjugating off-canonical ones."""
        if not isinstance(k, ModeIndex):
            k = ModeIndex(*k)
        canon = k.canonical()
        i = mode_table(self.N).index[canon.as_tuple()]
        val = self.coeffs[i]
        if (k.k1, k.k2) != (canon.k1, canon.k2):
            return np.conj(val)
        return val.copy()

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.N, coeffs)

    @property
    def table(self) -> _ModeTable:
        return mode_table(self.N)

    def is_divergence_free(self, tol: float = 1e-10) -> bool:
        """Check the horizontal-average (k3 = 0) part against k'.coeff = 0."""
        tab = self.table
        baro = tab.k3 == 0
        div = tab.k1[baro] * self.coeffs[baro, 0] + tab.k2[baro] * self.coeffs[baro, 1]
        scale = max(1.0, float(np.abs(self.coeffs).max(initial=0.0)))
        return bool(np.all(np.abs(div) <= tol * scale))


def operator_eigenvalue(k: ModeIndex, a: float, b: float, c: float) -> float:
    """Eigenvalue |k'|^(2a) |k3|^(2b) |k|^(2c) of the anisotropic operator."""
    if not isinstance(k, ModeIndex):
        k = ModeIndex(*k)
    hsq = float(k.kp_sq)
    zsq = float(k.k3 * k.k3)
    if a < 0 and hsq == 0.0:
        raise ValueError(f"negative horizontal exponent on mode {k} with k'=0")
    if b < 0 and zsq == 0.0:
        raise ValueError(f"negative vertical exponent on barotropic mode {k}")
    return hsq ** a * zsq ** b * float(k.k_sq) ** c


def eigenvalue_array(N: int, a: float, b: float, c: float,
                     mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Vector of operator eigenvalues over the stored modes of truncation N.

    With a boolean `mask` only the selected modes are evaluated, and only
    they must keep a negative exponent off a zero wavenumber.
    """
    tab = mode_table(N)
    sel = slice(None) if mask is None else mask
    hsq, zsq, ksq = tab.kp_sq[sel], tab.k3_sq[sel], tab.k_sq[sel]
    if a < 0 and np.any(hsq == 0.0):
        raise ValueError("negative horizontal exponent meets a k'=0 mode")
    if b < 0 and np.any(zsq == 0.0):
        raise ValueError("negative vertical exponent meets a barotropic mode")
    # 0.0 ** 0.0 evaluates to 1.0, which is the wanted convention here
    return hsq ** a * zsq ** b * ksq ** c


def apply_operator(f: SpectralField, a: float, b: float, c: float) -> SpectralField:
    eig = eigenvalue_array(f.N, a, b, c)
    return f.with_coeffs(f.coeffs * eig[:, None])


def project(f: SpectralField, sel: ModeSelector) -> SpectralField:
    mask = selector_mask(f.N, sel)
    return f.with_coeffs(f.coeffs * mask[:, None])


def leray_h(f: SpectralField) -> SpectralField:
    """2D Leray projection of a barotropic-only field: remove the gradient
    component k'(k'.v)/|k'|^2 of every coefficient."""
    tab = f.table
    baro = tab.k3 == 0
    if np.any(np.abs(f.coeffs[~baro]) > 0):
        raise ValueError("leray_h expects a barotropic-only field")
    out = np.array(f.coeffs)
    kp = np.stack([tab.k1, tab.k2], axis=1).astype(float)
    dot = kp[:, 0] * out[:, 0] + kp[:, 1] * out[:, 1]
    denom = np.where(tab.kp_sq > 0, tab.kp_sq, 1.0)
    corr = kp * (dot / denom)[:, None]
    out[baro] -= corr[baro]
    return f.with_coeffs(out)


def hydrostatic_leray(f: SpectralField) -> SpectralField:
    """Leray-project the barotropic part, pass the baroclinic part through."""
    baro = leray_h(project(f, BAROTROPIC))
    clin = project(f, BAROCLINIC)
    return f.with_coeffs(baro.coeffs + clin.coeffs)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """Real L2 pairing; implicit conjugate partners double paired modes."""
    if f.N != g.N:
        raise ValueError(f"truncation mismatch: {f.N} vs {g.N}")
    tab = f.table
    per_mode = np.sum(f.coeffs * np.conj(g.coeffs), axis=1).real
    return float(np.dot(tab.weight, per_mode))


def field_norm(f: SpectralField) -> float:
    return math.sqrt(max(inner_product(f, f), 0.0))


def random_field(
    N: int,
    rng: np.random.Generator,
    spectral_exponent: float = 3.0,
    amplitude: float = 1.0,
    sel: ModeSelector = ALL,
) -> SpectralField:
    """Random smooth field in H: Gaussian coefficients scaled by |k|^-s,
    divergence-free barotropic part, real self-paired coefficients."""
    tab = mode_table(N)
    raw = rng.standard_normal((tab.n, 2)) + 1j * rng.standard_normal((tab.n, 2))
    raw[tab.self_paired] = rng.standard_normal((int(tab.self_paired.sum()), 2))
    scale = amplitude * tab.k_sq ** (-spectral_exponent / 2.0)
    f = SpectralField(N, raw * scale[:, None])
    f = project(f, sel)
    return hydrostatic_leray(f)


def _fmt(x) -> str:
    """Text of one value; floats, NumPy's included, as their round-trip repr."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def field_to_text(f: SpectralField) -> str:
    """Serialize: header with N and basis tag, then one row per stored mode
    as k1,k2,k3,re_u,im_u,re_v,im_v in canonical order."""
    buf = io.StringIO()
    buf.write(f"# {FIELD_FORMAT_TAG} N={f.N} basis={BASIS_TAG}\n")
    for k, (u, v) in zip(f.table.modes, f.coeffs):
        buf.write(
            f"{k.k1},{k.k2},{k.k3},{_fmt(u.real)},{_fmt(u.imag)},"
            f"{_fmt(v.real)},{_fmt(v.imag)}\n"
        )
    return buf.getvalue()


def field_from_text(text: str) -> SpectralField:
    """Parse `field_to_text` output; malformed input raises ValueError naming the line."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("empty field text: line 1 should hold the field header")
    n0, header = lines[0]
    if not header.startswith(f"# {FIELD_FORMAT_TAG}"):
        raise ValueError(f"line {n0}: unrecognized field header")
    fields = dict(part.split("=", 1) for part in header[2:].split() if "=" in part)
    if not fields.get("N", "").isdigit():
        raise ValueError(f"line {n0}: field header needs N=<truncation>, got {fields.get('N')!r}")
    N = int(fields["N"])
    if fields.get("basis") != BASIS_TAG:
        raise ValueError(f"line {n0}: unsupported basis tag {fields.get('basis')!r}")
    tab = mode_table(N)
    arr = np.zeros((tab.n, 2), dtype=complex)
    if len(lines) - 1 != tab.n:
        raise ValueError("row count does not match the truncation's mode set")
    for i, (n, ln) in enumerate(lines[1:]):
        parts = ln.split(",")
        try:
            if len(parts) != 7:
                raise ValueError(f"{len(parts)} values, not 7")
            k = ModeIndex(int(parts[0]), int(parts[1]), int(parts[2]))
            re_u, im_u, re_v, im_v = (float(p) for p in parts[3:])
        except ValueError as exc:
            raise ValueError(f"line {n}: malformed field row ({exc})") from None
        if k != tab.modes[i]:
            raise ValueError(f"line {n}: row {i} out of canonical order: {k}")
        arr[i, 0] = complex(re_u, im_u)
        arr[i, 1] = complex(re_v, im_v)
    return SpectralField(N, arr)
