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

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, cycle, repeat
from pathlib import Path
from typing import Dict, List, NoReturn, Optional, Sequence, Tuple, get_type_hints

import numpy as np

from .params import RationalLike, as_fraction

__all__ = [
    "ModeSelector",
    "SpectralField",
    "mode_table",
    "selector_mask",
    "project",
    "hydrostatic_leray",
    "inner_product",
    "random_field",
    "field_to_text",
    "field_from_text",
]

FIELD_FORMAT_TAG = "pespec-field v1"
BASIS_TAG = "orthonormal-cos-halfpair"


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

    def mask(self, k1, k2, k3) -> np.ndarray:
        """Elementwise membership of the sites (k1, k2, k3), integer-exact.

        Resonant: r (k1^2 + k2^2) == p k3^2 with k3 != 0 and q = p/r in
        lowest terms, so a match needs p <= |k'|^2 and r <= k3^2.  A q
        beyond the sites' largest wavenumbers matches none of them, and
        the int64 products stay below the fourth power of the largest |k|.
        """
        k1, k2, k3 = (np.asarray(a, dtype=np.int64) for a in (k1, k2, k3))
        if self.kind == "all":
            return np.ones(k3.shape, dtype=bool)
        if self.kind == "barotropic":
            return k3 == 0
        if self.kind == "baroclinic":
            return k3 != 0
        kp_sq, k3_sq = k1 * k1 + k2 * k2, k3 * k3
        p, r = self.q.numerator, self.q.denominator
        if p > int(kp_sq.max(initial=0)) or r > int(k3_sq.max(initial=0)):
            return np.zeros(k3.shape, dtype=bool)
        return (k3 != 0) & (r * kp_sq == p * k3_sq)

    def label(self) -> str:
        if self.kind == "resonant":
            return f"resonant({self.q})"
        return self.kind


ALL = ModeSelector.all_modes()
BAROTROPIC = ModeSelector.barotropic()
BAROCLINIC = ModeSelector.baroclinic()


@lru_cache(maxsize=64)
def _lattice(N: int) -> np.ndarray:
    """The sites 1 <= |k| <= N as a read-only (3, n_sites) int64 array of
    rows k1, k2, k3, sorted by (|k|^2, k1, k2, k3): one vectorised pass
    over the cube [-N, N]^3, the one enumeration the mode table reads."""
    if N < 1:
        raise ValueError("N must be >= 1")
    axis = np.arange(-N, N + 1, dtype=np.int64)
    k1, k2, k3 = (a.ravel() for a in np.meshgrid(axis, axis, axis, indexing="ij"))
    k_sq = k1 * k1 + k2 * k2 + k3 * k3
    keep = (k_sq >= 1) & (k_sq <= N * N)
    k1, k2, k3, k_sq = k1[keep], k2[keep], k3[keep], k_sq[keep]
    sites = np.stack([k1, k2, k3])[:, np.lexsort((k3, k2, k1, k_sq))]
    sites.setflags(write=False)
    return sites


class _ModeTable:
    """Precomputed per-truncation arrays shared by all fields at one N.

    The stored modes are the canonical sites of `_lattice(N)`: k3 >= 0
    and k' lexicographically positive, or k' = 0.  Their integer columns
    `k1`, `k2`, `k3` are the mode keys: a mode is a row of the table.
    The row indices of the barotropic (k3 = 0) and self-paired (k' = 0)
    modes, and the k' pairs and max(|k'|^2, 1) divisors of the former,
    are kept for the projection and coercion that every step runs.
    """

    def __init__(self, N: int):
        lattice = _lattice(N)
        k1, k2, k3 = lattice
        canonical = (k3 >= 0) & ((k1 > 0) | ((k1 == 0) & (k2 >= 0)))
        self.N = N
        self.k1, self.k2, self.k3 = lattice[:, canonical]
        self.kp_sq = (self.k1 ** 2 + self.k2 ** 2).astype(float)
        self.k3_sq = (self.k3 ** 2).astype(float)
        self.k_sq = self.kp_sq + self.k3_sq
        self.self_paired = (self.k1 == 0) & (self.k2 == 0)
        # implicit conjugate partner counts double in quadratic forms
        self.weight = np.where(self.self_paired, 1.0, 2.0)
        self.n = self.k1.size
        self.self_paired_rows = np.flatnonzero(self.self_paired)
        self.baro_rows = baro = np.flatnonzero(self.k3 == 0)
        self.baro_kp = np.stack([self.k1[baro], self.k2[baro]], axis=1).astype(float)
        # |k'|^2 is a whole number, 0 only at k' = 0, where k'.v is 0
        self.baro_kp_sq = np.maximum(self.kp_sq[baro], 1.0)

    def keys(self) -> List[Tuple[int, int, int]]:
        """(k1, k2, k3) of every stored mode, as Python ints, in row order."""
        return list(zip(self.k1.tolist(), self.k2.tolist(), self.k3.tolist()))

    @cached_property
    def key_text(self) -> List[str]:
        """'k1,k2,k3' of every stored mode, as the field text writes it."""
        return [f"{k1},{k2},{k3}" for k1, k2, k3 in self.keys()]

    @cached_property
    def key_prefixes(self) -> List[str]:
        """'k1,k2,k3,' of every stored mode: how its field row begins."""
        return [key + "," for key in self.key_text]

    @cached_property
    def row_template(self) -> str:
        """The `%` template of a field block: 'k1,k2,k3,%r,%r,%r,%r' per row."""
        return "".join(f"{key}%r,%r,%r,%r\n" for key in self.key_prefixes)


@lru_cache(maxsize=64)
def mode_table(N: int) -> _ModeTable:
    return _ModeTable(int(N))


@lru_cache(maxsize=256)
def selector_mask(N: int, sel: ModeSelector) -> np.ndarray:
    """Boolean mask of `sel` over the stored modes of truncation N."""
    tab = mode_table(N)
    mask = sel.mask(tab.k1, tab.k2, tab.k3)
    mask.setflags(write=False)
    return mask


def _coerce_coeffs(N: int, coeffs: np.ndarray) -> np.ndarray:
    tab = mode_table(N)
    arr = np.array(coeffs, dtype=complex)
    if arr.shape != (tab.n, 2):
        raise ValueError(f"coefficient array must have shape ({tab.n}, 2)")
    sp = tab.self_paired_rows
    vals = arr[sp]
    if np.any(np.abs(vals.imag) > 1e-12 * (1.0 + np.abs(vals).max(initial=0.0))):
        raise ValueError("self-paired modes (k'=0) must carry real coefficients")
    arr[sp] = vals.real
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Immutable horizontal-velocity field in the cosine spectral basis.

    Coefficients are complex 2-vectors (u, v), one per row of
    `mode_table(N)`, the canonical stored modes.  The conjugate-partner half
    of the lattice is implicit, so reality of the physical field is structural.
    """

    N: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", _coerce_coeffs(self.N, self.coeffs))

    @classmethod
    def zeros(cls, N: int) -> "SpectralField":
        return cls(N, np.zeros((mode_table(N).n, 2), dtype=complex))

    def with_coeffs(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.N, coeffs)

    @property
    def table(self) -> _ModeTable:
        return mode_table(self.N)

    def is_divergence_free(self, tol: float = 1e-10) -> bool:
        """Check the horizontal-average (k3 = 0) part against k'.coeff = 0."""
        tab = self.table
        rows, kp = self.coeffs[tab.baro_rows], tab.baro_kp
        div = kp[:, 0] * rows[:, 0] + kp[:, 1] * rows[:, 1]
        scale = max(1.0, float(np.abs(self.coeffs).max(initial=0.0)))
        return bool(np.all(np.abs(div) <= tol * scale))


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


def project(f: SpectralField, sel: ModeSelector) -> SpectralField:
    mask = selector_mask(f.N, sel)
    return f.with_coeffs(f.coeffs * mask[:, None])


def _leray_rows(tab: _ModeTable, coeffs: np.ndarray) -> None:
    """Remove k'(k'.v)/|k'|^2 from every k3 = 0 row of the (n, 2) block `coeffs`, in place."""
    baro, kp = tab.baro_rows, tab.baro_kp
    rows = coeffs[baro]
    dot = kp[:, 0] * rows[:, 0] + kp[:, 1] * rows[:, 1]
    coeffs[baro] = rows - kp * (dot / tab.baro_kp_sq)[:, None]


def hydrostatic_leray(f: SpectralField) -> SpectralField:
    """Leray-project the barotropic part, pass the baroclinic part through."""
    out = np.array(f.coeffs)
    _leray_rows(f.table, out)
    return f.with_coeffs(out)


def inner_product(f: SpectralField, g: SpectralField) -> float:
    """Real L2 pairing; implicit conjugate partners double paired modes."""
    if f.N != g.N:
        raise ValueError(f"truncation mismatch: {f.N} vs {g.N}")
    tab = f.table
    per_mode = np.sum(f.coeffs * np.conj(g.coeffs), axis=1).real
    return float(np.dot(tab.weight, per_mode))


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
    raw[tab.self_paired_rows] = rng.standard_normal((tab.self_paired_rows.size, 2))
    scale = amplitude * tab.k_sq ** (-spectral_exponent / 2.0)
    coeffs = raw * scale[:, None] * selector_mask(N, sel)[:, None]
    _leray_rows(tab, coeffs)
    return SpectralField(N, coeffs)


# the cells of a field row that hold values, after its three key cells
_VALUE_CELLS = (False, False, False, True, True, True, True)
_NOISE_ROW = "%r,%r,%r,%r\n"


def _fmt(x) -> str:
    """Text of one value: floats, NumPy's included, as their round-trip
    repr, None as nothing and a tuple comma-joined."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, tuple):
        return ",".join(map(_fmt, x))
    return "" if x is None else str(x)


# ---------------------------------------------------------------------------
# settings dataclasses as key=value text: config files, hashes, trajectory headers

def _finite(text: str) -> float:
    if math.isfinite(x := float(text)):
        return x
    raise ValueError(text)


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

# annotated type -> (parse a value's text, what that text must be)
_SETTING_TYPES = {
    float: (_finite, "a finite number"),
    int: (int, "an integer"),
    Fraction: (Fraction, "a rational number"),
    str: (str, "text"),
    bool: (lambda text: _FLAGS[text.lower()], "one of 1/true/yes/0/false/no"),
    Optional[int]: (lambda text: int(text) if text else None, "an integer or empty"),
    Tuple[int, ...]: (lambda text: tuple(int(x) for x in text.split(",") if x.strip()),
                      "a comma-separated list of integers"),
    Path: (Path, "a path"),
}


@lru_cache(maxsize=None)
def _setting_types(cls) -> Dict[str, tuple]:
    """Name -> (parse, what) of the settings of the dataclass `cls`, its fields
    whose annotated type has a text form, in field order; resolved once."""
    hints = get_type_hints(cls)
    return {f.name: _SETTING_TYPES[hints[f.name]] for f in fields(cls)
            if hints[f.name] in _SETTING_TYPES}


def _settings_text(obj, sep: str, skip: Sequence[str] = ()) -> List[str]:
    """'name{sep}value' for each setting of the dataclass `obj` in field
    order, but those named in `skip`, the values through `_fmt`."""
    return [f"{name}{sep}{_fmt(getattr(obj, name))}"
            for name in _setting_types(type(obj)) if name not in skip]


def _settings_from(cls, raw: Dict[str, str], where: str,
                   skip: Sequence[str] = ()) -> Dict[str, object]:
    """The settings of the dataclass `cls` that `raw` (key -> text) names,
    but those in `skip`, parsed by their annotated types.  A bad value
    raises a ValueError '{where} key <key> must be <what>, not <text>'."""
    types = _setting_types(cls)
    out = {}
    for key, text in raw.items():
        if key in types and key not in skip:
            parse, what = types[key]
            try:
                out[key] = parse(text)
            except (ValueError, KeyError, ZeroDivisionError):
                raise ValueError(f"{where} key {key} must be {what}, not {text!r}") from None
    return out


def _key_values(text: str, where: str, keys) -> Dict[str, str]:
    """The key=value words of a header line, which names each of `keys`
    once and nothing else; a ValueError after `where` names the word or key."""
    out: Dict[str, str] = {}
    for word in text.split():
        key, eq, value = word.partition("=")
        if not eq:
            raise ValueError(f"{where} {word!r} is not key=value")
        if key not in keys or key in out:
            raise ValueError(f"{where} {'repeated' if key in out else 'unknown'} key {key}")
        out[key] = value
    for key in keys:
        if key not in out:
            raise ValueError(f"{where} missing key {key}")
    return out


def _rows_to_text(coeffs: np.ndarray, tab: Optional[_ModeTable] = None) -> str:
    """Rows of an (n, 2) complex coefficient block: re_u,im_u,re_v,im_v per
    row, after the row's key text 'k1,k2,k3' when the mode table `tab` is
    given.  One `%` operation formats the block; `%r` of a Python float is
    its round-trip repr, the text `_fmt` writes."""
    flat = np.ascontiguousarray(coeffs, dtype=complex).view(float).ravel().tolist()
    template = _NOISE_ROW * (len(flat) // 4) if tab is None else tab.row_template
    return template % tuple(flat)


def _rows_from_text(rows: Sequence[str], numbers: Sequence[int],
                    tab: Optional[_ModeTable] = None) -> np.ndarray:
    """Parse `_rows_to_text` rows: field rows, row i keyed by row i of the
    mode table `tab`, or noise rows when `tab` is None.  rows[i] sits on
    text line numbers[i].  The block is checked and parsed at once: every
    key prefix, every comma count, one `float` pass over the value cells
    and one finiteness test.  A block that fails goes to `_bad_row`, which
    raises a ValueError naming the line of the first bad row.  The floats
    are viewed as complex, since complex arithmetic would normalize signed
    zeros."""
    width = 4 if tab is None else 7
    if ((tab is None or all(map(str.startswith, rows, tab.key_prefixes)))
            and set(map(str.count, rows, repeat(","))) == {width - 1}):
        cells = ",".join(rows).split(",")
        if tab is not None:
            cells = compress(cells, cycle(_VALUE_CELLS))
        try:
            x = np.fromiter(map(float, cells), float, 4 * len(rows))
        except ValueError:
            pass
        else:
            if np.isfinite(x).all():
                return x.reshape(-1, 4).view(complex)
    _bad_row(rows, numbers, tab)


def _bad_row(rows: Sequence[str], numbers: Sequence[int],
             tab: Optional[_ModeTable]) -> NoReturn:
    """Raise the ValueError of the first row of a block that
    `_rows_from_text` could not parse, checking each row in turn: its
    column count, its values, its key, their finiteness."""
    skip, what = (0, "noise") if tab is None else (3, "coefficient")
    for i, row in enumerate(rows):
        parts = row.split(",")
        try:
            if len(parts) != skip + 4:
                raise ValueError(f"{len(parts)} values, not {skip + 4}")
            x = list(map(float, parts[skip:]))
        except ValueError as exc:
            raise ValueError(f"line {numbers[i]}: malformed {what} row ({exc})") from None
        if tab is not None and ",".join(parts[:3]) != tab.key_text[i]:
            raise ValueError(f"line {numbers[i]}: row {i} out of canonical order: "
                             f"({','.join(parts[:3])}) where ({tab.key_text[i]}) belongs")
        if not all(map(math.isfinite, x)):
            raise ValueError(f"line {numbers[i]}: non-finite {what} in row {i}")
    raise AssertionError("a block that failed to parse has no bad row")


def field_to_text(f: SpectralField) -> str:
    """Serialize: header with N and basis tag, then one row per stored mode
    as k1,k2,k3,re_u,im_u,re_v,im_v in canonical order."""
    return (f"# {FIELD_FORMAT_TAG} N={f.N} basis={BASIS_TAG}\n"
            + _rows_to_text(f.coeffs, f.table))


def field_from_text(text: str) -> SpectralField:
    """Parse `field_to_text` output; malformed input raises ValueError naming the line."""
    numbered = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not numbered:
        raise ValueError("empty field text: line 1 should hold the field header")
    numbers, lines = zip(*numbered)
    return _field_from_lines(lines, numbers)


def _field_from_lines(lines: Sequence[str], numbers: Sequence[int]) -> SpectralField:
    """The field of a header line lines[0] and the mode rows after it;
    lines[i] sits on text line numbers[i]."""
    n0, header, tag = numbers[0], lines[0], f"# {FIELD_FORMAT_TAG}"
    if not header.startswith(tag):
        raise ValueError(f"line {n0}: unrecognized field header")
    words = _key_values(header[len(tag):], f"line {n0}: bad field header:", ("N", "basis"))
    if not words["N"].isdigit() or int(words["N"]) < 1:
        raise ValueError(f"line {n0}: field header needs N=<truncation> >= 1, "
                         f"got {words['N']!r}")
    N = int(words["N"])
    if words["basis"] != BASIS_TAG:
        raise ValueError(f"line {n0}: unsupported basis tag {words['basis']!r}")
    tab = mode_table(N)
    rows = lines[1:]
    if len(rows) != tab.n:  # name the first surplus row or the last line
        n = numbers[1 + tab.n] if len(rows) > tab.n else numbers[len(lines) - 1]
        raise ValueError(f"line {n}: {len(rows)} mode rows, but N={N} has {tab.n}")
    return SpectralField(N, _rows_from_text(rows, numbers[1:], tab))
