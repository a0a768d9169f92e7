"""Tests for mode bookkeeping, fields, and spectral operators."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_oracle import (
    brute_force_modes,
    brute_force_storage,
    field_from_keys,
    is_canonical,
    sort_key,
)
from pespec.modes import (
    ALL,
    BAROCLINIC,
    BAROTROPIC,
    ModeSelector,
    SpectralField,
    eigenvalue_array,
    _fmt,
    _lattice,
    _rows_from_text,
    _rows_to_text,
    field_from_text,
    field_to_text,
    hydrostatic_leray,
    inner_product,
    mode_table,
    project,
    random_field,
    selector_mask,
)


def lattice_sites(N, sel=ALL):
    """The sites of `_lattice(N)` that `sel` keeps, as (k1, k2, k3) tuples."""
    sites = _lattice(N)
    return list(zip(*sites[:, sel.mask(*sites)].tolist()))


def fold(k):
    """The canonical site that stores lattice site k: k3 to |k3|, then k'
    to its lexicographically positive sign."""
    k1, k2, k3 = k
    return (k1, k2, abs(k3)) if is_canonical((k1, k2, abs(k3))) else (-k1, -k2, abs(k3))


class TestEnumeration:
    def test_smallest_truncation_has_six_sites(self):
        modes = lattice_sites(1)
        assert len(modes) == 6
        assert set(modes) == {(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)}

    def test_resonant_count_at_n2(self):
        # |k'|^2 = k3^2 with |k| <= 2: (+-1,0,+-1) and (0,+-1,+-1)
        modes = lattice_sites(2, ModeSelector.resonant(1))
        assert len(modes) == 8

    def test_barotropic_count_at_n10(self):
        modes = lattice_sites(10, BAROTROPIC)
        assert len(modes) == 316

    def test_sorted_by_shell(self):
        keys = [sort_key(k) for k in lattice_sites(3)]
        assert keys == sorted(keys)

    def test_observed_modes_are_a_prefix(self):
        # the (|k|^2, k1, k2, k3) order stores the modes |k| <= n of any
        # truncation N >= n first, in the order of mode_table(n)
        for N in range(1, 17):
            big = mode_table(N)
            for n in range(1, N + 1):
                small = mode_table(n)
                for col in ("k1", "k2", "k3"):
                    np.testing.assert_array_equal(getattr(big, col)[:small.n],
                                                  getattr(small, col))

    def test_storage_covers_lattice_once(self):
        stored = mode_table(4).keys()
        assert all(is_canonical(k) for k in stored)
        lattice = lattice_sites(4)
        assert {fold(k) for k in lattice} == set(stored)
        # horizontal conjugation folds two to one, and the vertical cosine
        # identifies +-k3, so an interior mode absorbs four lattice sites
        n_sites = sum(
            (1 if (k1, k2) == (0, 0) else 2) * (2 if k3 > 0 else 1) for k1, k2, k3 in stored
        )
        assert len(lattice) == n_sites

    def test_fractional_resonance(self):
        sel = ModeSelector.resonant("1/2")
        assert sel.mask([1, 1], [1, 0], [2, 1]).tolist() == [True, False]
        assert sel.label() == "resonant(1/2)"

    @pytest.mark.parametrize("q", [Fraction(10**30), Fraction(1, 10**30)])
    def test_extreme_resonance_matches_nothing(self, q):
        # the reduced q must fit the lattice's wavenumbers; beyond them the
        # integer mask is empty, and no int64 product can overflow
        assert not selector_mask(12, ModeSelector.resonant(q)).any()

    def test_selector_partition(self):
        all_modes = set(lattice_sites(3))
        baro = set(lattice_sites(3, BAROTROPIC))
        clin = set(lattice_sites(3, BAROCLINIC))
        assert baro | clin == all_modes
        assert not baro & clin


SELECTORS = [ALL, BAROTROPIC, BAROCLINIC, ModeSelector.resonant(1),
             ModeSelector.resonant("1/2"), ModeSelector.resonant(2)]


class TestLatticeOracle:
    """The vectorised lattice against a plain triple loop, order included."""

    @pytest.mark.parametrize("N", range(1, 7))
    @pytest.mark.parametrize("sel", SELECTORS, ids=lambda s: s.label())
    def test_enumerate_modes(self, N, sel):
        assert lattice_sites(N, sel) == brute_force_modes(N, sel)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_storage_modes(self, N):
        stored = mode_table(N).keys()
        assert stored == brute_force_storage(N)
        assert all(type(c) is int for k in stored for c in k)

    @pytest.mark.parametrize("N", range(1, 7))
    @pytest.mark.parametrize("sel", SELECTORS, ids=lambda s: s.label())
    def test_selector_mask(self, N, sel):
        want = set(brute_force_modes(N, sel))
        assert selector_mask(N, sel).tolist() == [k in want for k in mode_table(N).keys()]


class TestSpectralField:
    def test_self_paired_must_be_real(self):
        with pytest.raises(ValueError, match="real"):
            field_from_keys(2, {(0, 0, 1): (1j, 0.0)})

    def test_out_of_range_mode_rejected(self):
        with pytest.raises(ValueError, match="truncation"):
            field_from_keys(1, {(1, 1, 0): (1.0, 0.0)})

    def test_roundtrip_serialization(self):
        rng = np.random.default_rng(42)
        f = random_field(3, rng)
        g = field_from_text(field_to_text(f))
        assert g.N == f.N
        np.testing.assert_array_equal(g.coeffs, f.coeffs)

    def test_signed_zeros_round_trip(self):
        coeffs = random_field(2, np.random.default_rng(4)).coeffs.copy()
        keys = mode_table(2).keys()
        i, j = keys.index((1, 0, 1)), keys.index((0, 0, 1))
        coeffs[i] = [complex(-0.0, -0.0), complex(0.5, -0.0)]
        coeffs[j, 0] = -0.0  # self-paired: the imaginary part is +0.0
        f = SpectralField(2, coeffs)
        text = field_to_text(f)
        assert "\n1,0,1,-0.0,-0.0,0.5,-0.0\n" in text
        assert "\n0,0,1,-0.0,0.0," in text
        g = field_from_text(text)
        np.testing.assert_array_equal(np.signbit(g.coeffs.view(float)),
                                      np.signbit(f.coeffs.view(float)))
        assert field_to_text(g) == text

    def test_serialized_header_carries_truncation(self):
        f = SpectralField.zeros(2)
        text = field_to_text(f)
        assert text.splitlines()[0].startswith("#")
        assert "N=2" in text.splitlines()[0]

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            field_from_text("nonsense\n1,0,0,0,0,0,0\n")

    def test_header_truncation_below_one_names_line_1(self):
        with pytest.raises(ValueError, match="line 1: field header needs N=<truncation> >= 1"):
            field_from_text("# pespec-field v1 N=0 basis=orthonormal-cos-halfpair")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            field_from_text("")

    def test_row_count_error_names_a_line(self):
        lines = field_to_text(random_field(2, np.random.default_rng(3))).splitlines()
        n = len(lines)
        # the first surplus row, or the last line when rows are missing
        with pytest.raises(ValueError, match=f"line {n + 1}: {n + 1} mode rows, but N=2 has {n - 1}"):
            field_from_text("\n".join(lines + lines[1:3]))
        with pytest.raises(ValueError, match=f"line {n - 1}: {n - 2} mode rows, but N=2 has {n - 1}"):
            field_from_text("\n".join(lines[:-1]))

    def test_formatter_writes_plain_numbers(self):
        assert [_fmt(x) for x in (np.float64(0.5), 0.1, np.float32(2.0), 3, "V2")] == \
            ["0.5", "0.1", "2.0", "3", "V2"]


# repr changes notation at 1e16 and below 1e-4; signed zeros, the
# smallest subnormal and the largest double are the other edges
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e16, np.nextafter(1e16, 0.0), 1e-5, 1e-4,
                -1e-5, 1.7976931348623157e308, -1.7976931348623157e308]


def _edge_block(n, seed):
    """An (n, 2) complex block holding every edge value and, after them,
    random values that need all 17 significant digits."""
    rng = np.random.default_rng(seed)
    flat = rng.standard_normal(4 * n) * 10.0 ** rng.integers(-300, 300, 4 * n)
    flat[:len(_EDGE_VALUES)] = _EDGE_VALUES
    return flat.view(complex).reshape(n, 2)


def _per_value_text(coeffs, keys=None):
    """The rows as one `_fmt` call per value writes them."""
    flat = coeffs.view(float).ravel()
    rows = [[_fmt(x) for x in flat[4 * i: 4 * i + 4]] for i in range(len(coeffs))]
    if keys is not None:
        rows = [[key] + row for key, row in zip(keys, rows)]
    return "".join(",".join(row) + "\n" for row in rows)


class TestRowCodec:
    @pytest.mark.parametrize("N", [2, 5, 8])
    @pytest.mark.parametrize("keyed", [True, False], ids=["field", "noise"])
    def test_block_matches_per_value_form(self, N, keyed):
        tab = mode_table(N)
        coeffs = _edge_block(tab.n, N)
        mantissas = [repr(x).split("e")[0] for x in coeffs.view(float).ravel().tolist()]
        assert max(len(m.lstrip("-").replace(".", "").strip("0")) for m in mantissas) == 17
        keys = tab.key_text if keyed else None
        text = _rows_to_text(coeffs, tab if keyed else None)
        assert text == _per_value_text(coeffs, keys)
        back = _rows_from_text(text.splitlines(), range(1, tab.n + 1), tab if keyed else None)
        assert back.shape == (tab.n, 2)
        assert back.tobytes() == coeffs.tobytes()


class TestOperators:
    def test_eigenvalue_combinations(self):
        i = mode_table(4).keys().index((1, 2, 3))
        assert eigenvalue_array(4, 0, 0, 1)[i] == 14.0
        assert eigenvalue_array(4, 1, 0, 0)[i] == 5.0
        assert eigenvalue_array(4, 0, 1, 0)[i] == 9.0
        assert eigenvalue_array(4, 1, 0, 2)[i] == 5.0 * 196.0

    def test_zero_factor_conventions(self):
        i = mode_table(1).keys().index((0, 0, 1))
        assert eigenvalue_array(1, 0, 0, 1)[i] == 1.0
        # 0^0 = 1 so a vanishing factor with zero exponent is harmless
        assert eigenvalue_array(1, 0, 1, 0)[i] == 1.0
        with pytest.raises(ValueError, match="negative horizontal exponent"):
            eigenvalue_array(1, -1, 0, 0)

    def test_leray_projects_horizontal_gradient(self):
        f = field_from_keys(2, {(1, 1, 0): (1.0, 0.0)})
        g = hydrostatic_leray(f)
        np.testing.assert_allclose(g.coeffs[mode_table(2).keys().index((1, 1, 0))], [0.5, -0.5])

    def test_leray_is_idempotent(self):
        rng = np.random.default_rng(3)
        f = project(random_field(3, rng), BAROTROPIC)
        g = hydrostatic_leray(f)
        np.testing.assert_allclose(hydrostatic_leray(g).coeffs, g.coeffs, atol=1e-14)

    def test_hydrostatic_projection_lands_in_state_space(self):
        rng = np.random.default_rng(5)
        raw = SpectralField(3, random_field(3, rng).coeffs + 0.3)
        f = hydrostatic_leray(SpectralField(3, raw.coeffs.copy()))
        assert f.is_divergence_free()
        # the baroclinic rows pass through untouched
        clin = mode_table(3).k3 != 0
        np.testing.assert_array_equal(f.coeffs[clin], raw.coeffs[clin])

    def test_inner_product_self_paired(self):
        f = field_from_keys(2, {(0, 0, 1): (1.0, 2.0)})
        g = field_from_keys(2, {(0, 0, 1): (3.0, -1.0)})
        assert inner_product(f, g) == pytest.approx(1.0)

    def test_inner_product_counts_conjugate_partner(self):
        f = field_from_keys(2, {(1, 0, 1): (1.0, 0.0)})
        assert inner_product(f, f) == pytest.approx(2.0)

    def test_inner_product_requires_matching_truncation(self):
        with pytest.raises(ValueError, match="truncation"):
            inner_product(SpectralField.zeros(2), SpectralField.zeros(3))

    def test_project_splits_energy(self):
        rng = np.random.default_rng(11)
        f = random_field(4, rng)
        total = inner_product(f, f)
        parts = inner_product(project(f, BAROTROPIC), project(f, BAROTROPIC)) + inner_product(
            project(f, BAROCLINIC), project(f, BAROCLINIC)
        )
        assert parts == pytest.approx(total, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=100))
    def test_random_field_stays_divergence_free(self, seed):
        f = random_field(3, np.random.default_rng(seed))
        assert f.is_divergence_free()
        assert np.isfinite(math.sqrt(inner_product(f, f)))


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
