import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusparse import (
    FrequencyTable,
    TorusOperator,
    apply_transform,
    build_frequency_table,
    frequency_table_auto,
    rotate_coeffs,
    wrap_angles,
)
from torusparse.torus import (
    LATTICE_POINT_LIMIT,
    TWO_PI,
    canonical_count,
    validate_frequency_table,
)

from conftest import (
    bandlimit,
    dft_shift_operator,
    oracle_build_frequency_table,
    oracle_frequency_table_auto,
    oracle_validate_frequency_table,
)


class TestFrequencyTable:
    def test_1d_simple(self):
        ft = build_frequency_table(n=1, L=3, m=1, max_norm=4)
        assert ft.entries.tolist() == [[0], [1], [2]]

    def test_2d_sign_and_tie_break(self):
        ft = build_frequency_table(n=2, L=5, m=1, max_norm=2)
        assert ft.entries.tolist() == [[0, 0], [0, 1], [1, 0], [1, -1], [1, 1]]

    def test_multiplicity_repeats(self):
        ft = build_frequency_table(n=1, L=4, m=2, max_norm=4)
        assert ft.entries.tolist() == [[0], [0], [1], [1]]

    def test_exclude_zero_flag(self):
        ft = build_frequency_table(n=1, L=3, m=1, max_norm=4, include_zero=False)
        assert ft.entries.tolist() == [[1], [2], [3]]

    def test_insufficient_bound_names_requirement(self):
        with pytest.raises(ValueError, match="max_norm >= 3"):
            build_frequency_table(n=1, L=4, m=1, max_norm=2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_frequency_table(n=0, L=3, m=1, max_norm=2)
        with pytest.raises(ValueError):
            build_frequency_table(n=1, L=3, m=0, max_norm=2)

    @pytest.mark.parametrize("n, L, m", [(0, 3, 1), (1, 0, 1), (1, 3, 0), (1, 3, -2)])
    def test_auto_table_refuses_sizes_below_one_by_name(self, n, L, m):
        """Refused before the ceiling division by m and before the search
        for a bound, which no table satisfies at n = 0."""
        with pytest.raises(ValueError, match=r"^n, L, m must all be >= 1$"):
            frequency_table_auto(n, L, m)

    def test_randomized_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            L = int(rng.integers(1, 40))
            m = int(rng.integers(1, 4))
            ft = frequency_table_auto(n, L, m)
            assert ft.L == L
            validate_frequency_table(ft)

    def test_validator_rejects_bad_tables(self):
        bad_sign = FrequencyTable(n=1, entries=np.array([[-1]]), multiplicity=1)
        with pytest.raises(ValueError, match="canonical sign"):
            validate_frequency_table(bad_sign)
        unsorted = FrequencyTable(n=1, entries=np.array([[2], [1]]), multiplicity=1)
        with pytest.raises(ValueError, match="sorted"):
            validate_frequency_table(unsorted)
        over = FrequencyTable(n=1, entries=np.array([[1], [1]]), multiplicity=1)
        with pytest.raises(ValueError, match="repeated"):
            validate_frequency_table(over)

    @pytest.mark.parametrize("n, entries, message", [
        (2, np.zeros((3, 1)), "frequency entries must be (L, 2), got (3, 1)"),
        (1, np.zeros(3), "frequency entries must be (L, 1), got (3,)"),
    ], ids=["columns", "one-dimensional"])
    def test_entries_of_another_shape_refused_by_name(self, n, entries, message):
        with pytest.raises(ValueError) as info:
            FrequencyTable(n=n, entries=entries, multiplicity=1)
        assert str(info.value) == message

    @pytest.mark.parametrize("field, value, message", [
        ("entries", np.array([[1], [2]]), "frequency table shape mismatch"),
        ("multiplicity", 0, "multiplicity must be >= 1"),
    ], ids=["entries", "multiplicity"])
    def test_validator_rejects_fields_set_after_construction(self, field, value, message):
        table = build_frequency_table(n=2, L=2, m=1, max_norm=1)
        setattr(table, field, value)
        with pytest.raises(ValueError) as info:
            validate_frequency_table(table)
        assert str(info.value) == message

    @pytest.mark.parametrize("entries, message", [
        ([[0.5], [1.7]], "frequency entry [0, 0] is 0.5; entries must be finite integers"),
        ([[0.0, 1.0], [1.0, 2.5]], "frequency entry [1, 1] is 2.5"),
        ([[0.0], [np.nan]], "frequency entry [1, 0] is nan"),
        ([[-np.inf]], "frequency entry [0, 0] is -inf"),
    ], ids=["half", "second-column", "nan", "inf"])
    def test_non_integral_entries_refused_by_name(self, entries, message):
        # a cast to int64 would store [[0], [1]] for the first and fail on NaN
        with pytest.raises(ValueError) as info:
            FrequencyTable(n=len(entries[0]), entries=entries, multiplicity=1)
        assert message in str(info.value)

    @pytest.mark.parametrize("entries, message", [
        (np.array([[0], [2**63]], dtype=np.uint64),
         "frequency entry [1, 0] is 9223372036854775808; entries must fit int64"),
        (np.array([[2**64 - 1]], dtype=np.uint64),
         "frequency entry [0, 0] is 18446744073709551615"),
        ([[0.0, 1e19]], "frequency entry [0, 1] is 1e+19; entries must fit int64"),
        ([[-1e19]], "frequency entry [0, 0] is -1e+19"),
        ([[2.0**63]], "frequency entry [0, 0] is 9.223372036854776e+18"),
    ], ids=["u64-2^63", "u64-max", "float-1e19", "float-minus-1e19", "float-2^63"])
    def test_entries_outside_int64_refused_by_name(self, entries, message):
        # the cast to int64 would wrap 2^63 to -2^63 and 2^64 - 1 to -1, and
        # overflow on a float of 1e19 with only a RuntimeWarning
        with pytest.raises(ValueError) as info:
            FrequencyTable(n=np.shape(entries)[1], entries=entries, multiplicity=1)
        assert message in str(info.value)

    @pytest.mark.parametrize("entries, value", [
        (np.array([[2**63 - 1]], dtype=np.uint64), 2**63 - 1), ([[-(2.0**63)]], -(2**63))])
    def test_int64_extremes_kept(self, entries, value):
        table = FrequencyTable(n=1, entries=entries, multiplicity=1)
        assert table.entries.tolist() == [[value]]

    @pytest.mark.parametrize("entries", [
        [[0], [1]], np.array([[0], [1]], dtype=np.int32),
        np.array([[0], [1]], dtype=np.uint8), [[0.0], [1.0]], [[-0.0], [1.0]]])
    def test_integer_and_integral_float_entries_kept(self, entries):
        table = FrequencyTable(n=1, entries=entries, multiplicity=1)
        assert table.entries.dtype == np.int64
        assert table.entries.tolist() == [[0], [1]]


@st.composite
def near_valid_tables(draw):
    """A built table, sometimes with a few entries nudged or a row copied
    down, or a sorted table of int32-extreme values whose squared norms
    wrap in int64."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = st.sampled_from([0, 1, -1, 3, 2**31 - 1, -(2**31)])
        rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), max_size=8))
        ent = np.array(sorted(rows), dtype=np.int64).reshape(-1, n)
    else:
        ent = frequency_table_auto(n, draw(st.integers(1, 12)), m).entries.copy()
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, len(ent) - 1)), draw(st.integers(0, n - 1))
            ent[i, j] += draw(st.integers(-2, 2))
        if len(ent) > 1 and draw(st.booleans()):
            i = draw(st.integers(1, len(ent) - 1))
            ent[i] = ent[i - 1]
    return FrequencyTable(n=n, entries=ent, multiplicity=m)


def _outcome(check, table):
    try:
        check(table)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(table=near_valid_tables())
def test_validator_matches_row_by_row_oracle(table):
    assert _outcome(validate_frequency_table, table) == \
        _outcome(oracle_validate_frequency_table, table)


def _built(build, *args):
    """The entries' bytes of a built table, or the message it raised."""
    try:
        table = build(*args)
    except ValueError as exc:
        return str(exc)
    assert table.entries.dtype == np.int64
    return table.entries.tobytes()


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 4), max_norm=st.integers(-1, 4), m=st.integers(0, 3),
       include_zero=st.booleans(), data=st.data())
def test_builder_matches_per_vector_oracle(n, max_norm, m, include_zero, data):
    # every L a table can hold, a few it cannot, and bad n, L, m or max_norm
    top = max(m, 1) * canonical_count(max(n, 1), max(max_norm, 0), include_zero)
    L = data.draw(st.integers(0, top + 3))
    args = (n, L, m, max_norm, include_zero)
    assert _built(build_frequency_table, *args) == \
        _built(oracle_build_frequency_table, *args)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), L=st.integers(1, 200), m=st.integers(1, 3),
       include_zero=st.booleans())
def test_auto_table_matches_per_vector_oracle(n, L, m, include_zero):
    args = (n, L, m, include_zero)
    assert _built(frequency_table_auto, *args) == \
        _built(oracle_frequency_table_auto, *args)


class TestLatticeBound:
    def test_wide_torus_is_refused_by_name_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"n=20, max_norm=1: lattice of 3486784401"):
            frequency_table_auto(20, 8, 1)
        assert time.perf_counter() - start < 1.0

    def test_huge_multiplicity_repeats_one_vector_at_once(self):
        start = time.perf_counter()
        table = frequency_table_auto(2, 8, 2**40)
        assert time.perf_counter() - start < 1.0
        assert table.entries.tolist() == [[0, 0]] * 8
        validate_frequency_table(table)

    def test_largest_accepted_lattice_stays_under_128_mib(self):
        n = 1
        while 3 ** (n + 1) <= LATTICE_POINT_LIMIT:
            n += 1
        with pytest.raises(ValueError, match=f"n={n + 1}, max_norm=1"):
            build_frequency_table(n + 1, 8, 1, 1)
        tracemalloc.start()
        try:
            table = build_frequency_table(n, 128, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        validate_frequency_table(table)
        assert peak < 128 * 2**20


class TestRotateCoeffs:
    def test_zero_angle_is_identity(self):
        ft = build_frequency_table(n=2, L=4, m=1, max_norm=2)
        y = np.random.default_rng(1).standard_normal(8)
        np.testing.assert_array_equal(rotate_coeffs(ft, [0.0, 0.0], y), y)

    def test_quarter_turn(self):
        ft = build_frequency_table(n=1, L=1, m=1, max_norm=1, include_zero=False)
        out = rotate_coeffs(ft, [np.pi / 2], np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_group_law(self):
        ft = build_frequency_table(n=2, L=6, m=1, max_norm=2)
        rng = np.random.default_rng(2)
        for _ in range(100):
            s1 = rng.uniform(0, TWO_PI, 2)
            s2 = rng.uniform(0, TWO_PI, 2)
            y = rng.standard_normal(12)
            lhs = rotate_coeffs(ft, s1, rotate_coeffs(ft, s2, y))
            rhs = rotate_coeffs(ft, s1 + s2, y)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_length_mismatch(self):
        ft = build_frequency_table(n=1, L=2, m=1, max_norm=2)
        with pytest.raises(ValueError):
            rotate_coeffs(ft, [0.0], np.zeros(5))
        with pytest.raises(ValueError):
            rotate_coeffs(ft, [0.0, 0.0], np.zeros(4))


class TestApplyTransform:
    def test_identity_when_square_and_zero_angle(self):
        ft = build_frequency_table(n=1, L=2, m=1, max_norm=2)
        perm = np.eye(4)[:, [2, 0, 3, 1]]
        op = TorusOperator(basis=perm, freq=ft)
        x = np.arange(4.0)
        np.testing.assert_allclose(apply_transform(op, [0.0], x), x, atol=1e-15)

    def test_projection_when_wide(self):
        ft = build_frequency_table(n=1, L=1, m=1, max_norm=1)
        basis = np.eye(6)[:, :2]
        op = TorusOperator(basis=basis, freq=ft)
        x = np.random.default_rng(3).standard_normal(6)
        np.testing.assert_allclose(
            apply_transform(op, [0.0], x), basis @ (basis.T @ x), atol=1e-15
        )

    def test_circular_shift_on_harmonic_basis(self):
        basis, freq = dft_shift_operator()
        op = TorusOperator(basis=basis, freq=freq)
        rng = np.random.default_rng(4)
        x = bandlimit(rng.standard_normal(8))
        for j in range(8):
            shifted = apply_transform(op, [TWO_PI * j / 8], x)
            assert np.abs(shifted - np.roll(x, j)).max() < 1e-10

    def test_norm_never_increases(self):
        ft = build_frequency_table(n=2, L=3, m=1, max_norm=1)
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((10, 6)))
        op = TorusOperator(basis=q, freq=ft)
        for _ in range(25):
            x = rng.standard_normal(10)
            s = rng.uniform(0, TWO_PI, 2)
            assert np.linalg.norm(apply_transform(op, s, x)) <= np.linalg.norm(x) + 1e-12

    def test_isometry_on_span(self):
        ft = build_frequency_table(n=2, L=3, m=1, max_norm=1)
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((10, 6)))
        op = TorusOperator(basis=q, freq=ft)
        for _ in range(25):
            coeff = rng.standard_normal(6)
            x = q @ coeff
            s = rng.uniform(0, TWO_PI, 2)
            assert abs(
                np.linalg.norm(apply_transform(op, s, x)) - np.linalg.norm(x)
            ) < 1e-12

    def test_periodicity(self):
        ft = build_frequency_table(n=2, L=4, m=1, max_norm=2)
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((10, 8)))
        op = TorusOperator(basis=q, freq=ft)
        x = rng.standard_normal(10)
        s = rng.uniform(0, TWO_PI, 2)
        for axis in range(2):
            bumped = s.copy()
            bumped[axis] += TWO_PI
            np.testing.assert_allclose(
                apply_transform(op, bumped, x), apply_transform(op, s, x), atol=1e-12
            )

    def test_dimension_mismatch(self):
        ft = build_frequency_table(n=1, L=2, m=1, max_norm=2)
        op = TorusOperator(basis=np.eye(4), freq=ft)
        with pytest.raises(ValueError):
            apply_transform(op, [0.0], np.zeros(5))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), L=st.integers(1, 6), extra=st.integers(0, 3),
       seed=st.integers(0, 2**16))
def test_random_frequency_tables_keep_group_law_and_isometry(n, L, extra, seed):
    rng = np.random.default_rng(seed)
    freq = FrequencyTable(n=n, entries=rng.integers(-6, 7, (L, n)), multiplicity=L)
    d = 2 * L + 2 * extra
    basis = np.linalg.qr(rng.standard_normal((d, 2 * L)))[0]
    op = TorusOperator(basis=basis, freq=freq)
    s, t = rng.uniform(0, TWO_PI, (2, n))
    y = rng.standard_normal(2 * L)
    np.testing.assert_allclose(rotate_coeffs(freq, s, rotate_coeffs(freq, t, y)),
                               rotate_coeffs(freq, s + t, y), rtol=0, atol=1e-10)
    x = rng.standard_normal(d)
    np.testing.assert_allclose(apply_transform(op, s, apply_transform(op, t, x)),
                               apply_transform(op, s + t, x), rtol=0, atol=1e-10)
    # on the span of the basis the transform keeps every inner product
    a, b = basis @ y, basis @ rng.standard_normal(2 * L)
    moved_a, moved_b = apply_transform(op, s, a), apply_transform(op, s, b)
    assert abs(moved_a @ moved_b - a @ b) < 1e-10 * (1 + np.linalg.norm(a) * np.linalg.norm(b))
    assert abs(np.linalg.norm(moved_a) - np.linalg.norm(a)) < 1e-10 * (1 + np.linalg.norm(a))


class TestOperatorValidation:
    def test_rejects_non_orthonormal(self):
        ft = build_frequency_table(n=1, L=2, m=1, max_norm=2)
        with pytest.raises(ValueError, match="orthonormal"):
            TorusOperator(basis=np.eye(4) * 1.01, freq=ft)

    def test_rejects_odd_dimension(self):
        ft = build_frequency_table(n=1, L=1, m=1, max_norm=1)
        with pytest.raises(ValueError, match="even"):
            TorusOperator(basis=np.eye(5)[:, :2], freq=ft)

    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_rejects_basis_of_another_width_by_name(self, width):
        ft = build_frequency_table(n=1, L=3, m=1, max_norm=3)
        with pytest.raises(ValueError) as info:
            TorusOperator(basis=np.eye(8, width), freq=ft)
        assert str(info.value) == f"basis width {width} != 2L = 6"

    def test_rejects_wide_basis(self):
        ft = build_frequency_table(n=1, L=3, m=1, max_norm=3)
        q = np.vstack([np.eye(4), np.zeros((0, 4))])
        with pytest.raises(ValueError):
            TorusOperator(basis=np.eye(4, 6), freq=ft)


def test_wrap_angles():
    np.testing.assert_allclose(wrap_angles([TWO_PI + 0.5, -0.5]), [0.5, TWO_PI - 0.5])
    assert (wrap_angles(np.linspace(-10, 10, 41)) >= 0).all()
    assert (wrap_angles(np.linspace(-10, 10, 41)) < TWO_PI).all()
