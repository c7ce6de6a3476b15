"""Series arithmetic against by-hand expansions and counting oracles."""

import pytest
from hypothesis import given, strategies as st

from k3count.qseries import (
    NonInvertibleError,
    TruncatedSeries,
    euler_product,
    series_inv,
    series_mul,
    series_one,
    yau_zaslow_coefficients,
)

from oracles import (
    colored_partition_counts,
    euler_power,
    partition_numbers,
    pentagonal_series,
)


def S(*coeffs):
    return TruncatedSeries(tuple(coeffs))


small_series = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=8
).map(lambda cs: TruncatedSeries(tuple(cs)))

unit_series = st.tuples(
    st.sampled_from((1, -1)),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=7),
).map(lambda t: TruncatedSeries((t[0],) + tuple(t[1])))


class TestSeriesOne:
    def test_coefficients(self):
        assert series_one(3).coeffs == (1, 0, 0)

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            series_one(0)

    @given(small_series)
    def test_neutral_element(self, x):
        assert series_mul(series_one(x.order), x) == x
        assert series_mul(x, series_one(x.order)) == x

    def test_inverse_of_one(self):
        assert series_inv(series_one(4)) == S(1, 0, 0, 0)


class TestSeriesMul:
    def test_geometric_telescope(self):
        assert series_mul(S(1, -1, 0, 0), S(1, 1, 1, 1)).coeffs == (1, 0, 0, 0)

    def test_binomial_square(self):
        one_plus_q = S(1, 1, 0)
        assert series_mul(one_plus_q, one_plus_q).coeffs == (1, 2, 1)

    def test_two_euler_factors(self):
        # (1-q)(1-q^2) expanded by hand
        assert series_mul(S(1, -1, 0, 0), S(1, 0, -1, 0)).coeffs == (1, -1, -1, 1)

    def test_truncates_to_smaller_order(self):
        product = series_mul(S(1, 2, 3, 4, 5), S(1, 1))
        assert product.order == 2
        assert product.coeffs == (1, 3)

    @given(small_series, small_series)
    def test_commutative(self, a, b):
        assert series_mul(a, b) == series_mul(b, a)

    @given(small_series, small_series, small_series)
    def test_associative_at_fixed_order(self, a, b, c):
        order = min(a.order, b.order, c.order)
        left = series_mul(series_mul(a, b), c)
        right = series_mul(a, series_mul(b, c))
        assert left.coeffs[:order] == right.coeffs[:order]


class TestSeriesInv:
    def test_geometric_series(self):
        assert series_inv(S(1, -1, 0, 0)).coeffs == (1, 1, 1, 1)

    def test_one_inverts_to_one(self):
        assert series_inv(S(1, 0, 0)).coeffs == (1, 0, 0)

    def test_euler_inverse_counts_partitions(self):
        inv = series_inv(euler_product(1, 6))
        assert list(inv.coeffs) == partition_numbers(5) == [1, 1, 2, 3, 5, 7]

    def test_non_unit_constant_rejected(self):
        with pytest.raises(NonInvertibleError):
            series_inv(S(2, 1, 1))
        with pytest.raises(NonInvertibleError):
            series_inv(S(0, 1))

    @given(unit_series)
    def test_inverse_law(self, a):
        assert series_mul(a, series_inv(a)) == series_one(a.order)


class TestEulerProduct:
    def test_single_power_matches_pentagonal_numbers(self):
        assert list(euler_product(1, 6).coeffs) == [1, -1, -1, 0, 0, 1]
        assert list(euler_product(1, 40).coeffs) == pentagonal_series(40)
        # pentagonal_series rests on the same theorem as euler_product, so
        # also compare with the product of the factors (1 - q^n) themselves
        assert list(euler_product(1, 60).coeffs) == euler_power(1, 60)

    def test_zero_exponent(self):
        assert euler_product(0, 4) == series_one(4)

    def test_negative_exponent_counts_partitions(self):
        assert list(euler_product(-1, 6).coeffs) == [1, 1, 2, 3, 5, 7]

    @pytest.mark.parametrize("order", [1, 2, 30, 80])
    @pytest.mark.parametrize("exponent", [-24, -7, -1, 0, 1, 2, 5, 24])
    def test_matches_factor_by_factor_oracle(self, exponent, order):
        assert list(euler_product(exponent, order).coeffs) == euler_power(exponent, order)

    @given(
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=-6, max_value=6),
        st.integers(min_value=1, max_value=12),
    )
    def test_exponent_additivity(self, j, k, order):
        combined = euler_product(j + k, order)
        split = series_mul(euler_product(j, order), euler_product(k, order))
        assert combined == split


class TestYauZaslowCoefficients:
    def test_first_values(self):
        assert yau_zaslow_coefficients(3) == [1, 24, 324, 3200]

    def test_matches_colored_partition_oracle(self):
        assert yau_zaslow_coefficients(200) == colored_partition_counts(200)

    def test_positivity(self):
        assert all(e > 0 for e in yau_zaslow_coefficients(30))

    def test_negative_gmax_rejected(self):
        with pytest.raises(ValueError):
            yau_zaslow_coefficients(-1)

    def test_coefficients_are_exact_ints(self):
        assert all(isinstance(e, int) for e in yau_zaslow_coefficients(40))


class TestTruncatedSeries:
    def test_requires_constant_term(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="coefficients must be ints, got float"):
            TruncatedSeries((1.0, 2))

    def test_bool_coefficients_are_stored_as_ints(self):
        series = TruncatedSeries((True, 2))
        assert type(series[0]) is int
        assert repr(series) == "TruncatedSeries([1, 2])"

    def test_order_is_length(self):
        assert S(1, 2, 3).order == 3
