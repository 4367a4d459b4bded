"""Tests for norms, duality, thresholds, and the spherical cap law.

Reference values are closed forms frozen in the assertions: the arcsine law
at d = 2, the identity at d = 3, and B(1/2, (d-1)/2) at d = 2, 3, 4.  The
incomplete beta itself comes from ``scipy.special`` and is not re-tested
here; these tests check how the cap law uses it.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floorlsh.lpspace import (
    SQRT3,
    beta_function_half,
    beta_lower_bound_margin,
    cap_probability,
    check_exponent,
    cube_c_threshold,
    cube_scale,
    distance_error,
    dual_exponent,
    lp_distances,
    lp_norm,
    rounding_gamma,
    norm_sandwich_factor,
    sign_c_threshold,
    sphere_c_threshold,
    sphere_scale,
)

EXPONENTS = st.one_of(
    st.floats(min_value=1.0, max_value=64.0), st.just(math.inf)
)
VECTORS = st.lists(
    st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=24
).map(np.array)


class TestCheckExponent:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2, 17.0, math.inf])
    def test_accepts_valid(self, p):
        assert check_exponent(p) == float(p)

    @pytest.mark.parametrize("p", [0.0, 0.5, -1.0, math.nan, -math.inf])
    def test_rejects_invalid(self, p):
        with pytest.raises(ValueError):
            check_exponent(p)


class TestLpNorm:
    def test_hand_values(self):
        z = np.array([3.0, -4.0])
        assert lp_norm(z, 1) == 7.0
        assert lp_norm(z, 2) == 5.0
        assert lp_norm(z, math.inf) == 4.0

    def test_general_formula_matches_specializations(self):
        z = np.array([0.3, -1.7, 2.2, -0.1])
        for p in (1.0, 2.0):
            general = float((np.abs(z) ** p).sum() ** (1.0 / p))
            assert lp_norm(z, p) == pytest.approx(general, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(np.array([]), 2)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("magnitude", [1e200, 1e-170])
    def test_extreme_magnitudes_neither_overflow_nor_underflow(self, p, magnitude):
        """The squares of 1e200 overflow and those of 1e-170 underflow; the
        norm of (3m, 4m) is still exact to rounding."""
        z = np.array([3.0, -4.0]) * magnitude
        expected = {1.0: 7.0, 2.0: 5.0, 3.0: 91.0 ** (1 / 3), math.inf: 4.0}[p]
        assert lp_norm(z, p) == pytest.approx(expected * magnitude, rel=1e-14, abs=0.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e150, max_value=1e150),
                st.floats(min_value=-1e150, max_value=1e150),
            ),
            min_size=1,
            max_size=70,
        ),
        st.sampled_from([1.0, 1e-160, 1e150]),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    )
    @example([(0.0, 5e-324), (0.0, 5e-324)], 1.0, 2.0)
    @example([(0.4, -7.8), (-2.9, -2.6)], 1.0, 1.5)
    @example([(-3.8, 6.5), (20.4, 6.6)], 1.0, 3.0)
    @settings(deadline=None, max_examples=300)
    def test_lp_norm_of_a_difference_is_the_distance_bit_for_bit(self, pairs, magnitude, p):
        """lp_norm(x - y, p) is lp_distances' value for the row x, bit for
        bit, at every p: on the fast paths and on the rescaled one
        (``magnitude`` pushes the p = 2 squares past under- and overflow)."""
        x, y = (np.array(column) * magnitude for column in zip(*pairs))
        assert lp_norm(x - y, p) == lp_distances(x[None, :], y, p)[0]

    @given(VECTORS, EXPONENTS)
    @settings(deadline=2000)
    def test_nonincreasing_in_p(self, z, p):
        assert lp_norm(z, p) >= lp_norm(z, math.inf) - 1e-9 * (1 + lp_norm(z, p))

    @given(VECTORS, VECTORS, EXPONENTS)
    @settings(deadline=2000)
    def test_triangle_inequality(self, x, y, p):
        size = min(len(x), len(y))
        x, y = x[:size], y[:size]
        lhs = lp_norm(x + y, p)
        rhs = lp_norm(x, p) + lp_norm(y, p)
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)

    @given(VECTORS, EXPONENTS, st.floats(min_value=0.0, max_value=100.0))
    @settings(deadline=2000)
    def test_homogeneity(self, z, p, t):
        assert lp_norm(t * z, p) == pytest.approx(t * lp_norm(z, p), rel=1e-9, abs=1e-9)


_POINTS = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
_ORIGIN = np.zeros(2)


def _reference_distance(row, query, p):
    """The l_p distance in plain Python: the largest difference factored out
    of an exactly rounded sum of p-th powers."""
    diffs = [abs(a - b) for a, b in zip(row.tolist(), query.tolist())]
    peak = max(diffs)
    if math.isinf(p) or peak == 0.0:
        return peak
    return peak * math.fsum((t / peak) ** p for t in diffs) ** (1.0 / p)


class TestLpDistances:
    def test_hand_worked_values(self):
        np.testing.assert_allclose(lp_distances(_POINTS, _ORIGIN, 2.0), [0.0, 5.0, 10.0])
        np.testing.assert_allclose(lp_distances(_POINTS, _ORIGIN, 1.0), [0.0, 7.0, 14.0])
        np.testing.assert_allclose(lp_distances(_POINTS, _ORIGIN, math.inf), [0.0, 4.0, 8.0])

    @given(
        st.sampled_from([1.0, 2.0, 2.5, 4.0, math.inf]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(deadline=2000, max_examples=40)
    def test_rowwise_scan_matches_the_norm(self, p, seed):
        """The vectorized specializations agree with a plain-Python sum."""
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((12, 5)) * 3.0
        query = rng.standard_normal(5)
        got = lp_distances(points, query, p)
        expected = [_reference_distance(row, query, p) for row in points]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    @given(
        st.sampled_from([1.0, 1.5, 3.0, math.inf]),
        st.sampled_from([8, 64, 200]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(deadline=None, max_examples=40)
    def test_distances_do_not_depend_on_the_layout_of_points(self, p, d, seed):
        """Each row's distance is the same to the last bit whether the points
        come C-ordered, Fortran-ordered or one row at a time: the sums run
        over C-ordered differences."""
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((60, d))
        query = rng.standard_normal(d)
        expected = lp_distances(points, query, p)
        np.testing.assert_array_equal(lp_distances(np.asfortranarray(points), query, p), expected)
        for row, distance in zip(points[:5], expected):
            assert lp_distances(row[None, :], query, p)[0] == distance

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    def test_a_row_with_an_infinite_coordinate_is_infinitely_far(self, p):
        points = np.array([[math.inf, 1.0], [1.0, -math.inf], [0.0, 0.0]])
        assert lp_distances(points, _ORIGIN, p).tolist() == [math.inf, math.inf, 0.0]
        assert lp_norm(points[0], p) == math.inf

    @pytest.mark.parametrize("magnitude", [1e200, 1e-170])
    def test_euclidean_rows_neither_overflow_nor_underflow(self, magnitude):
        """Squares of 1e200 overflow and those of 1e-170 underflow."""
        got = lp_distances(_POINTS * magnitude, _ORIGIN, 2.0)
        np.testing.assert_allclose(got, [0.0, 5.0 * magnitude, 10.0 * magnitude], rtol=1e-15, atol=0.0)

    @given(
        st.floats(min_value=1.0, max_value=2000.0),
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(deadline=2000, max_examples=60)
    def test_large_exponents_and_extreme_magnitudes(self, p, exponent, seed):
        """|diff|^p neither underflows nor overflows: every row matches the
        rescaled plain-Python sum, and a row equal to the query gives 0."""
        rng = np.random.default_rng(seed)
        query = rng.standard_normal(4) * 10.0**exponent
        points = np.vstack([query, query + rng.uniform(-1.0, 1.0, (8, 4)) * 10.0**exponent])
        got = lp_distances(points, query, p)
        expected = [_reference_distance(row, query, p) for row in points]
        assert got[0] == 0.0
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestDualExponent:
    @pytest.mark.parametrize(
        "p,q", [(1.0, math.inf), (math.inf, 1.0), (2.0, 2.0), (4.0, 4.0 / 3.0)]
    )
    def test_hand_values(self, p, q):
        assert dual_exponent(p) == pytest.approx(q)

    @given(EXPONENTS)
    @settings(deadline=1000)
    def test_involution(self, p):
        assert dual_exponent(dual_exponent(p)) == pytest.approx(p, rel=1e-12)

    @given(EXPONENTS)
    @settings(deadline=1000)
    def test_holder_sum(self, p):
        q = dual_exponent(p)
        if math.isinf(p) or math.isinf(q):
            assert min(p, q) == 1.0
        else:
            assert 1.0 / p + 1.0 / q == pytest.approx(1.0, rel=1e-12)


class TestNormSandwich:
    def test_hand_value(self):
        """||(1,1,1,1)||_1 = 4 and ||.||_2 = 2: the l_1 side gives 4 / 2 = 2
        below, and the dual (l_inf) factor 1 gives 4 above."""
        z = np.ones(4)
        norm_1 = lp_norm(z, 1.0)
        assert norm_1 * norm_sandwich_factor(1.0, 4) == pytest.approx(2.0)
        assert lp_norm(z, 2.0) == pytest.approx(2.0)
        assert norm_1 / norm_sandwich_factor(math.inf, 4) == pytest.approx(4.0)

    def test_factor_values(self):
        assert norm_sandwich_factor(2.0, 9) == 1.0
        assert norm_sandwich_factor(1.0, 9) == pytest.approx(9 ** (-0.5))
        assert norm_sandwich_factor(math.inf, 9) == 1.0
        assert norm_sandwich_factor(4.0, 16) == 1.0
        assert norm_sandwich_factor(1.5, 8) == pytest.approx(8 ** (0.5 - 1 / 1.5))

    @given(VECTORS, EXPONENTS)
    @settings(deadline=2000)
    def test_sandwich_holds_for_nonzero(self, z, p):
        """The comparison inequality that sphere_scale relies on:
        ||z||_p * factor(p) <= ||z||_2 <= ||z||_p / factor(dual of p)."""
        norm_2 = lp_norm(z, 2.0)
        if norm_2 == 0.0:
            return
        norm_p = lp_norm(z, p)
        slack = 1e-9 * norm_2
        assert norm_p * norm_sandwich_factor(p, z.size) <= norm_2 + slack
        assert norm_2 <= norm_p / norm_sandwich_factor(dual_exponent(p), z.size) + slack


class TestScalesAndThresholds:
    def test_cube_scale(self):
        assert cube_scale(2.0, 4) == pytest.approx(4 ** (-0.5))
        assert cube_scale(1.0, 4) == pytest.approx(1.0)
        assert cube_scale(math.inf, 4) == pytest.approx(0.25)

    def test_sphere_scale(self):
        # scale is the sandwich factor of the dual exponent
        assert sphere_scale(2.0, 4) == 1.0
        assert sphere_scale(math.inf, 9) == pytest.approx(9 ** (-0.5))
        assert sphere_scale(1.0, 9) == 1.0

    def test_threshold_hand_values(self):
        assert cube_c_threshold(2.0, 4) == pytest.approx(8 * SQRT3)
        assert cube_c_threshold(1.0, 4) == pytest.approx(8 * SQRT3)
        assert cube_c_threshold(math.inf, 4) == pytest.approx(16 * SQRT3)
        assert sphere_c_threshold(2.0, 4) == pytest.approx(4.0)
        assert sphere_c_threshold(math.inf, 4) == pytest.approx(8.0)
        assert sign_c_threshold(2.0, 4) == pytest.approx(math.sqrt(8) * 2)
        assert sign_c_threshold(math.inf, 4) == pytest.approx(math.sqrt(8) * 4)

    @given(EXPONENTS, st.integers(min_value=1, max_value=4096))
    @settings(deadline=2000)
    def test_thresholds_positive_and_growing(self, p, d):
        for threshold in (cube_c_threshold, sphere_c_threshold, sign_c_threshold):
            assert threshold(p, d) > 0.0
            assert threshold(p, 4 * d) > threshold(p, d)


class TestBetaFunctionHalf:
    def test_closed_forms(self):
        assert beta_function_half(2) == pytest.approx(math.pi, rel=1e-14)
        assert beta_function_half(3) == pytest.approx(2.0, rel=1e-14)
        assert beta_function_half(4) == pytest.approx(math.pi / 2.0, rel=1e-14)


class TestCapProbability:
    def test_d3_is_identity(self):
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert cap_probability(alpha, 3) == pytest.approx(alpha, abs=1e-12)

    def test_d2_is_arcsine(self):
        for alpha in (0.1, 0.5, 0.9):
            assert cap_probability(alpha, 2) == pytest.approx(
                (2.0 / math.pi) * math.asin(alpha), abs=1e-12
            )
        assert cap_probability(0.1, 2) == pytest.approx(
            0.06376856085851985, abs=1e-14
        )

    def test_endpoints(self):
        for d in (2, 3, 10, 100):
            assert cap_probability(0.0, d) == 0.0
            assert cap_probability(1.0, d) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_alpha(self):
        grid = np.linspace(0.0, 1.0, 101)
        for d in (2, 3, 7, 64):
            values = [cap_probability(a, d) for a in grid]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_concave_above_d2_convex_at_d2(self):
        grid = np.linspace(0.0, 1.0, 101)
        for d in (3, 5, 16, 64):
            values = np.array([cap_probability(a, d) for a in grid])
            second = values[2:] - 2.0 * values[1:-1] + values[:-2]
            assert np.all(second <= 1e-8)
        values = np.array([cap_probability(a, 2) for a in grid])
        second = values[2:] - 2.0 * values[1:-1] + values[:-2]
        assert np.all(second >= -1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cap_probability(-0.1, 3)
        with pytest.raises(ValueError):
            cap_probability(1.1, 3)
        with pytest.raises(ValueError):
            cap_probability(0.5, 1)


class TestBetaLowerBoundMargin:
    def test_hand_values(self):
        assert beta_lower_bound_margin(2) == pytest.approx(
            math.pi / math.sqrt(2.0) - math.sqrt(2.0), rel=1e-12
        )
        assert beta_lower_bound_margin(3) == pytest.approx(
            math.sqrt(3.0) - 1.0, rel=1e-12
        )

    def test_nonnegative_on_sample(self):
        for d in (2, 3, 4, 10, 100, 999, 5000):
            assert beta_lower_bound_margin(d) >= 0.0


class TestRoundingModel:
    def test_gamma_is_n_roundings(self):
        u = 2.0**-53
        assert rounding_gamma(1) == u / (1.0 - u)
        assert rounding_gamma(10) == pytest.approx(10 * u, rel=1e-12)
        assert distance_error(8) == rounding_gamma(24)

    @given(
        st.sampled_from([1.0, 2.0, 3.0, math.inf]),
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=48),
    )
    @example(2.0, [0.0, 0.0, 5e-324, 5e-324])
    @settings(deadline=None, max_examples=200)
    def test_exact_distance_is_within_delta_of_the_computed_one(self, p, values):
        """In rational arithmetic, ||x - y||_p <= (1 + delta) * computed, for
        lp_distances and for lp_norm, plus 2^-1074 where the computed value
        is below 2^-1022 (the example: 2^-1074 * sqrt(2) computes as
        2^-1074); integer p compares p-th powers."""
        d = len(values) // 2
        x, y = np.array(values[:d]), np.array(values[d : 2 * d])
        bound = 1 + Fraction(distance_error(d))
        diffs = [abs(Fraction(a) - Fraction(b)) for a, b in zip(x.tolist(), y.tolist())]
        for computed in (lp_distances(x[None, :], y, p)[0], lp_norm(x - y, p)):
            top = Fraction(computed) * bound
            if computed < 2.0**-1022:
                top += Fraction(2) ** -1074
            if math.isinf(p):
                assert max(diffs) <= top
            else:
                assert sum(t ** int(p) for t in diffs) <= top ** int(p)
