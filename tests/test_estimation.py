"""Tests for the Monte Carlo estimators and their result records."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from floorlsh.estimation import (
    BOUND_COLUMNS,
    CONJECTURE_COLUMNS,
    AntiConcEstimate,
    FarPairShape,
    clopper_pearson,
    conjecture_probe,
    estimate_false_positive_rate,
    false_positive_record,
    far_pair,
    levy_concentration,
    small_ball_curve,
    small_ball_record,
    theoretical_q_bound,
    unit_direction,
)
from floorlsh.families import SQRT3, FamilyKind, false_positive_bound, small_ball_bound
from floorlsh.lpspace import cap_probability, lp_norm


class TestClopperPearson:
    def test_extreme_counts_match_closed_forms(self):
        """hits = 0 and hits = n have closed-form Beta quantiles."""
        for n in (1, 10, 250):
            lo, hi = clopper_pearson(0, n)
            assert lo == 0.0
            assert hi == pytest.approx(1.0 - 0.005 ** (1.0 / n), rel=1e-10)
            lo, hi = clopper_pearson(n, n)
            assert hi == 1.0
            assert lo == pytest.approx(0.005 ** (1.0 / n), rel=1e-10)

    def test_interior_count_solves_the_defining_equations(self):
        """The 99% limits put exactly 0.5% tail mass on each side.

        For hits successes out of trials, the lower limit lo satisfies
        I_lo(hits, trials - hits + 1) = 0.005 and the upper limit hi
        satisfies I_hi(hits + 1, trials - hits) = 0.995.
        """
        lo, hi = clopper_pearson(17, 100)
        assert lo == pytest.approx(0.08594725992390392, rel=1e-12)
        assert hi == pytest.approx(0.28675950576026876, rel=1e-12)
        assert special.betainc(17, 84, lo) == pytest.approx(0.005, abs=1e-9)
        assert special.betainc(18, 83, hi) == pytest.approx(0.995, abs=1e-9)

    def test_ends_equal_the_beta_distribution_quantiles(self):
        """The ends are exactly scipy.stats.beta's quantiles, so intervals
        (and every verdict drawn from them) match the ones computed through
        the distribution object, bit for bit."""
        tail = (1.0 - 0.99) / 2.0
        rng = np.random.default_rng(6)
        cells = [(hits, trials) for trials in range(1, 61) for hits in range(trials + 1)]
        for trials in (1_000, 100_000, 200_000):
            sampled = rng.integers(0, trials + 1, size=200)
            cells += [(int(hits), trials) for hits in (0, 1, trials - 1, trials, *sampled)]
        for hits, trials in cells:
            lo = 0.0 if hits == 0 else stats.beta.ppf(tail, hits, trials - hits + 1)
            hi = 1.0 if hits == trials else stats.beta.ppf(1.0 - tail, hits + 1, trials - hits)
            assert clopper_pearson(hits, trials) == (lo, hi), (hits, trials)

    @given(st.integers(min_value=1, max_value=400), st.data())
    @settings(deadline=2000, max_examples=40)
    def test_interval_brackets_the_point_estimate(self, trials, data):
        hits = data.draw(st.integers(min_value=0, max_value=trials))
        lo, hi = clopper_pearson(hits, trials)
        assert 0.0 <= lo <= hits / trials <= hi <= 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            clopper_pearson(0, 0)
        with pytest.raises(ValueError):
            clopper_pearson(-1, 10)
        with pytest.raises(ValueError):
            clopper_pearson(11, 10)
        with pytest.raises(ValueError):
            clopper_pearson(5, 10, confidence=1.0)


class TestSmallBallBound:
    def test_closed_forms(self):
        assert small_ball_bound(FamilyKind.UNIFORM_CUBE, 0.25, 7, 2.0) == pytest.approx(
            2.0 * SQRT3 * 0.25 / 2.0
        )
        assert small_ball_bound(FamilyKind.UNIT_SPHERE, 0.1, 16, 0.5) == pytest.approx(
            0.1 * 4.0 / 0.5
        )

    def test_families_without_a_bound_return_none(self):
        assert small_ball_bound(FamilyKind.RADEMACHER, 0.1, 4, 1.0) is None
        assert small_ball_bound(FamilyKind.LQ_SPHERE_EXPERIMENTAL, 0.1, 4, 1.0) is None

    def test_rejects_degenerate_point(self):
        with pytest.raises(ValueError):
            small_ball_bound(FamilyKind.UNIFORM_CUBE, 0.1, 4, 0.0)

    @pytest.mark.parametrize("norm", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("kind", [FamilyKind.UNIFORM_CUBE, FamilyKind.UNIT_SPHERE])
    def test_rejects_a_norm_that_is_not_positive_and_finite(self, kind, norm):
        with pytest.raises(ValueError, match="nonzero finite norm"):
            small_ball_bound(kind, 0.1, 4, norm)


class TestSmallBallCurve:
    def test_coupled_grid_is_monotone_and_consistent(self):
        """One pool serves every threshold, so hit counts never decrease."""
        x = np.array([0.3, -1.2, 0.7, 0.05, 2.0, -0.4])
        alphas = [0.0, 0.05, 0.2, 0.2, 0.8, 3.0]
        curve = small_ball_curve(FamilyKind.UNIFORM_CUBE, 6, x, alphas, 4000, 11)
        assert [e.alpha for e in curve] == alphas
        hit_counts = [e.hits for e in curve]
        assert hit_counts == sorted(hit_counts)
        assert curve[0].hits == 0
        for e in curve:
            assert e.trials == 4000
            assert e.p_hat == e.hits / 4000
            assert e.ci_low <= e.p_hat <= e.ci_high
            assert e.bound == small_ball_bound(
                FamilyKind.UNIFORM_CUBE, e.alpha, 6, lp_norm(x, 2.0)
            )

    def test_large_threshold_is_vacuous(self):
        x = np.ones(4)
        est = small_ball_curve(FamilyKind.UNIFORM_CUBE, 4, x, [50.0], 100, 3)[0]
        assert est.vacuous
        assert not est.violated

    def test_rejects_bad_arguments(self):
        x = np.ones(4)
        with pytest.raises(ValueError):
            small_ball_curve(FamilyKind.UNIFORM_CUBE, 5, x, [0.1], 100, 0)
        with pytest.raises(ValueError):
            small_ball_curve(FamilyKind.UNIFORM_CUBE, 4, x, [-0.1], 100, 0)
        with pytest.raises(ValueError):
            small_ball_curve(FamilyKind.UNIFORM_CUBE, 4, x, [0.1], 0, 0)
        with pytest.raises(ValueError):
            small_ball_curve(FamilyKind.UNIFORM_CUBE, 4, np.zeros(4), [0.1], 100, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_point_that_is_not_finite(self, value):
        """At a NaN the bound would be NaN, which no estimate violates."""
        x = np.ones(4)
        x[2] = value
        with pytest.raises(ValueError, match="must have finite coordinates"):
            small_ball_curve(FamilyKind.UNIFORM_CUBE, 4, x, [0.1], 100, 0)


class TestEstimateVerdicts:
    """The vacuous / violated flags are pure functions of the fields."""

    def _estimate(self, ci_low, bound):
        return AntiConcEstimate(
            kind=FamilyKind.UNIFORM_CUBE,
            d=4,
            x=np.ones(4),
            alpha=0.1,
            trials=100,
            hits=50,
            p_hat=0.5,
            ci_low=ci_low,
            ci_high=0.9,
            bound=bound,
        )

    def test_missing_or_trivial_bound_is_vacuous(self):
        assert self._estimate(0.4, None).vacuous
        assert self._estimate(0.4, 1.5).vacuous
        assert not self._estimate(0.4, 0.5).vacuous

    def test_violation_requires_the_confidence_limit_to_clear_the_bound(self):
        assert self._estimate(0.6, 0.5).violated
        assert not self._estimate(0.4, 0.5).violated
        assert not self._estimate(0.6, None).violated
        assert not self._estimate(0.6, 1.5).violated


class TestLevyConcentration:
    def test_hand_worked_values(self):
        assert levy_concentration(np.array([0.0, 0.0, 0.0, 5.0, 9.0]), 1.0) == 0.6
        assert levy_concentration(np.array([1.0, 2.0, 3.0, 4.0]), 0.0) == 0.25
        assert levy_concentration(np.array([2.0, 2.0, 7.0]), 0.0) == pytest.approx(2 / 3)

    @given(
        st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
    )
    @settings(deadline=2000, max_examples=80)
    def test_monotone_in_window_length(self, values, lam, extra):
        samples = np.array(values)
        assert levy_concentration(samples, lam) <= levy_concentration(samples, lam + extra)

    @given(
        st.lists(
            st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    @settings(deadline=2000, max_examples=80)
    def test_dominates_the_largest_point_mass(self, values, lam):
        samples = np.array(values)
        _, counts = np.unique(samples, return_counts=True)
        assert levy_concentration(samples, lam) >= counts.max() / samples.size

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=30),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=-1000, max_value=1000),
    )
    @settings(deadline=2000, max_examples=80)
    def test_translation_invariance(self, values, quarter_lam, shift):
        """Shifting every sample leaves the window statistic unchanged.

        Samples, shifts, and window lengths are all quarter-integers so
        every sum is exact in floating point.
        """
        samples = np.array(values, dtype=np.float64)
        lam = quarter_lam / 4.0
        assert levy_concentration(samples + shift, lam) == levy_concentration(samples, lam)

    def test_wide_window_captures_everything(self):
        samples = np.array([-3.0, 0.0, 4.5])
        assert levy_concentration(samples, 10.0) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            levy_concentration(np.array([]), 1.0)
        with pytest.raises(ValueError):
            levy_concentration(np.array([1.0]), -0.5)


class TestTheoreticalQBound:
    def test_hand_worked_value(self):
        got = theoretical_q_bound((1 / 3, 1 / 3, 1 / 3), 0.5)
        assert got == pytest.approx(0.4948716593053935, rel=1e-12)

    def test_zero_window_gives_zero(self):
        assert theoretical_q_bound([0.25, 0.5], 0.0) == 0.0

    def test_can_exceed_one_for_tiny_variance(self):
        assert theoretical_q_bound([1e-8], 1.0) > 1.0

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8),
        st.floats(min_value=1e-6, max_value=10.0),
    )
    @settings(deadline=2000, max_examples=60)
    def test_never_exceeds_window_over_its_own_slack(self, variances, lam):
        """Even with zero variance the lam^2/12 term caps the ratio."""
        assert theoretical_q_bound(variances, lam) <= lam / math.sqrt(lam * lam / 12.0) + 1e-9

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            theoretical_q_bound([-0.1], 1.0)
        with pytest.raises(ValueError):
            theoretical_q_bound([0.1], -1.0)


class TestUnitDirection:
    def test_axis_profile_is_a_standard_basis_vector(self):
        for p in (1.0, 2.0, math.inf):
            z = unit_direction(FarPairShape.AXIS, p, 5)
            assert z[0] == 1.0
            assert np.all(z[1:] == 0.0)

    def test_flat_profile_spreads_mass_evenly(self):
        z = unit_direction(FarPairShape.FLAT, 1.0, 4)
        np.testing.assert_allclose(z, 0.25)
        z = unit_direction(FarPairShape.FLAT, math.inf, 4)
        np.testing.assert_allclose(z, 1.0)

    def test_two_coordinate_profile(self):
        z = unit_direction(FarPairShape.TWO_COORDINATE, 2.0, 5)
        np.testing.assert_allclose(z[:2], 1.0 / math.sqrt(2.0))
        assert np.all(z[2:] == 0.0)
        z = unit_direction(FarPairShape.TWO_COORDINATE, 1.0, 3)
        np.testing.assert_allclose(z[:2], 0.5)

    @given(
        st.sampled_from(list(FarPairShape)),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
        st.integers(min_value=2, max_value=64),
    )
    @settings(deadline=2000, max_examples=60)
    def test_profiles_have_unit_norm(self, shape, p, d):
        assert lp_norm(unit_direction(shape, p, d), p) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_impossible_requests(self):
        with pytest.raises(ValueError):
            unit_direction(FarPairShape.TWO_COORDINATE, 2.0, 1)
        with pytest.raises(ValueError):
            unit_direction("bogus", 2.0, 4)


class TestFarPair:
    @given(
        st.sampled_from(list(FarPairShape)),
        st.sampled_from([1.0, 2.0, 4.0, math.inf]),
        st.floats(min_value=0.5, max_value=50.0),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(deadline=2000, max_examples=60)
    def test_separation_is_realized(self, shape, p, norm, seed):
        x, y = far_pair(shape, p, 9, norm, seed)
        assert lp_norm(x - y, p) == pytest.approx(norm, rel=1e-12)

    def test_pair_is_off_origin_and_seed_dependent(self):
        x1, y1 = far_pair(FarPairShape.AXIS, 2.0, 6, 1.0, 0)
        x2, y2 = far_pair(FarPairShape.AXIS, 2.0, 6, 1.0, 1)
        assert lp_norm(y1, 2.0) > 0.0
        assert not np.array_equal(y1, y2)
        x1b, y1b = far_pair(FarPairShape.AXIS, 2.0, 6, 1.0, 0)
        np.testing.assert_array_equal(x1, x1b)
        np.testing.assert_array_equal(y1, y1b)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(ValueError):
            far_pair(FarPairShape.AXIS, 2.0, 4, 0.0, 0)


class TestFalsePositiveEstimate:
    def test_exact_event_never_fires_without_the_dominating_one(self):
        """Coupled sampling makes |floor(s_x) - floor(s_y)| <= 1 a subset
        of |s_x - s_y| <= 2, so the counts are ordered pointwise."""
        for kind in (
            FamilyKind.UNIFORM_CUBE,
            FamilyKind.UNIT_SPHERE,
            FamilyKind.RADEMACHER,
        ):
            threshold = false_positive_bound(kind, 2.0, 8, 1.0)[1]
            c = 3.0 * threshold
            est = estimate_false_positive_rate(kind, 2.0, 8, c, 4000, 5)
            assert est.hits <= est.dominating_hits
            assert est.bound == false_positive_bound(kind, 2.0, 8, c)[0]
            assert est.ci_low <= est.p_fp_hat <= est.ci_high
            assert est.pair_distance > c
            assert not est.vacuous

    def test_factor_below_threshold_warns_and_leaves_bound_vacuous(self):
        for kind in (FamilyKind.UNIFORM_CUBE, FamilyKind.RADEMACHER):
            threshold = false_positive_bound(kind, 2.0, 8, 1.0)[1]
            with pytest.warns(UserWarning):
                est = estimate_false_positive_rate(kind, 2.0, 8, threshold / 2.0, 500, 5)
            assert est.vacuous
            assert not est.violated

    def test_explicit_pair_overrides_the_generated_one(self):
        x = np.zeros(6)
        x[0] = 130.0
        y = np.zeros(6)
        est = estimate_false_positive_rate(
            FamilyKind.UNIFORM_CUBE, 2.0, 6, 100.0, 200, 9, pair=(x, y)
        )
        assert est.pair_distance == 130.0

    def test_pair_inside_the_far_region_is_rejected(self):
        x = np.zeros(4)
        x[0] = 2.0
        with pytest.raises(ValueError):
            estimate_false_positive_rate(
                FamilyKind.UNIFORM_CUBE, 2.0, 4, 2.0, 100, 0, pair=(x, np.zeros(4))
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_a_pair_that_is_not_finite_is_rejected(self, side, value):
        """A NaN or infinite coordinate makes the pair distance NaN or inf,
        which must not pass for a far pair."""
        pair = [np.zeros(4), np.zeros(4)]
        pair[0][0] = 500.0
        pair[side][1] = value
        with pytest.raises(ValueError, match="must have finite coordinates"):
            estimate_false_positive_rate(
                FamilyKind.UNIFORM_CUBE, 2.0, 4, 100.0, 100, 0, pair=tuple(pair)
            )

    @pytest.mark.parametrize(
        "x, y, shapes",
        [
            (np.zeros(5), np.ones(5), r"\(5,\) and \(5,\)"),
            (np.zeros((2, 4)), np.ones((2, 4)), r"\(2, 4\) and \(2, 4\)"),
            (np.zeros(4), np.ones(5), r"\(4,\) and \(5,\)"),
        ],
    )
    def test_a_pair_of_the_wrong_shape_is_rejected_by_name(self, x, y, shapes):
        message = "pair must hold two points of dimension 4, got shapes " + shapes
        with pytest.raises(ValueError, match=message):
            estimate_false_positive_rate(FamilyKind.UNIFORM_CUBE, 2.0, 4, 1.0, 100, 0, pair=(x, y))

    def test_deterministic_given_seed(self):
        a = estimate_false_positive_rate(FamilyKind.UNIT_SPHERE, 2.0, 8, 50.0, 1000, 42)
        b = estimate_false_positive_rate(FamilyKind.UNIT_SPHERE, 2.0, 8, 50.0, 1000, 42)
        assert a.hits == b.hits
        assert a.dominating_hits == b.dominating_hits

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_false_positive_rate(FamilyKind.UNIFORM_CUBE, 2.0, 4, 50.0, 0, 0)
        with pytest.raises(ValueError):
            estimate_false_positive_rate(FamilyKind.UNIFORM_CUBE, 2.0, 4, -1.0, 100, 0)


class TestConjectureProbe:
    def test_euclidean_case_reproduces_spherical_caps(self):
        """At exponent 2 both spheres are Euclidean, so the empirical rate
        must agree with the exact band measure of the sphere."""
        rows = conjecture_probe(2.0, 16, [0.05, 0.2, 0.4], 20000, 31)
        for row in rows:
            lo, hi = clopper_pearson(row.hits, row.trials)
            expected = cap_probability(row.epsilon, 16)
            assert lo <= expected <= hi

    def test_zero_threshold_row_is_empty(self):
        row = conjecture_probe(1.5, 8, [0.0], 500, 2)[0]
        assert row.hits == 0
        assert row.p_hat == 0.0
        assert row.ratio == 0.0

    def test_rows_echo_the_grid(self):
        rows = conjecture_probe(1.25, 12, [0.1, 0.3], 600, 7)
        assert [r.epsilon for r in rows] == [0.1, 0.3]
        for row in rows:
            assert row.q == 1.25
            assert row.d == 12
            assert row.trials == 600
            assert row.ratio == pytest.approx(row.p_hat / (row.epsilon * math.sqrt(12)))

    def test_deterministic_given_seed(self):
        a = conjecture_probe(1.0, 8, [0.2], 800, 5)
        b = conjecture_probe(1.0, 8, [0.2], 800, 5)
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            conjecture_probe(2.0, 8, [-0.1], 100, 0)
        with pytest.raises(ValueError):
            conjecture_probe(2.0, 8, [0.1], 0, 0)


class TestRecordEmission:
    def test_small_ball_record_fields(self):
        est = small_ball_curve(FamilyKind.UNIFORM_CUBE, 4, np.ones(4), [0.2], 300, 1)[0]
        record = small_ball_record(est)
        assert set(record) == set(BOUND_COLUMNS)
        assert record["kind"] == "uniform_cube"
        assert record["p"] is None
        assert record["alpha_or_c"] == 0.2
        assert record["hits"] == est.hits
        assert record["vacuous"] == est.vacuous

    def test_false_positive_record_fields(self):
        est = estimate_false_positive_rate(FamilyKind.UNIT_SPHERE, 2.0, 8, 50.0, 300, 1)
        record = false_positive_record(est)
        assert set(record) == set(BOUND_COLUMNS)
        assert record["p"] == 2.0
        assert record["alpha_or_c"] == 50.0
        assert record["bound"] == est.bound

    def test_conjecture_record_fields(self):
        row = conjecture_probe(1.5, 8, [0.2], 300, 1)[0]
        record = dataclasses.asdict(row)
        assert tuple(record) == CONJECTURE_COLUMNS
        assert record["epsilon"] == 0.2
        assert record["ratio"] == row.ratio
