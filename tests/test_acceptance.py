"""Acceptance suite: eleven numbered criteria, one test each.

Each criterion pins a user-visible guarantee of the package at an explicit
tolerance: anti-concentration dominance for the hash families, analytic cap
and beta-function inequalities, far-pair collision bounds, the degeneracy
of the sign family, exact recall of the index, window concentration,
storage and determinism contracts, the sublinear candidate-work trend, and
exact recall in double arithmetic for pairs built on bucket edges.
The conftest hook prints one PASS/FAIL line per criterion at the end of
the run.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from floorlsh.cli import main
from floorlsh.data import (
    far_ring_dataset,
    gaussian_points,
    near_origin_queries,
    planted_pairs_dataset,
    write_points,
)
from floorlsh.estimation import (
    FarPairShape,
    estimate_false_positive_rate,
    levy_concentration,
    small_ball_curve,
    theoretical_q_bound,
    unit_direction,
)
from floorlsh.exact import ground_truth
from floorlsh.families import SQRT3, FamilyKind, c_threshold, sample_pool, sample_vector
from floorlsh.index import IndexConfig, LshIndex, Variant
from floorlsh.lpspace import (
    beta_function_half,
    beta_lower_bound_margin,
    cap_probability,
    dual_exponent,
    lp_distances,
    lp_norm,
)
from floorlsh.streams import derive_seed

TRIALS = 100_000


def test_criterion_01_cube_small_ball_dominance():
    """Uniform-cube projections: P(|<w, x>| < alpha) <= 2*sqrt(3)*alpha
    for unit-l2 points of three shapes, d in {2, 8, 64}, five seeds,
    10^5 trials; the lower confidence limit clears the bound in no cell."""
    alphas = [0.05, 0.1, 0.25, 0.5]
    for d in (2, 8, 64):
        for shape in FarPairShape:
            x = unit_direction(shape, 2.0, d)
            for seed in range(5):
                curve = small_ball_curve(
                    FamilyKind.UNIFORM_CUBE, d, x, alphas, TRIALS, seed
                )
                for est in curve:
                    assert abs(est.bound - 2.0 * SQRT3 * est.alpha) < 1e-12
                    cell = f"d={d} shape={shape.value} seed={seed} alpha={est.alpha}"
                    assert est.p_hat <= est.bound, cell
                    assert est.ci_low <= est.bound, cell
                    assert not est.violated, cell


def test_criterion_02_sphere_arcsine_law():
    """Unit-sphere projections at d=2 follow the arcsine law within 0.01
    absolute at 10^5 trials, and never exceed the alpha*sqrt(2) bound."""
    x = np.array([1.0, 0.0])
    curve = small_ball_curve(
        FamilyKind.UNIT_SPHERE, 2, x, [0.05, 0.1, 0.3, 0.7], TRIALS, 0
    )
    for est in curve:
        exact = (2.0 / math.pi) * math.asin(est.alpha)
        assert abs(est.p_hat - exact) <= 0.01, f"alpha={est.alpha}"
        assert est.p_hat <= est.alpha * math.sqrt(2.0)
        assert est.bound == est.alpha * math.sqrt(2.0)


def test_criterion_03_cap_probability_analytic():
    """The spherical band measure never exceeds alpha*sqrt(d): checked by
    direct evaluation of the incomplete-beta form on a 200-point alpha
    grid for every d in {2..64} and {256, 1024}, slack 1e-9, no sampling."""
    alphas = np.linspace(0.0, 1.0, 200)
    for d in list(range(2, 65)) + [256, 1024]:
        sqrt_d = math.sqrt(d)
        for alpha in alphas:
            assert cap_probability(float(alpha), d) <= alpha * sqrt_d + 1e-9, (
                f"d={d} alpha={alpha}"
            )


def test_criterion_04_beta_margin_nonnegative():
    """The beta-function margin underlying the cap bound is nonnegative
    for every d in {2..10^4}, and B(1/2, (d-1)/2)*sqrt(d)/2 >= 1 from
    d = 3 on."""
    for d in range(2, 10_001):
        assert beta_lower_bound_margin(d) >= 0.0, f"d={d}"
    for d in range(3, 10_001):
        assert beta_function_half(d) * math.sqrt(d) / 2.0 >= 1.0, f"d={d}"


def test_criterion_05_far_pair_collision_bounds():
    """Far pairs at c = k * threshold collide with empirical rate at most
    threshold/c + 3 sigma in every (kind, p, d, k) cell at 10^5 trials."""
    grid = [
        (FamilyKind.UNIFORM_CUBE, 1.0),
        (FamilyKind.UNIFORM_CUBE, 2.0),
        (FamilyKind.UNIT_SPHERE, 2.0),
        (FamilyKind.UNIT_SPHERE, math.inf),
    ]
    seed = 0
    for kind, p in grid:
        for d in (4, 16):
            for k in (4.0, 10.0, 20.0):
                c = k * c_threshold(kind, p, d)
                est = estimate_false_positive_rate(kind, p, d, c, TRIALS, seed)
                seed += 1
                bound = est.bound
                sigma = math.sqrt(bound * (1.0 - bound) / TRIALS)
                cell = f"kind={kind.value} p={p} d={d} k={k}"
                assert bound == 1.0 / k or abs(bound - 1.0 / k) < 1e-12, cell
                assert est.p_fp_hat <= bound + 3.0 * sigma, cell
                assert not est.violated, cell


def test_criterion_06_sign_degeneracy_vs_cube():
    """A two-coordinate point (C, C, 0, ...) defeats the sign family: its
    projection is exactly zero about half the time, while the cube family
    on the same point keeps the collision rate below 0.01."""
    d, big = 16, 1e6
    z = np.zeros(d)
    z[:2] = big
    pool = sample_pool(FamilyKind.RADEMACHER, d, TRIALS, 0)
    p_zero = float(np.mean(pool @ z == 0.0))
    assert 0.48 <= p_zero <= 0.52
    est = estimate_false_positive_rate(
        FamilyKind.UNIFORM_CUBE, 2.0, d, big, TRIALS, 1, pair=(z, np.zeros(d))
    )
    assert est.bound < 0.01
    assert est.p_fp_hat < 0.01


def test_criterion_07_zero_false_negatives():
    """The headline recall contract: over p in {1, 2, inf}, both proven
    families, both storage variants, d in {4, 8}, c = 2 * threshold,
    n = 2000 with 50 planted pairs at distances {0.5, 0.999, 1 - 1e-9},
    10 master seeds, and 1000 queries per cell (the 100 planted points
    per seed), every must-return point is returned and every returned
    point is acceptable: recall and precision exactly 1.0, everywhere."""
    distances = [0.5, 0.999, 1.0 - 1e-9]
    kinds = (FamilyKind.UNIFORM_CUBE, FamilyKind.UNIT_SPHERE)
    variants = (Variant.FAST_QUERY, Variant.FAST_PREPROCESSING)
    for p in (1.0, 2.0, math.inf):
        for d in (4, 8):
            for seed in range(10):
                points, pairs = planted_pairs_dataset(2000, d, p, distances, 50, seed)
                assert len(pairs) == 50
                queries = points[:100]
                for kind in kinds:
                    c = 2.0 * c_threshold(kind, p, d)
                    truths = ground_truth(points, queries, c=c, p=p)
                    for variant in variants:
                        config = IndexConfig(
                            p=p,
                            d=d,
                            c=c,
                            kind=kind,
                            variant=variant,
                            levels=4,
                            master_seed=1000 + seed,
                        )
                        index = LshIndex.build(points, config)
                        for truth, query in zip(truths, queries):
                            got = {i for i, _ in index.query(query).neighbors}
                            must = set(truth.within_r)
                            acceptable = set(truth.within_c)
                            cell = (
                                f"p={p} d={d} kind={kind.value} "
                                f"variant={variant.value} seed={seed} "
                                f"query={truth.query_id}"
                            )
                            assert must <= got, f"recall < 1.0 at {cell}"
                            assert got <= acceptable, f"precision < 1.0 at {cell}"


def test_criterion_08_levy_window_bound():
    """No window of length lam captures more projection-sum mass than
    lam / sqrt(sum Var + lam^2/12) + 3 sigma: cube draws against the flat
    point, d in {4, 16}, lam in {0.1, 0.5, 1.0} * ||x||_2, 10^5 samples."""
    for d in (4, 16):
        x = np.ones(d)
        norm2 = math.sqrt(d)
        variances = [1.0 / 3.0] * d
        for seed in (0, 1):
            samples = sample_pool(FamilyKind.UNIFORM_CUBE, d, TRIALS, seed) @ x
            for rel in (0.1, 0.5, 1.0):
                lam = rel * norm2
                q_hat = levy_concentration(samples, lam)
                bound = theoretical_q_bound(variances, lam)
                sigma = math.sqrt(max(q_hat * (1.0 - q_hat), 1e-12) / TRIALS)
                assert q_hat <= bound + 3.0 * sigma, f"d={d} rel={rel} seed={seed}"


def test_criterion_09_storage_and_determinism(tmp_path):
    """Entry counts are exactly n for fast_preprocessing and, for
    fast_query, the sum over points of the product over levels of the
    labels within reach, floor(v + r) - floor(v - r) + 1 for
    v = scale * <w, x> and r = scale * ||w||_q, counted here from the drawn
    vectors; a serialized index answers 100 queries identically after
    reload; and replaying a manifest reproduces the report CSV byte for
    byte."""
    points = gaussian_points(500, 6, 1, scale=0.5)
    queries = gaussian_points(100, 6, 2, scale=0.5)

    def config(variant):
        return IndexConfig(
            p=2.0,
            d=6,
            c=20.0,
            kind=FamilyKind.UNIFORM_CUBE,
            variant=variant,
            levels=3,
            master_seed=5,
        )

    fast_query = LshIndex.build(points, config(Variant.FAST_QUERY))
    fast_pre = LshIndex.build(points, config(Variant.FAST_PREPROCESSING))
    per_point = np.ones(len(points), dtype=np.int64)
    for h in fast_query.hash_functions:
        v = h.scale * np.array([np.dot(h.w, x) for x in points])
        r = h.scale * lp_norm(h.w, dual_exponent(2.0))
        per_point *= (np.floor(v + r) - np.floor(v - r) + 1).astype(np.int64)
    assert fast_query.entry_count == per_point.sum() == 5012
    assert fast_pre.entry_count == 500
    clone = LshIndex.from_bytes(fast_query.to_bytes())
    for query in queries:
        assert clone.query(query) == fast_query.query(query)

    dataset_path = tmp_path / "planted.txt"
    dataset, _ = planted_pairs_dataset(300, 5, 2.0, [0.5, 0.999], 20, 3)
    write_points(dataset_path, dataset, 2.0)
    queries_path = tmp_path / "queries.txt"
    write_points(queries_path, dataset[:20] + 0.01, 2.0)
    report = tmp_path / "bench.csv"
    argv = [
        "bench-index",
        "--dataset",
        str(dataset_path),
        "--queries",
        str(queries_path),
        "--kinds",
        "uniform_cube",
        "--variants",
        "fast_query,fast_preprocessing",
        "--c-multipliers",
        "2.0",
        "--levels",
        "3",
        "--master-seeds",
        "1,2",
        "--out",
        str(report),
    ]
    assert main(argv) == 0
    first = report.read_bytes()
    with open(f"{report}.manifest.json") as handle:
        assert json.load(handle)["schema_version"] == 1
    assert main(["replay", "--manifest", f"{report}.manifest.json"]) == 0
    assert report.read_bytes() == first


def test_criterion_10_scaling_trend():
    """Candidate work grows sublinearly: far-only datasets at n = 10^4,
    2*10^4, 4*10^4 (d = 8, c = 4 * threshold, fast_preprocessing, level
    count chosen automatically), 1000 near-origin queries each: the mean
    candidates-scanned ratio per doubling stays below 1.8.

    The sphere family is the probe here because its collision bound is
    nearly tight (constant about 1.25x above the true rate), so automatic
    level selection lands in a regime where far points actually survive
    hashing in measurable numbers; the cube family's looser constant
    over-thins at these sizes and every count reads zero."""
    kind, p, d = FamilyKind.UNIT_SPHERE, 2.0, 8
    c = 4.0 * c_threshold(kind, p, d)
    queries = near_origin_queries(1000, d, p, c, 55)
    expected_levels = {10_000: 4, 20_000: 5, 40_000: 5}
    mean_candidates = []
    for i, n in enumerate((10_000, 20_000, 40_000)):
        ring = far_ring_dataset(n, d, p, c, 100 + i)
        config = IndexConfig(
            p=p,
            d=d,
            c=c,
            kind=kind,
            variant=Variant.FAST_PREPROCESSING,
            levels=None,
            master_seed=7,
        )
        index = LshIndex.build(ring, config)
        assert index.levels == expected_levels[n]
        total = 0
        for query in queries:
            result = index.query(query)
            assert result.neighbors == []
            total += result.stats.candidates_scanned
        mean_candidates.append(total / len(queries))
    assert mean_candidates[0] > 0.0
    ratios = [
        mean_candidates[1] / mean_candidates[0],
        mean_candidates[2] / mean_candidates[1],
    ]
    assert sum(ratios) / 2.0 < 1.8, f"means={mean_candidates} ratios={ratios}"


def _edge_pairs(kind, p, d, vectors, starts):
    """Points on a bucket edge of one level each, and partners a computed
    l_p distance of at most 1 away on either side along the direction that
    moves that level's projection the most.

    Anchor i slides along vector w = vectors[i % L] until
    scale * <w, x> is an integer; its partners are x +- z for the unit l_p
    vector z maximising <w, z> (Hölder's equality case), shrunk until
    lp_distances reports at most 1.
    """
    scale = sample_vector(kind, p, d, 0).scale
    anchors, partners = [], []
    for i, start in enumerate(starts):
        w = vectors[i % len(vectors)]
        t = scale * (w @ start)
        x = start + ((np.round(t) - t) / (scale * (w @ w))) * w
        if math.isinf(p):
            z = np.sign(w)
        elif p == 1.0:
            z = np.zeros(d)
            z[np.argmax(np.abs(w))] = np.sign(w[np.argmax(np.abs(w))])
        else:
            z = np.sign(w) * np.abs(w) ** (dual_exponent(p) - 1.0)
        z = z / lp_norm(z, p)
        for sign in (-1.0, 1.0):
            y, shrink = x + sign * z, 2.0**-40
            # far from the origin y - x rounds coarsely, so the steps grow
            while lp_distances(x[None, :], y, p)[0] > 1.0:
                y, shrink = x + (y - x) * (1.0 - shrink), 2.0 * shrink
            partners.append(y)
        anchors.append(x)
    return np.array(anchors), np.array(partners)


@given(
    st.sampled_from([FamilyKind.RADEMACHER, FamilyKind.UNIFORM_CUBE, FamilyKind.UNIT_SPHERE]),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
    st.sampled_from([Variant.FAST_QUERY, Variant.FAST_PREPROCESSING]),
    st.sampled_from([2, 3, 8]),
    st.sampled_from([4.0, 4e6]),
    st.integers(min_value=0, max_value=2**32),
)
@settings(deadline=None, max_examples=60)
def test_criterion_11_zero_false_negatives_on_bucket_edges(kind, p, variant, d, spread, seed):
    """The recall contract in double arithmetic, where pairs on bucket
    edges are the hard case: anchors with scale * <w, x> an integer, and
    partners one step of computed distance <= 1 away along the direction
    that moves the projection the most.  For rademacher, uniform_cube and
    unit_sphere, p in {1, 1.5, 2, 3, inf}, both variants: every query's
    answers within distance 1 are exactly the brute-force set, near the
    origin and at coordinates around 4e6, where a projection's rounding
    error dwarfs the distance error."""
    levels = 3
    vectors = [sample_vector(kind, p, d, derive_seed(seed, i)).w for i in range(levels)]
    rng = np.random.default_rng(seed)
    anchors, partners = _edge_pairs(kind, p, d, vectors, rng.standard_normal((12, d)) * spread)
    points = np.vstack([anchors, partners, rng.standard_normal((24, d)) * spread])
    c = 2.0 * c_threshold(kind, p, d)
    config = IndexConfig(p=p, d=d, c=c, kind=kind, variant=variant, levels=levels,
                         master_seed=seed)
    index = LshIndex.build(points, config)
    assert [h.w.tolist() for h in index.hash_functions] == [w.tolist() for w in vectors]
    for query, result in zip(points, index.query_batch(points)):
        must = np.flatnonzero(lp_distances(points, query, p) <= 1.0).tolist()
        near = sorted(i for i, distance in result.neighbors if distance <= 1.0)
        assert near == must
        assert all(distance <= c for _, distance in result.neighbors)
