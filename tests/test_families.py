"""Tests for the four projection-hash families."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floorlsh import families
from floorlsh.families import (
    PROVEN_ADJACENCY_KINDS,
    SQRT3,
    FamilyKind,
    HashFunction,
    adjacency_certificate,
    c_threshold,
    false_positive_bound,
    hash_eval_matrix,
    hash_scale,
    label_ranges,
    lp_sphere_block,
    pool_counts,
    pool_projections,
    reach,
    reach_bound,
    sample_pool,
    sample_vector,
    small_ball_bound,
)
from floorlsh.estimation import estimate_false_positive_rate, small_ball_curve
from floorlsh.lpspace import dual_exponent, lp_distances, lp_norm, scalar_products
from floorlsh.streams import stream

KINDS = st.sampled_from(list(FamilyKind))
PROVEN = st.sampled_from(list(PROVEN_ADJACENCY_KINDS))
EXPONENTS = st.one_of(st.floats(min_value=1.0, max_value=32.0), st.just(math.inf))
SEEDS = st.integers(min_value=0, max_value=2**63 - 1)

#: SHA-256 of the bytes of sample_pool(kind, d, count, 7, q) for count in
#: POOL_COUNTS, concatenated in that order; recorded from the sequential
#: one-block-at-a-time implementation that the block-parallel fill replaced.
POOL_COUNTS = (0, 1, 8191, 8192, 8193, 20000)
GOLDEN_POOLS = [
    ("rademacher", None, 1, "df80b775c3e319bccceffee40287d88d5c57d52bdd3821c2b253b461ae09c837"),
    ("rademacher", None, 8, "d065b7c801903ab5b62a324e8779bef74dd097d9c64bd8b2962fdc06062a028f"),
    ("rademacher", None, 64, "42dccfd6e8653dcd9e08f6cc555c76242d420e7a7fddfcfd4f8bb7efc9e4567b"),
    ("uniform_cube", None, 1, "7c8979182976bd05bbe245555bb3b397dc54c19be266ea1a117877f0999a0a41"),
    ("uniform_cube", None, 8, "6beee00cc717fe58df87665db7344eb8a8fa955f6360766f395e3edf013278a9"),
    ("uniform_cube", None, 64, "3f6f15dd72db68ba93ccfbef6c9ded307911723f8d0942606072d97d41d4f674"),
    ("unit_sphere", None, 1, "7efcc64f97aa2113e6d7942696f9280c3f8df2974d7bfb8fcf56b6f87450a00e"),
    ("unit_sphere", None, 8, "075f2f2d76560ed85329cf42c58fa91a6611944780657683bd6ed9ae2ba6757c"),
    ("unit_sphere", None, 64, "050a34dbacceee367dcc03c4eb17c6f2057ab5a9be88be2626f2215407e5d486"),
    ("lq_sphere_experimental", 1.5, 1, "1ac35d17c7b8279a54c0126da6bdbf4dcb8cd1851a21d99940d4ef7d9ce8536f"),
    ("lq_sphere_experimental", 1.5, 8, "9a047d282998696738928e90208a7b9c6cb2c2293578d6ce46887d94eeecf102"),
    ("lq_sphere_experimental", 1.5, 64, "c3481f325fde0815fe8a0a035f18f7399e5710a587080a8e732201b61e0a8d24"),
    ("lq_sphere_experimental", math.inf, 1, "2b7276e4fa835cfde6d941269bdef89f238b653789908f746e2615e639934f68"),
    ("lq_sphere_experimental", math.inf, 8, "41b7a1f43ad16d1f13342b37f80525d64d9c82d840d9f40dae4790f11bf96876"),
    ("lq_sphere_experimental", math.inf, 64, "c9c145dd4de7d52087dc8780fd6e91fb72351115f451eb8b5669611f0414fe5a"),
]

POOL_KINDS = [
    (FamilyKind.RADEMACHER, None),
    (FamilyKind.UNIFORM_CUBE, None),
    (FamilyKind.UNIT_SPHERE, None),
    (FamilyKind.LQ_SPHERE_EXPERIMENTAL, 1.5),
    (FamilyKind.LQ_SPHERE_EXPERIMENTAL, math.inf),
]

#: Prints SHA-256 digests of pool projections, planted-pair datasets, index
#: reaches and label ranges at d in {8, 64, 65}, one line per function.
_KERNEL_DIGESTS = """
import hashlib
import numpy as np
from floorlsh import families
from floorlsh.data import planted_pairs_dataset
from floorlsh.index import IndexConfig, LshIndex, Variant
digests = {}
def note(name, array):
    digests.setdefault(name, hashlib.sha256()).update(np.ascontiguousarray(array).tobytes())
for d in (8, 64, 65):
    vectors = np.random.default_rng(d).standard_normal((2, d))
    for kind in families.FamilyKind:
        q = 1.5 if kind is families.FamilyKind.LQ_SPHERE_EXPERIMENTAL else None
        note("pool_projections", families.pool_projections(kind, d, 20000, 7, vectors, q=q))
    points, _ = planted_pairs_dataset(2000, d, 2.0, [0.5, 1.0], 200, 7)
    note("planted_pairs_dataset", points)
    for kind in sorted(families.PROVEN_ADJACENCY_KINDS):
        c = 2.0 * families.c_threshold(kind, 2.0, d)
        config = IndexConfig(2.0, d, c, kind, Variant.FAST_QUERY, levels=3, master_seed=d)
        index = LshIndex(config, points[:50])
        note("LshIndex.reach", index.reach)
        w = np.stack([h.w for h in index.hash_functions])
        scale = families.hash_scale(kind, 2.0, d)
        note("label_ranges", families.label_ranges(w, scale * 2.0**40, points)[0])
        bounds = families.reach_bound(w, scale, 2.0)
        note("label_ranges", np.stack(families.label_ranges(w, scale, points, bounds)))
for name, digest in sorted(digests.items()):
    print(name, digest.hexdigest())
"""


def _runs_openblas_kernels_by_coretype():
    """True when numpy links a DYNAMIC_ARCH OpenBLAS, whose kernel
    OPENBLAS_CORETYPE picks, on a CPU that runs the Haswell kernels."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its config
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    features = {*simd.get("baseline", []), *simd.get("found", [])}
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "") and bool(
        features & {"X86_V3", "AVX2"})


LAW_EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)
LAW_DIMENSIONS = (1, 2, 8, 64, 1000)


def _closed_form_laws(kind, p, d):
    """The scale and threshold of ``kind``, written out apart from the
    package, in the exact expressions and order that fix their bits."""
    q = math.inf if p == 1.0 else 1.0 if p == math.inf else p / (p - 1.0)
    scale = {
        FamilyKind.RADEMACHER: float(d) ** (1.0 / p - 1.0),
        FamilyKind.UNIFORM_CUBE: float(d) ** (1.0 / p - 1.0),
        FamilyKind.UNIT_SPHERE: float(d) ** min(0.5 - 1.0 / q, 0.0),
    }.get(kind, 1.0)
    threshold = {
        FamilyKind.RADEMACHER: math.sqrt(8.0)
        * max(float(d) ** 0.5, float(d) ** (1.0 - 1.0 / p)),
        FamilyKind.UNIFORM_CUBE: 4.0 * math.sqrt(3.0) * float(d) ** max(1.0 - 1.0 / p, 0.5),
        FamilyKind.UNIT_SPHERE: 2.0 * float(d) ** (0.5 + abs(0.5 - 1.0 / p)),
    }.get(kind)
    return scale, threshold


#: Each family law called with one bad argument, and the words of its error.
BAD_LAW_CALLS = {
    "hash_scale p=nan": (lambda kind: hash_scale(kind, math.nan, 8), "norm exponent"),
    "hash_scale p=0.5": (lambda kind: hash_scale(kind, 0.5, 8), "norm exponent"),
    "hash_scale d=0": (lambda kind: hash_scale(kind, 2.0, 0), "dimension"),
    "c_threshold p=nan": (lambda kind: c_threshold(kind, math.nan, 8), "norm exponent"),
    "c_threshold p=0.5 d=-3": (lambda kind: c_threshold(kind, 0.5, -3), "norm exponent"),
    "c_threshold d=-3": (lambda kind: c_threshold(kind, 2.0, -3), "dimension"),
    "c_threshold d=nan": (lambda kind: c_threshold(kind, 2.0, math.nan), "dimension"),
    "false_positive_bound p=nan": (
        lambda kind: false_positive_bound(kind, math.nan, 8, 5.0), "norm exponent"
    ),
    "false_positive_bound d=0": (
        lambda kind: false_positive_bound(kind, 2.0, 0, 5.0), "dimension"
    ),
    "false_positive_bound c=nan": (
        lambda kind: false_positive_bound(kind, 2.0, 8, math.nan), "approximation factor"
    ),
    "false_positive_bound c=0": (
        lambda kind: false_positive_bound(kind, 2.0, 8, 0.0), "approximation factor"
    ),
    "small_ball_bound alpha=nan": (lambda kind: small_ball_bound(kind, math.nan, 4, 1.0), "alpha"),
    "small_ball_bound alpha=-0.1": (lambda kind: small_ball_bound(kind, -0.1, 4, 1.0), "alpha"),
    "small_ball_bound d=-4": (lambda kind: small_ball_bound(kind, 0.1, -4, 1.0), "dimension"),
    "small_ball_bound d=nan": (
        lambda kind: small_ball_bound(kind, 0.1, math.nan, 1.0), "dimension"
    ),
    "small_ball_bound norm=-1": (
        lambda kind: small_ball_bound(kind, 0.1, 4, -1.0), "nonzero finite norm"
    ),
    "small_ball_bound norm=nan": (
        lambda kind: small_ball_bound(kind, 0.1, 4, math.nan), "nonzero finite norm"
    ),
}


class TestLaws:
    @pytest.mark.parametrize("d", LAW_DIMENSIONS)
    @pytest.mark.parametrize("p", LAW_EXPONENTS)
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_laws_are_the_closed_forms_bit_for_bit(self, kind, p, d):
        scale, tau = _closed_form_laws(kind, p, d)
        assert hash_scale(kind, p, d) == scale
        assert c_threshold(kind, p, d) == tau
        for c in (0.5, 5.0) if tau is None else (0.5 * tau, tau, 2.0 * tau, 4.0 * tau):
            if tau is None:
                expected = (None, None)
            elif kind is FamilyKind.RADEMACHER:
                expected = (None if c <= tau else 1.0 - (1.0 - tau / c) ** 2 / 2.0, tau)
            else:
                expected = (tau / c, tau)
            assert false_positive_bound(kind, p, d, c) == expected
        for alpha in (0.0, 0.05, 0.5, 2.0, math.inf):
            for norm2 in (0.5, 1.0, math.sqrt(d), 1e3):
                expected = {
                    FamilyKind.UNIFORM_CUBE: 2.0 * math.sqrt(3.0) * alpha / norm2,
                    FamilyKind.UNIT_SPHERE: alpha * math.sqrt(d) / norm2,
                }.get(kind)
                assert small_ball_bound(kind, alpha, d, norm2) == expected

    def test_hand_values(self):
        cube, sphere, sign = FamilyKind.UNIFORM_CUBE, FamilyKind.UNIT_SPHERE, FamilyKind.RADEMACHER
        for kind in (cube, sign):
            assert hash_scale(kind, 2.0, 4) == pytest.approx(4 ** (-0.5))
            assert hash_scale(kind, 1.0, 4) == pytest.approx(1.0)
            assert hash_scale(kind, math.inf, 4) == pytest.approx(0.25)
        # the sphere scale is the sandwich factor of the dual exponent
        assert hash_scale(sphere, 2.0, 4) == 1.0
        assert hash_scale(sphere, math.inf, 9) == pytest.approx(9 ** (-0.5))
        assert hash_scale(sphere, 1.0, 9) == 1.0
        assert hash_scale(FamilyKind.LQ_SPHERE_EXPERIMENTAL, 1.5, 8) == 1.0
        assert c_threshold(cube, 2.0, 4) == pytest.approx(8 * SQRT3)
        assert c_threshold(cube, 1.0, 4) == pytest.approx(8 * SQRT3)
        assert c_threshold(cube, math.inf, 4) == pytest.approx(16 * SQRT3)
        assert c_threshold(sphere, 2.0, 4) == pytest.approx(4.0)
        assert c_threshold(sphere, math.inf, 4) == pytest.approx(8.0)
        assert c_threshold(sign, 2.0, 4) == pytest.approx(math.sqrt(8) * 2)
        assert c_threshold(sign, math.inf, 4) == pytest.approx(math.sqrt(8) * 4)
        assert c_threshold(FamilyKind.LQ_SPHERE_EXPERIMENTAL, 2.0, 4) is None

    @given(EXPONENTS, st.integers(min_value=1, max_value=4096))
    @settings(deadline=2000)
    def test_thresholds_positive_and_growing(self, p, d):
        for kind in PROVEN_ADJACENCY_KINDS:
            assert c_threshold(kind, p, d) > 0.0
            assert c_threshold(kind, p, 4 * d) > c_threshold(kind, p, d)

    @pytest.mark.parametrize("call", list(BAD_LAW_CALLS))
    @pytest.mark.parametrize("kind", list(FamilyKind))
    def test_every_law_rejects_a_bad_argument_for_every_family(self, kind, call):
        """Each check is written so that NaN fails it, and the experimental
        family is checked like the others."""
        law, message = BAD_LAW_CALLS[call]
        with pytest.raises(ValueError, match=message):
            law(kind)


class TestThresholdsAndBounds:
    def test_cube_bound_is_threshold_over_c(self):
        tau = c_threshold(FamilyKind.UNIFORM_CUBE, 2.0, 16)
        bound, threshold = false_positive_bound(
            FamilyKind.UNIFORM_CUBE, 2.0, 16, 4 * tau
        )
        assert threshold == tau
        assert bound == pytest.approx(0.25)

    def test_sphere_bound_is_threshold_over_c(self):
        tau = c_threshold(FamilyKind.UNIT_SPHERE, math.inf, 16)
        bound, _ = false_positive_bound(FamilyKind.UNIT_SPHERE, math.inf, 16, 10 * tau)
        assert bound == pytest.approx(0.1)

    def test_sign_bound_formula(self):
        tau = c_threshold(FamilyKind.RADEMACHER, 2.0, 16)
        bound, _ = false_positive_bound(FamilyKind.RADEMACHER, 2.0, 16, 2 * tau)
        assert bound == pytest.approx(1.0 - (1.0 - 0.5) ** 2 / 2.0)

    def test_sign_bound_vacuous_below_threshold(self):
        tau = c_threshold(FamilyKind.RADEMACHER, 2.0, 16)
        bound, threshold = false_positive_bound(
            FamilyKind.RADEMACHER, 2.0, 16, 0.5 * tau
        )
        assert bound is None
        assert threshold == tau

    def test_experimental_has_no_bound(self):
        bound, threshold = false_positive_bound(
            FamilyKind.LQ_SPHERE_EXPERIMENTAL, 2.0, 16, 100.0
        )
        assert bound is None and threshold is None

    @given(PROVEN, EXPONENTS, st.integers(min_value=1, max_value=512))
    @settings(deadline=2000)
    def test_bound_below_one_above_threshold(self, kind, p, d):
        tau = c_threshold(kind, p, d)
        bound, _ = false_positive_bound(kind, p, d, 1.5 * tau)
        assert bound is not None
        assert 0.0 < bound < 1.0


class TestSampling:
    def test_cube_entries_in_open_interval(self):
        pool = sample_pool(FamilyKind.UNIFORM_CUBE, 8, 1000, 3)
        assert pool.shape == (1000, 8)
        assert np.all(np.abs(pool) < 1.0)

    def test_rademacher_entries_are_signs(self):
        pool = sample_pool(FamilyKind.RADEMACHER, 8, 1000, 3)
        assert set(np.unique(pool)) == {-1.0, 1.0}

    def test_sphere_rows_unit_l2(self):
        pool = sample_pool(FamilyKind.UNIT_SPHERE, 8, 500, 3)
        np.testing.assert_allclose(np.linalg.norm(pool, axis=1), 1.0, atol=1e-12)

    def test_lq_rows_unit_lq(self):
        pool = sample_pool(FamilyKind.LQ_SPHERE_EXPERIMENTAL, 8, 500, 3, q=1.5)
        norms = [lp_norm(row, 1.5) for row in pool]
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_lq_inf_rows_unit_max(self):
        pool = sample_pool(FamilyKind.LQ_SPHERE_EXPERIMENTAL, 8, 500, 3, q=math.inf)
        np.testing.assert_allclose(np.max(np.abs(pool), axis=1), 1.0, atol=1e-12)

    def test_lq_two_matches_unit_sphere_distribution(self):
        """Cone measure on the Euclidean sphere is the rotation-invariant
        surface measure, so first coordinates of both pools have the same
        distribution; compare their empirical CDFs coarsely."""
        a = sample_pool(FamilyKind.UNIT_SPHERE, 6, 20000, 11)[:, 0]
        b = sample_pool(FamilyKind.LQ_SPHERE_EXPERIMENTAL, 6, 20000, 12, q=2.0)[:, 0]
        quantiles = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(
            np.quantile(a, quantiles), np.quantile(b, quantiles), atol=0.02
        )

    @given(KINDS, st.integers(min_value=1, max_value=20), SEEDS)
    @settings(deadline=4000, max_examples=25)
    def test_prefix_stability(self, kind, d, seed):
        """A longer pool starts with exactly the shorter pool: trial counts
        can grow without changing earlier draws."""
        q = 3.0 if kind is FamilyKind.LQ_SPHERE_EXPERIMENTAL else None
        small = sample_pool(kind, d, 100, seed, q=q)
        large = sample_pool(kind, d, 9000, seed, q=q)
        np.testing.assert_array_equal(large[:100], small)

    @pytest.mark.parametrize("kind, q, d, digest", GOLDEN_POOLS)
    def test_pool_bytes_are_golden_for_any_worker_count(self, kind, q, d, digest, monkeypatch):
        """Block-parallel filling draws the recorded bytes, also when one
        worker fills every block or more workers than cores share them."""
        def pool_digest():
            h = hashlib.sha256()
            for count in POOL_COUNTS:
                pool = sample_pool(kind, d, count, 7, q=q)
                assert pool.shape == (count, d)
                h.update(pool.tobytes())
            return h.hexdigest()

        assert pool_digest() == digest
        for workers in (1, 8):
            monkeypatch.setattr(families, "_fill_workers", lambda blocks, w=workers: w)
            assert pool_digest() == digest

    @pytest.mark.parametrize(
        "kind, q",
        POOL_KINDS
        + [(FamilyKind.LQ_SPHERE_EXPERIMENTAL, 1.0), (FamilyKind.LQ_SPHERE_EXPERIMENTAL, 3.0)],
    )
    def test_pools_do_not_depend_on_the_chunk_size(self, kind, q, monkeypatch):
        """Chunks of one row (one worker), of three rows (eight workers) and
        of 256 KiB (one and eight workers) draw the same pools.  An
        experimental pool is also its reference: block j is the first rows
        of ``lp_sphere_block(stream(7, j), d, q, 8192)``, whose one generator
        draws all of the block's signs before any magnitude."""
        for d in (1, 2, 7, 65):
            whole = sample_pool(kind, d, 20000, 7, q=q)
            if q is not None:
                blocks = [lp_sphere_block(stream(7, j), d, q, 8192) for j in range(3)]
                np.testing.assert_array_equal(whole, np.concatenate(blocks)[:20000])
            for rows, workers in ((1, 1), (3, 8), (None, 1), (None, 8)):
                if rows is not None:
                    monkeypatch.setattr(families, "_CHUNK_BYTES", 8 * d * rows)
                monkeypatch.setattr(families, "_fill_workers", lambda blocks, w=workers: w)
                for count in (1, 8191, 8193, 20000):
                    pool = sample_pool(kind, d, count, 7, q=q)
                    assert pool.tobytes() == whole[:count].tobytes(), (d, rows, workers, count)
                monkeypatch.undo()

    @pytest.mark.parametrize(
        "kind, q, bound",
        [(FamilyKind.UNIFORM_CUBE, None, 2**20), (FamilyKind.UNIT_SPHERE, None, 2**20),
         (FamilyKind.LQ_SPHERE_EXPERIMENTAL, 1.5, 1.5 * 2**20)],
        ids=["uniform_cube", "unit_sphere", "lq_sphere_experimental-1.5"],
    )
    def test_pool_fill_allocates_little_beside_the_pool(self, kind, q, bound, monkeypatch):
        """Blocks are filled in place: a 200,000-row pool allocates under
        1 MiB beyond its own buffer.  Two workers pin the bound, which grows
        with the thread count; tracemalloc sees numpy buffers in every
        thread.  An experimental chunk is drawn into its own arrays (the
        int64 signs, the magnitudes) and then copied in, hence 1.5 MiB."""
        monkeypatch.setattr(families, "_fill_workers", lambda blocks: min(blocks, 2))
        sample_pool(kind, 64, 10, 0, q=q)
        tracemalloc.start()
        try:
            pool = sample_pool(kind, 64, 200_000, 5, q=q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - pool.nbytes < bound

    @pytest.mark.parametrize("kind, q", POOL_KINDS)
    def test_a_vector_draws_only_its_own_row(self, kind, q):
        """sample_vector at d = 64 allocates under 64 KiB: one row, not a
        block's 8192 rows of signs."""
        sample_vector(kind, 2.0, 64, 0, q=q)
        tracemalloc.start()
        try:
            sample_vector(kind, 2.0, 64, 5, q=q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    @pytest.mark.parametrize("kind, q", POOL_KINDS)
    def test_projections_are_the_pool_products_bit_for_bit(self, kind, q, monkeypatch):
        """pool_projections(...)[i] is the einsum of the whole pool with
        vectors[i] for every d, count and k, with 1, 2 or 8 workers."""
        for d in (1, 8, 64, 65):
            vectors = np.random.default_rng(d).standard_normal((2, d))
            for count in POOL_COUNTS:
                pool = sample_pool(kind, d, count, 7, q=q)
                expected = [np.einsum("ij,j->i", pool, v) for v in vectors]
                for workers in (1, 2, 8):
                    monkeypatch.setattr(families, "_fill_workers", lambda blocks, w=workers: w)
                    for k in (1, 2):
                        products = pool_projections(kind, d, count, 7, vectors[:k], q=q)
                        assert products.shape == (k, count)
                        for i in range(k):
                            assert products[i].tobytes() == expected[i].tobytes(), (
                                workers, d, count, k, i)

    @pytest.mark.parametrize("kind, q", POOL_KINDS)
    def test_counts_do_not_depend_on_workers_or_chunk_edges(self, kind, q, monkeypatch):
        """pool_counts sums, block by block, the counts that thresholds take
        over the einsum of the whole pool, for every count, at the 256 KiB
        chunk edges of d = 8 and 64, with 1, 2 or 8 workers."""
        def count_below(products):
            return np.count_nonzero(products[:, None, :] < levels[:, None], axis=2).ravel()

        levels = np.array([-0.5, 0.0, 0.25, 1.0])
        for d in (1, 8, 64):
            vectors = np.random.default_rng(d).standard_normal((2, d))
            edges = {8: (4095, 4096, 4097), 64: (511, 512, 513)}.get(d, ())
            for count in POOL_COUNTS + edges:
                pool = sample_pool(kind, d, count, 7, q=q)
                expected = count_below(np.einsum("ij,kj->ki", pool, vectors))
                for workers in (1, 2, 8):
                    monkeypatch.setattr(families, "_fill_workers", lambda blocks, w=workers: w)
                    counts = pool_counts(kind, d, count, 7, vectors, count_below, q=q)
                    assert np.array_equal(counts, expected), (workers, d, count)

    @pytest.mark.parametrize(
        "estimate, kind, q",
        [("small_ball", FamilyKind.UNIT_SPHERE, None),
         ("false_positive", FamilyKind.UNIT_SPHERE, None),
         ("small_ball", FamilyKind.LQ_SPHERE_EXPERIMENTAL, 1.5)],
    )
    def test_estimators_hold_one_chunk_per_worker(self, estimate, kind, q, monkeypatch):
        """200,000 draws at d = 64 make a 102 MB pool; the estimators count
        each block's hits as it is drawn, so they peak below 2 MiB, two
        256 KiB chunks and two blocks' products among it, and ten times the
        trials leave the peak within 1.25x."""
        monkeypatch.setattr(families, "_fill_workers", lambda blocks: min(blocks, 2))
        x = np.ones(64)

        def peak(trials):
            tracemalloc.start()
            try:
                if estimate == "small_ball":
                    small_ball_curve(kind, 64, x, [0.05, 0.5], trials, 5, q=q)
                else:
                    c = 4.0 * c_threshold(kind, 2.0, 64)
                    estimate_false_positive_rate(kind, 2.0, 64, c, trials, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10)
        small, large = peak(200_000), peak(2_000_000)
        assert small < 2 * 2**20
        assert large < 1.25 * small

    def test_projections_take_vectors_of_the_pool_dimension(self):
        with pytest.raises(ValueError, match=r"vectors must have shape \(k, 4\)"):
            pool_projections(FamilyKind.UNIFORM_CUBE, 4, 10, 0, np.ones((2, 5)))
        with pytest.raises(ValueError, match=r"vectors must have shape \(k, 4\)"):
            pool_projections(FamilyKind.UNIFORM_CUBE, 4, 10, 0, np.ones(4))
        assert pool_projections(FamilyKind.UNIFORM_CUBE, 4, 0, 0, np.ones((3, 4))).shape == (3, 0)

    @pytest.mark.parametrize("kind, q", POOL_KINDS)
    @pytest.mark.parametrize("d", [1, 8, 64])
    def test_vector_is_row_zero_of_the_pool(self, kind, q, d):
        h = sample_vector(kind, 2.0, d, 31, q=q)
        np.testing.assert_array_equal(h.w, sample_pool(kind, d, 9000, 31, q=q)[0])

    def test_q_rejected_for_non_experimental(self):
        with pytest.raises(ValueError):
            sample_pool(FamilyKind.UNIFORM_CUBE, 4, 10, 0, q=2.0)

    def test_q_required_for_experimental(self):
        with pytest.raises(ValueError):
            sample_pool(FamilyKind.LQ_SPHERE_EXPERIMENTAL, 4, 10, 0)

    def test_a_negative_count_is_rejected(self):
        with pytest.raises(ValueError, match="count must be nonnegative, got -1"):
            sample_pool(FamilyKind.UNIFORM_CUBE, 4, -1, 0)


class TestHashEval:
    def test_floor_hand_value(self):
        h = HashFunction(
            kind=FamilyKind.RADEMACHER,
            p=2.0,
            d=2,
            seed=0,
            w=np.array([-1.0, -1.0]),
            scale=hash_scale(FamilyKind.RADEMACHER, 2.0, 2),
        )
        # scale = 2^{-1/2}; dot = -1.2; floor(-0.8485...) = -1
        assert hash_eval_matrix(h.w[None, :], h.scale, np.array([[0.6, 0.6]])) == -1

    def test_positive_floor(self):
        h = HashFunction(
            kind=FamilyKind.RADEMACHER,
            p=2.0,
            d=2,
            seed=0,
            w=np.array([1.0, 1.0]),
            scale=1.0,
        )
        assert hash_eval_matrix(h.w[None, :], h.scale, np.array([[1.3, 1.4]])) == 2

    @given(PROVEN, EXPONENTS, st.integers(min_value=1, max_value=16), SEEDS)
    @settings(deadline=4000, max_examples=30)
    def test_matrix_matches_scalar(self, kind, p, d, seed):
        h = sample_vector(kind, p, d, seed)
        points = stream(seed, 77).standard_normal((5, d)) * 3.0
        labels = hash_eval_matrix(h.w[None, :], h.scale, points)
        for i in range(5):
            assert labels[i, 0] == math.floor(h.scale * float(np.einsum("i,i->", h.w, points[i])))


def _vectors(kind, p, d, seed, levels=3):
    return np.vstack([sample_vector(kind, p, d, seed + i).w for i in range(levels)])


class TestProductKernel:
    @pytest.mark.skipif(
        not _runs_openblas_kernels_by_coretype(),
        reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS on an AVX2 CPU")
    def test_outputs_do_not_depend_on_the_blas_kernel(self):
        """Pool projections, planted-pair datasets, index reaches and label
        ranges are the same bytes under three OpenBLAS kernels; a gemv or a
        ddot would differ between them at d = 8, 64 or 65."""
        source = str(Path(families.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [source, *filter(None, [os.environ.get("PYTHONPATH")])])}
        outputs = {}
        for coretype in ("Haswell", "Sandybridge", "Prescott"):
            done = subprocess.run(
                [sys.executable, "-c", _KERNEL_DIGESTS], capture_output=True, text=True,
                env={**env, "OPENBLAS_CORETYPE": coretype},
            )
            assert done.returncode == 0, done.stderr
            outputs[coretype] = done.stdout.splitlines()
        assert len(outputs["Haswell"]) == 4
        assert outputs["Sandybridge"] == outputs["Haswell"]
        assert outputs["Prescott"] == outputs["Haswell"]

    @given(
        PROVEN,
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=40),
        SEEDS,
    )
    @settings(deadline=None, max_examples=60)
    def test_layout_does_not_change_labels_or_projections(self, kind, d, levels, n, seed):
        """Fortran-ordered and strided points, vectors and pool vectors give
        the bits of their C-contiguous copies.  The unranged labels take a
        power of two as scale, one that puts the largest |scale * <w, x>| in
        (2^51, 2^52], where a last bit is worth half a label or more."""
        w = _vectors(kind, 2.0, d, seed, levels)
        points = stream(seed, 77).standard_normal((n, d)) * 3.0
        top = float(np.max(np.abs(np.einsum("ij,kj->ik", points, w))))
        scale = 2.0 ** (52 - math.ceil(math.log2(top)))
        ranged_scale = hash_scale(kind, 2.0, d)
        bounds = reach_bound(w, ranged_scale, 2.0)

        def layouts(a):
            wide = np.zeros((2 * a.shape[0], 2 * a.shape[1]))
            wide[::2, ::2] = a
            return np.asfortranarray(a), wide[::2, ::2]

        expected = (
            label_ranges(w, scale, points)[0],
            label_ranges(w, ranged_scale, points, bounds),
            pool_projections(kind, d, 50, seed, w),
        )
        for other_points, other_w in zip(layouts(points), layouts(w)):
            for got_points, got_w in ((other_points, w), (points, other_w)):
                np.testing.assert_array_equal(label_ranges(got_w, scale, got_points)[0], expected[0])
                lo, counts = label_ranges(got_w, ranged_scale, got_points, bounds)
                np.testing.assert_array_equal(lo, expected[1][0])
                np.testing.assert_array_equal(counts, expected[1][1])
            assert pool_projections(kind, d, 50, seed, other_w).tobytes() == expected[2].tobytes()


class TestLabelRanges:
    @given(PROVEN, EXPONENTS, st.integers(min_value=1, max_value=16), SEEDS)
    @settings(deadline=4000, max_examples=40)
    def test_own_labels_are_the_floored_projections(self, kind, p, d, seed):
        w = _vectors(kind, p, d, seed)
        scale = hash_scale(kind, p, d)
        points = stream(seed, 77).standard_normal((6, d)) * 3.0
        lo, counts = label_ranges(w, scale, points)
        np.testing.assert_array_equal(counts, 1)
        np.testing.assert_array_equal(lo, np.floor(scale * np.einsum("ij,kj->ik", points, w)))
        np.testing.assert_array_equal(lo, hash_eval_matrix(w, scale, points))

    @given(PROVEN, EXPONENTS, st.integers(min_value=1, max_value=16), SEEDS)
    @settings(deadline=4000, max_examples=40)
    def test_a_batch_labels_as_its_rows_one_by_one(self, kind, p, d, seed):
        """A batch of 70 rows labels each row as that row alone would be."""
        w = _vectors(kind, p, d, seed)
        scale = hash_scale(kind, p, d)
        bounds = reach_bound(w, scale, p)
        points = stream(seed, 78).standard_normal((70, d)) * 3.0
        for ranges in (None, bounds):
            lo, counts = label_ranges(w, scale, points, ranges)
            for i, x in enumerate(points):
                one_lo, one_counts = label_ranges(w, scale, x[None, :], ranges)
                assert one_lo.tolist() == [lo[i].tolist()]
                assert one_counts.tolist() == [counts[i].tolist()]
        # the sums themselves agree bit for bit, not only their floors
        for x, w_used in ((points, w), (np.abs(points), np.abs(w))):
            batch = scalar_products("ij,kj->ik", x, w_used)
            for i in range(len(points)):
                one = scalar_products("ij,kj->ik", x[i : i + 1], w_used)
                assert one[0].tobytes() == batch[i].tobytes()

    @given(
        PROVEN,
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
        st.integers(min_value=1, max_value=24),
        SEEDS,
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(deadline=4000, max_examples=80)
    def test_a_range_holds_every_label_of_a_near_point(self, kind, p, d, seed, radius):
        """For y within computed distance 1 of x, y's label, by this
        labeller, by np.dot, by a matrix product or exactly, in rational
        arithmetic over the doubles' values, lies in x's range; the range
        holds at most 2 + 2 r_l labels, and at most ceil(2 R_l + 1/2) + 1
        with R_l the reach bound the margin proof uses."""
        w = _vectors(kind, p, d, seed)
        scale = hash_scale(kind, p, d)
        rng = stream(seed, 99)
        x = rng.standard_normal(d) * 5.0
        direction = rng.standard_normal(d)
        y = x + direction * (radius / max(lp_norm(direction, p), 1e-300))
        while lp_distances(x[None, :], y, p)[0] > 1.0:
            y = x + (y - x) * (1.0 - 2.0**-40)
        bounds = reach_bound(w, scale, p)
        lo, counts = label_ranges(w, scale, x[None, :], bounds)
        y_exact = [Fraction(t) for t in y.tolist()]
        exact = [
            math.floor(Fraction(scale) * sum(Fraction(a) * b for a, b in zip(v, y_exact)))
            for v in w.tolist()
        ]
        labels = [
            label_ranges(w, scale, y[None, :])[0][0],
            np.floor(scale * np.array([np.dot(v, y) for v in w])),
            hash_eval_matrix(w, scale, y[None, :])[0],
            np.array(exact),
        ]
        for label in labels:
            assert (lo[0] <= label).all() and (label < lo[0] + counts[0]).all()
        assert (counts[0] <= 2.0 + 2.0 * reach(w, scale, p)).all()
        assert (counts[0] <= np.ceil(2.0 * bounds + 0.5) + 1.0).all()

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("d", [1, 2, 8, 64])
    def test_reach_is_at_most_one_and_one_for_signs(self, p, d):
        for kind in PROVEN_ADJACENCY_KINDS:
            w = _vectors(kind, p, d, 5, levels=4)
            r = reach(w, hash_scale(kind, p, d), p)
            np.testing.assert_allclose(
                r, [hash_scale(kind, p, d) * lp_norm(v, dual_exponent(p)) for v in w]
            )
            assert (r <= 1.0 + 1e-12).all()
            if kind is FamilyKind.RADEMACHER or (kind is FamilyKind.UNIT_SPHERE and p == 2.0):
                np.testing.assert_allclose(r, 1.0, rtol=1e-12)
            assert (reach_bound(w, hash_scale(kind, p, d), p) > r).all()

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("d", [1, 8, 64])
    def test_a_far_ranged_row_is_refused_before_its_range_grows(self, p, d):
        """A row whose rounding margin reaches a quarter label, at
        scale * sum_j |w_j x_j| of about 2^50 / (d + 4), is refused with
        ranges and labelled without; a row just inside holds at most 4
        labels per level."""
        for kind in PROVEN_ADJACENCY_KINDS:
            w = _vectors(kind, p, d, 9)
            scale = hash_scale(kind, p, d)
            bounds = reach_bound(w, scale, p)
            directions = stream(9, d).standard_normal((20, d))
            # scale * sum_j |w_j x_j| at each direction's widest level
            spread = (np.abs(directions) @ np.abs(w).T).max(axis=1) * scale
            limit = 2.0**50 / (d + 4)
            inside = directions * (0.95 * limit / spread)[:, None]
            assert label_ranges(w, scale, inside, bounds)[1].max() <= 4
            outside = directions * (1.05 * limit / spread)[:, None]
            label_ranges(w, scale, outside)
            for row in outside:
                with pytest.raises(ValueError, match="too far from the origin"):
                    label_ranges(w, scale, row[None, :], bounds)

    @pytest.mark.parametrize("value, message", [(math.nan, "finite"), (math.inf, "finite"),
                                                (1e300, "2\\^53"), (1e18, "2\\^53")])
    def test_unusable_rows_are_rejected(self, value, message):
        """Also at a scale above 1, where scale*<w,x> can overflow, and with
        a reach bound past 2^53: the error comes with no RuntimeWarning
        before it, which tier-1 turns into an error."""
        w = _vectors(FamilyKind.UNIFORM_CUBE, 2.0, 4, 3)
        points = np.zeros((3, 4))
        points[1] = value
        for scale in (0.5, 2.0**40):
            for ranges in (None, np.full(3, 0.5)):
                with pytest.raises(ValueError, match=message):
                    label_ranges(w, scale, points, ranges)
        with pytest.raises(ValueError, match=message):
            label_ranges(w, 0.5, points, np.full(3, 1e300))


def _unit_steps(w, p, x):
    """x +- z for the unit l_p vector z maximising <w, z> (Hölder's equality
    case), each shrunk until lp_norm, the distance the certificate checks,
    reports at most 1."""
    if math.isinf(p):
        z = np.sign(w)
    elif p == 1.0:
        z = np.zeros_like(w)
        z[np.argmax(np.abs(w))] = np.sign(w[np.argmax(np.abs(w))])
    else:
        z = np.sign(w) * np.abs(w) ** (dual_exponent(p) - 1.0)
    z = z / lp_norm(z, p)
    steps = []
    for sign in (-1.0, 1.0):
        y, shrink = x + sign * z, 2.0**-40
        # far from the origin y - x rounds coarsely, so the steps grow
        while lp_norm(x - y, p) > 1.0:
            y, shrink = x + (y - x) * (1.0 - shrink), 2.0 * shrink
        steps.append(y)
    return steps


class TestAdjacency:
    @given(
        PROVEN,
        EXPONENTS,
        st.integers(min_value=1, max_value=24),
        SEEDS,
        st.floats(min_value=0.0, max_value=0.999999999),
    )
    @settings(deadline=4000, max_examples=60)
    def test_close_points_land_in_adjacent_buckets(self, kind, p, d, seed, radius):
        """The deterministic guarantee: a pair within l_p distance 1 is
        certified, for every draw of the hash vector.

        The radius stays a hair under 1 so that rounding in x + offset
        cannot push the realized distance past the contract boundary.
        """
        h = sample_vector(kind, p, d, seed)
        rng = stream(seed, 99)
        x = rng.standard_normal(d) * 5.0
        direction = rng.standard_normal(d)
        norm = lp_norm(direction, p)
        if norm == 0.0:
            direction[0] = 1.0
            norm = 1.0
        y = x + direction * (radius / norm)
        assert adjacency_certificate(h, x, y)

    @given(
        PROVEN,
        st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
        st.sampled_from([2, 3, 8]),
        st.sampled_from([4.0, 100.0, 4e6]),
        SEEDS,
    )
    @example(FamilyKind.UNIT_SPHERE, 2.0, 8, 4.0, 0)
    @settings(deadline=None, max_examples=60)
    def test_pairs_on_bucket_edges_are_certified(self, kind, p, d, spread, seed):
        """In doubles, as acceptance criterion 11 builds them: anchors with
        scale * <w, x> an integer, and partners a computed distance of at
        most 1 away along the direction that moves the projection the most.
        Floored projections of such a pair can lie 2 apart (at unit_sphere,
        p = 2, d = 8, near 4, about one pair in eight), so the certificate
        asks whether x's label lies in y's range, as the index does."""
        h = sample_vector(kind, p, d, seed)
        for start in stream(seed, 98).standard_normal((16, d)) * spread:
            t = h.scale * (h.w @ start)
            x = start + ((np.round(t) - t) / (h.scale * (h.w @ h.w))) * h.w
            for y in _unit_steps(h.w, p, x):
                assert adjacency_certificate(h, x, y)

    def test_exact_unit_distance_is_in_contract(self):
        """Distance exactly 1 is inside the closed contract ball."""
        for kind in PROVEN_ADJACENCY_KINDS:
            h = sample_vector(kind, 2.0, 6, 123)
            x = np.zeros(6)
            y = np.zeros(6)
            y[0] = 1.0
            assert adjacency_certificate(h, x, y)

    def test_distant_points_rejected(self):
        h = sample_vector(FamilyKind.UNIFORM_CUBE, 2.0, 4, 0)
        with pytest.raises(ValueError):
            adjacency_certificate(h, np.zeros(4), np.full(4, 2.0))

    def test_experimental_kind_rejected(self):
        h = sample_vector(FamilyKind.LQ_SPHERE_EXPERIMENTAL, 2.0, 4, 0, q=2.0)
        with pytest.raises(ValueError):
            adjacency_certificate(h, np.zeros(4), np.zeros(4))


class TestLpSphereBlock:
    @given(
        st.one_of(st.floats(min_value=1.0, max_value=16.0), st.just(math.inf)),
        st.integers(min_value=1, max_value=16),
    )
    @settings(deadline=4000, max_examples=30)
    def test_rows_on_requested_sphere(self, q, d):
        block = lp_sphere_block(stream(5, 0), d, q, 50)
        assert block.shape == (50, d)
        for row in block:
            assert lp_norm(row, q) == pytest.approx(1.0, abs=1e-10)

    def test_sign_symmetry(self):
        block = lp_sphere_block(stream(8, 0), 4, 1.0, 40000)
        assert abs(float(np.mean(block > 0)) - 0.5) < 0.01
