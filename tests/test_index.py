"""Tests for the bucket index: level selection, storage layouts, the
no-false-negative query guarantee, and the binary image format."""

import dataclasses
import gc
import hashlib
import itertools
import math
import pickle
import struct
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from crafted_images import (
    CONTRADICTION_IDS,
    CONTRADICTIONS,
    contradicting,
    limit_draws,
    restated,
    retagged,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floorlsh import index as index_module
from floorlsh.exact import range_search_exact, recall_report
from floorlsh.families import (
    FamilyKind,
    HashFunction,
    c_threshold,
    false_positive_bound,
    label_ranges,
    reach_bound,
    sample_vector,
)
from floorlsh.index import (
    MAX_LEVELS,
    IndexConfig,
    LshIndex,
    Variant,
    _Fingerprinter,
    choose_levels,
)
from floorlsh.lpspace import dual_exponent, lp_distances, lp_norm


def _config(**overrides):
    base = dict(
        p=2.0,
        d=6,
        c=20.0,
        kind=FamilyKind.UNIFORM_CUBE,
        variant=Variant.FAST_PREPROCESSING,
        levels=3,
        master_seed=7,
    )
    base.update(overrides)
    return IndexConfig(**base)


def _cloud(n=400, d=6, seed=0, spread=0.5):
    """Gaussian cloud tight enough that many pairs sit within distance 1."""
    return np.random.default_rng(seed).standard_normal((n, d)) * spread


def _reach_counts(index, rows):
    """Labels per level within each drawn vector's reach of ``rows``,
    counted apart from the index: floor(v + r) - floor(v - r) + 1 with
    v = scale * <w, x> from np.dot and r = scale * ||w||_q, no rounding
    margin, which moves a count only for v +- r within about 1e-13 of an
    integer."""
    q = dual_exponent(index.config.p)
    counts = []
    for h in index.hash_functions:
        v = h.scale * np.array([np.dot(h.w, x) for x in rows])
        r = h.scale * lp_norm(h.w, q)
        counts.append(np.floor(v + r) - np.floor(v - r) + 1)
    return np.array(counts).T.astype(np.int64)


class TestChooseLevels:
    def test_hand_worked_values(self):
        assert choose_levels(Variant.FAST_PREPROCESSING, 10**6, 8, 1 / 3) == 7
        assert choose_levels(Variant.FAST_QUERY, 10**6, 8, 1 / 3) == 11
        assert choose_levels(Variant.FAST_QUERY, 100, 200, 1 / 3) == 1

    def test_fast_preprocessing_tracks_the_cost_balance(self):
        """The closed form lands within one level of the integer minimizer
        of probe cost 3^L plus expected candidate cost n * fp^L."""
        for n in (10, 100, 10**4, 10**6):
            for fp in (0.1, 1 / 3, 0.5, 0.9):
                chosen = choose_levels(Variant.FAST_PREPROCESSING, n, 8, fp)
                costs = [3.0**level + n * fp**level for level in range(1, 61)]
                best = 1 + int(np.argmin(costs))
                assert abs(chosen - best) <= 1

    def test_fast_query_thins_far_survivors_to_dimension_order(self):
        """L is the least level count with n * fp^L at or below d, and a
        count above MAX_LEVELS is refused (n = 10^4 and 10^6 at fp = 0.9)."""
        for n in (10, 100, 10**4, 10**6):
            for fp in (0.1, 1 / 3, 0.5, 0.9):
                d = 8
                if n * fp**MAX_LEVELS > d * (1.0 + 1e-9):
                    with pytest.raises(ValueError, match="automatic fast_query level rule"):
                        choose_levels(Variant.FAST_QUERY, n, d, fp)
                    continue
                level = choose_levels(Variant.FAST_QUERY, n, d, fp)
                assert n * fp**level <= d * (1.0 + 1e-9)
                if level > 1:
                    assert n * fp ** (level - 1) > d * (1.0 - 1e-9)

    def test_rejects_unusable_bounds(self):
        for bound in (None, 1.0, 0.0, math.nan):
            with pytest.raises(ValueError, match="explicit level count"):
                choose_levels(Variant.FAST_QUERY, 100, 8, bound)
        with pytest.raises(ValueError):
            choose_levels(Variant.FAST_QUERY, 0, 8, 0.5)
        with pytest.raises(ValueError):
            choose_levels(Variant.FAST_QUERY, 100, 0, 0.5)


class TestIndexConfig:
    def test_threshold_gate_on_the_approximation_factor(self):
        threshold = c_threshold(FamilyKind.UNIFORM_CUBE, 2.0, 6)
        with pytest.raises(ValueError, match="threshold"):
            _config(c=threshold)
        cfg = _config(c=threshold, unsafe_override=True)
        assert cfg.c == threshold

    def test_families_without_adjacency_are_rejected(self):
        with pytest.raises(ValueError, match="adjacency"):
            _config(kind=FamilyKind.LQ_SPHERE_EXPERIMENTAL)

    def test_rejects_malformed_fields(self):
        with pytest.raises(ValueError):
            _config(levels=0)
        with pytest.raises(ValueError):
            _config(d=0)
        with pytest.raises(ValueError):
            _config(c=0.5)
        with pytest.raises(ValueError):
            _config(master_seed=2**64)
        with pytest.raises(ValueError):
            _config(master_seed=-1)
        with pytest.raises(ValueError):
            _config(max_entries=0)

    def test_levels_above_the_cap_are_rejected(self):
        """A config past MAX_LEVELS is refused, so a build asking for 10^9
        levels fails before it draws a vector."""
        assert _config(levels=MAX_LEVELS).levels == MAX_LEVELS
        for levels in (MAX_LEVELS + 1, 10**9):
            with pytest.raises(ValueError, match=f"levels must be in \\[1, {MAX_LEVELS}\\]"):
                _config(levels=levels)

    def test_an_automatic_level_count_past_the_cap_is_refused(self):
        """Near the threshold (bound 0.952) fast_query's rule asks for
        L = 114 at n = 2,000; the build names the rule, L and the cap, not
        the levels field the caller left to auto."""
        tau = c_threshold(FamilyKind.UNIFORM_CUBE, 2.0, 8)
        config = IndexConfig(p=2.0, d=8, c=1.05 * tau, kind=FamilyKind.UNIFORM_CUBE,
                             variant=Variant.FAST_QUERY)
        points = np.random.default_rng(0).standard_normal((2000, 8))
        with pytest.raises(ValueError, match="automatic fast_query level rule gives "
                           f"L = 114 .* cap of {MAX_LEVELS} levels; use a larger c"):
            LshIndex.build(points, config)

    def test_a_nan_factor_is_rejected_and_an_infinite_one_kept(self):
        with pytest.raises(ValueError, match="approximation factor"):
            _config(c=math.nan)
        assert _config(c=math.inf).c == math.inf

    def test_derived_properties_match_the_family_formulas(self):
        cfg = _config()
        assert cfg.false_positive_bound == false_positive_bound(
            cfg.kind, cfg.p, cfg.d, cfg.c
        )[0]


class TestStorageLayout:
    def test_entry_counts_per_variant(self):
        points = _cloud(n=50)
        fq = LshIndex.build(points, _config(variant=Variant.FAST_QUERY))
        fp = LshIndex.build(points, _config(variant=Variant.FAST_PREPROCESSING))
        assert fq.entry_count == _reach_counts(fq, points).prod(axis=1).sum()
        assert fq.entry_count < 50 * 3**3
        assert fp.entry_count == 50
        for index in (fq, fp):
            assert index.stats.entries == index.entry_count
            assert index.stats.unique_buckets == index.unique_bucket_count
            assert 0 < index.unique_bucket_count <= index.entry_count
            assert index.stats.approx_bytes > 0
        # points and vectors, 12 bytes per entry, and in fast_preprocessing
        # the occupancy map: 2^(6 + 3) one-byte cells for 50 entries
        held = points.nbytes + fq._w_matrix.nbytes
        assert fq.stats.approx_bytes == held + 12 * fq.entry_count
        assert fp.stats.approx_bytes == held + 12 * 50 + 2**9
        assert LshIndex.from_bytes(fp.to_bytes()).stats.approx_bytes == fp.stats.approx_bytes

    def test_automatic_level_selection_is_recorded(self):
        points = _cloud(n=500, d=4)
        cfg = IndexConfig(
            p=2.0,
            d=4,
            c=100.0,
            kind=FamilyKind.UNIFORM_CUBE,
            variant=Variant.FAST_QUERY,
            levels=None,
            master_seed=3,
        )
        index = LshIndex.build(points, cfg)
        expected = choose_levels(Variant.FAST_QUERY, 500, 4, cfg.false_positive_bound)
        assert index.levels == expected
        assert index.config.levels == expected

    def test_vacuous_bound_needs_an_explicit_level_count(self):
        points = _cloud(n=30)
        threshold = c_threshold(FamilyKind.UNIFORM_CUBE, 2.0, 6)
        cfg = _config(c=threshold, unsafe_override=True, levels=None)
        with pytest.raises(ValueError, match="explicit level count"):
            LshIndex.build(points, cfg)
        built = LshIndex.build(points, _config(c=threshold, unsafe_override=True, levels=2))
        assert built.levels == 2

    def test_memory_guard_blocks_oversized_replication(self):
        points = _cloud(n=100)
        cfg = _config(variant=Variant.FAST_QUERY, levels=5, max_entries=1000)
        with pytest.raises(ValueError, match="max_entries"):
            LshIndex.build(points, cfg)

    def test_memory_guard_admits_the_exact_entry_count(self):
        """The guard compares the exact ragged total, so a cap at that total
        builds and one entry less does not."""
        points = _cloud(n=100)
        entries = LshIndex.build(points, _config(variant=Variant.FAST_QUERY)).entry_count
        cfg = _config(variant=Variant.FAST_QUERY, max_entries=entries)
        assert LshIndex.build(points, cfg).entry_count == entries
        with pytest.raises(ValueError, match=f"{entries} entries"):
            LshIndex.build(points, replace(cfg, max_entries=entries - 1))

    def test_memory_guard_refuses_a_query_that_would_probe_past_it(self):
        """50 points build into 50 entries at 30 levels, but a query's
        ranges multiply to 3^30 probe keys; it is refused before any key of
        its batch is folded.  A guard at a query's exact probe count admits
        it."""
        points = _cloud(n=50, d=8)
        c = 2.0 * c_threshold(FamilyKind.UNIT_SPHERE, 2.0, 8)
        deep = LshIndex.build(points, _config(d=8, c=c, kind=FamilyKind.UNIT_SPHERE, levels=30))
        assert deep.entry_count == 50
        _, counts = deep._label_queries(points[:1])
        assert math.prod(counts[0].tolist()) == 3**30
        with pytest.raises(ValueError, match=f"probe {3**30} buckets, above the max_entries"):
            deep.query(points[0])
        with pytest.raises(ValueError, match="above the max_entries guard of 10000000"):
            deep.query_batch(points[:5])
        # the row of one key sorts first, yet nothing is folded
        fold = _Fingerprinter(7, 2).fold(np.zeros((2, 2), np.int64), np.array([[2, 2], [1, 1]]), 3)
        with pytest.raises(ValueError, match="probe 4 buckets"):
            next(fold)
        cfg = _config(d=8, levels=8)
        probes = LshIndex.build(points, cfg).query(points[0]).stats.buckets_probed
        assert probes > len(points)
        guarded = LshIndex.build(points, replace(cfg, max_entries=probes))
        assert guarded.query(points[0]).stats.buckets_probed == probes
        with pytest.raises(ValueError, match=f"probe {probes} buckets"):
            LshIndex.build(points, replace(cfg, max_entries=probes - 1)).query(points[0])

    def test_far_rows_are_refused_on_the_ranged_side_only(self):
        """A point whose rounding margin would reach a quarter label is
        refused where it would take a range, a fast_preprocessing query or a
        fast_query build, and takes its own label elsewhere."""
        points = _cloud(n=200)
        far = np.full(6, 1e15)
        probing = LshIndex.build(points, _config())
        with pytest.raises(ValueError, match="queries lie too far from the origin"):
            probing.query(far)
        with pytest.raises(ValueError, match="too far from the origin"):
            probing.query_batch(np.vstack([points[:3], far]))
        assert LshIndex.build(np.vstack([points, far]), _config()).entry_count == 201
        with pytest.raises(ValueError, match="points lie too far from the origin"):
            LshIndex.build(np.vstack([points, far]), _config(variant=Variant.FAST_QUERY))
        assert LshIndex.build(points, _config(variant=Variant.FAST_QUERY)).query(far).neighbors == []

    def test_reach_is_the_scaled_dual_norm_of_each_vector(self):
        index = LshIndex.build(_cloud(n=20), _config(kind=FamilyKind.UNIT_SPHERE, p=2.0))
        np.testing.assert_allclose(index.reach, 1.0, rtol=1e-12)
        index = LshIndex.build(_cloud(n=20), _config(p=math.inf, c=50.0))
        expected = [h.scale * np.abs(h.w).sum() for h in index.hash_functions]
        np.testing.assert_allclose(index.reach, expected, rtol=1e-12)
        assert (index.reach <= 1.0).all()

    def test_rejects_malformed_datasets(self):
        with pytest.raises(ValueError):
            LshIndex.build(np.empty((0, 6)), _config())
        with pytest.raises(ValueError):
            LshIndex.build(np.zeros(6), _config())
        with pytest.raises(ValueError):
            LshIndex.build(np.zeros((10, 5)), _config())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, bad):
        points = _cloud(n=20)
        points[7, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            LshIndex.build(points, _config())

    def test_rejects_2_to_the_31_points_before_copying_them(self):
        """Ids are 4 bytes; a zero-stride view of 2^31 rows is refused
        without allocating the 103 GB a copy of it would take."""
        points = np.broadcast_to(np.zeros(6), (2**31, 6))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2\\^31"):
                LshIndex.build(points, _config())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_labels_beyond_exact_integers(self):
        points = _cloud(n=20)
        points[3] = 1e20
        with pytest.raises(ValueError, match="2\\^53"):
            LshIndex.build(points, _config())

    def test_entries_are_sorted_by_key_then_id(self):
        for variant in Variant:
            index = LshIndex.build(_cloud(n=200), _config(variant=variant))
            keys, ids = index._entry_keys, index._entry_ids
            np.testing.assert_array_equal(np.lexsort((ids, keys)), np.arange(keys.size))

    def test_unique_bucket_count_counts_distinct_keys(self):
        for variant in Variant:
            index = LshIndex.build(_cloud(n=200), _config(variant=variant))
            distinct = np.unique(index._entry_keys).size
            assert index.unique_bucket_count == distinct
            assert index.stats.unique_buckets == distinct


def _explicit_keys(fingerprinter, lo, counts):
    """The keys of every tuple of one row's label ranges, one scalar mix at
    a time, tuples in lexicographic order."""
    keys = []
    with np.errstate(over="ignore"):
        for labels in itertools.product(
            *(range(int(a), int(a) + int(k)) for a, k in zip(lo, counts))
        ):
            key = np.uint64(0)
            for label, mult in zip(labels, fingerprinter.mults):
                value = np.uint64(label % 2**64)
                key ^= _mix_scalar((value * mult) ^ fingerprinter.init)
            keys.append(int(key))
    return keys


def _row_major(folded, rows):
    """The fold's (rows, keys) groups as one list of key lists per row."""
    out = [None] * rows
    for group, keys in folded:
        for row, row_keys in zip(group.tolist(), keys):
            out[row] = row_keys.tolist()
    return out


class TestFold:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**32),
        st.sampled_from([2**40, 2**62, 2**63]),
        st.sampled_from([None, 1, 7, 40]),
    )
    @settings(deadline=None, max_examples=80)
    def test_a_ragged_fold_is_the_explicit_cross_product(
        self, levels, master_seed, rows, seed, span, chunk
    ):
        """Over random ranges of widths 1-4 (1-2 beyond 4 levels, which keeps
        the scalar reference quick), each row's keys equal, key for key and
        in lexicographic order of the tuples, the XOR over levels of the
        mixed level value, for labels near 0, near +-2^62 and anywhere in
        int64, where a range may wrap.  With a small ``chunk`` in place of
        _CHUNK_ENTRIES every block holds at most that many keys or exactly
        one row, and each row is still in exactly one block."""
        fingerprinter = _Fingerprinter(master_seed, levels)
        rng = np.random.default_rng(seed)
        lo = rng.integers(-span, span, (rows, levels))
        counts = rng.integers(1, 5 if levels <= 4 else 3, (rows, levels))
        with pytest.MonkeyPatch.context() as patch:
            if chunk is not None:
                patch.setattr(index_module, "_CHUNK_ENTRIES", chunk)
            folded = list(fingerprinter.fold(lo, counts))
        limit = index_module._CHUNK_ENTRIES if chunk is None else chunk
        assert sorted(np.concatenate([group for group, _ in folded]).tolist()) == list(
            range(rows)
        )
        for group, keys in folded:
            assert keys.dtype == np.uint64
            assert keys.shape == (len(group), counts[group[0]].prod())
            assert keys.size <= limit or len(group) == 1
        expected = [_explicit_keys(fingerprinter, a, k) for a, k in zip(lo, counts)]
        assert _row_major(folded, rows) == expected

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(deadline=None, max_examples=60)
    def test_a_batch_folds_as_its_rows_one_by_one(self, levels, master_seed, rows, seed):
        fingerprinter = _Fingerprinter(master_seed, levels)
        rng = np.random.default_rng(seed)
        lo = rng.integers(-(2**40), 2**40, (rows, levels))
        counts = rng.integers(1, 4, (rows, levels))
        batch = _row_major(fingerprinter.fold(lo, counts), rows)
        for i in range(rows):
            [(_, keys)] = fingerprinter.fold(lo[i : i + 1], counts[i : i + 1])
            assert keys.tolist() == [batch[i]]

    def test_fast_query_buckets_are_the_distinct_stored_label_tuples(self):
        """No two distinct stored label tuples share a key."""
        points = _cloud(n=200)
        index = LshIndex.build(points, _config(variant=Variant.FAST_QUERY))
        bounds = reach_bound(index._w_matrix, index._scale, index.config.p)
        lo, counts = label_ranges(index._w_matrix, index._scale, points, bounds)
        stored = {
            labels
            for a, k in zip(lo.tolist(), counts.tolist())
            for labels in itertools.product(*(range(x, x + w) for x, w in zip(a, k)))
        }
        assert index.unique_bucket_count == len(stored)


_TOP = 2**64 - 1


class TestEntryLayout:
    @given(
        st.sampled_from(list(Variant)),
        st.integers(min_value=1, max_value=7),
        st.sampled_from(["1", "2", "2^k", "2^k+1"]),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([_TOP, 0xC000000000000000, 0xC0000000000000FF]),
        st.integers(min_value=0, max_value=2**32),
    )
    @example(Variant.FAST_QUERY, 3, "2^k+1", 2, 0xC0000000000000FF, 0)
    @settings(deadline=None, max_examples=60)
    def test_entries_are_the_lexsorted_truncated_keys(
        self, variant, k, size, levels, keep, seed
    ):
        """Keys and ids equal the np.lexsort order of (folded key without its
        low bit_length(entries - 1) bits, owning point's id), for
        n in {1, 2, 2^k, 2^k + 1}, where point i owns the product of its
        range widths of consecutive entries.  Folds cut down to the bits of
        ``keep`` make many entries share a key, or differ only in the low
        bits that buckets leave out, so ids must order each run."""
        n = {"1": 1, "2": 2, "2^k": 2**k, "2^k+1": 2**k + 1}[size]
        points = _cloud(n=n, seed=seed)
        cut = np.uint64(keep)
        fold = _Fingerprinter.fold

        def cut_fold(self, *args):
            return [(rows, keys & cut) for rows, keys in fold(self, *args)]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Fingerprinter, "fold", cut_fold)
            index = LshIndex.build(points, _config(variant=variant, levels=levels))
            ranged = variant is Variant.FAST_QUERY
            bounds = reach_bound(index._w_matrix, index._scale, 2.0) if ranged else None
            lo, counts = label_ranges(index._w_matrix, index._scale, points, bounds)
            keys = np.array(
                [key for row in _row_major(index._fingerprinter.fold(lo, counts), n)
                 for key in row],
                dtype=np.uint64,
            )
        owners = np.repeat(np.arange(n), counts.prod(axis=1))
        keys &= ~np.uint64((1 << (keys.size - 1).bit_length()) - 1)
        order = np.lexsort((owners, keys))
        assert index._entry_ids.dtype == np.int32
        np.testing.assert_array_equal(index._entry_keys, keys[order])
        np.testing.assert_array_equal(index._entry_ids, owners[order])


def _mix_scalar(value):
    """The 64-bit finalizer the index mixes with, one scalar at a time."""
    value ^= value >> np.uint64(33)
    value *= np.uint64(0xFF51AFD7ED558CCD)
    value ^= value >> np.uint64(29)
    value *= np.uint64(0xC4CEB9FE1A85EC53)
    value ^= value >> np.uint64(32)
    return value


class TestQueryGuarantees:
    def _audit(self, variant, kind, p, c):
        points = _cloud(n=300, seed=5)
        queries = points[:25] + 0.05
        index = LshIndex.build(points, _config(variant=variant, kind=kind, p=p, c=c))
        for query in queries:
            result = index.query(query)
            distances = lp_distances(points, query, p)
            returned = {point_id for point_id, _ in result.neighbors}
            for point_id, distance in result.neighbors:
                assert distance <= c
                assert distance == pytest.approx(distances[point_id], rel=1e-12)
            must = set(np.flatnonzero(distances <= 1.0).tolist())
            assert must <= returned, f"missed required neighbors {must - returned}"
            pairs = [(dist, point_id) for point_id, dist in result.neighbors]
            assert pairs == sorted(pairs)
            assert result.stats.distance_evals <= result.stats.candidates_scanned

    def test_no_false_negatives_fast_preprocessing(self):
        self._audit(Variant.FAST_PREPROCESSING, FamilyKind.UNIFORM_CUBE, 2.0, 20.0)

    def test_no_false_negatives_fast_query(self):
        self._audit(Variant.FAST_QUERY, FamilyKind.UNIFORM_CUBE, 2.0, 20.0)

    def test_no_false_negatives_other_families_and_norms(self):
        self._audit(Variant.FAST_PREPROCESSING, FamilyKind.UNIT_SPHERE, 2.0, 6.0)
        self._audit(Variant.FAST_PREPROCESSING, FamilyKind.RADEMACHER, 2.0, 20.0)
        self._audit(Variant.FAST_PREPROCESSING, FamilyKind.UNIFORM_CUBE, 1.0, 20.0)
        self._audit(Variant.FAST_PREPROCESSING, FamilyKind.UNIFORM_CUBE, math.inf, 50.0)

    def test_guarantee_survives_an_unsafe_factor(self):
        """Forcing c below the threshold forfeits the false-positive bound
        but never the recall guarantee."""
        points = _cloud(n=200, seed=9)
        cfg = _config(c=1.5, unsafe_override=True, levels=2)
        index = LshIndex.build(points, cfg)
        records = recall_report(index, points, points[:20] + 0.03)
        assert all(record.recall == 1.0 for record in records)
        assert all(record.missing == () for record in records)

    def test_probe_counts_per_variant(self):
        """fast_query reads one bucket; fast_preprocessing probes the product
        of the query's range widths, each 1 + 2 r_l labels or one more."""
        points = _cloud(n=120)
        fq = LshIndex.build(points, _config(variant=Variant.FAST_QUERY))
        fp = LshIndex.build(points, _config(variant=Variant.FAST_PREPROCESSING))
        queries = points[:20] + 0.01
        widths = _reach_counts(fp, queries)
        for query, width in zip(queries, widths):
            assert fq.query(query).stats.buckets_probed == 1
            assert fp.query(query).stats.buckets_probed == width.prod()
        assert [r.stats.buckets_probed for r in fp.query_batch(queries)] == list(
            widths.prod(axis=1)
        )

    def test_rejects_wrong_query_shape(self):
        index = LshIndex.build(_cloud(n=20), _config())
        with pytest.raises(ValueError):
            index.query(np.zeros(5))
        with pytest.raises(ValueError):
            index.query_batch(np.zeros(6))

    def test_rejects_non_finite_queries(self):
        index = LshIndex.build(_cloud(n=20), _config())
        with pytest.raises(ValueError, match="finite"):
            index.query(np.array([0.0, 1.0, math.nan, 0.0, 0.0, 0.0]))
        queries = _cloud(n=4)
        queries[2, 0] = math.inf
        with pytest.raises(ValueError, match="finite"):
            index.query_batch(queries)

    def test_rejects_queries_beyond_exact_integers(self):
        index = LshIndex.build(_cloud(n=20), _config())
        with pytest.raises(ValueError, match="2\\^53"):
            index.query(np.full(6, -1e20))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_batch_answers_query_by_query(self, variant, monkeypatch):
        """A batch answers, stats included, exactly as single queries do,
        also when it spans many chunks; chunking leaves the build alone."""
        points = _cloud(n=300, seed=4)
        index = LshIndex.build(points, _config(variant=variant))
        queries = np.vstack([points[:40] + 0.03, _cloud(n=10, seed=8) * 20])
        singles = [index.query(q) for q in queries]
        assert index.query_batch(queries) == singles
        assert index.query_batch(np.empty((0, 6))) == []
        monkeypatch.setattr(index_module, "_CHUNK_ENTRIES", 16)
        chunked = LshIndex.build(points, _config(variant=variant))
        np.testing.assert_array_equal(chunked._entry_keys, index._entry_keys)
        np.testing.assert_array_equal(chunked._entry_ids, index._entry_ids)
        assert chunked.query_batch(queries) == singles

    @pytest.mark.parametrize("variant", list(Variant))
    def test_lookup_edges_answer_as_rows_one_by_one(self, variant):
        """A fast_query probe that finds no bucket, a fast_preprocessing
        query whose probes the occupancy map screens out entirely, and a
        batch mixing them with near queries of other range widths answer as
        their rows do one by one, and every within-1 answer equals brute force
        (test_batch_answers_query_by_query covers the empty batch)."""
        points = _cloud(n=300, seed=6)
        index = LshIndex.build(points, _config(variant=variant))
        far = _cloud(n=200, seed=11, spread=40.0)
        lo, counts = index._label_queries(far)

        def finds_nothing(row):
            [(_, keys)] = index._fingerprinter.fold(lo[row : row + 1], counts[row : row + 1])
            keys &= index._key_mask
            if index._occupied is None:
                return not np.isin(keys, index._entry_keys).any()
            return not index._occupied[keys >> index._cell_shift].any()

        lonely = far[next(row for row in range(len(far)) if finds_nothing(row))]
        batch = np.vstack([points[:30] + 0.02, lonely, far[:20], points[40:50] - 0.3])
        widths = index._label_queries(batch)[1]
        if variant is Variant.FAST_PREPROCESSING:
            assert len(np.unique(widths, axis=0)) > 1
        results = index.query_batch(batch)
        assert results == [index.query(query) for query in batch]
        assert results[30].neighbors == [] and results[30].stats.candidates_scanned == 0
        assert results[30].stats.buckets_probed == widths[30].prod()
        for query, result in zip(batch, results):
            distances = lp_distances(points, query, 2.0)
            within = np.flatnonzero(distances <= 1.0)
            expected = sorted(zip(distances[within].tolist(), within.tolist()))
            assert [(dist, i) for i, dist in result.neighbors if dist <= 1.0] == expected

    @pytest.mark.parametrize(
        "variant, budget", [(Variant.FAST_QUERY, 56), (Variant.FAST_PREPROCESSING, 78)]
    )
    def test_a_query_stays_within_its_call_budget(self, variant, budget):
        """One query on a 500-point, L = 4 index makes at most ``budget``
        Python and C function calls, counted by a profile hook: a count no
        machine can move (numpy and Python upgrades can), which shows the
        fixed cost of a batch of one."""
        points = _cloud(n=500, seed=3)
        index = LshIndex.build(points, _config(variant=variant, levels=4))
        result, calls = _counted_calls(index.query, points[7] + 0.05)
        assert result.neighbors
        assert calls <= budget, calls

    @pytest.mark.parametrize(
        "variant, budget", [(Variant.FAST_QUERY, 1839), (Variant.FAST_PREPROCESSING, 2436)]
    )
    def test_a_batch_stays_within_its_call_budget(self, variant, budget):
        """A batch of 100 queries on the same index makes at most ``budget``
        calls: the batch's fixed cost once, and each query's verification."""
        points = _cloud(n=500, seed=3)
        index = LshIndex.build(points, _config(variant=variant, levels=4))
        results, calls = _counted_calls(index.query_batch, points[:100] + 0.05)
        assert all(result.neighbors for result in results)
        assert calls <= budget, calls

    def test_a_result_pickles_and_compares_by_value(self):
        """QueryResult and QueryStats are frozen slotted dataclasses: a
        result survives pickling, equals the same query answered again, and
        takes no attribute beyond its fields."""
        points = _cloud(n=200, seed=3)
        index = LshIndex.build(points, _config(variant=Variant.FAST_PREPROCESSING, levels=3))
        result = index.query(points[7] + 0.05)
        assert result.neighbors and result.stats.buckets_probed > 1
        copy = pickle.loads(pickle.dumps(result))
        assert copy == result == index.query(points[7] + 0.05)
        assert hash(copy.stats) == hash(result.stats)
        assert result != replace(result, neighbors=result.neighbors[1:])
        assert result.stats != replace(result.stats, distance_evals=0)
        for value in (result, result.stats):
            assert not hasattr(value, "__dict__")
            with pytest.raises(AttributeError):
                setattr(value, dataclasses.fields(value)[0].name, None)
            # Python 3.11's frozen slotted dataclasses raise TypeError here
            with pytest.raises((AttributeError, TypeError)):
                value.extra = 1

    @pytest.mark.parametrize("variant", list(Variant))
    def test_a_point_met_twice_is_verified_once(self, variant):
        """Folds cut down to their top two bits put many label tuples under
        one key, so a fast_query bucket holds a point once per tuple of its
        that shares the key, and fast_preprocessing probes gather one bucket
        once per probe that shares it.  Each repeat is dropped before
        verification and counted, and the within-1 answers stay exact."""
        points, queries = _cloud(n=80), _cloud(n=12, seed=5)
        cut = np.uint64(0xC000000000000000)
        fold = _Fingerprinter.fold

        def cut_fold(self, *args):
            return [(rows, keys & cut) for rows, keys in fold(self, *args)]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Fingerprinter, "fold", cut_fold)
            results = LshIndex.build(points, _config(variant=variant)).query_batch(queries)
        assert sum(result.stats.duplicates_suppressed for result in results) > 0
        for query, result in zip(queries, results):
            stats = result.stats
            assert stats.distance_evals + stats.duplicates_suppressed == stats.candidates_scanned
            ids = [point_id for point_id, _ in result.neighbors]
            assert len(ids) == len(set(ids))
            within = [point_id for point_id, distance in result.neighbors if distance <= 1.0]
            assert sorted(within) == range_search_exact(points, query, 1.0, 2.0).tolist()


def _counted_calls(method, queries):
    """``method(queries)`` and the Python and C function calls it makes,
    counted by a profile hook after a first, uncounted call.  The garbage
    collector is off while counting: a collection would add the calls of
    any gc callback (hypothesis registers one)."""
    method(queries)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    gc.disable()
    sys.setprofile(count)
    try:
        result = method(queries)
    finally:
        sys.setprofile(None)
        gc.enable()
    return result, calls


class TestVariantEquivalence:
    @given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=0, max_value=10))
    @settings(deadline=20000, max_examples=10)
    def test_variants_agree_within_distance_1(self, master_seed, cloud_seed):
        """Same master seed, same points: both layouts return exactly the
        points within distance 1, with the same distances.  Their answers
        in (1, c] may differ: a ranged stored point reaches a query's cell,
        a ranged query reaches a stored point's cell."""
        points = _cloud(n=150, seed=cloud_seed)
        fq = LshIndex.build(
            points, _config(variant=Variant.FAST_QUERY, master_seed=master_seed)
        )
        fp = LshIndex.build(
            points, _config(variant=Variant.FAST_PREPROCESSING, master_seed=master_seed)
        )
        for query in points[:10] + 0.04:
            distances = lp_distances(points, query, 2.0)
            must = [(i, distances[i]) for i in np.flatnonzero(distances <= 1.0)]
            for index in (fq, fp):
                near = [(i, t) for i, t in index.query(query).neighbors if t <= 1.0]
                assert sorted(near) == must

    def test_rebuild_is_bit_reproducible(self):
        points = _cloud(n=80)
        one = LshIndex.build(points, _config())
        two = LshIndex.build(points, _config())
        np.testing.assert_array_equal(one._entry_keys, two._entry_keys)
        np.testing.assert_array_equal(one._entry_ids, two._entry_ids)
        assert one.to_bytes() == two.to_bytes()
        query = points[3] + 0.01
        assert one.query(query) == two.query(query)

    def test_master_seed_changes_the_hashes(self):
        points = _cloud(n=40)
        one = LshIndex.build(points, _config(master_seed=1))
        two = LshIndex.build(points, _config(master_seed=2))
        assert not np.array_equal(one.hash_functions[0].w, two.hash_functions[0].w)


#: SHA-256 of the image of a 60-point cloud (seed 1) built with _config().
GOLDEN_IMAGES = [
    (Variant.FAST_QUERY, "74314efab3fea66231d6ec6651ac3e604d9badc66894c1bb5903093ab2bed27f"),
    (Variant.FAST_PREPROCESSING,
     "f428584807f42d9a311143db6e4f7dc45f12426ebb4736f988dbe4139659a20c"),
]

#: Entry count and SHA-256 of the entry keys ("<u8") followed by the entry
#: ids ("<i4") of the same index.
GOLDEN_ENTRIES = [
    (Variant.FAST_QUERY, 664,
     "a2cf0d7537f20f4a37b79c62e83546e2ca1db1a25f8e698b75358297c7dc8f57"),
    (Variant.FAST_PREPROCESSING, 60,
     "86a00fd0e5f04320c8189ebf7260f12397514d646a026f735b6f34a4c714968f"),
]


class TestSerialization:
    def _round_trip(self, index):
        return LshIndex.from_bytes(index.to_bytes())

    @pytest.mark.parametrize("variant, digest", GOLDEN_IMAGES)
    def test_image_bytes_are_golden(self, variant, digest):
        """Any drift in the image layout, the points or the vectors' digest
        shows here."""
        index = LshIndex.build(_cloud(n=60, seed=1), _config(variant=variant))
        assert hashlib.sha256(index.to_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("variant, entries, digest", GOLDEN_ENTRIES)
    def test_entry_arrays_are_golden(self, variant, entries, digest):
        """Any drift in the labels, the keys or the ids shows here, built or
        loaded."""
        index = LshIndex.build(_cloud(n=60, seed=1), _config(variant=variant))
        for each in (index, self._round_trip(index)):
            assert each.entry_count == entries
            digest_of = hashlib.sha256(each._entry_keys.astype("<u8").tobytes())
            digest_of.update(each._entry_ids.astype("<i4").tobytes())
            assert digest_of.hexdigest() == digest

    @pytest.mark.parametrize("variant", list(Variant))
    def test_loaded_stats_are_the_built_ones(self, variant):
        """Statistics are derived from the arrays, so a loaded index reports
        the built one's, apart from the build time an image does not hold."""
        index = LshIndex.build(_cloud(n=70, seed=3), _config(variant=variant))
        assert index.stats.seconds > 0.0
        assert self._round_trip(index).stats == replace(index.stats, seconds=0.0)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_index_arrays_are_read_only(self, variant):
        """Queries only read the index, so a built or a loaded index refuses
        writes into its points and entries; the caller's points stay
        writable."""
        points = _cloud(n=70, seed=3)
        index = LshIndex.build(points, _config(variant=variant))
        points[0, 0] = 1.0
        for each in (index, self._round_trip(index)):
            for array in (each.points, each._entry_keys, each._entry_ids):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0

    def test_image_round_trips_with_identical_answers(self):
        points = _cloud(n=90, seed=2)
        for variant in Variant:
            index = LshIndex.build(points, _config(variant=variant))
            clone = self._round_trip(index)
            assert clone.config == index.config
            assert clone.levels == index.levels
            np.testing.assert_array_equal(clone._entry_keys, index._entry_keys)
            np.testing.assert_array_equal(clone._entry_ids, index._entry_ids)
            assert clone.hash_functions == index.hash_functions
            # an image records no build time
            assert clone.stats == replace(index.stats, seconds=0.0)
            for query in points[:8] + 0.02:
                assert clone.query(query) == index.query(query)

    def test_infinite_norm_round_trips(self):
        points = _cloud(n=30)
        index = LshIndex.build(points, _config(p=math.inf, c=50.0))
        clone = self._round_trip(index)
        assert clone.config.p == math.inf
        query = points[1] + 0.01
        assert clone.query(query) == index.query(query)

    def test_save_and_load(self, tmp_path):
        points = _cloud(n=25)
        index = LshIndex.build(points, _config())
        path = tmp_path / "index.bin"
        index.save(path)
        assert path.read_bytes() == index.to_bytes()
        clone = LshIndex.load(path)
        assert clone.query(points[0]) == index.query(points[0])

    def test_corruption_is_detected(self):
        blob = bytearray(LshIndex.build(_cloud(n=15), _config()).to_bytes())
        blob[60] ^= 0xFF
        with pytest.raises(ValueError, match="checksum"):
            LshIndex.from_bytes(bytes(blob))

    def test_truncation_is_detected(self):
        blob = LshIndex.build(_cloud(n=15), _config()).to_bytes()
        with pytest.raises(ValueError, match="truncated"):
            LshIndex.from_bytes(blob[: len(blob) - 10])
        with pytest.raises(ValueError, match="truncated"):
            LshIndex.from_bytes(blob[:4])
        # a checksummed payload too short to hold the fixed block
        payload = bytes(8)
        header = index_module._HEADER.pack(
            index_module._FILE_MAGIC, index_module._FILE_VERSION, len(payload),
            hashlib.sha256(payload).digest(),
        )
        with pytest.raises(ValueError, match="truncated"):
            LshIndex.from_bytes(header + payload)

    def test_trailing_bytes_are_detected(self):
        blob = LshIndex.build(_cloud(n=15), _config()).to_bytes()
        with pytest.raises(ValueError, match="truncated"):
            LshIndex.from_bytes(blob + b"xx")

    def test_foreign_bytes_are_rejected(self):
        with pytest.raises(ValueError, match="not an index image"):
            LshIndex.from_bytes(b"\x00" * 64)

    @pytest.mark.parametrize(
        "field, tag, message",
        [(0, 7, "unknown family tag 7"), (1, 7, "unknown variant tag 7"),
         (0, 3, "lq_sphere_experimental")],
    )
    def test_bad_tags_are_rejected(self, field, tag, message):
        blob = LshIndex.build(_cloud(n=15), _config()).to_bytes()
        assert LshIndex.from_bytes(retagged(blob, 0, 1)).config == _config()
        with pytest.raises(ValueError, match=message):
            LshIndex.from_bytes(retagged(blob, field, tag))

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("craft, message", CONTRADICTIONS, ids=CONTRADICTION_IDS)
    def test_an_image_that_contradicts_itself_is_rejected(
        self, variant, craft, message, monkeypatch
    ):
        """No points, a digest of other hash vectors than its seeds draw (a
        changed digest, or a changed master seed), more levels than
        MAX_LEVELS (refused before a vector is drawn), points a build would
        refuse (non-finite, or beyond exact labels), points taking more
        entries than the image's own max_entries guard or bytes after the
        digest fail the load, not a later query, and name what is wrong."""
        index = LshIndex.build(_cloud(n=30), _config(variant=variant))
        limit_draws(monkeypatch)
        with pytest.raises(ValueError, match=message):
            LshIndex.from_bytes(contradicting(index.to_bytes(), craft))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_a_sampler_that_draws_other_bits_is_refused(self, variant, monkeypatch):
        """Were numpy's streams to change, load would redraw other vectors;
        it refuses the image and asks for a rebuild instead of answering
        with them.  A vector one ulp away is enough."""
        blob = LshIndex.build(_cloud(n=30), _config(variant=variant)).to_bytes()

        def shifted(*args):
            h = sample_vector(*args)
            w = np.nextafter(h.w, np.inf)
            return HashFunction(h.kind, h.p, h.d, h.seed, w, h.scale)

        monkeypatch.setattr(index_module, "sample_vector", shifted)
        with pytest.raises(ValueError, match="vector digest mismatch.*rebuild the index"):
            LshIndex.from_bytes(blob)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_an_image_stating_another_version_is_refused(self, variant):
        blob = LshIndex.build(_cloud(n=15), _config(variant=variant)).to_bytes()
        assert restated(blob, 8) == blob
        with pytest.raises(ValueError, match="unsupported index image version 9"):
            LshIndex.from_bytes(restated(blob, 9))

    @pytest.mark.parametrize("version", range(1, 8))
    def test_retired_images_ask_for_a_rebuild(self, version):
        header = struct.pack("<8sHQ32s", b"FLSHIDX%d" % version, version, 8, bytes(32))
        with pytest.raises(ValueError, match=f"FLSHIDX{version}.*version {version}.*rebuild"):
            LshIndex.from_bytes(header + bytes(8))

    def test_a_misaligned_buffer_still_loads_aligned_arrays(self):
        index = LshIndex.build(_cloud(n=40), _config(variant=Variant.FAST_QUERY))
        blob = index.to_bytes()
        shifted = bytearray(len(blob) + 1)
        shifted[1:] = blob
        clone = LshIndex.from_bytes(memoryview(shifted)[1:])
        np.testing.assert_array_equal(clone._entry_keys, index._entry_keys)
        np.testing.assert_array_equal(clone._entry_ids, index._entry_ids)
        queries = _cloud(n=10, seed=4)
        assert clone.query_batch(queries) == index.query_batch(queries)
