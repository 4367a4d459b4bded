"""Tests for the brute-force ground-truth and audit helpers."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from floorlsh.exact import (
    GroundTruth,
    RecallRecord,
    ground_truth,
    range_search_exact,
    recall_report,
    write_ground_truth_jsonl,
    write_recall_jsonl,
)
from floorlsh.lpspace import lp_norm

POINTS = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
ORIGIN = np.zeros(2)


class TestRangeSearch:
    def test_radius_boundary_is_inclusive(self):
        np.testing.assert_array_equal(range_search_exact(POINTS, ORIGIN, 5.0, 2.0), [0, 1])
        np.testing.assert_array_equal(range_search_exact(POINTS, ORIGIN, 4.999, 2.0), [0])
        np.testing.assert_array_equal(
            range_search_exact(POINTS, ORIGIN, 10.0, 2.0), [0, 1, 2]
        )

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            range_search_exact(POINTS, ORIGIN, -1.0, 2.0)


class TestGroundTruth:
    def test_neighborhoods_and_nearest(self):
        truths = ground_truth(POINTS, np.array([[3.0, 3.0]]), c=5.0, p=2.0, r=1.0)
        truth = truths[0]
        assert truth.query_id == 0
        assert truth.within_r.tolist() == [1]
        assert truth.within_c.tolist() == [0, 1]
        assert truth.nearest_id == 1
        assert truth.nearest_distance == 1.0

    def test_neighborhoods_are_sorted_read_only_int64_arrays(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((60, 3))
        for truth in ground_truth(points, rng.standard_normal((4, 3)), c=2.5, p=1.0):
            for ids in (truth.within_r, truth.within_c):
                assert ids.dtype == np.int64
                assert not ids.flags.writeable
                assert np.all(ids[1:] > ids[:-1])

    def test_must_return_ids_are_acceptable_too(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((40, 3))
        queries = rng.standard_normal((5, 3))
        for truth in ground_truth(points, queries, c=2.0, p=2.0):
            assert set(truth.within_r) <= set(truth.within_c)
            assert truth.nearest_distance == pytest.approx(
                lp_norm(points[truth.nearest_id] - queries[truth.query_id], 2.0)
            )

    def test_rejects_factor_below_radius(self):
        with pytest.raises(ValueError):
            ground_truth(POINTS, ORIGIN[None, :], c=0.5, p=2.0, r=1.0)


def _stub_index(answers, c=5.0, p=2.0):
    """Minimal object with the query interface the auditor relies on."""

    def query_batch(queries):
        assert len(queries) == len(answers)
        return [
            SimpleNamespace(
                neighbors=neighbors,
                stats=SimpleNamespace(candidates_scanned=len(neighbors)),
            )
            for neighbors in answers
        ]

    return SimpleNamespace(config=SimpleNamespace(c=c, p=p), query_batch=query_batch)


class TestRecallReport:
    def test_perfect_answers_audit_clean(self):
        index = _stub_index([[(1, 1.0), (0, 4.242640687119285)]])
        records = recall_report(index, POINTS, np.array([[3.0, 3.0]]))
        record = records[0]
        assert record.recall == 1.0
        assert record.precision == 1.0
        assert record.missing == ()
        assert record.extraneous == ()
        assert record.returned == (0, 1)
        assert record.candidates_scanned == 2

    def test_dropped_neighbor_is_reported_missing(self):
        index = _stub_index([[(0, 4.242640687119285)]])
        record = recall_report(index, POINTS, np.array([[3.0, 3.0]]))[0]
        assert record.missing == (1,)
        assert record.recall == 0.0
        assert record.precision == 1.0

    def test_far_junk_is_reported_extraneous(self):
        index = _stub_index([[(1, 1.0), (2, 5.830951894845301)]])
        record = recall_report(index, POINTS, np.array([[3.0, 3.0]]))[0]
        assert record.extraneous == (2,)
        assert record.precision == 0.5
        assert record.recall == 1.0

    def test_empty_must_return_set_counts_as_full_recall(self):
        index = _stub_index([[]], c=1.0)
        record = recall_report(index, POINTS, np.array([[50.0, 50.0]]))[0]
        assert record.within_r.tolist() == []
        assert record.recall == 1.0
        assert record.precision == 1.0


class TestJsonlWriters:
    def test_ground_truth_bytes_are_pinned(self, tmp_path):
        """Array-valued truths write the bytes that tuple-valued ones did."""
        queries = np.array([[3.0, 3.0], [50.0, 50.0], [0.0, 0.0]])
        path = tmp_path / "truth.jsonl"
        write_ground_truth_jsonl(path, ground_truth(POINTS, queries, c=5.0, p=2.0))
        assert path.read_bytes() == (
            b'{"query_id": 0, "within_r": [1], "within_c": [0, 1], "nearest_id": 1, '
            b'"nearest_distance": 1.0}\n'
            b'{"query_id": 1, "within_r": [], "within_c": [], "nearest_id": 2, '
            b'"nearest_distance": 60.8276253029822}\n'
            b'{"query_id": 2, "within_r": [0], "within_c": [0, 1], "nearest_id": 0, '
            b'"nearest_distance": 0.0}\n'
        )

    def test_ground_truth_round_trips(self, tmp_path):
        truths = [
            GroundTruth(0, np.array([1]), np.array([0, 1]), 1, 1.0),
            GroundTruth(1, np.array([], dtype=np.int64), np.array([2]), 2, 3.5),
        ]
        path = tmp_path / "truth.jsonl"
        write_ground_truth_jsonl(path, truths)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "query_id": 0,
            "within_r": [1],
            "within_c": [0, 1],
            "nearest_id": 1,
            "nearest_distance": 1.0,
        }

    def test_recall_round_trips(self, tmp_path):
        records = [
            RecallRecord(3, (5,), np.array([5]), np.array([5, 6]), 1.0, 1.0, (), (), 9)
        ]
        path = tmp_path / "audit.jsonl"
        write_recall_jsonl(path, records)
        payload = json.loads(path.read_text().splitlines()[0])
        assert payload == {
            "query_id": 3,
            "returned": [5],
            "recall": 1.0,
            "precision": 1.0,
            "missing": [],
            "extraneous": [],
            "candidates_scanned": 9,
        }
