"""Tests for the brute-force ground-truth and audit helpers."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from floorlsh.data import write_jsonl
from floorlsh.exact import (
    RecallRecord,
    ground_truth,
    range_search_exact,
    recall_report,
)

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
    def test_neighborhoods(self):
        truths = ground_truth(POINTS, np.array([[3.0, 3.0]]), c=5.0, p=2.0)
        truth = truths[0]
        assert truth.query_id == 0
        assert truth.within_r.tolist() == [1]
        assert truth.within_c.tolist() == [0, 1]

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

    def test_rejects_factor_below_radius(self):
        with pytest.raises(ValueError, match=r"c=0.5 must be >= r=1.0"):
            ground_truth(POINTS, ORIGIN[None, :], c=0.5, p=2.0)


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
        queries = np.array([[50.0, 50.0]])
        assert ground_truth(POINTS, queries, c=1.0, p=2.0)[0].within_r.size == 0
        record = recall_report(index, POINTS, queries)[0]
        assert record.recall == 1.0
        assert record.precision == 1.0


class TestJsonlWriters:
    def test_recall_bytes_are_pinned(self, tmp_path):
        """An audit line holds the record's fields, never the truth sets."""
        index = _stub_index([[(1, 1.0), (2, 5.830951894845301)], [], [(0, 0.0)]])
        queries = np.array([[3.0, 3.0], [50.0, 50.0], [0.0, 0.0]])
        path = tmp_path / "audit.jsonl"
        write_jsonl(path, map(vars, recall_report(index, POINTS, queries)))
        assert path.read_bytes() == (
            b'{"query_id": 0, "returned": [1, 2], "recall": 1.0, "precision": 0.5, '
            b'"missing": [], "extraneous": [2], "candidates_scanned": 2}\n'
            b'{"query_id": 1, "returned": [], "recall": 1.0, "precision": 1.0, '
            b'"missing": [], "extraneous": [], "candidates_scanned": 0}\n'
            b'{"query_id": 2, "returned": [0], "recall": 1.0, "precision": 1.0, '
            b'"missing": [], "extraneous": [], "candidates_scanned": 1}\n'
        )

    def test_recall_round_trips(self, tmp_path):
        records = [
            RecallRecord(3, (5,), 1.0, 1.0, (), (), 9)
        ]
        path = tmp_path / "audit.jsonl"
        write_jsonl(path, map(vars, records))
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
