"""Tests for dataset generators, the plain-text point file format, and the
writers of every table, JSON Lines file and manifest."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floorlsh.data import (
    PlantedPair,
    far_ring_dataset,
    gaussian_points,
    near_origin_queries,
    planted_pairs_dataset,
    read_pairs_truth,
    read_points,
    uniform_cube_points,
    write_csv,
    write_jsonl,
    write_pairs_truth,
    write_points,
    write_table,
)
from floorlsh.families import FamilyKind
from floorlsh.lpspace import lp_distances, lp_norm


class TestExponentFormat:
    """The exponent in a point file's header: ``inf`` or its decimal repr."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "points.txt"
        for p in (1.0, 1.5, 2.0, 17.25, math.inf):
            write_points(path, np.zeros((1, 2)), p)
            assert read_points(path)[1] == p
        assert path.read_text().splitlines()[0] == "1 2 inf"
        path.write_text("1 2 Infinity\n0 0\n")
        assert read_points(path)[1] == math.inf

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "points.txt"
        with pytest.raises(ValueError, match="norm exponent"):
            write_points(path, np.zeros((1, 2)), 0.5)
        path.write_text("1 2 0.25\n0 0\n")
        with pytest.raises(ValueError, match="norm exponent"):
            read_points(path)


class TestPointFile:
    def test_write_read_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((17, 5)) * 1e3
        points[0, 0] = 1e-300
        points[1, 1] = -0.1
        path = tmp_path / "points.txt"
        write_points(path, points, math.inf)
        back, p = read_points(path)
        assert p == math.inf
        np.testing.assert_array_equal(back, points)
        assert path.read_text().splitlines()[0] == "17 5 inf"

    def test_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n")
        with pytest.raises(ValueError, match="header"):
            read_points(path)
        path.write_text("1 3 2.0\n0.5 0.25\n")
        with pytest.raises(ValueError, match="row"):
            read_points(path)
        with pytest.raises(ValueError):
            write_points(path, np.zeros(4), 2.0)

    @pytest.mark.parametrize("text, message", [
        ("2 2 2\n1 2\n3 4\n5 6\n", "more rows than its header's n = 2"),
        ("0 2 2\n1 2\n", "more rows than its header's n = 0"),
        ("-1 2 2\n", "negative size -1 x 2"),
        ("1 -2 2\n", "negative size 1 x -2"),
        # no array is sized from an unchecked header
        ("1000000000000000 2 2\n1 2\n", "row 1 in .* has 0 values, expected 2"),
        ("1 1000000000000000 2\n1 2\n", "row 0 in .* has 2 values, expected 1000000000000000"),
    ], ids=["extra-row", "extra-row-at-n-0", "negative-n", "negative-d", "huge-n", "huge-d"])
    def test_rejects_a_header_that_does_not_count_the_rows(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as excinfo:
            read_points(path)
        assert str(path) in str(excinfo.value)

    def test_trailing_blank_lines_are_not_rows(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("2 2 2\n1 2\n3 4\n\n  \n")
        np.testing.assert_array_equal(read_points(path)[0], [[1.0, 2.0], [3.0, 4.0]])


class TestBackgroundClouds:
    def test_gaussian_scaling_and_determinism(self):
        a = gaussian_points(200, 4, 7, scale=3.0)
        b = gaussian_points(200, 4, 7, scale=3.0)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, gaussian_points(200, 4, 7) * 3.0)
        assert not np.array_equal(a, gaussian_points(200, 4, 8, scale=3.0))

    def test_cube_points_stay_inside_the_box(self):
        points = uniform_cube_points(500, 3, 1, scale=2.5)
        assert np.all(np.abs(points) < 2.5)
        assert points.shape == (500, 3)


class TestPlantedPairs:
    @given(
        st.sampled_from([1.0, 2.0, 3.0, math.inf]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(deadline=4000, max_examples=25)
    def test_realized_distances_match_requests(self, p, seed):
        distances = [0.5, 0.999, 1.0 - 1e-9]
        points, pairs = planted_pairs_dataset(40, 6, p, distances, 9, seed)
        assert points.shape == (40, 6)
        assert len(pairs) == 9
        for i, pair in enumerate(pairs):
            assert pair.anchor_id == i
            assert pair.partner_id == 9 + i
            target = distances[i % 3]
            realized = lp_norm(points[pair.partner_id] - points[pair.anchor_id], p)
            assert realized == pair.distance
            assert realized == pytest.approx(target, rel=1e-13)

    def test_background_rows_follow_the_spread(self):
        points, _ = planted_pairs_dataset(2000, 4, 2.0, [1.0], 10, 3, spread=6.0)
        background = points[20:]
        assert abs(float(background.std()) - 6.0) < 0.3

    def test_zero_pairs_is_a_plain_cloud(self):
        points, pairs = planted_pairs_dataset(50, 3, 2.0, [], 0, 1)
        assert pairs == []
        assert points.shape == (50, 3)

    def test_rejects_bad_requests(self):
        with pytest.raises(ValueError, match="n_pairs must be nonnegative"):
            planted_pairs_dataset(10, 3, 2.0, [1.0], -1, 0)
        with pytest.raises(ValueError):
            planted_pairs_dataset(10, 3, 2.0, [1.0], 6, 0)
        with pytest.raises(ValueError):
            planted_pairs_dataset(10, 3, 2.0, [], 2, 0)
        with pytest.raises(ValueError):
            planted_pairs_dataset(10, 3, 2.0, [0.0], 2, 0)


class TestFarRingAndNearQueries:
    @given(
        st.sampled_from([1.0, 2.0, math.inf]),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(deadline=4000, max_examples=20)
    def test_every_point_is_a_guaranteed_non_neighbor(self, p, seed):
        """Ring radii minus query radii keep all distances above c."""
        c = 3.0
        ring = far_ring_dataset(150, 5, p, c, seed)
        queries = near_origin_queries(30, 5, p, c, seed)
        norms = np.array([lp_norm(row, p) for row in ring])
        assert np.all(norms >= 1.05 * c)
        assert np.all(norms <= 1.5 * c)
        query_norms = np.array([lp_norm(row, p) for row in queries])
        assert np.all(query_norms <= 0.04 * c)
        for query in queries[:5]:
            assert np.all(lp_distances(ring, query, p) > c)

    def test_determinism_and_validation(self):
        a = far_ring_dataset(20, 3, 2.0, 2.0, 9)
        np.testing.assert_array_equal(a, far_ring_dataset(20, 3, 2.0, 2.0, 9))
        with pytest.raises(ValueError):
            far_ring_dataset(20, 3, 2.0, 0.0, 9)
        with pytest.raises(ValueError):
            far_ring_dataset(20, 3, 2.0, 2.0, 9, lo_factor=0.9)
        with pytest.raises(ValueError, match="max_norm_factor must be nonnegative"):
            near_origin_queries(20, 3, 2.0, 2.0, 9, max_norm_factor=-1.0)


@pytest.mark.parametrize(
    "generate",
    [
        lambda n: gaussian_points(n, 3, 0),
        lambda n: uniform_cube_points(n, 3, 0),
        lambda n: planted_pairs_dataset(n, 3, 2.0, [0.5], 0, 0),
        lambda n: far_ring_dataset(n, 3, 2.0, 2.0, 0),
        lambda n: near_origin_queries(n, 3, 2.0, 2.0, 0),
    ],
    ids=["gaussian", "uniform_cube", "planted_pairs", "far_ring", "near_queries"],
)
def test_every_generator_refuses_a_negative_count_by_name(generate):
    with pytest.raises(ValueError, match="point count n must be nonnegative, got -1"):
        generate(-1)
    generate(0)


class TestPairsTruthFile:
    def test_round_trip_preserves_exact_distances(self, tmp_path):
        pairs = [
            PlantedPair(0, 3, 0.9999999989999999),
            PlantedPair(1, 4, 0.5),
            PlantedPair(2, 5, 1.0 - 1e-9),
        ]
        path = tmp_path / "pairs.csv"
        write_pairs_truth(path, pairs)
        assert read_pairs_truth(path) == pairs
        lines = path.read_text().splitlines()
        assert lines[0] == "pair_id,anchor_id,partner_id,distance"
        assert lines[1] == "0,0,3,0.9999999989999999"

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="header"):
            read_pairs_truth(path)


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


class TestRecordFiles:
    def test_csv_bytes_are_pinned(self, tmp_path):
        """The CSV grammar: repr floats, empty None, lowercase booleans,
        'inf' for infinities, LF line endings."""
        columns = ("kind", "p", "d", "bound", "vacuous")
        records = [
            {"kind": "uniform_cube", "p": math.inf, "d": 8, "bound": None, "vacuous": False},
            {"kind": "unit_sphere", "p": 2.0, "d": 4, "bound": 0.5, "vacuous": True},
            {"kind": "x", "p": -math.inf, "d": 1, "bound": 0.125, "vacuous": False},
        ]
        path = tmp_path / "rows.csv"
        write_csv(path, columns, records)
        expected = (
            b"kind,p,d,bound,vacuous\n"
            b"uniform_cube,inf,8,,false\n"
            b"unit_sphere,2.0,4,0.5,true\n"
            b"x,-inf,1,0.125,false\n"
        )
        assert path.read_bytes() == expected

    def test_json_mirrors_the_csv_fields(self, tmp_path):
        columns = ("kind", "p", "bound")
        records = [{"kind": "uniform_cube", "p": math.inf, "bound": None}]
        path = tmp_path / "rows.json"
        assert write_table(path, "json", columns, records) == [str(path)]
        payload = json.loads(path.read_text())
        assert payload == [{"kind": "uniform_cube", "p": "inf", "bound": None}]
        assert path.read_text().endswith("\n")

    def test_jsonl_bytes_are_pinned(self, tmp_path):
        """JSON Lines spell infinities as the tables do, an enum as its
        value and a tuple as a list, keeping each record's key order."""
        records = [
            {"query_id": 0, "neighbors": [(3, 0.5), (7, math.inf)], "recall": 1.0},
            {"query_id": 1, "kind": FamilyKind.UNIT_SPHERE, "bound": -math.inf,
             "missing": (), "p": None},
        ]
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, records)
        expected = (
            b'{"query_id": 0, "neighbors": [[3, 0.5], [7, "inf"]], "recall": 1.0}\n'
            b'{"query_id": 1, "kind": "unit_sphere", "bound": "-inf", '
            b'"missing": [], "p": null}\n'
        )
        assert path.read_bytes() == expected
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=_strict)

    def test_both_formats_create_the_directory_and_name_the_json(self, tmp_path):
        path = tmp_path / "new" / "rows.csv"
        records = [{"d": 2, "lam": 0.5}]
        written = write_table(path, "both", ("d", "lam"), records)
        assert written == [str(path), f"{path}.json"]
        assert path.read_text() == "d,lam\n2,0.5\n"
        assert json.loads((tmp_path / "new" / "rows.csv.json").read_text()) == records
