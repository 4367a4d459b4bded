"""Tests of the benchmark's oracle and span arithmetic.

Run with ``python -m pytest perfbench/tests``; they sit outside the
package's ``testpaths``, so the library's own suite does not grow.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import oracle  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_lp_distances_match_a_plain_loop(p):
    rng = np.random.default_rng(0)
    points, query = rng.normal(size=(50, 7)), rng.normal(size=7)
    expected = []
    for row in points:
        terms = [abs(a - b) for a, b in zip(row, query)]
        expected.append(max(terms) if math.isinf(p) else sum(t**p for t in terms) ** (1 / p))
    np.testing.assert_allclose(oracle.lp_distances(points, query, p), expected, rtol=1e-13)


def test_ids_within_includes_the_radius_itself():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0 + 1e-12], [3.0, 4.0]])
    queries = np.array([[0.0, 0.0], [3.0, 3.0]])
    got = oracle.ids_within(points, queries, 1.0, 2.0)
    assert [g.tolist() for g in got] == [[0, 1], [3]]


def test_sphere_law_closed_forms():
    # d=3: <w, e1> is uniform on [-1, 1]; d=2: it is cos of a uniform angle
    for alpha in (0.05, 0.3, 0.9):
        assert oracle.sphere_small_ball(alpha, 3, 1.0) == pytest.approx(alpha, rel=1e-12)
        assert oracle.sphere_small_ball(alpha, 2, 1.0) == pytest.approx(
            2 / math.pi * math.asin(alpha), rel=1e-12
        )
    assert oracle.sphere_small_ball(0.1, 8, 0.5) == oracle.sphere_small_ball(0.2, 8, 1.0)
    assert oracle.sphere_small_ball(5.0, 8, 1.0) == 1.0


def test_sphere_law_matches_independent_draws():
    d, trials = 8, 400_000
    rng = np.random.default_rng(1)
    g = rng.standard_normal((trials, d))
    first = np.abs(g[:, 0] / np.linalg.norm(g, axis=1))
    for alpha in (0.05, 0.25, 0.5):
        hits = int(np.count_nonzero(first < alpha))
        assert oracle.agrees_with_law(hits, trials, oracle.sphere_small_ball(alpha, d, 1.0))


def test_law_check_rejects_a_biased_estimate():
    trials, probability = 200_000, 0.2
    standard_error = math.sqrt(probability * (1 - probability) / trials)
    shifted = round((probability + 6 * standard_error) * trials)
    assert oracle.agrees_with_law(round(probability * trials), trials, probability)
    assert not oracle.agrees_with_law(shifted, trials, probability)


def test_paper_constants():
    assert oracle.c_threshold("uniform_cube", 2.0, 16) == pytest.approx(16 * math.sqrt(3))
    assert oracle.c_threshold("uniform_cube", math.inf, 16) == pytest.approx(64 * math.sqrt(3))
    assert oracle.c_threshold("unit_sphere", 2.0, 16) == pytest.approx(8.0)
    assert oracle.c_threshold("unit_sphere", 1.0, 16) == pytest.approx(32.0)
    assert oracle.small_ball_bound("unit_sphere", 0.1, 16, 2.0) == pytest.approx(0.2)


def test_clopper_pearson_low_brackets_the_estimate():
    assert oracle.clopper_pearson_low(0, 100) == 0.0
    low = oracle.clopper_pearson_low(30, 100)
    assert 0.17 < low < 0.30
    from scipy.stats import binom

    # 99% two-sided: observing >= 30 hits at the low end has probability 0.005
    assert binom.sf(29, 100, low) == pytest.approx(0.005, rel=1e-6)


def test_percentile_needs_ten_samples_beyond_it():
    assert oracle.percentile_allowed(1000, 99)
    assert not oracle.percentile_allowed(999, 99)
    assert oracle.percentile_allowed(100, 90)
    assert oracle.percentile_allowed(1, 50)
    with pytest.raises(ValueError):
        oracle.percentile(np.arange(500.0), 99)
    assert oracle.percentile(np.arange(1001.0), 99) == pytest.approx(990.0)


def test_self_time_subtracts_children():
    records = [
        {"name": "round", "start": 0.0, "end": 10.0, "parent": None, "id": 0},
        {"name": "index.build", "start": 1.0, "end": 4.0, "parent": 0, "id": 1},
        {"name": "families.sample", "start": 1.5, "end": 2.0, "parent": 1, "id": 2},
        {"name": "index.query", "start": 5.0, "end": 6.0, "parent": 0, "id": 3},
    ]
    assert self_times(records) == pytest.approx(
        {"bench": 6.0, "families": 0.5, "index": 3.5}
    )


def test_tracer_records_only_while_recording(tmp_path):
    tracer = Tracer(run_id="r", recording=False)
    with tracer.span("index.query") as span:
        pass
    assert span.seconds >= 0.0 and tracer.spans == []
    tracer.recording = True
    tracer.round_index = 0
    with tracer.span("round"):
        with tracer.span("index.build"):
            pass
    records = tracer.write(tmp_path / "spans.jsonl")
    assert [(r["name"], r["parent"], r["run"], r["round"]) for r in records] == [
        ("round", None, "r", 0),
        ("index.build", 0, "r", 0),
    ]
    assert (tmp_path / "spans.jsonl").read_text().count("\n") == 2
