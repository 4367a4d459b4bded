"""End-to-end tests of the command-line interface, run in process."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

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

import floorlsh
from floorlsh import cli
from floorlsh.cli import BENCH_COLUMNS, main
from floorlsh.data import read_pairs_truth, read_points
from floorlsh.estimation import (
    BOUND_COLUMNS,
    CONJECTURE_COLUMNS,
    LEVY_COLUMNS,
    FarPairShape,
)
from floorlsh.families import FamilyKind
from floorlsh.index import IndexConfig, LshIndex, Variant


def _manifest(path):
    with open(f"{path}.manifest.json") as handle:
        return json.load(handle)


def _gen_gaussian(tmp_path, name="data.txt", n=60, d=6, p="2", seed="5", scale="0.6"):
    out = tmp_path / name
    code = main(
        [
            "gen-data",
            "--shape",
            "gaussian",
            "--n",
            str(n),
            "--d",
            str(d),
            "--p",
            p,
            "--seed",
            seed,
            "--scale",
            scale,
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


class TestGenData:
    def test_gaussian_dataset_and_manifest(self, tmp_path):
        out = _gen_gaussian(tmp_path)
        points, p = read_points(out)
        assert points.shape == (60, 6)
        assert p == 2.0
        manifest = _manifest(out)
        assert manifest["schema_version"] == 1
        assert manifest["command"] == "gen-data"
        assert manifest["params"]["n"] == 60
        assert "created_utc" in manifest

    def test_planted_pairs_come_with_a_truth_file(self, tmp_path):
        out = tmp_path / "planted.txt"
        code = main(
            [
                "gen-data",
                "--shape",
                "planted_pairs",
                "--n",
                "40",
                "--d",
                "5",
                "--p",
                "2",
                "--seed",
                "3",
                "--pairs",
                "8",
                "--distances",
                "0.5,0.9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        pairs = read_pairs_truth(f"{out}.pairs.csv")
        assert len(pairs) == 8
        assert {pair.anchor_id for pair in pairs} == set(range(8))

    def test_infinite_exponent_round_trips(self, tmp_path):
        out = _gen_gaussian(tmp_path, name="inf.txt", p="inf")
        _, p = read_points(out)
        assert np.isinf(p)
        assert _manifest(out)["params"]["p"] == "inf"


class TestVerifyBounds:
    def _run(self, tmp_path, *extra):
        out = tmp_path / "bounds.csv"
        argv = [
            "verify-bounds",
            "--mode",
            "small-ball",
            "--kinds",
            "uniform_cube",
            "--ds",
            "4",
            "--shapes",
            "axis",
            "--alphas",
            "0.01,0.05",
            "--trials",
            "2000",
            "--seeds",
            "1",
            "--out",
            str(out),
            *extra,
        ]
        return out, main(argv)

    def test_bounds_hold_and_columns_are_fixed(self, tmp_path):
        out, code = self._run(tmp_path)
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == ",".join(BOUND_COLUMNS)

    def test_self_test_scale_trips_the_violation_exit(self, tmp_path):
        """Shrinking every bound by 10x must make the checker fail, which
        proves the verdict logic is actually wired to the data."""
        out, code = self._run(tmp_path, "--self-test-bound-scale", "0.1")
        assert code == 1

    @pytest.mark.parametrize(
        "mode, grid, digest",
        [
            ("small-ball", ["--shapes", "axis,flat", "--alphas", "0.01,0.2",
                            "--seeds", "1"],
             "8db178244c57380adec85696f941708c2f3ac4afa40fe6d0856e7717ace774b2"),
            ("false-positive", ["--shapes", "axis", "--ps", "2,inf",
                                "--c-multipliers", "1.5,4", "--seeds", "0"],
             "aedbab1c2f950cc40cd61dd8858c5c1df3f6161e848830ec0af7bd48d41044d9"),
        ],
        ids=["small-ball", "false-positive"],
    )
    def test_scaled_bound_tables_are_pinned(self, tmp_path, mode, grid, digest):
        """The table a self-test scale writes, rows with no bound, vacuous
        rows and violated rows alike, stays byte for byte what it was."""
        out = tmp_path / "scaled.csv"
        code = main(["verify-bounds", "--mode", mode, "--kinds",
                     "rademacher,uniform_cube,unit_sphere", "--ds", "4", *grid,
                     "--trials", "2000", "--self-test-bound-scale", "0.1",
                     "--out", str(out)])
        assert code == 1
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_replay_reproduces_byte_identical_output(self, tmp_path):
        out, code = self._run(tmp_path)
        assert code == 0
        first = out.read_bytes()
        out.unlink()
        assert main(["replay", "--manifest", f"{out}.manifest.json"]) == 0
        assert out.read_bytes() == first

    def test_false_positive_mode(self, tmp_path):
        out = tmp_path / "fp.csv"
        code = main(
            [
                "verify-bounds",
                "--mode",
                "false-positive",
                "--kinds",
                "uniform_cube,unit_sphere",
                "--ps",
                "2",
                "--ds",
                "8",
                "--c-multipliers",
                "2.0",
                "--shapes",
                "axis",
                "--trials",
                "2000",
                "--seeds",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == ",".join(BOUND_COLUMNS)
        assert len(rows) == 3

    def test_a_kind_without_a_threshold_fails_before_any_estimate(
        self, tmp_path, capsys, monkeypatch
    ):
        """The experimental family, last in the grid, stops the run before
        the first cell is estimated."""
        calls = []
        estimate = cli.estimate_false_positive_rate
        monkeypatch.setattr(
            cli, "estimate_false_positive_rate",
            lambda *args, **kwargs: calls.append(args) or estimate(*args, **kwargs),
        )
        out = tmp_path / "fp.csv"
        code = main(["verify-bounds", "--mode", "false-positive", "--kinds",
                     "uniform_cube,unit_sphere,lq_sphere_experimental", "--ps", "2",
                     "--ds", "8", "--trials", "2000", "--seeds", "0", "--out", str(out)])
        assert code == 2
        assert "lq_sphere_experimental has no collision threshold" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()


class TestSmallCommands:
    def test_levy(self, tmp_path):
        out = tmp_path / "levy.csv"
        code = main(
            [
                "levy",
                "--ds",
                "4",
                "--lambdas",
                "0.1,0.5",
                "--trials",
                "4000",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == ",".join(LEVY_COLUMNS)

    def test_probe_conjecture(self, tmp_path):
        out = tmp_path / "probe.csv"
        code = main(
            [
                "probe-conjecture",
                "--q",
                "1.5",
                "--ds",
                "8",
                "--epsilons",
                "0.05,0.1",
                "--trials",
                "3000",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == ",".join(CONJECTURE_COLUMNS)

    @pytest.mark.parametrize(
        "q, digest",
        [("1.5", "962f838c6fff7dfd314d09913d3fb3e504585a1c539a5007ed2dc05ffe2aa1aa"),
         ("inf", "9342b6b9953e8e0a3aa35ce4a7a3a0d1b9cd7347700fbece203a4868ed09b9a1")],
        ids=["q=1.5", "q=inf"],
    )
    def test_probe_conjecture_tables_are_pinned(self, tmp_path, q, digest):
        """Six rows per table, an epsilon = 0 row among them, stay byte for
        byte what they were."""
        out = tmp_path / "probe.csv"
        assert main(["probe-conjecture", "--q", q, "--ds", "4,8", "--epsilons",
                     "0,0.05,0.2", "--trials", "3000", "--seed", "4",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "args, digest",
        [(["verify-bounds", "--mode", "small-ball", "--seeds", "3"],
          "b79ae8fcd31fa5f446ede825495d175b89c93c8ccf45b1acaa979330aad3bd60"),
         (["verify-bounds", "--mode", "false-positive", "--seeds", "3"],
          "dd7a52c98deb5db36d055dbfef7281e96dd8d01af673deb014bf1a2a826a9c15"),
         (["levy", "--seed", "3"],
          "8379ad2a889308b8da710b70a115afeabeeff371387097f5d1f7a43558a8484f"),
         (["verify-bounds", "--mode", "small-ball", "--kinds", "lq_sphere_experimental",
           "--q", "1.5", "--seeds", "3"],
          "839092672903404f86a0b967e0f7edc839f0f4690776b6688886059e168f8333")],
        ids=["small-ball", "false-positive", "levy", "small-ball-experimental"],
    )
    def test_multi_block_tables_are_pinned(self, tmp_path, args, digest):
        """20,001 trials draw three pool blocks at d = 8 and 65; the tables
        stay byte for byte what the estimators wrote from a whole pool."""
        out = tmp_path / "table.csv"
        assert main([*args, "--ds", "8,65", "--trials", "20001", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestBuildQueryAudit:
    def _build(self, tmp_path, dataset, out=None):
        out = out or tmp_path / "index.bin"
        code = main(
            [
                "build",
                "--dataset",
                str(dataset),
                "--kind",
                "uniform_cube",
                "--variant",
                "fast_preprocessing",
                "--c-multiplier",
                "1.5",
                "--levels",
                "3",
                "--master-seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        return out

    def test_build_resolves_and_records_its_parameters(self, tmp_path):
        dataset = _gen_gaussian(tmp_path)
        out = self._build(tmp_path, dataset)
        index = LshIndex.load(out)
        assert index.levels == 3
        manifest = _manifest(out)
        assert isinstance(manifest["params"]["c"], float)
        assert manifest["params"]["levels"] == 3
        assert manifest["params"]["c"] == pytest.approx(index.config.c)

    def test_build_reports_reach_and_entries_per_point(self, tmp_path, capsys):
        """stdout names each level's reach and the mean entries per point;
        the recorded parameters do not."""
        dataset = _gen_gaussian(tmp_path)
        out = tmp_path / "fq.bin"
        assert main(["build", "--dataset", str(dataset), "--variant", "fast_query",
                     "--c-multiplier", "1.5", "--levels", "3", "--master-seed", "11",
                     "--out", str(out)]) == 0
        index = LshIndex.load(out)
        line = capsys.readouterr().out
        reach = ",".join(f"{r:.4g}" for r in index.reach)
        assert f"reach=[{reach}]" in line
        assert f"entries={index.entry_count} ({index.entry_count / 60:.4g} per point)" in line
        assert not {"reach", "entries"} & set(_manifest(out)["params"])

    def test_build_creates_the_output_directory(self, tmp_path):
        out = self._build(tmp_path, _gen_gaussian(tmp_path), tmp_path / "ix" / "a.bin")
        assert LshIndex.load(out).levels == 3

    def test_query_emits_jsonl_and_audit_passes(self, tmp_path):
        dataset = _gen_gaussian(tmp_path)
        index_path = self._build(tmp_path, dataset)
        queries = _gen_gaussian(tmp_path, name="queries.txt", n=7, seed="8")
        out = tmp_path / "results.jsonl"
        code = main(
            [
                "query",
                "--index",
                str(index_path),
                "--queries",
                str(queries),
                "--out",
                str(out),
                "--audit",
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        record = json.loads(lines[0])
        assert set(record) >= {
            "query_id",
            "neighbors",
            "buckets_probed",
            "candidates_scanned",
            "distance_evals",
            "duplicates_suppressed",
        }
        audit = [json.loads(line) for line in open(f"{out}.audit.jsonl")]
        assert all(entry["missing"] == [] for entry in audit)

    @pytest.mark.parametrize("value, message", [("nan", "finite"), ("1e300", "2^53")])
    def test_unusable_coordinates_are_a_usage_error(self, tmp_path, capsys, value, message):
        dataset = _gen_gaussian(tmp_path)
        index_path = self._build(tmp_path, dataset)
        lines = dataset.read_text().splitlines()
        lines[3] = " ".join([value, *lines[3].split()[1:]])
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        argvs = [
            ["build", "--dataset", str(bad), "--c-multiplier", "1.5", "--levels", "3",
             "--master-seed", "11", "--out", str(tmp_path / "bad.bin")],
            ["query", "--index", str(index_path), "--queries", str(bad),
             "--out", str(tmp_path / "r.jsonl")],
        ]
        for argv in argvs:
            assert main(argv) == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("change, message", [
        ("extra-row", "more rows than its header's n"), ("negative-n", "negative size")],
        ids=["extra-row", "negative-n"])
    def test_a_header_that_miscounts_the_rows_is_a_usage_error(
        self, tmp_path, capsys, change, message
    ):
        dataset = _gen_gaussian(tmp_path)
        index_path = self._build(tmp_path, dataset)
        lines = dataset.read_text().splitlines()
        if change == "extra-row":
            lines.append(lines[-1])
        else:
            lines[0] = " ".join(["-1", *lines[0].split()[1:]])
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        argvs = [
            ["build", "--dataset", str(bad), "--c-multiplier", "1.5", "--levels", "3",
             "--master-seed", "11", "--out", str(tmp_path / "bad.bin")],
            ["query", "--index", str(index_path), "--queries", str(bad),
             "--out", str(tmp_path / "r.jsonl")],
        ]
        for argv in argvs:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert message in err and str(bad) in err
        assert not (tmp_path / "bad.bin").exists() and not (tmp_path / "r.jsonl").exists()

    def test_a_point_too_far_for_its_rounding_margin_is_a_usage_error(self, tmp_path, capsys):
        """A line far enough out that its rounding margin would reach a
        quarter label exits 2 as a fast_preprocessing query and in a
        fast_query build, instead of probing or storing thousands of
        label tuples."""
        dataset = _gen_gaussian(tmp_path)
        index_path = self._build(tmp_path, dataset)
        lines = dataset.read_text().splitlines()
        lines[3] = " ".join(["1e15"] * len(lines[3].split()))
        far = tmp_path / "far.txt"
        far.write_text("\n".join(lines) + "\n")
        argvs = [
            ["query", "--index", str(index_path), "--queries", str(far),
             "--out", str(tmp_path / "r.jsonl")],
            ["build", "--dataset", str(far), "--c-multiplier", "1.5", "--levels", "3",
             "--master-seed", "11", "--out", str(tmp_path / "far.bin")],
        ]
        for argv in argvs:
            assert main(argv) == 2
            assert "too far from the origin" in capsys.readouterr().err

    @pytest.mark.parametrize("field, message", [(0, "family tag"), (1, "variant tag")])
    def test_an_image_with_an_unknown_tag_is_a_usage_error(
        self, tmp_path, capsys, field, message
    ):
        dataset = _gen_gaussian(tmp_path)
        index_path = self._build(tmp_path, dataset)
        index_path.write_bytes(retagged(index_path.read_bytes(), field, 7))
        code = main(["query", "--index", str(index_path), "--queries", str(dataset),
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert f"unknown {message} 7" in capsys.readouterr().err

    def test_an_image_stating_another_version_is_a_usage_error(self, tmp_path, capsys):
        dataset = _gen_gaussian(tmp_path)
        index_path = self._build(tmp_path, dataset)
        index_path.write_bytes(restated(index_path.read_bytes(), 9))
        code = main(["query", "--index", str(index_path), "--queries", str(dataset),
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert "unsupported index image version 9" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("craft, message", CONTRADICTIONS, ids=CONTRADICTION_IDS)
    def test_an_image_that_contradicts_itself_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, craft, message
    ):
        """A checksummed image with no points, with a digest of other hash
        vectors than its seeds draw (a changed digest or seed), with more
        levels than the cap, with points a build would refuse, with more
        entries than its own max_entries guard or with bytes after its
        digest is rejected on load, not at query time."""
        dataset = _gen_gaussian(tmp_path)
        index_path = self._build(tmp_path, dataset)
        index_path.write_bytes(contradicting(index_path.read_bytes(), craft))
        limit_draws(monkeypatch)
        code = main(["query", "--index", str(index_path), "--queries", str(dataset),
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert re.search(message, capsys.readouterr().err)
        assert not (tmp_path / "r.jsonl").exists()

    def test_a_query_file_of_another_dimension_is_a_usage_error(self, tmp_path, capsys):
        dataset = _gen_gaussian(tmp_path)
        index_path = self._build(tmp_path, dataset)
        queries = _gen_gaussian(tmp_path, name="q5.txt", n=3, d=5)
        code = main(["query", "--index", str(index_path), "--queries", str(queries),
                     "--out", str(tmp_path / "r.jsonl")])
        assert code == 2
        assert "query dimension 5 != index dimension 6" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    def test_mismatched_norms_are_a_usage_error(self, tmp_path, capsys):
        dataset = _gen_gaussian(tmp_path)
        index_path = self._build(tmp_path, dataset)
        queries = _gen_gaussian(tmp_path, name="q1.txt", n=3, p="1")
        code = main(
            [
                "query",
                "--index",
                str(index_path),
                "--queries",
                str(queries),
                "--out",
                str(tmp_path / "r.jsonl"),
            ]
        )
        assert code == 2
        assert "exponent" in capsys.readouterr().err

    def test_conflicting_factor_flags_are_a_usage_error(self, tmp_path, capsys):
        dataset = _gen_gaussian(tmp_path)
        code = main(
            [
                "build",
                "--dataset",
                str(dataset),
                "--c",
                "30",
                "--c-multiplier",
                "1.5",
                "--master-seed",
                "0",
                "--out",
                str(tmp_path / "x.bin"),
            ]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err


_GEN = "gen-data --n 20 --d 3 --p 2 --seed 0 --out {out}/g.txt"
_VERIFY = "verify-bounds --ds 4 --trials 100 --seeds 0 --out {out}/v.csv"

#: Command lines that pass NaN (or an infinity where only finite values
#: make sense, a scale that makes generated coordinates overflow, a
#: dimension below 1, a negative point count, or no --c where a shape needs
#: one) to a range check, each of which must fail before anything is
#: written.
_NAN_RUNS = {
    "build --c": "build --dataset {data} --c nan --levels 2 --master-seed 0 "
    "--out {out}/x.bin",
    "build --c-multiplier": "build --dataset {data} --c-multiplier nan --levels 2 "
    "--master-seed 0 --out {out}/x.bin",
    "bench-index --c-multipliers": "bench-index --dataset {data} --queries {data} "
    "--c-multipliers nan --levels 2 --master-seeds 0 --out {out}/b.csv",
    "verify-bounds --alphas": f"{_VERIFY} --alphas 0.1,nan",
    "verify-bounds --c-multipliers": f"{_VERIFY} --mode false-positive --c-multipliers nan",
    "verify-bounds --self-test-bound-scale": f"{_VERIFY} --self-test-bound-scale nan",
    "levy --lambdas": "levy --lambdas nan --trials 100 --seed 0 --out {out}/l.csv",
    "probe-conjecture --epsilons": "probe-conjecture --q 1.5 --epsilons nan --trials 100 "
    "--seed 0 --out {out}/p.csv",
    "gen-data --distances": f"{_GEN} --shape planted_pairs --pairs 4 --distances nan",
    "gen-data --spread": f"{_GEN} --shape planted_pairs --pairs 4 --spread nan",
    "gen-data --scale": f"{_GEN} --shape gaussian --scale nan",
    "gen-data cube --scale": f"{_GEN} --shape uniform_cube --scale inf",
    "gen-data --scale overflow": f"{_GEN} --shape gaussian --scale 1e308",
    "gen-data cube --scale overflow": f"{_GEN} --shape uniform_cube --scale 1e308",
    "gen-data --spread overflow": f"{_GEN} --shape planted_pairs --pairs 4 --spread 1e308",
    "gen-data far_ring --c": f"{_GEN} --shape far_ring --c nan",
    "gen-data far_ring --c inf": f"{_GEN} --shape far_ring --c inf",
    "gen-data near_queries --c": f"{_GEN} --shape near_queries --c nan",
    "verify-bounds --ds 0": "verify-bounds --ds 0 --shapes axis --seeds 1 --out {out}/v.csv",
    "verify-bounds false-positive --ds 0": f"{_VERIFY} --mode false-positive --ds 0",
    "gen-data gaussian --d 0": "gen-data --shape gaussian --n 5 --d 0 --p 2 --seed 0 "
    "--out {out}/g.txt",
    "gen-data cube --d 0": f"{_GEN} --shape uniform_cube --d 0",
    "gen-data planted_pairs --d 0": "gen-data --shape planted_pairs --n 20 --d 0 --p 2 "
    "--seed 0 --pairs 4 --out {out}/g.txt",
    "gen-data far_ring --d 0": f"{_GEN} --shape far_ring --c 5 --d 0",
    "gen-data near_queries --d 0": f"{_GEN} --shape near_queries --c 5 --d 0",
    "gen-data gaussian --n -1": f"{_GEN} --shape gaussian --n -1",
    "gen-data cube --n -1": f"{_GEN} --shape uniform_cube --n -1",
    "gen-data planted_pairs --n -1": f"{_GEN} --shape planted_pairs --pairs 4 --n -1",
    "gen-data far_ring --n -1": f"{_GEN} --shape far_ring --c 5 --n -1",
    "gen-data near_queries --n -1": f"{_GEN} --shape near_queries --c 5 --n -1",
    "gen-data far_ring without --c": f"{_GEN} --shape far_ring",
    "build --calibrate-fp-trials": "build --dataset {data} --c-multiplier 4 "
    "--calibrate-fp-trials -5 --master-seed 0 --out {out}/x.bin",
    "bench-index --calibrate-fp-trials": "bench-index --dataset {data} --queries {data} "
    "--calibrate-fp-trials -5 --master-seeds 0 --out {out}/b.csv",
}


@pytest.mark.parametrize("name", list(_NAN_RUNS))
def test_a_nan_value_is_a_usage_error_that_writes_nothing(name, tmp_path, capsys):
    """NaN passes every comparison written as ``x < lo``; each range check
    is written so that NaN fails it instead."""
    data = _gen_gaussian(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    argv = _NAN_RUNS[name].format(data=data, out=out).split()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "name", ["build --calibrate-fp-trials", "bench-index --calibrate-fp-trials"]
)
def test_a_negative_calibration_count_names_its_option(name, tmp_path, capsys):
    """A negative count would silently mean the theoretical bound."""
    argv = _NAN_RUNS[name].format(data=_gen_gaussian(tmp_path), out=tmp_path).split()
    assert main(argv) == 2
    assert "--calibrate-fp-trials must be nonnegative, got -5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ds, message",
    [(",", "expected a nonempty comma-separated list"), ("2,x", "invalid literal for int")],
)
def test_a_malformed_list_is_a_usage_error_that_writes_nothing(ds, message, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["levy", "--ds", ds, "--trials", "100", "--seed", "0",
              "--out", str(tmp_path / "l.csv")])
    assert excinfo.value.code == 2
    assert f"argument --ds: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


class TestBenchIndex:
    def test_grid_report_and_replay(self, tmp_path):
        dataset = tmp_path / "planted.txt"
        assert (
            main(
                [
                    "gen-data",
                    "--shape",
                    "planted_pairs",
                    "--n",
                    "50",
                    "--d",
                    "5",
                    "--p",
                    "2",
                    "--seed",
                    "3",
                    "--pairs",
                    "6",
                    "--distances",
                    "0.5,0.9",
                    "--out",
                    str(dataset),
                ]
            )
            == 0
        )
        queries = _gen_gaussian(tmp_path, name="queries.txt", n=6, d=5, seed="9")
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench-index",
                "--dataset",
                str(dataset),
                "--queries",
                str(queries),
                "--kinds",
                "uniform_cube",
                "--variants",
                "fast_query,fast_preprocessing",
                "--c-multipliers",
                "1.5",
                "--levels",
                "2",
                "--master-seeds",
                "1,2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == ",".join(BENCH_COLUMNS)
        assert len(rows) == 1 + 2 * 2
        first = out.read_bytes()
        assert main(["replay", "--manifest", f"{out}.manifest.json"]) == 0
        assert out.read_bytes() == first
        manifest = _manifest(out)
        assert "timings" in manifest

    def test_a_kind_without_a_threshold_fails_before_any_build(
        self, tmp_path, capsys, monkeypatch
    ):
        builds = []
        build = cli._build_index
        monkeypatch.setattr(
            cli, "_build_index", lambda *args: builds.append(args) or build(*args)
        )
        dataset = _gen_gaussian(tmp_path)
        out = tmp_path / "bench.csv"
        code = main(["bench-index", "--dataset", str(dataset), "--queries", str(dataset),
                     "--kinds", "uniform_cube,lq_sphere_experimental", "--levels", "2",
                     "--master-seeds", "1", "--out", str(out)])
        assert code == 2
        assert "lq_sphere_experimental has no collision threshold" in capsys.readouterr().err
        assert builds == []
        assert not out.exists()

    def test_mean_buckets_probed_is_the_rows_real_probe_count(self, tmp_path):
        dataset = _gen_gaussian(tmp_path)
        queries = _gen_gaussian(tmp_path, name="queries.txt", n=5, seed="9")
        out = tmp_path / "bench.json"
        assert main(["bench-index", "--dataset", str(dataset), "--queries", str(queries),
                     "--kinds", "unit_sphere", "--variants", "fast_preprocessing",
                     "--c-multipliers", "3", "--levels", "3", "--master-seeds", "7",
                     "--no-audit", "--format", "json", "--out", str(out)]) == 0
        [row] = json.loads(out.read_text())
        config = IndexConfig(p=2.0, d=6, c=row["c"], kind=FamilyKind.UNIT_SPHERE,
                             variant=Variant.FAST_PREPROCESSING, levels=3, master_seed=7)
        index = LshIndex.build(read_points(dataset)[0], config)
        probes = [r.stats.buckets_probed for r in index.query_batch(read_points(queries)[0])]
        assert row["mean_buckets_probed"] == np.mean(probes)
        assert all(3**3 <= count <= 4**3 for count in probes)

    def test_a_calibrated_level_count_past_the_cap_is_refused(self, tmp_path, capsys):
        """A measured far-pair rate of 0.983 asks fast_query for L = 323;
        the build names the automatic rule and the cap, and writes nothing."""
        dataset = _gen_gaussian(tmp_path, n=2000, d=8)
        out = tmp_path / "index.bin"
        with pytest.warns(UserWarning, match="bound is vacuous"):
            code = main(["build", "--dataset", str(dataset), "--kind", "uniform_cube",
                         "--variant", "fast_query", "--c", "3", "--unsafe-override",
                         "--master-seed", "0", "--calibrate-fp-trials", "2000",
                         "--out", str(out)])
        assert code == 2
        error = capsys.readouterr().err
        assert "automatic fast_query level rule gives L = 323" in error
        assert "cap of 64 levels" in error and "--levels" in error
        assert not out.exists()

    @pytest.mark.parametrize(
        "variant, levels",
        [("fast_query", ["--levels", "2"]),
         ("fast_preprocessing", ["--calibrate-fp-trials", "3000"])],
        ids=["levels", "calibrated"],
    )
    def test_a_row_describes_the_index_build_makes(self, tmp_path, variant, levels):
        """A bench cell builds the index that ``build`` makes from the same
        dataset, family, layout, factor and master seed."""
        dataset = _gen_gaussian(tmp_path)
        queries = _gen_gaussian(tmp_path, name="queries.txt", n=4, seed="9")
        bench, index_path = tmp_path / "bench.json", tmp_path / "index.bin"
        assert main(["bench-index", "--dataset", str(dataset), "--queries", str(queries),
                     "--kinds", "unit_sphere", "--variants", variant, "--c-multipliers",
                     "3", "--master-seeds", "7", *levels, "--no-audit", "--format",
                     "json", "--out", str(bench)]) == 0
        assert main(["build", "--dataset", str(dataset), "--kind", "unit_sphere",
                     "--variant", variant, "--c-multiplier", "3", "--master-seed", "7",
                     *levels, "--out", str(index_path)]) == 0
        [row] = json.loads(bench.read_text())
        index = LshIndex.load(index_path)
        assert row["levels"] == _manifest(index_path)["params"]["levels"] == index.levels
        assert row["c"] == index.config.c
        assert row["entries"] == index.stats.entries
        assert row["unique_buckets"] == index.stats.unique_buckets
        # the manifest records the resolved levels beside the calibration
        # count, and replay rebuilds the same image from both
        image = index_path.read_bytes()
        assert main(["replay", "--manifest", f"{index_path}.manifest.json"]) == 0
        assert index_path.read_bytes() == image


def _python(*args, cwd=None):
    """Run Python in a child process that imports this same package."""
    source = str(Path(floorlsh.__file__).parent.parent)
    paths = [source, *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )


def _floorlsh(*args):
    return _python("-m", "floorlsh", *args)


DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCHMARK_WORKLOADS = [
    workload["name"]
    for workload in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]
]


class TestEntryPoints:
    def test_missing_required_flag_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen-data", "--shape", "gaussian"])
        assert excinfo.value.code == 2

    def test_module_invocation(self):
        result = _floorlsh("--version")
        assert result.returncode == 0
        assert result.stdout.strip()

    def test_import_leaves_scipy_stats_unloaded(self):
        """Importing scipy.stats takes about a second, most of a command's
        start-up, and the package needs nothing from it."""
        result = _python(
            "-c",
            "import sys, floorlsh, floorlsh.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_leaves_scipy_unloaded(self):
        """The index commands need nothing from scipy; the intervals and the
        cap law import ``scipy.special`` on first use."""
        result = _python(
            "-c",
            "import sys, floorlsh, floorlsh.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_every_export_resolves_once(self):
        """A stale name in __all__ would break ``from floorlsh import *``."""
        assert len(set(floorlsh.__all__)) == len(floorlsh.__all__)
        for name in floorlsh.__all__:
            assert hasattr(floorlsh, name), name
        namespace = {}
        exec("from floorlsh import *", namespace)
        assert set(floorlsh.__all__) <= set(namespace)

    def test_every_name_the_benchmark_calls_resolves(self):
        """``perfbench/`` lies outside the test paths and calls the package as
        ``F``; a name it uses that no longer resolves would otherwise show up
        only as a failed benchmark run."""
        names = {
            name
            for path in sorted(PERFBENCH.glob("*.py"))
            for name in re.findall(r"\bF((?:\.\w+)+)", path.read_text())
        }
        assert "families.hash_eval_matrix" in {name[1:] for name in names}
        for name in sorted(names):
            target = floorlsh
            for part in name[1:].split("."):
                assert hasattr(target, part), f"F{name}"
                target = getattr(target, part)

    @pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
    def test_one_traced_round_of_each_benchmark_workload_passes(self, workload):
        """The benchmark also reads attributes off what the package returns
        (index counts, query stats, estimate fields), which the name check
        above cannot see.  One traced round reads all of them and checks
        every answer against the benchmark's own oracle; it writes only to
        the ignored ``perfbench/out/``."""
        result = subprocess.run(
            [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, cwd=PERFBENCH.parent,
        )
        assert result.returncode == 0, result.stderr
        outcome = json.loads(result.stdout.splitlines()[-1])
        assert outcome["correct"] is True, result.stderr
        assert outcome["failed"] == 0

    @pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
    def test_demo_runs(self, demo, tmp_path):
        result = _python(demo, cwd=tmp_path)
        assert result.returncode == 0, result.stderr



def _write_manifest(path, command, params):
    """A manifest as an earlier release wrote it: only the recorded keys."""
    manifest = {"schema_version": 1, "tool": "floorlsh", "command": command,
                "params": params}
    path.write_text(json.dumps(manifest))
    return path


def test_the_manifest_spells_values_as_the_tables_do(tmp_path):
    """A manifest shares the record files' grammar: an enum is its value, an
    infinity is "inf" or "-inf" and a tuple is a list, so it is strict JSON."""
    params = {"kinds": [FamilyKind.UNIT_SPHERE], "ps": (2.0, math.inf), "c": -math.inf}
    path = cli._write_manifest(str(tmp_path / "run"), "levy", params,
                               extra={"timings": {"seconds": 1.5}})
    assert path == f"{tmp_path}/run.manifest.json"
    text = Path(path).read_text()
    assert (
        '  "params": {\n'
        '    "c": "-inf",\n'
        '    "kinds": [\n'
        '      "unit_sphere"\n'
        '    ],\n'
        '    "ps": [\n'
        '      2.0,\n'
        '      "inf"\n'
        '    ]\n'
        '  },\n'
    ) in text
    assert text.endswith("}\n")

    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")

    assert json.loads(text, parse_constant=reject)["timings"] == {"seconds": 1.5}


class TestReplayContract:
    """Manifests replay through the command-line parser: a replay is typed
    and checked like a fresh run and writes the same bytes."""

    def _replay(self, tmp_path, command, params):
        manifest = _write_manifest(tmp_path / "m.manifest.json", command, params)
        return main(["replay", "--manifest", str(manifest)])

    def test_planted_pairs_with_only_its_shape_keys(self, tmp_path):
        flags_out, replay_out = tmp_path / "flags.txt", tmp_path / "replay.txt"
        assert main(["gen-data", "--shape", "planted_pairs", "--n", "40", "--d", "5",
                     "--p", "2", "--seed", "3", "--pairs", "8", "--distances",
                     "0.5,0.9", "--spread", "4", "--out", str(flags_out)]) == 0
        params = {"shape": "planted_pairs", "n": 40, "d": 5, "p": 2.0, "seed": 3,
                  "out": str(replay_out), "distances": [0.5, 0.9], "pairs": 8,
                  "spread": 4.0, "truth_out": f"{tmp_path}/truth.csv"}
        assert self._replay(tmp_path, "gen-data", params) == 0
        assert replay_out.read_bytes() == flags_out.read_bytes()
        truth = (tmp_path / "truth.csv").read_bytes()
        assert truth == (tmp_path / "flags.txt.pairs.csv").read_bytes()

    def test_false_positive_grid_with_an_infinite_exponent(self, tmp_path):
        flags_out, replay_out = tmp_path / "flags.csv", tmp_path / "replay.csv"
        common = ["verify-bounds", "--mode", "false-positive", "--ds", "4",
                  "--c-multipliers", "3", "--shapes", "axis", "--trials", "500",
                  "--seeds", "2"]
        assert main([*common, "--ps", "2,inf", "--out", str(flags_out)]) == 0
        params = {"mode": "false-positive", "kinds": ["uniform_cube"], "ds": [4],
                  "shapes": ["axis"], "trials": 500, "seeds": [2],
                  "out": str(replay_out), "format": "csv",
                  "self_test_bound_scale": 1.0, "q": 2.0, "ps": [2.0, "inf"],
                  "c_multipliers": [3.0]}
        assert self._replay(tmp_path, "verify-bounds", params) == 0
        assert replay_out.read_bytes() == flags_out.read_bytes()

    def test_build_with_resolved_factor_and_levels(self, tmp_path):
        dataset = _gen_gaussian(tmp_path)
        flags_out, replay_out = tmp_path / "flags.bin", tmp_path / "replay.bin"
        assert main(["build", "--dataset", str(dataset), "--variant",
                     "fast_preprocessing", "--c", "30.0", "--levels", "3",
                     "--master-seed", "11", "--out", str(flags_out)]) == 0
        # n, d and p are recorded for readers; replayed as flags, --d would
        # abbreviate --dataset
        params = {"dataset": str(dataset), "kind": "uniform_cube",
                  "variant": "fast_preprocessing", "p": 2.0, "d": 6, "n": 60,
                  "c": 30.0, "levels": 3, "master_seed": 11, "max_entries": 10000000,
                  "unsafe_override": False, "calibrate_fp_trials": 0,
                  "out": str(replay_out)}
        assert self._replay(tmp_path, "build", params) == 0
        assert replay_out.read_bytes() == flags_out.read_bytes()

    def test_bench_index_with_auto_levels_and_no_audit(self, tmp_path):
        dataset = _gen_gaussian(tmp_path)
        queries = _gen_gaussian(tmp_path, name="queries.txt", n=5, seed="9")
        flags_out, replay_out = tmp_path / "flags.csv", tmp_path / "replay.csv"
        assert main(["bench-index", "--dataset", str(dataset), "--queries",
                     str(queries), "--variants", "fast_preprocessing",
                     "--c-multipliers", "2", "--levels", "auto", "--master-seeds",
                     "1", "--no-audit", "--out", str(flags_out)]) == 0
        params = {"dataset": str(dataset), "queries": str(queries),
                  "kinds": ["uniform_cube"], "variants": ["fast_preprocessing"],
                  "c_multipliers": [2.0], "levels": "auto", "master_seeds": [1],
                  "max_entries": 10000000, "calibrate_fp_trials": 0, "audit": False,
                  "out": str(replay_out), "format": "csv", "n": 60, "d": 6, "p": 2.0}
        assert self._replay(tmp_path, "bench-index", params) == 0
        assert replay_out.read_bytes() == flags_out.read_bytes()

    @pytest.mark.parametrize(
        "key, value, message",
        [("schema_version", 2, "manifest schema_version 2 not supported (expected 1)"),
         ("command", "bogus", "manifest names unknown command 'bogus'")],
    )
    def test_a_manifest_of_another_schema_or_command_is_a_usage_error(
        self, tmp_path, capsys, key, value, message
    ):
        params = {"ds": [4], "lambdas": [0.5], "trials": 100, "seed": 1,
                  "out": str(tmp_path / "levy.csv"), "format": "csv"}
        manifest = _write_manifest(tmp_path / "m.manifest.json", "levy", params)
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
        assert main(["replay", "--manifest", str(manifest)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "levy.csv").exists()

    @pytest.mark.parametrize(
        "change, message",
        [({"trials": "abc"}, "--trials: invalid int value: 'abc'"),
         ({"bogus": 1}, "unrecognized arguments: --bogus=1"),
         # a key that abbreviates an option is still unknown
         ({"tri": 5}, "unrecognized arguments: --tri=5")],
    )
    def test_a_bad_manifest_is_a_usage_error(self, tmp_path, change, message):
        params = {"ds": [4], "lambdas": [0.5], "trials": 100, "seed": 1,
                  "out": str(tmp_path / "levy.csv"), "format": "csv", **change}
        manifest = _write_manifest(tmp_path / "m.manifest.json", "levy", params)
        result = _floorlsh("replay", "--manifest", manifest)
        assert result.returncode == 2
        assert message in result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "levy.csv").exists()


_BENCH_FLAGS = ["--dataset", "d", "--queries", "q", "--master-seeds", "1", "--out", "x"]
_BENCH_PARAMS = {
    "dataset": "d", "queries": "q", "kinds": [FamilyKind.UNIFORM_CUBE],
    "variants": [Variant.FAST_QUERY, Variant.FAST_PREPROCESSING], "c_multipliers": [4.0],
    "levels": "auto", "master_seeds": [1], "max_entries": 10000000,
    "calibrate_fp_trials": 0, "audit": True, "out": "x", "format": "csv",
}

#: Each subcommand's parameter set for its required flags alone, typed by the
#: parser, as its runner receives it.  Manifests record this set together
#: with the values the run resolved from it, and replay parses the recorded
#: set back through the same parser.
_PARAMS = {
    "gen-data": (
        ["--shape", "gaussian", "--n", "5", "--d", "2", "--p", "2", "--seed", "1",
         "--out", "x"],
        {"shape": "gaussian", "n": 5, "d": 2, "p": 2.0, "seed": 1, "out": "x",
         "scale": 1.0, "distances": [0.5, 0.75, 0.999], "pairs": 50, "spread": 6.0,
         "truth_out": None, "c": None, "lo_factor": 1.05, "hi_factor": 1.5,
         "max_norm_factor": 0.04},
    ),
    "verify-bounds": (
        ["--seeds", "1", "--out", "x"],
        {"mode": "small-ball", "kinds": [FamilyKind.UNIFORM_CUBE], "ps": [2.0],
         "ds": [2, 8, 64], "shapes": [FarPairShape.AXIS, FarPairShape.FLAT,
                                      FarPairShape.TWO_COORDINATE],
         "alphas": [0.05, 0.1, 0.25, 0.5],
         "c_multipliers": [4.0, 10.0, 20.0], "q": 2.0, "trials": 100000, "seeds": [1],
         "out": "x", "format": "csv", "self_test_bound_scale": 1.0},
    ),
    "levy": (
        ["--seed", "1", "--out", "x"],
        {"ds": [4, 16], "lambdas": [0.1, 0.5, 1.0], "trials": 100000, "seed": 1,
         "out": "x", "format": "csv"},
    ),
    "probe-conjecture": (
        ["--q", "2", "--seed", "1", "--out", "x"],
        {"q": 2.0, "ds": [8, 64], "epsilons": [0.01, 0.02, 0.05, 0.1], "trials": 100000,
         "seed": 1, "out": "x", "format": "csv"},
    ),
    "build": (
        ["--dataset", "d", "--master-seed", "1", "--out", "x"],
        {"dataset": "d", "kind": "uniform_cube", "variant": "fast_query", "c": None,
         "c_multiplier": None, "levels": "auto", "master_seed": 1,
         "max_entries": 10000000, "unsafe_override": False, "calibrate_fp_trials": 0,
         "out": "x"},
    ),
    "query": (
        ["--index", "i", "--queries", "q", "--out", "x"],
        {"index": "i", "queries": "q", "out": "x", "audit": False},
    ),
    "bench-index": (_BENCH_FLAGS, _BENCH_PARAMS),
    "bench-index --no-audit": (
        [*_BENCH_FLAGS, "--no-audit"], {**_BENCH_PARAMS, "audit": False}
    ),
    "replay": (["--manifest", "m"], {"manifest": "m"}),
}


def _typed(value):
    """``value`` with the type of every scalar, so that 2 and 2.0 differ and
    a family kind differs from its name."""
    if isinstance(value, dict):
        return {key: _typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return type(value), value


class TestParameters:
    @pytest.mark.parametrize("name", list(_PARAMS))
    def test_runners_receive_the_recorded_parameter_set(self, name, monkeypatch):
        flags, expected = _PARAMS[name]
        received = []

        def record(params):
            received.append(params)
            return 0

        for command in cli._RUNNERS:
            monkeypatch.setitem(cli._RUNNERS, command, record)
        monkeypatch.setattr(cli, "run_replay", record)
        assert main([name.split()[0], *flags]) == 0
        assert received == [expected]
        assert _typed(received[0]) == _typed(expected)
