"""Command-line surface: dataset generation, bound verification, index
benchmarking, and manifest-driven replay.

``build_parser`` is the one declaration of every option: its name, type and
default.  The parsed namespace is the parameter set a runner reads, and
every command writes ``<out>.manifest.json`` recording that set together
with the values the run resolved from it (the planted pairs' truth path, the
factor ``c``, the level count, a dataset's ``n``/``d``/``p``).  ``replay``
turns a manifest's parameters back into ``--flag=value`` arguments and
parses them with the same parser, so a replayed run is typed and checked
exactly like a fresh one.  Commands run deterministically from explicit
seeds.  Data tables (CSV / JSON / JSONL) never contain timestamps or
wall-clock values, so replaying a manifest reproduces them byte for byte;
creation time and timings live only in the manifest and on stdout.

Exit codes: 0 success, 1 a checked bound or recall guarantee failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .data import (
    far_ring_dataset,
    gaussian_points,
    jsonable,
    near_origin_queries,
    open_output,
    planted_pairs_dataset,
    read_points,
    uniform_cube_points,
    write_jsonl,
    write_pairs_truth,
    write_points,
    write_table,
)
from .estimation import (
    BOUND_COLUMNS,
    CONJECTURE_COLUMNS,
    FarPairShape,
    LEVY_COLUMNS,
    conjecture_probe,
    estimate_false_positive_rate,
    false_positive_record,
    levy_concentration,
    small_ball_curve,
    small_ball_record,
    theoretical_q_bound,
    unit_direction,
)
from .exact import audit_results, ground_truth
from .families import PROVEN_ADJACENCY_KINDS, FamilyKind, c_threshold, pool_projections
from .index import DEFAULT_MAX_ENTRIES, IndexConfig, LshIndex, Variant, choose_levels
from .lpspace import check_exponent

SCHEMA_VERSION = 1

BENCH_COLUMNS = (
    "kind",
    "p",
    "d",
    "n",
    "variant",
    "c",
    "levels",
    "master_seed",
    "n_queries",
    "recall_min",
    "recall_mean",
    "precision_min",
    "precision_mean",
    "missing_total",
    "mean_candidates",
    "mean_buckets_probed",
    "mean_distance_evals",
    "mean_duplicates_suppressed",
    "entries",
    "unique_buckets",
)

def _comma_list(convert):
    """Argparse type: a nonempty comma-separated list of ``convert`` values."""

    def parse(text: str) -> list:
        try:
            items = [convert(part.strip()) for part in text.split(",") if part.strip()]
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
        if not items:
            raise argparse.ArgumentTypeError("expected a nonempty comma-separated list")
        return items

    return parse


def _levels(text: str) -> str | int:
    """Argparse type of ``--levels``: a label length or ``auto``."""
    return text if text == "auto" else int(text)


def _write_manifest(
    out: str, command: str, params: dict, extra: dict | None = None
) -> str:
    """Write ``<out>.manifest.json`` and return its path.

    The manifest is the only artifact allowed to carry wall-clock data
    (``created_utc`` and any timing entries in ``extra``).
    """
    path = f"{out}.manifest.json"
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "floorlsh",
        "tool_version": __version__,
        "command": command,
        "params": params,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    with open_output(path) as handle:
        json.dump(jsonable(manifest), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ---------------------------------------------------------------------------
# gen-data


def run_gen_data(params: dict) -> int:
    shape = params["shape"]
    n, d, seed, out = params["n"], params["d"], params["seed"], params["out"]
    p = check_exponent(params["p"])
    resolved = {**params, "p": p}

    if shape in {"gaussian", "uniform_cube"}:
        maker = gaussian_points if shape == "gaussian" else uniform_cube_points
        points = maker(n, d, seed, scale=params["scale"])
    elif shape == "planted_pairs":
        resolved["truth_out"] = params["truth_out"] or f"{out}.pairs.csv"
        points, planted = planted_pairs_dataset(
            n, d, p, params["distances"], params["pairs"], seed, params["spread"]
        )
        write_pairs_truth(resolved["truth_out"], planted)
    elif params["c"] is None:
        raise ValueError(f"--c is required for shape {shape}")
    elif shape == "far_ring":
        points = far_ring_dataset(
            n, d, p, params["c"], seed,
            lo_factor=params["lo_factor"], hi_factor=params["hi_factor"],
        )
    else:  # near_queries
        points = near_origin_queries(
            n, d, p, params["c"], seed, max_norm_factor=params["max_norm_factor"]
        )

    write_points(out, points, p)
    _write_manifest(out, "gen-data", resolved)
    print(f"gen-data: wrote {n} points (d={d}, shape={shape}) to {out}")
    return 0


# ---------------------------------------------------------------------------
# verify-bounds


def _small_ball_grid(params: dict):
    """Every estimate of the small-ball grid."""
    for kind in params["kinds"]:
        kwargs = {"q": params["q"]} if kind is FamilyKind.LQ_SPHERE_EXPERIMENTAL else {}
        for d in params["ds"]:
            for shape in params["shapes"]:
                x = unit_direction(shape, 2.0, d)
                for seed in params["seeds"]:
                    yield from small_ball_curve(
                        kind, d, x, params["alphas"], params["trials"], seed, **kwargs
                    )


def _false_positive_grid(params: dict):
    """Every estimate of the false-positive grid, once every cell's family
    threshold is known to exist."""
    taus = {
        (kind, p, d): _threshold(kind, p, d)
        for kind in params["kinds"] for p in params["ps"] for d in params["ds"]
    }
    for kind in params["kinds"]:
        for p in params["ps"]:
            for d in params["ds"]:
                tau = taus[kind, p, d]
                for mult in params["c_multipliers"]:
                    for shape in params["shapes"]:
                        for seed in params["seeds"]:
                            yield estimate_false_positive_rate(
                                kind, p, d, mult * tau, params["trials"], seed,
                                shape=shape,
                            )


def run_verify_bounds(params: dict) -> int:
    mode = params["mode"]
    scale = params["self_test_bound_scale"]
    if not 0.0 < scale < math.inf:
        raise ValueError(
            f"--self-test-bound-scale must be positive and finite, got {scale}"
        )
    if mode == "small-ball":
        grid, record = _small_ball_grid, small_ball_record
    else:
        grid, record = _false_positive_grid, false_positive_record
    records = []
    violations = 0
    for est in grid(params):
        if est.bound is not None:
            est = dataclasses.replace(est, bound=est.bound * scale)
        violations += est.violated
        records.append(record(est))

    paths = write_table(params["out"], params["format"], BOUND_COLUMNS, records)
    _write_manifest(params["out"], "verify-bounds", params)
    print(
        f"verify-bounds[{mode}]: {len(records)} rows -> {', '.join(paths)}; "
        f"violations={violations}"
        + (f" (self-test bound scale {scale})" if scale != 1.0 else "")
    )
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# levy


def run_levy(params: dict) -> int:
    trials = params["trials"]
    records = []
    violations = 0
    for d in params["ds"]:
        x = np.ones(d)
        samples = pool_projections(
            FamilyKind.UNIFORM_CUBE, d, trials, params["seed"], x[None, :]
        )[0]
        variances = x**2 / 3.0
        norm2 = math.sqrt(d)
        for lam_rel in params["lambdas"]:
            lam = lam_rel * norm2
            q_hat = levy_concentration(samples, lam)
            bound = theoretical_q_bound(variances, lam)
            sigma = math.sqrt(q_hat * (1.0 - q_hat) / trials)
            if q_hat > min(bound, 1.0) + 3.0 * sigma:
                violations += 1
            records.append(
                {
                    "d": d,
                    "lam": lam,
                    "trials": trials,
                    "q_hat": q_hat,
                    "bound": bound,
                    "sigma": sigma,
                }
            )

    paths = write_table(params["out"], params["format"], LEVY_COLUMNS, records)
    _write_manifest(params["out"], "levy", params)
    print(
        f"levy: {len(records)} rows -> {', '.join(paths)}; violations={violations}"
    )
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# probe-conjecture


def run_probe_conjecture(params: dict) -> int:
    q = check_exponent(params["q"])
    records = []
    for d in params["ds"]:
        rows = conjecture_probe(
            q, d, params["epsilons"], params["trials"], params["seed"]
        )
        records.extend(map(dataclasses.asdict, rows))
    paths = write_table(params["out"], params["format"], CONJECTURE_COLUMNS, records)
    _write_manifest(params["out"], "probe-conjecture", params)
    max_ratio = max((record["ratio"] for record in records), default=0.0)
    print(
        f"probe-conjecture: {len(records)} rows -> {', '.join(paths)}; "
        f"max ratio {max_ratio:.4f} (observational, never fails)"
    )
    return 0


# ---------------------------------------------------------------------------
# build / query


def _threshold(kind: FamilyKind | str, p: float, d: int) -> float:
    """The family threshold tau that ``--c-multiplier`` and
    ``--c-multipliers`` multiply."""
    tau = c_threshold(kind, p, d)
    if tau is None:
        raise ValueError(f"family {FamilyKind(kind).value} has no collision threshold")
    return tau


def _build_index(
    params: dict, points: np.ndarray, p: float, kind: FamilyKind | str,
    variant: Variant | str, c: float, master_seed: int, unsafe_override: bool = False,
) -> LshIndex:
    """Build the index that the index options in ``params`` (``levels``,
    ``max_entries``, ``calibrate_fp_trials``) give for one family, layout,
    factor and master seed."""
    n, d = points.shape
    levels = None if params["levels"] == "auto" else params["levels"]
    trials = params["calibrate_fp_trials"]
    if not trials >= 0:
        raise ValueError(f"--calibrate-fp-trials must be nonnegative, got {trials}")
    if levels is None and trials > 0:
        # the level count from a measured per-level collision rate in place
        # of the theoretical bound
        est = estimate_false_positive_rate(kind, p, d, c, trials, master_seed)
        levels = choose_levels(variant, n, d, max(est.p_fp_hat, 0.5 / trials))
    config = IndexConfig(
        p=p, d=d, c=c, kind=kind, variant=variant, levels=levels,
        master_seed=master_seed, unsafe_override=unsafe_override,
        max_entries=params["max_entries"],
    )
    return LshIndex.build(points, config)


def _read_queries(path: str, d: int, p: float) -> np.ndarray:
    """Read a query file, checking its exponent, then its dimension, against
    the index's."""
    queries, qp = read_points(path)
    if qp != p:
        raise ValueError(f"query file exponent {qp} != index exponent {p}")
    if queries.shape[1] != d:
        raise ValueError(f"query dimension {queries.shape[1]} != index dimension {d}")
    return queries


def run_build(params: dict) -> int:
    kind, out = params["kind"], params["out"]
    points, p = read_points(params["dataset"])
    n, d = points.shape
    if (params["c"] is None) == (params["c_multiplier"] is None):
        raise ValueError("exactly one of --c and --c-multiplier is required")
    c = params["c"]
    if c is None:
        c = params["c_multiplier"] * _threshold(kind, p, d)
    index = _build_index(
        params, points, p, kind, params["variant"], c, params["master_seed"],
        params["unsafe_override"],
    )
    index.save(out)
    # replay rebuilds from the resolved c and level count; n, d and p are
    # recorded for readers of the manifest
    resolved = {
        **params, "c": c, "levels": index.levels, "c_multiplier": None,
        "n": n, "d": d, "p": p,
    }
    stats = index.stats
    _write_manifest(
        out, "build", resolved, extra={"timings": {"build_seconds": stats.seconds}}
    )
    reach = ",".join(f"{r:.4g}" for r in index.reach)
    print(
        f"build: {n} points, levels={index.levels}, entries={stats.entries} "
        f"({stats.entries / n:.4g} per point), unique_buckets={stats.unique_buckets}, "
        f"reach=[{reach}], c={c:.6g} (threshold {c_threshold(kind, p, d):.6g}) -> {out}"
    )
    return 0


def run_query(params: dict) -> int:
    out, audit = params["out"], params["audit"]
    index = LshIndex.load(params["index"])
    config = index.config
    queries = _read_queries(params["queries"], config.d, config.p)

    started = time.perf_counter()
    results = index.query_batch(queries)
    elapsed = time.perf_counter() - started

    lines = (
        {"query_id": query_id, "neighbors": result.neighbors,
         **dataclasses.asdict(result.stats)}
        for query_id, result in enumerate(results)
    )
    write_jsonl(out, lines)

    missing_total = 0
    if audit:
        report = audit_results(
            results, ground_truth(index.points, queries, c=config.c, p=config.p)
        )
        write_jsonl(f"{out}.audit.jsonl", map(vars, report))
        missing_total = sum(len(record.missing) for record in report)

    _write_manifest(
        out, "query", params, extra={"timings": {"query_seconds": elapsed}}
    )
    message = f"query: {len(results)} queries -> {out}"
    if audit:
        message += f"; audit missing={missing_total}"
    print(message)
    return 1 if missing_total else 0


# ---------------------------------------------------------------------------
# bench-index


def run_bench_index(params: dict) -> int:
    audit = params["audit"]
    points, p = read_points(params["dataset"])
    n, d = points.shape
    queries = _read_queries(params["queries"], d, p)

    # every kind's threshold before the first build, so a kind without one
    # fails at once
    taus = {kind: _threshold(kind, p, d) for kind in params["kinds"]}
    truth_cache: dict[float, list] = {}
    rows = []
    timings = []
    missing_grand_total = 0
    for kind in params["kinds"]:
        tau = taus[kind]
        for mult in params["c_multipliers"]:
            c = mult * tau
            for variant in params["variants"]:
                for master_seed in params["master_seeds"]:
                    try:
                        index = _build_index(params, points, p, kind, variant, c, master_seed)
                    except ValueError as error:
                        raise ValueError(
                            f"bench-index cell kind {kind.value}, variant {variant.value}, "
                            f"c = {c:.6g} (multiplier {mult:g}), master seed {master_seed}: "
                            f"{error}"
                        ) from None
                    started = time.perf_counter()
                    results = index.query_batch(queries)
                    query_seconds = time.perf_counter() - started

                    def mean(counter: str) -> float:
                        return float(np.mean([getattr(r.stats, counter) for r in results]))

                    # without an audit the recall columns stay empty
                    row = {
                        "kind": kind.value,
                        "p": p,
                        "d": d,
                        "n": n,
                        "variant": variant.value,
                        "c": c,
                        "levels": index.levels,
                        "master_seed": master_seed,
                        "n_queries": len(results),
                        "mean_candidates": mean("candidates_scanned"),
                        "mean_buckets_probed": mean("buckets_probed"),
                        "mean_distance_evals": mean("distance_evals"),
                        "mean_duplicates_suppressed": mean("duplicates_suppressed"),
                        "entries": index.stats.entries,
                        "unique_buckets": index.stats.unique_buckets,
                    }

                    if audit:
                        if c not in truth_cache:
                            truth_cache[c] = ground_truth(points, queries, c, p)
                        records = audit_results(results, truth_cache[c])
                        recalls = [record.recall for record in records]
                        precisions = [record.precision for record in records]
                        missing_total = sum(len(record.missing) for record in records)
                        row.update(
                            recall_min=float(min(recalls)),
                            recall_mean=float(np.mean(recalls)),
                            precision_min=float(min(precisions)),
                            precision_mean=float(np.mean(precisions)),
                            missing_total=missing_total,
                        )
                        missing_grand_total += missing_total

                    rows.append(row)
                    timings.append(
                        {
                            "kind": kind.value,
                            "variant": variant.value,
                            "c": c,
                            "master_seed": master_seed,
                            "build_seconds": index.stats.seconds,
                            "query_seconds": query_seconds,
                        }
                    )

    out = params["out"]
    paths = write_table(out, params["format"], BENCH_COLUMNS, rows)
    resolved = {**params, "n": n, "d": d, "p": p}
    _write_manifest(out, "bench-index", resolved, extra={"timings": timings})
    message = f"bench-index: {len(rows)} rows -> {', '.join(paths)}"
    if audit:
        message += f"; missing={missing_grand_total}"
    print(message)
    return 1 if missing_grand_total else 0


# ---------------------------------------------------------------------------
# replay


_RUNNERS = {
    "gen-data": run_gen_data,
    "verify-bounds": run_verify_bounds,
    "levy": run_levy,
    "probe-conjecture": run_probe_conjecture,
    "build": run_build,
    "query": run_query,
    "bench-index": run_bench_index,
}


#: Keys that build and bench-index record for readers of the manifest: facts
#: about the dataset, not options, so replay leaves them out.
_DATASET_FACTS = ("n", "d", "p")


def _flags(params: dict) -> list[str]:
    """Recorded parameters as ``--flag=value`` arguments: lists joined with
    commas, booleans as ``--flag`` / ``--no-flag``, None left out."""
    flags = []
    for key, value in params.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            flags.append(flag if value else f"--no-{flag[2:]}")
        elif isinstance(value, list):
            flags.append(f"{flag}={','.join(map(str, value))}")
        elif value is not None:
            flags.append(f"{flag}={value}")
    return flags


def run_replay(params: dict) -> int:
    manifest_path = params["manifest"]
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {manifest_path} is not a JSON object")
    schema = manifest.get("schema_version")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"manifest schema_version {schema!r} not supported "
            f"(expected {SCHEMA_VERSION})"
        )
    command = manifest.get("command")
    if command not in _RUNNERS:
        raise ValueError(f"manifest names unknown command {command!r}")
    recorded = manifest.get("params")
    if not isinstance(recorded, dict):
        raise ValueError(f"manifest {manifest_path} has no params object")
    if command in {"build", "bench-index"}:
        recorded = {k: v for k, v in recorded.items() if k not in _DATASET_FACTS}
    # no abbreviations: a recorded key must name its option exactly
    parser = build_parser(allow_abbrev=False)
    replayed = vars(parser.parse_args([command, *_flags(recorded)]))
    del replayed["command"]
    print(f"replay: {command} from {manifest_path}")
    return _RUNNERS[command](replayed)


# ---------------------------------------------------------------------------
# argument parsing


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("csv", "json", "both"), default="csv",
        help="output table format (default csv)",
    )


def _add_index_options(sub: argparse.ArgumentParser) -> None:
    """The options ``_build_index`` reads, shared by build and bench-index."""
    sub.add_argument(
        "--levels", type=_levels, default="auto", help="label length or 'auto'"
    )
    sub.add_argument("--max-entries", type=int, default=DEFAULT_MAX_ENTRIES)
    sub.add_argument(
        "--calibrate-fp-trials", type=int, default=0,
        help="pick levels from this many measured collision trials instead "
        "of the theoretical bound (0 = theoretical)",
    )


def build_parser(allow_abbrev: bool = True) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floorlsh",
        description=(
            "Floored-projection hashing toolkit: generate datasets, verify "
            "collision bounds empirically, and benchmark the exact-recall "
            "index.  Every command writes <out>.manifest.json for replay."
        ),
        allow_abbrev=allow_abbrev,
    )
    parser.add_argument(
        "--version", action="version", version=f"floorlsh {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(commands.add_parser, allow_abbrev=allow_abbrev)
    ints, floats = _comma_list(int), _comma_list(float)

    gen = command(
        "gen-data", help="generate a dataset or query file in the text format"
    )
    gen.add_argument(
        "--shape", required=True,
        choices=("far_ring", "gaussian", "near_queries", "planted_pairs", "uniform_cube"),
        help="dataset shape",
    )
    gen.add_argument("--n", type=int, required=True, help="number of points")
    gen.add_argument("--d", type=int, required=True, help="dimension")
    gen.add_argument(
        "--p", type=float, required=True, help="norm exponent (1 <= p, or inf)"
    )
    gen.add_argument("--seed", type=int, required=True, help="generation seed")
    gen.add_argument("--out", required=True, help="output dataset path")
    gen.add_argument("--scale", type=float, default=1.0, help="gaussian/cube scale")
    gen.add_argument(
        "--distances", type=floats, default="0.5,0.75,0.999",
        help="planted pair distances, comma-separated",
    )
    gen.add_argument("--pairs", type=int, default=50, help="planted pair count")
    gen.add_argument("--spread", type=float, default=6.0, help="background spread")
    gen.add_argument("--truth-out", help="planted pairs truth CSV path")
    gen.add_argument(
        "--c", type=float, help="approximation factor (far_ring, near_queries)"
    )
    gen.add_argument(
        "--lo-factor", type=float, default=1.05, help="far ring inner radius / c"
    )
    gen.add_argument(
        "--hi-factor", type=float, default=1.5, help="far ring outer radius / c"
    )
    gen.add_argument(
        "--max-norm-factor", type=float, default=0.04, help="near query max norm / c"
    )

    verify = command(
        "verify-bounds",
        help="estimate collision probabilities over a grid and check bounds",
    )
    verify.add_argument(
        "--mode", choices=("small-ball", "false-positive"), default="small-ball"
    )
    verify.add_argument(
        "--kinds", type=_comma_list(FamilyKind), default="uniform_cube",
        help="comma-separated family kinds",
    )
    verify.add_argument(
        "--ps", type=floats, default="2", help="norm exponents (false-positive)"
    )
    verify.add_argument("--ds", type=ints, default="2,8,64", help="dimensions")
    verify.add_argument(
        "--shapes", type=_comma_list(FarPairShape),
        default="axis,flat,two_coordinate", help="direction shapes",
    )
    verify.add_argument(
        "--alphas", type=floats, default="0.05,0.1,0.25,0.5", help="small-ball radii"
    )
    verify.add_argument(
        "--c-multipliers", type=floats, default="4,10,20",
        help="c as multiples of the collision threshold (false-positive)",
    )
    verify.add_argument(
        "--q", type=float, default=2.0,
        help="sphere exponent for the experimental family",
    )
    verify.add_argument("--trials", type=int, default=100_000)
    verify.add_argument("--seeds", type=ints, required=True, help="comma-separated seeds")
    verify.add_argument("--out", required=True)
    verify.add_argument(
        "--self-test-bound-scale", type=float, default=1.0,
        help="multiply every bound before comparison; 0.1 should fail",
    )
    _add_format(verify)

    levy = command(
        "levy", help="check concentration-function bounds for cube projections"
    )
    levy.add_argument("--ds", type=ints, default="4,16", help="dimensions")
    levy.add_argument(
        "--lambdas", type=floats, default="0.1,0.5,1.0",
        help="window widths as multiples of the vector l2 norm",
    )
    levy.add_argument("--trials", type=int, default=100_000)
    levy.add_argument("--seed", type=int, required=True)
    levy.add_argument("--out", required=True)
    _add_format(levy)

    probe = command(
        "probe-conjecture",
        help="measure small-ball rates for the experimental sphere family",
    )
    probe.add_argument(
        "--q", type=float, required=True,
        help="hash exponent; random directions live on the dual sphere",
    )
    probe.add_argument("--ds", type=ints, default="8,64", help="dimensions")
    probe.add_argument("--epsilons", type=floats, default="0.01,0.02,0.05,0.1")
    probe.add_argument("--trials", type=int, default=100_000)
    probe.add_argument("--seed", type=int, required=True)
    probe.add_argument("--out", required=True)
    _add_format(probe)

    build = command("build", help="build and serialize an index")
    build.add_argument("--dataset", required=True, help="points file")
    build.add_argument(
        "--kind", default="uniform_cube",
        choices=[kind.value for kind in FamilyKind if kind in PROVEN_ADJACENCY_KINDS],
    )
    build.add_argument(
        "--variant", default="fast_query", choices=[variant.value for variant in Variant]
    )
    build.add_argument("--c", type=float, help="approximation factor")
    build.add_argument(
        "--c-multiplier", type=float,
        help="approximation factor as multiple of the threshold",
    )
    build.add_argument("--master-seed", type=int, required=True)
    _add_index_options(build)
    build.add_argument(
        "--unsafe-override", action=argparse.BooleanOptionalAction, default=False,
        help="allow c at or below the collision threshold (guarantee void)",
    )
    build.add_argument("--out", required=True, help="index image path")

    query = command("query", help="query a serialized index")
    query.add_argument("--index", required=True, help="index image path")
    query.add_argument("--queries", required=True, help="query points file")
    query.add_argument("--out", required=True, help="results JSONL path")
    query.add_argument(
        "--audit", action=argparse.BooleanOptionalAction, default=False,
        help="compare against exact search; exit 1 on any missed neighbor",
    )

    bench = command(
        "bench-index", help="build/query a config grid and report recall + cost"
    )
    bench.add_argument("--dataset", required=True)
    bench.add_argument("--queries", required=True)
    bench.add_argument("--kinds", type=_comma_list(FamilyKind), default="uniform_cube")
    bench.add_argument(
        "--variants", type=_comma_list(Variant),
        default="fast_query,fast_preprocessing",
    )
    bench.add_argument("--c-multipliers", type=floats, default="4")
    bench.add_argument("--master-seeds", type=ints, required=True)
    _add_index_options(bench)
    bench.add_argument(
        "--audit", action=argparse.BooleanOptionalAction, default=True,
        help="compare against exact search (--no-audit skips the recall columns)",
    )
    bench.add_argument("--out", required=True)
    _add_format(bench)

    replay = command("replay", help="re-run a command from its manifest")
    replay.add_argument("--manifest", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    # every option's destination is its parameter name, so the parsed
    # namespace is the parameter set the runner reads and the manifest records
    params = vars(build_parser().parse_args(argv))
    runner = _RUNNERS.get(params.pop("command"), run_replay)
    try:
        return runner(params)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
