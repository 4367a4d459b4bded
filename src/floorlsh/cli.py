"""Command-line surface: dataset generation, bound verification, index
benchmarking, and manifest-driven replay.

Every command resolves its full parameter set up front, runs
deterministically from explicit seeds, and writes ``<out>.manifest.json``
echoing that resolved set.  Data tables (CSV / JSON / JSONL) never contain
timestamps or wall-clock values, so replaying a manifest reproduces them
byte for byte; creation time and timings live only in the manifest and on
stdout.

Exit codes: 0 success, 1 a checked bound or recall guarantee failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    far_ring_dataset,
    gaussian_points,
    near_origin_queries,
    planted_pairs_dataset,
    read_points,
    uniform_cube_points,
    write_pairs_truth,
    write_points,
)
from .estimation import (
    BOUND_COLUMNS,
    CONJECTURE_COLUMNS,
    FarPairShape,
    LEVY_COLUMNS,
    conjecture_probe,
    conjecture_record,
    estimate_false_positive_rate,
    false_positive_record,
    levy_concentration,
    small_ball_curve,
    small_ball_record,
    theoretical_q_bound,
    unit_direction,
    write_records_csv,
    write_records_json,
)
from .exact import audit_results, ground_truth, write_recall_jsonl
from .families import FamilyKind, c_threshold, sample_pool
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

_SHAPE_ALIASES = {
    "gaussian": "gaussian",
    "uniform_cube": "uniform_cube",
    "uniform_cube_points": "uniform_cube",
    "planted_pairs": "planted_pairs",
    "far_ring": "far_ring",
    "near_queries": "near_queries",
}


def _as_float(value: object) -> float:
    """Coerce a CLI or manifest value to float, accepting 'inf'."""
    if isinstance(value, str):
        text = value.strip().lower()
        if text in {"inf", "infinity"}:
            return math.inf
        if text in {"-inf", "-infinity"}:
            return -math.inf
        return float(text)
    return float(value)  # type: ignore[arg-type]


def _as_float_list(value: object) -> list[float]:
    if isinstance(value, str):
        return [_as_float(part) for part in value.split(",") if part.strip()]
    return [_as_float(item) for item in value]  # type: ignore[union-attr]


def _as_int_list(value: object) -> list[int]:
    if isinstance(value, str):
        return [int(part) for part in value.split(",") if part.strip()]
    return [int(item) for item in value]  # type: ignore[union-attr]


def _as_str_list(value: object) -> list[str]:
    if isinstance(value, str):
        return [part.strip() for part in value.split(",") if part.strip()]
    return [str(item) for item in value]  # type: ignore[union-attr]


def _as_levels(value: object) -> int | None:
    if value is None or value == "auto":
        return None
    return int(value)  # type: ignore[arg-type]


def _manifest_value(value: object) -> object:
    """Recursively convert a parameter value to a JSON-safe form."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (list, tuple)):
        return [_manifest_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _manifest_value(item) for key, item in value.items()}
    return value


def _write_manifest(
    out: str, command: str, params: dict, extra: dict | None = None
) -> str:
    """Write ``<out>.manifest.json`` and return its path.

    The manifest is the only artifact allowed to carry wall-clock data
    (``created_utc`` and any timing entries in ``extra``).
    """
    path = Path(f"{out}.manifest.json")
    if path.parent != Path():
        path.parent.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "floorlsh",
        "tool_version": __version__,
        "command": command,
        "params": _manifest_value(params),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(_manifest_value(extra))
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return str(path)


def _emit_records(out: str, fmt: str, columns, records) -> list[str]:
    """Write records in the requested format(s); return written paths."""
    if fmt not in {"csv", "json", "both"}:
        raise ValueError(f"unknown format {fmt!r}")
    parent = Path(out).parent
    if parent != Path():
        parent.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in {"csv", "both"}:
        write_records_csv(out, columns, records)
        written.append(out)
    if fmt == "json":
        write_records_json(out, columns, records)
        written.append(out)
    elif fmt == "both":
        json_path = f"{out}.json"
        write_records_json(json_path, columns, records)
        written.append(json_path)
    return written


# ---------------------------------------------------------------------------
# gen-data


def run_gen_data(params: dict) -> int:
    shape = _SHAPE_ALIASES.get(str(params["shape"]))
    if shape is None:
        raise ValueError(f"unknown dataset shape {params['shape']!r}")
    n = int(params["n"])
    d = int(params["d"])
    p = check_exponent(_as_float(params["p"]))
    seed = int(params["seed"])
    out = str(params["out"])
    resolved = {"shape": shape, "n": n, "d": d, "p": p, "seed": seed, "out": out}

    if shape in {"gaussian", "uniform_cube"}:
        scale = _as_float(params.get("scale", 1.0))
        resolved["scale"] = scale
        maker = gaussian_points if shape == "gaussian" else uniform_cube_points
        points = maker(n, d, seed, scale=scale)
    elif shape == "planted_pairs":
        distances = _as_float_list(params.get("distances", [0.5, 0.75, 0.999]))
        pairs = int(params.get("pairs", 50))
        spread = _as_float(params.get("spread", 6.0))
        truth_out = str(params.get("truth_out") or f"{out}.pairs.csv")
        resolved.update(
            distances=distances, pairs=pairs, spread=spread, truth_out=truth_out
        )
        points, planted = planted_pairs_dataset(n, d, p, distances, pairs, seed, spread)
        write_pairs_truth(truth_out, planted)
    elif shape == "far_ring":
        if params.get("c") is None:
            raise ValueError("--c is required for shape far_ring")
        c = _as_float(params["c"])
        lo = _as_float(params.get("lo_factor", 1.05))
        hi = _as_float(params.get("hi_factor", 1.5))
        resolved.update(c=c, lo_factor=lo, hi_factor=hi)
        points = far_ring_dataset(n, d, p, c, seed, lo_factor=lo, hi_factor=hi)
    else:  # near_queries
        if params.get("c") is None:
            raise ValueError("--c is required for shape near_queries")
        c = _as_float(params["c"])
        max_norm = _as_float(params.get("max_norm_factor", 0.04))
        resolved.update(c=c, max_norm_factor=max_norm)
        points = near_origin_queries(n, d, p, c, seed, max_norm_factor=max_norm)

    write_points(out, points, p)
    _write_manifest(out, "gen-data", resolved)
    print(f"gen-data: wrote {n} points (d={d}, shape={shape}) to {out}")
    return 0


# ---------------------------------------------------------------------------
# verify-bounds


def _scaled_verdict(bound: float | None, ci_low: float, scale: float):
    """Apply a self-test multiplier to a bound; return (bound, vacuous,
    violated) under the scaled comparison."""
    if bound is None:
        return None, True, False
    scaled = bound * scale
    vacuous = scaled > 1.0
    return scaled, vacuous, (not vacuous) and ci_low > scaled


def run_verify_bounds(params: dict) -> int:
    mode = str(params.get("mode", "small-ball"))
    if mode not in {"small-ball", "false-positive"}:
        raise ValueError(f"unknown verify-bounds mode {mode!r}")
    kinds = [FamilyKind(k) for k in _as_str_list(params.get("kinds", "uniform_cube"))]
    ds = _as_int_list(params.get("ds", "2,8,64"))
    shapes = [FarPairShape(s) for s in
              _as_str_list(params.get("shapes", "axis,flat,two_coordinate"))]
    trials = int(params.get("trials", 100_000))
    seeds = _as_int_list(params["seeds"])
    out = str(params["out"])
    fmt = str(params.get("format", "csv"))
    scale = _as_float(params.get("self_test_bound_scale", 1.0))
    q = _as_float(params.get("q", 2.0))
    if not ds or not seeds or not kinds or not shapes:
        raise ValueError("verify-bounds grids must be nonempty")

    resolved = {
        "mode": mode,
        "kinds": [k.value for k in kinds],
        "ds": ds,
        "shapes": [s.value for s in shapes],
        "trials": trials,
        "seeds": seeds,
        "out": out,
        "format": fmt,
        "self_test_bound_scale": scale,
        "q": q,
    }

    records = []
    violations = 0
    if mode == "small-ball":
        alphas = _as_float_list(params.get("alphas", "0.05,0.1,0.25,0.5"))
        if not alphas:
            raise ValueError("verify-bounds grids must be nonempty")
        resolved["alphas"] = alphas
        for kind in kinds:
            for d in ds:
                for shape in shapes:
                    x = unit_direction(shape, 2.0, d)
                    for seed in seeds:
                        kwargs = {"q": q} if kind is FamilyKind.LQ_SPHERE_EXPERIMENTAL else {}
                        curve = small_ball_curve(
                            kind, d, x, alphas, trials, seed, **kwargs
                        )
                        for est in curve:
                            record = small_ball_record(est)
                            bound, vacuous, violated = _scaled_verdict(
                                est.bound, est.ci_low, scale
                            )
                            record["bound"] = bound
                            record["vacuous"] = vacuous
                            violations += violated
                            records.append(record)
    else:
        ps = _as_float_list(params.get("ps", "2"))
        multipliers = _as_float_list(params.get("c_multipliers", "4,10,20"))
        if not ps or not multipliers:
            raise ValueError("verify-bounds grids must be nonempty")
        resolved["ps"] = ps
        resolved["c_multipliers"] = multipliers
        for kind in kinds:
            for p in ps:
                for d in ds:
                    tau = c_threshold(kind, p, d)
                    if tau is None:
                        raise ValueError(
                            f"family {kind.value} has no false-positive bound"
                        )
                    for mult in multipliers:
                        for shape in shapes:
                            for seed in seeds:
                                est = estimate_false_positive_rate(
                                    kind, p, d, mult * tau, trials, seed, shape=shape
                                )
                                record = false_positive_record(est)
                                bound, vacuous, violated = _scaled_verdict(
                                    est.bound, est.ci_low, scale
                                )
                                record["bound"] = bound
                                record["vacuous"] = vacuous
                                violations += violated
                                records.append(record)

    paths = _emit_records(out, fmt, BOUND_COLUMNS, records)
    _write_manifest(out, "verify-bounds", resolved)
    print(
        f"verify-bounds[{mode}]: {len(records)} rows -> {', '.join(paths)}; "
        f"violations={violations}"
        + (f" (self-test bound scale {scale})" if scale != 1.0 else "")
    )
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# levy


def run_levy(params: dict) -> int:
    ds = _as_int_list(params.get("ds", "4,16"))
    lambdas = _as_float_list(params.get("lambdas", "0.1,0.5,1.0"))
    trials = int(params.get("trials", 100_000))
    seed = int(params["seed"])
    out = str(params["out"])
    fmt = str(params.get("format", "csv"))
    if not ds or not lambdas:
        raise ValueError("levy grids must be nonempty")
    resolved = {
        "ds": ds,
        "lambdas": lambdas,
        "trials": trials,
        "seed": seed,
        "out": out,
        "format": fmt,
    }

    records = []
    violations = 0
    for d in ds:
        x = np.ones(d)
        pool = sample_pool(FamilyKind.UNIFORM_CUBE, d, trials, seed)
        samples = pool @ x
        variances = x**2 / 3.0
        norm2 = math.sqrt(d)
        for lam_rel in lambdas:
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

    paths = _emit_records(out, fmt, LEVY_COLUMNS, records)
    _write_manifest(out, "levy", resolved)
    print(
        f"levy: {len(records)} rows -> {', '.join(paths)}; violations={violations}"
    )
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# probe-conjecture


def run_probe_conjecture(params: dict) -> int:
    q = check_exponent(_as_float(params["q"]))
    ds = _as_int_list(params.get("ds", "8,64"))
    epsilons = _as_float_list(params.get("epsilons", "0.01,0.02,0.05,0.1"))
    trials = int(params.get("trials", 100_000))
    seed = int(params["seed"])
    out = str(params["out"])
    fmt = str(params.get("format", "csv"))
    if not ds or not epsilons:
        raise ValueError("probe-conjecture grids must be nonempty")
    resolved = {
        "q": q,
        "ds": ds,
        "epsilons": epsilons,
        "trials": trials,
        "seed": seed,
        "out": out,
        "format": fmt,
    }

    records = []
    for d in ds:
        rows = conjecture_probe(q, d, epsilons, trials, seed)
        records.extend(conjecture_record(row) for row in rows)
    paths = _emit_records(out, fmt, CONJECTURE_COLUMNS, records)
    _write_manifest(out, "probe-conjecture", resolved)
    max_ratio = max((record["ratio"] for record in records), default=0.0)
    print(
        f"probe-conjecture: {len(records)} rows -> {', '.join(paths)}; "
        f"max ratio {max_ratio:.4f} (observational, never fails)"
    )
    return 0


# ---------------------------------------------------------------------------
# build / query


def _resolve_c(params: dict, kind: FamilyKind, p: float, d: int) -> float:
    """Resolve the approximation factor from --c or --c-multiplier."""
    c_raw = params.get("c")
    mult_raw = params.get("c_multiplier")
    if (c_raw is None) == (mult_raw is None):
        raise ValueError("exactly one of --c and --c-multiplier is required")
    if c_raw is not None:
        return _as_float(c_raw)
    tau = c_threshold(kind, p, d)
    if tau is None:
        raise ValueError(f"family {kind.value} has no collision threshold")
    return _as_float(mult_raw) * tau


def _calibrated_levels(
    variant: Variant,
    kind: FamilyKind,
    p: float,
    d: int,
    n: int,
    c: float,
    trials: int,
    seed: int,
) -> int:
    """Pick the label length from a measured per-level collision rate
    instead of the theoretical bound."""
    est = estimate_false_positive_rate(kind, p, d, c, trials, seed)
    p_fp = max(est.p_fp_hat, 0.5 / trials)
    if p_fp >= 1.0:
        raise ValueError("measured collision rate is 1; cannot calibrate levels")
    return choose_levels(variant, n, d, p_fp)


def run_build(params: dict) -> int:
    dataset = str(params["dataset"])
    kind = FamilyKind(str(params.get("kind", "uniform_cube")))
    variant = Variant(str(params.get("variant", "fast_query")))
    master_seed = int(params["master_seed"])
    levels = _as_levels(params.get("levels", "auto"))
    max_entries = int(params.get("max_entries", DEFAULT_MAX_ENTRIES))
    unsafe = bool(params.get("unsafe_override", False))
    calibrate = int(params.get("calibrate_fp_trials", 0))
    out = str(params["out"])

    points, p = read_points(dataset)
    n, d = points.shape
    c = _resolve_c(params, kind, p, d)
    if levels is None and calibrate > 0:
        levels = _calibrated_levels(
            variant, kind, p, d, n, c, calibrate, master_seed
        )
    config = IndexConfig(
        p=p,
        d=d,
        c=c,
        kind=kind,
        variant=variant,
        levels=levels,
        master_seed=master_seed,
        unsafe_override=unsafe,
        max_entries=max_entries,
    )
    index = LshIndex.build(points, config)
    index.save(out)
    resolved = {
        "dataset": dataset,
        "kind": kind.value,
        "variant": variant.value,
        "p": p,
        "d": d,
        "n": n,
        "c": c,
        "levels": index.levels,
        "master_seed": master_seed,
        "max_entries": max_entries,
        "unsafe_override": unsafe,
        "calibrate_fp_trials": calibrate,
        "out": out,
    }
    stats = index.stats
    _write_manifest(
        out,
        "build",
        resolved,
        extra={"timings": {"build_seconds": stats.seconds}},
    )
    print(
        f"build: {n} points, levels={index.levels}, entries={stats.entries}, "
        f"unique_buckets={stats.unique_buckets}, c={c:.6g} "
        f"(threshold {config.c_threshold:.6g}) -> {out}"
    )
    return 0


def run_query(params: dict) -> int:
    index_path = str(params["index"])
    queries_path = str(params["queries"])
    out = str(params["out"])
    audit = bool(params.get("audit", False))

    index = LshIndex.load(index_path)
    queries, qp = read_points(queries_path)
    config = index.config
    if queries.shape[1] != config.d:
        raise ValueError(
            f"query dimension {queries.shape[1]} != index dimension {config.d}"
        )
    if qp != config.p:
        raise ValueError(f"query file exponent {qp} != index exponent {config.p}")

    started = time.perf_counter()
    results = index.query_batch(queries)
    elapsed = time.perf_counter() - started

    parent = Path(out).parent
    if parent != Path():
        parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        for query_id, result in enumerate(results):
            stats = result.stats
            line = {
                "query_id": query_id,
                "neighbors": [[i, dist] for i, dist in result.neighbors],
                "buckets_probed": stats.buckets_probed,
                "candidates_scanned": stats.candidates_scanned,
                "distance_evals": stats.distance_evals,
                "duplicates_suppressed": stats.duplicates_suppressed,
            }
            handle.write(json.dumps(line) + "\n")

    missing_total = 0
    if audit:
        report = audit_results(
            results, ground_truth(index.points, queries, c=config.c, p=config.p)
        )
        write_recall_jsonl(f"{out}.audit.jsonl", report)
        missing_total = sum(len(record.missing) for record in report)

    resolved = {
        "index": index_path,
        "queries": queries_path,
        "out": out,
        "audit": audit,
    }
    _write_manifest(
        out, "query", resolved, extra={"timings": {"query_seconds": elapsed}}
    )
    message = f"query: {len(results)} queries -> {out}"
    if audit:
        message += f"; audit missing={missing_total}"
    print(message)
    return 1 if missing_total else 0


# ---------------------------------------------------------------------------
# bench-index


def run_bench_index(params: dict) -> int:
    dataset = str(params["dataset"])
    queries_path = str(params["queries"])
    kinds = [FamilyKind(k) for k in _as_str_list(params.get("kinds", "uniform_cube"))]
    variants = [
        Variant(v)
        for v in _as_str_list(params.get("variants", "fast_query,fast_preprocessing"))
    ]
    multipliers = _as_float_list(params.get("c_multipliers", "4"))
    levels = _as_levels(params.get("levels", "auto"))
    master_seeds = _as_int_list(params["master_seeds"])
    max_entries = int(params.get("max_entries", DEFAULT_MAX_ENTRIES))
    calibrate = int(params.get("calibrate_fp_trials", 0))
    audit = bool(params.get("audit", True))
    out = str(params["out"])
    fmt = str(params.get("format", "csv"))
    if not kinds or not variants or not multipliers or not master_seeds:
        raise ValueError("bench-index grids must be nonempty")

    points, p = read_points(dataset)
    queries, qp = read_points(queries_path)
    if qp != p:
        raise ValueError(f"query exponent {qp} != dataset exponent {p}")
    n, d = points.shape
    if queries.shape[1] != d:
        raise ValueError(f"query dimension {queries.shape[1]} != dataset {d}")

    resolved = {
        "dataset": dataset,
        "queries": queries_path,
        "kinds": [k.value for k in kinds],
        "variants": [v.value for v in variants],
        "c_multipliers": multipliers,
        "levels": "auto" if levels is None else levels,
        "master_seeds": master_seeds,
        "max_entries": max_entries,
        "calibrate_fp_trials": calibrate,
        "audit": audit,
        "out": out,
        "format": fmt,
        "n": n,
        "d": d,
        "p": p,
    }

    truth_cache: dict[float, list] = {}
    rows = []
    timings = []
    missing_grand_total = 0
    for kind in kinds:
        tau = c_threshold(kind, p, d)
        if tau is None:
            raise ValueError(f"family {kind.value} has no collision threshold")
        for mult in multipliers:
            c = mult * tau
            for variant in variants:
                for master_seed in master_seeds:
                    run_levels = levels
                    if run_levels is None and calibrate > 0:
                        run_levels = _calibrated_levels(
                            variant, kind, p, d, n, c, calibrate, master_seed
                        )
                    config = IndexConfig(
                        p=p,
                        d=d,
                        c=c,
                        kind=kind,
                        variant=variant,
                        levels=run_levels,
                        master_seed=master_seed,
                        max_entries=max_entries,
                    )
                    index = LshIndex.build(points, config)
                    started = time.perf_counter()
                    results = index.query_batch(queries)
                    query_seconds = time.perf_counter() - started

                    candidates = np.array(
                        [r.stats.candidates_scanned for r in results]
                    )
                    buckets = np.array([r.stats.buckets_probed for r in results])
                    evals = np.array([r.stats.distance_evals for r in results])
                    dupes = np.array(
                        [r.stats.duplicates_suppressed for r in results]
                    )

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
                        "recall_min": None,
                        "recall_mean": None,
                        "precision_min": None,
                        "precision_mean": None,
                        "missing_total": None,
                        "mean_candidates": float(candidates.mean()),
                        "mean_buckets_probed": float(buckets.mean()),
                        "mean_distance_evals": float(evals.mean()),
                        "mean_duplicates_suppressed": float(dupes.mean()),
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

    paths = _emit_records(out, fmt, BENCH_COLUMNS, rows)
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


def run_replay(params: dict) -> int:
    manifest_path = str(params["manifest"])
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    schema = manifest.get("schema_version")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"manifest schema_version {schema!r} not supported "
            f"(expected {SCHEMA_VERSION})"
        )
    command = manifest.get("command")
    runner = _RUNNERS.get(command)
    if runner is None:
        raise ValueError(f"manifest names unknown command {command!r}")
    print(f"replay: {command} from {manifest_path}")
    return runner(manifest["params"])


# ---------------------------------------------------------------------------
# argument parsing


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("csv", "json", "both"), default="csv",
        help="output table format (default csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floorlsh",
        description=(
            "Floored-projection hashing toolkit: generate datasets, verify "
            "collision bounds empirically, and benchmark the exact-recall "
            "index.  Every command writes <out>.manifest.json for replay."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"floorlsh {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser(
        "gen-data", help="generate a dataset or query file in the text format"
    )
    gen.add_argument(
        "--shape", required=True, choices=sorted(_SHAPE_ALIASES),
        help="dataset shape",
    )
    gen.add_argument("--n", type=int, required=True, help="number of points")
    gen.add_argument("--d", type=int, required=True, help="dimension")
    gen.add_argument("--p", required=True, help="norm exponent (1 <= p, or inf)")
    gen.add_argument("--seed", type=int, required=True, help="generation seed")
    gen.add_argument("--out", required=True, help="output dataset path")
    gen.add_argument("--scale", default="1.0", help="gaussian/cube scale")
    gen.add_argument(
        "--distances", default="0.5,0.75,0.999",
        help="planted pair distances, comma-separated",
    )
    gen.add_argument("--pairs", type=int, default=50, help="planted pair count")
    gen.add_argument("--spread", default="6.0", help="background spread")
    gen.add_argument("--truth-out", help="planted pairs truth CSV path")
    gen.add_argument("--c", help="approximation factor (far_ring, near_queries)")
    gen.add_argument("--lo-factor", default="1.05", help="far ring inner radius / c")
    gen.add_argument("--hi-factor", default="1.5", help="far ring outer radius / c")
    gen.add_argument(
        "--max-norm-factor", default="0.04", help="near query max norm / c"
    )

    verify = commands.add_parser(
        "verify-bounds",
        help="estimate collision probabilities over a grid and check bounds",
    )
    verify.add_argument(
        "--mode", choices=("small-ball", "false-positive"), default="small-ball"
    )
    verify.add_argument(
        "--kinds", default="uniform_cube", help="comma-separated family kinds"
    )
    verify.add_argument("--ps", default="2", help="norm exponents (false-positive)")
    verify.add_argument("--ds", default="2,8,64", help="dimensions")
    verify.add_argument(
        "--shapes", default="axis,flat,two_coordinate", help="direction shapes"
    )
    verify.add_argument(
        "--alphas", default="0.05,0.1,0.25,0.5", help="small-ball radii"
    )
    verify.add_argument(
        "--c-multipliers", default="4,10,20",
        help="c as multiples of the collision threshold (false-positive)",
    )
    verify.add_argument("--q", default="2", help="sphere exponent for the "
                        "experimental family")
    verify.add_argument("--trials", type=int, default=100_000)
    verify.add_argument("--seeds", required=True, help="comma-separated seeds")
    verify.add_argument("--out", required=True)
    verify.add_argument(
        "--self-test-bound-scale", default="1.0",
        help="multiply every bound before comparison; 0.1 should fail",
    )
    _add_format(verify)

    levy = commands.add_parser(
        "levy", help="check concentration-function bounds for cube projections"
    )
    levy.add_argument("--ds", default="4,16", help="dimensions")
    levy.add_argument(
        "--lambdas", default="0.1,0.5,1.0",
        help="window widths as multiples of the vector l2 norm",
    )
    levy.add_argument("--trials", type=int, default=100_000)
    levy.add_argument("--seed", type=int, required=True)
    levy.add_argument("--out", required=True)
    _add_format(levy)

    probe = commands.add_parser(
        "probe-conjecture",
        help="measure small-ball rates for the experimental sphere family",
    )
    probe.add_argument(
        "--q", required=True,
        help="hash exponent; random directions live on the dual sphere",
    )
    probe.add_argument("--ds", default="8,64", help="dimensions")
    probe.add_argument("--epsilons", default="0.01,0.02,0.05,0.1")
    probe.add_argument("--trials", type=int, default=100_000)
    probe.add_argument("--seed", type=int, required=True)
    probe.add_argument("--out", required=True)
    _add_format(probe)

    build = commands.add_parser("build", help="build and serialize an index")
    build.add_argument("--dataset", required=True, help="points file")
    build.add_argument(
        "--kind", default="uniform_cube",
        choices=("rademacher", "uniform_cube", "unit_sphere"),
    )
    build.add_argument(
        "--variant", default="fast_query",
        choices=("fast_query", "fast_preprocessing"),
    )
    build.add_argument("--c", help="approximation factor")
    build.add_argument(
        "--c-multiplier", help="approximation factor as multiple of the threshold"
    )
    build.add_argument("--levels", default="auto", help="label length or 'auto'")
    build.add_argument("--master-seed", type=int, required=True)
    build.add_argument("--max-entries", type=int, default=DEFAULT_MAX_ENTRIES)
    build.add_argument(
        "--unsafe-override", action="store_true",
        help="allow c at or below the collision threshold (guarantee void)",
    )
    build.add_argument(
        "--calibrate-fp-trials", type=int, default=0,
        help="pick levels from this many measured collision trials instead "
        "of the theoretical bound (0 = theoretical)",
    )
    build.add_argument("--out", required=True, help="index image path")

    query = commands.add_parser("query", help="query a serialized index")
    query.add_argument("--index", required=True, help="index image path")
    query.add_argument("--queries", required=True, help="query points file")
    query.add_argument("--out", required=True, help="results JSONL path")
    query.add_argument(
        "--audit", action="store_true",
        help="compare against exact search; exit 1 on any missed neighbor",
    )

    bench = commands.add_parser(
        "bench-index", help="build/query a config grid and report recall + cost"
    )
    bench.add_argument("--dataset", required=True)
    bench.add_argument("--queries", required=True)
    bench.add_argument("--kinds", default="uniform_cube")
    bench.add_argument("--variants", default="fast_query,fast_preprocessing")
    bench.add_argument("--c-multipliers", default="4")
    bench.add_argument("--levels", default="auto")
    bench.add_argument("--master-seeds", required=True)
    bench.add_argument("--max-entries", type=int, default=DEFAULT_MAX_ENTRIES)
    bench.add_argument("--calibrate-fp-trials", type=int, default=0)
    bench.add_argument(
        "--no-audit", dest="audit", action="store_false",
        help="skip the exact-search comparison columns",
    )
    bench.add_argument("--out", required=True)
    _add_format(bench)

    replay = commands.add_parser(
        "replay", help="re-run a command from its manifest"
    )
    replay.add_argument("--manifest", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # every option's destination is its parameter name, so the parsed
    # namespace is the parameter set that manifests record and replay
    params = vars(parser.parse_args(argv))
    runner = _RUNNERS.get(params.pop("command"), run_replay)
    try:
        return runner(params)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
