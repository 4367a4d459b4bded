"""Benchmark for floorlsh: one workload, one seed, one JSON result.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fp-sphere-d8 --seed 1 --seconds 35 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed, checks
every output against the oracle in ``oracle.py``, and prints as its last
line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also writes its spans and a self-time table per layer to
``perfbench/out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

from spans import Tracer, self_times

# One caller in one process: pin BLAS to one thread before numpy loads, so
# runs do not depend on how many threads the library would pick.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3

#: The metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def load_library():
    """Import floorlsh from this checkout's ``src/``, never from elsewhere."""
    package = ROOT / "src" / "floorlsh"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: floorlsh sources not found at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import floorlsh

    if Path(floorlsh.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported floorlsh from {floorlsh.__file__}, not {package}")
    return floorlsh


def workload_module(workload: str):
    if workload == "lab-bounds":
        import lab_workload

        return lab_workload
    import index_workload

    return index_workload


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh processes that import floorlsh and make
    the workload's inputs, which is what every run pays before its work."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def write_trace(tracer: Tracer, workload: str, seed: int) -> list[dict]:
    stem = OUT_DIR / f"{workload}-seed{seed}"
    records = tracer.write(stem.with_name(stem.name + ".spans.jsonl"))
    table = self_times(records)
    stem.with_name(stem.name + ".selftime.json").write_text(json.dumps(table, indent=2) + "\n")
    print("self time per layer (s):")
    for layer, seconds in table.items():
        print(f"  {layer:<12} {seconds:10.4f}")
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    F = load_library()
    tracer = Tracer(run_id=uuid.uuid4().hex, recording=bool(args.trace))
    module = workload_module(args.workload)
    if args.setup_only:
        module.make_inputs(F, args.workload, args.seed, tracer)
        return 0
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None

    OUT_DIR.mkdir(exist_ok=True)
    bench = module.Bench(F, args.workload, args.seed, tracer, OUT_DIR)
    started = time.perf_counter()
    try:
        while True:
            round_started = time.perf_counter()
            tracer.round_index += 1
            bench.run_round()
            print(f"round {tracer.round_index}: {json.dumps(bench.rounds[-1])}", file=sys.stderr)
            if tracer.round_index == 0:
                # later rounds reuse a warm, fragmented heap; the first is
                # what a one-shot user process pays
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            # whole rounds only: stop before one that would overrun --seconds
            now = time.perf_counter()
            if now + (now - round_started) > started + args.seconds:
                break
    finally:
        index_path = getattr(bench, "index_path", None)
        if index_path is not None:
            index_path.unlink(missing_ok=True)

    rounds = len(bench.rounds)
    if args.trace:
        records = write_trace(tracer, args.workload, args.seed)
        # a layer the workload never calls spent no time and did no work
        values = {m["name"]: 0.0 for m in SPEC["per_layer"]}
        values.update(bench.per_layer(records))
        metrics = SPEC["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            **bench.end_to_end(),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = SPEC["end_to_end"]
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": rounds * bench.ops_per_round,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
