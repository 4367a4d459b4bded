"""The index workloads: build, save, load, query and audit an LshIndex.

``fp-sphere-d8`` stores each point once and probes 3^L buckets per query,
so probing dominates.  ``fq-cube-d8`` stores each point under all 3^L
labels and probes one bucket, so building, saving and loading dominate.
"""

from __future__ import annotations

import contextlib
import io
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from spans import Tracer, durations

N_POINTS = 20_000
DIM = 8
P = 2.0
PAIRS = 1_000
DISTANCES = (0.5, 0.999)
SPREAD = 6.0
C_MULTIPLIER = 2.0
#: Fixed, not taken from --seed: the boundary block is built against the
#: first hash vector, and its misses must not depend on the seed.
MASTER_SEED = 0
BOUNDARY_SEED = 2017
#: recall_report audits every AUDIT_STRIDE-th planted query; on fq-cube-d8
#: nearly every point lies within c, so a full audit would dominate a round.
AUDIT_STRIDE = 32
#: Relative tolerance between floorlsh's and the oracle's distances, which
#: sum the same squares in a different order.
DISTANCE_RTOL = 1e-12


@dataclass(frozen=True)
class IndexSpec:
    kind: str
    variant: str
    levels: int | None
    boundary: int  # boundary-built query pairs
    passes: int  # query passes per round; fq repeats its ~0.5 s pass to steady it


SPECS = {
    "fp-sphere-d8": IndexSpec("unit_sphere", "fast_preprocessing", None, 512, 1),
    "fq-cube-d8": IndexSpec("uniform_cube", "fast_query", 5, 0, 10),
}


def first_hash_vector(F, spec: IndexSpec) -> np.ndarray:
    """The index's level-0 hash vector, which build derives the same way."""
    return F.sample_vector(spec.kind, P, DIM, F.derive_seed(MASTER_SEED, 0)).w


def make_inputs(F, name: str, seed: int, tracer: Tracer):
    """(points, queries): planted pairs from ``seed``, then the boundary
    block, which does not depend on the seed."""
    spec = SPECS[name]
    with tracer.span("data.planted_pairs_dataset"):
        points, _ = F.planted_pairs_dataset(
            n=N_POINTS - spec.boundary, d=DIM, p=P, distances=DISTANCES,
            n_pairs=PAIRS, seed=seed, spread=SPREAD,
        )
    queries = points[: 2 * PAIRS].copy()
    if spec.boundary:
        w = first_hash_vector(F, spec)
        scale = F.hash_scale(spec.kind, P, DIM)
        with tracer.span("data.gaussian_points"):
            start = F.gaussian_points(spec.boundary, DIM, BOUNDARY_SEED, scale=SPREAD)
        # slide each anchor along w until scale*<w, x> is an integer, then
        # step a unit l_2 distance against w: the pair sits on a bucket edge
        t = scale * (start @ w)
        anchors = start + ((np.round(t) - t) / (scale * (w @ w)))[:, None] * w
        probes = anchors - w / np.linalg.norm(w)
        points = np.vstack([points, anchors])
        queries = np.vstack([queries, probes])
    return points, queries


class Bench:
    def __init__(self, F, name: str, seed: int, tracer: Tracer, out_dir: Path) -> None:
        self.F = F
        self.spec = spec = SPECS[name]
        self.tracer = tracer
        self.points, self.queries = make_inputs(F, name, seed, tracer)
        self.c = C_MULTIPLIER * F.c_threshold(spec.kind, P, DIM)
        self.config = F.IndexConfig(
            p=P, d=DIM, c=self.c, kind=spec.kind, variant=spec.variant,
            levels=spec.levels, master_seed=MASTER_SEED,
        )
        self.must = oracle.ids_within(self.points, self.queries, 1.0, P)
        self.audit_ids = np.arange(0, 2 * PAIRS, AUDIT_STRIDE)
        self.index_path = out_dir / f"{name}-seed{seed}.index"
        self.cli_queries = out_dir / f"{name}-seed{seed}.audit-queries.txt"
        self.cli_out = out_dir / f"{name}-seed{seed}.cli.jsonl"
        # every query of every measured pass, and build, save, load, audit
        self.ops_per_round = spec.passes * len(self.queries) + 4
        self.rounds: list[dict] = []
        self.overheads: list[float] = []
        self.problems: list[str] = []
        self.failed = 0
        if tracer.recording and spec.variant == "fast_preprocessing":
            F.write_points(self.cli_queries, self.queries[self.audit_ids], P)

    # -- one round ----------------------------------------------------------

    def run_round(self) -> None:
        F, tracer = self.F, self.tracer
        audit_queries = self.queries[self.audit_ids]
        # the built index answers every query in the first round, the audit
        # queries in later ones; the loaded index must answer them the same
        compared = np.arange(len(self.queries)) if not self.rounds else self.audit_ids
        with tracer.span("round"):
            with tracer.span("index.build") as build:
                index = F.LshIndex.build(self.points, self.config)
            build.counts = {
                "entries": index.entry_count,
                "unique_buckets": index.unique_bucket_count,
                "levels": index.levels,
            }
            if self.spec.boundary and not np.array_equal(
                index.hash_functions[0].w, first_hash_vector(F, self.spec)
            ):
                self.problems.append("boundary block built against another hash vector")
            if tracer.recording:
                self._trace_build_stages(index)
            with tracer.span("index.query/built"):
                built_answers = [index.query(self.queries[i]).neighbors for i in compared]
            with tracer.span("index.save") as save:
                index.save(self.index_path)
            save.counts = {"bytes": self.index_path.stat().st_size}
            del index
            with tracer.span("index.load") as load:
                index = F.LshIndex.load(self.index_path)
            passes, pass_seconds = self._query_phase(index)
            with tracer.span("exact.recall_report") as audit:
                report = F.recall_report(index, index.points, audit_queries)
            if tracer.recording:
                self._trace_exact_and_cli(index, passes[-1])
        self.rounds.append({
            "build": build.seconds, "save": save.seconds, "load": load.seconds,
            "passes": pass_seconds, "audit": audit.seconds,
        })
        # later passes must repeat the first, so they fail where it fails
        self.failed += len(passes) * self._check(passes[0], compared, built_answers)
        for results in passes[1:]:
            if [r.neighbors for r in results] != [r.neighbors for r in passes[0]]:
                self.problems.append("query passes over the same index answer differently")
        for record in report:
            if record.missing or record.extraneous or record.recall != 1.0:
                self.problems.append(f"recall_report flags query {record.query_id}")

    def _query_pass(self, index):
        results = []
        with self.tracer.span("index.query_all") as phase:
            for q in self.queries:
                with self.tracer.span("index.query") as span:
                    result = index.query(q)
                results.append(result)
                if self.tracer.recording:
                    stats = result.stats
                    span.counts = {
                        "buckets_probed": stats.buckets_probed,
                        "candidates_scanned": stats.candidates_scanned,
                        "distance_evals": stats.distance_evals,
                        "duplicates_suppressed": stats.duplicates_suppressed,
                        "neighbors": len(result.neighbors),
                    }
        return results, phase.seconds

    def _query_phase(self, index):
        """The measured query passes: (results of each, seconds of each).

        A traced run interleaves as many unrecorded passes, alternating
        which kind goes first, and keeps the gap as the tracing overhead.
        """
        tracer = self.tracer
        traced = tracer.recording
        if traced:
            first = len(self.overheads) % 2 == 0
            order = [first, not first] * self.spec.passes
        else:
            order = [False] * self.spec.passes
        seconds = {True: [], False: []}
        passes = []
        for recording in order:
            tracer.recording = recording
            results, pass_seconds = self._query_pass(index)
            seconds[recording].append(pass_seconds)
            if recording == traced:
                passes.append(results)
        tracer.recording = traced
        if traced:
            plain = sum(seconds[False])
            self.overheads.append(100.0 * (sum(seconds[True]) - plain) / plain)
        return passes, seconds[traced]

    def _trace_build_stages(self, index) -> None:
        """Time from outside the families calls that build makes."""
        F, tracer = self.F, self.tracer
        kind, master = self.config.kind, self.config.master_seed
        with tracer.span("families.sample"):
            for level in range(index.levels):
                with tracer.span("families.sample_vector"):
                    F.sample_vector(kind, P, DIM, F.derive_seed(master, level))
        w_matrix = np.vstack([h.w for h in index.hash_functions])
        scale = F.hash_scale(kind, P, DIM)
        with tracer.span("families.hash_eval_matrix/dataset"):
            F.families.hash_eval_matrix(w_matrix, scale, self.points)

    def _trace_exact_and_cli(self, index, results) -> None:
        F, tracer = self.F, self.tracer
        w_matrix = np.vstack([h.w for h in index.hash_functions])
        scale = F.hash_scale(self.config.kind, P, DIM)
        for q, result in zip(self.queries, results):
            with tracer.span("families.hash_eval_matrix/query"):
                F.families.hash_eval_matrix(w_matrix, scale, q[None, :])
            with tracer.span("exact.lp_distances/verify"):
                F.lp_distances(index.points[: result.stats.distance_evals], q, P)
        audit_queries = self.queries[self.audit_ids]
        with tracer.span("exact.ground_truth"):
            F.ground_truth(index.points, audit_queries, c=self.c, p=P)
        for q in audit_queries:
            with tracer.span("exact.range_search_exact"):
                F.range_search_exact(index.points, q, 1.0, P)
        if self.spec.variant != "fast_preprocessing":
            return
        with tracer.span("data.read_points"):
            F.read_points(self.cli_queries)
        from floorlsh import cli

        argv = ["query", "--index", str(self.index_path), "--queries",
                str(self.cli_queries), "--out", str(self.cli_out), "--audit"]
        with tracer.span("cli.query_audit"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            self.problems.append(f"floorlsh query --audit exited {code}")

    # -- checks ---------------------------------------------------------------

    def _check(self, results, compared, built_answers) -> int:
        """Check one pass against the oracle; return its boundary misses."""
        misses = 0
        boundary_start = N_POINTS - self.spec.boundary
        regular = 2 * PAIRS
        for qi, (q, result) in enumerate(zip(self.queries, results)):
            ids = np.array([i for i, _ in result.neighbors], dtype=np.int64)
            reported = np.array([t for _, t in result.neighbors])
            if ids.size:
                reference = oracle.lp_distances(self.points[ids], q, P)
                if not np.allclose(reported, reference, rtol=DISTANCE_RTOL, atol=0.0):
                    self.problems.append(f"query {qi}: distances differ from the oracle")
                if (reported > self.c).any() or (reference > self.c * (1 + DISTANCE_RTOL)).any():
                    self.problems.append(f"query {qi}: a neighbor lies beyond c")
            missing = np.setdiff1d(self.must[qi], ids).tolist()
            if not missing:
                continue
            if qi >= regular and missing == [boundary_start + qi - regular]:
                misses += 1  # the rounding fault: a pair on a bucket edge
            else:
                self.problems.append(f"query {qi}: missed points within 1: {missing}")
        for anchor in range(PAIRS):
            partner = PAIRS + anchor
            if partner not in {i for i, _ in results[anchor].neighbors}:
                self.problems.append(f"planted partner {partner} not found")
            if anchor not in {i for i, _ in results[partner].neighbors}:
                self.problems.append(f"planted anchor {anchor} not found")
        for qi, answer in zip(compared, built_answers):
            if results[qi].neighbors != answer:
                self.problems.append(f"query {qi}: loaded index answers differently")
        return misses

    # -- metrics --------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Totals over the whole run, which steady the figures more than
        medians of rounds on a machine whose speed drifts by the second."""
        passes = [s for r in self.rounds for s in r["passes"]]
        flow = sum(r["build"] + r["save"] + r["load"] + r["audit"] for r in self.rounds)
        return {
            # one user flow: build, save, load, query every query once, audit
            "round_s": (flow + sum(passes) / self.spec.passes) / len(self.rounds),
            "ops_per_s": len(self.queries) * len(passes) / sum(passes),
        }

    def per_layer(self, records: list[dict]) -> dict[str, float]:
        def median_of(name):
            return statistics.median(durations(records, name))

        build = median_of("index.build")
        sample = median_of("families.sample")
        label = median_of("families.hash_eval_matrix/dataset")
        query_spans = [r for r in records if r["name"] == "index.query"]
        query_us = [1e6 * (r["end"] - r["start"]) for r in query_spans]
        label_us = 1e6 * statistics.fmean(durations(records, "families.hash_eval_matrix/query"))
        verify_us = 1e6 * statistics.fmean(durations(records, "exact.lp_distances/verify"))

        def mean_count(key):
            return statistics.fmean(r["counts"][key] for r in query_spans)

        evals = sum(r["counts"]["distance_evals"] for r in query_spans)
        neighbors = sum(r["counts"]["neighbors"] for r in query_spans)
        build_counts = next(r["counts"] for r in records if r["name"] == "index.build")
        values = {
            "data.generate_s": sum(durations(records, "data.planted_pairs_dataset"))
            + sum(durations(records, "data.gaussian_points")),
            "families.sample_s": sample,
            "families.label_s": label,
            "index.build_s": build,
            "index.build_self_s": build - sample - label,
            "index.save_s": median_of("index.save"),
            "index.load_s": median_of("index.load"),
            "index.bytes": next(r["counts"]["bytes"] for r in records if r["name"] == "index.save"),
            "index.query_us_p50": oracle.percentile(query_us, 50),
            "index.query_us_p99": oracle.percentile(query_us, 99),
            "index.query_self_us": statistics.fmean(query_us) - label_us - verify_us,
            "index.buckets_probed": mean_count("buckets_probed"),
            "index.candidates_scanned": mean_count("candidates_scanned"),
            "index.distance_evals": mean_count("distance_evals"),
            "index.duplicates_suppressed": mean_count("duplicates_suppressed"),
            "index.entries": build_counts["entries"],
            "index.unique_buckets": build_counts["unique_buckets"],
            "index.useful_ratio": neighbors / evals,
            "index.far_candidates": (evals - neighbors) / len(query_spans),
            "index.far_bound": N_POINTS
            * self.config.false_positive_bound ** build_counts["levels"],
            "exact.verify_us": verify_us,
            "exact.scan_us_p50": 1e6 * median_of("exact.range_search_exact"),
            "exact.ground_truth_s": median_of("exact.ground_truth"),
            "exact.audit_s": median_of("exact.recall_report"),
            "trace.overhead_pct": statistics.median(self.overheads),
        }
        if self.spec.variant == "fast_preprocessing":
            values["data.read_s"] = median_of("data.read_points")
            values["cli.query_audit_s"] = median_of("cli.query_audit")
        return values
