"""The laboratory workload: the verify-bounds grid, with no index at all.

Small-ball curves and far-pair collision rates for the uniform_cube and
unit_sphere families, 200,000 hash draws per cell, every cell checked
against the paper's bounds and, for the sphere, against the exact Beta law.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

import oracle
from spans import Tracer, durations, per_round

KINDS = ("uniform_cube", "unit_sphere")
DIMS = (8, 64)
SHAPES = ("axis", "flat", "two_coordinate")
ALPHAS = (0.05, 0.1, 0.25, 0.5)
PS = (1.0, 2.0, math.inf)
#: The first factor of the verify-bounds default grid; one factor keeps a
#: round near ten seconds.
C_MULTIPLIER = 4.0
TRIALS = 200_000
#: Relative tolerance for values floorlsh and the oracle compute alike.
RTOL = 1e-9


@dataclass(frozen=True)
class Cell:
    kind: str
    d: int
    shape: str
    p: float | None  # None for a small-ball cell
    x: np.ndarray  # the small-ball point, or the far pair's difference
    c: float | None = None
    pair_distance: float | None = None


def make_inputs(F, name: str, seed: int, tracer: Tracer) -> list[Cell]:
    """The grid's cells: small-ball points and far pairs."""
    cells = []
    for kind in KINDS:
        for d in DIMS:
            for shape in SHAPES:
                cells.append(Cell(kind, d, shape, None, F.unit_direction(shape, 2.0, d)))
                for p in PS:
                    c = C_MULTIPLIER * F.c_threshold(kind, p, d)
                    # the pair estimate_false_positive_rate builds by default
                    x, y = F.far_pair(shape, p, d, c * (1.0 + 1e-9), seed)
                    distance = float(oracle.lp_distances(x, y, p))
                    cells.append(Cell(kind, d, shape, p, x - y, c, distance))
    return cells


class Bench:
    def __init__(self, F, name: str, seed: int, tracer: Tracer, out_dir) -> None:
        self.F = F
        self.seed = seed
        self.tracer = tracer
        self.cells = make_inputs(F, name, seed, tracer)
        self.ops_per_round = len(self.cells)
        self.rounds: list[dict] = []
        self.overheads: list[float] = []
        self.problems: list[str] = []
        self.failed = 0

    def run_round(self) -> None:
        tracer = self.tracer
        with tracer.span("round"):
            if not tracer.recording:
                outcomes, seconds = self._pass(self.cells)
            else:
                outcomes, seconds = self._traced_pass()
                for cell, outcome in zip(self.cells, outcomes):
                    hits = outcome[-1].hits if cell.p is None else outcome.hits
                    with tracer.span("estimation.clopper_pearson"):
                        self.F.clopper_pearson(hits, TRIALS)
                self._trace_pools()
        for cell, outcome in zip(self.cells, outcomes):
            if cell.p is None:
                self._check_small_ball(cell, outcome)
            else:
                self._check_false_positive(cell, outcome)
        self.rounds.append({"cells": seconds})

    def _pass(self, cells):
        F, tracer, seed = self.F, self.tracer, self.seed
        outcomes, seconds = [], []
        for cell in cells:
            if cell.p is None:
                with tracer.span("estimation.small_ball_curve") as span:
                    outcome = F.small_ball_curve(cell.kind, cell.d, cell.x, ALPHAS, TRIALS, seed)
            else:
                with tracer.span("estimation.estimate_false_positive_rate") as span:
                    outcome = F.estimate_false_positive_rate(
                        cell.kind, cell.p, cell.d, cell.c, TRIALS, seed, shape=cell.shape
                    )
            outcomes.append(outcome)
            seconds.append(span.seconds)
        return outcomes, seconds

    def _traced_pass(self):
        """Run the grid recorded, and its small-ball cells once more
        unrecorded, alternating which goes first, to measure the tracing
        cost."""
        small_ball = [cell for cell in self.cells if cell.p is None]

        def unrecorded() -> float:
            self.tracer.recording = False
            seconds = sum(self._pass(small_ball)[1])
            self.tracer.recording = True
            return seconds

        unrecorded_first = len(self.overheads) % 2 == 0
        if unrecorded_first:
            plain = unrecorded()
        outcomes, seconds = self._pass(self.cells)
        if not unrecorded_first:
            plain = unrecorded()
        recorded = sum(s for s, cell in zip(seconds, self.cells) if cell.p is None)
        self.overheads.append(100.0 * (recorded - plain) / plain)
        return outcomes, seconds

    def _trace_pools(self) -> None:
        """Time the pool draws the estimators make, one call per (kind, d);
        every cell of that (kind, d) draws the same pool once."""
        for kind in KINDS:
            for d in DIMS:
                with self.tracer.span("families.sample_pool") as span:
                    self.F.sample_pool(kind, d, TRIALS, self.seed)
                span.counts = {
                    "cells": sum(1 for c in self.cells if c.kind == kind and c.d == d)
                }

    # -- checks ---------------------------------------------------------------

    def _check_bound(self, label: str, hits: int, ci_low: float, bound: float) -> None:
        low = oracle.clopper_pearson_low(hits, TRIALS)
        if not math.isclose(ci_low, low, rel_tol=RTOL, abs_tol=1e-15):
            self.problems.append(f"{label}: interval low {ci_low} != oracle {low}")
        if bound <= 1.0 and low > bound:
            self.problems.append(f"{label}: lower end {low} above the bound {bound}")

    def _check_small_ball(self, cell: Cell, curve) -> None:
        label = f"small-ball {cell.kind} d={cell.d} {cell.shape}"
        hits = [e.hits for e in curve]
        if hits != sorted(hits):
            self.problems.append(f"{label}: curve not monotone in alpha")
        norm2 = float(oracle.lp_distances(cell.x, np.zeros(cell.d), 2.0))
        for alpha, estimate in zip(ALPHAS, curve):
            bound = oracle.small_ball_bound(cell.kind, alpha, cell.d, norm2)
            if not math.isclose(estimate.bound, bound, rel_tol=RTOL):
                self.problems.append(f"{label}: bound {estimate.bound} != paper {bound}")
            self._check_bound(f"{label} alpha={alpha}", estimate.hits, estimate.ci_low, bound)
            if cell.kind == "unit_sphere":
                law = oracle.sphere_small_ball(alpha, cell.d, norm2)
                if not oracle.agrees_with_law(estimate.hits, TRIALS, law):
                    self.problems.append(
                        f"{label} alpha={alpha}: {estimate.p_hat} vs Beta law {law}"
                    )

    def _check_false_positive(self, cell: Cell, estimate) -> None:
        label = f"false-positive {cell.kind} d={cell.d} p={cell.p} {cell.shape}"
        if estimate.hits > estimate.dominating_hits:
            self.problems.append(f"{label}: exact collisions exceed dominating ones")
        if not (
            cell.pair_distance > cell.c
            and math.isclose(estimate.pair_distance, cell.pair_distance, rel_tol=RTOL)
        ):
            self.problems.append(f"{label}: pair distance {estimate.pair_distance}")
        bound = oracle.c_threshold(cell.kind, cell.p, cell.d) / cell.c
        if not math.isclose(estimate.bound, bound, rel_tol=RTOL):
            self.problems.append(f"{label}: bound {estimate.bound} != paper {bound}")
        self._check_bound(label, estimate.hits, estimate.ci_low, bound)
        if cell.kind == "unit_sphere":
            # dominating event |scale*<w, x - y>| <= 2 under the Beta law
            scale = self.F.hash_scale(cell.kind, cell.p, cell.d)
            norm2 = float(oracle.lp_distances(cell.x, np.zeros(cell.d), 2.0))
            law = oracle.sphere_small_ball(2.0 / scale, cell.d, norm2)
            if not oracle.agrees_with_law(estimate.dominating_hits, TRIALS, law):
                self.problems.append(
                    f"{label}: dominating {estimate.dominating_p_hat} vs Beta law {law}"
                )

    # -- metrics --------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        round_s = sum(sum(r["cells"]) for r in self.rounds) / len(self.rounds)
        return {"round_s": round_s, "ops_per_s": len(self.cells) * TRIALS / round_s}

    def per_layer(self, records: list[dict]) -> dict[str, float]:
        median = statistics.median
        pool_rounds: dict[int, float] = {}
        for r in records:
            if r["name"] == "families.sample_pool":
                seconds = (r["end"] - r["start"]) * r["counts"]["cells"]
                pool_rounds[r["round"]] = pool_rounds.get(r["round"], 0.0) + seconds
        small_ball = per_round(records, "estimation.small_ball_curve")
        false_positive = per_round(records, "estimation.estimate_false_positive_rate")
        draws = len(self.cells) * TRIALS
        return {
            "families.pool_s": median(pool_rounds.values()),
            "estimation.small_ball_s": median(small_ball),
            "estimation.false_positive_s": median(false_positive),
            "estimation.ci_us": 1e6 * median(durations(records, "estimation.clopper_pearson")),
            "estimation.draws_per_s": median(
                draws / (s + f) for s, f in zip(small_ball, false_positive)
            ),
            "trace.overhead_pct": median(self.overheads),
        }
