"""Spans around the benchmark's calls into floorlsh.

Every timed call goes through :meth:`Tracer.span`, which always measures
the call; only when recording is on does it also keep a span record (name,
start, end, parent, run id, round and any counts attached to it).  The
records stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path

BENCH_LAYER = "bench"


class Span:
    """One timed call; ``seconds`` is set when the ``with`` block exits."""

    __slots__ = (
        "tracer", "name", "start", "end", "seconds", "counts", "id", "parent", "round"
    )

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.counts = None

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if tracer.recording:
            self.id = len(tracer.spans)
            self.parent = tracer.stack[-1] if tracer.stack else None
            self.round = tracer.round_index
            tracer.spans.append(self)
            tracer.stack.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.seconds = self.end - self.start
        if self.tracer.recording:
            self.tracer.stack.pop()

    def record(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "id": self.id,
            "run": self.tracer.run_id,
            "round": self.round,
            "counts": self.counts,
        }


class Tracer:
    """Times calls, and records them as spans while ``recording`` is on."""

    def __init__(self, run_id: str, recording: bool) -> None:
        self.run_id = run_id
        self.recording = recording
        self.spans: list[Span] = []
        self.stack: list[int] = []
        #: -1 while inputs are made, then 0, 1, ... for the measured rounds.
        self.round_index = -1

    def span(self, name: str) -> Span:
        return Span(self, name)

    def write(self, path: Path) -> list[dict]:
        records = [span.record() for span in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return records


def layer_of(name: str) -> str:
    """``index.query`` -> ``index``; names without a dot are the bench's own."""
    return name.split(".", 1)[0] if "." in name else BENCH_LAYER


def self_times(records: list[dict]) -> dict[str, float]:
    """Seconds per layer spent in its own spans, not in child spans.

    The benchmark is single-threaded, so a span's children never overlap
    and its self time is its duration minus the sum of theirs.
    """
    child_seconds: dict[int, float] = defaultdict(float)
    for record in records:
        if record["parent"] is not None:
            child_seconds[record["parent"]] += record["end"] - record["start"]
    totals: dict[str, float] = defaultdict(float)
    for record in records:
        own = record["end"] - record["start"] - child_seconds[record["id"]]
        totals[layer_of(record["name"])] += own
    return dict(sorted(totals.items()))


def durations(records: list[dict], name: str) -> list[float]:
    return [r["end"] - r["start"] for r in records if r["name"] == name]


def per_round(records: list[dict], name: str) -> list[float]:
    """Summed duration of spans called ``name`` in each round that has any."""
    sums: dict[int, float] = defaultdict(float)
    for r in records:
        if r["name"] == name:
            sums[r["round"]] += r["end"] - r["start"]
    return [sums[k] for k in sorted(sums)]
