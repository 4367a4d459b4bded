"""Exhaustive ground truth for evaluating the index.

Everything here is deliberately brute force: full l_p distance scans with no
data structure in the way, so index results can be audited against an
answer found without hashing.  The scans measure with
:func:`floorlsh.lpspace.lp_distances`, the one distance kernel, which the
index verifies with too, so both judge distance 1 alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lpspace import lp_distances

#: The radius r of the index's contract: every point within r is returned.
_R = 1.0


def range_search_exact(
    points: np.ndarray, query: np.ndarray, radius: float, p: float
) -> np.ndarray:
    """Ids of all points within l_p distance ``radius`` of the query.

    Returned sorted ascending; the query point itself is included when it
    is part of the dataset (distance 0).
    """
    if not radius >= 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    distances = lp_distances(points, query, p)
    return np.flatnonzero(distances <= radius)


@dataclass(frozen=True)
class GroundTruth:
    """Exact neighborhoods of one query.

    ``within_r`` are the must-return ids (distance <= r = 1), ``within_c`` the
    acceptable ids (distance <= c), each a sorted, read-only int64 array.
    """

    query_id: int
    within_r: np.ndarray
    within_c: np.ndarray


def ground_truth(points: np.ndarray, queries: np.ndarray, c: float, p: float) -> list[GroundTruth]:
    """Exact neighborhoods for every query row."""
    if not c >= _R:
        raise ValueError(f"approximation factor c={c} must be >= r={_R}")
    points = np.asarray(points, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    truths = []
    for query_id, query in enumerate(queries):
        distances = lp_distances(points, query, p)
        within_r = np.flatnonzero(distances <= _R)
        within_c = np.flatnonzero(distances <= c)
        within_r.flags.writeable = within_c.flags.writeable = False
        truths.append(GroundTruth(query_id=query_id, within_r=within_r, within_c=within_c))
    return truths


@dataclass(frozen=True)
class RecallRecord:
    """Index answers for one query audited against the exact answer.

    ``recall`` is against the must-return set (1.0 when that set is empty);
    ``precision`` is against the acceptable set.  ``missing`` lists any
    must-return ids the index failed to produce: each one is a concrete
    counterexample to the no-false-negative guarantee.
    """

    query_id: int
    returned: tuple[int, ...]
    recall: float
    precision: float
    missing: tuple[int, ...]
    extraneous: tuple[int, ...]
    candidates_scanned: int


def recall_report(index, points: np.ndarray, queries: np.ndarray) -> list[RecallRecord]:
    """Audit index answers for every query against brute-force truth.

    ``index`` is any object with the ``query_batch`` interface of
    :class:`floorlsh.index.LshIndex` and matching ``config``.
    """
    config = index.config
    return audit_results(
        index.query_batch(queries), ground_truth(points, queries, c=config.c, p=config.p)
    )


def audit_results(results: Sequence, truths: Sequence[GroundTruth]) -> list[RecallRecord]:
    """Audit query results already in hand against their ground truths,
    pairing them in order."""
    records = []
    for truth, result in zip(truths, results, strict=True):
        returned = tuple(sorted(point_id for point_id, _ in result.neighbors))
        got = np.array(returned, dtype=np.int64)
        missing = tuple(np.setdiff1d(truth.within_r, got, assume_unique=True).tolist())
        # an id is in the sorted within_c when its two insertion points differ
        within_c = truth.within_c
        accepted = np.searchsorted(within_c, got, "right") > np.searchsorted(within_c, got)
        extraneous = tuple(got[~accepted].tolist())
        must = len(truth.within_r)
        recall = 1.0 if not must else (must - len(missing)) / must
        precision = 1.0 if not returned else int(accepted.sum()) / len(returned)
        records.append(
            RecallRecord(
                query_id=truth.query_id,
                returned=returned,
                recall=recall,
                precision=precision,
                missing=missing,
                extraneous=extraneous,
                candidates_scanned=result.stats.candidates_scanned,
            )
        )
    return records
