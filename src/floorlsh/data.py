"""Dataset generation, the plain-text point file format, and the one writer
of every table, JSON Lines file and manifest.

File layout: the first line is ``n d p`` (p written as ``inf`` for the max
norm), followed by n lines of d coordinates.  Floats are written with
shortest round-trip repr, so read(write(X)) is bit-exact, and every other
output file spells values the same way (see the record files section).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .families import lp_sphere_block
from .lpspace import check_dimension, check_exponent, lp_distances
from .streams import stream

#: Auxiliary stream indexes; keep clear of block indexes used elsewhere.
_STREAM_POINTS = 0
_STREAM_DIRECTIONS = 1
_STREAM_RADII = 2

_PAIRS_COLUMNS = ("pair_id", "anchor_id", "partner_id", "distance")


def format_exponent(p: float) -> str:
    """Serialize a norm exponent: ``inf`` or its decimal repr."""
    return repr(check_exponent(p))


def parse_exponent(text: str) -> float:
    """Inverse of :func:`format_exponent`."""
    return check_exponent(float(text))


def write_points(path: str | Path, points: np.ndarray, p: float) -> None:
    """Write a dataset file; see the module docstring for the layout."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n, d = points.shape
    with open_output(path) as handle:
        handle.write(f"{n} {d} {format_exponent(p)}\n")
        for row in points:
            handle.write(" ".join(repr(float(v)) for v in row))
            handle.write("\n")


def read_points(path: str | Path) -> tuple[np.ndarray, float]:
    """Read a dataset file back as (points, p)."""
    with open(path) as handle:
        header = handle.readline().split()
        if len(header) != 3:
            raise ValueError(f"malformed dataset header in {path}")
        n, d = int(header[0]), int(header[1])
        if n < 0 or d < 0:
            raise ValueError(f"dataset header in {path} gives a negative size {n} x {d}")
        p = parse_exponent(header[2])
        points = np.empty((n, d), dtype=np.float64)
        for i in range(n):
            row = handle.readline().split()
            if len(row) != d:
                raise ValueError(f"dataset row {i} in {path} has {len(row)} values, expected {d}")
            points[i] = [float(v) for v in row]
        if handle.read().strip():
            raise ValueError(f"dataset {path} holds more rows than its header's n = {n}")
    return points, p


def _check_count(n: int) -> None:
    """Validate a generator's point count n: raise unless n >= 0."""
    if not n >= 0:
        raise ValueError(f"point count n must be nonnegative, got {n}")


def gaussian_points(n: int, d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """n standard Gaussian points scaled by ``scale``."""
    _check_count(n)
    check_dimension(d)
    with np.errstate(over="ignore"):
        points = stream(seed, _STREAM_POINTS).standard_normal((n, d)) * scale
    if not np.isfinite(points).all():
        raise ValueError(f"points scaled by {scale} are not all finite")
    return points


def uniform_cube_points(n: int, d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """n points uniform on the cube (-scale, scale)^d."""
    _check_count(n)
    check_dimension(d)
    # a draw is -scale plus a fraction of the width 2 * scale, so every
    # coordinate is finite exactly when the width is
    if not math.isfinite(2.0 * scale):
        raise ValueError(f"points scaled by {scale} are not all finite")
    return stream(seed, _STREAM_POINTS).uniform(-scale, scale, size=(n, d))


@dataclass(frozen=True)
class PlantedPair:
    """A close pair planted into a dataset at a known exact distance."""

    anchor_id: int
    partner_id: int
    distance: float


def planted_pairs_dataset(
    n: int,
    d: int,
    p: float,
    distances: Sequence[float],
    n_pairs: int,
    seed: int,
    spread: float = 6.0,
) -> tuple[np.ndarray, list[PlantedPair]]:
    """Gaussian background with ``n_pairs`` planted close pairs.

    Pair i is (anchor i, partner at l_p distance distances[i mod len]); the
    offset direction is a cone-measure draw on the unit l_p sphere, rescaled
    once against its computed norm so the realized distance matches the
    request to about 1e-15 relative error.

    Layout: rows [0, n_pairs) are anchors, [n_pairs, 2 * n_pairs) their
    partners, the rest background drawn with standard deviation ``spread``.
    """
    _check_count(n)
    p = check_exponent(p)
    if n_pairs < 0:
        raise ValueError("n_pairs must be nonnegative")
    if n < 2 * n_pairs:
        raise ValueError(f"n={n} is too small for {n_pairs} planted pairs")
    if n_pairs > 0 and not distances:
        raise ValueError("distances must be nonempty when planting pairs")
    if not all(0.0 < t < math.inf for t in distances):
        raise ValueError("planted distances must be positive and finite")
    points = gaussian_points(n, d, seed, scale=spread)
    directions = lp_sphere_block(stream(seed, _STREAM_DIRECTIONS), d, p, n_pairs)
    targets = np.resize(np.array(distances, dtype=np.float64), n_pairs)
    offsets = directions * targets[:, None]
    offsets *= (targets / lp_distances(offsets, 0.0, p))[:, None]
    anchors, partners = points[:n_pairs], points[n_pairs : 2 * n_pairs]
    np.add(anchors, offsets, out=partners)
    pairs = [
        PlantedPair(anchor_id=i, partner_id=n_pairs + i, distance=distance)
        for i, distance in enumerate(lp_distances(partners, anchors, p).tolist())
    ]
    return points, pairs


def far_ring_dataset(
    n: int,
    d: int,
    p: float,
    c: float,
    seed: int,
    lo_factor: float = 1.05,
    hi_factor: float = 1.5,
) -> np.ndarray:
    """n points whose l_p distance to the origin lies in [lo, hi] * c.

    Paired with :func:`near_origin_queries`, every dataset point stays
    strictly farther than c from every query, which isolates false-positive
    scanning: no query has any point to return.
    """
    _check_count(n)
    p = check_exponent(p)
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    if not 1.0 < lo_factor <= hi_factor:
        raise ValueError("need 1 < lo_factor <= hi_factor")
    directions = lp_sphere_block(stream(seed, _STREAM_DIRECTIONS), d, p, n)
    radii = stream(seed, _STREAM_RADII).uniform(lo_factor * c, hi_factor * c, size=n)
    return directions * radii[:, None]


def near_origin_queries(
    n: int, d: int, p: float, c: float, seed: int, max_norm_factor: float = 0.04
) -> np.ndarray:
    """n query points with l_p norm at most ``max_norm_factor * c``."""
    _check_count(n)
    p = check_exponent(p)
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c}")
    if not max_norm_factor >= 0.0:
        raise ValueError("max_norm_factor must be nonnegative")
    directions = lp_sphere_block(stream(seed, _STREAM_DIRECTIONS + 10), d, p, n)
    radii = stream(seed, _STREAM_RADII + 10).uniform(0.0, max_norm_factor * c, size=n)
    return directions * radii[:, None]


def write_pairs_truth(path: str | Path, pairs: Sequence[PlantedPair]) -> None:
    """CSV companion for planted pairs: pair_id, anchor_id, partner_id,
    distance (exact realized value, shortest repr)."""
    write_csv(
        path,
        _PAIRS_COLUMNS,
        ({"pair_id": pair_id, **vars(pair)} for pair_id, pair in enumerate(pairs)),
    )


def read_pairs_truth(path: str | Path) -> list[PlantedPair]:
    """Read back a planted-pairs truth file."""
    pairs = []
    with open(path) as handle:
        header = handle.readline().strip()
        if header != ",".join(_PAIRS_COLUMNS):
            raise ValueError(f"malformed pairs truth header in {path}")
        for line in handle:
            _, anchor, partner, distance = line.strip().split(",")
            pairs.append(
                PlantedPair(
                    anchor_id=int(anchor),
                    partner_id=int(partner),
                    distance=float(distance),
                )
            )
    return pairs


# ---------------------------------------------------------------------------
# record files


def jsonable(value: object) -> object:
    """``value`` with every enum replaced by its value, every infinity by
    ``"inf"`` or ``"-inf"`` and every tuple or numpy array by a list,
    recursively, so that ``json.dump`` writes strict JSON."""
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    return value


def _cell(value: object) -> str:
    """A CSV cell: None is empty, booleans are lowercase, anything else is
    its ``str``, which for a float is its shortest repr, ``inf`` included."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def open_output(path: str | Path) -> IO[str]:
    """Open ``path`` for writing text, creating its parent directory; lines
    end in LF on every platform."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def write_csv(path: str | Path, columns: Sequence[str], records: Iterable[dict]) -> None:
    """Write records as CSV in the given fixed column order, each value
    spelled by :func:`_cell`."""
    with open_output(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for record in records:
            writer.writerow([_cell(record.get(col)) for col in columns])


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write each record as one line of JSON, keys in the record's order."""
    with open_output(path) as handle:
        for record in records:
            handle.write(json.dumps(jsonable(record)) + "\n")


def write_table(
    path: str | Path, fmt: str, columns: Sequence[str], records: Sequence[dict]
) -> list[str]:
    """Write records as ``csv``, ``json`` (an array of objects with the same
    fields), or ``both``, the JSON then going to ``<path>.json``; return the
    paths written."""
    written = []
    if fmt in {"csv", "both"}:
        write_csv(path, columns, records)
        written.append(str(path))
    if fmt in {"json", "both"}:
        json_path = f"{path}.json" if fmt == "both" else str(path)
        payload = [{col: jsonable(record.get(col)) for col in columns} for record in records]
        with open_output(json_path) as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        written.append(json_path)
    return written
