"""Dataset generation and the plain-text point file format.

File layout: the first line is ``n d p`` (p written as ``inf`` for the max
norm), followed by n lines of d coordinates.  Floats are written with
shortest round-trip repr, so read(write(X)) is bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .families import lp_sphere_block
from .lpspace import check_exponent, lp_norm
from .streams import stream

#: Auxiliary stream indexes; keep clear of block indexes used elsewhere.
_STREAM_POINTS = 0
_STREAM_DIRECTIONS = 1
_STREAM_RADII = 2


def format_exponent(p: float) -> str:
    """Serialize a norm exponent: ``inf`` or its decimal repr."""
    p = check_exponent(p)
    return "inf" if math.isinf(p) else repr(float(p))


def parse_exponent(text: str) -> float:
    """Inverse of :func:`format_exponent`."""
    return check_exponent(float(text))


def write_points(path: str | Path, points: np.ndarray, p: float) -> None:
    """Write a dataset file; see the module docstring for the layout."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n, d = points.shape
    with open(path, "w") as handle:
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
        p = parse_exponent(header[2])
        points = np.empty((n, d), dtype=np.float64)
        for i in range(n):
            row = handle.readline().split()
            if len(row) != d:
                raise ValueError(f"dataset row {i} has {len(row)} values, expected {d}")
            points[i] = [float(v) for v in row]
    return points, p


def gaussian_points(n: int, d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """n standard Gaussian points scaled by ``scale``."""
    return stream(seed, _STREAM_POINTS).standard_normal((n, d)) * scale


def uniform_cube_points(n: int, d: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """n points uniform on the cube (-scale, scale)^d."""
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
    p = check_exponent(p)
    if n_pairs < 0:
        raise ValueError("n_pairs must be nonnegative")
    if n < 2 * n_pairs:
        raise ValueError(f"n={n} is too small for {n_pairs} planted pairs")
    if n_pairs > 0 and not distances:
        raise ValueError("distances must be nonempty when planting pairs")
    if any(t <= 0.0 for t in distances):
        raise ValueError("planted distances must be positive")
    rng = stream(seed, _STREAM_POINTS)
    points = rng.standard_normal((n, d)) * spread
    pairs = []
    if n_pairs > 0:
        directions = lp_sphere_block(stream(seed, _STREAM_DIRECTIONS), d, p, n_pairs)
        for i in range(n_pairs):
            target = float(distances[i % len(distances)])
            offset = directions[i] * target
            realized = lp_norm(offset, p)
            offset *= target / realized
            points[n_pairs + i] = points[i] + offset
            pairs.append(
                PlantedPair(
                    anchor_id=i,
                    partner_id=n_pairs + i,
                    distance=lp_norm(points[n_pairs + i] - points[i], p),
                )
            )
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
    p = check_exponent(p)
    if c <= 0.0:
        raise ValueError("c must be positive")
    if not 1.0 < lo_factor <= hi_factor:
        raise ValueError("need 1 < lo_factor <= hi_factor")
    directions = lp_sphere_block(stream(seed, _STREAM_DIRECTIONS), d, p, n)
    radii = stream(seed, _STREAM_RADII).uniform(lo_factor * c, hi_factor * c, size=n)
    return directions * radii[:, None]


def near_origin_queries(
    n: int, d: int, p: float, c: float, seed: int, max_norm_factor: float = 0.04
) -> np.ndarray:
    """n query points with l_p norm at most ``max_norm_factor * c``."""
    p = check_exponent(p)
    directions = lp_sphere_block(stream(seed, _STREAM_DIRECTIONS + 10), d, p, n)
    radii = stream(seed, _STREAM_RADII + 10).uniform(0.0, max_norm_factor * c, size=n)
    return directions * radii[:, None]


def write_pairs_truth(path: str | Path, pairs: Sequence[PlantedPair]) -> None:
    """CSV companion for planted pairs: pair_id, anchor_id, partner_id,
    distance (exact realized value, shortest repr)."""
    with open(path, "w") as handle:
        handle.write("pair_id,anchor_id,partner_id,distance\n")
        for pair_id, pair in enumerate(pairs):
            handle.write(
                f"{pair_id},{pair.anchor_id},{pair.partner_id},{pair.distance!r}\n"
            )


def read_pairs_truth(path: str | Path) -> list[PlantedPair]:
    """Read back a planted-pairs truth file."""
    pairs = []
    with open(path) as handle:
        header = handle.readline().strip()
        if header != "pair_id,anchor_id,partner_id,distance":
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
