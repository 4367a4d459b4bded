"""Hash families of the form floor(scale * <w, x>).

Four sampling distributions for w are provided:

* ``rademacher``: independent signs in {-1, +1}; the legacy family with the
  weaker false-positive bound and a known degeneracy on two-coordinate
  inputs.
* ``uniform_cube``: independent coordinates uniform on (-1, 1).
* ``unit_sphere``: uniform direction on the Euclidean unit sphere.
* ``lq_sphere_experimental``: normalized generalized-Gaussian draw, i.e. the
  cone measure on the unit l_q sphere; provided for empirical probing only
  and carries no proven guarantees.

Each family's laws live here too: its pre-floor scale (:func:`hash_scale`),
its threshold on the approximation factor (:func:`c_threshold`), and its
small-ball and far-pair collision bounds (:func:`small_ball_bound`,
:func:`false_positive_bound`), each of which checks its arguments for every
family.

For the first three families, points x, y with ||x - y||_p <= 1 land in the
same or adjacent buckets over the reals.  In IEEE-754 doubles the floors of
two computed projections can differ by 2 for such a pair, so
:func:`label_ranges` gives the labels a near point can take, from a drawn
vector's own reach (:func:`reach`) and a proven rounding margin, and
:func:`adjacency_certificate` checks a concrete pair against them.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lpspace import (
    UNIT_ROUNDOFF,
    check_dimension,
    check_exponent,
    distance_error,
    dual_exponent,
    lp_distances,
    lp_norm,
    rounding_gamma,
    scalar_products,
)
from .streams import stream

_POOL_BLOCK_ROWS = 8192
_CHUNK_BYTES = 1 << 18  # 256 KiB
#: label_ranges labels rows in chunks of at most this many values, 2 MiB of
#: them, counting d coordinates and 2 bounds per level for each row.
_CHUNK_VALUES = 1 << 18

#: Doubles hold every integer below 2^53, so floored labels are exact there.
_EXACT_LABEL_LIMIT = 2.0**53
#: A ranged row's rounding margin stays below this share of a label, which
#: bounds the labels of its range, and so the probes of one query.
_MAX_ROUNDING = 0.25
#: Rounds up a nonnegative value computed by a few roundings to nearest:
#: 1 + 2^-48 exceeds 1/(1 - u)^k for every k up to 31.
_ROUND_UP = 1.0 + 2.0**-48
_SIDES = np.array([-1.0, 1.0])
_SIDES.flags.writeable = False
#: The cube family's constant: a coordinate uniform on (-1, 1) has standard
#: deviation 1/sqrt(3).
SQRT3 = math.sqrt(3.0)


class FamilyKind(str, Enum):
    RADEMACHER = "rademacher"
    UNIFORM_CUBE = "uniform_cube"
    UNIT_SPHERE = "unit_sphere"
    LQ_SPHERE_EXPERIMENTAL = "lq_sphere_experimental"


#: Families with a deterministic close-pair adjacency guarantee.
PROVEN_ADJACENCY_KINDS = frozenset(
    {FamilyKind.RADEMACHER, FamilyKind.UNIFORM_CUBE, FamilyKind.UNIT_SPHERE}
)


def hash_scale(kind: FamilyKind, p: float, d: int) -> float:
    """Pre-floor scale factor of family ``kind`` for exponent p in R^d:
    d^{1/p - 1} for cube and sign vectors, d^{min(1/2 - 1/q, 0)} for
    unit-sphere vectors, q the dual exponent of p (the
    :func:`floorlsh.lpspace.norm_sandwich_factor` of q), and 1 for the
    experimental family."""
    kind, p = FamilyKind(kind), check_exponent(p)
    check_dimension(d)
    if kind in (FamilyKind.RADEMACHER, FamilyKind.UNIFORM_CUBE):
        return float(d) ** (1.0 / p - 1.0)
    if kind is FamilyKind.UNIT_SPHERE:
        return float(d) ** min(0.5 - 1.0 / dual_exponent(p), 0.0)
    return 1.0


def c_threshold(kind: FamilyKind, p: float, d: int) -> float | None:
    """Minimum approximation factor of ``kind`` for exponent p in R^d.

    4*sqrt(3) * d^{max(1 - 1/p, 1/2)} for the uniform cube and
    2 * d^{1/2 + |1/2 - 1/p|} for the unit sphere, below the cube's for
    p >= 2; for c above either, far pairs collide with probability below
    threshold / c.  sqrt(8) * max(d^{1/2}, d^{1 - 1/p}) for the sign family,
    whose bound has the weaker form of :func:`false_positive_bound`.  None
    for the experimental family, which has no proven false-positive bound.
    """
    kind, p = FamilyKind(kind), check_exponent(p)
    check_dimension(d)
    if kind is FamilyKind.UNIFORM_CUBE:
        return 4.0 * SQRT3 * float(d) ** max(1.0 - 1.0 / p, 0.5)
    if kind is FamilyKind.UNIT_SPHERE:
        return 2.0 * float(d) ** (0.5 + abs(0.5 - 1.0 / p))
    if kind is FamilyKind.RADEMACHER:
        return math.sqrt(8.0) * max(float(d) ** 0.5, float(d) ** (1.0 - 1.0 / p))
    return None


def false_positive_bound(
    kind: FamilyKind, p: float, d: int, c: float
) -> tuple[float | None, float | None]:
    """Theoretical far-pair collision bound of ``kind`` at factor c.

    Returns (bound, threshold).  For the cube and sphere families the bound
    is threshold / c, proven for c > threshold and reported as-is otherwise
    (values >= 1 are vacuous).  For the sign family the bound is
    1 - (1 - threshold/c)^2 / 2, which is meaningless for c <= threshold,
    so None is returned there.  The experimental family has no bound.
    """
    threshold = c_threshold(kind, p, d)  # checks kind, p and d
    if not c > 0.0:
        raise ValueError(f"approximation factor must be positive, got {c}")
    if threshold is None:
        return None, None
    if FamilyKind(kind) is FamilyKind.RADEMACHER:
        if c <= threshold:
            return None, threshold
        ratio = threshold / c
        return 1.0 - (1.0 - ratio) ** 2 / 2.0, threshold
    return threshold / c, threshold


def small_ball_bound(kind: FamilyKind, alpha: float, d: int, x_norm2: float) -> float | None:
    """Theoretical bound on P(|<w, x>| < alpha) for family ``kind`` in R^d.

    2*sqrt(3)*alpha/||x||_2 for the uniform cube, alpha*sqrt(d)/||x||_2 for
    the unit sphere; the sign and experimental families have no bound (a
    sign vector against a two-coordinate input keeps an atom of mass 1/2
    at zero, so no such bound can exist).
    """
    kind = FamilyKind(kind)
    check_dimension(d)
    if not alpha >= 0.0:
        raise ValueError(f"small-ball radius alpha must be nonnegative, got {alpha}")
    if not 0.0 < x_norm2 < math.inf:
        raise ValueError(f"small-ball bound requires a nonzero finite norm, got {x_norm2}")
    if kind is FamilyKind.UNIFORM_CUBE:
        return 2.0 * SQRT3 * alpha / x_norm2
    if kind is FamilyKind.UNIT_SPHERE:
        return alpha * math.sqrt(d) / x_norm2
    return None


@dataclass(frozen=True)
class HashFunction:
    """One sampled hash function h(x) = floor(scale * <w, x>).

    Attributes:
        kind: sampling family of w.
        p: norm exponent the scale was derived for.
        d: dimension.
        seed: 64-bit seed that produced w.
        w: the sampled vector, read-only float64 of shape (d,).
        scale: pre-floor scale factor.
    """

    kind: FamilyKind
    p: float
    d: int
    seed: int
    w: np.ndarray
    scale: float

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFunction):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.p == other.p
            and self.d == other.d
            and self.seed == other.seed
            and self.scale == other.scale
            and np.array_equal(self.w, other.w)
        )


def lp_sphere_block(
    rng: np.random.Generator, d: int, q: float, rows: int, magnitude_rng=None
) -> np.ndarray:
    """Draw ``rows`` cone-measure points on the unit l_q sphere in R^d.

    Coordinates start as generalized-Gaussian draws with density
    proportional to exp(-|t|^q) (uniform on (-1, 1) at q = inf), then each
    row is normalized to unit l_q norm; the resulting direction law is the
    cone measure of the sphere.  At q = 2 this is the uniform direction.
    A finite q draws the signs from ``rng``, then the magnitudes from the
    generator ``magnitude_rng``, ``rng`` by default; q = inf draws no signs.
    """
    q = check_exponent(q)
    check_dimension(d)
    if math.isinf(q):
        g = rng.uniform(-1.0, 1.0, size=(rows, d))
        return np.divide(g, np.max(np.abs(g), axis=1, keepdims=True), out=g)
    g = rng.integers(0, 2, size=(rows, d)) * 2.0  # the signs, then in place
    g -= 1.0
    magnitudes = (magnitude_rng or rng).standard_gamma(1.0 / q, size=(rows, d))
    magnitudes **= 1.0 / q
    g *= magnitudes
    if q == 1.0:
        norms = np.sum(np.abs(g, out=magnitudes), axis=1, keepdims=True)
    elif q == 2.0:
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    else:
        np.power(np.abs(g, out=magnitudes), q, out=magnitudes)
        norms = np.sum(magnitudes, axis=1, keepdims=True) ** (1.0 / q)
    return np.divide(g, norms, out=g)


def _fill_chunk(kind: FamilyKind, rows: np.ndarray, rngs: tuple, q: float | None):
    """Fill ``rows``, C-contiguous, with the next chunk of a block from the
    block's ``rngs`` of :func:`_draw_pool`.  Every draw is prefix-stable, so
    a partial block draws only its own rows."""
    rng, magnitude_rng = rngs
    if kind is FamilyKind.LQ_SPHERE_EXPERIMENTAL:
        rows[...] = lp_sphere_block(rng, rows.shape[1], q, len(rows), magnitude_rng)
        return
    if kind is FamilyKind.RADEMACHER:
        rows[...] = rng.integers(0, 2, size=rows.shape)
    elif kind is FamilyKind.UNIFORM_CUBE:
        # the same bits as rng.uniform(-1, 1), which computes -1 + 2 * r
        rng.random(out=rows)
    else:
        rng.standard_normal(out=rows)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        return
    rows *= 2.0
    rows -= 1.0


def _fill_workers(blocks: int) -> int:
    """Threads that fill ``blocks`` pool blocks: at most one per usable CPU."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, min(blocks, len(os.sched_getaffinity(0))))
    return max(1, min(blocks, os.cpu_count() or 1))


def _draw_pool(
    kind: FamilyKind, d: int, count: int, seed: int, q: float | None, vectors=None, count_hits=None
):
    """Check a pool's arguments and draw its 8192-row blocks across the usable
    CPUs, block j from substream (seed, j) in chunks of _CHUNK_BYTES: the
    (count, d) pool; with (k, d) ``vectors`` their (k, count) products, each
    chunk drawn into one scratch per worker; with ``count_hits`` too, the sum
    of count_hits over the blocks' products, each reduced once it is drawn.
    The experimental family draws block j's signs from that substream and its
    magnitudes from a second (seed, j) generator advanced past the block's
    8192 * d signs, so every chunk continues both draws where they stopped."""
    kind = FamilyKind(kind)
    check_dimension(d)
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if kind is FamilyKind.LQ_SPHERE_EXPERIMENTAL:
        if q is None:
            raise ValueError("the experimental l_q family requires its q exponent")
        q = check_exponent(q)
    elif q is not None:
        raise ValueError("q is only meaningful for the experimental l_q family")
    if vectors is not None and (np.ndim(vectors) != 2 or np.shape(vectors)[1] != d):
        raise ValueError(f"vectors must have shape (k, {d}), got {np.shape(vectors)}")
    out = None if count_hits else np.empty((count, d) if vectors is None else (len(vectors), count))
    step = _POOL_BLOCK_ROWS
    chunk = min(step, max(1, _CHUNK_BYTES // (8 * d)))
    workers = _fill_workers(-(-count // step))

    def work(first: int):
        scratch = None if vectors is None else np.empty((min(count, chunk), d))
        products = out if count_hits is None else np.empty((len(vectors), min(count, step)))
        hits = None if count_hits is None else count_hits(products[:, :0])
        for lo in range(first * step, count, workers * step):
            hi, j = min(count, lo + step), lo // step
            rngs = stream(seed, j), None if q is None else stream(seed, j)
            if q is not None:  # magnitudes past the block's step * d signs, 8 per counter step
                rngs[1].bit_generator.advance(step * d // 8)
            at = 0 if count_hits is None else lo  # the pool row of products' column 0
            block = out[lo:hi] if vectors is None else products[:, lo - at : hi - at]
            for start in range(0, hi - lo, chunk):
                stop = min(hi - lo, start + chunk)
                rows = block[start:stop] if vectors is None else scratch[: stop - start]
                _fill_chunk(kind, rows, rngs, q)
                if vectors is not None:
                    scalar_products("ij,kj->ki", rows, vectors, out=block[:, start:stop])
            if count_hits is not None:
                hits = hits + count_hits(block)
        return hits

    if workers == 1:
        results = [work(0)]
    else:
        with ThreadPoolExecutor(workers) as executor:
            results = list(executor.map(work, range(workers)))  # re-raises a worker's error
    return out if count_hits is None else sum(results)


def sample_pool(
    kind: FamilyKind, d: int, count: int, seed: int, q: float | None = None
) -> np.ndarray:
    """Draw ``count`` hash vectors as a (count, d) matrix.

    Rows come in fixed blocks of 8192, block j from substream (seed, j) and
    drawn chunk by chunk straight into its own rows, the blocks filled
    concurrently.  The pool is deterministic in (kind, d, count, seed), its
    bytes do not depend on the core count, and row i of a longer pool
    equals row i of a shorter one.  :func:`pool_projections` and
    :func:`pool_counts` draw the same rows, one 256 KiB chunk at a time per
    worker, without holding the pool.
    """
    return _draw_pool(kind, d, count, seed, q)


def pool_projections(
    kind: FamilyKind, d: int, count: int, seed: int, vectors, q: float | None = None
) -> np.ndarray:
    """The (k, count) products of the rows of ``sample_pool(kind, d, count,
    seed, q)`` with the k rows of ``vectors``, holding one chunk of the pool
    per worker.  Row i is ``np.einsum("ij,j->i", pool, vectors[i])`` bit for
    bit (:func:`floorlsh.lpspace.scalar_products`), whatever the worker
    count, the vectors' layout or the CPU's BLAS."""
    return _draw_pool(kind, d, count, seed, q, vectors)


def pool_counts(
    kind: FamilyKind, d: int, count: int, seed: int, vectors, count_hits, q: float | None = None
):
    """The sum of ``count_hits(block)`` over the (k, <= 8192) column blocks
    of ``pool_projections(kind, d, count, seed, vectors, q)``, each with that
    array's bits, or count_hits of a (k, 0) block for an empty pool.  Each
    worker holds one chunk of the pool and one block, whatever ``count`` is."""
    return _draw_pool(kind, d, count, seed, q, vectors, count_hits)


def sample_vector(
    kind: FamilyKind, p: float, d: int, seed: int, q: float | None = None
) -> HashFunction:
    """Sample one hash function; bit-identical for identical arguments.

    The vector is row 0 of :func:`sample_pool` for the same (kind, d, seed),
    so pooled estimation and single-function use agree.
    """
    kind = FamilyKind(kind)
    p = check_exponent(p)
    w = sample_pool(kind, d, 1, seed, q=q)[0]
    w.flags.writeable = False
    return HashFunction(
        kind=kind,
        p=p,
        d=d,
        seed=seed,
        w=w,
        scale=hash_scale(kind, p, d),
    )


def hash_eval_matrix(w_matrix: np.ndarray, scale: float, points: np.ndarray) -> np.ndarray:
    """Hash many points under many vectors at once.

    Args:
        w_matrix: (L, d) stack of hash vectors.
        scale: shared pre-floor scale.
        points: (n, d) points.

    Returns:
        (n, L) int64 matrix of bucket labels, the own labels of
        :func:`label_ranges`.
    """
    return label_ranges(w_matrix, scale, points)[0]


def reach(w_matrix: np.ndarray, scale: float, p: float) -> np.ndarray:
    """The per-level reach r_l = scale * ||w_l||_q of the (L, d) vectors
    ``w_matrix``, q the dual exponent of p.

    By Hölder, |scale * <w_l, x - y>| <= r_l * ||x - y||_p, so a pair within
    l_p distance 1 moves level l's projection by at most r_l.  The family
    scales keep r_l <= 1 for every vector a family can draw; a drawn vector
    usually reaches less.
    """
    return scale * lp_distances(w_matrix, 0.0, dual_exponent(p))


def reach_bound(w_matrix: np.ndarray, scale: float, p: float) -> np.ndarray:
    """R_l >= scale * ||w_l||_q * (1 + delta), rounded up, with delta the
    relative error bound of computed l_p distances and norms
    (:func:`floorlsh.lpspace.distance_error`).  A pair whose *computed*
    distance is at most 1 moves level l's exact projection by at most R_l,
    even though ||w_l||_q is itself computed: its exact distance is at most
    1 + delta, as a computed distance below 2^-1022 is, with the underflow
    term 2^-1074, still far inside 1."""
    delta = distance_error(w_matrix.shape[1])
    return reach(w_matrix, scale, p) * ((1.0 + delta) ** 2 * _ROUND_UP)


def label_ranges(
    w_matrix: np.ndarray,
    scale: float,
    points: np.ndarray,
    reach_bounds: np.ndarray | None = None,
    what: str = "points",
) -> tuple[np.ndarray, np.ndarray]:
    """The label ranges of the rows of ``points`` under the (L, d) vectors
    ``w_matrix``: (lo, counts), two (n, L) int64 arrays; row i holds the
    labels lo[i, l] + j for 0 <= j < counts[i, l] at level l.

    Each projection v = scale * <w_l, x>, and each sum_j |w_j x_j|, is a
    :func:`floorlsh.lpspace.scalar_products` sum, so a row's labels depend
    neither on the other rows, nor on the layout of ``points``, nor on a
    BLAS library.  Without ``reach_bounds`` a row holds its own label
    floor(v).  With the per-level R = ``reach_bounds`` of
    :func:`reach_bound` it holds [floor(v - M), floor(v + M)], where
    M = R + E and E = gamma_{d+2} * (2 * scale * sum_j |w_j x_j| + R).  If y
    lies within computed distance 1 of x, their exact projections differ by
    at most R; each computed projection lies within gamma_{d+1} * scale *
    sum_j |w_j z_j| of the exact one, in any summation order; and Hölder
    gives sum_j |w_j y_j| <= sum_j |w_j x_j| + R / scale.  So E covers the
    rounding on both sides, and y's label, however computed, lies in x's
    range.  M is computed rounded up, and 2u more on the spread term's
    gamma covers the rounding of v - M and v + M, since |v| is at most
    about scale * sum_j |w_j x_j|.

    Raises ValueError unless every bound lies within +-2^53, where a double
    holds every integer; non-finite coordinates get their own message.  With
    ``reach_bounds`` it also raises once a rounding part M - R reaches
    _MAX_ROUNDING = 1/4 of a label, at scale * sum_j |w_j x_j| of about
    2^50 / (d + 4), so a level's range holds at most ceil(2 R + 1/2) + 1
    labels: 4 for the families' r_l <= 1, however far a row lies.
    """
    n, d = points.shape
    if reach_bounds is not None:
        gamma = rounding_gamma(d + 2)
        weight = 2.0 * (gamma + 2.0 * UNIT_ROUNDOFF) * scale * _ROUND_UP
        widened = reach_bounds * ((1.0 + gamma) * _ROUND_UP)
    step = max(1, _CHUNK_VALUES // (d + 2 * len(w_matrix)))
    chunks = []
    for start in range(0, max(n, 1), step):  # an empty batch is one empty chunk
        rows = points[start : start + step]
        # non-finite inputs and overflows are reported by the range check
        with np.errstate(invalid="ignore", over="ignore"):
            bounds = scale * scalar_products("ij,kj->ik", rows, w_matrix)[:, :, None]
            if reach_bounds is not None:
                # M = weight * sum_j |w_j x_j| + widened R
                spreads = weight * scalar_products("ij,kj->ik", np.abs(rows), np.abs(w_matrix))
                rounding = spreads.max(initial=0.0)
                bounds = bounds + (spreads + widened)[:, :, None] * _SIDES
        # a non-finite coordinate always makes a bound non-finite, so it is
        # only looked for once the range check fails
        if bounds.size and not np.abs(bounds).max() < _EXACT_LABEL_LIMIT:
            if not np.isfinite(rows).all():
                raise ValueError(f"{what} must have finite coordinates")
            raise ValueError(
                f"{what} reach |scale*<w,x>| >= 2^53, beyond which labels are not "
                "exact integers"
            )
        if reach_bounds is not None and rounding >= _MAX_ROUNDING:
            raise ValueError(
                f"{what} lie too far from the origin: the rounding margin of "
                f"scale*<w,x> reaches {rounding:.3g} of a label, at most "
                f"{_MAX_ROUNDING} is allowed (scale*sum_j |w_j x_j| below about "
                f"2^50/(d+4))"
            )
        chunks.append(np.floor(bounds).astype(np.int64))
    floors = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return floors[:, :, 0], floors[:, :, -1] - floors[:, :, 0] + 1


def adjacency_certificate(h: HashFunction, x: np.ndarray, y: np.ndarray) -> bool:
    """Check that a close pair is found as the index finds it: x's own
    label lies in y's label range under :func:`reach_bound`.

    Requires a computed ||x - y||_p <= 1 (the close-pair contract) and a
    family with a proven adjacency guarantee; violating either raises
    ValueError, and so does a y that :func:`label_ranges` refuses to range.
    For valid inputs the result is True in doubles, for every draw, by the
    rounding margin of :func:`label_ranges`.
    """
    if FamilyKind(h.kind) not in PROVEN_ADJACENCY_KINDS:
        raise ValueError(
            f"family {h.kind!r} has no adjacency guarantee; "
            "use rademacher, uniform_cube or unit_sphere"
        )
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    distance = lp_norm(x - y, h.p)
    if distance > 1.0:
        raise ValueError(
            f"adjacency contract requires ||x - y||_p <= 1, got {distance}"
        )
    w = h.w[None, :]
    own, _ = label_ranges(w, h.scale, x[None, :])
    lo, counts = label_ranges(w, h.scale, y[None, :], reach_bound(w, h.scale, h.p))
    return bool(0 <= own[0, 0] - lo[0, 0] < counts[0, 0])
