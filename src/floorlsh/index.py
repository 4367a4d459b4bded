"""Approximate nearest-neighbor index with zero false negatives.

Points are labeled by an L-tuple of floored-projection hashes.  A pair within
l_p distance 1 moves level l's projection by at most the drawn vector's reach
r_l <= 1 (Hölder), so one side of every pair takes each label within that
reach, widened by a proven bound on the rounding of both sides
(:func:`floorlsh.families.label_ranges`), and the other side takes its own
label.  So in IEEE-754 doubles, deterministically for every draw, each point
whose computed distance to the query is at most 1 shares a bucket with it;
every reported neighbor is then verified by a true distance computation, so
results contain exactly the candidates within distance c.

Two storage layouts trade preprocessing against query cost:

* ``fast_query``: every point is stored under each label tuple of its
  ranges, about prod_l (1 + 2 r_l) of them, and a query reads the single
  bucket of its own labels.
* ``fast_preprocessing``: every point is stored once under its own labels,
  and a query probes each label tuple of its ranges.

Both return every point within distance 1 for the same configuration and
master seed; they can differ only on the optional band (1, c].

Each label tuple is folded to one 64-bit key, the XOR of one mixed value per
level, of which a bucket keeps the high 64 - b bits, for
b = bit_length(entries - 1).  The entries live in one array of these keys
sorted by (key, id) beside one array of 4-byte point ids; a bucket is a run
of equal keys, found by binary search.  Two label tuples whose keys agree share a run; that can only
add candidates, and distance verification checks every candidate, so
correctness does not depend on the key, only bucket sizes do.

Labels are exact only while |scale * <w, x>| < 2^53, the range in which a
double holds every integer, so build and query reject inputs beyond it and
non-finite inputs.  The ranged side, whose rounding margin grows with the
projection, also rejects rows whose margin reaches a quarter of a label, so
its ranges hold at most 4 labels per level and a query probes at most 4^L
buckets.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .families import (
    PROVEN_ADJACENCY_KINDS,
    FamilyKind,
    c_threshold,
    false_positive_bound,
    label_ranges,
    reach,
    reach_bound,
    sample_vector,
)
from .lpspace import check_dimension, check_exponent, lp_distances
from .streams import derive_seed

LN3 = math.log(3.0)

#: Default cap on stored (key, id) entries; fast_query stores each point
#: under the product of its range widths, about prod_l (1 + 2 r_l) label
#: tuples and at most 4^L, so the cap is what a build may cost in memory.
#: The constructor checks the exact total before it allocates.
DEFAULT_MAX_ENTRIES = 10_000_000

_CHUNK_ENTRIES = 1 << 20

_MIX_MULT_1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_MULT_2 = np.uint64(0xC4CEB9FE1A85EC53)

#: Ids are int32, so an index holds fewer than 2^31 points.
_MAX_POINTS = 2**31

#: Cap on the label length L, so that an image claiming 2^32 - 1 levels is
#: refused before it draws a vector per level.  No working index comes near
#: it: choose_levels' fast_preprocessing L is at most 17 for n < 2^31, and a
#: level multiplies entries or probes by its range width, about 1 + 2 r_l.
MAX_LEVELS = 64

_FILE_MAGIC = b"FLSHIDX8"
_FILE_VERSION = 8
#: Earlier formats, recognised only to ask for a rebuild: FLSHIDX1 stored
#: two key lanes, FLSHIDX2 keys folded over key prefixes, FLSHIDX3 whole
#: keys and 8-byte ids, FLSHIDX4 one self-describing record per level,
#: FLSHIDX5 every point under all 3^L neighbouring labels, without the
#: rounding margin, FLSHIDX6 the entry arrays and FLSHIDX7 the hash vectors.
_RETIRED_MAGICS = tuple(b"FLSHIDX%d" % version for version in range(1, 8))
_HEADER = struct.Struct("<8sHQ32s")
#: p tag, p, family tag, variant tag, d, c, L, master seed, unsafe flag,
#: max_entries, n; the padding ends header and block on a multiple of 8,
#: so the points after them start aligned.
_BLOCK = struct.Struct("<BdBBIdIQBQQ2x")
#: The payload ends with the SHA-256 of the hash vectors the build drew.
_DIGEST_SIZE = 32


class Variant(str, Enum):
    FAST_QUERY = "fast_query"
    FAST_PREPROCESSING = "fast_preprocessing"


#: An image's family and variant tags: each tag is a position in its tuple.
_KIND_TAGS = (
    FamilyKind.RADEMACHER,
    FamilyKind.UNIFORM_CUBE,
    FamilyKind.UNIT_SPHERE,
    FamilyKind.LQ_SPHERE_EXPERIMENTAL,
)
_VARIANT_TAGS = (Variant.FAST_QUERY, Variant.FAST_PREPROCESSING)

@dataclass(frozen=True)
class IndexConfig:
    """Build configuration.

    Attributes:
        p: norm exponent of the metric, in [1, inf].
        d: dimension.
        c: approximation factor; any returned point is within c, any point
            within 1 is always returned.  Must exceed the family threshold
            unless ``unsafe_override`` is set.
        kind: hash family; restricted to the families with a proven
            adjacency guarantee.
        variant: storage layout.
        levels: label length L, at most :data:`MAX_LEVELS`, or None to pick
            it from the theoretical false-positive bound.
        master_seed: seed from which all per-level hash seeds derive.
        unsafe_override: allow c at or below the family threshold.  The
            no-false-negative guarantee still holds; only the false-positive
            bound is forfeited.
        max_entries: memory guard on stored (key, id) entries.
    """

    p: float
    d: int
    c: float
    kind: FamilyKind
    variant: Variant
    levels: int | None = None
    master_seed: int = 0
    unsafe_override: bool = False
    max_entries: int = DEFAULT_MAX_ENTRIES

    def __post_init__(self) -> None:
        check_exponent(self.p)
        object.__setattr__(self, "kind", FamilyKind(self.kind))
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.kind not in PROVEN_ADJACENCY_KINDS:
            raise ValueError(
                f"family {self.kind.value!r} has no adjacency guarantee and "
                "cannot back an index"
            )
        check_dimension(self.d)
        if not self.c >= 1.0:
            raise ValueError(f"approximation factor must be >= 1, got {self.c}")
        if self.levels is not None and not 1 <= self.levels <= MAX_LEVELS:
            raise ValueError(f"levels must be in [1, {MAX_LEVELS}], got {self.levels}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.max_entries < 1:
            raise ValueError("max_entries must be positive")
        threshold = c_threshold(self.kind, self.p, self.d)
        if self.c <= threshold and not self.unsafe_override:
            raise ValueError(
                f"approximation factor c={self.c} is at or below the "
                f"{self.kind.value} threshold {threshold}; the false-positive "
                "bound would be vacuous (set unsafe_override to force)"
            )

    @property
    def false_positive_bound(self) -> float | None:
        """Theoretical far-pair collision bound per level, if meaningful."""
        bound, _ = false_positive_bound(self.kind, self.p, self.d, self.c)
        return bound


def choose_levels(variant: Variant, n: int, d: int, fp_bound: float) -> int:
    """Pick the label length L for ``n`` points from the per-level bound.

    fast_query targets about d expected surviving far points per query:
    L = ceil(ln(n / d) / a) with a = -ln(fp_bound).  fast_preprocessing
    tracks the balance point of probe cost 3^L against expected candidate
    cost n * fp_bound^L: L = ceil(ln(n * a / b) / (a + b)) with b = ln 3.
    3^L is the probe cost at reach 1 on every level; a query probes the
    product of its range widths, about prod_l (1 + 2 r_l), so a family
    whose vectors reach less than 1 probes fewer buckets than assumed here.
    Rounding up keeps replication from lagging the data size, so candidate
    scanning stays sublinear across growing n; the cost of the ceiling over
    the exact integer minimizer is at most one extra level.

    Raises when fp_bound >= 1: no level count can thin out far points, and
    when L would exceed :data:`MAX_LEVELS`, which a bound near 1 can ask for.
    """
    variant = Variant(variant)
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    check_dimension(d)
    if not 0.0 < fp_bound < 1.0:
        raise ValueError(
            f"per-level false-positive bound must be in (0, 1) to derive a "
            f"level count, got {fp_bound}"
        )
    a = -math.log(fp_bound)
    if variant is Variant.FAST_QUERY:
        target, rate = n / d, a
    else:
        target, rate = n * a / LN3, a + LN3
    levels = max(1, math.ceil(math.log(target) / rate)) if target > 1.0 else 1
    if levels > MAX_LEVELS:
        raise ValueError(
            f"the automatic {variant.value} level rule gives L = {levels} at a per-level "
            f"far-pair rate of {fp_bound:.6g}, above the cap of {MAX_LEVELS} levels; use "
            "a larger c or pass an explicit level count (--levels)"
        )
    return levels


@dataclass(frozen=True)
class BuildStats:
    """Figures of one index, derived by the constructor from the arrays it
    lays out, whether the index was built or loaded: ``entries`` stored
    (key, id) entries, ``unique_buckets`` distinct keys, and
    ``approx_bytes`` held in its points, hash vectors, keys and ids and, in
    fast_preprocessing, its occupancy map.  ``seconds`` is the build's
    wall-clock time; an image does not record it, so images are
    reproducible byte for byte, and a loaded index reports
    ``seconds == 0.0``."""

    seconds: float
    entries: int
    unique_buckets: int
    approx_bytes: int


@dataclass(frozen=True)
class QueryStats:
    buckets_probed: int
    candidates_scanned: int
    distance_evals: int
    duplicates_suppressed: int


@dataclass(frozen=True)
class QueryResult:
    """Verified neighbors (id, distance), sorted by distance then id."""

    neighbors: list[tuple[int, float]]
    stats: QueryStats


def _mix64(values: np.ndarray) -> np.ndarray:
    values ^= values >> 33
    values *= _MIX_MULT_1
    values ^= values >> 29
    values *= _MIX_MULT_2
    values ^= values >> 32
    return values


def _entry_total(counts: np.ndarray, max_entries: int) -> int:
    """Entries of all points, each the product of its range widths, once the
    sum is known to fit the ``max_entries`` guard."""
    total = counts.prod(axis=1, dtype=np.float64).sum()
    if total > max_entries:
        n = len(counts)
        raise ValueError(
            f"build would store {total:.0f} entries ({total / n:.1f} per point "
            f"over {n} points), above the max_entries guard of {max_entries}; "
            "lower the level count, switch to fast_preprocessing, or raise the guard"
        )
    return int(total)


def _occupied_cells(sorted_keys: np.ndarray) -> tuple[np.uint64, np.ndarray]:
    """(shift, occupied): whether each of the 2^k cells ``key >> shift`` of
    the key space holds a stored key, one byte per cell; with
    k = bit_length(entries - 1) + 3 at most one cell in 8 does."""
    bits = (sorted_keys.size - 1).bit_length() + 3
    shift = np.uint64(64 - bits)
    occupied = np.zeros(1 << bits, dtype=bool)
    occupied[sorted_keys >> shift] = True
    return shift, occupied


def _bucket_count(sorted_keys: np.ndarray) -> int:
    """Distinct keys in a nonempty sorted key array."""
    return int(np.count_nonzero(sorted_keys[1:] != sorted_keys[:-1])) + 1


def _tag_mask(entries: int) -> np.uint64:
    """The low b = bit_length(entries - 1) bits, which a bucket key leaves
    out so that the constructor can tag each key with its point's id."""
    return np.uint64((1 << (entries - 1).bit_length()) - 1)


class _Fingerprinter:
    """Folds int64 label tuples into one mixed 64-bit key."""

    def __init__(self, master_seed: int, levels: int) -> None:
        base = 1 << 48
        self.init = np.uint64(derive_seed(master_seed, base))
        self.mults = np.array(
            [derive_seed(master_seed, base + 2 + 2 * i) | 1 for i in range(levels)],
            dtype=np.uint64,
        )

    def fold(
        self, lo: np.ndarray, counts: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The keys of every label tuple in each row's ranges, for (m, L)
        int64 ranges as :func:`floorlsh.families.label_ranges` gives them:
        row r holds labels lo[r, l] + j, 0 <= j < counts[r, l], at level l.

        Rows whose ranges have the same widths fold together, in blocks of
        at most _CHUNK_ENTRIES keys (a row with more keys is a block alone),
        so memory stays bounded however many rows come in.  Each block is
        yielded as a (rows, keys) pair: keys[i] are the keys of row rows[i],
        its tuples in lexicographic order (level 0 varying slowest); every
        row is in exactly one block.  key(t) is the XOR over levels l of
        mix64((t_l * mult_l) ^ init), each level value a bijection of its
        label, so tuples that differ in one level never share a key.  A row
        costs one mix per label: rows of one label per level (own labels)
        take one XOR reduction, wider rows a cross product level by level.
        """
        levels = counts.shape[1]
        if len(counts) > 1 and (counts != counts[0]).any():
            order = np.lexsort(counts.T)
            widths = counts[order]
            cuts = np.flatnonzero((widths[1:] != widths[:-1]).any(axis=1)) + 1
            groups = [(rows, lo[rows]) for rows in np.split(order, cuts)]
        else:
            groups = [(np.arange(len(counts)), lo)] if len(counts) else []
        for group, first in groups:
            widths = counts[group[0]].tolist()
            size = math.prod(widths)
            block = max(1, _CHUNK_ENTRIES // size)
            for start in range(0, len(group), block):
                rows = group[start : start + block]
                if size == 1:
                    # one label per level: the key is one XOR over the levels,
                    # laid out level by level so that it reduces whole rows
                    own = np.multiply(first[start : start + block].T.view(np.uint64),
                                      self.mults[:, None], order="C")
                    yield rows, np.bitwise_xor.reduce(_mix64(own ^ self.init))[:, None]
                    continue
                labels = first[start : start + block, :, None] + np.arange(max(widths))
                # mixed[r, l, j]: row r's level-l label lo + j, mixed
                mixed = _mix64((labels.view(np.uint64) * self.mults[:, None]) ^ self.init)
                keys = mixed[:, 0, : widths[0]]
                for level in range(1, levels):
                    step = mixed[:, level, None, : widths[level]]
                    keys = (keys[:, :, None] ^ step).reshape(len(rows), -1)
                yield rows, keys


class LshIndex:
    """The no-false-negative index; construct through :meth:`build` or
    :meth:`load`.

    An index is its resolved config and its points; the constructor derives
    everything else from them in one place: the hash functions, drawn as
    ``sample_vector(kind, p, d, derive_seed(master_seed, level))`` for each
    level, the scale, the key fingerprinter, the sorted entry arrays, in
    fast_preprocessing the probe bounds and the occupancy map, and
    :attr:`stats`, whose entry and bucket counts and byte total are read off
    the arrays.

    The entries depend on these two alone and are sorted canonically by
    (key, id), so identical inputs give identical indexes regardless of how
    the work would be split.  Each point's entry count is known before
    anything is allocated.  Each key's low bits, which buckets leave out,
    hold its point's id while one in-place sort orders the entries by
    (key, id).
    """

    def __init__(self, config: IndexConfig, points: np.ndarray) -> None:
        self.config = config
        self.points = points
        self.hash_functions = [
            sample_vector(config.kind, config.p, config.d, derive_seed(config.master_seed, level))
            for level in range(config.levels)
        ]
        self._w_matrix = np.vstack([h.w for h in self.hash_functions])
        self._w_matrix.flags.writeable = False
        self._scale = self.hash_functions[0].scale
        self._fingerprinter = _Fingerprinter(config.master_seed, config.levels)
        # fast_query stores a point under every label within reach of it,
        # fast_preprocessing under its own labels, which queries probe around
        bounds = reach_bound(self._w_matrix, self._scale, config.p)
        ranged = config.variant is Variant.FAST_QUERY
        lo, counts = label_ranges(
            self._w_matrix, self._scale, points, bounds if ranged else None
        )
        total_entries = _entry_total(counts, config.max_entries)
        tags = _tag_mask(total_entries)
        keys = np.empty(total_entries, dtype=np.uint64)
        filled = 0
        for rows, block in self._fingerprinter.fold(lo, counts):
            part = keys[filled : filled + block.size].reshape(block.shape)
            np.bitwise_and(block, ~tags, out=part)
            part |= rows.astype(np.uint64)[:, None]
            filled += block.size
        keys.sort()
        ids = np.empty(total_entries, dtype=np.int32)
        np.bitwise_and(keys, tags, out=ids, casting="unsafe")
        keys &= ~tags
        self._entry_keys, self._entry_ids, self._key_mask = keys, ids, ~tags
        # queries only read the index, so they may run concurrently
        for array in (points, keys, ids):
            array.flags.writeable = False
        held = points.nbytes + self._w_matrix.nbytes + keys.nbytes + ids.nbytes
        self._probe_bounds = self._occupied = None
        if not ranged:
            self._probe_bounds = bounds
            self._cell_shift, self._occupied = _occupied_cells(keys)
            held += self._occupied.nbytes
        self.stats = BuildStats(0.0, total_entries, _bucket_count(keys), held)

    @property
    def levels(self) -> int:
        """Label length L, as resolved by the build."""
        return self.config.levels

    @property
    def reach(self) -> np.ndarray:
        """Per-level reach r_l = scale * ||w_l||_q of the drawn vectors (q the
        dual exponent of p): how far a pair within distance 1 can move level
        l's projection.  A ranged side holds about 1 + 2 r_l labels per level."""
        return reach(self._w_matrix, self._scale, self.config.p)

    @property
    def entry_count(self) -> int:
        """Stored (key, id) entries: the sum over points of the product of
        their range widths in fast_query, n in fast_preprocessing."""
        return int(self._entry_ids.size)

    @property
    def unique_bucket_count(self) -> int:
        return self.stats.unique_buckets

    @classmethod
    def build(cls, points: np.ndarray, config: IndexConfig) -> "LshIndex":
        """Index the dataset: validate the points, resolve the level count
        and construct.

        Deterministic in (points, config): per-level hash seeds derive from
        the master seed by counter, and the constructor's vectors and
        entries from them and the points.
        """
        started = time.perf_counter()
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be a 2-d array")
        n, d = points.shape
        if n < 1:
            raise ValueError("cannot index an empty dataset")
        if n >= _MAX_POINTS:
            raise ValueError(f"cannot index {n} points: ids are 4 bytes, so n < 2^31")
        points = np.array(points, copy=True, order="C")
        if d != config.d:
            raise ValueError(f"points have dimension {d}, config says {config.d}")
        levels = config.levels
        if levels is None:
            fp_bound = config.false_positive_bound
            if fp_bound is None or fp_bound >= 1.0:
                raise ValueError(
                    "the false-positive bound is vacuous at this c; pass an "
                    "explicit level count"
                )
            levels = choose_levels(config.variant, n, d, fp_bound)
        index = cls(replace(config, levels=levels), points)
        # the time of the whole build, the derivations of the constructor too
        index.stats = replace(index.stats, seconds=time.perf_counter() - started)
        return index

    def query(self, query: np.ndarray) -> QueryResult:
        """All indexed points within distance c that hashing can reach.

        Every point within distance 1 of the query is returned, always;
        points in (1, c] are returned when they share a probed bucket.
        Queries are read-only and safe to issue concurrently.
        """
        query = np.asarray(query, dtype=np.float64)
        if query.shape != (self.config.d,):
            raise ValueError(
                f"query has shape {query.shape}, expected ({self.config.d},)"
            )
        return self.query_batch(query[None, :])[0]

    def query_batch(self, queries: np.ndarray) -> list[QueryResult]:
        """:meth:`query` for every row of ``queries``, answer for answer.

        Labels, folds and bucket searches run over the whole batch at once,
        so a batch pays their fixed cost of 50-90 calls once; candidates
        are then verified query by query, at about 25 calls each.  A
        query's labels do not depend on its batch.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.config.d:
            raise ValueError(
                f"queries have shape {queries.shape}, expected (m, {self.config.d})"
            )
        lo, counts = label_ranges(
            self._w_matrix, self._scale, queries, self._probe_bounds, "queries"
        )
        results = [None] * len(queries)
        for rows, probes in self._fingerprinter.fold(lo, counts):
            pulled, starts, stops = self._lookup(probes)
            for row, start, stop in zip(rows.tolist(), starts, stops):
                results[row] = self._verify(queries[row], pulled[start:stop], probes.shape[1])
        return results

    def _lookup(self, probes: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
        """The ids stored under each row of the (m, k) probe keys, as
        (ids, starts, stops): row i's are ids[starts[i] : stops[i]].  It
        calls array methods, not the np.* wrappers, which add a call each."""
        entry_keys = self._entry_keys
        rows, width = probes.shape
        probes = probes.ravel()
        probes &= self._key_mask
        if self._occupied is None:
            # a fast_query row is one probe, its own bucket: a left and a
            # right search give its run of the entries, empty on a miss
            starts = entry_keys.searchsorted(probes)
            stops = entry_keys.searchsorted(probes, side="right")
            return self._entry_ids, starts.tolist(), stops.tolist()
        # most of the many probes of a ranged query find no bucket; only
        # those into an occupied cell of the key space are searched, and
        # only those that find their key are searched for its end
        hits = self._occupied[probes >> self._cell_shift].nonzero()[0]
        first = entry_keys.searchsorted(probes[hits])
        found = (entry_keys[np.minimum(first, entry_keys.size - 1)] == probes[hits]).nonzero()[0]
        starts, hits = first[found], hits[found]
        counts = entry_keys.searchsorted(probes[hits], side="right") - starts
        ends = counts.cumsum()
        gather = np.arange(counts.sum()) + (starts - ends + counts).repeat(counts)
        bounds = np.concatenate(([0], ends))[hits.searchsorted(np.arange(rows + 1) * width)]
        return self._entry_ids[gather], bounds[:-1].tolist(), bounds[1:].tolist()

    def _verify(self, query: np.ndarray, pulled: np.ndarray, probes: int) -> QueryResult:
        # ids ascend within a bucket's run, so a point stored under two
        # tuples whose keys collide repeats next to itself.  Several probes
        # gather several runs, into the batch's own array, sorted in place
        if probes > 1:
            pulled.sort()
        candidates = pulled
        repeats = pulled[1:] == pulled[:-1]
        if repeats.any():
            candidates = np.concatenate((pulled[:1], pulled[1:][~repeats]))
        stats = QueryStats(probes, pulled.size, candidates.size, pulled.size - candidates.size)
        distances = lp_distances(self.points[candidates], query, self.config.p)
        keep = distances <= self.config.c
        ids, distances = candidates[keep], distances[keep]
        # candidates ascend by id, so a stable sort orders by (distance, id)
        order = distances.argsort(kind="stable")
        neighbors = list(zip(ids[order].tolist(), distances[order].tolist()))
        return QueryResult(neighbors, stats)

    # -- serialization ------------------------------------------------------

    def _vector_digest(self) -> bytes:
        """SHA-256 of the drawn hash vectors as one (L, d) ``<f8`` block."""
        return hashlib.sha256(self._w_matrix.astype("<f8", copy=False)).digest()

    def _image(self) -> list:
        """The image as buffers: the header, then the payload sections."""
        config = self.config
        p_tag = 1 if math.isinf(config.p) else 0
        sections = [
            _BLOCK.pack(
                p_tag,
                0.0 if p_tag else float(config.p),
                _KIND_TAGS.index(config.kind),
                _VARIANT_TAGS.index(config.variant),
                config.d,
                config.c,
                self.levels,
                config.master_seed,
                1 if config.unsafe_override else 0,
                config.max_entries,
                len(self.points),
            ),
            np.ascontiguousarray(self.points, dtype="<f8"),
            self._vector_digest(),
        ]
        digest = hashlib.sha256()
        for section in sections:
            digest.update(section)
        length = sum(memoryview(section).nbytes for section in sections)
        return [_HEADER.pack(_FILE_MAGIC, _FILE_VERSION, length, digest.digest()), *sections]

    def to_bytes(self) -> bytes:
        """Versioned binary image with a whole-payload checksum."""
        return b"".join(self._image())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "LshIndex":
        """Rebuild an index from :meth:`to_bytes` output; the rebuilt index
        answers queries identically.  Verifies the length and the checksum,
        reads the config and the points, and hands them to the constructor,
        which draws the hash vectors and derives everything else as for
        :meth:`build`.  The image's digest of the vectors the build drew must
        match the redrawn ones: a sampler that now draws other bits (numpy
        does not promise stable streams) is refused with a request to
        rebuild, not answered with other vectors.  Nothing is kept from
        ``blob``.
        """
        image = memoryview(blob).toreadonly()
        if image.nbytes < _HEADER.size:
            raise ValueError("index image is truncated")
        magic, version, payload_length, digest = _HEADER.unpack_from(image, 0)
        if magic in _RETIRED_MAGICS:
            raise ValueError(
                f"index image format {magic.decode()} (version {version}) is no "
                f"longer supported; rebuild the index to write {_FILE_MAGIC.decode()}"
            )
        if magic != _FILE_MAGIC:
            raise ValueError("not an index image")
        if version != _FILE_VERSION:
            raise ValueError(f"unsupported index image version {version}")
        payload = image[_HEADER.size :]
        if payload.nbytes != payload_length:
            raise ValueError(
                f"index image is truncated: expected {payload_length} payload "
                f"bytes, got {payload.nbytes}"
            )
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError("index image checksum mismatch: file is corrupted")
        if payload.nbytes < _BLOCK.size:
            raise ValueError("index image is truncated")
        (
            p_tag,
            p_value,
            kind_tag,
            variant_tag,
            d,
            c,
            levels,
            master_seed,
            unsafe,
            max_entries,
            n,
        ) = _BLOCK.unpack_from(payload, 0)
        if kind_tag >= len(_KIND_TAGS):
            raise ValueError(f"index image has unknown family tag {kind_tag}")
        if variant_tag >= len(_VARIANT_TAGS):
            raise ValueError(f"index image has unknown variant tag {variant_tag}")
        config = IndexConfig(
            p=math.inf if p_tag else p_value,
            d=d,
            c=c,
            kind=_KIND_TAGS[kind_tag],
            variant=_VARIANT_TAGS[variant_tag],
            levels=levels,
            master_seed=master_seed,
            unsafe_override=bool(unsafe),
            max_entries=max_entries,
        )
        if _BLOCK.size + 8 * n * d + _DIGEST_SIZE != payload.nbytes:
            raise ValueError("index image has trailing or missing bytes")
        if n == 0:
            raise ValueError("index image holds no points")
        points = np.frombuffer(payload, "<f8", n * d, _BLOCK.size).astype(np.float64)
        index = cls(config, points.reshape(n, d))
        if index._vector_digest() != payload[-_DIGEST_SIZE:]:
            raise ValueError(
                "index image vector digest mismatch: this sampler draws other hash "
                "vectors from the image's seeds; rebuild the index"
            )
        return index

    def save(self, path: str | Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            for part in self._image():
                handle.write(part)

    @classmethod
    def load(cls, path: str | Path) -> "LshIndex":
        return cls.from_bytes(Path(path).read_bytes())

