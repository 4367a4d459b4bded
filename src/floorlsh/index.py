"""Approximate nearest-neighbor index with zero false negatives.

Points are labeled by an L-tuple of floored-projection hashes.  Because a
pair within l_p distance 1 differs by at most 1 in every coordinate of the
label, probing the 3^L surrounding label combinations can never miss a
close point; every reported neighbor is then verified by a true distance
computation, so results contain exactly the candidates within distance c.

Two storage layouts trade preprocessing against query cost:

* ``fast_query``: every point is stored under all 3^L labels it could be
  probed by, and a query reads a single bucket.
* ``fast_preprocessing``: every point is stored once, and a query probes
  the 3^L label combinations around its own label.

Both return identical distance <= 1 results for the same configuration and
master seed; the variants can differ only on the optional band (1, c].

Each label tuple is folded to one 64-bit key, the XOR of one mixed value per
level, of which a bucket keeps the high 64 - b bits, for
b = bit_length(entries - 1).  The entries live in one array of these keys
sorted by (key, id) beside one array of 4-byte point ids; a bucket is a run
of equal keys, found by binary search.  Two label tuples whose keys agree share a run; that can only
add candidates, and distance verification checks every candidate, so
correctness does not depend on the key, only bucket sizes do.

Labels are exact only while |scale * <w, x>| < 2^53, the range in which a
double holds every integer, so build and query reject inputs beyond it and
non-finite inputs.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .exact import lp_distances
from .families import (
    PROVEN_ADJACENCY_KINDS,
    FamilyKind,
    HashFunction,
    c_threshold,
    false_positive_bound,
    hash_scale,
    sample_vector,
)
from .lpspace import check_exponent
from .streams import derive_seed

LN3 = math.log(3.0)

#: Default cap on stored (key, id) entries; fast_query replication
#: multiplies n by 3^L, so the cap is what a build may cost in memory.
DEFAULT_MAX_ENTRIES = 10_000_000

_CHUNK_ENTRIES = 1 << 20

_MIX_MULT_1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_MULT_2 = np.uint64(0xC4CEB9FE1A85EC53)

#: Doubles hold every integer below 2^53, so floored labels are exact there.
_EXACT_LABEL_LIMIT = 2.0**53

#: Ids are int32, so an index holds fewer than 2^31 points.
_MAX_POINTS = 2**31

_FILE_MAGIC = b"FLSHIDX5"
_FILE_VERSION = 5
#: Earlier formats, recognised only to ask for a rebuild: FLSHIDX1 stored
#: two key lanes, FLSHIDX2 keys folded over key prefixes, FLSHIDX3 whole
#: keys and 8-byte ids, FLSHIDX4 one self-describing record per level.
_RETIRED_MAGICS = (b"FLSHIDX1", b"FLSHIDX2", b"FLSHIDX3", b"FLSHIDX4")
_HEADER = struct.Struct("<8sHQ32s")
#: p tag, p, family tag, variant tag, d, c, L, master seed, unsafe flag,
#: max_entries, n, entries, unique buckets; the padding ends header and
#: block on a multiple of 8, so the arrays after them start aligned.
_BLOCK = struct.Struct("<BdBBIdIQBQQQQ2x")


class Variant(str, Enum):
    FAST_QUERY = "fast_query"
    FAST_PREPROCESSING = "fast_preprocessing"


_KIND_TAGS = {
    FamilyKind.RADEMACHER: 0,
    FamilyKind.UNIFORM_CUBE: 1,
    FamilyKind.UNIT_SPHERE: 2,
    FamilyKind.LQ_SPHERE_EXPERIMENTAL: 3,
}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}
_VARIANT_TAGS = {Variant.FAST_QUERY: 0, Variant.FAST_PREPROCESSING: 1}
_TAG_VARIANTS = {tag: variant for variant, tag in _VARIANT_TAGS.items()}

_NEIGHBOURHOOD = np.array([-1, 0, 1], dtype=np.int64)
_OWN_LABEL = np.zeros(1, dtype=np.int64)
#: Per-level label offsets of each variant, as (stored, probed): one side
#: folds the 3-label neighbourhood of every level, the other its own label.
_OFFSETS = {
    Variant.FAST_QUERY: (_NEIGHBOURHOOD, _OWN_LABEL),
    Variant.FAST_PREPROCESSING: (_OWN_LABEL, _NEIGHBOURHOOD),
}


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
        levels: label length L, or None to pick it from the theoretical
            false-positive bound.
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
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not self.c >= 1.0:
            raise ValueError(f"approximation factor must be >= 1, got {self.c}")
        if self.levels is not None and self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")
        if self.max_entries < 1:
            raise ValueError("max_entries must be positive")
        threshold = self.c_threshold
        if self.c <= threshold and not self.unsafe_override:
            raise ValueError(
                f"approximation factor c={self.c} is at or below the "
                f"{self.kind.value} threshold {threshold}; the false-positive "
                "bound would be vacuous (set unsafe_override to force)"
            )

    @property
    def c_threshold(self) -> float:
        """Family threshold on c for this (kind, p, d)."""
        return c_threshold(self.kind, self.p, self.d)

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
    Rounding up keeps replication from lagging the data size, so candidate
    scanning stays sublinear across growing n; the cost of the ceiling over
    the exact integer minimizer is at most one extra level.

    Raises when fp_bound >= 1: no level count can thin out far points.
    """
    variant = Variant(variant)
    if n < 1:
        raise ValueError(f"point count must be >= 1, got {n}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if not 0.0 < fp_bound < 1.0:
        raise ValueError(
            f"per-level false-positive bound must be in (0, 1) to derive a "
            f"level count, got {fp_bound}"
        )
    a = -math.log(fp_bound)
    if variant is Variant.FAST_QUERY:
        if n <= d:
            return 1
        return max(1, math.ceil(math.log(n / d) / a))
    target = n * a / LN3
    if target <= 1.0:
        return 1
    return max(1, math.ceil(math.log(target) / (a + LN3)))


@dataclass(frozen=True)
class BuildStats:
    """Figures of one build.  ``seconds`` is the build's wall-clock time; an
    image does not record it, so images are reproducible byte for byte, and
    a loaded index reports ``seconds == 0.0``."""

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


def _exact_labels(inputs: np.ndarray, scaled: np.ndarray, what: str) -> np.ndarray:
    """floor(scaled) as int64, after checking that it is exact."""
    # a non-finite coordinate always makes a product non-finite, so it is
    # only looked for once the range check fails
    if not (np.abs(scaled) < _EXACT_LABEL_LIMIT).all():
        if not np.isfinite(inputs).all():
            raise ValueError(f"{what} must have finite coordinates")
        raise ValueError(
            f"{what} reach |scale*<w,x>| >= 2^53, beyond which labels are not "
            "exact integers"
        )
    return np.floor(scaled).astype(np.int64)


def _bucket_count(sorted_keys: np.ndarray) -> int:
    """Distinct keys in a nonempty sorted key array."""
    return int(np.count_nonzero(sorted_keys[1:] != sorted_keys[:-1])) + 1


def _tag_mask(entries: int) -> np.uint64:
    """The low b = bit_length(entries - 1) bits, which a bucket key leaves
    out so that the build can tag each key with its entry's position."""
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

    def fold(self, labels: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """labels: (m, L) int64 -> (m, k^L) uint64 keys of the label tuples
        ``t = labels + o`` for every o in offsets^L (k offsets), o in
        lexicographic order.

        key(t) is the XOR over levels l of mix64((t_l * mult_l) ^ init), so a
        row costs L * k mixes; each level value is a bijection of its label,
        so tuples that differ in one level never share a key.
        """
        m = labels.shape[0]
        # values[r, i, j]: level i of row r's label moved by offsets[j], times
        # that level's multiplier
        values = (labels[:, :, None] + offsets).astype(np.uint64) * self.mults[:, None]
        mixed = _mix64(values ^ self.init)
        keys = mixed[:, 0]
        for level in range(1, mixed.shape[1]):
            keys = (keys[:, :, None] ^ mixed[:, level, None, :]).reshape(m, -1)
        return keys


class LshIndex:
    """The no-false-negative index; construct through :meth:`build`."""

    def __init__(
        self,
        config: IndexConfig,
        hash_functions: list[HashFunction],
        points: np.ndarray,
        entry_keys: np.ndarray,
        entry_ids: np.ndarray,
        stats: BuildStats,
    ) -> None:
        self.config = config
        self.hash_functions = hash_functions
        self.points = points
        self.stats = stats
        self._entry_keys = entry_keys
        self._entry_ids = entry_ids
        self._w_matrix = np.vstack([h.w for h in hash_functions])
        self._scale = hash_scale(config.kind, config.p, config.d)
        self._fingerprinter = _Fingerprinter(config.master_seed, config.levels)
        self._key_mask = ~_tag_mask(entry_ids.size)
        _, self._probe_offsets = _OFFSETS[config.variant]

    @property
    def levels(self) -> int:
        """Label length L, as resolved by the build."""
        return self.config.levels

    @property
    def entry_count(self) -> int:
        """Stored (key, id) entries: n * 3^L for fast_query, n for
        fast_preprocessing."""
        return int(self._entry_ids.size)

    @property
    def unique_bucket_count(self) -> int:
        return self.stats.unique_buckets

    @classmethod
    def build(cls, points: np.ndarray, config: IndexConfig) -> "LshIndex":
        """Hash the dataset and lay out the sorted entry arrays.

        Deterministic in (points, config): per-level hash seeds derive from
        the master seed by counter, entries are sorted canonically by
        (key, id), so identical inputs give identical indexes regardless of
        how the work would be split.  Each key's low bits, which buckets
        leave out, hold its entry's position while one in-place sort orders
        the entries by (key, position), that is by (key, id).
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
        offsets, _ = _OFFSETS[config.variant]
        replication = offsets.size**levels
        total_entries = n * replication
        if total_entries > config.max_entries:
            raise ValueError(
                f"build would store {total_entries} entries "
                f"({n} points * {replication} replication), above the "
                f"max_entries guard of {config.max_entries}; lower the level "
                "count, switch to fast_preprocessing, or raise the guard"
            )
        hash_functions = [
            sample_vector(config.kind, config.p, d, derive_seed(config.master_seed, i))
            for i in range(levels)
        ]
        w_matrix = np.vstack([h.w for h in hash_functions])
        scale = hash_scale(config.kind, config.p, d)
        labels = _exact_labels(points, scale * (points @ w_matrix.T), "points")
        fingerprinter = _Fingerprinter(config.master_seed, levels)
        tags = _tag_mask(total_entries)
        keys = np.empty(total_entries, dtype=np.uint64)
        chunk = max(1, _CHUNK_ENTRIES // replication)
        for start in range(0, n, chunk):
            block = fingerprinter.fold(labels[start : start + chunk], offsets).ravel()
            first = start * replication
            part = keys[first : first + block.size]
            np.bitwise_and(block, ~tags, out=part)
            part |= np.arange(first, first + part.size, dtype=np.uint64)
        keys.sort()
        # an entry's id is its position // replication
        ids = np.empty(total_entries, dtype=np.int32)
        for start in range(0, total_entries, _CHUNK_ENTRIES):
            stop = start + _CHUNK_ENTRIES
            ids[start:stop] = (keys[start:stop] & tags) // replication
        keys &= ~tags
        stats = BuildStats(
            seconds=time.perf_counter() - started,
            entries=total_entries,
            unique_buckets=_bucket_count(keys),
            approx_bytes=_approx_bytes(points, w_matrix, keys, ids),
        )
        resolved = replace(config, levels=levels)
        return cls(resolved, hash_functions, points, keys, ids, stats)

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

        Labels, folds and bucket lookups run over the whole batch at once;
        candidates are then verified query by query.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.config.d:
            raise ValueError(
                f"queries have shape {queries.shape}, expected (m, {self.config.d})"
            )
        # one matrix-vector product per query: a matrix product may round
        # differently, and a query's labels must not depend on its batch
        products = np.array([self._w_matrix @ query for query in queries])
        labels = _exact_labels(
            queries, self._scale * products.reshape(len(queries), self.levels), "queries"
        )
        width = self._probe_offsets.size**self.levels
        chunk = max(1, _CHUNK_ENTRIES // width)
        results = []
        for start in range(0, len(queries), chunk):
            stop = start + chunk
            pulled, bounds = self._lookup(labels[start:stop])
            for i, query in enumerate(queries[start:stop]):
                results.append(self._verify(query, pulled[bounds[i] : bounds[i + 1]], width))
        return results

    def _lookup(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ids stored under the probe keys of each label row, row after row,
        and the bounds of each row's run in them."""
        entry_keys = self._entry_keys
        probes = self._fingerprinter.fold(labels, self._probe_offsets)
        probes &= self._key_mask
        width = probes.shape[1]
        # sorted probes let each binary search start from the one before
        probes.sort(axis=1)
        probes = probes.ravel()
        first = np.searchsorted(entry_keys, probes)
        hits = np.flatnonzero(entry_keys[np.minimum(first, entry_keys.size - 1)] == probes)
        starts = first[hits]
        counts = np.searchsorted(entry_keys, probes[hits], side="right") - starts
        ends = np.cumsum(counts)
        gather = np.arange(counts.sum()) + np.repeat(starts - ends + counts, counts)
        row_hits = np.searchsorted(hits, np.arange(len(labels) + 1) * width)
        bounds = np.concatenate(([0], ends))[row_hits]
        return self._entry_ids[gather], bounds

    def _verify(self, query: np.ndarray, pulled: np.ndarray, width: int) -> QueryResult:
        candidates = np.unique(pulled)
        stats = QueryStats(
            buckets_probed=width,
            candidates_scanned=int(pulled.size),
            distance_evals=int(candidates.size),
            duplicates_suppressed=int(pulled.size - candidates.size),
        )
        distances = lp_distances(self.points[candidates], query, self.config.p)
        keep = distances <= self.config.c
        ids, distances = candidates[keep], distances[keep]
        # candidates ascend by id, so a stable sort orders by (distance, id)
        order = np.argsort(distances, kind="stable")
        neighbors = list(zip(ids[order].tolist(), distances[order].tolist()))
        return QueryResult(neighbors=neighbors, stats=stats)

    # -- serialization ------------------------------------------------------

    def _image(self) -> list:
        """The image as buffers: the header, then the payload sections."""
        config = self.config
        p_tag = 1 if math.isinf(config.p) else 0
        sections = [
            _BLOCK.pack(
                p_tag,
                0.0 if p_tag else float(config.p),
                _KIND_TAGS[config.kind],
                _VARIANT_TAGS[config.variant],
                config.d,
                config.c,
                self.levels,
                config.master_seed,
                1 if config.unsafe_override else 0,
                config.max_entries,
                len(self.points),
                self.entry_count,
                self.stats.unique_buckets,
            ),
            np.ascontiguousarray(self.points, dtype="<f8"),
            self._w_matrix.astype("<f8", copy=False),
            self._entry_keys.astype("<u8", copy=False),
            self._entry_ids.astype("<i4", copy=False),
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
        """Rebuild an index from :meth:`to_bytes` output, verifying length,
        checksum, point count, entry count, ids and key order; the rebuilt
        index answers queries identically.  Hash seeds and scales come from
        the config as :meth:`build` derives them; the vectors are read back.

        The entry arrays stay read-only views of ``blob``: nothing is copied
        or rebuilt, so ``blob`` must not change while the index lives.
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
            entries,
            unique_buckets,
        ) = _BLOCK.unpack_from(payload, 0)
        if kind_tag not in _TAG_KINDS:
            raise ValueError(f"index image has unknown family tag {kind_tag}")
        if variant_tag not in _TAG_VARIANTS:
            raise ValueError(f"index image has unknown variant tag {variant_tag}")
        config = IndexConfig(
            p=math.inf if p_tag else p_value,
            d=d,
            c=c,
            kind=_TAG_KINDS[kind_tag],
            variant=_TAG_VARIANTS[variant_tag],
            levels=levels,
            master_seed=master_seed,
            unsafe_override=bool(unsafe),
            max_entries=max_entries,
        )
        if _BLOCK.size + 8 * (n + levels) * d + 12 * entries != payload.nbytes:
            raise ValueError("index image has trailing or missing bytes")
        if n == 0:
            raise ValueError("index image holds no points")
        offsets, _ = _OFFSETS[config.variant]
        if entries != n * offsets.size**levels:
            raise ValueError(
                f"index image has {entries} entries, but {n} points take "
                f"{n * offsets.size**levels} in {config.variant.value} at L={levels}"
            )
        cursor = _BLOCK.size
        points = np.frombuffer(payload, "<f8", n * d, cursor).astype(np.float64)
        points = points.reshape(n, d)
        cursor += points.nbytes
        w_matrix = np.frombuffer(payload, "<f8", levels * d, cursor).astype(np.float64)
        w_matrix = w_matrix.reshape(levels, d)
        w_matrix.flags.writeable = False
        cursor += w_matrix.nbytes
        keys = _entry_view(payload, "<u8", entries, cursor)
        ids = _entry_view(payload, "<i4", entries, cursor + keys.nbytes)
        if ids.min() < 0 or ids.max() >= n:
            raise ValueError(f"index image has point ids outside [0, {n})")
        # _lookup's binary search silently misses entries of unsorted keys;
        # windows overlap by one key so every adjacent pair is compared
        for start in range(0, entries, _CHUNK_ENTRIES):
            window = keys[start : start + _CHUNK_ENTRIES + 1]
            if not (window[1:] >= window[:-1]).all():
                raise ValueError("index image has entry keys out of ascending order")
        scale = hash_scale(config.kind, config.p, d)
        hash_functions = [
            HashFunction(config.kind, config.p, d, derive_seed(master_seed, i), w, scale)
            for i, w in enumerate(w_matrix)
        ]
        stats = BuildStats(
            0.0, entries, unique_buckets, _approx_bytes(points, w_matrix, keys, ids)
        )
        return cls(config, hash_functions, points, keys, ids, stats)

    def save(self, path: str | Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            for part in self._image():
                handle.write(part)

    @classmethod
    def load(cls, path: str | Path) -> "LshIndex":
        return cls.from_bytes(Path(path).read_bytes())


def _approx_bytes(*arrays: np.ndarray) -> int:
    """Memory an index holds in its points, hash vectors, keys and ids."""
    return sum(array.nbytes for array in arrays)


def _entry_view(payload: memoryview, dtype: str, count: int, offset: int) -> np.ndarray:
    view = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
    # a misaligned view would make every searchsorted copy the whole array
    return view if view.flags.aligned else view.copy()
