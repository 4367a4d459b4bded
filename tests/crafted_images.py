"""Index images crafted to hold what no build could make, for the library
and the command-line tests alike: each load must fail, naming what is
wrong."""

import hashlib
import itertools

import numpy as np

from floorlsh import families
from floorlsh import index as index_module


def image_parts(blob):
    """(fields, points, digest) of an image: the fields of its config block,
    its (n, d) points and its digest of the hash vectors."""
    payload = blob[index_module._HEADER.size :]
    block = index_module._BLOCK
    fields = list(block.unpack_from(payload))
    d, n = fields[4], fields[10]
    points = np.frombuffer(payload, "<f8", n * d, block.size).reshape(n, d)
    return fields, points, bytes(payload[-index_module._DIGEST_SIZE :])


def image(fields, points, digest):
    """A checksummed image of these config block fields, points and vector
    digest, however little they agree."""
    payload = b"".join(
        [index_module._BLOCK.pack(*fields), points.astype("<f8").tobytes(), digest]
    )
    return index_module._HEADER.pack(
        index_module._FILE_MAGIC, index_module._FILE_VERSION, len(payload),
        hashlib.sha256(payload).digest(),
    ) + payload


def restated(blob, version):
    """``blob`` with its header stating format ``version``; the checksum
    covers the payload alone, so it still holds."""
    magic, _, length, digest = index_module._HEADER.unpack_from(blob)
    header = index_module._HEADER.pack(magic, version, length, digest)
    return header + blob[index_module._HEADER.size :]


def retagged(blob, field, tag):
    """``blob`` with its family (``field`` 0) or variant (``field`` 1) tag
    set to ``tag`` and the checksum recomputed, so only the tag is bad."""
    fields, points, digest = image_parts(blob)
    fields[2 + field] = tag
    return image(fields, points, digest)


#: Changes that leave an image checksummed but holding what no build could
#: make, with a pattern of the message its load must fail with.
CONTRADICTIONS = [
    (lambda fields, points, digest: (fields[:-1] + [0], points[:0], digest),
     "holds no points"),
    (lambda fields, points, digest: (fields, points, bytes(32)), "vector digest mismatch"),
    (lambda fields, points, digest: (fields[:7] + [fields[7] ^ 1] + fields[8:], points, digest),
     "vector digest mismatch"),
    (lambda fields, points, digest: (fields[:6] + [2**32 - 1] + fields[7:], points, digest),
     "levels must be in \\[1, 64\\], got 4294967295"),
    (lambda fields, points, digest: (
        fields, np.where(np.eye(*points.shape) > 0, np.nan, points), digest),
     "points must have finite coordinates"),
    (lambda fields, points, digest: (fields, points * 1e300, digest), "points reach .* 2\\^53"),
    (lambda fields, points, digest: (fields[:9] + [1] + fields[10:], points, digest),
     "above the max_entries guard of 1"),
    (lambda fields, points, digest: (fields, points, digest + bytes(8)),
     "trailing or missing bytes"),
]
CONTRADICTION_IDS = ["no-points", "vector-digest", "seed-changed", "levels-max", "points-nan",
                     "points-far", "entry-guard", "trailing-bytes"]


def limit_draws(monkeypatch):
    """Let the index draw at most MAX_LEVELS more hash vectors, so that an
    image whose level count escaped the cap fails at once instead of
    drawing one vector per level it claims."""
    draws = itertools.count(1)

    def sample_vector(*args):
        assert next(draws) <= index_module.MAX_LEVELS, "drew more vectors than an index has"
        return families.sample_vector(*args)

    monkeypatch.setattr(index_module, "sample_vector", sample_vector)


def contradicting(blob, craft):
    """``blob`` rewritten by one of the CONTRADICTIONS' changes."""
    return image(*craft(*image_parts(blob)))
