"""Build, query, audit, and serialize the no-false-negative index.

The dataset has 30 planted pairs at distances up to a hair under 1, so
exact search knows precisely which points every query must return.  The
audit shows recall 1.0 on both storage variants, each point stored or
probed under the labels within its hash vectors' reach, then a serialized
copy answers queries identically.
"""

import numpy as np

from floorlsh.data import planted_pairs_dataset
from floorlsh.exact import recall_report
from floorlsh.families import FamilyKind, c_threshold
from floorlsh.index import IndexConfig, LshIndex, Variant

N, D, P, SEED = 1500, 6, 2.0, 11

points, pairs = planted_pairs_dataset(N, D, P, [0.5, 0.999, 1.0 - 1e-9], 30, SEED)
queries = points[:60]  # the 30 anchors and their 30 partners
c = 2.0 * c_threshold(FamilyKind.UNIFORM_CUBE, P, D)
print(f"{N} points, 30 planted pairs, c = {c:.2f}\n")

for variant in (Variant.FAST_QUERY, Variant.FAST_PREPROCESSING):
    config = IndexConfig(
        p=P, d=D, c=c, kind=FamilyKind.UNIFORM_CUBE,
        variant=variant, levels=4, master_seed=SEED,
    )
    index = LshIndex.build(points, config)
    records = recall_report(index, points, queries)
    worst_recall = min(r.recall for r in records)
    mean_candidates = np.mean([r.candidates_scanned for r in records])
    probes = index.query(queries[0]).stats.buckets_probed
    print(
        f"{variant.value:<20} entries={index.entry_count:>7} "
        f"buckets_probed={probes:>3} mean_candidates={mean_candidates:7.1f} "
        f"recall={worst_recall}"
    )
    assert worst_recall == 1.0
    assert all(r.missing == () for r in records)

reach = ", ".join(f"{r:.2f}" for r in index.reach)
print(f"\nper-level reach of the drawn vectors: {reach}")
print("fast_query stores each point under the labels within reach of it,")
print("about prod(1 + 2 r) of them, and reads one bucket per query;")
print("fast_preprocessing stores once and probes the labels within reach of")
print("the query; both return every neighbor within distance 1\n")

index = LshIndex.build(
    points,
    IndexConfig(
        p=P, d=D, c=c, kind=FamilyKind.UNIFORM_CUBE,
        variant=Variant.FAST_PREPROCESSING, levels=4, master_seed=SEED,
    ),
)
blob = index.to_bytes()
clone = LshIndex.from_bytes(blob)
same = all(clone.query(q) == index.query(q) for q in queries)
print(f"serialized image: {len(blob)} bytes; reloaded answers identical: {same}")
assert same
