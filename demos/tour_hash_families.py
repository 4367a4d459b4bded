"""A tour of the floored-projection hash families.

Each family hashes a point x to floor(scale * <w, x>) for a random vector
w.  The demo samples one function per family, hashes a few points, and
shows the deterministic adjacency guarantee: moving a point by l_p
distance at most 1 changes its bucket id by at most 1 over the reals, and
in doubles x's label always lies in y's label range, the labels within
the vector's reach of y widened by a proven rounding margin.
"""

import numpy as np

from floorlsh.families import (
    PROVEN_ADJACENCY_KINDS,
    FamilyKind,
    adjacency_certificate,
    c_threshold,
    hash_scale,
    label_ranges,
    reach_bound,
    sample_vector,
)

P, D, SEED = 2.0, 8, 42

rng = np.random.default_rng(SEED)
x = rng.standard_normal(D) * 3.0
step = rng.standard_normal(D)
step *= 0.999 / np.sqrt(step @ step)
y = x + step

print(f"p={P}, d={D}, ||x - y||_2 = {np.sqrt(step @ step):.3f}\n")
header = f"{'family':<24}{'scale':>10}{'threshold':>12}{'h(x)':>8}{'h(y)':>8}{'range(y)':>12}"
print(header)
print("-" * len(header))
for kind in FamilyKind:
    if kind not in PROVEN_ADJACENCY_KINDS:
        continue
    h = sample_vector(kind, P, D, SEED)
    w = h.w[None, :]
    labels, _ = label_ranges(w, h.scale, np.vstack([x, y]))
    hx, hy = labels[:, 0]
    (lo,), (count,) = label_ranges(w, h.scale, y[None, :], reach_bound(w, h.scale, P))
    print(
        f"{kind.value:<24}"
        f"{hash_scale(kind, P, D):>10.4f}"
        f"{c_threshold(kind, P, D):>12.4f}"
        f"{hx:>8}{hy:>8}"
        f"{f'{lo[0]}..{lo[0] + count[0] - 1}':>12}"
    )
    assert adjacency_certificate(h, x, y)

print("\nevery family kept h(x) within the range of y for the unit-distance pair")
print("(the certificate holds in doubles for every draw of w, not just this one)")
