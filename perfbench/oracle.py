"""Reference answers that the benchmark checks floorlsh against.

Nothing here imports floorlsh: distances, the exact small-ball law of the
sphere family and the percentile rule are computed from numpy and scipy
alone, so a fault in the library cannot hide in its own yardstick.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, betaincinv

#: A small-ball estimate must lie within this many standard errors of the
#: exact Beta law.  A miss at 5 standard errors has probability ~6e-7, so
#: the check stays quiet over thousands of seeded cells yet catches a
#: sampler that is off by a few percent at 200,000 trials.
LAW_TOLERANCE_SE = 5.0

#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Queries compared against all points at once in ids_within.
CHUNK = 16


def lp_distances(points: np.ndarray, query: np.ndarray, p: float) -> np.ndarray:
    """l_p distance from each row of ``points`` to ``query``."""
    diff = np.abs(np.asarray(points, dtype=np.float64) - np.asarray(query, dtype=np.float64))
    if math.isinf(p):
        return diff.max(axis=-1)
    if p == 1.0:
        return diff.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((diff * diff).sum(axis=-1))
    return (diff**p).sum(axis=-1) ** (1.0 / p)


def ids_within(
    points: np.ndarray, queries: np.ndarray, radius: float, p: float
) -> list[np.ndarray]:
    """For each query row, the ascending ids of points within ``radius``."""
    out = []
    for start in range(0, len(queries), CHUNK):
        block = queries[start : start + CHUNK]
        distances = lp_distances(points[None, :, :], block[:, None, :], p)
        out.extend(np.flatnonzero(row <= radius) for row in distances)
    return out


def sphere_small_ball(alpha: float, d: int, x_norm2: float) -> float:
    """P(|<w, x>| < alpha) for w uniform on the unit sphere of R^d.

    <w, x/||x||_2>^2 follows Beta(1/2, (d-1)/2), so the probability is the
    regularized incomplete beta function at (alpha / ||x||_2)^2.
    """
    if d < 2:
        raise ValueError("the Beta law needs d >= 2")
    t = min(1.0, (alpha / x_norm2) ** 2)
    return float(betainc(0.5, (d - 1) / 2.0, t))


def small_ball_bound(kind: str, alpha: float, d: int, x_norm2: float) -> float:
    """The paper's bound on P(|<w, x>| < alpha): 2*sqrt(3)*alpha/||x||_2 for
    w uniform on the cube (-1, 1)^d, alpha*sqrt(d)/||x||_2 on the sphere."""
    if kind == "uniform_cube":
        return 2.0 * math.sqrt(3.0) * alpha / x_norm2
    if kind == "unit_sphere":
        return alpha * math.sqrt(d) / x_norm2
    raise ValueError(f"no small-ball bound for {kind!r}")


def c_threshold(kind: str, p: float, d: int) -> float:
    """The paper's threshold tau; a pair farther than c collides with
    probability at most tau/c.  Cube: 4*sqrt(3)*d^max(1-1/p, 1/2);
    sphere: 2*d^(1/2+|1/2-1/p|)."""
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    if kind == "uniform_cube":
        return 4.0 * math.sqrt(3.0) * d ** max(1.0 - inv_p, 0.5)
    if kind == "unit_sphere":
        return 2.0 * d ** (0.5 + abs(0.5 - inv_p))
    raise ValueError(f"no threshold for {kind!r}")


def clopper_pearson_low(hits: int, trials: int, confidence: float = 0.99) -> float:
    """Lower end of the exact two-sided binomial interval."""
    if hits == 0:
        return 0.0
    return float(betaincinv(hits, trials - hits + 1, (1.0 - confidence) / 2.0))


def agrees_with_law(hits: int, trials: int, probability: float) -> bool:
    """Whether hits/trials is within LAW_TOLERANCE_SE standard errors of
    the exact probability."""
    if probability in (0.0, 1.0):
        return hits == round(probability * trials)
    standard_error = math.sqrt(probability * (1.0 - probability) / trials)
    return abs(hits / trials - probability) <= LAW_TOLERANCE_SE * standard_error


def percentile_allowed(samples: int, q: float) -> bool:
    """The reporting rule: a percentile needs TAIL_SAMPLES samples beyond
    it (the median always is allowed)."""
    if q == 50.0:
        return samples >= 1
    return samples * (100.0 - q) / 100.0 >= TAIL_SAMPLES - 1e-9


def percentile(values, q: float) -> float:
    """The q-th percentile (linear interpolation), refused when the rule
    does not allow it for this many values."""
    values = np.asarray(values, dtype=np.float64)
    if not percentile_allowed(values.size, q):
        raise ValueError(f"p{q:g} needs more than {values.size} samples")
    return float(np.percentile(values, q))
