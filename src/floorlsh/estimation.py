"""Monte Carlo verification of the anti-concentration and collision bounds.

Every estimator here is deterministic given (seed, trials): one streamed
pass of :func:`floorlsh.families.pool_counts` draws the vectors of
:func:`floorlsh.families.sample_pool` chunk by chunk, projects them and
counts each block's hits before the next block is drawn, so no estimator
holds its pool or its products, whatever ``trials`` is.  Estimates over a
grid of thresholds share that pass (coupled sampling), which makes
empirical curves exactly monotone in the threshold and makes the exact
collision event a pointwise subset of its dominating event.

Uncertainty is reported as exact two-sided 99% Clopper-Pearson intervals,
whose ``scipy.special`` quantiles are imported on the first interval, not
with the module; a theoretical bound is *violated* only when the lower
confidence limit clears it, never on the point estimate alone.  The bounds
themselves are the family laws of :mod:`floorlsh.families`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .families import (
    FamilyKind,
    false_positive_bound,
    hash_scale,
    lp_sphere_block,
    pool_counts,
    small_ball_bound,
)
from .lpspace import check_dimension, check_exponent, dual_exponent, lp_norm
from .streams import stream

#: Stream indexes reserved for auxiliary draws so they never collide with
#: the block indexes used by sample_pool on the same seed.
_AUX_STREAM_BASE = 1 << 32


def clopper_pearson(hits: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval.

    Args:
        hits: observed successes, 0 <= hits <= trials.
        trials: number of Bernoulli trials, >= 1.
        confidence: coverage level in (0, 1); defaults to 99%.

    Returns:
        (ci_low, ci_high) with ci_low <= hits/trials <= ci_high.
    """
    from scipy.special import betaincinv  # loaded on first use: the index never needs it

    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= hits <= trials:
        raise ValueError(f"hits must be in [0, {trials}], got {hits}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    tail = (1.0 - confidence) / 2.0
    lo = 0.0 if hits == 0 else float(betaincinv(hits, trials - hits + 1, tail))
    hi = 1.0 if hits == trials else float(betaincinv(hits + 1, trials - hits, 1.0 - tail))
    return lo, hi


class _BoundVerdict:
    """The verdict of an estimate that has a ``bound`` and a ``ci_low``."""

    @property
    def vacuous(self) -> bool:
        """True when no bound applies or the bound exceeds 1."""
        return self.bound is None or self.bound > 1.0

    @property
    def violated(self) -> bool:
        """True when the lower confidence limit clears a non-vacuous bound."""
        return not self.vacuous and self.ci_low > self.bound


@dataclass(frozen=True)
class AntiConcEstimate(_BoundVerdict):
    """Empirical small-ball probability P(|<w, x>| < alpha) for one cell."""

    kind: FamilyKind
    d: int
    alpha: float
    trials: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float
    bound: float | None


def small_ball_curve(
    kind: FamilyKind,
    d: int,
    x: np.ndarray,
    alphas: Sequence[float],
    trials: int,
    seed: int,
    q: float | None = None,
) -> list[AntiConcEstimate]:
    """Estimate P(|<w, x>| < alpha) on a grid of alphas from one pass.

    All alphas share the same ``trials`` draws of w, so the empirical curve
    is exactly nondecreasing in alpha.
    """
    kind = FamilyKind(kind)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != d:
        raise ValueError(f"x must be a vector of dimension {d}")
    if not np.isfinite(x).all():
        raise ValueError("x must have finite coordinates")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    alphas = [float(a) for a in alphas]
    if not all(a >= 0.0 for a in alphas):
        raise ValueError("alpha thresholds must be nonnegative")
    norm2 = lp_norm(x, 2.0)
    if norm2 == 0.0:
        raise ValueError("small-ball estimation requires a nonzero point")

    def count_below(products):
        return np.count_nonzero(np.abs(products) < np.array(alphas)[:, None], axis=1)

    counts = pool_counts(kind, d, trials, seed, x[None, :], count_below, q=q).tolist()
    estimates = []
    for alpha, hits in zip(alphas, counts):
        ci_low, ci_high = clopper_pearson(hits, trials)
        estimates.append(
            AntiConcEstimate(
                kind=kind,
                d=d,
                alpha=alpha,
                trials=trials,
                hits=hits,
                p_hat=hits / trials,
                ci_low=ci_low,
                ci_high=ci_high,
                bound=small_ball_bound(kind, alpha, d, norm2),
            )
        )
    return estimates


def levy_concentration(samples: np.ndarray, lam: float) -> float:
    """Largest fraction of samples inside any closed window of length lam.

    Computed by a sweep over sorted samples: for each left endpoint, count
    how many samples land in [s, s + lam], and take the maximum.  At
    lam = 0 this is the largest point mass.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ValueError("concentration of an empty sample is undefined")
    if not lam >= 0.0:
        raise ValueError(f"window length must be nonnegative, got {lam}")
    ordered = np.sort(samples)
    right = np.searchsorted(ordered, ordered + lam, side="right")
    counts = right - np.arange(ordered.size)
    return float(counts.max()) / ordered.size


def theoretical_q_bound(variances: Iterable[float], lam: float) -> float:
    """Concentration bound lam / sqrt(sum(variances) + lam^2 / 12).

    Valid for sums of independent symmetric unimodal terms with the given
    variances.  The value can exceed 1; callers clamp when they need a
    probability.
    """
    total = 0.0
    for v in variances:
        v = float(v)
        if not v >= 0.0:
            raise ValueError(f"variances must be nonnegative, got {v}")
        total += v
    if not lam >= 0.0:
        raise ValueError(f"window length must be nonnegative, got {lam}")
    if lam == 0.0:
        return 0.0
    return lam / math.sqrt(total + lam * lam / 12.0)


class FarPairShape(str, Enum):
    """Direction profile of a constructed far pair."""

    AXIS = "axis"
    FLAT = "flat"
    TWO_COORDINATE = "two_coordinate"


def unit_direction(shape: FarPairShape, p: float, d: int) -> np.ndarray:
    """Unit-l_p vector along a shape profile: first axis, the diagonal, or
    the first two axes equally."""
    shape = FarPairShape(shape)
    p = check_exponent(p)
    check_dimension(d)
    if shape is FarPairShape.AXIS:
        z = np.zeros(d)
        z[0] = 1.0
        return z
    if shape is FarPairShape.FLAT:
        z = np.ones(d)
    else:
        if d < 2:
            raise ValueError("two-coordinate shape requires d >= 2")
        z = np.zeros(d)
        z[0] = z[1] = 1.0
    return z / lp_norm(z, p)


def far_pair(
    shape: FarPairShape, p: float, d: int, norm: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Construct (x, y) with ||x - y||_p equal to ``norm``.

    The difference points along the requested shape profile; the pair sits
    at a seed-derived Gaussian base point so the hash arguments are not
    centered on the origin.
    """
    p = check_exponent(p)
    if not norm > 0.0:
        raise ValueError(f"pair separation must be positive, got {norm}")
    z = unit_direction(shape, p, d) * norm
    base = stream(seed, _AUX_STREAM_BASE).standard_normal(d)
    return base + z, base


@dataclass(frozen=True)
class FalsePositiveEstimate(_BoundVerdict):
    """Empirical far-pair collision rate for one family and factor c.

    ``p_fp_hat`` estimates the exact event |h(x) - h(y)| <= 1; the
    ``dominating`` fields estimate the wider event |scale * <w, x - y>| <= 2
    that the theory actually bounds.  With coupled sampling the exact event
    never fires without the dominating one.
    """

    kind: FamilyKind
    p: float
    d: int
    c: float
    trials: int
    hits: int
    p_fp_hat: float
    ci_low: float
    ci_high: float
    dominating_hits: int
    dominating_p_hat: float
    bound: float | None
    pair_distance: float


def estimate_false_positive_rate(
    kind: FamilyKind,
    p: float,
    d: int,
    c: float,
    trials: int,
    seed: int,
    shape: FarPairShape = FarPairShape.TWO_COORDINATE,
    pair: tuple[np.ndarray, np.ndarray] | None = None,
) -> FalsePositiveEstimate:
    """Estimate the collision probability of a far pair under one family.

    Args:
        kind: hash family.
        p: norm exponent of the hash scale and the pair distance.
        c: approximation factor; the constructed pair is strictly farther
            than c.  If c is at or below the family threshold the estimate
            is still produced but its bound is flagged vacuous (and a
            warning is emitted).
        shape: far-pair direction profile, used when ``pair`` is None.
        pair: explicit (x, y) overriding the generated pair, which is
            otherwise separated by c * (1 + 1e-9), just beyond the far
            threshold.

    Returns:
        A :class:`FalsePositiveEstimate` with exact and dominating rates.
    """
    kind = FamilyKind(kind)
    p = check_exponent(p)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not c > 0.0:
        raise ValueError(f"approximation factor must be positive, got {c}")
    if pair is None:
        x, y = far_pair(shape, p, d, c * (1.0 + 1e-9), seed)
    else:
        x = np.asarray(pair[0], dtype=np.float64)
        y = np.asarray(pair[1], dtype=np.float64)
        if x.shape != (d,) or y.shape != (d,):
            raise ValueError(
                f"pair must hold two points of dimension {d}, got shapes {x.shape} and {y.shape}"
            )
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("pair must have finite coordinates")
    distance = lp_norm(x - y, p)
    if not distance > c:
        raise ValueError(
            f"far-pair contract requires ||x - y||_p > c, got {distance} <= {c}"
        )
    bound, threshold = false_positive_bound(kind, p, d, c)
    if threshold is not None and c <= threshold:
        warnings.warn(
            f"approximation factor c={c} is at or below the {kind.value} "
            f"threshold {threshold}; the false-positive bound is vacuous",
            stacklevel=2,
        )
    scale = hash_scale(kind, p, d)

    def count_hits(products):
        s_x, s_y = scale * products
        exact = np.abs(np.floor(s_x) - np.floor(s_y)) <= 1.0
        return np.count_nonzero([exact, np.abs(s_x - s_y) <= 2.0], axis=1)

    hits, dom_hits = pool_counts(kind, d, trials, seed, np.stack([x, y]), count_hits).tolist()
    ci_low, ci_high = clopper_pearson(hits, trials)
    return FalsePositiveEstimate(
        kind=kind,
        p=p,
        d=d,
        c=c,
        trials=trials,
        hits=hits,
        p_fp_hat=hits / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        dominating_hits=dom_hits,
        dominating_p_hat=dom_hits / trials,
        bound=bound,
        pair_distance=distance,
    )


@dataclass(frozen=True)
class ConjectureRow:
    """One grid point of the experimental-family small-ball tabulation."""

    q: float
    d: int
    epsilon: float
    trials: int
    hits: int
    p_hat: float
    ratio: float


def conjecture_probe(
    q: float,
    d: int,
    epsilons: Sequence[float],
    trials: int,
    seed: int,
) -> list[ConjectureRow]:
    """Tabulate P(|<w, x>| < eps) for the experimental floor family at
    exponent q.

    This is :func:`small_ball_curve` of the experimental family: the random
    vectors w follow the cone measure on the dual sphere (||w||_s = 1 with
    1/q + 1/s = 1) and the fixed point x is drawn once, from its own
    substream, from the cone measure on the unit l_q sphere.  Each row
    reports the ratio of the empirical probability to eps * sqrt(d); the
    open question under probe is whether this ratio stays bounded for q in
    [1, 2].  No pass or fail judgment is made.

    At q = 2 both spheres are Euclidean, so the tabulation reproduces the
    proven spherical cap estimates; at q = 1 the dual sphere is the
    normalized cube, whose normalization factor approaches 1 for large d,
    so the ratios approach the uniform-cube family's.
    """
    q = check_exponent(q)
    x = lp_sphere_block(stream(seed, _AUX_STREAM_BASE + 1), d, q, 1)[0]
    curve = small_ball_curve(
        FamilyKind.LQ_SPHERE_EXPERIMENTAL, d, x, epsilons, trials, seed, q=dual_exponent(q)
    )
    sqrt_d = math.sqrt(d)
    return [
        ConjectureRow(
            q=q,
            d=d,
            epsilon=est.alpha,
            trials=trials,
            hits=est.hits,
            p_hat=est.p_hat,
            ratio=est.p_hat / (est.alpha * sqrt_d) if est.alpha > 0.0 else 0.0,
        )
        for est in curve
    ]


# ---------------------------------------------------------------------------
# result emission

#: Fixed column order shared by the CSV and JSON emitters.
BOUND_COLUMNS = (
    "kind",
    "p",
    "d",
    "alpha_or_c",
    "trials",
    "hits",
    "p_hat",
    "ci_low",
    "ci_high",
    "bound",
    "vacuous",
)

CONJECTURE_COLUMNS = ("q", "d", "epsilon", "trials", "hits", "p_hat", "ratio")

LEVY_COLUMNS = ("d", "lam", "trials", "q_hat", "bound", "sigma")


def _bound_record(estimate, p: float | None, alpha_or_c: float, p_hat: float) -> dict:
    """An estimate as a row of :data:`BOUND_COLUMNS`, given the three values
    in which the small-ball and false-positive rows differ."""
    values = (
        estimate.kind.value, p, estimate.d, alpha_or_c, estimate.trials, estimate.hits,
        p_hat, estimate.ci_low, estimate.ci_high, estimate.bound, estimate.vacuous,
    )
    return dict(zip(BOUND_COLUMNS, values, strict=True))


def small_ball_record(estimate: AntiConcEstimate) -> dict:
    """Flatten a small-ball estimate into the shared bound-row schema."""
    return _bound_record(estimate, None, estimate.alpha, estimate.p_hat)


def false_positive_record(estimate: FalsePositiveEstimate) -> dict:
    """Flatten a false-positive estimate into the shared bound-row schema."""
    return _bound_record(estimate, estimate.p, estimate.c, estimate.p_fp_hat)
