"""Anti-concentration of random projections, measured against the bounds.

Three checks, increasing in sharpness:

1. Uniform-cube projections: P(|<w, x>| < alpha) <= 2*sqrt(3)*alpha for
   unit points, at any dimension.
2. Unit-sphere projections at d=2 follow the arcsine law exactly, so the
   empirical curve can be compared to a closed form, not just a bound.
3. The spherical band measure cap_probability(alpha, d) <= alpha*sqrt(d),
   evaluated analytically through the incomplete beta function.
"""

import math

import numpy as np

from floorlsh.estimation import small_ball_curve
from floorlsh.families import SQRT3, FamilyKind
from floorlsh.lpspace import cap_probability

TRIALS, SEED = 50_000, 7
ALPHAS = [0.05, 0.1, 0.25, 0.5]

print("1. uniform cube, flat unit point, d = 16")
print(f"{'alpha':>8}{'p_hat':>10}{'ci_high':>10}{'bound':>10}")
x = np.full(16, 0.25)
for est in small_ball_curve(FamilyKind.UNIFORM_CUBE, 16, x, ALPHAS, TRIALS, SEED):
    print(f"{est.alpha:>8.2f}{est.p_hat:>10.4f}{est.ci_high:>10.4f}{est.bound:>10.4f}")
    assert not est.violated

print("\n2. unit sphere at d = 2: the arcsine law")
print(f"{'alpha':>8}{'p_hat':>10}{'exact':>10}{'bound':>10}")
x2 = np.array([1.0, 0.0])
for est in small_ball_curve(FamilyKind.UNIT_SPHERE, 2, x2, ALPHAS, TRIALS, SEED):
    exact = (2.0 / math.pi) * math.asin(est.alpha)
    print(f"{est.alpha:>8.2f}{est.p_hat:>10.4f}{exact:>10.4f}{est.bound:>10.4f}")
    assert abs(est.p_hat - exact) < 0.02

print("\n3. cap probability vs alpha*sqrt(d), no sampling")
print(f"{'d':>6}{'worst ratio':>14}")
for d in (2, 8, 64, 1024):
    ratios = [
        cap_probability(a, d) / (a * math.sqrt(d))
        for a in np.linspace(0.01, 1.0, 100)
    ]
    print(f"{d:>6}{max(ratios):>14.6f}")
    assert max(ratios) <= 1.0 + 1e-12

print(f"\nthe cube bound constant 2*sqrt(3) = {2 * SQRT3:.4f} is loose by ~2.5x;")
print("the sphere bound is nearly tight (worst ratio -> 2/(B*sqrt(d)) < 1)")
