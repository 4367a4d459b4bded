"""l_p geometry and the special functions behind the hashing guarantees.

The package's one scalar-product kernel and one l_p distance kernel, the
dual exponent, the norm-comparison constants relating l_p norms to the
Euclidean norm, the rounding bounds of computed norms, and the exact
spherical cap probability, the Beta(1/2, (d-1)/2) law evaluated by
``scipy.special``, live here.  The per-family laws built on them (scales,
thresholds and bounds) live in :mod:`floorlsh.families`.  ``scipy`` is
imported on the first call of a Beta function, not with the module, so
importing the package and running the index commands load none of it.

Exponents are plain floats; ``math.inf`` is the max norm.  Exponent
arithmetic (``1/p``, ``1 - 1/p``) is exact for the anchor values 1, 2 and
infinity because ``1/inf == 0.0`` in IEEE arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

try:  # einsum's C entry point, which np.einsum calls without optimize
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy < 2
    from numpy.core.multiarray import c_einsum as _c_einsum

#: Smallest Euclidean norm whose square is a normal double (2^-511).
SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)
#: Unit roundoff u of doubles: rounding to nearest moves a result by at most
#: u relative to it.
UNIT_ROUNDOFF = 2.0**-53


def check_exponent(p: float) -> float:
    """Validate a norm exponent: a float in [1, inf]. Returns it unchanged."""
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"norm exponent must be in [1, inf], got {p}")
    return p


def check_dimension(d: int, least: int = 1) -> None:
    """Validate a dimension: raise unless d >= ``least``, which NaN fails."""
    if not d >= least:
        raise ValueError(f"dimension must be >= {least}, got {d}")


def scalar_products(subscripts: str, a, b, out: np.ndarray | None = None) -> np.ndarray:
    """The package's one kernel for scalar products and sums of squares:
    ``np.einsum`` on C-contiguous float64 copies of a and b.  einsum never
    calls BLAS and sums in an order set by the operands' length and layout,
    so on C-contiguous rows a product depends only on its two rows and the
    numpy build: not on the CPU's BLAS kernel, the thread count or a batch.
    It calls einsum's C function, the one ``np.einsum`` hands its operands
    to, so it gives the same bits without that wrapper's Python calls."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if out is None:
        return _c_einsum(subscripts, a, b)
    return _c_einsum(subscripts, a, b, out=out)


def lp_distances(points: np.ndarray, query: np.ndarray, p: float) -> np.ndarray:
    """The package's one l_p distance kernel: the distances from every row
    of ``points`` to ``query`` (p = inf the max norm), each summed over its
    row of C-ordered differences, whatever the layout of ``points``.  Every
    distance and norm the package judges by is a call to it; only the
    samplers normalize their draws by their own arithmetic."""
    p = check_exponent(p)
    points = np.asarray(points, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    diff = np.subtract(points, query, order="C")
    if p == 2.0:
        distances = np.sqrt(scalar_products("ij,ij->i", diff, diff))
        # the squares overflow above ~1e154 and underflow below ~1e-154, so
        # rows whose norm is inf, or under 2^-511 while the row is nonzero,
        # are redone rescaled from |diff| and every other row keeps its bits.
        # The gate runs on every verified query, so it uses argmax/argmin,
        # which cost less than reductions.  A stored point queried as itself
        # is one row of zeros, the least: the gate reads that row alone and
        # sends a second row under 2^-511 to the redo, which keeps zero rows
        if distances.size and (
            not distances[distances.argmax()] < math.inf
            or distances[low := distances.argmin()] < SQRT_TINY
            and (np.count_nonzero(diff[low]) or np.count_nonzero(distances < SQRT_TINY) > 1)
        ):
            peak = np.abs(diff, out=diff).max(axis=1)
            redo = (distances == math.inf) & (peak < math.inf)
            redo |= (distances < SQRT_TINY) & (peak > 0.0)
            distances[redo] = _rescaled_norms(diff[redo], p)
        return distances
    np.abs(diff, out=diff)
    if math.isinf(p):
        return diff.max(axis=1)
    if p == 1.0:
        return diff.sum(axis=1)
    return _rescaled_norms(diff, p)


def _rescaled_norms(diff: np.ndarray, p: float) -> np.ndarray:
    """Row l_p norms of the nonnegative ``diff``, each row's largest entry
    factored out to keep |diff|^p in range.  A nonzero finite row's sum is
    at least 1, its peak's term; raising every sum to at least 1 keeps a
    row of zeros at 0 and an infinite row at inf."""
    peak = diff.max(axis=1, keepdims=True, initial=0.0)
    finite = (peak > 0.0) & (peak < math.inf)
    scaled = np.divide(diff, peak, out=np.zeros_like(diff), where=finite)
    return peak[:, 0] * np.fmax((scaled**p).sum(axis=1), 1.0) ** (1.0 / p)


def lp_norm(x: np.ndarray, p: float) -> float:
    """l_p norm of a vector, with p = inf meaning the max norm: its
    :func:`lp_distances` from the origin, so
    ``lp_norm(x - y, p) == lp_distances(x[None], y, p)[0]`` bit for bit.

    Returns 0 exactly when x is the zero vector.  Raises on empty input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("norm of an empty vector is undefined")
    return float(lp_distances(x.reshape(1, -1), 0.0, p)[0])


def rounding_gamma(n: int) -> float:
    """Higham's gamma_n = n*u / (1 - n*u) (*Accuracy and Stability of
    Numerical Algorithms*, ch. 3): n roundings move a product of factors
    (1 + e_i), |e_i| <= u, by at most gamma_n relative, so a computed sum of
    d rounded products is within gamma_d * sum |w_j x_j| of <w, x>, in any
    summation order."""
    nu = n * UNIT_ROUNDOFF
    return nu / (1.0 - nu)


def distance_error(d: int) -> float:
    """A bound delta on the error of the one distance kernel
    :func:`lp_distances`, and so of ``lp_norm``, in R^d, for every p: the
    exact value is at most (1 + delta) times a computed value of at least
    2^-1022, the least normal double, and at most that plus 2^-1074, the
    least subnormal, below it.

    The general-p path rounds the differences, the divisions by the peak,
    the p-th powers (the C library's pow, within 1 ulp), a d-term sum and
    the 1/p-th root with its rounded exponent, whose effect on a sum in
    [1, d] is at most u*ln(d); that adds up to less than (2d + 8) roundings.
    The p = 1, 2 and inf paths round less, and so does the dual exponent
    p/(p - 1), whose rounding changes a norm in R^d by at most u*ln(d).

    Below 2^-1022 a rounding errs by up to 2^-1075 absolute, not u relative.
    Sums and differences landing there are exact, and underflowed terms are
    small beside their sum: at least 1 on the general path, and at least
    2^-1022 for the p = 2 squares, kept only for norms of at least 2^-511,
    where d underflows cost at most d*u/2, within that path's unused
    roundings.  Only the final scaling by the peak adds the 2^-1074: the
    distance from 0 to (2^-1074, 2^-1074), 2^-1074 * sqrt(2), computes as
    2^-1074.
    """
    return rounding_gamma(2 * d + 8)


def dual_exponent(p: float) -> float:
    """The conjugate exponent q with 1/p + 1/q = 1 (1 <-> inf, 2 <-> 2)."""
    p = check_exponent(p)
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def norm_sandwich_factor(s: float, d: int) -> float:
    """The constant d^{min(1/2 - 1/s, 0)} comparing an l_s norm with l_2.

    For any z in R^d with q the dual exponent of s, the comparison
    inequality brackets the Euclidean norm:
    ||z||_s * factor(s, d) <= ||z||_2 <= ||z||_s / factor(q, d).
    """
    s = check_exponent(s)
    check_dimension(d)
    exponent = min(0.5 - 1.0 / s, 0.0)
    return float(d) ** exponent


def beta_function_half(d: int) -> float:
    """B(1/2, (d - 1)/2)."""
    from scipy import special  # loaded on first use: the index never needs it

    check_dimension(d, 2)
    return float(special.beta(0.5, (d - 1.0) / 2.0))


def cap_probability(alpha: float, d: int) -> float:
    """P(|<w, e>| < alpha) for w uniform on the unit sphere in R^d.

    The first coordinate of a uniform direction has |w_1|^2 ~ Beta(1/2,
    (d-1)/2), so the probability equals I_{alpha^2}(1/2, (d-1)/2).  Closed
    forms at the low dimensions: (2/pi) * arcsin(alpha) for d = 2 and
    exactly alpha for d = 3.  The value is bounded by alpha * sqrt(d).

    Args:
        alpha: magnitude threshold in [0, 1].
        d: dimension, >= 2.

    Returns:
        The two-sided cap probability in [0, 1].
    """
    from scipy import special  # loaded on first use: the index never needs it

    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    check_dimension(d, 2)
    return float(special.betainc(0.5, (d - 1.0) / 2.0, alpha * alpha))


def beta_lower_bound_margin(d: int) -> float:
    """Margin of the product-form lower bound on B(1/2, (d - 1)/2).

    Returns B(1/2, (d-1)/2) * sqrt(d) / 2 - ((d-1)/d)^{(d-3)/2}.  A
    nonnegative margin certifies B(1/2, (d-1)/2) >= 2 * g(d) / sqrt(d) with
    g(d) = ((d-1)/d)^{(d-3)/2}; g is decreasing for d >= 3, equals 1 at
    d = 3 and tends to exp(-1/2), which is what makes the linear cap bound
    alpha * sqrt(d) valid in every dimension.
    """
    check_dimension(d, 2)
    g = math.exp((d - 3.0) / 2.0 * math.log((d - 1.0) / d))
    return beta_function_half(d) * math.sqrt(d) / 2.0 - g
