"""Standard-normal helpers in the log domain.

The closed-form agent solution composes the normal cdf and quantile at
arguments that grow linearly in the signal-to-noise ratio, so naive
evaluation underflows well before the parameter ranges the sweeps need.
Everything accepts scalars or arrays.

The tails come compiled from scipy.special: log_ndtr for the log mass,
its inverse ndtri_exp for the quantile, erfcx for the Mills ratio.
"""

import numpy as np
from scipy.special import erf, erfcx, log_ndtr, ndtr, ndtri_exp

_SQRT2 = np.sqrt(2.0)
_SQRT_HALF_PI = np.sqrt(0.5 * np.pi)
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


def log_norm_pdf(x):
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - _LOG_SQRT_2PI


def norm_cdf(x):
    return ndtr(x)


def mills_ratio(x):
    """sf(x)/pdf(x), stable for arbitrarily large x."""
    return _SQRT_HALF_PI * erfcx(np.asarray(x, dtype=float) / _SQRT2)


def log_norm_sf(x):
    """log of the upper-tail mass, full double-exponent range."""
    return log_ndtr(-np.asarray(x, dtype=float))


def norm_isf_log(l):
    """x such that log(sf(x)) == l, for any l < 0 down past -1e7.

    ndtri_exp alone drifts by up to 7e-13 relative near l = -2.5e5; one
    Newton step on log(sf), with the Mills ratio as slope, restores full
    accuracy wherever x > 1.
    """
    x = -ndtri_exp(l)
    xt = np.maximum(x, 1.0)
    return np.where(x > 1.0, xt + (log_norm_sf(xt) - l) * mills_ratio(xt), x)


def log_norm_cdf_diff(lo, hi):
    """log(cdf(hi) - cdf(lo)) for hi >= lo without catastrophic cancellation.

    Same-sign tails subtract in log space; straddling pairs use the erf
    difference, which adds in magnitude across zero.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    scalar = lo.ndim == 0 and hi.ndim == 0
    lo, hi = np.broadcast_arrays(np.atleast_1d(lo), np.atleast_1d(hi))
    out = np.full(lo.shape, -np.inf)

    right = lo >= 0.0
    left = hi <= 0.0
    straddle = ~(right | left)
    equal = hi <= lo

    with np.errstate(divide="ignore"):
        if np.any(right):
            la, lb = log_ndtr(-lo[right]), log_ndtr(-hi[right])
            out[right] = la + np.log1p(-np.exp(np.minimum(lb - la, 0.0)))
        if np.any(left):
            la, lb = log_ndtr(lo[left]), log_ndtr(hi[left])
            out[left] = lb + np.log1p(-np.exp(np.minimum(la - lb, 0.0)))
    if np.any(straddle):
        a, b = lo[straddle], hi[straddle]
        out[straddle] = np.log(0.5 * (erf(b / _SQRT2) - erf(a / _SQRT2)))
    out[equal] = -np.inf
    return float(out[0]) if scalar else out
