"""Bracketed scalar root finding by ITP (interpolate, truncate, project).

Oliveira & Takahashi, "An enhancement of the bisection method average
performance preserving minmax optimality", ACM TOMS 47(1), 2020. Each
step takes the regula falsi point, moves it toward the midpoint by
K1 * width**K2 (so one end cannot stall), and projects it into a window
around the midpoint that shrinks so the bracket never trails bisection's
by more than N0 halvings. On a smooth root the steps beat bisection by
far; on any other sign change they need at most N0 steps more.
"""

import math

K1 = 0.1
K2 = 2.0
N0 = 1


def itp_root(f, a, b, fa, fb, eps, ftol=0.0, maxit=None):
    """Root of f on the bracket [a, b], where fa = f(a) and fb = f(b) differ in sign.

    An end whose value is not known may be given as an infinity of its
    sign; the steps bisect until both ends of the bracket hold values.
    Stops at the first point x with |f(x)| < ftol, or once the bracket is
    at most 2 eps wide, or after maxit evaluations; the worst case is
    ceil(log2((b - a) / (2 eps))) + N0 evaluations. Returns (x, f(x),
    evaluations) for the last point evaluated, so a caller can keep what
    f computed there; a bracket stop leaves it within 2 eps of a sign change.
    """
    if not a < b:
        raise ValueError("the bracket must satisfy a < b")
    if fa == 0.0:
        return a, fa, 0
    if fb == 0.0:
        return b, fb, 0
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError("no sign change on the supplied bracket")
    width0 = b - a
    n_max = max(math.ceil(math.log2(width0 / (2.0 * eps))), 0) + N0
    steps = n_max if maxit is None else max(1, min(n_max, maxit))
    for j in range(steps):
        half = 0.5 * (a + b)
        x = half
        if math.isfinite(fa) and math.isfinite(fb):
            width = b - a
            x_f = a - fa * width / (fb - fa)
            sigma = math.copysign(1.0, half - x_f)
            delta = K1 * width**K2
            x_t = x_f + sigma * delta if delta <= abs(half - x_f) else half
            # the bracket may trail bisection's by at most N0 halvings
            r = width0 * 2.0 ** (N0 - 1 - j) - 0.5 * width
            x = x_t if abs(x_t - half) <= r else half - sigma * r
        fx = f(x)
        if abs(fx) < ftol or fx == 0.0:
            return x, fx, j + 1
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        if b - a <= 2.0 * eps:
            return x, fx, j + 1
    return x, fx, steps
