"""The bracketed ITP root finder: bracket, stop rules and worst-case count."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mimicgame.roots import N0, itp_root

brackets = st.tuples(st.floats(-10.0, 10.0), st.floats(1e-3, 20.0), st.floats(0.0, 1.0))


def _shapes(root):
    """Increasing functions with one sign change at root: smooth, a step,
    and flat near the root."""
    return {
        "smooth": lambda x: math.atan(3.0 * (x - root)) + 0.1 * (x - root) ** 3,
        "exp": lambda x: math.expm1(2.0 * (x - root)),
        "step": lambda x: -1.0 if x < root else 1.0,
        "flat": lambda x: (x - root) ** 5,
    }


@settings(max_examples=300, deadline=None, derandomize=True)
@given(brackets, st.sampled_from(["smooth", "exp", "step", "flat"]),
       st.floats(-12.0, -2.0), st.sampled_from([0.0, 1e-9, 1e-6]), st.booleans(),
       st.booleans())
def test_itp_root_stops_inside_bracket_within_worst_case(bracket, shape, log_eps, ftol,
                                                         decreasing, unknown_ends):
    lo, width, where = bracket
    hi = lo + width
    root = lo + where * width
    g = _shapes(root)[shape]
    f = (lambda x: -g(x)) if decreasing else g
    eps = width * 10.0**log_eps
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    fa, fb = f(lo), f(hi)
    assume(fa * fb < 0.0)            # a root at an end is returned unevaluated
    if unknown_ends:
        fa, fb = math.copysign(math.inf, fa), math.copysign(math.inf, fb)
    x, fx, n = itp_root(counted, lo, hi, fa, fb, eps, ftol)
    assert n == len(calls) and fx == f(x)
    assert lo <= x <= hi
    assert lo not in calls and hi not in calls
    assert n <= math.ceil(math.log2(width / (2.0 * eps))) + N0
    # the residual stop, or the last point within 2 eps of the sign change
    assert abs(fx) < ftol or fx == 0.0 or abs(x - root) <= 2.0 * eps * (1.0 + 1e-9)


def test_itp_root_beats_bisection_on_a_smooth_root():
    _, _, n = itp_root(lambda x: x**3 - 2.0, 0.0, 2.0, -2.0, 6.0, eps=1e-14)
    assert n <= 10                   # bisection needs 47


def test_itp_root_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError):
        itp_root(lambda x: x, 1.0, 2.0, 1.0, 2.0, eps=1e-9)
    with pytest.raises(ValueError):
        itp_root(lambda x: x, 2.0, 1.0, 2.0, -1.0, eps=1e-9)
