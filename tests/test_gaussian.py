"""Accuracy of the normal helpers against 50-digit arithmetic."""

import mpmath as mp
import numpy as np
import pytest

from mimicgame.gaussian import (
    log_norm_cdf_diff,
    log_norm_pdf,
    log_norm_sf,
    mills_ratio,
    norm_cdf,
    norm_isf_log,
)

mp.mp.dps = 50


def test_log_norm_sf_against_mpmath():
    xs = [-40.0, -8.0, -1.0, 0.0, 0.5, 2.0, 8.0, 11.9, 12.1, 20.0, 50.0, 150.0, 400.0]
    for x in xs:
        ref = float(mp.log(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2))
        got = float(log_norm_sf(x))
        assert got == pytest.approx(ref, rel=1e-13, abs=1e-300)
        ref = float(mp.ncdf(mp.mpf(x)))
        assert float(norm_cdf(x)) == pytest.approx(ref, rel=1e-13, abs=1e-300)


def test_sf_cdf_symmetry():
    x = np.linspace(-10, 10, 2001)
    assert np.allclose(norm_cdf(x) + np.exp(log_norm_sf(x)), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(log_norm_pdf(x), log_norm_pdf(-x), rtol=0, atol=0)


def test_mills_ratio_against_mpmath():
    for x in [0.5, 2.0, 8.0, 12.0, 30.0, 100.0, 500.0]:
        ref = float(mp.erfc(mp.mpf(x) / mp.sqrt(2)) / 2 / mp.npdf(mp.mpf(x)))
        assert float(mills_ratio(x)) == pytest.approx(ref, rel=1e-13)


def test_isf_log_roundtrip():
    ls = -np.concatenate([
        np.logspace(-12, 0, 300),          # masses just below 1
        np.linspace(1.0, 500.0, 300),      # ordinary tails
        np.logspace(2.8, 6.5, 300),        # extreme log-tails
    ])
    x = norm_isf_log(ls)
    back = log_norm_sf(x)
    assert np.max(np.abs(back - ls) / np.maximum(1.0, np.abs(ls))) < 1e-12


def _isf_log_reference(l):
    """The x with log(sf(x)) = l in 50 digits: erfinv near l = 0, a root search beyond."""
    l = mp.mpf(l)
    if l > -1:
        return -mp.sqrt(2) * mp.erfinv(2 * mp.exp(l) - 1)
    return mp.findroot(lambda x: mp.log(mp.erfc(x / mp.sqrt(2)) / 2) - l, mp.sqrt(-2 * l))


@pytest.mark.parametrize("l", [-2.3e5, -2.5e5, -2.8e5, -1e-12, -1e-6])
def test_isf_log_against_mpmath(l):
    # ndtri_exp alone is 7e-13 off near l = -2.5e5; the Newton step mends it
    assert float(norm_isf_log(l)) == pytest.approx(float(_isf_log_reference(l)), rel=1e-14)


def test_log_cdf_diff_against_mpmath():
    rng = np.random.default_rng(42)
    pairs = [(-1.0, 2.0), (0.0, 0.5), (5.0, 5.5), (20.0, 21.0), (-9.0, -8.5),
             (-0.003, 0.004), (37.0, 45.0), (-45.0, -37.0)]
    pairs += [tuple(sorted(v)) for v in rng.normal(scale=6.0, size=(20, 2))]
    for lo, hi in pairs:
        if hi <= 0:  # mirror to the survival side so 50 digits suffice
            ref = mp.erfc(-mp.mpf(hi) / mp.sqrt(2)) / 2 - mp.erfc(-mp.mpf(lo) / mp.sqrt(2)) / 2
        else:
            ref = mp.erfc(mp.mpf(lo) / mp.sqrt(2)) / 2 - mp.erfc(mp.mpf(hi) / mp.sqrt(2)) / 2
        got = float(log_norm_cdf_diff(lo, hi))
        assert got == pytest.approx(float(mp.log(ref)), rel=1e-12)


def test_log_cdf_diff_degenerate():
    assert np.isneginf(log_norm_cdf_diff(1.3, 1.3))

