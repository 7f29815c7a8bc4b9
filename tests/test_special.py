"""Special-function substrate: frozen oracle values and analytic identities.

Expected constants were computed with mpmath at 40 significant digits and
pasted verbatim; tolerances reflect the double-precision implementation.
"""
from __future__ import annotations

import cmath
import collections
import gc
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
import types
import weakref
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import dswave
from dswave import special, waves
from dswave.bigfloat import extended_series
from dswave.expansion import ExpansionParams
from dswave.model import HorizonUnitsParams
from dswave.special import (
    NonConvergence,
    PoleError,
    bessel_j,
    gamma_ratio_asymptotic,
    hankel1,
    hyp2f1,
    log_gamma,
    log_gamma_diff,
)
from dswave.waves import eval_running, eval_standing, make_ansatz


def rel(x: complex, y: complex) -> float:
    return abs(x - y) / max(abs(y), 1e-300)


# ------------------------------------------------------------------ log_gamma

LOG_GAMMA_CASES = [
    (2.5 + 3.0j, complex(-1.4709546103488418, 2.8226156382607996)),
    (0.5 + 0.0j, complex(0.5723649429247001, 0.0)),
    (8.0 - 25.0j, complex(-14.100273547827587, -66.14569245677654)),
    (1e6 + 1e6j, complex(12376679.822743298, 13947481.918942573)),
]


@pytest.mark.parametrize("z, expected", LOG_GAMMA_CASES)
def test_log_gamma_frozen_values(z, expected):
    assert rel(log_gamma(z), expected) < 1e-13


def test_log_gamma_contract_over_a_seeded_grid():
    # 1e-13 max(1, |log Gamma|) modulo 2 pi i, against mpmath at 30 digits:
    # |z| log-uniform up to 1e7 in every direction, and points 1e-10..1e-1
    # from the zeros of log Gamma at z = 1 and z = 2, where a relative bound
    # cannot hold (6e-4 relative, 2e-15 absolute, at z = 2 - 7e-12)
    rng = random.Random(5)
    grid = [cmath.rect(10 ** rng.uniform(-3, 7), rng.uniform(-math.pi, math.pi)) for _ in range(1500)]
    grid += [
        zero + cmath.rect(10 ** rng.uniform(-10, -1), rng.uniform(-math.pi, math.pi))
        for zero in (1.0, 2.0)
        for _ in range(100)
    ]
    worst = 0.0
    with mp.workdps(30):
        for z in grid:
            ref = mp.loggamma(z)
            diff = complex(mp.mpc(log_gamma(z)) - ref)
            diff = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
            worst = max(worst, abs(diff) / max(1.0, float(abs(ref))))
    assert worst <= 1e-13, worst


def test_log_gamma_left_half_plane_exp_equivalence():
    # On Re z < 1/2 only exp(log_gamma) is pinned down (branch multiples of
    # 2 pi i are allowed); Gamma(-2.5+1.5j) frozen from mpmath.
    expected = cmath.exp(complex(-3.7175134511917918, -7.7130655258341925))
    assert rel(cmath.exp(log_gamma(-2.5 + 1.5j)), expected) < 1e-12


def test_log_gamma_functional_equation():
    for z in (0.3 + 0.7j, 2.0 + 25.0j, -1.3 - 0.4j, 7.7 + 0.0j, 0.1 - 30.0j):
        lhs = cmath.exp(log_gamma(z + 1.0))
        rhs = z * cmath.exp(log_gamma(z))
        assert rel(lhs, rhs) < 1e-13


def test_log_gamma_conjugate_symmetry():
    for z in (2.5 + 3.0j, 0.2 + 21.0j, -4.4 + 37.0j, 1.0 + 19.999j):
        assert rel(log_gamma(z.conjugate()), log_gamma(z).conjugate()) < 1e-14


def _log_gamma_error(z: complex) -> float:
    """|log_gamma(z) - log Gamma(z)| / max(1, |log Gamma(z)|) modulo 2 pi i,
    against mpmath at 30 digits; nan where log_gamma is not finite."""
    got = log_gamma(z)
    if not cmath.isfinite(got):
        return math.nan
    with mp.workdps(30):
        ref = mp.loggamma(z)
        diff = complex(mp.mpc(got) - ref)
    diff = complex(diff.real, math.remainder(diff.imag, 2.0 * math.pi))
    return abs(diff) / max(1.0, float(abs(ref)))


def test_log_gamma_contract_across_the_shift_boundary():
    # Stirling's series is summed without an upward shift once |w| >= 10:
    # a seeded grid on both sides of |z| = 10 near the imaginary axis
    rng = random.Random(31)
    grid = [complex(rng.uniform(0.5, 10.0), rng.choice((-1.0, 1.0)) * rng.uniform(5.0, 15.0)) for _ in range(1500)]
    assert sum(abs(z) < 10.0 for z in grid) > 300 and sum(abs(z) >= 10.0 for z in grid) > 300
    worst = max(_log_gamma_error(z) for z in grid)
    assert worst <= 1e-13, worst


def test_stirling_terms_leave_out_no_more_than_all_ten_at_the_shift_boundary():
    # term k, B_(2k+2)/((2k+2)(2k+1) w^(2k+1)), is summed while |w|^2 is
    # below its limit, where it equals what all ten terms leave out at
    # |w| = 10, |B_22|/(22*21*10^21); the limits fall with k, and the last
    # lies above the shift's 10^2
    with mp.workdps(30):
        omitted = abs(mp.bernoulli(22)) / (22 * 21 * mp.mpf(10) ** 21)
        for k, (c, r2_max) in enumerate(special._STIRLING_TERMS):
            assert rel(c, float(mp.bernoulli(2 * k + 2) / ((2 * k + 2) * (2 * k + 1)))) < 1e-15
            assert rel(abs(c) / r2_max ** (k + 0.5), float(omitted)) < 1e-13, k
    limits = [r2_max for _, r2_max in special._STIRLING_TERMS]
    assert limits == sorted(limits, reverse=True) and limits[-1] > 100.0


def test_log_gamma_contract_up_to_1e300_in_the_right_half_plane():
    # Stirling's series sums only the terms |w| needs, down to none from
    # |w| = 6.2e18, so w^(2k+1) stays finite (all ten overflow to nan from
    # |w| ~ 1.7e16 on)
    rng = random.Random(41)
    grid = [cmath.rect(10 ** rng.uniform(7.0, 300.0), rng.uniform(-1.57, 1.57)) for _ in range(300)]
    worst = max(_log_gamma_error(z) for z in grid)
    assert worst <= 1e-13, worst


def test_log_gamma_functional_equation_and_symmetry_across_the_shift_boundary():
    # z inside |w| = 10 is shifted, z + 1 outside it is not: log Gamma(z+1)
    # = log Gamma(z) + log z modulo 2 pi i, and conjugates map to conjugates
    for z in (5.0 + 8.5j, 0.6 + 9.9j, 9.5 + 2.0j, 3.0 - 9.3j, 7.2 - 6.9j):
        assert abs(z) < 10.0 <= abs(z + 1.0)
        lhs, rhs = log_gamma(z + 1.0), log_gamma(z) + cmath.log(z)
        gap = complex(lhs.real - rhs.real, math.remainder(lhs.imag - rhs.imag, 2.0 * math.pi))
        assert abs(gap) < 1e-13 * max(1.0, abs(lhs)), z
        for point in (z, z + 1.0):
            assert rel(log_gamma(point.conjugate()), log_gamma(point).conjugate()) < 1e-14, point


def test_log_gamma_on_the_positive_real_axis():
    # real z takes math.lgamma: exact zeros at 1 and 2, a finite value up
    # to its overflow near 2.55e305, +inf beyond, and the sign of the zero
    # imaginary part kept
    near_zeros = [zero + sign * 10.0**-k for zero in (1.0, 2.0) for sign in (1.0, -1.0) for k in range(1, 13)]
    for x in near_zeros:
        assert _log_gamma_error(complex(x, 0.0)) <= 1e-13, x
    assert log_gamma(1.0) == 0.0 and log_gamma(2.0) == 0.0
    rng = random.Random(37)
    wide = [0.5, 1e300] + [10.0 ** rng.uniform(math.log10(0.5), 300.0) for _ in range(300)]
    worst = max(_log_gamma_error(complex(x, 0.0)) for x in wide)
    assert worst <= 1e-13, worst
    for x in (3e305, 1.7e308):
        assert log_gamma(x) == complex(math.inf, 0.0)
    for x in (0.7, 2.5, 1e300, 3e305):
        for zero in (0.0, -0.0):
            got = log_gamma(complex(x, zero))
            assert got.imag == 0.0 and math.copysign(1.0, got.imag) == math.copysign(1.0, zero), (x, zero)


def test_log_gamma_pole():
    with pytest.raises(PoleError):
        log_gamma(0.0)
    with pytest.raises(PoleError):
        log_gamma(-3.0)


def test_log_gamma_diff_matches_plain_difference():
    for z in (5.0 + 2.0j, 50.0 - 11.0j, 150.0 + 0.5j):
        d = log_gamma_diff(z, 0.5, -0.5)
        plain = log_gamma(z + 0.5) - log_gamma(z - 0.5)
        assert abs(d - plain) < 1e-12 * max(1.0, abs(plain))


def test_log_gamma_diff_large_argument():
    # log Gamma(z + 1/2) - log Gamma(z) at z = 1e6 + 1e6j, mpmath 40 digits
    expected = complex(7.081042011622124, 0.39269914419872415)
    assert rel(log_gamma_diff(1e6 + 1e6j, 0.5, 0.0), expected) < 1e-13


# --------------------------------------------------------------- gamma ratio


def test_gamma_ratio_identity_shift_by_one():
    # Gamma(z+1)/Gamma(z) = z; the order-1 factor (A-B)(A+B-1)/(2z) vanishes
    # identically for (A, B) = (1, 0), so the approximation is exact.
    for zv in (5.0 + 1.0j, 200.0 - 3.0j):
        assert rel(gamma_ratio_asymptotic(zv, 1.0, 0.0, order=1), zv) < 1e-15


def test_gamma_ratio_order1_collapses_when_shifts_sum_to_one():
    z = 37.0 + 4.0j
    assert gamma_ratio_asymptotic(z, 0.25, 0.75, order=1) == gamma_ratio_asymptotic(
        z, 0.25, 0.75, order=0
    )


def test_gamma_ratio_order1_beats_order0():
    z = 40.0 + 5.0j
    direct = cmath.exp(log_gamma(z + 0.6) - log_gamma(z - 0.2))
    e0 = rel(gamma_ratio_asymptotic(z, 0.6, -0.2, order=0), direct)
    e1 = rel(gamma_ratio_asymptotic(z, 0.6, -0.2, order=1), direct)
    assert e1 < 0.05 * e0


def test_gamma_ratio_rejects_bad_order():
    with pytest.raises(ValueError):
        gamma_ratio_asymptotic(10.0, 0.5, 0.0, order=2)


@pytest.mark.parametrize("order", [0, 1])
def test_gamma_ratio_of_equal_shifts_is_one(order):
    # Gamma(z+A)/Gamma(z+A) = 1 exactly, however small z is
    for z in (40.0 + 5.0j, 0.5, -3.0j):
        got = gamma_ratio_asymptotic(z, 0.25 + 1.0j, complex(0.25, 1.0), order=order)
        assert got == 1.0 + 0.0j and isinstance(got, complex)


# -------------------------------------------------------------------- hyp2f1

HYP2F1_CASES = [
    (0.5 + 0.25j, 0.5 - 0.25j, 1.5 + 0j, 0.3, complex(1.0731499130572069, 0.0)),
    (1.0 + 0j, 1.0 + 0j, 2.0 + 0j, 0.5, complex(1.3862943611198906, 0.0)),
    (
        2.75 - 3.2j,
        -1.5 + 0.5j,
        3.5 + 0j,
        0.72,
        complex(0.0558276922543949, 1.0472756940566539),
    ),
    (0.25 + 5j, 0.25 - 5j, 0.5 + 0j, 0.45, complex(896.5589824670824, 0.0)),
    (
        # ansatz parameters for epsilon=10, m=5, j=0 (regular family), z=0.25
        0.75 - 2.51253140723345j,
        0.75 - 7.48746859276655j,
        1.5 + 0j,
        0.25,
        complex(-0.02971186243938304, 0.22312094989474424),
    ),
]


@pytest.mark.parametrize("a, b, c, z, expected", HYP2F1_CASES)
def test_hyp2f1_frozen_values(a, b, c, z, expected):
    assert rel(hyp2f1(a, b, c, z), expected) < 5e-13


def test_hyp2f1_symmetric_in_a_b():
    a, b, c = 1.1 - 2.0j, -0.4 + 3.3j, 2.2 + 0j
    for z in (0.2, 0.48, 0.77):
        assert hyp2f1(a, b, c, z) == hyp2f1(b, a, c, z)


def test_hyp2f1_contiguous_relation():
    # F(a,b;c;z) = F(a+1,b;c;z) - (b z / c) F(a+1,b+1;c+1;z)
    for (a, b, c) in [
        (0.5 + 0.25j, 0.5 - 0.25j, 1.5 + 0j),
        (2.75 - 3.2j, -1.5 + 0.5j, 3.5 + 0j),
        (0.75 - 2.5j, 0.75 - 7.5j, 1.5 + 0j),
    ]:
        for z in (0.15, 0.45, 0.8):
            lhs = hyp2f1(a, b, c, z)
            rhs = hyp2f1(a + 1, b, c, z) - (b * z / c) * hyp2f1(a + 1, b + 1, c + 1, z)
            assert rel(lhs, rhs) < 1e-10


def test_hyp2f1_unit_at_origin_and_polynomial_termination():
    assert hyp2f1(1.5 + 2j, -0.7j, 3.0, 0.0) == 1.0 + 0.0j
    # negative-integer a terminates: F(-2, b; c; z) is a quadratic polynomial
    b, c, z = 1.3 + 0.4j, 2.1 + 0j, 0.37
    expected = 1.0 + (-2.0) * b / c * z + (-2.0) * (-1.0) * b * (b + 1) / (c * (c + 1)) / 2.0 * z * z
    assert rel(hyp2f1(-2.0, b, c, z), expected) < 1e-14


def test_hyp2f1_heavy_cancellation_rescue():
    # |Im a| ~ 30 parameters: series terms tower ~1e19 above the 3e-7 sum,
    # so a plain double summation returns noise; the continuation along the
    # hypergeometric ODE must restore full accuracy.  Value frozen from mpmath
    # (40 digits) at the epsilon=60, m=10, j=5 regular-family parameters.
    a = 3.25 - 25.006253911140455j
    b = 3.25 - 34.993746088859545j
    c = 6.5 + 0j
    expected = complex(2.29384434432998e-07, 2.977960668158825e-07)
    assert rel(hyp2f1(a, b, c, 0.45), expected) < 1e-12


def test_hyp2f1_series_overflow_is_continued():
    # epsilon=1000, m=400, j=2 regular family at z=0.49: the float series
    # overflows before it converges; the value must still be finite and right
    s = math.sqrt(400.0**2 - 0.25)
    a = complex(1.75, 0.5 * (s - 1000.0))
    b = complex(1.75, 0.5 * (-s - 1000.0))
    expected = complex(-4.5570823310320755e-08, 2.6204946630695175e-08)
    got = hyp2f1(a, b, 3.5, 0.49)
    assert cmath.isfinite(got)
    assert rel(got, expected) < 1e-11


# F(1.25 - 4.74i, 1.25 - 11.03i; 2.5; 0.09), a continuation of the cli-mix
# benchmark: |F| ends at 1.2e-4 of its amplitude along the continuation's
# path, which erred there by 7e-13
_FALLING_POINT = (1.25 - 4.739169857020787j, 1.25 - 11.025978846371784j, 2.5 + 0j, 0.09 + 0j)
# past a negative c the terms fall below 2^-24 of the sum by n = 20, to 5e-8
# at n = 25, and rise again to 4e4 at n = 53, past n = -c; the continuation
# refuses this point
_NEGATIVE_C_HUMP = (-1.76 - 2.48j, 0.31 - 119.74j, -37.5 + 0j, 0.12 + 0j)
# c = 0.1 has 55 fractional bits, more than a, b and z together, so the
# exact term ratio's power of two goes into its numerator; real and complex c
_FINE_C = [(-30.5 + 0j, 1.0 + 0j, 0.1 + 0j, 0.25 + 0j), (-30.5 + 0j, 2.5 + 0j, 0.1 + 0.3j, 0.25 + 0j)]


def _fixed_point_grid():
    """20 seeded (a, b, c, z) whose float series cancels by 1e3 .. 2^48,
    four kinds taking turns: the regular wave family (real c > 0), the
    singular family (c < 0), complex c of ~1e3 against |Im a| ~ 400, and
    the expansion audit's tiny z ~ 1e-9 .. 1e-6 with |Im a| up to ~1e5;
    then the audit at X = 1e-6 and the four points above."""
    rng = random.Random(2026)
    grid = []
    for k in range(20):
        kind = k % 4
        if kind < 2:
            eps = rng.uniform(12.0, 60.0)
            hp = HorizonUnitsParams(epsilon=eps, m=eps / rng.uniform(1.5, 5.0), j=rng.randrange(6))
            ans = make_ansatz(hp, ("regular", "singular")[kind])
            grid.append((ans.a, ans.b, ans.c, complex(rng.uniform(0.1, 0.5))))
        elif kind == 2:
            a = complex(rng.uniform(0.2, 1.0), -rng.uniform(300.0, 500.0))
            b = complex(rng.uniform(0.2, 1.0), -rng.uniform(300.0, 500.0))
            c = complex(1.0, -rng.uniform(2e3, 4e3))
            grid.append((a, b, c, complex(rng.uniform(0.3, 0.4))))
        else:
            ep = ExpansionParams(rng.uniform(1.5, 5.0), 10.0 ** rng.uniform(-5.0, -3.5), rng.randrange(3))
            ans = make_ansatz(ep.horizon_params(), "regular")
            r = rng.uniform(12.0, 16.0) / ep.k
            grid.append((ans.a, ans.b, ans.c, complex((r * ep.X) ** 2)))
    # z = 1.4e-11 has 88 fractional bits, more than the 77 this loss asks
    # for: read at 2^-77, it erred by 1.7e-12
    ep = ExpansionParams(2.86, 1e-6, 1)
    ans = make_ansatz(ep.horizon_params(), "regular")
    grid.append((ans.a, ans.b, ans.c, complex((10.0 / ep.k * ep.X) ** 2)))
    return grid + [_FALLING_POINT, _NEGATIVE_C_HUMP] + _FINE_C


def _no_continuation(*args):
    raise AssertionError("the continuation was called")


def test_hyp2f1_fixed_point_route_against_the_oracle(monkeypatch):
    # every point takes the fixed-point route and is within 2e-15 of the
    # big-float series at 30 digits
    monkeypatch.setattr(special, "_ode_continuation", _no_continuation)
    for a, b, c, z in _fixed_point_grid():
        _, cancel, _, _ = special._series_sum(a, b, c, z)
        assert cancel > special._CANCEL_RETRY, (a, b, c, z, cancel)
        ref = complex(extended_series("hyp2f1", [a, b, c, z]))
        assert rel(hyp2f1(a, b, c, z), ref) < 2e-15, (a, b, c, z)


def test_fixed_point_sum_goes_on_where_the_float_tail_rises(monkeypatch):
    tails = []
    float_tail = special._float_tail
    monkeypatch.setattr(special, "_float_tail", lambda *args: tails.append(float_tail(*args)) or tails[-1])
    a, b, c, z = _NEGATIVE_C_HUMP
    _, cancel, _, _ = special._series_sum(a, b, c, z)
    got, _ = special._fixed_point_sum(a, b, c, z, 1 + math.ceil(math.log2(cancel)))
    assert [rest is None for rest, _ in tails] == [True, False]
    assert rel(got, complex(extended_series("hyp2f1", [a, b, c, z]))) < 2e-15


def _routed(monkeypatch, point, reported):
    """hyp2f1 at point with the float series reporting the cancellation
    `reported`, and the continuation calls it made (each returning 7)."""
    calls = []
    series_sum = special._series_sum
    first = [True]

    def series(*args):
        total, cancel, peak, terms = series_sum(*args)
        if first[0]:
            first[0] = False
            return total, reported, peak, terms
        return total, cancel, peak, terms

    monkeypatch.setattr(special, "_series_sum", series)
    monkeypatch.setattr(special, "_ode_continuation", lambda *args: calls.append(args) or 7.0)
    return hyp2f1(*point), calls


def _standing_point(eps, j, r):
    """(a, b, c, z) of the regular standing wave at m = eps / 2, z = r^2."""
    ans = make_ansatz(HorizonUnitsParams(epsilon=eps, m=eps / 2.0, j=j), "regular")
    return ans.a, ans.b, ans.c, complex(r * r)


def _counted_continuation(monkeypatch):
    """The continuation calls hyp2f1 makes from here on, as a list of their
    arguments; each call goes through to the continuation."""
    calls = []
    continuation = special._ode_continuation
    monkeypatch.setattr(special, "_ode_continuation", lambda *args: calls.append(args) or continuation(*args))
    return calls


def test_hyp2f1_takes_the_fixed_point_pass_within_the_budget(monkeypatch):
    # the route follows the pass budget: an e200_r0.5 standing wave (~160 terms at ~200 working bits) and both connection sub-series
    # of an e1000_r0.9 running wave at mu = 3, at w = 0.19 (~150 terms at
    # ~150 bits), are within 1e5 term-bits and summed in fixed point
    w = complex(1.0 - 0.9**2)
    ans = make_ansatz(HorizonUnitsParams(epsilon=1000.0, m=1000.0 / 3.0, j=1), "regular")
    s = ans.c - ans.a - ans.b
    points = [_standing_point(200.0, 1, 0.5), (ans.a, ans.b, 1.0 - s, w), (ans.c - ans.a, ans.c - ans.b, 1.0 + s, w)]
    monkeypatch.setattr(special, "_ode_continuation", _no_continuation)
    for a, b, c, z in points:
        _, cancel, _, _ = special._series_sum(a, b, c, z)
        assert special._CANCEL_RETRY < cancel < math.inf, (a, b, c, z, cancel)
        ref = complex(extended_series("hyp2f1", [a, b, c, z]))
        assert rel(special._gauss_series(a, b, c, z), ref) < 2e-15, (a, b, c, z)


def test_hyp2f1_keeps_the_continuation_beyond_the_budget(monkeypatch):
    # epsilon=1000, m=500, j=1 standing wave at r = 0.5: ~470 terms at ~800
    # bits are ~4x the 1e5 term-bit budget
    calls = _counted_continuation(monkeypatch)
    assert cmath.isfinite(hyp2f1(*_standing_point(1000.0, 1, 0.5)))
    assert len(calls) == 1


def test_pass_budget_edge_decides_between_pass_and_continuation(monkeypatch):
    # each standing wave's first pass returns the value: a budget of exactly
    # its term-bits keeps the pass, one term-bit less sends the series to the
    # continuation.  The e200_r0.5 one cancels by more than 2^48, the
    # (50, 1, 0.5) one by 2^30.6; both take their bits from the peak term
    # (72 terms x 108 bits for the second one)
    calls = _counted_continuation(monkeypatch)
    for eps, continued_tol in ((200.0, 1e-11), (50.0, 1e-12)):
        point = _standing_point(eps, 1, 0.5)
        _, cancel, peak, terms = special._series_sum(*point)
        assert special._CANCEL_RETRY < cancel < math.inf
        bits = 1 + math.ceil(math.log2(peak)) + special._SMALL_SUM_BITS
        term_bits = terms * (special._GUARD_BITS + bits)
        assert term_bits <= special._PASS_BUDGET
        monkeypatch.setattr(special, "_PASS_BUDGET", term_bits)
        ref = complex(extended_series("hyp2f1", list(point)))
        assert rel(hyp2f1(*point), ref) < 2e-15, eps
        assert not calls, eps
        monkeypatch.setattr(special, "_PASS_BUDGET", term_bits - 1)
        assert rel(hyp2f1(*point), ref) < continued_tol, eps
        assert len(calls) == 1, eps
        calls.clear()


def test_first_pass_covers_the_peak_term_whatever_the_cancellation(monkeypatch):
    # the regular standing series at (epsilon, m, j, r) = (50, 25, 1, 0.5)
    # cancels by 2^30.6, and its peak term is 2^22.x: the first pass covers
    # 1 + 23 + _SMALL_SUM_BITS = 44 bits, not the 32 the float series'
    # cancellation reads, and returns the big-float value
    point = _standing_point(50.0, 1, 0.5)
    _, cancel, peak, _ = special._series_sum(*point)
    assert 1 + math.ceil(math.log2(cancel)) == 32 and math.ceil(math.log2(peak)) == 23
    passes = _counted(monkeypatch, "_fixed_point_sum")
    got = hyp2f1(*point)
    assert [call[4] for call in passes] == [44]
    assert rel(got, complex(extended_series("hyp2f1", list(point)))) < 2e-15


def test_refused_continuation_is_rescued_by_a_fixed_point_pass(monkeypatch):
    # singular family at (epsilon, j, r) = (200, 20, 0.7), m = 100: with no
    # pass budget the series goes to the continuation, which refuses (a
    # partner solution outgrows F), and the rescue pass returns the value.
    # With the default budget the pass runs first and no continuation is made.
    ans = make_ansatz(HorizonUnitsParams(epsilon=200.0, m=100.0, j=20), "singular")
    point = (ans.a, ans.b, ans.c, complex(0.7**2))
    ref = complex(extended_series("hyp2f1", list(point)))
    with pytest.raises(NonConvergence, match="outgrew its budget"):
        special._ode_continuation(*point, special._series_sum(*point)[1])
    calls = _counted_continuation(monkeypatch)
    assert rel(hyp2f1(*point), ref) < 1e-12
    assert not calls
    monkeypatch.setattr(special, "_PASS_BUDGET", 0)
    assert rel(hyp2f1(*point), ref) < 1e-12
    assert len(calls) == 1


def test_overflowing_series_takes_its_precision_from_the_log_space_peak(monkeypatch):
    # epsilon=1000, m=400, j=2 regular family at z=0.49: the float series
    # overflows.  The running sum of log2 |ratio| finds the peak term within
    # a bit; with the continuation priced out, the first fixed-point pass
    # covers that peak plus _SMALL_SUM_BITS, and |F| ~ 2^-24 makes it retry
    s = math.sqrt(400.0**2 - 0.25)
    a, b, c, z = complex(1.75, 0.5 * (s - 1000.0)), complex(1.75, 0.5 * (-s - 1000.0)), 3.5 + 0j, 0.49 + 0j
    _, cancel, peak, _ = special._series_sum(a, b, c, z)
    assert cancel == peak == math.inf
    log_peak, terms = special._log2_peak(a, b, c, z)
    with mp.workdps(30):
        term, best = mp.mpc(1), mp.mpf(0)
        for n in range(terms):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
            best = max(best, mp.log(abs(term), 2))
    assert abs(log_peak - float(best)) < 1.0
    passes = []
    fixed_point_sum = special._fixed_point_sum
    monkeypatch.setattr(special, "_fixed_point_sum", lambda *args: passes.append(args[4]) or fixed_point_sum(*args))
    monkeypatch.setattr(special, "_ode_continuation", _no_continuation)
    monkeypatch.setattr(special, "_PASS_BUDGET", math.inf)
    ref = complex(extended_series("hyp2f1", [a, b, c, z]))
    assert rel(hyp2f1(a, b, c, z), ref) < 2e-15
    assert passes[0] == 1 + math.ceil(log_peak) + special._SMALL_SUM_BITS
    assert len(passes) == 2


def test_fixed_point_sum_beyond_double_range_is_a_nonconvergence(monkeypatch):
    # the float series overflows, and its pass (~2 450 terms at ~1 400 bits)
    # is over the pass budget, so the continuation runs first and overflows.
    # The rescue pass then finds |F| beyond double range: NonConvergence, and
    # no OverflowError
    calls = _counted_continuation(monkeypatch)
    with pytest.raises(NonConvergence, match="beyond double range"):
        hyp2f1(0.5 + 600j, 0.5 - 590j, 1.5, 0.49)
    assert len(calls) == 1


def test_fixed_point_sum_retries_above_the_loss_it_measured(monkeypatch):
    # the heavy-rescue parameters cancel by 3.5e15; a float series that
    # reported 2e3 sets a precision that covers 12 bits of loss only.  That
    # pass refuses, measuring more, and the next one, above what it measured,
    # returns the oracle value without a continuation call
    point = (3.25 - 25.006253911140455j, 3.25 - 34.993746088859545j, 6.5 + 0j, 0.45 + 0j)
    value, lost = special._fixed_point_sum(*point, 1 + math.ceil(math.log2(2e3)))
    assert value is None and lost > 12
    value, calls = _routed(monkeypatch, point, 2e3)
    assert not calls
    assert rel(value, complex(extended_series("hyp2f1", list(point)))) < 2e-15


def test_fixed_point_sum_stops_on_the_exact_zero_term_of_a_terminating_series(monkeypatch):
    # F(-2, 1; 1; 1/2) = (1 - 1/2)^2: terms 1, -1, 1/4, then an exact 0,
    # on which the pass stops without a float tail; the loss is log2(1 / (1/4))
    def no_tail(*args):
        raise AssertionError("the float tail was summed")

    monkeypatch.setattr(special, "_float_tail", no_tail)
    assert special._fixed_point_sum(-2.0 + 0j, 1.0 + 0j, 1.0 + 0j, 0.5 + 0j, 8) == (0.25 + 0j, 2.0)


def test_fixed_point_sum_falls_back_past_the_term_budget(monkeypatch):
    # the budget that just holds the last term summed returns the value, one
    # term less returns None
    a, b, c, z = _FALLING_POINT
    _, cancel, peak, terms = special._series_sum(a, b, c, z)
    bits = 1 + math.ceil(math.log2(cancel))
    tails = []
    float_tail = special._float_tail
    monkeypatch.setattr(special, "_float_tail", lambda *args: tails.append(float_tail(*args)) or tails[-1])
    value, _ = special._fixed_point_sum(a, b, c, z, bits)
    last = tails[-1][1]
    monkeypatch.setattr(special, "_MAX_TERMS", last + 1)
    assert special._fixed_point_sum(a, b, c, z, bits)[0] == value
    monkeypatch.setattr(special, "_MAX_TERMS", last)
    assert special._fixed_point_sum(a, b, c, z, bits) == (None, math.inf)
    monkeypatch.setattr(special, "_series_sum", lambda *args: (0j, cancel, peak, terms))
    monkeypatch.setattr(special, "_ode_continuation", lambda *args: 7.0)
    assert hyp2f1(a, b, c, z) == 7.0


def _first_pass(a, b, c, z):
    """(terms, bits) of the first fixed-point pass _gauss_series prices."""
    _, _, peak, terms = special._series_sum(a, b, c, z)
    if peak == math.inf:
        log_peak, terms = special._log2_peak(a, b, c, z)
    else:
        log_peak = math.log2(peak)
    return terms, 1 + math.ceil(log_peak) + special._SMALL_SUM_BITS


# the singular family at (epsilon, m, j) = (3000, 750, 20): c = -19.5
_EPS3000 = make_ansatz(HorizonUnitsParams(epsilon=3000.0, m=750.0, j=20), "singular")


def _exact_pass_grid():
    """Seeded (a, b, c, z) whose passes run at ~120 to ~3 500 bits: ten
    standing series of both families in turn (real c, negative for the
    singular one) with epsilon in ten log bands of [60, 3000], mu in
    [1.5, 4], j <= 20 and r in [0.6, 0.7]; four connection sub-series of
    running waves (complex c) with epsilon in [500, 2000] and r in
    [0.75, 0.85]; then the epsilon = 3000 singular point at r = 0.7."""
    rng = random.Random(2026)
    grid = []
    lo, hi = math.log10(60.0), math.log10(3000.0)
    for k in range(10):
        eps = 10.0 ** (lo + (k + rng.random()) * (hi - lo) / 10)
        hp = HorizonUnitsParams(epsilon=eps, m=eps / rng.uniform(1.5, 4.0), j=rng.randrange(21))
        ans = make_ansatz(hp, ("regular", "singular")[k % 2])
        grid.append((ans.a, ans.b, ans.c, complex(rng.uniform(0.6, 0.7) ** 2)))
    for k in range(4):
        eps = 10.0 ** rng.uniform(math.log10(500.0), math.log10(2000.0))
        hp = HorizonUnitsParams(epsilon=eps, m=eps / rng.uniform(1.5, 4.0), j=rng.randrange(21))
        ans = make_ansatz(hp, "regular")
        s, w = ans.c - ans.a - ans.b, complex(1.0 - rng.uniform(0.75, 0.85) ** 2)
        grid.append((ans.a, ans.b, 1.0 - s, w) if k % 2 == 0 else (ans.c - ans.a, ans.c - ans.b, 1.0 + s, w))
    return grid + [(_EPS3000.a, _EPS3000.b, _EPS3000.c, complex(0.7**2))]


def test_exact_ratio_pass_over_a_seeded_grid_of_precisions():
    # each series summed as _gauss_series sums it, retried above the loss
    # it measured, is within 2e-15 of the big-float series at 30 digits
    # where that is affordable (up to 600 bits of loss), and beyond that of
    # the pass 60 bits higher
    precisions, complex_c = [], 0
    for a, b, c, z in _exact_pass_grid():
        _, bits = _first_pass(a, b, c, z)
        while True:
            value, lost = special._fixed_point_sum(a, b, c, z, bits)
            if value is not None:
                break
            assert lost < math.inf, (a, b, c, z, bits)
            bits = 1 + math.ceil(lost)
        precisions.append(special._GUARD_BITS + bits)
        complex_c += c.imag != 0.0
        if bits <= 600:
            ref = complex(extended_series("hyp2f1", [a, b, c, z]))
        else:
            ref, _ = special._fixed_point_sum(a, b, c, z, bits + 60)
        assert rel(value, ref) < 2e-15, (a, b, c, z, bits)
    assert min(precisions) < 128 and max(precisions) > 3400 and complex_c == 4, precisions


def test_refused_continuation_at_epsilon_3000_is_rescued_within_the_budget(monkeypatch):
    # at r = 0.69 and 0.7 the continuation refuses near its start (a partner
    # solution z^20.5 outgrows F), and the rescue pass, ~6 000 terms at
    # ~3 400 bits or 21-22 M term-bits, is within _RESCUE_BUDGET.  Each value
    # is within 1e-12 of the pass 60 bits higher, and each point takes under
    # 5 s
    refusals = []
    continuation = special._ode_continuation

    def counted(*args):
        try:
            return continuation(*args)
        except NonConvergence as exc:
            refusals.append(exc)
            raise

    monkeypatch.setattr(special, "_ode_continuation", counted)
    for r in (0.69, 0.7):
        point = (_EPS3000.a, _EPS3000.b, _EPS3000.c, complex(r * r))
        terms, bits = _first_pass(*point)
        assert special._PASS_BUDGET < terms * (special._GUARD_BITS + bits) <= special._RESCUE_BUDGET
        start = time.perf_counter()
        got = hyp2f1(*point)
        assert time.perf_counter() - start < 5.0, r
        ref, _ = special._fixed_point_sum(*point, bits + 60)
        assert rel(got, ref) < 1e-12, r
    assert len(refusals) == 2 and all("outgrew its budget" in str(exc) for exc in refusals)


# the singular family at (epsilon, m, j) = (5000, 1250, 20): c = -19.5
_EPS5000 = make_ansatz(HorizonUnitsParams(epsilon=5000.0, m=1250.0, j=20), "singular")


def test_rescue_pass_sums_past_the_first_pass_term_cap():
    # at r = 0.7 the series needs 10 320 terms at ~5 700 bits, 59 M
    # term-bits: more terms than _MAX_TERMS, within _RESCUE_BUDGET.  The
    # continuation refuses, and the rescue pass counts its terms past
    # 10 000 and returns the double of the pass 60 bits higher, as it does
    # at r = 0.69 (9 883 terms)
    counts = []
    for r in (0.69, 0.7):
        point = (_EPS5000.a, _EPS5000.b, _EPS5000.c, complex(r * r))
        log_peak, terms = special._log2_peak(*point, 2 * special._MAX_TERMS)
        bits = 1 + math.ceil(log_peak) + special._SMALL_SUM_BITS
        assert terms * (special._GUARD_BITS + bits) <= special._RESCUE_BUDGET
        ref, _ = special._fixed_point_sum(*point, bits + 60, 2 * special._MAX_TERMS)
        assert hyp2f1(*point) == ref, r
        counts.append(terms)
    assert counts[0] < special._MAX_TERMS < counts[1], counts


def _running_point(eps, m, j, direction, r):
    """(a, b, c, z) of hyp2f1 in the running wave of the regular family."""
    ans = make_ansatz(HorizonUnitsParams(epsilon=eps, m=m, j=j), "regular")
    if direction == "out":
        return ans.a, ans.b, ans.a + ans.b - ans.c + 1.0, complex(1.0 - r * r)
    return ans.c - ans.a, ans.c - ans.b, ans.c - ans.a - ans.b + 1.0, complex(1.0 - r * r)


def _connection_series(a, b, c, z):
    """The two series of hyp2f1's z -> 1-z route: F(a, b; 1-s; w) and
    F(c-a, c-b; 1+s; w), s = c-a-b, w = 1-z."""
    s, w = c - a - b, 1.0 - z.real
    return (a, b, 1.0 - s, w), (c - a, c - b, 1.0 + s, w)


def _counted(monkeypatch, name):
    """The calls of special.<name> made from here on, as a list of their
    arguments; each call goes through."""
    calls = []
    function = getattr(special, name)
    monkeypatch.setattr(special, name, lambda *args: calls.append(args) or function(*args))
    return calls


# eval_running at (epsilon, m, j, r) = (1000, 500, 1, 0.5), the reference of
# test_wave_accuracy_grid_against_oracle (mpmath at 45 digits)
_E1000_RUNNING = {
    "out": complex(-1.0414040590141052, 1.8311459728695607),
    "in": complex(-1.0414040590141052, -1.8311459728695607),
}


@pytest.mark.parametrize("direction", ["out", "in"])
def test_running_wave_series_share_one_walk(monkeypatch, direction):
    # both connection series of the e1000_r0.5 running wave are over the
    # pass budget, and |1-c|^2 = 2.25 < |ab| w = 4.7e4: one plan and one walk
    # carry F and its Kummer partner, where each series used to walk alone.
    # The direct series at w = 0.75 is over the budget too, so the pair stays
    plans, walks = _counted(monkeypatch, "_plan_panels"), _counted(monkeypatch, "_walk")
    pairs = _counted(monkeypatch, "_kummer_continuation")
    ans = make_ansatz(HorizonUnitsParams(epsilon=1000.0, m=500.0, j=1), "regular")
    got = eval_running(ans, direction, 0.5)
    assert len(pairs) == 1 and len(plans) == 1 and len(walks) == 1
    assert len(walks[0][5]) == 2
    assert rel(got, _E1000_RUNNING[direction]) < 1e-12


def test_series_that_fail_the_partner_rule_walk_alone(monkeypatch):
    # the regular standing wave at (epsilon, m, j, r) = (2000, 500, 0, 0.8),
    # with Re a nudged off c/2 so that its two connection series are not
    # conjugates: both are over the pass budget, but s ~ 2000i makes
    # |1-c|^2 = 4e6 > |ab| w = 3.4e5.  Two walks, bit for bit the two direct
    # continuations
    ans = make_ansatz(HorizonUnitsParams(epsilon=2000.0, m=500.0, j=0), "regular")
    point = (ans.a + 2.0**-10, ans.b, ans.c, complex(0.8**2))
    first, second = _connection_series(*point)
    values = []
    for series in (first, second):
        value, walk = special._summed(*series)
        assert value is None and walk is not None
        values.append(special._ode_continuation(*series, walk[0]))
    pairs, walks = _counted(monkeypatch, "_kummer_continuation"), _counted(monkeypatch, "_walk")
    got = hyp2f1(*point)
    assert not pairs and len(walks) == 2
    g1, g2 = special.connection_gammas(*point[:3])
    s, w = point[2] - point[0] - point[1], first[3]
    assert got == g1 * values[0] + g2 * (w**s) * values[1]


def _standing_connection_grid(n, seed):
    """(epsilon, a, b, c, z) of n standing waves on hyp2f1's connection
    route, the two families in turn: epsilon log-uniform in [10, 2000],
    m = epsilon / U(1.5, 4), j <= 20 and r in (0.71, 0.995)."""
    rng = random.Random(seed)
    grid = []
    for k in range(n):
        eps = 10.0 ** rng.uniform(1.0, math.log10(2000.0))
        m, j, r = eps / rng.uniform(1.5, 4.0), rng.randrange(21), rng.uniform(0.71, 0.995)
        ans = make_ansatz(HorizonUnitsParams(epsilon=eps, m=m, j=j), ("regular", "singular")[k % 2])
        grid.append((eps, ans.a, ans.b, ans.c, complex(r * r)))
    return grid


def test_standing_waves_sum_one_conjugate_connection_series(monkeypatch):
    # the second connection series of a standing wave is the conjugate of
    # the first, and g2 of g1: each call sums the first series alone.  Its
    # value is within 1e-12 of the envelope |g1 F1| + |g2 w^s F2| of the
    # two-series sum, and where the big-float series is affordable (epsilon
    # <= 250) within that sum's own error against it, or within the Gamma
    # rounding connection_gammas states (~2^-52 times its log-Gamma sum)
    summed = _counted(monkeypatch, "_summed")
    for eps, a, b, c, z in _standing_connection_grid(48, 31):
        first, second = _connection_series(a, b, c, z)
        s, w = c - a - b, first[3]
        g1, g2 = special.connection_gammas(a, b, c)
        t1 = g1 * special._gauss_series(*first)
        t2 = g2 * (w**s) * special._gauss_series(*second)
        envelope = abs(t1) + abs(t2)
        summed.clear()
        got = hyp2f1(a, b, c, z)
        assert summed == [first], (eps, a, b, c, z)
        assert abs(got - (t1 + t2)) <= 1e-12 * envelope, (eps, a, b, c, z)
        if eps <= 250.0:
            ref = _grid_reference(a, b, c, z.real)
            rounding = 2.0**-52 * sum(abs(log_gamma(x)) for x in (c, s, c - a, c - b))
            err = abs(got - ref) / envelope
            assert err <= max(abs(t1 + t2 - ref) / envelope, rounding), (eps, a, b, c, z, err)


def test_running_waves_still_sum_both_connection_series(monkeypatch):
    # a running wave's second connection series is no conjugate of its
    # first: where hyp2f1 keeps the connection, both are read once, on the
    # float (both settle in doubles), fixed-point (the direct series at
    # w = 0.99 would need ~3 400 float terms) and paired-walk (the direct
    # series walks too) routes alike.  The other reads are the direct
    # series, priced and not taken, and the paired walk's partner start
    # values, away from w, under the start bound _CANCEL_START
    reads = _counted(monkeypatch, "_read")
    passes, pairs = _counted(monkeypatch, "_fixed_point_sum"), _counted(monkeypatch, "_kummer_continuation")
    for wave, route in [
        ((5.0, 2.5, 0, "out", 0.5), (0, 0)),
        ((200.0, 100.0, 1, "in", 0.1), (2, 0)),
        ((1000.0, 500.0, 1, "out", 0.5), (0, 1)),
    ]:
        point = _running_point(*wave)
        series = _connection_series(*point)
        reads.clear(), passes.clear(), pairs.clear()
        hyp2f1(*point)
        assert (sum(call[3] == series[0][3] for call in passes), len(pairs)) == route, wave
        assert [call[:4] for call in reads if call[3] == series[0][3]] == list(series), wave
        rest = [call for call in reads if call[3] != series[0][3]]
        assert all(call[:4] == point or call[4:] == (special._CANCEL_START,) for call in rest), wave


def test_running_wave_sums_its_own_series_where_that_is_cheaper(monkeypatch):
    # the out wave at (epsilon, m, j, r) = (40, 20, 0, 0.6): its first
    # connection series at r^2 needs a fixed-point pass of 9 657 term-bits,
    # and the direct series at w = 0.64, ~78 float terms of 40 term-bits,
    # is the cheaper side.  It settles in doubles: one series at w, no pass
    # and no walk, within 1e-14 of the big-float series (the connection
    # route's two passes and Gamma pair gave 2.7e-14)
    point = _running_point(40.0, 20.0, 0, "out", 0.6)
    floats, passes = _counted(monkeypatch, "_series_sum"), _counted(monkeypatch, "_fixed_point_sum")
    walks = [_counted(monkeypatch, name) for name in ("_ode_continuation", "_kummer_continuation")]
    got = hyp2f1(*point)
    assert [call for call in floats if call[3] == point[3]] == [point]
    assert not passes and not any(walks)
    assert rel(got, complex(extended_series("hyp2f1", list(point)))) < 1e-14


def test_running_wave_prices_an_unread_second_series_as_the_first(monkeypatch):
    # (40, 20, 0, 0.4) `out`: the first connection series needs a pass of
    # 4 653 term-bits, less than the ~198 float terms (7 924 term-bits) of
    # the direct series at w = 0.84.  Priced with its second series, not
    # read yet, as a float sum as long and a pass as dear (11 186), the
    # connection is the dearer side: the direct series is read, settles in
    # doubles, and the second series is never summed
    point = _running_point(40.0, 20.0, 0, "out", 0.4)
    floats, passes = _counted(monkeypatch, "_series_sum"), _counted(monkeypatch, "_fixed_point_sum")
    hyp2f1(*point)
    assert floats == [_connection_series(*point)[0], point] and not passes


def test_running_wave_near_the_origin_sums_no_direct_series(monkeypatch):
    # at (200, 100, 1, 0.1) the connection series at r^2 = 0.01 need two
    # passes of ~4 000 term-bits, less than the ~3 400 float terms (40
    # term-bits each) the direct series at w = 0.99 would sum before any
    # pass: it is not summed
    floats, passes = _counted(monkeypatch, "_series_sum"), _counted(monkeypatch, "_fixed_point_sum")
    for direction in ("out", "in"):
        point = _running_point(200.0, 100.0, 1, direction, 0.1)
        floats.clear(), passes.clear()
        hyp2f1(*point)
        assert floats and all(call[3] != point[3] for call in floats), direction
        assert len(passes) == 2 and all(call[3] != point[3] for call in passes), direction


# hyp2f1 of the running waves at (5, 2.5, 0, 0.5) before the direct series
# was priced against the connection pair, with the Gamma pair of log_gamma's
# Stirling series at |w| >= 10 (3.9e-15 and 3.8e-15 off mpmath)
_E5_RUNNING = {
    "out": complex(0.9106248125897611, -1.8995381984929458),
    "in": complex(0.9106248125897614, 1.8995381984929458),
}


@pytest.mark.parametrize("direction", ["out", "in"])
def test_running_wave_whose_connection_series_settle_in_doubles_keeps_its_bits(monkeypatch, direction):
    # both connection series at r^2 = 0.25 settle in doubles (29 terms
    # each), and the direct series at w = 0.75 is the longer read: the two
    # float series of the connection, in that order, and the same double
    point = _running_point(5.0, 2.5, 0, direction, 0.5)
    floats = _counted(monkeypatch, "_series_sum")
    passes = _counted(monkeypatch, "_fixed_point_sum")
    got = hyp2f1(*point)
    assert floats == list(_connection_series(*point)) and not passes
    assert repr(got) == repr(_E5_RUNNING[direction])


def _running_wave_grid(n, seed):
    """(epsilon, a, b, c, z) of n running waves, out and in taking turns:
    epsilon log-uniform in [5, 1000], mu in [1.2, 5], j <= 20 and r in
    (0.3, 0.75), where hyp2f1 takes the connection pair, the direct series
    or the paired walk."""
    rng = random.Random(seed)
    grid = []
    for k in range(n):
        eps = 10.0 ** rng.uniform(math.log10(5.0), 3.0)
        m, j, r = eps / rng.uniform(1.2, 5.0), rng.randrange(21), rng.uniform(0.3, 0.75)
        grid.append((eps, *_running_point(eps, m, j, ("out", "in")[k % 2], r)))
    return grid


def test_running_waves_over_a_seeded_grid_against_the_oracle():
    # whichever side the price rule takes, every value is within 1e-12 of
    # the big-float series at w
    for eps, a, b, c, z in _running_wave_grid(40, 2026):
        ref = complex(extended_series("hyp2f1", [a, b, c, z]))
        assert rel(hyp2f1(a, b, c, z), ref) < 1e-12, (eps, a, b, c, z)


def test_connection_check_sums_each_wave_at_its_own_argument(monkeypatch):
    # (epsilon, m, j, r) = (20, 10, 2, 0.65), the radius of the benchmark's
    # `wave --residuals` calls: the standing wave sums its series at
    # z = r^2, and the outgoing running wave (the incoming one is its
    # conjugate), whose connection series would sum it at r^2 again, sums
    # its own series at w = 1 - r^2
    r = 0.65
    ans = make_ansatz(HorizonUnitsParams(epsilon=20.0, m=10.0, j=2), "regular")
    summed = {}  # wave -> the z of its float series and passes
    for name in ("_series_sum", "_fixed_point_sum"):
        function = getattr(special, name)
        monkeypatch.setattr(special, name, lambda *args, f=function: summed[wave[0]].append(args[3]) or f(*args))
    wave = [None]
    for name in ("eval_standing", "eval_running"):
        function = getattr(waves, name)

        def tagged(*args, f=function, name=name):
            wave[0] = name
            summed.setdefault(name, [])
            return f(*args)

        monkeypatch.setattr(waves, name, tagged)
    residual = waves.connection_check(ans, r)[3]
    assert summed["eval_standing"] and set(summed["eval_standing"]) == {r * r}
    assert summed["eval_running"] and set(summed["eval_running"]) == {1.0 - r * r}
    assert residual < 1e-12


def _fresh_ansatz():
    """A wave ansatz whose store is empty: a cleared store for any triple."""
    return make_ansatz(HorizonUnitsParams(epsilon=10.0, m=5.0, j=1), "regular")


def test_connection_gammas_memo_returns_the_pair_it_would_compute(monkeypatch):
    # a seeded grid on one ansatz's store, each point called twice in a row,
    # the second call a hit; c = x + 0.0j is followed by x - 0.0j, and
    # log_gamma's branch follows the sign of that zero, so neither may be
    # handed the other's pair
    rng = random.Random(23)
    grid = []
    for _ in range(20):
        a = complex(rng.uniform(-3.0, 3.0), rng.uniform(-50.0, 50.0))
        b = complex(rng.uniform(-3.0, 3.0), rng.uniform(-50.0, 50.0))
        x = rng.uniform(-5.0, 5.0)
        grid += [(a, b, complex(x, 0.0)), (a, b, complex(x, -0.0))]
    fresh = [special.connection_gammas(*point) for point in grid]  # no store
    # repr of a double is exact and keeps the sign of a zero
    assert any(repr(plus) != repr(minus) for plus, minus in zip(fresh[::2], fresh[1::2]))
    calls = _counted(monkeypatch, "log_gamma")
    ans = _fresh_ansatz()
    for point, pair in zip(grid, fresh):
        for hit in (False, True):
            before = len(calls)
            assert repr(waves._kept(ans, special.connection_gammas, *point)) == repr(pair), point
            assert (len(calls) == before) == hit, point


def test_connection_gammas_beyond_double_range_refuse_naming_a_b_c():
    # where eps << m the log-Gamma sums pass the double range: the pair
    # refuses with a NonConvergence naming the coefficients and (a, b, c),
    # not an OverflowError, and the ansatz's store stays as it was; the
    # running wave's connection route and waves.connect refuse alike, and
    # keep no pair
    ans = make_ansatz(HorizonUnitsParams(epsilon=15.91219844874046, m=487.55227161580325, j=2), "regular")
    ans.kept[b"probe"] = (1j, 2j)
    kept = dict(ans.kept)
    running = (ans.c - ans.a, ans.c - ans.b, ans.c - ans.a - ans.b + 1.0)
    for a, b, c in [(ans.a, ans.b, ans.c), running]:
        named = re.escape(f"connection coefficients beyond double range at (a, b, c) = ({a:.6g}, {b:.6g}, {c:.6g})")
        with pytest.raises(NonConvergence, match=named):
            waves._kept(ans, special.connection_gammas, a, b, c)
        assert ans.kept == kept
    with pytest.raises(NonConvergence, match="connection coefficients beyond double range"):
        waves.connect(ans)
    assert ans.kept == kept
    with pytest.raises(NonConvergence, match="connection coefficients beyond double range"):
        eval_running(ans, "in", 0.5)
    assert not any(key[0] == "gammas" for key in ans.kept if isinstance(key, tuple))


@pytest.mark.parametrize("family", ["regular", "singular"])
def test_a_standing_grid_on_one_ansatz_computes_the_gamma_pair_once(monkeypatch, family):
    # 19 radii, five of them (r >= 0.75) on the connection route, make the
    # log_gamma calls of one connection_gammas call
    ans = make_ansatz(HorizonUnitsParams(epsilon=30.0, m=15.0, j=2), family)
    calls = _counted(monkeypatch, "log_gamma")
    special.connection_gammas(ans.a, ans.b, ans.c)  # no store: computed
    once = len(calls)
    calls.clear()
    for r in np.linspace(0.05, 0.95, 19):
        eval_standing(ans, float(r))
    assert once > 0 and len(calls) == once


def _standing_triples(n, seed):
    """(a, b, c) of n standing ansatzes, the two families in turn: epsilon
    log-uniform in [10, 2000], mu = epsilon / m in [1.5, 5] and j <= 20."""
    rng = random.Random(seed)
    triples = []
    for k in range(n):
        eps = 10.0 ** rng.uniform(1.0, math.log10(2000.0))
        hp = HorizonUnitsParams(epsilon=eps, m=eps / rng.uniform(1.5, 5.0), j=rng.randrange(21))
        ans = make_ansatz(hp, ("regular", "singular")[k % 2])
        triples.append((ans.a, ans.b, ans.c))
    return triples


def _gamma_sums(a, b, c):
    """The connection pair as its two log-Gamma sums, the formula
    connection_gammas runs for a triple that is not a standing one."""
    s = c - a - b
    lg_c = log_gamma(c)
    return (
        cmath.exp(lg_c + log_gamma(s) - log_gamma(c - a) - log_gamma(c - b)),
        cmath.exp(lg_c + log_gamma(-s) - log_gamma(a) - log_gamma(b)),
    )


def _log_gamma_args(*args):
    """The arguments log_gamma is called with for args in turn, each
    reflection's recursion at 1 - x included, as reprs (bit for bit)."""
    calls = []
    for x in args:
        calls += [repr((x,))] + ([repr((1.0 - x,))] if x.real < 0.5 else [])
    return calls


def test_a_standing_triple_takes_the_second_gamma_as_the_conjugate_of_the_first(monkeypatch):
    # both standing families: g1 is the sum it always was, bit for bit, and
    # g2 its conjugate, from log_gamma at c, c-a-b, c-a and c-b alone
    triples = _standing_triples(60, 43)
    sums = [_gamma_sums(*t) for t in triples]
    calls = _counted(monkeypatch, "log_gamma")
    for (a, b, c), (g1_sum, _) in zip(triples, sums):
        calls.clear()
        g1, g2 = special.connection_gammas(a, b, c)
        assert repr(g1) == repr(g1_sum), (a, b, c)
        assert repr(g2) == repr(g1.conjugate()), (a, b, c)
        assert list(map(repr, calls)) == _log_gamma_args(c, c - a - b, c - a, c - b), (a, b, c)


def test_every_other_triple_sums_both_gammas_bit_for_bit(monkeypatch):
    # the running triples, a complex c, Re(c-a-b) != 0, and a zero of a's
    # imaginary part whose sign breaks the bitwise conjugacy of c-a: each
    # pair is the two log-Gamma sums, bit for bit, from all seven log_gamma
    others = []
    for a, b, c in _standing_triples(30, 47):
        s = c - a - b
        others += [
            (a, b, a + b - c + 1.0),
            (c - a, c - b, s + 1.0),
            (a, b, c + 0.5j),
            (a, b, c + 0.25),
            (complex(a.real, 0.0), b, c),
        ]
    sums = [_gamma_sums(*t) for t in others]
    calls = _counted(monkeypatch, "log_gamma")
    for (a, b, c), pair in zip(others, sums):
        calls.clear()
        assert repr(special.connection_gammas(a, b, c)) == repr(pair), (a, b, c)
        s = c - a - b
        assert list(map(repr, calls)) == _log_gamma_args(c, s, c - a, c - b, -s, a, b), (a, b, c)


def test_refused_paired_walk_falls_back_to_one_walk_per_series(monkeypatch):
    # a paired walk that refuses leaves each series to its own walk and
    # rescue: the same double as those, and where they refuse, the message
    # of the first series' refusal
    point = _running_point(1000.0, 500.0, 1, "out", 0.5)
    first, second = _connection_series(*point)
    g1, g2 = special.connection_gammas(*point[:3])
    s, w = point[2] - point[0] - point[1], first[3]
    alone = g1 * special._gauss_series(*first) + g2 * (w**s) * special._gauss_series(*second)
    walk = special._walk

    def refusing(*args):
        if len(args[5]) == 2:
            raise NonConvergence("refused")
        return walk(*args)

    monkeypatch.setattr(special, "_walk", refusing)
    pairs = _counted(monkeypatch, "_kummer_continuation")
    assert hyp2f1(*point) == alone
    assert len(pairs) == 1
    monkeypatch.setattr(special, "_AMPLIFY_LIMIT", 1.0)
    monkeypatch.setattr(special, "_RESCUE_BUDGET", 0)
    with pytest.raises(NonConvergence) as alone_refusal:
        special._gauss_series(*first)
    with pytest.raises(NonConvergence) as refusal:
        hyp2f1(*point)
    assert str(refusal.value) == str(alone_refusal.value)
    assert "outgrew its budget" in str(refusal.value) and len(pairs) == 2


def _walk_from_own_starts(eps, m, j, r):
    """The equation of the first connection series of the running wave
    (a, b, c, w), the panel ends and the (start, G, G') of F and of its
    Kummer partner, each at its own start: the partner nearer 0 than
    |1-c|^2/|ab|, where _kummer_continuation would start it."""
    first, second = _connection_series(*_running_point(eps, m, j, "out", r))
    a, b, c, w = first
    e = 1.0 - c
    q, f, df = special._start(*first, special._summed(*first)[1][0])
    q2, f2, df2 = special._start(*second, special._summed(*second)[1][0])
    assert q2 * w < abs(e) ** 2 / abs(a * b)
    ends = np.unique(special._plan_panels(a * b, complex(w), min(q, q2) * w) + [max(q, q2) * w])
    t0 = q2 * w
    dg2 = t0**e * (e / t0 * f2 + df2 * (second[0] * second[1] / second[2]))
    starts = [(q * w, f, df * (a * b / c)), (t0, t0**e * f2, dg2)]
    return (a, b, c, w), ends, starts


def test_paired_walk_checks_the_partner_from_its_own_start(monkeypatch):
    # a partner started at its own start, nearer 0 than |1-c|^2/|ab|:
    # at (epsilon, m, j, r) = (1000, 250, 20, 0.5) its amplification check
    # refuses the walk, where F alone on the same panels returns; at
    # (2000, 1333, 20, 0.7) its Chebyshev tails halve panels that F's accept
    (a, b, c, w), ends, starts = _walk_from_own_starts(1000.0, 250.0, 20, 0.5)
    assert cmath.isfinite(special._walk(a, b, c, 1 + 0j, ends, starts[:1])[0])
    with pytest.raises(NonConvergence, match="outgrew its budget"):
        special._walk(a, b, c, 1 + 0j, ends, starts)
    (a, b, c, w), ends, starts = _walk_from_own_starts(2000.0, 2000.0 / 1.5, 20, 0.7)
    solves = _solves(monkeypatch)
    special._walk(a, b, c, 1 + 0j, ends, starts[:1])
    alone = sum(solves)
    solves.clear()
    special._walk(a, b, c, 1 + 0j, ends, starts)
    assert sum(solves) > alone


def test_hyp2f1_continuation_retakes_steps_that_excite_the_fast_partner():
    # |c| = 1e4 against |ab| = 2.5e5: the partner z^(1-c) varies ~30 times
    # faster than the local frequency that sizes the panels, while F is the
    # slow branch.  The collocation panels (68 planned) keep their span, and
    # no tail test splits one.  The series cancels by only 2.7e3, so hyp2f1
    # sums it in fixed point; the continuation is called directly.  Value
    # from mpmath at 40 digits.
    expected = complex(-0.7244332551908012, 0.7120182517476774)
    a, b, c, z = 0.5 - 500j, 0.3 - 500j, 1 - 1e4j, 0.4 + 0j
    assert rel(hyp2f1(a, b, c, z), expected) < 1e-11
    _, cancel, _, _ = special._series_sum(a, b, c, z)
    assert rel(special._ode_continuation(a, b, c, z, cancel), expected) < 1e-11


def test_hyp2f1_continuation_is_right_or_refuses():
    # Here F falls to ~1e-104 along the ray while a partner solution grows,
    # so double-precision continuation amplifies its rounding enormously.
    # It must return the right value or raise NonConvergence, never noise.
    a, b, c, z = 0.11 - 251.55j, 0.07 - 278.94j, 4.55 - 151.13j, 0.236 - 0.470j
    expected = complex(-8.178844052709164e-104, -1.3256098175162862e-104)
    try:
        got = hyp2f1(a, b, c, z)
    except NonConvergence:
        return
    assert rel(got, expected) < 1e-10


def _solves(monkeypatch):
    """The _solve_panels calls made from here on, as a list of their panel
    counts; each call goes through to the solve."""
    calls = []
    solve = special._solve_panels
    monkeypatch.setattr(special, "_solve_panels", lambda *args: calls.append(len(args[4])) or solve(*args))
    return calls


def _halved(monkeypatch, a, b, c, z, evaluate=hyp2f1):
    """evaluate(a, b, c, z), and the number of panels the continuation
    halved: each adds two panels to those its plans hold."""
    plans = []
    plan = special._plan_panels
    monkeypatch.setattr(special, "_plan_panels", lambda *args: plans.append(plan(*args)) or plans[-1])
    solves = _solves(monkeypatch)
    value = evaluate(a, b, c, z)
    return value, (sum(solves) - sum(len(ends) - 1 for ends in plans)) // 2


def _continued(a, b, c, z):
    """The continuation to F(a, b; c; z), called directly with the
    cancellation its float series measures."""
    _, cancel, _, _ = special._series_sum(a, b, c, z)
    return special._ode_continuation(a, b, c, z, cancel)


def test_hyp2f1_continuation_halves_panels_on_a_short_plan(monkeypatch):
    # F(1/4, 1/4 - 400i; 1/2; 0.1): the series cancels by 3e15, and the
    # continuation plans 7 panels.  Two of them keep Chebyshev tails above
    # 1e-14 of F's amplitude and are halved.  hyp2f1 sums this series in
    # fixed point, so the continuation is called directly.  Value from
    # mpmath at 40 digits.
    expected = complex(0.05939001836797795, 0.07784048444291544)
    got, halved = _halved(monkeypatch, 0.25, 0.25 - 400j, 0.5, 0.1, _continued)
    assert halved >= 1
    assert rel(got, expected) < 1e-11


def test_hyp2f1_continuation_halves_a_panel_whose_tail_is_too_large(monkeypatch):
    # F(1 - 300i, 1 - 200i; 2; 0.4): a plan of 75 panels, so collocation.
    # Some panels keep Chebyshev tails above 1e-14 of F's amplitude and are
    # halved.  Value from mpmath at 40 digits.
    expected = complex(-0.00012142001140662045, -0.0002379091929307043)
    got, halved = _halved(monkeypatch, 1 - 300j, 1 - 200j, 2.0, 0.4)
    assert halved >= 1
    assert rel(got, expected) < 1e-11


@pytest.mark.parametrize("family", ["regular", "singular"])
@pytest.mark.parametrize("j", [1, 8])
def test_hyp2f1_continuation_solves_each_round_of_halves_in_one_call(monkeypatch, family, j):
    # epsilon=200, m=100 at z=0.49: the continuation halves panels, and the
    # walk solves the plan in one call and every half of a round in one
    # more.  hyp2f1 sums these series in fixed point, so the continuation is
    # called directly
    ans = make_ansatz(HorizonUnitsParams(epsilon=200.0, m=100.0, j=j), family)
    point = (ans.a, ans.b, ans.c, 0.49 + 0j)
    solves = _solves(monkeypatch)
    got = _continued(*point)
    assert len(solves) <= 2, solves
    assert rel(got, complex(extended_series("hyp2f1", list(point)))) < 1e-12


def test_hyp2f1_continuation_start_shrinks_past_an_over_budget_series(monkeypatch):
    # epsilon=1000, m=500, j=1 regular family at z=0.25, cancellation 1e4:
    # the first start, at z/4, needs more than 150 series terms.  That
    # start counts as a failed one and the next is taken further in, so a
    # budget of 150 still returns the value the default budget gives, and a
    # budget below the ~100-panel plan refuses on the plan.
    ans = make_ansatz(HorizonUnitsParams(epsilon=1000.0, m=500.0, j=1), "regular")
    expected = special._ode_continuation(ans.a, ans.b, ans.c, 0.25, 1e4)
    monkeypatch.setattr(special, "_MAX_TERMS", 150)
    assert rel(special._ode_continuation(ans.a, ans.b, ans.c, 0.25, 1e4), expected) < 1.1e-14
    monkeypatch.setattr(special, "_MAX_TERMS", 96)
    with pytest.raises(NonConvergence, match="more than 96 panels"):
        special._ode_continuation(ans.a, ans.b, ans.c, 0.25, 1e4)


def _planned_panels(monkeypatch, a, b, c, z, cancel):
    """Panels the continuation to F(a, b; c; z) plans from a series at z
    that cancelled by cancel."""
    plans = []
    plan = special._plan_panels
    with monkeypatch.context() as m:
        m.setattr(special, "_plan_panels", lambda *args: plans.append(plan(*args)) or plans[-1])
        special._ode_continuation(a, b, c, z, cancel)
    return len(plans[0]) - 1


def test_hyp2f1_continuation_honours_term_budget(monkeypatch):
    # epsilon=1000, m=500, j=1 outgoing-wave series at 0.4: the float series
    # needs ~250 terms, more than the ~100 panels the continuation plans, so
    # the budget is set on the continuation itself: one panel short of the
    # plan refuses, the plan itself goes through
    s = math.sqrt(500.0**2 - 0.25)
    a = complex(1.25, 0.5 * (s - 1000.0))
    b = complex(1.25, 0.5 * (-s - 1000.0))
    c = a + b - 1.5
    _, cancel, _, _ = special._series_sum(a, b, c, 0.4)
    panels = _planned_panels(monkeypatch, a, b, c, 0.4, cancel)
    monkeypatch.setattr(special, "_MAX_TERMS", panels - 1)
    with pytest.raises(NonConvergence, match="continuation"):
        special._ode_continuation(a, b, c, 0.4, cancel)
    monkeypatch.setattr(special, "_MAX_TERMS", panels)
    assert cmath.isfinite(special._ode_continuation(a, b, c, 0.4, cancel))


def test_hyp2f1_continuation_refuses_an_over_budget_plan_before_solving(monkeypatch):
    # epsilon=1000, r=0.5 standing wave: with the budget below its plan the
    # continuation refuses before it solves a single panel.  The cancellation
    # of an overflowing series (inf) starts it at z/308, where the start
    # series need fewer terms than the plan has panels.
    ans = make_ansatz(HorizonUnitsParams(epsilon=1000.0, m=500.0, j=1), "regular")
    panels = _planned_panels(monkeypatch, ans.a, ans.b, ans.c, 0.25, math.inf)

    def no_solve(*args):
        raise AssertionError("a panel was solved")

    monkeypatch.setattr(special, "_solve_panels", no_solve)
    monkeypatch.setattr(special, "_MAX_TERMS", panels - 1)
    start = time.perf_counter()
    with pytest.raises(NonConvergence, match="continuation: more than"):
        special._ode_continuation(ans.a, ans.b, ans.c, 0.25, math.inf)
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("eps, r", [(200.0, 0.5), (1000.0, 0.1)])
def test_hyp2f1_continuation_solves_its_panels_in_batches(monkeypatch, eps, r):
    # one continuation of ~25 planned panels makes at most 3 batched solves,
    # where one solve per panel would make ~25, and at least one.  hyp2f1
    # sums these series in fixed point, so the continuation is called
    # directly
    ans = make_ansatz(HorizonUnitsParams(epsilon=eps, m=eps / 2.0, j=1), "regular")
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    _continued(ans.a, ans.b, ans.c, complex(r * r))
    assert 1 <= len(solves) <= 3, solves


def test_runtime_path_does_not_import_mpmath():
    # mpmath serves the big-float oracle only, and the oracles check special
    # without sharing its code: the double-precision route loads neither, and
    # the CLI, which needs the integrators and the classifier, loads no mpmath
    fixture = Path(dswave.__file__).parent / "fixtures" / "de_sitter_radial.json"
    code = (
        "import sys\n"
        "from dswave import special, waves\n"
        "from dswave.model import HorizonUnitsParams\n"
        "hp = HorizonUnitsParams(epsilon=1000.0, m=500.0, j=1)\n"
        "waves.eval_running(waves.make_ansatz(hp, 'regular'), 'out', 0.5)\n"
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
        "assert 'dswave.oracle' not in sys.modules, 'dswave.oracle was imported'\n"
        "from dswave import cli\n"
        "assert 'mpmath' not in sys.modules, 'import dswave.cli imported mpmath'\n"
        "reflect = ['reflect', '--epsilon', '20', '--m', '10', '--j', '1', '--format', 'json']\n"
        f"for argv in (reflect, reflect + ['--no-flux'], ['classify', {str(fixture)!r}]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert 'mpmath' not in sys.modules, f'{argv[0]} imported mpmath'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dswave.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


# points of _continuation_grid before its running waves
_STANDING_GRID = 26


def _continuation_grid():
    """38 seeded (a, b, c, z).  26 of the two standing-wave families:
    epsilon log-uniform in [10, 1e4], mu in [1.5, 5], j < 4, the families
    taking turns; points 0-11 on the direct route (z < 1/2), 12-23 on the
    z -> 1-z connection, and 24-25 at complex z, with epsilon up to 316
    there so that F stays within double range.  Then 12 running waves, out
    and in taking turns, whose two connection series share one walk:
    epsilon log-uniform in [350, 2000], mu in [1.5, 4], j <= 20 and r in
    [0.3, 0.7]."""
    rng = random.Random(2026)
    grid = []
    for k in range(_STANDING_GRID):
        eps = 10.0 ** (rng.uniform(1.0, 4.0) if k < 24 else rng.uniform(1.5, 2.5))
        mu = rng.uniform(1.5, 5.0)
        j = rng.randrange(4)
        family = ("regular", "singular")[k % 2]
        ans = make_ansatz(HorizonUnitsParams(epsilon=eps, m=eps / mu, j=j), family)
        r = rng.uniform(0.72, 0.98) if 12 <= k < 24 else rng.uniform(0.2, 0.7)
        z = cmath.rect(r * r, rng.uniform(-0.6, 0.6)) if k >= 24 else r * r
        grid.append((ans.a, ans.b, ans.c, z))
    while len(grid) < _STANDING_GRID + 12:
        eps = 10.0 ** rng.uniform(math.log10(350.0), math.log10(2000.0))
        m, j, r = eps / rng.uniform(1.5, 4.0), rng.randrange(21), rng.uniform(0.3, 0.7)
        point = _running_point(eps, m, j, ("out", "in")[len(grid) % 2], r)
        # kept where both series' first passes are over the pass budget and
        # |1-c|^2 < |ab| w for the first one: where the walk is shared
        first, second = _connection_series(*point)
        a, b, c, w = first
        priced = [t * (special._GUARD_BITS + bits) for t, bits in (_first_pass(*first), _first_pass(*second))]
        if min(priced) > special._PASS_BUDGET and abs(1.0 - c) ** 2 < abs(a * b) * w:
            grid.append(point)
    return grid


def _grid_reference(a, b, c, z):
    """The big-float series at 30 digits; beyond |z| = 1/2, DLMF 15.8.4 with
    mpmath's Gamma at 40 digits."""
    if abs(z) <= 0.5:
        return complex(extended_series("hyp2f1", [a, b, c, z]))
    with mp.workdps(40):
        a, b, c = mp.mpc(a), mp.mpc(b), mp.mpc(c)
        s, w = c - a - b, 1 - mp.mpf(z)
        g1 = mp.gamma(c) * mp.gamma(s) / (mp.gamma(c - a) * mp.gamma(c - b))
        g2 = mp.gamma(c) * mp.gamma(-s) / (mp.gamma(a) * mp.gamma(b))
        f1 = extended_series("hyp2f1", [a, b, 1 - s, w])
        f2 = extended_series("hyp2f1", [c - a, c - b, 1 + s, w])
        return complex(g1 * f1 + g2 * w**s * f2)


# _grid_reference of the points whose reference takes over ~0.25 s (up to
# 13 s at epsilon ~ 1e4, where the series carries thousands of digits)
_GRID_FROZEN = {
    1: complex(-406029054.736769, -999227410.3856236),
    4: complex(-1.3179247913372077e-12, -1.3275241381480602e-11),
    6: complex(-9.53863717356402e-07, -2.391564164148055e-05),
    8: complex(-5.122835832614592e-09, 6.624781538509916e-09),
    10: complex(-0.0002425779623562546, -4.17476293742505e-05),
    11: complex(-7095470.127095316, -26598800.44861939),
    14: complex(-1.5105720556105663e-05, -4.2635281733073754e-05),
    17: complex(4923555.928208474, -9264145.43606007),
    21: complex(-215.21111945234153, -312.320508240032),
}


def test_hyp2f1_over_a_seeded_continuation_grid():
    # every point within 1e-10 of its reference, hyp2f1 called directly; at
    # large epsilon both routes end in the continuation
    for k, (a, b, c, z) in enumerate(_continuation_grid()[:_STANDING_GRID]):
        ref = _GRID_FROZEN[k] if k in _GRID_FROZEN else _grid_reference(a, b, c, z)
        assert rel(hyp2f1(a, b, c, z), ref) < 1e-10, (k, a, b, c, z)


def _exact_series(a, b, c, z):
    """The Gauss series from a fixed-point pass 60 bits above the first
    pass hyp2f1 prices, retried above the loss it measures."""
    _, bits = _first_pass(a, b, c, z)
    while True:
        value, lost = special._fixed_point_sum(a, b, c, z, bits + 60)
        if value is not None:
            return value
        bits = 1 + math.ceil(lost)


def _paired_reference(a, b, c, z):
    """DLMF 15.8.4 with mpmath's Gamma at 40 digits and each series from
    _exact_series (taking the double parameters hyp2f1 gives it as exact)."""
    first, second = _connection_series(a, b, c, z)
    f1, f2 = _exact_series(*first), _exact_series(*second)
    with mp.workdps(40):
        a, b, c = mp.mpc(a), mp.mpc(b), mp.mpc(c)
        s = c - a - b
        g1 = mp.gamma(c) * mp.gamma(s) / (mp.gamma(c - a) * mp.gamma(c - b))
        g2 = mp.gamma(c) * mp.gamma(-s) / (mp.gamma(a) * mp.gamma(b))
        return complex(g1 * f1 + g2 * mp.mpf(first[3]) ** mp.mpc(second[2] - 1) * f2)


def test_hyp2f1_over_the_paired_running_waves_of_the_continuation_grid(monkeypatch):
    # each running wave's two series walk together on the connection route,
    # called directly, and each value is within 1e-11 of its reference; the
    # Gamma rounding of connection_gammas alone reaches ~5e-12 at epsilon =
    # 2000.  hyp2f1 takes that route where the direct series at z walks too,
    # else the direct series, whose first pass is priced within the budget
    # (6 of the 12 points), and is held to the same reference
    pairs = []
    pair = special._kummer_continuation
    monkeypatch.setattr(special, "_kummer_continuation", lambda *args: pairs.append(pair(*args)) or pairs[-1])
    for k, (a, b, c, z) in enumerate(_continuation_grid()[_STANDING_GRID:]):
        first, second = _connection_series(a, b, c, z)
        ref = _paired_reference(a, b, c, z)
        walked = len(pairs)
        got = special._connection(a, b, c, c - a - b, first, second, special._read(*first), None)
        assert len(pairs) == walked + 1 and pairs[-1] is not None, k
        assert rel(got, ref) < 1e-11, (k, a, b, c, z)
        assert rel(hyp2f1(a, b, c, z), ref) < 1e-11, (k, a, b, c, z)


def test_hyp2f1_pole_and_domain_errors():
    with pytest.raises(PoleError):
        hyp2f1(0.5, 0.5, -1.0, 0.3)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.5, 1.2)


def test_hyp2f1_nonconvergence_with_tiny_budget(monkeypatch):
    monkeypatch.setattr(special, "_MAX_TERMS", 4)
    with pytest.raises(NonConvergence):
        hyp2f1(0.5 + 2j, 0.5 - 2j, 1.5, 0.45)


# ----------------------------------------------------- kept float term ratios


def _kept_ratios(store, a, b, c):
    """The ratios `store` keeps for (a, b, c), bit for bit, else ()."""
    entry = None if store is None else store.get(special._bits(a, b, c))
    return () if entry is None else entry[0]


def _route_grids():
    """(name, hyp2f1's (a, b, c, z) at r, radii) on each route whose float
    series read or keep term ratios: the direct float series, fixed-point
    passes with their float tails, the conjugate connection series of a
    standing wave, a running wave's priced pair and the continuation's start
    series."""
    def standing(eps, m, j, family):
        ans = make_ansatz(HorizonUnitsParams(epsilon=eps, m=m, j=j), family)
        return lambda r: (ans.a, ans.b, ans.c, complex(r * r))

    return [
        ("direct", standing(10.0, 5.0, 1, "regular"), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]),
        ("fixed point", standing(200.0, 100.0, 1, "regular"), [0.3, 0.35, 0.4, 0.45, 0.5]),
        ("conjugate connection", standing(30.0, 15.0, 1, "singular"), [0.75, 0.8, 0.85, 0.9, 0.95]),
        ("priced pair", lambda r: _running_point(40.0, 20.0, 0, "out", r), [0.3, 0.4, 0.5, 0.6, 0.7]),
        ("continuation start", standing(500.0, 250.0, 8, "regular"), [0.6, 0.65, 0.7]),
    ]


def _kept_reads(monkeypatch):
    """Counts of the float series and float tails that read kept ratios."""
    reads = {"series": 0, "tail": 0}
    for name, kind in (("_series_sum", "series"), ("_float_tail", "tail")):
        def counted(*args, function=getattr(special, name), kind=kind):
            reads[kind] += bool(_kept_ratios(special.kept_store.get(), *args[:3]))
            return function(*args)

        monkeypatch.setattr(special, name, counted)
    return reads


def test_kept_ratios_give_the_bits_of_a_cleared_slot_in_any_order(monkeypatch):
    # every route gives, at every radius, the double it gives with no store,
    # whether the grid runs up, down or shuffled on a fresh ansatz's store;
    # the grids read kept ratios in the float series and in the float tails
    # of the fixed-point passes
    reads = _kept_reads(monkeypatch)
    rng = random.Random(29)
    for name, point, radii in _route_grids():
        bare = {r: repr(hyp2f1(*point(r))) for r in radii}
        shuffled = rng.sample(radii, len(radii))
        for order in (radii, radii[::-1], shuffled):
            ans = _fresh_ansatz()
            got = {r: repr(waves._kept(ans, hyp2f1, *point(r))) for r in order}
            assert got == bare, (name, order)
    assert reads["series"] and reads["tail"], reads


def test_kept_ratios_are_keyed_by_the_bits_of_a_b_and_c():
    # a triple equal in value to a kept one, but with a zero of the other
    # sign, reads no ratios: with the kept triple's entry holding ratios that
    # are not its own, it still gives the bits it gives with no store at all
    c_plus, c_minus = complex(1.5, 0.0), complex(1.5, -0.0)
    a, b, z, z2 = complex(0.25, 3.0), complex(0.25, -3.0), complex(0.3), complex(0.35)
    assert c_plus == c_minus and special._bits(a, b, c_plus) != special._bits(a, b, c_minus)
    alone = {zk: repr(special._series_sum(a, b, c_minus, zk)) for zk in (z, z2)}
    ans = _fresh_ansatz()
    bogus = tuple(complex(k + 2.0, 1.0) for k in range(special._MAX_TERMS))
    ans.kept[special._bits(a, b, c_plus)] = (bogus, b"", None)
    assert _kept_ratios(ans.kept, a, b, c_plus) is bogus
    assert _kept_ratios(ans.kept, a, b, c_minus) == ()
    for zk in (z, z2, z):  # its own ratios kept at z2, then read at z
        assert repr(waves._kept(ans, special._series_sum, a, b, c_minus, zk)) == alone[zk]
    assert _kept_ratios(ans.kept, a, b, c_minus) and _kept_ratios(ans.kept, a, b, c_plus) is bogus


def test_a_repeated_series_returns_the_result_of_its_last_sum():
    # a series on the triple and z of the last one on that triple returns
    # that one's result; z with a zero of the other sign is summed again
    a, b, c = complex(0.25, 3.0), complex(0.25, -3.0), complex(1.5)
    z_plus, z_minus = complex(0.3, 0.0), complex(0.3, -0.0)
    ans = _fresh_ansatz()

    def series(z):
        return waves._kept(ans, special._series_sum, a, b, c, z)

    first = series(z_plus)
    assert series(z_plus) is first
    again = series(z_minus)
    assert again is not first and series(z_minus) is again
    assert repr(again) == repr(_series_sum_before_kept_ratios(a, b, c, z_minus))


def _series_sum_before_kept_ratios(a, b, c, z):
    """_series_sum as it was before it kept term ratios, verbatim."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    peak = 1.0
    small_streak = 0
    try:
        for n in range(special._MAX_TERMS):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
            total += term
            mag = abs(term)
            if mag > peak:
                if mag == math.inf:
                    return total, math.inf, math.inf, n + 1
                peak = mag
            if term == 0.0:
                break
            if mag <= special._REL_TOL * abs(total):
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
        else:
            raise NonConvergence(
                f"2F1 series: no convergence after {special._MAX_TERMS} terms "
                f"(|z|={abs(z):.3g}, last |term|={abs(term):.3g})"
            )
        size = abs(total)
    except OverflowError:
        return total, math.inf, math.inf, n + 1
    if not 0.0 < size < math.inf:
        return total, math.inf, peak, n + 1
    return total, peak / size, peak, n + 1


def test_kept_ratios_keep_the_overflow_results():
    # a term that overflows, and a sum of two terms of 1.5e308 at right
    # angles, whose abs raises OverflowError, give the 4-tuple of the loop
    # before ratios were kept, with no store, on a triple's first series, on
    # one that keeps ratios and on one that reads them;
    # so do falling, terminating and cancelling series, and slow ones whose
    # sum is many times their largest term, which stop on terms the skipped
    # stopping test must not miss
    big = complex(1.5e308)
    points = [
        (complex(1e300), complex(1.0), complex(1.0), complex(1.5)),  # the second term is inf
        (big, -1.0 + 4j / big, complex(1.0), complex(1.0)),  # -1.5e308 (1 + i)
        _FALLING_POINT,
        _NEGATIVE_C_HUMP,
        (complex(-3.0), complex(2.5, 1.0), complex(0.5), complex(0.9)),  # terminates
        (complex(1.0), complex(1.0), complex(2.0), complex(0.99)),  # -log(0.01) / 0.99
        (complex(1.0), complex(1.0), complex(1.0), complex(0.997)),  # 1 / 0.003 in ~9 500 terms
    ]
    rng = random.Random(2029)
    for _ in range(20):
        a, b = complex(rng.uniform(-5.0, 5.0), rng.uniform(-30.0, 30.0)), complex(rng.uniform(0.1, 3.0))
        points.append((a, b, complex(rng.uniform(0.5, 4.0), rng.choice([0.0, 2.0])), complex(rng.uniform(0.5, 0.99))))
    for point in points:
        expected = repr(_series_sum_before_kept_ratios(*point))
        ans = _fresh_ansatz()
        got = [repr(special._series_sum(*point)), repr(waves._kept(ans, special._series_sum, *point))]
        for _ in range(2):  # the series at z / 2 keeps ratios, then reads them
            waves._kept(ans, special._series_sum, *point[:3], 0.5 * point[3])
            got.append(repr(waves._kept(ans, special._series_sum, *point)))
        assert got == [expected] * 4, point


def test_kept_ratios_under_interleaving_threads():
    # threads summing grids on different triples into one shared ansatz's
    # store, more threads than cores and the interpreter switching threads
    # every microsecond, get the bits of a serial run
    grids = [_route_grids()[k] for k in (0, 2, 3)]
    serial = [[repr(hyp2f1(*point(r))) for r in radii * 3] for _, point, radii in grids]
    results = [None] * len(grids)
    barrier = threading.Barrier(len(grids), timeout=60)

    def worker(k, ans):
        _, point, radii = grids[k]
        barrier.wait()
        results[k] = [repr(waves._kept(ans, hyp2f1, *point(r))) for r in radii * 3]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            results[:] = [None] * len(grids)
            ans = _fresh_ansatz()
            threads = [threading.Thread(target=worker, args=(k, ans)) for k in range(len(grids))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == serial
            assert any(_kept_ratios(ans.kept, *point(radii[0])[:3]) for _, point, radii in grids)
    finally:
        sys.setswitchinterval(interval)


def test_kept_ratios_stay_within_the_term_cap_after_a_rescue_pass(monkeypatch):
    # at epsilon = 5000, r = 0.7 the rescue pass sums 10 320 terms, its
    # float tail past _MAX_TERMS, reading the ratios the continuation's start
    # series kept; no entry of the ansatz's store keeps more than _MAX_TERMS
    # of them
    tails = []
    float_tail = special._float_tail
    monkeypatch.setattr(special, "_float_tail", lambda *args: tails.append(float_tail(*args)) or tails[-1])
    ans = make_ansatz(HorizonUnitsParams(epsilon=5000.0, m=1250.0, j=20), "singular")
    waves.eval_hypergeometric(ans, complex(0.7**2))
    assert any(rest is not None and stop > special._MAX_TERMS for rest, stop in tails), tails
    kept = [entry[0] for key, entry in ans.kept.items() if isinstance(key, bytes)]
    assert any(kept) and all(len(ratios) <= special._MAX_TERMS for ratios in kept), [len(r) for r in kept]


def _module_state():
    """repr of each of special's module globals that is not callable."""
    return {
        name: repr(value)
        for name, value in vars(special).items()
        if not callable(value) and not isinstance(value, types.ModuleType)
    }


def _wave_grid_pass():
    """Each wave kind over an eps x r grid, a fresh ansatz per value, as one
    pass of the benchmark's wave grid makes them."""
    values = []
    for eps in (10.0, 50.0, 200.0, 1000.0):
        for r in (0.1, 0.5, 0.9, 0.99):
            hp = HorizonUnitsParams(epsilon=eps, m=eps / 2.5, j=1)
            values += [eval_standing(make_ansatz(hp, family), r) for family in ("regular", "singular")]
            values += [eval_running(make_ansatz(hp, "regular"), direction, r) for direction in ("out", "in")]
            values.append(waves.connection_residual(make_ansatz(hp, "singular"), r))
    return values


def test_grids_leave_the_module_state_of_special_as_it_was():
    # the ODE check's 19 radii on one ansatz and a wave-grid pass keep what
    # they keep in their ansatzes' stores, none of it in special
    state = _module_state()
    ans = make_ansatz(HorizonUnitsParams(epsilon=21.0, m=21.0 / 2.5, j=0), "regular")
    [eval_standing(ans, float(r)) for r in np.linspace(0.05, 0.95, 19)]
    _wave_grid_pass()
    assert ans.kept and special.kept_store.get() is None
    assert _module_state() == state


def test_an_ansatz_store_is_freed_with_the_ansatz():
    # after a grid the store is referenced by its ansatz alone: a probe kept
    # in it goes when the ansatz does
    class Probe:
        pass

    ans = make_ansatz(HorizonUnitsParams(epsilon=30.0, m=15.0, j=1), "singular")
    [eval_standing(ans, float(r)) for r in np.linspace(0.05, 0.95, 19)]
    probe = Probe()
    ans.kept["probe"] = probe
    refs = weakref.ref(ans), weakref.ref(probe)
    del ans, probe
    gc.collect()
    assert refs[0]() is None and refs[1]() is None


def test_a_bare_hyp2f1_grid_keeps_nothing(monkeypatch):
    # with no ansatz a grid runs with no store, leaves special's module state
    # as it was and returns a new sum for a repeated series; its bits are
    # those the grid gives on an ansatz's store
    state = _module_state()
    stores = []
    series_sum = special._series_sum
    monkeypatch.setattr(special, "_series_sum", lambda *args: stores.append(special.kept_store.get()) or series_sum(*args))
    for name, point, radii in _route_grids():
        bare = [repr(hyp2f1(*point(r))) for r in radii * 2]
        ans = _fresh_ansatz()
        assert bare == [repr(waves._kept(ans, hyp2f1, *point(r))) for r in radii * 2], name
    assert stores and None in stores
    assert all(store is None or isinstance(store, dict) for store in stores)
    point = (complex(0.25, 3.0), complex(0.25, -3.0), complex(1.5), complex(0.3))
    assert series_sum(*point) is not series_sum(*point)
    monkeypatch.undo()
    assert _module_state() == state


def test_the_ode_grid_reads_a_table_from_each_triples_third_series(monkeypatch):
    # the benchmark's ODE check evaluates 19 radii on one regular ansatz:
    # every float series on a triple from its third on reads the ratios its
    # second one kept
    seen, unread = collections.Counter(), []
    series_sum = special._series_sum

    def series(a, b, c, z):
        key = special._bits(a, b, c)
        seen[key] += 1
        if seen[key] >= 3 and not _kept_ratios(special.kept_store.get(), a, b, c):
            unread.append((a, b, c, z))
        return series_sum(a, b, c, z)

    monkeypatch.setattr(special, "_series_sum", series)
    for eps, mu, j in ((5.25, 1.7, 0), (21.0, 2.0, 1), (38.0, 2.5, 2)):
        ans = make_ansatz(HorizonUnitsParams(epsilon=eps, m=eps / mu, j=j), "regular")
        [eval_standing(ans, float(r)) for r in np.linspace(0.05, 0.95, 19)]
    assert max(seen.values()) >= 3 and not unread, unread


# -------------------------------------------------------------------- bessel

BESSEL_CASES = [
    (0.5, 2.0, 0.5130161365618278),
    (2.5, 7.3, -0.3008494315874998),
    (3.5, 0.5, 0.0006623785681459423),
    (1.5, 40.0, 0.08648867973613376),
    (7.5, 3.0, 0.0011399140728703852),
    (0.5, 120.0, 0.0422897225396915),
]


@pytest.mark.parametrize("p, x, expected", BESSEL_CASES)
def test_bessel_frozen_values(p, x, expected):
    assert abs(bessel_j(p, x) - expected) < 1e-13 * max(1.0, abs(expected))


def test_bessel_half_integer_orders_against_oracle():
    # both routes (series up to x = max(8, 0.85 |p|), seeds plus recurrence
    # beyond) over p = +/-(j + 1/2), against the big-float series oracle
    for j in range(8):
        for p in (j + 0.5, -(j + 0.5)):
            for x in (0.3, 2.0, 7.9, 8.1, 12.0, 15.0, 40.0, 90.0):
                ref = complex(extended_series("bessel", [p, x])).real
                scale = max(abs(ref), math.sqrt(2.0 / (math.pi * x)))
                assert abs(bessel_j(p, x) - ref) < 1e-13 * scale, (p, x)


def test_bessel_and_hankel_contract_over_a_seeded_grid():
    # the docstring contract, against mpmath at 40 digits: J_{+/-p} within
    # 1e-13 of the envelope |H1_p(x)| (J's zeros would blow up a relative
    # bound) and H1_p within 1e-13 relative.  60 points with j <= 20 and x
    # log-uniform in [1e-2, 1e4], and 20 with 8 <= j <= 20 and x in
    # [0.8 p, p + 2] around the turning point, where the series cancels
    rng = random.Random(2026)
    points = [(rng.randrange(21) + 0.5, 10 ** rng.uniform(-2.0, 4.0)) for _ in range(60)]
    for _ in range(20):
        p = rng.randrange(8, 21) + 0.5
        points.append((p, rng.uniform(0.8 * p, p + 2.0)))
    with mp.workdps(40):
        for p, x in points:
            ref = complex(mp.hankel1(p, x))
            for order in (p, -p):
                assert abs(bessel_j(order, x) - float(mp.besselj(order, x))) <= 1e-13 * abs(ref), (order, x)
            assert rel(hankel1(p, x), ref) <= 1e-13, (p, x)


@pytest.mark.parametrize("p", [0.0, 1.0, -2.0, 0.3, 2.25, math.nan, math.inf])
def test_bessel_and_hankel_take_half_integer_orders_only(p):
    with pytest.raises(ValueError, match="half-integer"):
        bessel_j(p, 1.5)
    with pytest.raises(ValueError, match="half-integer"):
        hankel1(p, 1.5)


def test_bessel_and_hankel_at_and_below_zero():
    # J_p(0) = 0 for p > 0; negative orders diverge there, and no order
    # takes x < 0; H1_p needs x > 0
    for p in (0.5, 2.5, 20.5):
        assert bessel_j(p, 0.0) == 0.0
    for p in (-0.5, -20.5):
        with pytest.raises(ValueError, match="^bessel_j at x=0 diverges for negative order$"):
            bessel_j(p, 0.0)
    for p in (0.5, -2.5):
        with pytest.raises(ValueError, match="^bessel_j requires x >= 0$"):
            bessel_j(p, -1e-300)
        for x in (0.0, -0.0, -2.0):
            with pytest.raises(ValueError, match="^hankel1 requires x > 0$"):
                hankel1(p, x)


def test_bessel_series_beyond_double_range_is_a_nonconvergence():
    # the lead (x/2)^p / Gamma(p+1) of J_-20.5(1e-20) is ~e^957: the series
    # names the order and the argument instead of leaking an OverflowError
    with pytest.raises(NonConvergence, match=r"J_-20\.5\(1e-20\) is beyond double range"):
        bessel_j(-20.5, 1e-20)


def test_bessel_half_integer_closed_form():
    for x in (0.7, 3.0, 11.0):
        assert abs(bessel_j(0.5, x) - math.sqrt(2.0 / (math.pi * x)) * math.sin(x)) < 1e-14


def test_bessel_recurrence():
    # J_{p-1}(x) + J_{p+1}(x) = (2p/x) J_p(x)
    xs = [0.1 * 1.35**k for k in range(16)]  # 0.1 ... ~44
    for p in (0.5, 1.5, 2.5, 3.5):
        for x in xs:
            lhs = bessel_j(p - 1.0, x) + bessel_j(p + 1.0, x)
            rhs = 2.0 * p / x * bessel_j(p, x)
            scale = max(abs(bessel_j(p, x)), abs(lhs), 1e-10)
            assert abs(lhs - rhs) <= 1e-12 * scale


HANKEL_CASES = [
    (0.5, 2.0, complex(0.5130161365618278, 0.23478571040624846)),
    (2.5, 4.0, complex(0.44088497455734116, 0.0145679476685218)),
    (5.5, 9.0, complex(0.08438779749107019, 0.2848318597461538)),
]


@pytest.mark.parametrize("p, x, expected", HANKEL_CASES)
def test_hankel_frozen_values(p, x, expected):
    assert rel(hankel1(p, x), expected) < 1e-13


def test_hankel_order_half_closed_form():
    # H1_{1/2}(x) = -i sqrt(2/(pi x)) e^{ix}
    for x in (0.9, 5.0, 26.0):
        expected = -1j * math.sqrt(2.0 / (math.pi * x)) * cmath.exp(1j * x)
        assert rel(hankel1(0.5, x), expected) < 1e-14
