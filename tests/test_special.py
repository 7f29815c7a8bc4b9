"""Special-function substrate: frozen oracle values and analytic identities.

Expected constants were computed with mpmath at 40 significant digits and
pasted verbatim; tolerances reflect the double-precision implementation.
"""
from __future__ import annotations

import cmath
import collections
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import dswave
from dswave import special
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
from dswave.waves import make_ansatz


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


def _fixed_point_grid():
    """20 seeded (a, b, c, z) whose float series cancels by 1e3 .. 2^48,
    four kinds taking turns: the regular wave family (real c > 0), the
    singular family (c < 0), complex c of ~1e3 against |Im a| ~ 400, and
    the expansion audit's tiny z ~ 1e-9 .. 1e-6 with |Im a| up to ~1e5;
    then the audit at X = 1e-6 and the two points above."""
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
    return grid + [_FALLING_POINT, _NEGATIVE_C_HUMP]


def _no_continuation(*args):
    raise AssertionError("the continuation was called")


def test_hyp2f1_fixed_point_route_against_the_oracle(monkeypatch):
    # every point takes the fixed-point route and is within 2e-15 of the
    # big-float series at 30 digits
    monkeypatch.setattr(special, "_ode_continuation", _no_continuation)
    for a, b, c, z in _fixed_point_grid():
        _, cancel, _, _ = special._series_sum(a, b, c, z)
        assert special._CANCEL_RETRY < cancel <= special._FIXED_LIMIT, (a, b, c, z, cancel)
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
    # beyond 2^48 the route follows the pass budget: an e200_r0.5 standing
    # wave (~160 terms at ~200 working bits) and both connection sub-series
    # of an e1000_r0.9 running wave at mu = 3, at w = 0.19 (~150 terms at
    # ~150 bits), are within 1e5 term-bits and summed in fixed point
    w = complex(1.0 - 0.9**2)
    ans = make_ansatz(HorizonUnitsParams(epsilon=1000.0, m=1000.0 / 3.0, j=1), "regular")
    s = ans.c - ans.a - ans.b
    points = [_standing_point(200.0, 1, 0.5), (ans.a, ans.b, 1.0 - s, w), (ans.c - ans.a, ans.c - ans.b, 1.0 + s, w)]
    monkeypatch.setattr(special, "_ode_continuation", _no_continuation)
    for a, b, c, z in points:
        _, cancel, _, _ = special._series_sum(a, b, c, z)
        assert special._FIXED_LIMIT < cancel < math.inf, (a, b, c, z, cancel)
        ref = complex(extended_series("hyp2f1", [a, b, c, z]))
        assert rel(special._gauss_series(a, b, c, z), ref) < 2e-15, (a, b, c, z)


def test_hyp2f1_keeps_the_continuation_beyond_the_budget(monkeypatch):
    # epsilon=1000, m=500, j=1 standing wave at r = 0.5: ~470 terms at ~800
    # bits are ~4x the 1e5 term-bit budget
    calls = _counted_continuation(monkeypatch)
    assert cmath.isfinite(hyp2f1(*_standing_point(1000.0, 1, 0.5)))
    assert len(calls) == 1


def test_pass_budget_edge_decides_between_pass_and_continuation(monkeypatch):
    # the e200_r0.5 standing wave cancels beyond 2^48, and its first pass
    # returns the value: a budget of exactly its term-bits keeps the pass,
    # one term-bit less sends the series to the continuation
    point = _standing_point(200.0, 1, 0.5)
    _, cancel, peak, terms = special._series_sum(*point)
    assert special._FIXED_LIMIT < cancel < math.inf
    term_bits = terms * (special._GUARD_BITS + 1 + math.ceil(math.log2(peak)) + special._SMALL_SUM_BITS)
    assert term_bits <= special._PASS_BUDGET
    calls = _counted_continuation(monkeypatch)
    monkeypatch.setattr(special, "_PASS_BUDGET", term_bits)
    ref = complex(extended_series("hyp2f1", list(point)))
    assert rel(hyp2f1(*point), ref) < 2e-15
    assert not calls
    monkeypatch.setattr(special, "_PASS_BUDGET", term_bits - 1)
    assert rel(hyp2f1(*point), ref) < 1e-11
    assert len(calls) == 1


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


def _halved(monkeypatch, a, b, c, z, evaluate=hyp2f1):
    """evaluate(a, b, c, z), and the number of points on the continuation's
    path where it checked the Wronskian growth more than once: the walk
    stands again at the start of a panel it refused and halved."""
    seen = collections.Counter()

    class Logged:
        def __getattr__(self, name):
            return getattr(cmath, name)

        def log(self, x):
            seen[x] += 1
            return cmath.log(x)

    monkeypatch.setattr(special, "cmath", Logged())
    value = evaluate(a, b, c, z)
    # each check takes log(t) and log(1-t)
    return value, sum(n > 1 for n in seen.values()) // 2


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


def _continuation_grid():
    """26 seeded (a, b, c, z) of the two standing-wave families: epsilon
    log-uniform in [10, 1e4], mu in [1.5, 5], j < 4, the families taking
    turns; points 0-11 on the direct route (z < 1/2), 12-23 on the z -> 1-z
    connection, and 24-25 at complex z, with epsilon up to 316 there so that
    F stays within double range."""
    rng = random.Random(2026)
    grid = []
    for k in range(26):
        eps = 10.0 ** (rng.uniform(1.0, 4.0) if k < 24 else rng.uniform(1.5, 2.5))
        mu = rng.uniform(1.5, 5.0)
        j = rng.randrange(4)
        family = ("regular", "singular")[k % 2]
        ans = make_ansatz(HorizonUnitsParams(epsilon=eps, m=eps / mu, j=j), family)
        r = rng.uniform(0.72, 0.98) if 12 <= k < 24 else rng.uniform(0.2, 0.7)
        z = cmath.rect(r * r, rng.uniform(-0.6, 0.6)) if k >= 24 else r * r
        grid.append((ans.a, ans.b, ans.c, z))
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
    for k, (a, b, c, z) in enumerate(_continuation_grid()):
        ref = _GRID_FROZEN[k] if k in _GRID_FROZEN else _grid_reference(a, b, c, z)
        assert rel(hyp2f1(a, b, c, z), ref) < 1e-10, (k, a, b, c, z)


def test_hyp2f1_pole_and_domain_errors():
    with pytest.raises(PoleError):
        hyp2f1(0.5, 0.5, -1.0, 0.3)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.5, 1.2)


def test_hyp2f1_nonconvergence_with_tiny_budget(monkeypatch):
    monkeypatch.setattr(special, "_MAX_TERMS", 4)
    with pytest.raises(NonConvergence):
        hyp2f1(0.5 + 2j, 0.5 - 2j, 1.5, 0.45)


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
    # both routes (series up to x = max(8, |p|+2), seeds plus recurrence
    # beyond) over p = +/-(j + 1/2), against the big-float series oracle
    for j in range(8):
        for p in (j + 0.5, -(j + 0.5)):
            for x in (0.3, 2.0, 7.9, 8.1, 12.0, 15.0, 40.0, 90.0):
                ref = complex(extended_series("bessel", [p, x])).real
                scale = max(abs(ref), math.sqrt(2.0 / (math.pi * x)))
                assert abs(bessel_j(p, x) - ref) < 1e-13 * scale, (p, x)


@pytest.mark.parametrize("p", [0.0, 1.0, -2.0, 0.3, 2.25, math.nan, math.inf])
def test_bessel_and_hankel_take_half_integer_orders_only(p):
    with pytest.raises(ValueError, match="half-integer"):
        bessel_j(p, 1.5)
    with pytest.raises(ValueError, match="half-integer"):
        hankel1(p, 1.5)


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
