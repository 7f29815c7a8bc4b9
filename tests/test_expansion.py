"""Small-curvature expansion: order-by-order Bessel collapse and its audit."""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from dswave.expansion import (
    ExpansionParams,
    ValidityError,
    decompose_hypergeometric,
    exponential_factor_exact,
    exponential_factor_expansion,
    first_order_correction_audit,
    first_order_series,
    normalization_factor,
    normalized_out_wave_zero_order,
    remainder_ladder,
    sum_identity,
    truncated_wave_parameter,
)
from dswave import expansion
from dswave.special import hankel1, hyp2f1, log_gamma
from dswave.waves import make_ansatz

EP = ExpansionParams(2.0, 1e-3, 1)


def test_params_validation():
    with pytest.raises(ValidityError):
        ExpansionParams(2.0, 0.2, 0)
    with pytest.raises(ValidityError):
        ExpansionParams(2.0, -0.01, 0)
    with pytest.raises(ValueError, match="mu=0.9 <= 1"):
        ExpansionParams(0.9, 1e-3, 0)
    with pytest.raises(ValueError, match="j must be a non-negative integer"):
        ExpansionParams(2.0, 1e-3, -1)


def test_params_exact_scale_pairing():
    assert EP.Y == 500.0
    assert EP.p == 1.5
    assert EP.k == math.sqrt(3.0)
    # Y is the correctly rounded 1/(2X), also where X = 0.07 is not exact
    rng = np.random.default_rng(7)
    for X in (1e-3, 0.07, 0.1, 3e-7, 1.0 / 30.0, *(0.1 * rng.random(1000))):
        X = float(X)
        assert ExpansionParams(2.0, X, 0).Y == float(1 / (2 * Fraction(X)))
    hp = EP.horizon_params()
    assert hp.epsilon == 2000.0 and hp.m == 1000.0 and hp.j == 1


def test_sum_identity_exact():
    for p in (Fraction(1, 2), Fraction(3, 2), Fraction(11, 2)):
        for n in (0, 1, 5, 37, 100):
            val = sum_identity(n, p)
            direct = sum(float(1 + p + 2 * i) for i in range(n + 1))
            assert val == float((n + 1) * (n + 1 + p))
            assert abs(val - direct) < 1e-9 * max(1.0, direct)
    with pytest.raises(ValueError):
        sum_identity(-1, 0.5)


def test_exponential_factor_is_pure_phase():
    for X, r in ((1e-3, 5.0), (1e-2, 10.0)):  # rX = 0.1 is still inside
        v = exponential_factor_exact(2.0, X, r)
        assert abs(abs(v) - 1.0) < 1e-14
    with pytest.raises(ValidityError):
        exponential_factor_exact(2.0, 0.1, 10.0)  # rX = 1: the horizon


def test_exponential_factor_truncation_is_cubic():
    # error of the four-term truncation scales as (r^2 X)^3: halving r
    # divides it by 64
    mu, X = 2.0, 1e-3
    errs = [
        abs(exponential_factor_exact(mu, X, r) - exponential_factor_expansion(mu, X, r))
        for r in (6.0, 3.0, 1.5)
    ]
    for big, small in zip(errs, errs[1:]):
        assert 60.0 < big / small < 68.0
    with pytest.raises(ValidityError):
        exponential_factor_expansion(mu, 0.05, 3.0)  # r^2 X = 0.45 > 0.1


def test_truncated_wave_parameter_remainder():
    # remainder against the exact ansatz parameter is -i X^3/256 + O(X^5)
    X = 1e-2
    ep = ExpansionParams(2.0, X, 1)
    rem = make_ansatz(ep.horizon_params(), "regular").a - truncated_wave_parameter(ep)
    assert abs(rem / X**3 - complex(0.0, -1.0 / 256.0)) < 1e-6


def test_first_order_series_matches_closed_form():
    rs = np.linspace(0.5, 4.0, 8)
    for j in (0, 1, 2):
        ep = ExpansionParams(2.0, 1e-3, j)
        dec = decompose_hypergeometric(ep, rs)
        f1 = np.array([first_order_series(ep, r) for r in rs])
        g1 = np.array([first_order_series(ep, r, family="singular") for r in rs])
        assert np.max(np.abs(f1 - dec.F1) / np.abs(dec.F1)) < 1e-12
        assert np.max(np.abs(g1 - dec.G1) / np.abs(dec.G1)) < 1e-12
    with pytest.raises(ValueError):
        first_order_series(EP, 1.0, family="bogus")


def test_decomposition_structure():
    rs = np.linspace(0.0, 4.0, 9)
    dec = decompose_hypergeometric(EP, rs)
    assert dec.F0[0] == 1.0 and dec.G0[0] == 1.0
    assert np.all(np.isreal(dec.F0)) and np.all(np.isreal(dec.G0))
    assert dec.F1[0] == 0.0  # first-order weight vanishes at r = 0
    # Richardson residual is a finite O(1) profile, not noise
    assert np.all(np.abs(dec.F2_residual) < 1e3)
    with pytest.raises(ValueError):
        decompose_hypergeometric(EP, [])
    with pytest.raises(ValidityError):
        decompose_hypergeometric(EP, [2000.0])


def test_assembled_order_one_is_real():
    # (1 + i mu r^2 X/2) (Z0 + X Z1) is real for both families: the phase of
    # the truncated horizon factor cancels the first-order imaginary part
    for mu, X, j in [(2.0, 1e-2, 0), (1.5, 1e-3, 1), (3.0, 1e-2, 2)]:
        ep = ExpansionParams(mu, X, j)
        rs = np.linspace(0.5, 4.0, 9)
        dec = decompose_hypergeometric(ep, rs)
        w = 1.0 + 0.5j * mu * rs**2 * X
        for z0, z1 in ((dec.F0, dec.F1), (dec.G0, dec.G1)):
            v = w * (z0 + X * z1)
            assert np.max(np.abs(v.imag) / np.abs(v)) < 1e-14


def test_second_order_residual_scales_quadratically():
    rs = np.linspace(0.5, 4.0, 8)
    devs = []
    for X in (1e-2, 1e-3, 1e-4):
        ep = ExpansionParams(2.0, X, 0)
        dec = decompose_hypergeometric(ep, rs)
        devs.append(np.max(np.abs(dec.F2_residual)) * X * X)
    slope = np.polyfit(np.log10([1e-2, 1e-3, 1e-4]), np.log10(devs), 1)[0]
    assert abs(slope - 2.0) < 0.1


def test_normalization_factor_against_exact_gamma_route():
    # alpha'/beta' are the order-1 asymptotics of exact Gamma-ratio
    # coefficients; agreement must be O(X^2)
    for j in (0, 1, 2):
        errs = []
        for X in (1e-2, 1e-3):
            ep = ExpansionParams(2.0, X, j)
            nf = normalization_factor(ep)
            ans = make_ansatz(ep.horizon_params(), "regular")
            q = 0.5 * ep.p + 0.25
            alpha_exact = cmath.exp(
                log_gamma(complex(1.0 - ans.c))
                + log_gamma(ans.a - q)
                + log_gamma(ans.b - q)
                - log_gamma(ans.a - ans.c + 1.0)
                - log_gamma(ans.b - ans.c + 1.0)
            )
            beta_exact = cmath.exp(
                log_gamma(complex(ans.c - 1.0))
                + log_gamma(ans.a - q)
                + log_gamma(ans.b - q)
                - log_gamma(ans.a)
                - log_gamma(ans.b)
            )
            errs.append(
                (abs(nf.alpha_prime / alpha_exact - 1.0), abs(nf.beta_prime / beta_exact - 1.0))
            )
        assert errs[1][0] < 1e-5 and errs[1][1] < 1e-5
        # X down 10x -> error down 100x (beta always; alpha except j=0,
        # where the correction vanishes identically and only rounding is left)
        assert 80.0 < errs[0][1] / errs[1][1] < 120.0
        if j > 0:
            assert 80.0 < errs[0][0] / errs[1][0] < 120.0
        else:
            assert errs[1][0] < 1e-10


def test_zero_order_wave_is_outgoing_hankel():
    rs = np.linspace(3.0, 9.0, 21)
    for j in (0, 1, 2):
        ep = ExpansionParams(2.0, 1e-3, j)
        psi0 = normalized_out_wave_zero_order(ep, rs)
        ref = np.array(
            [math.sqrt(2.0 / (ep.k * r)) * hankel1(j + 0.5, ep.k * r) for r in rs]
        )
        ratio = psi0 / ref
        mean = np.mean(ratio)
        assert np.max(np.abs(ratio - mean)) < 1e-12 * abs(mean)
        assert abs(mean - (-math.pi) * 1j**j) < 1e-12 * math.pi
    with pytest.raises(ValueError):
        normalized_out_wave_zero_order(EP, [0.0, 1.0])


def test_first_order_audit():
    aud = first_order_correction_audit(ExpansionParams(2.0, 1e-3, 0))
    assert aud.order0_fit_residual < 1e-10
    assert 0.45 < aud.order1_fit_residual < 0.60
    assert 0.9 < aud.first_order_slope < 1.1
    assert aud.kr_window == (6.0, 16.0)
    assert aud.n_points == 64


def test_remainder_ladder_matches_full_decompositions():
    # F0 and F1 do not depend on X, so rungs that reuse them and evaluate only
    # the regular factor give the full decomposition's remainder to the bit
    rng = np.random.default_rng(20250)
    for _ in range(40):
        mu = float(rng.uniform(1.05, 5.0))
        X = float(10.0 ** rng.uniform(-5.0, -1.0))
        j = int(rng.integers(0, 6))
        lo = float(rng.uniform(0.1, 1.0))
        rs = np.linspace(lo, lo + float(rng.uniform(0.5, 3.0)), int(rng.integers(2, 16)))
        ep = ExpansionParams(mu, X, j)
        ladder = [X, X / 10.0, X / 100.0]
        got = remainder_ladder(ep, decompose_hypergeometric(ep, rs), ladder[1:])
        want = [
            float(np.max(np.abs(decompose_hypergeometric(ExpansionParams(mu, x, j), rs).F2_residual))) * x * x
            for x in ladder
        ]
        assert list(map(repr, got)) == list(map(repr, want)), (mu, X, j, rs.size)


def _audit_slope_with_bessel_limits_per_x(ep: ExpansionParams) -> float:
    """The audit's slope with the Bessel limits evaluated again at every X."""
    slopes_x = (1e-2, 1e-3, 1e-4)
    sub = np.linspace(6.0 / ep.k, 16.0 / ep.k, 64)[::8]
    devs = []
    for x in slopes_x:
        epx = ExpansionParams(ep.mu, x, ep.j)
        reg = make_ansatz(epx.horizon_params(), "regular")
        dev = 0.0
        for r in sub:
            f_exact = hyp2f1(reg.a, reg.b, reg.c, complex((r * x) ** 2))
            dev = max(dev, abs(f_exact - expansion._bessel_limit(epx.k, epx.p, r)))
        devs.append(dev)
    return float(np.polyfit(np.log10(np.asarray(slopes_x)), np.log10(np.asarray(devs)), 1)[0])


@pytest.mark.parametrize("mu, X, j", [(2.0, 1e-3, 0), (1.3, 1e-2, 1), (3.7, 5e-4, 2), (5.0, 1e-5, 5)])
def test_audit_slope_shares_its_bessel_limits(mu, X, j):
    ep = ExpansionParams(mu, X, j)
    aud = first_order_correction_audit(ep)
    assert repr(aud.first_order_slope) == repr(_audit_slope_with_bessel_limits_per_x(ep))
