"""Acceptance gate: one test per advertised guarantee, at stated tolerance.

Run with -v to get a single pass/fail line per criterion.
"""
from __future__ import annotations

import cmath
import json
import math
import pathlib
import time
from fractions import Fraction

import numpy as np

import dswave
from dswave.expansion import (
    ExpansionParams,
    decompose_hypergeometric,
    first_order_correction_audit,
    first_order_series,
    normalized_out_wave_zero_order,
    sum_identity,
)
from dswave.model import (
    HorizonUnitsParams,
    ModelParams,
    effective_potential,
    potential_profile,
    radial_ode_coefficients,
)
from dswave.oracle import OdeProblem, classify_singularities, integrate
from dswave.reflection import check_regime, horizon_flux_balance, reflection_coefficient
from dswave.special import gamma_ratio_asymptotic, hankel1, log_gamma
from dswave.waves import (
    connection_residual,
    eval_running,
    eval_standing,
    flat_limit_convergence,
    make_ansatz,
)

FIXDIR = pathlib.Path(dswave.__file__).parent / "fixtures"


def test_criterion_01_zero_reflection_sweep():
    # |A_minus/A_plus| < 1e-10 across mu x j x m wherever the regime check
    # passes, and the ODE flux balance agrees with the zero verdict to 1e-6
    t0 = time.time()
    checked = 0
    for mu in (1.5, 2.0, 5.0):
        for j in (0, 1, 2, 5):
            for m in (10.0, 50.0):
                hp = HorizonUnitsParams(epsilon=mu * m, m=m, j=j)
                if not check_regime(hp):
                    continue
                checked += 1
                res = reflection_coefficient(ModelParams(R=m, lam=1.0, mu=mu, j=j))
                assert res.ratio < 1e-10, (mu, j, m, res.ratio)
                flux = horizon_flux_balance(make_ansatz(hp, "regular"), hp)
                assert abs(flux - res.ratio) < 1e-6, (mu, j, m, flux)
    assert checked == 19
    assert time.time() - t0 < 30.0


def test_criterion_02_barrierless_potential():
    t0 = time.time()
    grid = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    for j in (0, 1, 5):
        for m in (0.0, 1.0, 10.0):
            prof = potential_profile(
                HorizonUnitsParams(epsilon=max(m, 1.0) + 1.0, m=m, j=j), grid
            )
            assert np.all(prof.F > 0.0), (j, m, float(np.min(prof.F)))
    hp0 = HorizonUnitsParams(epsilon=1.0, m=0.0, j=0)
    u_edge = effective_potential(hp0, 1.0 - 1e-6)[0]
    u_mid = effective_potential(hp0, 0.5)[0]
    assert u_edge < 1e-5 * u_mid
    assert time.time() - t0 < 5.0


def test_criterion_03_standing_wave_vs_ode():
    # independent RKF7(8) integration from a two-term series launch at
    # r0 = 1e-3 must reproduce the closed-form regular wave
    t0 = time.time()
    grid = np.linspace(0.05, 0.95, 19)
    for eps, m, j in [(5.0, 3.0, 0), (10.0, 5.0, 1), (20.0, 8.0, 2)]:
        hp = HorizonUnitsParams(epsilon=eps, m=m, j=j)
        ans = make_ansatz(hp, "regular")
        co = radial_ode_coefficients(hp)
        r0 = 1e-3
        c1 = ans.a * ans.b / ans.c + 0.5j * eps
        u0 = r0**j * (1.0 + c1 * r0 * r0)
        du0 = r0 ** (j - 1) * (j + (j + 2.0) * c1 * r0 * r0)
        prob = OdeProblem(
            p=co.p,
            q=co.q,
            r0=r0,
            u0=u0,
            du0=du0,
            direction=+1,
        )
        sol = integrate(prob, 0.95, tol=1e-12, samples=[float(r) for r in grid])
        ref = np.array([eval_standing(ans, float(r)) for r in grid])
        scale = sol.u[0] / ref[0]
        rel = np.max(np.abs(sol.u / scale - ref)) / np.max(np.abs(ref))
        assert rel < 1e-8, (eps, m, j, rel)
    assert time.time() - t0 < 10.0


def test_criterion_04_connection_formulas():
    for eps, m, j in [(10.0, 5.0, 0), (10.0, 5.0, 3), (25.0, 10.0, 1)]:
        hp = HorizonUnitsParams(epsilon=eps, m=m, j=j)
        for family in ("regular", "singular"):
            ans = make_ansatz(hp, family)
            for r in (0.1, 0.35, 0.6, 0.85):
                assert connection_residual(ans, r) < 1e-10
        reg = make_ansatz(hp, "regular")
        for r in (0.1, 0.5, 0.9):
            out = eval_running(reg, "out", r)
            inc = eval_running(reg, "in", r)
            assert abs(inc - out.conjugate()) < 1e-12 * abs(out)


def test_criterion_05_flat_limit_monotone_and_violating():
    scales = [1e3, 1e4, 1e5, 1e6]
    for j in (0, 1, 2):
        rows = flat_limit_convergence(
            ModelParams(R=1.0, lam=1.0, mu=2.0, j=j), scales, 0.5
        )
        devs = [d for _, d in rows]
        assert all(b < a for a, b in zip(devs, devs[1:])), (j, devs)
    # pinning the dimensionless wave number so the mode count tracks the
    # radius breaks the limit: the deviation stays O(1) and non-monotone
    bad = flat_limit_convergence(
        ModelParams(R=1.0, lam=1.0, mu=2.0, j=2),
        [50.0, 100.0, 200.0, 400.0],
        0.5,
        fixed_kappa=2.0,
    )
    bad_devs = [d for _, d in bad]
    assert not all(b < a for a, b in zip(bad_devs, bad_devs[1:])), bad_devs
    assert all(d > 0.1 for d in bad_devs)


def test_criterion_06_expansion_identities():
    # arithmetic-progression sum identity, exact to n = 100
    for p in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
        for n in range(101):
            assert sum_identity(n, p) == float((n + 1) * (n + 1 + p))
    # first-order closed form vs term-by-term series
    rs = np.linspace(0.5, 4.0, 8)
    for j in (0, 1, 2):
        ep = ExpansionParams(2.0, 1e-3, j)
        dec = decompose_hypergeometric(ep, rs)
        f1 = np.array([first_order_series(ep, r) for r in rs])
        g1 = np.array([first_order_series(ep, r, family="singular") for r in rs])
        assert np.max(np.abs(f1 - dec.F1) / np.abs(dec.F1)) < 1e-10
        assert np.max(np.abs(g1 - dec.G1) / np.abs(dec.G1)) < 1e-10
    # second-order residual scaling
    devs = []
    ladder = (1e-2, 1e-3, 1e-4)
    for X in ladder:
        ep = ExpansionParams(2.0, X, 0)
        dec = decompose_hypergeometric(ep, rs)
        devs.append(np.max(np.abs(dec.F2_residual)) * X * X)
    slope = np.polyfit(np.log10(ladder), np.log10(devs), 1)[0]
    assert abs(slope - 2.0) < 0.1, slope
    # assembled first-order approximants are real
    for mu, X, j in [(2.0, 1e-2, 0), (1.5, 1e-3, 1), (3.0, 1e-2, 2)]:
        ep = ExpansionParams(mu, X, j)
        dec = decompose_hypergeometric(ep, rs)
        w = 1.0 + 0.5j * mu * rs**2 * X
        for z0, z1 in ((dec.F0, dec.F1), (dec.G0, dec.G1)):
            v = w * (z0 + X * z1)
            assert np.max(np.abs(v.imag) / np.abs(v)) < 1e-10


def test_criterion_07_zero_order_hankel_recovery():
    rs = np.linspace(3.0, 9.0, 21)
    for j in (0, 1, 2):
        ep = ExpansionParams(2.0, 1e-3, j)
        psi0 = normalized_out_wave_zero_order(ep, rs)
        ref = np.array(
            [math.sqrt(2.0 / (ep.k * r)) * hankel1(j + 0.5, ep.k * r) for r in rs]
        )
        ratio = psi0 / ref
        mean = np.mean(ratio)
        spread = np.max(np.abs(ratio - mean)) / abs(mean)
        assert spread < 1e-8, (j, spread)


def test_criterion_08_first_order_not_two_exponentials():
    aud = first_order_correction_audit(ExpansionParams(2.0, 1e-3, 0))
    assert aud.order0_fit_residual < 1e-8
    assert aud.order1_fit_residual > 1e-2


def test_criterion_09_singularity_classification():
    rep = classify_singularities(
        json.loads((FIXDIR / "de_sitter_radial.json").read_text())
    )
    assert len(rep.points) == 3
    assert all(pt.kind == "regular" for pt in rep.points)
    z0 = next(pt for pt in rep.points if str(pt.location) == "0")
    assert set(z0.exponents) == {Fraction(1, 2), Fraction(-1, 1)}  # fixture has j=1
    # exact indicial exponents {j/2, -(j+1)/2} for the whole j family
    for j in range(6):
        coeffs = {
            "p": {
                "numerator": [6, -10],
                "denominator": {"const": -4, "roots": [[0, 1], [1, 1]]},
            },
            "q": {
                "numerator": [-j * (j + 1), 73 + j * (j + 1), 27],
                "denominator": {"const": 4, "roots": [[0, 2], [1, 2]]},
            },
        }
        pt = next(
            p
            for p in classify_singularities(coeffs).points
            if str(p.location) == "0"
        )
        assert set(pt.exponents) == {Fraction(j, 2), Fraction(-(j + 1), 2)}
    rep4 = classify_singularities(
        json.loads((FIXDIR / "schwarzschild_like.json").read_text())
    )
    assert len(rep4.points) == 4


def test_criterion_10_gamma_ratio_misprint_guard():
    A, B = 0.6, -0.2

    def direct(z: complex) -> complex:
        return cmath.exp(log_gamma(z + A) - log_gamma(z + B))

    def misprint(z: complex, a: float, b: float) -> complex:
        # variant with (A+B+1) in place of (A+B-1) in the first correction;
        # kept as a guard against reintroducing it
        return z ** (a - b) * (1.0 + (a - b) * (a + b + 1.0) / (2.0 * z))

    zs = np.array([10.0, 31.6, 100.0, 316.0, 1000.0])
    errs = [
        abs(gamma_ratio_asymptotic(z, A, B, order=1) - direct(z)) / abs(direct(z))
        for z in zs
    ]
    slope = np.polyfit(np.log10(zs), np.log10(errs), 1)[0]
    assert abs(slope + 2.0) < 0.2, slope  # error decays as 1/|z|^2

    # shift identity Gamma(z+1)/Gamma(z) = z: the implemented order-1 form is
    # exact there (its correction factor vanishes); the variant is off by 1
    for z in (5.0 + 3.0j, 40.0, 12.0 - 7.0j):
        good = gamma_ratio_asymptotic(z, 1.0, 0.0, order=1)
        assert abs(good - z) < 1e-14 * abs(z)
        assert abs(misprint(z, 1.0, 0.0) - z) > 0.99  # == 1 exactly
    bad_errs = [abs(misprint(z, A, B) - direct(z)) / abs(direct(z)) for z in zs]
    bad_slope = np.polyfit(np.log10(zs), np.log10(bad_errs), 1)[0]
    assert abs(bad_slope + 1.0) < 0.2  # only first order: decays as 1/|z|
