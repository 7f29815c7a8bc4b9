"""Independent numerics: collocation and Riccati integrators, big-float series,
classification."""
from __future__ import annotations

import json
import math
import pathlib
import random
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import dswave
import dswave.oracle
from dswave.bigfloat import extended_series
from dswave.oracle import (
    OdeProblem,
    StepFailure,
    classify_singularities,
    integrate,
    integrate_riccati,
)
from dswave.model import HorizonUnitsParams, radial_ode_coefficients
from dswave.special import PoleError, hyp2f1
from dswave.waves import make_ansatz

FIXDIR = pathlib.Path(dswave.__file__).parent / "fixtures"


def load_fixture(name: str) -> dict:
    return json.loads((FIXDIR / f"{name}.json").read_text())


# --- integrator --------------------------------------------------------------


def test_integrate_oscillator_against_closed_form():
    # u'' + 9 u = 0, u(0)=0, u'(0)=3 -> u = sin(3r)
    prob = OdeProblem(p=None, q=lambda r: 9.0, r0=0.0, u0=0.0, du0=3.0)
    sol = integrate(prob, 10.0, 1e-12)
    assert abs(sol.u[-1] - math.sin(30.0)) < 1e-12
    assert abs(sol.du[-1] - 3.0 * math.cos(30.0)) < 5e-11


def test_integrate_error_tracks_tolerance():
    prob = OdeProblem(p=None, q=lambda r: 9.0, r0=0.0, u0=0.0, du0=3.0)
    errs = []
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        sol = integrate(prob, 10.0, tol)
        err = abs(sol.u[-1] - math.sin(30.0))
        assert err < 20.0 * tol
        errs.append(err)
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def test_integrate_first_order_term_and_backwards():
    # u'' + (1/r) u' = 0 -> u = log(r); integrate downward as well
    prob = OdeProblem(p=lambda r: 1.0 / r, q=lambda r: 0.0, r0=1.0, u0=0.0, du0=1.0)
    sol = integrate(prob, 5.0, 1e-12)
    assert abs(sol.u[-1] - math.log(5.0)) < 1e-12
    back = integrate(
        OdeProblem(p=lambda r: 1.0 / r, q=lambda r: 0.0, r0=5.0, u0=math.log(5.0), du0=0.2),
        0.5,
        1e-12,
    )
    assert abs(back.u[-1] - math.log(0.5)) < 1e-11


def test_integrate_dense_output_hits_samples_exactly():
    prob = OdeProblem(p=None, q=lambda r: -1.0, r0=0.0, u0=1.0, du0=0.0)
    pts = [0.5, 1.5, 3.0]
    sol = integrate(prob, 3.0, 1e-12, samples=pts)
    assert list(sol.r) == pts
    for r, u in zip(sol.r, sol.u):
        assert abs(u - math.cosh(r)) < 1e-11 * math.cosh(r)


def test_integrate_complex_solution():
    # u'' = -u with u(0)=1, u'(0)=i -> u = e^{ir}
    prob = OdeProblem(p=None, q=lambda r: 1.0, r0=0.0, u0=1.0 + 0.0j, du0=1.0j)
    sol = integrate(prob, 6.0, 1e-12)
    assert abs(sol.u[-1] - complex(math.cos(6.0), math.sin(6.0))) < 1e-12
    assert abs(abs(sol.u[-1]) - 1.0) < 1e-12


def test_integrate_validation_and_step_failure(monkeypatch):
    prob = OdeProblem(p=None, q=lambda r: 9.0, r0=0.0, u0=0.0, du0=3.0)
    with pytest.raises(ValueError):
        integrate(prob, 10.0, 0.0)
    with pytest.raises(ValueError):
        integrate(prob, 0.0, 1e-10)
    with pytest.raises(ValueError):
        integrate(
            OdeProblem(p=None, q=lambda r: 9.0, r0=0.0, u0=0.0, du0=3.0, direction=-1),
            10.0,
            1e-10,
        )
    monkeypatch.setattr(dswave.oracle, "_MAX_STEPS", 5)
    with pytest.raises(StepFailure, match="step budget 5"):
        integrate(prob, 10.0, 1e-12)


def test_integrate_hits_dense_samples_across_blocks():
    # 1001 samples, each the end of a panel: every one is landed on, in order
    prob = OdeProblem(p=None, q=lambda r: 9.0, r0=0.0, u0=0.0, du0=3.0)
    pts = np.linspace(0.0, 10.0, 1001)
    sol = integrate(prob, 10.0, 1e-12, samples=pts[::-1])
    assert sol.r.tolist() == pts.tolist()
    assert np.max(np.abs(sol.u - np.sin(3.0 * pts))) < 1e-11
    assert np.max(np.abs(sol.du - 3.0 * np.cos(3.0 * pts))) < 5e-11


@pytest.mark.parametrize(
    "prob, target",
    [
        # into a pole of q at r = 0.5
        (OdeProblem(p=None, q=lambda r: 1.0 / (r - 0.5) ** 3, r0=0.0, u0=1.0, du0=0.0), 1.0),
        # toward a pole of p at the target r = 0 (u = log r)
        (OdeProblem(p=lambda r: 1.0 / r, q=lambda r: 0.0, r0=1.0, u0=0.0, du0=1.0), 0.0),
    ],
    ids=["pole-of-q-inside", "pole-of-p-at-target"],
)
def test_integrate_into_a_pole_fails_without_warnings(prob, target):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure, match="underflowed"):
            integrate(prob, target, 1e-10)


def test_integrate_step_counters_repeat():
    prob = OdeProblem(p=lambda r: 1.0 / r, q=lambda r: 25.0 / r**2, r0=0.01, u0=1.0, du0=0.0)
    first = integrate(prob, 3.0, 1e-11, samples=[0.5, 1.0, 2.0])
    again = integrate(prob, 3.0, 1e-11, samples=[0.5, 1.0, 2.0])
    counters = (first.n_steps, first.n_rejected, first.h_min)
    assert counters == (again.n_steps, again.n_rejected, again.h_min)
    assert 0.0 < first.h_min <= 0.01
    # u = log r: the plan sizes a panel for a plane wave of wave number
    # |p| = 1/r, about 2.3 r wide, but the Chebyshev tail of log r decays
    # only like 3.5^-n on such a panel, so the tail test must split it
    log = OdeProblem(p=lambda r: 1.0 / r, q=lambda r: 0.0, r0=1.0, u0=0.0, du0=1.0)
    split = integrate(log, 5.0, 1e-12)
    assert 0 < split.n_rejected and 2 * split.n_rejected < split.n_steps
    assert abs(split.u[-1] - math.log(5.0)) < 1e-12


def _counted(f, calls: list):
    """f, recording the size of the array of every call."""

    def run(r):
        calls.append(np.size(r))
        return f(r)

    return run


@pytest.mark.parametrize("eps, m, j", [(5.0, 3.0, 0), (10.0, 5.0, 1), (20.0, 8.0, 2)])
def test_criterion_3_integrations_take_few_blocks(eps, m, j):
    # the radial equation from r0 = 1e-3, as in criterion 3: p and q are
    # called on whole arrays, on the trial grid that plans the panels and on
    # the nodes of all panels (plus one call per round of split panels); the
    # panels grade ~ r from r0 and ~ (1 - r^2) / eps toward the horizon
    p_calls, q_calls = [], []
    hp = HorizonUnitsParams(epsilon=eps, m=m, j=j)
    ans = make_ansatz(hp, "regular")
    co = radial_ode_coefficients(hp)
    r0 = 1e-3
    c1 = ans.a * ans.b / ans.c + 0.5j * eps
    u0 = r0**j * (1.0 + c1 * r0 * r0)
    du0 = r0 ** (j - 1) * (j + (j + 2.0) * c1 * r0 * r0)
    prob = OdeProblem(
        p=_counted(co.p, p_calls), q=_counted(co.q, q_calls), r0=r0, u0=u0, du0=du0, direction=+1
    )
    sol = integrate(prob, 0.95, 1e-12, samples=np.linspace(0.05, 0.95, 19))
    # measured: 2 calls each, 23-33 panels, none split
    assert len(p_calls) == len(q_calls) <= 3, (p_calls, q_calls)
    assert sol.n_steps <= 40, sol.n_steps


@pytest.mark.parametrize("r0, target", [(1.0, 1e-3), (1e-3, 1.0)], ids=["down", "up"])
def test_integrate_follows_a_step_size_that_scales_with_r(r0, target):
    # Euler's equation u'' + u'/r + (20/r)^2 u = 0 has u = cos(20 ln r), and
    # its right panel width is ~ r: the trial grid plans panels that grow
    # geometrically from r = 1e-3, in either direction
    p_calls, q_calls = [], []
    k, tol = 20.0, 1e-11
    phase = k * math.log(r0)
    prob = OdeProblem(
        p=_counted(lambda r: 1.0 / r, p_calls), q=_counted(lambda r: (k / r) ** 2, q_calls),
        r0=r0, u0=math.cos(phase), du0=-k * math.sin(phase) / r0,
    )
    sol = integrate(prob, target, tol)
    assert abs(sol.u[-1] - math.cos(k * math.log(target))) <= 20.0 * tol
    # measured: 52 panels (~ ln 1000 / ln 1.13), one of them split, so 3 calls each
    assert len(p_calls) == len(q_calls) <= 3, (p_calls, q_calls)
    assert sol.n_steps <= 70, sol.n_steps


def _regular_wave(eps: float, m: float, j: int, r: float) -> tuple[complex, complex]:
    """u = z^(j/2) (1 - z)^(-i eps/2) F(a, b; j + 3/2; z), z = r^2, and du/dr,
    from mpmath at 30 digits, with a, b = 3/4 + j/2 + i (+/-s - eps)/2,
    s = sqrt(m^2 - 1/4): the regular solution of the radial equation."""
    with mp.workdps(30):
        s = mp.sqrt(mp.mpf(m) ** 2 - mp.mpf(1) / 4)
        a = mp.mpf(3) / 4 + mp.mpf(j) / 2 + 1j * (s - eps) / 2
        b = mp.mpf(3) / 4 + mp.mpf(j) / 2 - 1j * (s + eps) / 2
        c, z, sigma = mp.mpf(j) + mp.mpf(3) / 2, mp.mpf(r) ** 2, -1j * mp.mpf(eps) / 2
        front = z ** (mp.mpf(j) / 2) * (1 - z) ** sigma
        f, df = mp.hyp2f1(a, b, c, z), a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)
        du_dz = front * ((mp.mpf(j) / (2 * z) - sigma / (1 - z)) * f + df)
        return complex(front * f), complex(2 * mp.mpf(r) * du_dz)


def test_integrate_radial_equation_over_a_seeded_grid():
    # criterion 3's integration, launched from the exact regular wave at
    # r0 = 1e-3 so that no series launch error enters, against mpmath at 30
    # digits: 12 points with eps in [5, 80], mu = eps / m in [1.5, 5] and
    # j = 0..5, within 1e-11 of max |u| at r = 0.3, 0.6, 0.9, 0.95
    rng = random.Random(11)
    radii, r0 = [0.3, 0.6, 0.9, 0.95], 1e-3
    for j in list(range(6)) * 2:
        eps, mu = rng.uniform(5.0, 80.0), rng.uniform(1.5, 5.0)
        co = radial_ode_coefficients(HorizonUnitsParams(epsilon=eps, m=eps / mu, j=j))
        u0, du0 = _regular_wave(eps, eps / mu, j, r0)
        prob = OdeProblem(p=co.p, q=co.q, r0=r0, u0=u0, du0=du0, direction=+1)
        sol = integrate(prob, radii[-1], 1e-12, samples=radii)
        want = np.array([_regular_wave(eps, eps / mu, j, r)[0] for r in radii])
        err = np.max(np.abs(sol.u - want)) / np.max(np.abs(want))
        assert err <= 1e-11, (eps, mu, j, err)


# --- Riccati panels -------------------------------------------------------------


def _airy_wave(r: float) -> tuple[complex, complex]:
    """u = Ai(-x) - i Bi(-x), x = 400 + r, and du/dr: u'' + (400 + r) u = 0."""
    with mp.workdps(30):
        x = -(400 + mp.mpf(r))
        u = mp.airyai(x) - 1j * mp.airybi(x)
        du = -(mp.airyai(x, 1) - 1j * mp.airybi(x, 1))
        return complex(u), complex(du)


@pytest.mark.parametrize("r0, target", [(0.0, 10.0), (10.0, 0.0)], ids=["up", "down"])
def test_riccati_panels_match_the_airy_wave(r0, target):
    u0, du0 = _airy_wave(r0)
    prob = OdeProblem(p=None, q=lambda r: 400.0 + r, r0=r0, u0=u0, du0=du0)
    samples = np.linspace(0.3, 9.7, 11)
    sol = integrate_riccati(prob, target, 1e-11, samples=samples)
    assert list(sol.r) == sorted([*samples, target], reverse=target < r0)
    want = np.array([_airy_wave(r) for r in sol.r])
    # measured 1.6e-13 and 1.7e-13; integrate at the same tol is off by 8e-13
    assert np.max(np.abs(sol.u - want[:, 0])) < 1e-12 * np.max(np.abs(want[:, 0]))
    assert np.max(np.abs(sol.du - want[:, 1])) < 1e-12 * np.max(np.abs(want[:, 1]))
    # 10 units of r on the 12-panel minimum
    assert (sol.n_steps, sol.n_rejected, sol.h_min) == (12, 0, 10.0 / 12)


def test_riccati_panels_free_wave_and_panel_count():
    # y = 3i is exact, so u = e^(3ir) up to rounding; 30 units of r take 30 panels
    prob = OdeProblem(p=None, q=lambda r: 9.0, r0=0.0, u0=1.0, du0=3j)
    sol = integrate_riccati(prob, 30.0, 1e-12, samples=[7.25, 15.0])
    assert np.max(np.abs(sol.u - np.exp(3j * sol.r))) < 1e-13
    assert np.max(np.abs(sol.du - 3j * np.exp(3j * sol.r))) < 5e-13
    assert (sol.n_steps, sol.h_min) == (30, 1.0)


@pytest.mark.parametrize(
    "q, message",
    [
        (lambda r: 4.0 - r * r, "q = 0 at r=2: the Riccati route needs q > 0"),
        (lambda r: np.full(np.shape(r), np.nan), "q = nan at r=0: the Riccati route needs q > 0"),
        (lambda r: 100.0 + 1j * r, "q is not real"),
        (lambda r: 4.0 + r, "phase-error estimate"),
    ],
    ids=["turning-point", "nan", "complex", "low-wave-number"],
)
def test_riccati_panels_refuse_naming_the_cause(q, message):
    prob = OdeProblem(p=None, q=q, r0=0.0, u0=1.0, du0=2j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepFailure, match=message):
            integrate_riccati(prob, 3.0, 1e-11)


def test_riccati_panels_take_the_schrodinger_form_only():
    prob = OdeProblem(p=lambda r: 1.0, q=lambda r: 9.0, r0=0.0, u0=1.0, du0=3j)
    with pytest.raises(ValueError, match="p must be None"):
        integrate_riccati(prob, 1.0, 1e-11)
    free = OdeProblem(p=None, q=lambda r: 9.0, r0=0.0, u0=1.0, du0=3j, direction=-1)
    with pytest.raises(ValueError, match="opposite"):
        integrate_riccati(free, 1.0, 1e-11)
    with pytest.raises(ValueError, match="outside"):
        integrate_riccati(free, -1.0, 1e-11, samples=[0.5])


# --- big-float series oracle --------------------------------------------------


def test_oracle_gamma_known_values():
    assert abs(complex(extended_series("gamma", [0.5])) - math.sqrt(math.pi)) < 1e-15
    assert abs(complex(extended_series("gamma", [5.0])) - 24.0) < 1e-13
    with pytest.raises(PoleError):
        extended_series("gamma", [-2.0])


def test_oracle_hyp2f1_known_values():
    v = complex(extended_series("hyp2f1", [1.0, 1.0, 2.0, 0.5]))
    assert abs(v - 2.0 * math.log(2.0)) < 1e-15


def test_oracle_bessel_half_integer():
    v = complex(extended_series("bessel", [0.5, 2.0]))
    expect = math.sqrt(2.0 / (math.pi * 2.0)) * math.sin(2.0)
    assert abs(v - expect) < 1e-15


def test_oracle_digit_contract():
    with pytest.raises(ValueError):
        extended_series("gamma", [0.5], digits=10)
    with pytest.raises(ValueError):
        extended_series("airy", [0.5])
    # raising the working precision must not move the value at double scale
    lo = complex(extended_series("hyp2f1", [0.75, -0.25, 1.5, 0.3], digits=30))
    hi = complex(extended_series("hyp2f1", [0.75, -0.25, 1.5, 0.3], digits=40))
    assert abs(lo - hi) < 1e-25


def test_oracle_agrees_with_fast_route():
    # dual-route check at the physically relevant parameter point
    a = complex(0.75, -2.51253140723345)
    b = complex(0.75, -7.48746859276655)
    cases = [(a, b, 1.5, 0.25), (a, b, 1.5, 0.45), (0.5 + 0.25j, 0.5 - 0.25j, 1.5, 0.3)]
    for aa, bb, cc, zz in cases:
        slow = complex(extended_series("hyp2f1", [aa, bb, cc, zz], digits=35))
        fast = hyp2f1(aa, bb, cc, zz)
        assert abs(fast - slow) < 1e-12 * max(1.0, abs(slow))


@pytest.mark.parametrize("eps", [200.0, 1000.0])
def test_oracle_hyp2f1_survives_cancellation(eps):
    # regular ansatz, m = eps/2, j = 1, z = 0.25: the series cancels by ~40
    # (eps=200) and ~217 (eps=1000) digits, far beyond the default 15 guard
    # digits; the oracle must re-sum at a precision that covers the loss
    ans = make_ansatz(HorizonUnitsParams(epsilon=eps, m=eps / 2.0, j=1), "regular")
    got = extended_series("hyp2f1", [ans.a, ans.b, ans.c, 0.25], digits=30)
    with mp.workdps(40):
        a, b, c = (mp.mpc(v) for v in (ans.a, ans.b, ans.c))
        expected = mp.hyp2f1(a, b, c, mp.mpf(0.25), maxterms=10**6)
        assert abs(got - expected) / abs(expected) < mp.mpf(10) ** -28


def test_oracle_domain_guards():
    with pytest.raises(ValueError):
        extended_series("hyp2f1", [1.0, 1.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        extended_series("hyp2f1", [1.0, 1.0, 2.0, -1.5])
    with pytest.raises(PoleError):
        extended_series("hyp2f1", [1.0, 1.0, -3.0, 0.5])


# --- singular-point classification -------------------------------------------


def test_classify_three_regular_points():
    rep = classify_singularities(load_fixture("de_sitter_radial"))
    assert rep.classification.startswith("hypergeometric_class")
    assert len(rep.points) == 3
    assert rep.includes_infinity
    by_loc = {str(pt.location): pt for pt in rep.points}
    assert set(by_loc) == {"0", "1", "infinity"}
    assert all(pt.kind == "regular" for pt in rep.points)
    assert set(by_loc["0"].exponents) == {Fraction(1, 2), Fraction(-1, 1)}
    e1 = sorted(by_loc["1"].exponents, key=lambda e: complex(e).imag)
    assert abs(complex(e1[0]) + 5j) < 1e-12 and abs(complex(e1[1]) - 5j) < 1e-12


def test_classify_four_regular_points():
    rep = classify_singularities(load_fixture("schwarzschild_like"))
    assert rep.classification.startswith("heun_class")
    assert len(rep.points) == 4
    finite = [pt for pt in rep.points if pt.location != "infinity"]
    assert {str(pt.location) for pt in finite} == {"0", "1", "2"}
    for pt in finite:
        assert pt.exponents == (Fraction(0), Fraction(0))


def test_classify_irregular_infinity():
    rep = classify_singularities(load_fixture("constant_coefficient"))
    assert rep.classification.startswith("other")
    assert len(rep.points) == 1
    assert rep.points[0].location == "infinity"
    assert rep.points[0].kind == "irregular"
    assert rep.points[0].exponents is None


def test_classify_indicial_exponents_generic_order():
    # z-form radial problem: exponents at z=0 must be the exact rationals
    # j/2 and -(j+1)/2 for every j
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
        rep = classify_singularities(coeffs)
        z0 = next(pt for pt in rep.points if str(pt.location) == "0")
        assert set(z0.exponents) == {Fraction(j, 2), Fraction(-(j + 1), 2)}


def test_classify_invariant_under_relabeling():
    base = load_fixture("de_sitter_radial")
    ref = classify_singularities(base).to_json()

    # permute the root lists
    shuffled = json.loads(json.dumps(base))
    for key in ("p", "q"):
        shuffled[key]["denominator"]["roots"].reverse()
    assert classify_singularities(shuffled).to_json() == ref

    # scale numerator and denominator constant together (same function)
    scaled = json.loads(json.dumps(base))
    for key in ("p", "q"):
        scaled[key]["numerator"] = [3 * c for c in scaled[key]["numerator"]]
        scaled[key]["denominator"]["const"] *= 3
    assert classify_singularities(scaled).to_json() == ref


def rational(numerator, const=1, roots=()):
    return {"numerator": numerator, "denominator": {"const": const, "roots": list(roots)}}


def exponents_at(rep, location):
    return next(pt.exponents for pt in rep.points if str(pt.location) == location)


def test_classify_gauss_equation_exponents():
    # x(1-x)u'' + [c - (a+b+1)x]u' - ab u = 0 has exponents {0, 1-c} at 0,
    # {0, c-a-b} at 1 and {a, b} at infinity
    a, b, c = Fraction(1, 3), Fraction(-1, 2), Fraction(3, 4)
    rep = classify_singularities({
        "p": rational([str(c), str(-(a + b + 1))], -1, [[0, 1], [1, 1]]),
        "q": rational([str(a * b)], 1, [[0, 1], [1, 1]]),
    })
    assert rep.classification == "hypergeometric_class(3)"
    assert rep.includes_infinity
    assert set(exponents_at(rep, "0")) == {0, 1 - c} == {0, Fraction(1, 4)}
    assert set(exponents_at(rep, "1")) == {0, c - a - b} == {0, Fraction(11, 12)}
    assert set(exponents_at(rep, "infinity")) == {a, b}
    assert all(isinstance(e, Fraction) for pt in rep.points for e in pt.exponents)


def test_classify_legendre_infinity_is_singular_although_x_p_tends_to_2():
    # (1-x^2)u'' - 2x u' + nu(nu+1)u = 0 with nu = 2: P = 2x/((x-1)(x+1)),
    # so x P -> 2, but Q ~ -6/x^2 keeps infinity regular singular: {nu+1, -nu}
    rep = classify_singularities({
        "p": rational([0, 2], 1, [[1, 1], [-1, 1]]),
        "q": rational([-6], 1, [[1, 1], [-1, 1]]),
    })
    assert rep.classification == "hypergeometric_class(3)"
    assert exponents_at(rep, "1") == exponents_at(rep, "-1") == (0, 0)
    assert set(exponents_at(rep, "infinity")) == {3, -2}


def test_classify_hermite_equation_only_irregular_infinity():
    # u'' - 2x u' + 6u = 0: no finite singular point; P = -2x alone makes
    # infinity irregular, with or without the Q term
    for q in ([6], [0]):
        rep = classify_singularities({"p": rational([0, -2]), "q": rational(q)})
        assert rep.classification == "other(1)"
        assert [(pt.location, pt.kind) for pt in rep.points] == [("infinity", "irregular")]


def test_classify_ordinary_infinity():
    # u'' + (2/x) u' = 0 (solutions 1 and 1/x): infinity is an ordinary point
    rep = classify_singularities({"p": rational([2], 1, [[0, 1]]), "q": rational([0])})
    assert not rep.includes_infinity
    assert rep.classification == "other(1)"
    assert [str(pt.location) for pt in rep.points] == ["0"]
    assert set(exponents_at(rep, "0")) == {0, -1}


def test_report_json_is_serializable():
    rep = classify_singularities(load_fixture("de_sitter_radial"))
    doc = rep.to_json()
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
    assert doc["points"][0]["location"] in {"0", "1", "infinity"}
