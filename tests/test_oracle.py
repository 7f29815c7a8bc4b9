"""Independent numerics: RKF7(8) integrator, big-float series, classification."""
from __future__ import annotations

import json
import math
import pathlib
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import dswave
import dswave.oracle
from dswave.oracle import (
    OdeProblem,
    PoleError,
    StepFailure,
    classify_singularities,
    extended_series,
    integrate,
)
from dswave.model import HorizonUnitsParams
from dswave.special import hyp2f1
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


def test_integrate_validation_and_step_failure():
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
    with pytest.raises(StepFailure):
        integrate(prob, 10.0, 1e-12, max_steps=5)


def _rkf78_step(p, q, r, h, u, v):
    """One RKF7(8) step, stage by stage on scalars: (u, u') after it and the
    embedded error estimates of u and u'."""
    table = dswave.oracle._RKF78
    ku, kv = [], []
    for c, row in zip(table["c"], table["a"]):
        ui = u + h * sum(a * k for a, k in zip(row, ku))
        vi = v + h * sum(a * k for a, k in zip(row, kv))
        ku.append(vi)
        kv.append(-q(r + c * h) * ui - p(r + c * h) * vi)
    u_new = u + h * sum(b * k for b, k in zip(table["b"], ku))
    v_new = v + h * sum(b * k for b, k in zip(table["b"], kv))
    err = [abs(h) * 41.0 / 840.0 * abs(k[0] + k[10] - k[11] - k[12]) for k in (ku, kv)]
    return u_new, v_new, err


def test_block_kernel_matches_the_scalar_stage_loop():
    # complex p and q and unequal steps; the block forms each step's 2x2
    # propagator and error matrix and chains them by prefix products
    p = lambda r: 1.0 / (1.0 + r) + 0.3j
    q = lambda r: 40.0 + 10.0 * np.sin(r) - 2.0j * r
    ends = np.array([0.05, 0.12, 0.2, 0.21, 0.3, 0.36, 0.45])
    starts = np.concatenate(([0.0], ends[:-1]))
    y = np.array([0.3 - 1.0j, 2.0 + 0.5j])
    ys, errs = dswave.oracle._walk(
        *dswave.oracle._step_matrices(p, q, starts, ends - starts), y
    )
    u, v = y
    for k, (r, h) in enumerate(zip(starts, ends - starts)):
        u, v, err = _rkf78_step(p, q, r, h, u, v)
        assert abs(ys[0, k] - u) < 1e-14 * abs(u) and abs(ys[1, k] - v) < 1e-14 * abs(v)
        # the estimate is a difference of slopes: below ~1e-15 |y| it is rounding
        assert np.allclose(errs[:, k], err, rtol=1e-6, atol=1e-15), (k, errs[:, k], err)


def test_integrate_hits_dense_samples_across_blocks():
    # 1001 samples over ~10 blocks: every one is landed on, in order
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
    assert 0 < first.n_rejected <= first.n_steps
    assert 0.0 < first.h_min <= 0.01


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
