"""Exact rational/polynomial layer: factored coefficients and indicial roots."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dswave.oracle import classify_singularities
from dswave.rational_ode import (
    MAX_MULTIPLICITY,
    FactoredRational,
    UnfactoredInput,
    indicial_roots,
    poly_eval,
    poly_deflate,
    rational_sqrt,
)


def test_poly_eval_and_deflation_exact():
    prod = (Fraction(3), Fraction(6), Fraction(1), Fraction(2))  # (1 + 2x)(3 + x^2)
    x = Fraction(1, 2)
    assert poly_eval(prod, x) == (1 + 2 * x) * (3 + x * x)
    # (x - 1/2)^2 (x + 3) = x^3 + 2x^2 - 11/4 x + 3/4
    cubic = (Fraction(3, 4), Fraction(-11, 4), Fraction(2), Fraction(1))
    assert poly_deflate(cubic, Fraction(1, 2)) == (2, (Fraction(3), Fraction(1)))
    assert poly_deflate(cubic, Fraction(-3)) == (1, (Fraction(1, 4), Fraction(-1), Fraction(1)))
    assert poly_deflate(cubic, Fraction(1)) == (0, cubic)
    assert poly_deflate((Fraction(0), Fraction(0)), Fraction(1))[0] > 2  # zero polynomial


def test_shifted_limit_deflates_the_cancelled_factor():
    # (x - 1/2)^2 (x + 3) / (2 (x - 1/2)^3 x): simple pole at 1/2, residue 7/2
    fr = FactoredRational(
        numerator=(Fraction(3, 4), Fraction(-11, 4), Fraction(2), Fraction(1)),
        const=Fraction(2),
        roots=((Fraction(1, 2), 3), (Fraction(0), 1)),
    )
    assert fr.pole_order(Fraction(1, 2)) == 1
    assert fr.shifted_limit(Fraction(1, 2), 1) == Fraction(7, 2)
    assert fr.shifted_limit(Fraction(1, 2), 2) == 0
    with pytest.raises(ValueError):
        fr.shifted_limit(Fraction(0), 0)


def test_leading_term_at_infinity():
    # 3x^2 / (2 x^3 (x - 1)^2) ~ (3/2) x^-3; trailing zero coefficients are ignored
    fr = FactoredRational(
        numerator=(Fraction(0), Fraction(0), Fraction(3), Fraction(0)),
        const=Fraction(2),
        roots=((Fraction(0), 3), (Fraction(1), 2)),
    )
    assert fr.leading_term() == (-3, Fraction(3, 2))
    zero = FactoredRational(numerator=(Fraction(0),), const=Fraction(1), roots=())
    assert zero.leading_term() is None


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == Fraction(0)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1, 4)) is None


def test_rational_sqrt_over_seeded_squares_and_non_squares():
    # a^2 / b^2 returns a / b; a^2 + 1, never a square for a > 0, and its
    # quotients by b^2 return None
    rng = random.Random(2026)
    for _ in range(200):
        a, b = rng.randrange(1, 10 ** rng.randrange(1, 60)), rng.randrange(1, 10 ** rng.randrange(1, 60))
        assert rational_sqrt(Fraction(a * a, b * b)) == Fraction(a, b)
        assert rational_sqrt(Fraction(a * a + 1)) is None
        assert rational_sqrt(Fraction(a * a + 1, b * b)) is None
        assert rational_sqrt(Fraction(b * b, a * a + 1)) is None


def test_classify_tells_a_long_non_square_discriminant_without_isqrt(monkeypatch):
    # p = 1 / (x (x - r)^1000), r a 91-digit rational: the indicial
    # discriminant at x = 0 has a numerator and a denominator of ~180 000
    # digits, and no isqrt of either is taken to find it is not a square
    r = "1" + "234567890" * 10 + "/7"
    coeffs = {
        "p": {"numerator": [1], "denominator": {"const": 1, "roots": [["0", 1], [r, 1000]]}},
        "q": {"numerator": [1], "denominator": {"const": 1, "roots": [["0", 2]]}},
    }
    calls = []
    isqrt = math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: calls.append(n) or isqrt(n))
    report = classify_singularities(coeffs)
    assert not calls
    assert report.classification == "other(3)"
    assert [(p.location, p.kind) for p in report.points] == [
        (Fraction(0), "regular"), (Fraction(r), "irregular"), ("infinity", "regular")
    ]
    root = complex(0.5, math.sqrt(0.75))
    assert report.points[0].exponents == (root, root.conjugate())
    assert report.points[2].exponents == (root - 1, root.conjugate() - 1)


def test_indicial_roots_rational_pair():
    # s(s-1) + (3/2) s = 0  ->  {0, -1/2}
    r1, r2 = indicial_roots(Fraction(3, 2), Fraction(0))
    assert {r1, r2} == {Fraction(0), Fraction(-1, 2)}
    assert isinstance(r1, Fraction) and isinstance(r2, Fraction)


def test_indicial_roots_exact_complex_pair():
    # s^2 + 25 = 0 -> +/- 5i, exact because the negated discriminant is square
    r1, r2 = indicial_roots(Fraction(1), Fraction(25))
    assert r1 == complex(0.0, 5.0)
    assert r2 == complex(0.0, -5.0)


def test_indicial_roots_float_fallback():
    # s(s-1) + 27/4 = 0: discriminant 1/4 - 27/4 is not a rational square
    r1, r2 = indicial_roots(Fraction(0), Fraction(27, 4))
    assert isinstance(r1, complex)
    assert abs(r1.real - 0.5) < 1e-14
    assert abs(abs(r1.imag) - (26.0 / 4.0) ** 0.5) < 1e-14
    assert r2 == r1.conjugate()


def test_factored_rational_evaluates():
    # (2 - 4x^2) / (x (1 - x^2)) written as const -1 with roots {0, 1, -1}
    fr = FactoredRational(
        numerator=(Fraction(2), Fraction(0), Fraction(-4)),
        const=Fraction(-1),
        roots=((Fraction(0), 1), (Fraction(1), 1), (Fraction(-1), 1)),
    )
    x = 0.5
    assert abs(fr(x) - (2 - 4 * x * x) / (x * (1 - x * x))) < 1e-15


def test_factored_rational_keeps_real_arguments_real():
    # the collocation panels solve in real arithmetic when p and q are real
    fr = FactoredRational(
        numerator=(Fraction(2), Fraction(0), Fraction(-4)),
        const=Fraction(-1),
        roots=((Fraction(0), 1), (Fraction(1), 1), (Fraction(-1), 1)),
    )
    x = np.linspace(0.1, 0.9, 9)
    assert fr(x).dtype == np.float64
    assert np.allclose(fr(x), (2 - 4 * x * x) / (x * (1 - x * x)), rtol=1e-15, atol=0.0)
    assert isinstance(fr(0.5), float)
    z = 0.5 + 0.25j
    assert abs(fr(z) - (2 - 4 * z * z) / (z * (1 - z * z))) < 1e-15 * abs(fr(z))


def test_from_json_round_trip():
    obj = {
        "numerator": ["-2", "75", "27"],
        "denominator": {"const": "4", "roots": [["0", 2], ["1", 2]]},
    }
    fr = FactoredRational.from_json(obj)
    assert fr.numerator == (Fraction(-2), Fraction(75), Fraction(27))
    assert fr.const == Fraction(4)
    assert fr.roots == ((Fraction(0), 2), (Fraction(1), 2))
    again = FactoredRational.from_json(fr.to_json())
    assert again == fr


def test_from_json_accepts_fraction_strings():
    fr = FactoredRational.from_json(
        {"numerator": ["3/4", 1], "denominator": {"const": 1, "roots": [["-1/2", 1]]}}
    )
    assert fr.numerator == (Fraction(3, 4), Fraction(1))
    assert fr.roots == ((Fraction(-1, 2), 1),)


def test_from_json_accepts_whole_number_multiplicities_up_to_the_bound():
    fr = FactoredRational.from_json(
        {"numerator": [1], "denominator": {"roots": [["0", 2.0], ["1", "3"], ["2", MAX_MULTIPLICITY]]}}
    )
    assert fr.roots == ((Fraction(0), 2), (Fraction(1), 3), (Fraction(2), MAX_MULTIPLICITY))


@pytest.mark.parametrize(
    "mult", [1.5, True, "1.5", 0, -1, MAX_MULTIPLICITY + 1, 10**8, None, [1], float("inf")]
)
def test_from_json_refuses_other_multiplicities_naming_the_root(mult):
    den = {"const": 1, "roots": [["0", 1], ["1/3", mult]]}
    with pytest.raises(UnfactoredInput, match=r"root '1/3' needs a whole-number multiplicity"):
        FactoredRational.from_json({"numerator": [1], "denominator": den})


@pytest.mark.parametrize("entry", [5, ["0"], ["0", 1, 2], "01"])
def test_from_json_refuses_root_entries_that_are_not_pairs(entry):
    with pytest.raises(UnfactoredInput, match=r"\[root, multiplicity\] pair"):
        FactoredRational.from_json({"numerator": [1], "denominator": {"roots": [entry]}})


@pytest.mark.parametrize("coefficient", [True, None, "abc", "1/0", float("nan"), [1], {"a": 1}])
def test_from_json_refuses_coefficients_that_are_not_exact_numbers(coefficient):
    with pytest.raises(UnfactoredInput, match=r"^a numerator coefficient must be .*, got "):
        FactoredRational.from_json({"numerator": [1, coefficient]})
    with pytest.raises(UnfactoredInput, match=r"^the denominator const must be "):
        FactoredRational.from_json({"numerator": [1], "denominator": {"const": coefficient}})
    with pytest.raises(UnfactoredInput, match=r"^a denominator root must be "):
        FactoredRational.from_json({"numerator": [1], "denominator": {"roots": [[coefficient, 1]]}})


@pytest.mark.parametrize("numerator", [5, "12", {"a": 1}, None])
def test_from_json_refuses_a_numerator_that_is_not_a_list(numerator):
    with pytest.raises(UnfactoredInput, match="numerator must be a list of coefficients"):
        FactoredRational.from_json({"numerator": numerator})


@pytest.mark.parametrize("roots", [7, "0", {"0": 1}])
def test_from_json_refuses_roots_that_are_not_a_list(roots):
    with pytest.raises(UnfactoredInput, match=r"denominator roots must be a list of \[root, multiplicity\] pairs"):
        FactoredRational.from_json({"numerator": [1], "denominator": {"const": 1, "roots": roots}})


def test_unfactored_denominator_rejected():
    with pytest.raises(UnfactoredInput, match="coefficient list"):
        FactoredRational.from_json({"numerator": [1], "denominator": [1, 2, 1]})
    with pytest.raises(UnfactoredInput):
        FactoredRational.from_json([1, 2, 3])


def test_zero_denominator_const_rejected():
    with pytest.raises(ValueError):
        FactoredRational(numerator=(Fraction(1),), const=Fraction(0), roots=())
