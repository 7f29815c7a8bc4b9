"""Exact rational-function descriptions of linear ODE coefficients.

Second-order equations are handled in the normalized form

    u'' + P(x) u' + Q(x) u = 0,

with P and Q supplied as polynomial ratios whose denominators are given in
*factored* form (leading constant plus a root/multiplicity list).  Keeping
the factorization explicit lets the singularity classifier work entirely in
rational arithmetic — no root finding, no floating-point fuzz: finite points
by synthetic division (:func:`poly_deflate`), infinity by the leading terms.

All polynomial coefficient sequences are ascending-order tuples of
:class:`fractions.Fraction`.
"""
from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

Coeffs = tuple[Fraction, ...]

__all__ = [
    "MAX_MULTIPLICITY",
    "UnfactoredInput",
    "FactoredRational",
    "poly_eval",
    "poly_deflate",
    "rational_sqrt",
    "indicial_roots",
]


class UnfactoredInput(ValueError):
    """Coefficient data is not an exact rational with a factored (const +
    roots) denominator, or one of its entries is malformed."""


# Largest root multiplicity from_json accepts.  The classifier raises each
# other root to its multiplicity exactly, so the bound caps the size of those
# powers: roots written with up to 20 digits classify in well under 1 s.
MAX_MULTIPLICITY = 1000


def _as_fraction(value: Any, what: str) -> Fraction:
    """The exact value of one JSON number or rational string, or
    UnfactoredInput naming the entry (what) and the value."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        with contextlib.suppress(ValueError, ZeroDivisionError):
            return Fraction(value)
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(value)
    raise UnfactoredInput(
        f"{what} must be an integer, a finite float or a rational string like '3/4', "
        f"got {value!r}"
    )


def _as_multiplicity(root: Any, mult: Any) -> int:
    """A whole-number multiplicity in [1, MAX_MULTIPLICITY], or UnfactoredInput naming the root."""
    value = None
    if isinstance(mult, float) and mult.is_integer():
        value = int(mult)
    elif isinstance(mult, (int, str)) and not isinstance(mult, bool):
        with contextlib.suppress(ValueError):
            value = int(mult)
    if value is None or not 1 <= value <= MAX_MULTIPLICITY:
        raise UnfactoredInput(
            f"root {root!r} needs a whole-number multiplicity from 1 to "
            f"{MAX_MULTIPLICITY}, got {mult!r}"
        )
    return value


def _trim(coeffs: Sequence[Fraction]) -> Coeffs:
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_eval_complex(coeffs: Sequence[Fraction], x: complex) -> complex:
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * x + float(c)
    return acc


def poly_deflate(coeffs: Sequence[Fraction], x0: Fraction) -> tuple[int, Coeffs]:
    """Order of the zero at x0 and the quotient by (x - x0)**order.

    The zero polynomial has infinite order, returned as a large sentinel (the
    degree bound makes any value above len(coeffs) safe), with itself as the
    quotient.
    """
    cs = _trim(coeffs)
    if all(c == 0 for c in cs):
        return 10**9, cs
    order = 0
    while True:
        # synthetic division by (x - x0): the running Horner sums are the
        # quotient's coefficients, highest first, then the remainder p(x0)
        *quotient, remainder = itertools.accumulate(reversed(cs), lambda acc, c: acc * x0 + c)
        if remainder != 0:
            return order, cs
        cs, order = _trim(quotient[::-1]), order + 1


@dataclass(frozen=True)
class FactoredRational:
    """numerator(x) / (const * prod (x - root_i)**mult_i), all exact.

    JSON form::

        {"numerator": ["6", "-10"],
         "denominator": {"const": "-4", "roots": [["0", 1], ["1", 1]]}}

    Numbers may be integers, rational strings like "3/4", or finite floats
    (floats are converted to their exact binary value).  A multiplicity must
    be a whole number from 1 to MAX_MULTIPLICITY (2.0 and "2" count as 2).
    A denominator given as a flat coefficient list, a numerator or root list
    that is not a list, and any malformed entry are rejected with
    UnfactoredInput naming the entry.
    """

    numerator: Coeffs
    const: Fraction
    roots: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        if self.const == 0:
            raise ValueError("denominator constant must be nonzero")
        for _, mult in self.roots:
            if mult < 1:
                raise ValueError("root multiplicities must be >= 1")

    @classmethod
    def from_json(cls, obj: Any) -> "FactoredRational":
        if not isinstance(obj, dict) or "numerator" not in obj:
            raise UnfactoredInput(
                "expected {'numerator': [...], 'denominator': {'const': c, 'roots': [...]}}"
            )
        num = obj["numerator"]
        if not isinstance(num, (list, tuple)):
            raise UnfactoredInput(f"numerator must be a list of coefficients, got {num!r}")
        num = _trim([_as_fraction(c, "a numerator coefficient") for c in num])
        den = obj.get("denominator", {"const": 1, "roots": []})
        if isinstance(den, (list, tuple)):
            raise UnfactoredInput(
                "denominator given as a coefficient list; supply factored form instead"
            )
        if not isinstance(den, dict) or "roots" not in den and "const" not in den:
            raise UnfactoredInput(
                "denominator must be factored: {'const': c, 'roots': [[root, mult], ...]}"
            )
        const = _as_fraction(den.get("const", 1), "the denominator const")
        entries = den.get("roots", [])
        if not isinstance(entries, (list, tuple)):
            raise UnfactoredInput(
                f"denominator roots must be a list of [root, multiplicity] pairs, got {entries!r}"
            )
        roots = []
        for entry in entries:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise UnfactoredInput(
                    f"a denominator root must be a [root, multiplicity] pair, got {entry!r}"
                )
            root, mult = entry
            roots.append((_as_fraction(root, "a denominator root"), _as_multiplicity(root, mult)))
        return cls(numerator=num, const=const, roots=tuple(roots))

    def to_json(self) -> dict:
        return {
            "numerator": [str(c) for c in self.numerator],
            "denominator": {
                "const": str(self.const),
                "roots": [[str(r), m] for r, m in self.roots],
            },
        }

    # -- structure ----------------------------------------------------------

    def _multiplicity(self, x0: Fraction) -> int:
        return sum(m for root, m in self.roots if root == x0)

    def pole_order(self, x0: Fraction) -> int:
        """Pole order at x0 after numerator/denominator cancellation (<= 0: regular)."""
        mult = self._multiplicity(x0)
        if mult == 0:
            return 0
        return mult - poly_deflate(self.numerator, x0)[0]

    def shifted_limit(self, x0: Fraction, k: int) -> Fraction:
        """Exact limit of (x - x0)**k * self at x -> x0.

        Requires k >= pole_order(x0); the result is 0 when the shifted
        function still vanishes at x0.
        """
        order, quotient = poly_deflate(self.numerator, x0)
        net = k + order - self._multiplicity(x0)  # order of the zero at x0
        if net < 0:
            raise ValueError(f"(x-{x0})^{k} * f still has a pole at {x0}")
        if net > 0:
            return Fraction(0)
        rest = self.const
        for root, m in self.roots:
            if root != x0:
                rest *= (x0 - root) ** m
        return poly_eval(quotient, x0) / rest

    def leading_term(self) -> tuple[int, Fraction] | None:
        """(g, c) with self ~ c * x**g as x -> infinity; None for the zero function."""
        num = _trim(self.numerator)
        if all(c == 0 for c in num):
            return None
        gap = len(num) - 1 - sum(m for _, m in self.roots)
        return gap, num[-1] / self.const

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: complex) -> complex:
        num = poly_eval_complex(self.numerator, x)
        den = complex(float(self.const))
        for root, mult in self.roots:
            den *= (x - float(root)) ** mult
        return num / den


def rational_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    if f < 0:
        return None
    num = f.numerator
    den = f.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def indicial_roots(A: Fraction, B: Fraction) -> tuple[Any, Any]:
    """Solve s(s-1) + A s + B = 0 exactly when possible.

    Returns a pair of Fractions when the discriminant is a rational square,
    a pair of exact-component complex numbers when minus the discriminant is
    a rational square, and floating-point values otherwise.
    """
    # s^2 + (A-1) s + B = 0
    half_b = (A - 1) / 2
    disc = half_b * half_b - B
    root = rational_sqrt(disc)
    if root is not None:
        return (-half_b + root, -half_b - root)
    root = rational_sqrt(-disc)
    if root is not None:
        re = float(-half_b)
        im = float(root)
        return (complex(re, im), complex(re, -im))
    d = float(disc)
    if d >= 0.0:
        rd = math.sqrt(d)
        return (float(-half_b) + rd, float(-half_b) - rd)
    rd = math.sqrt(-d)
    return (complex(float(-half_b), rd), complex(float(-half_b), -rd))
