"""Exact rational-function descriptions of linear ODE coefficients.

Second-order equations are handled in the normalized form

    u'' + P(x) u' + Q(x) u = 0,

with P and Q supplied as polynomial ratios whose denominators are given in
*factored* form (leading constant plus a root/multiplicity list).  Keeping
the factorization explicit lets the singularity classifier work entirely in
rational arithmetic — no root finding, no floating-point fuzz.

All polynomial coefficient sequences are ascending-order tuples of
:class:`fractions.Fraction`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

Coeffs = tuple[Fraction, ...]

__all__ = [
    "UnfactoredInput",
    "FactoredRational",
    "poly_eval",
    "poly_mul",
    "poly_add",
    "poly_scale",
    "poly_valuation",
    "rational_sqrt",
    "indicial_roots",
]


class UnfactoredInput(ValueError):
    """A denominator was not supplied in factored (const + roots) form."""


def _as_fraction(value: Any) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a polynomial coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite coefficient {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


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


def poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Coeffs:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Coeffs:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for k, cb in enumerate(b):
            out[i + k] += ca * cb
    return _trim(out)


def poly_scale(a: Sequence[Fraction], s: Fraction) -> Coeffs:
    return _trim([c * s for c in a])


def poly_valuation(coeffs: Sequence[Fraction], x0: Fraction) -> int:
    """Order of the zero of the polynomial at x0 (0 if p(x0) != 0).

    A zero polynomial is treated as having infinite valuation, returned as a
    large sentinel (the degree bound makes any value above len(coeffs) safe).
    """
    cs = _trim(coeffs)
    if all(c == 0 for c in cs):
        return 10**9
    order = 0
    while poly_eval(cs, x0) == 0:
        # synthetic division by (x - x0)
        out = []
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x0 + c
            out.append(acc)
        # out holds remainders; quotient coefficients are out[:-1] reversed
        cs = _trim(list(reversed(out[:-1]))) or (Fraction(0),)
        order += 1
    return order


def _reversed_padded(coeffs: Coeffs) -> Coeffs:
    return _trim(list(reversed(coeffs)))


@dataclass(frozen=True)
class FactoredRational:
    """numerator(x) / (const * prod (x - root_i)**mult_i), all exact.

    JSON form::

        {"numerator": ["6", "-10"],
         "denominator": {"const": "-4", "roots": [["0", 1], ["1", 1]]}}

    Numbers may be integers, rational strings like "3/4", or floats (floats
    are converted to their exact binary value).  A denominator given as a
    flat coefficient list is rejected with UnfactoredInput.
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
        num = _trim([_as_fraction(c) for c in obj["numerator"]])
        den = obj.get("denominator", {"const": 1, "roots": []})
        if isinstance(den, (list, tuple)):
            raise UnfactoredInput(
                "denominator given as a coefficient list; supply factored form instead"
            )
        if not isinstance(den, dict) or "roots" not in den and "const" not in den:
            raise UnfactoredInput(
                "denominator must be factored: {'const': c, 'roots': [[root, mult], ...]}"
            )
        const = _as_fraction(den.get("const", 1))
        roots = []
        for entry in den.get("roots", []):
            root, mult = entry
            roots.append((_as_fraction(root), int(mult)))
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

    def denominator_coeffs(self) -> Coeffs:
        out: Coeffs = (self.const,)
        for root, mult in self.roots:
            factor = (-root, Fraction(1))
            for _ in range(mult):
                out = poly_mul(out, factor)
        return out

    def pole_order(self, x0: Fraction) -> int:
        """Pole order at x0 after numerator/denominator cancellation (<= 0: regular)."""
        mult = 0
        for root, m in self.roots:
            if root == x0:
                mult += m
        if mult == 0:
            return 0
        return mult - poly_valuation(self.numerator, x0)

    def shifted_limit(self, x0: Fraction, k: int) -> Fraction:
        """Exact limit of (x - x0)**k * self at x -> x0.

        Requires k >= pole_order(x0); the result is 0 when the shifted
        function still vanishes at x0.
        """
        num = list(self.numerator)
        v = min(poly_valuation(num, x0), k + sum(m for r, m in self.roots if r == x0))
        mult = sum(m for r, m in self.roots if r == x0)
        net = k + v - mult  # order of zero of (x-x0)^k * num / (x-x0)^mult at x0
        if net < 0:
            raise ValueError(f"(x-{x0})^{k} * f still has a pole at {x0}")
        if net > 0:
            return Fraction(0)
        # deflate numerator v times
        cs: Sequence[Fraction] = _trim(num)
        for _ in range(v):
            out = []
            acc = Fraction(0)
            for c in reversed(cs):
                acc = acc * x0 + c
                out.append(acc)
            cs = _trim(list(reversed(out[:-1]))) or (Fraction(0),)
        value = poly_eval(cs, x0)
        rest = self.const
        for root, m in self.roots:
            if root != x0:
                rest *= (x0 - root) ** m
        return value / rest

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: complex) -> complex:
        num = poly_eval_complex(self.numerator, x)
        den = complex(float(self.const))
        for root, mult in self.roots:
            den *= (x - float(root)) ** mult
        return num / den

    # -- behavior at infinity -----------------------------------------------

    def compose_inverse_over_power(self, k: int) -> tuple[Coeffs, Coeffs, int]:
        """Represent f(1/t) / t**k as num(t)/den(t) * t**e with num(0), den(0) != 0.

        Returns (num, den, e) where e may be negative (net pole at t=0).
        """
        num = _trim(self.numerator)
        den = self.denominator_coeffs()
        dn = len(num) - 1
        dd = len(den) - 1
        rnum = _reversed_padded(num)
        rden = _reversed_padded(den)
        # f(1/t)/t^k = t^(dd-dn-k) * rnum(t)/rden(t); rnum/rden may still have
        # factors of t if the original polynomials had zero leading terms
        # (trimmed away) or zero trailing terms.
        e = dd - dn - k
        vt_num = next(i for i, c in enumerate(rnum) if c != 0) if any(rnum) else 0
        vt_den = next(i for i, c in enumerate(rden) if c != 0)
        e += vt_num - vt_den
        return (
            _trim(rnum[vt_num:]) if any(rnum) else (Fraction(0),),
            _trim(rden[vt_den:]),
            e,
        )


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
