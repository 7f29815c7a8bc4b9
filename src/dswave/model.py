"""Parameterizations, unit conversions, tortoise coordinate, and the
effective potential of the static-patch wave problem.

Two unit systems appear at the API boundary:

* physical: curvature radius ``R``, Compton length ``lam``, energy ``mu`` in
  rest-energy units, angular momentum ``j``;
* horizon: everything dimensionless with the horizon at r = 1 —
  ``epsilon = mu * R / lam``, ``m = R / lam``, ``p = j + 1/2``.

All internal computation uses horizon units; the metric factor is
Phi(r) = 1 - r**2 and the potential carries units 1/R**2 with that factor
divided out (documented, since the source convention mixes the two).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .rational_ode import FactoredRational

__all__ = [
    "DomainError",
    "ModelParams",
    "HorizonUnitsParams",
    "PotentialProfile",
    "RadialCoefficients",
    "phi",
    "to_horizon_units",
    "tortoise",
    "tortoise_inverse",
    "effective_potential",
    "potential_profile",
    "radial_ode_coefficients",
]


class DomainError(ValueError):
    """Radial argument outside the static patch (or at a singular point)."""


def phi(r: float) -> float:
    """Metric factor Phi(r) = 1 - r^2 (horizon units, horizon at r=1)."""
    return 1.0 - r * r


def _check_finite(name: str, value: float, *, positive: bool) -> None:
    """Raise ValueError naming the parameter unless value is a finite number
    that is > 0 (positive) or >= 0 (otherwise)."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be a finite {sign} number, got {value!r}")


def _check_j(j: int) -> None:
    """Raise ValueError naming j unless it is a non-negative integer whose
    centrifugal weight j(j+1) is a finite double."""
    if j < 0 or j != int(j):
        raise ValueError("j must be a non-negative integer")
    if j * (j + 1) > sys.float_info.max:  # exact comparison, even for huge ints
        raise ValueError("j must be below 1.3e154 so that j(j+1) is a finite double")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameterization (R and lam carry the same length unit).

    R and lam are finite positive lengths, mu a finite non-negative energy.
    """

    R: float
    lam: float
    mu: float
    j: int

    def __post_init__(self) -> None:
        _check_finite("R", self.R, positive=True)
        _check_finite("lam", self.lam, positive=True)
        _check_finite("mu", self.mu, positive=False)
        _check_j(self.j)


@dataclass(frozen=True)
class HorizonUnitsParams:
    """Dimensionless parameters: epsilon = mu R/lam, m = R/lam, p = j + 1/2.

    epsilon and m are finite and non-negative (m = 0 is the massless field).
    """

    epsilon: float
    m: float
    j: int

    def __post_init__(self) -> None:
        _check_finite("m", self.m, positive=False)  # first: epsilon may default to m
        _check_finite("epsilon", self.epsilon, positive=False)
        _check_j(self.j)

    @property
    def p(self) -> float:
        return self.j + 0.5

    @property
    def mu(self) -> float:
        return self.epsilon / self.m


def to_horizon_units(p: ModelParams) -> HorizonUnitsParams:
    m = p.R / p.lam
    return HorizonUnitsParams(epsilon=p.mu * m, m=m, j=p.j)


def tortoise(r: float) -> float:
    """Tortoise coordinate r* = (1/2) ln((1+r)/(1-r)) in units of R."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"tortoise: r={r} outside [0, 1)")
    return math.atanh(r)


def tortoise_inverse(r_star: float) -> float:
    """Inverse map r = tanh(r*), r* >= 0."""
    if r_star < 0.0:
        raise DomainError(f"tortoise_inverse: r*={r_star} negative")
    return math.tanh(r_star)


def effective_potential(
    hp: HorizonUnitsParams, r: float | np.ndarray
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Potential U and force F = -dU/dr* of the Schrodinger-form equation.

    U(r) = (1 - r^2) [4(1-r) + r/(1+r) + m^2 + j(j+1)/r^2]   (units 1/R^2)

    and F is the exact closed-form derivative -Phi dU/dr (units 1/R^3).
    r = 0 is allowed only for j = 0, where the centrifugal term is absent.
    A float ndarray r gives arrays U and F of its shape, by the same formulas.
    """
    if isinstance(r, np.ndarray):
        return _effective_potential_array(hp, r)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"effective_potential: r={r} outside [0, 1)")
    j = hp.j
    cent = j * (j + 1)
    if r == 0.0:
        if j > 0:
            raise DomainError("effective_potential: r=0 is singular for j > 0")
        w = 4.0 + hp.m * hp.m
        return w, 3.0  # Phi=1; F = 2rW + Phi(4 - 1/(1+r)^2) -> 3 at r=0
    f = phi(r)
    w = 4.0 * (1.0 - r) + r / (1.0 + r) + hp.m * hp.m + cent / (r * r)
    u = f * w
    dw = 4.0 - 1.0 / ((1.0 + r) ** 2) + 2.0 * cent / (r ** 3)
    force = f * (2.0 * r * w + f * dw)
    return u, force


def _effective_potential_array(hp: HorizonUnitsParams, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    outside = ~((0.0 <= r) & (r < 1.0))
    if outside.any():
        raise DomainError(f"effective_potential: r={r[outside][0]} outside [0, 1)")
    cent = hp.j * (hp.j + 1)
    f = 1.0 - r * r
    w = 4.0 * (1.0 - r) + r / (1.0 + r) + hp.m * hp.m
    dw = 4.0 - 1.0 / ((1.0 + r) ** 2)
    if cent:  # without the centrifugal terms r = 0 needs no special case
        if (r == 0.0).any():
            raise DomainError("effective_potential: r=0 is singular for j > 0")
        w = w + cent / (r * r)
        dw = dw + 2.0 * cent / (r ** 3)
    return f * w, f * (2.0 * r * w + f * dw)


@dataclass(frozen=True)
class PotentialProfile:
    """Tabulated potential along the tortoise axis.

    The Schrodinger-form unknown is G(r*), with G'' + (eps^2 - U) G = 0.
    """

    r_star: np.ndarray
    U: np.ndarray
    F: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.r_star) == len(self.U) == len(self.F)):
            raise ValueError("profile grids must share length")
        if len(self.r_star) > 1 and not np.all(np.diff(self.r_star) > 0):
            raise ValueError("r_star grid must be strictly increasing")


def potential_profile(hp: HorizonUnitsParams, r_grid: Sequence[float]) -> PotentialProfile:
    rs = []
    us = []
    fs = []
    for r in r_grid:
        u, f = effective_potential(hp, r)
        rs.append(tortoise(r))
        us.append(u)
        fs.append(f)
    return PotentialProfile(
        r_star=np.asarray(rs, dtype=float),
        U=np.asarray(us, dtype=float),
        F=np.asarray(fs, dtype=float),
    )


@dataclass(frozen=True)
class RadialCoefficients:
    """Rational data of f'' + p(r) f' + q(r) f = 0, exact in r."""

    p: FactoredRational
    q: FactoredRational


def radial_ode_coefficients(hp: HorizonUnitsParams) -> RadialCoefficients:
    """Coefficients of the radial equation as factored-rational data.

    f'' + (2/r + Phi'/Phi) f' + [eps^2/Phi^2 - (m^2+2)/Phi - j(j+1)/(Phi r^2)] f = 0

    cleared to a common denominator:

        p(r) = (2 - 4 r^2) / (r (1 - r^2))
        q(r) = [eps^2 r^2 - (m^2+2) r^2 (1-r^2) - j(j+1)(1-r^2)]
               / (r^2 (1 - r^2)^2)

    epsilon and m enter as their exact binary-float rationals, so the data
    can feed both the float ODE integrator and the exact classifier.
    """
    e2 = Fraction(hp.epsilon) ** 2
    m2p2 = Fraction(hp.m) ** 2 + 2
    cent = Fraction(hp.j * (hp.j + 1))
    one = Fraction(1)
    p = FactoredRational(
        numerator=(Fraction(2), Fraction(0), Fraction(-4)),
        const=Fraction(-1),
        roots=((Fraction(0), 1), (one, 1), (Fraction(-1), 1)),
    )
    q = FactoredRational(
        numerator=(-cent, Fraction(0), e2 - m2p2 + cent, Fraction(0), m2p2),
        const=one,
        roots=((Fraction(0), 2), (one, 2), (Fraction(-1), 2)),
    )
    return RadialCoefficients(p=p, q=q)
