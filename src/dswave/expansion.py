"""Small-curvature expansion of the exact waves and zero-order wave recovery.

Everything here works in Compton units (lam = 1), with X = 1/R the small
parameter, Y = R/2 its large partner, and k = sqrt(mu^2 - 1) the flat wave
number.  ExpansionParams holds the three independent inputs mu, X and j;
k, Y and the Bessel order p = j + 1/2 are derived from them, and every
function here reads j from its params.  The Gauss-series factor of the
regular standing wave, evaluated at z = (r X)^2 with the exact complex
parameters, collapses order by order in X onto Bessel profiles:

    Fbar(r; X) = F0(r) + X F1(r) + X^2 F2(r) + ...
    F0(r) = Gamma(1+p) (kr/2)^(-p) J_p(kr)
    F1(r) = (-k^2 r^2 / 4) (2 i mu / (mu^2 - 1)) F0(r)

The F1 closed form follows from the arithmetic-progression sum identity
(1+p) + (3+p) + ... + (1+p+2n) = (n+1)(n+1+p) applied inside the term
recurrence; sum_identity exposes that identity in exact rational
arithmetic.  The singular-family Gbar mirrors everything with p -> -p.
F2 is defined operationally as the Richardson residual
(Fbar - F0 - X F1)/X^2 against the exact double-precision series.

F0, G0 and the first-order weight F1/F0 = G1/G0 depend on mu, j and r
only, never on X.  remainder_ladder therefore reads the X^2 remainder at
lower rungs x of an X ladder from one decomposition at X: each rung
evaluates only the regular Gauss factor at z = (r x)^2.  The audit's
slope likewise evaluates its Bessel limits once for all three X values.

Assembling the normalization factor with the asymptotic channel
coefficients turns the order-0 wave into a pure outgoing spherical wave,
-pi i^j sqrt(2/(kr)) H1_p(kr); the first-order correction multiplies both
channel coefficients by the same factor 1 - i(4p^2-1) mu X / (8(mu^2-1)),
while the order-1 radial profile is r^2-weighted and demonstrably not a
combination of e^(+/- i k r)/r — the content of first_order_correction_audit.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import HorizonUnitsParams, _check_j
from .special import NonConvergence, bessel_j, hyp2f1, log_gamma
from .waves import make_ansatz

__all__ = [
    "ValidityError",
    "ExpansionParams",
    "ExpansionDecomposition",
    "NormalizationFactor",
    "CorrectionAudit",
    "sum_identity",
    "exponential_factor_expansion",
    "exponential_factor_exact",
    "truncated_wave_parameter",
    "first_order_series",
    "decompose_hypergeometric",
    "remainder_ladder",
    "normalization_factor",
    "normalized_out_wave_zero_order",
    "first_order_correction_audit",
]


class ValidityError(ValueError):
    """Requested evaluation lies outside the expansion's validity domain."""


@dataclass(frozen=True)
class ExpansionParams:
    """Mass ratio mu > 1, small parameter X = lam/R in (0, 0.1] and orbital
    index j, in lam = 1 units; every other scale is derived from these three.
    """

    mu: float
    X: float
    j: int

    def __post_init__(self) -> None:
        for name, value in (("mu", self.mu), ("X", self.X)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not 0.0 < self.X <= 0.1:
            raise ValidityError(f"X={self.X} outside supported range (0, 0.1]")
        if self.mu <= 1.0:
            raise ValueError(f"mu={self.mu} <= 1: no propagating flat wave")
        _check_j(self.j)

    @property
    def k(self) -> float:
        """Flat wave number sqrt(mu^2 - 1)."""
        return math.sqrt(self.mu * self.mu - 1.0)

    @property
    def Y(self) -> float:
        """The large scale R/2 = 1/(2X), correctly rounded (0.5 is a power of 2)."""
        return 0.5 / self.X

    @property
    def p(self) -> float:
        """Bessel order j + 1/2."""
        return self.j + 0.5

    def horizon_params(self) -> HorizonUnitsParams:
        return HorizonUnitsParams(epsilon=self.mu / self.X, m=1.0 / self.X, j=self.j)


@dataclass(frozen=True, eq=False)
class ExpansionDecomposition:
    """Order-by-order profiles of the two Gauss factors on a radial grid."""

    r_grid: np.ndarray
    F0: np.ndarray
    F1: np.ndarray
    F2_residual: np.ndarray
    G0: np.ndarray
    G1: np.ndarray
    G2_residual: np.ndarray


@dataclass(frozen=True)
class NormalizationFactor:
    """Overall factor A and the asymptotic channel coefficients alpha'/beta'.

    A is the exact Gamma expression; alpha_prime/beta_prime carry the
    leading power asymptotics times the shared first-order correction
    factor, and agree with the exact Gamma-ratio route to O(X^2).
    """

    A: complex
    alpha_prime: complex
    beta_prime: complex


@dataclass(frozen=True)
class CorrectionAudit:
    """Two-exponential fit residuals of the order-0/order-1 components."""

    order0_fit_residual: float
    order1_fit_residual: float
    first_order_slope: float
    kr_window: tuple[float, float]
    n_points: int


def sum_identity(n: int, p: float | Fraction) -> float:
    """(1+p) + (3+p) + ... + (1+p+2n) summed and compared with (n+1)(n+1+p).

    Both sides are computed independently in exact rational arithmetic; the
    common value is returned as a float.  p must be exactly representable
    (half-integers are).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    p_exact = Fraction(p)
    lhs = sum(1 + p_exact + 2 * i for i in range(n + 1))
    rhs = (n + 1) * (n + 1 + p_exact)
    if lhs != rhs:  # unreachable: the identity is exact
        raise ArithmeticError(f"sum identity violated at n={n}, p={p_exact}")
    return float(rhs)


def _check_validity(X: float, r: float) -> None:
    if r * r * X > 0.1:
        raise ValidityError(
            f"r^2/(lam R) = {r * r * X:.4g} > 0.1: expansion of the horizon "
            f"factor is unreliable here"
        )


def exponential_factor_exact(mu: float, X: float, r: float) -> complex:
    """Principal-branch (1 - (rX)^2)^(-i mu/(2X)) without truncation."""
    z = (r * X) ** 2
    if z >= 1.0:
        raise ValidityError(f"radius r={r} is at or beyond the horizon R={1.0 / X}")
    return cmath.exp(complex(0.0, -0.5 * mu / X) * math.log1p(-z))


def exponential_factor_expansion(mu: float, X: float, r: float) -> complex:
    """Four-term truncation of the horizon factor (1-(rX)^2)^(-i mu/(2X)).

        1 + i mu r^2 X/2 - mu^2 r^4 X^2/8 + i mu r^4 X^3/4

    for the outgoing-sign branch; the conjugate serves the other sign.  The
    omitted terms are O((r^2 X)^3), which is the contract the truncation
    test exercises.  Raises ValidityError when r^2/(lam R) > 0.1.
    """
    _check_validity(X, r)
    r2x = r * r * X
    return complex(
        1.0 - 0.125 * mu * mu * r2x * r2x,
        0.5 * mu * r2x + 0.25 * mu * r2x * r2x * X,
    )


def truncated_wave_parameter(ep: ExpansionParams) -> complex:
    """Two-scale truncation of the first ansatz parameter.

    (3/4 + j/2) - i (mu-1) Y - i X/16; the remainder against the exact
    parameter is -i X^3/256 + O(X^5).
    """
    return complex(0.75 + 0.5 * ep.j, -(ep.mu - 1.0) * ep.Y - ep.X / 16.0)


def _bessel_limit(k: float, p: float, r: float) -> float:
    """Gamma(1+p) (kr/2)^(-p) J_p(kr), continued to 1 at r=0."""
    if r == 0.0:
        return 1.0
    x = k * r
    return math.gamma(1.0 + p) * (0.5 * x) ** (-p) * bessel_j(p, x)


def first_order_series(ep: ExpansionParams, r: float, family: str = "regular") -> complex:
    """Series-summed first-order profile (the route through the sum identity).

    Sums (2 i mu/k^2) * sum_n T0_n n(n +/- p) term by term, where T0_n are
    the terms of the Bessel-limit series; the closed form it must equal is
    (-k^2 r^2/4)(2 i mu/(mu^2-1)) times the order-0 profile.
    """
    if family == "regular":
        p_eff = ep.p
    elif family == "singular":
        p_eff = -ep.p
    else:
        raise ValueError(f"unknown family {family!r}")
    w = (0.5 * ep.k * r) ** 2
    term = 1.0
    acc = 0.0
    for n in range(0, 10_000):
        acc += term * n * (n + p_eff)
        term *= -w / ((n + 1.0) * (1.0 + p_eff + n))
        if n > 4 and abs(term) * (n + 2.0) * abs(n + 2.0 + p_eff) < 1e-18 * (
            1.0 + abs(acc)
        ):
            break
    return 2j * ep.mu / (ep.k * ep.k) * acc


def _order1_weight(ep: ExpansionParams, rs: np.ndarray) -> np.ndarray:
    # F1/F0 = G1/G0 = (-k^2 r^2/4) (2 i mu/(mu^2-1))
    return (-(ep.k * rs) ** 2 / 4.0) * (2j * ep.mu / (ep.mu * ep.mu - 1.0))


def decompose_hypergeometric(ep: ExpansionParams, r_grid) -> ExpansionDecomposition:
    """Split both Gauss factors into order-0/1 profiles plus X^2 residuals.

    The exact factors are evaluated at z = (rX)^2 with the exact complex
    parameters; F0/G0 are the Bessel limits, F1/G1 the closed first-order
    forms, and the residuals are (exact - order0 - X*order1)/X^2.
    """
    hp = ep.horizon_params()
    reg = make_ansatz(hp, "regular")
    sng = make_ansatz(hp, "singular")
    rs = np.asarray(r_grid, dtype=float)
    if rs.ndim != 1 or rs.size == 0:
        raise ValueError("r_grid must be a non-empty 1-D array")
    if np.any(rs < 0.0) or np.any((rs * ep.X) >= 1.0):
        raise ValidityError("r_grid must lie inside [0, R)")
    n = rs.size
    k, p, X = ep.k, ep.p, ep.X
    F0 = np.empty(n)
    G0 = np.empty(n)
    Fe = np.empty(n, dtype=complex)
    Ge = np.empty(n, dtype=complex)
    for i, r in enumerate(rs):
        F0[i] = _bessel_limit(k, p, r)
        G0[i] = _bessel_limit(k, -p, r)
        z = complex((r * X) ** 2)
        Fe[i] = hyp2f1(reg.a, reg.b, reg.c, z)
        Ge[i] = hyp2f1(sng.a, sng.b, sng.c, z)
    order1_weight = _order1_weight(ep, rs)
    F1 = order1_weight * F0
    G1 = order1_weight * G0
    inv_x2 = 1.0 / (X * X)
    return ExpansionDecomposition(
        r_grid=rs,
        F0=F0,
        F1=F1,
        F2_residual=(Fe - F0 - X * F1) * inv_x2,
        G0=G0,
        G1=G1,
        G2_residual=(Ge - G0 - X * G1) * inv_x2,
    )


def remainder_ladder(
    ep: ExpansionParams, dec: ExpansionDecomposition, lower: Sequence[float]
) -> list[float]:
    """max|F2_residual| x^2 at X and at each lower rung x of the X ladder.

    dec is decompose_hypergeometric(ep, r_grid).  Its F0 and F1 do not
    depend on X, so they serve every rung, and a rung evaluates only the
    exact regular factor at z = (r x)^2; the remainder is formed exactly as
    decompose_hypergeometric forms F2_residual at X = x.
    """
    remainders = [float(np.max(np.abs(dec.F2_residual))) * ep.X * ep.X]
    for x in lower:
        reg = make_ansatz(ExpansionParams(ep.mu, x, ep.j).horizon_params(), "regular")
        try:
            Fe = np.array([hyp2f1(reg.a, reg.b, reg.c, complex((r * x) ** 2)) for r in dec.r_grid])
        except NonConvergence as exc:
            raise NonConvergence(f"rung x={x:g}: {exc}") from exc
        residual = (Fe - dec.F0 - x * dec.F1) * (1.0 / (x * x))
        remainders.append(float(np.max(np.abs(residual))) * x * x)
    return remainders


def _first_order_factor(ep: ExpansionParams) -> complex:
    # shared O(X) correction to both channel coefficients
    return 1.0 + complex(
        0.0, -(4.0 * ep.p * ep.p - 1.0) * ep.mu * ep.X / (8.0 * (ep.mu * ep.mu - 1.0))
    )


def _leading_channel_coefficients(p: float, half_k: float) -> tuple[complex, complex]:
    """alpha'0 and beta'0 with (kR/2) replaced by half_k.

        alpha'0 = -(pi/sin p pi) half_k^(p-1/2) e^(-i pi(p/2-1/4)) / Gamma(1+p)
        beta'0  = +(pi/sin p pi) half_k^(-p-1/2) e^(+i pi(p/2+1/4)) / Gamma(1-p)
    """
    sin_p = math.sin(math.pi * p)  # (-1)^j exactly for half-integer p
    alpha0 = (
        -(math.pi / sin_p)
        / math.gamma(1.0 + p)
        * half_k ** (p - 0.5)
        * cmath.exp(-1j * math.pi * (0.5 * p - 0.25))
    )
    beta0 = (
        (math.pi / sin_p)
        / math.gamma(1.0 - p)
        * half_k ** (-p - 0.5)
        * cmath.exp(1j * math.pi * (0.5 * p + 0.25))
    )
    return alpha0, beta0


def normalization_factor(ep: ExpansionParams) -> NormalizationFactor:
    """Exact overall factor A plus asymptotic channel coefficients.

    A = Gamma(a-q) Gamma(b-q) / Gamma(a+b-c+1) with q = p/2 + 1/4 — the
    combination that turns the outgoing running wave into
    alpha' f + beta' g exactly.  alpha_prime/beta_prime are the leading
    power asymptotics of the exact Gamma ratios,

        alpha'0 = -(pi/sin p pi) (kR/2)^(p-1/2) e^(-i pi(p/2-1/4)) / Gamma(1+p)
        beta'0  = +(pi/sin p pi) (kR/2)^(-p-1/2) e^(+i pi(p/2+1/4)) / Gamma(1-p)

    times the shared first-order factor 1 - i(4p^2-1) mu X/(8(mu^2-1));
    they agree with the exact ratios to O(X^2).
    """
    ans = make_ansatz(ep.horizon_params(), "regular")
    q = 0.5 * ep.p + 0.25
    a_factor = cmath.exp(
        log_gamma(ans.a - q)
        + log_gamma(ans.b - q)
        - log_gamma(ans.a + ans.b - ans.c + 1.0)
    )
    alpha0, beta0 = _leading_channel_coefficients(ep.p, 0.5 * ep.k / ep.X)
    corr = _first_order_factor(ep)
    return NormalizationFactor(
        A=a_factor, alpha_prime=alpha0 * corr, beta_prime=beta0 * corr
    )


def normalized_out_wave_zero_order(ep: ExpansionParams, r_grid) -> np.ndarray:
    """Order-0 normalized outgoing wave on the grid.

    Assembles alpha'0 * (rX)^j * F0 + beta'0 * (rX)^(-j-1) * G0 with the
    powers of X cancelled analytically (they cancel exactly because
    p = j + 1/2), so the result is finite for arbitrarily small X.
    Equals -pi i^j sqrt(2/(kr)) H1_p(kr) identically.
    """
    rs = np.asarray(r_grid, dtype=float)
    if np.any(rs <= 0.0):
        raise ValueError("grid radii must be positive for the outgoing wave")
    j, k, p = ep.j, ep.k, ep.p
    coef_f, coef_g = _leading_channel_coefficients(p, 0.5 * k)
    out = np.empty(rs.size, dtype=complex)
    for i, r in enumerate(rs):
        out[i] = coef_f * r**j * _bessel_limit(k, p, r) + coef_g * r ** (
            -j - 1
        ) * _bessel_limit(k, -p, r)
    return out


def first_order_correction_audit(ep: ExpansionParams) -> CorrectionAudit:
    """Fit the order-0 and order-1 components against {e^(+ikr)/r, e^(-ikr)/r}.

    The order-0 wave is an elementary outgoing spherical wave at j=0 and
    fits the two-exponential basis to rounding; the order-1 component is
    the r^2-weighted profile, which no combination of the two exponentials
    reproduces — its least-squares residual stays O(1).  That contrast is
    the operational form of the claim that the far-field recipe stops at
    leading order.  Also reports the log-log slope of max|Fbar - F0| over
    X in {1e-2, 1e-3, 1e-4}, which measures the linear vanishing of the
    first-order contribution.
    """
    lo_kr, hi_kr = 6.0, 16.0
    n_pts = 64
    slopes_x = (1e-2, 1e-3, 1e-4)
    if hi_kr / ep.k * slopes_x[0] >= 1.0:
        raise ValidityError(
            f"mu={ep.mu}: the audit's window kr <= {hi_kr:g} reaches past the horizon r = 1/X "
            f"at X = {slopes_x[0]:g}; mu must exceed {math.hypot(1.0, hi_kr * slopes_x[0]):.6g}"
        )
    rs = np.linspace(lo_kr / ep.k, hi_kr / ep.k, n_pts)
    psi0 = normalized_out_wave_zero_order(ep, rs)
    basis = np.column_stack(
        [np.exp(1j * ep.k * rs) / rs, np.exp(-1j * ep.k * rs) / rs]
    )

    def fit_residual(y: np.ndarray) -> float:
        coef, _, _, _ = np.linalg.lstsq(basis, y, rcond=None)
        return float(np.linalg.norm(basis @ coef - y) / np.linalg.norm(y))

    order1 = _order1_weight(ep, rs) * psi0

    # the Bessel limits do not depend on X: one evaluation serves every slope X
    sub = rs[:: n_pts // 8]
    f0_sub = [_bessel_limit(ep.k, ep.p, r) for r in sub]
    devs = []
    for x in slopes_x:
        reg = make_ansatz(ExpansionParams(ep.mu, x, ep.j).horizon_params(), "regular")
        dev = 0.0
        try:
            for r, f0 in zip(sub, f0_sub):
                f_exact = hyp2f1(reg.a, reg.b, reg.c, complex((r * x) ** 2))
                dev = max(dev, abs(f_exact - f0))
        except NonConvergence as exc:
            raise NonConvergence(f"audit at X={x:g}: {exc}") from exc
        devs.append(dev)
    logs_x = np.log10(np.asarray(slopes_x))
    logs_d = np.log10(np.asarray(devs))
    slope = float(np.polyfit(logs_x, logs_d, 1)[0])
    return CorrectionAudit(
        order0_fit_residual=fit_residual(psi0),
        order1_fit_residual=fit_residual(order1),
        first_order_slope=slope,
        kr_window=(lo_kr, hi_kr),
        n_points=n_pts,
    )
