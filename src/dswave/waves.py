"""Exact wave families of the static-patch radial equation.

Four solutions organized around z = r^2: standing waves distinguished by
their behavior at the origin (regular ~ r^j, singular ~ r^-(j+1)) and
running waves distinguished by their horizon phase (1-z)^(-/+ i eps/2)
(outgoing/incoming).  All are hypergeometric; the connection between the
two descriptions is carried by Gamma-factor coefficients.

The flat-limit operations rescale the outgoing wave by the normalization
factor built from Gamma functions at shifted parameters and compare it
against the Minkowski spherical Hankel wave; for large R/lam the Gamma
factors are assembled in log space from *differences* of log-Gamma (see
special.log_gamma_diff) so the comparison stays meaningful far below the
cancellation floor of naive evaluation.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .model import DomainError, HorizonUnitsParams, ModelParams
from .special import NonConvergence, connection_gammas, hankel1, hyp2f1, log_gamma, log_gamma_diff

__all__ = [
    "UnsupportedMass",
    "EvanescentMode",
    "WaveAnsatz",
    "ConnectionCoefficients",
    "make_ansatz",
    "eval_standing",
    "eval_running",
    "connect",
    "connection_check",
    "connection_residual",
    "flat_limit_reference",
    "normalized_out_wave",
    "flat_limit_convergence",
]


class UnsupportedMass(ValueError):
    """m^2 <= 1/4 is outside the supported (physical) mass range."""


class EvanescentMode(ValueError):
    """mu <= 1: no propagating flat-space wave number exists."""


@dataclass(frozen=True)
class WaveAnsatz:
    """Hypergeometric data of one standing-wave family.

    kappa is the z=0 exponent (j/2 regular, -(j+1)/2 singular), sigma the
    z=1 exponent (-i eps/2 for both standing families; the incoming running
    wave uses -sigma), and (a, b, c) the hypergeometric parameters.
    """

    kappa: float
    sigma: complex
    a: complex
    b: complex
    c: complex

    @property
    def family(self) -> str:
        return "regular" if self.kappa >= 0.0 else "singular"


@dataclass(frozen=True)
class ConnectionCoefficients:
    """standing = to_out * U_out + to_in * U_in."""

    to_out: complex
    to_in: complex


def make_ansatz(hp: HorizonUnitsParams, family: str) -> WaveAnsatz:
    """Parameter set of the regular or singular standing family.

    Regular: kappa = j/2, c = j + 3/2,
    a, b = (3/2 + j + i sqrt(m^2 - 1/4) * (+/-1) - i eps)/2.
    Singular: the z=0 exponent partner, a -> a - c + 1, b -> b - c + 1,
    c -> 2 - c.  Both carry sigma = -i eps/2.
    """
    if hp.m * hp.m <= 0.25:
        raise UnsupportedMass(f"m^2 = {hp.m * hp.m} <= 1/4 not supported")
    if family not in ("regular", "singular"):
        raise ValueError(f"unknown family {family!r}")
    j = hp.j
    s = math.sqrt(hp.m * hp.m - 0.25)
    a = complex(0.75 + 0.5 * j, 0.5 * (s - hp.epsilon))
    b = complex(0.75 + 0.5 * j, 0.5 * (-s - hp.epsilon))
    c = complex(j + 1.5)
    sigma = complex(0.0, -0.5 * hp.epsilon)
    if family == "regular":
        return WaveAnsatz(kappa=0.5 * j, sigma=sigma, a=a, b=b, c=c)
    return WaveAnsatz(
        kappa=-0.5 * (j + 1),
        sigma=sigma,
        a=a - c + 1.0,
        b=b - c + 1.0,
        c=2.0 - c,
    )


def _horizon_exponent(sigma: complex, z: float) -> complex:
    # (1-z)^sigma on the principal branch, accurate for z near 0 and 1
    return cmath.exp(sigma * math.log1p(-z))


def _origin_power(ans: WaveAnsatz, r: float) -> float:
    """z^kappa at z = r^2; NonConvergence naming j and r where it overflows
    (or where z underflows to 0 under a negative kappa)."""
    try:
        return (r * r) ** ans.kappa
    except (OverflowError, ZeroDivisionError):
        j = 2.0 * ans.kappa if ans.kappa >= 0.0 else -2.0 * ans.kappa - 1.0
        raise NonConvergence(
            f"wave with j={j:.0f} overflows double precision at r={r}"
        ) from None


def eval_standing(ans: WaveAnsatz, r: float) -> complex:
    """Standing wave at radius r: z^kappa (1-z)^sigma F(a, b; c; z), z = r^2."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"eval_standing: r={r} outside [0, 1)")
    if r == 0.0:
        if ans.kappa < 0.0:
            raise DomainError("singular standing wave diverges at r=0")
        return complex(1.0) if ans.kappa == 0.0 else complex(0.0)
    z = r * r
    return _origin_power(ans, r) * _horizon_exponent(ans.sigma, z) * hyp2f1(
        ans.a, ans.b, ans.c, z
    )


def eval_running(ans: WaveAnsatz, direction: str, r: float) -> complex:
    """Running wave at radius r (direction 'out' or 'in').

    Both ansatz families evaluate to the *same* running waves (an Euler
    transformation identity relates their z -> 1-z hypergeometric forms),
    so this accepts either family's parameters:

        out: z^kappa (1-z)^sigma     F(a, b; a+b-c+1; 1-z)
        in:  z^kappa (1-z)^(-sigma)  F(c-a, c-b; c-a-b+1; 1-z)
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"eval_running: r={r} outside (0, 1)")
    z = r * r
    w = 1.0 - z
    if w == 1.0:
        raise DomainError(
            f"eval_running: r={r} is too near the origin: 1 - r^2 rounds to 1, "
            "where the running waves' series in 1 - r^2 do not converge"
        )
    if direction == "out":
        third = ans.a + ans.b - ans.c + 1.0
        series = hyp2f1(ans.a, ans.b, third, w)
        return _origin_power(ans, r) * _horizon_exponent(ans.sigma, z) * series
    if direction == "in":
        third = ans.c - ans.a - ans.b + 1.0
        series = hyp2f1(ans.c - ans.a, ans.c - ans.b, third, w)
        return _origin_power(ans, r) * _horizon_exponent(-ans.sigma, z) * series
    raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")


def connect(ans: WaveAnsatz) -> ConnectionCoefficients:
    """Gamma-factor coefficients carrying standing -> running waves.

    to_out = G(c) G(c-a-b) / (G(c-a) G(c-b)),
    to_in  = G(c) G(a+b-c) / (G(a) G(b)),
    the DLMF 15.8.4 pair of special.connection_gammas, which hyp2f1's
    connection route uses too; the same formula serves both families
    through their own (a, b, c).  For real eps these are complex conjugates
    (reality of standing waves).
    """
    to_out, to_in = connection_gammas(ans.a, ans.b, ans.c)
    return ConnectionCoefficients(to_out=to_out, to_in=to_in)


def connection_check(ans: WaveAnsatz, r: float) -> tuple[complex, complex, complex, float]:
    """Standing wave, U_out and U_in at radius r, and their connection residual.

    The residual is |standing - (to_out U_out + to_in U_in)| / |standing|
    (absolute where the standing wave vanishes); each wave is evaluated once.
    """
    cc = connect(ans)
    standing = eval_standing(ans, r)
    out = eval_running(ans, "out", r)
    inc = eval_running(ans, "in", r)
    gap = abs(standing - (cc.to_out * out + cc.to_in * inc))
    scale = abs(standing)
    return standing, out, inc, (gap / scale if scale != 0.0 else gap)


def connection_residual(ans: WaveAnsatz, r: float) -> float:
    """Relative residual |standing - (to_out U_out + to_in U_in)| / |standing|."""
    return connection_check(ans, r)[3]


def flat_limit_reference(hp: HorizonUnitsParams, k: float, r: float) -> complex:
    """Minkowski wave the normalized outgoing solution approaches as R -> inf:

        -pi i^j sqrt(2/(k r)) H1_(j+1/2)(k r),

    with k in reciprocal units of r (so k r is dimensionless).
    """
    if hp.epsilon <= hp.m:
        raise EvanescentMode(f"mu = {hp.epsilon / hp.m} <= 1: no propagating mode")
    if k <= 0.0 or r <= 0.0:
        raise ValueError("flat_limit_reference needs k > 0 and r > 0")
    x = k * r
    return -math.pi * (1j ** hp.j) * math.sqrt(2.0 / x) * hankel1(hp.p, x)


def normalized_out_wave(hp: HorizonUnitsParams, r: float) -> complex:
    """A * U_out at radius r, with A the flat-limit normalization factor.

    Evaluated through the standing-wave decomposition

        A U_out = G(1-c) e^(L_f) f(r) + G(c-1) e^(L_g) g(r),

    where L_f, L_g are sums of log-Gamma *differences* at shifts j/2 and
    -(j+1)/2.  This keeps full relative accuracy at R/lam up to 1e6+, where
    forming A and U_out separately would lose ~7 digits to cancellation.
    """
    ans = make_ansatz(hp, "regular")
    ans_s = make_ansatz(hp, "singular")
    a, b, c = ans.a, ans.b, ans.c
    j = hp.j
    half_shift = 0.5 * j
    f_val = eval_standing(ans, r)
    g_val = eval_standing(ans_s, r)
    # shifted-parameter Gamma arguments: a' = a - p/2 - 1/4 = a - (j+1)/2
    l_f = log_gamma_diff(a - c + 1.0, half_shift, 0.0) + log_gamma_diff(
        b - c + 1.0, half_shift, 0.0
    )
    l_g = log_gamma_diff(a, -(half_shift + 0.5), 0.0) + log_gamma_diff(
        b, -(half_shift + 0.5), 0.0
    )
    coef_f = cmath.exp(log_gamma(1.0 - c) + l_f)
    coef_g = cmath.exp(log_gamma(c - 1.0) + l_g)
    return coef_f * f_val + coef_g * g_val


def flat_limit_convergence(
    p: ModelParams,
    R_over_lambda: Sequence[float],
    kr: float,
    fixed_kappa: float | None = None,
) -> list[tuple[float, float]]:
    """Deviation of the normalized outgoing wave from the Hankel reference.

    For each R/lam the wave is evaluated at the radius where k r equals the
    given kr, and the row (R/lam, |A U_out / reference - 1|) is recorded.
    With fixed_kappa set, epsilon is chosen so the dimensionless wave number
    sqrt(eps^2 - m^2) stays pinned at that value while m grows — the probe
    for the regime where the flat-limit constraint is violated and the
    deviation must *not* keep shrinking.  Raises ValueError unless kr,
    every R/lam and fixed_kappa are finite and positive.
    """
    if not 0.0 < kr < math.inf:
        raise ValueError(f"kr must be finite and positive, got {kr}")
    for rl in R_over_lambda:
        if not 0.0 < rl < math.inf:
            raise ValueError(f"scales must be finite positive R/lam values, got {rl}")
    if fixed_kappa is not None and not 0.0 < fixed_kappa < math.inf:
        raise ValueError(f"fixed_kappa must be finite and positive, got {fixed_kappa}")
    rows: list[tuple[float, float]] = []
    for rl in R_over_lambda:
        m = float(rl)
        if fixed_kappa is None:
            if p.mu <= 1.0:
                raise EvanescentMode(f"mu = {p.mu} <= 1")
            eps = p.mu * m
            kappa = m * math.sqrt(p.mu * p.mu - 1.0)
        else:
            kappa = float(fixed_kappa)
            eps = math.hypot(m, kappa)
        hp = HorizonUnitsParams(epsilon=eps, m=m, j=p.j)
        r = kr / kappa
        if not 0.0 < r < 1.0:
            raise DomainError(f"evaluation radius r={r} outside (0, 1)")
        ref = flat_limit_reference(hp, kappa, r)
        val = normalized_out_wave(hp, r)
        rows.append((float(rl), abs(val / ref - 1.0)))
    return rows
