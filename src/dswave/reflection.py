"""Far-region amplitudes and the zero-reflection verdict.

The outgoing/incoming far-field amplitudes A_plus/A_minus are extracted at
coefficient level from the large-argument Bessel phases e^(-/+ i pi (p -/+
1/2)/2) applied to the two channel constants C1, C2.  The defining step of
the algorithm is that the Gamma ratios with large complex arguments are
replaced by their leading asymptotic power (gamma_ratio_asymptotic), whose
first correction vanishes identically here (the shift pair sums to one);
with that substitution C2/C1 = -e^(i pi p) exactly and the incoming
amplitude cancels term by term.

An independent check integrates the Schrodinger-form equation with purely
outgoing near-horizon data and decomposes the interior solution into
outgoing/incoming locally-plane-wave channels by least squares; the
incoming contamination it reports bounds the reflection without using any
Gamma-function identity.  The channels carry third-order WKB phases of the
actual potential (not a fixed wave number): with smooth channel dressing
absorbed by polynomial envelopes, the split is ambiguous only at the
integrator-noise level, which is what makes the 1e-6 cross-method
agreement achievable down to interior wave numbers ~10.

The integration takes the Riccati panels of oracle.integrate_riccati, whose
cost does not grow with eps: with no barrier, Q = eps^2 - U stays positive
from the launch point to the window.  Where that route raises StepFailure
(Q <= 0 somewhere, or too small for the panels) the check runs the
Chebyshev-panel collocation of oracle.integrate with the same arguments.
Both run at one fixed tolerance, _FLUX_TOL = 1e-11; no caller sets it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    HorizonUnitsParams,
    ModelParams,
    effective_potential,
    to_horizon_units,
)
from .oracle import OdeProblem, StepFailure, integrate, integrate_riccati
from .special import NonConvergence, gamma_ratio_asymptotic, log_gamma
from .waves import EvanescentMode, WaveAnsatz, make_ansatz

__all__ = [
    "RegimeError",
    "FarFieldAmplitudes",
    "ReflectionResult",
    "check_regime",
    "far_field_coefficients",
    "far_field_reflection",
    "reflection_coefficient",
    "horizon_flux_balance",
    "interior_wave_ratio",
]


class RegimeError(ValueError):
    """Parameters violate the validity constraint of the far-field algorithm."""


@dataclass(frozen=True)
class FarFieldAmplitudes:
    """C1/C2 channel constants and the e^(+/- i k r)/(k r) coefficients."""

    C1: complex
    C2: complex
    A_plus: complex
    A_minus: complex


@dataclass(frozen=True)
class ReflectionResult:
    amplitudes: FarFieldAmplitudes
    ratio: float
    regime_ok: bool

    @property
    def coefficient(self) -> float:
        """The reflection coefficient |A_minus/A_plus|^2, ratio squared."""
        return self.ratio * self.ratio


# The hard validity floor: far_field_coefficients refuses parameters that
# fail check_regime at this margin.
_HARD_FLOOR = 1.0


def check_regime(hp: HorizonUnitsParams, margin: float = 100.0) -> bool:
    """True iff eps^2 - m^2 exceeds margin * j^2 (constraint eps R >> j).

    margin = 100 is the default reading of ">>"; callers needing the hard
    validity floor pass margin = 1.
    """
    if margin < 1.0:
        raise ValueError("margin must be >= 1")
    return (hp.epsilon * hp.epsilon - hp.m * hp.m) > margin * hp.j * hp.j


def far_field_coefficients(ans: WaveAnsatz, hp: HorizonUnitsParams) -> FarFieldAmplitudes:
    """Channel constants C1, C2 and far-field amplitudes A_plus, A_minus.

    With w = -i(eps-m)/2, v = -i(eps+m)/2, kappa = sqrt(eps^2 - m^2),
    s = (1+p)/2 and g_j = (-1)^j = sin(pi p):

        common = Gamma(1 - i eps) / (Gamma(w+s) Gamma(v+s))
        C1 = -pi g_j * common * 2^p  kappa^(-j)  / (asym_w * asym_v)
        C2 = +pi g_j * common * 2^-p kappa^(j+1)

    where asym_w, asym_v are the order-1 asymptotic Gamma ratios at shifts
    ((1-p)/2, (1+p)/2) — the step that makes C2/C1 = -e^(i pi p) exact.
    The amplitudes attach the large-argument Bessel phases:

        A_plus  = C1 e^(-i pi (p+1/2)/2) + C2 e^(-i pi (-p+1/2)/2)
        A_minus = C1 e^(+i pi (p+1/2)/2) + C2 e^(+i pi (-p+1/2)/2).

    Raises RegimeError below the hard validity floor (margin _HARD_FLOOR = 1),
    where the algorithm's defining substitution has no asymptotic backing, and
    NonConvergence from eps ~ 5e4 on, where |Im log Gamma(1 - i eps)| * 2^-52,
    the rounding of the amplitudes' phase, exceeds 1e-10 ("lose their
    digits"; at m = 5 that check refuses every eps up to 1e109 at j = 1, up
    to 1e65 at j = 2, 1e30 at j = 5 and 1e9 at j = 20).  Before it, and so at
    larger eps, the amplitude check refuses where eps^2 - m^2 or an amplitude
    is not a finite double, or the outgoing amplitude underflows to zero
    ("overflow"; eps^2 itself from eps ~ 1.3e154).
    """
    eps, m, p, j = hp.epsilon, hp.m, hp.p, hp.j
    if eps <= m:
        raise EvanescentMode(f"eps={eps} <= m={m}: no propagating far field")
    gap = eps * eps - m * m
    if not math.isfinite(gap):
        raise NonConvergence(
            f"far-field amplitudes overflow: eps^2 - m^2 = {gap} at eps={eps:.6g}, m={m:.6g}"
        )
    if not check_regime(hp, _HARD_FLOOR):
        raise RegimeError(
            f"far-field algorithm needs eps^2 - m^2 >> j^2 "
            f"(have {gap:.6g} vs j^2 = {j * j}); "
            f"the amplitudes are undefined outside this regime"
        )
    if ans.family != "regular" or abs((ans.a + ans.b - ans.c) - complex(0, -eps)) > 1e-9 * (
        1.0 + eps
    ):
        raise ValueError("ansatz does not match the regular family of these parameters")
    kappa = math.sqrt(gap)
    w = complex(0.0, -0.5 * (eps - m))
    v = complex(0.0, -0.5 * (eps + m))
    shift = 0.5 * (1.0 + p)
    g_j = -1.0 if j % 2 else 1.0  # sin(pi p) for half-integer p
    ph_p = 0.25 * math.pi * (2.0 * p + 1.0)  # pi (p + 1/2) / 2
    ph_m = 0.25 * math.pi * (-2.0 * p + 1.0)
    try:
        asym_w = gamma_ratio_asymptotic(w, 0.5 * (1.0 - p), shift, order=1)
        asym_v = gamma_ratio_asymptotic(v, 0.5 * (1.0 - p), shift, order=1)
        lg_eps = log_gamma(complex(1.0, -eps))
        common = cmath.exp(lg_eps - log_gamma(w + shift) - log_gamma(v + shift))
        c1 = -math.pi * g_j * common * (2.0 ** p) * kappa ** (-j) / (asym_w * asym_v)
        c2 = math.pi * g_j * common * (2.0 ** -p) * kappa ** (j + 1)
        a_plus = c1 * cmath.exp(-1j * ph_p) + c2 * cmath.exp(-1j * ph_m)
        a_minus = c1 * cmath.exp(1j * ph_p) + c2 * cmath.exp(1j * ph_m)
        finite = a_plus != 0.0 and all(map(cmath.isfinite, (c1, c2, a_plus, a_minus)))
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise NonConvergence(
            f"far-field amplitudes overflow double precision at eps={eps:.6g}, "
            f"m={m:.6g}, j={j}"
        )
    # exp() turns the rounding of the phase Im log Gamma(1 - i eps) into
    # relative error of C1, C2 and A+/-
    phase_err = abs(lg_eps.imag) * 2.0 ** -52
    if phase_err > 1e-10:
        raise NonConvergence(
            f"far-field amplitudes lose their digits at eps={eps:.6g}: the phase of "
            f"Gamma(1 - i eps) carries ~{phase_err:.2g} of rounding, above 1e-10"
        )
    return FarFieldAmplitudes(C1=c1, C2=c2, A_plus=a_plus, A_minus=a_minus)


def reflection_coefficient(p: ModelParams) -> ReflectionResult:
    """Reflection coefficient |A_minus/A_plus|^2 for physical parameters.

    regime_ok records the default-margin regime check; results with
    regime_ok False are reported but carry no validity claim.
    """
    if p.mu <= 1.0:
        raise EvanescentMode(f"mu={p.mu} <= 1 is evanescent")
    return far_field_reflection(to_horizon_units(p))


def far_field_reflection(hp: HorizonUnitsParams) -> ReflectionResult:
    """Far-field amplitudes and reflection |A_minus/A_plus|^2 of these parameters.

    regime_ok records the default-margin regime check (see
    reflection_coefficient).
    """
    amps = far_field_coefficients(make_ansatz(hp, "regular"), hp)
    ratio = abs(amps.A_minus) / abs(amps.A_plus)
    return ReflectionResult(amplitudes=amps, ratio=ratio, regime_ok=check_regime(hp))


# --- ODE cross-check --------------------------------------------------------

# Gauss-Legendre 5-point nodes/weights on [-1, 1], for the phase integral.
_GL5_NODES = (
    -0.906179845938664,
    -0.5384693101056831,
    0.0,
    0.5384693101056831,
    0.906179845938664,
)
_GL5_WEIGHTS = (
    0.23692688505618908,
    0.47862867049936647,
    0.5688888888888889,
    0.47862867049936647,
    0.23692688505618908,
)


# Samples of the interior solution, degree of the channel envelope
# polynomials, and the central-difference step for Q' and Q'' in the WKB
# phase of interior_wave_ratio.
_N_SAMPLES = 64
_POLY_DEGREE = 6
_FD_STEP = 5e-4

# Tolerance of the cross-check's integrators.  The Riccati sweeps stop once
# their phase-error estimate is at most tol, or once no panel improves, and
# refuse above 10 tol, which hands over to the collocation fallback.  Looser
# lets them stop earlier and accept larger phase errors near threshold;
# tighter hands over where they are accurate, and at (eps, m, j) =
# (1e4, 50, 1) the gap grows from 7.5e-14 to 1e-10 (1e-13) or no result (1e-14).
_FLUX_TOL = 1e-11


def interior_wave_ratio(
    u_of_rstar: Callable[[np.ndarray], np.ndarray | float],
    epsilon: float,
    launch_rstar: float,
    window: tuple[float, float] = (1.2, 2.2),
) -> tuple[float, float]:
    """Incoming/outgoing channel ratio of a purely-outgoing-at-launch solution.

    Integrates u'' = (U - eps^2) u from launch_rstar (u = e^(i eps r*))
    down into the window, then least-squares fits the samples against
    polynomial-envelope modulations of the locally-plane-wave channel pair

        Q(x)^(-1/4) exp(+/- i integral [sqrt(Q) - S2'] dx),
        Q = eps^2 - U,  S2' = Q''/(8 Q^(3/2)) - 5 Q'^2 / (32 Q^(5/2))

    (third-order WKB; derivatives of Q by central differences with step
    _FD_STEP).  The degree-_POLY_DEGREE envelope polynomials absorb the remaining smooth channel
    dressing, so the reported incoming coefficient is a genuine reflection
    measure, not a basis artifact.  Returns (|c_in/c_out|, fit residual),
    both relative, with the coefficients read at the window center.

    u_of_rstar takes a float ndarray of r* and returns U as an array of that
    shape, or a constant; the integrator and the phase quadrature each call
    it on whole arrays.

    The samples come from oracle.integrate_riccati at tol = _FLUX_TOL, one U
    call for every panel node.  Only where it raises StepFailure (a node
    with Q <= 0, or a phase-error estimate above 10 _FLUX_TOL where Q is
    small for its rate of change, as at (eps, m, j) = (10.5, 10, 0)) do
    they come from oracle.integrate (collocation panels), with the same
    arguments and so the same bits as that integrator alone.

    Raises ValueError if the window contains a classical turning point
    (Q <= 0); the channel split is meaningless there.
    """
    lo, hi = window
    if not 0.0 < lo < hi < launch_rstar:
        raise ValueError("window must satisfy 0 < lo < hi < launch_rstar")
    e2 = epsilon * epsilon

    def q_fn(rs: np.ndarray) -> np.ndarray:
        return e2 - np.broadcast_to(u_of_rstar(rs), rs.shape)

    # WKB channels at the samples xs and at the Gauss-Legendre nodes of each
    # sample interval, with the central-difference neighbours of the nodes
    xs = np.linspace(hi, lo, _N_SAMPLES)
    mid, half = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (xs[1:] - xs[:-1])
    nodes = (mid[:, None] + half[:, None] * np.array(_GL5_NODES)).ravel()
    pts = np.concatenate((xs, nodes))
    q_pts, qm, qp = np.split(
        q_fn(np.concatenate((pts, nodes - _FD_STEP, nodes + _FD_STEP))),
        (len(pts), len(pts) + len(nodes)),
    )
    turning = np.flatnonzero(~(q_pts > 0.0))
    if turning.size:
        raise ValueError(f"classical turning point at r*={pts[turning[0]]:.6g}: move the window")
    q, qn = q_pts[: len(xs)], q_pts[len(xs):]
    d1 = (qp - qm) / (2.0 * _FD_STEP)
    d2 = (qp - 2.0 * qn + qm) / (_FD_STEP * _FD_STEP)
    rate = np.sqrt(qn) - (0.125 * d2 / qn**1.5 - (5.0 / 32.0) * d1 * d1 / qn**2.5)
    steps = half * (rate.reshape(len(half), len(_GL5_NODES)) @ np.array(_GL5_WEIGHTS))
    phase = np.concatenate(([0.0], np.cumsum(steps)))

    u0 = cmath.exp(1j * epsilon * launch_rstar)
    prob = OdeProblem(
        p=None, q=q_fn, r0=launch_rstar, u0=u0, du0=1j * epsilon * u0, direction=-1
    )
    try:
        sol = integrate_riccati(prob, lo, _FLUX_TOL, samples=xs)
    except StepFailure:
        sol = integrate(prob, lo, _FLUX_TOL, samples=xs)

    zeta = np.sqrt(q) ** -0.5 * np.exp(1j * phase)
    t = (2.0 * xs - (lo + hi)) / (hi - lo)  # window-normalized poly variable
    powers = np.vander(t, _POLY_DEGREE + 1, increasing=True)
    design = np.hstack((powers * zeta[:, None], powers * np.conj(zeta)[:, None]))
    coef, _, _, _ = np.linalg.lstsq(design, sol.u, rcond=None)
    fitted = design @ coef
    resid = float(np.linalg.norm(fitted - sol.u) / np.linalg.norm(sol.u))
    c_out = coef[0]
    c_in = coef[_POLY_DEGREE + 1]
    return float(abs(c_in) / abs(c_out)), resid


def horizon_flux_balance(ans: WaveAnsatz, hp: HorizonUnitsParams) -> float:
    """ODE-based reflection bound: incoming contamination of the outgoing wave.

    Launches u = e^(i eps r*) where the potential tail is below 1e-9 * eps,
    integrates inward, and decomposes in the interior window into the
    outgoing/incoming WKB channels of the actual potential (see
    interior_wave_ratio).  Agreement of the returned ratio with the
    far-field verdict (zero) is the cross-method acceptance property.

    The integration takes Riccati panels, at a cost that does not grow with
    eps (two potential calls and 12 panels at m = 50 for eps from 1e3 to
    4e4), and falls back to the collocation panels of oracle.integrate
    where they raise StepFailure, both at tol = _FLUX_TOL.
    """
    eps, m, j = hp.epsilon, hp.m, hp.j
    if eps <= m:
        raise EvanescentMode(f"eps={eps} <= m={m}")
    if eps * eps - m * m - 4.0 <= 0.0:
        raise RegimeError("interior channel evanescent: eps^2 - m^2 - 4 <= 0")
    if ans.family != "regular":
        raise ValueError("pass the regular-family ansatz")
    tail_amp = 4.0 * (m * m + j * (j + 1) + 1.0)
    launch = 0.5 * math.log(tail_amp / (eps * 1e-9))

    def u_fn(rs: np.ndarray) -> np.ndarray:
        return effective_potential(hp, np.tanh(rs))[0]

    ratio, _resid = interior_wave_ratio(u_fn, eps, launch)
    return ratio
