"""Independent verification engines.

Three unrelated tools share this module because they all exist to check the
rest of the package rather than to be part of it:

* an adaptive Runge-Kutta-Fehlberg 7(8) integrator for the radial equation
  and its Schrodinger form;
* an extended-precision series evaluator (gamma / 2F1 / Bessel) built on
  big-float arithmetic with its own algorithms — Spouge's formula and raw
  term recurrences — so it shares no code path with :mod:`dswave.special`;
* an exact singular-point classifier (Fuchs criterion + indicial equations)
  over the factored-rational ODE descriptions of :mod:`dswave.rational_ode`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

import mpmath as mp
import numpy as np

from .rational_ode import FactoredRational, UnfactoredInput, indicial_roots
from .special import NonConvergence, PoleError

__all__ = [
    "StepFailure",
    "UnfactoredInput",
    "OdeProblem",
    "OdeSolution",
    "integrate",
    "extended_series",
    "SingularPoint",
    "SingularityReport",
    "classify_singularities",
]


class StepFailure(RuntimeError):
    """Adaptive step size underflowed (typically while approaching a pole)."""


# --- RKF 7(8) ---------------------------------------------------------------

_RKF78 = {
    "c": (
        0.0, 2.0 / 27.0, 1.0 / 9.0, 1.0 / 6.0, 5.0 / 12.0, 0.5, 5.0 / 6.0,
        1.0 / 6.0, 2.0 / 3.0, 1.0 / 3.0, 1.0, 0.0, 1.0,
    ),
    "a": (
        (),
        (2.0 / 27.0,),
        (1.0 / 36.0, 1.0 / 12.0),
        (1.0 / 24.0, 0.0, 1.0 / 8.0),
        (5.0 / 12.0, 0.0, -25.0 / 16.0, 25.0 / 16.0),
        (1.0 / 20.0, 0.0, 0.0, 0.25, 0.2),
        (-25.0 / 108.0, 0.0, 0.0, 125.0 / 108.0, -65.0 / 27.0, 125.0 / 54.0),
        (31.0 / 300.0, 0.0, 0.0, 0.0, 61.0 / 225.0, -2.0 / 9.0, 13.0 / 900.0),
        (2.0, 0.0, 0.0, -53.0 / 6.0, 704.0 / 45.0, -107.0 / 9.0, 67.0 / 90.0, 3.0),
        (-91.0 / 108.0, 0.0, 0.0, 23.0 / 108.0, -976.0 / 135.0, 311.0 / 54.0,
         -19.0 / 60.0, 17.0 / 6.0, -1.0 / 12.0),
        (2383.0 / 4100.0, 0.0, 0.0, -341.0 / 164.0, 4496.0 / 1025.0, -301.0 / 82.0,
         2133.0 / 4100.0, 45.0 / 82.0, 45.0 / 164.0, 18.0 / 41.0),
        (3.0 / 205.0, 0.0, 0.0, 0.0, 0.0, -6.0 / 41.0, -3.0 / 205.0, -3.0 / 41.0,
         3.0 / 41.0, 6.0 / 41.0, 0.0),
        (-1777.0 / 4100.0, 0.0, 0.0, -341.0 / 164.0, 4496.0 / 1025.0, -289.0 / 82.0,
         2193.0 / 4100.0, 51.0 / 82.0, 33.0 / 164.0, 12.0 / 41.0, 0.0, 1.0),
    ),
    # 8th-order weights; the embedded 7th-order result differs by the
    # classic 41/840 (k0 + k10 - k11 - k12) combination used as the error.
    "b": (
        0.0, 0.0, 0.0, 0.0, 0.0, 34.0 / 105.0, 9.0 / 35.0, 9.0 / 35.0,
        9.0 / 280.0, 9.0 / 280.0, 0.0, 41.0 / 840.0, 41.0 / 840.0,
    ),
}


@dataclass(frozen=True)
class OdeProblem:
    """u'' + p(r) u' + q(r) u = 0 with initial data at r0.

    p and q take a float ndarray of radii and return an array of that shape
    (real or complex), or a constant; p may be None (Schrodinger form).
    FactoredRational instances work directly.  direction = +1/-1 fixes the
    allowed integration sense; 0 infers it from the target.
    """

    p: Callable[[np.ndarray], np.ndarray | complex] | None
    q: Callable[[np.ndarray], np.ndarray | complex]
    r0: float
    u0: complex
    du0: complex
    direction: int = 0


@dataclass(frozen=True)
class OdeSolution:
    """Values at the requested points, plus the step counters.

    n_steps counts step attempts, accepted and rejected; n_rejected the
    rejected ones; h_min is the smallest accepted |h|.
    """

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    n_steps: int
    n_rejected: int
    h_min: float


# Most steps planned per block: p and q are evaluated once over the 13 stage
# nodes of every step of a block.  A larger block saves calls but discards
# more speculative steps after a rejection and holds more memory.
_BLOCK_STEPS = 256

_C = np.array(_RKF78["c"])
_A = np.array([row + (0.0,) * (13 - len(row)) for row in _RKF78["a"]])
_B = np.array(_RKF78["b"])
_E = (41.0 / 840.0) * np.array([1.0] + [0.0] * 9 + [1.0, -1.0, -1.0])


def _lands(r: float, target: float) -> bool:
    return r == target or abs(r - target) < 1e-15 * max(1.0, abs(target))


def _plan(
    r: float, h: float, wanted: Sequence[float], idx: int, room: int
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """End points of up to room steps of size h from r.

    A step that would pass the next wanted point is clipped to land on it
    exactly; a remainder below 1e-9 |h| is folded into the step before.
    Returns the end points and a (wanted index, step index) pair for every
    wanted point the steps land on.
    """
    ends: list[np.ndarray] = []
    hits: list[tuple[int, int]] = []
    count = 0
    while idx < len(wanted) and count < room:
        target = wanted[idx]
        if count and _lands(r, target):
            hits.append((idx, count - 1))
            idx += 1
            continue
        need = max(1, math.ceil((target - r) / h - 1e-9))
        take = min(need, room - count)
        seg = r + h * np.arange(1, take + 1)
        if take == need:
            seg[-1] = target
            hits.append((idx, count + take - 1))
            idx += 1
        ends.append(seg)
        count += take
        r = float(seg[-1])
    return np.concatenate(ends), hits


def _combine(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """weights @ rows by elementwise products and a sum.  A matrix product
    would go to BLAS, whose threads make these small products ~10x slower
    on a loaded machine."""
    return (weights[:, None] * rows).sum(axis=0)


def _step_matrices(
    p_fn: Callable | None, q_fn: Callable, starts: np.ndarray, hs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Propagator P and embedded-error matrix E of every step of a block.

    The equation is linear, so each stage slope is a 2x2 matrix times the
    step's initial y = (u, u'): K_i = A(r + c_i h) (y + h sum_j a_ij K_j) with
    A = [[0, 1], [-q, -p]].  Then y_end = P y, and |E y| is the error of the
    step.  Both come as rows (uu, uv, vu, vv) over the steps, shape (4, n).
    """
    n = len(hs)
    nodes = starts + np.multiply.outer(_C, hs)
    minus_hq = -hs * np.broadcast_to(q_fn(nodes), nodes.shape)
    minus_hp = None if p_fn is None else -hs * np.broadcast_to(p_fn(nodes), nodes.shape)
    # h K_i, rows as above; real when p and q are
    kind = minus_hq.dtype if minus_hp is None else np.result_type(minus_hq, minus_hp)
    slopes = np.empty((13, 4, n), dtype=kind)
    for i in range(13):
        s = _combine(_A[i, :i], slopes[:i].reshape(i, 4 * n)).reshape(4, n)
        s[0] += 1.0
        s[3] += 1.0
        np.multiply(hs, s[2:], out=slopes[i, :2])
        np.multiply(minus_hq[i], s[:2], out=slopes[i, 2:])
        if minus_hp is not None:
            slopes[i, 2:] += minus_hp[i] * s[2:]
    flat = slopes.reshape(13, 4 * n)
    prop = _combine(_B, flat).reshape(4, n)
    prop[0] += 1.0
    prop[3] += 1.0
    return prop, _combine(_E, flat).reshape(4, n)


def _walk(prop: np.ndarray, err: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """States (u, u') after every step of a block, and each step's |error| in
    u and u', both shape (2, n), for the matrices of _step_matrices.

    The state after step k is P_k ... P_0 y; a doubling scan forms the prefix
    products in log2(n) rounds of 2x2 products over the steps.
    """
    acc = prop.copy()
    d = 1
    while d < acc.shape[1]:
        left, right = acc[:, d:], acc[:, :-d]
        prod = np.empty_like(left)
        prod[0] = left[0] * right[0] + left[1] * right[2]
        prod[1] = left[0] * right[1] + left[1] * right[3]
        prod[2] = left[2] * right[0] + left[3] * right[2]
        prod[3] = left[2] * right[1] + left[3] * right[3]
        acc[:, d:] = prod
        d *= 2
    ys = acc[0::2] * y[0] + acc[1::2] * y[1]
    before = np.concatenate((y[:, None], ys[:, :-1]), axis=1)
    return ys, np.abs(err[0::2] * before[0] + err[1::2] * before[1])


def integrate(
    prob: OdeProblem,
    r_target: float,
    tol: float,
    samples: Sequence[float] | None = None,
    max_steps: int = 400_000,
) -> OdeSolution:
    """Adaptive RKF7(8) integration with exact-hit dense output.

    Steps are clipped to land exactly on each requested sample point, so no
    interpolation error enters the recorded values.  Local error per step is
    controlled to tol relative to the running maximum of |u| and |u'|.

    The steps go in blocks of one size h, so p and q are called once per
    block, on a float ndarray of stage nodes (see OdeProblem).  A block keeps
    its steps up to the first one whose error ratio exceeds 1 or is not
    finite; that step counts as rejected and the steps planned after it are
    discarded uncounted.  h then shrinks by that step's ratio, or after a
    block without rejection grows by its largest ratio.  A block plans twice
    the steps the last one kept, from 8 up to _BLOCK_STEPS.  Raises
    StepFailure when h underflows |r_target - r0| * 1e-14 or after max_steps
    step attempts.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    span = r_target - prob.r0
    if span == 0.0:
        raise ValueError("r_target coincides with r0")
    sign = 1.0 if span > 0.0 else -1.0
    if prob.direction not in (0, -1, 1):
        raise ValueError("direction must be -1, 0, or +1")
    if prob.direction != 0 and prob.direction != int(sign):
        raise ValueError("r_target lies opposite the declared direction")

    if samples is None:
        wanted = [r_target]
    else:
        wanted = sorted(set(float(s) for s in samples) | {r_target}, reverse=span < 0)
        lo, hi = min(prob.r0, r_target), max(prob.r0, r_target)
        for s in wanted:
            if not lo <= s <= hi:
                raise ValueError(f"sample {s} outside integration interval")

    r = prob.r0
    y = np.array([prob.u0, prob.du0], dtype=complex)
    scale = np.maximum(1.0, np.abs(y))  # running max of |u| and |u'|
    out_r: list[float] = []
    out_y: list[np.ndarray] = []
    idx = 0
    n_steps = 0
    n_rejected = 0
    n_plan = 8
    h_smallest = math.inf
    h_floor = abs(span) * 1e-14

    with np.errstate(all="ignore"):
        q_r0 = complex(np.broadcast_to(prob.q(np.array([r])), (1,))[0])
        h = sign * min(abs(span), 0.5 / (math.sqrt(abs(q_r0)) + 1.0), 0.1)
        while True:
            while idx < len(wanted) and _lands(r, wanted[idx]):
                out_r.append(wanted[idx])
                out_y.append(y)
                idx += 1
            if idx == len(wanted):
                break
            if abs(h) < h_floor:
                raise StepFailure(
                    f"step size {abs(h):.3e} underflowed at r={r:.6g} "
                    f"(possible coefficient singularity nearby)"
                )
            if n_steps >= max_steps:
                raise StepFailure(f"step budget {max_steps} exhausted at r={r:.6g}")

            ends, hits = _plan(r, h, wanted, idx, min(n_plan, max_steps - n_steps))
            starts = np.concatenate(([r], ends[:-1]))
            hs = ends - starts
            ys, errs = _walk(*_step_matrices(prob.p, prob.q, starts, hs), y)
            scales = np.maximum(np.maximum.accumulate(np.abs(ys), axis=1), scale[:, None])
            ratios = np.max(errs / (tol * scales), axis=0)
            rejected = np.flatnonzero(~(ratios <= 1.0))
            kept = int(rejected[0]) if rejected.size else len(hs)
            n_steps += kept + (1 if rejected.size else 0)
            n_plan = min(_BLOCK_STEPS, max(8, 2 * kept))
            if kept:
                r, y, scale = float(ends[kept - 1]), ys[:, kept - 1], scales[:, kept - 1]
                h_smallest = min(h_smallest, float(np.min(np.abs(hs[:kept]))))
                for i, step in hits:
                    if step < kept:
                        out_r.append(wanted[i])
                        out_y.append(ys[:, step])
                        idx = i + 1
            if rejected.size:
                n_rejected += 1
                ratio = float(ratios[kept])
                shrink = max(0.2, 0.9 * ratio**-0.125) if math.isfinite(ratio) else 0.2
                h = float(hs[kept]) * shrink
            else:
                worst = float(np.max(ratios))
                grow = 4.0 if worst == 0.0 else min(4.0, 0.9 * worst**-0.125)
                h *= max(grow, 0.2)

    states = np.array(out_y)
    return OdeSolution(
        r=np.asarray(out_r, dtype=float),
        u=states[:, 0],
        du=states[:, 1],
        n_steps=n_steps,
        n_rejected=n_rejected,
        h_min=h_smallest,
    )


# --- extended-precision series ----------------------------------------------


def _spouge_gamma(z: mp.mpc, digits: int) -> mp.mpc:
    """Gamma via Spouge's formula (error ~ (2 pi)^-a, a chosen from digits)."""
    a = int(digits / 0.79) + 4
    if mp.re(z) < 0.5:
        # reflection keeps the convergent region Re >= 0.5
        return mp.pi / (mp.sin(mp.pi * z) * _spouge_gamma(1 - z, digits))
    zm = z - 1
    acc = mp.sqrt(2 * mp.pi)
    sign = 1
    fact = mp.mpf(1)
    for k in range(1, a):
        ck = sign * mp.power(a - k, k - mp.mpf(0.5)) * mp.exp(a - k) / fact
        acc += ck / (zm + k)
        sign = -sign
        fact *= k
    return mp.power(zm + a, zm + mp.mpf(0.5)) * mp.exp(-(zm + a)) * acc


def _series_hyp2f1(a, b, c, z, digits: int):
    """Raw Gauss series, summed again at a higher precision until ``digits``
    guard digits (plus the usual 15) sit above the digits the sum lost to
    cancellation, log10(peak |term| / |sum|).

    A sum that is roundoff noise under-reports its loss, so the loop repeats
    until the loss measured at the working precision fits.  The peak term is
    a product and keeps full relative precision, so the next precision
    allows for a sum of order one below it.
    """
    if mp.im(c) == 0 and mp.re(c) <= 0 and mp.re(c) == mp.floor(mp.re(c)):
        raise PoleError(f"oracle hyp2f1: c={c} on a pole")
    if abs(z) >= 1:
        raise ValueError("oracle hyp2f1 requires |z| < 1")
    dps = mp.mp.dps
    while True:
        with mp.workdps(dps):
            term = mp.mpc(1)
            total = mp.mpc(1)
            peak = mp.mpf(1)
            eps = mp.mpf(10) ** (-(digits + 8))
            small = 0
            for n in range(1_000_000):
                term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
                total += term
                mag = abs(term.real) + abs(term.imag)  # within sqrt(2) of |term|
                if mag > peak:
                    peak = mag
                if term == 0:
                    break
                # small against the peak as well as the sum; the first test is cheaper
                if mag <= eps * peak and mag <= eps * abs(total):
                    small += 1
                    if small >= 3:
                        break
                else:
                    small = 0
            else:
                raise NonConvergence(
                    f"oracle hyp2f1: 1e6 terms at |z|={abs(z)} without reaching {digits} digits"
                )
            lost = dps if total == 0 else max(0, int(mp.ceil(mp.log10(peak / abs(total)))))
            peak_digits = int(mp.ceil(mp.log10(peak)))
        if dps >= digits + 15 + lost:
            return total
        if lost > 100 * (digits + 15):
            raise NonConvergence(f"oracle hyp2f1: cancellation spans more than {lost} digits")
        dps = max(digits + 15 + lost, digits + 25 + peak_digits)


def _series_bessel_j(p, x, digits: int):
    xm = mp.mpf(x) if not isinstance(x, (mp.mpf, mp.mpc)) else x
    pm = mp.mpf(p) if not isinstance(p, (mp.mpf, mp.mpc)) else p
    if xm == 0:
        if pm == 0:
            return mp.mpc(1)
        if mp.re(pm) > 0:
            return mp.mpc(0)
        raise ValueError("oracle bessel at x=0 with negative order")
    lead = mp.power(xm / 2, pm) / _spouge_gamma(mp.mpc(pm + 1), digits)
    q = -(xm * xm) / 4
    term = mp.mpc(1)
    total = mp.mpc(1)
    eps = mp.mpf(10) ** (-(digits + 8))
    for n in range(100_000):
        term *= q / ((n + 1) * (pm + 1 + n))
        total += term
        if abs(term) <= eps * abs(total):
            break
    else:
        raise NonConvergence("oracle bessel series did not converge")
    return lead * total


def extended_series(kind: str, args: Sequence, digits: int = 30):
    """Ground-truth values by exhaustive summation in big-float arithmetic.

    kind: 'gamma' (args: z), 'hyp2f1' (args: a, b, c, z), 'bessel'
    (args: p, x).  Returns an mpmath complex carrying the full precision;
    callers needing doubles convert explicitly.  digits >= 30 enforced —
    below that the point of an oracle is lost.
    """
    if digits < 30:
        raise ValueError("oracle contract starts at 30 digits")
    extra = 15
    if kind == "bessel":
        extra += int(abs(float(args[1])))  # leading-term cancellation headroom
    with mp.workdps(digits + extra):
        if kind == "gamma":
            (z,) = args
            zc = mp.mpc(z)
            if mp.im(zc) == 0 and mp.re(zc) <= 0 and mp.re(zc) == mp.floor(mp.re(zc)):
                raise PoleError(f"oracle gamma: pole at {z}")
            val = _spouge_gamma(zc, digits)
        elif kind == "hyp2f1":
            a, b, c, z = (mp.mpc(v) for v in args)
            val = _series_hyp2f1(a, b, c, z, digits)
        elif kind == "bessel":
            p, x = args
            val = _series_bessel_j(p, x, digits)
        else:
            raise ValueError(f"unknown oracle kind {kind!r}")
        return +val  # round into the caller-visible working precision


# --- singular-point classification ------------------------------------------


@dataclass(frozen=True)
class SingularPoint:
    """location is a Fraction for finite points or the string 'infinity'."""

    location: Any
    kind: str  # 'regular' | 'irregular'
    exponents: tuple | None  # None when irregular


@dataclass(frozen=True)
class SingularityReport:
    points: tuple[SingularPoint, ...]
    includes_infinity: bool
    classification: str

    def to_json(self) -> dict:
        def enc(e):
            if isinstance(e, Fraction):
                return str(e)
            if isinstance(e, complex):
                return [e.real, e.imag]
            return float(e)

        return {
            "points": [
                {
                    "location": str(pt.location),
                    "kind": pt.kind,
                    "exponents": None
                    if pt.exponents is None
                    else [enc(e) for e in pt.exponents],
                }
                for pt in self.points
            ],
            "includes_infinity": self.includes_infinity,
            "classification": self.classification,
        }


def _coerce_coefficients(coeffs: Any) -> tuple[FactoredRational, FactoredRational]:
    if hasattr(coeffs, "p") and hasattr(coeffs, "q"):
        p, q = coeffs.p, coeffs.q
    elif isinstance(coeffs, dict):
        p, q = coeffs.get("p"), coeffs.get("q")
    else:
        raise UnfactoredInput("expected an object or dict with 'p' and 'q' entries")
    if not isinstance(p, FactoredRational):
        p = FactoredRational.from_json(p)
    if not isinstance(q, FactoredRational):
        q = FactoredRational.from_json(q)
    return p, q


def _fuchs_point(
    location: Any, pole_p: float, pole_q: float, limits: Callable[[], tuple[Fraction, Fraction]]
) -> SingularPoint | None:
    """Fuchs test from the pole orders of p and q; limits() gives the indicial A, B."""
    if pole_p < 1 and pole_q < 1:
        return None  # ordinary point, or the numerator cancels the factor
    if pole_p <= 1 and pole_q <= 2:
        try:
            exponents = indicial_roots(*limits())
        except OverflowError as exc:
            raise OverflowError(
                f"the indicial exponents at x = {location} are beyond double range"
            ) from exc
        return SingularPoint(location=location, kind="regular", exponents=exponents)
    return SingularPoint(location=location, kind="irregular", exponents=None)


def classify_singularities(coeffs: Any) -> SingularityReport:
    """Locate and classify the singular points of u'' + p u' + q u = 0.

    Finite candidates come from the factored denominators; each is tested
    with the Fuchs criterion (pole of p at most simple, pole of q at most
    double) and, when regular, gets exact indicial exponents from
    s(s-1) + A s + B = 0 with A = lim (x-x0) p, B = lim (x-x0)^2 q.
    The point at infinity is read from the leading terms P ~ a x^gp and
    Q ~ b x^gq (gap g = numerator degree - denominator degree): it is
    ordinary iff gp = -1, a = 2 and gq <= -4; irregular iff gp >= 0 or
    gq >= -1; otherwise regular with A = 2 - (a if gp = -1 else 0) and
    B = (b if gq = -2 else 0).  A zero P or Q has gap -infinity.
    Classification: hypergeometric_class(3) / heun_class(4) for all-regular
    equations with that many singular points, other(n) otherwise.
    """
    p, q = _coerce_coefficients(coeffs)
    candidates = sorted(
        {root for root, _ in p.roots} | {root for root, _ in q.roots}
    )
    points = [
        _fuchs_point(
            x0,
            p.pole_order(x0),
            q.pole_order(x0),
            lambda x0=x0: (p.shifted_limit(x0, 1), q.shifted_limit(x0, 2)),
        )
        for x0 in candidates
    ]
    # x = infinity: with t = 1/x the coefficients become 2/t - P(1/t)/t^2 and
    # Q(1/t)/t^4, whose pole orders at t = 0 follow from the leading terms
    gp, a = p.leading_term() or (-math.inf, Fraction(0))
    gq, b = q.leading_term() or (-math.inf, Fraction(0))
    inf_point = _fuchs_point(
        "infinity",
        0 if gp == -1 and a == 2 else max(gp + 2, 1),
        gq + 4,
        lambda: (2 - a if gp == -1 else Fraction(2), b if gq == -2 else Fraction(0)),
    )
    points = [pt for pt in points + [inf_point] if pt is not None]
    n = len(points)
    if all(pt.kind == "regular" for pt in points) and n == 3:
        classification = "hypergeometric_class(3)"
    elif all(pt.kind == "regular" for pt in points) and n == 4:
        classification = "heun_class(4)"
    else:
        classification = f"other({n})"
    return SingularityReport(
        points=tuple(points),
        includes_infinity=inf_point is not None,
        classification=classification,
    )
