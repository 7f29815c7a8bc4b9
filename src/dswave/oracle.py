"""Independent verification engines.

Three unrelated tools share this module because they all exist to check the
rest of the package rather than to be part of it:

* an adaptive Runge-Kutta-Fehlberg 7(8) integrator for the radial equation
  and its Schrodinger form, and Riccati panels for the Schrodinger form
  where q > 0, whose cost does not grow with the wave number;
* an extended-precision series evaluator (gamma / 2F1 / Bessel) built on
  big-float arithmetic with its own algorithms — Spouge's formula and raw
  term recurrences — so it shares no code path with :mod:`dswave.special`;
* an exact singular-point classifier (Fuchs criterion + indicial equations)
  over the factored-rational ODE descriptions of :mod:`dswave.rational_ode`.
"""
from __future__ import annotations

import cmath
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
    "integrate_riccati",
    "extended_series",
    "SingularPoint",
    "SingularityReport",
    "classify_singularities",
]


class StepFailure(RuntimeError):
    """An integrator cannot carry the solution: RKF7(8)'s step size underflowed
    (typically while approaching a pole) or its step budget ran out, or the
    Riccati panels met q <= 0 or a phase-error estimate above their budget."""


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

    For integrate, n_steps counts step attempts, accepted and rejected;
    n_rejected the rejected ones; h_min is the smallest accepted |h|.  For
    integrate_riccati, n_steps counts panels, n_rejected is 0 and h_min is
    the panel width.
    """

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    n_steps: int
    n_rejected: int
    h_min: float


# Steps planned per block after the first: p and q are evaluated once over
# the 13 stage nodes of every step of a block, and a block's fixed numpy work
# costs about as much as 250 steps, so every block is planned this long.  A
# larger block holds more memory and discards more steps after a rejection.
_BLOCK_STEPS = 256

_C = np.array(_RKF78["c"])
_A = np.array([row + (0.0,) * (13 - len(row)) for row in _RKF78["a"]])
_B = np.array(_RKF78["b"])
_E = (41.0 / 840.0) * np.array([1.0] + [0.0] * 9 + [1.0, -1.0, -1.0])


def _lands(r: float, target: float) -> bool:
    return r == target or abs(r - target) < 1e-15 * max(1.0, abs(target))


def _ideal_step(h: float, ratio: float) -> float:
    """The step size that the error ratio of a step of size h asks for: the
    error goes as h**8, aimed at 0.9**8 of tol, and the size is capped at
    4 |h|; 0.2 |h| where the ratio is not a number or infinite."""
    h, ratio = abs(float(h)), float(ratio)
    if not math.isfinite(ratio):
        return 0.2 * h
    return h * (4.0 if ratio == 0.0 else min(4.0, 0.9 * ratio**-0.125))


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


def _wanted(
    prob: OdeProblem, r_target: float, tol: float, samples: Sequence[float] | None
) -> tuple[float, list[float]]:
    """Checked span r_target - r0 and the points to report, in the order the
    integration reaches them (r_target last); ValueError on a bad request."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    span = r_target - prob.r0
    if span == 0.0:
        raise ValueError("r_target coincides with r0")
    if prob.direction not in (0, -1, 1):
        raise ValueError("direction must be -1, 0, or +1")
    if prob.direction != 0 and prob.direction != (1 if span > 0.0 else -1):
        raise ValueError("r_target lies opposite the declared direction")
    if samples is None:
        return span, [r_target]
    wanted = sorted(set(float(s) for s in samples) | {r_target}, reverse=span < 0)
    lo, hi = min(prob.r0, r_target), max(prob.r0, r_target)
    for s in wanted:
        if not lo <= s <= hi:
            raise ValueError(f"sample {s} outside integration interval")
    return span, wanted


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
    block, on a float ndarray of stage nodes (see OdeProblem).  The first
    block tries the initial guess of h on 8 steps, and every later block
    plans _BLOCK_STEPS steps (fewer before r_target).  A block keeps its
    steps up to the first one whose error ratio exceeds 1 or is not finite;
    that step counts as rejected and the steps planned after it are
    discarded uncounted.

    The next h follows the trend of the tried steps' ideal sizes
    (_ideal_step).  From the first one's h1 to the last one's hn, the ideal
    size shrinks by s = max(0, (h1 - hn) / distance) per unit length, so
    N = _BLOCK_STEPS steps of size h still pass at the last one if
    h <= hn - s N h.  The next block takes h = hn * max(0.1, 1 / (1 + s N)):
    where the right step shrinks along the path (towards a singular point)
    the blocks stay long, and where it grows (away from one) h follows it
    by up to 4x per block.  Raises StepFailure when h underflows
    |r_target - r0| * 1e-14 or after max_steps step attempts.
    """
    span, wanted = _wanted(prob, r_target, tol, samples)
    sign = 1.0 if span > 0.0 else -1.0
    r = prob.r0
    y = np.array([prob.u0, prob.du0], dtype=complex)
    scale = np.maximum(1.0, np.abs(y))  # running max of |u| and |u'|
    out_r: list[float] = []
    out_y: list[np.ndarray] = []
    idx = 0
    n_steps = 0
    n_rejected = 0
    n_plan = 8  # the first h is a guess: try it on a short block
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
            tried = kept + (1 if rejected.size else 0)
            n_steps += tried
            n_plan = _BLOCK_STEPS
            if kept:
                r, y, scale = float(ends[kept - 1]), ys[:, kept - 1], scales[:, kept - 1]
                h_smallest = min(h_smallest, float(np.min(np.abs(hs[:kept]))))
                for i, step in hits:
                    if step < kept:
                        out_r.append(wanted[i])
                        out_y.append(ys[:, step])
                        idx = i + 1
            n_rejected += tried - kept
            first, last = _ideal_step(hs[0], ratios[0]), _ideal_step(hs[tried - 1], ratios[tried - 1])
            width = abs(float(ends[tried - 1] - ends[0]))
            shrink = max(0.0, (first - last) / width) if tried > 1 else 0.0
            h = sign * last * max(0.1, 1.0 / (1.0 + _BLOCK_STEPS * shrink))

    states = np.array(out_y)
    return OdeSolution(
        r=np.asarray(out_r, dtype=float),
        u=states[:, 0],
        du=states[:, 1],
        n_steps=n_steps,
        n_rejected=n_rejected,
        h_min=h_smallest,
    )


# --- Riccati panels ---------------------------------------------------------

# Chebyshev degree of a panel, the widest panel and the fewest panels of a
# span, and the most defect-correction sweeps.
_CHEB_DEGREE = 16
_PANEL_WIDTH = 1.0
_MIN_PANELS = 12
_RICCATI_SWEEPS = 16


def _chebyshev_matrices(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form Chebyshev tools of degree n on [-1, 1].

    Returns the nodes t_k = -cos(pi k / n) (ascending, t_0 = -1); the map
    from values at the nodes to coefficients of T_0..T_n (the discrete
    cosine sum with halved end terms); the differentiation matrix on the
    nodes; and the map from coefficients of f to the n + 2 coefficients of
    the antiderivative of f that vanishes at t = -1.
    """
    theta = math.pi * np.arange(n, -1, -1) / n
    basis = np.cos(np.outer(theta, np.arange(n + 1)))  # T_j(t_k)
    ends = np.ones(n + 1)
    ends[[0, -1]] = 0.5
    to_coef = (2.0 / n) * (basis * ends[:, None]).T * ends[:, None]
    # T_j' = 2j (T_(j-1) + T_(j-3) + ...), with T_0 counted once
    deriv = np.zeros((n + 1, n + 1))
    for j in range(1, n + 1):
        deriv[j - 1 :: -2, j] = 2.0 * j
        if j % 2:
            deriv[0, j] = j
    # int T_0 = T_1, int T_1 = T_2 / 4, int T_j = T_(j+1)/(2(j+1)) - T_(j-1)/(2(j-1))
    antideriv = np.zeros((n + 2, n + 1))
    antideriv[1, 0] = 1.0
    antideriv[2, 1] = 0.25
    for j in range(2, n + 1):
        antideriv[j + 1, j] = 0.5 / (j + 1)
        antideriv[j - 1, j] = -0.5 / (j - 1)
    antideriv[0] -= (-1.0) ** np.arange(n + 2) @ antideriv  # T_i(-1) = (-1)^i
    return basis[:, 1], to_coef, basis @ deriv @ to_coef, antideriv


_NODES, _TO_COEF, _DIFF, _ANTIDERIV = _chebyshev_matrices(_CHEB_DEGREE)


def integrate_riccati(
    prob: OdeProblem,
    r_target: float,
    tol: float,
    samples: Sequence[float] | None = None,
) -> OdeSolution:
    """u'' + q u = 0 with real q > 0, through the Riccati equation on panels.

    The log-derivative y = u'/u solves y' + y^2 + q = 0 and, where q > 0,
    has a solution that does not oscillate (Agocs & Barnett,
    arXiv:2212.06924), so the cost follows how fast q changes, not how large
    it is.  The span from r0 to r_target is cut into max(_MIN_PANELS,
    ceil(|span| / _PANEL_WIDTH)) equal panels, each carrying a Chebyshev
    polynomial of degree _CHEB_DEGREE; q is called once, on every node of
    every panel.  On all panels at once, y starts from i sqrt(q) and is
    corrected by y <- y - (y' + y^2 + q) / (2y), with y' from the Chebyshev
    differentiation matrix; each panel keeps its iterate of lowest
    max |R| / (2|y|), R = y' + y^2 + q.  Then u1 = exp(integral y) and its
    conjugate u2 are two solutions on each panel, and one 2x2 solve per
    panel matches (u, u') at its start.  Values at the wanted points come
    from the Chebyshev antiderivative of y inside their panel.

    Raises StepFailure naming the cause when q is not real, when some node
    has q <= 0 (or q is not a number), or when the phase-error estimate
    sum over panels of width * max |R| / (2|y|) exceeds 10 tol; integrate
    handles those problems.  The OdeSolution counts panels in n_steps;
    n_rejected is 0 (no panel is retried) and h_min is the panel width.
    """
    if prob.p is not None:
        raise ValueError("integrate_riccati solves u'' + q u = 0: p must be None")
    span, wanted = _wanted(prob, r_target, tol, samples)
    n = max(_MIN_PANELS, math.ceil(abs(span) / _PANEL_WIDTH))
    edges = prob.r0 + span * np.arange(n + 1) / n
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    x = mid[:, None] + half[:, None] * _NODES

    with np.errstate(all="ignore"):
        q = np.broadcast_to(prob.q(x.ravel()), x.size).reshape(x.shape)
        if np.iscomplexobj(q):
            if np.any(q.imag != 0.0):
                raise StepFailure("q is not real: the Riccati route needs a real q > 0")
            q = q.real
        bad = np.flatnonzero(~(q > 0.0))
        if bad.size:
            k = bad[0]
            raise StepFailure(
                f"q = {q.flat[k]:.6g} at r={x.flat[k]:.6g}: the Riccati route needs q > 0 "
                f"(turning point or evanescent stretch)"
            )
        y = 1j * np.sqrt(q)
        best, best_err = y, np.full(n, np.inf)
        for _ in range(_RICCATI_SWEEPS):
            resid = (y @ _DIFF.T) / half[:, None] + y * y + q
            err = np.max(np.abs(resid) / (2.0 * np.abs(y)), axis=1)
            better = err < best_err
            if not better.any():
                break
            best = np.where(better[:, None], y, best)
            best_err = np.where(better, err, best_err)
            y = y - resid / (2.0 * y)
        width = abs(span) / n
        phase_err = width * float(np.sum(best_err))
        if not phase_err <= 10.0 * tol:
            raise StepFailure(
                f"Riccati phase-error estimate {phase_err:.3g} exceeds 10 tol = {10.0 * tol:.3g} "
                f"on panels of width {width:.3g} (q too small for its rate of change)"
            )

        coef = best @ _TO_COEF.T  # y on each panel, T_0..T_n
        big_y = half[:, None] * (coef @ _ANTIDERIV.T)  # integral of y from the panel start
        # (u, u') at each panel start, and the weights of u1, u2 there
        alpha = np.empty(n, dtype=complex)
        beta = np.empty(n, dtype=complex)
        u, du = complex(prob.u0), complex(prob.du0)
        for k in range(n):
            ya, yb = complex(best[k, 0]), complex(best[k, -1])
            gap = ya - ya.conjugate()
            alpha[k] = a = (du - ya.conjugate() * u) / gap
            beta[k] = b = (ya * u - du) / gap
            grow = cmath.exp(complex(big_y[k].sum()))  # T_i(1) = 1
            u = a * grow + b * grow.conjugate()
            du = a * yb * grow + b * yb.conjugate() * grow.conjugate()

        r = np.array(wanted)
        panel = np.clip(((r - prob.r0) / span * n).astype(int), 0, n - 1)
        t = np.clip((r - mid[panel]) / half[panel], -1.0, 1.0)
        cheb = np.cos(np.outer(np.arccos(t), np.arange(_CHEB_DEGREE + 2)))
        grow = np.exp(np.sum(big_y[panel] * cheb, axis=1))
        y_at = np.sum(coef[panel] * cheb[:, :-1], axis=1)
        u1, u2 = alpha[panel] * grow, beta[panel] * np.conj(grow)
    return OdeSolution(
        r=r,
        u=u1 + u2,
        du=u1 * y_at + u2 * np.conj(y_at),
        n_steps=n,
        n_rejected=0,
        h_min=width,
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
