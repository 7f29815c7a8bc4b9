"""Independent verification engines.

Two unrelated tools share this module because they both exist to check the
rest of the package rather than to be part of it:

* Chebyshev-panel collocation for the radial equation and its Schrodinger
  form, and Riccati panels for the Schrodinger form where q > 0, whose cost
  does not grow with the wave number;
* an exact singular-point classifier (Fuchs criterion + indicial equations)
  over the factored-rational ODE descriptions of :mod:`dswave.rational_ode`.

The third checker, the big-float series evaluator, is :mod:`dswave.bigfloat`,
kept apart so that only it loads mpmath.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from .rational_ode import FactoredRational, UnfactoredInput, indicial_roots

__all__ = [
    "StepFailure",
    "UnfactoredInput",
    "OdeProblem",
    "OdeSolution",
    "integrate",
    "integrate_riccati",
    "SingularPoint",
    "SingularityReport",
    "classify_singularities",
]


class StepFailure(RuntimeError):
    """An integrator cannot carry the solution: the collocation panels underflowed
    (near a pole) or ran over their budget, or the Riccati panels met q <= 0 or
    a phase-error estimate above their budget."""


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
    """Values at the requested points and the panel counters: n_steps counts
    the panels solved (for integrate, halves of split panels included),
    n_rejected the panels split (none by integrate_riccati), h_min the
    narrowest panel."""

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    n_steps: int
    n_rejected: int
    h_min: float


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


def _chebyshev_matrices(n: int) -> tuple[np.ndarray, ...]:
    """Closed-form Chebyshev tools of degree n on [-1, 1].

    Returns the nodes t_k = -cos(pi k / n) (ascending, t_0 = -1); the map
    from values at the nodes to coefficients of T_0..T_n (the discrete
    cosine sum with halved end terms); the differentiation matrix on the
    nodes; the map from coefficients of f to the n + 2 coefficients of the
    antiderivative of f that vanishes at t = -1; and the map from values of
    f at the nodes to values of that antiderivative there.
    """
    theta = math.pi * np.arange(n, -1, -1) / n
    basis = np.cos(np.outer(theta, np.arange(n + 2)))  # T_j(t_k)
    at_nodes, basis = basis, basis[:, :-1]
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
    return basis[:, 1], to_coef, basis @ deriv @ to_coef, antideriv, at_nodes @ antideriv @ to_coef


# --- collocation panels -----------------------------------------------------

# Chebyshev degree of a collocation panel, the tail a panel may keep in units
# of tol, the points of the trial grid that plans the panels, and the most
# panels, halves included, one integration may take.
_PANEL_DEGREE = 12
_TAIL_PER_TOL = 100.0
_TRIAL_POINTS = 257
_MAX_STEPS = 400_000

_P_NODES, _P_TO_COEF, _, _, _P_INT = _chebyshev_matrices(_PANEL_DEGREE)
_P_INT2 = _P_INT @ _P_INT


def _on(f: Callable | None, x: np.ndarray) -> np.ndarray:
    """f at the radii x as an array of their shape; 0 for a missing p."""
    return np.zeros(x.shape) if f is None else np.broadcast_to(f(x), x.shape)


def _no_underflow(width: np.ndarray, r: np.ndarray, floor: float) -> None:
    bad = np.flatnonzero(~(np.abs(width) >= floor))
    if bad.size:
        raise StepFailure(
            f"step size {abs(width[bad[0]]):.3e} underflowed at r={r[bad[0]]:.6g} "
            f"(possible coefficient singularity nearby)"
        )


def _plan(prob: OdeProblem, sign: float, ends: np.ndarray, phi: float, floor: float):
    """Starts and ends of the panels from r0 through the points ends: up to each
    end, ceil(N) panels that split N = integral dr / w equally, w = phi / (|p| +
    sqrt|q|), N by the trapezoid rule on _TRIAL_POINTS Chebyshev points, dense at
    both ends as the radial equation's poles need.  integrate picks phi so that a
    plane wave keeps 2 (phi/4)^(n-1) / (n-1)! = _TAIL_PER_TOL tol as top coefficient."""
    to = np.abs(ends - prob.r0)
    d = 0.5 * to[-1] * (1.0 - np.cos(np.pi * np.arange(_TRIAL_POINTS) / (_TRIAL_POINTS - 1)))
    r = prob.r0 + sign * d
    width = np.minimum(phi / (np.abs(_on(prob.p, r)) + np.sqrt(np.abs(_on(prob.q, r)))), to[-1])
    _no_underflow(width, r, floor)
    count = np.append(0.0, np.cumsum(0.5 * np.diff(d) * (1.0 / width[1:] + 1.0 / width[:-1])))
    reach = np.interp(to, d, count)  # N from r0 to each end
    per = np.maximum(1, np.ceil(np.diff(reach, prepend=0.0) * (1.0 - 1e-9)))
    if per.sum() > _MAX_STEPS:  # before any array of that length exists
        at = np.interp(_MAX_STEPS, count, r)
        raise StepFailure(f"step budget {_MAX_STEPS} exhausted at r={at:.6g}")
    first = (np.cumsum(per) - per).astype(int)  # the first panel up to each end
    at = np.interp(np.arange(per.sum()), np.append(first, per.sum()), np.append(0.0, reach))
    starts = prob.r0 + sign * np.interp(at, count, d)
    starts[first] = np.append(prob.r0, ends[:-1])
    return starts, np.append(starts[1:], ends[-1])


def _solve_panels(prob: OdeProblem, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """u at the nodes, then u' at the end, of the solutions with (u, u') = (1, 0)
    and (0, 1) at the start of every panel.  With sigma = u'' at the nodes, J
    the nodal integration matrix and h the half width, u' = u'(start) + h J
    sigma and u = u(start) + u'(start) (r - start) + h^2 J^2 sigma, so one
    solve of (I + h P J + h^2 Q J^2) sigma = rhs serves all panels."""
    h = 0.5 * (ends - starts)[:, None, None]
    x = (0.5 * (starts + ends))[:, None] + h[:, 0] * _P_NODES
    from_start = x - starts[:, None]
    p, q = _on(prob.p, x)[..., None], _on(prob.q, x)[..., None]
    mat = np.eye(_PANEL_DEGREE + 1) + h * p * _P_INT + h * h * q * _P_INT2
    sigma = np.linalg.solve(mat, np.concatenate((-q, -p - q * from_start[..., None]), axis=-1))
    u = h * h * (_P_INT2 @ sigma) + np.stack((np.ones_like(x), from_start), axis=-1)
    return np.concatenate((u, h * (_P_INT[-1:] @ sigma) + [0.0, 1.0]), axis=1)


def integrate(
    prob: OdeProblem,
    r_target: float,
    tol: float,
    samples: Sequence[float] | None = None,
) -> OdeSolution:
    """Chebyshev-panel collocation (Greengard, SIAM J. Numer. Anal. 28 (1991);
    Driscoll & Hale, IMA J. Numer. Anal. 36 (2016)); every sample ends a panel.

    The panels of _plan pass (u, u') from r0 by their 2x2 transfers.  A panel
    whose u has its top two Chebyshev coefficients above _TAIL_PER_TOL tol
    times the running max |u| is halved and the halves solved (a plane wave's
    end error stays below 1e-3 of them), so p and q see the trial grid, all
    nodes, and each round of splits.  StepFailure: a panel below |r_target -
    r0| * 1e-14 wide, which bounds the rounds, or more than _MAX_STEPS panels.
    """
    span, wanted = _wanted(prob, r_target, tol, samples)
    sign, floor, n = math.copysign(1.0, span), abs(span) * 1e-14, _PANEL_DEGREE
    phi = 4.0 * math.exp((math.log(0.5 * _TAIL_PER_TOL * tol) + math.lgamma(n)) / (n - 1))
    with np.errstate(all="ignore"):
        ends = np.array([w for w in wanted if w != prob.r0])
        starts, ends = _plan(prob, sign, ends, phi, floor)
        panels, n_steps, n_rejected = _solve_panels(prob, starts, ends), len(starts), 0
        while True:
            states = [(complex(prob.u0), complex(prob.du0))]
            for a, b, c, d in zip(*panels[:, -2].T.tolist(), *panels[:, -1].T.tolist()):
                u, du = states[-1]
                states.append((a * u + b * du, c * u + d * du))
            states = np.array(states)
            u = states[:-1, :1] * panels[:, :-1, 0] + states[:-1, 1:] * panels[:, :-1, 1]
            bound = _TAIL_PER_TOL * tol * np.maximum.accumulate(np.max(np.abs(u), axis=1))
            split = np.flatnonzero(~(np.max(np.abs(u @ _P_TO_COEF[-2:].T), axis=1) <= bound))
            if not split.size:
                break
            mid = 0.5 * (starts[split] + ends[split])
            n_steps, n_rejected = n_steps + 2 * split.size, n_rejected + split.size
            _no_underflow(mid - starts[split], starts[split], floor)
            if n_steps > _MAX_STEPS:
                raise StepFailure(f"step budget {_MAX_STEPS} exhausted at r={starts[split[0]]:.6g}")
            halves = _solve_panels(prob, np.append(starts[split], mid), np.append(mid, ends[split]))
            panels[split] = halves[: split.size]  # the first half takes the panel's place
            panels = np.insert(panels, split + 1, halves[split.size :], axis=0)
            starts, ends = np.insert(starts, split + 1, mid), np.insert(ends, split, mid)

    at = np.searchsorted(sign * np.append(prob.r0, ends), sign * np.array(wanted))
    h_min = float(np.min(np.abs(ends - starts)))
    return OdeSolution(np.array(wanted), states[at, 0], states[at, 1], n_steps, n_rejected, h_min)


# --- Riccati panels ---------------------------------------------------------

# Chebyshev degree of a panel, the widest panel and the fewest panels of a
# span, and the most defect-correction sweeps.
_CHEB_DEGREE = 16
_PANEL_WIDTH = 1.0
_MIN_PANELS = 12
_RICCATI_SWEEPS = 16

_NODES, _TO_COEF, _DIFF, _ANTIDERIV, _ = _chebyshev_matrices(_CHEB_DEGREE)


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
    max |R| / (2|y|), R = y' + y^2 + q.  The sweeps stop once the
    phase-error estimate of the kept iterates, sum over panels of
    width * max |R| / (2|y|), is at most tol, or once no panel improves
    (at most _RICCATI_SWEEPS sweeps).  Then u1 = exp(integral y) and its
    conjugate u2 are two solutions on each panel, and one 2x2 solve per
    panel matches (u, u') at its start.  Values at the wanted points come
    from the Chebyshev antiderivative of y inside their panel.

    Raises StepFailure naming the cause when q is not real, when some node
    has q <= 0 (or q is not a number), or when the phase-error estimate
    sum over panels of width * max |R| / (2|y|) exceeds 10 tol; integrate
    handles those problems.
    """
    if prob.p is not None:
        raise ValueError("integrate_riccati solves u'' + q u = 0: p must be None")
    span, wanted = _wanted(prob, r_target, tol, samples)
    n = max(_MIN_PANELS, math.ceil(abs(span) / _PANEL_WIDTH))
    edges = prob.r0 + span * np.arange(n + 1) / n
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    x = mid[:, None] + half[:, None] * _NODES

    with np.errstate(all="ignore"):
        q = _on(prob.q, x)
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
        width, phase_err = abs(span) / n, math.inf
        for _ in range(_RICCATI_SWEEPS):
            resid = (y @ _DIFF.T) / half[:, None] + y * y + q
            err = np.max(np.abs(resid) / (2.0 * np.abs(y)), axis=1)
            better = err < best_err
            if not better.any():
                break
            best = np.where(better[:, None], y, best)
            best_err = np.where(better, err, best_err)
            phase_err = width * float(np.sum(best_err))
            if phase_err <= tol:
                break
            y = y - resid / (2.0 * y)
        if not phase_err <= 10.0 * tol:
            raise StepFailure(
                f"Riccati phase-error estimate {phase_err:.3g} exceeds 10 tol = {10.0 * tol:.3g} "
                f"on panels of width {width:.3g} (q too small for its rate of change)"
            )

        coef = best @ _TO_COEF.T  # y on each panel, T_0..T_n
        big_y = half[:, None] * (coef @ _ANTIDERIV.T)  # integral of y from the panel start
        # (u, u') at each panel start, and the weights of u1, u2 there, in
        # Python complexes: y at each panel's ends and log u1 at its end
        # (T_i(1) = 1), each read from numpy once
        alpha, beta = [], []
        u, du = complex(prob.u0), complex(prob.du0)
        for ya, yb, log_grow in zip(best[:, 0].tolist(), best[:, -1].tolist(), big_y.sum(axis=1).tolist()):
            gap = ya - ya.conjugate()
            a = (du - ya.conjugate() * u) / gap
            b = (ya * u - du) / gap
            alpha.append(a)
            beta.append(b)
            grow = cmath.exp(log_grow)
            u = a * grow + b * grow.conjugate()
            du = a * yb * grow + b * yb.conjugate() * grow.conjugate()
        alpha, beta = np.array(alpha), np.array(beta)

        r = np.array(wanted)
        panel = np.clip(((r - prob.r0) / span * n).astype(int), 0, n - 1)
        t = np.clip((r - mid[panel]) / half[panel], -1.0, 1.0)
        cheb = np.cos(np.outer(np.arccos(t), np.arange(_CHEB_DEGREE + 2)))
        grow = np.exp(np.sum(big_y[panel] * cheb, axis=1))
        y_at = np.sum(coef[panel] * cheb[:, :-1], axis=1)
        u1, u2 = alpha[panel] * grow, beta[panel] * np.conj(grow)
    return OdeSolution(r, u1 + u2, u1 * y_at + u2 * np.conj(y_at), n, 0, width)


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


def _short(location: Any) -> str:
    """A singular point for a message: 'infinity', or its value to 6
    significant digits, also where it is beyond double range."""
    if isinstance(location, str):
        return location
    if location == 0 or 1e-300 < abs(location) < 1e300:
        return f"{float(location):.6g}"
    exp = math.floor(math.log10(abs(location.numerator)) - math.log10(location.denominator))
    return f"{float(location / Fraction(10) ** exp):.6g}e{exp:+d}"


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
                f"the indicial exponents at x = {_short(location)} are beyond double range"
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
