"""Complex-parameter special functions used throughout the package.

This module is the double-precision numeric substrate: complex log-Gamma,
asymptotic Gamma ratios, the Gauss hypergeometric function, and
Bessel/Hankel functions of half-integer order p = +/-(j + 1/2), the only
orders the flat-space limit and the small-curvature expansion produce.
Everything here is pure, deterministic and double precision (numpy only
for the batched panel solves, Python integers for the fixed-point series);
the extended-precision counterparts used to certify these routines live in
:mod:`dswave.bigfloat`, the only module with big-float arithmetic, which
this module does not import.

hyp2f1 takes one of four routes, chosen from its arguments and from what
the float series measures:

* direct: the Gauss series at z, summed in doubles;
* connection: for real z above 1/2 (and c-a-b not an
  integer), the z -> 1-z formula DLMF 15.8.4 with two series at 1-z;
* fixed point: whenever one of those series measures a ratio above
  _CANCEL_RETRY between its largest term and its sum, the same series is
  summed again in Python-integer fixed point, _GUARD_BITS (64) bits above
  the bits it lost, from the exact binary values of a, b, c and z (the
  precision raising of Johansson [3]).  Up to _FIXED_LIMIT (2^48) the loss
  is the float series' own reading.  Beyond it, where that reading is
  rounding noise, the loss is taken as log2 of the peak term plus
  _SMALL_SUM_BITS (the peak from a log-space sum of the term ratios where
  the float terms overflow), and the pass runs only within a budget of
  terms x bits (hyp2f1 states the rule).  A pass that measures more loss
  than its precision covers is repeated above the measured loss;
* continuation: where the fixed-point passes are over budget, or cannot
  succeed at any precision, F is carried to the series argument along the
  hypergeometric ODE, from a point on the ray where the series is still
  benign, by Chebyshev-panel collocation [4] with batched solves over
  planned panels.  Where it refuses, fixed-point passes run up to a
  larger budget.

Accuracy contract: log_gamma within 1e-13 max(1, |log Gamma(z)|) over
|z| <= 1e7 (away from poles), modulo 2 pi i (see its branch note), so
relative where |log Gamma| >= 1 and absolute near its zeros z = 1 and z = 2;
series summation to a fixed relative tolerance of 1e-15 (_REL_TOL) within
a budget of 10 000 terms (_MAX_TERMS), up to _CANCEL_RETRY of cancellation;
the fixed-point series to the rounding of its result to double plus
~2^-64 times its term count, relative (2e-15 on the tested grids); the
continuation with an estimated rounding amplification of at most
_AMPLIFY_LIMIT and a walk of at most _MAX_TERMS panels, halves included
(NonConvergence beyond either); and J_p for half-integer p by
one of two routes: the ascending series for x <= max(8, |p| + 2), exact
trigonometric seeds plus order recurrence beyond it (any other order raises
ValueError).

References
----------
.. [1] M. Abramowitz, I. A. Stegun, "Handbook of Mathematical Functions",
       chapters 6, 9, 15.
.. [2] NIST Digital Library of Mathematical Functions, https://dlmf.nist.gov/,
       sections 5.11 (Stirling), 10.49 (half-integer Bessel functions),
       15.8 (hypergeometric connection formulas).
.. [3] F. Johansson, "Computing hypergeometric functions rigorously",
       ACM Trans. Math. Softw. 45 (2019), arXiv:1606.06977.
.. [4] L. Greengard, "Spectral integration and two-point boundary value
       problems", SIAM J. Numer. Anal. 28 (1991).
"""
from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "PoleError",
    "NonConvergence",
    "log_gamma",
    "log_gamma_diff",
    "gamma_ratio_asymptotic",
    "connection_gammas",
    "hyp2f1",
    "bessel_j",
    "hankel1",
]

_LN_2PI = math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)

# Bernoulli-number coefficients B_{2n} / (2n (2n-1)) for the Stirling series.
_STIRLING_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
    -174611.0 / 125400.0,
)

# Monomial coefficients (highest degree first) of the Bernoulli polynomials
# B_2 .. B_7, used by log_gamma_diff.
_BERNOULLI_POLY = {
    2: (1.0, -1.0, 1.0 / 6.0),
    3: (1.0, -1.5, 0.5, 0.0),
    4: (1.0, -2.0, 1.0, 0.0, -1.0 / 30.0),
    5: (1.0, -2.5, 5.0 / 3.0, 0.0, -1.0 / 6.0, 0.0),
    6: (1.0, -3.0, 2.5, 0.0, -0.5, 0.0, 1.0 / 42.0),
    7: (1.0, -3.5, 3.5, 0.0, -7.0 / 6.0, 0.0, 1.0 / 6.0, 0.0),
}


class PoleError(ValueError):
    """A Gamma-function argument (or hypergeometric c) sits on a pole."""


class NonConvergence(RuntimeError):
    """A series or continuation failed to converge within its term budget."""


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _log_sin_pi(z: complex) -> complex:
    """log(sin(pi z)) computed without overflow for large |Im z|.

    The branch is whatever the principal logarithms of the factorized form
    produce; exp of the result always equals sin(pi z).
    """
    if abs(z.imag) < 20.0:
        return cmath.log(cmath.sin(cmath.pi * z))
    # sin(pi z) = e^{-i pi z} (1 - e^{+2 i pi z}) / (-2i)   for Im z > 0,
    #           = e^{+i pi z} (1 - e^{-2 i pi z}) / (+2i)   for Im z < 0,
    # keeping the exponentially dominant factor in front.
    if z.imag > 0.0:
        w = -1j * cmath.pi * z
        q = cmath.exp(2j * cmath.pi * z)
        den = cmath.log(-2j)
    else:
        w = 1j * cmath.pi * z
        q = cmath.exp(-2j * cmath.pi * z)
        den = cmath.log(2j)
    # |q| <= e^(-40 pi) here, so a two-term log(1-q) is exact to double precision
    lp = -q - 0.5 * q * q if abs(q) < 1e-6 else cmath.log(1.0 - q)
    return w + lp - den


def log_gamma(z: complex) -> complex:
    """Logarithm of the Gamma function for complex argument.

    Stirling's series with Bernoulli coefficients after an upward recurrence
    shift to Re z >= 10; the reflection formula handles Re z < 1/2.  The
    branch is fixed by exp(log_gamma(z)) == Gamma(z) together with reality on
    the positive real axis; continuity of the imaginary part across the
    negative real axis is not guaranteed.

    Parameters
    ----------
    z : complex
        Argument; must not be a non-positive integer.

    Raises
    ------
    PoleError
        If z is exactly a non-positive integer.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at z={z}")
    if z.real < 0.5:
        # Reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z).
        return _LN_PI - _log_sin_pi(z) - log_gamma(1.0 - z)
    w = z
    acc = 0.0 + 0.0j
    while w.real < 10.0:
        acc += cmath.log(w)
        w += 1.0
    lw = cmath.log(w)
    s = (w - 0.5) * lw - w + 0.5 * _LN_2PI
    w2 = w * w
    t = w
    for c in _STIRLING_COEF:
        s += c / t
        t *= w2
    return s - acc


def _bernoulli_poly(k: int, x: float) -> float:
    acc = 0.0
    for c in _BERNOULLI_POLY[k]:
        acc = acc * x + c
    return acc


def log_gamma_diff(z: complex, A: float, B: float) -> complex:
    """log Gamma(z+A) - log Gamma(z+B) without large-argument cancellation.

    For |z| >= 200 the difference is evaluated through its own asymptotic
    series (Bernoulli polynomials), which avoids the catastrophic loss of
    significance that subtracting two O(|z| log|z|) logarithms would incur;
    below that, plain log_gamma differences are already accurate enough.

    The shifts A, B are assumed moderate (|A|, |B| <= ~5).
    """
    z = complex(z)
    if abs(z) < 200.0:
        return log_gamma(z + A) - log_gamma(z + B)
    lz = cmath.log(z)
    s = (A - B) * lz
    zn = z
    for n in range(1, 7):
        num = _bernoulli_poly(n + 1, A) - _bernoulli_poly(n + 1, B)
        term = num / (n * (n + 1))
        if n % 2 == 0:
            term = -term
        s += term / zn
        zn *= z
    return s


def gamma_ratio_asymptotic(z: complex, A: complex, B: complex, order: int = 1) -> complex:
    """Large-argument approximation of Gamma(z+A)/Gamma(z+B).

    Returns z**(A-B) for order 0 and z**(A-B) * (1 + (A-B)(A+B-1)/(2z)) for
    order 1.  The first correction carries the factor (A+B-1); with A+B=1 the
    order-1 result collapses to the leading power exactly.  No validity check
    is performed here — the caller guarantees |z| is large against |A|, |B|.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    z = complex(z)
    A = complex(A)
    B = complex(B)
    if A == B:
        return 1.0 + 0.0j
    base = z ** (A - B)
    if order == 0:
        return base
    return base * (1.0 + (A - B) * (A + B - 1.0) / (2.0 * z))


# When intermediate terms tower this far above the sum, the float series has
# lost more than ~3 digits to cancellation (large imaginary parameters make it
# violently oscillatory long before it converges), and the series is summed
# again in integer fixed point, or F is continued along its ODE.
_CANCEL_RETRY = 1e3
# Up to this cancellation the float series measures its loss, and the series
# is summed again in fixed point with _GUARD_BITS bits above it.  Beyond it
# the float sum is rounding noise: its reading stops near 2^52, while the
# fixed-point pass measures 53 to 733 bits on the wave-grid benchmark.  There
# the precision is set from the peak term instead, _SMALL_SUM_BITS above it
# for a sum below 1 (log2 |F| stays within +-17 on that grid).
_FIXED_LIMIT = 2.0**48
_GUARD_BITS = 64
_SMALL_SUM_BITS = 20
# Budgets of a fixed-point pass in term-bits, terms x (_GUARD_BITS + bits),
# as hyp2f1 states the rule: before the continuation, and where it refuses.
# A term-bit took ~0.02 us on a 2-core Intel Xeon VM, Python 3.11, so a pass
# within _PASS_BUDGET takes up to ~2 ms: the wave-grid benchmark's passes take
# at most 0.75 ms, and the continuations it keeps would need passes of 6.8 ms
# or more.  _RESCUE_BUDGET, ~350 ms, is about the longest walk the
# continuation accepts.
_PASS_BUDGET = 100_000
_RESCUE_BUDGET = 17_520_000
# Cancellation allowed in the series that start the continuation.
_CANCEL_START = 10.0
# A panel of the continuation's path spans at most this fraction of the
# distance to the nearest singular point (0 or 1) ...
_STEP_REACH = 0.5
# ... and at most this many radians of the local frequency sqrt|ab/(t(1-t))|.
_PANEL_PHASE = 5.0
# Chebyshev degree of a collocation panel, and the top two Chebyshev
# coefficients of F a panel may keep, in units of F's local amplitude.
_PANEL_DEGREE = 24
_PANEL_TAIL = 1e-14
# Panels per batched solve: its complex matrices stay under 128 kB.  Larger
# batches ran no faster and raised the peak memory.
_PANEL_BATCH = 2**17 // (16 * (_PANEL_DEGREE + 1) ** 2)
# The continuation refuses a path on which a partner solution outgrows F by
# more than this: its rounding error could then exceed ~1e-10 relative.
_AMPLIFY_LIMIT = 1e5
# Real z above this takes the z -> 1-z connection formula.
_CONNECTION_THRESHOLD = 0.5
# A series stops after two consecutive terms below this fraction of its sum ...
_REL_TOL = 1e-15
# ... and raises NonConvergence after this many terms (the fixed-point pass
# returns None instead); the continuation also caps its panels, halved ones
# included, at this count.
_MAX_TERMS = 10_000


def _series_sum(a: complex, b: complex, c: complex, z: complex) -> tuple[complex, float, float, int]:
    """Float Gauss series, its cancellation peak |term| / |sum|, the peak
    |term| and the number of terms summed.

    The cancellation is inf when a term or the sum overflows or the sum is
    zero, and the peak is inf when a term overflows; no OverflowError
    escapes.
    """
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    peak = 1.0
    small_streak = 0
    try:
        for n in range(_MAX_TERMS):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
            total += term
            mag = abs(term)
            if mag > peak:
                if mag == math.inf:
                    return total, math.inf, math.inf, n + 1
                peak = mag
            if term == 0.0:
                break
            if mag <= _REL_TOL * abs(total):
                small_streak += 1
                if small_streak >= 2:
                    break
            else:
                small_streak = 0
        else:
            raise NonConvergence(
                f"2F1 series: no convergence after {_MAX_TERMS} terms "
                f"(|z|={abs(z):.3g}, last |term|={abs(term):.3g})"
            )
        size = abs(total)
    except OverflowError:
        return total, math.inf, math.inf, n + 1
    if not 0.0 < size < math.inf:
        return total, math.inf, peak, n + 1
    return total, peak / size, peak, n + 1


def _log2_peak(a: complex, b: complex, c: complex, z: complex) -> tuple[float, int]:
    """log2 of the peak |term| of the Gauss series, from a running sum of
    log2 |term ratio| that cannot overflow, and the number of terms up to
    the first past the peak below _REL_TOL (_MAX_TERMS if none is, or if a
    ratio itself is beyond double range)."""
    log2 = math.log2
    az = abs(z)
    floor = log2(_REL_TOL)
    level = peak = 0.0
    for n in range(_MAX_TERMS):
        ratio = abs((a + n) * (b + n)) * az / (abs(c + n) * (n + 1.0))
        if ratio == 0.0:  # a terminating series
            return peak, n + 1
        if ratio == math.inf:
            break
        level += log2(ratio)
        if level > peak:
            peak = level
        elif level < floor:
            return peak, n + 1
    return peak, _MAX_TERMS


def _gauss_series(a: complex, b: complex, c: complex, z: complex) -> complex:
    """The Gauss series at z by the route _series_sum's reading selects: the
    float sum, fixed-point passes, or the continuation (see hyp2f1)."""
    total, cancel, peak, terms = _series_sum(a, b, c, z)
    if cancel <= _CANCEL_RETRY:
        return total
    if cancel <= _FIXED_LIMIT:
        # one bit more: the fixed-point pass measures |re| + |im|, within
        # sqrt(2) of |.|
        bits = 1 + math.ceil(math.log2(cancel))
    else:
        if peak == math.inf:
            log_peak, terms = _log2_peak(a, b, c, z)
        else:
            log_peak = math.log2(peak)
        bits = 1 + math.ceil(log_peak) + _SMALL_SUM_BITS
    value, bits = _fixed_point_passes(a, b, c, z, terms, bits, _PASS_BUDGET, cancel > _FIXED_LIMIT)
    if value is not None:
        return value
    try:
        return _ode_continuation(a, b, c, z, cancel)
    except NonConvergence:
        if bits is None:
            raise
        value, _ = _fixed_point_passes(a, b, c, z, terms, bits, _RESCUE_BUDGET, True)
        if value is None:
            raise
        return value


def _fixed_point_passes(
    a: complex, b: complex, c: complex, z: complex, terms: int, bits: int, budget: float, price_first: bool
) -> tuple[complex | None, int | None]:
    """Fixed-point passes of the Gauss series over `terms` terms, the first
    covering a loss of `bits` bits and each next one the loss its
    predecessor measured, while terms x (_GUARD_BITS + bits) stays within
    budget (the first pass unchecked unless price_first).  Returns (the
    value, bits), (None, the bits of the pass the budget stopped), or (None,
    None) where no precision can succeed."""
    priced = price_first
    while terms < _MAX_TERMS:
        if priced and terms * (_GUARD_BITS + bits) > budget:
            return None, bits
        value, lost = _fixed_point_sum(a, b, c, z, bits)
        if value is not None:
            return value, bits
        if lost == math.inf:
            break
        bits, priced = 1 + math.ceil(lost), True
    return None, None


def _fixed_point_sum(a: complex, b: complex, c: complex, z: complex, bits: int) -> tuple[complex | None, float]:
    """The Gauss series summed in integer fixed point, covering a loss of
    `bits` bits: (its value or None, the bits it measured lost).

    A value v is held as the integer v 2^prec.  The working precision is
    _GUARD_BITS above `bits`, and is raised until a, b, c and z, exact
    binary fractions, convert exactly.  The term ratio (a+n)(b+n) z /
    ((c+n)(n+1)) is kept as a numerator ABz + n Sz + n^2 z, with ABz = abz
    and Sz = (a+b)z rounded once, and a denominator c + n(c+1) + n^2, both
    updated by additions.  Once a term is past the peak and below 2^-24 of
    the sum, _float_tail sums the rest in doubles; where a tail term rises
    above that, as past a negative c, the fixed-point sum goes on from there.

    The value is None when the loss this pass measures, log2(peak / |sum|),
    exceeds what its precision covers (the caller may retry above the
    measured loss), and None with an infinite loss when the sum is zero or
    the series runs past _MAX_TERMS.  Otherwise each term carries a few
    units of 2^-prec times the peak, so the sum keeps ~2^-_GUARD_BITS times
    the term count, relative, before its rounding to double.
    """
    ratios = [x.as_integer_ratio() for x in (a.real, a.imag, b.real, b.imag, c.real, c.imag, z.real, z.imag)]
    prec = max(_GUARD_BITS + bits, max(den.bit_length() - 1 for _, den in ratios))
    ar, ai, br, bi, cr, ci, zr, zi = (num << (prec + 1 - den.bit_length()) for num, den in ratios)
    one = 1 << prec
    # ab z and (a+b) z, rounded to the working precision
    abr, abi = ar * br - ai * bi, ar * bi + ai * br
    half = one << prec >> 1
    nr = (abr * zr - abi * zi + half) >> 2 * prec
    ni = (abr * zi + abi * zr + half) >> 2 * prec
    sr, si = ar + br, ai + bi
    dnr = ((sr * zr - si * zi + (one >> 1)) >> prec) + zr  # N(n+1) - N(n) = Sz + (2n+1) z
    dni = ((sr * zi + si * zr + (one >> 1)) >> prec) + zi
    zr2, zi2 = 2 * zr, 2 * zi
    dr, di = cr, ci  # D(n) = (c+n)(n+1); D(n+1) - D(n) = c + 2n + 2
    ddr, two = cr + 2 * one, 2 * one
    tr, ti = one, 0
    fr, fi = one, 0
    peak = one
    tail, resume = 0.0, 0
    for n in range(_MAX_TERMS):
        pr, pi = tr * nr - ti * ni, tr * ni + ti * nr
        if di == 0:
            tr, ti = pr // dr, pi // dr
        else:
            den = dr * dr + di * di
            tr, ti = (pr * dr + pi * di) // den, (pi * dr - pr * di) // den
        fr += tr
        fi += ti
        mag = abs(tr) + abs(ti)
        if mag == 0:
            break
        if mag > peak:
            peak = mag
        elif n >= resume and mag << 24 < abs(fr) + abs(fi):
            rest, resume = _float_tail(a, b, c, z, n + 1, _to_double(tr, ti, one), _to_double(fr, fi, one))
            if rest is not None:
                tail = rest
                break
        nr += dnr
        ni += dni
        dnr += zr2
        dni += zi2
        dr += ddr
        di += ci
        ddr += two
    else:
        return None, math.inf
    size = abs(fr) + abs(fi)
    if size == 0:
        return None, math.inf
    lost = math.log2(peak) - math.log2(size)
    if lost > prec - _GUARD_BITS:
        return None, lost
    return _to_double(fr, fi, one) + tail, lost


def _to_double(re: int, im: int, one: int) -> complex:
    """The fixed-point value (re + i im) / one as a complex double;
    NonConvergence where it is beyond double range."""
    try:
        return complex(re / one, im / one)
    except OverflowError:
        raise NonConvergence("2F1 series: its sum is beyond double range") from None


def _float_tail(a: complex, b: complex, c: complex, z: complex, n: int, term: complex, total: complex):
    """(sum of the Gauss series terms after term n, the index it stopped
    at), summed in doubles from term n until two terms fall below _REL_TOL
    |total|; the sum is None when a term rises above 2^-24 of total or the
    series runs past _MAX_TERMS."""
    limit = 2.0**-24 * (abs(total.real) + abs(total.imag))
    small = _REL_TOL * abs(total)
    tail = 0.0
    small_streak = 0
    for n in range(n, _MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        tail += term
        mag = abs(term)
        if mag > limit:
            return None, n
        if mag <= small:
            small_streak += 1
            if small_streak >= 2:
                return tail, n
        else:
            small_streak = 0
    return None, _MAX_TERMS


def _chebyshev_panel(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degree-n collocation tools on x in [-1, 1].

    Returns x_k + 1 at the nodes x_k = -cos(pi k / n) (ascending); the nodal
    integration matrices J and J^2 from x = -1, stacked per node row as an
    (n+1, 2, n+1) array; and the four rows that read, from values s at the
    nodes, the top two Chebyshev coefficients of J^2 s, (J^2 s)(1) and
    (J s)(1), as a (4, n+1) array.
    """
    theta = math.pi * np.arange(n, -1, -1) / n
    cheb = np.cos(np.outer(theta, np.arange(n + 2)))  # T_j(x_k), j = 0 .. n+1
    # the inverse of T_j(x_k): the discrete cosine sum with halved end terms
    half = np.ones(n + 1)
    half[0] = half[n] = 0.5
    to_coef = (2.0 / n) * half[:, None] * cheb[:, :-1].T * half
    # int_-1^x T_j = T_(j+1)/(2(j+1)) - T_|j-1|/(2(j-1)), the second term absent
    # for j = 1, each less its value at -1, where T_i(-1) = (-1)^i = cheb[0, i]
    anti = (cheb[:, 1:] - cheb[0, 1:]) / (2.0 * np.arange(1, n + 2))
    anti[:, 0] += 0.5 * (cheb[:, 1] - cheb[0, 1])  # j = 0: T_1 / 2 + T_1 / 2
    anti[:, 2:] -= (cheb[:, 1:n] - cheb[0, 1:n]) / (2.0 * np.arange(1, n))
    integ = anti @ to_coef
    integ2 = integ @ integ
    probe = np.concatenate((to_coef[-2:] @ integ2, integ2[-1:], integ[-1:]))
    stacked = np.empty((n + 1, 2, n + 1), dtype=complex)
    stacked[:, 0], stacked[:, 1] = integ, integ2
    # complex, as the panel arrays they multiply: one matmul loop serves both
    return cheb[:, 1] + 1.0, stacked, probe.astype(complex)


_NODES1, _INTEG, _PROBE = _chebyshev_panel(_PANEL_DEGREE)


def _plan_panels(ab: complex, z: complex, start: float) -> list[float]:
    """Panel ends, as |t|, from start to |z| along the ray t = |t| z/|z|: each
    panel spans at most _STEP_REACH of the distance from its start to 0 and 1
    and _PANEL_PHASE radians of sqrt|ab/(t(1-t))| there.  A longer plan than
    _MAX_TERMS panels stops at _MAX_TERMS + 1, which the walk refuses."""
    length = abs(z)
    ur, ui = z.real / length, z.imag / length
    mag, reach, phase, last = abs(ab), _STEP_REACH, _PANEL_PHASE, _MAX_TERMS + 1
    hypot, sqrt = math.hypot, math.sqrt
    ends = [start]
    pos = start
    while pos < length and len(ends) <= last:
        to_one = hypot(1.0 - ur * pos, ui * pos)
        span = reach * (pos if pos < to_one else to_one)
        cap = phase * sqrt(pos * to_one / mag)
        pos += cap if cap < span else span
        ends.append(pos if pos < length else length)
    return ends


def _ode_continuation(a: complex, b: complex, c: complex, z: complex, cancel: float) -> complex:
    """F(a, b; c; z) along z(1-z)F'' + [c-(a+b+1)z]F' - abF = 0: one plan of
    Chebyshev panels [4] and one walk over them.

    Start.  The float series at z lost log10(cancel) digits, and that loss
    grows with |z|.  The start z0 = q z on the ray to z is shrunk by the
    measured loss until the series for F and F' = (ab/c) F(a+1, b+1; c+1; z0)
    cancel by at most _CANCEL_START; a series over the term budget counts as
    infinite cancellation.  It is not a fixed small multiple of 1/|ab|: with
    c < 0 the partner solution z^(1-c) amplifies the start-up rounding by up
    to (z/z0)^(1-c), so the start is kept as far out as the cancellation
    allows.

    Plan.  _plan_panels cuts the path into panels of _PANEL_PHASE radians of
    the local frequency sqrt|ab/(t(1-t))|, the geometric mean of the ODE's
    two local rates (the fast rate |c-(a+b+1)t|/|t(1-t)| would make the
    large-|c| connection sub-series take thousands of panels).

    Walk.  At every end the walk checks G(s) = F(s z/|z|) and G' for
    overflow and rounding amplification, then applies the next panel's 2x2
    transfer, kept in memo.  The run of unsolved panels from the one asked
    for is solved in one _solve_panels call: the plan, then halves.  A panel
    whose top two Chebyshev coefficients of F exceed _PANEL_TAIL of F's
    local amplitude is halved, with its memo slot; planned panels and halves
    count against _MAX_TERMS.

    Error budget.  Rounding is amplified by the growth of a partner solution
    against F.  The Wronskian W = t^(-c) (1-t)^(c-a-b-1) (up to a constant)
    measures that growth without computing a partner: |partner| / |F| is
    about |W| / (A^2 freq), with A = sqrt(|F|^2 + |F'/freq|^2) the local
    amplitude of F.  When it grows by more than _AMPLIFY_LIMIT over its
    smallest value on the path so far, the continuation raises
    NonConvergence instead of returning a value it cannot vouch for.

    Greengard, SIAM J. Numer. Anal. 28 (1991) (spectral integration);
    Michel & Stoitsov, arXiv:0708.0116.
    """
    q = 1.0
    while True:
        lost = math.log10(cancel) if cancel < math.inf else 308.0
        q *= min(0.5, 1.0 / lost)
        try:
            f, cancel, _, _ = _series_sum(a, b, c, q * z)
            df, cancel_df, _, _ = _series_sum(a + 1.0, b + 1.0, c + 1.0, q * z)
            cancel = max(cancel, cancel_df)
        except NonConvergence:  # a series over the term budget: start further in
            cancel = math.inf
        if cancel <= _CANCEL_START:
            break
    ab = a * b
    length = abs(z)
    unit = z / length
    ends = _plan_panels(ab, z, q * length)
    g, dg = f, unit * (df * (ab / c))  # (G, G'), G' = unit F'
    wronskian_exp = c - (a + b) - 1.0  # W ~ t^(-c) (1-t)^(c-a-b-1)
    sqrt, hypot, log, clog, inf = math.sqrt, math.hypot, math.log, cmath.log, math.inf
    log_limit = log(_AMPLIFY_LIMIT)
    growth_min = inf
    memo = [None] * (len(ends) - 1)  # each panel's transfer, once solved
    i = 0
    while True:
        pos = ends[i]
        if not abs(g) + abs(dg) < inf:
            raise NonConvergence(f"2F1 continuation overflowed at |t|={ends[i - 1]:.3g}")
        t = unit * pos
        freq = sqrt(abs(ab / (t * (1.0 - t))))
        amp = hypot(abs(g), abs(dg) / freq)
        # log |W| / (A^2 freq): the partner's size against F, up to a constant,
        # in plain floats: they leave the peak memory ~0.3 MB below numpy's
        growth = (wronskian_exp * clog(1.0 - t) - c * clog(t)).real - 2.0 * log(amp) - log(freq)
        if growth < growth_min:
            growth_min = growth
        elif growth - growth_min > log_limit:
            raise NonConvergence(
                f"2F1 continuation: rounding error outgrew its budget by |t|={pos:.3g} "
                f"(a partner solution outgrows F; ill-conditioned parameters)"
            )
        if i + 1 == len(ends):
            return g
        if len(ends) > _MAX_TERMS + 1:
            raise NonConvergence(
                f"2F1 continuation: more than {_MAX_TERMS} panels needed to reach |z|={length:.3g}"
            )
        if memo[i] is None:  # solve the run of unsolved panels from here
            j = i + 1
            while j < len(memo) and memo[j] is None:
                j += 1
            memo[i:j] = _solve_panels(a, b, c, unit, np.array(ends[i : j + 1])).tolist()
        (c1, c2), (d1, d2), (u1, u2), (v1, v2) = memo[i]
        bound = _PANEL_TAIL * amp
        if abs(c1 * g + c2 * dg) <= bound and abs(d1 * g + d2 * dg) <= bound:
            g, dg = u1 * g + u2 * dg, v1 * g + v2 * dg
            i += 1
        else:
            ends.insert(i + 1, 0.5 * (pos + ends[i + 1]))
            memo[i : i + 1] = [None, None]


def _solve_panels(
    a: complex, b: complex, c: complex, unit: complex, ends: np.ndarray
) -> np.ndarray:
    """Per panel between consecutive ends, for the solutions with (G, G') =
    (1, 0) and (0, 1) at its start: the top two Chebyshev coefficients of G,
    G at its end and G' at its end, as a (panels, 4, 2) array.

    G(s) = F(s unit) solves G'' + p G' + q G = 0 with p = unit (c - (a+b+1)t)
    / (t(1-t)) and q = -unit^2 ab / (t(1-t)), t = s unit.  On a panel of half
    width h, x in [-1, 1], the unknowns are sigma = h^2 G'' at the nodes: with
    J the nodal integration matrix from x = -1, h G' = h G'_0 + J sigma and
    G = G_0 + h G'_0 (x+1) + J^2 sigma, so collocation solves
    (I + hp J + h^2 q J^2) sigma = -hp h G'_0 - h^2 q (G_0 + h G'_0 (x+1)),
    one batched solve per _PANEL_BATCH panels.
    """
    starts, ends = ends[:-1], ends[1:]
    out = []
    for k in range(0, len(starts), _PANEL_BATCH):
        s0, s1 = starts[k : k + _PANEL_BATCH], ends[k : k + _PANEL_BATCH]
        h = 0.5 * (s1 - s0)
        t = unit * (s0[:, None] + h[:, None] * _NODES1)
        a0 = t * (1.0 - t)
        hp_hq = np.empty(t.shape + (1, 2), dtype=complex)  # hp and h^2 q per node
        hp_hq[..., 0, 0] = h[:, None] * (unit * c - unit * (a + b + 1.0) * t) / a0
        hp_hq[..., 0, 1] = (h * h)[:, None] * (-unit * unit * a * b) / a0
        mat = (hp_hq @ _INTEG).reshape(len(h), -1)
        mat[:, :: _PANEL_DEGREE + 2] += 1.0  # + I, in place
        mat = mat.reshape(t.shape + t.shape[-1:])
        rhs = np.empty(t.shape + (2,), dtype=complex)
        rhs[..., 0] = -hp_hq[..., 0, 1]
        rhs[..., 1] = -hp_hq[..., 0, 0] - hp_hq[..., 0, 1] * _NODES1
        rows = _PROBE @ np.linalg.solve(mat, rhs)
        rows[:, 2:] += [[1.0, 2.0], [0.0, 1.0]]  # G_0 + h G'_0 (x+1) and h G'_0 at x = 1
        # so far column 1 has h G'_0 = 1 and row 3 holds h G': the solution
        # with G'_0 = 1 is h times column 1, and G' is row 3 over h
        rows[:, :3, 1] *= h[:, None]
        rows[:, 3, 0] /= h
        out.append(rows)
    return np.concatenate(out)


def connection_gammas(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """G(c) G(c-a-b) / (G(c-a) G(c-b)) and G(c) G(a+b-c) / (G(a) G(b)),
    the z -> 1-z connection coefficients (DLMF 15.8.4) of hyp2f1 and
    waves.connect, as exp of log_gamma sums, with a+b-c taken as -(c-a-b).
    Their relative error is the rounding of those sums, ~|sum| * 2^-52:
    ~2e-12 at |Im a|, |Im b| ~ 1e3.
    """
    s = c - a - b
    lg_c = log_gamma(c)
    g1 = cmath.exp(lg_c + log_gamma(s) - log_gamma(c - a) - log_gamma(c - b))
    g2 = cmath.exp(lg_c + log_gamma(-s) - log_gamma(a) - log_gamma(b))
    return g1, g2


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric function F(a, b; c; z) on |z| < 1.

    Routes, all returning doubles:

    * direct: the power series at z.
    * connection: for real z above 1/2 (_CONNECTION_THRESHOLD) the z -> 1-z
      formula (DLMF 15.8.4) with the coefficients of connection_gammas,
      which keeps the series arguments small near z = 1.  It requires c-a-b
      to be non-integer; when it is an integer the direct series is
      attempted anyway (it converges, slowly, for |z| < 1).
    * fixed point: a series of either route (the direct one, or one of the
      two connection series) whose largest term exceeds its sum by more than
      1e3 (_CANCEL_RETRY) is summed again in Python-integer fixed point, 64
      bits (_GUARD_BITS) above the bits it lost, from the exact binary
      values of its arguments; the tail past 2^-24 of the sum is summed in
      doubles.  Up to 2^48 (_FIXED_LIMIT) the lost bits are the float
      series' reading, and the first pass always runs.  Beyond it they are
      log2 of the peak term plus 20 (_SMALL_SUM_BITS, for |F| down to
      2^-20).  A pass that measures more loss than its precision covers is
      repeated above the measured loss.  The budget rule: a pass costs
      terms x (64 + bits) term-bits, and every pass beyond 2^48, and every
      repeat, runs only where that is at most 100 000 (_PASS_BUDGET, ~2 ms);
      otherwise the continuation runs.  The relative error is the rounding
      to double plus ~2^-64 per term.  Large |Im a|, |Im b|, as in the wave
      families up to epsilon of a few hundred and the small-curvature
      expansion's tiny z, take this route.
    * continuation: a series that the fixed-point passes cannot sum within
      _PASS_BUDGET, or at all (beyond 10 000 terms), is replaced by a
      continuation along z(1-z)F'' + [c-(a+b+1)z]F' - abF = 0.
      It starts from a point on the ray to its argument where the series
      cancels by at most 10 (_CANCEL_START), plans panels of 5 radians of
      the local frequency up to the argument and walks them by Chebyshev
      collocation of degree 24, solved in batches, halving a panel whose
      top Chebyshev coefficients exceed 1e-14 (_PANEL_TAIL) of F's local
      amplitude.  Large |Im a|, |Im b| at large epsilon take this route at
      interior z.  Where it refuses, fixed-point passes run again, each
      within 17 520 000 term-bits (_RESCUE_BUDGET, ~350 ms).

    The route follows from the arguments, from the cancellation and peak
    term the float series measures and from the pass budget; there is no
    setting that selects it.  Every series stops at a fixed relative
    tolerance of 1e-15 (_REL_TOL) and may sum at most 10 000 terms
    (_MAX_TERMS); the continuation's walk carries at most as many panels,
    halved ones included.

    Raises
    ------
    PoleError
        If c is a non-positive integer.
    NonConvergence
        If a float series does not meet the 1e-15 tolerance within 10 000
        terms, or the continuation needs more than 10 000 panels (a longer
        plan is refused before any panel is solved) or estimates its
        rounding amplification above 1e5 (_AMPLIFY_LIMIT), and no
        fixed-point pass within _RESCUE_BUDGET succeeds.
    ValueError
        For |z| >= 1 (analytic continuation beyond the unit disc is not
        provided).
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    z = complex(z)
    if _is_nonpositive_integer(c):
        raise PoleError(f"hyp2f1: c={c} is a non-positive integer")
    if z == 0.0:
        return 1.0 + 0.0j
    s = c - a - b
    use_connection = (
        z.imag == 0.0
        and _CONNECTION_THRESHOLD < z.real < 1.0
        and not (s.imag == 0.0 and s.real == math.floor(s.real))
    )
    if use_connection:
        w = 1.0 - z.real
        f1 = _gauss_series(a, b, 1.0 - s, w)
        f2 = _gauss_series(c - a, c - b, 1.0 + s, w)
        g1, g2 = connection_gammas(a, b, c)
        return g1 * f1 + g2 * (w ** s) * f2
    if abs(z) < 1.0:
        return _gauss_series(a, b, c, z)
    raise ValueError(f"hyp2f1: |z| >= 1 not supported (z={z})")


# --- Bessel functions -------------------------------------------------------

_SERIES_X_MAX = 8.0
# Term budget of the power series used for x <= _SERIES_X_MAX.
_SERIES_TERMS = 200


def _bessel_series(p: float, x: float) -> float:
    # (x/2)^p / Gamma(p+1) * sum_n (-x^2/4)^n / (n! (p+1)_n)
    lead = math.exp(p * math.log(0.5 * x) - log_gamma(complex(p + 1.0)).real)
    if p + 1.0 < 0.0 and math.floor(p + 1.0) % 2 != 0:
        # Gamma is negative on alternating intervals of the negative axis.
        lead = -lead
    q = -0.25 * x * x
    term = 1.0
    total = 1.0
    for n in range(_SERIES_TERMS):
        term *= q / ((n + 1.0) * (p + 1.0 + n))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
    return lead * total


def _bessel_half_seed(x: float) -> tuple[float, float]:
    f = math.sqrt(2.0 / (math.pi * x))
    return f * math.sin(x), f * math.cos(x)  # J_{1/2}, J_{-1/2}


def _bessel_half_integer(p: float, x: float) -> float:
    jp, jm = _bessel_half_seed(x)  # J_{1/2}, J_{-1/2}
    if p == 0.5:
        return jp
    if p == -0.5:
        return jm
    if p > 0.0:
        # upward in order: J_{nu+1} = (2 nu / x) J_nu - J_{nu-1}
        prev, cur = jm, jp
        nu = 0.5
        while nu < p - 0.25:
            prev, cur = cur, (2.0 * nu / x) * cur - prev
            nu += 1.0
        return cur
    # downward: J_{nu-1} = (2 nu / x) J_nu - J_{nu+1}
    prev, cur = jp, jm
    nu = -0.5
    while nu > p + 0.25:
        prev, cur = cur, (2.0 * nu / x) * cur - prev
        nu -= 1.0
    return cur


def _is_half_integer(p: float) -> bool:
    # 2p is an odd integer; nan and inf fail the comparison
    return (2.0 * p) % 2.0 == 1.0


def bessel_j(p: float, x: float) -> float:
    """Bessel function of the first kind J_p(x) for half-integer p and x >= 0.

    The package needs only the orders p = +/-(j + 1/2), which take one of two
    routes: the ascending power series for x <= max(8, |p| + 2), and beyond
    that the exact trigonometric seeds J_{1/2}, J_{-1/2} carried to p by the
    order recurrence (upward for p > 0, downward for p < 0), which is stable
    there because x exceeds the order.

    Raises
    ------
    ValueError
        If p is not a half-integer, x < 0, or x = 0 with negative order.
    """
    if not _is_half_integer(p):
        raise ValueError(f"bessel_j: order p={p} is not a half-integer")
    if x < 0.0:
        raise ValueError("bessel_j requires x >= 0")
    if x == 0.0:
        if p > 0.0:
            return 0.0
        raise ValueError("bessel_j at x=0 diverges for negative order")
    if x <= _SERIES_X_MAX or x <= abs(p) + 2.0:
        return _bessel_series(p, x)
    return _bessel_half_integer(p, x)


def hankel1(p: float, x: float) -> complex:
    """Hankel function of the first kind H^(1)_p(x) for half-integer p, x > 0.

    H^(1)_p = i (e^{-i pi p} J_p - J_{-p}) / sin(pi p), where for half-integer
    p both sin(pi p) = (-1)^(p - 1/2) and e^{-i pi p} = -i (-1)^(p - 1/2) are
    exact; J_{+/-p} take the routes of bessel_j.  For p = 1/2 this reduces to
    -i sqrt(2/(pi x)) e^{ix}.

    Raises
    ------
    ValueError
        If p is not a half-integer or x <= 0.
    """
    if not _is_half_integer(p):
        raise ValueError(f"hankel1: order p={p} is not a half-integer")
    if x <= 0.0:
        raise ValueError("hankel1 requires x > 0")
    jp = bessel_j(p, x)
    jm = bessel_j(-p, x)
    s = -1.0 if int(p - 0.5) % 2 else 1.0
    phase = complex(0.0, -1.0) * s
    return 1j * (phase * jp - jm) / s
