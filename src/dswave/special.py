"""Complex-parameter special functions used throughout the package.

This module is the double-precision numeric substrate: complex log-Gamma
(math.lgamma on the positive real axis, else Stirling's series, shifted
upward only while |z| < 10 and summed to the terms |z| needs), asymptotic
Gamma ratios, the Gauss hypergeometric function, and
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
  integer), the z -> 1-z formula DLMF 15.8.4 with one series at 1-z where
  the second series is the conjugate of the first (both standing
  families): its term is then the conjugate of the first's times
  (1-z)^(c-a-b).  Where the two are no such pair (the running waves), the
  direct series at z is priced against them, in the term-bits of the
  fixed-point passes below (a float term priced at _FLOAT_TERM_BITS), and
  the cheaper side is summed (Johansson [3] chooses each route by its cost
  the same way); where both connection series settle in doubles, or where
  both sides would need the continuation, the two series at 1-z are
  summed;
* fixed point: whenever one of those series measures a ratio above
  _CANCEL_RETRY between its largest term and its sum, the same series is
  summed again in Python-integer fixed point, with the term ratio kept
  exact from the binary values of a, b, c and z, so that one floor per term
  is its only rounding (the precision raising of Johansson [3]).  One rule,
  stated in hyp2f1, sizes the first pass from the peak term, whatever the
  float series' cancellation, and prices every pass against a budget of
  terms x bits.  A pass that measures more loss than its precision covers
  is repeated above the measured loss;
* continuation: where a pass is over budget, or none can succeed at any
  precision, F is carried along the hypergeometric ODE from a point where
  the series is benign, by Chebyshev-panel collocation [4] with one batched
  solve per round of panels.  Where both connection series go there and
  the second one, Kummer's partner of the first, can start early enough on
  the path (|c-a-b|^2 < |ab|(1-z)), one walk carries both.  Where it
  refuses, the passes go on up to a larger budget, past the 10 000 terms
  of a first pass where that budget allows.

The float series keep the term ratios (a+n)(b+n)/((c+n)(n+1)) of the last
two parameter triples they were summed on (_ratio_slots), so that a grid of
z on one triple (a wave's radii, the expansion's ladder, the continuation's
start values) computes them once.  A triple's first series keeps none;
each later one reads the triple's immutable tuple of ratios and extends
it by those it computes past its end (so at most _MAX_TERMS).  A kept
ratio is the double the loop's own expression gives, and the loop
multiplies it into the term as before, so every term, sum, peak, stop and
returned double is the same bit for bit; a triple matches only bit for
bit, a zero's sign included.  A series on the triple and z of the
triple's last series, bit for bit, returns that series' result (a
connection residual sums one series twice).

Accuracy contract: log_gamma within 1e-13 max(1, |log Gamma(z)|) over
|z| <= 1e7 (away from poles), modulo 2 pi i (see its branch note), so
relative where |log Gamma| >= 1 and absolute near its zeros z = 1 and z = 2,
over Re z >= 1/2 up to |z| = 1e300, and on the positive real axis from 1/2
to 1e300 (+inf from ~2.55e305 on);
series summation to a fixed relative tolerance of 1e-15 (_REL_TOL) within
a budget of 10 000 terms (_MAX_TERMS), up to _CANCEL_RETRY of cancellation;
the fixed-point series to the rounding of its result to double plus
~2^-64 times its term count, relative (2e-15 on the tested grids), within
10 000 terms for a first pass and, for a rescue pass, within as many as
_RESCUE_BUDGET affords at its precision; the
continuation with an estimated rounding amplification of at most
_AMPLIFY_LIMIT and a walk of at most _MAX_TERMS panels, halves included
(NonConvergence beyond either); and, for |p| <= 20.5 and 1e-2 <= x <= 1e4,
J_p for half-integer p (any other order raises ValueError) within 1e-13
|H1_|p|(x)|, and H1_p within 1e-13 relative.

One measured exception to the series figures: both series stop after two
terms below 1e-15 of the sum, which leaves a tail of about
term/(1 - ratio) where the term ratio nears 1 at the stop.  At
(eps, m, j, r) = (111.8, 111.8/2.11, 19, 0.336), running wave "in"
(z = 1 - r^2 = 0.887), the fixed-point pass is 9.0e-15 off
bigfloat.extended_series at every precision from 30 to 400 bits.

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
import struct

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
# The first term the series leaves out bounds its error, times a sector
# factor below 2^11 where Re w >= 1/2 (DLMF 5.11.ii).  log_gamma shifts w to
# |w| >= 10, where all ten terms leave out |B_22|/(22*21*|w|^21) <= 1.3e-20;
# each term is summed only while it would leave out more than that, i.e.
# while |w|^2 is below (|coefficient|/1.3e-20)^(2/(2k+1)) for the term in
# w^-(2k+1): ten terms up to |w| = 11.3, four at |w| = 100, one from
# |w| = 5.9e5 and none from 6.2e18, so w^(2k+1) stays finite.  The limits
# fall with k, so the sum stops at the first term it does not need.
_STIRLING_OMITTED = 854513.0 / 138.0 / (22.0 * 21.0) / 10.0**21
_STIRLING_TERMS = tuple(
    (c, (abs(c) / _STIRLING_OMITTED) ** (2.0 / (2 * k + 1))) for k, c in enumerate(_STIRLING_COEF)
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

    The reflection formula handles Re z < 1/2.  On the positive real axis
    (Im z a zero of either sign, kept in the result) it is math.lgamma:
    exact zeros at 1 and 2, finite up to ~2.55e305 and +inf beyond.
    Elsewhere, Stirling's series with Bernoulli coefficients after an upward
    recurrence shift w = z + n, taken only while Re w < 10 and |w| < 10, so
    none where |Im z| >= 10.  Of its ten terms it sums only those |w| needs
    (_STIRLING_TERMS), so it stays finite and accurate up to |z| = 1e300.
    The branch is fixed by exp(log_gamma(z)) == Gamma(z) together with
    reality on the positive real axis; continuity of the imaginary part
    across the negative real axis is not guaranteed.

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
    if z.imag == 0.0:
        try:
            return complex(math.lgamma(z.real), z.imag)
        except OverflowError:
            return complex(math.inf, z.imag)
    w = z
    acc = 0.0 + 0.0j
    y2 = z.imag * z.imag
    while w.real < 10.0 and w.real * w.real + y2 < 100.0:
        acc += cmath.log(w)
        w += 1.0
    r2 = w.real * w.real + y2
    lw = cmath.log(w)
    s = (w - 0.5) * lw - w + 0.5 * _LN_2PI
    w2 = w * w
    t = w
    for c, r2_max in _STIRLING_TERMS:
        if r2 >= r2_max:
            break
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
# A fixed-point pass works at _GUARD_BITS bits above the loss it covers; the
# first covers the peak term plus _SMALL_SUM_BITS (the rule hyp2f1 states).
_GUARD_BITS = 64
_SMALL_SUM_BITS = 20
# Budgets of a fixed-point pass in term-bits, terms x (_GUARD_BITS + bits),
# as hyp2f1 states the rule: before the continuation, and where it refuses.
# With exact term ratios a term-bit takes ~7-15 ns up to ~1 000 bits and
# ~2.5-5 ns beyond ~1 500 bits (2-core Intel Xeon VM, Python 3.11), so a
# pass within _PASS_BUDGET takes up to ~1.3 ms.  The wave-grid benchmark's
# passes cost at most 38 000 term-bits, and the continuations it keeps would
# need passes of 337 000 or more (2.5-3.1 ms, against ~2.2 ms for the
# continuation).  _RESCUE_BUDGET, ~0.26-0.33 s, is about the longest walk
# the continuation accepts: the rescue passes at epsilon = 3000, j = 20,
# 5 999 terms x 3 447 bits and 6 264 x 3 508, took 58-93 ms, and the one at
# epsilon = 5000, r = 0.7, 10 320 terms x 5 714 bits, ~0.2 s.
_PASS_BUDGET = 100_000
_RESCUE_BUDGET = 120_000_000
# A float series term costs as much as this many term-bits of a pass, in
# hyp2f1's choice between the direct series and the connection pair: on the
# 387 float series and 165 passes of the benchmark's running waves (30-230
# terms, 30-160 bits), a float term took ~0.67 us and a term-bit 14-18 ns
# (2-core Intel Xeon VM, Python 3.11.7).
_FLOAT_TERM_BITS = 40
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
# Real z above this takes the z -> 1-z connection formula, or, where its two
# series are no conjugate pair, the cheaper of it and the direct series.
_CONNECTION_THRESHOLD = 0.5
# A series stops after two consecutive terms below this fraction of its sum ...
_REL_TOL = 1e-15
# ... and raises NonConvergence after this many terms (a first fixed-point
# pass returns None instead; a rescue pass may go as far as _RESCUE_BUDGET
# affords); the continuation also caps its panels, halved ones included, at
# this count.
_MAX_TERMS = 10_000
# While the peak term is below _RISING, the sum of at most _MAX_TERMS + 1
# terms no larger than it cannot overflow, nor can its abs, and a term above
# _SKIP times the peak is never within _REL_TOL of that sum, whatever its
# rounding (_SKIP is twice the bound): _series_sum skips its stopping test,
# abs(sum) included, on such a term.
_RISING = 1e300
_SKIP = 2.0 * _REL_TOL * (_MAX_TERMS + 1)

# The term ratios (a+n)(b+n)/((c+n)(n+1)) of the last two (a, b, c) a float
# series was summed on, newest first, as (a, b, c, ratios, z, result):
# ratios () after the triple's first series and, from its second on, the
# tuple of the ratios for n = 0 .. up to the longest series summed on it
# since (at most _MAX_TERMS); z and result are the triple's last series and
# what _series_sum returned for it.  The pair is replaced, never changed in
# place.
_NO_SLOT = (math.nan, math.nan, math.nan, (), math.nan, None)
_ratio_slots: tuple[tuple, tuple] = (_NO_SLOT, _NO_SLOT)


def _same_bits(xs: tuple, ys: tuple) -> bool:
    """Whether the complexes xs, equal in value to ys one by one, are them
    bit for bit.  Equal doubles differ in their bits only where they are
    zeros of opposite sign (a NaN equals nothing), and those are different
    keys: whether a + n keeps the sign of a zero depends on the
    interpreter's mixed complex arithmetic."""
    copysign = math.copysign
    for u, v in zip(xs, ys):
        if u is not v and (
            not u.real and copysign(1.0, u.real) != copysign(1.0, v.real)
            or not u.imag and copysign(1.0, u.imag) != copysign(1.0, v.imag)
        ):
            return False
    return True


def _kept_slot(a: complex, b: complex, c: complex, slots: tuple[tuple, tuple]) -> tuple[tuple | None, tuple]:
    """(the slot in `slots`, a _ratio_slots pair, whose triple is (a, b, c)
    bit for bit, the other slot), else (None, the newest slot).  The values
    find a slot, and a match needs its bits as well."""
    newest, older = slots
    if a == newest[0] and b == newest[1] and c == newest[2] and _same_bits((a, b, c), newest):
        return newest, older
    if a == older[0] and b == older[1] and c == older[2] and _same_bits((a, b, c), older):
        return older, newest
    return None, newest


def _series_sum(a: complex, b: complex, c: complex, z: complex) -> tuple[complex, float, float, int]:
    """Float Gauss series, its cancellation peak |term| / |sum|, the peak
    |term| and the number of terms summed.

    The cancellation is inf when a term or the sum overflows or the sum is
    zero, and the peak is inf when a term overflows; no OverflowError
    escapes.

    A term is term * (ratio * z), the ratio (a+n)(b+n)/((c+n)(n+1)) either
    computed in that expression or read from _ratio_slots, which holds the
    doubles the same expression gave for these bits of a, b and c: every
    term, the sum, the peak and the stop are the same bit for bit either
    way.  A triple's first series computes its ratios and keeps none; every
    later one reads those its predecessors kept and keeps those it computes
    past them.  A series on the triple and z of the last one on that triple,
    bit for bit, returns that one's result.
    """
    global _ratio_slots
    # one read of the pair: a concurrent call may replace it
    slot, other = _kept_slot(a, b, c, _ratio_slots)
    if slot is None:  # a first sighting
        kept, known, keep = (), 0, None
    elif z == slot[4] and _same_bits((z,), slot[4:]):
        return slot[5]
    else:
        kept, fresh = slot[3], []
        known, keep = len(kept), fresh.append
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    peak = 1.0
    skip = _SKIP
    small_streak = 0
    try:
        for n in range(_MAX_TERMS):
            if n < known:
                ratio = kept[n]
            else:
                ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0))
                if keep is not None:
                    keep(ratio)
            term *= ratio * z
            total += term
            mag = abs(term)
            if mag > skip:
                if mag <= peak:
                    small_streak = 0
                    continue
                if mag < _RISING:
                    peak = mag
                    skip = _SKIP * mag
                    small_streak = 0
                    continue
            if mag > peak:
                if mag == math.inf:
                    return total, math.inf, math.inf, n + 1
                peak = mag
                skip = math.inf
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
    if keep is not None and fresh:
        kept += tuple(fresh)
    if 0.0 < size < math.inf:
        result = total, peak / size, peak, n + 1
    else:
        result = total, math.inf, peak, n + 1
    _ratio_slots = ((a, b, c, kept, z, result), other)
    return result


def _log2_peak(a: complex, b: complex, c: complex, z: complex, limit: int | None = None) -> tuple[float, int]:
    """log2 of the peak |term| of the Gauss series, from a running sum of
    log2 |term ratio| that cannot overflow, and the number of terms up to
    the first past the peak below _REL_TOL (`limit`, by default _MAX_TERMS,
    if none is within it, or if a ratio itself is beyond double range)."""
    limit = _MAX_TERMS if limit is None else limit
    log2 = math.log2
    az = abs(z)
    floor = log2(_REL_TOL)
    level = peak = 0.0
    for n in range(limit):
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
    return peak, limit


def _gauss_series(
    a: complex, b: complex, c: complex, z: complex, reading: tuple | None = None
) -> complex:
    """The Gauss series at z by the route _series_sum's reading selects: the
    float sum, fixed-point passes, or the continuation (see hyp2f1).
    `reading`, where given, is the series' _read, which is not repeated."""
    value, walk = _summed(a, b, c, z) if reading is None else _passed(a, b, c, z, *reading)
    return value if walk is None else _continued(a, b, c, z, *walk)


def _summed(
    a: complex, b: complex, c: complex, z: complex, cancel_limit: float = _CANCEL_RETRY
) -> tuple[complex | None, tuple[float, float, int] | None]:
    """(F, None) from the float series where it cancels by at most
    `cancel_limit` (_CANCEL_START for the paired walk's partner start
    values), or from fixed-point passes within _PASS_BUDGET, else (None,
    walk): the series goes to the continuation, and walk = (cancel, bits,
    terms) is what _continued takes from it: _passed after _read."""
    return _passed(a, b, c, z, *_read(a, b, c, z, cancel_limit))


def _read(
    a: complex, b: complex, c: complex, z: complex, cancel_limit: float = _CANCEL_RETRY
) -> tuple[complex | None, tuple[float, int, int] | None]:
    """The float series at z, summed once: (F, None) where it cancels by at
    most `cancel_limit`, else (None, plan).  plan = (cancel, bits, terms)
    sets the first fixed-point pass: bits = _peak_bits of the peak term
    (from the log-space sum, and its term count, where the float terms
    overflow) over the float series' terms."""
    total, cancel, peak, terms = _series_sum(a, b, c, z)
    if cancel <= cancel_limit:
        return total, None
    if peak == math.inf:
        log_peak, terms = _log2_peak(a, b, c, z)
    else:
        log_peak = math.log2(peak)
    return None, (cancel, _peak_bits(log_peak), terms)


def _passed(
    a: complex, b: complex, c: complex, z: complex, value: complex | None, plan: tuple[float, int, int] | None
) -> tuple[complex | None, tuple[float, float, int] | None]:
    """_summed from a _read (value, plan): the value where the float sum
    settled the series, else one loop of fixed-point passes over `terms`
    terms, the first covering the plan's bits and each next one the loss
    its predecessor measured, each priced at terms x (_GUARD_BITS + bits)
    against _PASS_BUDGET; the first pass over it, or one no precision can
    make succeed, sends the series to the continuation."""
    if plan is None:
        return value, None
    cancel, bits, terms = plan
    value, bits = _passes(a, b, c, z, bits, terms, _PASS_BUDGET, _MAX_TERMS)
    return value, None if value is not None else (cancel, bits, terms)


def _price(plan: tuple[float, int, int] | None) -> float:
    """The term-bits a series still costs after its _read: none where the
    float sum settled it (plan None), else its first fixed-point pass's
    terms x (_GUARD_BITS + bits), inf at _MAX_TERMS terms, where no pass can
    run.  A series priced over _PASS_BUDGET walks (hyp2f1)."""
    if plan is None:
        return 0.0
    _, bits, terms = plan
    return terms * (_GUARD_BITS + bits) if terms < _MAX_TERMS else math.inf


def _float_terms(z: float) -> float:
    """About the terms a float Gauss series at real z in (0, 1) sums: its
    terms shrink like z^n once past their peak, and it stops below _REL_TOL
    of its sum."""
    return math.log(_REL_TOL) / math.log(z)


def _peak_bits(log_peak: float) -> int:
    """The loss the first fixed-point pass covers, for a peak term of
    2^log_peak: the rule hyp2f1 states."""
    return 1 + math.ceil(log_peak) + _SMALL_SUM_BITS


def _passes(
    a: complex, b: complex, c: complex, z: complex, bits: float, terms: int, budget: float, limit: int
) -> tuple[complex | None, float]:
    """Fixed-point passes of at most `limit` terms from `bits` up, each
    above the loss the one before measured, while a pass's price terms x
    (_GUARD_BITS + bits) fits `budget`: (the value or None, the bits of the
    pass that was not run).  A series of `limit` terms or more is one no
    precision can make succeed."""
    while terms < limit and terms * (_GUARD_BITS + bits) <= budget:
        value, lost = _fixed_point_sum(a, b, c, z, bits, limit)
        if value is not None:
            return value, bits
        bits = 1 + math.ceil(lost) if lost < math.inf else math.inf
    return None, bits


def _continued(
    a: complex, b: complex, c: complex, z: complex, cancel: float, bits: float, terms: int
) -> complex:
    """The continuation of a series _summed sent to it.  Where it refuses,
    the passes go on from the same bits within _RESCUE_BUDGET, each over as
    many terms as that budget affords at those bits, but no fewer than
    _MAX_TERMS (a series of _MAX_TERMS terms or more has them counted
    again up to that limit first); a pass over the budget, or one no
    precision can make succeed, re-raises the refusal."""
    try:
        return _ode_continuation(a, b, c, z, cancel)
    except NonConvergence:
        limit = max(_MAX_TERMS, int(_RESCUE_BUDGET // (_GUARD_BITS + bits)))
        if terms >= _MAX_TERMS:
            log_peak, terms = _log2_peak(a, b, c, z, limit)
            bits = max(bits, _peak_bits(log_peak))
        value, _ = _passes(a, b, c, z, bits, terms, _RESCUE_BUDGET, limit)
        if value is None:
            raise
        return value


def _fixed_point_sum(
    a: complex, b: complex, c: complex, z: complex, bits: int, limit: int | None = None
) -> tuple[complex | None, float]:
    """The Gauss series summed in integer fixed point, covering a loss of
    `bits` bits, over at most `limit` terms (by default _MAX_TERMS): (its
    value or None, the bits it measured lost).

    A value v is held as the integer v 2^prec, prec = _GUARD_BITS + bits.
    a, b, c and z are binary fractions x = X / 2^e_x, so the term ratio
    (a+n)(b+n) z / ((c+n)(n+1)) is exactly N(n) / (D(n) 2^shift), shift =
    e_a + e_b + e_z - e_c: N(n) = (A + n 2^e_a)(B + n 2^e_b) Z is a Gaussian
    integer (~170 bits for the wave families) and D(n) = (C + n 2^e_c)(n+1)
    a small one, real for real c, both updated by second differences.  A
    term t is then (t N >> shift) // D, for complex c (t N conj(D) >> shift)
    // |D|^2, with the divisor made positive: one floor per term, the only
    rounding of the pass.  Once a term is past the peak and below 2^-24 of
    the sum, _float_tail sums the rest in doubles; where a tail term rises
    above that, as past a negative c, the fixed-point sum goes on from there.

    The value is None when the loss this pass measures, log2(peak / |sum|),
    exceeds what its precision covers (the caller may retry above the
    measured loss), and None with an infinite loss when the sum is zero or
    the series runs past `limit`.  Otherwise each term carries a few
    units of 2^-prec times the peak, so the sum keeps ~2^-_GUARD_BITS times
    the term count, relative, before its rounding to double.
    """
    limit = _MAX_TERMS if limit is None else limit
    ar, ai, ua = _binary(a)
    br, bi, ub = _binary(b)
    cr, ci, uc = _binary(c)
    zr, zi, uz = _binary(z)
    # a negative shift goes into Z
    shift = (ua * ub * uz).bit_length() - uc.bit_length()
    if shift < 0:
        zr, zi, shift = zr << -shift, zi << -shift, 0
    # N(n) = AB Z + n (A ub + B ua) Z + n^2 ua ub Z
    abr, abi = ar * br - ai * bi, ar * bi + ai * br
    sr, si = ar * ub + br * ua + ua * ub, ai * ub + bi * ua
    nr, ni = abr * zr - abi * zi, abr * zi + abi * zr
    dnr, dni = sr * zr - si * zi, sr * zi + si * zr  # N(1) - N(0)
    ddnr, ddni = 2 * ua * ub * zr, 2 * ua * ub * zi
    dr, di = cr, ci  # D(n+1) - D(n) = C + 2 uc (n+1)
    ddr, two = cr + 2 * uc, 2 * uc
    one = 1 << (_GUARD_BITS + bits)
    tr, ti = one, 0
    fr, fi = one, 0
    peak = one
    tail, resume = 0.0, 0
    for n in range(limit):
        if di:
            mr, mi, den = nr * dr + ni * di, ni * dr - nr * di, dr * dr + di * di
        elif dr > 0:
            mr, mi, den = nr, ni, dr
        else:
            mr, mi, den = -nr, -ni, -dr
        tr, ti = (tr * mr - ti * mi >> shift) // den, (tr * mi + ti * mr >> shift) // den
        fr += tr
        fi += ti
        mag = abs(tr) + abs(ti)
        if mag == 0:
            break
        if mag > peak:
            peak = mag
        elif n >= resume and mag << 24 < abs(fr) + abs(fi):
            term, total = _to_double(tr, ti, one), _to_double(fr, fi, one)
            rest, resume = _float_tail(a, b, c, z, n + 1, term, total, limit)
            if rest is not None:
                tail = rest
                break
        nr += dnr
        ni += dni
        dnr += ddnr
        dni += ddni
        dr += ddr
        di += ci
        ddr += two
    else:
        return None, math.inf
    size = abs(fr) + abs(fi)
    if size == 0:
        return None, math.inf
    lost = math.log2(peak) - math.log2(size)
    if lost > bits:
        return None, lost
    return _to_double(fr, fi, one) + tail, lost


def _binary(x: complex) -> tuple[int, int, int]:
    """(re, im, den) with x = (re + i im) / den exactly, den a power of 2."""
    (p, q), (r, s) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    return (p * (s // q), r, s) if q < s else (p, r * (q // s), q)


def _to_double(re: int, im: int, one: int) -> complex:
    """The fixed-point value (re + i im) / one as a complex double;
    NonConvergence where it is beyond double range."""
    try:
        return complex(re / one, im / one)
    except OverflowError:
        raise NonConvergence("2F1 series: its sum is beyond double range") from None


def _float_tail(
    a: complex, b: complex, c: complex, z: complex, n: int, term: complex, total: complex, limit: int
):
    """(sum of the Gauss series terms after term n, the index it stopped
    at), summed in doubles from term n until two terms fall below _REL_TOL
    |total|; the sum is None when a term rises above 2^-24 of total or the
    series runs past `limit` terms.  The term ratios are _series_sum's: read
    from _ratio_slots as far as it keeps them, computed past that."""
    rise = 2.0**-24 * (abs(total.real) + abs(total.imag))
    small = _REL_TOL * abs(total)
    tail = 0.0
    small_streak = 0
    slot = _kept_slot(a, b, c, _ratio_slots)[0]
    ratios = () if slot is None else slot[3]
    known = len(ratios)
    for n in range(n, limit):
        term *= (ratios[n] if n < known else (a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
        tail += term
        mag = abs(term)
        if mag > rise:
            return None, n
        if mag <= small:
            small_streak += 1
            if small_streak >= 2:
                return tail, n
        else:
            small_streak = 0
    return None, limit


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
    Chebyshev panels [4] and one walk over them (_kummer_continuation walks
    the same way with a second solution).

    Start.  The float series at z lost log10(cancel) digits, and that loss
    grows with |z|.  The start z0 = q z on the ray to z is shrunk by the
    measured loss until the series for F and F' = (ab/c) F(a+1, b+1; c+1; z0)
    cancel by at most _CANCEL_START; a series over the term budget counts as
    infinite cancellation.  It is not a fixed small multiple of 1/|ab|: with
    c < 0 the partner solution z^(1-c) amplifies the start-up rounding by up
    to (z/z0)^(1-c), so the start is kept as far out as the cancellation
    allows.  A walk that also carries that partner (_kummer_continuation)
    starts it at its own such start, but no nearer 0 than |1-c|^2/|ab|:
    inside that point its log-derivative (1-c)/t outruns the local
    frequency sqrt|ab/t| that sizes the panels, and the panels would have to
    resolve it.

    Plan.  _plan_panels cuts the path into panels of _PANEL_PHASE radians of
    the local frequency sqrt|ab/(t(1-t))|, the geometric mean of the ODE's
    two local rates (the fast rate |c-(a+b+1)t|/|t(1-t)| would make the
    large-|c| connection sub-series take thousands of panels).

    Walk.  _walk carries one or two solutions of the equation, each from
    its own start, a panel end, through the same panel transfers.  It goes
    in rounds, each from one _solve_panels call: the plan, then the halves
    of the round before.  A round carries each solution's G(s) = F(s z/|z|)
    and G' through all its panels' 2x2 transfers from that solution's start,
    then reads as arrays its local amplitude, the rounding amplification
    (below) and its top two Chebyshev coefficients per panel.  Overflow or
    amplification refuse, for each solution from its own start, at the ends
    up to the first panel whose coefficients exceed _PANEL_TAIL of either
    solution's amplitude; the next round halves every panel where either
    solution's coefficients do (halves count against _MAX_TERMS, as planned
    panels do).

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
    ab = a * b
    length = abs(z)
    unit = z / length
    q, f, df = _start(a, b, c, z, cancel)
    ends = np.array(_plan_panels(ab, z, q * length))
    # (G, G'), G' = unit F'
    return _walk(a, b, c, unit, ends, [(ends[0], f, unit * (df * (ab / c)))])[0]


def _start(a: complex, b: complex, c: complex, z: complex, cancel: float) -> tuple[float, complex, complex]:
    """(q, F, F'/(ab/c)) at the continuation's start q z, the first point of
    the shrinking q = 1, q/log10(cancel), ... (each step at least halving)
    where the series of both cancel by at most _CANCEL_START."""
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
            return q, f, df


def _kummer_continuation(
    a: complex, b: complex, c: complex, z: complex, cancel: float,
    partner: tuple[complex, complex, complex], partner_cancel: float,
) -> tuple[complex, complex] | None:
    """F(a, b; c; z) and z^(1-c) F(a2, b2; c2; z), (a2, b2, c2) = partner =
    (a-c+1, b-c+1, 2-c), Kummer's two solutions at 0 of one equation (DLMF
    15.10.2), from one plan and one walk; None where the partner cannot
    start or the walk refuses.

    F starts where _ode_continuation would start it.  The partner starts at
    the larger of its own such start and |1-c|^2/|ab|: nearer 0 its
    log-derivative (1-c)/t outruns the local frequency sqrt|ab/t| that sizes
    the panels.  Its start values there come from the float series where
    they cancel by at most _CANCEL_START, else from fixed-point passes
    within _PASS_BUDGET.  One plan from the earlier start, with the later
    one as a panel end, and one walk carry both, each checked from its own
    start (see _ode_continuation).
    """
    ab = a * b
    length = abs(z)
    unit = z / length
    e = 1.0 - c
    a2, b2, c2 = partner
    q, f, df = _start(a, b, c, z, cancel)
    q2, f2, df2 = _start(a2, b2, c2, z, partner_cancel)
    at = max(q2 * length, abs(e) ** 2 / abs(ab))
    if at > q2 * length:
        try:
            f2 = _summed(a2, b2, c2, at * unit, _CANCEL_START)[0]
            df2 = _summed(a2 + 1.0, b2 + 1.0, c2 + 1.0, at * unit, _CANCEL_START)[0]
        except NonConvergence:
            return None
        if f2 is None or df2 is None:
            return None
    ends = np.unique(_plan_panels(ab, z, min(q * length, at)) + [max(q * length, at)])
    t0 = at * unit
    try:
        lead = cmath.exp(e * cmath.log(t0))
    except OverflowError:
        return None
    df2 = lead * (e / t0 * f2 + df2 * (a2 * b2 / c2))  # d/dt t^e F2
    if not (cmath.isfinite(lead * f2) and cmath.isfinite(df2)):
        return None
    starts = [(q * length, f, unit * (df * (ab / c))), (at, lead * f2, unit * df2)]
    try:
        return tuple(_walk(a, b, c, unit, ends, starts))
    except NonConvergence:
        return None


def _walk(
    a: complex, b: complex, c: complex, unit: complex, ends: np.ndarray,
    starts: list[tuple[float, complex, complex]],
) -> list[complex]:
    """G = F(s unit) at the last of `ends` for each solution of the
    equation of F(a, b; c; t) in `starts`, given as (s0, G, G') at its
    start s0, one of `ends`: the rounds, halving and refusals of
    _ode_continuation."""
    ab = a * b
    length = ends[-1]
    wronskian_exp = c - (a + b) - 1.0  # W ~ t^(-c) (1-t)^(c-a-b-1)
    panels = np.empty((len(ends) - 1, 4, 2), dtype=complex)
    todo = np.arange(len(panels))  # the panels a round solves: the plan, then halves
    while True:
        if len(panels) > _MAX_TERMS:
            raise NonConvergence(
                f"2F1 continuation: more than {_MAX_TERMS} panels needed to reach |z|={length:.3g}"
            )
        panels[todo] = _solve_panels(a, b, c, unit, ends[todo], ends[todo + 1])
        rows = panels.tolist()
        refused = np.zeros(len(panels), dtype=bool)
        carried = []
        with np.errstate(all="ignore"):  # past a refused panel, G is provisional
            t = unit * ends
            freq = np.sqrt(np.abs(ab / (t * (1.0 - t))))
            log_w = (wronskian_exp * np.log(1.0 - t) - c * np.log(t)).real
            for s0, g, dg in starts:
                k = np.searchsorted(ends, s0)
                states = [(g, dg)]
                for _, _, (u1, u2), (v1, v2) in rows[k:]:
                    g, dg = u1 * g + u2 * dg, v1 * g + v2 * dg
                    states.append((g, dg))
                gs, dgs = np.array(states).T
                amp = np.hypot(np.abs(gs), np.abs(dgs) / freq[k:])
                tails = np.abs(panels[k:, :2, 0] * gs[:-1, None] + panels[k:, :2, 1] * dgs[:-1, None])
                refused[k:] |= ~(tails <= _PANEL_TAIL * amp[:-1, None]).all(axis=1)
                carried.append((k, g, amp))
            reach = refused.argmax() + 1 if refused.any() else len(ends)
            for k, _, amp in carried:
                n = max(reach - k, 0)  # the ends this solution reached before a refused panel
                # log |W| / (A^2 freq): the partner's size against G, up to a constant
                growth = log_w[k : k + n] - 2.0 * np.log(amp[:n]) - np.log(freq[k : k + n])
                overflow = ~np.isfinite(amp[:n])
                bad = overflow | (growth - np.minimum.accumulate(growth) > math.log(_AMPLIFY_LIMIT))
                if bad.any():
                    i = bad.argmax()
                    raise NonConvergence(
                        f"2F1 continuation overflowed at |t|={ends[max(k + i - 1, 0)]:.3g}" if overflow[i] else
                        f"2F1 continuation: rounding error outgrew its budget by |t|={ends[k + i]:.3g} "
                        "(a partner solution outgrows F; ill-conditioned parameters)"
                    )
        if not refused.any():
            return [g for _, g, _ in carried]
        # walk again from the start, every refused panel halved
        split = np.flatnonzero(refused) + 1
        ends = np.insert(ends, split, 0.5 * (ends[split - 1] + ends[split]))
        panels = np.insert(panels, split, 0.0, axis=0)
        todo = np.flatnonzero(np.insert(refused, split, True))


def _solve_panels(
    a: complex, b: complex, c: complex, unit: complex, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Per panel from starts to ends, for the solutions with (G, G') = (1, 0)
    and (0, 1) at its start: the top two Chebyshev coefficients of G, G at
    its end and G' at its end, as a (panels, 4, 2) array.

    G(s) = F(s unit) solves G'' + p G' + q G = 0 with p = unit (c - (a+b+1)t)
    / (t(1-t)) and q = -unit^2 ab / (t(1-t)), t = s unit.  On a panel of half
    width h, x in [-1, 1], the unknowns are sigma = h^2 G'' at the nodes: with
    J the nodal integration matrix from x = -1, h G' = h G'_0 + J sigma and
    G = G_0 + h G'_0 (x+1) + J^2 sigma, so collocation solves
    (I + hp J + h^2 q J^2) sigma = -hp h G'_0 - h^2 q (G_0 + h G'_0 (x+1)),
    one batched solve per _PANEL_BATCH panels.
    """
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


_PACK_SIX = struct.Struct("6d").pack


def _bits(x: complex, y: complex, w: complex) -> bytes:
    """The bit patterns of three values' real and imaginary parts: equal
    only for values that are equal bit for bit, signed zeros included."""
    return _PACK_SIX(x.real, x.imag, y.real, y.imag, w.real, w.imag)


# The last (a, b, c) of connection_gammas, as _bits, and its pair.
_gammas_memo: tuple[bytes, tuple[complex, complex]] = (b"", (0j, 0j))


def connection_gammas(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """G(c) G(c-a-b) / (G(c-a) G(c-b)) and G(c) G(a+b-c) / (G(a) G(b)),
    the z -> 1-z connection coefficients (DLMF 15.8.4) of hyp2f1 and
    waves.connect, as exp of log_gamma sums, with a+b-c taken as -(c-a-b).
    Their relative error is the rounding of those sums, ~|sum| * 2^-52:
    ~2e-12 at |Im a|, |Im b| ~ 1e3.  Where a coefficient is beyond double
    range (eps << m) they raise NonConvergence naming (a, b, c).

    The pair of the last (a, b, c) is kept, keyed on the bits of a, b and c
    (log_gamma's branch follows the sign of a zero, so +0.0 and -0.0 are
    different keys): a grid of radii on one ansatz in hyp2f1's connection
    route, or waves.connect before eval_standing there, computes it once.
    """
    global _gammas_memo
    key = _bits(a, b, c)
    memo = _gammas_memo  # one read: a concurrent call may replace it
    if memo[0] == key:
        return memo[1]
    s = c - a - b
    lg_c = log_gamma(c)
    try:
        g1 = cmath.exp(lg_c + log_gamma(s) - log_gamma(c - a) - log_gamma(c - b))
        g2 = cmath.exp(lg_c + log_gamma(-s) - log_gamma(a) - log_gamma(b))
    except OverflowError:
        raise NonConvergence(
            f"z -> 1-z connection coefficients beyond double range at (a, b, c) = ({a:.6g}, {b:.6g}, {c:.6g})"
        ) from None
    _gammas_memo = key, (g1, g2)
    return g1, g2


def _read_direct(a: complex, b: complex, c: complex, z: complex) -> tuple[complex | None, tuple | None]:
    """_read of the direct series at z; one whose float sum runs past
    _MAX_TERMS terms reads as a series no pass can sum (_price inf)."""
    try:
        return _read(a, b, c, z)
    except NonConvergence:
        return None, (math.inf, math.inf, _MAX_TERMS)


def _priced(
    a: complex, b: complex, c: complex, z: complex, s: complex,
    first: tuple[complex, complex, complex, float], second: tuple[complex, complex, complex, float],
) -> complex:
    """F(a, b; c; z) at real z in (1/2, 1) from the connection series
    `first` and `second` at w = 1-z (_connection), or from the direct
    series at z, whichever hyp2f1's price rule makes cheaper; each float
    series is summed at most once."""
    w = first[3]
    direct = None  # the direct series' _read, once summed
    if _float_terms(z.real) < 2.0 * _float_terms(w):
        # the direct float series is the shorter read: it comes first
        direct = _read_direct(a, b, c, z)
        if direct[1] is None:
            return direct[0]
    read1, read2 = _read(*first), None
    if read1[1] is None:
        read2 = _read(*second)
        price = _price(read2[1])  # none where both settle in doubles
    else:
        # the second series, not summed yet, priced as the first: a float
        # sum as long and a first pass as dear
        price = 2.0 * _price(read1[1]) + _FLOAT_TERM_BITS * read1[1][2]
    if direct is None and _FLOAT_TERM_BITS * _float_terms(z.real) < price:
        direct = _read_direct(a, b, c, z)
        if direct[1] is None:
            return direct[0]
    if direct is not None and _price(direct[1]) <= _PASS_BUDGET and _price(direct[1]) < price:
        return _gauss_series(a, b, c, z, direct)
    return _connection(a, b, c, s, first, second, read1, read2)


def _connection(
    a: complex, b: complex, c: complex, s: complex,
    first: tuple[complex, complex, complex, float], second: tuple[complex, complex, complex, float],
    read1: tuple, read2: tuple | None,
) -> complex:
    """DLMF 15.8.4 from its two series, `first` read (read1) and `second`
    read where read2 is not None: each by its own route, or the two by one
    paired walk (_kummer_continuation) where both would walk."""
    w = first[3]
    f1, walk1 = _passed(*first, *read1)
    f2 = walk2 = None
    if walk1 is not None and abs(s) ** 2 < abs(a * b) * w:
        # the second series is w^s times Kummer's partner of the first
        # one: where both would walk, one walk may carry both
        try:
            f2, walk2 = _summed(*second)
        except NonConvergence:
            _continued(*first, *walk1)  # the first series' refusal comes first
            raise
        pair = None if walk2 is None else _kummer_continuation(*first, walk1[0], second[:3], walk2[0])
        if pair is not None:
            g1, g2 = connection_gammas(a, b, c)
            return g1 * pair[0] + g2 * pair[1]
    if walk1 is not None:
        f1 = _continued(*first, *walk1)
    if walk2 is not None:
        f2 = _continued(*second, *walk2)
    elif f2 is None:
        f2 = _gauss_series(*second, read2)
    g1, g2 = connection_gammas(a, b, c)
    return g1 * f1 + g2 * (w ** s) * f2


def hyp2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric function F(a, b; c; z) on |z| < 1.

    Routes, all returning doubles:

    * direct: the power series at z.
    * connection: for real z above 1/2 (_CONNECTION_THRESHOLD) the z -> 1-z
      formula (DLMF 15.8.4) with the coefficients of connection_gammas,
      which keeps the series arguments small near z = 1.  It requires c-a-b
      to be non-integer; when it is an integer the direct series is
      attempted anyway (it converges, slowly, for |z| < 1).  Where the
      second series' parameters (c-a, c-b, 1+s), s = c-a-b, are bit for bit
      the conjugates of the first's (a, b, 1-s), as for both standing
      families, F2 is the conjugate of F1 and the coefficient g2 of g1: the
      first series alone is summed, by whatever route it takes, and with
      t = g1 F1 the value is t + conj(t) w^s, w = 1-z.  Other inputs, the
      running waves among them, take the cheaper side: the two series at w
      or the direct series at z, each float series summed at most once.
      Each series is priced by what it still costs once its float sum is
      read: nothing where that settles it, else its first fixed-point
      pass's terms x (64 + bits) term-bits (below); one priced over
      _PASS_BUDGET walks.  A float term costs 40 term-bits
      (_FLOAT_TERM_BITS), and a float series at real x in (0, 1) sums about
      log(1e-15)/log x terms.  The direct series is read first where it is
      the shorter read (about as many terms at z as the two at w together,
      z ~ 0.618), else the first series at w is.  Then the connection is
      priced, a second series not read yet as the first (a float sum as
      long and a pass as dear), and the direct series, if not read yet, is
      read where its float terms cost less than that: never where both
      series at w settle in doubles, whose sum is returned.
      It is taken where its float sum settles it, or where its first pass
      is within _PASS_BUDGET and priced below the connection; on a tie, or
      where both sides would walk, the two series at w are summed.
    * fixed point: a series of either route (the direct one, or one of the
      two connection series) whose largest term exceeds its sum by more than
      1e3 (_CANCEL_RETRY) is summed again in Python-integer fixed point,
      with the term ratio exact from the binary values of its arguments and
      one floor per term; the tail past 2^-24 of the sum is summed in
      doubles.
      The pass rule: the first pass covers a loss of 1 + ceil(log2 peak)
      + 20 (_SMALL_SUM_BITS) bits, enough for |F| down to 2^-20, whatever
      the float series' cancellation; the peak term is the float series'
      or, where its terms overflow, that of a log-space sum of the term
      ratios.  A pass works at 64 bits (_GUARD_BITS) above the loss it
      covers, and one that measures more loss than it covers is repeated
      above the measured loss.  A pass costs terms x (64 + bits)
      term-bits, and every pass, the first one included, runs only where
      that is at most 100 000 (_PASS_BUDGET, ~1.3 ms); otherwise the
      continuation runs.  The relative error is the rounding to double plus
      ~2^-64 per term.  Large |Im a|, |Im b|, as in the wave families up to
      epsilon of a few hundred and the small-curvature expansion's tiny z,
      take this route.
    * continuation: a series that the fixed-point passes cannot sum within
      _PASS_BUDGET, or at all (beyond 10 000 terms), is continued along
      z(1-z)F'' + [c-(a+b+1)z]F' - abF = 0 from a point on the ray where
      the series cancels by at most 10 (_CANCEL_START), by Chebyshev
      collocation of degree 24 on panels of 5 radians of the local
      frequency, halving in rounds the panels whose top Chebyshev
      coefficients exceed 1e-14 (_PANEL_TAIL) of F's local amplitude.
      Large |Im a|, |Im b| at large epsilon take this route at interior z.
      The connection route pairs its two series where both would take it
      and |c-a-b|^2 < |ab| (1-z): the second series times (1-z)^(c-a-b) is
      Kummer's partner of the first (DLMF 15.10.2), so one plan and one
      walk carry both, the partner from no nearer 0 than |c-a-b|^2/|ab|.
      Running waves at large epsilon take it where their direct series at
      z would walk too; standing waves at z > 1/2 sum their first series
      alone (above).  Where the paired walk refuses, each series takes its
      own walk.
      Where a walk refuses, the fixed-point passes go on from the same
      precision, each within 120 000 000 term-bits (_RESCUE_BUDGET,
      ~0.3 s), and a rescue pass may sum more than 10 000 terms where that
      budget affords them at its precision.

    The route follows from the arguments, from the cancellation and peak
    term the float series measures and from the pass budget; there is no
    setting that selects it.  Every series stops at a fixed relative
    tolerance of 1e-15 (_REL_TOL) and may sum at most 10 000 terms
    (_MAX_TERMS), a rescue pass excepted; the continuation's walk carries
    at most as many panels, halved ones included.

    The float series keep the term ratios (a+n)(b+n)/((c+n)(n+1)) of the
    last two (a, b, c) they were summed on, a triple matching only bit for
    bit: its second series keeps those it computes, at most 10 000, and
    later ones read them and keep those they compute past the end, so that
    a grid of z on one set of parameters computes them once.  A kept
    ratio is the double the series' own expression gives, multiplied into
    the term as before, so no term, stop or result changes by a bit; a
    series repeated at the same z, bit for bit, returns its last result.

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
    if z.imag == 0.0 and _CONNECTION_THRESHOLD < z.real < 1.0:
        s = c - a - b
        if not (s.imag == 0.0 and s.real == math.floor(s.real)):
            w = 1.0 - z.real
            first, second = (a, b, 1.0 - s, w), (c - a, c - b, 1.0 + s, w)
            if _bits(*second[:3]) == _bits(a.conjugate(), b.conjugate(), (1.0 - s).conjugate()):
                # the second series is the conjugate of the first, and g2 of g1
                t = connection_gammas(a, b, c)[0] * _gauss_series(*first)
                return t + t.conjugate() * w**s
            return _priced(a, b, c, z, s, first, second)
    if abs(z) < 1.0:
        return _gauss_series(a, b, c, z)
    raise ValueError(f"hyp2f1: |z| >= 1 not supported (z={z})")


# --- Bessel functions -------------------------------------------------------

_SERIES_X_MAX = 8.0
# Term budget of the power series.
_SERIES_TERMS = 200


def _bessel_series(p: float, x: float) -> float:
    # (x/2)^p / Gamma(p+1) * sum_n (-x^2/4)^n / (n! (p+1)_n)
    try:
        lead = math.exp(p * math.log(0.5 * x) - log_gamma(complex(p + 1.0)).real)
    except OverflowError:
        raise NonConvergence(f"J_{p:g}({x:g}) is beyond double range") from None
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
    # from the seed of p's sign, in steps s = sign(p) of the order:
    # J_{nu+s} = (2 nu / x) J_nu - J_{nu-s}, upward for p > 0, downward for p < 0
    jp, jm = _bessel_half_seed(x)  # J_{1/2}, J_{-1/2}
    step = 1.0 if p > 0.0 else -1.0
    prev, cur = (jm, jp) if p > 0.0 else (jp, jm)
    nu = 0.5 * step
    while abs(p - nu) > 0.25:
        prev, cur = cur, (2.0 * nu / x) * cur - prev
        nu += step
    return cur


def _is_half_integer(p: float) -> bool:
    # 2p is an odd integer; nan and inf fail the comparison
    return (2.0 * p) % 2.0 == 1.0


def bessel_j(p: float, x: float) -> float:
    """Bessel function of the first kind J_p(x) for half-integer p and x >= 0.

    The package needs only the orders p = +/-(j + 1/2), which take one of two
    routes: the ascending power series for x <= max(8, 0.85 |p|) (nearer the
    turning point x = |p| it cancels), and beyond that the exact
    trigonometric seeds J_{1/2}, J_{-1/2} carried to p by the order
    recurrence (upward for p > 0, downward for p < 0).  Within 1e-13
    |H^(1)_|p|(x)|, an envelope free of J's zeros, for |p| <= 20.5 and
    1e-2 <= x <= 1e4.

    Raises
    ------
    ValueError
        If p is not a half-integer, x < 0, or x = 0 with negative order.
    NonConvergence
        If the series' lead (x/2)^p / Gamma(p+1) is beyond double range.
    """
    if not _is_half_integer(p):
        raise ValueError(f"bessel_j: order p={p} is not a half-integer")
    if x < 0.0:
        raise ValueError("bessel_j requires x >= 0")
    if x == 0.0:
        if p > 0.0:
            return 0.0
        raise ValueError("bessel_j at x=0 diverges for negative order")
    if x <= _SERIES_X_MAX or x <= 0.85 * abs(p):
        return _bessel_series(p, x)
    return _bessel_half_integer(p, x)


def hankel1(p: float, x: float) -> complex:
    """Hankel function of the first kind H^(1)_p(x) for half-integer p, x > 0.

    H^(1)_p = i (e^{-i pi p} J_p - J_{-p}) / sin(pi p), where for half-integer
    p both sin(pi p) = (-1)^(p - 1/2) and e^{-i pi p} = -i (-1)^(p - 1/2) are
    exact; J_{+/-p} take the routes of bessel_j.  For p = 1/2 this reduces to
    -i sqrt(2/(pi x)) e^{ix}.  Accuracy: 1e-13 relative for |p| <= 20.5 and
    1e-2 <= x <= 1e4.

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
