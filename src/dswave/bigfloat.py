"""Extended-precision series oracle: ground-truth gamma / 2F1 / Bessel values.

Big-float arithmetic with its own algorithms — Spouge's formula and raw term
recurrences — so it shares no code path with :mod:`dswave.special`.  This is
the only module of the package that imports mpmath; the tests load it, and
no command of the CLI does.
"""
from __future__ import annotations

from typing import Sequence

import mpmath as mp

from .special import NonConvergence, PoleError

__all__ = ["extended_series"]


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
