"""Standing/running wave families, connection formulas, flat-space limit."""
from __future__ import annotations

import cmath
import math
import random
import struct

import mpmath as mp
import numpy as np
import pytest

from dswave.bigfloat import extended_series
from dswave.model import DomainError, HorizonUnitsParams, ModelParams, phi
from dswave.special import NonConvergence
from dswave.waves import (
    EvanescentMode,
    UnsupportedMass,
    connect,
    connection_check,
    connection_residual,
    eval_running,
    eval_standing,
    flat_limit_convergence,
    flat_limit_reference,
    make_ansatz,
    normalized_out_wave,
)

HP = HorizonUnitsParams(epsilon=10.0, m=5.0, j=1)


def test_ansatz_exponents_and_parameters():
    for j in (0, 1, 2, 5):
        hp = HorizonUnitsParams(epsilon=10.0, m=5.0, j=j)
        reg = make_ansatz(hp, "regular")
        sng = make_ansatz(hp, "singular")
        assert reg.kappa == j / 2.0
        assert sng.kappa == -(j + 1) / 2.0
        assert reg.family == "regular" and sng.family == "singular"
        # both families carry a + b - c = -i eps (horizon phase balance)
        for ans in (reg, sng):
            assert abs((ans.a + ans.b - ans.c) - complex(0.0, -10.0)) < 1e-12
        assert abs(reg.c - (j + 1.5)) < 1e-12
        assert abs(sng.c - (0.5 - j)) < 1e-12


def test_unsupported_mass_raises():
    for m in (0.5, 0.2):
        with pytest.raises(UnsupportedMass):
            make_ansatz(HorizonUnitsParams(epsilon=1.0, m=m, j=0), "regular")


def test_bad_family_name():
    with pytest.raises(ValueError):
        make_ansatz(HP, "outgoing")


def test_standing_small_r_scaling():
    r = 1e-3
    for j in (0, 1, 2):
        hp = HorizonUnitsParams(epsilon=10.0, m=5.0, j=j)
        f = eval_standing(make_ansatz(hp, "regular"), r)
        g = eval_standing(make_ansatz(hp, "singular"), r)
        assert abs(f / r**j - 1.0) < 1e-4
        assert abs(g * r ** (j + 1) - 1.0) < 1e-4


def test_standing_is_real():
    for fam in ("regular", "singular"):
        ans = make_ansatz(HP, fam)
        for r in (0.1, 0.45, 0.9):
            v = eval_standing(ans, r)
            assert abs(v.imag) < 1e-12 * max(1.0, abs(v))


def test_standing_domain_errors():
    assert eval_standing(make_ansatz(HorizonUnitsParams(10.0, 5.0, 0), "regular"), 0.0) == 1.0
    assert eval_standing(make_ansatz(HP, "regular"), 0.0) == 0.0
    with pytest.raises(DomainError):
        eval_standing(make_ansatz(HP, "singular"), 0.0)
    with pytest.raises(DomainError):
        eval_standing(make_ansatz(HP, "regular"), 1.0)


@pytest.mark.parametrize("r", [0.0, -0.25, 1.0, 1.5, math.nan])
def test_running_domain_errors(r):
    for fam in ("regular", "singular"):
        for direction in ("out", "in"):
            with pytest.raises(DomainError, match=rf"^eval_running: r={r} outside \(0, 1\)$"):
                eval_running(make_ansatz(HP, fam), direction, r)


def test_running_waves_conjugate():
    ans = make_ansatz(HP, "regular")
    for r in (0.1, 0.5, 0.9):
        out = eval_running(ans, "out", r)
        inc = eval_running(ans, "in", r)
        assert abs(inc - out.conjugate()) < 1e-12 * abs(out)
    with pytest.raises(ValueError):
        eval_running(ans, "sideways", 0.5)


def test_running_same_from_both_families():
    reg = make_ansatz(HP, "regular")
    sng = make_ansatz(HP, "singular")
    for r in (0.2, 0.6, 0.95):
        a = eval_running(reg, "out", r)
        b = eval_running(sng, "out", r)
        assert abs(a - b) < 1e-11 * abs(a)


def test_running_pure_phase_at_horizon():
    # |U_out| -> 1 as r -> 1 (the (1-z)^sigma factor is pure phase, F -> 1)
    ans = make_ansatz(HP, "regular")
    assert abs(abs(eval_running(ans, "out", 0.9999)) - 1.0) < 1e-3


def test_connection_coefficients_conjugate_pair():
    cc = connect(make_ansatz(HP, "regular"))
    assert abs(cc.to_in - cc.to_out.conjugate()) < 1e-13 * abs(cc.to_out)


@pytest.mark.parametrize("eps", [10.0, 50.0, 200.0, 1000.0])
def test_connect_matches_mpmath_gamma_quotients(eps):
    # DLMF 15.8.4 coefficients at 40 digits from the float (a, b, c).  The
    # log-Gamma sum has size ~eps ln eps, and its rounding is the phase
    # error of exp: the bound is 8 units of 2^-52 of 1 + eps ln eps.  At
    # eps = 1000 the worst case measures 1.9e-12 against a bound of 1.2e-11.
    bound = 8.0 * 2.0**-52 * (1.0 + eps * math.log(eps))
    worst = 0.0
    with mp.workdps(40):
        for j in range(6):
            for mu in (1.5, 2.0, 5.0):
                hp = HorizonUnitsParams(epsilon=eps, m=eps / mu, j=j)
                for fam in ("regular", "singular"):
                    ans = make_ansatz(hp, fam)
                    a, b, c = (mp.mpc(v.real, v.imag) for v in (ans.a, ans.b, ans.c))
                    to_out = mp.gamma(c) * mp.gamma(c - a - b) / (mp.gamma(c - a) * mp.gamma(c - b))
                    to_in = mp.gamma(c) * mp.gamma(a + b - c) / (mp.gamma(a) * mp.gamma(b))
                    cc = connect(ans)
                    for got, want in ((cc.to_out, to_out), (cc.to_in, to_in)):
                        worst = max(worst, float(abs(got - want) / abs(want)))
    assert worst < bound, (eps, worst)


def test_connection_residual_small():
    for eps, m, j in [(10.0, 5.0, 0), (10.0, 5.0, 3), (25.0, 10.0, 1), (60.0, 10.0, 5)]:
        hp = HorizonUnitsParams(epsilon=eps, m=m, j=j)
        for fam in ("regular", "singular"):
            ans = make_ansatz(hp, fam)
            for r in (0.1, 0.3, 0.5, 0.7, 0.9):
                assert connection_residual(ans, r) < 1e-10


def _seeded_waves(n, seed):
    """(ansatz, r) of n propagating points, the two families in turn:
    epsilon log-uniform in [10, 2000], mu = epsilon / m in [1.5, 5], j <= 20
    and r in (0.05, 0.99)."""
    rng = random.Random(seed)
    points = []
    for k in range(n):
        eps = 10.0 ** rng.uniform(1.0, math.log10(2000.0))
        hp = HorizonUnitsParams(epsilon=eps, m=eps / rng.uniform(1.5, 5.0), j=rng.randrange(21))
        points.append((make_ansatz(hp, ("regular", "singular")[k % 2]), rng.uniform(0.05, 0.99)))
    return points


def _bits(value: complex) -> bytes:
    return struct.pack("2d", value.real, value.imag)


def test_incoming_running_wave_is_the_conjugate_of_the_outgoing_one():
    # for real eps and m the incoming wave's parameters are the outgoing
    # wave's conjugates, and it is the conjugate, bit for bit, in both families
    for ans, r in _seeded_waves(40, 53):
        out = eval_running(ans, "out", r)
        assert _bits(eval_running(ans, "in", r)) == _bits(out.conjugate()), (ans, r)


def test_connection_residual_over_a_seeded_propagating_grid():
    # the gap over the envelope |to_out U_out| + |to_in U_in| stays at the
    # rounding of the waves, and U_in is the conjugate of U_out.  Of an
    # 800-point draw of this grid, 790 read below 1e-12 and the largest
    # 1.1e-11 (epsilon = 1107, singular, j = 18, r = 0.246), where the
    # standing wave and U_out are each ~1e-11 from mpmath
    for ans, r in _seeded_waves(100, 59):
        standing, out, inc, residual, envelope = connection_check(ans, r)
        assert inc == out.conjugate() and standing == eval_standing(ans, r), (ans, r)
        assert residual < 2e-11, (ans, r, residual)
        cc = connect(ans)
        assert envelope == abs(cc.to_out * out) + abs(cc.to_in * inc), (ans, r)


def test_connection_residual_where_the_standing_wave_nearly_vanishes():
    # at a node of the real standing wave its two running terms cancel to
    # ~1e-16 of their envelope: the cancellation factor envelope / |standing|
    # is large, and the residual, relative to the envelope, stays small
    ans = make_ansatz(HorizonUnitsParams(epsilon=50.0, m=20.0, j=1), "regular")
    lo, hi = 0.275, 0.3
    assert eval_standing(ans, lo).real * eval_standing(ans, hi).real < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if eval_standing(ans, lo).real * eval_standing(ans, mid).real <= 0.0:
            hi = mid
        else:
            lo = mid
    standing, _, _, residual, envelope = connection_check(ans, lo)
    factor = envelope / abs(standing)
    assert factor > 1e8 and residual < 1e-12, (factor, residual)


def _oracle_hyp2f1(a, b, c, x):
    """F(a, b; c; x) from the big-float oracle: its raw series for x <= 1/2,
    DLMF 15.8.4 with its Spouge Gamma beyond.  Runs at the caller's mp
    precision."""
    if x <= 0.5:
        return extended_series("hyp2f1", [a, b, c, x])

    def gamma(v):
        return extended_series("gamma", [v])

    s = c - a - b
    w = 1 - mp.mpf(x)
    g1 = gamma(c) * gamma(s) / (gamma(c - a) * gamma(c - b))
    g2 = gamma(c) * gamma(-s) / (gamma(a) * gamma(b))
    return g1 * extended_series("hyp2f1", [a, b, 1 - s, w]) + g2 * w**s * extended_series(
        "hyp2f1", [c - a, c - b, 1 + s, w]
    )


def test_wave_accuracy_grid_against_oracle():
    # The ROADMAP grid: j = cell index mod 3, mu = 2.  Running waves within
    # 1e-12 relative; standing waves within 1e-12 of their amplitude envelope
    # |to_out U_out| + |to_in U_in|, which does not vanish at their nodes.
    # The references take the package's double-precision ansatz parameters
    # as exact and carry everything else in 45-digit arithmetic.
    for e_idx, eps in enumerate((10.0, 50.0, 200.0, 1000.0)):
        for r_idx, r in enumerate((0.1, 0.5, 0.9, 0.99)):
            hp = HorizonUnitsParams(epsilon=eps, m=eps / 2.0, j=(4 * e_idx + r_idx) % 3)
            with mp.workdps(45):
                z = mp.mpf(r) ** 2
                running = {}
                reg = make_ansatz(hp, "regular")
                a, b, c = (mp.mpc(v) for v in (reg.a, reg.b, reg.c))
                lead = z ** mp.mpf(reg.kappa)
                phase = mp.exp(mp.mpc(reg.sigma) * mp.log(1 - z))
                running["out"] = lead * phase * _oracle_hyp2f1(a, b, a + b - c + 1, 1 - z)
                running["in"] = lead / phase * _oracle_hyp2f1(c - a, c - b, c - a - b + 1, 1 - z)
                for direction, ref in running.items():
                    got = eval_running(reg, direction, r)
                    err = float(abs(got - ref) / abs(ref))
                    assert err <= 1e-12, (eps, r, direction, err)
                for family in ("regular", "singular"):
                    ans = make_ansatz(hp, family)
                    a, b, c = (mp.mpc(v) for v in (ans.a, ans.b, ans.c))
                    value = (
                        z ** mp.mpf(ans.kappa)
                        * mp.exp(mp.mpc(ans.sigma) * mp.log(1 - z))
                        * _oracle_hyp2f1(a, b, c, z)
                    )
                    cc = connect(ans)
                    # both families share the same running waves
                    envelope = abs(cc.to_out * running["out"]) + abs(cc.to_in * running["in"])
                    err = float(abs(eval_standing(ans, r) - value) / envelope)
                    assert err <= 1e-12, (eps, r, family, err)


# (epsilon, j, r) of the singular family, m = epsilon / 2, off the
# connection route (r^2 < 1/2): the continuation refuses the first thirteen
# (its partner solution outgrows F), and it returned the last four with
# errors of 9.5e-11, 4.6e-11, 7.7e-12 and 1.9e-12
_SINGULAR_POINTS = (
    [(200.0, j, r) for j in range(15, 21) for r in (0.5, 0.7)]
    + [(50.0, 17, 0.7)]
    + [(50.0, 14, 0.7), (200.0, 20, 0.3), (200.0, 15, 0.3), (200.0, 13, 0.5)]
)


def _singular_points():
    """The points above and 12 seeded ones: epsilon 50 and 200 taking
    turns, j <= 20 and r in [0.1, 0.7]."""
    rng = random.Random(2026)
    drawn = [((50.0, 200.0)[k % 2], rng.randrange(21), rng.uniform(0.1, 0.7)) for k in range(12)]
    return _SINGULAR_POINTS + drawn


def test_singular_family_over_j_up_to_20_against_the_oracle():
    # every standing wave returns a value within 1e-12 of the big-float
    # series at 30 digits, taking the package's double-precision ansatz
    # parameters as exact
    for eps, j, r in _singular_points():
        ans = make_ansatz(HorizonUnitsParams(epsilon=eps, m=eps / 2.0, j=j), "singular")
        with mp.workdps(30):
            z = mp.mpf(r) ** 2
            ref = (
                z ** mp.mpf(ans.kappa)
                * mp.exp(mp.mpc(ans.sigma) * mp.log(1 - z))
                * extended_series("hyp2f1", [ans.a, ans.b, ans.c, z])
            )
            err = float(abs(eval_standing(ans, r) - ref) / abs(ref))
        assert err <= 1e-12, (eps, j, r, err)


def test_wronskian_of_standing_pair():
    # r^2 Phi (f g' - g f') is constant and equals -(2j+1)
    for j in (0, 1, 2):
        hp = HorizonUnitsParams(epsilon=10.0, m=5.0, j=j)
        ansf = make_ansatz(hp, "regular")
        ansg = make_ansatz(hp, "singular")
        h = 6e-5

        def d(ans, r):
            vals = [eval_standing(ans, r + k * h) for k in (-2, -1, 1, 2)]
            return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)

        ws = []
        for r in np.linspace(0.15, 0.9, 9):
            w = r * r * phi(r) * (
                eval_standing(ansf, r) * d(ansg, r) - eval_standing(ansg, r) * d(ansf, r)
            )
            ws.append(w)
        ws = np.asarray(ws)
        target = -(2.0 * j + 1.0)
        assert abs(np.mean(ws) - target) < 1e-8 * abs(target)
        assert np.max(np.abs(ws - np.mean(ws))) < 1e-9 * abs(target)


def test_origin_power_beyond_double_range_names_j_and_r():
    # r^-(j+1) overflows at j = 1000 near the origin, for standing and
    # running waves alike; nothing else may escape as OverflowError
    sng = make_ansatz(HorizonUnitsParams(epsilon=20.0, m=10.0, j=1000), "singular")
    with pytest.raises(NonConvergence, match=r"j=1000 .* r=0\.05$"):
        eval_standing(sng, 0.05)
    for direction in ("out", "in"):
        with pytest.raises(NonConvergence, match=r"j=1000 .* r=0\.05$"):
            eval_running(sng, direction, 0.05)


def test_flat_limit_reference_half_integer_form():
    # j=0 reference reduces to -pi sqrt(2/x) * (-i) sqrt(2/(pi x)) e^{ix}
    hp = HorizonUnitsParams(epsilon=10.0, m=5.0, j=0)
    k, r = 3.0, 2.0
    x = k * r
    expected = -math.pi * math.sqrt(2.0 / x) * (-1j) * math.sqrt(2.0 / (math.pi * x)) * cmath.exp(1j * x)
    assert abs(flat_limit_reference(hp, k, r) - expected) < 1e-13 * abs(expected)
    with pytest.raises(EvanescentMode):
        flat_limit_reference(HorizonUnitsParams(epsilon=1.0, m=5.0, j=0), k, r)
    for k, r in ((0.0, 2.0), (-3.0, 2.0), (3.0, 0.0), (3.0, -2.0)):
        with pytest.raises(ValueError, match=r"^flat_limit_reference needs k > 0 and r > 0$"):
            flat_limit_reference(hp, k, r)


def test_normalized_out_wave_approaches_reference():
    # deviation |A U_out / reference - 1| at R/lam = 1e4, kr = 0.5, j = 1:
    # the first-order coefficient magnitude is (4p^2-1) mu / (8 (mu^2-1)) X
    m = 1e4
    mu = 2.0
    hp = HorizonUnitsParams(epsilon=mu * m, m=m, j=1)
    k = m * math.sqrt(mu * mu - 1.0)
    r = 0.5 / k
    dev = abs(normalized_out_wave(hp, r) / flat_limit_reference(hp, k, r) - 1.0)
    predicted = (4.0 * 1.5**2 - 1.0) * mu / (8.0 * (mu * mu - 1.0)) / m
    assert abs(dev / predicted - 1.0) < 0.05


def test_flat_limit_convergence_valid_regime():
    for j in (0, 1, 2):
        rows = flat_limit_convergence(
            ModelParams(R=1.0, lam=1.0, mu=2.0, j=j), [1e3, 1e4, 1e5, 1e6], 0.5
        )
        devs = [d for _, d in rows]
        assert all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
        # deviation scales like 1/R, so three decades of R buy ~1e-3
        assert devs[-1] < 2e-3 * devs[0]
        assert devs[-1] < 1e-5


def test_flat_limit_convergence_violating_regime():
    # with the dimensionless wave number pinned at 2 (so eps R ~ j), the
    # deviation is O(1) and does NOT keep shrinking
    rows = flat_limit_convergence(
        ModelParams(R=1.0, lam=1.0, mu=2.0, j=2), [50.0, 100.0, 200.0, 400.0], 0.5, fixed_kappa=2.0
    )
    devs = [d for _, d in rows]
    assert all(d > 0.5 for d in devs)
    assert not all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))


def test_flat_limit_rejects_evanescent():
    with pytest.raises(EvanescentMode):
        flat_limit_convergence(ModelParams(R=1.0, lam=1.0, mu=0.9, j=0), [1e3], 0.5)
    with pytest.raises(ValueError):
        flat_limit_convergence(ModelParams(R=1.0, lam=1.0, mu=2.0, j=0), [1e3], -1.0)
