"""Far-field amplitudes, perfect-absorption verdict, ODE flux cross-check."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

import dswave.reflection
import dswave.oracle
from dswave.model import HorizonUnitsParams, ModelParams
from dswave.oracle import StepFailure, integrate_riccati
from dswave.reflection import (
    FarFieldAmplitudes,
    ReflectionResult,
    RegimeError,
    check_regime,
    far_field_coefficients,
    horizon_flux_balance,
    interior_wave_ratio,
    reflection_coefficient,
)
from dswave.waves import EvanescentMode, make_ansatz

PARAM_SETS = [(20.0, 10.0, 0), (50.0, 10.0, 1), (60.0, 10.0, 5), (25.0, 5.0, 2)]


def test_channel_ratio_is_pure_phase():
    # C2/C1 = -e^{i pi p} exactly (the algebraic heart of perfect absorption)
    for eps, m, j in PARAM_SETS:
        hp = HorizonUnitsParams(epsilon=eps, m=m, j=j)
        amps = far_field_coefficients(make_ansatz(hp, "regular"), hp)
        target = -cmath.exp(1j * math.pi * hp.p)
        assert abs(amps.C2 / amps.C1 - target) < 1e-14


def test_incoming_amplitude_cancels():
    for eps, m, j in PARAM_SETS:
        hp = HorizonUnitsParams(epsilon=eps, m=m, j=j)
        amps = far_field_coefficients(make_ansatz(hp, "regular"), hp)
        assert abs(amps.A_minus) < 1e-13 * abs(amps.A_plus)
        # the surviving channel carries both constants coherently
        assert abs(abs(amps.A_plus) - 2.0 * abs(amps.C1)) < 1e-12 * abs(amps.A_plus)


def test_reflection_coefficient_verdict():
    res = reflection_coefficient(ModelParams(R=10.0, lam=1.0, mu=2.0, j=1))
    assert isinstance(res, ReflectionResult)
    assert res.ratio < 1e-13
    assert res.coefficient == res.ratio * res.ratio
    assert res.regime_ok


def test_reflection_result_invariant():
    amps = FarFieldAmplitudes(C1=1.0, C2=1.0, A_plus=2.0, A_minus=0.0)
    with pytest.raises(ValueError):
        ReflectionResult(amplitudes=amps, ratio=0.5, coefficient=0.3, regime_ok=True)


def test_check_regime_truth_table():
    assert check_regime(HorizonUnitsParams(epsilon=60.0, m=10.0, j=1))
    assert not check_regime(HorizonUnitsParams(epsilon=12.0, m=10.0, j=5))
    # j = 0 passes whenever the mode propagates at all
    assert check_regime(HorizonUnitsParams(epsilon=10.000001, m=10.0, j=0))
    with pytest.raises(ValueError):
        check_regime(HorizonUnitsParams(epsilon=60.0, m=10.0, j=1), margin=0.5)


def test_far_field_guards():
    hp = HorizonUnitsParams(epsilon=4.0, m=5.0, j=0)
    with pytest.raises(EvanescentMode):
        far_field_coefficients(make_ansatz(HorizonUnitsParams(10.0, 5.0, 0), "regular"), hp)
    hard = HorizonUnitsParams(epsilon=10.5, m=10.0, j=5)
    with pytest.raises(RegimeError, match="eps\\^2 - m\\^2"):
        far_field_coefficients(make_ansatz(hard, "regular"), hard)
    ok = HorizonUnitsParams(epsilon=20.0, m=10.0, j=0)
    with pytest.raises(ValueError):
        far_field_coefficients(make_ansatz(ok, "singular"), ok)


def test_soft_regime_runs_but_flags():
    res = reflection_coefficient(ModelParams(R=10.0, lam=1.0, mu=1.2, j=5))
    assert not res.regime_ok
    assert res.ratio < 1e-10  # algebra still cancels; validity claim withheld


def test_evanescent_mode_rejected():
    with pytest.raises(EvanescentMode):
        reflection_coefficient(ModelParams(R=10.0, lam=1.0, mu=0.9, j=0))
    with pytest.raises(EvanescentMode):
        reflection_coefficient(ModelParams(R=10.0, lam=1.0, mu=1.0, j=0))


# --- interior WKB-channel decomposition --------------------------------------


def test_interior_ratio_free_wave_is_clean():
    ratio, resid = interior_wave_ratio(lambda x: 0.0, 10.0, 3.0)
    assert ratio < 1e-11
    assert resid < 1e-13


def test_interior_ratio_matches_barrier_closed_form():
    # scattering off U0 sech^2((x-5)/a): reflection probability is
    # 1 - sinh^2(pi k a) / (sinh^2(pi k a) + cosh^2(pi/2 sqrt(4 U0 a^2 - 1)))
    U0, a, eps = 16.0, 1.0, 3.0
    sh2 = math.sinh(math.pi * eps * a) ** 2
    ch2 = math.cosh(0.5 * math.pi * math.sqrt(4.0 * U0 * a * a - 1.0)) ** 2
    exact = math.sqrt(1.0 - sh2 / (sh2 + ch2))
    ratio, resid = interior_wave_ratio(
        lambda x: U0 / np.cosh((x - 5.0) / a) ** 2, eps, 18.20
    )
    assert resid < 1e-10
    assert abs(ratio / exact - 1.0) < 1e-4


def test_interior_ratio_window_validation():
    free = lambda x: 0.0
    with pytest.raises(ValueError):
        interior_wave_ratio(free, 10.0, 3.0, window=(0.0, 2.0))
    with pytest.raises(ValueError):
        interior_wave_ratio(free, 10.0, 3.0, window=(2.2, 1.2))
    with pytest.raises(ValueError):
        interior_wave_ratio(free, 10.0, 3.0, window=(1.2, 4.0))


def test_interior_ratio_turning_point_rejected():
    # barrier top inside the window exceeds eps^2: channel split undefined
    with pytest.raises(ValueError, match="turning point"):
        interior_wave_ratio(
            lambda x: 16.0 / np.cosh(x - 1.7) ** 2, 3.0, 18.2
        )


# --- full flux balance -------------------------------------------------------


def test_flux_balance_agrees_with_far_field():
    hp = HorizonUnitsParams(epsilon=20.0, m=10.0, j=1)
    ratio = horizon_flux_balance(make_ansatz(hp, "regular"), hp)
    assert ratio < 1e-6  # far-field says exactly zero


def test_flux_balance_calls_the_potential_once_per_block(monkeypatch):
    # the integrator and the WKB phase evaluate U on whole arrays, never once
    # per node: the Riccati panels take one call, the collocation panels two
    calls = []
    potential = dswave.reflection.effective_potential

    def counted(hp, r):
        calls.append(np.shape(r))
        return potential(hp, r)

    monkeypatch.setattr(dswave.reflection, "effective_potential", counted)
    hp = HorizonUnitsParams(epsilon=4.9 * 49.0, m=49.0, j=5)
    assert horizon_flux_balance(make_ansatz(hp, "regular"), hp) < 1e-6
    assert 0 < len(calls) <= 100


def _record_routes(monkeypatch) -> list:
    """(route, problem, target, samples, solution) of every ODE solve that
    reflection completes, route "riccati" or "collocation"."""
    calls = []

    def spy(route, solve):
        def run(prob, r_target, tol, samples=None):
            sol = solve(prob, r_target, tol, samples=samples)
            calls.append((route, prob, r_target, samples, sol))
            return sol

        return run

    monkeypatch.setattr(dswave.reflection, "integrate_riccati",
                        spy("riccati", dswave.reflection.integrate_riccati))
    monkeypatch.setattr(dswave.reflection, "integrate", spy("collocation", dswave.reflection.integrate))
    return calls


CRITERION_1 = [
    (mu, j, m)
    for mu in (1.5, 2.0, 5.0)
    for j in (0, 1, 2, 5)
    for m in (10.0, 50.0)
    if check_regime(HorizonUnitsParams(epsilon=mu * m, m=m, j=j))
]


def test_riccati_window_samples_match_tight_rkf78_on_criterion_1(monkeypatch):
    # all 19 criterion-1 points take the Riccati panels; their 64 window
    # samples agree with oracle.integrate at tol 1e-13 (measured 2.1e-13 to
    # 1.4e-11)
    calls = _record_routes(monkeypatch)
    assert len(CRITERION_1) == 19
    for mu, j, m in CRITERION_1:
        hp = HorizonUnitsParams(epsilon=mu * m, m=m, j=j)
        horizon_flux_balance(make_ansatz(hp, "regular"), hp)
        route, prob, target, samples, sol = calls.pop()
        assert route == "riccati", (mu, j, m)
        tight = dswave.oracle.integrate(prob, target, 1e-13, samples=samples)
        assert np.array_equal(sol.r, tight.r)
        err = np.max(np.abs(sol.u - tight.u)) / np.max(np.abs(tight.u))
        assert err <= 1e-9, (mu, j, m, err)


def test_riccati_sweeps_stop_once_the_phase_error_meets_the_tolerance(monkeypatch):
    # at (eps, m, j) ~ (242, 49.2, 0) the phase-error estimate of the kept
    # iterates reaches _FLUX_TOL after 5 sweeps (polishing until no panel
    # improved took 12): capped at 5 sweeps the samples keep their bits; at
    # 4 the estimate is still 3e-10, above 10 tol, and the panels refuse
    hp = HorizonUnitsParams(epsilon=242.08309064450253, m=49.17857506034823, j=0)
    calls = _record_routes(monkeypatch)
    horizon_flux_balance(make_ansatz(hp, "regular"), hp)
    [(route, prob, target, samples, sol)] = calls

    def capped(sweeps):
        monkeypatch.setattr(dswave.oracle, "_RICCATI_SWEEPS", sweeps)
        return integrate_riccati(prob, target, dswave.reflection._FLUX_TOL, samples=samples).u

    assert route == "riccati"
    assert np.array_equal(capped(5), sol.u)
    with pytest.raises(StepFailure, match="phase-error estimate"):
        capped(4)


@pytest.mark.xfail(
    strict=True,
    reason="the 64 window samples lie 1/63 apart, so where the interior wave number is "
    "near a multiple of 63 pi the two channels alias and the fit cannot split them",
)
def test_flux_balance_agrees_where_the_samples_are_half_a_wavelength_apart():
    # (eps, m, j) = (197.25, 10, 0) reads 0.72 against the far field's zero
    hp = HorizonUnitsParams(epsilon=197.25, m=10.0, j=0)
    assert horizon_flux_balance(make_ansatz(hp, "regular"), hp) < 1e-6


def test_flux_balance_costs_the_same_at_every_large_eps(monkeypatch):
    # counts, not timings: one potential call for the panel nodes and one
    # for the WKB phase, and 12 panels, at every eps
    calls = _record_routes(monkeypatch)
    potential = dswave.reflection.effective_potential
    shapes = []

    def counted(hp, r):
        shapes.append(np.shape(r))
        return potential(hp, r)

    monkeypatch.setattr(dswave.reflection, "effective_potential", counted)
    costs = []
    for eps in (1e3, 1e4, 4e4):
        hp = HorizonUnitsParams(epsilon=eps, m=50.0, j=1)
        shapes.clear()
        assert horizon_flux_balance(make_ansatz(hp, "regular"), hp) < 1e-6
        route, _, _, _, sol = calls.pop()
        assert route == "riccati" and not calls
        costs.append((len(shapes), sol.n_steps))
    assert costs == [(2, 12)] * 3


def test_fallback_to_rkf78_keeps_its_bits(monkeypatch):
    # a turning point (the sech^2 barrier) and a low interior wave number,
    # (eps, m, j) = (10.5, 10, 0), leave the Riccati route; the result is
    # bit for bit the one of oracle.integrate alone
    barrier = lambda x: 16.0 / np.cosh(x - 5.0) ** 2
    slow = HorizonUnitsParams(epsilon=10.5, m=10.0, j=0)
    cases = [
        (lambda: interior_wave_ratio(barrier, 3.0, 18.20), "needs q > 0"),
        (lambda: horizon_flux_balance(make_ansatz(slow, "regular"), slow), "phase-error estimate"),
    ]
    for case, cause in cases:
        calls = _record_routes(monkeypatch)
        got = case()
        assert [c[0] for c in calls] == ["collocation"]
        route, prob, target, samples, _ = calls[0]
        with pytest.raises(StepFailure, match=cause):
            integrate_riccati(prob, target, 1e-11, samples=samples)

        def refuse(*args, **kwargs):
            raise StepFailure("forced")

        monkeypatch.setattr(dswave.reflection, "integrate_riccati", refuse)
        assert case() == got
        monkeypatch.undo()


def test_flux_balance_guards():
    hp = HorizonUnitsParams(epsilon=4.0, m=5.0, j=0)
    with pytest.raises(EvanescentMode):
        horizon_flux_balance(make_ansatz(HorizonUnitsParams(10.0, 5.0, 0), "regular"), hp)
    slow = HorizonUnitsParams(epsilon=2.0, m=0.9, j=0)
    with pytest.raises(RegimeError, match="eps\\^2 - m\\^2 - 4"):
        horizon_flux_balance(make_ansatz(slow, "regular"), slow)
    ok = HorizonUnitsParams(epsilon=20.0, m=10.0, j=1)
    with pytest.raises(ValueError):
        horizon_flux_balance(make_ansatz(ok, "singular"), ok)
