"""Background geometry: units, tortoise map, effective potential."""
from __future__ import annotations

import math

import numpy as np
import pytest

from dswave.model import (
    DomainError,
    HorizonUnitsParams,
    ModelParams,
    effective_potential,
    phi,
    potential_profile,
    radial_ode_coefficients,
    to_horizon_units,
    tortoise,
    tortoise_inverse,
)


def test_phi_values():
    assert phi(0.0) == 1.0
    assert phi(0.5) == 0.75
    assert phi(1.0) == 0.0


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(R=-1.0, lam=1.0, mu=2.0, j=0)
    with pytest.raises(ValueError):
        ModelParams(R=1.0, lam=1.0, mu=2.0, j=-1)
    with pytest.raises(ValueError, match="j must"):
        HorizonUnitsParams(epsilon=10.0, m=5.0, j=10**200)  # j(j+1) beyond double


def test_units_round_trip_exact():
    p = ModelParams(R=7.3, lam=0.41, mu=2.2, j=3)
    hp = to_horizon_units(p)
    assert hp.m == p.R / p.lam
    assert hp.epsilon == p.mu * hp.m
    assert hp.j == p.j


def test_units_from_bare_horizon_params():
    hp = HorizonUnitsParams(epsilon=10.0, m=5.0, j=1)
    assert hp.mu == 2.0
    assert hp.p == 1.5


def test_tortoise_round_trip():
    for r in (0.0, 0.3, 0.9, 0.999999):
        assert abs(tortoise_inverse(tortoise(r)) - r) < 1e-14
    assert tortoise(0.5) == math.atanh(0.5)
    with pytest.raises(DomainError):
        tortoise(1.0)
    with pytest.raises(DomainError):
        tortoise_inverse(-0.1)


def test_effective_potential_closed_form():
    hp = HorizonUnitsParams(epsilon=1.0, m=5.0, j=0)
    u, f = effective_potential(hp, 0.5)
    w = 4.0 * 0.5 + 0.5 / 1.5 + 25.0
    assert abs(u - 0.75 * w) < 1e-13
    # force agrees with a central difference of U along the tortoise axis
    h = 1e-6
    r_lo, r_hi = tortoise_inverse(tortoise(0.5) - h), tortoise_inverse(tortoise(0.5) + h)
    fd = -(effective_potential(hp, r_hi)[0] - effective_potential(hp, r_lo)[0]) / (2 * h)
    assert abs(f - fd) < 1e-6 * max(1.0, abs(f))


def test_effective_potential_domain():
    hp0 = HorizonUnitsParams(epsilon=1.0, m=0.0, j=0)
    u, f = effective_potential(hp0, 0.0)
    assert u == 4.0 and f == 3.0
    with pytest.raises(DomainError):
        effective_potential(HorizonUnitsParams(epsilon=1.0, m=1.0, j=1), 0.0)
    with pytest.raises(DomainError):
        effective_potential(hp0, 1.0)


def test_effective_potential_arrays_match_the_float_path():
    r = np.concatenate(([0.0], np.linspace(1e-6, 1.0 - 1e-9, 257)))
    for j, m in ((0, 0.0), (0, 10.0), (5, 49.0)):
        hp = HorizonUnitsParams(epsilon=1.0, m=m, j=j)
        grid = r[1:] if j else r
        u, f = effective_potential(hp, grid)
        assert u.shape == f.shape == grid.shape
        scalar = np.array([effective_potential(hp, float(x)) for x in grid])
        # same formulas; numpy's power may differ from libm's pow by an ulp
        np.testing.assert_allclose(u, scalar[:, 0], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(f, scalar[:, 1], rtol=1e-15, atol=0.0)
    hp1 = HorizonUnitsParams(epsilon=1.0, m=1.0, j=1)
    with pytest.raises(DomainError, match="r=0 is singular"):
        effective_potential(hp1, np.array([0.5, 0.0]))
    with pytest.raises(DomainError, match=r"r=1\.0 outside"):
        effective_potential(hp1, np.array([0.5, 1.0, -1.0]))
    with pytest.raises(DomainError, match="outside"):
        effective_potential(hp1, np.array([np.nan]))


def test_potential_vanishes_at_horizon():
    hp = HorizonUnitsParams(epsilon=1.0, m=0.0, j=0)
    u_half = effective_potential(hp, 0.5)[0]
    u_near = effective_potential(hp, 1.0 - 1e-6)[0]
    assert u_near < 1e-5 * u_half


def test_force_positive_for_all_mass_momentum_combos():
    grid = np.linspace(1e-6, 1.0 - 1e-6, 2000)
    for j in (0, 1, 5):
        for m in (0.0, 1.0, 10.0):
            hp = HorizonUnitsParams(epsilon=1.0, m=m, j=j)
            prof = potential_profile(hp, grid)
            assert np.all(prof.F > 0.0), f"force dips <= 0 at j={j}, m={m}"
            assert np.all(np.diff(prof.r_star) > 0)


def test_radial_coefficients_match_schrodinger_form():
    # the factored p, q reproduce p = (2 - 4r^2)/(r(1-r^2)) and the q assembled
    # from epsilon^2/Phi^2 - (m^2+2)/Phi - j(j+1)/(Phi r^2)
    hp = HorizonUnitsParams(epsilon=10.0, m=5.0, j=1)
    co = radial_ode_coefficients(hp)
    for r in (0.1, 0.37, 0.82):
        f = phi(r)
        p_ref = (2.0 - 4.0 * r * r) / (r * (1.0 - r * r))
        q_ref = 100.0 / (f * f) - 27.0 / f - 2.0 / (f * r * r)
        assert abs(co.p(r) - p_ref) < 1e-12 * abs(p_ref)
        assert abs(co.q(r) - q_ref) < 1e-12 * abs(q_ref)
