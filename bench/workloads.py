"""Seeded inputs, operations, references and checks of the benchmark workloads.

Each workload is a fixed list of cells.  A seed only jitters the inputs inside
each cell, so every seed yields the same number of operations per cell and a
comparable cost.  The package receives nothing but the generated numbers and
command lines.

References are computed with mpmath at 40 digits, called directly (never
through ``dswave.oracle``), from the formulas the package documents; they are
computed before any timed region.  Checks hold every operation to a promise
the package documents:

* far-field reflection ratio < 1e-10, flux-balance gap < 1e-6 (criterion 1);
* connection residual < 1e-10 (criterion 4), which also bounds wave values
  against the reference;
* the RKF7(8) standing wave within 1e-8 of the closed form (criterion 3);
* for CLI calls: the exit code, byte-identical output on repeat, one
  ``error:`` line on failure, and the invariants the CLI tests pin down.

Calls into the package go through module attributes (``waves.eval_standing``,
never a name imported into this file), so the traced run sees them.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import mpmath as mp
import numpy as np

import dswave
from dswave import cli, model, oracle, reflection, waves

DPS = 40
REFLECTION_TOL = 1e-10
FLUX_GAP_TOL = 1e-6
VALUE_RTOL = 1e-10
ODE_RTOL = 1e-8
# cap for -log10 of an error that is exactly zero
MAX_DIGITS = 17.0

FIXTURES = Path(dswave.__file__).parent / "fixtures"


@dataclass(frozen=True)
class Op:
    """One operation: its stratum, its kind and the generated inputs."""

    cell: str
    kind: str
    args: tuple


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: float | None = None  # -log10(relative error), when the op has one
    note: str = ""


def _digits(err: float) -> float:
    return MAX_DIGITS if err <= 0.0 else min(MAX_DIGITS, -math.log10(err))


def _rel(err: float, scale: float) -> float:
    return err / scale if scale > 0.0 else err


# --------------------------------------------------------------- mpmath refs


def _mp_params(eps: float, m: float, j: int, family: str):
    """(kappa, a, b, c) of a standing family, from the documented ansatz."""
    s = mp.sqrt(mp.mpf(m) ** 2 - mp.mpf(1) / 4)
    a = mp.mpf(3) / 4 + mp.mpf(j) / 2 + 1j * (s - eps) / 2
    b = mp.mpf(3) / 4 + mp.mpf(j) / 2 - 1j * (s + eps) / 2
    c = mp.mpf(j) + mp.mpf(3) / 2
    if family == "regular":
        return mp.mpf(j) / 2, a, b, c
    return -mp.mpf(j + 1) / 2, a - c + 1, b - c + 1, 2 - c


def _mp_running(eps, m, j, family, direction, r):
    kappa, a, b, c = _mp_params(eps, m, j, family)
    z = mp.mpf(r) ** 2
    sigma = -1j * mp.mpf(eps) / 2
    if direction == "out":
        return z**kappa * mp.exp(sigma * mp.log(1 - z)) * mp.hyp2f1(a, b, a + b - c + 1, 1 - z)
    return z**kappa * mp.exp(-sigma * mp.log(1 - z)) * mp.hyp2f1(c - a, c - b, c - a - b + 1, 1 - z)


def ref_standing(eps: float, m: float, j: int, family: str, r: float) -> tuple[complex, float]:
    """Standing wave z^k (1-z)^s F(a,b;c;z) and its amplitude envelope.

    The envelope |to_out U_out| + |to_in U_in| bounds |standing| and does not
    vanish at the standing wave's nodes, so errors are measured against it.
    """
    with mp.workdps(DPS):
        kappa, a, b, c = _mp_params(eps, m, j, family)
        z = mp.mpf(r) ** 2
        sigma = -1j * mp.mpf(eps) / 2
        value = z**kappa * mp.exp(sigma * mp.log(1 - z)) * mp.hyp2f1(a, b, c, z)
        to_out = mp.exp(mp.loggamma(c) + mp.loggamma(c - a - b) - mp.loggamma(c - a) - mp.loggamma(c - b))
        to_in = mp.exp(mp.loggamma(c) + mp.loggamma(a + b - c) - mp.loggamma(a) - mp.loggamma(b))
        envelope = abs(to_out * _mp_running(eps, m, j, family, "out", r)) + abs(
            to_in * _mp_running(eps, m, j, family, "in", r)
        )
        return complex(value), float(envelope)


def ref_running(eps: float, m: float, j: int, direction: str, r: float) -> complex:
    with mp.workdps(DPS):
        return complex(_mp_running(eps, m, j, "regular", direction, r))


def ref_potential(m: float, j: int, r: float) -> tuple[float, float]:
    """U and the force factor F = -Phi dU/dr of the documented closed form."""
    with mp.workdps(DPS):
        r = mp.mpf(r)
        cent = j * (j + 1)
        phi = 1 - r * r
        w = 4 * (1 - r) + r / (1 + r) + mp.mpf(m) ** 2 + cent / (r * r)
        dw = -4 + 1 / (1 + r) ** 2 - 2 * cent / r**3
        du = -2 * r * w + phi * dw  # dU/dr
        return float(phi * w), float(-phi * du)


# -------------------------------------------------------------- flux-verdict

# (j, mu, m) cell centres; the seed jitters each by +-0.5%, and every
# jittered point satisfies eps^2 - m^2 > 100 j^2
FLUX_CELLS = (
    (0, 1.55, 10.25),
    (0, 4.9, 49.0),
    (1, 3.0, 10.25),
    (1, 1.55, 49.0),
    (2, 4.9, 10.25),
    (2, 3.0, 30.0),
    (3, 1.55, 30.0),
    (3, 4.9, 30.0),
    (4, 3.0, 30.0),
    (4, 1.55, 49.0),
    (5, 3.0, 49.0),
    (5, 4.9, 49.0),
)
# (j, eps, mu) centres of the criterion-3-style ODE operations, jittered alike
ODE_CELLS = (
    (0, 5.25, 1.7),
    (1, 5.25, 2.2),
    (2, 10.5, 2.0),
    (0, 10.5, 2.75),
    (1, 15.75, 2.5),
    (2, 15.75, 1.65),
    (0, 21.0, 2.5),
    (1, 21.0, 2.0),
    (2, 29.5, 2.5),
    (0, 29.5, 1.65),
    (1, 38.0, 2.0),
    (2, 38.0, 2.5),
)
ODE_GRID = tuple(float(r) for r in np.linspace(0.05, 0.95, 19))
ODE_R0 = 1e-3


def regime_valid(mu: float, m: float, j: int) -> bool:
    """The default-margin regime check, restated: eps^2 - m^2 > 100 j^2."""
    eps = mu * m
    return eps * eps - m * m > 100.0 * j * j


def _jitter(rng: random.Random, centre: float) -> float:
    return centre * rng.uniform(0.995, 1.005)


def _gen_flux(rng: random.Random) -> list[Op]:
    flux = []
    for j, mu0, m0 in FLUX_CELLS:
        while True:
            mu, m = _jitter(rng, mu0), _jitter(rng, m0)
            if regime_valid(mu, m, j):
                break
        flux.append(Op(f"flux-j{j}-mu{mu0:g}-m{m0:g}", "flux", (mu, j, m)))
    ode = []
    for j, eps0, mu0 in ODE_CELLS:
        eps = _jitter(rng, eps0)
        ode.append(Op(f"ode-j{j}-eps{eps0:g}", "ode", (eps, eps / _jitter(rng, mu0), j)))
    return [op for pair in zip(flux, ode) for op in pair]


def run_flux(mu: float, j: int, m: float) -> tuple[float, float]:
    res = reflection.reflection_coefficient(model.ModelParams(R=m, lam=1.0, mu=mu, j=j))
    hp = model.HorizonUnitsParams(epsilon=mu * m, m=m, j=j)
    flux = reflection.horizon_flux_balance(waves.make_ansatz(hp, "regular"), hp)
    return res.ratio, flux


def check_flux(op: Op, out: tuple[float, float], ref: None) -> Verdict:
    ratio, flux = out
    gap = abs(flux - ratio)
    ok = ratio < REFLECTION_TOL and gap < FLUX_GAP_TOL
    return Verdict(ok, _digits(gap), f"ratio={ratio:.3e} gap={gap:.3e}")


def run_ode(eps: float, m: float, j: int) -> tuple[np.ndarray, np.ndarray]:
    hp = model.HorizonUnitsParams(epsilon=eps, m=m, j=j)
    ans = waves.make_ansatz(hp, "regular")
    co = model.radial_ode_coefficients(hp)
    # two-term Frobenius launch of the regular wave at r0 (criterion 3)
    c1 = ans.a * ans.b / ans.c + 0.5j * eps
    u0 = ODE_R0**j * (1.0 + c1 * ODE_R0 * ODE_R0)
    du0 = ODE_R0 ** (j - 1) * (j + (j + 2.0) * c1 * ODE_R0 * ODE_R0)
    prob = oracle.OdeProblem(p=co.p, q=co.q, r0=ODE_R0, u0=u0, du0=du0, direction=+1)
    sol = oracle.integrate(prob, ODE_GRID[-1], tol=1e-12, samples=ODE_GRID)
    closed = np.array([waves.eval_standing(ans, r) for r in ODE_GRID])
    return sol.u, closed


def ref_ode(eps: float, m: float, j: int) -> np.ndarray:
    return np.array([ref_standing(eps, m, j, "regular", r)[0] for r in ODE_GRID])


def check_ode(op: Op, out: tuple[np.ndarray, np.ndarray], ref: np.ndarray) -> Verdict:
    u, closed = out
    scale = float(np.max(np.abs(ref)))
    err_ode = float(np.max(np.abs(u * (ref[0] / u[0]) - ref))) / scale
    err_closed = float(np.max(np.abs(closed - ref))) / scale
    ok = err_ode < ODE_RTOL and err_closed < VALUE_RTOL
    return Verdict(ok, _digits(max(err_ode, err_closed)), f"ode={err_ode:.2e} closed={err_closed:.2e}")


# ----------------------------------------------------------------- wave-grid

WAVE_EPS = (10.0, 50.0, 200.0, 1000.0)
# radius level and half-width of its jitter
WAVE_R = ((0.1, 0.0005), (0.5, 0.0005), (0.9, 0.0005), (0.99, 0.0002))
WAVE_KINDS = (
    ("standing", "regular"),
    ("standing", "singular"),
    ("running", "out"),
    ("running", "in"),
    ("residual", None),
)
MU_BANDS = 5  # [1.5, 5] split into equal bands; mu sits at a band centre


def wave_cell(eps: float, r: float) -> str:
    return f"e{eps:g}_r{r:g}"


def _gen_wave(rng: random.Random) -> list[Op]:
    ops = []
    for e_idx, eps0 in enumerate(WAVE_EPS):
        for r_idx, (r0, dr) in enumerate(WAVE_R):
            cell_idx = len(WAVE_R) * e_idx + r_idx
            cell = wave_cell(eps0, r0)
            kinds = WAVE_KINDS
            if (e_idx + r_idx) % 2 == 0:
                # connection_residual repeats a standing and both running
                # evaluations; on a checkerboard half of the grid it keeps a
                # pass short enough for several passes per run
                kinds = kinds[:-1]
            for k, (kind, sub) in enumerate(kinds):
                # a fixed (kind, cell) -> (mu band, j) map and narrow jitter
                # keep the cost of a cell nearly the same for every seed: the
                # rescue's precision ladder moves with mu, eps and r
                band = (k + cell_idx) % MU_BANDS
                mu = _jitter(rng, 1.5 + (band + 0.5) * 3.5 / MU_BANDS)
                j = (k + cell_idx) % 3
                eps = _jitter(rng, eps0)
                r = rng.uniform(r0 - dr, r0 + dr)
                if kind == "residual":
                    sub = "regular" if e_idx % 2 == 0 else "singular"
                ops.append(Op(cell, kind, (sub, eps, eps / mu, j, r)))
    return ops


def _hp(eps: float, m: float, j: int) -> model.HorizonUnitsParams:
    return model.HorizonUnitsParams(epsilon=eps, m=m, j=j)


def run_standing(family, eps, m, j, r) -> complex:
    return waves.eval_standing(waves.make_ansatz(_hp(eps, m, j), family), r)


def run_running(direction, eps, m, j, r) -> complex:
    return waves.eval_running(waves.make_ansatz(_hp(eps, m, j), "regular"), direction, r)


def run_residual(family, eps, m, j, r) -> float:
    return waves.connection_residual(waves.make_ansatz(_hp(eps, m, j), family), r)


def check_standing(op: Op, out: complex, ref: tuple[complex, float]) -> Verdict:
    value, envelope = ref
    err = _rel(abs(out - value), envelope)
    return Verdict(err < VALUE_RTOL, _digits(err), f"err={err:.2e}")


def check_running(op: Op, out: complex, ref: complex) -> Verdict:
    err = _rel(abs(out - ref), abs(ref))
    return Verdict(err < VALUE_RTOL, _digits(err), f"err={err:.2e}")


def check_residual(op: Op, out: float, ref: None) -> Verdict:
    return Verdict(out < VALUE_RTOL, None, f"residual={out:.2e}")


# ------------------------------------------------------------------- cli-mix


def _f(x: float) -> str:
    return repr(float(x))


def _gen_cli(rng: random.Random) -> list[Op]:
    u = rng.uniform
    ops: list[Op] = []

    def add(cell: str, argv: list[str], code: int = 0, check: str = "", **params: Any) -> None:
        ops.append(Op(cell, "cli", (tuple(argv), code, check, tuple(sorted(params.items())))))

    m = u(4.0, 6.0)
    add("potential", ["potential", "--m", _f(m), "--j", "1", "--grid", "200"],
        check="potential", m=m, j=1)
    m = u(18.0, 22.0)
    add("potential-json", ["potential", "--m", _f(m), "--j", "3", "--grid", "400", "--format", "json"],
        check="potential", m=m, j=3)
    R = u(8.0, 12.0)
    add("potential-physical", ["potential", "--units", "physical", "--R", _f(R), "--lam", "1",
                               "--mu", "2", "--j", "0", "--grid", "300"],
        check="potential", m=R, j=0)

    for cell, kind, (e_lo, e_hi), mu, j, extra in (
        ("wave-f", "f", (5.4, 5.6), 2.0, 0, []),
        ("wave-g-json", "g", (9.9, 10.1), 3.0, 1, ["--format", "json"]),
        ("wave-out-residuals", "out", (19.8, 20.2), 2.0, 2, ["--residuals", "--grid", "7"]),
        ("wave-in", "in", (29.7, 30.3), 1.5, 1, ["--grid", "11"]),
        ("wave-out-40", "out", (39.2, 40.0), 2.0, 0, []),
    ):
        eps = u(e_lo, e_hi)
        add(cell, ["wave", "--epsilon", _f(eps), "--m", _f(eps / mu), "--j", str(j), "--kind", kind, *extra],
            check="wave", eps=eps, m=eps / mu, j=j, kind=kind)
    R = u(9.0, 11.0)
    add("wave-physical", ["wave", "--units", "physical", "--R", _f(R), "--lam", "1", "--mu", "1.5",
                          "--j", "1", "--kind", "f", "--grid", "9"],
        check="wave", eps=1.5 * R, m=R, j=1, kind="f")

    eps, m = u(95.0, 105.0), u(45.0, 50.0)
    add("reflect", ["reflect", "--epsilon", _f(eps), "--m", _f(m), "--j", "2", "--no-flux"],
        check="reflect", rows=1)
    eps, m = u(60.0, 70.0), u(20.0, 25.0)
    add("reflect-json", ["reflect", "--epsilon", _f(eps), "--m", _f(m), "--j", "4", "--no-flux",
                         "--format", "json"], check="reflect", rows=1)
    R, mu = u(30.0, 35.0), u(2.0, 3.0)
    add("reflect-physical", ["reflect", "--units", "physical", "--R", _f(R), "--lam", "1", "--mu", _f(mu),
                             "--j", "1", "--no-flux", "--format", "json"], check="reflect", rows=1)
    m, start = u(28.0, 32.0), u(40.0, 45.0)
    add("reflect-sweep", ["reflect", "--m", _f(m), "--j", "1", "--no-flux",
                          "--sweep", f"epsilon={start!r}:{start + 60.0!r}:5"],
        check="reflect", rows=13)
    R, start = u(18.0, 22.0), u(1.5, 1.6)
    add("reflect-sweep-physical", ["reflect", "--units", "physical", "--R", _f(R), "--lam", "1", "--j", "0",
                                   "--no-flux", "--sweep", f"mu={start!r}:{start + 3.0!r}:0.25",
                                   "--format", "json"], check="reflect", rows=13)

    mu = u(1.8, 2.2)
    add("flat-limit", ["flat-limit", "--mu", _f(mu), "--j", "1"], check="flat", rows=4)
    mu, kr = u(2.8, 3.2), u(1.2, 1.6)
    add("flat-limit-kr", ["flat-limit", "--mu", _f(mu), "--j", "0", "--kr", _f(kr),
                          "--scales", "1e3,1e4,1e5"], check="flat", rows=3)
    mu = u(1.4, 1.6)
    add("flat-limit-json", ["flat-limit", "--mu", _f(mu), "--j", "2", "--kr", "0.8", "--format", "json"],
        check="flat", rows=4)
    kappa = u(1.95, 2.05)
    add("flat-limit-fixed-kappa", ["flat_limit", "--mu", "2", "--j", "2", "--scales", "50,100,200,400",
                                   "--fixed-kappa", _f(kappa)], check="flat-violating", rows=4)

    mu, X = u(1.9, 2.1), u(8e-4, 1.2e-3)
    add("expand", ["expand", "--mu", _f(mu), "--X", _f(X), "--j", "0"], check="expand", rows=15, j=0)
    mu, X = u(2.8, 3.2), u(4e-3, 6e-3)
    add("expand-json", ["expand", "--mu", _f(mu), "--X", _f(X), "--j", "1", "--format", "json"],
        check="expand", rows=15, j=1)
    mu, X = u(1.4, 1.6), u(1.5e-2, 2e-2)
    add("expand-grid-json", ["expand", "--mu", _f(mu), "--X", _f(X), "--j", "2", "--grid", "10",
                             "--format", "json"], check="expand", rows=10, j=2)

    for name in ("de_sitter_radial", "schwarzschild_like", "constant_coefficient"):
        add(f"classify-{name}", ["classify", str(FIXTURES / f"{name}.json")], check="classify", fixture=name)

    eps, m = u(5.0, 8.0), u(10.0, 12.0)
    add("error-evanescent", ["reflect", "--epsilon", _f(eps), "--m", _f(m), "--j", "0", "--no-flux"], code=3)
    add("error-evanescent-flat", ["flat-limit", "--mu", _f(u(0.5, 0.9)), "--j", "0"], code=3)
    add("error-missing-epsilon", ["reflect", "--m", _f(u(10.0, 20.0)), "--j", "1", "--no-flux"], code=2)
    add("error-missing-m", ["wave", "--epsilon", _f(u(10.0, 20.0)), "--j", "0", "--kind", "f"], code=2)
    add("error-missing-X", ["expand", "--mu", _f(u(1.5, 3.0)), "--j", "0"], code=2)
    return ops


def run_cli(argv: tuple, code: int, check: str, params: tuple) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _table(text: str) -> tuple[list[str], list[list[float]]]:
    """Header and rows of a CSV table or of a JSON document's table."""
    if text.startswith("{"):
        table = json.loads(text)["table"]
        return table["header"], table["rows"]
    lines = text.strip().splitlines()
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _reflect_rows(text: str) -> list[dict]:
    if text.startswith("{"):
        doc = json.loads(text)
        if "rows" in doc:
            return doc["rows"]
        rep = doc["report"]
        return [{"ratio": rep["ratio"], "coefficient": rep["coefficient"], "regime_ok": float(rep["regime_ok"])}]
    header, rows = _table(text)
    return [dict(zip(header, row)) for row in rows]


def _invariants(check: str, p: dict, text: str) -> Verdict:
    """Documented properties of one successful CLI output."""
    if check == "potential":
        header, rows = _table(text)
        errs = []
        for r, r_star, u_val, f_val in rows:
            u_ref, f_ref = ref_potential(p["m"], p["j"], r)
            errs += [abs(u_val - u_ref) / u_ref, abs(f_val - f_ref) / f_ref,
                     abs(r_star - math.atanh(r)) / math.atanh(r)]
            if f_val <= 0.0:
                return Verdict(False, None, f"barrier factor F={f_val} <= 0 at r={r}")
        worst = max(errs)
        ok = header == ["r", "r_star", "U", "F"] and worst < VALUE_RTOL
        return Verdict(ok, _digits(worst), f"rows={len(rows)} err={worst:.2e}")
    if check == "wave":
        header, rows = _table(text)
        kind = p["kind"]
        got = np.array([complex(row[1], row[2]) for row in rows])
        if kind in ("f", "g"):
            family = "regular" if kind == "f" else "singular"
            ref = np.array([ref_standing(p["eps"], p["m"], p["j"], family, row[0])[0] for row in rows])
        else:
            ref = np.array([ref_running(p["eps"], p["m"], p["j"], kind, row[0]) for row in rows])
        err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
        ok = header[:3] == ["r", "re_u", "im_u"] and err < VALUE_RTOL
        if header[-1] == "connection_residual":
            ok = ok and max(row[-1] for row in rows) < VALUE_RTOL
        return Verdict(ok, _digits(err), f"rows={len(rows)} err={err:.2e}")
    if check == "reflect":
        rows = _reflect_rows(text)
        ok = len(rows) == p["rows"]
        for row in rows:
            ok = ok and row["coefficient"] == row["ratio"] * row["ratio"]
            if row["regime_ok"]:
                ok = ok and row["ratio"] < REFLECTION_TOL
        worst = max(row["ratio"] for row in rows)
        return Verdict(ok, None, f"rows={len(rows)} max_ratio={worst:.2e}")
    if check in ("flat", "flat-violating"):
        _, rows = _table(text)
        devs = [row[1] for row in rows]
        decreasing = all(b < a for a, b in zip(devs, devs[1:]))
        if check == "flat":
            ok = decreasing
        else:  # pinned wave number: the deviation stays O(1) and non-monotone
            ok = not decreasing and min(devs) > 0.1
        return Verdict(ok and len(rows) == p["rows"], None, f"devs={[f'{d:.2e}' for d in devs]}")
    if check == "expand":
        _, rows = _table(text)
        ok = len(rows) == p["rows"] and all(len(row) == 11 for row in rows)
        if text.startswith("{"):
            doc = json.loads(text)
            aud = doc["audit"]
            ok = (
                ok
                and doc["first_order_identity_error"] < VALUE_RTOL
                and abs(doc["remainder"]["log_slope"] - 2.0) < 0.1
                and abs(aud["first_order_slope"] - 1.0) < 0.1
                and not aud["order1_is_two_exponentials"]
                and (p["j"] != 0 or aud["order0_is_two_exponentials"])
            )
        return Verdict(ok, None, f"rows={len(rows)}")
    if check == "classify":
        doc = json.loads(text)
        locs = {pt["location"] for pt in doc["points"]}
        cls = doc["classification"]
        if p["fixture"] == "de_sitter_radial":
            z0 = next(pt for pt in doc["points"] if pt["location"] == "0")
            ok = (cls.startswith("hypergeometric_class") and locs == {"0", "1", "infinity"}
                  and sorted(z0["exponents"]) == ["-1", "1/2"])
        elif p["fixture"] == "schwarzschild_like":
            ok = cls.startswith("heun_class") and len(locs) == 4
        else:
            ok = cls.startswith("other")
        return Verdict(ok, None, cls)
    raise ValueError(f"unknown CLI check {check!r}")


def ref_cli(argv: tuple, code: int, check: str, params: tuple) -> tuple[tuple[int, str, str], Verdict]:
    """Runs the call once, untimed: its output is what every repeat must match."""
    first = run_cli(argv, code, check, params)
    rc, out, err = first
    if rc != code:
        return first, Verdict(False, None, f"exit {rc}, expected {code}: {err.strip()}")
    if code != 0:
        lines = err.splitlines()
        ok = out == "" and len(lines) == 1 and lines[0].startswith("error: ")
        return first, Verdict(ok, None, err.strip())
    if err:
        return first, Verdict(False, None, f"unexpected stderr: {err.strip()}")
    return first, _invariants(check, dict(params), out)


def check_cli(op: Op, out: tuple[int, str, str], ref: tuple[tuple[int, str, str], Verdict]) -> Verdict:
    first, verdict = ref
    if out != first:
        return Verdict(False, None, "output differs from the first run")
    return verdict


# ------------------------------------------------------------------ registry


@dataclass(frozen=True)
class Kind:
    run: Callable
    reference: Callable
    check: Callable


KINDS = {
    "flux": Kind(run_flux, lambda *a: None, check_flux),
    "ode": Kind(run_ode, ref_ode, check_ode),
    "standing": Kind(run_standing, lambda fam, e, m, j, r: ref_standing(e, m, j, fam, r), check_standing),
    "running": Kind(run_running, lambda d, e, m, j, r: ref_running(e, m, j, d, r), check_running),
    "residual": Kind(run_residual, lambda *a: None, check_residual),
    "cli": Kind(run_cli, ref_cli, check_cli),
}


@dataclass(frozen=True)
class Workload:
    """A fixed cell list plus how its passes are scheduled (the reason for
    each workload is in BENCHMARK.json and bench/README.md).

    tail_pct is the op_tail_ms percentile; min_passes guarantees that at
    least ten samples lie beyond it.  warm_cells names the cells run once,
    untimed, before measuring, so lazy imports and caches are settled.
    """

    generate: Callable[[random.Random], list[Op]]
    tail_pct: float
    min_passes: int
    warm_cells: tuple[str, ...]


WORKLOADS = {
    "flux-verdict": Workload(_gen_flux, 90.0, 5, ("flux-j1-mu3-m10.25", "ode-j0-eps5.25")),
    "wave-grid": Workload(_gen_wave, 95.0, 4, (wave_cell(10.0, 0.5), wave_cell(200.0, 0.1))),
    "cli-mix": Workload(_gen_cli, 95.0, 10, ()),
}


def make_ops(workload: str, seed: int) -> list[Op]:
    """The workload's operations for this seed (same seed, same inputs)."""
    return WORKLOADS[workload].generate(random.Random(f"{workload}:{seed}"))


def run(op: Op) -> Any:
    return KINDS[op.kind].run(*op.args)


def reference(op: Op) -> Any:
    return KINDS[op.kind].reference(*op.args)


def check(op: Op, out: Any, ref: Any) -> Verdict:
    return KINDS[op.kind].check(op, out, ref)
