"""Command-line front end.

Subcommands
-----------
potential   tabulate the effective potential U and barrier factor F over r
wave        tabulate one wave solution (standing f/g or running out/in)
reflect     far-field reflection report, optional sweep, flux cross-check
flat-limit  deviation of the normalized outgoing wave from its flat-space
            reference as R/lam grows
expand      small-X decomposition table plus first-order audit report
classify    singularity classification of a factored-coefficient ODE file

Conventions
-----------
* Exactly one unit system per run: ``--units horizon`` (default) takes
  ``--epsilon --m --j``; ``--units physical`` takes ``--R --lam --mu --j``.
  All tabulated radii are dimensionless (r in units of R), so results are
  invariant under converting a parameter set between the two systems.
* ``--config FILE`` loads defaults from a JSON object whose keys are the
  long flag names (without dashes); explicit command-line flags win.  Each
  value must have its flag's type (``j`` and ``grid`` whole numbers, which
  may be written 2.0); ``null`` counts as absent.
* Working tolerance: ``--tol`` beats the ``DSW_TOL`` environment variable,
  which beats the built-in default 1e-10; it must be finite and positive.
* CSV output: one header row, 17 significant digits, complex values as
  re_*/im_* column pairs.  JSON output: sorted keys, an ``"inputs"`` block
  echoing the resolved parameters, complex values as [re, im] pairs.
  Output is byte-identical for identical configuration (no timestamps,
  no environment-dependent content).

Exit codes
----------
0  success
2  configuration / input errors (bad flags, malformed config or fixture
   files, an unwritable --output, non-finite or negative parameters, a
   potential beyond double range, grids or sweeps longer than MAX_POINTS,
   out-of-domain radii, expansion validity violations)
3  regime / physical-validity errors (evanescent mode, far-field regime
   guard, unsupported mass, non-positive barrier factor)
4  numerical non-convergence (series or integrator failure, far-field
   amplitudes or other intermediates beyond double range)
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .expansion import (
    ExpansionParams,
    ValidityError,
    decompose_hypergeometric,
    first_order_correction_audit,
    first_order_series,
)
from .model import (
    DomainError,
    HorizonUnitsParams,
    ModelParams,
    effective_potential,
    to_horizon_units,
    tortoise,
)
from .oracle import StepFailure, classify_singularities
from .rational_ode import UnfactoredInput
from .reflection import RegimeError, far_field_reflection, horizon_flux_balance
from .special import NonConvergence, PoleError
from .waves import EvanescentMode, UnsupportedMass, connection_residual, eval_running, eval_standing, flat_limit_convergence, make_ansatz

__all__ = ["main", "build_parser", "ConfigError"]

DEFAULT_TOL = 1e-10
# Longest --grid or --sweep accepted; checked before any list is built.
MAX_POINTS = 10_000

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_NUMERICS = 4


class ConfigError(ValueError):
    """Bad command-line / config-file input."""


# ----------------------------------------------------------------- formatting


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(cfg: "RunConfig", text: str) -> None:
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc


def _csv(header: Sequence[str], rows: Sequence[Sequence[float]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _emit_table(
    cfg: "RunConfig", echo: dict, header: Sequence[str], rows: Sequence[Sequence[float]]
) -> None:
    """Write a table as CSV (default) or as a JSON document with inputs echo."""
    if cfg.fmt == "json":
        doc = {
            "inputs": echo,
            "table": {"header": list(header), "rows": [list(map(float, r)) for r in rows]},
        }
        _write_text(cfg, _json_doc(doc))
    else:
        _write_text(cfg, _csv(header, rows))


def _json_ready(obj: Any) -> Any:
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _json_doc(obj: dict) -> str:
    return json.dumps(_json_ready(obj), indent=2, sort_keys=True) + "\n"


# -------------------------------------------------------------- configuration


@dataclass(frozen=True)
class RunConfig:
    """Resolved per-run settings shared by all subcommands."""

    units: str
    tol: float
    output: str | None
    fmt: str


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


# Config-file keys whose flags take text or whole numbers; every other key's
# flag takes a float.
_TEXT_KEYS = frozenset({"units", "format", "output", "sweep", "kind", "scales"})
_INT_KEYS = frozenset({"j", "grid"})


def _config_value(key: str, value: Any) -> Any:
    """A config-file value as the type its flag parses to, or ConfigError naming the key."""
    if key in _TEXT_KEYS:
        if isinstance(value, str):
            return value
        want = "a string"
    elif key in _INT_KEYS:
        want = "an integer"
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            with contextlib.suppress(ValueError):
                return int(value)
    else:
        want = "a number"
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            with contextlib.suppress(ValueError, OverflowError):
                return float(value)
    raise ConfigError(f"config key {key!r} must be {want}, got {json.dumps(value)}")


def _resolve(args: argparse.Namespace, file_cfg: dict, key: str, default: Any = None):
    """Flag value if given, else config-file value (null counts as absent), else default."""
    cli_val = getattr(args, key, None)
    if cli_val is not None:
        return cli_val
    if file_cfg.get(key) is not None:
        return _config_value(key, file_cfg[key])
    return default


def _require(value: Any, flag: str):
    if value is None:
        raise ConfigError(f"missing required parameter --{flag}")
    return value


def _resolve_tol(args: argparse.Namespace, file_cfg: dict) -> float:
    tol = _resolve(args, file_cfg, "tol")
    source = "--tol"
    if tol is None:
        env = os.environ.get("DSW_TOL")
        if env is None:
            return DEFAULT_TOL
        source = "DSW_TOL"
        try:
            tol = float(env)
        except ValueError as exc:
            raise ConfigError(f"DSW_TOL is not a number: {env!r}") from exc
    if not 0.0 < tol < math.inf:
        raise ConfigError(f"{source} must be a finite positive tolerance, got {tol}")
    return tol


def _run_config(args: argparse.Namespace, file_cfg: dict) -> RunConfig:
    units = _resolve(args, file_cfg, "units", "horizon")
    if units not in ("horizon", "physical"):
        raise ConfigError(f"--units must be 'horizon' or 'physical', got {units!r}")
    fmt = _resolve(args, file_cfg, "format", "default")
    if fmt not in ("default", "csv", "json"):
        raise ConfigError(f"--format must be 'csv' or 'json', got {fmt!r}")
    return RunConfig(
        units=units,
        tol=_resolve_tol(args, file_cfg),
        output=_resolve(args, file_cfg, "output"),
        fmt=fmt,
    )


def _physics_params(
    args: argparse.Namespace,
    file_cfg: dict,
    cfg: RunConfig,
    *,
    need_epsilon: bool = True,
) -> tuple[HorizonUnitsParams, dict]:
    """Horizon-units parameters plus the inputs-echo block, per unit system."""
    j = _require(_resolve(args, file_cfg, "j"), "j")
    try:
        if cfg.units == "horizon":
            m = _require(_resolve(args, file_cfg, "m"), "m")
            if need_epsilon:
                epsilon = _require(_resolve(args, file_cfg, "epsilon"), "epsilon")
            else:
                epsilon = _resolve(args, file_cfg, "epsilon", m)
            hp = HorizonUnitsParams(epsilon=epsilon, m=m, j=j)
            echo = {"units": "horizon", "epsilon": epsilon, "m": m, "j": j}
        else:
            R = _require(_resolve(args, file_cfg, "R"), "R")
            lam = _require(_resolve(args, file_cfg, "lam"), "lam")
            mu = _require(_resolve(args, file_cfg, "mu"), "mu")
            hp = to_horizon_units(ModelParams(R=R, lam=lam, mu=mu, j=j))
            echo = {"units": "physical", "R": R, "lam": lam, "mu": mu, "j": j}
    except ValueError as exc:
        if isinstance(exc, (ConfigError, DomainError)):
            raise
        raise ConfigError(str(exc)) from exc
    return hp, echo


def _r_grid(args: argparse.Namespace, file_cfg: dict, lo: float, hi: float, n: int) -> np.ndarray:
    r_min = _resolve(args, file_cfg, "r_min", lo)
    r_max = _resolve(args, file_cfg, "r_max", hi)
    count = _resolve(args, file_cfg, "grid", n)
    if count <= 0:
        raise ConfigError(f"--grid must be a positive point count, got {count}")
    if count > MAX_POINTS:
        raise ConfigError(f"--grid {count} exceeds the limit of {MAX_POINTS} points")
    if not r_min < r_max:
        raise ConfigError(f"need --r-min < --r-max, got {r_min} >= {r_max}")
    if count == 1:
        raise ConfigError("--grid 1 is ambiguous; use at least 2 points")
    return np.linspace(r_min, r_max, count)


# -------------------------------------------------------------- sub-commands


def cmd_potential(args: argparse.Namespace, file_cfg: dict, cfg: RunConfig) -> int:
    hp, echo = _physics_params(args, file_cfg, cfg, need_epsilon=False)
    grid = _r_grid(args, file_cfg, 1e-6, 1.0 - 1e-6, 1000)
    if grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise ConfigError("potential grid must stay strictly inside 0 < r < 1")
    rows = []
    barrier_ok = True
    for r in grid:
        u_val, f_val = effective_potential(hp, float(r))
        if not (math.isfinite(u_val) and math.isfinite(f_val)):
            raise ConfigError(
                f"the potential overflows at r={r:.6g}: m={hp.m:.6g} (j={hp.j}) is too "
                f"large for double precision"
            )
        rows.append((float(r), tortoise(float(r)), u_val, f_val))
        if f_val <= 0.0:
            barrier_ok = False
    _emit_table(cfg, echo, ("r", "r_star", "U", "F"), rows)
    if not barrier_ok:
        print("error: barrier factor F <= 0 on the grid", file=sys.stderr)
        return EXIT_REGIME
    return EXIT_OK


_WAVE_KINDS = ("f", "g", "out", "in")


def cmd_wave(args: argparse.Namespace, file_cfg: dict, cfg: RunConfig) -> int:
    hp, echo = _physics_params(args, file_cfg, cfg)
    kind = _resolve(args, file_cfg, "kind")
    if kind not in _WAVE_KINDS:
        raise ConfigError(f"--kind must be one of {sorted(_WAVE_KINDS)}, got {kind!r}")
    grid = [float(r) for r in _r_grid(args, file_cfg, 0.05, 0.95, 19)]
    ans = make_ansatz(hp, "singular" if kind == "g" else "regular")
    if kind in ("f", "g"):
        values = [eval_standing(ans, r) for r in grid]
    else:
        values = [eval_running(ans, kind, r) for r in grid]
    header = ["r", "re_u", "im_u"]
    rows = [[r, v.real, v.imag] for r, v in zip(grid, values)]
    if args.residuals:
        header.append("connection_residual")
        for row, r in zip(rows, grid):
            row.append(connection_residual(ans, r))
    _emit_table(cfg, {**echo, "kind": kind}, header, rows)
    return EXIT_OK


def _parse_sweep(text: str, units: str) -> tuple[str, list[float]]:
    """Parse 'name=start:stop:step' into the swept parameter and its values."""
    try:
        name, rng = text.split("=", 1)
        start_s, stop_s, step_s = rng.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ConfigError(
            f"--sweep must look like 'epsilon=20:100:5', got {text!r}"
        ) from exc
    allowed = ("epsilon",) if units == "horizon" else ("mu",)
    if name not in allowed:
        raise ConfigError(
            f"--sweep parameter must be one of {allowed} in {units} units, got {name!r}"
        )
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"--sweep bounds and step must be finite numbers, got {text!r}")
    if step <= 0.0 or stop < start:
        raise ConfigError("--sweep needs start <= stop and step > 0")
    if (stop - start) / step >= MAX_POINTS:
        raise ConfigError(f"--sweep {text!r} exceeds the limit of {MAX_POINTS} points")
    values = []
    v = start
    while v <= stop + 1e-9 * step:
        values.append(v)
        v = start + len(values) * step
    return name, values


def _reflect_point(hp: HorizonUnitsParams, tol: float, with_flux: bool) -> dict:
    result = far_field_reflection(hp)
    amps = result.amplitudes
    point = {
        "C1": amps.C1,
        "C2": amps.C2,
        "A_plus": amps.A_plus,
        "A_minus": amps.A_minus,
        "ratio": result.ratio,
        "coefficient": result.coefficient,
        "regime_ok": result.regime_ok,
    }
    if with_flux:
        flux = horizon_flux_balance(make_ansatz(hp, "regular"), hp, tol=min(tol, 1e-11))
        point["flux_ratio"] = flux
        point["flux_vs_far_field"] = abs(flux - result.ratio)
    return point


def cmd_reflect(args: argparse.Namespace, file_cfg: dict, cfg: RunConfig) -> int:
    sweep = _resolve(args, file_cfg, "sweep")
    with_flux = not args.no_flux
    if sweep is None:
        hp, echo = _physics_params(args, file_cfg, cfg)
        point = _reflect_point(hp, cfg.tol, with_flux)
        doc = {"inputs": {**echo, "tol": cfg.tol}, "report": point}
        if cfg.fmt == "csv":
            header, row = _sweep_row(None, None, point)
            _write_text(cfg, _csv(header, [row]))
        else:
            _write_text(cfg, _json_doc(doc))
        return EXIT_OK

    name, values = _parse_sweep(sweep, cfg.units)
    rows = []
    header: list[str] | None = None
    echo: dict = {}
    for v in values:
        setattr(args, name, v)
        hp, echo = _physics_params(args, file_cfg, cfg)
        point = _reflect_point(hp, cfg.tol, with_flux)
        header, row = _sweep_row(name, v, point)
        rows.append(row)
    echo.pop(name, None)
    if cfg.fmt == "json":
        doc = {
            "inputs": {**echo, "sweep": sweep, "tol": cfg.tol},
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _write_text(cfg, _json_doc(doc))
    else:
        _write_text(cfg, _csv(header, rows))
    return EXIT_OK


def _sweep_row(name: str | None, value: float | None, point: dict) -> tuple[list[str], list[float]]:
    header: list[str] = [] if name is None else [name]
    row: list[float] = [] if value is None else [value]
    for key in ("C1", "C2", "A_plus", "A_minus"):
        header += [f"re_{key}", f"im_{key}"]
        row += [point[key].real, point[key].imag]
    header += ["ratio", "coefficient", "regime_ok"]
    row += [point["ratio"], point["coefficient"], float(point["regime_ok"])]
    if "flux_ratio" in point:
        header.append("flux_ratio")
        row.append(point["flux_ratio"])
    return header, row


def cmd_flat_limit(args: argparse.Namespace, file_cfg: dict, cfg: RunConfig) -> int:
    mu = _require(_resolve(args, file_cfg, "mu"), "mu")
    j = _require(_resolve(args, file_cfg, "j"), "j")
    kr = _resolve(args, file_cfg, "kr", 0.5)
    fixed_kappa = _resolve(args, file_cfg, "fixed_kappa")
    scales_text = _resolve(args, file_cfg, "scales", "1e3,1e4,1e5,1e6")
    try:
        scales = [float(s) for s in scales_text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --scales list: {scales_text!r}") from exc
    if not scales:
        raise ConfigError("--scales must name at least one R/lam value")
    try:
        p = ModelParams(R=1.0, lam=1.0, mu=mu, j=j)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = flat_limit_convergence(p, scales, kr, fixed_kappa=fixed_kappa)
    echo = {"mu": mu, "j": j, "kr": kr, "scales": scales}
    if fixed_kappa is not None:
        echo["fixed_kappa"] = fixed_kappa
    _emit_table(cfg, echo, ("R_over_lambda", "deviation"), rows)
    return EXIT_OK


def cmd_expand(args: argparse.Namespace, file_cfg: dict, cfg: RunConfig) -> int:
    mu = _require(_resolve(args, file_cfg, "mu"), "mu")
    X = _require(_resolve(args, file_cfg, "X"), "X")
    j = _require(_resolve(args, file_cfg, "j"), "j")
    grid = _r_grid(args, file_cfg, 0.5, 4.0, 15)
    if grid[0] <= 0.0:
        raise ConfigError("expansion radii must be positive")
    if grid[-1] * X >= 1.0:
        raise ConfigError(
            f"r_max * X = {grid[-1] * X} >= 1: outside the series' reach"
        )
    ep = ExpansionParams(mu, X, j)
    dec = decompose_hypergeometric(ep, grid)

    # closed-form vs term-by-term first order, relative to the leading order
    scale = float(np.max(np.abs(dec.F0)))
    identity_err = max(
        abs(first_order_series(ep, float(r), "regular") - f1) / scale
        for r, f1 in zip(grid, dec.F1)
    )

    # second-order remainder must shrink like X^2: slope over a decade ladder
    ladder = [X, X / 10.0, X / 100.0]
    decs = [dec] + [decompose_hypergeometric(ExpansionParams(mu, x, j), grid) for x in ladder[1:]]
    remainders = [float(np.max(np.abs(d.F2_residual))) * x * x for d, x in zip(decs, ladder)]
    slope = float(
        np.polyfit(np.log10(ladder), np.log10(remainders), 1)[0]
    )

    audit = first_order_correction_audit(ep)
    doc = {
        "inputs": {"mu": mu, "X": X, "j": j, "r_min": float(grid[0]), "r_max": float(grid[-1]), "grid": int(grid.size), "tol": cfg.tol},
        "first_order_identity_error": identity_err,
        "remainder": {
            "X_ladder": ladder,
            "max_abs": remainders,
            "log_slope": slope,
        },
        "audit": {
            "order0_fit_residual": audit.order0_fit_residual,
            "order1_fit_residual": audit.order1_fit_residual,
            "order0_is_two_exponentials": audit.order0_fit_residual < 1e-2,
            "order1_is_two_exponentials": audit.order1_fit_residual < 1e-2,
            "first_order_slope": audit.first_order_slope,
            "kr_window": list(audit.kr_window),
            "n_points": audit.n_points,
        },
    }
    header = (
        "r",
        "F0",
        "re_F1",
        "im_F1",
        "re_F2_residual",
        "im_F2_residual",
        "G0",
        "re_G1",
        "im_G1",
        "re_G2_residual",
        "im_G2_residual",
    )
    rows = [
        (
            float(r),
            float(dec.F0[i].real),
            dec.F1[i].real,
            dec.F1[i].imag,
            dec.F2_residual[i].real,
            dec.F2_residual[i].imag,
            float(dec.G0[i].real),
            dec.G1[i].real,
            dec.G1[i].imag,
            dec.G2_residual[i].real,
            dec.G2_residual[i].imag,
        )
        for i, r in enumerate(grid)
    ]
    if cfg.fmt == "csv":
        _write_text(cfg, _csv(header, rows))
    else:
        doc["table"] = {"header": list(header), "rows": [list(row) for row in rows]}
        _write_text(cfg, _json_doc(doc))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace, file_cfg: dict, cfg: RunConfig) -> int:
    try:
        with open(args.coefficients, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read coefficient file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"coefficient file is not valid JSON: {exc}") from exc
    report = classify_singularities(data)
    doc = {"inputs": {"coefficients": os.path.basename(args.coefficients)}}
    doc.update(report.to_json())
    _write_text(cfg, _json_doc(doc))
    return EXIT_OK


# ------------------------------------------------------------------- parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with default parameter values")
    sub.add_argument("--units", choices=("horizon", "physical"))
    sub.add_argument("--tol", type=float, help="working tolerance (beats DSW_TOL)")
    sub.add_argument("--output", help="write to this file instead of stdout")
    sub.add_argument("--format", dest="format", choices=("csv", "json"))


def _add_physics(sub: argparse.ArgumentParser, *, epsilon: bool = True) -> None:
    if epsilon:
        sub.add_argument("--epsilon", type=float, help="epsilon = mu R/lam (horizon units)")
    sub.add_argument("--m", type=float, help="m = R/lam (horizon units)")
    sub.add_argument("--j", type=int, help="angular momentum quantum number")
    sub.add_argument("--R", type=float, help="horizon radius (physical units)")
    sub.add_argument("--lam", type=float, help="reduced wavelength scale (physical units)")
    sub.add_argument("--mu", type=float, help="mass ratio mu (physical units)")


def _add_grid(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid", type=int, help="number of radial grid points")
    sub.add_argument("--r-min", dest="r_min", type=float)
    sub.add_argument("--r-max", dest="r_max", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dswave",
        description="Waves on a static cosmological-horizon background.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pot = sub.add_parser("potential", help="tabulate U(r) and the barrier factor F")
    _add_common(p_pot)
    _add_physics(p_pot, epsilon=False)
    p_pot.add_argument("--epsilon", type=float, help="unused by the potential; accepted for config reuse")
    _add_grid(p_pot)
    p_pot.set_defaults(func=cmd_potential)

    p_wave = sub.add_parser("wave", help="tabulate a standing or running wave")
    _add_common(p_wave)
    _add_physics(p_wave)
    p_wave.add_argument("--kind", choices=_WAVE_KINDS, help="f | g | out | in")
    p_wave.add_argument(
        "--residuals",
        action="store_true",
        help="append the standing-vs-running connection residual column",
    )
    _add_grid(p_wave)
    p_wave.set_defaults(func=cmd_wave)

    p_ref = sub.add_parser("reflect", help="far-field reflection report")
    _add_common(p_ref)
    _add_physics(p_ref)
    p_ref.add_argument("--sweep", help="e.g. epsilon=20:100:5 (inclusive endpoints)")
    p_ref.add_argument(
        "--no-flux",
        action="store_true",
        help="skip the slower flux-balance ODE cross-check",
    )
    p_ref.set_defaults(func=cmd_reflect)

    p_flat = sub.add_parser(
        "flat-limit",
        aliases=["flat_limit"],
        help="flat-space convergence table over R/lam",
    )
    _add_common(p_flat)
    p_flat.add_argument("--mu", type=float, help="mass ratio mu > 1")
    p_flat.add_argument("--j", type=int)
    p_flat.add_argument("--kr", type=float, help="dimensionless radius k*r of the probe")
    p_flat.add_argument(
        "--scales", help="comma list of R/lam values (default 1e3,1e4,1e5,1e6)"
    )
    p_flat.add_argument(
        "--fixed-kappa",
        dest="fixed_kappa",
        type=float,
        help="pin the dimensionless wave number (flat-limit-violating probe)",
    )
    p_flat.set_defaults(func=cmd_flat_limit)

    p_exp = sub.add_parser("expand", help="small-X decomposition and audit")
    _add_common(p_exp)
    p_exp.add_argument("--mu", type=float, help="mass ratio mu > 1")
    p_exp.add_argument("--X", type=float, help="expansion parameter lam/R in (0, 0.1]")
    p_exp.add_argument("--j", type=int)
    _add_grid(p_exp)
    p_exp.set_defaults(func=cmd_expand)

    p_cls = sub.add_parser(
        "classify", help="classify singular points of a factored-coefficient ODE"
    )
    _add_common(p_cls)
    p_cls.add_argument("coefficients", help="JSON file with factored p and q")
    p_cls.set_defaults(func=cmd_classify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    func: Callable[[argparse.Namespace, dict, RunConfig], int] = args.func
    try:
        file_cfg = _load_config_file(args.config)
        return func(args, file_cfg, _run_config(args, file_cfg))
    except (NonConvergence, StepFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except OverflowError as exc:
        print(f"error: double-precision overflow ({exc}); the parameters are too large", file=sys.stderr)
        return EXIT_NUMERICS
    except (RegimeError, EvanescentMode, UnsupportedMass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except (ConfigError, UnfactoredInput, DomainError, ValidityError, PoleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
