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
  long flag names (without dashes); explicit command-line flags win.  Every
  key whose flag the subcommand declares must have that flag's type (``j``
  and ``grid`` whole numbers, which may be written 2.0), whether or not the
  run reads it; ``null`` counts as absent, and other keys are ignored.
* CSV output: one header row, then each row's values written by ``%.17g``
  and joined by commas; complex values as re_*/im_* column pairs.  JSON
  output: a 2-space indent, sorted keys, an ``"inputs"`` block echoing the
  resolved parameters, floats as their shortest round-trip repr, complex
  values as [re, im] pairs, strings ASCII-escaped, and a final newline
  (the bytes of ``json.dumps(doc, indent=2, sort_keys=True)``).
  ``classify`` writes JSON only: ``--format csv``, from the flag or the
  config file, exits 2.
  Output is byte-identical for identical configuration (no timestamps,
  no environment-dependent content).  Every value is written only once the
  whole text is built; a NaN or an infinity in it ends the call with exit 4
  and one error line naming its column and row (CSV) or its key (JSON),
  and nothing is written.

Exit codes
----------
0  success
2  configuration / input errors (bad flags, malformed config or fixture
   files, an unwritable --output, non-finite or negative parameters, a
   potential beyond double range, grids or sweeps longer than MAX_POINTS,
   out-of-domain or repeating radii, expansion validity violations, an
   expansion X^2 remainder below the rounding floor)
3  regime / physical-validity errors (evanescent mode, far-field regime
   guard, unsupported mass, non-positive barrier factor)
4  numerical non-convergence (series or integrator failure, far-field
   amplitudes or other intermediates beyond double range, far-field
   amplitudes with fewer than ten digits, a non-finite value in the output)
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Any, Sequence

import numpy as np

from .expansion import (
    ExpansionParams,
    decompose_hypergeometric,
    first_order_correction_audit,
    first_order_series,
    remainder_ladder,
)
from .model import (
    HorizonUnitsParams,
    ModelParams,
    potential_profile,
    to_horizon_units,
)
from .oracle import StepFailure, classify_singularities
from .reflection import RegimeError, far_field_reflection, horizon_flux_balance
from .special import NonConvergence
from .waves import EvanescentMode, UnsupportedMass, connection_check, eval_running, eval_standing, flat_limit_convergence, make_ansatz

__all__ = ["main", "build_parser", "ConfigError"]

# Longest --grid or --sweep accepted; checked before any list is built.
MAX_POINTS = 10_000

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_NUMERICS = 4


class ConfigError(ValueError):
    """Bad command-line / config-file input."""


# ----------------------------------------------------------------- formatting


class NonFiniteOutput(ArithmeticError):
    """A NaN or an infinity reached a writer, which then writes nothing (exit 4).

    ``path`` collects the JSON keys and list indices down to the value,
    innermost first, as the writer unwinds.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.path: list[str | int] = []


def _write_text(args: argparse.Namespace, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc


# Both writers build the whole text before any of it is written.  "%.17g" and
# float.__repr__ spell every finite double without an "n" and every NaN or
# infinity with one ("nan", "inf"), so one substring test over the finished
# rows or list finds a non-finite value, and a second walk names it.


def _csv(header: Sequence[str], rows: Sequence[Sequence[float]]) -> str:
    """Header line, then one "%.17g,...,%.17g" line per row."""
    head = ",".join(header)
    line = ",".join(["%.17g"] * len(header))
    text = "\n".join([head] + [line % tuple(row) for row in rows]) + "\n"
    if text.find("n", len(head)) >= 0:
        for i, row in enumerate(rows, 1):
            for name, value in zip(header, row):
                if not math.isfinite(value):
                    at = f"row {i}" if name == header[0] else f"{header[0]}={float(row[0])!r} (row {i})"
                    raise NonFiniteOutput(f"non-finite value {float(value)!r} in output column {name!r} at {at}")
    return text


def _columns(named: Sequence[tuple[str, Any]]) -> tuple[list[str], list[float]]:
    """Header and row of named values; a complex value becomes re_name, im_name."""
    header: list[str] = []
    row: list[float] = []
    for name, value in named:
        if isinstance(value, complex):
            header += [f"re_{name}", f"im_{name}"]
            row += [value.real, value.imag]
        else:
            header.append(name)
            row.append(value)
    return header, row


def _emit_table(
    args: argparse.Namespace, echo: dict, header: Sequence[str], rows: Sequence[Sequence[float]]
) -> None:
    """Write a table as CSV (default) or as a JSON document with inputs echo."""
    if args.format == "json":
        doc = {
            "inputs": echo,
            "table": {"header": list(header), "rows": [list(map(float, r)) for r in rows]},
        }
        _write_text(args, _json_doc(doc))
    else:
        _write_text(args, _csv(header, rows))


def _complex_pair(obj: Any) -> list[float]:
    """The one rule json.dumps lacks: a complex number as [re, im]."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_float_repr = float.__repr__
_json_str = json.encoder.encode_basestring_ascii


def _json(obj: Any, indent: str) -> str:
    """obj at this indent, as json.dumps(obj, indent=2, sort_keys=True,
    default=_complex_pair) writes it, for str keys; NonFiniteOutput for a
    NaN or an infinity.  No type is two of float, list or tuple, dict, str
    and int, so the common ones are tested first; only bool, an int, must
    come before int."""
    if isinstance(obj, float):
        text = _float_repr(obj)
        if "n" in text:
            raise NonFiniteOutput(text)
        return text
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        try:
            body = sep.join(map(_float_repr, obj))  # a list of floats in one join
        except TypeError:  # an item that is no float
            body = None
        if body is None or "n" in body:
            parts: list[str] = []
            try:
                for value in obj:
                    parts.append(_json(value, inner))
            except NonFiniteOutput as exc:
                exc.path.append(len(parts))
                raise
            body = sep.join(parts)
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        sep = ",\n" + inner
        parts = []
        try:
            for key, value in sorted(obj.items()):
                parts.append(f"{_json_str(key)}: {_json(value, inner)}")
        except NonFiniteOutput as exc:
            exc.path.append(key)
            raise
        return f"{{\n{inner}{sep.join(parts)}\n{indent}}}"
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    return _json(_complex_pair(obj), indent)


def _json_doc(obj: dict) -> str:
    """The document, then a newline; NonFiniteOutput names the key of a NaN or infinity."""
    try:
        return _json(obj, "") + "\n"
    except NonFiniteOutput as exc:
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in reversed(exc.path))
        raise NonFiniteOutput(f"non-finite value {exc} at output key {where.removeprefix('.')!r}") from None


# -------------------------------------------------------------- configuration


def _read_json(path: str, what: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file is not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # int() refuses a literal past Python's digit limit
        raise ConfigError(
            f"{what} file holds an integer literal of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc


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


def _merge_config(args: argparse.Namespace) -> None:
    """Fill each flag left unset with its --config value, then check units and format.

    Only keys whose flag the subcommand declares are taken (and type-checked);
    a null value counts as absent.
    """
    if args.config is not None:
        data = _read_json(args.config, "config")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in data.items():
            if value is not None and getattr(args, key, False) is None:
                setattr(args, key, _config_value(key, value))
    if args.units is None:
        args.units = "horizon"
    if args.units not in ("horizon", "physical"):
        raise ConfigError(f"--units must be 'horizon' or 'physical', got {args.units!r}")
    if args.format not in (None, "csv", "json"):
        raise ConfigError(f"--format must be 'csv' or 'json', got {args.format!r}")


def _require(value: Any, flag: str):
    if value is None:
        raise ConfigError(f"missing required parameter --{flag}")
    return value


def _physics_params(
    args: argparse.Namespace, *, need_epsilon: bool = True
) -> tuple[HorizonUnitsParams, dict]:
    """Horizon-units parameters plus the inputs-echo block, per unit system."""
    j = _require(args.j, "j")
    if args.units == "horizon":
        m = _require(args.m, "m")
        if need_epsilon:
            epsilon = _require(args.epsilon, "epsilon")
        else:
            epsilon = m if args.epsilon is None else args.epsilon
        hp = HorizonUnitsParams(epsilon=epsilon, m=m, j=j)
        echo = {"units": "horizon", "epsilon": epsilon, "m": m, "j": j}
    else:
        R = _require(args.R, "R")
        lam = _require(args.lam, "lam")
        mu = _require(args.mu, "mu")
        hp = to_horizon_units(ModelParams(R=R, lam=lam, mu=mu, j=j))
        echo = {"units": "physical", "R": R, "lam": lam, "mu": mu, "j": j}
    return hp, echo


def _r_grid(args: argparse.Namespace, lo: float, hi: float, n: int) -> np.ndarray:
    r_min = lo if args.r_min is None else args.r_min
    r_max = hi if args.r_max is None else args.r_max
    count = n if args.grid is None else args.grid
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


def cmd_potential(args: argparse.Namespace) -> int:
    hp, echo = _physics_params(args, need_epsilon=False)
    grid = _r_grid(args, 1e-6, 1.0 - 1e-6, 1000)
    if grid[0] <= 0.0 or grid[-1] >= 1.0:
        raise ConfigError("potential grid must stay strictly inside 0 < r < 1")
    try:
        prof = potential_profile(hp, grid)
    except ValueError as exc:
        raise ConfigError(
            f"--r-min {float(grid[0])!r} and --r-max {float(grid[-1])!r} are too close "
            f"for --grid {len(grid)}: {exc}"
        ) from exc
    overflow = ~(np.isfinite(prof.U) & np.isfinite(prof.F))
    if overflow.any():
        raise ConfigError(
            f"the potential overflows at r={grid[overflow.argmax()]:.6g}: m={hp.m:.6g} "
            f"(j={hp.j}) is too large for double precision"
        )
    columns = (grid.tolist(), prof.r_star.tolist(), prof.U.tolist(), prof.F.tolist())
    _emit_table(args, echo, ("r", "r_star", "U", "F"), list(zip(*columns)))
    if (prof.F <= 0.0).any():
        print("error: barrier factor F <= 0 on the grid", file=sys.stderr)
        return EXIT_REGIME
    return EXIT_OK


_WAVE_KINDS = ("f", "g", "out", "in")


def cmd_wave(args: argparse.Namespace) -> int:
    hp, echo = _physics_params(args)
    kind = args.kind
    if kind not in _WAVE_KINDS:
        raise ConfigError(f"--kind must be one of {sorted(_WAVE_KINDS)}, got {kind!r}")
    grid = [float(r) for r in _r_grid(args, 0.05, 0.95, 19)]
    ans = make_ansatz(hp, "singular" if kind == "g" else "regular")
    rows = []
    for r in grid:
        if args.residuals:
            # the residual evaluates the standing and both running waves; the
            # row's value is one of those three
            standing, out, inc, residual = connection_check(ans, r)
            u = {"out": out, "in": inc}.get(kind, standing)
            named = [("r", r), ("u", u), ("connection_residual", residual)]
        elif kind in ("f", "g"):
            named = [("r", r), ("u", eval_standing(ans, r))]
        else:
            named = [("r", r), ("u", eval_running(ans, kind, r))]
        header, row = _columns(named)
        rows.append(row)
    _emit_table(args, {**echo, "kind": kind}, header, rows)
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
    # every step must move the value, so the loop ends within ~MAX_POINTS
    values = [start]
    while (v := start + len(values) * step) <= stop + 1e-9 * step:
        if v <= values[-1]:
            raise ConfigError(f"--sweep step {step:g} is below the spacing of doubles near {name}={v:g}")
        values.append(v)
    return name, values


def _reflect_point(hp: HorizonUnitsParams, with_flux: bool) -> dict:
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
        flux = horizon_flux_balance(make_ansatz(hp, "regular"), hp)
        point["flux_ratio"] = flux
        point["flux_vs_far_field"] = abs(flux - result.ratio)
    return point


def cmd_reflect(args: argparse.Namespace) -> int:
    sweep = args.sweep
    with_flux = not args.no_flux
    if sweep is None:
        hp, echo = _physics_params(args)
        point = _reflect_point(hp, with_flux)
        doc = {"inputs": echo, "report": point}
        if args.format == "csv":
            header, row = _sweep_row([], point)
            _write_text(args, _csv(header, [row]))
        else:
            _write_text(args, _json_doc(doc))
        return EXIT_OK

    name, values = _parse_sweep(sweep, args.units)
    rows = []
    for v in values:
        setattr(args, name, v)
        hp, echo = _physics_params(args)
        point = _reflect_point(hp, with_flux)
        header, row = _sweep_row([(name, v)], point)
        rows.append(row)
    echo.pop(name, None)
    if args.format == "json":
        doc = {
            "inputs": {**echo, "sweep": sweep},
            "rows": [dict(zip(header, row)) for row in rows],
        }
        _write_text(args, _json_doc(doc))
    else:
        _write_text(args, _csv(header, rows))
    return EXIT_OK


def _sweep_row(swept: list[tuple[str, float]], point: dict) -> tuple[list[str], list[float]]:
    named = swept + [(key, point[key]) for key in ("C1", "C2", "A_plus", "A_minus", "ratio", "coefficient")]
    named.append(("regime_ok", float(point["regime_ok"])))
    if "flux_ratio" in point:
        named.append(("flux_ratio", point["flux_ratio"]))
    return _columns(named)


def cmd_flat_limit(args: argparse.Namespace) -> int:
    mu = _require(args.mu, "mu")
    j = _require(args.j, "j")
    kr = 0.5 if args.kr is None else args.kr
    scales_text = "1e3,1e4,1e5,1e6" if args.scales is None else args.scales
    try:
        scales = [float(s) for s in scales_text.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --scales list: {scales_text!r}") from exc
    if not scales:
        raise ConfigError("--scales must name at least one R/lam value")
    p = ModelParams(R=1.0, lam=1.0, mu=mu, j=j)
    rows = flat_limit_convergence(p, scales, kr, fixed_kappa=args.fixed_kappa)
    echo = {"mu": mu, "j": j, "kr": kr, "scales": scales}
    if args.fixed_kappa is not None:
        echo["fixed_kappa"] = args.fixed_kappa
    _emit_table(args, echo, ("R_over_lambda", "deviation"), rows)
    return EXIT_OK


@contextlib.contextmanager
def _stage(label: str):
    """Prefix the message of a NonConvergence raised inside with label."""
    try:
        yield
    except NonConvergence as exc:
        raise NonConvergence(f"{label}: {exc}") from exc


def cmd_expand(args: argparse.Namespace) -> int:
    mu = _require(args.mu, "mu")
    X = _require(args.X, "X")
    j = _require(args.j, "j")
    grid = _r_grid(args, 0.5, 4.0, 15)
    if grid[0] <= 0.0:
        raise ConfigError("expansion radii must be positive")
    if grid[-1] * X >= 1.0:
        raise ConfigError(
            f"r_max * X = {grid[-1] * X} >= 1: outside the series' reach"
        )
    ep = ExpansionParams(mu, X, j)
    # the second-order remainder is read on a decade ladder of X, down to X/100
    ladder = [X, X / 10.0, X / 100.0]
    eps = mu / ladder[-1] if ladder[-1] > 0.0 else math.inf
    if not math.isfinite(eps * eps):
        raise ConfigError(f"(mu/X)^2 at X/100 is beyond double range: mu={mu:g}, X={X:g}")
    with _stage(f"mu={mu}, X={X}"):
        # F0, G0 and the first-order weight depend on mu, j and r only: this
        # one decomposition at X supplies them to every rung of the ladder
        with _stage("decomposition at X"):
            dec = decompose_hypergeometric(ep, grid)

        # closed-form vs term-by-term first order, relative to the leading order;
        # in Python scalars, whose overflow warns nobody on stderr
        scale = float(np.max(np.abs(dec.F0)))
        identity_err = max(
            abs(first_order_series(ep, r, "regular") - f1) / scale
            for r, f1 in zip(grid.tolist(), dec.F1.tolist())
        )

        # second-order remainder must shrink like X^2: slope over the ladder,
        # whose lower rungs evaluate only the regular Gauss factor again
        remainders = remainder_ladder(ep, dec, ladder[1:])
        floor = 100.0 * 2.0**-52 * scale
        if remainders[-1] < floor:
            raise ConfigError(
                f"mu={mu}, X={X}: the X^2 remainder at X/100 is {remainders[-1]:.3g}, below the "
                f"rounding floor 100*2^-52*max|F0| = {floor:.3g}, so its log-slope would read "
                f"rounding noise; use a larger X"
            )
        slope = float(
            np.polyfit(np.log10(ladder), np.log10(remainders), 1)[0]
        )

        audit = first_order_correction_audit(ep)
    doc = {
        "inputs": {"mu": mu, "X": X, "j": j, "r_min": float(grid[0]), "r_max": float(grid[-1]), "grid": int(grid.size)},
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
    rows = []
    for i, r in enumerate(grid):
        header, row = _columns([
            ("r", float(r)),
            ("F0", float(dec.F0[i])),
            ("F1", dec.F1[i]),
            ("F2_residual", dec.F2_residual[i]),
            ("G0", float(dec.G0[i])),
            ("G1", dec.G1[i]),
            ("G2_residual", dec.G2_residual[i]),
        ])
        rows.append(row)
    if args.format == "csv":
        _write_text(args, _csv(header, rows))
    else:
        doc["table"] = {"header": header, "rows": rows}
        _write_text(args, _json_doc(doc))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    if args.format == "csv":
        raise ConfigError("classify writes JSON only; --format csv is not available")
    report = classify_singularities(_read_json(args.coefficients, "coefficient"))
    doc = {"inputs": {"coefficients": os.path.basename(args.coefficients)}}
    doc.update(report.to_json())
    _write_text(args, _json_doc(doc))
    return EXIT_OK


# ------------------------------------------------------------------- parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with default parameter values")
    sub.add_argument("--units", choices=("horizon", "physical"))
    sub.add_argument("--output", help="write to this file instead of stdout")
    sub.add_argument(
        "--format",
        dest="format",
        choices=("csv", "json"),
        help="output format; classify writes JSON only (csv exits 2)",
    )


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


# parse_args reads the parser and fills a fresh Namespace, so one parser
# serves every main call of a process; building it takes ~2 ms
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args)
    except (NonConvergence, StepFailure, NonFiniteOutput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except OverflowError as exc:
        print(f"error: double-precision overflow ({exc}); the parameters are too large", file=sys.stderr)
        return EXIT_NUMERICS
    except (RegimeError, EvanescentMode, UnsupportedMass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
