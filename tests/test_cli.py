"""Command-line interface: formats, config precedence, exit codes."""
from __future__ import annotations

import collections
import json
import math
import pathlib
import re
import time

import mpmath as mp
import numpy as np
import pytest

import dswave
from dswave import cli, expansion, waves
from dswave.cli import main
from dswave.model import HorizonUnitsParams
from dswave.special import NonConvergence
from dswave.waves import make_ansatz

FIXDIR = pathlib.Path(dswave.__file__).parent / "fixtures"


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# --- potential ---------------------------------------------------------------


def test_potential_csv_shape_and_positivity(capsys):
    rc, out, _ = run(capsys, "potential", "--m", "5", "--j", "1", "--grid", "200")
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["r", "r_star", "U", "F"]
    assert len(rows) == 200
    assert all(float(row[3]) > 0.0 for row in rows)


def test_potential_grid_validation(capsys):
    rc, _, err = run(capsys, "potential", "--m", "5", "--j", "0", "--grid", "0")
    assert rc == 2 and err
    rc, _, err = run(capsys, "potential", "--m", "5", "--j", "0", "--r-max", "1.0")
    assert rc == 2 and err
    rc, _, err = run(capsys, "potential", "--m", "5", "--j", "0", "--r-min", "0.9", "--r-max", "0.1")
    assert rc == 2 and err


def test_potential_radii_that_repeat_exit_2_naming_the_range(capsys):
    # linspace between adjacent doubles repeats a radius, so r* cannot increase
    rc, out, err = run(capsys, "potential", "--m=5", "--j=1", "--grid=3",
                       "--r-min=0.5", "--r-max=0.5000000000000001")
    assert rc == 2 and out == ""
    assert one_error_line(err).startswith(
        "error: --r-min 0.5 and --r-max 0.5000000000000001 are too close for --grid 3"
    ), err


# --- wave --------------------------------------------------------------------


def test_wave_connection_residual_column(capsys):
    rc, out, _ = run(
        capsys,
        "wave", "--epsilon", "10", "--m", "5", "--j", "1",
        "--kind", "out", "--residuals", "--grid", "7",
    )
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["r", "re_u", "im_u", "cancellation_factor", "connection_residual"]
    assert all(float(row[-1]) < 1e-10 for row in rows)
    # the envelope |to_out U_out| + |to_in U_in| bounds |standing| from above
    assert all(float(row[-2]) >= 1.0 - 1e-12 for row in rows)


def _count_calls(monkeypatch, counts, module, name):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("kind", ["f", "g", "out", "in"])
def test_wave_residual_rows_reuse_the_residuals_waves(capsys, monkeypatch, kind):
    argv = ("wave", "--epsilon", "10", "--m", "5", "--j", "1", "--kind", kind, "--grid", "7")
    ans = make_ansatz(HorizonUnitsParams(epsilon=10.0, m=5.0, j=1), "singular" if kind == "g" else "regular")
    cc = waves.connect(ans)
    expected = []
    for r in (float(r) for r in np.linspace(0.05, 0.95, 7)):
        standing, out = waves.eval_standing(ans, r), waves.eval_running(ans, "out", r)
        # the incoming wave of a real standing family is the outgoing one's conjugate
        u = {"out": out, "in": out.conjugate()}.get(kind, standing)
        factor = (abs(cc.to_out * out) + abs(cc.to_in * out.conjugate())) / abs(standing)
        res = waves.connection_residual(ans, r)
        expected.append(",".join(format(v, ".17g") for v in (r, u.real, u.imag, factor, res)))
    counts = collections.Counter()
    _count_calls(monkeypatch, counts, waves, "hyp2f1")
    rc, out, _ = run(capsys, *argv, "--residuals")
    # one standing and one running wave per radius, the row's value among them
    assert rc == 0 and counts["hyp2f1"] == 2 * 7
    assert out.splitlines()[1:] == expected
    counts.clear()
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and counts["hyp2f1"] == 7
    assert out.splitlines()[1:] == [",".join(row.split(",")[:3]) for row in expected]


def test_wave_in_is_conjugate_of_out(capsys):
    argv = ["wave", "--epsilon", "10", "--m", "5", "--j", "2", "--grid", "9"]
    _, out_text, _ = run(capsys, *argv, "--kind", "out")
    _, in_text, _ = run(capsys, *argv, "--kind", "in")
    _, o_rows = csv_rows(out_text)
    _, i_rows = csv_rows(in_text)
    assert len(o_rows) == len(i_rows) == 9
    for orow, irow in zip(o_rows, i_rows):
        assert (float(irow[1]), float(irow[2])) == (float(orow[1]), -float(orow[2]))


def test_wave_in_prints_the_same_values_with_and_without_residuals(capsys):
    # both print conj(U_out); at this point a separately summed incoming
    # series, F(c-a, c-b; c-a-b+1; 1-r^2), reads re u = -2.6772638763683898
    argv = ["wave", "--epsilon", "20.144382755405843", "--m", "4.108431802232617", "--j", "0",
            "--kind", "in", "--r-min", "0.24688899954541083", "--r-max", "0.5", "--grid", "2"]
    rc, plain, _ = run(capsys, *argv)
    assert rc == 0
    rc, checked, _ = run(capsys, *argv, "--residuals")
    assert rc == 0
    header, rows = csv_rows(checked)
    assert header[:3] == ["r", "re_u", "im_u"]
    assert plain.splitlines() == [",".join(line.split(",")[:3]) for line in checked.splitlines()]
    assert rows[0][1] == "-2.6772638763683729"


def test_wave_standing_kinds_real(capsys):
    for kind in ("f", "g"):
        rc, out, _ = run(
            capsys, "wave", "--epsilon", "10", "--m", "5", "--j", "0",
            "--kind", kind, "--grid", "5",
        )
        assert rc == 0
        _, rows = csv_rows(out)
        assert all(abs(float(row[2])) < 1e-10 for row in rows)  # im_u column


def test_wave_large_epsilon_where_the_series_overflows(capsys):
    # At r=0.7 (z=0.49) the float Gauss series overflows before it converges.
    # Every row must still match mpmath to 1e-10 of the amplitude envelope
    # |to_out U_out| + |to_in U_in|.
    rc, out, err = run(
        capsys, "wave", "--epsilon", "1000", "--m", "400", "--j", "2", "--kind", "f", "--grid", "19"
    )
    assert rc == 0, err
    _, rows = csv_rows(out)
    assert len(rows) == 19
    ans = make_ansatz(HorizonUnitsParams(epsilon=1000.0, m=400.0, j=2), "regular")
    with mp.workdps(40):
        a, b, c, sigma = (mp.mpc(v) for v in (ans.a, ans.b, ans.c, ans.sigma))
        to_out = mp.gamma(c) * mp.gamma(c - a - b) / (mp.gamma(c - a) * mp.gamma(c - b))
        to_in = mp.gamma(c) * mp.gamma(a + b - c) / (mp.gamma(a) * mp.gamma(b))
        for row in rows:
            z = mp.mpf(row[0]) ** 2
            lead = z ** mp.mpf(ans.kappa)
            phase = mp.exp(sigma * mp.log(1 - z))
            u_out = lead * phase * mp.hyp2f1(a, b, a + b - c + 1, 1 - z, maxterms=10**6)
            u_in = lead / phase * mp.hyp2f1(c - a, c - b, c - a - b + 1, 1 - z, maxterms=10**6)
            envelope = abs(to_out * u_out) + abs(to_in * u_in)
            if z <= 0.5:
                value = lead * phase * mp.hyp2f1(a, b, c, z, maxterms=10**6)
            else:  # DLMF 15.8.4; mpmath's own z -> 1-z route ignores maxterms
                value = to_out * u_out + to_in * u_in
            got = complex(float(row[1]), float(row[2]))
            assert float(abs(got - value) / envelope) < 1e-10, row[0]


def test_wave_singular_family_at_epsilon_3000_is_rescued(capsys):
    # at both radii the continuation refuses the 2F1 series, and a rescue
    # pass (~6 000 terms at ~3 400 bits) returns it: exit 0 with two finite
    # rows, in under 5 s
    start = time.perf_counter()
    rc, out, err = run(
        capsys, "wave", "--epsilon", "3000", "--m", "750", "--j", "20", "--kind", "g",
        "--r-min", "0.69", "--r-max", "0.7", "--grid", "2",
    )
    assert time.perf_counter() - start < 5.0
    assert rc == 0, err
    _, rows = csv_rows(out)
    assert len(rows) == 2 and all(math.isfinite(float(v)) for row in rows for v in row)


def test_wave_singular_family_at_epsilon_5000_is_rescued_past_the_term_cap(capsys):
    # at r = 0.7 the continuation refuses and the rescue pass sums 10 320
    # terms at ~5 700 bits, more than the first passes' 10 000: exit 0 with
    # two finite rows.  At epsilon = 10 000 the pass, ~20 400 terms at
    # ~11 200 bits, is over the rescue budget: exit 4 and one error line
    args = ("--j", "20", "--kind", "g", "--r-min", "0.69", "--r-max", "0.7", "--grid", "2")
    start = time.perf_counter()
    rc, out, err = run(capsys, "wave", "--epsilon", "5000", "--m", "1250", *args)
    assert time.perf_counter() - start < 5.0
    assert rc == 0, err
    _, rows = csv_rows(out)
    assert len(rows) == 2 and all(math.isfinite(float(v)) for row in rows for v in row)
    rc, out, err = run(capsys, "wave", "--epsilon", "10000", "--m", "2500", *args)
    assert rc == 4 and out == ""
    assert "rounding error outgrew its budget" in one_error_line(err), err


# --- reflect -----------------------------------------------------------------


def test_reflect_json_report(capsys):
    rc, out, _ = run(
        capsys,
        "reflect", "--epsilon", "20", "--m", "10", "--j", "1",
        "--format", "json", "--no-flux",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["inputs"]["epsilon"] == 20.0
    assert doc["inputs"]["units"] == "horizon"
    rep = doc["report"]
    assert rep["ratio"] < 1e-12
    assert rep["coefficient"] == rep["ratio"] ** 2
    assert rep["regime_ok"] is True
    assert isinstance(rep["C1"], list) and len(rep["C1"]) == 2


def test_reflect_includes_flux_by_default(capsys):
    rc, out, _ = run(
        capsys,
        "reflect", "--epsilon", "20", "--m", "10", "--j", "1", "--format", "json",
    )
    assert rc == 0
    rep = json.loads(out)["report"]
    assert rep["flux_ratio"] < 1e-6
    assert rep["flux_vs_far_field"] < 1e-6



def test_reflect_flux_check_at_eps_1e4(capsys):
    # the Riccati panels cost the same at every eps
    rc, out, err = run(capsys, "reflect", "--epsilon", "10000", "--m", "50", "--j", "1",
                       "--format", "json")
    assert rc == 0 and err == ""
    assert json.loads(out)["report"]["flux_vs_far_field"] < 1e-6

def test_reflect_sweep(capsys):
    rc, out, _ = run(
        capsys,
        "reflect", "--m", "10", "--j", "1",
        "--sweep", "epsilon=20:100:5", "--no-flux",
    )
    assert rc == 0
    header, rows = csv_rows(out)
    assert header[0] == "epsilon"
    assert len(rows) == 17  # inclusive endpoints
    eps = [float(row[0]) for row in rows]
    assert eps == sorted(eps) and eps[0] == 20.0 and eps[-1] == 100.0
    ratio_col = header.index("ratio")
    assert all(float(row[ratio_col]) < 1e-12 for row in rows)


def test_reflect_sweep_validation(capsys):
    rc, _, err = run(
        capsys, "reflect", "--m", "10", "--j", "1", "--sweep", "mu=1:2:0.5"
    )
    assert rc == 2 and "sweep" in err
    rc, _, err = run(
        capsys, "reflect", "--m", "10", "--j", "1", "--sweep", "epsilon=20:10:5"
    )
    assert rc == 2


def test_reflect_exit_codes_for_regime(capsys):
    # evanescent: epsilon below the mass line
    rc, _, err = run(capsys, "reflect", "--epsilon", "4", "--m", "5", "--j", "0")
    assert rc == 3 and err
    # below the hard validity floor
    rc, _, err = run(capsys, "reflect", "--epsilon", "10.5", "--m", "10", "--j", "5")
    assert rc == 3 and "eps^2 - m^2" in err


def test_reflect_numerics_failure_exit_code(capsys, monkeypatch):
    import dswave.reflection as reflection_mod

    def boom(*a, **k):
        raise NonConvergence("synthetic")

    monkeypatch.setattr(reflection_mod, "far_field_coefficients", boom)
    rc, _, err = run(capsys, "reflect", "--epsilon", "20", "--m", "10", "--j", "1")
    assert rc == 4 and "synthetic" in err


# --- flat-limit / expand -----------------------------------------------------


def test_flat_limit_table_decreases(capsys):
    rc, out, _ = run(
        capsys, "flat-limit", "--mu", "2", "--j", "1", "--scales", "1e3,1e4,1e5"
    )
    assert rc == 0
    header, rows = csv_rows(out)
    assert header == ["R_over_lambda", "deviation"]
    devs = [float(row[1]) for row in rows]
    assert devs[0] > devs[1] > devs[2]


def test_flat_limit_alias_and_fixed_kappa(capsys):
    rc, out, _ = run(
        capsys,
        "flat_limit", "--mu", "2", "--j", "2",
        "--scales", "50,100,200,400", "--fixed-kappa", "2",
    )
    assert rc == 0
    _, rows = csv_rows(out)
    devs = [float(row[1]) for row in rows]
    assert all(d > 0.5 for d in devs)


def test_expand_report(capsys):
    rc, out, _ = run(capsys, "expand", "--mu", "2", "--X", "1e-3", "--j", "0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["inputs"]["X"] == 1e-3
    assert doc["first_order_identity_error"] < 1e-10
    assert abs(doc["remainder"]["log_slope"] - 2.0) < 0.1
    audit = doc["audit"]
    assert audit["order0_is_two_exponentials"] is True
    assert audit["order1_is_two_exponentials"] is False
    table = doc["table"]
    assert len(table["rows"]) == 15 and len(table["header"]) == 11


def test_expand_validity_exit(capsys):
    rc, _, err = run(capsys, "expand", "--mu", "2", "--X", "0.5", "--j", "0")
    assert rc == 2 and err


@pytest.mark.parametrize("grid", [15, 8])
def test_expand_computes_each_x_independent_profile_once(capsys, monkeypatch, grid):
    counts = collections.Counter()
    _count_calls(monkeypatch, counts, cli, "decompose_hypergeometric")
    # expansion's 2F1 factors go through waves.eval_hypergeometric
    _count_calls(monkeypatch, counts, waves, "hyp2f1")
    _count_calls(monkeypatch, counts, expansion, "_bessel_limit")
    rc, _, _ = run(capsys, "expand", "--mu", "2.5", "--X", "3e-3", "--j", "1", "--grid", str(grid))
    assert rc == 0
    # 2n + n + n factors at X, X/10 and X/100, 3 x 8 in the audit's slope;
    # 2n limits at X, 2 x 64 for the audit's order-0 wave and 8 for its slope
    assert counts == {
        "decompose_hypergeometric": 1,
        "hyp2f1": 4 * grid + 24,
        "_bessel_limit": 2 * grid + 136,
    }


def test_expand_refuses_a_remainder_below_the_rounding_floor(capsys):
    # at X = 1e-6 the X/100 rung's remainder is ~1e-15, rounding noise of
    # Fe - F0 - x F1, and its log-slope would print 1.84 instead of 2
    rc, out, err = run(capsys, "expand", "--mu", "2", "--X", "1e-6", "--j", "1")
    line = one_error_line(err)
    assert rc == 2 and out == ""
    assert line.startswith("error: mu=2.0, X=1e-06: the X^2 remainder at X/100 is 1.57e-15")
    assert "rounding floor 100*2^-52*max|F0| = 2.06e-14" in line
    rc, out, _ = run(capsys, "expand", "--mu", "2", "--X", "1e-5", "--j", "1", "--format", "json")
    assert rc == 0 and abs(json.loads(out)["remainder"]["log_slope"] - 2.0) < 0.01


@pytest.mark.parametrize("mu", ["1e5", "1e150"])
def test_expand_continuation_failure_names_mu_x_and_stage(capsys, mu):
    rc, out, err = run(capsys, "expand", "--mu", mu, "--X", "0.01", "--j", "1")
    line = one_error_line(err)
    assert rc == 4 and out == ""
    assert line.startswith(f"error: mu={float(mu)}, X=0.01: decomposition at X: 2F1 continuation"), line


@pytest.mark.parametrize(
    "fail_at, stage",
    [
        (0, "decomposition at X"),
        (30, "rung x=0.0001"),
        (45, "rung x=1e-05"),
        (60, "audit at X=0.01"),
        (68, "audit at X=0.001"),
        (83, "audit at X=0.0001"),
    ],
)
def test_expand_names_the_stage_whose_series_failed(capsys, monkeypatch, fail_at, stage):
    # 15 radii: 30 factors at X, 15 per lower rung, then 8 per audit X
    calls = []
    real = waves.hyp2f1

    def failing(*args):
        calls.append(args)
        if len(calls) == fail_at + 1:
            raise NonConvergence("forced")
        return real(*args)

    monkeypatch.setattr(waves, "hyp2f1", failing)
    rc, out, err = run(capsys, "expand", "--mu", "2", "--X", "1e-3", "--j", "0")
    assert rc == 4 and out == ""
    assert one_error_line(err) == f"error: mu=2.0, X=0.001: {stage}: forced"


# --- classify ----------------------------------------------------------------


def test_classify_fixture(capsys):
    rc, out, _ = run(capsys, "classify", str(FIXDIR / "de_sitter_radial.json"))
    assert rc == 0
    doc = json.loads(out)
    assert doc["inputs"]["coefficients"] == "de_sitter_radial.json"
    assert doc["classification"].startswith("hypergeometric_class")
    assert len(doc["points"]) == 3
    locs = {pt["location"] for pt in doc["points"]}
    assert locs == {"0", "1", "infinity"}


def test_classify_all_fixture_classes(capsys):
    expected = {
        "schwarzschild_like.json": "heun_class",
        "constant_coefficient.json": "other",
    }
    for name, prefix in expected.items():
        rc, out, _ = run(capsys, "classify", str(FIXDIR / name))
        assert rc == 0
        assert json.loads(out)["classification"].startswith(prefix)


def test_classify_refuses_csv_from_flag_or_config(capsys, tmp_path):
    fixture = str(FIXDIR / "de_sitter_radial.json")
    config = tmp_path / "csv.json"
    config.write_text(json.dumps({"format": "csv"}))
    for extra in (["--format", "csv"], ["--config", str(config)]):
        rc, out, err = run(capsys, "classify", fixture, *extra)
        assert rc == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and "JSON only" in err
    rc, out, _ = run(capsys, "classify", fixture, "--format", "json")
    assert rc == 0 and json.loads(out)["classification"].startswith("hypergeometric_class")


def test_classify_bad_inputs(capsys, tmp_path):
    rc, _, err = run(capsys, "classify", str(tmp_path / "missing.json"))
    assert rc == 2 and err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "classify", str(bad))
    assert rc == 2
    unfactored = tmp_path / "unfactored.json"
    unfactored.write_text(json.dumps({"p": {"numerator": [1], "denominator": [1, 2]},
                                      "q": {"numerator": [1], "denominator": [1]}}))
    rc, _, err = run(capsys, "classify", str(unfactored))
    assert rc == 2 and "factored" in err


def _classify_p_roots(tmp_path, roots):
    path = tmp_path / "p_roots.json"
    path.write_text(json.dumps({
        "p": {"numerator": [1], "denominator": {"const": 1, "roots": roots}},
        "q": {"numerator": [1], "denominator": {"const": 1, "roots": [["0", 2]]}},
    }))
    return str(path)


@pytest.mark.parametrize("mult", [1.5, True, "1.5", 100_000_000])
def test_classify_refuses_multiplicities_naming_the_root(capsys, tmp_path, mult):
    start = time.perf_counter()
    rc, out, err = run(capsys, "classify", _classify_p_roots(tmp_path, [["0", 1], ["1/3", mult]]))
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert one_error_line(err).startswith("error: root '1/3' needs a whole-number multiplicity"), err


@pytest.mark.parametrize("root, shown", [(1e300, "1e+300"), ("-7e400", "-7e+400")])
def test_classify_overflow_names_a_far_root_in_short(capsys, tmp_path, root, shown):
    # indicial exponents beyond double range at a root far out: the one
    # error line names the root to 6 digits, not as its exact integer
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "p": {"numerator": [0, 1], "denominator": {"const": 1, "roots": [[root, 1]]}},
        "q": {"numerator": [1], "denominator": {"const": 1, "roots": [[root, 2]]}},
    }))
    rc, out, err = run(capsys, "classify", str(path))
    assert rc == 4 and out == ""
    line = one_error_line(err)
    assert f"at x = {shown} are beyond double range" in line and len(line) < 160, line


NOT_EXACT = "must be an integer, a finite float or a rational string like '3/4', got"


@pytest.mark.parametrize(
    "p, message",
    [
        ({"numerator": [True]}, f"a numerator coefficient {NOT_EXACT} True"),
        ({"numerator": [1, None]}, f"a numerator coefficient {NOT_EXACT} None"),
        ({"numerator": ["1/0"]}, f"a numerator coefficient {NOT_EXACT} '1/0'"),
        ({"numerator": 5}, "numerator must be a list of coefficients, got 5"),
        ({"numerator": "12"}, "numerator must be a list of coefficients, got '12'"),
        ({"numerator": [1], "denominator": {"const": 1, "roots": 7}},
         "denominator roots must be a list of [root, multiplicity] pairs, got 7"),
        ({"numerator": [1], "denominator": {"const": True}}, f"the denominator const {NOT_EXACT} True"),
    ],
    ids=["true-coefficient", "null-coefficient", "zero-denominator-string", "numerator-number",
         "numerator-string", "roots-number", "true-const"],
)
def test_classify_malformed_entries_exit_2_naming_the_entry(capsys, tmp_path, p, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"p": p, "q": {"numerator": [1]}}))
    rc, out, err = run(capsys, "classify", str(path))
    assert rc == 2 and out == ""
    assert one_error_line(err) == f"error: {message}"


@pytest.mark.parametrize("value", ["1e99999", "1e9999999"])
def test_classify_refuses_rational_strings_beyond_4300_digits(capsys, tmp_path, value):
    # Fraction would build 10**value exactly: 1e9999999 took over a minute
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"p": {"numerator": [value]}, "q": {"numerator": [1]}}))
    start = time.perf_counter()
    rc, out, err = run(capsys, "classify", str(path))
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert one_error_line(err) == (
        f"error: a numerator coefficient {value!r} expands to more than 4300 digits"
    )



def test_json_files_that_do_not_decode_exit_2_naming_the_file(capsys, tmp_path):
    # json.load raises a plain ValueError, not JSONDecodeError, for an integer
    # literal past Python's 4300-digit limit and for bytes that are not UTF-8
    huge = "1" * 5000
    coefficients = tmp_path / "huge_int.json"
    coefficients.write_text(f'{{"p": {{"numerator": [{huge}]}}, "q": {{"numerator": [1]}}}}')
    rc, out, err = run(capsys, "classify", str(coefficients))
    assert rc == 2 and out == ""
    assert one_error_line(err) == (
        "error: coefficient file holds an integer literal of more than 4300 digits"
    )
    config = tmp_path / "huge_config.json"
    config.write_text(f'{{"m": {huge}}}')
    rc, out, err = run(capsys, "reflect", "--epsilon", "20", "--j", "1", "--no-flux",
                       "--config", str(config))
    assert rc == 2 and out == ""
    assert one_error_line(err) == (
        "error: config file holds an integer literal of more than 4300 digits"
    )
    config.write_bytes(b'\xff\xfe{}')
    rc, out, err = run(capsys, "reflect", "--epsilon", "20", "--m", "10", "--j", "1",
                       "--no-flux", "--config", str(config))
    assert rc == 2 and out == ""
    assert one_error_line(err).startswith("error: config file is not UTF-8 text: ")

def test_classify_exponents_beyond_double_range_name_the_point(capsys, tmp_path):
    # A = lim x p = 3^1000 at x = 0: the irrational exponents have no double value
    start = time.perf_counter()
    rc, out, err = run(capsys, "classify", _classify_p_roots(tmp_path, [["0", 1], ["1/3", 1000]]))
    assert time.perf_counter() - start < 1.0
    assert rc == 4 and out == ""
    assert "indicial exponents at x = 0 are beyond double range" in one_error_line(err), err


# --- config file, env, output ------------------------------------------------


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    # "tol" names no flag (the flux check's tolerance is fixed): ignored
    cfg.write_text(json.dumps({"epsilon": 20.0, "m": 10.0, "j": 1, "format": "json", "tol": "banana"}))
    rc, out, _ = run(capsys, "reflect", "--config", str(cfg), "--no-flux")
    assert rc == 0
    inputs = json.loads(out)["inputs"]
    assert inputs["epsilon"] == 20.0 and "tol" not in inputs


def test_cli_flag_beats_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"epsilon": 20.0, "m": 10.0, "j": 1, "format": "json"}))
    rc, out, _ = run(capsys, "reflect", "--config", str(cfg), "--epsilon", "30", "--no-flux")
    assert rc == 0
    assert json.loads(out)["inputs"]["epsilon"] == 30.0


def test_flags_and_config_values_do_not_carry_into_the_next_main_call(capsys, tmp_path):
    # main reuses one parser per process; every call must still start unset
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"epsilon": 10.0, "m": 5.0, "j": 1, "kind": "f"}))
    rc, out, _ = run(capsys, "wave", "--config", str(cfg), "--grid", "3", "--format", "json", "--residuals")
    assert rc == 0
    assert json.loads(out)["table"]["header"][-1] == "connection_residual"
    rc, out, _ = run(capsys, "wave", "--epsilon", "10", "--m", "5", "--j", "1", "--kind", "out", "--grid", "3")
    assert rc == 0
    header, rows = csv_rows(out)  # CSV: neither --format nor --residuals carried
    assert header == ["r", "re_u", "im_u"] and len(rows) == 3
    rc, out, err = run(capsys, "wave", "--m", "5", "--j", "1", "--kind", "f")
    assert rc == 2 and out == ""  # the config file's epsilon did not carry
    assert one_error_line(err) == "error: missing required parameter --epsilon"


def test_config_file_errors(capsys, tmp_path):
    rc, _, err = run(
        capsys, "reflect", "--m", "10", "--j", "1", "--epsilon", "20",
        "--config", str(tmp_path / "nope.json"),
    )
    assert rc == 2 and err
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    rc, _, err = run(
        capsys, "reflect", "--m", "10", "--j", "1", "--epsilon", "20",
        "--config", str(bad),
    )
    assert rc == 2
    bad.write_text(json.dumps({"format": "default"}))
    rc, _, err = run(
        capsys, "reflect", "--m", "10", "--j", "1", "--epsilon", "20", "--no-flux",
        "--config", str(bad),
    )
    assert rc == 2 and "--format must be" in err


def test_one_config_file_serves_several_subcommands_like_flags(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"epsilon": 20, "m": 10, "j": 1, "kind": "out", "grid": 5, "r_min": 0.2, "format": "json"}
    ))
    flags = {
        "potential": ["--epsilon", "20", "--m", "10", "--j", "1", "--grid", "5", "--r-min", "0.2"],
        "wave": ["--epsilon", "20", "--m", "10", "--j", "1", "--kind", "out", "--grid", "5",
                 "--r-min", "0.2"],
        "reflect": ["--epsilon", "20", "--m", "10", "--j", "1", "--no-flux"],
    }
    for command, argv in flags.items():
        extra = ["--no-flux"] if command == "reflect" else []
        from_file = run(capsys, command, "--config", str(cfg), *extra)
        from_flags = run(capsys, command, *argv, "--format", "json")
        assert from_file[0] == 0 and from_file == from_flags, command


def test_missing_required_parameter(capsys):
    rc, _, err = run(capsys, "reflect", "--m", "10", "--j", "1")
    assert rc == 2 and "epsilon" in err


@pytest.mark.parametrize("value", ["banana", "inf", "nan", "0"])
@pytest.mark.parametrize("command", [
    ("reflect", "--epsilon", "20", "--m", "10", "--j", "1", "--no-flux", "--format", "json"),
    ("expand", "--mu", "2", "--X", "1e-3", "--j", "0", "--format", "json"),
    ("potential", "--m", "5", "--j", "1", "--grid", "3"),
    ("classify", str(FIXDIR / "de_sitter_radial.json")),
])
def test_tol_in_the_environment_changes_nothing(capsys, monkeypatch, command, value):
    # the flux check's tolerance is fixed, so no environment value is read
    plain = run(capsys, *command)
    monkeypatch.setenv("DSW_TOL", value)
    assert plain[0] == 0 and run(capsys, *command) == plain


def test_flux_check_keeps_its_tolerance_under_dsw_tol(capsys, monkeypatch):
    # at a tolerance of 1e-14 the Riccati panels refuse here and the
    # collocation fallback exhausts its step budget: no setting may reach it
    argv = ("reflect", "--epsilon", "10000", "--m", "50", "--j", "1", "--format", "json")
    plain = run(capsys, *argv)
    monkeypatch.setenv("DSW_TOL", "1e-14")
    assert plain[0] == 0 and run(capsys, *argv) == plain


def test_tol_flag_is_refused(capsys):
    argv = ["reflect", "--epsilon", "20", "--m", "10", "--j", "1", "--no-flux", "--tol", "1e-9"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"j": 1.5, "m": 5}, "j"),
        ({"j": True, "m": 5}, "j"),
        ({"j": 1, "m": 5, "grid": 2.5}, "grid"),
        ({"j": float("inf"), "m": 5}, "j"),
        ({"j": 1, "m": [5]}, "m"),
        ({"j": [1], "m": 5}, "j"),
        ({"j": 1, "m": {"a": 1}}, "m"),
        ({"j": "one", "m": 5}, "j"),
        ({"j": 1, "m": 5, "output": 99}, "output"),
        ({"j": 1, "m": 5, "output": ["a"]}, "output"),
        # declared by the subcommand but not read in physical units
        ({"units": "physical", "R": 10, "lam": 1, "mu": 2, "j": 1, "m": [5]}, "m"),
    ],
)
def test_config_values_of_the_wrong_type_exit_2_naming_the_key(capsys, tmp_path, config, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    rc, out, err = run(capsys, "potential", "--config", str(cfg))
    assert rc == 2 and out == ""
    assert one_error_line(err).startswith(f"error: config key '{key}' must be"), err


def test_config_values_that_convert_exactly_keep_working(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"j": 2.0, "m": "5", "grid": 3, "epsilon": None, "format": "json"}))
    rc, out, _ = run(capsys, "potential", "--config", str(cfg))
    assert rc == 0
    assert json.loads(out)["inputs"] == {"units": "horizon", "epsilon": 5.0, "m": 5.0, "j": 2}


@pytest.mark.parametrize("target", ["missing-dir/out.csv", ""])  # no parent; a directory
def test_unwritable_output_exits_2_naming_the_path(capsys, tmp_path, target):
    path = str(tmp_path / target)
    rc, out, err = run(capsys, "potential", "--m", "5", "--j", "1", "--grid", "3", "--output", path)
    assert rc == 2 and out == ""
    line = one_error_line(err)
    assert line.startswith("error: cannot write output file") and path in line, line


def test_units_round_trip_identical_output(capsys):
    # physical parameters that map exactly onto the horizon-units run
    _, horizon, _ = run(
        capsys, "wave", "--epsilon", "20", "--m", "10", "--j", "1",
        "--kind", "f", "--grid", "7",
    )
    _, physical, _ = run(
        capsys, "wave", "--units", "physical", "--R", "5", "--lam", "0.5",
        "--mu", "2", "--j", "1", "--kind", "f", "--grid", "7",
    )
    assert horizon == physical


def test_output_file_and_determinism(capsys, tmp_path):
    target = tmp_path / "out.csv"
    argv = ("potential", "--m", "5", "--j", "1", "--grid", "50",
            "--output", str(target))
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and out == ""
    first = target.read_bytes()
    run(capsys, *argv)
    assert target.read_bytes() == first


def test_json_output_has_sorted_keys(capsys):
    rc, out, _ = run(
        capsys, "reflect", "--epsilon", "20", "--m", "10", "--j", "1",
        "--format", "json", "--no-flux",
    )
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == sorted(doc)
    assert list(doc["report"]) == sorted(doc["report"])


# --- input validation and bounded work ----------------------------------------


def one_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


@pytest.mark.parametrize(
    "argv, name",
    [
        (("potential", "--m=nan", "--j=1"), "m"),
        (("potential", "--m=inf", "--j=1"), "m"),
        (("potential", "--m=1e300", "--j=1"), "m"),
        (("reflect", "--epsilon=nan", "--m=5", "--j=1", "--no-flux"), "epsilon"),
        (("reflect", "--epsilon=20", "--m=-10", "--j=1", "--no-flux"), "m"),
        (("wave", "--epsilon=inf", "--m=5", "--j=1", "--kind=f"), "epsilon"),
        (("expand", "--mu=nan", "--X=1e-3", "--j=0"), "mu"),
        (("expand", "--mu=2", "--X=nan", "--j=0"), "X"),
        (("flat-limit", "--mu=inf", "--j=1"), "mu"),
        (("reflect", "--units=physical", "--R=nan", "--lam=1", "--mu=2", "--j=1"), "R"),
        (("reflect", "--units=physical", "--R=10", "--lam=-1", "--mu=2", "--j=1"), "lam"),
        (("expand", "--mu=2", "--X=1e-3", "--j=-1"), "j"),
        (("potential", "--m=5", f"--j={10**200}", "--grid=3"), "j"),
        (("flat-limit", "--mu=2", "--j=1", "--scales=0"), "scales"),
        (("flat-limit", "--mu=2", "--j=1", "--scales=1e3", "--fixed-kappa=0"), "fixed_kappa"),
        (("flat-limit", "--mu=2", "--j=1", "--scales=1e3,inf"), "scales"),
        (("flat-limit", "--mu=2", "--j=1", "--scales=1e3", "--fixed-kappa=inf"), "fixed_kappa"),
        (("flat-limit", "--mu=2", "--j=1", "--kr=nan"), "kr"),
        (("flat-limit", "--mu=2", "--j=1", "--kr=inf"), "kr"),
        # (mu/X)^2 beyond double range at X (1.5e-162, 1e-158), at the X/100
        # rung of the remainder ladder alone (1e-152), or with k = inf
        # (mu = 1e300)
        (("expand", "--mu=2", "--X=1.5e-162", "--j=0"), "X"),
        (("expand", "--mu=2", "--X=1e-158", "--j=0"), "X"),
        (("expand", "--mu=2", "--X=1e-152", "--j=0"), "X"),
        (("expand", "--mu=1e300", "--X=1e-3", "--j=0"), "mu"),
        # the audit's kr window at X = 1e-2 reaches past the horizon
        (("expand", "--mu=1.01", "--X=0.01", "--j=0"), "mu"),
        # 1 - r^2 rounds to 1 below r ~ 7.45e-9
        (("wave", "--epsilon=100", "--m=50", "--j=1", "--kind=out", "--r-min=1e-9", "--r-max=2e-9", "--grid=2"), "r"),
        (("wave", "--epsilon=100", "--m=50", "--j=1", "--kind=in", "--r-min=1e-9", "--r-max=2e-9", "--grid=2"), "r"),
        (("wave", "--epsilon=100", "--m=50", "--j=1", "--kind=f", "--residuals", "--r-min=1e-9", "--r-max=2e-9",
          "--grid=2"), "r"),
    ],
)
def test_non_finite_or_negative_parameters_exit_2_naming_them(capsys, argv, name):
    rc, out, err = run(capsys, *argv)
    line = one_error_line(err)
    assert rc == 2 and out == ""
    assert re.search(rf"\b{name}( must|=)", line), line


@pytest.mark.parametrize("epsilon, m", [("1e20", "5"), ("1e160", "5"), ("1e200", "1e199")])
def test_far_field_overflow_is_a_numerics_failure(capsys, epsilon, m):
    # the Gamma phase carries ~1e6 radians of rounding (1e20), eps^2
    # overflows (1e160), or eps^2 - m^2 is inf - inf (1e200): no nan,
    # invariant or traceback leaks
    rc, out, err = run(
        capsys, "reflect", f"--epsilon={epsilon}", f"--m={m}", "--j=1", "--no-flux"
    )
    cause = "lose their digits" if epsilon == "1e20" else "overflow"
    assert rc == 4 and out == ""
    assert one_error_line(err).startswith(f"error: far-field amplitudes {cause}")


def _far_field_c2(eps: float, m: float, j: int) -> mp.mpc:
    """C2 = pi (-1)^j Gamma(1 - i eps) / (Gamma(w+s) Gamma(v+s)) 2^-p kappa^(j+1)."""
    with mp.workdps(40):
        eps, m = mp.mpf(eps), mp.mpf(m)
        p = j + mp.mpf(1) / 2
        s = (1 + p) / 2
        w, v = mp.mpc(0, -(eps - m) / 2), mp.mpc(0, -(eps + m) / 2)
        common = mp.gamma(mp.mpc(1, -eps)) / (mp.gamma(w + s) * mp.gamma(v + s))
        return mp.pi * (-1) ** j * common * 2 ** (-p) * mp.sqrt(eps**2 - m**2) ** (j + 1)


def test_far_field_amplitudes_keep_ten_digits_at_eps_1e4(capsys):
    rc, out, err = run(capsys, "reflect", "--epsilon=1e4", "--m=10", "--j=1", "--no-flux",
                       "--format=json")
    assert rc == 0 and err == ""
    c2 = complex(*json.loads(out)["report"]["C2"])
    want = _far_field_c2(1e4, 10.0, 1)
    assert abs(c2 - want) < 1e-10 * abs(want)  # measured 1.0e-11


@pytest.mark.parametrize("epsilon", ["1e6", "1e10"])
def test_far_field_amplitudes_without_ten_digits_exit_4_naming_eps(capsys, epsilon):
    # the rounding of the ~eps ln eps radian Gamma phase reaches 3e-9 and 5e-5
    rc, out, err = run(capsys, "reflect", f"--epsilon={epsilon}", "--m=10", "--j=1", "--no-flux")
    assert rc == 4 and out == ""
    line = one_error_line(err)
    assert line.startswith("error: far-field amplitudes lose their digits at eps="), line
    assert f"eps={float(epsilon):.6g}" in line, line


@pytest.mark.parametrize(
    "argv, r",
    [
        (("wave", "--epsilon=2000", "--m=1000", "--j=1000", "--kind=g", "--grid=3"), "0.05"),
        (("wave", "--epsilon=20", "--m=10", "--j=1000", "--kind=g", "--grid=3"), "0.05"),
        (("wave", "--epsilon=20", "--m=10", "--j=0", "--kind=g", "--r-min=1e-200", "--grid=3"), "1e-200"),
    ],
)
def test_wave_beyond_double_range_is_a_numerics_failure_naming_j_and_r(capsys, argv, r):
    # r^-(j+1) overflows, or r^2 underflows to 0 under the singular exponent
    rc, out, err = run(capsys, *argv)
    assert rc == 4 and out == ""
    line = one_error_line(err)
    j = argv[3].partition("=")[2]
    assert f"j={j}" in line and f"r={r}" in line, line


@pytest.mark.parametrize("residuals", [(), ("--residuals",)], ids=["running", "residuals"])
def test_wave_connection_coefficients_beyond_double_range_exit_4_naming_them(capsys, residuals):
    # eps << m: the Gamma pair of hyp2f1's connection route (the running
    # wave) and of waves.connect (the residual column) is beyond double
    # range; one line names it and its (a, b, c), not a generic overflow
    rc, out, err = run(capsys, "wave", "--epsilon=15.91219844874046", "--m=487.55227161580325",
                       "--j=2", "--kind=in", "--grid=3", *residuals)
    assert rc == 4 and out == ""
    line = one_error_line(err)
    assert line.startswith("error: z -> 1-z connection coefficients beyond double range at (a, b, c) = ("), line
    assert "overflow" not in line, line


def test_flat_limit_bessel_beyond_double_range_names_kr(capsys):
    # J_-20.5 at kr = 1e-20 is beyond double range: the error names that
    # Bessel value, not a generic overflow
    rc, out, err = run(capsys, "flat-limit", "--mu=2", "--j=20", "--kr=1e-20")
    assert rc == 4 and out == ""
    line = one_error_line(err)
    assert "1e-20" in line and "overflow" not in line, line


_NAN_WAVE = ("wave", "--epsilon", "0.2407", "--m", "363.87", "--j", "0", "--kind", "out",
             "--r-min", "0.001", "--r-max", "0.8453", "--grid", "3")
_NAN_EXPAND = ("expand", "--mu", "868", "--X", "1.4e-4", "--j", "14", "--r-min", "0.9", "--r-max", "1.1",
               "--grid", "3")


@pytest.mark.parametrize(
    "argv, where",
    [
        # hyp2f1 returns nan at r = 0.42315, where eps < m (ROADMAP item 12)
        (_NAN_WAVE, "in output column 're_u' at r=0.42315 (row 2)"),
        (_NAN_WAVE + ("--format", "json"), "at output key 'table.rows[1][1]'"),
        # the float first-order series overflows at mu = 868 (ROADMAP item 13)
        (_NAN_EXPAND, "at output key 'first_order_identity_error'"),
    ],
)
def test_non_finite_output_exits_4_naming_where_and_writes_nothing(capsys, tmp_path, argv, where):
    rc, out, err = run(capsys, *argv)
    assert rc == 4 and out == ""
    assert one_error_line(err) == f"error: non-finite value nan {where}"
    target = tmp_path / "out.txt"
    rc, out, err = run(capsys, *argv, "--output", str(target))
    assert rc == 4 and out == "" and not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("reflect", "--m=10", "--j=1", "--no-flux", "--sweep", "epsilon=20:1e9:1e-9"),
        ("reflect", "--m=10", "--j=1", "--no-flux", "--sweep", "epsilon=20:nan:1"),
        ("wave", "--epsilon=20", "--m=10", "--j=1", "--kind=f", "--grid", str(10**12)),
        ("potential", "--m=5", "--j=1", "--grid", "10001"),
        # steps below the spacing of doubles at 1e300 and at 1e17
        ("reflect", "--m=10", "--j=1", "--no-flux", "--sweep", "epsilon=1e300:1e300:1"),
        ("reflect", "--m=10", "--j=1", "--no-flux", "--sweep", "epsilon=1e17:1e17:1"),
    ],
)
def test_long_or_non_finite_lists_are_refused_before_they_are_built(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    one_error_line(err)


def test_grid_at_the_point_limit_is_accepted(capsys):
    rc, out, _ = run(capsys, "potential", "--m=5", "--j=1", "--grid", "10000")
    assert rc == 0 and len(out.splitlines()) == 10_001
