"""Property test of the CLI boundary over finite, non-finite and huge flags.

Every run of ``potential``, ``wave``, ``reflect``, ``expand``,
``flat-limit`` and ``classify`` ends in exit code 0, 2, 3 or 4; a failure
writes exactly one ``error:`` line to stderr, a success writes no NaN or
infinity (for ``classify``, whose report names the point at infinity, its
JSON parses strictly), and no run emits a warning (which a command-line
user would read as extra stderr lines).  ``classify`` reads a coefficient
file written for each draw, with drawn numerators, roots and
multiplicities, valid and invalid.  Besides the
edge values, the draws reach the regions that produce NaN: ``wave`` with
eps < m up to m = 500 (ROADMAP item 12) and ``expand`` with mu up to 1e3,
j <= 20 and radii near 1 (item 13).  ``reflect`` with its flux cross-check
is drawn over the benchmark's box, m in [10, 50] and mu up to 5, where its
JSON report parses strictly and the flux balance agrees with the zero
far-field verdict to 1e-6 wherever eps >= 1.5 m and eps^2 - m^2 > 100 j^2.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from dswave.cli import main  # noqa: E402

NON_FINITE_TEXT = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)

FLAG_VALUES = st.one_of(
    st.sampled_from([0.0, -1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def invocations(draw) -> list[str]:
    command = draw(st.sampled_from(["potential", "wave", "reflect"]))
    argv = [
        command,
        f"--epsilon={draw(FLAG_VALUES)!r}",
        f"--m={draw(FLAG_VALUES)!r}",
        f"--j={draw(st.sampled_from([-1, 0, 1, 2, 5]))}",
    ]
    if command == "potential":
        argv += ["--grid", "20"]
    elif command == "wave":
        argv += ["--grid", "3", "--kind", draw(st.sampled_from(["f", "g", "out", "in"]))]
    else:
        argv.append("--no-flux")
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@st.composite
def evanescent_waves(draw) -> list[str]:
    m = draw(st.floats(min_value=1.0, max_value=500.0))
    eps = m * draw(st.floats(min_value=0.01, max_value=0.99))
    argv = ["wave", f"--epsilon={eps!r}", f"--m={m!r}", f"--j={draw(st.integers(0, 20))}",
            "--kind", draw(st.sampled_from(["f", "g", "out", "in"])), "--grid", "3"]
    if draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


@st.composite
def large_mu_expansions(draw) -> list[str]:
    mu = draw(st.floats(min_value=1.05, max_value=1e3))
    x = draw(st.floats(min_value=1e-5, max_value=5e-2))
    r_min = draw(st.floats(min_value=0.8, max_value=1.0))
    r_max = draw(st.floats(min_value=1.0, max_value=1.2))
    argv = ["expand", f"--mu={mu!r}", f"--X={x!r}", f"--j={draw(st.integers(0, 20))}",
            f"--r-min={r_min!r}", f"--r-max={r_max!r}", "--grid", "3"]
    if draw(st.booleans()):
        argv += ["--format", "csv"]
    return argv


@st.composite
def flux_reflections(draw) -> list[str]:
    # mu from below 1 (evanescent, exit 3) through the threshold to 5
    m = draw(st.floats(min_value=10.0, max_value=50.0))
    eps = m * draw(st.floats(min_value=0.9, max_value=5.0))
    return ["reflect", f"--epsilon={eps!r}", f"--m={m!r}", f"--j={draw(st.integers(0, 5))}"]


@st.composite
def flat_limits(draw) -> list[str]:
    argv = ["flat-limit", f"--mu={draw(FLAG_VALUES)!r}", f"--j={draw(st.sampled_from([-1, 0, 1, 2, 5, 20, 21]))}"]
    if draw(st.booleans()):
        argv.append(f"--kr={draw(FLAG_VALUES)!r}")
    if draw(st.booleans()):
        argv.append("--scales=" + ",".join(repr(draw(FLAG_VALUES)) for _ in range(draw(st.integers(1, 3)))))
    if draw(st.booleans()):
        argv.append(f"--fixed-kappa={draw(FLAG_VALUES)!r}")
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    return argv


# Entries of a factored coefficient for classify: mostly valid (exact
# integers, rational strings, finite floats; multiplicities 1 to 3), else
# one of the entries its reader refuses.
def _mostly(valid, invalid):
    return st.integers(0, 15).flatmap(lambda k: valid if k else invalid)


COEFFICIENTS = _mostly(
    st.one_of(st.integers(-9, 9), st.sampled_from(["3/4", "-1/2", 0.5, 2.5e-3])),
    st.sampled_from([math.nan, math.inf, "q", None, True, "1/0", "1e999999", [1]]),
)
ROOTS = _mostly(
    st.one_of(st.integers(-3, 3), st.sampled_from(["1/3", "-2/5", 0.5, -0.25, 1e300])),
    st.sampled_from([math.nan, -math.inf, "x", "1/0", None, True, [1], "1e999999"]),
)
MULTIPLICITIES = _mostly(
    st.one_of(st.integers(1, 3), st.sampled_from(["2", 2.0])),
    st.sampled_from([0, -1, 1.5, "two", 10**6, None, True, math.nan, math.inf]),
)


@st.composite
def factored(draw):
    numerator = draw(st.lists(COEFFICIENTS, max_size=4))
    roots = draw(st.lists(st.tuples(ROOTS, MULTIPLICITIES).map(list), max_size=4))
    const = draw(_mostly(st.sampled_from([1, -4, "2/3", 0.5]), st.sampled_from([0, math.nan, "c"])))
    shape = draw(_mostly(st.just("factored"), st.sampled_from(["coefficient list", "no numerator", "a list"])))
    if shape == "coefficient list":
        return {"numerator": numerator, "denominator": [1, 2]}
    if shape == "no numerator":
        return {"denominator": {"const": const, "roots": roots}}
    if shape == "a list":
        return numerator
    return {"numerator": numerator, "denominator": {"const": const, "roots": roots}}


@st.composite
def coefficient_files(draw) -> dict:
    doc = {"p": draw(factored()), "q": draw(factored())}
    if not draw(st.integers(0, 9)):
        del doc[draw(st.sampled_from(["p", "q"]))]
    return doc


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert rc in (0, 2, 3, 4), (argv, rc)
    if rc == 0:
        assert err.getvalue() == ""
        if argv[0] == "classify":
            json.loads(out.getvalue(), parse_constant=_strict)
        else:
            assert not NON_FINITE_TEXT.search(out.getvalue()), argv
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return rc, out.getvalue()


@settings(max_examples=80, deadline=3000, derandomize=True, database=None)
@given(invocations())
def test_cli_exit_codes_and_messages(argv):
    _check(argv)


@settings(max_examples=60, deadline=3000, derandomize=True, database=None)
@given(st.one_of(evanescent_waves(), large_mu_expansions()))
def test_cli_exit_codes_and_messages_where_nan_arises(argv):
    _check(argv)


def _strict(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


@settings(max_examples=80, deadline=3000, derandomize=True, database=None)
@given(flat_limits())
def test_cli_flat_limit_exit_codes_and_messages(argv):
    rc, out = _check(argv)
    if rc == 0 and argv[-1] == "json":
        json.loads(out, parse_constant=_strict)


@settings(max_examples=80, deadline=3000, derandomize=True, database=None)
@given(coefficient_files())
def test_cli_classify_exit_codes_and_messages(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "coefficients.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        _check(["classify", path])


@settings(max_examples=40, deadline=3000, derandomize=True, database=None)
@given(flux_reflections())
def test_cli_flux_check_exit_codes_and_agreement_in_the_benchmark_box(argv):
    rc, out = _check(argv)
    if rc != 0:
        return
    report = json.loads(out, parse_constant=_strict)["report"]
    eps, m, j = (float(arg.partition("=")[2]) for arg in argv[1:])
    if eps >= 1.5 * m and eps * eps - m * m > 100.0 * j * j:
        assert report["flux_vs_far_field"] < 1e-6, (argv, report["flux_vs_far_field"])
