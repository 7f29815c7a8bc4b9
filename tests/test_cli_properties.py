"""Property test of the CLI boundary over finite, non-finite and huge flags.

Every run of ``potential``, ``wave`` and ``reflect --no-flux`` ends in exit
code 0, 2, 3 or 4; a failure writes exactly one ``error:`` line to stderr,
and a success writes no NaN or infinity.
"""
from __future__ import annotations

import contextlib
import io
import math
import re

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


@settings(max_examples=80, deadline=3000, derandomize=True, database=None)
@given(invocations())
def test_cli_exit_codes_and_messages(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2, 3, 4), (argv, rc)
    if rc == 0:
        assert err.getvalue() == ""
        assert not NON_FINITE_TEXT.search(out.getvalue()), argv
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
