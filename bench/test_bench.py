"""Tests of the benchmark's own contract: seeded inputs, checks and counters."""
from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    assert workloads.make_ops(name, 7) == workloads.make_ops(name, 7)
    assert workloads.make_ops(name, 7) != workloads.make_ops(name, 8)


@pytest.mark.parametrize("name", NAMES)
def test_per_cell_counts_do_not_depend_on_seed(name):
    counts = {seed: Counter((op.cell, op.kind) for op in workloads.make_ops(name, seed)) for seed in range(5)}
    assert all(c == counts[0] for c in counts.values())


def test_flux_inputs_are_regime_valid():
    for seed in range(20):
        for op in workloads.make_ops("flux-verdict", seed):
            if op.kind == "flux":
                mu, j, m = op.args
                assert workloads.regime_valid(mu, m, j)


def _first(name: str, cell: str, kind: str) -> workloads.Op:
    return next(op for op in workloads.make_ops(name, 0) if op.cell == cell and op.kind == kind)


def test_perturbed_results_count_as_failures():
    op = _first("wave-grid", workloads.wave_cell(10.0, 0.5), "running")
    ref = workloads.reference(op)
    out = workloads.run(op)
    assert workloads.check(op, out, ref).ok
    assert not workloads.check(op, out * (1.0 + 1e-9), ref).ok

    op = _first("wave-grid", workloads.wave_cell(10.0, 0.9), "standing")
    ref = workloads.reference(op)
    out = workloads.run(op)
    assert workloads.check(op, out, ref).ok
    assert not workloads.check(op, out + 1e-9 * ref[1], ref).ok

    op = _first("cli-mix", "reflect", "cli")
    ref = workloads.reference(op)
    rc, text, err = workloads.run(op)
    assert workloads.check(op, (rc, text, err), ref).ok
    assert not workloads.check(op, (rc, text.replace("e-", "e+", 1), err), ref).ok
    assert not workloads.check(op, (1, text, err), ref).ok

    flux = _first("flux-verdict", "flux-j0-mu1.55-m10.25", "flux")
    assert not workloads.check(flux, (0.0, 2e-6), None).ok
    assert not workloads.check(flux, (2e-10, 2e-10), None).ok


def test_cli_error_paths_report_one_error_line():
    for op in workloads.make_ops("cli-mix", 3):
        if op.cell.startswith("error-"):
            (rc, out, err), verdict = workloads.reference(op)
            assert verdict.ok, (op.cell, verdict.note)
            assert rc == op.args[1] and out == ""


def _traced_counts(ops):
    tracer = Tracer()
    tracer.install()
    try:
        for op in ops:
            workloads.run(op)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    return m["oracle.integrate.steps"][0], m["model.effective_potential.calls"][0], m


def test_traced_counts_repeat_and_tracing_is_removed():
    ops = [_first("flux-verdict", "flux-j0-mu1.55-m10.25", "flux"), _first("flux-verdict", "ode-j0-eps5.25", "ode")]
    orig = workloads.waves.eval_standing
    steps, calls, m = _traced_counts(ops)
    assert steps > 0 and calls > 0
    assert m["rational_ode.FactoredRational.__call__.calls"][0] > 0
    assert m["waves.eval_standing.calls"][0] == len(workloads.ODE_GRID)
    assert _traced_counts(ops)[:2] == (steps, calls)
    assert workloads.waves.eval_standing is orig
    assert workloads.reflection.effective_potential is workloads.model.effective_potential
