"""One workload, run in this process; prints its measurements as one JSON line.

Started by ``run.py`` with BLAS threads pinned to one.  Order of work:

1. generate the seeded operations (``--setup-probe`` stops here);
2. compute every reference, untimed;
3. run the warm-up cells once, untimed;
4. ``--trace 0``: run the fixed operation list back to back, one closed-loop
   caller, at least ``min_passes`` times and then while another pass fits in
   ``--seconds``; ``--trace 1``: untraced passes, then exactly one traced
   pass.  A ``calibrate.Sampler`` runs throughout, so every op time can be
   scaled to the nominal host speed;
5. after each pass, untimed, check every output against its reference;
6. report.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    import dswave

    expected = ROOT / "src" / "dswave"
    if Path(dswave.__file__).resolve().parent != expected:
        raise SystemExit(f"error: dswave imported from {dswave.__file__}, not {expected}")
    import workloads

    return workloads


def run_pass(wl, ops, sampler, tracer=None) -> tuple[list[tuple[float, float, float]], list]:
    """Runs every op once; returns (start, end, raw seconds) per op, and the
    outputs.  Raw times leave out the sampler's handler time."""
    times, outs = [], []
    gc.collect()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        mark = sampler.mark()
        try:
            out = wl.run(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = exc
        times.append(sampler.interval(mark))
        outs.append(out)
    return times, outs


class Tally:
    """Checks each pass's outputs as soon as the pass ends, so memory does
    not grow with the number of passes."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.failures: dict[tuple[str, str], dict] = {}
        self.digits: dict[str, list[float]] = {}  # per cell

    def add(self, wl, ops, refs, outs) -> None:
        for op, ref, out in zip(ops, refs, outs):
            if isinstance(out, Exception):
                v = wl.Verdict(False, None, f"raised {type(out).__name__}: {out}")
            else:
                v = wl.check(op, out, ref)
            self.attempted += 1
            if not v.ok:
                self.failed += 1
                self.failures.setdefault(
                    (op.cell, op.kind), {"cell": op.cell, "kind": op.kind, "args": repr(op.args), "note": v.note}
                )
            if v.digits is not None:
                self.digits.setdefault(op.cell, []).append(v.digits)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: always the latency of one actual op, never an
    interpolation across the gap between two different ops."""
    xs = sorted(values)
    return xs[max(0, math.ceil(pct / 100.0 * len(xs)) - 1)]


def machine() -> dict:
    import mpmath
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the traced run's spans")
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)

    wl = _import_package()
    spec = wl.WORKLOADS[args.workload]
    ops = wl.make_ops(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    refs = [wl.reference(op) for op in ops]
    for op in ops:
        if op.cell in spec.warm_cells:
            wl.run(op)

    tally = Tally()
    passes = []
    with calibrate.Sampler() as sampler:
        t_start = perf_counter()
        while True:
            t_pass = perf_counter()
            times, outs = run_pass(wl, ops, sampler)
            t_pass = perf_counter() - t_pass
            passes.append(times)
            tally.add(wl, ops, refs, outs)
            elapsed = perf_counter() - t_start
            if args.trace:
                # leave room for the traced pass, which runs slower
                if elapsed + 2.5 * t_pass > args.seconds:
                    break
            elif len(passes) >= spec.min_passes and elapsed + t_pass > args.seconds:
                break

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced, outs = run_pass(wl, ops, sampler, tracer)
            finally:
                tracer.uninstall()
            tally.add(wl, ops, refs, outs)

    def nominal(times):
        return [raw * sampler.factor(t0, t1) for t0, t1, raw in times]

    walls = [sum(nominal(times)) for times in passes]
    raw_walls = [sum(raw for _, _, raw in times) for times in passes]
    per_op = list(zip(*(nominal(times) for times in passes)))

    info = {"passes": len(walls), "raw_wall_s": raw_walls, "ops_per_pass": len(ops), "failures": list(tally.failures.values()), "machine": machine()}
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
        traced_durs = nominal(traced)
        traced_wall = sum(traced_durs)
        metrics["trace.overhead_s"] = {"value": traced_wall - statistics.median(walls), "unit": "s"}
        cell_ms: dict[str, float] = {}
        for op, d in zip(ops, traced_durs):
            cell_ms[op.cell] = max(cell_ms.get(op.cell, 0.0), 1e3 * d)
        for eps in wl.WAVE_EPS:
            for r, _ in wl.WAVE_R:
                cell = wl.wave_cell(eps, r)
                metrics[f"waves.cell.{cell}.max_ms"] = {"value": cell_ms.get(cell, 0.0), "unit": "ms"}
                metrics[f"waves.cell.{cell}.digits"] = {"value": min(tally.digits.get(cell, [0.0])), "unit": "digits"}
        info["traced_wall_s"] = traced_wall
        if args.spans:
            tracer.save(args.spans, [op.cell for op in ops])
    else:
        # an op's latency is its median over the passes; wall_s is the op
        # list at those latencies, and percentiles run over the ops, each
        # counted once per pass
        ms = [1e3 * statistics.median(times) for times in per_op]
        tail = percentile(ms, spec.tail_pct)
        info.update(tail_pct=spec.tail_pct, samples=len(ms) * len(walls),
                    beyond_tail=len(walls) * sum(1 for x in ms if x > tail),
                    op_ms=[[round(1e3 * t, 4) for t in times] for times in per_op])
        metrics = {
            "wall_s": {"value": 1e-3 * sum(ms), "unit": "s"},
            "op_p50_ms": {"value": percentile(ms, 50.0), "unit": "ms"},
            "op_tail_ms": {"value": tail, "unit": "ms"},
            "accuracy_digits": {"value": min(min(d) for d in tally.digits.values()), "unit": "digits"},
            "pass_frac": {"value": 1.0 - tally.failed / tally.attempted, "unit": "frac"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
