"""dswave benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload flux-verdict --seed 1 --seconds 30 --trace 0

Workloads: flux-verdict, wave-grid, cli-mix (see bench/README.md).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The lines before it restate the
metrics for a reader, with the tail percentile, the sample count, failing
operations and the machine.  A full record is written to
``bench/results/<workload>.trace<0|1>.json``; the traced run also writes its
spans to ``bench/results/spans-<workload>.npz``.

The package is imported from ``src/`` of the checkout this file sits in; the
benchmark fails (exit 2) when that source tree is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("flux-verdict", "wave-grid", "cli-mix")
# cold starts whose median is setup_s; one more, discarded, compiles bytecode
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170.0


def workload_env() -> dict[str, str]:
    env = dict(os.environ)
    # lstsq in the flux check and the expansion audit would otherwise start
    # one OpenBLAS thread per core for tiny matrices
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("DSW_TOL", None)
    return env


def cold_start(cmd: list[str], env: dict[str, str], sampler: calibrate.Sampler) -> tuple[float, float]:
    """(start, end) of one process start up to the worker's 'ready' line."""
    t0, _ = sampler.mark()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return t0, t1


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        return (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one dswave benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dswave" / "__init__.py").is_file():
        print(f"error: no dswave source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = workload_env()
    base = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    results = BENCH / "results"
    results.mkdir(exist_ok=True)

    setup = []
    if not args.trace:
        # the handler samples host speed in this process while the probe runs
        try:
            with calibrate.Sampler() as sampler:
                spans = [cold_start(base + ["--setup-probe"], env, sampler) for _ in range(SETUP_PROBES + 1)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        setup = [((t1 - t0) * sampler.factor(t0, t1), t1 - t0) for t0, t1 in spans[1:]]

    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(results / f"spans-{args.workload}.npz")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = payload["metrics"]
    info = payload["info"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(s for s, _ in setup), "unit": "s"}
        info["raw_setup_s"] = [raw for _, raw in setup]

    result = {k: payload[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = metrics
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "commit": commit(), **result, "info": info}
    (results / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={info['passes']} "
          f"ops/pass={info['ops_per_pass']} attempted={result['attempted']} failed={result['failed']}")
    if not args.trace:
        print(f"# op_tail_ms is p{info['tail_pct']:g} of {info['samples']} op samples "
              f"({info['beyond_tail']} beyond it)")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    for f in info["failures"]:
        print(f"# FAILED {f['cell']} {f['kind']} {f['args']}: {f['note']}")
    print(f"# machine: {json.dumps(info['machine'], sort_keys=True)} commit={record['commit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
