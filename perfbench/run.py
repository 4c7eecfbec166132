#!/usr/bin/env python3
"""plink benchmark harness: one workload per process, stdlib only.

    python3 perfbench/run.py --workload gated-reduce --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 20] [--trace 1]

Run from the repository root; the harness imports plink from ``src/``.  It
times each operation of the workload's fixed batch from outside (one public
call per operation), repeats the batch until ``--seconds`` have passed and
enough latency samples exist, then checks every answer outside the timed
window.  The last line of standard output is one JSON object; with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one extra, traced batch.  ``--all`` runs every workload
in a child process of its own and prints their metrics.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MODULES = ("complexes", "homology", "tugraph", "ohcp", "pipeline", "scxio",
           "fixtures")
SETUP_REPEATS = 5
MIN_SAMPLES = 100     # so that ten samples lie above the 90th percentile


def import_plink() -> SimpleNamespace:
    """A fresh import of plink: earlier imports are dropped first, so each
    set-up pays for the import again."""
    for name in [n for n in sys.modules
                 if n == "plink" or n.startswith("plink.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"plink.{m}")
                              for m in MODULES})


def set_up(workload, seed: int):
    """Import plink and build the batch SETUP_REPEATS times; the median
    time is setup_s, the last import and batch are the ones measured."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        P = import_plink()
        ops = workload.build(P, seed)
        times.append(time.perf_counter() - t0)
    return P, ops, statistics.median(times)


def execute(P, op, tracer=None):
    """Time one operation on freshly parsed inputs; a raised exception is
    its result, which every check rejects."""
    inputs = op.prepare(P)
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result = op.run(P, *inputs)
    except Exception as exc:
        result = exc
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if isinstance(result, Exception):
        print(f"{op.kind} {op.label} raised:", file=sys.stderr)
        traceback.print_exception(result, file=sys.stderr)
    return elapsed, result


def run_batch(P, ops, tracer=None):
    timed = [execute(P, op, tracer) for op in ops]
    return [t for t, _ in timed], [r for _, r in timed]


def summary_digest(workload, result):
    if isinstance(result, Exception):
        return None
    return workload.summary(result)


def measure(P, workload, ops, seconds: float, seed: int) -> dict:
    """Repeat the batch, then check the first batch's answers; later
    batches must reproduce them exactly."""
    t0 = time.perf_counter()
    lat, first = run_batch(P, ops)
    batch_wall = time.perf_counter() - t0
    reference = [summary_digest(workload, r) for r in first]
    batches = max(math.ceil(MIN_SAMPLES / len(ops)),
                  math.ceil(seconds / batch_wall))
    timings = [lat]
    mismatched = [False] * len(ops)
    for _ in range(batches - 1):
        lat, results = run_batch(P, ops)
        timings.append(lat)
        for i, r in enumerate(results):
            if summary_digest(workload, r) != reference[i]:
                mismatched[i] = True
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = workload.check(P, ops, first, seed)
    failed = sum(batches for i, ok in enumerate(verdicts)
                 if not ok or reference[i] is None or mismatched[i])
    return {"batches": batches, "timings": timings,
            "attempted": batches * len(ops), "failed": failed,
            "reference": reference, "verdicts": verdicts,
            "peak_rss_mb": peak_rss_mb}


def batch_seconds(timings: list) -> float:
    """Time to finish the batch, each operation taking its median time over
    the batches: robust to a slow or fast spell of the machine in one."""
    return sum(statistics.median(op_times) for op_times in zip(*timings))


def batch_percentile(timings: list, q: int) -> float:
    """The q-th percentile of each batch's timings, median over batches.
    Pooling all timings instead would let the slowest batches own the tail."""
    return statistics.median(statistics.quantiles(lat, n=100)[q - 1]
                             for lat in timings)


def end_to_end(setup_s: float, m: dict) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (batch_seconds(m["timings"]), "s"),
        "op_p50_ms": (batch_percentile(m["timings"], 50) * 1e3, "ms"),
        "op_p90_ms": (batch_percentile(m["timings"], 90) * 1e3, "ms"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
    }


def ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, setup_tracer, batch_s: float, overhead_s: float
              ) -> dict:
    """Layer self time is reported as its share of the traced batch's time,
    so a layer a workload never calls reads 0 as a ratio, not as a time."""
    c, n = tracer.calls, tracer.counters

    def share(layer):
        return (tracer.layer_self_s(layer) / batch_s, "ratio")

    steps, skips = n["reduce_contracted"], n["reduce_skipped"]
    tu_checks = c["tugraph.is_totally_unimodular"]
    return {
        "complexes.self_share": share("complexes"),
        "complexes.link_calls": (c["complexes.SimplicialComplex.link"],
                                 "count"),
        "complexes.link_checks": (
            c["complexes.SimplicialComplex.satisfies_p_link"]
            + c["complexes.SimplicialComplex.satisfies_link_condition"],
            "count"),
        "complexes.contractions": (c["complexes.contract_edge"], "count"),
        "complexes.complexes_built": (
            c["complexes.SimplicialComplex.__init__"], "count"),
        "complexes.simplices_built": (n["simplices_built"], "count"),
        "pipeline.self_share": share("pipeline"),
        "pipeline.steps": (steps, "count"),
        "pipeline.skips": (skips, "count"),
        "pipeline.gate_pass_ratio": (ratio(steps, steps + skips), "ratio"),
        "homology.self_share": share("homology"),
        "homology.snf_calls": (c["homology.smith_normal_form"], "count"),
        "homology.snf_cells": (n["snf_cells"], "cells"),
        "homology.rank_calls": (c["homology.matrix_rank"], "count"),
        "homology.boundary_builds": (
            c["homology.boundary_matrix"]
            + c["homology.relative_boundary_matrix"], "count"),
        "homology.pairs_enumerated": (n["pairs_enumerated"], "count"),
        "homology.pairs_per_verdict": (
            ratio(n["pairs_enumerated"], n["oracle_verdicts"]), "ratio"),
        "tugraph.self_share": share("tugraph"),
        "tugraph.tu_checks": (tu_checks, "count"),
        "tugraph.cycles_enumerated": (n["cycles_enumerated"], "count"),
        "tugraph.cycles_per_verdict": (
            ratio(n["cycles_enumerated"], tu_checks), "ratio"),
        "tugraph.witness_ratio": (ratio(n["tu_witnesses"], tu_checks),
                                  "ratio"),
        "tugraph.transports": (c["tugraph.construct_preimage_circuit"],
                               "count"),
        "ohcp.self_share": share("ohcp"),
        "ohcp.lp_solves": (c["ohcp.solve_lp_exact"], "count"),
        "ohcp.lp_solves_per_ilp": (
            ratio(n["lp_solves_in_ilp"], c["ohcp.solve_ilp"]), "ratio"),
        "ohcp.lp_cells": (n["lp_cells"], "cells"),
        "scxio.self_s": (setup_tracer.layer_self_s("scxio"), "s"),
        "trace.batch_s": (batch_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def traced(P, workload, ops, seed: int, m: dict):
    """One traced batch (and one traced build of the inputs, for scxio)."""
    with Tracer() as setup_tracer:
        setup_tracer.active = True
        workload.build(P, seed)
        setup_tracer.active = False
    with Tracer() as tracer:
        lat, results = run_batch(P, ops, tracer)
    # tracing must not change an answer
    changed = sum(1 for i, r in enumerate(results)
                  if summary_digest(workload, r) != m["reference"][i]
                  or not m["verdicts"][i])
    batch_s = sum(lat)
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"trace-{workload.name}-seed{seed}.json"
    dump.write_text(json.dumps({"batch": tracer.summary(),
                                "setup": setup_tracer.summary()}, indent=1))
    return (per_layer(tracer, setup_tracer, batch_s,
                      batch_s - batch_seconds(m["timings"])), changed)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "plink" / "__init__.py").is_file():
        print(f"error: no plink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if name not in workloads.WORKLOADS:
        print(f"error: unknown workload {name!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name]
    P, ops, setup_s = set_up(workload, seed)
    m = measure(P, workload, ops, seconds, seed)
    attempted, failed = m["attempted"], m["failed"]
    metrics = end_to_end(setup_s, m)
    print(f"workload {name}: seed {seed}, {len(ops)} ops per batch, "
          f"{m['batches']} batches, {m['attempted']} latency samples; "
          f"python {platform.python_version()}")
    if trace:
        layer_metrics, changed = traced(P, workload, ops, seed, m)
        attempted += len(ops)
        failed += changed
        for key, (value, unit) in metrics.items():
            print(f"  {key} = {value:.6g} {unit}")
        metrics = layer_metrics
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"error_rate = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a process of its own."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = ap.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
