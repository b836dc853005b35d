"""Benchmark for binsos: four fixed workloads, every result checked.

Run from the root of a checkout; binsos is imported from its ``src/``:

    python3 bench/run.py --workload sync_table_n4 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
Times are the thread's CPU time, which leaves out the time a shared VM's
host takes the core away.  Cell times are reported as ratios to
``reference_loop``, run on the same core around every cell, because such
a VM can also change speed in phases longer than a run.
``--trace 1`` runs untraced passes for half of ``--seconds``, then one pass
with spans around the public functions of each layer, and reports the
per-layer metrics; the wrappers are removed again before it returns.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any wrong result makes the exit
code 1.  The load is a closed loop with a single client: one process, one
thread, one cell at a time.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("sync_table_n4", "async_table_t2", "audit_n5", "oracle_n4")
SETUP_PROBES = 9
REFERENCE_ITEMS = 1600  # about 1 ms a loop
REFERENCE_REPEATS = 5
REFERENCE_S = 0.001  # nominal seconds of one reference loop, for setup_s
SLOWEST_ROWS = 10
CHILD_TIMEOUT_S = 900


def load_workloads():
    """Import binsos from this checkout's ``src/``, never an installed copy."""
    sys.path.insert(0, SRC)
    import binsos

    origin = os.path.dirname(os.path.abspath(binsos.__file__))
    if origin != os.path.join(SRC, "binsos"):
        raise ImportError(f"binsos imported from {origin}, not from {SRC}")
    import workloads

    return workloads


def setup_probe(workload: str, seed: int) -> str:
    """CPU seconds to import binsos and bind a workload, in this fresh
    process, and then the CPU seconds of a reference loop in the same process."""
    start = time.thread_time()
    load_workloads().WORKLOADS[workload](seed)
    seconds = time.thread_time() - start
    return f"{seconds!r} {timed_reference()!r}"


def setup_seconds(workload: str, seed: int):
    """Medians over ``SETUP_PROBES`` fresh processes, each importing and binding.

    Returns the seconds as measured, and the seconds at the reference speed:
    each probe's seconds over its own reference loop, times ``REFERENCE_S``.
    """
    measured, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, ref_s = map(float, done.stdout.split()[-2:])
        measured.append(seconds)
        scaled.append(seconds / ref_s * REFERENCE_S)
    return statistics.median(measured), statistics.median(scaled)


class Tally:
    """Operations attempted and wrong results, over every pass of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list = []

    def run(self, cell) -> None:
        try:
            attempted, problems = cell.op()
        except Exception as exc:  # a crashing cell is a wrong result, not an abort
            attempted, problems = 1, [f"{cell.id}: {type(exc).__name__}: {exc}"]
        self.attempted += attempted
        self.problems.extend(problems)


def reference_loop() -> int:
    """Fixed pure-Python work that every cell's time is divided by.

    On a shared 2-vCPU VM the same cell can run up to 1.6x slower for
    phases of 30 s and more, as neighbours load the host.  The loop runs
    right before and after each cell, on the same core, so it slows with
    the cell and the quotient stays put.  It calls no
    binsos code, so a change to binsos moves only the numerator.  The ratio
    metrics are in units of this loop: never change it.
    """
    table: dict = {}
    acc = 0
    for i in range(REFERENCE_ITEMS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 0xFFFF
    ordered = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    acc += sum(v for _, v in ordered if v & 1)
    return acc + len({frozenset((i, i + 1, 3 * i)) for i in range(REFERENCE_ITEMS // 7)})


def timed_reference() -> float:
    """CPU seconds of one reference loop: the median of a few, to shed interrupts.

    The garbage collector is off meanwhile: a collection would scan the
    heap the cells left behind and charge it to the loop.
    """
    times = []
    gc.disable()
    try:
        for _ in range(REFERENCE_REPEATS):
            began = time.thread_time()
            reference_loop()
            times.append(time.thread_time() - began)
    finally:
        gc.enable()
    return statistics.median(times)


def run_cells(cells, tally: Tally, seconds: float = 0.0, tracer=None):
    """Run the cells in order, round and round, until ``seconds`` are up.

    The first pass always completes, so every cell is run and checked;
    ``seconds=0`` gives exactly one pass.  A reference loop runs before the
    first cell and after each one.  Returns each cell's list of samples,
    (cell CPU seconds, reference CPU seconds), where the reference is the
    mean of the two loops on either side of the cell.
    """
    samples = {cell.id: [] for cell in cells}
    start = time.perf_counter()
    before = timed_reference()
    for done, cell in enumerate(itertools.cycle(cells)):
        if done >= len(cells) and time.perf_counter() - start > seconds:
            return samples
        if tracer is not None:
            tracer.cell = cell.id
        began = time.thread_time()
        tally.run(cell)
        cell_s = time.thread_time() - began
        after = timed_reference()
        samples[cell.id].append((cell_s, (before + after) / 2))
        before = after


def median_seconds(samples) -> float:
    return statistics.median(cell_s for cell_s, _ in samples)


def median_ratio(samples) -> float:
    return statistics.median(cell_s / ref_s for cell_s, ref_s in samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    measured_setup_s, setup_s = setup_seconds(workload, seed)
    cells = load_workloads().WORKLOADS[workload](seed)
    samples = run_cells(cells, tally, seconds)
    passes = sum(map(len, samples.values())) / len(cells)
    cell_ref = {cid: median_ratio(s) for cid, s in samples.items()}
    cell_s = {cid: median_seconds(s) for cid, s in samples.items()}
    slowest = max(cell_ref, key=cell_ref.get)
    rss_mb = peak_rss_mb()
    failure_rate = len(tally.problems) / tally.attempted
    print(f"workload {workload} seed {seed}: {len(cells)} cells, {passes:.2f} passes")
    print(f"  wall_ref        {sum(cell_ref.values()):10.3f} ref sum of per-cell median ratios "
          f"(wall_s, sum of medians: {sum(cell_s.values()):.4f} s)")
    print(f"  slowest_cell_ref{cell_ref[slowest]:10.3f} ref {slowest} ({cell_s[slowest]:.4f} s)")
    print(f"  setup_s         {setup_s:10.4f} s   at 1 ms a reference loop, median of "
          f"{SETUP_PROBES} fresh processes ({measured_setup_s:.4f} s as measured)")
    print(f"  peak_rss_mb     {rss_mb:10.2f} MB")
    print(f"  failure_rate    {failure_rate:10.4f}     "
          f"{len(tally.problems)} wrong of {tally.attempted} operations")
    return {
        "wall_ref": metric(sum(cell_ref.values()), "ref"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    import tracing

    mod = load_workloads()
    samples = run_cells(mod.WORKLOADS[workload](seed), tally, seconds / 2)
    untraced_cells = {cid: median_seconds(s) for cid, s in samples.items()}
    untraced_wall = sum(untraced_cells.values())
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, "binsos", tracing.LAYERS)
    try:
        traced = run_cells(mod.WORKLOADS[workload](seed), tally, tracer=tracer)
    finally:
        patches.restore()
    traced_cells = {cid: s[0][0] for cid, s in traced.items()}
    traced_wall = sum(traced_cells.values())
    values = tracing.layer_metrics(tracer.spans)
    values[tracing.OVERHEAD] = traced_wall - untraced_wall
    values[tracing.SLOWEST] = max(median_ratio(s) for s in samples.values())

    rows = tracing.cell_rows(tracer.spans)
    slowest = sorted(untraced_cells, key=untraced_cells.get, reverse=True)[:SLOWEST_ROWS]
    table = [{"cell": cid, "untraced_s": untraced_cells[cid], "traced_s": traced_cells[cid],
              **rows.get(cid, tracing.EMPTY_ROW)} for cid in slowest]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}_seed{seed}")
    tracer.write(stem + "_spans.jsonl.gz")
    with open(stem + "_layers.json", "w", encoding="utf-8") as out:
        json.dump({"metrics": values, "slowest_cells": table}, out, indent=1)

    print(f"workload {workload} seed {seed}: traced pass {traced_wall:.3f} s, "
          f"untraced {untraced_wall:.3f} s, {len(tracer.spans)} spans in {stem}_spans.jsonl.gz")
    for name, value in values.items():
        print(f"  {name:36s} {value:14.4f} {tracing.UNITS[name]}")
    print(f"  slowest cells (untraced s, traced s, runs, restarts, fps, dps, executions, exhaustive):")
    for row in table:
        print("    {cell:26s} {untraced_s:8.4f} {traced_s:8.4f} {runs:8} {restarts:8} "
              "{failure_patterns:7} {delay_patterns:5} {executions:8} {exhaustive}".format(**row))
    return {name: metric(value, tracing.UNITS[name]) for name, value in values.items()}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged, attempted, failed, status = {}, 0, 0, 0
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"workload {workload} ended with exit code {done.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        status = max(status, done.returncode)
        merged.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        load_workloads()
    except ImportError as exc:
        print(f"cannot import binsos from {SRC}: {exc}", file=sys.stderr)
        return 2
    tally = Tally()
    if args.trace:
        metrics = per_layer(args.workload, args.seed, args.seconds, tally)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, tally)
    for problem in tally.problems[:20]:
        print(f"  WRONG {problem}")
    failed = len(tally.problems)
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
