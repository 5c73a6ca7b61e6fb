"""One sample of a workload, in a fresh interpreter.

``run.py`` starts this program once per sample and clocks its set-up
from the outside: the program prints ``READY`` as soon as ``repro`` is
imported, then runs one pass of the workload and prints one JSON line
with the pass's wall time, the per-operation latencies and the failed
operations.  Three modes:

``--workload sweep-exec|sweep-model|lint-gates``
    One pass of the workload (``--trace-dir`` adds layer wrappers and
    dumps their statistics there).  With ``--probe``, import what the
    workload needs and exit: one more set-up sample.
``--serve ARGS...``
    ``repro serve ARGS`` with layer wrappers in the server and its
    worker pool, statistics dumped to ``--trace-dir`` (the traced
    ``serve-mix`` server).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path


def timed_units(units: list) -> tuple[list, dict]:
    """Call each unit of work in turn, split at speed probes.

    ``latencies_s`` and ``run_s`` (their sum) are scaled to the
    reference host speed (``speed.py``); ``wall_s`` is the raw sum.
    """
    from speed import ScaledClock

    clock = ScaledClock(os.getpid())
    results, raw, scaled = [], [], []
    for unit in units:
        results.append(unit())
        raw_s, factor = clock.split()
        raw.append(raw_s)
        scaled.append(raw_s * factor)
    return results, {"run_s": sum(scaled), "wall_s": sum(raw),
                     "latencies_s": scaled,
                     "noisy_probes": clock.noisy_probes}


def sweep_pass(workload: str, seed: int, quick: bool, work_dir: Path,
               cells_ref: dict) -> dict:
    """The workload's cells on the sweep devices in one serial
    ``run_sweep`` call, as ``run all --jobs 1`` makes it.

    The pass is split at a speed probe before each ``run_benchmark``
    call and at its end.  A cell's latency is its stretch: from its
    ``run_benchmark`` call to the next cell's, so it includes its cache
    write and log record.  ``run_s`` also counts the stretch before the
    first cell (the cache lookups and the ordering).
    """
    from importlib import import_module

    from repro.harness.sweep import SweepCache, cell_key, result_to_payload

    from reference import cell_digest
    from speed import ScaledClock
    from workloads import SWEEPS, run_config, sweep_cells

    # by module path: the package attribute ``sweep`` is a function
    sweep = import_module("repro.harness.sweep")
    execute = SWEEPS[workload][1]
    configs = [run_config(cell, execute)
               for cell in sweep_cells(workload, seed, quick)]
    stretches: list[tuple[str | None, float, float]] = []
    current: list[str | None] = [None]
    run_benchmark = sweep.run_benchmark

    def split() -> None:
        raw_s, factor = clock.split()
        stretches.append((current[0], raw_s, raw_s * factor))

    def timed_run_benchmark(config, *args, **kwargs):
        split()
        current[0] = cell_key(config)
        return run_benchmark(config, *args, **kwargs)

    clock = ScaledClock(os.getpid())
    sweep.run_benchmark = timed_run_benchmark
    try:
        outcome = sweep.run_sweep(configs, jobs=1,
                                  cache=SweepCache(work_dir / "cache"))
    finally:
        sweep.run_benchmark = run_benchmark
    split()
    latency = {key: scaled for key, _, scaled in stretches}

    failures = []
    for config, result in zip(configs, outcome.results):
        cell = f"{config.benchmark}/{config.size}/{config.device}"
        if execute and not result.validated:
            failures.append(f"{cell}: not validated")
        elif (cell_digest(result_to_payload(result))
              != cells_ref.get(cell_key(config))):
            failures.append(f"{cell}: modeled output differs")
    return {"run_s": sum(scaled for _, _, scaled in stretches),
            "wall_s": sum(raw for _, raw, _ in stretches),
            # a cell the sweep did not start on its own takes no time
            "latencies_s": [latency.get(cell_key(c), 0.0) for c in configs],
            "noisy_probes": clock.noisy_probes,
            "attempted": len(configs), "failures": failures}


def lint_pass(seed: int, quick: bool, lint_ref: dict) -> dict:
    """The three IR gates (deep + traces + aiwc) over every source."""
    from repro.analysis import run_deep_suite

    from reference import lint_digest
    from workloads import QUICK_LINT, lint_benchmarks

    names = list(QUICK_LINT) if quick else lint_benchmarks()
    random.Random(seed).shuffle(names)
    reports, timing = timed_units(
        [lambda n=name: run_deep_suite(benchmarks=[n], traces=True, aiwc=True)
         for name in names])

    failures = []
    for name, report in zip(names, reports):
        errors = [f for f in report.findings if f.severity == "error"]
        if errors:
            failures.append(f"{name}: {len(errors)} error finding(s)")
        elif lint_digest(report.to_json()) != lint_ref.get(name):
            failures.append(f"{name}: lint --json differs from the reference")
    return {**timing, "attempted": len(names), "failures": failures}


def serve(argv: list[str], trace_dir: Path) -> int:
    """``repro serve`` with every layer wrapped, dumping on exit."""
    from repro.harness.cli import main

    import layers

    stats = layers.Layers()
    layers.install(stats, dump_dir=trace_dir)
    try:
        return main(["serve", *argv])
    finally:
        layers.dump(stats, trace_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload",
                      choices=("sweep-exec", "sweep-model", "lint-gates"))
    mode.add_argument("--serve", nargs=argparse.REMAINDER)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--work-dir", type=Path)
    parser.add_argument("--reference", type=Path)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    if args.serve is not None:
        return serve(args.serve, args.trace_dir)

    import repro  # noqa: F401  (set-up ends when repro is importable)
    if args.workload == "lint-gates":
        import repro.analysis  # noqa: F401
    else:
        import repro.harness.sweep  # noqa: F401
    print("READY", flush=True)
    if args.probe:
        return 0

    import reference

    cells_ref, lint_ref = reference.load(args.reference)
    stats = None
    if args.trace_dir is not None:
        import layers

        stats = layers.Layers()
        layers.install(stats)
    if args.workload == "lint-gates":
        outcome = lint_pass(args.seed, args.quick, lint_ref)
    else:
        outcome = sweep_pass(args.workload, args.seed, args.quick,
                             args.work_dir, cells_ref)
    if stats is not None:
        layers.dump(stats, args.trace_dir)
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
