"""Self-test of the benchmark.  From the root of a checkout::

    python3 perfbench/selftest.py

1. A minimal-length (``--quick``) pass over every workload, untraced and
   traced, must print every metric ``BENCHMARK.json`` names, each with
   its unit, and report no failure.
2. One deliberately corrupted reference digest — of a cell the quick
   ``sweep-exec`` pass requests, and of one benchmark's lint document —
   must make ``failed`` nonzero and ``correct`` false.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``
   the benchmark must exit nonzero without printing a result.

Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED),
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            out = result(bench("--workload", workload, "--trace", trace,
                               "--quick"))
            assert out["correct"] and out["failed"] == 0, out
            assert out["attempted"] >= 1, out
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: metric["unit"]
                       for name, metric in out["metrics"].items()}
            assert printed == expected, (workload, trace, printed)
            print(f"ok  {workload} --trace {trace}: {len(printed)} metrics")


def check_corrupted_reference(scratch: Path) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from repro.harness.sweep import cell_key

    import reference
    from workloads import QUICK_LINT, SWEEPS, run_config, sweep_cells

    corrupted = scratch / "reference"
    shutil.copytree(reference.DEFAULT_DIR, corrupted)
    cells, lint = reference.load(corrupted)
    cell = sweep_cells("sweep-exec", SEED, quick=True)[0]
    key = cell_key(run_config(cell, SWEEPS["sweep-exec"][1]))
    cells[key] = "0" * 64
    lint[QUICK_LINT[0]] = "0" * 64
    (corrupted / "cells.json").write_text(json.dumps(cells))
    (corrupted / "lint.json").write_text(json.dumps(lint))
    for workload in ("sweep-exec", "lint-gates"):
        out = result(bench("--workload", workload, "--trace", "0", "--quick",
                           "--reference", str(corrupted)))
        assert out["failed"] >= 1 and not out["correct"], out
        print(f"ok  {workload}: a corrupted digest gives "
              f"{out['failed']}/{out['attempted']} failed")


def check_bare_directory(scratch: Path) -> None:
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "sweep-exec", "--trace", "0", cwd=bare)
    assert proc.returncode != 0, proc
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"ok  bare directory: exit status {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        check_bare_directory(scratch)
        check_corrupted_reference(scratch)
        check_metrics(spec)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
