"""Record the reference digests in ``perfbench/reference/``.

Run from the root of a checkout, only when a change is *meant* to alter
what the harness computes (the benchmark then fails until the
references are re-recorded and the change says why)::

    PYTHONPATH=src python3 perfbench/record_reference.py

Covers every cell any workload requests — the executing tiny matrix,
the model-only medium matrix and the model-only tiny + small pool of
the serve mix — and the lint document of every source.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis import run_deep_suite
from repro.harness.sweep import cell_key, result_to_payload, run_sweep

from reference import DEFAULT_DIR, cell_digest, lint_digest
from workloads import SWEEPS, lint_benchmarks, matrix, run_config, serve_cells


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_DIR)
    args = parser.parse_args()

    configs = [run_config(cell, execute)
               for size, execute in SWEEPS.values()
               for cell in matrix(size)]
    configs += [run_config(cell, False) for cell in serve_cells()]
    outcome = run_sweep(configs)
    cells = {}
    for config, result in zip(configs, outcome.results):
        if config.execute and not result.validated:
            raise SystemExit(f"{config}: did not validate")
        cells[cell_key(config)] = cell_digest(result_to_payload(result))

    lint = {}
    for name in lint_benchmarks():
        report = run_deep_suite(benchmarks=[name], traces=True, aiwc=True)
        if any(f.severity == "error" for f in report.findings):
            raise SystemExit(f"{name}: lint gates report errors")
        lint[name] = lint_digest(report.to_json())

    args.out.mkdir(parents=True, exist_ok=True)
    for filename, table in (("cells.json", cells), ("lint.json", lint)):
        (args.out / filename).write_text(
            json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{len(cells)} cells, {len(lint)} lint documents -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
