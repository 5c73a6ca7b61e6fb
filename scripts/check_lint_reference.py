#!/usr/bin/env python
"""Check the IR gates' JSON output byte for byte against the reference.

Runs ``run_deep_suite(benchmarks=[name], traces=True, aiwc=True)`` --
the ``lint --deep --traces --aiwc`` gates -- for each of the 15
sources and compares the SHA-256 of its ``--json`` document with the
digest recorded in ``perfbench/reference/lint.json``.  The lint CI jobs
only check ``--fail-on any``; this catches a float that drifts without
crossing a tolerance band.  The reference is only read here; it is
regenerated on purpose by ``perfbench/record_reference.py``.

Usage::

    python scripts/check_lint_reference.py     # exit 1 on any mismatch
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "perfbench"))


def main() -> int:
    from reference import load, lint_digest
    from repro.analysis import run_deep_suite
    from repro.dwarfs import registry

    _cells, expected = load()
    names = [*registry.BENCHMARKS, *registry.EXTENSIONS]
    mismatched = []
    for name in names:
        report = run_deep_suite(benchmarks=[name], traces=True, aiwc=True)
        ok = lint_digest(report.to_json()) == expected.get(name)
        print(f"{name:8s} {'ok' if ok else 'DIFFERS'}", flush=True)
        if not ok:
            mismatched.append(name)
    missing = sorted(set(expected) - set(names))
    if missing:
        print(f"reference names unknown sources: {', '.join(missing)}")
    print(f"{len(names) - len(mismatched)}/{len(names)} sources match "
          "perfbench/reference/lint.json")
    return 1 if mismatched or missing else 0


if __name__ == "__main__":
    sys.exit(main())
