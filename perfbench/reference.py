"""Reference outputs the benchmark checks every result against.

A speed-up must not change what the harness computes, so each workload
compares its outputs with digests recorded at the commit that defined
the benchmark (``perfbench/reference/``, regenerated only on purpose by
``perfbench/record_reference.py``):

* ``cells.json`` maps each sweep cell's ``cell_key`` to a SHA-256 of
  its modeled outputs — ``times_s``, ``energies_j`` and ``counters`` —
  for every cell any workload requests;
* ``lint.json`` maps each benchmark to a SHA-256 of its canonical
  ``lint --deep --traces --aiwc --json`` document.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DEFAULT_DIR = Path(__file__).resolve().parent / "reference"

#: Model seed and sample count of every checked cell: the CLI defaults.
MODEL_SEED = 12345
SAMPLES = 50


def cell_digest(payload: dict) -> str:
    """Digest of a cell's modeled outputs, from its result payload.

    ``payload`` is :func:`repro.harness.sweep.result_to_payload` output
    or the ``result`` of a served job, which has the same shape.  JSON
    floats round-trip exactly, so both give the same digest.
    """
    material = {"times_s": [float(t) for t in payload["times_s"]],
                "energies_j": [float(e) for e in payload["energies_j"]],
                "counters": payload["counters"]}
    blob = json.dumps(material, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def lint_digest(document: str) -> str:
    """Digest of one benchmark's canonical ``lint --json`` document."""
    return hashlib.sha256(document.encode()).hexdigest()


def load(directory: Path | str = DEFAULT_DIR) -> tuple[dict, dict]:
    """``(cells, lint)`` digest tables from ``directory``."""
    directory = Path(directory)
    cells = json.loads((directory / "cells.json").read_text())
    lint = json.loads((directory / "lint.json").read_text())
    return cells, lint
